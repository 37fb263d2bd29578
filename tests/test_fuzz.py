"""Fuzzed descriptors and argv through ``cli.main``, in process.

Each case starts from the descriptor of a small catalog germ, swaps
numbers for huge, negative, float or boolean ones and drops keys, and
draws ``--bound``, ``--depth`` and ``--e1`` the same way.  Every run must
end with a documented exit code, and a failing run must print nothing to
stdout and one ``error: `` message (a margin error adds its hint) to
stderr, with no traceback.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latcurve import get
from latcurve.cli import main

SPECS = [("A", 1), ("A", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7), ("T", 3, 7),
         ("Z11",), ("W12",)]
COMMANDS = ["invariants", "table", "homology", "spectral", "motivic", "classify"]
ODD = [10**12, 10**30, -(10**12), -1, -3, 1.5, 2.0, True, False, 0]


def _paths(doc, at=()):
    """The path of every number (ints, not bools) and of every dict key."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield ("key", at + (key,))
            yield from _paths(value, at + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, at + (i,))
    elif isinstance(doc, int) and not isinstance(doc, bool):
        yield ("number", at)


def _apply(doc, kind, path, odd):
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    if kind == "key":
        del parent[last]
    else:
        parent[last] = odd


@st.composite
def descriptors(draw):
    doc = get(*draw(st.sampled_from(SPECS))).to_json_dict()
    for _ in range(draw(st.integers(1, 3))):
        kind, path = draw(st.sampled_from(list(_paths(doc))))
        _apply(doc, kind, path, draw(st.sampled_from(ODD)))
    return doc


def _text(x):
    return json.dumps(x)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    small = st.integers(0, 12)
    if draw(st.booleans()):
        bound = draw(st.lists(st.one_of(small, st.sampled_from(ODD)), min_size=1, max_size=3))
        argv.append("--bound=" + ",".join(map(_text, bound)))
    if draw(st.booleans()):
        argv.append("--depth=" + _text(draw(st.one_of(st.integers(0, 6), st.sampled_from(ODD)))))
    if command == "spectral" and draw(st.booleans()):
        query = draw(st.lists(st.one_of(small, st.sampled_from(ODD)), min_size=3, max_size=5))
        argv.append("--e1=" + ",".join(map(_text, query)))
    if draw(st.booleans()):
        argv.append("--format=json")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, out, err):
    assert code in (0, 1, 2, 3, 4)
    if code:
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert err.count("\n") == (2 if code == 3 else 1)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(descriptors(), argvs())
def test_fuzzed_descriptors_end_with_a_documented_exit_code(tmp_path_factory, doc, argv):
    path = tmp_path_factory.mktemp("fuzz") / "germ.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_documented(*run(argv + ["--germ", str(path)]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SPECS), argvs())
@example(("A", 4), ["spectral", "--e1=0,1000000000000000000000000000000,0"])
def test_fuzzed_argv_ends_with_a_documented_exit_code(spec, argv):
    assert_documented(*run(argv + ["--builtin", ",".join(map(str, spec))]))
