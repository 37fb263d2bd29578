import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latcurve
from latcurve import get
from latcurve.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_d5_matches_reference(capsys):
    code, out, _ = run_cli(["table", "--builtin", "D,5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("l2=2:")
    # starred semigroup member at (2,1) and bracketed conductor at (4,2)
    assert "-1*" in lines[1]
    assert "[0]" in lines[0]
    assert lines[2].split()[1] == "0*"


def test_invariants_a0(capsys):
    code, out, _ = run_cli(
        ["invariants", "--builtin", "A,0", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    inv = doc["invariants"]
    assert inv["multiplicity"] == [1]
    assert inv["conductor"] == [0]
    assert inv["delta"] == 0


def test_classify_t44(capsys):
    code, out, _ = run_cli(
        ["classify", "--builtin", "T,4,4", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["cmtype"] == "tame"
    assert doc["verdict"]["growth"] == "finite"
    assert doc["verdict"]["agreement"] is True


def test_spectral_queries(capsys):
    code, out, _ = run_cli(
        [
            "spectral", "--builtin", "D,5", "--format", "json",
            "--e1", "2,1,1,0", "--mincycle", "1,0",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    kinds = {q["kind"]: q for q in doc["spectral"]}
    assert kinds["e1"]["rank"] == 1
    assert kinds["mincycle"]["rank"] == 1


def test_motivic_depth(capsys):
    code, out, _ = run_cli(
        ["motivic", "--builtin", "D,4", "--format", "json", "--depth", "3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["motivic"]["omega_order"] == -1
    assert doc["motivic"]["omega_coeffs"] == [1, 5, 4, 4, 4]
    level3 = next(l for l in doc["motivic"]["levels"] if l["d"] == 3)
    assert level3["coeffs"] == {"1": 1, "2": -2}


def test_motivic_levels_read_one_coefficient_array(monkeypatch, capsys):
    from latcurve import motivic

    boxes = []
    real = motivic.coefficient_array

    def counted(h, inner):
        boxes.append(tuple(inner))
        return real(h, inner)

    monkeypatch.setattr(motivic, "coefficient_array", counted)
    code, out, _ = run_cli(
        ["motivic", "--builtin", "T,4,4", "--format", "json", "--depth", "3"], capsys
    )
    assert code == 0
    # one array for the levels 0..3, one for the omega window
    assert boxes == [(3, 3, 3, 3), (7, 7, 7, 7)]
    monkeypatch.undo()
    model = latcurve.build_model(get("T", 4, 4))
    levels = [motivic.univariate_motivic(model.hilbert, d) for d in range(4)]
    want = [{str(e): c for e, c in p.coeffs} for p in levels]
    assert [level["coeffs"] for level in json.loads(out)["motivic"]["levels"]] == want


def test_catalog_listing(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    assert "E12" in out and "T" in out


def test_descriptor_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(["catalog", "--builtin", "D,5"], capsys)
    assert code == 0
    path = tmp_path / "d5.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run_cli(
        ["invariants", "--germ", str(path), "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out2)
    assert doc["invariants"]["conductor"] == [4, 2]
    assert doc["invariants"]["delta"] == 3


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["invariants", "--germ", str(bad)], capsys)
    assert code == 2
    assert "line" in err


def test_exit_code_missing_source(capsys):
    code, _, err = run_cli(["invariants"], capsys)
    assert code == 2


def test_exit_code_margin(tmp_path, capsys):
    # an explicit hilbert grid too small to stabilize its own conductor
    doc = {
        "version": 1,
        "germ": "tiny",
        "r": 1,
        "source": {"kind": "hilbert", "bound": [2], "values": [0, 1, 1]},
        "flags": {},
        "bound": None,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["invariants", "--germ", str(path)], capsys)
    assert code == 3
    assert "hint" in err


def test_exit_code_route_disagreement(monkeypatch, capsys):
    import importlib

    cli = importlib.import_module("latcurve.cli")
    cls = importlib.import_module("latcurve.classify")
    monkeypatch.setattr(
        cls, "classify_motivic", lambda model: ({"verdict": "wild"}, model)
    )
    code, _, err = run_cli(["classify", "--builtin", "D,5"], capsys)
    assert code == 4
    assert "disagree" in err


@pytest.mark.parametrize(
    "germ,command",
    [
        ("D_5", "invariants"),
        ("D_5", "classify"),
        ("D_5", "table"),
        ("A_2", "homology"),
        ("T_4_4", "classify"),
    ],
)
def test_golden_files_byte_stable(germ, command, capsys):
    builtin = {"D_5": "D,5", "A_2": "A,2", "T_4_4": "T,4,4"}[germ]
    code, out, _ = run_cli([command, "--builtin", builtin, "--format", "json"], capsys)
    assert code == 0
    expected = (FIXTURES / germ / f"{command}.json").read_text(encoding="utf-8")
    assert out == expected


def test_golden_descriptor(capsys):
    code, out, _ = run_cli(["catalog", "--builtin", "D,5"], capsys)
    assert code == 0
    expected = (FIXTURES / "D_5" / "descriptor.json").read_text(encoding="utf-8")
    assert out == expected


def test_console_entry_point():
    # the child imports the same latcurve as this process, installed or not
    src = str(Path(latcurve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latcurve.cli", "invariants", "--builtin", "E,8",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["invariants"]["delta"] == 4


def fresh_cli(args, tmp_path):
    """Run ``python -m latcurve.cli args`` in a new interpreter whose
    ``sitecustomize`` registers an atexit probe; the probe, which runs
    after every other handler, writes ``gc.get_freeze_count()`` to
    stderr as its last line."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write("
        "f'freeze count {gc.get_freeze_count()}\\n'))\n",
        encoding="utf-8",
    )
    src = str(Path(latcurve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "latcurve.cli", *args], capture_output=True, env=env
    )


def freeze_count(proc) -> int:
    last = proc.stderr.decode().splitlines()[-1]
    assert last.startswith("freeze count ")
    return int(last.split()[-1])


def test_the_process_entry_freezes_the_heap_before_exit(tmp_path):
    proc = fresh_cli(["table", "--builtin", "D,5", "--format", "json"], tmp_path)
    assert proc.returncode == 0
    assert freeze_count(proc) > 0
    assert proc.stdout == (FIXTURES / "D_5" / "table.json").read_bytes()


def test_main_in_process_freezes_nothing(capsys):
    assert gc.get_freeze_count() == 0
    code, out, _ = run_cli(["table", "--builtin", "D,5", "--format", "json"], capsys)
    assert code == 0
    assert out == (FIXTURES / "D_5" / "table.json").read_text(encoding="utf-8")
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "source,want",
    [
        ("D,x", 2),
        ({"kind": "hilbert", "bound": [2], "values": [0, 1, 1]}, 3),
        ({"kind": "semigroup", "conductor": [5], "elements": [[0], [2], [5]]}, 1),
    ],
    ids=["parse", "margin", "invalid"],
)
def test_the_process_entry_keeps_each_exit_code(tmp_path, capsys, source, want):
    if isinstance(source, str):
        args = ["invariants", "--builtin", source]
    else:
        doc = {"version": 1, "germ": "bad", "r": 1, "flags": {}, "bound": None,
               "source": source}
        args = ["invariants", "--germ", _write_descriptor(tmp_path, doc)]
    code, out, err = run_cli(args, capsys)
    proc = fresh_cli(args, tmp_path)
    assert code == proc.returncode == want
    assert proc.stdout == out.encode() == b""
    assert proc.stderr.decode().splitlines()[:-1] == err.splitlines()
    assert freeze_count(proc) > 0


def test_the_console_script_and_the_main_block_run_one_function():
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    (script,) = re.findall(r'^latcurve = "latcurve\.cli:(\w+)"$', pyproject, re.M)
    tree = ast.parse((root / "src" / "latcurve" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    called = [node.func.id for node in ast.walk(block) if isinstance(node, ast.Call)]
    assert called == [script] == ["run"]


def test_exit_code_non_integer_builtin_param(capsys):
    code, _, err = run_cli(["invariants", "--builtin", "D,x"], capsys)
    assert code == 2
    assert "integer" in err


def test_exit_code_short_mincycle_query(capsys):
    code, _, err = run_cli(
        ["spectral", "--builtin", "D,5", "--mincycle", "1"], capsys
    )
    assert code == 2
    assert "--mincycle" in err


def test_bound_override(capsys):
    code, out, _ = run_cli(
        ["invariants", "--builtin", "A,2", "--bound", "9", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == [9]
    assert doc["invariants"]["delta"] == 1


T37_SEMIGROUP = {
    "version": 1,
    "germ": "T_3_7",
    "r": 2,
    "source": {
        "kind": "semigroup",
        "conductor": [8, 4],
        "elements": [[0, 0], [2, 1], [4, 2], [4, 3], [4, 4], [5, 2], [6, 3],
                     [6, 4], [7, 3], [8, 4]],
    },
    "flags": {"plane": True, "gorenstein": None},
    "bound": None,
}


def _write_descriptor(tmp_path, doc):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _a1_series(**changes):
    """The subcurve series of A_1 with the given keys replaced or added."""
    series = get("A", 1).to_json_dict()["source"]["series"]
    return {"kind": "poincare", "series": {**series, **changes}}


@pytest.mark.parametrize(
    "r,source,bound",
    [
        (1, {"kind": "hilbert", "bound": [4], "values": [0, 1, 1]}, None),
        (2, {"kind": "semigroup", "conductor": [4, 2],
             "elements": [[0, 0], [2, 1], [2, 2], [3, 1], [4, 2]]}, "x"),
        (1, {"kind": "semigroup", "conductor": [2], "elements": [[0], [2]]},
         [1, 2, 3]),
        (2, {"kind": "builtin", "name": "D", "params": ["x"]}, None),
        (1, {"kind": "poincare", "series": {"1": {
            "numerator": [{"exp": [0], "coeff": 1}], "denominator": [[0]]}}},
         None),
        (2, _a1_series(**{"1": {"numerator": [{"exp": [0], "coeff": 1}],
                                 "denominator": [[0, 1]]}}), None),
        (2, _a1_series(**{"1,3": {"numerator": [{"exp": [0, 0], "coeff": 1}]}}),
         None),
        (2, _a1_series(**{"2,1": {"numerator": [{"exp": [0, 0], "coeff": 5}]}}),
         None),
        (1, {"kind": "hilbert", "bound": [3], "values": [0, 1, 2, 10**30]}, None),
    ],
    ids=["hilbert-values-length", "bound-not-a-list", "bound-length",
         "builtin-params", "poincare-zero-denominator",
         "poincare-denominator-length", "poincare-branch-outside-r",
         "poincare-repeated-subset", "hilbert-value-overflow"],
)
def test_exit_code_malformed_descriptor(tmp_path, capsys, r, source, bound):
    doc = {"version": 1, "germ": "bad", "r": r, "source": source,
           "flags": {}, "bound": bound}
    path = _write_descriptor(tmp_path, doc)
    code, out, err = run_cli(["invariants", "--germ", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "conductor,elements", [([0, 0], [[0, 0]]), ([0, 2], [[0, 0], [0, 2]])]
)
def test_zero_conductor_coordinate_exits_1(tmp_path, capsys, conductor, elements):
    # with two branches only 0 has a zero coordinate, so every c_i >= 1
    doc = {"version": 1, "germ": "flat", "r": 2, "flags": {}, "bound": None,
           "source": {"kind": "semigroup", "conductor": conductor,
                      "elements": elements}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    c = tuple(conductor)
    assert (code, out, err) == (1, "", f"error: conductor {c} has a zero coordinate\n")


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_semigroup_not_closed_under_addition_exits_1(tmp_path, capsys, command):
    # {0, 2} with conductor 5 misses 2 + 2 = 4
    doc = {"version": 1, "germ": "gap", "r": 1, "flags": {}, "bound": None,
           "source": {"kind": "semigroup", "conductor": [5],
                      "elements": [[0], [2], [5]]}}
    code, out, err = run_cli([command, "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: not closed under addition: (2,) + (2,) = (4,) is not a member\n"


def test_poincare_loop_gives_up_with_exit_3(tmp_path, capsys):
    # a numerator exponent of 10^9 puts the conductor bound past every grid
    # the rebuilds reach, so the build gives up before it expands anything
    huge = {"numerator": [{"exp": [0, 0], "coeff": 1},
                          {"exp": [10**9, 10**9], "coeff": 1}]}
    doc = {"version": 1, "germ": "far", "r": 2, "flags": {}, "bound": None,
           "source": _a1_series(**{"1,2": huge})}
    path = _write_descriptor(tmp_path, doc)
    code, out, err = run_cli(["invariants", "--germ", path], capsys)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: could not stabilize the conductor")
    assert lines[1] == "hint: enlarge the grid with --bound"


def _series_doc(r, series):
    return {"version": 1, "germ": "series", "r": r, "flags": {}, "bound": None,
            "source": {"kind": "poincare", "series": series}}


def test_series_without_a_conductor_exits_1(tmp_path, capsys):
    # 1/(1 - t^2) enumerates <2>, which has no conductor; no grid helps
    doc = _series_doc(1, {"1": {"numerator": [{"exp": [0], "coeff": 1}],
                                "denominator": [[2]]}})
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: series '1' does not divide out: (1 - t) times it is not a polynomial\n"
    )


def test_subcurve_series_that_does_not_divide_exits_1(tmp_path, capsys):
    # 1 + t^(40,40) / (1 - t^(1,1)) agrees with A_1's series 1 below
    # (40, 40), so every grid of the first guesses reads A_1
    tail = {"numerator": [{"exp": [0, 0], "coeff": 1}, {"exp": [1, 1], "coeff": -1},
                          {"exp": [40, 40], "coeff": 1}],
            "denominator": [[1, 1]]}
    doc = {**_series_doc(2, {}), "source": _a1_series(**{"1,2": tail})}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: series '1,2' does not divide out: it is not a polynomial\n"


def test_poincare_branch_with_a_short_run_at_the_grid_edge(tmp_path, capsys):
    # <4, 7> has conductor 18; on the grid (17,) its members 14, 15, 16
    # reach the edge, a run shorter than the multiplicity 4
    members = [s for s in range(19) if any((s - 7 * b) % 4 == 0 and s >= 7 * b
                                           for b in range(3))]
    assert 17 not in members and 18 in members
    terms = {}
    for s in members[:-1]:
        terms[s] = terms.get(s, 0) + 1
        terms[s + 1] = terms.get(s + 1, 0) - 1
    terms[18] = terms.get(18, 0) + 1
    numerator = [{"exp": [e], "coeff": c} for e, c in sorted(terms.items()) if c]
    doc = _series_doc(1, {"1": {"numerator": numerator, "denominator": [[1]]}})
    path = _write_descriptor(tmp_path, doc)
    code, out, _ = run_cli(["invariants", "--germ", path, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    inv = doc["invariants"]
    assert (inv["conductor"], inv["delta"], inv["gorenstein"]) == ([18], 9, True)
    assert inv["multiplicity"] == [4]
    assert doc["bound"] == [21]


D5 = get("D", 5).to_json_dict()
D5_SEMIGROUP = {**D5, "source": {"kind": "semigroup", "conductor": [4, 2],
                                "elements": [[0, 0], [2, 1], [2, 2], [3, 1], [4, 2]]}}
A0_HILBERT = {"version": 1, "germ": "A_0", "r": 1, "flags": {}, "bound": None,
              "source": {"kind": "hilbert", "bound": [3], "values": [0, 1, 2, 3]}}
A1_BUILTIN = {"version": 1, "germ": "A_1", "r": 2, "flags": {}, "bound": None,
              "source": {"kind": "builtin", "name": "A", "params": [1]}}


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _replaced(D5_SEMIGROUP, ["version"], True),
        _replaced(A0_HILBERT, ["r"], True),
        _replaced(D5_SEMIGROUP, ["source", "conductor"], [4.9, 2]),
        _replaced(D5_SEMIGROUP, ["source", "elements", 1], [2.0, 1]),
        _replaced(D5, ["source", "series", "1", "numerator", 0, "exp"], [0.5]),
        _replaced(D5, ["source", "series", "1", "numerator", 0, "coeff"], 1.0),
        _replaced(D5, ["source", "series", "1", "denominator", 0], [2.0]),
        _replaced(A0_HILBERT, ["source", "bound"], [3.0]),
        _replaced(A0_HILBERT, ["source", "values"], [0, 0.9, 1, 1.5]),
        _replaced(D5_SEMIGROUP, ["bound"], [True, 9]),
        _replaced(A1_BUILTIN, ["source", "params"], [True]),
    ],
    ids=["version", "r", "conductor", "elements", "exp", "coeff", "denominator",
         "hilbert-bound", "hilbert-values", "bound", "builtin-params"],
)
def test_descriptor_numbers_must_be_json_integers(tmp_path, capsys, doc):
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["plane", "gorenstein"])
def test_descriptor_flags_must_be_booleans(tmp_path, capsys, flag):
    doc = _replaced(D5_SEMIGROUP, ["flags", flag], "no")
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == f'error: flag {flag} must be true, false or null, got "no"\n'


SEMIGROUP_345 = {"kind": "semigroup", "conductor": [3], "elements": [[0], [3]]}


@pytest.mark.parametrize(
    "r,source,flags,code",
    [
        (1, SEMIGROUP_345, {"plane": True}, 2),
        (1, SEMIGROUP_345, {"gorenstein": True}, 2),
        (1, SEMIGROUP_345, {"gorenstein": False}, 0),
        (2, get("D", 5).to_json_dict()["source"], {"gorenstein": False}, 2),
        (2, {"kind": "builtin", "name": "D", "params": [5]}, {"gorenstein": False}, 2),
    ],
    ids=["345-plane", "345-gorenstein", "345-not-gorenstein", "D5-not-gorenstein",
         "D5-builtin-not-gorenstein"],
)
def test_descriptor_flags_are_checked_against_the_model(
    tmp_path, capsys, r, source, flags, code
):
    doc = {"version": 1, "germ": "flagged", "r": r, "source": source,
           "flags": flags, "bound": None}
    path = _write_descriptor(tmp_path, doc)
    got, out, err = run_cli(["invariants", "--germ", path], capsys)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith(f"error: flag {next(iter(flags))} is ")
        assert len(err.splitlines()) == 1


def test_negative_e1_point_is_a_parse_error(capsys):
    code, out, err = run_cli(["spectral", "--builtin", "D,5", "--e1=-2,3,0,4"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: --e1 point (-2, 3) has a negative coordinate\n"


def test_exit_code_bound_length(capsys):
    code, _, err = run_cli(["invariants", "--builtin", "D,5", "--bound", "9"], capsys)
    assert code == 2
    assert "bound needs 2" in err


def test_invariants_table_has_no_timing_line(capsys):
    code, out, _ = run_cli(["invariants", "--builtin", "D,5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "euler char    3"
    assert not any(line.endswith("s]") for line in lines)


@pytest.mark.parametrize(
    "command,germ,bound",
    [
        ("classify", ["--builtin", "A,16", "--bound", "17"], [18]),
        ("classify", ["--builtin", "E13", "--bound", "10,6"], [11, 7]),
        ("classify", ["--germ", T37_SEMIGROUP], [10, 7]),
        ("invariants", ["--germ", T37_SEMIGROUP], [10, 6]),
    ],
    ids=["A16-tight", "E13-tight", "T37-semigroup", "T37-invariants"],
)
def test_header_reports_the_bound_used(tmp_path, capsys, command, germ, bound):
    # classify reports the bound its routes finished on, which can exceed
    # the bound the model was built with
    argv = [_write_descriptor(tmp_path, a) if isinstance(a, dict) else a for a in germ]
    code, out, _ = run_cli([command, *argv, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["bound"] == bound


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_negative_depth_is_a_parse_error(capsys, depth):
    code, out, err = run_cli(["motivic", "--builtin", "D,5", f"--depth={depth}"], capsys)
    assert (code, out, err) == (2, "", f"error: --depth must be >= 0, got {depth}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "the following arguments are required: command"),
        (["motivic", "--builtin", "D,5", "--depth", "1.5"],
         "argument --depth: invalid int value: '1.5'"),
        (["table", "--builtin", "D,5", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'table', 'json')"),
        (["tables", "--builtin", "D,5"],
         "argument command: invalid choice: 'tables' (choose from 'invariants', "
         "'table', 'homology', 'spectral', 'motivic', 'classify', 'catalog')"),
        (["table", "--builtin", "D,5", "--e1", "1,1,0,0"],
         "argument --e1: only the spectral command takes it"),
        (["--mincycle", "1,0", "classify", "--builtin", "D,5"],
         "argument --mincycle: only the spectral command takes it"),
    ],
    ids=["no-command", "float-depth", "bad-format", "bad-command", "e1-on-table",
         "mincycle-on-classify"],
)
def test_argument_errors_are_parse_errors(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_names_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    commands = ("invariants", "table", "homology", "spectral", "motivic", "classify",
                "catalog")
    options = ("--germ", "--builtin", "--bound", "--format", "--depth", "--e1",
               "--mincycle")
    assert "{" + ",".join(commands) + "}" in out
    assert all(option in out for option in options)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--builtin", "D,5", "--format", "json"],
        ["spectral", "--builtin", "D,5", "--mincycle", "1,0", "--e1", "2,1,0,0"],
        ["catalog", "--builtin", "D,5"],
    ],
    ids=["table", "spectral", "catalog"],
)
def test_options_may_come_before_the_command(capsys, argv):
    after = run_cli(argv, capsys)
    before = run_cli(argv[1:] + argv[:1], capsys)
    assert after[0] == 0 and after[1]
    assert before == after


@pytest.fixture
def refuse_huge_arrays(monkeypatch):
    """Make numpy refuse an array past the grid limit (a few arrays of one
    grid are fine), so a missing size check fails fast instead of
    allocating."""
    import numpy as np

    from latcurve.lattice import MAX_GRID_POINTS

    def guarded(make):
        def call(shape, *args, **kwargs):
            size = int(np.prod(shape, dtype=object)) if np.ndim(shape) else shape
            assert size <= 8 * MAX_GRID_POINTS, "huge array"
            return make(shape, *args, **kwargs)
        return call

    for name in ("zeros", "ones", "empty"):
        monkeypatch.setattr(np, name, guarded(getattr(np, name)))


def test_huge_semigroup_conductor_exits_1(tmp_path, capsys, refuse_huge_arrays):
    # 10^12 + 1 table entries: refused before the table is allocated
    doc = {"version": 1, "germ": "huge", "r": 1, "flags": {}, "bound": None,
           "source": {"kind": "semigroup", "conductor": [10**12],
                      "elements": [[0], [10**12]]}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: semigroup table R(0, [1000000000000]) would hold 1000000000001 "
        "points, more than the limit of 4194304\n"
    )


SMOOTH_HILBERT = {"kind": "hilbert", "bound": [10001], "values": list(range(10002))}


@pytest.mark.parametrize(
    "argv,doc,grid",
    [
        (["invariants", "--bound", "20000"], {"r": 1, "source": {
            "kind": "semigroup", "conductor": [2], "elements": [[0], [2]]}},
         "grid R(0, [20000])"),
        (["invariants"], {"r": 1, "source": SMOOTH_HILBERT}, "hilbert grid R(0, [10001])"),
        (["invariants", "--builtin", "D,5", "--bound", "200,200"], None,
         "expansion box R(0, [200, 200])"),
        (["invariants"], {"r": 2, "bound": [200, 200],
                          "source": get("A", 1).to_json_dict()["source"]},
         "expansion box R(0, [200, 200])"),
        (["invariants", "--builtin", "A,1", "--bound", "0,3000"], None,
         "grid R(0, [1, 6001])"),
        (["motivic", "--builtin", "D,5", "--depth", "150"], None, "grid R(0, [151, 151])"),
        (["invariants", "--builtin", "A,10002"], None,
         "the conductor box of A_10002 R(0, [10002])"),
        (["invariants", "--builtin", "A,201"], None,
         "the conductor box of A_201 R(0, [101, 101])"),
        (["invariants", "--builtin", "D,200"], None,
         "the conductor box of D_200 R(0, [100, 100, 2])"),
        # the box (21, 21, 8) and the guesses 8e, 17e fit; the bound does not
        (["invariants", "--builtin", "D,40"], None, "grid R(0, [35, 35, 35])"),
        # a 5003-point grid whose conductor box has 10001 cubes, and whose
        # E1 window R(0, c + e) has 10003
        (["homology", "--builtin", "A,5000"], None,
         "the cubes of R(0, [5000]), as the grid R(0, [10000])"),
        (["spectral", "--builtin", "A,5000"], None,
         "the cubes of R(0, [5001]), as the grid R(0, [10002])"),
    ],
    ids=["semigroup-bound", "hilbert-bound", "poincare-bound-flag",
         "poincare-bound-field", "poincare-replayed-guess", "motivic-depth",
         "builtin-A-even", "builtin-A-odd", "builtin-D-even",
         "poincare-replayed-bound", "homology-cubes", "spectral-cubes"],
)
def test_grid_past_the_limit_exits_1(tmp_path, capsys, monkeypatch, argv, doc, grid):
    # each check under a limit of 10^4 points, so no input is large
    from latcurve import lattice

    monkeypatch.setattr(lattice, "MAX_GRID_POINTS", 10**4)
    if doc is not None:
        doc = {"version": 1, "germ": "big", "flags": {}, "bound": None, **doc}
        argv = argv + ["--germ", _write_descriptor(tmp_path, doc)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {grid} would hold ")
    assert err.endswith(" points, more than the limit of 10000\n")
    assert err.count("\n") == 1


def test_too_many_branches_exit_1(tmp_path, capsys):
    # with r >= 2 every grid holds R(0, e), so r = 23 needs 2^23 points
    doc = {"version": 1, "germ": "bush", "r": 23, "flags": {}, "bound": None,
           "source": {"kind": "builtin", "name": "A", "params": [1]}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: a germ with r = 23 branches needs grids of 2^23 points or more, "
        "more than the limit of 4194304\n"
    )


@pytest.mark.parametrize(
    "source,message",
    [
        ({"kind": "semigroup", "conductor": [-2], "elements": [[0]]},
         "conductor [-2] has a negative coordinate"),
        ({"kind": "semigroup", "conductor": [2], "elements": [[0], [-1], [2]]},
         "element [-1] has a negative coordinate"),
        ({"kind": "hilbert", "bound": [-1], "values": []},
         "hilbert bound [-1] has a negative coordinate"),
        ({"kind": "poincare", "series": {"1": {
            "numerator": [{"exp": [0], "coeff": 10**30}], "denominator": [[1]]}}},
         "series '1': coeff must be a 64-bit integer, got "
         "1000000000000000000000000000000"),
    ],
    ids=["negative-conductor", "negative-element", "negative-hilbert-bound",
         "coefficient-past-int64"],
)
def test_descriptor_points_and_coefficients_are_checked(tmp_path, capsys, source, message):
    doc = {"version": 1, "germ": "bad", "r": 1, "flags": {}, "bound": None,
           "source": source}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_grid_limit_admits_exactly_its_points():
    from latcurve.lattice import MAX_GRID_POINTS, require_grid

    require_grid((MAX_GRID_POINTS - 1,))
    require_grid((2047, 2047))
    for bound in [(MAX_GRID_POINTS,), (2048, 2047)]:
        with pytest.raises(latcurve.GridTooLarge):
            require_grid(bound)
