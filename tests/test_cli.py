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
from latcurve.catalog import list_entries
from latcurve.errors import cut
from latcurve.cli import main
from latcurve.lattice import box

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


def test_motivic_levels_read_one_terms_call(monkeypatch, capsys):
    """``motivic --depth 3`` reads the motivic counts twice: once at the
    points with |l| <= 3 for every level, once at the points of R(0, c)
    with w(l) <= 3 for the omega series, whose terms past c are copies of
    those; and the levels are those of one level a call."""
    from latcurve import motivic
    from latcurve.classify import certified_omega

    calls = []
    real = motivic.coefficient_counts

    def counted(h, at):
        calls.append(at.tolist())
        return real(h, at)

    monkeypatch.setattr(motivic, "coefficient_counts", counted)
    code, out, _ = run_cli(
        ["motivic", "--builtin", "T,4,4", "--format", "json", "--depth", "3"], capsys
    )
    assert code == 0
    monkeypatch.undo()
    assert len(calls) == 2
    assert sorted(calls[0]) == [list(p) for p in box((3,) * 4) if sum(p) <= 3]
    model = latcurve.build_model(get("T", 4, 4))
    _, grown = certified_omega(model.ensure_bound((4,) * 4), 3)
    assert calls[1] == [
        list(p) for p in box(grown.conductor) if grown.weight.w(p) <= 3
    ]
    levels = [motivic.univariate_motivic(model.hilbert, d) for d in range(4)]
    want = [{str(e): c for e, c in p.coeffs} for p in levels]
    assert [level["coeffs"] for level in json.loads(out)["motivic"]["levels"]] == want


def test_catalog_listing(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    assert "E12" in out and "T" in out


def test_catalog_json_lists_the_entries_in_order(capsys):
    code, out, err = run_cli(["catalog", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    doc = {"version": 1, "entries": [{"name": n, "params": d} for n, d in list_entries()]}
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(["invariants", "--germ", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_a_descriptor_nested_past_the_decoder_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run_cli(["invariants", "--germ", str(deep)], capsys)
    assert (code, out, err) == (
        2, "", "error: descriptor nests deeper than the JSON decoder allows\n"
    )


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


# h on R(0, (4, 4)) whose members on R(0, (3, 3)) are
# {0} u {l >= (1, 3)} u {l >= (3, 1)}: two minimal stable points
_TWO_CORNERS = [[0, 1, 1, 1, 1], [1, 1, 1, 1, 2], [1, 1, 2, 2, 3],
                [1, 1, 2, 3, 4], [1, 2, 3, 4, 5]]


@pytest.mark.parametrize(
    "bound,values,message",
    [([3], [0, 1, 1, 1], "no stable region: bound does not dominate the conductor"),
     ([4, 4], sum(_TWO_CORNERS, []),
      "stable region has no unique minimal point near (1, 1); enlarge the grid"),
     ([5], [0, 1, 1, 2, 2, 3],
      "conductor (4,) detected without a full stabilization layer inside (4,)")],
    ids=["no-stable-region", "two-minimal-points", "no-layer"],
)
def test_a_hilbert_source_the_window_refuses_exits_3(tmp_path, capsys, bound, values,
                                                     message):
    doc = {"version": 1, "germ": "window", "r": len(bound), "flags": {}, "bound": None,
           "source": {"kind": "hilbert", "bound": bound, "values": values}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)],
                             capsys)
    assert (code, out) == (3, "")
    assert err == f"error: {message}\nhint: enlarge the grid with --bound\n"


@pytest.mark.parametrize(
    "query,ell",
    [(["--mincycle", "1,-100000"], "(200002, 100001)"),
     (["--e1", "3000,3000,0,0"], "(3000, 3000)")],
    ids=["mincycle", "e1"],
)
def test_a_point_past_every_grid_exits_1_without_a_hint(capsys, query, ell):
    """A query whose cube R(l, l + e) needs a grid past MAX_GRID_POINTS is
    invalid input that no --bound mends: exit 1, one error line."""
    code, out, err = run_cli(["spectral", "--builtin", "D,5", *query], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the cube at l={ell}, as the grid R(0, [")
    assert len(err.splitlines()) == 1


def test_a_point_past_the_grid_still_exits_3_with_the_hint(capsys):
    code, out, err = run_cli(["spectral", "--builtin", "D,5", "--e1", "9,9,0,0"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "error: need (9, 9) + e inside the grid (8, 8)\n"
        "hint: enlarge the grid with --bound\n"
    )


HUGE = 10**30


@pytest.mark.parametrize(
    "spec,query,code",
    [
        ("A,4", f"--e1=0,{HUGE},0", 0),
        ("A,4", f"--e1=0,{-HUGE},0", 0),
        ("D,5", f"--e1=0,0,{HUGE},0", 0),
        ("D,5", f"--e1=0,0,{-HUGE},0", 0),
        ("D,5", f"--e1=0,0,{2**63 - 1},0", 0),
        ("D,5", f"--e1=0,0,0,{HUGE}", 0),
        ("A,4", f"--e1={HUGE},0,0", 1),
        ("D,5", f"--e1={HUGE},0,0,0", 1),
        ("D,5", f"--mincycle={HUGE},0", 1),
        ("D,5", f"--mincycle=1,{HUGE}", 1),
    ],
    ids=["A4-k", "A4-minus-k", "D5-k", "D5-minus-k", "D5-k-int64", "D5-n", "A4-l",
         "D5-l", "D5-mincycle-k", "D5-mincycle-n"],
)
def test_huge_query_values_give_rank_0_or_one_error_line(capsys, spec, query, code):
    """A degree k outside 0..r has rank 0 before any int64 arithmetic, so
    neither an overflow nor a wrapped sum is reached; a point or a j past
    every grid is one error line."""
    got, out, err = run_cli(["spectral", "--builtin", spec, query], capsys)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
    else:
        assert (out.endswith("  rank 0\n"), err) == (True, "")


def test_mincycle_reads_the_levels_below_it_whole(capsys):
    """M(1, -2) on D_5 has j = 3, so it checks the levels 0..8, and level
    8 needs a grid of at least (9, 9)."""
    query = ["spectral", "--builtin", "D,5", "--mincycle", "1,-2"]
    code, out, err = run_cli(query, capsys)
    assert (code, out) == (3, "")
    assert err == (
        "error: level 8 needs every axis bound >= 9, grid is (8, 8)\n"
        "hint: enlarge the grid with --bound\n"
    )
    code, out, err = run_cli(query + ["--bound", "9,9"], capsys)
    assert (code, out, err) == (0, "M(k=1, n=-2)  j=3  rank 0\n", "")


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
        # the table of one branch and the blocks of three and four
        ("E12", "table"),
        ("D_8", "table"),
        ("T_4_4", "table"),
    ],
)
def test_golden_files_byte_stable(germ, command, capsys):
    builtin = {
        "D_5": "D,5", "A_2": "A,2", "T_4_4": "T,4,4", "E12": "E12", "D_8": "D,8",
    }[germ]
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


def _poincare(series: dict, r: int) -> dict:
    """A ``poincare`` descriptor of the given subcurve series."""
    return {"version": 1, "germ": "big", "r": r, "flags": {}, "bound": None,
            "source": {"kind": "poincare", "series": series}}


def _terms(*terms) -> list:
    return [{"exp": list(e), "coeff": c} for e, c in terms]


BIG = 1 << 62
# r = 1: (1 + 2^62 (t + t^2 + t^3 + t^4)) / (1 - t), every coefficient an
# int64; r = 2: A_1 with 2^62 (t1 t2 + ... + t1^4 t2^4) added to P_{1,2}.
# Before the range certificate, the first printed numpy's overflow warning
# and its source line, the second wrapped in silence; both then failed on
# a Hilbert step
BIG_R1 = _poincare(
    {"1": {"numerator": _terms(((0,), 1), *(((k,), BIG) for k in range(1, 5))),
           "denominator": [[1]]}},
    1,
)
BIG_R2 = _poincare(
    {**get("A", 1).to_json_dict()["source"]["series"],
     "1,2": {"numerator": _terms(((0, 0), 1), *(((k, k), BIG) for k in range(1, 5))),
             "denominator": []}},
    2,
)


@pytest.mark.parametrize(
    "source,want",
    [
        ("D,x", 2),
        ({"kind": "hilbert", "bound": [2], "values": [0, 1, 1]}, 3),
        ({"kind": "semigroup", "conductor": [5], "elements": [[0], [2], [5]]}, 1),
        (BIG_R1, 1),
        (BIG_R2, 1),
        (["motivic", "--builtin", "D,5", "--depth", "9" * 400], 1),
    ],
    ids=["parse", "margin", "invalid", "int64-r1", "int64-r2", "long-echo"],
)
def test_the_process_entry_keeps_each_exit_code(tmp_path, capsys, source, want):
    """A fresh interpreter prints to stderr exactly the lines of ``main``
    in this process and the probe's line, so a warning that numpy prints
    on its own, which pytest's warning filter turns into an error only
    here, fails too."""
    if isinstance(source, list):
        args = source
    elif isinstance(source, str):
        args = ["invariants", "--builtin", source]
    else:
        doc = source if "version" in source else {
            "version": 1, "germ": "bad", "r": 1, "flags": {}, "bound": None,
            "source": source,
        }
        args = ["invariants", "--germ", _write_descriptor(tmp_path, doc)]
    code, out, err = run_cli(args, capsys)
    proc = fresh_cli(args, tmp_path)
    assert code == proc.returncode == want
    assert proc.stdout == out.encode() == b""
    assert proc.stderr.decode().splitlines()[:-1] == err.splitlines()
    assert freeze_count(proc) > 0


@pytest.mark.parametrize(
    "doc,want",
    [
        (BIG_R1, "the numbers of series '1' pass 64 bits on R(0, [7])"),
        (BIG_R2, "the numbers of series '1,2' pass 64 bits on R(0, [7, 7])"),
    ],
    ids=["r1", "r2"],
)
def test_a_series_past_64_bits_is_refused_before_it_is_expanded(tmp_path, capsys, doc, want):
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (1, "", f"error: {want}\n")


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


def _one_series(key="1", exp=(0,), denominator=((1,),)):
    return {"kind": "poincare", "series": {key: {
        "numerator": [{"exp": list(exp), "coeff": 1}],
        "denominator": [list(v) for v in denominator]}}}


@pytest.mark.parametrize(
    "source,want",
    [
        ({"kind": "hilbert", "bound": [3], "values": [0, 1, 2, 1 << 63]},
         "a hilbert value must be a 64-bit integer, got 9223372036854775808"),
        ({"kind": "hilbert", "bound": [3], "values": [-(1 << 63) - 1, -1, 2, 3]},
         "a hilbert value must be a 64-bit integer, got -9223372036854775809"),
        (_one_series(exp=(-1,)), "series '1': exponent [-1] has a negative entry"),
        (_one_series(denominator=((0,),)), "series '1': denominator vector [0] is zero"),
        (_one_series(denominator=((-1,),)), "series '1': exponent [-1] has a negative entry"),
        (_one_series(key="x"), "series key 'x' must name distinct branches in 1..1"),
        (_one_series(exp=(0,) * 5000),
         "series '1': exponent [" + "0, " * 19 + "0,... has 5000 entries, not 1"),
        (_one_series(denominator=((1,) * 5000,)),
         "series '1': exponent [" + "1, " * 19 + "1,... has 5000 entries, not 1"),
    ],
    ids=["hilbert-value-2-to-the-63", "hilbert-value-below-int64", "negative-exponent",
         "zero-denominator", "negative-denominator", "key-not-an-integer",
         "long-exponent", "long-denominator-vector"],
)
def test_a_descriptor_number_out_of_range_names_its_field(tmp_path, capsys, source, want):
    doc = {"version": 1, "germ": "bad", "r": 1, "source": source, "flags": {}, "bound": None}
    path = _write_descriptor(tmp_path, doc)
    assert run_cli(["invariants", "--germ", path], capsys) == (2, "", f"error: {want}\n")


@pytest.mark.parametrize("r", [12, 20])
def test_missing_subcurve_series_are_counted_not_listed(tmp_path, capsys, r):
    """A ``poincare`` source with the series '1' alone, on r branches,
    names how many of the 2^r - 1 subsets have no series and the first,
    without listing the rest."""
    doc = {"version": 1, "germ": "bad", "r": r, "source": _one_series(), "flags": {},
           "bound": None}
    path = _write_descriptor(tmp_path, doc)
    total = (1 << r) - 1
    assert run_cli(["invariants", "--germ", path], capsys) == (
        1, "",
        f"error: no subcurve series for {total - 1} of the {total} branch subsets, "
        "the first (2,)\n",
    )


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


def test_a_table_only_the_path_check_refuses_exits_1(tmp_path, capsys):
    # the table passes min-closure, additive closure and the extension
    # rule (tests/test_lattice.py::test_only_the_path_check_refuses_a_table)
    doc = {"version": 1, "germ": "paths", "r": 2, "flags": {}, "bound": None,
           "source": {"kind": "semigroup", "conductor": [4, 6],
                      "elements": [[0, 0], [2, 3], [2, 5], [3, 3], [4, 3], [4, 6]]}}
    assert run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys) == (
        1, "", "error: monotone paths disagree along axis 0; input semigroup invalid\n"
    )


def _z13_with_element(element):
    doc = get("Z13").to_json_dict()
    doc["source"]["elements"].append(element)
    return doc


@pytest.mark.parametrize(
    "doc,message",
    [
        (_z13_with_element([3, 1, 5]), "element [3, 1, 5] has 3 coordinates, not r = 2"),
        ({"version": 1, "germ": "short", "r": 2, "flags": {}, "bound": None,
          "source": {"kind": "semigroup", "conductor": [1, 1],
                     "elements": [[0, 0], [1, 1], [1]]}},
         "element [1] has 1 coordinates, not r = 2"),
    ],
    ids=["long-element", "short-element"],
)
def test_semigroup_element_of_the_wrong_length_exits_2(tmp_path, capsys, doc, message):
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_nonzero_member_on_a_coordinate_hyperplane_exits_1(tmp_path, capsys):
    # with two branches only 0 has a zero coordinate, so (1, 0) is no value
    doc = {"version": 1, "germ": "plane", "r": 2, "flags": {}, "bound": None,
           "source": {"kind": "semigroup", "conductor": [1, 1],
                      "elements": [[0, 0], [1, 0], [1, 1]]}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (1, "", "error: nonzero member (1, 0) has a zero coordinate\n")


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


def _nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "doc,want",
    [
        (_replaced(A0_HILBERT, ["source"], {"kind": "hilbert", "bound": [4999],
                                            "values": [*range(2500), 0.5, *range(2501, 5000)]}),
         "hilbert values must be a list of integers, "
         "got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1..."),
        (_replaced(D5_SEMIGROUP, ["source", "conductor"], _nested(4, 900)),
         "conductor must be a list of integers, got " + "[" * 60 + "..."),
        (_replaced(A1_BUILTIN, ["source", "kind"], list(range(3000))),
         "unknown source kind "
         "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1..."),
        (_replaced(D5, ["source", "series"], {"1," * 1999 + "11": {}}),
         "series key '" + "1," * 29 + "1... must name distinct branches in 1..2"),
        (_replaced(D5_SEMIGROUP, ["bound"], list(range(5000))),
         "bound needs 2 non-negative integers, "
         "got (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1..."),
    ],
    ids=["hilbert-5000-values", "conductor-900-deep", "kind-3000-integers",
         "series-key-4000-chars", "bound-5000-integers"],
)
def test_an_error_line_echoes_a_bounded_part_of_the_value(tmp_path, capsys, doc, want):
    # the echo of the offending value is cut, so the line does not grow with it
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", f"error: {want}\n")


LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--builtin", LONG],
        ["table", "--germ", _replaced(A1_BUILTIN, ["source", "name"], LONG)],
        ["table", "--builtin", "A," + LONG],
        ["table", "--builtin", "D,5", "--bound", LONG],
        ["spectral", "--builtin", "D,5", "--e1", LONG],
        ["spectral", "--builtin", "D,5", "--mincycle", LONG],
        ["table", "--germ", LONG],
        [LONG, "--builtin", "D,5"],
        ["table", "--builtin", "D,5", "--format", LONG],
        ["motivic", "--builtin", "D,5", "--depth", LONG],
        ["table", "--builtin", "D,5", LONG],
    ],
    ids=["builtin-name", "file-builtin-name", "builtin-params", "bound", "e1",
         "mincycle", "germ-path", "command", "format", "depth", "unrecognized"],
)
def test_an_outside_value_is_echoed_in_a_bounded_line(tmp_path, capsys, argv):
    # a dict stands for a descriptor file that holds it
    argv = [_write_descriptor(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) - 1 <= 200


DIGITS = "9" * 400


@pytest.mark.parametrize(
    "argv,code",
    [
        (["spectral", "--builtin", "D,5", "--mincycle", f"1,-{DIGITS}"], 1),
        (["motivic", "--builtin", "D,5", "--depth", DIGITS], 1),
        (["spectral", "--builtin", "D,5", "--e1", f"1,{DIGITS},1,1"], 1),
        (["invariants", "--builtin", "D,5", "--bound", f"{DIGITS},1"], 1),
        (["spectral", "--builtin", "T,4,4", "--mincycle", f"0,-{DIGITS}"], 1),
        (["motivic", "--builtin", "D,5", "--depth", f"-{DIGITS}"], 2),
        (["spectral", "--builtin", "D,5", "--e1", f"1,-{DIGITS},1,1"], 2),
        (["invariants", "--builtin", f"A,{DIGITS}"], 1),
        (["motivic", "--builtin", "D,5", "--depth", "9" * 4000], 1),
        (["invariants", "--germ", {"version": 1, "germ": "x", "r": 1, "flags": {}, "bound": None,
          "source": {"kind": "semigroup", "conductor": [3], "elements": [[0], [int(DIGITS)]]}}], 1),
        (["invariants", "--germ", {**A0_HILBERT, "source": {"kind": "hilbert", "bound": [int(DIGITS)],
                                                             "values": [0]}}], 2),
    ],
    ids=["mincycle", "depth", "e1", "bound", "t44-mincycle", "negative-depth", "negative-e1",
         "builtin-param", "depth-past-4300-digits", "low-point", "hilbert-bound"],
)
def test_an_outside_number_is_echoed_in_a_bounded_line(tmp_path, capsys, argv, code):
    """A number of 400 digits (4000 for one ``--depth``, whose grid has a
    point count of 8000 digits, more than ``str`` writes out) ends in one
    ``error:`` line of at most 320 characters: each number it echoes is
    cut (``errors.cut``), and a text around a number at most twice."""
    argv = [_write_descriptor(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) - 1 <= 320


def test_cut_writes_out_the_leading_digits_of_an_int():
    """``errors.cut`` of an int, or of a list or tuple of them, is
    ``cut(str(...))``, also where ``str`` refuses to write the int out."""
    numbers = [0, 7, -12, 10**59, 10**60, -(10**61) + 1, 2**203, 3**4000, -(7**9000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [cut(str(x)) for x in (*numbers, numbers[:3], tuple(numbers[-2:]), (5,))]
    finally:
        sys.set_int_max_str_digits(limit)
    got = [cut(x) for x in (*numbers, numbers[:3], tuple(numbers[-2:]), (5,))]
    assert got == want
    assert want[-3:-1] == ["[0, 7, -12]", "(" + str(3**4000)[:59] + "..."]
    assert want[-1] == "(5,)"


@pytest.mark.parametrize(
    "doc,want",
    [
        (_replaced(A1_BUILTIN, ["source", "kind"], "bogus"), "unknown source kind 'bogus'"),
        (_replaced(D5, ["source", "series"], {"1,1": {}}),
         "series key '1,1' must name distinct branches in 1..2"),
    ],
    ids=["kind", "series-key"],
)
def test_a_short_value_is_echoed_whole(tmp_path, capsys, doc, want):
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out, err) == (2, "", f"error: {want}\n")


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


@pytest.mark.parametrize("point", ["1,1,0", "1,1,0,0,0"])
def test_an_e1_query_of_the_wrong_length_is_a_parse_error(capsys, point):
    assert run_cli(["spectral", "--builtin", "D,5", "--e1", point], capsys) == (
        2, "", "error: --e1 needs l1..l2,k,n\n"
    )


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
        (["table", "--builtin", "D,5", "--depth", "3"],
         "argument --depth: only the motivic command takes it"),
        (["classify", "--depth=0", "--builtin", "D,5"],
         "argument --depth: only the motivic command takes it"),
        (["catalog", "--germ", "germ.json"],
         "argument --germ: the catalog command does not take it"),
        (["catalog", "--bound", "3,3"],
         "argument --bound: the catalog command does not take it"),
        (["catalog", "--builtin", "D,5", "--bound", "3,3"],
         "argument --bound: the catalog command does not take it"),
        (["catalog", "--depth", "3"],
         "argument --depth: only the motivic command takes it"),
        (["catalog", "--builtin", "A,2", "--format", "table"],
         "argument --format: catalog --builtin prints JSON only"),
    ],
    ids=["no-command", "float-depth", "bad-format", "bad-command", "e1-on-table",
         "mincycle-on-classify", "depth-on-table", "depth-on-classify",
         "germ-on-catalog", "bound-on-catalog", "bound-on-catalog-builtin",
         "depth-on-catalog", "table-format-on-catalog-builtin"],
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
        # E1 table on R(0, c) gathers 5001 rows of 2 corners, 10002 reads
        (["homology", "--builtin", "A,5000"], None,
         "the cubes of R(0, [5000]), as the grid R(0, [10000])"),
        (["spectral", "--builtin", "A,5000"], None,
         "the corners of 5001 E1 rows, as the grid R(0, [5000, 1])"),
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


@pytest.mark.parametrize("r", [1, 3])
def test_builtin_r_must_be_the_entrys(tmp_path, capsys, r):
    # D_5 has two branches; a builtin source states r, and it must agree
    doc = {"version": 1, "germ": "x", "r": r,
           "source": {"kind": "builtin", "name": "D", "params": [5]}}
    code, out, err = run_cli(["invariants", "--germ", _write_descriptor(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: builtin D_5 has r = 2 branches, but the descriptor states r = {r}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["table", "--builtin", "D,5", "--bound", ""],
         "expected a comma-separated integer tuple, got ''"),
        (["table", "--germ", "", "--builtin", "D,5"],
         "exactly one of --germ FILE or --builtin NAME required"),
        (["table", "--builtin", "D,5", "--germ="],
         "exactly one of --germ FILE or --builtin NAME required"),
        (["catalog", "--builtin", ""], "no catalog entry named ''"),
        (["catalog", "--builtin=", "--format", "table"],
         "argument --format: catalog --builtin prints JSON only"),
    ],
    ids=["bound", "germ-first", "germ-last", "catalog-builtin", "catalog-builtin-table"],
)
def test_an_empty_option_value_is_given_not_absent(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
