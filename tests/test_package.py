"""The package surface: every name that the tests, the README and the
benchmark take from ``latcurve`` itself still imports from it, the
reading layers load when a name of theirs is first read, and each CLI
command loads only the layers it reads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latcurve
from latcurve import build_model, get

ROOT = Path(__file__).resolve().parent.parent

# every name ``latcurve`` exports, from the model layer or a lazy one
EXPORTS = (
    "BadParams", "DescriptorError", "E1Entry", "EulerMismatch",
    "GermDescriptor", "GermModel", "GridTooLarge", "HilbertGrid",
    "HomologyReport", "InconsistentInput", "InconsistentSemigroup",
    "InvalidSeries", "LatcurveError", "LaurentSeries", "MarginTooSmall",
    "MinimalCycleGroup", "MultiPoly", "PathInconsistency", "QPoly",
    "RationalSeries", "RouteDisagreement", "SemigroupTable",
    "TorsionFound", "TruncationUnsound", "UndefinedWeight", "UnknownGerm",
    "Verdict", "WeightGrid", "build_model", "classify",
    "classify_unimodal_plane", "delta", "descriptor_from_json", "e1_level",
    "e1_refined", "euler_characteristic", "expand", "get", "get_entry",
    "gorenstein_symmetry", "hilbert_from_poincare", "hilbert_from_semigroup",
    "lattice_homology", "list_entries", "min_weight", "minimal_spectral_cycles",
    "motivic_coeff", "omega_substitution", "pe_series", "semigroup_from_hilbert",
    "semigroup_from_low_points", "univariate_motivic", "weight_from_hilbert",
)

# the model layer and the classifier, which every process loads
MODEL_LAYER = {"classify", "errors", "germ", "lattice"}

# what a process that reads the catalog loads besides the model layer
CATALOG = {"catalog", "series"}

# command -> the reading layers its process loads besides the model layer
LAYERS_OF_COMMAND = {
    "table": set(),
    "catalog": set(),
    "invariants": {"homology"},
    "homology": {"homology"},
    "spectral": {"spectral", "snf"},
    "motivic": {"motivic"},
    "classify": {"motivic", "spectral", "snf"},
}


def loaded_by_cli(argv) -> list:
    """Run ``cli.main(argv)`` in a fresh interpreter and return its exit
    code and the ``latcurve`` modules it loaded."""
    return run_fresh(
        "import contextlib, io, json, sys\n"
        "from latcurve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "names = [m for m in sys.modules if m.startswith('latcurve.')]\n"
        "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in names)]))"
    )


def run_fresh(code: str):
    """Run ``code`` in a new interpreter that imports ``latcurve`` from
    ``src/``, and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def names_imported_by_tests() -> set:
    """Names of every ``from latcurve import ...`` in ``tests/``, module
    level or inside a function."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "latcurve":
                    names.update(alias.name for alias in node.names)
    return names


def names_read_as_lc(path: Path) -> set:
    """Names read as ``lc.<name>`` after ``import latcurve as lc``."""
    return set(re.findall(r"\blc\.(\w+)", path.read_text()))


def test_every_used_name_imports_from_the_package():
    readme = names_read_as_lc(ROOT / "README.md")
    bench = set().union(*map(names_read_as_lc, (ROOT / "perfbench").glob("*.py")))
    tests = names_imported_by_tests()
    # the scans must see the quick tour and the imports, not nothing
    assert {"build_model", "lattice_homology", "classify"} <= readme
    assert {"build_model", "get_entry", "euler_characteristic"} <= bench
    assert {"build_model", "lattice_homology", "minimal_spectral_cycles"} <= tests
    missing = []
    for name in sorted(readme | bench | tests):
        try:
            exec(f"from latcurve import {name}", {})
        except ImportError:
            missing.append(name)
    assert not missing


def test_no_module_imports_a_private_name_from_a_sibling():
    """A decision two modules share (such as the corner gather of
    ``spectral`` and ``motivic``) is public in one module."""
    package = ROOT / "src" / "latcurve"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("latcurve")
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private


def test_no_module_keeps_an_unused_import():
    """Every name a module imports is read in it, so a deletion takes
    its imports along.  ``__init__`` imports to re-export, and
    ``from __future__ import annotations`` binds no name."""
    package = ROOT / "src" / "latcurve"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(
                    (alias.asname or alias.name).split(".")[0]
                    for alias in node.names
                    if alias.name != "annotations"
                )
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unused


def _called_name(node) -> str | None:
    """The name a call calls: ``f`` for ``f(...)`` and for ``x.f(...)``."""
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_only_lattice_picks_the_rows_of_a_read():
    """``spectral`` and ``motivic`` take the rows of a level or a box
    from ``lattice`` (``level_rows``, ``box_rows``), so neither calls
    ``np.indices`` or ``norm_array``."""
    package = ROOT / "src" / "latcurve"
    calls = []
    for name in ("lattice.py", "spectral.py", "motivic.py"):
        tree = ast.parse((package / name).read_text(), name)
        calls += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) in ("indices", "norm_array")
        ]
    # the scan must see the row builders of lattice, not nothing
    assert [call for call in calls if call.startswith("lattice.py:")]
    assert [call for call in calls if not call.startswith("lattice.py:")] == []


def test_only_lattice_makes_a_table():
    """Every semigroup table is made, and validated, by one function,
    ``lattice.table_on_window``: it holds the one ``SemigroupTable(...)``
    call and the one ``validate_additive_closure()`` call of the
    package, and a table has no ``validate`` method of its own."""
    package = ROOT / "src" / "latcurve"
    calls = {"SemigroupTable": [], "validate_additive_closure": []}

    def scan(node, where):  # each call with the innermost def around it
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                scan(child, f"{where.partition(':')[0]}:{child.name}")
                continue
            if isinstance(child, ast.Call) and _called_name(child) in calls:
                calls[_called_name(child)].append(where)
            scan(child, where)

    for path in sorted(package.glob("*.py")):
        scan(ast.parse(path.read_text(), str(path)), f"{path.name}:<module>")
    assert calls == {
        "SemigroupTable": ["lattice.py:table_on_window"],
        "validate_additive_closure": ["lattice.py:table_on_window"],
    }
    assert not hasattr(latcurve.SemigroupTable, "validate")


def test_only_lattice_reads_a_held_grid():
    """A grid holds its values on R(0, top) and answers past it in closed
    form, so only ``lattice`` touches the held array (``held``), its box
    (``top``) or the written-out grid (``values``); every other module
    reads through ``lattice``.  A call ``x.values()`` (of a dict) is not
    such a read.  Likewise a table keeps its m and unit steps from its
    up-set minima, and only ``lattice`` reads them (``_multiplicity``,
    ``_steps``, ``_kept``); the others call ``multiplicity()``."""
    package = ROOT / "src" / "latcurve"
    kept = ("_multiplicity", "_steps", "_kept")
    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads += [
            f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (
                node.attr in ("held", "top", *kept)
                or node.attr == "values" and id(node) not in calls
            )
        ]
    # the scan must see the reads of lattice, not nothing
    assert [read for read in reads if read.startswith("lattice.py:")]
    for name in kept:
        assert any(read.startswith("lattice.py:") and read.endswith(name) for read in reads)
    assert [read for read in reads if not read.startswith("lattice.py:")] == []


def memo_caches(tree) -> list:
    """(line, bounded) for each functools ``lru_cache`` or ``cache`` in
    ``tree``: bounded when it is called with an integer ``maxsize``."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name not in ("lru_cache", "cache") or not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        call = calls.get(id(node))
        sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
        bounded = any(isinstance(s, ast.Constant) and type(s.value) is int for s in sizes)
        found.append((node.lineno, bounded))
    return found


def test_every_memo_cache_is_bounded():
    """Every ``functools.lru_cache`` in ``src/`` has an integer maxsize,
    so no memo grows with the work of a process."""
    # the scan tells the planted forms apart, so it cannot pass by seeing
    # nothing
    planted = ast.parse(
        "@functools.lru_cache\ndef f(): pass\n"
        "@lru_cache(maxsize=None)\ndef g(): pass\n"
        "@functools.cache\ndef h(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef k(): pass\n"
        "@lru_cache(64)\ndef n(): pass\n"
    )
    assert sorted(memo_caches(planted)) == [
        (1, False), (3, False), (5, False), (7, True), (9, True)
    ]
    package = ROOT / "src" / "latcurve"
    caches = [
        (path.name, line, bounded)
        for path in sorted(package.glob("*.py"))
        for line, bounded in memo_caches(ast.parse(path.read_text(), str(path)))
    ]
    assert len(caches) >= 4
    assert [cache for cache in caches if not cache[2]] == []


# numpy's Python-level wrappers, each a few us a call against a few tenths
# of a us for the method, slice or assignment it wraps
NUMPY_WRAPPERS = ("moveaxis", "flip", "array_equal", "column_stack", "any", "all")


def test_no_module_calls_a_numpy_wrapper_of_a_one_call_form():
    """The table, grid and classifier kernels (``lattice``, ``motivic``,
    ``spectral``, ``homology``) take each array pass in one ufunc or
    ``ndarray`` method call, and so does every other module: none calls
    ``np.moveaxis`` (``.transpose``), ``np.flip`` (a reversed slice),
    ``np.array_equal`` (``(a == b).all()``), ``np.column_stack`` (columns
    assigned into one array) or ``np.any`` / ``np.all`` in function form
    (``.any()``, ``.all()``), nor imports them from numpy.  The builtin
    ``any`` and ``all`` over Python values are not such calls."""
    package = ROOT / "src" / "latcurve"
    calls, seen = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                calls += [
                    f"{path.name}:{node.lineno}: from numpy import {alias.name}"
                    for alias in node.names
                    if alias.name in NUMPY_WRAPPERS
                ]
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
                seen.add(path.stem)
                if node.func.attr in NUMPY_WRAPPERS:
                    calls.append(f"{path.name}:{node.lineno}: np.{node.func.attr}")
    # the scan must see the numpy calls of the kernels, not nothing
    assert {"lattice", "motivic", "spectral", "homology"} <= seen
    assert calls == []


def point_loops(tree) -> list:
    """The lines of every call of ``box`` or ``motivic_coeff`` in a
    parsed module, as ``box(...)`` or ``x.motivic_coeff(...)``."""
    return [
        f"{node.lineno}: {_called_name(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) in ("box", "motivic_coeff")
    ]


def test_no_module_loops_over_points():
    """No module iterates the points of ``box(...)`` or calls
    ``motivic_coeff``: the weight table reads two arrays on R(0, c), and
    the motivic callers pass every point they sum to one
    ``coefficient_terms`` call."""
    # the scan flags a planted call of each form, so it cannot pass by
    # seeing nothing
    planted = ast.parse(
        "for p in box(c):\n    cells.append(lattice.motivic_coeff(h, p))\n"
    )
    assert point_loops(planted) == ["1: box", "2: motivic_coeff"]
    package = ROOT / "src" / "latcurve"
    loops = [
        f"{path.name}:{loop}"
        for path in sorted(package.glob("*.py"))
        for loop in point_loops(ast.parse(path.read_text(), str(path)))
    ]
    assert loops == []


@pytest.mark.parametrize("command", sorted(LAYERS_OF_COMMAND))
def test_each_command_loads_only_the_layers_it_reads(command):
    argv = [command] if command == "catalog" else [command, "--builtin", "D,5"]
    want = MODEL_LAYER | CATALOG | {"cli"} | LAYERS_OF_COMMAND[command]
    assert loaded_by_cli(argv) == [0, sorted(want)]


def _source_file(tmp_path, kind) -> str:
    """A descriptor file of the given source kind: E_6 as a semigroup,
    D_5 as its catalog series or as its Hilbert grid."""
    doc = get("D", 5).to_json_dict()
    if kind == "semigroup":
        doc = get("E", 6).to_json_dict()
    elif kind == "hilbert":
        model = build_model(get("D", 5))
        doc["source"] = {
            "kind": "hilbert",
            "bound": list(model.bound),
            "values": model.hilbert.values.reshape(-1).tolist(),
        }
    assert doc["source"]["kind"] == kind
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "kind,command,loads",
    [
        ("semigroup", "table", set()),
        ("hilbert", "table", set()),
        ("semigroup", "classify", set()),
        ("poincare", "table", {"series"}),
        ("poincare", "invariants", {"series"}),
    ],
)
def test_a_germ_file_loads_the_catalog_and_series_only_if_it_reads_them(
    tmp_path, kind, command, loads
):
    loaded = loaded_by_cli([command, "--germ", _source_file(tmp_path, kind)])
    want = MODEL_LAYER | {"cli"} | LAYERS_OF_COMMAND[command] | loads
    assert loaded == [0, sorted(want)]


@pytest.mark.parametrize(
    "argv",
    [["table", "--builtin", "E6"], ["catalog", "--builtin", "E6"]],
    ids=["builtin", "catalog-builtin"],
)
def test_reading_the_catalog_loads_it(argv):
    assert loaded_by_cli(argv) == [0, sorted(MODEL_LAYER | CATALOG | {"cli"})]


def test_the_package_builds_one_dataclass_and_loads_no_catalog():
    """``import latcurve.cli`` builds ``GermDescriptor`` (whose
    ``dataclasses.replace`` is public) and no other dataclass, and loads
    neither the catalog nor ``series``."""
    built = run_fresh(
        "import dataclasses, json, sys\n"
        "import latcurve.cli\n"
        "mods = [m for name, m in sys.modules.items() if name.startswith('latcurve')]\n"
        "built = sorted(\n"
        "    f'{m.__name__}.{name}' for m in mods for name, obj in vars(m).items()\n"
        "    if isinstance(obj, type) and dataclasses.is_dataclass(obj)\n"
        "    and obj.__module__ == m.__name__\n"
        ")\n"
        "lazy = [m for m in ('latcurve.catalog', 'latcurve.series') if m in sys.modules]\n"
        "print(json.dumps([built, lazy]))"
    )
    assert built == [["latcurve.germ.GermDescriptor"], []]


def test_only_the_descriptor_is_a_dataclass_and_nothing_runs_generated_code():
    """Records are written out on ``lattice.Record`` (``@dataclass`` runs
    ``exec`` for each class it builds), and no module calls ``exec`` or
    ``eval``."""
    package = ROOT / "src" / "latcurve"
    dataclasses, calls = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    name = getattr(target, "id", None) or getattr(target, "attr", None)
                    if name == "dataclass":
                        dataclasses.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Call) and _called_name(node) in ("exec", "eval"):
                calls.append(f"{path.name}:{node.lineno}")
    assert dataclasses == ["germ.GermDescriptor"]
    assert calls == []


def test_every_export_reads_from_a_fresh_package():
    """Each name imports, reads as an attribute and is listed by ``dir``,
    starting from an interpreter that has loaded no reading layer; and
    ``import latcurve`` loads numpy, which the benchmark worker reads."""
    failures = run_fresh(
        "import json, sys\n"
        "import latcurve\n"
        "numpy = 'numpy' in sys.modules\n"
        "fresh = 'latcurve.homology' not in sys.modules\n"
        "listed = set(dir(latcurve))\n"
        "bad = []\n"
        f"for name in {EXPORTS!r}:\n"
        "    try:\n"
        "        scope = {}\n"
        "        exec(f'from latcurve import {name}', scope)\n"
        "        ok = scope[name] is getattr(latcurve, name) and name in listed\n"
        "    except (ImportError, AttributeError):\n"
        "        ok = False\n"
        "    if not ok:\n"
        "        bad.append(name)\n"
        "print(json.dumps([numpy, fresh, bad]))"
    )
    assert failures == [True, True, []]


def test_star_import_binds_every_export():
    bound = run_fresh(
        "import json\n"
        "from latcurve import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('_'))))"
    )
    assert set(EXPORTS) <= set(bound)


def test_the_package_exports_the_pinned_names_only():
    assert sorted(latcurve.__all__) == sorted(EXPORTS)


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        latcurve.no_such_name
    with pytest.raises(ImportError):
        exec("from latcurve import no_such_name", {})


def test_classify_stays_the_function_after_its_module_is_imported():
    kinds = run_fresh(
        "import json, types\n"
        "import latcurve.classify\n"
        "from latcurve.classify import certified_omega\n"
        "from latcurve import classify\n"
        "print(json.dumps([callable(classify), isinstance(classify, types.ModuleType)]))"
    )
    assert kinds == [True, False]


MODULES = sorted(p.stem for p in (ROOT / "src" / "latcurve").glob("*.py") if p.stem != "__init__")


def doc_references(text: str, quote: str) -> list:
    """(module, dotted names, prefix) of every quoted span of ``text``
    that starts with a latcurve module and an attribute; a trailing ``*``
    makes the last name a prefix."""
    found = []
    for span in re.findall(f"{quote}([^`]+){quote}", text):
        m = re.match(r"(\w+)((?:\.\w+)+)(\*?)", span)
        if m and m.group(1) in MODULES:
            found.append((m.group(1), m.group(2)[1:].split("."), bool(m.group(3))))
    return found


def test_every_module_reference_in_the_docs_resolves():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)  # code blocks
    refs = [("README.md", ref) for ref in doc_references(readme, "`")]
    assert len(refs) >= 16
    for path in sorted((ROOT / "src" / "latcurve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                refs += [(path.name, ref) for ref in doc_references(doc, "``")]
    missing = []
    for where, (module, names, prefix) in refs:
        obj = importlib.import_module(f"latcurve.{module}")
        for name in names[:-1]:
            obj = getattr(obj, name, None)
        last = names[-1]
        if not (any(n.startswith(last) for n in dir(obj)) if prefix else hasattr(obj, last)):
            missing.append(f"{where}: {module}.{'.'.join(names)}")
    assert missing == []
