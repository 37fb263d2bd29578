"""Job lists of the three workloads, how one job runs, and its output check.

A workload is a list of bands.  A band holds one to four jobs of about
the same cost; the seed draws one job from each band and shuffles the
order, so the work stays comparable across seeds while the inputs vary.
No germ occurs in two bands of a workload, so no input repeats in a run.

A job key names the germ as catalog arguments (``T,3,13``); a CLI job
key is ``command|germ|source[|depth]``, where ``source`` is ``builtin``
or the descriptor kind written to a file (``semigroup``, ``poincare``,
``hilbert``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("homology-ladder", "classify-ladder", "cli-tables")


def _key(name, *params) -> str:
    return ",".join([name, *map(str, params)])


def _bands(name, values, *fixed):
    """Bands of two neighbouring family members (the last may be alone);
    ``values`` lies in one grid-size bracket, so a band's jobs cost about
    the same."""
    vals = list(values)
    return [[_key(name, *fixed, v) for v in vals[i:i + 2]] for i in range(0, len(vals), 2)]


def _singles(keys):
    return [[k] for k in keys]


# -- homology-ladder ---------------------------------------------------------

HOMOLOGY_BANDS = (
    _singles(_key("A", n) for n in [*range(3, 22, 2), 27])
    + _singles(_key("D", n) for n in range(4, 15, 2))
    + _singles(["T,3,6", "T,4,4", "E7", "E13", "Z11", "Z12", "Z13", "W13", "W1_0",
                "E6", "E8", "E12", "E14", "W12", "E18"])
    + _singles(_key("D", n) for n in range(35, 50, 2))
    + _bands("D", range(5, 16, 2)) + _singles(_key("D", n) for n in range(17, 34, 2))
    + _bands("T", range(7, 14, 2), 3) + _bands("T", range(15, 32, 2), 3)
    + _bands("T", range(5, 16, 2), 5) + _bands("T", range(7, 14, 2), 7)
    + _bands("A", range(2, 181, 2))
)

# -- classify-ladder ---------------------------------------------------------

CLASSIFY_BANDS = (
    _singles(["E6", "E7", "E8", "T,4,4", "T,3,6", "E12", "E13", "E14", "Z11",
              "Z12", "Z13", "W12", "W13", "W1_0", "E18"])
    # D_40 alone: it is a quarter of a pass, and D_42 costs 15% more
    + _singles(["D,40"])
    + _bands("D", range(14, 29, 2))
    + _singles(_key("D", n) for n in range(4, 13, 2))
    + _bands("D", range(35, 70, 2))
    + _bands("T", range(33, 68, 2), 3)
    # r=1 A_n up to A_32 alone: eight more jobs of 1 ms put the median in
    # the middle of the 8 ms A_13..A_29 group, not at its upper edge
    + _singles(_key("A", n) for n in range(2, 33, 2)) + _bands("A", range(34, 113, 2))
    + _bands("A", range(3, 12, 2)) + _singles(_key("A", n) for n in range(13, 30, 2))
    + _bands("A", range(31, 62, 2))
    + _bands("D", range(5, 16, 2)) + _bands("D", range(17, 34, 2))
    # classify's cost on T_{p,q} jumps about 3x from q=13 to q=15, so these
    # bands pair members of one cost, and the median stays on the same jobs
    + [["T,5,5"], ["T,5,7", "T,5,9"], ["T,5,11", "T,5,13"], ["T,9,9", "T,9,13"], ["T,9,11"],
       ["T,13,13"], ["T,5,15", "T,9,15"], ["T,13,15"]]
)

# -- cli-tables --------------------------------------------------------------

# (command, germ, --depth or None, sources): sources lists the inputs the
# seed draws from; a descriptor file holds the catalog entry's own source
# kind, and "hilbert" a Hilbert grid the benchmark computes from its
# semigroup.
_SG = ("builtin", "semigroup", "hilbert")
_PS = ("builtin", "poincare")
CLI_SPECS = [
    # golden files under tests/fixtures
    [(command, "D,5", None, ("builtin",))
     for command in ("invariants", "classify", "table", "catalog")],
    [("homology", "A,2", None, ("builtin",))],
    [("classify", "T,4,4", None, ("builtin",))],
]
CLI_SPECS += [[("spectral", g, None, src)] for g, src in [
    ("T,3,6", _PS), ("D,8", _PS), ("D,10", _PS), ("Z12", _SG), ("W1_0", _SG),
    ("T,9,9", _PS), ("T,3,13", _PS), ("D,16", _PS), ("E13", _SG), ("D,12", _PS),
    ("Z11", _SG), ("T,7,9", _PS)]]
CLI_SPECS += [[("motivic", g, d, src)] for g, d, src in [
    ("A,36", 8, _SG), ("Z13", 8, _SG), ("T,5,9", 8, _PS), ("W13", 6, _SG),
    ("E14", 6, _SG), ("E7", 3, _PS), ("W12", 3, _SG), ("A,8", 3, _SG)]]
# whole motivic tables on 71x71 grids, all of about one cost: the p90 tier
CLI_SPECS += [[("motivic", germ, d, _PS)] for germ, d in zip(
    [f"D,{n}" for n in range(37, 70, 2)] + [f"T,3,{q}" for q in range(33, 46, 2)],
    itertools.cycle((3, 6, 8)))]
CLI_SPECS += [[("table", g, None, src)] for g, src in [
    ("A,40", _SG), ("T,3,17", _PS), ("T,5,13", _PS), ("A,19", _PS), ("E12", _SG),
    ("A,10", _SG), ("D,13", _PS), ("T,7,11", _PS), ("D,21", _PS), ("A,12", _SG),
    ("T,11,11", _PS), ("D,23", _PS), ("A,14", _SG)]]
CLI_SPECS += [[("classify", g, None, src)] for g, src in [
    ("A,38", _SG), ("T,5,21", _PS), ("T,3,21", _PS), ("T,5,15", _PS), ("A,23", _PS),
    ("E18", _SG), ("E8", _SG), ("D,15", _PS), ("T,7,13", _PS), ("A,16", _SG),
    ("T,9,11", _PS), ("D,25", _PS), ("T,3,23", _PS)]]
CLI_SPECS += [[("invariants", g, None, src)] for g, src in [
    ("A,3", _PS), ("A,5", _PS), ("A,7", _PS), ("A,9", _PS), ("D,4", _PS),
    ("D,7", _PS), ("D,9", _PS), ("E6", _SG), ("A,4", _SG), ("A,6", _SG),
    ("T,3,7", _PS), ("T,5,5", _PS), ("A,20", _SG), ("D,11", _PS)]]
CLI_SPECS += [[("homology", g, None, src)] for g, src in [
    ("A,11", _PS), ("A,13", _PS), ("D,17", _PS), ("T,3,9", _PS), ("T,5,7", _PS),
    ("T,7,7", _PS), ("A,22", _SG), ("A,24", _SG), ("A,26", _SG), ("A,1", _PS),
    ("T,3,11", _PS), ("D,27", _PS), ("A,28", _SG)]]


def _cli_bands():
    return [
        ["|".join([command, germ, src] + ([str(depth)] if depth else []))
         for command, germ, depth, sources in spec for src in sources]
        for spec in CLI_SPECS
    ]


BANDS = {
    "homology-ladder": HOMOLOGY_BANDS,
    "classify-ladder": CLASSIFY_BANDS,
    "cli-tables": _cli_bands(),
}


def job_list(workload: str, seed: int) -> list[str]:
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(band) for band in BANDS[workload]]
    rng.shuffle(jobs)
    return jobs


def all_jobs(workload: str) -> list[str]:
    return [key for band in BANDS[workload] for key in band]


def _catalog_args(germ: str):
    name, *params = germ.split(",")
    return name, [int(p) for p in params]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- library jobs ------------------------------------------------------------


def homology_job(lc, key: str):
    """build_model + lattice_homology + euler_characteristic; returns the
    digest of the rank, torsion and U-rank table."""
    name, params = _catalog_args(key)
    model = lc.build_model(lc.get_entry(name, *params).descriptor)
    rep = lc.lattice_homology(model.weight)
    euler = lc.euler_characteristic(rep, model.weight)
    return lambda: digest({
        "euler": euler,
        "n_min": rep.n_min,
        "n_top": rep.n_top,
        "rows": [
            [n, k, rep.betti(k, n), list(rep.torsion(k, n)), rep.u_rank(k, n)]
            for n in range(rep.n_min, rep.n_top + 1)
            for k in range(model.r)
        ],
    })


def verdict_doc(verdict) -> dict:
    return {
        "cmtype": verdict.cmtype,
        "subtype": verdict.subtype,
        "growth": verdict.growth,
        "family": verdict.family,
        "agreement": verdict.agreement,
        "routes": verdict.routes,
    }


def classify_job(lc, key: str):
    """build_model + classify; returns the digest of the route evidence,
    or raises when the verdict contradicts the catalog's expectation."""
    name, params = _catalog_args(key)
    entry = lc.get_entry(name, *params)
    model = lc.build_model(entry.descriptor)
    verdict = lc.classify(model)

    def check():
        doc = verdict_doc(verdict)
        for field in ("cmtype", "subtype", "growth", "family"):
            if doc[field] != entry.expected[field]:
                raise AssertionError(
                    f"{key}: {field} {doc[field]!r} != expected {entry.expected[field]!r}")
        return digest(doc)

    return check


# -- cli jobs ----------------------------------------------------------------


def _hilbert_values(conductor, elements):
    """Hilbert grid of a value semigroup given on R(0, c).

    The increment along axis i at l is 1 iff some member s has
    s_i = l_i and s_j >= l_j for j != i; outside R(0, c) membership is
    read at min(l, c), so a witness is searched on R(0, c) with l clamped.
    """
    c = tuple(conductor)
    r = len(c)
    members = [tuple(p) for p in elements]
    nonzero = [p for p in members if any(p)]
    m = tuple(min(p[i] for p in nonzero) for i in range(r))
    bound = tuple(max(ci, 2 * mi) + 2 for ci, mi in zip(c, m))

    def step(l, i):
        clamped = tuple(min(x, ci) for x, ci in zip(l, c))
        return any(
            s[i] == clamped[i] and all(s[j] >= clamped[j] for j in range(r) if j != i)
            for s in members
        )

    values = {}
    for l in itertools.product(*[range(b + 1) for b in bound]):
        if not any(l):
            values[l] = 0
            continue
        i = next(j for j in range(r) if l[j])
        prev = l[:i] + (l[i] - 1,) + l[i + 1:]
        values[l] = values[prev] + step(prev, i)
    flat = [values[l] for l in itertools.product(*[range(b + 1) for b in bound])]
    return list(bound), flat


def write_descriptors(lc, jobs, directory: Path) -> None:
    """Write the descriptor file of every file-sourced CLI job."""
    for key in jobs:
        _, germ, src = key.split("|")[:3]
        if src == "builtin":
            continue
        name, params = _catalog_args(germ)
        desc = lc.get(name, *params)
        doc = desc.to_json_dict()
        if src == "hilbert":
            bound, values = _hilbert_values(*desc.payload)
            doc["source"] = {"kind": "hilbert", "bound": bound, "values": values}
        (directory / descriptor_name(key)).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def descriptor_name(key: str) -> str:
    return hashlib.sha1(key.encode()).hexdigest()[:16] + ".json"


def cli_argv(key: str, directory: Path) -> list[str]:
    parts = key.split("|")
    command, germ, src = parts[:3]
    argv = [command]
    if src == "builtin":
        argv += ["--builtin", germ]
    else:
        argv += ["--germ", str(directory / descriptor_name(key))]
    if len(parts) > 3:
        argv += ["--depth", parts[3]]
    if command != "catalog":
        argv += ["--format", "json"]
    return argv


GOLDEN = {
    "invariants|D,5|builtin": "D_5/invariants.json",
    "classify|D,5|builtin": "D_5/classify.json",
    "table|D,5|builtin": "D_5/table.json",
    "catalog|D,5|builtin": "D_5/descriptor.json",
    "homology|A,2|builtin": "A_2/homology.json",
    "classify|T,4,4|builtin": "T_4_4/classify.json",
}


def expected_stdout_digest(key: str, root: Path, reference: dict) -> str:
    """The golden file's digest where the repository has one, else the
    recorded reference."""
    golden = GOLDEN.get(key)
    if golden is not None:
        path = root / "tests" / "fixtures" / golden
        if path.is_file():
            return hashlib.sha256(path.read_bytes()).hexdigest()
    return reference.get(key)


def run_cli(argv_prefix, argv, env, root: Path, timeout: float):
    """One CLI process; returns (seconds, returncode, stdout bytes, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv_prefix + argv, cwd=root, env=env, capture_output=True, timeout=timeout,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def cli_prefix(traced: bool, trace_file: str | None = None) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "launcher.py"), trace_file, "--"]
    return [sys.executable, "-m", "latcurve.cli"]


def tmp_dir(root: Path) -> Path:
    path = root / ".perfbench_out" / "tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
