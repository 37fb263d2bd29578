"""Every library-ladder germ, and each of its proper subcurves, builds to
the model recorded in ``fixtures/ladder_models.json``: the same bound,
conductor, Hilbert and weight grids, and semigroup table.

The germ lists are the job lists of the ``homology-ladder`` and
``classify-ladder`` benchmark workloads (``perfbench/workloads.py``).
Re-record the fixture, only for a change that is meant to move a model,
with

    PYTHONPATH=src python tests/test_identity.py > tests/fixtures/ladder_models.json
"""

import hashlib
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from latcurve import build_model, get

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "ladder_models.json"


def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def ladder_keys() -> list[str]:
    workloads = bench_workloads()
    return sorted(
        set(workloads.all_jobs("homology-ladder"))
        | set(workloads.all_jobs("classify-ladder"))
    )


def model_digest(model) -> str:
    """sha256 of the bound, conductor, h, w and the semigroup mask."""
    digest = hashlib.sha256()
    digest.update(json.dumps([model.bound, model.conductor]).encode())
    for values in (model.hilbert.values, model.weight.values, model.semigroup.mask):
        digest.update(repr(values.shape).encode())
        digest.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())
    return digest.hexdigest()


def ladder_model(key: str):
    """The model of a ladder key, catalog arguments such as ``T,3,13``."""
    name, *params = key.split(",")
    return build_model(get(name, *map(int, params)))


def germ_digests(key: str) -> dict[str, str]:
    """The digest of the germ (under "") and of each proper subcurve
    (under its comma-joined branches)."""
    model = ladder_model(key)
    out = {"": model_digest(model)}
    for size in range(1, model.r):
        for J in itertools.combinations(range(1, model.r + 1), size):
            out[",".join(map(str, J))] = model_digest(model.subcurve(J))
    return out


def test_ladder_models_match_the_recorded_digests():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    keys = ladder_keys()
    assert sorted(recorded) == keys
    assert len(keys) == 229
    for key in keys:
        assert germ_digests(key) == recorded[key], key


if __name__ == "__main__":
    doc = {key: germ_digests(key) for key in ladder_keys()}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
