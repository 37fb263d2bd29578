"""Record the reference outputs the benchmark checks every job against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run once, from the root of a checkout of the commit whose outputs are the
reference; it runs every job of every band (all seeds together) and
writes ``perfbench/reference/<workload>.json``.  The references were
recorded from the unchanged seed code; record again only for a change
that is meant to alter an output, and say so with the change.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import latcurve as lc

    names = sys.argv[1:] or workloads.WORKLOADS
    env, _ = run.worker_env(root)
    os.environ.update(env)
    for name in ("homology-ladder", "classify-ladder"):
        if name not in names:
            continue
        job = {"homology-ladder": workloads.homology_job,
               "classify-ladder": workloads.classify_job}[name]
        ref = {key: job(lc, key)() for key in workloads.all_jobs(name)}
        write(name, ref)
    if "cli-tables" not in names:
        return 0
    keys = workloads.all_jobs("cli-tables")
    directory = workloads.tmp_dir(root)
    workloads.write_descriptors(lc, keys, directory)
    ref = {}
    for key in keys:
        argv = workloads.cli_argv(key, directory)
        _, code, out, err = workloads.run_cli(workloads.cli_prefix(False), argv, env, root, 120)
        if code != 0:
            raise SystemExit(f"{key}: exit {code}: {err.decode()}")
        ref[key] = hashlib.sha256(out).hexdigest()
    write("cli-tables", ref)
    for path in directory.iterdir():
        path.unlink()
    directory.rmdir()
    return 0


def write(name, ref) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{path}: {len(ref)} jobs")


if __name__ == "__main__":
    sys.exit(main())
