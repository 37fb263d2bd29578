"""One pass over a workload's job list, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED {setup,pass,trace}

Prints ``{"ready": ...}`` once latcurve is imported and the job list is
built (the end of set-up), then, unless the mode is ``setup``, runs every
job once, one at a time, and prints one JSON line with the per-job
seconds (scaled to the reference host speed of ``speed.py``, and raw),
check outcomes, peak memory and, in ``trace`` mode, the span totals.  Run by ``run.py`` with ``PYTHONPATH`` pointing at ``src``.
"""

import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from speed import ScaledClock


def emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def library_pass(lc, workload, jobs, tracer, reference):
    import workloads

    run_job = {
        "homology-ladder": workloads.homology_job,
        "classify-ladder": workloads.classify_job,
    }[workload]
    rows = []
    clock = ScaledClock()
    for key in jobs:
        # start each job on a collected heap, so a collection owed to an
        # earlier job does not land in this one's time
        gc.collect()
        t0 = time.perf_counter()
        try:
            check, error = run_job(lc, key), None
        except Exception as exc:  # a failing job is counted, the pass goes on
            check, error = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        dt = clock.scale(raw)
        if tracer is not None:
            tracer.end_job()
        if check is not None:
            try:
                got = check()
                if got != reference.get(key):
                    error = f"output digest {got} != reference"
            except AssertionError as exc:
                error = str(exc)
        rows.append([key, dt, error, raw])
    return rows, clock.probes


def cli_pass(root, jobs, directory, traced, reference):
    import workloads
    import tracer as tracer_mod

    env = dict(os.environ)
    rows, startups, raw = [], [], {}
    clock = ScaledClock()
    for i, key in enumerate(jobs):
        trace_file = str(directory / f"trace-{i}.json")
        prefix = workloads.cli_prefix(traced, trace_file)
        argv = workloads.cli_argv(key, directory)
        env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        try:
            wall, code, out, err = workloads.run_cli(prefix, argv, env, root, timeout=120)
        except (subprocess.TimeoutExpired, OSError) as exc:
            rows.append([key, 0.0, f"{type(exc).__name__}: {exc}", 0.0])
            clock = ScaledClock()
            continue
        dt = clock.scale(wall)
        want = workloads.expected_stdout_digest(key, root, reference)
        got = hashlib.sha256(out).hexdigest()
        error = None
        if code != 0:
            error = f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
        elif got != want:
            error = f"stdout digest {got} != reference"
        if traced and os.path.exists(trace_file):
            with open(trace_file, encoding="utf-8") as fh:
                doc = json.load(fh)
            startups.append(doc["startup_s"])
            tracer_mod.add(raw, doc["trace"])
        rows.append([key, dt, error, wall])
    return rows, clock.probes, startups, raw


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = Path.cwd()
    import workloads

    if workload == "cli-tables":
        import latcurve.cli  # noqa: F401  (what a shell user's process imports)
        import latcurve as lc

        jobs = workloads.job_list(workload, seed)
        directory = workloads.tmp_dir(root)
        workloads.write_descriptors(lc, jobs, directory)
    else:
        import latcurve as lc

        jobs = workloads.job_list(workload, seed)
    emit({"ready": True, "jobs": len(jobs), "numpy": sys.modules["numpy"].__version__})
    if mode == "setup":
        if workload == "cli-tables":
            shutil.rmtree(directory)
        return 0

    reference = workloads.load_reference(workload)
    traced = mode == "trace"
    result = {"startups": [], "trace": None}
    if workload == "cli-tables":
        try:
            rows, probes, startups, raw = cli_pass(root, jobs, directory, traced, reference)
        finally:
            shutil.rmtree(directory)
        who = resource.RUSAGE_CHILDREN  # the CLI processes
        result["startups"] = startups
        result["trace"] = raw if traced else None
    else:
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        rows, probes = library_pass(lc, workload, jobs, tracer, reference)
        who = resource.RUSAGE_SELF
        result["trace"] = tracer.snapshot() if traced else None
    result.update(
        pass_s=sum(row[1] for row in rows),
        wall_s=sum(row[3] for row in rows),
        probes_s=probes,
        jobs=rows,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
    )
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
