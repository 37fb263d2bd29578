"""latcurve benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latcurve checkout; the package is imported from
``src``.  Each workload is a closed loop with one client: a fresh worker
interpreter runs the seed's job list one job at a time (see
``workloads.py``).  The job lists are fixed; ``--seconds`` sets how many
whole passes a run makes (one per NOMINAL_PASS_S seconds, at least one),
each pass in its own interpreter so no cache outlives a pass.

Every time is wall time scaled to a reference host speed, measured by
the probes of ``speed.py`` around each timed interval; the run pins
itself and its children to one CPU so the probes see the CPU the work
ran on.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same passes untraced and then one pass with the per-layer spans of
``tracer.py`` installed, and prints the per-layer metrics.  The last
line of stdout is the result JSON; a detailed result file with the run
metadata goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, ScaledClock  # noqa: E402

# --seconds per pass: a pass takes 10-13 s (homology, classify) and about
# 38 s (cli) at the seed commit on a 2-CPU box
NOMINAL_PASS_S = {"homology-ladder": 20, "classify-ladder": 20, "cli-tables": 40}
SETUP_SAMPLES = 7
DEADLINE_S = 170
CLI_COMMANDS = ("invariants", "table", "homology", "spectral", "motivic", "classify", "catalog")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker_env(root: Path) -> tuple[dict, dict]:
    """The worker environment, and the overrides as recorded in results."""
    env = dict(os.environ)
    env.pop("LATCURVE_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({name: "1" for name in THREAD_VARS})
    recorded = {name: "1" for name in THREAD_VARS}
    recorded.update(PYTHONPATH="src", LATCURVE_THREADS="(removed)")
    return env, recorded


def spawn(root, env, workload, seed, mode, deadline):
    """Run a worker; returns (seconds until it was ready, ready doc,
    result doc or None).  The worker leads its own process group, so a
    worker stopped at the deadline takes its CLI children with it."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker passed the {DEADLINE_S}s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{err.decode(errors='replace').strip()[-800:]}")
    ready = json.loads(line)
    result = json.loads(out.splitlines()[-1]) if mode != "setup" else None
    return ready_s, ready, result


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "latcurve" / "__init__.py").is_file():
        raise BenchError("no src/latcurve here: run from the root of a latcurve checkout")
    deadline = time.monotonic() + DEADLINE_S
    env, overrides = worker_env(root)
    passes = max(1, args.seconds // NOMINAL_PASS_S[args.workload])
    # one CPU for this process and every process it starts (they inherit
    # it), so each speed probe runs on the CPU of the work it scales
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    # the first start compiles bytecode, which users pay once, not per run
    _, ready, _ = spawn(root, env, args.workload, args.seed, "setup", deadline)
    setup, setup_wall = [], []
    if not args.trace:
        clock = ScaledClock()
        for _ in range(SETUP_SAMPLES):
            setup_wall.append(spawn(root, env, args.workload, args.seed, "setup", deadline)[0])
            setup.append(clock.scale(setup_wall[-1]))
    results = [spawn(root, env, args.workload, args.seed, "pass", deadline)[2]
               for _ in range(passes)]
    traced = None
    if args.trace:
        traced = spawn(root, env, args.workload, args.seed, "trace", deadline)[2]

    checked = results + ([traced] if traced else [])
    failures = [{"job": key, "error": error}
                for res in checked for key, _, error, _ in res["jobs"] if error is not None]
    attempted = sum(len(res["jobs"]) for res in checked)
    # per-job latency: each job's median over the untraced passes
    per_job: dict[str, list[float]] = {}
    for res in results:
        for key, dt, *_ in res["jobs"]:
            per_job.setdefault(key, []).append(dt)
    latencies = [statistics.median(v) for v in per_job.values()]
    p90 = 1000.0 * statistics.quantiles(latencies, n=10)[8]
    e2e = {
        "run_s": statistics.median(r["pass_s"] for r in results),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_p90_ms": p90,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "passes": passes,
        "meta": {
            "git_revision": git_revision(root),
            "src_sha256": source_digest(root),
            "python": platform.python_version(),
            "numpy": ready["numpy"],
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "machine": platform.machine(),
            "env_overrides": overrides,
            "loop": "closed, one client, one job in flight, one process, one thread",
            "times": f"wall seconds scaled to a host whose speed probe reads {REFERENCE_S} s",
        },
        "samples": {
            "jobs_per_pass": len(per_job),
            "job_percentiles": len(latencies),
            "jobs_beyond_p90": sum(1 for v in latencies if 1000.0 * v > p90),
            "run_s": len(results),
            "setup_s": len(setup),
        },
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in e2e.items() if v is not None},
        "pass_s": [r["pass_s"] for r in results],
        "pass_wall_s": [r["wall_s"] for r in results],
        "pass_probe_median_s": [statistics.median(r["probes_s"]) for r in results],
        "setup_samples_s": setup,
        "setup_samples_wall_s": setup_wall,
        "job_seconds": {k: v for k, v in sorted(per_job.items())},
    }
    if traced:
        doc["per_layer"] = per_layer(traced, results, e2e["run_s"])
    return doc


def per_layer(traced, results, untraced_run_s) -> dict:
    raw = traced["trace"]
    layer = tracer.finish(raw)
    units = {}
    for name in layer:
        units[name] = "s" if name.endswith("_s") else (
            "ratio" if name.endswith("_ratio") else "count")
    startups = traced["startups"]
    layer["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    units["cli.startup_s"] = "s"
    by_command: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    for res in results:
        for key, dt, *_ in res["jobs"]:
            if "|" in key:
                by_command[key.split("|")[0]].append(dt)
    for command, values in by_command.items():
        layer[f"cli.{command}.p50_ms"] = 1000.0 * statistics.median(values) if values else 0.0
        units[f"cli.{command}.p50_ms"] = "ms"
    layer["trace.overhead_s"] = traced["pass_s"] - untraced_run_s
    units["trace.overhead_s"] = "s"
    return {name: {"value": value, "unit": units[name]} for name, value in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        doc = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    metrics = doc["per_layer"] if args.trace else doc["end_to_end"]
    print(f"perfbench: {doc['attempted']} jobs, {doc['failed']} failed; details in {out}",
          file=sys.stderr)
    for f in doc["failures"][:10]:
        print(f"perfbench: FAILED {f['job']}: {f['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
