"""
The nilschober benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload sweep-n10 --seed 1 --seconds 20 --trace 0

Every measurement runs in child processes started from this checkout's
sources (`perfbench/worker.py` under `python3 -I`), on one thread and
with NILSCHOBER_THREADS unset.  The run first times SETUP_PROBES children
that only import nilschober and build the inputs, then one worker that
also runs the jobs.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  The line before it is the run's detail record, which is
also written under perfbench/results/.

Exit code 0 means a result was printed; anything else means the run could
not measure (for instance, no `src/nilschober` next to `perfbench/`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def jobs_per_run(workload: str, seconds: int) -> int:
    """Jobs that fill --seconds at the seed commit's speed, at least one.

    The count depends only on --seconds, never on how fast this commit
    is, so op_p50_s and op_tail_s pool the same ops on every commit.
    """
    return max(1, int(seconds / WORKLOADS[workload].ref_job_s + 0.5))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NILSCHOBER_THREADS", None)
    return env


def start_child(args: list[str], deadline: float):
    """Start a worker and wait for READY; return (process, setup seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", WORKER, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Wait for the child (killing it at the deadline); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker passed the run's deadline and was killed")
    return out


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def latency_stats(lat: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (rank N-10 of N sorted samples; the minimum when N <= 11)."""
    lat = sorted(lat)
    n = len(lat)
    rank = max(1, n - 10)
    return {
        "samples": n,
        "p50_s": statistics.median(lat),
        "tail_s": lat[rank - 1],
        "tail_percentile": round(100.0 * rank / n, 2),
        "samples_beyond_tail": n - rank,
    }


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start_child(base + ["--probe"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited with {proc.returncode}")
        setups.append(setup)
    jobs = jobs_per_run(args.workload, args.seconds)
    proc, setup = start_child(
        base + ["--jobs", str(jobs), "--trace", str(args.trace)], deadline
    )
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])

    job_times = [job["job_s"] for job in doc["jobs"]]
    pooled = [dt for job in doc["jobs"] for _, dt in job["ops"]]
    attempted = len(pooled)
    if args.trace:
        attempted += sum(len(job["ops"]) for job in doc["traced_jobs"])
    failed = len(doc["failures"])
    stats = latency_stats(pooled)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": doc["python"],
        "nproc": doc["nproc"],
        "nilschober_threads": doc["nilschober_threads"],
        "jobs": jobs,
        "job_s": job_times,
        "job_s_quartiles": quartiles(job_times),
        "ops": stats,
        "setup_s": setups,
        "peak_rss_mb": doc["peak_rss_mb"],
        "caches": [job["caches"] for job in doc["jobs"]],
        "fail_frac": failed / attempted,
        "failures": doc["failures"][:20],
    }
    if args.trace:
        metrics = doc["layer"]
        detail["trace_file"] = doc["trace_file"]
        detail["traced_job_s"] = [job["job_s"] for job in doc["traced_jobs"]]
    else:
        metrics = {
            "job_s": statistics.median(job_times),
            "op_p50_s": stats["p50_s"],
            "op_tail_s": stats["tail_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def attach_units(result: dict, trace: int) -> None:
    """Give every metric its unit from BENCHMARK.json; refuse a mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(got))}, "
            f"extra {sorted(set(got) - set(units))}"
        )
    result["metrics"] = {
        name: {"value": got[name], "unit": units[name]} for name in units
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nilschober", "__init__.py")):
        print("run.py: no src/nilschober in this checkout", file=sys.stderr)
        return 1
    try:
        result, detail = measure(args)
        attach_units(result, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps(detail, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
