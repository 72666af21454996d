"""
One benchmark child process.

The worker puts the checkout's `src/` first on `sys.path`, imports
nilschober, builds the workload's inputs and prints READY.  A `--probe`
exits there; run.py times several probes for `setup_s`.  Otherwise the
worker runs `--jobs` jobs of the workload on one thread and prints one
JSON line: op latencies, every output checked against reference.json,
the hits and misses of the two memoised kernels, peak RSS and, with
`--trace 1`, the per-layer table of the traced jobs.

    python3 -I perfbench/worker.py --workload sweep-n10 --seed 1 --jobs 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from tracer import JOB, OP, Tracer, layer_metric_names  # noqa: E402


def import_program():
    """Import nilschober from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nilschober
    import nilschober.cli
    import nilschober.report

    if not os.path.abspath(nilschober.__file__).startswith(src + os.sep):
        raise ImportError(f"nilschober came from {nilschober.__file__}, not {src}")
    return nilschober


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def two_part_pairs(n: int) -> list:
    return [((a, n - a), (c, n - c)) for a in range(1, n) for c in range(1, n)]


def compositions(n: int) -> list:
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in compositions(n - k)]


def cuts(sigma) -> set:
    out, acc = set(), 0
    for part in sigma[:-1]:
        acc += part
        out.add(acc)
    return out


def pair_label(pair) -> str:
    return ";".join(",".join(map(str, c)) for c in pair)


class Workload:
    """A fixed set of ops.  `cold` says where the memoised caches are
    cleared: before every op ("op") or once at the start of a job ("job").
    `ref_job_s` is the seed commit's job time on a 2-core box with
    Python 3.11; it fixes the jobs per run from --seconds, so every run and
    every commit pools the same number of ops."""

    name = ""
    cold = "job"
    ref_job_s = 1.0

    def __init__(self, ns, workdir: str):
        self.ns = ns
        self.workdir = workdir

    def ops(self) -> list:
        """(label, thunk) for every op of one job, in canonical order."""
        raise NotImplementedError

    def digest(self, label: str, result) -> str:
        return repr(result)


class CheckCli(Workload):
    """`nilschober check --n k --json FILE` for k = 4, 5, 6, as a fresh
    process would run it: caches cleared before each op."""

    name = "check-cli"
    cold = "op"
    ref_job_s = 3.0

    def ops(self):
        out = []
        for k in (4, 5, 6):
            path = os.path.join(self.workdir, f"check-n{k}.json")
            argv = ["check", "--n", str(k), "--json", path]
            out.append((f"n={k}", self._call(argv, path)))
        return out

    def _call(self, argv, path):
        cli = self.ns.cli

        def run():
            if os.path.exists(path):
                os.remove(path)
            with redirect_stderr(io.StringIO()):
                return cli.main(argv), path

        return run

    def digest(self, label, result):
        rc, path = result
        with open(path, "rb") as fh:
            return f"exit={rc} sha256={sha256(fh.read())}"


class OracleN5(Workload):
    """The exact-matrix oracle at 5 strands: one op per pair
    (oracle_matches_diagram, plus flip_action_check on twist pairs) and
    one op per check_adjunction(sigma, tau) with sigma != (5,)."""

    name = "oracle-n5"
    ref_job_s = 26.0

    def ops(self):
        oracle = self.ns.oracle
        out = []
        for pair in two_part_pairs(5):
            twist = pair[1] == pair[0][::-1]

            def run(pair=pair, twist=twist):
                ok = oracle.oracle_matches_diagram(pair)
                if twist:
                    ok = oracle.flip_action_check(pair) and ok
                return ok

            out.append((f"pair {pair_label(pair)}", run))
        for sigma in compositions(5):
            if sigma == (5,):
                continue
            for tau in compositions(5):
                if cuts(sigma) <= cuts(tau):
                    out.append((
                        f"adjunction {pair_label((sigma, tau))}",
                        lambda s=sigma, t=tau: oracle.check_adjunction(s, t),
                    ))
        return out


class SweepN10(Workload):
    """total_fiber over all 81 two-part pairs at 10 strands."""

    name = "sweep-n10"
    ref_job_s = 8.0

    def ops(self):
        fiber = self.ns.fiber
        return [
            (pair_label(p), lambda p=p: fiber.total_fiber(p))
            for p in two_part_pairs(10)
        ]

    def digest(self, label, report):
        text = json.dumps(
            [report.verdict, report.mirrored, report.residual, report.level_table()],
            separators=(",", ":"),
        )
        return sha256(text.encode())


class PairQueriesN5(Workload):
    """build_report(5, pair_filter=p) and its JSON, for each of the 16
    pairs in one process: caches cleared once, then warm."""

    name = "pair-queries-n5"
    ref_job_s = 19.0

    def ops(self):
        report = self.ns.report

        def query(p):
            doc = report.build_report(5, pair_filter=p, max_oracle=4)
            return report.report_ok(doc), report.to_json(doc)

        return [(pair_label(p), lambda p=p: query(p)) for p in two_part_pairs(5)]

    def digest(self, label, result):
        ok, text = result
        return f"ok={ok} sha256={sha256(text.encode())}"


WORKLOADS = {w.name: w for w in (CheckCli, OracleN5, SweepN10, PairQueriesN5)}


class CacheLedger:
    """Clears the two memoised kernels and sums their hits and misses."""

    def __init__(self, ns):
        self.caches = {
            "shuffles.enumerate_shuffles": ns.shuffles.enumerate_shuffles,
            "algebra.dot_pass": ns.algebra.dot_pass,
        }
        self.totals = {name: [0, 0] for name in self.caches}

    def clear(self) -> None:
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.totals[name][0] += info.hits
            self.totals[name][1] += info.misses
            fn.cache_clear()

    def take(self) -> dict:
        """Hits and misses since the last take; leaves the caches empty."""
        self.clear()
        out = {name: {"hits": h, "misses": m} for name, (h, m) in self.totals.items()}
        self.totals = {name: [0, 0] for name in self.caches}
        return out


def run_jobs(workload, ops, jobs, rng, ledger, reference, tracer=None):
    """Run `jobs` jobs; each job runs every op once in a seeded order."""
    out, failures = [], []
    for _ in range(jobs):
        order = list(ops)
        rng.shuffle(order)
        ledger.take()
        root = tracer.open(tracer.name_id[JOB]) if tracer else None
        lat = []
        for label, thunk in order:
            if workload.cold == "op":
                ledger.clear()
            # Start each op from an empty collector, so that where a full
            # collection falls does not depend on the seeded op order.
            gc.collect()
            span = tracer.open(tracer.name_id[OP]) if tracer else None
            t0 = time.perf_counter()
            try:
                result = thunk()
                error = None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            if error is None:
                got = workload.digest(label, result)
                want = reference.get(label)
                if got != want:
                    error = f"output {got} differs from reference {want}"
            # Free the output before the next op starts and charge the
            # freeing to this op, the one whose caller would pay it.
            t0 = time.perf_counter()
            result = None
            dt += time.perf_counter() - t0
            lat.append([label, dt])
            if error is not None:
                failures.append(f"{label}: {error}")
        job = {"job_s": sum(dt for _, dt in lat), "ops": lat}
        if tracer:
            tracer.close(root)
            job["trace"] = tracer.analyze(root, len(tracer.name))
            job["counts"] = dict(tracer.counts)
            tracer.counts.clear()
        job["caches"] = ledger.take()
        out.append(job)
    return out, failures


def layer_table(traced: list, untraced: list) -> dict:
    """Per-layer metrics: the median over traced jobs of each job's value."""

    def per_job(job):
        tr, counts, caches = job["trace"], job["counts"], job["caches"]
        row = {}
        for name, own in tr["self_s"].items():
            row[f"{name}.self_s"] = own
            row[f"{name}.calls"] = tr["calls"][name]
            layer = name.split(".")[0]
            row[f"{layer}.self_s"] = row.get(f"{layer}.self_s", 0.0) + own
        row.update(counts)
        examined = counts.get("fiber.diagrams_examined", 0)
        row["fiber.kept_ratio"] = counts.get("fiber.diagrams_kept", 0) / examined if examined else 0.0
        for name, hm in caches.items():
            calls = hm["hits"] + hm["misses"]
            row[f"{name}.hits"] = hm["hits"]
            row[f"{name}.misses"] = hm["misses"]
            row[f"{name}.hit_ratio"] = hm["hits"] / calls if calls else 0.0
        row["oracle.realize_s"] = tr["realize_s"]
        row["oracle.eliminate_s"] = tr["eliminate_s"]
        row["trace.job_s"] = job["job_s"]
        row["trace.bench_self_s"] = row.pop("bench.self_s")
        row["trace.spans"] = tr["spans"]
        return row

    rows = [per_job(job) for job in traced]
    traced_s = statistics.median(job["job_s"] for job in traced)
    untraced_s = statistics.median(job["job_s"] for job in untraced)
    table = {}
    for name in layer_metric_names():
        values = [row.get(name, 0) for row in rows]
        ints = all(isinstance(v, int) for v in values)
        table[name] = (statistics.median_low if ints else statistics.median)(values)
    table["trace.untraced_job_s"] = untraced_s
    table["trace.overhead_s"] = traced_s - untraced_s
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    ap.add_argument("--reference", action="store_true",
                    help="print every op's output digest instead of checking")
    args = ap.parse_args(argv)

    ns = import_program()
    workdir = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](ns, workdir)
    ops = workload.ops()
    reference = {}
    if not args.reference:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    ledger = CacheLedger(ns)
    rng = random.Random(args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0
    os.makedirs(workdir)
    try:
        return run(args, workload, ops, ledger, rng, reference)
    finally:
        shutil.rmtree(workdir)


def run(args, workload, ops, ledger, rng, reference) -> int:
    if args.reference:
        ledger.take()
        digests = {}
        for label, thunk in ops:
            if workload.cold == "op":
                ledger.clear()
            digests[label] = workload.digest(label, thunk())
        print(json.dumps(digests, sort_keys=True))
        return 0

    jobs, failures = run_jobs(workload, ops, args.jobs, rng, ledger, reference)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nilschober_threads": os.environ.get("NILSCHOBER_THREADS", "unset"),
        "jobs": jobs,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced, more = run_jobs(workload, ops, args.jobs, rng, ledger, reference, tracer)
        failures += more
        bad = [i for i, job in enumerate(traced) if not job["trace"]["sum_ok"]]
        if bad:
            failures.append(f"span self times do not sum to the job span in traced jobs {bad}")
        doc["layer"] = layer_table(traced, jobs)
        doc["traced_jobs"] = traced
        path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.dump(path, {k: doc[k] for k in ("workload", "seed", "python", "nproc",
                                               "nilschober_threads", "layer")})
        doc["trace_file"] = os.path.relpath(path, ROOT)
    doc["failures"] = failures
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
