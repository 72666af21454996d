"""
Span tracing installed from outside the library.

`Tracer.install` wraps the public functions listed in WRAPPED in every
`nilschober.*` namespace that binds them (a module-level `from .linalg
import rank` binds its own name, so patching only the defining module
would miss those calls).  Each call records a span: name, start, end and
parent.  Spans stay in memory until the run ends.

Hot primitives (`perms.compose`, `algebra.dot_pass`, Fraction arithmetic)
are not wrapped; they are counted instead, through `cubes.products`,
`cache_info()` and the matrix cell counters.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) of every wrapped function; a dotted attribute is a
# method, patched on its class.
WRAPPED = (
    ("cli", "main"),
    ("report", "build_report"),
    ("report", "validate_report"),
    ("report", "to_json"),
    ("fiber", "total_fiber"),
    ("fiber", "initial_cube"),
    ("fiber", "take_fiber_along"),
    ("fiber", "check_far_commutativity"),
    ("fiber", "check_recursiveness"),
    ("cubes", "build_bifactorization"),
    ("cubes", "bc_vertex"),
    ("cubes", "word_factorizations"),
    ("shuffles", "enumerate_shuffles"),
    ("algebra", "module_decompose"),
    ("algebra", "NilCoxeterModule.act_matrix"),
    ("oracle", "oracle_matches_diagram"),
    ("oracle", "flip_action_check"),
    ("oracle", "check_adjunction"),
    ("oracle", "realized_total_fiber"),
    ("oracle", "realize_map"),
    ("oracle", "RealizedVertex.action_matrix"),
    ("oracle", "HomSpace.action_matrix"),
    ("linalg", "rank"),
    ("linalg", "rref"),
    ("linalg", "nullspace"),
    ("linalg", "solve_matrix"),
    ("linalg", "mat_mul"),
    ("linalg", "sparse_nullspace"),
)
LAYERS = ("cli", "report", "fiber", "cubes", "shuffles", "algebra", "oracle", "linalg")
REALIZE = ("oracle.realize_map", "oracle.RealizedVertex.action_matrix", "oracle.HomSpace.action_matrix")
JOB, OP, HOOK = "bench.job", "bench.op", "bench.hook"

# Counters read from return values; the hook runs in its own bench.hook
# span so its cost never lands in a library function's self time.


def _diagrams(cube) -> int:
    return sum(len(s) for s in cube.vertex_sets.values())


def _largest(cube) -> int:
    return max((len(s) for s in cube.vertex_sets.values()), default=0)


def _count_matrix(counts, m) -> None:
    counts["oracle.matrix_cells"] += len(m) * (len(m[0]) if m else 0)
    counts["oracle.matrix_nnz"] += sum(1 for row in m for x in row if x)


def _hook_products(counts, args, res) -> None:
    counts["cubes.products"] += len(res)


def _hook_initial(counts, args, res) -> None:
    counts["fiber.diagrams_initial"] += _diagrams(res)
    counts["fiber.max_vertex_set"] = max(counts["fiber.max_vertex_set"], _largest(res))


def _hook_collapse(counts, args, res) -> None:
    cube, axis = args[0], args[1]
    pos = cube.axes.index(axis)
    counts["fiber.diagrams_examined"] += sum(
        len(s) for index, s in cube.vertex_sets.items() if index[pos] == 0
    )
    counts["fiber.diagrams_kept"] += _diagrams(res)


def _hook_total(counts, args, res) -> None:
    sizes = [_diagrams(cube) for cube in res.levels]
    counts["fiber.diagrams_all_levels"] += sum(sizes)
    counts["fiber.max_vertex_set"] = max(
        [counts["fiber.max_vertex_set"]] + [_largest(c) for c in res.levels]
    )
    if res.mirrored:
        counts["fiber.mirrored_pairs"] += 1
        counts["fiber.diagrams_transported"] += sum(sizes)


def _hook_cells(name):
    def hook(counts, args, res) -> None:
        m = args[0]
        counts[name] += len(m) * (len(m[0]) if m else 0)

    return hook


def _hook_sparse(counts, args, res) -> None:
    counts["linalg.sparse_nullspace.rows"] += len(args[0])
    counts["linalg.sparse_nullspace.unknowns"] += args[1]


def _hook_matrix(counts, args, res) -> None:
    _count_matrix(counts, res)


HOOKS = {
    "cubes.word_factorizations": _hook_products,
    "fiber.initial_cube": _hook_initial,
    "fiber.take_fiber_along": _hook_collapse,
    "fiber.total_fiber": _hook_total,
    "linalg.rank": _hook_cells("linalg.rank.cells"),
    "linalg.rref": _hook_cells("linalg.rref.cells"),
    "linalg.sparse_nullspace": _hook_sparse,
    "oracle.realize_map": _hook_matrix,
    "oracle.RealizedVertex.action_matrix": _hook_matrix,
    "oracle.HomSpace.action_matrix": _hook_matrix,
}


def span_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attr in WRAPPED]


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for name in span_names():
        names += [f"{name}.self_s", f"{name}.calls"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [
        "cubes.products",
        "fiber.mirrored_pairs",
        "fiber.diagrams_transported",
        "fiber.diagrams_initial",
        "fiber.diagrams_all_levels",
        "fiber.max_vertex_set",
        "fiber.kept_ratio",
        "shuffles.enumerate_shuffles.hits",
        "shuffles.enumerate_shuffles.misses",
        "shuffles.enumerate_shuffles.hit_ratio",
        "algebra.dot_pass.hits",
        "algebra.dot_pass.misses",
        "algebra.dot_pass.hit_ratio",
        "oracle.realize_s",
        "oracle.eliminate_s",
        "oracle.matrix_cells",
        "oracle.matrix_nnz",
        "linalg.rank.cells",
        "linalg.rref.cells",
        "linalg.sparse_nullspace.unknowns",
        "linalg.sparse_nullspace.rows",
        "trace.job_s",
        "trace.untraced_job_s",
        "trace.overhead_s",
        "trace.bench_self_s",
        "trace.spans",
    ]
    return names


class Tracer:
    """Records spans into flat arrays; parent -1 marks a root."""

    def __init__(self) -> None:
        self.names: list[str] = [JOB, OP, HOOK] + span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(int)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_id[name]
        hook = HOOKS.get(name)
        hook_id = self.name_id[HOOK]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                h = tracer.open(hook_id)
                try:
                    hook(tracer.counts, args, res)
                finally:
                    tracer.close(h)
            return res

        traced.__wrapped__ = fn
        for attr in ("__name__", "__doc__", "cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a nilschober module binds it."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "nilschober" or name.startswith("nilschober.")
        }
        for mod_name, attr in WRAPPED:
            home = mods[f"nilschober.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            bound = 0
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{name} is bound nowhere")

    def analyze(self, root: int, stop: int) -> dict:
        """Self times of the spans root..stop-1, which must be one job.

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span.  The self times must sum to the
        root's duration; a mis-nested span breaks that sum.
        """
        name, start, end, parent = self.name, self.start, self.end, self.parent
        covered: dict[int, float] = defaultdict(float)
        reach: dict[int, float] = {}
        for i in range(root + 1, stop):
            p = parent[i]
            if p < root:
                raise RuntimeError(f"span {i} escapes the job rooted at {root}")
            lo = max(start[i], start[p], reach.get(p, start[p]))
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        oracle_ids = {self.name_id[n] for n in self.names if n.startswith("oracle.")}
        realize_ids = {self.name_id[n] for n in REALIZE}
        linalg_ids = {self.name_id[n] for n in self.names if n.startswith("linalg.")}
        under_oracle: dict[int, bool] = {}
        under_realize: dict[int, bool] = {}
        realize_s = eliminate_s = total_self = 0.0
        for i in range(root, stop):
            nid = name[i]
            own = end[i] - start[i] - covered.get(i, 0.0)
            total_self += own
            label = self.names[nid]
            self_s[label] += own
            calls[label] += 1
            p = parent[i]
            parent_oracle = p >= root and (under_oracle[p] or name[p] in oracle_ids)
            parent_realize = p >= root and (under_realize[p] or name[p] in realize_ids)
            under_oracle[i] = parent_oracle
            under_realize[i] = parent_realize
            if nid in realize_ids and not parent_realize:
                realize_s += end[i] - start[i]
            if nid in linalg_ids and parent_oracle:
                eliminate_s += own
        duration = end[root] - start[root]
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "realize_s": realize_s,
            "eliminate_s": eliminate_s,
            "root_s": duration,
            "self_sum_s": total_self,
            "sum_ok": abs(total_self - duration) <= 1e-6 + 1e-9 * duration,
            "spans": stop - root,
        }

    def dump(self, path, meta: dict) -> None:
        """Write every span (times relative to the first) and `meta`."""
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [self.name[i], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9), self.parent[i]]
            for i in range(len(self.name))
        ]
        doc = dict(meta, span_names=self.names, spans=spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
