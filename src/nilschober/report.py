"""
Axiom-check reports: building, validating and serializing.

Reports are append-only regression artifacts: deterministic JSON (sorted
keys, fixed orderings, schema_version from day one).  Wall-clock timing is
off by default so identical inputs give byte-identical documents.
"""

from __future__ import annotations

import json
import time
from itertools import product
from typing import Any

from .compositions import Pair, all_compositions, classify_pair, refinement_pairs
from .cubes import build_bifactorization
from .fiber import (
    FiberReport,
    check_recursiveness,
    collapse_order,
    far_commutativity_failures,
    is_twist_pair,
    total_fiber,
    verdict_of,
)
from .shuffles import enumerate_shuffles, shuffle_count

SCHEMA_VERSION = 1
DEFAULT_MAX_ORACLE = 4  # largest strand count for the exact matrix oracle
CHECK_NAMES = (
    "adjunctability",
    "recursiveness",
    "far_commutativity",
    "twist_invertibility",
    "defect_vanishing",
)


class ReportError(ValueError):
    pass


def two_part_pairs(n_total: int) -> list[Pair]:
    comps = [(a, n_total - a) for a in range(1, n_total)]
    return [(ab, cd) for ab in comps for cd in comps]


def _global_checks(n_total: int, max_oracle: int) -> tuple[dict[str, bool], list[str]]:
    """Adjunctability, recursiveness and far-commutativity over the sweeps
    of `n_total`.  Each failure is recorded once, as (check name, message),
    in sweep order: adjunctability, recursiveness, far-commutativity.  A
    check is true exactly when no record names it."""
    from .algebra import NilCoxeterModule
    from .oracle import check_adjunction

    failed: list[tuple[str, str]] = []
    m_mod = None  # NilCoxeterModule(sigma), one per sigma: its taus come together
    for sigma, tau in refinement_pairs(n_total):
        # induction is a finite free right adjoint: every refinement edge's
        # shuffle basis exists with the multinomial rank
        size, count = len(enumerate_shuffles(sigma, tau)), shuffle_count(sigma, tau)
        if size != count:
            failed.append((
                "adjunctability",
                f"shuffle basis of {sigma} <= {tau} has {size} elements, "
                f"multinomial {count}",
            ))
        if n_total <= max_oracle and (m_mod is None or m_mod.tau != sigma):
            m_mod = NilCoxeterModule(sigma)
        if n_total <= max_oracle and not check_adjunction(sigma, tau, m_mod):
            failed.append(("adjunctability", f"adjunction fails at {sigma} <= {tau}"))
    for comp in all_compositions(n_total):
        for i in range(1, len(comp) + 1):
            if not check_recursiveness(n_total, comp, i):
                failed.append(
                    ("recursiveness", f"recursiveness fails at {comp}, slot {i}")
                )
    cases = []
    for a in range(1, n_total):
        b = n_total - a
        for (c0, c1), (d0, d1) in product(refinement_pairs(a), refinement_pairs(b)):
            cases.append(((a, b), c0, c1, d0, d1))
    if n_total <= max(5, max_oracle):
        bad = far_commutativity_failures(cases)
    else:
        bad = [
            (ab, c0, c1, d0, d1)
            for ab, c0, c1, d0, d1 in cases
            if enumerate_shuffles(c0 + d0, c0 + d1)
            != enumerate_shuffles(c1 + d0, c1 + d1)
        ]
    for (a, b), c0, c1, d0, d1 in bad:
        failed.append((
            "far_commutativity",
            f"far-commutativity fails at ({a},{b}), {c0}<={c1}, {d0}<={d1}",
        ))
    checks = {name: all(c != name for c, _ in failed) for name in CHECK_NAMES[:3]}
    return checks, [message for _, message in failed]


def _pair_entry(
    pair: Pair,
    globals_ok: dict[str, bool],
    global_failures: list[str],
    max_oracle: int,
) -> dict[str, Any]:
    """One pair's entry.  Its failures are the global ones, then the pair's
    own, which all belong to its local check: twist_invertibility on a twist
    pair, defect_vanishing otherwise.  So a check is false exactly when one
    of the entry's failure lines belongs to it."""
    from .oracle import flip_action_check, oracle_matches_diagram, realized_total_fiber

    report: FiberReport = total_fiber(pair)
    matrix = sum(pair[0]) <= max_oracle
    # one realized fiber serves both the flip check and the oracle
    realized = realized_total_fiber(pair) if matrix else None
    twist = is_twist_pair(pair)
    local, expected, note = (
        ("twist_invertibility", "FlipEquivalence", " with the block crossing")
        if twist
        else ("defect_vanishing", "Vanishes", "")
    )
    own: list[str] = []
    if report.verdict != expected:
        own.append(
            f"expected {expected}{note}, got {report.verdict} {report.residual}"
        )
    elif twist and matrix and not flip_action_check(pair, realized=realized):
        own.append("flip action check fails on the nil-Coxeter module")
    if matrix and not oracle_matches_diagram(pair, realized=realized, report=report):
        own.append("matrix oracle disagrees with the diagram model")
    checks = dict(globals_ok, twist_invertibility=True, defect_vanishing=True)
    checks[local] = not own
    return {
        "pair": {"ab": list(pair[0]), "cd": list(pair[1])},
        "case": {"tag": report.case.tag, "params": dict(report.case.params)},
        "mirrored": report.mirrored,
        "level_tables": [
            {
                "level": level,
                "entries": [
                    {"index_bits": list(index), "rank": rank}
                    for index, rank in entries
                ],
            }
            for level, entries in report.level_table()
        ],
        "verdict": report.verdict,
        "residual_permutations": [list(w) for w in report.residual],
        "checks": checks,
        "failures": global_failures + own,
    }


def build_report(
    n_total: int,
    pair_filter: Pair | None = None,
    max_oracle: int = DEFAULT_MAX_ORACLE,
    with_timing: bool = False,
) -> dict[str, Any]:
    t0 = time.perf_counter()
    pairs = two_part_pairs(n_total)
    if pair_filter is not None:
        if pair_filter not in pairs:
            raise ReportError(f"pair {pair_filter} is not a pair for n={n_total}")
        pairs = [pair_filter]
    globals_ok, failures = _global_checks(n_total, max_oracle)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_total": n_total,
        "pairs": [_pair_entry(p, globals_ok, failures, max_oracle) for p in pairs],
        "timing": (
            {"total_s": round(time.perf_counter() - t0, 6)} if with_timing else None
        ),
    }
    validate_report(doc)
    return doc


def report_ok(doc: dict[str, Any]) -> bool:
    return all(
        all(entry["checks"][name] for name in CHECK_NAMES)
        for entry in doc["pairs"]
    )


def to_json(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def from_json(text: str) -> dict[str, Any]:
    doc = json.loads(text)
    validate_report(doc)
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ReportError(message)


def _is_int(x: Any) -> bool:
    """A JSON integer: `bool` is an `int` subclass, but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def validate_report(doc: dict[str, Any]) -> None:
    """Schema walk; raises ReportError on any malformed field and on an
    entry that contradicts itself: a residual out of order or repeated, a
    verdict other than `verdict_of` its residual, a level-0 rank other
    than the residual's length, a lower level table other than the finite
    difference upper(..0..) - upper(..1..) along the axis that
    `collapse_order` removes at that step, or failures listed without a
    false check (or a false check without failures)."""
    _require(isinstance(doc, dict), "document must be an object")
    _require(doc.get("schema_version") == SCHEMA_VERSION, "bad schema_version")
    n_total = doc.get("n_total")
    _require(_is_int(n_total) and n_total >= 2, "bad n_total")
    _require(
        doc.get("timing") is None
        or (
            isinstance(doc["timing"], dict)
            and all(
                _is_int(v) or isinstance(v, float) for v in doc["timing"].values()
            )
        ),
        "bad timing",
    )
    _require(isinstance(doc.get("pairs"), list), "pairs must be a list")
    seen: set[Pair] = set()
    for entry in doc["pairs"]:
        _require(isinstance(entry, dict), "pair entry must be an object")
        pair = entry.get("pair")
        _require(
            isinstance(pair, dict)
            and sorted(pair) == ["ab", "cd"]
            and all(
                isinstance(c, list)
                and len(c) == 2
                and all(_is_int(p) and p >= 1 for p in c)
                and sum(c) == n_total
                for c in pair.values()
            ),
            "bad pair field",
        )
        pair = (tuple(pair["ab"]), tuple(pair["cd"]))
        _require(pair not in seen, f"pair {pair} listed twice")
        seen.add(pair)
        expected = classify_pair(*pair)
        case = entry.get("case")
        _require(
            isinstance(case, dict)
            and case.get("tag") == expected.tag
            and isinstance(case.get("params"), dict)
            and all(_is_int(v) for v in case["params"].values())
            and case["params"] == dict(expected.params),
            "bad case field",
        )
        _require(entry.get("mirrored") is expected.mirrored, "bad mirrored flag")
        _require(
            entry.get("verdict") in ("Vanishes", "FlipEquivalence", "Other"),
            "bad verdict",
        )
        _require(
            isinstance(entry.get("residual_permutations"), list),
            "bad residual list",
        )
        for w in entry["residual_permutations"]:
            _require(
                isinstance(w, list)
                and all(_is_int(v) for v in w)
                and sorted(w) == list(range(1, n_total + 1)),
                f"residual {w} is not a permutation",
            )
        residual = tuple(tuple(w) for w in entry["residual_permutations"])
        _require(
            list(residual) == sorted(set(residual)),
            "residual must be sorted without repeats",
        )
        _require(
            entry["verdict"] == verdict_of(pair, residual),
            f"verdict {entry['verdict']} contradicts the residual",
        )
        tables = entry.get("level_tables")
        spec = build_bifactorization(pair)
        axes = spec.bc_axes()
        levels = range(len(axes), -1, -1)
        order = f"level tables must run from {levels[0]} down to 0"
        _require(isinstance(tables, list) and len(tables) == len(levels), order)
        for level, table in zip(levels, tables):
            _require(
                isinstance(table, dict)
                and _is_int(table.get("level"))
                and isinstance(table.get("entries"), list),
                "bad level table",
            )
            _require(table["level"] == level, order)
            for cell in table["entries"]:
                _require(
                    isinstance(cell, dict)
                    and isinstance(cell.get("index_bits"), list)
                    and len(cell["index_bits"]) == table["level"]
                    and all(_is_int(b) and b in (0, 1) for b in cell["index_bits"])
                    and _is_int(cell.get("rank"))
                    and cell["rank"] >= 0,
                    "bad level entry",
                )
            _require(
                len({tuple(c["index_bits"]) for c in table["entries"]})
                == len(table["entries"])
                == 2 ** table["level"],
                f"level {table['level']} table needs its 2^level indices once each",
            )
        _require(
            tables[-1]["entries"][0]["rank"] == len(residual),
            "level 0 rank must equal the residual's length",
        )
        # each collapse keeps upper - lower with lower inside upper, so a
        # lower table is the finite difference of the one above it
        remaining = list(axes)
        for axis, upper, lower in zip(collapse_order(spec), tables, tables[1:]):
            pos = remaining.index(axis)
            remaining.pop(pos)
            ranks = {tuple(c["index_bits"]): c["rank"] for c in upper["entries"]}
            for cell in lower["entries"]:
                bits = tuple(cell["index_bits"])
                head, tail = bits[:pos], bits[pos:]
                _require(
                    cell["rank"]
                    == ranks[head + (0,) + tail] - ranks[head + (1,) + tail],
                    f"level {lower['level']} rank at {cell['index_bits']} is not "
                    f"the difference of level {upper['level']} along {axis}",
                )
        checks = entry.get("checks")
        _require(
            isinstance(checks, dict)
            and sorted(checks) == sorted(CHECK_NAMES)
            and all(isinstance(v, bool) for v in checks.values()),
            "bad checks field",
        )
        _require(
            isinstance(entry.get("failures"), list)
            and all(isinstance(f, str) for f in entry["failures"]),
            "bad failures field",
        )
        _require(
            bool(entry["failures"]) != all(checks.values()),
            "failures must be listed exactly when a check fails",
        )
