"""
Compositions of n, their binary presentations and the nine-case pair table.

A composition is a tuple of positive ints; its binary presentation is the
bit string `0^{n1-1} 1 0^{n2-1} 1 ... 0^{nk-1}` of length sum-1, read left
to right.  Refinement corresponds to bitwise dominance of presentations,
that is, to inclusion of the sets of partial sums (the cuts).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

Composition = tuple[int, ...]


class CompositionError(ValueError):
    pass


def check_composition(sigma: Composition) -> None:
    if any(part < 1 for part in sigma):
        raise CompositionError(f"composition parts must be positive: {sigma}")


def total(sigma: Composition) -> int:
    return sum(sigma)


def psi(sigma: Composition) -> str:
    """Binary presentation, e.g. psi((3, 5)) == '0010000'.

    Defined for compositions of n >= 1; the bits have length n-1.
    """
    check_composition(sigma)
    if not sigma:
        raise CompositionError("psi is undefined for the empty composition")
    return "1".join("0" * (part - 1) for part in sigma)


def psi_inv(bits: str) -> Composition:
    """Inverse of `psi`; the empty string gives (1)."""
    if set(bits) - {"0", "1"}:
        raise CompositionError(f"not a bit string: {bits!r}")
    parts = []
    run = 0
    for bit in bits:
        run += 1
        if bit == "1":
            parts.append(run)
            run = 0
    parts.append(run + 1)
    return tuple(parts)


def refines(sigma: Composition, tau: Composition) -> bool:
    """True iff `tau` refines `sigma` (sigma <= tau in the refinement order)."""
    if total(sigma) != total(tau):
        raise CompositionError(
            f"compositions of different totals: {sigma} vs {tau}"
        )
    return _cuts(sigma) <= _cuts(tau)


def _cuts(sigma: Composition) -> set[int]:
    """The partial sums of sigma below its total: the positions of the 1
    bits of psi(sigma)."""
    check_composition(sigma)
    if not sigma:
        raise CompositionError("refinement is undefined for the empty composition")
    return set(accumulate(sigma[:-1]))


def meet(sigma: Composition, tau: Composition) -> Composition:
    """Finest common coarsening (bitwise AND of presentations)."""
    s, t = psi(sigma), psi(tau)
    if len(s) != len(t):
        raise CompositionError(
            f"compositions of different totals: {sigma} vs {tau}"
        )
    return psi_inv("".join(min(a, b) for a, b in zip(s, t)))


def blocks(sigma: Composition) -> list[tuple[int, int]]:
    """1-based inclusive index ranges of the blocks.

    >>> blocks((6, 3))
    [(1, 6), (7, 9)]
    """
    check_composition(sigma)
    out = []
    start = 1
    for part in sigma:
        out.append((start, start + part - 1))
        start += part
    return out


def block_positions(sigma: Composition) -> list[tuple[int, ...]]:
    return [tuple(range(lo, hi + 1)) for lo, hi in blocks(sigma)]


def block_of(sigma: Composition, position: int) -> int:
    """0-based index of the block containing a 1-based position."""
    for i, (lo, hi) in enumerate(blocks(sigma)):
        if lo <= position <= hi:
            return i
    raise CompositionError(f"position {position} outside 1..{total(sigma)}")


def all_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n >= 1, in psi-lexicographic order."""
    if n < 1:
        raise CompositionError("need n >= 1")
    return [
        psi_inv(format(i, f"0{n - 1}b") if n > 1 else "")
        for i in range(2 ** (n - 1))
    ]


def refinement_pairs(n: int) -> list[tuple[Composition, Composition]]:
    """Every (sigma, tau) with sigma <= tau, sigma outer and tau inner, both
    in `all_compositions` order."""
    comps = all_compositions(n)
    return [(sigma, tau) for sigma in comps for tau in comps if refines(sigma, tau)]


def parse_composition(text: str) -> Composition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CompositionError(f"bad composition syntax: {text!r}") from None
    check_composition(parts)
    return parts


Pair = tuple[Composition, Composition]

# tags of the a >= c case table; Mirror* are the a < c cases, obtained by
# reversing both compositions and swapping them
CASE_TAGS = (
    "AC_Unbal", "AA", "CA_Unbal", "Swap", "OverLeft", "OverRight",
    "MirrorSwap", "MirrorOverLeft", "MirrorOverRight",
)


@dataclass(frozen=True)
class PairCase:
    """One of the nine shapes a pair of two-part compositions can take.

    For Mirror* tags the parameters are those of the mirrored (a > c) case.
    """

    tag: str
    params: tuple[tuple[str, int], ...]

    def __getitem__(self, name: str) -> int:
        return dict(self.params)[name]

    @property
    def mirrored(self) -> bool:
        return self.tag.startswith("Mirror")


def mirror_pair(pair: Pair) -> Pair:
    """Reverse both compositions and swap them: ((a,b),(c,d)) -> ((b,a),(d,c))."""
    (a, b), (c, d) = pair
    return ((b, a), (d, c))


def classify_pair(ab: Composition, cd: Composition) -> PairCase:
    """The unique case tag of the pair, with recovered parameters.

    >>> classify_pair((2, 3), (2, 3))
    PairCase(tag='AC_Unbal', params=(('c', 2), ('m', 1)))
    """
    if len(ab) != 2 or len(cd) != 2:
        raise CompositionError(f"need two-part compositions: {ab}, {cd}")
    check_composition(ab)
    check_composition(cd)
    if total(ab) != total(cd):
        raise CompositionError(f"totals differ: {ab} vs {cd}")
    a, b = ab
    c, d = cd
    if a == c:
        if b > a:
            if (a, b) != (c, d):
                raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
            return PairCase("AC_Unbal", (("c", a), ("m", b - a)))
        if b == a:
            return PairCase("AA", (("a", a),))
        if (a, b) != (c, d):
            raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
        return PairCase("CA_Unbal", (("b", b), ("m", a - b)))
    if a > c:
        if b == c:
            # ((c+l, c), (c, c+l))
            if d != a:
                raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
            return PairCase("Swap", (("c", c), ("l", a - c)))
        if b < c:
            # ((b+m+l, b), (b+m, b+l))
            m, l = c - b, d - b
            if (a, d) != (b + m + l, b + l):
                raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
            return PairCase("OverLeft", (("b", b), ("m", m), ("l", l)))
        # b > c: ((c+l, c+m), (c, c+m+l))
        l, m = a - c, b - c
        if d != c + m + l:
            raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
        return PairCase("OverRight", (("c", c), ("m", m), ("l", l)))
    # a < c: classify the mirror and wrap the tag
    inner = classify_pair(*mirror_pair((ab, cd)))
    if inner.tag not in ("Swap", "OverLeft", "OverRight"):
        raise CompositionError(f"unclassifiable pair: {ab}, {cd}")
    return PairCase("Mirror" + inner.tag, inner.params)


def reconstruct_pair(case: PairCase) -> Pair:
    """The pair a case came from; inverse of `classify_pair`."""
    p = dict(case.params)
    if case.tag == "AC_Unbal":
        c, m = p["c"], p["m"]
        return ((c, c + m), (c, c + m))
    if case.tag == "AA":
        a = p["a"]
        return ((a, a), (a, a))
    if case.tag == "CA_Unbal":
        b, m = p["b"], p["m"]
        return ((b + m, b), (b + m, b))
    if case.tag == "Swap":
        c, l = p["c"], p["l"]
        return ((c + l, c), (c, c + l))
    if case.tag == "OverLeft":
        b, m, l = p["b"], p["m"], p["l"]
        return ((b + m + l, b), (b + m, b + l))
    if case.tag == "OverRight":
        c, m, l = p["c"], p["m"], p["l"]
        return ((c + l, c + m), (c, c + m + l))
    if case.mirrored:
        inner = PairCase(case.tag.removeprefix("Mirror"), case.params)
        return mirror_pair(reconstruct_pair(inner))
    raise CompositionError(f"unknown case tag {case.tag!r}")
