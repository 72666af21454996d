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
    in `all_compositions` order.  The index of a composition there is its
    presentation read as a binary number, so sigma <= tau exactly when the
    bits of sigma's index lie among tau's (`refines`)."""
    comps = all_compositions(n)
    return [
        (sigma, comps[j])
        for i, sigma in enumerate(comps)
        for j in range(len(comps))
        if i & j == i
    ]


def parse_composition(text: str) -> Composition:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CompositionError(f"bad composition syntax: {text!r}") from None
    check_composition(parts)
    return parts


Pair = tuple[Composition, Composition]

# (l > 0, sign of m) -> tag of the a >= c case table; an a < c pair takes
# "Mirror" and the tag of its mirror, whose l is always positive
_TAGS = {
    (False, 1): "AC_Unbal", (False, 0): "AA", (False, -1): "CA_Unbal",
    (True, 0): "Swap", (True, -1): "OverLeft", (True, 1): "OverRight",
}


@dataclass(frozen=True)
class PairCase:
    """One of the nine shapes a pair of two-part compositions can take.

    The parameters are k (named c, a or b), then |m|, then l, each only
    when nonzero; for Mirror* tags they are those of the mirrored pair.
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


def pair_shape(ab: Composition, cd: Composition) -> tuple[bool, int, int, int]:
    """(mirrored, k, l, m) of a pair of two-part compositions.

    A pair ((a, b), (c, d)) with a >= c has k = min(b, c), l = a - c and
    m = b - c.  A pair with a < c is mirrored and has the numbers of its
    mirror, which has a > c.
    """
    if len(ab) != 2 or len(cd) != 2:
        raise CompositionError(f"need two-part compositions: {ab}, {cd}")
    check_composition(ab)
    check_composition(cd)
    if total(ab) != total(cd):
        raise CompositionError(f"totals differ: {ab} vs {cd}")
    mirrored = ab[0] < cd[0]
    (a, b), (c, _) = mirror_pair((ab, cd)) if mirrored else (ab, cd)
    return mirrored, min(b, c), a - c, b - c


def classify_pair(ab: Composition, cd: Composition) -> PairCase:
    """The unique case tag of the pair, with recovered parameters.

    >>> classify_pair((2, 3), (2, 3))
    PairCase(tag='AC_Unbal', params=(('c', 2), ('m', 1)))
    """
    mirrored, k, l, m = pair_shape(ab, cd)
    key = "b" if m < 0 else "c" if l or m else "a"
    params = tuple((name, v) for name, v in ((key, k), ("m", abs(m)), ("l", l)) if v)
    return PairCase("Mirror" * mirrored + _TAGS[l > 0, (m > 0) - (m < 0)], params)
