"""
Block shuffles, the Anycross/Mincross diagram sets and the delta splitting.

A (sigma, tau)-shuffle, for tau a refinement of sigma, maps each tau-block
into the sigma-block positionally containing it and is strictly increasing
on each tau-block.  These index the free right NH_tau-module decomposition
of NH_sigma and hence the induction functors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial
from functools import lru_cache

from .compositions import (
    Composition,
    block_of,
    block_positions,
    psi_inv,
    refines,
)
from .perms import Perm, compose, inversions, nil_product


class ShuffleError(ValueError):
    pass


def group_refinement(sigma: Composition, tau: Composition) -> list[list[int]]:
    """For each sigma-block, the indices of the tau-parts inside it.

    The grouping is positional: tau-block boundaries must align with
    sigma-block boundaries.
    """
    if not refines(sigma, tau):
        raise ShuffleError(f"{tau} does not refine {sigma}")
    groups: list[list[int]] = [[] for _ in sigma]
    start = 1
    for j, part in enumerate(tau):
        groups[block_of(sigma, start)].append(j)
        start += part
    return groups


@lru_cache(maxsize=None)
def enumerate_shuffles(sigma: Composition, tau: Composition) -> tuple[Perm, ...]:
    """All (sigma, tau)-shuffles in lexicographic one-line order.

    Each sigma-block occupies consecutive positions and takes its values
    from its own positional range, so a shuffle is the concatenation of
    one word per block, and the shuffles are the product of the per-block
    word lists.  A block's words are built part by part: every partial
    word is extended by the increasing choices of the next tau-part among
    the values it leaves free.  Partial words of one length, each extended
    in lexicographic order, stay in lexicographic order, and the same
    argument orders the product, formed by extending every shuffle prefix
    by every word of the next block.  So nothing is sorted.

    >>> enumerate_shuffles((3,), (1, 2))
    ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    """
    groups = group_refinement(sigma, tau)
    out: list[Perm] = [()]
    for values, parts in zip(block_positions(sigma), groups):
        words = [((), values)]
        for j in parts:
            words = [
                (word + chosen, tuple(v for v in free if v not in chosen))
                for word, free in words
                for chosen in combinations(free, tau[j])
            ]
        out = [prefix + word for prefix in out for word, _ in words]
    return tuple(out)


def shuffle_count(sigma: Composition, tau: Composition) -> int:
    """Product of multinomials, one per sigma-block."""
    count = 1
    for i, group in enumerate(group_refinement(sigma, tau)):
        count *= factorial(sigma[i])
        for j in group:
            count //= factorial(tau[j])
    return count


@dataclass(frozen=True)
class LevelParams:
    """Data of one iteration level for the palindromic pair family
    ((c, c+m), (c, c+m)) (m = 0 gives the ((a, a), (a, a)) family).

    `level` is the number i of already-collapsed inner axes, `head_bits`
    are the surviving bits (beta_1 .. beta_{c-1-level}) and `tail_bits`
    are (beta_c .. beta_{c+m-1}); only beta_c shapes the compositions but
    the whole tail travels along, since the sets genuinely depend on it.
    """

    c: int
    m: int
    level: int
    head_bits: tuple[int, ...]
    tail_bits: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not 0 <= self.level <= self.c:
            raise ShuffleError(f"level {self.level} out of range for c={self.c}")
        expected_head = max(self.c - 1 - self.level, 0)
        if len(self.head_bits) != expected_head:
            raise ShuffleError(
                f"need {expected_head} head bits, got {self.head_bits}"
            )
        if len(self.tail_bits) != self.m:
            raise ShuffleError(
                f"need {self.m} tail bits, got {self.tail_bits}"
            )

    @property
    def terminal(self) -> bool:
        """Level c: the description left after the whole palindrome chain."""
        return self.level == self.c

    @property
    def beta_c(self) -> int | None:
        return self.tail_bits[0] if self.m else None

    @property
    def outer(self) -> Composition:
        return (self.c, self.c + self.m)

    def head(self) -> Composition:
        """psi^{-1} of the head bits: a composition (t_1, ..., t_k) of c-i."""
        if self.terminal:
            raise ShuffleError("no head composition at the terminal level")
        return psi_inv("".join(map(str, self.head_bits)))

    def _assemble(self, middle: tuple[int, ...]) -> Composition:
        """head[:-1], the given middle parts, the mirrored head, then the
        beta_c-dependent tail: last part + m, or a separate part m."""
        head = self.head()
        parts = list(head[:-1]) + list(middle) + list(reversed(head[:-1]))
        parts = [p for p in parts if p]
        if self.m:
            if self.beta_c == 0:
                parts[-1] += self.m
            else:
                parts.append(self.m)
        if sum(parts) != 2 * self.c + self.m:
            raise ShuffleError(f"bad intermediate composition {parts}")
        return tuple(parts)

    def tau_tilde(self) -> Composition:
        if self.terminal:
            c, m = self.c, self.m
            return (c, c + m) if self.beta_c in (0, None) else (c, c, m)
        t_k, i = self.head()[-1], self.level
        return self._assemble((t_k + i, i + t_k))

    def sigma_tilde(self) -> Composition:
        if self.terminal:
            c, m = self.c, self.m
            return (2 * c + m,) if self.beta_c in (0, None) else (2 * c, m)
        t_k, i = self.head()[-1], self.level
        return self._assemble((2 * (t_k + i),))

    def tau_tilde_prime(self) -> Composition:
        if self.terminal:
            raise ShuffleError("no primed sets at the terminal level")
        t_k, i = self.head()[-1], self.level
        return self._assemble((t_k, i, i, t_k))

    def sigma_tilde_prime(self) -> Composition:
        if self.terminal:
            raise ShuffleError("no primed sets at the terminal level")
        t_k, i = self.head()[-1], self.level
        return self._assemble((t_k, 2 * i, t_k))

    def middle_range(self, primed: bool) -> tuple[int, int]:
        """1-based inclusive positions of the merged middle block."""
        if self.terminal:
            return (1, 2 * self.c)
        if primed:
            width = self.level
        else:
            width = self.head()[-1] + self.level
        return (self.c - width + 1, self.c + width)


def anycross(p: LevelParams, primed: bool = False) -> tuple[Perm, ...]:
    """The outer shuffle set S_{(c, c+m), tau-tilde} at this level."""
    tt = p.tau_tilde_prime() if primed else p.tau_tilde()
    return enumerate_shuffles(p.outer, tt)


def crosses_at_least(t: Perm, p: LevelParams, j: int, primed: bool = False) -> bool:
    """True iff t sends at least the j innermost strands of the left middle
    block to the right half of the merged block, and symmetrically.

    For the primed variant the middle blocks are the two interior
    level-sized blocks.
    """
    lo, hi = p.middle_range(primed)
    if lo > hi:
        return True
    half = (lo + hi) // 2
    left_inner = range(half - j + 1, half + 1)
    right_inner = range(half + 1, half + j + 1)
    return all(t[q - 1] > half for q in left_inner) and all(
        t[q - 1] <= half for q in right_inner
    )


def mincross(p: LevelParams, primed: bool = False) -> tuple[Perm, ...]:
    """The constrained inner shuffle set at this level.

    Unprimed: the subset of S_{sigma-tilde, tau-tilde} crossing at least the
    `level` innermost strands of each middle block over.  Primed: the same
    condition inside S_{sigma-tilde-prime, tau-tilde-prime}, which pins down
    exactly one element: the total crossing of the two interior blocks.
    """
    if primed:
        sigma, tau = p.sigma_tilde_prime(), p.tau_tilde_prime()
    else:
        sigma, tau = p.sigma_tilde(), p.tau_tilde()
    return tuple(
        t
        for t in enumerate_shuffles(sigma, tau)
        if crosses_at_least(t, p, p.level, primed)
    )


@dataclass(frozen=True)
class DeltaPair:
    """Image of the delta splitting: an (Anycross, Mincross) pair at the
    unprimed level together with their composed permutation."""

    outer: Perm
    inner: Perm
    product: Perm


def delta_decompose(E: Perm, F: Perm, p: LevelParams) -> DeltaPair:
    """Split E over the merged middle blocks and absorb the crossing F.

    E must lie in Anycross (primed) and F in Mincross (primed).  Returns
    (E1, E2 o F) with E1 in the unprimed Anycross, E2 o F in the unprimed
    Mincross, no bigons, and E o F == E1 o (E2 o F).  E1 is the increasing
    rearrangement of E on the blocks of tau-tilde (outside the middle it is
    E itself), i.e. the minimal coset factor of E.
    """
    from .algebra import parabolic_decompose

    if E not in set(anycross(p, primed=True)):
        raise ShuffleError(f"{E} is not in the primed Anycross set")
    if F not in set(mincross(p, primed=True)):
        raise ShuffleError(f"{F} is not in the primed Mincross set")
    E1, E2 = parabolic_decompose(E, p.tau_tilde())
    E2F = nil_product(E2, F)
    if E2F is None:
        raise ShuffleError(f"bigon in the delta splitting of {E}, {F}")
    if inversions(compose(E1, E2)) != inversions(E1) + inversions(E2):
        raise ShuffleError(f"lengths fail to add in the splitting of {E}")
    if E1 not in set(anycross(p)):
        raise ShuffleError(f"split outer part {E1} is not in Anycross")
    if E2F not in set(mincross(p)):
        raise ShuffleError(f"split inner part {E2F} is not in Mincross")
    product = compose(E, F)
    if compose(E1, E2F) != product:
        raise ShuffleError("delta splitting does not preserve the product")
    return DeltaPair(E1, E2F, product)
