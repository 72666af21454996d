"""
Block shuffles: enumeration in lexicographic order, and their count.

A (sigma, tau)-shuffle, for tau a refinement of sigma, maps each tau-block
into the sigma-block positionally containing it and is strictly increasing
on each tau-block.  These index the free right NH_tau-module decomposition
of NH_sigma and hence the induction functors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .compositions import Composition, block_of, block_positions, refines
from .perms import Perm


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
    """Product of multinomials, one per sigma-block.  Each tau-part lies in
    exactly one sigma-block, so the product is prod(sigma!) / prod(tau!)."""
    if not refines(sigma, tau):
        raise ShuffleError(f"{tau} does not refine {sigma}")
    return prod(map(factorial, sigma)) // prod(map(factorial, tau))
