"""Shuffle enumeration, and the level model of `level_model`: the
Anycross/Mincross level sets and the delta splitting."""

from itertools import permutations, product
from math import comb

import pytest

from level_model import (
    LevelParams,
    anycross,
    crosses_at_least,
    delta_decompose,
    mincross,
)
from nilschober.compositions import all_compositions, blocks, refines
from nilschober.perms import block_cross, compose, identity
from nilschober.shuffles import ShuffleError, enumerate_shuffles, shuffle_count


def brute_shuffles(sigma, tau):
    """Filter the whole symmetric group by the definition: each tau-block
    is increasing and lands in the sigma-block positionally containing it.

    `permutations` lists the group in lexicographic order, so the result
    is in that order too.
    """
    n = sum(sigma)
    checks = []
    for lo, hi in blocks(tau):
        (home,) = [b for b in blocks(sigma) if b[0] <= lo and hi <= b[1]]
        checks.append((slice(lo - 1, hi), *home))
    return tuple(
        w
        for w in permutations(range(1, n + 1))
        if all(
            list(w[s]) == sorted(w[s]) and first <= min(w[s]) and max(w[s]) <= last
            for s, first, last in checks
        )
    )


def refinement_pairs(n):
    comps = all_compositions(n)
    return [(s, t) for s in comps for t in comps if refines(s, t)]


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_matches_definition(n):
    """Exact tuples, order included, for every sigma <= tau."""
    for sigma, tau in refinement_pairs(n):
        assert enumerate_shuffles(sigma, tau) == brute_shuffles(sigma, tau)


@pytest.mark.parametrize("n", [7, 8])
def test_enumerate_strictly_increasing(n):
    """Lexicographic order and no repeats past the brute-force range."""
    for sigma, tau in refinement_pairs(n):
        shuffles = enumerate_shuffles(sigma, tau)
        enumerate_shuffles.cache_clear()
        assert all(a < b for a, b in zip(shuffles, shuffles[1:]))


def test_enumerate_matches_brute_force():
    assert enumerate_shuffles((5,), (2, 3)) == brute_shuffles((5,), (2, 3))
    assert len(enumerate_shuffles((5,), (2, 3))) == comb(5, 2) == 10


def test_identity_refinement_gives_identity():
    assert enumerate_shuffles((2, 3), (2, 3)) == (identity(5),)


def test_large_grouping_count():
    shuffles = enumerate_shuffles((6, 3), (3, 1, 2, 2, 1))
    assert len(shuffles) == 180
    assert shuffles == brute_shuffles((6, 3), (3, 1, 2, 2, 1))


def test_positional_grouping_matters():
    # 2 = 1+1 and 3 = 1+2, not one flat multiset
    assert len(enumerate_shuffles((2, 3), (1, 1, 1, 2))) == 6


@pytest.mark.parametrize("n", range(2, 8))
def test_counts_match_multinomials(n):
    for sigma in all_compositions(n):
        for tau in all_compositions(n):
            if refines(sigma, tau):
                assert len(enumerate_shuffles(sigma, tau)) == shuffle_count(
                    sigma, tau
                )


def test_invalid_refinement_rejected():
    with pytest.raises(ShuffleError):
        enumerate_shuffles((2, 3), (3, 2))
    with pytest.raises(ShuffleError):
        shuffle_count((2, 3), (3, 2))


# The level model (tests/level_model.py)


def test_terminal_anycross_beta0_is_identity():
    p = LevelParams(c=2, m=1, level=2, head_bits=(), tail_bits=(0,))
    assert anycross(p) == (identity(5),)


def test_terminal_anycross_beta1_factors():
    p = LevelParams(c=2, m=1, level=2, head_bits=(), tail_bits=(1,))
    # id_c x S_{(c+m),(c,m)}: every element fixes the first block
    ac = anycross(p)
    assert len(ac) == comb(3, 2)
    assert all(w[:2] == (1, 2) for w in ac)
    # and Mincross is the single crossing X_c x id_m
    assert mincross(p) == ((3, 4, 1, 2, 5),)


def test_terminal_cardinality_identified_with_small_shuffles():
    for c in (1, 2, 3):
        for m in (1, 2):
            for beta_c in (0, 1):
                p = LevelParams(
                    c=c, m=m, level=c, head_bits=(),
                    tail_bits=(beta_c,) + (0,) * (m - 1),
                )
                size = len(anycross(p)) * len(mincross(p))
                assert size == len(enumerate_shuffles((c + m,), (c, m)))


def test_level0_mincross_is_everything():
    p = LevelParams(c=2, m=1, level=0, head_bits=(0,), tail_bits=(1,))
    assert mincross(p) == enumerate_shuffles(p.sigma_tilde(), p.tau_tilde())


def test_anycross_size_example():
    # c=2, m=1, level 0, beta = (1, 1): 2! * 3!/(1!1!...) style count 12
    p = LevelParams(c=2, m=1, level=0, head_bits=(1,), tail_bits=(1,))
    assert len(anycross(p, primed=True)) == 12


def test_primed_mincross_singleton():
    for c in (2, 3):
        for m in (0, 1):
            for level in range(1, c):
                for head in product((0, 1), repeat=c - 1 - level):
                    for tail in product((0, 1), repeat=m):
                        p = LevelParams(c=c, m=m, level=level,
                                        head_bits=head, tail_bits=tail)
                        assert len(mincross(p, primed=True)) == 1


def test_crosses_at_least_trivial_cases():
    p = LevelParams(c=2, m=0, level=1, head_bits=(), tail_bits=())
    assert not crosses_at_least(identity(4), p, 1)
    assert crosses_at_least(block_cross(2, 2), p, 2)
    assert crosses_at_least(identity(4), p, 0)


def test_mincross_agrees_with_predicate():
    for c in (2, 3):
        for level in range(0, c):
            for head in product((0, 1), repeat=c - 1 - level):
                p = LevelParams(c=c, m=1, level=level,
                                head_bits=head, tail_bits=(0,))
                full = enumerate_shuffles(p.sigma_tilde(), p.tau_tilde())
                assert mincross(p) == tuple(
                    t for t in full if crosses_at_least(t, p, level)
                )


def test_delta_trivial_when_block_separated():
    # E already keeps the merged middle blocks sorted: E^(2) = id
    p = LevelParams(c=2, m=1, level=1, head_bits=(), tail_bits=(1,))
    ac = anycross(p, primed=True)
    (f,) = mincross(p, primed=True)
    separated = [E for E in ac if E in set(anycross(p))]
    assert separated
    for E in separated:
        d = delta_decompose(E, f, p)
        assert d.outer == E
        assert d.inner == f


def test_delta_roundtrip_c2_m1():
    for level in (0, 1):
        for head in product((0, 1), repeat=1 - level):
            for tail in product((0, 1), repeat=1):
                p = LevelParams(c=2, m=1, level=level,
                                head_bits=head, tail_bits=tail)
                products = {}
                for E in anycross(p, primed=True):
                    for F in mincross(p, primed=True):
                        d = delta_decompose(E, F, p)
                        assert compose(d.outer, d.inner) == d.product == compose(E, F)
                        assert d.product not in products
                        products[d.product] = (E, F)


def test_delta_rejects_foreign_input():
    p = LevelParams(c=2, m=1, level=1, head_bits=(), tail_bits=(0,))
    with pytest.raises(ShuffleError):
        delta_decompose(identity(5), (2, 1, 3, 4, 5), p)


def test_delta_injective_and_exact_stratum():
    """delta is injective with image the exactly-i crossing stratum,
    exhaustively for c <= 3, m <= 2, every level and every bit choice."""
    for c in (1, 2, 3):
        for m in (0, 1, 2):
            for level in range(0, c):
                for head in product((0, 1), repeat=max(c - 1 - level, 0)):
                    for tail in product((0, 1), repeat=m):
                        p = LevelParams(c=c, m=m, level=level,
                                        head_bits=head, tail_bits=tail)
                        image = set()
                        seen_products = set()
                        for E in anycross(p, primed=True):
                            for F in mincross(p, primed=True):
                                d = delta_decompose(E, F, p)
                                assert d.product not in seen_products
                                seen_products.add(d.product)
                                image.add((d.outer, d.inner))
                        expected = {
                            (s, t)
                            for s in anycross(p)
                            for t in mincross(p)
                            if crosses_at_least(t, p, level)
                            and not crosses_at_least(t, p, level + 1)
                        }
                        assert image == expected


def test_composition_map_injective():
    """Anycross x Mincross -> S_{2c+m} is injective (both variants)."""
    for c in (1, 2, 3):
        for m in (0, 1, 2):
            for level in range(0, c):
                for head in product((0, 1), repeat=max(c - 1 - level, 0)):
                    for tail in product((0, 1), repeat=m):
                        p = LevelParams(c=c, m=m, level=level,
                                        head_bits=head, tail_bits=tail)
                        for primed in (False, True):
                            ac = anycross(p, primed)
                            mc = mincross(p, primed)
                            prods = {
                                compose(E, F) for E in ac for F in mc
                            }
                            assert len(prods) == len(ac) * len(mc)


def test_levelparams_validation():
    with pytest.raises(ShuffleError):
        LevelParams(c=2, m=1, level=3, head_bits=(), tail_bits=(0,))
    with pytest.raises(ShuffleError):
        LevelParams(c=3, m=1, level=0, head_bits=(0,), tail_bits=(0,))
    with pytest.raises(ShuffleError):
        LevelParams(c=2, m=2, level=0, head_bits=(0,), tail_bits=(0,))
