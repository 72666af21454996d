"""Compositions, binary presentations and the nine-case pair table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilschober.compositions import (
    _TAGS,
    CompositionError,
    PairCase,
    all_compositions,
    blocks,
    classify_pair,
    meet,
    mirror_pair,
    parse_composition,
    psi,
    psi_inv,
    refinement_pairs,
    refines,
    total,
)


def brute_refines(sigma, tau):
    """Independent oracle: tau refines sigma iff sigma's parts split into
    consecutive runs of tau's parts."""
    it = iter(tau)
    for part in sigma:
        acc = 0
        while acc < part:
            try:
                acc += next(it)
            except StopIteration:
                return False
        if acc != part:
            return False
    return next(it, None) is None


def test_psi_worked_values():
    assert psi((3, 5)) == "0010000"
    assert psi((3, 5, 5, 3)) == "001000010000100"


def test_psi_trivial_values():
    assert psi((6,)) == "00000"
    assert psi((1, 1, 1)) == "11"
    assert psi((1,)) == ""


def test_psi_inv_examples():
    assert psi_inv("0010000") == (3, 5)
    # psi^{-1}(0^{c-1} 1 0^{c-1} 0 0^{m-1}) = (c, c+m) at c=2, m=1
    assert psi_inv("0100") == (2, 3)
    assert psi_inv("") == (1,)


def test_psi_rejects_bad_parts():
    with pytest.raises(CompositionError):
        psi((2, 0, 1))
    with pytest.raises(CompositionError):
        psi(())


@pytest.mark.parametrize("n", range(1, 9))
def test_psi_bijective(n):
    comps = all_compositions(n)
    assert len(comps) == 2 ** (n - 1)
    images = {psi(c) for c in comps}
    assert len(images) == len(comps)
    for c in comps:
        assert psi_inv(psi(c)) == c


@pytest.mark.parametrize("n", range(1, 7))
def test_refines_is_bitwise_dominance(n):
    comps = all_compositions(n)
    for sigma in comps:
        for tau in comps:
            assert refines(sigma, tau) == brute_refines(sigma, tau)


@pytest.mark.parametrize("n", range(1, 11))
def test_refinement_pairs_is_the_double_loop(n):
    comps = all_compositions(n)
    brute = [
        (sigma, tau)
        for sigma in comps
        for tau in comps
        if brute_refines(sigma, tau)
    ]
    assert refinement_pairs(n) == brute
    assert len(brute) == 3 ** (n - 1)  # each gap: cut in both, tau only, neither


def test_refines_examples():
    assert refines((5,), (2, 3))
    assert refines((2, 3), (2, 3))
    assert not refines((2, 3), (3, 2))


def test_refines_rejects_unequal_totals():
    with pytest.raises(CompositionError, match="different totals"):
        refines((2, 3), (2, 2))
    with pytest.raises(CompositionError, match="different totals"):
        refines((1,), ())


@pytest.mark.parametrize(
    "sigma, tau", [((2, 0, 1), (3,)), ((3,), (2, 0, 1)), ((-1, 2), (1,))]
)
def test_refines_rejects_non_positive_parts(sigma, tau):
    with pytest.raises(CompositionError, match="positive"):
        refines(sigma, tau)


def test_refines_rejects_empty_compositions():
    with pytest.raises(CompositionError, match="empty"):
        refines((), ())


@pytest.mark.parametrize("n", range(1, 9))
def test_palindrome_reflection(n):
    for c in all_compositions(n):
        assert (c == c[::-1]) == (psi(c) == psi(c)[::-1])


def test_blocks():
    assert blocks((6, 3)) == [(1, 6), (7, 9)]
    assert blocks((3, 1, 2, 2, 1)) == [(1, 3), (4, 4), (5, 6), (7, 8), (9, 9)]
    assert blocks((1,)) == [(1, 1)]


def test_meet():
    assert meet((2, 3), (4, 1)) == (5,)
    assert meet((1, 1, 3), (1, 2, 2)) == (1, 4)


def test_classify_examples():
    case = classify_pair((2, 3), (2, 3))
    assert case.tag == "AC_Unbal" and case["c"] == 2 and case["m"] == 1
    case = classify_pair((2, 2), (2, 2))
    assert case.tag == "AA" and case["a"] == 2
    case = classify_pair((3, 1), (1, 3))
    assert case.tag == "Swap" and case["c"] == 1 and case["l"] == 2


def test_classify_rejects():
    with pytest.raises(CompositionError):
        classify_pair((1, 1, 1), (2, 1))
    with pytest.raises(CompositionError):
        classify_pair((1, 2), (2, 2))


def reconstruct_pair(case: PairCase):
    """The pair a case came from; inverse of `classify_pair`."""
    tag = case.tag.removeprefix("Mirror")
    signs = [sign for (_, sign), t in _TAGS.items() if t == tag]
    if not signs:
        raise CompositionError(f"unknown case tag {case.tag!r}")
    p = dict(case.params)
    k, m, l = case.params[0][1], signs[0] * p.get("m", 0), p.get("l", 0)
    c = k - min(m, 0)
    pair = ((c + l, c + m), (c, c + m + l))
    return mirror_pair(pair) if case.mirrored else pair


@pytest.mark.parametrize("n", range(2, 41))
def test_classify_total_and_reconstructs(n):
    comps = [(a, n - a) for a in range(1, n)]
    for ab in comps:
        for cd in comps:
            case = classify_pair(ab, cd)
            assert reconstruct_pair(case) == (ab, cd)
            assert case.mirrored == (ab[0] < cd[0])


def test_mirror_pair():
    assert mirror_pair(((1, 2), (2, 1))) == ((2, 1), (1, 2))
    assert mirror_pair(((1, 3), (2, 2))) == ((3, 1), (2, 2))


def test_parse_composition():
    assert parse_composition("2,3") == (2, 3)
    with pytest.raises(CompositionError):
        parse_composition("2,x")
    with pytest.raises(CompositionError):
        parse_composition("0,3")


compositions = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=7
).map(tuple)


@given(compositions)
def test_psi_roundtrip_property(sigma):
    assert psi_inv(psi(sigma)) == sigma


@given(compositions, compositions)
def test_meet_is_common_coarsening(sigma, tau):
    if total(sigma) != total(tau):
        return
    m = meet(sigma, tau)
    assert refines(m, sigma) and refines(m, tau)
