"""The strand-diagram rewriter: relations, confluence, decompositions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from nilschober.algebra import (
    AlgebraElement as A,
)
from nilschober.algebra import (
    AlgebraError,
    HPoly,
    NilCoxeterModule,
    TruncatedPolyModule,
    block_perms,
    flip_iso,
    generators,
    module_decompose,
    s_generators,
)
from nilschober.compositions import all_compositions, refines
from nilschober.expr import eval_string, format_element
from nilschober.linalg import is_zero_matrix, mat_eq, mat_mul, zeros
from nilschober.perms import compose, inversions, nil_product
from nilschober.shuffles import enumerate_shuffles

W = (3, 1, 2)  # the 3-cycle diagram of the NH_3 example, IX stacked on XI


def random_element(rng, n, max_tokens=3, max_dots=3, max_h=2):
    """A small random element built from generator products."""
    out = A.zero(n)
    for _ in range(rng.randint(1, 3)):
        term = A.unit(n).scale(rng.randint(-2, 2))
        dots = 0
        hs = 0
        for _ in range(rng.randint(0, max_tokens)):
            kind = rng.choice("sxh")
            if kind == "s":
                term = term * A.s_gen(n, rng.randint(1, n - 1))
            elif kind == "x" and dots < max_dots:
                term = term * A.x_gen(n, rng.randint(1, n))
                dots += 1
            elif kind == "h" and hs < max_h:
                term = term.scale_h()
                hs += 1
        out = out + term
    return out


def test_bigons_vanish():
    s1 = A.s_gen(2, 1)
    assert (s1 * s1).is_zero()


def test_dot_pass_relations():
    s1, x1, x2 = A.s_gen(2, 1), A.x_gen(2, 1), A.x_gen(2, 2)
    h = A.h_scalar(2)
    assert x1 * s1 - s1 * x2 == h
    assert s1 * x1 - x2 * s1 == h
    # the worked example s X_1 = X_2 s + h, s X_2 = X_1 s - h
    assert format_element(s1 * x1) == "X2*s1 + h"
    assert format_element(s1 * x2) == "X1*s1 - h"


def test_braid_relation():
    s1, s2 = A.s_gen(3, 1), A.s_gen(3, 2)
    assert s1 * s2 * s1 == s2 * s1 * s2


def test_unit_law():
    rng = random.Random(7)
    one = A.unit(3)
    for _ in range(20):
        x = random_element(rng, 3)
        assert one * x == x
        assert x * one == x


def test_h_is_central():
    rng = random.Random(11)
    for _ in range(20):
        x = random_element(rng, 3)
        assert x.scale_h() == A.h_scalar(3) * x == x * A.h_scalar(3)


def test_normal_form_word_examples():
    assert format_element(eval_string("s1*X1", (2,))) == "X2*s1 + h"
    assert eval_string("X1*s1", (2,)) == A.x_gen(2, 1) * A.s_gen(2, 1)
    assert format_element(eval_string("X1*s1", (2,))) == "X1*s1"


def test_generators_reject_bad_index():
    with pytest.raises(AlgebraError):
        A.s_gen(3, 4)
    with pytest.raises(AlgebraError):
        A.s_gen(3, 0)
    with pytest.raises(AlgebraError):
        A.x_gen(3, 0)
    with pytest.raises(AlgebraError):
        A.x_gen(3, 4)


def test_reduction_strategies_agree():
    rng = random.Random(23)
    n = 4
    for _ in range(120):
        word = []
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                word.append(A.s_gen(n, rng.randint(1, n - 1)))
            elif rng.random() < 0.8:
                word.append(A.x_gen(n, rng.randint(1, n)))
            else:
                word.append(A.h_scalar(n))
        left = word[0]
        for factor in word[1:]:
            left = left * factor
        right = word[-1]
        for factor in reversed(word[:-1]):
            right = factor * right
        assert left == right, [format_element(f) for f in word]


# the s_i inside the blocks of every composition with n <= 4
S_INDICES = {
    (1,): [], (2,): [1], (1, 1): [],
    (3,): [1, 2], (2, 1): [1], (1, 2): [2], (1, 1, 1): [],
    (4,): [1, 2, 3], (3, 1): [1, 2], (2, 2): [1, 3], (2, 1, 1): [1],
    (1, 3): [2, 3], (1, 2, 1): [2], (1, 1, 2): [3], (1, 1, 1, 1): [],
}


def test_generators_are_crossings_then_dots():
    assert sorted(S_INDICES) == sorted(
        c for n in range(1, 5) for c in all_compositions(n)
    )
    for block, s_indices in S_INDICES.items():
        n = sum(block)
        expected = [A.s_gen(n, i, block) for i in s_indices]
        expected += [A.x_gen(n, i, block) for i in range(1, n + 1)]
        got = generators(n, block)
        assert [(g.block, g.terms) for g in got] == [
            (g.block, g.terms) for g in expected
        ], block


def test_associativity_random_triples():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.choice((2, 3, 4))
        x, y, z = (random_element(rng, n) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_pure_crossing_nil_law_exhaustive_s4():
    for u in permutations(range(1, 5)):
        for v in permutations(range(1, 5)):
            prod = A.from_perm(u) * A.from_perm(v)
            w = compose(u, v)
            if inversions(w) == inversions(u) + inversions(v):
                assert prod == A.from_perm(w)
                assert nil_product(u, v) == w
            else:
                assert prod.is_zero()
                assert nil_product(u, v) is None



def test_module_decompose_nh3_basis():
    # NH_3 = III NH_{1,2} + XI NH_{1,2} + W NH_{1,2}
    assert enumerate_shuffles((3,), (1, 2)) == ((1, 2, 3), (2, 1, 3), W)
    rng = random.Random(3)
    seen = set()
    for _ in range(15):
        x = random_element(rng, 3)
        seen.update(module_decompose((3,), (1, 2), x))
    assert seen <= {(1, 2, 3), (2, 1, 3), W}


def test_module_decompose_identity():
    d = module_decompose((3,), (1, 2), A.unit(3))
    assert set(d) == {(1, 2, 3)}
    assert d[(1, 2, 3)] == A.unit(3, (1, 2))


def test_module_decompose_recombines():
    rng = random.Random(17)
    for _ in range(10):
        x = random_element(rng, 4)
        parts = module_decompose((4,), (2, 2), x)
        back = A.zero(4)
        for alpha, y in parts.items():
            back = back + A.from_perm(alpha) * y.in_block((4,))
        assert back.terms == x.terms


def test_module_decompose_rejects_non_refinement():
    with pytest.raises(AlgebraError):
        module_decompose((2, 2), (3, 1), A.unit(4, (2, 2)))


@pytest.mark.parametrize("n", range(2, 7))
def test_decomposition_basis_is_shuffle_set(n):
    """Decomposing the crossing basis of NH_sigma over NH_tau touches
    exactly the (sigma, tau)-shuffles."""
    from nilschober.compositions import all_compositions, refines

    for sigma in all_compositions(n):
        for tau in all_compositions(n):
            if not refines(sigma, tau) or sigma == tau:
                continue
            alphas = set()
            for w in block_perms(sigma):
                alphas.update(module_decompose(sigma, tau, A.from_perm(w, sigma)))
            assert alphas == set(enumerate_shuffles(sigma, tau))


def test_flip_on_generators():
    # psi(XI) = IX
    xi = A.s_gen(3, 1, (2, 1))
    assert flip_iso(xi) == A.s_gen(3, 2, (1, 2))
    # psi(ijk) = kij on dots-only diagrams
    x = A.x_gen(3, 1, (2, 1)) * A.x_gen(3, 2, (2, 1)).scale(1)
    dots = A(3, (2, 1), {((2, 1, 3), (1, 2, 3)): HPoly.const(1)})
    flipped = flip_iso(dots)
    assert list(flipped.terms) == [((3, 2, 1), (1, 2, 3))]


def test_flip_is_involution_and_algebra_map():
    rng = random.Random(29)
    for _ in range(15):
        x = random_element(rng, 3).in_block((3,))
        # restrict to the block algebra NH_{2,1}
        terms = {
            k: v
            for k, v in x.terms.items()
            if all(k[1][p] in (1, 2) for p in (0, 1))
        }
        x21 = A(3, (2, 1), terms)
        y21 = A.s_gen(3, 1, (2, 1)) * x21
        assert flip_iso(flip_iso(x21)) == x21
        assert flip_iso(x21 * y21) == flip_iso(x21) * flip_iso(y21)


def test_w_is_ix_stacked_on_xi():
    ix, xi = A.s_gen(3, 2), A.s_gen(3, 1)
    assert ix * xi == A.from_perm(W)


def test_flip_compatibility_with_w():
    """N * W == W * flip(N) for every dot-free basis N of NH_{2,1}."""
    w_elem = A.from_perm(W)
    for n_perm in block_perms((2, 1)):
        n_elem = A.from_perm(n_perm, (2, 1))
        lhs = n_elem.in_block((3,)) * w_elem
        rhs = w_elem * flip_iso(n_elem).in_block((3,))
        assert lhs == rhs, n_perm


def test_nilcoxeter_dimensions():
    assert NilCoxeterModule((1, 2)).dim == 2
    assert NilCoxeterModule((2, 3)).dim == 12


@pytest.mark.parametrize("tau", [(2,), (3,), (2, 2), (1, 3)])
def test_nilcoxeter_action_relations(tau):
    mod = NilCoxeterModule(tau)
    n = sum(tau)
    gens = {i: mod.act_matrix(A.s_gen(n, i, tau)) for i in s_generators(tau)}
    for i, m in gens.items():
        assert is_zero_matrix(mat_mul(m, m))
        if i + 1 in gens:
            m2 = gens[i + 1]
            # right-action matrices compose contravariantly
            lhs = mat_mul(m, mat_mul(m2, m))
            rhs = mat_mul(m2, mat_mul(m, m2))
            assert mat_eq(lhs, rhs)


def _block_preserving(n, tau):
    cuts = [sum(tau[:k]) for k in range(len(tau) + 1)]
    block = {p: k for k in range(len(tau)) for p in range(cuts[k] + 1, cuts[k + 1] + 1)}
    return sorted(
        w for w in permutations(range(1, n + 1))
        if all(block[w[p - 1]] == block[p] for p in range(1, n + 1))
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_nilcoxeter_entries_match_nil_product(n):
    """For every refinement sigma <= tau, elements of NH_tau act on the
    nil-Coxeter modules of sigma and tau exactly as the dense matrix built
    here from nil_product: e_u . w = e_{u w} when lengths add, dotted
    terms and h-multiples act by 0."""
    comps = all_compositions(n)
    for sigma in comps:
        for tau in comps:
            if not refines(sigma, tau):
                continue
            perms = _block_preserving(n, tau)
            mixed = A.zero(n, tau)
            for k, w in enumerate(perms):
                mixed = mixed + A.from_perm(w, tau).scale(k + 1)
            mixed = mixed + A.h_scalar(n, 1, tau) * A.from_perm(perms[-1], tau)
            mixed = mixed + A.x_gen(n, 1, tau) * A.from_perm(perms[-1], tau)
            elements = [A.s_gen(n, i, tau) for i in s_generators(tau)]
            elements += [A.x_gen(n, i, tau) for i in range(1, n + 1)]
            elements += [A.from_perm(w, tau) for w in perms] + [mixed]
            for rho in {sigma, tau}:
                mod = NilCoxeterModule(rho)
                basis = _block_preserving(n, rho)
                assert mod.basis == basis
                index = {u: i for i, u in enumerate(basis)}
                for x in elements:
                    dense = zeros(len(basis), len(basis))
                    for (dots, w), hp in x.terms.items():
                        if any(dots):
                            continue
                        for c, u in enumerate(basis):
                            img = nil_product(u, w)
                            if img is not None:
                                dense[index[img]][c] += hp.coeffs.get(0, 0)
                    expected = {
                        (r, c): v
                        for r, row in enumerate(dense)
                        for c, v in enumerate(row)
                        if v
                    }
                    assert mod.act_entries(x) == expected, (rho, tau, x)
                    assert mat_eq(mod.act_matrix(x), dense)


def test_truncated_module_sees_h():
    mod = TruncatedPolyModule((2,))
    n = 2
    x1s1 = A.x_gen(n, 1) * A.s_gen(n, 1)
    s1x2 = A.s_gen(n, 1) * A.x_gen(n, 2)
    h = A.h_scalar(n)
    lhs = mat_eq(
        mod.act_matrix(x1s1),
        [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(mod.act_matrix(s1x2), mod.act_matrix(h))
        ],
    )
    assert lhs  # X1 s1 = s1 X2 + h acts identically on the truncation
    assert not is_zero_matrix(mod.act_matrix(h))
    for x in (x1s1, s1x2, h):
        assert all(mod.act_entries(x).values())  # nonzero entries only


def test_hpoly_arithmetic():
    p = HPoly.const(2) + HPoly.h()
    q = HPoly.h() - HPoly.const(1)
    assert (p * q).coeffs == {0: -2, 1: 1, 2: 1}
    assert (p - p).is_zero()
    # cancelled terms are dropped and every result keeps Fraction values
    r = (HPoly.h() + HPoly.const(1)) * q
    assert r.coeffs == {0: -1, 2: 1}
    for x in (p + q, -p, p * q, r, p.shift(2), p.scale(Fraction(1, 2))):
        assert all(type(c) is Fraction and c for c in x.coeffs.values())
