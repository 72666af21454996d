"""The strand-diagram rewriter: relations, confluence, decompositions."""

import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest

from dense_matrices import is_zero_matrix, mat_eq
from nilschober.algebra import (
    AlgebraElement as A,
)
from nilschober.algebra import (
    AlgebraError,
    NilCoxeterModule,
    TruncatedPolyModule,
    block_perms,
    flip_iso,
    generators,
    module_decompose,
    s_generators,
)
from nilschober.compositions import all_compositions, refinement_pairs, refines
from nilschober.expr import eval_string, format_element
from nilschober.linalg import mat_mul, zeros
from nilschober.oracle import HomSpace
from nilschober.perms import adjacent_transposition, compose, inversions, nil_product
from nilschober.shuffles import enumerate_shuffles

W = (3, 1, 2)  # the 3-cycle diagram of the NH_3 example, IX stacked on XI


def scale_h(x, power=1):
    """x times h^power, as a shift of every term's h-power."""
    return A(x.n, x.block, {(e + power, k, w): c for (e, k, w), c in x.terms.items()})


def in_block(x, block):
    """x recast into NH_block, which must contain all its terms."""
    return A(x.n, block, x.terms)


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
                term = scale_h(term)
                hs += 1
        out = out + term
    return out


def test_bigons_vanish():
    s1 = A.s_gen(2, 1)
    assert s1 * s1 == A.zero(2)


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
        assert scale_h(x) == A.h_scalar(3) * x == x * A.h_scalar(3)


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
    """The crossings inside the blocks, then the dots, then h last."""
    assert sorted(S_INDICES) == sorted(
        c for n in range(1, 5) for c in all_compositions(n)
    )
    for block, s_indices in S_INDICES.items():
        n = sum(block)
        expected = [A.s_gen(n, i, block) for i in s_indices]
        expected += [A.x_gen(n, i, block) for i in range(1, n + 1)]
        expected += [A.h_scalar(n, 1, block)]
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
                assert prod == A.zero(4)
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
            back = back + A.from_perm(alpha) * in_block(y, (4,))
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
    dots = A(3, (2, 1), {(0, (2, 1, 3), (1, 2, 3)): 1})
    flipped = flip_iso(dots)
    assert list(flipped.terms) == [(0, (3, 2, 1), (1, 2, 3))]


def test_flip_is_involution_and_algebra_map():
    rng = random.Random(29)
    for _ in range(15):
        x = in_block(random_element(rng, 3), (3,))
        # restrict to the block algebra NH_{2,1}
        terms = {
            k: v
            for k, v in x.terms.items()
            if all(k[2][p] in (1, 2) for p in (0, 1))
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
        lhs = in_block(n_elem, (3,)) * w_elem
        rhs = w_elem * in_block(flip_iso(n_elem), (3,))
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


@pytest.mark.parametrize("n", range(2, 7))
def test_simple_crossing_cells_match_nil_product(n):
    """The descent test of `_action_cells` gives, for every s_i and every
    tau of n strands, the cells that nil_product gives: (row of u o s_i,
    col of u) for each basis u whose lengths add with s_i.  A crossing
    across two blocks leaves the basis and raises on both sides."""
    for tau in all_compositions(n):
        mod = NilCoxeterModule(tau)
        for i in range(1, n):
            s_i = adjacent_transposition(n, i)
            try:
                want = [
                    (mod.index[img], c)
                    for c, u in enumerate(mod.basis)
                    if (img := nil_product(u, s_i)) is not None
                ]
            except KeyError:
                with pytest.raises(AlgebraError, match="leaves the module basis"):
                    mod._action_cells(s_i)
            else:
                assert mod._action_cells(s_i) == want, (tau, i)


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
                    for (e, dots, w), coeff in x.terms.items():
                        if e or any(dots):
                            continue
                        for c, u in enumerate(basis):
                            img = nil_product(u, w)
                            if img is not None:
                                dense[index[img]][c] += coeff
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


def test_h_polynomial_arithmetic():
    one, h = A.unit(2), A.h_scalar(2)
    p = one.scale(2) + h
    q = h - one

    def h_power(e):
        return (e, (0, 0), (1, 2))

    assert (p * q).terms == {h_power(0): -2, h_power(1): 1, h_power(2): 1}
    assert p - p == A.zero(2)
    # cancelled terms are dropped and every result keeps Fraction values
    r = (h + one) * q
    assert r.terms == {h_power(0): -1, h_power(2): 1}
    for x in (p + q, -p, p * q, r, scale_h(p, 2), p.scale(Fraction(1, 2))):
        assert all(type(c) is Fraction and c for c in x.terms.values())


@pytest.mark.parametrize(
    "key",
    [
        (-1, (0, 0), (1, 2)),
        ((0, 0), (1, 2)),
        (0, (0, 0), (1, 2), 0),
        (0, (0,), (1, 2)),
        (0, (0, 0), (1, 2, 3)),
        (0, (0, -1), (1, 2)),
    ],
    ids=[
        "negative h-power", "no h-power", "extra part", "short dots",
        "long permutation", "negative dot",
    ],
)
def test_element_rejects_malformed_keys(key):
    with pytest.raises(AlgebraError, match="malformed term"):
        A(2, (2,), {key: 1})


def _random_block_element(rng, n, block):
    """A small random element of NH_block with rational coefficients."""
    out = A.zero(n, block)
    for _ in range(rng.randint(1, 3)):
        term = A.unit(n, block).scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice("sxh")
            if kind == "s" and s_generators(block):
                term = term * A.s_gen(n, rng.choice(s_generators(block)), block)
            elif kind == "x":
                term = term * A.x_gen(n, rng.randint(1, n), block)
            elif kind == "h":
                term = scale_h(term)
        out = out + term
    return out


def test_printed_products_and_decompositions_are_pinned():
    """The printed normal forms of fixed-seed random products in NH_sigma
    and of their pieces over NH_tau, for every sigma <= tau with n <= 4,
    hash to the digest printed when coefficients were nested polynomials
    in h under (dots, w) keys."""
    rng = random.Random(17)
    lines = []
    for n in (2, 3, 4):
        for sigma, tau in refinement_pairs(n):
            for _ in range(3):
                x = _random_block_element(rng, n, sigma) * _random_block_element(
                    rng, n, sigma
                )
                lines.append(format_element(x))
                for alpha, y in module_decompose(sigma, tau, x).items():
                    lines.append(f"{alpha} {format_element(y)}")
    assert len(lines) == 248
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "344f55fd9bf267b81b70e04e679396cea67ca718f037058d74c455799ddc291e"
    )


def _product(a, b):
    """The entries of the matrix product a b of two entry maps."""
    rows_b = {}
    for (k, c), v in b.items():
        rows_b.setdefault(k, []).append((c, v))
    out = {}
    for (r, k), u in a.items():
        for c, v in rows_b.get(k, ()):
            out[r, c] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


def _difference(a, b):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def _assert_module_axioms(act, n, block):
    """The defining relations of NH_block hold for the right action `act`
    (element -> entries), read through act(xy) = act(y) act(x)."""
    s = {i: act(A.s_gen(n, i, block)) for i in s_generators(block)}
    x = {i: act(A.x_gen(n, i, block)) for i in range(1, n + 1)}
    h = act(A.h_scalar(n, 1, block))

    def word(*actions):
        out = actions[0]
        for a in actions[1:]:
            out = _product(a, out)
        return out

    for i, si in s.items():
        assert word(si, si) == {}, ("bigon", i)
        for j, sj in s.items():
            if j == i + 1:
                assert word(si, sj, si) == word(sj, si, sj), ("braid", i)
            elif j > i + 1:
                assert word(si, sj) == word(sj, si), ("far", i, j)
        assert _difference(word(x[i], si), word(si, x[i + 1])) == h, ("Xs", i)
        assert _difference(word(si, x[i]), word(x[i + 1], si)) == h, ("sX", i)
    for i, xi in x.items():
        for j, xj in x.items():
            assert word(xi, xj) == word(xj, xi), ("dots", i, j)
        for j, sj in s.items():
            if i not in (j, j + 1):
                assert word(xi, sj) == word(sj, xi), ("dot past crossing", i, j)
    for g in [*s.values(), *x.values()]:
        assert word(h, g) == word(g, h), "h is not central"


@pytest.mark.parametrize("module", [NilCoxeterModule, TruncatedPolyModule])
@pytest.mark.parametrize("n", range(1, 5))
def test_modules_satisfy_the_relations(module, n):
    """NilCoxeterModule and TruncatedPolyModule are NH_tau-modules for every
    tau with n <= 4: the generator actions satisfy the defining relations."""
    for tau in all_compositions(n):
        _assert_module_axioms(module(tau).act_entries, n, tau)


@pytest.mark.parametrize("module", [NilCoxeterModule, TruncatedPolyModule])
@pytest.mark.parametrize("n", range(1, 4))
def test_hom_spaces_satisfy_the_relations(module, n):
    """The induced modules Hom_{NH_tau}(NH_sigma, N) are NH_sigma-modules
    for every sigma <= tau with n <= 3, on either coefficient module."""
    for sigma, tau in refinement_pairs(n):
        space = HomSpace(sigma, tau, module(tau))
        _assert_module_axioms(space.action_entries, n, sigma)
