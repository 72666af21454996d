"""Acceptance criteria, one test per criterion, all exact.

Each test prints one PASS line on success (run with `pytest -s` or `-rA`
to see them); any assertion failure marks the criterion failed.
"""

import random
import time
from itertools import permutations as all_perms
from itertools import product
from math import comb

from level_model import (
    LevelParams,
    anycross,
    crosses_at_least,
    delta_decompose,
    level_codes,
    mincross,
)
from nilschober.algebra import (
    AlgebraElement as A,
)
from nilschober.algebra import (
    NilCoxeterModule,
    block_perms,
    flip_iso,
)
from nilschober.compositions import all_compositions, psi, psi_inv, refines
from nilschober.cubes import bc_vertex, build_bifactorization
from nilschober.fiber import (
    check_far_commutativity,
    check_recursiveness,
    is_twist_pair,
    total_fiber,
)
from nilschober.oracle import (
    check_adjunction,
    check_bicartesian,
    flip_action_check,
    oracle_matches_diagram,
)
from nilschober.perms import block_cross, compose, inversions
from nilschober.report import two_part_pairs
from nilschober.shuffles import enumerate_shuffles, shuffle_count

W = (3, 1, 2)


def _passed(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_rank_table_reproduction():
    """((2,3),(2,3)) reproduces the worked rank tables exactly, in under 1s."""
    t0 = time.perf_counter()
    rep = total_fiber(((2, 3), (2, 3)))
    elapsed = time.perf_counter() - t0
    tables = {level: dict(entries) for level, entries in rep.level_table()}
    assert tables[3] == {
        (0, 0, 0): 10, (1, 0, 0): 12, (0, 1, 0): 18, (1, 1, 0): 24,
        (0, 0, 1): 1, (1, 0, 1): 6, (0, 1, 1): 3, (1, 1, 1): 12,
    }
    assert tables[2] == {(0, 0): 9, (1, 0): 6, (0, 1): 15, (1, 1): 12}
    assert tables[1] == {(0,): 3, (1,): 3}
    assert tables[0] == {(): 0}
    assert rep.verdict == "Vanishes"
    assert elapsed < 1.0
    _passed(1, f"rank tables 10/12/18/24, 1/6/3/12, 9/6/15/12, 3/3, 0 "
               f"({elapsed:.3f}s)")


def test_criterion_2_defect_vanishing_sweep():
    """Every non-twist pair with n+1 <= 6 vanishes; under 2 minutes."""
    t0 = time.perf_counter()
    count = 0
    for n in range(2, 7):
        for pair in two_part_pairs(n):
            if is_twist_pair(pair):
                continue
            assert total_fiber(pair).verdict == "Vanishes", pair
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(2, f"defect vanishing on {count} pairs up to 6 strands "
               f"({elapsed:.2f}s)")


def test_criterion_3_twist_invertibility_sweep():
    """Twist pairs give FlipEquivalence with the documented crossing; the
    flip action check passes on nil-Coxeter modules for n+1 <= 4."""
    count = flips = 0
    for n in range(2, 7):
        for pair in two_part_pairs(n):
            if not is_twist_pair(pair):
                continue
            rep = total_fiber(pair)
            assert rep.verdict == "FlipEquivalence", pair
            assert rep.residual == (block_cross(*pair[0]),), pair
            count += 1
            if n <= 4:
                assert flip_action_check(pair), pair
                flips += 1
    _passed(3, f"twist invertibility on {count} pairs, flip action on "
               f"{flips} pairs")


def test_criterion_4_oracle_equivalence():
    """Matrix fiber dimensions equal diagram rank x dim(T) for n+1 <= 4,
    in under a minute."""
    t0 = time.perf_counter()
    count = 0
    for n in range(2, 5):
        for pair in two_part_pairs(n):
            assert oracle_matches_diagram(pair), pair
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(4, f"oracle equivalence on {count} pairs ({elapsed:.2f}s)")


def _oracle_sweep(n):
    """Runs the oracle on every pair at n strands and the flip check on
    every twist pair; returns the two counts."""
    pairs = twists = 0
    for pair in two_part_pairs(n):
        assert oracle_matches_diagram(pair), pair
        pairs += 1
        if is_twist_pair(pair):
            assert flip_action_check(pair), pair
            twists += 1
    return pairs, twists


def test_criterion_4_oracle_equivalence_five_strands():
    """The engine and the matrix oracle agree on all 16 pairs at
    5 strands, and the four twist pairs carry the flip action."""
    assert _oracle_sweep(5) == (16, 4)
    _passed(4, "oracle equivalence on 16 pairs at 5 strands, flip action "
               "on 4 twist pairs")


def test_criterion_4_oracle_equivalence_six_strands():
    """The same at 6 strands: 25 pairs and 5 twist pairs."""
    assert _oracle_sweep(6) == (25, 5)
    _passed(4, "oracle equivalence on 25 pairs at 6 strands, flip action "
               "on 5 twist pairs")


def test_criterion_5_nh3_example_suite():
    """BC words match H I*, G* F, II*, Id; the square is bicartesian with
    the documented top map; the swap kernel is the flip module."""
    swap = build_bifactorization(((1, 2), (2, 1)))
    assert bc_vertex(swap, (), 0).word.rows == (
        (1, 2), (1, 2), (3,), (2, 1), (2, 1),
    )  # = H I*
    assert bc_vertex(swap, (), 1).word.rows == (
        (1, 2), (1, 2), (1, 1, 1), (2, 1), (2, 1),
    )  # = G* F
    ac = build_bifactorization(((1, 2), (1, 2)))
    assert bc_vertex(ac, (0,), 0).word.rows == (
        (1, 2), (1, 2), (3,), (1, 2), (1, 2),
    )  # = II*
    assert bc_vertex(ac, (0,), 1).word.rows == ((1, 2),) * 5  # = Id

    # bicartesian with top map (A, B, C) -> (A, A.IX, B, C)
    from fractions import Fraction

    from nilschober.linalg import mat_eq, zeros
    from nilschober.oracle import RealizedVertex, realize_map

    mod = NilCoxeterModule((1, 2))
    t = mod.dim
    v_a = RealizedVertex(bc_vertex(ac, (0,), 0), mod)
    v_b = RealizedVertex(bc_vertex(ac, (1,), 0), mod)
    top = realize_map(v_a, v_b)
    r_ix = mod.act_matrix(A.s_gen(3, 2, (1, 2)))
    expected = zeros(4 * t, 3 * t)
    for r in range(t):
        expected[r][r] = Fraction(1)
        expected[2 * t + r][t + r] = Fraction(1)
        expected[3 * t + r][2 * t + r] = Fraction(1)
        for c in range(t):
            expected[t + r][c] = r_ix[r][c]
    assert mat_eq(top, expected)
    assert check_bicartesian()

    # the ((1,2),(2,1)) kernel is T twisted by the flip
    assert flip_action_check(((1, 2), (2, 1)))
    _passed(5, "NH_3 words, bicartesian square, flip kernel")


def test_criterion_6_algebra_property_suite():
    """Associativity on 500 random triples; the defining relations; the
    nil law on all of S_4; N.W = W.flip(N) for dot-free N."""
    rng = random.Random(20260810)

    def random_element(n):
        out = A.zero(n)
        for _ in range(rng.randint(1, 3)):
            term = A.unit(n).scale(rng.randint(-2, 2))
            dots = hs = 0
            for _ in range(rng.randint(0, 4)):
                kind = rng.choice("sxh")
                if kind == "s":
                    term = term * A.s_gen(n, rng.randint(1, n - 1))
                elif kind == "x" and dots < 3:
                    term = term * A.x_gen(n, rng.randint(1, n))
                    dots += 1
                elif kind == "h" and hs < 2:
                    term = term * A.h_scalar(n)
                    hs += 1
            out = out + term
        return out

    for _ in range(500):
        n = rng.choice((2, 3, 4))
        x, y, z = (random_element(n) for _ in range(3))
        assert (x * y) * z == x * (y * z)

    s1, x1, x2, h = (
        A.s_gen(2, 1), A.x_gen(2, 1), A.x_gen(2, 2), A.h_scalar(2),
    )
    assert s1 * s1 == A.zero(2)
    assert x1 * s1 - s1 * x2 == h
    assert s1 * x1 - x2 * s1 == h
    s1_3, s2_3 = A.s_gen(3, 1), A.s_gen(3, 2)
    assert s1_3 * s2_3 * s1_3 == s2_3 * s1_3 * s2_3

    for u in all_perms(range(1, 5)):
        for v in all_perms(range(1, 5)):
            prod = A.from_perm(u) * A.from_perm(v)
            w = compose(u, v)
            if inversions(w) == inversions(u) + inversions(v):
                assert prod == A.from_perm(w)
            else:
                assert prod == A.zero(4)

    w_elem = A.from_perm(W)
    for n_perm in block_perms((2, 1)):
        n_elem = A.from_perm(n_perm, (2, 1))
        # both sides recast into NH_3, where W lives
        lhs = A(3, (3,), n_elem.terms) * w_elem
        assert lhs == w_elem * A(3, (3,), flip_iso(n_elem).terms)
    _passed(6, "500 associativity triples, relations, S_4 nil law, "
               "flip compatibility")


def test_criterion_7_combinatorics_suite():
    """psi bijective and order-isomorphic up to n = 6; shuffle counts are
    multinomial up to 7 strands; delta injective with the exact stratum
    image for c <= 3, m <= 2."""
    for n in range(1, 7):
        comps = all_compositions(n)
        assert len({psi(c) for c in comps}) == 2 ** (n - 1)
        for c in comps:
            assert psi_inv(psi(c)) == c
        for sigma in comps:
            for tau in comps:
                dominated = all(
                    a <= b for a, b in zip(psi(sigma), psi(tau))
                )
                assert refines(sigma, tau) == dominated

    for n in range(2, 8):
        for sigma in all_compositions(n):
            for tau in all_compositions(n):
                if refines(sigma, tau):
                    assert len(enumerate_shuffles(sigma, tau)) == (
                        shuffle_count(sigma, tau)
                    )

    pairs_checked = 0
    for c in (1, 2, 3):
        for m in (0, 1, 2):
            for level in range(0, c):
                for head in product((0, 1), repeat=max(c - 1 - level, 0)):
                    for tail in product((0, 1), repeat=m):
                        p = LevelParams(c=c, m=m, level=level,
                                        head_bits=head, tail_bits=tail)
                        image = set()
                        seen = set()
                        for e in anycross(p, primed=True):
                            for f in mincross(p, primed=True):
                                d = delta_decompose(e, f, p)
                                assert d.product not in seen
                                seen.add(d.product)
                                image.add((d.outer, d.inner))
                                pairs_checked += 1
                        expected = {
                            (s, t)
                            for s in anycross(p)
                            for t in mincross(p)
                            if crosses_at_least(t, p, level)
                            and not crosses_at_least(t, p, level + 1)
                        }
                        assert image == expected
    _passed(7, f"psi bijection/order, multinomial counts, delta on "
               f"{pairs_checked} pairs")


def test_criterion_8_structural_axioms():
    """Adjunction for n+1 <= 4, far-commutativity for n+1 <= 5,
    recursiveness for n+1 <= 5, all exact."""
    adj = 0
    for n in range(2, 5):
        for sigma in all_compositions(n):
            for tau in all_compositions(n):
                if refines(sigma, tau):
                    assert check_adjunction(sigma, tau), (sigma, tau)
                    adj += 1
    far = 0
    for n in range(2, 6):
        for a in range(1, n):
            b = n - a
            for c0 in all_compositions(a):
                for c1 in all_compositions(a):
                    if not refines(c0, c1):
                        continue
                    for d0 in all_compositions(b):
                        for d1 in all_compositions(b):
                            if not refines(d0, d1):
                                continue
                            assert check_far_commutativity(
                                (a, b), c0, c1, d0, d1
                            )
                            far += 1
    rec = 0
    for n in range(2, 6):
        for comp in all_compositions(n):
            for i in range(1, len(comp) + 1):
                assert check_recursiveness(n, comp, i)
                rec += 1
    _passed(8, f"adjunction x{adj}, far-commutativity x{far}, "
               f"recursiveness x{rec}")


def test_criterion_3_terminal_identification():
    """Companion check: the terminal Anycross x Mincross set is the
    engine's level-c set at every index, eta bits included, and is
    identified with S_{(c+m),(c,m)} for the AC family (cardinalities)."""
    for c, m in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        terminal = total_fiber(((c, c + m), (c, c + m))).levels[c]
        assert terminal.level == m and len(terminal.codes) == 2**m
        for tail, codes in terminal.codes.items():
            p = LevelParams(c=c, m=m, level=c, head_bits=(), tail_bits=tail)
            assert level_codes(p) == codes, (c, m, tail)
            assert len(codes) == comb(c + m, c)
