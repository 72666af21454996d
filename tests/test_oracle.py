"""The exact-matrix oracle: realized edges, kernels, adjunctions."""

import hashlib
import random
from copy import copy
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct

import pytest

from level_model import reverse_conjugate
from nilschober import oracle
from nilschober.algebra import (
    AlgebraElement,
    NilCoxeterModule,
    TruncatedPolyModule,
    generators,
    module_decompose,
    s_generators,
)
from nilschober.cli import main
from nilschober.compositions import all_compositions, refinement_pairs, refines
from nilschober.cubes import bc_vertex, build_bifactorization
from nilschober.fiber import collapse_order, total_fiber
from nilschober.linalg import (
    LinAlgError,
    SparseMatrix,
    from_entries,
    identity_matrix,
    mat_eq,
    mat_mul,
    nullspace,
    rank,
    solve_matrix,
    sparse_mul,
    sparse_nullspace,
    sparse_rank,
    sparse_solve,
    zeros,
)
from nilschober.oracle import (
    HomSpace,
    OracleError,
    RealizedVertex,
    _adjunction_ranks,
    check_adjunction,
    check_bicartesian,
    flip_action_check,
    oracle_matches_diagram,
    realize_entries,
    realize_map,
    realized_total_fiber,
    spin_hom,
)
from nilschober.perms import compose
from nilschober.report import build_report, report_ok, to_json, two_part_pairs
from nilschober.shuffles import enumerate_shuffles


def realize_edge(top, bottom, module):
    """The dense realized map between two layer-adjacent vertices, the
    collapse edges of the fiber iteration."""
    if top.index[:-1] != bottom.index[:-1] or top.index[-1] != 0:
        raise OracleError("realize_edge expects layer-adjacent vertices")
    return realize_map(RealizedVertex(top, module), RealizedVertex(bottom, module))


def test_realized_edge_nh3_is_restriction():
    """The ((1,2),(2,1)) layer edge restricts phi from {III, XI, W} to
    {III, XI}: a coordinate projection killing the W block."""
    cube = build_bifactorization(((1, 2), (2, 1)))
    top = bc_vertex(cube, (), 0)
    bottom = bc_vertex(cube, (), 1)
    mod = NilCoxeterModule((1, 2))
    m = realize_edge(top, bottom, mod)
    t = mod.dim
    assert len(m) == 2 * t and len(m[0]) == 3 * t
    expected = zeros(2 * t, 3 * t)
    for b in range(2):  # III, XI blocks pass through
        for r in range(t):
            expected[b * t + r][b * t + r] = Fraction(1)
    assert mat_eq(m, expected)


def test_realize_edge_validates_adjacency():
    cube = build_bifactorization(((1, 2), (1, 2)))
    a = bc_vertex(cube, (0,), 0)
    b = bc_vertex(cube, (1,), 0)
    with pytest.raises(OracleError):
        realize_edge(a, b, NilCoxeterModule((1, 2)))


def test_identity_word_edge_is_identity():
    cube = build_bifactorization(((1, 2), (1, 2)))
    ident = bc_vertex(cube, (0,), 1)  # the Id functor word
    mod = NilCoxeterModule((1, 2))
    v = RealizedVertex(ident, mod)
    assert mat_eq(realize_map(v, v), identity_matrix(v.dim))


class _ZeroModule:
    """The zero coefficient module: every space collapses."""

    tau = (1, 2)
    dim = 0

    def act_entries(self, x):
        return {}


def test_bicartesian_square_and_negative_control(monkeypatch):
    """Zeroing the A.IX rows of the top map (and no other map) breaks the
    square, the negative control from the worked example."""
    assert check_bicartesian()
    assert check_bicartesian(_ZeroModule())
    real = oracle.realize_entries
    sabotaged = []

    def top_without_ix(src, dst):
        entries = real(src, dst)
        if (src.vertex.index, dst.vertex.index) == ((0, 0), (1, 0)):
            t = dst.module.dim
            ix_row = dst.block_index[(1, 3, 2)] * t
            entries = {
                (r, c): v for (r, c), v in entries.items()
                if not ix_row <= r < ix_row + t
            }
            sabotaged.append(src.vertex.index)
        return entries

    monkeypatch.setattr(oracle, "realize_entries", top_without_ix)
    assert not check_bicartesian()
    assert sabotaged == [(0, 0)]


def test_bicartesian_top_map_structure():
    """(A, B, C) -> (A, A.IX, B, C) in the product-diagram coordinates."""
    mod = NilCoxeterModule((1, 2))
    t = mod.dim
    spec = build_bifactorization(((1, 2), (1, 2)))
    v_a = RealizedVertex(bc_vertex(spec, (0,), 0), mod)
    v_b = RealizedVertex(bc_vertex(spec, (1,), 0), mod)
    assert v_a.products == ((1, 2, 3), (2, 1, 3), (3, 1, 2))  # III, XI, W
    assert v_b.products == ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2))
    top = realize_map(v_a, v_b)
    from nilschober.algebra import AlgebraElement

    r_ix = mod.act_matrix(AlgebraElement.s_gen(3, 2, (1, 2)))
    expected = zeros(4 * t, 3 * t)
    for r in range(t):
        expected[0 * t + r][0 * t + r] = Fraction(1)  # A -> A
        expected[2 * t + r][1 * t + r] = Fraction(1)  # B -> B
        expected[3 * t + r][2 * t + r] = Fraction(1)  # C -> C
        for c in range(t):
            expected[1 * t + r][0 * t + c] = r_ix[r][c]  # A -> A.IX
    assert mat_eq(top, expected)


@pytest.mark.parametrize("n", range(2, 5))
def test_oracle_matches_diagram_model(n):
    for pair in two_part_pairs(n):
        assert oracle_matches_diagram(pair), pair


def test_oracle_fiber_dimension_examples():
    mod = NilCoxeterModule((2, 3))
    fib = realized_total_fiber(((2, 3), (2, 3)), mod)
    assert fib.split_surjective
    assert fib.kernel.cols == 0
    mod2 = NilCoxeterModule((2, 2))
    fib2 = realized_total_fiber(((2, 2), (2, 2)), mod2)
    assert fib2.kernel.cols == mod2.dim  # the twist fiber is a copy of T


def test_truncated_module_oracle_spot_check():
    """h-sensitive coefficients do not disturb the fiber ranks."""
    for pair in [((1, 1), (1, 1)), ((1, 2), (2, 1)), ((1, 2), (1, 2))]:
        mod = TruncatedPolyModule(pair[0])
        report = total_fiber(pair)
        realized = realized_total_fiber(pair, mod)
        for cube, dims in zip(report.levels, realized.level_dims):
            for index, dset in cube.vertex_sets.items():
                assert dims[index] == len(dset) * mod.dim
        assert realized.split_surjective


def test_flip_action_checks():
    assert flip_action_check(((1, 2), (2, 1)))
    assert flip_action_check(((1, 1), (1, 1)))
    assert flip_action_check(((2, 1), (1, 2)))
    with pytest.raises(OracleError):
        flip_action_check(((1, 2), (1, 2)))


def mirror_iso(x: AlgebraElement) -> AlgebraElement:
    """Conjugation by the order-reversing permutation (left-right mirror)."""
    n = x.n
    out: dict = {}
    for (e, dots, w), c in x.terms.items():
        out[(e, tuple(reversed(dots)), reverse_conjugate(w))] = c
    return AlgebraElement(n, tuple(reversed(x.block)), out)


def test_flip_action_negative_control(monkeypatch):
    """The mirror map differs from the flip on crossings for (1,3)/(3,1)
    and must fail the kernel-action comparison."""
    assert flip_action_check(((1, 3), (3, 1)))
    monkeypatch.setattr(oracle, "flip_iso", mirror_iso)
    assert not flip_action_check(((1, 3), (3, 1)))


def test_report_realizes_each_pair_once(monkeypatch):
    """build_report hands one realized fiber per pair to both the flip
    check and the oracle comparison; the JSON keeps the digest it had when
    each check realized the fiber on its own."""
    calls = []
    real = oracle.realized_total_fiber

    def counted(pair, module=None):
        calls.append(pair)
        return real(pair, module)

    monkeypatch.setattr(oracle, "realized_total_fiber", counted)
    doc = to_json(build_report(4))
    assert sorted(calls) == sorted(two_part_pairs(4))
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "677810e3cf2ca1e56db5bd2f5307ef171f573ef24828b293717ca36049bd0e64"
    )


def test_fiber_arguments_are_checked():
    """Fibers given for another pair, or a realized fiber on another
    module, are refused rather than compared."""
    twist, other = ((1, 2), (2, 1)), ((1, 2), (1, 2))
    realized = realized_total_fiber(twist)
    assert oracle_matches_diagram(twist, realized=realized, report=total_fiber(twist))
    assert flip_action_check(twist, realized=realized)
    with pytest.raises(OracleError):
        oracle_matches_diagram(other, realized=realized)
    with pytest.raises(OracleError):
        oracle_matches_diagram(twist, realized=realized, report=total_fiber(other))
    truncated = realized_total_fiber(twist, TruncatedPolyModule((1, 2)))
    with pytest.raises(OracleError):
        flip_action_check(twist, realized=truncated)


def test_oracle_matches_diagram_needs_every_level():
    """A realized fiber with fewer levels than the diagram report fails;
    it does not pass on the levels the two have in common."""
    pair = ((1, 2), (1, 2))
    realized = realized_total_fiber(pair)
    assert oracle_matches_diagram(pair, realized=realized)
    short = replace(realized, level_dims=realized.level_dims[:-1])
    assert not oracle_matches_diagram(pair, realized=short)


def test_oracle_matches_diagram_compares_every_dimension():
    """A realized fiber one off at a single index of a single level fails."""
    pair = ((2, 3), (2, 3))
    realized = realized_total_fiber(pair)
    assert oracle_matches_diagram(pair, realized=realized)
    for k, dims in enumerate(realized.level_dims):
        for index in dims:
            off = dict(dims)
            off[index] += 1
            level_dims = list(realized.level_dims)
            level_dims[k] = off
            wrong = replace(realized, level_dims=level_dims)
            assert not oracle_matches_diagram(pair, realized=wrong), (k, index)


def test_flip_check_acts_on_the_realized_module(monkeypatch):
    """Given the pair's realized fiber, the flip check builds no second
    nil-Coxeter module: it acts on the fiber's own."""
    twist = ((1, 3), (3, 1))
    realized = realized_total_fiber(twist)
    built = []
    real_init = NilCoxeterModule.__init__

    def counted(self, tau):
        built.append(tau)
        real_init(self, tau)

    monkeypatch.setattr(NilCoxeterModule, "__init__", counted)
    assert flip_action_check(twist, realized=realized)
    assert built == []


def test_adjunction_examples():
    assert check_adjunction((2,), (1, 1))
    assert check_adjunction((3,), (3,))  # sigma = tau: literally equal sides
    assert check_adjunction((3,), (1, 2))
    with pytest.raises(OracleError):
        check_adjunction((1, 2), (3,))


def test_adjunction_single_block_five_strands():
    """sigma = (5,): M is cyclic, so spinning leaves 120 unknowns for
    Hom(M, Ind N), where the full intertwiner system has 14,400."""
    assert check_adjunction((5,), (2, 3))


def test_adjunction_can_fail(monkeypatch):
    """One broken input per failure branch of check_adjunction at
    ((3,), (1, 2)), where both Hom spaces have dimension 6.  The first two
    break Ind N's s-actions, which only the spin of a caller-given M reads,
    so they pass M; the relabelled split and the zero s_1 both leave every
    action a partial permutation, so these spins take the index-map path
    of spin_hom.  The last two break the default path: a nonzero X entry
    on Ind N, and a factorization that sends two seeds to one block."""
    assert _adjunction_ranks((3,), (1, 2)) == (6, 6, 6)
    identity = (1, 2, 3)
    m_mod = NilCoxeterModule((3,))

    # the identity and last shuffles relabelled in every ((3,), (1, 2))
    # split: Ind N is no longer the induced module, and the dimensions
    # differ
    real_split = oracle._NilCoxeter.split
    last = enumerate_shuffles((3,), (1, 2))[-1]
    relabel = {identity: last, last: identity}

    def relabelled(coarse, fine, x):
        out = real_split(coarse, fine, x)
        if (coarse, fine) == ((3,), (1, 2)):
            out = {relabel.get(a, a): y for a, y in out.items()}
        return out

    with monkeypatch.context() as m:
        m.setattr(oracle._NilCoxeter, "split", relabelled)
        assert _adjunction_ranks((3,), (1, 2), m_mod) == (6, 1, 0)
        assert not check_adjunction((3,), (1, 2), m_mod)

    # s_1 acting by zero on Ind N: the dimensions agree, but evaluation at
    # the identity shuffle is no longer injective
    real_entries = HomSpace.action_entries

    def no_s1(self, g):
        if g == AlgebraElement.s_gen(3, 1, self.outer):
            return {}
        return real_entries(self, g)

    with monkeypatch.context() as m:
        m.setattr(HomSpace, "action_entries", no_s1)
        small, big, comparison = _adjunction_ranks((3,), (1, 2), m_mod)
        assert small == big == 6 and comparison < 6
        assert not check_adjunction((3,), (1, 2), m_mod)

    # one nonzero entry in X_1 on Ind N: an equation of the default path,
    # which drops a dimension from Hom(M, Ind N)
    def x1_entry(self, g):
        if g == AlgebraElement.x_gen(3, 1, self.outer):
            return {(0, 0): Fraction(1)}
        return real_entries(self, g)

    with monkeypatch.context() as m:
        m.setattr(HomSpace, "action_entries", x1_entry)
        small, big, comparison = _adjunction_ranks((3,), (1, 2))
        assert small == 6 and big < 6
        assert not check_adjunction((3,), (1, 2))

    # the last seed factored through the identity shuffle: two seeds read
    # one block of Ind N, so the comparison is not injective
    real_decompose = oracle.parabolic_decompose

    def merged(w, tau):
        alpha, u = real_decompose(w, tau)
        return (identity, u) if alpha == last else (alpha, u)

    monkeypatch.setattr(oracle, "parabolic_decompose", merged)
    small, big, comparison = _adjunction_ranks((3,), (1, 2))
    assert small == big == 6 and comparison < 6
    assert not check_adjunction((3,), (1, 2))


@pytest.mark.parametrize("n", range(2, 5))
def test_adjunction_sweep(n):
    for sigma in all_compositions(n):
        for tau in all_compositions(n):
            if refines(sigma, tau):
                assert check_adjunction(sigma, tau), (sigma, tau)


@pytest.mark.parametrize("n", range(2, 5))
def test_realized_kernel_rank_scaling(n):
    """Realized kernel dimension = diagram kernel rank x dim(T) for the
    first collapse of every pair (the realize_edge examples)."""
    for pair in two_part_pairs(n):
        mod = NilCoxeterModule(pair[0])
        spec = build_bifactorization(pair)
        report = total_fiber(pair)
        level1 = report.levels[1]
        for beta_index, dset in level1.vertex_sets.items():
            top = bc_vertex(spec, beta_index, 0)
            bottom = bc_vertex(spec, beta_index, 1)
            edge = realize_edge(top, bottom, mod)
            cols = len(edge[0])
            kernel_dim = cols - rank(edge)
            expected = len(dset) * mod.dim
            assert kernel_dim == expected, (pair, beta_index)


def test_oracle_five_strand_palindrome_collapses():
    """Five strands is the smallest size where the inner palindrome axes
    carry a genuine delta collapse (an AC pair needs c >= 2); run the
    matrix oracle once through each case family that has one."""
    for pair in [
        ((2, 3), (2, 3)),   # palindrome on the left, trailing block
        ((3, 2), (3, 2)),   # palindrome on the right, leading block
        ((3, 2), (2, 3)),   # swap family
        ((2, 3), (3, 2)),   # mirrored swap family
    ]:
        assert oracle_matches_diagram(pair), pair
    assert flip_action_check(((2, 3), (3, 2)))
    assert flip_action_check(((3, 2), (2, 3)))


def _refinements(max_n):
    for n in range(1, max_n + 1):
        comps = all_compositions(n)
        for sigma in comps:
            for tau in comps:
                if refines(sigma, tau):
                    yield n, sigma, tau


def test_x_generators_act_by_zero_on_hom_spaces():
    """On a nil-Coxeter module every dot X_i acts on Hom(NH_sigma, T) by
    the zero matrix: X_i alpha = alpha' X_j + h * (crossings), and dots and
    h both act by 0.  Far-commutativity at matrix level therefore compares
    empty actions for all its X generators.  An s generator never acts by
    zero: at the identity shuffle it contributes a unit block or s_i.
    Both claims are computed through module_decompose; the quotient path
    of HomSpace.action_entries then writes no entry for any X_i."""
    for n, sigma, tau in _refinements(4):
        for rho in {sigma, tau}:
            space = HomSpace(sigma, tau, NilCoxeterModule(rho))
            for i in range(1, n + 1):
                x = AlgebraElement.x_gen(n, i, sigma)
                assert _accumulated_entries(space, space, x) == {}, (sigma, tau, rho, i)
                assert space.action_entries(x) == {}
            for i in s_generators(sigma):
                s = AlgebraElement.s_gen(n, i, sigma)
                assert _accumulated_entries(space, space, s), (sigma, tau, rho, i)


def _hom_spaces(max_n):
    """Every HomSpace(sigma, tau, NilCoxeterModule(rho)) for sigma <= tau
    with n <= max_n and rho in {sigma, tau}, and every far-commutativity
    route-b space HomSpace(c1+d0, c1+d1, NilCoxeterModule(c0+d1)); for
    n <= 3 each also over TruncatedPolyModule(rho), where dots and h act.
    Each comes with the generators of its outer algebra."""
    seen = set()
    for n, sigma, tau in _refinements(max_n):
        for rho in (sigma, tau):
            seen.add((n, sigma, tau, rho))
        for a in range(1, n):
            for c0, c1 in refinement_pairs(a):
                for d0, d1 in refinement_pairs(n - a):
                    seen.add((n, c1 + d0, c1 + d1, c0 + d1))
    for n, sigma, tau, rho in sorted(seen):
        yield HomSpace(sigma, tau, NilCoxeterModule(rho)), generators(n, sigma)
        if n <= 3:
            yield HomSpace(sigma, tau, TruncatedPolyModule(rho)), generators(n, sigma)


def test_hom_space_actions_match_module_decompose():
    """HomSpace.action_entries, which decomposes in the quotient on
    nil-Coxeter modules and acts by x_i without an inner split on its one
    layer in either ring, equals the two decompositions in NH through
    module_decompose (the same reference as for edges and corner actions),
    entry for entry and in the same order, for every generator: n <= 5 on
    nil-Coxeter modules, n <= 3 on truncated ones."""
    spaces = 0
    for space, gens in _hom_spaces(5):
        for g in gens:
            got = list(space.action_entries(g).items())
            ref = list(_accumulated_entries(space, space, g).items())
            assert got == ref, (space.outer, space.inner, space.module.tau, g)
        spaces += 1
    assert spaces > 0


def test_overlapping_blocks_raise(capsys, monkeypatch):
    """Two source blocks that share a coordinate are an internal error, not
    a sum: distinct products give distinct blocks on a well-formed vertex.
    X_2 on the truncated module induced from (1, 1, 1) to (3,) draws on
    blocks 3 and 4 in block row 5, so giving block 4 the coordinates of
    block 3 puts two entries on one coordinate.  The CLI reports it as
    exit 3."""
    space = HomSpace((3,), (1, 1, 1), TruncatedPolyModule((1, 1, 1)))
    x2 = AlgebraElement.x_gen(3, 2, (3,))
    t = space.module.dim
    blocks = {c // t for r, c in space.action_entries(x2) if r // t == 5}
    assert {3, 4} <= blocks
    merged = copy(space)
    merged.block_index = {**space.block_index, space.products[4]: 3}
    with pytest.raises(OracleError, match="two entries at coordinate"):
        oracle._two_layer_entries(merged, space, x2)

    real_entries = oracle._two_layer_entries

    def overlapping(src, dst, g):
        src, dst = copy(src), copy(dst)
        for vertex in (src, dst):
            vertex.block_index = dict.fromkeys(vertex.block_index, 0)
        return real_entries(src, dst, g)

    monkeypatch.setattr(oracle, "_two_layer_entries", overlapping)
    assert main(["check", "--n", "3"]) == 3
    assert "two entries at coordinate" in capsys.readouterr().err


def _dense_intertwiner_basis(dom, cod, dim_m, dim_n):
    """Reference: the intertwiner equations (F A_g - B_g F)[r][c] = 0 read
    entry by entry off dense action matrices."""
    rows = []
    for a_g, b_g in zip(dom, cod):
        for r in range(dim_n):
            for c in range(dim_m):
                row = {}
                for k in range(dim_m):
                    if a_g[k][c]:
                        row[r * dim_m + k] = row.get(r * dim_m + k, 0) + a_g[k][c]
                for k in range(dim_n):
                    if b_g[r][k]:
                        row[k * dim_m + c] = row.get(k * dim_m + c, 0) - b_g[r][k]
                rows.append(row)
    return sparse_nullspace(rows, dim_n * dim_m)


def _intertwiner_basis(dom_actions, cod_actions, dim_m, dim_n):
    """Reference: the full intertwiner system F A_g = B_g F over all
    generators, with the entries F[r][c] as unknowns (flattened as
    r*dim_m + c), assembled from nonzero action entries: A_g[k][c] enters
    every equation of column c, B_g[r][k] every equation of row r."""
    rows = []
    for a_g, b_g in zip(dom_actions, cod_actions):
        eqs = {}
        for (k, c), v in a_g.items():
            for r in range(dim_n):
                row = eqs.setdefault((r, c), {})
                row[r * dim_m + k] = row.get(r * dim_m + k, 0) + v
        for (r, k), v in b_g.items():
            for c in range(dim_m):
                row = eqs.setdefault((r, c), {})
                row[k * dim_m + c] = row.get(k * dim_m + c, 0) - v
        rows.extend(eqs.values())
    return sparse_nullspace(rows, dim_n * dim_m)


def _adjunction_systems(sigma, tau, m_mod, n_mod):
    """The two intertwiner systems of check_adjunction, as (generators,
    domain module, codomain action object, codomain dimension): over NH_tau
    into N, and over NH_sigma into Ind N."""
    n = sum(sigma)
    ind = HomSpace(sigma, tau, n_mod)
    return ind, [
        (generators(n, tau), n_mod.act_entries, n_mod.act_matrix, n_mod.dim),
        (generators(n, sigma), ind.action_entries, ind.action_matrix, ind.dim),
    ]


def _full_adjunction_ranks(sigma, tau, m_mod, n_mod):
    """Reference for _adjunction_ranks from the full intertwiner systems:
    the comparison ranks the identity-shuffle rows of the kernel of the
    second."""
    ind, systems = _adjunction_systems(sigma, tau, m_mod, n_mod)
    small, big = (
        _intertwiner_basis(
            [m_mod.act_entries(g) for g in gens],
            [cod(g) for g in gens],
            m_mod.dim,
            dim_n,
        )
        for gens, cod, _, dim_n in systems
    )
    block = n_mod.dim * m_mod.dim
    row0 = ind.index[tuple(range(1, sum(sigma) + 1))] * block
    return small.cols, big.cols, sparse_rank(big.rows[row0 : row0 + block])


def test_intertwiner_basis_from_entries_matches_dense_rows():
    """The reference full system, for both Hom spaces of check_adjunction
    and every refinement with n <= 4: the basis built from sparse entries
    equals the one built from dense rows."""
    for n, sigma, tau in _refinements(4):
        m_mod, n_mod = NilCoxeterModule(sigma), NilCoxeterModule(tau)
        _, systems = _adjunction_systems(sigma, tau, m_mod, n_mod)
        for gens, cod_e, cod_m, dim_n in systems:
            basis = _intertwiner_basis(
                [m_mod.act_entries(g) for g in gens],
                [cod_e(g) for g in gens],
                m_mod.dim,
                dim_n,
            )
            dense = _dense_intertwiner_basis(
                [m_mod.act_matrix(g) for g in gens],
                [cod_m(g) for g in gens],
                m_mod.dim,
                dim_n,
            )
            assert basis == dense, (sigma, tau)


def _nil_coxeter_cases(refinements):
    for sigma, tau in refinements:
        yield sigma, tau, NilCoxeterModule(sigma), NilCoxeterModule(tau)


def _five_strand_refinements():
    for _, sigma, tau in _refinements(5):
        if sum(sigma) == 5 and sigma != (5,):
            yield sigma, tau
    yield (5,), (2, 3)


def _truncated_cases():
    for _, sigma, tau in _refinements(3):
        yield sigma, tau, TruncatedPolyModule(sigma), TruncatedPolyModule(tau)


@pytest.mark.parametrize(
    "cases, verdicts",
    [
        pytest.param(
            lambda: _nil_coxeter_cases((s, t) for _, s, t in _refinements(4)),
            {True},
            id="nil-coxeter-n<=4",
        ),
        pytest.param(
            lambda: _nil_coxeter_cases(_five_strand_refinements()),
            {True},
            id="nil-coxeter-n5",
        ),
        pytest.param(_truncated_cases, {True}, id="truncated-n<=3"),
    ],
)
def test_spin_matches_full_system(cases, verdicts):
    """Spinning gives the kernel dimensions and the comparison rank of the
    full intertwiner systems, hence the same verdict.  With h among the
    generators, every adjunction holds on the truncated modules too."""
    seen = {}
    for sigma, tau, m_mod, n_mod in cases():
        spun = _adjunction_ranks(sigma, tau, m_mod, n_mod)
        assert spun == _full_adjunction_ranks(sigma, tau, m_mod, n_mod), (sigma, tau)
        seen[sigma, tau] = check_adjunction(sigma, tau, m_mod, n_mod)
        assert seen[sigma, tau] == (spun[0] == spun[1] == spun[2])
    assert set(seen.values()) == verdicts


@pytest.mark.parametrize(
    "coefficients, max_n", [(NilCoxeterModule, 5), (TruncatedPolyModule, 3)]
)
def test_universal_property_matches_spin(monkeypatch, coefficients, max_n):
    """Without M, _adjunction_ranks reads Hom(Res M, N) off the free orbits
    of M = NilCoxeterModule(sigma), and Hom(M, Ind N) and the comparison
    off its universal property, with no spin; given that M, it spins both
    sides.  Both give the same ranks for every sigma <= tau: n <= 5 on
    nil-Coxeter N, where no X or h action on N or Ind N has an entry, and
    n <= 3 on truncated N, where they give equations.  The full systems of
    test_spin_matches_full_system are too large for sigma = (5,), and its
    truncated cases take a truncated M."""
    spins = _count_spins(monkeypatch)
    cases = 0
    for _, sigma, tau in _refinements(max_n):
        n_mod = coefficients(tau)
        spun = _adjunction_ranks(sigma, tau, NilCoxeterModule(sigma), n_mod)
        spins.clear()
        assert _adjunction_ranks(sigma, tau, n_mod=n_mod) == spun, (sigma, tau)
        assert spins == [], (sigma, tau)
        cases += 1
    assert cases == {5: 121, 3: 13}[max_n]


class _ReversedNilCoxeterModule(NilCoxeterModule):
    """The nil-Coxeter module with its basis in reverse lexicographic
    order: the Res-side spin then opens seeds at e_w with w = alpha o u
    and u not the identity."""

    def __init__(self, tau):
        super().__init__(tau)
        self.basis.reverse()
        self.index = {w: i for i, w in enumerate(self.basis)}


@pytest.mark.parametrize("module", [NilCoxeterModule, _ReversedNilCoxeterModule])
def test_comparison_lands_in_the_res_side_hom(monkeypatch, module):
    """On the default path, the comparison rows send every solution of
    Hom(M, Ind N) to values at the seeds that solve the relations of a
    reference spin of Res M under the tau generators, so to a tau-map
    Res M -> N, for every sigma <= tau with n <= 4; the path's seeds are
    that spin's.  With the basis reversed, some seeds lie off the shuffles,
    and their rows act by u in N; the ranks stay prod(sigma_i!)
    throughout."""
    seeds, compared = [], []
    real_side, real_rank = oracle._cyclic_side, oracle._comparison_rank

    def recorded_side(ind, m_mod, path_seeds, kills):
        seeds.append(path_seeds)
        return real_side(ind, m_mod, path_seeds, kills)

    def recorded_rank(rows, kernel):
        compared.append((rows, kernel))
        return real_rank(rows, kernel)

    monkeypatch.setattr(oracle, "NilCoxeterModule", module)
    monkeypatch.setattr(oracle, "_cyclic_side", recorded_side)
    monkeypatch.setattr(oracle, "_comparison_rank", recorded_rank)
    off_shuffles = 0
    for n, sigma, tau in _refinements(4):
        seeds.clear()
        compared.clear()
        m_mod, n_mod = module(sigma), module(tau)
        gens = generators(n, tau)
        ref = spin_hom(
            [m_mod.act_entries(g) for g in gens],
            [n_mod.act_entries(g) for g in gens],
            m_mod.dim,
            n_mod.dim,
        )
        dim = m_mod.dim
        assert _adjunction_ranks(sigma, tau) == (dim, dim, dim), (sigma, tau)
        (path_seeds,), ((rows, kernel),) = seeds, compared
        assert path_seeds == ref.seeds, (sigma, tau)
        assert len(rows) == len(ref.kernel.rows)
        values = sparse_mul(SparseMatrix(rows, len(kernel.rows)), kernel)
        sparse_solve(ref.kernel, values)  # raises if a value leaves Hom
        off_shuffles += len(ref.seeds) > len(enumerate_shuffles(sigma, tau))
    assert (off_shuffles > 0) == (module is _ReversedNilCoxeterModule)


def _count_spins(monkeypatch):
    calls = []
    real_spin = oracle.spin_hom

    def counted(*args):
        calls.append(args)
        return real_spin(*args)

    monkeypatch.setattr(oracle, "spin_hom", counted)
    return calls


def test_report_spins_nothing(monkeypatch):
    """The report at 5 strands with every matrix check on, the path of the
    CLI: its adjunctions, pair oracles and flip checks make no spin_hom
    call, so only a caller-given M or an orbit that is not free reaches
    the spin."""
    spins = _count_spins(monkeypatch)
    assert report_ok(build_report(5, max_oracle=5))
    assert spins == []


# M = NilCoxeterModule((3,)) under tau = (1, 2) has three free orbits, its
# s_2 cells (1, 0), (3, 2), (5, 4).  Dropping one leaves two orbits of one
# coordinate each; the cell (0, 3) sends orbit {2, 3} into orbit {0, 1}.
_S2 = (1, 3, 2)


@pytest.mark.parametrize(
    "broken, ranks",
    [
        pytest.param(lambda cells: cells[1:], (6, 6, 6), id="drop-first"),
        pytest.param(lambda cells: cells[:1] + cells[2:], (6, 6, 6), id="drop-middle"),
        pytest.param(lambda cells: cells[:2], (6, 6, 6), id="drop-last"),
        pytest.param(lambda cells: cells + [(0, 3)], (4, 6, 6), id="join-orbits"),
    ],
)
def test_orbits_that_are_not_free_take_the_spin(monkeypatch, broken, ranks):
    """Negative control for the free orbits of the default path: with one
    s_2 cell of M dropped or added at ((3,), (1, 2)), some orbit has the
    wrong size or two orbits meet, so the path spins Res M once, and its
    Res-side rank is that of the spin of the same M given by the caller.
    The sigma side still comes from the universal property of M, which
    reads no action of M."""
    real_cells = NilCoxeterModule._action_cells

    def cells(self, w):
        out = real_cells(self, w)
        return broken(list(out)) if self.tau == (3,) and w == _S2 else out

    monkeypatch.setattr(NilCoxeterModule, "_action_cells", cells)
    assert oracle._free_seeds(NilCoxeterModule((3,)), (1, 2)) is None
    spins = _count_spins(monkeypatch)
    assert _adjunction_ranks((3,), (1, 2)) == ranks
    assert len(spins) == 1
    given = _adjunction_ranks((3,), (1, 2), m_mod=NilCoxeterModule((3,)))
    assert given[0] == ranks[0]


def _expand(spun, dim_m, dim_n, column):
    """The full map F (dim_n x dim_m) of one kernel column: F b_i is the
    image L_i at that solution, and the spun basis b_i spans M, so F is
    the solution of F B = Y, that is B^T F^T = Y^T."""
    x = {u: row[column] for u, row in enumerate(spun.kernel.rows) if column in row}
    y_t = [
        [sum((v * x[u] for u, v in image.get(r, {}).items() if u in x), Fraction(0))
         for r in range(dim_n)]
        for image in spun.images
    ]
    b_t = [[b.get(c, Fraction(0)) for c in range(dim_m)] for b in spun.basis]
    f_t = solve_matrix(b_t, y_t)
    return [list(col) for col in zip(*f_t)]


@pytest.mark.parametrize(
    "module, max_n", [(NilCoxeterModule, 3), (TruncatedPolyModule, 2)]
)
def test_spun_hom_intertwines(module, max_n):
    """Every kernel vector of a spun system, expanded to a full F, satisfies
    F A_g = B_g F for every generator; the spun basis is a basis of M."""
    for n, sigma, tau in _refinements(max_n):
        m_mod, n_mod = module(sigma), module(tau)
        _, systems = _adjunction_systems(sigma, tau, m_mod, n_mod)
        for gens, cod_e, cod_m, dim_n in systems:
            spun = spin_hom(
                [m_mod.act_entries(g) for g in gens],
                [cod_e(g) for g in gens],
                m_mod.dim,
                dim_n,
            )
            assert len(spun.basis) == m_mod.dim
            assert rank(
                [[b.get(c, 0) for c in range(m_mod.dim)] for b in spun.basis]
            ) == m_mod.dim
            dom = [m_mod.act_matrix(g) for g in gens]
            cod = [cod_m(g) for g in gens]
            for k in range(spun.kernel.cols):
                f = _expand(spun, m_mod.dim, dim_n, k)
                for a_g, b_g in zip(dom, cod):
                    assert mat_eq(mat_mul(f, a_g), mat_mul(b_g, f)), (sigma, tau, k)


_SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3))


def _random_partial_permutation(rng, dim):
    """A random partial permutation of size dim, its values among _SCALES."""
    cols = rng.sample(range(dim), rng.randint(0, dim))
    rows = rng.sample(range(dim), len(cols))
    return {(r, c): rng.choice(_SCALES) for r, c in zip(rows, cols)}


def _random_spin_input(rng):
    """1-3 random generator actions on M and on N, of dimensions 1-7.  Half
    the time N is M relabelled, so that Hom(M, N) is not zero."""
    dim_m = rng.randint(1, 7)
    gens = rng.randint(1, 3)
    dom = [_random_partial_permutation(rng, dim_m) for _ in range(gens)]
    if rng.random() < 0.5:
        p = rng.sample(range(dim_m), dim_m)
        cod = [{(p[r], p[c]): v for (r, c), v in a.items()} for a in dom]
        return dom, cod, dim_m, dim_m
    dim_n = rng.randint(1, 7)
    cod = [_random_partial_permutation(rng, dim_n) for _ in range(gens)]
    return dom, cod, dim_m, dim_n


def test_spin_matches_full_system_on_scaled_partial_permutations():
    """Seeded random partial permutations with values +-1, 2 and 1/3, which
    reach the scale arithmetic that the all-ones nil-Coxeter actions never
    do: the spun Hom space has the dimension of the full intertwiner
    system, and every kernel column, expanded to a full F, satisfies
    F A_g = B_g F.  Most cases have equations that cut the unknowns down,
    and most have a nonzero Hom space, whose kernel vectors carry the
    scales."""
    rng = random.Random(2020)
    constrained = scaled = nonzero = 0
    for case in range(400):
        dom, cod, dim_m, dim_n = _random_spin_input(rng)
        got = spin_hom(dom, cod, dim_m, dim_n)
        assert got.kernel.cols == _intertwiner_basis(dom, cod, dim_m, dim_n).cols, case
        pairs = [
            (from_entries(a, dim_m, dim_m), from_entries(b, dim_n, dim_n))
            for a, b in zip(dom, cod)
        ]
        for k in range(got.kernel.cols):
            f = _expand(got, dim_m, dim_n, k)
            for a_g, b_g in pairs:
                assert mat_eq(mat_mul(f, a_g), mat_mul(b_g, f)), (case, k)
        constrained += got.kernel.cols < len(got.kernel.rows)
        scaled += any(v != 1 for b in got.basis for v in b.values())
        nonzero += got.kernel.cols > 0
    assert constrained >= 300 and scaled >= 200 and nonzero >= 200


@pytest.mark.parametrize("crowded", ["domain column", "codomain row"])
def test_spin_matches_full_system_on_crowded_actions(crowded):
    """A second nonzero in a column of a domain action, or in a row of a
    codomain action, so that the actions are not partial permutations:
    the spun Hom space has the dimension of the full intertwiner system."""
    rng = random.Random(2021)
    cases = 0
    while cases < 50:
        dom, cod, dim_m, dim_n = _random_spin_input(rng)
        action, dim = (dom, dim_m) if crowded == "domain column" else (cod, dim_n)
        x = action[0]
        if not x or dim < 2:
            continue
        r, c = next(iter(x))
        if crowded == "domain column":
            x[(next(k for k in range(dim) if (k, c) not in x), c)] = Fraction(1)
        else:
            x[(r, next(k for k in range(dim) if (r, k) not in x))] = Fraction(-1)
        got = spin_hom(dom, cod, dim_m, dim_n)
        assert got.kernel.cols == _intertwiner_basis(dom, cod, dim_m, dim_n).cols
        cases += 1


def _eliminated_rank(rows, kernel):
    return sparse_rank(sparse_mul(SparseMatrix(rows, len(kernel.rows)), kernel).rows)


def _one_term_rows(*row_lists):
    return all(len(row) <= 1 for rows in row_lists for row in rows)


def test_counted_comparison_rank_matches_elimination(monkeypatch):
    """Every comparison of _adjunction_ranks with n <= 5 on nil-Coxeter
    modules, where every comparison row and kernel row has one term at
    most, so the rank is counted; and with n <= 3 on truncated modules,
    whose generic spins reach the elimination too.  Each rank equals that
    of the multiplied-out product."""
    real = oracle._comparison_rank
    counted = []

    def checked(rows, kernel):
        got = real(rows, kernel)
        assert got == _eliminated_rank(rows, kernel)
        counted.append(_one_term_rows(rows, kernel.rows))
        return got

    monkeypatch.setattr(oracle, "_comparison_rank", checked)
    for _, sigma, tau in _refinements(5):
        _adjunction_ranks(sigma, tau)
    assert len(counted) == 121 and all(counted)
    for sigma, tau, m_mod, n_mod in _truncated_cases():
        _adjunction_ranks(sigma, tau, m_mod, n_mod)
    assert not all(counted)


def test_counted_comparison_rank_on_scaled_partial_permutations():
    """The seeded cases of the scaled-permutation spin test, every image
    row as a comparison row: the counted rank equals the eliminated one.
    Many cases have several rows on one kernel column, and many reach
    unknowns that the kernel kills, so counting rows or unknowns would
    not do."""
    rng = random.Random(2020)
    merged = killed = 0
    for case in range(400):
        spun = spin_hom(*_random_spin_input(rng))
        kernel = spun.kernel
        rows = [row for image in spun.images for row in image.values()]
        assert _one_term_rows(rows, kernel.rows), case
        assert oracle._comparison_rank(rows, kernel) == _eliminated_rank(rows, kernel)
        reached = [j for row in rows for u in row for j in kernel.rows[u]]
        merged += len(reached) > len(set(reached))
        killed += any(not kernel.rows[u] for row in rows for u in row)
    assert merged >= 100 and killed >= 300


def _dense_realized_fiber(pair, module):
    """Reference: the iterated kernels on dense matrices (realize_map,
    mat_mul, solve_matrix, rank, nullspace), one loop over the collapse
    order.  Returns level dimensions, corner kernel, corner index and the
    split-surjection flag."""
    spec = build_bifactorization(pair)
    axes = spec.bc_axes()
    vertices = {
        bits: RealizedVertex(bc_vertex(spec, bits[:-1], bits[-1]), module)
        for bits in iproduct((0, 1), repeat=len(axes))
    }
    state = {bits: (bits, identity_matrix(v.dim)) for bits, v in vertices.items()}

    def width(m):
        return len(m[0]) if m else 0

    remaining = list(axes)
    level_dims = [{bits: width(basis) for bits, (_, basis) in state.items()}]
    split = True
    for axis in collapse_order(spec):
        pos = remaining.index(axis)
        new_state = {}
        for index, (full_top, c_top) in state.items():
            if index[pos] != 0:
                continue
            full_bot, c_bot = state[index[:pos] + (1,) + index[pos + 1:]]
            edge = realize_map(vertices[full_top], vertices[full_bot])
            restricted = solve_matrix(c_bot, mat_mul(edge, c_top))
            if rank(restricted) != width(c_bot):
                split = False
            ker = nullspace(restricted, cols=width(c_top))
            new_state[index[:pos] + index[pos + 1:]] = (full_top, mat_mul(c_top, ker))
        state = new_state
        remaining.pop(pos)
        level_dims.append({bits: width(basis) for bits, (_, basis) in state.items()})
    (corner, kernel), = state.values()
    return level_dims, kernel, corner, split


@pytest.mark.parametrize("n", range(2, 6))
def test_sparse_fiber_matches_dense_reference(n):
    """Level dimensions, split flag and the span of the corner kernel of
    the sparse iteration equal the dense reference, for every pair."""
    for pair in two_part_pairs(n):
        module = NilCoxeterModule(pair[0])
        fib = realized_total_fiber(pair, module)
        dims, kernel, corner, split = _dense_realized_fiber(pair, module)
        assert fib.level_dims == dims, pair
        assert fib.split_surjective == split, pair
        assert fib.corner.vertex.index == corner
        k = fib.kernel.cols
        sparse = fib.kernel.dense()
        assert len(sparse) == len(kernel) == fib.corner.dim
        assert rank(kernel) == rank(sparse) == k, pair
        assert rank([a + b for a, b in zip(kernel, sparse)]) == k, pair


def _accumulated_entries(src, dst, g=None):
    """Reference: the nonzero entries of phi -> ((E', F') -> phi(g E')(F')),
    adding the module's act_entries block of every y of the nested
    decompositions g E' = sum E_i x_i, x_i F' = sum F_j y in NH
    (module_decompose) into its place."""
    t = src.module.dim
    out = {}
    for e in dst.e_set:
        moved = AlgebraElement.from_perm(e, src.cd)
        if g is not None:
            moved = g * moved
        outer = module_decompose(src.cd, src.outer_fine, moved)
        for f in dst.f_set:
            row = dst.block_index[compose(e, f)] * t
            f_elem = AlgebraElement.from_perm(f, src.inner_coarse)
            for e_i, x_i in outer.items():
                inner = module_decompose(src.inner_coarse, src.inner_fine, x_i * f_elem)
                for f_j, y in inner.items():
                    col = src.block_index[compose(e_i, f_j)] * t
                    for (r, c), v in src.module.act_entries(y).items():
                        key = (row + r, col + c)
                        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def test_edge_entries_match_block_accumulation():
    """Every edge of every cube with n <= 4 (the collapse edges among
    them), and the corner actions of the twist pairs: the entries equal
    the block accumulation through module_decompose."""
    edges = 0
    for n in range(2, 5):
        for pair in two_part_pairs(n):
            module = NilCoxeterModule(pair[0])
            spec = build_bifactorization(pair)
            dim = len(spec.bc_axes())
            vertices = {
                bits: RealizedVertex(bc_vertex(spec, bits[:-1], bits[-1]), module)
                for bits in iproduct((0, 1), repeat=dim)
            }
            for bits, top in vertices.items():
                for pos in range(dim):
                    if bits[pos] == 0:
                        bottom = vertices[bits[:pos] + (1,) + bits[pos + 1:]]
                        ref = _accumulated_entries(top, bottom)
                        assert realize_entries(top, bottom) == ref, (pair, bits, pos)
                        edges += 1
            if pair[1] == pair[0][::-1]:
                corner = vertices[(0,) * dim]
                c, d = pair[1]
                for g in generators(n, (c, d)):
                    ref = _accumulated_entries(corner, corner, g)
                    assert corner.action_entries(g) == ref, (pair, g)
    assert edges > 0


def test_collapse_edges_match_block_accumulation_at_five_strands(monkeypatch):
    """Every collapse edge that realized_total_fiber builds for the pairs
    with n = 5, and the corner actions of the twist pairs, equal the block
    accumulation through module_decompose, entry for entry and in order."""
    real = oracle.realize_entries
    edges = []

    def checked(src, dst):
        entries = real(src, dst)
        ref = _accumulated_entries(src, dst)
        assert list(entries.items()) == list(ref.items()), (
            src.vertex.index, dst.vertex.index
        )
        edges.append(src.vertex.index)
        return entries

    monkeypatch.setattr(oracle, "realize_entries", checked)
    twists = 0
    for pair in two_part_pairs(5):
        fib = realized_total_fiber(pair)
        if pair[1] == pair[0][::-1]:
            corner = fib.corner
            for g in generators(5, pair[1]):
                got = list(corner.action_entries(g).items())
                assert got == list(_accumulated_entries(corner, corner, g).items()), (
                    pair, g
                )
            twists += 1
    assert twists == 4 and len(edges) > len(two_part_pairs(5))


def test_zeroed_edge_block_breaks_split_surjectivity(monkeypatch):
    """Zeroing the first block of rows of the layer edge (1,0) -> (1,1) of
    ((1,2),(1,2)) enlarges its kernel, which is the lower end of the zeta
    collapse: the restricted map then misses part of it."""
    pair = ((1, 2), (1, 2))
    assert realized_total_fiber(pair).split_surjective
    assert oracle_matches_diagram(pair)
    real = oracle.realize_entries
    broken = []

    def edge_without_block(src, dst):
        entries = real(src, dst)
        if (src.vertex.index, dst.vertex.index) == ((1, 0), (1, 1)):
            t = dst.module.dim
            entries = {(r, c): v for (r, c), v in entries.items() if r >= t}
            broken.append(src.vertex.index)
        return entries

    monkeypatch.setattr(oracle, "realize_entries", edge_without_block)
    assert not realized_total_fiber(pair).split_surjective
    assert not oracle_matches_diagram(pair)
    assert broken == [(1, 0), (1, 0)]


def _eliminated_fiber(monkeypatch, pair, module=None):
    """realized_total_fiber with every collapse step on the elimination
    path."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "_coordinate_collapse", lambda *args: None)
        return realized_total_fiber(pair, module)


def _assert_same_fiber(got, ref, label):
    """Equal level dimensions and split flags, and kernels of one span."""
    assert got.level_dims == ref.level_dims, label
    assert got.split_surjective == ref.split_surjective, label
    assert got.corner.vertex.index == ref.corner.vertex.index, label
    k = got.kernel.cols
    assert len(got.kernel.rows) == len(ref.kernel.rows) == got.corner.dim, label
    both = [{**a, **{k + c: v for c, v in b.items()}}
            for a, b in zip(got.kernel.rows, ref.kernel.rows)]
    assert sparse_rank(got.kernel.rows) == sparse_rank(ref.kernel.rows) == k, label
    assert sparse_rank(both) == k, label


@pytest.mark.parametrize(
    "module_class, max_n",
    [(NilCoxeterModule, 5), (TruncatedPolyModule, 4)],
    ids=["nil-coxeter-n<=5", "truncated-n<=4"],
)
def test_coordinate_collapse_matches_elimination(monkeypatch, module_class, max_n):
    """Every pair: the collapse on coordinate sets gives the fiber of the
    elimination path."""
    for n in range(2, max_n + 1):
        for pair in two_part_pairs(n):
            module = module_class(pair[0])
            _assert_same_fiber(
                realized_total_fiber(pair, module),
                _eliminated_fiber(monkeypatch, pair, module),
                pair,
            )


def _count_nullspaces(monkeypatch):
    """The list that every later oracle.sparse_nullspace call appends to."""
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(oracle, "sparse_nullspace", counted)
    return calls


def test_nil_coxeter_collapses_never_eliminate(monkeypatch):
    """Every restricted collapse map of every pair with n <= 5 has at most
    one preimage per lower coordinate, so no step solves or takes a kernel
    over Q."""
    calls = _count_nullspaces(monkeypatch)
    for n in range(2, 6):
        for pair in two_part_pairs(n):
            realized_total_fiber(pair)
    assert calls == []


def _with_entry(monkeypatch, edge, entry, value):
    """realize_entries with one more entry on the edge between the vertices
    with the indices `edge`."""
    real = oracle.realize_entries

    def patched(src, dst):
        entries = real(src, dst)
        if (src.vertex.index, dst.vertex.index) == edge:
            entries = {**entries, entry: value}
        return entries

    monkeypatch.setattr(oracle, "realize_entries", patched)


@pytest.mark.parametrize(
    "pair, edge, entry, steps",
    [
        # the only step: upper coordinates 0 and 4 both hit lower row 0, so
        # the kernel is no coordinate set and the rank drops by one
        (((1, 2), (2, 1)), ((0,), (1,)), (0, 4), 1),
        # the first step of two: upper coordinates 0 and 1 both hit lower
        # row 0; the kernel keeps its coordinates, but its basis is now a
        # matrix, so the step after it eliminates as well
        (((1, 2), (1, 2)), ((0, 0), (0, 1)), (0, 1), 2),
    ],
)
def test_two_preimages_take_the_elimination_path(monkeypatch, pair, edge, entry, steps):
    """An edge with two upper coordinates on one lower row: that step, and
    every later step on its basis, eliminates, and the fiber is the one of
    the elimination path on the same edges."""
    _with_entry(monkeypatch, edge, entry, Fraction(2))
    ref = _eliminated_fiber(monkeypatch, pair)
    calls = _count_nullspaces(monkeypatch)
    got = realized_total_fiber(pair)
    assert len(calls) == steps
    _assert_same_fiber(got, ref, pair)


def test_edge_entry_outside_the_lower_basis_raises(monkeypatch, tmp_path):
    """An entry in an upper basis column of the last collapse edge of
    ((1,2),(1,2)) whose row lies outside the lower basis: the image leaves
    the subspace, as the elimination path reports, and check exits 3."""
    pair = ((1, 2), (1, 2))
    # the last step maps the basis coordinates 2..5 of vertex (0, 0) to
    # the coordinates 4..7 of vertex (1, 0)
    _with_entry(monkeypatch, ((0, 0), (1, 0)), (0, 2), Fraction(1))
    with pytest.raises(LinAlgError, match="image leaves the subspace"):
        _eliminated_fiber(monkeypatch, pair)
    with pytest.raises(LinAlgError, match="image leaves the subspace"):
        realized_total_fiber(pair)
    assert main(["check", "--n", "3", "--pair", "1,2;1,2",
                 "--json", str(tmp_path / "r.json")]) == 3
