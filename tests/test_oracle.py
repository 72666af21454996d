"""The exact-matrix oracle: realized edges, kernels, adjunctions."""

from fractions import Fraction
from itertools import product as iproduct

import pytest

from nilschober import oracle
from nilschober.algebra import (
    AlgebraElement,
    NilCoxeterModule,
    TruncatedPolyModule,
    mirror_iso,
    module_decompose,
    s_generators,
)
from nilschober.compositions import all_compositions, refines
from nilschober.cubes import bc_vertex, build_bifactorization
from nilschober.fiber import collapse_order, total_fiber
from nilschober.linalg import (
    identity_matrix,
    mat_eq,
    mat_mul,
    nullspace,
    rank,
    solve_matrix,
    sparse_nullspace,
    zeros,
)
from nilschober.oracle import (
    HomSpace,
    OracleError,
    RealizedVertex,
    _intertwiner_basis,
    check_adjunction,
    check_bicartesian,
    flip_action_check,
    oracle_matches_diagram,
    realize_edge,
    realize_entries,
    realize_map,
    realized_total_fiber,
)
from nilschober.perms import compose
from nilschober.report import two_part_pairs


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
    real = oracle.realize_map
    sabotaged = []

    def top_without_ix(src, dst):
        m = real(src, dst)
        if (src.vertex.index, dst.vertex.index) == ((0, 0), (1, 0)):
            t = dst.module.dim
            ix_row = dst.block_index[(1, 3, 2)] * t
            for r in range(ix_row, ix_row + t):
                m[r] = [Fraction(0)] * len(m[r])
            sabotaged.append(src.vertex.index)
        return m

    monkeypatch.setattr(oracle, "realize_map", top_without_ix)
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
        mod = TruncatedPolyModule(pair[0], dot_bound=2, h_bound=2)
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
    report = total_fiber(((1, 2), (2, 1)))
    assert flip_action_check(((1, 2), (2, 1)), report)
    with pytest.raises(OracleError):
        flip_action_check(((1, 1), (1, 1)), report)


def test_flip_action_negative_control(monkeypatch):
    """The mirror map differs from the flip on crossings for (1,3)/(3,1)
    and must fail the kernel-action comparison."""
    assert flip_action_check(((1, 3), (3, 1)))
    monkeypatch.setattr(oracle, "flip_iso", mirror_iso)
    assert not flip_action_check(((1, 3), (3, 1)))


def test_adjunction_examples():
    assert check_adjunction((2,), (1, 1))
    assert check_adjunction((3,), (3,))  # sigma = tau: literally equal sides
    assert check_adjunction((3,), (1, 2))
    with pytest.raises(OracleError):
        check_adjunction((1, 2), (3,))


def test_adjunction_single_block_five_strands():
    """sigma = (5,): the largest intertwiner system, 14,400 unknowns."""
    assert check_adjunction((5,), (2, 3))


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
            if report.mirrored:
                # mirrored reports transport the sets; sizes still agree
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
    zero: at the identity shuffle it contributes a unit block or s_i."""
    for n, sigma, tau in _refinements(4):
        for rho in {sigma, tau}:
            space = HomSpace(sigma, tau, NilCoxeterModule(rho))
            for i in range(1, n + 1):
                m = space.action_matrix(AlgebraElement.x_gen(n, i, sigma))
                assert len(m) == space.dim
                assert all(len(row) == space.dim and not any(row) for row in m)
            for i in s_generators(sigma):
                m = space.action_matrix(AlgebraElement.s_gen(n, i, sigma))
                assert any(any(row) for row in m), (sigma, tau, rho, i)


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


def test_intertwiner_basis_from_entries_matches_dense_rows():
    """Both intertwiner systems of check_adjunction, for every refinement
    with n <= 4: the basis built from sparse entries equals the one built
    from dense rows, and every basis vector intertwines."""
    for n, sigma, tau in _refinements(4):
        m_mod, n_mod = NilCoxeterModule(sigma), NilCoxeterModule(tau)
        ind = HomSpace(sigma, tau, n_mod)
        gens_tau = [AlgebraElement.s_gen(n, i, tau) for i in s_generators(tau)]
        gens_tau += [AlgebraElement.x_gen(n, i, tau) for i in range(1, n + 1)]
        gens_sigma = [AlgebraElement.s_gen(n, i, sigma) for i in s_generators(sigma)]
        gens_sigma += [AlgebraElement.x_gen(n, i, sigma) for i in range(1, n + 1)]
        systems = [
            (gens_tau, m_mod.act_entries, m_mod.act_matrix,
             n_mod.act_entries, n_mod.act_matrix, n_mod.dim),
            (gens_sigma, m_mod.act_entries, m_mod.act_matrix,
             ind.action_entries, ind.action_matrix, ind.dim),
        ]
        for gens, dom_e, dom_m, cod_e, cod_m, dim_n in systems:
            dim_m = m_mod.dim
            dom = [dom_m(g) for g in gens]
            cod = [cod_m(g) for g in gens]
            basis = _intertwiner_basis(
                [dom_e(g) for g in gens], [cod_e(g) for g in gens], dim_m, dim_n
            )
            assert basis == _dense_intertwiner_basis(dom, cod, dim_m, dim_n)
            dense = basis.dense()
            assert len(dense) == dim_n * dim_m
            for k in range(basis.cols):
                f = [[dense[r * dim_m + c][k] for c in range(dim_m)] for r in range(dim_n)]
                for a_g, b_g in zip(dom, cod):
                    assert mat_eq(mat_mul(f, a_g), mat_mul(b_g, f))


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


def _accumulated_blocks(src, dst, g=None):
    """Reference: the map phi -> ((E', F') -> phi(g E')(F')) as a dense
    matrix, adding the module's act_matrix block of every y of the nested
    decompositions g E' = sum E_i x_i, x_i F' = sum F_j y into its place."""
    t = src.module.dim
    m = zeros(dst.dim, src.dim)
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
                    for r, block_row in enumerate(src.module.act_matrix(y)):
                        for c, v in enumerate(block_row):
                            m[row + r][col + c] += v
    return m


def _nonzero(m):
    return {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}


def test_edge_entries_match_block_accumulation():
    """Every edge of every cube with n <= 4 (the collapse edges among
    them), and the corner actions of the twist pairs: the entries equal
    the nonzero cells of the dense block accumulation."""
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
                        ref = _nonzero(_accumulated_blocks(top, bottom))
                        assert realize_entries(top, bottom) == ref, (pair, bits, pos)
                        edges += 1
            if pair[1] == pair[0][::-1]:
                corner = vertices[(0,) * dim]
                c, d = pair[1]
                gens = [AlgebraElement.s_gen(n, i, (c, d)) for i in s_generators((c, d))]
                gens += [AlgebraElement.x_gen(n, i, (c, d)) for i in range(1, n + 1)]
                for g in gens:
                    ref = _nonzero(_accumulated_blocks(corner, corner, g))
                    assert corner.action_entries(g) == ref, (pair, g)
    assert edges > 0


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
