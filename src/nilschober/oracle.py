"""
Independent exact-matrix verification of the fiber engine.

Vertices of Beck-Chevalley cubes are realized as coordinate spaces over a
finite-dimensional coefficient module (nil-Coxeter by default), and edge
maps as the nonzero entries of exact rational matrices.  One routine,
`_two_layer_entries`, builds every edge map and every action by
decomposing over the free right module structures NH_sigma = sum alpha
NH_tau; an induced module Ind N = Hom_{NH_tau}(NH_sigma, N) is a vertex
with a single induction step (`HomSpace`).  Nil-Coxeter coefficients see
NH only through its quotient by the dots and h, where that decomposition
is the parabolic factorization w = alpha o u of a permutation
(`_NilCoxeter`); every other module goes through `module_decompose` in NH
itself (`_NilHecke`).  Total fibers are iterated kernels, read off the
edge entries.  Each basis stays a set of coordinates while each lower
coordinate has at most one preimage under the restricted edge, and falls
back to elimination on row-sparse matrices otherwise.  Every check here,
the bicartesian square included, runs on those sparse entries; the dense
`realize_map` and `action_matrix` views are read by tests alone.
The coordinate collapse reads the realized entries of `_two_layer_entries`,
never the diagram engine's byte codes, and it checks containment and
surjectivity instead of assuming them.
The adjunction check fixes a map Res M -> N by its values at a few seeds.
On the default M, the nil-Coxeter module of sigma, it spins nothing: the
orbits of tau's crossings on M's cells are checked to be free and
disjoint, so Res M is one copy of the nil-Coxeter algebra of tau per
seed, and Hom_tau(Res M, N) one copy per seed of the part of N that the
dots and h kill (`_free_seeds`); M is cyclic on e_id, so
Hom_sigma(M, Ind N) is the part of Ind N that they kill; the comparison
reads one block of Ind N per seed through the parabolic factorization.
Orbits that are not free, and a caller-given M, take the spin of Res M
under the generator actions (`spin_hom`), and a caller-given M a second
spin, into Ind N.  Nothing here reuses the set-difference shortcut of
the diagram engine, so agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, prod

from .algebra import (
    AlgebraElement,
    NilCoxeterModule,
    PermTerms,
    flip_iso,
    generators,
    module_decompose,
    nil_coxeter_image,
    parabolic_decompose,
    s_generators,
)
from .compositions import Composition, Pair, refines, total
from .cubes import (
    BCVertex,
    bc_vertex,
    build_bifactorization,
    vertex_hom_layers,
    word_factorizations,
)
from .fiber import collapse_order
from .linalg import (
    ONE,
    Entries,
    LinAlgError,
    Matrix,
    SparseMatrix,
    SparseRow,
    _reduce,
    from_entries,
    sparse_mul,
    sparse_nullspace,
    sparse_rank,
    sparse_solve,
)
from .perms import Perm, adjacent_transposition, block_cross, compose, nil_product
from .shuffles import enumerate_shuffles


class OracleError(ValueError):
    pass


class _NilHecke:
    """Coefficients in NH itself: elements are `AlgebraElement`s, split over
    the shuffles by `module_decompose`; for modules where dots and h act."""

    @staticmethod
    def lift(g: AlgebraElement) -> AlgebraElement:
        return g

    @staticmethod
    def times_perm(
        x: AlgebraElement | None, w: Perm, block: Composition
    ) -> AlgebraElement:
        """x times the crossing diagram w of NH_block; x = None is 1."""
        y = AlgebraElement.from_perm(w, block)
        return y if x is None else x * y

    @staticmethod
    def split(
        coarse: Composition, fine: Composition, x: AlgebraElement
    ) -> dict[Perm, AlgebraElement]:
        return module_decompose(coarse, fine, x)

    @staticmethod
    def act(module, y: AlgebraElement) -> Entries:
        return module.act_entries(y)


class _NilCoxeter:
    """Coefficients in the nil-Coxeter quotient NH/(X_i = 0, h = 0), all a
    `NilCoxeterModule` sees: elements are lists of (permutation,
    coefficient) terms (`nil_coxeter_image`), products of crossings are
    `nil_product`, and NH_coarse = sum alpha NH_fine becomes the unique
    parabolic factorization w = alpha o u with lengths adding (Deodhar
    1977; Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4).  Each
    term lands in one block, with no rewriting; a dot acts by nothing."""

    lift = staticmethod(nil_coxeter_image)

    @staticmethod
    def times_perm(x: PermTerms | None, w: Perm, block: Composition) -> PermTerms:
        """x times the crossing diagram w; x = None is 1."""
        if x is None:
            return [(w, ONE)]
        out = []
        for wx, c in x:
            p = nil_product(wx, w)
            if p is not None:
                out.append((p, c))
        return out

    @staticmethod
    def split(
        coarse: Composition, fine: Composition, x: PermTerms
    ) -> dict[Perm, PermTerms]:
        """{alpha: [(u, c)]} in the shuffle order, as `module_decompose`."""
        out: dict[Perm, PermTerms] = {}
        for w, c in x:
            alpha, u = parabolic_decompose(w, fine)
            out.setdefault(alpha, []).append((u, c))
        return dict(sorted(out.items()))

    @staticmethod
    def act(module, y: PermTerms) -> Entries:
        return module.perm_entries(y)


def _coefficients(module):
    """The arithmetic that `module`'s actions need: the nil-Coxeter quotient
    for a `NilCoxeterModule`, NH for any other."""
    return _NilCoxeter if isinstance(module, NilCoxeterModule) else _NilHecke


class RealizedVertex:
    """A two-layer Hom space over a coefficient module T:
    Hom_{NH_outer_fine}(NH_cd, Hom_{NH_inner_fine}(NH_inner_coarse, T)).

    Coordinates follow the sorted composed-product order compose(E, F) of
    an outer shuffle E and an inner shuffle F, one module copy per
    product, so dimensions line up with the diagram model block by block.
    Built from a Beck-Chevalley vertex, whose word gives the layers
    (`vertex_hom_layers`) and whose products are checked against
    `word_factorizations`; `HomSpace` is the one-layer case.
    """

    def __init__(self, vertex: BCVertex, module):
        products = tuple(sorted(word_factorizations(vertex.word)))
        if products != vertex.products:
            raise OracleError(
                f"realized products disagree with the word products at "
                f"{vertex.index}"
            )
        self.vertex = vertex
        self._set_layers(vertex_hom_layers(vertex.word), products, module)

    def _set_layers(
        self, layers: tuple[Pair, Pair], products: tuple[Perm, ...], module
    ) -> None:
        (self.cd, self.outer_fine), (self.inner_coarse, self.inner_fine) = layers
        self.module = module
        self.e_set = enumerate_shuffles(self.cd, self.outer_fine)
        self.f_set = enumerate_shuffles(self.inner_coarse, self.inner_fine)
        self.products = products
        self.block_index = {w: i for i, w in enumerate(products)}

    @property
    def dim(self) -> int:
        return len(self.products) * self.module.dim

    def action_entries(self, g: AlgebraElement) -> Entries:
        """Right action of g in NH_cd: (phi.g)(E)(F) = phi(g E)(F).

        The output block at (E, F) draws from the input blocks (E_i, F_j)
        of the nested decompositions g E = sum E_i x_i, x_i F = sum F_j y.
        """
        return _two_layer_entries(self, self, g)

    def action_matrix(self, g: AlgebraElement) -> Matrix:
        """Right action of g: `action_entries`, dense."""
        return from_entries(self.action_entries(g), self.dim, self.dim)


class HomSpace(RealizedVertex):
    """Hom over NH_inner of maps NH_outer -> T, the induced module of T.

    A realized vertex with the layers ((outer, inner), (inner, inner)): one
    induction step, whose blocks are the (outer, inner)-shuffles in
    lexicographic order (`shuffles`, `index`).  Its right actions are the
    vertex actions: (phi.g)(alpha) = phi(g alpha) = sum phi(alpha') . y
    over the decomposition g alpha = sum alpha' y.
    """

    def __init__(self, outer: Composition, inner: Composition, module):
        if not refines(outer, inner):
            raise OracleError(f"{inner} does not refine {outer}")
        shuffles = enumerate_shuffles(outer, inner)
        self._set_layers(((outer, inner), (inner, inner)), shuffles, module)
        self.outer, self.inner = outer, inner
        self.shuffles, self.index = shuffles, self.block_index

    # bound in this class's own namespace, as perfbench/tracer.py patches it
    action_matrix = RealizedVertex.action_matrix


def realize_map(src: RealizedVertex, dst: RealizedVertex) -> Matrix:
    """The edge map between two realized vertices: `realize_entries`,
    dense."""
    return from_entries(realize_entries(src, dst), dst.dim, src.dim)


def realize_entries(src: RealizedVertex, dst: RealizedVertex) -> Entries:
    """Nonzero entries of the edge map between two realized vertices, rows
    refining rowwise.

    e(phi)(E')(F') is phi unwound through the source decompositions: E'
    splits over the source outer layer, the remainder times F' splits over
    the source inner layer, and the leftover coefficient acts on the
    module.

    Categorically a vertical edge is the three-step unit/comm/counit
    composite and a horizontal edge the seven-step chain (unit, comm,
    unit, comm, counit, func, func); in the abelian setting both collapse
    to exactly this restrict-and-recast formula, which is all the engine
    represents.
    """
    if src.module is not dst.module:
        raise OracleError("source and target must share a coefficient module")
    return _two_layer_entries(src, dst, None)


def _two_layer_entries(
    src: RealizedVertex, dst: RealizedVertex, g: AlgebraElement | None
) -> Entries:
    """Nonzero entries of phi -> ((E', F') -> phi(g E')(F')), from src to
    dst coordinates, decomposing over the src layers; g = None is the
    identity.  Edge maps, vertex actions and, through `HomSpace`, the
    actions of induced modules all come from here.  Both layers are split
    in the coefficients of the module (`_coefficients`); an E' whose g E'
    splits to nothing (a dot on a nil-Coxeter module) writes no row, and a
    g whose nil-Coxeter image is empty (a dot or h) writes none at all.
    Between one-layer vertices (inner_coarse == inner_fine, a `HomSpace`)
    the inner shuffles are the identity alone, and x_i lies in the inner
    algebra, so the inner split of x_i is {identity: x_i}: x_i acts
    directly, in either ring.  Distinct products give distinct blocks, and
    the module actions give one nonzero entry per cell, so on a well-formed
    vertex no two entries land on one coordinate; a second one raises
    `OracleError`."""
    module = src.module
    ring = _coefficients(module)
    dim_t = module.dim
    image = None if g is None else ring.lift(g)
    if g is not None and not image:
        return {}
    one_layer = (
        src.inner_coarse == src.inner_fine and dst.inner_coarse == dst.inner_fine
    )
    out: Entries = {}
    for e in dst.e_set:
        outer = ring.split(src.cd, src.outer_fine, ring.times_perm(image, e, src.cd))
        if not outer:
            continue
        for f in dst.f_set:
            r0 = dst.block_index[e if one_layer else compose(e, f)] * dim_t
            for e_i, x_i in outer.items():
                if one_layer:
                    pieces = ((e_i, x_i),)
                else:
                    inner = ring.split(
                        src.inner_coarse,
                        src.inner_fine,
                        ring.times_perm(x_i, f, src.inner_coarse),
                    )
                    pieces = [(compose(e_i, f_j), y) for f_j, y in inner.items()]
                for block, y in pieces:
                    c0 = src.block_index[block] * dim_t
                    for (r, c), v in ring.act(module, y).items():
                        key = (r0 + r, c0 + c)
                        if key in out:
                            raise OracleError(
                                f"two entries at coordinate {key}: blocks of "
                                f"distinct products overlap"
                            )
                        out[key] = v
    return out


@dataclass
class RealizedFiber:
    pair: Pair
    module_dim: int
    level_dims: list[dict[tuple[int, ...], int]]
    kernel: SparseMatrix  # columns span the fiber inside the 0-corner vertex
    corner: RealizedVertex
    split_surjective: bool


Basis = list[int] | SparseMatrix  # sorted coordinates, or spanning columns


def realized_total_fiber(pair: Pair, module=None) -> RealizedFiber:
    """Iterated exact kernels along the canonical collapse order.

    Subspaces are tracked as explicit bases inside the original vertices.
    Every collapse checks that the edge maps the upper kernel into the
    lower one (strict commutativity) and that the restricted map is onto
    (the split-surjection property at matrix level).

    A basis starts as the sorted list of all its vertex's coordinates and
    stays a coordinate list while each restricted map can be read off the
    edge entries (`_coordinate_collapse`): when every lower coordinate has
    at most one preimage among the upper ones, the kernel is the upper
    coordinates whose columns are empty.  This is read from the realized
    entries of `_two_layer_entries`, never from the diagram engine's byte
    codes, and containment and surjectivity are checked there, not
    assumed.  Any other step, and every later step from its basis on,
    eliminates: the restricted map is solved for over row-sparse matrices
    (coordinate lists as selection matrices), and its kernel gives both
    the new basis and its rank.
    """
    spec = build_bifactorization(pair)
    if module is None:
        module = NilCoxeterModule(pair[0])
    axes = spec.bc_axes()
    vertices: dict[tuple[int, ...], RealizedVertex] = {}
    for bits in iproduct((0, 1), repeat=len(axes)):
        vertices[bits] = RealizedVertex(
            bc_vertex(spec, bits[:-1], bits[-1]), module
        )
    state: dict[tuple[int, ...], tuple[tuple[int, ...], Basis]] = {
        bits: (bits, list(range(v.dim))) for bits, v in vertices.items()
    }
    remaining = list(axes)
    level_dims = [{bits: _width(basis) for bits, (_, basis) in state.items()}]
    split_ok = True
    for axis in collapse_order(spec):
        pos = remaining.index(axis)
        new_state = {}
        for index, (full_top, c_top) in state.items():
            if index[pos] != 0:
                continue
            low = index[:pos] + (1,) + index[pos + 1 :]
            full_bot, c_bot = state[low]
            top, bottom = vertices[full_top], vertices[full_bot]
            entries = realize_entries(top, bottom)
            step = None
            if isinstance(c_top, list) and isinstance(c_bot, list):
                step = _coordinate_collapse(entries, c_top, c_bot)
            if step is None:
                c_top, c_bot = _as_matrix(c_top, top.dim), _as_matrix(c_bot, bottom.dim)
                edge = SparseMatrix.from_entries(entries, bottom.dim, top.dim)
                restricted = sparse_solve(c_bot, sparse_mul(edge, c_top))
                ker = sparse_nullspace(restricted.rows, restricted.cols)
                step = sparse_mul(c_top, ker), c_top.cols - ker.cols
            basis, image_dim = step
            if image_dim != _width(c_bot):
                split_ok = False
            new_state[index[:pos] + index[pos + 1 :]] = (full_top, basis)
        state = new_state
        remaining.pop(pos)
        level_dims.append({bits: _width(basis) for bits, (_, basis) in state.items()})
    (full_index, kernel), = state.values()
    corner = vertices[full_index]
    return RealizedFiber(
        pair=pair,
        module_dim=module.dim,
        level_dims=level_dims,
        kernel=_as_matrix(kernel, corner.dim),
        corner=corner,
        split_surjective=split_ok,
    )


def _coordinate_collapse(
    entries: Entries, top: list[int], bottom: list[int]
) -> tuple[list[int], int] | None:
    """The kernel coordinates and the rank of the edge restricted to the
    coordinate bases `top` -> `bottom`, or None when some lower coordinate
    has two preimages among the upper ones.

    Only entries in an upper column count, and each must land in a lower
    coordinate.  With at most one entry per lower row, the nonempty upper
    columns have disjoint supports: they span the image, and the empty
    ones the kernel."""
    upper, lower = set(top), set(bottom)
    hit: dict[int, int] = {}
    for r, c in entries:
        if c not in upper:
            continue
        if r not in lower:
            raise LinAlgError("inconsistent system: image leaves the subspace")
        if r in hit:
            return None
        hit[r] = c
    used = set(hit.values())
    return [c for c in top if c not in used], len(used)


def _width(basis: Basis) -> int:
    return len(basis) if isinstance(basis, list) else basis.cols


def _as_matrix(basis: Basis, dim: int) -> SparseMatrix:
    """A basis as a (dim x width) matrix: coordinates become a selection."""
    if not isinstance(basis, list):
        return basis
    rows: list[SparseRow] = [{} for _ in range(dim)]
    for k, c in enumerate(basis):
        rows[c] = {k: ONE}
    return SparseMatrix(rows, len(basis))


def oracle_matches_diagram(
    pair: Pair, realized: RealizedFiber | None = None, report=None
) -> bool:
    """Criterion: matrix fiber dimension equals diagram rank x dim T at
    every level and every index, with as many levels on either side.

    `realized` (the pair's `realized_total_fiber`, over any module; over
    the nil-Coxeter module of `pair[0]` when not given) and `report` (its
    `total_fiber`), when given, are used instead of being computed again.
    """
    from .fiber import total_fiber

    if realized is None:
        realized = realized_total_fiber(pair)
    if report is None:
        report = total_fiber(pair)
    if realized.pair != pair or report.pair != pair:
        raise OracleError(f"fibers given for another pair than {pair}")
    if len(report.sizes) != len(realized.level_dims):
        return False
    for sizes, dims in zip(report.sizes, realized.level_dims):
        for index, size in sizes.items():
            if dims[index] != size * realized.module_dim:
                return False
    return realized.split_surjective


def flip_action_check(pair: Pair, realized: RealizedFiber | None = None) -> bool:
    """Verify the residual kernel's module action is the flip-twisted one.

    The total fiber of a twist pair is spanned by functionals supported on
    the single block-crossing diagram X; the right action of n then reads
    off as phi(X).psi(n) for psi the tensor flip.  Checked generator by
    generator on the nil-Coxeter module, as iota . restricted ==
    expected . iota on sparse rows.  `realized`, when given, is the pair's
    realized fiber on that nil-Coxeter module, used instead of being
    computed again, and its module is the one the check acts on.
    """
    (a, b), (c, d) = pair
    if (c, d) != (b, a):
        raise OracleError(f"flip check needs a twist pair, got {pair}")
    if realized is None:
        realized = realized_total_fiber(pair, NilCoxeterModule((a, b)))
    module = realized.corner.module
    if realized.pair != pair or not (
        isinstance(module, NilCoxeterModule) and module.tau == (a, b)
    ):
        raise OracleError(f"realized fiber is not {pair}'s on NH_{(a, b)}")
    kernel = realized.kernel
    if kernel.cols != module.dim:
        return False
    corner = realized.corner
    x_cross = block_cross(a, b)
    if x_cross not in corner.block_index:
        return False
    row0 = corner.block_index[x_cross] * module.dim
    iota = SparseMatrix(kernel.rows[row0 : row0 + module.dim], kernel.cols)
    if sparse_rank(iota.rows) != module.dim:
        return False
    for g in generators(total((a, b)), (c, d)):
        action = SparseMatrix.from_entries(
            corner.action_entries(g), corner.dim, corner.dim
        )
        try:
            restricted = sparse_solve(kernel, sparse_mul(action, kernel))
        except LinAlgError:
            return False
        expected = SparseMatrix.from_entries(
            module.act_entries(flip_iso(g)), module.dim, module.dim
        )
        if sparse_mul(iota, restricted) != sparse_mul(expected, iota):
            return False
    return True


def check_bicartesian(module=None) -> bool:
    """The ((1,2),(1,2)) Beck-Chevalley square is a bicartesian square of
    vector spaces: 0 -> A -> B + C -> D -> 0 is exact."""
    if module is None:
        module = NilCoxeterModule((1, 2))
    spec = build_bifactorization(((1, 2), (1, 2)))
    corner = {
        (z, layer): RealizedVertex(bc_vertex(spec, (z,), layer), module)
        for z in (0, 1)
        for layer in (0, 1)
    }
    v_a, v_b = corner[(0, 0)], corner[(1, 0)]
    v_c, v_d = corner[(0, 1)], corner[(1, 1)]

    def edge(src: RealizedVertex, dst: RealizedVertex) -> SparseMatrix:
        return SparseMatrix.from_entries(realize_entries(src, dst), dst.dim, src.dim)

    top, left = edge(v_a, v_b), edge(v_a, v_c)
    right, bottom = edge(v_b, v_d), edge(v_c, v_d)
    if sparse_mul(right, top) != sparse_mul(bottom, left):
        return False
    first = SparseMatrix(top.rows + left.rows, v_a.dim)  # stacked (B+C) x A
    # middle map (B + C) -> D: [right | -bottom]
    middle = SparseMatrix(
        [
            {**rr, **{v_b.dim + c: -x for c, x in rb.items()}}
            for rr, rb in zip(right.rows, bottom.rows)
        ],
        v_b.dim + v_c.dim,
    )
    rank_first = sparse_rank(first.rows)
    if rank_first != v_a.dim:
        return False
    if any(sparse_mul(middle, first).rows):
        return False
    rank_middle = sparse_rank(middle.rows)
    if rank_middle != v_d.dim:
        return False
    return v_b.dim + v_c.dim - rank_middle == rank_first


def check_adjunction(sigma: Composition, tau: Composition, m_mod=None, n_mod=None) -> bool:
    """Hom_tau(Res M, N) and Hom_sigma(M, Ind N) agree under evaluation.

    Every module is a right module: NH acts on M = NH_sigma/(X_i, h) by
    e_u . w = e_{u o w}, and on Ind N = Hom_{NH_tau}(NH_sigma, N) by
    (phi.g)(x) = phi(g x).  The canonical comparison map (evaluate at the
    identity shuffle) must be a bijection: the two dimensions agree and
    the comparison has full rank (`_adjunction_ranks`).

    On the default M = NilCoxeterModule(sigma) the check is structural
    and spins nothing: Res M is one free module over the nil-Coxeter
    algebra of tau per seed, so the tau side is one copy per seed of the
    part of N that the dots and h kill; the sigma side is the part of
    Ind N that they kill; both are all of the space on nil-Coxeter N, and
    the comparison reads one block of Ind N per seed.  What it still
    computes is the walk of M's tau-crossing cells, which checks that the
    orbits are free and disjoint, the X and h actions of N and Ind N, and
    the count of the comparison rank.  Orbits that are not free make it
    spin Res M; a caller-given M makes it spin both sides, and a dotted N
    makes it solve.
    """
    small, big, comparison = _adjunction_ranks(sigma, tau, m_mod, n_mod)
    return small == big == comparison


def _adjunction_ranks(
    sigma: Composition, tau: Composition, m_mod=None, n_mod=None
) -> tuple[int, int, int]:
    """dim Hom_tau(Res M, N), dim Hom_sigma(M, Ind N) and the rank of the
    comparison map from the second to the first.

    When M is not given, it is NilCoxeterModule(sigma).  Res M is then
    checked to be free over NC_tau = NH_tau/(X_i, h), one copy per orbit of
    the crossings inside tau's blocks (`_free_seeds`), so Hom_tau(Res M, N)
    is one copy per seed of the part of N that the dots and h kill; the
    sigma side and the comparison come from the universal property of M
    (`_cyclic_side`).  If the orbits are not free, Res M is spun under the
    tau generators (`spin_hom`) instead.  A caller-given M need not be
    cyclic, so it takes both spins: of Res M into N, and of M into Ind N
    under the sigma generators.
    """
    if not refines(sigma, tau):
        raise OracleError(f"{tau} does not refine {sigma}")
    n = total(sigma)
    cyclic = m_mod is None
    if cyclic:
        m_mod = NilCoxeterModule(sigma)
    if n_mod is None:
        n_mod = NilCoxeterModule(tau)
    kills = [AlgebraElement.x_gen(n, i, sigma) for i in range(1, n + 1)]
    kills.append(AlgebraElement.h_scalar(n, 1, sigma))
    seeds = _free_seeds(m_mod, tau) if cyclic else None
    if seeds is None:
        gens_tau = generators(n, tau)
        hom_small = spin_hom(
            [m_mod.act_entries(g) for g in gens_tau],
            [n_mod.act_entries(g) for g in gens_tau],
            m_mod.dim,
            n_mod.dim,
        )
        small, seeds = hom_small.kernel.cols, hom_small.seeds
    else:
        killed = sparse_nullspace(_action_rows(n_mod.act_entries, kills), n_mod.dim)
        small = len(seeds) * killed.cols
    ind = HomSpace(sigma, tau, n_mod)
    if cyclic:
        kernel, rows = _cyclic_side(ind, m_mod, seeds, kills)
    else:
        gens_sigma = generators(n, sigma)
        hom_big = spin_hom(
            [m_mod.act_entries(g) for g in gens_sigma],
            [ind.action_entries(g) for g in gens_sigma],
            m_mod.dim,
            ind.dim,
        )
        # comparison: F -> the identity-shuffle block of F, read off the
        # images F b_i of the spun basis (a basis of M), times the kernel
        row0 = ind.index[tuple(range(1, n + 1))] * n_mod.dim
        rows = [
            image[r]
            for image in hom_big.images
            for r in range(row0, row0 + n_mod.dim)
            if r in image
        ]
        kernel = hom_big.kernel
    return small, kernel.cols, _comparison_rank(rows, kernel)


def _free_seeds(m_mod: NilCoxeterModule, tau: Composition) -> list[int] | None:
    """The seeds of Res M as a free module over NC_tau = NH_tau/(X_i, h),
    or None when M's cells do not show it free.

    The orbits are walked on M's cells of the crossings s_i inside tau's
    blocks, read as index maps.  An orbit opens at the first coordinate
    that no earlier orbit reached, the seed rule of `spin_hom`, so the
    seeds are the spin's.  Dots and h kill M, so x -> e_seed . x factors
    through NC_tau, and its image is the orbit's span.  When every orbit
    has prod(tau_i!) = dim NC_tau coordinates and no two orbits meet, each
    of these maps is onto a space of its own dimension, so an isomorphism,
    and Res M is the direct sum of one NC_tau per seed (by the parabolic
    factorization w = alpha o u, the seeds are the shuffles alpha).  None
    when a cell map is not a partial permutation, an orbit has another
    size, or two orbits meet."""
    maps = []
    for i in s_generators(tau):
        cells = m_mod._action_cells(adjacent_transposition(m_mod.n, i))
        moves = {c: r for r, c in cells}
        if len(moves) < len(cells) or len(set(moves.values())) < len(moves):
            return None
        maps.append(moves)
    size = prod(factorial(part) for part in tau)
    owner = [-1] * m_mod.dim
    seeds: list[int] = []
    for e in range(m_mod.dim):
        if owner[e] >= 0:
            continue
        k = len(seeds)
        seeds.append(e)
        owner[e] = k
        orbit = [e]
        for c in orbit:
            for moves in maps:
                r = moves.get(c)
                if r is None or owner[r] == k:
                    continue
                if owner[r] >= 0:
                    return None
                owner[r] = k
                orbit.append(r)
        if len(orbit) != size:
            return None
    return seeds


def _action_rows(entries_of, gens: list[AlgebraElement]) -> list[SparseRow]:
    """The nonzero rows of every generator's action, one list."""
    return [row for g in gens for row in _by_row(entries_of(g)).values()]


def _cyclic_side(
    ind: HomSpace,
    m_mod: NilCoxeterModule,
    seeds: list[int],
    kills: list[AlgebraElement],
) -> tuple[SparseMatrix, list[SparseRow]]:
    """Hom_sigma(M, Ind N) for M = NilCoxeterModule(sigma), as a kernel
    over the coordinates of Ind N, and the comparison as rows over them,
    one per value of a tau-map Res M -> N at the seeds (of `_free_seeds`
    or of the Res-side spin): row k*dim N + r is coordinate r of the value
    at seed k.

    M is generated by e_id, and the annihilator of e_id is the right ideal
    of the dots and h (`kills`: X_1 ... X_n and h), the quotient that
    defines M.  So F -> v = F(e_id) identifies the Hom space with
    {v in Ind N : v.X_i = 0, v.h = 0}: the kernel of the rows of those
    actions of Ind N alone.  Evaluation sends F to the tau-map
    e_w -> F(e_w)(id) = (v.w)(id) = v(w), which is fixed by its values at
    the seeds.  With w = alpha o u
    (`parabolic_decompose`), v(w) = v(alpha).u: the rows of seed e_w read
    block alpha of v, acted on by u in N.
    """
    tau, n_mod = ind.inner, ind.module
    ring = _coefficients(n_mod)
    rows: list[SparseRow] = []
    for seed in seeds:
        alpha, u = parabolic_decompose(m_mod.basis[seed], tau)
        c0 = ind.index[alpha] * n_mod.dim
        act = ring.act(n_mod, ring.times_perm(None, u, tau))
        rows.extend(
            {c0 + c: x for c, x in row.items()}
            for row in SparseMatrix.from_entries(act, n_mod.dim, n_mod.dim).rows
        )
    return sparse_nullspace(_action_rows(ind.action_entries, kills), ind.dim), rows


def _comparison_rank(rows: list[SparseRow], kernel: SparseMatrix) -> int:
    """Rank of rows @ kernel.  When every row of both has at most one term,
    as from `_cyclic_side` on nil-Coxeter N, so has every row of the
    product, and its rank is the number of distinct kernel columns that
    the rows reach; any other input is multiplied out and eliminated."""
    if any(len(row) > 1 for row in rows) or any(len(k) > 1 for k in kernel.rows):
        return sparse_rank(sparse_mul(SparseMatrix(rows, len(kernel.rows)), kernel).rows)
    return len({j for row in rows for u in row for j in kernel.rows[u]})


@dataclass
class SpunHom:
    """Hom(M, N) over a set of generator actions, found by spinning.

    `basis` holds the spun vectors b_i of M ({coordinate: value}), which
    form a basis of M; `images` holds their images F b_i in N as
    {row of N: row over the unknowns}; `kernel` holds the solutions, as
    the columns of a matrix over the unknowns.  Seed k of the spin owns the
    unknowns k*dim N ... (k+1)*dim N - 1: its image, coordinate by
    coordinate.  `seeds` holds the coordinate e of each seed's basis vector
    e_e, in that order, so a solution is the map's values at the seeds.
    """

    basis: list[SparseRow]
    images: list[dict[int, SparseRow]]
    kernel: SparseMatrix
    seeds: list[int]


def spin_hom(
    dom_actions: list[Entries], cod_actions: list[Entries], dim_m: int, dim_n: int
) -> SpunHom:
    """The maps F: M -> N with F A_g = B_g F for every generator g, by
    spinning (the MeatAxe technique: Parker 1984, Holt-Rees 1994).

    Standard basis vectors of M are spun under the actions A_g, and the
    first one outside the span of all spun vectors so far opens a new seed,
    whose image is dim N fresh unknowns; M need not be cyclic.  A spun
    vector A_g b_i that is new becomes a basis vector with image B_g L_i,
    where L_i is the image of b_i; one inside the span, A_g b_i = sum c_l
    b_l, gives the relation B_g L_i - sum c_l L_l = 0, dim N equation rows
    over the unknowns.

    The kernel of the relations is the Hom space: a solution fixes F on
    the spun basis, and there every F A_g b_i = B_g F b_i holds either by
    construction or by a relation.  There are seeds * dim N unknowns
    instead of the dim M * dim N of the full intertwiner system.

    The spin runs on Fraction rows, for any actions.  The span is kept in
    echelon form, each row extended by its expression in the spun basis
    (the columns from dim M on), which gives the relation of a spun vector
    inside the span.
    """
    a_cols = [_by_column(a) for a in dom_actions]
    b_cols = [_by_column(b) for b in cod_actions]
    pivots: dict[int, SparseRow] = {}
    basis: list[SparseRow] = []
    images: list[dict[int, SparseRow]] = []
    equations: list[SparseRow] = []

    def place(vec: SparseRow, image: dict[int, SparseRow]) -> SparseRow | None:
        """Add vec to the spun basis if it is new (None); otherwise return
        its relation {basis index: coefficient}, vec itself at index
        len(basis)."""
        row = {**vec, dim_m + len(basis): ONE}
        c = _reduce(row, pivots)  # never None: the last column is no pivot
        if c < dim_m:
            inv = ONE / row[c]
            pivots[c] = {k: v * inv for k, v in row.items()}
            basis.append(vec)
            images.append(image)
            return None
        return {t - dim_m: v for t, v in row.items()}

    seeds: list[int] = []
    for e in range(dim_m):
        if len(basis) == dim_m:
            break
        i = len(basis)
        seed_image = {r: {len(seeds) * dim_n + r: ONE} for r in range(dim_n)}
        if place({e: ONE}, seed_image) is not None:
            continue
        seeds.append(e)
        while i < len(basis):
            for a, b in zip(a_cols, b_cols):
                vec: SparseRow = {}
                for c, v in basis[i].items():
                    _accumulate(vec, v, a.get(c, {}))
                image = _times(b, images[i])
                relation = place({k: v for k, v in vec.items() if v}, image)
                if relation is None:
                    continue
                lhs: dict[int, SparseRow] = {}
                for t, v in relation.items():
                    for r, row in (image if t == len(basis) else images[t]).items():
                        _accumulate(lhs.setdefault(r, {}), v, row)
                equations.extend(_nonzero_rows(lhs).values())
            i += 1
    kernel = sparse_nullspace(equations, len(seeds) * dim_n)
    return SpunHom(basis, images, kernel, seeds)


def _by_column(entries: Entries) -> dict[int, SparseRow]:
    cols: dict[int, SparseRow] = {}
    for (r, c), v in entries.items():
        cols.setdefault(c, {})[r] = v
    return cols


def _by_row(entries: Entries) -> dict[int, SparseRow]:
    rows: dict[int, SparseRow] = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _times(cols: dict[int, SparseRow], rows: dict[int, SparseRow]) -> dict[int, SparseRow]:
    """The product of a matrix given by its columns and one given by its
    nonzero rows, as nonzero rows."""
    out: dict[int, SparseRow] = {}
    for k, row in rows.items():
        for r, f in cols.get(k, {}).items():
            _accumulate(out.setdefault(r, {}), f, row)
    return _nonzero_rows(out)


def _accumulate(acc: SparseRow, f: Fraction, row: SparseRow) -> None:
    """acc += f * row in place; entries that cancel stay, as zeros."""
    if f == 1:
        for k, x in row.items():
            acc[k] = acc[k] + x if k in acc else x
    else:
        for k, x in row.items():
            acc[k] = acc[k] + f * x if k in acc else f * x


def _nonzero_rows(rows: dict[int, SparseRow]) -> dict[int, SparseRow]:
    out = {}
    for r, row in rows.items():
        row = {k: v for k, v in row.items() if v}
        if row:
            out[r] = row
    return out
