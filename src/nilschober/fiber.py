"""
Iterated total fibers of Beck-Chevalley cubes via diagram sets.

Every vertex of the cube is spanned, over the coefficient module, by the
composed shuffle products of its functor word.  The collapse of an axis
takes kernels of split surjections, which at the diagram level is a set
difference: the lower vertex's products sit inside the upper vertex's, and
the kernel is spanned by the complement.  Collapsing layer-first and
then through the palindrome axes outermost-last drives every pair to an
empty residual or to the single total block crossing.

Both walks hold a vertex as (outer, K), outer = (cd, r): the products
E o K of the whole outer shuffle set E = Sh(cd, r) and a set K of inner
shuffles, so its size is |E| |K|.  A top vertex reads cd = pair[1], r
(row 3) and K off its word (`cubes.vertex_hom_layers`).  Products are
composed (`cubes.compose_shuffles`) only for the translations T below and
for the residual and `IntermediateCube.codes`.  When r_l refines r_u, a minimal
coset representative for S_{r_l} in S_cd factors uniquely through S_{r_u}
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, 2.4), so Sh(cd, r_l)
= Sh(cd, r_u) o Sh(r_u, r_l), and in the upper's coordinates

    E_l o K_l = E_u o (Sh(r_u, r_l) o K_l) = E_u o T.

So each collapse (`_collapse_step`) checks that r_l refines r_u, forms T
with a collision check, checks T <= K_u and keeps (outer_u, K_u - T).
That a lower vertex's outer side is the whole of E_u is the one fact the
walk does not check at run time; tier-1 pins it against the products of
`cubes.word_factorizations`.  At the layer the two vertices at one beta
share rows 3-4, hence (cd, r), and T = F1: their inner sets are F0 =
Sh(v00, v01) and F1 = Sh(v10, v11), where v10 and v11 are v00 and v01
with the delta1 cuts added.  An f in F1 keeps the v10 blocks, hence the
v00 ones, and is increasing on each v01 block, since a delta1 cut puts
its two halves in different v10 blocks.  So F1 lies in F0, and the layer
kernel is E o (F0 - F1) with no product built.

The collapses form a binary tree: each vertex of a lower level is the
difference of two vertices of the level above, and feeds one vertex
below it.  `total_fiber` walks that tree depth first, so it holds one
pending vertex per level instead of whole levels, and keeps only each
level's sizes and the residual.  An axis that no psi bit reads (the eta
axes of the AC_Unbal cubes) leaves every vertex as it is, so the walk
builds only its 0 side and copies the sizes to the 1 side.
`initial_cube` and `take_fiber_along` build whole levels, for the
readers of a level's sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product as iproduct

from .compositions import (
    Composition,
    Pair,
    PairCase,
    classify_pair,
    refinement_pairs,
    refines,
    total,
)
from .cubes import (
    CubeSpec,
    bc_word,
    build_bifactorization,
    compose_shuffles,
    shuffle_codes,
    vertex_hom_layers,
)
from .perms import Perm, block_cross, decode_sorted
from .shuffles import enumerate_shuffles, shuffle_count


class FiberError(ValueError):
    pass


class FiberContainmentError(FiberError):
    """The split-surjection containment (lower set inside upper set) failed;
    the attempted collapse order does not produce kernels as complements."""


Index = tuple[int, ...]
DiagramSet = tuple[Perm, ...]
Codes = frozenset[bytes]
Vertex = tuple[Pair, Codes]  # (outer layer (cd, r), inner codes K): Sh(cd, r) o K


@dataclass(frozen=True)
class IntermediateCube:
    """One stage of the iteration: `level` axes remain and every remaining
    index carries its vertex as (outer layer, inner codes)."""

    axes: tuple[str, ...]
    vertices: dict[Index, Vertex]

    @property
    def level(self) -> int:
        return len(self.axes)

    @cached_property
    def codes(self) -> dict[Index, Codes]:
        """Every vertex's diagrams as byte codes, composed E o K."""
        return {index: compose_shuffles(*v) for index, v in self.vertices.items()}

    @cached_property
    def vertex_sets(self) -> dict[Index, DiagramSet]:
        """Every vertex's diagrams as sorted one-line permutations."""
        return {index: decode_sorted(c) for index, c in self.codes.items()}


def collapse_order(cube: CubeSpec) -> list[str]:
    """Layer first, then the palindrome axes eps_{k}..eps_1, then the rest.

    The trailing (zeta/eta) axes may also be collapsed in reverse, with
    the same result.  Orders that move the layer later or permute the eps
    axes break the set-level containment and are rejected by
    `_collapse_step`.
    """
    axes = cube.bc_axes()
    eps = sorted(
        (a for a in axes if a.startswith("eps")),
        key=lambda a: -int(a.removeprefix("eps")),
    )
    tail = [a for a in axes if a != "layer" and not a.startswith("eps")]
    return ["layer", *eps, *tail]


def _top_vertex(spec: CubeSpec, beta: Index, layer: int) -> Vertex:
    """The Beck-Chevalley vertex at (beta, layer) as (outer layer, inner
    codes), read off its word; no product is composed."""
    outer, inner = vertex_hom_layers(bc_word(spec, beta, layer))
    return outer, shuffle_codes(*inner)


def initial_cube(pair: Pair) -> IntermediateCube:
    """The Beck-Chevalley cube itself, every vertex on its inner set."""
    spec = build_bifactorization(pair)
    vertices: dict[Index, Vertex] = {}
    for beta in iproduct((0, 1), repeat=spec.dim - 2):
        for layer in (0, 1):
            vertices[beta + (layer,)] = _top_vertex(spec, beta, layer)
    return IntermediateCube(spec.bc_axes(), vertices)


def take_fiber_along(cube: IntermediateCube, axis: str) -> IntermediateCube:
    """Collapse one axis: every kernel is the upper vertex minus the lower.

    Raises FiberContainmentError if some lower set is not contained in its
    upper set, i.e. if the split-surjection bookkeeping fails.
    """
    if axis not in cube.axes:
        raise FiberError(f"axis {axis!r} already exhausted in {cube.axes}")
    pos = cube.axes.index(axis)
    rest = cube.axes[:pos] + cube.axes[pos + 1 :]
    vertices: dict[Index, Vertex] = {}
    for index, upper in cube.vertices.items():
        if index[pos] != 0:
            continue
        lower = cube.vertices[index[:pos] + (1,) + index[pos + 1 :]]
        vertices[index[:pos] + index[pos + 1 :]] = _collapse_step(
            upper, lower, axis, index
        )
    return IntermediateCube(rest, vertices)


def _collapse_step(upper: Vertex, lower: Vertex, axis: str, index: Index) -> Vertex:
    """The kernel of collapsing `axis` at the upper vertex `index`, on inner
    sets (see the module docstring): the upper's outer layer, with K_u - T
    for T = Sh(r_u, r_l) o K_l.  Raises FiberContainmentError unless r_l
    refines r_u and T lies inside K_u."""
    (outer, k_u), ((_, r_l), k_l) = upper, lower
    r_u = outer[1]
    if r_u != r_l and not refines(r_u, r_l):
        raise FiberContainmentError(
            f"collapsing {axis} at {index}: {r_l} does not refine {r_u}"
        )
    t = k_l if r_u == r_l else compose_shuffles((r_u, r_l), k_l)
    kernel = k_u - t
    if len(kernel) + len(t) != len(k_u):
        missing = compose_shuffles(outer, t - k_u)
        raise FiberContainmentError(
            f"collapsing {axis} at {index}: {len(missing)} lower diagrams "
            f"missing from the upper set, e.g. {decode_sorted(missing)[0]}"
        )
    return outer, kernel


def _collapse(
    spec: CubeSpec, order: tuple[str, ...]
) -> tuple[Vertex, list[dict[Index, int]]]:
    """The residual vertex of the Beck-Chevalley cube of `spec`, collapsed
    along `order`, and the size of every vertex at every level, top first.

    Depth first: the vertex left after the first j collapses is the kernel
    of the two vertices left after j - 1 with order[j - 1] at 0 and at 1,
    and the leaves are the top vertices; only the pending upper vertex of
    each level is kept while its lower one is built.  An unread axis is
    walked once: its 1 side is the same vertex as its 0 side, so that
    vertex is collapsed with itself (an empty kernel, the containment check
    still run), and every size recorded below at the 0 side is also the
    size at the 1 side.
    """
    axes = spec.bc_axes()
    assert order[0] == axes[-1] == "layer", order
    remaining = [
        tuple(a for a in axes if a not in order[:j]) for j in range(len(axes) + 1)
    ]
    sizes: list[dict[Index, int]] = [{} for _ in remaining]
    bits = dict.fromkeys(axes, 0)
    unread = {
        a for i, a in enumerate(spec.axis_names)
        if not any(mask >> i & 1 for mask in spec.layout)
    }
    count = cache(shuffle_count)  # |E| per distinct outer layer of the pair

    def walk(j: int) -> Vertex:
        if j == 0:
            index = tuple(bits[a] for a in axes)
            vertex = _top_vertex(spec, index[:-1], index[-1])
        else:
            axis = order[j - 1]
            bits[axis] = 0
            index = tuple(bits[a] for a in remaining[j - 1])
            upper = walk(j - 1)
            if axis in unread:
                lower = upper
                for level, names in zip(sizes[:j], remaining):
                    pos = names.index(axis)
                    level.update([
                        (i[:pos] + (1,) + i[pos + 1 :], size)
                        for i, size in level.items() if i[pos] == 0
                    ])
            else:
                bits[axis] = 1
                lower = walk(j - 1)
            vertex = _collapse_step(upper, lower, axis, index)
        outer, inner = vertex
        sizes[j][tuple(bits[a] for a in remaining[j])] = count(*outer) * len(inner)
        return vertex

    return walk(len(axes)), sizes


@dataclass
class FiberReport:
    """Outcome of the total-fiber computation for one pair.

    `sizes` holds every level's vertex sizes by index, top level first, and
    `order` the axes in the order they were collapsed.  `levels` rebuilds
    the level cubes, with their sets, along that order when read.
    """

    pair: Pair
    case: PairCase
    order: tuple[str, ...]
    sizes: list[dict[Index, int]]
    verdict: str  # "Vanishes" | "FlipEquivalence" | "Other"
    residual: DiagramSet

    def level_table(self) -> list[tuple[int, list[tuple[Index, int]]]]:
        top = len(self.order)
        return [(top - k, sorted(level.items())) for k, level in enumerate(self.sizes)]

    @property
    def mirrored(self) -> bool:
        """Whether the pair is mirrored (a < c)."""
        return self.case.mirrored

    @cached_property
    def levels(self) -> list[IntermediateCube]:
        """Every level's cube, top first, built level at a time."""
        cube = initial_cube(self.pair)
        levels = [cube]
        for axis in self.order:
            cube = take_fiber_along(cube, axis)
            levels.append(cube)
        return levels


def total_fiber(pair: Pair) -> FiberReport:
    """Collapse the whole Beck-Chevalley cube of the pair, depth first.

    The report keeps each level's sizes and the residual; the level sets
    are rebuilt only when `levels` is read.

    >>> total_fiber(((2, 3), (2, 3))).verdict
    'Vanishes'
    >>> total_fiber(((1, 2), (2, 1))).verdict
    'FlipEquivalence'
    """
    spec = build_bifactorization(pair)
    order = tuple(collapse_order(spec))
    vertex, sizes = _collapse(spec, order)
    residual = decode_sorted(compose_shuffles(*vertex))
    return FiberReport(
        pair=pair,
        case=classify_pair(*pair),
        order=order,
        sizes=sizes,
        verdict=verdict_of(pair, residual),
        residual=residual,
    )


def verdict_of(pair: Pair, residual: DiagramSet) -> str:
    """The verdict a total fiber's residual gives: an empty one vanishes,
    the single block crossing of the pair is the flip equivalence."""
    if not residual:
        return "Vanishes"
    if residual == (block_cross(*pair[0]),):
        return "FlipEquivalence"
    return "Other"


def is_twist_pair(pair: Pair) -> bool:
    (a, b), (c, d) = pair
    return (c, d) == (b, a)


def check_recursiveness(n_total: int, comp: Composition, i: int) -> bool:
    """Restriction along slot i embeds a smaller schober: every restricted
    vertex is the composition with slot i refined in place, and every
    restricted edge's shuffle set is the sub-schober's, extended by the
    identity on the other slots."""
    if any(p < 1 for p in comp) or sum(comp) != n_total:
        raise FiberError(f"improper composition {comp} of {n_total}")
    if not 1 <= i <= len(comp):
        raise FiberError(f"slot {i} out of range for {comp}")
    if len(comp) == 1:
        return True
    offset = sum(comp[: i - 1])
    n_i = comp[i - 1]

    def embed_comp(tau: Composition) -> Composition:
        return comp[: i - 1] + tau + comp[i:]

    def embed_perm(w: Perm) -> Perm:
        out = list(range(1, n_total + 1))
        for p, v in enumerate(w, start=1):
            out[offset + p - 1] = offset + v
        return tuple(out)

    for sigma, tau in refinement_pairs(n_i):
        inner = enumerate_shuffles(sigma, tau)
        outer = enumerate_shuffles(embed_comp(sigma), embed_comp(tau))
        if set(outer) != {embed_perm(w) for w in inner}:
            return False
    return True


def check_far_commutativity(
    ab: Composition,
    c0: Composition,
    c1: Composition,
    d0: Composition,
    d1: Composition,
) -> bool:
    """Induce along the right slot, forget along the left, in both orders.

    True iff the two composite functors have the same shuffle index set and
    equal generator actions on the nil-Coxeter module of the source
    algebra, compared generator by generator as their nonzero entries: the
    one case of `far_commutativity_failures`.
    """
    a, b = ab
    if total(c0) != a or total(c1) != a or total(d0) != b or total(d1) != b:
        raise FiberError("compositions do not split the two blocks")
    if not refines(c0, c1) or not refines(d0, d1):
        raise FiberError("need c0 <= c1 and d0 <= d1")
    return not far_commutativity_failures([(ab, c0, c1, d0, d1)])


def far_commutativity_failures(cases: list[tuple]) -> list[tuple]:
    """The cases (ab, c0, c1, d0, d1) whose two routes differ, in the order
    given.  They are checked grouped by their source s = c0 + d1, read as
    one composition of n, so the splits ab share it (`_source_verdicts`);
    each generator list is built once per (n, block) for the whole call."""
    from .algebra import generators

    groups: dict[Composition, list[tuple]] = {}
    for case in cases:
        _, c0, _, _, d1 = case
        groups.setdefault(c0 + d1, []).append(case)
    gens = cache(generators)
    ok: dict[tuple, bool] = {}
    for source, group in groups.items():
        ok.update(_source_verdicts(source, group, gens))
    return [case for case in cases if not ok[case]]


def _source_verdicts(
    source: Composition, group: list[tuple], gens
) -> dict[tuple, bool]:
    """Whether each case of one source's group commutes.  Route a is
    HomSpace(c0 + d0, s), route b HomSpace(c1 + d0, c1 + d1), both over
    NilCoxeterModule(s).  The module, the routes and the entries of each
    generator on them are built once here and freed when it returns."""
    from .algebra import NilCoxeterModule
    from .oracle import HomSpace

    module = NilCoxeterModule(source)

    @cache
    def route(outer: Composition, inner: Composition):
        return HomSpace(outer, inner, module), {}

    def entries(side, g):
        space, table = side
        key = tuple(g.terms)  # the generator's one diagram
        if key not in table:
            table[key] = space.action_entries(g)
        return table[key]

    verdicts = {}
    for case in group:
        (a, b), c0, c1, d0, d1 = case
        route_a, route_b = route(c0 + d0, source), route(c1 + d0, c1 + d1)
        verdicts[case] = route_a[0].shuffles == route_b[0].shuffles and all(
            entries(route_a, g) == entries(route_b, g) for g in gens(a + b, c1 + d0)
        )
    return verdicts
