"""The set-difference fiber engine and the structural axiom checks."""

import hashlib
import json
import weakref
from itertools import permutations, product
from math import comb

import pytest

from level_model import LevelParams, level_codes, reverse_conjugate
from nilschober.compositions import (
    all_compositions,
    classify_pair,
    mirror_pair,
    refines,
)
import nilschober.algebra as algebra
import nilschober.cubes as cubes
import nilschober.fiber as fiber
import nilschober.oracle as oracle
import nilschober.report as report
from nilschober.fiber import (
    FiberContainmentError,
    FiberError,
    check_far_commutativity,
    check_recursiveness,
    collapse_order,
    initial_cube,
    is_twist_pair,
    take_fiber_along,
    total_fiber,
    verdict_of,
)
from nilschober.cubes import (
    CubeError,
    bc_vertex,
    bc_word,
    build_bifactorization,
    compose_shuffles,
    word_factorizations,
)
from nilschober.oracle import HomSpace
from nilschober.perms import block_cross
from nilschober.report import build_report, report_ok, to_json, two_part_pairs


def test_initial_cube_worked_example():
    cube = initial_cube(((2, 3), (2, 3)))
    sizes = {i: len(s) for i, s in cube.vertex_sets.items()}
    assert sizes == {
        (0, 0, 0): 10, (1, 0, 0): 12, (0, 1, 0): 18, (1, 1, 0): 24,
        (0, 0, 1): 1, (1, 0, 1): 6, (0, 1, 1): 3, (1, 1, 1): 12,
    }


def test_initial_cube_nh3_swap():
    cube = initial_cube(((1, 2), (2, 1)))
    assert cube.vertex_sets[(0,)] == ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    assert cube.vertex_sets[(1,)] == ((1, 2, 3), (2, 1, 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_bottom_all_ones_is_identity_only_refinement(n):
    """At the bottom-most all-ones index the inner refinement is identity
    only, so the set size is the multinomial shuffle count of the word's
    middle row (for the a = c families, where rows 2-4 coincide)."""
    from nilschober.shuffles import shuffle_count

    for pair in two_part_pairs(n):
        if pair[0][0] != pair[1][0]:
            continue
        spec = build_bifactorization(pair)
        cube = initial_cube(pair)
        ones_beta = (1,) * (spec.dim - 2)
        word = bc_vertex(spec, ones_beta, 1).word
        assert word.rows[1] == word.rows[2] == word.rows[3]
        assert len(cube.vertex_sets[ones_beta + (1,)]) == shuffle_count(
            pair[1], word.rows[1]
        )


def test_worked_example_level_tables():
    rep = total_fiber(((2, 3), (2, 3)))
    tables = {level: dict(entries) for level, entries in rep.level_table()}
    assert tables[3] == {
        (0, 0, 0): 10, (1, 0, 0): 12, (0, 1, 0): 18, (1, 1, 0): 24,
        (0, 0, 1): 1, (1, 0, 1): 6, (0, 1, 1): 3, (1, 1, 1): 12,
    }
    assert tables[2] == {(0, 0): 9, (1, 0): 6, (0, 1): 15, (1, 1): 12}
    assert tables[1] == {(0,): 3, (1,): 3}
    assert tables[0] == {(): 0}
    assert rep.verdict == "Vanishes"


def test_worked_example_b1_diagrams():
    rep = total_fiber(((2, 3), (2, 3)))
    b1 = rep.levels[2]
    expected = ((3, 4, 1, 2, 5), (3, 5, 1, 2, 4), (4, 5, 1, 2, 3))
    assert b1.vertex_sets[(0,)] == expected
    assert b1.vertex_sets[(1,)] == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_defect_vanishing_sweep(n):
    for pair in two_part_pairs(n):
        if not is_twist_pair(pair):
            assert total_fiber(pair).verdict == "Vanishes", pair


@pytest.mark.parametrize("n", range(2, 7))
def test_twist_invertibility_sweep(n):
    for pair in two_part_pairs(n):
        if is_twist_pair(pair):
            rep = total_fiber(pair)
            assert rep.verdict == "FlipEquivalence", pair
            assert rep.residual == (block_cross(*pair[0]),), pair


@pytest.mark.parametrize("n", range(2, 7))
def test_rank_accounting(n):
    """rank(child) = rank(top) - rank(bottom) at every collapse, on top of
    the containment check the engine itself enforces."""
    for pair in two_part_pairs(n):
        rep = total_fiber(pair)
        for parent, child in zip(rep.levels, rep.levels[1:]):
            axis_pos = next(
                i for i, a in enumerate(parent.axes) if a not in child.axes
            )
            for index, dset in child.vertex_sets.items():
                top = index[:axis_pos] + (0,) + index[axis_pos:]
                bottom = index[:axis_pos] + (1,) + index[axis_pos:]
                assert len(dset) == len(parent.vertex_sets[top]) - len(
                    parent.vertex_sets[bottom]
                )


def test_mirrored_pairs_report_mirror():
    rep = total_fiber(((1, 2), (2, 1)))
    assert rep.mirrored
    assert rep.verdict == "FlipEquivalence"
    # the residual is W = [3,1,2], the crossing of blocks (1)(2,3)
    assert rep.residual == ((3, 1, 2),)
    assert not total_fiber(((2, 1), (1, 2))).mirrored


def _conjugated(dset):
    return tuple(sorted(reverse_conjugate(w) for w in dset))


@pytest.mark.parametrize("n", range(2, 10))
def test_mirrored_levels_are_conjugates(n):
    """Every level of a mirrored pair, collapsed on its own cube, is its
    mirror pair's level with each diagram conjugated by the order
    reversal, in the same collapse order and with the same sizes."""
    mirrored = [p for p in two_part_pairs(n) if classify_pair(*p).mirrored]
    assert mirrored or n == 2
    for pair in mirrored:
        rep = total_fiber(pair)
        ref = total_fiber(mirror_pair(pair))
        assert rep.mirrored and not ref.mirrored
        assert rep.order == ref.order and rep.sizes == ref.sizes, pair
        assert len(rep.levels) == len(ref.levels)
        for cube, ref_cube in zip(rep.levels, ref.levels):
            assert cube.axes == ref_cube.axes
            assert cube.vertex_sets == {
                index: _conjugated(dset)
                for index, dset in ref_cube.vertex_sets.items()
            }, (pair, cube.level)
        assert rep.residual == _conjugated(ref.residual)
        assert rep.level_table() == ref.level_table()


def _level_params(c, m, i, index):
    """The model's level data at one engine vertex of ((c, c+m), (c, c+m))
    after i collapses, and whether the vertex holds the primed sets.

    Level 0 reads (beta_1 .. beta_{c-1}, tail, layer), and the layer bit
    selects the primed variant.  Level i in 1..c-1 reads (beta_1 ..
    beta_{c-i}, tail), and its last palindrome bit selects it.  The
    terminal level c reads the tail alone.
    """
    if i == c:
        return LevelParams(c, m, c, (), index), False
    if i == 0:
        return LevelParams(c, m, 0, index[: c - 1], index[c - 1 : -1]), index[-1] == 1
    head, bit, tail = index[: c - i - 1], index[c - i - 1], index[c - i :]
    return LevelParams(c, m, i, head, tail), bit == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_level_model_matches_engine_codes(n):
    """The engine's codes at every vertex of levels 0..c equal the model's
    composed Anycross x Mincross products (`level_codes`), built without
    any set difference: every AC pair ((c, c+m), (c, c+m)) with m >= 1 up
    to 9 strands, and the twist pairs ((c, c), (c, c)) (m = 0) up to
    c = 5.  The model stops at the terminal level c: the levels below it
    collapse the zeta and eta axes, which it does not describe."""
    shapes = [
        (c, n - 2 * c)
        for c in range(1, n // 2 + 1)
        if (n - 2 * c >= 1 and n <= 9) or (n == 2 * c and c <= 5)
    ]
    assert shapes
    for c, m in shapes:
        rep = total_fiber(((c, c + m), (c, c + m)))
        for i in range(c + 1):
            for index, codes in rep.levels[i].codes.items():
                assert level_codes(*_level_params(c, m, i, index)) == codes, (
                    (c, m), i, index,
                )


def test_terminal_cardinality():
    for c, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        pair = ((c, c + m), (c, c + m))
        rep = total_fiber(pair)
        terminal = next(cube for cube in rep.levels if cube.level == m)
        for dset in terminal.vertex_sets.values():
            assert len(dset) == comb(c + m, c)


def _level_at_a_time(pair):
    """(level table, residual) of the pair, collapsed one whole level at a
    time with initial_cube and take_fiber_along."""
    cube = initial_cube(pair)
    table = []
    for axis in [*collapse_order(build_bifactorization(pair)), None]:
        table.append((cube.level, sorted((i, len(c)) for i, c in cube.codes.items())))
        if axis is not None:
            cube = take_fiber_along(cube, axis)
    return table, cube.vertex_sets[()]


@pytest.mark.parametrize("n", range(2, 10))
def test_depth_first_matches_level_at_a_time(n):
    for pair in two_part_pairs(n):
        rep = total_fiber(pair)
        table, residual = _level_at_a_time(pair)
        assert rep.level_table() == table, pair
        assert rep.residual == residual, pair
        assert rep.verdict == verdict_of(pair, residual), pair
        assert rep.mirrored == classify_pair(*pair).mirrored, pair


def test_each_top_vertex_built_once(monkeypatch):
    """Each distinct top vertex is built once, on its inner set, and no
    Beck-Chevalley vertex is built whole.  No mask of the layout reads an
    eta axis, so the 1 side of one repeats its 0 side and is not built:
    with u such axes a pair builds 2^(d - u) top vertices, all with those
    axes at 0, and still records a size at all 2^d top vertices."""
    real = fiber._top_vertex
    vertices = []
    monkeypatch.setattr(cubes, "bc_vertex", lambda *args: vertices.append(args))
    for pair, u in [(((2, 3), (2, 3)), 0), (((1, 2), (2, 1)), 0),
                    (((2, 4), (2, 4)), 1), (((3, 4), (3, 4)), 0),
                    (((2, 2), (1, 3)), 0), (((1, 4), (3, 2)), 0),
                    (((1, 4), (1, 4)), 2), (((1, 9), (1, 9)), 7)]:
        calls = []

        def counted(spec, beta, layer):
            calls.append(beta + (layer,))
            return real(spec, beta, layer)

        monkeypatch.setattr(fiber, "_top_vertex", counted)
        rep = total_fiber(pair)
        spec = build_bifactorization(pair)
        read = [any(mask >> i & 1 for mask in spec.layout) for i in range(spec.dim)]
        unread = [i - 2 for i in range(2, spec.dim) if not read[i]]
        d = len(rep.order)
        assert len(unread) == u, pair
        assert len(calls) == len(set(calls)) == 2 ** (d - u), pair
        assert not [call for call in calls if any(call[i] for i in unread)], pair
        assert len(rep.sizes[0]) == 2**d
    assert vertices == []


def test_sweep_n10_digest():
    """The 10-strand sweep, at the size the benchmark runs: the SHA-256 of
    the per-pair digests of perfbench's sweep-n10 (verdict, mirror flag,
    residual and level table), one per line in pair order."""
    lines = []
    for pair in two_part_pairs(10):
        rep = total_fiber(pair)
        text = json.dumps(
            [rep.verdict, rep.mirrored, rep.residual, rep.level_table()],
            separators=(",", ":"),
        )
        lines.append(hashlib.sha256(text.encode()).hexdigest())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d39c22570a1981cc0111491e1d3d5e8f8edc1e154ef73286e5ac2b8ca3a645fc"
    )


def test_broken_lower_vertex_fails_containment(monkeypatch):
    """A top vertex missing a code that its kernel passes on to a lower
    vertex of the next collapse fails there, on both walks.  The two top
    vertices at beta = (1, 0) are read on the one-shuffle outer layer
    (cd, cd), whose inner set is the whole product set, so that the layer-1
    vertex can lose a single code."""
    real = fiber._top_vertex

    def dropping(spec, beta, layer):
        vertex = real(spec, beta, layer)
        if beta != (1, 0):
            return vertex
        cd, codes = vertex[0][0], compose_shuffles(*vertex)
        return (cd, cd), codes - {min(codes)} if layer else codes

    monkeypatch.setattr(fiber, "_top_vertex", dropping)
    message = (
        r"^collapsing eps1 at \(0, 0\): 1 lower diagrams missing from the "
        r"upper set, e\.g\. \(1, 2, 3, 4, 5\)$"
    )
    with pytest.raises(FiberContainmentError, match=message):
        total_fiber(((2, 3), (2, 3)))
    with pytest.raises(FiberContainmentError, match=message):
        _level_at_a_time(((2, 3), (2, 3)))


@pytest.mark.parametrize("n", range(2, 9))
def test_layer_kernel_is_the_difference_of_the_layer_vertices(n):
    """For every beta of every pair, the two layer vertices share their
    outer layer, and the layer collapse leaves the upper vertex's products
    minus the lower one's."""
    for pair in two_part_pairs(n):
        spec = build_bifactorization(pair)
        for beta in product((0, 1), repeat=spec.dim - 2):
            upper, lower = (fiber._top_vertex(spec, beta, layer) for layer in (0, 1))
            top, bottom = (bc_vertex(spec, beta, layer).codes for layer in (0, 1))
            kernel = fiber._collapse_step(upper, lower, "layer", beta + (0,))
            assert upper[0] == lower[0] == kernel[0], (pair, beta)
            assert compose_shuffles(*upper) == top, (pair, beta)
            assert compose_shuffles(*lower) == bottom, (pair, beta)
            assert compose_shuffles(*kernel) == top - bottom, (pair, beta)


def test_layer_kernel_refuses_a_lower_inner_shuffle_outside_the_upper_ones(
    monkeypatch,
):
    """A lower word whose inner shuffles are every permutation breaks
    F1 <= F0 at the first beta; the walk stops there, before any product."""
    real = fiber.vertex_hom_layers
    words = []

    def widened(word):
        words.append(word)
        outer, inner = real(word)
        if len(words) % 2:
            return outer, inner
        return outer, ((5,), (1,) * 5)  # every permutation of 5 strands

    monkeypatch.setattr(fiber, "vertex_hom_layers", widened)
    with pytest.raises(
        FiberContainmentError,
        match=r"^collapsing layer at \(0, 0, 0\): 110 lower diagrams missing "
        r"from the upper set, e\.g\. \(1, 2, 3, 5, 4\)$",
    ):
        total_fiber(((2, 3), (2, 3)))


def test_widened_lower_inner_set_fails_the_next_translation(monkeypatch):
    """A layer-1 word given its layer-0 word's inner layer (F1 = F0) passes
    the layer collapse with an empty kernel, so the eps1 step, a translation
    (r_u = (2, 3), r_l = (1, 1, 1, 2)), finds T outside K_u on both walks."""
    pair = ((2, 3), (2, 3))
    spec = build_bifactorization(pair)
    real = fiber.vertex_hom_layers
    target = bc_word(spec, (0, 0), 1)
    widened = real(bc_word(spec, (0, 0), 0))[1]

    def layers(word):
        outer, inner = real(word)
        return (outer, widened) if word == target else (outer, inner)

    monkeypatch.setattr(fiber, "vertex_hom_layers", layers)
    message = (
        r"^collapsing eps1 at \(0, 0\): 6 lower diagrams missing from the "
        r"upper set, e\.g\. \(1, 3, 2, 4, 5\)$"
    )
    with pytest.raises(FiberContainmentError, match=message):
        total_fiber(pair)
    cube = take_fiber_along(initial_cube(pair), "layer")
    with pytest.raises(FiberContainmentError, match=message):
        take_fiber_along(cube, "eps1")


_ID3 = bytes((1, 2, 3))


def test_collapse_step_refuses_a_lower_outer_layer_that_does_not_refine():
    upper = ((3,), (1, 2)), frozenset({_ID3})
    lower = ((3,), (2, 1)), frozenset({_ID3})
    with pytest.raises(
        FiberContainmentError,
        match=r"^collapsing eps1 at \(0,\): \(2, 1\) does not refine \(1, 2\)$",
    ):
        fiber._collapse_step(upper, lower, "eps1", (0,))


def test_collapse_step_refuses_a_translation_outside_the_upper_set():
    """T = Sh((1, 2), (1, 1, 1)) o {id} = {123, 132}, and 132 is not in
    K_u = {id}: the message names the missing products E_u o {132}."""
    upper = ((3,), (1, 2)), frozenset({_ID3})
    lower = ((3,), (1, 1, 1)), frozenset({_ID3})
    with pytest.raises(
        FiberContainmentError,
        match=r"^collapsing eps1 at \(0,\): 3 lower diagrams missing from the "
        r"upper set, e\.g\. \(1, 3, 2\)$",
    ):
        fiber._collapse_step(upper, lower, "eps1", (0,))


def test_collapse_step_refuses_colliding_translations():
    """With K_l = {123, 132}, the translation 132 o 132 is 123 o 123."""
    every = frozenset(map(bytes, permutations((1, 2, 3))))
    upper = ((3,), (1, 2)), every
    lower = ((3,), (1, 1, 1)), frozenset({_ID3, bytes((1, 3, 2))})
    with pytest.raises(CubeError, match="^2 shuffle products collide"):
        fiber._collapse_step(upper, lower, "eps1", (0,))


@pytest.mark.parametrize("n", range(2, 10))
def test_walk_matches_product_set_differences(n):
    """The fact the walk does not check at run time, that a lower vertex's
    outer side is the whole of the upper's: at every vertex of every level,
    E o K equals the plain set differences, along the collapse order, of
    the top vertices' products composed as tuples (word_factorizations)."""
    for pair in two_part_pairs(n):
        spec = build_bifactorization(pair)
        axes = spec.bc_axes()
        level = {
            beta + (layer,): {
                bytes(w) for w in word_factorizations(bc_word(spec, beta, layer))
            }
            for beta in product((0, 1), repeat=spec.dim - 2)
            for layer in (0, 1)
        }
        rep = total_fiber(pair)
        for cube, axis in zip(rep.levels, [*rep.order, None]):
            assert cube.axes == axes and cube.codes == level, (pair, cube.level)
            if axis is not None:
                pos = axes.index(axis)
                axes = axes[:pos] + axes[pos + 1 :]
                level = {
                    i[:pos] + i[pos + 1 :]: codes - level[i[:pos] + (1,) + i[pos + 1 :]]
                    for i, codes in level.items()
                    if i[pos] == 0
                }


def test_walk_composes_only_translations_and_the_residual(monkeypatch):
    """total_fiber builds no Beck-Chevalley vertex, and composes products
    only for the translations T = Sh(r_u, r_l) o K_l of the steps with
    r_u != r_l, and once for the residual."""
    real_compose, real_step = fiber.compose_shuffles, fiber._collapse_step
    vertices, composed, translations = [], [], []

    def compose(outer, inner):
        composed.append(outer)
        return real_compose(outer, inner)

    def step(upper, lower, axis, index):
        if upper[0] != lower[0]:
            translations.append((upper[0][1], lower[0][1]))
        return real_step(upper, lower, axis, index)

    monkeypatch.setattr(cubes, "bc_vertex", lambda *args: vertices.append(args))
    monkeypatch.setattr(fiber, "compose_shuffles", compose)
    monkeypatch.setattr(fiber, "_collapse_step", step)
    steps = 0
    for n in range(2, 9):
        for pair in two_part_pairs(n):
            composed.clear()
            translations.clear()
            total_fiber(pair)
            assert composed[:-1] == translations, pair
            assert len(composed) == len(translations) + 1, pair
            steps += len(translations)
    assert steps > 0 and vertices == []


@pytest.mark.parametrize("walk", [total_fiber, initial_cube])
def test_walk_refuses_256_strands_before_enumerating(monkeypatch, walk):
    asked = []
    monkeypatch.setattr(cubes, "enumerate_shuffles", lambda *layer: asked.append(layer))
    with pytest.raises(CubeError, match="at most 255 strands, got 256"):
        walk(((255, 1), (255, 1)))
    assert asked == []


def test_wrong_collapse_order_fails_containment():
    cube = initial_cube(((2, 3), (2, 3)))
    cube = take_fiber_along(cube, "layer")
    with pytest.raises(
        FiberContainmentError,
        match=r"^collapsing zeta at \(0, 0\): 6 lower diagrams missing from "
        r"the upper set, e\.g\. \(1, 3, 2, 5, 4\)$",
    ):
        take_fiber_along(cube, "zeta")


def test_exhausted_axis_rejected():
    cube = initial_cube(((1, 2), (2, 1)))
    collapsed = take_fiber_along(cube, "layer")
    with pytest.raises(FiberError):
        take_fiber_along(collapsed, "layer")


def reversed_tail(order):
    """`order` with the trailing (zeta/eta) axes collapsed in reverse."""

    def alternate(cube):
        axes = order(cube)
        head = [a for a in axes if a == "layer" or a.startswith("eps")]
        return head + axes[len(head):][::-1]

    return alternate


def test_alternate_tail_order_agrees(monkeypatch):
    pairs = [((2, 3), (2, 3)), ((2, 4), (2, 4)), ((3, 3), (3, 3)),
             ((2, 2), (1, 3))]
    default = [total_fiber(pair) for pair in pairs]
    monkeypatch.setattr(fiber, "collapse_order", reversed_tail(collapse_order))
    for pair, a in zip(pairs, default):
        b = total_fiber(pair)
        assert a.verdict == b.verdict
        assert a.residual == b.residual
        if pair == ((2, 4), (2, 4)):  # two tail axes: the orders differ
            assert [c.axes for c in a.levels] != [c.axes for c in b.levels]


def test_collapse_order_shape():
    spec = build_bifactorization(((3, 4), (3, 4)))
    assert collapse_order(spec) == ["layer", "eps2", "eps1", "zeta"]
    spec2 = build_bifactorization(((2, 4), (2, 4)))
    assert collapse_order(spec2) == ["layer", "eps1", "zeta", "eta1"]
    assert reversed_tail(collapse_order)(spec2) == [
        "layer", "eps1", "eta1", "zeta",
    ]


def test_recursiveness_examples():
    assert check_recursiveness(5, (2, 3), 2)
    assert check_recursiveness(5, (5,), 1)  # trivial one-part restriction
    assert check_recursiveness(4, (1, 2, 1), 2)
    with pytest.raises(FiberError):
        check_recursiveness(5, (2, 2), 1)
    with pytest.raises(FiberError):
        check_recursiveness(4, (2, 2), 3)


@pytest.mark.parametrize("n", range(2, 6))
def test_recursiveness_sweep(n):
    for comp in all_compositions(n):
        for i in range(1, len(comp) + 1):
            assert check_recursiveness(n, comp, i)


def test_far_commutativity_examples():
    assert check_far_commutativity((2, 2), (2,), (1, 1), (2,), (1, 1))
    assert check_far_commutativity((2, 2), (2,), (2,), (2,), (1, 1))
    with pytest.raises(FiberError):
        check_far_commutativity((2, 2), (1, 1), (2,), (2,), (2,))


@pytest.mark.parametrize("n", range(2, 6))
def test_far_commutativity_sweep(n):
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
                        assert check_far_commutativity((a, b), c0, c1, d0, d1)


def _far_commutativity_cases(max_n):
    for n in range(2, max_n + 1):
        for a in range(1, n):
            b = n - a
            for c0 in all_compositions(a):
                for c1 in all_compositions(a):
                    if not refines(c0, c1):
                        continue
                    for d0 in all_compositions(b):
                        for d1 in all_compositions(b):
                            if refines(d0, d1):
                                yield (a, b), c0, c1, d0, d1


def _perturb_route_b(monkeypatch):
    """Add 1 to entry (0, 0) of every action on a route-b Hom space.

    Route a is HomSpace(c0+d0, c0+d1) over the module of c0+d1, route b
    is HomSpace(c1+d0, c1+d1) over the same module, so a space is route b
    of some c0 != c1 exactly when its inner algebra is not its module's."""
    original = HomSpace.action_entries

    def perturbed(self, g):
        out = dict(original(self, g))
        if self.inner != self.module.tau:
            out[(0, 0)] = out.get((0, 0), 0) + 1
        return out

    monkeypatch.setattr(HomSpace, "action_entries", perturbed)


def test_far_commutativity_can_fail(monkeypatch):
    args = ((2, 2), (2,), (1, 1), (2,), (1, 1))
    assert check_far_commutativity(*args)
    assert report_ok(build_report(4))
    _perturb_route_b(monkeypatch)
    assert not check_far_commutativity(*args)
    # c0 == c1: both routes are the same unperturbed space
    assert check_far_commutativity((2, 2), (2,), (2,), (2,), (1, 1))
    doc = build_report(4)
    assert not report_ok(doc)
    for entry in doc["pairs"]:
        checks = entry["checks"]
        assert checks["far_commutativity"] is False
        assert checks["adjunctability"] and checks["recursiveness"]
        assert (
            "far-commutativity fails at (2,2), (2,)<=(1, 1), (2,)<=(1, 1)"
            in entry["failures"]
        )


def test_forced_failures_keep_their_order(monkeypatch):
    """Global failures are listed adjunction first, then recursiveness, then
    far-commutativity, each in its sweep order; every pair entry repeats
    them.  The list is the one the checks gave before they shared one
    refinement sweep."""
    bad_adj = {
        ((4,), (2, 2)), ((1, 3), (1, 1, 2)),
        ((2, 2), (1, 1, 1, 1)), ((3, 1), (3, 1)),
    }
    bad_rec = {((2, 2), 1), ((1, 3), 2)}
    bad_far = {
        ((2, 2), (2,), (1, 1), (2,), (2,)),
        ((1, 3), (1,), (1,), (3,), (1, 2)),
        ((3, 1), (1, 2), (1, 1, 1), (1,), (1,)),
        ((1, 3), (1,), (1,), (1, 2), (1, 1, 1)),
    }
    real_adj = oracle.check_adjunction
    real_rec = report.check_recursiveness
    real_far = report.far_commutativity_failures
    monkeypatch.setattr(
        oracle, "check_adjunction",
        lambda sigma, tau, m_mod: (sigma, tau) not in bad_adj
        and real_adj(sigma, tau, m_mod),
    )
    monkeypatch.setattr(
        report, "check_recursiveness",
        lambda n, comp, i: (comp, i) not in bad_rec and real_rec(n, comp, i),
    )

    def far(cases):
        real = real_far(cases)
        return [case for case in cases if case in bad_far or case in real]

    monkeypatch.setattr(report, "far_commutativity_failures", far)
    doc = build_report(4, max_oracle=4)
    expected = [
        "adjunction fails at (4,) <= (2, 2)",
        "adjunction fails at (3, 1) <= (3, 1)",
        "adjunction fails at (2, 2) <= (1, 1, 1, 1)",
        "adjunction fails at (1, 3) <= (1, 1, 2)",
        "recursiveness fails at (2, 2), slot 1",
        "recursiveness fails at (1, 3), slot 2",
        "far-commutativity fails at (1,3), (1,)<=(1,), (3,)<=(1, 2)",
        "far-commutativity fails at (1,3), (1,)<=(1,), (1, 2)<=(1, 1, 1)",
        "far-commutativity fails at (2,2), (2,)<=(1, 1), (2,)<=(2,)",
        "far-commutativity fails at (3,1), (1, 2)<=(1, 1, 1), (1,)<=(1,)",
    ]
    for entry in doc["pairs"]:
        assert entry["failures"] == expected
        assert entry["checks"] == {
            "adjunctability": False,
            "recursiveness": False,
            "far_commutativity": False,
            "twist_invertibility": True,
            "defect_vanishing": True,
        }


def test_structural_adjunction_failure_still_runs_the_oracle(monkeypatch):
    """A shuffle basis of the wrong size fails adjunctability with a
    failure line that names it, and the matrix adjunction still runs on
    every pair."""
    calls = []
    real_adj = oracle.check_adjunction
    real_count = report.shuffle_count

    def counted(sigma, tau, m_mod):
        calls.append((sigma, tau))
        return real_adj(sigma, tau, m_mod)

    def wrong(sigma, tau):
        return real_count(sigma, tau) + ((sigma, tau) == ((2, 2), (1, 1, 1, 1)))

    monkeypatch.setattr(oracle, "check_adjunction", counted)
    monkeypatch.setattr(report, "shuffle_count", wrong)
    doc = build_report(4)
    assert len(calls) == 27
    for entry in doc["pairs"]:
        assert entry["failures"] == [
            "shuffle basis of (2, 2) <= (1, 1, 1, 1) has 4 elements, multinomial 5"
        ]
        assert entry["checks"]["adjunctability"] is False
        assert entry["checks"]["recursiveness"]
        assert entry["checks"]["far_commutativity"]


def test_pair_failures_reach_only_their_own_entry(monkeypatch):
    """A pair's own oracle or flip failure turns false the check of its
    kind (twist_invertibility on a twist pair, defect_vanishing on any
    other), lists exactly that line, and leaves every other entry clean."""
    mismatch = {((2, 2), (2, 2)), ((1, 3), (2, 2))}
    bad_flip = {((1, 3), (3, 1))}
    real_match = oracle.oracle_matches_diagram
    real_flip = oracle.flip_action_check
    monkeypatch.setattr(
        oracle, "oracle_matches_diagram",
        lambda pair, **kw: pair not in mismatch and real_match(pair, **kw),
    )
    monkeypatch.setattr(
        oracle, "flip_action_check",
        lambda pair, **kw: pair not in bad_flip and real_flip(pair, **kw),
    )
    doc = build_report(4)
    assert not report_ok(doc)
    oracle_line = "matrix oracle disagrees with the diagram model"
    flip_line = "flip action check fails on the nil-Coxeter module"
    expected = {
        ((2, 2), (2, 2)): ("twist_invertibility", oracle_line),
        ((1, 3), (2, 2)): ("defect_vanishing", oracle_line),
        ((1, 3), (3, 1)): ("twist_invertibility", flip_line),
    }
    for entry in doc["pairs"]:
        pair = (tuple(entry["pair"]["ab"]), tuple(entry["pair"]["cd"]))
        failed, line = expected.get(pair, (None, None))
        assert entry["checks"] == {
            name: name != failed for name in report.CHECK_NAMES
        }, pair
        assert entry["failures"] == ([line] if line else []), pair


def test_global_failures_come_before_a_pairs_own(monkeypatch):
    """An entry lists the global failures in sweep order, then its own."""
    real_rec = report.check_recursiveness
    real_match = oracle.oracle_matches_diagram
    monkeypatch.setattr(
        report, "check_recursiveness",
        lambda n, comp, i: (comp, i) != ((2, 2), 1) and real_rec(n, comp, i),
    )
    monkeypatch.setattr(
        oracle, "oracle_matches_diagram",
        lambda pair, **kw: pair != ((1, 3), (2, 2)) and real_match(pair, **kw),
    )
    doc = build_report(4, pair_filter=((1, 3), (2, 2)))
    (entry,) = doc["pairs"]
    assert entry["failures"] == [
        "recursiveness fails at (2, 2), slot 1",
        "matrix oracle disagrees with the diagram model",
    ]
    assert [name for name, ok in entry["checks"].items() if not ok] == [
        "recursiveness", "defect_vanishing",
    ]


@pytest.mark.parametrize("perturbed", [False, True])
def test_grouped_sweep_matches_fresh_calls(monkeypatch, perturbed):
    """One grouped sweep over every case with n <= 5 fails exactly the
    cases whose fresh single-case calls fail, in the order given, also
    when route b is perturbed so that the verdicts differ."""
    if perturbed:
        _perturb_route_b(monkeypatch)
    cases = list(_far_commutativity_cases(5))
    fresh = [check_far_commutativity(*case) for case in cases]
    grouped = fiber.far_commutativity_failures(cases)
    assert grouped == [case for case, ok in zip(cases, fresh) if not ok]
    assert all(fresh) != perturbed
    assert any(fresh)


def test_one_sweep_builds_each_nil_coxeter_object_once(monkeypatch):
    """The global checks of one n = 5 query (adjunctions structural at
    max_oracle 4) build each NilCoxeterModule(tau) once and each generator
    list once per (n, block), where every route used to build its own (74
    modules and 108 lists), and split no one-layer Hom space's inner
    layer: at most 300 parabolic factorizations (566 with those splits)."""
    modules, lists, splits = [], [], []
    real_init = algebra.NilCoxeterModule.__init__
    real_generators = algebra.generators
    real_decompose = oracle.parabolic_decompose

    def counted_init(self, tau):
        modules.append(tau)
        real_init(self, tau)

    def counted_generators(n, block):
        lists.append((n, block))
        return real_generators(n, block)

    def counted_decompose(w, tau):
        splits.append(tau)
        return real_decompose(w, tau)

    monkeypatch.setattr(algebra.NilCoxeterModule, "__init__", counted_init)
    monkeypatch.setattr(algebra, "generators", counted_generators)
    monkeypatch.setattr(oracle, "parabolic_decompose", counted_decompose)
    checks, failures = report._global_checks(5, 4)
    assert all(checks.values()) and failures == []
    assert len(modules) == len(set(modules)) == 15
    assert len(lists) == len(set(lists)) == 15
    assert 0 < len(splits) <= 300


def test_adjunction_sweep_shares_one_m_per_sigma(monkeypatch):
    """The matrix adjunctions of one n = 5 sweep run on one M per sigma:
    81 calls over 16 sigmas, 16 distinct M objects, each the
    NilCoxeterModule of the sigma it serves."""
    calls = []
    real_adj = oracle.check_adjunction

    def recorded(sigma, tau, m_mod):
        calls.append((sigma, m_mod))
        return real_adj(sigma, tau, m_mod)

    monkeypatch.setattr(oracle, "check_adjunction", recorded)
    checks, failures = report._global_checks(5, 5)
    assert all(checks.values()) and failures == []
    assert len(calls) == 81
    per_sigma = {}
    for sigma, m_mod in calls:
        per_sigma.setdefault(sigma, set()).add(id(m_mod))
    assert len(per_sigma) == 16
    assert all(len(ids) == 1 for ids in per_sigma.values())
    assert len({id(m_mod) for _, m_mod in calls}) == 16
    assert all(
        isinstance(m_mod, algebra.NilCoxeterModule) and m_mod.tau == sigma
        for sigma, m_mod in calls
    )


def test_far_sweep_frees_each_source_group(monkeypatch):
    """The n = 5 far sweep holds one source group's objects at a time: when
    the first route HomSpace of a new source s = c0 + d1 is built, every
    route of the earlier sources is dead.  The 15 sources each start one
    group."""
    spaces = []  # (source, weak reference) of every route built
    starts = 0
    real_init = HomSpace.__init__

    def recorded(self, outer, inner, module):
        nonlocal starts
        real_init(self, outer, inner, module)
        if not spaces or spaces[-1][0] != module.tau:
            starts += 1
            assert all(ref() is None for _, ref in spaces), module.tau
        spaces.append((module.tau, weakref.ref(self)))

    monkeypatch.setattr(HomSpace, "__init__", recorded)
    checks, failures = report._global_checks(5, 4)
    assert all(checks.values()) and failures == []
    assert starts == 15 and len(spaces) > starts


def test_repeated_pair_query_is_byte_identical():
    pair = ((2, 3), (3, 2))
    first = to_json(build_report(5, pair_filter=pair))
    assert to_json(build_report(5, pair_filter=pair)) == first


def test_sweeps_extend_to_seven_strands():
    """Beyond the required range: one more strand of both axiom sweeps."""
    for pair in two_part_pairs(7):
        rep = total_fiber(pair)
        if is_twist_pair(pair):
            assert rep.verdict == "FlipEquivalence", pair
            assert rep.residual == (block_cross(*pair[0]),)
        else:
            assert rep.verdict == "Vanishes", pair
