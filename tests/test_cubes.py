"""Bifactorization cubes and Beck-Chevalley functor words."""

from itertools import product

import pytest

import nilschober.cubes as cubes_mod
import nilschober.fiber as fiber_mod
from nilschober.compositions import PairCase, classify_pair, psi, psi_inv, refines
from nilschober.cubes import (
    CubeError,
    CubeSpec,
    FunctorWord,
    bc_vertex,
    bc_word,
    build_bifactorization,
    vertex_hom_layers,
    vertex_rank_from_word,
    word_codes,
    word_factorizations,
)
from nilschober.fiber import total_fiber
from nilschober.perms import Perm, compose, decode_sorted
from nilschober.report import two_part_pairs
from nilschober.shuffles import enumerate_shuffles


def word_products(word: FunctorWord) -> tuple[Perm, ...]:
    """The composed shuffle diagrams spanning the vertex, sorted."""
    return decode_sorted(word_codes(word))


def edge_checks(cube: CubeSpec) -> None:
    """Raise unless every single-bit flip connects refinement-related
    compositions (equal vertices count, for the dummy axes)."""
    for index in product((0, 1), repeat=cube.dim):
        base = cube.vertex(index)
        for axis in range(cube.dim):
            if index[axis] == 1:
                continue
            flipped = index[:axis] + (1,) + index[axis + 1 :]
            other = cube.vertex(flipped)
            if not refines(base, other):
                raise CubeError(
                    f"edge {index} -> {flipped} connects unrelated "
                    f"compositions {base}, {other}"
                )


def test_ac_unbal_cube_shape():
    cube = build_bifactorization(((2, 3), (2, 3)))
    assert cube.dim == 4  # c + m + 1
    assert cube.axis_names == ("delta1", "delta2", "eps1", "zeta")
    assert cube.vertex((0, 0, 0, 0)) == (5,)
    assert cube.vertex((0, 1, 0, 0)) == (2, 3)
    assert cube.vertex((1, 1, 1, 1)) == (1, 1, 1, 1, 1)


def test_nh3_swap_square():
    cube = build_bifactorization(((1, 2), (2, 1)))
    assert cube.dim == 2
    grid = {i: cube.vertex(i) for i in product((0, 1), repeat=2)}
    assert grid == {
        (0, 0): (3,),
        (0, 1): (1, 2),
        (1, 0): (2, 1),
        (1, 1): (1, 1, 1),
    }


def test_nh3_ac_cube_rear_face():
    cube = build_bifactorization(((1, 2), (1, 2)))
    assert cube.dim == 3
    rear = {i: cube.vertex(i + (0,)) for i in product((0, 1), repeat=2)}
    assert rear == {
        (0, 0): (3,),
        (0, 1): (1, 2),
        (1, 0): (1, 2),
        (1, 1): (1, 2),
    }
    front = {i: cube.vertex(i + (1,)) for i in product((0, 1), repeat=2)}
    assert front == {
        (0, 0): (2, 1),
        (0, 1): (1, 1, 1),
        (1, 0): (1, 1, 1),
        (1, 1): (1, 1, 1),
    }


@pytest.mark.parametrize(
    "pair,expected_dim",
    [
        (((2, 3), (2, 3)), 4),   # c+m+1
        (((2, 2), (2, 2)), 3),   # a+1
        (((3, 1), (3, 1)), 3),   # b+2
        (((3, 1), (1, 3)), 2),   # c+1
        (((3, 1), (2, 2)), 3),   # b+2
        (((2, 2), (1, 3)), 3),   # c+2
    ],
)
def test_dimension_table(pair, expected_dim):
    assert build_bifactorization(pair).dim == expected_dim


def test_nh3_bc_words():
    cube = build_bifactorization(((1, 2), (2, 1)))
    hi_star = bc_vertex(cube, (), 0)
    assert hi_star.word.rows == ((1, 2), (1, 2), (3,), (2, 1), (2, 1))
    assert hi_star.word.steps() == ("id", "ind", "res", "id")
    g_star_f = bc_vertex(cube, (), 1)
    assert g_star_f.word.rows == ((1, 2), (1, 2), (1, 1, 1), (2, 1), (2, 1))

    cube2 = build_bifactorization(((1, 2), (1, 2)))
    ii_star = bc_vertex(cube2, (0,), 0)
    assert ii_star.word.rows == ((1, 2), (1, 2), (3,), (1, 2), (1, 2))
    identity_word = bc_vertex(cube2, (0,), 1)
    assert identity_word.word.rows == ((1, 2),) * 5
    assert identity_word.rank == 1
    fgg_f = bc_vertex(cube2, (1,), 0)
    assert fgg_f.word.rows == ((1, 2), (1, 1, 1), (2, 1), (1, 1, 1), (1, 2))
    f_f = bc_vertex(cube2, (1,), 1)
    assert f_f.word.rows == ((1, 2), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 2))


def test_vertex_ranks_match_worked_tables():
    cube = build_bifactorization(((2, 3), (2, 3)))
    top = {
        beta: bc_vertex(cube, beta, 0).rank
        for beta in product((0, 1), repeat=2)
    }
    assert top == {(0, 0): 10, (1, 0): 12, (0, 1): 18, (1, 1): 24}
    bottom = {
        beta: bc_vertex(cube, beta, 1).rank
        for beta in product((0, 1), repeat=2)
    }
    assert bottom == {(0, 0): 1, (1, 0): 6, (0, 1): 3, (1, 1): 12}


def test_identity_functor_word_rank_one():
    word = FunctorWord(((1, 2),) * 5)
    assert vertex_rank_from_word(word) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_edge_validity_exhaustive(n):
    for pair in two_part_pairs(n):
        edge_checks(build_bifactorization(pair))


@pytest.mark.parametrize("n", range(2, 7))
def test_boundary_rows(n):
    for pair in two_part_pairs(n):
        cube = build_bifactorization(pair)
        for beta in product((0, 1), repeat=cube.dim - 2):
            for layer in (0, 1):
                v = bc_vertex(cube, beta, layer)
                assert v.word.rows[0] == pair[0]
                assert v.word.rows[-1] == pair[1]
                assert vertex_rank_from_word(v.word) == v.rank == len(v.products)


@pytest.mark.parametrize("n", range(2, 7))
def test_layer_difference_is_middle_row(n):
    for pair in two_part_pairs(n):
        cube = build_bifactorization(pair)
        for beta in product((0, 1), repeat=cube.dim - 2):
            top = bc_vertex(cube, beta, 0).word.rows
            bottom = bc_vertex(cube, beta, 1).word.rows
            assert top[0] == bottom[0] and top[1] == bottom[1]
            assert top[3] == bottom[3] and top[4] == bottom[4]
            assert refines(top[2], bottom[2])


def test_boundary_strings_ac_case():
    # psi^{-1}(0^{c-1} 1 0^{c-1} 0 0^{m-1}) = (c, c+m)
    for c, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        bits = "0" * (c - 1) + "1" + "0" * (c - 1) + "0" + "0" * (m - 1)
        cube = build_bifactorization(((c, c + m), (c, c + m)))
        assert psi(cube.vertex((0, 1) + (0,) * (cube.dim - 2))) == bits


def test_mirrored_case_tags():
    cube = build_bifactorization(((1, 2), (2, 1)))
    assert cube.case.tag == "MirrorSwap"
    assert classify_pair((1, 3), (2, 2)).tag == "MirrorOverLeft"
    assert classify_pair((2, 2), (3, 1)).tag == "MirrorOverRight"


def test_bad_indices_rejected():
    cube = build_bifactorization(((2, 3), (2, 3)))
    with pytest.raises(CubeError):
        cube.vertex((0, 1))
    with pytest.raises(CubeError):
        bc_vertex(cube, (0,), 0)
    with pytest.raises(CubeError):
        bc_vertex(cube, (0, 0), 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_products_match_tuple_factorizations(n):
    """The byte-coded kernel gives the products that composing the
    (outer, inner) shuffle pairs as tuples gives."""
    for pair in two_part_pairs(n):
        cube = build_bifactorization(pair)
        for beta in product((0, 1), repeat=cube.dim - 2):
            for layer in (0, 1):
                v = bc_vertex(cube, beta, layer)
                expected = tuple(sorted(word_factorizations(v.word)))
                assert v.products == expected, (pair, beta, layer)
                assert word_products(v.word) == expected


def test_products_refuse_more_than_255_strands():
    with pytest.raises(CubeError, match="255"):
        word_products(FunctorWord(((256,),) * 5))


def test_products_refuse_an_outer_layer_that_does_not_refine():
    with pytest.raises(CubeError, match=r"\(2,\) does not refine \(1, 1\)"):
        word_products(FunctorWord(((2,),) * 4 + ((1, 1),)))


def test_repeated_shuffle_is_a_collision(monkeypatch):
    real = cubes_mod.enumerate_shuffles

    def repeating(sigma, tau):
        shuffles = real(sigma, tau)
        return shuffles + shuffles[:1]

    monkeypatch.setattr(cubes_mod, "enumerate_shuffles", repeating)
    cube = build_bifactorization(((1, 2), (2, 1)))
    with pytest.raises(CubeError, match="collide"):
        bc_vertex(cube, (), 0)


def _kernel_case(outer, inner):
    """(tables, inner codes, expected products) of one outer layer and one
    inner layer (fine, finer) whose products factor uniquely."""
    tables = cubes_mod.outer_tables(*outer)
    inner_codes = [bytes(f) for f in enumerate_shuffles(*inner)]
    expected = {
        bytes(compose(e, f))
        for e in enumerate_shuffles(*outer)
        for f in enumerate_shuffles(*inner)
    }
    return tables, inner_codes, expected


_NO_WORD = FunctorWord(((1,),) * 5)  # named only by the collision message


@pytest.mark.parametrize(
    "outer, inner, gathers",
    [
        # 144 tables, 4 inner shuffles of 8 strands: 144 > 8 * 4 + 9 slices
        (((4, 4), (1, 1, 2, 1, 1, 2)), ((1, 1, 2, 1, 1, 2), (1,) * 8), True),
        # 36 tables, 1 inner shuffle: the gather, with a single f
        (((3, 3), (1,) * 6), ((1,) * 6, (1,) * 6), True),
        # more tables than inner shuffles, but fewer than the gather's slices
        (((4, 4), (2, 2, 2, 2)), ((2, 2, 2, 2), (1,) * 8), False),
        # fewer tables (3) than inner shuffles (12)
        (((3, 3), (1, 2, 3)), ((1, 2, 3), (1,) * 6), False),
        # as many tables as inner shuffles (3)
        (((3, 3), (1, 2, 3)), ((1, 2, 3), (1, 2, 2, 1)), False),
        # a single table
        (((3, 3), (3, 3)), ((3, 3), (1, 2, 1, 2)), False),
    ],
)
def test_shuffle_products_compose_every_pair(monkeypatch, outer, inner, gathers):
    """Both loops of shuffle_products give {bytes(compose(e, f))}; only the
    gather allocates a bytearray, which tells the loops apart."""
    made = []
    monkeypatch.setattr(
        cubes_mod, "bytearray", lambda size: made.append(size) or bytearray(size),
        raising=False,
    )
    tables, inner_codes, expected = _kernel_case(outer, inner)
    codes = cubes_mod.shuffle_products(tables, inner_codes, _NO_WORD)
    assert codes == expected
    assert len(codes) == len(tables) // (sum(outer[0]) + 1) * len(inner_codes)
    assert bool(made) == gathers


def test_shuffle_products_of_no_inner_shuffle_is_empty():
    tables = cubes_mod.outer_tables((3, 3), (1, 2, 3))
    assert cubes_mod.shuffle_products(tables, [], _NO_WORD) == frozenset()


@pytest.mark.parametrize(
    "outer, inner",
    [
        (((4, 4), (1, 1, 2, 1, 1, 2)), ((1, 1, 2, 1, 1, 2), (1,) * 8)),  # gather
        (((3, 3), (1, 2, 3)), ((1, 2, 3), (1,) * 6)),  # a translate per table
    ],
)
@pytest.mark.parametrize("repeat", ["inner", "table"])
def test_shuffle_products_refuse_a_repeat(outer, inner, repeat):
    """A repeated inner shuffle or a repeated table makes products collide,
    in both loops."""
    tables, inner_codes, _ = _kernel_case(outer, inner)
    if repeat == "inner":
        inner_codes = inner_codes + inner_codes[-1:]
    else:
        tables = tables + tables[-(sum(outer[0]) + 1) :]
    with pytest.raises(CubeError, match="collide"):
        cubes_mod.shuffle_products(tables, inner_codes, _NO_WORD)


def test_outer_tables_lay_out_every_outer_layer():
    """outer_tables is the enumerate_shuffles order of the outer shuffles,
    each as 0 and its one-line bytes, for every outer layer of every cube
    with n <= 8."""
    layers = set()
    for n in range(2, 9):
        for pair in two_part_pairs(n):
            cube = build_bifactorization(pair)
            for beta in product((0, 1), repeat=cube.dim - 2):
                for layer in (0, 1):
                    layers.add(vertex_hom_layers(bc_word(cube, beta, layer))[0])
    assert len(layers) > 100
    for cd, outer_fine in sorted(layers):
        expected = b"".join(bytes((0, *e)) for e in enumerate_shuffles(cd, outer_fine))
        assert cubes_mod.outer_tables(cd, outer_fine) == expected, (cd, outer_fine)


def test_outer_layers_are_never_enumerated_as_one_set(monkeypatch):
    """outer_tables builds each outer layer (cd, outer_fine) from one-block
    word lists: over the total fibers of every pair with n <= 8, from a
    cleared cache, neither it nor the layer kernels of the walk ask
    enumerate_shuffles for an outer layer of more than one block (a key
    that is also the word's inner layer is asked for as the inner layer)."""
    real_layers = cubes_mod.vertex_hom_layers
    real_shuffles = cubes_mod.enumerate_shuffles
    current = []
    asked = []

    def layers(word):
        current[:] = [real_layers(word)]
        return current[0]

    def shuffles(sigma, tau):
        asked.append((*current[0], (sigma, tau)))
        return real_shuffles(sigma, tau)

    monkeypatch.setattr(cubes_mod, "vertex_hom_layers", layers)
    monkeypatch.setattr(fiber_mod, "vertex_hom_layers", layers)
    monkeypatch.setattr(fiber_mod, "enumerate_shuffles", shuffles)
    monkeypatch.setattr(cubes_mod, "enumerate_shuffles", shuffles)
    real_shuffles.cache_clear()
    for n in range(2, 9):
        for pair in two_part_pairs(n):
            total_fiber(pair)
    multi_block = [outer for outer, _, _ in asked if len(outer[0]) > 1]
    assert len(multi_block) > 1000
    assert not [
        key for outer, inner, key in asked if key == outer != inner and len(key[0]) > 1
    ]


# The paper's per-case formulas, one branch per a >= c tag, as the
# reference for the single (k, l, m) layout of `build_bifactorization`.


def _reference_axis_names(case):
    p = dict(case.params)
    tag = case.tag.removeprefix("Mirror")
    eps = lambda k: tuple(f"eps{i}" for i in range(1, k))
    etas = lambda k: tuple(f"eta{i}" for i in range(1, k))
    if tag == "AC_Unbal":
        return ("delta1", "delta2", *eps(p["c"]), "zeta", *etas(p["m"]))
    if tag == "AA":
        return ("delta1", "delta2", *eps(p["a"]))
    if tag in ("CA_Unbal", "OverLeft"):
        return ("delta1", "delta2", "zeta", *eps(p["b"]))
    if tag == "Swap":
        return ("delta1", "delta2", *eps(p["c"]))
    assert tag == "OverRight"
    return ("delta1", "delta2", *eps(p["c"]), "zeta")


def _reference_vertex_bits(case, index):
    p = dict(case.params)
    d1, d2 = index["delta1"], index["delta2"]
    tag = case.tag
    eps = lambda k: [index[f"eps{i}"] for i in range(1, k)]
    if tag == "AC_Unbal":
        e = eps(p["c"])
        bits = e + [d1 | d2] + e[::-1] + [index["zeta"]] + [0] * (p["m"] - 1)
    elif tag == "AA":
        e = eps(p["a"])
        bits = e + [d1 | d2] + e[::-1]
    elif tag == "CA_Unbal":
        e = eps(p["b"])
        bits = [0] * (p["m"] - 1) + [index["zeta"]] + e + [d1 | d2] + e[::-1]
    elif tag == "Swap":
        e = eps(p["c"])
        bits = e + [d1] + [0] * (p["l"] - 1) + [d2] + e[::-1]
    elif tag == "OverLeft":
        e = eps(p["b"])
        bits = (
            [0] * (p["m"] - 1) + [index["zeta"]] + e
            + [d1] + [0] * (p["l"] - 1) + [d2] + e[::-1]
        )
    else:
        assert tag == "OverRight"
        e = eps(p["c"])
        bits = (
            e + [d1] + [0] * (p["l"] - 1) + [d2] + e[::-1]
            + [index["zeta"]] + [0] * (p["m"] - 1)
        )
    return "".join(map(str, bits))


def _reference_vertex(case, names, index):
    named = dict(zip(names, index))
    if case.mirrored:
        inner = PairCase(case.tag.removeprefix("Mirror"), case.params)
        return tuple(reversed(psi_inv(_reference_vertex_bits(inner, named))))
    return psi_inv(_reference_vertex_bits(case, named))


def test_layout_matches_the_per_case_formulas():
    """Axis names and every vertex of every cube up to 12 strands agree
    with the per-case formulas."""
    for n in range(2, 13):
        for pair in two_part_pairs(n):
            cube = build_bifactorization(pair)
            case = classify_pair(*pair)
            assert cube.axis_names == _reference_axis_names(case), pair
            for index in product((0, 1), repeat=cube.dim):
                expected = _reference_vertex(case, cube.axis_names, index)
                assert cube.vertex(index) == expected, (pair, index)


def test_eta_axes_leave_every_vertex_unchanged():
    """The dummy eta axes of an AC_Unbal cube (l = 0 < m) are read by no
    bit: flipping one never moves a vertex."""
    flips = 0
    for n in range(2, 9):
        for pair in two_part_pairs(n):
            cube = build_bifactorization(pair)
            names = cube.axis_names
            etas = [i for i, name in enumerate(names) if name.startswith("eta")]
            assert bool(etas) == (cube.case.tag == "AC_Unbal" and cube.case["m"] > 1)
            for index in product((0, 1), repeat=cube.dim):
                for axis in etas:
                    flipped = index[:axis] + (1 - index[axis],) + index[axis + 1 :]
                    assert cube.vertex(flipped) == cube.vertex(index), (pair, index)
                    flips += 1
    assert flips > 0
