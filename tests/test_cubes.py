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
    build_bifactorization,
    vertex_rank_from_word,
    word_codes,
    word_factorizations,
)
from nilschober.fiber import total_fiber
from nilschober.perms import Perm, decode_sorted
from nilschober.report import two_part_pairs


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
