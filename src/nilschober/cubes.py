"""
Bifactorization cubes and Beck-Chevalley vertices as functor words.

A bifactorization cube assigns a composition (standing for its module
category) to every vertex of {0,1}^d.  One layout, set by the three numbers
(k, l, m) of the pair, serves all nine cases: each psi bit of a vertex is
the OR of some of its axis bits.  The Beck-Chevalley cube's vertices are
5-row functor words: restriction steps go coarse-to-fine, induction steps
fine-to-coarse, composed top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .compositions import (
    Composition,
    Pair,
    PairCase,
    classify_pair,
    pair_shape,
    psi_inv,
    refines,
    total,
)
from .perms import Perm, compose, decode_sorted
from .shuffles import enumerate_shuffles, shuffle_count


class CubeError(ValueError):
    pass


_BYTES = bytes(range(256))  # the identity translate table


@dataclass(frozen=True)
class CubeSpec:
    """A bifactorization cube: vertex compositions over {0,1}^d.

    `layout` holds one axis mask per psi bit of a vertex: the bit is set
    when one of the masked axes is.  For a < c pairs the layout is the
    reversed layout of the mirror pair, so that every vertex composition
    is the reversed one, per the symmetry of the construction.
    """

    pair: Pair
    case: PairCase
    axis_names: tuple[str, ...]
    layout: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.axis_names)

    def vertex(self, index: tuple[int, ...]) -> Composition:
        if len(index) != self.dim or any(b not in (0, 1) for b in index):
            raise CubeError(f"bad cube index {index} for dimension {self.dim}")
        mask = sum(b << axis for axis, b in enumerate(index))
        return psi_inv("".join("1" if bit & mask else "0" for bit in self.layout))

    def bc_axes(self) -> tuple[str, ...]:
        """Axes of the Beck-Chevalley cube: the non-delta axes, then the
        top/bottom layer axis."""
        return self.axis_names[2:] + ("layer",)


def build_bifactorization(pair: Pair) -> CubeSpec:
    """The bifactorization cube of a pair of two-part compositions.

    With (k, l, m) from `pair_shape`, a vertex has the psi bits
    0^(|m|-1) zeta (if m < 0), eps_1 .. eps_{k-1}, then delta1 | delta2
    (if l = 0) or delta1 0^(l-1) delta2, then eps_{k-1} .. eps_1, and
    zeta 0^(m-1) (if m > 0).  The axes are delta1, delta2 and the named
    bits in order of appearance; the AC_Unbal cubes (l = 0 < m) add m-1
    dummy axes eta_i, which no bit reads.

    >>> cube = build_bifactorization(((1, 2), (2, 1)))
    >>> [cube.vertex(i) for i in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    [(3,), (1, 2), (2, 1), (1, 1, 1)]
    """
    mirrored, k, l, m = pair_shape(*pair)
    eps = [(f"eps{i}",) for i in range(1, k)]
    gap = [()] * (l - 1)
    delta = [("delta1", "delta2")] if l == 0 else [("delta1",), *gap, ("delta2",)]
    zeta = [("zeta",), *[()] * (abs(m) - 1)] if m else []  # reversed when m < 0
    bits = zeta[::-1] * (m < 0) + eps + delta + eps[::-1] + zeta * (m > 0)
    names = ["delta1", "delta2", *(name for bit in bits for name in bit)]
    if l == 0 < m:
        names += [f"eta{i}" for i in range(1, m)]
    axes = tuple(dict.fromkeys(names))
    layout = tuple(sum(1 << axes.index(name) for name in bit) for bit in bits)
    cube = CubeSpec(pair, classify_pair(*pair), axes, layout[::-1] if mirrored else layout)
    if cube.vertex((0, 1) + (0,) * (cube.dim - 2)) != pair[0]:
        raise CubeError(f"cube boundary mismatch at (0,1,0...) for {pair}")
    if cube.vertex((1, 0) + (0,) * (cube.dim - 2)) != pair[1]:
        raise CubeError(f"cube boundary mismatch at (1,0,0...) for {pair}")
    return cube


@dataclass(frozen=True)
class FunctorWord:
    """Five compositions read top to bottom; consecutive rows give one
    restriction (coarse to fine), induction (fine to coarse) or identity
    step each, composed downwards."""

    rows: tuple[Composition, ...]

    def steps(self) -> tuple[str, ...]:
        """The step between each two consecutive rows, worked out once per
        word: `word_codes` and `vertex_rank_from_word` both read it."""
        return self._steps

    @cached_property
    def _steps(self) -> tuple[str, ...]:
        out = []
        for upper, lower in zip(self.rows, self.rows[1:]):
            if upper == lower:
                out.append("id")
            elif refines(upper, lower):
                out.append("res")
            elif refines(lower, upper):
                out.append("ind")
            else:
                raise CubeError(
                    f"rows {upper} and {lower} are not refinement-related"
                )
        return tuple(out)


@dataclass(frozen=True)
class BCVertex:
    """One vertex of the Beck-Chevalley cube: a functor word plus its free
    rank over the coefficient module and its diagram basis, kept as byte
    codes (one byte per strand) and decoded when `products` is read."""

    index: tuple[int, ...]  # (beta_1, ..., beta_{d-2}, layer)
    word: FunctorWord
    rank: int
    codes: frozenset[bytes]  # composed outer o inner shuffles

    @cached_property
    def products(self) -> tuple[Perm, ...]:
        """The composed products in one-line notation, sorted."""
        return decode_sorted(self.codes)


def bc_word(cube: CubeSpec, beta: tuple[int, ...], layer: int) -> FunctorWord:
    """The functor word of the Beck-Chevalley vertex at (beta, layer).

    The rows are the cube vertices at (0,1,0...), (0,1,beta),
    (0,0,beta) or (1,1,beta), (1,0,beta), (1,0,0...).  The first and last
    are the pair's own compositions, as `build_bifactorization` checks.
    """
    if len(beta) != cube.dim - 2:
        raise CubeError(
            f"need {cube.dim - 2} index bits for this cube, got {beta}"
        )
    if layer not in (0, 1):
        raise CubeError(f"layer must be 0 or 1, got {layer}")
    mid = (0, 0) if layer == 0 else (1, 1)
    return FunctorWord((
        cube.pair[0],
        cube.vertex((0, 1) + beta),
        cube.vertex(mid + beta),
        cube.vertex((1, 0) + beta),
        cube.pair[1],
    ))


def bc_vertex(cube: CubeSpec, beta: tuple[int, ...], layer: int) -> BCVertex:
    """The Beck-Chevalley vertex at (beta, layer), its products checked
    against its rank."""
    word = bc_word(cube, beta, layer)
    codes = word_codes(word)
    rank = vertex_rank_from_word(word)
    if len(codes) != rank:
        raise CubeError(
            f"shuffle products disagree with the rank at {beta}, {layer}: "
            f"{len(codes)} products for rank {rank}"
        )
    return BCVertex(beta + (layer,), word, rank, codes)


def vertex_rank_from_word(word: FunctorWord) -> int:
    """Product over induction steps of the shuffle-set sizes."""
    rank = 1
    for upper, lower, step in zip(word.rows, word.rows[1:], word.steps()):
        if step == "ind":
            rank *= shuffle_count(lower, upper)
    return rank


def word_codes(word: FunctorWord) -> frozenset[bytes]:
    """The composed products as byte codes: byte p-1 of a code is w(p).

    Walking the word top to bottom, each induction step contributes its
    shuffle set; the outer one composes on the left of the inner one.
    """
    outer, inner = vertex_hom_layers(word)
    tables = outer_tables(*outer)  # refuses more than 255 strands first
    shuffles = [bytes(f) for f in enumerate_shuffles(*inner)]
    return shuffle_products(tables, shuffles, word)


def outer_tables(cd: Composition, outer_fine: Composition) -> list[bytes]:
    """The translate tables of the outer shuffles of (cd, outer_fine):
    table[x] = e(x) for x = 1..n, so `f.translate(table)` is `compose(e, f)`.

    The outer shuffles are never enumerated as one set: each cd-block
    takes its words from the one-block set `enumerate_shuffles((size,),
    parts)`, shifted into the block's value range, and the tables are the
    concatenations of one word per block.  They stay n + 1 bytes long.
    """
    n = total(cd)
    if n > 255:
        raise CubeError(f"byte-coded diagrams hold at most 255 strands, got {n}")
    tables = [b"\0"]
    start = j = 0
    for size in cd:
        k, filled = j, 0
        while filled < size:
            filled += outer_fine[k]
            k += 1
        if filled != size:
            raise CubeError(f"{outer_fine} does not refine {cd}")
        shift = _BYTES[start:] + _BYTES[:start]
        words = [
            bytes(w).translate(shift)
            for w in enumerate_shuffles((size,), outer_fine[j:k])
        ]
        tables = [t + w for t in tables for w in words]
        start, j = start + size, k
    return tables


def shuffle_products(
    tables: list[bytes], inner: list[bytes], word: FunctorWord
) -> frozenset[bytes]:
    """Every outer table applied to every inner shuffle of `word`.

    Each table gets the identity tail once, just before it translates
    every inner shuffle, so one full table is alive at a time: the 518,400
    full tables of ((6, 6), (1,) * 12) would hold 133 MB.  Products must
    be pairwise distinct, as in `word_factorizations`, or the word is
    ill-formed.
    """
    tail = _BYTES[len(tables[0]) :]
    codes = frozenset(
        f.translate(full) for full in (t + tail for t in tables) for f in inner
    )
    if len(codes) < len(tables) * len(inner):
        raise CubeError(
            f"{len(tables) * len(inner) - len(codes)} shuffle products "
            f"collide in {word.rows}"
        )
    return codes


def word_factorizations(word: FunctorWord) -> dict[Perm, tuple[Perm, Perm]]:
    """Map each composed product to its (outer, inner) shuffle pair.

    The outer factor comes from the bottom induction step, the inner from
    the upper one; a missing step contributes the identity.  Products must
    determine the pair uniquely or the vertex is ill-formed.
    """
    (cd, outer_fine), (inner_coarse, inner_fine) = vertex_hom_layers(word)
    out: dict[Perm, tuple[Perm, Perm]] = {}
    for e in enumerate_shuffles(cd, outer_fine):
        for f in enumerate_shuffles(inner_coarse, inner_fine):
            w = compose(e, f)
            if w in out:
                raise CubeError(
                    f"product collision at {w}: ({e}, {f}) vs {out[w]}"
                )
            out[w] = (e, f)
    return out


def vertex_hom_layers(word: FunctorWord) -> tuple[Pair, Pair]:
    """((outer_target, outer_source), (inner_target, inner_source)): the two
    Hom layers of the vertex functor, outer first.

    outer: maps NH_{(c,d)} -> inner over NH_{row4}; inner: maps NH_C -> T
    over NH_B.  For words without an inner induction step the inner layer
    degenerates to (row, row).
    """
    rows = word.rows
    steps = word.steps()
    outer = (rows[4], rows[3])
    if steps[1] == "ind":
        inner = (rows[2], rows[1])
    elif steps[2] == "ind":
        inner = (rows[3], rows[2])
    else:
        inner = (rows[2], rows[2])
    return outer, inner
