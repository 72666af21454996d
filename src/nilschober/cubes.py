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
    shuffle set; the outer one composes on the left of the inner one, as
    one table buffer (`outer_tables`) applied by `shuffle_products`.
    """
    outer, inner = vertex_hom_layers(word)
    tables = outer_tables(*outer)  # refuses more than 255 strands first
    shuffles = [bytes(f) for f in enumerate_shuffles(*inner)]
    return shuffle_products(tables, shuffles, word)


def outer_tables(cd: Composition, outer_fine: Composition) -> bytes:
    """The outer shuffles e of (cd, outer_fine), in `enumerate_shuffles`
    order, as one buffer of n + 1 bytes per e: byte 0 is 0 and byte x is
    e(x).  So `tables[x::n + 1]` is column x, and one e's bytes plus the
    identity tail `_BYTES[n + 1:]` are its translate table.

    No outer set is enumerated and no table is an object of its own: each
    cd-block takes its words from the one-block set `enumerate_shuffles(
    (size,), parts)`.  From the last block back, the later blocks' values
    move up by the block's size (a translate, which keeps 0), and for each
    word one `replace` of the 0 starting every table puts it in front.
    """
    n = total(cd)
    if n > 255:
        raise CubeError(f"byte-coded diagrams hold at most 255 strands, got {n}")
    tables, k = b"\0", len(outer_fine)
    for size in reversed(cd):
        j, filled = k, 0
        while filled < size:
            j -= 1
            filled += outer_fine[j]
        if filled != size:
            raise CubeError(f"{outer_fine} does not refine {cd}")
        tables = tables.translate(b"\0" + _BYTES[size + 1 :] + _BYTES[1 : size + 1])
        tables = b"".join([
            tables.replace(b"\0", b"\0" + bytes(w))
            for w in enumerate_shuffles((size,), outer_fine[j:k])
        ])
        k = j
    return tables


def shuffle_products(
    tables: bytes, inner: list[bytes], word: FunctorWord
) -> frozenset[bytes]:
    """Every table of `outer_tables` applied to every inner shuffle of
    `word`, in C: the codes are written into one buffer, 0 between two,
    and cut out by one `split(b"\\0")` (a code never holds 0, and byte 0
    of every table maps 0 to 0).  Of two loops, the one with fewer
    Python-level steps runs, so the product count never sets them: a
    translate of the 0-joined inner shuffles per table, or n + 1 column
    slices of the tables and then n strided slices per inner shuffle f,
    each gathering byte p of every e o f, which is byte f[p] of e.
    Products must be pairwise distinct, as in `word_factorizations`, or
    the word is ill-formed.
    """
    if not inner:
        return frozenset()
    n, size = len(inner[0]), len(tables)
    step, count = n + 1, size // (n + 1)
    if count > n * len(inner) + step:
        columns = [tables[x::step] for x in range(step)]
        buf = bytearray(size * len(inner) - 1)
        for base, f in zip(range(0, len(buf), size), inner):
            for p, x in enumerate(f, base):
                buf[p : base + size : step] = columns[x]
        codes = bytes(buf).split(b"\0")
    else:
        joined, padded = b"\0".join(inner), tables + _BYTES[step:]
        buf = []
        for i in range(0, size, step):  # padded[i : i + 256] starts with table i
            buf.append(joined.translate(padded[i : i + 256]))
        codes = b"\0".join(buf).split(b"\0")
    del buf  # the set being built is the call's memory peak
    codes = frozenset(codes)
    if len(codes) < count * len(inner):
        raise CubeError(
            f"{count * len(inner) - len(codes)} shuffle products "
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
