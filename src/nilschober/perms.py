"""
Permutations in one-line notation.

A permutation of n strands is a tuple `w` of the values 1..n, where `w[p-1]`
is the slot that the strand entering at bottom slot `p` exits from at the
top.  Composition follows the strand-stacking convention: in `compose(a, b)`
the diagram `a` sits on top of `b`, so `b` acts first and the result sends
`p` to `a[b[p-1] - 1]`.
"""

from __future__ import annotations

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """`a` stacked on top of `b` (b acts first).

    >>> compose((1, 3, 2), (2, 1, 3))  # IX on top of XI is the 3-cycle W
    (3, 1, 2)
    """
    return tuple(a[x - 1] for x in b)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for p, x in enumerate(w, start=1):
        out[x - 1] = p
    return tuple(out)


def inversions(w: Perm) -> int:
    """Coxeter length: the number of crossings in the strand diagram."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def adjacent_transposition(n: int, i: int) -> Perm:
    """s_i swapping slots i and i+1 (1-based, 1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} is out of range for {n} strands")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def nil_product(a: Perm, b: Perm) -> Perm | None:
    """Product of crossing diagrams: `a` over `b`, or None if a bigon forms.

    Lengths must add, otherwise the product is zero in the nil world.  They
    add unless `a` uncrosses a pair of strands that `b` crossed: slots
    p < q with b(p) > b(q) whose images under a o b come out in order.
    """
    w = compose(a, b)
    for q in range(1, len(w)):
        bq, wq = b[q], w[q]
        for p in range(q):
            if b[p] > bq and w[p] < wq:
                return None
    return w


def left_descent(w: Perm) -> int | None:
    """Smallest i with length(s_i o w) < length(w), or None at the identity.

    i is a left descent iff the value i+1 appears before i in one-line form.
    """
    pos = inverse(w)
    for i in range(1, len(w)):
        if pos[i - 1] > pos[i]:
            return i
    return None


def reduced_word(w: Perm) -> tuple[int, ...]:
    """Lexicographically smallest reduced word, as generator indices.

    The word [i1, ..., il] stands for s_{i1} o ... o s_{il} with the last
    factor acting first (i.e. s_{i1} is the topmost crossing).

    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    n = len(w)
    word: list[int] = []
    cur = w
    while (i := left_descent(cur)) is not None:
        word.append(i)
        cur = compose(adjacent_transposition(n, i), cur)
    return tuple(word)


def decode_sorted(codes) -> tuple[Perm, ...]:
    """Byte codes (byte p-1 holds w(p)) as sorted one-line permutations.

    Codes of one length sort as bytes exactly as their tuples do.

    >>> decode_sorted({bytes((2, 1, 3)), bytes((1, 2, 3))})
    ((1, 2, 3), (2, 1, 3))
    """
    return tuple(map(tuple, sorted(codes)))


def block_cross(a: int, b: int) -> Perm:
    """Total crossing of a block of `a` strands over a block of `b` strands.

    The first `a` strands land on slots b+1..b+a, the last `b` on 1..b.

    >>> block_cross(1, 2)
    (3, 1, 2)
    """
    return tuple(range(b + 1, b + a + 1)) + tuple(range(1, b + 1))

