"""
The NilHecke strand-diagram algebras NH_tau over exact h-polynomials.

Basis elements are dotted diagrams X_1^{k_1}...X_n^{k_n} * w with the dots
sitting above the permutation w.  An element is one flat term map
{(e, dots, w): c}, with c the nonzero rational coefficient of h^e X^dots w.
Products stack the left factor on top of the right one and are rewritten to
normal form with the three relations

    s_i^2 = 0,
    X_i s_i - s_i X_{i+1} = h   and   s_i X_i - X_{i+1} s_i = h,
    s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1},

where h is the central deformation parameter.  Every product of basis
elements terminates in polynomial h-corrections, so coefficients are exact
polynomials in h over the rationals - the completed base ring is never
needed.  `generators` lists the crossings, the dots and h.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .compositions import (
    Composition,
    block_positions,
    blocks,
    meet,
    refines,
    total,
)
from .linalg import ONE, Entries, Matrix, from_entries
from .perms import (
    Perm,
    adjacent_transposition,
    compose,
    identity,
    inverse,
    inversions,
    left_descent,
    nil_product,
)
from .shuffles import enumerate_shuffles


Dots = tuple[int, ...]
TermKey = tuple[int, Dots, Perm]  # h^e X^dots w: (e, dots, w)
PermTerms = list[tuple[Perm, Fraction]]  # sum c * w in the nil-Coxeter quotient


class AlgebraError(ValueError):
    pass


@lru_cache(maxsize=None)
def dot_pass(u: Perm, j: int) -> tuple[int, tuple[tuple[Perm, int], ...]]:
    """Push a dot at bottom slot j up through the crossings of u.

    Returns (u(j), corrections) such that, in the algebra,

        u * X_j  =  X_{u(j)} * u  +  h * sum(sign * gamma).

    Each correction gamma is a crossing diagram with fewer crossings than u.
    """
    n = len(u)
    if not 1 <= j <= n:
        raise AlgebraError(f"X_{j} is out of range for {n} strands")
    i = left_descent(u)
    if i is None:
        return j, ()
    s_i = adjacent_transposition(n, i)
    u_low = compose(s_i, u)
    k, corrs = dot_pass(u_low, j)
    out: dict[Perm, int] = {}
    if k == i:
        out[u_low] = out.get(u_low, 0) + 1
    elif k == i + 1:
        out[u_low] = out.get(u_low, 0) - 1
    for gamma, sign in corrs:
        lifted = nil_product(s_i, gamma)
        if lifted is not None:
            out[lifted] = out.get(lifted, 0) + sign
    cleaned = tuple(
        (g, s) for g, s in sorted(out.items()) if s != 0
    )
    return s_i[k - 1], cleaned


def _mul_basis(
    adots: Dots, u: Perm, bdots: Dots, v: Perm
) -> dict[TermKey, int]:
    """Normal form of (X^a u) * (X^b v) as nonzero integer coefficients;
    each h-correction adds 1 to the h-power."""
    if not any(bdots):
        w = nil_product(u, v)
        if w is None:
            return {}
        return {(0, adots, w): 1}
    j = next(p for p, d in enumerate(bdots, start=1) if d > 0)
    rest = tuple(d - (1 if p == j else 0) for p, d in enumerate(bdots, start=1))
    k, corrs = dot_pass(u, j)
    lifted_dots = tuple(
        d + (1 if p == k else 0) for p, d in enumerate(adots, start=1)
    )
    out = _mul_basis(lifted_dots, u, rest, v)
    for gamma, sign in corrs:
        for (e, dots, w), c in _mul_basis(adots, gamma, rest, v).items():
            key = (e + 1, dots, w)
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def _preserves_blocks(w: Perm, tau: Composition) -> bool:
    for positions in block_positions(tau):
        if any(w[p - 1] not in positions for p in positions):
            return False
    return True


class AlgebraElement:
    """An element of NH_tau inside NH_n, as a normal-form term map
    {(e, dots, w): nonzero Fraction}, the coefficient of h^e X^dots w.

    `block` records the block structure tau; every term's permutation must
    preserve its blocks.  Instances are immutable by convention.
    """

    __slots__ = ("n", "block", "terms")

    def __init__(
        self,
        n: int,
        block: Composition,
        terms: dict[TermKey, Fraction] | None = None,
    ):
        if total(block) != n:
            raise AlgebraError(f"block structure {block} does not sum to {n}")
        self.n = n
        self.block = block
        cleaned = {}
        for key, c in (terms or {}).items():
            if not c:
                continue
            if (
                len(key) != 3
                or key[0] < 0
                or len(key[1]) != n
                or len(key[2]) != n
                or min(key[1], default=0) < 0
            ):
                raise AlgebraError(f"malformed term {key}")
            if not _preserves_blocks(key[2], block):
                raise AlgebraError(
                    f"term {key[2]} does not preserve the blocks of {block}"
                )
            cleaned[key] = c if type(c) is Fraction else Fraction(c)
        self.terms = cleaned

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int, block: Composition | None = None) -> "AlgebraElement":
        return cls(n, block if block is not None else (n,), {})

    @classmethod
    def unit(cls, n: int, block: Composition | None = None) -> "AlgebraElement":
        return cls.h_scalar(n, 0, block)

    @classmethod
    def x_gen(cls, n: int, i: int, block: Composition | None = None) -> "AlgebraElement":
        if not 1 <= i <= n:
            raise AlgebraError(f"X_{i} is out of range for {n} strands")
        dots = tuple(1 if p == i else 0 for p in range(1, n + 1))
        key = (0, dots, identity(n))
        return cls(n, block if block is not None else (n,), {key: ONE})

    @classmethod
    def s_gen(cls, n: int, i: int, block: Composition | None = None) -> "AlgebraElement":
        if not 1 <= i <= n - 1:
            raise AlgebraError(f"s_{i} is out of range for {n} strands")
        return cls.from_perm(adjacent_transposition(n, i), block)

    @classmethod
    def from_perm(cls, w: Perm, block: Composition | None = None) -> "AlgebraElement":
        n = len(w)
        key = (0, (0,) * n, w)
        return cls(n, block if block is not None else (n,), {key: ONE})

    @classmethod
    def h_scalar(cls, n: int, power: int = 1, block: Composition | None = None) -> "AlgebraElement":
        key = (power, (0,) * n, identity(n))
        return cls(n, block if block is not None else (n,), {key: ONE})

    # -- arithmetic --------------------------------------------------

    def _common_block(self, other: "AlgebraElement") -> Composition:
        if self.n != other.n:
            raise AlgebraError(
                f"strand-count mismatch: {self.n} vs {other.n}"
            )
        if self.block == other.block:
            return self.block
        return meet(self.block, other.block)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        block = self._common_block(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return AlgebraElement(self.n, block, out)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        block = self._common_block(other)
        out: dict[TermKey, Fraction] = {}
        for (ea, ka, ua), ca in self.terms.items():
            for (eb, kb, ub), cb in other.terms.items():
                cab = ca * cb
                for (e, dots, w), c in _mul_basis(ka, ua, kb, ub).items():
                    key = (ea + eb + e, dots, w)
                    out[key] = out[key] + cab * c if key in out else cab * c
        return AlgebraElement(self.n, block, out)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement(
            self.n, self.block, {k: v * c for k, v in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        from .expr import format_element

        return f"<NH_{self.block} {format_element(self)}>"


def parabolic_decompose(w: Perm, tau: Composition) -> tuple[Perm, Perm]:
    """Write w = alpha o u with u permuting tau-blocks and alpha increasing
    on them; lengths add.  w must preserve some coarsening of tau's blocks
    for alpha to be a shuffle, but the factorization itself is generic.
    """
    alpha: list[int] = []
    start = 0
    for part in tau:
        alpha.extend(sorted(w[start : start + part]))
        start += part
    alpha_t = tuple(alpha)
    return alpha_t, compose(inverse(alpha_t), w)


def module_decompose(
    sigma: Composition, tau: Composition, x: AlgebraElement
) -> dict[Perm, AlgebraElement]:
    """Split x in NH_sigma over the free right NH_tau-module decomposition.

    Returns {alpha: y_alpha} with x = sum alpha * y_alpha, the alpha ranging
    over (sigma, tau)-shuffles and each y_alpha in NH_tau.
    """
    if not refines(sigma, tau):
        raise AlgebraError(f"{tau} does not refine {sigma}")
    if not refines(sigma, x.block):
        raise AlgebraError(f"element of NH_{x.block} is not in NH_{sigma}")
    n = x.n
    zero_dots = (0,) * n
    result: dict[Perm, dict[TermKey, Fraction]] = {}
    work = dict(x.terms)
    while work:
        key = max(work, key=lambda k: (inversions(k[2]), k))
        e, dots, w = key
        coef = work[key]
        alpha, u = parabolic_decompose(w, tau)
        pushed = tuple(dots[alpha[p] - 1] for p in range(n))
        # (dots, w) -> (alpha, pushed, u) is injective, so each piece term
        # is set once; h is central and keeps its power
        result.setdefault(alpha, {})[(e, pushed, u)] = coef
        # subtract h^e alpha * (X^pushed u); its top term cancels the key
        # and the h-corrections flow back into the working set
        for (pe, pdots, pw), c in _mul_basis(zero_dots, alpha, pushed, u).items():
            pkey = (e + pe, pdots, pw)
            acc = work.get(pkey, 0) - coef * c
            if acc:
                work[pkey] = acc
            else:
                work.pop(pkey, None)
    return {
        alpha: AlgebraElement(n, tau, terms)
        for alpha, terms in sorted(result.items())
    }


def flip_iso(x: AlgebraElement) -> AlgebraElement:
    """The tensor flip NH_(a,b) -> NH_(b,a) swapping the two blocks.

    On dots-only diagrams of NH_(2,1) this is (i,j,k) -> (k,i,j), and it
    sends the crossing XI to IX.
    """
    if len(x.block) != 2:
        raise AlgebraError(f"flip needs a two-block structure, got {x.block}")
    a, b = x.block
    n = x.n
    rho = tuple(range(b + 1, b + a + 1)) + tuple(range(1, b + 1))
    rho_inv = inverse(rho)
    out: dict[TermKey, Fraction] = {}
    for (e, dots, w), c in x.terms.items():
        new_w = compose(rho, compose(w, rho_inv))
        new_dots = tuple(dots[rho_inv[p] - 1] for p in range(n))
        out[(e, new_dots, new_w)] = c
    return AlgebraElement(n, (b, a), out)


def block_perms(tau: Composition) -> list[Perm]:
    """All permutations preserving the blocks of tau, in lex order: the
    (tau, singletons)-shuffles."""
    return list(enumerate_shuffles(tau, (1,) * total(tau)))


def s_generators(tau: Composition) -> list[int]:
    """Indices i whose crossing s_i stays inside a block of tau."""
    out = []
    for lo, hi in blocks(tau):
        out.extend(range(lo, hi))
    return out


def generators(n: int, block: Composition) -> list[AlgebraElement]:
    """The generators of NH_block: the crossings s_i inside its blocks, then
    the dots X_1 ... X_n, then h."""
    gens = [AlgebraElement.s_gen(n, i, block) for i in s_generators(block)]
    gens += [AlgebraElement.x_gen(n, i, block) for i in range(1, n + 1)]
    return gens + [AlgebraElement.h_scalar(n, 1, block)]


def nil_coxeter_image(x: AlgebraElement) -> PermTerms:
    """x in the nil-Coxeter quotient NH/(X_i = 0, h = 0): its dot-free terms
    with no h, as (permutation, coefficient)."""
    return [
        (w, c) for (e, dots, w), c in x.terms.items() if not e and not any(dots)
    ]


class NilCoxeterModule:
    """The right NH_tau-module NH_tau/(X_i = 0, h = 0), of dimension
    prod(tau_i!), with basis the block permutations of tau.

    Basis vectors are indexed by block permutations sorted lexicographically;
    a crossing diagram acts by e_u . w = e_{u o w} when lengths add and by 0
    otherwise, dots and h act by 0.  Each instance tabulates the (row, col)
    cells of a permutation's action the first time it acts.
    """

    def __init__(self, tau: Composition):
        self.tau = tau
        self.n = total(tau)
        self.basis = block_perms(tau)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self._cells: dict[Perm, list[tuple[int, int]]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act_entries(self, x: AlgebraElement) -> Entries:
        """Nonzero entries {(row, col): value} of the right action of a
        general element: `perm_entries` of its `nil_coxeter_image`."""
        return self.perm_entries(nil_coxeter_image(x))

    def perm_entries(self, terms: PermTerms) -> Entries:
        """Nonzero entries of the right action of sum c * w over nonzero
        (w, c) terms with distinct w, an element of the nil-Coxeter quotient.

        u -> u o w is injective, so every entry comes from a single term.
        """
        out: Entries = {}
        for w, c0 in terms:
            for cell in self._action_cells(w):
                out[cell] = c0
        return out

    def _action_cells(self, w: Perm) -> list[tuple[int, int]]:
        """The (row, col) cells where w acts by 1, by column: e_u . w =
        e_{u o w} when lengths add."""
        cells = self._cells.get(w)
        if cells is None:
            cells = []
            for c, u in enumerate(self.basis):
                img = nil_product(u, w)
                if img is None:
                    continue
                r = self.index.get(img)
                if r is None:
                    raise AlgebraError(
                        f"action of {w} leaves the module basis of NH_{self.tau}"
                    )
                cells.append((r, c))
            self._cells[w] = cells
        return cells

    def act_matrix(self, x: AlgebraElement) -> Matrix:
        """Right-action matrix of a general element: `act_entries`, dense."""
        return from_entries(self.act_entries(x), self.dim, self.dim)


class TruncatedPolyModule:
    """NH_tau truncated at dot degree < DOT_BOUND and h-degree < H_BOUND,
    as a right NH_tau-module.  Spot-check companion to the nil-Coxeter
    quotient: the h-corrections act nontrivially here.
    """

    DOT_BOUND = 2
    H_BOUND = 2

    def __init__(self, tau: Composition):
        self.tau = tau
        self.n = total(tau)
        dot_vectors = [
            d
            for d in product(range(self.DOT_BOUND), repeat=self.n)
            if sum(d) < self.DOT_BOUND
        ]
        self.basis = [
            (e, dots, w)
            for e in range(self.H_BOUND)
            for dots in dot_vectors
            for w in block_perms(tau)
        ]
        self.index = {b: i for i, b in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act_entries(self, x: AlgebraElement) -> Entries:
        """Nonzero entries {(row, col): value} of the right action of x.

        Column c is the truncated product (basis vector c) * x; its terms
        are distinct, so each entry is set once.
        """
        out: Entries = {}
        for c, key in enumerate(self.basis):
            prod = AlgebraElement(self.n, self.tau, {key: ONE}) * x
            for pkey, coeff in prod.terms.items():
                if pkey[0] < self.H_BOUND and sum(pkey[1]) < self.DOT_BOUND:
                    out[(self.index[pkey], c)] = coeff
        return out

    def act_matrix(self, x: AlgebraElement) -> Matrix:
        """Right-action matrix of x: `act_entries`, dense."""
        return from_entries(self.act_entries(x), self.dim, self.dim)

