"""
The NilHecke strand-diagram algebras NH_tau over exact h-polynomials.

Basis elements are dotted diagrams X_1^{k_1}...X_n^{k_n} * w with the dots
sitting above the permutation w.  Products stack the left factor on top of
the right one and are rewritten to normal form with the three relations

    s_i^2 = 0,
    X_i s_i - s_i X_{i+1} = h   and   s_i X_i - X_{i+1} s_i = h,
    s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1},

where h is the central deformation parameter.  Every product of basis
elements terminates in polynomial h-corrections, so coefficients are exact
polynomials in h over the rationals - the completed base ring is never
needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .compositions import (
    Composition,
    block_positions,
    blocks,
    meet,
    refines,
    total,
)
from .linalg import Entries, Matrix, from_entries
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


class HPoly:
    """Polynomial in h with Fraction coefficients; no stored zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        self.coeffs = {
            e: Fraction(c) for e, c in (coeffs or {}).items() if c != 0
        }

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction]) -> "HPoly":
        """Trusted constructor for coefficients that are already Fractions,
        as the arithmetic below computes them: drops zeros, no coercion."""
        p = cls.__new__(cls)
        p.coeffs = {e: c for e, c in coeffs.items() if c}
        return p

    @classmethod
    def const(cls, c) -> "HPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def h(cls, power: int = 1) -> "HPoly":
        return cls({power: Fraction(1)})

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return HPoly._of(out)

    def __neg__(self) -> "HPoly":
        return HPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-other)

    def __mul__(self, other: "HPoly") -> "HPoly":
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e, c = e1 + e2, c1 * c2
                out[e] = out[e] + c if e in out else c
        return HPoly._of(out)

    def scale(self, c) -> "HPoly":
        c = Fraction(c)
        return HPoly._of({e: v * c for e, v in self.coeffs.items()})

    def shift(self, power: int) -> "HPoly":
        return HPoly._of({e + power: v for e, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, HPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                bits.append(f"{head}h^{e}" if e > 1 else f"{head}h")
        return " + ".join(bits)


Dots = tuple[int, ...]
TermKey = tuple[Dots, Perm]  # a dotted diagram: dots above the permutation
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
) -> dict[TermKey, HPoly]:
    """Normal form of (X^a u) * (X^b v); coefficients collect h-corrections."""
    if not any(bdots):
        w = nil_product(u, v)
        if w is None:
            return {}
        return {(adots, w): HPoly.const(1)}
    j = next(p for p, d in enumerate(bdots, start=1) if d > 0)
    rest = tuple(d - (1 if p == j else 0) for p, d in enumerate(bdots, start=1))
    k, corrs = dot_pass(u, j)
    out: dict[TermKey, HPoly] = {}
    lifted_dots = tuple(
        d + (1 if p == k else 0) for p, d in enumerate(adots, start=1)
    )
    for key, hp in _mul_basis(lifted_dots, u, rest, v).items():
        out[key] = out.get(key, HPoly()) + hp
    for gamma, sign in corrs:
        for key, hp in _mul_basis(adots, gamma, rest, v).items():
            out[key] = out.get(key, HPoly()) + hp.shift(1).scale(sign)
    return {key: hp for key, hp in out.items() if not hp.is_zero()}


def _preserves_blocks(w: Perm, tau: Composition) -> bool:
    for positions in block_positions(tau):
        if any(w[p - 1] not in positions for p in positions):
            return False
    return True


class AlgebraElement:
    """An element of NH_tau inside NH_n, as a normal-form term map.

    `block` records the block structure tau; every term's permutation must
    preserve its blocks.  Instances are immutable by convention.
    """

    __slots__ = ("n", "block", "terms")

    def __init__(
        self,
        n: int,
        block: Composition,
        terms: dict[TermKey, HPoly] | None = None,
    ):
        if total(block) != n:
            raise AlgebraError(f"block structure {block} does not sum to {n}")
        self.n = n
        self.block = block
        cleaned = {}
        for (dots, w), hp in (terms or {}).items():
            if hp.is_zero():
                continue
            if len(dots) != n or len(w) != n or min(dots, default=0) < 0:
                raise AlgebraError(f"malformed term {(dots, w)}")
            if not _preserves_blocks(w, block):
                raise AlgebraError(
                    f"term {w} does not preserve the blocks of {block}"
                )
            cleaned[(dots, w)] = hp
        self.terms = cleaned

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int, block: Composition | None = None) -> "AlgebraElement":
        return cls(n, block if block is not None else (n,), {})

    @classmethod
    def unit(cls, n: int, block: Composition | None = None) -> "AlgebraElement":
        key = ((0,) * n, identity(n))
        return cls(n, block if block is not None else (n,), {key: HPoly.const(1)})

    @classmethod
    def x_gen(cls, n: int, i: int, block: Composition | None = None) -> "AlgebraElement":
        if not 1 <= i <= n:
            raise AlgebraError(f"X_{i} is out of range for {n} strands")
        dots = tuple(1 if p == i else 0 for p in range(1, n + 1))
        key = (dots, identity(n))
        return cls(n, block if block is not None else (n,), {key: HPoly.const(1)})

    @classmethod
    def s_gen(cls, n: int, i: int, block: Composition | None = None) -> "AlgebraElement":
        if not 1 <= i <= n - 1:
            raise AlgebraError(f"s_{i} is out of range for {n} strands")
        key = ((0,) * n, adjacent_transposition(n, i))
        return cls(n, block if block is not None else (n,), {key: HPoly.const(1)})

    @classmethod
    def from_perm(cls, w: Perm, block: Composition | None = None) -> "AlgebraElement":
        n = len(w)
        key = ((0,) * n, w)
        return cls(n, block if block is not None else (n,), {key: HPoly.const(1)})

    @classmethod
    def h_scalar(cls, n: int, power: int = 1, block: Composition | None = None) -> "AlgebraElement":
        key = ((0,) * n, identity(n))
        return cls(n, block if block is not None else (n,), {key: HPoly.h(power)})

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
        for key, hp in other.terms.items():
            out[key] = out.get(key, HPoly()) + hp
        return AlgebraElement(self.n, block, out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(
            self.n, self.block, {k: -hp for k, hp in self.terms.items()}
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        block = self._common_block(other)
        out: dict[TermKey, HPoly] = {}
        for (ka, ua), ca in self.terms.items():
            for (kb, ub), cb in other.terms.items():
                for key, hp in _mul_basis(ka, ua, kb, ub).items():
                    out[key] = out.get(key, HPoly()) + (ca * cb) * hp
        return AlgebraElement(self.n, block, out)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(
            self.n, self.block, {k: hp.scale(c) for k, hp in self.terms.items()}
        )

    def scale_h(self, power: int = 1) -> "AlgebraElement":
        return AlgebraElement(
            self.n, self.block, {k: hp.shift(power) for k, hp in self.terms.items()}
        )

    def in_block(self, block: Composition) -> "AlgebraElement":
        """Recast into NH_block (must contain all terms)."""
        return AlgebraElement(self.n, block, dict(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

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
    result: dict[Perm, dict[TermKey, HPoly]] = {}
    work = dict(x.terms)
    while work:
        key = max(work, key=lambda k: (inversions(k[1]), k))
        dots, w = key
        coef = work[key]
        alpha, u = parabolic_decompose(w, tau)
        pushed = tuple(dots[alpha[p] - 1] for p in range(n))
        piece = result.setdefault(alpha, {})
        tkey = (pushed, u)
        piece[tkey] = piece.get(tkey, HPoly()) + coef
        # subtract alpha * (X^pushed u); its top term cancels (dots, w) and
        # the h-corrections flow back into the working set
        for pkey, hp in _mul_basis(zero_dots, alpha, pushed, u).items():
            acc = work.get(pkey, HPoly()) - coef * hp
            if acc.is_zero():
                work.pop(pkey, None)
            else:
                work[pkey] = acc
    return {
        alpha: AlgebraElement(n, tau, terms)
        for alpha, terms in sorted(result.items())
        if any(not hp.is_zero() for hp in terms.values())
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
    out: dict[TermKey, HPoly] = {}
    for (dots, w), hp in x.terms.items():
        new_w = compose(rho, compose(w, rho_inv))
        new_dots = tuple(dots[rho_inv[p] - 1] for p in range(n))
        out[(new_dots, new_w)] = hp
    return AlgebraElement(n, (b, a), out)


def mirror_iso(x: AlgebraElement) -> AlgebraElement:
    """Conjugation by the order-reversing permutation (left-right mirror)."""
    from .perms import reverse_conjugate

    n = x.n
    out: dict[TermKey, HPoly] = {}
    for (dots, w), hp in x.terms.items():
        out[(tuple(reversed(dots)), reverse_conjugate(w))] = hp
    return AlgebraElement(n, tuple(reversed(x.block)), out)


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
    the dots X_1 ... X_n."""
    gens = [AlgebraElement.s_gen(n, i, block) for i in s_generators(block)]
    return gens + [AlgebraElement.x_gen(n, i, block) for i in range(1, n + 1)]


def nil_coxeter_image(x: AlgebraElement) -> PermTerms:
    """x in the nil-Coxeter quotient NH/(X_i = 0, h = 0): its dot-free terms
    with a nonzero constant coefficient, as (permutation, coefficient)."""
    out = []
    for (dots, w), hp in x.terms.items():
        if any(dots):
            continue
        c0 = hp.constant_term()
        if c0:
            out.append((w, c0))
    return out


class NilCoxeterModule:
    """The right NH_tau-module NH_tau/(X_i = 0, h = 0), of dimension
    prod(tau_i!), with basis the block permutations of tau.

    Basis vectors are indexed by block permutations sorted lexicographically;
    a crossing diagram acts by e_u . w = e_{u o w} when lengths add and by 0
    otherwise, dots and h act by 0.
    """

    def __init__(self, tau: Composition):
        self.tau = tau
        self.n = total(tau)
        self.basis = block_perms(tau)
        self.index = {w: i for i, w in enumerate(self.basis)}

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
            for c, u in enumerate(self.basis):
                img = nil_product(u, w)
                if img is None:
                    continue
                r = self.index.get(img)
                if r is None:
                    raise AlgebraError(
                        f"action of {w} leaves the module basis of NH_{self.tau}"
                    )
                out[(r, c)] = c0
        return out

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
        dot_vectors = _dot_vectors(self.n, self.DOT_BOUND - 1)
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
        and h-powers are distinct, so each entry is set once.
        """
        out: Entries = {}
        for c, (e, dots, w) in enumerate(self.basis):
            elem = AlgebraElement(self.n, self.tau, {(dots, w): HPoly.h(e)})
            prod = elem * x
            for (pdots, pw), hp in prod.terms.items():
                if sum(pdots) >= self.DOT_BOUND:
                    continue
                for exp, coeff in hp.coeffs.items():
                    if exp >= self.H_BOUND:
                        continue
                    out[(self.index[(exp, pdots, pw)], c)] = coeff
        return out

    def act_matrix(self, x: AlgebraElement) -> Matrix:
        """Right-action matrix of x: `act_entries`, dense."""
        return from_entries(self.act_entries(x), self.dim, self.dim)


def _dot_vectors(n: int, max_total: int) -> list[Dots]:
    out = []

    def rec(prefix: list[int], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            prefix.append(d)
            rec(prefix, remaining - 1, budget - d)
            prefix.pop()

    rec([], n, max_total)
    return sorted(out)
