"""
Expression grammar for algebra elements and the canonical printer.

Grammar (whitespace insignificant, `*` binds tighter than `+`/`-`):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '(' expr ')' | '1' | 'h' | 's'INT | 'X'INT | INT

Juxtaposition is not multiplication.  The printer emits one monomial per
(h-power, dots, permutation) triple, sorted by that key, with repeated `h`
and `X` factors and the lexicographically smallest reduced word for the
permutation, so printed forms re-parse to the same element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement
from .compositions import Composition, total
from .perms import reduced_word


class ExprError(ValueError):
    """Parse or evaluation error carrying a 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'h' | 'one' | 's' | 'X' | 'op' | 'lpar' | 'rpar' | 'end'
    value: int | str | None
    position: int


def tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*":
            out.append(Token("op", ch, i))
            i += 1
        elif ch == "(":
            out.append(Token("lpar", None, i))
            i += 1
        elif ch == ")":
            out.append(Token("rpar", None, i))
            i += 1
        elif ch in "sX":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprError(f"generator {ch!r} needs an index", i)
            out.append(Token(ch, int(text[i + 1 : j]), i))
            i = j
        elif ch == "h":
            out.append(Token("h", None, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("int", int(text[i:j]), i))
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r}", i)
    out.append(Token("end", None, len(text)))
    return out


Ast = tuple


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Ast:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError("trailing input", tok.position)
        return node

    def expr(self) -> Ast:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            node: Ast = ("neg", self.term())
        else:
            node = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance().value
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Ast:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().value == "*":
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self) -> Ast:
        tok = self.advance()
        if tok.kind == "lpar":
            node = self.expr()
            closing = self.advance()
            if closing.kind != "rpar":
                raise ExprError("expected ')'", closing.position)
            return node
        if tok.kind == "op" and tok.value == "-":
            return ("neg", self.factor())
        if tok.kind == "int":
            if tok.value == 1:
                return ("one",)
            return ("int", tok.value)
        if tok.kind == "h":
            return ("h",)
        if tok.kind == "s":
            return ("s", tok.value, tok.position)
        if tok.kind == "X":
            return ("x", tok.value, tok.position)
        raise ExprError("expected a term", tok.position)


def parse(text: str) -> Ast:
    """Parse to an AST; raises ExprError with a position on bad input.

    >>> parse("s1*X1")
    ('mul', ('s', 1, 0), ('x', 1, 3))
    """
    return _Parser(tokenize(text)).parse()


def evaluate(ast: Ast, tau: Composition) -> AlgebraElement:
    """Evaluate inside NH_tau; generator indices are range-checked."""
    n = total(tau)

    def rec(node: Ast) -> AlgebraElement:
        kind = node[0]
        if kind == "add":
            return rec(node[1]) + rec(node[2])
        if kind == "sub":
            return rec(node[1]) - rec(node[2])
        if kind == "mul":
            return rec(node[1]) * rec(node[2])
        if kind == "neg":
            return -rec(node[1])
        if kind == "one":
            return AlgebraElement.unit(n, tau)
        if kind == "int":
            return AlgebraElement.unit(n, tau).scale(node[1])
        if kind == "h":
            return AlgebraElement.h_scalar(n, 1, tau)
        if kind == "s":
            i, pos = node[1], node[2]
            if not 1 <= i <= n - 1:
                raise ExprError(f"s{i} out of range for {n} strands", pos)
            from .algebra import s_generators

            if i not in s_generators(tau):
                raise ExprError(f"s{i} crosses a block boundary of {tau}", pos)
            return AlgebraElement.s_gen(n, i, tau)
        if kind == "x":
            i, pos = node[1], node[2]
            if not 1 <= i <= n:
                raise ExprError(f"X{i} out of range for {n} strands", pos)
            return AlgebraElement.x_gen(n, i, tau)
        raise ExprError(f"unknown node {kind!r}", 0)

    return rec(ast)


def eval_string(text: str, tau: Composition) -> AlgebraElement:
    return evaluate(parse(text), tau)


def format_element(x: AlgebraElement) -> str:
    """Canonical printed form: monomials sorted by (h-power, dots, perm).

    >>> format_element(eval_string("s1*X1", (2,)))
    'X2*s1 + h'
    """
    if not x.terms:
        return "0"
    pieces = []
    for (e, dots, w), coeff in sorted(x.terms.items()):
        factors = ["h"] * e
        for p, d in enumerate(dots, start=1):
            factors.extend([f"X{p}"] * d)
        factors.extend(f"s{i}" for i in reduced_word(w))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text
