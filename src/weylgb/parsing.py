"""Text syntax for elements and orderings.

Elements: rationals ``p/q`` or integers, variables ``x1..xn`` and ``d1..dn``,
operators ``+ - * ^`` and parentheses.  Products need an explicit ``*`` and
are evaluated left to right in the noncommutative algebra; the result is
normalized to canonical form, so ``d1*x1`` parses to ``x1*d1 + 1``.

Formatting is the inverse on canonical strings: terms in descending
graded-lex exponent order, x factors before d factors, coefficient 1
suppressed.  ``format_element(parse_element(s, n))`` is a fixpoint on its
own output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .orderings import Ordering
from .weyl import Monomial, WeylAlgebra, WeylElement


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>[xd]\d+)|(?P<op>[-+*^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.n = n
        self.algebra = WeylAlgebra(n)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, text, pos = self.advance()
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer", pos)
            value = value ** int(text)
        return value

    def base(self):
        kind, text, pos = self.advance()
        if kind == "number":
            try:
                coeff = Fraction(text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
            return WeylElement.from_term(self.n, Monomial.unit(self.n), coeff)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable {text!r} out of range for dimension {self.n}", pos
                )
            return (self.algebra.xi if text[0] == "x" else self.algebra.d)(index)
        if (kind, text) == ("op", "("):
            value = self.expr()
            kind, text, pos = self.advance()
            if (kind, text) != ("op", ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_element(text, n):
    """Parse an expression into canonical form in dimension n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    try:
        return _Parser(text, n).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


def format_monomial(mono):
    """Canonical monomial text: x factors then d factors, or "1"."""
    parts = []
    for name, exps in (("x", mono.xi), ("d", mono.d)):
        for i, e in enumerate(exps, 1):
            if e == 1:
                parts.append(f"{name}{i}")
            elif e > 1:
                parts.append(f"{name}{i}^{e}")
    return "*".join(parts) if parts else "1"


def format_element(w):
    """Canonical element text; terms in descending graded-lex order."""
    if not w:
        return "0"
    pieces = []
    for mono, coeff in w.sorted_terms(reverse=True):
        mono_text = format_monomial(mono)
        if mono.is_unit():
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono_text
        else:
            body = f"{abs(coeff)}*{mono_text}"
        pieces.append((coeff < 0, body))
    negative, body = pieces[0]
    out = ("-" if negative else "") + body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def parse_ordering(text, n):
    """Ordering spec syntax: ``lex``, ``grlex`` or ``matrix:[[q,...];[q,...]]``."""
    text = text.strip()
    if text == "lex":
        return Ordering.lex()
    if text == "grlex":
        return Ordering.grlex(n)
    if text.startswith("matrix:"):
        body = text[len("matrix:") :].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed matrix ordering spec: {text!r}")
        rows = []
        for row_text in body[1:-1].split(";"):
            row_text = row_text.strip()
            if not (row_text.startswith("[") and row_text.endswith("]")):
                raise ValueError(f"malformed matrix row: {row_text!r}")
            entries = [e.strip() for e in row_text[1:-1].split(",")]
            try:
                rows.append(tuple(Fraction(e) for e in entries))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad matrix entry in {row_text!r}: {exc}") from None
        ordering = Ordering.matrix(rows)
        if len(ordering.rows[0]) != 2 * n:
            raise ValueError(
                f"matrix rows have {len(ordering.rows[0])} entries, expected {2 * n}"
            )
        return ordering
    raise ValueError(f"unknown ordering spec {text!r}; use lex, grlex or matrix:[[...]]")


def format_ordering(ordering):
    if not ordering.rows:
        return "lex"
    rows = ";".join(
        "[" + ",".join(str(q) for q in row) + "]" for row in ordering.rows
    )
    return f"matrix:[{rows}]"
