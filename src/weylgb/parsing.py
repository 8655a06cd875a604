"""Text syntax for elements and orderings.

Elements: rationals ``p/q`` or integers, variables ``x1..xn`` and ``d1..dn``,
operators ``+ - * ^`` and parentheses.  Products need an explicit ``*`` and
are evaluated left to right in the noncommutative algebra; the result is
normalized to canonical form, so ``d1*x1`` parses to ``x1*d1 + 1``.

One regex match finds the first character that starts no token, and one
``finditer`` lists the tokens.  Values are ``{Monomial: Fraction}`` dicts and
the element is built once, at the end: sums merge in place, products and
powers go through ``weyl._multiply_terms`` and ``weyl._power_terms``.  A
product's leading run of numbers and variables, each with an optional power,
folds into one term c * x^a * d^b while no x_i follows a d_i already in it.
Every factor of such a run commutes with the term before it, so each product
of the run is already that one term, and the result, term order included,
is the same.

Formatting is the inverse on canonical strings: terms in descending
graded-lex exponent order, x factors before d factors, coefficient 1
suppressed.  ``format_element(parse_element(s, n))`` is a fixpoint on its
own output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .orderings import Ordering
from .weyl import Monomial, WeylElement, _check_dimension, _multiply_terms, _power_terms


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<number>\d+(?:/\d+)?)|(?P<var>[xd]\d+)|(?P<op>[-+*^()])")
# tokens and spaces, matched token by token as a scan would, so a match ends
# at the first character that starts no token
_TEXT = re.compile(rf"(?:\s*(?:{_TOKEN.pattern}))*\s*")


def _tokenize(text):
    end = _TEXT.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", end)
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; each method returns a ``{Monomial: Fraction}`` dict
    of its own.  An operator token is known by its text alone."""

    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.n = n
        self.index = 0

    def parse(self):
        terms = self.expr()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return WeylElement._raw(self.n, terms)

    def expr(self):
        negate = self.tokens[self.index][1] == "-"
        if negate:
            self.index += 1
        value = self.term()
        if negate:
            value = {mono: -coeff for mono, coeff in value.items()}
        op = self.tokens[self.index][1]
        while op == "+" or op == "-":
            self.index += 1
            for mono, coeff in self.term().items():
                coeff = value.get(mono, 0) + coeff if op == "+" else value.get(mono, 0) - coeff
                if coeff:
                    value[mono] = coeff
                else:
                    del value[mono]
            op = self.tokens[self.index][1]
        return value

    def term(self):
        value = self.factor(fold=True)
        while self.tokens[self.index][1] == "*":
            self.index += 1
            value = _multiply_terms(value, self.factor())
        return value

    def factor(self, fold=False):
        """One factor, or with ``fold`` the longest run of atoms that is one term."""
        tokens = self.tokens
        vector = [0] * (2 * self.n)
        slot = self.atom(self.index, vector)
        if slot is None:
            return _power_terms(self.group(), self.power(), self.n)
        numerator = denominator = 1
        while True:
            _, text, pos = tokens[self.index]
            self.index += 1
            if slot < 0:
                p, _, q = text.partition("/")
                p, q = int(p), int(q or 1)
                if not q:
                    raise ParseError("zero denominator", pos)
                k = self.power()
                numerator, denominator = numerator * p**k, denominator * q**k
            else:
                vector[slot] += self.power()
            if not fold or tokens[self.index][1] != "*":
                break
            slot = self.atom(self.index + 1, vector)
            if slot is None:
                break
            self.index += 1
        return {Monomial._raw(vector): Fraction(numerator, denominator)} if numerator else {}

    def atom(self, index, vector):
        """-1 for a number at ``index``, the exponent slot of a variable that
        commutes with the term ``vector``, else None."""
        kind, text, pos = self.tokens[index]
        if kind != "var":
            return -1 if kind == "number" else None
        n, i = self.n, int(text[1:])
        if not 1 <= i <= n:
            raise ParseError(f"variable {text!r} out of range for dimension {n}", pos)
        if text[0] == "d":
            return n + i - 1
        return None if vector[n + i - 1] else i - 1

    def power(self):
        """The integer after ``^``, or 1 when no ``^`` follows."""
        if self.tokens[self.index][1] != "^":
            return 1
        kind, text, pos = self.tokens[self.index + 1]
        self.index += 2
        if kind != "number" or "/" in text:
            raise ParseError("exponent must be a nonnegative integer", pos)
        return int(text)

    def group(self):
        _, text, pos = self.tokens[self.index]
        self.index += 1
        if text != "(":
            raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)
        value = self.expr()
        _, text, pos = self.tokens[self.index]
        self.index += 1
        if text != ")":
            raise ParseError("expected ')'", pos)
        return value


def parse_element(text, n):
    """Parse an expression into canonical form in dimension n."""
    _check_dimension(n)
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
    for mono, coeff in w.sorted_terms():
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
    _check_dimension(n)
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
