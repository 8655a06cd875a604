"""Computable normal orderings of the Weyl algebra and their finite-depth metric.

An ordering here is a (possibly empty) stack of nonnegative rational weight
rows followed by an implicit lexicographic tie-break on the concatenated
exponent vector (x block first).  Every such comparison is a normal ordering:
1 is the strict minimum and comparisons are invariant under exponent
translation.  ``lex`` is the empty stack; ``grlex`` is the all-ones row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .weyl import Monomial, _check_dim, _check_dimension, _check_int, _Immutable


class Ordering(_Immutable):
    """Total order on normal monomials, well-founded and translation-compatible.

    ``rows`` keeps the weight rows as given, as Fractions; equality, hashing
    and ``format_ordering`` read only them.  Sort keys are computed from a
    scaled copy: each row multiplied by the lcm of its denominators, which
    makes it a row of ints.  A positive factor per row leaves every row's
    comparison, and so the lexicographic comparison of whole keys, unchanged,
    while the keys become tuples of ints instead of tuples of Fractions.
    ``_from_int_row`` builds a one-row ordering from a row of ints, which
    are both its rows and its scaled copy.
    """

    __slots__ = ("rows", "_int_rows")

    def __init__(self, rows=()):
        rows = tuple(tuple(Fraction(q) for q in row) for row in rows)
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError("weight rows must all have the same width")
        for row in rows:
            if len(row) % 2:
                raise ValueError("weight rows must have even width (x block + d block)")
            if any(q < 0 for q in row):
                raise ValueError("weight rows must be componentwise nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_int_rows", tuple(_integer_row(row) for row in rows))

    @classmethod
    def _from_int_row(cls, row):
        """``Ordering((row,))`` for a row of ints that the caller has found
        nonnegative and of even width, without the round trip through
        Fractions: the ints compare, hash and print as their Fractions do."""
        row = tuple(row)
        self = object.__new__(cls)
        object.__setattr__(self, "rows", (row,))
        object.__setattr__(self, "_int_rows", (row,))
        return self

    def __reduce__(self):
        return (Ordering, (self.rows,))

    @classmethod
    def lex(cls):
        return cls(())

    @classmethod
    def grlex(cls, n):
        """Total degree first, then lex: the all-ones weight row."""
        _check_dimension(n)
        return cls(((1,) * (2 * n),))

    @classmethod
    def matrix(cls, rows):
        ordering = cls(rows)
        if not ordering.rows:
            raise ValueError("matrix ordering needs at least one weight row")
        return ordering

    def sort_key(self, mono):
        """Key whose natural tuple comparison realizes this ordering, for a
        Monomial or any exponent tuple: the dot product of each row with the
        exponents, then the exponents."""
        rows = self._int_rows
        if rows and len(rows[0]) != len(mono):
            raise ValueError(f"weight rows have width {len(rows[0])}, expected {len(mono)}")
        if len(rows) == 1:  # grlex and one-row matrices: no generator to run
            return (sum(map(operator.mul, rows[0], mono)), *mono)
        return tuple(sum(map(operator.mul, row, mono)) for row in rows) + mono

    def compare(self, a, b):
        """-1, 0 or 1 as a is below, equal to, or above b."""
        _check_dim(a, b)
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        from .parsing import format_ordering

        return f"Ordering({format_ordering(self)!r})"


def agree_on(ord1, ord2, monomials):
    """True iff the two orderings compare every pair from the set identically:
    keys end with the exponents, so each total order sorts the set one way."""
    monos = list(monomials)
    for m in monos:
        _check_dim(monos[0], m)
    return sorted(monos, key=ord1.sort_key) == sorted(monos, key=ord2.sort_key)


def monomials_up_to_degree(n, max_degree):
    """All exponent pairs of total degree <= max_degree, graded-lex order."""
    out = []
    for deg in range(max_degree + 1):
        for vec in _compositions(deg, 2 * n):
            out.append(Monomial(vec[:n], vec[n:]))
    return out


def _compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, length - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class Filtration:
    """Nested finite monomial sets S_0 = {} and S_1 <= S_2 <= ... covering all.

    The default rule puts the monomials of total degree < i into level i.
    A custom ``rule(i) -> iterable of Monomial`` may be supplied; it must be
    nested and exhaustive for the metric below to make sense.
    """

    n: int
    rule: object = None

    def __post_init__(self):
        _check_dimension(self.n)

    def level(self, i):
        _check_int("the filtration level", i, 0)
        if self.rule is not None:
            return tuple(self.rule(i))
        if i == 0:
            return ()
        return tuple(monomials_up_to_degree(self.n, i - 1))


@dataclass(frozen=True)
class DistanceBound:
    """Result of the capped ordering distance.

    ``exact`` means the distance is precisely ``value`` (2**-r for the least
    disagreement depth r).  Otherwise the orderings agreed on every level up
    to the cap and the true distance is at most ``value`` (possibly 0).
    """

    value: Fraction
    exact: bool


def ordering_distance(ord1, ord2, filtration, depth_cap):
    """Filtration distance 2**-r, probed up to depth_cap levels.

    r is the deepest filtration level on which the orderings still agree.
    Equality of black-box orderings is undecidable, so when no disagreement
    shows up by the cap the result is an upper bound, not an exact value.
    """
    _check_int("depth_cap", depth_cap, 1)
    for i in range(1, depth_cap + 1):
        if not agree_on(ord1, ord2, filtration.level(i)):
            return DistanceBound(Fraction(1, 2 ** (i - 1)), exact=True)
    return DistanceBound(Fraction(1, 2**depth_cap), exact=False)


def _integer_row(row):
    """The row times the lcm of its denominators: same comparisons, int entries."""
    scale = math.lcm(*(q.denominator for q in row))
    return tuple(q.numerator * (scale // q.denominator) for q in row)
