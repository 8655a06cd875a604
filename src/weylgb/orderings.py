"""Computable normal orderings of the Weyl algebra and their finite-depth metric.

An ordering here is a (possibly empty) stack of nonnegative rational weight
rows followed by an implicit lexicographic tie-break on the concatenated
exponent vector (x block first).  Every such comparison is a normal ordering:
1 is the strict minimum and comparisons are invariant under exponent
translation.  ``lex`` is the empty stack; ``grlex`` is the all-ones row.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .weyl import CACHE_SIZE, Monomial


class Ordering:
    """Total order on normal monomials, well-founded and translation-compatible.

    ``rows`` keeps the weight rows as given, as Fractions; equality, hashing
    and ``format_ordering`` read only them.  Sort keys are computed from a
    scaled copy: each row multiplied by the lcm of its denominators, which
    makes it a row of ints.  A positive factor per row leaves every row's
    comparison, and so the lexicographic comparison of whole keys, unchanged,
    while the keys become tuples of ints instead of tuples of Fractions.
    Keys are cached per monomial; the cache is emptied whenever it reaches
    ``weyl.CACHE_SIZE`` entries, so a long-lived ordering holds a bounded
    number of them.
    """

    __slots__ = ("rows", "_int_rows", "_key_cache", "__weakref__")

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
        self.rows = rows
        self._int_rows = tuple(_integer_row(row) for row in rows)
        self._key_cache = {}

    @classmethod
    def lex(cls):
        return cls(())

    @classmethod
    def grlex(cls, n):
        """Total degree first, then lex: the all-ones weight row."""
        if n < 1:
            raise ValueError("dimension must be >= 1")
        return cls(((1,) * (2 * n),))

    @classmethod
    def matrix(cls, rows):
        ordering = cls(rows)
        if not ordering.rows:
            raise ValueError("matrix ordering needs at least one weight row")
        return ordering

    def sort_key(self, mono):
        """Key whose natural tuple comparison realizes this ordering."""
        cache = self._key_cache
        key = cache.get(mono)
        if key is None:
            self._check_width(mono)
            vec = mono.vector
            key = tuple(sum(map(operator.mul, row, vec)) for row in self._int_rows) + vec
            if len(cache) >= CACHE_SIZE:
                cache.clear()
            cache[mono] = key
        return key

    def compare(self, a, b):
        """-1, 0 or 1 as a is below, equal to, or above b."""
        if a.dimension != b.dimension:
            raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def _check_width(self, mono):
        if self.rows and len(self.rows[0]) != 2 * mono.dimension:
            raise ValueError(
                f"weight rows have width {len(self.rows[0])}, "
                f"expected {2 * mono.dimension}"
            )

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        from .parsing import format_ordering

        return f"Ordering({format_ordering(self)!r})"


def agree_on(ord1, ord2, monomials):
    """True iff the two orderings compare every pair from the set identically."""
    monomials = list(monomials)
    for a, b in itertools.combinations(monomials, 2):
        if ord1.compare(a, b) != ord2.compare(a, b):
            return False
    return True


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


class Filtration:
    """Nested finite monomial sets S_0 = {} and S_1 <= S_2 <= ... covering all.

    The default rule puts the monomials of total degree < i into level i.
    A custom ``rule(i) -> iterable of Monomial`` may be supplied; it must be
    nested and exhaustive for the metric below to make sense.
    """

    def __init__(self, n, rule=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self._rule = rule

    def level(self, i):
        if i < 0:
            raise ValueError("filtration level must be >= 0")
        if self._rule is not None:
            return tuple(self._rule(i))
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
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    for i in range(1, depth_cap + 1):
        if not agree_on(ord1, ord2, filtration.level(i)):
            return DistanceBound(Fraction(1, 2 ** (i - 1)), exact=True)
    return DistanceBound(Fraction(1, 2**depth_cap), exact=False)


def _integer_row(row):
    """The row times the lcm of its denominators: same comparisons, int entries."""
    scale = math.lcm(*(q.denominator for q in row))
    return tuple(q.numerator * (scale // q.denominator) for q in row)
