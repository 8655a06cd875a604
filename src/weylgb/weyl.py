"""Exact canonical-form arithmetic in the nth Weyl algebra over the rationals.

The algebra is generated by x1..xn and d1..dn subject to

    xi*xj = xj*xi,   di*dj = dj*di,   di*xj = xj*di + (1 if i == j else 0).

Every element has a unique canonical form: a finite rational combination of
normal monomials x^a * d^b (all x factors to the left of all d factors).  A
``Monomial`` is the tuple of its exponents, a followed by b, so hashing,
equality and construction run in C, and the kernels read the exponents from
the monomial itself; the blocks a and b are slices, read by the product
formula and the text format.  Elements map monomials to nonzero
coefficients, so structural equality is exactly mathematical equality.

Products are normalized with the closed-form expansion

    d^b * x^a = sum over k <= min(a, b) componentwise of
                [prod_i C(b_i, k_i) * C(a_i, k_i) * k_i!] * x^(a-k) * d^(b-k)

which collapses to the single defining relation when a = b = e_i.  Only the
variables with min(a_i, b_i) > 0 contribute a factor to the sum; when there
are none, only k = 0 remains: the factors commute and the product is
x^a * d^b with coefficient 1.  The test suite validates this expansion
exhaustively against a brute-force rewriter that only ever applies the
single-swap relation.

``add_product`` is the one multiply-accumulate kernel built on it: element
products add a term times an element into a dict of Fraction coefficients
through it, and S-pairs and division steps into a dict of int numerators.
A pair of factors that commute enters as the exponent sum with coefficient
1 directly; only the other pairs reach ``multiply_monomials`` and its cache.
Commutators (``_commutator_terms``) go the same way: a pair of terms that
commute adds nothing to f * g - g * f, and only the other pairs are
multiplied, without their top terms, which cancel.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class _Immutable:
    """Refuses attribute assignment and deletion.  Subclasses set their slots
    at construction through the slot descriptors or ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Monomial(tuple):
    """One normal monomial x^a * d^b: the tuple of its exponents, a then b.

    Hashing, equality, slicing and ``<`` are the tuple's, so a monomial
    equals the plain tuple of its exponents and hashes like it, and ``<`` is
    tuple order, not a monomial ordering.  Kernels read the exponents from
    the monomial itself, and sort keys, divisibility, quotients and lcm
    accept any exponent tuple.  ``xi`` and ``d`` are the two blocks, for the
    product formula and the text format.  ``+`` and repetition by an int are
    refused: ``*`` of two monomials is the exponent sum.  A slot-less tuple
    refuses attribute assignment, so instances are immutable.
    """

    __slots__ = ()

    def __new__(cls, xi, d):
        xi = tuple(xi)
        d = tuple(d)
        if len(xi) != len(d):
            raise ValueError("x and d exponent tuples must have equal length")
        for e in xi + d:
            _check_int("an exponent", e, 0)
        return tuple.__new__(cls, xi + d)

    def __reduce__(self):
        return (Monomial, (self.xi, self.d))

    @classmethod
    def unit(cls, n):
        return cls((0,) * n, (0,) * n)

    @property
    def vector(self):
        """The monomial itself; kept for callers outside the package."""
        return self

    @property
    def xi(self):
        return self[: len(self) // 2]

    @property
    def d(self):
        return self[len(self) // 2 :]

    @property
    def dimension(self):
        return len(self) // 2

    @property
    def degree(self):
        return sum(self)

    def is_unit(self):
        return not any(self)

    def __mul__(self, other):
        """Exponentwise sum: the commutative image of the product.

        The top term of the noncommutative product of two normal monomials
        is exactly this monomial, with coefficient 1.
        """
        if not isinstance(other, Monomial):
            return NotImplemented
        _check_dim(self, other)
        return _raw(map(operator.add, self, other))

    def __add__(self, other):
        # refuses tuple concatenation, and as __rmul__ repetition k * m; with
        # __mul__ defined too, the tuple's repetition slot is gone
        return NotImplemented

    __rmul__ = __add__

    def divides(self, other):
        _check_dim(self, other)
        return all(map(operator.le, self, other))

    def __truediv__(self, other):
        if not Monomial.divides(other, self):
            raise ValueError(f"{other!r} does not divide {self!r}")
        return _raw(map(operator.sub, self, other))

    def lcm(self, other):
        _check_dim(self, other)
        return _raw(map(max, self, other))

    def sort_key(self):
        """Graded-lex key; fixes the deterministic iteration order."""
        return (sum(self), self)

    def __repr__(self):
        return f"Monomial({self.xi}, {self.d})"


# trusted constructor, in C: the monomial of an iterable of nonnegative ints
# of even length, derived from validated monomials
Monomial._raw = _raw = functools.partial(tuple.__new__, Monomial)


def _check_dim(a, b):
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a) // 2} vs {len(b) // 2}")


def _check_int(name, value, least):
    """The one rule for an int argument: an int (not a bool), at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be an integer >= {least}")


def _check_dimension(n):
    """The one rule for a dimension: an int of at least 1."""
    _check_int("the algebra dimension n", n, 1)


def _check_elements(elements):
    """The one rule for an element list: each item, zeros included, is a
    ``WeylElement`` of the first one's dimension.  Returns the list."""
    elements = list(elements)
    for e in elements:  # unbound: a first item that is no element fails on itself
        WeylElement._check_compatible(elements[0], e)
    return elements


def _check_key(mono, n):
    if not isinstance(mono, Monomial):
        raise TypeError(f"terms must be keyed by Monomial, got {type(mono).__name__}")
    if mono.dimension != n:
        raise ValueError(f"monomial dimension {mono.dimension} does not match n={n}")


class WeylElement(_Immutable):
    """An element of the Weyl algebra in canonical form.

    ``terms`` maps Monomial to nonzero Fraction; the zero element is the
    empty map.  Instances are never mutated after construction and keep
    nothing from the calls made on them; all arithmetic returns fresh
    objects, so values are safe to share.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        _check_dimension(n)
        clean = {}
        for mono, coeff in (terms or {}).items():
            _check_key(mono, n)
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        _set_n(self, n)
        _set_terms(self, clean)

    @classmethod
    def _raw(cls, n, terms):
        # trusted constructor: terms already clean (no zeros, right dims)
        self = object.__new__(cls)
        _set_n(self, n)
        _set_terms(self, terms)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through ``_raw``: their default, assigning
        # the slots, is refused
        return (WeylElement._raw, (self.n, self.terms))

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        _check_dimension(n)
        return cls._raw(n, {Monomial.unit(n): Fraction(1)})

    @classmethod
    def from_term(cls, n, mono, coeff=1):
        return cls(n, {mono: coeff})

    def support(self):
        return frozenset(self.terms)

    def coefficient(self, mono):
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lex order of the exponents, greatest first."""
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key(), reverse=True)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        return self._termwise(other, operator.add)

    def __sub__(self, other):
        return self._termwise(other, operator.sub)

    def _termwise(self, other, op):
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = op(out.get(mono, 0), coeff)
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return WeylElement._raw(self.n, out)

    def __neg__(self):
        return WeylElement._raw(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            self._check_compatible(other)
            return WeylElement._raw(self.n, _multiply_terms(self.terms, other.terms))
        return self._scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left and right agree
        return self._scale(other)

    def _scale(self, scalar):
        scalar = Fraction(scalar)
        if not scalar:
            return WeylElement.zero(self.n)
        return WeylElement._raw(
            self.n, {m: c * scalar for m, c in self.terms.items()}
        )

    def __pow__(self, exponent):
        _check_int("the exponent", exponent, 0)
        return WeylElement._raw(self.n, _power_terms(self.terms, exponent, self.n))

    def commutator(self, other):
        """self * other - other * self (``_commutator_terms``); zero for a
        rational, which commutes with everything."""
        if not isinstance(other, WeylElement):
            Fraction(other)  # anything else raises, as in self * other
            return WeylElement.zero(self.n)
        self._check_compatible(other)
        return WeylElement._raw(self.n, _commutator_terms(self.terms, other.terms))

    def _check_compatible(self, other):
        if not isinstance(other, WeylElement):
            raise TypeError(f"expected WeylElement, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __str__(self):
        from .parsing import format_element

        return format_element(self)

    def __repr__(self):
        items = ", ".join(f"{m.xi}{m.d}: {c}" for m, c in self.sorted_terms())
        return f"WeylElement(n={self.n}, {{{items}}})"


# slot writers that bypass the immutability guard, for the constructors only
_set_n = WeylElement.n.__set__
_set_terms = WeylElement.terms.__set__

# Bound of the product cache.  Sized by measurement: over the benchmark's
# passes (seeds 1-3), with the cache cleared after parsing and before each
# solve, one solve holds at most 2 products on ugb (sat6), 3 on cert (bessel)
# and 153 on gb (f4 under grlex).  Outside the benchmark, mix2 under lex holds
# 115 products.  So this bound never evicts on the measured inputs and caps
# memory on larger ones.
CACHE_SIZE = 65536


@lru_cache(maxsize=CACHE_SIZE)
def multiply_monomials(a: Monomial, b: Monomial) -> tuple:
    """Canonical terms of the product (x^a.xi d^a.d) * (x^b.xi d^b.d).

    Only the inner d^a.d * x^b.xi pair needs reordering; the outer factors
    shift exponents.  The expansion runs over the variables i with
    min(a.d[i], b.xi[i]) > 0 only; when there are none the factors commute,
    and the product is the single term x^(a+b) with coefficient 1.  Returns
    a tuple of (Monomial, int) pairs with distinct monomials and positive
    coefficients; the top term (a * b, 1) comes first.  ``add_product``
    and ``_commutator_terms`` call this only for factors that do not
    commute.  Widths are not checked here: a and b come from inputs their
    entry point has checked.
    """
    n = len(a) // 2
    top = tuple(map(operator.add, a, b))
    # (i, [coefficient of k_i = 0, 1, ..., cap]) for each variable whose
    # d^mu * x^rho needs reordering
    factors = []
    for i, mu, rho in zip(range(n), a[n:], b):
        cap = min(mu, rho)
        if cap:
            factors.append(
                (i, [math.comb(mu, k) * math.comb(rho, k) * math.factorial(k) for k in range(cap + 1)])
            )
    if len(factors) == 1:
        # one such variable: the terms top - k * (e_i + e_{n+i}), k = 0..cap
        [(i, coeffs)] = factors
        vector = list(top)
        terms = []
        for coeff in coeffs:
            terms.append((_raw(vector), coeff))
            vector[i] -= 1
            vector[n + i] -= 1
        return tuple(terms)
    terms = []
    for k in itertools.product(*(range(len(c)) for _, c in factors)):
        coeff = 1
        vector = list(top)
        for (i, coeffs), ki in zip(factors, k):
            coeff *= coeffs[ki]
            # x^(a.xi + b.xi - k) * d^(a.d + b.d - k)
            vector[i] -= ki
            vector[n + i] -= ki
        terms.append((_raw(vector), coeff))
    return tuple(terms)


def add_product(acc, coeff, mono, terms):
    """Add coeff * mono * f into the coefficient dict ``acc``, in place.

    ``terms`` are the terms of f and ``coeff`` is nonzero.  The values of
    ``acc``, ``coeff`` and ``terms`` are all Fractions or all ints; product
    coefficients are positive integers, so ints stay ints.  A term of f whose
    x block shares no variable with the d block of ``mono`` commutes with it,
    and enters as the exponent sum with coefficient ``coeff`` times its own;
    only the other terms go through ``multiply_monomials``.  Entries that
    cancel are deleted.  Returns the monomials that entered ``acc``, in order;
    one that cancels and enters again is listed twice.  ``mono`` and f are
    of one width, as the caller's entry point has checked.
    """
    entered = []
    # f_mono commutes with mono unless some variable has a nonzero exponent
    # in both the d block of mono and the x block of f_mono; map(min, ...)
    # stops at the end of d_block, so it reads only that x block
    d_block = mono[len(mono) // 2 :]
    mixed = any(d_block)
    for f_mono, f_coeff in terms.items():
        c = coeff * f_coeff
        if mixed and any(map(min, d_block, f_mono)):
            products = multiply_monomials(mono, f_mono)
        else:
            products = ((_raw(map(operator.add, mono, f_mono)), 1),)
        for m, k in products:
            ck = c if k == 1 else c * k
            old = acc.get(m)
            if old is None:
                acc[m] = ck
                entered.append(m)
            else:
                old += ck
                if old:
                    acc[m] = old
                else:
                    del acc[m]
    return entered


def _commutator_terms(left, right):
    """The terms of f * g - g * f, given the terms of f and g, Fractions or
    ints alike.

    For terms a of f and b of g, a * b - b * a is the two products less
    their common top term, the exponent sum with coefficient 1, which
    ``multiply_monomials`` lists first.  A product whose left factor's d
    block shares no variable with the right factor's x block is that top
    term alone, so only the other products are formed.
    """
    out = {}
    for a, ca in left.items():
        for b, cb in right.items():
            for u, v, c in ((a, b, ca * cb), (b, a, -ca * cb)):
                if any(map(min, u[len(u) // 2 :], v)):
                    for m, k in multiply_monomials(u, v)[1:]:
                        out[m] = out.get(m, 0) + c * k
    return {m: c for m, c in out.items() if c}


def _multiply_terms(left, right):
    """The terms of the product of two elements, given by their terms."""
    out = {}
    for mono, coeff in left.items():
        add_product(out, coeff, mono, right)
    return out


def _power_terms(terms, exponent, n):
    """The terms of f**exponent, given the terms of f in dimension n.

    Square-and-multiply: O(log exponent) products, the algebra being
    associative.  Exponent 1 returns ``terms`` itself.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = terms if result is None else _multiply_terms(result, terms)
        exponent >>= 1
        if exponent:
            terms = _multiply_terms(terms, terms)
    return {Monomial.unit(n): Fraction(1)} if result is None else result


def combined_support(elements):
    """Union of the supports of a family of elements."""
    out = set()
    for w in elements:
        out.update(w.terms)
    return frozenset(out)


@dataclass(frozen=True)
class WeylAlgebra:
    """Fixes the dimension n >= 1 and hands out generators and elements."""

    n: int

    def __post_init__(self):
        _check_dimension(self.n)

    def xi(self, i):
        """The generator x_i, 1-based."""
        return self._generator(i, 0)

    def d(self, i):
        """The generator d_i, 1-based."""
        return self._generator(i, self.n)

    def one(self):
        return WeylElement.one(self.n)

    def zero(self):
        return WeylElement.zero(self.n)

    def element(self, mapping):
        return WeylElement(self.n, mapping)

    def _generator(self, i, offset):
        # the unit vector at x_i (offset 0) or d_i (offset n)
        _check_int("the generator index", i, 1)
        if i > self.n:
            raise ValueError(f"generator index {i} out of range 1..{self.n}")
        unit = (int(j == offset + i - 1) for j in range(2 * self.n))
        return WeylElement.from_term(self.n, _raw(unit))
