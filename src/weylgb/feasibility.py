"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Systems are lists of rows (coeffs, rhs), each meaning coeffs . w >= rhs.
Variables are eliminated from the highest index down; combining a row with
positive coefficient and one with negative coefficient on the pivot uses
positive multipliers only, so every derived row is a nonnegative combination
of input rows.

Elimination runs on integer rows, GCD-normalized after every combination
step.  Rows whose entries are all ints are used as given; any other input is
first converted to Fractions and each row scaled by the lcm of its
denominators.  One routine, ``_eliminate``, runs in two passes:

* The solving pass keeps every input row w_j >= 0 (up to a positive factor)
  out of the stage lists.  It stands in for that row where it would act:
  when w_j is eliminated, a row with a negative coefficient on w_j passes to
  the next stage with that coefficient zeroed, which is its combination with
  w_j >= 0, and back-substitution starts w_j's lower bound at 0.  When every
  variable has such a row, rows with nonnegative coefficients and rhs <= 0
  are dropped, since the orthant implies them.  Each stage still describes
  the same projection as with every row explicit, and the solution depends
  only on those projections, so it is the same, bit for bit.
* The recording pass runs only when the solving pass meets a contradiction
  0 >= rhs with rhs > 0, and only when the certificate is first read.  Every
  row is explicit and each distinct row remembers the first pair of rows it
  was derived from, so walking those origins back from the contradiction
  gives a Farkas certificate of infeasibility that can be checked
  independently of this solver.

On feasible systems the solution is read off stage by stage, always picking
the smallest value allowed by the accumulated lower bounds (or the largest
allowed by upper bounds, capped at 0, when no lower bound exists).
Back-substitution keeps the partial solution as int numerators over one
common denominator and compares bounds by cross-multiplication, so a
Fraction is built only once per output value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Infeasible:
    """Farkas witness: nonnegative multipliers over ``rows`` that combine the
    left-hand sides to zero while the combined right-hand side stays positive.

    The one ``solve_inequalities`` returns derives its rows and multipliers
    when either is first read, from a snapshot of the system it took at the
    solve, so a search that only asks whether a system is feasible never
    pays for a certificate.  ``rows`` and ``multipliers`` are read-only, and
    equality, hashing, repr, copies and pickles go by their values.
    """

    __slots__ = ("_rows", "_multipliers", "_pending")
    __match_args__ = ("rows", "multipliers")

    def __init__(self, rows, multipliers):
        self._rows = rows
        self._multipliers = multipliers
        self._pending = None

    @classmethod
    def _deferred(cls, *pending):
        """A certificate that ``_certificate(*pending)`` derives on first read."""
        self = cls.__new__(cls)
        self._pending = pending
        return self

    def _force(self):
        if self._pending is not None:
            self._rows, self._multipliers = _certificate(*self._pending)
            self._pending = None

    @property
    def rows(self):
        self._force()
        return self._rows

    @property
    def multipliers(self):
        self._force()
        return self._multipliers

    def verify(self):
        return certifies_infeasibility(self.rows, self.multipliers)

    def __repr__(self):
        return f"{type(self).__qualname__}(rows={self.rows!r}, multipliers={self.multipliers!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.multipliers) == (other.rows, other.multipliers)

    def __hash__(self):
        return hash((self.rows, self.multipliers))

    def __reduce__(self):
        # the certificate itself, not the snapshot; every pickle protocol
        return (type(self), (self.rows, self.multipliers))


def certifies_infeasibility(rows, multipliers):
    """Independent check of a Farkas certificate."""
    if len(rows) != len(multipliers):
        return False
    if any(m < 0 for m in multipliers):
        return False
    width = len(rows[0][0]) if rows else 0
    if any(len(coeffs) != width for coeffs, _ in rows):
        return False
    combined = [Fraction(0)] * width
    rhs = Fraction(0)
    for (coeffs, b), m in zip(rows, multipliers):
        for k, c in enumerate(coeffs):
            combined[k] += m * c
        rhs += m * b
    return all(c == 0 for c in combined) and rhs > 0


def nonneg_rows(num_vars):
    """The rows w_j >= 0 for every variable."""
    out = []
    for j in range(num_vars):
        coeffs = tuple(int(k == j) for k in range(num_vars))
        out.append((coeffs, 0))
    return out


def solve_inequalities(rows, num_vars):
    """Find w with coeffs . w >= rhs for every row, or an Infeasible certificate.

    ``rows`` is an iterable of (coeffs, rhs) pairs with len(coeffs) ==
    num_vars.  Nonnegativity of the variables is NOT implied; append
    nonneg_rows() when wanted, so the certificate covers those constraints
    too.  The solution is a tuple of Fractions; a certificate's rows are the
    input rows as Fractions, and it is derived when first read.
    """
    rows = tuple(rows)
    if all(type(rhs) is int and all(type(c) is int for c in coeffs) for coeffs, rhs in rows):
        original = scales = None
        scaled = [(tuple(coeffs), rhs) for coeffs, rhs in rows]
    else:
        original = _fraction_rows(rows)
        scales = [math.lcm(*(f.denominator for f in c + (r,))) for c, r in original]
        scaled = [
            (tuple(int(c * s) for c in coeffs), int(rhs * s))
            for (coeffs, rhs), s in zip(original, scales)
        ]
    for coeffs, _ in scaled:
        if len(coeffs) != num_vars:
            raise ValueError("row width does not match num_vars")

    eliminated = _eliminate(scaled, num_vars)
    if eliminated is None:
        return Infeasible._deferred(scaled, num_vars, scales, original)
    bounds, orthant = eliminated

    # solution[k] == num[k] / den; a bound on variable var is a pair (r, c)
    # with c > 0 and value r / (den * c)
    num, den = [0] * num_vars, 1
    mul = operator.mul
    for var, (pos, neg) in enumerate(bounds):
        # the row w_var >= 0 left out of the stages bounds var below by 0
        lower = (0, 1) if orthant[var] else None
        # coeffs[k] == 0 for k > var, and num[k] == 0 for k >= var
        for coeffs, rhs in pos:
            r, c = rhs * den - sum(map(mul, coeffs, num)), coeffs[var]
            if lower is None or r * lower[1] > lower[0] * c:
                lower = (r, c)
        if lower is None:
            # unbounded below: the largest value the upper bounds allow, capped at 0
            upper = None
            for coeffs, rhs in neg:
                r, c = sum(map(mul, coeffs, num)) - rhs * den, -coeffs[var]
                if upper is None or r * upper[1] < upper[0] * c:
                    upper = (r, c)
            if upper is None or upper[0] >= 0:
                continue
            lower = upper
        r, c = lower
        if c == 1:
            num[var] = r
        else:
            num = [x * c for x in num]
            num[var] = r
            den *= c
            g = math.gcd(den, *num)
            if g > 1:
                num = [x // g for x in num]
                den //= g
    if den == 1:
        return tuple([Fraction(x) for x in num])
    return tuple([Fraction(x, den) for x in num])


def _eliminate(scaled, num_vars, origin=None):
    """Fourier-Motzkin elimination of the int rows ``scaled``, last variable first.

    Returns None as soon as a row 0 >= rhs with rhs > 0 appears.  Otherwise
    returns (bounds, orthant): bounds[var] is the pair (lower, upper) of
    lists of the rows with a positive and a negative coefficient on var in
    the stage left after eliminating the variables above var.  With the
    row w_j >= 0 added for every j with orthant[j] true, that stage
    describes the projection of the system onto the variables 0 .. var.

    Without ``origin`` this is the solving pass: the input rows w_j >= 0 set
    orthant[j] and stay out of the stages, and nothing is recorded.  With
    ``origin`` (an empty dict) every row is explicit, orthant is all false,
    and origin[row] is (i, g) when g * row == scaled[i], and (p, q, b, a, g)
    when g * row == b * p + a * q: the first derivation of each distinct
    row, inserted after the rows it came from, so a contradiction is its
    last key.
    """
    gcd = math.gcd
    record = origin is not None
    orthant = [False] * num_vars
    seen = origin if record else set()
    stage = []
    for i, (coeffs, rhs) in enumerate(scaled):
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs = tuple([c // g for c in coeffs])
            rhs //= g
        else:
            g = 1
        row = (coeffs, rhs)
        if row in seen:
            continue
        if record:
            origin[row] = (i, g)
        else:
            seen.add(row)
            if rhs == 0 and coeffs.count(0) == num_vars - 1 and 1 in coeffs:
                orthant[coeffs.index(1)] = True
                continue
        if rhs > 0 and not any(coeffs):
            return None
        stage.append(row)
    # every variable nonnegative implies each row with coefficients >= 0 and rhs <= 0
    prune = num_vars > 0 and all(orthant)
    if prune:
        stage = [row for row in stage if row[1] > 0 or min(row[0]) < 0]

    bounds = [None] * num_vars
    for var in range(num_vars - 1, -1, -1):
        pos, neg, nxt = [], [], []
        for r in stage:
            c = r[0][var]
            if c > 0:
                pos.append(r)
            elif c:
                neg.append(r)
            else:
                nxt.append(r)
        bounds[var] = (pos, neg)
        stage = nxt
        if orthant[var] and neg:
            # the row w_var >= 0 left out of the stages; combined with a row
            # of neg it zeroes that row's coefficient on var
            pos = pos + [((0,) * var + (1,) + (0,) * (num_vars - 1 - var), 0)]
        if not (pos and neg):
            continue
        seen = set(stage)
        for p in pos:
            pc, pr = p
            a = pc[var]
            for q in neg:
                qc, qr = q
                b = -qc[var]
                coeffs = tuple([b * x + a * y for x, y in zip(pc, qc)])
                rhs = b * pr + a * qr
                g = gcd(*coeffs, rhs)
                if g > 1:
                    coeffs = tuple([c // g for c in coeffs])
                    rhs //= g
                else:
                    g = 1
                row = (coeffs, rhs)
                if row in seen:
                    continue
                if record:
                    origin.setdefault(row, (p, q, b, a, g))
                seen.add(row)
                if rhs > 0:
                    if not any(coeffs):
                        return None
                elif prune and min(coeffs) >= 0:
                    continue
                stage.append(row)
    return bounds, orthant


def _certificate(scaled, num_vars, scales, original):
    """The Farkas certificate of an infeasible system: (rows, multipliers).

    Reruns the elimination with every row explicit and its derivations
    recorded.  ``scales`` and ``original`` are None when the input rows
    were all ints, so every scale is 1 and the rows are ``scaled`` itself.
    """
    origin = {}
    if _eliminate(scaled, num_vars, origin) is not None:
        raise AssertionError("recording pass found no contradiction; solver bug")
    if scales is None:
        scales = [1] * len(scaled)
    rows = _fraction_rows(scaled) if original is None else original
    return rows, _multipliers(next(reversed(origin)), origin, scales)


def _fraction_rows(rows):
    return tuple(
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows
    )


def _multipliers(row, origin, scales):
    """Nonnegative weights on the original rows whose combination is ``row``.

    Origins are walked newest first, so a row's weight is complete before it
    is passed on to the rows it was derived from.
    """
    mults = [Fraction(0)] * len(scales)
    weights = {row: Fraction(1)}
    for r in reversed(origin):
        w = weights.pop(r, None)
        if w is None:
            continue
        src = origin[r]
        if len(src) == 2:
            i, g = src
            mults[i] += w * scales[i] / g
        else:
            p, q, b, a, g = src
            weights[p] = weights.get(p, 0) + w * b / g
            weights[q] = weights.get(q, 0) + w * a / g
    return tuple(mults)
