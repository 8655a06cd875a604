"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Systems are lists of rows (coeffs, rhs), each meaning coeffs . w >= rhs.
Variables are eliminated from the highest index down; combining a row with
positive coefficient and one with negative coefficient on the pivot uses
positive multipliers only, so every derived row is a nonnegative combination
of input rows.

Every solve runs the same two steps on int rows:

* ``_eliminate`` GCD-normalizes the rows and projects them onto ever
  fewer variables, in one pass that keeps each row, input or derived, at
  most once.  With the orthant implicit, the rows w_j >= 0 are in no
  stage; the elimination stands in for them where they would act: when
  w_j is eliminated, a row with a negative coefficient on w_j passes on
  with that coefficient zeroed, its combination with w_j >= 0.  Rows with
  coefficients >= 0 and rhs <= 0 are dropped, since the orthant implies
  them.  Each stage describes the same projection as with every row
  explicit, so the solution is the same, bit for bit.
* ``_back_substitute`` reads the solution off stage by stage as int
  numerators over one denominator, picking the smallest value the lower
  bounds allow (0 bounds w_j in an implicit orthant; with no lower bound,
  the largest value the upper bounds allow, capped at 0): with the orthant
  in the system, that is its lexicographic minimum.

``solve_inequalities`` keeps every row explicit, scales each row to ints
by the lcm of its denominators and returns Fractions.  Its
elimination records the first pair of rows each distinct row came from, so
on a contradiction 0 >= rhs with rhs > 0, walking those origins back from
the contradiction gives a Farkas certificate that can be checked
independently of this solver.  ``solve_orthant``, the restriction search's
entry, takes int rows with the orthant implicit, records nothing and
returns the ints (num, den).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .weyl import _check_int


@dataclass(frozen=True)
class Infeasible:
    """Farkas witness: nonnegative multipliers over ``rows`` that combine the
    left-hand sides to zero while the combined right-hand side stays positive."""

    rows: tuple
    multipliers: tuple

    def verify(self):
        return certifies_infeasibility(self.rows, self.multipliers)


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
    input rows as Fractions.
    """
    _check_int("num_vars", num_vars, 0)
    original = _fraction_rows(rows)
    scales = [math.lcm(*(f.denominator for f in c + (r,))) for c, r in original]
    scaled = [
        (tuple(int(c * s) for c in coeffs), int(rhs * s))
        for (coeffs, rhs), s in zip(original, scales)
    ]
    for coeffs, _ in scaled:
        if len(coeffs) != num_vars:
            raise ValueError("row width does not match num_vars")

    origin = {}
    bounds = _eliminate(scaled, num_vars, False, origin)
    if bounds is None:
        return Infeasible(original, _multipliers(next(reversed(origin)), origin, scales))
    num, den = _back_substitute(bounds, False)
    return tuple([Fraction(x, den) for x in num])


def solve_orthant(rows, num_vars):
    """The lexicographic minimum over w >= 0 of int rows, as ints, or None.

    ``rows`` holds (coeffs, rhs) pairs of ints, coeffs a tuple of length
    num_vars; no row need say w >= 0.  Returns (num, den), den > 0 and
    gcd(den, *num) == 1, where ``solve_inequalities(rows +
    nonneg_rows(num_vars), num_vars)`` returns num / den as Fractions, and
    None where it returns an Infeasible.
    """
    bounds = _eliminate(rows, num_vars, True)
    return None if bounds is None else _back_substitute(bounds, True)


def _eliminate(rows, num_vars, orthant, origin=None):
    """Fourier-Motzkin elimination of the int rows, last variable first, in one pass.

    Every row, input or derived, is GCD-normalized and kept at most once;
    one set, ``origin`` when given, holds every row seen.  Returns None as
    soon as a row 0 >= rhs with rhs > 0 appears; a row that ``orthant`` (w
    >= 0) implies, with coefficients >= 0 and rhs <= 0, is dropped.
    Otherwise returns bounds: bounds[var] is the pair (lower, upper) of
    lists of the rows with a positive and a negative coefficient on var in
    the stage left after eliminating the variables above var; with w >= 0
    if ``orthant``, that stage describes the projection onto variables 0 ..
    var.  Each pair of a lower and an upper row passes on its combination;
    under ``orthant``, each upper row then also passes on itself with its
    coefficient on var zeroed, its combination with the row w_var >= 0 that
    no stage holds.  ``origin`` (never with ``orthant``, an empty dict)
    records each row's first derivation, after its sources, so a
    contradiction is last: (i, g) at an input row with g * row == rows[i],
    and (p, q, b, a, g) at a derived row with g * row == b * p + a * q.
    """
    gcd = math.gcd
    seen = set() if origin is None else origin
    stage = []
    for i, (coeffs, rhs) in enumerate(rows):
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs = tuple([c // g for c in coeffs])
            rhs //= g
        else:
            g = 1
        row = (coeffs, rhs)
        if row in seen:
            continue
        if origin is None:
            seen.add(row)
        else:
            origin[row] = (i, g)
        if rhs > 0:
            if not any(coeffs):
                return None
        elif orthant and min(coeffs, default=0) >= 0:
            continue
        stage.append(row)
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
                if origin is None:
                    seen.add(row)
                else:
                    origin[row] = (p, q, b, a, g)
                if rhs > 0:
                    if not any(coeffs):
                        return None
                elif orthant and min(coeffs) >= 0:
                    continue
                stage.append(row)
        if orthant and neg:
            # each upper row combined with w_var >= 0: the row with its
            # coefficient on var zeroed, as those above var already are
            zeros = (0,) * (num_vars - var)
            for qc, rhs in neg:
                coeffs = qc[:var] + zeros
                g = gcd(*coeffs, rhs)
                if g > 1:
                    coeffs = tuple([c // g for c in coeffs])
                    rhs //= g
                row = (coeffs, rhs)
                if row in seen:
                    continue
                seen.add(row)
                if rhs > 0:
                    if not any(coeffs):
                        return None
                elif min(coeffs) >= 0:
                    continue
                stage.append(row)
    return bounds


def _back_substitute(bounds, orthant):
    """The smallest solution the bounds allow, variable by variable: (num, den).

    solution[k] == num[k] / den, and gcd(den, *num) == 1 throughout; a bound
    on variable var is a pair (r, c) with c > 0 and value r / (den * c).
    """
    num, den = [0] * len(bounds), 1
    mul = operator.mul
    for var, (pos, neg) in enumerate(bounds):
        # the row w_var >= 0 left out of the stages bounds var below by 0
        lower = (0, 1) if orthant else None
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
    return num, den


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
