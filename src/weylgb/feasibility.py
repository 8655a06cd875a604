"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Systems are lists of rows (coeffs, rhs), each meaning coeffs . w >= rhs.
Variables are eliminated from the highest index down; combining a row with
positive coefficient and one with negative coefficient on the pivot uses
positive multipliers only, so every derived row is a nonnegative combination
of input rows.  Each distinct row remembers the first pair of rows it was
derived from, so when elimination produces 0 >= rhs with rhs > 0, walking
those origins back to the input gives a Farkas certificate of infeasibility
that can be checked independently of this solver.

Elimination runs on integer rows, GCD-normalized after every combination
step.  Rows whose entries are all ints are used as given; any other input is
first converted to Fractions and each row scaled by the lcm of its
denominators.  The Fraction copy of int input is built only when a
certificate is returned, since a certificate's rows are the input rows as
Fractions.  On feasible systems the solution is read off stage by stage,
always picking the smallest value allowed by the accumulated lower bounds
(or the largest allowed by upper bounds, capped at 0, when no lower bound
exists).  Back-substitution keeps the partial solution as int numerators
over one common denominator and compares bounds by cross-multiplication, so
a Fraction is built only once per output value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Infeasible:
    """Farkas witness: nonnegative multipliers over ``rows`` that combine the
    left-hand sides to zero while the combined right-hand side stays positive.
    """

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
    rows = tuple(rows)
    if all(type(rhs) is int and all(type(c) is int for c in coeffs) for coeffs, rhs in rows):
        original = None
        scales = [1] * len(rows)
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

    def infeasible(row):
        certified = _fraction_rows(rows) if original is None else original
        return Infeasible(certified, _multipliers(row, origin, scales))

    # origin[row] is (i, g) when g * row == scales[i] * input row i, and
    # (p, q, b, a, g) when g * row == b * p + a * q: the first derivation of
    # each distinct row, inserted after the rows it came from.
    stage, origin = [], {}
    for i, (coeffs, rhs) in enumerate(scaled):
        row, g = _normalize(coeffs, rhs)
        if row not in origin:
            origin[row] = (i, g)
            if _contradicts(row):
                return infeasible(row)
            stage.append(row)

    # stages[k] still involves variables 0 .. num_vars-1-k
    stages = [stage]
    for var in range(num_vars - 1, -1, -1):
        pos = [r for r in stage if r[0][var] > 0]
        neg = [r for r in stage if r[0][var] < 0]
        stage = [r for r in stage if r[0][var] == 0]
        seen = set(stage)
        for p in pos:
            for q in neg:
                a, b = p[0][var], -q[0][var]
                row, g = _normalize(
                    tuple(b * x + a * y for x, y in zip(p[0], q[0])), b * p[1] + a * q[1]
                )
                if row not in seen:
                    origin.setdefault(row, (p, q, b, a, g))
                    if _contradicts(row):
                        return infeasible(row)
                    seen.add(row)
                    stage.append(row)
        stages.append(stage)

    # solution[k] == num[k] / den; a bound on variable var is a pair (r, c)
    # with c > 0 and value r / (den * c)
    num, den = [0] * num_vars, 1
    for var in range(num_vars):
        lower = upper = None
        for coeffs, rhs in stages[num_vars - 1 - var]:
            c = coeffs[var]
            if c == 0:
                continue
            # coeffs[k] == 0 for k > var, and num[k] == 0 for k >= var
            r = rhs * den - sum(map(operator.mul, coeffs, num))
            if c > 0:
                if lower is None or r * lower[1] > lower[0] * c:
                    lower = (r, c)
            else:
                r, c = -r, -c
                if upper is None or r * upper[1] < upper[0] * c:
                    upper = (r, c)
        if lower is not None:
            r, c = lower
        elif upper is not None and upper[0] < 0:
            r, c = upper
        else:
            continue
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
    return tuple(Fraction(x, den) for x in num)


def _fraction_rows(rows):
    return tuple(
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows
    )


def _normalize(coeffs, rhs):
    """The row divided by the GCD g of its entries, and g (1 when g <= 1)."""
    g = math.gcd(*coeffs, rhs)
    if g > 1:
        return (tuple(c // g for c in coeffs), rhs // g), g
    return (coeffs, rhs), 1


def _contradicts(row):
    """True for 0 >= rhs with rhs > 0."""
    return row[1] > 0 and not any(row[0])


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
