"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Systems are lists of rows (coeffs, rhs), each meaning coeffs . w >= rhs.
Variables are eliminated from the highest index down; combining a row with
positive coefficient and one with negative coefficient on the pivot uses
positive multipliers only, so every derived row is a nonnegative combination
of input rows.  Each distinct row remembers the first pair of rows it was
derived from, so when elimination produces 0 >= rhs with rhs > 0, walking
those origins back to the input gives a Farkas certificate of infeasibility
that can be checked independently of this solver.

Internally rows are scaled to integers and GCD-normalized after every
combination step, which keeps the arithmetic in machine integers; Fractions
only reappear in the back-substituted solution and in certificates.  On
feasible systems the solution is read off stage by stage, always picking the
smallest value allowed by the accumulated lower bounds (or the largest
allowed by upper bounds when no lower bound exists).
"""

from __future__ import annotations

import math
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

    ``rows`` is a sequence of (coeffs, rhs) pairs with len(coeffs) == num_vars.
    Nonnegativity of the variables is NOT implied; append nonneg_rows() when
    wanted, so the certificate covers those constraints too.
    """
    original = tuple(
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows
    )
    for coeffs, _ in original:
        if len(coeffs) != num_vars:
            raise ValueError("row width does not match num_vars")

    # origin[row] is (i, g) when g * row == scales[i] * original[i], and
    # (p, q, b, a, g) when g * row == b * p + a * q: the first derivation of
    # each distinct row, inserted after the rows it came from.
    scales = [math.lcm(*(f.denominator for f in c + (r,))) for c, r in original]
    stage, origin = [], {}
    for i, ((coeffs, rhs), s) in enumerate(zip(original, scales)):
        row, g = _normalize(tuple(int(c * s) for c in coeffs), int(rhs * s))
        if row not in origin:
            origin[row] = (i, g)
            if _contradicts(row):
                return Infeasible(original, _multipliers(row, origin, scales))
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
                        return Infeasible(original, _multipliers(row, origin, scales))
                    seen.add(row)
                    stage.append(row)
        stages.append(stage)

    solution = [Fraction(0)] * num_vars
    for var in range(num_vars):
        stage = stages[num_vars - 1 - var]
        lowers, uppers = [], []
        for coeffs, rhs in stage:
            c = coeffs[var]
            if c == 0:
                continue
            residual = Fraction(rhs) - sum(
                coeffs[k] * solution[k] for k in range(var)
            )
            (lowers if c > 0 else uppers).append(residual / c)
        if lowers:
            solution[var] = max(lowers)
        elif uppers:
            solution[var] = min(min(uppers), Fraction(0))
        else:
            solution[var] = Fraction(0)
    return tuple(Fraction(v) for v in solution)


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
