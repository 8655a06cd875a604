import copy
import dataclasses
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from weylgb import (
    Infeasible,
    certifies_infeasibility,
    enumerate_restrictions,
    parse_element,
    solve_inequalities,
    universal,
    universal_groebner,
)
from weylgb.feasibility import nonneg_rows, solve_orthant
from weylgb.weyl import combined_support
from oracles import enumerate_restrictions_naive, solve_inequalities_naive


def F(x):
    return Fraction(x)


def test_simple_feasible_system():
    rows = [((F(-1), F(1)), F(1))] + nonneg_rows(2)
    solution = solve_inequalities(rows, 2)
    assert solution == (F(0), F(1))
    for coeffs, rhs in rows:
        assert sum(c * s for c, s in zip(coeffs, solution)) >= rhs


def test_simple_infeasible_system():
    # -w2 >= 1 against w2 >= 0
    rows = [((F(0), F(-1)), F(1))] + nonneg_rows(2)
    outcome = solve_inequalities(rows, 2)
    assert isinstance(outcome, Infeasible)
    assert outcome.verify()
    assert certifies_infeasibility(outcome.rows, outcome.multipliers)


def test_certificate_must_be_nonneg_combination():
    rows = (((F(1),), F(1)), ((F(-1),), F(0)))
    assert not certifies_infeasibility(rows, (F(-1), F(-1)))
    assert not certifies_infeasibility(rows, (F(1),))
    # 1*(w >= 1) + 1*(-w >= 0) gives 0 >= 1
    assert certifies_infeasibility(rows, (F(1), F(1)))


def test_certificate_rows_must_share_one_width():
    # read as zero-padded, the narrower row would make this certify
    assert not certifies_infeasibility([((0,), 1), ((), 0)], [1, 1])
    assert not certifies_infeasibility([((0,), 1), ((0, 0), 0)], [1, 1])


def test_upper_and_lower_bounds_interact():
    # 1 <= w <= 2 with an extra joint constraint
    rows = [
        ((F(1), F(0)), F(1)),
        ((F(-1), F(0)), F(-2)),
        ((F(1), F(1)), F(3)),
    ] + nonneg_rows(2)
    solution = solve_inequalities(rows, 2)
    for coeffs, rhs in rows:
        assert sum(c * s for c, s in zip(coeffs, solution)) >= rhs


def test_contradictory_bounds():
    rows = [((F(1),), F(2)), ((F(-1),), F(-1))]  # w >= 2 and w <= 1
    outcome = solve_inequalities(rows, 1)
    assert isinstance(outcome, Infeasible)
    assert outcome.verify()


def test_unconstrained_variables_default_to_zero():
    solution = solve_inequalities([], 3)
    assert solution == (F(0), F(0), F(0))


def test_negative_solutions_allowed_without_nonneg_rows():
    rows = [((F(-1),), F(1))]  # w <= -1
    solution = solve_inequalities(rows, 1)
    assert solution[0] <= -1


def test_deterministic_witness():
    rows = [((F(-1), F(1)), F(1))] + nonneg_rows(2)
    assert solve_inequalities(rows, 2) == solve_inequalities(rows, 2)


def test_row_width_validated():
    with pytest.raises(ValueError):
        solve_inequalities([((F(1),), F(0))], 2)


def _satisfies(rows, solution):
    return all(sum(c * s for c, s in zip(coeffs, solution)) >= rhs for coeffs, rhs in rows)


def _cycle(rng, variables, num_vars, rhs):
    """Rows w_a - w_b >= r around a cycle, each scaled by a positive rational.

    Summing the rows cancels every coefficient, so the system is infeasible
    exactly when the right sides add up to something positive, and
    elimination only sees 0 >= sum once len(variables) - 1 variables are gone.
    """
    rows = []
    for a, b, r in zip(variables, variables[1:] + variables[:1], rhs):
        scale = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3, 5]))
        coeffs = [F(0)] * num_vars
        coeffs[a], coeffs[b] = scale, -scale
        rows.append((tuple(coeffs), scale * r))
    return rows


def _random_row(rng, num_vars):
    if rng.random() < 0.5:
        # integer row with a common factor g > 1
        g = rng.choice([2, 3, 6])
        return (tuple(F(g * rng.randint(-2, 2)) for _ in range(num_vars)), F(g * rng.randint(-2, 2)))
    return (
        tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(num_vars)),
        Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5])),
    )


def test_cycle_contradiction_found_after_several_eliminations():
    rng = random.Random(7)
    rows = _cycle(rng, [0, 3, 1, 2], 4, [F(1), F(0), Fraction(-1, 2), F(1)])
    outcome = solve_inequalities(rows, 4)
    assert isinstance(outcome, Infeasible)
    assert outcome.verify()
    # a simple cycle needs every one of its rows in the certificate
    assert all(m > 0 for m in outcome.multipliers)


def test_solve_inequalities_property(rng):
    outcomes = {"feasible": 0, "infeasible": 0, "deep_infeasible": 0}
    for _ in range(300):
        num_vars = rng.randint(1, 5)
        rows = [_random_row(rng, num_vars) for _ in range(rng.randint(0, 4))]
        deep = num_vars >= 3 and rng.random() < 0.6
        if deep:
            variables = rng.sample(range(num_vars), rng.randint(3, num_vars))
            rhs = [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in variables]
            rows += _cycle(rng, variables, num_vars, rhs)
        for row in rng.sample(rows, min(2, len(rows))):
            # an exact duplicate and a positive multiple of an existing row
            coeffs, b = row
            k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rows += [row, (tuple(k * c for c in coeffs), k * b)]
        if rng.random() < 0.5:
            rows += nonneg_rows(num_vars)
        rng.shuffle(rows)

        outcome = solve_inequalities(rows, num_vars)
        if deep and sum(rhs) > 0:
            assert isinstance(outcome, Infeasible), rows
            outcomes["deep_infeasible"] += 1
        if isinstance(outcome, Infeasible):
            assert outcome.verify(), rows
            assert outcome.rows == tuple(rows)
            outcomes["infeasible"] += 1
        else:
            assert len(outcome) == num_vars
            assert _satisfies(rows, outcome), rows
            outcomes["feasible"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_solution_is_kept_by_rows_it_meets(rng):
    # with the nonnegativity rows in the system the solution is its
    # lexicographic minimum, so a row the solution meets narrows the
    # polyhedron around it and the solution stays; the restriction search
    # reuses a parent's witness on exactly this ground
    added = {"loose": 0, "tight": 0}
    for _ in range(200):
        num_vars = rng.randint(1, 4)
        rows = [_random_row(rng, num_vars) for _ in range(rng.randint(0, 4))]
        rows += nonneg_rows(num_vars)
        rng.shuffle(rows)
        solution = solve_inequalities(rows, num_vars)
        if isinstance(solution, Infeasible):
            continue
        for _ in range(4):
            coeffs, rhs = _random_row(rng, num_vars)
            value = sum(c * s for c, s in zip(coeffs, solution))
            if rng.random() < 0.5:
                rhs = value  # a row the solution meets with equality
            if value < rhs:
                continue
            added["tight" if value == rhs else "loose"] += 1
            narrowed = list(rows)
            narrowed.insert(rng.randint(0, len(rows)), (coeffs, rhs))
            assert solve_inequalities(narrowed, num_vars) == solution, narrowed
    assert min(added.values()) >= 100, added


def _integral(row):
    """The row times the lcm of its denominators, with int entries."""
    coeffs, rhs = row
    scale = math.lcm(*(Fraction(x).denominator for x in (*coeffs, rhs)))
    return tuple(int(c * scale) for c in coeffs), int(rhs * scale)


def _as_fractions(row):
    coeffs, rhs = row
    return tuple(F(c) for c in coeffs), F(rhs)


def test_solve_inequalities_matches_naive(rng):
    # the int rows take the fast path, the Fraction rows the scaling path;
    # both must give the slow twin's solution or certificate, down to types
    counts = {"int": 0, "fraction": 0, "infeasible": 0}
    for case in range(2000):
        num_vars = rng.randint(1, 4)
        rows = [_random_row(rng, num_vars) for _ in range(rng.randint(0, 6))]
        if num_vars >= 2 and rng.random() < 0.4:
            variables = rng.sample(range(num_vars), rng.randint(2, num_vars))
            rhs = [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in variables]
            rows += _cycle(rng, variables, num_vars, rhs)
        if rng.random() < 0.5:
            rows += nonneg_rows(num_vars)
        rng.shuffle(rows)
        kind = "int" if case % 2 else "fraction"
        rows = [(_integral if kind == "int" else _as_fractions)(row) for row in rows]

        outcome = solve_inequalities(rows, num_vars)
        assert repr(outcome) == repr(solve_inequalities_naive(rows, num_vars)), rows
        counts[kind] += 1
        if isinstance(outcome, Infeasible):
            assert outcome.verify(), rows
            counts["infeasible"] += 1
    assert counts["int"] >= 1000 and counts["fraction"] >= 1000, counts
    assert counts["infeasible"] >= 300, counts


@pytest.mark.parametrize(
    "texts",
    [
        ("x1-d1^2", "x2-d2^2"),
        ("x1^2-x2", "x1*x2-1", "x2^2-x1"),  # reduced grlex basis of x1^2-x2, x1*x2-1
    ],
)
def test_realization_systems_match_naive(monkeypatch, texts):
    # the search's systems with their orthant rows made explicit, and the
    # oracle's realizations as posed
    systems = []
    real = universal.solve_inequalities
    real_orthant = universal.solve_orthant

    def capturing(rows, num_vars):
        systems.append((rows, num_vars))
        return real(rows, num_vars)

    def capturing_orthant(rows, num_vars):
        systems.append((rows + nonneg_rows(num_vars), num_vars))
        return real_orthant(rows, num_vars)

    monkeypatch.setattr(universal, "solve_inequalities", capturing)
    monkeypatch.setattr(universal, "solve_orthant", capturing_orthant)
    support = combined_support(parse_element(t, 2) for t in texts)
    try:
        universal._realize_cached.cache_clear()
        enumerate_restrictions(support)
        universal._realize_cached.cache_clear()
        enumerate_restrictions_naive(support)
    finally:
        universal._realize_cached.cache_clear()
    assert len(systems) > 20
    for rows, num_vars in systems:
        assert repr(solve_inequalities(rows, num_vars)) == repr(
            solve_inequalities_naive(rows, num_vars)
        ), rows


@pytest.mark.parametrize("kind", ["int", "fraction", "bool", "generator"])
def test_outcomes_are_fraction_typed(kind):
    feasible = [((-1, 1), 1)] + nonneg_rows(2)
    infeasible = [((0, -1), 1)] + nonneg_rows(2)
    for rows, solvable in ((feasible, True), (infeasible, False)):
        if kind == "fraction":
            rows = [_as_fractions(row) for row in rows]
        elif kind == "bool":
            rows = [(tuple(bool(c) if c >= 0 else c for c in coeffs), rhs) for coeffs, rhs in rows]
        given = (row for row in rows) if kind == "generator" else rows
        outcome = solve_inequalities(given, 2)
        assert repr(outcome) == repr(solve_inequalities_naive(rows, 2))
        if solvable:
            assert all(type(w) is Fraction for w in outcome)
            continue
        assert isinstance(outcome, Infeasible) and outcome.verify()
        assert outcome.rows == tuple(rows)
        for coeffs, rhs in outcome.rows:
            assert all(type(c) is Fraction for c in (*coeffs, rhs))
        assert all(type(m) is Fraction for m in outcome.multipliers)

    outcome = solve_inequalities([((), 1)], 0)
    assert isinstance(outcome, Infeasible) and outcome.verify()


def test_orthant_rows_match_naive(rng):
    # systems that hold the rows w_j >= 0, some of them or none, scaled
    # copies and weaker rows such as w_j >= -1; solutions and certificates
    # must be the slow twin's, down to types.  Made integral, each system
    # with a variable also goes to the orthant entry, whose implicit rows
    # w_j >= 0 stand in for those given and make it drop the rows they imply
    assert solve_inequalities([((), 0)], 0) == ()
    assert solve_inequalities([((), -1), ((), 0)], 0) == ()
    counts = {"all": 0, "some": 0, "none": 0, "implied": 0, "infeasible": 0}
    implied = 0
    for case in range(1500):
        num_vars = case % 5
        rows = [_random_row(rng, num_vars) for _ in range(rng.randint(0, 5))]
        kept = rng.choice(["all", "some", "none"])
        for coeffs, _ in nonneg_rows(num_vars):
            if kept == "all" or (kept == "some" and rng.random() < 0.5):
                # w_j >= 0 itself or a scaled copy such as 2*w_j >= 0
                k = rng.choice([1, 1, 2, 3])
                rows.append((tuple(k * c for c in coeffs), 0))
            if rng.random() < 0.25:
                rows.append((coeffs, -rng.randint(1, 2)))  # weaker, as w_j >= -1
        if rng.random() < 0.3:
            rows.append(((0,) * num_vars, rng.choice([-1, 0, 0, 1])))
        rng.shuffle(rows)
        kind = "int" if case % 2 else "fraction"
        rows = [(_integral if kind == "int" else _as_fractions)(row) for row in rows]

        outcome = solve_inequalities(rows, num_vars)
        assert repr(outcome) == repr(solve_inequalities_naive(rows, num_vars)), rows
        if num_vars:
            integral = [_integral(row) for row in rows]
            _orthant_solve_matches(integral, num_vars)
            implied += any(
                rhs <= 0 and min(coeffs) >= 0 and (rhs or sum(map(bool, coeffs)) != 1)
                for coeffs, rhs in integral
            )
        counts[kept] += 1
        if kept == "all" and any(
            rhs <= 0 and all(c >= 0 for c in coeffs) and (rhs or sum(map(bool, coeffs)) != 1)
            for coeffs, rhs in rows
        ):
            counts["implied"] += 1
        if isinstance(outcome, Infeasible):
            assert outcome.verify(), rows
            counts["infeasible"] += 1
    assert min(counts.values()) >= 300, counts
    assert implied >= 600, implied


def _orthant_solve_matches(rows, num_vars):
    """solve_orthant(rows) against solve_inequalities(rows + nonneg_rows):
    the same minimum as (num, den), or None exactly at a certificate.  The
    two share their core, so the slow twin checks the public solver."""
    explicit = rows + nonneg_rows(num_vars)
    solved = solve_orthant(rows, num_vars)
    outcome = solve_inequalities(explicit, num_vars)
    assert repr(outcome) == repr(solve_inequalities_naive(explicit, num_vars)), rows
    if isinstance(outcome, Infeasible):
        assert solved is None, rows
        assert outcome.verify(), rows
        return False
    num, den = solved
    assert all(type(x) is int for x in num) and type(den) is int, rows
    assert den > 0 and math.gcd(den, *num) == 1, rows
    assert tuple(Fraction(x, den) for x in num) == outcome, rows
    assert _satisfies(explicit, outcome), rows
    return True


def test_orthant_entry_matches_public_solver(rng):
    # sparse int rows with slack 0 or 1, as the restriction search poses
    # them (dense random rows at six variables can grow the stages for
    # minutes), with duplicates, rows with a common factor and orthant rows
    counts = {"feasible": 0, "infeasible": 0, "factor": 0, "duplicate": 0}
    for case in range(1500):
        num_vars = case % 6 + 1
        entries = [0, 0, 0, -2, -1, 1, 2]
        rows = [
            (tuple(rng.choice(entries) for _ in range(num_vars)), rng.choice([0, 0, 1]))
            for _ in range(rng.randint(0, 8))
        ]
        for coeffs, rhs in list(rows):
            if rng.random() < 0.2:
                k = rng.randint(2, 4)
                rows.append((tuple(k * c for c in coeffs), k * rhs))
                counts["factor"] += 1
            if rng.random() < 0.2:
                rows.append((coeffs, rhs))
                counts["duplicate"] += 1
        if rng.random() < 0.3:
            rows.append(rng.choice(nonneg_rows(num_vars)))
        rng.shuffle(rows)
        feasible = _orthant_solve_matches(rows, num_vars)
        counts["feasible" if feasible else "infeasible"] += 1
    assert min(counts.values()) >= 300, counts


def test_search_systems_match_public_solver(monkeypatch):
    # every system the restriction search poses while certifying and
    # saturating the acceptance ideals, replayed against the public solver
    from test_acceptance import SATURATING_PAIRS, _suite_ideals

    systems = []
    real = universal.solve_orthant

    def recording(rows, num_vars):
        systems.append((rows, num_vars))
        return real(rows, num_vars)

    monkeypatch.setattr(universal, "solve_orthant", recording)
    ideals = [gens for _, gens in _suite_ideals()]
    ideals += [[parse_element(t, 2) for t in texts] for texts in SATURATING_PAIRS]
    for gens in ideals:
        universal_groebner(gens, max_rounds=10)
    feasible = [_orthant_solve_matches(rows, num_vars) for rows, num_vars in systems]
    assert feasible.count(True) > 50 and feasible.count(False) > 50, len(feasible)


def test_num_vars_follows_the_int_rule():
    for value, name in ((True, "bool"), (2.5, "float")):
        with pytest.raises(TypeError) as info:
            solve_inequalities([], value)
        assert str(info.value) == f"num_vars must be an int, got {name}"
    with pytest.raises(ValueError) as info:
        solve_inequalities([], -1)
    assert str(info.value) == "num_vars must be an integer >= 0"


# (num_vars, infeasible, values, rows): systems the restriction search poses
# on the xd3 and ugb_sat1 bases of the cert benchmark, and infeasible draws
# of the generator of test_orthant_entry_matches_public_solver (run with
# random.Random(36)), with what the certifying pass returns on them
# with nonneg_rows appended: the solution, or the Farkas multipliers over
# the rows.  Certificates are built from these values, so a solver rewrite
# must leave every one of them as it is.
PINNED_SYSTEMS = [
    # xd3, search system 0
    (6, False, "0 0 0 1/2 1/2 1/2", [
        ((0, 1, -1, 0, 0, 0), 0), ((1, 0, -1, 0, 0, 0), 0), ((0, 0, -1, 0, 0, 2), 1),
        ((0, 0, -1, 0, 2, 0), 1), ((0, 0, -1, 2, 0, 0), 1),
    ]),
    # xd3, search system 200
    (6, False, "1 0 2 3/2 1/2 3/2", [
        ((0, -1, 0, 0, 2, 0), 1), ((1, 0, 0, 0, -2, 0), 0), ((-1, 0, 1, 0, 0, 0), 1),
        ((0, 0, -1, 0, 0, 2), 1), ((0, 0, -1, 2, 0, 0), 1),
    ]),
    # xd3, search system 500
    (6, False, "1 2 0 1/2 0 1", [
        ((0, 0, 1, 0, -2, 0), 0), ((0, 0, -1, 2, 0, 0), 1), ((1, 0, 0, -2, 0, 0), 0),
        ((-1, 1, 0, 0, 0, 0), 1), ((-1, 0, 0, 0, 0, 2), 1),
    ]),
    # xd3, search system 718
    (6, False, "2 3 4 0 1/2 1", [
        ((0, 0, 0, -2, 2, 0), 1), ((0, 0, 0, 0, -2, 2), 1), ((1, 0, 0, 0, 0, -2), 0),
        ((-1, 1, 0, 0, 0, 0), 1), ((0, -1, 1, 0, 0, 0), 1),
    ]),
    # ugb_sat1, search system 0
    (4, False, "1 1 0 0", [
        ((0, 1, 0, 0), 0), ((1, -1, 0, 0), 0), ((-1, 2, 0, 0), 1), ((0, 1, 0, 0), 0),
        ((1, 0, 0, 0), 0), ((-1, 3, 0, 0), 1), ((2, 0, 0, 0), 0),
    ]),
    # ugb_sat1, search system 20
    (4, False, "1 3 0 0", [
        ((1, 0, 0, 0), 0), ((1, 0, 0, 0), 0), ((-2, 1, 0, 0), 1), ((0, 1, 0, 0), 0),
        ((1, 0, 0, 0), 0), ((0, 2, 0, 0), 0), ((3, -1, 0, 0), 0),
    ]),
    # ugb_sat1, search system 1
    (4, True, "0 3 0 0 0 0 1 0 0 0 0", [
        ((0, 1, 0, 0), 0), ((1, -1, 0, 0), 0), ((-1, 2, 0, 0), 1), ((1, -1, 0, 0), 0),
        ((1, -1, 0, 0), 0), ((1, 0, 0, 0), 0), ((-3, 3, 0, 0), 1),
    ]),
    # ugb_sat1, search system 11
    (4, True, "0 0 0 1/3 2/3 1 0 0 0 0 0", [
        ((0, 1, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 1, 0, 0), 0), ((1, -3, 0, 0), 0),
        ((1, 0, 0, 0), 0), ((-1, 1, 0, 0), 1), ((1, 0, 0, 0), 0),
    ]),
    # ugb_sat1, search system 24
    (4, True, "2 0 0 1 0 1 0 0 0 0 0", [
        ((1, 0, 0, 0), 0), ((1, 0, 0, 0), 0), ((1, 0, 0, 0), 0), ((-3, 1, 0, 0), 1),
        ((0, 1, 0, 0), 0), ((1, -1, 0, 0), 0), ((0, 1, 0, 0), 0),
    ]),
    # generator draw 490
    (5, True, "1 0 0 2 1 1 0 0 1 1 2 4", [
        ((1, 0, -1, 0, -1), 0), ((1, 0, -1, 0, -1), 0), ((1, -1, 0, -2, 0), 0),
        ((-1, 0, 1, 0, -2), 0), ((0, 0, -2, -2, 0), 0), ((1, -1, 0, 0, 1), 1),
        ((1, -1, 0, -2, 0), 0),
    ]),
    # generator draw 1006
    (5, True, "2 1/3 2 2 0 2 0 0 6 4 0 0 0 0 0 1", [
        ((2, 0, -1, 0, -2), 0), ((-6, 0, 6, 0, -3), 3), ((0, 1, 0, -2, -1), 0),
        ((-1, 0, -1, -2, 0), 0), ((-2, 0, -2, -4, 0), 0), ((0, 0, 0, 1, 0), 0),
        ((-2, 0, 2, 0, -1), 1), ((2, 1, 0, 0, 2), 0), ((0, 1, -1, 1, 1), 0),
        ((0, -2, 2, 0, 0), 0), ((0, -1, 1, 0, 0), 0),
    ]),
    # generator draw 293
    (6, True, "1/8 0 0 1 1 0 5/8 0 1/4 0 0 1 1/2 0 0", [
        ((0, -1, 0, 0, -2, 2), 0), ((0, 0, -2, 2, 2, 2), 0), ((0, 0, 0, -2, -2, 2), 0),
        ((0, 1, -1, -2, 1, 1), 1), ((1, 0, 0, 2, -1, 0), 0), ((0, -1, 0, 0, -2, 2), 0),
        ((-2, -1, 0, 0, 0, -2), 0), ((-2, -1, 0, 0, 0, -2), 0), ((1, -1, 0, -2, 1, 0), 0),
    ]),
]


def test_certifying_pass_is_pinned():
    assert len(PINNED_SYSTEMS) == 12
    for num_vars, infeasible, values, rows in PINNED_SYSTEMS:
        explicit = rows + nonneg_rows(num_vars)
        values = tuple(Fraction(v) for v in values.split())
        outcome = solve_inequalities(explicit, num_vars)
        solved = solve_orthant(rows, num_vars)
        if infeasible:
            assert outcome == Infeasible(tuple(map(_as_fractions, explicit)), values), rows
            assert all(type(m) is Fraction for m in outcome.multipliers)
            assert solved is None, rows
        else:
            assert outcome == values and all(type(x) is Fraction for x in outcome), rows
            num, den = solved
            assert tuple(Fraction(x, den) for x in num) == values, rows


def test_orthant_minimum_ignores_how_rows_are_given():
    # the lexicographic minimum over the orthant is unique, so it cannot
    # depend on the order of the rows, on repeats or on positive multiples;
    # the systems are those of test_orthant_entry_matches_public_solver
    rng = random.Random(20261021)
    entries = [0, 0, 0, -2, -1, 1, 2]
    feasible = 0
    for case in range(1500):
        num_vars = case % 6 + 1
        rows = [
            (tuple(rng.choice(entries) for _ in range(num_vars)), rng.choice([0, 0, 1]))
            for _ in range(rng.randint(0, 8))
        ]
        expected = solve_orthant(rows, num_vars)
        feasible += expected is not None
        shuffled = rng.sample(rows, len(rows))
        repeated = rows + rng.choices(rows, k=rng.randint(1, 4)) if rows else []
        scaled = []
        for coeffs, rhs in rows:
            k = rng.randint(1, 5)
            scaled.append((tuple(k * c for c in coeffs), k * rhs))
        mixed = scaled + rng.choices(scaled, k=rng.randint(1, 4)) if rows else []
        rng.shuffle(mixed)
        for variant in (shuffled, repeated, scaled, mixed):
            assert solve_orthant(variant, num_vars) == expected, (rows, variant)
    assert 300 <= feasible <= 1200, feasible


def _infeasible_rows():
    """-w2 >= 1 against w2 >= 0, rows and coefficient vectors as lists."""
    return [[[0, -1], 1], [[1, 0], 0], [[0, 1], 0]]


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_certificate_is_a_value(kind):
    def solve():
        rows = _infeasible_rows()
        if kind == "fraction":
            rows = [[[F(c) for c in coeffs], F(rhs)] for coeffs, rhs in rows]
        return solve_inequalities(rows, 2)

    forced = solve()
    eager = Infeasible(forced.rows, forced.multipliers)
    assert hash(solve()) == hash(eager)
    assert solve() == eager and eager == solve()
    assert repr(solve()) == repr(eager)
    assert solve() != Infeasible(forced.rows, (F(1),) * 3)
    assert solve().verify()
    pickles = [pickle.loads(pickle.dumps(solve(), p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (copy.copy(solve()), copy.deepcopy(solve()), *pickles):
        assert type(clone) is Infeasible
        assert clone == eager and hash(clone) == hash(eager) and repr(clone) == repr(eager)
    outcome = solve()
    for name in ("rows", "multipliers", "other"):
        with pytest.raises(AttributeError):
            setattr(outcome, name, ())
    with pytest.raises(AttributeError):
        del outcome.rows
    assert outcome == eager


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_certificate_is_a_snapshot(kind):
    # the certificate must not see later changes to input rows the caller
    # passed as lists
    rows = _infeasible_rows()
    if kind == "fraction":
        rows = [[[F(c) for c in coeffs], F(rhs)] for coeffs, rhs in rows]
    expected = solve_inequalities_naive(rows, 2)
    outcome = solve_inequalities(rows, 2)
    rows[0][0][1] = 5
    rows[0][1] = -7
    rows[1][0] = [-3, 0]
    rows.append([[0, 0], 1])
    assert repr(outcome) == repr(expected)
    assert outcome.verify()


def test_certificate_is_a_dataclass():
    rng = random.Random(7)
    rows = _cycle(rng, [0, 3, 1, 2], 4, [F(1), F(0), Fraction(-1, 2), F(1)]) + nonneg_rows(4)
    eager = solve_inequalities_naive(rows, 4)
    assert type(eager) is Infeasible
    assert dataclasses.is_dataclass(solve_inequalities(rows, 4))
    assert [f.name for f in dataclasses.fields(solve_inequalities(rows, 4))] == [
        "rows",
        "multipliers",
    ]
    assert dataclasses.asdict(solve_inequalities(rows, 4)) == dataclasses.asdict(eager)
    assert dataclasses.astuple(solve_inequalities(rows, 4)) == (eager.rows, eager.multipliers)
    assert dataclasses.replace(solve_inequalities(rows, 4)) == eager
    doubled = dataclasses.replace(
        solve_inequalities(rows, 4), multipliers=tuple(2 * m for m in eager.multipliers)
    )
    assert doubled.rows == eager.rows and doubled.verify()
    with pytest.raises(AttributeError):
        solve_inequalities(rows, 4).weights


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_certificate_fields_are_set_by_the_solve(kind):
    # the instance holds both fields as the solve returns it, and nothing else
    rows = _infeasible_rows()
    if kind == "fraction":
        rows = [[[F(c) for c in coeffs], F(rhs)] for coeffs, rhs in rows]
    outcome = solve_inequalities(rows, 2)
    assert sorted(vars(outcome)) == ["multipliers", "rows"]
    assert outcome == Infeasible(outcome.rows, outcome.multipliers) and outcome.verify()


def test_certificate_reads_agree_across_threads():
    # threads reading a fresh certificate at once must all see the one the
    # solver built, and none may find a field missing
    rng = random.Random(20261019)
    rows = _cycle(rng, [0, 5, 2, 4, 1, 3], 6, [F(1), F(0), Fraction(-1, 2), F(1), F(0), F(0)])
    rows += nonneg_rows(6)
    expected = solve_inequalities(rows, 6)
    expected = (expected.rows, expected.multipliers)
    seen, failures = [], []

    def read(outcome, barrier, rows_first):
        barrier.wait()
        try:
            if rows_first:
                got_rows = outcome.rows
                got_multipliers = outcome.multipliers
            else:
                got_multipliers = outcome.multipliers
                got_rows = outcome.rows
            seen.append((got_rows, got_multipliers))
        except AttributeError as exc:
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            outcome = solve_inequalities(rows, 6)
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=read, args=(outcome, barrier, rows_first))
                for rows_first in (True, False, True, False)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]
    assert len(seen) == 800 and all(pair == expected for pair in seen)
