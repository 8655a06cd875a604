from fractions import Fraction

import pytest

from weylgb import (
    DistanceBound,
    Filtration,
    Monomial,
    Ordering,
    agree_on,
    format_ordering,
    ordering_distance,
    parse_ordering,
)
from weylgb.orderings import monomials_up_to_degree
from conftest import random_monomial, random_ordering


X1 = Monomial((1,), (0,))
D1 = Monomial((0,), (1,))
ONE = Monomial((0,), (0,))


def test_lex_compares_x_block_first():
    assert Ordering.lex().compare(D1, X1) == -1
    assert Ordering.lex().compare(X1, D1) == 1


def test_compare_equal_iff_same():
    ord_ = Ordering.grlex(1)
    assert ord_.compare(X1, X1) == 0
    assert ord_.compare(X1, D1) != 0


def test_grlex_weighs_total_degree():
    d_squared = Monomial((0,), (2,))
    assert Ordering.grlex(1).compare(X1, d_squared) == -1


def test_grlex_is_all_ones_matrix():
    assert Ordering.grlex(2) == Ordering.matrix([(1, 1, 1, 1)])


def test_matrix_rows_must_be_nonnegative():
    with pytest.raises(ValueError):
        Ordering.matrix([(1, -1)])
    with pytest.raises(ValueError):
        Ordering.matrix([(1, 2, 3)])  # odd width
    with pytest.raises(ValueError):
        Ordering.matrix([])


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError):
        Ordering.lex().compare(X1, Monomial((1, 0), (0, 0)))
    with pytest.raises(ValueError):
        Ordering.grlex(2).compare(X1, D1)


def test_total_order_axioms(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        a, b, c = (random_monomial(rng, n) for _ in range(3))
        ab, ba = ordering.compare(a, b), ordering.compare(b, a)
        assert ab == -ba
        assert (ab == 0) == (a == b)
        if ordering.compare(a, b) <= 0 and ordering.compare(b, c) <= 0:
            assert ordering.compare(a, c) <= 0


def test_one_is_strictly_minimal(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        m = random_monomial(rng, n)
        if m.is_unit():
            continue
        assert ordering.compare(Monomial.unit(n), m) == -1


def test_translation_compatibility(rng):
    for _ in range(200):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        a, b, c = (random_monomial(rng, n) for _ in range(3))
        assert ordering.compare(a, b) == ordering.compare(a * c, b * c)


def test_agree_on_self_and_empty(rng):
    lex = Ordering.lex()
    assert agree_on(lex, lex, [X1, D1, ONE])
    assert agree_on(lex, Ordering.matrix([(0, 1)]), [])
    # lex reads any width, so the dimensions are compared first
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        agree_on(lex, lex, [X1, Monomial((1, 0), (0, 0))])


def test_agree_on_detects_flip():
    assert not agree_on(Ordering.lex(), Ordering.matrix([(0, 1)]), {X1, D1})
    assert agree_on(Ordering.lex(), Ordering.matrix([(2, 1)]), {X1, D1})


def test_filtration_levels():
    filt = Filtration(1)
    assert filt.level(0) == ()
    assert set(filt.level(1)) == {ONE}
    assert set(filt.level(2)) == {ONE, X1, D1}
    for i in range(5):
        assert set(filt.level(i)) <= set(filt.level(i + 1))
    # exhaustive: any monomial shows up one level past its degree
    m = Monomial((2,), (3,))
    assert m in set(filt.level(m.degree + 1))


def test_monomials_up_to_degree_counts():
    # degree <= d in 2n variables: C(2n + d, 2n) many
    assert len(monomials_up_to_degree(1, 2)) == 6
    assert len(monomials_up_to_degree(2, 2)) == 15


def test_distance_self_is_upper_bound_only():
    filt = Filtration(1)
    bound = ordering_distance(Ordering.lex(), Ordering.lex(), filt, 6)
    assert bound == DistanceBound(Fraction(1, 64), exact=False)


def test_distance_first_disagreement():
    filt = Filtration(1)
    bound = ordering_distance(Ordering.lex(), Ordering.matrix([(0, 1)]), filt, 8)
    assert bound == DistanceBound(Fraction(1, 2), exact=True)


def test_distance_symmetry(rng):
    filt = Filtration(2)
    for _ in range(30):
        a = random_ordering(rng, 2)
        b = random_ordering(rng, 2)
        assert ordering_distance(a, b, filt, 5) == ordering_distance(b, a, filt, 5)


def test_distance_ultrametric(rng):
    filt = Filtration(1)
    for _ in range(60):
        a, b, c = (random_ordering(rng, 1) for _ in range(3))
        dab = ordering_distance(a, b, filt, 7)
        dbc = ordering_distance(b, c, filt, 7)
        dac = ordering_distance(a, c, filt, 7)
        if dab.exact and dbc.exact and dac.exact:
            assert dac.value <= max(dab.value, dbc.value)


def test_neighborhood_membership_equals_agreement(rng):
    # distance below 2**-r is the same as agreeing on level r+1
    filt = Filtration(1)
    for _ in range(40):
        a = random_ordering(rng, 1)
        b = random_ordering(rng, 1)
        for r in range(4):
            bound = ordering_distance(a, b, filt, r + 2)
            member = bound.value < Fraction(1, 2**r)
            assert member == agree_on(a, b, filt.level(r + 1))


def test_custom_filtration_rule():
    filt = Filtration(1, rule=lambda i: monomials_up_to_degree(1, 2 * i - 1) if i else ())
    assert filt.level(0) == ()
    assert len(filt.level(1)) == len(monomials_up_to_degree(1, 1))


def test_depth_cap_validation():
    with pytest.raises(ValueError):
        ordering_distance(Ordering.lex(), Ordering.lex(), Filtration(1), 0)


def _fraction_key(rows, mono):
    """Reference key: Fraction dot products row by row, then the lex tail."""
    return tuple(sum(q * e for q, e in zip(row, mono.vector)) for row in rows) + mono.vector


def _int_key(ordering, mono):
    """Reference key: int dot products with the scaled rows, then the exponents."""
    return tuple(sum(a * e for a, e in zip(row, mono)) for row in ordering._int_rows) + tuple(mono)


def test_integer_keys_compare_like_fraction_dot_products(rng):
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.2:
                rows.append((0,) * (2 * n))
            else:
                rows.append(tuple(
                    Fraction(rng.randint(0, 9), rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 10]))
                    for _ in range(2 * n)
                ))
        ordering = Ordering(rows)
        assert ordering.rows == tuple(tuple(Fraction(q) for q in row) for row in rows)
        spec = format_ordering(ordering)
        assert parse_ordering(spec, n) == ordering
        assert format_ordering(parse_ordering(spec, n)) == spec
        monos = [random_monomial(rng, n) for _ in range(12)]
        keys = [_fraction_key(ordering.rows, m) for m in monos]
        for m in monos:
            assert ordering.sort_key(m) == _int_key(ordering, m) == ordering.sort_key(tuple(m))
        for a, ka in zip(monos, keys):
            for b, kb in zip(monos, keys):
                assert ordering.compare(a, b) == (ka > kb) - (ka < kb)
    # the row (3/2, 1/3) scaled to ints is (9, 2)
    ordering = Ordering.matrix([(Fraction(3, 2), Fraction(1, 3))])
    for i in range(4):
        for j in range(4):
            assert ordering.sort_key(Monomial((i,), (j,))) == (9 * i + 2 * j, i, j)
