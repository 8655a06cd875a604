import random
from fractions import Fraction

import pytest

from weylgb import Monomial, WeylAlgebra, WeylElement, combined_support, multiply_monomials
from conftest import random_element
from oracles import brute_element_product, brute_monomial_product


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)


def test_dimension_zero_rejected():
    with pytest.raises(ValueError):
        WeylAlgebra(0)
    with pytest.raises(ValueError):
        WeylElement.zero(0)


def test_canonical_form_drops_zero_coefficients():
    x = W1.xi(1)
    w = W1.element({Monomial((1,), (0,)): 1, Monomial((0,), (1,)): 0})
    assert w == x
    assert all(c != 0 for c in w.terms.values())


def test_add_cancellation():
    x = W1.xi(1)
    assert (x + W1.one()) + (-1 * W1.one()) == x


def test_add_zero_identity(rng):
    for _ in range(20):
        w = random_element(rng, 2, allow_zero=True)
        assert w + W2.zero() == w


def test_add_collects_like_terms():
    xd = W1.xi(1) * W1.d(1)
    assert xd + xd == 2 * xd


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        W1.xi(1) + W2.xi(1)


def test_product_single_relation():
    x, d = W1.xi(1), W1.d(1)
    assert d * x == x * d + W1.one()
    assert x * d == W1.element({Monomial((1,), (1,)): 1})


def test_product_d2_x2():
    x, d = W1.xi(1), W1.d(1)
    expected = W1.element(
        {
            Monomial((2,), (2,)): 1,
            Monomial((1,), (1,)): 4,
            Monomial((0,), (0,)): 2,
        }
    )
    assert d**2 * x**2 == expected
    # and the brute-force rewriter agrees
    assert brute_monomial_product(Monomial((0,), (2,)), Monomial((2,), (0,))) == expected


def test_product_bilinear_example():
    x, d = W1.xi(1), W1.d(1)
    assert (x + d) * x == x**2 + x * d + W1.one()


def test_one_is_neutral(rng):
    for _ in range(20):
        w = random_element(rng, 2, allow_zero=True)
        assert W2.one() * w == w
        assert w * W2.one() == w


def test_defining_relations_all_indices():
    W3 = WeylAlgebra(3)
    for i in range(1, 4):
        for j in range(1, 4):
            xi, xj = W3.xi(i), W3.xi(j)
            di, dj = W3.d(i), W3.d(j)
            assert xi.commutator(xj) == W3.zero()
            assert di.commutator(dj) == W3.zero()
            expected = W3.one() if i == j else W3.zero()
            assert di.commutator(xj) == expected


def test_commutator_examples():
    x, d = W1.xi(1), W1.d(1)
    assert d.commutator(x) == W1.one()
    assert (d * d).commutator(x) == 2 * d
    assert W2.xi(1).commutator(W2.xi(2)) == W2.zero()


def test_support():
    x, d = W1.xi(1), W1.d(1)
    w = x * d + 2 * W1.one()
    assert w.support() == {Monomial((1,), (1,)), Monomial((0,), (0,))}
    assert W1.zero().support() == frozenset()


def test_support_of_sum_is_contained_in_union(rng):
    for _ in range(50):
        u = random_element(rng, 2, allow_zero=True)
        v = random_element(rng, 2, allow_zero=True)
        assert (u + v).support() <= u.support() | v.support()


def test_combined_support():
    x, d = W1.xi(1), W1.d(1)
    assert combined_support([x + d, x]) == {Monomial((1,), (0,)), Monomial((0,), (1,))}


def test_ring_axioms_random():
    rng = random.Random(1001)
    for _ in range(500):
        n = rng.randint(1, 3)
        u = random_element(rng, n, allow_zero=True)
        v = random_element(rng, n, allow_zero=True)
        w = random_element(rng, n, allow_zero=True)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert (u + v) * w == u * w + v * w


def test_domain_property(rng):
    for _ in range(100):
        u = random_element(rng, 2)
        v = random_element(rng, 2)
        assert u * v


def test_product_matches_brute_force_sample():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 2)
        u = random_element(rng, n, max_degree=3, max_terms=3)
        v = random_element(rng, n, max_degree=3, max_terms=3)
        assert u * v == brute_element_product(u, v)


def test_monomial_arithmetic():
    a = Monomial((1,), (0,))
    b = Monomial((1,), (1,))
    assert a.divides(b)
    assert not b.divides(a)
    assert b / a == Monomial((0,), (1,))
    assert a.lcm(b) == b
    assert a * a == Monomial((2,), (0,))
    with pytest.raises(ValueError):
        a / b
    with pytest.raises(ValueError):
        Monomial((-1,), (0,))


def test_elements_are_immutable():
    w = W1.xi(1)
    with pytest.raises(AttributeError):
        w.n = 2


def test_scalar_arithmetic():
    x = W1.xi(1)
    assert Fraction(1, 2) * x == x * Fraction(1, 2)
    assert 0 * x == W1.zero()
    assert -x == -1 * x


def test_multiply_monomials_leading_term_is_exponent_sum(rng):
    # top term of a monomial product is the exponent sum with coefficient 1
    from conftest import random_monomial, random_ordering

    for _ in range(60):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        product = multiply_monomials(a, b)
        ordering = random_ordering(rng, n)
        top = max(product.terms, key=ordering.sort_key)
        assert top == a * b
        assert product.terms[top] == 1


def test_power_matches_repeated_products():
    rng = random.Random(20261022)
    for _ in range(30):
        n = rng.randint(1, 2)
        w = random_element(rng, n, max_degree=2, max_terms=3)
        expected = WeylElement.one(n)
        for exponent in range(9):
            assert w**exponent == expected
            expected = expected * w


def test_large_power_takes_logarithmically_many_products(monkeypatch):
    import weylgb.weyl as weyl

    calls = []
    original = weyl.add_product

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(weyl, "add_product", spy)
    exponent = 10**6
    power = W1.xi(1) ** exponent
    assert power == W1.element({Monomial((exponent,), (0,)): 1})
    # one product per squaring and per set bit, each of one-term elements
    assert len(calls) <= 2 * exponent.bit_length()
