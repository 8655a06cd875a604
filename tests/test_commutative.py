import random

import pytest

from weylgb import (
    Monomial,
    Ordering,
    WeylAlgebra,
    buchberger,
    reduce_basis,
)
from conftest import random_element, random_ordering
from oracles import (
    CommutativePolynomial,
    commutative_buchberger,
    induced_ordering,
    to_commutative,
    to_weyl,
)


W1 = WeylAlgebra(1)
LEX = Ordering.lex()


def P(n, terms):
    return CommutativePolynomial(n, {Monomial(a, b): c for (a, b), c in terms.items()})


def test_relabeling_examples():
    x, d = W1.xi(1), W1.d(1)
    image = to_commutative(x * d + 2 * W1.one())
    assert image == P(1, {((1,), (1,)): 1, ((0,), (0,)): 2})
    assert to_commutative(W1.zero()) == CommutativePolynomial.zero(1)


def test_relabeling_is_module_map_not_ring_map():
    x, d = W1.xi(1), W1.d(1)
    lhs = to_commutative(d * x)                      # X Y + 1
    rhs = to_commutative(d) * to_commutative(x)      # X Y
    assert lhs == rhs + P(1, {((0,), (0,)): 1})
    assert lhs != rhs


def test_relabeling_linear_and_bijective(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        u = random_element(rng, n, allow_zero=True)
        v = random_element(rng, n, allow_zero=True)
        assert to_commutative(u + v) == to_commutative(u) + to_commutative(v)
        assert to_weyl(to_commutative(u)) == u


def test_induced_ordering_is_shared_comparison(rng):
    for _ in range(20):
        ordering = random_ordering(rng, 2)
        assert induced_ordering(ordering) is ordering


def test_monomial_ideal_already_reduced():
    basis = commutative_buchberger([P(1, {((1,), (0,)): 1}), P(1, {((0,), (1,)): 1})], LEX)
    assert basis == [P(1, {((1,), (0,)): 1}), P(1, {((0,), (1,)): 1})]


def test_textbook_lex_basis():
    # x = X1, y = X2 in the x block of dimension 2
    x2 = P(2, {((2, 0), (0, 0)): 1, ((0, 1), (0, 0)): -1})   # x^2 - y
    xy = P(2, {((1, 1), (0, 0)): 1, ((0, 0), (0, 0)): -1})   # x y - 1
    basis = commutative_buchberger([x2, xy], LEX)
    expected = [
        P(2, {((1, 0), (0, 0)): 1, ((0, 2), (0, 0)): -1}),   # x - y^2
        P(2, {((0, 3), (0, 0)): 1, ((0, 0), (0, 0)): -1}),   # y^3 - 1
    ]
    assert basis == expected


def test_single_generator_becomes_monic():
    p = P(1, {((2,), (0,)): 3, ((0,), (0,)): 6})
    basis = commutative_buchberger([p], LEX)
    assert basis == [P(1, {((2,), (0,)): 1, ((0,), (0,)): 2})]


def test_noncommutativity_contrast():
    # same exponents, different worlds: {x1, d1} spans everything in the
    # Weyl algebra, while {X1, Y1} is a plain monomial ideal
    weyl = reduce_basis(buchberger([W1.xi(1), W1.d(1)], LEX))
    assert [e for e in weyl.elements] == [W1.one()]
    comm = commutative_buchberger(
        [to_commutative(W1.xi(1)), to_commutative(W1.d(1))], LEX
    )
    assert comm == [to_commutative(W1.xi(1)), to_commutative(W1.d(1))]


def test_x_only_ideals_match_commutative_oracle(rng):
    for _ in range(15):
        n = rng.randint(1, 3)
        algebra = WeylAlgebra(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = random_element(rng, n, max_degree=3, max_terms=3)
            # keep only x exponents so the generators commute
            gens.append(
                algebra.element(
                    {Monomial(m.xi, (0,) * n): c for m, c in w.terms.items()}
                )
            )
        ordering = random_ordering(rng, n)
        weyl_basis = reduce_basis(buchberger(gens, ordering))
        oracle = commutative_buchberger(
            [to_commutative(g) for g in gens], induced_ordering(ordering)
        )
        assert [to_commutative(e) for e in weyl_basis.elements] == oracle


def test_zero_generators_rejected_gracefully():
    assert commutative_buchberger([CommutativePolynomial.zero(1)], LEX) == []
