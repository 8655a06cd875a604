import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from weylgb import (
    Filtration,
    Monomial,
    Ordering,
    WeylAlgebra,
    WeylElement,
    certify_universal,
    enumerate_restrictions,
    leading_term,
    ordering_distance,
    parse_element,
    parse_ordering,
    universal_groebner,
)
from weylgb.weyl import add_product, combined_support, multiply_monomials
from conftest import random_coefficient, random_element, random_monomial
from oracles import brute_element_product, brute_monomial_product, monomial_ops_naive


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)


# every API that takes a dimension n, each with its own way of taking it
DIMENSION_APIS = (
    WeylAlgebra,
    lambda n: WeylElement(n, {}),
    WeylElement.zero,
    WeylElement.one,
    lambda n: WeylElement.from_term(n, Monomial((0,), (0,))),
    Ordering.grlex,
    Filtration,
    lambda n: parse_element("1", n),
    lambda n: parse_ordering("lex", n),
)


def test_dimension_zero_rejected():
    messages = set()
    for api in DIMENSION_APIS:
        for n in (0, -1):
            with pytest.raises(ValueError) as info:
                api(n)
            messages.add(str(info.value))
    assert messages == {"the algebra dimension n must be an integer >= 1"}


def test_dimension_must_be_an_int():
    # bool is an int subclass, but True is no dimension
    for n, name in ((True, "bool"), (False, "bool"), (1.0, "float"), (1.5, "float"), ("2", "str")):
        messages = set()
        for api in DIMENSION_APIS:
            with pytest.raises(TypeError, match=name) as info:
                api(n)
            messages.add(str(info.value))
        assert messages == {f"the algebra dimension n must be an int, got {name}"}


# every other int argument: its name in the messages, its least value and
# the API given it
INT_ARGUMENTS = (
    ("an exponent", 0, lambda e: Monomial((e,), (0,))),
    ("an exponent", 0, lambda e: Monomial((0,), (e,))),
    ("the exponent", 0, lambda e: W1.xi(1) ** e),
    ("the generator index", 1, W2.xi),
    ("the generator index", 1, W2.d),
    ("the filtration level", 0, Filtration(1).level),
    ("depth_cap", 1, lambda cap: ordering_distance(Ordering.lex(), Ordering.lex(), Filtration(1), cap)),
    ("max_support", 0, lambda cap: enumerate_restrictions([Monomial((1,), (0,))], max_support=cap)),
    ("max_support", 0, lambda cap: certify_universal([W1.xi(1)], max_support=cap)),
    ("max_support", 0, lambda cap: universal_groebner([W1.xi(1)], max_support=cap)),
    ("max_rounds", 0, lambda cap: universal_groebner([W1.xi(1)], max_rounds=cap)),
)


def test_int_arguments_must_be_ints():
    for value, name in ((True, "bool"), (1.5, "float"), (None, "NoneType")):
        for label, _, api in INT_ARGUMENTS:
            with pytest.raises(TypeError) as info:
                api(value)
            assert str(info.value) == f"{label} must be an int, got {name}"


def test_int_arguments_below_their_bound():
    for label, least, api in INT_ARGUMENTS:
        with pytest.raises(ValueError) as info:
            api(least - 1)
        assert str(info.value) == f"{label} must be an integer >= {least}"
    # an index above n is out of the algebra's range
    with pytest.raises(ValueError, match="out of range 1..2"):
        W2.xi(3)


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
    # an exponent that is not an int is refused by type, not accepted and
    # left to fail (or print as 1) in a later product
    for xi, name in (
        ((0.5,), "float"),
        (("1",), "str"),
        ((Fraction(1),), "Fraction"),
        ((True,), "bool"),
        ((False,), "bool"),
    ):
        with pytest.raises(TypeError, match=name):
            Monomial(xi, (0,))
        with pytest.raises(TypeError, match=name):
            Monomial((0,), xi)


def test_elements_are_immutable():
    w = W1.xi(1)
    with pytest.raises(AttributeError):
        w.n = 2
    leading_term(w, Ordering.lex())
    for name in ("n", "terms"):
        with pytest.raises(AttributeError):
            delattr(w, name)
    # a deletion that went through would break ==, hash and bool
    assert w == W1.xi(1) and hash(w) == hash(W1.xi(1)) and w


def test_monomials_are_immutable():
    m = Monomial((1,), (0,))
    for name in ("vector", "xi", "d", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(m, name, (5,))
        with pytest.raises(AttributeError):
            delattr(m, name)
    # a write that went through would leave == and hash disagreeing
    assert m.vector == (1, 0)
    assert m != Monomial((5,), (0,))
    assert hash(m) == hash(Monomial((1,), (0,)))


def test_monomial_is_its_exponent_tuple():
    m = Monomial((1, 0), (2, 3))
    assert m == (1, 0, 2, 3) and (1, 0, 2, 3) == m and hash(m) == hash((1, 0, 2, 3))
    assert m.vector is m and m.xi == (1, 0) and m.d == (2, 3)
    assert {(1, 0, 2, 3): "found"}[m] == "found"
    for raw in (Monomial._raw(map(int, "1023")), Monomial._raw([1, 0, 2, 3])):
        assert type(raw) is Monomial and raw == m and hash(raw) == hash(m)
    assert repr(m) == "Monomial((1, 0), (2, 3))"


def test_monomial_refuses_tuple_arithmetic():
    m = Monomial((1, 0), (2, 3))
    for attempt in (
        lambda: m + m,
        lambda: m + (1,),
        lambda: 2 * m,
        lambda: m * 2,
        lambda: m * (1, 0, 0, 0),
        lambda: (1, 0, 0, 0) * m,
    ):
        with pytest.raises(TypeError):
            attempt()
    assert m * m == Monomial((2, 0), (4, 6))


def test_elements_refuse_keys_that_are_not_monomials():
    # a plain tuple equals the monomial of its exponents, so only this check
    # keeps tuples out of .terms
    with pytest.raises(TypeError, match="tuple"):
        WeylElement(1, {(1, 0): 1})
    with pytest.raises(TypeError, match="str"):
        W1.element({"x1": 1})
    with pytest.raises(TypeError, match="tuple"):
        W2.element({Monomial((1, 0), (0, 0)): 1, (0, 1, 0, 0): 2})


def test_from_term_refuses_keys_that_are_not_monomials():
    # the same check, and the same error, as WeylElement(n, {mono: coeff})
    for coeff in (1, 0):
        with pytest.raises(TypeError, match="tuple"):
            WeylElement.from_term(1, (1, 0), coeff)
    with pytest.raises(TypeError, match="str"):
        WeylElement.from_term(1, "x1")
    with pytest.raises(ValueError, match="dimension"):
        WeylElement.from_term(2, Monomial((1,), (0,)))
    assert WeylElement.from_term(1, Monomial((1,), (0,)), 2) == 2 * W1.xi(1)


def test_quotient_by_exponent_tuple_matches_tuple_oracle():
    # a divisor given as a plain exponent tuple, as divides and lcm take it
    rng = random.Random(20261024)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        b = tuple(rng.randint(0, e + (rng.random() < 0.2)) for e in a)
        _, quotient, _, divides = monomial_ops_naive(tuple(a), b)
        if divides:
            assert type(a / b) is Monomial and a / b == quotient
        else:
            with pytest.raises(ValueError, match="does not divide"):
                a / b
    with pytest.raises(ValueError, match="dimension mismatch"):
        Monomial((1,), (0,)) / (1, 0, 0, 0)


def _pickle_round_trip(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, _pickle_round_trip], ids=["copy", "deepcopy", "pickle"]
)
def test_values_copy_and_pickle(clone):
    m = Monomial((1, 0), (2, 3))
    m2 = clone(m)
    assert type(m2) is Monomial and m2 == m and hash(m2) == hash(m)
    w = W2.xi(1) * W2.d(2) + Fraction(3, 2) * W2.d(1) ** 2
    lex = Ordering.lex()
    lead = leading_term(w, lex)
    w2 = clone(w)
    assert w2 == w and hash(w2) == hash(w) and repr(w2) == repr(w)
    assert leading_term(w2, lex) == lead


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, _pickle_round_trip], ids=["copy", "deepcopy", "pickle"]
)
def test_orderings_and_algebras_copy_and_pickle(clone):
    # x1 is above d1 under lex and below it under this matrix ordering
    x1, d1 = Monomial((1, 0), (0, 0)), Monomial((0, 0), (1, 0))
    matrix = Ordering.matrix([(Fraction(1, 2), 0, 1, Fraction(3, 2))])
    assert (Ordering.lex().compare(x1, d1), matrix.compare(x1, d1)) == (1, -1)
    for ordering in (matrix, Ordering.lex()):
        o2 = clone(ordering)
        assert o2 == ordering and hash(o2) == hash(ordering)
        assert o2.compare(x1, d1) == ordering.compare(x1, d1)
    W3 = WeylAlgebra(3)
    w3 = clone(W3)
    assert w3 == W3 and hash(w3) == hash(W3) and w3.d(3) == W3.d(3)


def test_monomial_vector_matches_blockwise_definitions():
    # each operation on the stored vector equals its definition on the x and
    # d blocks, written out here
    rng = random.Random(20261101)

    def blocks(op, a, b):
        return Monomial(tuple(map(op, a.xi, b.xi)), tuple(map(op, a.d, b.d)))

    for _ in range(300):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        for m in (a, b):
            assert m.vector == m.xi + m.d
            assert len(m.xi) == len(m.d) == m.dimension == n
            raw = Monomial._raw(m.vector)
            assert Monomial(m.xi, m.d) == raw and hash(Monomial(m.xi, m.d)) == hash(raw)
            assert m.degree == sum(m.xi) + sum(m.d)
            assert m.sort_key() == (sum(m.xi) + sum(m.d), m.xi + m.d)
            assert m.is_unit() == (not any(m.xi) and not any(m.d))
        assert a * b == blocks(lambda u, v: u + v, a, b)
        assert a.lcm(b) == blocks(max, a, b)
        divides = all(u <= v for u, v in zip(b.xi, a.xi)) and all(
            u <= v for u, v in zip(b.d, a.d)
        )
        assert b.divides(a) == divides
        if divides:
            assert a / b == blocks(lambda u, v: u - v, a, b)
        else:
            with pytest.raises(ValueError):
                a / b


def test_monomial_operations_match_tuple_oracle():
    rng = random.Random(20261919)
    for _ in range(400):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        # half the pairs take b below a, so that b divides a
        if rng.random() < 0.5:
            b = Monomial._raw(rng.randint(0, e) for e in a)
        else:
            b = random_monomial(rng, n)
        product, quotient, lcm, divides = monomial_ops_naive(tuple(a), tuple(b))
        assert b.divides(a) == divides
        for got, expected in ((a * b, product), (a.lcm(b), lcm)):
            assert type(got) is Monomial and got == expected
        if divides:
            assert type(a / b) is Monomial and a / b == quotient
        else:
            with pytest.raises(ValueError):
                a / b


def test_product_matches_brute_force_at_three_variables():
    # acceptance criterion 01 covers n <= 2; at degree <= 6, about a third
    # of these pairs need the expansion, some in two variables at once
    rng = random.Random(20261102)
    for _ in range(300):
        a = random_monomial(rng, 3, max_degree=6)
        b = random_monomial(rng, 3, max_degree=6)
        assert dict(multiply_monomials(a, b)) == brute_monomial_product(a, b).terms


def test_scalar_arithmetic():
    x = W1.xi(1)
    assert Fraction(1, 2) * x == x * Fraction(1, 2)
    assert 0 * x == W1.zero()
    assert -x == -1 * x


def test_multiply_monomials_leading_term_is_exponent_sum(rng):
    # top term of a monomial product is the exponent sum with coefficient 1
    from conftest import random_ordering

    for _ in range(60):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        product = dict(multiply_monomials(a, b))
        ordering = random_ordering(rng, n)
        top = max(product, key=ordering.sort_key)
        assert top == a * b
        assert product[top] == 1


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

    # a small power first, so a wrong product formula fails here quickly
    assert W1.xi(1) ** 64 == W1.element({Monomial((64,), (0,)): 1})
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


def _commute(a, b):
    # d^a.d * x^b.xi needs no reordering: no variable occurs in both
    return not any(min(mu, rho) for mu, rho in zip(a.d, b.xi))


def _reference_add_product(acc, coeff, mono, terms, brute):
    """add_product spelled out over brute-force products.

    The monomials of one product are distinct, so which of them enter the
    accumulator does not depend on the order they are added in.
    """
    value_type = type(coeff)
    acc = dict(acc)
    entered = []
    cancelled = 0
    for f_mono, f_coeff in terms.items():
        for m, k in brute(mono, f_mono).terms.items():
            ck = value_type(coeff * f_coeff * k)
            if m not in acc:
                acc[m] = ck
                entered.append(m)
            else:
                acc[m] += ck
                if not acc[m]:
                    del acc[m]
                    cancelled += 1
    return acc, entered, cancelled


def test_add_product_matches_brute_force_and_commuting_factors_skip_the_cache(monkeypatch):
    # the kernel against the single-swap rewriter, at n = 1, 2, 3, with int
    # and Fraction accumulators, prefilled entries that the products cancel,
    # and a spy showing that only factors that do not commute reach
    # multiply_monomials
    import weylgb.weyl as weyl

    reached = []
    original = weyl.multiply_monomials

    def spy(a, b):
        reached.append((a, b))
        return original(a, b)

    monkeypatch.setattr(weyl, "multiply_monomials", spy)
    products = {}

    def brute(a, b):
        if (a, b) not in products:
            products[a, b] = brute_monomial_product(a, b)
        return products[a, b]

    rng = random.Random(20261018)
    pairs = Counter()
    for _ in range(400):
        n = rng.randint(1, 3)
        mono = random_monomial(rng, n, max_degree=3)
        f = random_element(rng, n, max_degree=3)
        if rng.random() < 0.2:
            # mono = x^a d_i and f = c x^g d^h (x_i d_i - 1) with g_i = 0:
            # the products of both terms of f hold x^(a+g) d^(h+e_i), with
            # coefficients c and -c
            i = rng.randrange(n)
            e_i = tuple(int(j == i) for j in range(n))
            mono = Monomial(random_monomial(rng, n).xi, e_i)
            m = random_monomial(rng, n)
            g = tuple(0 if j == i else e for j, e in enumerate(m.xi))
            c = random_coefficient(rng)
            f = WeylElement(n, {Monomial(g, m.d) * Monomial(e_i, e_i): c, Monomial(g, m.d): -c})
        if rng.random() < 0.5:
            coeff = random_coefficient(rng)
            terms = f.terms
        else:
            coeff = rng.choice([-6, -2, -1, 1, 3, 4])
            den = 1
            for c in f.terms.values():
                den = den * c.denominator
            terms = {m: int(c * den) for m, c in f.terms.items()}
        value_type = type(coeff)
        first = next(iter(terms))
        acc = {}
        for m, k in brute(mono, first).terms.items():
            if rng.random() < 0.5:
                # an entry the product cancels
                acc[m] = value_type(-coeff * terms[first] * k)
        if rng.random() < 0.5:
            acc[random_monomial(rng, n)] = coeff
        expected, expected_entered, cancelled = _reference_add_product(acc, coeff, mono, terms, brute)
        reached.clear()
        entered = add_product(acc, coeff, mono, terms)
        assert acc == expected
        assert Counter(entered) == Counter(expected_entered)
        assert all(type(c) is value_type for c in acc.values())
        noncommuting = [(mono, f_mono) for f_mono in terms if not _commute(mono, f_mono)]
        assert reached == noncommuting
        pairs["commuting"] += len(terms) - len(noncommuting)
        pairs["noncommuting"] += len(noncommuting)
        pairs["cancelled"] += cancelled > 0
        pairs[value_type.__name__] += 1
    assert min(pairs.values()) >= 50, pairs


def test_multiply_monomials_returns_distinct_int_terms():
    # the kernel's terms are a tuple of (Monomial, int) pairs with distinct
    # monomials and positive coefficients
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        # the uncached function too, so the computation itself is checked
        for product in (multiply_monomials(a, b), multiply_monomials.__wrapped__(a, b)):
            assert type(product) is tuple
            assert dict(product) == brute_monomial_product(a, b).terms
            assert len(dict(product)) == len(product)
            assert all(type(m) is Monomial for m, _ in product)
            assert all(type(c) is int and c > 0 for _, c in product)
        kinds["commuting" if _commute(a, b) else "noncommuting"] += 1
    assert min(kinds.values()) >= 50, kinds
