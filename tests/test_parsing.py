import random
from fractions import Fraction

import pytest

from weylgb import (
    Monomial,
    Ordering,
    ParseError,
    WeylAlgebra,
    format_element,
    format_monomial,
    format_ordering,
    parse_element,
    parse_ordering,
)
from conftest import random_element
from oracles import parse_element_naive


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)


def test_parse_noncommutative_product():
    assert parse_element("d1*x1", 1) == W1.xi(1) * W1.d(1) + W1.one()
    assert parse_element("x1*d1", 1) == W1.xi(1) * W1.d(1)


def test_parse_zero_and_constants():
    assert parse_element("0", 1) == W1.zero()
    assert parse_element("3/4", 1) == Fraction(3, 4) * W1.one()
    assert parse_element("2 - 2", 1) == W1.zero()


def test_parse_powers_and_parens():
    assert parse_element("x1^3", 1) == W1.xi(1) ** 3
    assert parse_element("(x1 + d1)^2", 1) == (W1.xi(1) + W1.d(1)) ** 2
    assert parse_element("x1^0", 1) == W1.one()


def test_parse_signs():
    x = W1.xi(1)
    assert parse_element("-x1", 1) == -x
    assert parse_element("-1/2*x1^2", 1) == Fraction(-1, 2) * x**2
    assert parse_element("(-3)*x1", 1) == -3 * x


def test_parse_left_to_right_products():
    # d1*x1*d1 = (d1*x1)*d1
    lhs = parse_element("d1*x1*d1", 1)
    assert lhs == (W1.d(1) * W1.xi(1)) * W1.d(1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_element("x1 + @", 1)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_element("x1 *", 1)
    with pytest.raises(ParseError):
        parse_element("x1 x1", 1)  # juxtaposition is not a product
    with pytest.raises(ParseError):
        parse_element("x1^(1/2)", 1)
    with pytest.raises(ParseError):
        parse_element("", 1)
    for text, position in [("1/0", 0), ("x1 + 3/00", 5)]:
        with pytest.raises(ParseError, match="zero denominator") as err:
            parse_element(text, 1)
        assert err.value.position == position


def test_parse_variable_range_checked():
    with pytest.raises(ParseError):
        parse_element("x3", 2)
    with pytest.raises(ParseError):
        parse_element("d2", 1)
    assert parse_element("x2*d2", 2) == W2.xi(2) * W2.d(2)


def _random_text(rng, n, depth=0):
    """A sum of products of numbers, variables and groups, some with powers."""
    text = "-" if rng.random() < 0.3 else ""
    for k in range(rng.randint(1, 3)):
        if k:
            text += rng.choice(["+", "-", " + ", " - "])
        factors = []
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.25:
                factor = rng.choice(["0", "1", "2", "7", "3/2", "4/6", "0/5", "12/8"])
            elif pick < 0.85 or depth >= 2:
                factor = rng.choice("xd") + str(rng.randint(1, n))
            else:
                factor = "(" + _random_text(rng, n, depth + 1) + ")"
            if rng.random() < 0.25:
                factor += "^" + str(rng.randint(0, 3 if factor[0] != "(" else 2))
            factors.append(factor)
        text += (" * " if rng.random() < 0.2 else "*").join(factors)
    return text


def test_parse_matches_naive():
    # the naive parser evaluates every factor as an element, left to right;
    # both must give equal elements with their terms in the same order
    rng = random.Random(20261019)
    texts = [
        ("d1*x1*d1", 1),
        ("x2*d1*x1", 2),
        ("d1^2*x1^2*d1 - 0*x1 + 0", 1),
        ("(x1 + d1)^0 * 3/2 * (d1*x1)^2", 1),
        ("-((x1 - 2/4*d2)^3 * x2^0) + d2*x2*x1^2*d1", 2),
        ("x3 * d3 * x3 * (d1 + x1) * d2 ^ 2 * x2", 3),
    ]
    texts += [(_random_text(rng, n), n) for n in (1, 2, 3) for _ in range(300)]
    for text, n in texts:
        w = parse_element(text, n)
        expected = parse_element_naive(text, n)
        assert w == expected, text
        assert list(w.terms) == list(expected.terms), text


def test_parse_errors_match_naive():
    texts = [
        "x1 + @",
        "x1 *",
        "x1 x1",
        "x1^(1/2)",
        "",
        "1/0",
        "x1 + 3/00",
        "x1 + x3",
        "(x1 + d1",
        "x1 + d1)",
        "(" * 3000 + "x1" + ")" * 3000,
    ]
    for text in texts:
        with pytest.raises(ParseError) as err:
            parse_element(text, 2)
        with pytest.raises(ParseError) as naive:
            parse_element_naive(text, 2)
        assert str(err.value) == str(naive.value), text
        assert err.value.position == naive.value.position, text
    assert "nested too deeply" in str(err.value)


def test_format_examples():
    x, d = W1.xi(1), W1.d(1)
    assert format_element(x * d + W1.one()) == "x1*d1 + 1"
    assert format_element(W1.zero()) == "0"
    assert format_element(Fraction(-1, 2) * x**2) == "-1/2*x1^2"
    assert format_element(x - W1.one()) == "x1 - 1"
    assert format_element(-x - d) == "-x1 - d1"


def test_format_monomial():
    assert format_monomial(Monomial((0,), (0,))) == "1"
    assert format_monomial(Monomial((2, 1), (0, 3))) == "x1^2*x2*d2^3"


def test_format_orders_terms_by_graded_lex_descending():
    w = W2.xi(2) + W2.xi(1) + W2.d(1) ** 2
    assert format_element(w) == "d1^2 + x1 + x2"


def test_format_parse_round_trip(rng):
    for _ in range(150):
        n = rng.randint(1, 3)
        w = random_element(rng, n, allow_zero=True)
        assert parse_element(format_element(w), n) == w


def test_format_is_fixpoint_on_canonical_strings(rng):
    for _ in range(80):
        n = rng.randint(1, 2)
        text = format_element(random_element(rng, n, allow_zero=True))
        assert format_element(parse_element(text, n)) == text


def test_ordering_spec_round_trip():
    assert parse_ordering("lex", 1) == Ordering.lex()
    assert parse_ordering("grlex", 2) == Ordering.grlex(2)
    spec = "matrix:[[1,2];[0,1/3]]"
    ordering = parse_ordering(spec, 1)
    assert ordering.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1, 3)))
    assert parse_ordering(format_ordering(ordering), 1) == ordering
    assert format_ordering(Ordering.lex()) == "lex"


def test_ordering_spec_errors():
    with pytest.raises(ValueError):
        parse_ordering("weird", 1)
    with pytest.raises(ValueError):
        parse_ordering("matrix:[[1,2,3]]", 1)  # width mismatch for n=1
    with pytest.raises(ValueError):
        parse_ordering("matrix:[1,2]", 1)
    with pytest.raises(ValueError):
        parse_ordering("matrix:[[1,x]]", 1)
