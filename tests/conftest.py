import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weylgb import Monomial, Ordering, WeylElement


def random_monomial(rng, n, max_degree=4):
    degree = rng.randint(0, max_degree)
    xi = [0] * n
    d = [0] * n
    for _ in range(degree):
        block = rng.choice((xi, d))
        block[rng.randrange(n)] += 1
    return Monomial(tuple(xi), tuple(d))


def random_coefficient(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_element(rng, n, max_degree=4, max_terms=4, allow_zero=False):
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        terms[random_monomial(rng, n, max_degree)] = random_coefficient(rng)
    w = WeylElement(n, terms)
    if not allow_zero and not w:
        return WeylElement.one(n)
    return w


def fresh(w):
    """An equal element built anew from the terms."""
    return WeylElement(w.n, w.terms)


def random_weight_row(rng, n):
    return tuple(
        Fraction(rng.randint(0, 4), rng.choice([1, 1, 2])) for _ in range(2 * n)
    )


def random_ordering(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        return Ordering.lex()
    if kind == 1:
        return Ordering.grlex(n)
    rows = [random_weight_row(rng, n) for _ in range(rng.randint(1, 2))]
    return Ordering.matrix(rows)


def agreeing_ordering(rng, elements, ord1):
    """Some ordering that compares the combined support exactly like ord1.

    The support chain of ord1 is always realizable by a single weight row
    plus the lex tail, so a witness exists; random extra rows are appended
    when they do not disturb the agreement.
    """
    from weylgb import agree_on
    from weylgb.universal import Restriction, WeightWitness, realize_restriction
    from weylgb.weyl import combined_support

    support = combined_support(elements)
    chain = tuple(sorted(support, key=ord1.sort_key))
    witness = realize_restriction(Restriction(chain))
    assert isinstance(witness, WeightWitness)
    n = chain[0].dimension
    extra = [random_weight_row(rng, n) for _ in range(rng.randint(0, 2))]
    candidate = Ordering.matrix([witness.weights] + extra)
    if agree_on(ord1, candidate, support):
        return candidate
    return witness.ordering()


@pytest.fixture
def rng():
    return random.Random(20260808)
