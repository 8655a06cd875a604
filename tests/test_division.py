import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from weylgb import (
    Monomial,
    Ordering,
    WeylAlgebra,
    WeylElement,
    buchberger,
    divide,
    leading_term,
    reduce_basis,
)
from weylgb.division import DivisionInvariantError, LeadingTerm, check_division_contract, monic
from weylgb.groebner import s_pair
from conftest import fresh, random_coefficient, random_element, random_monomial, random_ordering
from oracles import divide_naive, poly_leading, to_commutative


W1 = WeylAlgebra(1)
LEX = Ordering.lex()


def test_leading_term_examples():
    x, d = W1.xi(1), W1.d(1)
    assert leading_term(x * d + W1.one(), LEX) == LeadingTerm(Monomial((1,), (1,)), Fraction(1))
    assert leading_term(3 * x, LEX) == LeadingTerm(Monomial((1,), (0,)), Fraction(3))
    assert leading_term(x + d, Ordering.matrix([(0, 1)])) == LeadingTerm(
        Monomial((0,), (1,)), Fraction(1)
    )


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        leading_term(W1.zero(), LEX)


def test_monomial_divisibility_examples():
    x = Monomial((1,), (0,))
    xd = Monomial((1,), (1,))
    d = Monomial((0,), (1,))
    assert x.divides(xd)
    assert not x.divides(d)
    assert x.divides(x)


def test_divide_exact():
    x, d = W1.xi(1), W1.d(1)
    result = divide(x * d, [d], LEX)
    assert result.quotients == [x]
    assert not result.remainder


def test_divide_no_reduction_possible():
    x, d = W1.xi(1), W1.d(1)
    result = divide(d, [x], LEX)
    assert result.quotients == [W1.zero()]
    assert result.remainder == d


def test_divide_zero_dividend():
    x, d = W1.xi(1), W1.d(1)
    result = divide(W1.zero(), [x, d], LEX)
    assert result.quotients == [W1.zero(), W1.zero()]
    assert not result.remainder


def test_divide_skips_zero_divisors():
    x, d = W1.xi(1), W1.d(1)
    result = divide(x * d, [W1.zero(), d], LEX)
    assert result.quotients == [W1.zero(), x]
    assert not result.remainder


def test_divide_first_match_determinism():
    x, d = W1.xi(1), W1.d(1)
    w = x * d
    res = divide(w, [d, x * d], LEX)
    assert res.quotients == [x, W1.zero()]
    res = divide(w, [x * d, d], LEX)
    assert res.quotients == [W1.one(), W1.zero()]


def test_divide_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
        divide(W1.xi(1), [WeylAlgebra(2).xi(1)], LEX)
    # a divisor that is no element is refused by its type
    with pytest.raises(TypeError, match="expected WeylElement, got Monomial"):
        divide(W1.xi(1), [Monomial((1,), (0,))], LEX)


def test_contract_on_random_instances():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 3)
        w = random_element(rng, n, allow_zero=True)
        divisors = [
            random_element(rng, n, max_degree=3, allow_zero=True)
            for _ in range(rng.randint(1, 3))
        ]
        ordering = random_ordering(rng, n)
        result = divide(w, divisors, ordering)
        report = check_division_contract(w, divisors, ordering, result)
        assert report.reconstruction
        assert report.remainder_irreducible
        assert report.quotient_bound


def test_working_leading_monomials_strictly_decrease():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 2)
        w = random_element(rng, n)
        divisors = [random_element(rng, n, max_degree=2)]
        ordering = random_ordering(rng, n)
        trace = []
        divide(w, divisors, ordering, trace=trace)
        for earlier, later in zip(trace, trace[1:]):
            assert ordering.compare(later, earlier) == -1


def test_left_multiples_reduce_to_zero():
    # w in W*f always divides out: the working element never leaves the
    # left ideal, so its leading monomial stays divisible by lt(f)
    rng = random.Random(44)
    for _ in range(200):
        n = rng.randint(1, 2)
        f = random_element(rng, n, max_degree=2, max_terms=2)
        multiplier = random_element(rng, n, max_degree=2, max_terms=2)
        w = multiplier * f
        result = divide(w, [f], LEX)
        assert not result.remainder
        assert result.quotients[0] * f == w


def test_leading_term_commutes_with_relabeling(rng):
    # the greatest monomial is the same before and after to_commutative
    for _ in range(100):
        n = rng.randint(1, 3)
        w = random_element(rng, n)
        ordering = random_ordering(rng, n)
        weyl_lt = leading_term(w, ordering).monomial
        comm_lt, _ = poly_leading(to_commutative(w), ordering)
        assert weyl_lt == comm_lt


def _mixed_ordering(rng, n):
    """lex, grlex, or 1-3 weight rows with denominators up to 7."""
    kind = rng.randrange(4)
    if kind == 0:
        return Ordering.lex()
    if kind == 1:
        return Ordering.grlex(n)
    rows = [
        tuple(Fraction(rng.randint(0, 6), rng.randint(1, 7)) for _ in range(2 * n))
        for _ in range(rng.randint(1, 3))
    ]
    return Ordering.matrix(rows)


def _same_leading_monomial(rng, f, ordering):
    """Another element with f's leading monomial: a new leading coefficient
    and a fresh tail of monomials below it."""
    lead = leading_term(f, ordering)
    terms = {lead.monomial: random_coefficient(rng)}
    for _ in range(rng.randint(0, 3)):
        mono = random_monomial(rng, f.n, max_degree=3)
        if ordering.compare(mono, lead.monomial) < 0:
            terms[mono] = random_coefficient(rng)
    return WeylElement(f.n, terms)


def _assert_matches_naive(w, divisors, ordering):
    trace, naive_trace = [], []
    result = divide(w, divisors, ordering, trace=trace)
    # the twin gets fresh copies, so state kept on an element cannot fool both
    expected = divide_naive(
        fresh(w), [fresh(f) for f in divisors], ordering, trace=naive_trace
    )
    assert result.quotients == expected.quotients
    assert result.remainder == expected.remainder
    assert trace == naive_trace
    assert check_division_contract(w, divisors, ordering, result).all_ok()


def _awkward_scalar(rng):
    """A nonzero rational that is rarely a unit: either sign, numerator up to
    97, denominator up to 60."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 60))


def test_divide_matches_naive_division():
    rng = random.Random(20261018)
    for case in range(400):
        n = rng.randint(1, 3)
        ordering = _mixed_ordering(rng, n)
        divisors = [
            random_element(rng, n, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        if case % 2:
            at = rng.randrange(len(divisors) + 1)
            divisors.insert(at, _same_leading_monomial(rng, rng.choice(divisors), ordering))
        if case % 3 == 0:
            divisors.insert(rng.randrange(len(divisors) + 1), WeylElement.zero(n))
        # a left combination of the divisors plus noise, so that most steps
        # cancel against a divisor and some terms reach the remainder
        w = random_element(rng, n, allow_zero=True)
        for f in divisors:
            w = w + random_element(rng, n, max_degree=2, max_terms=2, allow_zero=True) * f
        _assert_matches_naive(w, divisors, ordering)

    # Leading coefficients that are non-units, negative or fractional, and
    # dividends with large denominators: the integer kernel rescales its
    # numerators, flips divisor signs and removes content on these.
    rng = random.Random(20261019)
    for case in range(300):
        n = rng.randint(1, 3)
        ordering = _mixed_ordering(rng, n)
        divisors = [
            _awkward_scalar(rng) * random_element(rng, n, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        if case % 2:
            twin = _same_leading_monomial(rng, rng.choice(divisors), ordering)
            divisors.insert(rng.randrange(len(divisors) + 1), _awkward_scalar(rng) * twin)
        if case % 5 == 0:
            divisors.insert(rng.randrange(len(divisors) + 1), WeylElement.zero(n))
        w = random_element(rng, n, allow_zero=True) * Fraction(1, rng.randint(1, 10**12))
        for f in divisors:
            cofactor = random_element(rng, n, max_degree=2, max_terms=2, allow_zero=True)
            w = w + Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9)) * cofactor * f
        _assert_matches_naive(w, divisors, ordering)


def test_leading_term_and_division_follow_the_ordering():
    rng = random.Random(20261020)
    n = 2
    lex, grlex = Ordering.lex(), Ordering.grlex(n)
    lex_again = Ordering.lex()  # equal to lex, a distinct object
    assert lex_again == lex and lex_again is not lex
    for _ in range(40):
        w = random_element(rng, n, max_terms=5)
        divisors = [
            _awkward_scalar(rng) * random_element(rng, n, max_degree=3, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        w = w + random_element(rng, n, max_degree=2, max_terms=2) * divisors[0]
        plain = fresh(w)
        hash_before, repr_before = hash(w), repr(w)
        for ordering in (lex, grlex, lex_again, lex):
            assert leading_term(w, ordering) == leading_term(fresh(w), ordering)
            mono = max(w.terms, key=ordering.sort_key)
            assert leading_term(w, ordering) == (mono, w.terms[mono])
        assert w == plain and hash(w) == hash(plain) == hash_before
        assert repr(w) == repr(plain) == repr_before
        # one divisor list under two orderings, and back
        for ordering in (grlex, lex, grlex):
            _assert_matches_naive(w, divisors, ordering)
        assert all(f == fresh(f) and hash(f) == hash(fresh(f)) for f in divisors)


def test_returned_coefficients_are_fractions():
    rng = random.Random(20261021)

    def all_fractions(w):
        return all(type(c) is Fraction for c in w.terms.values())

    for _ in range(100):
        n = rng.randint(1, 3)
        a, b = random_monomial(rng, n), random_monomial(rng, n)
        w_a, w_b = WeylElement.from_term(n, a), WeylElement.from_term(n, b)
        assert all_fractions(w_a * w_b)
        # integer-valued coefficients, so an int could slip through
        u = WeylElement(n, {m: c.numerator for m, c in random_element(rng, n).terms.items()})
        v = WeylElement(n, {m: c.numerator for m, c in random_element(rng, n).terms.items()})
        ordering = random_ordering(rng, n)
        assert all_fractions(s_pair(u, v, ordering))
        for w in (u * v + v, WeylElement.zero(n)):
            result = divide(w, [WeylElement.zero(n), v, 3 * u], ordering)
            assert all(all_fractions(q) for q in result.quotients)
            assert all_fractions(result.remainder)
    # completion builds its elements from int remainders, and reduce_basis
    # keeps monic elements as they are
    for k in range(60):
        n = 1 + k % 3
        gens = [random_element(rng, n, max_degree=2, max_terms=3) for _ in range(2)]
        gens = [WeylElement(n, {m: c.numerator for m, c in g.terms.items()}) for g in gens]
        ordering = random_ordering(rng, n)
        raw = buchberger(gens, ordering)
        for basis in (raw, reduce_basis(raw)):
            assert all(all_fractions(e) for e in basis.elements)


def test_monic_returns_w_exactly_when_monic():
    rng = random.Random(20261027)
    kept = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        w = random_element(rng, n)
        if rng.random() < 0.5:
            w = w * (1 / leading_term(w, ordering).coefficient)
        lc = leading_term(w, ordering).coefficient
        out = monic(w, ordering)
        assert (out is w) == (lc == 1)
        assert out == w * (1 / lc)
        assert leading_term(out, ordering) == (leading_term(w, ordering).monomial, 1)
        kept += out is w
    assert 50 <= kept <= 150, kept
    assert monic(W1.zero(), LEX) == W1.zero()


_NON_NORMAL_DIVISION = """
from weylgb import Monomial, WeylAlgebra, divide
from weylgb.division import DivisionInvariantError

ONE, D, X = Monomial((0,), (0,)), Monomial((0,), (1,)), Monomial((1,), (0,))
XX, XD = Monomial((2,), (0,)), Monomial((1,), (1,))


class TableOrdering:
    # 1 < d < x < x^2 < x*d: total, but not translation-compatible
    rank = {ONE: 0, D: 1, X: 2, XX: 3, XD: 4}

    def sort_key(self, mono):
        return self.rank[mono]


W = WeylAlgebra(1)
x, d = W.xi(1), W.d(1)
try:
    divide(x * x, [x - d], TableOrdering())
except DivisionInvariantError as exc:
    print("raised:", exc)
else:
    raise SystemExit("x^2 - x*(x - d) = x*d rose above x^2 unnoticed")
"""


class _TableOrdering:
    """A total order on finitely many monomials, listed smallest first.  It
    is not translation-compatible, so division under it must fail."""

    def __init__(self, *chain):
        self.rank = {m: r for r, m in enumerate(chain)}

    def sort_key(self, mono):
        return self.rank[mono]


_UNIT, _D, _X = Monomial((0,), (0,)), Monomial((0,), (1,)), Monomial((1,), (0,))
_XX, _XD, _XDD = Monomial((2,), (0,)), Monomial((1,), (1,)), Monomial((1,), (2,))


@pytest.mark.parametrize(
    "w, divisor, ordering",
    [
        # x^2 - x*(x - d) = x*d rises above x^2
        (W1.xi(1) ** 2, W1.xi(1) - W1.d(1), _TableOrdering(_UNIT, _D, _X, _XX, _XD)),
        # d - d*(2*x*d + 1) = -2*d - 2*x*d^2 leaves the leading term d in
        # place; with the x*d term first, d never cancels to zero on the way
        (W1.d(1), 2 * W1.xi(1) * W1.d(1) + W1.one(), _TableOrdering(_XDD, _XD, _D, _UNIT)),
    ],
)
def test_non_normal_ordering_fails_like_naive_division(w, divisor, ordering):
    failures = []
    for division in (divide, divide_naive):
        trace = []
        with pytest.raises(DivisionInvariantError) as excinfo:
            division(w, [divisor], ordering, trace=trace)
        failures.append((str(excinfo.value), trace))
    assert failures[0] == failures[1]


def test_divide_descent_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _NON_NORMAL_DIVISION],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("raised:")


def test_division_invariant_error_is_an_internal_error(monkeypatch, capsys):
    import weylgb.cli as cli

    def broken(*args, **kwargs):
        raise DivisionInvariantError("leading monomial did not drop")

    monkeypatch.setattr(cli, "divide", broken)
    assert cli.main(["div", "--n", "1", "x1*d1", "d1"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_divide_is_safe_to_share_across_threads():
    # threads dividing and taking leading terms of shared elements under
    # several orderings must each get what a fresh element gives
    rng = random.Random(20261023)
    n = 2
    orderings = [Ordering.lex(), Ordering.grlex(n)] + [
        Ordering.matrix([(1, k, 2, 0)]) for k in range(3)
    ]
    cases = []
    for _ in range(6):
        divisors = [
            _awkward_scalar(rng) * random_element(rng, n, max_degree=3, max_terms=3)
            for _ in range(2)
        ]
        w = random_element(rng, n) + random_element(rng, n, max_degree=2) * divisors[0]
        cases.append((w, divisors))
    expected = {
        (c, k): divide(fresh(w), [fresh(f) for f in fs], o)
        for c, (w, fs) in enumerate(cases)
        for k, o in enumerate(orderings)
    }
    failures = []

    def work(seed):
        order = random.Random(seed)
        for _ in range(40):
            c, k = order.randrange(len(cases)), order.randrange(len(orderings))
            w, divisors = cases[c]
            ordering = orderings[k]
            result = divide(w, divisors, ordering)
            if result != expected[c, k] or leading_term(w, ordering) != leading_term(
                fresh(w), ordering
            ):
                failures.append((c, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
