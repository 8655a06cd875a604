import dataclasses
import math
import os
import random
import subprocess
import sys
from collections import Counter
from copy import copy as shallow_copy
from fractions import Fraction
from pathlib import Path

import pytest

from weylgb import (
    GroebnerBasis,
    Monomial,
    Ordering,
    SupportCapExceeded,
    WeylAlgebra,
    WeylElement,
    agree_on,
    buchberger,
    certify_universal,
    divide,
    ideal_member,
    is_groebner,
    leading_term,
    parse_element,
    parse_ordering,
    reduce_basis,
    universal_groebner,
)
from weylgb.division import _entry, _int_form, monic
from weylgb.groebner import s_pair
from weylgb.weyl import combined_support
from conftest import (
    agreeing_ordering,
    fresh,
    random_coefficient,
    random_element,
    random_ordering,
    random_weight_row,
)
from oracles import (
    buchberger_naive,
    commutative_buchberger,
    is_groebner_naive,
    poly_s_polynomial,
    reduce_basis_naive,
    s_pair_naive,
    to_commutative,
)


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)
LEX = Ordering.lex()

# every API that takes a list of elements, each given the whole list
ELEMENT_LIST_APIS = (
    lambda elements: divide(elements[0], elements[1:], Ordering.grlex(1)),
    lambda elements: s_pair(*elements, LEX),
    lambda elements: buchberger(elements, Ordering.grlex(1)),
    lambda elements: is_groebner(elements, Ordering.grlex(1)),
    certify_universal,
    universal_groebner,
)


def test_s_pair_of_generators_is_one():
    assert s_pair(W1.xi(1), W1.d(1), LEX) == W1.one()


def test_s_pair_with_self_vanishes(rng):
    for _ in range(20):
        u = random_element(rng, 2)
        assert not s_pair(u, u, Ordering.grlex(2))


def test_s_pair_zero_input_rejected():
    with pytest.raises(ValueError):
        s_pair(W1.zero(), W1.xi(1), LEX)


def test_s_pair_x_only_matches_commutative():
    u = W2.xi(1) ** 2
    v = W2.xi(1) * W2.xi(2)
    s = s_pair(u, v, LEX)
    assert not s
    assert to_commutative(s) == poly_s_polynomial(
        to_commutative(u), to_commutative(v), LEX
    )


def test_s_pair_leading_terms_cancel(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        u = random_element(rng, n)
        v = random_element(rng, n)
        s = s_pair(u, v, ordering)
        lcm = leading_term(u, ordering).monomial.lcm(leading_term(v, ordering).monomial)
        if s:
            assert ordering.compare(leading_term(s, ordering).monomial, lcm) == -1


def test_s_pair_matches_naive_s_pair():
    # the two cofactor products share one dict, so the leading terms and any
    # other coinciding terms cancel and are deleted in place; s_pair reads
    # each element as (a / b) * F with F of int coefficients and content 1,
    # so scaled elements, with negative and non-unit leading coefficients and
    # a common denominator or content other than 1, are counted
    rng = random.Random(20261018)
    cases = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        u = random_element(rng, n, max_degree=3)
        v = random_element(rng, n, max_degree=3)
        if rng.random() < 0.3:
            v = v + u  # shares terms with u beyond the leading one
        if not v:
            continue
        if rng.random() < 0.5:
            u = u * Fraction(rng.choice([-6, -3, -2, 2, 4, 9]), rng.choice([1, 5, 7]))
        for w in (u, v):
            lc = leading_term(w, ordering).coefficient
            cases["negative non-unit leading coefficient"] += lc < 0 and lc != -1
            coeffs = w.terms.values()
            scale = Fraction(
                math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs))
            )
            cases["content or denominator other than 1"] += scale != 1
            cases["integral with content 1"] += scale == 1
        assert s_pair(u, v, ordering) == s_pair_naive(u, v, ordering)
    assert min(cases.values()) >= 100, cases


def test_buchberger_whole_algebra():
    basis = reduce_basis(buchberger([W1.xi(1), W1.d(1)], LEX))
    assert list(basis.elements) == [W1.one()]


def test_buchberger_principal():
    for ordering in (LEX, Ordering.grlex(1), Ordering.matrix([(0, 1)])):
        basis = reduce_basis(buchberger([W1.d(1)], ordering))
        assert list(basis.elements) == [W1.d(1)]


def test_buchberger_empty_for_zero_ideal():
    basis = buchberger([W1.zero()], LEX)
    assert basis.elements == ()
    assert is_groebner(basis.elements, LEX)


def test_buchberger_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension mismatch"):
        buchberger([W1.d(1), W2.xi(2) + W2.d(1)], LEX)
    # under a weight ordering the dimensions are compared before the second
    # generator is read under the first one's width; a zero is compared too
    for gens in ([W1.d(1), W2.xi(2)], [W1.d(1), WeylElement.zero(2)]):
        for api in ELEMENT_LIST_APIS:
            with pytest.raises(ValueError, match="^dimension mismatch: 1 vs 2$"):
                api(gens)


def test_element_lists_refuse_a_non_element_first():
    mono = Monomial((1,), (0,))
    for api in ELEMENT_LIST_APIS:
        with pytest.raises(TypeError, match="^expected WeylElement, got Monomial$"):
            api([mono, W1.d(1)])
    with pytest.raises(TypeError, match="^expected WeylElement, got Monomial$"):
        ideal_member(mono, buchberger([W1.d(1)], LEX))


def test_buchberger_x_only_matches_commutative_oracle():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    basis = reduce_basis(buchberger(gens, LEX))
    oracle = commutative_buchberger([to_commutative(g) for g in gens], LEX)
    assert [to_commutative(e) for e in basis.elements] == oracle


def test_all_s_pairs_of_output_reduce_to_zero():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(1, 2)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        ordering = random_ordering(rng, n)
        basis = buchberger(gens, ordering)
        assert is_groebner(basis.elements, ordering)
        assert is_groebner(reduce_basis(basis).elements, ordering)


def test_leading_terms_of_ideal_elements_are_covered():
    # the definitional property, probed with random combinations: every
    # nonzero sum of left multiples of the generators has its leading
    # monomial divisible by some basis leading monomial
    rng = random.Random(78)
    for _ in range(25):
        n = rng.randint(1, 2)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        ordering = random_ordering(rng, n)
        basis = reduce_basis(buchberger(gens, ordering))
        lts = [leading_term(b, ordering).monomial for b in basis.elements]
        for _ in range(10):
            w = WeylAlgebra(n).zero()
            for g in gens:
                w = w + random_element(rng, n, max_degree=2, max_terms=2, allow_zero=True) * g
            if w:
                lt_w = leading_term(w, ordering).monomial
                assert any(lt.divides(lt_w) for lt in lts)
            assert ideal_member(w, basis)


def test_buchberger_matches_naive_completion(monkeypatch):
    # Degree <= 2, at most 3 terms and at most 3 generators keep every
    # naive completion small (the largest reduces 55 S-pairs), so no case
    # needs to be skipped.  The naive loop reduces every pair of the raw
    # basis it returns; the signature loop reduces no more than that.
    import weylgb.groebner as groebner

    count = [0]
    original = groebner.regular_remainder

    def counted_reduce(mono, f, divisors, signature, ordering, trace=None):
        count[0] += 1
        return original(mono, f, divisors, signature, ordering, trace)

    monkeypatch.setattr(groebner, "regular_remainder", counted_reduce)
    rng = random.Random(20261019)
    for _ in range(200):
        n = rng.randint(1, 2)
        ordering = random_ordering(rng, n)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        count[0] = 0
        raw = buchberger(gens, ordering)
        naive = buchberger_naive(gens, ordering)
        k = len(naive.elements)
        assert reduce_basis(raw).elements == reduce_basis(naive).elements
        assert count[0] <= k * (k - 1) // 2
        assert is_groebner(raw.elements, ordering)


# The five cheap ideals of the benchmark's gb workload (perfbench/corpus.py)
CORPUS_D_IDEALS = {
    "gkz3": (3, ("d1*d3-d2^2", "x1*d1+x2*d2+x3*d3-1/2", "x2*d2+2*x3*d3-1/3")),
    "airy": (2, ("d2-d1^2", "d1^2+2*x2*d1+x1")),
    "bessel": (2, ("d1^2+d2^2-1", "x1*d2-x2*d1")),
    "cusp": (2, ("d2-d1^2", "4*d1^3-2*x2*d1-x1")),
    "mix1": (2, ("x1*d1^2+x2*d2^2-1", "d1*d2-x1-x2")),
}


def _completion_cases(rng, count):
    """``count`` seeded random ideals at n = 1..3 under lex, grlex and one or
    two weight rows, then the corpus D-ideals under lex and grlex, as
    (generators, ordering) pairs."""
    cases = []
    for k in range(count):
        n = 1 + k % 3
        if k % 4 < 2:
            ordering = LEX if k % 4 == 0 else Ordering.grlex(n)
        else:
            ordering = Ordering.matrix([random_weight_row(rng, n) for _ in range(k % 4 - 1)])
        gens = [
            random_element(rng, n, max_degree=2 + k % 2, max_terms=2)
            for _ in range(rng.randint(1, 2 + k % 2))
        ]
        cases.append((gens, ordering))
    for n, texts in CORPUS_D_IDEALS.values():
        for order in ("lex", "grlex"):
            cases.append(([parse_element(t, n) for t in texts], parse_ordering(order, n)))
    return cases


def test_signature_completion_matches_naive(monkeypatch):
    # Seeded random ideals at n = 1..3 under lex, grlex and one or two
    # weight rows, and the corpus D-ideals under lex and grlex.  The raw
    # basis must pass the all-pairs test and reduce to the basis of the
    # completion that reduces every S-pair.  Both criteria must skip
    # J-pairs, and unit ideals (returned as (1,) at once) must occur.
    import weylgb.groebner as groebner

    skips = Counter()
    for name in ("_syzygy_divides", "_covered"):
        original = getattr(groebner, name)

        def counted(*args, original=original, name=name):
            skipped = original(*args)
            skips[name] += skipped
            return skipped

        monkeypatch.setattr(groebner, name, counted)
    shapes = Counter()
    for gens, ordering in _completion_cases(random.Random(20261021), 400):
        raw = buchberger(gens, ordering)
        naive = buchberger_naive(gens, ordering)
        assert reduce_basis(raw).elements == reduce_basis(naive).elements
        assert is_groebner_naive(raw.elements, ordering)
        unit = raw.elements == (WeylAlgebra(gens[0].n).one(),)
        shapes["unit" if unit else "proper"] += 1
    assert shapes["unit"] >= 150 and shapes["proper"] >= 150, shapes
    assert skips["_syzygy_divides"] >= 200 and skips["_covered"] >= 80, skips


def test_completion_elements_match_fresh_copies():
    # buchberger's elements are made monic from int remainders, whose int
    # form the completion keeps in its divisor entries for its own divisions;
    # each element must equal a fresh copy, with Fraction coefficients and an
    # int form and entry equal to the copy's, or every later division by it
    # goes wrong
    for gens, ordering in _completion_cases(random.Random(20261024), 400):
        for e in buchberger(gens, ordering).elements:
            lead = leading_term(e, ordering)
            copy = fresh(e)
            assert e == copy
            assert lead == leading_term(copy, ordering)
            assert type(lead.coefficient) is Fraction and lead.coefficient == 1
            form = _prepared(e, ordering)
            assert form == _prepared(copy, ordering)
            (a, b, _), (_, lc, f_ints, _, _) = form
            assert all(type(c) is int for c in (lc, a, b, *f_ints.values()))
            assert all(type(c) is Fraction for c in e.terms.values())


def _prepared(e, ordering):
    """The int form of e and its divisor entry under the ordering."""
    form = _int_form(e)
    return form, _entry(form[2], leading_term(e, ordering).monomial)


def _slots(value):
    """Each slot of a value with the object it holds and a copy of it."""
    names = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    return {name: (getattr(value, name), shallow_copy(getattr(value, name))) for name in names}


def test_values_keep_no_state_from_a_call():
    # every call reads elements and leaves each slot holding the same
    # object with an equal value: nothing a call computes, such as a leading
    # term, an int form or a divisor entry, is kept on an element for a
    # later call
    rng = random.Random(20261025)
    certified = 0
    for _ in range(30):
        n = rng.randint(1, 2)
        ordering = random_ordering(rng, n)
        gens = [random_element(rng, n, max_degree=2, max_terms=2) for _ in range(2)]
        extra = [random_element(rng, n) for _ in range(3)]
        before = {id(v): (v, _slots(v)) for v in gens + extra}
        raw = buchberger(gens, ordering)
        before.update((id(e), (e, _slots(e))) for e in raw.elements)
        for v, _ in before.values():
            leading_term(v, ordering)
            monic(v, ordering)
            divide(v, list(raw.elements), ordering)
        buchberger(gens, ordering)
        reduced = reduce_basis(raw)
        is_groebner(raw.elements, ordering)
        try:
            certify_universal(reduced.elements + raw.elements)
            certified += 1
        except SupportCapExceeded:
            pass
        for v, slots in before.values():
            for name, (obj, value) in slots.items():
                assert getattr(v, name) is obj and obj == value, (v, name)
    assert certified >= 15, certified


def test_reduce_basis_matches_dividing_every_element(monkeypatch):
    # reduce_basis divides only the elements with a term another kept
    # leading monomial divides, and keeps monic ones as they are; the twin
    # scales and divides every element.  Inputs: the raw bases of both
    # completions (the naive one is not inter-reduced), the generators
    # themselves, and the reduced basis tangled: each element scaled, most
    # of the time, and with a smaller one added in, so that its tail is
    # reducible.  The twin gets fresh copies, so state kept on an element
    # cannot fool both.
    import weylgb.groebner as groebner

    calls = Counter()
    original = groebner.divide

    def counted(*args, **kwargs):
        calls["divided"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "divide", counted)
    rng = random.Random(20261026)
    for gens, ordering in _completion_cases(random.Random(20261025), 300):
        raw = buchberger(gens, ordering)
        reduced = reduce_basis(raw).elements
        tangled = []
        for e in reduced:
            key = ordering.sort_key(leading_term(e, ordering).monomial)
            below = [
                f for f in reduced if ordering.sort_key(leading_term(f, ordering).monomial) < key
            ]
            if below:
                e = e + random_coefficient(rng) * rng.choice(below)
            tangled.append(e if rng.random() < 0.3 else random_coefficient(rng) * e)
        inputs = [raw, buchberger_naive(gens, ordering), GroebnerBasis(tuple(gens), ordering, ())]
        inputs.append(GroebnerBasis(tuple(tangled), ordering, ()))
        for basis in inputs:
            twin = GroebnerBasis(tuple(fresh(e) for e in basis.elements), ordering, ())
            expected = reduce_basis_naive(twin)
            before = calls["divided"]
            got = reduce_basis(basis).elements
            assert got == expected
            assert [repr(e) for e in got] == [repr(e) for e in expected]
            calls["kept"] += len(got) - (calls["divided"] - before)
        assert reduce_basis(inputs[-1]).elements == reduced
    assert calls["divided"] >= 150 and calls["kept"] >= 1000, calls


_REDUCED_CORPUS = """
from weylgb import buchberger, parse_element, parse_ordering, reduce_basis
from weylgb.division import leading_term

for n, texts in {ideals!r}:
    for order in ("lex", "grlex"):
        ordering = parse_ordering(order, n)
        basis = reduce_basis(buchberger([parse_element(t, n) for t in texts], ordering))
        print(order, [(repr(e), leading_term(e, ordering)) for e in basis.elements])
"""


def test_reduce_basis_output_survives_optimize():
    # invariant checks raise rather than assert, so python -O must compute
    # the same reduced bases of the corpus D-ideals as a normal run
    script = _REDUCED_CORPUS.format(ideals=list(CORPUS_D_IDEALS.values()))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outputs = []
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 2 * len(CORPUS_D_IDEALS)


def test_reduce_basis_examples():
    one, x, d = W1.one(), W1.xi(1), W1.d(1)
    reduced = reduce_basis(buchberger([one, x], LEX))
    assert list(reduced.elements) == [one]
    reduced = reduce_basis(buchberger([d, 2 * d], LEX))
    assert list(reduced.elements) == [d]


def test_reduce_basis_idempotent(rng):
    for _ in range(15):
        n = rng.randint(1, 2)
        gens = [random_element(rng, n, max_degree=2, max_terms=2) for _ in range(2)]
        ordering = random_ordering(rng, n)
        reduced = reduce_basis(buchberger(gens, ordering))
        assert reduce_basis(reduced).elements == reduced.elements


def test_reduce_basis_fully_reduced(rng):
    for _ in range(15):
        n = rng.randint(1, 2)
        gens = [random_element(rng, n, max_degree=2, max_terms=2) for _ in range(2)]
        ordering = random_ordering(rng, n)
        reduced = reduce_basis(buchberger(gens, ordering))
        lts = [leading_term(e, ordering) for e in reduced.elements]
        assert all(lt.coefficient == 1 for lt in lts)
        for i, e in enumerate(reduced.elements):
            for j, lt in enumerate(lts):
                if i != j:
                    assert not any(lt.monomial.divides(s) for s in e.terms)


def test_is_groebner_examples():
    assert is_groebner([W1.d(1)], LEX)
    assert not is_groebner([W1.xi(1), W1.d(1)], LEX)
    assert is_groebner([], LEX)
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_groebner([W1.xi(1), W2.xi(1)], LEX)


_NON_NORMAL_VERDICT = """
from weylgb import Monomial, WeylAlgebra, is_groebner
from weylgb.division import DivisionInvariantError

ONE, D, X = Monomial((0,), (0,)), Monomial((0,), (1,)), Monomial((1,), (0,))
XX, XD, DD = Monomial((2,), (0,)), Monomial((1,), (1,)), Monomial((0,), (2,))


class TableOrdering:
    # 1 < d < x < x^2 < x*d < d^2: total, but not translation-compatible
    rank = {ONE: 0, D: 1, X: 2, XX: 3, XD: 4, DD: 5}

    def sort_key(self, mono):
        return self.rank[mono]


W = WeylAlgebra(1)
x, d = W.xi(1), W.d(1)
try:
    # the S-pair x * (x - d) - x^2 = -x*d reduces by x - d to 1 - d^2
    is_groebner([x - d, x * x], TableOrdering())
except DivisionInvariantError as exc:
    print("raised:", exc)
else:
    raise SystemExit("-x*d + d * (x - d) = 1 - d^2 rose above x*d unnoticed")
"""


def test_verdict_descent_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _NON_NORMAL_VERDICT],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("raised:")


def test_is_groebner_matches_naive_test():
    # Same bounds as the completion test above, with n up to 3.  Each
    # completion gives several inputs: the generators; the raw and reduced
    # bases, whole and with each element dropped in turn; the raw basis
    # padded with a duplicate, a scalar multiple and a zero; both bases
    # under another ordering.
    rng = random.Random(20261020)
    verdicts = []
    for _ in range(200):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=3)
            for _ in range(rng.randint(1, 3))
        ]
        completed = buchberger(gens, ordering)
        raw = list(completed.elements)
        reduced = list(reduce_basis(completed).elements)
        cases = [(gens, ordering), (raw, ordering), (reduced, ordering)]
        for basis in (raw, reduced):
            for k in range(len(basis)):
                cases.append((basis[:k] + basis[k + 1 :], ordering))
        padded = raw + [
            rng.choice(raw),
            random_coefficient(rng) * rng.choice(raw),
            WeylAlgebra(n).zero(),
        ]
        rng.shuffle(padded)
        cases.append((padded, ordering))
        cases.append((raw, random_ordering(rng, n)))
        cases.append((reduced, random_ordering(rng, n)))
        for elements, order in cases:
            expected = is_groebner_naive(elements, order)
            assert is_groebner(elements, order) == expected
            verdicts.append(expected)
    assert len(verdicts) >= 1000
    assert verdicts.count(False) >= 100


def test_groebner_basis_is_immutable():
    basis = buchberger([W1.d(1)], LEX)
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.elements = ()
    assert basis.elements == (W1.d(1),)


def test_restriction_stable_examples():
    assert agree_on(LEX, Ordering.matrix([(3, 0)]), combined_support([W1.d(1)]))
    b = [W1.xi(1) + W1.d(1)]
    assert not agree_on(LEX, Ordering.matrix([(0, 1)]), combined_support(b))
    assert agree_on(LEX, Ordering.matrix([(2, 1)]), combined_support(b))
    assert is_groebner(b, LEX) and is_groebner(b, Ordering.matrix([(2, 1)]))


def test_groebner_property_transfers_under_agreement():
    rng = random.Random(79)
    for _ in range(40):
        n = rng.randint(1, 2)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        ord1 = random_ordering(rng, n)
        basis = reduce_basis(buchberger(gens, ord1))
        if not basis.elements:
            continue
        ord2 = agreeing_ordering(rng, basis.elements, ord1)
        assert agree_on(ord1, ord2, combined_support(basis.elements))
        assert is_groebner(basis.elements, ord2)


def test_union_with_ideal_elements_stays_groebner():
    rng = random.Random(80)
    for _ in range(15):
        n = rng.randint(1, 2)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        ordering = random_ordering(rng, n)
        basis = reduce_basis(buchberger(gens, ordering))
        extras = []
        for _ in range(2):
            w = WeylAlgebra(n).zero()
            for g in gens:
                w = w + random_element(rng, n, max_degree=2, max_terms=2, allow_zero=True) * g
            extras.append(w)
        assert is_groebner(list(basis.elements) + extras, ordering)


def test_ideal_member_examples():
    whole = reduce_basis(buchberger([W1.xi(1), W1.d(1)], LEX))
    assert ideal_member(W1.xi(1) * W1.d(1) + W1.one(), whole)
    principal = reduce_basis(buchberger([W1.d(1)], LEX))
    assert not ideal_member(W1.one(), principal)
    assert ideal_member(W1.zero(), principal)


def test_basis_records_inputs_and_ordering():
    gens = [W1.xi(1), W1.d(1)]
    basis = buchberger(gens, LEX)
    assert basis.generators == tuple(gens)
    assert basis.ordering == LEX
    assert len(reduce_basis(basis)) == 1


# Five ideals of the benchmark's gb workload (perfbench/corpus.py), with the
# operation counts of reduce_basis(buchberger(...)); a change in any of them
# is a change in the algorithm, not in its speed.  The completion counts are
# those of buchberger's signature loop: regular reductions (J-pairs, and
# inputs a regular divisor reduces), how many of them reach zero, and their
# steps.  Reducing every S-pair, as oracles.buchberger_naive does, takes 15
# (gkz3) and 120 (mix1) S-pairs.  The division counts are reduce_basis's
# single tail-reduction pass, which divides only an element with a term that
# another kept leading monomial divides; they come out the same with
# groebner.divide replaced by oracles.divide_naive's rescan-and-copy loop, so
# they also check the heap kernel's steps.  mix2 under lex guards against a
# runaway: the Gebauer-Moeller completion it replaced reduced 294 S-pairs in
# about 8 s.
GB_OPERATION_COUNTS = {
    "gkz3@grlex": (
        3,
        ("d1*d3-d2^2", "x1*d1+x2*d2+x3*d3-1/2", "x2*d2+2*x3*d3-1/3"),
        "grlex",
        {
            "j_pairs_reduced": 7,
            "zero_reductions": 4,
            "regular_steps": 36,
            "division_calls": 1,
            "division_steps": 4,
        },
    ),
    "mix1@grlex": (
        2,
        ("x1*d1^2+x2*d2^2-1", "d1*d2-x1-x2"),
        "grlex",
        {
            "j_pairs_reduced": 13,
            "zero_reductions": 0,
            "regular_steps": 144,
            "division_calls": 0,
            "division_steps": 0,
        },
    ),
    "mix2@lex": (
        2,
        ("x1*d1^2+x2*d2^2-x1", "d1*d2-x1*x2-1"),
        "lex",
        {
            "j_pairs_reduced": 132,
            "zero_reductions": 1,
            "regular_steps": 3522,
            "division_calls": 0,
            "division_steps": 0,
        },
    ),
    "airy@lex": (
        2,
        ("d2-d1^2", "d1^2+2*x2*d1+x1"),
        "lex",
        {
            "j_pairs_reduced": 1,
            "zero_reductions": 1,
            "regular_steps": 4,
            "division_calls": 1,
            "division_steps": 4,
        },
    ),
    "bessel@grlex": (
        2,
        ("d1^2+d2^2-1", "x1*d2-x2*d1"),
        "grlex",
        {
            "j_pairs_reduced": 1,
            "zero_reductions": 1,
            "regular_steps": 4,
            "division_calls": 0,
            "division_steps": 0,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GB_OPERATION_COUNTS))
def test_gb_operation_counts_are_pinned(monkeypatch, name):
    import weylgb.groebner as groebner

    n, texts, order, expected = GB_OPERATION_COUNTS[name]
    counts = dict.fromkeys(expected, 0)
    original_divide, original_reduce = groebner.divide, groebner.regular_remainder

    def counted_divide(w, divisors, ordering, trace=None):
        steps = [] if trace is None else trace
        before = len(steps)
        out = original_divide(w, divisors, ordering, trace=steps)
        counts["division_calls"] += 1
        counts["division_steps"] += len(steps) - before
        return out

    def counted_reduce(mono, f, divisors, signature, ordering, trace=None):
        steps = [] if trace is None else trace
        before = len(steps)
        out = original_reduce(mono, f, divisors, signature, ordering, trace=steps)
        counts["j_pairs_reduced"] += 1
        counts["zero_reductions"] += not out
        counts["regular_steps"] += len(steps) - before
        return out

    monkeypatch.setattr(groebner, "divide", counted_divide)
    monkeypatch.setattr(groebner, "regular_remainder", counted_reduce)
    ordering = parse_ordering(order, n)
    raw = buchberger([parse_element(t, n) for t in texts], ordering)
    assert counts["division_calls"] == 0  # completion divides only regularly
    reduced = reduce_basis(raw)
    assert reduced.elements
    assert counts == expected
