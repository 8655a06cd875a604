import dataclasses
import random

import pytest

from weylgb import (
    Monomial,
    Ordering,
    WeylAlgebra,
    buchberger,
    combined_support,
    divide,
    ideal_member,
    is_groebner,
    leading_term,
    parse_element,
    parse_ordering,
    reduce_basis,
    restriction_stable,
    s_pair,
)
from conftest import (
    agreeing_ordering,
    random_coefficient,
    random_element,
    random_ordering,
)
from oracles import (
    buchberger_naive,
    commutative_buchberger,
    is_groebner_naive,
    poly_s_polynomial,
    s_pair_naive,
    to_commutative,
)


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)
LEX = Ordering.lex()


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
    # other coinciding terms cancel and are deleted in place
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        u = random_element(rng, n, max_degree=3)
        v = random_element(rng, n, max_degree=3)
        if rng.random() < 0.3:
            v = v + u  # shares terms with u beyond the leading one
        if not v:
            continue
        assert s_pair(u, v, ordering) == s_pair_naive(u, v, ordering)


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
    # basis it returns.
    import weylgb.groebner as groebner

    count = [0]
    original = groebner.s_pair

    def counted_s_pair(u, v, ordering):
        count[0] += 1
        return original(u, v, ordering)

    monkeypatch.setattr(groebner, "s_pair", counted_s_pair)
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
    assert restriction_stable([W1.d(1)], LEX, Ordering.matrix([(3, 0)]))
    b = [W1.xi(1) + W1.d(1)]
    assert not restriction_stable(b, LEX, Ordering.matrix([(0, 1)]))
    assert restriction_stable(b, LEX, Ordering.matrix([(2, 1)]))
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
        assert restriction_stable(basis.elements, ord1, ord2)
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


# Four ideals of the benchmark's gb workload (perfbench/corpus.py), with the
# operation counts of reduce_basis(buchberger(...)); a change in any of them
# is a change in the algorithm, not in its speed.  The S-pair and zero
# reduction counts are those of buchberger's own Gebauer-Moeller update, so
# they pin it against its own output only; reducing every pair, as
# oracles.buchberger_naive does, takes 15 (gkz3) and 120 (mix1) S-pairs.  The
# division counts, which include reduce_basis's single tail-reduction pass,
# come out the same with groebner.divide replaced by oracles.divide_naive's
# rescan-and-copy loop, so they also check the heap kernel's steps.
GB_OPERATION_COUNTS = {
    "gkz3@grlex": (
        3,
        ("d1*d3-d2^2", "x1*d1+x2*d2+x3*d3-1/2", "x2*d2+2*x3*d3-1/3"),
        "grlex",
        {"s_pairs": 10, "zero_reductions": 7, "division_calls": 16, "division_steps": 68},
    ),
    "mix1@grlex": (
        2,
        ("x1*d1^2+x2*d2^2-1", "d1*d2-x1-x2"),
        "grlex",
        {"s_pairs": 24, "zero_reductions": 10, "division_calls": 25, "division_steps": 140},
    ),
    "airy@lex": (
        2,
        ("d2-d1^2", "d1^2+2*x2*d1+x1"),
        "lex",
        {"s_pairs": 1, "zero_reductions": 1, "division_calls": 3, "division_steps": 9},
    ),
    "bessel@grlex": (
        2,
        ("d1^2+d2^2-1", "x1*d2-x2*d1"),
        "grlex",
        {"s_pairs": 1, "zero_reductions": 1, "division_calls": 3, "division_steps": 8},
    ),
}


@pytest.mark.parametrize("name", sorted(GB_OPERATION_COUNTS))
def test_gb_operation_counts_are_pinned(monkeypatch, name):
    import weylgb.groebner as groebner

    n, texts, order, expected = GB_OPERATION_COUNTS[name]
    counts = dict.fromkeys(expected, 0)
    phase = ["buchberger"]
    original_divide, original_s_pair = groebner.divide, groebner.s_pair

    def counted_divide(w, divisors, ordering, trace=None):
        steps = [] if trace is None else trace
        before = len(steps)
        out = original_divide(w, divisors, ordering, trace=steps)
        counts["division_calls"] += 1
        counts["division_steps"] += len(steps) - before
        if phase[0] == "buchberger" and not out.remainder:
            counts["zero_reductions"] += 1
        return out

    def counted_s_pair(u, v, ordering):
        counts["s_pairs"] += 1
        return original_s_pair(u, v, ordering)

    monkeypatch.setattr(groebner, "divide", counted_divide)
    monkeypatch.setattr(groebner, "s_pair", counted_s_pair)
    ordering = parse_ordering(order, n)
    raw = buchberger([parse_element(t, n) for t in texts], ordering)
    phase[0] = "reduce_basis"
    reduced = reduce_basis(raw)
    assert reduced.elements
    assert counts == expected
