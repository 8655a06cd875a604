import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylgb import (
    CounterexampleOrdering,
    Infeasible,
    Monomial,
    Ordering,
    Restriction,
    SaturationLimitExceeded,
    SupportCapExceeded,
    UniversalCertificate,
    WeightWitness,
    WeylAlgebra,
    certificate_json,
    certificate_text,
    certify_universal,
    combined_support,
    enumerate_restrictions,
    is_groebner,
    leading_term,
    monomials_up_to_degree,
    parse_element,
    realize_restriction,
    universal_groebner,
)
from weylgb import universal
from weylgb.groebner import buchberger, reduce_basis
from weylgb.universal import _below_row
from conftest import random_element, random_monomial, random_weight_row
from oracles import commutative_buchberger, enumerate_restrictions_naive, to_commutative


W1 = WeylAlgebra(1)
W2 = WeylAlgebra(2)
X1 = Monomial((1,), (0,))
D1 = Monomial((0,), (1,))
ONE = Monomial((0,), (0,))


def test_realize_weight_separated_pair():
    witness = realize_restriction(Restriction((X1, D1)))
    assert isinstance(witness, WeightWitness)
    diff = sum(w * (b - a) for w, a, b in zip(witness.weights, X1.vector, D1.vector))
    assert diff > 0


def test_realize_below_one_is_infeasible():
    outcome = realize_restriction(Restriction((D1, ONE)))
    assert isinstance(outcome, Infeasible)
    assert outcome.verify()


def test_realize_translation_conflict_is_infeasible():
    # x1 < d1 forces x1^2 < x1*d1; a chain demanding the opposite has a
    # nonnegative combination of its constraints summing to 0 >= positive
    chain = Restriction((X1, D1, Monomial((1,), (1,)), Monomial((2,), (0,))))
    outcome = realize_restriction(chain)
    assert isinstance(outcome, Infeasible)
    assert outcome.verify()


@pytest.mark.parametrize(
    "weights",
    [
        (Fraction(1), Fraction(0)),  # puts x1 above d1
        (Fraction(-1), Fraction(0)),  # orders the chain, but is negative
    ],
)
def test_bad_witness_is_a_solver_bug(monkeypatch, weights):
    monkeypatch.setattr(universal, "solve_inequalities", lambda rows, num_vars: weights)
    universal._realize_cached.cache_clear()
    try:
        with pytest.raises(AssertionError, match="solver bug"):
            realize_restriction(Restriction((X1, D1)))
    finally:
        universal._realize_cached.cache_clear()


_BAD_WITNESS = """
from fractions import Fraction
from weylgb import Monomial, Restriction, realize_restriction, universal

universal.solve_inequalities = lambda rows, num_vars: (Fraction(1), Fraction(0))
try:
    realize_restriction(Restriction((Monomial((1,), (0,)), Monomial((0,), (1,)))))
except AssertionError as exc:
    print("raised:", exc)
"""


def test_witness_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_WITNESS],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("raised:")


def test_witnesses_reproduce_their_restriction(rng):
    for _ in range(60):
        n = rng.randint(1, 2)
        monos = []
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, n, max_degree=3)
            if m not in monos:
                monos.append(m)
        restriction = Restriction(tuple(monos))
        outcome = realize_restriction(restriction)
        if isinstance(outcome, Infeasible):
            assert outcome.verify()
            continue
        ordering = outcome.ordering()
        for a, b in itertools.combinations(restriction.monomials, 2):
            assert ordering.compare(a, b) == -1


def test_restriction_requires_distinct_monomials():
    with pytest.raises(ValueError):
        Restriction((X1, X1))


def test_enumerate_two_incomparable():
    found = enumerate_restrictions([X1, D1])
    chains = [r.monomials for r, _ in found]
    assert chains == [(D1, X1), (X1, D1)]


def test_enumerate_unit_is_forced_low():
    found = enumerate_restrictions([ONE, X1])
    assert [r.monomials for r, _ in found] == [(ONE, X1)]


def test_enumerate_powers_are_forced():
    x_squared = Monomial((2,), (0,))
    found = enumerate_restrictions([X1, x_squared])
    assert [r.monomials for r, _ in found] == [(X1, x_squared)]


def test_enumerate_pruned_equals_naive(rng):
    pool = [m for m in _degree_pool(2, 3)]
    for _ in range(8):
        size = rng.randint(1, 5)
        support = rng.sample(pool, size)
        pruned = enumerate_restrictions(support)
        naive = enumerate_restrictions_naive(support)
        assert [r.monomials for r, _ in pruned] == [r.monomials for r, _ in naive]
        assert [w for _, w in pruned] == [w for _, w in naive]


def _degree_pool(n, max_degree):
    from weylgb import monomials_up_to_degree

    return monomials_up_to_degree(n, max_degree)


def _seeded_support(n, k):
    pool = monomials_up_to_degree(n, 4 if n == 1 else 2)  # 15 monomials
    return random.Random(100 * n + k).sample(pool, k)


@pytest.mark.parametrize(
    "n, k, cones, feasible, solves",
    [
        (1, 9, 6, 35, 60),
        (1, 10, 8, 58, 130),
        (2, 7, 52, 108, 124),
        (2, 8, 116, 286, 418),
    ],
)
def test_enumeration_work_is_output_sensitive(monkeypatch, n, k, cones, feasible, solves):
    # every kept prefix extends to a cone and the last prefix's solve is the
    # cone's, so feasible solves are at most (k - 1) per cone; a search that
    # checks each prefix only against itself takes 6,700, 22,246, 2,027 and
    # 8,840 solves on these supports
    real = universal.solve_inequalities
    outcomes = []

    def counting(rows, num_vars):
        out = real(rows, num_vars)
        outcomes.append(isinstance(out, Infeasible))
        return out

    monkeypatch.setattr(universal, "solve_inequalities", counting)
    universal._realize_cached.cache_clear()
    found = enumerate_restrictions(_seeded_support(n, k), max_support=10)
    assert len(found) == cones
    assert outcomes.count(False) <= (k - 1) * len(found)
    assert len(outcomes) <= k * (k - 1) * len(found)
    assert (outcomes.count(False), len(outcomes)) == (feasible, solves)


def test_enumerate_respects_cap():
    support = _degree_pool(1, 3)  # 10 monomials
    with pytest.raises(SupportCapExceeded):
        enumerate_restrictions(support)
    with pytest.raises(SupportCapExceeded):
        enumerate_restrictions(support[:4], max_support=3)


@pytest.mark.parametrize(
    "n, texts",
    [
        (2, ("x1+d2", "x2+d1")),
        (2, ("x1^2-x2", "x1*x2-1", "x2^2-x1")),
        (2, ("x1^3-1", "x2^3-1", "x1^2-x2", "x1*x2-1", "x2^2-x1")),  # ugb of x1^2-x2, x1*x2-1
    ],
)
def test_verdict_depends_only_on_marking(monkeypatch, n, texts):
    elements = [parse_element(t, n) for t in texts]
    support = combined_support(elements)
    cones = []
    by_marking = {}
    for restriction, witness in enumerate_restrictions(support):
        ordering = witness.ordering()
        marking = tuple(leading_term(e, ordering).monomial for e in elements)
        verdict = is_groebner(elements, ordering)  # uncached, once per cone
        assert by_marking.setdefault(marking, verdict) == verdict
        cones.append((restriction, witness, marking, verdict))
    assert len(by_marking) < len(cones)

    calls = []

    def counting(elems, ordering):
        calls.append(ordering)
        return is_groebner(elems, ordering)

    monkeypatch.setattr(universal, "is_groebner", counting)
    outcome = certify_universal(elements)
    failures = [i for i, cone in enumerate(cones) if not cone[3]]
    if failures:
        first = cones[failures[0]]
        assert isinstance(outcome, CounterexampleOrdering)
        assert (outcome.restriction, outcome.witness) == first[:2]
        seen = cones[: failures[0] + 1]
    else:
        assert isinstance(outcome, UniversalCertificate)
        assert len(outcome.cones) == len(cones)
        seen = cones
    assert len(calls) == len({cone[2] for cone in seen})


def test_certify_binomial_basis():
    cert = certify_universal([W1.xi(1) + W1.d(1)])
    assert isinstance(cert, UniversalCertificate)
    assert len(cert.cones) == 2
    assert all(c.verdict == "passed" for c in cert.cones)
    assert cert.support == (D1, X1)


def test_certify_single_monomial_basis():
    cert = certify_universal([W1.xi(1) * W1.d(1)])
    assert isinstance(cert, UniversalCertificate)
    assert len(cert.cones) == 1


def test_certify_validates_input():
    with pytest.raises(ValueError):
        certify_universal([])
    with pytest.raises(ValueError):
        certify_universal([W1.zero()])


def test_universal_binomial():
    cert = universal_groebner([W1.xi(1) + W1.d(1)])
    assert [str(e) for e in cert.basis] == ["x1 + d1"]
    assert len(cert.cones) == 2


def test_universal_whole_algebra():
    cert = universal_groebner([W1.xi(1), W1.d(1)])
    assert list(cert.basis) == [W1.one()]
    assert len(cert.cones) == 1


def test_universal_certificates_are_byte_stable():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    text1 = certificate_text(universal_groebner(gens))
    text2 = certificate_text(universal_groebner(gens))
    assert text1 == text2
    assert certificate_json(universal_groebner(gens)) == certificate_json(
        universal_groebner(gens)
    )


def _scale_on_top_term(p):
    # normalize on the graded-lex-greatest term so that reduced bases
    # computed under different orderings become comparable as sets
    top = max(p.terms, key=Monomial.sort_key)
    return p * (1 / p.terms[top])


def test_universal_x_only_covers_weight_sampled_commutative_bases():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    cert = universal_groebner(gens)
    basis_images = {_scale_on_top_term(to_commutative(e)) for e in cert.basis}
    rng = random.Random(90)
    seen = set()
    for _ in range(200):
        row = random_weight_row(rng, 2)
        ordering = Ordering.matrix([row])
        oracle = commutative_buchberger([to_commutative(g) for g in gens], ordering)
        seen.update(_scale_on_top_term(p) for p in oracle)
    assert seen <= basis_images
    assert len(seen) >= 4  # the sampling really does see several distinct cones


def test_universal_soundness_spot_check(rng):
    cert = universal_groebner([W1.xi(1) + W1.d(1)])
    for _ in range(30):
        rows = [random_weight_row(rng, 1) for _ in range(rng.randint(1, 2))]
        assert is_groebner(list(cert.basis), Ordering.matrix(rows))


def test_saturation_grows_strictly_until_certified():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    basis = list(reduce_basis(buchberger(gens, Ordering.grlex(2))).elements)
    sizes = [len(basis)]
    for _ in range(10):
        outcome = certify_universal(basis)
        if isinstance(outcome, UniversalCertificate):
            break
        fix = reduce_basis(buchberger(gens, outcome.ordering()))
        added = [e for e in fix.elements if e not in basis]
        assert added, "counterexample round must contribute new elements"
        basis.extend(added)
        sizes.append(len(basis))
    else:
        pytest.fail("saturation did not stabilize in 10 rounds")
    assert sizes == sorted(set(sizes))
    assert len(sizes) >= 2  # this ideal genuinely needs more than one round


def test_saturation_limit_is_a_refusal_with_partial_basis():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    with pytest.raises(SaturationLimitExceeded) as info:
        universal_groebner(gens, max_rounds=1)
    assert info.value.rounds == 1
    assert [str(e) for e in info.value.partial_basis] == [
        "x2^3 - 1",
        "x1^2 - x2",
        "x1*x2 - 1",
        "x2^2 - x1",
    ]
    assert "after 1 rounds" in str(info.value)


def test_universal_rejects_zero_ideal():
    with pytest.raises(ValueError):
        universal_groebner([W1.zero()])


def test_certificate_text_layout():
    cert = universal_groebner([W1.xi(1) + W1.d(1)])
    assert certificate_text(cert) == (
        "universal groebner certificate\n"
        "dimension: 1\n"
        "certified family: nonnegative weight row + lex tie-break\n"
        "coverage: every normal ordering whose restriction to the support\n"
        "  is realized by the family above is covered by the transfer principle\n"
        "basis (1):\n"
        "  x1 + d1\n"
        "support (2): d1, x1\n"
        "cones (2):\n"
        "  cone 1: d1 < x1 | weights 0 0 | passed\n"
        "  cone 2: x1 < d1 | weights 0 1 | passed\n"
    )


def test_strictness_slack_encoding():
    # lex-agreeing adjacent pairs relax to >= 0, disagreeing ones demand >= 1
    assert _below_row(D1, X1) == ((Fraction(1), Fraction(-1)), Fraction(0))
    assert _below_row(X1, D1) == ((Fraction(-1), Fraction(1)), Fraction(1))
