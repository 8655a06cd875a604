"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import itertools
import random
import time
from fractions import Fraction

from weylgb import (
    Filtration,
    Monomial,
    Ordering,
    WeylAlgebra,
    agree_on,
    buchberger,
    certificate_text,
    divide,
    enumerate_restrictions,
    is_groebner,
    leading_term,
    ordering_distance,
    parse_element,
    reduce_basis,
    universal_groebner,
)
from weylgb import universal
from weylgb.division import check_division_contract
from weylgb.orderings import monomials_up_to_degree
from weylgb.weyl import combined_support, multiply_monomials
from conftest import (
    agreeing_ordering,
    random_element,
    random_ordering,
    random_weight_row,
)
from oracles import (
    brute_monomial_product,
    commutative_buchberger,
    enumerate_restrictions_naive,
    induced_ordering,
    to_commutative,
)


def _verdict(number, description, ok):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def _blocks(n, max_total):
    return [
        vec
        for deg in range(max_total + 1)
        for vec in _sum_to(deg, n)
    ]


def _sum_to(total, length):
    if length == 1:
        return [(total,)]
    return [
        (head,) + tail for head in range(total + 1) for tail in _sum_to(total - head, length - 1)
    ]


def test_criterion_01_product_matches_brute_force():
    # all interacting blocks |mu|, |rho| <= 4, crossed with outer exponents
    # |lambda|, |sigma| <= 2 (the outer blocks never take part in a swap,
    # they only translate the result)
    started = time.time()
    checked = 0
    for n in (1, 2):
        inner = _blocks(n, 4)
        outer = _blocks(n, 2)
        for la in outer:
            for mu in inner:
                a = Monomial(la, mu)
                for rho in inner:
                    for sigma in outer:
                        b = Monomial(rho, sigma)
                        assert dict(multiply_monomials(a, b)) == brute_monomial_product(a, b).terms
                        checked += 1
    elapsed = time.time() - started
    _verdict(
        1,
        f"product expansion vs single-swap rewriter on {checked} pairs "
        f"in {elapsed:.1f}s (< 10s)",
        elapsed < 10.0,
    )


def test_criterion_02_leading_term_lemma_suite():
    rng = random.Random(2026_02)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        u = random_element(rng, n, max_degree=4)
        v = random_element(rng, n, max_degree=4)
        lt_u = leading_term(u, ordering)
        lt_v = leading_term(v, ordering)
        product_top = lt_u.monomial * lt_v.monomial

        uv = u * v
        lt_uv = leading_term(uv, ordering)
        if lt_uv.monomial != product_top:
            failures += 1
        if lt_uv.coefficient != lt_u.coefficient * lt_v.coefficient:
            failures += 1

        total = u + v
        if total:
            lt_total = leading_term(total, ordering).monomial
            bigger = max(lt_u.monomial, lt_v.monomial, key=ordering.sort_key)
            if ordering.compare(lt_total, bigger) > 0:
                failures += 1
            if lt_u.monomial != lt_v.monomial and lt_total != bigger:
                failures += 1

        bracket = u.commutator(v)
        if bracket:
            lt_bracket = leading_term(bracket, ordering).monomial
            if ordering.compare(lt_bracket, product_top) != -1:
                failures += 1
    _verdict(2, "leading term lemma on 1000 random (u, v, ordering) triples", failures == 0)


def test_criterion_03_division_contract():
    started = time.time()
    rng = random.Random(2026_03)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        ordering = random_ordering(rng, n)
        w = random_element(rng, n, max_degree=4, allow_zero=True)
        divisors = [
            random_element(rng, n, max_degree=4, allow_zero=True)
            for _ in range(rng.randint(1, 3))
        ]
        result = divide(w, divisors, ordering)
        report = check_division_contract(w, divisors, ordering, result)
        if not report.reconstruction:
            failures += 1
        if not report.remainder_irreducible:
            failures += 1
        if not report.quotient_bound:
            failures += 1
    elapsed = time.time() - started
    _verdict(
        3,
        f"division contract (a)(b)(c) on 1000 random instances in {elapsed:.1f}s (< 30s)",
        failures == 0 and elapsed < 30.0,
    )


def test_criterion_04_noncommutativity_regression():
    W1 = WeylAlgebra(1)
    lex = Ordering.lex()
    weyl = reduce_basis(buchberger([W1.xi(1), W1.d(1)], lex))
    comm = commutative_buchberger(
        [to_commutative(W1.xi(1)), to_commutative(W1.d(1))], lex
    )
    ok = list(weyl.elements) == [W1.one()] and comm == [
        to_commutative(W1.xi(1)),
        to_commutative(W1.d(1)),
    ]
    _verdict(4, "{x1, d1} spans the Weyl algebra; {X1, Y1} stays a monomial ideal", ok)


def test_criterion_05_oracle_equivalence_x_only():
    rng = random.Random(2026_05)
    failures = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        algebra = WeylAlgebra(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            w = random_element(rng, n, max_degree=3, max_terms=3)
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
        if [to_commutative(e) for e in weyl_basis.elements] != oracle:
            failures += 1
    _verdict(5, "50 x-only ideals: Weyl and commutative reduced bases coincide", failures == 0)


def test_criterion_06_restriction_transfer():
    rng = random.Random(2026_06)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 2)
        gens = [
            random_element(rng, n, max_degree=2, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        ord1 = random_ordering(rng, n)
        basis = buchberger(gens, ord1)
        if not basis.elements:
            continue
        ord2 = agreeing_ordering(rng, basis.elements, ord1)
        assert agree_on(ord1, ord2, combined_support(basis.elements))
        if not is_groebner(basis.elements, ord2):
            failures += 1
    _verdict(6, "agreement on Supp(B) transfers the Groebner property, 200 cases", failures == 0)


def _suite_ideals():
    W1 = WeylAlgebra(1)
    named = [
        ("binomial", [W1.xi(1) + W1.d(1)]),
        ("monomial", [W1.xi(1) * W1.d(1)]),
        ("whole algebra", [W1.xi(1), W1.d(1)]),
    ]
    rng = random.Random(2026_07)
    randoms = []
    while len(randoms) < 10:
        n = rng.randint(1, 2)
        algebra = WeylAlgebra(n)
        style = rng.randrange(3)
        if style == 0:
            gens = [random_element(rng, n, max_degree=2, max_terms=3)]
        elif style == 1 and n == 1:
            gens = [
                random_element(rng, 1, max_degree=2, max_terms=2),
                random_element(rng, 1, max_degree=2, max_terms=2),
            ]
        else:
            gens = [
                algebra.element(
                    {
                        Monomial(m.xi, (0,) * n): c
                        for m, c in random_element(
                            rng, n, max_degree=2, max_terms=2
                        ).terms.items()
                    }
                )
                for _ in range(2)
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
        randoms.append((f"random {len(randoms) + 1}", gens))
    return named + randoms


def test_criterion_07_certified_bases_survive_random_orderings():
    rng = random.Random(2026_70)
    failures = 0
    for name, gens in _suite_ideals():
        cert = universal_groebner(gens, max_rounds=10)
        basis = list(cert.basis)
        n = basis[0].n
        for _ in range(100):
            rows = [random_weight_row(rng, n) for _ in range(rng.randint(1, 2))]
            if not is_groebner(basis, Ordering.matrix(rows)):
                failures += 1
    _verdict(
        7,
        "13 certified bases x 100 random matrix orderings, S-pair criterion holds",
        failures == 0,
    )


def test_criterion_08_enumeration_completeness():
    rng = random.Random(2026_08)
    mismatches = 0
    supports_checked = 0
    pools = {1: monomials_up_to_degree(1, 3), 2: monomials_up_to_degree(2, 3)}
    for size in range(1, 7):
        for _ in range(6):
            n = rng.randint(1, 2)
            support = rng.sample(pools[n], size)
            pruned = enumerate_restrictions(support)
            naive = enumerate_restrictions_naive(support)
            if pruned != naive:
                mismatches += 1
            supports_checked += 1
    _verdict(
        8,
        f"pruned enumeration equals factorial filtering on {supports_checked} supports",
        mismatches == 0,
    )


def test_criterion_09_saturation_terminates_and_is_stable():
    W2 = WeylAlgebra(2)
    ideals = _suite_ideals() + [
        ("x-only saturating", [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()])
    ]
    ok = True
    for name, gens in ideals:
        # max_rounds=10 turns "more than 10 rounds" into a hard failure
        first = certificate_text(universal_groebner(gens, max_rounds=10))
        second = certificate_text(universal_groebner(gens, max_rounds=10))
        if first != second:
            ok = False
    _verdict(9, f"saturation finished within 10 rounds on {len(ideals)} ideals, byte-stable", ok)


# The binomial pairs whose saturation takes the most rounds.
SATURATING_PAIRS = [
    ("x1^2-x2", "x1*x2-1"),
    ("x1^2-d2", "x1*d2-1"),
    ("x1^2-x2", "x1*x2-x1-1"),
    ("x1^2-x2", "x2^2-x1"),
    ("x1*x2-1", "x1+x2"),
    ("x1+d2", "x2+d1"),
]


def test_known_basis_verdicts_agree_with_is_groebner(monkeypatch):
    # universal_groebner passes a cone without the S-pair criterion when its
    # witness marks a reduced basis the saturation already computed as that
    # basis's own ordering does; each such verdict must be the one
    # is_groebner gives under the witness, and the certificates must be
    # those of certifying every candidate on its own
    ideals = [gens for _, gens in _suite_ideals()]
    ideals += [[parse_element(t, 2) for t in texts] for texts in SATURATING_PAIRS]
    real_certify = universal.certify_universal
    real_enumerate = universal.enumerate_restrictions
    calls = []
    candidate = []
    shortcut = 0

    real_verdict = universal._groebner_verdict

    def counting(forms, leads, sort_key):
        ordering = sort_key.__self__  # the witness ordering's bound sort_key
        calls.append(ordering)
        verdict = real_verdict(forms, leads, sort_key)
        assert verdict == is_groebner(candidate, ordering)
        return verdict

    def certify(elements, max_support, *, _known):
        candidate[:] = elements
        return real_certify(elements, max_support, _known=_known)

    def enumerate_checked(support, max_support, *, _until):
        nonlocal shortcut
        decided = set()

        def until(restriction, witness):
            nonlocal shortcut
            before = len(calls)
            fails = _until(restriction, witness)
            ordering = witness.ordering()
            marking = tuple(leading_term(e, ordering).monomial for e in candidate)
            # a marking is decided at its first cone, from then on read back
            if marking not in decided and len(calls) == before:
                shortcut += 1
                assert not fails and is_groebner(candidate, ordering), restriction
            decided.add(marking)
            return fails

        return real_enumerate(support, max_support, _until=until)

    monkeypatch.setattr(universal, "_groebner_verdict", counting)
    monkeypatch.setattr(universal, "enumerate_restrictions", enumerate_checked)
    monkeypatch.setattr(universal, "certify_universal", certify)
    certified = [certificate_text(universal_groebner(gens)) for gens in ideals]
    # more markings are decided from known bases than by is_groebner
    assert shortcut > len(calls), (shortcut, len(calls))

    # the same saturation, certifying each candidate on its own
    monkeypatch.setattr(universal, "enumerate_restrictions", real_enumerate)
    monkeypatch.setattr(
        universal,
        "certify_universal",
        lambda elements, max_support, *, _known: certify(elements, max_support, _known=()),
    )
    assert [certificate_text(universal_groebner(gens)) for gens in ideals] == certified


def test_criterion_10_topology_at_finite_depth():
    rng = random.Random(2026_10)
    failures = 0

    filt1 = Filtration(1)
    for _ in range(100):
        a, b, c = (random_ordering(rng, 1) for _ in range(3))
        dab = ordering_distance(a, b, filt1, 7)
        dba = ordering_distance(b, a, filt1, 7)
        if dab != dba:
            failures += 1
        dbc = ordering_distance(b, c, filt1, 7)
        dac = ordering_distance(a, c, filt1, 7)
        if dab.exact and dbc.exact and dac.exact:
            if dac.value > max(dab.value, dbc.value):
                failures += 1

    for _ in range(40):
        a = random_ordering(rng, 1)
        b = random_ordering(rng, 1)
        for r in range(7):
            bound = ordering_distance(a, b, filt1, r + 2)
            member = bound.value < Fraction(1, 2**r)
            if member != agree_on(a, b, filt1.level(r + 1)):
                failures += 1

    filt2 = Filtration(2)
    for _ in range(10):
        a = random_ordering(rng, 2)
        b = random_ordering(rng, 2)
        for r in range(3):
            bound = ordering_distance(a, b, filt2, r + 2)
            member = bound.value < Fraction(1, 2**r)
            if member != agree_on(a, b, filt2.level(r + 1)):
                failures += 1

    _verdict(
        10,
        "distance symmetry, ultrametric bound, and neighborhood = agreement at depth <= 6",
        failures == 0,
    )
