import copy
import itertools
import os
import pickle
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
    SaturationLimitExceeded,
    SupportCapExceeded,
    UniversalCertificate,
    WeylAlgebra,
    certificate_json,
    certificate_text,
    certify_universal,
    enumerate_restrictions,
    is_groebner,
    leading_term,
    parse_element,
    universal_groebner,
)
from weylgb import universal
from weylgb.groebner import buchberger, reduce_basis
from weylgb.orderings import monomials_up_to_degree
from weylgb.universal import Restriction, WeightWitness, _below_row, realize_restriction
from weylgb.weyl import combined_support
from conftest import random_element, random_monomial, random_weight_row
from oracles import (
    commutative_buchberger,
    enumerate_restrictions_naive,
    is_groebner_naive,
    to_commutative,
)


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
    # the search's solver returns the same weights as int numerators over 1
    monkeypatch.setattr(universal, "solve_inequalities", lambda rows, num_vars: weights)
    solved = ([int(w) for w in weights], 1)
    monkeypatch.setattr(universal, "solve_orthant", lambda rows, num_vars: solved)
    universal._realize_cached.cache_clear()
    try:
        with pytest.raises(AssertionError, match="solver bug"):
            realize_restriction(Restriction((X1, D1)))
        with pytest.raises(AssertionError, match="solver bug"):
            enumerate_restrictions([X1, D1])
    finally:
        universal._realize_cached.cache_clear()


_BAD_WITNESS = """
from fractions import Fraction
from weylgb import Monomial, enumerate_restrictions, universal
from weylgb.universal import Restriction, realize_restriction

universal.solve_inequalities = lambda rows, num_vars: (Fraction(1), Fraction(0))
universal.solve_orthant = lambda rows, num_vars: ([1, 0], 1)
try:
    realize_restriction(Restriction((Monomial((1,), (0,)), Monomial((0,), (1,)))))
except AssertionError as exc:
    print("raised:", exc)
try:
    enumerate_restrictions([Monomial((1,), (0,)), Monomial((0,), (1,))])
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
    assert result.stdout.splitlines() == [
        "raised: witness failed to reproduce its restriction; solver bug"
    ] * 2


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


@pytest.mark.parametrize("n, max_degree", [(1, 6), (2, 3), (3, 2)])
def test_enumerate_matches_naive_across_sizes(monkeypatch, n, max_degree):
    # two supports of every size 1..7; the oracle solves every chain on its
    # own, so a witness the search passed down without a solve must be the
    # one its chain's own solve gives
    real = universal.solve_orthant
    solved = set()

    def recording(rows, num_vars):
        solved.add(tuple(rows))
        return real(rows, num_vars)

    pool = _degree_pool(n, max_degree)
    rng = random.Random(f"naive-{n}")
    cones = reused = 0
    for size in range(1, 8):
        for _ in range(2):
            support = rng.sample(pool, size)
            solved.clear()
            with monkeypatch.context() as patch:
                patch.setattr(universal, "solve_orthant", recording)
                pruned = enumerate_restrictions(support)
            naive = enumerate_restrictions_naive(support)
            assert [r.monomials for r, _ in pruned] == [r.monomials for r, _ in naive]
            assert [w for _, w in pruned] == [w for _, w in naive]
            for restriction, _ in pruned:
                monos = restriction.monomials
                system = [_below_row(a, b) for a, b in zip(monos, monos[1:])]
                reused += tuple(system) not in solved
            cones += len(pruned)
    # most cones take their witness from an ancestor
    assert reused > cones // 2, (reused, cones)


def _degree_pool(n, max_degree):
    return monomials_up_to_degree(n, max_degree)


def _seeded_support(n, k):
    pool = monomials_up_to_degree(n, 4 if n == 1 else 2)  # 15 monomials
    return random.Random(100 * n + k).sample(pool, k)


@pytest.mark.parametrize(
    "n, k, cones, feasible, solves",
    [
        (1, 9, 6, 6, 31),
        (1, 10, 8, 7, 79),
        (2, 7, 52, 51, 67),
        (2, 8, 116, 118, 250),
    ],
)
def test_enumeration_work_is_output_sensitive(monkeypatch, n, k, cones, feasible, solves):
    # every kept prefix extends to a cone and the last prefix's solve is the
    # cone's, so feasible solves are at most (k - 1) per cone.  A solved
    # witness is the lexicographic minimum of its system, and a child's
    # system only narrows its parent's, so a child whose new rows the
    # parent's witness meets reuses it without a solve, at every depth,
    # cones included.  Inheriting only the lowest remaining monomial's
    # witness and solving every cone's chain takes (12, 37), (16, 88),
    # (85, 101) and (195, 327) on these supports; solving every kept prefix
    # takes (35, 60), (58, 130), (108, 124) and (286, 418), the same
    # infeasible solves in each case.  A search that checks each prefix only
    # against itself takes 6,700, 22,246, 2,027 and 8,840 solves
    real = universal.solve_orthant
    outcomes = []

    def counting(rows, num_vars):
        out = real(rows, num_vars)
        outcomes.append(out is None)
        return out

    monkeypatch.setattr(universal, "solve_orthant", counting)
    universal._realize_cached.cache_clear()
    found = enumerate_restrictions(_seeded_support(n, k), max_support=10)
    assert len(found) == cones
    assert outcomes.count(False) <= (k - 1) * len(found)
    assert len(outcomes) <= k * (k - 1) * len(found)
    assert (outcomes.count(False), len(outcomes)) == (feasible, solves)


def test_realization_keeps_no_memo():
    # nothing asks for the same chain twice, so a memo would only hold memory
    found = enumerate_restrictions(_seeded_support(2, 7), max_support=10)
    assert len(found) == 52
    assert [realize_restriction(r) for r, _ in found] == [w for _, w in found]
    assert universal._realize_cached.cache_info().currsize == 0


def test_enumerate_respects_cap():
    support = _degree_pool(1, 3)  # 10 monomials
    with pytest.raises(SupportCapExceeded):
        enumerate_restrictions(support)
    with pytest.raises(SupportCapExceeded):
        enumerate_restrictions(support[:4], max_support=3)


def test_enumerate_rejects_entries_that_are_not_monomials():
    # a plain exponent tuple is refused by type, not left to fail on a
    # missing attribute inside the search
    with pytest.raises(TypeError, match="tuple"):
        enumerate_restrictions([(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(TypeError, match="list"):
        enumerate_restrictions([X1, [0, 1]])
    with pytest.raises(TypeError, match="str"):
        enumerate_restrictions(["x1"])


def _full_chain_checks(monkeypatch, support):
    """Cones of the support, the witness checks run on a full chain, and
    how many cones took their witness without a solve of their own chain."""
    real_check, real_solve = universal._check_witness, universal.solve_orthant
    full = []
    solved = set()

    def counting(row, dots, vectors, chain, rest):
        if len(chain) == len(vectors):
            full.append(tuple(chain))
        return real_check(row, dots, vectors, chain, rest)

    def recording(rows, num_vars):
        solved.add(tuple(rows))
        return real_solve(rows, num_vars)

    with monkeypatch.context() as patch:
        patch.setattr(universal, "_check_witness", counting)
        patch.setattr(universal, "solve_orthant", recording)
        found = enumerate_restrictions(support, max_support=10)
    inherited = 0
    for restriction, _ in found:
        monos = restriction.monomials
        inherited += tuple(_below_row(a, b) for a, b in zip(monos, monos[1:])) not in solved
    return found, full, inherited


def test_every_cone_is_checked_once_on_its_full_chain(monkeypatch):
    # a cone's witness, solved or inherited from an ancestor with the dots
    # it carries, is checked against the cone's whole chain exactly once
    supports = [_seeded_support(n, k) for n in (1, 2, 3) for k in (2, 4, 6, 7)]
    for name, n, texts, _, _ in CERT_BASES:
        if name in ("xd3", "ugb_sat6"):
            supports.append(combined_support([parse_element(t, n) for t in texts]))
    cones = inherited = 0
    for support in supports:
        found, full, reused = _full_chain_checks(monkeypatch, support)
        order = sorted(support, key=Monomial.sort_key)
        index = {m: i for i, m in enumerate(order)}
        assert full == [tuple(index[m] for m in r.monomials) for r, _ in found]
        cones += len(found)
        inherited += reused
    assert cones >= 800 and inherited >= cones // 2, (cones, inherited)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_restrictions([X1, D1], max_support=-1),
        lambda: certify_universal([W1.xi(1) + W1.d(1)], max_support=-5),
        lambda: universal_groebner([W1.xi(1) + W1.d(1)], max_support=-1),
        lambda: universal_groebner([W1.xi(1) + W1.d(1)], max_rounds=-1),
    ],
    ids=["enumerate", "certify", "ugb-support", "ugb-rounds"],
)
def test_negative_bound_is_an_input_error(monkeypatch, call):
    # refused before any work: no completion, support or search runs
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the bound was checked")

    for name in ("buchberger", "combined_support", "_sorted_support", "solve_orthant"):
        monkeypatch.setattr(universal, name, no_work)
    with pytest.raises(ValueError, match=r"max_(support|rounds) must be an integer >= 0"):
        call()


def test_zero_bounds_keep_their_meaning():
    with pytest.raises(SupportCapExceeded, match="cap 0"):
        enumerate_restrictions([X1], max_support=0)
    with pytest.raises(SupportCapExceeded, match="cap 0"):
        certify_universal([W1.xi(1)], max_support=0)
    with pytest.raises(SaturationLimitExceeded) as info:
        universal_groebner([W1.xi(1) + W1.d(1)], max_rounds=0)
    assert info.value.rounds == 0 and info.value.partial_basis


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
    real_verdict = universal._groebner_verdict

    def counting(forms, leads, sort_key):
        ordering = sort_key.__self__  # the witness ordering's bound sort_key
        calls.append(ordering)
        verdict = real_verdict(forms, leads, sort_key)
        assert verdict == is_groebner(elements, ordering)
        return verdict

    monkeypatch.setattr(universal, "_groebner_verdict", counting)
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


def test_certification_verdicts_match_is_groebner(monkeypatch):
    # Certification decides a marking on int forms prepared once per call,
    # taking the sign whose coefficient at the marked leading monomial is
    # positive.  Random bases with Fraction coefficients of both signs have
    # elements whose leading coefficient changes sign between cones; every
    # cone's verdict must be the one is_groebner and the all-pairs oracle
    # give under its witness ordering.
    rng = random.Random(20261019)
    real_enumerate = universal.enumerate_restrictions
    decided = []

    def enumerate_all(support, max_support, *, _until):
        # record certification's verdict on every cone, and never stop early
        def until(restriction, witness):
            decided.append((witness, _until(restriction, witness)))
            return False

        return real_enumerate(support, max_support, _until=until)

    monkeypatch.setattr(universal, "enumerate_restrictions", enumerate_all)
    verdicts = []
    sign_changes = 0
    for n, bases, max_degree in ((1, 30, 4), (2, 40, 3), (3, 6, 2)):
        made = 0
        while made < bases:
            elements = [
                random_element(rng, n, max_degree=max_degree, max_terms=4)
                for _ in range(rng.randint(2, 3))
            ]
            if len(combined_support(elements)) > 8:
                continue
            made += 1
            decided.clear()
            certify_universal(elements)
            signs = set()
            for witness, fails in decided:
                ordering = witness.ordering()
                verdict = is_groebner(elements, ordering)
                assert verdict == is_groebner_naive(elements, ordering)
                assert fails != verdict, (elements, witness)
                verdicts.append(verdict)
                signs.update(
                    (k, leading_term(e, ordering).coefficient > 0) for k, e in enumerate(elements)
                )
            sign_changes += sum(
                (k, True) in signs and (k, False) in signs for k in range(len(elements))
            )
    assert len(verdicts) >= 1000 and verdicts.count(True) >= 50 and verdicts.count(False) >= 500
    assert sign_changes >= 20, sign_changes


# The literal bases of the cert benchmark, with the cones the lazy search
# enumerates and the cones of the whole support.
CERT_BASES = [
    ("xd3", 3, ("x1-d1^2", "x2-d2^2", "x3-d3^2"), 720, 720),
    ("ugb_sat1", 2, ("x1^3-1", "x2^3-1", "x1^2-x2", "x1*x2-1", "x2^2-x1"), 8, 8),
    ("ugb_sat2", 2, ("x1^3-1", "d2^3-1", "x1^2-d2", "x1*d2-1", "d2^2-x1"), 8, 8),
    (
        "ugb_sat3",
        2,
        ("x1^3-x1-1", "x2^3-2*x2^2+x2-1", "x1^2-x2", "x1*x2-x1-1", "x2^2-x1-x2"),
        8,
        8,
    ),
    ("cyc3", 3, ("x1+d2", "x2+d3", "x3+d1"), 1, 720),
    ("grlex_sat1", 2, ("x1^2-x2", "x1*x2-1", "x2^2-x1"), 2, 4),
    ("grlex_sat2", 2, ("x1^2-d2", "x1*d2-1", "d2^2-x1"), 2, 4),
    ("grlex_sat3", 2, ("x1^2-x2", "x1*x2-x1-1", "x2^2-x1-x2"), 2, 4),
    ("bessel", 2, ("d1^2+d2^2-1", "x1*d2-x2*d1"), 2, 24),
    ("grlex_sat4", 2, ("x1^2-x2", "x2^2-x1"), 2, 4),
    ("grlex_sat5", 2, ("x2^2+1", "x1+x2"), 3, 3),
    ("ugb_sat6", 2, ("x1+d2", "x2+d1"), 24, 24),
    ("xd2", 2, ("x1-d1^2", "x2-d2^2"), 24, 24),
    ("ugb_sat5", 2, ("x1^2+1", "x2^2+1", "x1+x2"), 4, 4),
]


@pytest.mark.parametrize(
    "n, texts, lazy, eager", [case[1:] for case in CERT_BASES], ids=[case[0] for case in CERT_BASES]
)
def test_lazy_certification_matches_eager(monkeypatch, n, texts, lazy, eager):
    elements = [parse_element(t, n) for t in texts]
    cones = enumerate_restrictions(combined_support(elements))
    assert len(cones) == eager
    verdicts = [is_groebner(elements, witness.ordering()) for _, witness in cones]

    # the search is reached through the module global, as perfbench's trace
    # run counts rounds and cones by wrapping it
    searched = []
    real = universal.enumerate_restrictions

    def counting(*args, **kwargs):
        searched.append(real(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(universal, "enumerate_restrictions", counting)
    outcome = certify_universal(elements)
    assert [len(found) for found in searched] == [lazy]
    assert searched[0] == cones[:lazy]
    if all(verdicts):
        assert isinstance(outcome, UniversalCertificate)
        assert [(c.restriction, c.witness) for c in outcome.cones] == cones
    else:
        first = cones[verdicts.index(False)]
        assert isinstance(outcome, CounterexampleOrdering)
        assert (outcome.restriction, outcome.witness) == first
        assert first == searched[0][-1]


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


def _refusals():
    gens = [W2.xi(1) ** 2 - W2.xi(2), W2.xi(1) * W2.xi(2) - W2.one()]
    out = [SupportCapExceeded(12, 9)]
    # raised mid-run, with context and partial_basis set after construction
    for kwargs, kind in (({"max_support": 3}, SupportCapExceeded), ({"max_rounds": 1}, SaturationLimitExceeded)):
        with pytest.raises(kind) as info:
            universal_groebner(gens, **kwargs)
        out.append(info.value)
    return out


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_refusals_survive_copy_and_pickle(clone):
    refusals = _refusals()
    assert refusals[1].context.startswith("saturation round 1")
    assert refusals[1].partial_basis and refusals[2].partial_basis
    for exc in refusals:
        twin = clone(exc)
        assert type(twin) is type(exc) and str(twin) == str(exc)
        for name in ("size", "cap", "context", "partial_basis", "rounds"):
            assert getattr(twin, name, None) == getattr(exc, name, None), name


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
