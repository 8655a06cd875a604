"""Universal Groebner bases: certification by finite cone enumeration.

A finite basis B is certified against every ordering at once by looking only
at its combined support: whenever two normal orderings agree on Supp(B), the
Groebner property transfers between them.  So it suffices to enumerate the
total orders ("restrictions") on Supp(B) that are realizable by an ordering
of the engine's weight family - one nonnegative weight row plus the lex
tie-break - and to run the S-pair criterion once per marking, the tuple of
leading monomials the basis has under a realized cone.

Realization is exact: the strict inequalities a weight row must satisfy are
solved by Fourier-Motzkin elimination over the rationals, with a slack of 1
standing in for strictness.  Unrealizable chains come back with a Farkas
certificate.  The saturation loop grows a candidate basis with Groebner
bases recomputed under every counterexample ordering until certification
succeeds; each round strictly enlarges the basis, and finitely many support
behaviors exist, so the loop terminates.

Scope note: certificates quantify over the weight-row-plus-lex family.  Any
normal ordering whose restriction to the certified support is realized by
that family is covered by the transfer principle; the certificate header
records this boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

# unused here, but perfbench's trace run wraps universal.divide
from .division import divide, monic
from .feasibility import Infeasible, nonneg_rows, solve_inequalities
from .groebner import buchberger, is_groebner, reduce_basis
from .orderings import Ordering, _integer_row
from .weyl import Monomial, combined_support

COVERAGE_FAMILY = "nonnegative weight row + lex tie-break"

DEFAULT_SUPPORT_CAP = 9


class SupportCapExceeded(Exception):
    """Raised instead of attempting a factorial enumeration on a big support.

    When the saturation loop trips the cap mid-run, ``partial_basis`` holds
    the candidate basis built so far.
    """

    def __init__(self, size, cap, context=""):
        super().__init__()
        self.size = size
        self.cap = cap
        self.context = context
        self.partial_basis = None

    def __str__(self):
        msg = (
            f"support has {self.size} monomials, above the enumeration cap "
            f"{self.cap}; raise max_support to force the computation"
        )
        if self.context:
            msg += f" ({self.context})"
        return msg


class SaturationLimitExceeded(Exception):
    """Raised when the saturation loop runs past ``max_rounds``.

    ``rounds`` is the number of certification rounds run and
    ``partial_basis`` the candidate basis they built.
    """

    def __init__(self, rounds, partial_basis):
        super().__init__()
        self.rounds = rounds
        self.partial_basis = tuple(partial_basis)

    def __str__(self):
        return (
            f"saturation did not stabilize after {self.rounds} rounds; "
            f"current basis has {len(self.partial_basis)} elements; "
            "raise max_rounds to continue"
        )


@dataclass(frozen=True)
class Restriction:
    """A total order on finitely many monomials, listed smallest first."""

    monomials: tuple

    def __post_init__(self):
        if len(set(self.monomials)) != len(self.monomials):
            raise ValueError("restriction monomials must be distinct")

    def __len__(self):
        return len(self.monomials)


@dataclass(frozen=True)
class WeightWitness:
    """A nonnegative weight row whose induced ordering realizes a restriction."""

    weights: tuple

    def ordering(self):
        return Ordering((self.weights,))


def _below_row(low, high):
    """The inequality row a weight row must meet to put ``low`` below ``high``.

    A chain needs only the rows of its adjacent pairs: the induced ordering
    is total, so transitivity settles the rest.  Pairs the lex tail already
    orders correctly only need weights . diff >= 0; pairs it orders the wrong
    way need strict separation, encoded with slack 1 (weight rows scale
    freely).
    """
    diff = tuple(b - a for a, b in zip(low.vector, high.vector))
    return (diff, 0 if low.vector < high.vector else 1)


def realize_restriction(restriction):
    """WeightWitness realizing the chain through its ordering, or Infeasible.

    The witness is verified before being returned: the chain's sort keys
    under the induced ordering must be strictly increasing, which pins down
    every pairwise comparison.  Results are cached.
    """
    monos = restriction.monomials
    if not monos:
        raise ValueError("empty restriction")
    return _realize_cached(monos, ())


# Sized by measurement: over the benchmark's ugb and cert passes, with the
# cache cleared before each solve, one solve holds at most 1,236 entries (cert
# on the xd3 and cyc3 bases); enumeration asks for each (prefix, rest) once,
# so those passes make no hits and a larger bound would only hold memory.
@lru_cache(maxsize=2048)
def _realize_cached(monos, rest):
    """Realize the chain ``monos`` with its last monomial below all of ``rest``.

    With one monomial in ``rest`` the rows are exactly those of the chain
    ``monos + rest``, in the same order, so the witness is that chain's.  The
    witness is checked without building its ``Ordering``: with the weights
    scaled to an int row w, the keys (w . m, m) compare exactly as the
    ordering's sort keys do.  The chain's keys must increase, the last must
    be below the key of every monomial in ``rest``, and every weight must be
    nonnegative, which ``Ordering`` requires of a weight row.
    """
    num_vars = 2 * monos[0].dimension
    rows = [_below_row(low, high) for low, high in zip(monos, monos[1:])]
    rows += [_below_row(monos[-1], r) for r in rest]
    outcome = solve_inequalities(rows + nonneg_rows(num_vars), num_vars)
    if isinstance(outcome, Infeasible):
        return outcome
    row = _integer_row(outcome)
    if any(w < 0 for w in row):
        raise AssertionError("witness has a negative weight; solver bug")

    def key(m):
        return (sum(map(operator.mul, row, m.vector)), m.vector)

    keys = [key(m) for m in monos]
    top = keys[-1]
    if any(a >= b for a, b in zip(keys, keys[1:])) or any(top >= key(r) for r in rest):
        raise AssertionError("witness failed to reproduce its restriction; solver bug")
    return WeightWitness(outcome)


def enumerate_restrictions(support, max_support=DEFAULT_SUPPORT_CAP):
    """All realizable total orders on the support, with witnesses.

    Depth-first search that keeps only prefixes extending to a realizable
    chain.  Placing a monomial after a prefix solves the prefix's chain rows
    plus rows putting the new monomial below every monomial still to be
    placed (same differences and lex-slack rule); a weight row meeting them
    orders the whole support with the prefix at the bottom, so every kept
    prefix leads to at least one cone.  A monomial divisible by one still to
    be placed is skipped without a solve, since every ordering of the family
    puts it above its divisors.  When one monomial remains, the prefix's
    system is that full chain's, row for row, so its solution is the cone's
    witness and the leaf needs no solve of its own.  Over a support of k >= 2
    monomials this makes at most (k - 1) feasible solves per cone and at most
    k * (k - 1) solves per cone in all.

    The result is identical to filtering all permutations (the naive oracle
    in the test suite), witnesses included, and is returned in a
    deterministic order.
    """
    support = _sorted_support(support)
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support)
    out = []

    def extend(prefix, remaining):
        for idx, mono in enumerate(remaining):
            rest = remaining[:idx] + remaining[idx + 1 :]
            # every ordering of the family puts a monomial above its divisors
            if any(r.divides(mono) for r in rest):
                continue
            prefix.append(mono)
            candidate = _realize_cached(tuple(prefix), rest)
            if isinstance(candidate, WeightWitness):
                if len(rest) <= 1:
                    out.append((Restriction(tuple(prefix) + rest), candidate))
                else:
                    extend(prefix, rest)
            prefix.pop()

    extend([], tuple(support))
    return out


def _sorted_support(support):
    support = sorted(set(support), key=Monomial.sort_key)
    if not support:
        raise ValueError("empty support")
    dims = {m.dimension for m in support}
    if len(dims) > 1:
        raise ValueError("support mixes dimensions")
    return support


@dataclass(frozen=True)
class Cone:
    restriction: Restriction
    witness: WeightWitness
    verdict: str


@dataclass(frozen=True)
class UniversalCertificate:
    basis: tuple
    cones: tuple
    support: tuple


@dataclass(frozen=True)
class CounterexampleOrdering:
    """A realized restriction under which the candidate fails the S-pair test."""

    restriction: Restriction
    witness: WeightWitness

    def ordering(self):
        return self.witness.ordering()


def certify_universal(elements, max_support=DEFAULT_SUPPORT_CAP):
    """Certify a basis against every realizable restriction of its support.

    Runs the S-pair criterion once per marking (the tuple of leading
    monomials of the elements, read under a cone's witness ordering) and
    returns either a certificate whose cones all passed, or the first
    failing cone as a counterexample.  For well-orders the standard
    monomials of the marking span the quotient, so whether the elements form
    a Groebner basis depends on the marking alone, and every cone sharing a
    marking shares the verdict.  Cones come out in the sort-key order of
    their chains, the order in which the search visits them.
    """
    elements = list(elements)
    if not elements or any(not e for e in elements):
        raise ValueError("certification needs a nonempty list of nonzero elements")
    support = tuple(_sorted_support(combined_support(elements)))
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support, "certification support")

    cones = []
    verdicts = {}  # marking -> verdict; a marking recurs across many cones
    for restriction, witness in enumerate_restrictions(support, max_support):
        # the witness ordering reproduces the chain on the support, so each
        # element's leading monomial is its support monomial ranked highest
        rank = {m: i for i, m in enumerate(restriction.monomials)}.__getitem__
        marking = tuple(max(e.terms, key=rank) for e in elements)
        ok = verdicts.get(marking)
        if ok is None:
            ok = verdicts[marking] = is_groebner(elements, witness.ordering())
        if not ok:
            return CounterexampleOrdering(restriction, witness)
        cones.append(Cone(restriction, witness, "passed"))

    basis = tuple(sorted(elements, key=_element_key, reverse=True))
    return UniversalCertificate(basis, tuple(cones), support)


def universal_groebner(
    generators, max_support=DEFAULT_SUPPORT_CAP, max_rounds=32
):
    """Grow a basis until certification succeeds; return the certificate.

    Start from the reduced Groebner basis under graded lex, then repeatedly:
    certify; on a counterexample ordering, union in the reduced Groebner
    basis of the ORIGINAL generators recomputed under that ordering.  Adding
    elements of the ideal never destroys the Groebner property the basis
    already has, and a counterexample ordering always contributes at least
    one new element, so the candidate grows strictly until it covers every
    realizable cone.
    """
    generators = list(generators)
    nonzero = [g for g in generators if g]
    if not nonzero:
        raise ValueError("universal basis of the zero ideal is empty; need a nonzero generator")
    # Every basis element is scaled monic under graded lex, whatever ordering
    # produced it, so the same ideal element contributed by different rounds
    # lands on one representative.  Rescaling never changes Groebner status:
    # leading monomials and S-pair reductions are invariant.
    grlex = Ordering.grlex(nonzero[0].n)
    basis = list(reduce_basis(buchberger(generators, grlex)).elements)
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise SaturationLimitExceeded(max_rounds, basis)
        try:
            result = certify_universal(basis, max_support=max_support)
        except SupportCapExceeded as exc:
            exc.context = f"saturation round {rounds}, basis size {len(basis)}"
            exc.partial_basis = tuple(basis)
            raise
        if isinstance(result, UniversalCertificate):
            return result
        fix = reduce_basis(buchberger(generators, result.ordering()))
        added = [e for e in (monic(f, grlex) for f in fix.elements) if e not in basis]
        if not added:
            raise RuntimeError(
                "counterexample ordering contributed no new elements; "
                "certification cannot make progress"
            )
        basis.extend(added)
        basis = sorted(set(basis), key=_element_key, reverse=True)


def _element_key(e):
    return tuple(
        (m.sort_key(), c) for m, c in e.sorted_terms(reverse=True)
    )


def certificate_text(cert):
    """Canonical plain-text serialization; byte-stable for identical inputs."""
    data = certificate_json(cert)
    lines = [
        "universal groebner certificate",
        f"dimension: {data['dimension']}",
        f"certified family: {data['family']}",
        "coverage: every normal ordering whose restriction to the support",
        "  is realized by the family above is covered by the transfer principle",
        f"basis ({len(data['basis'])}):",
        *(f"  {e}" for e in data["basis"]),
        f"support ({len(data['support'])}): {', '.join(data['support'])}",
        f"cones ({len(data['cones'])}):",
    ]
    for i, cone in enumerate(data["cones"], 1):
        chain = " < ".join(cone["restriction"])
        weights = " ".join(cone["weights"])
        lines.append(f"  cone {i}: {chain} | weights {weights} | {cone['verdict']}")
    return "\n".join(lines) + "\n"


def certificate_json(cert):
    """JSON-ready dict of the certificate; certificate_text lays it out as text."""
    from .parsing import format_element, format_monomial

    return {
        "dimension": cert.basis[0].n,
        "family": COVERAGE_FAMILY,
        "basis": [format_element(e) for e in cert.basis],
        "support": [format_monomial(m) for m in cert.support],
        "cones": [
            {
                "restriction": [
                    format_monomial(m) for m in cone.restriction.monomials
                ],
                "weights": [str(w) for w in cone.witness.weights],
                "verdict": cone.verdict,
            }
            for cone in cert.cones
        ],
    }
