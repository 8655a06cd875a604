"""Universal Groebner bases: certification by finite cone enumeration.

A finite basis B is certified against every ordering at once by looking only
at its combined support: whenever two normal orderings agree on Supp(B), the
Groebner property transfers between them.  So it suffices to enumerate the
total orders ("restrictions") on Supp(B) that are realizable by an ordering
of the engine's weight family - one nonnegative weight row plus the lex
tie-break - and to run the S-pair criterion once per marking, the tuple of
leading monomials the basis has under a realized cone.  Cones are decided as
the search finds them, and certification stops at the first failing one, so
a counterexample costs only the cones before it.

Realization is exact: the strict inequalities a weight row must satisfy are
solved by Fourier-Motzkin elimination over the rationals, with a slack of 1
standing in for strictness.  The search keeps only the realizable
prefixes and drops the others; for an infeasible system,
``solve_inequalities`` returns an ``Infeasible``, a Farkas certificate.
The search solves only where it must.  It poses int rows
with the orthant w >= 0 implicit, so the solver returns each system's
lexicographic minimum, and a child's system narrows its parent's; a child
whose new rows the parent's witness meets takes that witness as its own
without a solve, cones included, and every witness is still the one a solve
of its own chain gives.  Witnesses stay ints until a cone is kept.

The saturation loop grows a candidate basis with Groebner bases recomputed
under every counterexample ordering until certification succeeds; each
round strictly enlarges the basis, and finitely many support behaviors
exist, so the loop terminates.  The reduced bases it computes are Groebner
cones it already knows: a cone whose witness marks one of them as its own
ordering does passes without the S-pair criterion.

Scope note: certificates quantify over the weight-row-plus-lex family.  Any
normal ordering whose restriction to the certified support is realized by
that family is covered by the transfer principle; the certificate header
records this boundary.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

# divide and is_groebner are unused here, but perfbench's trace run wraps
# universal.divide and universal.is_groebner
from .division import _int_form, divide, leading_term, monic
from .feasibility import Infeasible, nonneg_rows, solve_inequalities, solve_orthant
from .groebner import _groebner_verdict, buchberger, is_groebner, reduce_basis
from .orderings import Ordering, _integer_row
from .parsing import format_element, format_monomial
from .weyl import Monomial, _check_dim, _check_elements, _check_int, combined_support

COVERAGE_FAMILY = "nonnegative weight row + lex tie-break"

DEFAULT_SUPPORT_CAP = 9


class SupportCapExceeded(Exception):
    """Raised instead of attempting a factorial enumeration on a big support.

    When the saturation loop trips the cap mid-run, ``partial_basis`` holds
    the candidate basis built so far.
    """

    def __init__(self, size, cap, context=""):
        super().__init__(size, cap, context)
        self.size = size
        self.cap = cap
        self.context = context
        self.partial_basis = None

    def __str__(self):
        noun = "monomial" if self.size == 1 else "monomials"
        msg = (
            f"support has {self.size} {noun}, above the enumeration cap "
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
        super().__init__(rounds, partial_basis)
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
    return (tuple(map(operator.sub, high, low)), 0 if low < high else 1)


def realize_restriction(restriction):
    """WeightWitness realizing the chain through its ordering, or Infeasible.

    The witness is verified before being returned: the chain's sort keys
    under the induced ordering must be strictly increasing, which pins down
    every pairwise comparison.
    """
    monos = restriction.monomials
    if not monos:
        raise ValueError("empty restriction")
    return _realize_cached(monos)


# No memo: nothing asks for the same chain twice.  The lru_cache wrapper
# stays because perfbench clears this function by name.
@lru_cache(maxsize=0)
def _realize_cached(monos):
    """Realize the chain ``monos``; its rows are those of its adjacent pairs."""
    num_vars = 2 * monos[0].dimension
    rows = [_below_row(low, high) for low, high in zip(monos, monos[1:])]
    outcome = solve_inequalities(rows + nonneg_rows(num_vars), num_vars)
    if isinstance(outcome, Infeasible):
        return outcome
    row = _integer_row(outcome)
    _check_witness(row, _witness_keys(row, monos), monos, range(len(monos)), ())
    return WeightWitness(outcome)


def _witness_keys(row, vectors):
    """The dots row . v of an int weight row with each of ``vectors``.

    The pairs (dots[j], vectors[j]) compare as the sort keys of the row's
    ordering do, so ``_check_witness`` reads a witness's order from them
    without building its ``Ordering``.  A witness carries its dots, so a
    node that inherits it computes none.
    """
    return [sum(map(operator.mul, row, v)) for v in vectors]


def _check_witness(row, dots, vectors, chain, rest):
    """Check a solver's weights against its system, on their dots.

    ``row`` is a positive multiple of the weights, ``dots`` its
    ``_witness_keys`` over ``vectors``, and ``chain`` and ``rest`` index
    into ``vectors``.  Every weight must be nonnegative, as ``Ordering``
    requires, the chain's keys must increase, and its last key must be below
    the key of every index in ``rest``.  The checks raise AssertionError
    themselves, so they run under ``python -O``.
    """
    if min(row) < 0:
        raise AssertionError("witness has a negative weight; solver bug")
    keys = list(zip(dots, vectors))
    ordered = [keys[j] for j in chain]
    top = ordered[-1]
    if any(map(operator.ge, ordered, ordered[1:])) or any(top >= keys[r] for r in rest):
        raise AssertionError("witness failed to reproduce its restriction; solver bug")


class _Fractions(dict):
    """Fraction(x, den) for each key (x, den), built on first lookup."""

    def __missing__(self, key):
        value = self[key] = Fraction(*key)
        return value


def enumerate_restrictions(support, max_support=DEFAULT_SUPPORT_CAP, *, _until=None):
    """All realizable total orders on the support, with witnesses.

    Depth-first search that keeps only prefixes extending to a realizable
    chain.  Placing a monomial after a prefix asks for the prefix's chain
    rows plus rows putting the new monomial below every monomial still to be
    placed (same differences and lex-slack rule), over the orthant w >= 0;
    a weight row meeting them orders the whole support with the prefix
    at the bottom, so every kept prefix leads to at least one cone.  A
    monomial divisible by one still to be placed is skipped without a
    system, since every ordering of the family puts it above its divisors.
    When one monomial remains, the system is that full chain's, row for row,
    so its solution is the cone's witness.

    ``solve_orthant`` returns a system's lexicographic minimum over the
    orthant, which depends only on the polyhedron.  A child's polyhedron
    lies inside its parent's: the parent's rows putting the last placed
    monomial p below each j still to be placed follow from p below i and i
    below j, slacks included.  So when the parent's witness meets the
    child's new rows it is the child's lexicographic minimum too, and the
    child reuses it without a solve, at every depth, cones included;
    otherwise the child solves.  The root starts from the zero row, the
    minimum of the orthant alone.  Every witness in the search is
    therefore exactly the one a solve of its own system returns.  Over a
    support of k >= 2 monomials this makes at most (k - 1) feasible solves
    per cone and at most k * (k - 1) solves per cone in all.

    The support is sorted and indexed once; the search runs on indices, a
    bitmask of the monomials still to be placed, a table of the pairwise rows
    and one divisor bitmask per monomial.  Each system holds the same rows in
    the same order as the chain it stands for, so the result is identical to
    filtering all permutations (the naive oracle in the test suite),
    witnesses included, and is returned in a deterministic order.

    A witness is the solver's int row, its ``_witness_keys`` dots and its
    denominator.  The dots are computed once, where the row is solved, and
    travel with the row to every node that inherits it.  Every solved
    witness passes ``_check_witness`` against its node's system, and every
    cone's, solved or inherited, against its full chain, once.  Only a
    cone's ``WeightWitness`` holds Fractions, one per weight value and
    denominator for the whole search.

    ``_until`` is called on each cone as it is found; the search stops, and
    the list ends, at the first cone for which it returns true.
    """
    _check_int("max_support", max_support, 0)
    support = _sorted_support(support)
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support)
    num_vars = len(support[0])
    below = [[_below_row(low, high) for high in support] for low in support]
    divisors = [
        sum(1 << j for j, d in enumerate(support) if j != i and d.divides(m))
        for i, m in enumerate(support)
    ]
    fraction = _Fractions().__getitem__
    out = []

    def extend(prefix, free, mask, witness):
        # prefix: indices placed so far; free: indices still to be placed,
        # ascending, and mask their bits; witness: (num, dots, den), the
        # lexicographic minimum num / den of this node's system and its
        # _witness_keys dots
        _, dots, den = witness
        for i in free:
            # every ordering of the family puts a monomial above its divisors
            if divisors[i] & mask:
                continue
            rest = [j for j in free if j != i]
            prefix.append(i)
            # the parent's witness is the child's when it meets the new rows
            if all(dots[j] - dots[i] >= below[i][j][1] * den for j in rest):
                child = witness
            else:
                # the chain's adjacent-pair rows, then i below each j in rest
                rows = [below[a][b] for a, b in zip(prefix, prefix[1:])]
                solved = solve_orthant(rows + [below[i][j] for j in rest], num_vars)
                if solved is None:
                    prefix.pop()
                    continue
                child_num, child_den = solved
                child = (child_num, _witness_keys(child_num, support), child_den)
                if len(rest) > 1:
                    _check_witness(child_num, child[1], support, prefix, rest)
            if len(rest) > 1:
                if extend(prefix, rest, mask ^ (1 << i), child):
                    return True
            else:
                order = prefix + rest
                row, row_dots, row_den = child
                _check_witness(row, row_dots, support, order, ())
                weights = tuple(map(fraction, zip(row, repeat(row_den))))
                monos = tuple(map(support.__getitem__, order))
                cone = (Restriction(monos), WeightWitness(weights))
                out.append(cone)
                if _until is not None and _until(*cone):
                    return True
            prefix.pop()
        return False

    # the zero row is the lexicographic minimum of the orthant alone
    root = ([0] * num_vars, [0] * len(support), 1)
    extend([], list(range(len(support))), (1 << len(support)) - 1, root)
    return out


def _sorted_support(support):
    support = tuple(support)
    for m in support:
        if not isinstance(m, Monomial):
            raise TypeError(f"support entries must be Monomial, got {type(m).__name__}")
        _check_dim(support[0], m)
    if not support:
        raise ValueError("empty support")
    return sorted(set(support), key=Monomial.sort_key)


@dataclass(frozen=True)
class Cone:
    """One realizable restriction of the support, its witness and its verdict."""

    restriction: Restriction
    witness: WeightWitness
    verdict: str


@dataclass(frozen=True)
class UniversalCertificate:
    """A basis, its sorted support and the cones on which it passed."""

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


def certify_universal(elements, max_support=DEFAULT_SUPPORT_CAP, *, _known=()):
    """Certify a basis against every realizable restriction of its support.

    Runs the S-pair criterion once per marking (the tuple of leading
    monomials of the elements, read under a cone's witness ordering) and
    returns either a certificate whose cones all passed, or the first
    failing cone as a counterexample.  For well-orders the standard
    monomials of the marking span the quotient, so whether the elements form
    a Groebner basis depends on the marking alone, and every cone sharing a
    marking shares the verdict.  Cones come out in the sort-key order of
    their chains, the order in which the search visits them.  Each cone is
    decided as the search finds it, and the search stops at the first
    failing one, so the cones after a counterexample are never realized.

    Each element's content-free int form is built once per call.  A new
    marking's verdict is the S-pair test of ``is_groebner``
    (``groebner._groebner_verdict``) run on those forms with the marking as
    their leading monomials, so no leading term or int form is computed per
    verdict.

    ``_known`` holds pairs (G, lead): G a reduced Groebner basis of the ideal
    I under some ordering s, contained (up to scalars) in ``elements``, and
    lead its leading monomials under s.  When a cone's witness w gives G
    the same leading monomials, G is a Groebner basis under w too (the
    Groebner-cone argument of Mora and Robbiano): every monomial standard
    under w is divisible by no element of lead, so it is standard under s;
    both sets of standard monomials are bases of the quotient by I, so they
    coincide.  The elements contain G, so the cone passes without the
    S-pair criterion.  Only passes are decided this way, so the first
    failing cone is the one found without ``_known``.
    """
    elements = _check_elements(elements)
    _check_int("max_support", max_support, 0)
    if not elements or any(not e for e in elements):
        raise ValueError("certification needs a nonempty list of nonzero elements")
    support = tuple(_sorted_support(combined_support(elements)))
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support, "certification support")

    verdicts = {}  # marking -> verdict; a marking recurs across many cones
    forms = [_int_form(e)[2] for e in elements]

    def fails(restriction, witness):
        # the witness ordering reproduces the chain on the support, so each
        # element's leading monomial is its support monomial ranked highest
        rank = {m: i for i, m in enumerate(restriction.monomials)}.__getitem__
        marking = tuple(max(e.terms, key=rank) for e in elements)
        ok = verdicts.get(marking)
        if ok is None:
            ok = verdicts[marking] = any(
                tuple(max(g.terms, key=rank) for g in basis) == lead
                for basis, lead in _known
            ) or _groebner_verdict(forms, marking, witness.ordering().sort_key)
        return not ok

    found = enumerate_restrictions(support, max_support, _until=fails)
    # the search stops at the first failing cone, so only the last can fail;
    # asking again reads its verdict back from the memo
    if fails(*found[-1]):
        return CounterexampleOrdering(*found[-1])
    cones = tuple(Cone(restriction, witness, "passed") for restriction, witness in found)
    basis = tuple(sorted(elements, key=_element_key, reverse=True))
    return UniversalCertificate(basis, cones, support)


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

    Every reduced basis computed on the way is kept with its leading
    monomials under the ordering that produced it, and certification passes
    any cone whose witness marks one of them the same way without running
    the S-pair criterion (see ``certify_universal``).  Certificates and
    counterexamples are those of certifying each candidate on its own.
    """
    generators = _check_elements(generators)
    _check_int("max_support", max_support, 0)
    _check_int("max_rounds", max_rounds, 0)
    nonzero = [g for g in generators if g]
    if not nonzero:
        raise ValueError("universal basis of the zero ideal is empty; need a nonzero generator")
    # Every basis element is scaled monic under graded lex, whatever ordering
    # produced it, so the same ideal element contributed by different rounds
    # lands on one representative.  Rescaling never changes Groebner status:
    # leading monomials and S-pair reductions are invariant.
    grlex = Ordering.grlex(nonzero[0].n)
    basis = list(reduce_basis(buchberger(generators, grlex)).elements)
    known = [(tuple(basis), _leads(basis, grlex))]
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise SaturationLimitExceeded(max_rounds, basis)
        try:
            result = certify_universal(basis, max_support=max_support, _known=known)
        except SupportCapExceeded as exc:
            exc.context = f"saturation round {rounds}, basis size {len(basis)}"
            exc.partial_basis = tuple(basis)
            raise
        if isinstance(result, UniversalCertificate):
            return result
        ordering = result.ordering()
        fix = reduce_basis(buchberger(generators, ordering)).elements
        lead = _leads(fix, ordering)
        fix = tuple(monic(f, grlex) for f in fix)
        added = [e for e in fix if e not in basis]
        if not added:
            raise RuntimeError(
                "counterexample ordering contributed no new elements; "
                "certification cannot make progress"
            )
        known.append((fix, lead))
        basis.extend(added)
        basis = sorted(set(basis), key=_element_key, reverse=True)


def _leads(elements, ordering):
    return tuple(leading_term(e, ordering).monomial for e in elements)


def _element_key(e):
    return tuple((m.sort_key(), c) for m, c in e.sorted_terms())


def certificate_text(cert):
    """Canonical plain-text serialization; byte-stable for identical inputs."""
    return "\n".join(_certificate_lines(certificate_json(cert))) + "\n"


def _certificate_lines(data):
    """The lines of ``certificate_text``, laid out from ``certificate_json``'s dict."""
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
    return lines


def certificate_json(cert):
    """JSON-ready dict of the certificate; certificate_text lays it out as text."""
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
