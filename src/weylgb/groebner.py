"""Groebner bases of left ideals for a fixed normal ordering.

Completion (``buchberger``) is signature-based: the GVW framework (Gao,
Volny and Wang, "A new framework for computing Groebner bases", Math. Comp.
85, 2016) with the criteria that Sun, Wang, Ma and Zhang prove for left
ideals of solvable polynomial algebras, the Weyl algebra among them ("A
signature-based algorithm for computing Groebner bases in solvable
polynomial algebras", ISSAC 2012).

Each element g of the left ideal of the inputs f_1..f_m carries the
signature s * e_i of a module element u with g = sum_j u_j * f_j; only the
signature is kept.  The top term of a product of normal monomials is their
exponent sum with coefficient 1, so left multiplication by a monomial t
adds t to the leading monomial of g and to s alike.  Signatures are
compared in the Schreyer order, by (sort key of s + lm f_i, i), so lm g is
at most s + lm f_i.  Sort keys are linear in the exponent vector (weight
rows, then the vector), so an element's gap, the key of s + lm f_i minus
the key of lm g, is the same for all its multiples, and every signature
comparison below is one of keys plus gaps.

Signatures are processed in increasing order, one J-pair per signature.
The J-pair of two elements is t * g, with t = lcm(lm g, lm h) / lm g,
formed as a Weyl product, when its signature exceeds that of the other
multiple (lcm / lm h) * h; equal signatures give none.  Input i enters as
e_i.  A J-pair is skipped when

- a signature of an earlier reduction to zero divides its signature
  (syzygy criterion), or
- an element whose signature divides it has a multiple of that signature
  with a smaller leading monomial (GVW's cover criterion).

Otherwise it is reduced regularly (``division.regular_remainder``): a
multiple c * h is subtracted only when its signature lies strictly below
the J-pair's.  Each element enters the reduction through one prepared
divisor entry (leading monomial, L, int form F, gap, index), built by
``division._entry`` once when it joins the basis; a multiple of h at a
working monomial m has the signature key sort_key(m) + gap with h's index,
and that rule is tested only for the divisors whose leading monomial
divides m; the element being reduced enters through its int form F, built
once for an input and taken from its entry for an element.  A remainder of
zero adds its signature to the syzygy signatures.  A nonzero one comes back
as int numerators, is made monic with one Fraction per term, and joins the
basis with the entry built from its int form, whose first key is its
leading monomial.  GVW also discard a remainder that is singular
top-reducible, one with the signature and the leading monomial of a
multiple of some element.  None can be here:
the remainder's leading monomial lies below the J-pair's, so that element
would have a larger gap than the J-pair and a signature dividing it, and
the cover criterion, checked against the whole basis when the J-pair is
taken, would have skipped the J-pair.  An input joins as it is when no
regular divisor divides its leading monomial, since tail reduction is
optional.  A constant ends completion at once with the basis (1,).
Koszul syzygies and the product criterion are not used: both rest on
commuting leading terms, and x1 and d1 have coprime leading monomials but
the S-pair 1.  The raw basis differs from the one a loop reducing every
S-pair builds; the reduced basis cannot, being unique for the ordering.

``is_groebner`` tests a given set, without signatures, by left S-pairs: for
nonzero u, v and m = lcm of the leading monomials,

    s_pair(u, v) = (m / ls(u)) * u  -  (m / ls(v)) * v

with each single-term cofactor multiplied on the left, so the two top terms
cancel exactly.  Its verdict (``_groebner_verdict``) builds each element's
divisor entry (leading monomial, L, int form F, ...) and works on those:
an S-pair is built in ints, as L_u * L_v times the one above, and reduced
by ``division._reduce`` for its int remainder only, a nonzero multiple of
the true remainder or empty, with no quotient and no Fraction.  It reduces
the pairs by increasing lcm and stops at the first nonzero remainder.
Certification (``universal.certify_universal``) runs the same verdict on
the int forms it keeps for the whole call and each marking.  Pairs are
dropped by the chain criterion, in the Gebauer-Moeller update (Gebauer and
Moeller, "On an installation of Buchberger's algorithm", JSC 6, 1988) run
as the elements are taken in turn:

- B_k: a pending pair whose lcm the new leading monomial divides, unless
  the lcm of either of its elements with the new one equals that lcm;
- M/F: a new pair whose lcm another new pair's lcm properly divides, and
  all but the newest of the new pairs that share one lcm.

The chain criterion holds in G-algebras, the Weyl algebra among them
(Levandovskyy, PhD thesis, Kaiserslautern 2005).  A set is a Groebner basis
exactly when every S-pair the criterion leaves reduces to zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, le, sub

from .division import (
    DivisionInvariantError,
    _cofactor,
    _entry,
    _int_form,
    _monic_remainder,
    _reduce,
    divide,
    leading_term,
    monic,
    regular_remainder,
)
from .orderings import Ordering
from .weyl import Monomial, WeylElement, _check_elements, add_product


def s_pair(u, v, ordering):
    """Left S-pair of two nonzero elements; leading terms cancel.

    Each element is taken as its prepared divisor entry (``division._entry``):
    its int form F, with leading coefficient L > 0, so that u / lc(u) =
    F_u / L_u.  The S-pair is then

        (L_v * (m / lm u) * F_u  -  L_u * (m / lm v) * F_v) / (L_u * L_v),

    accumulated in ints through ``weyl.add_product`` and divided once.
    """
    _check_elements([u, v])
    if not u or not v:
        raise ValueError("S-pair of a zero element is undefined")
    pair = [_entry(_int_form(f)[2], leading_term(f, ordering).monomial) for f in (u, v)]
    out = _s_pair_ints(*pair)
    den = pair[0][1] * pair[1][1]
    return WeylElement._raw(u.n, {mono: Fraction(c, den) for mono, c in out.items()})


def _s_pair_ints(u, v):
    """L_u * L_v times the S-pair of two prepared divisor entries
    (lead, L, F, ...), as an int dict: see ``s_pair``."""
    lead_u, l_u, f_u = u[:3]
    lead_v, l_v, f_v = v[:3]
    lcm = tuple(map(max, lead_u, lead_v))
    out = {}
    add_product(out, l_v, _cofactor(lcm, lead_u), f_u)
    add_product(out, -l_u, _cofactor(lcm, lead_v), f_v)
    return out


@dataclass(frozen=True)
class GroebnerBasis:
    """Basis elements under ``ordering``, with the generators they came from."""

    elements: tuple
    ordering: Ordering
    generators: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def buchberger(generators, ordering):
    """Complete the generators to a Groebner basis of the left ideal they span.

    Returns the raw completed basis: monic elements in the order they joined
    it, which is increasing signature, not input order.  A generator joins
    as it is when no regular divisor divides its leading monomial, and is
    replaced by its regular remainder otherwise.  A unit ideal returns the
    basis (1,) as soon as a constant appears.  Apply reduce_basis for the
    canonical inter-reduced form.
    """
    # before monic, which would read an element under another width
    generators = _check_elements(generators)
    inputs = []
    for g in generators:
        if g:
            g = monic(g, ordering)
            if g not in inputs:
                inputs.append(g)
    basis = _signature_completion(inputs, ordering) if inputs else ()
    return GroebnerBasis(tuple(basis), ordering, tuple(generators))


def _signature_completion(inputs, ordering):
    """Signature-based completion of nonzero monic ``inputs``; see the module
    docstring.  Returns the basis elements in the order they joined."""
    sort_key = ordering.sort_key
    n = inputs[0].n
    unit = Monomial.unit(n)
    input_leads = [leading_term(f, ordering).monomial for f in inputs]
    input_ints = [_int_form(f)[2] for f in inputs]
    # (Schreyer key of the signature s * e_i, i, s, source element or -1 for
    # input i); equal keys and indices mean equal signatures
    heap = [(sort_key(m), i, unit, -1) for i, m in enumerate(input_leads)]
    heapq.heapify(heap)
    no_gap = (0,) * len(heap[0][0])
    basis = []  # monic elements
    labels = []  # (index i, signature vector s, gap, leading monomial), per element
    prepared = []  # (leading monomial, L, F, gap, index i), per element
    syzygies = []  # (index i, signature vector s) of the reductions to zero
    last = None
    while heap:
        key, i, s, j = heapq.heappop(heap)
        if j < 0:
            # input i: no smaller signature divides e_i, so no criterion
            # applies; with no regular divisor of its leading monomial it joins
            # as it is, since tail reduction is optional
            r, lt, f_ints = inputs[i], input_leads[i], input_ints[i]
            gap, cofactor = no_gap, unit
            reduce = any(
                all(map(le, lead, lt)) and (tuple(map(add, key, g_gap)), g_i) < (key, i)
                for lead, _, _, g_gap, g_i in prepared
            )
        else:
            gap = labels[j][2]
            if (
                (key, i) == last  # one J-pair per signature
                or _syzygy_divides(i, s, syzygies)
                or _covered(i, s, gap, labels)
            ):
                continue
            f_ints, cofactor, reduce = prepared[j][2], _cofactor(s, labels[j][1]), True
        last = key, i
        r_gap = gap
        if reduce:
            ints = regular_remainder(cofactor, f_ints, prepared, last, ordering)
            if not ints:
                syzygies.append((i, s))
                continue
            r, f_ints = _monic_remainder(n, ints)
            lt = next(iter(f_ints))
            r_gap = tuple(map(sub, key, sort_key(lt)))
            if not r_gap > gap:
                raise DivisionInvariantError(
                    f"regular reduction left the leading monomial {lt!r} at or "
                    "above that of the element it reduced"
                )
        if lt.is_unit():
            return [r]
        label = (i, s, r_gap, lt)
        for old, old_label in enumerate(labels):
            _push_j_pair(heap, sort_key, len(labels), label, old, old_label)
        basis.append(r)
        labels.append(label)
        prepared.append(_entry(f_ints, lt, r_gap, i))
    return basis


def _push_j_pair(heap, sort_key, new, new_label, old, old_label):
    """Push the J-pair of two elements: the multiple of the one whose
    multiple to the lcm of their leading monomials has the larger signature.

    Both multiples share the lcm, so their signature keys are sort_key(lcm)
    plus their gaps: the larger (gap, index) wins, and equal ones give none.
    """
    lcm = tuple(map(max, new_label[3], old_label[3]))
    mine, theirs = (new_label[2], new_label[0]), (old_label[2], old_label[0])
    if mine == theirs:
        return
    source, (i, s, gap, lead) = (new, new_label) if mine > theirs else (old, old_label)
    key = tuple(map(add, sort_key(lcm), gap))
    heapq.heappush(heap, (key, i, tuple(map(add, s, map(sub, lcm, lead))), source))


def _syzygy_divides(i, s, syzygies):
    """Syzygy criterion: a signature of a reduction to zero divides s * e_i."""
    return any(h_i == i and all(map(le, h, s)) for h_i, h in syzygies)


def _covered(i, s, gap, labels):
    """Cover criterion: an element whose signature divides s * e_i has a
    multiple of that signature with a smaller leading monomial."""
    return any(
        l_i == i and l_gap > gap and all(map(le, l_s, s)) for l_i, l_s, l_gap, _ in labels
    )


def reduce_basis(basis):
    """Canonical form of a Groebner basis: monic, minimal, fully tail-reduced.

    No surviving element has any support monomial divisible by another
    element's leading monomial; the ideal and its leading-term ideal are
    unchanged.  Output is sorted by leading monomial, greatest first.

    Elements already monic are kept as they are, and only an element with a
    term that another kept leading monomial divides is divided (through
    ``divide``): for any other, the remainder would be the element itself.
    """
    ordering = basis.ordering
    elems = []  # (sort key of the leading monomial, the monomial, monic element)
    for e in basis.elements:
        if e:
            mono, lc = leading_term(e, ordering)
            elems.append((ordering.sort_key(mono), mono, e if lc == 1 else e * (1 / lc)))

    # drop every element whose leading monomial another one divides;
    # ascending order means candidate divisors are always seen first
    elems.sort(key=itemgetter(0))
    kept = []
    kept_leads = []
    for _, lead, e in elems:
        if not any(all(map(le, other, lead)) for other in kept_leads):
            kept.append(e)
            kept_leads.append(lead)

    # One pass suffices: no kept leading monomial divides another, so each
    # element keeps its monic leading term through its reduction, the set of
    # leading monomials never changes, and a remainder stays irreducible
    # however the others are reduced after it.
    for idx, e in enumerate(kept):
        others = kept_leads[:idx] + kept_leads[idx + 1 :]
        if any(all(map(le, other, m)) for m in e.terms for other in others):
            kept[idx] = divide(e, kept[:idx] + kept[idx + 1 :], ordering).remainder

    kept.reverse()  # greatest leading monomial first
    return GroebnerBasis(tuple(kept), ordering, basis.generators)


def is_groebner(elements, ordering):
    """True iff every S-pair the chain criterion leaves reduces to zero.

    The pairs are reduced by increasing lcm, and the test stops at the first
    nonzero remainder.  Each nonzero element is prepared once per call.
    """
    basis = [e for e in _check_elements(elements) if e]
    return _groebner_verdict(
        [_int_form(e)[2] for e in basis],
        [leading_term(e, ordering).monomial for e in basis],
        ordering.sort_key,
    )


def _groebner_verdict(forms, leads, sort_key):
    """The verdict of ``is_groebner`` on nonzero elements given by their int
    forms and leading monomials, in list order, under the ordering whose
    ``sort_key`` is given.  Each enters as its ``division._entry``, and each
    S-pair is reduced in ints by ``division._reduce``, remainder only: its
    int remainder is a nonzero multiple of the true one, or empty.
    """
    entries = [_entry(f, lead) for f, lead in zip(forms, leads)]
    pending = {}  # (i, t) -> lcm of the pair still to be reduced, as a tuple
    for t, lt_t in enumerate(leads):
        # B_k: lt_t divides the lcm of (i, j), and neither (i, t) nor (j, t)
        # has that same lcm, so the chain i - t - j covers the pair
        for (i, j), lcm in list(pending.items()):
            if (
                all(map(le, lt_t, lcm))
                and tuple(map(max, leads[i], lt_t)) != lcm
                and tuple(map(max, leads[j], lt_t)) != lcm
            ):
                del pending[i, j]
        # M/F: of the new pairs, keep the newest one per lcm, and only when
        # no other new lcm properly divides it
        newest = {tuple(map(max, leads[i], lt_t)): i for i in range(t)}
        for lcm, i in newest.items():
            if not any(other != lcm and all(map(le, other, lcm)) for other in newest):
                pending[i, t] = lcm
    pairs = sorted((sort_key(lcm), t, i) for (i, t), lcm in pending.items())
    return not any(
        _reduce(_s_pair_ints(entries[i], entries[t]), 1, entries, sort_key, None, None, None)[0]
        for _, t, i in pairs
    )


def ideal_member(w, basis):
    """Membership test for the left ideal with the given Groebner basis."""
    return not divide(w, list(basis.elements), basis.ordering).remainder
