"""Groebner bases of left ideals for a fixed normal ordering.

Completion is Buchberger-style with left S-pairs: for nonzero u, v and
m = lcm of the leading monomials,

    s_pair(u, v) = (m / ls(u)) * u  -  (m / ls(v)) * v

with each single-term cofactor multiplied on the left.  Leading terms
multiply through products here, so the two top terms cancel exactly; both
products accumulate into one dict through ``weyl.add_product``.  Pairs are
processed by increasing lcm (normal strategy); the commutative coprime-lcm
shortcut is not applied, since its soundness for mixed x/d supports has no
backing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .division import divide, leading_term, monic
from .orderings import Ordering, agree_on
from .weyl import WeylElement, add_product, combined_support


def s_pair(u, v, ordering):
    """Left S-pair of two nonzero elements; leading terms cancel."""
    if not u or not v:
        raise ValueError("S-pair of a zero element is undefined")
    lt_u = leading_term(u, ordering)
    lt_v = leading_term(v, ordering)
    m = lt_u.monomial.lcm(lt_v.monomial)
    out = {}
    add_product(out, 1 / lt_u.coefficient, m / lt_u.monomial, u.terms)
    add_product(out, -1 / lt_v.coefficient, m / lt_v.monomial, v.terms)
    return WeylElement._raw(u.n, out)


@dataclass
class GroebnerBasis:
    elements: tuple
    ordering: Ordering
    generators: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def buchberger(generators, ordering):
    """Complete the generators to a Groebner basis of the left ideal they span.

    Returns the raw completed basis (monic elements, input order preserved);
    apply reduce_basis for the canonical inter-reduced form.
    """
    generators = list(generators)
    basis = []
    for g in generators:
        g = monic(g, ordering)
        if g and g not in basis:
            basis.append(g)
    if not basis:
        return GroebnerBasis((), ordering, tuple(generators))

    pending = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        lt_j = leading_term(basis[j], ordering).monomial
        for i in range(j):
            lcm = leading_term(basis[i], ordering).monomial.lcm(lt_j)
            heapq.heappush(pending, (ordering.sort_key(lcm), counter, i, j))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    while pending:
        _, _, i, j = heapq.heappop(pending)
        s = s_pair(basis[i], basis[j], ordering)
        remainder = divide(s, basis, ordering).remainder
        if remainder:
            basis.append(monic(remainder, ordering))
            push_pairs(len(basis) - 1)

    return GroebnerBasis(tuple(basis), ordering, tuple(generators))


def reduce_basis(basis):
    """Canonical form of a Groebner basis: monic, minimal, fully tail-reduced.

    No surviving element has any support monomial divisible by another
    element's leading monomial; the ideal and its leading-term ideal are
    unchanged.  Output is sorted by leading monomial, greatest first.
    """
    ordering = basis.ordering
    elems = [monic(e, ordering) for e in basis.elements if e]
    if not elems:
        return GroebnerBasis((), ordering, basis.generators)

    # drop every element whose leading monomial another one divides;
    # ascending order means candidate divisors are always seen first
    elems.sort(key=lambda e: ordering.sort_key(leading_term(e, ordering).monomial))
    kept = []
    kept_lts = []
    for e in elems:
        lt_e = leading_term(e, ordering).monomial
        if not any(lt.divides(lt_e) for lt in kept_lts):
            kept.append(e)
            kept_lts.append(lt_e)

    # One pass suffices: no kept leading monomial divides another, so each
    # element keeps its monic leading term through its reduction, the set of
    # leading monomials never changes, and a remainder stays irreducible
    # however the others are reduced after it.
    for idx in range(len(kept)):
        others = kept[:idx] + kept[idx + 1 :]
        kept[idx] = divide(kept[idx], others, ordering).remainder

    kept.reverse()  # greatest leading monomial first
    return GroebnerBasis(tuple(kept), ordering, basis.generators)


def is_groebner(elements, ordering):
    """True iff every S-pair of the nonzero elements reduces to zero."""
    nonzero = [e for e in elements if e]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            s = s_pair(nonzero[i], nonzero[j], ordering)
            if divide(s, nonzero, ordering).remainder:
                return False
    return True


def restriction_stable(elements, ord1, ord2):
    """Do the two orderings agree on the combined support of the elements?

    When they do and the elements form a Groebner basis under ord1, they
    form one under ord2 as well; callers rely on that transfer.
    """
    return agree_on(ord1, ord2, combined_support(elements))


def ideal_member(w, basis):
    """Membership test for the left ideal with the given Groebner basis."""
    return not divide(w, list(basis.elements), basis.ordering).remainder
