"""Groebner bases of left ideals for a fixed normal ordering.

Completion is Buchberger-style with left S-pairs: for nonzero u, v and
m = lcm of the leading monomials,

    s_pair(u, v) = (m / ls(u)) * u  -  (m / ls(v)) * v

with each single-term cofactor multiplied on the left.  Leading terms
multiply through products here, so the two top terms cancel exactly; both
products accumulate into one dict through ``weyl.add_product``.  Pairs are
processed by increasing lcm (normal strategy).

When an element joins the basis, the Gebauer-Moeller update (Gebauer and
Moeller, "On an installation of Buchberger's algorithm", JSC 6, 1988) drops
pairs by the chain criterion before any of them is reduced:

- B_k: a pending pair whose lcm the new leading monomial divides, unless
  the lcm of either of its elements with the new one equals that lcm;
- M/F: a new pair whose lcm another new pair's lcm properly divides, and
  all but the newest of the new pairs that share one lcm.

The chain criterion holds in G-algebras, the Weyl algebra among them
(Levandovskyy, PhD thesis, Kaiserslautern 2005).  The product criterion
(skip a pair with coprime leading monomials) is not applied: it rests on
the two elements commuting, and it fails for mixed x/d supports, where x1
and d1 have coprime leading monomials and the S-pair 1.  The raw basis can
differ from the one a loop reducing every pair builds, since fewer
remainders join it; the reduced basis cannot, being unique for the
ordering.

Completion and the Groebner test share one pair queue; ``is_groebner``
stops at its first nonzero remainder.  With none, completion returns its
input unchanged, so by its correctness the input is a Groebner basis;
conversely, every S-pair of a Groebner basis reduces to zero.
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


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple
    ordering: Ordering
    generators: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _completion(basis, ordering):
    """Reduce the S-pairs of nonzero ``basis`` the pair update leaves, by lcm.

    Each nonzero remainder joins ``basis``, made monic, and is yielded.
    """
    lts = [leading_term(g, ordering).monomial for g in basis]
    pending = {}  # (i, t) -> lcm of the pair still to be reduced
    heap = []  # (sort key of lcm, t, i); entries of dropped pairs are stale

    def update(t):
        lt_t = lts[t]
        # B_k: lt_t divides the lcm of (i, j), and neither (i, t) nor (j, t)
        # has that same lcm, so the chain i - t - j covers the pair
        for (i, j), lcm in list(pending.items()):
            if (
                lt_t.divides(lcm)
                and lts[i].lcm(lt_t) != lcm
                and lts[j].lcm(lt_t) != lcm
            ):
                del pending[i, j]
        # M/F: of the new pairs, keep the newest one per lcm, and only when
        # no other new lcm properly divides it
        newest = {lts[i].lcm(lt_t): i for i in range(t)}
        for lcm, i in newest.items():
            if not any(other != lcm and other.divides(lcm) for other in newest):
                pending[i, t] = lcm
                heapq.heappush(heap, (ordering.sort_key(lcm), t, i))

    for t in range(len(basis)):
        update(t)

    while heap:
        _, t, i = heapq.heappop(heap)
        if pending.pop((i, t), None) is None:
            continue
        s = s_pair(basis[i], basis[t], ordering)
        remainder = divide(s, basis, ordering).remainder
        if remainder:
            basis.append(monic(remainder, ordering))
            lts.append(leading_term(basis[-1], ordering).monomial)
            update(len(basis) - 1)
            yield basis[-1]


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
    for _ in _completion(basis, ordering):
        pass
    return GroebnerBasis(tuple(basis), ordering, tuple(generators))


def reduce_basis(basis):
    """Canonical form of a Groebner basis: monic, minimal, fully tail-reduced.

    No surviving element has any support monomial divisible by another
    element's leading monomial; the ideal and its leading-term ideal are
    unchanged.  Output is sorted by leading monomial, greatest first.
    """
    ordering = basis.ordering
    elems = [monic(e, ordering) for e in basis.elements if e]

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
    """True iff every S-pair the pair update leaves reduces to zero."""
    return next(_completion([e for e in elements if e], ordering), None) is None


def restriction_stable(elements, ord1, ord2):
    """Do the two orderings agree on the combined support of the elements?

    When they do and the elements form a Groebner basis under ord1, they
    form one under ord2 as well; callers rely on that transfer.
    """
    return agree_on(ord1, ord2, combined_support(elements))


def ideal_member(w, basis):
    """Membership test for the left ideal with the given Groebner basis."""
    return not divide(w, list(basis.elements), basis.ordering).remainder
