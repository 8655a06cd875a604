"""Independent brute-force oracles the engine is checked against.

The product oracle below never uses the closed-form expansion: it rewrites
words letter by letter with the single swap rule

    d_i x_j  ->  x_j d_i  (+ drop the pair when i == j)

until no d stands left of an x, then counts letters.  Slow and obviously
correct, which is the point.  The enumeration oracle realizes every
permutation of a support instead of pruning infeasible prefixes.
"""

import itertools
from fractions import Fraction

from weylgb import (
    Monomial,
    Restriction,
    SupportCapExceeded,
    WeightWitness,
    WeylElement,
    realize_restriction,
)
from weylgb.universal import DEFAULT_SUPPORT_CAP, _sorted_support


def _word(mono_left, mono_right):
    letters = []
    for kind, exps in (
        ("x", mono_left.xi),
        ("d", mono_left.d),
        ("x", mono_right.xi),
        ("d", mono_right.d),
    ):
        for i, e in enumerate(exps):
            letters.extend([(kind, i)] * e)
    return tuple(letters)


def _first_inversion(word):
    for p in range(len(word) - 1):
        if word[p][0] == "d" and word[p + 1][0] == "x":
            return p
    return None


def brute_monomial_product(a: Monomial, b: Monomial) -> WeylElement:
    """Normal form of a*b by exhaustive single-swap rewriting."""
    n = a.dimension
    state = {_word(a, b): Fraction(1)}
    while True:
        target = None
        for word in sorted(state):
            pos = _first_inversion(word)
            if pos is not None:
                target = (word, pos)
                break
        if target is None:
            break
        word, pos = target
        coeff = state.pop(word)
        swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
        _accumulate(state, swapped, coeff)
        if word[pos][1] == word[pos + 1][1]:
            _accumulate(state, word[:pos] + word[pos + 2 :], coeff)

    terms = {}
    for word, coeff in state.items():
        xi = [0] * n
        d = [0] * n
        for kind, i in word:
            (xi if kind == "x" else d)[i] += 1
        mono = Monomial(tuple(xi), tuple(d))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return WeylElement(n, terms)


def _accumulate(state, word, coeff):
    acc = state.get(word, Fraction(0)) + coeff
    if acc:
        state[word] = acc
    else:
        state.pop(word, None)


def brute_element_product(u: WeylElement, v: WeylElement) -> WeylElement:
    out = WeylElement.zero(u.n)
    for ma, ca in u.terms.items():
        for mb, cb in v.terms.items():
            out = out + (ca * cb) * brute_monomial_product(ma, mb)
    return out


def enumerate_restrictions_naive(support, max_support=DEFAULT_SUPPORT_CAP):
    """Filter all |support|! permutations; the oracle twin of the pruned search."""
    support = _sorted_support(support)
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support)
    out = []
    for perm in itertools.permutations(support):
        restriction = Restriction(perm)
        witness = realize_restriction(restriction)
        if isinstance(witness, WeightWitness):
            out.append((restriction, witness))
    return out
