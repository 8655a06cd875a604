"""Independent brute-force oracles the engine is checked against.

The product oracle below never uses the closed-form expansion: it rewrites
words letter by letter with the single swap rule

    d_i x_j  ->  x_j d_i  (+ drop the pair when i == j)

until no d stands left of an x, then counts letters.  Slow and obviously
correct, which is the point.  The enumeration oracle decides every
permutation of a support on its own chain's rows instead of pruning
infeasible prefixes, and realizes each one it keeps, the
division oracle rescans and copies the whole working element at every step
where ``divide`` keeps a heap and updates one dict in place, the S-pair
oracle forms both cofactor products with the brute-force rewriter where
``s_pair`` accumulates them into one dict, the completion oracle
reduces every pair where ``buchberger`` drops those the chain criterion
covers, the inter-reduction oracle divides every element by the others
where ``reduce_basis`` divides only those with a reducible term and keeps
elements already monic as they are, the Groebner-test oracle reduces every
pair of its input with ``s_pair`` and ``divide`` where ``is_groebner``
drops pairs by the chain criterion and reduces the rest in ints on forms
prepared once, remainder only, and
``solve_inequalities_naive`` runs Fourier-Motzkin on Fraction copies of its
rows, each scaled to ints, and back-substitutes with Fraction sums where
``solve_inequalities`` takes int rows as they are and stays in ints until
the output.  The expression
oracle ``parse_element_naive`` scans the text token by token and builds a
``WeylElement`` for every number, variable, sum and product, left to right,
where ``parse_element`` tokenizes in one pass, works on coefficient dicts and
folds a leading run of atoms into one term.  ``monomial_ops_naive`` works out
``*``, ``/``, ``lcm`` and ``divides`` on plain exponent tuples, one exponent
at a time, where ``Monomial`` maps C builtins over its own tuple.

The commutative twin at the end is a polynomial ring in the 2n commuting
variables X1..Xn, Y1..Yn with its own arithmetic, division and Buchberger
completion.  ``to_commutative`` relabels normal monomials x^a d^b as
commutative monomials X^a Y^b coefficient by coefficient.  It is a module
isomorphism, not a ring map: products must be normalized on the Weyl side
first.  The twin's arithmetic, division and completion are deliberately
written from scratch rather than shared with the engine, so any
disagreement between the two points at the noncommutative product rule and
nothing else.  Only the monomial exponent type and the orderings are shared.
"""

import heapq
import itertools
import math
import re
from fractions import Fraction

from weylgb import (
    GroebnerBasis,
    Monomial,
    ParseError,
    SupportCapExceeded,
    WeylAlgebra,
    WeylElement,
    divide,
    leading_term,
    universal,
)
from weylgb.division import DivisionInvariantError, DivisionResult, monic
from weylgb.feasibility import Infeasible, _multipliers
from weylgb.groebner import s_pair
from weylgb.universal import DEFAULT_SUPPORT_CAP, Restriction, WeightWitness, _sorted_support


def monomial_ops_naive(a, b):
    """The exponent tuples of a * b, a / b (None unless b divides a) and
    lcm(a, b), and whether b divides a, for plain exponent tuples a and b."""
    product, quotient, lcm = [], [], []
    divides = True
    for u, v in zip(a, b, strict=True):
        product.append(u + v)
        quotient.append(u - v)
        lcm.append(u if u >= v else v)
        if v > u:
            divides = False
    return tuple(product), tuple(quotient) if divides else None, tuple(lcm), divides


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


def s_pair_naive(u, v, ordering):
    """Left S-pair from two brute-force cofactor products and a subtraction."""
    if not u or not v:
        raise ValueError("S-pair of a zero element is undefined")
    lt_u = leading_term(u, ordering)
    lt_v = leading_term(v, ordering)
    m = lt_u.monomial.lcm(lt_v.monomial)
    cof_u = WeylElement.from_term(u.n, m / lt_u.monomial, 1 / lt_u.coefficient)
    cof_v = WeylElement.from_term(v.n, m / lt_v.monomial, 1 / lt_v.coefficient)
    return brute_element_product(cof_u, u) - brute_element_product(cof_v, v)


def buchberger_naive(generators, ordering):
    """Completion that reduces every pair, the slow twin of ``buchberger``.

    No pair is skipped, so it reduces len(basis) * (len(basis) - 1) / 2
    S-pairs for the raw basis it returns.
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


def reduce_basis_naive(basis):
    """The elements of ``reduce_basis(basis)`` from scaling every element and
    dividing every kept element by all the others."""
    ordering = basis.ordering
    elems = [e * (1 / leading_term(e, ordering).coefficient) for e in basis.elements if e]
    elems.sort(key=lambda e: ordering.sort_key(leading_term(e, ordering).monomial))
    kept = []
    for e in elems:
        lead = leading_term(e, ordering).monomial
        if not any(leading_term(k, ordering).monomial.divides(lead) for k in kept):
            kept.append(e)
    for idx in range(len(kept)):
        kept[idx] = divide(kept[idx], kept[:idx] + kept[idx + 1 :], ordering).remainder
    return tuple(reversed(kept))


def is_groebner_naive(elements, ordering):
    """True iff every S-pair of the nonzero elements reduces to zero."""
    nonzero = [e for e in elements if e]
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            s = s_pair(nonzero[i], nonzero[j], ordering)
            if divide(s, nonzero, ordering).remainder:
                return False
    return True


def enumerate_restrictions_naive(support, max_support=DEFAULT_SUPPORT_CAP):
    """Filter all |support|! permutations; the oracle twin of the pruned search.

    Each permutation is decided by ``solve_orthant`` on its own chain's rows,
    and only a kept one is realized, through ``realize_restriction``.
    """
    support = _sorted_support(support)
    if len(support) > max_support:
        raise SupportCapExceeded(len(support), max_support)
    num_vars = len(support[0])
    out = []
    for perm in itertools.permutations(support):
        rows = [universal._below_row(low, high) for low, high in zip(perm, perm[1:])]
        if universal.solve_orthant(rows, num_vars) is not None:
            restriction = Restriction(perm)
            witness = universal.realize_restriction(restriction)
            assert isinstance(witness, WeightWitness), witness
            out.append((restriction, witness))
    return out


def solve_inequalities_naive(rows, num_vars):
    """The all-Fraction solver, the slow twin of ``solve_inequalities``.

    Find w with coeffs . w >= rhs for every row, or an Infeasible certificate.

    ``rows`` is a sequence of (coeffs, rhs) pairs with len(coeffs) == num_vars.
    Nonnegativity of the variables is NOT implied; append nonneg_rows() when
    wanted, so the certificate covers those constraints too.
    """
    original = tuple(
        (tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows
    )
    for coeffs, _ in original:
        if len(coeffs) != num_vars:
            raise ValueError("row width does not match num_vars")

    # origin[row] is (i, g) when g * row == scales[i] * original[i], and
    # (p, q, b, a, g) when g * row == b * p + a * q: the first derivation of
    # each distinct row, inserted after the rows it came from.
    scales = [math.lcm(*(f.denominator for f in c + (r,))) for c, r in original]
    stage, origin = [], {}
    for i, ((coeffs, rhs), s) in enumerate(zip(original, scales)):
        row, g = _normalize(tuple(int(c * s) for c in coeffs), int(rhs * s))
        if row not in origin:
            origin[row] = (i, g)
            if _contradicts(row):
                return Infeasible(original, _multipliers(row, origin, scales))
            stage.append(row)

    # stages[k] still involves variables 0 .. num_vars-1-k
    stages = [stage]
    for var in range(num_vars - 1, -1, -1):
        pos = [r for r in stage if r[0][var] > 0]
        neg = [r for r in stage if r[0][var] < 0]
        stage = [r for r in stage if r[0][var] == 0]
        seen = set(stage)
        for p in pos:
            for q in neg:
                a, b = p[0][var], -q[0][var]
                row, g = _normalize(
                    tuple(b * x + a * y for x, y in zip(p[0], q[0])), b * p[1] + a * q[1]
                )
                if row not in seen:
                    origin.setdefault(row, (p, q, b, a, g))
                    if _contradicts(row):
                        return Infeasible(original, _multipliers(row, origin, scales))
                    seen.add(row)
                    stage.append(row)
        stages.append(stage)

    solution = [Fraction(0)] * num_vars
    for var in range(num_vars):
        stage = stages[num_vars - 1 - var]
        lowers, uppers = [], []
        for coeffs, rhs in stage:
            c = coeffs[var]
            if c == 0:
                continue
            residual = Fraction(rhs) - sum(
                coeffs[k] * solution[k] for k in range(var)
            )
            (lowers if c > 0 else uppers).append(residual / c)
        if lowers:
            solution[var] = max(lowers)
        elif uppers:
            solution[var] = min(min(uppers), Fraction(0))
        else:
            solution[var] = Fraction(0)
    return tuple(Fraction(v) for v in solution)


def _normalize(coeffs, rhs):
    """The row divided by the GCD g of its entries, and g (1 when g <= 1)."""
    g = math.gcd(*coeffs, rhs)
    if g > 1:
        return (tuple(c // g for c in coeffs), rhs // g), g
    return (coeffs, rhs), 1


def _contradicts(row):
    """True for 0 >= rhs with rhs > 0."""
    return row[1] > 0 and not any(row[0])


def divide_naive(w, divisors, ordering, trace=None):
    """The rescan-and-copy division loop, the slow twin of ``divide``.

    Each step finds the working leading term by scanning every term, and
    rebuilds the working element and the quotient with element arithmetic.
    """
    n = w.n
    for f in divisors:
        if f.n != n:
            raise ValueError(f"dimension mismatch: {n} vs {f.n}")
    quotients = [WeylElement.zero(n) for _ in divisors]
    remainder_terms = {}
    leads = [
        (i, leading_term(f, ordering)) for i, f in enumerate(divisors) if f
    ]
    p = w
    previous_key = None
    while p:
        lt_p = leading_term(p, ordering)
        key = ordering.sort_key(lt_p.monomial)
        if previous_key is not None and key >= previous_key:
            raise DivisionInvariantError(
                f"leading monomial {lt_p.monomial!r} did not drop below the "
                "previous one; the ordering is not a normal ordering"
            )
        previous_key = key
        if trace is not None:
            trace.append(lt_p.monomial)
        for i, lt_f in leads:
            if lt_f.monomial.divides(lt_p.monomial):
                cofactor = WeylElement.from_term(
                    n,
                    lt_p.monomial / lt_f.monomial,
                    lt_p.coefficient / lt_f.coefficient,
                )
                quotients[i] = quotients[i] + cofactor
                p = p - cofactor * divisors[i]
                break
        else:
            remainder_terms[lt_p.monomial] = lt_p.coefficient
            p = p - WeylElement.from_term(n, lt_p.monomial, lt_p.coefficient)
    return DivisionResult(quotients, WeylElement(n, remainder_terms))


_NAIVE_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<var>[xd]\d+)|(?P<op>[-+*^()]))"
)


def _tokenize_naive(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _NAIVE_TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _NaiveParser:
    def __init__(self, text, n):
        self.tokens = _tokenize_naive(text)
        self.n = n
        self.algebra = WeylAlgebra(n)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        value = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, text, pos = self.advance()
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer", pos)
            value = value ** int(text)
        return value

    def base(self):
        kind, text, pos = self.advance()
        if kind == "number":
            try:
                coeff = Fraction(text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
            return WeylElement.from_term(self.n, Monomial.unit(self.n), coeff)
        if kind == "var":
            index = int(text[1:])
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable {text!r} out of range for dimension {self.n}", pos
                )
            return (self.algebra.xi if text[0] == "x" else self.algebra.d)(index)
        if (kind, text) == ("op", "("):
            value = self.expr()
            kind, text, pos = self.advance()
            if (kind, text) != ("op", ")"):
                raise ParseError("expected ')'", pos)
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse_element_naive(text, n):
    """``parse_element`` with element arithmetic at every step."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    try:
        return _NaiveParser(text, n).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None


class CommutativePolynomial:
    """Polynomial in the 2n commuting variables X1..Xn, Y1..Yn."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        clean = {}
        for mono, coeff in (terms or {}).items():
            if mono.dimension != n:
                raise ValueError(
                    f"monomial dimension {mono.dimension} does not match n={n}"
                )
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.n = n
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def from_term(cls, n, mono, coeff=1):
        return cls(n, {mono: Fraction(coeff)})

    def support(self):
        return frozenset(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, CommutativePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return CommutativePolynomial(self.n, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, 0) - coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return CommutativePolynomial(self.n, out)

    def __neg__(self):
        return CommutativePolynomial(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CommutativePolynomial):
            out = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    mono = ma * mb
                    acc = out.get(mono, 0) + ca * cb
                    if acc:
                        out[mono] = acc
                    else:
                        out.pop(mono, None)
            return CommutativePolynomial(self.n, out)
        return CommutativePolynomial(
            self.n, {m: c * Fraction(other) for m, c in self.terms.items()}
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self):
        items = ", ".join(
            f"{m.xi}{m.d}: {c}"
            for m, c in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        )
        return f"CommutativePolynomial(n={self.n}, {{{items}}})"


def to_commutative(w: WeylElement) -> CommutativePolynomial:
    """Coefficient-preserving relabeling of basis monomials; linear, bijective."""
    return CommutativePolynomial(w.n, dict(w.terms))


def to_weyl(p: CommutativePolynomial) -> WeylElement:
    return WeylElement(p.n, dict(p.terms))


def induced_ordering(ordering):
    """The matching commutative monomial ordering.

    Exponent comparison is shared between the two sides, so this is the
    identity; it exists as a named hop so tests can state the leading-term
    compatibility of the relabeling explicitly.
    """
    return ordering


def poly_leading(p, ordering):
    if not p:
        raise ValueError("the zero polynomial has no leading term")
    mono = max(p.terms, key=ordering.sort_key)
    return mono, p.terms[mono]


def poly_monic(p, ordering):
    if not p:
        return p
    _, c = poly_leading(p, ordering)
    return p * (1 / c)


def poly_divide(p, divisors, ordering):
    """Commutative division with remainder, first-match divisor selection."""
    quotients = [CommutativePolynomial.zero(p.n) for _ in divisors]
    remainder = CommutativePolynomial.zero(p.n)
    leads = [(i, poly_leading(f, ordering)) for i, f in enumerate(divisors) if f]
    work = p
    while work:
        mono, coeff = poly_leading(work, ordering)
        for i, (lt_m, lt_c) in leads:
            if lt_m.divides(mono):
                t = CommutativePolynomial.from_term(p.n, mono / lt_m, coeff / lt_c)
                quotients[i] = quotients[i] + t
                work = work - t * divisors[i]
                break
        else:
            t = CommutativePolynomial.from_term(p.n, mono, coeff)
            remainder = remainder + t
            work = work - t
    return quotients, remainder


def poly_s_polynomial(f, g, ordering):
    fm, fc = poly_leading(f, ordering)
    gm, gc = poly_leading(g, ordering)
    m = fm.lcm(gm)
    return (
        CommutativePolynomial.from_term(f.n, m / fm, 1 / fc) * f
        - CommutativePolynomial.from_term(g.n, m / gm, 1 / gc) * g
    )


def commutative_buchberger(generators, ordering):
    """Reduced Groebner basis in the commutative polynomial ring."""
    basis = []
    for g in generators:
        g = poly_monic(g, ordering)
        if g and g not in basis:
            basis.append(g)
    if not basis:
        return []

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        pairs.sort(
            key=lambda ij: ordering.sort_key(
                poly_leading(basis[ij[0]], ordering)[0].lcm(
                    poly_leading(basis[ij[1]], ordering)[0]
                )
            )
        )
        i, j = pairs.pop(0)
        s = poly_s_polynomial(basis[i], basis[j], ordering)
        _, r = poly_divide(s, basis, ordering)
        if r:
            basis.append(poly_monic(r, ordering))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    return reduce_commutative_basis(basis, ordering)


def reduce_commutative_basis(basis, ordering):
    """Monic, minimal, tail-reduced form, sorted by leading monomial descending."""
    elems = [poly_monic(p, ordering) for p in basis if p]
    elems.sort(key=lambda p: ordering.sort_key(poly_leading(p, ordering)[0]))
    kept = []
    for p in elems:
        lt_p = poly_leading(p, ordering)[0]
        if not any(poly_leading(q, ordering)[0].divides(lt_p) for q in kept):
            kept.append(p)

    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            _, r = poly_divide(kept[idx], others, ordering)
            r = poly_monic(r, ordering)
            if r != kept[idx]:
                kept[idx] = r
                changed = True

    kept.sort(
        key=lambda p: ordering.sort_key(poly_leading(p, ordering)[0]), reverse=True
    )
    return kept
