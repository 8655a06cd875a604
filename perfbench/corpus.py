"""Seeded workload inputs for the weylgb benchmark, as text.

Every input of a pass is an expression string; the engine only ever sees
what ``weylgb.parse_element`` makes of it.  A pass is a fixed list of
templates, each run ``copies`` times:

* copy 0 is the template itself, whose output digest is recorded in
  ``expected.json``;
* copies 1.. are images of the template under a seeded torus scaling
  ``x_i -> s_i*x_i, d_i -> d_i/s_i`` (an automorphism of the Weyl algebra
  that maps every monomial to a multiple of itself), with s_i = p/q and
  p, q in 1..5.  Supports, S-pairs, FM systems and cones are those of the
  template, so a copy makes the template's operation counts, and costs
  what the template costs, while its coefficients differ from seed to
  seed.

The ``gb`` workload also draws seeded weight rows (entries 0..4) for the
four cheap ideals; they never cost more than a few tens of milliseconds, so
they stay below the quantiles the benchmark reports.

Copy counts are chosen so that one pass has 100 solves and the reported
quantiles (p50 and p90) fall inside a block of solves of the same template
family rather than on the gap between two families: see DESIGN.md.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

SOLVES_PER_PASS = 100


@dataclass(frozen=True)
class Template:
    name: str
    n: int
    texts: tuple
    copies: int
    order: str = ""  # ordering spec, gb only


@dataclass(frozen=True)
class Case:
    """One solve of a pass: parsed by the benchmark, handed to the engine."""

    key: str  # unique within a pass
    template: str  # template name; "<ideal>@drawn" for a drawn weight row
    n: int
    texts: tuple
    scale: tuple  # torus factors s_1..s_n; all 1 for the template itself
    order: str = ""


# The six binomial pairs whose saturation is the expensive path.
SATURATING = {
    "sat1": ("x1^2-x2", "x1*x2-1"),
    "sat2": ("x1^2-d2", "x1*d2-1"),
    "sat3": ("x1^2-x2", "x1*x2-x1-1"),
    "sat4": ("x1^2-x2", "x2^2-x1"),
    "sat5": ("x1*x2-1", "x1+x2"),
    "sat6": ("x1+d2", "x2+d1"),
}

UGB_COPIES = {"sat1": 1, "sat2": 1, "sat3": 1, "sat4": 19, "sat5": 16, "sat6": 49}

# Literal bases for certify_universal.  The ugb_* bases are what
# universal_groebner returns for the saturating pair of the same number,
# the grlex_* bases are the reduced grlex bases of those pairs (not
# universal, so certification ends in a counterexample).
CERT_BASES = [
    ("xd3", 3, ("x1-d1^2", "x2-d2^2", "x3-d3^2"), 1),
    ("ugb_sat1", 2, ("x1^3-1", "x2^3-1", "x1^2-x2", "x1*x2-1", "x2^2-x1"), 1),
    ("ugb_sat2", 2, ("x1^3-1", "d2^3-1", "x1^2-d2", "x1*d2-1", "d2^2-x1"), 1),
    (
        "ugb_sat3",
        2,
        ("x1^3-x1-1", "x2^3-2*x2^2+x2-1", "x1^2-x2", "x1*x2-x1-1", "x2^2-x1-x2"),
        1,
    ),
    ("cyc3", 3, ("x1+d2", "x2+d3", "x3+d1"), 1),
    ("grlex_sat1", 2, ("x1^2-x2", "x1*x2-1", "x2^2-x1"), 6),
    ("grlex_sat2", 2, ("x1^2-d2", "x1*d2-1", "d2^2-x1"), 5),
    ("grlex_sat3", 2, ("x1^2-x2", "x1*x2-x1-1", "x2^2-x1-x2"), 5),
    ("bessel", 2, ("d1^2+d2^2-1", "x1*d2-x2*d1"), 3),
    ("grlex_sat4", 2, ("x1^2-x2", "x2^2-x1"), 12),
    ("grlex_sat5", 2, ("x2^2+1", "x1+x2"), 12),
    ("ugb_sat6", 2, ("x1+d2", "x2+d1"), 16),
    ("xd2", 2, ("x1-d1^2", "x2-d2^2"), 24),
    ("ugb_sat5", 2, ("x1^2+1", "x2^2+1", "x1+x2"), 12),
]

# Structured D-ideals for reduce_basis(buchberger(...)).
D_IDEALS = {
    # GKZ system of the twisted cubic, A = [[1,1,1,1],[0,1,2,3]]
    "gkz4": (
        4,
        (
            "d1*d3-d2^2",
            "d2*d4-d3^2",
            "d1*d4-d2*d3",
            "x1*d1+x2*d2+x3*d3+x4*d4-1/2",
            "x2*d2+2*x3*d3+3*x4*d4-1/3",
        ),
    ),
    # GKZ system of A = [[1,1,1],[0,1,2]]
    "gkz3": (3, ("d1*d3-d2^2", "x1*d1+x2*d2+x3*d3-1/2", "x2*d2+2*x3*d3-1/3")),
    "mix1": (2, ("x1*d1^2+x2*d2^2-1", "d1*d2-x1-x2")),
    "mix2": (2, ("x1*d1^2+x2*d2^2-x1", "d1*d2-x1*x2-1")),
    # Appell F4 with a=1/2, b=1/3, c=2, c'=3/2, written with theta_i = x_i*d_i
    "f4": (
        2,
        (
            "x1*d1*(x1*d1+1)-x1*(x1*d1+x2*d2+1/2)*(x1*d1+x2*d2+1/3)",
            "x2*d2*(x2*d2+1/2)-x2*(x1*d1+x2*d2+1/2)*(x1*d1+x2*d2+1/3)",
        ),
    ),
    # annihilator of the integral of exp(x1*cos t + x2*sin t)
    "bessel": (2, ("d1^2+d2^2-1", "x1*d2-x2*d1")),
    # annihilators of the integrals of exp(t^3/3 + x2*t^2 + x1*t) and
    # exp(-t^4 + x2*t^2 + x1*t)
    "airy": (2, ("d2-d1^2", "d1^2+2*x2*d1+x1")),
    "cusp": (2, ("d2-d1^2", "4*d1^3-2*x2*d1-x1")),
}

GB_RUNS = [
    ("mix2", "grlex", 1),
    ("gkz4", "lex", 1),
    ("mix1", "lex", 1),
    ("mix1", "grlex", 16),
    ("f4", "grlex", 17),
    ("gkz4", "grlex", 20),
    ("gkz3", "grlex", 1),
    ("gkz3", "lex", 1),
    ("bessel", "grlex", 1),
    ("bessel", "lex", 1),
    ("airy", "grlex", 1),
    ("airy", "lex", 1),
    ("cusp", "grlex", 1),
    ("cusp", "lex", 1),
]
DRAWN_ROW_IDEALS = ("gkz3", "bessel", "airy", "cusp")
DRAWN_ROWS_PER_IDEAL = 9


def _term_text(coeff, xi, d):
    factors = []
    for name, exps in (("x", xi), ("d", d)):
        for i, e in enumerate(exps, 1):
            if e:
                factors.append(f"{name}{i}" + (f"^{e}" if e > 1 else ""))
    mag = abs(coeff)
    if not factors:
        return str(mag)
    body = "*".join(factors)
    return body if mag == 1 else f"{mag}*{body}"


def _terms_text(terms):
    """Text of {(xi, d): coefficient}, in insertion order."""
    pieces = [(c < 0, _term_text(c, xi, d)) for (xi, d), c in terms.items()]
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out


def _random_monomial(rng, n, max_degree):
    degree = rng.randint(0, max_degree)
    xi, d = [0] * n, [0] * n
    for _ in range(degree):
        block = rng.choice((xi, d))
        block[rng.randrange(n)] += 1
    return tuple(xi), tuple(d)


def _random_coefficient(rng):
    num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def _random_terms(rng, n, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        # the coefficient is drawn first, as in `terms[mono()] = coeff()`
        coeff = _random_coefficient(rng)
        terms[_random_monomial(rng, n, max_degree)] = coeff
    return terms


def acceptance_ideals():
    """The 13 ideals of the acceptance suite's saturation criteria.

    Same recipe and seed (2026_07) as the suite, replayed call for call on
    the random stream, so the ideals match the suite's without importing it.
    """
    named = [
        ("acc01", 1, ("x1 + d1",)),
        ("acc02", 1, ("x1*d1",)),
        ("acc03", 1, ("x1", "d1")),
    ]
    rng = random.Random(2026_07)
    randoms = []
    while len(randoms) < 10:
        n = rng.randint(1, 2)
        style = rng.randrange(3)
        if style == 0:
            gens = [_random_terms(rng, n, 2, 3)]
        elif style == 1 and n == 1:
            gens = [_random_terms(rng, 1, 2, 2), _random_terms(rng, 1, 2, 2)]
        else:
            gens = []
            for _ in range(2):
                projected = {}
                for (xi, _d), c in _random_terms(rng, n, 2, 2).items():
                    projected[(xi, (0,) * n)] = c
                gens.append(projected)
        texts = tuple(_terms_text(g) for g in gens)
        randoms.append((f"acc{len(randoms) + 4:02d}", n, texts))
    return named + randoms


_VARIABLE = re.compile(r"([xd])(\d+)")


def scaled_text(text, scale):
    """Image of an expression under x_i -> s_i*x_i, d_i -> d_i/s_i."""

    def sub(match):
        s = scale[int(match.group(2)) - 1]
        if s == 1:
            return match.group(0)
        factor = s if match.group(1) == "x" else 1 / s
        return f"({factor}*{match.group(0)})"

    return _VARIABLE.sub(sub, text)


def _draw_scale(rng, n):
    while True:
        scale = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
        if any(s != 1 for s in scale):
            return scale


def templates(workload):
    if workload == "ugb":
        out = [
            Template(name, 2, texts, UGB_COPIES[name])
            for name, texts in SATURATING.items()
        ]
        out += [Template(name, n, texts, 1) for name, n, texts in acceptance_ideals()]
        return out
    if workload == "cert":
        return [Template(name, n, texts, copies) for name, n, texts, copies in CERT_BASES]
    if workload == "gb":
        return [
            Template(f"{ideal}@{order}", D_IDEALS[ideal][0], D_IDEALS[ideal][1], copies, order)
            for ideal, order, copies in GB_RUNS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload, seed):
    """The pass for a workload and seed: a list of Cases in run order.

    The same (workload, seed) always gives the same list.
    """
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    for t in templates(workload):
        ones = (Fraction(1),) * t.n
        cases.append(Case(f"{t.name}#0", t.name, t.n, t.texts, ones, t.order))
        for k in range(1, t.copies):
            scale = _draw_scale(rng, t.n)
            texts = tuple(scaled_text(s, scale) for s in t.texts)
            cases.append(Case(f"{t.name}#{k}", t.name, t.n, texts, scale, t.order))
    if workload == "gb":
        for ideal in DRAWN_ROW_IDEALS:
            n, texts = D_IDEALS[ideal]
            ones = (Fraction(1),) * n
            for j in range(DRAWN_ROWS_PER_IDEAL):
                row = ",".join(str(rng.randint(0, 4)) for _ in range(2 * n))
                order = f"matrix:[[{row}]]"
                cases.append(Case(f"{ideal}@drawn/{j}", f"{ideal}@drawn", n, texts, ones, order))
    if len(cases) != SOLVES_PER_PASS:
        raise AssertionError(f"{workload} pass has {len(cases)} solves, not {SOLVES_PER_PASS}")
    rng.shuffle(cases)
    return cases
