"""Batch command line: parse expressions, run the engine, print results.

Exit codes: 0 success, 1 usage or input error, 2 computation refused
(support cap, saturation round limit or out of memory), 3 internal error or
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass

from .division import check_division_contract, divide
from .groebner import buchberger, reduce_basis
from .orderings import Ordering
from .parsing import (
    ParseError,
    format_element,
    format_monomial,
    format_ordering,
    parse_element,
    parse_ordering,
)
from .universal import (
    DEFAULT_SUPPORT_CAP,
    CounterexampleOrdering,
    SaturationLimitExceeded,
    SupportCapExceeded,
    _certificate_lines,
    certificate_json,
    certify_universal,
    universal_groebner,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


@dataclass
class ProblemFile:
    """Line-oriented input: n=<int>, order=<spec>, gen=<expr> entries."""

    n: int | None
    order_text: str | None
    generator_texts: list


def parse_problem_file(text):
    n = None
    order_text = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                raise UsageError(f"line {lineno}: bad dimension {value!r}") from None
        elif key == "order":
            order_text = value
        elif key == "gen":
            gens.append(value)
        else:
            raise UsageError(f"line {lineno}: unknown key {key!r}")
    return ProblemFile(n, order_text, gens)


_UNRECOGNIZED = "unrecognized arguments: "


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a single leading '-' is an expression like -x1*d1; '--bogus' is a
        # misspelled flag, where the hint would mislead
        if message.startswith(_UNRECOGNIZED) and any(
            arg.startswith("-") and not arg.startswith("--")
            for arg in message[len(_UNRECOGNIZED) :].split()
        ):
            message += "; put expressions that start with '-' after '--'"
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="weylgb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="algebra dimension")
        p.add_argument(
            "--order",
            default=None,
            help="ordering spec: lex, grlex or matrix:[[q,...];...]",
        )
        p.add_argument("--input", default=None, help="problem file with n/order/gen lines")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--max-support",
            type=int,
            default=DEFAULT_SUPPORT_CAP,
            help="refuse enumerations over supports larger than this",
        )
        p.add_argument("exprs", nargs="*", help="element expressions")

    for name, (desc, *_) in _COMMANDS.items():
        common(sub.add_parser(name, help=desc))
    return parser


def _setup(args):
    """Merge problem file and flags; returns (n, ordering, expression texts)."""
    file_n = None
    file_order = None
    file_gens = []
    if args.input:
        try:
            with open(args.input) as handle:
                problem = parse_problem_file(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from None
        file_n, file_order, file_gens = problem.n, problem.order_text, problem.generator_texts

    n = args.n if args.n is not None else file_n
    if n is None:
        raise UsageError("dimension required: pass --n or an input file with n=")
    if n < 1:
        raise UsageError("dimension must be >= 1")
    if args.max_support < 0:
        raise UsageError("--max-support must be >= 0")

    order_text = args.order if args.order is not None else file_order
    try:
        ordering = parse_ordering(order_text, n) if order_text else Ordering.grlex(n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    texts = file_gens + list(args.exprs)
    return n, ordering, texts


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _run(args):
    """Resolve, count, parse, run and print one command; returns its status.

    Usage errors come in a fixed order: the dimension, the ordering spec, the
    expression count, then each expression as the handler reads it, so that
    a handler's check on one element precedes a parse error in a later one.
    A handler returns (text lines, JSON payload, exit status); the runner
    adds the payload's "command" key.
    """
    _, handler, least, most, needs = _COMMANDS[args.command]
    n, ordering, texts = _setup(args)
    if len(texts) < least or (most is not None and len(texts) > most):
        raise UsageError(f"{args.command} needs {needs}")
    elements = (parse_element(text, n) for text in texts)
    lines, payload, status = handler(args, n, ordering, texts, elements)
    _emit(args, lines, {"command": args.command, **payload})
    return status


def _product(args, n, ordering, texts, elements):
    product = next(elements)
    for e in elements:
        product = product * e
    result = format_element(product)
    return [result], {"n": n, "result": result}, EXIT_OK


def _div(args, n, ordering, texts, elements):
    w, *divisors = elements
    result = divide(w, divisors, ordering)
    report = check_division_contract(w, divisors, ordering, result)

    quotients = [format_element(q) for q in result.quotients]
    remainder = format_element(result.remainder)
    lines = [f"q[{i}] = {q}" for i, q in enumerate(quotients, 1)]
    lines.append(f"r = {remainder}")
    lines.append(f"check (a) exact reconstruction: {'ok' if report.reconstruction else 'FAILED'}")
    lines.append(
        f"check (b) remainder irreducible: {'ok' if report.remainder_irreducible else 'FAILED'}"
    )
    lines.append(f"check (c) quotient term bound: {'ok' if report.quotient_bound else 'FAILED'}")
    payload = {
        "n": n,
        "order": format_ordering(ordering),
        "quotients": quotients,
        "remainder": remainder,
        "contract": {
            "reconstruction": report.reconstruction,
            "remainder_irreducible": report.remainder_irreducible,
            "quotient_bound": report.quotient_bound,
        },
    }
    if report.all_ok():
        return lines, payload, EXIT_OK
    print("internal error; the division contract failed", file=sys.stderr)
    return lines, payload, EXIT_INTERNAL


def _gb(args, n, ordering, texts, elements):
    basis = reduce_basis(buchberger(list(elements), ordering))
    lines = [format_element(e) for e in basis.elements]
    payload = {"n": n, "order": format_ordering(ordering), "basis": lines}
    return lines or ["0"], payload, EXIT_OK


def _ugb(args, n, ordering, texts, elements):
    generators = list(elements)
    if not any(generators):
        raise UsageError("universal basis of the zero ideal is empty; need a nonzero generator")
    data = certificate_json(universal_groebner(generators, max_support=args.max_support))
    return _certificate_lines(data), {"certificate": data}, EXIT_OK


def _cert(args, n, ordering, texts, elements):
    elements = list(elements)
    if not all(elements):
        raise UsageError("certification needs a nonempty list of nonzero elements")
    outcome = certify_universal(elements, max_support=args.max_support)
    if isinstance(outcome, CounterexampleOrdering):
        chain = [format_monomial(m) for m in outcome.restriction.monomials]
        weights = [str(w) for w in outcome.witness.weights]
        lines = [
            "verdict: not universal",
            f"counterexample restriction: {' < '.join(chain)}",
            f"counterexample weights: {' '.join(weights)}",
        ]
        payload = {"verdict": "counterexample", "restriction": chain, "weights": weights}
    else:
        data = certificate_json(outcome)
        lines = _certificate_lines(data)
        payload = {"verdict": "certified", "certificate": data}
    return lines, payload, EXIT_OK


def _cmp(args, n, ordering, texts, elements):
    monos = []
    for text, element in zip(texts, elements):
        if len(element.terms) != 1 or 1 not in element.terms.values():
            raise UsageError(f"cmp expects single monomials, got {text!r}")
        monos.append(next(iter(element.terms)))
    sign = ordering.compare(monos[0], monos[1])
    symbol = {-1: "<", 0: "=", 1: ">"}[sign]
    left, right = format_monomial(monos[0]), format_monomial(monos[1])
    return [f"{left} {symbol} {right}"], {"left": left, "relation": symbol, "right": right}, EXIT_OK


# name: (help, handler, least and most expression count, what the count error
# says the command needs); a most of None sets no upper bound
_COMMANDS = {
    "mul": ("product of the given elements, left to right", _product,
            1, None, "at least one expression"),
    "nf": ("canonical (normal) form of one element", _product,
           1, 1, "exactly one expression"),
    "div": ("divide the first element by the rest; report the contract", _div,
            2, None, "a dividend and at least one divisor"),
    "gb": ("reduced Groebner basis of the generated left ideal", _gb,
           1, None, "at least one generator"),
    "ugb": ("universal Groebner basis with certificate", _ugb,
            1, None, "at least one generator"),
    "cert": ("certify a given basis as universal", _cert,
             1, None, "at least one basis element"),
    "cmp": ("compare two monomials under an ordering", _cmp,
            2, 2, "exactly two monomials"),
}


def main(argv=None):
    """Dispatch a command line; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = _run(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except (UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SupportCapExceeded, SaturationLimitExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return EXIT_REFUSED
    except BrokenPipeError:
        # The result was computed; the reader stopped reading.  Point stdout
        # at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception:
        print("internal error; diagnostics follow", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
