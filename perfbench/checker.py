"""Output checks for the weylgb benchmark, run between passes, outside the timing.

A solve fails the check when:

* its output digest differs from the one recorded in ``expected.json``
  (template inputs), or from the digest the same input gave in another pass;
* a cone witness does not reproduce its chain.  This is checked with plain
  dot products, not with ``Ordering.sort_key``;
* a counterexample ordering does not make ``is_groebner`` fail;
* a generator is not an ``ideal_member`` of a ``gb`` basis, or a basis under
  a drawn weight row is not a Groebner basis of the same ideal;
* a torus-scaled copy does not give the scaled image of its template's
  output.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def weight_key(rows):
    """Sort key on exponent vectors for weight rows plus lex, by plain dot products."""
    return lambda vector: tuple(sum(Fraction(q) * e for q, e in zip(row, vector)) for row in rows) + tuple(vector)


def witness_reproduces(weights, chain_vectors):
    keys = [weight_key((weights,))(v) for v in chain_vectors]
    return all(a < b for a, b in zip(keys, keys[1:]))


def scaled(element, scale):
    """Image of an element under x_i -> s_i*x_i, d_i -> d_i/s_i."""
    terms = {}
    for mono, coeff in element.terms.items():
        factor = Fraction(1)
        for s, a, b in zip(scale, mono.xi, mono.d):
            factor *= Fraction(s) ** (a - b)
        terms[mono] = coeff * factor
    return type(element)(element.n, terms)


def normalized(element, rows):
    """element scaled so that its greatest term under rows has coefficient 1."""
    key = weight_key(rows)
    top = max(element.terms, key=lambda m: key(m.vector))
    return element * (1 / element.terms[top])


class Checker:
    """Checks every recorded solve of one workload against its references."""

    def __init__(self, wb, workload, expected):
        self.wb = wb
        self.workload = workload
        self.expected = expected  # template name -> digest
        self.pending = []  # (case, output) recorded since the last check
        self.texts = {}  # case key -> output text of its first checked solve
        self.templates = {}  # template name -> output of its copy 0
        self.failed = []  # (case key, reason), one per failing solve

    def record(self, case, output):
        self.pending.append((case, output))

    # -- digests -------------------------------------------------------------

    def output_text(self, output):
        wb = self.wb
        if isinstance(output, wb.UniversalCertificate):
            return wb.certificate_text(output)
        if isinstance(output, wb.CounterexampleOrdering):
            chain = " < ".join(wb.format_monomial(m) for m in output.restriction.monomials)
            weights = " ".join(str(w) for w in output.witness.weights)
            return f"counterexample: {chain} | weights {weights}\n"
        if isinstance(output, wb.GroebnerBasis):
            lines = [wb.format_ordering(output.ordering)]
            lines += [wb.format_element(e) for e in output.elements]
            return "\n".join(lines) + "\n"
        raise TypeError(f"unexpected output {type(output).__name__}")

    # -- per-solve checks ----------------------------------------------------

    def _cones_ok(self, cert):
        return all(
            cone.verdict == "passed"
            and witness_reproduces(cone.witness.weights, [m.vector for m in cone.restriction.monomials])
            for cone in cert.cones
        )

    def _counterexample_ok(self, elements, cex):
        chain = [m.vector for m in cex.restriction.monomials]
        if not witness_reproduces(cex.witness.weights, chain):
            return False
        return not self.wb.is_groebner(elements, self.wb.Ordering((cex.witness.weights,)))

    def _copy_ok(self, case, output):
        """A scaled copy must give the scaled image of its template's output."""
        wb = self.wb
        ref = self.templates.get(case.template)
        if ref is None or type(ref) is not type(output):
            return False
        if isinstance(output, wb.GroebnerBasis):
            want = [normalized(scaled(e, case.scale), output.ordering.rows) for e in ref.elements]
            return list(output.elements) == want
        if isinstance(output, wb.CounterexampleOrdering):
            return output.restriction == ref.restriction and output.witness == ref.witness
        # certificates: support and cones are those of the template
        if output.support != ref.support or output.cones != ref.cones:
            return False
        if self.workload == "ugb":
            # universal_groebner scales each element to make its graded-lex top term 1
            want = {normalized(scaled(e, case.scale), ((1,) * 2 * case.n,)) for e in ref.basis}
        else:
            want = set(case_elements(wb, case))
        return set(output.basis) == want

    def _gb_ok(self, case, output, elements):
        wb = self.wb
        if not all(wb.ideal_member(g, output) for g in elements):
            return False
        if not case.template.endswith("@drawn"):
            return True
        # a drawn weight row: a Groebner basis of the same ideal as the grlex one
        ref = self.templates.get(case.template.replace("@drawn", "@grlex"))
        if ref is None or not wb.is_groebner(list(output.elements), output.ordering):
            return False
        return all(wb.ideal_member(e, ref) for e in output.elements)

    def check_pending(self):
        """Check the solves recorded since the last call, then drop them.

        Only one text per input and one output per template are kept, so
        the checker's memory does not grow with the number of passes.
        """
        # templates first: their copies are checked against them
        self.pending.sort(key=lambda item: not item[0].key.endswith("#0"))
        for case, output in self.pending:
            if isinstance(output, BaseException):
                self.failed.append((case.key, f"raised {type(output).__name__}: {output}"))
                continue
            text = self.output_text(output)
            reason = self._check_one(case, output, text)
            if reason is None and self.texts.setdefault(case.key, text) != text:
                reason = "output differs between passes"
            if reason:
                self.failed.append((case.key, reason))
            elif case.key.endswith("#0"):
                self.templates.setdefault(case.template, output)
        self.pending = []

    def failures(self):
        """(case key, reason), one for each failing solve checked so far."""
        self.check_pending()
        return list(self.failed)

    def _check_one(self, case, output, text):
        wb = self.wb
        elements = case_elements(wb, case)
        if isinstance(output, wb.UniversalCertificate) and not self._cones_ok(output):
            return "a cone witness does not reproduce its chain"
        if isinstance(output, wb.CounterexampleOrdering) and not self._counterexample_ok(elements, output):
            return "counterexample ordering does not break the S-pair criterion"
        if isinstance(output, wb.GroebnerBasis) and not self._gb_ok(case, output, elements):
            return "basis fails membership or Groebner checks"
        if case.key.endswith("#0"):
            want = self.expected.get(case.template)
            if want is None:
                return "no recorded digest"
            if digest(text) != want:
                return "digest differs from the recorded one"
        elif "#" in case.key and not self._copy_ok(case, output):
            return "scaled copy is not the image of its template's output"
        return None


def case_elements(wb, case):
    return [wb.parse_element(t, case.n) for t in case.texts]
