"""Record the output digests that the benchmark checks template solves against.

    python3 perfbench/record.py

Solves every template input once (copy 0, no scaling) with the engine in
this checkout and rewrites ``perfbench/expected.json``.  Run it only on a
commit whose outputs are known to be right: a later commit must reproduce
these digests byte for byte.
"""

from __future__ import annotations

import json
import sys

import corpus
import run
from checker import Checker, digest


def main():
    wb, mods = run.import_weylgb()
    out = {}
    for workload in ("ugb", "cert", "gb"):
        checker = Checker(wb, workload, {})
        digests = {}
        for t in corpus.templates(workload):
            elements = [wb.parse_element(s, t.n) for s in t.texts]
            ordering = wb.parse_ordering(t.order, t.n) if t.order else None
            output = run.solve(workload, mods, elements, ordering)
            digests[t.name] = digest(checker.output_text(output))
        out[workload] = digests
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(d) for d in out.values())} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
