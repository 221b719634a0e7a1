#!/usr/bin/env python3
"""Sweep all elements up to a length bound and tabulate verdicts.

Counts elements that are FC / CFC / TFC / faux CFC, and their reduced
words (from each element's own count, without listing them), and lists
the faux-CFC elements next to the diagram's even endpoints.  The observed
pattern (faux CFC only with an even endpoint in the support) is evidence
only, not a theorem.

    python scripts/classify_sweep.py --type B3 --max-len 8
    python scripts/classify_sweep.py --graph graphs/affine_c2.json --max-len 6
"""

import argparse
from collections import Counter

from coxheaps import catalog
from coxheaps.classifier import classify
from coxheaps.coxgraph import INF, load_coxeter_graph, support
from coxheaps.errors import CoxError
from coxheaps.words import elements_up_to


def even_endpoints(g):
    out = []
    for s in range(g.rank):
        nbrs = g.neighbors(s)
        if len(nbrs) == 1:
            m = g.m(s, nbrs[0])
            if m != INF and m % 2 == 0:
                out.append(s)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--type", help="catalog name, e.g. B3 or A~2")
    ap.add_argument("--graph", help="graph JSON file (alternative to --type)")
    ap.add_argument("--max-len", type=int, default=6)
    args = ap.parse_args()
    if bool(args.type) == bool(args.graph):
        ap.error("give exactly one of --type / --graph")
    if args.max_len < 0:
        ap.error("--max-len must be >= 0")
    try:
        g = catalog.coxeter_graph(args.type) if args.type else load_coxeter_graph(args.graph)
    except CoxError as exc:
        ap.error(exc.args[0])

    tally = Counter()
    faux = []
    for rep in sorted(elements_up_to(g, args.max_len)):
        report = classify(g, rep)
        tally["elements"] += 1
        tally["words"] += report.counts["reducedWords"]
        for flag in ("fc", "cfc", "tfc", "faux_cfc", "torically_reduced",
                     "cyclically_reduced"):
            tally[flag] += getattr(report, flag)
        if report.faux_cfc:
            faux.append(rep)

    print(f"diagram: {g!r}")
    print(f"reduced words up to length {args.max_len}: {tally['words']}")
    for key in ("elements", "cyclically_reduced", "torically_reduced",
                "fc", "cfc", "tfc", "faux_cfc"):
        print(f"  {key:22s} {tally[key]}")

    ends = even_endpoints(g)
    print(f"even endpoints: {[g.name(s) for s in ends] or 'none'}")
    if faux:
        print("faux CFC elements (evidence rows for the even-endpoint question):")
        for rep in faux:
            sup = sorted(g.name(s) for s in support(rep))
            has_end = any(s in support(rep) for s in ends)
            flag = "" if has_end else "   <-- no even endpoint in support"
            print(f"  {g.format(rep):40s} support={sup}{flag}")
    else:
        print("no faux CFC elements in range")


if __name__ == "__main__":
    main()
