#!/usr/bin/env python3
"""Evidence table for the braid-shortening conjecture.

For faux-CFC words of the shape <s,t>_{m(s,t)} u the conjecture predicts
that <s,t>_{m-2} u is TFC whenever u is torically reduced.  This script
evaluates the probe on a fixed bundle of shapes and prints one row per
case.  Everything below is empirical evidence, not a proof.
"""

from coxheaps import catalog
from coxheaps.classifier import conjecture_probe
from coxheaps.coxgraph import CoxeterGraph
from coxheaps.errors import ShapeMismatch


def cases():
    b2 = catalog.coxeter_graph("B3")
    yield b2, b2.word("s1 s2 s1 s2 s3")
    c3 = catalog.coxeter_graph("C~3")
    yield c3, c3.word("s0 s1 s0 s1 s2 s3 s2 s3")
    paw = CoxeterGraph(
        ["s", "t", "a", "b"],
        [("s", "t", 4), ("t", "a", 3), ("t", "b", 3), ("a", "b", 4)],
    )
    yield paw, paw.word("s t s t a b a")
    c2 = catalog.coxeter_graph("C~2")
    yield c2, c2.word("s0 s1 s0 s1 s2")
    c4 = catalog.coxeter_graph("C~4")
    yield c4, c4.word("s0 s1 s0 s1 s2 s3 s4 s3 s4")


def main():
    print("braid-shortening probe (evidence only, not a theorem)")
    header = f"{'word':28s} {'seed toric?':12s} {'shortened TFC?':15s} verdict"
    print(header)
    print("-" * len(header))
    counterexamples = 0
    for g, w in cases():
        try:
            row = conjecture_probe(g, w)
        except ShapeMismatch as exc:
            print(f"{g.format(w):28s} shape mismatch: {exc}")
            continue
        if not row.applicable:
            verdict = "outside hypothesis"
        elif row.confirmed:
            verdict = "consistent"
        else:
            verdict = "COUNTEREXAMPLE"
            counterexamples += 1
        print(
            f"{g.format(w):28s} {str(row.seed_torically_reduced):12s} "
            f"{str(row.shortened_tfc):15s} {verdict}"
        )
    print(f"counterexamples: {counterexamples}")


if __name__ == "__main__":
    main()
