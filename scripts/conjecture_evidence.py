#!/usr/bin/env python3
"""Evidence table for the braid-shortening conjecture.

For faux-CFC words of the shape <s,t>_{m(s,t)} u the conjecture predicts
that <s,t>_{m-2} u is TFC whenever u is torically reduced.  This script
evaluates the probe on a fixed bundle of shapes and prints one row per
case.  Everything below is empirical evidence, not a proof.

The paper's statement of the conjecture is not in this repository, so it
cannot tell which hypothesis on u the paper means: only that u is
torically reduced (``ConjectureProbe.applicable``), or also that u avoids
s and t, as ``tfc_constructor`` requires of its seed.  Each row says
whether u avoids s and t (``ConjectureProbe.seed_avoids_st``), the
tallies count the two kinds apart, and the reading is left to the user.

    PYTHONPATH=src python scripts/conjecture_evidence.py
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
    header = f"{'word':28s} {'seed toric?':12s} {'seed avoids s, t?':18s} {'shortened TFC?':15s} verdict"
    print(header)
    print("-" * len(header))
    tally = {avoids: {"consistent": 0, "COUNTEREXAMPLE": 0} for avoids in (True, False)}
    for g, w in cases():
        try:
            row = conjecture_probe(g, w)
        except ShapeMismatch as exc:
            print(f"{g.format(w):28s} shape mismatch: {exc}")
            continue
        avoids = row.seed_avoids_st
        if not row.applicable:
            verdict = "outside hypothesis"
        else:
            verdict = "consistent" if row.confirmed else "COUNTEREXAMPLE"
            tally[avoids][verdict] += 1
        print(
            f"{g.format(w):28s} {str(row.seed_torically_reduced):12s} {str(avoids):18s} "
            f"{str(row.shortened_tfc):15s} {verdict}"
        )
    for avoids, label in ((True, "avoids s, t"), (False, "uses s or t")):
        counts = tally[avoids]
        print(f"applicable, seed {label}: {counts['consistent']} consistent, "
              f"{counts['COUNTEREXAMPLE']} counterexamples")
    print(f"counterexamples: {sum(counts['COUNTEREXAMPLE'] for counts in tally.values())}")


if __name__ == "__main__":
    main()
