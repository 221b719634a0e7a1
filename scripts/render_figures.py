#!/usr/bin/env python3
"""Export DOT diagrams for a word: its heap and its toric heap.

    python scripts/render_figures.py --type B3 --word "s3 s1 s2 s1 s2" --out out/

Render the results with graphviz, e.g. ``dot -Tpng out/heap.gv -O``.
"""

import argparse
import pathlib

from coxheaps import catalog
from coxheaps.coxgraph import load_coxeter_graph
from coxheaps.cyclic import toric_heap_of_word
from coxheaps.errors import CoxError
from coxheaps.heaps import heap_of_word
from coxheaps.render import coxeter_graph_to_dot, heap_to_dot, toric_heap_to_dot


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--type", help="catalog name, e.g. B3")
    ap.add_argument("--graph", help="graph JSON file (alternative to --type)")
    ap.add_argument("--word", required=True)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    if bool(args.type) == bool(args.graph):
        ap.error("give exactly one of --type / --graph")
    try:
        g = catalog.coxeter_graph(args.type) if args.type else load_coxeter_graph(args.graph)
        w = g.word(args.word)
    except (KeyError, CoxError) as exc:
        ap.error(exc.args[0])

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "diagram.gv").write_text(coxeter_graph_to_dot(g))
    (out / "heap.gv").write_text(heap_to_dot(heap_of_word(g, w)))
    (out / "toric_heap.gv").write_text(toric_heap_to_dot(toric_heap_of_word(g, w)))
    print(f"wrote {out}/diagram.gv, {out}/heap.gv, {out}/toric_heap.gv")


if __name__ == "__main__":
    main()
