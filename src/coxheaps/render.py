"""Deterministic DOT export for heaps, toric heaps, and orientations.

Node order, edge order, and attribute order are fixed so identical inputs
produce identical bytes.  Positions are printed 1-based ("pos3") to match
the usual way word positions are numbered.  Each function imports what it
calls, so drawing a heap or an orientation loads neither ``toric`` nor
``cyclic``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .coxgraph import CoxeterGraph
    from .cyclic import ToricHeap
    from .heaps import Heap
    from .toric import AcyclicOrientation


def heap_to_dot(h: Heap) -> str:
    from .heaps import hasse_edges

    lines = ["digraph heap {"]
    for i in range(h.size):
        lines.append(f'  pos{i + 1} [label="{h.graph.name(h.word[i])}"];')
    for i, j in sorted(hasse_edges(h)):
        lines.append(f"  pos{i + 1} -> pos{j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def toric_heap_to_dot(t: ToricHeap) -> str:
    """Toric Hasse diagram with labels; wrap edges render like any other."""
    from .toric import toric_hasse

    hasse = toric_hasse(t.poset)
    directed = dict()
    for a, b in t.poset.representative.directed_edges():
        directed[(min(a, b), max(a, b))] = (a, b)
    lines = ["digraph toric_heap {"]
    for i in range(t.size):
        lines.append(f'  pos{i + 1} [label="{t.graph.name(t.word[i])}"];')
    for e in hasse.edges:
        a, b = directed[e]
        lines.append(f"  pos{a + 1} -> pos{b + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def orientation_to_dot(o: AcyclicOrientation, names: tuple[str, ...] | None = None) -> str:
    label = (lambda v: names[v]) if names else (lambda v: f"v{v}")
    lines = ["digraph orientation {"]
    for v in range(o.graph.n):
        lines.append(f'  n{v} [label="{label(v)}"];')
    for a, b in sorted(o.directed_edges(), key=lambda e: (min(e), max(e))):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def coxeter_graph_to_dot(g: CoxeterGraph) -> str:
    """Undirected diagram with bond labels (3 shown too, for clarity)."""
    lines = ["graph coxeter {"]
    for i, name in enumerate(g.generators):
        lines.append(f'  n{i} [label="{name}"];')
    for i, j, m in g.bonds():
        label = "inf" if m == float("inf") else m
        lines.append(f'  n{i} -- n{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
