"""Heaps of words: labeled posets over a Coxeter graph.

The heap of a word w = s_{x_1} ... s_{x_m} lives on the positions 1..m
(0-based here): positions i < j are joined whenever their letters do not
commute (equal letters included, m = 1), every edge is oriented towards the
larger position, and the heap order is reachability of that orientation.
Each generator's occurrences form a chain (vertex chain) and each bonded
pair's occurrences form a chain (edge chain).

The order is stored as a reachability bit-relation over positions; Python
integers act as unbounded bitsets, so the same code covers any size.  The
words of a heap come from the order kernel in ``orders``, which ``toric``
shares.  This module imports ``toric`` only when ``word_graph`` or
``word_orientation`` first runs, so heaps load without it.  The default
extension cap lives in ``errors`` and is imported here.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .coxgraph import CoxeterGraph, Word
from .errors import DEFAULT_EXTENSION_CAP, ExtensionCapExceeded, GraphMismatch
from .orders import _bits, _linear_orders
from .records import Record, _set

if TYPE_CHECKING:
    from .toric import AcyclicOrientation, Graph


class Heap(Record):
    """Heap of a word: positions 0..m-1, labels word[i], reachability order."""

    graph: CoxeterGraph
    word: Word
    above: tuple[int, ...]  # above[i] = bitmask of positions j with i < j in the order

    def __init__(self, graph: CoxeterGraph, word: Word, above: tuple[int, ...]):
        _set(self, "graph", graph)
        _set(self, "word", word)
        _set(self, "above", above)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.graph, self.word, self.above) == (other.graph, other.word, other.above)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.graph, self.word, self.above))

    @property
    def size(self) -> int:
        return len(self.word)

    def less(self, i: int, j: int) -> bool:
        return bool(self.above[i] >> j & 1)

    @cached_property
    def below(self) -> tuple[int, ...]:
        word, out = self.word, []  # filled forward, as heap_of_word fills above backward
        for j, s in enumerate(word):
            row, acc = self.graph.bond_table[s], 0
            for i in range(j):
                if row[word[i]] != 2:
                    acc |= (1 << i) | out[i]
            out.append(acc)
        return tuple(out)


@cache
def _toric():
    """The ``toric`` module, imported on first use and kept, as an import
    statement run on every call would cost more than the call."""
    from . import toric

    return toric


def word_graph(g: CoxeterGraph, w: Word) -> Graph:
    """Dependency graph of a word: {i, j} joined iff m(w_i, w_j) != 2."""
    word = g.check_word(w)
    m = len(word)
    bond = g.bond_table  # m = 1 on the diagonal, so equal letters are joined
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if bond[word[i]][word[j]] != 2]
    return _toric().Graph(m, tuple(edges))


def word_orientation(g: CoxeterGraph, w: Word) -> AcyclicOrientation:
    """The position-increasing orientation of the word graph, acyclic since
    every edge points to a later position."""
    graph = word_graph(g, w)
    return _toric()._trusted(graph, (1 << len(graph.edges)) - 1)


def heap_of_word(g: CoxeterGraph, w: Word) -> Heap:
    """Heap of any word (reducedness is not required by the construction)."""
    word = g.check_word(w)
    m = len(word)
    above = [0] * m
    for i in range(m - 1, -1, -1):
        acc = 0
        row = g.bond_table[word[i]]
        for j in range(i + 1, m):
            if row[word[j]] != 2:
                acc |= (1 << j) | above[j]
        above[i] = acc
    return Heap(g, word, tuple(above))


def closure_edges(h: Heap) -> tuple[tuple[int, int], ...]:
    """Transitive closure of the order, as directed position pairs."""
    return tuple((i, j) for i in range(h.size) for j in _bits(h.above[i]))


def hasse_edges(h: Heap) -> tuple[tuple[int, int], ...]:
    """Transitive reduction: covers (i, j) with nothing strictly between."""
    out = []
    below = h.below
    for i in range(h.size):
        for j in _bits(h.above[i]):
            if h.above[i] & below[j] == 0:
                out.append((i, j))
    return tuple(out)


def linear_extensions(h: Heap, cap: int = DEFAULT_EXTENSION_CAP) -> frozenset[Word]:
    """All labeled linear extensions of the heap, as words.

    ``orders._linear_orders`` lists the position orders read through the
    word, one word per order; the result is the set L(H) of words whose
    heap is an extension of h, which for the heap of w is the commutativity
    class of w (Cartier-Foata 1969).  More than ``cap`` orders raise
    ExtensionCapExceeded.
    """
    out = set()
    for k, word in enumerate(_linear_orders(h.below, h.word)):
        if k >= cap:
            raise ExtensionCapExceeded(f"more than {cap} linear extensions")
        out.add(word)
    return frozenset(out)


def _convex_windows(h: Heap) -> Iterator[tuple[int, ...]]:
    """The positions of each convex chain of h labelled <s,t>_m, 3 <= m < inf:
    a window of m consecutive alternating {s,t}-occurrences with no other
    letter between its ends in order.  A reduced word is FC iff it has none
    (Stembridge 1996, Prop. 3.3)."""
    word, above = h.word, h.above
    for s, t, m in h.graph.bonds():
        chain = [i for i, x in enumerate(word) if x == s or x == t]
        run = 1
        for k in range(1, len(chain)):
            run = run + 1 if word[chain[k]] != word[chain[k - 1]] else 1
            if run >= m:  # never for m = inf
                first, last = chain[k + 1 - m], chain[k]
                if not any(above[first] >> j & 1 and above[j] >> last & 1
                           for j in range(first + 1, last) if word[j] not in (s, t)):
                    yield tuple(chain[k + 1 - m : k + 1])


def _is_fc(h: Heap) -> bool:
    """Whether the heap of a reduced word is FC: it has no convex window."""
    return next(_convex_windows(h), None) is None


def is_chain(h: Heap, subset: Iterable[int]) -> bool:
    """True iff the positions are totally ordered in the heap."""
    idx = sorted(set(subset))
    for i in idx:
        if not 0 <= i < h.size:
            raise IndexError(f"position {i} out of range")
    return all(h.less(a, b) for a, b in zip(idx, idx[1:]))


def heaps_isomorphic(h1: Heap, h2: Heap) -> bool:
    """Label-preserving order isomorphism test.

    Vertex chains are totally ordered, and occurrences appear in position
    order, so the only candidate sends the k-th occurrence of each letter in
    h1 to its k-th occurrence in h2.
    """
    if h1.graph != h2.graph:
        raise GraphMismatch("heaps live over different Coxeter graphs")
    if sorted(h1.word) != sorted(h2.word):
        return False
    slots = {s: iter([j for j, x in enumerate(h2.word) if x == s]) for s in set(h2.word)}
    sigma = [next(slots[s]) for s in h1.word]
    m = h1.size
    return all(h1.less(i, j) == h2.less(sigma[i], sigma[j]) for i in range(m) for j in range(m) if i != j)
