"""Acyclic orientations, source-to-sink equivalence, and toric posets.

A toric poset over a graph G is an equivalence class of acyclic
orientations of G under converting sources into sinks (and back); the class
is held here by a representative.  Orientations are stored as a bitmask
over the graph's canonical edge order: bit k set means edge (a, b) with
a < b points a -> b.  That bitstring is also the wire format used in JSON
class reports.

Counts: |Acyc(G)| = T_G(2, 0) and |Acyc(G)/~| = T_G(1, 0), where T_G is the
Tutte polynomial, taken by deletion-contraction of whole parallel classes
(Haggard-Pearce-Royle, *Computing Tutte polynomials*, ACM TOMS 37, 2010);
both are exercised by the test suite.  Acyc(G) is listed by extending
partial orientations that are acyclic by construction, their reachability
held in one packed n x n bit matrix, in time proportional to its size, not
by filtering the 2^E direction masks; flips, restrictions and linear orders
build their orientations without the cycle check, which only the public
constructor runs.

Equivalence is decided by cycle imbalances, with no search (Pretzel,
*On reorienting graphs by pushing down maximal vertices*, Order 3, 1986;
see ``_imbalance``), which the listing of Acyc(G) carries edge by edge
for ``toric_classes``; the class BFS ``_class_masks`` runs only where
members are listed.

Toric chains, the toric transitive closure and the toric Hasse diagram are
decided by closed criteria on one pass of reachability bitsets of the
representative (Develin-Macauley-Reiner, *Toric partial orders*, Trans.
AMS 368, 2016), with no path search and no listing of total toric
extensions; the closure is gathered on one bit row per vertex.  The test
suite checks each against a search-based route.
Only the total toric extensions, a set that must be listed, are listed,
by the constant-amortized-time enumerator of linear extensions that also
lists the words of heaps (``_linear_orders``).  That order kernel lives in
``orders``, below this module and ``heaps``, and the default class cap in
``errors``; both keep their names here by import.  ``heaps`` imports this
module only when it first builds the graph of a word.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_CLASS_CAP, ClassCapExceeded, GraphMismatch, NotAcyclic, NotASink, NotASource, TooLarge
from .orders import _bits, _least_order, _linear_orders
from .records import Record, _set

MAX_ENUM_EDGES = 24  # bound on the graphs whose acyclic orientations are listed or counted
MAX_TOTAL_ORDER_VERTICES = 10


class Graph(Record):
    """Undirected simple graph on vertices 0..n-1 with a canonical edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        _set(self, "n", n)
        _set(self, "edges", edges)
        seen = set()
        for a, b in edges:
            if not (0 <= a < b < n):
                raise ValueError(f"edge {(a, b)} must be an increasing pair of vertices")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge {(a, b)}")
            seen.add((a, b))
        if tuple(sorted(edges)) != edges:
            raise ValueError("edges must be sorted")

    @cached_property
    def incident(self) -> tuple[int, ...]:
        """incident[v] = bitmask of edge indices touching v."""
        out = [0] * self.n
        for k, (a, b) in enumerate(self.edges):
            out[a] |= 1 << k
            out[b] |= 1 << k
        return tuple(out)

    @cached_property
    def low_pattern(self) -> tuple[int, ...]:
        """low_pattern[v] = bitmask of incident edges where v is the low end."""
        out = [0] * self.n
        for k, (a, b) in enumerate(self.edges):
            out[a] |= 1 << k
        return tuple(out)

    @cached_property
    def cycle_basis(self) -> tuple[tuple[int, int], ...]:
        """One fundamental cycle of a breadth-first spanning forest per edge
        (a, b) off the forest, run a -> b and back through the forest, as two
        edge masks: the edges it runs low -> high (with it) and the others."""
        # the forest path from v to its root: edges run low -> high, high -> low
        rise, fall = [0] * self.n, [0] * self.n
        seen = forest = 0
        for root in range(self.n):
            queue = [] if seen >> root & 1 else [root]
            seen |= 1 << root
            for u in queue:
                for k in _bits(self.incident[u] & ~forest):
                    v = sum(self.edges[k]) - u  # the other end
                    if not seen >> v & 1:
                        seen, forest = seen | 1 << v, forest | 1 << k
                        up = v < u
                        rise[v], fall[v] = rise[u] | up << k, fall[u] | (not up) << k
                        queue.append(v)
        basis = []
        for k in _bits((1 << len(self.edges)) - 1 & ~forest):
            a, b = self.edges[k]  # a -> b, up from b to where the paths meet, down to a
            with_ = 1 << k | rise[b] & ~rise[a] | fall[a] & ~fall[b]
            basis.append((with_, fall[b] & ~fall[a] | rise[a] & ~rise[b]))
        return tuple(basis)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    norm = sorted({(min(a, b), max(a, b)) for a, b in edges})
    return Graph(n, tuple(norm))


class AcyclicOrientation(Record):
    """An orientation of a graph, checked acyclic on construction."""

    graph: Graph
    forward: int  # bit k set: edges[k] points low -> high

    def __init__(self, graph: Graph, forward: int):
        _set(self, "graph", graph)
        _set(self, "forward", forward)
        if forward >> len(graph.edges):
            raise ValueError("direction mask has bits beyond the edge list")
        if _has_cycle(graph, forward):
            raise NotAcyclic("orientation contains a directed cycle")

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for k, (a, b) in enumerate(self.graph.edges):
            out.append((a, b) if self.forward >> k & 1 else (b, a))
        return tuple(out)

    def is_source(self, v: int) -> bool:
        g = self.graph
        return g.incident[v] != 0 and (self.forward & g.incident[v]) == g.low_pattern[v] & g.incident[v]

    def is_sink(self, v: int) -> bool:
        g = self.graph
        inc = g.incident[v]
        return inc != 0 and (self.forward & inc) == inc & ~g.low_pattern[v]

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if self.is_source(v))

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if self.is_sink(v))

    def bitstring(self) -> str:
        """Edge directions over the canonical edge order, '1' = low -> high."""
        return format(self.forward, f"0{len(self.graph.edges)}b")[::-1] if self.graph.edges else ""


def _trusted(graph: Graph, forward: int) -> AcyclicOrientation:
    """An orientation already known to be acyclic, built without the cycle
    check of the public constructor."""
    o = object.__new__(AcyclicOrientation)
    _set(o, "graph", graph)
    _set(o, "forward", forward)
    return o


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """succ[v] = bitmask of the heads of the arcs leaving v."""
    succ = [0] * n
    for a, b in arcs:
        succ[a] |= 1 << b
    return succ


def _imbalance(graph: Graph, forward: int) -> tuple[int, ...]:
    """(#edges run along) - (#against) on each cycle of ``graph.cycle_basis``.

    A flip reverses one edge along and one against each cycle through the
    vertex, so the vector is constant on a toric class.  It is linear on the
    cycle space, so it fixes the imbalance of every cycle, and two acyclic
    orientations with equal vectors are equivalent (Pretzel 1986).  A
    directed cycle C has imbalance +-|C| on C, which no acyclic orientation
    reaches, so matching an acyclic orientation's vector proves acyclicity.
    """
    return tuple(
        2 * ((forward & up).bit_count() - (forward & down).bit_count()) - up.bit_count() + down.bit_count()
        for up, down in graph.cycle_basis
    )


def _has_cycle(graph: Graph, forward: int) -> bool:
    succ = [0] * graph.n
    for k, (a, b) in enumerate(graph.edges):
        if forward >> k & 1:
            succ[a] |= 1 << b
        else:
            succ[b] |= 1 << a
    return _least_order(succ) is None


def _reach(succ: Sequence[int]) -> tuple[list[int], list[int]]:
    """down[v] / up[v]: bitmasks of the vertices that v reaches / that reach
    v along arcs of an acyclic digraph, v itself included, folded in the
    order of ``_least_order``, where each vertex comes after the vertices
    it points to."""
    n = len(succ)
    down = [1 << v for v in range(n)]
    for u in _least_order(succ):
        for v in _bits(succ[u]):
            down[u] |= down[v]
    up = [0] * n
    for u in range(n):
        for v in _bits(down[u]):
            up[v] |= 1 << u
    return down, up


def _on_toric_path(down: Sequence[int], up: Sequence[int], arcs: Iterable[tuple[int, int]], targets: int) -> bool:
    """Whether the vertex set ``targets`` lies on a toric directed path.

    Closed criterion: the set is a chain under reachability, and some arc
    a -> b has all of it in the interval [a, b].  The chain, padded by paths
    from a and to b, is a directed a -> b path that the arc a -> b closes;
    conversely a closed path's vertices lie in [a, b] and are totally
    ordered (Develin-Macauley-Reiner 2016).
    """
    if any(targets & ~(down[v] | up[v]) for v in _bits(targets)):
        return False
    return any(not targets & ~(down[a] & up[b]) for a, b in arcs)


def orientation_from_pairs(graph: Graph, pairs: Iterable[tuple[int, int]]) -> AcyclicOrientation:
    """Build an orientation from explicit directed pairs (one per edge)."""
    index = {e: k for k, e in enumerate(graph.edges)}
    mask = 0
    covered = set()
    for u, v in pairs:
        key = (u, v) if u < v else (v, u)
        if key not in index:
            raise ValueError(f"{(u, v)} is not an edge of the graph")
        if key in covered:
            raise ValueError(f"edge {key} directed twice")
        covered.add(key)
        if u < v:
            mask |= 1 << index[key]
    if len(covered) != len(graph.edges):
        raise ValueError("every edge needs a direction")
    return AcyclicOrientation(graph, mask)


def orientation_from_linear_order(graph: Graph, order: Sequence[int]) -> AcyclicOrientation:
    """Orient every edge from the earlier to the later vertex of a total order."""
    pos = {v: i for i, v in enumerate(order)}
    if sorted(pos) != list(range(graph.n)):
        raise ValueError("order must list every vertex exactly once")
    mask = 0
    for k, (a, b) in enumerate(graph.edges):
        if pos[a] < pos[b]:
            mask |= 1 << k
    return _trusted(graph, mask)


def _acyclic_masks(graph: Graph) -> list[tuple[int, int]]:
    """Every acyclic orientation as (mask, key), in increasing mask order;
    key packs ``_imbalance`` with one signed digit of base 4E + 1 per basis
    cycle, so equal keys mean equal imbalances.

    Edges are directed from the last in the canonical order to the first,
    b -> a (bit 0) before a -> b (bit 1), which yields increasing masks.
    The reachability of the partial orientation is one packed n x n
    matrix, an integer whose row v, bits v*n .. v*n + n - 1, holds the
    vertices that v reaches so far.  An arc x -> y is admitted unless y
    already reaches x, a one-bit test, and admitting it adds row y to every
    row that holds x in one product, (reach >> x & ones) * row y, exact
    since the n-bit rows cannot carry into each other.  Edges whose
    direction is forced are walked in a loop.  Each admitted partial
    orientation is acyclic and extends along a linear extension, so every
    branch ends in an acyclic orientation and none is tested for cycles:
    the cost is proportional to the output, not to 2^E.  Directing edge k
    low -> high adds weight[k] to the key, which starts at the all-against
    imbalance.
    """
    e, n = len(graph.edges), graph.n
    if e > MAX_ENUM_EDGES:
        raise TooLarge(f"{e} edges exceeds the exhaustive enumeration bound {MAX_ENUM_EDGES}")
    base, weight, start = 4 * e + 1, [0] * e, 0
    for c, (up, down) in enumerate(graph.cycle_basis):
        digit = base ** c
        start += (down.bit_count() - up.bit_count()) * digit
        for k in _bits(up):
            weight[k] += 2 * digit
        for k in _bits(down):
            weight[k] -= 2 * digit
    full, ones = (1 << n) - 1, sum(1 << v * n for v in range(n))
    out = []

    def extend(k: int, forward: int, key: int, reach: int) -> None:
        while k >= 0:
            a, b = graph.edges[k]
            if reach >> a * n + b & 1:  # a -> b is forced and adds no reach; likewise b -> a, bit 0
                forward, key = forward | 1 << k, key + weight[k]
            elif not reach >> b * n + a & 1:  # free: b -> a in a branch, then a -> b in this loop
                extend(k - 1, forward, key, reach | (reach >> b & ones) * (reach >> a * n & full))
                reach |= (reach >> a & ones) * (reach >> b * n & full)
                forward, key = forward | 1 << k, key + weight[k]
            k -= 1
        out.append((forward, key))

    extend(e - 1, 0, start, sum(1 << v * n + v for v in range(n)))
    return out


def all_acyclic_orientations(graph: Graph) -> tuple[AcyclicOrientation, ...]:
    """Every acyclic orientation, in increasing mask order, listed edge by
    edge by ``_acyclic_masks`` with no 2^E filter; the test suite checks the
    result against that filter."""
    return tuple(_trusted(graph, forward) for forward, _ in _acyclic_masks(graph))


def flip_source(o: AcyclicOrientation, v: int) -> AcyclicOrientation:
    """Convert a source vertex into a sink by reversing its edges."""
    if not o.is_source(v):
        raise NotASource(f"vertex {v} is not a source")
    return _trusted(o.graph, o.forward ^ o.graph.incident[v])


def flip_sink(o: AcyclicOrientation, v: int) -> AcyclicOrientation:
    """Convert a sink vertex into a source by reversing its edges."""
    if not o.is_sink(v):
        raise NotASink(f"vertex {v} is not a sink")
    return _trusted(o.graph, o.forward ^ o.graph.incident[v])


def _class_masks(graph: Graph, start: int, cap: int, goal: int | None = None) -> dict[int, int]:
    """BFS closure under source->sink and sink->source conversions.

    The relation is generated by one-directional moves, but the equivalence
    is its symmetric closure; flipping both ways makes the BFS complete.
    Maps each mask to the vertex flipped to reach it first (-1 for start),
    so that mask ^ incident[vertex] is its BFS parent.  Stops once ``goal``
    is reached.  Each vertex with edges is one row (v, incident, the
    pattern of v as a source, as a sink) of a table built once per call.
    """
    flips = [(v, inc, low, inc ^ low) for v, (inc, low) in enumerate(zip(graph.incident, graph.low_pattern)) if inc]
    seen = {start: -1}
    queue = deque([start])
    while queue and goal not in seen:
        mask = queue.popleft()
        for v, inc, low, high in flips:
            cur = mask & inc
            if cur == low or cur == high:  # source or sink
                nxt = mask ^ inc
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise ClassCapExceeded(f"toric class exceeds cap {cap}")
                    seen[nxt] = v
                    queue.append(nxt)
    return seen


def toric_class(o: AcyclicOrientation, cap: int = DEFAULT_CLASS_CAP) -> frozenset[AcyclicOrientation]:
    masks = _class_masks(o.graph, o.forward, cap)
    return frozenset(_trusted(o.graph, m) for m in masks)  # flips keep acyclicity


def toric_classes(graph: Graph) -> tuple[frozenset[AcyclicOrientation], ...]:
    """Partition of Acyc(graph) into toric equivalence classes, grouped by
    cycle imbalances and listed by least member."""
    classes: dict[int, list[AcyclicOrientation]] = {}
    for forward, key in _acyclic_masks(graph):  # in increasing mask order
        classes.setdefault(key, []).append(_trusted(graph, forward))
    return tuple(map(frozenset, classes.values()))


class ToricPoset:
    """A toric poset held by a representative orientation.

    Equality, hashing and membership compare cycle imbalances and list
    nothing.  The members are listed only when asked for, and cached; the
    cap makes a blow-up of that listing a typed error instead of silent
    truncation.
    """

    __slots__ = ("representative", "cap", "_members")

    def __init__(self, representative: AcyclicOrientation, cap: int = DEFAULT_CLASS_CAP):
        self.representative = representative
        self.cap = cap
        self._members: frozenset[AcyclicOrientation] | None = None

    @property
    def graph(self) -> Graph:
        return self.representative.graph

    @property
    def members(self) -> frozenset[AcyclicOrientation]:
        if self._members is None:
            self._members = toric_class(self.representative, self.cap)
        return self._members

    def _invariant(self) -> tuple[int, ...]:
        return _imbalance(self.graph, self.representative.forward)

    def __contains__(self, o: AcyclicOrientation) -> bool:
        return o.graph == self.graph and _imbalance(o.graph, o.forward) == self._invariant()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToricPoset):
            return NotImplemented
        return self.graph == other.graph and self._invariant() == other._invariant()

    def __hash__(self) -> int:
        return hash((self.graph, self._invariant()))

    def __repr__(self) -> str:
        return f"ToricPoset({self.representative.bitstring()!r} on {self.graph.n} vertices)"


def is_toric_directed_path(o: AcyclicOrientation, seq: Sequence[int]) -> bool:
    """A directed path i1 -> ... -> ik whose closing edge i1 -> ik is present.

    Vertices, edges and the empty sequence count as toric directed paths.
    """
    seq = list(seq)
    for v in seq:
        if not 0 <= v < o.graph.n:
            raise IndexError(f"vertex {v} out of range")
    if len(set(seq)) != len(seq):
        return False
    if len(seq) <= 1:
        return True
    directed = set(o.directed_edges())
    if any((a, b) not in directed for a, b in zip(seq, seq[1:])):
        return False
    return (seq[0], seq[-1]) in directed


def is_toric_chain(t: ToricPoset, subset: Iterable[int]) -> bool:
    """True iff the subset lies on a toric directed path of the representative.

    Decided by the closed criterion of ``_on_toric_path``: the subset is a
    chain under reachability and fits in the interval [a, b] of one arc
    a -> b (Develin-Macauley-Reiner 2016).  Singletons and the empty set are
    vacuously toric chains.  The verdict does not depend on the choice of
    representative (exercised in tests).
    """
    targets = frozenset(subset)
    for v in targets:
        if not 0 <= v < t.graph.n:
            raise IndexError(f"vertex {v} out of range")
    if len(targets) <= 1:
        return True
    arcs = t.representative.directed_edges()
    down, up = _reach(_successors(t.graph.n, arcs))
    return _on_toric_path(down, up, arcs, sum(1 << v for v in targets))


def toric_transitive_closure(t: ToricPoset) -> Graph:
    """Add every non-edge whose endpoints form a toric chain.

    A pair is a toric chain exactly when it is comparable and lies in the
    interval I = [a, b] of an arc a -> b, so the closure joins the
    comparable pairs inside each arc's interval: each v in I gets
    I & (down[v] | up[v]) on its bit row, which holds the edges of G as
    well.  The edges are read off the rows in sorted order.
    """
    g = t.graph
    arcs = t.representative.directed_edges()
    down, up = _reach(_successors(g.n, arcs))
    rows = [0] * g.n
    for a, b in arcs:
        inside = down[a] & up[b]
        for v in _bits(inside):
            rows[v] |= inside & (down[v] | up[v])
    return Graph(g.n, tuple((v, w) for v in range(g.n) for w in _bits(rows[v] >> v + 1 << v + 1)))


def _restrict(o: AcyclicOrientation, subgraph: Graph) -> AcyclicOrientation:
    """Forget the directions of edges outside the subgraph, whose edges
    ``is_toric_extension`` has checked are edges of o's graph."""
    index = {e: k for k, e in enumerate(o.graph.edges)}
    mask = 0
    for k, e in enumerate(subgraph.edges):
        if o.forward >> index[e] & 1:
            mask |= 1 << k
    return _trusted(subgraph, mask)  # a subgraph of an acyclic digraph


def toric_hasse(t: ToricPoset) -> Graph:
    """Remove every edge whose removal preserves the total toric extensions.

    Removing e = a -> b preserves them iff e is a bridge, or {a, b} is a
    toric chain of t restricted to G - e (Develin-Macauley-Reiner 2016).
    The order of removal does not matter, so each e is tested against G:
    bridges lie on no cycle of ``Graph.cycle_basis``, and in G - e, c
    reaches a and b reaches d as in G (else a -> b closes a cycle), and a
    reaches b iff another successor of a does.  The test suite checks this
    against the greedy pass that compares total-toric-extension sets.
    """
    g = t.graph
    arcs = t.representative.directed_edges()
    succ = _successors(g.n, arcs)
    down, up = _reach(succ)
    on_cycle = 0
    for with_, against in g.cycle_basis:
        on_cycle |= with_ | against
    keep = []
    for k, (a, b) in enumerate(arcs):
        if on_cycle >> k & 1 and not (
            any(down[x] >> b & 1 for x in _bits(succ[a] ^ 1 << b))  # a reaches b in G - e
            and any((succ[c] ^ (c == a) << b) & down[b] for c in _bits(up[a]))  # an arc c -> d besides e
        ):
            keep.append(g.edges[k])
    return Graph(g.n, tuple(keep))


def is_toric_extension(t_big: ToricPoset, t: ToricPoset) -> bool:
    """Whether t_big (over a supergraph G') torically extends t (over G).

    True iff a member of the larger class restricts on G to a member of the
    smaller class.  Whether "a member" or "every member" makes no
    difference: a source v of G' is a source of the restriction, or has no
    edge in G, so flipping v in G' flips v in G or changes nothing there.
    Restriction thus sends the whole larger class into one class, and the
    representative decides, with no listing.  The test suite checks this
    against the search over the larger class.
    """
    if t_big.graph.n != t.graph.n:
        raise GraphMismatch("toric extension needs a common vertex set")
    if not set(t.graph.edges) <= set(t_big.graph.edges):
        raise GraphMismatch("edges of the smaller graph must be contained in the larger")
    return _restrict(t_big.representative, t.graph) in t


def canonical_cycle(order: Sequence[int]) -> tuple[int, ...]:
    """Rotate a cyclic ordering so its smallest vertex comes first."""
    order = tuple(order)
    if not order:
        return order
    k = order.index(min(order))
    return order[k:] + order[:k]


def _toric_orders(t: ToricPoset, labels: Sequence) -> Iterator[tuple]:
    """The linearizations that start at vertex 0 of the total toric
    extensions of t, read through the labels: the linear orders of each
    class member in which 0 is a source, with 0 made a predecessor of every
    other vertex.  Arcs are read straight off the member's direction mask."""
    g = t.graph
    zero = g.incident[0] if g.n else 0  # edges (0, b): bit set means 0 -> b
    for member in t.members:
        forward = member.forward
        if forward & zero == zero:  # else 0 has an in-edge and starts no order
            preds = [int(v > 0) for v in range(g.n)]
            for k, (a, b) in enumerate(g.edges):
                if forward >> k & 1:
                    preds[b] |= 1 << a
                else:
                    preds[a] |= 1 << b
            yield from _linear_orders(preds, labels)


def total_toric_extensions(t: ToricPoset) -> frozenset[tuple[int, ...]]:
    """All total toric orders extending t, as canonical cyclic orderings.

    A cyclic ordering extends t exactly when one of its linearizations,
    read as an orientation of the complete graph, restricts on G to a class
    member; equivalently it linearizes some member of the class.  Moving
    the first vertex of a linear order to the end flips a source of its
    restriction to G into a sink, so all n linearizations of a cyclic
    ordering restrict into the one class (Develin-Macauley-Reiner 2016).
    Each cyclic ordering is therefore listed once, as its linearization
    that starts at vertex 0 (``_toric_orders``).  The brute-force scan over
    all (n-1)! cyclic orderings is kept in the test suite as an independent
    oracle.
    """
    n = t.graph.n
    if n > MAX_TOTAL_ORDER_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the total-order search bound {MAX_TOTAL_ORDER_VERTICES}")
    return frozenset(_toric_orders(t, range(n)))


def total_toric_order(n: int, order: Sequence[int], cap: int = DEFAULT_CLASS_CAP) -> ToricPoset:
    """The toric poset over K_n represented by a cyclic ordering."""
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return ToricPoset(orientation_from_linear_order(Graph(n, edges), order), cap=cap)


def cycle_imbalance(o: AcyclicOrientation) -> int:
    """On a cycle graph: (#edges oriented with the cycle) - (#against), the
    cycle run from vertex 0 towards its lower neighbour.

    The one-cycle case of ``_imbalance``: constant across a toric class, it
    separates classes that share all their toric chains.
    """
    g = o.graph
    if len(g.edges) != g.n or any(inc.bit_count() != 2 for inc in g.incident) or len(g.cycle_basis) != 1:
        raise ValueError("cycle_imbalance is only defined on cycle graphs")
    ((up, _),) = g.cycle_basis
    first = g.incident[0] & -g.incident[0]  # the edge from 0 to its lower neighbour
    return _imbalance(g, o.forward)[0] * (1 if up & first else -1)


def tutte(graph: Graph, x: int, y: int) -> int:
    """Tutte polynomial T_G(x, y) by deletion-contraction on parallel classes.

    T(2, 0) counts acyclic orientations and T(1, 0) their toric equivalence
    classes.  A multigraph is a sorted tuple of parallel classes ((a, b), k),
    k edges joining a < b, with its vertices relabelled in order of first
    appearance; that tuple is also the memo key.  Its first class, k edges
    joining 0 and 1, is removed whole.  If a bitmask search over the other
    classes does not join 0 to 1, the class is a bridge class and
    T = (x + y + ... + y^(k-1)) T(G / class); else
    T = T(G - class) + (1 + y + ... + y^(k-1)) T(G / class).
    """
    if len(graph.edges) > MAX_ENUM_EDGES:
        raise TooLarge(f"{len(graph.edges)} edges exceeds the Tutte bound {MAX_ENUM_EDGES}")
    memo: dict[tuple, int] = {}

    def canon(classes: Sequence[tuple[tuple[int, int], int]]) -> tuple:
        relabel: dict[int, int] = {}
        out = []
        for (a, b), k in classes:
            a, b = relabel.setdefault(a, len(relabel)), relabel.setdefault(b, len(relabel))
            out.append(((a, b) if a < b else (b, a), k))
        out.sort()
        return tuple(out)

    def rec(state: tuple) -> int:
        if not state:
            return 1
        if state in memo:
            return memo[state]
        (_, k), rest = state[0], state[1:]  # the class joins 0 and 1
        adj = [0] * (2 * len(state))
        merged: dict[tuple[int, int], int] = {}
        for (a, b), j in rest:
            adj[a], adj[b] = adj[a] | 1 << b, adj[b] | 1 << a
            key = (a or 1, b)  # contract 0 into 1; b > 1 when a = 0
            merged[key] = merged.get(key, 0) + j
        seen = frontier = 1
        while frontier and not seen & 2:
            reached = 0
            for v in _bits(frontier):
                reached |= adj[v]
            frontier = reached & ~seen
            seen |= frontier
        loops = sum(y ** i for i in range(1, k))  # y + ... + y^(k-1)
        contracted = rec(canon(sorted(merged.items())))
        if seen & 2:
            val = rec(canon(rest)) + (1 + loops) * contracted
        else:
            val = (x + loops) * contracted
        memo[state] = val
        return val

    return rec(canon([(e, 1) for e in graph.edges]))
