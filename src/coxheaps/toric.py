"""Acyclic orientations, source-to-sink equivalence, and toric posets.

A toric poset over a graph G is an equivalence class of acyclic
orientations of G under converting sources into sinks (and back); the class
is held here by a representative.  Orientations are stored as a bitmask
over the graph's canonical edge order: bit k set means edge (a, b) with
a < b points a -> b.  That bitstring is also the wire format used in JSON
class reports.

Counts: |Acyc(G)| = T_G(2, 0) and |Acyc(G)/~| = T_G(1, 0), where T_G is the
Tutte polynomial; both are exercised by the test suite.  Acyc(G) is listed
by extending partial orientations that are acyclic by construction, in time
proportional to its size, not by filtering the 2^E direction masks; flips,
restrictions and linear orders build their orientations without the cycle
check, which only the public constructor runs.

Equivalence is decided by cycle imbalances, with no search (Pretzel,
*On reorienting graphs by pushing down maximal vertices*, Order 3, 1986;
see ``_imbalance``); the class BFS ``_class_masks`` runs only where
members are listed.

Toric chains, the toric transitive closure and the toric Hasse diagram are
decided by closed criteria on one pass of reachability bitsets of the
representative (Develin-Macauley-Reiner, *Toric partial orders*, Trans.
AMS 368, 2016), with no path search and no listing of total toric
extensions; the test suite checks each against a search-based route.
Only the total toric extensions, a set that must be listed, are listed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ClassCapExceeded, GraphMismatch, NotAcyclic, NotASink, NotASource, TooLarge

DEFAULT_CLASS_CAP = 1_000_000
MAX_ENUM_EDGES = 24  # bound on the graphs whose acyclic orientations are listed or counted
MAX_TOTAL_ORDER_VERTICES = 10


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with a canonical edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"edge {(a, b)} must be an increasing pair of vertices")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge {(a, b)}")
            seen.add((a, b))
        if tuple(sorted(self.edges)) != self.edges:
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


@dataclass(frozen=True)
class AcyclicOrientation:
    """An orientation of a graph, checked acyclic on construction."""

    graph: Graph
    forward: int  # bit k set: edges[k] points low -> high

    def __post_init__(self):
        if self.forward >> len(self.graph.edges):
            raise ValueError("direction mask has bits beyond the edge list")
        if _has_cycle(self.graph, self.forward):
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
    object.__setattr__(o, "graph", graph)
    object.__setattr__(o, "forward", forward)
    return o


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _successors(n: int, arcs: Iterable[tuple[int, int]]) -> list[int]:
    """succ[v] = bitmask of the heads of the arcs leaving v."""
    succ = [0] * n
    for a, b in arcs:
        succ[a] |= 1 << b
    return succ


def _linear_orders(preds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every order of 0..n-1 that puts each v after the vertices in the
    bitmask preds[v], least first; none if the preds form a cycle.  The
    search is depth first, its stack the order placed so far, so long chains
    need no recursion; each depth resumes after the vertex it last tried.
    Heap extensions, total toric extensions and Coxeter words come from it."""
    n = len(preds)
    full = (1 << n) - 1
    order: list[int] = []
    used = v = 0  # v: the next vertex to try at the current depth
    while True:
        if used == full:
            yield tuple(order)
        else:
            while v < n and (used >> v & 1 or preds[v] & ~used):
                v += 1
            if v < n:
                order.append(v)
                used |= 1 << v
                v = (used + 1 & ~used).bit_length() - 1  # the least vertex not placed
                continue
        if not order:
            return
        v = order.pop()
        used ^= 1 << v
        v += 1


def _sink_layers(succ: Sequence[int]) -> list[int]:
    """Bitmasks of the layers of sinks peeled off a digraph in turn, so that
    every vertex lies in a later layer than each vertex it points to.  The
    layers miss some vertex exactly when the digraph has a directed cycle."""
    layers = []
    left = (1 << len(succ)) - 1
    while left:
        sinks = 0
        for v in _bits(left):
            if not succ[v] & left:
                sinks |= 1 << v
        if not sinks:
            break
        layers.append(sinks)
        left ^= sinks
    return layers


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
    return sum(_sink_layers(succ)) != (1 << graph.n) - 1


def _reach(succ: Sequence[int]) -> tuple[list[int], list[int]]:
    """down[v] / up[v]: bitmasks of the vertices that v reaches / that reach
    v along arcs of an acyclic digraph, v itself included."""
    n = len(succ)
    down = [1 << v for v in range(n)]
    for layer in _sink_layers(succ):
        for u in _bits(layer):
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


def all_acyclic_orientations(graph: Graph) -> tuple[AcyclicOrientation, ...]:
    """Every acyclic orientation, in increasing mask order.

    Edges are directed from the last in the canonical order to the first,
    b -> a (bit 0) before a -> b (bit 1), which yields increasing masks.
    With ``down[v]`` the vertices that v reaches so far, an arc x -> y is
    admitted unless y already reaches x.  Each admitted partial orientation
    is acyclic and extends along a linear extension, so every branch ends in
    an acyclic orientation and none is tested for cycles: the cost is
    proportional to the output, not to 2^E.  The test suite checks the
    result against the 2^E filter.
    """
    e = len(graph.edges)
    if e > MAX_ENUM_EDGES:
        raise TooLarge(f"{e} edges exceeds the exhaustive enumeration bound {MAX_ENUM_EDGES}")
    out = []

    def extend(k: int, forward: int, down: list[int]) -> None:
        if k < 0:
            out.append(_trusted(graph, forward))
            return
        a, b = graph.edges[k]
        if down[a] >> b & 1:  # a -> b is forced and adds no reach; likewise b -> a below
            extend(k - 1, forward | 1 << k, down)
        elif down[b] >> a & 1:
            extend(k - 1, forward, down)
        else:
            for bit, x, y in ((0, b, a), (1, a, b)):
                extend(k - 1, forward | bit << k, [d | down[y] if d >> x & 1 else d for d in down])

    extend(e - 1, 0, [1 << v for v in range(graph.n)])
    return tuple(out)


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
    is reached.
    """
    seen = {start: -1}
    queue = deque([start])
    while queue and goal not in seen:
        mask = queue.popleft()
        for v in range(graph.n):
            inc = graph.incident[v]
            if inc == 0:
                continue
            cur = mask & inc
            low = graph.low_pattern[v] & inc
            if cur == low or cur == inc & ~low:  # source or sink
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
    classes: dict[tuple[int, ...], list[AcyclicOrientation]] = {}
    for o in all_acyclic_orientations(graph):  # in increasing mask order
        classes.setdefault(_imbalance(graph, o.forward), []).append(o)
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
    interval [a, b] of an arc a -> b, so the closure joins the comparable
    pairs inside each arc's interval.
    """
    g = t.graph
    arcs = t.representative.directed_edges()
    down, up = _reach(_successors(g.n, arcs))
    pairs = set(g.edges)
    for a, b in arcs:
        inside = down[a] & up[b]
        for v in _bits(inside):
            pairs.update((v, w) if v < w else (w, v) for w in _bits(inside & down[v] & ~(1 << v)))
    return Graph(g.n, tuple(sorted(pairs)))


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


def total_toric_extensions(t: ToricPoset) -> frozenset[tuple[int, ...]]:
    """All total toric orders extending t, as canonical cyclic orderings.

    A cyclic ordering extends t exactly when one of its linearizations,
    read as an orientation of the complete graph, restricts on G to a class
    member; equivalently it linearizes some member of the class.  Moving
    the first vertex of a linear order to the end flips a source of its
    restriction to G into a sink, so all n linearizations of a cyclic
    ordering restrict into the one class (Develin-Macauley-Reiner 2016).
    Each cyclic ordering is therefore listed once, as its linearization
    that starts at vertex 0, made a predecessor of every other vertex.
    The brute-force scan over all (n-1)! cyclic orderings is kept in the
    test suite as an independent oracle.
    """
    n = t.graph.n
    if n > MAX_TOTAL_ORDER_VERTICES:
        raise TooLarge(f"{n} vertices exceeds the total-order search bound {MAX_TOTAL_ORDER_VERTICES}")
    zero = t.graph.incident[0] if n else 0  # edges (0, b): bit set means 0 -> b
    out: list[tuple[int, ...]] = []
    for member in t.members:
        if member.forward & zero == zero:  # else 0 has an in-edge and starts no order
            preds = _successors(n, ((b, a) for a, b in member.directed_edges()))
            out.extend(_linear_orders([p | 1 if v else p for v, p in enumerate(preds)]))
    return frozenset(out)


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
    """Tutte polynomial T_G(x, y) by deletion-contraction on multigraphs.

    T(2, 0) counts acyclic orientations and T(1, 0) their toric equivalence
    classes.  Contractions are memoized on a relabeled canonical form.
    """
    if len(graph.edges) > MAX_ENUM_EDGES:
        raise TooLarge(f"{len(graph.edges)} edges exceeds the Tutte bound {MAX_ENUM_EDGES}")
    memo: dict[tuple, int] = {}

    def canon(edges: tuple[tuple[int, int], ...]) -> tuple:
        relabel: dict[int, int] = {}
        for a, b in edges:
            for v in (a, b):
                if v not in relabel:
                    relabel[v] = len(relabel)
        return tuple(sorted((min(relabel[a], relabel[b]), max(relabel[a], relabel[b])) for a, b in edges))

    def reaches(edges: tuple[tuple[int, int], ...], a: int, b: int) -> bool:
        """Whether the edges join a to b."""
        seen, stack = {a}, [a]
        while stack:
            v = stack.pop()
            new = {q if p == v else p for p, q in edges if v in (p, q)} - seen
            seen |= new
            stack.extend(new)
        return b in seen

    def rec(edges: tuple[tuple[int, int], ...]) -> int:
        if not edges:
            return 1
        key = canon(edges)
        if key in memo:
            return memo[key]
        a, b = edges[0]
        rest = edges[1:]
        if a == b:  # loop
            val = y * rec(rest)
        else:
            merged = ((b if u == a else u, b if v == a else v) for u, v in rest)
            contracted = rec(tuple(sorted((min(u, v), max(u, v)) for u, v in merged)))
            # deleting a bridge disconnects a from b, and T = x T(G / e)
            val = rec(rest) + contracted if reaches(rest, a, b) else x * contracted
        memo[key] = val
        return val

    return rec(graph.edges)
