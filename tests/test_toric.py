import json
import math
import os
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coxheaps import catalog
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.cli import main
from coxheaps.errors import ClassCapExceeded, GraphMismatch, NotAcyclic, NotASink, NotASource, TooLarge
from oracles import (
    bfs_toric_classes,
    brute_total_toric_extensions,
    filter_acyclic_orientations,
    search_is_toric_extension,
    subset_tutte,
    walk_cycle_imbalance,
)


def cycle_graph(n):
    return T.graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return T.Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n):
    return T.Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def natural(graph):
    return T.AcyclicOrientation(graph, (1 << len(graph.edges)) - 1)


C4 = cycle_graph(4)
K4 = complete_graph(4)
L4 = path_graph(4)


def test_all_acyclic_orientations_counts():
    assert len(T.all_acyclic_orientations(C4)) == 14
    assert len(T.all_acyclic_orientations(T.Graph(2, ((0, 1),)))) == 2
    assert len(T.all_acyclic_orientations(L4)) == 8


def test_all_acyclic_orientations_too_large():
    big = complete_graph(8)  # 28 edges
    with pytest.raises(TooLarge):
        T.all_acyclic_orientations(big)


def test_enumeration_matches_filter_on_small_graphs():
    # every labelled graph on at most 5 vertices: the same masks in the same order
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            graph = T.Graph(n, tuple(p for k, p in enumerate(pairs) if chosen >> k & 1))
            assert T.all_acyclic_orientations(graph) == filter_acyclic_orientations(graph), graph


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_matches_filter_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.choice((6, 7))
    pairs = list(combinations(range(n), 2))
    graph = T.Graph(n, tuple(sorted(rng.sample(pairs, rng.randint(6, 13)))))  # at most 2^13 masks to filter
    assert T.all_acyclic_orientations(graph) == filter_acyclic_orientations(graph), graph


def test_enumeration_on_k7():
    # 2^21 masks would be too many for the filter, so T_G gives the counts
    k7 = complete_graph(7)
    assert len(T.all_acyclic_orientations(k7)) == T.tutte(k7, 2, 0)
    classes = T.toric_classes(k7)
    assert len(classes) == T.tutte(k7, 1, 0)
    assert {len(c) for c in classes} == {7}  # the 7 linear orders of one cyclic order


def test_orientation_validation():
    tri = cycle_graph(3)
    with pytest.raises(NotAcyclic):
        T.orientation_from_pairs(tri, [(0, 1), (1, 2), (2, 0)])
    o = T.orientation_from_pairs(tri, [(0, 1), (1, 2), (0, 2)])
    assert o.sources() == (0,)
    assert o.sinks() == (2,)
    path = path_graph(3)
    with pytest.raises(ValueError, match="not an edge of the graph"):
        T.orientation_from_pairs(path, [(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="directed twice"):
        T.orientation_from_pairs(path, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="every edge needs a direction"):
        T.orientation_from_pairs(path, [(0, 1)])
    with pytest.raises(ValueError, match="every vertex exactly once"):
        T.orientation_from_linear_order(path, (0, 0, 1))
    with pytest.raises(ValueError, match="bits beyond the edge list"):
        T.AcyclicOrientation(path, 0b100)


def test_graph_validation():
    for edges, message in (
        (((1, 0),), "increasing pair"),
        (((0, 3),), "increasing pair"),
        (((0, 1), (0, 1)), "duplicate edge"),
        (((1, 2), (0, 1)), "must be sorted"),
    ):
        with pytest.raises(ValueError, match=message):
            T.Graph(3, edges)


def test_flip_source():
    path = path_graph(3)
    o = natural(path)  # 0 -> 1 -> 2
    flipped = T.flip_source(o, 0)
    assert set(flipped.directed_edges()) == {(1, 0), (1, 2)}
    with pytest.raises(NotASource):
        T.flip_source(o, 1)
    back = T.flip_sink(flipped, 0)
    assert back == o
    with pytest.raises(NotASink):
        T.flip_sink(o, 1)


def test_flip_source_matches_cyclic_shift():
    # flipping the source of the natural C4 orientation gives the
    # orientation of the once-rotated linear order
    o = T.orientation_from_linear_order(C4, (0, 1, 2, 3))
    shifted = T.orientation_from_linear_order(C4, (1, 2, 3, 0))
    assert T.flip_source(o, 0) == shifted


def test_toric_class_sizes():
    classes = T.toric_classes(C4)
    assert sorted(len(c) for c in classes) == [4, 4, 6]
    tri_classes = T.toric_classes(cycle_graph(3))
    assert [len(c) for c in tri_classes] == [3, 3]
    edge = T.Graph(2, ((0, 1),))
    assert len(T.toric_class(T.AcyclicOrientation(edge, 1))) == 2


def test_toric_classes_partition_and_counts():
    for graph in (C4, K4, L4, cycle_graph(5)):
        orients = T.all_acyclic_orientations(graph)
        classes = T.toric_classes(graph)
        assert sum(len(c) for c in classes) == len(orients)
        assert len(orients) == T.tutte(graph, 2, 0)
        assert len(classes) == T.tutte(graph, 1, 0)
    edgeless = T.Graph(3, ())
    assert len(T.toric_classes(edgeless)) == 1


def test_toric_class_cap():
    with pytest.raises(ClassCapExceeded):
        T.toric_class(natural(C4), cap=2)
    # equality, hashing and membership list no class, so the cap never trips
    t = T.ToricPoset(natural(C4), cap=2)
    assert hash(t) == hash(T.ToricPoset(natural(C4)))
    assert t == T.ToricPoset(T.flip_source(natural(C4), 0), cap=1)
    assert T.flip_source(natural(C4), 0) in t


def test_toric_poset_equality_hash_and_membership_match_listing():
    for graph in (C4, K4, L4, cycle_graph(5), T.Graph(3, ())):
        orients = T.all_acyclic_orientations(graph)
        for o in orients:
            t = T.ToricPoset(o)
            members = t.members
            for other in orients:
                same = other in members
                assert (other in t) == same
                assert (T.ToricPoset(other) == t) == same
                if same:
                    assert hash(T.ToricPoset(other)) == hash(t)
    assert natural(C4) not in T.ToricPoset(natural(K4))
    assert T.ToricPoset(natural(C4)) != T.ToricPoset(natural(L4))


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_imbalance_matches_walk(n):
    rng = random.Random(n)
    labelings = [list(range(n))] + [rng.sample(range(n), n) for _ in range(2)]
    for p in labelings:
        graph = T.graph_from_edges(n, [(p[i], p[(i + 1) % n]) for i in range(n)])
        for o in T.all_acyclic_orientations(graph):
            assert T.cycle_imbalance(o) == walk_cycle_imbalance(o)


def test_cycle_imbalance_rejects_other_graphs():
    two_triangles = T.graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for graph in (L4, K4, two_triangles, T.Graph(0, ())):
        with pytest.raises(ValueError):
            T.cycle_imbalance(T.all_acyclic_orientations(graph)[0])


def test_tutte_values():
    assert T.tutte(C4, 2, 0) == 14
    assert T.tutte(C4, 1, 0) == 3
    assert T.tutte(K4, 1, 0) == 6
    assert T.tutte(T.Graph(3, ()), 5, 7) == 1
    for n in range(2, 8):
        kn = complete_graph(n)
        assert T.tutte(kn, 2, 0) == math.factorial(n)
        assert T.tutte(kn, 1, 0) == math.factorial(n - 1)
    with pytest.raises(TooLarge):
        T.tutte(complete_graph(8), 1, 1)  # 28 edges, past MAX_ENUM_EDGES


def test_tutte_matches_subset_expansion():
    graphs = [T.Graph(n, edges) for n in range(5) for k in range(n * (n - 1) // 2 + 1)
              for edges in combinations(combinations(range(n), 2), k)]
    rng = random.Random(2019)
    for _ in range(12):
        n = rng.randint(5, 7)
        edges = rng.sample(list(combinations(range(n), 2)), rng.randint(0, 10))
        graphs.append(T.Graph(n, tuple(sorted(edges))))
    for graph in graphs:
        for x, y in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, -1), (2, 0), (1, 0)):
            assert T.tutte(graph, x, y) == subset_tutte(graph, x, y), (graph, x, y)


def test_is_toric_directed_path():
    o = natural(C4)
    assert T.is_toric_directed_path(o, [])
    assert T.is_toric_directed_path(o, [2])
    assert T.is_toric_directed_path(o, [0, 1])
    assert T.is_toric_directed_path(o, [0, 1, 2, 3])  # closing edge 0 -> 3
    assert not T.is_toric_directed_path(o, [0, 1, 2])  # no edge {0, 2}
    assert not T.is_toric_directed_path(o, [1, 0])
    with pytest.raises(IndexError):
        T.is_toric_directed_path(o, [9])


C5 = cycle_graph(5)
OMEGA = T.orientation_from_pairs(C5, [(0, 1), (1, 2), (2, 3), (4, 3), (0, 4)])
OMEGA_PRIME = T.orientation_from_pairs(C5, [(0, 1), (1, 2), (3, 2), (4, 3), (0, 4)])


def test_c5_pair_distinct_classes_same_chains():
    t, t2 = T.ToricPoset(OMEGA), T.ToricPoset(OMEGA_PRIME)
    assert t != t2
    assert T.cycle_imbalance(OMEGA) == 1
    assert T.cycle_imbalance(OMEGA_PRIME) == -1

    def chains(tp):
        return {
            frozenset(c)
            for k in range(6)
            for c in combinations(range(5), k)
            if T.is_toric_chain(tp, c)
        }

    ch = chains(t)
    assert ch == chains(t2)
    nonempty = sorted(len(c) for c in ch if c)
    assert nonempty == [1] * 5 + [2] * 5  # vertices and edges only


def test_toric_chain_basics():
    t = T.ToricPoset(OMEGA)
    assert T.is_toric_chain(t, [])
    assert T.is_toric_chain(t, [3])
    with pytest.raises(IndexError):
        T.is_toric_chain(t, [7])


def test_toric_chain_representative_independent():
    for o in (OMEGA, natural(C4), natural(K4)):
        base = T.ToricPoset(o)
        verdicts = {
            c: T.is_toric_chain(base, c)
            for k in range(o.graph.n + 1)
            for c in combinations(range(o.graph.n), k)
        }
        for member in T.toric_class(o):
            other = T.ToricPoset(member)
            for c, expected in verdicts.items():
                assert T.is_toric_chain(other, c) == expected


def test_toric_chains_closed_under_subsets():
    for o in (OMEGA, natural(C4), natural(K4)):
        t = T.ToricPoset(o)
        for k in range(o.graph.n + 1):
            for c in combinations(range(o.graph.n), k):
                if T.is_toric_chain(t, c):
                    for sub in combinations(c, max(len(c) - 1, 0)):
                        assert T.is_toric_chain(t, sub)


B3_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs", "b3.json")
# the reports for the README's B3 word, pinned byte for byte
B3_RESULTS = {
    "hasse": {"edges": [[1, 3], [1, 5], [2, 3], [2, 5], [3, 4], [4, 5]]},
    "closure": {"edges": [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]]},
    "ltor": {"cyclicWords": ["[s1 s2 s1 s2 s3]", "[s1 s2 s1 s3 s2]"]},
}


def test_closure_and_hasse_quadruple(capsys):
    assert T.toric_transitive_closure(T.ToricPoset(natural(C4))) == K4
    assert T.toric_transitive_closure(T.ToricPoset(natural(L4))) == L4
    assert T.toric_hasse(T.ToricPoset(natural(K4))) == C4
    edgeless = T.Graph(3, ())
    t = T.ToricPoset(T.AcyclicOrientation(edgeless, 0))
    assert T.toric_transitive_closure(t) == edgeless
    assert T.toric_hasse(t) == edgeless
    # a tree, or a lone edge, constrains no cyclic order
    star = T.Graph(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
    for tree in (T.Graph(2, ((0, 1),)), L4, star):
        for o in T.all_acyclic_orientations(tree):
            assert T.toric_hasse(T.ToricPoset(o)) == T.Graph(tree.n, ())
    # no 3-element toric chain, yet every edge of C5 is needed
    assert T.toric_hasse(T.ToricPoset(OMEGA)) == C5
    word = "s3 s1 s2 s1 s2"
    for command, result in B3_RESULTS.items():
        assert main(["toric", command, "-g", B3_JSON, word]) == 0
        report = {"schemaVersion": 1, "command": f"toric.{command}",
                  "input": {"graph": B3_JSON, "word": word}, "result": result}
        assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"


W_C2 = T.orientation_from_pairs(C4, [(0, 1), (2, 1), (2, 3), (0, 3)])
W_C3 = T.orientation_from_pairs(C4, [(0, 1), (2, 1), (3, 2), (0, 3)])


def test_total_toric_extensions_examples():
    tte = T.total_toric_extensions(T.ToricPoset(W_C2))
    assert tte == {(0, 2, 1, 3), (0, 2, 3, 1), (0, 1, 3, 2), (0, 3, 1, 2)}
    assert T.total_toric_extensions(T.ToricPoset(natural(C4))) == {(0, 1, 2, 3)}
    two = T.Graph(2, ())
    assert T.total_toric_extensions(T.ToricPoset(T.AcyclicOrientation(two, 0))) == {(0, 1)}


def test_total_toric_extensions_too_large():
    big = T.Graph(11, ())
    with pytest.raises(TooLarge):
        T.total_toric_extensions(T.ToricPoset(T.AcyclicOrientation(big, 0)))


def test_total_toric_extensions_of_total_order_is_itself():
    for order in [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]:
        t = T.total_toric_order(4, order)
        assert T.total_toric_extensions(t) == {T.canonical_cycle(order)}


def test_is_toric_extension_examples():
    t_c2 = T.ToricPoset(W_C2)
    assert T.is_toric_extension(T.total_toric_order(4, (0, 2, 1, 3)), t_c2)
    assert T.is_toric_extension(t_c2, t_c2)
    assert not T.is_toric_extension(T.total_toric_order(4, (0, 1, 2, 3)), T.ToricPoset(W_C3))
    with pytest.raises(GraphMismatch):
        T.is_toric_extension(T.ToricPoset(natural(L4)), T.ToricPoset(natural(C4)))
    with pytest.raises(GraphMismatch, match="common vertex set"):
        T.is_toric_extension(T.ToricPoset(natural(K4)), T.ToricPoset(natural(path_graph(3))))


def test_extension_consistency_with_total_extensions():
    # the total toric extensions are exactly the total orders that extend t
    for o in (W_C2, W_C3, natural(C4), natural(L4)):
        t = T.ToricPoset(o)
        tte = T.total_toric_extensions(t)
        for tail in __import__("itertools").permutations(range(1, 4)):
            cyc = (0,) + tail
            assert (cyc in tte) == T.is_toric_extension(T.total_toric_order(4, cyc), t)


@st.composite
def small_graph_orientation(draw):
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = tuple(sorted(p for p in pairs if draw(st.booleans())))
    graph = T.Graph(n, chosen)
    orients = T.all_acyclic_orientations(graph)
    pick = draw(st.integers(0, len(orients) - 1))
    return orients[pick]


@st.composite
def nested_toric_posets(draw):
    """A toric poset over a random graph G' on at most 6 vertices, and one
    over a random subgraph G; each orientation comes from a vertex order,
    and half the time both come from the same order, so that G' extends G."""
    n = draw(st.integers(1, 6))
    big = tuple(p for p in combinations(range(n), 2) if draw(st.integers(0, 3)))  # dense, so G has cycles
    small = tuple(e for e in big if draw(st.integers(0, 3)))
    order = draw(st.permutations(range(n)))
    small_order = order if draw(st.booleans()) else draw(st.permutations(range(n)))
    return (T.ToricPoset(T.orientation_from_linear_order(T.Graph(n, big), order)),
            T.ToricPoset(T.orientation_from_linear_order(T.Graph(n, small), small_order)))


@given(nested_toric_posets())
@settings(max_examples=150)
def test_toric_extension_matches_class_search(pair):
    # the representative decides: restriction sends the larger class into one class
    t_big, t = pair
    assert T.is_toric_extension(t_big, t) == search_is_toric_extension(t_big, t)
    assert len({T._imbalance(t.graph, T._restrict(o, t.graph).forward) for o in t_big.members}) == 1


@given(small_graph_orientation())
def test_count_laws_random_graphs(o):
    graph = o.graph
    assert len(T.all_acyclic_orientations(graph)) == T.tutte(graph, 2, 0)
    assert len(T.toric_classes(graph)) == T.tutte(graph, 1, 0)


@given(small_graph_orientation())
@settings(max_examples=60)
def test_cycle_imbalances_decide_equivalence(o):
    # the closed invariant against the flip search it replaces
    graph = o.graph
    cls = T._class_masks(graph, o.forward, 10 ** 6)
    goal = T._imbalance(graph, o.forward)
    for other in T.all_acyclic_orientations(graph):
        assert (T._imbalance(graph, other.forward) == goal) == (other.forward in cls)
    assert T.toric_classes(graph) == bfs_toric_classes(graph)


@given(small_graph_orientation())
@settings(max_examples=25)
def test_total_extensions_match_bruteforce(o):
    t = T.ToricPoset(o)
    assert T.total_toric_extensions(t) == brute_total_toric_extensions(t)


@pytest.mark.parametrize("name", ["B3", "A~3"])
def test_total_extensions_match_bruteforce_on_toric_heaps(name):
    g = catalog.coxeter_graph(name)
    rng = random.Random(name)
    for length in range(9):
        for _ in range(3):
            word = []
            while len(word) < length:  # B3's longest element has 9 letters; A~3 is infinite
                s = rng.randrange(g.rank)
                if W.is_reduced(g, word + [s]):
                    word.append(s)
            t = T.ToricPoset(H.word_orientation(g, word))
            assert T.total_toric_extensions(t) == brute_total_toric_extensions(t), word


def test_linear_orders_match_permutation_filter():
    # seeded random DAGs, relabelled so that 0..n-1 need not be an order;
    # the filtered permutations come out least first
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(8)
        label = rng.sample(range(n), n)
        preds = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.35:
                preds[label[j]] |= 1 << label[i]
        arcs = [(u, v) for v in range(n) for u in range(n) if preds[v] >> u & 1]
        want = [p for p in permutations(range(n)) if all(p.index(u) < p.index(v) for u, v in arcs)]
        assert list(T._linear_orders(preds)) == want, preds
    assert list(T._linear_orders([0b10, 0b01, 0])) == []  # a cycle admits no order


def _hasse_with_order(t, edge_order):
    base = T.total_toric_extensions(t)
    keep = list(t.graph.edges)
    for e in edge_order:
        trial = [f for f in keep if f != e]
        sub = T.Graph(t.graph.n, tuple(sorted(trial)))
        t_try = T.ToricPoset(T._restrict(t.representative, sub))
        if T.total_toric_extensions(t_try) == base:
            keep = trial
    return T.Graph(t.graph.n, tuple(sorted(keep)))


def _covering_toric_path_exists(o, targets):
    """Is there a toric directed path whose vertex set covers ``targets``?

    Tries every directed edge (start, goal) as the closing edge and searches
    the simple directed start -> goal paths it closes; a path never reuses
    the closing edge because reaching the goal terminates it.
    """
    adj = {}
    for a, b in o.directed_edges():
        adj.setdefault(a, []).append(b)

    def dfs(cur, goal, visited):
        if cur == goal:
            return targets <= visited
        for nxt in adj.get(cur, ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            if dfs(nxt, goal, visited):
                return True
            visited.remove(nxt)
        return False

    for start, goal in o.directed_edges():
        if targets <= {start, goal}:
            return True  # the edge itself is a two-element toric directed path
        for mid in adj.get(start, ()):
            if mid == goal:
                continue
            if dfs(mid, goal, {start, mid}):
                return True
    return False


@given(small_graph_orientation())
@settings(max_examples=60)
def test_chains_and_closure_match_path_search(o):
    t = T.ToricPoset(o)
    n = o.graph.n
    for k in range(n + 1):
        for c in combinations(range(n), k):
            assert T.is_toric_chain(t, c) == (k <= 1 or _covering_toric_path_exists(o, frozenset(c)))
    closure = {(i, j) for i in range(n) for j in range(i + 1, n) if _covering_toric_path_exists(o, {i, j})}
    assert T.toric_transitive_closure(t) == T.Graph(n, tuple(sorted(closure)))


@given(small_graph_orientation())
@settings(max_examples=60)
def test_toric_hasse_independent_of_removal_order(o):
    # the closed criterion against the greedy pass on total-extension sets
    t = T.ToricPoset(o)
    forward = T.toric_hasse(t)
    assert _hasse_with_order(t, o.graph.edges) == forward
    assert _hasse_with_order(t, tuple(reversed(o.graph.edges))) == forward
    shuffled = random.Random(o.forward).sample(o.graph.edges, len(o.graph.edges))
    assert _hasse_with_order(t, shuffled) == forward


def test_toric_hasse_sweep():
    # every acyclic orientation of every labelled graph on at most 4
    # vertices, and the toric heaps of every word of up to 6 letters in A3,
    # B3 and A~2, each word graph once (its orientation is position order)
    cases = []
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for keep in range(1 << len(pairs)):
            graph = T.Graph(n, tuple(e for k, e in enumerate(pairs) if keep >> k & 1))
            cases.extend(T.all_acyclic_orientations(graph))
    heaps = {}
    for name in ("A3", "B3", "A~2"):
        g = catalog.coxeter_graph(name)
        for length in range(7):
            for word in product(range(g.rank), repeat=length):
                o = H.word_orientation(g, word)
                heaps.setdefault(o.graph, o)
    cases.extend(heaps.values())
    for o in cases:
        t = T.ToricPoset(o)
        assert T.toric_hasse(t) == _hasse_with_order(t, o.graph.edges), o


def test_toric_hasse_beyond_total_order_bound(capsys):
    # 16 letters: the total-order bound of total_toric_extensions does not apply
    g = catalog.coxeter_graph("A~3")
    word = g.word("s1 s3 s2 s4") * 4
    t = T.ToricPoset(H.word_orientation(g, word))
    assert t.graph.n > T.MAX_TOTAL_ORDER_VERTICES
    hasse = T.toric_hasse(t)
    assert set(hasse.edges) < set(t.graph.edges)
    restricted = T.ToricPoset(T._restrict(t.representative, hasse))
    assert T.toric_transitive_closure(restricted) == T.toric_transitive_closure(t)
    path = os.path.join(os.path.dirname(B3_JSON), "affine_a3.json")
    for command in ("hasse", "heap"):
        assert main(["toric", command, "-g", path, g.format(word)]) == 0
        capsys.readouterr()
    with pytest.raises(TooLarge):
        T.total_toric_extensions(t)


@given(small_graph_orientation())
@settings(max_examples=25)
def test_hasse_restriction_preserves_extensions(o):
    t = T.ToricPoset(o)
    hasse = T.toric_hasse(t)
    restricted = T.ToricPoset(T._restrict(o, hasse))
    assert T.total_toric_extensions(restricted) == T.total_toric_extensions(t)


@given(small_graph_orientation())
@settings(max_examples=25)
def test_class_closed_under_flips(o):
    cls = T.toric_class(o)
    for member in cls:
        for v in range(o.graph.n):
            if member.is_source(v):
                assert T.flip_source(member, v) in cls
            if member.is_sink(v):
                assert T.flip_sink(member, v) in cls


@given(small_graph_orientation(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_unchecked_constructions_pass_the_checked_constructor(o, rng):
    def checked(out):
        assert T.AcyclicOrientation(out.graph, out.forward) == out

    graph = o.graph
    for member in T.toric_class(o):
        checked(member)
    for v in o.sources():
        checked(T.flip_source(o, v))
    for v in o.sinks():
        checked(T.flip_sink(o, v))
    checked(T.orientation_from_linear_order(graph, rng.sample(range(graph.n), graph.n)))
    checked(T._restrict(o, T.Graph(graph.n, tuple(e for e in graph.edges if rng.random() < 0.5))))


@pytest.mark.parametrize("name", ["B3", "A~3", "E~6"])
def test_word_orientation_passes_the_checked_constructor(name):
    g = catalog.coxeter_graph(name)
    rng = random.Random(name)
    for length in range(12):
        o = H.word_orientation(g, [rng.randrange(g.rank) for _ in range(length)])
        assert T.AcyclicOrientation(o.graph, o.forward) == o


def test_bitstring_and_json_shape():
    o = natural(C4)
    assert o.bitstring() == "1111"
    assert T.AcyclicOrientation(C4, 0b0110).bitstring() == "0110"[::-1]
