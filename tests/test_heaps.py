import pytest
from hypothesis import given

from conftest import small_system
from coxheaps import catalog
from coxheaps import heaps as H
from coxheaps.errors import ExtensionCapExceeded, GraphMismatch
from coxheaps.render import heap_to_dot
from oracles import brute_heaps_isomorphic, commutativity_class, naive_braid_moves


def test_running_example_heap_covers(b3):
    h = H.heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    assert sorted(H.hasse_edges(h)) == [(0, 2), (1, 2), (2, 3), (3, 4)]
    assert [b3.name(s) for s in h.word] == ["s3", "s1", "s2", "s1", "s2"]


def test_two_letter_heaps(a3):
    anti = H.heap_of_word(a3, a3.word("s1 s3"))
    assert H.hasse_edges(anti) == ()
    assert H.closure_edges(anti) == ()
    chain = H.heap_of_word(a3, (0, 0))
    assert H.closure_edges(chain) == ((0, 1),)


def test_closure_and_hasse_of_path_and_complete_words():
    # a word with all letters distinct realizes the poset of its diagram
    a4 = catalog.coxeter_graph("A4")
    path_heap = H.heap_of_word(a4, a4.word("s1 s2 s3 s4"))
    assert set(H.closure_edges(path_heap)) == {
        (i, j) for i in range(4) for j in range(i + 1, 4)
    }
    k4 = catalog.complete(["s1", "s2", "s3", "s4"])
    complete_heap = H.heap_of_word(k4, k4.word("s1 s2 s3 s4"))
    assert sorted(H.hasse_edges(complete_heap)) == [(0, 1), (1, 2), (2, 3)]


def test_linear_extensions_are_commutativity_classes(b3):
    h = H.heap_of_word(b3, b3.word("s1 s3 s2 s1 s2"))
    assert {b3.format(u) for u in H.linear_extensions(h)} == {
        "s1 s3 s2 s1 s2",
        "s3 s1 s2 s1 s2",
    }
    h2 = H.heap_of_word(b3, b3.word("s3 s2 s1 s2 s1"))
    assert H.linear_extensions(h2) == {b3.word("s3 s2 s1 s2 s1")}
    anti = H.heap_of_word(b3, b3.word("s1 s3"))
    assert H.linear_extensions(anti) == {(0, 2), (2, 0)}


def test_linear_extensions_cap(a3):
    h = H.heap_of_word(a3, a3.word("s1 s3 s1 s3"))
    with pytest.raises(ExtensionCapExceeded):
        H.linear_extensions(h, cap=2)


def test_heaps_isomorphic_examples(b3):
    assert H.heaps_isomorphic(
        H.heap_of_word(b3, b3.word("s1 s3")), H.heap_of_word(b3, b3.word("s3 s1"))
    )
    one = H.heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    other = H.heap_of_word(b3, b3.word("s3 s2 s1 s2 s1"))
    assert not H.heaps_isomorphic(one, other)
    assert H.heaps_isomorphic(one, one)


def test_heaps_isomorphic_graph_mismatch(b3, a3):
    with pytest.raises(GraphMismatch):
        H.heaps_isomorphic(H.heap_of_word(b3, (0,)), H.heap_of_word(a3, (0,)))


def test_is_chain(b3):
    h = H.heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    assert H.is_chain(h, {0, 2, 3, 4})
    assert not H.is_chain(h, {0, 1})
    assert H.is_chain(h, set())
    assert H.is_chain(h, {3})
    with pytest.raises(IndexError):
        H.is_chain(h, {9})


@given(small_system())
def test_heap_chain_axioms(gw):
    # vertex and bonded-edge preimages must be chains
    g, w = gw
    h = H.heap_of_word(g, w)
    for s in range(g.rank):
        vertex = [i for i, x in enumerate(w) if x == s]
        assert H.is_chain(h, vertex)
        for t in range(s + 1, g.rank):
            if not g.commutes(s, t):
                assert H.is_chain(h, [i for i, x in enumerate(w) if x in (s, t)])


@given(small_system(max_len=5))
def test_linear_extensions_equal_short_braid_closure(gw):
    # trace-monoid identity: L(H(w)) is the commutativity class of w,
    # whether or not w is reduced
    g, w = gw
    h = H.heap_of_word(g, w)
    assert H.linear_extensions(h) == commutativity_class(g, w)


@given(small_system(max_len=5))
def test_isomorphism_invariant_under_short_moves(gw):
    g, w = gw
    h = H.heap_of_word(g, w)
    for u in naive_braid_moves(g, w, short_only=True):
        assert H.heaps_isomorphic(h, H.heap_of_word(g, u))


@given(small_system(max_len=7))
def test_occurrence_map_matches_brute_force(gw):
    g, w = gw
    h1 = H.heap_of_word(g, w)
    others = {w, tuple(reversed(w))} | set(naive_braid_moves(g, w))
    for u in others:
        h2 = H.heap_of_word(g, u)
        assert H.heaps_isomorphic(h1, h2) == brute_heaps_isomorphic(h1, h2)


def test_dot_export_deterministic(b3):
    h = H.heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    dot = heap_to_dot(h)
    assert dot == heap_to_dot(h)
    assert 'pos3 [label="s2"]' in dot
    assert dot.count("->") == 4
    empty = heap_to_dot(H.heap_of_word(b3, ()))
    assert "digraph" in empty and "->" not in empty
