"""Acceptance suite: one test per criterion, exact counts, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything here is computed by the library (plus the exact
matrix oracle for independent enumeration); a failed assertion marks the
criterion failed.
"""

import math
from itertools import combinations, permutations

import pytest

from corpus import SystemCorpus
from coxheaps import catalog
from coxheaps import classifier as CL
from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.coxgraph import CoxeterGraph, support
from oracles import GroupOracle, is_move_chain


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} [{text}]: PASS")


@pytest.fixture(scope="module")
def corpora():
    return {
        "B3": SystemCorpus("B3", catalog.coxeter_graph("B3"), 8, 10),
        "A3": SystemCorpus("A3", catalog.coxeter_graph("A3"), 8, 8),
        "H3": SystemCorpus("H3", catalog.coxeter_graph("H3"), 8, 16),
        "A~2": SystemCorpus("A~2", catalog.coxeter_graph("A~2"), 8, 9),
        "A~3": SystemCorpus("A~3", catalog.coxeter_graph("A~3"), 6, 7),
    }


def test_criterion_01_running_example(b3):
    w = b3.word("s3 s1 s2 s1 s2")
    assert len(W.reduced_words(b3, w)) == 3
    assert sorted(len(c) for c in W.commutativity_classes(b3, w)) == [1, 2]
    assert not CL.is_fc(b3, w)
    assert CY.is_torically_reduced(b3, w)
    rtor = CY.rtor_cyclic_class(b3, w)
    assert len(rtor) == 2
    assert len(CY.cyclic_decomposition(b3, w)) == 1
    assert len(CY.rtor_words(b3, w)) == 10
    assert len(CY.torically_equivalent_elements(b3, w)) == 4
    report = CL.classify(b3, w)
    assert report.tfc and report.faux_cfc
    _ok(1, "rank-3 chain (4,3) running word")


def test_criterion_02_h3_and_a3(h3, a3):
    w = "s3 s1 s2 s1 s2"
    assert len(W.reduced_words(h3, h3.word(w))) == 2
    assert len(W.commutativity_classes(h3, h3.word(w))) == 1
    assert CL.is_fc(h3, h3.word(w))
    assert not W.is_reduced(a3, a3.word(w))
    nf = W.normal_form(a3, a3.word(w))
    assert a3.format(nf.word) == "s3 s2 s1" and nf.length == 3
    _ok(2, "same letters in the (5,3) and (3,3) chains")


def test_criterion_03_affine_a3(affine_a3):
    g = affine_a3
    skel = CL.coxeter_graph_skeleton(g)
    orients = T.all_acyclic_orientations(skel)
    assert len(orients) == 14 == T.tutte(skel, 2, 0)
    classes = T.toric_classes(skel)
    assert sorted(len(c) for c in classes) == [4, 4, 6]
    assert T.tutte(skel, 1, 0) == 3

    # 24 linear words on 4 generators name 14 distinct elements
    all_words = [tuple(p) for p in permutations(range(4))]
    elements = {W.normal_form(g, w) for w in all_words}
    assert len(all_words) == 24 and len(elements) == 14

    c2 = g.word("s1 s3 s2 s4")
    four_words = {
        CY.cyclic_word(g.word(t))
        for t in ("s1 s3 s2 s4", "s1 s3 s4 s2", "s3 s1 s2 s4", "s3 s1 s4 s2")
    }
    lt = CY.ltor(CY.toric_heap_of_word(g, c2))
    assert lt == four_words == CY.ctor_class(g, c2)
    assert len(CY.rtor_words(g, c2)) == 16
    assert len(CY.torically_equivalent_elements(g, c2)) == 6

    # conjugacy partition of Coxeter elements = toric class partition
    conj = CL.coxeter_conjugacy_classes(g)
    assert sorted(len(c) for c in conj) == [4, 4, 6]
    pulled = sorted(
        tuple(sorted(CL.orientation_to_coxeter(g, o) for o in cls)) for cls in classes
    )
    assert pulled == sorted(conj)
    # each class really is conjugate: explicit flip conjugators check out
    for cls in conj:
        base = cls[0]
        for other in cls[1:]:
            v = CL.source_flip_conjugator(
                g, CL.coxeter_to_orientation(g, base), CL.coxeter_to_orientation(g, other)
            )
            assert v is not None
            assert W.conjugate(g, v, base) == W.normal_form(g, other)
    _ok(3, "4-cycle diagram: orientations, classes, extensions")


def test_criterion_04_affine_a2(affine_a2):
    g = affine_a2
    w = g.word("s2 s0 s1 s0")
    assert CY.is_torically_reduced(g, w)
    assert len(CY.rtor_cyclic_class(g, w)) == 3
    decomposition = CY.cyclic_decomposition(g, w)
    assert [len(c) for c in decomposition] == [1, 1, 1]
    assert len(CY.rtor_words(g, w)) == 12
    elements = CY.torically_equivalent_elements(g, w)
    assert len(elements) == 6
    assert all(len(W.reduced_words(g, nf.word)) == 2 for nf in elements)
    _ok(4, "triangle diagram four-letter word")


def test_criterion_05_cyclic_but_not_toric(b3):
    w = b3.word("s3 s2 s1 s2")
    assert CY.is_cyclically_reduced_word(b3, w)
    assert len(W.reduced_words(b3, w)) == 1  # single reduced word
    assert CY.is_cyclically_reduced_element(b3, w)
    assert is_move_chain(b3, w, CY.toric_reduction_witness(b3, w))
    conj = W.conjugate(b3, b3.word("s2 s3"), w)
    assert b3.format(conj.word) == "s2 s1" and conj.length == 2
    _ok(5, "cyclically reduced but not torically reduced, with witness")


def test_criterion_06_affine_c2(affine_c2):
    g = affine_c2
    w = g.word("s0 s1 s0 s1 s2")
    assert CL.is_faux_cfc(g, w)
    probe = CL.logarithmic_probe(g, w, 2)
    assert probe.violation_at == 2
    assert probe.lengths == (5, 8)
    assert probe.lengths[1] < 2 * len(w)
    _ok(6, "(4,4) chain: faux CFC and power-length collapse")


def test_criterion_07_regression_set():
    c4t = catalog.coxeter_graph("C~4")
    assert CL.is_cfc(c4t, c4t.word("s0 s1 s2 s3 s4 s3 s2 s1"))
    e6t = catalog.coxeter_graph("E~6")
    assert CL.is_cfc(e6t, e6t.word("s1 s3 s2 s4 s3 s5 s4 s6 s0 s3 s2 s6"))
    c3t = catalog.coxeter_graph("C~3")
    assert CL.is_faux_cfc(c3t, c3t.word("s0 s1 s0 s1 s2 s3 s2 s3"))
    paw = CoxeterGraph(
        ["s", "t", "a", "b"],
        [("s", "t", 4), ("t", "a", 3), ("t", "b", 3), ("a", "b", 4)],
    )
    assert CL.is_faux_cfc(paw, paw.word("s t s t a b a"))
    _ok(7, "CFC / faux-CFC regression words")


def test_criterion_08_toric_poset_fixtures():
    # ordinary closure/Hasse through heaps of all-distinct-letter words
    a4 = catalog.coxeter_graph("A4")
    k4c = catalog.complete(["s1", "s2", "s3", "s4"])
    complete_heap = H.heap_of_word(k4c, k4c.word("s1 s2 s3 s4"))
    assert sorted(H.hasse_edges(complete_heap)) == [(0, 1), (1, 2), (2, 3)]
    path_heap = H.heap_of_word(a4, a4.word("s1 s2 s3 s4"))
    assert set(H.closure_edges(path_heap)) == {
        (i, j) for i in range(4) for j in range(i + 1, 4)
    }

    # toric side on the raw graphs
    c4 = T.graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    l4 = T.Graph(4, ((0, 1), (1, 2), (2, 3)))
    k4 = T.Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    nat = lambda graph: T.AcyclicOrientation(graph, (1 << len(graph.edges)) - 1)
    assert T.toric_hasse(T.ToricPoset(nat(k4))) == c4
    assert T.toric_transitive_closure(T.ToricPoset(nat(c4))) == k4
    assert T.toric_transitive_closure(T.ToricPoset(nat(l4))) == l4

    # 5-cycle pair: distinct toric posets with identical toric chains
    c5 = T.graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    omega = T.orientation_from_pairs(c5, [(0, 1), (1, 2), (2, 3), (4, 3), (0, 4)])
    omega2 = T.orientation_from_pairs(c5, [(0, 1), (1, 2), (3, 2), (4, 3), (0, 4)])
    assert T.cycle_imbalance(omega) == 1 and T.cycle_imbalance(omega2) == -1
    t1, t2 = T.ToricPoset(omega), T.ToricPoset(omega2)
    assert t1 != t2

    def chains(tp):
        return {
            frozenset(c)
            for k in range(6)
            for c in combinations(range(5), k)
            if T.is_toric_chain(tp, c)
        }

    assert chains(t1) == chains(t2)
    _ok(8, "closure/Hasse quadruple and the 5-cycle pair")


def test_criterion_09_property_suites(corpora):
    for name, corpus in corpora.items():
        results = corpus.run_all()
        for check, violations in results.items():
            assert not violations, f"{name}/{check}: {violations[:3]}"
    for n in range(2, 7):
        kn = T.Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
        assert T.tutte(kn, 2, 0) == math.factorial(n)
        assert T.tutte(kn, 1, 0) == math.factorial(n - 1)
    _ok(9, "exhaustive property sweeps, zero violations")


def _cvmt_rows(name: str, radius: int, max_len: int = 8):
    """CVMT evidence rows for one finite system: every conjugacy class whose
    torically reduced members split into more than one rotation+braid block,
    tagged by whether distinct supports explain the split."""
    g = catalog.coxeter_graph(name)
    oracle = GroupOracle(g, radius)
    rows = []
    seen = set()
    for mat in list(oracle.dist):
        if mat in seen:
            continue
        cls = oracle.conjugacy_class(oracle.reduced_word(mat))
        seen |= cls
        blocks = []
        assigned = set()
        for member in sorted(cls, key=lambda m: oracle.dist[m]):
            if member in assigned:
                continue
            w = oracle.reduced_word(member)
            if len(w) > max_len or not CY.is_torically_reduced(g, w):
                continue
            keys = {oracle.element(nf.word) for nf in CY.torically_equivalent_elements(g, w)}
            blocks.append((keys, frozenset(support(w))))
            assigned |= keys
        if len(blocks) > 1:
            supports = [s for _, s in blocks]
            rows.append(
                {
                    "system": name,
                    "blocks": len(blocks),
                    "explained": len(set(supports)) == len(supports),
                }
            )
    return rows


def test_criterion_10_conjecture_probes(affine_a2, affine_a3, b3):
    # braid-shortening conjecture on the three regression shapes
    probe = CL.conjecture_probe(b3, b3.word("s1 s2 s1 s2 s3"))
    assert probe.applicable and probe.confirmed
    c3t = catalog.coxeter_graph("C~3")
    probe = CL.conjecture_probe(c3t, c3t.word("s0 s1 s0 s1 s2 s3 s2 s3"))
    assert probe.applicable and probe.confirmed
    paw = CoxeterGraph(
        ["s", "t", "a", "b"],
        [("s", "t", 4), ("t", "a", 3), ("t", "b", 3), ("a", "b", 4)],
    )
    probe = CL.conjecture_probe(paw, paw.word("s t s t a b a"))
    assert not probe.applicable and not probe.shortened_tfc
    assert "not a theorem" in probe.note

    # cyclic Matsumoto probe, finite corpus groups: every split is explained
    # by the conjugate-support escape, so no counterexample in the corpus
    rows = []
    for name, radius in (("A3", 8), ("B3", 10), ("H3", 16)):
        rows.extend(_cvmt_rows(name, radius))
    assert rows, "probe should at least see the reflection classes split"
    assert all(row["explained"] for row in rows), rows

    # affine side: Coxeter-element conjugacy classes are single blocks
    for g in (affine_a2, affine_a3):
        skel = CL.coxeter_graph_skeleton(g)
        for cls in T.toric_classes(skel):
            words = [CL.orientation_to_coxeter(g, o) for o in cls]
            block = {
                nf.word for nf in CY.torically_equivalent_elements(g, words[0])
            }
            assert {W.normal_form(g, w).word for w in words} == block
    _ok(10, "conjecture probes report evidence with no counterexample")
