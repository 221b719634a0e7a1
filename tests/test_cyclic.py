import inspect
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import small_system
from coxheaps import catalog
from coxheaps import classifier as CL
from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.coxgraph import CoxeterGraph
from coxheaps.errors import GraphMismatch, NotReduced, NotToricallyReduced, OrbitCapExceeded, TooLarge
from oracles import (
    brute_toric_heaps_isomorphic,
    is_move_chain,
    listing_elements,
    naive_braid_moves,
    rtor_closure,
    witness_chain,
)


def test_cyclic_word_canonical(b3):
    cw = CY.cyclic_word(b3.word("s3 s1 s2 s1 s2"))
    assert b3.format(cw.canonical) == "s1 s2 s1 s2 s3"
    assert CY.cyclic_word(()) == CY.CyclicWord(())
    assert CY.rotations(CY.cyclic_word((0, 0))) == ((0, 0),)
    assert CY.rotations(CY.cyclic_word(())) == ((),)


def test_least_rotation_is_the_least_of_all_rotations():
    # the candidates are read at the occurrences of the least letter only;
    # against every rotation, on the empty word, one letter, one letter
    # repeated, periodic words and random words with 1-5 occurrences of
    # the least letter 0
    rng = random.Random(26)
    words = [(3,), (2, 2, 2, 2), (0, 1, 0, 1), (1, 0, 2, 1, 0, 2), (0, 0, 1, 0, 0)]
    for count in range(1, 6):
        for _ in range(200):
            word = [0] * count + [rng.randrange(1, 4) for _ in range(rng.randrange(9))]
            rng.shuffle(word)
            words.append(tuple(word))
    assert CY._least_rotation(()) == ()
    for w in words:
        assert CY._least_rotation(w) == min(w[k:] + w[:k] for k in range(len(w))), w


def test_rotations_order(b3):
    cw = CY.cyclic_word(b3.word("s3 s1 s2"))
    assert CY.rotations(cw) == (
        b3.word("s1 s2 s3"),
        b3.word("s2 s3 s1"),
        b3.word("s3 s1 s2"),
    )


def test_cyclically_reduced_examples(b3):
    assert CY.is_cyclically_reduced_word(b3, b3.word("s3 s2 s1 s2"))
    assert not CY.is_cyclically_reduced_word(b3, b3.word("s3 s2 s3 s1"))
    # the word s2s3s2s1 is cyclically reduced even though its element is not
    assert CY.is_cyclically_reduced_word(b3, b3.word("s2 s3 s2 s1"))
    assert not CY.is_cyclically_reduced_element(b3, b3.word("s2 s3 s2 s1"))
    assert CY.is_cyclically_reduced_element(b3, b3.word("s3 s2 s1 s2"))


@given(small_system(max_len=9))
def test_cyclically_reduced_word_is_every_rotation_reduced(gw):
    g, w = gw
    want = all(W.is_reduced(g, w[k:] + w[:k]) for k in range(max(1, len(w))))
    assert CY.is_cyclically_reduced_word(g, w) == want


def test_cyclically_reduced_element_requires_reduced(a3):
    with pytest.raises(NotReduced, match="^s1 s1 is not reduced$"):
        CY.is_cyclically_reduced_element(a3, a3.word("s1 s1"))


def test_torically_reduced_examples(b3):
    assert not CY.is_torically_reduced(b3, b3.word("s3 s2 s1 s2"))
    assert CY.is_torically_reduced(b3, b3.word("s3 s1 s2 s1 s2"))
    assert CY.is_torically_reduced(b3, ())


def test_toric_reduction_witness_chain(b3):
    w = b3.word("s3 s2 s1 s2")
    assert is_move_chain(b3, w, CY.toric_reduction_witness(b3, w))


def test_toric_reduction_witness_past_its_cap(b3, affine_a3):
    # the first word is torically reduced: its listing of 2 cyclic words
    # fits cap 3 and trips cap 1, which the walk settles; the listing of the
    # second trips cap 3 before it meets a cyclic repeat, so it names no
    # chain and the cap stands
    assert CY.toric_reduction_witness(b3, b3.word("s3 s1 s2 s1 s2"), cap=3) is None
    assert CY.toric_reduction_witness(b3, b3.word("s3 s1 s2 s1 s2"), cap=1) is None
    with pytest.raises(OrbitCapExceeded, match=r"^cyclic closure of s1 s2 s1 s3 s2 s4 exceeds cap 3$"):
        CY.toric_reduction_witness(affine_a3, affine_a3.word("s1 s2 s1 s3 s2 s4"), cap=3)
    assert CY.toric_reduction_witness(affine_a3, affine_a3.word("s1 s2 s1 s3 s2 s4")) is not None


def test_rtor_and_ctor_running_example(b3):
    w = b3.word("s3 s1 s2 s1 s2")
    rt = CY.rtor_cyclic_class(b3, w)
    assert {b3.format(cw.canonical) for cw in rt} == {"s1 s2 s1 s2 s3", "s1 s2 s1 s3 s2"}
    assert CY.ctor_class(b3, w) == rt
    assert len(CY.cyclic_decomposition(b3, w)) == 1
    assert len(CY.rtor_words(b3, w)) == 10
    # the cap counts the 2 cyclic words, not the 10 words of the closure
    assert CY.ctor_class(b3, w, cap=2) == rt
    assert CY.is_torically_reduced(b3, w)
    elements = CY.torically_equivalent_elements(b3, w)
    assert len(elements) == 4


def test_rtor_affine_a2(affine_a2):
    g = affine_a2
    w = g.word("s2 s0 s1 s0")
    rt = CY.rtor_cyclic_class(g, w)
    assert len(rt) == 3
    decomposition = CY.cyclic_decomposition(g, w)
    assert [len(c) for c in decomposition] == [1, 1, 1]
    assert len(CY.rtor_words(g, w)) == 12
    elements = CY.torically_equivalent_elements(g, w)
    assert len(elements) == 6
    assert all(len(W.reduced_words(g, e.word)) == 2 for e in elements)


def test_rtor_affine_a3_coxeter(affine_a3):
    g = affine_a3
    c1 = g.word("s1 s2 s3 s4")
    assert CY.rtor_cyclic_class(g, c1) == {CY.cyclic_word(c1)}
    c2 = g.word("s1 s3 s2 s4")
    rt = CY.rtor_cyclic_class(g, c2)
    assert {g.format(cw.canonical) for cw in rt} == {
        "s1 s3 s2 s4",
        "s1 s3 s4 s2",
        "s1 s2 s4 s3",
        "s1 s4 s2 s3",
    }
    assert len(CY.cyclic_decomposition(g, c2)) == 1
    assert len(CY.rtor_words(g, c2)) == 16
    assert len(CY.torically_equivalent_elements(g, c2)) == 6


def test_rtor_rejects_non_torically_reduced(b3):
    with pytest.raises(NotToricallyReduced):
        CY.rtor_cyclic_class(b3, b3.word("s3 s2 s1 s2"))
    with pytest.raises(NotToricallyReduced):
        CY.ctor_class(b3, b3.word("s3 s2 s1 s2"))


def test_rtor_listing_past_its_cap_is_settled_by_the_walk(b3, affine_a3):
    # the cyclic listing of this word trips cap 3 before it meets a cyclic
    # repeat; the word is not torically reduced, so every R_tor caller says so
    w = affine_a3.word("s1 s2 s1 s3 s2 s4")
    for f in (CY.rtor_cyclic_class, CY.ctor_class, CY.cyclic_decomposition, CY.rtor_words,
              CL.odd_braid_obstruction):
        with pytest.raises(NotToricallyReduced, match="^s1 s2 s1 s3 s2 s4 is not torically reduced$"):
            f(affine_a3, w, 3)
    # a torically reduced word over the cap keeps the listing's own error
    for f in (CY.rtor_cyclic_class, CY.ctor_class, CY.cyclic_decomposition):
        with pytest.raises(OrbitCapExceeded, match="^cyclic closure of s3 s1 s2 s1 s2 exceeds cap 1$"):
            f(b3, b3.word("s3 s1 s2 s1 s2"), 1)


def test_decomposition_partitions_rtor(b3, affine_a2):
    for g, text in ((b3, "s3 s1 s2 s1 s2"), (affine_a2, "s2 s0 s1 s0")):
        w = g.word(text)
        whole = CY.rtor_cyclic_class(g, w)
        parts = CY.cyclic_decomposition(g, w)
        seen = set()
        for part in parts:
            assert part and not (part & seen)
            seen |= part
        assert seen == whole


@given(small_system(max_len=6))
@settings(max_examples=30)
def test_one_pass_partitions_match_heaps(gw):
    # the class-by-class listings against heaps and toric heaps, the listing's
    # chain against the oracle's search, and the element walk's toric
    # reducedness against the chain
    g, w = gw
    chain = CY.toric_reduction_witness(g, w)
    assert (chain is None) == (witness_chain(g, w) is None)
    assert chain is None or is_move_chain(g, w, chain)
    assert CY.is_torically_reduced(g, w) == (chain is None)
    w = W.normal_form(g, w).word
    for cls in W.commutativity_classes(g, w):
        assert cls == H.linear_extensions(H.heap_of_word(g, min(cls)))
    if CY.is_torically_reduced(g, w):
        for cls in CY.cyclic_decomposition(g, w):
            assert cls == CY.ltor(CY.toric_heap_of_word(g, min(cls).canonical))


RTOR_SYSTEMS = {
    **{name: catalog.coxeter_graph(name) for name in ("B3", "H3", "A~2")},
    "I2(5)": CoxeterGraph(["s", "t"], [("s", "t", 5)]),
    "I2(7)": CoxeterGraph(["s", "t"], [("s", "t", 7)]),
    "paw": CoxeterGraph(["s", "t", "a", "b"], [("s", "t", 4), ("t", "a", 3), ("t", "b", 3), ("a", "b", 4)]),
}


@pytest.mark.parametrize("name", RTOR_SYSTEMS)
def test_rtor_listing_matches_word_closure(name):
    # the listing reads each rotation of a cyclic word off the doubled word;
    # in I2(5) and I2(7) a doubled word can hold an <s,t>_m longer than the
    # word itself, which no rotation holds
    g = RTOR_SYSTEMS[name]
    words, checked = [()], set()
    for u in words:  # every reduced word of up to 6 letters, extending reduced prefixes
        words.extend(v for v in (u + (s,) for s in range(g.rank)) if len(v) <= 6 and W.is_reduced(g, v))
    for w in words:
        want = rtor_closure(g, w)
        chain = CY.toric_reduction_witness(g, w)
        assert (chain is None) == (witness_chain(g, w) is None), g.format(w)
        assert CY.is_torically_reduced(g, w) == (want is not None), g.format(w)
        if want is None:
            with pytest.raises(NotToricallyReduced):
                CY.rtor_words(g, w)
            assert is_move_chain(g, w, chain), g.format(w)
            continue
        assert CY.rtor_words(g, w) == want, g.format(w)
        if w not in checked:
            checked |= want
            assert CY.torically_equivalent_elements(g, w) == {W.normal_form(g, u) for u in want}, g.format(w)
            for cls in CY.cyclic_decomposition(g, w):
                assert cls == CY.ltor(CY.toric_heap_of_word(g, min(cls).canonical)), g.format(w)


# Chains the listing names when a new word's cyclic repeat forms at one of
# its two seams, after the move (rot[m-1], rot[m % n]) or around the end
# (rot[-1], rot[0]), for rot = move + the rest of the rotation: the only
# places a word listed, itself free of repeats, can gain one.  Pinned from
# the listing that tested the whole of each new word.  I2(5) and I2(7) meet
# theirs at both seams at once, on alternating words longer than m; the paw
# at each seam, by short and long moves, and by moves whose factor ends at
# the end of the rotation (i + m = n: "s t s a", "s a s t", "t a b t b",
# "s t s t a s b").  A move that spans the whole rotation (m = n) meets no
# repeat: the rotation alternates, so n is even, and so does the result.
SEAM_CHAINS = (
    ("I2(5)", "s t s t s t", ("s t s t s t", "t s t s t t")),
    ("I2(5)", "t s t s t s", ("t s t s t s", "s t s t s t", "t s t s t t")),
    ("I2(5)", "s t s t s t s t", ("s t s t s t s t", "t s t s t t s t")),
    ("I2(7)", "s t s t s t s t", ("s t s t s t s t", "t s t s t s t t")),
    ("I2(7)", "t s t s t s t s", ("t s t s t s t s", "s t s t s t s t", "t s t s t s t t")),
    ("paw", "s t s a", ("s t s a", "s a s t", "a s s t")),
    ("paw", "s a s t", ("s a s t", "a s s t")),
    ("paw", "t a b t b", ("t a b t b", "b t b t a", "t b t t a")),
    ("paw", "s t s t a s b", ("s t s t a s b", "s b s t s t a", "b s s t s t a")),
    ("paw", "s t a t", ("s t a t", "t a t s", "a t a s", "s a t a", "a s t a", "s t a a")),
    ("paw", "s a t s a", ("s a t s a", "s a s a t", "a s s a t")),
    ("paw", "t a b a t a", ("t a b a t a", "t a t a b a", "a t a a b a")),
    ("paw", "s t s t a b a t", ("s t s t a b a t", "t s t s a b a t", "s t s a b a t t")),
)


@pytest.mark.parametrize("name, text, chain", SEAM_CHAINS, ids=lambda x: x if isinstance(x, str) else None)
def test_seam_test_names_the_same_chains(name, text, chain):
    g = RTOR_SYSTEMS[name]
    found = CY.toric_reduction_witness(g, g.word(text))
    assert tuple(map(g.format, found)) == chain
    assert is_move_chain(g, g.word(text), found)


SWEEP_SYSTEMS = {
    **{name: catalog.coxeter_graph(name) for name in ("A3", "A4", "B3", "H3", "A~2", "A~3", "C~2", "C~3", "C~4", "E~6")},
    "paw": RTOR_SYSTEMS["paw"],
    "I2(7)": RTOR_SYSTEMS["I2(7)"],
    "4-cycle of 4-bonds": catalog.cycle(["s1", "s2", "s3", "s4"], 4),
}


@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_shift_class_matches_listing(name):
    # every element of up to 7 letters, 6 in rank 5 and up: toric
    # reducedness from the element walk against the R_tor listing, and [w]
    # once per listed class, which is the [w] of each of its elements; and
    # the chain the listing replays is a chain of moves to a repeat, named
    # exactly when w is not torically reduced
    g = SWEEP_SYSTEMS[name]
    listed: dict = {}  # normal form -> the listed [w] that holds it
    for w in W.elements_up_to(g, 7 if g.rank <= 4 else 6):
        if w not in listed:
            try:
                want = listing_elements(g, w)
            except NotToricallyReduced:
                with pytest.raises(NotToricallyReduced, match="is not torically reduced$"):
                    CY.torically_equivalent_elements(g, w)
            else:
                assert CY.torically_equivalent_elements(g, w) == want, g.format(w)
                listed.update(dict.fromkeys((x.word for x in want), want))
        assert CY.is_torically_reduced(g, w) == (w in listed), g.format(w)
        chain = CY.toric_reduction_witness(g, w)
        assert (chain is None) == (w in listed), g.format(w)
        assert chain is None or is_move_chain(g, w, chain), g.format(w)


def test_shift_class_of_long_words(affine_a3):
    g = catalog.coxeter_graph("E~6")
    w = g.word("s0 s1 s2 s3 s4 s5 s6") * 2
    assert CY.is_torically_reduced(g, w)
    elements = {x.word for x in CY.torically_equivalent_elements(g, w)}
    assert len(elements) == 396 and {len(x) for x in elements} == {14}
    for x in elements:  # closed under s x s for each left or right descent s
        for s in range(g.rank):
            if not (W.is_reduced(g, (s,) + x) and W.is_reduced(g, x + (s,))):
                assert W.normal_form(g, (s,) + x + (s,)).word in elements
    c4 = catalog.coxeter_graph("C~4")
    assert CY.is_torically_reduced(c4, c4.word("s0 s2 s4 s1 s3") * 8)
    assert CY.is_torically_reduced(affine_a3, affine_a3.word("s1 s3 s2 s4") * 16)


def test_non_reduced_words_are_not_torically_reduced(b3):
    for text in ("s1 s1", "s2 s3 s2 s3 s2 s3", "s1 s2 s1 s2 s1 s2 s1 s2 s3"):
        w = b3.word(text)
        assert not CY.is_torically_reduced(b3, w)
        with pytest.raises(NotToricallyReduced, match=f"^{text} is not torically reduced$"):
            CY.torically_equivalent_elements(b3, w)


def test_toric_reducedness_takes_no_cap():
    for f in (CY.is_torically_reduced, CY.torically_equivalent_elements, CL.conjecture_probe):
        assert "cap" not in inspect.signature(f).parameters


def test_toric_heap_running_example(b3):
    t1 = CY.toric_heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    t2 = CY.toric_heap_of_word(b3, b3.word("s3 s2 s1 s2 s1"))
    assert CY.toric_heaps_isomorphic(t1, t2)
    single = CY.toric_heap_of_word(b3, (0,))
    assert single.size == 1
    rotated = CY.toric_heap_of_word(b3, b3.word("s1 s2 s1 s2 s3"))
    assert CY.toric_heaps_isomorphic(t1, rotated)


def test_toric_heap_isomorphism_beyond_rotations(b3):
    # each letter's occurrences shift by their own offset; no rotation of
    # the second word aligns them
    t1 = CY.toric_heap_of_word(b3, b3.word("s1 s2 s3 s2 s1 s2 s3"))
    t2 = CY.toric_heap_of_word(b3, b3.word("s2 s1 s3 s2 s3 s2 s1"))
    assert brute_toric_heaps_isomorphic(t1, t2)
    assert CY.toric_heaps_isomorphic(t1, t2)
    assert CY.toric_heaps_isomorphic(t2, t1)


def test_toric_heap_isomorphism_of_long_coxeter_powers(affine_a3):
    g = affine_a3
    c1, c2 = g.word("s1 s3 s2 s4"), g.word("s1 s2 s3 s4")
    t1 = CY.toric_heap_of_word(g, c1 * 8)
    assert not CY.toric_heaps_isomorphic(t1, CY.toric_heap_of_word(g, c2 * 8))
    assert CY.toric_heaps_isomorphic(t1, CY.toric_heap_of_word(g, g.word("s3 s1 s4 s2") * 8))


def test_toric_heap_size_mismatch(b3):
    t1 = CY.toric_heap_of_word(b3, b3.word("s3 s2 s1 s2"))
    t2 = CY.toric_heap_of_word(b3, b3.word("s2 s1"))
    assert not CY.toric_heaps_isomorphic(t1, t2)
    assert CY.toric_heaps_isomorphic(t1, t1)


def test_toric_heap_graph_mismatch(b3, a3):
    with pytest.raises(GraphMismatch):
        CY.toric_heaps_isomorphic(
            CY.toric_heap_of_word(b3, (0,)), CY.toric_heap_of_word(a3, (0,))
        )


def test_ltor_examples(b3, affine_a3):
    th = CY.toric_heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    assert CY.ltor(th) == CY.ctor_class(b3, b3.word("s3 s1 s2 s1 s2"))
    c1 = affine_a3.word("s1 s2 s3 s4")
    assert CY.ltor(CY.toric_heap_of_word(affine_a3, c1)) == {CY.cyclic_word(c1)}
    c2 = affine_a3.word("s1 s3 s2 s4")
    assert CY.ltor(CY.toric_heap_of_word(affine_a3, c2)) == CY.ctor_class(affine_a3, c2)


def test_ltor_too_large(b3):
    with pytest.raises(TooLarge):
        CY.ltor(CY.toric_heap_of_word(b3, (0, 1) * 6))


def test_toric_vertex_and_edge_preimages_are_toric_chains(b3):
    th = CY.toric_heap_of_word(b3, b3.word("s3 s1 s2 s1 s2"))
    for s in range(b3.rank):
        pre = [i for i, x in enumerate(th.word) if x == s]
        assert T.is_toric_chain(th.poset, pre)
    for s, t, _ in b3.bonds():
        pre = [i for i, x in enumerate(th.word) if x in (s, t)]
        assert T.is_toric_chain(th.poset, pre)


def test_toric_chains_pull_back_to_chains(a3):
    # every toric chain of T_w is a chain of P_w; the converse fails
    w = a3.word("s1 s2 s3")
    th = CY.toric_heap_of_word(a3, w)
    h = H.heap_of_word(a3, w)
    for k in range(4):
        for c in combinations(range(3), k):
            if T.is_toric_chain(th.poset, c):
                assert H.is_chain(h, c)
    assert H.is_chain(h, (0, 1, 2))
    assert not T.is_toric_chain(th.poset, (0, 1, 2))


@given(small_system(max_len=6))
@settings(max_examples=30)
def test_toric_chain_pullback_holds_generally(gw):
    g, w = gw
    th = CY.toric_heap_of_word(g, w)
    h = H.heap_of_word(g, w)
    for k in range(len(w) + 1):
        for c in combinations(range(len(w)), k):
            if T.is_toric_chain(th.poset, c):
                assert H.is_chain(h, c)


@given(small_system(max_len=5))
@settings(max_examples=30)
def test_toric_heap_invariant_under_rotation_and_short_moves(gw):
    g, w = gw
    th = CY.toric_heap_of_word(g, w)
    moved = [w[1:] + w[:1]] if w else []
    moved.extend(naive_braid_moves(g, w, short_only=True))
    for u in moved:
        assert CY.toric_heaps_isomorphic(th, CY.toric_heap_of_word(g, u))


@given(small_system(max_len=6))
@settings(max_examples=30)
def test_toric_heap_isomorphism_matches_bruteforce(gw):
    g, w = gw
    th = CY.toric_heap_of_word(g, w)
    candidates = [tuple(reversed(w))]
    if w:
        candidates.append(w[2:] + w[:2])
    # a walk through w's cyclic commutation class, past single rotations
    walked = w
    for k in range(3 * len(w)):
        walked = walked[1:] + walked[:1]
        moves = list(naive_braid_moves(g, walked, short_only=True))
        if moves:
            walked = moves[k % len(moves)]
    candidates.append(walked)
    for u in candidates:
        other = CY.toric_heap_of_word(g, u)
        verdict = CY.toric_heaps_isomorphic(th, other)
        assert verdict == brute_toric_heaps_isomorphic(th, other)
        assert verdict == CY.toric_heaps_isomorphic(other, th)
