import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given

from conftest import small_system
from coxheaps import catalog
from coxheaps import words as W
from coxheaps.coxgraph import INF, CoxeterGraph, support
from coxheaps.errors import NotReduced, OrbitCapExceeded, UnknownGenerator
from oracles import GroupOracle, braid_closure, greedy_normal_form, naive_braid_moves


def test_braid_orbit_long_braid(b3):
    w = b3.word("s1 s2 s1 s2")
    orbit = {w, b3.word("s2 s1 s2 s1")}
    assert W.reduced_words(b3, w) == orbit
    assert braid_closure(b3, w) == orbit


def test_braid_orbit_m3_and_empty(a3):
    sts = a3.word("s1 s2 s1")
    assert W.reduced_words(a3, sts) == braid_closure(a3, sts) == {sts, a3.word("s2 s1 s2")}
    assert W.reduced_words(a3, ()) == braid_closure(a3, ()) == {()}


def test_is_reduced_examples(a3, b3):
    w = "s3 s1 s2 s1 s2"
    assert not W.is_reduced(a3, a3.word(w))
    assert W.is_reduced(b3, b3.word(w))
    assert W.is_reduced(b3, ())


def test_is_reduced_decides_without_cap(b3):
    # m(s1, s2) = 4: the full braid <s1,s2>_4 is reduced, one letter more is not
    assert W.is_reduced(b3, b3.word("s1 s2 s1 s2"))
    assert not W.is_reduced(b3, b3.word("s1 s2 s1 s2 s1"))
    w = b3.word("s1 s2 s1 s2")
    with pytest.raises(OrbitCapExceeded, match="^reduced-word set of s1 s2 s1 s2 exceeds cap 1$"):
        W.reduced_words(b3, w, cap=1)
    # the cap counts listed words: the long-move neighbour of the one-word
    # class is found but not listed
    assert W.commutativity_class(b3, w, cap=1) == {w}


def test_normal_form_examples(a3, b3):
    nf = W.normal_form(a3, a3.word("s3 s1 s2 s1 s2"))
    assert a3.format(nf.word) == "s3 s2 s1"
    assert nf.length == 3
    assert W.normal_form(b3, b3.word("s1 s1")).word == ()
    w = b3.word("s3 s1 s2 s1 s2")
    assert W.normal_form(b3, w).word == min(braid_closure(b3, w))


def test_normal_form_idempotent(b3):
    w = b3.word("s2 s3 s2 s1 s1 s3")
    once = W.normal_form(b3, w)
    assert W.normal_form(b3, once.word) == once


def test_reduced_words_examples(b3, h3):
    w = "s3 s1 s2 s1 s2"
    rw = W.reduced_words(b3, b3.word(w))
    assert {b3.format(u) for u in rw} == {
        "s3 s1 s2 s1 s2",
        "s1 s3 s2 s1 s2",
        "s3 s2 s1 s2 s1",
    }
    assert {h3.format(u) for u in W.reduced_words(h3, h3.word(w))} == {
        "s3 s1 s2 s1 s2",
        "s1 s3 s2 s1 s2",
    }
    assert W.reduced_words(b3, (0,)) == {(0,)}


def test_reduced_words_requires_reduced(a3):
    with pytest.raises(NotReduced):
        W.reduced_words(a3, a3.word("s3 s1 s2 s1 s2"))


def test_commutativity_classes(b3, h3, affine_a3):
    classes = W.commutativity_classes(b3, b3.word("s3 s1 s2 s1 s2"))
    assert sorted(len(c) for c in classes) == [1, 2]
    classes = W.commutativity_classes(h3, h3.word("s3 s1 s2 s1 s2"))
    assert [len(c) for c in classes] == [2]
    classes = W.commutativity_classes(affine_a3, affine_a3.word("s1 s2 s3 s4"))
    assert [len(c) for c in classes] == [1]
    with pytest.raises(NotReduced):
        W.commutativity_classes(b3, b3.word("s1 s2 s2"))
    with pytest.raises(OrbitCapExceeded, match="^commutativity class of s1 s3 s2 exceeds cap 1$"):
        W.commutativity_class(b3, b3.word("s1 s3 s2"), 1)


def test_commutativity_classes_partition(b3):
    w = b3.word("s3 s1 s2 s1 s2")
    classes = W.commutativity_classes(b3, w)
    union = set().union(*classes)
    assert union == W.reduced_words(b3, w)
    assert sum(len(c) for c in classes) == len(union)


def test_group_arithmetic(b3):
    v = b3.word("s2 s3")
    w = b3.word("s3 s2 s1 s2")
    conj = W.conjugate(b3, v, w)
    assert b3.format(conj.word) == "s2 s1"
    assert conj.length == 2
    assert W.conjugate(b3, (), w) == W.normal_form(b3, w)
    assert W.multiply(b3, w, W.inverse(w)).word == ()


def test_power_length(affine_c2, affine_a2):
    w = affine_c2.word("s0 s1 s0 s1 s2")
    assert W.normal_form(affine_c2, w * 2).length == 8
    assert W.normal_form(affine_c2, w * 0).length == 0
    cox = affine_a2.word("s0 s1 s2")
    assert W.normal_form(affine_a2, cox * 3).length == 9


@given(small_system())
def test_orbit_preserves_length_and_support(gw):
    # <s,t>_m and <t,s>_m use the same letter set, so both are invariant
    g, w = gw
    for u in braid_closure(g, w):
        assert len(u) == len(w)
        assert support(u) == support(w)


@given(small_system())
def test_orbit_closed_under_single_moves(gw):
    g, w = gw
    orbit = braid_closure(g, w)
    for u in orbit:
        for moved in W.braid_moves(g, u):
            assert moved in orbit
    if W.is_reduced(g, w):
        assert W.reduced_words(g, w) == orbit


_MOVE_SYSTEMS = {
    "B3": catalog.coxeter_graph("B3"),
    "H3": catalog.coxeter_graph("H3"),
    "A~2": catalog.coxeter_graph("A~2"),
    "I2(5)": CoxeterGraph(["s", "t"], [("s", "t", 5)]),
    "I2(7)": CoxeterGraph(["s", "t"], [("s", "t", 7)]),
    "triangle-inf": CoxeterGraph(["s1", "s2", "s3"], [("s1", "s2", 4), ("s2", "s3", 5), ("s1", "s3", INF)]),
}


@pytest.mark.parametrize("name", list(_MOVE_SYSTEMS))
def test_braid_moves_match_naive_moves(name):
    # every word of up to 5 letters, 7 in rank 2, so the bonds 5 and 7 meet
    # words shorter than the bond as well as words that hold <s,t>_m
    g = _MOVE_SYSTEMS[name]
    for n in range(6 if g.rank > 2 else 8):
        for w in product(range(g.rank), repeat=n):
            assert list(W.braid_moves(g, w)) == list(naive_braid_moves(g, w)), w


def test_braid_moves_check_the_word(b3):
    for bad in ((-1, 0), (3, 0)):
        with pytest.raises(UnknownGenerator):
            list(W.braid_moves(b3, bad))
    assert list(W.braid_moves(b3, [2, 0])) == [(0, 2)]


@given(small_system(max_len=5))
def test_normal_form_is_orbit_invariant(gw):
    g, w = gw
    forms = {W.normal_form(g, u) for u in braid_closure(g, w)}
    assert len(forms) == 1


@pytest.mark.parametrize("name, max_len", [("B3", 8), ("A3", 8), ("H3", 8), ("A~2", 8), ("A~3", 6)])
def test_elements_up_to_matches_oracle(name, max_len):
    # the acceptance systems and lengths; the oracle's Cayley ball of radius
    # max_len holds exactly the elements of length <= max_len
    g = catalog.coxeter_graph(name)
    oracle = GroupOracle(g, max_len)
    elements = W.elements_up_to(g, max_len)
    mats = [oracle.element(w) for w in elements]
    assert len(set(mats)) == len(mats)
    assert set(mats) == set(oracle.dist)
    assert Counter(map(len, elements)) == Counter(oracle.dist.values())
    # each is the shortlex-least of the oracle's reduced words for it, listed
    # by length and sorted within a length
    least: dict = {}
    for w in oracle.all_reduced_words(max_len):
        mat = oracle.element(w)
        least[mat] = min(least.get(mat, w), w)
    assert elements == sorted(least.values(), key=lambda w: (len(w), w))


_INTERVAL_SYSTEMS = {
    **{name: catalog.coxeter_graph(name) for name in ("B3", "A3", "H3", "A~2", "A~3", "A4", "C~4", "E~6")},
    "infinite bond": CoxeterGraph(["s1", "s2", "s3", "s4"],
                                  [("s1", "s2", INF), ("s2", "s3", 3), ("s3", "s4", 4), ("s1", "s3", 3)]),
    # m = 4 and m = 5 share one ring of degree 8
    "4-5 ring": CoxeterGraph(["s1", "s2", "s3", "s4"],
                             [("s1", "s2", 4), ("s2", "s3", 5), ("s3", "s4", 3), ("s4", "s1", 4)]),
}


@pytest.mark.parametrize("name", list(_INTERVAL_SYSTEMS))
def test_reduced_words_match_braid_closure(name):
    # R(w) up the weak-order interval against the tests' own braid search,
    # on every element of up to 7 letters (6 at rank >= 5)
    g = _INTERVAL_SYSTEMS[name]
    for w in W.elements_up_to(g, 7 if g.rank < 5 else 6):
        assert W.reduced_words(g, w) == braid_closure(g, w), g.format(w)


@pytest.mark.parametrize("name", ["B3", "H3", "A~3", "infinite bond", "4-5 ring"])
def test_reduced_words_cap_is_exact(name):
    # the cap raises iff |R(w)| > cap, and w itself is listed whatever the
    # cap; up to 8 letters in B3 and H3, where the first level of [e, w]_R
    # past the cap lies at or below the middle for some w and above it for
    # others
    g = _INTERVAL_SYSTEMS[name]
    for w in W.elements_up_to(g, 8 if name in ("B3", "H3") else 6):
        n = len(braid_closure(g, w))
        for cap in {0, 1, n - 1, n, n + 1}:
            if n > max(cap, 1):
                with pytest.raises(OrbitCapExceeded) as err:
                    W.reduced_words(g, w, cap)
                assert str(err.value) == f"reduced-word set of {g.format(w)} exceeds cap {cap}"
            else:
                assert len(W.reduced_words(g, w, cap)) == n, (g.format(w), cap)


def test_reduced_words_cap_stops_the_walk(monkeypatch):
    # cap 10 on the longest element of A8 (36 letters, 9! elements in its
    # interval): its 8 right descents pass, their 56 prefixes of length 2
    # do not, so the walk of [e, w]_R stops at its second level
    g = catalog.chain([f"s{i}" for i in range(1, 9)], [3] * 7)
    w0 = tuple(j for i in range(8) for j in range(i, -1, -1))
    walk, walked = W._weak_order_levels, []

    def counted(*args):
        for level in walk(*args):
            walked.append(len(level))
            yield level

    monkeypatch.setattr(W, "_weak_order_levels", counted)
    with pytest.raises(OrbitCapExceeded, match="exceeds cap 10$"):
        W.reduced_words(g, w0, 10)
    assert len(walked) == 2 and walked[0] == 8


def _classes_over_rw(g, w, cap):
    """The R(w) route: the commutativity class of the least word of R(w)
    not yet placed, repeatedly, with R(w) listed first."""
    out, placed = [], set()
    for u in sorted(W.reduced_words(g, w, cap)):
        if u not in placed:
            out.append(W.commutativity_class(g, u))
            placed |= out[-1]
    return tuple(out)


def _outcome(route, g, w, cap):
    try:
        return route(g, w, cap)
    except OrbitCapExceeded as err:
        return str(err)


@pytest.mark.parametrize("name", ["B3", "H3", "A~3", "A4", "4-5 ring"])
def test_commutativity_classes_match_rw_route(name):
    # the least words read off [e, w]_R, each with its heap's extensions,
    # against R(w) listed and split: the same classes in the same order,
    # and the same cap error at cap |R(w)| - 1
    g = _INTERVAL_SYSTEMS[name]
    for w in W.elements_up_to(g, 8):
        n = len(W.reduced_words(g, w))
        for cap in (n, n - 1):
            assert _outcome(W.commutativity_classes, g, w, cap) == _outcome(_classes_over_rw, g, w, cap), (g.format(w), cap)


def test_elements_up_to_edges(b3):
    assert W.elements_up_to(b3, 0) == [()]
    assert W.elements_up_to(b3, 1) == [(), (0,), (1,), (2,)]
    assert len(W.elements_up_to(b3, 20)) == 48
    with pytest.raises(ValueError):
        W.elements_up_to(b3, -1)


def test_cayley_oracle_agreement_all_short_words(a3, b3, h3):
    """is_reduced agrees with exact Cayley-graph distances on every word of
    length <= 8, in each finite corpus group."""
    for g, radius in ((a3, 8), (b3, 10), (h3, 16)):
        oracle = GroupOracle(g, radius)
        words = [()]
        for _ in range(8):
            words = [w + (s,) for w in words for s in range(g.rank)]
            for w in words:
                assert W.is_reduced(g, w) == oracle.is_reduced(w), (g, w)


def test_multiply_matches_oracle(b3):
    oracle = GroupOracle(b3, 10)
    import random

    rng = random.Random(7)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        nf = W.multiply(b3, u, v)
        assert oracle.same_element(nf.word, u + v)
        assert oracle.length(u + v) == nf.length


# -- roots against braid search ----------------------------------------------
# is_reduced and normal_form decide by root sequences; the braid-orbit search
# below (Tits: reduced iff no orbit member has two equal adjacent letters),
# over the oracle's own closure, is the independent route they must agree with.


def _reduce_by_search(g, w):
    """A reduced word for the element of w, by braid moves and deletion of
    equal adjacent letters only."""
    while True:
        bad = [u for u in braid_closure(g, w) if W.has_adjacent_repeat(u)]
        if not bad:
            return w
        u = min(bad)
        i = next(k for k in range(len(u) - 1) if u[k] == u[k + 1])
        w = u[:i] + u[i + 2 :]


def _check_against_search(g, w):
    orbit = braid_closure(g, w)
    assert W.is_reduced(g, w) == (not any(W.has_adjacent_repeat(u) for u in orbit)), w
    least = min(braid_closure(g, _reduce_by_search(g, w)))
    assert W.normal_form(g, w) == W.NormalForm(len(least), least), w


@given(small_system())
def test_roots_agree_with_braid_search(gw):
    g, w = gw
    _check_against_search(g, w)


def test_roots_agree_with_braid_search_sqrt2_phi_mix():
    # m = 4 and m = 5 in one graph: coordinates in Z[2cos(pi/20)], which the
    # quadratic-ring oracle cannot represent
    g = CoxeterGraph(["s1", "s2", "s3"], [("s1", "s2", 4), ("s2", "s3", 5), ("s1", "s3", INF)])
    words = [()]
    for _ in range(6):
        words = [w + (s,) for w in words for s in range(g.rank)]
        for w in words:
            _check_against_search(g, w)


_NORMAL_FORM_SYSTEMS = {
    **{name: catalog.coxeter_graph(name) for name in ("A4", "B3", "H3", "A~2", "C~3", "E~6")},
    "I2(7)": CoxeterGraph(["a", "b"], [("a", "b", 7)]),
    "infinite bond": _INTERVAL_SYSTEMS["infinite bond"],
    "4-5 ring": _INTERVAL_SYSTEMS["4-5 ring"],
}


@pytest.mark.parametrize("name", list(_NORMAL_FORM_SYSTEMS))
def test_normal_form_matches_the_greedy_oracle(name):
    # seeded words of 0-60 letters, half of them with a factor u u^-1 that
    # cancels, against the greedy that reflects the later betas; the matrix
    # oracle checks the element too, where its quadratic rings reach (not
    # I2(7), nor the 4-5 ring's Z[2cos(pi/20)])
    g = _NORMAL_FORM_SYSTEMS[name]
    try:
        oracle = GroupOracle(g, 0)
    except ValueError:
        oracle = None
    rng = random.Random(name)
    for k in range(40):
        w = tuple(rng.randrange(g.rank) for _ in range(rng.randrange(61)))
        if k % 2:
            cut = rng.randrange(len(w) + 1)
            u = w[cut : cut + rng.randrange(16)]
            w = w[:cut] + u + W.inverse(u) + w[cut:]
        nf = W.normal_form(g, w)
        assert nf.word == greedy_normal_form(g, w), g.format(w)
        assert nf.length == len(nf.word) and W.is_reduced(g, nf.word)
        if oracle is not None:
            assert oracle.element(nf.word) == oracle.element(w), g.format(w)


@pytest.mark.parametrize("m", [7, 8, 12, 128])
def test_dihedral_bonds_beyond_the_oracle(m):
    g = CoxeterGraph(["s", "t"], [("s", "t", m)])
    braid = tuple(k % 2 for k in range(m))
    assert W.is_reduced(g, braid)
    assert W.normal_form(g, braid).word == braid
    assert not W.is_reduced(g, braid + (m % 2,))
    # <s,t>_m = <t,s>_m, so one letter more shortens to m - 1 letters
    assert W.normal_form(g, (1,) + braid).word == braid[:-1]


def test_former_cap_cases_are_decided():
    a3, a4, aff = (catalog.coxeter_graph(n) for n in ("A3", "A4", "A~3"))
    assert W.normal_form(a3, a3.word("s1 s2 s3") * 8).word == ()
    w0 = a4.word("s1 s2 s1 s3 s2 s1 s4 s3 s2 s1")
    assert W.is_reduced(a4, w0)
    assert W.normal_form(a4, w0 + w0).word == ()
    # powers of Coxeter elements in infinite Coxeter groups are reduced
    # (Speyer, 2009)
    power = aff.word("s1 s2 s3 s4") * 25
    assert W.is_reduced(aff, power)
    assert W.normal_form(aff, power).length == 100
