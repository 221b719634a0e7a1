import glob
import itertools
import math
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import counted_root_steps, small_system
from coxheaps import catalog
from coxheaps import classifier as CL
from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.coxgraph import INF, CoxeterGraph, load_coxeter_graph
from coxheaps.errors import (
    NotACoxeterWord,
    NotReduced,
    OrbitCapExceeded,
    SeedWordError,
    ShapeMismatch,
    SpokeError,
)
from oracles import (
    braid_closure,
    commutativity_class,
    down_set_is_cfc,
    down_sets,
    is_move_chain,
    listing_class_count,
    listing_is_cfc,
    listing_is_cyclically_reduced_element,
    listing_is_fc,
    listing_is_tfc,
)

GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")


@pytest.fixture(scope="module")
def affine_c3():
    return catalog.coxeter_graph("C~3")


@pytest.fixture(scope="module")
def paw():
    return CoxeterGraph(
        ["s", "t", "a", "b"],
        [("s", "t", 4), ("t", "a", 3), ("t", "b", 3), ("a", "b", 4)],
    )


def test_is_fc_examples(b3, h3):
    w = "s3 s1 s2 s1 s2"
    assert CL.is_fc(h3, h3.word(w))
    assert not CL.is_fc(b3, b3.word(w))
    for c in CL.coxeter_elements(b3):
        assert CL.is_fc(b3, c)


def test_is_fc_requires_reduced(a3):
    with pytest.raises(NotReduced):
        CL.is_fc(a3, a3.word("s1 s1"))


def test_is_cfc_examples(b3):
    c4t = catalog.coxeter_graph("C~4")
    assert CL.is_cfc(c4t, c4t.word("s0 s1 s2 s3 s4 s3 s2 s1"))
    assert not CL.is_cfc(b3, b3.word("s3 s1 s2 s1 s2"))
    e6t = catalog.coxeter_graph("E~6")
    assert CL.is_cfc(e6t, e6t.word("s1 s3 s2 s4 s3 s5 s4 s6 s0 s3 s2 s6"))
    with pytest.raises(NotReduced):
        CL.is_cfc(b3, b3.word("s1 s2 s2"))


def test_is_tfc_and_faux(b3, affine_c3, paw):
    w = b3.word("s3 s1 s2 s1 s2")
    assert CL.is_tfc(b3, w)
    assert CL.is_faux_cfc(b3, w)
    assert CL.is_faux_cfc(affine_c3, affine_c3.word("s0 s1 s0 s1 s2 s3 s2 s3"))
    assert CL.is_faux_cfc(paw, paw.word("s t s t a b a"))
    # not torically reduced -> not TFC, no error
    assert not CL.is_tfc(b3, b3.word("s3 s2 s1 s2"))


def test_faux_cfc_words_on_the_heap_route(affine_c3, paw):
    for g, text in ((affine_c3, "s0 s1 s0 s1 s2 s3 s2 s3"), (paw, "s t s t a b a")):
        w = g.word(text)
        for u in (w, w[2:], w[4:], w[::-1]):
            _check_heap_route(g, u)
        assert CL.is_faux_cfc(g, w) and not CL.is_cfc(g, w)


def test_fc_classify_answers_past_the_orbit_cap(affine_a3):
    # |R(w)| = 4^6 is far past the cap, but an FC element lists no R(w)
    w = affine_a3.word("s1 s3 s2 s4") * 6
    rep = CL.classify(affine_a3, w, 1000)
    assert rep.counts["reducedWords"] == 4096
    assert rep.fc and rep.cfc and rep.tfc


def test_down_set_count_of_coxeter_powers(affine_a3):
    # in A~3 the Coxeter element s1 s3 s2 s4 has 4^k reduced words for its k-th power
    for k in range(1, 21):
        w = affine_a3.word("s1 s3 s2 s4") * k
        assert down_sets(H.heap_of_word(affine_a3, w))[(1 << 4 * k) - 1] == 4 ** k
    assert CL.is_cfc(affine_a3, w)


def test_classification_report_consistency(b3):
    rep = CL.classify(b3, b3.word("s3 s1 s2 s1 s2"))
    assert rep.reduced and rep.torically_reduced and rep.cyclically_reduced
    assert not rep.fc and not rep.cfc
    assert rep.tfc and rep.faux_cfc
    assert rep.faux_cfc == (rep.tfc and not rep.cfc)
    assert rep.counts == {
        "reducedWords": 3,
        "commutativityClasses": 2,
        "cyclicWords": 2,
        "cyclicCommutativityClasses": 1,
    }
    doc = rep.to_json(b3)
    assert set(doc) == {
        "word", "reduced", "cyclicallyReduced", "toricallyReduced",
        "fc", "cfc", "tfc", "fauxCfc", "counts", "witnesses",
    }


def test_classification_of_non_reduced_word(a3):
    rep = CL.classify(a3, a3.word("s3 s1 s2 s1 s2"))
    assert not rep.reduced
    assert not (rep.fc or rep.cfc or rep.tfc or rep.faux_cfc)
    assert rep.counts["reducedWords"] is None


def test_classification_witness_chain(b3):
    rep = CL.classify(b3, b3.word("s3 s2 s1 s2"))
    assert rep.reduced and rep.cyclically_reduced and not rep.torically_reduced
    assert is_move_chain(b3, b3.word("s3 s2 s1 s2"), rep.witnesses["toricWitnessChain"])


def test_logarithmic_probe(affine_c2, affine_a2):
    w = affine_c2.word("s0 s1 s0 s1 s2")
    probe = CL.logarithmic_probe(affine_c2, w, 2)
    assert probe.violation_at == 2
    assert probe.lengths == (5, 8)
    a1 = CoxeterGraph(["s"])
    probe = CL.logarithmic_probe(a1, (0,), 2)
    assert probe.violation_at == 2 and probe.lengths[-1] == 0
    cox = affine_a2.word("s0 s1 s2")
    probe = CL.logarithmic_probe(affine_a2, cox, 4)
    assert probe.holds and probe.up_to == 4
    with pytest.raises(NotReduced):
        CL.logarithmic_probe(affine_a2, affine_a2.word("s0 s0"), 2)
    with pytest.raises(NotReduced):  # reducedness is checked before the bound
        CL.logarithmic_probe(affine_a2, affine_a2.word("s0 s0"), 0)
    with pytest.raises(ValueError, match="up_to must be >= 1"):
        CL.logarithmic_probe(affine_a2, cox, 0)


_PROBE_SYSTEMS = {
    **{name: lambda name=name: catalog.coxeter_graph(name) for name in ("B3", "H3", "A~2", "C~2", "A~3", "C~4", "E~6")},
    "paw": lambda: load_coxeter_graph(os.path.join(GRAPHS, "paw4.json")),
}


@pytest.mark.parametrize("name", list(_PROBE_SYSTEMS))
def test_logarithmic_probe_matches_normal_forms_of_powers(name):
    # the lengths of w^k folded onto w^(k-1) against the normal form of the
    # word w^k, k <= 8, on seeded random reduced words, some of which violate
    g = _PROBE_SYSTEMS[name]()
    rng = random.Random(name)
    verdicts = []
    for _ in range(30):
        w = ()
        for _ in range(rng.randrange(1, 9)):
            s = rng.randrange(g.rank)
            if W.is_reduced(g, w + (s,)):
                w += (s,)
        lengths, at = [], None
        for k in range(1, 9):
            lengths.append(W.normal_form(g, w * k).length)
            if lengths[-1] < k * len(w):
                at = k
                break
        probe = CL.logarithmic_probe(g, w, 8)
        assert (probe.word, probe.up_to, probe.lengths, probe.violation_at) == (w, 8, tuple(lengths), at), g.format(w)
        verdicts.append(probe.holds)
    assert not all(verdicts)


def test_coxeter_orientation_bijection(affine_a3):
    g = affine_a3
    o = CL.coxeter_to_orientation(g, g.word("s1 s2 s3 s4"))
    assert set(o.directed_edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    back = CL.orientation_to_coxeter(g, o)
    assert W.normal_form(g, back) == W.normal_form(g, g.word("s1 s2 s3 s4"))
    assert len(CL.coxeter_elements(g)) == 14
    with pytest.raises(NotACoxeterWord):
        CL.coxeter_to_orientation(g, g.word("s1 s2 s3"))
    with pytest.raises(NotACoxeterWord):
        CL.coxeter_to_orientation(g, g.word("s1 s2 s3 s3"))
    b3 = catalog.coxeter_graph("B3")
    with pytest.raises(NotACoxeterWord, match="does not live on this Coxeter graph"):
        CL.orientation_to_coxeter(g, CL.coxeter_to_orientation(b3, b3.word("s1 s2 s3")))


def test_roundtrip_all_orientations(affine_a3):
    g = affine_a3
    skel = CL.coxeter_graph_skeleton(g)
    for o in T.all_acyclic_orientations(skel):
        word = CL.orientation_to_coxeter(g, o)
        assert CL.coxeter_to_orientation(g, word) == o


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(GRAPHS, "*.json"))), ids=os.path.basename)
def test_orientation_to_coxeter_is_least_linear_extension(path):
    g = load_coxeter_graph(path)
    for o in T.all_acyclic_orientations(CL.coxeter_graph_skeleton(g)):
        arcs = o.directed_edges()
        least = next(p for p in itertools.permutations(range(g.rank))  # in increasing order
                     if all(p.index(a) < p.index(b) for a, b in arcs))
        assert CL.orientation_to_coxeter(g, o) == least


def test_coxeter_conjugacy_classes(affine_a3):
    classes = CL.coxeter_conjugacy_classes(affine_a3)
    assert sorted(len(c) for c in classes) == [4, 4, 6]
    a2 = catalog.coxeter_graph("A2")
    classes = CL.coxeter_conjugacy_classes(a2)
    assert [len(c) for c in classes] == [2]
    a1 = catalog.coxeter_graph("A1")
    assert [len(c) for c in CL.coxeter_conjugacy_classes(a1)] == [1]


def test_source_flip_conjugator(affine_a3):
    g = affine_a3
    for cls in CL.coxeter_conjugacy_classes(g):
        base = cls[0]
        target = CL.coxeter_to_orientation(g, base)
        for other in cls[1:]:
            v = CL.source_flip_conjugator(
                g, CL.coxeter_to_orientation(g, base), CL.coxeter_to_orientation(g, other)
            )
            assert v is not None
            assert W.conjugate(g, v, base) == W.normal_form(g, other)
        del target
    # inequivalent orientations have no flip path
    c1 = CL.coxeter_to_orientation(g, g.word("s1 s2 s3 s4"))
    c3 = CL.coxeter_to_orientation(g, g.word("s1 s4 s3 s2"))
    assert CL.source_flip_conjugator(g, c1, c3) is None
    # decided from cycle imbalances, so no class search runs into the cap
    assert CL.source_flip_conjugator(g, c1, c3, cap=1) is None
    a4 = catalog.coxeter_graph("A4")
    with pytest.raises(NotACoxeterWord, match="different graphs"):
        CL.source_flip_conjugator(g, c1, CL.coxeter_to_orientation(a4, a4.word("s1 s2 s3 s4")))


def test_odd_braid_obstruction(b3, affine_a2):
    assert not CL.odd_braid_obstruction(b3, b3.word("s3 s1 s2 s1 s2"))
    assert CL.odd_braid_obstruction(affine_a2, affine_a2.word("s2 s0 s1 s0"))
    assert not CL.odd_braid_obstruction(b3, ())


def test_tfc_constructor(b3):
    built = CL.tfc_constructor(b3, ("s1", "s2"), b3.word("s3"))
    assert b3.format(built.word) == "s1 s2 s1 s2 s3"
    assert built.tfc


def test_tfc_constructor_rejections(b3, affine_c3):
    with pytest.raises(SeedWordError):
        CL.tfc_constructor(affine_c3, ("s0", "s1"), affine_c3.word("s2 s3 s2 s3"))
    with pytest.raises(SeedWordError):
        CL.tfc_constructor(b3, ("s1", "s2"), b3.word("s1"))
    with pytest.raises(SeedWordError, match="not reduced"):
        CL.tfc_constructor(b3, ("s1", "s2"), b3.word("s3 s3"))
    with pytest.raises(SpokeError):
        CL.tfc_constructor(b3, ("s2", "s1"), b3.word("s3"))  # s2 is not an endpoint
    with pytest.raises(SpokeError):
        CL.tfc_constructor(b3, ("s3", "s2"), b3.word("s1"))  # m = 3 is odd
    with pytest.raises(SpokeError):
        CL.tfc_constructor(b3, ("s1", "s3"), ())  # not an edge


def test_conjecture_probe_three_shapes(b3, affine_c3, paw):
    probe = CL.conjecture_probe(b3, b3.word("s1 s2 s1 s2 s3"))
    assert probe.applicable and probe.confirmed and probe.shortened_cfc and probe.seed_avoids_st
    probe = CL.conjecture_probe(affine_c3, affine_c3.word("s0 s1 s0 s1 s2 s3 s2 s3"))
    assert probe.applicable and probe.confirmed and not probe.shortened_cfc
    probe = CL.conjecture_probe(paw, paw.word("s t s t a b a"))
    assert not probe.applicable
    assert not probe.shortened_tfc
    assert probe.confirmed is None
    assert "not a theorem" in probe.note


def test_conjecture_probe_seed_that_uses_s_and_t(paw):
    # the seed a b t s t a b is torically reduced but uses s and t: the row
    # breaks the prediction only if the hypothesis asks no more of the seed
    probe = CL.conjecture_probe(paw, paw.word("s t s t a b t s t a b"))
    assert probe.applicable and not probe.seed_avoids_st
    assert probe.confirmed is False and not listing_is_tfc(paw, probe.shortened)


def test_conjecture_probe_shape_errors(b3):
    with pytest.raises(ShapeMismatch):
        CL.conjecture_probe(b3, b3.word("s3 s1 s2 s1 s2"))  # no braid prefix
    with pytest.raises(ShapeMismatch):
        CL.conjecture_probe(b3, b3.word("s1 s2 s3"))  # shorter than <s1,s2>_4
    with pytest.raises(ShapeMismatch, match="alternating braid factor"):
        CL.conjecture_probe(b3, b3.word("s1 s2"))  # too short
    with pytest.raises(ShapeMismatch, match="is not faux CFC"):
        CL.conjecture_probe(b3, b3.word("s1 s2 s1 s2 s3 s2"))  # the full factor, not faux CFC


def test_classify_identity(b3):
    rep = CL.classify(b3, ())
    assert rep.reduced and rep.fc and rep.cfc and rep.tfc and not rep.faux_cfc


def test_finite_group_conjugacy_matches_toric_classes():
    """Coxeter-element conjugacy from exact group enumeration agrees with
    the source-to-sink partition."""
    from oracles import GroupOracle

    for name, radius in (("A3", 8), ("B3", 10), ("H3", 16)):
        g = catalog.coxeter_graph(name)
        oracle = GroupOracle(g, radius)
        coxeter_keys = {oracle.element(c) for c in CL.coxeter_elements(g)}
        for cls in CL.coxeter_conjugacy_classes(g):
            keys = {oracle.element(w) for w in cls}
            full = oracle.conjugacy_class(cls[0])
            assert keys == full & coxeter_keys


def test_strong_cyclic_reducedness_separation(b3):
    """A cyclically reduced element need not have minimal length in its
    conjugacy class; torically reduced corpus elements do."""
    from corpus import SystemCorpus
    from oracles import GroupOracle, strongly_cyclically_reduced

    oracle = GroupOracle(b3, 10)
    w = b3.word("s3 s2 s1 s2")
    from coxheaps import cyclic as CY

    assert CY.is_cyclically_reduced_element(b3, w)
    assert not strongly_cyclically_reduced(oracle, w)  # conjugates down to s2 s1
    corpus = SystemCorpus("B3", b3, 8, 10)
    for word in corpus.words:
        if corpus.torically_reduced(word):
            assert strongly_cyclically_reduced(oracle, word), word


def test_power_collapse_factorization_regression(affine_c2):
    """w = s0s1s0s1s2 factors as w_I * n_I = n_I * w_I with w_I = s0 and
    n_I = s1s0s1s2, which forces l(w^2) < 2 l(w)."""
    g = affine_c2
    w = g.word("s0 s1 s0 s1 s2")
    w_i = g.word("s0")
    n_i = g.word("s1 s0 s1 s2")
    nf = W.normal_form(g, w)
    assert W.multiply(g, w_i, n_i) == nf
    assert W.multiply(g, n_i, w_i) == nf
    square = W.normal_form(g, w + w)
    assert square.length == 8
    assert square == W.normal_form(g, g.word("s1 s0 s1 s2 s1 s0 s1 s2"))


def _brute_classify(g, word):
    """The report of classify(g, word).to_json(g), rebuilt from the
    definitions: the word-level rotations of R(w), the commutativity
    classes of R(w) and of each rotation counted by the tests' own braid
    search (``listing_class_count``), and the cyclic closures listed
    separately."""
    rotations = [word[k:] + word[:k] for k in range(len(word))]
    bad = next((r for r in rotations if not W.is_reduced(g, r)), None)
    if bad is not None and bad == word:
        return {
            "word": g.format(word), "reduced": False, "cyclicallyReduced": False,
            "toricallyReduced": False, "fc": False, "cfc": False, "tfc": False,
            "fauxCfc": False,
            "counts": {"reducedWords": None, "commutativityClasses": None,
                       "cyclicWords": None, "cyclicCommutativityClasses": None},
            "witnesses": {"nonReducedRotation": g.format(word)},
        }
    rw = W.reduced_words(g, word)
    rotated = {u[k:] + u[:k] for u in rw for k in range(len(u))}
    cyclically_reduced = all(W.is_reduced(g, r) for r in rotated)
    classes = listing_class_count(g, word)
    cfc = cyclically_reduced and all(listing_is_fc(g, r) for r in rotated)
    chain = CY.toric_reduction_witness(g, word)
    counts = {"reducedWords": len(rw), "commutativityClasses": classes}
    witnesses = {}
    if bad is not None:
        witnesses["nonReducedRotation"] = g.format(bad)
    if chain is None:
        rtor = CY.rtor_cyclic_class(g, word)
        ctor_classes = {CY.ctor_class(g, cw.canonical) for cw in rtor}
        counts["cyclicWords"] = len(rtor)
        counts["cyclicCommutativityClasses"] = len(ctor_classes)
        tfc = len(ctor_classes) == 1
    else:
        witnesses["toricWitnessChain"] = [g.format(u) for u in chain]
        counts["cyclicWords"] = counts["cyclicCommutativityClasses"] = None
        tfc = False
    return {
        "word": g.format(word), "reduced": True, "cyclicallyReduced": cyclically_reduced,
        "toricallyReduced": chain is None, "fc": classes == 1, "cfc": cfc, "tfc": tfc,
        "fauxCfc": tfc and not cfc, "counts": counts, "witnesses": witnesses,
    }


@pytest.mark.parametrize("name", ["B3", "H3", "A~2"])
def test_classify_matches_brute_force_route(name):
    g = catalog.coxeter_graph(name)
    elements = W.elements_up_to(g, 7)
    assert len(set(elements)) == len(elements)
    for w in elements:
        assert CL.classify(g, w).to_json(g) == _brute_classify(g, w), g.format(w)


@given(small_system())
def test_classify_matches_brute_force_route_random(gw):
    g, w = gw
    assert CL.classify(g, w).to_json(g) == _brute_classify(g, w)
    assert CL.is_tfc(g, w) == listing_is_tfc(g, w), g.format(w)
    if W.is_reduced(g, w):
        _check_heap_route(g, w)
        assert CL.is_faux_cfc(g, w) == (listing_is_tfc(g, w) and not listing_is_cfc(g, w))


def _check_heap_route(g, w):
    """The heap FC test, the CFC and element-level cyclic verdicts and the
    down-set count of the heap, against the listing oracles."""
    fc = CL.is_fc(g, w)
    assert fc == listing_is_fc(g, w), g.format(w)
    assert CL.is_cfc(g, w) == listing_is_cfc(g, w), g.format(w)
    assert CY.is_cyclically_reduced_element(g, w) == listing_is_cyclically_reduced_element(g, w), g.format(w)
    count = down_sets(H.heap_of_word(g, w))[(1 << len(w)) - 1]
    assert count == len(W.commutativity_class(g, w))
    assert not fc or count == len(W.reduced_words(g, w))


@pytest.mark.parametrize("name", ["A4", "B3", "H3", "A~2", "A~3", "C~3"])
def test_heap_route_matches_listing_oracles(name):
    g = catalog.coxeter_graph(name)
    for w in W.elements_up_to(g, 8):
        _check_heap_route(g, w)


def _random_elements(g, rng, length, per_kind, tries=300):
    """Shortlex words of distinct random elements of the given length, up
    to ``per_kind`` of each kind: FC or not, with every rotation of the word
    reduced or not, so that each branch of the rotation checks is met.
    Every other draw only takes letters that keep the element FC."""
    left = dict.fromkeys(itertools.product((False, True), repeat=2), per_kind)
    out = set()
    for draw in range(tries):
        word = ()
        for _ in range(4 * length):
            u = word + (rng.randrange(g.rank),)
            if len(u) <= length and W.is_reduced(g, u) and (draw % 2 or W.is_fc(g, u)):
                word = u
        if len(word) < length:
            continue
        word = W.normal_form(g, word).word
        kind = (W.is_fc(g, word), all(W.is_reduced(g, word[k:] + word[:k]) for k in range(1, length)))
        if word not in out and left[kind]:
            left[kind] -= 1
            out.add(word)
    return sorted(out)


@pytest.mark.parametrize("name", ["B3", "H3", "A~3", "C~3"])
def test_heap_route_matches_listing_oracles_at_nine_and_ten_letters(name):
    g = catalog.coxeter_graph(name)
    rng = random.Random(name)
    elements = [w for length in (9, 10) for w in _random_elements(g, rng, length, 4)]
    assert elements
    for w in elements:
        _check_heap_route(g, w)
        report = CL.classify(g, w)
        assert report.cyclically_reduced == listing_is_cyclically_reduced_element(g, w), g.format(w)
        assert report.cfc == listing_is_cfc(g, w), g.format(w)


def test_cyclically_reduced_pins(affine_c3):
    g = affine_c3
    rs = g.root_system()
    # 39 reduced words in 3 commutativity classes, every rotation reduced
    w = g.word("s1 s0 s1 s2 s1 s0 s3 s2 s3")
    assert CY.is_cyclically_reduced_element(g, w)
    report = CL.classify(g, w)
    assert report.cyclically_reduced
    assert (report.counts["reducedWords"], report.counts["commutativityClasses"]) == (39, 3)
    # w's own pass has pairs, each with i >= j, which bound no rotation
    w = g.word("s0 s1 s0 s1 s2 s3 s2 s3")
    pairs = rs.rotation_pass(w)[1]
    assert pairs and all(i >= j for i, j in pairs)
    assert CY.is_cyclically_reduced_element(g, w)
    assert CL.classify(g, w).cyclically_reduced
    assert listing_is_cyclically_reduced_element(g, w)


CENSUS_SYSTEMS = {
    **{f"{name} <= {n}": (catalog.coxeter_graph(name), n)
       for name, n in (("B3", 9), ("H3", 9), ("A4", 8), ("A~2", 8), ("A~3", 7), ("C~2", 7), ("C~3", 7))},
    **{f"{os.path.basename(p)} <= 6": (load_coxeter_graph(p), 6) for p in sorted(glob.glob(os.path.join(GRAPHS, "*.json")))},
    "4-cycle of 4-bonds <= 6": (catalog.cycle(["s1", "s2", "s3", "s4"], 4), 6),
    "I2(7) <= 7": (CoxeterGraph(["s", "t"], [("s", "t", 7)]), 7),
    "infinite bond <= 7": (CoxeterGraph(["s1", "s2", "s3", "s4"],
                                        [("s1", "s2", INF), ("s2", "s3", 3), ("s3", "s4", 4), ("s1", "s3", 3)]), 7),
    "7-3 path <= 9": (CoxeterGraph(["a", "b", "c"], [("a", "b", 7), ("b", "c", 3)]), 9),
}


@pytest.mark.parametrize("name", CENSUS_SYSTEMS)
def test_interval_census_matches_word_oracles(name):
    # |R(w)|, its class count and element-level cyclic reducedness off the
    # walk of [e, w]_R, against R(w) listed by the tests' own braid search,
    # partitioned by their own short-move search, and the rotations of
    # every listed word; on every element, FC or not.  FC is also read off
    # the heap: one class exactly when the heap has no convex <s,t>_m
    # window (Stembridge), and then |R(w)| is the heap's linear extensions,
    # walked over its down-sets.  The element verdict, which takes the heap
    # route for FC w, agrees.
    g, max_len = CENSUS_SYSTEMS[name]
    for w in W.elements_up_to(g, max_len):
        left, classes = set(braid_closure(g, w)), 0
        count = len(left)
        while left:
            left -= commutativity_class(g, min(left))
            classes += 1
        want = (count, classes, listing_is_cyclically_reduced_element(g, w))
        assert CY._interval_census(g, len(w), *g.root_system().rotation_pass(w)) == want, g.format(w)
        fc = W.is_fc(g, w)
        assert (classes == 1) == fc, g.format(w)
        assert not fc or count == down_sets(H.heap_of_word(g, w))[(1 << len(w)) - 1], g.format(w)
        assert CY.is_cyclically_reduced_element(g, w) == want[2], g.format(w)


def test_interval_census_of_wide_fc_heaps():
    # pairwise commuting letters: [e, w]_R is every subset, each FC with
    # commuting descents, and R(w) is one class of 10! words
    for g in (CoxeterGraph([f"s{i}" for i in range(10)]), catalog.chain([f"s{i}" for i in range(20)], [3] * 19)):
        w = tuple(range(0, g.rank, g.rank // 10))
        assert CY._interval_census(g, 10, *g.root_system().rotation_pass(w)) == (3628800, 1, True)
        assert CY.is_cyclically_reduced_element(g, w)


def test_interval_census_of_a_braid_among_free_letters():
    # w = a b a t1 ... tk, an a-b 3-bond and each t bonded to nothing: R(w)
    # is the shuffles of a b a or b a b with the t's, (k+3)!/3 words in two
    # classes, and the rotation b a t1 ... tk a is not reduced
    for k in range(13):
        g = CoxeterGraph(["a", "b"] + [f"t{i}" for i in range(1, k + 1)], [("a", "b", 3)])
        w = (0, 1, 0) + tuple(range(2, k + 2))
        want = (math.factorial(k + 3) // 3, 2, False)
        assert CY._interval_census(g, k + 3, *g.root_system().rotation_pass(w)) == want, k


@pytest.mark.parametrize("name, max_len", [("B3", 9), ("A~3", 7)])
def test_classify_walks_the_interval_once(name, max_len, monkeypatch):
    # w's root pass and its rotation pairs take l(w) root steps each and the
    # census one for each element of [e, w]_R it makes, so a second walk of
    # the interval fails; its elements are the prefixes of the words of
    # R(w), listed by the tests' braid search and told apart by the matrix
    # oracle
    from oracles import GroupOracle

    g = catalog.coxeter_graph(name)
    oracle = GroupOracle(g, 0)
    sizes = {w: len({oracle.element(u[:k]) for u in braid_closure(g, w) for k in range(len(w) + 1)})
             for w in W.elements_up_to(g, max_len)}
    steps = counted_root_steps(monkeypatch, g)
    for w, size in sizes.items():
        steps[0] = 0
        CL.classify(g, w)
        assert steps[0] <= 2 * len(w) + size, g.format(w)


@pytest.mark.parametrize("name", ["B3", "H3", "A~2", "A4", "C~3"])
def test_cfc_verdict_same_on_every_reduced_word(name):
    g = catalog.coxeter_graph(name)
    for w in W.elements_up_to(g, 7):
        want = listing_is_cfc(g, w)
        assert all(CL.is_cfc(g, u) == want for u in W.reduced_words(g, w)), g.format(w)


def test_cfc_reads_the_last_rotation():
    # only the last rotation, s0 s2 s1 s0 s3 s1, holds a convex <s0,s1>_4
    g = CoxeterGraph(["s0", "s1", "s2", "s3"], [("s0", "s1", 4), ("s1", "s2", 3), ("s2", "s3", 3), ("s3", "s0", INF)])
    w = g.word("s2 s1 s0 s3 s1 s0")
    assert CY.is_cyclically_reduced_word(g, w)
    assert [H._is_fc(H.heap_of_word(g, w[k:] + w[:k])) for k in range(len(w))] == [True] * 5 + [False]
    assert not CL.is_cfc(g, w) and not listing_is_cfc(g, w)


@pytest.mark.parametrize("k", [2, 3])
def test_cfc_of_bipartite_powers_in_affine_a7(k):
    # R(c^2) holds 2,363,392 words, too many to list: the oracle walks down-sets
    g = catalog.cycle([f"s{i}" for i in range(8)])
    w = (0, 2, 4, 6, 1, 3, 5, 7) * k
    assert CL.is_cfc(g, w) and down_set_is_cfc(g, w)
    u = w[:-1] + (2,)  # reduced and FC, but not CFC
    assert CL.is_fc(g, u) and not CL.is_cfc(g, u) and not down_set_is_cfc(g, u)


@pytest.mark.parametrize("name, text", [
    ("A4", "s1 s2 s3 s2"),  # only the other class, s3 s1 s2 s3, has a bad rotation
    ("H3", "s1 s2 s1 s3 s2 s1 s2 s3"),  # FC; only a commutation of w has one
])
def test_bad_rotation_off_w_itself(name, text):
    g = catalog.coxeter_graph(name)
    w = g.word(text)
    assert all(W.is_reduced(g, w[k:] + w[:k]) for k in range(len(w)))
    assert W.is_fc(g, w) == (name == "H3")
    negated, pairs = g.root_system().rotation_pass(w)
    assert CY._bad_rotation(w, pairs) is None
    # a prefix y of another word of R(w), an element of [e, w]_R, fails
    assert not CY._interval_census(g, len(w), negated, pairs)[2]
    assert not CY.is_cyclically_reduced_element(g, w)
    assert not listing_is_cyclically_reduced_element(g, w)
    report = CL.classify(g, w)
    assert not report.cyclically_reduced and "nonReducedRotation" not in report.witnesses


def test_classify_counts_a5_w0_under_a_small_cap():
    # R(w0) holds 292,864 words in 908 classes, far past the cap, which
    # bounds only the R_tor listing; that listing meets a cyclic repeat
    g = catalog.chain([f"s{i}" for i in range(1, 6)], [3] * 4)
    w0 = W.normal_form(g, tuple(s for k in range(5) for s in range(k, -1, -1))).word
    report = CL.classify(g, w0, 1000)
    assert (report.counts["reducedWords"], report.counts["commutativityClasses"]) == (292_864, 908)
    assert not report.fc and not report.torically_reduced and not report.cyclically_reduced


@given(small_system(max_len=5), st.integers(1, 64))
def test_classify_under_cap_answers_alike_or_raises(gw, cap):
    g, w = gw
    try:
        capped = CL.classify(g, w, cap)
    except OrbitCapExceeded:
        return
    assert capped == CL.classify(g, w)


TFC_SYSTEMS = {
    **{name: catalog.coxeter_graph(name) for name in ("A3", "B3", "H3", "A~2", "A~3", "A4", "C~3")},
    **{os.path.basename(p): load_coxeter_graph(p) for p in sorted(glob.glob(os.path.join(GRAPHS, "*.json")))},
    "I2(7)": CoxeterGraph(["s", "t"], [("s", "t", 7)]),
    "4/6/3": CoxeterGraph(["a", "b", "c", "d"], [("a", "b", 4), ("b", "c", 6), ("c", "d", 3)]),
}


@pytest.mark.parametrize("name", TFC_SYSTEMS)
def test_tfc_matches_listing_oracle(name):
    # of these systems only the paw (a t s t b s, rotated to s a t s t b)
    # gets a wrong verdict when what lies below a window is taken by
    # position instead of heap order; keep it in the sweep
    g = TFC_SYSTEMS[name]
    known: dict = {}
    for w in W.elements_up_to(g, 6):
        for u in {w, max(W.reduced_words(g, w))}:
            want = listing_is_tfc(g, u, known)
            assert CL.is_tfc(g, u) == want, g.format(u)
            assert CL.is_faux_cfc(g, u) == (want and not CL.is_cfc(g, u)), g.format(u)


def test_tfc_pins(affine_a3, affine_c3, paw):
    c4t, e6t = catalog.coxeter_graph("C~4"), catalog.coxeter_graph("E~6")
    for g, text in ((affine_c3, "s0 s1 s0 s1 s2 s3 s2 s3"), (paw, "s t s t a b a"),
                    (c4t, "s0 s1 s0 s1 s2 s3 s4 s3 s4")):
        w = g.word(text)
        assert CL.is_faux_cfc(g, w) and listing_is_tfc(g, w) and not listing_is_cfc(g, w), text
    w = c4t.word("s0 s1 s0 s1 s2 s3 s2 s3 s4")
    assert not CL.is_faux_cfc(c4t, w) and not listing_is_tfc(c4t, w)
    # cyclically reduced, and of its three windows' moved words only the
    # last has a toric heap that is not w's: each distinct one is tested
    g = TFC_SYSTEMS["4/6/3"]
    w = g.word("a b a b c d c")
    assert len({CY.cyclic_word(u) for u in CL._moved_words(g, w)}) == 3
    assert not CL.is_tfc(g, w) and not listing_is_tfc(g, w)
    # far past any listing: R_tor of c^4 alone takes seconds to list
    assert CL.is_tfc(c4t, c4t.word("s0 s2 s4 s1 s3") * 20)
    assert CL.is_tfc(affine_a3, affine_a3.word("s1 s3 s2 s4") * 20)
    assert not CL.is_tfc(e6t, e6t.word("s0 s1 s2 s3 s4 s5 s6") * 2)
