import glob
import math
import os
import random

import pytest

from coxheaps import catalog, roots
from coxheaps.coxgraph import INF, CoxeterGraph, load_coxeter_graph, ring_degree

GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")


def _evaluate(poly, x):
    return sum(c * x**k for k, c in enumerate(poly))


@pytest.mark.parametrize("M", range(4, 41))
def test_min_poly_vanishes_at_two_cos(M):
    psi = roots._min_poly(M)
    assert psi[-1] == 1
    assert len(psi) - 1 == ring_degree([M])
    assert abs(_evaluate(psi, 2 * math.cos(math.pi / M))) < 1e-6


def test_ring_degree_examples():
    assert ring_degree([]) == 1
    assert ring_degree([3]) == 1
    assert ring_degree([4]) == ring_degree([5]) == ring_degree([6]) == 2
    assert ring_degree([3, 4, 5]) == 8  # M = 20: 2cos(pi / 3) = 1 needs no ring
    assert ring_degree([7, 11, 13]) == 360


@pytest.mark.parametrize("bonds", [[3, 4, 5, INF], [5, 6], [7, 8], [9, 12]])
def test_reflection_constants_are_two_cos(bonds):
    # s(alpha_t) = alpha_t + 2cos(pi / m(s, t)) alpha_s, read as column t
    # of the element s, the identity's columns right-multiplied by s
    names = [f"s{i}" for i in range(len(bonds) + 1)]
    g = CoxeterGraph(names, [(names[i], names[i + 1], m) for i, m in enumerate(bonds)])
    M = math.lcm(*(m for m in bonds if m not in (3, INF)))
    x = 2 * math.cos(math.pi / M) if M > 1 else 1
    rs = g.root_system()
    d = len(rs.identity[0]) // g.rank
    for s, t, m in g.bonds():
        for a, b in ((s, t), (t, s)):
            cols = list(rs.identity)
            rs.times(cols, a)
            v = cols[b]
            want = 2.0 if m == INF else 2 * math.cos(math.pi / m)
            assert abs(_evaluate(v[a * d : a * d + d], x) - want) < 1e-9


ROTATION_PAIR_SYSTEMS = {
    **{name: lambda name=name: catalog.coxeter_graph(name) for name in catalog.names()},
    **{os.path.basename(path): lambda path=path: load_coxeter_graph(path)
       for path in sorted(glob.glob(os.path.join(GRAPHS, "*.json")))},
    "I2(7)": lambda: CoxeterGraph(["a", "b"], [("a", "b", 7)]),
    "bonds 4 and 6": lambda: CoxeterGraph(["a", "b", "c", "d"], [("a", "b", 4), ("b", "c", 6), ("c", "d", 3)]),
}


@pytest.mark.parametrize("name", sorted(ROTATION_PAIR_SYSTEMS))
def test_rotation_pairs_decide_every_rotation(name):
    # rotation k is reduced iff no pair (i, j) has i < k <= j
    g = ROTATION_PAIR_SYSTEMS[name]()
    rs = g.root_system()
    rng = random.Random(name)
    for _ in range(30):
        word = ()
        for _ in range(12):
            s = rng.randrange(g.rank)
            if rs.is_reduced(word + (s,)):
                word += (s,)
        pairs = rs.rotation_pass(word)[1]
        for k in range(1, len(word)):
            reduced = rs.is_reduced(word[k:] + word[:k])
            assert reduced == (not any(i < k <= j for i, j in pairs)), (g.format(word), k)
            assert (rs.descents(word[k:] + word[:k]) is None) == (not reduced)


@pytest.mark.parametrize("name", sorted(ROTATION_PAIR_SYSTEMS))
def test_rotation_pairs_of_a_word_that_is_not_reduced(name):
    # None, as from descents: the root pass stops at the first beta_j = -beta_i
    g = ROTATION_PAIR_SYSTEMS[name]()
    rs = g.root_system()
    assert rs.rotation_pass((0, 0)) is None
    rng = random.Random(name)
    for _ in range(30):
        word = tuple(rng.randrange(g.rank) for _ in range(rng.randrange(9)))
        assert (rs.rotation_pass(word) is None) == (not rs.is_reduced(word)), g.format(word)
