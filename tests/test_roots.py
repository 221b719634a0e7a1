import math

import pytest

from coxheaps import roots
from coxheaps.coxgraph import INF, CoxeterGraph, ring_degree


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
    assert ring_degree([3, 4, 5]) == 16  # M = 60
    assert ring_degree([7, 11, 13]) == 360


@pytest.mark.parametrize("bonds", [[3, 4, 5, INF], [5, 6], [7, 8], [9, 12]])
def test_reflection_constants_are_two_cos(bonds):
    # s(alpha_t) = alpha_t + 2cos(pi / m(s, t)) alpha_s
    names = [f"s{i}" for i in range(len(bonds) + 1)]
    g = CoxeterGraph(names, [(names[i], names[i + 1], m) for i, m in enumerate(bonds)])
    M = math.lcm(*(m for m in bonds if m != INF))
    x = 2 * math.cos(math.pi / M) if M > 3 else 1
    rs = g.root_system()
    d = len(rs.identity[0]) // g.rank
    for s, t, m in g.bonds():
        for a, b in ((s, t), (t, s)):
            v = rs.reflect(a, rs.identity[b])
            want = 2.0 if m == INF else 2 * math.cos(math.pi / m)
            assert abs(_evaluate(v[a * d : a * d + d], x) - want) < 1e-9
