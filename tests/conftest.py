import hypothesis
import hypothesis.strategies as st
import pytest

from coxheaps import catalog
from coxheaps.coxgraph import INF, CoxeterGraph

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.register_profile("thorough", max_examples=300, deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def b3():
    """Rank-3 chain with bonds (4, 3); generators s1, s2, s3."""
    return catalog.coxeter_graph("B3")


@pytest.fixture(scope="session")
def a3():
    return catalog.coxeter_graph("A3")


@pytest.fixture(scope="session")
def h3():
    return catalog.coxeter_graph("H3")


@pytest.fixture(scope="session")
def affine_a2():
    return catalog.coxeter_graph("A~2")


@pytest.fixture(scope="session")
def affine_a3():
    return catalog.coxeter_graph("A~3")


@pytest.fixture(scope="session")
def affine_c2():
    return catalog.coxeter_graph("C~2")


@st.composite
def small_system(draw, max_rank=4, max_len=6):
    """A random small Coxeter graph together with a word over it."""
    rank = draw(st.integers(1, max_rank))
    names = [f"s{i + 1}" for i in range(rank)]
    bonds = []
    for i in range(rank):
        for j in range(i + 1, rank):
            m = draw(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 7, INF]))
            if m != 2:
                bonds.append((names[i], names[j], m))
    g = CoxeterGraph(names, bonds)
    word = tuple(draw(st.lists(st.integers(0, rank - 1), max_size=max_len)))
    return g, word
