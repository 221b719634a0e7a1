"""The library's value records: equality, hashing, ordering, refusal of
attribute assignment, constructor checks and repr."""

import pytest

from coxheaps import catalog
from coxheaps import classifier as C
from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import toric as T
from coxheaps import words as W
from coxheaps.errors import NotAcyclic

B3 = catalog.coxeter_graph("B3")
C4 = T.Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))


def _records():
    """Each record type: a maker that builds it from the same fields each
    time, and a record of the type that differs in one field."""
    th = CY.toric_heap_of_word(B3, (2, 0, 1))
    return [
        (lambda: T.Graph(3, ((0, 1), (1, 2))), T.Graph(3, ((0, 1),))),
        (lambda: T.AcyclicOrientation(C4, 0b0101), T.AcyclicOrientation(C4, 0b0011)),
        (lambda: W.NormalForm(2, (0, 1)), W.NormalForm(2, (1, 0))),
        (lambda: CY.CyclicWord((0, 1, 2)), CY.CyclicWord((0, 2, 1))),
        (lambda: H.heap_of_word(B3, (2, 0, 1)), H.heap_of_word(B3, (0, 2, 1))),
        (lambda: CY.ToricHeap(B3, (2, 0, 1), th.poset), CY.ToricHeap(B3, (2, 1, 0), th.poset)),
        (lambda: C.classify(B3, (2, 0, 1)), C.classify(B3, (2, 0))),
        (lambda: C.logarithmic_probe(B3, (0, 1), 3), C.logarithmic_probe(B3, (0, 1), 2)),
        (lambda: C.TfcConstruction((0, 1), True), C.TfcConstruction((0, 1), False)),
        (lambda: C.conjecture_probe(B3, (0, 1, 0, 1, 2)), C.ConjectureProbe((), (), True, True, True, True)),
    ]


RECORDS = _records()
IDS = [type(other).__name__ for _, other in RECORDS]


@pytest.mark.parametrize("make, other", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a != tuple(getattr(a, name) for name in a._fields)  # only a record of its own class
    try:
        hash(a)
    except TypeError:  # the fields of a ClassificationReport hold dicts
        assert isinstance(a, C.ClassificationReport)
    else:
        assert hash(a) == hash(b) == hash(a._values())  # as a frozen dataclass hashes
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("make, other", RECORDS, ids=IDS)
def test_records_refuse_assignment(make, other):
    a = make()
    name = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make()


def test_normal_forms_and_cyclic_words_order_as_their_fields():
    forms = [W.NormalForm(n, w) for n, w in ((2, (1, 0)), (1, (2,)), (2, (0, 1)), (0, ()))]
    assert sorted(forms) == [W.NormalForm(n, w) for n, w in sorted((f.length, f.word) for f in forms)]
    a, b = W.NormalForm(1, (2,)), W.NormalForm(2, (0, 1))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a and not a < a
    words = [CY.CyclicWord(w) for w in ((0, 2, 1), (0, 1), (0, 1, 2), ())]
    assert sorted(words) == [CY.CyclicWord(w) for w in sorted(c.canonical for c in words)]
    assert min(words) == CY.CyclicWord(())
    u, v = CY.CyclicWord((0, 1, 2)), CY.CyclicWord((0, 2, 1))
    assert u < v and u <= v and v > u and v >= u and not v < u
    with pytest.raises(TypeError):
        u < W.NormalForm(3, (0, 1, 2))


def test_constructor_checks_still_raise():
    for n, edges in ((3, ((1, 0),)), (3, ((0, 3),)), (3, ((0, 1), (0, 1))), (3, ((1, 2), (0, 1)))):
        with pytest.raises(ValueError):
            T.Graph(n, edges)
    with pytest.raises(ValueError, match="beyond the edge list"):
        T.AcyclicOrientation(C4, 1 << 4)
    with pytest.raises(NotAcyclic):
        T.AcyclicOrientation(C4, 0b1101)  # 0 -> 1 -> 2 -> 3 -> 0


def test_reprs_name_the_fields():
    assert repr(T.Graph(2, ((0, 1),))) == "Graph(n=2, edges=((0, 1),))"
    assert repr(T.AcyclicOrientation(T.Graph(2, ((0, 1),)), 1)) == (
        "AcyclicOrientation(graph=Graph(n=2, edges=((0, 1),)), forward=1)")
    assert repr(W.NormalForm(2, (0, 1))) == "NormalForm(length=2, word=(0, 1))"
    assert repr(CY.CyclicWord((0, 1))) == "CyclicWord(canonical=(0, 1))"
    assert repr(C.TfcConstruction((0,), True)) == "TfcConstruction(word=(0,), tfc=True)"


def test_cached_orders_survive_the_refusal():
    graph = T.Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
    assert graph.incident == graph.incident and len(graph.cycle_basis) == 1
    h = H.heap_of_word(B3, (2, 0, 1, 0, 1))
    assert h.below is h.below
