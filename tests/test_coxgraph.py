import json
import pickle

import pytest
from hypothesis import given

from conftest import small_system
from coxheaps import catalog
from coxheaps.coxgraph import (
    INF,
    MAX_BOND,
    CoxeterGraph,
    format_word,
    load_coxeter_graph,
    parse_word,
    support,
)
from coxheaps.errors import CoxError, GraphSpecError, UnknownGenerator, WordSyntaxError
from coxheaps.words import is_reduced


def test_b2_paper_graph_has_two_edges(b3):
    assert b3.rank == 3
    assert b3.edges() == ((0, 1), (1, 2))
    assert b3.m("s1", "s2") == 4
    assert b3.m("s2", "s3") == 3
    assert b3.m("s1", "s3") == 2


def test_rank_one_system_is_valid():
    g = CoxeterGraph(["s1"])
    assert g.rank == 1
    assert g.edges() == ()


@pytest.mark.parametrize(
    "gens,bonds",
    [
        (["s1", "s2"], [("s1", "s2", 2)]),  # m = 2 must be omitted
        (["s1", "s2"], [("s1", "s1", 3)]),  # self-bond
        (["s1", "s1"], []),  # duplicate generators
        (["s1"], [("s1", "s9", 3)]),  # unknown generator
        (["s1", "s2"], [("s1", "s2", 3.5)]),  # non-integer
        (["s1", "s2"], [("s1", "s2", 1)]),
        (["s1", "s2"], [("s1", "s2", 3), ("s2", "s1", 4)]),  # duplicate pair
        (["s 1"], []),  # whitespace in name
        (["s1", "s2"], [("s1", "s2", 10**9)]),  # bond above MAX_BOND
        (["s1", "s2"], [("s1", "s2", MAX_BOND + 1)]),
        # lcm 1001 needs a ring of degree phi(2002) / 2 = 360
        (["s1", "s2", "s3", "s4"], [("s1", "s2", 7), ("s2", "s3", 11), ("s3", "s4", 13)]),
    ],
)
def test_invalid_graphs_rejected(gens, bonds):
    with pytest.raises(GraphSpecError):
        CoxeterGraph(gens, bonds)


def test_supported_bond_range_loads():
    # every single bond value up to MAX_BOND, and the {3, 4, 5, inf} mix of
    # the random systems in the tests (lcm of the bonds other than 3: 20,
    # ring degree 8)
    CoxeterGraph(["a", "b"], [("a", "b", MAX_BOND)])
    CoxeterGraph(["a", "b"], [("a", "b", 127)])
    CoxeterGraph(["a", "b", "c", "d"], [("a", "b", 3), ("b", "c", 4), ("c", "d", 5), ("a", "d", "inf")])


def test_inf_bond_round_trip(tmp_path):
    g = CoxeterGraph(["a", "b"], [("a", "b", "inf")])
    assert g.m("a", "b") == INF
    assert not g.commutes("a", "b")
    doc = g.to_json()
    assert doc["bonds"] == [["a", "b", "inf"]]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    assert load_coxeter_graph(str(path)) == g


def test_pickle_round_trip_after_use(b3):
    from coxheaps.words import is_reduced

    assert is_reduced(b3, b3.word("s1 s2 s1 s2"))  # builds the root data
    copy = pickle.loads(pickle.dumps(b3))
    assert copy == b3
    assert is_reduced(copy, copy.word("s1 s2 s1 s2"))


def test_commutes_examples(b3):
    assert b3.commutes("s1", "s3")
    assert not b3.commutes("s1", "s2")
    assert not b3.commutes("s2", "s2")  # m(s, s) = 1, not 2


def test_support_examples(b3):
    w = b3.word("s3 s1 s2 s1 s2")
    assert support(w) == {0, 1, 2}
    assert support(()) == frozenset()
    assert support((0, 0, 0)) == {0}


def test_word_parsing(b3):
    assert b3.word("s3 s1 s2 s1 s2") == (2, 0, 1, 0, 1)
    assert b3.word("31212") == (2, 0, 1, 0, 1)  # 1-based declaration indices
    assert b3.word("") == ()
    assert format_word(b3, (2, 0, 1)) == "s3 s1 s2"
    with pytest.raises(WordSyntaxError):
        b3.word("s4")
    with pytest.raises(WordSyntaxError):
        b3.word("90")


def test_digit_names_win_over_compact_form():
    # "1" is a declared name, so a single token "1" parses as that generator;
    # "12" is not a name, so it falls back to compact indices
    g = CoxeterGraph(["1", "2"], [("1", "2", 3)])
    assert g.word("1") == (0,)
    assert g.word("12") == (0, 1)


def test_check_word_rejects_out_of_range(b3):
    with pytest.raises(UnknownGenerator):
        b3.check_word((0, 5))


def test_bool_letters_rejected(b3):
    # bool is an int subclass; True and False are not generator indices
    with pytest.raises(UnknownGenerator):
        is_reduced(b3, (True, False))
    with pytest.raises(UnknownGenerator):
        b3.m(True, 0)


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(GraphSpecError):
        load_coxeter_graph(str(bad))
    bad.write_text(json.dumps({"bonds": []}))
    with pytest.raises(GraphSpecError):
        load_coxeter_graph(str(bad))
    bad.write_text(json.dumps({"generators": ["a"], "bonds": [["a", 3]]}))
    with pytest.raises(GraphSpecError):
        load_coxeter_graph(str(bad))
    for doc in ({"generators": "a b"}, {"generators": ["a", "b"], "bonds": {"a": "b"}}):
        bad.write_text(json.dumps(doc))
        with pytest.raises(GraphSpecError, match="must be arrays"):
            load_coxeter_graph(str(bad))


def test_catalog_errors():
    with pytest.raises(CoxError, match="unknown type 'Z9'"):
        catalog.coxeter_graph("Z9")
    with pytest.raises(ValueError, match="one bond per consecutive pair"):
        catalog.chain(["s1", "s2", "s3"], [3])


@given(small_system())
def test_json_round_trip(gw):
    g, _ = gw
    assert CoxeterGraph.from_json(g.to_json()) == g


@given(small_system())
def test_commutes_is_symmetric(gw):
    g, _ = gw
    for i in range(g.rank):
        for j in range(g.rank):
            assert g.commutes(i, j) == g.commutes(j, i)


@given(small_system())
def test_bond_table_matches_bonds(gw):
    g, _ = gw
    stored = {(i, j): m for i, j, m in g.bonds()}
    for i in range(g.rank):
        for j in range(g.rank):
            want = 1 if i == j else stored.get((min(i, j), max(i, j)), 2)
            assert g.bond_table[i][j] == want == g.m(g.name(i), j)


@given(small_system())
def test_parse_format_round_trip(gw):
    g, w = gw
    assert parse_word(g, format_word(g, w)) == w
