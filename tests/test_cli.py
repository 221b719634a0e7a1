import json
import os

import pytest

from coxheaps import catalog
from coxheaps.classifier import coxeter_graph_skeleton
from coxheaps.cli import main
from coxheaps.coxgraph import load_coxeter_graph
from oracles import filter_acyclic_orientations, is_move_chain

GRAPHS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "graphs")
AFFINE_A3_JSON = os.path.join(GRAPHS, "affine_a3.json")


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name in ("A3", "B3", "A~2", "A~3"):
        path = root / f"{name.replace('~', 'aff')}.json"
        path.write_text(json.dumps(catalog.coxeter_graph(name).to_json()))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_word_classify(graph_files, capsys):
    code, out = run(capsys, "word", "classify", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    assert code == 0
    doc = json.loads(out)
    assert doc["schemaVersion"] == 1
    assert doc["input"]["word"] == "s3 s1 s2 s1 s2"
    result = doc["result"]
    assert result["fc"] is False
    assert result["tfc"] is True
    assert result["fauxCfc"] is True


def test_graph_tutte(graph_files, capsys):
    code, out = run(capsys, "graph", "tutte", "-g", graph_files["A~3"], "--x", "2", "--y", "0")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 14


def test_word_reduce(graph_files, capsys):
    code, out = run(capsys, "word", "reduce", "-g", graph_files["A3"], "s3 s1 s2 s1 s2")
    assert code == 0
    assert json.loads(out)["result"] == {"word": "s3 s2 s1", "length": 3}


def test_graph_validate_and_orientations(graph_files, capsys):
    code, out = run(capsys, "graph", "validate", "-g", graph_files["B3"])
    assert code == 0
    assert json.loads(out)["result"]["rank"] == 3
    code, out = run(capsys, "graph", "orientations", "-g", graph_files["A~3"])
    assert json.loads(out)["result"]["count"] == 14
    code, out = run(capsys, "graph", "toric-classes", "-g", graph_files["A~3"])
    result = json.loads(out)["result"]
    assert result["count"] == 3
    members = [m for cls in result["classes"] for m in cls]
    assert all(len(m) == 4 and set(m) <= {"0", "1"} for m in members)
    assert all(cls == sorted(cls) for cls in result["classes"])


def test_cyclic_subcommands(graph_files, capsys):
    code, out = run(capsys, "cyclic", "rtor", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    assert code == 0
    assert json.loads(out)["result"]["cyclicWords"] == [
        "[s1 s2 s1 s2 s3]",
        "[s1 s2 s1 s3 s2]",
    ]
    code, out = run(capsys, "cyclic", "decompose", "-g", graph_files["A~2"], "s2 s0 s1 s0")
    assert json.loads(out)["result"]["count"] == 3
    code, out = run(capsys, "cyclic", "elements", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    result = json.loads(out)["result"]
    assert len(result["words"]) == 10
    assert len(result["elements"]) == 4
    # the elements come from the element walk, the words from the listing
    code, out = run(capsys, "cyclic", "elements", "-g", graph_files["A~2"], "s2 s0 s1 s0")
    result = json.loads(out)["result"]
    assert result["elements"] == [
        "s0 s1 s0 s2", "s0 s1 s2 s1", "s0 s2 s0 s1", "s1 s0 s2 s0", "s1 s2 s1 s0", "s2 s0 s1 s0",
    ]
    assert len(result["words"]) == 12


def test_heap_subcommands(graph_files, capsys):
    code, out = run(capsys, "heap", "build", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    result = json.loads(out)["result"]
    assert result["hasse"] == [[1, 3], [2, 3], [3, 4], [4, 5]]
    code, out = run(capsys, "heap", "linexts", "-g", graph_files["B3"], "s1 s3 s2 s1 s2")
    assert json.loads(out)["result"]["words"] == ["s1 s3 s2 s1 s2", "s3 s1 s2 s1 s2"]
    code, out = run(capsys, "heap", "dot", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    assert out.startswith("digraph heap")
    assert out.count("->") == 4


def test_toric_subcommands(graph_files, capsys):
    code, out = run(capsys, "toric", "heap", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    result = json.loads(out)["result"]
    assert len(result["toricHasse"]) == 6  # 4 cover edges + 2 wrap edges
    code, out = run(capsys, "toric", "heap", "-g", graph_files["B3"], "s3 s1 s2 s1 s2",
                    "--format", "dot")
    assert out.startswith("digraph toric_heap")
    assert out.count("->") == 6
    code, out = run(capsys, "toric", "ltor", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
    assert json.loads(out)["result"]["cyclicWords"] == [
        "[s1 s2 s1 s2 s3]",
        "[s1 s2 s1 s3 s2]",
    ]
    code, out = run(capsys, "toric", "closure", "-g", graph_files["A~3"], "s1 s2 s3 s4")
    assert len(json.loads(out)["result"]["edges"]) == 6


def test_coxeter_subcommands(graph_files, capsys):
    code, out = run(capsys, "coxeter", "elements", "-g", graph_files["A~3"])
    assert len(json.loads(out)["result"]["elements"]) == 14
    code, out = run(capsys, "coxeter", "conjugacy", "-g", graph_files["A~3"])
    result = json.loads(out)["result"]
    assert result["count"] == 3
    assert sorted(len(c) for c in result["classes"]) == [4, 6, 4] or sorted(
        len(c) for c in result["classes"]
    ) == [4, 4, 6]


def test_orientations_listed_in_filter_order(capsys):
    # the skeleton of A~3 is a 4-cycle, so the filter drops two of the 16 masks
    skel = coxeter_graph_skeleton(load_coxeter_graph(AFFINE_A3_JSON))
    code, out = run(capsys, "graph", "orientations", "-g", AFFINE_A3_JSON)
    assert code == 0
    assert json.loads(out)["result"]["orientations"] == [o.bitstring() for o in filter_acyclic_orientations(skel)]


def test_orientation_dot_format(graph_files, capsys):
    code, out = run(capsys, "graph", "orientations", "-g", graph_files["A~3"],
                    "--format", "dot")
    assert code == 0
    assert out.count("digraph orientation") == 14
    assert 'label="s1"' in out


def test_empty_word(graph_files, capsys):
    code, out = run(capsys, "word", "classify", "-g", graph_files["B3"], "")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["reduced"] and result["tfc"] and not result["fauxCfc"]


def test_domain_error_exit_code(graph_files, capsys):
    code, out = run(capsys, "word", "reduce", "-g", graph_files["A3"], "s9")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "WordSyntaxError"


def test_not_torically_reduced_error(graph_files, capsys):
    code, out = run(capsys, "cyclic", "rtor", "-g", graph_files["B3"], "s3 s2 s1 s2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotToricallyReduced"


def test_cap_exit_code(graph_files, capsys):
    code, out = run(capsys, "word", "reduced-words", "-g", graph_files["B3"],
                    "s1 s2 s1 s2", "--max-orbit", "1")
    assert code == 3
    assert "CapExceeded" in json.loads(out)["error"]["type"]


@pytest.mark.parametrize("graph, word, cap", [
    ("b3.json", "s1 s2 s1 s2", 1),
    ("h3.json", "s1 s2 s1 s2 s1 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3", 285),  # w0: 286 words
    # c^3 for the Coxeter element c of E~6 has millions of reduced words:
    # a level of the interval passes the cap long before the top
    ("affine_e6.json", " ".join(["s0 s1 s2 s3 s4 s5 s6"] * 3), 100_000),
])
def test_reduced_words_cap_report(capsys, graph, word, cap):
    # the exit-3 report, byte for byte, of R(w) and of its commutativity
    # classes, which take the cap of R(w)
    for command in ("reduced-words", "comm-classes"):
        code, out = run(capsys, "word", command, "-g", os.path.join(GRAPHS, graph), word, "--max-orbit", str(cap))
        assert code == 3
        assert out == (
            f'{{\n  "schemaVersion": 1,\n  "command": "word.{command}",\n  "error": {{\n'
            f'    "type": "OrbitCapExceeded",\n    "message": "reduced-word set of {word} exceeds cap {cap}"\n  }}\n}}\n'
        )


@pytest.mark.parametrize("command", ["rtor", "ctor", "decompose", "elements"])
def test_cyclic_listing_past_the_cap_is_settled(capsys, command):
    # the listing trips cap 3 before it meets a cyclic repeat; the word is
    # not torically reduced, so it is a domain error, not an open cap
    word = "s1 s2 s1 s3 s2 s4"
    code, out = run(capsys, "cyclic", command, "-g", AFFINE_A3_JSON, word, "--max-orbit", "3")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "NotToricallyReduced", "message": f"{word} is not torically reduced",
    }
    word = "s3 s1 s2 s1 s2"  # torically reduced: the cap error stands
    code, out = run(capsys, "cyclic", command, "-g", os.path.join(GRAPHS, "b3.json"), word, "--max-orbit", "1")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "OrbitCapExceeded", "message": f"cyclic closure of {word} exceeds cap 1",
    }


def test_classify_over_the_cap_of_a_torically_reduced_word(capsys):
    # the word is torically reduced, so the cyclic listing's own cap error stands
    word = " ".join(["s0 s1 s2 s3 s4 s5 s6"] * 2)
    code, out = run(capsys, "word", "classify", "-g", os.path.join(GRAPHS, "affine_e6.json"), word,
                    "--max-orbit", "20000")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "OrbitCapExceeded", "message": f"cyclic closure of {word} exceeds cap 20000",
    }


H3_W0 = "s1 s2 s1 s2 s1 s3 s2 s1 s2 s1 s3 s2 s1 s2 s3"


def test_classify_counts_r_w_past_the_cap(capsys):
    # R(w) is counted over [e, w]_R with no cap: only the R_tor listing
    # (22 cyclic words) is bounded, so cap 100 answers as the default does
    path = os.path.join(GRAPHS, "h3.json")
    reports = []
    for cap in ([], ["--max-orbit", "100"]):
        code, out = run(capsys, "word", "classify", "-g", path, H3_W0, *cap)
        assert code == 0
        reports.append(json.loads(out)["result"])
    assert reports[0] == reports[1]
    assert reports[0]["counts"] == {
        "reducedWords": 286, "commutativityClasses": 44, "cyclicWords": 22, "cyclicCommutativityClasses": 4,
    }
    code, out = run(capsys, "word", "classify", "-g", path, H3_W0, "--max-orbit", "20")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "OrbitCapExceeded", "message": f"cyclic closure of {H3_W0} exceeds cap 20",
    }


@pytest.mark.parametrize("path, word, cap", [
    (os.path.join(GRAPHS, "b3.json"), "s1 s2 s1 s3", "3"),
    (AFFINE_A3_JSON, "s2 s3 s4 s1 s3 s4", "40"),
])
def test_classify_names_the_chain_its_listing_met(capsys, path, word, cap):
    # the cyclic listing meets a cyclic repeat below the cap and names the
    # chain of moves to it, so no second search runs into the cap
    code, out = run(capsys, "word", "classify", "-g", path, word, "--max-orbit", cap)
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["toricallyReduced"]
    g = load_coxeter_graph(path)
    assert is_move_chain(g, g.word(word), [g.word(u) for u in result["witnesses"]["toricWitnessChain"]])


def test_classify_decided_past_its_cap(capsys):
    # the listing trips cap 1 before it meets a cyclic repeat, and the walk
    # decides that the word is not torically reduced: the verdict stands,
    # with no chain
    path, word = os.path.join(GRAPHS, "b3.json"), "s3 s2 s1 s2"
    code, out = run(capsys, "word", "classify", "-g", path, word, "--max-orbit", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["toricallyReduced"] and result["witnesses"] == {}
    _, out = run(capsys, "word", "classify", "-g", path, word)
    full = json.loads(out)["result"]
    assert "toricWitnessChain" in full["witnesses"]
    del full["witnesses"]["toricWitnessChain"]
    assert result == full


@pytest.mark.parametrize("command", [("graph", "toric-classes"), ("coxeter", "conjugacy")])
def test_class_partitions_ignore_class_cap(graph_files, capsys, command):
    # the partitions are grouped by cycle imbalances and list no class, so they take no class cap
    code, out = run(capsys, *command, "-g", graph_files["A~3"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 3
    assert sorted(map(len, result["classes"])) == [4, 4, 6]
    with pytest.raises(SystemExit) as exc:
        main([*command, "-g", graph_files["A~3"], "--max-class", "1"])
    assert exc.value.code == 2


def test_usage_error_exit_code(graph_files):
    with pytest.raises(SystemExit) as exc:
        main(["word", "bogus-command", "-g", graph_files["A3"], "s1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--max-orbit", "--max-class", "--max-extensions"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_cap_is_usage_error(graph_files, capsys, flag, value):
    # each flag goes to a command that reads it, so the value is what is refused
    command = {"--max-orbit": ("word", "reduced-words"), "--max-class": ("toric", "ltor"),
               "--max-extensions": ("heap", "linexts")}[flag]
    assert run(capsys, *command, "-g", graph_files["A3"], "s1", flag, "1")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*command, "-g", graph_files["A3"], "s1", flag, value])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_missing_graph_file(tmp_path, capsys):
    code, out = run(capsys, "word", "reduce", "-g", str(tmp_path / "absent.json"), "s1")
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "word.reduce"
    assert doc["error"]["type"] == "GraphFileError"


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # json.loads recurses once per level
    json.dumps({"generators": ["s1", "s2"], "bonds": [[["s1"], "s2", 3]]}),  # an unhashable endpoint
], ids=["deeply-nested", "list-endpoint"])
def test_malformed_graph_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run(capsys, "word", "reduce", "-g", str(path), "s1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "GraphSpecError"


def test_linexts_of_a_long_chain(capsys):
    # the heap of (s1 s2)^750 is a chain of 1,500 positions with one extension
    word = " ".join(["s1 s2"] * 750)
    code, out = run(capsys, "heap", "linexts", "-g", os.path.join(GRAPHS, "a3.json"), word)
    assert code == 0
    assert json.loads(out)["result"]["words"] == [word]


def test_word_reduce_needs_no_cap(graph_files, capsys):
    # (s1 s2 s3)^8 is the identity of A3; braid search hit its cap on it
    code, out = run(capsys, "word", "reduce", "-g", graph_files["A3"], "123" * 8)
    assert code == 0
    assert json.loads(out)["result"] == {"word": "", "length": 0}
    with pytest.raises(SystemExit) as exc:
        main(["word", "reduce", "-g", graph_files["A3"], "123" * 8, "--max-orbit", "1"])
    assert exc.value.code == 2


def test_byte_identical_reruns(graph_files, capsys):
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "word", "classify", "-g", graph_files["B3"], "s3 s1 s2 s1 s2")
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        _, out = run(capsys, "cyclic", "decompose", "-g", graph_files["A~2"], "s2 s0 s1 s0")
        outputs.add(out)
    assert len(outputs) == 2


# The arguments each command reads besides -g; every other option must be refused (exit 2).
READS = {
    ("graph", "validate"): (),
    ("graph", "orientations"): ("--format",),
    ("graph", "toric-classes"): (),
    ("graph", "tutte"): ("--x/--y",),
    ("word", "reduce"): ("word",),
    ("word", "reduced-words"): ("word", "--max-orbit"),
    ("word", "comm-classes"): ("word", "--max-orbit"),
    ("word", "classify"): ("word", "--max-orbit"),
    ("cyclic", "rtor"): ("word", "--max-orbit"),
    ("cyclic", "ctor"): ("word", "--max-orbit"),
    ("cyclic", "decompose"): ("word", "--max-orbit"),
    ("cyclic", "elements"): ("word", "--max-orbit"),
    ("heap", "build"): ("word",),
    ("heap", "linexts"): ("word", "--max-extensions"),
    ("heap", "dot"): ("word", "--format"),
    ("toric", "heap"): ("word", "--format"),
    ("toric", "ltor"): ("word", "--max-class"),
    ("toric", "hasse"): ("word",),
    ("toric", "closure"): ("word",),
    ("coxeter", "elements"): (),
    ("coxeter", "conjugacy"): (),
}
OPTIONS = {
    "--format": ["--format", "json"],
    "--max-orbit": ["--max-orbit", "5"],
    "--max-class": ["--max-class", "5"],
    "--max-extensions": ["--max-extensions", "5"],
    "--x/--y": ["--x", "2", "--y", "0"],
}


@pytest.mark.parametrize("option", list(OPTIONS))
@pytest.mark.parametrize("command", list(READS), ids="-".join)
def test_each_command_takes_only_what_it_reads(graph_files, capsys, command, option):
    argv = [*command, "-g", graph_files["A3"]]
    if "word" in READS[command]:
        argv.append("s1 s2")
    if command == ("graph", "tutte") and option != "--x/--y":
        argv += OPTIONS["--x/--y"]  # required, so that only the option under test can be refused
    try:
        code = main(argv + OPTIONS[option])
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert (code == 2) == (option not in READS[command])
    assert code in (0, 2)
