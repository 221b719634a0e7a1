"""Smoke tests: the evidence scripts run end to end on the package."""

import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import time

import pytest

from coxheaps import catalog, cli
from coxheaps import classifier as CL
from coxheaps.coxgraph import CoxeterGraph
from coxheaps.words import elements_up_to

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _tally_block(stdout):
    """The word count and the verdict tallies, the lines after the diagram."""
    return stdout.splitlines()[1:9]


def test_classify_sweep_b3():
    done = _run("classify_sweep.py", "--type", "B3", "--max-len", "8")
    assert done.returncode == 0, done.stderr
    # every element of B3 but w0 (length 9), and Stembridge's FC count
    assert _tally_block(done.stdout) == [
        "reduced words up to length 8: 167",
        "  elements               47",
        "  cyclically_reduced     20",
        "  torically_reduced      18",
        "  fc                     24",
        "  cfc                    13",
        "  tfc                    18",
        "  faux_cfc               5",
    ]


def test_classify_sweep_graph_file():
    done = _run("classify_sweep.py", "--graph", os.path.join(ROOT, "graphs", "affine_c2.json"), "--max-len", "6")
    assert done.returncode == 0, done.stderr
    assert _tally_block(done.stdout) == [
        "reduced words up to length 6: 106",
        "  elements               57",
        "  cyclically_reduced     31",
        "  torically_reduced      31",
        "  fc                     45",
        "  cfc                    21",
        "  tfc                    31",
        "  faux_cfc               10",
    ]
    assert done.stdout.count("support=") == 10


@pytest.mark.parametrize("script, args, message", [
    ("classify_sweep.py", ("--type", "B3", "--max-len", "-1"), "--max-len must be >= 0"),
    ("classify_sweep.py", ("--type", "Z9"), "unknown type 'Z9'"),
    ("classify_sweep.py", ("--graph", "/nonexistent.json"), "cannot read graph file"),
    ("render_figures.py", ("--type", "B3", "--word", "s9"), "unknown generator 's9'"),
], ids=["negative-length", "unknown-type", "missing-graph", "unknown-generator"])
def test_script_input_errors_are_usage_errors(script, args, message):
    done = _run(script, *args)
    assert done.returncode == 2, (done.stdout, done.stderr)
    assert "Traceback" not in done.stderr
    assert f"error: {message}" in done.stderr
    assert done.stdout == ""


def test_conjecture_evidence_has_no_counterexample():
    done = _run("conjecture_evidence.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == [
        "applicable, seed avoids s, t: 4 consistent, 0 counterexamples",
        "applicable, seed uses s or t: 0 consistent, 0 counterexamples",
        "counterexamples: 0",
    ]


def test_render_figures_b3(tmp_path):
    done = _run("render_figures.py", "--type", "B3", "--word", "s3 s1 s2 s1 s2", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name, kind in (("diagram.gv", "graph coxeter {"), ("heap.gv", "digraph heap {"),
                       ("toric_heap.gv", "digraph toric_heap {")):
        text = (tmp_path / name).read_text()
        assert text.startswith(kind) and text.endswith("}\n"), name
        assert "->" in text or "--" in text, name


def _cli_in_process(*argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _bench():
    spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_writes_report(tmp_path):
    # one small case of each family, once: the report's shape, not its timings
    bench = _bench()
    assert all((layer, family) in bench.BUILDERS for layer, family, _ in bench.CASES)
    small = [(layer, family, 4) for layer, family in bench.BUILDERS]
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    assert bench.main([str(out)], cases=small, repeats=1) == 0
    assert time.perf_counter() - start < 1
    report = json.loads(out.read_text())
    assert report["python"] == platform.python_version() and report["cpus"] == os.cpu_count()
    assert set(report) == {"python", "cpus", "dont_write_bytecode", "git_sha", "git_dirty", "repeats", "cases"}
    assert report["dont_write_bytecode"] == bool(sys.flags.dont_write_bytecode)
    # the 10 letters of the normal form of the longest element of A4 and
    # the 0 of that of its square, its 768 reduced words and none under cap
    # 100, which they exceed, 4! linear extensions, 3! cyclic words, 260
    # cyclic words in R_tor of (s0 s2 s4 s1 s3)^2 over C~4, the 300 letters
    # of (s0 s2 s4 s1 s3)^60, the last length of its logarithmic probe,
    # verdicts of cyclic reducedness on (s0 s2 s4 s1 s3)^4 and the free
    # 4-letter word (true) and the longest element of A4 (false), the JSON
    # of classify on (s0 s2 s4 s1 s3)^3 over C~4, on the longest element of
    # A4, on a b a t1 t2 t3 t4 and on the free 4-letter word, none for that
    # of (s0 ... s6)^3 over E~6, whose R_tor passes cap 1,000, and the JSON
    # of classify on every element up to 4 letters of B3, H3 and A~3 and of
    # E~6, the 62 commutativity classes of the longest element of A4 and the
    # 89 of the 69 elements of A~3 up to 4 letters (both counted by the
    # tests' braid search), (4-1)! classes on K4, 4-1 on C4, and what the
    # two CLI calls print
    want = [10, 0, 768, 0, 24, 6, 260, 300, 1, 1, 0]
    bonded = CoxeterGraph(["a", "b", "t1", "t2", "t3", "t4"], [("a", "b", 3)])
    free = CoxeterGraph(["s1", "s2", "s3", "s4"])
    for g, text in ((catalog.coxeter_graph("C~4"), "s0 s2 s4 s1 s3 " * 3),
                    (catalog.coxeter_graph("A4"), "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1"),
                    (bonded, "a b a t1 t2 t3 t4"), (free, "s1 s2 s3 s4")):
        want.append(len(json.dumps(CL.classify(g, g.word(text)).to_json(g))))
    want.append(0)
    for names in (("B3", "H3", "A~3"), ("E~6",)):
        graphs = [catalog.coxeter_graph(name) for name in names]
        want.append(sum(len(json.dumps(CL.classify(g, w).to_json(g))) for g in graphs for w in elements_up_to(g, 4)))
    want += [62, 89, 6, 3]
    for argv in (("graph", "toric-classes", "-g", "graphs/affine_c4.json"),
                 ("word", "classify", "-g", "graphs/b3.json", "s1 s2 s1 s2")):
        code, printed = _cli_in_process(*argv)
        assert code == 0
        want.append(len(printed))
    assert [row["result_size"] for row in report["cases"]] == want
    assert bench.main([]) == 2
    assert bench.main(["--against", "HEAD"]) == 2


def test_bench_against_a_revision(tmp_path):
    # one tiny paired run against the committed tree, imported as a second
    # package: an in-process case and a CLI case, two pairs each
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    bench = _bench()
    cases = [("cyclic.ltor", "free word", 4), ("cli graph toric-classes", "C~n graph file", 2)]
    out = tmp_path / "bench.json"
    assert bench.main(["--against", "HEAD", str(out)], cases=cases, repeats=2) == 0
    report = json.loads(out.read_text())
    assert report["against"] == {"rev": "HEAD", "git_sha": head.stdout.strip()}
    # the A/A control, this checkout on both sides: the 8! linear extensions
    # of the free 8-letter heap, paired as the cases are
    control = report["control"]
    assert (control["layer"], control["input"], control["size"]) == bench.CONTROL
    assert control["result_size"] == control["against_result_size"] == math.factorial(8)
    for row in report["cases"] + [control]:
        assert len(row["runs_s"]) == len(row["against_runs_s"]) == report["repeats"] == 2
        assert row["against_result_size"] == row["result_size"] > 0
        assert row["ratio"] == row["median_s"] / row["against_median_s"]
        assert row["pairs_won"] in (0, 1, 2)
    against = sys.modules[bench.AGAINST + ".cyclic"].__file__
    assert not against.startswith(os.path.join(ROOT, "src"))
