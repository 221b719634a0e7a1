"""Smoke tests: the evidence scripts run end to end on the package."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_classify_sweep_b3():
    done = _run("classify_sweep.py", "--type", "B3", "--max-len", "8")
    assert done.returncode == 0, done.stderr
    tally = dict(line.split() for line in done.stdout.splitlines() if line.startswith("  ") and "support=" not in line)
    # every element of B3 but w0 (length 9), and Stembridge's FC count
    assert tally["elements"] == "47"
    assert tally["fc"] == "24"


def test_conjecture_evidence_has_no_counterexample():
    done = _run("conjecture_evidence.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "counterexamples: 0"


def test_render_figures_b3(tmp_path):
    done = _run("render_figures.py", "--type", "B3", "--word", "s3 s1 s2 s1 s2", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    for name, kind in (("diagram.gv", "graph coxeter {"), ("heap.gv", "digraph heap {"),
                       ("toric_heap.gv", "digraph toric_heap {")):
        text = (tmp_path / name).read_text()
        assert text.startswith(kind) and text.endswith("}\n"), name
        assert "->" in text or "--" in text, name
