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
