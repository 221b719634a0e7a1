#!/usr/bin/env python3
"""Time the listing layers and the CLI at fixed sizes and write the medians as JSON.

    python scripts/bench.py BENCH_<n>.json

Each case builds its input first and then times one call REPEATS times;
the report keeps every run, their median and the size of the result, so
that two checkouts can be compared case by case.  The in-process cases
are the linear extensions of the free heap (pairwise commuting letters,
n! orders) on 7, 8 and 9 letters, L_tor of the free 8-letter word (7!
cyclic words), the R_tor listing of the square of the Coxeter element of
C~4 and C~5, element-level cyclic reducedness (a bool verdict, sized 1
when it holds and 0 when not) of its 4th power on C~3, C~4 and C~5 and
of the free word on 12 and 16 letters, both FC and read off the heap, and
of the longest element of A5 and A6, which is not FC and is read off the
walk of [e, w]_R, and the toric classes of K6, K7 and C12.  The CLI cases each
time one fresh ``python -m coxheaps`` process, start to exit, and count
the characters it prints: ``graph toric-classes`` on graphs/affine_c<n>.json
for C~2, C~3 and C~4, and ``word classify`` on graphs/b3.json for the
first 3, 6 and 9 letters of a reduced word of the longest element of B3.
The report also records the Python version, the CPU count, whether the
interpreter writes no bytecode (``sys.flags.dont_write_bytecode``; the CLI
processes inherit the setting, and without cached bytecode each compiles
the modules it imports), and the git commit of the checkout, with whether
its tree had uncommitted changes.  The package is imported from this
checkout's ``src/``.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coxheaps import catalog  # noqa: E402
from coxheaps import cyclic as CY  # noqa: E402
from coxheaps import heaps as H  # noqa: E402
from coxheaps import toric as T  # noqa: E402
from coxheaps.coxgraph import CoxeterGraph  # noqa: E402

REPEATS = 5


def _free_word(n):
    """n generators with no bonds, and the word using each once."""
    return CoxeterGraph([f"s{i}" for i in range(1, n + 1)]), tuple(range(n))


def _affine_c_coxeter_power(n, k):
    """The C~n chain s0 - s1 - ... - sn, with 4-bonds at both ends, and the
    k-th power of its Coxeter element s0 s2 ... s1 s3 ... (even letters first)."""
    g = catalog.chain([f"s{i}" for i in range(n + 1)], [4] + [3] * (n - 2) + [4])
    return g, (tuple(range(0, n + 1, 2)) + tuple(range(1, n + 1, 2))) * k


def _a_longest(n):
    """The A_n chain s1 - ... - sn and the reduced word s1 (s2 s1) (s3 s2 s1) ...
    of its longest element."""
    g = catalog.chain([f"s{i}" for i in range(1, n + 1)], [3] * (n - 1))
    return g, tuple(j for i in range(n) for j in range(i, -1, -1))


def _sized(call):
    """The call with its bool verdict as a result of size 1 when it holds, 0 when not."""
    return lambda: (True,) if call() else ()


def _complete(n):
    return T.Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _cycle(n):
    return T.graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


B3_LONGEST = "s1 s2 s1 s2 s3 s2 s1 s2 s3"  # a reduced word of w0, so each prefix is reduced


def _cli(*argv):
    """What one ``python -m coxheaps`` process on this checkout prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "coxheaps", *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


# (layer, input family) -> size -> the call to time, its input built here
BUILDERS = {
    ("heaps.linear_extensions", "free word"): lambda n: partial(H.linear_extensions, H.heap_of_word(*_free_word(n))),
    ("cyclic.ltor", "free word"): lambda n: partial(CY.ltor, CY.toric_heap_of_word(*_free_word(n))),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared"):
        lambda n: partial(CY.rtor_cyclic_class, *_affine_c_coxeter_power(n, 2)),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th"):
        lambda n: _sized(partial(CY.is_cyclically_reduced_element, *_affine_c_coxeter_power(n, 4))),
    ("cyclic.is_cyclically_reduced_element", "free word"):
        lambda n: _sized(partial(CY.is_cyclically_reduced_element, *_free_word(n))),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element"):
        lambda n: _sized(partial(CY.is_cyclically_reduced_element, *_a_longest(n))),
    ("toric.toric_classes", "complete graph"): lambda n: partial(T.toric_classes, _complete(n)),
    ("toric.toric_classes", "cycle graph"): lambda n: partial(T.toric_classes, _cycle(n)),
    ("cli graph toric-classes", "C~n graph file"):
        lambda n: partial(_cli, "graph", "toric-classes", "-g", f"graphs/affine_c{n}.json"),
    ("cli word classify", "B3 word of n letters"):
        lambda n: partial(_cli, "word", "classify", "-g", "graphs/b3.json", " ".join(B3_LONGEST.split()[:n])),
}
CASES = (
    ("heaps.linear_extensions", "free word", 7),
    ("heaps.linear_extensions", "free word", 8),
    ("heaps.linear_extensions", "free word", 9),
    ("cyclic.ltor", "free word", 8),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared", 4),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared", 5),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 3),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 4),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 5),
    ("cyclic.is_cyclically_reduced_element", "free word", 12),
    ("cyclic.is_cyclically_reduced_element", "free word", 16),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element", 5),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element", 6),
    ("toric.toric_classes", "complete graph", 6),
    ("toric.toric_classes", "complete graph", 7),
    ("toric.toric_classes", "cycle graph", 12),
    ("cli graph toric-classes", "C~n graph file", 2),
    ("cli graph toric-classes", "C~n graph file", 3),
    ("cli graph toric-classes", "C~n graph file", 4),
    ("cli word classify", "B3 word of n letters", 3),
    ("cli word classify", "B3 word of n letters", 6),
    ("cli word classify", "B3 word of n letters", 9),
)


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(layer, family, size, repeats):
    call = BUILDERS[layer, family](size)
    runs, result = [], None
    for _ in range(repeats):
        result = None  # the previous result is freed outside the timing
        start = time.perf_counter()
        result = call()
        runs.append(time.perf_counter() - start)
    return {"layer": layer, "input": family, "size": size, "result_size": len(result),
            "median_s": statistics.median(runs), "runs_s": runs}


def main(argv, cases=CASES, repeats=REPEATS):
    if len(argv) != 1:
        print("usage: bench.py OUTPUT.json", file=sys.stderr)
        return 2
    status = _git("status", "--porcelain", "--untracked-files=no")
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "repeats": repeats,
        "cases": [],
    }
    for layer, family, size in cases:
        row = measure(layer, family, size, repeats)
        report["cases"].append(row)
        print(f"{layer:36s} {family:30s} {size:3d}  {row['median_s']:.4f} s  ({row['result_size']} out)")
    Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
