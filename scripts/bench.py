#!/usr/bin/env python3
"""Time the listing layers and the CLI at fixed sizes and write the medians as JSON.

    python scripts/bench.py BENCH_<n>.json
    python scripts/bench.py --against REV BENCH_<n>.json

Each case builds its input first and then times one call REPEATS times;
the report keeps every run, their median and the size of the result, so
that two checkouts can be compared case by case.  The in-process cases
are the normal form (sized by its length) of the reversed reduced word of
the longest element of A6, A8 and A10 and of that word twice, whose
letters all cancel, on A14 and A18, R(w) of the longest element of A4
and A5, and of A9 with cap 100, where the listing stops at the cap (sized
0 when it raises OrbitCapExceeded), the linear extensions of the free heap
(pairwise commuting letters, n! orders) on 7, 8 and 9 letters, L_tor of
the free 8-letter word (7! cyclic words), the R_tor listing of the
square of the Coxeter element of C~4 and C~5, the logarithmic probe of
the Coxeter element of C~4 up to its 60th power (sized by the last length,
that of the 60th power where no power is shorter), element-level cyclic
reducedness (a bool verdict, sized 1 when it holds and 0 when not) of
its 4th power on C~3, C~4 and C~5 and of the free word on 12 and 16
letters, both FC and read off the heap, and
of the longest element of A5 and A6, which is not FC and is read off the
walk of [e, w]_R, ``classify`` (sized by the characters of its report's
JSON) of the cube of the Coxeter element of C~3 and C~4, of the longest
element of A5 and A6, of a b a t1 ... tk for k = 8 and 10 (an a-b
3-bond, each t bonded to nothing) and of the free word on 8 and 9
letters, of the cube of the Coxeter element s0 s1 ... s6 of E~6 with its
cap at 10^(n-1) for n = 5 (sized 0 when it raises OrbitCapExceeded, so
the case times the way to exit 3 at cap 10,000), and, in one call each
looping over the elements listed beforehand (sized by the characters of
all their reports' JSON), of
every element of B3, H3 and A~3 up to 7 letters and of E~6 up to 6
letters, the commutativity classes (sized by their number) of the
longest element of A5 and of every element of A~3 up to 8 letters, one
call looping over the elements listed beforehand, and the toric classes
of K6, K7 and C12.
The CLI cases each time one fresh ``python -m coxheaps`` process, start
to exit, and count the characters it prints: ``graph toric-classes`` on
graphs/affine_c<n>.json for C~2, C~3 and C~4, and ``word classify`` on
graphs/b3.json for the first 3, 6 and 9 letters of a reduced word of the
longest element of B3.  The report also records the Python version, the
CPU count, whether the interpreter writes no bytecode
(``sys.flags.dont_write_bytecode``; the CLI processes inherit the
setting, and without cached bytecode each compiles the modules it
imports), and the git commit of the checkout, with whether its tree had
uncommitted changes.  The package is imported from this checkout's
``src/``.

With ``--against REV`` the package of the git revision REV, extracted
with ``git archive`` into a temporary directory, is imported as a second
package, ``coxheaps_against``, beside this checkout's, and each case
times PAIRS pairs of calls, one on each package, alternating which runs
first (a CLI case runs ``python -m coxheaps_against`` on that side).  So
both sides meet the same host state, which two sequential runs do not.
Each case then also records REV's runs, their median and result size,
the ratio of this checkout's median to REV's, and the pairs this
checkout won, its call the faster of the two.  The report's ``control``
row is the A/A control: one fixed case, CONTROL, timed in PAIRS pairs
with this checkout's package on both sides.  Its ratio and pairs won are
the run's noise floor, which a case's ratio and pairs won are read
against.

Each timed call is preceded by a garbage collection, outside the timing,
on both sides of a pair: otherwise a collection that the previous call's
garbage triggers is charged to whichever call happens to run next, and a
case on a path neither side changed can read several percent apart.
"""

import gc
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPEATS = 5
PAIRS = 10
AGAINST = "coxheaps_against"  # the package name REV's tree is imported under
CONTROL = ("heaps.linear_extensions", "free word", 8)  # the A/A case of a run --against REV


def _package(name, path):
    """The modules the cases call, of the package ``name`` found in the
    directory ``path``; AGAINST is imported afresh.  The package imports
    its own modules relatively, through its ``__path__``, so ``path`` is
    on ``sys.path`` only while it is first imported."""
    if name == AGAINST:
        for module in [m for m in sys.modules if m.split(".")[0] == AGAINST]:
            del sys.modules[module]
    sys.path.insert(0, str(path))
    try:
        modules = {m: importlib.import_module(f"{name}.{m}")
                   for m in ("catalog", "classifier", "coxgraph", "cyclic", "errors", "heaps", "toric", "words")}
    finally:
        sys.path.remove(str(path))
    return SimpleNamespace(name=name, path=path, **modules)


def _extract(rev, into):
    """REV's ``src/coxheaps``, written from ``git archive`` as the package AGAINST in ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/coxheaps"], cwd=ROOT, capture_output=True,
                         timeout=60, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                target = Path(into, AGAINST, *Path(member.name).parts[2:])
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(archive.extractfile(member).read())


def _free_word(pkg, n):
    """n generators with no bonds, and the word using each once."""
    return pkg.coxgraph.CoxeterGraph([f"s{i}" for i in range(1, n + 1)]), tuple(range(n))


def _affine_c_coxeter_power(pkg, n, k):
    """The C~n chain s0 - s1 - ... - sn, with 4-bonds at both ends, and the
    k-th power of its Coxeter element s0 s2 ... s1 s3 ... (even letters first)."""
    g = pkg.catalog.chain([f"s{i}" for i in range(n + 1)], [4] + [3] * (n - 2) + [4])
    return g, (tuple(range(0, n + 1, 2)) + tuple(range(1, n + 1, 2))) * k


def _a_longest(pkg, n):
    """The A_n chain s1 - ... - sn and the reduced word s1 (s2 s1) (s3 s2 s1) ...
    of its longest element."""
    g = pkg.catalog.chain([f"s{i}" for i in range(1, n + 1)], [3] * (n - 1))
    return g, tuple(j for i in range(n) for j in range(i, -1, -1))


def _braid_among_free(pkg, k):
    """a - b, a 3-bond, with t1 ... tk bonded to nothing, and the word a b a t1 ... tk."""
    g = pkg.coxgraph.CoxeterGraph(["a", "b"] + [f"t{i}" for i in range(1, k + 1)], [("a", "b", 3)])
    return g, (0, 1, 0) + tuple(range(2, k + 2))


def _classes_up_to(pkg, name, n):
    """One call that takes the commutativity classes of each element of
    the catalog system up to n letters, listed here; its result every class."""
    g = pkg.catalog.coxeter_graph(name)
    elements = pkg.words.elements_up_to(g, n)
    return lambda: [c for w in elements for c in pkg.words.commutativity_classes(g, w)]


def _classify_up_to(pkg, names, n):
    """One call that classifies each element of the catalog systems up to n
    letters, listed here; its result the JSON text of every report."""
    pairs = [(g, w) for g in map(pkg.catalog.coxeter_graph, names) for w in pkg.words.elements_up_to(g, n)]
    return lambda: "".join(json.dumps(pkg.classifier.classify(g, w).to_json(g)) for g, w in pairs)


def _sized(call):
    """The call with its bool verdict as a result of size 1 when it holds, 0 when not."""
    return lambda: (True,) if call() else ()


def _classify(pkg, g, w, cap=None):
    """The call of ``classify`` on w, its result the JSON text of the report;
    with a cap, an empty result when it raises OrbitCapExceeded."""
    if cap is None:
        return lambda: json.dumps(pkg.classifier.classify(g, w).to_json(g))

    def call():
        try:
            return json.dumps(pkg.classifier.classify(g, w, cap).to_json(g))
        except pkg.errors.OrbitCapExceeded:
            return ""
    return call


def _complete(pkg, n):
    return pkg.toric.Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def _cycle(pkg, n):
    return pkg.toric.graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


B3_LONGEST = "s1 s2 s1 s2 s3 s2 s1 s2 s3"  # a reduced word of w0, so each prefix is reduced


def _cli(pkg, *argv):
    """What one ``python -m <package>`` process on the package prints."""
    env = dict(os.environ, PYTHONPATH=str(pkg.path))
    return subprocess.run([sys.executable, "-m", pkg.name, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def _normal_form_of_reversed(pkg, g, w):
    """The call of ``normal_form`` on w reversed, its result the normal form's word."""
    return lambda: pkg.words.normal_form(g, w[::-1]).word


def _normal_form_of_squared(pkg, g, w):
    """The call of ``normal_form`` on w twice, its result the normal form's word."""
    return lambda: pkg.words.normal_form(g, w + w).word


def _logarithmic_probe(pkg, g, w, up_to):
    """The call of ``logarithmic_probe`` on w, its result a range as long as the last length."""
    return lambda: range(pkg.classifier.logarithmic_probe(g, w, up_to).lengths[-1])


def _reduced_words_capped(pkg, g, w, cap):
    """The call of ``reduced_words`` on w with the cap, an empty result when it raises OrbitCapExceeded."""
    def call():
        try:
            return pkg.words.reduced_words(g, w, cap)
        except pkg.errors.OrbitCapExceeded:
            return ()
    return call


# (layer, input family) -> (package, size) -> the call to time, its input built here
BUILDERS = {
    ("words.normal_form", "A_n longest element reversed"):
        lambda pkg, n: _normal_form_of_reversed(pkg, *_a_longest(pkg, n)),
    ("words.normal_form", "A_n longest element squared"):
        lambda pkg, n: _normal_form_of_squared(pkg, *_a_longest(pkg, n)),
    ("words.reduced_words", "A_n longest element"):
        lambda pkg, n: partial(pkg.words.reduced_words, *_a_longest(pkg, n)),
    ("words.reduced_words", "A_n longest element, cap 100"):
        lambda pkg, n: _reduced_words_capped(pkg, *_a_longest(pkg, n), 100),
    ("heaps.linear_extensions", "free word"):
        lambda pkg, n: partial(pkg.heaps.linear_extensions, pkg.heaps.heap_of_word(*_free_word(pkg, n))),
    ("cyclic.ltor", "free word"):
        lambda pkg, n: partial(pkg.cyclic.ltor, pkg.cyclic.toric_heap_of_word(*_free_word(pkg, n))),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared"):
        lambda pkg, n: partial(pkg.cyclic.rtor_cyclic_class, *_affine_c_coxeter_power(pkg, n, 2)),
    ("classifier.logarithmic_probe", "C~n Coxeter element, up to 60"):
        lambda pkg, n: _logarithmic_probe(pkg, *_affine_c_coxeter_power(pkg, n, 1), 60),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th"):
        lambda pkg, n: _sized(partial(pkg.cyclic.is_cyclically_reduced_element, *_affine_c_coxeter_power(pkg, n, 4))),
    ("cyclic.is_cyclically_reduced_element", "free word"):
        lambda pkg, n: _sized(partial(pkg.cyclic.is_cyclically_reduced_element, *_free_word(pkg, n))),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element"):
        lambda pkg, n: _sized(partial(pkg.cyclic.is_cyclically_reduced_element, *_a_longest(pkg, n))),
    ("classifier.classify", "C~n Coxeter element cubed"):
        lambda pkg, n: _classify(pkg, *_affine_c_coxeter_power(pkg, n, 3)),
    ("classifier.classify", "A_n longest element"): lambda pkg, n: _classify(pkg, *_a_longest(pkg, n)),
    ("classifier.classify", "a b a t1 ... tk"): lambda pkg, k: _classify(pkg, *_braid_among_free(pkg, k)),
    ("classifier.classify", "free word"): lambda pkg, n: _classify(pkg, *_free_word(pkg, n)),
    # sized by the cap, not the power: every power past the first lists R_tor up to the cap
    ("classifier.classify", "E~6 Coxeter element cubed, cap 10^(n-1)"):
        lambda pkg, n: _classify(pkg, pkg.catalog.coxeter_graph("E~6"), tuple(range(7)) * 3, 10 ** (n - 1)),
    ("classifier.classify", "B3, H3 and A~3 elements up to n letters"):
        lambda pkg, n: _classify_up_to(pkg, ("B3", "H3", "A~3"), n),
    ("classifier.classify", "E~6 elements up to n letters"): lambda pkg, n: _classify_up_to(pkg, ("E~6",), n),
    ("words.commutativity_classes", "A_n longest element"):
        lambda pkg, n: partial(pkg.words.commutativity_classes, *_a_longest(pkg, n)),
    ("words.commutativity_classes", "A~3 elements up to n letters"): lambda pkg, n: _classes_up_to(pkg, "A~3", n),
    ("toric.toric_classes", "complete graph"): lambda pkg, n: partial(pkg.toric.toric_classes, _complete(pkg, n)),
    ("toric.toric_classes", "cycle graph"): lambda pkg, n: partial(pkg.toric.toric_classes, _cycle(pkg, n)),
    ("cli graph toric-classes", "C~n graph file"):
        lambda pkg, n: partial(_cli, pkg, "graph", "toric-classes", "-g", f"graphs/affine_c{n}.json"),
    ("cli word classify", "B3 word of n letters"):
        lambda pkg, n: partial(_cli, pkg, "word", "classify", "-g", "graphs/b3.json",
                               " ".join(B3_LONGEST.split()[:n])),
}
CASES = (
    ("words.normal_form", "A_n longest element reversed", 6),
    ("words.normal_form", "A_n longest element reversed", 8),
    ("words.normal_form", "A_n longest element reversed", 10),
    ("words.normal_form", "A_n longest element squared", 14),
    ("words.normal_form", "A_n longest element squared", 18),
    ("words.reduced_words", "A_n longest element", 4),
    ("words.reduced_words", "A_n longest element", 5),
    ("words.reduced_words", "A_n longest element, cap 100", 9),
    ("heaps.linear_extensions", "free word", 7),
    ("heaps.linear_extensions", "free word", 8),
    ("heaps.linear_extensions", "free word", 9),
    ("cyclic.ltor", "free word", 8),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared", 4),
    ("cyclic.rtor_cyclic_class", "C~n Coxeter element squared", 5),
    ("classifier.logarithmic_probe", "C~n Coxeter element, up to 60", 4),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 3),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 4),
    ("cyclic.is_cyclically_reduced_element", "C~n Coxeter element to the 4th", 5),
    ("cyclic.is_cyclically_reduced_element", "free word", 12),
    ("cyclic.is_cyclically_reduced_element", "free word", 16),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element", 5),
    ("cyclic.is_cyclically_reduced_element", "A_n longest element", 6),
    ("classifier.classify", "C~n Coxeter element cubed", 3),
    ("classifier.classify", "C~n Coxeter element cubed", 4),
    ("classifier.classify", "A_n longest element", 5),
    ("classifier.classify", "A_n longest element", 6),
    ("classifier.classify", "a b a t1 ... tk", 8),
    ("classifier.classify", "a b a t1 ... tk", 10),
    ("classifier.classify", "free word", 8),
    ("classifier.classify", "free word", 9),
    ("classifier.classify", "E~6 Coxeter element cubed, cap 10^(n-1)", 5),
    ("classifier.classify", "B3, H3 and A~3 elements up to n letters", 7),
    ("classifier.classify", "E~6 elements up to n letters", 6),
    ("words.commutativity_classes", "A_n longest element", 5),
    ("words.commutativity_classes", "A~3 elements up to n letters", 8),
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


def _timed(call):
    gc.collect()
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def measure(pkg, layer, family, size, repeats, against=None):
    """The case's runs on ``pkg``; with ``against``, paired with as many on
    that package, the two calls of a pair in alternating order."""
    call = BUILDERS[layer, family](pkg, size)
    other = None if against is None else BUILDERS[layer, family](against, size)
    runs, other_runs, result, other_result = [], [], None, None
    for k in range(repeats):
        result = other_result = None  # the previous results are freed outside the timing
        if other is not None and k % 2 == 0:
            elapsed, other_result = _timed(other)
            other_runs.append(elapsed)
        elapsed, result = _timed(call)
        runs.append(elapsed)
        if other is not None and k % 2 == 1:
            elapsed, other_result = _timed(other)
            other_runs.append(elapsed)
    row = {"layer": layer, "input": family, "size": size, "result_size": len(result),
           "median_s": statistics.median(runs), "runs_s": runs}
    if other is not None:
        row.update(against_result_size=len(other_result), against_median_s=statistics.median(other_runs),
                   against_runs_s=other_runs, ratio=row["median_s"] / statistics.median(other_runs),
                   pairs_won=sum(a < b for a, b in zip(runs, other_runs)))
    return row


def main(argv, cases=CASES, repeats=None):
    rev = None
    if argv[:1] == ["--against"] and len(argv) == 3:
        rev, argv = argv[1], argv[2:]
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: bench.py [--against REV] OUTPUT.json", file=sys.stderr)
        return 2
    status = _git("status", "--porcelain", "--untracked-files=no")
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "repeats": repeats or (REPEATS if rev is None else PAIRS),
        "cases": [],
    }
    with tempfile.TemporaryDirectory() as scratch:
        pkg, against = _package("coxheaps", SRC), None
        if rev is not None:
            report["against"] = {"rev": rev, "git_sha": _git("rev-parse", "--verify", f"{rev}^{{commit}}")}
            _extract(rev, scratch)
            against = _package(AGAINST, scratch)
            report["control"] = row = measure(pkg, *CONTROL, report["repeats"], pkg)
            print(f"A/A control {' '.join(map(str, CONTROL))}: x{row['ratio']:.2f}  won {row['pairs_won']}")
        for layer, family, size in cases:
            row = measure(pkg, layer, family, size, report["repeats"], against)
            report["cases"].append(row)
            line = f"{layer:36s} {family:30s} {size:3d}  {row['median_s']:.4f} s  ({row['result_size']} out)"
            if against is not None:
                line += f"  against {row['against_median_s']:.4f} s  x{row['ratio']:.2f}  won {row['pairs_won']}"
            print(line)
    Path(argv[0]).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
