"""The four workloads: seeded inputs, the calls under test, and their checks.

A workload hands out *rounds*.  A round is a list of items; an item is a
short list of operations (``Op``) that share a scratch dict, so a toric
heap built by one operation is what the next one queries.  ``call(state)``
runs the program and is the only timed part; ``check(result)`` compares
its answer with an independent reference from ``reference.py`` and runs
outside the timed region.

Inputs are stratified: every round holds the same number of items of each
group and length, and only the letters are random, each word being picked
from several draws by a size that its cost grows with, so rounds of
different seeds cost about the same.  Round ``r`` of seed ``s`` depends on
nothing but ``(s, r)``.  A run times a pool of ``POOL_ROUNDS`` rounds over
and over.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
from typing import Callable, NamedTuple

import reference as R
from groups import GRAPH_FILES, GROUPS, load_graphs


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Op(NamedTuple):
    kind: str
    call: Callable  # call(state) -> result; the timed part
    check: Callable  # check(result) -> bool; untimed
    replay: Callable | None = None  # the public steps classify takes


class Workload:
    """Graphs, references and the round generator of one workload."""

    def __init__(self, name: str, seed: int, root: str):
        self.name = name
        self.seed = seed
        self.root = root
        self.child_peak_kb = 0  # largest ru_maxrss of a CLI child so far
        self.graphs = load_graphs(GROUPS[name])
        self.refs = {name: R.Reference(g) for name, g in self.graphs.items()}

    def round(self, index: int) -> list:
        rng = round_rng(self.seed, self.name, index)
        items = _BUILDERS[self.name](self, rng, index)
        rng.shuffle(items)
        return items

    def anchors(self) -> list:
        """Fixed facts checked once per run, outside the timed region:
        ``(label, call)`` where call() returns True when the fact holds."""
        return _ANCHORS.get(self.name, lambda self: [])(self)


# -- word_problem -------------------------------------------------------------

# group: (lengths of u for is_reduced / reduced_words, length of the word a
# that is multiplied and conjugated, length of v).  normal_form searches
# the whole braid orbit of a non-reduced word, which explodes past 12-15
# letters in rank >= 4, so the product and conjugate inputs stay shorter
# than u; with longer ones single calls run into the orbit cap.
WORD_SIZES = {
    "A4": (range(8, 11), 6, 3),
    "B3": (range(8, 10), 8, 3),
    "H3": (range(9, 14), 9, 3),
    "A~3": (range(8, 13), 8, 3),
    "C~3": (range(8, 13), 8, 3),
    "C~4": (range(8, 12), 6, 3),
    "E~6": (range(8, 10), 5, 2),
}


def _word_problem(wl: Workload, rng, index: int) -> list:
    from coxheaps import words as W

    items = []
    for name, (lengths, la, lv) in WORD_SIZES.items():
        g, ref = wl.graphs[name], wl.refs[name]
        for length in lengths:
            u = near_target(ref.count_reduced_words, lambda r, ref=ref, n=length: ref.random_reduced(r, n),
                            rng, ("R(u)", name, length))
            a, v = near_target(lambda pair, g=g: conjugate_orbit(g, *pair),
                               lambda r, ref=ref: random_pair(ref, r, la, lv), rng, ("orbit", name))
            items.append([
                Op("is_reduced", lambda st, g=g, u=u: W.is_reduced(g, u),
                   lambda r, ref=ref, u=u: r is ref.is_reduced(u)),
                Op("multiply", lambda st, g=g, a=a, v=v: W.multiply(g, a, v),
                   lambda r, ref=ref, x=a + v: _normal_form_ok(ref, x, r)),
                Op("conjugate", lambda st, g=g, a=a, v=v: W.conjugate(g, v, a),
                   lambda r, ref=ref, x=tuple(reversed(v)) + a + v: _normal_form_ok(ref, x, r)),
                Op("reduced_words", lambda st, g=g, u=u: W.reduced_words(g, u),
                   lambda r, ref=ref, u=u: _reduced_words_ok(ref, u, r)),
            ])
    return items


def typical_reduced(ref, rng, length: int, size) -> tuple[int, ...]:
    """Of nine random reduced words, the one of median ``size``.  Search
    costs grow with such sizes, which vary by orders of magnitude between
    words of one length; the median draw keeps rounds of different seeds
    at a similar cost."""
    return median_by(size, [ref.random_reduced(rng, length) for _ in range(9)])


def median_by(size, candidates: list):
    return sorted(candidates, key=size)[(len(candidates) - 1) // 2]


# The braid orbit of v^-1 a v is what normal_form searches first, and it
# ranges from tens to thousands of words for one length; counting stops here.
ORBIT_PROXY_CAP = 1500
TARGET_DRAWS = 31
CANDIDATES = 9
_targets: dict = {}


def near_target(size, draw, rng, key):
    """Of nine draws ``draw(rng)``, the one whose ``size`` is nearest, as a
    ratio, to a target: the median size of 31 draws from a generator seeded
    by ``key`` alone.  The target is the same for every seed, so each slot
    of a round costs about the same whatever the seed; the median of a few
    seeded draws still moved by half between seeds."""
    if key not in _targets:
        fixed = random.Random(":".join(map(str, ("target",) + key)))
        _targets[key] = statistics.median_low(size(draw(fixed)) for _ in range(TARGET_DRAWS))
    target = _targets[key]
    return min((draw(rng) for _ in range(CANDIDATES)), key=lambda c: abs(math.log(size(c) / target)))


def random_pair(ref, rng, la: int, lv: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A reduced word a and a word v that starts with the last one or two
    letters of a, reversed, so that they cancel in a v and in v^-1 a v."""
    a = ref.random_reduced(rng, la)
    j = rng.randint(1, min(2, lv, len(a)))
    return a, tuple(reversed(ref.random_reduced(rng, lv, end=a[-j:])))


def conjugate_orbit(g, a, v) -> int:
    return R.braid_orbit_size(g, tuple(reversed(v)) + a + v, ORBIT_PROXY_CAP)


def _normal_form_ok(ref, word, nf) -> bool:
    want = ref.shortlex(word)
    return tuple(nf.word) == want and nf.length == len(want)


def _reduced_words_ok(ref, u, found) -> bool:
    target = ref.element(u)
    return len(found) == ref.count_reduced_words(u) and all(
        len(x) == len(u) and ref.element(x) == target for x in found
    )


def _word_problem_anchors(wl: Workload) -> list:
    from coxheaps import catalog
    from coxheaps import words as W

    def r_w0(name, size):
        g = catalog.coxeter_graph(name)
        w0 = R.Reference(g).elements()[-1]
        return lambda: len(W.reduced_words(g, w0)) == size

    return [(f"|R(w0)| = {n} in {t}", r_w0(t, n)) for t, n in (("A3", 16), ("B3", 42), ("H3", 286))]


# -- classify_sweep -------------------------------------------------------

# group: lengths sampled, one element each per round.  The finite tops are
# in: B3 length 9 is w0 and A4 length 10 is w0.  H3 stops at 11, because
# its longest element takes about half a minute, and the affine ranks stop
# where single calls start to take seconds.
CLASSIFY_LENGTHS = {
    "B3": range(5, 10),
    "H3": range(5, 12),
    "A4": range(5, 11),
    "A~2": range(5, 11),
    "A~3": range(5, 10),
    "C~3": range(5, 10),
    "C~4": range(4, 8),
}

# Stembridge's counts of fully commutative elements.
FC_COUNTS = {"A3": 14, "A4": 42, "B3": 24, "H3": 44}


def _classify_sweep(wl: Workload, rng, index: int) -> list:
    from coxheaps import classifier as C

    items = []
    slot = 0
    for name, lengths in CLASSIFY_LENGTHS.items():
        g, ref = wl.graphs[name], wl.refs[name]
        for length in lengths:
            w = typical_element(ref, rng, length, rotations_reduced=(index + slot) % 2 == 0)
            slot += 1
            items.append([
                Op("classify", lambda st, g=g, w=w: C.classify(g, w),
                   lambda r, g=g, ref=ref, w=w: _verdicts_ok(g, ref, w, r),
                   lambda g=g, w=w: classify_steps(g, w)),
            ])
    return items


def typical_element(ref, rng, length: int, rotations_reduced: bool, tries: int = 200) -> tuple[int, ...]:
    """The shortlex word of a random element of the given length, with
    every rotation reduced or not as asked, and the median |R(w)| of five.

    classify checks every rotation of every reduced word of w, and stops
    at the first rotation that is not reduced, so words whose rotations are
    all reduced cost 10 to 100 times more.  Each slot takes both kinds in
    turn, round by round, so a pool holds as many of each whatever the
    seed.  Where a kind is rare the first draws of the other kind fill in.
    """
    matching, other = [], []
    for _ in range(tries):
        w = ref.shortlex(ref.random_reduced(rng, length))
        kind = all(ref.is_reduced(w[k:] + w[:k]) for k in range(1, len(w)))
        (matching if kind == rotations_reduced else other).append(w)
        if len(matching) == 5:
            break
    return median_by(ref.count_reduced_words, matching or other[:5])


def classify_steps(g, w) -> None:
    """The public steps classify takes on a reduced word, called one by one."""
    from coxheaps import classifier as C
    from coxheaps import cyclic as CY
    from coxheaps import words as W

    W.is_reduced(g, w)
    W.commutativity_classes(g, w)
    CY.is_cyclically_reduced_element(g, w)
    if CY.toric_reduction_witness(g, w) is None:
        CY.cyclic_decomposition(g, w)
    C.is_cfc(g, w)


def _verdicts_ok(g, ref, w, r) -> bool:
    n_words = ref.count_reduced_words(w)
    fc = len(R.commutation_class(g, w)) == n_words
    rotations_reduced = all(ref.is_reduced(w[k:] + w[:k]) for k in range(len(w)))
    return (
        r.reduced
        and r.counts["reducedWords"] == n_words
        and r.fc == fc
        and (not r.cfc or (r.fc and r.tfc))
        and r.faux_cfc == (r.tfc and not r.cfc)
        and (not r.torically_reduced or r.cyclically_reduced)
        and (not r.tfc or r.torically_reduced)
        and (not r.cyclically_reduced or rotations_reduced)
    )


def _classify_anchors(wl: Workload) -> list:
    from coxheaps import catalog
    from coxheaps import words as W

    def census(name, want):
        g = catalog.coxeter_graph(name)
        elements = R.Reference(g).elements()
        return lambda: sum(len(W.commutativity_classes(g, w)) == 1 for w in elements) == want

    return [(f"{n} FC elements in {t}", census(t, n)) for t, n in FC_COUNTS.items()]


# -- heaps_toric ----------------------------------------------------------

# Words of 6-10 letters; E~6 stops at 9, because at 10 letters its L_tor
# reaches 30,240 cyclic words, and one such ltor call alone raises the
# process's peak memory by a third.
HEAP_LENGTHS = {name: range(6, 10) if name == "E~6" else range(6, 11) for name in GROUPS["heaps_toric"]}
# toric_hasse re-enumerates the total toric extensions once per edge; at
# 8 letters and beyond single calls take seconds.
HASSE_MAX_LENGTH = 7


def _heaps_toric(wl: Workload, rng, index: int) -> list:
    from coxheaps import cyclic as CY
    from coxheaps import heaps as H
    from coxheaps import toric as T

    items = []
    for name in GROUPS["heaps_toric"]:
        g, ref = wl.graphs[name], wl.refs[name]
        for length in HEAP_LENGTHS[name]:
            # ltor's cost follows the cyclic class, the largest set listed
            u = typical_reduced(ref, rng, length, lambda w, g=g: len(R.cyclic_commutation_class(g, w)))
            order = R.heap_order(g, u)
            edges = R.word_graph_edges(g, u)
            item = [
                Op("heap_of_word", lambda st, g=g, u=u: st.__setitem__("h", H.heap_of_word(g, u)) or st["h"],
                 lambda h, order=order: {(i, j) for i in range(h.size) for j in range(h.size) if h.less(i, j)} == order),
                Op("hasse_edges", lambda st: H.hasse_edges(st["h"]),
                 lambda r, order=order: set(r) == R.covers(order)),
                Op("linear_extensions", lambda st: H.linear_extensions(st["h"]),
                 lambda r, g=g, u=u: r == R.commutation_class(g, u)),
                Op("toric_heap_of_word", lambda st, g=g, u=u: st.__setitem__("t", CY.toric_heap_of_word(g, u)) or st["t"],
                 lambda t, u=u, edges=edges: t.word == u and set(t.poset.representative.directed_edges()) == edges),
                Op("toric_class", lambda st: st["t"].poset.members,
                 lambda r, edges=edges: {frozenset(o.directed_edges()) for o in r} == R.toric_class(edges)),
                Op("ltor", lambda st: CY.ltor(st["t"]),
                 lambda r, g=g, u=u: {c.canonical for c in r} == R.cyclic_commutation_class(g, u)),
                Op("toric_transitive_closure", lambda st: T.toric_transitive_closure(st["t"].poset),
                 lambda r, edges=edges: edges <= set(r.edges)),
            ]
            if length <= HASSE_MAX_LENGTH:
                item.append(Op("toric_hasse", lambda st: T.toric_hasse(st["t"].poset),
                             lambda r, edges=edges: set(r.edges) <= edges))
            items.append(item)
    for kind, n, graph_edges in _graph_sample(wl, rng):
        items.append(_graph_item(kind, n, graph_edges))
    return items


# Sizes are fixed so that rounds cost alike: cost grows as 2^edges, and a
# single K6 would take as long as the rest of a round.
CYCLE_SIZES = range(4, 10)
COMPLETE_SIZES = range(3, 6)
RANDOM_GRAPH = (7, 10)  # vertices, edges


def _graph_sample(wl: Workload, rng) -> list:
    """Cycles, complete graphs, one diagram skeleton and one random
    connected graph, all within the enumeration and Tutte edge bounds."""
    out = [("cycle", n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))) for n in CYCLE_SIZES]
    out += [("complete", k, [(i, j) for i in range(k) for j in range(i + 1, k)]) for k in COMPLETE_SIZES]
    diagram = wl.graphs[rng.choice(GROUPS["heaps_toric"])]
    out.append(("skeleton", diagram.rank, sorted(diagram.edges())))
    m, e = RANDOM_GRAPH
    tree = [(rng.randrange(v), v) for v in range(1, m)]
    spare = [(i, j) for i in range(m) for j in range(i + 1, m) if (i, j) not in tree]
    out.append(("random", m, sorted(tree + rng.sample(spare, e - len(tree)))))
    return out


def _graph_item(kind: str, n: int, edges) -> list:
    from coxheaps import toric as T

    acyc, classes = R.acyclic_orientation_counts(n, edges)
    if kind == "cycle":
        closed = (2 ** n - 2, n - 1)
    elif kind == "complete":
        closed = (math.factorial(n), math.factorial(n - 1))
    else:
        closed = (acyc, classes)
    graph = T.Graph(n, tuple(edges))
    return [
        Op("all_acyclic_orientations", lambda st: T.all_acyclic_orientations(graph),
         lambda r: len(r) == acyc == closed[0]),
        Op("toric_classes", lambda st: T.toric_classes(graph),
         lambda r: len(r) == classes == closed[1] and sum(map(len, r)) == acyc),
        Op("tutte", lambda st: (T.tutte(graph, 2, 0), T.tutte(graph, 1, 0)),
         lambda r: r == (acyc, classes)),
    ]


# -- cli_oneshot ------------------------------------------------------------

WORD_COMMANDS = (
    ("word", "reduce"), ("word", "reduced-words"), ("word", "comm-classes"), ("word", "classify"),
    ("cyclic", "rtor"), ("cyclic", "ctor"), ("cyclic", "decompose"), ("cyclic", "elements"),
    ("heap", "build"), ("heap", "linexts"), ("heap", "dot"),
    ("toric", "heap"), ("toric", "ltor"), ("toric", "hasse"), ("toric", "closure"),
)
GRAPH_COMMANDS = (
    ("graph", "validate"), ("graph", "orientations"), ("graph", "toric-classes"), ("graph", "tutte"),
    ("coxeter", "elements"), ("coxeter", "conjugacy"),
)
CLI_CALLS_PER_ROUND = 8


def cli_commands(wl: Workload, rng) -> list:
    """Argument lists for ``python -m coxheaps``, with cheap inputs."""
    calls = []
    pool = WORD_COMMANDS + GRAPH_COMMANDS
    for _ in range(CLI_CALLS_PER_ROUND):
        group, command = rng.choice(pool)
        name = rng.choice(GROUPS["cli_oneshot"])
        g, ref = wl.graphs[name], wl.refs[name]
        argv = [group, command, "-g", GRAPH_FILES[name]]
        if group == "cyclic":
            # distinct letters: torically reduced, as the cyclic commands need
            letters = list(range(g.rank))
            rng.shuffle(letters)
            argv.append(g.format(letters[: rng.randint(2, min(5, g.rank))]))
        elif (group, command) == ("word", "reduce"):
            argv.append(g.format(tuple(rng.randrange(g.rank) for _ in range(rng.randint(3, 7)))))
        elif group in ("word", "heap", "toric"):
            argv.append(g.format(ref.random_reduced(rng, rng.randint(3, 6))))
        elif command == "tutte":
            argv += ["--x", str(rng.choice((1, 2))), "--y", "0"]
        if command == "dot" or (group, command) in (("graph", "orientations"), ("toric", "heap")) and rng.random() < 0.25:
            argv += ["--format", "dot"]
        calls.append(argv)
    return calls


def run_cli_in_process(argv) -> tuple[int, str]:
    """cli.main on argv with stdout captured."""
    from coxheaps import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_check(wl: Workload, argv, code: int, stdout: str) -> bool:
    """Exit 0, the same output as the in-process call, and for the
    commands with an independent answer, that answer."""
    if code != 0:
        return False
    want_code, want = run_cli_in_process(argv)
    if want_code != 0 or stdout != want:
        return False
    if "--format" in argv:
        return True
    report = json.loads(stdout)["result"]
    name = next(k for k, f in GRAPH_FILES.items() if f == argv[3])
    g, ref = wl.graphs[name], wl.refs[name]
    key = tuple(argv[:2])
    if key == ("word", "reduce"):
        want_word = ref.shortlex(g.word(argv[4]))
        return report == {"word": g.format(want_word), "length": len(want_word)}
    if key == ("word", "reduced-words"):
        return len(report["words"]) == ref.count_reduced_words(g.word(argv[4]))
    if key == ("heap", "linexts"):
        return {g.word(x) for x in report["words"]} == R.commutation_class(g, g.word(argv[4]))
    if key == ("graph", "orientations"):
        return report["count"] == R.acyclic_orientation_counts(g.rank, g.edges())[0]
    return True


def run_cli_subprocess(root: str, argv) -> tuple[int, str, int]:
    """One ``python -m coxheaps`` call on the checkout's own sources.

    Returns the exit code, the standard output and the child's peak
    resident size in KiB, which ``wait4`` reports for that child alone.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with subprocess.Popen([sys.executable, "-m", "coxheaps", *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _cli_call(wl: Workload, argv) -> tuple[int, str]:
    code, out, peak_kb = run_cli_subprocess(wl.root, argv)
    wl.child_peak_kb = max(wl.child_peak_kb, peak_kb)
    return code, out


def _cli_round(wl: Workload, rng, index: int) -> list:
    return [
        [Op("cli", lambda st, argv=argv: _cli_call(wl, argv), lambda r, argv=argv: cli_check(wl, argv, *r))]
        for argv in cli_commands(wl, rng)
    ]


_BUILDERS = {
    "word_problem": _word_problem,
    "classify_sweep": _classify_sweep,
    "heaps_toric": _heaps_toric,
    "cli_oneshot": _cli_round,
}
_ANCHORS = {
    "word_problem": _word_problem_anchors,
    "classify_sweep": _classify_anchors,
}

NAMES = tuple(_BUILDERS)

# Rounds in the pool that a run times over and over: enough inputs that
# pools of different seeds cost alike, few enough for 6-18 passes in 20 s.
POOL_ROUNDS = {"word_problem": 3, "classify_sweep": 2, "heaps_toric": 3, "cli_oneshot": 2}

