#!/usr/bin/env python3
"""Benchmark of coxheaps: four workloads, each a closed loop with one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload word_problem --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` draws a pool of seeded rounds, runs passes over it until
the operations have been busy for ``--seconds``, checks every answer of
the first pass against an independent reference outside the timed region
and prints the end-to-end metrics, taken from each operation's fastest
pass.  ``--trace 1`` runs the first round of every workload
once untraced and once with spans around the public functions of each
module, whatever ``--workload`` names, so that every per-layer metric is
measured in every traced run; it prints the per-layer metrics and the
tracing overhead of each workload, and writes the spans to
``perfbench/out/``.  ``--workload all`` runs each workload in a fresh
process and prints every metric of all four.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
SETUP_REPEATS = 3
INTERPRETER_PROBES = 7
MOVE_REPEATS = 20
BOND_REPEATS = 200
TRACE_ROUNDS = 3
MIN_PASSES = 3
CHOOSE_CPU_EVERY_S = 0.25

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ALL = ("word_problem", "classify_sweep", "heaps_toric", "cli_oneshot")
WP, CS, HT, CLI = ALL
REPLAY = "classify_replay"

# metric: (traced function, measure, workloads whose spans count).  The
# workloads are the ones whose end-to-end metrics the layer should move.
SPAN_METRICS = {
    "coxgraph.load_coxeter_graph.busy_s": ("coxgraph.load_coxeter_graph", "busy_s", ALL),
    "words.is_reduced.calls": ("words.is_reduced", "calls", (WP, CS)),
    "words.is_reduced.busy_s": ("words.is_reduced", "busy_s", (WP, CS)),
    "words.normal_form.calls": ("words.normal_form", "calls", (WP,)),
    "words.normal_form.busy_s": ("words.normal_form", "busy_s", (WP,)),
    "words.reduced_words.calls": ("words.reduced_words", "calls", (WP, CS)),
    "words.reduced_words.busy_s": ("words.reduced_words", "busy_s", (WP, CS)),
    "words.reduced_words.words_out": ("words.reduced_words", "size", (WP, CS)),
    "words.commutativity_classes.busy_s": ("words.commutativity_classes", "busy_s", (CS,)),
    "words.commutativity_classes.classes_out": ("words.commutativity_classes", "size", (CS,)),
    # classify runs a private copy of this check; the replay calls the public one
    "cyclic.is_cyclically_reduced_element.busy_s": ("cyclic.is_cyclically_reduced_element", "busy_s", (REPLAY,)),
    "cyclic.toric_reduction_witness.busy_s": ("cyclic.toric_reduction_witness", "busy_s", (CS,)),
    "cyclic.cyclic_decomposition.busy_s": ("cyclic.cyclic_decomposition", "busy_s", (CS,)),
    "cyclic.cyclic_decomposition.cyclic_words_out": ("cyclic.cyclic_decomposition", "size", (CS,)),
    "cyclic.toric_heap_of_word.busy_s": ("cyclic.toric_heap_of_word", "busy_s", (HT,)),
    "cyclic.ltor.busy_s": ("cyclic.ltor", "busy_s", (HT,)),
    "cyclic.ltor.cyclic_words_out": ("cyclic.ltor", "size", (HT,)),
    "classifier.classify.calls": ("classifier.classify", "calls", (CS,)),
    "classifier.classify.busy_s": ("classifier.classify", "busy_s", (CS,)),
    "classifier.is_cfc.busy_s": ("classifier.is_cfc", "busy_s", (CS,)),
    "heaps.heap_of_word.busy_s": ("heaps.heap_of_word", "busy_s", (HT,)),
    "heaps.hasse_edges.busy_s": ("heaps.hasse_edges", "busy_s", (HT,)),
    "heaps.linear_extensions.busy_s": ("heaps.linear_extensions", "busy_s", (HT,)),
    "heaps.linear_extensions.words_out": ("heaps.linear_extensions", "size", (HT,)),
    "toric.toric_class.busy_s": ("toric.toric_class", "busy_s", (HT,)),
    "toric.toric_class.members_out": ("toric.toric_class", "size", (HT,)),
    "toric.toric_classes.busy_s": ("toric.toric_classes", "busy_s", (HT,)),
    "toric.all_acyclic_orientations.busy_s": ("toric.all_acyclic_orientations", "busy_s", (HT,)),
    "toric.all_acyclic_orientations.count": ("toric.all_acyclic_orientations", "size", (HT,)),
    "toric.total_toric_extensions.busy_s": ("toric.total_toric_extensions", "busy_s", (HT,)),
    "toric.total_toric_extensions.orders_out": ("toric.total_toric_extensions", "size", (HT,)),
    "toric.toric_hasse.busy_s": ("toric.toric_hasse", "busy_s", (HT,)),
    "toric.toric_transitive_closure.busy_s": ("toric.toric_transitive_closure", "busy_s", (HT,)),
    "toric.tutte.busy_s": ("toric.tutte", "busy_s", (HT,)),
    "cli.main.busy_s": ("cli.main", "busy_s", (CLI,)),
}
MEASURE_UNITS = {"calls": "count", "size": "count", "busy_s": "s"}
OTHER_LAYER_UNITS = {
    "classifier.classify.self_s": "s",
    "classifier.classify.self_share": "share",
    "coxgraph.m.ns_per_call": "ns",
    "words.braid_moves.ns_per_move": "ns",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    **{f"trace.{name}.overhead_share": "share" for name in ALL},
}


def prepare() -> None:
    """Import the checkout's own coxheaps and test oracle, or exit."""
    for rel in ("src/coxheaps/__init__.py", "tests/oracles.py", "graphs/b3.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            sys.exit(f"perfbench: {rel} is missing; run the benchmark from a full checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    os.chdir(ROOT)
    import coxheaps

    if not os.path.abspath(coxheaps.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"perfbench: imported coxheaps from {coxheaps.__file__}, not from this checkout")


def timed_run(argv: list[str]) -> tuple[float, str]:
    """Wall time and standard output of one run of a command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - start, proc.stdout


def setup_seconds(workload: str) -> float:
    """The fastest set-up time of a few fresh probe processes started back
    to back, so that a slow spell of the host during one of them does not
    count; the run reports the median over such probes."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    return min(float(timed_run(argv)[1]) for _ in range(SETUP_REPEATS))


def run_op(op, state: dict, failures: list[str], check: bool = True) -> tuple[float, bool]:
    """Time one call, then check its answer outside the timed region.

    Returns the seconds taken and whether the item may go on: an operation
    that raises ends its item, since the item's later operations use its
    result.  A typed cap error counts as a failure like any other.
    """
    start = perf_counter()
    try:
        result = op.call(state)
    except Exception as exc:
        elapsed = perf_counter() - start
        failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        return elapsed, False
    elapsed = perf_counter() - start
    if check:
        try:
            ok = op.check(result) is True
        except Exception:  # a check that cannot run counts the answer as wrong
            ok = False
        if not ok:
            failures.append(f"{op.kind}: wrong answer")
    return elapsed, True


class CpuChooser:
    """Pins this process, and the children it starts, to the CPU that runs
    a short fixed loop fastest.

    On a shared host each CPU is slowed by its neighbours on its own:
    every few seconds one CPU or the other, or both, runs about 1.7 times
    slower, with little correlation between them.  Moving to the faster
    CPU now and then makes the fast state the common one.  It acts on this
    process alone, and changes nothing in the code under test.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.moves = 0
        self.fastest_probe = math.inf

    @staticmethod
    def _probe() -> float:
        start = perf_counter()
        seen = set()
        for i in range(3000):
            seen.add((i * 7919) % 1009)
        return perf_counter() - start

    def choose(self) -> None:
        if len(self.cpus) < 2:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(self._probe() for _ in range(3)), cpu))
        fastest, cpu = min(timings)
        os.sched_setaffinity(0, {cpu})
        self.fastest_probe = min(self.fastest_probe, fastest)
        self.moves += 1


def repeated_passes(pool: list, seconds: float, after_pass, chooser: CpuChooser) -> tuple[list[float], int, int, list[str], float]:
    """Run passes over the same items until the operations have been busy
    for ``seconds``, and keep each operation's fastest time.

    The host switches between a fast state and one about 1.7 times slower
    every few seconds, and its slow spells can last a minute.  An
    operation's fastest time over the passes is the time it takes in the
    fast state, so it repeats from run to run where any mean or median
    over the run follows the share of time the host happened to be slow.
    Answers are checked on the first pass, outside the timed region; an
    operation that raises counts as failed on every pass.  Returns the
    fastest time of each operation that completed at least once, the
    number of calls and of passes, the failures and the busy time.
    ``after_pass(busy)`` runs between passes, outside the timed region.
    """
    best = [[math.inf] * len(item) for item in pool]
    failures: list[str] = []
    calls = passes = 0
    busy = chosen_at = 0.0
    chooser.choose()
    while busy < seconds or passes < MIN_PASSES:
        for times, item in zip(best, pool):
            if busy - chosen_at >= CHOOSE_CPU_EVERY_S:
                chooser.choose()
                chosen_at = busy
            state: dict = {}
            for k, op in enumerate(item):
                elapsed, go_on = run_op(op, state, failures, check=passes == 0)
                calls += 1
                busy += elapsed
                times[k] = min(times[k], elapsed)
                if not go_on:
                    break
        passes += 1
        after_pass(busy)
    fastest = [t for times in best for t in times if t < math.inf]
    return fastest, calls, passes, failures, busy


def tail(latencies: list[float]) -> tuple[float, float]:
    """The mean of the slowest tenth of the latencies, and of at least ten
    of them, with the percentile that they lie beyond.

    A single high percentile of a pool of hundreds of operations falls on
    one of its few costliest inputs, which differ from seed to seed; the
    mean over all of them moves far less.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = min(n, max(10, n // 10))
    return 100.0 * (n - k) / n, statistics.fmean(ordered[n - k:])


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    from workloads import POOL_ROUNDS, Workload

    wl = Workload(workload, seed, ROOT)
    pool = [item for index in range(POOL_ROUNDS[workload]) for item in wl.round(index)]
    setups: list[float] = []
    chooser = CpuChooser()

    def probe_setup(busy: float) -> None:
        # spread over the run, so the median spans the same host noise
        while len(setups) < SETUP_PROBES and busy >= (len(setups) + 1) * seconds / (SETUP_PROBES + 1):
            chooser.choose()
            setups.append(setup_seconds(workload))

    fastest, calls, passes, failures, busy = repeated_passes(pool, seconds, probe_setup, chooser)
    if workload == CLI:
        peak_rss_mb = wl.child_peak_kb / 1024.0
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_PROBES:
        chooser.choose()
        setups.append(setup_seconds(workload))
    attempted = calls
    for label, fact in wl.anchors():
        attempted += 1
        try:
            held = fact() is True
        except Exception as exc:
            held = False
            label += f" ({type(exc).__name__})"
        if not held:
            failures.append(f"anchor failed: {label}")
    if not fastest:
        sys.exit(f"perfbench: no operation of {workload} completed; first failures: {failures[:5]}")
    percentile, tail_s = tail(fastest)
    ordered = sorted(fastest)
    ten_beyond = max(0, len(ordered) - 11)
    metrics = {
        "ops_per_s": len(fastest) / sum(fastest),
        "latency_p50_ms": statistics.median(fastest) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "pool_operations": sum(map(len, pool)),
        "passes": passes,
        "calls": calls,
        "cpu_moves": chooser.moves,
        "cpu_probe_us": chooser.fastest_probe * 1e6,
        "busy_s": busy,
        "ops_per_s_all_calls": calls / busy,
        "latency_tail_percentile": percentile,
        # the highest percentile with at least ten samples beyond it
        "latency_top_percentile": 100.0 * (ten_beyond + 1) / len(ordered),
        "latency_top_percentile_ms": ordered[ten_beyond] * 1000.0,
        "latency_samples": len(fastest),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
    }
    return report(metrics, END_TO_END_UNITS, attempted, len(failures), detail)


def report(values: dict, units: dict, attempted: int, failed: int, detail: dict) -> dict:
    for name, value in values.items():
        print(f"{name:>46}  {value:>14.6g}  {units[name]}")
    print("detail: " + json.dumps(detail))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


# -- traced run -------------------------------------------------------------


def run_item(item, failures: list[str], check: bool = True) -> float:
    """Run the operations of one item in order; return the busy seconds."""
    busy = 0.0
    state: dict = {}
    for op in item:
        elapsed, go_on = run_op(op, state, failures, check)
        busy += elapsed
        if not go_on:
            break
    return busy


def traced(seed: int) -> dict:
    from spans import Tracer
    from workloads import Op, Workload, cli_commands, round_rng, run_cli_in_process

    tracer = Tracer()
    failures: list[str] = []
    attempted = 0
    values: dict = {}
    replay_s = 0.0
    for name in ALL:
        tracer.workload = name
        tracer.install()
        wl = Workload(name, seed, ROOT)
        tracer.uninstall()
        if name == CLI:
            items = [[Op("cli.main", lambda st, argv=argv: run_cli_in_process(argv), lambda r: r[0] == 0)]
                     for index in range(TRACE_ROUNDS)
                     for argv in cli_commands(wl, round_rng(seed, name, index))]
        else:
            items = [item for index in range(TRACE_ROUNDS) for item in wl.round(index)]
        attempted += sum(map(len, items))
        plain = with_spans = 0.0
        for number, item in enumerate(items):
            # each item both ways back to back, taking turns at going first,
            # so host drift and warm-up hit both alike
            if number % 2:
                plain += run_item(item, failures)
            tracer.op_id = number
            tracer.install()
            with_spans += run_item(item, failures, check=False)
            if item[0].replay is not None:
                tracer.workload = REPLAY
                start = perf_counter()
                item[0].replay()
                replay_s += perf_counter() - start
                tracer.workload = name
            tracer.uninstall()
            if not number % 2:
                plain += run_item(item, failures)
        values[f"trace.{name}.overhead_share"] = with_spans / plain - 1.0
        if name == WP:
            values.update(layer_microbenchmarks(wl, seed))

    summary = tracer.summary()
    for metric, (function, measure, homes) in SPAN_METRICS.items():
        values[metric] = sum(summary.get((home, function), {}).get(measure, 0) for home in homes)
    classify_s = values["classifier.classify.busy_s"]
    values["classifier.classify.self_s"] = classify_s - replay_s
    values["classifier.classify.self_share"] = (classify_s - replay_s) / classify_s
    values.update(interpreter_costs())

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "out", f"trace-seed{seed}.json"))
    print_self_times(summary)
    units = {m: MEASURE_UNITS[spec[1]] for m, spec in SPAN_METRICS.items()} | OTHER_LAYER_UNITS
    ordered = {m: values[m] for m in units}
    detail = {"seed": seed, "absent": tracer.missing, "failures": failures[:20],
              "spans": len(tracer.spans), "classify_replay_s": replay_s}
    return report(ordered, units, attempted, len(failures), detail)


def layer_microbenchmarks(wl, seed: int) -> dict:
    """Bond lookups over every generator pair, and braid moves enumerated
    from seeded reduced words like the workload's."""
    from workloads import WORD_SIZES, round_rng

    from coxheaps.words import braid_moves

    pairs = [(g, i, j) for g in wl.graphs.values() for i in range(g.rank) for j in range(g.rank)]
    start = perf_counter()
    for _ in range(BOND_REPEATS):
        for g, i, j in pairs:
            g.m(i, j)
    bond_ns = (perf_counter() - start) / (BOND_REPEATS * len(pairs)) * 1e9

    rng = round_rng(seed, "braid_moves", 0)
    words = [(wl.graphs[name], wl.refs[name].random_reduced(rng, length))
             for name, (lengths, _, _) in WORD_SIZES.items() for length in lengths]
    moves = 0
    start = perf_counter()
    for _ in range(MOVE_REPEATS):
        for g, w in words:
            for _move in braid_moves(g, w):
                moves += 1
    move_ns = (perf_counter() - start) / moves * 1e9
    return {"coxgraph.m.ns_per_call": bond_ns, "words.braid_moves.ns_per_move": move_ns}


def interpreter_costs() -> dict:
    """A bare interpreter start against one that imports coxheaps."""
    bare, with_import = [], []
    for _ in range(INTERPRETER_PROBES):
        bare.append(timed_run([sys.executable, "-c", "pass"])[0])
        with_import.append(timed_run([sys.executable, "-c", "import coxheaps"])[0])
    interpreter = statistics.median(bare)
    return {"cli.interpreter_s": interpreter, "cli.import_s": statistics.median(with_import) - interpreter}


def print_self_times(summary: dict) -> None:
    print(f"{'workload':<16} {'function':<40} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for (workload, function), row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{workload:<16} {function:<40} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")


# -- all workloads ------------------------------------------------------------


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics named <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ALL:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        if args.trace:
            break  # a traced run already covers every workload
    return merged


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    prepare()
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = traced(args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
