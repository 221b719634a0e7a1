"""Command-line surface.

Subcommands mirror the library, one group per module; ``COMMANDS`` lists
them with the arguments each reads besides ``-g/--graph``, and any other
option is a usage error.  All reports are JSON (schemaVersion 1) on stdout
with the input echoed; ``--format dot`` switches to DOT where a diagram
makes sense.  Exit codes: 0 success, 1 domain error, 2 usage error, 3
resource cap exceeded.  Output is byte-identical across runs on identical
inputs.

Each branch of ``_run`` imports the modules its command calls, so a call
loads only those: ``graph validate`` loads none beyond ``coxgraph`` and
``errors``, the other ``graph`` commands build their ``toric.Graph``
without ``classifier``, and the ``word`` commands but ``classify`` load
``words`` without ``toric`` or ``cyclic``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coxgraph import CoxeterGraph, load_coxeter_graph
from .errors import (
    DEFAULT_CLASS_CAP,
    DEFAULT_EXTENSION_CAP,
    DEFAULT_ORBIT_CAP,
    CoxError,
    ResourceCapExceeded,
)

SCHEMA_VERSION = 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return value


_ARGUMENTS = {
    "word": dict(help='word, e.g. "s3 s1 s2 s1 s2" or "31212"'),
    "--format": dict(choices=["json", "dot"], default="json"),
    "--max-orbit": dict(type=_positive_int, default=DEFAULT_ORBIT_CAP,
                        help="cap on braid-orbit listings; deciding reducedness needs none"),
    "--max-class": dict(type=_positive_int, default=DEFAULT_CLASS_CAP,
                        help="cap on the toric class that toric ltor lists"),
    "--max-extensions": dict(type=_positive_int, default=DEFAULT_EXTENSION_CAP),
    "--x": dict(type=int, required=True),
    "--y": dict(type=int, required=True),
}
_ORBIT_LISTING = ("word", "--max-orbit")

# group -> command -> the arguments its branch of ``_run`` reads
COMMANDS = {
    "graph": {"validate": (), "orientations": ("--format",), "toric-classes": (), "tutte": ("--x", "--y")},
    "word": {"reduce": ("word",),
             **dict.fromkeys(("reduced-words", "comm-classes", "classify"), _ORBIT_LISTING)},
    "cyclic": dict.fromkeys(("rtor", "ctor", "decompose", "elements"), _ORBIT_LISTING),
    # heap dot prints DOT whatever --format says, but takes the option
    "heap": {"build": ("word",), "linexts": ("word", "--max-extensions"), "dot": ("word", "--format")},
    "toric": {"heap": ("word", "--format"), "ltor": ("word", "--max-class"),
              "hasse": ("word",), "closure": ("word",)},
    "coxeter": {"elements": (), "conjugacy": ()},
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coxheaps", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        parsers = sub.add_parser(group).add_subparsers(dest="command", required=True)
        for name, arguments in commands.items():
            sp = parsers.add_parser(name)
            sp.add_argument("-g", "--graph", required=True, help="Coxeter graph JSON file")
            for arg in arguments:
                sp.add_argument(arg, **_ARGUMENTS[arg])
    return p


def _words(g: CoxeterGraph, items) -> list[str]:
    return sorted(g.format(w) for w in items)


def _cyclic_words(g: CoxeterGraph, items) -> list[str]:
    return sorted("[" + g.format(cw.canonical) + "]" for cw in items)


def _edge_list(graph) -> list[list[int]]:
    """The edges of a ``toric.Graph``, 1-based."""
    return [[a + 1, b + 1] for a, b in graph.edges]


def _run(args) -> tuple[dict | str, int]:
    g = load_coxeter_graph(args.graph)
    key = f"{args.group}.{args.command}"
    word = g.word(args.word) if getattr(args, "word", None) is not None else None
    result: dict | str

    if key == "graph.validate":
        result = {"generators": list(g.generators), "rank": g.rank, "graph": g.to_json()}
    elif args.group == "graph":
        from . import toric as T

        skel = T.Graph(g.rank, g.edges())
        edge_order = [[g.name(a), g.name(b)] for a, b in skel.edges]
        if args.command == "tutte":
            result = {"x": args.x, "y": args.y, "value": T.tutte(skel, args.x, args.y)}
        elif args.command == "orientations":
            orients = T.all_acyclic_orientations(skel)
            if args.format == "dot":
                from .render import orientation_to_dot

                return "".join(orientation_to_dot(o, g.generators) for o in orients), 0
            result = {"count": len(orients), "orientations": [o.bitstring() for o in orients],
                      "edgeOrder": edge_order}
        else:
            classes = T.toric_classes(skel)
            result = {"count": len(classes), "classes": [sorted(o.bitstring() for o in cls) for cls in classes],
                      "edgeOrder": edge_order}
    elif key == "word.classify":
        from .classifier import classify

        result = classify(g, word, args.max_orbit).to_json(g)
    elif args.group == "word":
        from . import words as W

        if args.command == "reduce":
            nf = W.normal_form(g, word)
            result = {"word": g.format(nf.word), "length": nf.length}
        elif args.command == "reduced-words":
            result = {"words": _words(g, W.reduced_words(g, word, args.max_orbit))}
        else:
            classes = W.commutativity_classes(g, word, args.max_orbit)
            result = {"count": len(classes), "classes": [_words(g, c) for c in classes]}
    elif args.group == "cyclic":
        from . import cyclic as CY

        if args.command == "rtor":
            result = {"cyclicWords": _cyclic_words(g, CY.rtor_cyclic_class(g, word, args.max_orbit))}
        elif args.command == "ctor":
            result = {"cyclicWords": _cyclic_words(g, CY.ctor_class(g, word, args.max_orbit))}
        elif args.command == "decompose":
            classes = CY.cyclic_decomposition(g, word, args.max_orbit)
            result = {"count": len(classes), "classes": [_cyclic_words(g, c) for c in classes]}
        else:
            result = {
                "words": _words(g, CY.rtor_words(g, word, args.max_orbit)),
                "elements": _words(g, CY.torically_equivalent_elements(g, word)),
            }
    elif args.group == "heap":
        from . import heaps as H

        h = H.heap_of_word(g, word)
        if args.command == "dot":
            from .render import heap_to_dot

            return heap_to_dot(h), 0
        if args.command == "build":
            result = {
                "size": h.size,
                "labels": [g.name(s) for s in h.word],
                "hasse": [[i + 1, j + 1] for i, j in sorted(H.hasse_edges(h))],
                "closure": [[i + 1, j + 1] for i, j in sorted(H.closure_edges(h))],
            }
        else:
            result = {"words": _words(g, H.linear_extensions(h, args.max_extensions))}
    elif args.group == "toric":
        from . import toric as T
        from .cyclic import ltor, toric_heap_of_word

        th = toric_heap_of_word(g, word, getattr(args, "max_class", DEFAULT_CLASS_CAP))
        if args.command == "ltor":
            result = {"cyclicWords": _cyclic_words(g, ltor(th))}
        elif args.command == "heap":
            if args.format == "dot":
                from .render import toric_heap_to_dot

                return toric_heap_to_dot(th), 0
            result = {
                "size": th.size,
                "labels": [g.name(s) for s in th.word],
                "toricHasse": _edge_list(T.toric_hasse(th.poset)),
                "representative": th.poset.representative.bitstring(),
            }
        elif args.command == "hasse":
            result = {"edges": _edge_list(T.toric_hasse(th.poset))}
        else:
            result = {"edges": _edge_list(T.toric_transitive_closure(th.poset))}
    elif args.group == "coxeter":
        from . import classifier as C

        if args.command == "elements":
            result = {"elements": [g.format(c) for c in C.coxeter_elements(g)]}
        else:
            classes = C.coxeter_conjugacy_classes(g)
            result = {"count": len(classes), "classes": [[g.format(c) for c in cls] for cls in classes]}
    else:  # pragma: no cover - argparse guards the command set
        raise AssertionError(key)

    report = {"schemaVersion": SCHEMA_VERSION, "command": key,
              "input": _echo(args), "result": result}
    return report, 0


def _echo(args) -> dict:
    echo = {"graph": args.graph}
    if getattr(args, "word", None) is not None:
        echo["word"] = args.word
    for name in ("x", "y"):
        if getattr(args, name, None) is not None:
            echo[name] = getattr(args, name)
    return echo


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out, code = _run(args)
    except ResourceCapExceeded as exc:
        _emit_error(args, exc)
        return 3
    except CoxError as exc:
        _emit_error(args, exc)
        return 1
    if isinstance(out, str):
        sys.stdout.write(out)
    else:
        json.dump(out, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return code


def _emit_error(args, exc: CoxError) -> None:
    report = {
        "schemaVersion": SCHEMA_VERSION,
        "command": f"{args.group}.{args.command}",
        "error": {"type": exc.type_name, "message": str(exc)},
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
