"""Ready-made Coxeter graphs for the standard families used in tests,
scripts, and the shipped example files.

Names follow the usual finite/affine classification; an affine type X~n is
written "X~n".  Generator naming matches the convention common for each
family (finite chains use s1..sn, affine types start at s0, except A~3
which uses s1..s4 so the 4-cycle reads naturally).
"""

from __future__ import annotations

from .coxgraph import Bond, CoxeterGraph
from .errors import GraphSpecError


def chain(names: list[str], bonds: list[Bond]) -> CoxeterGraph:
    """Path-shaped diagram with the given consecutive bond strengths."""
    if len(bonds) != len(names) - 1:
        raise ValueError("need exactly one bond per consecutive pair")
    items = [
        (names[i], names[i + 1], m) for i, m in enumerate(bonds) if m != 2
    ]
    return CoxeterGraph(names, items)


def cycle(names: list[str], bond: Bond = 3) -> CoxeterGraph:
    """Cycle-shaped diagram, every edge with the same strength."""
    n = len(names)
    items = [(names[i], names[(i + 1) % n], bond) for i in range(n)]
    return CoxeterGraph(names, items)


def complete(names: list[str], bond: Bond = 3) -> CoxeterGraph:
    items = [
        (names[i], names[j], bond) for i in range(len(names)) for j in range(i + 1, len(names))
    ]
    return CoxeterGraph(names, items)


def _a(n: int) -> CoxeterGraph:
    return chain([f"s{i}" for i in range(1, n + 1)], [3] * (n - 1))


_BUILDERS = {
    "A1": lambda: CoxeterGraph(["s1"]),
    "A2": lambda: _a(2),
    "A3": lambda: _a(3),
    "A4": lambda: _a(4),
    # chains with one 4-bond at the s1 end, so that m(s1, s2) = 4
    "B3": lambda: chain(["s1", "s2", "s3"], [4, 3]),
    "H3": lambda: chain(["s1", "s2", "s3"], [5, 3]),
    "A~2": lambda: cycle(["s0", "s1", "s2"]),
    "A~3": lambda: cycle(["s1", "s2", "s3", "s4"]),
    "C~2": lambda: chain(["s0", "s1", "s2"], [4, 4]),
    "C~3": lambda: chain(["s0", "s1", "s2", "s3"], [4, 3, 4]),
    "C~4": lambda: chain(["s0", "s1", "s2", "s3", "s4"], [4, 3, 3, 4]),
    "E~6": lambda: CoxeterGraph(
        ["s0", "s1", "s2", "s3", "s4", "s5", "s6"],
        [
            ("s1", "s2", 3),
            ("s2", "s3", 3),
            ("s3", "s4", 3),
            ("s4", "s5", 3),
            ("s3", "s6", 3),
            ("s6", "s0", 3),
        ],
    ),
}


def coxeter_graph(name: str) -> CoxeterGraph:
    """Look up a standard diagram by type name, e.g. "B3" or "A~3"."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise GraphSpecError(f"unknown type {name!r}; known: {known}") from None


def names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))
