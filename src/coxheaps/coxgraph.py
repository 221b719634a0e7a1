"""Coxeter systems as weighted graphs.

A Coxeter system is presented by a finite set of involutive generators
together with a bond strength m(s, t) for each unordered pair: m = 2 means
s and t commute, m >= 3 (or infinity) means they satisfy the braid relation
<s,t>_m = <t,s>_m (no finite relation when m is infinite).  Only bonds with
m >= 3 are stored; absence means m = 2, and m(s, s) = 1 implicitly.

Generators carry a display name and a dense integer index; all word-level
code works on indices (declaration order is the tie-break order everywhere).
Words are plain tuples of generator indices; the empty tuple is the
identity.  Everything in this module is immutable after construction and
safe to share between threads; the only state added later is the graph's
root data for the word problem, built on first use (``root_system``).

Supported bonds: finite strengths 3 <= m <= MAX_BOND, and a ring degree
phi(2M) / 2 <= MAX_RING_DEGREE for M the lcm of the finite bonds other
than 3, which every graph whose finite bonds are all equal meets.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .errors import GraphFileError, GraphSpecError, UnknownGenerator, WordSyntaxError

# Bond strength of a pair with no finite braid relation.  Kept as a real
# infinity so comparisons like m >= 3 stay honest.
INF = math.inf

Word = tuple[int, ...]

Bond = int | float  # int >= 3, or INF

# The word problem computes in a ring of degree phi(2M) / 2, where M is the
# lcm of the finite bonds other than 3; these bound its size.
MAX_BOND = 128
MAX_RING_DEGREE = 64


class CoxeterGraph:
    """Immutable Coxeter graph: generator names plus symmetric bond map."""

    __slots__ = ("generators", "bond_table", "_index", "_bonds", "_key", "_roots")

    def __init__(self, generators: Iterable[str], bonds: Iterable[tuple[str, str, Bond]] = ()):
        gens = tuple(generators)
        for name in gens:
            if not isinstance(name, str) or not name or any(c.isspace() for c in name):
                raise GraphSpecError(f"bad generator name: {name!r}")
        if len(set(gens)) != len(gens):
            raise GraphSpecError("duplicate generator names")
        index = {name: i for i, name in enumerate(gens)}

        bond_map: dict[tuple[int, int], Bond] = {}
        for s, t, m in bonds:
            missing = [x for x in (s, t) if not isinstance(x, str) or x not in index]
            if missing:
                raise GraphSpecError(f"bond references unknown generator {missing[0]!r}")
            i, j = index[s], index[t]
            if i == j:
                raise GraphSpecError(f"self-bond on {s!r}")
            m = _check_bond(s, t, m)
            key = (i, j) if i < j else (j, i)
            if key in bond_map:
                raise GraphSpecError(f"duplicate bond for pair ({s!r}, {t!r})")
            bond_map[key] = m
        finite = sorted({m for m in bond_map.values() if m != INF})
        degree = ring_degree(finite)
        if degree > MAX_RING_DEGREE:
            raise GraphSpecError(
                f"bond strengths {finite} need a ring of degree {degree}; at most {MAX_RING_DEGREE} is supported"
            )

        self.generators = gens
        # bond_table[i][j] = m(i, j) by index, for the loops that cannot
        # afford the checks in ``m``
        self.bond_table = tuple(
            tuple(1 if i == j else bond_map.get((min(i, j), max(i, j)), 2) for j in range(len(gens)))
            for i in range(len(gens))
        )
        self._index = index
        self._bonds = bond_map
        self._key = (gens, tuple(sorted(bond_map.items())))
        self._roots = None

    # -- basic queries ------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.generators)

    def as_index(self, s: str | int) -> int:
        """Accept a generator by name or index; return its index."""
        if isinstance(s, str):
            try:
                return self._index[s]
            except KeyError:
                raise UnknownGenerator(f"unknown generator {s!r}") from None
        if isinstance(s, int) and not isinstance(s, bool) and 0 <= s < len(self.generators):
            return s
        raise UnknownGenerator(f"generator index out of range: {s!r}")

    def name(self, i: int) -> str:
        return self.generators[self.as_index(i)]

    def m(self, s: str | int, t: str | int) -> Bond:
        """Bond strength m(s, t); 1 on the diagonal, 2 off stored bonds."""
        return self.bond_table[self.as_index(s)][self.as_index(t)]

    def commutes(self, s: str | int, t: str | int) -> bool:
        """True iff s != t and m(s, t) = 2."""
        return self.m(s, t) == 2

    def bonds(self) -> tuple[tuple[int, int, Bond], ...]:
        """Stored bonds as (i, j, m) with i < j, in index order."""
        return tuple((i, j, m) for (i, j), m in sorted(self._bonds.items()))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Underlying simple graph: the pairs with m >= 3 (edges of the diagram)."""
        return tuple(sorted(self._bonds))

    def neighbors(self, s: str | int) -> tuple[int, ...]:
        i = self.as_index(s)
        return tuple(sorted(j for pair in self._bonds for j in pair if i in pair and j != i))

    def degree(self, s: str | int) -> int:
        return len(self.neighbors(s))

    def induced(self, keep: Iterable[str | int]) -> "CoxeterGraph":
        """Subgraph on a generator subset, with inherited bonds.

        Declaration order of the kept generators is preserved.
        """
        idx = sorted({self.as_index(s) for s in keep})
        names = [self.generators[i] for i in idx]
        sub = [
            (self.generators[i], self.generators[j], m)
            for (i, j), m in sorted(self._bonds.items())
            if i in idx and j in idx
        ]
        return CoxeterGraph(names, sub)

    def root_system(self):
        """The graph's ``roots.RootSystem``, built on first use and kept.

        ``roots`` is imported here, not at module level, so that importing
        the package and building graphs do not pay for it.
        """
        if self._roots is None:
            from .roots import RootSystem

            self._roots = RootSystem(self)
        return self._roots

    # -- word helpers ---------------------------------------------------

    def check_word(self, w: Iterable[int]) -> Word:
        word = tuple(w)
        for i in word:
            if isinstance(i, bool) or not (isinstance(i, int) and 0 <= i < len(self.generators)):
                raise UnknownGenerator(f"letter index out of range: {i!r}")
        return word

    def word(self, text: str) -> Word:
        return parse_word(self, text)

    def format(self, w: Iterable[int]) -> str:
        return format_word(self, w)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "bonds": [
                [self.generators[i], self.generators[j], "inf" if m == INF else m]
                for (i, j), m in sorted(self._bonds.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoxeterGraph":
        if not isinstance(data, dict) or "generators" not in data:
            raise GraphSpecError("graph document needs a 'generators' field")
        gens = data["generators"]
        bonds = data.get("bonds", [])
        if not isinstance(gens, list) or not isinstance(bonds, list):
            raise GraphSpecError("'generators' and 'bonds' must be arrays")
        items = []
        for entry in bonds:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise GraphSpecError(f"bond entry must be [name, name, strength]: {entry!r}")
            items.append(tuple(entry))
        return cls(gens, items)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterGraph) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        # rebuilt from names and bonds; the root data is rebuilt on first use
        bonds = [(self.generators[i], self.generators[j], m) for i, j, m in self.bonds()]
        return CoxeterGraph, (self.generators, bonds)

    def __repr__(self) -> str:
        bonds = ", ".join(
            f"({self.generators[i]},{self.generators[j]}):{m}" for (i, j), m in sorted(self._bonds.items())
        )
        return f"CoxeterGraph([{', '.join(self.generators)}]; {bonds or 'no bonds'})"


def _check_bond(s, t, m) -> Bond:
    if m == "inf" or m == INF:
        return INF
    if isinstance(m, bool) or not isinstance(m, int):
        raise GraphSpecError(f"bond ({s!r}, {t!r}) has non-integer strength {m!r}")
    if m <= 2:
        raise GraphSpecError(
            f"bond ({s!r}, {t!r}) has strength {m}; m = 2 pairs must be omitted and m = 1 is the diagonal"
        )
    if m > MAX_BOND:
        raise GraphSpecError(f"bond ({s!r}, {t!r}) has strength {m}; at most {MAX_BOND} is supported")
    return m


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def ring_degree(finite_bonds: Iterable[int]) -> int:
    """Degree phi(2M) / 2 of the ring Z[2cos(pi / M)] that ``roots`` computes
    in, for M the lcm of the finite bonds other than 3 (1 if there are none)."""
    return max(1, _totient(2 * math.lcm(*(m for m in finite_bonds if m != 3))) // 2)


def load_coxeter_graph(path: str) -> CoxeterGraph:
    """Load and validate a graph file (JSON with 'generators' and 'bonds')."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFileError(f"cannot read graph file {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError(f"not a JSON document: {exc}") from None
    except RecursionError:
        raise GraphSpecError("graph document is nested too deeply to parse") from None
    return CoxeterGraph.from_json(data)


def parse_word(g: CoxeterGraph, text: str) -> Word:
    """Parse whitespace-separated generator names, or compact 1-based
    index digits ("31212") when the rank is at most 9.

    A digit string that happens to be a declared generator name is read as
    that single generator; names win over the compact form.
    """
    tokens = text.split()
    if not tokens:
        return ()
    if all(tok in g._index for tok in tokens):
        return tuple(g._index[tok] for tok in tokens)
    if len(tokens) == 1 and tokens[0].isdigit() and g.rank <= 9:
        out = []
        for c in tokens[0]:
            i = int(c) - 1
            if not 0 <= i < g.rank:
                raise WordSyntaxError(f"digit {c} is out of range for rank {g.rank}")
            out.append(i)
        return tuple(out)
    bad = next(tok for tok in tokens if tok not in g._index)
    raise WordSyntaxError(f"unknown generator {bad!r} in word {text!r}")


def format_word(g: CoxeterGraph, w: Iterable[int]) -> str:
    return " ".join(g.generators[i] for i in g.check_word(w))


def support(w: Iterable[int]) -> frozenset[int]:
    """Set of distinct letters appearing in the word."""
    return frozenset(w)
