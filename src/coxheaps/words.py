"""Words, braid orbits and the word problem.

A braid move replaces a factor <s,t>_{m(s,t)} by <t,s>_{m(s,t)}; moves with
m = 2 are "short".  The closure of a word under all single braid moves is
its braid orbit, which for a reduced word is the set R(w) of all reduced
words of its element (Matsumoto's theorem).

Deciding needs no search: ``is_reduced`` and ``normal_form`` use the exact
root-sequence criterion in ``roots``, in time polynomial in the length, so
they and ``multiply``, ``conjugate`` and ``power_length`` take no cap.
Braid-orbit search remains where a set must be listed (``braid_orbit``,
``reduced_words``, the commutativity classes); those searches carry a cap
and raise ``OrbitCapExceeded`` as an inconclusive outcome rather than ever
guessing.

All functions are pure; words are tuples of generator indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .coxgraph import CoxeterGraph, Word
from .errors import NotReduced, OrbitCapExceeded

DEFAULT_ORBIT_CAP = 2_000_000


@dataclass(frozen=True)
class BraidOrbit:
    """Closure of a seed word under single braid moves."""

    words: frozenset[Word]
    origin: Word
    truncated: bool

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True, order=True)
class NormalForm:
    """Canonical representative: the shortlex-least reduced word."""

    length: int
    word: Word

    def __iter__(self):
        return iter(self.word)


def has_adjacent_repeat(w: Word) -> bool:
    return any(w[i] == w[i + 1] for i in range(len(w) - 1))


def braid_moves(g: CoxeterGraph, w: Word, short_only: bool = False) -> Iterator[Word]:
    """All words obtainable from w by one braid move.

    A factor w[i:i+m] with m = m(w[i], w[i+1]) is <s,t>_m exactly when it
    repeats with period 2, and the move replaces it by w[i+1:i+m] and one
    more letter.  Infinite bonds admit no finite braid relation, so they
    contribute no moves; they only forbid the m = 2 swap.
    """
    bond = g.bond_table
    n = len(w)
    for i in range(n - 1):
        m = bond[w[i]][w[i + 1]]
        if m == 2:
            yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        elif m > 2 and not short_only and i + m <= n and w[i + 2 : i + m] == w[i : i + m - 2]:
            yield w[:i] + w[i + 1 : i + m] + (w[i + m - 2],) + w[i + m :]


def long_braid_factors(g: CoxeterGraph, w: Word) -> Iterator[int]:
    """m for each factor <s,t>_m of w with 3 <= m < INF, in position order:
    the places where a long braid move applies."""
    bond = g.bond_table
    n = len(w)
    for i in range(n - 2):
        m = bond[w[i]][w[i + 1]]
        if m > 2 and i + m <= n and w[i + 2 : i + m] == w[i : i + m - 2]:
            yield m


def _orbit(g: CoxeterGraph, w: Word, cap: int, short_only: bool = False) -> tuple[set[Word], bool]:
    """BFS closure under braid moves; returns (visited, truncated)."""
    start = g.check_word(w)
    seen = {start}
    queue = deque([start])
    truncated = False
    while queue:
        cur = queue.popleft()
        for nxt in braid_moves(g, cur, short_only):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                truncated = True
                continue
            seen.add(nxt)
            queue.append(nxt)
    return seen, truncated


def braid_orbit(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> BraidOrbit:
    """BFS closure of {w} under all single braid moves.

    Truncation is a flagged result, not an error.
    """
    words, truncated = _orbit(g, w, cap)
    return BraidOrbit(frozenset(words), g.check_word(w), truncated)


def commutativity_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """Closure of {w} under short braid moves only (the trace of w)."""
    words, truncated = _orbit(g, w, cap, short_only=True)
    if truncated:
        raise OrbitCapExceeded(f"commutativity class of {g.format(w)} exceeds cap {cap}")
    return frozenset(words)


def is_reduced(g: CoxeterGraph, w: Word) -> bool:
    """True iff w is a reduced word: its root sequence has no beta_j = -beta_i."""
    word = g.check_word(w)
    return not has_adjacent_repeat(word) and g.root_system().is_reduced(word)


def normal_form(g: CoxeterGraph, w: Word) -> NormalForm:
    """Shortlex-least reduced word for the element of w.

    Letters are deleted in pairs by the exchange condition until the word is
    reduced, and the least left descent is then taken greedily
    (``roots.RootSystem.shortlex_form``).
    """
    least = g.root_system().shortlex_form(g.check_word(w))
    return NormalForm(len(least), least)


def reduced_words(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """R(w): all reduced words for the element of the reduced word w."""
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    words, truncated = _orbit(g, w, cap)
    if truncated:
        raise OrbitCapExceeded(f"reduced-word set of {g.format(w)} exceeds cap {cap}")
    return frozenset(words)


def commutativity_classes(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[frozenset[Word], ...]:
    """Partition of R(w) under short braid moves, ordered by least member."""
    rw = reduced_words(g, w, cap)
    remaining = set(rw)
    classes = []
    while remaining:
        seed = min(remaining)
        cls = commutativity_class(g, seed, cap)
        if not cls <= remaining:
            raise AssertionError("commutativity class escaped R(w)")
        classes.append(cls)
        remaining -= cls
    return tuple(sorted(classes, key=min))


def fc_orbit(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> tuple[frozenset[Word], bool]:
    """R(w) and True when the reduced word w is FC; otherwise the
    commutativity class of w and False.

    w is FC exactly when no word of R(w) holds a factor <s,t>_m with m >= 3
    (Stembridge 1996, Prop. 2.1).  When no word of the commutativity class
    holds one, the class is closed under every braid move and so is all of
    R(w); one short-move search thus lists R(w) and decides FC.
    """
    cls = commutativity_class(g, w, cap)
    return cls, not any(next(long_braid_factors(g, u), 0) for u in cls)


def is_fc(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """True iff R(w) is a single commutativity class (w must be reduced)."""
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    return fc_orbit(g, w, cap)[1]


def inverse(w: Word) -> Word:
    """Generators are involutions, so the inverse is the reversed word."""
    return tuple(reversed(w))


def multiply(g: CoxeterGraph, u: Word, v: Word) -> NormalForm:
    return normal_form(g, g.check_word(u) + g.check_word(v))


def conjugate(g: CoxeterGraph, v: Word, w: Word) -> NormalForm:
    """Normal form of v^-1 w v."""
    return normal_form(g, inverse(g.check_word(v)) + g.check_word(w) + g.check_word(v))


def power_length(g: CoxeterGraph, w: Word, k: int) -> int:
    """Length of w^k, reducing incrementally so intermediate words stay short."""
    if k < 0:
        raise ValueError("k must be >= 0")
    word = g.check_word(w)
    cur: Word = ()
    for _ in range(k):
        cur = normal_form(g, cur + word).word
    return len(cur)
