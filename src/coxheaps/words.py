"""Words, braid orbits, elements and the word problem.

A braid move replaces a factor <s,t>_{m(s,t)} by <t,s>_{m(s,t)}; moves with
m = 2 are "short".  The move is built once, in ``_moves``, which
``braid_moves`` and ``_listing`` read.  The closure of a word under all
single braid moves is its braid orbit, which for a reduced word is the set
R(w) of all reduced words of its element (Matsumoto's theorem).

Deciding needs no search: ``is_reduced`` and ``normal_form`` use the exact
root-sequence criterion in ``roots``, in time polynomial in the length, so
they and ``multiply`` and ``conjugate`` take no cap, nor does ``is_fc``,
which reads Stembridge's criterion off the heap.  ``elements_up_to`` lists
elements, not words: the normal form of each element of the weak order up
to a length, keyed by its exact columns.  ``commutativity_class`` lists
the linear extensions of w's heap, which are its words (Cartier-Foata
1969).  Where a whole braid closure must be listed, one search,
``_listing``, lists it one commutativity class at a time; it also lists
R_tor([w]) for ``cyclic._rtor_listing``.  It carries a cap and raises
``OrbitCapExceeded`` as an inconclusive outcome, never a guess.

All functions are pure; words are tuples of generator indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .coxgraph import CoxeterGraph, Word
from .errors import ExtensionCapExceeded, NotReduced, NotToricallyReduced, OrbitCapExceeded
from .heaps import _is_fc, heap_of_word, linear_extensions

DEFAULT_ORBIT_CAP = 2_000_000


@dataclass(frozen=True, order=True)
class NormalForm:
    """Canonical representative: the shortlex-least reduced word."""

    length: int
    word: Word

    def __iter__(self):
        return iter(self.word)


def has_adjacent_repeat(w: Word) -> bool:
    return any(w[i] == w[i + 1] for i in range(len(w) - 1))


def _moves(bond: tuple, d: Word, positions: Iterable[int], n: int) -> Iterator[tuple[int, int, Word]]:
    """Each braid move of d at an i in ``positions``, as (i, m, <t,s>_m) for
    d[i:i+m] = <s,t>_m, m = m(d[i], d[i+1]): a factor with period 2.  Bonds
    longer than the words' length n fit no factor; infinite bonds admit no
    finite braid relation, so they only forbid the m = 2 swap."""
    for i in positions:
        m = bond[d[i]][d[i + 1]]
        if m == 2:
            yield i, 2, (d[i + 1], d[i])
        elif 2 < m <= n and d[i + 2 : i + m] == d[i : i + m - 2]:
            yield i, m, d[i + 1 : i + m] + (d[i + m - 2],)


def braid_moves(g: CoxeterGraph, w: Word) -> Iterator[Word]:
    """All words obtainable from w by one braid move, by position."""
    word = g.check_word(w)
    for i, m, move in _moves(g.bond_table, word, range(len(word) - 1), len(word)):
        yield word[:i] + move + word[i + m :]


def _least_rotation(word: Word) -> Word:
    """The least rotation, which starts at an occurrence of the least letter."""
    n, doubled, least = len(word), word + word, min(word, default=None)
    return min([doubled[k : k + n] for k in range(n) if word[k] == least], default=())


def has_cyclic_repeat(word: Word) -> bool:
    """Two equal letters adjacent in the cyclic order (wrap-around included)."""
    m = len(word)
    return m > 1 and any(word[i] == word[(i + 1) % m] for i in range(m))


def _listing(
    g: CoxeterGraph, w: Word, cap: int, cyclic: bool = False
) -> tuple[dict[Word, int], list[list[Word]]]:
    """List the whole braid closure of w, one commutativity class at a time.

    A short move (m = 2) adds its result to the class being listed; a long
    move queues it as the seed of a later class.  ``found`` maps each word
    found to its class index, or to -1 while queued, so each word is
    expanded once.  The first word listed past the cap raises
    OrbitCapExceeded for the "reduced-word set", or with ``cyclic`` the
    "cyclic closure" R_tor([w]): its words are least rotations, and the
    moves act on every rotation, read off the doubled word u u: the move at
    position 0 of rotation i is the one at position i of u u.  A word with
    a cyclic repeat raises NotToricallyReduced when met, before the cap.
    """
    start = g.check_word(w)
    if cyclic:
        start = _least_rotation(start)
        if has_cyclic_repeat(start):
            raise NotToricallyReduced(f"{g.format(w)} is not torically reduced")
    what = "cyclic closure" if cyclic else "reduced-word set"
    bond = g.bond_table
    n = len(start)
    positions = range(n) if cyclic else range(n - 1)
    found = {start: 0}
    classes = [[start]]
    seeds: deque[Word] = deque()
    get = found.get
    listed = 1
    for index, members in enumerate(classes):
        for cur in members:
            d = cur + cur if cyclic else cur
            for i, m, move in _moves(bond, d, positions, n):
                nxt = _least_rotation(move + d[i + m : i + n]) if cyclic else cur[:i] + move + cur[i + m :]
                state = get(nxt)
                if state is None:
                    if cyclic and has_cyclic_repeat(nxt):
                        raise NotToricallyReduced(f"{g.format(w)} is not torically reduced")
                    if m > 2:
                        found[nxt] = -1
                        seeds.append(nxt)
                        continue
                elif state >= 0 or m > 2:
                    continue
                if listed >= cap:
                    raise OrbitCapExceeded(f"{what} of {g.format(w)} exceeds cap {cap}")
                listed += 1
                found[nxt] = index
                members.append(nxt)
        while seeds and found[seeds[0]] >= 0:
            seeds.popleft()
        if seeds:
            if listed >= cap:
                raise OrbitCapExceeded(f"{what} of {g.format(w)} exceeds cap {cap}")
            listed += 1
            found[seeds[0]] = len(classes)
            classes.append([seeds.popleft()])
    return found, classes


def commutativity_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """Closure of {w} under short braid moves (the trace of w): the linear
    extensions of its heap.  w itself is listed whatever the cap."""
    try:
        return linear_extensions(heap_of_word(g, w), max(cap, 1))
    except ExtensionCapExceeded:
        raise OrbitCapExceeded(f"commutativity class of {g.format(w)} exceeds cap {cap}") from None


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
    return frozenset(_listing(g, w, cap)[0])


def commutativity_classes(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[frozenset[Word], ...]:
    """Partition of R(w) under short braid moves, ordered by least member."""
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    classes = _listing(g, w, cap)[1]
    return tuple(sorted(map(frozenset, classes), key=min))


def is_fc(g: CoxeterGraph, w: Word) -> bool:
    """True iff R(w) is a single commutativity class (w must be reduced)."""
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    return _is_fc(heap_of_word(g, w))


def inverse(w: Word) -> Word:
    """Generators are involutions, so the inverse is the reversed word."""
    return tuple(reversed(w))


def multiply(g: CoxeterGraph, u: Word, v: Word) -> NormalForm:
    return normal_form(g, g.check_word(u) + g.check_word(v))


def conjugate(g: CoxeterGraph, v: Word, w: Word) -> NormalForm:
    """Normal form of v^-1 w v."""
    return normal_form(g, inverse(g.check_word(v)) + g.check_word(w) + g.check_word(v))


def elements_up_to(g: CoxeterGraph, max_len: int) -> list[Word]:
    """The shortlex normal form of every element of length <= max_len, by
    length and sorted within a length, each once.

    A breadth-first walk over the right weak order (Björner–Brenti ch. 3),
    keyed by the exact columns of ``roots``.  An element y of length L + 1
    is reached from y s for each of its right descents s and from nothing
    else, so it records those s, which its own step skips.  Its normal form
    is the least u + (s,), u the normal form of y s; as each length is
    walked in shortlex order and s in increasing order, that is the word y
    is first reached by, and the next length comes out in shortlex order.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    rs = g.root_system()
    out: list[Word] = [()]
    level: dict[tuple, tuple[Word, set[int]]] = {rs.identity: ((), set())}
    for _ in range(max_len):
        longer: dict[tuple, tuple[Word, set[int]]] = {}
        for key, (u, right) in level.items():
            for s in range(g.rank):
                if s not in right:
                    cols = list(key)
                    rs.times(cols, s)
                    longer.setdefault(tuple(cols), (u + (s,), set()))[1].add(s)
        level = longer
        out.extend(u for u, _ in level.values())
    return out
