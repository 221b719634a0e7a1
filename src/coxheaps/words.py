"""Words, braid orbits, elements and the word problem.

A braid move replaces a factor <s,t>_{m(s,t)} by <t,s>_{m(s,t)}; moves with
m = 2 are "short".  The move is built once, in ``_moves``, which
``braid_moves`` and the R_tor listing of ``cyclic`` read.  The closure of a
word under all single braid moves is its braid orbit, which for a reduced
word is the set R(w) of all reduced words of its element (Matsumoto's
theorem).

Deciding needs no search: ``is_reduced`` and ``normal_form`` use the exact
root-sequence criterion in ``roots``, in time polynomial in the length, so
they and ``multiply`` and ``conjugate`` take no cap, nor does ``is_fc``,
which reads Stembridge's criterion off the heap.  A normal form is read off
the right descents of the inverse, one root step a letter; ``multiply``
and ``conjugate`` take the normal form of the joined word, which checks
it.  ``_weak_order_levels`` walks the right weak order up from e, each
element keyed by the bitmask of its inversions, with one root step per
element: up to a length for ``elements_up_to``, which lists the normal
form of each element, and over the interval [e, w]_R for
``reduced_words``, which joins R(w) from both ends of it with no braid
search, the R(x) of each x of the middle level with the words from x up to
w, and for the counts that ``cyclic._interval_census`` reads off
it, with the least word of each commutativity class (``_lex_forms``).
``commutativity_class`` lists the linear extensions of w's heap, which
are its words (Cartier-Foata 1969), and ``commutativity_classes`` takes
the class of each least word.  Past a cap each listing raises
``OrbitCapExceeded``, an inconclusive outcome, never a guess; the default
cap, ``DEFAULT_ORBIT_CAP``, lives in ``errors``.  ``heaps`` is imported
when a heap is first needed (``_heaps``), so the word problem loads no heap code.

All functions are pure; words are tuples of generator indices.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Iterable, Iterator

from .coxgraph import CoxeterGraph, Word
from .errors import DEFAULT_ORBIT_CAP, ExtensionCapExceeded, NotReduced, OrbitCapExceeded
from .records import Record, _set


class NormalForm(Record):
    """Canonical representative: the shortlex-least reduced word.  Normal
    forms compare and order as their (length, word) pairs."""

    length: int
    word: Word

    def __init__(self, length: int, word: Word):
        _set(self, "length", length)
        _set(self, "word", word)

    def __iter__(self):
        return iter(self.word)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.length, self.word) == (other.length, other.word)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.length, self.word))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.length, self.word) < (other.length, other.word)
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.length, self.word) <= (other.length, other.word)
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.length, self.word) > (other.length, other.word)
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.length, self.word) >= (other.length, other.word)
        return NotImplemented


@cache
def _heaps():
    """The ``heaps`` module, imported on first use and kept, so that the
    word problem loads no heap code; an import statement run on every call
    would cost more than the call (as ``heaps._toric``)."""
    from . import heaps

    return heaps


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


def commutativity_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """Closure of {w} under short braid moves (the trace of w): the linear
    extensions of its heap.  w itself is listed whatever the cap."""
    try:
        heaps = _heaps()
        return heaps.linear_extensions(heaps.heap_of_word(g, w), max(cap, 1))
    except ExtensionCapExceeded:
        raise OrbitCapExceeded(f"commutativity class of {g.format(w)} exceeds cap {cap}") from None


def is_reduced(g: CoxeterGraph, w: Word) -> bool:
    """True iff w is a reduced word: its root sequence has no beta_j = -beta_i."""
    word = g.check_word(w)
    return not has_adjacent_repeat(word) and g.root_system().is_reduced(word)


def normal_form(g: CoxeterGraph, w: Word) -> NormalForm:
    """Shortlex-least reduced word for the element of w.

    Letters are deleted in pairs by the exchange condition until the word is
    reduced, and the least left descent is then taken greedily, read off the
    right descents of the inverse (``roots.RootSystem.shortlex_form``).
    """
    least = g.root_system().shortlex_form(g.check_word(w))
    return NormalForm(len(least), least)


def reduced_words(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """R(w): all reduced words for the element of the reduced word w.

    Joined from both ends of the interval [e, w]_R of the right weak order,
    walked once under the cap (``_capped_levels``).  R(x) is the union of
    R(x s) s over the right descents s of x, listed up to the middle
    level.  Down from w to the middle, the words v with x v = w are the
    s v' over the x s above x and the words v' with x s v' = w, and R(w) is
    every u + v of a middle x, u in R(x).  So only the words of R(w) are
    made at full length.  w itself is listed whatever the cap.
    """
    word = g.check_word(w)
    middle, upper = len(word) // 2, []
    prefixes: dict[int, list[Word]] = {0: [()]}
    for k, level in enumerate(_capped_levels(g, word, cap)):
        if k < middle:
            prefixes = {key: [u + (s,) for s, y in down.items() for u in prefixes[y]] for key, down in level.items()}
        else:
            upper.append(level)
    suffixes: dict[int, list[Word]] = {key: [()] for key in (upper[-1] if upper else prefixes)}
    for level in reversed(upper):
        below: dict[int, list[Word]] = {}
        for key, down in level.items():
            vs = suffixes[key]
            for s, y in down.items():
                if y in below:
                    below[y] += [(s,) + v for v in vs]
                else:
                    below[y] = [(s,) + v for v in vs]
        suffixes = below
    return frozenset([u + v for key, vs in suffixes.items() for u in prefixes[key] for v in vs])


def commutativity_classes(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> tuple[frozenset[Word], ...]:
    """Partition of R(w) under short braid moves, ordered by least member:
    the ``commutativity_class`` of each least word, read off the walk of
    [e, w]_R under the cap of ``reduced_words`` (``_lex_forms``)."""
    forms: dict[int, dict] = {0: {0: [()]}}
    commuting = g.root_system().commuting
    for level in _capped_levels(g, g.check_word(w), cap):
        forms = _lex_forms(level, forms, commuting, True)
    least = sorted(u for by_state in forms.values() for us in by_state.values() for u in us)
    return tuple(commutativity_class(g, u, cap) for u in least)


def is_fc(g: CoxeterGraph, w: Word) -> bool:
    """True iff R(w) is a single commutativity class (w must be reduced)."""
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    heaps = _heaps()
    return heaps._is_fc(heaps.heap_of_word(g, w))


def inverse(w: Word) -> Word:
    """Generators are involutions, so the inverse is the reversed word."""
    return tuple(reversed(w))


def multiply(g: CoxeterGraph, u: Word, v: Word) -> NormalForm:
    return normal_form(g, tuple(u) + tuple(v))


def conjugate(g: CoxeterGraph, v: Word, w: Word) -> NormalForm:
    """Normal form of v^-1 w v."""
    v = g.check_word(v)
    return normal_form(g, inverse(v) + tuple(w) + v)


def _weak_order_levels(g: CoxeterGraph, length: int, negated: dict | None = None) -> Iterator[dict[int, dict]]:
    """The right weak order from e, breadth first up to ``length``, each
    element keyed by its inversion mask (Björner–Brenti ch. 3).  y s > y
    has the inversions of y and y(alpha_s), which gets a bit: with
    ``negated``, the map -beta_j -> j of w's root pass, bit j for beta_j,
    and only the y s with y(alpha_s) among w's betas are taken, the
    interval [e, w]_R; without it, the next free bit for each new root.
    Each level maps the mask of each x of the next length, in the order x
    is first reached, to {s: mask of x s} over its right descents s, in the
    order reached.  x is reached from each x s and from nothing else, so
    its own step skips those s.

    The walk carries the negated columns -y(alpha_t), from
    ``roots.RootSystem.negative``: the root step is linear, so it maps
    them to the negated columns of y s, and column s, -y(alpha_s), is
    looked up in ``negated`` as it stands.  x's columns are made once,
    from the first edge into it, and not for the last level, which no
    step leaves."""
    rs = g.root_system()
    if negated is None:
        bits: dict[tuple, int] = {}

        def bit(root: tuple) -> int:
            return bits.setdefault(root, len(bits))
    else:
        bit = negated.get
    level: dict[int, dict[int, int]] = {0: {}}
    columns, times, letters = {0: rs.negative}, rs._times, range(g.rank)
    for more in reversed(range(length)):  # levels still to come after this one
        longer: dict[int, dict[int, int]] = {}
        made = {}
        for key, right in level.items():
            cols = columns[key]
            for s in letters:
                if s not in right and (j := bit(cols[s])) is not None:
                    x = key | 1 << j
                    if x in longer:
                        longer[x][s] = key
                    else:
                        longer[x] = {s: key}
                        if more:
                            made[x] = up = list(cols)
                            times[s](up)
        yield longer
        level, columns = longer, made


def _capped_levels(g: CoxeterGraph, word: Word, cap: int) -> Iterator[dict[int, dict]]:
    """The levels of [e, w]_R from w's root pass, which decides w is reduced
    (``roots``), each passed on once the sum of |R(x)| = sum |R(x s)| over
    its x, the number of prefixes of its length of the words of R(w), is
    within max(cap, 1); the last is |R(w)|, so the cap raises iff |R(w)|
    exceeds it, before the caller makes a word past it."""
    if (found := g.root_system()._pass(word)) is None:
        raise NotReduced(f"{g.format(word)} is not reduced")
    counts = {0: 1}
    for level in _weak_order_levels(g, len(word), found[1]):
        get = counts.__getitem__
        counts = {key: sum(map(get, down.values())) for key, down in level.items()}
        if sum(counts.values()) > max(cap, 1):
            raise OrbitCapExceeded(f"reduced-word set of {g.format(word)} exceeds cap {cap}")
        yield level


def _lex_forms(level: dict[int, dict], forms: dict[int, dict], commuting: tuple, listing: bool) -> dict[int, dict]:
    """For each x of a level, the least words of the commutativity classes
    of R(x) by state, counted, or listed with ``listing``, from the level
    below.  A word is least in its class iff it has no factor b v a with
    a < b and a commuting with b and every letter of v (Anisimov-Knuth
    1979), so the least words of R(x) are the u s, u least for x s, that
    pass at s.  Bit t of u's state is set iff the longest suffix of u whose
    letters commute with t holds a letter above t: s may follow iff bit s
    is clear, and u s keeps the bits of the t commuting with s, set if t < s."""
    out: dict[int, dict] = {}
    for x, down in level.items():
        here = out[x] = {}
        for s, y in down.items():
            low, keep = (1 << s) - 1, commuting[s]
            for state, value in forms[y].items():
                if not state >> s & 1:
                    t = (state | low) & keep
                    if listing:
                        value = [u + (s,) for u in value]
                    here[t] = here[t] + value if t in here else value
    return out


def elements_up_to(g: CoxeterGraph, max_len: int) -> list[Word]:
    """The shortlex normal form of every element of length <= max_len, by
    length and sorted within a length, each once.

    The levels of ``_weak_order_levels``: the normal form of y is the least
    u + (s,), u the normal form of y s; as each length is walked in
    shortlex order and s in increasing order, that is the first s y is
    reached by, and the next length comes out in shortlex order.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    forms: dict[int, Word] = {0: ()}
    out: list[Word] = [()]
    for level in _weak_order_levels(g, max_len):
        forms = {key: forms[y] + (s,) for key, down in level.items() for s, y in islice(down.items(), 1)}
        out.extend(forms.values())
    return out
