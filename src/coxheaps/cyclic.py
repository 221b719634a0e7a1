"""Cyclic words, cyclic/toric reducedness, and toric heaps of words.

A cyclic word is the rotation class of a word, held by its shortlex-least
rotation.  Rotating a reduced word conjugates the element by its initial
letter, so the closure of a word under rotations and braid moves models
conjugation at fixed length:

* cyclically reduced: every rotation is reduced;
* torically reduced: every word reachable by rotations and/or braids is
  reduced (strictly stronger);
* C_tor([w]): closure of [w] under rotations + short braid moves;
* R_tor([w]): closure of [w] under rotations + all braid moves, listed one
  C_tor class at a time by ``_rtor_listing``, which reads the moves of
  every rotation off the doubled word and meets a cyclic repeat when w is
  not torically reduced (Tits).  Every word it lists is free of cyclic
  repeats, so a new word can gain one only at the two seams of its move,
  which are all it tests.  It records the move it first meets each word
  by, so the chain of moves to that repeat, which
  ``toric_reduction_witness`` returns, is replayed, not searched for.

Toric reducedness and [w], the elements named by R_tor(w), need no
listing: those elements are the cyclic shift class of w's element
(Geck-Pfeiffer 2000, 3.2; Marquis 2021), which ``_shift_class`` walks one
element at a time, each read off one root-sequence pass; a listing past
its cap asks the walk, keeps its cap error only for a torically reduced
w, and names no chain for any other.

Element-level cyclic reducedness lists no word either.  The rotations of
a word are windows of the doubled word, which one root-sequence pass
decides (``roots.rotation_pass``).  For FC w those of every word of R(w)
move down-sets of w's heap to the end, which the heap order decides in
one look at each rotation pair; for any other w they are settled over
the prefixes of R(w), the elements of [e, w]_R, on the same walk that
counts R(w) and its commutativity classes (``_interval_census``).

The toric heap of a word is the toric poset of its dependency graph with
the position-increasing orientation, labeled by the letters; its total
toric extensions, read through the labels, give the set L_tor which the
suite checks equals C_tor([w]) by an independent route.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from . import toric
from .coxgraph import CoxeterGraph, Word
from .errors import (
    DEFAULT_CLASS_CAP,
    DEFAULT_ORBIT_CAP,
    GraphMismatch,
    NotReduced,
    NotToricallyReduced,
    OrbitCapExceeded,
    TooLarge,
)
from .heaps import _is_fc, heap_of_word, word_orientation
from .records import Record
from .words import (
    NormalForm,
    _lex_forms,
    _moves,
    _weak_order_levels,
    has_adjacent_repeat,
    normal_form,
)


class CyclicWord(Record, order=True):
    """Rotation class of a word, keyed by its shortlex-least rotation.
    Cyclic words compare and order as their canonical words."""

    canonical: Word

    def __len__(self) -> int:
        return len(self.canonical)


def _least_rotation(word: Word) -> Word:
    """The least rotation, which starts at an occurrence of the least letter.

    Those occurrences are read with ``tuple.index`` and ``tuple.count``, so
    no step runs over every position in Python: one occurrence names the
    rotation outright, and several are compared as windows of the doubled
    word."""
    if not word:
        return ()
    least = min(word)
    k, count = word.index(least), word.count(least)
    if count == 1:
        return word[k:] + word[:k]
    n, doubled = len(word), word + word
    best = doubled[k : k + n]
    for _ in range(count - 1):
        k = word.index(least, k + 1)
        if (rot := doubled[k : k + n]) < best:
            best = rot
    return best


def cyclic_word(w: Iterable[int]) -> CyclicWord:
    return CyclicWord(_least_rotation(tuple(w)))


def rotations(cw: CyclicWord | Word) -> tuple[Word, ...]:
    """Distinct rotations, in rotation order starting from the canonical one."""
    word = cw.canonical if isinstance(cw, CyclicWord) else _least_rotation(tuple(cw))
    return tuple(dict.fromkeys(word[k:] + word[:k] for k in range(len(word)))) if word else ((),)


def is_cyclically_reduced_word(g: CoxeterGraph, w: Word) -> bool:
    """Every rotation of the word is reduced (``_bad_rotation``)."""
    word = g.check_word(w)
    found = _rotation_pass(g, word)
    return found is not None and _bad_rotation(word, found[1]) is None


def _rotation_pass(g: CoxeterGraph, word: Word) -> tuple[dict, list[tuple[int, int]]] | None:
    """``roots.rotation_pass`` of the word, the map -beta_j -> j and the
    rotation pairs, or None when it is not reduced, which two equal
    adjacent letters settle first."""
    return None if has_adjacent_repeat(word) else g.root_system().rotation_pass(word)


def _bad_rotation(word: Word, pairs: list[tuple[int, int]]) -> Word | None:
    """The first rotation of the word that is not reduced, or None: rotation
    k is reduced iff no rotation pair has i < k <= j, so it is k = 1 + the
    least i of a pair with i < j."""
    first = min((i for i, j in pairs if i < j), default=None)
    return None if first is None else word[first + 1 :] + word[: first + 1]


def is_cyclically_reduced_element(g: CoxeterGraph, w: Word) -> bool:
    """Every reduced word for the element of w is cyclically reduced.

    For FC w, R(w) is the linear extensions of w's heap h.  Rotation pairs
    (``_rotation_pass``) belong to heap elements, as commuting adjacent
    letters swaps their betas; a rotation of a word of R(w) moves a
    down-set D of h to the end, and some D holds x but not y iff y is not
    below x.  So R(w) passes iff each pair (x, y) has y <= x in h; a pair
    i < j, a rotation of w itself that is not reduced, fails too, as no
    later position is below an earlier one.  Any other w is settled off
    the walk of [e, w]_R (``_interval_census``), which for FC w would walk
    every down-set of h.
    """
    word = g.check_word(w)
    if (found := _rotation_pass(g, word)) is None:
        raise NotReduced(f"{g.format(w)} is not reduced")
    h = heap_of_word(g, word)
    if _is_fc(h):
        return all(x == y or h.above[y] >> x & 1 for x, y in found[1])
    return _interval_census(g, len(word), *found)[2]


def _interval_census(g: CoxeterGraph, n: int, negated: dict, pairs: list[tuple[int, int]]) -> tuple[int, int, bool]:
    """|R(w)|, the number c(w) of commutativity classes of R(w), and whether
    every word of R(w) is cyclically reduced, off one walk of [e, w]_R
    (``words._weak_order_levels``) from w's root pass (``_rotation_pass``),
    with no word listed; w is FC exactly when it counts one class.

    * |R(x)| is the sum of |R(x s)| over the right descents s of x.
    * c(x) counts the lexicographically least words of the classes, which
      a test on one state of a word decides letter by letter (Anisimov-Knuth
      1979), carried up from the x s by state (``words._lex_forms``).
    * Rotation k of a word u of R(w) is reduced iff no pair (i, j) has
      beta_i among the betas of u's prefix y of length k and beta_j not
      (``roots.rotation_pass``), and the prefixes are the y in [e, w]_R,
      keyed by the mask of their betas.  An x holds the bits of the x s
      it is first reached from and one more, the only one to check.
    """
    need = [0] * n  # need[i]: the j of the pairs (i, j), i != j
    for i, j in pairs:
        if i != j:
            need[i] |= 1 << j
    commuting = g.root_system().commuting
    words, forms = {0: 1}, {0: {0: 1}}
    cyclically_reduced = True
    for level in _weak_order_levels(g, n, negated):
        get, words = words.__getitem__, {}
        for x, down in level.items():
            y = next(iter(down.values()))
            if cyclically_reduced and need[(x ^ y).bit_length() - 1] & ~x:
                cyclically_reduced = False
            words[x] = sum(map(get, down.values()))
        forms = _lex_forms(level, forms, commuting, False)
    top = (1 << n) - 1
    return words[top], sum(forms[top].values()), cyclically_reduced


def toric_reduction_witness(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> tuple[Word, ...] | None:
    """The chain of words, each one rotation or one braid move from the last,
    from w to one with two equal adjacent letters that the listing of
    R_tor([w]) names (``_rtor_listing``), or None when w is torically
    reduced, past the cap too.  OrbitCapExceeded only when the listing
    trips the cap before it meets a cyclic repeat."""
    try:
        _rtor_listing(g, g.check_word(w), cap)
    except OrbitCapExceeded:  # kept only for a torically reduced w
        return None
    except NotToricallyReduced as exc:
        if exc.chain is None:
            raise OrbitCapExceeded(f"cyclic closure of {g.format(w)} exceeds cap {cap}") from None
        return exc.chain
    return None


def _shift_class(g: CoxeterGraph, w: Word) -> dict[tuple, Word] | None:
    """The cyclic shift class of the element x of w, as one reduced word per
    element key (``roots.RootSystem.descents``), or None when w is not
    torically reduced.

    Rotating a reduced word of x by its first letter s, a left descent,
    gives a word for s x s.  If s is also a right descent, either s x s = x,
    exactly when x(alpha_s) = -alpha_s, or l(s x s) = l(x) - 2 and the
    rotated word is not reduced.  Otherwise the word u of x with the letter
    of s deleted and s appended is a reduced word for s x s.  Braid moves
    keep the element and every rotation is a run of these one-letter ones,
    so the elements named by R_tor(w) are the closure of x under them, and
    the first word of R_tor(w) that is not reduced is such a rotation.
    """
    rs = g.root_system()
    found: dict[tuple, Word] = {}
    queue = [g.check_word(w)]
    for u in queue:
        desc = rs.descents(u)
        if desc is None:  # only w itself can fail: each neighbour queued is reduced
            return None
        key, left, right = desc
        if key in found:
            continue
        found[key] = u
        for s, j in left.items():
            if s not in right:
                queue.append(u[:j] + u[j + 1 :] + (s,))
            elif key[s] != rs.negative[s]:
                return None
    return found


def is_torically_reduced(g: CoxeterGraph, w: Word) -> bool:
    """Reduced under every sequence of rotations and/or braid moves
    (``_shift_class``)."""
    return _shift_class(g, w) is not None


def _rtor_listing(g: CoxeterGraph, x: Word, cap: int) -> tuple[dict[Word, int], list[list[Word]]]:
    """List R_tor([x]), x a checked word, one C_tor class at a time.

    Its words are least rotations, and the moves act on every rotation,
    read off the doubled word u u: the move at position 0 of rotation i is
    the one at position i of u u.  A short move (m = 2) adds its result to
    the class being listed; a long move queues it as the seed of a later
    class.  ``found`` maps each word found to its class index, or to -1
    while queued, so each word is expanded once, and ``made`` maps it to
    the (u, i) of the move it was first met by.  A word with a cyclic
    repeat raises NotToricallyReduced when met, before the cap, with the
    ``chain`` those moves replay (``_witness``), and with no message, which
    only a caller that passes the error on makes (``_listed``).  The first
    word listed past the cap is settled by ``_shift_class`` (``_past_cap``).

    A new word is the rotation rot = move + d[i+m : i+n], led by the m
    letters of the move; it is tested for a cyclic repeat only at its two
    seams, rot[m-1] and rot[m % n], and rot[-1] and rot[0].  The move
    alternates two letters, and the rest lay cyclically adjacent in u,
    which passed the test when it was met (w before any move), so no
    other pair of neighbours can be equal.
    """
    start, n, bond = _least_rotation(x), len(x), g.bond_table
    if n > 1 and has_adjacent_repeat(start + start[:1]):
        raise _witness(g, x, {}, start)
    found, made = {start: 0}, {}
    classes = [[start]]
    seeds: deque[Word] = deque()
    get = found.get
    listed = 1
    for index, members in enumerate(classes):
        for cur in members:
            d = cur + cur
            for i, m, move in _moves(bond, d, range(n), n):
                rot = move + d[i + m : i + n]
                nxt = _least_rotation(rot)
                state = get(nxt)
                if state is None:
                    made[nxt] = cur, i
                    if rot[m - 1] == rot[m % n] or rot[-1] == rot[0]:
                        raise _witness(g, x, made, nxt)
                    if m > 2:
                        found[nxt] = -1
                        seeds.append(nxt)
                        continue
                elif state >= 0 or m > 2:
                    continue
                if listed >= cap:
                    raise _past_cap(g, x, cap)
                listed += 1
                found[nxt] = index
                members.append(nxt)
        while seeds and found[seeds[0]] >= 0:
            seeds.popleft()
        if seeds:
            if listed >= cap:
                raise _past_cap(g, x, cap)
            listed += 1
            found[seeds[0]] = len(classes)
            classes.append([seeds.popleft()])
    return found, classes


def _witness(g: CoxeterGraph, x: Word, made: dict, last: Word) -> NotToricallyReduced:
    """The error for x, whose listing met ``last``, with its ``chain``: the
    moves ``made`` records from x to ``last``, replayed.  Each is the move
    at position 0 of rotation i of its u: rotate to that rotation, unless
    the chain is at it, and make the move; a rotation by 1 joins a repeat
    that wraps around."""
    steps = []
    while last in made:
        steps.append(made[last])
        last = steps[-1][0]
    chain, y, n, bond = [x], x, len(x), g.bond_table
    for u, i in reversed(steps):
        r = (u + u)[i : i + n]
        _, m, move = next(_moves(bond, r, (0,), n))
        y = move + r[m:]
        chain += [y] if r == chain[-1] else [r, y]
    err = NotToricallyReduced()
    err.chain = tuple(chain) if has_adjacent_repeat(y) else (*chain, y[1:] + y[:1])
    return err


def _past_cap(g: CoxeterGraph, x: Word, cap: int) -> Exception:
    """The error of a listing of R_tor([x]) past its cap: the cap error
    stands only for a torically reduced x (``_shift_class``), and any other
    gets NotToricallyReduced with no ``chain``.  The walk runs only then,
    as the listing costs less."""
    if _shift_class(g, x) is None:
        return NotToricallyReduced()
    return OrbitCapExceeded(f"cyclic closure of {g.format(x)} exceeds cap {cap}")


def _listed(g: CoxeterGraph, w: Word, cap: int) -> tuple[dict[Word, int], list[list[Word]]]:
    """``_rtor_listing`` of w, checked, its NotToricallyReduced given a message."""
    x = g.check_word(w)
    try:
        return _rtor_listing(g, x, cap)
    except NotToricallyReduced as exc:
        exc.args = (f"{g.format(x)} is not torically reduced",)
        raise


def rtor_cyclic_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """R_tor([w]): cyclic words reachable by rotations and all braid moves.
    NotToricallyReduced for any w that is not torically reduced, whatever
    the cap; OrbitCapExceeded only past the cap of one that is."""
    return frozenset(map(CyclicWord, _listed(g, w, cap)[0]))


def ctor_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """C_tor([w]): the class of [w] in the listing of R_tor([w]) by classes."""
    return frozenset(map(CyclicWord, _listed(g, w, cap)[1][0]))


def cyclic_decomposition(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[frozenset[CyclicWord], ...]:
    """Partition of R_tor([w]) into cyclic commutativity classes."""
    classes = _listed(g, w, cap)[1]
    return tuple(sorted((frozenset(map(CyclicWord, c)) for c in classes), key=min))


def rtor_words(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """R_tor(w): the word-level class, i.e. every rotation of every cyclic
    word in R_tor([w])."""
    return frozenset(rot for cw in rtor_cyclic_class(g, w, cap) for rot in rotations(cw))


def torically_equivalent_elements(g: CoxeterGraph, w: Word) -> frozenset[NormalForm]:
    """[w]: the distinct group elements named by the words of R_tor(w), which
    are the cyclic shift class of w's element (``_shift_class``)."""
    found = _shift_class(g, w)
    if found is None:
        raise NotToricallyReduced(f"{g.format(w)} is not torically reduced")
    return frozenset(normal_form(g, u) for u in found.values())


class ToricHeap(Record):
    """Labeled toric poset of a word: positions carry the word's letters."""

    graph: CoxeterGraph
    word: Word
    poset: toric.ToricPoset

    @property
    def size(self) -> int:
        return len(self.word)


def toric_heap_of_word(g: CoxeterGraph, w: Word, cap: int = DEFAULT_CLASS_CAP) -> ToricHeap:
    word = g.check_word(w)
    return ToricHeap(g, word, toric.ToricPoset(word_orientation(g, word), cap=cap))


def toric_heaps_isomorphic(t1: ToricHeap, t2: ToricHeap) -> bool:
    """Label-preserving toric poset isomorphism.

    An isomorphism keeps the cyclic order of each toric chain.  A letter's
    occurrences form one, in cyclic position order, so the i-th occurrence
    of s in t1 goes to the (i + r_s)-th in t2 for an offset r_s; so do a
    bonded pair's, so r_s fixes the offset of each letter bonded to s, and
    one offset per component of the bond graph on the letters is free.  A
    candidate is an isomorphism iff the orientation it carries has the cycle
    imbalances of t2's (``toric._imbalance``).  Components share no edge,
    so each is carried on its own, over t2's orientation elsewhere.
    Cross-validated against a brute-force bijection search in the tests.
    """
    if t1.graph != t2.graph:
        raise GraphMismatch("toric heaps live over different Coxeter graphs")
    if sorted(t1.word) != sorted(t2.word):
        return False
    g, graph2, letters = t1.graph, t2.poset.graph, sorted(set(t1.word))
    occ1, occ2 = ({s: [i for i, x in enumerate(w) if x == s] for s in letters} for w in (t1.word, t2.word))
    index2 = {e: k for k, e in enumerate(graph2.edges)}
    target = t2.poset.representative.forward
    goal = toric._imbalance(graph2, target)
    arcs = t1.poset.representative.directed_edges()
    sigma = [0] * t1.size

    def place(s: int, r: int, placed: list[int]) -> bool:
        """Give s the offset r; whether each bonded placed letter keeps its cyclic order with s."""
        for i, p in enumerate(occ1[s]):
            sigma[p] = occ2[s][(i + r) % len(occ1[s])]
        for u in placed:
            images = [sigma[p] for p in sorted(occ1[s] + occ1[u])]
            if not g.commutes(s, u) and sum(a > b for a, b in zip(images, images[1:] + images[:1])) > 1:
                return False
        return True

    def fits(comp: list[int], r: int) -> bool:
        """Whether offset r of the component's first letter extends to a candidate that passes."""
        place(comp[0], r, [])
        for k, s in enumerate(comp[1:], 1):
            if not any(place(s, x, comp[:k]) for x in range(len(occ1[s]))):
                return False
        inside = carried = 0
        for a, b in arcs:
            if t1.word[a] in comp:
                bit = 1 << index2[min(sigma[a], sigma[b]), max(sigma[a], sigma[b])]
                inside |= bit
                carried |= bit if sigma[a] < sigma[b] else 0
        return toric._imbalance(graph2, target & ~inside | carried) == goal

    done: list[int] = []
    for root in letters:
        if root in done:
            continue
        comp = [root]
        for u in comp:  # breadth first: each later letter is bonded to an earlier one
            comp += [t for t in letters if t not in comp and not g.commutes(u, t)]
        done += comp
        if not any(fits(comp, r) for r in range(len(occ1[root]))):
            return False
    return True


def ltor(t: ToricHeap) -> frozenset[CyclicWord]:
    """L_tor(T(w)): total toric extensions of the toric heap, as cyclic words.

    Each extension is listed once, as its linear order that starts at
    position 0, read straight through the labels (``toric._toric_orders``);
    the least rotation of each such word names its cyclic word, and
    duplicates merge.
    """
    bound = toric.MAX_TOTAL_ORDER_VERTICES
    if t.size > bound:
        raise TooLarge(f"word length {t.size} exceeds the total-order bound {bound}")
    return frozenset(map(CyclicWord, {_least_rotation(w) for w in toric._toric_orders(t.poset, t.word)}))
