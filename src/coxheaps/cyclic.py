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
  C_tor class at a time by ``words._listing``, which reads the moves of
  every rotation off the doubled word and meets a cyclic repeat when w is
  not torically reduced (Tits); the one search both decides and names the
  chain of moves to that repeat, which ``toric_reduction_witness`` returns.

Toric reducedness and [w], the elements named by R_tor(w), need no
listing: those elements are the cyclic shift class of w's element
(Geck-Pfeiffer 2000, 3.2; Marquis 2021), which ``_shift_class`` walks one
element at a time, each read off one root-sequence pass; a listing past
its cap asks the walk (``_rtor_listing``), keeps its cap error only for a
torically reduced w, and names no chain for any other.

Element-level cyclic reducedness (``rotation_walk``) needs one seed word
per commutativity class of R(w): its rotations are windows of the doubled
word, which one root-sequence pass decides, and those of its class move
down-sets of its heap to the end, which the heap order decides.

The toric heap of a word is the toric poset of its dependency graph with
the position-increasing orientation, labeled by the letters; its total
toric extensions, read through the labels, give the set L_tor which the
suite checks equals C_tor([w]) by an independent route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import toric
from .coxgraph import CoxeterGraph, Word
from .errors import (
    GraphMismatch,
    NotReduced,
    NotToricallyReduced,
    OrbitCapExceeded,
    TooLarge,
)
from .heaps import Heap, _is_fc, heap_of_word, word_orientation
from .words import (
    DEFAULT_ORBIT_CAP,
    NormalForm,
    _least_rotation,
    _listing,
    has_adjacent_repeat,
    is_reduced,
    normal_form,
)


@dataclass(frozen=True, order=True)
class CyclicWord:
    """Rotation class of a word, keyed by its shortlex-least rotation."""

    canonical: Word

    def __len__(self) -> int:
        return len(self.canonical)


def cyclic_word(w: Iterable[int]) -> CyclicWord:
    return CyclicWord(_least_rotation(tuple(w)))


def rotations(cw: CyclicWord | Word) -> tuple[Word, ...]:
    """Distinct rotations, in rotation order starting from the canonical one."""
    word = cw.canonical if isinstance(cw, CyclicWord) else _least_rotation(tuple(cw))
    return tuple(dict.fromkeys(word[k:] + word[:k] for k in range(len(word)))) if word else ((),)


def is_cyclically_reduced_word(g: CoxeterGraph, w: Word) -> bool:
    """Every rotation of the word is reduced (``_rotation_pairs``)."""
    pairs = _rotation_pairs(g, g.check_word(w))
    return pairs is not None and all(i >= j for i, j in pairs)


def _rotation_pairs(g: CoxeterGraph, word: Word) -> list[tuple[int, int]] | None:
    """``roots.rotation_pairs`` of the word, in one root pass, or None when
    it is not reduced, which two equal adjacent letters settle first."""
    return None if has_adjacent_repeat(word) else g.root_system().rotation_pairs(word)


def is_cyclically_reduced_element(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Every reduced word for the element of w is cyclically reduced
    (``rotation_walk``); R(w) is listed, for one seed word per
    commutativity class, only when w is not FC."""
    word = g.check_word(w)
    if not is_reduced(g, word):
        raise NotReduced(f"{g.format(w)} is not reduced")
    h = heap_of_word(g, word)
    seeds = () if _is_fc(h) else [c[0] for c in _listing(g, word, cap)[1][1:]]
    return rotation_walk(g, h, seeds) is None


def rotation_walk(g: CoxeterGraph, h: Heap, seeds: Iterable[Word]) -> Word | None:
    """Settle element-level cyclic reducedness from w's heap ``h`` and one
    seed word per other commutativity class of R(w).  Rotation k of a word
    u is the window [k, k + n) of u u, which ``roots.rotation_pairs``
    decides: w's first bad rotation is k = 1 + the least i of a pair with
    i < j.  Pairs belong to heap elements, as commuting adjacent letters
    swaps their betas; a rotation of a word of u's class moves a down-set D
    to the end, and some D holds x but not y iff y is not below x.  So the
    class passes iff each pair (x, y) has y <= x.  Returns a rotation of a
    word of R(w) that is not reduced, w's first if any, or None.
    """
    w, rs = h.word, g.root_system()
    pairs = rs.rotation_pairs(w)
    first = min((i for i, j in pairs if i < j), default=None)
    if first is not None:
        return w[first + 1 :] + w[: first + 1]
    others = ((heap_of_word(g, u), rs.rotation_pairs(u)) for u in seeds)
    for heap, pairs in itertools.chain([(h, pairs)], others):
        for x, y in pairs:
            if x != y and not heap.above[y] >> x & 1:
                return _moved(heap.word, heap.below[x] | 1 << x)
    return None


def _moved(word: Word, d: int) -> Word:
    """The word with the positions in the bitmask d moved to the end."""
    return tuple(word[i] for i in sorted(range(len(word)), key=lambda i: d >> i & 1))


def toric_reduction_witness(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> tuple[Word, ...] | None:
    """The chain of words, each one rotation or one braid move from the last,
    from w to one with two equal adjacent letters that the listing of
    R_tor([w]) names (``_rtor_listing``), or None when w is torically
    reduced, past the cap too.  OrbitCapExceeded only when the listing
    trips the cap before it meets a cyclic repeat."""
    try:
        _rtor_listing(g, w, cap)
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


def _rtor_listing(g: CoxeterGraph, w: Word, cap: int) -> tuple[dict[Word, int], list[list[Word]]]:
    """R_tor([w]) by C_tor classes (``words._listing``).  Past the cap,
    ``_shift_class`` settles it: the cap error stands only for a torically
    reduced w, and any other gets NotToricallyReduced with no ``chain``.
    The walk runs only then, as the listing costs less."""
    try:
        return _listing(g, w, cap, cyclic=True)
    except OrbitCapExceeded:
        if _shift_class(g, w) is None:
            raise NotToricallyReduced(f"{g.format(w)} is not torically reduced") from None
        raise


def rtor_cyclic_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """R_tor([w]): cyclic words reachable by rotations and all braid moves.
    NotToricallyReduced for any w that is not torically reduced, whatever
    the cap; OrbitCapExceeded only past the cap of one that is."""
    return frozenset(map(CyclicWord, _rtor_listing(g, w, cap)[0]))


def ctor_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """C_tor([w]): the class of [w] in the listing of R_tor([w]) by classes."""
    return frozenset(map(CyclicWord, _rtor_listing(g, w, cap)[1][0]))


def cyclic_decomposition(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[frozenset[CyclicWord], ...]:
    """Partition of R_tor([w]) into cyclic commutativity classes."""
    classes = _rtor_listing(g, w, cap)[1]
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


@dataclass(frozen=True)
class ToricHeap:
    """Labeled toric poset of a word: positions carry the word's letters."""

    graph: CoxeterGraph
    word: Word
    poset: toric.ToricPoset

    @property
    def size(self) -> int:
        return len(self.word)


def toric_heap_of_word(g: CoxeterGraph, w: Word, cap: int = toric.DEFAULT_CLASS_CAP) -> ToricHeap:
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

    Each extension is a cyclic ordering of positions; reading it through the
    labels and merging duplicates yields cyclic words.
    """
    bound = toric.MAX_TOTAL_ORDER_VERTICES
    if t.size > bound:
        raise TooLarge(f"word length {t.size} exceeds the total-order bound {bound}")
    out = set()
    for cyc in toric.total_toric_extensions(t.poset):
        out.add(cyclic_word(tuple(t.word[i] for i in cyc)))
    return frozenset(out)
