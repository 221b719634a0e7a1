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
  C_tor class at a time by ``words._listing``, which decides toric
  reducedness too; ``toric_reduction_witness`` only names a chain of moves.

The toric heap of a word is the toric poset of its dependency graph with
the position-increasing orientation, labeled by the letters; its total
toric extensions, read through the labels, give the set L_tor which the
suite checks equals C_tor([w]) by an independent route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable

from . import toric
from .coxgraph import CoxeterGraph, Word
from .errors import (
    GraphMismatch,
    NotAcyclic,
    NotToricallyReduced,
    OrbitCapExceeded,
    TooLarge,
)
from .heaps import occurrence_alignment, word_orientation
from .words import (
    DEFAULT_ORBIT_CAP,
    NormalForm,
    _least_rotation,
    _listing,
    braid_moves,
    fc_orbit,
    is_reduced,
    normal_form,
    reduced_words,
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
    """Every rotation of the word is reduced."""
    word = g.check_word(w)
    return all(is_reduced(g, r) for r in rotations(cyclic_word(word)))


def is_cyclically_reduced_element(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Every reduced word for the element of w is cyclically reduced
    (``rotation_walk`` over R(w), without its CFC half); ``reduced_words``
    raises NotReduced when w is not reduced."""
    word = g.check_word(w)
    return rotation_walk(g, word, reduced_words(g, word, cap), False, cap)[0] is None


def rotation_walk(
    g: CoxeterGraph, w: Word, rw: Collection[Word], fc: bool, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[Word | None, bool]:
    """One pass over the rotations of R(w) that settles element-level cyclic
    reducedness and CFC together.

    ``rw`` is R(w) for the reduced word w, and ``fc`` says whether w is FC.
    Returns (the first rotation met that is not reduced, or None; w is CFC).
    The rotations of w come first, so a returned rotation is w's first one
    when w has any.  A rotation that is not reduced settles both notions.
    While CFC is open, each new reduced rotation gets the FC verdict of its
    braid orbit from ``fc_orbit``; the orbit's words are reduced with the
    same verdict, so none of them is checked again.  With ``fc`` False no
    orbit is searched.  An orbit over the cap leaves CFC open, and the cap
    error is raised only when no other orbit settles it.
    """
    known = set(rw)  # words known to be reduced, so never looked at again
    cfc, over_cap = fc, None
    for u in (w, *rw):
        for k in range(1, len(u)):
            r = u[k:] + u[:k]
            if r in known:
                continue
            if not is_reduced(g, r):
                return r, False
            known.add(r)
            if cfc:
                try:
                    orbit, cfc = fc_orbit(g, r, cap)
                except OrbitCapExceeded as exc:
                    over_cap = over_cap or exc
                    continue
                known |= orbit
    if cfc and over_cap is not None:
        raise over_cap
    return None, cfc


def toric_reduction_witness(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[Word, ...] | None:
    """Search the rotation + braid closure of w for a non-reduced word.

    Returns a move-by-move chain from w to a word with two equal adjacent
    letters, or None when the closure is exhausted without one (w is then
    torically reduced).  Each consecutive pair differs by one rotation or
    one braid move.
    """
    start = g.check_word(w)
    parent: dict[Word, Word | None] = {start: None}

    def chain(word: Word) -> tuple[Word, ...]:
        out = [word]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return tuple(reversed(out))

    if any(start[i] == start[i + 1] for i in range(len(start) - 1)):
        return (start,)
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        moves = [cur[k:] + cur[:k] for k in range(1, len(cur))]
        moves.extend(braid_moves(g, cur))
        for nxt in moves:
            if nxt in parent:
                continue
            if len(parent) >= cap:
                raise OrbitCapExceeded(f"rotation+braid closure of {g.format(w)} exceeds cap {cap}")
            parent[nxt] = cur
            if any(nxt[i] == nxt[i + 1] for i in range(len(nxt) - 1)):
                return chain(nxt)
            queue.append(nxt)
    return None


def is_torically_reduced(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Reduced under every sequence of rotations and/or braid moves.

    By Tits' criterion the listing of R_tor([w]) meets a cyclic repeat
    exactly when w is not.  Word and element level coincide: any reduced
    word for a torically reduced element certifies all of them (asserted
    empirically in tests).
    """
    try:
        _listing(g, w, cap, "cyclic closure", cyclic=True)
    except NotToricallyReduced:
        return False
    return True


def rtor_cyclic_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """R_tor([w]): cyclic words reachable by rotations and all braid moves.

    The listing detects any failure of toric reducedness, so the
    precondition is checked by the search itself.
    """
    return frozenset(map(CyclicWord, _listing(g, w, cap, "cyclic closure", cyclic=True)[0]))


def ctor_class(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[CyclicWord]:
    """C_tor([w]): the class of [w] in the listing of R_tor([w]) by classes."""
    return frozenset(map(CyclicWord, _listing(g, w, cap, "cyclic closure", cyclic=True)[1][0]))


def cyclic_decomposition(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[frozenset[CyclicWord], ...]:
    """Partition of R_tor([w]) into cyclic commutativity classes."""
    classes = _listing(g, w, cap, "cyclic closure", cyclic=True)[1]
    return tuple(sorted((frozenset(map(CyclicWord, c)) for c in classes), key=min))


def rtor_words(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> frozenset[Word]:
    """R_tor(w): the word-level class, i.e. every rotation of every cyclic
    word in R_tor([w])."""
    return frozenset(
        rot for cw in rtor_cyclic_class(g, w, cap) for rot in rotations(cw)
    )


def torically_equivalent_elements(
    g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP
) -> frozenset[NormalForm]:
    """[w]: the distinct group elements named by the words of R_tor(w)."""
    return frozenset(normal_form(g, u) for u in rtor_words(g, w, cap))


@dataclass(frozen=True)
class ToricHeap:
    """Labeled toric poset of a word: positions carry the word's letters."""

    graph: CoxeterGraph
    word: Word
    poset: toric.ToricPoset

    @property
    def size(self) -> int:
        return len(self.word)

    def label(self, i: int) -> int:
        return self.word[i]


def toric_heap_of_word(g: CoxeterGraph, w: Word, cap: int = toric.DEFAULT_CLASS_CAP) -> ToricHeap:
    word = g.check_word(w)
    return ToricHeap(g, word, toric.ToricPoset(word_orientation(g, word), cap=cap))


def toric_heaps_isomorphic(t1: ToricHeap, t2: ToricHeap) -> bool:
    """Label-preserving toric poset isomorphism.

    Candidate bijections are the rotation-induced occurrence alignments:
    vertex preimages are toric chains whose cyclic order is fixed, so only
    the rotation offset is free.  For each rotation of t2's word with the
    same letters, align k-th occurrences and test whether the transported
    orientation lands in t1's toric class.  Cross-validated against a
    brute-force bijection search in the test suite.
    """
    if t1.graph != t2.graph:
        raise GraphMismatch("toric heaps live over different Coxeter graphs")
    if t1.size != t2.size:
        return False
    m = t1.size
    if m == 0:
        return True
    g1 = t1.poset.graph
    for k in range(m):
        rot = t2.word[k:] + t2.word[:k]
        sigma = occurrence_alignment(t1.word, rot)
        if sigma is None:
            continue
        carried = _transport(t1.poset.representative, g1, sigma)
        if carried is None:
            continue
        # the rotated word's toric heap is isomorphic to t2's via the shift map
        if carried in toric.toric_class(word_orientation(t1.graph, rot), t2.poset.cap):
            return True
    return False


def _transport(
    o: toric.AcyclicOrientation, graph: toric.Graph, sigma: tuple[int, ...]
) -> toric.AcyclicOrientation | None:
    """Push an orientation through a vertex bijection; None if the image
    digraph has a cycle (the map is then not a poset morphism)."""
    pairs = [(sigma[a], sigma[b]) for a, b in o.directed_edges()]
    target_edges = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
    target = toric.Graph(graph.n, target_edges)
    try:
        return toric.orientation_from_pairs(target, pairs)
    except NotAcyclic:
        return None


def ltor(t: ToricHeap, max_vertices: int = toric.MAX_TOTAL_ORDER_VERTICES) -> frozenset[CyclicWord]:
    """L_tor(T(w)): total toric extensions of the toric heap, as cyclic words.

    Each extension is a cyclic ordering of positions; reading it through the
    labels and merging duplicates yields cyclic words.
    """
    if t.size > max_vertices:
        raise TooLarge(f"word length {t.size} exceeds the total-order bound {max_vertices}")
    out = set()
    for cyc in toric.total_toric_extensions(t.poset, max_vertices):
        out.add(cyclic_word(tuple(t.word[i] for i in cyc)))
    return frozenset(out)
