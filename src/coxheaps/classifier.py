"""FC / CFC / TFC / faux-CFC verdicts and the structural probes around them.

Vocabulary (all for a fixed Coxeter system):

* FC: the reduced words form a single commutativity class;
* CFC: every rotation of every reduced word is reduced and FC;
* TFC: torically reduced with a single cyclic commutativity class;
* faux CFC: TFC but not CFC.

CFC implies FC and TFC; the reverse inclusions fail.  CFC and TFC are
decided on the convex <s,t>_m windows of the rotations of w, read off the
one heap of w w: CFC has none, and TFC keeps its toric heap under each
one's braid move.  ``classify`` lists no reduced word: for every reduced
w it reads |R(w)|, the count c(w) of least words of the classes and
cyclic reducedness off one pass over [e, w]_R that carries all three
along its edges (``cyclic._interval_census``), and w is FC iff c(w) = 1.
It lists R_tor([w]) once, under its cap, and counts its cyclic words and
classes off that listing; a listing that meets a cyclic repeat names the
chain of moves from w, the toric witness.  A listing of R_tor([w]) past
its cap is settled in ``cyclic``, as for every caller: the cap error
stands for a torically reduced w, and any other w is reported not
torically reduced with no chain.  The probes (logarithmic,
braid-shortening) are partial: they report evidence bounded by their
inputs, never theorems.
"""

from __future__ import annotations

from typing import Iterator

from . import toric
from .coxgraph import INF, CoxeterGraph, Word
from .cyclic import (
    _bad_rotation,
    _interval_census,
    _rotation_pass,
    _rtor_listing,
    cyclic_word,
    is_cyclically_reduced_word,
    is_torically_reduced,
    rtor_cyclic_class,
    toric_heap_of_word,
    toric_heaps_isomorphic,
)
from .errors import (
    NotACoxeterWord,
    NotReduced,
    NotToricallyReduced,
    SeedWordError,
    ShapeMismatch,
    SpokeError,
)
from .heaps import _convex_windows, heap_of_word
from .records import Record
from .words import (
    DEFAULT_ORBIT_CAP,
    is_fc,
    is_reduced,
)

__all__ = [
    "ClassificationReport",
    "classify",
    "is_fc",
    "is_cfc",
    "is_tfc",
    "is_faux_cfc",
    "LogProbe",
    "logarithmic_probe",
    "coxeter_to_orientation",
    "orientation_to_coxeter",
    "coxeter_elements",
    "coxeter_conjugacy_classes",
    "odd_braid_obstruction",
    "TfcConstruction",
    "tfc_constructor",
    "ConjectureProbe",
    "conjecture_probe",
]


def _moved_words(g: CoxeterGraph, w: Word) -> Iterator[Word]:
    """Each convex <s,t>_m window of each rotation of w, as that rotation
    commuted to what lies below the window, then <t,s>_m, then the rest.
    Rotation k is the window [k, k + n) of w w, whose heap is that of w w
    there, so the windows of heap(w w) that start in w and span fewer than
    n positions are those of w's rotations, each met once."""
    n, d = len(w), w + w
    h = heap_of_word(g, d)
    for window in _convex_windows(h):
        first, last = window[0], window[-1]
        if first < n and last - first < n:
            rotation, closed = range(first, first + n), h.below[last] | 1 << last
            yield (tuple(d[i] for i in rotation if closed >> i & 1 and i not in window)
                   + alternating(d[window[1]], d[first], len(window))
                   + tuple(d[i] for i in rotation if not closed >> i & 1))


def is_cfc(g: CoxeterGraph, w: Word) -> bool:
    """For every reduced word of w, every rotation is reduced and FC
    (Boothby et al. 2012); w's own rotations decide.  For FC w, R(w) is
    w's class, and a rotation of one of its words is a window of n
    consecutive elements of heap(w^Z), convex there.  A bad chain
    (Stembridge: a convex ss or <s,t>_m) convex in one is convex in
    heap(w^Z), so also in the window that starts at its first element,
    which is a rotation of w (``_moved_words``)."""
    word = g.check_word(w)
    if (found := _rotation_pass(g, word)) is None:
        raise NotReduced(f"{g.format(w)} is not reduced")
    return _bad_rotation(word, found[1]) is None and next(_moved_words(g, word), None) is None


def is_tfc(g: CoxeterGraph, w: Word) -> bool:
    """Torically reduced with one cyclic commutativity class.  A cyclic
    word of C_tor([w]) has an <s,t>_m factor iff it is a convex window of
    the heap of a rotation u of w; u commutes to what lies below the
    window, the window (a chain) and the rest (``_moved_words``).  If each
    window's braid move keeps the toric heap, R_tor([w]) = C_tor([w]),
    torically reduced iff cyclically reduced."""
    word = g.check_word(w)
    if not is_cyclically_reduced_word(g, word):
        return False
    moved: dict[Word, Word] = {}
    for u in _moved_words(g, word):
        moved.setdefault(cyclic_word(u).canonical, u)
    base = toric_heap_of_word(g, word) if moved else None
    return all(toric_heaps_isomorphic(base, toric_heap_of_word(g, u)) for u in moved.values())


def is_faux_cfc(g: CoxeterGraph, w: Word) -> bool:
    return is_tfc(g, w) and not is_cfc(g, w)


class ClassificationReport(Record):
    """Full verdict sheet for one input word.

    ``cyclically_reduced`` is the element-level notion (every reduced word
    of the element is cyclically reduced); a non-reduced input fails every
    cyclic notion by definition.  Counts are None where the underlying
    notion does not apply.
    """

    word: Word
    reduced: bool
    cyclically_reduced: bool
    torically_reduced: bool
    fc: bool
    cfc: bool
    tfc: bool
    faux_cfc: bool
    counts: dict
    witnesses: dict

    def to_json(self, g: CoxeterGraph) -> dict:
        witnesses = {}
        if "nonReducedRotation" in self.witnesses:
            witnesses["nonReducedRotation"] = g.format(self.witnesses["nonReducedRotation"])
        if "toricWitnessChain" in self.witnesses:
            witnesses["toricWitnessChain"] = [g.format(u) for u in self.witnesses["toricWitnessChain"]]
        return {
            "word": g.format(self.word),
            "reduced": self.reduced,
            "cyclicallyReduced": self.cyclically_reduced,
            "toricallyReduced": self.torically_reduced,
            "fc": self.fc,
            "cfc": self.cfc,
            "tfc": self.tfc,
            "fauxCfc": self.faux_cfc,
            "counts": dict(self.counts),
            "witnesses": witnesses,
        }


def classify(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> ClassificationReport:
    """The verdict sheet of w.  |R(w)|, its class count and cyclic
    reducedness come off one pass over [e, w]_R with no cap, carried along
    its edges (``_interval_census``), and w is FC iff R(w) is one class.
    The cap bounds only the listing of R_tor([w]), whose words and classes
    are counted as listed (``_rtor_listing``)."""
    word = g.check_word(w)
    if (found := _rotation_pass(g, word)) is None:
        return ClassificationReport(
            word=word, reduced=False, cyclically_reduced=False, torically_reduced=False,
            fc=False, cfc=False, tfc=False, faux_cfc=False,
            counts=dict.fromkeys(("reducedWords", "commutativityClasses", "cyclicWords", "cyclicCommutativityClasses")),
            witnesses={"nonReducedRotation": word},
        )
    count, classes, cyclically_reduced = _interval_census(g, len(word), *found)
    fc = classes == 1
    counts: dict = {"reducedWords": count, "commutativityClasses": classes}
    witnesses: dict = {}

    cfc = fc and cyclically_reduced and next(_moved_words(g, word), None) is None
    if (bad_rotation := _bad_rotation(word, found[1])) is not None:
        witnesses["nonReducedRotation"] = bad_rotation

    try:
        listed, cyclic_classes = _rtor_listing(g, word, cap)
    except NotToricallyReduced as exc:
        if exc.chain is not None:
            witnesses["toricWitnessChain"] = exc.chain
        counts["cyclicWords"] = counts["cyclicCommutativityClasses"] = None
        torically_reduced = tfc = False
    else:
        counts["cyclicWords"] = len(listed)
        counts["cyclicCommutativityClasses"] = len(cyclic_classes)
        torically_reduced, tfc = True, len(cyclic_classes) == 1
    return ClassificationReport(
        word=word,
        reduced=True,
        cyclically_reduced=cyclically_reduced,
        torically_reduced=torically_reduced,
        fc=fc,
        cfc=cfc,
        tfc=tfc,
        faux_cfc=tfc and not cfc,
        counts=counts,
        witnesses=witnesses,
    )


class LogProbe(Record):
    """K-bounded logarithmicity check; a positive report is not a proof."""

    word: Word
    up_to: int
    lengths: tuple[int, ...]  # lengths of w^1 .. w^K
    violation_at: int | None

    @property
    def holds(self) -> bool:
        return self.violation_at is None


def logarithmic_probe(g: CoxeterGraph, w: Word, up_to: int) -> LogProbe:
    """First k <= up_to with l(w^k) < k*l(w), if any.

    l(w^k) is the size of the inversion set of w folded onto w^(k-1)
    (``roots.RootSystem.fold``), l(w) root steps a k.
    Partial verification only: "holds" means no violation below the bound.
    """
    if not is_reduced(g, w):
        raise NotReduced(f"{g.format(w)} is not reduced")
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    word, rs = g.check_word(w), g.root_system()
    cols, negated, lengths = list(rs.identity), set(), []
    for k in range(1, up_to + 1):
        rs.fold(cols, negated, word)
        lengths.append(len(negated))
        if len(negated) < k * len(word):
            return LogProbe(word, up_to, tuple(lengths), k)
    return LogProbe(word, up_to, tuple(lengths), None)


# -- Coxeter elements and their conjugacy ------------------------------


def coxeter_graph_skeleton(g: CoxeterGraph) -> toric.Graph:
    """The diagram as a plain graph: vertices are generator indices."""
    return toric.Graph(g.rank, g.edges())


def coxeter_to_orientation(g: CoxeterGraph, c: Word) -> toric.AcyclicOrientation:
    """Orient each bond towards the generator appearing later in the word."""
    word = g.check_word(c)
    if sorted(word) != list(range(g.rank)):
        raise NotACoxeterWord(f"{g.format(c)} does not use each generator exactly once")
    return toric.orientation_from_linear_order(coxeter_graph_skeleton(g), word)


def orientation_to_coxeter(g: CoxeterGraph, o: toric.AcyclicOrientation) -> Word:
    """Shortlex-least linear extension of the oriented diagram, as a word."""
    skel = coxeter_graph_skeleton(g)
    if o.graph != skel:
        raise NotACoxeterWord("orientation does not live on this Coxeter graph")
    preds = toric._successors(g.rank, ((b, a) for a, b in o.directed_edges()))
    return toric._least_order(preds)


def coxeter_elements(g: CoxeterGraph) -> tuple[Word, ...]:
    """Canonical words for all Coxeter elements, one per acyclic orientation."""
    skel = coxeter_graph_skeleton(g)
    return tuple(
        sorted(orientation_to_coxeter(g, o) for o in toric.all_acyclic_orientations(skel))
    )


def coxeter_conjugacy_classes(g: CoxeterGraph) -> tuple[tuple[Word, ...], ...]:
    """Conjugacy classes of Coxeter elements via source-to-sink equivalence.

    Two Coxeter elements are conjugate iff their diagram orientations are
    torically equivalent (Eriksson-Eriksson 2009), so the partition is the
    pullback of the toric classes through the bijection; those are grouped
    by cycle imbalances, with no class search.  Classes are listed by least
    member.
    """
    skel = coxeter_graph_skeleton(g)
    out = []
    for cls in toric.toric_classes(skel):
        out.append(tuple(sorted(orientation_to_coxeter(g, o) for o in cls)))
    return tuple(sorted(out))


def source_flip_conjugator(
    g: CoxeterGraph, start: toric.AcyclicOrientation, goal: toric.AcyclicOrientation,
    cap: int = toric.DEFAULT_CLASS_CAP,
) -> Word | None:
    """A word v with v^-1 c(start) v = c(goal), as a product of flipped
    vertices, or None when the orientations are not torically equivalent.

    Flipping a source s conjugates by s (a cyclic shift); flipping a sink
    likewise, since generators are involutions.  Inequivalent orientations
    differ in their cycle imbalances and get None with no search; otherwise
    the flips are read back along the BFS parents of the toric-class search.
    """
    if start.graph != goal.graph:
        raise NotACoxeterWord("orientations live on different graphs")
    graph = start.graph
    if toric._imbalance(graph, start.forward) != toric._imbalance(graph, goal.forward):
        return None
    flipped = toric._class_masks(graph, start.forward, cap, goal.forward)
    out = []
    mask = goal.forward
    while flipped[mask] >= 0:
        out.append(flipped[mask])
        mask ^= graph.incident[out[-1]]
    return tuple(reversed(out))


# -- section-7 style probes ---------------------------------------------


def odd_braid_obstruction(g: CoxeterGraph, w: Word, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """Does some word of R_tor(w) contain a factor <s,t>_m with odd m >= 3?

    A faux-CFC element can never produce one (an odd braid move changes the
    letter multiset), so False is a necessary condition for faux CFC.  Only
    odd moves change the multiset, and R_tor(w) is closed under braid moves,
    so one exists exactly when R_tor(w) holds two multisets.
    """
    return len({tuple(sorted(cw.canonical)) for cw in rtor_cyclic_class(g, w, cap)}) > 1


def alternating(s: int, t: int, m: int) -> Word:
    """The word <s,t>_m = stst... with m letters."""
    return tuple(s if k % 2 == 0 else t for k in range(m))


class TfcConstruction(Record):
    word: Word
    tfc: bool


def tfc_constructor(g: CoxeterGraph, spoke: tuple[str | int, str | int], u: Word) -> TfcConstruction:
    """Build <s,t>_{m(s,t)} u from an even spoke (s, t) and a CFC seed u.

    Preconditions (typed errors): s is an endpoint of the diagram, m(s, t)
    is even and finite, u avoids s and t, and u is a reduced word for a CFC
    element.  The returned verdict is computed, not assumed.
    """
    s, t = (g.as_index(x) for x in spoke)
    m = g.m(s, t)
    if m == 2 or m == 1:
        raise SpokeError(f"({g.name(s)}, {g.name(t)}) is not an edge of the diagram")
    if g.degree(s) != 1:
        raise SpokeError(f"{g.name(s)} is not an endpoint of the diagram")
    if m == INF or int(m) % 2 != 0:
        raise SpokeError(f"m({g.name(s)}, {g.name(t)}) = {m} is not even and finite")
    seed = g.check_word(u)
    if s in seed or t in seed:
        raise SeedWordError("seed word must avoid both spoke generators")
    if not is_reduced(g, seed):
        raise SeedWordError("seed word is not reduced")
    if not is_cfc(g, seed):
        raise SeedWordError("seed word is not CFC")
    word = alternating(s, t, int(m)) + seed
    return TfcConstruction(word, is_tfc(g, word))


class ConjectureProbe(Record):
    """Evidence row for the braid-shortening conjecture; never a proof.

    For a faux-CFC word <s,t>_m u the conjecture predicts that
    <s,t>_{m-2} u is TFC whenever u is torically reduced.  Shapes whose
    seed is not torically reduced fall outside the hypothesis and are
    reported with ``applicable = False``.  The paper's statement is not in
    this repository, so it cannot tell whether the hypothesis also asks u
    to avoid s and t, as ``tfc_constructor`` asks of its seed; the row
    records that too (``seed_avoids_st``) and leaves the reading open.
    """

    word: Word
    shortened: Word
    seed_torically_reduced: bool
    seed_avoids_st: bool
    shortened_tfc: bool
    shortened_cfc: bool
    note: str = "evidence only, not a theorem"

    @property
    def applicable(self) -> bool:
        return self.seed_torically_reduced

    @property
    def confirmed(self) -> bool | None:
        return self.shortened_tfc if self.applicable else None


def conjecture_probe(g: CoxeterGraph, w: Word) -> ConjectureProbe:
    """Split w = <s,t>_{m(s,t)} u, require w faux CFC, and classify the
    shortened word <s,t>_{m-2} u."""
    word = g.check_word(w)
    if len(word) < 3 or word[0] == word[1]:
        raise ShapeMismatch("word does not start with an alternating braid factor")
    s, t = word[0], word[1]
    m = g.m(s, t)
    if m == INF or m < 3:
        raise ShapeMismatch(f"m({g.name(s)}, {g.name(t)}) = {m} admits no finite braid prefix")
    m = int(m)
    if word[:m] != alternating(s, t, m):
        raise ShapeMismatch(f"word does not start with the full factor <{g.name(s)},{g.name(t)}>_{m}")
    seed = word[m:]
    if not is_faux_cfc(g, word):
        raise ShapeMismatch(f"{g.format(w)} is not faux CFC")
    shortened = alternating(s, t, m - 2) + seed
    return ConjectureProbe(
        word=word,
        shortened=shortened,
        seed_torically_reduced=is_torically_reduced(g, seed),
        seed_avoids_st=s not in seed and t not in seed,
        shortened_tfc=is_tfc(g, shortened),
        shortened_cfc=is_reduced(g, shortened) and is_cfc(g, shortened),
    )
