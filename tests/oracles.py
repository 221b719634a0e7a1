"""Independent oracles for the test suite.

The main library decides the word problem from root sequences (``roots``),
lists R(w) up the weak-order interval [e, w]_R (``words.reduced_words``),
counts it and reads the least word of each of its commutativity classes
on the same walk (``cyclic._interval_census``,
``words.commutativity_classes``), and lists R_tor by its own braid-move
search (``cyclic._rtor_listing``).  The oracles here go through the
standard geometric representation instead: each generator acts on the
root-coordinate space by an exact matrix over a quadratic integer ring
(Z, Z[sqrt2], Z[phi], ...), which is faithful, so matrix equality
decides element equality and a Cayley-ball BFS gives true lengths.
Nothing in this module calls the braid machinery, except the listing
oracles at the end.  Those decide FC, CFC and toric questions by listing
and search, against the closed criteria of the library; the searches
follow braid moves of their own (``naive_braid_moves``), and
``braid_closure`` is the Tits search route for R(w), reducedness and
normal forms.  ``listing_class_count`` splits it into commutativity
classes by the same search, so no class count here goes through the
library's walk.  ``greedy_normal_form`` is the earlier normal-form route
of ``roots``, which reflects the later betas of the word where the
library reads its inverse's right descents.  ``down_sets`` is the heap
route for the word count of an FC element: the linear extensions of its
heap, counted over down-sets.  ``pairs_toric_transitive_closure`` is the
earlier set-of-pairs route of the toric closure, and ``flip_bfs_parents``
the toric-class BFS through the public flips.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, combinations, permutations

from coxheaps import cyclic as CY
from coxheaps import heaps as H
from coxheaps import roots, toric
from coxheaps import words as W
from coxheaps.coxgraph import INF, CoxeterGraph, Word
from coxheaps.errors import NotAcyclic, NotToricallyReduced, OrbitCapExceeded
from coxheaps.orders import _bits

# ring element: (a, b) meaning a + b*xi with xi^2 = C0 + C1*xi


class QuadRing:
    """Z[xi] with xi^2 = c0 + c1*xi; c1 = 0, c0 = 0 degenerates to Z."""

    def __init__(self, c0: int, c1: int):
        self.c0 = c0
        self.c1 = c1

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + bd * self.c0, a * d + b * c + bd * self.c1)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])


_TWO_COS = {2: "zero", 3: "one", 4: "sqrt2", 5: "phi", 6: "sqrt3", INF: "two"}
_RINGS = {"sqrt2": (2, 0), "phi": (1, 1), "sqrt3": (3, 0)}


def _ring_for(graph: CoxeterGraph) -> QuadRing:
    irrational = set()
    for _, _, m in graph.bonds():
        kind = _TWO_COS.get(m)
        if kind is None:
            raise ValueError(f"oracle does not support bond strength {m}")
        if kind in _RINGS:
            irrational.add(kind)
    if len(irrational) > 1:
        raise ValueError(f"oracle cannot mix {sorted(irrational)} in one ring")
    if irrational:
        return QuadRing(*_RINGS[irrational.pop()])
    return QuadRing(0, 0)


def _two_cos(ring: QuadRing, m) -> tuple[int, int]:
    kind = _TWO_COS[m]
    if kind == "zero":
        return (0, 0)
    if kind == "one":
        return (1, 0)
    if kind == "two":
        return (2, 0)
    return (0, 1)


class GroupOracle:
    """Exact reflection representation plus a Cayley ball of radius max_length."""

    def __init__(self, graph: CoxeterGraph, max_length: int):
        self.graph = graph
        self.max_length = max_length
        self.ring = _ring_for(graph)
        n = graph.rank
        self.gens = []
        for i in range(n):
            rows = []
            for k in range(n):
                row = []
                for j in range(n):
                    if k != i:
                        row.append((1, 0) if k == j else (0, 0))
                    elif j == i:
                        row.append((-1, 0))
                    else:
                        row.append(_two_cos(self.ring, graph.m(i, j)))
                rows.append(tuple(row))
            self.gens.append(tuple(rows))
        self.identity = tuple(
            tuple((1, 0) if i == j else (0, 0) for j in range(n)) for i in range(n)
        )
        self.dist: dict[tuple, int] = {self.identity: 0}
        self.complete = True
        frontier = [self.identity]
        for radius in range(1, max_length + 1):
            nxt = []
            for mat in frontier:
                for gen in self.gens:
                    prod = self._mul(mat, gen)
                    if prod not in self.dist:
                        self.dist[prod] = radius
                        nxt.append(prod)
            frontier = nxt
            if not frontier:
                break
        else:
            self.complete = not frontier

    def _mul(self, x, y):
        ring = self.ring
        n = len(x)
        out = []
        for i in range(n):
            row = []
            xi = x[i]
            for j in range(n):
                acc = (0, 0)
                for k in range(n):
                    acc = ring.add(acc, ring.mul(xi[k], y[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    @property
    def order(self) -> int:
        """Group order; only meaningful when the ball closed (finite group)."""
        if not self.complete:
            raise ValueError("ball did not close; group order unknown")
        return len(self.dist)

    def element(self, w: Word):
        mat = self.identity
        for s in w:
            mat = self._mul(mat, self.gens[s])
        return mat

    def length(self, w: Word) -> int:
        """True length; valid for any word of length <= max_length."""
        if len(w) > self.max_length and not self.complete:
            raise ValueError("word longer than the enumerated ball")
        return self.dist[self.element(w)]

    def is_reduced(self, w: Word) -> bool:
        return self.length(w) == len(w)

    def same_element(self, u: Word, v: Word) -> bool:
        return self.element(u) == self.element(v)

    def all_reduced_words(self, max_len: int):
        """Every reduced word of length <= max_len, by DFS with pruning
        (every prefix of a reduced word is reduced)."""
        if max_len > self.max_length and not self.complete:
            raise ValueError("ball radius too small for that length")
        out = []
        n = self.graph.rank

        def rec(word: tuple, mat, depth: int):
            out.append(word)
            if depth == max_len:
                return
            for s in range(n):
                nxt = self._mul(mat, self.gens[s])
                if self.dist.get(nxt, -1) == depth + 1:
                    rec(word + (s,), nxt, depth + 1)

        rec((), self.identity, 0)
        return out

    def reduced_word(self, mat) -> Word:
        """One reduced word for an enumerated element, by greedy descent."""
        out = []
        cur = mat
        while self.dist[cur] > 0:
            for s, gen in enumerate(self.gens):
                nxt = self._mul(cur, gen)
                if self.dist.get(nxt, 10 ** 9) == self.dist[cur] - 1:
                    out.append(s)
                    cur = nxt
                    break
            else:  # pragma: no cover
                raise AssertionError("descent failed")
        return tuple(reversed(out))

    def conjugacy_class(self, w: Word):
        """Closure of the element under conjugation by generators (finite groups)."""
        if not self.complete:
            raise ValueError("conjugacy enumeration needs a finite group")
        start = self.element(w)
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for gen in self.gens:
                conj = self._mul(self._mul(gen, cur), gen)
                if conj not in seen:
                    seen.add(conj)
                    queue.append(conj)
        return frozenset(seen)


def strongly_cyclically_reduced(oracle: GroupOracle, w: Word) -> bool:
    """Minimal length within the conjugacy class (finite groups only)."""
    cls = oracle.conjugacy_class(w)
    return oracle.length(w) == min(oracle.dist[m] for m in cls)


# -- brute-force structural oracles ------------------------------------


def label_preserving_bijections(w1: Word, w2: Word):
    """All bijections of positions sending each letter's occurrences of w1
    onto the same letter's occurrences of w2."""
    if len(w1) != len(w2) or sorted(w1) != sorted(w2):
        return
    slots: dict[int, list[int]] = {}
    for j, s in enumerate(w2):
        slots.setdefault(s, []).append(j)
    letters = sorted(slots)
    positions = {s: [i for i, x in enumerate(w1) if x == s] for s in letters}

    def rec(idx: int, sigma: dict):
        if idx == len(letters):
            yield tuple(sigma[i] for i in range(len(w1)))
            return
        s = letters[idx]
        for perm in permutations(slots[s]):
            for i, j in zip(positions[s], perm):
                sigma[i] = j
            yield from rec(idx + 1, sigma)

    yield from rec(0, {})


def brute_heaps_isomorphic(h1, h2) -> bool:
    """Heap isomorphism by exhaustive label-preserving bijection search."""
    m = h1.size
    for sigma in label_preserving_bijections(h1.word, h2.word):
        if all(
            h1.less(i, j) == h2.less(sigma[i], sigma[j])
            for i in range(m)
            for j in range(m)
            if i != j
        ):
            return True
    return False


def transport(o, sigma):
    """Push an orientation through a vertex bijection; None if the image
    digraph has a cycle (the map is then not a poset morphism)."""
    pairs = [(sigma[a], sigma[b]) for a, b in o.directed_edges()]
    target = toric.Graph(o.graph.n, tuple(sorted((min(a, b), max(a, b)) for a, b in pairs)))
    try:
        return toric.orientation_from_pairs(target, pairs)
    except NotAcyclic:
        return None


def brute_toric_heaps_isomorphic(t1, t2) -> bool:
    """Toric heap isomorphism over every label-preserving bijection, by
    membership in t2's listed toric class."""
    if t1.graph != t2.graph or t1.size != t2.size:
        return False
    members2 = t2.poset.members
    for sigma in label_preserving_bijections(t1.word, t2.word):
        carried = transport(t1.poset.representative, sigma)
        if carried is not None and carried.graph == t2.poset.graph and carried in members2:
            return True
    return False


def brute_total_toric_extensions(t) -> frozenset[tuple[int, ...]]:
    """Direct (n-1)!-scan definition of total toric extensions.

    For each cyclic ordering, accept iff one of its n linearizations, read
    as an orientation of K_V, restricts on G to a class member.  Quadratic
    in the factorial; meant for cross-validation at small n.
    """
    n = t.graph.n
    if n == 0:
        return frozenset({()})  # the empty cyclic ordering extends the empty poset
    members = {o.forward for o in t.members}
    edge_index = {e: k for k, e in enumerate(t.graph.edges)}
    out = set()
    for tail in permutations(range(1, n)):
        cyc = (0,) + tail
        for r in range(n):
            lin = cyc[r:] + cyc[:r]
            pos = {v: i for i, v in enumerate(lin)}
            mask = 0
            for (a, b), k in edge_index.items():
                if pos[a] < pos[b]:
                    mask |= 1 << k
            if mask in members:
                out.add(cyc)
                break
    return frozenset(out)


def subset_tutte(graph, x: int, y: int) -> int:
    """T_G(x, y) by the subset expansion: the sum over edge sets A of
    (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A)), where the rank r(A) is the size of
    a spanning forest of (V, A)."""

    def rank(edges) -> int:
        comp = list(range(graph.n))
        for a, b in edges:
            ca, cb = comp[a], comp[b]
            comp = [ca if c == cb else c for c in comp]
        return graph.n - len(set(comp))

    full = rank(graph.edges)
    total = 0
    for size in range(len(graph.edges) + 1):
        for subset in combinations(graph.edges, size):
            r = rank(subset)
            total += (x - 1) ** (full - r) * (y - 1) ** (size - r)
    return total


def walk_cycle_imbalance(o) -> int:
    """Imbalance of an orientation of a cycle graph by walking the cycle from
    vertex 0 towards its lower neighbour: (#edges run along) - (#against)."""
    g = o.graph
    walk, prev = [0], None
    while True:
        cur = walk[-1]
        nbrs = [b if a == cur else a for a, b in g.edges if cur in (a, b)]
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        if nxt == 0:
            break
        prev = cur
        walk.append(nxt)
    directed = set(o.directed_edges())
    return sum(1 if (a, b) in directed else -1 for a, b in zip(walk, walk[1:] + walk[:1]))


def filter_acyclic_orientations(graph):
    """Acyc(graph) by testing every one of the 2^E direction masks, in
    increasing order, with the checked public constructor."""
    out = []
    for mask in range(1 << len(graph.edges)):
        try:
            out.append(toric.AcyclicOrientation(graph, mask))
        except NotAcyclic:
            pass
    return tuple(out)


def bfs_toric_classes(graph):
    """Partition of Acyc(graph) by flip search from each least unclassified
    orientation, in order of least member."""
    orients = {o.forward: o for o in filter_acyclic_orientations(graph)}
    remaining = set(orients)
    classes = []
    while remaining:
        masks = toric._class_masks(graph, min(remaining), len(orients) + 1).keys()
        assert masks <= remaining, "toric class escaped Acyc(G)"
        classes.append(frozenset(orients[m] for m in masks))
        remaining -= masks
    return tuple(classes)


def flip_bfs_parents(o) -> dict[int, int]:
    """The toric class of o by a plain BFS through ``flip_source`` and
    ``flip_sink``, trying vertices in increasing order: each member's mask
    maps to the vertex flipped to reach it first (-1 for o)."""
    seen = {o.forward: -1}
    queue = deque([o])
    while queue:
        cur = queue.popleft()
        for v in range(cur.graph.n):
            nxt = toric.flip_source(cur, v) if cur.is_source(v) else toric.flip_sink(cur, v) if cur.is_sink(v) else None
            if nxt is not None and nxt.forward not in seen:
                seen[nxt.forward] = v
                queue.append(nxt)
    return seen


def pairs_toric_transitive_closure(t):
    """The toric transitive closure as a set of pairs: for each arc a -> b,
    every comparable pair inside the interval [a, b], joined to the edges."""
    g = t.graph
    arcs = t.representative.directed_edges()
    down, up = toric._reach(toric._successors(g.n, arcs))
    pairs = set(g.edges)
    for a, b in arcs:
        inside = down[a] & up[b]
        for v in _bits(inside):
            pairs.update((v, w) if v < w else (w, v) for w in _bits(inside & down[v] & ~(1 << v)))
    return toric.Graph(g.n, tuple(sorted(pairs)))


def search_is_toric_extension(t_big, t) -> bool:
    """Whether some member of the larger toric class, listed by flip search,
    restricts on the smaller graph to a member of the smaller class."""
    return any(toric._restrict(o, t.graph) in t for o in t_big.members)


def naive_braid_moves(g: CoxeterGraph, w: Word, short_only: bool = False):
    """Each word one braid move from w, by position: wherever the m letters
    from an adjacent pair s t, m = m(s, t), spell <s,t>_m letter by letter,
    they become <t,s>_m.  Only m = 2 with ``short_only``."""
    for i in range(len(w) - 1):
        s, t = w[i], w[i + 1]
        m = g.m(s, t)
        if s == t or i + m > len(w) or (short_only and m != 2):
            continue
        if all(w[i + k] == (s, t)[k % 2] for k in range(m)):
            yield w[:i] + tuple((t, s)[k % 2] for k in range(m)) + w[i + m :]


def rtor_search(g: CoxeterGraph, w: Word) -> tuple[dict[Word, Word | None], Word | None]:
    """Breadth-first search of the closure of the word w under rotations and
    braid moves, each word's neighbours taken in the order rotations
    k = 1 ... n - 1, then braid moves by position.  Returns each word found
    with the word it was found from, and the first word found with two
    equal adjacent letters, where the search stops, or None."""
    start = g.check_word(w)
    parent: dict[Word, Word | None] = {start: None}
    queue = [start]
    for u in queue:
        if W.has_adjacent_repeat(u):
            return parent, u
        for v in chain((u[k:] + u[:k] for k in range(1, len(u))), naive_braid_moves(g, u)):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent, None


def rtor_closure(g: CoxeterGraph, w: Word) -> frozenset[Word] | None:
    """R_tor(w) as the closure of the word w under rotations and braid
    moves (``rtor_search``); None once the closure meets two equal adjacent
    letters, as w is then not torically reduced (Tits)."""
    parent, repeat = rtor_search(g, w)
    return frozenset(parent) if repeat is None else None


def witness_chain(g: CoxeterGraph, w: Word) -> tuple[Word, ...] | None:
    """The search path of ``rtor_search`` from w to its first word with two
    equal adjacent letters, or None when there is none."""
    parent, last = rtor_search(g, w)
    out = []
    while last is not None:
        out.append(last)
        last = parent[last]
    return tuple(reversed(out)) or None


def is_move_chain(g: CoxeterGraph, w: Word, chain) -> bool:
    """Whether chain starts at w, ends in a word with two equal adjacent
    letters, and each word is one rotation or one ``naive_braid_moves``
    move from the one before."""
    if not chain or chain[0] != w or not W.has_adjacent_repeat(chain[-1]):
        return False
    return all(
        nxt in {cur[k:] + cur[:k] for k in range(1, len(cur))} | set(naive_braid_moves(g, cur))
        for cur, nxt in zip(chain, chain[1:])
    )


def listing_elements(g: CoxeterGraph, w: Word) -> frozenset[W.NormalForm]:
    """[w] as the normal forms of the words of the listed R_tor(w); the
    listing raises NotToricallyReduced when it meets a cyclic repeat."""
    return frozenset(W.normal_form(g, u) for u in CY.rtor_words(g, w))


def listing_class_count(g: CoxeterGraph, w: Word) -> int:
    """The number of commutativity classes of R(w), w reduced: R(w) listed
    by ``braid_closure`` and split by ``commutativity_class``, the class of
    its least word left, repeatedly."""
    left, classes = set(braid_closure(g, w)), 0
    while left:
        left -= commutativity_class(g, min(left))
        classes += 1
    return classes


def listing_is_fc(g: CoxeterGraph, w: Word) -> bool:
    """FC as "R(w) lists as one commutativity class"."""
    return listing_class_count(g, w) == 1


def braid_closure(g: CoxeterGraph, w: Word, short_only: bool = False, cap: int = W.DEFAULT_ORBIT_CAP) -> frozenset:
    """Closure of {w} under single braid moves, only short ones with
    ``short_only``, by breadth-first search over ``naive_braid_moves``.
    For a reduced word it is R(w) (Matsumoto), and its commutativity class
    with ``short_only``."""
    start = g.check_word(w)
    found, queue = {start}, [start]
    for u in queue:
        for v in naive_braid_moves(g, u, short_only):
            if v not in found:
                if len(found) >= cap:
                    what = "commutativity class" if short_only else "braid closure"
                    raise OrbitCapExceeded(f"{what} of {g.format(w)} exceeds cap {cap}")
                found.add(v)
                queue.append(v)
    return frozenset(found)


def commutativity_class(g: CoxeterGraph, w: Word, cap: int = W.DEFAULT_ORBIT_CAP) -> frozenset:
    """Closure of {w} under short braid moves, by breadth-first search."""
    return braid_closure(g, w, True, cap)


def _reflections(g: CoxeterGraph):
    """s(v) for a root v in the flat coordinates of ``roots``: only
    coordinate s changes, to -v_s + sum_t c(s, t) v_t.  c(s, t) is read off
    column t of the element s, alpha_t + c(s, t) alpha_s, and multiplied
    in Z[x]/psi_M by the terms of ``roots._scale_terms``."""
    rs = g.root_system()
    n = g.rank
    d = len(rs.identity[0]) // n
    M = math.lcm(*(m for _, _, m in g.bonds() if m not in (3, INF)))
    psi = roots._min_poly(M) if M > 1 else [-1, 1]
    table = []
    for s in range(n):
        cols = list(rs.identity)
        rs.times(cols, s)
        table.append([(s * d + a, t * d + b, f) for t in range(n) if t != s
                      for a, b, f in roots._scale_terms(list(cols[t][s * d : s * d + d]), psi)])

    def reflect(s: int, v: tuple) -> tuple:
        out = list(v)
        for k in range(s * d, s * d + d):
            out[k] = -v[k]
        for k, src, f in table[s]:
            out[k] += f * v[src]
        return tuple(out)

    return reflect


def greedy_normal_form(g: CoxeterGraph, w: Word) -> Word:
    """The shortlex normal form of w by the greedy that reflects the later
    betas.  Letters i and j are deleted at the first beta_j = -beta_i until
    the word is reduced; then the least left descent s, the s with alpha_s
    among the betas, is emitted, its beta_i deleted and s applied to the
    later betas, which gives the betas of s times the element."""
    rs, reflect = g.root_system(), _reflections(g)
    simple = {col: t for t, col in enumerate(rs.identity)}
    letters = list(g.check_word(w))
    states = [rs.identity]  # states[j]: columns of the element of letters[:j]
    betas: list[tuple] = []
    negated: dict[tuple, int] = {}  # -beta_i -> i
    j = 0
    while j < len(letters):
        s, cols = letters[j], states[j]
        i = negated.get(cols[s])
        if i is not None:
            del letters[j], letters[i]
            del states[i + 1 :], betas[i:]
            negated = {b: k for b, k in negated.items() if k < i}
            j = i
            continue
        betas.append(cols[s])
        cols = list(cols)
        rs.times(cols, s)
        negated[cols[s]] = j
        states.append(tuple(cols))
        j += 1
    out = []
    while betas:
        s, i = min((simple[b], i) for i, b in enumerate(betas) if b in simple)
        out.append(s)
        del betas[i]
        betas[i:] = [reflect(s, b) for b in betas[i:]]
    return tuple(out)


def fc_orbit(g: CoxeterGraph, w: Word, cap: int = W.DEFAULT_ORBIT_CAP) -> tuple[frozenset, bool]:
    """R(w) and True when the reduced word w is FC; otherwise the
    commutativity class of w and False.  When no long move leaves the
    class, the class is closed under every braid move and so is R(w)."""
    cls = commutativity_class(g, w, cap)
    return cls, all(v in cls for u in cls for v in naive_braid_moves(g, u))


def listing_rotation_walk(g: CoxeterGraph, w: Word, rw, fc: bool, cap: int = W.DEFAULT_ORBIT_CAP):
    """The rotations of R(w), w's first, each new reduced one settling the FC
    verdict of its whole braid orbit by ``fc_orbit`` while CFC is open.
    Returns (the first rotation that is not reduced, or None; w is CFC)."""
    known = set(rw)
    cfc, over_cap = fc, None
    for u in (w, *rw):
        for k in range(1, len(u)):
            r = u[k:] + u[:k]
            if r in known:
                continue
            if not W.is_reduced(g, r):
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


def listing_is_cfc(g: CoxeterGraph, w: Word) -> bool:
    """CFC by listing R(w) and one braid orbit per new rotation."""
    rw, fc = fc_orbit(g, w)
    return fc and listing_rotation_walk(g, w, rw, fc)[1]


def down_sets(h: H.Heap) -> dict[int, int]:
    """Each down-set of the heap, as a position bitmask, mapped to its
    number of linear orders, smaller ones first; the whole heap comes last
    with |L(h)|, which is |R(w)| for FC w, as equal labels are comparable."""
    below = h.below
    count, order = {0: 1}, [0]
    for d in order:  # breadth first, so count[d] is complete when d is met
        for i in range(h.size):
            if not d >> i & 1 and not below[i] & ~d:
                e = d | 1 << i
                if e not in count:
                    order.append(e)
                count[e] = count.get(e, 0) + count[d]
    return count


def down_set_is_cfc(g: CoxeterGraph, w: Word) -> bool:
    """CFC of the element of the reduced word w by its heap's down-sets.
    For FC w, R(w) is the linear extensions of the heap, and their
    rotations are w with a down-set moved to the end, up to commutation;
    each must be reduced and FC.  Lists down-sets, not words, so it reaches
    elements whose R(w) is far too large for ``listing_is_cfc``."""
    h = H.heap_of_word(g, w)
    if not H._is_fc(h):
        return False
    for d in down_sets(h):
        r = tuple(w[i] for i in sorted(range(len(w)), key=lambda i: d >> i & 1))
        if not (W.is_reduced(g, r) and H._is_fc(H.heap_of_word(g, r))):
            return False
    return True


def listing_is_cyclically_reduced_element(g: CoxeterGraph, w: Word) -> bool:
    """Cyclic reducedness of every word of R(w), listed by braid search."""
    return listing_rotation_walk(g, w, braid_closure(g, w), False)[0] is None


def listing_is_tfc(g: CoxeterGraph, w: Word, known: dict | None = None) -> bool:
    """TFC as "R_tor([w]) lists as one cyclic commutativity class"; the
    listing meets a cyclic repeat when w is not torically reduced.  A dict
    ``known`` caches the verdict of every cyclic word of a listed R_tor."""
    known = {} if known is None else known
    key = CY.cyclic_word(w)
    if key not in known:
        try:
            classes = CY.cyclic_decomposition(g, w)
        except NotToricallyReduced:
            known[key] = False
        else:
            known.update((cw, len(classes) == 1) for c in classes for cw in c)
    return known[key]
