"""Independent references for the benchmark's input generator and checks.

Group questions go through the generator matrices of the exact reflection
representation in ``tests/oracles.py`` (imported read-only), over its
quadratic integer rings.  An element w is held as the vector w(rho), and
``l(sw) < l(w)`` exactly when its coordinate at s is negative, so left
descents, reducedness, shortlex normal forms and |R(w)| all come from
exact signs, with no Cayley ball and no braid moves.  Nothing here calls
the braid search, heaps or toric code of ``coxheaps``; graph-level facts
come from plain combinatorics.
"""

from __future__ import annotations

import functools
import math

import oracles


class Reference:
    """Exact element arithmetic for one Coxeter graph.

    An element w is held as w(rho) in the contragredient representation,
    with rho = 1 on every simple root.  rho lies inside the fundamental
    chamber, so w(rho) determines w, and its coordinate at s is negative
    exactly when s is a left descent of w.
    """

    def __init__(self, graph):
        self.graph = graph
        self.rank = graph.rank
        base = oracles.GroupOracle(graph, 0)
        self.ring = base.ring
        # row s of generator s: -1 at s, 2cos(pi/m(s,t)) elsewhere
        self.gen_rows = [base.gens[s][s] for s in range(self.rank)]
        self.rho = tuple((1, 0) for _ in range(self.rank))
        self._disc = self.ring.c1 * self.ring.c1 + 4 * self.ring.c0

    def _negative(self, x) -> bool:
        """Exact sign of a + b*xi, with xi the positive root of
        xi^2 = c0 + c1*xi: 2(a + b*xi) = (2a + b*c1) + b*sqrt(D), and D is
        0 or not a square for every ring the oracle builds."""
        a, b = x
        p, q = 2 * a + b * self.ring.c1, b
        if q == 0 or self._disc == 0:
            return p < 0
        if p <= 0 and q <= 0:
            return True
        if p >= 0 and q >= 0:
            return False
        if p > 0:  # q < 0
            return p * p < q * q * self._disc
        return q * q * self._disc < p * p

    def descent(self, v, s: int) -> bool:
        """s is a left descent of the element held as v."""
        return self._negative(v[s])

    def act(self, s: int, v):
        """From w(rho) to (s w)(rho)."""
        add, mul = self.ring.add, self.ring.mul
        vs = v[s]
        row = self.gen_rows[s]
        return tuple((-vs[0], -vs[1]) if t == s else add(v[t], mul(vs, row[t])) for t in range(self.rank))

    def element(self, word):
        v = self.rho
        for s in reversed(word):
            v = self.act(s, v)
        return v

    def is_reduced(self, word) -> bool:
        """Reading from the right, no letter may be a left descent of the
        suffix it is put in front of."""
        v = self.rho
        for s in reversed(word):
            if self.descent(v, s):
                return False
            v = self.act(s, v)
        return True

    def shortlex_of(self, v) -> tuple[int, ...]:
        """Shortlex-least reduced word: strip the least left descent."""
        out = []
        while True:
            s = next((s for s in range(self.rank) if self.descent(v, s)), None)
            if s is None:
                return tuple(out)
            out.append(s)
            v = self.act(s, v)

    def shortlex(self, word) -> tuple[int, ...]:
        return self.shortlex_of(self.element(word))

    def count_reduced_words(self, word) -> int:
        """|R(w)| by N(w) = sum over left descents s of N(s w), memoized."""
        memo = {self.rho: 1}

        def count(v):
            if v not in memo:
                memo[v] = sum(count(self.act(s, v)) for s in range(self.rank) if self.descent(v, s))
            return memo[v]

        return count(self.element(word))

    def random_reduced(self, rng, length: int, end=()) -> tuple[int, ...]:
        """Put uniformly chosen left ascents in front of the reduced word
        ``end`` up to ``length`` letters, stopping early at the top of a
        finite group."""
        word = list(reversed(end))
        v = self.element(end)
        while len(word) < length:
            ascents = [s for s in range(self.rank) if not self.descent(v, s)]
            if not ascents:
                break
            s = rng.choice(ascents)
            word.append(s)
            v = self.act(s, v)
        return tuple(reversed(word))

    def elements(self) -> list[tuple[int, ...]]:
        """Shortlex words of every element, shortest first (finite groups
        only); the last one is the longest element."""
        seen = {self.rho}
        frontier = [self.rho]
        while frontier:
            nxt = []
            for v in frontier:
                for s in range(self.rank):
                    if not self.descent(v, s):
                        up = self.act(s, v)
                        if up not in seen:
                            seen.add(up)
                            nxt.append(up)
            frontier = nxt
        return sorted((self.shortlex_of(v) for v in seen), key=lambda w: (len(w), w))


# -- word combinatorics that need only the bond table ------------------


@functools.lru_cache(maxsize=None)
def commuting(graph) -> tuple[tuple[bool, ...], ...]:
    """commuting(graph)[s][t]: s != t and m(s, t) = 2."""
    n = graph.rank
    return tuple(tuple(s != t and graph.m(s, t) == 2 for t in range(n)) for s in range(n))


def commutes(graph, s: int, t: int) -> bool:
    return commuting(graph)[s][t]


def commutation_class(graph, word) -> frozenset:
    """Closure of a word under swaps of adjacent commuting letters."""
    comm = commuting(graph)
    word = tuple(word)
    seen = {word}
    stack = [word]
    while stack:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            if comm[cur[i]][cur[i + 1]]:
                nxt = cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return frozenset(seen)


@functools.lru_cache(maxsize=None)
def braid_relations(graph) -> dict:
    """(s, t) -> (s t s ..., t s t ...), both of length m(s, t), for every
    finite bond m(s, t) between distinct generators."""
    relations = {}
    for s in range(graph.rank):
        for t in range(graph.rank):
            m = graph.m(s, t)
            if s != t and m != math.inf:
                relations[s, t] = (tuple((s, t)[k % 2] for k in range(int(m))),
                                   tuple((t, s)[k % 2] for k in range(int(m))))
    return relations


def braid_orbit_size(graph, word, cap: int) -> int:
    """Words reachable from ``word`` by braid moves, counted up to ``cap``.

    Used only to pick inputs of a typical cost: the search of
    ``normal_form`` grows with this orbit.
    """
    relations = braid_relations(graph)
    word = tuple(word)
    seen = {word}
    stack = [word]
    while stack and len(seen) < cap:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            relation = relations.get(cur[i:i + 2])
            if relation is None:
                continue
            side, other = relation
            if cur[i:i + len(side)] == side:
                nxt = cur[:i] + other + cur[i + len(side):]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return min(len(seen), cap)


def least_rotation(word) -> tuple[int, ...]:
    """The least rotation; it starts with the least letter."""
    word = tuple(word)
    if not word:
        return word
    first = min(word)
    return min(word[k:] + word[:k] for k, s in enumerate(word) if s == first)


def cyclic_commutation_class(graph, word) -> frozenset:
    """Cyclic words (least rotations) reachable by swapping cyclically
    adjacent commuting letters, the last and first letters included."""
    comm = commuting(graph)
    start = least_rotation(word)
    seen = {start}
    stack = [start]
    n = len(start)
    while stack:
        cur = stack.pop()
        for i in range(n if n > 2 else n - 1):
            j = (i + 1) % n
            if comm[cur[i]][cur[j]]:
                swapped = list(cur)
                swapped[i], swapped[j] = cur[j], cur[i]
                nxt = least_rotation(swapped)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return frozenset(seen)


def heap_order(graph, word) -> set:
    """Strict order of the heap: transitive closure of i -> j for i < j
    with equal or non-commuting letters."""
    n = len(word)
    above = [set() for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if word[i] == word[j] or not commutes(graph, word[i], word[j]):
                above[i].add(j)
                above[i] |= above[j]
    return {(i, j) for i in range(n) for j in above[i]}


def covers(order: set) -> set:
    """Pairs of the order with nothing strictly between them."""
    return {(i, j) for i, j in order if not any((i, k) in order and (k, j) in order for k in range(i + 1, j))}


def word_graph_edges(graph, word) -> set:
    """Pairs i < j of positions with equal or non-commuting letters."""
    n = len(word)
    return {
        (i, j) for i in range(n) for j in range(i + 1, n)
        if word[i] == word[j] or not commutes(graph, word[i], word[j])
    }


def toric_class(directed) -> set:
    """Orientations (sets of directed pairs) reachable by turning a source
    into a sink or a sink into a source."""
    start = frozenset(directed)
    neighbours: dict = {}
    for a, b in start:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for v, others in neighbours.items():
            out = [(v, x) for x in others]
            into = [(x, v) for x in others]
            if all(e in cur for e in out):
                nxt = cur.difference(out).union(into)
            elif all(e in cur for e in into):
                nxt = cur.difference(into).union(out)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# -- graph combinatorics ---------------------------------------------------


def acyclic_orientation_counts(n: int, edges) -> tuple[int, int]:
    """(|Acyc(G)|, acyclic orientations whose only source is vertex 0).

    An orientation whose sources include the independent set I is an
    acyclic orientation of G - I with I on top, so Moebius inversion over
    source sets gives a(V) = sum over nonempty independent I of
    (-1)^(|I|+1) a(V - I), and the unique-source count is the same sum
    restricted to the I that contain vertex 0.  For a connected graph the
    second number is T_G(1, 0), the number of toric classes.
    """
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    memo = {0: 1}

    def independent_subsets(verts: int):
        sub = verts
        while sub:
            if all(not (adj[v] & sub) for v in _bits(sub)):
                yield sub, (1 if bin(sub).count("1") % 2 else -1)
            sub = (sub - 1) & verts

    def count(verts: int) -> int:
        if verts not in memo:
            memo[verts] = sum(sign * count(verts & ~sub) for sub, sign in independent_subsets(verts))
        return memo[verts]

    full = (1 << n) - 1
    unique = sum(sign * count(full & ~sub) for sub, sign in independent_subsets(full) if sub & 1)
    return count(full), unique


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
