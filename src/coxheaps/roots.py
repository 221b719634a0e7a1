"""Exact word problem from root sequences.

In the geometric representation a simple reflection s sends alpha_s to
-alpha_s and alpha_t to alpha_t + c(s, t) alpha_s for t != s, where
c(s, t) = 2 cos(pi / m(s, t)): 0 for commuting pairs and 2 for infinite
bonds.  For a word s_1 ... s_k put beta_j = s_1 ... s_{j-1}(alpha_{s_j}).
The word is reduced iff no beta_j equals -beta_i with i < j, and at the
first such pair deleting letters i and j leaves the same element (the
exchange condition).  The left descents of the element w of a reduced word
are the s whose simple root alpha_s is among its betas, and its right
descents the s with w(alpha_s) among the -beta_j (Björner–Brenti,
*Combinatorics of Coxeter Groups*, §1.3–1.4 and §4.2).  So one pass over
the word gives both, and the columns w(alpha_t), an exact and faithful
key for w (``descents``).

Coordinates lie in Z[x]/psi_M, where M is the lcm of the finite bonds
other than 3 (2 cos(pi / 3) = 1), x = 2 cos(pi / M) and psi_M is the
minimal polynomial of x, so every test is exact integer arithmetic.  A
vector is a flat int tuple holding the coefficient of x^a in coordinate t
at index t * d + a, d = deg psi_M.  When M = 1 the ring is Z.
"""

from __future__ import annotations

import math
from operator import add, neg
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .coxgraph import CoxeterGraph, Word


# Integer polynomials are coefficient lists, lowest degree first.


def _exact_quotient(p: list[int], q: list[int]) -> list[int]:
    """p / q for monic q dividing p."""
    p, n = list(p), len(q) - 1
    out = [0] * (len(p) - n)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = p[k + n]
        for i, b in enumerate(q):
            p[k + i] -= c * b
    return out


def _at_power(p: list[int], k: int) -> list[int]:
    """p(z^k)."""
    out = [0] * ((len(p) - 1) * k + 1)
    out[::k] = p
    return out


def _cyclotomic(n: int) -> list[int]:
    """Phi_n, from Phi_{rp}(z) = Phi_r(z^p) / Phi_r(z) for primes p not
    dividing r, and Phi_n(z) = Phi_rad(n)(z^(n / rad n))."""
    phi, rad, rest, p = [-1, 1], 1, n, 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi, rad = _exact_quotient(_at_power(phi, p), phi), rad * p
        p += 1
    return _at_power(phi, n // rad)


def _min_poly(M: int) -> list[int]:
    """psi_M for M >= 3.  Phi_{2M} is palindromic of degree 2d, and
    z^-d Phi_{2M}(z) = c_d + sum_k c_{d+k} V_k(z + 1/z), where
    V_k(z + 1/z) = z^k + z^-k, V_0 = 2, V_1 = y, V_k = y V_{k-1} - V_{k-2}."""
    cyc = _cyclotomic(2 * M)
    d = (len(cyc) - 1) // 2
    psi = [cyc[d]] + [0] * d
    v_prev, v = [2], [0, 1]
    for k in range(1, d + 1):
        for i, a in enumerate(v):
            psi[i] += cyc[d + k] * a
        v_prev, v = v, [a - b for a, b in zip([0] + v, v_prev + [0, 0])]
    return psi


def _times_x(v: list[int], psi: list[int]) -> list[int]:
    """x * v in Z[x]/psi (psi monic of degree len(v))."""
    top = v[-1]
    return [a - top * p for a, p in zip([0] + v[:-1], psi)]


def _scale_terms(c: list[int], psi: list[int]) -> list[tuple[int, int, int]]:
    """Multiplication by c as the nonzero (out power, in power, factor)."""
    terms, col = [], c
    for b in range(len(c)):
        terms += [(a, b, f) for a, f in enumerate(col) if f]
        col = _times_x(col, psi)
    return terms


class RootSystem:
    """The representation of one Coxeter graph, and the word problem in it.

    Built on first use by ``CoxeterGraph.root_system``.
    """

    __slots__ = ("identity", "negative", "simple", "_steps", "_reflect")

    def __init__(self, g: CoxeterGraph):
        n = g.rank
        M = math.lcm(*(m for _, _, m in g.bonds() if m not in (3, math.inf)))
        psi = _min_poly(M) if M > 1 else [-1, 1]  # M = 1: x = 1, the ring is Z
        d = len(psi) - 1
        # V_k(x) for k <= M, so that 2 cos(pi / m) = V_{M/m}(x) and 2 = V_0
        unit = [1] + [0] * (d - 1)
        cheb = [[2 * a for a in unit], _times_x(unit, psi)]
        while len(cheb) <= M:
            cheb.append([a - b for a, b in zip(_times_x(cheb[-1], psi), cheb[-2])])

        steps: list[list] = [[] for _ in range(n)]
        reflect: list[list] = [[] for _ in range(n)]
        for i, j, m in g.bonds():
            terms = _scale_terms(unit if m == 3 else cheb[0] if m == math.inf else cheb[M // m], psi)
            axpy = _axpy(terms, n, d)
            for s, t in ((i, j), (j, i)):
                steps[s].append((t, axpy))
                reflect[s] += [(s * d + a, t * d + b, f) for a, b, f in terms]
        columns = [tuple(int(k == t * d) for k in range(n * d)) for t in range(n)]
        self.identity = tuple(columns)
        self.negative = tuple(tuple(map(neg, col)) for col in columns)  # -alpha_t
        self.simple = {col: t for t, col in enumerate(columns)}
        self._steps = tuple(tuple(row) for row in steps)
        self._reflect = tuple((range(s * d, s * d + d), tuple(row)) for s, row in enumerate(reflect))

    def times(self, cols: list, s: int) -> None:
        """Right-multiply the element whose columns are cols by s, in place."""
        col = cols[s]
        for t, axpy in self._steps[s]:
            cols[t] = axpy(cols[t], col)
        cols[s] = tuple(map(neg, col))

    def reflect(self, s: int, v: tuple) -> tuple:
        """s(v): only coordinate s changes, to -v_s + sum_t c(s, t) v_t."""
        own, terms = self._reflect[s]
        out = list(v)
        for k in own:
            out[k] = -v[k]
        for k, src, f in terms:
            out[k] += f * v[src]
        return tuple(out)

    def is_reduced(self, word: Word) -> bool:
        """True iff no beta_j of the word equals -beta_i for some i < j."""
        return self._pass(word) is not None

    def _pass(self, word: Word) -> tuple[list, dict] | None:
        """The columns of the element of the word and the map -beta_j -> j,
        or None at the first beta_j = -beta_i (the word is not reduced)."""
        cols, negated = list(self.identity), {}
        for j, s in enumerate(word):
            if cols[s] in negated:
                return None
            self.times(cols, s)
            negated[cols[s]] = j
        return cols, negated

    def descents(self, word: Word) -> tuple[tuple, dict[int, int], set[int]] | None:
        """(key, left, right) for the element x of the word u, or None when
        u is not reduced.  The key is the tuple of columns x(alpha_t), exact
        and faithful.  left maps each left descent s to the j with beta_j =
        alpha_s, so that u with letter j deleted is a reduced word for s x;
        right holds the right descents, the s with x(alpha_s) among the
        -beta_j."""
        if (found := self._pass(word)) is None:
            return None
        cols, negated = found
        left = {s: negated[a] for s, a in enumerate(self.negative) if a in negated}
        return tuple(cols), left, {s for s, c in enumerate(cols) if c in negated}

    def rotation_pairs(self, word: Word) -> list[tuple[int, int]]:
        """The pairs (i, j) with w(beta_i) = -beta_j, w the element of the
        reduced word.  Rotation k, the window [k, k + n) of the doubled word,
        is reduced iff no pair has i < k <= j."""
        cols, negated = self._pass(word)
        pairs = []
        for i, s in enumerate(word):
            if cols[s] in negated:
                pairs.append((i, negated[cols[s]]))
            self.times(cols, s)
        return pairs

    def shortlex_form(self, word: Word) -> Word:
        """The shortlex-least reduced word for the element of word.

        First delete letters i and j at the first beta_j = -beta_i until the
        word is reduced.  Then emit the least left descent s, the s with
        alpha_s among the betas, delete its letter i and apply s to the later
        betas, which gives the betas of s times the element.
        """
        letters = list(word)
        states = [self.identity]  # states[j]: columns of the element of letters[:j]
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
            self.times(cols, s)
            negated[cols[s]] = j
            states.append(tuple(cols))
            j += 1

        out = []
        while betas:
            s, i = min((self.simple[b], i) for i, b in enumerate(betas) if b in self.simple)
            out.append(s)
            del betas[i]
            betas[i:] = [self.reflect(s, b) for b in betas[i:]]
        return tuple(out)


def _axpy(terms, n: int, d: int):
    """The map (u, v) -> u + c * v on vectors, for c given by its terms."""
    if all(a == b for a, b, _ in terms):  # c is an integer f
        f = terms[0][2]
        if f == 1:
            return lambda u, v: tuple(map(add, u, v))
        return lambda u, v: tuple([a + f * b for a, b in zip(u, v)])
    flat = tuple((t * d + a, t * d + b, f) for t in range(n) for a, b, f in terms)

    def axpy(u, v):
        out = list(u)
        for k, src, f in flat:
            out[k] += f * v[src]
        return tuple(out)

    return axpy
