"""Exact word problem from root sequences.

In the geometric representation a simple reflection s sends alpha_s to
-alpha_s and alpha_t to alpha_t + c(s, t) alpha_s for t != s, where
c(s, t) = 2 cos(pi / m(s, t)): 0 for commuting pairs and 2 for infinite
bonds.  For a word s_1 ... s_k put beta_j = s_1 ... s_{j-1}(alpha_{s_j}).
The word is reduced iff no beta_j equals -beta_i with i < j, and at the
first such pair deleting letters i and j leaves the same element (the
exchange condition), so a root pass stops there (``is_reduced``).  The
left descents of the element w of a reduced word are the s whose simple
root alpha_s is among its betas, and its right descents the s with
w(alpha_s) among the -beta_j (Björner–Brenti, *Combinatorics of Coxeter
Groups*, §1.3–1.4 and §4.2).  So one pass over the word gives both, and
the columns w(alpha_t), an exact and faithful key for w (``descents``).
Any word, reduced or not, folds into its element's columns and inversion
set, one root step a letter (``fold``), and the shortlex normal form of w
is read off the right descents of w^-1, folded from the reversed word
(``shortlex_form``).

Coordinates lie in Z[x]/psi_M, where M is the lcm of the finite bonds
other than 3 (2 cos(pi / 3) = 1), x = 2 cos(pi / M) and psi_M is the
minimal polynomial of x, so every test is exact integer arithmetic.  A
vector is a flat int tuple holding the coefficient of x^a in coordinate t
at index t * d + a, d = deg psi_M.  When M = 1 the ring is Z.
"""

from __future__ import annotations

import functools
import math
from operator import neg
from typing import TYPE_CHECKING, Callable

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

    __slots__ = ("identity", "negative", "commuting", "_times")

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
        for i, j, m in g.bonds():
            terms = _scale_terms(unit if m == 3 else cheb[0] if m == math.inf else cheb[M // m], psi)
            steps[i].append((j, terms))
            steps[j].append((i, terms))
        columns = [tuple(int(k == t * d) for k in range(n * d)) for t in range(n)]
        self.identity = tuple(columns)
        self.negative = tuple(tuple(map(neg, col)) for col in columns)  # -alpha_t
        # commuting[s]: the mask of the t with m(s, t) = 2, kept for the
        # least words of classes on the walk of [e, w]_R (``words._census_walk``)
        self.commuting = tuple(sum(1 << t for t, m in enumerate(row) if m == 2) for row in g.bond_table)
        self._times = tuple(
            _step_maker(n * d, d, tuple(tuple(terms) for _, terms in row))(s, *(t for t, _ in row))
            for s, row in enumerate(steps)
        )

    def times(self, cols: list, s: int) -> None:
        """Right-multiply the element whose columns are cols by s, in place."""
        self._times[s](cols)

    def is_reduced(self, word: Word) -> bool:
        """True iff no beta_j of the word equals -beta_i for some i < j."""
        return self._pass(word) is not None

    def _pass(self, word: Word) -> tuple[list, dict] | None:
        """The columns of the element of the word and the map -beta_j -> j,
        or None at the first beta_j = -beta_i (the word is not reduced)."""
        cols, negated, times = list(self.identity), {}, self._times
        for j, s in enumerate(word):
            if cols[s] in negated:
                return None
            times[s](cols)
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

    def rotation_pass(self, word: Word) -> tuple[dict, list[tuple[int, int]]] | None:
        """The map -beta_j -> j of ``_pass`` and the rotation pairs of the
        word, the (i, j) with w(beta_i) = -beta_j for w its element, or
        None if it is not reduced.  Rotation k, the window [k, k + n) of
        the doubled word, is reduced iff no pair has i < k <= j."""
        if (found := self._pass(word)) is None:
            return None
        cols, negated = found
        pairs, times = [], self._times
        for i, s in enumerate(word):
            if cols[s] in negated:
                pairs.append((i, negated[cols[s]]))
            times[s](cols)
        return negated, pairs

    def fold(self, cols: list, negated: set, word: Word) -> None:
        """Right-multiply y, held as its columns and the -beta of its
        inversion set N(y), by each letter s of word in place, one root step
        a letter: a right descent s has y(alpha_s) = -beta for a beta of
        N(y), which leaves, and any other s adds beta = y(alpha_s), held as
        -beta = y s(alpha_s) (Björner–Brenti ch. 4).  |N(y)| is the length
        of y."""
        times = self._times
        for s in word:
            c = cols[s]
            times[s](cols)
            if c in negated:
                negated.remove(c)
            else:
                negated.add(cols[s])

    def shortlex_form(self, word: Word) -> Word:
        """The shortlex-least reduced word for the element x of word.

        The word is folded reversed, as a word for y = x^-1 (``fold``).  The
        least left descent of x is the least right descent t of y, the least
        t with y(alpha_t) among the -beta.  It is emitted, y(alpha_t) is
        dropped from them and y becomes y t, until y is the identity.
        """
        cols, negated = list(self.identity), set()
        self.fold(cols, negated, reversed(word))
        out, times, gens = [], self._times, range(len(cols))
        while negated:
            for t in gens:
                if cols[t] in negated:
                    break
            negated.remove(cols[t])
            times[t](cols)
            out.append(t)
        return tuple(out)


@functools.cache
def _step_maker(size: int, d: int, bonds: tuple) -> Callable:
    """make(s, t_0, ..., t_k-1) -> the step cols -> cols * s, in place, for
    an s with k bonds whose c(s, t_i) have the given terms: column t_i +=
    c(s, t_i) * column s, then column s negated.  The step is compiled to
    one tuple display per changed column, as it is the inner loop of every
    root pass and walk and a display makes no call per term; each shape is
    compiled once, and generators and graphs of one shape share it."""
    ts = [f"t{i}" for i in range(len(bonds))]
    lines = [f"def make({', '.join(['s', *ts])}):", "    def times(cols):", "        v = cols[s]"]
    for t, terms in zip(ts, bonds):
        coords = []
        for k in range(size):
            base, a = k - k % d, k % d
            coords.append(" + ".join([f"u[{k}]"] + [
                f"v[{base + b}]" if f == 1 else f"{f} * v[{base + b}]" for out, b, f in terms if out == a
            ]))
        lines += [f"        u = cols[{t}]", f"        cols[{t}] = ({', '.join(coords)},)"]
    lines += [f"        cols[s] = ({', '.join(f'-v[{k}]' for k in range(size))},)", "    return times"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["make"]
