"""The order kernel that heaps and toric posets share.

Bitmask sets (``_bits``), the least linear order of a relation given by
predecessor bitmasks (``_least_order``), which also detects cycles, and the
constant-amortized-time listing of every linear order read through labels
(``_linear_orders``), which gives the words of a heap and the total toric
extensions.  It sits below ``heaps`` and ``toric`` so that neither needs
the other to list orders.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least_order(preds: Sequence[int]) -> tuple[int, ...] | None:
    """The least order of 0..n-1 that puts each v after the vertices in the
    bitmask preds[v]: the least vertex whose predecessors are all placed,
    repeatedly; None if the preds form a cycle."""
    order, left, placed = [], list(range(len(preds))), 0
    while left:
        for i, v in enumerate(left):
            if not preds[v] & ~placed:
                break
        else:
            return None
        del left[i]
        order.append(v)
        placed |= 1 << v
    return tuple(order)


def _linear_orders(preds: Sequence[int], labels: Sequence) -> Iterator[tuple]:
    """Every order of 0..n-1 that puts each v after the vertices in the
    bitmask preds[v], read through the labels: tuple(labels[v] for v in
    order).  No order if the preds form a cycle, one empty order if n = 0.

    Varol-Rotem (1981; Knuth, TAOCP 4A, 7.2.1.2, Algorithm V), in constant
    amortized time.  The vertices are ranked by ``_least_order``, behind a
    sentinel that precedes them all, at position 0.  Each next order moves
    the highest-ranked vertex v that can go one place left past a vertex
    that does not precede it; the vertices ranked above v, which could not
    move, go back to their home positions.  The labels are swapped in step
    with the vertices, so an order costs one tuple.  Heap extensions, total
    toric extensions and their words come from it.
    """
    order = _least_order(preds)
    if order is None:
        return
    n = len(order)
    before = [p | 1 << n for p in preds]  # vertex n is the sentinel
    at = [n, *order]  # at[j]: the vertex at position j, ranked j at home
    pos = sorted(range(n + 1), key=at.__getitem__)  # pos[v]: the position of v
    lab = [None, *map(labels.__getitem__, order)]
    while True:
        yield tuple(lab[1:])
        for k in range(n, 0, -1):
            v = order[k - 1]
            j = pos[v]
            u = at[j - 1]
            if not before[v] >> u & 1:
                at[j - 1], at[j], pos[v], pos[u] = v, u, j - 1, j
                lab[j - 1], lab[j] = lab[j], lab[j - 1]
                break
            if j < k:  # v goes home: the vertices after it move one place left
                at[j:k], at[k] = at[j + 1 : k + 1], v
                lab[j:k], lab[k] = lab[j + 1 : k + 1], lab[j]
                for i in range(j, k + 1):
                    pos[at[i]] = i
        else:
            return
