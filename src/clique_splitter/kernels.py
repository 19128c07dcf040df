"""Clique kernels over integer bitsets, in pure Python.

``adj`` is a sequence of per-vertex neighbour bitsets (bit u of
``adj[v]`` is set when uv is an edge) and ``mask`` restricts a search to
a vertex subset. ``has_clique_of_size`` decides whether a mask holds a
clique of a given size; ``max_clique_size`` finds the clique number, the
one number a certificate is checked by; ``max_clique`` builds the
certificate's witness, the largest clique whose sorted labels come
first, from that number by decision queries; ``maximal_cliques``
enumerates the maximal cliques. The two colouring searches,
``max_clique_size`` and ``has_clique_of_size``, bound each branch by a
greedy colouring (Tomita & Seki, DMTCS 2003); ``max_clique_size`` takes
each colouring step from per-vertex tables of bitsets built once per
graph (``coloring_tables``), as BBMC does (San Segundo, Rodriguez-Losada
& Jimenez, Comput. Oper. Res. 2011); its cost, like its result, depends
on the adjacency alone, not on any labels.
Every result is deterministic: it depends on the arguments alone. A
negative mask is no set of vertices, and every search given one raises
ValueError naming it.
"""

from __future__ import annotations

from typing import Sequence


def coloring_tables(adj: Sequence[int], mask: int) -> tuple[list[int], list[int], list[int]]:
    """The tables ``max_clique_size`` reads, each indexed by v + 1, the
    ``bit_length()`` of a bitset whose top vertex is v: the vertices of
    ``mask`` that are neither v nor its neighbours, ``adj[v]``, and
    ``1 << v``. Entry 0 of each is 0."""
    bit = [0, *map((1).__lshift__, range(len(adj)))]
    apart = [0, *[mask & ~(a | b) for a, b in zip(adj, bit[1:])]]
    return apart, [0, *adj], bit


def max_clique_size(adj: Sequence[int], mask: int,
                    tables: tuple[list[int], list[int], list[int]] | None = None) -> int:
    """The number of vertices of the largest clique within ``mask``; 0
    for the empty mask.

    Each node colours its candidates greedily, highest vertex first,
    into classes kept as bitsets, and branches from the highest colour
    down, highest vertex first, only where the colour bound exceeds the
    largest clique found so far: no tie is followed and no label is read.
    A colouring step is one AND with the vertex's non-neighbours and one
    XOR with its bit, both read from ``coloring_tables`` at the class's
    ``bit_length()``. A caller that searches one graph many times passes
    the tables it keeps for it, built for every vertex; without them,
    they are built for ``mask``.
    """
    if mask < 0:
        raise _negative_mask(mask)
    apart, nbrs, bit = coloring_tables(adj, mask) if tables is None else tables
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        uncolored = cand
        # Classes numbered at most best - size cannot beat best: colour
        # them unrecorded, and end the node if they take every candidate.
        for _ in range(best - size):
            cls = uncolored
            while cls:
                b = cls.bit_length()
                cls &= apart[b]
                uncolored ^= bit[b]
            if not uncolored:
                return
        classes: list[int] = []
        while uncolored:
            cls = before = uncolored
            while cls:
                b = cls.bit_length()
                cls &= apart[b]
                uncolored ^= bit[b]
            classes.append(before ^ uncolored)
        cur = cand
        # The largest clique a branch on a vertex of the class can reach.
        reach = best + len(classes)
        for cls in reversed(classes):
            while cls:
                if reach <= best:
                    return
                b = cls.bit_length()
                v = bit[b]
                cls ^= v
                cur ^= v
                sub = cur & nbrs[b]
                if sub:
                    expand(sub, size + 1)
                elif size + 1 > best:
                    best = size + 1
            reach -= 1

    expand(mask, 0)
    return best


def max_clique(adj: Sequence[int], mask: int, omega: int,
               labels: Sequence[int] | None = None) -> tuple[int, ...]:
    """The largest clique within ``mask`` whose sorted labels come first
    in lexicographic order, as that sorted tuple of labels, given the
    mask's clique number ``omega`` from ``max_clique_size``; vertex i has
    the label ``labels[i]``, or i when ``labels`` is None. The empty mask
    gives the empty tuple. This is a certificate's witness, built only
    when it is read.

    In label order, a vertex joins when its neighbours among the
    candidates left hold a clique of the size still wanted, and leaves
    the candidates otherwise. Unlike ``max_clique_size``'s, the cost of
    these decision queries depends on the labels; no workload operation
    reads a witness.
    """
    label = range(len(adj)) if labels is None else labels
    found = []
    cand = mask
    for v in sorted(from_mask(mask), key=label.__getitem__):
        if cand >> v & 1:
            sub = cand & adj[v]
            if has_clique_of_size(adj, sub, omega - len(found) - 1):
                found.append(label[v])
                cand = sub
            else:
                # v is in no clique of the size wanted; drop it.
                cand ^= 1 << v
    return tuple(found)


def has_clique_of_size(adj: Sequence[int], mask: int, size: int) -> bool:
    """True iff ``mask`` contains a clique with at least ``size`` vertices.

    Sizes up to 1, and masks with fewer than ``size`` vertices, are
    answered from the mask alone. Otherwise a branch and bound with greedy
    coloring upper bounds, Tomita-style pivot order, prunes every branch
    whose colour bound cannot reach ``size`` (the k-clique decision form
    of the Tomita-Seki bound) and stops at the first clique of ``size``
    vertices.
    """
    if mask < 0:
        raise _negative_mask(mask)
    if size <= 0:
        return True
    if mask.bit_count() < size:
        return False
    if size == 1:
        return True

    def expand(cand: int, need: int) -> bool:
        # Does cand hold a clique of need >= 2 vertices? Greedy coloring:
        # classes are independent sets, so a clique takes at most one vertex
        # per class, and one whose last vertex (in `order`) is in class c
        # has at most c vertices. Classes numbered below `need` are coloured
        # but not recorded: no clique of `need` vertices ends there.
        order: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            cls = uncolored
            if color < need:
                while cls:
                    bit = cls & -cls
                    v = bit.bit_length() - 1
                    cls &= ~adj[v]
                    cls ^= bit
                    uncolored ^= bit
                continue
            while cls:
                bit = cls & -cls
                v = bit.bit_length() - 1
                cls &= ~adj[v]
                cls ^= bit
                uncolored ^= bit
                order.append(v)
        cur = cand
        for v in reversed(order):
            cur ^= 1 << v
            sub = cur & adj[v]
            if sub and (need == 2 or expand(sub, need - 1)):
                return True
        return False

    return expand(mask, size)


def maximal_cliques(adj: Sequence[int], mask: int) -> list[int]:
    """All maximal cliques within ``mask`` as bitsets (Bron-Kerbosch with
    the max-degree pivot), in a deterministic order."""
    if mask < 0:
        raise _negative_mask(mask)
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pux = p | x
        pivot = -1
        pivot_cnt = -1
        t = pux
        while t:
            u = (t & -t).bit_length() - 1
            t &= t - 1
            c = (p & adj[u]).bit_count()
            if c > pivot_cnt:
                pivot_cnt = c
                pivot = u
        ext = p & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            bit = 1 << v
            ext &= ext - 1
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    if mask:
        bk(0, mask, 0)
    return out


def to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _negative_mask(mask: int) -> ValueError:
    return ValueError(f"mask {mask:#x} is negative, not a set of vertices")


def from_mask(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise _negative_mask(mask)
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "pure"
