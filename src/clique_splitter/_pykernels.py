"""Pure-Python clique kernels over integer bitsets.

Drop-in twin of the compiled extension ``_ckernels``; ``kernels`` picks one
at import time. ``adj`` is a sequence of per-vertex neighbor bitsets and
``mask`` restricts the search to a vertex subset.
"""

from __future__ import annotations

from typing import Sequence


def max_clique_size(adj: Sequence[int], mask: int, stop_at: int = 0) -> int:
    """Largest clique size within ``mask`` (branch and bound, greedy
    coloring upper bounds, Tomita-style pivot order).

    With ``stop_at = 0`` the result is the clique number of ``mask``.
    With ``stop_at > 0`` the call answers "does ``mask`` hold a clique of
    ``stop_at`` vertices?": the result is ``>= stop_at`` exactly when it
    does. The search stops once such a clique is found, and it prunes
    every branch whose colour bound cannot reach ``stop_at`` (the k-clique
    decision form of the Tomita-Seki bound), so a result below
    ``stop_at`` is only the size of a clique found on the way and may be
    less than the clique number. Either way the result never exceeds it.
    """
    best = 0
    # A branch is pruned when it cannot beat max(best, floor); floor = -1
    # never binds, so stop_at = 0 is the plain maximum-clique search.
    floor = stop_at - 1

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not cand or (stop_at and best >= stop_at):
            return
        # Greedy coloring: classes are independent sets, so a clique inside
        # cand takes at most one vertex per class. bound[i] = class index.
        # Classes numbered at most `dead` are coloured but not recorded:
        # best only grows, so the loop below would prune them anyway.
        order: list[int] = []
        bound: list[int] = []
        dead = (best if best > floor else floor) - size
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            cls = uncolored
            if color <= dead:
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
                bound.append(color)
        cur = cand
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= (best if best > floor else floor):
                return
            v = order[i]
            cur ^= 1 << v
            expand(cur & adj[v], size + 1)
            if stop_at and best >= stop_at:
                return

    expand(mask, 0)
    return best


def has_clique_of_size(adj: Sequence[int], mask: int, size: int) -> bool:
    """True iff ``mask`` contains a clique with at least ``size`` vertices."""
    if size <= 0:
        return True
    if mask.bit_count() < size:
        return False
    if size == 1:
        return True
    return max_clique_size(adj, mask, stop_at=size) >= size


def maximal_cliques(adj: Sequence[int], mask: int) -> list[int]:
    """All maximal cliques within ``mask`` as bitsets (Bron-Kerbosch with
    the max-degree pivot), in a deterministic order."""
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
