"""Correctness checks made apart from the program.

The clique test here shares no code with the program's kernels: it is a
plain branch and bound over Python integer bitsets with a greedy colouring
bound, picking vertices from the highest index down. Infeasibility claims
and abandoned instances are settled by the program's kernel-free oracle,
whose witnesses are checked here in turn.
"""

from __future__ import annotations


def adjacency(g) -> list[int]:
    """Neighbour bitsets built from the graph's neighbour lists."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


def _colour_classes(adj, cand: int) -> int:
    """Number of classes a greedy colouring of ``cand`` uses: an upper
    bound on the size of any clique inside ``cand``."""
    classes = 0
    while cand:
        classes += 1
        free = cand
        while free:
            v = free.bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            free &= ~adj[v] & ~bit
    return classes


def _extend(adj, cand: int, need: int) -> bool:
    if need == 0:
        return True
    if cand.bit_count() < need or _colour_classes(adj, cand) < need:
        return False
    while cand.bit_count() >= need:
        v = cand.bit_length() - 1
        cand &= ~(1 << v)
        if _extend(adj, cand & adj[v], need - 1):
            return True
    return False


def has_clique(adj, mask: int, size: int) -> bool:
    """True iff the vertices of ``mask`` hold a clique on ``size`` vertices."""
    if size <= 0:
        return True
    if size == 2:
        m = mask
        while m:
            v = m.bit_length() - 1
            m &= ~(1 << v)
            if adj[v] & mask:
                return True
        return False
    return _extend(adj, mask, size)


def partition_fault(adj, n: int, quotas, parts, assignment) -> str | None:
    """Why ``parts`` is not a valid split of the graph for ``quotas``, or None.

    Valid means: one part per quota, every vertex in exactly one part, the
    assignment agrees with the parts, and part i holds no clique on
    quotas[i] vertices.
    """
    if len(parts) != len(quotas):
        return f"{len(parts)} parts for {len(quotas)} quotas"
    if len(assignment) != n:
        return f"assignment covers {len(assignment)} of {n} vertices"
    seen = [0] * n
    for i, members in enumerate(parts):
        for v in members:
            if not 0 <= v < n:
                return f"vertex {v} out of range"
            seen[v] += 1
            if assignment[v] != i:
                return f"vertex {v} listed in part {i}, assigned to {assignment[v]}"
    for v, count in enumerate(seen):
        if count != 1:
            return f"vertex {v} lies in {count} parts"
    for i, (members, quota) in enumerate(zip(parts, quotas)):
        mask = 0
        for v in members:
            mask |= 1 << v
        if has_clique(adj, mask, quota):
            return f"part {i} holds a clique on {quota} vertices"
    return None


def settle(cs, g, adj, spec) -> bool:
    """Whether a valid partition exists, decided by the program's kernel-free
    oracle with its assignment cap raised to the graph's size. A witness
    the oracle returns is checked with this module's own test."""
    budget = cs.OracleBudget(assignment_cap=max(g.n, cs.DEFAULT_BUDGET.assignment_cap))
    feasible, witness = cs.exists_clique_partition(g, spec, budget)
    if feasible:
        fault = partition_fault(adj, g.n, spec.quotas, witness.parts, witness.assignment)
        if fault is not None:
            raise RuntimeError(f"oracle witness is invalid: {fault}")
    return feasible
