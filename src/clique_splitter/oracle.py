"""Exhaustive ground-truth routines for small instances.

These are the anti-hallucination backstop: every engine result and every
frozen fixture can be re-checked here. The search internals are written
independently of the clique kernels (simple bitset recursions) so that a
kernel bug cannot corrupt both routes; the one deliberate exception is
verify_partition, whose per-part clique numbers come from the clique
engine by contract.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass

from .cliques import _certificate, _search_numbering
from .errors import BudgetExceededError, PreconditionError
from .graphs import Graph
from .kernels import to_mask
from .partition import Partition, PartitionSpec, partition_from_assignment


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps; routines refuse inputs beyond them rather than degrade.

    ``assignment_cap`` bounds n for assignment-style searches (partition
    existence, coloring), ``enumeration_cap`` for subset enumeration, and
    ``max_states`` bounds explored search states in either mode.
    """

    assignment_cap: int = 14
    enumeration_cap: int = 20
    max_states: int = 100_000_000


DEFAULT_BUDGET = OracleBudget()


@dataclass(frozen=True)
class VerificationReport:
    """Per-part clique numbers, violation witnesses, and the overall flag."""

    part_omegas: tuple[int, ...]
    valid: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]


class _Counter:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int):
        self.count = 0
        self.limit = limit

    def tick(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise BudgetExceededError(f"exceeded {self.limit} search states")


def _integer(name: str, value) -> int:
    """``value`` read as PartitionSpec reads quotas, or ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _has_clique(adj, mask: int, size: int) -> bool:
    """Plain include/exclude recursion; deliberately kernel-free."""
    if size <= 0:
        return True
    if mask.bit_count() < size:
        return False
    v = (mask & -mask).bit_length() - 1
    rest = mask & (mask - 1)
    if _has_clique(adj, rest & adj[v], size - 1):
        return True
    return _has_clique(adj, rest, size)


def exists_clique_partition(
    g: Graph, spec: PartitionSpec, budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[bool, Partition | None]:
    """Decide by backtracking whether some k-part assignment meets every
    quota, returning a witness partition when one exists.

    Vertices are placed in descending-degree order; a branch dies the
    moment a part's clique number would reach its quota. Empty parts with
    equal quotas are interchangeable and only tried once per level.
    """
    if g.n > budget.assignment_cap:
        raise BudgetExceededError(
            f"n={g.n} beyond assignment cap {budget.assignment_cap}")
    quotas = spec.quotas
    k = spec.k
    adj = g.adjacency_bits
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    masks = [0] * k
    counter = _Counter(budget.max_states)

    def place(i: int) -> bool:
        counter.tick()
        if i == g.n:
            return True
        v = order[i]
        bit = 1 << v
        tried_empty_quota: set[int] = set()
        for j in range(k):
            if masks[j] == 0:
                if quotas[j] in tried_empty_quota:
                    continue
                tried_empty_quota.add(quotas[j])
            if not _has_clique(adj, masks[j] & adj[v], quotas[j] - 1):
                masks[j] |= bit
                if place(i + 1):
                    return True
                masks[j] &= ~bit
        return False

    if place(0):
        assignment = [0] * g.n
        for j in range(k):
            m = masks[j]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                assignment[v] = j
        return True, partition_from_assignment(g, assignment, k)
    return False, None


def max_kpfree_subset(
    g: Graph, p: int, budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Largest vertex set whose induced subgraph has clique number < p;
    ties resolve to the lexicographically smallest set. A p that
    ``operator.index`` refuses raises ValueError."""
    p = _integer("p", p)
    if p < 1:
        raise ValueError("p must be at least 1")
    if g.n > budget.enumeration_cap:
        raise BudgetExceededError(
            f"n={g.n} beyond enumeration cap {budget.enumeration_cap}")
    adj = g.adjacency_bits
    full = (1 << g.n) - 1
    counter = _Counter(budget.max_states)
    if not _has_clique(adj, full, p):
        return tuple(range(g.n))
    for size in range(g.n - 1, -1, -1):
        for combo in itertools.combinations(range(g.n), size):
            counter.tick()
            mask = 0
            for v in combo:
                mask |= 1 << v
            if not _has_clique(adj, mask, p):
                return combo
    raise AssertionError("unreachable: the empty set is always K_p-free")


def find_coloring(
    g: Graph, max_colors: int, budget: OracleBudget = DEFAULT_BUDGET,
) -> list[int] | None:
    """Exact search for a proper coloring with at most ``max_colors``
    colors; None when impossible. A ``max_colors`` that
    ``operator.index`` refuses raises ValueError."""
    max_colors = _integer("max_colors", max_colors)
    if g.n > budget.assignment_cap:
        raise BudgetExceededError(
            f"n={g.n} beyond assignment cap {budget.assignment_cap}")
    if max_colors < 0:
        return None
    if g.n == 0:
        return []
    if max_colors == 0:
        return None
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n
    counter = _Counter(budget.max_states)

    def assign(i: int, used: int) -> bool:
        counter.tick()
        if i == g.n:
            return True
        v = order[i]
        forbidden = {colors[u] for u in g.neighbors(v) if colors[u] >= 0}
        # Color symmetry: allow at most one brand-new color per level.
        for c in range(min(used + 1, max_colors)):
            if c in forbidden:
                continue
            colors[v] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    if assign(0, 0):
        return colors
    return None


def chromatic_number(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact chromatic number by iterative deepening over the color count."""
    if g.n > budget.assignment_cap:
        raise BudgetExceededError(
            f"n={g.n} beyond assignment cap {budget.assignment_cap}")
    if g.n == 0:
        return 0
    for c in range(1, g.n + 1):
        if find_coloring(g, c, budget) is not None:
            return c
    raise AssertionError("unreachable: n colors always suffice")


def degeneracy(g: Graph) -> int:
    """Exact degeneracy by repeated minimum-degree removal (no budget).

    The vertex removed next is the least (degree, vertex) pair among those
    left. It comes from a heap that gets a new entry at each degree drop:
    degrees only fall, so a vertex's newest entry is its least, and the
    older ones that come out after it is removed are skipped. The loop
    ends at the n-th removal and leaves the stale entries still queued."""
    degs = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(degs)]
    heapq.heapify(heap)
    removed = [False] * g.n
    best = 0
    for _ in range(g.n):
        d, v = heapq.heappop(heap)
        while removed[v]:
            d, v = heapq.heappop(heap)
        best = max(best, d)
        removed[v] = True
        for u in g.neighbors(v):
            if not removed[u]:
                degs[u] -= 1
                heapq.heappush(heap, (degs[u], u))
    return best


def verify_partition(g: Graph, part: Partition, spec: PartitionSpec) -> VerificationReport:
    """Exact per-part clique numbers (clique engine), the validity flag,
    and a quota-sized clique witness for every violated part.

    Each part's mask is built from its members in the clique search's
    numbering, through ``cliques._search_numbering``'s ``power`` table
    when there is one, and its certificate comes from ``g``'s memo under
    that mask through ``cliques._certificate``, the lookup behind
    ``clique_number_within``, as the members are checked here already.
    So a partition the engine has just certified on this graph object is
    checked from the same entries, not searched again; an equal but
    distinct graph has a memo of its own, and is searched. Witnesses are
    in ``g``'s labels.

    The parts must hold exactly the vertices the assignment puts in them:
    each member's assignment is its part's index, no part repeats a
    vertex, and the part sizes sum to n. Together these make the parts
    disjoint and covering, so no vertex is placed by the assignment in a
    part that lacks it."""
    if len(part.assignment) != g.n:
        raise PreconditionError(
            f"assignment covers {len(part.assignment)} vertices, graph has {g.n}")
    k = spec.k
    if k != len(part.parts):
        raise PreconditionError(
            f"partition has {len(part.parts)} parts, spec wants {k}")
    assignment = part.assignment
    # bytes takes each index as operator.index does, so 1.0 and
    # Fraction(1) are refused where min, max and == would take them, and
    # checks 0 <= index < 256 in the same pass, which settles the usual
    # case; operator.index takes the rest, and the error is worded there.
    try:
        in_range = max(bytes(assignment), default=0) < k
    except TypeError:
        raise PreconditionError("a part index is not an integer") from None
    except ValueError:  # an index outside 0..255
        in_range = False
    if not in_range:
        try:
            indices = list(map(operator.index, assignment))
        except TypeError:
            raise PreconditionError("a part index is not an integer") from None
        if min(indices) < 0 or max(indices) >= k:
            raise PreconditionError("part index out of range")
    power = _search_numbering(g)[2]
    masks = []
    for i, members in enumerate(part.parts):
        try:
            if members and (min(members) < 0 or max(members) >= g.n):
                raise PreconditionError(f"part {i} has a vertex out of range for n={g.n}")
            mask = to_mask(members) if power is None else sum(map(power.__getitem__, members))
        except TypeError:
            raise PreconditionError(f"part {i} has a vertex that is not an integer") from None
        # a repeated vertex leaves fewer set bits than members: to_mask
        # sets its bit once, and a sum of powers carries it into another
        if mask.bit_count() != len(members):
            raise PreconditionError(f"part {i} repeats a vertex")
        if [assignment[v] for v in members].count(i) != len(members):
            raise PreconditionError(f"part {i} holds a vertex the assignment puts elsewhere")
        masks.append(mask)
    placed = sum(map(len, part.parts))
    if placed != g.n:
        raise PreconditionError(f"parts hold {placed} vertices, graph has {g.n}")
    omegas = []
    violations = []
    for i, mask in enumerate(masks):
        cert = _certificate(g, mask)
        omegas.append(cert.omega)
        quota = spec.quotas[i]
        if cert.omega > quota - 1:
            violations.append((i, cert.witness[:quota]))
    return VerificationReport(tuple(omegas), not violations, tuple(violations))
