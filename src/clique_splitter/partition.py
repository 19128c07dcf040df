"""Constructive vertex-partition engines with prescribed per-part clique bounds.

The central operation splits a graph with max degree D and clique number
at most D-1 into parts V_1..V_k with omega(g[V_i]) <= p_i - 1, where the
quotas satisfy sum(p_i) = D - 1 + k. That leaves sum(p_i - 1) = D - 1
classes of room, so one proper coloring with at most D - 1 classes
answers every quota list at once. The engine colors with DSatur, then
runs one exact search of the whole quota list, which stops after
EXACT_NODES nodes at any n and places true twins in non-decreasing part
order, and recolors with TabuCol only when that search ran out of
nodes. ``clique_bipartition`` is the two-part case of
``kway_clique_partition``.

Every returned partition is re-verified with exact per-part clique
numbers before it leaves this module. The engines are deterministic and
take no seed: equal inputs give equal partitions.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import operator
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import kernels
from .cliques import (
    CliqueCertificate,
    _certificate,
    _coloring_tables,
    _search_numbering,
    all_maximum_cliques,
    clique_number,
    clique_number_within,
)
from .errors import (
    AllStrategiesExhausted,
    BudgetExceededError,
    PreconditionError,
    SearchFailureError,
)
from .graphs import Graph, _mix, _per_graph, _whole

log = logging.getLogger("clique_splitter.partition")

MAXFREE_EXHAUSTIVE_N = 14  # n cap of max_kpfree_partition's subset scan
EXACT_NODES = 20_000
RECOLOR_MOVES = 1_000  # TabuCol's move cap

# ``_certify``'s seeds for parts whose searches start unseeded: an empty
# list for every part, endless, so one iterator serves every call
_UNSEEDED = itertools.repeat(())


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class PartitionSpec:
    """Ordered quota list p_1 >= p_2 >= ... >= p_k, each at least 2."""

    quotas: tuple[int, ...]

    def __post_init__(self):
        quotas = tuple(self.quotas)
        try:
            quotas = tuple(map(operator.index, quotas))
        except TypeError:
            raise ValueError("every quota must be an integer") from None
        object.__setattr__(self, "quotas", quotas)
        if not self.quotas:
            raise ValueError("at least one quota required")
        if any(p < 2 for p in self.quotas):
            raise ValueError("every quota must be at least 2")
        if any(a < b for a, b in zip(self.quotas, self.quotas[1:])):
            raise ValueError("quotas must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.quotas)

    def feasible_for(self, g: Graph) -> bool:
        """Whether the quota sum matches max degree - 1 + k for this graph."""
        return sum(self.quotas) == g.max_degree - 1 + self.k


@dataclass(frozen=True)
class Partition:
    """Total assignment of vertices to parts plus per-part clique certificates."""

    assignment: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    certificates: tuple[CliqueCertificate, ...]
    strategy: str | None = None

    def satisfies(self, quotas) -> bool:
        quotas = tuple(quotas)
        if len(quotas) != len(self.parts):
            return False
        return all(c.omega <= p - 1 for c, p in zip(self.certificates, quotas))


def partition_from_parts(g: Graph, parts, strategy: str | None = None) -> Partition:
    """Build a Partition from explicit part lists, computing certificates.

    Parts must be disjoint and cover every vertex. One loop checks each
    vertex of each part in turn, its range before anything is built from
    it: the first vertex out of range or in two parts raises ValueError
    naming it, as do the first five in no part, and one in range but no
    integer raises the TypeError of indexing a list with it. A vertex
    listed twice within one part counts once; the parts come back sorted,
    each vertex as the int it equals, so ``True`` is vertex 1; a part
    holding all n vertices is ``graphs._whole``'s vertex tuple
    (``_whole_as_own``). ``_certify`` then builds the Partition as it
    builds every one the engine returns, so each certificate's witness
    is in ``g``'s labels.
    """
    n = g.n
    assignment = [-1] * n
    norm = []
    for i, members in enumerate(parts):
        members = sorted(set(members))
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if assignment[v] != -1:
                raise ValueError(f"vertex {v} assigned to two parts")
            assignment[v] = i
        # indexing the list above took each vertex as operator.index does
        norm.append(tuple(map(operator.index, members)))
    if -1 in assignment:
        missing = [v for v, a in enumerate(assignment) if a == -1]
        raise ValueError(f"vertices {missing[:5]} not assigned to any part")
    assignment, norm = _whole_as_own(g, tuple(assignment), tuple(norm))
    return _certify(g, assignment, norm, list(map(_search_numbering(g).mask, norm)), _UNSEEDED,
                    strategy)


def _certify(g: Graph, assignment: tuple[int, ...], parts: tuple[tuple[int, ...], ...],
             masks, seeds, strategy: str | None) -> Partition:
    """The Partition of ``assignment`` and its sorted ``parts``, with each
    part's certificate read from ``cliques._certificate`` on its mask in
    the clique search's numbering, ``masks`` (built by
    ``cliques._search_numbering(g).mask``), so no part is translated
    again. ``seeds`` are each part's seeds for its search on a memo miss,
    in that numbering: ``_deal`` passes the classes it dealt a part, and
    every caller with no colouring to pass, or none worth passing, passes
    ``_UNSEEDED``, so those searches start unseeded.

    The one constructor of every Partition this module returns. It checks
    nothing: ``partition_from_parts`` and ``partition_from_assignment``
    each check the input they take from outside once, and the engine's
    parts agree with their assignment and masks by construction. Each
    caller passes a part that holds all n vertices as ``graphs._whole``'s
    vertex tuple, and its zero assignment with it in part 0, so that
    ``oracle.verify_partition`` checks the part without reading it.
    """
    certs = tuple(map(_certificate, itertools.repeat(g, len(masks)), masks, seeds))
    return Partition(assignment, parts, certs, strategy)


def _certify_assignment(g: Graph, assignment, k: int, strategy: str | None) -> Partition:
    """``_certify`` of a checked assignment into k parts: part i holds the
    vertices the assignment puts in i, ascending, and a part holding all
    n of them is ``graphs._whole``'s vertex tuple (``_whole_as_own``)."""
    assignment, parts = _whole_as_own(g, tuple(assignment),
                                      tuple(map(tuple, _parts_of(assignment, k))))
    return _certify(g, assignment, parts, list(map(_search_numbering(g).mask, parts)), _UNSEEDED,
                    strategy)


def _whole_as_own(g: Graph, assignment: tuple[int, ...], parts: tuple[tuple[int, ...], ...]):
    """``assignment`` and ``parts``, agreeing and checked, with a part
    that holds all n vertices replaced by ``graphs._whole``'s vertex
    tuple, and the assignment by its zeros when that part is part 0."""
    if g.n in map(len, parts):
        whole, zeros = _whole(g)
        parts = tuple(whole if len(side) == g.n else side for side in parts)
        if parts[0] is whole:
            assignment = zeros
    return assignment, parts


def partition_from_assignment(g: Graph, assignment, k: int | None = None,
                              strategy: str | None = None) -> Partition:
    """The Partition whose part i holds the vertices ``assignment`` puts
    in i, for k parts, or one more than the largest index when k is None.
    An index that ``operator.index`` refuses, or outside 0..k-1, raises
    ValueError naming its vertex, and a k that it refuses raises
    ValueError too. Once these checks pass, the parts built from the
    assignment need no check of their own."""
    assignment = list(assignment)
    if len(assignment) != g.n:
        raise ValueError(f"assignment covers {len(assignment)} of {g.n} vertices")
    for v, a in enumerate(assignment):
        try:
            assignment[v] = operator.index(a)
        except TypeError:
            raise ValueError(f"vertex {v} has part index {a!r}, not an integer") from None
    if k is None:
        k = max(assignment, default=-1) + 1
    else:
        try:
            k = operator.index(k)
        except TypeError:
            raise ValueError(f"part count k must be an integer, got {k!r}") from None
    for v, a in enumerate(assignment):
        if not 0 <= a < k:
            raise ValueError(f"vertex {v} has part index {a}, outside 0..{k - 1}")
    return _certify_assignment(g, assignment, k, strategy)


@dataclass(frozen=True)
class HittingSetResult:
    """Outcome of the independent-transversal search over maximum cliques."""

    outcome: str  # "found" | "exception" | "not_found"
    independent_set: tuple[int, ...] | None = None
    cycle_len: int | None = None
    m: int | None = None
    omega_before: int | None = None
    omega_after: int | None = None


@dataclass(frozen=True)
class MaxKpfreeResult:
    """A valid bipartition maximizing |V1| plus how maximality was certified."""

    partition: Partition
    certificate: str  # "exhaustive" | "local"


# ---------------------------------------------------------------------------
# Shared helpers


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _parts_of(assignment, k: int) -> list[list[int]]:
    """Part i holds the vertices that ``assignment`` puts in i, ascending,
    filled in one pass over the assignment."""
    parts: list[list[int]] = [[] for _ in range(k)]
    for v, a in enumerate(assignment):
        parts[a].append(v)
    return parts


def _integer_pair(p, q) -> tuple[int, int]:
    """p and q read as PartitionSpec reads quotas, or PreconditionError."""
    try:
        return operator.index(p), operator.index(q)
    except TypeError:
        raise PreconditionError(f"p and q must be integers, got p={p!r}, q={q!r}") from None


def _check_omega(g: Graph) -> CliqueCertificate:
    """The certificate of g's exact clique number; PreconditionError,
    with a maximum clique as witness, when it exceeds max degree - 1.
    Only that error reads the witness, so only then is it searched for."""
    delta = g.max_degree
    cert = clique_number(g)
    if cert.omega > delta - 1:
        raise PreconditionError(
            f"clique number {cert.omega} exceeds max degree - 1 = {delta - 1}",
            witness=cert.witness)
    return cert


def _dsatur_coloring(g: Graph) -> list[int]:
    """Deterministic DSatur: highest saturation, then degree, then sum of
    the neighbours' degrees, then index.

    The neighbours' degree sum breaks most ties of degree without reading
    the labels, so on graphs like G(n, p) the classes are the same vertex
    sets however the graph is numbered, and so is the cost of searching
    the parts built from them.

    A lazy-deletion heap picks each vertex in O(log n), so the whole run
    costs O((n + m) log n). Its keys are the integers ``rank - saturation
    * n``, where ``rank`` is the vertex's place in the order (-degree,
    -degree sum, index): they sort as ``(-saturation, rank)`` would, and
    an integer compares and pushes about twice as fast as that tuple.
    Each vertex's current key is kept in a list and falls by n whenever
    its saturation rises, when the new key is pushed. Saturation only
    grows, so a vertex's freshest entry is also its smallest: it is
    popped before any stale one, and the stale entries of colored
    vertices are skipped. The pick order therefore equals a full scan's.
    The loop ends at the n-th pick and leaves the remaining stale
    entries in the heap; every uncolored vertex keeps its fresh entry
    there until then, so the skip loop never empties the heap.
    """
    n = g.n
    nbrs = g.adjacency
    if g.min_degree == g.max_degree:
        # every key ties up to the index
        by_rank = rank = range(n)
    else:
        neg_degree = [-len(s) for s in nbrs]
        neg_sum = [sum(map(neg_degree.__getitem__, s)) for s in nbrs]
        by_rank = sorted(range(n), key=lambda v: (neg_degree[v], neg_sum[v], v))
        rank = [0] * n
        for i, v in enumerate(by_rank):
            rank[v] = i
    colors = [-1] * n
    # seen[v]: bitset of the colors on v's neighbours, and -1 once v is
    # colored, so that the test below also passes over colored neighbours
    seen = [0] * n
    key = list(rank)  # saturation 0 everywhere: key = rank
    heap = list(range(n))  # the keys in rank order, already a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    for _ in range(n):
        v = by_rank[heappop(heap) % n]
        while seen[v] < 0:
            v = by_rank[heappop(heap) % n]
        s = seen[v]
        c = (~s & (s + 1)).bit_length() - 1  # lowest color not in s
        colors[v] = c
        seen[v] = -1
        bit = 1 << c
        for u in nbrs[v]:
            s = seen[u]
            if not s & bit:
                seen[u] = s | bit
                k = key[u] - n
                key[u] = k
                heappush(heap, k)
    return colors


@_per_graph
def _dsatur_classes(g: Graph) -> _Classes:
    """DSatur's color classes of g, largest first, ties broken by members.

    Kept in g's memo, like ``cliques.clique_number_within``'s entries, so
    every quota list on one graph object reads one coloring.
    """
    return _Classes(_dsatur_coloring(g), _search_numbering(g))


class _Classes(tuple):
    """The nonempty classes of the coloring ``colors`` of all of a
    graph's vertices, largest first, ties broken by members, with their
    layout beside them, each built when a deal first reads it: ``masks``,
    each class's bitset in the graph's clique search numbering
    (``cliques._search_numbering``), built by that numbering's ``mask``,
    and ``index``, each vertex's class index. The numbering holds no
    reference to the graph, so neither does a coloring kept in its memo.

    A coloring kept in a graph's memo carries its layout there, so every
    quota list dealt from it reads one build and no deal hashes the
    classes or translates a part.
    """

    def __new__(cls, colors: list[int], numbering) -> _Classes:
        classes = [[] for _ in range(max(colors, default=-1) + 1)]
        for v, c in enumerate(colors):
            classes[c].append(v)
        classes.sort(key=lambda members: (-len(members), members))
        self = super().__new__(cls, (tuple(members) for members in classes if members))
        self._numbering = numbering
        return self

    @cached_property
    def masks(self) -> list[int]:
        return list(map(self._numbering.mask, self))

    @cached_property
    def index(self) -> tuple[int, ...]:
        index = [0] * sum(map(len, self))
        for c, members in enumerate(self):
            for v in members:
                index[v] = c
        return tuple(index)


def _component_mask(adj, v: int) -> int:
    """Bitset of v's connected component, by one breadth-first sweep."""
    comp = frontier = 1 << v
    while frontier:
        reach = 0
        for u in kernels.from_mask(frontier):
            reach |= adj[u]
        frontier = reach & ~comp
        comp |= frontier
    return comp


def _component_orders(adj, order: list[int]) -> list[list[int]]:
    """``order`` split into the vertices of each connected component,
    each list in ``order``'s sequence and the components by their first
    vertex in ``order``. A connected graph costs one sweep and is
    returned as ``[order]``."""
    if not order or _component_mask(adj, order[0]).bit_count() == len(order):
        return [order]
    label = [-1] * len(order)
    orders: list[list[int]] = []
    for v in order:
        if label[v] < 0:
            for u in kernels.from_mask(_component_mask(adj, v)):
                label[u] = len(orders)
            orders.append([])
        orders[label[v]].append(v)
    return orders


@_per_graph
def _exact_plan(g: Graph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The exact search's order of g, one (vertices, twin links) pair per
    connected component, in the clique search's numbering
    (``cliques._search_numbering``): the component's vertices, each by
    its number, in descending-degree order, then by label, and for each
    of them the index in that tuple of its latest earlier true twin, or
    -1. The order and the twins are the labels' own, read through the
    numbering.

    Kept in g's memo, like ``_dsatur_classes``, so every quota list
    searched on one graph object reads one build. The closed
    neighbourhoods that find the twins are n-bit keys and are dropped
    after the build.
    """
    labels, adj, _ = _search_numbering(g)
    order = sorted(range(g.n), key=lambda i: (-adj[i].bit_count(), labels[i]))
    plan = []
    for component in _component_orders(adj, order):
        prev_twin = []
        latest: dict[int, int] = {}  # closed neighbourhood -> latest index
        for i, v in enumerate(component):
            closed = adj[v] | 1 << v
            prev_twin.append(latest.get(closed, -1))
            latest[closed] = i
        plan.append((tuple(component), tuple(prev_twin)))
    return tuple(plan)


def _exact_partition_assignment(g: Graph, quotas) -> list[int] | None:
    """Complete backtracking over vertex assignments with per-part clique
    pruning; None means no valid partition exists.

    Each connected component is searched on its own, the components taken
    by their first vertex in the order below, and None is returned as
    soon as one of them has no valid assignment. A placement in one
    component cannot affect another, so backtracking into an earlier
    component would only retry placements that cannot help. Within a
    component, vertices are placed in descending-degree order, then by
    label, each into the first part it can join without completing a
    clique of that part's quota; of several parts with equal quotas that
    are empty within the component only the first is tried, and
    backtracking resumes at the next part. True twins, vertices with
    equal closed neighbourhoods, are placed in non-decreasing part order:
    a vertex tries no part below the one holding its latest earlier twin.
    The answer is the lexicographically first valid assignment in that
    order, the one a search of the whole graph without either rule
    finds: validity splits over the components, swapping two equal-quota
    parts within one component keeps an assignment valid, and so does
    swapping two twins, an automorphism, so an assignment that breaks
    either rule has a valid one that comes earlier. The rules only cut
    branches, so the search visits a subset of the nodes it would visit
    without them; on C_L x K_m, whose fibres are twin classes, that
    makes the infeasible (4, 2) proofs on C_L x K2 linear in L instead
    of exponential. The search keeps an explicit stack of choices rather
    than one frame per vertex, so it runs at any n, and raises
    BudgetExceededError once it has visited EXACT_NODES nodes in all:
    the root plus one node per placement, over every component.

    The order, the component split and the twin links depend on g alone
    and come from ``_exact_plan``, built once per graph object; the earlier
    parts of equal quota are listed once per call. The search runs in the
    clique search's numbering (``cliques._search_numbering``), on its
    adjacency and ``cliques._coloring_tables``, the tables g's
    certificates read, and each component's assignment goes back to the
    labels once, when the component is done. Every query answer is
    exact, so the numbering changes neither the answer nor the nodes
    visited, only what each query costs. A part of quota 2
    takes v exactly when it holds no neighbour of v, and a part holding
    fewer than p - 1 neighbours of v takes it too, so only the other
    tries call ``kernels.has_clique_of_size``. Of those, a part holding
    exactly p - 1 neighbours of v is settled by one clique test over
    them, with no search: it takes v unless they are a clique. Only a
    part holding more than p - 1 neighbours of v runs the colouring
    search.
    """
    quotas = tuple(quotas)
    k = len(quotas)
    labels, adj, _ = _search_numbering(g)
    tables = _coloring_tables(g)
    # equal[j]: the parts before j with j's quota, in any quota order
    equal = [tuple(h for h in range(j) if quotas[h] == quotas[j]) for j in range(k)]
    assignment = [0] * g.n
    nodes = 1
    for component, prev_twin in _exact_plan(g):
        masks = [0] * k
        chosen: list[int] = []  # chosen[i] is the part holding component[i]
        j = 0  # next part to try for component[len(chosen)]
        while len(chosen) < len(component):
            i = len(chosen)
            v = component[i]
            if prev_twin[i] >= 0:
                j = max(j, chosen[prev_twin[i]])
            nbrs = adj[v]
            while j < k:
                # an empty part after an empty part of equal quota is skipped
                if masks[j] or all(map(masks.__getitem__, equal[j])):
                    m = masks[j] & nbrs
                    need = quotas[j] - 1
                    if need == 1:
                        if not m:
                            break
                    elif m.bit_count() < need or not kernels.has_clique_of_size(
                            adj, m, need, tables):
                        break
                j += 1
            if j < k:
                nodes += 1
                if nodes > EXACT_NODES:
                    raise BudgetExceededError(f"stopped after {EXACT_NODES} nodes")
                masks[j] |= 1 << v
                chosen.append(j)
                j = 0
            elif chosen:
                j = chosen.pop()
                masks[j] &= ~(1 << component[len(chosen)])
                j += 1
            else:
                return None
        for v, j in zip(component, chosen):
            assignment[labels[v]] = j
    return assignment


# ---------------------------------------------------------------------------
# Degree and degeneracy bounded bipartition


def _side_core(g: Graph, side: set[int], limit: int) -> list[int]:
    """Vertices of the `limit`-core of the subgraph induced by `side`:
    nonempty exactly when that subgraph has degeneracy >= limit."""
    deg = {v: sum(1 for u in g.neighbors(v) if u in side) for v in side}
    alive = set(side)
    queue = [v for v in alive if deg[v] <= limit - 1]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for u in g.neighbors(v):
            if u in alive:
                deg[u] -= 1
                if deg[u] == limit - 1:
                    queue.append(u)
    return sorted(alive)


def _greedy_split(g: Graph, p: int, q: int) -> list[bool]:
    """The starting split: each vertex in descending-degree order joins V1
    when q*d1 <= p*d2 over its neighbours placed before it."""
    n = g.n
    in1 = [False] * n
    d1 = [0] * n
    d2 = [0] * n
    for v in sorted(range(n), key=lambda v: (-g.degree(v), v)):
        in1[v] = q * d1[v] <= p * d2[v]
        placed = d1 if in1[v] else d2
        for u in g.neighbors(v):
            placed[u] += 1
    return in1


def _descend_and_repair(g: Graph, p: int, q: int, in1: list[bool]):
    """Steepest descent on q*e(V1) + p*e(V2) with single-vertex flips,
    plus targeted zero-cost core evictions for the degeneracy bounds.

    A local minimum meets both degree bounds, as p + q is the max degree,
    so only the cores are checked. A round evicts the first vertex of V1's
    p-core, else of V2's q-core; the second goes instead when the first
    was evicted last round and the descent moved nothing since: flipping
    it back would repeat the last two rounds until the 4n + 20 cap.
    """
    n = g.n
    d1 = [sum(in1[u] for u in g.neighbors(v)) for v in range(n)]
    d2 = [g.degree(v) - d1[v] for v in range(n)]

    def flip(v: int) -> None:
        step = -1 if in1[v] else 1
        in1[v] = not in1[v]
        for u in g.neighbors(v):
            d1[u] += step
            d2[u] -= step

    def descend() -> bool:
        moved = False
        while True:
            best_gain = 0
            best_v = -1
            for v in range(n):
                gain = p * d2[v] - q * d1[v] if in1[v] else q * d1[v] - p * d2[v]
                if gain < best_gain:
                    best_gain = gain
                    best_v = v
            if best_v < 0:
                return moved
            flip(best_v)
            moved = True

    evicted = -1
    for _ in range(4 * n + 20):
        moved = descend()
        side1 = {v for v in range(n) if in1[v]}
        side2 = {v for v in range(n) if not in1[v]}
        core = _side_core(g, side1, p) or _side_core(g, side2, q)
        if not core:
            return sorted(side1), sorted(side2)
        evicted = core[0] if moved or core[0] != evicted else core[1]
        flip(evicted)
    return None


def _bounds_hold(g: Graph, v1, v2, p: int, q: int) -> bool:
    s1, s2 = set(v1), set(v2)
    for v in s1:
        if sum(1 for u in g.neighbors(v) if u in s1) > p:
            return False
    for v in s2:
        if sum(1 for u in g.neighbors(v) if u in s2) > q:
            return False
    return not _side_core(g, s1, p) and not _side_core(g, s2, q)


def degree_bounded_bipartition(g: Graph, p: int, q: int) -> Partition:
    """Split V(g) so that V1 has max internal degree at most p and is
    (p-1)-degenerate, and V2 likewise for q. Requires max degree >= 3,
    p + q equal to the max degree, and clique number at most the max
    degree. The search runs once, from the greedy start, and all four
    bounds are verified before returning; SearchFailureError means its
    round cap ran out.
    """
    p, q = _integer_pair(p, q)
    delta = g.max_degree
    if delta < 3:
        raise PreconditionError(f"max degree {delta} is below 3")
    if p < 1 or q < 1:
        raise PreconditionError("p and q must be positive")
    if p + q != delta:
        raise PreconditionError(f"p+q={p + q} differs from max degree {delta}")
    cert = clique_number(g)
    if cert.omega > delta:
        raise PreconditionError(
            f"clique number {cert.omega} exceeds max degree {delta}",
            witness=cert.witness)

    res = _descend_and_repair(g, p, q, _greedy_split(g, p, q))
    if res is None or not _bounds_hold(g, res[0], res[1], p, q):
        raise SearchFailureError(
            "degree-bounded local search failed from the greedy start",
            {"n": g.n, "p": p, "q": q, "max_degree": delta})
    return partition_from_parts(g, res, strategy="degree-local-search")


# ---------------------------------------------------------------------------
# Hitting independent sets and the product-family recognizer


def detect_cycle_clique_product(g: Graph):
    """Recognize strong products of an odd cycle (length >= 5) with a
    complete graph, by counting its true-twin classes.

    Returns (cycle_len, m) or None.
    """
    n = g.n
    deg = g.max_degree
    if n < 5 or g.min_degree != deg or (deg + 1) % 3 != 0:
        return None
    m = (deg + 1) // 3
    adj = g.adjacency_bits
    sizes = Counter(adj[v] | (1 << v) for v in range(n))  # class size by closed neighbourhood
    length = len(sizes)
    if length < 5 or length % 2 == 0 or length * m != n:
        return None
    if any(size != m for size in sizes.values()):
        return None
    # True twins form a module: a neighbour of one twin is a neighbour of
    # every twin. So each vertex's 3m - 1 neighbours are its m - 1 twins
    # and two whole classes of m, the quotient on the classes is
    # 2-regular, and it is one cycle exactly when g is connected.
    if _component_mask(adj, 0) != _full_mask(n):
        return None
    return (length, m)


def hitting_independent_set(g: Graph) -> HittingSetResult:
    """Search exhaustively for an independent set meeting every maximum
    clique (removal then drops the clique number by exactly one).

    Outcomes: exception when the graph is a recognized odd-cycle strong
    product, which has no transversal (checked first, before any search);
    found (with certificate); not_found when the complete search proves
    no transversal exists. The search raises BudgetExceededError once it
    has visited EXACT_NODES nodes; the walk that lists the maximum
    cliques before it has no budget.
    """
    det = detect_cycle_clique_product(g)
    if det is not None:
        # The maximum cliques of C_L x K_m are the pairs of consecutive
        # fibres. An independent set takes at most one vertex per fibre
        # from pairwise non-consecutive fibres, so a transversal would be
        # an independent vertex cover of the odd cycle C_L: none exists.
        return HittingSetResult("exception", cycle_len=det[0], m=det[1])
    cliques = all_maximum_cliques(g)
    if not cliques:
        return HittingSetResult("not_found")
    omega = len(cliques[0])
    adj = g.adjacency_bits
    clique_masks = [kernels.to_mask(c) for c in cliques]
    holding: list[list[int]] = [[] for _ in range(g.n)]  # holding[v]: cliques holding v
    for c, clique in enumerate(cliques):
        for v in clique:
            holding[v].append(c)
    held = [kernels.to_mask(indices) for indices in holding]  # held[v]: as a bitset
    # free[c]: clique c's options, its vertices not yet forbidden. Each
    # choice updates only the cliques holding a vertex it forbids, and
    # backtracking undoes that; by_free[f] is the bitset of the unhit
    # cliques with f options, by their listed index.
    free = [omega] * len(cliques)
    by_free = [0] * omega + [(1 << len(cliques)) - 1]

    def branch_clique(by_free: list[int]) -> int:
        """The first unhit clique in listed order with at most one
        option, else the first with the fewest; -1 when every clique is
        hit."""
        first = by_free[0] | by_free[1] or next(filter(None, by_free), 0)
        return (first & -first).bit_length() - 1

    # Depth first, each node branching on its clique's options in
    # ascending order; the stack holds each open node's chosen set,
    # forbidden set, untried options, by_free and unhit cliques, and the
    # vertices the option tried below it forbade.
    stack: list[tuple[int, int, int, list[int], int, int]] = []
    chosen = forbidden = nodes = 0
    unhit = by_free[omega]
    while True:
        nodes += 1
        if nodes > EXACT_NODES:
            raise BudgetExceededError(f"stopped after {EXACT_NODES} nodes")
        c = branch_clique(by_free)
        if c < 0:
            break
        stack.append((chosen, forbidden, clique_masks[c] & ~forbidden, by_free, unhit, 0))
        while True:
            if not stack:
                return HittingSetResult("not_found")
            chosen, forbidden, opts, saved, unhit, tried = stack[-1]
            for u in kernels.from_mask(tried):
                for c in holding[u]:
                    free[c] += 1
            if opts:
                break
            stack.pop()
        bit = opts & -opts
        v = bit.bit_length() - 1
        newly = (adj[v] | bit) & ~forbidden
        stack[-1] = (chosen, forbidden, opts ^ bit, saved, unhit, newly)
        chosen |= bit
        forbidden |= newly
        by_free = list(saved)
        hit = held[v] & unhit
        unhit ^= hit
        for c in kernels.from_mask(hit):
            by_free[free[c]] ^= 1 << c
        for u in kernels.from_mask(newly):
            for c in holding[u]:
                f = free[c]
                free[c] = f - 1
                if unhit >> c & 1:
                    by_free[f] ^= 1 << c
                    by_free[f - 1] |= 1 << c
    after = clique_number_within(g, _full_mask(g.n) & ~chosen).omega
    if after != omega - 1:
        raise SearchFailureError(
            f"transversal removal left clique number {after}, expected {omega - 1}")
    return HittingSetResult(
        "found", kernels.from_mask(chosen), omega_before=omega, omega_after=after)


# ---------------------------------------------------------------------------
# k-way partition: color, search, recolor


@lru_cache(maxsize=1024)
def _deal_order(quotas: tuple[int, ...]) -> tuple[int, ...]:
    """The part each class goes to, largest class first: the classes are
    dealt round-robin, skipping a part once it holds p_i - 1 of them, so
    slot (t, i), part i's (t+1)-th class, comes in (t, i) order.

    A part's certificate costs about as much as a clique search of its
    size, so k parts of about r/k classes each cost far less than a first
    part holding most of V. Cached by quota list, which many graphs share.
    """
    return tuple(i for _, i in sorted((t, i) for i, p in enumerate(quotas) for t in range(p - 1)))


def _deal(g: Graph, classes: _Classes, quotas, strategy: str) -> Partition:
    """The partition made of at most sum(p_i - 1) classes of a proper
    coloring: part i takes at most p_i - 1 classes, so it holds no
    K_{p_i}.

    When all the classes fit in part 1, V is part 1 and every other part
    is empty: the answer is ``graphs._whole``'s vertex tuple and zero
    assignment, built once per graph, so such a deal builds nothing of
    size n and ``oracle.verify_partition`` checks it without reading
    its vertices.

    Otherwise classes go to parts whole, so only each part's sort and the
    assignment read single vertices: a part's members are its classes'
    members, sorted once, its mask is the OR of its classes' bitsets in
    the clique search's numbering, and each vertex goes to the part
    holding its class, by the class bitsets and class index laid out
    beside the classes (``_Classes``).

    Every part of a split deal, one dealt a single class included, also
    hands ``_certify`` its list of class bitsets, built in the same loop,
    so if the memo does not hold the part yet it is searched from its
    own classes as its root colouring (``kernels.max_clique_size``): a
    part of c classes starts from a colour bound of c, each class is
    coloured once per graph, a clique with a vertex in each of the c
    classes settles the part, and its clique number is exact whether or
    not the coloring is proper.
    """
    n, k = g.n, len(quotas)
    if len(classes) <= quotas[0] - 1:
        # V is then the one part to certify, and its entry is the one
        # the precondition check has already filled; the full mask is
        # the same in every numbering.
        whole, zeros = _whole(g)
        masks = (_full_mask(n),) + (0,) * (k - 1)
        return _certify(g, zeros, (whole,) + ((),) * (k - 1), masks, _UNSEEDED, strategy)
    part_of = _deal_order(tuple(quotas))
    members: list[list[int]] = [[] for _ in quotas]
    masks = [0] * k
    seeds: list[list[int]] = [[] for _ in quotas]
    for cls, mask, i in zip(classes, classes.masks, part_of):
        members[i] += cls
        masks[i] |= mask
        seeds[i].append(mask)
    parts = tuple(tuple(sorted(side)) for side in members)
    return _certify(g, tuple(map(part_of.__getitem__, classes.index)), parts, masks, seeds,
                    strategy)


def _coloring_strategy(g: Graph, quotas, diags: dict) -> Partition | None:
    classes = _dsatur_classes(g)
    room = sum(quotas) - len(quotas)
    if len(classes) > room:
        diags["coloring"] = f"DSatur used {len(classes)} > {room} classes"
        return None
    return _deal(g, classes, quotas, "coloring")


@_per_graph
def _tabucol_classes(g: Graph) -> _Classes | None:
    """The classes of a (max degree - 1)-coloring of g found by TabuCol
    (Hertz & de Werra, 1987), or None when RECOLOR_MOVES moves find none.
    Kept in g's memo, None included, like ``_dsatur_classes``.

    It starts from DSatur's classes, the i-th taking color i mod (max
    degree - 1). A move, which scans only the conflicting vertices,
    recolors one to the color that removes the most conflicting edges,
    ties drawn by an RNG seeded from n and the edge count; its old color
    is then tabu for 7 + 0.6 c moves, c the conflicting vertices, unless
    taking it beats every coloring seen.
    """
    n, colors = g.n, g.max_degree - 1
    nbrs = g.adjacency
    rng = random.Random(_mix(n, sum(map(len, nbrs))))
    color = [0] * n
    for c, cls in enumerate(_dsatur_classes(g)):
        for v in cls:
            color[v] = c % colors
    count = [[0] * colors for _ in range(n)]  # count[v][c]: v's neighbours colored c
    for v in range(n):
        for u in nbrs[v]:
            count[v][color[u]] += 1
    conflicting = {v for v in range(n) if count[v][color[v]]}
    conflicts = best = sum(count[v][color[v]] for v in conflicting) // 2
    tabu: dict[tuple[int, int], int] = {}  # (v, c) -> first move v may take c again
    for move in range(RECOLOR_MOVES):
        if not conflicting:
            break
        moves = [(count[v][c] - count[v][color[v]], v, c)
                 for v in sorted(conflicting) for c in range(colors) if c != color[v]]
        moves = [m for m in moves if tabu.get(m[1:], 0) <= move or conflicts + m[0] < best]
        if not moves:
            continue
        gain = min(moves)[0]
        v, c = rng.choice([m[1:] for m in moves if m[0] == gain])
        tabu[v, color[v]] = move + 7 + len(conflicting) * 3 // 5
        for u in nbrs[v]:
            count[u][color[v]] -= 1
            count[u][c] += 1
        color[v] = c
        for u in nbrs[v] + (v,):
            if count[u][color[u]]:
                conflicting.add(u)
            else:
                conflicting.discard(u)
        conflicts += gain
        best = min(best, conflicts)
    return None if conflicting else _Classes(color, _search_numbering(g))


def _checked(part: Partition, quotas) -> Partition:
    """``part`` once its certificates meet the quotas; SearchFailureError
    if one does not."""
    if not part.satisfies(quotas):
        raise SearchFailureError(
            "post-verification failed",
            {"omegas": [c.omega for c in part.certificates], "quotas": tuple(quotas)})
    log.debug("%s solved by %s", tuple(quotas), part.strategy)
    return part


def kway_clique_partition(g: Graph, spec) -> Partition:
    """Split V(g) into k parts meeting every quota, for quota lists with
    sum(p_i) = max degree - 1 + k and clique number at most max degree - 1.
    The result depends on g and the quotas alone.

    For k = 1 the preconditions make V the answer ("verify"). For k >= 2
    the stages run in turn until one answers: DSatur's coloring when it
    fits the max degree - 1 classes of room ("coloring"), one exact search
    of the whole list ("exact"), and TabuCol only when that search ran
    out of nodes ("recoloring"). A search that finds nothing is a proof
    (proven_infeasible); when all three fail, AllStrategiesExhausted has
    one diagnostic per stage and depth 0. The answer is certified with
    exact clique numbers, or SearchFailureError is raised.
    """
    if not isinstance(spec, PartitionSpec):
        spec = PartitionSpec(tuple(spec))
    if not spec.feasible_for(g):
        raise PreconditionError(
            f"quota sum {sum(spec.quotas)} differs from max degree - 1 + k = "
            f"{g.max_degree - 1 + spec.k}")
    _check_omega(g)
    if spec.k == 1:
        whole, zeros = _whole(g)
        full = (_full_mask(g.n),)
        return _checked(_certify(g, zeros, (whole,), full, _UNSEEDED, "verify"), spec.quotas)
    diags: dict[str, str] = {}
    part = _coloring_strategy(g, spec.quotas, diags)
    if part is not None:
        return _checked(part, spec.quotas)
    try:
        assignment = _exact_partition_assignment(g, spec.quotas)
    except BudgetExceededError as exc:
        diags["exact"] = str(exc)
    else:
        if assignment is None:
            diags["exact"] = "proved infeasible"
            raise AllStrategiesExhausted(
                "exhaustive search proves no valid partition exists", diags,
                proven_infeasible=True)
        return _checked(_certify_assignment(g, assignment, spec.k, "exact"), spec.quotas)
    classes = _tabucol_classes(g)
    if classes is None:
        diags["recoloring"] = (
            f"TabuCol found no {g.max_degree - 1}-coloring in {RECOLOR_MOVES} moves")
        raise AllStrategiesExhausted(
            f"no valid ({','.join(map(str, spec.quotas))}) split found", diags)
    return _checked(_deal(g, classes, spec.quotas, "recoloring"), spec.quotas)


def clique_bipartition(g: Graph, p: int, q: int) -> Partition:
    """The two-part case of ``kway_clique_partition``: split V(g) into
    (V1, V2) with omega(g[V1]) <= p-1 and omega(g[V2]) <= q-1, for
    p >= q >= 2, p + q = max degree + 1 and clique number at most max
    degree - 1."""
    p, q = _integer_pair(p, q)
    if q < 2 or p < q:
        raise PreconditionError(f"need p >= q >= 2, got p={p}, q={q}")
    if p + q != g.max_degree + 1:
        raise PreconditionError(
            f"p+q={p + q} differs from max degree + 1 = {g.max_degree + 1}")
    return kway_clique_partition(g, PartitionSpec((p, q)))


# ---------------------------------------------------------------------------
# Maximum K_p-free side


def _parts_valid(g: Graph, v1_mask: int, v2_mask: int, p: int, q: int) -> bool:
    """Whether V1 holds no K_p and V2 no K_q, both bitsets in the clique
    search's numbering, asked on its adjacency and tables."""
    adj = _search_numbering(g).adj
    tables = _coloring_tables(g)
    return (not kernels.has_clique_of_size(adj, v1_mask, p, tables)
            and not kernels.has_clique_of_size(adj, v2_mask, q, tables))


def _grow_to_local_max(g: Graph, v1: int, v2: int, p: int, q: int) -> tuple[int, int]:
    """Enlarge V1 while both sides stay valid, V1 and V2 as bitsets in the
    clique search's numbering. Each round makes the first valid move of
    one sequence: single pulls, a in V2 by ascending label, then 2-in-1-out
    exchanges, (a, b) in combinations of V2 by ascending label, each with c
    in V1 by ascending label. Each round reads the sides' members back in
    the labels once, and each member's bit in the numbering, so no query
    is translated. Stops when no move applies, or after 400 rounds."""
    numbering = _search_numbering(g)
    for _ in range(400):
        # each side's vertices as their bits in the numbering, by label
        in1, in2 = ([numbering.mask((v,)) for v in numbering.members(side)] for side in (v1, v2))
        moves = itertools.chain(  # (bits into V1, bits out of V1)
            ((a, 0) for a in in2),
            ((a | b, c) for a, b in itertools.combinations(in2, 2) for c in in1))
        for into, out in moves:
            w1, w2 = (v1 | into) & ~out, (v2 | out) & ~into
            if _parts_valid(g, w1, w2, p, q):
                v1, v2 = w1, w2
                break
        else:
            break
    return v1, v2


def max_kpfree_partition(g: Graph, p: int, q: int) -> MaxKpfreeResult:
    """Valid bipartition maximizing |V1| among all valid bipartitions.
    Deterministic: the result depends on g, p and q alone.

    Exhaustive (certificate "exhaustive") up to 14 vertices: subsets are
    scanned by descending size and lexicographic order of their labels,
    so ties match the oracle's tie-break. Beyond that, a graph with
    clique number at most p-1 (always so for q = 1) is answered by
    V1 = V; otherwise the split from clique_bipartition, the two-part
    case of kway_clique_partition, is grown by single and double vertex
    moves (certificate "local": no single pull or 2-in-1-out exchange
    enlarges V1 with both sides valid). AllStrategiesExhausted from
    clique_bipartition is raised unchanged, proof flag and diagnostics
    included.

    Every query of the scan and the growth runs in the clique search's
    numbering (``cliques._search_numbering``), on the tables g's
    certificates read: the scan builds each subset's mask there, as
    ``kernels.to_mask`` would build it in the labels, and the growth
    starts from the split's parts moved there once, so no query is
    translated.
    """
    p, q = _integer_pair(p, q)
    if p < 1 or q < 1 or p < q:
        raise PreconditionError(f"need p >= q >= 1, got p={p}, q={q}")
    if p + q != g.max_degree + 1:
        raise PreconditionError(
            f"p+q={p + q} differs from max degree + 1 = {g.max_degree + 1}")
    cert = _check_omega(g)
    n = g.n
    numbering = _search_numbering(g)
    if n <= MAXFREE_EXHAUSTIVE_N:
        full = _full_mask(n)
        for size in range(n, -1, -1):
            for combo in itertools.combinations(range(n), size):
                mask = numbering.mask(combo)
                if _parts_valid(g, mask, full & ~mask, p, q):
                    part = partition_from_parts(
                        g, [combo, numbering.members(full & ~mask)],
                        strategy="maxfree-exhaustive")
                    return MaxKpfreeResult(part, "exhaustive")
        raise AllStrategiesExhausted(
            f"no valid ({p},{q}) split exists", proven_infeasible=True)
    if cert.omega <= p - 1:
        part = partition_from_parts(g, [list(range(n)), []], strategy="maxfree-local")
        return MaxKpfreeResult(part, "local")
    bip = clique_bipartition(g, p, q)
    v1, v2 = _grow_to_local_max(g, *map(numbering.mask, bip.parts), p, q)
    part = partition_from_parts(
        g, [numbering.members(v1), numbering.members(v2)], strategy="maxfree-local")
    return MaxKpfreeResult(part, "local")
