"""Independent brute-force oracles for the test suite.

Deliberately naive and kernel-free: these re-derive expected values from
first principles so the package's own search code is never checking itself.
"""

from __future__ import annotations

import itertools

from clique_splitter import Graph


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def is_clique(g: Graph, vs) -> bool:
    vs = list(vs)
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


def is_independent(g: Graph, vs) -> bool:
    vs = list(vs)
    return not any(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


def _omega_within(neighbor_sets, cand: frozenset) -> int:
    """Max clique size inside ``cand`` by plain include/exclude recursion."""
    if not cand:
        return 0
    v = min(cand)
    rest = cand - {v}
    return max(_omega_within(neighbor_sets, rest),
               1 + _omega_within(neighbor_sets, rest & neighbor_sets[v]))


def brute_omega(g: Graph) -> int:
    """Max clique size by plain include/exclude recursion over vertex sets."""
    return _omega_within([frozenset(g.neighbors(v)) for v in range(g.n)],
                         frozenset(range(g.n)))


def brute_mask_omega(adj, mask: int) -> int:
    """Max clique size inside the vertex bitset ``mask`` of the neighbour
    bitsets ``adj``, without the kernels."""
    def members(bits: int) -> frozenset:
        return frozenset(v for v in range(len(adj)) if bits >> v & 1)

    return _omega_within([members(row) for row in adj], members(mask))


def brute_cliques_of_size(g: Graph, t: int) -> list[tuple[int, ...]]:
    return [c for c in itertools.combinations(range(g.n), t) if is_clique(g, c)]


def brute_maximum_cliques(g: Graph) -> list[tuple[int, ...]]:
    omega = brute_omega(g)
    if omega == 0:
        return []
    return brute_cliques_of_size(g, omega)


def brute_maximal_cliques(adj, mask: int) -> list[int]:
    """All maximal cliques within the vertex bitset ``mask`` of the
    neighbour bitsets ``adj``, as bitsets (Bron & Kerbosch, CACM 1973,
    with the max-degree pivot), in a deterministic order."""
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


def brute_clique_within(g: Graph, members) -> tuple[int, tuple[int, ...]]:
    """(omega, lexicographically smallest maximum clique) of the subgraph
    induced by ``members``, built from its edge list, with the clique
    mapped back to ``g``'s labels. The empty set gives (0, ())."""
    vertices = sorted(set(members))
    sub = Graph(len(vertices), [(i, j) for i, u in enumerate(vertices)
                                for j in range(i + 1, len(vertices))
                                if g.has_edge(u, vertices[j])])
    for t in range(sub.n, 0, -1):
        found = brute_cliques_of_size(sub, t)
        if found:
            return t, tuple(vertices[i] for i in found[0])
    return 0, ()


def brute_has_transversal(g: Graph) -> bool:
    """Exists an independent set meeting every maximum clique (tiny n only)."""
    maxes = brute_maximum_cliques(g)
    if not maxes:
        return False
    sets = [set(c) for c in maxes]
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if not is_independent(g, combo):
                continue
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return True
    return False


def brute_degeneracy(g: Graph) -> int:
    alive = set(range(g.n))
    best = 0
    while alive:
        v = min(alive, key=lambda u: (sum(1 for w in g.neighbors(u) if w in alive), u))
        best = max(best, sum(1 for w in g.neighbors(v) if w in alive))
        alive.discard(v)
    return best


def brute_dsatur(g: Graph) -> list[int]:
    """DSatur by a full scan per step: highest saturation, then degree,
    then sum of the neighbours' degrees, then index; each vertex takes the
    smallest color its neighbors lack."""
    colors = [-1] * g.n
    seen: list[set[int]] = [set() for _ in range(g.n)]
    degree_sum = [sum(g.degree(w) for w in g.neighbors(u)) for u in range(g.n)]
    for _ in range(g.n):
        v = min(
            (u for u in range(g.n) if colors[u] < 0),
            key=lambda u: (-len(seen[u]), -g.degree(u), -degree_sum[u], u),
        )
        c = 0
        while c in seen[v]:
            c += 1
        colors[v] = c
        for u in g.neighbors(v):
            if colors[u] < 0:
                seen[u].add(c)
    return colors


def is_proper_coloring(g: Graph, colors) -> bool:
    """Whether ``colors`` gives every vertex a color and the two ends of
    every edge different colors."""
    return len(colors) == g.n and all(colors[u] != colors[v] for u, v in g.edges())


def is_union_of_classes(colors, part, limit: int) -> bool:
    """Whether ``part`` is exactly the union of at most ``limit`` color
    classes of ``colors``: it holds every vertex of each color it uses."""
    used = {colors[v] for v in part}
    return (len(used) <= limit
            and sorted(part) == [v for v, c in enumerate(colors) if c in used])


def brute_deal(colors, quotas) -> list[list[int]] | None:
    """The parts the one-shot coloring makes from ``colors``: its classes,
    largest first with ties broken by members, all go to the first part
    when it has room for every one of them (p_1 - 1 classes); otherwise
    they are handed out one at a time to the parts in turn, passing over
    any part that already holds p_i - 1. Each part comes back sorted;
    None when the classes outnumber the room, sum(p_i - 1)."""
    k = len(quotas)
    classes = sorted(([v for v, c in enumerate(colors) if c == color] for color in set(colors)),
                     key=lambda cls: (-len(cls), cls))
    if len(classes) > sum(quotas) - k:
        return None
    if len(classes) <= quotas[0] - 1:
        return [list(range(len(colors)))] + [[] for _ in range(k - 1)]
    parts: list[list[int]] = [[] for _ in range(k)]
    held = [0] * k
    turn = 0
    for cls in classes:
        while held[turn] == quotas[turn] - 1:
            turn = (turn + 1) % k
        parts[turn] += cls
        held[turn] += 1
        turn = (turn + 1) % k
    return [sorted(side) for side in parts]


def brute_components(g: Graph) -> list[set[int]]:
    """The vertex sets of g's connected components, by depth-first search."""
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def brute_first_assignment(g: Graph, quotas, by_component: bool = True,
                           twins: bool = True) -> tuple[list[int] | None, int]:
    """The first valid assignment in the exact search's order, found by
    plain recursion: vertices by descending degree, then index; parts in
    order, skipping a part that is empty when an earlier empty part has
    the same quota. With ``twins``, a vertex also skips every part below
    the one holding the last vertex placed before it whose closed
    neighbourhood equals its own. With ``by_component``, each connected
    component is searched on its own, components by their first vertex
    in that order, "empty" meaning empty within the component, and the
    search stops at the first component with no valid assignment;
    otherwise the whole graph is one search. Returns the assignment
    (None when none exists) with the number of nodes visited: the root
    plus one per placement."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    if by_component:
        comps = brute_components(g)
        groups = sorted(([v for v in order if v in c] for c in comps),
                        key=lambda vs: order.index(vs[0]))
    else:
        groups = [order]
    assignment = [0] * g.n
    calls = 1

    def place(vs, parts, i: int) -> bool:
        nonlocal calls
        if i == len(vs):
            return True
        v = vs[i]
        earlier = [u for u in vs[:i] if twins and closed[u] == closed[v]]
        floor = next(j for j, members in enumerate(parts)
                     if earlier[-1] in members) if earlier else 0
        for j in range(floor, len(quotas)):
            if not parts[j] and any(not parts[h] and quotas[h] == quotas[j]
                                    for h in range(j)):
                continue
            near = [u for u in parts[j] if g.has_edge(u, v)]
            if any(is_clique(g, c) for c in itertools.combinations(near, quotas[j] - 1)):
                continue
            calls += 1
            parts[j].append(v)
            if place(vs, parts, i + 1):
                return True
            parts[j].pop()
        return False

    for vs in groups:
        parts: list[list[int]] = [[] for _ in quotas]
        if not place(vs, parts, 0):
            return None, calls
        for j, members in enumerate(parts):
            for v in members:
                assignment[v] = j
    return assignment, calls


def has_clique_within(g: Graph, cands, t: int) -> bool:
    """Whether the vertices ``cands`` hold a clique of size ``t``, by
    extending cliques one larger vertex at a time."""
    if t <= 0:
        return True
    cands = sorted(cands)
    if len(cands) < t:
        return False
    return any(has_clique_within(g, [u for u in cands[i + 1:] if g.has_edge(u, v)], t - 1)
               for i, v in enumerate(cands))


def brute_improving_move(g: Graph, v1, v2, p: int, q: int):
    """A move that enlarges V1 and leaves V1 free of K_p and V2 free of
    K_q: a single pull (v,) from V2, or a 2-in-1-out exchange (a, b, c)
    of a, b from V2 for c from V1. None when neither kind exists."""
    v1, v2 = set(v1), set(v2)

    def valid(s1, s2) -> bool:
        return not has_clique_within(g, s1, p) and not has_clique_within(g, s2, q)

    for v in sorted(v2):
        if valid(v1 | {v}, v2 - {v}):
            return (v,)
    for a, b in itertools.combinations(sorted(v2), 2):
        for c in sorted(v1):
            if valid((v1 | {a, b}) - {c}, (v2 - {a, b}) | {c}):
                return (a, b, c)
    return None


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assignment in itertools.product(range(k), repeat=g.n):
            if all(assignment[u] != assignment[v] for u, v in g.edges()):
                return k
    raise AssertionError("unreachable")


def naive_partition_exists(g: Graph, quotas) -> bool:
    """Full k^n scan; every part must avoid cliques of its quota size."""
    quotas = tuple(quotas)
    k = len(quotas)
    for assignment in itertools.product(range(k), repeat=g.n):
        ok = True
        for i in range(k):
            part = [v for v in range(g.n) if assignment[v] == i]
            if any(is_clique(g, c) for c in itertools.combinations(part, quotas[i])):
                ok = False
                break
        if ok:
            return True
    return False


def valid_bipartition_sizes(g: Graph, p: int, q: int) -> list[int]:
    """All |V1| values over valid (K_p-free, K_q-free) bipartitions."""
    sizes = []
    for mask in range(1 << g.n):
        v1 = [v for v in range(g.n) if (mask >> v) & 1]
        v2 = [v for v in range(g.n) if not (mask >> v) & 1]
        if any(is_clique(g, c) for c in itertools.combinations(v1, p)):
            continue
        if any(is_clique(g, c) for c in itertools.combinations(v2, q)):
            continue
        sizes.append(len(v1))
    return sizes


def brute_first_transversal(g: Graph) -> tuple[tuple[int, ...] | None, int]:
    """The independent transversal of the maximum cliques that
    ``hitting_independent_set``'s search returns, or None, and the nodes
    it visits, by its rule read plainly: at each node every unhit clique's
    options are counted afresh; the node branches, in ascending order, on
    the options of the first clique in listed order with at most one of
    them, else of the first with the fewest. The empty graph gives
    (None, 0)."""
    cliques = [set(c) for c in brute_maximum_cliques(g)] if g.n else []
    if not cliques:
        return None, 0
    nodes = 0

    def visit(chosen: frozenset, forbidden: frozenset, unhit: list):
        nonlocal nodes
        nodes += 1
        if not unhit:
            return tuple(sorted(chosen))
        counts = [len(c - forbidden) for c in unhit]
        low = [i for i, cnt in enumerate(counts) if cnt <= 1]
        pick = low[0] if low else counts.index(min(counts))
        for v in sorted(unhit[pick] - forbidden):
            found = visit(chosen | {v}, forbidden | {v} | set(g.neighbors(v)),
                          [c for c in unhit if v not in c])
            if found is not None:
                return found
        return None

    found = visit(frozenset(), frozenset(), cliques)
    return found, nodes
