"""Immutable graph type, DIMACS / JSON serialization, deterministic generators.

Vertices are dense 0-indexed integers. DIMACS files use the customary
1-indexed ``e u v`` lines and are shifted on parse. All generators are pure:
the same (kind, params, seed) triple always yields the same adjacency.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import GenerationError, GraphFormatError, RecipeError

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """Deterministically fold integers into one 64-bit RNG seed."""
    h = 0x9E3779B97F4A7C15
    for x in parts:
        h ^= (x & _MASK64) + 0x9E3779B97F4A7C15 + ((h << 6) & _MASK64) + (h >> 2)
        h &= _MASK64
    return h


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Immutable after construction. Adjacency is kept both as sorted tuples
    (for iteration and canonical output) and as per-vertex integer bitsets
    (for the clique kernels). Degree extremes and the edge count are cached.

    What the engine computes from the graph alone (its search tables,
    colorings, exact-search plan and the clique numbers of vertex sets)
    is kept in ``_memo``, a dict private to this object, so it is freed
    with the graph. Two equal graphs are two objects and share no entry.
    The memo takes no part in ``==``, ``hash`` or ``repr``, and a copied
    or unpickled graph starts with an empty one. Its entries hold no
    reference back to the graph. ``cliques.clique_number_within`` keeps
    at most ``cliques.CERTIFICATES_PER_GRAPH`` clique numbers of vertex
    sets in it, dropping the oldest first; every other entry is one per
    graph.
    """

    __slots__ = ("n", "edge_count", "max_degree", "min_degree",
                 "_neighbors", "_bits", "_hash", "_memo")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self._fill(tuple(tuple(sorted(s)) for s in sets))

    @classmethod
    def _from_neighbors(cls, neighbors: tuple[tuple[int, ...], ...]) -> Graph:
        """Graph whose vertex ``v`` has the neighbor tuple ``neighbors[v]``.

        Nothing is checked: each tuple must be sorted, in range, free of
        ``v`` itself, and the relation symmetric.
        """
        g = object.__new__(cls)
        g._fill(neighbors)
        return g

    def _fill(self, neighbors: tuple[tuple[int, ...], ...]) -> None:
        self.n = len(neighbors)
        self._neighbors = neighbors
        # summing distinct powers of two is their union; map() over a
        # bound method keeps the per-neighbor loop out of the interpreter
        shift = (1).__lshift__
        self._bits = tuple(sum(map(shift, s)) for s in neighbors)
        degrees = list(map(len, neighbors))
        self.edge_count = sum(degrees) // 2
        self.max_degree = max(degrees, default=0)
        self.min_degree = min(degrees, default=0)
        self._hash = None
        self._memo = {}

    def __getstate__(self):
        return self._neighbors

    def __setstate__(self, neighbors):
        self._fill(neighbors)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._neighbors

    @property
    def adjacency_bits(self) -> tuple[int, ...]:
        return self._bits

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._bits[u] >> v) & 1) if u != v else False

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in self._neighbors[u]:
                if u < v:
                    out.append((u, v))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._neighbors == other._neighbors

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._neighbors))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _per_graph(fn):
    """``fn(g)``, computed once per Graph object and kept in its memo
    under ``fn``'s name. Equal but distinct graphs compute it each."""
    key = fn.__name__

    @functools.wraps(fn)
    def memoized(g: Graph):
        memo = g._memo
        try:
            return memo[key]
        except KeyError:
            pass
        memo[key] = result = fn(g)
        return result

    return memoized


# ---------------------------------------------------------------------------
# DIMACS edge format


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: ``p edge n m`` header, ``c`` comments,
    1-indexed ``e u v`` lines.

    Duplicate edges collapse silently; self-loops and out-of-range
    endpoints are rejected with the offending line number.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphFormatError(
                    f"line {lineno}: malformed header, expected 'p edge <n> <m>'")
            try:
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header fields") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative header fields")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge line before problem line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed edge line")
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise GraphFormatError(f"line {lineno}: endpoint out of range [1..{n}]")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line type {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing problem line")
    return Graph(n, edges)


def serialize_dimacs(g: Graph) -> str:
    """Canonical DIMACS text: header then edges sorted by (min, max), 1-indexed."""
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_adjacency_json(g: Graph) -> dict:
    """Machine form used by the CLI: 0-indexed edge list."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def from_adjacency_json(data: dict) -> Graph:
    """Inverse of ``to_adjacency_json``. ``n`` and every edge endpoint must
    be JSON integers: a float, string or boolean is rejected, not truncated."""
    try:
        n = data["n"]
        edges = data["edges"]
    except (KeyError, TypeError):
        raise GraphFormatError("adjacency JSON must contain 'n' and 'edges'") from None
    # bool is a subclass of int, but true is not a JSON integer.
    if type(n) is not int:
        raise GraphFormatError(f"'n' must be an integer, got {n!r}")
    try:
        pairs = [(u, v) for u, v in edges]
    except (TypeError, ValueError):
        raise GraphFormatError("'edges' must be a list of [u, v] pairs") from None
    for pair in pairs:
        if type(pair[0]) is not int or type(pair[1]) is not int:
            raise GraphFormatError(f"edge endpoints must be integers, got {list(pair)!r}")
    try:
        return Graph(n, pairs)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# Structural operations


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``s`` plus the index map back to ``g``.

    The map is the sorted tuple of the chosen vertices: new vertex ``i``
    corresponds to ``vertices[i]`` in ``g``. Edges come from the chosen
    vertices' own neighbor tuples, so a call costs O(vol(s)), not O(m).
    """
    vertices = tuple(sorted(set(s)))
    for v in vertices:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    pos = {v: i for i, v in enumerate(vertices)}
    # pos is increasing, so each mapped neighbor tuple stays sorted
    neighbors = tuple(tuple([pos[u] for u in g.neighbors(v) if u in pos]) for v in vertices)
    return Graph._from_neighbors(neighbors), vertices


def strong_product(g1: Graph, g2: Graph) -> Graph:
    """Strong product: (u1,u2) ~ (v1,v2) iff both coordinates are
    equal-or-adjacent and the pairs differ. Vertex (u1,u2) maps to
    index ``u1 * g2.n + u2``."""
    if g1.n == 0 or g2.n == 0:
        raise ValueError("strong product requires nonempty graphs")
    n2 = g2.n
    n = g1.n * n2
    edges = []
    for a in range(n):
        u1, u2 = divmod(a, n2)
        for b in range(a + 1, n):
            v1, v2 = divmod(b, n2)
            ok1 = u1 == v1 or g1.has_edge(u1, v1)
            ok2 = u2 == v2 or g2.has_edge(u2, v2)
            if ok1 and ok2:
                edges.append((a, b))
    return Graph(n, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union with g2's vertices shifted by g1.n."""
    shift = g1.n
    edges = g1.edges() + [(u + shift, v + shift) for u, v in g2.edges()]
    return Graph(g1.n + g2.n, edges)


# ---------------------------------------------------------------------------
# Generators

@dataclass
class GeneratorRecipe:
    """Deterministic construction request: family kind, numeric params, seed."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(_mix(1, seed, n, int(p * 10**9)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _random_regular(n: int, d: int, seed: int) -> Graph:
    # Pairing model: pair stubs, keep the simple edges, reshuffle only the
    # stubs whose pairs collided. A stuck attempt restarts with the next
    # deterministic sub-seed.
    if d == 0:
        return Graph(n)
    if d < 0 or d >= n:
        raise GenerationError(f"degree d={d} requires 0 <= d < n={n}")
    if (n * d) % 2 != 0:
        raise GenerationError(f"n*d = {n}*{d} is odd, no {d}-regular graph on {n} vertices")
    if d > (n - 1) // 2:
        # dense side: pair the sparse complement instead, then flip
        sparse = _random_regular(n, n - 1 - d, seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if not sparse.has_edge(u, v)]
        return Graph(n, edges)

    def suitable(edges: set[tuple[int, int]], leftovers: dict[int, int]) -> bool:
        if not leftovers:
            return True
        nodes = sorted(leftovers)
        for i, s1 in enumerate(nodes):
            for s2 in nodes[i + 1:]:
                if (s1, s2) not in edges:
                    return True
        return False

    def attempt_once(rng: random.Random) -> set[tuple[int, int]] | None:
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            leftovers: dict[int, int] = {}
            rng.shuffle(stubs)
            for i in range(0, len(stubs), 2):
                u, v = stubs[i], stubs[i + 1]
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftovers[u] = leftovers.get(u, 0) + 1
                    leftovers[v] = leftovers.get(v, 0) + 1
            if not suitable(edges, leftovers):
                return None
            stubs = [v for v in sorted(leftovers) for _ in range(leftovers[v])]
        return edges

    for attempt in range(200):
        edges = attempt_once(random.Random(_mix(2, seed, n, d, attempt)))
        if edges is not None:
            return Graph(n, sorted(edges))
    raise GenerationError(f"pairing model failed for n={n}, d={d} after 200 attempts")


def _strong_product_cycle_clique(cycle_len: int, m: int) -> Graph:
    if cycle_len < 5 or cycle_len % 2 == 0:
        raise GenerationError("cycle length must be odd and at least 5")
    if m < 1:
        raise GenerationError("clique factor must have at least one vertex")
    return strong_product(_cycle(cycle_len), _complete(m))


def _disjoint_clique_union(sizes: Sequence[int]) -> Graph:
    if not sizes:
        raise GenerationError("disjoint_union needs at least one clique size")
    if any(s < 1 for s in sizes):
        raise GenerationError("clique sizes must be positive")
    edges = []
    start = 0
    for s in sizes:
        edges += itertools.combinations(range(start, start + s), 2)
        start += s
    return Graph(start, edges)


def _join_pendant_clique(base_len: int, clique: int, attach: int) -> Graph:
    if base_len < 3:
        raise GenerationError("base cycle needs at least 3 vertices")
    if clique < 1:
        raise GenerationError("pendant clique needs at least one vertex")
    if not (0 <= attach < base_len):
        raise GenerationError(f"attach vertex {attach} outside base cycle")
    g = disjoint_union(_cycle(base_len), _complete(clique))
    return Graph(g.n, g.edges() + [(attach, base_len)])


def generate(recipe: GeneratorRecipe) -> Graph:
    """Build the graph a recipe describes; identical recipes yield identical graphs."""
    kind, p = recipe.kind, recipe.params
    try:
        if kind == "complete":
            if p["n"] < 1:
                raise GenerationError("complete graph needs n >= 1")
            return _complete(p["n"])
        if kind == "cycle":
            if p["n"] < 3:
                raise GenerationError("cycle needs n >= 3")
            return _cycle(p["n"])
        if kind == "path":
            if p["n"] < 1:
                raise GenerationError("path needs n >= 1")
            return _path(p["n"])
        if kind == "gnp":
            if p["n"] < 0 or not (0.0 <= p["p"] <= 1.0):
                raise GenerationError("gnp needs n >= 0 and p in [0,1]")
            return _gnp(p["n"], p["p"], recipe.seed)
        if kind == "random_regular":
            return _random_regular(p["n"], p["d"], recipe.seed)
        if kind == "strong_product_cycle_clique":
            return _strong_product_cycle_clique(p["cycle_len"], p["m"])
        if kind == "disjoint_union":
            return _disjoint_clique_union(tuple(p["sizes"]))
        if kind == "join_pendant_clique":
            return _join_pendant_clique(p["base_len"], p["clique"], p["attach"])
    except KeyError as exc:
        raise GenerationError(f"recipe {kind!r} missing parameter {exc}") from None
    raise GenerationError(f"unknown generator kind {kind!r}")


def parse_recipe(text: str, seed: int = 0) -> GeneratorRecipe:
    """Parse a CLI recipe string.

    Forms: ``complete:N``, ``cycle:N``, ``path:N``, ``gnp:N,P``,
    ``regular:N,D``, ``strong:LxM``, ``union:S1+S2+...``,
    ``pendant:BASE,CLIQUE,ATTACH``.
    """
    if ":" not in text:
        raise RecipeError(f"recipe {text!r} must look like kind:params")
    head, _, body = text.partition(":")
    head = head.strip().lower()
    body = body.strip()
    try:
        if head == "complete":
            return GeneratorRecipe("complete", {"n": int(body)}, seed)
        if head == "cycle":
            return GeneratorRecipe("cycle", {"n": int(body)}, seed)
        if head == "path":
            return GeneratorRecipe("path", {"n": int(body)}, seed)
        if head == "gnp":
            n_s, p_s = body.split(",")
            return GeneratorRecipe("gnp", {"n": int(n_s), "p": float(p_s)}, seed)
        if head == "regular":
            n_s, d_s = body.split(",")
            return GeneratorRecipe("random_regular", {"n": int(n_s), "d": int(d_s)}, seed)
        if head == "strong":
            l_s, m_s = body.lower().split("x")
            return GeneratorRecipe(
                "strong_product_cycle_clique",
                {"cycle_len": int(l_s), "m": int(m_s)}, seed)
        if head == "union":
            sizes = tuple(int(s) for s in body.split("+"))
            return GeneratorRecipe("disjoint_union", {"sizes": sizes}, seed)
        if head == "pendant":
            b_s, c_s, a_s = body.split(",")
            return GeneratorRecipe(
                "join_pendant_clique",
                {"base_len": int(b_s), "clique": int(c_s), "attach": int(a_s)}, seed)
    except (ValueError, IndexError):
        raise RecipeError(f"cannot parse recipe {text!r}") from None
    raise RecipeError(f"unknown recipe kind {head!r}")
