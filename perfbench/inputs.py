"""Workload inputs, made from the workload seed by the benchmark's own code.

Each workload is a list of graphs, made with the program's public
generators, and a list of operations: (graph index, quota list). Graph
sizes and densities are fixed per workload, so runs with different seeds
do comparable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import checks

WORKLOADS = ("regime", "sparse-large", "dense", "hard-products")

# Percentile reported as solve_ms_tail. Each leaves at least ten of the
# operation times of a single round above it, and falls among operations
# of similar cost rather than at a gap, where it would jump between runs.
TAIL_PERCENTILE = {"regime": 95, "sparse-large": 75, "dense": 85, "hard-products": 87}

# (n, d) of the random-regular graphs of sparse-large. Most are at the
# smallest n, so that the median operation lies inside one cluster of
# similar operation times rather than at the edge between two.
SPARSE_GRAPHS = tuple((1000, d) for d in (14, 15, 16, 17, 17, 18, 19, 20)) + ((1250, 16), (2000, 14))
# (n, p) of the G(n, p) graphs of dense.
DENSE_GRAPHS = tuple((n, p) for n in (100, 110, 120) for p in (0.6, 0.65, 0.7))
# Odd cycle lengths L and clique sizes m of the products C_L x K_m.
PRODUCT_CYCLES = (5, 7, 9, 11, 13)
PRODUCT_CLIQUES = (2, 3, 4, 5)

_MASK64 = (1 << 64) - 1


def mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed. The same fold as the one the
    acceptance suite draws its criterion-2 corpus with, so that seed 0
    gives that corpus."""
    h = 0x9E3779B97F4A7C15
    for x in parts:
        h ^= (x & _MASK64) + 0x9E3779B97F4A7C15 + ((h << 6) & _MASK64) + (h >> 2)
        h &= _MASK64
    return h


@dataclass
class Workload:
    graphs: list        # the program's Graph objects
    labels: list        # one recipe string per graph
    ops: list           # (graph index, quota tuple)
    generate_s: float   # time spent inside the program's generators


class _Generator:
    """Calls the program's generator and keeps the time it took."""

    def __init__(self, cs):
        self.cs = cs
        self.seconds = 0.0
        self.graphs: list = []
        self.labels: list = []

    def __call__(self, kind: str, params: dict, seed: int = 0):
        recipe = self.cs.GeneratorRecipe(kind, params, seed)
        started = perf_counter()
        g = self.cs.generate(recipe)
        self.seconds += perf_counter() - started
        return g

    def relabelled(self, g, seed: int):
        """``g`` with its vertices renumbered by a permutation drawn from
        ``seed``; the time counts as generation."""
        started = perf_counter()
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = self.cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        self.seconds += perf_counter() - started
        return h

    def keep(self, g, label: str) -> int:
        self.graphs.append(g)
        self.labels.append(label)
        return len(self.graphs) - 1


def balanced(delta: int, k: int) -> tuple[int, ...]:
    """Non-increasing quotas, as equal as possible, summing to delta - 1 + k."""
    total = delta - 1 + k
    base, extra = divmod(total, k)
    return (base + 1,) * extra + (base,) * (k - extra)


def two_part_pairs(delta: int):
    """Every (p, q) with p >= q >= 2 and p + q = delta + 1."""
    for q in range(2, delta // 2 + 2):
        p = delta + 1 - q
        if p >= q:
            yield p, q


def _draw_quota_list(rng: random.Random, delta: int, k: int) -> tuple[int, ...]:
    """A criterion-3 style k-way list: random spread over 2s, with the two
    largest quotas summing to at least 14 when a draw allows it."""
    total = delta - 1 + k
    spare = total - 2 * k
    for _ in range(20):
        quotas = [2] * k
        for _ in range(spare):
            quotas[rng.randrange(k)] += 1
        quotas.sort(reverse=True)
        if quotas[0] + quotas[1] >= 14:
            return tuple(quotas)
    quotas = [2] * k
    quotas[0] += spare
    return tuple(sorted(quotas, reverse=True))


def _regime(gen: _Generator, seed: int, accepted: dict) -> list:
    """The 200-graph corpus of acceptance criterion 2: max degree >= 13,
    clique number <= max degree - 1, 20 <= n <= 60. The draw of sizes
    follows the acceptance suite; the generator seed of candidate i is
    seed * 100000 + i, so seed 0 gives the suite's corpus. The clique
    filter uses the benchmark's own test and leaves the program's caches
    empty; ``accepted`` remembers its verdicts across repeated set-ups."""
    idx = 0
    while len(gen.graphs) < 200 and idx < 4000:
        rng = random.Random(mix(90, idx))
        if idx % 2 == 0:
            n = rng.choice([20, 24, 28, 32, 40, 48, 56, 60])
            d = rng.choice([13, 14, 15, 16])
            if (n * d) % 2:
                n += 1
            kind, params, label = "random_regular", {"n": n, "d": d}, f"regular:{n},{d}"
        else:
            n = rng.choice([22, 30, 36, 44, 52, 60])
            p = rng.choice([0.35, 0.45, 0.55])
            kind, params, label = "gnp", {"n": n, "p": p}, f"gnp:{n},{p}"
        g_seed = seed * 100_000 + idx
        g = gen(kind, params, g_seed)
        idx += 1
        if not (20 <= g.n <= 60) or g.max_degree < 13:
            continue
        if idx not in accepted:
            full = (1 << g.n) - 1
            accepted[idx] = not checks.has_clique(checks.adjacency(g), full, g.max_degree)
        if accepted[idx]:
            gen.keep(g, f"{label} seed {g_seed}")
    if len(gen.graphs) != 200:
        raise RuntimeError(f"regime corpus has {len(gen.graphs)} graphs, not 200")
    ops = []
    for gi, g in enumerate(gen.graphs):
        ops.extend((gi, pq) for pq in two_part_pairs(g.max_degree))
    for gi, g in enumerate(gen.graphs):
        ops.append((gi, (2,) * (g.max_degree - 1)))
    rng = random.Random(mix(91, seed))
    for _ in range(300):
        k = rng.randint(3, 5)
        eligible = [gi for gi, g in enumerate(gen.graphs) if g.max_degree >= 11 + k]
        gi = eligible[rng.randrange(len(eligible))]
        ops.append((gi, _draw_quota_list(rng, gen.graphs[gi].max_degree, k)))
    return ops


# In sparse-large and dense the graphs are fixed instances (generator seed
# = position in the list) and the workload seed renumbers their vertices.
# The program then sees other inputs for every seed -- DSatur ties, clique
# search order and migration order all follow vertex numbers -- while the
# structure, and so the work, stays comparable: fresh G(120, 0.7)
# instances differ by about a quarter in clique-search time.


def _sparse_large(gen: _Generator, seed: int) -> list:
    ops = []
    for i, (n, d) in enumerate(SPARSE_GRAPHS):
        g = gen.relabelled(gen("random_regular", {"n": n, "d": d}, i), mix(5, seed, i))
        gi = gen.keep(g, f"regular:{n},{d} seed {i} relabelled by seed {seed}")
        delta = gen.graphs[gi].max_degree
        for quotas in (balanced(delta, 2), balanced(delta, 3), balanced(delta, 5),
                       (2,) * (delta - 1)):
            ops.append((gi, quotas))
    return ops


def _dense(gen: _Generator, seed: int) -> list:
    ops = []
    for i, (n, p) in enumerate(DENSE_GRAPHS):
        g = gen.relabelled(gen("gnp", {"n": n, "p": p}, i), mix(6, seed, i))
        gi = gen.keep(g, f"gnp:{n},{p} seed {i} relabelled by seed {seed}")
        delta = gen.graphs[gi].max_degree
        ops.extend((gi, balanced(delta, k)) for k in range(2, 13))
    return ops


def _hard_products(gen: _Generator, seed: int) -> list:
    """Odd-cycle strong products. They have no random part, so the seed
    changes nothing here, and the instances that fail are the same in
    every run."""
    ops = []
    for length in PRODUCT_CYCLES:
        for m in PRODUCT_CLIQUES:
            gi = gen.keep(gen("strong_product_cycle_clique", {"cycle_len": length, "m": m}),
                          f"strong:{length}x{m}")
            ops.extend((gi, pq) for pq in two_part_pairs(gen.graphs[gi].max_degree))
    return ops


def build(cs, name: str, seed: int, accepted: dict) -> Workload:
    """Make the graphs and operations of workload ``name`` for ``seed``."""
    gen = _Generator(cs)
    if name == "regime":
        ops = _regime(gen, seed, accepted)
    elif name == "sparse-large":
        ops = _sparse_large(gen, seed)
    elif name == "dense":
        ops = _dense(gen, seed)
    elif name == "hard-products":
        ops = _hard_products(gen, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(gen.graphs, gen.labels, ops, gen.seconds)
