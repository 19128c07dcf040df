"""Exact clique-number computation, maximum-clique enumeration, and
clique-structure diagnostics.

All operations are pure functions of immutable graphs; witnesses are
deterministic (lexicographically smallest among ties). Clique numbers of
vertex subsets are computed on a bitset mask of the graph itself, not on
an induced subgraph, and ``clique_number_within`` keeps the one cache of
them, keyed by (graph, mask): the certificates the partition engine
builds and the per-part checks of ``verify_partition`` read the same
entries. Each search runs in a numbering of the graph's vertices drawn
from its structure, not from its labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .errors import CliqueContradictionError, CliqueOverflowError
from .graphs import Graph

EMISSION_CAP = 10**6


@dataclass(frozen=True)
class CliqueCertificate:
    """Exact clique number together with one witnessing vertex set."""

    omega: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class CliqueIntersectionReport:
    """Pairwise intersection sizes of all cliques of a fixed size.

    ``flagged_pairs`` lists index pairs (i < j) whose intersection has
    ``target_size - 1`` or ``target_size - 2`` vertices.
    """

    target_size: int
    cliques: tuple[tuple[int, ...], ...]
    pairwise_intersections: tuple[tuple[int, ...], ...]
    flagged_pairs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=4096)
def clique_number_within(g: Graph, mask: int) -> CliqueCertificate:
    """Exact clique number of the vertex set ``mask`` (a bitset over
    ``g``'s vertices) with the lexicographically smallest witness, in
    ``g``'s own labels.

    The result equals ``clique_number`` of the induced subgraph with its
    witness mapped back. The empty mask has omega 0 and an empty witness.
    The search runs in ``_search_numbering(g)``, so its cost does not
    depend on how g's vertices happen to be labelled.
    """
    labels, adj, number = _search_numbering(g)
    if number is not None and mask != (1 << g.n) - 1:
        mask = sum(map((1).__lshift__, map(number.__getitem__, kernels.from_mask(mask))))
    witness = kernels.max_clique(adj, mask, labels)
    return CliqueCertificate(len(witness), witness)


@lru_cache(maxsize=1024)
def _search_numbering(g: Graph):
    """The numbering the clique searches of g run in: its vertices in
    increasing (degree, sum of the neighbours' degrees, label), their
    adjacency bitsets with vertex ``labels[i]`` numbered i, and each
    vertex's number; ``(None, g.adjacency_bits, None)`` when that order
    is the labels' own, as on regular graphs.

    Degree and the neighbours' degree sum do not depend on the labels,
    and on graphs like G(n, p) they tell nearly every vertex apart, so
    relabelling such a graph leaves the searches, and their cost, as they
    were. The label only breaks the ties left.
    """
    if g.min_degree == g.max_degree:
        # every key ties up to the label
        return None, g.adjacency_bits, None
    nbrs = g.adjacency
    degree = list(map(len, nbrs))
    key = [(degree[v], sum(map(degree.__getitem__, nbrs[v])), v) for v in range(g.n)]
    labels = sorted(range(g.n), key=key.__getitem__)
    if labels == list(range(g.n)):
        return None, g.adjacency_bits, None
    number = [0] * g.n
    for i, v in enumerate(labels):
        number[v] = i
    shift = (1).__lshift__
    adj = tuple(sum(map(shift, map(number.__getitem__, nbrs[v]))) for v in labels)
    return labels, adj, number


def clique_number(g: Graph) -> CliqueCertificate:
    """Exact clique number with the lexicographically smallest witness.

    The full-mask case of ``clique_number_within``, and cached there. The
    empty graph has omega 0 and an empty witness.
    """
    return clique_number_within(g, (1 << g.n) - 1)


@lru_cache(maxsize=1024)
def all_maximum_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every clique of maximum size, each sorted, listed in lexicographic order."""
    if g.n == 0:
        return ()
    full = (1 << g.n) - 1
    omega = clique_number(g).omega
    found = [kernels.from_mask(m) for m in kernels.maximal_cliques(g.adjacency_bits, full)
             if m.bit_count() == omega]
    return tuple(sorted(found))


def cliques_of_size(g: Graph, t: int) -> list[tuple[int, ...]]:
    """All cliques on exactly ``t`` vertices (not necessarily maximal).

    Enumerates t-subsets of maximal cliques and deduplicates. Raises
    CliqueOverflowError past 10^6 emitted subsets.
    """
    if not (1 <= t <= g.n):
        raise ValueError(f"clique size {t} outside [1..{g.n}]")
    adj = g.adjacency_bits
    full = (1 << g.n) - 1
    seen: set[tuple[int, ...]] = set()
    emitted = 0
    for m in kernels.maximal_cliques(adj, full):
        verts = kernels.from_mask(m)
        if len(verts) < t:
            continue
        for combo in itertools.combinations(verts, t):
            emitted += 1
            if emitted > EMISSION_CAP:
                raise CliqueOverflowError(
                    f"more than {EMISSION_CAP} cliques of size {t} emitted")
            seen.add(combo)
    return sorted(seen)


def intersection_report(g: Graph, t: int) -> CliqueIntersectionReport:
    """Pairwise intersections of all t-cliques, flagging pairs that share
    t-1 or t-2 vertices."""
    if t < 2:
        raise ValueError("intersection report needs t >= 2")
    cliques = tuple(cliques_of_size(g, t))
    sets = [frozenset(c) for c in cliques]
    k = len(cliques)
    matrix = tuple(
        tuple(len(sets[i] & sets[j]) for j in range(k)) for i in range(k)
    )
    flagged = tuple(
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if matrix[i][j] in (t - 1, t - 2)
    )
    return CliqueIntersectionReport(t, cliques, matrix, flagged)


def non_neighbor_witness(g: Graph, k, v: int, v2: int) -> tuple[int, int]:
    """For a maximum clique ``k`` and an edge v-v2 outside it, return
    distinct clique members w, w2 with v-w and v2-w2 both non-edges.

    If no such pair exists the input clique cannot be maximum: the proof
    object is a strictly larger clique, raised as CliqueContradictionError.
    """
    kset = tuple(sorted(set(k)))
    for u in kset:
        if not (0 <= u < g.n):
            raise ValueError(f"clique vertex {u} out of range")
    for a, b in itertools.combinations(kset, 2):
        if not g.has_edge(a, b):
            raise ValueError(f"input set is not a clique: {a}-{b} missing")
    if v in kset or v2 in kset or v == v2:
        raise ValueError("v and v2 must be distinct vertices outside the clique")
    if not g.has_edge(v, v2):
        raise ValueError(f"required edge {v}-{v2} missing")

    a_side = [w for w in kset if not g.has_edge(v, w)]
    b_side = [w for w in kset if not g.has_edge(v2, w)]
    for w in a_side:
        for w2 in b_side:
            if w != w2:
                return (w, w2)
    # No valid pair: exhibit a clique of size omega + 1.
    if not a_side:
        witness = tuple(sorted(kset + (v,)))
    elif not b_side:
        witness = tuple(sorted(kset + (v2,)))
    else:
        shared = a_side[0]
        witness = tuple(sorted([u for u in kset if u != shared] + [v, v2]))
    raise CliqueContradictionError(
        f"no non-neighbor pair exists; clique of size {len(witness)} found",
        witness)

