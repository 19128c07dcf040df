"""Exact clique-number computation and maximum-clique enumeration.

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

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .graphs import Graph


@dataclass(frozen=True)
class CliqueCertificate:
    """Exact clique number together with one witnessing vertex set."""

    omega: int
    witness: tuple[int, ...]


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
    witness = kernels.max_clique(adj, mask, labels, _apart(g))
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


@lru_cache(maxsize=1024)
def _apart(g: Graph) -> list[int]:
    """For each vertex i of ``_search_numbering(g)``, the bitset of the
    vertices other than i and its neighbours, in that numbering."""
    adj = _search_numbering(g)[1]
    full = (1 << g.n) - 1
    return [full ^ (a | 1 << i) for i, a in enumerate(adj)]


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
