"""Exact clique-number computation and maximum-clique enumeration.

All operations are pure functions of immutable graphs; witnesses are
deterministic (lexicographically smallest among ties). Clique numbers of
vertex subsets are computed on a bitset mask of the graph itself, not on
an induced subgraph, and ``clique_number_within`` keeps them in the
graph's own memo, one entry per mask: the certificates the partition
engine builds and the per-part checks of ``verify_partition`` read the
same entries. A certificate's clique number is searched for at once and
its witness only when it is first read, since the callers check clique
numbers and read a witness only to report a violation. The clique
number's search runs in a numbering of the graph's vertices drawn from
its structure, not from its labels, on colouring tables built once per
graph, and the memo is keyed by each set's mask in that numbering. The
numbering's one translation, members in labels to a mask in it and back,
is ``_Numbering.mask`` and ``_Numbering.members``: the partition engine
builds every part's mask there and hands it to ``_certificate``, and
only a mask from outside, given to ``clique_number_within`` in the
labels, is translated, by ``_Numbering.from_label_mask``, which leaves it
as it is when the numbering is the labels' own. A part dealt
from colour classes also hands over its classes, which seed the search's
root colouring; the clique number is exact whatever they are. Each class
is coloured once per graph, in the tables, and a part whose classes hold
a clique with a vertex in each is settled by that clique alone. The
witness, and every
maximum clique, are then walked from the clique number by decision
queries in label order. The partition engine's own decision queries,
those of its exact search and of ``max_kpfree_partition``, run in the
numbering too, on the same tables, so each graph has one set of them.
Every per-graph result here lives in the graph's memo (see ``Graph``),
so it is freed with the graph, and equal but distinct graphs compute
their own.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from typing import NamedTuple, Sequence

from . import kernels
from .graphs import Graph, _per_graph

# The most clique numbers of vertex sets one graph's memo keeps; past
# it, the oldest entry makes room.
CERTIFICATES_PER_GRAPH = 4096


class CliqueCertificate:
    """Exact clique number together with one witnessing vertex set.

    It compares, hashes and prints as the pair (omega, witness), as a
    frozen dataclass of those two fields would. A certificate of
    ``clique_number_within`` holds its omega at once and searches for
    its witness when ``witness`` is first read, then keeps it.
    """

    __slots__ = ("omega", "_witness", "_labels", "_adj", "_mask")

    def __init__(self, omega: int, witness: tuple[int, ...]):
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "_witness", witness)
        object.__setattr__(self, "_adj", None)

    @classmethod
    def _deferred(cls, omega: int, labels, adj, mask: int) -> CliqueCertificate:
        """A certificate whose witness is walked within ``mask`` of the
        numbered adjacency ``adj`` when first read, and reported through
        ``labels`` as ``kernels.maximum_cliques`` does. It keeps these
        rather than the graph, so a graph's memo, which holds it, holds
        no reference back to the graph."""
        cert = cls(omega, ())
        object.__setattr__(cert, "_labels", labels)
        object.__setattr__(cert, "_adj", adj)
        object.__setattr__(cert, "_mask", mask)
        return cert

    @property
    def witness(self) -> tuple[int, ...]:
        adj = self._adj
        if adj is not None:
            witness = next(kernels.maximum_cliques(adj, self._mask, self.omega, self._labels))
            object.__setattr__(self, "_witness", witness)
            object.__setattr__(self, "_adj", None)
        return self._witness

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.omega, self.witness) == (other.omega, other.witness)

    def __hash__(self):
        return hash((self.omega, self.witness))

    def __repr__(self):
        return f"{type(self).__qualname__}(omega={self.omega!r}, witness={self.witness!r})"

    def __reduce__(self):
        return type(self), (self.omega, self.witness)


def clique_number_within(g: Graph, mask: int) -> CliqueCertificate:
    """Exact clique number of the vertex set ``mask`` (a bitset over
    ``g``'s vertices) with the lexicographically smallest witness, in
    ``g``'s own labels.

    The certificate is kept in g's memo and returned again for that mask
    of this graph object, not for an equal graph. The memo keeps at most
    CERTIFICATES_PER_GRAPH of them and drops the oldest to make room.

    The result equals ``clique_number`` of the induced subgraph with its
    witness mapped back. The empty mask has omega 0 and an empty witness.
    Omega comes from ``kernels.max_clique_size``, which follows no tie
    and runs in ``_search_numbering(g)`` on ``_coloring_tables(g)``, so
    its cost does not depend on how g's vertices happen to be labelled.
    A mask given here is in the labels, and is moved into that numbering
    by ``_Numbering.from_label_mask``, where the memo keys it: bit by bit
    through the ``power`` table, and not at all when the numbering is the
    labels' own, as on regular graphs; the partition engine builds each
    part's mask there itself, so none of its certificates is translated.
    The witness, the first clique of ``kernels.maximum_cliques``' walk
    from omega, is built by decision queries only when it is first read;
    they go in label order, so their cost does depend on the labels, and
    no workload operation reads a witness. A mask that ``operator.index``
    refuses, a negative mask, or one with a bit at or above n, raises
    ValueError, whatever the memo holds; ``True`` is the mask 1.
    """
    if type(mask) is not int:
        try:
            mask = operator.index(mask)
        except TypeError:
            raise ValueError(f"mask {mask!r} is not an integer") from None
    if mask >> g.n:
        raise ValueError(f"mask {mask:#x} is not a set of the graph's {g.n} vertices")
    return _certificate(g, _search_numbering(g).from_label_mask(mask))


def _certificate(g: Graph, mask: int, classes: Sequence[int] = ()) -> CliqueCertificate:
    """The certificate of ``mask``, a set of g's vertices in
    ``_search_numbering(g)``, from g's memo, or searched for and kept
    there: the one place that reads, fills and trims the memo.

    A part the engine dealt from colour classes comes with ``classes``,
    their bitsets in the search numbering, and on a memo miss they seed
    the search's root colouring, so a part dealt c classes has a colour
    bound of c at the root: each class's colouring is read from the
    tables' dict of coloured seeds once some search has made it, and a
    clique with a vertex in each of the c classes settles the part
    without a branch. The seeds only steer the search: the clique number
    is exact whatever they are, so an entry is the same whichever caller
    filled it."""
    try:
        certs = g._memo["certificates"]
    except KeyError:
        certs = g._memo["certificates"] = {}
    cert = certs.get(mask)
    if cert is not None:
        return cert
    labels, adj, _ = _search_numbering(g)
    cert = CliqueCertificate._deferred(
        kernels.max_clique_size(adj, mask, _coloring_tables(g), classes), labels, adj, mask)
    if len(certs) >= CERTIFICATES_PER_GRAPH:
        del certs[next(iter(certs))]
    certs[mask] = cert
    return cert


class _Numbering(NamedTuple):
    """A numbering of a graph's vertices: vertex ``labels[i]`` is numbered
    i, ``adj`` holds the adjacency bitsets in it, and ``power``, each
    label's bit there (``1 << i`` for ``labels[i]``), is None when the
    numbering is the labels' own and ``labels`` is ``range(n)``."""

    labels: Sequence[int]
    adj: tuple[int, ...]
    power: list[int] | None

    def mask(self, members) -> int:
        """The bitset in this numbering of ``members``, vertices in the
        labels: the one translation into it, by ``kernels.to_mask`` when
        the numbering is the labels' own, which is faster than a sum
        over ``power``. A repeated member leaves fewer set bits than
        members either way: ``to_mask`` sets its bit once, and the sum
        carries it into another."""
        if self.power is None:
            return kernels.to_mask(members)
        return sum(map(self.power.__getitem__, members))

    def from_label_mask(self, mask: int) -> int:
        """The bitset in this numbering of ``mask``, a bitset in the
        labels: ``mask`` itself when the numbering is the labels' own,
        else its members moved bit by bit through ``power``."""
        if self.power is None:
            return mask
        return self.mask(kernels.from_mask(mask))

    def members(self, mask: int) -> list[int]:
        """The labels of the vertices of ``mask``, a bitset in this
        numbering, ascending: the one translation back."""
        return sorted(map(self.labels.__getitem__, kernels.from_mask(mask)))


@_per_graph
def _search_numbering(g: Graph) -> _Numbering:
    """The numbering the clique searches of g run in: its vertices in
    increasing (degree, sum of the neighbours' degrees, label), as a
    ``_Numbering``, with labels ``range(n)`` and no ``power`` table when
    that order is the labels' own, as on regular graphs.

    Degree and the neighbours' degree sum do not depend on the labels,
    and on graphs like G(n, p) they tell nearly every vertex apart, so
    relabelling such a graph leaves the searches, and their cost, as they
    were. The label only breaks the ties left.
    """
    # on a regular graph every key ties up to the label
    if g.min_degree < g.max_degree:
        nbrs = g.adjacency
        degree = list(map(len, nbrs))
        key = [(degree[v], sum(map(degree.__getitem__, nbrs[v])), v) for v in range(g.n)]
        labels = sorted(range(g.n), key=key.__getitem__)
        if labels != list(range(g.n)):
            power = [0] * g.n
            for i, v in enumerate(labels):
                power[v] = 1 << i
            adj = tuple(sum(map(power.__getitem__, nbrs[v])) for v in labels)
            return _Numbering(labels, adj, power)
    return _Numbering(range(g.n), g.adjacency_bits, None)


@_per_graph
def _coloring_tables(g: Graph):
    """The tables every clique search of g reads, certificates and the
    partition engine's decision queries alike: ``kernels.coloring_tables``
    of ``_search_numbering(g)``'s adjacency, over all of g's vertices, in
    that numbering; the one table set of g.

    Their dict of coloured seeds is kept with them, so each class is
    coloured once for all of g's quota lists and freed with g. Only the
    classes ``partition._deal`` hands ``_certificate`` reach it as seeds,
    each whole, so it holds at most one entry per class of g's one or
    two colourings, DSatur's and TabuCol's."""
    return kernels.coloring_tables(_search_numbering(g).adj, (1 << g.n) - 1)


def clique_number(g: Graph) -> CliqueCertificate:
    """Exact clique number with the lexicographically smallest witness.

    The full-mask case of ``clique_number_within``, and kept in g's memo
    there; the full mask is the same set in every numbering. The empty
    graph has omega 0 and an empty witness.
    """
    return _certificate(g, (1 << g.n) - 1)


@_per_graph
def all_maximum_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every clique of maximum size, each sorted, listed in lexicographic
    order by ``kernels.maximum_cliques``' walk in the labels."""
    if g.n == 0:
        return ()
    full = (1 << g.n) - 1
    return tuple(kernels.maximum_cliques(g.adjacency_bits, full, clique_number(g).omega))
