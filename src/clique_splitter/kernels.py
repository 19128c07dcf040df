"""Clique kernels over integer bitsets, in pure Python.

``adj`` is a sequence of per-vertex neighbour bitsets (bit u of
``adj[v]`` is set when uv is an edge) and ``mask`` restricts a search to
a vertex subset. One colouring search, ``_search``, answers both clique
questions: ``max_clique_size`` finds the clique number, the one number a
certificate is checked by, and ``has_clique_of_size`` decides whether a
mask holds a clique of a given size. It bounds each branch by a greedy
colouring (Tomita & Seki, DMTCS 2003) and takes each colouring step from
per-vertex tables of bitsets (``coloring_tables``), as BBMC does (San
Segundo, Rodriguez-Losada & Jimenez, Comput. Oper. Res. 2011); its cost,
like its result, depends on the adjacency alone, not on any labels.
``max_clique_size`` can seed the root's colouring with vertex sets, such
as the colour classes a part was dealt: each set is coloured greedily on
its own first, so a set with an edge inside takes several colours and
the result stays the exact clique number whatever the sets are; only
the cost depends on them. Each seed is coloured once per tables object,
which keeps its colouring for later searches, and when the seeds cover
the mask, one clique with a vertex in every root class settles the
clique number before any branch.
``has_clique_of_size`` runs no search on three kinds of query, each
answered from the mask: a size up to 1, a mask with fewer than ``size``
vertices, and a mask of exactly ``size`` vertices, which is answered by
a clique test over ``adj``.
``maximum_cliques`` walks the largest cliques in lexicographic order
of their sorted labels by decision queries, given the clique number:
its first is the certificate's witness, and all of them are the cliques
a hitting independent set must meet.
Every result is deterministic: it depends on the arguments alone. A
mask with a negative value or a bit at or above ``len(adj)`` is no set
of the vertices, and every search given one raises ValueError naming it.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence


def coloring_tables(adj: Sequence[int], mask: int
                    ) -> tuple[list[int], list[int], list[int], dict[int, tuple[int, ...]]]:
    """The three tables the colouring search reads, each indexed by
    v + 1, the ``bit_length()`` of a bitset whose top vertex is v: the
    vertices of ``mask`` that are neither v nor its neighbours,
    ``adj[v]``, and ``1 << v``. Entry 0 of each is 0.

    The fourth entry is a dict, empty at first, from each seed a seeded
    search has coloured on these tables (a seed less the bits that the
    mask and the earlier seeds left out) to that colouring, a tuple of
    class bitsets. Only ``_search``'s own colouring step fills it, and a
    later search seeded with the same bitset replays it: the colouring
    step reads nothing but the bitset and these tables. It has no cap:
    it grows by one entry for each distinct seed, so tables kept for
    many searches should be seeded from a fixed set of bitsets, as the
    engine's are by the classes of a graph's colourings.
    """
    bit = [0, *map((1).__lshift__, range(len(adj)))]
    apart = [0, *[mask & ~(a | b) for a, b in zip(adj, bit[1:])]]
    return apart, [0, *adj], bit, {}


def max_clique_size(adj: Sequence[int], mask: int,
                    tables: tuple[list[int], list[int], list[int],
                                  dict[int, tuple[int, ...]]] | None = None,
                    classes: Sequence[int] = ()) -> int:
    """The number of vertices of the largest clique within ``mask``; 0
    for the empty mask.

    A caller that searches one graph many times passes the
    ``coloring_tables`` it keeps for it, built for every vertex; without
    them, they are built for ``mask``. A search seeded on kept tables
    colours each seed it has not met there before and keeps that
    colouring in them.

    ``classes``, bitsets of vertices, seed the search's root colouring:
    each set, less the bits outside ``mask`` and those an earlier set
    took, is coloured greedily first, then what they leave of the mask.
    A set with an edge inside takes more than one colour, so every
    colour is still a set with no edge inside, and the result is the
    exact clique number whatever the sets are. A caller that holds a
    proper colouring of the mask in c colours, such as a part dealt
    from colour classes, passes it so the root's colour bound is c from
    the start rather than whatever greedy colouring finds. When the sets
    cover the mask and one clique takes a vertex from each of the root's
    c classes, c is the answer, found without a branch; otherwise the
    search branches from those classes.
    """
    if mask >> len(adj):
        raise _outside(mask, len(adj))
    tables = coloring_tables(adj, mask) if tables is None else tables
    return _search(tables, mask, 0, mask.bit_count() + 1, classes)


def _search(tables: tuple[list[int], list[int], list[int], dict[int, tuple[int, ...]]],
            mask: int, best: int, target: int, seeds: Sequence[int] = ()) -> int:
    """The clique number of ``mask``, or the floor ``best`` if larger;
    the search stops at the first clique of ``target`` vertices.

    Each node colours its candidates greedily, highest vertex first,
    into classes kept as bitsets, and branches from the highest colour
    down, highest vertex first, only where the colour bound exceeds the
    largest clique found so far: no tie is followed and no label is read.
    A colouring step is one AND with the vertex's non-neighbours and one
    XOR with its bit, read from ``tables`` at the class's ``bit_length()``.
    The root colours each of ``seeds`` as ``max_clique_size`` describes,
    then the candidates they leave; every other node starts unseeded.
    Each seed's colouring is read from the tables' dict of coloured
    seeds, or made by that colouring step and kept there. When the seeds
    cover the mask, the root's classes are independent sets that cover
    it, so no clique has more vertices than there are classes: the root
    first takes the highest vertex of each class, from the highest class
    down, that neighbours every vertex taken before it, and if every
    class gives one, that clique is the clique number and no branch is
    made. Seeds take the lowest colours, which a floor above 0 would skip
    unbranched, so they come with ``best`` 0 alone.
    """
    apart, nbrs, bit, colored = tables
    # The seeded root's classes and the candidates they leave, coloured
    # with expand's colouring step.
    seeded = None
    if seeds:
        assert not best, "seeds need a floor of 0"
        rest = mask
        root: list[int] = []
        for seed in seeds:
            seed &= rest
            rest ^= seed
            classes = colored.get(seed)
            if classes is None:
                classes = []
                left = seed
                while left:
                    cls = before = left
                    while cls:
                        b = cls.bit_length()
                        cls &= apart[b]
                        left ^= bit[b]
                    classes.append(before ^ left)
                colored[seed] = classes = tuple(classes)
            root += classes
        if not rest:
            # one vertex from each class, from the highest down, each a
            # neighbour of every vertex taken before it
            cand = mask
            for cls in reversed(root):
                cls &= cand
                if not cls:
                    break
                cand &= nbrs[cls.bit_length()]
            else:
                return len(root)
        seeded = root, rest

    def expand(cand: int, size: int, seeded: tuple[list[int], int] | None = None) -> bool:
        # True once best reaches target, which ends every node above.
        # Only a seeded root is given its classes, its seeds coloured
        # already, and the candidates they leave; every other node
        # colours all its candidates.
        nonlocal best
        if seeded is None:
            uncolored = cand
            classes: list[int] = []
        else:
            classes, uncolored = seeded
        # Classes numbered at most best - size cannot beat best: colour
        # them unrecorded, and end the node if they take every candidate.
        for _ in range(best - size):
            cls = uncolored
            while cls:
                b = cls.bit_length()
                cls &= apart[b]
                uncolored ^= bit[b]
            if not uncolored:
                return False
        while uncolored:
            cls = before = uncolored
            while cls:
                b = cls.bit_length()
                cls &= apart[b]
                uncolored ^= bit[b]
            classes.append(before ^ uncolored)
        cur = cand
        # The largest clique a branch on a vertex of the class can reach.
        reach = best + len(classes)
        for cls in reversed(classes):
            while cls:
                if reach <= best:
                    return False
                b = cls.bit_length()
                v = bit[b]
                cls ^= v
                cur ^= v
                sub = cur & nbrs[b]
                # v extends the clique by one; v and any vertex of sub by two
                reached = size + 2 if sub else size + 1
                if reached > best:
                    best = reached
                    if best >= target:
                        return True
                if sub and expand(sub, size + 1):
                    return True
            reach -= 1
        return False

    expand(mask, 0, seeded)
    # expand reaches itself through its closure, a cycle that only the
    # cycle collector frees: drop the tables from it, so that until then
    # it keeps nothing of the graph alive
    apart = nbrs = bit = None
    return best


def has_clique_of_size(adj: Sequence[int], mask: int, size: int,
                       tables: tuple[list[int], list[int], list[int],
                                     dict[int, tuple[int, ...]]] | None = None) -> bool:
    """True iff ``mask`` contains a clique with at least ``size`` vertices.

    Sizes up to 1, and masks with fewer than ``size`` vertices, are
    answered from the mask and ``len(adj)`` alone. A mask of exactly
    ``size`` vertices is answered by one clique test over ``adj``: each
    member, highest first, must neighbour every member below it; no
    tables are built and no search runs. Otherwise the colouring search
    starts from a floor of ``size - 1``, so it prunes every branch whose
    colour bound cannot reach ``size``, and stops at the first clique of
    ``size`` vertices. ``tables`` are as for ``max_clique_size``. A size
    that is no integer raises TypeError.
    """
    size = operator.index(size)
    if mask >> len(adj):
        raise _outside(mask, len(adj))
    if size <= 0:
        return True
    count = mask.bit_count()
    if count < size:
        return False
    if size == 1:
        return True
    if count == size:
        while mask:
            v = mask.bit_length() - 1
            mask ^= 1 << v
            if mask & adj[v] != mask:
                return False
        return True
    tables = coloring_tables(adj, mask) if tables is None else tables
    return _search(tables, mask, size - 1, size) >= size


def maximum_cliques(adj: Sequence[int], mask: int, omega: int,
                    labels: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Every clique of ``omega`` vertices within ``mask``, given the
    mask's clique number ``omega`` from ``max_clique_size``, each as its
    sorted tuple of labels, in lexicographic order; vertex i has the
    label ``labels[i]``, or i when ``labels`` is None. The empty mask
    gives the empty tuple alone. The first is a certificate's witness,
    built only when it is read.

    At each node of the walk, in label order, a candidate joins the
    clique, and the walk goes on within its neighbours among the
    candidates left, when they hold a clique of the size still wanted;
    either way it then leaves the candidates, so no clique comes twice.
    These decision queries share one build of ``coloring_tables``; their
    cost, unlike ``max_clique_size``'s, depends on the labels. No
    workload operation reads a witness. The mask is checked at the call,
    not at the first clique, and so is ``omega``: one that is no
    integer raises TypeError, as a size does in ``has_clique_of_size``.
    """
    omega = operator.index(omega)
    if mask >> len(adj):
        raise _outside(mask, len(adj))
    label = range(len(adj)) if labels is None else labels
    return _walk(adj, coloring_tables(adj, mask), label, [], mask, omega)


def _walk(adj: Sequence[int],
          tables: tuple[list[int], list[int], list[int], dict[int, tuple[int, ...]]],
          label: Sequence[int], found: list[int], cand: int,
          wanted: int) -> Iterator[tuple[int, ...]]:
    """``maximum_cliques``' walk below the clique ``found``, in labels,
    within ``cand``, for ``wanted`` more vertices. A module-level
    generator, not a closure over its own name, so a walk that is
    dropped leaves no reference cycle for the cycle collector."""
    if not wanted:
        yield tuple(found)
        return
    for v in sorted(from_mask(cand), key=label.__getitem__):
        sub = cand & adj[v]
        if has_clique_of_size(adj, sub, wanted - 1, tables):
            found.append(label[v])
            yield from _walk(adj, tables, label, found, sub, wanted - 1)
            found.pop()
        cand ^= 1 << v


def to_mask(vertices) -> int:
    """The bitset of ``vertices``. A negative vertex is no vertex: it
    raises the ValueError ``from_mask`` raises for a negative mask, with
    the vertex in the mask's place. Any other ValueError, such as one
    the iterable itself raises, passes through."""
    mask = v = 0
    try:
        for v in vertices:
            mask |= 1 << v
    except ValueError:
        # only a negative shift count fails the shift with ValueError
        if not v < 0:
            raise
        raise _negative_mask(v) from None
    return mask


def _outside(mask: int, n: int) -> ValueError:
    return ValueError(f"mask {mask:#x} is not a set of the {n} vertices")


def _negative_mask(mask: int) -> ValueError:
    return ValueError(f"mask {mask:#x} is negative, not a set of vertices")


def from_mask(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise _negative_mask(mask)
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark runs."""
    return "pure"
