import copy
import dataclasses
import functools
import gc
import itertools
import operator
import pickle
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clique_splitter as cs
import clique_splitter.kernels as kernels
from clique_splitter import partition
from clique_splitter.cliques import (
    _coloring_tables,
    _label_tables,
    _search_numbering,
    clique_number_within,
)
from _brute import (
    brute_clique_within,
    brute_cliques_of_size,
    brute_mask_omega,
    brute_maximal_cliques,
    brute_maximum_cliques,
    brute_omega,
    is_clique,
    petersen,
)
from test_graphs import small_graphs


def K(n):
    return cs.generate(cs.GeneratorRecipe("complete", {"n": n}))


def C(n):
    return cs.generate(cs.GeneratorRecipe("cycle", {"n": n}))


def strong(length, m):
    return cs.generate(cs.GeneratorRecipe(
        "strong_product_cycle_clique", {"cycle_len": length, "m": m}))


def random_graph(n, p, seed):
    return cs.generate(cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))


SMALL_CORPUS = (
    [K(i) for i in range(1, 6)] + [C(i) for i in (4, 5, 6, 7)] +
    [petersen(), strong(5, 2), cs.Graph(0), cs.Graph(3)] +
    [random_graph(n, p, s) for n in (6, 9, 12) for p in (0.3, 0.6) for s in (0, 1)]
)


class TestCliqueNumber:
    def test_complete(self):
        cert = cs.clique_number(K(5))
        assert cert.omega == 5 and cert.witness == (0, 1, 2, 3, 4)

    def test_petersen_triangle_free(self):
        g = petersen()
        assert brute_omega(g) == 2  # exhaustive: no triangle exists
        assert cs.clique_number(g).omega == 2

    def test_c5_strong_k3(self):
        g = strong(5, 3)
        assert brute_omega(g) == 6
        assert cs.clique_number(g).omega == 6

    def test_empty_graph(self):
        cert = cs.clique_number(cs.Graph(0))
        assert cert.omega == 0 and cert.witness == ()

    def test_witness_is_lexicographically_smallest(self):
        # two maximum cliques: {1,2,3} and {0,4,5}; lex-smallest is (0,4,5)
        g = cs.Graph(6, [(1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (4, 5)])
        assert cs.clique_number(g).witness == (0, 4, 5)

    @pytest.mark.parametrize("g", SMALL_CORPUS, ids=repr)
    def test_matches_exhaustive_enumeration(self, g):
        cert = cs.clique_number(g)
        assert cert.omega == brute_omega(g)
        assert len(cert.witness) == cert.omega
        assert is_clique(g, cert.witness)


class TestCliqueNumberWithin:
    """Certificates on a mask of the graph equal the induced subgraph's,
    with the witness already in the graph's labels."""

    @given(small_graphs(), st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    def test_matches_induced_reference(self, g, bits):
        mask = bits & ((1 << g.n) - 1)
        cert = clique_number_within(g, mask)
        assert (cert.omega, cert.witness) == brute_clique_within(g, kernels.from_mask(mask))

    @pytest.mark.parametrize("g", SMALL_CORPUS, ids=repr)
    def test_full_mask_is_clique_number(self, g):
        assert clique_number_within(g, (1 << g.n) - 1) == cs.clique_number(g)

    @pytest.mark.parametrize("g", [cs.Graph(0), K(4), petersen()], ids=repr)
    def test_empty_mask(self, g):
        cert = clique_number_within(g, 0)
        assert cert.omega == 0 and cert.witness == ()

    def test_witness_in_graph_labels(self):
        # inside {3,..,8} the triangles are {3,4,5} and {6,7,8}
        g = cs.Graph(9, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                         (6, 7), (6, 8), (7, 8), (2, 6)])
        cert = clique_number_within(g, kernels.to_mask(range(3, 9)))
        assert cert.omega == 3 and cert.witness == (3, 4, 5)
        cert = clique_number_within(g, kernels.to_mask([2, 6, 7, 8]))
        assert cert.omega == 3 and cert.witness == (6, 7, 8)


class _Unreadable:
    """An ``adj`` of three vertices whose bitsets must not be read; its
    length bounds the masks a query accepts."""

    def __len__(self):
        return 3

    def __getitem__(self, v):
        raise AssertionError(f"query read adj[{v}]")


class TestSizeOneQueries:
    """Sizes up to 1, and masks with fewer than ``size`` vertices, are
    answered from the mask and the number of vertices alone, without
    reading ``adj``; a mask of exactly ``size`` vertices reads ``adj``
    but runs no search (``TestExactSizeQueries``). A size that is no
    integer is refused before any of these answers."""

    @pytest.mark.parametrize("mask", [0, 1, 0b100, 0b111])
    def test_answered_from_the_mask_alone(self, mask):
        assert kernels.has_clique_of_size(_Unreadable(), mask, 1) == (mask != 0)
        assert kernels.has_clique_of_size(_Unreadable(), mask, 0)
        assert kernels.has_clique_of_size(_Unreadable(), mask, -1)

    @pytest.mark.parametrize("mask, size", [(0, 2), (0b100, 2), (0b101, 3), (0b111, 4)])
    def test_too_few_vertices(self, mask, size):
        assert not kernels.has_clique_of_size(_Unreadable(), mask, size)

    @pytest.mark.parametrize("size", [2.5, 2.0])
    def test_a_size_that_is_no_integer(self, size):
        # K3 holds a clique of 2.5 vertices or more, which a search that
        # took the float as its target would deny; the size is read with
        # operator.index, as PartitionSpec reads its quotas
        with pytest.raises(TypeError):
            kernels.has_clique_of_size([0b110, 0b101, 0b011], 0b111, size)


def _graph_around(n, members, missing, seed):
    """Neighbour bitsets of a G(n, 1/2) graph whose ``members`` form a
    clique less the ``missing`` pairs."""
    rng = random.Random(seed)
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        both = u in members and v in members
        if (u, v) not in missing if both else rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@st.composite
def masks_in_large_graphs(draw, max_n=130, max_members=9):
    """A graph of up to ``max_n`` vertices, so masks can sit above bit
    63, and a mask of at most ``max_members`` of them that is a clique
    less a few of its pairs."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    members = draw(st.lists(st.integers(0, n - 1), max_size=max_members, unique=True)
                   if n else st.just([]))
    pairs = list(itertools.combinations(sorted(members), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    adj = _graph_around(n, set(members), missing, draw(st.integers(0, 2**32)))
    return adj, kernels.to_mask(members)


class TestExactSizeQueries:
    """A mask of exactly ``size`` vertices is answered by one clique test
    over ``adj``, with no tables and no search; a mask with vertices to
    spare still goes to the colouring search."""

    @staticmethod
    def _check(adj, mask):
        full = (1 << len(adj)) - 1
        omega = brute_mask_omega(adj, mask)
        count = mask.bit_count()
        for tables in (None, kernels.coloring_tables(adj, full),
                       kernels.coloring_tables(adj, mask)):
            for size in (count - 1, count, count + 1):
                assert kernels.has_clique_of_size(adj, mask, size, tables) == (omega >= size), (
                    size, omega)

    @given(masks_in_large_graphs())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_reference(self, case):
        self._check(*case)

    @pytest.mark.parametrize("members, missing", [
        ((), ()),
        ((100,), ()),
        ((3, 5), ()),
        (tuple(range(58, 70)), ()),
        (tuple(range(58, 70)), ((63, 64),)),
        ((0, 64, 65, 127, 129), ((0, 129),)),
    ], ids=["empty", "one-vertex", "K2", "K12-across-bit-63", "K12-less-an-edge",
            "K5-less-its-outer-edge"])
    def test_named_masks(self, members, missing):
        self._check(_graph_around(130, set(members), set(missing), 0), kernels.to_mask(members))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_complete_graphs_and_one_edge_less(self, n):
        full = (1 << n) - 1
        adj = [full ^ 1 << v for v in range(n)]
        self._check(adj, full)
        if n >= 2:
            adj[0] ^= 0b10
            adj[1] ^= 0b01
            self._check(adj, full)

    def test_answered_without_a_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(kernels, "coloring_tables", refuse)
        monkeypatch.setattr(kernels, "_search", refuse)
        adj = strong(13, 5).adjacency_bits  # fibre i is range(5 * i, 5 * i + 5)
        around = kernels.to_mask([*range(60, 65), *range(5)])  # fibres 12 and 0
        apart = kernels.to_mask([*range(60, 65), *range(5, 10)])  # fibres 12 and 1
        assert kernels.has_clique_of_size(adj, around, 10)
        assert not kernels.has_clique_of_size(adj, apart, 10)
        assert kernels.has_clique_of_size(adj, 0b11, 2)
        assert not kernels.has_clique_of_size(adj, 1 | 1 << 50, 2)  # fibres 0 and 10

    def test_a_vertex_to_spare_is_searched(self, monkeypatch):
        search = kernels._search
        calls = []

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(kernels, "_search", counted)
        adj = strong(13, 5).adjacency_bits
        around = kernels.to_mask([*range(60, 65), *range(6)])  # fibres 12 and 0, and 5
        apart = kernels.to_mask([*range(60, 65), *range(5, 10), 0])  # fibres 12 and 1, and 0
        assert kernels.has_clique_of_size(adj, around, 10)
        assert not kernels.has_clique_of_size(adj, apart, 10)
        assert len(calls) == 2

    def test_exact_search_searches_only_masks_with_vertices_to_spare(self, monkeypatch):
        # every two-part list of C_7 x K_3 (max degree 8, so p + q = 9):
        # the same assignments as with a kernel-free decision, and one
        # search per query that has vertices to spare
        g = strong(7, 3)
        lists = [(p, 9 - p) for p in range(2, 8)]
        query, search = kernels.has_clique_of_size, kernels._search

        def reference(adj, mask, size, tables=None):
            return brute_mask_omega(adj, mask) >= size

        monkeypatch.setattr(kernels, "has_clique_of_size", reference)
        expected = [partition._exact_partition_assignment(g, quotas) for quotas in lists]
        spares, searches = [], []

        def counted_query(adj, mask, size, tables=None):
            spares.append(mask.bit_count() - size)
            return query(adj, mask, size, tables)

        def counted_search(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(kernels, "has_clique_of_size", counted_query)
        monkeypatch.setattr(kernels, "_search", counted_search)
        for quotas, assignment in zip(lists, expected):
            spares.clear()
            searches.clear()
            assert partition._exact_partition_assignment(g, quotas) == assignment, quotas
            assert len(searches) == sum(spare > 0 for spare in spares), quotas
            assert 0 in spares, quotas


class TestAllMaximumCliques:
    def test_two_disjoint_k4(self):
        g = cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": (4, 4)}))
        found = cs.all_maximum_cliques(g)
        assert found == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_c5_edges(self):
        found = cs.all_maximum_cliques(C(5))
        assert found == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_c5_strong_k2_has_five(self):
        g = strong(5, 2)
        found = cs.all_maximum_cliques(g)
        # independent enumeration over all 4-subsets of the 10-vertex product
        expected = sorted(
            c for c in itertools.combinations(range(10), 4) if is_clique(g, c))
        assert list(found) == expected
        assert len(found) == 5

    @pytest.mark.parametrize("g", SMALL_CORPUS, ids=repr)
    def test_matches_brute_enumeration(self, g):
        assert list(cs.all_maximum_cliques(g)) == brute_maximum_cliques(g)

    @pytest.mark.parametrize("omega", [2.0, 2.5])
    def test_an_omega_that_is_no_integer(self, omega):
        # refused at the call, as has_clique_of_size refuses such a size,
        # not at the first clique read
        with pytest.raises(TypeError):
            kernels.maximum_cliques([0b110, 0b101, 0b011], 0b111, omega)

    def test_an_omega_read_as_an_index(self):
        class Two:
            def __index__(self):
                return 2

        triangle = [0b110, 0b101, 0b011]
        assert list(kernels.maximum_cliques(triangle, 0b111, Two())) == [(0, 1), (0, 2), (1, 2)]
        assert list(kernels.maximum_cliques(triangle, 0b111, 2)) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [5, 7, 9, 11, 13])
    def test_cycle_clique_products_in_closed_form(self, length, m):
        # the maximum cliques of C_L x K_m (odd L >= 5), fibre i being
        # range(i * m, i * m + m), are the L unions of two consecutive
        # fibres, each sorted, in lexicographic order
        def fibres(i, j):
            return tuple(sorted([*range(i * m, i * m + m), *range(j * m, j * m + m)]))

        g = strong(length, m)
        expected = tuple(sorted(fibres(i, (i + 1) % length) for i in range(length)))
        assert cs.all_maximum_cliques(g) == expected
        assert cs.clique_number(g).witness == expected[0]


class TestCliquesBySize:
    """Every t-clique of the exhaustive enumeration, as the search
    routines see it: the decision search finds a t-clique exactly when
    one exists, each t-clique is its own largest clique, and each lies
    inside some maximal clique."""

    @pytest.mark.parametrize("g", SMALL_CORPUS[:14], ids=repr)
    def test_matches_brute_for_all_sizes(self, g):
        adj = g.adjacency_bits
        full = (1 << g.n) - 1
        maximal = brute_maximal_cliques(adj, full)
        for t in range(1, min(g.n, 6) + 1):
            found = brute_cliques_of_size(g, t)
            assert kernels.has_clique_of_size(adj, full, t) == bool(found)
            assert kernels.has_clique_of_size(adj, full, t + 1) == bool(
                brute_cliques_of_size(g, t + 1))
            for c in found:
                mask = kernels.to_mask(c)
                cert = clique_number_within(g, mask)
                assert cert.omega == t and cert.witness == c
                assert any(mask & m == mask for m in maximal)

    @pytest.mark.parametrize("length,m", [(5, 2), (5, 3), (7, 2), (7, 3), (9, 2), (11, 2)])
    def test_cycle_clique_product_maximum_cliques_are_adjacent_fiber_pairs(self, length, m):
        # On C_L x K_m (odd L >= 5) the maximum cliques are the L unions of two
        # adjacent K_m fibers: two of them meet in one fiber or not at all,
        # and each meets exactly its two neighbors around the cycle
        g = strong(length, m)
        found = cs.all_maximum_cliques(g)
        assert list(found) == brute_cliques_of_size(g, 2 * m)
        assert len(found) == length
        sets = [set(c) for c in found]
        assert {len(a & b) for a, b in itertools.combinations(sets, 2)} == {0, m}
        for a in sets:
            assert sum(len(a & b) == m for b in sets if b is not a) == 2


@st.composite
def bitset_graphs(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    mask = 0
    for v in range(n):
        if draw(st.booleans()):
            mask |= 1 << v
    return adj, mask


class TestDecisionSemantics:
    @given(bitset_graphs())
    @settings(max_examples=80, deadline=None)
    def test_pure_kernel_against_reference(self, case):
        adj, mask = case
        omega = brute_mask_omega(adj, mask)
        for s in range(7):
            assert kernels.has_clique_of_size(adj, mask, s) == (omega >= s), (s, omega)


def _label_reference(adj, mask, labels) -> tuple[int, ...]:
    """The largest clique within mask whose sorted labels come first, by
    enumerating every vertex subset of mask from the largest size down."""
    members = kernels.from_mask(mask)
    for t in range(len(members), 0, -1):
        found = [tuple(sorted(labels[v] for v in c))
                 for c in itertools.combinations(members, t)
                 if all(adj[a] >> b & 1 for a, b in itertools.combinations(c, 2))]
        if found:
            return min(found)
    return ()


class TestMaxClique:
    """The first clique of ``maximum_cliques`` is the largest clique whose
    sorted labels come first, whatever numbering the search runs in."""

    @given(bitset_graphs(max_n=11), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_under_any_labels(self, case, rnd):
        adj, mask = case
        labels = list(range(len(adj)))
        rnd.shuffle(labels)
        omega = kernels.max_clique_size(adj, mask)
        assert next(kernels.maximum_cliques(adj, mask, omega, labels)) == _label_reference(
            adj, mask, labels)
        assert next(kernels.maximum_cliques(adj, mask, omega)) == _label_reference(
            adj, mask, range(len(adj)))

    def test_many_largest_cliques(self):
        # The complement of a perfect matching on 60 vertices has 2^30
        # largest cliques; the clique number's search follows none of
        # them, and each decision query of the witness stops at the first
        # clique it finds, so both end at once.
        n = 60
        g = cs.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u ^ 1])
        assert cs.clique_number(g).witness == tuple(range(0, n, 2))

    def test_search_numbering_ignores_the_labels(self):
        # In this G(60, 0.5) no two vertices share both their degree and
        # their neighbours' degree sum, so a relabelled copy is searched
        # in exactly the same numbering, at the same cost.
        from clique_splitter.cliques import _search_numbering

        g = random_graph(60, 0.5, 0)
        keys = {(g.degree(v), sum(g.degree(u) for u in g.neighbors(v))) for v in range(g.n)}
        assert len(keys) == g.n
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        h = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        g_labels, g_adj, _ = _search_numbering(g)
        h_labels, h_adj, _ = _search_numbering(h)
        assert h_adj == g_adj
        assert h_labels == [perm[v] for v in g_labels]
        assert cs.clique_number(h).omega == cs.clique_number(g).omega

    @pytest.mark.parametrize("n, d", [(1, 0), (12, 3), (40, 13), (200, 16)])
    def test_search_numbering_of_a_regular_graph_is_the_labels(self, n, d):
        # Every vertex ties on degree and neighbours' degree sum, so the
        # labels order them and the graph's own bitsets are searched.
        from clique_splitter.cliques import _search_numbering

        g = cs.generate(cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=4))
        assert _search_numbering(g) == (None, g.adjacency_bits, None)
        # the decision queries in the labels share the one table
        assert _label_tables(g) is _coloring_tables(g)


def _reference_clique(adj, mask, labels) -> tuple[int, ...]:
    """The largest clique within mask whose sorted labels come first, from
    ``_brute.brute_maximal_cliques``: in label order, the first vertex whose
    neighbours of larger label hold a clique of omega - 1 vertices, joined
    to the least such clique by sorted labels. Omega comes from the
    decision search, on the tables it builds for the mask."""
    omega = 0
    while kernels.has_clique_of_size(adj, mask, omega + 1):
        omega += 1
    for v in sorted(kernels.from_mask(mask), key=labels.__getitem__):
        if omega == 1:
            return (labels[v],)
        later = kernels.to_mask(u for u in kernels.from_mask(mask & adj[v]) if labels[u] > labels[v])
        found = [tuple(sorted(labels[u] for u in kernels.from_mask(c)))
                 for c in brute_maximal_cliques(adj, later) if c.bit_count() == omega - 1]
        if found:
            return (labels[v],) + min(found)
    return ()


LARGE_GRAPHS = [(65, 0.6, 0), (100, 0.45, 1), (150, 0.35, 2), (200, 0.3, 3)]


class TestMaxCliqueLarge:
    """The first clique of ``maximum_cliques`` on 65 to 200 vertices,
    whose bitsets span several machine words, against the reference from
    the maximal cliques; given the clique number ``max_clique_size``
    finds with the per-graph tables of ``cliques._coloring_tables`` and
    with the ones it builds for the mask when none are passed."""

    @pytest.mark.parametrize("order", ["own", "shuffled", "reversed"], ids=lambda o: f"{o}-labels")
    @pytest.mark.parametrize("n, p, seed", LARGE_GRAPHS)
    def test_matches_reference_with_and_without_the_table(self, n, p, seed, order):
        g = random_graph(n, p, seed)
        _, adj, _ = _search_numbering(g)
        rnd = random.Random(seed)
        labels = list(range(n))
        if order == "shuffled":
            rnd.shuffle(labels)
        elif order == "reversed":
            # label order runs against the search numbering
            labels = labels[::-1]
        masks = ((1 << n) - 1, kernels.to_mask(rnd.sample(range(n), n // 2)))
        expected = {mask: _reference_clique(adj, mask, labels) for mask in masks}
        for mask in masks:
            omega = kernels.max_clique_size(adj, mask)
            assert next(kernels.maximum_cliques(adj, mask, omega, labels)) == expected[mask]
            omega = kernels.max_clique_size(adj, mask, _coloring_tables(g))
            assert next(kernels.maximum_cliques(adj, mask, omega, labels)) == expected[mask]

    def test_dense_whole_graph(self):
        # shaped like the graphs of perfbench's dense workload, with 47
        # largest cliques; the witness is built from the clique number by
        # decision queries
        g = random_graph(120, 0.7, 0)
        full = (1 << g.n) - 1
        expected = _reference_clique(g.adjacency_bits, full, range(g.n))
        assert len(expected) == 15
        assert cs.clique_number(g).witness == expected
        assert next(kernels.maximum_cliques(g.adjacency_bits, full, len(expected))) == expected


def _maximum_reference(adj, mask, labels) -> list[tuple[int, ...]]:
    """Every largest clique within mask, as its sorted tuple of labels, in
    lexicographic order: the largest of ``_brute.brute_maximal_cliques``."""
    found = brute_maximal_cliques(adj, mask)
    omega = max(c.bit_count() for c in found)
    return sorted(tuple(sorted(labels[v] for v in kernels.from_mask(c)))
                  for c in found if c.bit_count() == omega)


class TestMaximumCliquesLarge:
    """``maximum_cliques`` lists every largest clique, in lexicographic
    order, on graphs whose bitsets span several machine words, against
    the largest of the maximal cliques; on the whole graph in its labels
    through ``all_maximum_cliques``, and on random masks in the search
    numbering's."""

    @pytest.mark.parametrize("order", ["own", "shuffled"], ids=lambda o: f"{o}-labels")
    @pytest.mark.parametrize("recipe", [
        *(cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed) for n, p, seed in LARGE_GRAPHS),
        cs.GeneratorRecipe("random_regular", {"n": 1000, "d": 14}, seed=0),
    ], ids=lambda r: f"{r.kind}-{r.params['n']}")
    def test_matches_the_maximal_cliques(self, recipe, order):
        g = cs.generate(recipe)
        rnd = random.Random(recipe.seed)
        if order == "shuffled":
            perm = list(range(g.n))
            rnd.shuffle(perm)
            g = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        found = cs.all_maximum_cliques(g)
        assert list(found) == sorted(found)
        assert list(found) == _maximum_reference(g.adjacency_bits, (1 << g.n) - 1, range(g.n))
        labels, adj, _ = _search_numbering(g)
        labels = range(g.n) if labels is None else labels
        for _ in range(20):
            mask = kernels.to_mask(rnd.sample(range(g.n), g.n // 2))
            expected = _maximum_reference(adj, mask, labels)
            omega = len(expected[0])
            assert list(kernels.maximum_cliques(adj, mask, omega, labels)) == expected, mask


class TestMaxCliqueSize:
    """``max_clique_size``, the search behind every certificate's clique
    number, against the include/exclude recursion of ``_brute``, with the
    colouring tables built for every vertex and without."""

    @given(bitset_graphs())
    @settings(max_examples=150, deadline=None)
    def test_small_graphs(self, case):
        adj, mask = case
        full = (1 << len(adj)) - 1
        tables = kernels.coloring_tables(adj, full)
        omega = brute_mask_omega(adj, mask)
        assert kernels.max_clique_size(adj, mask) == omega
        assert kernels.max_clique_size(adj, mask, tables) == omega

    @given(bitset_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_seeded_root_colouring_keeps_the_clique_number(self, case, data):
        # seeds steer the root colouring only: proper classes, classes
        # with edges inside, overlapping ones, bits outside the mask or
        # the graph, no classes at all, and classes that leave part of
        # the mask uncoloured all give the unseeded clique number
        adj, mask = case
        n = len(adj)
        omega = brute_mask_omega(adj, mask)
        assert kernels.max_clique_size(adj, mask) == omega
        order = data.draw(st.permutations(kernels.from_mask(mask)))
        proper: list[int] = []
        for v in order:  # a proper colouring of the mask, first fit
            for c, cls in enumerate(proper):
                if not cls & adj[v]:
                    proper[c] |= 1 << v
                    break
            else:
                proper.append(1 << v)
        kept = data.draw(st.integers(min_value=0, max_value=len(proper)))
        anything = st.lists(st.integers(min_value=0, max_value=(1 << (n + 3)) - 1), max_size=6)
        tables = kernels.coloring_tables(adj, (1 << n) - 1)
        for classes in (proper, proper[:kept], [], data.draw(anything),
                        proper[::-1] + data.draw(anything)):
            assert kernels.max_clique_size(adj, mask, None, classes) == omega, classes
            assert kernels.max_clique_size(adj, mask, tables, classes) == omega, classes

    @pytest.mark.parametrize("n, p, seed", LARGE_GRAPHS)
    def test_seeded_with_a_proper_colouring_above_the_first_word(self, n, p, seed):
        # DSatur's classes of the graph, in the search numbering, seed the
        # whole-graph search and those of masks of several classes
        g = random_graph(n, p, seed)
        _, adj, _ = _search_numbering(g)
        classes = partition._dsatur_classes(g).masks
        full = (1 << n) - 1
        omega = kernels.max_clique_size(adj, full, _coloring_tables(g))
        assert kernels.max_clique_size(adj, full, _coloring_tables(g), classes) == omega
        for start in range(0, len(classes), 3):
            dealt = classes[start:start + 3]
            mask = functools.reduce(operator.or_, dealt)
            expected = brute_mask_omega(adj, mask)
            assert expected <= len(dealt)
            assert kernels.max_clique_size(adj, mask, _coloring_tables(g), dealt) == expected

    @pytest.mark.parametrize("n, p, seed", LARGE_GRAPHS)
    def test_masks_across_word_boundaries(self, n, p, seed):
        g = random_graph(n, p, seed)
        _, adj, _ = _search_numbering(g)
        rnd = random.Random(seed)
        full = (1 << n) - 1
        masks = [full, 0, full ^ 1 << 63, full >> 64 << 64]
        # windows that straddle each 64-bit word boundary below n
        masks += [((1 << 24) - 1) << (w - 12) & full for w in range(64, n, 64)]
        masks += [kernels.to_mask(rnd.sample(range(n), n // 2)) for _ in range(3)]
        for mask in masks:
            omega = brute_mask_omega(adj, mask)
            assert kernels.max_clique_size(adj, mask) == omega, mask
            assert kernels.max_clique_size(adj, mask, _coloring_tables(g)) == omega, mask
        assert kernels.max_clique_size(adj, 0) == kernels.max_clique_size(adj, 0, _coloring_tables(g)) == 0

    def test_dense_whole_graph(self):
        # the shape of perfbench's dense workload; too dense for _brute,
        # so the decision search bounds omega from both sides
        g = random_graph(120, 0.7, 0)
        _, adj, _ = _search_numbering(g)
        full = (1 << g.n) - 1
        omega = kernels.max_clique_size(adj, full, _coloring_tables(g))
        assert omega == kernels.max_clique_size(adj, full) == 15
        assert kernels.has_clique_of_size(adj, full, omega)
        assert not kernels.has_clique_of_size(adj, full, omega + 1)

    def test_tables_agree_above_the_first_word_and_under_relabelling(self):
        # perfbench's dense shape, G(120, 0.7), and a relabelled copy:
        # every mask above bit 63 of the search numbering gets the same
        # omega with the per-graph tables, with the tables built for the
        # mask and from _brute, and no mask's omega moves with the labels;
        # the decision search finds a clique of omega vertices in each
        # mask and none of omega + 1, on the same mask in the labels with
        # _label_tables, and in the search numbering with the tables
        # built for the mask and with none
        g = random_graph(120, 0.7, 0)
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        h = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        rnd = random.Random(2)
        masks = [((1 << 24) - 1) << 64, ((1 << 24) - 1) << 96]
        masks += [kernels.to_mask(rnd.sample(range(64, 120), 24)) for _ in range(4)]
        for graph in (g, h):
            labels, adj, _ = _search_numbering(graph)
            omegas = {(1 << g.n) - 1: 15}
            for mask in masks:
                omega = brute_mask_omega(adj, mask)
                assert kernels.max_clique_size(adj, mask, _coloring_tables(graph)) == omega, mask
                assert kernels.max_clique_size(adj, mask) == omega, mask
                omegas[mask] = omega
            for mask, omega in omegas.items():
                labelled = kernels.to_mask(labels[v] for v in kernels.from_mask(mask))
                for size in (omega, omega + 1):
                    answers = {
                        kernels.has_clique_of_size(
                            graph.adjacency_bits, labelled, size, _label_tables(graph)),
                        kernels.has_clique_of_size(
                            adj, mask, size, kernels.coloring_tables(adj, mask)),
                        kernels.has_clique_of_size(adj, mask, size),
                    }
                    assert answers == {size == omega}, (mask, size)
        for mask in masks + [(1 << g.n) - 1]:
            moved = kernels.to_mask(perm[v] for v in kernels.from_mask(mask))
            assert clique_number_within(h, moved).omega == clique_number_within(g, mask).omega
        assert cs.clique_number(h).omega == 15


@st.composite
def seeded_masks(draw, max_n=130):
    """A graph of up to ``max_n`` vertices, so masks can sit above bit
    63, a mask of at most 16 of them, and seed lists for its search: a
    proper colouring of the mask, which covers it, and the same less
    some classes; a random split of the mask, whose blocks may hold
    edges; that split shuffled among overlapping subsets of the mask and
    the empty set; that split less its first block; and the subsets
    alone."""
    adj, mask = draw(masks_in_large_graphs(max_n=max_n, max_members=10))
    if adj:
        mask |= kernels.to_mask(draw(st.lists(st.integers(0, len(adj) - 1), max_size=6)))
    members = draw(st.permutations(kernels.from_mask(mask)))
    proper: list[int] = []
    for v in members:  # first fit
        for c, cls in enumerate(proper):
            if not cls & adj[v]:
                proper[c] |= 1 << v
                break
        else:
            proper.append(1 << v)
    kept = draw(st.integers(min_value=0, max_value=len(proper)))
    split = [0] * draw(st.integers(min_value=1, max_value=5))
    for v in members:
        split[draw(st.integers(0, len(split) - 1))] |= 1 << v
    subsets = [m & mask for m in draw(st.lists(st.integers(0, mask), max_size=3))]
    mixed = draw(st.permutations(split + subsets + [0]))
    return adj, mask, [proper, proper[:kept], split, mixed, split[1:], subsets]


class TestColouredSeeds:
    """A seeded search reads each seed's colouring from the tables' dict,
    or colours the seed and keeps it there, and when the seeds cover the
    mask it first tries one clique across the root's classes. Neither
    moves the clique number, whatever the seeds are."""

    @staticmethod
    def _check_colored(adj, colored):
        # each kept colouring is the seed split into independent sets
        for seed, classes in colored.items():
            assert type(classes) is tuple and all(classes)
            assert functools.reduce(operator.or_, classes, 0) == seed
            assert sum(cls.bit_count() for cls in classes) == seed.bit_count()
            for cls in classes:
                assert all(not adj[v] & cls for v in kernels.from_mask(cls))

    @given(seeded_masks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_reference(self, case, data):
        adj, mask, seed_lists = case
        full = (1 << len(adj)) - 1
        omega = brute_mask_omega(adj, mask)
        shared = kernels.coloring_tables(adj, full)
        for seeds in seed_lists:
            for fresh in (None, kernels.coloring_tables(adj, full),
                          kernels.coloring_tables(adj, mask)):
                assert kernels.max_clique_size(adj, mask, fresh, seeds) == omega, seeds
            tables = kernels.coloring_tables(adj, full)
            assert kernels.max_clique_size(adj, mask, tables, seeds) == omega, seeds
            colored = dict(tables[3])
            # the second search of the same seeds reads every colouring
            # from the dict and adds none
            assert kernels.max_clique_size(adj, mask, tables, seeds) == omega, seeds
            assert tables[3] == colored
            shuffled = data.draw(st.permutations(seeds))
            assert kernels.max_clique_size(adj, mask, tables, shuffled) == omega, shuffled
            assert kernels.max_clique_size(adj, mask, shared, seeds) == omega, seeds
            assert kernels.max_clique_size(adj, mask, shared, shuffled) == omega, shuffled
            self._check_colored(adj, tables[3])
        self._check_colored(adj, shared[3])

    def test_a_missed_pass_still_searches(self):
        # classes {0, 1}, {2, 3} and {4, 5} cover the mask properly, and
        # 0, 2, 4 is a triangle; the pass takes 5, the highest vertex of
        # the highest class, then 3, its one neighbour in the class below,
        # which has no neighbour in {0, 1}, and misses: the search then
        # finds omega 3, the root's class count
        edges = [(0, 2), (0, 4), (2, 4), (5, 3), (5, 1)]
        adj = [0] * 6
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        seeds = [0b000011, 0b001100, 0b110000]
        full = 0b111111
        assert adj[5] & seeds[1] == 0b001000 and not adj[3] & seeds[0]
        assert brute_mask_omega(adj, full) == 3
        tables = kernels.coloring_tables(adj, full)
        for _ in range(2):
            assert kernels.max_clique_size(adj, full, tables, seeds) == 3
        assert tables[3] == {seed: (seed,) for seed in seeds}
        assert kernels.max_clique_size(adj, full, None, seeds) == 3
        # two classes and no edge: the pass misses, and omega is 1
        assert kernels.max_clique_size([0, 0], 0b11, None, [0b01, 0b10]) == 1

    @pytest.mark.parametrize("g", [
        C(5), C(7), petersen(),
        cs.Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]),
    ], ids=["C5", "C7", "petersen", "wheel-5"])
    def test_an_improper_class_dealt_whole(self, g):
        # the whole vertex set as one seed: its greedy colouring takes
        # more colours than the clique number, and the pass takes a
        # vertex of a class only among the neighbours of those taken, so
        # it never certifies more than omega, from the dict or not
        adj = g.adjacency_bits
        full = (1 << g.n) - 1
        omega = brute_mask_omega(adj, full)
        tables = kernels.coloring_tables(adj, full)
        for _ in range(2):
            assert kernels.max_clique_size(adj, full, tables, [full]) == omega
        assert len(tables[3][full]) > omega
        self._check_colored(adj, tables[3])
        assert kernels.max_clique_size(adj, full, None, [full]) == omega


class TestMasksOutsideTheGraph:
    """A mask that is no set of the graph's vertices raises ValueError
    naming it, instead of looping forever (a negative mask) or raising a
    bare IndexError (a bit at or above n)."""

    def test_from_mask_of_a_negative_mask(self):
        with pytest.raises(ValueError, match="mask -0x1 "):
            kernels.from_mask(-1)
        assert kernels.from_mask(0) == ()

    @pytest.mark.parametrize("vertices", [[-1], [3, -5, 2], iter([0, -(1 << 70)])],
                             ids=["alone", "among-others", "huge-from-an-iterator"])
    def test_to_mask_of_a_negative_vertex(self, vertices):
        # worded as from_mask's error, not Python's "negative shift count"
        with pytest.raises(ValueError, match=r"mask -0x[0-9a-f]+ is negative, not a set of"):
            kernels.to_mask(vertices)

    def test_to_mask_passes_other_errors_through(self):
        def vertices():
            yield 2
            raise ValueError("from the iterable")

        with pytest.raises(ValueError, match="from the iterable"):
            kernels.to_mask(vertices())
        assert kernels.to_mask([]) == 0
        assert kernels.to_mask(iter([0, 3, 3])) == 0b1001

    @pytest.mark.parametrize("search", [
        lambda adj, mask: kernels.has_clique_of_size(adj, mask, 2),
        lambda adj, mask: kernels.has_clique_of_size(adj, mask, 0),
        kernels.max_clique_size,
        lambda adj, mask: kernels.maximum_cliques(adj, mask, 2),
    ], ids=["has_clique_of_size", "has_clique_of_size-0", "max_clique_size",
            "maximum_cliques"])
    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 10), 1 << 10, (1 << 11) - 1])
    def test_kernel_searches_of_a_negative_mask(self, search, mask):
        # (-1).bit_count() is 1, yet -1 is no one-vertex set
        adj = cs.generate(cs.GeneratorRecipe("gnp", {"n": 10, "p": 0.5}, seed=1)).adjacency_bits
        with pytest.raises(ValueError, match=f"mask {mask:#x} "):
            search(adj, mask)

    @pytest.mark.parametrize("recipe", [
        cs.GeneratorRecipe("random_regular", {"n": 10, "d": 3}, seed=1),  # searched in its labels
        cs.GeneratorRecipe("gnp", {"n": 10, "p": 0.5}, seed=1),           # renumbered
    ], ids=["identity-numbered", "renumbered"])
    @pytest.mark.parametrize("mask", [-1, -2, 1 << 10, (1 << 11) - 1])
    def test_clique_number_within(self, recipe, mask):
        g = cs.generate(recipe)
        with pytest.raises(ValueError, match=f"mask {mask:#x} "):
            clique_number_within(g, mask)

    @pytest.mark.parametrize("mask", [3.0, Fraction(3), "3", None], ids=repr)
    @pytest.mark.parametrize("memo", ["fresh", "mask 3 kept"])
    def test_non_integer_mask_refused_whatever_the_memo(self, memo, mask):
        # 3.0 and Fraction(3) hash and compare as 3 does
        g = cs.generate(cs.GeneratorRecipe("gnp", {"n": 10, "p": 0.5}, seed=1))
        if memo == "mask 3 kept":
            clique_number_within(g, 3)
        with pytest.raises(ValueError) as err:
            clique_number_within(g, mask)
        assert str(err.value) == f"mask {mask!r} is not an integer"

    @pytest.mark.parametrize("first", [True, 1])
    def test_true_is_mask_one(self, first):
        g = cs.generate(cs.GeneratorRecipe("gnp", {"n": 10, "p": 0.5}, seed=1))
        cert = clique_number_within(g, first)
        assert clique_number_within(g, True) is cert
        assert clique_number_within(g, 1) is cert
        assert (cert.omega, cert.witness) == (1, (0,))


def _old_certificate(omega, witness):
    """The frozen dataclass CliqueCertificate used to be."""
    cls = dataclasses.make_dataclass(
        "CliqueCertificate", [("omega", int), ("witness", tuple)], frozen=True)
    return cls(omega, witness)


class TestCliqueCertificate:
    """A certificate computes its witness when first read, and otherwise
    behaves as the frozen dataclass of (omega, witness) it replaced."""

    def test_repr_from_the_readme(self):
        # a new graph: its witness is walked when repr reads it
        g = cs.generate(cs.GeneratorRecipe("random_regular", {"n": 28, "d": 13}, seed=3))
        assert repr(cs.clique_number(g)) == "CliqueCertificate(omega=5, witness=(0, 1, 5, 19, 22))"

    @pytest.mark.parametrize("g", SMALL_CORPUS, ids=repr)
    def test_equality_hash_and_repr_match_the_dataclass(self, g):
        g = cs.Graph(g.n, g.edges())  # a new memo: the witness is not read yet
        cert = cs.clique_number(g)
        plain = cs.CliqueCertificate(cert.omega, cert.witness)
        old = _old_certificate(cert.omega, cert.witness)
        assert repr(cert) == repr(plain) == repr(old)
        assert hash(cert) == hash(plain) == hash(old)
        assert cert == plain and not cert != plain
        assert {cert, plain} == {plain}
        assert cert != old and cert != (cert.omega, cert.witness)
        assert cert != cs.CliqueCertificate(cert.omega + 1, cert.witness)
        assert cert != cs.CliqueCertificate(cert.omega, cert.witness + (g.n,))

    def test_a_certificate_compared_before_its_witness_is_read(self):
        g = random_graph(12, 0.6, 1)
        first = clique_number_within(g, (1 << g.n) - 1)
        second = clique_number_within(cs.Graph(g.n, g.edges()), (1 << g.n) - 1)
        assert first is not second and first == second
        assert second.witness == brute_clique_within(g, range(g.n))[1]

    def test_reading_the_witness_searches_no_clique_number(self, monkeypatch):
        # the certificate hands its omega to maximum_cliques, so the witness
        # costs decision queries alone, which share one build of the
        # colouring tables
        g = random_graph(120, 0.7, 0)
        cert = cs.clique_number(g)
        calls = []
        builds = []
        search = kernels.max_clique_size
        build = kernels.coloring_tables

        def counted(*args):
            calls.append(args)
            return search(*args)

        def built(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(kernels, "max_clique_size", counted)
        monkeypatch.setattr(kernels, "coloring_tables", built)
        assert cert.witness == (0, 5, 6, 17, 34, 42, 44, 46, 65, 66, 82, 85, 90, 94, 106)
        assert calls == []
        assert len(builds) == 1

    def test_reading_a_witness_leaves_no_walk_cycle(self):
        # the walk behind a witness reaches nothing of itself, so reference
        # counting frees it once the first clique is read; the colouring
        # search's own closure cycle is left to the collector
        g = random_graph(30, 0.5, 0)
        cert = cs.clique_number(g)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cert.witness
            gc.collect()
            names = {getattr(obj, "__name__", None) for obj in gc.garbage
                     if isinstance(obj, (types.FunctionType, types.GeneratorType))}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert not {"walk", "_walk"} & names
        assert "expand" in names

    def test_frozen_and_picklable(self):
        cert = clique_number_within(K(4), 0b1110)
        for name in ("omega", "witness"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(cert, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(_old_certificate(3, (1, 2, 3)), "omega", None)
        restored = pickle.loads(pickle.dumps(cert))
        assert restored == cert and restored.witness == (1, 2, 3)
        assert copy.copy(cert) == cert


class TestKernelBackend:
    def test_backend_reports_a_name(self):
        assert kernels.backend() == "pure"
