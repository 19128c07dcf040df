import contextlib
import copy
import functools
import gc
import itertools
import logging
import pickle
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clique_splitter as cs
from clique_splitter import kernels, partition
from clique_splitter.cliques import (
    CERTIFICATES_PER_GRAPH,
    _coloring_tables,
    _search_numbering,
    clique_number_within,
)
from clique_splitter.partition import (
    _coloring_strategy,
    _dsatur_classes,
    _dsatur_coloring,
    _exact_partition_assignment,
    _tabucol_classes,
)
from _brute import (
    brute_deal,
    brute_dsatur,
    brute_first_assignment,
    brute_first_transversal,
    brute_has_transversal,
    brute_improving_move,
    brute_mask_omega,
    brute_omega,
    is_independent,
    is_proper_coloring,
    is_union_of_classes,
    petersen,
    valid_bipartition_sizes,
)
from test_graphs import small_graphs


def K(n):
    return cs.generate(cs.GeneratorRecipe("complete", {"n": n}))


def C(n):
    return cs.generate(cs.GeneratorRecipe("cycle", {"n": n}))


def gnp(n, p, seed):
    return cs.generate(cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))


def strong(length, m):
    return cs.generate(cs.GeneratorRecipe(
        "strong_product_cycle_clique", {"cycle_len": length, "m": m}))


def thinned_products(length, m, draws):
    """The first ``draws`` thinnings of C_length x K_m, all drawn from one
    ``random.Random(2)``: each drops every edge with probability 0.08."""
    full = strong(length, m)
    rng = random.Random(2)
    return [cs.Graph(full.n, [e for e in full.edges() if rng.random() >= 0.08])
            for _ in range(draws)]


def regular(n, d, seed):
    return cs.generate(cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))


class TestDsaturColoring:
    """The heap-ordered DSatur picks vertices in the same order as a full
    scan, so it must return the scan's coloring exactly."""

    @given(small_graphs())
    @settings(max_examples=200)
    def test_matches_scan_on_small_graphs(self, g):
        assert _dsatur_coloring(g) == brute_dsatur(g)

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_matches_scan_on_empty_graphs(self, n):
        g = cs.Graph(n)
        assert _dsatur_coloring(g) == brute_dsatur(g) == [0] * n

    @pytest.mark.parametrize("text", [
        "complete:1", "complete:7", "union:3+3+3", "union:1+4+2+4", "union:5+5",
    ])
    def test_matches_scan_on_tied_families(self, text):
        g = cs.generate(cs.parse_recipe(text))
        assert _dsatur_coloring(g) == brute_dsatur(g)

    @pytest.mark.parametrize("length", [5, 7, 9])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_scan_on_cycle_clique_products(self, length, m):
        g = strong(length, m)
        assert _dsatur_coloring(g) == brute_dsatur(g)

    def test_matches_scan_on_large_regular(self):
        g = regular(1000, 16, seed=3)
        assert _dsatur_coloring(g) == brute_dsatur(g)

    def test_matches_scan_on_large_non_regular(self):
        # degrees 5 to 28: rank differs from the index almost everywhere
        g = cs.generate(cs.parse_recipe("gnp:1500,0.01", seed=0))
        assert g.min_degree < g.max_degree
        assert _dsatur_coloring(g) == brute_dsatur(g)

    def test_matches_scan_on_relabelled_dense(self):
        # G(120, 0.7) reaches the highest saturations of any perfbench graph
        g = gnp(120, 0.7, 0)
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        h = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert _dsatur_coloring(h) == brute_dsatur(h)

    def test_matches_scan_on_components_of_different_degrees(self):
        parts = [regular(40, 3, 1), strong(7, 3), regular(30, 6, 2), gnp(50, 0.3, 4), K(6)]
        g = functools.reduce(cs.disjoint_union, parts)
        assert _dsatur_coloring(g) == brute_dsatur(g)

    @pytest.mark.parametrize("n, d", [(10, 3), (21, 4), (30, 13), (40, 16), (60, 7)])
    def test_matches_scan_on_small_regular(self, n, d):
        # On a regular graph every vertex ties on degree and degree sum,
        # so the index alone orders them.
        for seed in range(3):
            g = regular(n, d, seed)
            assert _dsatur_coloring(g) == brute_dsatur(g)

    def test_coloring_follows_the_structure_not_the_labels(self):
        # No two vertices of this G(60, 0.5) share both their degree and
        # their neighbours' degree sum, so the index never breaks a tie
        # and a relabelled copy is colored vertex for vertex the same way.
        g = cs.generate(cs.GeneratorRecipe("gnp", {"n": 60, "p": 0.5}, seed=0))
        keys = {(g.degree(v), sum(g.degree(u) for u in g.neighbors(v))) for v in range(g.n)}
        assert len(keys) == g.n
        perm = list(range(g.n))
        random.Random(2).shuffle(perm)
        h = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        colors, relabelled = _dsatur_coloring(g), _dsatur_coloring(h)
        assert [relabelled[perm[v]] for v in range(g.n)] == colors


class TestPartitionSpec:
    def test_accepts_non_increasing(self):
        spec = cs.PartitionSpec((5, 5, 3, 2))
        assert spec.k == 4

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            cs.PartitionSpec((3, 5))

    def test_rejects_small_quota(self):
        with pytest.raises(ValueError):
            cs.PartitionSpec((3, 1))

    @pytest.mark.parametrize("quotas", [(3.9, 2.2), (5.0, 2), ("3", 2), (3, None)])
    def test_rejects_non_integer_quota(self, quotas):
        with pytest.raises(ValueError, match="every quota must be an integer"):
            cs.PartitionSpec(quotas)

    def test_rejects_boolean_quota(self):
        # True is an integer index, 1, and so fails the lower bound
        with pytest.raises(ValueError, match="at least 2"):
            cs.PartitionSpec((3, True))

    def test_engine_rejects_float_quota(self):
        g = regular(28, 13, 3)
        with pytest.raises(ValueError, match="every quota must be an integer"):
            cs.kway_clique_partition(g, [5.5, 5, 5])

    def test_feasibility_tag(self):
        g = regular(10, 5, 0)  # max degree 5
        assert cs.PartitionSpec((4, 2)).feasible_for(g)  # 6 == 5 - 1 + 2
        assert not cs.PartitionSpec((3, 2)).feasible_for(g)


class TestPartitionBuilders:
    def test_from_parts_total(self):
        g = C(4)
        part = cs.partition_from_parts(g, [[0, 2], [1, 3]])
        assert part.assignment == (0, 1, 0, 1)
        assert part.certificates[0].omega == 1

    @pytest.mark.parametrize("n, parts, error, message", [
        (4, [[0, 1], [2, 3, 4]], ValueError, "vertex 4 out of range"),
        (4, [[0, -1], [1, 2, 3]], ValueError, "vertex -1 out of range"),
        (4, [[0, 1], [1, 2, 3]], ValueError, "vertex 1 assigned to two parts"),
        (4, [[0, 1], [2]], ValueError, "vertices [3] not assigned to any part"),
        (9, [[0, 2], [8]], ValueError, "vertices [1, 3, 4, 5, 6] not assigned to any part"),
        (4, [[0, 1.5], [2, 3]], TypeError, "list indices must be integers or slices, not float"),
    ], ids=["out-of-range", "negative", "two-parts", "none", "none-first-five", "float"])
    def test_malformed_parts_named(self, n, parts, error, message):
        with pytest.raises(error) as err:
            cs.partition_from_parts(C(n), parts)
        assert str(err.value) == message

    def test_huge_vertex_out_of_range(self):
        with pytest.raises(ValueError) as err:
            cs.partition_from_parts(C(4), [[0, 1], [2, 3, 2 ** 70]])
        assert str(err.value) == f"vertex {2 ** 70} out of range"

    def test_large_vertex_refused_without_its_bitset(self):
        # 1 << 200_000_000 alone would take 25 MB
        g = C(4)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertex 200000000 out of range"):
                cs.partition_from_parts(g, [[0, 1], [2, 3, 200_000_000]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("parts, expected", [
        ([[True, 0], [2, 3]], ((0, 1), (2, 3))),
        ([[2, True], [False, 3]], ((1, 2), (0, 3))),
        ([[0, 1, True], [2, 3]], ((0, 1), (2, 3))),
    ], ids=["true", "true-and-false", "true-beside-one"])
    def test_bool_vertices_read_as_ints(self, parts, expected):
        part = cs.partition_from_parts(C(4), parts)
        assert part.parts == expected
        assert all(type(v) is int for members in part.parts for v in members)

    def test_vertex_repeated_within_a_part_collapses(self):
        part = cs.partition_from_parts(C(4), [[3, 1, 3], [2, 0, 0]])
        assert part.parts == ((1, 3), (0, 2))
        assert part.assignment == (1, 0, 1, 0)

    def test_witnesses_are_in_graph_labels(self):
        g = cs.Graph(5, [(2, 3), (3, 4), (2, 4)])
        part = cs.partition_from_parts(g, [[2, 3, 4], [0, 1]])
        assert part.certificates[0].witness == (2, 3, 4)

    @pytest.mark.parametrize("assignment, k, message", [
        ([0, 5, 0], 2, "vertex 1 has part index 5, outside 0..1"),
        ([0, 1, -1], 2, "vertex 2 has part index -1, outside 0..1"),
        ([-2, 0, 0], None, "vertex 0 has part index -2, outside 0..0"),
    ])
    def test_part_index_out_of_range_named(self, assignment, k, message):
        with pytest.raises(ValueError) as err:
            cs.partition_from_assignment(cs.Graph(3), assignment, k)
        assert str(err.value) == message

    @pytest.mark.parametrize("assignment, k, message", [
        ([0, 1.0, 0], 2, "vertex 1 has part index 1.0, not an integer"),
        ([0, 1, Fraction(1)], None, "vertex 2 has part index Fraction(1, 1), not an integer"),
        ([0, "1", 0], 2, "vertex 1 has part index '1', not an integer"),
        ([None, 0, 0], None, "vertex 0 has part index None, not an integer"),
    ], ids=["float", "fraction", "str", "none"])
    def test_part_index_not_an_integer_named(self, assignment, k, message):
        with pytest.raises(ValueError) as err:
            cs.partition_from_assignment(cs.Graph(3), assignment, k)
        assert str(err.value) == message

    @pytest.mark.parametrize("k, message", [
        (2.0, "part count k must be an integer, got 2.0"),
        ("2", "part count k must be an integer, got '2'"),
        (Fraction(2), "part count k must be an integer, got Fraction(2, 1)"),
    ], ids=["float", "str", "fraction"])
    def test_part_count_not_an_integer(self, k, message):
        with pytest.raises(ValueError) as err:
            cs.partition_from_assignment(cs.Graph(3), [0, 1, 0], k)
        assert str(err.value) == message

    def test_bool_part_indices_accepted(self):
        part = cs.partition_from_assignment(C(4), [False, True, False, True])
        assert part.parts == ((0, 2), (1, 3))
        assert part.assignment == (0, 1, 0, 1)


class TestDegreeBoundedBipartition:
    def _assert_bounds(self, g, part, p, q):
        (v1, v2) = part.parts
        s1, s2 = set(v1), set(v2)
        for v in s1:
            assert sum(1 for u in g.neighbors(v) if u in s1) <= p
        for v in s2:
            assert sum(1 for u in g.neighbors(v) if u in s2) <= q
        sub1, _ = cs.induced_subgraph(g, v1)
        sub2, _ = cs.induced_subgraph(g, v2)
        assert cs.degeneracy(sub1) <= p - 1
        assert cs.degeneracy(sub2) <= q - 1

    def test_petersen(self):
        g = petersen()
        part = cs.degree_bounded_bipartition(g, 2, 1)
        self._assert_bounds(g, part, 2, 1)

    def test_k4_rejected_and_provably_unsplittable(self):
        # K4 has omega 4 above its max degree 3, so the hypothesis fails;
        # the exhaustive scan over all 2^4 assignments confirms no split
        # meets all four bounds, so rejecting is the only sound answer.
        g = K(4)
        valid = set()
        for mask in range(16):
            v1 = frozenset(v for v in range(4) if (mask >> v) & 1)
            v2 = frozenset(range(4)) - v1
            deg_ok = (all(sum(1 for u in g.neighbors(v) if u in v1) <= 2 for v in v1)
                      and all(sum(1 for u in g.neighbors(v) if u in v2) <= 1 for v in v2))
            if not deg_ok:
                continue
            sub1, _ = cs.induced_subgraph(g, v1)
            sub2, _ = cs.induced_subgraph(g, v2)
            if cs.degeneracy(sub1) <= 1 and cs.degeneracy(sub2) <= 0:
                valid.add((tuple(sorted(v1)), tuple(sorted(v2))))
        assert not valid
        with pytest.raises(cs.PreconditionError):
            cs.degree_bounded_bipartition(g, 2, 1)

    def test_c6_fails_precondition(self):
        with pytest.raises(cs.PreconditionError):
            cs.degree_bounded_bipartition(C(6), 2, 1)

    def test_omega_above_delta_rejected(self):
        with pytest.raises(cs.PreconditionError):
            cs.degree_bounded_bipartition(K(5), 2, 2)

    def test_wrong_sum_rejected(self):
        with pytest.raises(cs.PreconditionError):
            cs.degree_bounded_bipartition(petersen(), 2, 2)

    def test_non_integer_pair_rejected_before_any_search(self, monkeypatch):
        # 6.5 + 6.5 meets the max degree 13, so only the type is wrong
        g = regular(28, 13, 3)
        monkeypatch.setattr(partition, "clique_number", None)
        with pytest.raises(cs.PreconditionError, match="must be integers"):
            cs.degree_bounded_bipartition(g, 6.5, 6.5)

    @pytest.mark.parametrize("p, q", [(6.0, 7.0), ("6", 7), (6, None), (Fraction(13, 2), 6.5)])
    def test_every_non_integer_type_rejected(self, p, q):
        # each pair sums to the max degree 13, or fails to sum at all
        with pytest.raises(cs.PreconditionError) as err:
            cs.degree_bounded_bipartition(regular(28, 13, 3), p, q)
        assert str(err.value) == f"p and q must be integers, got p={p!r}, q={q!r}"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_all_bounds(self, seed):
        g = gnp(14, 0.45, seed)
        delta = g.max_degree
        if delta < 3:
            pytest.skip("degenerate sample")
        for p in range(1, delta):
            q = delta - p
            part = cs.degree_bounded_bipartition(g, p, q)
            self._assert_bounds(g, part, p, q)

    def test_local_optimum_of_potential(self):
        # at the returned split no single flip decreases q*e(V1) + p*e(V2)
        g = gnp(12, 0.5, 7)
        p, q = 4, g.max_degree - 4
        if q < 1:
            pytest.skip("degenerate sample")
        part = cs.degree_bounded_bipartition(g, p, q)
        s1 = set(part.parts[0])

        def potential(side1):
            e1 = sum(1 for u, v in g.edges() if u in side1 and v in side1)
            e2 = sum(1 for u, v in g.edges() if u not in side1 and v not in side1)
            return q * e1 + p * e2

        base = potential(s1)
        for v in range(g.n):
            flipped = s1 ^ {v}
            assert potential(flipped) >= base

    @pytest.mark.parametrize("g, p, q", [
        pytest.param(strong(5, 2), 2, 3, id="C5xK2-2-3"),
        pytest.param(strong(5, 2), 1, 4, id="C5xK2-1-4"),
        *(pytest.param(strong(7, 3), p, 8 - p, id=f"C7xK3-{p}-{8 - p}") for p in range(1, 8)),
        pytest.param(regular(20, 3, 1), 1, 2, id="regular:20,3-seed1-1-2"),
        pytest.param(regular(20, 3, 2), 1, 2, id="regular:20,3-seed2-1-2"),
    ])
    def test_core_eviction_needed(self, g, p, q):
        # the descent alone stops here with a core on one side, which
        # only the zero-cost evictions remove
        part = cs.degree_bounded_bipartition(g, p, q)
        self._assert_bounds(g, part, p, q)

    def test_eviction_not_undone_at_once(self):
        # the greedy start's repair evicts a vertex of a triangle in V2
        # into an edge of V1; flipping that vertex straight back would
        # repeat the two rounds until the cap, so the edge's other end goes
        g = regular(100, 3, 1)
        part = cs.degree_bounded_bipartition(g, 1, 2)
        self._assert_bounds(g, part, 1, 2)

    def test_round_cap_raises_search_failure(self, monkeypatch):
        monkeypatch.setattr(partition, "_descend_and_repair", lambda g, p, q, in1: None)
        with pytest.raises(cs.SearchFailureError,
                           match="failed from the greedy start") as err:
            cs.degree_bounded_bipartition(petersen(), 2, 1)
        assert err.value.diagnostics == {"n": 10, "p": 2, "q": 1, "max_degree": 3}


class TestHittingIndependentSet:
    def test_k5_single_vertex(self):
        res = cs.hitting_independent_set(K(5))
        assert res.outcome == "found"
        assert len(res.independent_set) == 1
        assert res.omega_before == 5 and res.omega_after == 4

    def test_two_disjoint_k4(self):
        g = cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": (4, 4)}))
        res = cs.hitting_independent_set(g)
        assert res.outcome == "found"
        assert len(res.independent_set) == 2

    def test_c5_strong_k2_exception(self):
        g = strong(5, 2)
        assert not brute_has_transversal(g)  # exhaustive independent-set scan
        res = cs.hitting_independent_set(g)
        assert res.outcome == "exception"
        assert (res.cycle_len, res.m) == (5, 2)

    def test_edgeless_graph(self):
        g = cs.Graph(4)
        res = cs.hitting_independent_set(g)
        assert res.outcome == "found"
        assert res.independent_set == (0, 1, 2, 3)

    def test_found_certificate_is_sound(self):
        g = gnp(12, 0.55, 3)
        res = cs.hitting_independent_set(g)
        if res.outcome != "found":
            pytest.skip("sample has no transversal")
        iset = res.independent_set
        assert is_independent(g, iset)
        rest = [v for v in range(g.n) if v not in set(iset)]
        sub, _ = cs.induced_subgraph(g, rest)
        assert brute_omega(sub) == brute_omega(g) - 1

    def test_found_agrees_with_brute(self):
        for seed in range(5):
            g = gnp(9, 0.5, seed)
            if brute_omega(g) == 0:
                continue
            res = cs.hitting_independent_set(g)
            assert (res.outcome == "found") == brute_has_transversal(g)

    def test_c21_strong_k5_exception_without_search(self, monkeypatch):
        # no transversal exists on a recognised odd-cycle product; the
        # exhaustive search would take tens of seconds here
        def no_search(g):
            raise AssertionError("the transversal search ran")

        monkeypatch.setattr(partition, "all_maximum_cliques", no_search)
        res = cs.hitting_independent_set(strong(21, 5))
        assert res.outcome == "exception"
        assert (res.cycle_len, res.m) == (21, 5)

    def test_not_found_on_transversal_free_non_product(self):
        # the exception graph plus one isolated vertex: still no
        # transversal of the five maximum cliques, but no longer a product
        base = strong(5, 2)
        g = cs.Graph(11, base.edges())
        res = cs.hitting_independent_set(g)
        assert res.outcome == "not_found"

    def test_deep_search_needs_no_recursion(self):
        # each triangle adds a level to the search: 1,100 of them go past
        # the interpreter's recursion limit, well within the node budget
        g = cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": (3,) * 1100}))
        res = cs.hitting_independent_set(g)
        assert res.outcome == "found"
        assert len(res.independent_set) == 1100

    def test_search_stops_at_the_node_budget(self, monkeypatch):
        # C9 x K3 plus an isolated vertex has no transversal and is no
        # product; proving so takes the search 241 nodes
        g = cs.Graph(28, strong(9, 3).edges())
        assert cs.hitting_independent_set(g).outcome == "not_found"
        monkeypatch.setattr(partition, "EXACT_NODES", 100)
        with pytest.raises(cs.BudgetExceededError, match="stopped after 100 nodes"):
            cs.hitting_independent_set(g)

    @staticmethod
    def _agrees_with_plain_rule(monkeypatch, g):
        # the answer, and the node count the budget sees, of the search
        # with counts kept across nodes equal those of the rule read
        # plainly, every clique's options counted afresh at every node
        expected, nodes = brute_first_transversal(g)
        monkeypatch.setattr(partition, "EXACT_NODES", nodes)
        res = cs.hitting_independent_set(g)
        assert res.outcome == ("found" if expected is not None else "not_found")
        assert res.independent_set == expected
        monkeypatch.setattr(partition, "EXACT_NODES", nodes - 1)
        with pytest.raises(cs.BudgetExceededError):
            cs.hitting_independent_set(g)

    @pytest.mark.parametrize("g", [
        cs.Graph(28, strong(9, 3).edges()),
        cs.Graph(11, strong(5, 2).edges()),
        cs.Graph(16, strong(5, 3).edges() + [(15, 0)]),
        gnp(14, 0.5, 1), gnp(16, 0.6, 2), gnp(16, 0.3, 3),
        # a clique with one option comes before one with none: branching
        # on the one with fewest options instead visits fewer nodes
        gnp(8, 0.3, 45), gnp(8, 0.5, 52), gnp(10, 0.3, 36),
        cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": (3, 4, 3, 2)})),
    ], ids=["C9xK3+1", "C5xK2+1", "C5xK3+pendant", "gnp-14", "gnp-16-dense", "gnp-16-sparse",
            "gnp-8-sparse", "gnp-8", "gnp-10", "cliques"])
    def test_counts_follow_the_plain_rule(self, monkeypatch, g):
        assert cs.detect_cycle_clique_product(g) is None
        self._agrees_with_plain_rule(monkeypatch, g)

    @given(small_graphs(max_n=9))
    @settings(max_examples=150)
    def test_counts_follow_the_plain_rule_on_small_graphs(self, g):
        assume(g.edge_count and cs.detect_cycle_clique_product(g) is None)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._agrees_with_plain_rule(monkeypatch, g)


class TestDetectCycleCliqueProduct:
    @pytest.mark.parametrize("length,m,seed", [
        pytest.param(5, 1, None, id="5-1"), pytest.param(5, 2, None, id="5-2"),
        pytest.param(7, 3, None, id="7-3"), pytest.param(9, 2, None, id="9-2"),
        pytest.param(7, 3, 0, id="7-3-relabelled"), pytest.param(11, 4, 1, id="11-4-relabelled"),
    ])
    def test_recognizes_products(self, length, m, seed):
        g = strong(length, m)
        if seed is not None:
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            g = cs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert cs.detect_cycle_clique_product(g) == (length, m)

    @pytest.mark.parametrize("g", [
        petersen(), K(6), C(4), C(3),
        gnp(12, 0.5, 0), gnp(10, 0.3, 1),
        regular(12, 5, 0),
        cs.generate(cs.GeneratorRecipe("path", {"n": 9})),
        # 15 twin classes of one vertex each, 2-regular: only the
        # connectivity check rejects it
        cs.disjoint_union(cs.disjoint_union(C(5), C(5)), C(5)),
    ], ids=["petersen", "K6", "C4", "C3", "gnp12", "gnp10", "regular", "path", "three-C5"])
    def test_rejects_non_products(self, g):
        assert cs.detect_cycle_clique_product(g) is None

    def test_rejects_near_product(self):
        g = strong(5, 2)
        edges = g.edges()
        edges.remove((0, 2))
        assert cs.detect_cycle_clique_product(cs.Graph(10, edges)) is None

    def test_rejects_disconnected_union_of_products(self):
        # three copies: odd class count, right regularity, but the module
        # quotient is three disjoint cycles rather than one
        one = strong(5, 2)
        g = cs.disjoint_union(cs.disjoint_union(one, one), one)
        assert g.min_degree == g.max_degree == 5
        assert cs.detect_cycle_clique_product(g) is None


class TestAdversarialRegimeInstances:
    # strong products with max degree 14: the coloring shortcut fails on
    # these (they need close to max-degree many colors), forcing the
    # exact search to carry the construction
    def test_c5_strong_k5_every_pair(self):
        g = strong(5, 5)
        delta = g.max_degree
        assert delta == 14 and cs.clique_number(g).omega == 10
        for q in range(2, 8):
            p = delta + 1 - q
            part = cs.clique_bipartition(g, p, q)
            assert cs.verify_partition(g, part, cs.PartitionSpec((p, q))).valid
            assert part.strategy == "exact"

    @pytest.mark.parametrize("length", [5, 7, 9, 11, 13, 15])
    @pytest.mark.parametrize("m", [6, 7])
    def test_every_pair_and_some_three_part_lists_above_k5(self, length, m):
        # max degree 17 and 20, where the paper promises an answer: the
        # exact search alone, behind the coloring, must answer every
        # two-part pair and the three-part lists (D + 2 - 2q, q, q) within
        # its node budget. Criterion 11 covers m = 5.
        g = strong(length, m)
        d = g.max_degree
        lists = [(d + 1 - q, q) for q in range(2, (d + 1) // 2 + 1)]
        lists += [(d + 2 - 2 * q, q, q) for q in (2, 3, 4)]
        for quotas in lists:
            spec = cs.PartitionSpec(quotas)
            part = cs.kway_clique_partition(g, spec)
            assert cs.verify_partition(g, part, spec).valid
            assert part.strategy.split(";")[0] == "exact"

    def test_c7_strong_k5_balanced_pair(self):
        g = strong(7, 5)
        part = cs.clique_bipartition(g, 8, 7)
        assert cs.verify_partition(g, part, cs.PartitionSpec((8, 7))).valid


class TestPendantCliqueAugmentation:
    # A graph with omega = delta - 2 and a vertex below max degree can be
    # raised to omega = delta - 1 by a pendant K_{delta-1} on one bridge
    # edge; a split of the augmented graph restricts to one of the original.
    def _omega_delta_minus_2_instance(self):
        # K12 plus three outside vertices adjacent to ten clique vertices
        # each: max degree 14 on the clique side, omega 12, not regular
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for i, x in enumerate((12, 13, 14)):
            for t in range(10):
                edges.append(((t + i) % 12, x))
        return cs.Graph(15, edges)

    @staticmethod
    def _attach_pendant_clique(g, delta):
        v = min(range(g.n), key=lambda u: (g.degree(u), u))
        extra = delta - 1
        edges = g.edges()
        edges += [(g.n + i, g.n + j) for i in range(extra) for j in range(i + 1, extra)]
        edges.append((v, g.n))
        return cs.Graph(g.n + extra, edges)

    def test_augmented_graph_shape(self):
        g = self._omega_delta_minus_2_instance()
        delta = g.max_degree
        assert delta == 14 and cs.clique_number(g).omega == 12
        assert g.min_degree < delta
        aug = self._attach_pendant_clique(g, delta)
        assert aug.n == g.n + delta - 1
        assert aug.max_degree == delta
        assert cs.clique_number(aug).omega == delta - 1
        # exactly one bridge edge into the fresh clique
        bridge = [(u, v) for u, v in aug.edges() if u < g.n <= v]
        assert len(bridge) == 1
        # the engine accepts the augmented graph, and its split projects back
        part = cs.clique_bipartition(aug, 8, 7)
        assert cs.verify_partition(aug, part, cs.PartitionSpec((8, 7))).valid
        parts = [[v for v in side if v < g.n] for side in part.parts]
        back = cs.partition_from_parts(g, parts)
        assert cs.verify_partition(g, back, cs.PartitionSpec((8, 7))).valid


class TestKingRegime:
    """Clique number at least 3(D+1)/4 and more than 40 vertices: King's
    theorem gives an independent set meeting every maximum clique. The
    coloring stage fails on these graphs, so the exact search answers:
    every two-part pair and every three-part list, on unions one
    component at a time."""

    @staticmethod
    def _cycle_of_cliques(length, s):
        # C_length box K_s: vertex j of copy i is joined to vertex j of
        # copy i+1, so omega = s and max degree s + 1 for length >= 4
        edges = [(i * s + u, i * s + v)
                 for i in range(length) for u in range(s) for v in range(u + 1, s)]
        edges += [(i * s + j, (i + 1) % length * s + j) for i in range(length) for j in range(s)]
        return cs.Graph(length * s, edges)

    @staticmethod
    def _with_pendant_cliques(g, count):
        # a K_D on one bridge edge at each of `count` vertices
        s = g.max_degree
        edges, n = g.edges(), g.n
        for v in range(count):
            edges += [(n + i, n + j) for i in range(s) for j in range(i + 1, s)]
            edges.append((v * 7 % g.n, n))
            n += s
        return cs.Graph(n, edges)

    def _graphs(self):
        # the C_L x K_3 components need more than D - 1 colors, so on the
        # unions the coloring stage fails and the exact search decides
        for length in (5, 6, 7):
            yield cs.disjoint_union(strong(5, 3), self._cycle_of_cliques(length, 7))
            yield cs.disjoint_union(strong(7, 3), self._cycle_of_cliques(length, 7))
        for s in (6, 8, 10):
            yield self._cycle_of_cliques(7, s)
        for length, m in ((9, 3), (11, 3), (11, 4), (13, 4)):
            yield self._with_pendant_cliques(strong(length, m), 2)

    def test_every_pair_and_three_part_list_is_answered(self):
        strategies = set()
        for g in self._graphs():
            d = g.max_degree
            omega = cs.clique_number(g).omega
            assert g.n > 40 and omega == d - 1 and 4 * omega >= 3 * (d + 1)
            lists = [(d + 1 - q, q) for q in range(2, (d + 1) // 2 + 1)]
            lists += [(a, b, d + 2 - a - b) for a in range(2, d) for b in range(2, a + 1)
                      if 2 <= d + 2 - a - b <= b]
            for quotas in lists:
                spec = cs.PartitionSpec(quotas)
                part = cs.kway_clique_partition(g, spec)
                assert cs.verify_partition(g, part, spec).valid
                strategies.add(part.strategy.split(";")[0])
        assert "exact" in strategies


class TestCliqueBipartition:
    def test_wrong_arithmetic_rejected(self):
        with pytest.raises(cs.PreconditionError):
            cs.clique_bipartition(C(5), 2, 2)

    def test_non_integer_pair_rejected_before_any_search(self, monkeypatch):
        # 7.5 + 6.5 meets max degree + 1 = 14, so only the type is wrong
        g = regular(28, 13, 3)
        monkeypatch.setattr(partition, "kway_clique_partition", None)
        with pytest.raises(cs.PreconditionError, match="must be integers"):
            cs.clique_bipartition(g, 7.5, 6.5)

    @pytest.mark.parametrize("p, q", [(7.0, 7.0), ("8", 6), (7, None), (Fraction(15, 2), 6.5)])
    def test_every_non_integer_type_rejected(self, p, q):
        # each pair sums to max degree + 1 = 14, or fails to sum at all
        with pytest.raises(cs.PreconditionError) as err:
            cs.clique_bipartition(regular(28, 13, 3), p, q)
        assert str(err.value) == f"p and q must be integers, got p={p!r}, q={q!r}"

    def test_omega_equal_delta_rejected_with_witness(self):
        g = cs.generate(cs.GeneratorRecipe(
            "join_pendant_clique", {"base_len": 4, "clique": 13, "attach": 0}))
        assert g.max_degree == 13
        with pytest.raises(cs.PreconditionError) as err:
            cs.clique_bipartition(g, 7, 7)
        assert err.value.witness is not None and len(err.value.witness) == 13

    def test_precondition_witness_is_the_smallest_maximum_clique(self):
        # the pendant K_13 is on vertices 4..16; its witness is searched
        # for only now that the error reports it
        g = cs.generate(cs.GeneratorRecipe(
            "join_pendant_clique", {"base_len": 4, "clique": 13, "attach": 0}))
        with pytest.raises(cs.PreconditionError) as err:
            cs.clique_bipartition(g, 7, 7)
        assert err.value.witness == tuple(range(4, 17)) == cs.all_maximum_cliques(g)[0]
        assert str(err.value) == "clique number 13 exceeds max degree - 1 = 12"

    def test_regular_28_13(self):
        g = regular(28, 13, 3)
        assert cs.clique_number(g).omega <= 12
        part = cs.clique_bipartition(g, 7, 7)
        assert cs.verify_partition(g, part, cs.PartitionSpec((7, 7))).valid

    def test_exception_graph_infeasible_pair(self):
        g = strong(5, 2)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.clique_bipartition(g, 4, 2)
        assert err.value.proven_infeasible
        ok, _ = cs.exists_clique_partition(g, cs.PartitionSpec((4, 2)))
        assert not ok

    def test_omega_delta_minus_2_every_pair(self):
        # K12 plus three outside vertices adjacent to ten clique vertices
        # each: max degree 14 on the clique side, omega 12, not regular
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for i, x in enumerate((12, 13, 14)):
            for t in range(10):
                edges.append(((t + i) % 12, x))
        g = cs.Graph(15, edges)
        assert g.max_degree == 14 and cs.clique_number(g).omega == 12
        for q in range(2, 8):
            p = 15 - q
            part = cs.clique_bipartition(g, p, q)
            assert cs.verify_partition(g, part, cs.PartitionSpec((p, q))).valid

    def test_invalid_split_is_never_returned(self, monkeypatch):
        # the strategies return partitions not checked against the quotas;
        # the one exact check at the top of both public entry points must
        # catch a wrong split
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        edges += [((t + i) % 12, 12 + i) for i in range(3) for t in range(10)]
        g = cs.Graph(15, edges)
        monkeypatch.setattr(partition, "_coloring_strategy",
                            lambda h, quotas, diags: cs.partition_from_parts(
                                h, [[], list(range(h.n))], "coloring"))
        with pytest.raises(cs.SearchFailureError, match="post-verification failed"):
            cs.clique_bipartition(g, 8, 7)
        with pytest.raises(cs.SearchFailureError, match="post-verification failed"):
            cs.kway_clique_partition(g, cs.PartitionSpec((8, 7)))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [9, 11, 12])
    def test_small_corpus_oracle_agreement(self, n, seed):
        g = gnp(n, 0.5, seed + 100)
        delta = g.max_degree
        omega = cs.clique_number(g).omega
        if delta < 3 or omega > delta - 1:
            pytest.skip("no feasible pair")
        for q in range(2, delta + 1):
            p = delta + 1 - q
            if p < q:
                break
            spec = cs.PartitionSpec((p, q))
            try:
                part = cs.clique_bipartition(g, p, q)
            except cs.AllStrategiesExhausted:
                ok, _ = cs.exists_clique_partition(g, spec)
                assert not ok, f"engine gave up on feasible ({p},{q})"
                continue
            assert cs.verify_partition(g, part, spec).valid


class TestExactSearchBudget:
    @staticmethod
    def _matches_reference(g, quotas):
        # same assignment as a plain recursion, and exactly its node count:
        # one node fewer stops the search (the root alone is always visited)
        expected, nodes = brute_first_assignment(g, quotas)
        with mock.patch.object(partition, "EXACT_NODES", nodes):
            assert _exact_partition_assignment(g, quotas) == expected
        if nodes > 1:
            with mock.patch.object(partition, "EXACT_NODES", nodes - 1):
                with pytest.raises(cs.BudgetExceededError):
                    _exact_partition_assignment(g, quotas)

    @given(small_graphs(max_n=9),
           st.lists(st.integers(2, 4), min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_matches_recursive_reference(self, g, quotas):
        self._matches_reference(g, quotas)

    # dense and infeasible cases, where backtracking and the rule for
    # empty parts of equal quota decide the answer and the node count
    @pytest.mark.parametrize("text, quotas", [
        ("complete:5", (3, 3)),
        ("complete:5", (2, 2, 2)),
        ("complete:6", (3, 3, 2)),
        ("cycle:5", (2, 2)),
        ("strong:5x2", (3, 3)),
        ("strong:5x2", (4, 2)),
        ("strong:5x2", (2, 2, 2, 2)),
        ("strong:7x2", (3, 2, 2)),
    ])
    def test_matches_recursive_reference_on_hard_cases(self, text, quotas):
        self._matches_reference(cs.generate(cs.parse_recipe(text)), quotas)

    # nodes without and with the rule for true twins; only the fibres of
    # C_L x K_m and the vertices of K_n are twins here
    @pytest.mark.parametrize("text, quotas, plain, twins", [
        ("complete:5", (3, 3), 10, 7),
        ("complete:6", (3, 3, 2), 46, 14),
        ("cycle:5", (2, 2), 5, 5),
        ("strong:5x2", (3, 3), 18, 18),
        ("strong:5x2", (4, 2), 50, 22),
        ("strong:5x2", (2, 2, 2, 2), 17, 11),
        ("strong:7x2", (3, 2, 2), 365, 46),
        ("strong:9x2", (4, 2), 242, 42),
    ])
    def test_twin_rule_node_counts(self, text, quotas, plain, twins):
        g = cs.generate(cs.parse_recipe(text))
        expected, nodes = brute_first_assignment(g, quotas, twins=False)
        assert nodes == plain
        assert brute_first_assignment(g, quotas) == (expected, twins)
        with mock.patch.object(partition, "EXACT_NODES", twins):
            assert _exact_partition_assignment(g, quotas) == expected

    def test_stack_search_runs_past_the_recursion_limit(self):
        g = regular(1500, 4, 0)
        assert g.n > sys.getrecursionlimit()
        assignment = _exact_partition_assignment(g, (3, 2))
        assert assignment is not None
        part = cs.partition_from_assignment(g, assignment, 2)
        assert cs.verify_partition(g, part, cs.PartitionSpec((3, 2))).valid

    def test_proof_within_budget(self):
        # C9 x K2 at (4, 2) is infeasible, and the proof visits 42 nodes
        # (242 without the rule for true twins)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.clique_bipartition(strong(9, 2), 4, 2)
        assert err.value.proven_infeasible
        assert err.value.diagnostics["exact"] == "proved infeasible"

    @pytest.mark.parametrize("nodes, proven", [(20, False), (41, False), (42, True)])
    def test_small_budget_gives_up_unproven(self, monkeypatch, nodes, proven):
        monkeypatch.setattr(partition, "EXACT_NODES", nodes)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.clique_bipartition(strong(9, 2), 4, 2)
        assert err.value.proven_infeasible is proven
        if not proven:
            assert err.value.diagnostics["exact"] == f"stopped after {nodes} nodes"


@st.composite
def blown_up_graphs(draw, max_n=9):
    """A small graph with each vertex blown up into a clique of one to
    three true twins, at most ``max_n`` vertices in all, relabelled by a
    drawn permutation so that twins need not be neighbours in the search
    order."""
    base = draw(small_graphs(max_n=5))
    blobs: list[list[int]] = []
    n = 0
    for v in range(base.n):
        size = draw(st.integers(1, min(3, max_n - n - (base.n - v - 1))))
        blobs.append(list(range(n, n + size)))
        n += size
    label = draw(st.permutations(range(n)))
    edges = [(label[a], label[b]) for blob in blobs for a, b in itertools.combinations(blob, 2)]
    edges += [(label[a], label[b]) for u, w in base.edges() for a in blobs[u] for b in blobs[w]]
    return cs.Graph(n, edges)


@contextlib.contextmanager
def whole_graph_plan(g):
    """A new graph equal to ``g``, searched with the component split
    turned off. Its memo starts empty and is dropped with it, so no plan
    built with the split serves a search without it, or the reverse."""
    with mock.patch.object(partition, "_component_orders", lambda adj, vertices: [vertices]):
        yield cs.Graph(g.n, g.edges())


class TestTwinRule:
    """Placing true twins in non-decreasing part order changes no answer:
    the search returns what a search without the rule returns."""

    @given(blown_up_graphs(), st.lists(st.integers(2, 3), min_size=2, max_size=3))
    @settings(max_examples=150)
    def test_same_answer_as_the_rule_free_reference(self, g, quotas):
        with mock.patch.object(partition, "EXACT_NODES", 10**6):
            expected, _ = brute_first_assignment(g, quotas, twins=False)
            assert _exact_partition_assignment(g, quotas) == expected
            whole, _ = brute_first_assignment(g, quotas, by_component=False, twins=False)
            with whole_graph_plan(g) as whole_g:
                assert _exact_partition_assignment(whole_g, quotas) == whole


class TestExactSearchComponents:
    """The exact search takes each connected component on its own, with
    one node budget for all of them, and returns the assignment a search
    of the whole graph returns."""

    @staticmethod
    def _unions(rest, product):
        return [cs.disjoint_union(rest, product), cs.disjoint_union(product, rest)]

    @given(small_graphs(max_n=9),
           st.lists(st.integers(2, 4), min_size=1, max_size=3))
    @settings(max_examples=150)
    def test_same_assignment_as_the_whole_graph_search(self, g, quotas):
        expected, _ = brute_first_assignment(g, quotas, by_component=False)
        with mock.patch.object(partition, "EXACT_NODES", 10**6):
            assert _exact_partition_assignment(g, quotas) == expected

    @pytest.mark.parametrize("order", [0, 1], ids=["product-last", "product-first"])
    @pytest.mark.parametrize("rest, product, quotas", [
        (regular(200, 5, 0), strong(5, 2), (3, 3)),
        (regular(200, 5, 1), strong(9, 2), (3, 3)),
        (strong(7, 2), strong(5, 2), (3, 3)),
        (strong(5, 3), strong(7, 3), (6, 3)),
    ], ids=["regular200+C5xK2", "regular200+C9xK2", "C7xK2+C5xK2", "C5xK3+C7xK3"])
    def test_same_assignment_as_the_whole_graph_search_on_unions(
            self, rest, product, quotas, order):
        g = self._unions(rest, product)[order]
        split = _exact_partition_assignment(g, quotas)
        assert split is not None
        with whole_graph_plan(g) as whole_g:
            assert _exact_partition_assignment(whole_g, quotas) == split

    @pytest.mark.parametrize("order", [0, 1], ids=["product-last", "product-first"])
    @pytest.mark.parametrize("quotas", [(4, 2), (3, 3)])
    def test_matches_recursive_reference_on_unions(self, quotas, order):
        g = self._unions(regular(12, 5, 0), strong(5, 2))[order]
        TestExactSearchBudget._matches_reference(g, quotas)

    @pytest.mark.parametrize("length", [5, 7, 9, 13])
    def test_union_is_proven_in_either_order(self, length):
        # a search of the whole graph, product last, kept retrying the
        # random component and stopped unproven at EXACT_NODES; the
        # (3, 2, 2) search, one component at a time, proves it the same way
        for g in self._unions(regular(200, 5, 0), strong(length, 2)):
            assert _exact_partition_assignment(g, (4, 2)) is None
            for quotas in ((4, 2), (3, 2, 2)):
                with pytest.raises(cs.AllStrategiesExhausted) as err:
                    cs.kway_clique_partition(g, cs.PartitionSpec(quotas))
                assert err.value.proven_infeasible

    @pytest.mark.parametrize("seed", range(3))
    def test_small_unions_agree_with_the_oracle(self, seed):
        for g in self._unions(regular(12, 5, seed), strong(5, 2)):
            for quotas in ((4, 2), (3, 3), (3, 2, 2)):
                spec = cs.PartitionSpec(quotas)
                feasible, _ = cs.exists_clique_partition(
                    g, spec, cs.OracleBudget(assignment_cap=g.n))
                try:
                    part = cs.kway_clique_partition(g, spec)
                except cs.AllStrategiesExhausted as exc:
                    assert exc.proven_infeasible and not feasible, quotas
                    continue
                assert feasible and cs.verify_partition(g, part, spec).valid


class TestExactPlan:
    """The exact search's order, component split and twin links are built
    once per graph object and kept in its memo; a search that reads a
    kept plan answers as one that builds it, with the same node count."""

    # several lists in a row on one graph: unsorted ones and k = 3 among them
    SEQUENCE = [(4, 2), (3, 3), (2, 4), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3)]

    @staticmethod
    def _search_at_boundary(g, quotas, nodes, cold):
        # the answer with a budget of exactly ``nodes``, and the give-up
        # with one fewer; ``cold`` searches a new copy of g each time,
        # whose memo holds no plan
        def graph():
            return cs.Graph(g.n, g.edges()) if cold else g

        with mock.patch.object(partition, "EXACT_NODES", nodes):
            answer = _exact_partition_assignment(graph(), quotas)
        if nodes > 1:
            with mock.patch.object(partition, "EXACT_NODES", nodes - 1):
                with pytest.raises(cs.BudgetExceededError):
                    _exact_partition_assignment(graph(), quotas)
        return answer

    @pytest.mark.parametrize("g", [
        strong(7, 2),
        cs.disjoint_union(strong(5, 2), regular(12, 5, 0)),
        cs.disjoint_union(regular(12, 5, 0), strong(5, 2)),
    ], ids=["C7xK2", "C5xK2+regular12", "regular12+C5xK2"])
    def test_cold_and_warm_plans_agree(self, g):
        references = [brute_first_assignment(g, quotas) for quotas in self.SEQUENCE]
        answers = {}
        orders = partition._component_orders
        for cold in (True, False):
            builds = []

            def counted(adj, order):
                builds.append(order)
                return orders(adj, order)

            h = cs.Graph(g.n, g.edges())
            with mock.patch.object(partition, "_component_orders", counted):
                for quotas, (expected, nodes) in zip(self.SEQUENCE, references):
                    answer = self._search_at_boundary(h, quotas, nodes, cold)
                    assert answer == expected, (quotas, cold)
                    answers[quotas, cold] = answer
            # cold: every call built its own plan; warm: one build, then
            # every later call read it from the graph's memo
            calls = sum(1 + (nodes > 1) for _, nodes in references)
            assert len(builds) == (calls if cold else 1)
        # the sequence holds proofs and answers both
        assert any(a is None for a in answers.values())
        assert any(a is not None for a in answers.values())

    @pytest.mark.parametrize("g", [
        strong(5, 3),
        cs.disjoint_union(strong(5, 2), regular(30, 4, 1)),
        cs.Graph(0),
    ], ids=["C5xK3", "C5xK2+regular30", "empty"])
    def test_plan_holds_the_search_order(self, g):
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        plan = partition._exact_plan(g)
        assert sorted(v for component, _ in plan for v in component) == list(range(g.n))
        for component, prev_twin in plan[:g.n]:  # n = 0 has one empty component
            assert list(component) == [v for v in order if v in set(component)]
            assert partition._component_mask(g.adjacency_bits, component[0]) == \
                kernels.to_mask(component)
            closed = [g.adjacency_bits[v] | 1 << v for v in component]
            for i, t in enumerate(prev_twin):
                twins = [h for h in range(i) if closed[h] == closed[i]]
                assert t == (twins[-1] if twins else -1)
        # components by their first vertex in the order
        firsts = [order.index(c[0]) for c, _ in plan[:g.n]]
        assert firsts == sorted(firsts)


class TestGraphMemo:
    """What the engine computes from a graph alone lives in a memo on the
    Graph object: it is freed with the graph, shared with no other
    graph, equal or not, and left behind by copies."""

    def test_dropped_graphs_are_freed_without_the_cycle_collector(self):
        # nothing in a memo refers back to its graph and no search leaves
        # a reference cycle behind, so reference counting alone frees a
        # dropped graph with its tables, coloring and certificates
        def split(seed):
            g = regular(5000, 14, seed)
            part = cs.clique_bipartition(g, 8, 7)
            assert cs.verify_partition(g, part, cs.PartitionSpec((8, 7))).valid

        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            split(1)  # module-level state, such as _deal_order's, is filled here
            before = tracemalloc.get_traced_memory()[0]
            for seed in (2, 3, 4):
                split(seed)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert grown < 1_000_000

    def test_a_rebuilt_graph_starts_with_an_empty_memo(self):
        # a benchmark's fresh round rebuilds its graphs as Graph(n, edges):
        # no plan, coloring or clique number of the solved graph serves it
        g = strong(5, 2)
        _exact_partition_assignment(g, (3, 3))
        cs.kway_clique_partition(g, (3, 3))
        assert "_exact_plan" in g._memo and "_dsatur_classes" in g._memo
        assert g._memo["certificates"]
        assert cs.Graph(g.n, g.edges())._memo == {}

    def test_equal_graphs_share_no_entry(self):
        g = regular(28, 13, 3)
        h = cs.Graph(g.n, g.edges())
        assert g == h and hash(g) == hash(h)
        spec = cs.PartitionSpec((5, 5, 5))
        part = cs.kway_clique_partition(g, spec)
        assert g._memo and h._memo == {}
        assert cs.kway_clique_partition(h, spec) == part
        assert g._memo.keys() == h._memo.keys()
        assert all(g._memo[key] is not h._memo[key] for key in g._memo)
        ours, theirs = g._memo["certificates"], h._memo["certificates"]
        assert ours.keys() == theirs.keys()
        assert all(ours[mask] is not theirs[mask] for mask in ours)

    def test_at_most_the_cap_of_certificates_kept(self):
        # 8,192 masks of a 13-vertex graph: the memo keeps the newest
        # 4,096, each keyed by its mask in the search numbering, and a
        # dropped mask is searched again, correctly
        g = gnp(13, 0.5, 0)
        power = _search_numbering(g)[2]
        assert power is not None

        def numbered(mask):
            return sum(map(power.__getitem__, kernels.from_mask(mask)))

        masks = range(1 << g.n)
        assert len(masks) > CERTIFICATES_PER_GRAPH == 4096
        for mask in masks:
            assert clique_number_within(g, mask).omega == brute_mask_omega(
                g.adjacency_bits, mask), mask
        certs = g._memo["certificates"]
        assert list(certs) == list(map(numbered, masks[-CERTIFICATES_PER_GRAPH:]))
        cert = clique_number_within(g, masks[0])
        assert cert.omega == 0 and cert.witness == ()
        assert len(certs) == CERTIFICATES_PER_GRAPH
        assert numbered(masks[0]) in certs
        assert numbered(masks[-CERTIFICATES_PER_GRAPH]) not in certs
        full = clique_number_within(g, masks[-1])
        assert full is certs[numbered(masks[-1])] and full.witness == cs.all_maximum_cliques(g)[0]

    def test_each_dealt_class_is_coloured_once_per_graph(self):
        # the clique search's tables keep each seed's colouring: dealing
        # one list colours each class dealt once, and other lists dealt
        # the same classes search their missing parts from those entries
        g = gnp(60, 0.5, 1)
        masks = _dsatur_classes(g).masks
        colored = _coloring_tables(g)[3]
        balanced = TestOneShotColoring._balanced
        assert cs.kway_clique_partition(g, balanced(g.max_degree, 5)).strategy == "coloring"
        assert colored == {mask: (mask,) for mask in masks}
        kept = dict(colored)
        certs = len(g._memo["certificates"])
        for k in (3, 4, 6):
            assert cs.kway_clique_partition(g, balanced(g.max_degree, k)).strategy == "coloring"
        assert len(g._memo["certificates"]) > certs
        assert colored == kept and all(colored[mask] is kept[mask] for mask in kept)

    def test_a_dropped_graph_frees_its_coloured_seeds(self, monkeypatch):
        # with the cycle collector off, dropping the graph frees the dict
        # of coloured seeds in each of its tables: no search's closure or
        # certificate holds one
        class Colored(dict):
            """A dict that a weak reference can reach."""

        refs = []
        build = kernels.coloring_tables

        def built(adj, mask):
            *tables, colored = build(adj, mask)
            colored = Colored(colored)
            refs.append(weakref.ref(colored))
            return (*tables, colored)

        monkeypatch.setattr(kernels, "coloring_tables", built)
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = gnp(60, 0.5, 1)
            quotas = TestOneShotColoring._balanced(g.max_degree, 5)
            part = cs.kway_clique_partition(g, quotas)
            assert cs.verify_partition(g, part, cs.PartitionSpec(quotas)).valid
            assert part.strategy == "coloring" and _coloring_tables(g)[3]
            assert refs and all(ref() is not None for ref in refs)
            del g
            assert all(ref() is None for ref in refs)
            assert part.certificates[0].witness
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("g, quotas", [
        (strong(7, 3), (4, 3, 3)),
        (regular(28, 13, 3), (5, 5, 5)),
        (cs.Graph(0), None),
    ], ids=["C7xK3", "regular-28-13", "empty"])
    def test_copies_carry_no_memo(self, g, quotas):
        g = cs.Graph(g.n, g.edges())
        part = None
        if quotas:
            part = cs.kway_clique_partition(g, quotas)
            assert g._memo
        keys = set(g._memo)
        masks = set(g._memo.get("certificates", ()))
        for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert h is not g and h == g and hash(h) == hash(g) and repr(h) == repr(g)
            assert h._memo == {}
            assert (h.adjacency, h.adjacency_bits) == (g.adjacency, g.adjacency_bits)
            assert (h.edge_count, h.max_degree, h.min_degree) == \
                (g.edge_count, g.max_degree, g.min_degree)
            if quotas:
                assert cs.kway_clique_partition(h, quotas) == part
        # solving the copies added nothing to the original's memo
        assert set(g._memo) == keys and set(g._memo.get("certificates", ())) == masks


class TestKwayCliquePartition:
    def test_three_parts_on_degree_13(self):
        g = regular(28, 13, 3)
        spec = cs.PartitionSpec((5, 5, 5))
        part = cs.kway_clique_partition(g, spec)
        report = cs.verify_partition(g, part, spec)
        assert report.valid
        assert len(part.assignment) == g.n
        assert max(part.assignment) <= 2

    def test_k1_requires_quota_equal_delta(self):
        g = regular(12, 5, 1)
        if cs.clique_number(g).omega > 4:
            pytest.skip("conditioning failed")
        part = cs.kway_clique_partition(g, cs.PartitionSpec((5,)))
        assert part.parts[0] == tuple(range(12))
        assert part.strategy == "verify"
        assert len(part.certificates) == 1
        assert part.certificates[0].omega <= 5 - 1

    def test_wrong_sum_rejected(self):
        g = regular(28, 12, 0)
        with pytest.raises(cs.PreconditionError):
            cs.kway_clique_partition(g, cs.PartitionSpec((5, 5, 5)))

    @staticmethod
    def _outcome(call):
        """The Partition (assignment, parts, certificates and strategy),
        or the error's class, proof flag and diagnostics."""
        try:
            return call()
        except cs.CliqueSplitterError as exc:
            return (type(exc), getattr(exc, "proven_infeasible", None),
                    getattr(exc, "diagnostics", None))

    def _assert_k2_is_clique_bipartition(self, g):
        delta = g.max_degree
        pairs = [(delta + 1 - q, q) for q in range(2, (delta + 1) // 2 + 1)]
        assert pairs
        for p, q in pairs:
            spec = cs.PartitionSpec((p, q))
            kway = self._outcome(lambda: cs.kway_clique_partition(g, spec))
            assert self._outcome(lambda: cs.clique_bipartition(g, p, q)) == kway, (p, q)
            if isinstance(kway, cs.Partition):
                assert cs.verify_partition(g, kway, spec).valid

    @pytest.mark.parametrize("seed", range(5))
    def test_k2_is_clique_bipartition(self, seed):
        self._assert_k2_is_clique_bipartition(gnp(9, 0.5, seed + 30))

    @pytest.mark.parametrize("length", [5, 7, 9, 11, 13])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_k2_is_clique_bipartition_on_products(self, length, m):
        self._assert_k2_is_clique_bipartition(strong(length, m))

    def test_k2_proof_is_not_searched_twice(self, monkeypatch):
        calls = []

        def counted(g, quotas):
            calls.append(tuple(quotas))
            return _exact_partition_assignment(g, quotas)

        monkeypatch.setattr(partition, "_exact_partition_assignment", counted)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.kway_clique_partition(strong(9, 2), cs.PartitionSpec((4, 2)))
        assert err.value.proven_infeasible
        assert str(err.value) == "exhaustive search proves no valid partition exists"
        assert calls == [(4, 2)]

    def test_give_up_after_a_failed_recoloring_is_not_a_proof(self, monkeypatch):
        # DSatur needs 6 classes on C5xK2 against 4 of room, the search is
        # cut to one node, and chi(C5xK2) = 5 > 4, so the recoloring finds
        # no coloring either: an unproven give-up, with one diagnostic per
        # stage, at depth 0
        monkeypatch.setattr(partition, "EXACT_NODES", 1)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.kway_clique_partition(strong(5, 2), cs.PartitionSpec((3, 3)))
        assert not err.value.proven_infeasible
        assert err.value.depth == 0
        assert err.value.diagnostics == {
            "coloring": "DSatur used 6 > 4 classes",
            "exact": "stopped after 1 nodes",
            "recoloring": f"TabuCol found no 4-coloring in {partition.RECOLOR_MOVES} moves",
        }
        assert str(err.value) == "no valid (3,3) split found"

    def test_one_search_answers_the_all_2_list(self):
        # on this thinned C5xK2 (max degree 5) DSatur overflows the room,
        # and the exact search of the whole all-2 list finds the answer
        g = thinned_products(5, 2, 1)[0]
        spec = cs.PartitionSpec((2, 2, 2, 2))
        part = cs.kway_clique_partition(g, spec)
        assert part.strategy == "exact"
        assert cs.verify_partition(g, part, spec).valid
        assert cs.exists_clique_partition(g, spec)[0]

    def test_one_search_proves_the_all_2_list(self):
        # the next thinning, where the search of the whole list finds no
        # assignment, and so proves the list at depth 0
        g = thinned_products(5, 2, 2)[1]
        spec = cs.PartitionSpec((2, 2, 2, 2))
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.kway_clique_partition(g, spec)
        assert err.value.proven_infeasible and err.value.depth == 0
        assert err.value.diagnostics["exact"] == "proved infeasible"
        assert str(err.value) == "exhaustive search proves no valid partition exists"
        assert not cs.exists_clique_partition(g, spec)[0]

    def test_dummies_never_leak(self):
        g = regular(28, 13, 3)
        spec = cs.PartitionSpec((6, 5, 4))
        part = cs.kway_clique_partition(g, spec)
        assert sorted(v for side in part.parts for v in side) == list(range(28))
        assert cs.verify_partition(g, part, spec).valid

    def test_verification_reads_the_certificates_memo(self, monkeypatch):
        g = regular(28, 13, 3)
        spec = cs.PartitionSpec((5, 5, 5))
        part = cs.kway_clique_partition(g, spec)
        calls = []
        search = kernels.max_clique_size

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(kernels, "max_clique_size", counted)
        assert cs.verify_partition(g, part, spec).valid
        assert calls == []
        # an equal graph has a memo of its own
        assert cs.verify_partition(cs.Graph(g.n, g.edges()), part, spec).valid
        assert calls

    @staticmethod
    def _count_witness_searches(monkeypatch) -> list:
        masks = []
        search = kernels.maximum_cliques

        def counted(adj, mask, *args):
            masks.append(mask)
            return search(adj, mask, *args)

        monkeypatch.setattr(kernels, "maximum_cliques", counted)
        return masks

    @pytest.mark.parametrize("g, quotas", [
        (regular(28, 13, 3), (5, 5, 5)),
        (gnp(60, 0.5, 0), None),
        (strong(9, 3), (4, 3, 3)),
    ], ids=["regular-28-13", "gnp-60", "C9xK3"])
    def test_a_valid_answer_searches_no_witness(self, monkeypatch, g, quotas):
        # the certificates and the checks read clique numbers alone
        g = cs.Graph(g.n, g.edges())  # a new memo: no witness read yet
        spec = cs.PartitionSpec(quotas or TestOneShotColoring._balanced(g.max_degree, 5))
        masks = self._count_witness_searches(monkeypatch)
        part = cs.kway_clique_partition(g, spec)
        assert cs.verify_partition(g, part, spec).valid
        assert masks == []

    def test_witness_searched_once_per_entry_when_read(self, monkeypatch):
        g = gnp(60, 0.5, 1)
        spec = cs.PartitionSpec(TestOneShotColoring._balanced(g.max_degree, 4))
        masks = self._count_witness_searches(monkeypatch)
        part = cs.kway_clique_partition(g, spec)
        assert cs.verify_partition(g, part, spec).valid
        for _ in range(2):
            witnesses = [cert.witness for cert in part.certificates]
        assert len(masks) == len(set(masks)) == spec.k
        assert [len(w) for w in witnesses] == [cert.omega for cert in part.certificates]
        for members, witness in zip(part.parts, witnesses):
            assert set(witness) <= set(members)
        # the memo hands out the same certificates, their witnesses found
        again = [clique_number_within(g, kernels.to_mask(side)) for side in part.parts]
        assert [cert.witness for cert in again] == witnesses
        assert len(masks) == spec.k
        assert cs.clique_number(g).witness == cs.clique_number(g).witness
        assert len(masks) == spec.k + 1

    @staticmethod
    def _spec(d, shape):
        total, k = (2 * (d - 1), d - 1) if shape == "all-2" else (d + 2, 3)
        base, extra = divmod(total, k)
        return cs.PartitionSpec([base + 1] * extra + [base] * (k - extra))

    @pytest.mark.parametrize("length,m", [(7, 3), (9, 3), (11, 3), (5, 4), (9, 5)])
    @pytest.mark.parametrize("shape", ["all-2", "even-3"])
    def test_one_strategy_name_per_call(self, length, m, shape):
        # DSatur needs 3m classes on C_L x K_m, two more than the room, so
        # one exact search of the whole list answers, and the strategy
        # string names that one stage
        g = strong(length, m)
        spec = self._spec(g.max_degree, shape)
        diags = {}
        assert _coloring_strategy(g, spec.quotas, diags) is None
        part = cs.kway_clique_partition(g, spec)
        assert cs.verify_partition(g, part, spec).valid
        assert part.strategy == "exact"

    def test_coloring_is_asked_once_for_a_two_part_split(self, monkeypatch):
        # DSatur needs 6 classes on C9xK2 against 4 of room at (3, 3)
        calls = []

        def counted(h, quotas, diags):
            calls.append(tuple(quotas))
            return _coloring_strategy(h, quotas, diags)

        monkeypatch.setattr(partition, "_coloring_strategy", counted)
        assert cs.clique_bipartition(strong(9, 2), 3, 3).strategy == "exact"
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("length, m, quotas", [
        (9, 2, (3, 3)),
        (13, 2, (3, 3)),
        (5, 4, (5, 3, 3, 3)),
        (5, 4, (4, 3, 3, 3, 2)),
        (7, 3, (3, 3, 3, 2)),
        (7, 3, (2,) * 7),
    ])
    def test_one_coloring_question_and_one_log_line_per_call(
            self, monkeypatch, caplog, length, m, quotas):
        # the coloring stage is asked once, with the whole quota list, one
        # exact search of that list answers, and one line logs the strategy
        calls = []

        def counted(h, asked, diags):
            calls.append(tuple(asked))
            return _coloring_strategy(h, asked, diags)

        monkeypatch.setattr(partition, "_coloring_strategy", counted)
        g = strong(length, m)
        with caplog.at_level(logging.DEBUG, logger="clique_splitter.partition"):
            part = cs.kway_clique_partition(g, quotas)
        assert cs.verify_partition(g, part, cs.PartitionSpec(quotas)).valid
        assert part.strategy == "exact"
        assert calls == [quotas]
        lines = [r.getMessage() for r in caplog.records if " solved by " in r.getMessage()]
        assert lines == [f"{quotas} solved by exact"]

    @staticmethod
    def _recolored(g, spec):
        # a new graph equal to g, whose memo holds no coloring yet
        return cs.kway_clique_partition(cs.Graph(g.n, g.edges()), spec)

    @pytest.mark.parametrize("g, quotas, nodes", [
        (regular(100, 4, 1), (2, 2, 2), partition.EXACT_NODES),
        (strong(7, 3), (4, 3, 3), 1),
    ], ids=["regular-100-4", "C7xK3"])
    def test_a_recolored_answer_deals_whole_classes(self, monkeypatch, g, quotas, nodes):
        # DSatur overflows the room on both graphs, and the search stops
        # at its budget: 20,000 nodes on the random 4-regular graph, one
        # node on C7xK3. TabuCol then finds a (max degree - 1)-coloring
        # with chi(C7xK3) = 7 = max degree - 1 colors, and each part is a
        # union of at most p_i - 1 of its classes, dealt as DSatur's are
        monkeypatch.setattr(partition, "EXACT_NODES", nodes)
        spec = cs.PartitionSpec(quotas)
        assert len(set(brute_dsatur(g))) > g.max_degree - 1
        part = self._recolored(g, spec)
        assert part.strategy == "recoloring"
        assert cs.verify_partition(g, part, spec).valid
        colors = [0] * g.n
        for c, cls in enumerate(_tabucol_classes(g)):
            for v in cls:
                colors[v] = c
        assert is_proper_coloring(g, colors)
        assert max(colors) + 1 <= g.max_degree - 1
        for side, p in zip(part.parts, quotas):
            assert is_union_of_classes(colors, side, p - 1)
        assert [list(side) for side in part.parts] == brute_deal(colors, quotas)
        again = self._recolored(g, spec)
        assert again.assignment == part.assignment
        assert again.strategy == part.strategy

    @pytest.mark.parametrize("n,d", [(48, 16), (28, 13), (40, 14)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", ["all-2", "even-3"])
    def test_regular_graphs_answer_in_one_coloring(self, n, d, seed, shape):
        g = regular(n, d, seed)
        spec = self._spec(d, shape)
        part = cs.kway_clique_partition(g, spec)
        assert cs.verify_partition(g, part, spec).valid
        assert part.strategy == "coloring"

    def test_same_inputs_same_partition(self):
        g = regular(30, 14, 2)
        spec = cs.PartitionSpec((7, 5, 4))
        first = cs.kway_clique_partition(g, spec)
        second = cs.kway_clique_partition(g, spec)
        assert first.assignment == second.assignment
        assert first.strategy == second.strategy


class TestTabuCol:
    """The recoloring stage's (max degree - 1)-coloring: when it returns
    classes they are a proper coloring of V with at most max degree - 1
    classes, and it returns None when there is no such coloring."""

    @staticmethod
    def _colors(g, classes):
        colors = [None] * g.n
        for c, cls in enumerate(classes):
            assert list(cls) == sorted(cls)
            for v in cls:
                assert colors[v] is None
                colors[v] = c
        assert None not in colors
        return colors

    @given(small_graphs())
    @settings(max_examples=200)
    def test_classes_are_a_proper_coloring_on_small_graphs(self, g):
        # DSatur's classes are the start, so a coloring that already fits
        # comes back unchanged, and any answer is a proper coloring
        assume(g.max_degree >= 2)
        classes = _tabucol_classes(g)
        if len(_dsatur_classes(g)) <= g.max_degree - 1:
            assert classes == _dsatur_classes(g)
        if classes is not None:
            colors = self._colors(g, classes)
            assert is_proper_coloring(g, colors)
            assert len(classes) <= g.max_degree - 1

    @pytest.mark.parametrize("d, n, seed", [
        (4, 100, 1), (4, 100, 2), (4, 100, 4), (4, 400, 1), (4, 400, 3),
        (4, 400, 4), (4, 1500, 2), (4, 1500, 3), (4, 1500, 5), (5, 100, 3)])
    def test_recolors_each_sparse_miss(self, d, n, seed):
        # DSatur overflows max degree - 1 on each of criterion 13's graphs,
        # and TabuCol, started from its classes, finds a proper coloring
        # in the room, the same one on a second run on an equal graph
        g = regular(n, d, seed)
        assert len(_dsatur_classes(g)) > g.max_degree - 1
        classes = _tabucol_classes(g)
        assert classes is not None
        assert is_proper_coloring(g, self._colors(g, classes))
        assert len(classes) <= g.max_degree - 1
        assert _tabucol_classes(cs.Graph(g.n, g.edges())) == classes

    @pytest.mark.parametrize("length, m", [(5, 2), (7, 2), (9, 2), (5, 3)])
    def test_none_below_the_chromatic_number(self, length, m):
        # chi(C_L x K_m) = ceil(L m / floor(L / 2)) exceeds max degree - 1
        # = 3m - 2 on these products, so no move sequence can succeed
        g = strong(length, m)
        assert -(-length * m // (length // 2)) > g.max_degree - 1
        assert _tabucol_classes(g) is None

    def test_zero_moves_keep_the_start(self, monkeypatch):
        # with no moves allowed the answer is the start itself: DSatur's
        # classes when they fit, None when they overflow
        monkeypatch.setattr(partition, "RECOLOR_MOVES", 0)
        for g in (strong(7, 3), regular(100, 4, 1)):
            assert len(_dsatur_classes(g)) > g.max_degree - 1
            assert _tabucol_classes(g) is None
        g = regular(28, 13, 3)
        assert len(_dsatur_classes(g)) <= g.max_degree - 1
        assert _tabucol_classes(g) == _dsatur_classes(g)


class TestOneShotColoring:
    """A k-way split answered by one coloring of the input deals whole
    classes of a proper coloring: part i gets at most p_i - 1 of them.
    Part 1 takes V when it has room for every class; otherwise the
    classes go round-robin, largest first, over the parts with room."""

    @staticmethod
    def _balanced(delta, k):
        base, extra = divmod(delta - 1 + k, k)
        return (base + 1,) * extra + (base,) * (k - extra)

    @classmethod
    def _quota_lists(cls, delta):
        lists = [(delta + 1 - q, q) for q in range(2, (delta + 1) // 2 + 1)]
        lists += [cls._balanced(delta, k) for k in (3, 4) if delta >= k + 1]
        if delta >= 3:
            lists.append((2,) * (delta - 1))
        return lists

    def _check(self, g):
        colors = brute_dsatur(g)
        assert is_proper_coloring(g, colors)
        ncolors = max(colors, default=-1) + 1
        for quotas in self._quota_lists(g.max_degree):
            fits = ncolors <= sum(quotas) - len(quotas)
            try:
                part = cs.kway_clique_partition(g, quotas)
            except cs.AllStrategiesExhausted:
                assert not fits
                continue
            assert (part.strategy == "coloring") == fits
            if fits:
                for side, p in zip(part.parts, quotas):
                    assert is_union_of_classes(colors, side, p - 1)
                assert [list(side) for side in part.parts] == brute_deal(colors, quotas)
                assert (part.parts[0] == tuple(range(g.n))) == (ncolors <= quotas[0] - 1)

    @given(small_graphs())
    @settings(max_examples=200)
    def test_parts_are_unions_of_classes_on_small_graphs(self, g):
        if g.max_degree < 3 or brute_omega(g) > g.max_degree - 1:
            return
        self._check(g)

    @pytest.mark.parametrize("n,d", [(28, 13), (30, 14), (32, 15), (34, 16)])
    @pytest.mark.parametrize("seed", range(2))
    def test_parts_are_unions_of_classes_on_regular_graphs(self, n, d, seed):
        self._check(regular(n, d, seed))

    def test_one_dsatur_run_per_graph(self, monkeypatch):
        g = regular(28, 13, 3)
        calls = []

        def counted(h):
            calls.append(h)
            return _dsatur_coloring(h)

        monkeypatch.setattr(partition, "_dsatur_coloring", counted)
        lists = self._quota_lists(g.max_degree)
        for quotas in lists:
            assert cs.kway_clique_partition(g, quotas).strategy == "coloring"
        for p, q in (quotas for quotas in lists if len(quotas) == 2):
            assert cs.clique_bipartition(g, p, q).strategy == "coloring"
        assert len(calls) == 1
        # an equal graph has a memo of its own
        h = cs.Graph(g.n, g.edges())
        for quotas in lists:
            cs.kway_clique_partition(h, quotas)
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_only_the_precondition_searches_the_whole_vertex_set(self, monkeypatch, seed):
        # G(60, 0.5) has max degree about 40 and needs about 13 classes,
        # more than the 9-10 that p_1 - 1 leaves for k >= 4, so the
        # classes are dealt and no part's certificate is near-whole-graph
        g = gnp(60, 0.5, seed)
        sizes = []
        search = kernels.max_clique_size

        def counted(adj, mask, *args):
            sizes.append(mask.bit_count())
            return search(adj, mask, *args)

        monkeypatch.setattr(kernels, "max_clique_size", counted)
        ncolors = len(_dsatur_classes(g))
        for k in range(4, 9):
            quotas = self._balanced(g.max_degree, k)
            assert ncolors > quotas[0] - 1
            part = cs.kway_clique_partition(g, quotas)
            assert part.strategy == "coloring"
            assert cs.verify_partition(g, part, cs.PartitionSpec(quotas)).valid
        assert sizes.count(g.n) == 1 and sizes[0] == g.n
        assert max(sizes[1:]) <= g.n // 2

    def test_dealt_parts_search_from_their_classes(self, monkeypatch):
        # each dealt part's search, made on a memo miss alone, is seeded
        # with the numbered masks of the classes it was dealt, in dealing
        # order; verification, the builders and the exact answer seed none
        g = gnp(60, 0.5, 1)
        seeds = {}
        search = kernels.max_clique_size

        def counted(adj, mask, tables=None, classes=()):
            seeds[mask] = list(classes)
            return search(adj, mask, tables, classes)

        monkeypatch.setattr(kernels, "max_clique_size", counted)
        classes = _dsatur_classes(g)
        numbered = classes.masks
        quotas = self._balanced(g.max_degree, 5)
        part = cs.kway_clique_partition(g, quotas)
        assert part.strategy == "coloring"
        assert seeds.pop((1 << g.n) - 1) == []  # the precondition's search
        part_of = partition._deal_order(quotas)
        expected = {}
        for mask, i in zip(numbered, part_of):
            expected.setdefault(i, []).append(mask)
        assert len(seeds) == len(quotas)
        for i, dealt in expected.items():
            assert len(dealt) <= quotas[i] - 1
            assert seeds[sum(dealt)] == dealt
        seeds.clear()
        assert cs.kway_clique_partition(g, quotas) == part
        assert cs.verify_partition(g, part, cs.PartitionSpec(quotas)).valid
        assert seeds == {}
        h = cs.Graph(g.n, g.edges())
        assert cs.verify_partition(h, part, cs.PartitionSpec(quotas)).valid
        cs.partition_from_parts(cs.Graph(g.n, g.edges()), part.parts)
        cs.partition_from_assignment(cs.Graph(g.n, g.edges()), part.assignment)
        fresh = cs.Graph(g.n, g.edges())
        partition._certify_assignment(
            fresh, _exact_partition_assignment(fresh, (2,) * (g.max_degree - 1)),
            g.max_degree - 1, "exact")
        assert seeds and all(classes == [] for classes in seeds.values())

    def test_parts_of_one_class_are_seeded_with_it(self, monkeypatch):
        # every quota is at least 2, so the first k classes go one to a
        # part: on an all-2 list, or a list dealt no more classes than
        # parts, each part's search is seeded with its one class, and an
        # empty part's, mask 0, with none; one more class seeds part 0's
        # search with both of its classes
        g = gnp(60, 0.5, 1)
        seeds = {}
        search = kernels.max_clique_size

        def counted(adj, mask, tables=None, classes=()):
            seeds[mask] = list(classes)
            return search(adj, mask, tables, classes)

        monkeypatch.setattr(kernels, "max_clique_size", counted)
        classes = _dsatur_classes(g)
        r, delta = len(classes), g.max_degree
        numbered = classes.masks
        assert 4 <= r <= delta - 3
        for quotas in ((2,) * (delta - 1), (2,) * (r - 1) + (delta - r + 1,)):
            seeds.clear()
            partition._deal(cs.Graph(g.n, g.edges()), classes, quotas, "coloring")
            expected = {mask: [mask] for mask in numbered}
            if len(quotas) > r:
                expected[0] = []
            assert seeds == expected
        # r - 1 parts: part 0 takes class 0 and, second in the deal, class r - 1
        quotas = (3,) + (2,) * (r - 3) + (delta - r + 1,)
        seeds.clear()
        partition._deal(cs.Graph(g.n, g.edges()), classes, quotas, "coloring")
        assert seeds == {numbered[0] | numbered[r - 1]: [numbered[0], numbered[r - 1]],
                         **{numbered[i]: [numbered[i]] for i in range(1, r - 1)}}

    @staticmethod
    def _edge_in_a_class(g):
        # DSatur's colouring with one neighbour of vertex 0 moved into its
        # class: an all-2 list deals that class, and its edge, to one part
        colors = _dsatur_coloring(g)
        colors[g.adjacency[0][0]] = colors[0]
        return (2,) * (g.max_degree - 1), colors

    @staticmethod
    def _triangle_across_two_classes(g):
        # seven classes of 7, 6, ..., 1 vertices on an all-3 list: part 0
        # is dealt the largest and the smallest, which hold a triangle's
        # edge and its third vertex. A search that stopped at the part's
        # two classes would stop at its first edge and call it
        # triangle-free.
        a, b, c = next((a, b, c) for a in range(g.n) for b in g.adjacency[a]
                       for c in g.adjacency[b] if a < b < c and c in g.adjacency[a])
        rest = iter(v for v in range(g.n) if v not in (a, b, c))
        colors = [0] * g.n
        for color, size in enumerate(range(6, 1, -1), 1):
            for v in itertools.islice(rest, size):
                colors[v] = color
        colors[c] = 6
        return (3,) * ((g.max_degree - 1) // 2), colors

    @pytest.mark.parametrize("case", ["edge-in-a-class", "triangle-across-two-classes"])
    def test_an_improper_colouring_fails_post_verification(self, monkeypatch, case):
        # a colouring that fits the room but is not proper: the seeded
        # search of the part it wrongs still finds the part's clique
        # number, so the answer is refused rather than returned
        g = regular(28, 13, 3)
        make = {"edge-in-a-class": self._edge_in_a_class,
                "triangle-across-two-classes": self._triangle_across_two_classes}[case]
        quotas, colors = make(g)
        assert max(colors) + 1 <= sum(quotas) - len(quotas)
        monkeypatch.setattr(partition, "_dsatur_coloring", lambda h: list(colors))
        with pytest.raises(cs.SearchFailureError, match="post-verification failed") as info:
            cs.kway_clique_partition(g, quotas)
        omegas = info.value.diagnostics["omegas"]
        assert any(omega > p - 1 for omega, p in zip(omegas, quotas))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_coloring_misses_on_cycle_clique_products(self, m):
        # max degree 3m - 1 leaves 3m - 2 classes of room, and DSatur
        # needs 3m on every product
        for length in range(5, 42, 2):
            g = strong(length, m)
            diags = {}
            quotas = TestKwayCliquePartition._spec(g.max_degree, "even-3").quotas
            assert len(_dsatur_classes(g)) == 3 * m
            assert _coloring_strategy(g, quotas, diags) is None
            assert diags["coloring"] == f"DSatur used {3 * m} > {3 * m - 2} classes"
            try:
                part = cs.kway_clique_partition(g, quotas)
            except cs.AllStrategiesExhausted as exc:
                # the engine asked the same coloring question and was refused
                assert exc.diagnostics["coloring"] == diags["coloring"]
                continue
            assert part.strategy != "coloring"
            assert cs.verify_partition(g, part, cs.PartitionSpec(quotas)).valid


class TestMaxKpfreePartition:
    def test_already_free_graph_takes_everything(self):
        g = petersen()  # omega 2, max degree 3
        res = cs.max_kpfree_partition(g, 3, 1)
        assert res.certificate == "exhaustive"
        assert res.partition.parts[0] == tuple(range(10))

    def test_star_balanced(self):
        g = cs.Graph(4, [(0, 1), (0, 2), (0, 3)])
        res = cs.max_kpfree_partition(g, 2, 2)
        assert len(res.partition.parts[0]) == 3
        best = max(valid_bipartition_sizes(g, 2, 2))
        assert len(res.partition.parts[0]) == best

    def test_spec_violating_instance_rejected(self):
        c4 = C(4)  # omega 2 = max degree, hypothesis fails
        with pytest.raises(cs.PreconditionError):
            cs.max_kpfree_partition(c4, 2, 1)

    def test_non_integer_pair_rejected_before_any_search(self, monkeypatch):
        # 7.5 + 6.5 meets max degree + 1 = 14, so only the type is wrong
        g = regular(28, 13, 3)
        monkeypatch.setattr(partition, "_check_omega", None)
        with pytest.raises(cs.PreconditionError, match="must be integers"):
            cs.max_kpfree_partition(g, 7.5, 6.5)

    @pytest.mark.parametrize("p, q", [(7.0, 7.0), ("7", 7), (7, None), (Fraction(15, 2), 6.5)])
    def test_every_non_integer_type_rejected(self, p, q):
        # each pair sums to max degree + 1 = 14, or fails to sum at all
        with pytest.raises(cs.PreconditionError) as err:
            cs.max_kpfree_partition(regular(28, 13, 3), p, q)
        assert str(err.value) == f"p and q must be integers, got p={p!r}, q={q!r}"

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_regime_matches_oracle(self, seed):
        g = gnp(10, 0.45, seed + 50)
        delta = g.max_degree
        if delta < 3 or cs.clique_number(g).omega > delta - 1:
            pytest.skip("hypothesis fails")
        q = max(2, (delta + 1) // 3)
        p = delta + 1 - q
        if p < q:
            pytest.skip("no feasible pair")
        sizes = valid_bipartition_sizes(g, p, q)
        if not sizes:
            with pytest.raises(cs.AllStrategiesExhausted):
                cs.max_kpfree_partition(g, p, q)
            return
        res = cs.max_kpfree_partition(g, p, q)
        assert len(res.partition.parts[0]) == max(sizes)

    @pytest.mark.parametrize("g,q", [(regular(30, 14, 0), 1), (regular(30, 14, 0), 7),
                                     (strong(7, 3), 1), (strong(7, 3), 2)])
    def test_large_graph_below_the_quota_takes_everything(self, g, q):
        p = g.max_degree + 1 - q
        assert g.n > partition.MAXFREE_EXHAUSTIVE_N
        assert cs.clique_number(g).omega <= p - 1
        res = cs.max_kpfree_partition(g, p, q)
        assert res.certificate == "local"
        assert res.partition.strategy == "maxfree-local"
        assert res.partition.parts == (tuple(range(g.n)), ())

    # every feasible pair with p <= omega of C7xK3 and C9xK2 (whose (4,2)
    # is infeasible), and two splits that the grow step enlarges; on two
    # thinned C9xK3 the growth's V1 is pinned, so a change to the order
    # of its moves shows: from 15 vertices, six pulls reach the first,
    # five pulls and one exchange the second
    @pytest.mark.parametrize("g,p,q,grown", [
        (strong(7, 3), 6, 3, None), (strong(7, 3), 5, 4, None), (strong(9, 2), 3, 3, None),
        (gnp(15, 0.3, 0), 3, 3, None), (strong(5, 5), 10, 5, None),
        (thinned_products(9, 3, 2)[0], 5, 4,
         (0, 2, 3, 4, 5, 7, 8, 9, 10, 13, 14, 15, 16, 18, 19, 20, 21, 22, 24, 25, 26)),
        (thinned_products(9, 3, 2)[1], 5, 4,
         (0, 1, 2, 3, 4, 5, 6, 9, 10, 12, 13, 14, 15, 16, 18, 20, 21, 22, 23, 25, 26)),
    ], ids=["g0-6-3", "g1-5-4", "g2-3-3", "g3-3-3", "g4-10-5", "pulls", "exchange"])
    def test_large_graph_grows_the_cascade_split(self, g, p, q, grown):
        assert g.n > partition.MAXFREE_EXHAUSTIVE_N
        assert cs.clique_number(g).omega >= p
        bip = cs.clique_bipartition(g, p, q)
        res = cs.max_kpfree_partition(g, p, q)
        assert cs.verify_partition(g, res.partition, cs.PartitionSpec((p, q))).valid
        assert res.certificate == "local"
        v1, v2 = res.partition.parts
        assert len(v1) >= len(bip.parts[0])
        assert brute_improving_move(g, v1, v2, p, q) is None
        if grown is not None:
            assert len(bip.parts[0]) == 15
            assert v1 == grown

    def test_proof_of_infeasibility_is_kept(self):
        g = strong(9, 2)  # (4,2) has no valid split: C9 x K2 is an exception graph
        assert g.n > partition.MAXFREE_EXHAUSTIVE_N
        with pytest.raises(cs.AllStrategiesExhausted) as direct:
            cs.clique_bipartition(g, 4, 2)
        with pytest.raises(cs.AllStrategiesExhausted) as err:
            cs.max_kpfree_partition(g, 4, 2)
        assert err.value.proven_infeasible
        assert err.value.diagnostics["exact"] == "proved infeasible"
        assert err.value.diagnostics == direct.value.diagnostics


class TestConstructionParity:
    """Every Partition the engine returns, whichever stage answers it,
    equals field by field the one ``partition_from_parts`` builds from
    its parts and strategy, and each certificate is the one of its own
    part's mask."""

    @staticmethod
    def _assert_parity(g, part):
        rebuilt = cs.partition_from_parts(g, part.parts, part.strategy)
        for field in ("assignment", "parts", "certificates", "strategy"):
            assert getattr(part, field) == getattr(rebuilt, field), field
        for cert, members in zip(part.certificates, part.parts):
            assert cert == clique_number_within(g, kernels.to_mask(members))

    def _strategies(self, g, lists):
        """The strategy of each answered list, with "coloring" split into
        "coloring: V" when part 1 is the whole vertex set and "coloring:
        dealt" otherwise."""
        seen = set()
        for quotas in lists:
            try:
                part = cs.kway_clique_partition(g, quotas)
            except cs.AllStrategiesExhausted:
                continue
            self._assert_parity(g, part)
            name = part.strategy
            if name == "coloring":
                name += ": V" if part.parts[0] == tuple(range(g.n)) else ": dealt"
            seen.add(name)
        return seen

    @staticmethod
    def _random_lists(rng, delta, count):
        """``count`` quota lists with k from 2 to 6 parts: the delta - 1
        classes of room cut at random into k nonempty shares."""
        lists = []
        for _ in range(count):
            k = rng.randint(2, min(6, delta - 1))
            cuts = sorted(rng.sample(range(1, delta - 1), k - 1))
            room = [b - a for a, b in zip([0, *cuts], [*cuts, delta - 1])]
            lists.append(tuple(sorted((r + 1 for r in room), reverse=True)))
        return lists

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_and_lists(self, seed):
        rng = random.Random(seed)
        graphs = [regular(rng.randrange(20, 40, 2), rng.randint(8, 14), seed),
                  gnp(rng.randint(20, 40), rng.uniform(0.35, 0.55), seed)]
        seen = set()
        for g in graphs:
            delta = g.max_degree
            if cs.clique_number(g).omega > delta - 1:
                continue
            lists = [(delta,), (delta - 1, 2), *self._random_lists(rng, delta, 12)]
            seen |= self._strategies(g, lists)
        assert {"verify", "coloring: V", "coloring: dealt"} <= seen

    @pytest.mark.parametrize("length, m", [(7, 3), (9, 3), (5, 4)])
    def test_exact_answers_on_products(self, length, m):
        # DSatur needs 3m classes on C_L x K_m, two more than the room
        g = strong(length, m)
        rng = random.Random(length * m)
        assert "exact" in self._strategies(g, self._random_lists(rng, g.max_degree, 4))

    @pytest.mark.parametrize("seed", range(8))
    def test_assignment_builder_matches_parts_builder(self, seed):
        # some indices below k go unused, and k may exceed the largest
        # index plus one, so parts come out empty too
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 30), 0.4, seed)
        top = rng.randint(1, 5)
        used = rng.sample(range(top), rng.randint(1, top))
        assignment = [rng.choice(used) for _ in range(g.n)]
        for k in (None, top, top + rng.randint(1, 3)):
            part = cs.partition_from_assignment(g, assignment, k, f"seed {seed}")
            rebuilt = cs.partition_from_parts(
                g, partition._parts_of(assignment, max(assignment) + 1 if k is None else k),
                f"seed {seed}")
            for field in ("assignment", "parts", "certificates", "strategy"):
                assert getattr(part, field) == getattr(rebuilt, field), field

    @pytest.mark.parametrize("d, n, seed", [(4, 100, 1), (4, 100, 2), (4, 100, 4), (5, 100, 3)])
    def test_recolored_answers_on_sparse_misses(self, d, n, seed):
        # criterion 13's misses: DSatur overflows the room and the (2, 2,
        # 2) search runs out of nodes, so TabuCol's classes are dealt
        g = regular(n, d, seed)
        lists = [(2,) * (d - 1), (d - 1, 2)]
        assert "recoloring" in self._strategies(g, lists)


class TestSearchNumberedCertificates:
    """The engine builds each part's one mask in the clique search's
    numbering, which keys the certificate memo, so no part is translated:
    on graphs whose numbering is not the labels, every certificate it
    builds equals the one ``clique_number_within`` searches for, after
    translating the part's mask, on a fresh equal graph, and is the very
    entry that ``clique_number_within`` returns on the same graph."""

    @staticmethod
    def _non_regular(g):
        assert _search_numbering(g)[0] is not None
        return g

    @staticmethod
    def _assert_certificates(g, part):
        fresh = cs.Graph(g.n, g.edges())
        for cert, members in zip(part.certificates, part.parts):
            expected = clique_number_within(fresh, kernels.to_mask(members))
            assert (cert.omega, cert.witness) == (expected.omega, expected.witness)

    @pytest.mark.parametrize("seed", range(4))
    def test_dsatur_deals_and_exact_answers(self, seed):
        rng = random.Random(seed)
        g = self._non_regular(gnp(rng.randint(24, 40), rng.uniform(0.35, 0.55), seed))
        delta = g.max_degree
        assert len(_dsatur_classes(g)) <= delta - 1
        lists = [(delta - 1, 2), (2,) * (delta - 1),
                 *TestConstructionParity._random_lists(rng, delta, 6)]
        for quotas in lists:
            part = cs.kway_clique_partition(g, quotas)
            assert part.strategy == "coloring"
            self._assert_certificates(g, part)
            assignment = _exact_partition_assignment(g, quotas)
            exact = partition._certify_assignment(g, assignment, len(quotas), "exact")
            assert exact.satisfies(quotas)
            self._assert_certificates(g, exact)

    def test_tabucol_deals(self):
        # a thinned C_7 x K_3 on which DSatur overflows the room and
        # TabuCol finds a (max degree - 1)-coloring
        g = self._non_regular(thinned_products(7, 3, 6)[5])
        delta = g.max_degree
        assert len(_dsatur_classes(g)) > delta - 1
        classes = _tabucol_classes(g)
        assert classes is not None
        for quotas in [(delta - 1, 2), (4, 3, 3), (2,) * (delta - 1)]:
            part = partition._deal(g, classes, quotas, "recoloring")
            assert part.satisfies(quotas)
            self._assert_certificates(g, part)

    @pytest.mark.parametrize("seed", range(4))
    def test_both_builders(self, seed):
        rng = random.Random(seed)
        g = self._non_regular(gnp(rng.randint(20, 40), 0.5, seed))
        k = rng.randint(1, 4)
        assignment = [rng.randrange(k) for _ in range(g.n)]
        built = cs.partition_from_assignment(g, assignment, k)
        self._assert_certificates(g, built)
        g = cs.Graph(g.n, g.edges())  # a new memo, so the parts are searched again
        self._assert_certificates(g, cs.partition_from_parts(g, partition._parts_of(assignment, k)))

    def test_the_numbered_masks_are_the_masks_on_regular_graphs(self):
        g = regular(40, 13, 1)
        assert _search_numbering(g)[2] is None
        classes = _dsatur_classes(g)
        assert classes.masks == list(map(kernels.to_mask, classes))

    def test_engine_and_outside_callers_share_one_entry(self):
        # a part's label mask, given to clique_number_within, is
        # translated onto the key the engine filled, so the lookup
        # returns the engine's own certificate and searches nothing
        g = self._non_regular(gnp(60, 0.5, 1))
        for quotas in [(g.max_degree - 1, 2), (2,) * (g.max_degree - 1)]:
            part = cs.kway_clique_partition(g, quotas)
            assert part.strategy == "coloring" and len(set(part.parts)) > 1
            certificates = len(g._memo["certificates"])
            for cert, members in zip(part.certificates, part.parts):
                assert clique_number_within(g, kernels.to_mask(members)) is cert
            assert len(g._memo["certificates"]) == certificates

    def test_a_warm_graph_deals_without_translating(self, monkeypatch):
        # the graph's coloring, tables and clique number are built by the
        # first list; the second deals other parts, whose certificates are
        # searched for without reading a part's bits
        g = self._non_regular(gnp(60, 0.5, 3))
        delta = g.max_degree
        cs.kway_clique_partition(g, (delta - 1, 2))
        calls = []
        from_mask = kernels.from_mask

        def counted(mask):
            calls.append(mask)
            return from_mask(mask)

        monkeypatch.setattr(kernels, "from_mask", counted)
        certificates = len(g._memo["certificates"])
        part = cs.kway_clique_partition(g, (2,) * (delta - 1))
        assert part.strategy == "coloring" and len(set(part.parts)) > 1
        assert len(g._memo["certificates"]) > certificates
        assert calls == []
        self._assert_certificates(g, part)
