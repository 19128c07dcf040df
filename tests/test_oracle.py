from fractions import Fraction

import pytest

import clique_splitter as cs
from clique_splitter.cliques import _search_numbering
from _brute import (
    brute_chromatic,
    brute_clique_within,
    brute_degeneracy,
    brute_omega,
    naive_partition_exists,
    petersen,
)


def K(n):
    return cs.generate(cs.GeneratorRecipe("complete", {"n": n}))


def C(n):
    return cs.generate(cs.GeneratorRecipe("cycle", {"n": n}))


def gnp(n, p, seed):
    return cs.generate(cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))


def P(n):
    return cs.Graph(n, [(v, v + 1) for v in range(n - 1)])


class TestExistsCliquePartition:
    def test_odd_cycle_two_twos(self):
        ok, witness = cs.exists_clique_partition(C(5), cs.PartitionSpec((2, 2)))
        assert not ok and witness is None

    def test_triangle_free_whole_graph(self):
        ok, witness = cs.exists_clique_partition(C(5), cs.PartitionSpec((3, 2)))
        assert ok
        assert witness.parts == ((0, 1, 2, 3, 4), ())

    def test_k6_pigeonhole(self):
        ok, _ = cs.exists_clique_partition(K(6), cs.PartitionSpec((4, 3)))
        assert not ok

    def test_witness_is_always_valid(self):
        g = gnp(9, 0.5, 4)
        ok, witness = cs.exists_clique_partition(g, cs.PartitionSpec((3, 2)))
        if ok:
            report = cs.verify_partition(g, witness, cs.PartitionSpec((3, 2)))
            assert report.valid

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("quotas", [(2, 2), (3, 2), (2, 2, 2), (3, 3)])
    def test_agrees_with_naive_full_enumeration(self, seed, quotas):
        g = gnp(7, 0.5, seed)
        ok, witness = cs.exists_clique_partition(g, cs.PartitionSpec(quotas))
        assert ok == naive_partition_exists(g, quotas)
        if ok:
            assert cs.verify_partition(g, witness, cs.PartitionSpec(quotas)).valid

    def test_budget_refusal(self):
        g = gnp(15, 0.3, 0)
        with pytest.raises(cs.BudgetExceededError):
            cs.exists_clique_partition(g, cs.PartitionSpec((9, 7)))

    def test_budget_is_adjustable(self):
        g = gnp(15, 0.3, 0)
        budget = cs.OracleBudget(assignment_cap=15)
        ok, _ = cs.exists_clique_partition(
            g, cs.PartitionSpec((g.max_degree - 1, 2)), budget)
        assert ok in (True, False)

    def test_state_cap_enforced(self):
        g = gnp(12, 0.5, 1)
        tiny = cs.OracleBudget(max_states=5)
        with pytest.raises(cs.BudgetExceededError, match="states"):
            cs.exists_clique_partition(g, cs.PartitionSpec((3, 3)), tiny)


class TestMaxKpfreeSubset:
    def test_complete_graph(self):
        assert cs.max_kpfree_subset(K(5), 3) == (0, 1)

    def test_odd_cycle_independent(self):
        assert cs.max_kpfree_subset(C(5), 2) == (0, 2)

    def test_petersen_independence_number(self):
        found = cs.max_kpfree_subset(petersen(), 2)
        assert len(found) == 4

    def test_monotone_in_p(self):
        g = gnp(10, 0.6, 2)
        sizes = [len(cs.max_kpfree_subset(g, p)) for p in range(2, 6)]
        assert sizes == sorted(sizes)

    def test_budget_refusal(self):
        with pytest.raises(cs.BudgetExceededError):
            cs.max_kpfree_subset(gnp(25, 0.2, 0), 3)

    @pytest.mark.parametrize("p", [2.5, 3.0, "3"], ids=repr)
    def test_non_integer_p_refused(self, p):
        # a search that took 2.5 as its clique size would answer as p = 3
        with pytest.raises(ValueError) as err:
            cs.max_kpfree_subset(K(5), p)
        assert str(err.value) == f"p must be an integer, got {p!r}"


class TestChromaticNumber:
    @pytest.mark.parametrize("g,expected", [
        (C(5), 3),
        (K(7), 7),
        (petersen(), 3),
        (cs.Graph(4), 1),
        (cs.Graph(0), 0),
    ], ids=["C5", "K7", "petersen", "edgeless", "empty"])
    def test_examples(self, g, expected):
        assert cs.chromatic_number(g) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute(self, seed):
        g = gnp(7, 0.5, seed)
        assert cs.chromatic_number(g) == brute_chromatic(g)

    def test_brooks_bound_on_fixtures(self):
        # chi <= max degree + 1, equality only for complete graphs and odd cycles
        for g in [K(4), K(6), C(5), C(7), C(6), petersen(), gnp(8, 0.4, 1)]:
            chi = cs.chromatic_number(g)
            assert chi <= g.max_degree + 1
            if chi == g.max_degree + 1:
                is_complete = g.edge_count == g.n * (g.n - 1) // 2
                is_odd_cycle = (g.n % 2 == 1 and g.edge_count == g.n
                                and g.max_degree == 2)
                assert is_complete or is_odd_cycle

    def test_budget_refusal(self):
        with pytest.raises(cs.BudgetExceededError):
            cs.chromatic_number(gnp(15, 0.4, 0))


class TestFindColoring:
    def test_exact_boundary(self):
        g = petersen()
        assert cs.find_coloring(g, 2) is None
        coloring = cs.find_coloring(g, 3)
        assert coloring is not None
        assert all(coloring[u] != coloring[v] for u, v in g.edges())
        assert max(coloring) + 1 <= 3

    @pytest.mark.parametrize("max_colors", [2.5, 3.0, "3"], ids=repr)
    def test_non_integer_color_count_refused(self, max_colors):
        with pytest.raises(ValueError) as err:
            cs.find_coloring(petersen(), max_colors)
        assert str(err.value) == f"max_colors must be an integer, got {max_colors!r}"


class TestDegeneracy:
    def test_tree(self):
        tree = cs.generate(cs.GeneratorRecipe("path", {"n": 6}))
        assert cs.degeneracy(tree) == 1

    def test_complete(self):
        assert cs.degeneracy(K(5)) == 4

    def test_petersen(self):
        assert cs.degeneracy(petersen()) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_peel(self, seed):
        g = gnp(11, 0.4, seed)
        assert cs.degeneracy(g) == brute_degeneracy(g)

    @pytest.mark.parametrize("n, p", [
        (0, 0.5), (1, 0.5), (20, 0.1), (25, 0.3), (30, 0.6), (24, 0.9)])
    def test_matches_brute_peel_on_gnp(self, n, p):
        for seed in range(4):
            g = gnp(n, p, seed)
            assert cs.degeneracy(g) == brute_degeneracy(g)

    @pytest.mark.parametrize("recipe", [
        "regular:30,3", "regular:40,7", "strong:7x3", "union:5+4+4+1", "path:9", "pendant:7,4,2"])
    def test_matches_brute_peel_on_families(self, recipe):
        g = cs.generate(cs.parse_recipe(recipe, seed=2))
        assert cs.degeneracy(g) == brute_degeneracy(g)

    def test_matches_brute_peel_on_large_graph(self):
        # the peel stops at the 600th removal with stale entries queued
        g = gnp(600, 0.02, 3)
        assert cs.degeneracy(g) == brute_degeneracy(g)

    def test_at_least_omega_minus_one(self):
        for g in [K(4), C(7), petersen(), gnp(10, 0.5, 9)]:
            assert cs.degeneracy(g) >= brute_omega(g) - 1


class TestVerifyPartition:
    def test_valid_bipartite_split(self):
        g = C(6)
        part = cs.partition_from_parts(g, [[0, 2, 4], [1, 3, 5]])
        report = cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))
        assert report.valid and report.part_omegas == (1, 1)

    def test_violation_carries_quota_sized_witness(self):
        g = K(4)
        part = cs.partition_from_parts(g, [[0, 1, 2, 3], []])
        report = cs.verify_partition(g, part, cs.PartitionSpec((3, 2)))
        assert not report.valid
        assert report.part_omegas[0] == 4
        part_index, witness = report.violations[0]
        assert part_index == 0 and len(witness) == 3
        assert all(g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1:])

    @pytest.mark.parametrize("quotas", [(4, 2), (3, 3), (2, 2)])
    def test_violation_witnesses_are_in_graph_labels(self, quotas):
        # a C5 on 0..4 and a K4 on 5..8; part 1 holds the K4 and vertex 0
        g = cs.Graph(9, [(i, (i + 1) % 5) for i in range(5)] +
                     [(u, v) for u in range(5, 9) for v in range(u + 1, 9)])
        parts = [[1, 2, 3, 4], [0, 5, 6, 7, 8]]
        part = cs.partition_from_parts(g, parts)
        report = cs.verify_partition(g, part, cs.PartitionSpec(quotas))
        expected = []
        for i, members in enumerate(parts):
            omega, clique = brute_clique_within(g, members)
            assert report.part_omegas[i] == omega
            if omega > quotas[i] - 1:
                expected.append((i, clique[:quotas[i]]))
        assert report.violations == tuple(expected)
        assert report.valid == (not expected)
        for i, witness in report.violations:
            assert len(witness) == quotas[i]
            assert set(witness) <= set(parts[i])
            assert all(g.has_edge(u, v) for j, u in enumerate(witness) for v in witness[j + 1:])

    def test_out_of_range_member_rejected(self):
        g = C(4)
        part = cs.Partition((0, 0, 1, 1), ((0, 1), (2, 3, 4)), (), None)
        with pytest.raises(ValueError):
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))

    @pytest.mark.parametrize("parts", [((0, 1), (2, 3, 4)), ((-1, 0, 1), (2, 3))],
                             ids=["past-n", "negative"])
    def test_out_of_range_member_is_a_precondition_error(self, parts):
        # like every sibling check, and still a ValueError
        g = C(4)
        part = cs.Partition((0, 0, 1, 1), parts, (), None)
        with pytest.raises(cs.CliqueSplitterError) as err:
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))
        assert isinstance(err.value, cs.PreconditionError)
        assert isinstance(err.value, ValueError)
        index = 1 if max(parts[1]) >= g.n else 0
        assert str(err.value) == f"part {index} has a vertex out of range for n=4"

    def test_partial_assignment_rejected(self):
        g = C(4)
        part = cs.Partition((0, 0, 1), ((0, 1), (2,)), (), None)
        with pytest.raises(cs.PreconditionError):
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))

    def test_part_count_mismatch_rejected(self):
        g = C(4)
        part = cs.partition_from_parts(g, [[0, 1], [2, 3]])
        with pytest.raises(cs.PreconditionError):
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2, 2)))

    def test_parts_missing_assigned_vertices_rejected(self):
        # the assignment puts the edge 0-1 in part 0, whose part list
        # leaves vertex 1 out; on parts alone the split would look valid
        g = K(4)
        part = cs.Partition((0, 0, 1, 1), ((0,), (2,)), (), None)
        with pytest.raises(cs.PreconditionError, match="parts hold 2 vertices"):
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))

    @pytest.mark.parametrize("assignment,parts,message", [
        ((0, 0, 1, 1), ((0, 1, 1), (2, 3)), "part 0 repeats a vertex"),
        ((0, 0, 1, 1), ((0, 1, 2), (3,)), "part 0 holds a vertex the assignment puts elsewhere"),
        ((0, 0, 1, 1), ((0, 1), (1, 2, 3)), "part 1 holds a vertex the assignment puts elsewhere"),
        # entries that are no integers: each fails a check that would
        # raise TypeError, and is a PreconditionError like its siblings
        ((0, 0, 1, "x"), ((0, 1), (2, 3)), "a part index is not an integer"),
        ((0, 0, 1, 1), ((0, 1), (2, 3.0)), "part 1 has a vertex that is not an integer"),
        ((0, 0, 1, 1), ((0, 1), (2, "3")), "part 1 has a vertex that is not an integer"),
        # an index equal to an integer but of no integer type, which the
        # range check and the members' comparison with the index would take
        ((0, 1, 0, 1.0), ((0, 2), (1, 3)), "a part index is not an integer"),
        ((0, 1, 0, Fraction(1)), ((0, 2), (1, 3)), "a part index is not an integer"),
        # too large for a machine integer, and out of range
        ((0, 1, 0, 2**70), ((0, 2), (1, 3)), "part index out of range"),
        ((0, 1, 0, -2**70), ((0, 2), (1, 3)), "part index out of range"),
    ], ids=["repeat", "misplaced", "two-parts", "index-str", "member-float", "member-str",
            "index-float", "index-fraction", "index-huge", "index-huge-negative"])
    # C_4 is regular, so its parts' masks are built in the labels; the
    # path 0-1-2-3 is searched in the numbering 0, 3, 1, 2, so its parts'
    # masks are built through the numbering's power table
    @pytest.mark.parametrize("g, numbering", [
        (C(4), None),
        (P(4), [0, 3, 1, 2]),
    ], ids=["cycle", "path"])
    def test_parts_disagreeing_with_assignment_rejected(self, g, numbering, assignment, parts,
                                                        message):
        assert _search_numbering(g)[0] == numbering
        part = cs.Partition(assignment, parts, (), None)
        with pytest.raises(cs.PreconditionError, match=message) as err:
            cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("last, message", [
        (299, None),
        (300, "part index out of range"),
        (-1, "part index out of range"),
        (299.0, "a part index is not an integer"),
    ], ids=["valid", "past-k", "negative", "float"])
    def test_part_indices_past_255(self, last, message):
        # k = 300: indices that no byte holds take the second check
        n = 300
        g = cs.Graph(n)
        part = cs.Partition(tuple(range(n - 1)) + (last,),
                            tuple((v,) for v in range(n)), (), None)
        spec = cs.PartitionSpec((2,) * n)
        if message is None:
            assert cs.verify_partition(g, part, spec).valid
        else:
            with pytest.raises(cs.PreconditionError, match=message):
                cs.verify_partition(g, part, spec)

    def test_bool_part_indices_accepted(self):
        # bool is an int, and operator.index takes it
        g = C(4)
        part = cs.Partition((False, True, False, True), ((0, 2), (1, 3)), (), None)
        report = cs.verify_partition(g, part, cs.PartitionSpec((2, 2)))
        assert report.valid and report.part_omegas == (1, 1)
