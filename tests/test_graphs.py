import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clique_splitter as cs
from _brute import brute_omega, petersen


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))),
        max_size=40))
    edges = [(u, v) for u, v in pairs if u != v and n > 0]
    return cs.Graph(n, edges)


class TestGraphType:
    def test_basic_invariants(self):
        g = cs.Graph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
        assert g.edge_count == 3  # duplicate collapsed
        assert g.max_degree == 2
        assert g.min_degree == 1
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(2, 1) and not g.has_edge(0, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            cs.Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            cs.Graph(3, [(0, 5)])

    def test_equality_and_hash(self):
        g1 = cs.Graph(3, [(0, 1), (1, 2)])
        g2 = cs.Graph(3, [(1, 2), (0, 1)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != cs.Graph(3, [(0, 1)])


class TestParseDimacs:
    def test_path_graph(self):
        g = cs.parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
        assert g.n == 3 and g.edge_count == 2 and g.max_degree == 2

    def test_complete_graph(self):
        text = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4"
        g = cs.parse_dimacs(text)
        assert g.n == 4 and g.edge_count == 6

    def test_self_loop_line_number(self):
        with pytest.raises(cs.GraphFormatError, match="line 2.*self-loop"):
            cs.parse_dimacs("p edge 2 1\ne 1 1")

    def test_endpoint_out_of_range(self):
        with pytest.raises(cs.GraphFormatError, match="line 3.*out of range"):
            cs.parse_dimacs("p edge 2 2\ne 1 2\ne 1 3")

    def test_malformed_header(self):
        with pytest.raises(cs.GraphFormatError, match="line 1"):
            cs.parse_dimacs("p vertex 3 2\ne 1 2")

    def test_missing_header(self):
        with pytest.raises(cs.GraphFormatError, match="missing problem line"):
            cs.parse_dimacs("c just a comment")

    def test_edge_before_header(self):
        with pytest.raises(cs.GraphFormatError, match="line 1"):
            cs.parse_dimacs("e 1 2\np edge 2 1")

    def test_duplicate_edges_collapse(self):
        g = cs.parse_dimacs("p edge 3 3\ne 1 2\ne 2 1\ne 1 2")
        assert g.edge_count == 1

    def test_comments_and_blank_lines(self):
        g = cs.parse_dimacs("c header\n\np edge 2 1\nc mid\ne 1 2\n")
        assert g.edge_count == 1


class TestRoundTrip:
    FIXTURES = [
        cs.GeneratorRecipe("complete", {"n": 5}),
        cs.GeneratorRecipe("cycle", {"n": 7}),
        cs.GeneratorRecipe("path", {"n": 4}),
        cs.GeneratorRecipe("gnp", {"n": 9, "p": 0.5}, seed=2),
        cs.GeneratorRecipe("random_regular", {"n": 10, "d": 3}, seed=1),
        cs.GeneratorRecipe("strong_product_cycle_clique", {"cycle_len": 5, "m": 2}),
        cs.GeneratorRecipe("disjoint_union", {"sizes": (4, 4)}),
        cs.GeneratorRecipe("join_pendant_clique", {"base_len": 4, "clique": 5, "attach": 0}),
    ]

    @pytest.mark.parametrize("recipe", FIXTURES, ids=lambda r: r.kind)
    def test_dimacs_round_trip(self, recipe):
        g = cs.generate(recipe)
        assert cs.parse_dimacs(cs.serialize_dimacs(g)) == g

    @pytest.mark.parametrize("recipe", FIXTURES, ids=lambda r: r.kind)
    def test_json_round_trip(self, recipe):
        g = cs.generate(recipe)
        assert cs.from_adjacency_json(cs.to_adjacency_json(g)) == g

    @pytest.mark.parametrize("data", [
        {"n": True, "edges": []},
        {"n": 3.0, "edges": []},
        {"n": "3", "edges": []},
    ])
    def test_json_rejects_non_integer_n(self, data):
        with pytest.raises(cs.GraphFormatError, match="'n' must be an integer"):
            cs.from_adjacency_json(data)

    @pytest.mark.parametrize("edges", [
        [[1.7, 0]],
        [[0, 1], ["2", 1]],
        [[1, True]],
        [[0, 1.0]],
        [[None, 1]],
    ])
    def test_json_rejects_non_integer_endpoints(self, edges):
        with pytest.raises(cs.GraphFormatError, match="edge endpoints must be integers"):
            cs.from_adjacency_json({"n": 3, "edges": edges})

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_dimacs_round_trip_random(self, g):
        assert cs.parse_dimacs(cs.serialize_dimacs(g)) == g


class TestGenerators:
    def test_complete_k5(self):
        g = cs.generate(cs.GeneratorRecipe("complete", {"n": 5}))
        assert g.edge_count == 10 and g.max_degree == 4

    def test_strong_product_cycle_clique_5_2(self):
        g = cs.generate(cs.GeneratorRecipe(
            "strong_product_cycle_clique", {"cycle_len": 5, "m": 2}))
        assert g.n == 10
        assert all(g.degree(v) == 5 for v in range(10))
        assert brute_omega(g) == 4

    def test_join_pendant_clique(self):
        g = cs.generate(cs.GeneratorRecipe(
            "join_pendant_clique", {"base_len": 4, "clique": 13, "attach": 0}))
        assert g.n == 17
        assert g.max_degree == 13
        assert g.has_edge(0, 4)

    def test_generate_is_pure(self):
        r = cs.GeneratorRecipe("gnp", {"n": 10, "p": 0.5}, seed=7)
        assert cs.generate(r) == cs.generate(r)
        r2 = cs.GeneratorRecipe("random_regular", {"n": 12, "d": 5}, seed=3)
        assert cs.serialize_dimacs(cs.generate(r2)) == cs.serialize_dimacs(cs.generate(r2))

    def test_regular_is_regular(self):
        g = cs.generate(cs.GeneratorRecipe("random_regular", {"n": 14, "d": 5}, seed=0))
        assert all(g.degree(v) == 5 for v in range(14))

    def test_regular_odd_product_rejected(self):
        with pytest.raises(cs.GenerationError, match="odd"):
            cs.generate(cs.GeneratorRecipe("random_regular", {"n": 5, "d": 3}))

    def test_regular_degree_too_large(self):
        with pytest.raises(cs.GenerationError):
            cs.generate(cs.GeneratorRecipe("random_regular", {"n": 4, "d": 4}))

    def test_strong_product_even_cycle_rejected(self):
        with pytest.raises(cs.GenerationError):
            cs.generate(cs.GeneratorRecipe(
                "strong_product_cycle_clique", {"cycle_len": 6, "m": 2}))

    def test_disjoint_union_two_k4(self):
        g = cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": (4, 4)}))
        assert g.n == 8 and g.edge_count == 12
        assert not g.has_edge(0, 4)

    @pytest.mark.parametrize("sizes", [(1,), (2, 1, 3), (5, 5, 1, 4, 2, 3), (3,) * 40])
    def test_disjoint_union_of_cliques_matches_pairwise_unions(self, sizes):
        g = cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": sizes}))
        ref = cs.generate(cs.GeneratorRecipe("complete", {"n": sizes[0]}))
        for s in sizes[1:]:
            ref = cs.disjoint_union(ref, cs.generate(cs.GeneratorRecipe("complete", {"n": s})))
        assert g == ref

    def test_unknown_kind(self):
        with pytest.raises(cs.GenerationError, match="unknown"):
            cs.generate(cs.GeneratorRecipe("mystery", {"n": 3}))


class TestRecipeParsing:
    @pytest.mark.parametrize("text,kind", [
        ("complete:5", "complete"),
        ("cycle:7", "cycle"),
        ("gnp:10,0.5", "gnp"),
        ("regular:28,13", "random_regular"),
        ("strong:5x2", "strong_product_cycle_clique"),
        ("union:4+4", "disjoint_union"),
        ("pendant:4,13,0", "join_pendant_clique"),
    ])
    def test_parse_kinds(self, text, kind):
        assert cs.parse_recipe(text).kind == kind

    @pytest.mark.parametrize("text", ["complete", "strong:5", "gnp:a,b", "wat:3"])
    def test_parse_errors(self, text):
        with pytest.raises(cs.RecipeError):
            cs.parse_recipe(text)


class TestStrongProduct:
    def test_identity_factor(self):
        g = cs.generate(cs.GeneratorRecipe("cycle", {"n": 5}))
        k1 = cs.generate(cs.GeneratorRecipe("complete", {"n": 1}))
        assert cs.strong_product(k1, g) == g

    def test_c5_times_k2_edge_count(self):
        c5 = cs.generate(cs.GeneratorRecipe("cycle", {"n": 5}))
        k2 = cs.generate(cs.GeneratorRecipe("complete", {"n": 2}))
        prod = cs.strong_product(c5, k2)
        # independent re-derivation straight from the product adjacency rule
        expected = 0
        for a, b in itertools.combinations(range(10), 2):
            u1, u2 = divmod(a, 2)
            v1, v2 = divmod(b, 2)
            ok1 = u1 == v1 or c5.has_edge(u1, v1)
            ok2 = u2 == v2 or k2.has_edge(u2, v2)
            if ok1 and ok2:
                expected += 1
        assert prod.n == 10 and prod.edge_count == expected == 25

    def test_k2_times_k2_is_k4(self):
        k2 = cs.generate(cs.GeneratorRecipe("complete", {"n": 2}))
        assert cs.strong_product(k2, k2) == cs.generate(
            cs.GeneratorRecipe("complete", {"n": 4}))

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            cs.strong_product(cs.Graph(0), cs.Graph(2, [(0, 1)]))

    @given(small_graphs(max_n=5), small_graphs(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_degree_law(self, g1, g2):
        if g1.n == 0 or g2.n == 0:
            return
        prod = cs.strong_product(g1, g2)
        for a in range(prod.n):
            u1, u2 = divmod(a, g2.n)
            assert prod.degree(a) == (g1.degree(u1) + 1) * (g2.degree(u2) + 1) - 1


class TestInducedSubgraph:
    def test_k5_to_k3(self):
        k5 = cs.generate(cs.GeneratorRecipe("complete", {"n": 5}))
        sub, back = cs.induced_subgraph(k5, {0, 1, 2})
        assert sub == cs.generate(cs.GeneratorRecipe("complete", {"n": 3}))
        assert back == (0, 1, 2)

    def test_c5_isolated_pair(self):
        c5 = cs.generate(cs.GeneratorRecipe("cycle", {"n": 5}))
        sub, _ = cs.induced_subgraph(c5, {0, 2})
        assert sub.n == 2 and sub.edge_count == 0

    def test_petersen_outer_cycle(self):
        sub, back = cs.induced_subgraph(petersen(), range(5))
        assert sub == cs.generate(cs.GeneratorRecipe("cycle", {"n": 5}))
        assert back == (0, 1, 2, 3, 4)

    def test_full_set_is_identity(self):
        g = cs.generate(cs.GeneratorRecipe("gnp", {"n": 8, "p": 0.4}, seed=5))
        sub, back = cs.induced_subgraph(g, range(8))
        assert sub == g and back == tuple(range(8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cs.induced_subgraph(cs.Graph(3), {0, 7})

    @staticmethod
    def _filtered(g, s):
        """Reference: filter the parent's whole edge list."""
        back = tuple(sorted(set(s)))
        pos = {v: i for i, v in enumerate(back)}
        edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
        return cs.Graph(len(back), edges), back

    @staticmethod
    def _assert_same(got, want):
        """Equal graphs, and every derived field equal too: induced_subgraph
        builds its Graph from neighbor tuples, bypassing Graph.__init__."""
        (sub, back), (ref, ref_back) = got, want
        assert back == ref_back
        assert sub == ref and hash(sub) == hash(ref)
        assert sub._neighbors == ref._neighbors
        assert sub._bits == ref._bits
        assert [sub.degree(v) for v in range(sub.n)] == [ref.degree(v) for v in range(ref.n)]
        assert (sub.n, sub.edge_count, sub.max_degree, sub.min_degree) == \
            (ref.n, ref.edge_count, ref.max_degree, ref.min_degree)

    @pytest.mark.parametrize("make", [
        lambda: [9, 3, 14, 0, 7, 2],
        lambda: [5, 1, 5, 8, 1, 1, 12, 8],
        lambda: (v for v in range(19, -1, -3)),
        lambda: [],
        lambda: range(20),
    ], ids=["unsorted", "duplicates", "generator", "empty", "full"])
    def test_matches_filtered_edge_list(self, make):
        g = cs.generate(cs.GeneratorRecipe("gnp", {"n": 20, "p": 0.35}, seed=11))
        self._assert_same(cs.induced_subgraph(g, make()), self._filtered(g, make()))

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_filtered_edge_list_on_random_subsets(self, g, data):
        s = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)
                      if g.n else st.just([]))
        self._assert_same(cs.induced_subgraph(g, s), self._filtered(g, s))

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_induced_preserves_adjacency(self, g):
        chosen = [v for v in range(g.n) if v % 2 == 0]
        sub, back = cs.induced_subgraph(g, chosen)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                assert sub.has_edge(i, j) == g.has_edge(back[i], back[j])
