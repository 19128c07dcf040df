"""Vertex partitions with prescribed per-part clique bounds.

Split a graph with max degree D and clique number at most D-1 into parts
V_1..V_k with omega(g[V_i]) <= p_i - 1, for quota lists summing to
D - 1 + k. Ships constructive engines, exhaustive small-scale oracles
that double-check every claim, deterministic generators, and a CLI.
"""

from .cliques import (
    CliqueCertificate,
    all_maximum_cliques,
    clique_number,
)
from .errors import (
    AllStrategiesExhausted,
    BudgetExceededError,
    CliqueSplitterError,
    GenerationError,
    GraphFormatError,
    PreconditionError,
    RecipeError,
    SearchFailureError,
)
from .graphs import (
    GeneratorRecipe,
    Graph,
    disjoint_union,
    from_adjacency_json,
    generate,
    induced_subgraph,
    parse_dimacs,
    parse_recipe,
    serialize_dimacs,
    strong_product,
    to_adjacency_json,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    VerificationReport,
    chromatic_number,
    degeneracy,
    exists_clique_partition,
    find_coloring,
    max_kpfree_subset,
    verify_partition,
)
from .partition import (
    HittingSetResult,
    MaxKpfreeResult,
    Partition,
    PartitionSpec,
    clique_bipartition,
    degree_bounded_bipartition,
    detect_cycle_clique_product,
    hitting_independent_set,
    kway_clique_partition,
    max_kpfree_partition,
    partition_from_assignment,
    partition_from_parts,
)

__version__ = "0.1.0"
