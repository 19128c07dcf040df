#!/usr/bin/env python3
"""Record every operation's outputs over a perfbench workload, and
compare them with a recording made from another checkout.

One operation is perfbench's: ``kway_clique_partition(g, spec)``
followed by ``verify_partition(g, part, spec)``. The workload's graphs
and operations come from ``perfbench/inputs.py``, which is imported and
not changed. One more corpus, ``products``, is not a perfbench workload
and not part of ``all``: C_L x K_m for m in {2, 3} and odd L from 5 to
41, built with the public generator, each with every two-part pair and
every three-part list; the seed changes nothing there. For each
operation the record keeps, as plain data, the
assignment, parts, strategy string, certificates and verification report
of an answer, or the class, message, diagnostics, depth and proof flag
of a raised error. ``kway_clique_partition`` raises every error at depth
0, so the depth field is kept only to compare with older recordings.

Another corpus, ``misses``, also outside ``all`` and seed-free, holds
the ten random regular graphs in ``SPARSE_MISSES``, on which DSatur
uses more than max degree - 1 classes, each with every two-, three- and
four-part list: 22 operations, which exercise the "settled a give-up"
kind below against a checkout that gives up on some of them.

A third corpus, ``tools``, also outside ``all`` and seed-free, calls the
standalone tools instead of ``kway_clique_partition``:

- ``detect_cycle_clique_product`` on C_L x K_m for L from 3 to 23 and m
  from 1 to 5, each also relabelled, minus one edge, plus an isolated
  vertex, and as two and three disjoint copies, and on 200 G(n, p) and
  200 random regular graphs of up to 60 vertices (1,030 calls);
- ``max_kpfree_partition`` with every p >= q >= 1, p + q = max degree
  + 1, on 600 thinnings of C_L x K_m, L in {9, 11, 13, 15} and m in
  {2, 3, 4}, each edge kept with probability 0.92 (2,639 calls), and on
  214 seeded G(n, p) and random regular graphs of at most 14 vertices,
  where it scans subsets (617 calls: 516 answers, 3 proofs and 98
  precondition errors), 3,256 calls in all;
- ``hitting_independent_set`` on cliques with a few attached vertices,
  G(n, p) up to 100 vertices, C_L x K_m plus an isolated vertex and
  random regular graphs up to 500 vertices (295 calls), every one of
  which ends within the search's node budget;
- ``degree_bounded_bipartition`` with every p, q >= 1, p + q = max
  degree, on random regular graphs of degree 3 to 14 on 20, 50, 100
  and 200 vertices at seeds 1 and 2, on G(n, p) for n in {10, 20, 40,
  80} and p in {0.1, 0.3, 0.5} at seeds 0 to 2, and on C_L x K_m for
  odd L from 5 to 11 and m from 2 to 5 (1,380 calls);
- ``partition_from_parts`` and ``partition_from_assignment`` on six
  small graphs split round-robin into 1 to 4 parts, in several forms,
  and once per malformed input each builder checks (182 calls, 14 of
  them malformed);
- ``verify_partition`` on Partitions built by hand over the same six
  graphs: V as one part, as the tuple a builder returns, an equal
  tuple, a list or an equal graph's tuple, among empty parts given as
  (), [] and range(0) or beside a part given as 0 or None, with its
  assignment right or wrong, and each graph's split into even and odd
  vertices, right, with an empty part added, and in every malformed
  form ``verify_partition`` checks (1,075 calls: 420 valid reports, 224
  reports of a violation and 431 raised errors).

A partition is recorded as above, with the certificate string last for
``max_kpfree_partition`` and None for ``degree_bounded_bipartition``
and the builders, and any other result, a verification report
included, as one plain-data field after "solved". A builder's ValueError, OverflowError or TypeError is
recorded as a raised error.

    # record the outputs of the package under another checkout's src/
    python3 benchmarks/compare_outputs.py --workload all --src ../parent/src --out parent.pkl
    # run this checkout's package and compare, operation by operation
    python3 benchmarks/compare_outputs.py --workload all --against parent.pkl
    python3 benchmarks/compare_outputs.py --workload products --src ../parent/src --out p.pkl
    python3 benchmarks/compare_outputs.py --workload products --against p.pkl
    python3 benchmarks/compare_outputs.py --workload tools --src ../parent/src --out t.pkl
    python3 benchmarks/compare_outputs.py --workload tools --against t.pkl
    python3 benchmarks/compare_outputs.py --workload misses --src ../parent/src --out m.pkl
    python3 benchmarks/compare_outputs.py --workload misses --against m.pkl

With ``--against``, a difference prints, for each workload, the number
of differing operations split into four kinds, gravest first:

- verdict: one side answered and the other raised, or the proof flag of
  a raised error differs;
- answer: the same verdict, but the assignment, parts, certificates or
  verification report of an answer, or the class, message or depth of an
  error, differ;
- strategy or diagnostics only: nothing differs but an answer's strategy
  string or an error's diagnostics;
- settled a give-up: the recording gave up without a proof, and this
  checkout answered or proved that no partition exists. The reverse, a
  give-up here where the recording settled, is a verdict difference.

It also prints the first operation of the gravest kind found, and the
exit code is 1. Only load files this script wrote: they are pickles.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402


def _raised(exc) -> tuple:
    return ("raised", type(exc).__name__, str(exc),
            sorted(getattr(exc, "diagnostics", {}).items()),
            getattr(exc, "depth", None), getattr(exc, "proven_infeasible", None))


def _solved(part, last) -> tuple:
    return ("solved", part.assignment, part.parts, part.strategy,
            tuple((c.omega, c.witness) for c in part.certificates), last)


def _record(cs, g, spec) -> tuple:
    try:
        part = cs.kway_clique_partition(g, spec)
        report = cs.verify_partition(g, part, spec)
    except cs.CliqueSplitterError as exc:
        return _raised(exc)
    return _solved(part, (report.part_omegas, report.valid, report.violations))


def record_workload(cs, name: str, seed: int) -> list:
    """[(graph label, quotas, record)] for one pass over the workload."""
    work = inputs.build(cs, name, seed, {})
    return [(work.labels[gi], quotas, _record(cs, work.graphs[gi], cs.PartitionSpec(quotas)))
            for gi, quotas in work.ops]


PRODUCTS = "products"


def quota_lists(delta: int, ks=(2, 3)):
    """Every list of k quotas for each k in ``ks``, each non-increasing,
    at least 2 and summing to delta - 1 + k."""
    for k in ks:
        for quotas in itertools.combinations_with_replacement(range(delta + 1, 1, -1), k):
            if sum(quotas) == delta - 1 + k:
                yield quotas


def record_products(cs) -> list:
    """[(graph label, quotas, record)] over the products corpus."""
    out = []
    for m in (2, 3):
        for length in range(5, 42, 2):
            g = cs.generate(cs.GeneratorRecipe(
                "strong_product_cycle_clique", {"cycle_len": length, "m": m}))
            for quotas in quota_lists(g.max_degree):
                out.append((f"C{length}xK{m}", quotas,
                            _record(cs, g, cs.PartitionSpec(quotas))))
    return out


MISSES = "misses"
# (d, n, seed) of random regular graphs that DSatur colors with more than
# d - 1 classes, from d in 4..8, n in {100, 400, 1500} and seeds 1 to 5
SPARSE_MISSES = ((4, 100, 1), (4, 100, 2), (4, 100, 4), (4, 400, 1), (4, 400, 3),
                 (4, 400, 4), (4, 1500, 2), (4, 1500, 3), (4, 1500, 5), (5, 100, 3))


def record_misses(cs) -> list:
    """[(graph label, quotas, record)] over the misses corpus."""
    out = []
    for d, n, seed in SPARSE_MISSES:
        g = cs.generate(cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))
        for quotas in quota_lists(g.max_degree, (2, 3, 4)):
            out.append((f"regular:{n},{d} seed {seed}", quotas,
                        _record(cs, g, cs.PartitionSpec(quotas))))
    return out


TOOLS = "tools"


def _record_tool(cs, name: str, g, args=()) -> tuple:
    """The record of one call of a standalone tool: a partition is kept
    as ``_record`` keeps one, with the certificate string last, and any
    other result as one plain-data field. A ValueError, OverflowError or
    TypeError, which a builder of this or an older checkout raises on
    malformed input, is recorded as a raised error, as the package's own
    errors are."""
    try:
        res = getattr(cs, name)(g, *args)
    except (cs.CliqueSplitterError, ValueError, OverflowError, TypeError) as exc:
        return _raised(exc)
    if isinstance(res, cs.MaxKpfreeResult):
        return _solved(res.partition, res.certificate)
    if isinstance(res, cs.Partition):
        return _solved(res, None)
    if isinstance(res, (cs.HittingSetResult, cs.VerificationReport)):
        res = dataclasses.astuple(res)
    return ("solved", res)


def _cycle_product(cs, length: int, m: int):
    return cs.strong_product(cs.generate(cs.GeneratorRecipe("cycle", {"n": length})),
                             cs.generate(cs.GeneratorRecipe("complete", {"n": m})))


def recognizer_graphs(cs):
    """(label, graph) pairs: C_L x K_m for L from 3 to 23 and m from 1 to
    5, each also relabelled, minus one edge, plus an isolated vertex, and
    as two and as three disjoint copies; then 200 G(n, p) and 200 random
    regular graphs of degree 3m - 1, n up to 60."""
    rng = random.Random(25)
    for length in range(3, 24):
        for m in range(1, 6):
            g = _cycle_product(cs, length, m)
            edges = g.edges()
            perm = list(range(g.n))
            rng.shuffle(perm)
            cut = rng.randrange(len(edges))
            name = f"C{length}xK{m}"
            yield name, g
            yield name + " relabelled", cs.Graph(g.n, [(perm[u], perm[v]) for u, v in edges])
            yield name + " minus an edge", cs.Graph(g.n, edges[:cut] + edges[cut + 1:])
            yield name + " plus a vertex", cs.Graph(g.n + 1, edges)
            yield name + " twice", cs.disjoint_union(g, g)
            yield name + " three times", cs.disjoint_union(cs.disjoint_union(g, g), g)
    for seed in range(200):
        n, p = rng.randint(5, 60), rng.choice((0.1, 0.3, 0.5, 0.8))
        yield f"gnp:{n},{p} seed {seed}", cs.generate(
            cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))
    for seed in range(200):
        d = rng.choice((2, 5, 8, 11, 14))
        n = rng.randint(d + 1, 60)
        n += n * d % 2
        yield f"regular:{n},{d} seed {seed}", cs.generate(
            cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))


def thinned_products(cs):
    """600 (label, graph) pairs drawn from one ``random.Random(2)``:
    C_L x K_m for L in {9, 11, 13, 15} and m in {2, 3, 4}, keeping each
    edge when ``rng.random() >= 0.08``."""
    rng = random.Random(2)
    for i in range(600):
        length, m = rng.choice((9, 11, 13, 15)), rng.choice((2, 3, 4))
        full = _cycle_product(cs, length, m)
        yield f"C{length}xK{m} thinning {i}", cs.Graph(
            full.n, [e for e in full.edges() if rng.random() >= 0.08])


def scanned_graphs(cs):
    """(label, graph) pairs of at most 14 vertices, on which
    ``max_kpfree_partition`` scans subsets: G(n, p) for n from 4 to 14
    and p in {0.2, 0.4, 0.6, 0.8} at seeds 0 to 3, and random regular
    graphs of degree 3 to 5 on 6 to 14 vertices at seeds 1 and 2."""
    for n in range(4, 15):
        for p in (0.2, 0.4, 0.6, 0.8):
            for seed in range(4):
                yield f"gnp:{n},{p} seed {seed}", cs.generate(
                    cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))
    for n in range(6, 15):
        for d in (3, 4, 5):
            if n * d % 2 == 0:
                for seed in (1, 2):
                    yield f"regular:{n},{d} seed {seed}", cs.generate(
                        cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))


def hitting_graphs(cs):
    """(label, graph) pairs on which ``hitting_independent_set`` ends
    within its budget: 100 cliques of 7 to 12 vertices with up to four
    vertices attached to one or two earlier ones; G(n, p) for n from 10
    to 100; C_L x K_m plus an isolated vertex; random regular graphs of
    up to 500 vertices."""
    for seed in range(100):
        rng = random.Random(seed)
        m, extras = rng.randint(7, 12), rng.randint(0, 4)
        edges = list(itertools.combinations(range(m), 2))
        for v in range(m, m + extras):
            edges += [(t, v) for t in rng.sample(range(v), k=min(v, rng.randint(1, 2)))]
        yield f"K{m} with {extras} attached", cs.Graph(m + extras, edges)
    for n in range(10, 101, 10):
        for p in (0.1, 0.3, 0.5, 0.7):
            for seed in range(3):
                yield f"gnp:{n},{p} seed {seed}", cs.generate(
                    cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))
    for length in range(5, 14, 2):
        for m in range(1, 4):
            g = _cycle_product(cs, length, m)
            yield f"C{length}xK{m} plus a vertex", cs.Graph(g.n + 1, g.edges())
    for n in (20, 50, 100, 200, 500):
        for d in (3, 6, 10, 14):
            for seed in range(3):
                yield f"regular:{n},{d} seed {seed}", cs.generate(
                    cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))


def degree_bounded_graphs(cs):
    """(label, graph) pairs for ``degree_bounded_bipartition``: random
    regular graphs of degree 3 to 14 on 20, 50, 100 and 200 vertices at
    seeds 1 and 2; G(n, p) for n in {10, 20, 40, 80} and p in {0.1, 0.3,
    0.5} at seeds 0 to 2; C_L x K_m for odd L from 5 to 11 and m from 2
    to 5."""
    for n in (20, 50, 100, 200):
        for d in range(3, 15):
            for seed in (1, 2):
                yield f"regular:{n},{d} seed {seed}", cs.generate(
                    cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))
    for n in (10, 20, 40, 80):
        for p in (0.1, 0.3, 0.5):
            for seed in range(3):
                yield f"gnp:{n},{p} seed {seed}", cs.generate(
                    cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))
    for length in range(5, 12, 2):
        for m in range(2, 6):
            yield f"C{length}xK{m}", _cycle_product(cs, length, m)


def small_graphs(cs):
    """The six (label, graph) pairs of the builder and
    ``verify_partition`` calls: C5, K4, C5 x K2, G(12, 0.5) at seed 3,
    three isolated vertices and the empty graph."""
    return [("C5", cs.generate(cs.GeneratorRecipe("cycle", {"n": 5}))),
            ("K4", cs.generate(cs.GeneratorRecipe("complete", {"n": 4}))),
            ("C5xK2", _cycle_product(cs, 5, 2)),
            ("gnp:12,0.5 seed 3", cs.generate(
                cs.GeneratorRecipe("gnp", {"n": 12, "p": 0.5}, seed=3))),
            ("edgeless 3", cs.Graph(3)),
            ("empty", cs.Graph(0))]


def builder_calls(cs):
    """(label, graph, builder, arguments after the graph) of the 182
    builder calls.

    Valid: each of ``small_graphs`` split round-robin into 1 to 4 parts,
    given to ``partition_from_parts`` as sorted parts, reversed, with
    each part's first vertex repeated and with an empty part added, and
    to ``partition_from_assignment`` with k None, exact and two above the
    count. Malformed, on C5 x K2 only: one call per fault each builder
    checks."""
    graphs = small_graphs(cs)
    for label, g in graphs:
        n = g.n
        for k in range(1, 5):
            parts = [list(range(i, n, k)) for i in range(k)]
            for form, given in (("sorted", parts),
                                ("reversed", [side[::-1] for side in parts[::-1]]),
                                ("repeated", [side + side[:1] for side in parts]),
                                ("empty part", parts + [[]])):
                yield f"{label} {form}", g, "partition_from_parts", (given,)
            assignment = [v % k for v in range(n)]
            for count in (None, k, k + 2):
                yield label, g, "partition_from_assignment", (assignment, count)
    label, g = graphs[2]
    everything = list(range(g.n))
    for fault, parts in (("out of range", [everything[:5], everything[5:] + [g.n]]),
                         ("negative", [[-1] + everything[:5], everything[5:]]),
                         ("in two parts", [everything[:6], everything[5:]]),
                         ("in none", [everything[:3]]),
                         ("huge", [everything, [2 ** 70]]),
                         ("large", [everything + [200_000_000]]),
                         ("float", [everything[:5] + [5.5], everything[6:]]),
                         ("str", [["a"], everything])):
        yield f"{label} {fault}", g, "partition_from_parts", (parts,)
    for fault, args in (("short", ([0] * (g.n - 1), None)),
                        ("index at k", ([0] * (g.n - 1) + [2], 2)),
                        ("negative index", ([-1] + [0] * (g.n - 1), None)),
                        ("huge index", ([0] * (g.n - 1) + [2 ** 70], 2)),
                        ("float index", ([0.0] * g.n, None)),
                        ("float k", ([0] * g.n, 2.0))):
        yield f"{label} {fault}", g, "partition_from_assignment", args


EMPTY_FORMS = (("()", ()), ("[]", []), ("range(0)", range(0)))


def verify_calls(cs):
    """(label, graph, hand-built Partition, quotas) of the 1,075
    ``verify_partition`` calls, each graph fresh from ``small_graphs``.

    V as one part, in four forms: the part ``partition_from_parts``
    returns for it, an equal tuple, a list, and the part it returns for
    an equal graph. Each form goes in part 1 of 1 to 3 parts and in the
    last of 2 and 3, with an assignment that is right, puts one vertex
    in another part, holds an index at k, or holds the right index as a
    float (the empty graph takes only the right one), and quotas all 2,
    or all 2 and all 5 when the assignment is right; a right assignment
    of 2 or 3 parts is tried with the empty parts given as (), [] and
    range(0). Each form also goes
    beside a part given as 0 or None. On each graph of at least two
    vertices, its split into even and odd vertices is given right, with
    an empty part added in each of those three forms, and once per
    malformed form: a repeated vertex, a vertex the assignment puts in
    the other part (in either part), an index that is a string, a
    float, a Fraction, 2**70, -2**70 or k, and a member that is a float
    or a string."""
    for label, g in small_graphs(cs):
        n = g.n
        forms = (("built", cs.partition_from_parts(g, [range(n)]).parts[0]),
                 ("equal", tuple(range(n))),
                 ("list", list(range(n))),
                 ("equal graph's",
                  cs.partition_from_parts(cs.Graph(n, g.edges()), [range(n)]).parts[0]))
        for name, whole in forms:
            for k, at in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 2)):
                faults = [("right", (at,) * n)]
                if n:
                    if k > 1:
                        faults.append(("one elsewhere", (at,) * (n - 1) + ((at + 1) % k,)))
                    faults += [("index at k", (at,) * (n - 1) + (k,)),
                               ("float index", (at,) * (n - 1) + (float(at),))]
                for fault, assignment in faults:
                    for empty_name, empty in EMPTY_FORMS if fault == "right" and k > 1 \
                            else EMPTY_FORMS[:1]:
                        parts = tuple(whole if i == at else empty for i in range(k))
                        for quotas in ((2,) * k, (5,) * k)[:1 + (fault == "right")]:
                            yield (f"{label} V as {name} in part {at + 1} of {k}, {fault}, "
                                   f"empty {empty_name}", g,
                                   cs.Partition(assignment, parts, (), None), quotas)
            for odd in (0, None):
                for at in (0, 1):
                    parts = (whole, odd) if at == 0 else (odd, whole)
                    yield (f"{label} V as {name} beside {odd!r}", g,
                           cs.Partition((at,) * n, parts, (), None), (2, 2))
        if n < 2:
            continue
        evens, odds = tuple(range(0, n, 2)), tuple(range(1, n, 2))
        assignment = tuple(v % 2 for v in range(n))
        last, side = n - 1, (n - 1) % 2
        split = (evens, odds)
        shapes = [("right", assignment, split)]
        shapes += [(f"empty {empty_name} added", assignment, split + (empty,))
                   for empty_name, empty in EMPTY_FORMS]

        def with_last(value):
            return assignment[:-1] + (value,)

        def with_member(value):
            return tuple(members[:-1] + (value,) if i == side else members
                         for i, members in enumerate(split))

        shapes += [("repeat", assignment, (evens + evens[:1], odds)),
                   ("in part 0, assigned 1", assignment, (evens + odds[:1], odds)),
                   ("in part 1, assigned 0", assignment, (evens, odds + evens[-1:])),
                   ("index str", with_last("x"), split),
                   ("index float", with_last(float(side)), split),
                   ("index fraction", with_last(Fraction(side)), split),
                   ("index huge", with_last(2 ** 70), split),
                   ("index huge negative", with_last(-2 ** 70), split),
                   ("index at k", with_last(2), split),
                   ("member float", assignment, with_member(float(last))),
                   ("member str", assignment, with_member(str(last)))]
        for shape, assignment_given, parts in shapes:
            yield (f"{label} split, {shape}", g, cs.Partition(assignment_given, parts, (), None),
                   (2,) * len(parts))


def record_tools(cs) -> list:
    """[(label, arguments after the graph, record)] over the tools corpus."""
    out = [(f"detect_cycle_clique_product {label}", (),
            _record_tool(cs, "detect_cycle_clique_product", g))
           for label, g in recognizer_graphs(cs)]
    for label, g in itertools.chain(thinned_products(cs), scanned_graphs(cs)):
        delta = g.max_degree
        for q in range(1, (delta + 1) // 2 + 1):
            out.append((f"max_kpfree_partition {label}", (delta + 1 - q, q),
                        _record_tool(cs, "max_kpfree_partition", g, (delta + 1 - q, q))))
    out += [(f"hitting_independent_set {label}", (),
             _record_tool(cs, "hitting_independent_set", g))
            for label, g in hitting_graphs(cs)]
    for label, g in degree_bounded_graphs(cs):
        delta = g.max_degree
        for p in range(1, delta):
            out.append((f"degree_bounded_bipartition {label}", (p, delta - p),
                        _record_tool(cs, "degree_bounded_bipartition", g, (p, delta - p))))
    out += [(f"{name} {label}", args, _record_tool(cs, name, g, args))
            for label, g, name, args in builder_calls(cs)]
    out += [(f"verify_partition {label}", quotas,
             _record_tool(cs, "verify_partition", g, (part, cs.PartitionSpec(quotas))))
            for label, g, part, quotas in verify_calls(cs)]
    return out


KINDS = ("verdict", "answer", "strategy or diagnostics only", "settled a give-up")


def _gave_up(record: tuple) -> bool:
    """Whether a record is a give-up without a proof."""
    return record[0] == "raised" and record[5] is False


def difference_kind(mine: tuple, other: tuple) -> str:
    """The gravest kind of difference between two unequal records."""
    if _gave_up(other) and not _gave_up(mine):
        return KINDS[3]
    if mine[0] != other[0] or (mine[0] == "raised" and mine[5] != other[5]):
        return KINDS[0]
    # field 3 is an answer's strategy string, or an error's diagnostics
    if mine[:3] + mine[4:] != other[:3] + other[4:]:
        return KINDS[1]
    return KINDS[2]


def compare(ours: dict, theirs: dict) -> tuple[list[str], str | None]:
    """One line per workload saying how many operations differ, of each
    kind, and the first differing operation of the gravest kind found,
    or None when every operation matches."""
    lines: list[str] = []
    first = None
    first_rank = len(KINDS)  # a structural mismatch ranks -1, above every kind
    for name in sorted(set(ours) | set(theirs)):
        if name not in ours or name not in theirs:
            mismatch = f"{name}: recorded on one side only"
        elif len(ours[name]) != len(theirs[name]):
            mismatch = (f"{name}: {len(ours[name])} operations here, "
                        f"{len(theirs[name])} in the recording")
        else:
            mismatch = None
        if mismatch is not None:
            lines.append(mismatch)
            if first_rank >= 0:
                first, first_rank = mismatch, -1
            continue
        pairs = list(zip(ours[name], theirs[name]))
        by_kind: dict[str, list[int]] = {kind: [] for kind in KINDS}
        for i, (mine, other) in enumerate(pairs):
            if mine != other:
                by_kind[difference_kind(mine[2], other[2])].append(i)
        differing = sum(map(len, by_kind.values()))
        counts = ", ".join(f"{len(by_kind[kind])} {kind}" for kind in KINDS)
        lines.append(f"{name}: {differing} of {len(pairs)} operations differ ({counts})")
        for rank, kind in enumerate(KINDS[:max(first_rank, 0)]):
            if by_kind[kind]:
                i = by_kind[kind][0]
                mine, other = pairs[i]
                first = (f"{name} operation {i} ({mine[0]} quotas {mine[1]}), {kind}:\n"
                         f"  here:      {mine[2]}\n  recording: {other[2]}")
                first_rank = rank
                break
    return lines, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + inputs.WORKLOADS + (PRODUCTS, TOOLS, MISSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the clique_splitter package to run")
    parser.add_argument("--out", type=Path, help="write the recording here")
    parser.add_argument("--against", type=Path, help="compare with this recording")
    args = parser.parse_args(argv)
    if args.out is None and args.against is None:
        parser.error("give --out, --against or both")
    sys.path.insert(0, str(args.src.resolve()))
    import clique_splitter as cs

    if Path(cs.__file__).resolve().parent != (args.src / "clique_splitter").resolve():
        parser.error(f"imported {cs.__file__}, not the package under {args.src}")
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    recorded = {}
    for name in names:
        if name == PRODUCTS:
            recorded[name] = record_products(cs)
        elif name == TOOLS:
            recorded[name] = record_tools(cs)
        elif name == MISSES:
            recorded[name] = record_misses(cs)
        else:
            recorded[name] = record_workload(cs, name, args.seed)
        print(f"{name}: {len(recorded[name])} operations", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "wb") as fh:
            pickle.dump(recorded, fh)
    if args.against is not None:
        with open(args.against, "rb") as fh:
            theirs = pickle.load(fh)
        theirs = {name: ops for name, ops in theirs.items() if name in recorded}
        lines, first = compare(recorded, theirs)
        if first is not None:
            print("outputs differ:\n" + "\n".join(lines))
            print(f"first difference: {first}")
            return 1
        print(f"identical outputs on {sum(map(len, recorded.values()))} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
