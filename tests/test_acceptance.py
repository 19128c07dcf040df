"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Corpora are built
deterministically from fixed seeds; expected values come from the
exhaustive oracle routines, never from the engines under test.
"""

import itertools
import json
import time
from functools import lru_cache

import pytest
from click.testing import CliRunner

import clique_splitter as cs
from clique_splitter.cli import main as cli_main
from clique_splitter.graphs import _mix
import random

from _brute import brute_dsatur, brute_omega


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def gnp(n, p, seed):
    return cs.generate(cs.GeneratorRecipe("gnp", {"n": n, "p": p}, seed=seed))


def regular(n, d, seed):
    return cs.generate(cs.GeneratorRecipe("random_regular", {"n": n, "d": d}, seed=seed))


# ---------------------------------------------------------------------------
# Corpora


@lru_cache(maxsize=1)
def small_corpus() -> tuple[cs.Graph, ...]:
    """At least 500 graphs with n <= 10: random plus every generator family."""
    graphs = []
    for n in range(4, 11):
        for p in (0.3, 0.5, 0.7):
            for seed in range(22):
                graphs.append(gnp(n, p, seed))
    for n in range(2, 7):
        graphs.append(cs.generate(cs.GeneratorRecipe("complete", {"n": n})))
    for n in range(3, 11):
        graphs.append(cs.generate(cs.GeneratorRecipe("cycle", {"n": n})))
    for n in range(2, 11):
        graphs.append(cs.generate(cs.GeneratorRecipe("path", {"n": n})))
    for n, d in [(6, 3), (8, 3), (8, 4), (9, 4), (10, 3), (10, 4), (10, 5),
                 (7, 4), (10, 6), (10, 7)]:
        for seed in (0, 1):
            graphs.append(regular(n, d, seed))
    for length, m in [(5, 1), (5, 2), (7, 1), (9, 1)]:
        graphs.append(cs.generate(cs.GeneratorRecipe(
            "strong_product_cycle_clique", {"cycle_len": length, "m": m})))
    for sizes in [(3, 3), (4, 4), (4, 3), (5, 5), (5, 4), (2, 2, 2)]:
        graphs.append(cs.generate(cs.GeneratorRecipe("disjoint_union", {"sizes": sizes})))
    for base, clique, attach in [(3, 4, 0), (4, 5, 1), (5, 4, 2), (3, 6, 0)]:
        graphs.append(cs.generate(cs.GeneratorRecipe(
            "join_pendant_clique", {"base_len": base, "clique": clique, "attach": attach})))
    assert len(graphs) >= 500
    assert all(g.n <= 10 for g in graphs)
    return tuple(graphs)


@lru_cache(maxsize=1)
def regime_corpus() -> tuple[cs.Graph, ...]:
    """200 graphs with max degree >= 13, clique number <= max degree - 1,
    and 20 <= n <= 60."""
    graphs = []
    seed = 0
    toggle = 0
    while len(graphs) < 200 and seed < 4000:
        rng = random.Random(_mix(90, seed))
        if toggle % 2 == 0:
            n = rng.choice([20, 24, 28, 32, 40, 48, 56, 60])
            d = rng.choice([13, 14, 15, 16])
            if (n * d) % 2:
                n += 1
            g = regular(n, d, seed)
        else:
            n = rng.choice([22, 30, 36, 44, 52, 60])
            p = rng.choice([0.35, 0.45, 0.55])
            g = gnp(n, p, seed)
        seed += 1
        toggle += 1
        if not (20 <= g.n <= 60) or g.max_degree < 13:
            continue
        if cs.clique_number(g).omega > g.max_degree - 1:
            continue
        graphs.append(g)
    assert len(graphs) == 200
    return tuple(graphs)


def feasible_pairs(g: cs.Graph):
    delta = g.max_degree
    for q in range(2, delta + 2):
        p = delta + 1 - q
        if p < q:
            return
        yield p, q


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_oracle_agreement_small_scale():
    started = time.perf_counter()
    corpus = small_corpus()
    specs_run = 0
    invalid = 0
    disagreements = 0
    for g in corpus:
        delta = g.max_degree
        if delta < 3:
            continue
        omega = cs.clique_number(g).omega
        if omega > delta - 1:
            continue
        for p, q in feasible_pairs(g):
            spec = cs.PartitionSpec((p, q))
            specs_run += 1
            try:
                part = cs.clique_bipartition(g, p, q)
            except cs.AllStrategiesExhausted:
                feasible, _ = cs.exists_clique_partition(g, spec)
                if feasible:
                    disagreements += 1
                continue
            if not cs.verify_partition(g, part, spec).valid:
                invalid += 1
    elapsed = time.perf_counter() - started
    ok = invalid == 0 and disagreements == 0 and elapsed < 300
    _report("1 oracle agreement", ok,
            f"{len(corpus)} graphs, {specs_run} specs, {invalid} invalid, "
            f"{disagreements} disagreements, {elapsed:.1f}s")
    assert invalid == 0
    assert disagreements == 0
    assert elapsed < 300


def test_criterion_2_two_part_regime():
    started = time.perf_counter()
    corpus = regime_corpus()
    runs = 0
    failures = 0
    for g in corpus:
        for p, q in feasible_pairs(g):
            runs += 1
            try:
                part = cs.clique_bipartition(g, p, q)
            except cs.AllStrategiesExhausted:
                failures += 1
                continue
            if not cs.verify_partition(g, part, cs.PartitionSpec((p, q))).valid:
                failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 600
    _report("2 two-part regime", ok,
            f"200 graphs, {runs} (p,q) runs, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 600


def _draw_quota_list(rng: random.Random, delta: int, k: int) -> tuple[int, ...]:
    total = delta - 1 + k
    spare = total - 2 * k
    for _ in range(20):
        quotas = [2] * k
        for _ in range(spare):
            quotas[rng.randrange(k)] += 1
        quotas.sort(reverse=True)
        if quotas[0] + quotas[1] >= 14:
            return tuple(quotas)
    quotas = [2] * k
    quotas[0] += spare
    quotas.sort(reverse=True)
    return tuple(quotas)


def test_criterion_3_kway_regime():
    corpus = regime_corpus()
    rng = random.Random(_mix(91))
    drawn = 0
    failures = 0
    while drawn < 50:
        k = rng.randint(3, 5)
        eligible = [g for g in corpus if g.max_degree >= 11 + k]
        g = eligible[rng.randrange(len(eligible))]
        quotas = _draw_quota_list(rng, g.max_degree, k)
        assert quotas[0] + quotas[1] >= 14
        assert sum(quotas) == g.max_degree - 1 + k
        drawn += 1
        spec = cs.PartitionSpec(quotas)
        try:
            part = cs.kway_clique_partition(g, spec)
        except cs.AllStrategiesExhausted:
            failures += 1
            continue
        if not cs.verify_partition(g, part, spec).valid:
            failures += 1
    ok = failures == 0
    _report("3 k-way regime", ok, f"50 quota lists, {failures} failures")
    assert failures == 0


def test_criterion_4_degree_degeneracy_bounds():
    graphs = []
    seed = 0
    while len(graphs) < 100 and seed < 1000:
        rng = random.Random(_mix(92, seed))
        n = rng.randint(8, 24)
        p_edge = rng.choice([0.25, 0.4, 0.55])
        g = gnp(n, p_edge, seed)
        seed += 1
        if g.max_degree < 3:
            continue
        if cs.clique_number(g).omega > g.max_degree:
            continue
        graphs.append(g)
    assert len(graphs) == 100
    violations = 0
    runs = 0
    for g in graphs:
        delta = g.max_degree
        for p in range(1, delta):
            q = delta - p
            runs += 1
            part = cs.degree_bounded_bipartition(g, p, q)
            v1, v2 = part.parts
            s1, s2 = set(v1), set(v2)
            deg1 = max((sum(1 for u in g.neighbors(v) if u in s1) for v in s1), default=0)
            deg2 = max((sum(1 for u in g.neighbors(v) if u in s2) for v in s2), default=0)
            sub1, _ = cs.induced_subgraph(g, v1)
            sub2, _ = cs.induced_subgraph(g, v2)
            if (deg1 > p or deg2 > q
                    or cs.degeneracy(sub1) > p - 1 or cs.degeneracy(sub2) > q - 1):
                violations += 1
    ok = violations == 0
    _report("4 degree/degeneracy bounds", ok,
            f"100 graphs, {runs} (p,q) runs, {violations} violations")
    assert violations == 0


def _clique_plus_attachments(seed: int) -> cs.Graph:
    rng = random.Random(_mix(93, seed))
    m = rng.randint(7, 12)
    extras = rng.randint(0, 4)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    for i in range(extras):
        v = m + i
        targets = rng.sample(range(v), k=min(v, rng.randint(1, 2)))
        edges.extend((t, v) for t in targets)
    return cs.Graph(m + extras, edges)


def test_criterion_5_hitting_set_theorem():
    errors = 0
    found_count = 0
    seed = 0
    while found_count < 100 and seed < 600:
        g = _clique_plus_attachments(seed)
        seed += 1
        if g.n > 16:
            continue
        omega = cs.clique_number(g).omega
        if 4 * omega < 3 * (g.max_degree + 1):
            continue
        found_count += 1
        res = cs.hitting_independent_set(g)
        if res.outcome != "found":
            errors += 1
            continue
        iset = set(res.independent_set)
        if any(g.has_edge(u, v) for u, v in itertools.combinations(sorted(iset), 2)):
            errors += 1
            continue
        sub, _ = cs.induced_subgraph(g, [v for v in range(g.n) if v not in iset])
        if cs.clique_number(sub).omega != omega - 1:
            errors += 1
    assert found_count == 100

    product_errors = 0
    for t in (2, 3, 4):
        for m in (1, 2, 3):
            g = cs.generate(cs.GeneratorRecipe(
                "strong_product_cycle_clique", {"cycle_len": 2 * t + 1, "m": m}))
            res = cs.hitting_independent_set(g)
            if res.outcome != "exception" or (res.cycle_len, res.m) != (2 * t + 1, m):
                product_errors += 1
            if cs.detect_cycle_clique_product(g) != (2 * t + 1, m):
                product_errors += 1

    control_errors = 0
    controls = 0
    seed = 0
    while controls < 100:
        rng = random.Random(_mix(94, seed))
        n = rng.randint(5, 16)
        g = gnp(n, rng.choice([0.3, 0.5, 0.7]), seed)
        seed += 1
        controls += 1
        if cs.detect_cycle_clique_product(g) is not None:
            control_errors += 1

    total = errors + product_errors + control_errors
    ok = total == 0
    _report("5 hitting sets", ok,
            f"100 clique-attachment graphs ({errors} errors), 9 products "
            f"({product_errors} errors), 100 controls ({control_errors} errors)")
    assert total == 0


def test_criterion_6_max_kpfree_exactness():
    checked = 0
    mismatches = 0
    seed = 0
    while checked < 100 and seed < 2000:
        rng = random.Random(_mix(95, seed))
        n = rng.randint(8, 14)
        g = gnp(n, rng.choice([0.35, 0.5, 0.65]), seed)
        seed += 1
        delta = g.max_degree
        if delta < 3 or cs.clique_number(g).omega > delta - 1:
            continue
        q = max(2, (delta + 1) // 3)
        p = delta + 1 - q
        if p < q:
            continue
        feasible, _ = cs.exists_clique_partition(g, cs.PartitionSpec((p, q)))
        if not feasible:
            continue
        checked += 1
        result = cs.max_kpfree_partition(g, p, q)
        assert result.certificate == "exhaustive"
        optimum = len(cs.max_kpfree_subset(g, p))
        if len(result.partition.parts[0]) != optimum:
            mismatches += 1
    ok = checked == 100 and mismatches == 0
    _report("6 max K_p-free exactness", ok,
            f"{checked} exact-regime instances, {mismatches} mismatches")
    assert checked == 100
    assert mismatches == 0


def test_criterion_7_determinism_and_round_trips():
    runner = CliRunner()
    args = ["partition", "--gen", "regular:28,13", "--seed", "3",
            "--quotas", "7,7", "--json"]
    outputs = []
    for _ in range(2):
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        payload["elapsed_ms"] = None  # wall time, excluded from byte identity
        outputs.append(json.dumps(payload, sort_keys=True))
    identical = outputs[0] == outputs[1]

    round_trip_failures = 0
    for g in small_corpus():
        if cs.parse_dimacs(cs.serialize_dimacs(g)) != g:
            round_trip_failures += 1

    with runner.isolated_filesystem():
        gen = runner.invoke(cli_main, ["gen", "regular:24,13", "--seed", "4",
                                       "--out", "g.dimacs"])
        assert gen.exit_code == 0
        run = runner.invoke(cli_main, ["partition", "--in", "g.dimacs",
                                       "--quotas", "8,6", "--out", "r.json"])
        assert run.exit_code == 0, run.output
        verify = runner.invoke(cli_main, ["verify", "--in", "g.dimacs",
                                          "--report", "r.json"])
        verify_ok = verify.exit_code == 0

    ok = identical and round_trip_failures == 0 and verify_ok
    _report("7 determinism/round-trips", ok,
            f"reports identical={identical}, {round_trip_failures} round-trip "
            f"failures over {len(small_corpus())} fixtures, verify exit ok={verify_ok}")
    assert identical
    assert round_trip_failures == 0
    assert verify_ok


def test_criterion_8_probe_sanity():
    runner = CliRunner()
    result = runner.invoke(cli_main, [
        "probe", "--n-min", "4", "--n-max", "7", "--samples", "700",
        "--seed", "0", "--quota-policy", "all2", "--budget-n", "10"])
    assert result.exit_code == 0
    findings = [json.loads(line) for line in result.output.splitlines()]
    assert findings, "the deterministic stream is known to surface findings"
    contradictions = 0
    for record in findings:
        g = cs.parse_dimacs(record["graph"])
        delta = g.max_degree
        omega = cs.clique_number(g).omega
        chi = cs.chromatic_number(g)
        if record["phenomenon"] == "bk_tight":
            if chi != delta or omega > delta - 1:
                contradictions += 1
        elif record["phenomenon"] == "oracle_infeasible":
            # all-2 infeasibility means chi > delta - 1; Brooks plus the
            # omega condition pins chi to exactly delta
            if chi != delta:
                contradictions += 1
            spec = cs.PartitionSpec(tuple(record["spec"]))
            try:
                cs.kway_clique_partition(g, spec)
                contradictions += 1  # engine succeeded where oracle proved none
            except cs.AllStrategiesExhausted:
                pass
        elif record["phenomenon"] == "engine_exhausted":
            spec = cs.PartitionSpec(tuple(record["spec"]))
            feasible, _ = cs.exists_clique_partition(g, spec)
            if not feasible:
                contradictions += 1  # should have been oracle_infeasible instead
    ok = contradictions == 0
    _report("8 probe sanity", ok,
            f"{len(findings)} findings, {contradictions} contradictions")
    assert contradictions == 0


def _no_independent_transversal(g: cs.Graph) -> bool:
    """King's odd-cycle exception, checked on g itself: every maximum
    clique is the union of two true-twin classes, and the graph on those
    classes with one edge per maximum clique is not bipartite. An
    independent set cannot touch both classes of one maximum clique, so
    the classes it touches would be an independent vertex cover of that
    graph, which only a bipartite graph has: no independent set meets
    every maximum clique."""
    classes: dict[frozenset, int] = {}
    cls = [classes.setdefault(frozenset(g.neighbors(v)) | {v}, len(classes))
           for v in range(g.n)]
    omega = cs.clique_number(g).omega
    edges = []
    for clique in cs.all_maximum_cliques(g):
        ends = sorted({cls[v] for v in clique})
        if (len(clique) != omega or len(ends) != 2
                or any(not g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
                or sorted(clique) != [v for v in range(g.n) if cls[v] in ends]):
            return False
        edges.append(ends)
    side = [-1] * len(classes)
    for start in range(len(classes)):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            a = stack.pop()
            for u, w in edges:
                if a in (u, w):
                    b = u + w - a
                    if side[b] == side[a]:
                        return True
                    if side[b] < 0:
                        side[b] = 1 - side[a]
                        stack.append(b)
    return False


def test_criterion_9_hard_instance_regime():
    # Odd-cycle strong products C_L x K_m: the coloring shortcut fails on
    # every one of them, and some pairs are infeasible, so the answers
    # rest on the budgeted exact stage. Every answer is a valid partition
    # and every give-up a proof. Up to L = 21 the oracle backs each
    # verdict; beyond it, where the oracle's time doubles with each step
    # of L, C_L x K2 runs up to L = 41 and each proof must be the
    # (4, 2) split that King's odd-cycle exception rules out: with q = 2
    # and p = omega, V2 is an independent set meeting every maximum clique.
    started = time.perf_counter()
    runs = 0
    unproven = 0
    disagreements = 0
    products = [(length, m) for length in range(5, 22, 2) for m in (2, 3)]
    products += [(length, 2) for length in range(23, 42, 2)]
    for length, m in products:
        g = cs.generate(cs.GeneratorRecipe(
            "strong_product_cycle_clique", {"cycle_len": length, "m": m}))
        budget = cs.OracleBudget(assignment_cap=g.n)
        for p, q in feasible_pairs(g):
            runs += 1
            spec = cs.PartitionSpec((p, q))
            if length <= 21:
                feasible, _ = cs.exists_clique_partition(g, spec, budget)
            else:
                feasible = not ((p, q) == (4, 2)
                                and cs.detect_cycle_clique_product(g) == (length, 2)
                                and _no_independent_transversal(g))
            try:
                part = cs.clique_bipartition(g, p, q)
            except cs.AllStrategiesExhausted as exc:
                if not exc.proven_infeasible:
                    unproven += 1
                elif feasible:
                    disagreements += 1
                continue
            if not (feasible and cs.verify_partition(g, part, spec).valid):
                disagreements += 1
    elapsed = time.perf_counter() - started
    ok = unproven == 0 and disagreements == 0
    _report("9 hard-instance regime", ok,
            f"{len(products)} products, {runs} (p,q) runs, {unproven} unproven give-ups, "
            f"{disagreements} disagreements, {elapsed:.1f}s")
    assert len(products) == 28
    assert unproven == 0
    assert disagreements == 0


def _quota_lists(total: int, k: int, top: int | None = None):
    """Every non-increasing list of k quotas, each at least 2, summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    top = total if top is None else top
    for first in range(min(top, total - 2 * (k - 1)), 1, -1):
        for rest in _quota_lists(total - first, k - 1, first):
            yield (first,) + rest


def test_criterion_10_kway_hard_instance_gate():
    # The k-way engine on odd-cycle products C_L x K_m: every k = 3 and
    # k = 4 quota list, plus the all-2 lists at max degree 8, where the
    # paper allows "no". Every answer verifies; every give-up is a proof
    # that the kernel-free oracle confirms.
    started = time.perf_counter()
    cases = []
    for length in (5, 7, 9, 11, 13):
        for m in (2, 3, 4, 5):
            g = cs.generate(cs.GeneratorRecipe(
                "strong_product_cycle_clique", {"cycle_len": length, "m": m}))
            for k in (3, 4):
                cases += [(g, quotas) for quotas in _quota_lists(g.max_degree - 1 + k, k)]
    for length in (5, 7, 9):
        g = cs.generate(cs.GeneratorRecipe(
            "strong_product_cycle_clique", {"cycle_len": length, "m": 3}))
        assert g.max_degree == 8
        cases.append((g, (2,) * 7))
    answers = proofs = invalid = unproven = disagreements = 0
    for g, quotas in cases:
        spec = cs.PartitionSpec(quotas)
        assert spec.feasible_for(g)
        try:
            part = cs.kway_clique_partition(g, spec)
        except cs.AllStrategiesExhausted as exc:
            if not exc.proven_infeasible:
                unproven += 1
                continue
            proofs += 1
            feasible, _ = cs.exists_clique_partition(
                g, spec, cs.OracleBudget(assignment_cap=g.n))
            if feasible:
                disagreements += 1
            continue
        answers += 1
        if not cs.verify_partition(g, part, spec).valid:
            invalid += 1
    elapsed = time.perf_counter() - started
    ok = invalid == unproven == disagreements == 0
    _report("10 k-way hard-instance gate", ok,
            f"{len(cases)} quota lists, {answers} answers, {proofs} proofs, "
            f"{invalid} invalid, {unproven} unproven give-ups, "
            f"{disagreements} disagreements, {elapsed:.1f}s")
    assert len(cases) == 293
    assert invalid == 0
    assert unproven == 0
    assert disagreements == 0


def test_criterion_11_paper_regime_never_gives_up():
    # The paper's theorem: max degree >= 13 always admits a valid
    # partition, so a give-up here is an engine fault or a counterexample.
    # C_L x K_5 (max degree 14) for odd L <= 21, every (p, q) pair and six
    # seeded quota lists for each k = 3, 4, 5.
    rng = random.Random(_mix(95))
    calls = 0
    give_ups = []
    invalid = 0
    for length in range(5, 22, 2):
        g = cs.generate(cs.GeneratorRecipe(
            "strong_product_cycle_clique", {"cycle_len": length, "m": 5}))
        assert g.max_degree == 14
        lists = list(feasible_pairs(g))
        lists += [_draw_quota_list(rng, g.max_degree, k) for k in (3, 4, 5) for _ in range(6)]
        for quotas in lists:
            calls += 1
            spec = cs.PartitionSpec(quotas)
            try:
                part = cs.kway_clique_partition(g, spec)
            except cs.AllStrategiesExhausted:
                give_ups.append((length, quotas))
                continue
            if not cs.verify_partition(g, part, spec).valid:
                invalid += 1
    ok = not give_ups and invalid == 0
    _report("11 paper regime", ok,
            f"{calls} calls, {len(give_ups)} give-ups, {invalid} invalid")
    assert calls == 216
    assert give_ups == []
    assert invalid == 0


def test_criterion_12_thinned_products_gate():
    # Thinned odd-cycle products: 3,000 draws from one random.Random(2),
    # each a C_L x K_m (L in {5, 7, 9}, m in {2, 3}) that keeps each edge
    # with probability 0.92, kept when omega <= max degree - 1 and DSatur
    # uses more than max degree - 1 classes. Unlike criterion 10's
    # products these graphs are not regular, and one exact search of each
    # whole list must answer or prove it. Every k = 3 and k = 4 list:
    # every answer verifies, every give-up is a proof that the kernel-free
    # oracle confirms, and none is left open.
    started = time.perf_counter()
    keys = sorted((length, m) for length in (5, 7, 9) for m in (2, 3))
    products = {key: cs.generate(cs.GeneratorRecipe(
        "strong_product_cycle_clique", {"cycle_len": key[0], "m": key[1]})) for key in keys}
    rng = random.Random(2)
    graphs = []
    for _ in range(3000):
        full = products[keys[rng.randrange(6)]]
        g = cs.Graph(full.n, [e for e in full.edges() if rng.random() >= 0.08])
        room = g.max_degree - 1
        if brute_omega(g) <= room and len(set(brute_dsatur(g))) > room:
            graphs.append(g)
    cases = [(g, quotas) for g in graphs for k in (3, 4)
             for quotas in _quota_lists(g.max_degree - 1 + k, k)]
    answers = proofs = invalid = unproven = disagreements = 0
    for g, quotas in cases:
        spec = cs.PartitionSpec(quotas)
        try:
            part = cs.kway_clique_partition(g, spec)
        except cs.AllStrategiesExhausted as exc:
            if not exc.proven_infeasible:
                unproven += 1
                continue
            proofs += 1
            feasible, _ = cs.exists_clique_partition(
                g, spec, cs.OracleBudget(assignment_cap=g.n))
            if feasible:
                disagreements += 1
            continue
        answers += 1
        if not cs.verify_partition(g, part, spec).valid:
            invalid += 1
    elapsed = time.perf_counter() - started
    ok = invalid == unproven == disagreements == 0
    _report("12 thinned-products gate", ok,
            f"{len(graphs)} graphs, {len(cases)} quota lists, {answers} answers, "
            f"{proofs} proofs, {invalid} invalid, {unproven} unproven give-ups, "
            f"{disagreements} disagreements, {elapsed:.1f}s")
    assert len(graphs) == 877
    assert len(cases) == 2269
    assert (answers, proofs) == (1720, 549)
    assert invalid == 0
    assert unproven == 0
    assert disagreements == 0


def test_criterion_13_sparse_misses():
    # Random regular graphs on which DSatur uses more than max degree - 1
    # classes: the ten kept from d in 4..8, n in {100, 400, 1500} and
    # seeds 1 to 5. Random 4-regular graphs are almost surely
    # 3-colorable (Shi & Wormald, 2007), so these lists are almost surely
    # feasible. Every k = 2, 3 and 4 list must be answered, and every
    # answer verifies: the exact search answers some, and the recoloring
    # the ones on which the search runs out of nodes.
    started = time.perf_counter()
    misses = [(4, 100, 1), (4, 100, 2), (4, 100, 4), (4, 400, 1), (4, 400, 3),
              (4, 400, 4), (4, 1500, 2), (4, 1500, 3), (4, 1500, 5), (5, 100, 3)]
    strategies = {}
    give_ups = invalid = 0
    for d, n, seed in misses:
        g = regular(n, d, seed)
        assert len(set(brute_dsatur(g))) > g.max_degree - 1
        for k in (2, 3, 4):
            for quotas in _quota_lists(g.max_degree - 1 + k, k):
                spec = cs.PartitionSpec(quotas)
                try:
                    part = cs.kway_clique_partition(g, spec)
                except cs.AllStrategiesExhausted:
                    give_ups += 1
                    continue
                strategies[part.strategy] = strategies.get(part.strategy, 0) + 1
                if not cs.verify_partition(g, part, spec).valid:
                    invalid += 1
    answers = sum(strategies.values())
    elapsed = time.perf_counter() - started
    ok = give_ups == invalid == 0
    _report("13 sparse misses", ok,
            f"{len(misses)} graphs, {answers + give_ups} quota lists, {answers} answers "
            f"{sorted(strategies.items())}, {give_ups} give-ups, {invalid} invalid, "
            f"{elapsed:.1f}s")
    assert answers + give_ups == 22
    assert give_ups == 0
    assert invalid == 0
    assert strategies == {"exact": 11, "recoloring": 11}
