"""Command-line front door: partition, verify, gen, probe, stats.

Exit codes are a stable contract: 0 success, 1 I/O or parse failure,
2 precondition violation, 3 all strategies exhausted, 4 invalid partition.
Set CLIQUE_SPLITTER_LOG=debug|info|warning for log verbosity.
"""

from __future__ import annotations

import json
import logging
import os
import random
import sys
import time
from typing import Callable

import click

from . import oracle
from .cliques import clique_number
from .errors import (
    AllStrategiesExhausted,
    BudgetExceededError,
    CliqueSplitterError,
    GenerationError,
    GraphFormatError,
    PreconditionError,
    RecipeError,
)
from .graphs import (
    Graph,
    _mix,
    from_adjacency_json,
    generate,
    parse_dimacs,
    parse_recipe,
    serialize_dimacs,
    to_adjacency_json,
)
from .partition import (
    PartitionSpec,
    kway_clique_partition,
    partition_from_assignment,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_EXHAUSTED = 3
EXIT_INVALID = 4

log = logging.getLogger("clique_splitter.cli")


def _setup_logging() -> None:
    level_name = os.environ.get("CLIQUE_SPLITTER_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_graph(in_path: str | None, gen_recipe: str | None, seed: int) -> tuple[Graph, str]:
    """Graph plus a short input descriptor, from a file or a recipe string."""
    if (in_path is None) == (gen_recipe is None):
        _fail(EXIT_IO, "supply exactly one of --in and --gen")
    if gen_recipe is not None:
        try:
            recipe = parse_recipe(gen_recipe, seed)
            return generate(recipe), f"gen:{gen_recipe}"
        except (RecipeError, GenerationError) as exc:
            _fail(EXIT_IO, str(exc))
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(EXIT_IO, str(exc))
    try:
        if text.lstrip().startswith("{"):
            return from_adjacency_json(json.loads(text)), in_path
        return parse_dimacs(text), in_path
    except (GraphFormatError, json.JSONDecodeError) as exc:
        _fail(EXIT_IO, f"{in_path}: {exc}")
    raise AssertionError("unreachable")


def _quota_ints(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        _fail(EXIT_IO, f"{option} must be comma-separated integers, got {text!r}")


def _check_quotas(quotas: tuple[int, ...]) -> PartitionSpec:
    if any(p < 2 for p in quotas):
        _fail(EXIT_PRECONDITION, "every quota must be at least 2")
    if any(a < b for a, b in zip(quotas, quotas[1:])):
        _fail(EXIT_PRECONDITION,
              "quotas must be sorted in non-increasing order (not reordered silently)")
    return PartitionSpec(quotas)


@click.group()
def main() -> None:
    """Partition graphs into parts with prescribed clique bounds."""
    _setup_logging()


@main.command("partition")
@click.option("--in", "in_path", type=str, default=None, help="Graph file (DIMACS or JSON).")
@click.option("--gen", "gen_recipe", type=str, default=None, help="Generator recipe, e.g. regular:28,13.")
@click.option("--quotas", required=True, help="Comma-separated quota list p1,p2,... (non-increasing).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the --gen recipe, echoed in the report; the engine takes none.")
@click.option("--json", "as_json", is_flag=True, help="Print the machine report to stdout.")
@click.option("--out", "out_path", type=str, default=None, help="Write the machine report to a file.")
def cmd_partition(in_path, gen_recipe, quotas, seed, as_json, out_path):
    """Split the graph so part i has no clique of size p_i."""
    g, descriptor = _load_graph(in_path, gen_recipe, seed)
    spec = _check_quotas(_quota_ints(quotas, "--quotas"))
    started = time.perf_counter()
    try:
        part = kway_clique_partition(g, spec)
    except PreconditionError as exc:
        _fail(EXIT_PRECONDITION, str(exc))
    except AllStrategiesExhausted as exc:
        payload = {
            "input": descriptor,
            "quotas": list(spec.quotas),
            "exhausted": True,
            "proven_infeasible": exc.proven_infeasible,
            "depth": exc.depth,
            "diagnostics": exc.diagnostics,
        }
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
        sys.exit(EXIT_EXHAUSTED)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = oracle.verify_partition(g, part, spec)
    run_report = {
        "input": descriptor,
        "n": g.n,
        "quotas": list(spec.quotas),
        "strategy": part.strategy,
        "assignment": list(part.assignment),
        "part_omegas": list(report.part_omegas),
        "valid": report.valid,
        "elapsed_ms": round(elapsed_ms, 3),
        "seed": seed,
    }
    text = json.dumps(run_report, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if as_json or not out_path:
        click.echo(text)
    if not report.valid:
        sys.exit(EXIT_INVALID)
    sys.exit(EXIT_OK)


@main.command("verify")
@click.option("--in", "in_path", type=str, default=None, help="Graph file (DIMACS or JSON).")
@click.option("--gen", "gen_recipe", type=str, default=None, help="Generator recipe.")
@click.option("--report", "report_path", type=str, required=True,
              help="Partition report JSON (from the partition command).")
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_verify(in_path, gen_recipe, report_path, seed):
    """Re-check a partition report against the graph with exact clique numbers."""
    g, _ = _load_graph(in_path, gen_recipe, seed)
    try:
        with open(report_path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assignment = payload["assignment"]
        quotas = payload["quotas"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        _fail(EXIT_IO, f"{report_path}: {exc}")
    for name, values in (("quotas", quotas), ("assignment", assignment)):
        if not isinstance(values, list):
            _fail(EXIT_IO, f"{report_path}: {name} must be a list, "
                           f"got {type(values).__name__}")
        # bool is a subclass of int, but true is not a JSON integer.
        bad = [x for x in values if type(x) is not int]
        if bad:
            _fail(EXIT_IO, f"{report_path}: {name} must hold integers, "
                           f"got {json.dumps(bad[0])}")
    if len(assignment) != g.n:
        _fail(EXIT_IO, f"assignment covers {len(assignment)} vertices, graph has {g.n}")
    try:
        spec = PartitionSpec(quotas)
        part = partition_from_assignment(g, assignment, spec.k)
    except ValueError as exc:
        _fail(EXIT_IO, str(exc))
    result = oracle.verify_partition(g, part, spec)
    witness_by_part = dict(result.violations)
    for i, (quota, omega) in enumerate(zip(spec.quotas, result.part_omegas)):
        status = "ok" if omega <= quota - 1 else f"VIOLATED witness={witness_by_part[i]}"
        click.echo(f"part {i}: quota {quota}  omega {omega}  size {len(part.parts[i])}  {status}")
    click.echo(f"valid: {result.valid}")
    sys.exit(EXIT_OK if result.valid else EXIT_INVALID)


@main.command("gen")
@click.argument("recipe")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--format", "fmt", type=click.Choice(["dimacs", "json"]), default="dimacs",
              show_default=True)
def cmd_gen(recipe, seed, out_path, fmt):
    """Generate a graph file and print an n/m/degree/clique summary."""
    try:
        g = generate(parse_recipe(recipe, seed))
    except (RecipeError, GenerationError) as exc:
        _fail(EXIT_IO, str(exc))
    if fmt == "dimacs":
        text = serialize_dimacs(g)
    else:
        text = json.dumps(to_adjacency_json(g), sort_keys=True) + "\n"
    cert = clique_number(g)
    summary = (f"n={g.n} m={g.edge_count} max_degree={g.max_degree} "
               f"omega={cert.omega}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(summary)
    else:
        click.echo(text, nl=False)
        click.echo(summary, err=True)
    sys.exit(EXIT_OK)


def _probe_quota_lists(policy: str) -> Callable[[int], list[tuple[int, ...]]]:
    """The quota lists to try on a sampled graph, as a function of its max
    degree. A ``list:`` policy is parsed and checked here, once."""
    if policy == "none":
        return lambda delta: []
    if policy == "all2":
        return lambda delta: [tuple([2] * (delta - 1))] if delta >= 2 else []
    if policy == "pairs":
        return lambda delta: [(delta + 1 - q, q) for q in range(2, delta + 1)
                              if delta + 1 - q >= q]
    if policy.startswith("list:"):
        lists = [_quota_ints(chunk.strip(), "--quota-policy")
                 for chunk in policy[len("list:"):].split(";") if chunk.strip()]
        for quotas in lists:
            _check_quotas(quotas)
        return lambda delta: [q for q in lists if sum(q) == delta - 1 + len(q)]
    _fail(EXIT_IO, f"unknown quota policy {policy!r}")


@main.command("probe")
@click.option("--n-min", type=int, default=4, show_default=True)
@click.option("--n-max", type=int, default=7, show_default=True)
@click.option("--samples", type=int, default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--quota-policy", default="all2", show_default=True,
              help="all2 | pairs | list:p1,p2;p1,p2,p3 | none")
@click.option("--budget-n", type=int, default=10, show_default=True,
              help="Oracle cap; larger sampled graphs are logged and skipped.")
@click.option("--out", "out_path", type=str, default=None,
              help="Findings file (JSON lines); default stdout.")
def cmd_probe(n_min, n_max, samples, seed, quota_policy, budget_n, out_path):
    """Sample small graphs and hunt for quota-infeasible instances,
    engine mismatches, and chromatic-tight graphs."""
    if n_min < 1 or n_max < n_min:
        _fail(EXIT_IO, "need 1 <= n-min <= n-max")
    quota_lists_for = _probe_quota_lists(quota_policy)
    budget = oracle.OracleBudget(assignment_cap=budget_n, enumeration_cap=budget_n)
    findings: list[dict] = []
    densities = (0.3, 0.5, 0.7)
    for index in range(samples):
        rng = random.Random(_mix(4, seed, index))
        n = rng.randint(n_min, n_max)
        p_edge = densities[rng.randrange(len(densities))]
        g = generate(parse_recipe(f"gnp:{n},{p_edge}", seed=_mix(5, seed, index) & 0xFFFF))
        delta = g.max_degree
        omega = clique_number(g).omega
        if delta < 2 or omega > delta - 1:
            continue
        quota_lists = quota_lists_for(delta)
        if not quota_lists:
            continue
        canonical = serialize_dimacs(g)
        if g.n <= budget_n:
            chi = oracle.chromatic_number(g, budget)
            if chi == delta:
                findings.append({"graph": canonical, "spec": None, "phenomenon": "bk_tight"})
        else:
            log.info("probe sample %d: n=%d beyond oracle budget, chi skipped", index, g.n)
        for quotas in quota_lists:
            spec = PartitionSpec(quotas)
            feasible = None
            if g.n <= budget_n:
                try:
                    feasible, _ = oracle.exists_clique_partition(g, spec, budget)
                except BudgetExceededError as exc:
                    log.info("probe sample %d quotas %s: %s", index, quotas, exc)
            else:
                log.info("probe sample %d: n=%d beyond oracle budget, skipped", index, g.n)
            if feasible is False:
                findings.append({
                    "graph": canonical, "spec": list(quotas),
                    "phenomenon": "oracle_infeasible"})
            engine_failed = False
            try:
                kway_clique_partition(g, spec)
            except AllStrategiesExhausted:
                engine_failed = True
            except PreconditionError:
                continue
            if engine_failed and feasible is not False:
                findings.append({
                    "graph": canonical, "spec": list(quotas),
                    "phenomenon": "engine_exhausted"})
    lines = [json.dumps(f, sort_keys=True) for f in findings]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            click.echo(line)
    sys.exit(EXIT_OK)


@main.command("stats")
@click.option("--in", "in_path", type=str, default=None, help="Graph file (DIMACS or JSON).")
@click.option("--gen", "gen_recipe", type=str, default=None, help="Generator recipe.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_stats(in_path, gen_recipe, seed, as_json):
    """Basic structural numbers: n, m, degrees, clique number, degeneracy."""
    g, descriptor = _load_graph(in_path, gen_recipe, seed)
    cert = clique_number(g)
    try:
        chromatic = oracle.chromatic_number(g)
    except BudgetExceededError:
        chromatic = None
    payload = {
        "input": descriptor,
        "n": g.n,
        "m": g.edge_count,
        "max_degree": g.max_degree,
        "min_degree": g.min_degree,
        "omega": cert.omega,
        "degeneracy": oracle.degeneracy(g),
        "chromatic": chromatic,
    }
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            click.echo(f"{key}: {value}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
