#!/usr/bin/env python3
"""End-to-end benchmark of clique-splitter.

One operation is what ``clique-splitter partition`` computes once the
graph is in memory: ``kway_clique_partition(g, spec)`` followed by
``verify_partition(g, part, spec)``. A run sets its workload up, times
whole rounds of its operations, checks every answer apart from the
program, and prints one JSON line as its last line of output.

    python3 perfbench/run.py --workload regime --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py            # all four workloads, one process each

See perfbench/README.md for the workloads, the metrics and the traced run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

import checks
import inputs
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed at least this many times and for at least this long;
# the medians are reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import clique_splitter; print(time.perf_counter() - t)")
# Highest-ranked stage named in Partition.strategy gets the win.
STAGES = ("coloring", "stripping", "exchange", "exact", "exact-kway")
# (metric, function, field) read from the traced round; field is the
# index into Tracer.totals(): 0 calls, 1 busy seconds, 2 self seconds.
LAYER_METRICS = (
    ("kernels.max_clique_size.calls", "kernels.max_clique_size", 0),
    ("kernels.max_clique_size.s", "kernels.max_clique_size", 1),
    ("kernels.has_clique_of_size.calls", "kernels.has_clique_of_size", 0),
    ("kernels.maximal_cliques.calls", "kernels.maximal_cliques", 0),
    ("kernels.maximal_cliques.s", "kernels.maximal_cliques", 1),
    ("cliques.clique_number.calls", "cliques.clique_number", 0),
    ("cliques.clique_number.s", "cliques.clique_number", 1),
    ("graphs.induced_subgraph.calls", "graphs.induced_subgraph", 0),
    ("graphs.induced_subgraph.s", "graphs.induced_subgraph", 1),
    ("partition.clique_bipartition.calls", "partition.clique_bipartition", 0),
    ("partition.clique_bipartition.self_s", "partition.clique_bipartition", 2),
    ("partition.kway_clique_partition.self_s", "partition.kway_clique_partition", 2),
    ("partition.partition_from_parts.calls", "partition.partition_from_parts", 0),
    ("partition.partition_from_parts.s", "partition.partition_from_parts", 1),
    ("partition.hitting_independent_set.calls", "partition.hitting_independent_set", 0),
    ("partition.hitting_independent_set.s", "partition.hitting_independent_set", 1),
    ("partition.exchange_refine.calls", "partition.exchange_refine", 0),
    ("partition.exchange_refine.s", "partition.exchange_refine", 1),
    ("oracle.verify_partition.calls", "oracle.verify_partition", 0),
    ("oracle.verify_partition.s", "oracle.verify_partition", 1),
)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _import_program():
    """Import the package from this checkout's src/ and time the import."""
    if not (SRC / "clique_splitter" / "__init__.py").is_file():
        raise SystemExit(f"no clique_splitter package under {SRC}")
    # Bytecode is written once per checkout, so no timed import compiles.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import clique_splitter as cs
    import_s = [perf_counter() - started]
    if Path(cs.__file__).resolve().parent != (SRC / "clique_splitter").resolve():
        raise SystemExit(f"imported {cs.__file__}, not the package under {SRC}")
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=60)
        import_s.append(float(probe.stdout))
    return cs, statistics.median(import_s)


def _cache_clearers() -> list:
    """cache_clear of every function cache in the package's modules."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "clique_splitter" or modname.startswith("clique_splitter.")):
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                found[id(obj)] = clear
    return list(found.values())


class _Exhausted:
    """The program gave up; ``proven`` when it claims infeasibility."""

    def __init__(self, proven: bool):
        self.proven = proven
        self.key = ("exhausted", proven)


class _Error:
    def __init__(self, exc):
        self.kind = type(exc).__name__
        self.key = ("error", self.kind)


class _Solved:
    def __init__(self, part, report):
        self.part = part
        self.report = report
        self.key = ("solved", part.assignment, report.valid)


def _round(cs, graphs, specs, times: list, speed: Speed | None) -> tuple[list, float]:
    """Run every operation once; append (midpoint, wall time) of each to
    ``times``. Returns the results and the round's wall time, less the
    probes of ``speed`` made between operations."""
    kway = cs.kway_clique_partition
    verify = cs.verify_partition
    exhausted = cs.AllStrategiesExhausted
    program_error = cs.CliqueSplitterError
    out = []
    probing = 0.0
    round_start = perf_counter()
    for gi, spec in specs:
        g = graphs[gi]
        started = perf_counter()
        try:
            part = kway(g, spec)
            result = _Solved(part, verify(g, part, spec))
        except exhausted as exc:
            result = _Exhausted(exc.proven_infeasible)
        except program_error as exc:
            result = _Error(exc)
        took = perf_counter() - started
        times.append((started + took / 2, took))
        out.append(result)
        if speed is not None:
            probing += speed.due(took)
    return out, perf_counter() - round_start - probing


def _fresh_round(cs, work, specs, clearers, times, first: bool, speed=None):
    """A round as a new user would run it: no clique number of any
    workload graph cached, in the package's caches or on the graphs."""
    for clear in clearers:
        clear()
    graphs = work.graphs if first else [cs.Graph(g.n, g.edges()) for g in work.graphs]
    return _round(cs, graphs, specs, times, speed)


def _check(cs, work, specs, rounds) -> tuple[int, dict]:
    """Check every distinct answer; return (failed, tallies) and stop the
    run on a wrong answer."""
    adjs: dict[int, list] = {}
    verdicts: dict[tuple, str | None] = {}
    failed = 0
    tallies: dict[str, int] = {}
    for results in rounds:
        for (gi, spec), result in zip(specs, results):
            key = (gi, spec.quotas, result.key)
            if key not in verdicts:
                g = work.graphs[gi]
                adj = adjs.setdefault(gi, checks.adjacency(g))
                where = f"{work.labels[gi]} quotas {spec.quotas}"
                if isinstance(result, _Solved):
                    fault = checks.partition_fault(adj, g.n, spec.quotas, result.part.parts,
                                                   result.part.assignment)
                    if fault is None and not result.report.valid:
                        fault = "verify_partition reports the partition invalid"
                    if fault is not None:
                        raise SystemExit(f"WRONG ANSWER on {where}: {fault}")
                    verdicts[key] = None
                elif isinstance(result, _Exhausted):
                    feasible = checks.settle(cs, g, adj, spec)
                    if result.proven and feasible:
                        raise SystemExit(f"WRONG ANSWER on {where}: proven infeasible, "
                                         "but the oracle finds a valid partition")
                    if result.proven:
                        verdicts[key] = None
                    elif feasible:
                        verdicts[key] = f"abandoned a feasible instance: {where}"
                    else:
                        verdicts[key] = f"left an infeasible instance unproven: {where}"
                else:
                    verdicts[key] = f"raised {result.kind}: {where}"
            if verdicts[key] is not None:
                failed += 1
                tallies[verdicts[key]] = tallies.get(verdicts[key], 0) + 1
    return failed, tallies


def _win(strategy: str | None) -> str:
    used = (strategy or "").split(";")
    ranked = [STAGES.index(s) for s in used if s in STAGES]
    return STAGES[max(ranked)] if ranked else "other"


def _layer_metrics(tracer, build_totals, results, traced_wall, untraced_wall,
                   answered: int) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, fn, field in LAYER_METRICS:
        value = totals.get(fn, [0, 0.0, 0.0])[field]
        metrics[name] = _metric(value, "count" if field == 0 else "s")
    metrics["partition.exchange_refine.stuck"] = _metric(tracer.stuck, "count")
    metrics["graphs.generate.s"] = _metric(build_totals.get("graphs.generate", [0, 0.0])[1], "s")
    wins = dict.fromkeys(STAGES + ("other",), 0)
    for result in results:
        if isinstance(result, _Solved):
            wins[_win(result.part.strategy)] += 1
    for stage, count in wins.items():
        metrics[f"partition.wins.{stage}"] = _metric(count, "count")
    layer_self = dict.fromkeys(("graphs", "kernels", "cliques", "partition", "oracle"), 0.0)
    for fn, (_, _, self_s) in totals.items():
        layer_self[fn.split(".")[0]] += self_s
    for layer, self_s in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = _metric(self_s, "s")
    metrics["trace.round_s"] = _metric(traced_wall, "s")
    metrics["trace.layer_share"] = _metric(sum(layer_self.values()) / traced_wall, "fraction")
    traced_rate = answered / traced_wall
    untraced_rate = answered / untraced_wall
    metrics["trace.solves_per_s"] = _metric(traced_rate, "1/s")
    metrics["trace.untraced_solves_per_s"] = _metric(untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = _metric(100.0 * (untraced_rate / traced_rate - 1.0), "%")
    metrics["trace.spans"] = _metric(len(tracer.start), "count")
    return metrics


def run_workload(args) -> dict:
    speed = Speed()
    for _ in range(3):
        speed.probe()
    cs, import_s = _import_program()
    speed.probe()
    accepted: dict = {}
    generate_s = []
    while len(generate_s) < SETUP_REPEATS or sum(generate_s) < SETUP_SECONDS:
        work = inputs.build(cs, args.workload, args.seed, accepted)
        generate_s.append(work.generate_s)
        speed.probe()
    setup_s = import_s + statistics.median(generate_s)
    setup_factor = speed.factor()
    first_round_probe = len(speed.samples)
    specs = [(gi, cs.PartitionSpec(q)) for gi, q in work.ops]
    clearers = _cache_clearers()

    times: list[tuple[float, float]] = []
    rounds: list[list] = []
    wall = 0.0
    while True:
        results, round_wall = _fresh_round(cs, work, specs, clearers, times, not rounds, speed)
        if not rounds:
            # Every round starts from the same state, so the first one's
            # peak stands for the run, however many rounds fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(results)
        wall += round_wall
        # Stop at the whole number of rounds closest to --seconds, counted
        # in reference seconds so that the count does not follow the host.
        if (wall + wall / len(rounds) / 2) * speed.factor() > args.seconds:
            break
    speed.probe()
    # Each operation is scaled by the host speed measured around it.
    del speed.samples[:first_round_probe], speed.stamps[:first_round_probe]
    scaled = [took * speed.factor(at) for at, took in times]
    factor = sum(scaled) / sum(took for _, took in times)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        inputs.build(cs, args.workload, args.seed, accepted)
        build_totals = tracer.totals()
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.bin", "wb") as fh:
            tracer.write(fh, "setup")
            tracer.clear()
            traced_results, traced_wall = _fresh_round(cs, work, specs, clearers, [], False)
            tracer.uninstall()
            tracer.write(fh, "round")
        rounds.append(traced_results)

    failed, tallies = _check(cs, work, specs, rounds)
    attempted = len(specs) * len(rounds)
    per_round_failed = failed // len(rounds)
    if tracer is not None:
        untraced_rounds = len(rounds) - 1
        metrics = _layer_metrics(
            tracer, build_totals, traced_results, traced_wall, wall / untraced_rounds,
            len(specs) - per_round_failed)
    else:
        pct = inputs.TAIL_PERCENTILE[args.workload]
        answered = len(times) - failed

        def timing(op_times, wall_s, setup):
            ordered = sorted(op_times)
            return {
                "setup_s": _metric(setup, "s"),
                "solves_per_s": _metric(answered / wall_s, "1/s"),
                "solve_ms_p50": _metric(1000.0 * statistics.median(ordered), "ms"),
                "solve_ms_tail": _metric(1000.0 * ordered[ceil(pct / 100 * len(ordered)) - 1], "ms"),
            }

        raw = timing([took for _, took in times], wall, setup_s)
        metrics = timing(scaled, wall * factor, setup_s * setup_factor)
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": cs.kernels.backend(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "graphs": len(work.graphs),
        "operations_per_round": len(specs), "rounds": len(rounds),
        "tail_percentile": inputs.TAIL_PERCENTILE[args.workload],
        "failures": tallies, "speed_factor": factor, "setup_speed_factor": setup_factor,
        "reference_task_ms": [1000.0 * t for t in speed.samples],
    }
    if not args.trace:
        summary["wall_clock"] = raw
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=1, sort_keys=True)
    for line, count in sorted(tallies.items()):
        print(f"failed {count}x: {line}", file=sys.stderr)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric by name."""
    status = 0
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("CLIQUE_SPLITTER_KERNEL", None)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
