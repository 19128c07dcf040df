#!/usr/bin/env python3
"""Benchmark the pure-Python clique kernels against the compiled extension.

Runs the exact max-clique search, full maximal-clique enumeration and
the decision query ``has_clique_of_size`` on a spread of instances, and
prints per-instance timings plus speedups. The decision rows ask for a
clique of the instance's clique number w (answer "yes") and of w+1
(answer "no").

    python benchmarks/bench_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Import the package from this checkout, with no install needed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clique_splitter import GeneratorRecipe, generate  # noqa: E402
from clique_splitter import _pykernels as pure  # noqa: E402

try:
    from clique_splitter import _ckernels as compiled
except ImportError:
    compiled = None


def instances(quick: bool):
    cases = [
        ("gnp n=60 p=0.5", GeneratorRecipe("gnp", {"n": 60, "p": 0.5}, seed=1)),
        ("gnp n=90 p=0.4", GeneratorRecipe("gnp", {"n": 90, "p": 0.4}, seed=2)),
        ("regular n=28 d=13", GeneratorRecipe("random_regular", {"n": 28, "d": 13}, seed=3)),
        ("regular n=60 d=16", GeneratorRecipe("random_regular", {"n": 60, "d": 16}, seed=4)),
        ("C9 x K3 product", GeneratorRecipe("strong_product_cycle_clique",
                                            {"cycle_len": 9, "m": 3})),
    ]
    if not quick:
        cases += [
            ("gnp n=120 p=0.35", GeneratorRecipe("gnp", {"n": 120, "p": 0.35}, seed=5)),
            ("gnp n=80 p=0.6", GeneratorRecipe("gnp", {"n": 80, "p": 0.6}, seed=6)),
            ("gnp n=110 p=0.65", GeneratorRecipe("gnp", {"n": 110, "p": 0.65}, seed=7)),
        ]
    for name, recipe in cases:
        yield name, generate(recipe)


def timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small instance set")
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernels unavailable; build with "
              "`python setup.py build_ext --inplace` to compare", file=sys.stderr)

    header = f"{'instance':<22} {'task':<12} {'pure':>9} {'compiled':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, g in instances(args.quick):
        adj = list(g.adjacency_bits)
        mask = (1 << g.n) - 1
        omega = pure.max_clique_size(adj, mask)
        for task, fn_name, args_ in (
                ("max clique", "max_clique_size", (adj, mask)),
                ("enumerate", "maximal_cliques", (adj, mask)),
                ("decide w", "has_clique_of_size", (adj, mask, omega)),
                ("decide w+1", "has_clique_of_size", (adj, mask, omega + 1))):
            pure_value, pure_time = timed(getattr(pure, fn_name), *args_)
            if compiled is not None:
                comp_value, comp_time = timed(getattr(compiled, fn_name), *args_)
                assert pure_value == comp_value, f"{name}: {task} mismatch"
                ratio = pure_time / comp_time if comp_time > 0 else float("inf")
                print(f"{name:<22} {task:<12} {pure_time:>8.4f}s {comp_time:>8.4f}s "
                      f"{ratio:>7.1f}x")
            else:
                print(f"{name:<22} {task:<12} {pure_time:>8.4f}s {'-':>9} {'-':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
