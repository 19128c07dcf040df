#!/usr/bin/env python3
"""Record every operation's outputs over a perfbench workload, and
compare them with a recording made from another checkout.

One operation is perfbench's: ``kway_clique_partition(g, spec)``
followed by ``verify_partition(g, part, spec)``. The workload's graphs
and operations come from ``perfbench/inputs.py``, which is imported and
not changed. For each operation the record keeps, as plain data, the
assignment, parts, strategy string, certificates and verification report
of an answer, or the class, message, diagnostics, depth and proof flag
of a raised error.

    # record the outputs of the package under another checkout's src/
    python3 benchmarks/compare_outputs.py --workload all --src ../parent/src --out parent.pkl
    # run this checkout's package and compare, operation by operation
    python3 benchmarks/compare_outputs.py --workload all --against parent.pkl

With ``--against``, the first differing operation is printed and the
exit code is 1 on any difference. Only load files this script wrote:
they are pickles.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402


def _record(cs, g, spec) -> tuple:
    try:
        part = cs.kway_clique_partition(g, spec)
        report = cs.verify_partition(g, part, spec)
    except cs.CliqueSplitterError as exc:
        return ("raised", type(exc).__name__, str(exc),
                sorted(getattr(exc, "diagnostics", {}).items()),
                getattr(exc, "depth", None), getattr(exc, "proven_infeasible", None))
    return ("solved", part.assignment, part.parts, part.strategy,
            tuple((c.omega, c.witness) for c in part.certificates),
            (report.part_omegas, report.valid, report.violations))


def record_workload(cs, name: str, seed: int) -> list:
    """[(graph label, quotas, record)] for one pass over the workload."""
    work = inputs.build(cs, name, seed, {})
    return [(work.labels[gi], quotas, _record(cs, work.graphs[gi], cs.PartitionSpec(quotas)))
            for gi, quotas in work.ops]


def first_difference(ours: dict, theirs: dict) -> str | None:
    for name in sorted(set(ours) | set(theirs)):
        if name not in ours or name not in theirs:
            return f"{name}: recorded on one side only"
        a, b = ours[name], theirs[name]
        if len(a) != len(b):
            return f"{name}: {len(a)} operations here, {len(b)} in the recording"
        for i, (mine, other) in enumerate(zip(a, b)):
            if mine != other:
                return (f"{name} operation {i} ({mine[0]} quotas {mine[1]}):\n"
                        f"  here:      {mine[2]}\n  recording: {other[2]}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
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
        recorded[name] = record_workload(cs, name, args.seed)
        print(f"{name}: {len(recorded[name])} operations", file=sys.stderr)
    if args.out is not None:
        with open(args.out, "wb") as fh:
            pickle.dump(recorded, fh)
    if args.against is not None:
        with open(args.against, "rb") as fh:
            theirs = pickle.load(fh)
        theirs = {name: ops for name, ops in theirs.items() if name in recorded}
        diff = first_difference(recorded, theirs)
        if diff is not None:
            print(f"outputs differ: {diff}")
            return 1
        print(f"identical outputs on {sum(map(len, recorded.values()))} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
