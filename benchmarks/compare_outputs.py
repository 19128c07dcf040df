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
of a raised error.

    # record the outputs of the package under another checkout's src/
    python3 benchmarks/compare_outputs.py --workload all --src ../parent/src --out parent.pkl
    # run this checkout's package and compare, operation by operation
    python3 benchmarks/compare_outputs.py --workload all --against parent.pkl
    python3 benchmarks/compare_outputs.py --workload products --src ../parent/src --out p.pkl
    python3 benchmarks/compare_outputs.py --workload products --against p.pkl

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
import itertools
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


PRODUCTS = "products"


def product_quota_lists(delta: int):
    """Every two-part pair and every three-part list of quotas, each
    non-increasing, at least 2 and summing to delta - 1 + k."""
    for k in (2, 3):
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
            for quotas in product_quota_lists(g.max_degree):
                out.append((f"C{length}xK{m}", quotas,
                            _record(cs, g, cs.PartitionSpec(quotas))))
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
                        choices=("all",) + inputs.WORKLOADS + (PRODUCTS,))
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
        recorded[name] = (record_products(cs) if name == PRODUCTS
                          else record_workload(cs, name, args.seed))
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
