#!/usr/bin/env python3
"""Differential sweep: the proof search against the enumeration oracle.

Enumerates every normal-form formula over the given atoms up to a connective
budget (optionally plus random formulas), decides each at every requested
choice bound with both engines, checks every certificate and counter-model,
and reports disagreements, rejected evidence and monitored size-bound
excesses.
"""

import argparse
import random
import time

from stitprover import enumerate_formulas, pretty, random_formula
from stitprover.differential import runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-connectives", type=int, default=3, metavar="C")
    parser.add_argument("--atoms", default="p,q", metavar="NAMES",
                        help="comma-separated atom names (default p,q)")
    parser.add_argument("--bounds", default="0,1,2", metavar="NS",
                        help="comma-separated choice bounds (default 0,1,2)")
    parser.add_argument("--random", type=int, default=0, metavar="K",
                        help="additionally try K random formulas")
    parser.add_argument("--depth", type=int, default=4, metavar="D",
                        help="depth of the random formulas")
    parser.add_argument("--seed", type=int, default=7, metavar="S")
    args = parser.parse_args()

    names = tuple(args.atoms.split(","))
    bounds = [int(n) for n in args.bounds.split(",")]
    goals = list(enumerate_formulas(args.max_connectives, names))
    rng = random.Random(args.seed)
    goals.extend(random_formula(rng, args.depth, names) for _ in range(args.random))

    start = time.perf_counter()
    count = disagreements = evidence_failures = 0
    violations: list[tuple[str, int]] = []
    for run in runs((goal, n) for goal in goals for n in bounds):
        count += 1
        disagreements += not run.agrees
        evidence_failures += run.evidence_error is not None
        for problem in run.problems:
            print(f"FAILURE n={run.choices}: {pretty(run.goal)}: {problem}")
        if run.result.stats.bound_violations:
            violations.append((pretty(run.goal), run.choices))

    elapsed = time.perf_counter() - start
    print(f"{count} runs over {len(goals)} goals in {elapsed:.1f} s")
    print(f"disagreements: {disagreements}")
    print(f"evidence failures: {evidence_failures}")
    print(f"runs exceeding a monitored size bound: {len(violations)}")
    for text, n in violations[:20]:
        print(f"  n={n}: {text}")
    if len(violations) > 20:
        print(f"  ... and {len(violations) - 20} more")
    return 1 if disagreements or evidence_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
