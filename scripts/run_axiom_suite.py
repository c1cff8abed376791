#!/usr/bin/env python3
"""Decide the characteristic axioms with both engines and print a table.

Each row shows the goal, the choice bound it is decided at, the search
verdict, the per-goal wall time (search, oracle and evidence checks), and
any disagreement or rejected evidence.
"""

import argparse
import time

from stitprover import Provable, parse
from stitprover.differential import AXIOMS, runs


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    width = max(len(text) for text, _ in AXIOMS)
    total = start = time.perf_counter()
    bad = 0
    for (text, n), run in zip(AXIOMS, runs((parse(t), n) for t, n in AXIOMS)):
        elapsed = time.perf_counter() - start
        searched = isinstance(run.result, Provable)
        verdict = "provable" if searched else "UNPROVABLE"
        note = "".join(f"   <-- {problem}" for problem in run.problems)
        if not searched or run.problems:
            bad += 1
        print(f"n={n}  {text:<{width}}  {verdict:<10} {elapsed * 1000:7.1f} ms{note}")
        start = time.perf_counter()
    print(f"\n{len(AXIOMS)} goals in {time.perf_counter() - total:.2f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
