#!/usr/bin/env python3
"""The stitprover benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {axioms,corpus,ladder} \\
        --seed N --seconds S --trace {0,1}

The goals are made from the seed (see ``workloads.py``).  The process
decides them in whole passes, one operation after another in this one
process, until ``S`` seconds of pass time have gone by.  Every operation's
verdict and evidence is checked (see ``harness.py``).

With ``--trace 0`` it reports the end-to-end metrics, set-up time among
them, measured after the passes in fresh interpreters; with ``--trace 1`` it
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones (each a per-pass figure, the median over the traced passes) and
writes the spans to ``perfbench/out/trace-<workload>.jsonl``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when a result was printed, 2 when the checkout has no
``src/stitprover`` to measure or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Cold imports of the package, each in a fresh interpreter; setup_s is
# their median.
SETUP_SAMPLES = 7
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import stitprover\n"
    "print(time.perf_counter() - start)\n"
)

# Goals decided before timing starts, so the first timed pass does not pay
# for first-call work of the interpreter.
_WARMUP = (("p | ~p", 0), ("dia [1] p -> p", 1), ("box p", 0), ("[1] p & q", 2))


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stitprover" / "__init__.py").is_file():
        print(f"error: no stitprover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports stitprover from SRC

    goals = workloads.WORKLOADS[args.workload](args.seed)
    for text, n in _WARMUP:
        harness.run_goal(workloads.Goal(text, n, None, False, "warmup"), harness.Untraced())

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, attempted, failed = harness.measure_traced(
            goals, args.seconds, OUT / f"trace-{args.workload}.jsonl"
        )
    else:
        metrics, attempted, failed = harness.measure(goals, args.seconds)
        metrics["setup_s"] = (measure_setup(), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload}: {attempted} operations attempted, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
