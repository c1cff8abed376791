#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

Usage, with two checkouts (say a ``git clone`` of the parent commit and the
working tree of the change):

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr N \\
        --workload ladder --workload corpus --pairs 3 --seconds 30 --seed 2 \\
        [--sweep-pairs 3] [--passes 10]

For each workload, each pair runs ``perfbench/run.py`` once in each
checkout, one run at a time; the first pair starts with the parent and
the next with the change, and so on, so that drift of the host lands on
both sides alike.  With ``--sweep-pairs K`` it also times the criterion-3
sweep (every normal-form goal over p, q with at most three connectives and
500 random ones of depth four from seed 7, each at n = 0, 1, 2) in K
pairs, one process a side: the time in ``prove`` and in
``extract_countermodel``, and a SHA-256 over the sorted-key
``model_to_json`` of every counter-model.

With ``--passes K`` it also interleaves the two sides in this one process,
for each workload: it loads each checkout's package under its own module
name (``stitprover_parent``, ``stitprover_change``) with that checkout's
``perfbench/harness.py`` bound to it, and runs the workload's goals
through ``harness.run_pass`` with a fresh ``harness.Tracer``, K passes a
side, alternating which side goes first.  These are the benchmark's own
layer calls and checks, so a failed check fails the operation there too.
Per layer (the traced busy time), per pass wall time, ``runs_per_s``,
``verdict_ms_p50`` and ``verified_ms_p50`` (lower is better for both) it
reports each side's first, best and median pass and the share of passes
the change wins, and after each workload's passes it prints one line a
figure: both medians, the median change in percent and the passes the
change won.  A side's first pass far slower than its median one flags a
cache that outlives a pass.  ``--pairs 0`` skips
the process-level pairs.

It writes ``BENCH_<pr>.json`` in the change's checkout, or ``--out``: both
commits, the core count, the Python version, every run, and per metric
each side's median and quartiles, the median change and the number of
pairs in which the change is better, reading "better" from
``BENCHMARK.json``.  For a workload that reports ``peak_rss_mb`` it also
gives the memory each extra operation costs (``rss_per_operation``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# Times the sweep in the checkout whose ``src`` is argv[1]; prints one JSON
# object.  It uses only API that every revision of the package has.
_SWEEP_PROBE = """
import hashlib, json, random, sys, time
sys.path.insert(0, sys.argv[1])
from stitprover import (ProverConfig, Unprovable, enumerate_formulas,
    extract_countermodel, model_to_json, prove, random_formula)
goals = list(enumerate_formulas(3, ("p", "q")))
rng = random.Random(7)
goals.extend(random_formula(rng, 4, ("p", "q")) for _ in range(500))
digest, prove_s, extract_s, refuted = hashlib.sha256(), 0.0, 0.0, 0
for goal in goals:
    for n in (0, 1, 2):
        start = time.perf_counter()
        result = prove(ProverConfig(choices=n), goal)
        proved = time.perf_counter()
        prove_s += proved - start
        if isinstance(result, Unprovable):
            model, _ = extract_countermodel(result.stable, 0, n)
            extract_s += time.perf_counter() - proved
            refuted += 1
            line = json.dumps(model_to_json(model), sort_keys=True) + "\\n"
            digest.update(line.encode())
print(json.dumps({"prove_s": prove_s, "extract_s": extract_s,
                  "search_and_extract_s": prove_s + extract_s,
                  "refuted": refuted, "model_digest": digest.hexdigest()}))
"""

# Lower is better for the sweep's times.
_SWEEP_BETTER = {"prove_s": "lower", "extract_s": "lower", "search_and_extract_s": "lower"}


def commit_of(checkout: Path) -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its metric values, operations and
    failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def sweep_run(checkout: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_PROBE, str(checkout / "src")],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    probe = json.loads(proc.stdout)
    return {"metrics": {name: probe[name] for name in _SWEEP_BETTER},
            "refuted": probe["refuted"], "model_digest": probe["model_digest"]}


def in_pairs(pairs: int, run_one, paths: dict[str, Path]) -> list[dict]:
    """``pairs`` pairs of runs, alternating which side goes first."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            ran = run_one(paths[side])
            ran.update(pair=pair, side=side)
            runs.append(ran)
            print(f"  pair {pair} {side}: {ran['metrics']}", file=sys.stderr)
    return runs


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "runs": values}


def change_better(side: dict[str, list[float]], better: str) -> int:
    """In how many pairs the change's value is better, ties counting for
    neither side."""
    lower = better == "lower"
    return sum((c < p) if lower else (c > p) for p, c in zip(side["parent"], side["change"]))


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the change of the
    median in percent, and the pairs in which the change is better."""
    out = {}
    for name in runs[0]["metrics"]:
        side = {s: [r["metrics"][name] for r in runs if r["side"] == s] for s in SIDES}
        entry = {s: spread(side[s]) for s in SIDES}
        base = entry["parent"]["median"]
        if base:
            entry["median_change_pct"] = 100 * (entry["change"]["median"] - base) / base
        if name in better:
            entry["better"] = better[name]
            entry["change_better_pairs"] = change_better(side, better[name])
        out[name] = entry
    return out


def rss_per_operation(runs: list[dict]) -> dict | None:
    """The marginal resident memory per operation a run completes: the
    difference of the sides' median ``peak_rss_mb`` over the difference of
    their median operation counts."""
    if "peak_rss_mb" not in runs[0]["metrics"]:
        return None
    med = {
        s: (statistics.median(r["metrics"]["peak_rss_mb"] for r in runs if r["side"] == s),
            statistics.median(r["attempted"] for r in runs if r["side"] == s))
        for s in SIDES
    }
    (rss_p, ops_p), (rss_c, ops_c) = med["parent"], med["change"]
    return {
        "parent": {"peak_rss_mb": rss_p, "operations": ops_p},
        "change": {"peak_rss_mb": rss_c, "operations": ops_c},
        "bytes_per_extra_operation": (
            (rss_c - rss_p) * 2**20 / (ops_c - ops_p) if ops_c != ops_p else None
        ),
    }


def _load(name: str, path: Path, package: Path | None = None):
    """The module at ``path`` (a package's ``__init__.py`` when ``package``
    is its directory), loaded as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(package)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_harnesses(paths: dict[str, Path]) -> tuple:
    """The change's ``perfbench/workloads.py``, and each side's
    ``perfbench/harness.py`` importing that side's package, renamed, as
    ``stitprover``.  The entries this borrows in ``sys.modules`` are put
    back."""
    borrowed = {name: sys.modules.get(name) for name in ("stitprover", "workloads")}
    harnesses = {}
    try:
        workloads = _load("workloads", paths["change"] / "perfbench" / "workloads.py")
        for side in SIDES:
            package = paths[side] / "src" / "stitprover"
            sys.modules["stitprover"] = _load(
                f"stitprover_{side}", package / "__init__.py", package
            )
            harnesses[side] = _load(
                f"harness_{side}", paths[side] / "perfbench" / "harness.py"
            )
    finally:
        for name, module in borrowed.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return workloads, harnesses


# The figures of one interleaved pass that are not layer busy times.
_PASS_BETTER = {"pass_s": "lower", "runs_per_s": "higher", "verdict_ms_p50": "lower",
                "verified_ms_p50": "lower"}


def traced_pass(harness, goals) -> tuple[dict[str, float], list[str]]:
    """One pass of ``goals`` through ``harness`` under a fresh tracer: its
    figures, and the failures of its operations."""
    tracer = harness.Tracer()
    outcomes, wall = harness.run_pass(goals, tracer)
    layers = harness.layer_metrics(tracer.spans, tracer.counts, wall)
    figures = {
        name: value for name, value in layers.items()
        if name.endswith(".busy_s") or name == "harness.other_s"
    }
    done = [o for o in outcomes if o.failure is None]
    figures["pass_s"] = wall
    figures["runs_per_s"] = len(done) / wall
    for name, field in (("verdict_ms_p50", "verdict_s"), ("verified_ms_p50", "verified_s")):
        figures[name] = (
            1000 * statistics.median(getattr(o, field) for o in done) if done else 0.0
        )
    return figures, [o.failure for o in outcomes if o.failure is not None]


def interleave(goals: list, harnesses: dict, passes: int) -> dict:
    """``passes`` traced passes a side of ``goals``, in this process,
    alternating which side goes first; per figure, each side's first, best
    and median pass and the share of passes the change wins."""
    figures = {side: [] for side in SIDES}
    failures = {side: [] for side in SIDES}
    for index in range(passes):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            ran, failed = traced_pass(harnesses[side], goals)
            figures[side].append(ran)
            failures[side] += failed
        print(f"  pass {index}: " + ", ".join(
            f"{side} {figures[side][-1]['pass_s']:.3f} s" for side in SIDES
        ), file=sys.stderr)
    out = {}
    for name in figures["parent"][0]:
        side = {s: [ran[name] for ran in figures[s]] for s in SIDES}
        if not any(side["parent"] + side["change"]):
            continue  # a layer this workload never calls
        better = _PASS_BETTER.get(name, "lower")
        best = min if better == "lower" else max
        entry = {"better": better}
        for s in SIDES:
            entry[s] = {"first": side[s][0], "best": best(side[s]),
                        "median": statistics.median(side[s])}
        base = entry["parent"]["median"]
        if base:
            entry["median_change_pct"] = 100 * (entry["change"]["median"] - base) / base
        wins = change_better(side, better)
        entry["change_wins_share"] = wins / passes
        out[name] = entry
        pct = f", {entry['median_change_pct']:+.1f} %" if base else ""
        print(f"  {name}: medians parent {base:.6g}, change "
              f"{entry['change']['median']:.6g}{pct}, change won {wins} of {passes}",
              file=sys.stderr)
    return {"passes": passes, "operations_per_pass": len(goals),
            "failed_operations": {s: len(failures[s]) for s in SIDES},
            "first_failures": {s: failures[s][:3] for s in SIDES},
            "figures": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True, help="number of the BENCH file")
    parser.add_argument("--workload", action="append", default=[],
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sweep-pairs", type=int, default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="interleaved passes a side, in one process")
    parser.add_argument("--out", type=Path,
                        help="where to write (default: BENCH_<pr>.json in the change)")
    args = parser.parse_args(argv)
    if min(args.pairs, args.sweep_pairs, args.passes) < 0:
        parser.error("--pairs, --passes and --sweep-pairs cannot be negative")
    if args.pairs == 0 and args.passes == 0 and args.sweep_pairs == 0:
        parser.error("nothing to run: give --pairs, --passes or --sweep-pairs")

    paths = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((paths["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "pr": args.pr,
        "commits": {s: commit_of(paths[s]) for s in SIDES},
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "sweep_pairs": args.sweep_pairs, "passes": args.passes,
                     "order": "pair 0 and pass 0 run the parent first, "
                              "then sides alternate"},
        "workloads": {},
    }
    for workload in args.workload if args.pairs else ():
        print(f"{workload}:", file=sys.stderr)
        runs = in_pairs(
            args.pairs,
            lambda path: perfbench_run(path, workload, args.seed, args.seconds),
            paths,
        )
        report["workloads"][workload] = {
            "summary": summary(runs, better),
            "rss_per_operation": rss_per_operation(runs),
            "failed_operations": sum(r["failed"] for r in runs),
            "runs": runs,
        }
    if args.passes and args.workload:
        workloads, harnesses = load_harnesses(paths)
        report["interleaved"] = {}
        for workload in args.workload:
            print(f"{workload}, interleaved:", file=sys.stderr)
            goals = workloads.WORKLOADS[workload](args.seed)
            report["interleaved"][workload] = interleave(goals, harnesses, args.passes)
    if args.sweep_pairs:
        print("sweep:", file=sys.stderr)
        runs = in_pairs(args.sweep_pairs, sweep_run, paths)
        report["sweep"] = {
            "summary": summary(runs, _SWEEP_BETTER),
            "model_digests": sorted({(r["side"], r["model_digest"]) for r in runs}),
            "runs": runs,
        }
    out = args.out or paths["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
