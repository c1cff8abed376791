"""One operation of the benchmark, its checks, and the tracer around it.

An operation (a *run*) takes one goal at one choice bound from text to a
checked verdict:

1. ``parse`` and ``prove`` give the verdict;
2. a certificate goes through its JSON form (``derivation_to_json``,
   ``json.dumps``, ``json.loads``, ``derivation_from_json``) and the
   reloaded certificate must prove exactly ``w0: goal`` and pass
   ``check_derivation`` in refined mode at the goal's bound;
3. a stable sequent goes to ``extract_countermodel``, whose model must pass
   ``check_frame`` and falsify the goal at world 0 under ``evaluate``;
4. where the goal asks for it, ``decide_by_enumeration`` must agree, and a
   known answer must match.

A wrong verdict, rejected evidence or an exception fails the operation.

Every call into the program goes through ``tracer.call(name, fn, *args)``.
`Untraced` makes that a plain call; `Tracer` records a span around it,
named after the layer's module and function.
"""

from __future__ import annotations

import json
import operator
import statistics
from time import perf_counter
from typing import Any, Callable, NamedTuple

from stitprover import (
    CalculusConfig,
    LabelledFormula,
    LabelledSequent,
    Mode,
    Provable,
    ProverConfig,
    RuleTag,
    Valid,
    check_derivation,
    check_frame,
    decide_by_enumeration,
    derivation_from_json,
    derivation_to_json,
    evaluate,
    extract_countermodel,
    parse,
    prove,
)

from workloads import Goal


class Rejected(Exception):
    """The program's output failed one of the benchmark's checks."""


class Outcome(NamedTuple):
    """One operation: its times in seconds, or why it failed."""

    verdict_s: float = 0.0
    verified_s: float = 0.0
    cert_bytes: int = 0
    failure: str | None = None


class Untraced:
    """Calls straight through; the end-to-end metrics are measured so."""

    enabled = False

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def begin_run(self) -> None:
        pass

    def end_run(self) -> None:
        pass


class Tracer:
    """Records one span per layer call, kept in memory.

    A span is ``(name, start, end, run, tag)``; ``run`` is the operation's
    id, whose own span (named ``run``) is the parent of the layer spans.
    ``tag`` splits a layer's time by outcome (``provable``/``unprovable``,
    ``valid``/``refuted``).  ``counts`` holds work counted at the same
    boundaries: search steps, certificate nodes, model worlds.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.run = -1
        self._run_start = 0.0

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter(), self.run, None))

    def tag(self, tag: str) -> None:
        """Tag the last span."""
        self.spans[-1] = self.spans[-1][:4] + (tag,)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def begin_run(self) -> None:
        self.run += 1
        self._run_start = perf_counter()

    def end_run(self) -> None:
        self.spans.append(("run", self._run_start, perf_counter(), self.run, None))

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, run, tag in self.spans:
                parent = None if name == "run" else run
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "run": run, "parent": parent, "tag": tag,
                }) + "\n")


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def run_goal(goal: Goal, tracer) -> Outcome:
    """Decide one goal and check the verdict and its evidence."""
    tracer.begin_run()
    try:
        start = perf_counter()
        formula = tracer.call("formula.parse", parse, goal.text)
        result = tracer.call(
            "prover.prove", prove, ProverConfig(choices=goal.choices), formula
        )
        decided = perf_counter()
        provable = isinstance(result, Provable)
        if tracer.enabled:
            tracer.tag("provable" if provable else "unprovable")
            tracer.add("prover.steps", result.stats.steps)
            tracer.peak("prover.peak_labels", result.stats.max_labels)
        if provable:
            cert_bytes = check_certificate(goal, formula, result.derivation, tracer)
        else:
            cert_bytes = 0
            check_countermodel(goal, formula, result.stable, tracer)
        verified = perf_counter()
        if goal.oracle:
            answer = tracer.call(
                "semantics.decide_by_enumeration",
                decide_by_enumeration, formula, 1, goal.choices,
            )
            valid = isinstance(answer, Valid)
            if tracer.enabled:
                tracer.tag("valid" if valid else "refuted")
            if valid != provable:
                raise Rejected(f"the oracle says {'valid' if valid else 'refuted'}")
        if goal.expected is not None and goal.expected != provable:
            raise Rejected(f"the known answer is {'valid' if goal.expected else 'refuted'}")
    except Exception as err:  # any failure of the program fails the operation
        return Outcome(failure=f"{goal.text} at n={goal.choices}: "
                               f"{type(err).__name__}: {err}")
    finally:
        tracer.end_run()
    return Outcome(decided - start, verified - start, cert_bytes)


def check_certificate(goal: Goal, formula, derivation, tracer) -> int:
    """Round-trip a certificate through JSON text and check it; returns the
    size of the text in bytes."""
    cfg = CalculusConfig(agents=1, choices=goal.choices, mode=Mode.REFINED)
    text = json.dumps(tracer.call("calculus.derivation_to_json",
                                  derivation_to_json, cfg, derivation))
    loaded_cfg, loaded = tracer.call("calculus.derivation_from_json",
                                     derivation_from_json, json.loads(text))
    if loaded_cfg != cfg:
        raise Rejected(f"the certificate declares {loaded_cfg}")
    if loaded.conclusion != LabelledSequent(forms=[LabelledFormula(0, formula)]):
        raise Rejected("the certificate does not conclude w0: goal")
    report = tracer.call("calculus.check_derivation", check_derivation, cfg, loaded)
    if not report.ok:
        raise Rejected(f"certificate rejected at {report.path}: {report.error}")
    if tracer.enabled:
        nodes = rule_counts(loaded)
        tracer.add("calculus.nodes", sum(nodes.values()))
        tracer.add("calculus.and_nodes", nodes.get(RuleTag.AND, 0))
        tracer.add("calculus.apc_nodes", nodes.get(RuleTag.APC, 0))
    return len(text)


def check_countermodel(goal: Goal, formula, stable, tracer) -> None:
    model, interp = tracer.call("semantics.extract_countermodel",
                                extract_countermodel, stable, 0, goal.choices)
    frame = tracer.call("semantics.check_frame", check_frame, model, 1, goal.choices)
    if not frame.ok:
        raise Rejected(f"the counter-model breaks the frame: {frame.violations}")
    if tracer.call("semantics.evaluate", evaluate, model, interp[0], formula):
        raise Rejected("the counter-model satisfies the goal at its world")
    if tracer.enabled:
        tracer.add("semantics.model_worlds", len(model.worlds))


def rule_counts(root) -> dict:
    """How many nodes of a derivation use each rule."""
    counts: dict = {}
    stack = [root]
    while stack:
        node = stack.pop()
        counts[node.rule] = counts.get(node.rule, 0) + 1
        stack.extend(node.premises)
    return counts


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(goals, tracer) -> tuple[list, float]:
    start = perf_counter()
    outcomes = [run_goal(goal, tracer) for goal in goals]
    return outcomes, perf_counter() - start


def measure(goals, seconds: float) -> tuple[dict, int, int]:
    """Untraced passes until ``seconds`` are up: the end-to-end metrics.

    A goal's time is its median over the passes, and the p50 metrics are
    the median over goals of those; ``runs_per_s`` is the median over passes.
    Medians keep one slow pass, or a garbage collection landing on one
    operation, from moving the figures.
    """
    passes, walls = [], []
    while not walls or sum(walls) < seconds:
        done, wall = run_pass(goals, Untraced())
        passes.append(done)
        walls.append(wall)
    by_goal = [ran for ran in zip(*passes) if all(o.failure is None for o in ran)]
    ok = [sum(o.failure is None for o in done) for done in passes]

    def p50_ms(field: str) -> float:
        return 1000 * statistics.median(
            statistics.median(getattr(o, field) for o in ran) for ran in by_goal
        )

    metrics = {
        "runs_per_s": (statistics.median(map(operator.truediv, ok, walls)), "runs/s"),
        "verdict_ms_p50": (p50_ms("verdict_s"), "ms"),
        "verified_ms_p50": (p50_ms("verified_s"), "ms"),
        "cert_bytes": (sum(o.cert_bytes for o in passes[0]), "bytes"),
    }
    attempted = len(goals) * len(passes)
    return metrics, attempted, attempted - sum(ok)


def measure_traced(goals, seconds: float, trace_path) -> tuple[dict, int, int]:
    """Untraced and traced passes in turn until ``seconds`` are up: the
    per-layer metrics of the traced passes, and the tracing overhead as the
    difference of the median pass times."""
    tracer = Tracer()
    untraced = Untraced()
    walls = {False: [], True: []}
    layer_passes, outcomes, elapsed = [], [], 0.0
    while elapsed < seconds or not walls[True]:
        traced = len(walls[False]) > len(walls[True])
        first_span = len(tracer.spans)
        tracer.counts = {}
        done, wall = run_pass(goals, tracer if traced else untraced)
        outcomes += done
        walls[traced].append(wall)
        elapsed += wall
        if traced:
            layer_passes.append(
                layer_metrics(tracer.spans[first_span:], tracer.counts, wall)
            )
    tracer.write(trace_path)
    metrics = {
        name: (value, _layer_unit(name))
        for name, value in median_metrics(layer_passes).items()
    }
    metrics["trace.overhead_s"] = (
        statistics.median(walls[True]) - statistics.median(walls[False]), "s"
    )
    failed = sum(o.failure is not None for o in outcomes)
    return metrics, len(outcomes), failed


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

LAYERS = (
    "formula.parse",
    "prover.prove",
    "calculus.derivation_to_json",
    "calculus.derivation_from_json",
    "calculus.check_derivation",
    "semantics.extract_countermodel",
    "semantics.check_frame",
    "semantics.evaluate",
    "semantics.decide_by_enumeration",
)


def layer_metrics(spans: list[tuple], counts: dict, wall_s: float) -> dict[str, float]:
    """Calls, busy time and counts per layer over the spans of one pass."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    tagged: dict[tuple[str, str], float] = {}
    for name, start, end, _, tag in spans:
        if name == "run":
            continue
        calls[name] += 1
        busy[name] += end - start
        if tag is not None:
            tagged[name, tag] = tagged.get((name, tag), 0.0) + end - start
    prove_s = busy["prover.prove"]
    check_s = busy["calculus.check_derivation"]
    return {
        "formula.parse.calls": calls["formula.parse"],
        "formula.parse.busy_s": busy["formula.parse"],
        "prover.prove.calls": calls["prover.prove"],
        "prover.prove.busy_s": prove_s,
        "prover.prove.provable_busy_s": tagged.get(("prover.prove", "provable"), 0.0),
        "prover.prove.unprovable_busy_s": tagged.get(("prover.prove", "unprovable"), 0.0),
        "prover.steps": counts.get("prover.steps", 0),
        "prover.steps_per_s": counts.get("prover.steps", 0) / prove_s if prove_s else 0.0,
        "prover.peak_labels": counts.get("prover.peak_labels", 0),
        "calculus.check_derivation.calls": calls["calculus.check_derivation"],
        "calculus.check_derivation.busy_s": check_s,
        "calculus.nodes": counts.get("calculus.nodes", 0),
        "calculus.nodes_per_s": counts.get("calculus.nodes", 0) / check_s if check_s else 0.0,
        "calculus.and_nodes": counts.get("calculus.and_nodes", 0),
        "calculus.apc_nodes": counts.get("calculus.apc_nodes", 0),
        "calculus.derivation_to_json.busy_s": busy["calculus.derivation_to_json"],
        "calculus.derivation_from_json.busy_s": busy["calculus.derivation_from_json"],
        "semantics.extract_countermodel.calls": calls["semantics.extract_countermodel"],
        "semantics.extract_countermodel.busy_s": busy["semantics.extract_countermodel"],
        "semantics.model_worlds": counts.get("semantics.model_worlds", 0),
        "semantics.check_frame.busy_s": busy["semantics.check_frame"],
        "semantics.evaluate.busy_s": busy["semantics.evaluate"],
        "semantics.decide_by_enumeration.calls": calls["semantics.decide_by_enumeration"],
        "semantics.decide_by_enumeration.busy_s": busy["semantics.decide_by_enumeration"],
        "semantics.decide_by_enumeration.valid_busy_s":
            tagged.get(("semantics.decide_by_enumeration", "valid"), 0.0),
        "semantics.decide_by_enumeration.refuted_busy_s":
            tagged.get(("semantics.decide_by_enumeration", "refuted"), 0.0),
        "harness.other_s": wall_s - sum(busy.values()),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over several passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
