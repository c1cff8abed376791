"""Tests for the shared prove-vs-oracle loop and the benchmark script."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stitprover import (
    CounterModel,
    Derivation,
    LabelledFormula,
    LabelledSequent,
    Model,
    Provable,
    Unprovable,
    Valid,
    parse,
)
from stitprover import differential
from stitprover.differential import AXIOMS, runs

ROOT = Path(__file__).resolve().parents[1]


def only_run(text: str, n: int = 0):
    (run,) = runs([(parse(text), n)])
    return run


def drop_a_leaf_formula(node: Derivation) -> Derivation:
    """The same derivation with the last formula of its first leaf dropped."""
    if not node.premises:
        return Derivation(
            node.conclusion.changed(lost_forms=node.conclusion.forms[-1:]),
            node.rule,
            node.principal,
        )
    first = drop_a_leaf_formula(node.premises[0])
    return Derivation(
        node.conclusion, node.rule, node.principal, (first,) + node.premises[1:]
    )


def test_honest_runs_have_no_problems():
    for text, n in [("box p -> [1] p", 0), ("dia [1] p -> p", 0), ("p", 1)]:
        run = only_run(text, n)
        assert run.agrees
        assert run.evidence_error is None
        assert run.problems == ()


def test_the_axioms_parse_and_are_valid_at_their_bounds():
    assert len(AXIOMS) == 16
    cheap = [(parse(text), n) for text, n in AXIOMS if n < 3]
    assert all(run.problems == () for run in runs(cheap))


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("p | ~p", CounterModel(Model((0,), {1: frozenset({(0, 0)})}, {}), 0)),
        ("p", Valid(bound=1)),
    ],
)
def test_an_oracle_disagreement_is_named(monkeypatch, text, verdict):
    monkeypatch.setattr(
        differential, "decide_by_enumeration", lambda goal, choices: verdict
    )
    run = only_run(text)
    assert not run.agrees
    assert run.evidence_error is None
    assert run.problems == (
        f"search says {type(run.result).__name__}, "
        f"oracle says {type(verdict).__name__}",
    )


def test_a_certificate_with_a_formula_dropped_is_rejected(monkeypatch):
    honest = differential.prove

    def tampered(cfg, goal):
        result = honest(cfg, goal)
        return Provable(drop_a_leaf_formula(result.derivation), result.stats)

    monkeypatch.setattr(differential, "prove", tampered)
    run = only_run("box p -> [1] p")
    assert run.agrees
    assert run.evidence_error.startswith("certificate rejected at root.")
    assert run.problems == (run.evidence_error,)


def test_a_certificate_of_another_goal_is_rejected(monkeypatch):
    honest = differential.prove
    monkeypatch.setattr(
        differential, "prove", lambda cfg, goal: honest(cfg, parse("q | ~q"))
    )
    run = only_run("p | ~p")
    assert run.agrees
    assert run.evidence_error.startswith("certificate proves another sequent")


def test_a_counter_model_that_satisfies_the_goal_is_rejected(monkeypatch):
    honest = differential.prove
    # The stable sequent of ``p`` makes p false at w0, so ~p holds there.
    monkeypatch.setattr(
        differential, "prove", lambda cfg, goal: honest(cfg, parse("p"))
    )
    run = only_run("~p")
    assert run.agrees
    assert run.evidence_error == "counter-model satisfies the goal at w0"


def test_an_unstable_sequent_yields_no_counter_model(monkeypatch):
    honest = differential.prove

    def unstable(cfg, goal):
        result = honest(cfg, goal)
        s = LabelledSequent(forms=[LabelledFormula(0, goal)])
        return Unprovable(s, result.stats)

    monkeypatch.setattr(differential, "prove", unstable)
    run = only_run("box p")
    assert run.agrees
    assert run.evidence_error.startswith("no counter-model")


# ---------------------------------------------------------------------------
# The benchmark script
# ---------------------------------------------------------------------------


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_bench_pairs_script_writes_both_sides(tmp_path):
    """One short pair on ``axioms``, this checkout against itself."""
    out = tmp_path / "BENCH_0.json"
    proc = run_script("bench_pairs.py", "--parent", str(ROOT), "--change",
                      str(ROOT), "--pr", "0", "--workload", "axioms",
                      "--pairs", "1", "--seconds", "0.05", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["cores"] >= 1 and report["python"]
    axioms = report["workloads"]["axioms"]
    assert [r["side"] for r in axioms["runs"]] == ["parent", "change"]
    assert axioms["failed_operations"] == 0
    runs = axioms["summary"]["runs_per_s"]
    assert runs["better"] == "higher" and 0 <= runs["change_better_pairs"] <= 1
    assert len(runs["parent"]["runs"]) == len(runs["change"]["runs"]) == 1
    assert axioms["rss_per_operation"]["parent"]["peak_rss_mb"] > 0


def test_bench_pairs_interleaves_a_checkout_with_itself(tmp_path):
    """Two interleaved passes a side on ``axioms`` in one process, this
    checkout loaded twice under two module names; the figures go to the
    JSON, and one summary line a figure to stderr."""
    out = tmp_path / "BENCH_0.json"
    proc = run_script("bench_pairs.py", "--parent", str(ROOT), "--change",
                      str(ROOT), "--pr", "0", "--workload", "axioms",
                      "--pairs", "0", "--passes", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["workloads"] == {} and report["settings"]["passes"] == 2
    axioms = report["interleaved"]["axioms"]
    assert axioms["passes"] == 2 and axioms["operations_per_pass"] == 16
    assert axioms["failed_operations"] == {"parent": 0, "change": 0}
    figures = axioms["figures"]
    for layer in ("formula.parse.busy_s", "prover.prove.busy_s",
                  "calculus.derivation_from_json.busy_s",
                  "semantics.decide_by_enumeration.busy_s", "verdict_ms_p50",
                  "verified_ms_p50"):
        entry = figures[layer]
        assert entry["better"] == "lower"
        assert entry["change_wins_share"] in (0.0, 0.5, 1.0)
        for side in ("parent", "change"):
            first, best, median = (entry[side][k] for k in ("first", "best", "median"))
            assert 0 < best <= median and best <= first
    assert figures["runs_per_s"]["better"] == "higher"
    check = figures["calculus.check_derivation.busy_s"]
    line = next(line for line in proc.stderr.splitlines()
                if line.startswith("  calculus.check_derivation.busy_s: "))
    assert f"medians parent {check['parent']['median']:.6g}, " in line
    assert f"change {check['change']['median']:.6g}, " in line
    assert f"{check['median_change_pct']:+.1f} %" in line
    assert line.endswith(f"change won {round(2 * check['change_wins_share'])} of 2")
