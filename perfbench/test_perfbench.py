"""Tests of the benchmark's own checks and goal generators.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from stitprover import (
    LabelledSequent,
    Model,
    Provable,
    ProverConfig,
    Valid,
    decide_by_enumeration,
    enumerate_formulas,
    parse,
    prove,
)
from stitprover.formula import connective_count, depth
from workloads import Goal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(text, n, expected=None, oracle=False):
    return harness.run_goal(Goal(text, n, expected, oracle, "test"), harness.Untraced())


# ---------------------------------------------------------------------------
# Failed operations
# ---------------------------------------------------------------------------


def test_checked_verdicts_pass():
    assert run("p | ~p", 0, True, True).failure is None
    assert run("p", 0, False, True).failure is None
    proved = run("dia [1] p -> p", 1, True, True)
    assert proved.failure is None and proved.cert_bytes > 0


def test_a_wrong_known_answer_fails_the_operation():
    assert "known answer" in run("p", 0, expected=True).failure
    assert "known answer" in run("p | ~p", 0, expected=False).failure


def test_an_oracle_disagreement_fails_the_operation(monkeypatch):
    monkeypatch.setattr(harness, "decide_by_enumeration", lambda f, m, n: Valid(1))
    assert "oracle" in run("p", 0, oracle=True).failure


def test_an_exception_fails_the_operation():
    assert "ParseError" in run("p &", 0).failure


def _drop_one_formula(node):
    """The derivation with the last formula of its deepest leftmost
    node's conclusion dropped."""
    if not node.premises:
        seq = node.conclusion
        return dataclasses.replace(
            node, conclusion=LabelledSequent(seq.rel, seq.forms[:-1])
        )
    first, *rest = node.premises
    return dataclasses.replace(node, premises=(_drop_one_formula(first), *rest))


def test_a_certificate_with_a_dropped_formula_fails_the_operation(monkeypatch):
    def tampered(cfg, goal):
        result = prove(cfg, goal)
        return Provable(_drop_one_formula(result.derivation), result.stats)

    monkeypatch.setattr(harness, "prove", tampered)
    assert "certificate rejected" in run("p | ~p", 0, True).failure
    assert "certificate rejected" in run("dia [1] p -> p", 1, True).failure


def test_a_certificate_of_another_sequent_fails_the_operation(monkeypatch):
    monkeypatch.setattr(harness, "prove", lambda cfg, goal: prove(cfg, parse("q | ~q")))
    assert "does not conclude" in run("p | ~p", 0).failure


def test_a_model_satisfying_the_goal_fails_the_operation(monkeypatch):
    satisfying = Model(worlds=(0,), rel={1: frozenset({(0, 0)})}, val={"p": frozenset({0})})
    monkeypatch.setattr(harness, "extract_countermodel", lambda s, w, n: (satisfying, {0: 0}))
    assert "satisfies the goal" in run("p", 0, False).failure


def test_a_model_off_the_frame_fails_the_operation(monkeypatch):
    three_cells = Model(worlds=(0, 1, 2), rel={1: frozenset({(0, 0), (1, 1), (2, 2)})}, val={})
    monkeypatch.setattr(harness, "extract_countermodel", lambda s, w, n: (three_cells, {0: 0}))
    assert "frame" in run("p", 2, False).failure


# ---------------------------------------------------------------------------
# Known answers, against the oracle where it is cheap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_bounded_choice_known_answers_agree_with_the_oracle(k):
    goal = parse(workloads.bounded_choice(k))
    for n in range(k + 3):
        valid = isinstance(decide_by_enumeration(goal, choices=n), Valid)
        assert valid == (1 <= n <= k), n


def test_the_ladder_bc_rungs_carry_the_known_answer():
    rungs = [g for g in workloads.ladder(0) if g.family == "bc"]
    assert len(rungs) == 3 * workloads.BC_MAX
    assert all(g.expected == (1 <= g.choices <= g.text.count("[1]")) for g in rungs)


@pytest.mark.parametrize("text", [workloads.chain(1), workloads.chain(2), workloads.tower(3)])
def test_chains_and_towers_are_refuted_by_the_oracle(text):
    for n in (0, 1):
        assert not isinstance(decide_by_enumeration(parse(text), choices=n), Valid)


def test_the_axioms_are_valid_at_their_bounds_under_renaming():
    for goal in workloads.axioms(5):
        if goal.choices < 3:  # the n = 3 axiom alone takes seconds
            verdict = decide_by_enumeration(parse(goal.text), choices=goal.choices)
            assert isinstance(verdict, Valid), goal.text


# ---------------------------------------------------------------------------
# Goal generators
# ---------------------------------------------------------------------------


def test_the_corpus_texts_are_the_criterion_3_formulas():
    texts = list(workloads.enumerate_texts(3))
    assert [parse(t) for t in texts] == list(enumerate_formulas(3, ("p", "q")))


def test_random_texts_respect_depth_and_count():
    rng = workloads.random.Random(3)
    for _ in range(200):
        text, text_depth, count = workloads.random_text(rng, 6, ("p", "q", "r"))
        formula = parse(text)
        assert text_depth == depth(formula) <= 6
        assert count == connective_count(formula)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_seed_fixes_the_goals(name):
    make = workloads.WORKLOADS[name]
    assert make(11) == make(11)
    if name != "axioms":
        assert make(11) != make(12)


def test_workload_sizes():
    assert len(workloads.axioms(0)) == 16
    assert len(workloads.corpus(0)) == 3 * workloads.CORPUS_SAMPLE
    ladder = workloads.ladder(0)
    assert sum(g.family == "random" for g in ladder) == 3 * workloads.LADDER_RANDOM


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_the_command_prints_every_metric(trace, kind):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * workloads.CORPUS_SAMPLE * (1 + trace)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _metric_names(kind)


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
