"""Acceptance suite: one end-to-end test per shipping criterion.

Criteria 3-6 share one corpus sweep: every normal-form formula over {p, q}
with at most three connectives, plus 500 seeded random formulas of depth at
most four, each decided at choice bounds 0, 1 and 2 by both the search
procedure and the enumeration oracle.  The sweep folds the records of
``stitprover.differential.runs``, which checks every certificate and
counter-model, and records every monitored size-bound excess.  It also
folds every run's verdict, statistics and evidence into one SHA-256, so a
refactor that changes any certificate or stable sequent shows up.  A second
digest does the same for the benchmark's ``ladder`` goals, whose choice-rule
splits are wider than any in the sweep, a third folds the counter-model
of every refuted sweep run, which the first does not read, and a fourth the
counter-model and world of every refutation the oracle reports.
"""

import hashlib
import importlib.util
import json
import random
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest

from stitprover import (
    AgBox,
    Atom,
    CalculusConfig,
    CounterModel,
    Derivation,
    LabelledFormula,
    LabelledSequent,
    Mode,
    Provable,
    ProverConfig,
    RelAtom,
    RuleTag,
    Unprovable,
    Valid,
    ValidUpToBound,
    check_derivation,
    decide_by_enumeration,
    derivation_to_json,
    enumerate_formulas,
    extract_countermodel,
    graph_of,
    model_from_json,
    model_to_json,
    parse,
    pretty,
    prove,
    random_formula,
    sequent_to_json,
    side_condition_holds,
)
from stitprover.differential import AXIOMS, runs


def _line(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number} [{description}]: {'PASS' if ok else 'FAIL'}")


def _best_of_five(operation) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Criterion 1: worked examples reproduce exactly, in under a millisecond
# ---------------------------------------------------------------------------


def test_criterion_1_worked_examples():
    # A line of four labels 0-1-2-3: the 2-labelled middle edge blocks
    # <1>-propagation from label 0 to label 3 but not to its neighbour 1.
    prop_seq = LabelledSequent(
        rel=[RelAtom(1, 0, 1), RelAtom(2, 1, 2), RelAtom(1, 2, 3)],
        forms=[LabelledFormula(0, Atom("p"))],
    )

    def check_propagation():
        return (
            side_condition_holds(prop_seq, 1, 0, 3),
            side_condition_holds(prop_seq, 1, 0, 1),
        )

    # Three labels, two relational atoms, mixed formulas at each label.
    graph_seq = LabelledSequent(
        rel=[RelAtom(1, 0, 1), RelAtom(1, 2, 0)],
        forms=[
            LabelledFormula(0, Atom("p")),
            LabelledFormula(1, parse("~p | q")),
            LabelledFormula(2, Atom("r")),
            LabelledFormula(2, parse("dia q")),
        ],
    )

    def check_graph():
        return graph_of(graph_seq)

    timings = [_best_of_five(check_propagation), _best_of_five(check_graph)]

    blocked, direct = check_propagation()
    graph = check_graph()
    exact = (
        blocked is False
        and direct is True
        and graph.vertices == frozenset({0, 1, 2})
        and graph.edges == frozenset({(0, 1, 1), (2, 0, 1)})
        and dict(graph.vertex_labels)
        == {
            0: frozenset({Atom("p")}),
            1: frozenset({parse("~p | q")}),
            2: frozenset({Atom("r"), parse("dia q")}),
        }
    )
    fast = all(t < 0.001 for t in timings)
    _line(1, "worked examples, exact and < 1 ms", exact and fast)
    assert exact
    assert fast, f"timings {timings}"


# ---------------------------------------------------------------------------
# Criterion 2: the axiom suite is provable and valid in under five seconds
# ---------------------------------------------------------------------------

def test_criterion_2_axiom_suite():
    start = time.perf_counter()
    failures = []
    for text, n in AXIOMS:
        goal = parse(text)
        if not isinstance(prove(ProverConfig(choices=n), goal), Provable):
            failures.append(f"not provable at n={n}: {text}")
        if not isinstance(decide_by_enumeration(goal, choices=n), Valid):
            failures.append(f"not valid at n={n}: {text}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _line(2, f"16 axioms provable and valid in {elapsed:.2f} s", ok)
    assert not failures, failures
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# The shared corpus sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    enumerated: int = 0
    runs: int = 0
    provable_runs: int = 0
    unprovable_runs: int = 0
    disagreements: list = field(default_factory=list)
    certificate_failures: list = field(default_factory=list)
    model_failures: list = field(default_factory=list)
    violation_runs: list = field(default_factory=list)
    derivation_sample: list = field(default_factory=list)
    valid_runs: list = field(default_factory=list)
    unmarked_model_changes: list = field(default_factory=list)
    digest: str = ""
    model_digest: str = ""
    oracle_digest: str = ""
    elapsed: float = 0.0


BOUNDS = (0, 1, 2)


def _where(run, message: str) -> str:
    return f"n={run.choices}: {pretty(run.goal)}: {message}"


def _behaviour(result, choices: int) -> bytes:
    """One sorted-key JSON line: verdict, steps, peak labels, bound
    excesses, and the certificate or stable sequent."""
    if isinstance(result, Provable):
        cfg = CalculusConfig(agents=1, choices=choices, mode=Mode.REFINED)
        evidence = derivation_to_json(cfg, result.derivation)
    else:
        evidence = sequent_to_json(result.stable)
    stats = result.stats
    record = [
        type(result).__name__,
        stats.steps,
        stats.max_labels,
        stats.bound_violations,
        evidence,
    ]
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _model_line(model) -> bytes:
    """One sorted-key JSON line: the counter-model, or null for none."""
    shown = None if model is None else model_to_json(model)
    return (json.dumps(shown, sort_keys=True) + "\n").encode()


def _oracle_line(verdict: CounterModel) -> bytes:
    """One sorted-key JSON line: the oracle's counter-model and world."""
    shown = [model_to_json(verdict.model), verdict.world]
    return (json.dumps(shown, sort_keys=True) + "\n").encode()


def _unmarked_model_change(run) -> str | None:
    """Extraction from a copy of the run's stable sequent, which carries no
    mark of the search and so takes the full ``is_stable`` guard: why it
    differs from the run's own model, or ``None`` when it gives the same."""
    stable = run.result.stable
    copy = LabelledSequent(stable.rel, stable.forms)
    try:
        model, _ = extract_countermodel(copy, 0, run.choices)
    except ValueError as err:
        return f"the unmarked copy is refused: {err}"
    if model != run.model:
        return "the unmarked copy gives another model"
    return None


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    report = SweepReport()

    goals = list(enumerate_formulas(3, ("p", "q")))
    report.enumerated = len(goals)
    rng = random.Random(7)
    goals.extend(random_formula(rng, 4, ("p", "q")) for _ in range(500))

    digest, model_digest = hashlib.sha256(), hashlib.sha256()
    oracle_digest = hashlib.sha256()
    for run in runs((goal, n) for goal in goals for n in BOUNDS):
        report.runs += 1
        digest.update(_behaviour(run.result, run.choices))
        if isinstance(run.result, Unprovable):
            model_digest.update(_model_line(run.model))
            change = _unmarked_model_change(run)
            if change is not None:
                report.unmarked_model_changes.append(_where(run, change))
        if isinstance(run.verdict, CounterModel):
            oracle_digest.update(_oracle_line(run.verdict))
        provable = isinstance(run.result, Provable)
        if not run.agrees:
            report.disagreements.append(_where(run, run.problems[0]))
        if run.evidence_error is not None:
            failures = (
                report.certificate_failures if provable else report.model_failures
            )
            failures.append(_where(run, run.evidence_error))
        if run.result.stats.bound_violations:
            violations = tuple(run.result.stats.bound_violations)
            report.violation_runs.append((pretty(run.goal), run.choices, violations))
        if isinstance(run.verdict, Valid):
            report.valid_runs.append((run.goal, run.choices, run.verdict.bound))
        if provable:
            report.provable_runs += 1
            if run.evidence_error is None and report.provable_runs % 50 == 1:
                report.derivation_sample.append((run.choices, run.result.derivation))
        else:
            report.unprovable_runs += 1

    report.digest = digest.hexdigest()
    report.model_digest = model_digest.hexdigest()
    report.oracle_digest = oracle_digest.hexdigest()
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Criterion 3: the search agrees with the oracle everywhere
# ---------------------------------------------------------------------------


def test_criterion_3_differential_agreement(sweep):
    ok = (
        sweep.enumerated == 24820
        and sweep.runs == (sweep.enumerated + 500) * len(BOUNDS)
        and not sweep.disagreements
        and sweep.elapsed < 600.0
    )
    _line(
        3,
        f"{sweep.runs} search/oracle runs agree in {sweep.elapsed:.0f} s",
        ok,
    )
    assert sweep.enumerated == 24820
    assert sweep.runs == 75960
    assert sweep.disagreements == []
    assert sweep.elapsed < 600.0


def test_one_more_world_changes_no_valid_verdict(sweep):
    """A test of `default_world_bound` that can fail: every goal the oracle
    calls valid is still valid with one world more than the bound."""
    assert len(sweep.valid_runs) == 10126
    changed = [
        f"n={n}: {pretty(goal)}"
        for goal, n, bound in sweep.valid_runs
        if not isinstance(
            decide_by_enumeration(goal, choices=n, max_worlds=bound + 1), Valid
        )
    ]
    assert changed == []


def test_sweep_behaviour_is_unchanged(sweep):
    """Every verdict, step count, peak label count, bound excess,
    certificate and stable sequent of the sweep, byte for byte.  A change
    that alters the search's output on purpose must say why and record the
    new value here."""
    assert sweep.digest == (
        "f6379151be594e160ffe6e0ec01f5353acc27ae92b775c475cfbab0755cf81ed"
    )


def test_sweep_counter_models_are_unchanged(sweep):
    """Every counter-model of the sweep's refuted runs, as sorted-key
    ``model_to_json``, byte for byte; the digest above reads no model."""
    assert sweep.model_digest == (
        "a3ed7d2c8f11fb9540bdad4175f37bc3dae53f1077db913ff3a959eb701a4d4b"
    )


def test_oracle_counter_models_are_unchanged(sweep):
    """Every counter-model the oracle reports on the sweep, with its world,
    as sorted-key ``model_to_json``, byte for byte.  Which model of the
    fewest worlds the oracle finds first depends on the order in which it
    numbers the goal's atoms and subformulas."""
    assert sweep.oracle_digest == (
        "3c91bdd4bdcb6095d62b3000907bfc126ab96c234fff0a87a6462c9e8d6b81bb"
    )


def test_unmarked_stable_sequents_give_the_same_counter_models(sweep):
    """The search's stable sequent skips the stability guard at its own
    bound; a mark-free copy of it takes the guard, on every refuted run,
    and must be accepted and give the same model."""
    assert sweep.unprovable_runs == 65834
    assert sweep.unmarked_model_changes == []


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded by its path: it imports nothing
    of ``stitprover``, and ``perfbench`` is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_ladder_behaviour_is_unchanged():
    """The benchmark's ``ladder`` goals at seed 1, searched only, recorded
    as in the sweep digest.  Its ``BC_7`` at n = 7 makes 28-way choice-rule
    splits; the sweep stops at n = 2, so this is the pinned check of splits
    with more than three premises."""
    goals = _perfbench_workloads().ladder(1)
    assert len(goals) == 637
    digest = hashlib.sha256()
    for goal in goals:
        result = prove(ProverConfig(choices=goal.choices), parse(goal.text))
        digest.update(_behaviour(result, goal.choices))
    assert digest.hexdigest() == (
        "e5f91f0dc05b3f24caefb97be31e51198aa86c4ceb07a4d96f193bc168a1edb8"
    )


def test_corpus_counter_models_round_trip_through_the_strict_reader():
    """Every counter-model of the benchmark's ``corpus`` goals at seed 1
    reads back from its JSON text unchanged."""
    refuted = 0
    for goal in _perfbench_workloads().corpus(1):
        result = prove(ProverConfig(choices=goal.choices), parse(goal.text))
        if isinstance(result, Unprovable):
            refuted += 1
            model, _ = extract_countermodel(result.stable, 0, goal.choices)
            obj = json.loads(json.dumps(model_to_json(model)))
            again = model_from_json(obj)
            assert again == model and model_to_json(again) == obj, goal.text
    assert refuted > 5000


# ---------------------------------------------------------------------------
# Criterion 4: every unprovable run yields a genuine counter-model
# ---------------------------------------------------------------------------


def test_criterion_4_counter_models(sweep):
    ok = sweep.unprovable_runs > 0 and not sweep.model_failures
    _line(
        4,
        f"{sweep.unprovable_runs} counter-models check out",
        ok,
    )
    assert sweep.unprovable_runs > 0
    assert sweep.model_failures == []


# ---------------------------------------------------------------------------
# Criterion 5: every provable run yields a checkable certificate, and
# mutated certificates are rejected
# ---------------------------------------------------------------------------


def _drop_one_formula(node: Derivation, path: tuple, rng) -> Derivation:
    if not path:
        dropped = rng.choice(list(node.conclusion.forms))
        return Derivation(
            node.conclusion.changed(lost_forms=[dropped]),
            node.rule,
            node.principal,
            node.premises,
        )
    i = path[0]
    rebuilt = _drop_one_formula(node.premises[i], path[1:], rng)
    premises = node.premises[:i] + (rebuilt,) + node.premises[i + 1 :]
    return Derivation(node.conclusion, node.rule, node.principal, premises)


def _all_paths(node: Derivation, prefix=()):
    yield prefix
    for i, premise in enumerate(node.premises):
        yield from _all_paths(premise, prefix + (i,))


def test_criterion_5_certificates_and_mutations(sweep):
    rng = random.Random(99)
    assert sweep.derivation_sample, "the sweep collected no derivations"
    surviving_mutants = []
    for k in range(50):
        n, derivation = rng.choice(sweep.derivation_sample)
        path = rng.choice(list(_all_paths(derivation)))
        mutant = _drop_one_formula(derivation, path, rng)
        cfg = CalculusConfig(agents=1, choices=n, mode=Mode.REFINED)
        if check_derivation(cfg, mutant).ok:
            surviving_mutants.append(f"mutation {k} at {path} passed")

    ok = (
        sweep.provable_runs > 0
        and not sweep.certificate_failures
        and not surviving_mutants
    )
    _line(
        5,
        f"{sweep.provable_runs} certificates pass, 50 mutants rejected",
        ok,
    )
    assert sweep.provable_runs > 0
    assert sweep.certificate_failures == []
    assert surviving_mutants == []


def _at(node: Derivation, path: tuple) -> Derivation:
    for i in path:
        node = node.premises[i]
    return node


def _edit(node: Derivation, path: tuple, change) -> Derivation:
    """``node`` with ``change`` applied to the node at ``path``."""
    if not path:
        return change(node)
    i = path[0]
    premise = _edit(node.premises[i], path[1:], change)
    premises = node.premises[:i] + (premise,) + node.premises[i + 1 :]
    return replace(node, premises=premises)


def _offender_mutants(root: Derivation, rng) -> list[Derivation]:
    """Seven mutants of ``root``, one of each kind: drop a formula, add an
    agent-2 formula or atom at an inner node, retag the rule, break a
    principal entry, drop or duplicate a premise."""
    paths = list(_all_paths(root))
    inner = paths[1:] or paths
    splits = [p for p in paths if _at(root, p).premises] or paths

    def drop_formula(node):
        dropped = rng.choice(node.conclusion.forms)
        return replace(node, conclusion=node.conclusion.changed(lost_forms=[dropped]))

    def add_formula(node):
        w = rng.choice(node.conclusion.labels())
        bad = LabelledFormula(w, AgBox(2, Atom("p")))
        return replace(node, conclusion=node.conclusion.changed(forms=[bad]))

    def add_atom(node):
        w = rng.choice(node.conclusion.labels())
        bad = RelAtom(2, w, w)
        return replace(node, conclusion=node.conclusion.changed(rel=[bad]))

    def retag(node):
        others = [t for t in RuleTag if t is not node.rule]
        return replace(node, rule=rng.choice(others))

    def break_principal(node):
        principal = dict(node.principal)
        key = rng.choice(sorted(principal))
        if type(principal[key]) is int:
            principal[key] += 1
        else:
            del principal[key]
        return replace(node, principal=principal)

    def drop_premise(node):
        i = rng.randrange(len(node.premises)) if node.premises else 0
        return replace(node, premises=node.premises[:i] + node.premises[i + 1 :])

    def duplicate_premise(node):
        extra = (rng.choice(node.premises),) if node.premises else ()
        return replace(node, premises=node.premises + extra)

    return [
        _edit(root, rng.choice(where), change)
        for where, change in (
            (paths, drop_formula),
            (inner, add_formula),
            (inner, add_atom),
            (paths, retag),
            (paths, break_principal),
            (splits, drop_premise),
            (splits, duplicate_premise),
        )
    ]


def test_the_checkers_first_offenders_are_unchanged(sweep):
    """Each sampled certificate and seven mutants of it, checked in both
    modes at m = 1 and m = 2: one ``[ok, path]`` line per check, folded into
    one SHA-256.  Error texts are left out on purpose, so that rewording a
    message does not move the digest, while a change to which inference a
    checker blames first does."""
    digest = hashlib.sha256()
    checks = 0
    for k, (n, derivation) in enumerate(sweep.derivation_sample):
        rng = random.Random(k)
        for tree in [derivation, *_offender_mutants(derivation, rng)]:
            for mode in (Mode.REFINED, Mode.G3):
                for m in (1, 2):
                    result = check_derivation(CalculusConfig(m, n, mode), tree)
                    line = json.dumps([result.ok, result.path]) + "\n"
                    digest.update(line.encode())
                    checks += 1
    assert checks == 8 * 4 * len(sweep.derivation_sample)
    assert digest.hexdigest() == (
        "d671b6af06d75833097445cd1c41ede9240b9f9141c846d1b95cfdf0f91a295b"
    )


# ---------------------------------------------------------------------------
# Criterion 6: the advertised termination bounds never trip
# ---------------------------------------------------------------------------


def test_criterion_6_termination_bounds(sweep):
    ok = not sweep.violation_runs
    _line(
        6,
        f"size bounds respected on all {sweep.runs} runs",
        ok,
    )
    # The label bound (1 + h)(1 + a), for h box and a [1] occurrences, and
    # the relational bound a(1 + h) plus choice-rule edges are proved in the
    # prover's module docstring: at most 1 + h choice trees are ever
    # seeded, and each [1] f is realized at most once per seed.  The monitor
    # records every excess; this criterion demands zero.
    witnesses = "\n".join(
        f"  n={n}: {text}: {'; '.join(messages)}"
        for text, n, messages in sweep.violation_runs[:30]
    )
    assert not sweep.violation_runs, (
        f"{len(sweep.violation_runs)} of {sweep.runs} runs exceeded a "
        f"monitored bound:\n{witnesses}"
    )


# ---------------------------------------------------------------------------
# Criterion 7: the documented scope boundary holds
# ---------------------------------------------------------------------------


def test_criterion_7_scope_boundary():
    # Proof search is single-agent by design; multi-agent goals are refused
    # rather than mishandled...
    from stitprover import AgBox

    with pytest.raises(ValueError):
        prove(ProverConfig(choices=0), AgBox(2, Atom("p")))

    # ...while the checker and the oracle do cover several agents, and a
    # truncated multi-agent enumeration reports its own incompleteness
    # instead of overclaiming.
    goal = parse("dia [1] p & dia [2] q -> dia ([1] p & [2] q)", agents=2)
    truncated = decide_by_enumeration(goal, agents=2, max_worlds=2)
    assert truncated == ValidUpToBound(bound=2, default_bound=5)

    _line(7, "multi-agent search out of scope, gates in place", True)
