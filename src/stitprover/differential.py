"""The search against the enumeration oracle, with the search's evidence checked.

`runs` decides each ``(goal, n)`` pair with `prove` and with
`decide_by_enumeration`, checks the certificate (root ``w0: goal``,
`check_derivation` in refined mode) or the counter-model (`check_frame`,
goal false at world 0), and yields one `Run` naming any fault.  ``import
stitprover`` does not load this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .calculus import CalculusConfig, Mode, check_derivation
from .formula import Formula
from .prover import Provable, ProveResult, ProverConfig, prove
from .semantics import (
    EnumerationResult,
    Model,
    Valid,
    check_frame,
    decide_by_enumeration,
    evaluate,
    extract_countermodel,
)
from .sequent import LabelledFormula, LabelledSequent

# The characteristic axioms, each with the choice bound it is valid at.
AXIOMS: tuple[tuple[str, int], ...] = (
    # Propositional base.
    ("p -> (q -> p)", 0),
    ("(~q -> ~p) -> (p -> q)", 0),
    ("(p -> (q -> r)) -> ((p -> q) -> (p -> r))", 0),
    # S5 for the historic modality.
    ("box (p -> q) -> (box p -> box q)", 0),
    ("box p -> p", 0),
    ("dia p -> box dia p", 0),
    ("box p | dia ~p", 0),
    # S5 for the agentive modality.
    ("[1] (p -> q) -> ([1] p -> [1] q)", 0),
    ("[1] p -> p", 0),
    ("<1> p -> [1] <1> p", 0),
    ("[1] p | <1> ~p", 0),
    # Settledness implies agentive necessity.
    ("box p -> [1] p", 0),
    # Independence of agents is trivial for one agent.
    ("dia [1] p -> dia [1] p", 0),
    # Bounded choice, one axiom per bound.
    ("dia [1] p -> p", 1),
    ("dia [1] p & dia (~p & [1] q) -> p | q", 2),
    ("dia [1] p & dia (~p & [1] q) & dia (~p & ~q & [1] r) -> p | q | r", 3),
)


@dataclass(frozen=True)
class Run:
    """One goal decided at choice bound ``choices`` by both engines.

    ``evidence_error`` says why the search's certificate or counter-model
    was rejected, and is ``None`` when it checks out.  ``model`` is the
    counter-model extracted from an ``Unprovable`` result, and ``None``
    when the goal was proved or no model could be extracted.
    """

    goal: Formula
    choices: int
    result: ProveResult
    verdict: EnumerationResult
    evidence_error: str | None
    model: Model | None = None

    @property
    def agrees(self) -> bool:
        return isinstance(self.result, Provable) == isinstance(self.verdict, Valid)

    @property
    def problems(self) -> tuple[str, ...]:
        """One message per fault of this run; empty when there is none."""
        found = []
        if not self.agrees:
            found.append(
                f"search says {type(self.result).__name__}, "
                f"oracle says {type(self.verdict).__name__}"
            )
        if self.evidence_error is not None:
            found.append(self.evidence_error)
        return tuple(found)


def runs(pairs: Iterable[tuple[Formula, int]]) -> Iterator[Run]:
    """Decide each ``(goal, n)`` pair with both engines, checking evidence."""
    for goal, n in pairs:
        result = prove(ProverConfig(choices=n), goal)
        verdict = decide_by_enumeration(goal, choices=n)
        yield Run(goal, n, result, verdict, *_evidence(goal, n, result))


def _evidence(
    goal: Formula, n: int, result: ProveResult
) -> tuple[str | None, Model | None]:
    """Why the result's evidence is rejected, or ``None``; and the
    counter-model extracted from it, if any."""
    if isinstance(result, Provable):
        root = result.derivation
        if root.conclusion != LabelledSequent(forms=[LabelledFormula(0, goal)]):
            return f"certificate proves another sequent: {root.conclusion.show()}", None
        cfg = CalculusConfig(agents=1, choices=n, mode=Mode.REFINED)
        outcome = check_derivation(cfg, root)
        if not outcome.ok:
            return f"certificate rejected at {outcome.path}: {outcome.error}", None
        return None, None
    try:
        model, interp = extract_countermodel(result.stable, 0, n)
    except ValueError as err:
        return f"no counter-model: {err}", None
    frame = check_frame(model, agents=1, choices=n)
    if not frame.ok:
        return f"counter-model breaks the frame: {'; '.join(frame.violations)}", model
    if evaluate(model, interp[0], goal):
        return "counter-model satisfies the goal at w0", model
    return None, model
