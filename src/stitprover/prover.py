"""Backward proof search deciding validity for the single-agent logics.

The procedure works on a growing labelled sequent, applying the first
instruction of the following priority list that fires (scanning labels in
ascending order and formulas in insertion order, for reproducibility):

1. an atomic clash ``w:p, w:~p`` closes the branch (rule ``id``);
2. when no other instruction fires, the sequent is *stable*, so it
   refutes the goal and is returned as a counter-model seed;
3. (i) unsaturated disjunctions add both disjuncts; (ii) unsaturated
   conjunctions branch, one conjunct per premise;
4. an agentive diamond ``w:<1>f`` copies ``f`` to a choice-tree mate of
   ``w`` that is missing it;
5. a settledness diamond ``w:dia f`` copies ``f`` to any label missing it;
6. an unrealized agentive box ``w:[1]f`` spawns a fresh ``R_1``-successor
   carrying ``f``;
7. an unrealized settledness box ``w:box f`` spawns a fresh label carrying
   ``f``;
8. with a positive choice bound ``n``, more than ``n`` choice-trees trigger
   a case split joining two of the ``n+1`` smallest roots per premise.

``_step`` is the one statement of instructions 1 and 3-8: it returns the
first that fires.  Instruction 2 is ``_step`` returning ``None``, and
``is_stable`` is that together with the one clause ``_step`` does not test,
"no complementary pair at a label".  At the leaf that clause follows by
induction on the formula: where nothing fires, ``f & g`` against
``~f | ~g`` leaves ``~f``, ``~g`` and one of ``f, g`` at the label; ``box f``
against ``dia ~f`` leaves ``f`` at some ``u`` and ``~f`` at every label;
``[1] f`` against ``<1> ~f`` does the same within a choice tree.  So a
compound pair implies an atomic clash, which instruction 1 would have
closed.  The search asserts only that clause at the stable leaf it returns.

Each of instructions 3-8 is blocked once it has done its work (the
disjunct, conjunct or body is present, the box is realized, the trees are
few enough), so it fires at most once per trigger, which gives termination.

The search owns one stack, with one frame per open inference: the step's
conclusion, rule, principal and premises, the derivations of the premises
closed so far, and the choice-rule edges on the branch.  A step with
premises pushes its frame and searches its first premise.  When ``id``
closes a branch, the frames it finishes pop off as refined-mode
derivations, via the step-to-rule correspondence, down to the first frame
with a premise still open, which is searched next; an empty stack is a
proof.  A stable leaf ends the whole search, wherever it sits.  So the
search never recurses, and the depth of nested case splits is limited by
time and memory only.

Size bounds.  Let ``h`` be the number of ``box`` occurrences in the goal and
``a`` the number of ``[1]`` occurrences.  Every sequent the search builds has
at most ``(1 + h)(1 + a)`` labels and at most ``a(1 + h) + k`` relational
atoms, where ``k`` is the number of choice-rule edges (instruction 8) on its
branch.  Proof:

* Every formula in a sequent is a subformula of the goal, and no step
  removes a label, a relational atom or a formula.
* Instruction 7 fires on ``box f`` only if no label carries ``f``, and it
  leaves ``f`` at its fresh label, so it fires at most once per distinct
  ``box f``: at most ``h`` times.  Only instructions 6 and 7 make labels,
  and the label made by 6 joins an existing choice tree, so every choice
  tree contains a *seed*: label 0 or a label made by 7.  There are at most
  ``1 + h`` seeds, and instruction 8 only merges trees.
* Instruction 6 fires on ``[1] f`` only if the choice tree ``T`` of its
  label carries no ``f``, and it puts ``f`` into ``T``.  Trees never lose
  members or formulas, so every seed of ``T`` lies in a tree carrying ``f``
  from then on.  Each firing for ``[1] f`` thus moves at least one seed for
  good out of the trees lacking ``f``: at most ``1 + h`` firings per
  distinct ``[1] f``, at most ``a(1 + h)`` in all.
* Labels: ``1 + h + a(1 + h) = (1 + h)(1 + a)``.  Relational atoms: one per
  firing of instruction 6, plus one per choice-rule edge.

Both bounds are met exactly: ``box dia [1] p`` reaches 4 labels, and
``box dia [1] box p`` at ``n = 1`` reaches 6 labels and 5 relational atoms.
They are *monitored* rather than enforced: a search that outgrew them would
record the event in its statistics and keep going (see
``SearchStats.bound_violations``).  The structural invariants that the
search relies on (forest shape, choice-tree count dropping across a case
split) are hard assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import Derivation, RuleTag
from .formula import AgBox, AgDia, And, Atom, Box, Dia, Formula, NegAtom, Or
from .formula import agents_of, negate, subformulae
from .sequent import (
    LabelledFormula,
    LabelledSequent,
    RelAtom,
    choice_trees,
    components,
    fresh_label,
    is_forestlike,
    tree_of,
)


class InternalInvariantError(AssertionError):
    """A structural invariant of the search was broken (a genuine bug)."""


class SearchLimitExceeded(RuntimeError):
    """A user-supplied diagnostic cap (steps or labels) was hit."""


@dataclass(frozen=True)
class ProverConfig:
    choices: int = 0
    max_steps: int | None = None
    max_labels: int | None = None

    def __post_init__(self) -> None:
        if self.choices < 0:
            raise ValueError("the choice bound cannot be negative")


@dataclass
class SearchStats:
    """What one ``prove`` run did, and the size bounds it was checked against.

    ``steps`` counts fired instructions and ``max_labels`` is the peak label
    count over every sequent built.  ``label_bound`` is ``(1 + h)(1 + a)``
    for a goal with ``h`` ``box`` and ``a`` ``[1]`` occurrences, and the
    relational bound of a sequent is ``rel_bound_base = a(1 + h)`` plus the
    choice-rule edges on its branch; the module docstring proves both.
    ``bound_violations`` holds one message per distinct excess, so by that
    proof it stays empty.
    """

    steps: int = 0
    max_labels: int = 0
    label_bound: int = 0
    rel_bound_base: int = 0
    bound_violations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Provable:
    derivation: Derivation
    stats: SearchStats


@dataclass(frozen=True)
class Unprovable:
    stable: LabelledSequent
    stats: SearchStats


ProveResult = Provable | Unprovable


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def _complementary_pair(s: LabelledSequent) -> LabelledFormula | None:
    """Some ``w: f`` whose negation ``w: ~f`` is in the sequent too."""
    return next(
        (lf for lf in s.forms if s.has_form(lf.label, negate(lf.formula))), None
    )


def is_stable(s: LabelledSequent, n: int) -> bool:
    """No complementary pair at any label, and no instruction fires."""
    return _complementary_pair(s) is None and _step(s, n) is None


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------

_AGENT = 1  # the search handles exactly one agent

# An open inference; the module docstring lists its fields.
_Frame = tuple[
    LabelledSequent, RuleTag, dict, tuple[LabelledSequent, ...], list[Derivation], int
]


def prove(cfg: ProverConfig, goal: Formula) -> ProveResult:
    """Decide the goal, returning a checkable derivation or a stable sequent.

    The goal may only mention agent 1.  ``Provable`` results carry a
    derivation that passes the refined-mode checker; ``Unprovable`` results
    carry a stable sequent from which a counter-model can be read off.
    """
    bad_agents = set(agents_of(goal)) - {_AGENT}
    if bad_agents:
        raise ValueError(
            f"proof search is single-agent; goal mentions agents {sorted(bad_agents)}"
        )
    occurrences = subformulae(goal)
    boxes = sum(1 for f in occurrences if isinstance(f, Box))
    agboxes = sum(1 for f in occurrences if isinstance(f, AgBox))
    stats = SearchStats(
        label_bound=(1 + boxes) * (1 + agboxes),
        rel_bound_base=agboxes * (1 + boxes),
    )
    stack: list[_Frame] = []
    current = LabelledSequent(forms=[LabelledFormula(0, goal)])
    edges = 0
    while True:
        _note(cfg, stats, current, edges)
        step = _step(current, cfg.choices)
        if step is None:
            # 2. nothing fires, so the sequent is stable — refutation found
            pair = _complementary_pair(current)
            if pair is not None:
                raise InternalInvariantError(
                    f"complementary pair at w{pair.label} of the sequent "
                    f"no instruction applies to: {current.show()}"
                )
            return Unprovable(current, stats)

        rule, principal, premises = step
        if rule is RuleTag.APC:
            trees = len(components(current))
            for premise in premises:
                if len(components(premise)) != trees - 1:
                    raise InternalInvariantError(
                        "joining two roots must reduce the choice-tree "
                        f"count by one: {premise.show()}"
                    )
            edges += 1
        stats.steps += 1
        if cfg.max_steps is not None and stats.steps > cfg.max_steps:
            raise SearchLimitExceeded(f"step cap {cfg.max_steps} exceeded")
        if premises:
            stack.append((current, rule, principal, premises, [], edges))
            current = premises[0]
            continue

        # 1. the branch closes: pop every inference it finishes, then
        # search the first premise still open
        closed = Derivation(current, rule, principal)
        while stack:
            conclusion, rule, principal, premises, done, edges = stack[-1]
            done.append(closed)
            if len(done) < len(premises):
                current = premises[len(done)]
                break
            stack.pop()
            closed = Derivation(conclusion, rule, principal, tuple(done))
        else:
            return Provable(closed, stats)


def _step(
    s: LabelledSequent, n: int
) -> tuple[RuleTag, dict, tuple[LabelledSequent, ...]] | None:
    """The first of instructions 1 and 3-8 that fires on ``s`` at choice
    bound ``n``: its rule, its principal data and its premises (none for a
    clash, one per case for the splits of 3(ii) and 8)."""
    scan = [(w, f) for w in s.labels() for f in s.forms_at(w)]

    # 1. atomic clash
    for w, f in scan:
        if isinstance(f, (Atom, NegAtom)) and s.has_form(w, negate(f)):
            return RuleTag.ID, {"label": w, "atom": f.name}, ()

    # 3(i). disjunction missing a disjunct
    for w, f in scan:
        if isinstance(f, Or) and not (s.has_form(w, f.left) and s.has_form(w, f.right)):
            both = [LabelledFormula(w, f.left), LabelledFormula(w, f.right)]
            return RuleTag.OR, {"label": w, "formula": f}, (s.extended(forms=both),)

    # 3(ii). conjunction with neither conjunct — case split
    for w, f in scan:
        if isinstance(f, And) and not (s.has_form(w, f.left) or s.has_form(w, f.right)):
            premises = tuple(
                s.extended(forms=[LabelledFormula(w, part)])
                for part in (f.left, f.right)
            )
            return RuleTag.AND, {"label": w, "formula": f}, premises

    # 4. agentive diamond not yet propagated through its choice-tree
    for w, f in scan:
        if isinstance(f, AgDia):
            members = sorted(tree_of(s, w))
            u = next((u for u in members if not s.has_form(u, f.body)), None)
            if u is not None:
                principal = {"agent": _AGENT, "label": w, "formula": f, "witness": u}
                premise = s.extended(forms=[LabelledFormula(u, f.body)])
                return RuleTag.PROP, principal, (premise,)

    # 5. settledness diamond not yet propagated everywhere
    for w, f in scan:
        if isinstance(f, Dia):
            u = next((u for u in s.labels() if not s.has_form(u, f.body)), None)
            if u is not None:
                principal = {"label": w, "formula": f, "witness": u}
                premise = s.extended(forms=[LabelledFormula(u, f.body)])
                return RuleTag.DIA, principal, (premise,)

    # 6. unrealized agentive box — fresh choice-tree mate
    for w, f in scan:
        if isinstance(f, AgBox) and not any(
            s.has_form(u, f.body) for u in tree_of(s, w)
        ):
            v = fresh_label(s)
            principal = {"agent": _AGENT, "label": w, "formula": f, "fresh": v}
            premise = s.extended(
                rel=[RelAtom(_AGENT, w, v)], forms=[LabelledFormula(v, f.body)]
            )
            return RuleTag.AGBOX, principal, (premise,)

    # 7. unrealized settledness box — fresh label
    for w, f in scan:
        if isinstance(f, Box) and not any(s.has_form(u, f.body) for u in s.labels()):
            v = fresh_label(s)
            principal = {"label": w, "formula": f, "fresh": v}
            premise = s.extended(forms=[LabelledFormula(v, f.body)])
            return RuleTag.BOX, principal, (premise,)

    # 8. too many choice-trees — join roots pairwise, case per pair
    trees = choice_trees(s) if n > 0 else ()
    if len(trees) > n:
        roots = tuple(t.root for t in trees[: n + 1])
        premises = tuple(
            s.extended(rel=[RelAtom(_AGENT, roots[k], roots[j])])
            for k in range(n)
            for j in range(k + 1, n + 1)
        )
        return RuleTag.APC, {"agent": _AGENT, "roots": roots}, premises

    return None


def _note(
    cfg: ProverConfig, stats: SearchStats, s: LabelledSequent, apc_edges: int
) -> None:
    """Record sizes, monitor the proved bounds, hard-check shape."""
    labels = len(s.labels())
    stats.max_labels = max(stats.max_labels, labels)
    if not is_forestlike(s):
        raise InternalInvariantError(f"sequent is not forestlike: {s.show()}")
    if labels > stats.label_bound:
        _record(stats, f"label bound exceeded: {labels} labels > {stats.label_bound}")
    rel_bound = stats.rel_bound_base + apc_edges
    if len(s.rel) > rel_bound:
        _record(stats, f"relational bound exceeded: {len(s.rel)} atoms > {rel_bound}")
    if cfg.max_labels is not None and labels > cfg.max_labels:
        raise SearchLimitExceeded(
            f"label cap {cfg.max_labels} exceeded ({labels} labels)"
        )


def _record(stats: SearchStats, message: str) -> None:
    """Append one bound excess, once: the list is its own set of seen ones."""
    if message not in stats.bound_violations:
        stats.bound_violations.append(message)
