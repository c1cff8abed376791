"""Backward proof search deciding validity for the single-agent logics.

The procedure works on a growing labelled sequent, applying the first
instruction of the following priority list that fires (scanning labels in
ascending order and formulas in insertion order, for reproducibility):

1. an atomic clash ``w:p, w:~p`` closes the branch (rule ``id``);
2. when no other instruction fires, the sequent is *stable* — saturated,
   realized, propagated, and within the choice bound — so it refutes the
   goal and is returned as a counter-model seed;
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

Instruction 2 is the fall-through: the loop reaches it when 1 and 3-8 do
not fire.  Each of 3-8 fires exactly when its clause of ``is_stable`` fails
(3 saturation of ``|`` and ``&``, 4-5 propagation, 6-7 realization, 8 the
choice bound).  The one clause left, "no complementary pair at a label",
follows by induction on the formula: where nothing fires, ``f & g`` against
``~f | ~g`` leaves ``~f``, ``~g`` and one of ``f, g`` at the label; ``box f``
against ``dia ~f`` leaves ``f`` at some ``u`` and ``~f`` at every label;
``[1] f`` against ``<1> ~f`` does the same within a choice tree.  So a
compound pair implies an atomic clash, which instruction 1 would have
closed.  The search still asserts ``is_stable`` at the leaf it returns.

Blocking conditions (the stability predicates below) ensure each instruction
fires at most once per trigger, which gives termination.  Successful
branches are folded into a refined-mode derivation via the step-to-rule
correspondence; failed branches surface the stable sequent itself.

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
from typing import Sequence

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
# Stability predicates
# ---------------------------------------------------------------------------


def is_saturated(s: LabelledSequent, w: int) -> bool:
    """No complementary pair at ``w``; disjunctions have both disjuncts;
    conjunctions have at least one conjunct."""
    for f in s.forms_at(w):
        if s.has_form(w, negate(f)):
            return False
        match f:
            case Or(left, right):
                if not (s.has_form(w, left) and s.has_form(w, right)):
                    return False
            case And(left, right):
                if not (s.has_form(w, left) or s.has_form(w, right)):
                    return False
    return True


def is_box_realized(s: LabelledSequent, w: int) -> bool:
    """Every ``w:box f`` has some label carrying ``f``."""
    labels = s.labels()
    return all(
        any(s.has_form(u, f.body) for u in labels)
        for f in s.forms_at(w)
        if isinstance(f, Box)
    )


def is_agbox_realized(s: LabelledSequent, w: int) -> bool:
    """Every ``w:[1]f`` has some label in ``w``'s choice-tree carrying ``f``."""
    members: frozenset[int] | None = None
    for f in s.forms_at(w):
        if isinstance(f, AgBox):
            if members is None:
                members = tree_of(s, w)
            if not any(s.has_form(u, f.body) for u in members):
                return False
    return True


def is_dia_propagated(s: LabelledSequent, w: int) -> bool:
    """Every ``w:dia f`` has ``f`` at *all* labels."""
    labels = s.labels()
    return all(
        all(s.has_form(u, f.body) for u in labels)
        for f in s.forms_at(w)
        if isinstance(f, Dia)
    )


def is_agdia_propagated(s: LabelledSequent, w: int) -> bool:
    """Every ``w:<1>f`` has ``f`` at all labels of ``w``'s choice-tree."""
    members: frozenset[int] | None = None
    for f in s.forms_at(w):
        if isinstance(f, AgDia):
            if members is None:
                members = tree_of(s, w)
            if not all(s.has_form(u, f.body) for u in members):
                return False
    return True


def is_n_choice_consistent(s: LabelledSequent, n: int) -> bool:
    """At most ``n`` choice-trees.  Callers skip this check when n = 0."""
    return len(choice_trees(s)) <= n


def is_stable(s: LabelledSequent, n: int) -> bool:
    """Saturated, realized, and propagated everywhere; within the
    choice-tree budget when ``n`` is positive."""
    for w in s.labels():
        if not (
            is_saturated(s, w)
            and is_box_realized(s, w)
            and is_agbox_realized(s, w)
            and is_dia_propagated(s, w)
            and is_agdia_propagated(s, w)
        ):
            return False
    return n == 0 or is_n_choice_consistent(s, n)


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------

_AGENT = 1  # the search handles exactly one agent


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
    root = LabelledSequent(forms=[LabelledFormula(0, goal)])
    searcher = _Searcher(cfg, stats)
    searcher.note(root, apc_edges=0)
    outcome = searcher.search(root, apc_edges=0)
    if isinstance(outcome, LabelledSequent):
        return Unprovable(outcome, stats)
    return Provable(outcome, stats)


def _fire(
    s: LabelledSequent, scan: list[tuple[int, Formula]]
) -> tuple[RuleTag, dict, tuple[LabelledSequent, ...]] | None:
    """The first of instructions 3-7 that fires on ``s``: its rule, its
    principal data and its premises (two for the case split of 3(ii))."""
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

    return None


class _Searcher:
    """One proof-search run: configuration, statistics, bound monitoring."""

    def __init__(self, cfg: ProverConfig, stats: SearchStats) -> None:
        self.cfg = cfg
        self.stats = stats
        self._seen_violations: set[str] = set()

    # -- bookkeeping --------------------------------------------------------

    def note(self, s: LabelledSequent, apc_edges: int) -> None:
        """Record sizes, monitor the theoretical bounds, hard-check shape."""
        stats = self.stats
        labels = s.labels()
        stats.max_labels = max(stats.max_labels, len(labels))
        if not is_forestlike(s):
            raise InternalInvariantError(f"sequent is not forestlike: {s.show()}")
        if len(labels) > stats.label_bound:
            self._record(
                f"label bound exceeded: {len(labels)} labels > {stats.label_bound}"
            )
        rel_bound = stats.rel_bound_base + apc_edges
        if len(s.rel) > rel_bound:
            self._record(
                f"relational bound exceeded: {len(s.rel)} atoms > {rel_bound}"
            )
        if self.cfg.max_labels is not None and len(labels) > self.cfg.max_labels:
            raise SearchLimitExceeded(
                f"label cap {self.cfg.max_labels} exceeded ({len(labels)} labels)"
            )

    def _record(self, message: str) -> None:
        if message not in self._seen_violations:
            self._seen_violations.add(message)
            self.stats.bound_violations.append(message)

    def _tick(self) -> None:
        self.stats.steps += 1
        if self.cfg.max_steps is not None and self.stats.steps > self.cfg.max_steps:
            raise SearchLimitExceeded(f"step cap {self.cfg.max_steps} exceeded")

    # -- the instruction loop ----------------------------------------------

    def search(
        self, s: LabelledSequent, apc_edges: int
    ) -> Derivation | LabelledSequent:
        """Run the priority loop; recurse at case splits.

        Returns a derivation when every branch closes, otherwise the stable
        sequent found on the first failing branch.
        """
        trail: list[tuple[LabelledSequent, RuleTag, dict]] = []
        current = s

        def fold(top: Derivation) -> Derivation:
            for concl, rule, principal in reversed(trail):
                top = Derivation(concl, rule, principal, (top,))
            return top

        def split(
            rule: RuleTag,
            principal: dict,
            premises: Sequence[LabelledSequent],
            edges: int,
        ) -> Derivation | LabelledSequent:
            self._tick()
            subderivs = []
            for premise in premises:
                self.note(premise, edges)
                outcome = self.search(premise, edges)
                if isinstance(outcome, LabelledSequent):
                    return outcome
                subderivs.append(outcome)
            return fold(Derivation(current, rule, principal, tuple(subderivs)))

        while True:
            scan = [(w, f) for w in current.labels() for f in current.forms_at(w)]

            # 1. atomic clash
            clash = next(
                (
                    (w, f.name)
                    for w, f in scan
                    if isinstance(f, (Atom, NegAtom))
                    and current.has_form(w, negate(f))
                ),
                None,
            )
            if clash is not None:
                self._tick()
                w, name = clash
                leaf = Derivation(current, RuleTag.ID, {"label": w, "atom": name})
                return fold(leaf)

            # 3-7. one premise extends the sequent; 3(ii) splits in two
            fired = _fire(current, scan)
            if fired is not None:
                rule, principal, premises = fired
                if rule is RuleTag.AND:
                    return split(rule, principal, premises, apc_edges)
                self._tick()
                trail.append((current, rule, principal))
                (current,) = premises
                self.note(current, apc_edges)
                continue

            # 8. too many choice-trees — join roots pairwise, case per pair
            n = self.cfg.choices
            trees = choice_trees(current) if n > 0 else ()
            if len(trees) > n:
                roots = tuple(t.root for t in trees[: n + 1])
                premises = [
                    current.extended(rel=[RelAtom(_AGENT, roots[k], roots[j])])
                    for k in range(n)
                    for j in range(k + 1, n + 1)
                ]
                for premise in premises:
                    if len(components(premise)) != len(trees) - 1:
                        raise InternalInvariantError(
                            "joining two roots must reduce the choice-tree "
                            f"count by one: {premise.show()}"
                        )
                principal = {"agent": _AGENT, "roots": roots}
                return split(RuleTag.APC, principal, premises, apc_edges + 1)

            # 2. nothing fires, so the sequent is stable — refutation found
            if not is_stable(current, n):
                raise InternalInvariantError(
                    f"no instruction applies to the unstable sequent {current.show()}"
                )
            return current
