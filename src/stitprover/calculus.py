"""Inference rules, derivations, and the certificate checker.

Two backward calculi over labelled sequents share most rules:

* the *ground* calculus (``Mode.G3``) carries explicit structural rules —
  reflexivity, euclideanness, the agentive diamond rule that consumes an
  existing relational atom — and its agentive-box rule **discards** the
  principal formula in the premise;
* the *refined* calculus (``Mode.REFINED``) drops the structural rules in
  favour of a propagation rule guarded by automaton reachability, and its
  agentive-box rule **keeps** the principal formula.

Each rule is stated once, in ``_additions``, as side conditions plus
additions: given the conclusion and the principal data, it checks the
conditions and returns the sequent the premises extend (the conclusion, or
for the G3 agentive box the conclusion less its principal formula) and what
each premise adds, relational atoms and labelled formulas.  A node's stored
premises must equal those extensions as a multiset, so a certificate cannot
smuggle in or lose formulas: each premise is compared with its extension in
premise order, by set algebra on the stored sets, and only if that fails
are they compared as a multiset.  Rules with an eigenvariable require the new
label to be absent from the conclusion.  Well-formedness (every agent in
``1..m``) is checked once per call, on the root; ``check_derivation`` says
why that covers every node.

Principal data is a plain dict whose keys depend on the rule:

====== ==========================================
id     label, atom
and    label, formula
or     label, formula
box    label, formula, fresh
dia    label, formula, witness
agbox  agent, label, formula, fresh
agdia  agent, label, formula, witness   (G3 only)
prop   agent, label, formula, witness   (refined only)
refl   agent, label                     (G3 only)
eucl   agent, apex, source, target      (G3 only)
ioa    targets, fresh
apc    agent, roots
====== ==========================================

The checker is a loop, so a derivation of any depth is checked; its JSON
form, the certificate, is `stitprover.wire`'s.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Any, Mapping, NoReturn, Sequence

from .formula import AgBox, AgDia, And, Atom, Box, Dia, Formula, NegAtom, Or
from .formula import agents_of, pretty
from .sequent import Label, LabelledFormula, LabelledSequent, RelAtom, components

class Mode(Enum):
    G3 = "g3"
    REFINED = "refined"
    __hash__ = object.__hash__  # in C, not `Enum`'s in Python: hashed per node


class RuleTag(Enum):
    ID = "id"
    AND = "and"
    OR = "or"
    BOX = "box"
    DIA = "dia"
    AGBOX = "agbox"
    AGDIA = "agdia"
    PROP = "prop"
    REFL = "refl"
    EUCL = "eucl"
    IOA = "ioa"
    APC = "apc"
    __hash__ = object.__hash__  # as `Mode`'s


_ALLOWED = {
    Mode.G3: frozenset(RuleTag) - {RuleTag.PROP},
    Mode.REFINED: frozenset(RuleTag) - {RuleTag.AGDIA, RuleTag.REFL, RuleTag.EUCL},
}


@dataclass(frozen=True)
class CalculusConfig:
    agents: int = 1
    choices: int = 0
    mode: Mode = Mode.REFINED

    def __post_init__(self) -> None:
        if self.agents < 1:
            raise ValueError("at least one agent is required")
        if self.choices < 0:
            raise ValueError("the choice bound cannot be negative")


@dataclass(frozen=True)
class Derivation:
    conclusion: LabelledSequent
    rule: RuleTag
    principal: Mapping[str, Any] = field(default_factory=dict)
    premises: tuple["Derivation", ...] = ()

    def size(self) -> int:
        """The number of inferences in the tree, counted without recursion."""
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().premises)
        return count


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    error: str | None = None
    path: str | None = None


# ---------------------------------------------------------------------------
# The side condition of the propagation rule
# ---------------------------------------------------------------------------


def side_condition_holds(
    s: LabelledSequent, agent: int, start: Label, end: Label
) -> bool:
    """Does the automaton from ``start`` to ``end`` accept a word in ``<agent>*``?

    For labels ``w, u`` of a sequent, the propagation automaton reads words
    over the alphabet of agentive diamonds and has one state per label.
    Every relational atom ``R_i v v'`` contributes *two* transitions,
    ``v -> v'`` and ``v' -> v`` on letter ``i``: the relations are
    interpreted over equivalence classes, so propagation may travel either
    way along an edge.

    The side condition of the propagation rule for agent ``i`` asks whether
    the automaton from ``w`` to ``u`` accepts some word in ``<i>*`` —
    including the empty word, so ``w == u`` always qualifies.  That language
    check reduces to reachability using ``i``-transitions only: ``w`` and
    ``u`` lie in one component of the sequent graph restricted to agent
    ``i``'s atoms.
    """
    labels = s.labels()
    if start not in labels or end not in labels:
        raise ValueError(f"labels w{start}, w{end} must occur in the sequent")
    return any(start in block and end in block for block in components(s, agent))


# ---------------------------------------------------------------------------
# Single-inference checking
# ---------------------------------------------------------------------------


def check_inference(cfg: CalculusConfig, node: Derivation) -> CheckResult:
    """Validate one inference: the node's conclusion is well formed and its
    premises are the conclusion extended by the rule's additions."""
    try:
        _check_sequent_wellformed(cfg, node.conclusion)
        _check_node(cfg, node)
    except _RuleViolation as bad:
        return CheckResult(False, str(bad))
    return CheckResult(True)


def check_derivation(cfg: CalculusConfig, root: Derivation) -> CheckResult:
    """Validate every inference of a derivation tree, reporting the first
    offender by its path from the root.

    Well-formedness (every agent in ``1..m``) is checked on the root alone,
    and that covers every node:

    * every other conclusion must equal its parent's conclusion (less the
      principal formula, for the G3 agentive box) plus the rule's additions;
    * those additions are parts of a principal formula the parent carries,
      or relational atoms of an agent already in range: the agent of that
      formula or of an atom the parent carries, one checked against ``m``,
      or each of ``1..m`` for the independence rule;
    * parents are checked before their premises, so an ill-formed inner
      conclusion fails its parent's premise comparison, and the first
      offender and its path are those of a walk that checks every node.
    """
    try:
        _check_sequent_wellformed(cfg, root.conclusion)
    except _RuleViolation as bad:
        return CheckResult(False, str(bad), "root")
    stack: list[tuple[Derivation, str]] = [(root, "root")]
    while stack:
        node, path = stack.pop()
        try:
            _check_node(cfg, node)
        except _RuleViolation as bad:
            return CheckResult(False, str(bad), path)
        for i, premise in enumerate(node.premises):
            stack.append((premise, f"{path}.premises[{i}]"))
    return CheckResult(True)


class _RuleViolation(Exception):
    pass


def _fail(message: str) -> NoReturn:
    raise _RuleViolation(message)


def _want(principal: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in principal:
        _fail(f"principal data is missing {key!r}")
    value = principal[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        _fail(f"principal entry {key!r} should be a {kind.__name__}")
    return value


def _want_label_tuple(principal: Mapping[str, Any], key: str) -> tuple[int, ...]:
    if key not in principal:
        _fail(f"principal data is missing {key!r}")
    value = principal[key]
    if not isinstance(value, tuple) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        _fail(f"principal entry {key!r} should be a tuple of labels")
    return value


def _check_sequent_wellformed(cfg: CalculusConfig, s: LabelledSequent) -> None:
    for atom in s.rel:
        if not 1 <= atom.agent <= cfg.agents:
            _fail(f"relational atom uses agent {atom.agent}, but m={cfg.agents}")
    for _, f in s.forms:
        for agent in agents_of(f):
            if not 1 <= agent <= cfg.agents:
                _fail(f"formula {pretty(f)} uses agent {agent}, but m={cfg.agents}")


def _check_node(cfg: CalculusConfig, node: Derivation) -> None:
    """One inference: the rule's side conditions, then its premises against
    the extensions that ``_additions`` prescribes, in order, else as a multiset."""
    if node.rule not in _ALLOWED[cfg.mode]:
        _fail(f"rule {node.rule.value} is not part of the {cfg.mode.value} calculus")
    base, additions = _additions(cfg, node.conclusion, node.rule, node.principal)
    if len(node.premises) != len(additions):
        _fail(
            f"rule {node.rule.value} expects {len(additions)} premise(s), "
            f"found {len(node.premises)}"
        )
    held_rel, held_forms = base._rel_set, base._forms_set
    for premise, (rel, forms) in zip(node.premises, additions):
        s = premise.conclusion
        if s._forms_set != held_forms.union(forms) or s._rel_set != held_rel.union(rel):
            break
    else:
        return
    expected = Counter(base.changed(rel, forms) for rel, forms in additions)
    if Counter(p.conclusion for p in node.premises) != expected:
        _fail(f"premises do not match the additions of rule {node.rule.value}")


# What one premise adds: relational atoms, then labelled formulas.
_Addition = tuple[Sequence[RelAtom], Sequence[LabelledFormula]]


def _additions(
    cfg: CalculusConfig,
    concl: LabelledSequent,
    rule: RuleTag,
    principal: Mapping[str, Any],
) -> tuple[LabelledSequent, list[_Addition]]:
    """The one statement of each rule.  Check the side conditions of ``rule``
    with ``principal`` on ``concl``, then return the sequent its premises
    extend (``concl``, or ``concl`` less ``w: [i] f`` for the G3 agentive
    box) and what each premise adds to it, in premise order."""
    match rule:
        case RuleTag.ID:
            w = _want(principal, "label", int)
            name = _want(principal, "atom", str)
            if not concl.has_form(w, Atom(name)) or not concl.has_form(w, NegAtom(name)):
                _fail(f"conclusion lacks the clash w{w}:{name}, w{w}:~{name}")
            return concl, []

        case RuleTag.AND:
            w, f = _principal_formula(principal, concl, And)
            return concl, [
                ((), [LabelledFormula(w, f.left)]),
                ((), [LabelledFormula(w, f.right)]),
            ]

        case RuleTag.OR:
            w, f = _principal_formula(principal, concl, Or)
            return concl, [
                ((), [LabelledFormula(w, f.left), LabelledFormula(w, f.right)])
            ]

        case RuleTag.BOX:
            _, f = _principal_formula(principal, concl, Box)
            v = _fresh(principal, concl)
            return concl, [((), [LabelledFormula(v, f.body)])]

        case RuleTag.DIA:
            _, f = _principal_formula(principal, concl, Dia)
            u = _witness(principal, concl)
            return concl, [((), [LabelledFormula(u, f.body)])]

        case RuleTag.AGBOX:
            w, f = _principal_formula(principal, concl, AgBox)
            v = _fresh(principal, concl)
            base = concl
            if cfg.mode is not Mode.REFINED:
                base = concl.changed(lost_forms=[LabelledFormula(w, f)])
            return base, [([RelAtom(f.agent, w, v)], [LabelledFormula(v, f.body)])]

        case RuleTag.AGDIA:
            w, f = _principal_formula(principal, concl, AgDia)
            u = _want(principal, "witness", int)
            if not concl.has_rel(RelAtom(f.agent, w, u)):
                _fail(f"conclusion lacks the relational atom R_{f.agent} w{w} w{u}")
            return concl, [((), [LabelledFormula(u, f.body)])]

        case RuleTag.PROP:
            w, f = _principal_formula(principal, concl, AgDia)
            u = _witness(principal, concl)
            if not side_condition_holds(concl, f.agent, w, u):
                _fail(
                    f"propagation side condition fails: no <{f.agent}>* word "
                    f"from w{w} to w{u}"
                )
            return concl, [((), [LabelledFormula(u, f.body)])]

        case RuleTag.REFL:
            agent = _want(principal, "agent", int)
            w = _want(principal, "label", int)
            if not 1 <= agent <= cfg.agents:
                _fail(f"agent {agent} out of range 1..{cfg.agents}")
            return concl, [([RelAtom(agent, w, w)], ())]

        case RuleTag.EUCL:
            agent = _want(principal, "agent", int)
            apex, source, target = (
                _want(principal, key, int) for key in ("apex", "source", "target")
            )
            for end in (source, target):
                if not concl.has_rel(RelAtom(agent, apex, end)):
                    _fail(f"conclusion lacks R_{agent} w{apex} w{end}")
            return concl, [([RelAtom(agent, source, target)], ())]

        case RuleTag.IOA:
            targets = _want_label_tuple(principal, "targets")
            if len(targets) != cfg.agents:
                _fail(
                    f"independence rule needs one target per agent "
                    f"({cfg.agents}), found {len(targets)}"
                )
            v = _fresh(principal, concl, *targets)
            return concl, [
                ([RelAtom(agent, t, v) for agent, t in enumerate(targets, 1)], ())
            ]

        case RuleTag.APC:
            agent = _want(principal, "agent", int)
            roots = _want_label_tuple(principal, "roots")
            n = cfg.choices
            if n < 1:
                _fail("the choice rule is absent when the bound n is 0")
            if not 1 <= agent <= cfg.agents:
                _fail(f"agent {agent} out of range 1..{cfg.agents}")
            if len(roots) != n + 1:
                _fail(f"the choice rule needs n+1 = {n + 1} labels, found {len(roots)}")
            pairs = combinations(roots, 2)
            return concl, [([RelAtom(agent, u, v)], ()) for u, v in pairs]

    _fail(f"unknown rule tag {rule!r}")


def _principal_formula(
    principal: Mapping[str, Any], concl: LabelledSequent, kind: type
) -> tuple[Label, Formula]:
    """The principal ``w: f``: ``f`` of class ``kind``, carried by the
    conclusion, and naming the principal ``agent`` when ``kind`` does."""
    agentive = kind in (AgBox, AgDia)
    agent = _want(principal, "agent", int) if agentive else None
    w = _want(principal, "label", int)
    f = _want(principal, "formula", kind)
    if agentive and f.agent != agent:
        _fail("principal agent does not match the formula")
    if not concl.has_form(w, f):
        _fail(f"principal formula at w{w} is not in the conclusion")
    return w, f


def _fresh(
    principal: Mapping[str, Any], concl: LabelledSequent, *taken: Label
) -> Label:
    """The eigenvariable: a label neither in the conclusion nor ``taken``."""
    v = _want(principal, "fresh", int)
    if v in concl.labels() or v in taken:
        _fail(f"eigenvariable w{v} is not fresh")
    return v


def _witness(principal: Mapping[str, Any], concl: LabelledSequent) -> Label:
    """The witness: a label of the conclusion."""
    u = _want(principal, "witness", int)
    if u not in concl.labels():
        _fail(f"witness w{u} does not occur in the conclusion")
    return u
