"""Inference rules, derivations, and the certificate checker.

Two backward calculi over labelled sequents share most rules:

* the *ground* calculus (``Mode.G3``) carries explicit structural rules —
  reflexivity, euclideanness, the agentive diamond rule that consumes an
  existing relational atom — and its agentive-box rule **discards** the
  principal formula in the premise;
* the *refined* calculus (``Mode.REFINED``) drops the structural rules in
  favour of a propagation rule guarded by automaton reachability, and its
  agentive-box rule **keeps** the principal formula.

Premises are matched by exact set equality against the conclusion extended
with the rule's additions, so a certificate cannot smuggle in or lose
formulas.  Rules marked with an eigenvariable require the new label to be
absent from the conclusion.

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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .formula import AgBox, AgDia, And, Atom, Box, Dia, Formula, NegAtom, Or
from .formula import agents_of, parse, pretty
from .sequent import (
    Label,
    LabelledFormula,
    LabelledSequent,
    RelAtom,
    components,
    sequent_from_json,
    sequent_to_json,
)


class Mode(Enum):
    G3 = "g3"
    REFINED = "refined"


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


_ALLOWED = {
    Mode.G3: frozenset(
        {
            RuleTag.ID,
            RuleTag.AND,
            RuleTag.OR,
            RuleTag.BOX,
            RuleTag.DIA,
            RuleTag.AGBOX,
            RuleTag.AGDIA,
            RuleTag.REFL,
            RuleTag.EUCL,
            RuleTag.IOA,
            RuleTag.APC,
        }
    ),
    Mode.REFINED: frozenset(
        {
            RuleTag.ID,
            RuleTag.AND,
            RuleTag.OR,
            RuleTag.BOX,
            RuleTag.DIA,
            RuleTag.AGBOX,
            RuleTag.PROP,
            RuleTag.IOA,
            RuleTag.APC,
        }
    ),
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
    """Validate one inference: the node's premises against its conclusion."""
    try:
        _check_node(cfg, node)
    except _RuleViolation as bad:
        return CheckResult(False, str(bad))
    return CheckResult(True)


def check_derivation(cfg: CalculusConfig, root: Derivation) -> CheckResult:
    """Validate every inference of a derivation tree, reporting the first
    offender by its path from the root."""
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


def _fail(message: str) -> None:
    raise _RuleViolation(message)


def _want(principal: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in principal:
        _fail(f"principal data is missing {key!r}")
    value = principal[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        _fail(f"principal entry {key!r} should be a {kind.__name__}")
    return value


def _check_sequent_wellformed(cfg: CalculusConfig, s: LabelledSequent) -> None:
    for atom in s.rel:
        if not 1 <= atom.agent <= cfg.agents:
            _fail(f"relational atom uses agent {atom.agent}, but m={cfg.agents}")
    for _, f in s.forms:
        for agent in agents_of(f):
            if not 1 <= agent <= cfg.agents:
                _fail(f"formula {pretty(f)} uses agent {agent}, but m={cfg.agents}")


def _premise_seqs(node: Derivation, count: int) -> list[LabelledSequent]:
    if len(node.premises) != count:
        _fail(
            f"rule {node.rule.value} expects {count} premise(s), "
            f"found {len(node.premises)}"
        )
    return [p.conclusion for p in node.premises]


def _check_node(cfg: CalculusConfig, node: Derivation) -> None:
    if node.rule not in _ALLOWED[cfg.mode]:
        _fail(f"rule {node.rule.value} is not part of the {cfg.mode.value} calculus")
    _check_sequent_wellformed(cfg, node.conclusion)

    concl = node.conclusion
    principal = node.principal
    labels = set(concl.labels())

    match node.rule:
        case RuleTag.ID:
            w = _want(principal, "label", int)
            name = _want(principal, "atom", str)
            _premise_seqs(node, 0)
            if not concl.has_form(w, Atom(name)) or not concl.has_form(w, NegAtom(name)):
                _fail(f"conclusion lacks the clash w{w}:{name}, w{w}:~{name}")

        case RuleTag.AND:
            w = _want(principal, "label", int)
            f = _want(principal, "formula", And)
            premises = _premise_seqs(node, 2)
            if not concl.has_form(w, f):
                _fail("principal conjunction is not in the conclusion")
            expected = [
                concl.extended(forms=[LabelledFormula(w, f.left)]),
                concl.extended(forms=[LabelledFormula(w, f.right)]),
            ]
            if Counter(premises) != Counter(expected):
                _fail("premises do not match the two conjunct extensions")

        case RuleTag.OR:
            w = _want(principal, "label", int)
            f = _want(principal, "formula", Or)
            (premise,) = _premise_seqs(node, 1)
            if not concl.has_form(w, f):
                _fail("principal disjunction is not in the conclusion")
            expected = concl.extended(
                forms=[LabelledFormula(w, f.left), LabelledFormula(w, f.right)]
            )
            if premise != expected:
                _fail("premise must add exactly both disjuncts")

        case RuleTag.BOX:
            w = _want(principal, "label", int)
            f = _want(principal, "formula", Box)
            v = _want(principal, "fresh", int)
            (premise,) = _premise_seqs(node, 1)
            if not concl.has_form(w, f):
                _fail("principal box formula is not in the conclusion")
            if v in labels:
                _fail(f"eigenvariable w{v} already occurs in the conclusion")
            if premise != concl.extended(forms=[LabelledFormula(v, f.body)]):
                _fail("premise must add exactly the fresh instance of the body")

        case RuleTag.DIA:
            w = _want(principal, "label", int)
            f = _want(principal, "formula", Dia)
            u = _want(principal, "witness", int)
            (premise,) = _premise_seqs(node, 1)
            if not concl.has_form(w, f):
                _fail("principal diamond formula is not in the conclusion")
            if u not in labels:
                _fail(f"witness w{u} does not occur in the conclusion")
            if premise != concl.extended(forms=[LabelledFormula(u, f.body)]):
                _fail("premise must add exactly the witnessed body")

        case RuleTag.AGBOX:
            agent = _want(principal, "agent", int)
            w = _want(principal, "label", int)
            f = _want(principal, "formula", AgBox)
            v = _want(principal, "fresh", int)
            (premise,) = _premise_seqs(node, 1)
            if f.agent != agent:
                _fail("principal agent does not match the formula")
            if not concl.has_form(w, f):
                _fail("principal agentive box is not in the conclusion")
            if v in labels:
                _fail(f"eigenvariable w{v} already occurs in the conclusion")
            base = concl if cfg.mode is Mode.REFINED else concl.without_form(w, f)
            expected = base.extended(
                rel=[RelAtom(agent, w, v)], forms=[LabelledFormula(v, f.body)]
            )
            if premise != expected:
                _fail("premise does not match the agentive box shape for this mode")

        case RuleTag.AGDIA:
            agent = _want(principal, "agent", int)
            w = _want(principal, "label", int)
            f = _want(principal, "formula", AgDia)
            u = _want(principal, "witness", int)
            (premise,) = _premise_seqs(node, 1)
            if f.agent != agent:
                _fail("principal agent does not match the formula")
            if not concl.has_form(w, f):
                _fail("principal agentive diamond is not in the conclusion")
            if not concl.has_rel(RelAtom(agent, w, u)):
                _fail(f"conclusion lacks the relational atom R_{agent} w{w} w{u}")
            if premise != concl.extended(forms=[LabelledFormula(u, f.body)]):
                _fail("premise must add exactly the witnessed body")

        case RuleTag.PROP:
            agent = _want(principal, "agent", int)
            w = _want(principal, "label", int)
            f = _want(principal, "formula", AgDia)
            u = _want(principal, "witness", int)
            (premise,) = _premise_seqs(node, 1)
            if f.agent != agent:
                _fail("principal agent does not match the formula")
            if not concl.has_form(w, f):
                _fail("principal agentive diamond is not in the conclusion")
            if u not in labels:
                _fail(f"witness w{u} does not occur in the conclusion")
            if not side_condition_holds(concl, agent, w, u):
                _fail(
                    f"propagation side condition fails: no <{agent}>* word "
                    f"from w{w} to w{u}"
                )
            if premise != concl.extended(forms=[LabelledFormula(u, f.body)]):
                _fail("premise must add exactly the propagated body")

        case RuleTag.REFL:
            agent = _want(principal, "agent", int)
            w = _want(principal, "label", int)
            (premise,) = _premise_seqs(node, 1)
            if not 1 <= agent <= cfg.agents:
                _fail(f"agent {agent} out of range 1..{cfg.agents}")
            if premise != concl.extended(rel=[RelAtom(agent, w, w)]):
                _fail("premise must add exactly the reflexive atom")

        case RuleTag.EUCL:
            agent = _want(principal, "agent", int)
            apex = _want(principal, "apex", int)
            source = _want(principal, "source", int)
            target = _want(principal, "target", int)
            (premise,) = _premise_seqs(node, 1)
            if not concl.has_rel(RelAtom(agent, apex, source)):
                _fail(f"conclusion lacks R_{agent} w{apex} w{source}")
            if not concl.has_rel(RelAtom(agent, apex, target)):
                _fail(f"conclusion lacks R_{agent} w{apex} w{target}")
            if premise != concl.extended(rel=[RelAtom(agent, source, target)]):
                _fail("premise must add exactly the euclidean atom")

        case RuleTag.IOA:
            targets = _want_label_tuple(principal, "targets")
            v = _want(principal, "fresh", int)
            (premise,) = _premise_seqs(node, 1)
            if len(targets) != cfg.agents:
                _fail(
                    f"independence rule needs one target per agent "
                    f"({cfg.agents}), found {len(targets)}"
                )
            if v in labels or v in targets:
                _fail(f"eigenvariable w{v} is not fresh")
            expected = concl.extended(
                rel=[
                    RelAtom(agent, targets[agent - 1], v)
                    for agent in range(1, cfg.agents + 1)
                ]
            )
            if premise != expected:
                _fail("premise must add exactly one fresh connection per agent")

        case RuleTag.APC:
            agent = _want(principal, "agent", int)
            roots = _want_label_tuple(principal, "roots")
            if cfg.choices < 1:
                _fail("the choice rule is absent when the bound n is 0")
            if not 1 <= agent <= cfg.agents:
                _fail(f"agent {agent} out of range 1..{cfg.agents}")
            n = cfg.choices
            if len(roots) != n + 1:
                _fail(f"the choice rule needs n+1 = {n + 1} labels, found {len(roots)}")
            premises = _premise_seqs(node, n * (n + 1) // 2)
            expected = [
                concl.extended(rel=[RelAtom(agent, roots[k], roots[j])])
                for k in range(n)
                for j in range(k + 1, n + 1)
            ]
            if Counter(premises) != Counter(expected):
                _fail("premises do not match the pairwise connection extensions")

        case _:
            _fail(f"unknown rule tag {node.rule!r}")


def _want_label_tuple(principal: Mapping[str, Any], key: str) -> tuple[int, ...]:
    if key not in principal:
        _fail(f"principal data is missing {key!r}")
    value = principal[key]
    if not isinstance(value, tuple) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        _fail(f"principal entry {key!r} should be a tuple of labels")
    return value


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------

_FORMULA_KEYS = frozenset({"formula"})
_TUPLE_KEYS = frozenset({"targets", "roots"})


def derivation_to_json(cfg: CalculusConfig, root: Derivation) -> dict:
    return {
        "m": cfg.agents,
        "n": cfg.choices,
        "mode": cfg.mode.value,
        "derivation": _node_to_json(root),
    }


def _node_to_json(node: Derivation) -> dict:
    principal = {}
    for key, value in node.principal.items():
        if key in _FORMULA_KEYS:
            principal[key] = pretty(value)
        elif key in _TUPLE_KEYS:
            principal[key] = list(value)
        else:
            principal[key] = value
    return {
        "sequent": sequent_to_json(node.conclusion),
        "rule": node.rule.value,
        "principal": principal,
        "premises": [_node_to_json(p) for p in node.premises],
    }


def derivation_from_json(obj: dict) -> tuple[CalculusConfig, Derivation]:
    cfg = CalculusConfig(
        agents=int(obj["m"]), choices=int(obj["n"]), mode=Mode(obj["mode"])
    )
    return cfg, _node_from_json(obj["derivation"], cfg.agents)


def _node_from_json(obj: dict, agents: int) -> Derivation:
    principal: dict[str, Any] = {}
    for key, value in obj.get("principal", {}).items():
        if key in _FORMULA_KEYS:
            principal[key] = parse(value, agents)
        elif key in _TUPLE_KEYS:
            principal[key] = tuple(int(x) for x in value)
        elif key == "atom":
            principal[key] = str(value)
        else:
            principal[key] = int(value)
    return Derivation(
        conclusion=sequent_from_json(obj["sequent"], agents),
        rule=RuleTag(obj["rule"]),
        principal=principal,
        premises=tuple(_node_from_json(p, agents) for p in obj.get("premises", [])),
    )
