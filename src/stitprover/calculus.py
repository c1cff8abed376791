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

A certificate (format version 2) is flat: the root's conclusion, then one
step per node in pre-order, ``[rule, principal, premise count, delta]``.
Every node but the root states its conclusion as a delta from its
parent's: the relational atoms and labelled formulas it adds, and under
``drop`` those it lacks, which only the G3 agentive box needs.  The
reader rebuilds exactly the tree that was written and judges nothing;
``check_derivation`` does.  Writer, reader and checker are loops, so a
derivation of any depth is written, read and checked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Any, Mapping, NoReturn, Sequence

from .formula import AgBox, AgDia, And, Atom, Box, Dia, Formula, NegAtom, Or
from .formula import ParseError
from .formula import agents_of, pretty, printed
from .sequent import (
    _SEQUENT_KEYS,
    Label,
    LabelledFormula,
    LabelledSequent,
    RelAtom,
    _blank,
    _delta_to_json,
    _exact,
    _fill,
    _forms_from_json,
    _formula_of,
    _keys,
    _less,
    _new,
    _rel_from_json,
    _sequent_from_json,
    _sequent_to_json,
    _text_of,
    components,
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
    expected = Counter(base.extended(rel, forms) for rel, forms in additions)
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
            base = concl if cfg.mode is Mode.REFINED else concl.without_form(w, f)
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


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------

# The keys of a certificate and of a step's delta, and of a node's principal
# data (every key of the table in the module docstring) with the JSON type
# of each value.
_CERTIFICATE_KEYS = ("m", "n", "mode", "version", "root", "steps")
_VERSION = 2
_DELTA_KEYS = frozenset({"rel", "forms", "drop"})
_PRINCIPAL_KINDS = {
    "label": int, "atom": str, "formula": str, "fresh": int, "witness": int,
    "agent": int, "apex": int, "source": int, "target": int,
    "targets": list, "roots": list,
}


def derivation_to_json(cfg: CalculusConfig, root: Derivation) -> dict:
    """The certificate of ``root``: its root sequent, then one step per
    node in pre-order, ``[rule, principal, premise count, delta]``, where
    the delta is the node's conclusion against its parent's and the root's
    step has none.  Each distinct formula is printed once: the root's
    subformulas by one fold, any other formula when it is first met."""
    shown = printed(*(f for _, f in root.conclusion.forms))
    steps = []
    todo: list[tuple[Derivation, Derivation | None]] = [(root, None)]
    while todo:
        node, parent = todo.pop()
        step = [node.rule.value, _principal_to_json(node.principal, shown),
                len(node.premises)]
        if parent is not None:
            step.append(_delta_to_json(parent.conclusion, node.conclusion, shown))
        steps.append(step)
        for premise in reversed(node.premises):
            todo.append((premise, node))
    return {
        "m": cfg.agents,
        "n": cfg.choices,
        "mode": cfg.mode.value,
        "version": _VERSION,
        "root": _sequent_to_json(root.conclusion, shown),
        "steps": steps,
    }


def _principal_to_json(given: Mapping[str, Any], shown: dict[Formula, str]) -> dict:
    principal = {}
    for key, value in given.items():
        if key == "formula":
            principal[key] = _text_of(value, shown)
        elif _PRINCIPAL_KINDS.get(key) is list:
            principal[key] = list(value)
        else:
            principal[key] = value
    return principal


def derivation_from_json(obj: dict) -> tuple[CalculusConfig, Derivation]:
    """Read a certificate, building exactly the tree that was written: each
    step's premises are the steps that follow it, in pre-order, and each
    conclusion is its parent's with the step's delta applied.  Labels,
    agents, ``m``, ``n`` and premise counts must be ints, and atoms and
    formulas strings, exactly: nothing is coerced.  A key the writer does
    not write, a missing one, a delta it would not write and a premise
    count that leaves steps over or short are refused, and a refusal names
    the value by its JSON path, as ``steps[3].delta.forms[0][1]``.  The
    printed text of each subformula of the root reads as that subformula,
    and any other text is parsed once per call, so a prover's certificate
    parses only its root and each text reads as one formula object."""
    _keys(_exact(obj, dict, "certificate"), _CERTIFICATE_KEYS,
          frozenset(_CERTIFICATE_KEYS), "certificate")
    version = _exact(obj["version"], int, "version")
    if version != _VERSION:
        raise ValueError(f"version should be {_VERSION}, not {version}")
    cfg = CalculusConfig(
        agents=_exact(obj["m"], int, "m"),
        choices=_exact(obj["n"], int, "n"),
        mode=_enum(Mode, obj["mode"], "mode"),
    )
    agents, parsed = cfg.agents, {}
    steps = _exact(obj["steps"], list, "steps")
    if not steps:
        raise ValueError("steps should hold the root's step")
    conclusion = _sequent_from_json(obj["root"], agents, parsed, "root")
    parsed.update((text, f) for f, text in printed(*(f for _, f in conclusion.forms)).items())
    # The nodes whose premises are still being read, innermost last: premise
    # count, premises read, conclusion, rule, principal, step index.
    open_: list[tuple[int, list, LabelledSequent, RuleTag, dict, int]] = []
    for i, step in enumerate(steps):
        where = f"steps[{i}]"
        size = 4 if i else 3
        if type(step) is not list or len(step) != size:
            _exact(step, list, where)
            raise ValueError(f"{where} should hold {size} values, not {len(step)}")
        if i and not open_:
            raise ValueError(f"{where} is left over: the steps before it make a whole tree")
        rule = _enum(RuleTag, step[0], where, ".rule")
        given = step[1]
        if type(given) is not dict or not given.keys() <= _PRINCIPAL_KINDS.keys():
            _keys(_exact(given, dict, where, ".principal"), (),
                  _PRINCIPAL_KINDS.keys(), where, ".principal")
        principal: dict[str, Any] = {}
        for key, value in given.items():
            kind = _PRINCIPAL_KINDS[key]
            if type(value) is not kind:
                _exact(value, kind, where, ".principal.", key)
            if key == "formula":
                try:
                    value = _formula_of(value, agents, parsed)
                except ParseError as err:
                    raise ValueError(f"{where}.principal.{key}: {err}") from None
            elif kind is list:
                for at, item in enumerate(value):
                    if type(item) is not int:
                        _exact(item, int, f"{where}.principal.{key}[{at}]")
                value = tuple(value)
            principal[key] = value
        count = step[2]
        if type(count) is not int or count < 0:
            _exact(count, int, where, ".premise_count")
            raise ValueError(f"{where}.premise_count is {count}, below 0")
        if i:  # the delta: the parent's entries less those dropped, then those added
            delta, parent, sides = step[3], open_[-1][2], []
            if type(delta) is not dict or not delta.keys() <= _DELTA_KEYS:
                _keys(_exact(delta, dict, where, ".delta"), (), _DELTA_KEYS, where, ".delta")
            drop = delta.get("drop", {})
            if "drop" in delta and not _keys(
                _exact(drop, dict, where, ".delta.drop"), (), _SEQUENT_KEYS, where, ".delta.drop"
            ):
                raise ValueError(f"{where}.delta.drop should not be empty")
            for field, entries, held, read in (
                ("rel", parent.rel, parent._rel_set, _rel_from_json),
                ("forms", parent.forms, parent._forms_set, _forms_from_json),
            ):
                kept = held
                for part, at in ((drop, ".delta.drop."), (delta, ".delta.")):
                    if field not in part:
                        continue
                    items = read(part[field], agents, parsed, where, at, field)
                    if not items:
                        raise ValueError(f"{where}{at}{field} should not be empty")
                    if part is drop:
                        entries = _less(entries, items, held, where, at, field)
                        kept = held.difference(items)
                        continue
                    joined = kept.union(items)
                    if kept is not held or len(joined) != len(held) + len(items):
                        _new(items, held, where, at, field)
                    entries, kept = entries + tuple(items), joined
                sides += (entries, kept)
            rel, rel_set, forms, forms_set = sides
            conclusion = _fill(_blank(LabelledSequent), rel, forms, rel_set, forms_set)
        if count:
            open_.append((count, [], conclusion, rule, principal, i))
            continue
        node = Derivation(conclusion, rule, principal)
        while open_:  # close each node whose last premise this completes
            top = open_[-1]
            top[1].append(node)
            if len(top[1]) < top[0]:
                break
            open_.pop()
            node = Derivation(top[2], top[3], top[4], tuple(top[1]))
    if open_:
        count, premises, *_, i = open_[-1]
        raise ValueError(
            f"steps[{i}] has {count} premise(s), but the steps end after "
            f"{len(premises)} of them"
        )
    return cfg, node


def _enum(kind: type[Enum], value: Any, *field: str) -> Any:
    """The member of ``kind`` whose value is the string ``value``;
    otherwise a ``ValueError`` naming the field by its parts, joined."""
    member = _MEMBERS[kind].get(value) if type(value) is str else None
    if member is None:
        raise ValueError(f"{''.join(field)} names no {kind.__name__}: {value!r}")
    return member


_MEMBERS = {kind: {m.value: m for m in kind} for kind in (Mode, RuleTag)}
