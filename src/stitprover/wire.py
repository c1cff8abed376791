"""The JSON formats of sequents, certificates and models: one writer and
one reader each.  A reader takes exactly what its writer writes, and a
refusal is one ``ValueError`` that names the value by its JSON path.

A certificate (format version 2) is flat: the root's conclusion, then one
step per node in pre-order, ``[rule, principal, premise count, delta]``.
Every node but the root states its conclusion as a delta from its
parent's: the relational atoms and labelled formulas it adds, and under
``drop`` those it lacks, which only the G3 agentive box needs.  The root's
conclusion is a sequent, read as a delta from the empty sequent.  The
reader rebuilds exactly the tree that was written and judges nothing;
``check_derivation`` does.  Writer and reader are loops, so a derivation
of any depth is written and read.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Any, Sequence

from .calculus import CalculusConfig, Derivation, Mode, RuleTag
from .formula import Formula, ParseError, parse, pretty, printed
from .semantics import Model
from .sequent import LabelledFormula, LabelledSequent, RelAtom

_EMPTY = LabelledSequent()


def sequent_to_json(s: LabelledSequent) -> dict:
    return _delta_to_json(_EMPTY, s, _Printed(), {"rel": [], "forms": []})


def sequent_from_json(obj: dict, agents: int = 1) -> LabelledSequent:
    parsed = _Parsed()
    parsed.agents = agents
    return _delta_from_json(_EMPTY, obj, _SEQUENT_KEYS, parsed, "sequent")


def _delta_to_json(
    parent: LabelledSequent, child: LabelledSequent, shown: _Printed, delta: dict
) -> dict:
    """``delta`` holding ``child`` as a delta from ``parent``: the ``rel``
    and ``forms`` entries it adds, in its order, and under ``drop`` those
    of ``parent`` it lacks, in the parent's order.  Only parts that hold an
    entry are written.  ``_delta_from_json`` gives back ``child`` whenever
    its entries are its parent's, less the dropped ones, then the added
    ones, as a search builds them; otherwise an equal sequent in that order."""
    rel, forms = child.rel, child.forms
    n, k = len(parent.rel), len(parent.forms)
    if rel[:n] == parent.rel and forms[:k] == parent.forms:  # nothing dropped
        return _parts_to_json(rel[n:], forms[k:], shown, delta)
    lost_rel = [x for x in parent.rel if not child.has_rel(x)]
    drop = _parts_to_json(lost_rel, [x for x in parent.forms if not child.has_form(*x)], shown, {})
    added_rel = [x for x in rel if not parent.has_rel(x)]
    _parts_to_json(added_rel, [x for x in forms if not parent.has_form(*x)], shown, delta)
    if drop:
        delta["drop"] = drop
    return delta


def _parts_to_json(rel: Sequence, forms: Sequence, shown: _Printed, parts: dict) -> dict:
    """``parts`` with ``rel`` and ``forms`` as a sequent's, each only if it
    holds an entry."""
    if rel:
        parts["rel"] = [[agent, src, tgt] for agent, src, tgt in rel]
    if forms:
        parts["forms"] = [[label, shown[f]] for label, f in forms]
    return parts


class _Printed(dict):
    """The text of each formula, printed once per memo: a certificate's
    writer keeps one for all of its nodes and drops it when it returns."""

    def __missing__(self, f: Formula) -> str:
        text = self[f] = pretty(f)
        return text


class _Parsed(dict):
    """The formula of each text, parsed at ``agents`` once per memo, so
    every text equal in one certificate reads as one formula object."""

    __slots__ = ("agents",)

    def __missing__(self, text: str) -> Formula:
        f = self[text] = parse(text, self.agents)
        return f


_SEQUENT_KEYS = frozenset({"rel", "forms"})
_DELTA_KEYS = frozenset({"rel", "forms", "drop"})
_DROP_KEYS = frozenset({"rel", "forms"})  # a sequent's keys, but no part empty
_REL_KINDS = [int, int, int]  # agent, source, target
_FORM_KINDS = [int, str]  # label, formula text


def _delta_from_json(
    parent: LabelledSequent, obj: Any, known: frozenset, parsed: _Parsed, *where: str
) -> LabelledSequent:
    """``parent`` less the entries of ``obj``'s ``drop``, which must be some
    of its own in its order, then with the ``rel`` and ``forms`` entries of
    ``obj``, which it must lack.  ``known`` is the keys ``obj`` may hold:
    ``_SEQUENT_KEYS`` for a sequent, read from the empty one, whose parts
    may be empty, and ``_DELTA_KEYS`` for a step's delta or ``_DROP_KEYS``
    for its drop, read as a sequent, whose parts may not.  A refusal names
    ``obj`` by the parts of ``where``, joined only then."""
    if type(obj) is not dict or not obj.keys() <= known:
        _keys(_exact(obj, dict, *where), (), known, *where)
    if known is not _SEQUENT_KEYS and not all(obj.values()):  # a part with no entry
        for key, value in obj.items():
            if not value and type(value) is (dict if key == "drop" else list):
                raise ValueError(f"{''.join(where)}.{key} should not be empty")
    rel = forms = lost_rel = lost_forms = ()
    if "drop" in obj:
        drop = _delta_from_json(_EMPTY, obj["drop"], _DROP_KEYS, parsed, *where, ".drop")
        lost_rel, lost_forms = drop.rel, drop.forms
        _less(parent.rel, lost_rel, *where, ".drop.rel")
        _less(parent.forms, lost_forms, *where, ".drop.forms")
    if "rel" in obj:
        rel = _rel_from_json(obj["rel"], parsed, *where, ".rel")
    if "forms" in obj:
        forms = _forms_from_json(obj["forms"], parsed, *where, ".forms")
    child = parent.changed(rel, forms, lost_rel, lost_forms)
    if (lost_rel or lost_forms or len(child.rel) != len(parent.rel) + len(rel)
            or len(child.forms) != len(parent.forms) + len(forms)):
        _new(rel, frozenset(parent.rel), *where, ".rel")
        _new(forms, frozenset(parent.forms), *where, ".forms")
    return child


def _rel_from_json(items: Any, parsed: _Parsed, *field: str) -> list[RelAtom]:
    """The array ``items`` of relational atoms ``[agent, source, target]``
    of the agents ``1..parsed.agents``, as `_forms_from_json` reads
    formulas; a refusal names the first agent out of range if `_refuse`
    finds nothing."""
    if type(items) is not list:
        _exact(items, list, *field)
    agents, atoms = parsed.agents, []
    for entry in items:
        if type(entry) is list and len(entry) == 3:
            agent, source, target = entry
            if type(agent) is int and type(source) is int and type(target) is int:
                if 1 <= agent <= agents:
                    atoms.append(RelAtom(agent, source, target))
                    continue
        _refuse(items, _REL_KINDS, *field)
        raise ValueError(f"{''.join(field)}[{len(atoms)}][0] is agent {entry[0]}, "
                         f"out of range 1..{agents}")
    return atoms


def _forms_from_json(items: Any, parsed: _Parsed, *field: str) -> list[LabelledFormula]:
    """The array ``items`` of labelled formulas ``[label, text]``, each entry
    checked as it is read and each text read through the memo ``parsed``.
    A refusal names the array by the parts of ``field`` and the entry as
    `_refuse` finds it, or else the first text that does not parse."""
    if type(items) is not list:
        _exact(items, list, *field)
    forms = []
    for entry in items:
        if type(entry) is list and len(entry) == 2:
            label, text = entry
            if type(label) is int and type(text) is str:
                try:
                    forms.append(LabelledFormula(label, parsed[text]))
                except ParseError as err:
                    _refuse(items, _FORM_KINDS, *field)
                    raise ValueError(f"{''.join(field)}[{len(forms)}][1]: {err}") from None
                continue
        _refuse(items, _FORM_KINDS, *field)
    return forms


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

# The keys of a certificate, and of a node's principal data (every key of
# the table in the `calculus` docstring) with the JSON type of each value.
_CERTIFICATE_KEYS = ("m", "n", "mode", "version", "root", "steps")
_VERSION = 2
_PRINCIPAL_KINDS = {
    "label": int, "atom": str, "formula": str, "fresh": int, "witness": int,
    "agent": int, "apex": int, "source": int, "target": int,
    "targets": list, "roots": list,
}
_PRINCIPAL_KEYS = _PRINCIPAL_KINDS.keys()


def derivation_to_json(cfg: CalculusConfig, root: Derivation) -> dict:
    """The certificate of ``root``: its root sequent, then one step per
    node in pre-order, ``[rule, principal, premise count, delta]``, where
    the delta is the node's conclusion against its parent's and the root's
    step has none.  Each distinct formula is printed once: the root's
    subformulas by one `printed` call, any other formula when first met."""
    shown = _Printed(printed(*(f for _, f in root.conclusion.forms)))
    steps = []
    todo: list[tuple[Derivation, Derivation | None]] = [(root, None)]
    while todo:
        node, parent = todo.pop()
        principal = {}
        for key, value in node.principal.items():
            if key == "formula":
                principal[key] = shown[value]
            elif _PRINCIPAL_KINDS.get(key) is list:
                principal[key] = list(value)
            else:
                principal[key] = value
        step = [node.rule._value_, principal, len(node.premises)]  # `value`, less its property
        if parent is not None:
            step.append(_delta_to_json(parent.conclusion, node.conclusion, shown, {}))
        steps.append(step)
        for premise in reversed(node.premises):
            todo.append((premise, node))
    return {
        "m": cfg.agents,
        "n": cfg.choices,
        "mode": cfg.mode.value,
        "version": _VERSION,
        "root": _delta_to_json(_EMPTY, root.conclusion, shown, {"rel": [], "forms": []}),
        "steps": steps,
    }


def derivation_from_json(obj: dict) -> tuple[CalculusConfig, Derivation]:
    """Read a certificate, building exactly the tree that was written: each
    step's premises are the steps that follow it, in pre-order, and each
    conclusion is its parent's with the step's delta applied, the root's
    the empty sequent's.  Labels, agents, ``m``, ``n`` and premise counts
    must be ints, and atoms and formulas strings, exactly: nothing is
    coerced.  ``m`` must be at least 1, ``n`` and each premise count at
    least 0, and a premise count that leaves steps over or short is refused.
    The printed text of each subformula of the root reads as that
    subformula, and any other text is parsed once per call, so a prover's
    certificate parses only its root and each text reads as one formula
    object."""
    _keys(_exact(obj, dict, "certificate"), _CERTIFICATE_KEYS,
          frozenset(_CERTIFICATE_KEYS), "certificate")
    version = _exact(obj["version"], int, "version")
    if version != _VERSION:
        raise ValueError(f"version should be {_VERSION}, not {version}")
    cfg = CalculusConfig(
        agents=_at_least(obj["m"], 1, "m"),
        choices=_at_least(obj["n"], 0, "n"),
        mode=_enum(Mode, obj["mode"], "mode"),
    )
    parsed = _Parsed()
    parsed.agents = cfg.agents
    steps = _exact(obj["steps"], list, "steps")
    if not steps:
        raise ValueError("steps should hold the root's step")
    conclusion = _delta_from_json(_EMPTY, obj["root"], _SEQUENT_KEYS, parsed, "root")
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
        if type(given) is not dict or not given.keys() <= _PRINCIPAL_KEYS:
            _keys(_exact(given, dict, where, ".principal"), (), _PRINCIPAL_KEYS, where, ".principal")
        principal: dict[str, Any] = {}
        for key, value in given.items():
            kind = _PRINCIPAL_KINDS[key]
            if type(value) is not kind:
                _exact(value, kind, where, ".principal.", key)
            if key == "formula":
                try:
                    value = parsed[value]
                except ParseError as err:
                    raise ValueError(f"{where}.principal.{key}: {err}") from None
            elif kind is list:
                value = _ints(value, where, ".principal.", key)
            principal[key] = value
        count = step[2]
        if type(count) is not int or count < 0:
            count = _at_least(count, 0, where, ".premise_count")
        if i:
            conclusion = _delta_from_json(open_[-1][2], step[3], _DELTA_KEYS, parsed, where, ".delta")
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

# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("worlds", "rel", "val")
_PAIR_KINDS = [int, int]
# The agent keys `model_to_json` writes: `str` of an `int`.
_AGENT_KEY = re.compile(r"0|-?[1-9][0-9]*")


def model_to_json(model: Model) -> dict:
    return {
        "worlds": list(model.worlds),
        "rel": {
            str(agent): sorted([u, v] for u, v in pairs)
            for agent, pairs in sorted(model.rel.items())
        },
        "val": {
            name: sorted(trueset) for name, trueset in sorted(model.val.items())
        },
    }


def model_from_json(obj: dict) -> Model:
    """The model ``model_to_json`` wrote, read strictly: the keys are exactly
    ``worlds``, ``rel`` and ``val``; worlds are ints, atom names strings,
    agent keys decimal strings and pairs two worlds; and no array repeats
    a world or a pair.  A refusal names the value by its JSON path, as
    ``rel.1[0]``."""
    _keys(_exact(obj, dict, "model"), _MODEL_KEYS, frozenset(_MODEL_KEYS), "model")
    rel = {}
    for key, pairs in _exact(obj["rel"], dict, "rel").items():
        if type(key) is not str or not _AGENT_KEY.fullmatch(key):
            raise ValueError(f"rel key should be an agent as a decimal string, not {key!r}")
        _refuse(_exact(pairs, list, "rel.", key), _PAIR_KINDS, "rel.", key)
        rel[int(key)] = frozenset(_new([tuple(pair) for pair in pairs], frozenset(), "rel.", key))
    val = {}
    for name, trueset in _exact(obj["val"], dict, "val").items():
        _exact(name, str, "val key ", repr(name))
        val[name] = frozenset(_new(_ints(trueset, "val.", name), frozenset(), "val.", name))
    worlds = _new(_ints(obj["worlds"], "worlds"), frozenset(), "worlds")
    return Model(worlds=worlds, rel=rel, val=val)


# ---------------------------------------------------------------------------
# The checks every reader shares
# ---------------------------------------------------------------------------


def _new(items: list, held: frozenset, *field: str) -> tuple:
    """``items``, when none is in ``held`` or repeats an earlier one."""
    if len(set(items)) != len(items) or not held.isdisjoint(items):
        at = next(i for i, x in enumerate(items) if x in held or x in items[:i])
        why = "adds an entry its parent holds" if items[at] in held else "repeats an earlier entry"
        raise ValueError(f"{''.join(field)}[{at}] {why}")
    return tuple(items)


def _less(entries: tuple, items: tuple, *field: str) -> None:
    """Refuse the distinct ``items`` unless they are some of ``entries``, in
    their order."""
    gone = set(items)
    if tuple(x for x in entries if x in gone) != items:
        at = next((i for i, x in enumerate(items) if x not in entries), None)
        if at is None:
            raise ValueError(f"{''.join(field)} is not in its parent's order")
        raise ValueError(f"{''.join(field)}[{at}] drops an entry its parent lacks")


def _ints(items: Any, *field: str) -> tuple[int, ...]:
    """The array ``items`` of ints."""
    return tuple(x if type(x) is int else _exact(x, int, *field, f"[{at}]")
                 for at, x in enumerate(_exact(items, list, *field)))


def _refuse(entries: list, kinds: list[type], *field: str) -> None:
    """Raise the ``ValueError`` that names the first entry of ``entries``
    not of the shape, or else the first value not of the type, ``kinds``
    gives, if there is one."""
    where = "".join(field)
    for i, entry in enumerate(entries):
        _exact(entry, list, f"{where}[{i}]")
        if len(entry) != len(kinds):
            raise ValueError(f"{where}[{i}] should hold {len(kinds)} values, not {len(entry)}")
    for i, entry in enumerate(entries):
        for j, kind in enumerate(kinds):
            _exact(entry[j], kind, f"{where}[{i}][{j}]")


def _at_least(value: Any, least: int, *field: str) -> int:
    """``value`` when it is an int of at least ``least``."""
    value = _exact(value, int, *field)
    if value < least:
        raise ValueError(f"{''.join(field)} is {value}, below {least}")
    return value


def _keys(obj: dict, required: Sequence[str], known: Any, *field: str) -> dict:
    """``obj`` when it holds every key of ``required`` and no key outside
    ``known``, the keys a writer writes; otherwise a ``ValueError`` naming
    the object by the parts of ``field``, joined, and the key."""
    for key in required:
        if key not in obj:
            raise ValueError(f"{''.join(field)} lacks the key {key!r}")
    if not obj.keys() <= known:
        key = next(key for key in obj if key not in known)
        raise ValueError(f"{''.join(field)} has an unknown key {key!r}")
    return obj


_JSON_KINDS = {dict: "an object", list: "an array", int: "an int", str: "a string"}


def _exact(value: Any, kind: type, *field: str) -> Any:
    """``value`` when its type is exactly ``kind``, so ``True`` is not an
    int and ``0.0`` is not a label; otherwise a ``ValueError`` naming the
    value by the parts of ``field``, joined only then."""
    if type(value) is not kind:
        raise ValueError(
            f"{''.join(field)} should be {_JSON_KINDS[kind]}, not {type(value).__name__}"
        )
    return value
