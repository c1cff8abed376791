"""Labelled sequents and their graphs.

A labelled sequent is a pair ``R, Γ`` of a set of relational atoms
``R_i w u`` and a set of labelled formulas ``w : φ``.  Both parts are
duplicate-free sets, but insertion order is preserved so that proof search
is deterministic.  Labels are opaque naturals, printed ``w0, w1, ...``.

The sequent graph has the labels as vertices and one edge ``w -> u`` per
relational atom; ``components`` gives its weakly connected components, in
the whole graph or along one agent's atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .formula import Formula, ParseError, parse, pretty

Label = int


class RelAtom(NamedTuple):
    agent: int
    source: Label
    target: Label


class LabelledFormula(NamedTuple):
    label: Label
    formula: Formula


class LabelledSequent:
    """Immutable ``R, Γ`` with set equality and ordered iteration: assigning
    or deleting an attribute raises ``AttributeError``.

    ``_stable_at`` is ``None`` except on the stable sequent a proof search
    returns, where it is the choice bound that search found it stable at;
    ``extract_countermodel`` trusts it for that bound alone.  Only
    ``from_distinct`` sets it, when asked, so a copy or an extension carries
    no mark.  The hash and the labels are worked out on first use.
    """

    __slots__ = ("rel", "forms", "_rel_set", "_forms_set", "_hash", "_labels", "_stable_at")

    def __init__(
        self,
        rel: Iterable[RelAtom] = (),
        forms: Iterable[LabelledFormula] = (),
    ):
        rel, forms = tuple(dict.fromkeys(rel)), tuple(dict.fromkeys(forms))
        _fill(self, rel, forms, frozenset(rel), frozenset(forms))

    @classmethod
    def from_distinct(
        cls,
        rel: Iterable[RelAtom],
        forms: Iterable[LabelledFormula],
        stable_at: int | None = None,
    ) -> "LabelledSequent":
        """The sequent of ``rel`` and ``forms``, in their order, when neither
        holds a duplicate: it skips the pass that drops them.  A search
        passes ``stable_at`` for the stable sequent it returns."""
        rel, forms = tuple(rel), tuple(forms)
        return _fill(_blank(cls), rel, forms, frozenset(rel), frozenset(forms), stable_at)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LabelledSequent is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LabelledSequent is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledSequent):
            return NotImplemented
        return self._rel_set == other._rel_set and self._forms_set == other._forms_set

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self._rel_set, self._forms_set))
            _set_hash(self, value)
        return value

    def __repr__(self) -> str:
        return f"LabelledSequent({self.show()!r})"

    def show(self) -> str:
        parts = [f"R_{a} w{s} w{t}" for a, s, t in self.rel]
        parts += [f"w{w}: {pretty(f)}" for w, f in self.forms]
        return ", ".join(parts) if parts else "(empty)"

    # -- membership -------------------------------------------------------

    def has_rel(self, atom: RelAtom) -> bool:
        return atom in self._rel_set

    def has_form(self, label: Label, formula: Formula) -> bool:
        return LabelledFormula(label, formula) in self._forms_set

    def forms_at(self, label: Label) -> tuple[Formula, ...]:
        return tuple(f for w, f in self.forms if w == label)

    def labels(self) -> tuple[Label, ...]:
        """All labels occurring in the sequent, ascending."""
        labels = self._labels
        if labels is None:
            seen = {w for w, _ in self.forms}
            for _, s, t in self.rel:
                seen.add(s)
                seen.add(t)
            labels = tuple(sorted(seen))
            _set_labels(self, labels)
        return labels

    # -- functional updates ------------------------------------------------

    def extended(
        self,
        rel: Iterable[RelAtom] = (),
        forms: Iterable[LabelledFormula] = (),
    ) -> "LabelledSequent":
        return LabelledSequent(self.rel + tuple(rel), self.forms + tuple(forms))

    def without_form(self, label: Label, formula: Formula) -> "LabelledSequent":
        drop = LabelledFormula(label, formula)
        return LabelledSequent(self.rel, (lf for lf in self.forms if lf != drop))


# The slots' own setters, past the `__setattr__` that refuses every
# assignment: a sequent's fields are set once, as it is made.
_blank = object.__new__
(_set_rel, _set_forms, _set_rel_set, _set_forms_set, _set_hash, _set_labels,
 _set_stable_at) = (getattr(LabelledSequent, name).__set__ for name in LabelledSequent.__slots__)


def _fill(s: LabelledSequent, rel: tuple, forms: tuple, rel_set: frozenset,
          forms_set: frozenset, stable_at: int | None = None) -> LabelledSequent:
    """``s``, made the sequent of ``rel`` and ``forms``, whose sets are
    ``rel_set`` and ``forms_set``."""
    _set_rel(s, rel)
    _set_forms(s, forms)
    _set_rel_set(s, rel_set)
    _set_forms_set(s, forms_set)
    _set_hash(s, None)
    _set_labels(s, None)
    _set_stable_at(s, stable_at)
    return s


# ---------------------------------------------------------------------------
# Sequent graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequentGraph:
    vertices: frozenset[Label]
    edges: frozenset[tuple[Label, Label, int]]  # (source, target, agent)
    vertex_labels: Mapping[Label, frozenset[Formula]]


def graph_of(s: LabelledSequent) -> SequentGraph:
    vertex_labels = {
        w: frozenset(s.forms_at(w)) for w in s.labels()
    }
    return SequentGraph(
        vertices=frozenset(s.labels()),
        edges=frozenset((src, tgt, agent) for agent, src, tgt in s.rel),
        vertex_labels=vertex_labels,
    )


def graph_components(
    labels: Iterable[Label], rel: Iterable[RelAtom], agent: int | None = None
) -> tuple[frozenset[Label], ...]:
    """``components`` of the graph on ``labels`` (ascending, each label of
    ``rel`` among them) with the atoms ``rel`` as edges."""
    # Edges are read both ways; with ``agent`` given, only its atoms count.
    adjacency: dict[Label, list[Label]] = {w: [] for w in labels}
    for a, src, tgt in rel:
        if agent is None or a == agent:
            adjacency[src].append(tgt)
            adjacency[tgt].append(src)
    blocks: list[frozenset[Label]] = []
    placed: set[Label] = set()
    for w in adjacency:  # ascending, as the labels are
        if w not in placed:
            block, todo = {w}, [w]
            while todo:
                for u in adjacency[todo.pop()]:
                    if u not in block:
                        block.add(u)
                        todo.append(u)
            placed |= block
            blocks.append(frozenset(block))
    return tuple(blocks)


def components(
    s: LabelledSequent, agent: int | None = None
) -> tuple[frozenset[Label], ...]:
    """The weakly connected components of the sequent graph, sorted by their
    least label.  With ``agent`` given, only that agent's atoms are edges."""
    return graph_components(s.labels(), s.rel, agent)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sequent_to_json(s: LabelledSequent) -> dict:
    return _sequent_to_json(s, {})


def _sequent_to_json(s: LabelledSequent, shown: dict[Formula, str]) -> dict:
    return {
        "rel": [[agent, src, tgt] for agent, src, tgt in s.rel],
        "forms": [[label, _text_of(f, shown)] for label, f in s.forms],
    }


def _delta_to_json(
    parent: LabelledSequent, child: LabelledSequent, shown: dict[Formula, str]
) -> dict:
    """``child`` as a delta from ``parent``: the ``rel`` and ``forms``
    entries it adds, in its order, and under ``drop`` those of ``parent``
    it lacks, in the parent's order.  Only parts that hold an entry are
    written.  ``_delta_from_json`` gives back ``child`` whenever its entries
    are its parent's, less the dropped ones, then the added ones, as a
    search builds them; otherwise an equal sequent in that order."""
    rel, forms = child.rel, child.forms
    n, k = len(parent.rel), len(parent.forms)
    if rel[:n] == parent.rel and forms[:k] == parent.forms:  # nothing dropped
        return _parts_to_json(rel[n:], forms[k:], shown)
    delta = _parts_to_json(
        [x for x in rel if x not in parent._rel_set],
        [x for x in forms if x not in parent._forms_set],
        shown,
    )
    lost_rel = [x for x in parent.rel if x not in child._rel_set]
    lost_forms = [x for x in parent.forms if x not in child._forms_set]
    if lost_rel or lost_forms:
        delta["drop"] = _parts_to_json(lost_rel, lost_forms, shown)
    return delta


def _parts_to_json(rel: Sequence, forms: Sequence, shown: dict[Formula, str]) -> dict:
    """``rel`` and ``forms`` as a sequent's parts, each only if it holds an entry."""
    parts: dict = {}
    if rel:
        parts["rel"] = [[agent, src, tgt] for agent, src, tgt in rel]
    if forms:
        parts["forms"] = [[label, _text_of(f, shown)] for label, f in forms]
    return parts


def _text_of(f: Formula, shown: dict[Formula, str]) -> str:
    """The text of ``f``, printed once per ``shown``: a certificate's writer
    passes one memo to all of its nodes and drops it when it returns."""
    text = shown.get(f)
    if text is None:
        text = shown[f] = pretty(f)
    return text


def sequent_from_json(obj: dict, agents: int = 1) -> LabelledSequent:
    return _sequent_from_json(obj, agents, {}, "sequent")


_SEQUENT_KEYS = frozenset({"rel", "forms"})
_REL_KINDS = [int, int, int]  # agent, source, target
_FORM_KINDS = [int, str]  # label, formula text


def _sequent_from_json(
    obj: dict, agents: int, parsed: dict[str, Formula], *where: str
) -> LabelledSequent:
    """The sequent ``obj``, which a refusal names by the parts of
    ``where``, joined only then, as ``root``.  A sequent is two sets, so an
    entry may not repeat an earlier one."""
    _keys(_exact(obj, dict, *where), (), _SEQUENT_KEYS, *where)
    rel = _rel_from_json(obj.get("rel", []), agents, parsed, *where, ".rel")
    forms = _forms_from_json(obj.get("forms", []), agents, parsed, *where, ".forms")
    return LabelledSequent.from_distinct(
        _new(rel, frozenset(), *where, ".rel"), _new(forms, frozenset(), *where, ".forms")
    )


def _rel_from_json(items: Any, agents: int, _: Any, *field: str) -> list[RelAtom]:
    """The array ``items`` of relational atoms ``[agent, source, target]``
    of agents ``1..agents``, as `_forms_from_json` reads formulas; a
    refusal names the first agent out of range if `_refuse` finds nothing."""
    if type(items) is not list:
        _exact(items, list, *field)
    atoms = []
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


def _forms_from_json(
    items: Any, agents: int, parsed: dict[str, Formula], *field: str
) -> list[LabelledFormula]:
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
                    forms.append(LabelledFormula(label, _formula_of(text, agents, parsed)))
                except ParseError as err:
                    _refuse(items, _FORM_KINDS, *field)
                    raise ValueError(f"{''.join(field)}[{len(forms)}][1]: {err}") from None
                continue
        _refuse(items, _FORM_KINDS, *field)
    return forms


def _new(items: list, held: frozenset, *field: str) -> tuple:
    """``items``, when none is in ``held`` or repeats an earlier one."""
    if len(set(items)) != len(items) or not held.isdisjoint(items):
        at = next(i for i, x in enumerate(items) if x in held or x in items[:i])
        why = "adds an entry its parent holds" if items[at] in held else "repeats an earlier entry"
        raise ValueError(f"{''.join(field)}[{at}] {why}")
    return tuple(items)


def _less(entries: tuple, items: list, held: frozenset, *field: str) -> tuple:
    """``entries`` less ``items``, which must be some of them, in their
    order; ``held`` is their set."""
    gone = set(items)
    if [x for x in entries if x in gone] != items:
        at = next((i for i, x in enumerate(items) if x not in held or x in items[:i]), None)
        if at is None:
            raise ValueError(f"{''.join(field)} is not in its parent's order")
        why = "drops an entry its parent lacks" if items[at] not in held else "repeats an earlier entry"
        raise ValueError(f"{''.join(field)}[{at}] {why}")
    return tuple(x for x in entries if x not in gone)


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


def _formula_of(text: str, agents: int, parsed: dict[str, Formula]) -> Formula:
    """The formula ``text`` reads as, parsed once per ``parsed``: a
    certificate's reader passes one memo to all of its nodes and drops it
    when it returns, so every text it holds equal reads as one object."""
    f = parsed.get(text)
    if f is None:
        f = parsed[text] = parse(text, agents)
    return f


def _keys(obj: dict, required: tuple[str, ...], known: frozenset, *field: str) -> dict:
    """``obj`` when it holds every key of ``required`` and no key outside
    ``known``, the keys a writer writes; otherwise a ``ValueError`` naming
    the object by the parts of ``field``, joined, and the key.  The
    certificate reader uses it too."""
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
    value by the parts of ``field``, joined only then.  The certificate and
    model readers use it too."""
    if type(value) is not kind:
        raise ValueError(
            f"{''.join(field)} should be {_JSON_KINDS[kind]}, not {type(value).__name__}"
        )
    return value
