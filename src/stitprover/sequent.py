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
from typing import Iterable, Mapping, NamedTuple, Sequence

from .formula import Formula, pretty

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
    no mark.  The labels are worked out on first use.
    """

    __slots__ = ("rel", "forms", "_rel_set", "_forms_set", "_labels", "_stable_at")

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
        return hash((self._rel_set, self._forms_set))  # a frozenset keeps its hash

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

    def changed(self, rel: Sequence[RelAtom] = (), forms: Sequence[LabelledFormula] = (),
                lost_rel: Sequence[RelAtom] = (), lost_forms: Sequence[LabelledFormula] = ()
                ) -> "LabelledSequent":
        """This sequent less the entries of ``lost_rel`` and ``lost_forms``,
        then with those of ``rel`` and ``forms`` it lacks, each once, in
        their order.  Its sets are this sequent's joined with the additions,
        so a change costs a copy of each set and its own size."""
        base = self
        if lost_rel or lost_forms:
            gone_rel, gone_forms = set(lost_rel), set(lost_forms)
            base = LabelledSequent.from_distinct([x for x in self.rel if x not in gone_rel],
                                                 [x for x in self.forms if x not in gone_forms])
        rel_set = base._rel_set.union(rel) if rel else base._rel_set
        forms_set = base._forms_set.union(forms) if forms else base._forms_set
        rel, forms = base.rel + tuple(rel), base.forms + tuple(forms)
        if len(rel_set) != len(rel) or len(forms_set) != len(forms):  # one held or repeated
            return LabelledSequent(rel, forms)
        return _fill(_blank(LabelledSequent), rel, forms, rel_set, forms_set)


# The slots' own setters, past the `__setattr__` that refuses every
# assignment: a sequent's fields are set once, as it is made.
_blank = object.__new__
(_set_rel, _set_forms, _set_rel_set, _set_forms_set, _set_labels,
 _set_stable_at) = (getattr(LabelledSequent, name).__set__ for name in LabelledSequent.__slots__)


def _fill(s: LabelledSequent, rel: tuple, forms: tuple, rel_set: frozenset,
          forms_set: frozenset, stable_at: int | None = None) -> LabelledSequent:
    """``s``, made the sequent of ``rel`` and ``forms``, whose sets are
    ``rel_set`` and ``forms_set``."""
    _set_rel(s, rel)
    _set_forms(s, forms)
    _set_rel_set(s, rel_set)
    _set_forms_set(s, forms_set)
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


def components(
    s: LabelledSequent, agent: int | None = None
) -> tuple[frozenset[Label], ...]:
    """The weakly connected components of the sequent graph, sorted by their
    least label.  With ``agent`` given, only that agent's atoms are edges."""
    # Edges are read both ways; with ``agent`` given, only its atoms count.
    adjacency: dict[Label, list[Label]] = {w: [] for w in s.labels()}
    for a, src, tgt in s.rel:
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
