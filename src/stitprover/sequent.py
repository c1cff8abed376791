"""Labelled sequents and their graphs.

A labelled sequent is a pair ``R, Γ`` of a set of relational atoms
``R_i w u`` and a set of labelled formulas ``w : φ``.  Both parts are
duplicate-free sets, but insertion order is preserved so that proof search
is deterministic.  Labels are opaque naturals, printed ``w0, w1, ...``.

The sequent graph has the labels as vertices and one edge ``w -> u`` per
relational atom.  A sequent is forestlike when that graph is a disjoint
union of rooted trees; the tree containing a label is its choice tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .formula import Formula, parse, pretty

Label = int


class RelAtom(NamedTuple):
    agent: int
    source: Label
    target: Label


class LabelledFormula(NamedTuple):
    label: Label
    formula: Formula


class LabelledSequent:
    """Immutable ``R, Γ`` with set equality and ordered iteration."""

    __slots__ = ("rel", "forms", "_rel_set", "_forms_set", "_hash")

    def __init__(
        self,
        rel: Iterable[RelAtom] = (),
        forms: Iterable[LabelledFormula] = (),
    ):
        self._fill(tuple(dict.fromkeys(rel)), tuple(dict.fromkeys(forms)))

    @classmethod
    def from_distinct(
        cls, rel: Iterable[RelAtom], forms: Iterable[LabelledFormula]
    ) -> "LabelledSequent":
        """The sequent of ``rel`` and ``forms``, in their order, when neither
        holds a duplicate: it skips the pass that drops them."""
        s = cls.__new__(cls)
        s._fill(tuple(rel), tuple(forms))
        return s

    def _fill(
        self, rel: tuple[RelAtom, ...], forms: tuple[LabelledFormula, ...]
    ) -> None:
        self.rel = rel
        self.forms = forms
        self._rel_set = frozenset(rel)
        self._forms_set = frozenset(forms)
        self._hash = hash((self._rel_set, self._forms_set))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelledSequent):
            return NotImplemented
        return self._rel_set == other._rel_set and self._forms_set == other._forms_set

    def __hash__(self) -> int:
        return self._hash

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
        seen = {w for w, _ in self.forms}
        for _, s, t in self.rel:
            seen.add(s)
            seen.add(t)
        return tuple(sorted(seen))

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


def _adjacency(
    labels: Iterable[Label], rel: Iterable[RelAtom], agent: int | None
) -> dict[Label, list[Label]]:
    # Edges are read both ways; with ``agent`` given, only its atoms count.
    adjacency: dict[Label, list[Label]] = {w: [] for w in labels}
    for a, src, tgt in rel:
        if agent is None or a == agent:
            adjacency[src].append(tgt)
            adjacency[tgt].append(src)
    return adjacency


def _walk(adjacency: Mapping[Label, list[Label]], start: Label) -> frozenset[Label]:
    seen = {start}
    todo = [start]
    while todo:
        for u in adjacency[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return frozenset(seen)


def graph_components(
    labels: Iterable[Label], rel: Iterable[RelAtom], agent: int | None = None
) -> tuple[frozenset[Label], ...]:
    """``components`` of the graph on ``labels`` (ascending, each label of
    ``rel`` among them) with the atoms ``rel`` as edges."""
    adjacency = _adjacency(labels, rel, agent)
    blocks: list[frozenset[Label]] = []
    placed: set[Label] = set()
    for w in adjacency:  # ascending, as the labels are
        if w not in placed:
            block = _walk(adjacency, w)
            placed |= block
            blocks.append(block)
    return tuple(blocks)


def components(
    s: LabelledSequent, agent: int | None = None
) -> tuple[frozenset[Label], ...]:
    """The weakly connected components of the sequent graph, sorted by their
    least label.  With ``agent`` given, only that agent's atoms are edges."""
    return graph_components(s.labels(), s.rel, agent)


@dataclass(frozen=True)
class ChoiceTree:
    root: Label
    members: frozenset[Label]


def graph_trees(
    labels: Iterable[Label], rel: Sequence[RelAtom]
) -> tuple[ChoiceTree, ...] | None:
    """The trees of the graph on ``labels`` with the atoms ``rel`` as edges,
    sorted by root, or ``None`` when that graph is not a forest."""
    # Parallel atoms with different agents collapse to one edge of V x V.
    pairs = {(src, tgt) for _, src, tgt in rel}
    targets = {tgt for _, tgt in pairs}
    if len(targets) < len(pairs):
        return None  # some label has in-degree two
    # With in-degree <= 1 everywhere, each component is a tree exactly when
    # it has one in-degree-0 label (its root).
    trees = []
    for members in graph_components(labels, rel):
        roots = members - targets
        if len(roots) != 1:
            return None
        (root,) = roots
        trees.append(ChoiceTree(root=root, members=members))
    return tuple(sorted(trees, key=lambda t: t.root))


def is_forestlike(s: LabelledSequent) -> bool:
    """True when the sequent graph is a disjoint union of rooted trees.

    Agent labels on edges are ignored; the check is meant for single-agent
    sequents, where every edge carries agent 1 anyway.
    """
    return graph_trees(s.labels(), s.rel) is not None


def choice_trees(s: LabelledSequent) -> tuple[ChoiceTree, ...]:
    """The trees of a forestlike sequent, sorted by root label."""
    trees = graph_trees(s.labels(), s.rel)
    if trees is None:
        raise ValueError("sequent graph is not forestlike")
    return trees


def tree_of(s: LabelledSequent, label: Label) -> frozenset[Label]:
    """Members of the weakly connected component containing ``label``,
    found by walking out from ``label`` alone."""
    adjacency = _adjacency(s.labels(), s.rel, None)
    if label not in adjacency:
        raise ValueError(f"label w{label} does not occur in the sequent")
    return _walk(adjacency, label)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def sequent_to_json(s: LabelledSequent) -> dict:
    return {
        "rel": [[agent, src, tgt] for agent, src, tgt in s.rel],
        "forms": [[label, pretty(f)] for label, f in s.forms],
    }


def sequent_from_json(obj: dict, agents: int = 1) -> LabelledSequent:
    rel = [RelAtom(int(a), int(s), int(t)) for a, s, t in obj.get("rel", [])]
    forms = [
        LabelledFormula(int(w), parse(text, agents))
        for w, text in obj.get("forms", [])
    ]
    for atom in rel:
        if not 1 <= atom.agent <= agents:
            raise ValueError(f"agent index {atom.agent} out of range 1..{agents}")
    return LabelledSequent(rel, forms)
