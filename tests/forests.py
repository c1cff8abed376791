"""Choice trees of a labelled sequent: the reference the tests read.

``tests/test_prover.py`` states stability clause by clause as the reference
for ``is_stable``.  Its realization and propagation clauses read a label's
choice tree, and its choice-bound clause counts the trees.  The library
needs none of this: the search keeps its own forest (``prover._State``).

A sequent is forestlike when its graph, one edge ``w -> u`` per relational
atom, is a disjoint union of rooted trees; the tree containing a label is
its choice tree.
"""

from dataclasses import dataclass

from stitprover import LabelledSequent
from stitprover.sequent import Label, components


@dataclass(frozen=True)
class ChoiceTree:
    root: Label
    members: frozenset[Label]


def _trees(s: LabelledSequent) -> tuple[ChoiceTree, ...] | None:
    """The trees of the sequent graph sorted by root, or ``None`` when that
    graph is not a forest."""
    # Parallel atoms with different agents collapse to one edge of V x V.
    pairs = {(src, tgt) for _, src, tgt in s.rel}
    targets = {tgt for _, tgt in pairs}
    if len(targets) < len(pairs):
        return None  # some label has in-degree two
    # With in-degree <= 1 everywhere, each component is a tree exactly when
    # it has one in-degree-0 label (its root).
    trees = []
    for members in components(s):
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
    return _trees(s) is not None


def choice_trees(s: LabelledSequent) -> tuple[ChoiceTree, ...]:
    """The trees of a forestlike sequent, sorted by root label."""
    trees = _trees(s)
    if trees is None:
        raise ValueError("sequent graph is not forestlike")
    return trees


def tree_of(s: LabelledSequent, label: Label) -> frozenset[Label]:
    """Members of the weakly connected component containing ``label``,
    found by walking out from ``label`` alone."""
    if label not in s.labels():
        raise ValueError(f"label w{label} does not occur in the sequent")
    seen, todo = {label}, [label]
    while todo:
        w = todo.pop()
        for _, src, tgt in s.rel:
            for here, there in ((src, tgt), (tgt, src)):
                if here == w and there not in seen:
                    seen.add(there)
                    todo.append(there)
    return frozenset(seen)
