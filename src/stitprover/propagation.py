"""The side condition of the propagation rule.

For labels ``w, u`` of a sequent, the propagation automaton reads words over
the alphabet of agentive diamonds and has one state per label.  Every
relational atom ``R_i v v'`` contributes *two* transitions, ``v -> v'`` and
``v' -> v`` on letter ``i``: the relations are interpreted over equivalence
classes, so propagation may travel either way along an edge.

The side condition of the propagation rule for agent ``i`` asks whether the
automaton from ``w`` to ``u`` accepts some word in ``<i>*`` — including the
empty word, so ``w == u`` always qualifies.  That language check reduces to
reachability using ``i``-transitions only: ``w`` and ``u`` lie in one
component of the sequent graph restricted to agent ``i``'s atoms.
"""

from __future__ import annotations

from .sequent import Label, LabelledSequent, components


def side_condition_holds(
    s: LabelledSequent, agent: int, start: Label, end: Label
) -> bool:
    """Does the automaton from ``start`` to ``end`` accept a word in ``<agent>*``?"""
    labels = s.labels()
    if start not in labels or end not in labels:
        raise ValueError(f"labels w{start}, w{end} must occur in the sequent")
    return any(start in block and end in block for block in components(s, agent))


def same_component(s: LabelledSequent, agent: int) -> tuple[frozenset[Label], ...]:
    """Partition of the labels by ``agent``-reachability, sorted by minimum."""
    return components(s, agent)
