"""Tests for relational-path propagation: automata, side condition, components.

The propagation automaton is kept here as a string-enumeration reference:
the library decides the side condition by a label walk, and
``test_side_condition_matches_string_enumeration`` checks it against the
automaton's words.
"""

from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stitprover import (
    Atom,
    LabelledFormula,
    LabelledSequent,
    RelAtom,
    side_condition_holds,
)
from stitprover.sequent import Label, components


@dataclass(frozen=True)
class PropagationAutomaton:
    """One state per label; every ``R_i v v'`` gives ``v -i-> v'`` and
    ``v' -i-> v``."""

    states: frozenset[Label]
    initial: Label
    final: Label
    transitions: frozenset[tuple[Label, int, Label]]  # (state, agent, state)

    def step(self, states: frozenset[Label], letter: int) -> frozenset[Label]:
        return frozenset(
            t for (s, a, t) in self.transitions if a == letter and s in states
        )

    def accepts(self, word: Sequence[int]) -> bool:
        current = frozenset({self.initial})
        for letter in word:
            current = self.step(current, letter)
            if not current:
                return False
        return self.final in current


def automaton_of(s: LabelledSequent, start: Label, end: Label) -> PropagationAutomaton:
    states = frozenset(s.labels())
    if start not in states or end not in states:
        raise ValueError(f"labels w{start}, w{end} must occur in the sequent")
    transitions = set()
    for agent, src, tgt in s.rel:
        transitions.add((src, agent, tgt))
        transitions.add((tgt, agent, src))
    return PropagationAutomaton(
        states=states, initial=start, final=end, transitions=frozenset(transitions)
    )

W, U, V, Z = 0, 1, 2, 3


def example_one():
    """Four labels in a line: R_1 wu, R_2 uv, R_1 vz."""
    return LabelledSequent(
        rel=[RelAtom(1, W, U), RelAtom(2, U, V), RelAtom(1, V, Z)],
        forms=[LabelledFormula(W, Atom("p"))],
    )


def small_sequents(max_agents: int = 2):
    label = st.integers(min_value=0, max_value=4)
    rel = st.builds(
        RelAtom, st.integers(min_value=1, max_value=max_agents), label, label
    )
    return st.builds(
        LabelledSequent,
        st.lists(rel, max_size=6),
        st.lists(st.builds(LabelledFormula, label, st.just(Atom("p"))), min_size=1, max_size=3),
    )


# ---------------------------------------------------------------------------
# The automaton
# ---------------------------------------------------------------------------


def test_automaton_states_and_endpoints():
    aut = automaton_of(example_one(), W, Z)
    assert aut.states == frozenset({W, U, V, Z})
    assert aut.initial == W
    assert aut.final == Z


def test_automaton_transitions_are_symmetric():
    aut = automaton_of(example_one(), W, Z)
    assert (W, 1, U) in aut.transitions
    assert (U, 1, W) in aut.transitions
    assert len(aut.transitions) == 6  # three atoms, both directions


def test_automaton_word_acceptance():
    aut = automaton_of(example_one(), W, Z)
    assert aut.accepts((1, 2, 1))  # w -1-> u -2-> v -1-> z
    assert not aut.accepts((1, 1, 1))
    assert not aut.accepts(())  # start and end differ
    assert automaton_of(example_one(), U, U).accepts(())


def test_automaton_requires_known_labels():
    with pytest.raises(ValueError):
        automaton_of(example_one(), W, 9)


# ---------------------------------------------------------------------------
# The side condition
# ---------------------------------------------------------------------------


def test_side_condition_on_the_example():
    s = example_one()
    # No word in <1>* reaches z from w: the 2-labelled edge breaks the path.
    assert not side_condition_holds(s, 1, W, Z)
    assert side_condition_holds(s, 1, W, U)
    assert side_condition_holds(s, 2, U, V)
    assert not side_condition_holds(s, 2, W, U)


def test_side_condition_is_reflexive_without_edges():
    s = LabelledSequent(forms=[LabelledFormula(W, Atom("p"))])
    assert side_condition_holds(s, 1, W, W)


@given(small_sequents(), st.integers(min_value=1, max_value=2))
def test_side_condition_is_an_equivalence(s, agent):
    labels = s.labels()
    for w in labels:
        assert side_condition_holds(s, agent, w, w)
        for u in labels:
            assert side_condition_holds(s, agent, w, u) == side_condition_holds(
                s, agent, u, w
            )


@given(small_sequents(max_agents=1), st.lists(st.builds(
    RelAtom, st.just(1), st.integers(0, 4), st.integers(0, 4)), max_size=3))
def test_side_condition_is_monotone_in_the_relational_atoms(s, extra):
    """Adding relational atoms never severs an existing connection."""
    t = s.changed(rel=extra)
    for w in s.labels():
        for u in s.labels():
            if side_condition_holds(s, 1, w, u):
                assert side_condition_holds(t, 1, w, u)


@given(small_sequents(), st.integers(min_value=1, max_value=2))
def test_side_condition_matches_string_enumeration(s, agent):
    """Brute force over <i>^k words up to the label count agrees exactly."""
    labels = s.labels()
    for w in labels:
        for u in labels:
            aut = automaton_of(s, w, u)
            by_strings = any(
                aut.accepts((agent,) * k) for k in range(len(labels) + 1)
            )
            assert side_condition_holds(s, agent, w, u) == by_strings


def test_side_condition_requires_known_labels():
    with pytest.raises(ValueError):
        side_condition_holds(example_one(), 1, W, 9)


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def test_same_component_on_the_example():
    s = example_one()
    assert set(components(s, 1)) == {
        frozenset({W, U}),
        frozenset({V, Z}),
    }
    assert set(components(s, 2)) == {
        frozenset({U, V}),
        frozenset({W}),
        frozenset({Z}),
    }


def test_same_component_without_edges_is_all_singletons():
    s = LabelledSequent(
        forms=[LabelledFormula(W, Atom("p")), LabelledFormula(U, Atom("p"))]
    )
    assert set(components(s, 1)) == {frozenset({W}), frozenset({U})}


@given(small_sequents(), st.integers(min_value=1, max_value=2))
def test_components_agree_with_the_side_condition(s, agent):
    blocks = components(s, agent)
    block_of = {w: block for block in blocks for w in block}
    for w in s.labels():
        for u in s.labels():
            assert (block_of[w] is block_of[u]) == side_condition_holds(
                s, agent, w, u
            )
