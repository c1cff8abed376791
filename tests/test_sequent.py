"""Tests for labelled sequents, their graphs, and the choice-tree reference
in ``tests/forests.py``."""

import pytest
from forests import choice_trees, is_forestlike, tree_of
from hypothesis import assume, given
from hypothesis import strategies as st

from stitprover import (
    Atom,
    Box,
    LabelledFormula,
    LabelledSequent,
    NegAtom,
    ProverConfig,
    RelAtom,
    graph_of,
    prove,
    sequent_from_json,
    sequent_to_json,
)

W, U, V, Z = 0, 1, 2, 3
P = Atom("p")


def seq(rel=(), forms=()):
    return LabelledSequent(rel=rel, forms=forms)


def small_sequents(max_agents: int = 2):
    """Strategy over arbitrary (not necessarily forestlike) sequents."""
    label = st.integers(min_value=0, max_value=4)
    rel = st.builds(
        RelAtom, st.integers(min_value=1, max_value=max_agents), label, label
    )
    form = st.builds(
        LabelledFormula, label, st.sampled_from([P, NegAtom("p"), Box(P)])
    )
    return st.builds(
        LabelledSequent,
        st.lists(rel, max_size=6),
        st.lists(form, min_size=1, max_size=4),
    )


# ---------------------------------------------------------------------------
# Set semantics
# ---------------------------------------------------------------------------


def test_duplicates_collapse():
    s = seq(
        rel=[RelAtom(1, W, U), RelAtom(1, W, U)],
        forms=[LabelledFormula(W, P), LabelledFormula(W, P)],
    )
    assert s.rel == (RelAtom(1, W, U),)
    assert s.forms == (LabelledFormula(W, P),)


def test_equality_ignores_insertion_order():
    a = seq(forms=[LabelledFormula(W, P), LabelledFormula(U, P)])
    b = seq(forms=[LabelledFormula(U, P), LabelledFormula(W, P)])
    assert a == b
    assert hash(a) == hash(b)


def test_membership_and_per_label_listing():
    s = seq(
        rel=[RelAtom(1, W, U)],
        forms=[LabelledFormula(W, P), LabelledFormula(U, NegAtom("p"))],
    )
    assert s.has_rel(RelAtom(1, W, U))
    assert not s.has_rel(RelAtom(1, U, W))  # relational atoms are directed
    assert s.has_form(W, P)
    assert not s.has_form(U, P)
    assert s.forms_at(U) == (NegAtom("p"),)


def test_labels_cover_rel_and_forms():
    s = seq(rel=[RelAtom(1, U, Z)], forms=[LabelledFormula(W, P)])
    assert s.labels() == (W, U, Z)


def test_a_change_is_pure():
    s = seq(forms=[LabelledFormula(W, P)])
    t = s.changed(rel=[RelAtom(1, W, U)], forms=[LabelledFormula(U, P)])
    assert s == seq(forms=[LabelledFormula(W, P)])
    assert t.has_rel(RelAtom(1, W, U)) and t.has_form(U, P)


def test_slots_can_be_neither_assigned_nor_deleted():
    """A search's stable sequent carries its stability mark; assigning to a
    slot would keep the mark on a sequent the search never saw."""
    stable = prove(ProverConfig(), Box(P)).stable
    before = LabelledSequent(stable.rel, stable.forms)
    for s in (seq(forms=[LabelledFormula(W, P)]), stable):
        for name in LabelledSequent.__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(s, name, getattr(s, name))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(s, name)
        with pytest.raises(AttributeError, match="immutable"):
            s.extra = 1
    assert stable == before and stable._stable_at == 0


@given(small_sequents(), st.data())
def test_a_change_keeps_entries_and_sets_in_agreement(s, data):
    """Whatever ``changed`` is passed, even an addition the sequent holds or
    repeats and a loss it lacks, its result holds each entry once, and the
    sets it compares and hashes by are those of its entries."""
    more = data.draw(small_sequents())
    less = data.draw(small_sequents())
    t = s.changed(more.rel + more.rel, more.forms + s.forms, less.rel, less.forms)
    kept_rel = [x for x in s.rel if x not in less.rel]
    kept_forms = [x for x in s.forms if x not in less.forms]
    assert t.rel == tuple(dict.fromkeys(kept_rel + list(more.rel)))
    assert t.forms == tuple(dict.fromkeys(kept_forms + list(more.forms) + list(s.forms)))
    assert t == LabelledSequent(t.rel, t.forms) and hash(t) == hash(LabelledSequent(t.rel, t.forms))


def test_a_change_removes_one_formula():
    s = seq(forms=[LabelledFormula(W, P), LabelledFormula(U, P)])
    t = s.changed(lost_forms=[LabelledFormula(W, P)])
    assert not t.has_form(W, P)
    assert t.has_form(U, P)


# ---------------------------------------------------------------------------
# Graphs and forests
# ---------------------------------------------------------------------------


def example_two():
    """Four labels joined by three relational atoms into a single tree."""
    return seq(
        rel=[RelAtom(1, W, U), RelAtom(2, U, V), RelAtom(1, V, Z)],
        forms=[LabelledFormula(W, P)],
    )


def test_graph_of_example():
    g = graph_of(example_two())
    assert g.vertices == frozenset({W, U, V, Z})
    assert g.edges == frozenset({(W, U, 1), (U, V, 2), (V, Z, 1)})


def test_forestlike_accepts_trees_and_isolated_labels():
    assert is_forestlike(seq())
    assert is_forestlike(seq(forms=[LabelledFormula(W, P)]))
    assert is_forestlike(example_two())


def test_forestlike_rejects_a_two_cycle():
    s = seq(rel=[RelAtom(1, W, U), RelAtom(1, U, W)])
    assert not is_forestlike(s)


def test_forestlike_rejects_in_degree_two():
    s = seq(rel=[RelAtom(1, W, V), RelAtom(1, U, V)])
    assert not is_forestlike(s)


def test_forestlike_ignores_agent_indices_on_parallel_edges():
    # Two atoms over the same ordered pair collapse to one edge.
    s = seq(rel=[RelAtom(1, W, U), RelAtom(2, W, U)])
    assert is_forestlike(s)


def test_choice_trees_of_the_example():
    (tree,) = choice_trees(example_two())
    assert tree.root == W
    assert tree.members == frozenset({W, U, V, Z})


def test_choice_trees_split_disconnected_labels():
    s = example_two().changed(forms=[LabelledFormula(9, P)])
    roots = [t.root for t in choice_trees(s)]
    assert roots == [W, 9]


def test_choice_trees_reject_non_forests():
    s = seq(rel=[RelAtom(1, W, U), RelAtom(1, U, W)])
    with pytest.raises(ValueError):
        choice_trees(s)


def test_tree_of_is_the_connected_component():
    s = example_two().changed(forms=[LabelledFormula(9, P)])
    assert tree_of(s, U) == frozenset({W, U, V, Z})
    assert tree_of(s, 9) == frozenset({9})
    with pytest.raises(ValueError):
        tree_of(s, 7)


@given(small_sequents(max_agents=1))
def test_tree_count_matches_labels_minus_edges(s):
    """On forests every distinct edge merges exactly two trees."""
    assume(is_forestlike(s))
    edges = {(a.source, a.target) for a in s.rel}
    assert len(choice_trees(s)) == len(s.labels()) - len(edges)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@given(small_sequents())
def test_json_round_trip(s):
    assert sequent_from_json(sequent_to_json(s), agents=2) == s


def test_show_is_readable():
    s = example_two()
    text = s.show()
    assert "R_1 w0 w1" in text
    assert "w0: p" in text
