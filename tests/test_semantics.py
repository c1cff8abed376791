"""Tests for models: frame checking, evaluation, extraction, enumeration."""

import itertools
import json
import time

import pytest
from hypothesis import given, settings
from json_mutants import mutants
from raw_models import enumerate_models

from stitprover import (
    AgBox,
    AgDia,
    Atom,
    Box,
    CounterModel,
    Dia,
    LabelledFormula,
    LabelledSequent,
    Model,
    NegAtom,
    Or,
    Provable,
    ProverConfig,
    Unprovable,
    Valid,
    ValidUpToBound,
    check_frame,
    decide_by_enumeration,
    enumerate_formulas,
    evaluate,
    extract_countermodel,
    model_from_json,
    model_to_json,
    parse,
    pretty,
    prove,
)
from stitprover.formula import agents_of, atoms
from stitprover.semantics import (
    _bits,
    _reduced_models,
    default_world_bound,
)

P = Atom("p")


def cells_to_rel(*blocks):
    return frozenset((u, v) for block in blocks for u in block for v in block)


# ---------------------------------------------------------------------------
# Frame conditions
# ---------------------------------------------------------------------------


def test_singleton_frames_satisfy_everything():
    m = Model(worlds=(0,), rel={1: frozenset({(0, 0)})}, val={})
    assert check_frame(m, agents=1, choices=0).ok
    assert check_frame(m, agents=1, choices=1).ok


def test_non_equivalence_relations_are_reported():
    m = Model(worlds=(0, 1), rel={1: frozenset({(0, 0), (0, 1), (1, 1)})}, val={})
    report = check_frame(m, agents=1, choices=0)
    assert not report.ok
    assert any("symmetric" in v for v in report.violations)


def test_choice_bound_counts_equivalence_classes():
    two_classes = Model(worlds=(0, 1), rel={1: cells_to_rel({0}, {1})}, val={})
    assert check_frame(two_classes, agents=1, choices=0).ok
    assert check_frame(two_classes, agents=1, choices=2).ok
    report = check_frame(two_classes, agents=1, choices=1)
    assert not report.ok
    assert any("choice cells" in v for v in report.violations)


def test_independence_of_agents_is_required():
    aligned = Model(
        worlds=(0, 1),
        rel={1: cells_to_rel({0}, {1}), 2: cells_to_rel({0, 1})},
        val={},
    )
    assert check_frame(aligned, agents=2, choices=0).ok

    crossed = Model(
        worlds=(0, 1),
        rel={1: cells_to_rel({0}, {1}), 2: cells_to_rel({0}, {1})},
        val={},
    )
    report = check_frame(crossed, agents=2, choices=0)
    assert not report.ok
    assert any("independence" in v for v in report.violations)


def test_missing_relations_and_empty_domains_are_reported():
    assert not check_frame(Model(worlds=(), rel={}, val={}), 1, 0).ok
    assert not check_frame(Model(worlds=(0,), rel={}, val={}), 1, 0).ok


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def split_model():
    """Two worlds in distinct choice cells; p holds only at world 0."""
    return Model(
        worlds=(0, 1),
        rel={1: cells_to_rel({0}, {1})},
        val={"p": frozenset({0}), "q": frozenset()},
    )


def test_historic_modalities_are_global():
    m = split_model()
    assert not evaluate(m, 0, Box(P))
    assert evaluate(m, 0, Dia(P))
    assert evaluate(m, 1, Dia(P))


def test_agentive_modalities_are_cell_local():
    m = split_model()
    assert evaluate(m, 0, parse("[1] p"))
    assert not evaluate(m, 1, parse("<1> p"))


def test_evaluation_on_a_two_agent_line():
    # Cells: agent 1 groups {0,1} and {2,3}; agent 2 groups {1,2} alone.
    m = Model(
        worlds=(0, 1, 2, 3),
        rel={
            1: cells_to_rel({0, 1}, {2, 3}),
            2: cells_to_rel({1, 2}, {0}, {3}),
        },
        val={"p": frozenset({1})},
    )
    agdia_p = parse("<1> p", agents=2)
    assert evaluate(m, 0, agdia_p) and evaluate(m, 1, agdia_p)
    assert not evaluate(m, 2, agdia_p) and not evaluate(m, 3, agdia_p)
    assert evaluate(m, 2, parse("<2> p", agents=2))
    assert not evaluate(m, 0, parse("<2> p", agents=2))


def test_missing_atoms_evaluate_false():
    m = split_model()
    assert not evaluate(m, 0, Atom("r"))
    assert evaluate(m, 0, NegAtom("r"))


# ---------------------------------------------------------------------------
# Counter-model extraction
# ---------------------------------------------------------------------------


def test_extraction_from_a_one_label_sequent():
    stable = LabelledSequent(forms=[LabelledFormula(0, P)])
    model, interp = extract_countermodel(stable, 0)
    assert model.worlds == (0,)
    assert interp == {0: 0}
    assert check_frame(model, agents=1, choices=0).ok
    assert not evaluate(model, 0, P)


def test_extraction_falsifies_every_labelled_formula():
    result = prove(ProverConfig(choices=0), parse("box (p | ~q)"))
    assert isinstance(result, Unprovable)
    model, interp = extract_countermodel(result.stable, 0)
    assert check_frame(model, agents=1, choices=0).ok
    for w, f in result.stable.forms:
        assert not evaluate(model, interp[w], f)


def test_extraction_respects_the_choice_bound():
    result = prove(ProverConfig(choices=1), parse("dia [1] p & ~p"))
    assert isinstance(result, Unprovable)
    model, _ = extract_countermodel(result.stable, 0, choices=1)
    assert check_frame(model, agents=1, choices=1).ok


def test_extraction_rejects_unstable_sequents():
    not_saturated = LabelledSequent(forms=[LabelledFormula(0, Or(P, Atom("q")))])
    with pytest.raises(ValueError):
        extract_countermodel(not_saturated, 0)


def test_extraction_rejects_unknown_goal_labels():
    stable = LabelledSequent(forms=[LabelledFormula(0, P)])
    with pytest.raises(ValueError):
        extract_countermodel(stable, 3)


def test_extraction_asks_is_stable_unless_the_search_found_that_bound(monkeypatch):
    """The search's stable sequent is trusted at its own bound only; a copy
    of it, or another bound, takes the full guard."""
    from stitprover import prover

    asked = []
    honest = prover.is_stable
    monkeypatch.setattr(
        prover, "is_stable", lambda s, n: asked.append(n) or honest(s, n)
    )
    stable = prove(ProverConfig(choices=2), parse("dia [1] p & ~p")).stable
    trusted, _ = extract_countermodel(stable, 0, choices=2)
    assert asked == []
    copy = LabelledSequent(stable.rel, stable.forms)
    assert copy == stable
    assert extract_countermodel(copy, 0, choices=2)[0] == trusted
    assert asked == [2]
    assert extract_countermodel(stable, 0, choices=3)[0] == trusted
    assert asked == [2, 3]


def test_a_stable_sequent_is_not_trusted_at_another_bound():
    """``box p`` at n = 0 ends in two trees, w0 and w1; at n = 1 the choice
    rule fires on them, so the sequent is not stable there."""
    stable = prove(ProverConfig(choices=0), parse("box p")).stable
    assert stable.labels() == (0, 1) and stable.rel == ()
    extract_countermodel(stable, 0, choices=0)
    with pytest.raises(ValueError, match="needs a stable sequent"):
        extract_countermodel(stable, 0, choices=1)


def test_a_hand_made_unstable_sequent_is_refused():
    unstable = LabelledSequent(forms=[LabelledFormula(0, parse("[1] p"))])
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="needs a stable sequent"):
            extract_countermodel(unstable, 0, choices=n)


# ---------------------------------------------------------------------------
# The enumeration oracle
# ---------------------------------------------------------------------------


def test_an_atom_fails_in_a_one_world_model():
    result = decide_by_enumeration(P)
    assert isinstance(result, CounterModel)
    assert result.model.worlds == (0,)
    assert not evaluate(result.model, result.world, P)


def test_reflexive_historic_necessity_is_valid():
    result = decide_by_enumeration(parse("box p -> p"))
    assert result == Valid(bound=1)


def test_counter_models_satisfy_the_frame_conditions():
    result = decide_by_enumeration(parse("dia p -> box p"))
    assert isinstance(result, CounterModel)
    assert check_frame(result.model, agents=1, choices=0).ok


def test_choice_bounds_change_verdicts():
    goal = parse("dia [1] p -> p")
    assert isinstance(decide_by_enumeration(goal), CounterModel)
    assert isinstance(decide_by_enumeration(goal, choices=1), Valid)
    assert isinstance(decide_by_enumeration(goal, choices=2), CounterModel)


def test_default_world_bound_counts_universal_occurrences():
    assert default_world_bound(P) == 1
    assert default_world_bound(parse("box p & [1] q")) == 4
    assert default_world_bound(parse("dia p")) == 1
    # Several agents: a search limit of one world per box and [i], plus one.
    two = parse("dia [1] p & dia [2] q -> dia ([1] p & [2] q)", agents=2)
    assert default_world_bound(two) == 5
    # A shared subformula counts once per occurrence: f | box f, 40 times
    # over, holds 2 ** 40 - 1 boxes in 81 distinct nodes.
    shared = parse("box p & [1] q")
    assert default_world_bound(Or(shared, Or(shared, P))) == 9
    f = P
    for _ in range(40):
        f = Or(f, Box(f))
    assert default_world_bound(f) == 2 ** 40


# The old world bound, one world per box and [1] occurrence plus one, is 7
# for this goal, yet its smallest counter-model has 8 worlds.
EIGHT_WORLDS = (
    "dia ([1] ~p | [1] p) | box <1> (~q | ~r) | box <1> (~q | r)"
    " | box <1> (q | ~r) | box <1> (q | r)"
)


def test_the_world_bound_reaches_an_eight_world_counter_model():
    goal = parse(EIGHT_WORLDS)
    model = Model(
        worlds=tuple(range(8)),
        rel={1: cells_to_rel({0, 1}, {2, 3}, {4, 5}, {6, 7})},
        val={
            "p": frozenset({1, 3, 5, 7}),
            "q": frozenset({2, 3, 6, 7}),
            "r": frozenset({4, 5, 6, 7}),
        },
    )
    assert check_frame(model, agents=1, choices=0).ok
    assert not evaluate(model, 0, goal)
    assert default_world_bound(goal) >= 8
    result = decide_by_enumeration(goal)
    assert isinstance(result, CounterModel)
    assert len(result.model.worlds) == 8
    assert check_frame(result.model, agents=1, choices=0).ok
    assert not evaluate(result.model, result.world, goal)
    # The search refutes it too, with a model read off its stable sequent.
    searched = prove(ProverConfig(choices=0), goal)
    assert isinstance(searched, Unprovable)
    extracted, interp = extract_countermodel(searched.stable, 0, 0)
    assert check_frame(extracted, agents=1, choices=0).ok
    assert not evaluate(extracted, interp[0], goal)


def test_truncated_search_is_reported_as_incomplete():
    goal = parse("box (p & q) -> box p")  # valid; default bound is 2
    assert decide_by_enumeration(goal) == Valid(bound=2)
    assert decide_by_enumeration(goal, max_worlds=1) == ValidUpToBound(
        bound=1, default_bound=2
    )


def test_world_bound_must_be_positive():
    with pytest.raises(ValueError):
        decide_by_enumeration(P, max_worlds=0)


def test_the_oracle_refuses_goals_beyond_its_frame_or_atom_limit():
    with pytest.raises(ValueError, match="agent beyond 1"):
        decide_by_enumeration(parse("[2] p", agents=2), agents=1)
    many = parse(" | ".join(f"p{i}" for i in range(17)))
    with pytest.raises(ValueError, match="at most 16"):
        decide_by_enumeration(many)
    sixteen = parse(" | ".join(f"p{i}" for i in range(16)))
    assert isinstance(decide_by_enumeration(sixteen), CounterModel)


@pytest.mark.parametrize("agent", [0, -1])
def test_the_oracle_refuses_an_agent_below_one_as_the_search_does(agent):
    """The parser cannot make ``[0] p``, but code can.  Relation 0 is that of
    ``box``, so the oracle once read ``[0] p`` as ``box p`` and called this
    goal valid, where ``prove`` refuses it."""
    for modality in (AgBox, AgDia):
        goal = Or(modality(agent, P), Dia(NegAtom("p")))
        with pytest.raises(ValueError, match=f"agent {agent}; agents count from 1"):
            decide_by_enumeration(goal, agents=2)
        with pytest.raises(ValueError, match="single-agent"):
            prove(ProverConfig(choices=0), goal)


def smallest_raw_counter_model(goal, agents, choices, max_worlds):
    """The fewest worlds of a raw model falsifying ``goal``, or ``None``."""
    names = sorted(atoms(goal))
    for model in enumerate_models(names, agents, choices, max_worlds):
        if not all(evaluate(model, w, goal) for w in model.worlds):
            return len(model.worlds)
    return None


TWO_AGENT_GOALS = (
    "dia [1] p & dia [2] q -> dia ([1] p & [2] q)",
    "<1> p",
    "<2> p",
    "[1] p -> [2] p",
    "dia [1] p -> dia [2] p",
)


def test_the_oracle_matches_raw_enumeration_on_small_models():
    """Up to bisimulation or raw, the same verdict at every world bound,
    and counter-models with the same, smallest number of worlds.  With no
    counter-model, the oracle claims validity only at or above the default
    bound of a goal that mentions one agent at most."""
    cases = [(goal, 1) for goal in enumerate_formulas(2)]
    cases += [(parse(text, agents=2), 2) for text in TWO_AGENT_GOALS]
    for goal, agents in cases:
        for n in (0, 1, 2):
            smallest = smallest_raw_counter_model(goal, agents, n, 3)
            default = default_world_bound(goal)
            for max_worlds in (1, 2, 3):
                result = decide_by_enumeration(goal, agents, n, max_worlds)
                where = (pretty(goal), agents, n, max_worlds)
                if smallest is not None and smallest <= max_worlds:
                    assert isinstance(result, CounterModel), where
                    assert len(result.model.worlds) == smallest, where
                    assert check_frame(result.model, agents, n).ok, where
                    assert not evaluate(result.model, result.world, goal), where
                elif max_worlds < default or len(agents_of(goal)) > 1:
                    assert result == ValidUpToBound(max_worlds, default), where
                else:
                    assert result == Valid(max_worlds), where


def bisimulation_class(worlds, type_of, cell_of, agents):
    """With one agent, a model's set of cells, each as its set of types;
    with two, its grid of blocks (agent-1 cell by agent-2 cell), each as its
    set of types, up to reordering rows and columns."""
    if agents == 1:
        return frozenset(
            frozenset(type_of(v) for v in cell_of(1, w)) for w in worlds
        )
    rows = list({cell_of(1, w) for w in worlds})
    cols = list({cell_of(2, w) for w in worlds})
    return min(
        tuple(
            tuple(tuple(sorted({type_of(v) for v in rows[r] & cols[c]})) for c in cs)
            for r in rs
        )
        for rs in itertools.permutations(range(len(rows)))
        for cs in itertools.permutations(range(len(cols)))
    )


def raw_class(model, names, agents):
    def type_of(w):
        return sum(1 << i for i, name in enumerate(names) if w in model.val[name])

    def cell_of(agent, w):
        return frozenset(v for u, v in model.rel[agent] if u == w)

    return bisimulation_class(model.worlds, type_of, cell_of, agents)


def listed_classes(agents, choices, count, types):
    """The class of every model the oracle walks with ``count`` worlds."""
    for full, meets in _reduced_models(agents, choices, count, types):
        while full:
            first = full & -full
            worlds = _bits(meets(0, first))
            assert len(worlds) == count
            yield bisimulation_class(
                worlds,
                lambda w: w % (types + 1),
                lambda agent, w: frozenset(_bits(meets(agent, 1 << w))),
                agents,
            )
            full ^= meets(0, first)


@pytest.mark.parametrize(
    "agents, choices, max_worlds",
    [(1, 0, 5), (1, 1, 4), (1, 2, 5), (2, 0, 4), (2, 1, 3), (2, 2, 4)],
)
def test_the_oracle_walks_every_raw_model_up_to_bisimulation(
    agents, choices, max_worlds
):
    """Every raw model reduces to a walked one with no more worlds, every
    walked model is a raw one, and with one agent none is walked twice."""
    names = ("p", "q")
    raw = {
        raw_class(model, names, agents)
        for model in enumerate_models(names, agents, choices, max_worlds)
    }
    listed = [
        found
        for count in range(1, max_worlds + 1)
        for found in listed_classes(agents, choices, count, 1 << len(names))
    ]
    assert set(listed) == raw
    if agents == 1:
        assert len(listed) == len(raw)


def test_two_agent_independence_axiom_is_valid():
    """The axiom is valid, and the oracle finds no counter-model up to its
    bound of 5 worlds; but that bound has no proof for two agents, so the
    oracle does not claim validity."""
    goal = parse("dia [1] p & dia [2] q -> dia ([1] p & [2] q)", agents=2)
    result = decide_by_enumeration(goal, agents=2)
    assert result == ValidUpToBound(bound=5, default_bound=5)


def test_the_oracle_claims_no_validity_for_a_two_agent_goal_it_cannot_prove():
    """The bound ``1 + h + a`` is 3 here, yet independence needs one world
    in each of the four blocks that the two ``dia``s force: at 3 worlds the
    oracle finds nothing, at 4 a counter-model."""
    goal = parse("!([1] p & dia [1] ~p & [2] r & dia [2] ~r)", agents=2)
    assert default_world_bound(goal) == 3
    assert decide_by_enumeration(goal, agents=2) == ValidUpToBound(3, 3)
    found = decide_by_enumeration(goal, agents=2, max_worlds=4)
    assert isinstance(found, CounterModel)
    assert len(found.model.worlds) == 4
    assert check_frame(found.model, agents=2, choices=0).ok
    assert not evaluate(found.model, found.world, goal)


def test_the_oracle_skips_a_shape_of_cells_before_listing_its_blocks():
    """With 16 agents, most shapes of cells have more blocks than the bound
    of 2 worlds; they are skipped before their blocks are listed, so the
    goal is decided in well under a second.  At 3 agents the counter-model
    above is still the one found: a block per cell of agents 1 and 2."""
    start = time.perf_counter()
    assert decide_by_enumeration(parse("box p | dia ~p"), agents=16) == Valid(bound=2)
    assert time.perf_counter() - start < 1.0
    goal = parse("!([1] p & dia [1] ~p & [2] r & dia [2] ~r)", agents=3)
    found = decide_by_enumeration(goal, agents=3, max_worlds=4)
    assert isinstance(found, CounterModel) and found.world == 3
    assert found.model.worlds == (0, 1, 2, 3)
    assert found.model.rel == {
        1: cells_to_rel({0, 1}, {2, 3}),
        2: cells_to_rel({0, 2}, {1, 3}),
        3: cells_to_rel({0, 1, 2, 3}),
    }
    assert found.model.val == {"p": frozenset({2, 3}), "r": frozenset({1, 3})}


def test_no_two_agent_verdict_changes_two_worlds_past_the_default_bound():
    """Of the goals of up to three connectives over p, q that mention both
    agents, those with no counter-model up to the default bound, which has
    no completeness proof for two agents, have none at that bound + 2
    either."""
    goals = [
        g for g in enumerate_formulas(3, ("p", "q"), agents=2) if agents_of(g) == {1, 2}
    ]
    unrefuted = [
        g for g in goals
        if isinstance(decide_by_enumeration(g, agents=2), ValidUpToBound)
    ]
    refuted_later = [
        g for g in unrefuted
        if isinstance(
            decide_by_enumeration(g, agents=2, max_worlds=default_world_bound(g) + 2),
            CounterModel,
        )
    ]
    assert (len(goals), len(unrefuted), len(refuted_later)) == (1952, 88, 0)


# ---------------------------------------------------------------------------
# Raw model enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_for_one_atom():
    assert sum(1 for _ in enumerate_models(("p",), max_worlds=1)) == 2
    assert sum(1 for _ in enumerate_models(("p",), max_worlds=2)) == 10
    assert sum(1 for _ in enumerate_models(("p",), choices=1, max_worlds=2)) == 6


def test_enumerated_models_pass_the_frame_check():
    for model in enumerate_models(("p",), agents=2, choices=0, max_worlds=2):
        assert check_frame(model, agents=2, choices=0).ok


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_model_json_round_trip():
    m = Model(
        worlds=(0, 1),
        rel={1: cells_to_rel({0, 1})},
        val={"p": frozenset({1})},
    )
    again = model_from_json(model_to_json(m))
    assert again == m


def model_json(**changes):
    obj = {"worlds": [0, 1], "rel": {"1": [[0, 0], [1, 1]]}, "val": {"p": [1]}}
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "obj, field",
    [
        pytest.param(model_json(worlds=["0"]), r"worlds\[0\] should be an int, not str",
                     id="obj0-world in worlds should be an int, not str"),
        pytest.param(model_json(worlds=[True]), r"worlds\[0\] should be an int, not bool",
                     id="obj1-world in worlds should be an int, not bool"),
        pytest.param(model_json(worlds=[1.9]), r"worlds\[0\] should be an int, not float",
                     id="obj2-world in worlds should be an int, not float"),
        (model_json(worlds={"0": 0}), "worlds should be an array, not dict"),
        pytest.param(model_json(val={1: [1]}), "val key 1 should be a string, not int",
                     id="obj4-atom name should be a string, not int"),
        pytest.param(model_json(val={"p": [True]}), r"val.p\[0\] should be an int, not bool",
                     id="obj5-world in val of p should be an int"),
        pytest.param(model_json(val={"p": 1}), "val.p should be an array, not int",
                     id="obj6-val of p should be an array"),
        pytest.param(model_json(rel={"1": [[0, "0"]]}), r"rel.1\[0\]\[1\] should be an int, not str",
                     id="obj7-world in pair of agent 1 should be an int"),
        pytest.param(model_json(rel={"1": [[0, 0, 0]]}), r"rel.1\[0\] should hold 2 values, not 3",
                     id="obj8-pair of agent 1 should hold two worlds"),
        (model_json(rel={"01": [[0, 0]]}), "rel key should be an agent"),
        (model_json(rel={" 1": [[0, 0]]}), "rel key should be an agent"),
        (model_json(rel={1: [[0, 0]]}), "rel key should be an agent"),
        pytest.param(model_json(extra=1), "model has an unknown key 'extra'",
                     id="obj12-model keys should be 'rel', 'val', 'worlds'"),
        pytest.param({"worlds": [0], "rel": {}}, "model lacks the key 'val'",
                     id="obj13-model keys should be 'rel', 'val', 'worlds'"),
        ([], "model should be an object"),
        pytest.param(model_json(rel={"1": [[0, 0], [1, 1], [0, 0]]}),
                     r"rel.1\[2\] repeats an earlier entry",
                     id="obj15-rel of agent 1 repeats \\[0, 0\\]"),
        pytest.param(model_json(val={"p": [1, 1]}), r"val.p\[1\] repeats an earlier entry",
                     id="obj16-val of p repeats 1"),
        pytest.param(model_json(worlds=[0, 1, 0]), r"worlds\[2\] repeats an earlier entry",
                     id="obj17-worlds repeats 0"),
    ],
)
def test_the_model_reader_refuses_what_the_writer_never_writes(obj, field):
    with pytest.raises(ValueError, match=field):
        model_from_json(obj)


def test_the_model_reader_reads_what_the_writer_writes():
    assert model_to_json(model_from_json(model_json())) == model_json()


def _written_models() -> list[dict]:
    """What `model_to_json` writes for the counter-models of two goals."""
    written = []
    for text in ("dia [1] p & dia (~p & [1] q) -> p | q", "box (p | q) | [1] ~p"):
        result = prove(ProverConfig(choices=0), parse(text))
        model, _ = extract_countermodel(result.stable, 0, 0)
        written.append(model_to_json(model))
    return written


def _in_written_order(obj: dict) -> dict:
    """``obj`` with each agent's pairs and each atom's worlds ascending, as
    `model_to_json` sorts them."""
    return {
        "worlds": obj["worlds"],
        "rel": {agent: sorted(pairs) for agent, pairs in obj["rel"].items()},
        "val": {name: sorted(worlds) for name, worlds in obj["val"].items()},
    }


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutants(_written_models()))
def test_the_model_reader_takes_only_what_reads_back_as_written(obj):
    """One edit to a written model, at any path.  The reader raises
    `ValueError` and nothing else, or takes a model that `model_to_json`
    writes back as the same text, up to its sorting, and whose every world
    is an `int`: a `true` read as a world, kept a `bool` or made an `int`,
    or a repeated pair dropped, would show."""
    try:
        model = model_from_json(obj)
    except ValueError:
        return
    assert json.dumps(model_to_json(model), sort_keys=True) == json.dumps(
        _in_written_order(obj), sort_keys=True
    )
    related = [w for pairs in model.rel.values() for pair in pairs for w in pair]
    valued = [w for worlds in model.val.values() for w in worlds]
    assert all(type(w) is int for w in [*model.worlds, *related, *valued])
