"""Tests for the proof checker: rule shapes, modes, fixtures, soundness."""

import itertools
import json
from collections import Counter
from dataclasses import replace

import pytest
from raw_models import enumerate_models

from stitprover import (
    AgBox,
    AgDia,
    And,
    Atom,
    Box,
    CalculusConfig,
    CheckResult,
    Derivation,
    Dia,
    LabelledFormula,
    LabelledSequent,
    Mode,
    NegAtom,
    Or,
    Provable,
    ProverConfig,
    RelAtom,
    RuleTag,
    check_derivation,
    check_inference,
    derivation_from_json,
    derivation_to_json,
    evaluate,
    parse,
    pretty,
    prove,
    wire,
)
from stitprover.formula import atoms

P, Q = Atom("p"), Atom("q")
NP, NQ = NegAtom("p"), NegAtom("q")

G3_1 = CalculusConfig(agents=1, choices=0, mode=Mode.G3)
REFINED_1 = CalculusConfig(agents=1, choices=0, mode=Mode.REFINED)


def seq(rel=(), forms=()):
    return LabelledSequent(rel=rel, forms=forms)


def lf(label, f):
    return LabelledFormula(label, f)


def leaf(concl, label, name):
    return Derivation(concl, RuleTag.ID, {"label": label, "atom": name})


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CalculusConfig(agents=0)
    with pytest.raises(ValueError):
        CalculusConfig(choices=-1)


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------


def test_id_needs_both_polarities():
    clash = seq(forms=[lf(0, P), lf(0, NP)])
    assert check_inference(REFINED_1, leaf(clash, 0, "p")).ok
    missing = seq(forms=[lf(0, P)])
    result = check_inference(REFINED_1, leaf(missing, 0, "p"))
    assert not result.ok and "clash" in result.error


def test_id_takes_no_premises():
    clash = seq(forms=[lf(0, P), lf(0, NP)])
    node = Derivation(clash, RuleTag.ID, {"label": 0, "atom": "p"}, (leaf(clash, 0, "p"),))
    assert not check_inference(REFINED_1, node).ok


# ---------------------------------------------------------------------------
# Conjunction and disjunction
# ---------------------------------------------------------------------------


def _and_node(premises):
    concl = seq(forms=[lf(0, And(P, Q))])
    return Derivation(concl, RuleTag.AND, {"label": 0, "formula": And(P, Q)}, premises)


def _and_premises():
    concl = seq(forms=[lf(0, And(P, Q))])
    left = concl.changed(forms=[lf(0, P)])
    right = concl.changed(forms=[lf(0, Q)])
    return (
        Derivation(left, RuleTag.ID, {"label": 0, "atom": "p"}),
        Derivation(right, RuleTag.ID, {"label": 0, "atom": "q"}),
    )


def test_and_branches_on_both_conjuncts():
    assert check_inference(REFINED_1, _and_node(_and_premises())).ok


def test_and_is_premise_order_independent():
    left, right = _and_premises()
    assert check_inference(REFINED_1, _and_node((right, left))).ok


def test_and_rejects_a_missing_branch():
    left, _ = _and_premises()
    result = check_inference(REFINED_1, _and_node((left, left)))
    assert not result.ok


def test_or_adds_both_disjuncts_to_one_premise():
    concl = seq(forms=[lf(0, Or(P, NP))])
    premise = concl.changed(forms=[lf(0, P), lf(0, NP)])
    node = Derivation(
        concl, RuleTag.OR, {"label": 0, "formula": Or(P, NP)},
        (leaf(premise, 0, "p"),),
    )
    assert check_inference(REFINED_1, node).ok


def test_or_rejects_a_premise_with_only_one_disjunct():
    concl = seq(forms=[lf(0, Or(P, NP))])
    premise = concl.changed(forms=[lf(0, P)])
    node = Derivation(
        concl, RuleTag.OR, {"label": 0, "formula": Or(P, NP)},
        (leaf(premise, 0, "p"),),
    )
    assert not check_inference(REFINED_1, node).ok


# ---------------------------------------------------------------------------
# Historic modalities
# ---------------------------------------------------------------------------


def test_box_realizes_at_a_fresh_label():
    concl = seq(forms=[lf(0, Box(P))])
    premise = concl.changed(forms=[lf(1, P)])
    node = Derivation(
        concl, RuleTag.BOX, {"label": 0, "formula": Box(P), "fresh": 1},
        (leaf(premise, 1, "p"),),
    )
    assert check_inference(REFINED_1, node).ok


def test_box_rejects_a_stale_eigenvariable():
    concl = seq(forms=[lf(0, Box(P)), lf(1, Q)])
    premise = concl.changed(forms=[lf(1, P)])
    node = Derivation(
        concl, RuleTag.BOX, {"label": 0, "formula": Box(P), "fresh": 1},
        (leaf(premise, 1, "p"),),
    )
    result = check_inference(REFINED_1, node)
    assert not result.ok and "eigenvariable" in result.error


def test_dia_propagates_to_an_existing_label():
    concl = seq(forms=[lf(0, Dia(P)), lf(1, Q)])
    premise = concl.changed(forms=[lf(1, P)])
    node = Derivation(
        concl, RuleTag.DIA, {"label": 0, "formula": Dia(P), "witness": 1},
        (leaf(premise, 1, "p"),),
    )
    assert check_inference(REFINED_1, node).ok


def test_dia_rejects_an_unknown_witness():
    concl = seq(forms=[lf(0, Dia(P))])
    premise = concl.changed(forms=[lf(1, P)])
    node = Derivation(
        concl, RuleTag.DIA, {"label": 0, "formula": Dia(P), "witness": 1},
        (leaf(premise, 1, "p"),),
    )
    result = check_inference(REFINED_1, node)
    assert not result.ok and "witness" in result.error


# ---------------------------------------------------------------------------
# Agentive modalities: the two modes differ on retention
# ---------------------------------------------------------------------------


def _agbox_node(premise_seq):
    concl = seq(forms=[lf(0, AgBox(1, P))])
    return Derivation(
        concl,
        RuleTag.AGBOX,
        {"agent": 1, "label": 0, "formula": AgBox(1, P), "fresh": 1},
        (Derivation(premise_seq, RuleTag.ID, {"label": 1, "atom": "p"}),),
    )


def test_agbox_keeps_the_principal_in_refined_mode():
    concl = seq(forms=[lf(0, AgBox(1, P))])
    kept = concl.changed(rel=[RelAtom(1, 0, 1)], forms=[lf(1, P)])
    dropped = seq(rel=[RelAtom(1, 0, 1)], forms=[lf(1, P)])
    assert check_inference(REFINED_1, _agbox_node(kept)).ok
    assert not check_inference(REFINED_1, _agbox_node(dropped)).ok


def test_agbox_drops_the_principal_in_g3_mode():
    concl = seq(forms=[lf(0, AgBox(1, P))])
    kept = concl.changed(rel=[RelAtom(1, 0, 1)], forms=[lf(1, P)])
    dropped = seq(rel=[RelAtom(1, 0, 1)], forms=[lf(1, P)])
    assert check_inference(G3_1, _agbox_node(dropped)).ok
    assert not check_inference(G3_1, _agbox_node(kept)).ok


def test_agdia_needs_the_relational_atom():
    with_edge = seq(rel=[RelAtom(1, 0, 1)], forms=[lf(0, AgDia(1, P))])
    premise = with_edge.changed(forms=[lf(1, P)])
    node = Derivation(
        with_edge,
        RuleTag.AGDIA,
        {"agent": 1, "label": 0, "formula": AgDia(1, P), "witness": 1},
        (leaf(premise, 1, "p"),),
    )
    assert check_inference(G3_1, node).ok

    without = seq(forms=[lf(0, AgDia(1, P)), lf(1, Q)])
    bare = Derivation(
        without,
        RuleTag.AGDIA,
        {"agent": 1, "label": 0, "formula": AgDia(1, P), "witness": 1},
        (leaf(without.changed(forms=[lf(1, P)]), 1, "p"),),
    )
    result = check_inference(G3_1, bare)
    assert not result.ok and "relational atom" in result.error


# ---------------------------------------------------------------------------
# Propagation rule and its side condition
# ---------------------------------------------------------------------------

W, U, V, Z = 0, 1, 2, 3


def example_one_with(f, at):
    return seq(
        rel=[RelAtom(1, W, U), RelAtom(2, U, V), RelAtom(1, V, Z)],
        forms=[lf(at, f)],
    )


def _prop_node(concl, witness):
    premise = concl.changed(forms=[lf(witness, P)])
    return Derivation(
        concl,
        RuleTag.PROP,
        {"agent": 1, "label": W, "formula": AgDia(1, P), "witness": witness},
        (Derivation(premise, RuleTag.ID, {"label": witness, "atom": "p"}),),
    )


def test_prop_accepts_a_reachable_witness():
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.REFINED)
    concl = example_one_with(AgDia(1, P), at=W)
    assert check_inference(cfg, _prop_node(concl, U)).ok


def test_prop_rejects_an_unreachable_witness_by_the_side_condition():
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.REFINED)
    concl = example_one_with(AgDia(1, P), at=W)
    result = check_inference(cfg, _prop_node(concl, Z))
    assert not result.ok and "side condition" in result.error


def test_agdia_nodes_recheck_as_propagation_nodes():
    """A direct relational atom is a one-letter propagation word, so every
    agentive-diamond inference survives the move to the refined calculus."""
    concl = seq(rel=[RelAtom(1, 0, 1)], forms=[lf(0, AgDia(1, P))])
    premise = concl.changed(forms=[lf(1, P)])
    principal = {"agent": 1, "label": 0, "formula": AgDia(1, P), "witness": 1}
    premises = (leaf(premise, 1, "p"),)
    as_agdia = Derivation(concl, RuleTag.AGDIA, principal, premises)
    as_prop = Derivation(concl, RuleTag.PROP, principal, premises)
    assert check_inference(G3_1, as_agdia).ok
    assert check_inference(REFINED_1, as_prop).ok


# ---------------------------------------------------------------------------
# Mode separation
# ---------------------------------------------------------------------------


def test_g3_has_no_propagation_rule():
    concl = example_one_with(AgDia(1, P), at=W)
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.G3)
    result = check_inference(cfg, _prop_node(concl, U))
    assert not result.ok and "not part" in result.error


def test_refined_has_no_structural_rules():
    concl = seq(forms=[lf(0, P)])
    refl = Derivation(
        concl, RuleTag.REFL, {"agent": 1, "label": 0},
        (leaf(concl.changed(rel=[RelAtom(1, 0, 0)]), 0, "p"),),
    )
    assert not check_inference(REFINED_1, refl).ok
    assert check_inference(G3_1, refl).ok


def test_euclidean_rule_composes_edges():
    concl = seq(rel=[RelAtom(1, 0, 1), RelAtom(1, 0, 2)], forms=[lf(0, P)])
    premise = concl.changed(rel=[RelAtom(1, 1, 2)])
    node = Derivation(
        concl,
        RuleTag.EUCL,
        {"agent": 1, "apex": 0, "source": 1, "target": 2},
        (leaf(premise, 0, "p"),),
    )
    assert check_inference(G3_1, node).ok
    assert not check_inference(REFINED_1, node).ok

    missing = seq(rel=[RelAtom(1, 0, 1)], forms=[lf(0, P)])
    broken = Derivation(
        missing,
        RuleTag.EUCL,
        {"agent": 1, "apex": 0, "source": 1, "target": 2},
        (leaf(missing.changed(rel=[RelAtom(1, 1, 2)]), 0, "p"),),
    )
    assert not check_inference(G3_1, broken).ok


# ---------------------------------------------------------------------------
# Independence of agents
# ---------------------------------------------------------------------------


def _ioa_node(cfg, concl, targets, fresh):
    premise = concl.changed(
        rel=[
            RelAtom(a, targets[(a - 1) % len(targets)], fresh)
            for a in range(1, cfg.agents + 1)
        ]
    )
    return Derivation(
        concl,
        RuleTag.IOA,
        {"targets": targets, "fresh": fresh},
        (Derivation(premise, RuleTag.ID, {"label": 0, "atom": "p"}),),
    )


def test_ioa_connects_one_target_per_agent():
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.G3)
    concl = seq(forms=[lf(0, P), lf(0, NP), lf(1, Q), lf(2, Q)])
    assert check_inference(cfg, _ioa_node(cfg, concl, (1, 2), 3)).ok


def test_ioa_rejects_wrong_target_arity_and_stale_fresh_label():
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.G3)
    concl = seq(forms=[lf(0, P), lf(0, NP), lf(1, Q), lf(2, Q)])
    assert not check_inference(cfg, _ioa_node(cfg, concl, (1,), 3)).ok
    assert not check_inference(cfg, _ioa_node(cfg, concl, (1, 2), 2)).ok


# ---------------------------------------------------------------------------
# The choice rule
# ---------------------------------------------------------------------------


def _apc_node(concl, roots, premise_seqs):
    return Derivation(
        concl,
        RuleTag.APC,
        {"agent": 1, "roots": roots},
        tuple(
            Derivation(s, RuleTag.ID, {"label": 0, "atom": "p"})
            for s in premise_seqs
        ),
    )


def test_apc_one_pairs_two_labels():
    cfg = CalculusConfig(agents=1, choices=1, mode=Mode.REFINED)
    concl = seq(forms=[lf(0, P), lf(0, NP), lf(1, Q)])
    premise = concl.changed(rel=[RelAtom(1, 0, 1)])
    assert check_inference(cfg, _apc_node(concl, (0, 1), [premise])).ok


def test_apc_two_needs_all_three_pairings():
    cfg = CalculusConfig(agents=1, choices=2, mode=Mode.REFINED)
    concl = seq(forms=[lf(0, P), lf(0, NP), lf(1, Q), lf(2, Q)])
    pairs = [(0, 1), (0, 2), (1, 2)]
    premises = [concl.changed(rel=[RelAtom(1, k, j)]) for k, j in pairs]
    assert check_inference(cfg, _apc_node(concl, (0, 1, 2), premises)).ok
    # Premise order is immaterial.
    assert check_inference(cfg, _apc_node(concl, (0, 1, 2), premises[::-1])).ok
    # Dropping or duplicating a pairing is not.
    assert not check_inference(cfg, _apc_node(concl, (0, 1, 2), premises[:2])).ok
    assert not check_inference(
        cfg, _apc_node(concl, (0, 1, 2), [premises[0]] * 3)
    ).ok


def test_apc_is_absent_at_bound_zero():
    concl = seq(forms=[lf(0, P), lf(0, NP), lf(1, Q)])
    premise = concl.changed(rel=[RelAtom(1, 0, 1)])
    node = _apc_node(concl, (0, 1), [premise])
    result = check_inference(REFINED_1, node)
    assert not result.ok and "bound" in result.error


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


def test_agents_out_of_range_are_rejected():
    bad_rel = seq(rel=[RelAtom(2, 0, 1)], forms=[lf(0, P), lf(0, NP)])
    result = check_inference(REFINED_1, leaf(bad_rel, 0, "p"))
    assert not result.ok

    bad_form = seq(forms=[lf(0, AgBox(2, P)), lf(0, P), lf(0, NP)])
    assert not check_inference(REFINED_1, leaf(bad_form, 0, "p")).ok


# ---------------------------------------------------------------------------
# Whole-derivation fixtures
# ---------------------------------------------------------------------------


def test_single_agent_choice_fixture_checks_in_g3_mode():
    """A hand derivation using the structural rules: at most one choice per
    agent forces <>[1]p -> p."""
    cfg = CalculusConfig(agents=1, choices=1, mode=Mode.G3)
    goal = parse("dia [1] p -> p")  # box <1> ~p | p in normal form
    inner = Box(AgDia(1, NP))

    s0 = seq(forms=[lf(0, goal)])
    s1 = s0.changed(forms=[lf(0, inner), lf(0, P)])
    s2 = s1.changed(forms=[lf(1, AgDia(1, NP))])
    s3 = s2.changed(rel=[RelAtom(1, 0, 1)])
    s4 = s3.changed(rel=[RelAtom(1, 0, 0)])
    s5 = s4.changed(rel=[RelAtom(1, 1, 0)])
    s6 = s5.changed(forms=[lf(0, NP)])

    root = Derivation(
        s0, RuleTag.OR, {"label": 0, "formula": goal},
        (Derivation(
            s1, RuleTag.BOX, {"label": 0, "formula": inner, "fresh": 1},
            (Derivation(
                s2, RuleTag.APC, {"agent": 1, "roots": (0, 1)},
                (Derivation(
                    s3, RuleTag.REFL, {"agent": 1, "label": 0},
                    (Derivation(
                        s4, RuleTag.EUCL,
                        {"agent": 1, "apex": 0, "source": 1, "target": 0},
                        (Derivation(
                            s5, RuleTag.AGDIA,
                            {"agent": 1, "label": 1,
                             "formula": AgDia(1, NP), "witness": 0},
                            (Derivation(s6, RuleTag.ID, {"label": 0, "atom": "p"}),),
                        ),),
                    ),),
                ),),
            ),),
        ),),
    )
    result = check_derivation(cfg, root)
    assert result.ok, (result.error, result.path)
    assert root.size() == 7


def ioa_two_agent_fixture():
    """A full two-agent derivation of <>[1]p and <>[2]q jointly realizable."""
    cfg = CalculusConfig(agents=2, choices=0, mode=Mode.G3)
    goal = parse("dia [1] p & dia [2] q -> dia ([1] p & [2] q)", agents=2)
    left = Box(AgDia(1, NP))
    right = Box(AgDia(2, NQ))
    conj = And(AgBox(1, P), AgBox(2, Q))

    s0 = seq(forms=[lf(0, goal)])
    s1 = s0.changed(forms=[lf(0, Or(left, right)), lf(0, Dia(conj))])
    s2 = s1.changed(forms=[lf(0, left), lf(0, right)])
    s3 = s2.changed(forms=[lf(1, AgDia(1, NP))])
    s4 = s3.changed(forms=[lf(2, AgDia(2, NQ))])
    s5 = s4.changed(rel=[RelAtom(1, 1, 3), RelAtom(2, 2, 3)])
    s6 = s5.changed(forms=[lf(3, conj)])

    def branch(agent, tracked, body, atom_name, source, fresh):
        """Realize the agentive box at w3, then steer the agentive diamond
        at its source label onto the fresh label via refl and eucl."""
        t0 = s6.changed(forms=[lf(3, tracked)])
        t1 = t0.changed(
            rel=[RelAtom(agent, 3, fresh)], forms=[lf(fresh, body)], lost_forms=[lf(3, tracked)]
        )
        t2 = t1.changed(rel=[RelAtom(agent, source, source)])
        t3 = t2.changed(rel=[RelAtom(agent, 3, source)])
        t4 = t3.changed(rel=[RelAtom(agent, source, fresh)])
        t5 = t4.changed(forms=[lf(fresh, NegAtom(atom_name) if isinstance(body, Atom) else Atom(atom_name))])
        return t0, Derivation(
            t0, RuleTag.AGBOX,
            {"agent": agent, "label": 3, "formula": tracked, "fresh": fresh},
            (Derivation(
                t1, RuleTag.REFL, {"agent": agent, "label": source},
                (Derivation(
                    t2, RuleTag.EUCL,
                    {"agent": agent, "apex": source, "source": 3, "target": source},
                    (Derivation(
                        t3, RuleTag.EUCL,
                        {"agent": agent, "apex": 3, "source": source, "target": fresh},
                        (Derivation(
                            t4, RuleTag.AGDIA,
                            {"agent": agent, "label": source,
                             "formula": AgDia(agent, negate_lit(body)),
                             "witness": fresh},
                            (Derivation(t5, RuleTag.ID,
                                        {"label": fresh, "atom": atom_name}),),
                        ),),
                    ),),
                ),),
            ),),
        )

    def negate_lit(lit):
        return NegAtom(lit.name) if isinstance(lit, Atom) else Atom(lit.name)

    t0_left, pi1 = branch(1, AgBox(1, P), P, "p", source=1, fresh=4)
    t0_right, pi2 = branch(2, AgBox(2, Q), Q, "q", source=2, fresh=5)

    root = Derivation(
        s0, RuleTag.OR, {"label": 0, "formula": goal},
        (Derivation(
            s1, RuleTag.OR, {"label": 0, "formula": Or(left, right)},
            (Derivation(
                s2, RuleTag.BOX, {"label": 0, "formula": left, "fresh": 1},
                (Derivation(
                    s3, RuleTag.BOX, {"label": 0, "formula": right, "fresh": 2},
                    (Derivation(
                        s4, RuleTag.IOA, {"targets": (1, 2), "fresh": 3},
                        (Derivation(
                            s5, RuleTag.DIA,
                            {"label": 0, "formula": Dia(conj), "witness": 3},
                            (Derivation(
                                s6, RuleTag.AND,
                                {"label": 3, "formula": conj},
                                (pi1, pi2),
                            ),),
                        ),),
                    ),),
                ),),
            ),),
        ),),
    )
    return cfg, root


def test_two_agent_independence_fixture_checks_in_g3_mode():
    cfg, root = ioa_two_agent_fixture()
    result = check_derivation(cfg, root)
    assert result.ok, (result.error, result.path)
    assert root.size() == 19


def test_check_derivation_reports_the_offending_path():
    cfg, root = ioa_two_agent_fixture()
    # Break the deepest node of the first branch: drop its clash formula.
    def break_leaf(node):
        if not node.premises:
            return Derivation(
                node.conclusion.changed(lost_forms=[lf(4, NP)]), node.rule, node.principal
            )
        return Derivation(
            node.conclusion, node.rule, node.principal,
            (break_leaf(node.premises[0]),) + node.premises[1:],
        )

    broken = break_leaf(root)
    result = check_derivation(cfg, broken)
    assert not result.ok
    assert result.path.startswith("root.premises[0]")
    assert "premises[" in result.path


def test_size_counts_a_chain_deeper_than_the_recursion_limit():
    """``size`` walks the tree with its own stack, so a one-premise chain of
    5,000 inferences counts in full."""
    s = seq(forms=[lf(0, Or(P, NP)), lf(0, P), lf(0, NP)])
    root = leaf(s, 0, "p")
    for _ in range(4999):
        root = Derivation(s, RuleTag.OR, {"label": 0, "formula": Or(P, NP)}, (root,))
    assert root.size() == 5000


def test_an_agent_beyond_m_at_an_inner_node_fails_at_its_parent():
    """Well-formedness is checked on the root only: an inner conclusion
    must equal its parent's plus the rule's additions, so an agent-2
    formula there fails the parent's premise comparison first."""
    root = prove(ProverConfig(choices=0), parse("box (p | ~p)")).derivation
    assert [root.rule, root.premises[0].rule] == [RuleTag.BOX, RuleTag.OR]
    leaf_node = root.premises[0].premises[0]
    bad = leaf_node.conclusion.changed(forms=[lf(1, AgBox(2, P))])
    mutant = replace(
        root,
        premises=(
            replace(root.premises[0], premises=(replace(leaf_node, conclusion=bad),)),
        ),
    )
    result = check_derivation(REFINED_1, mutant)
    assert (result.ok, result.path) == (False, "root.premises[0]")


def test_an_agent_beyond_m_at_the_root_fails_at_the_root():
    root = prove(ProverConfig(choices=0), parse("box (p | ~p)")).derivation
    bad = root.conclusion.changed(forms=[lf(0, AgBox(2, P))])
    for mode in Mode:
        cfg = CalculusConfig(agents=1, choices=0, mode=mode)
        result = check_derivation(cfg, replace(root, conclusion=bad))
        assert (result.ok, result.path) == (False, "root")
        assert "uses agent 2" in result.error


# ---------------------------------------------------------------------------
# Certificates produced by the search
# ---------------------------------------------------------------------------


def test_search_output_checks_in_refined_mode():
    for text, n in [("box p -> [1] p", 0), ("dia [1] p -> p", 1)]:
        result = prove(ProverConfig(choices=n), parse(text))
        assert isinstance(result, Provable)
        cfg = CalculusConfig(agents=1, choices=n, mode=Mode.REFINED)
        assert check_derivation(cfg, result.derivation).ok


def test_certificate_json_round_trip():
    result = prove(ProverConfig(choices=1), parse("dia [1] p -> p"))
    cfg = CalculusConfig(agents=1, choices=1, mode=Mode.REFINED)
    blob = derivation_to_json(cfg, result.derivation)
    cfg2, root2 = derivation_from_json(blob)
    assert cfg2 == cfg
    assert root2 == result.derivation
    assert check_derivation(cfg2, root2).ok


def test_certificate_json_rejects_unknown_rules():
    result = prove(ProverConfig(choices=0), parse("p | ~p"))
    cfg = CalculusConfig(agents=1, choices=0, mode=Mode.REFINED)
    blob = derivation_to_json(cfg, result.derivation)
    blob["steps"][0][0] = "smuggle"
    with pytest.raises(ValueError):
        derivation_from_json(blob)


def test_a_g3_certificate_drops_the_principal_of_the_agentive_box():
    """The G3 agentive box discards its principal formula, so its premise's
    delta drops it; the certificate reads back as the tree written."""
    cfg, root = ioa_two_agent_fixture()
    blob = derivation_to_json(cfg, root)
    drops = [step[3]["drop"] for step in blob["steps"][1:] if "drop" in step[3]]
    assert drops == [{"forms": [[3, "[1] p"]]}, {"forms": [[3, "[2] q"]]}]
    cfg2, root2 = derivation_from_json(json.loads(json.dumps(blob)))
    assert (cfg2, root2) == (cfg, root)
    assert derivation_to_json(cfg2, root2) == blob
    assert check_derivation(cfg2, root2).ok


def test_a_delta_drops_only_what_its_parent_holds_in_its_order():
    """The writer drops entries in the parent's order and adds none the
    parent holds; the reader refuses any other delta.  A premise whose
    entries come in another order reads back equal, in the reader's order."""
    parent = seq(forms=[lf(0, P), lf(0, Q), lf(0, NP)])
    child = seq(forms=[lf(1, P), lf(0, NP)])
    root = Derivation(parent, RuleTag.OR, {}, (Derivation(child, RuleTag.ID, {}),))
    blob = derivation_to_json(REFINED_1, root)
    assert blob["steps"][1][3] == {
        "forms": [[1, "p"]], "drop": {"forms": [[0, "p"], [0, "q"]]}
    }
    _, back = derivation_from_json(blob)
    assert back == root
    assert back.premises[0].conclusion.forms == (lf(0, NP), lf(1, P))
    for key, value, why in [
        ("drop", {"forms": [[0, "q"], [0, "p"]]},
         "steps[1].delta.drop.forms is not in its parent's order"),
        ("drop", {"forms": [[0, "p"], [0, "p"]]},
         "steps[1].delta.drop.forms[1] repeats an earlier entry"),
        ("drop", {"forms": [[0, "p"], [1, "q"]]},
         "steps[1].delta.drop.forms[1] drops an entry its parent lacks"),
        ("forms", [[1, "p"], [0, "p"]],
         "steps[1].delta.forms[1] adds an entry its parent holds"),
    ]:
        edited = json.loads(json.dumps(blob))
        edited["steps"][1][3][key] = value
        with pytest.raises(ValueError) as refused:
            derivation_from_json(edited)
        assert str(refused.value) == why


BC_3 = (
    "dia [1] p & dia (~p & [1] q) & dia (~p & ~q & [1] r) -> p | q | r"
)


def _bc3_certificate():
    result = prove(ProverConfig(choices=3), parse(BC_3))
    assert isinstance(result, Provable)
    return CalculusConfig(agents=1, choices=3, mode=Mode.REFINED), result.derivation


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.premises)


def _with_paths(root):
    """Each node of ``root`` with its path as `check_derivation` names it
    and as a tuple of premise indices."""
    stack = [(root, "root", ())]
    while stack:
        node, path, at = stack.pop()
        yield node, path, at
        for i, premise in enumerate(node.premises):
            stack.append((premise, f"{path}.premises[{i}]", at + (i,)))


def _edited(node, at, change):
    """``node`` with ``change`` applied to its node at the indices ``at``."""
    if not at:
        return change(node)
    i, premises = at[0], list(node.premises)
    premises[i] = _edited(premises[i], at[1:], change)
    return replace(node, premises=tuple(premises))


def test_premises_in_another_order_or_of_another_node_keep_their_verdicts():
    """The checker compares each premise with its extension in premise
    order, and only then as a multiset.  So the premises of an ``and`` or
    an ``apc`` node are still accepted in any order, and a premise swapped
    for another node's is refused at its parent, with the multiset
    comparison's message."""
    certificates = [_bc3_certificate(), ioa_two_agent_fixture()]
    branching = Counter()
    for cfg, root in certificates:
        nodes = list(_with_paths(root))
        for node, path, at in nodes:
            premises = node.premises
            if len(premises) > 1:
                branching[node.rule] += 1
                orders = [premises[k:] + premises[:k] for k in range(1, len(premises))]
                for order in orders + [premises[::-1]]:
                    moved = _edited(root, at, lambda n: replace(n, premises=order))
                    assert check_derivation(cfg, moved) == CheckResult(True)
            for other, _, _ in nodes:
                if premises and other.conclusion != premises[0].conclusion:
                    swapped = (other,) + premises[1:]
                    result = check_derivation(
                        cfg, _edited(root, at, lambda n: replace(n, premises=swapped))
                    )
                    assert result == CheckResult(
                        False,
                        f"premises do not match the additions of rule {node.rule.value}",
                        path,
                    )
                    break
    assert branching[RuleTag.AND] >= 1 and branching[RuleTag.APC] >= 1


def _counting(monkeypatch, module, name):
    """Count the calls to ``module.name`` by their first argument."""
    calls = Counter()
    real = getattr(module, name)

    def counted(first, *rest):
        calls[first] += 1
        return real(first, *rest)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_certificate_reader_parses_each_distinct_text_once_per_call(monkeypatch):
    """The memo from text to formula lives for one `derivation_from_json`
    call, seeded with the texts of the root's subformulas.  A prover-written
    certificate's formulas are all subformulas of its root's, so only the
    root's texts are parsed, once a call; a hand-edited text outside them is
    parsed once a call however often it occurs."""
    cfg, root = _bc3_certificate()
    blob = derivation_to_json(cfg, root)
    texts = Counter()
    for node in _nodes(derivation_from_json(blob)[1]):
        texts.update(pretty(f) for _, f in node.conclusion.forms)
        if "formula" in node.principal:
            texts[pretty(node.principal["formula"])] += 1
    assert sum(texts.values()) > 5 * len(texts)  # texts repeat across nodes
    root_texts = [text for _, text in blob["root"]["forms"]]
    calls = _counting(monkeypatch, wire, "parse")
    cfg2, root2 = derivation_from_json(blob)
    assert calls == Counter(dict.fromkeys(root_texts, 1))
    assert (cfg2, root2) == (cfg, root) and check_derivation(cfg2, root2).ok
    derivation_from_json(blob)
    assert calls == Counter(dict.fromkeys(root_texts, 2))

    text = json.dumps(blob)
    assert text.count('"~p"') > 1
    edited = json.loads(text.replace('"~p"', '"(~p)"'))
    calls.clear()
    assert derivation_from_json(edited) == (cfg, root)
    assert calls == Counter(dict.fromkeys(root_texts + ["(~p)"], 1))


def test_a_certificate_writer_prints_each_distinct_formula_once_per_call(monkeypatch):
    """Likewise the memo from formula to text of `derivation_to_json`: one
    `printed` call prints the root's subformulas, and any other formula is
    printed once a call when it is first met."""
    cfg, root = _bc3_certificate()
    blob = derivation_to_json(cfg, root)
    folds = []
    real_printed = wire.printed
    monkeypatch.setattr(
        wire, "printed", lambda *formulas: folds.append(formulas) or real_printed(*formulas)
    )
    calls = _counting(monkeypatch, wire, "pretty")
    assert derivation_to_json(cfg, root) == blob
    assert folds == [tuple(f for _, f in root.conclusion.forms)] and calls == Counter()

    outside = Atom("s")
    edited = _mapped(root, lambda node: replace(
        node, principal={**node.principal, "formula": outside}
    ) if "formula" in node.principal else node)
    assert sum("formula" in node.principal for node in _nodes(edited)) > 1
    derivation_to_json(cfg, edited)
    assert calls == Counter({outside: 1})
    derivation_to_json(cfg, edited)
    assert calls == Counter({outside: 2})


def _mapped(node, change):
    """``node`` with ``change`` applied to each of its nodes, premises first."""
    premises = tuple(_mapped(p, change) for p in node.premises)
    return change(replace(node, premises=premises))


# ---------------------------------------------------------------------------
# Semantic soundness of checked derivations
# ---------------------------------------------------------------------------


def sequent_is_valid(s, agents, choices, max_worlds):
    """A sequent holds when every interpretation of its labels that satisfies
    the relational atoms satisfies at least one labelled formula."""
    names = sorted({n for _, f in s.forms for n in atoms(f)}) or ["p"]
    labels = s.labels()
    distinct = {f for _, f in s.forms}
    for model in enumerate_models(names, agents, choices, max_worlds):
        truth = {
            f: frozenset(w for w in model.worlds if evaluate(model, w, f))
            for f in distinct
        }
        for choice in itertools.product(model.worlds, repeat=len(labels)):
            interp = dict(zip(labels, choice))
            if all(
                (interp[a.source], interp[a.target]) in model.rel[a.agent]
                for a in s.rel
            ):
                if not any(interp[w] in truth[f] for w, f in s.forms):
                    return False
    return True


def every_conclusion(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node.conclusion
        stack.extend(node.premises)


def test_every_inference_in_small_fixtures_has_a_valid_conclusion():
    """Soundness, checked semantically: node conclusions of accepted
    derivations hold in every enumerated model."""
    bridge = prove(ProverConfig(choices=0), parse("box p -> [1] p"))
    for concl in every_conclusion(bridge.derivation):
        assert sequent_is_valid(concl, agents=1, choices=0, max_worlds=4)

    choice = prove(ProverConfig(choices=1), parse("dia [1] p -> p"))
    for concl in every_conclusion(choice.derivation):
        assert sequent_is_valid(concl, agents=1, choices=1, max_worlds=4)

    cfg, root = ioa_two_agent_fixture()
    for concl in every_conclusion(root):
        assert sequent_is_valid(concl, agents=2, choices=0, max_worlds=2)
