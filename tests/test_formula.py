"""Tests for the formula layer: constructors, negation, parsing, printing."""

import copy
import gc
import pickle
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stitprover import (
    AgBox,
    AgDia,
    And,
    Atom,
    Box,
    CalculusConfig,
    Dia,
    LabelledFormula,
    LabelledSequent,
    Mode,
    NegAtom,
    Or,
    CounterModel,
    ParseError,
    Provable,
    ProverConfig,
    Unprovable,
    check_derivation,
    decide_by_enumeration,
    evaluate,
    iff,
    implies,
    negate,
    parse,
    pretty,
    prove,
)
from stitprover import formula
from stitprover.formula import (
    FALSE,
    MAX_NODES,
    RESERVED_ATOM,
    TRUE,
    agents_of,
    atoms,
    connective_count,
    depth,
    nodes,
    subformulae,
)
from stitprover.semantics import Model


def formulas(max_agents: int = 1, names: tuple[str, ...] = ("p", "q")):
    """Strategy over well-formed formulas in negation normal form."""
    literals = st.builds(Atom, st.sampled_from(names)) | st.builds(
        NegAtom, st.sampled_from(names)
    )
    agent = st.integers(min_value=1, max_value=max_agents)
    return st.recursive(
        literals,
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Box, sub),
            st.builds(Dia, sub),
            st.builds(AgBox, agent, sub),
            st.builds(AgDia, agent, sub),
        ),
        max_leaves=8,
    )


# ---------------------------------------------------------------------------
# Negation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, expected",
    [
        (Atom("p"), NegAtom("p")),
        (NegAtom("p"), Atom("p")),
        (And(Atom("p"), NegAtom("q")), Or(NegAtom("p"), Atom("q"))),
        (Box(Atom("p")), Dia(NegAtom("p"))),
        (Dia(Atom("p")), Box(NegAtom("p"))),
        (AgBox(1, Atom("p")), AgDia(1, NegAtom("p"))),
        (AgDia(2, Atom("p")), AgBox(2, NegAtom("p"))),
    ],
)
def test_negate_swaps_duals(f, expected):
    assert negate(f) == expected


@given(formulas(max_agents=2))
def test_negate_is_an_involution(f):
    assert negate(negate(f)) == f


def test_negate_constants():
    # Each negates to the other, not to its mirror image, so that `!true`
    # reads back from its printed text.
    assert negate(TRUE) == FALSE and negate(FALSE) == TRUE
    assert pretty(negate(TRUE)) == "false"
    assert pretty(negate(FALSE)) == "true"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def test_subformulae_counts_occurrences():
    f = Or(Atom("p"), Box(Atom("p")))
    assert Counter(subformulae(f)) == Counter(
        {f: 1, Atom("p"): 2, Box(Atom("p")): 1}
    )


def test_subformulae_of_a_literal_is_itself():
    assert subformulae(Atom("p")) == (Atom("p"),)
    assert subformulae(NegAtom("q")) == (NegAtom("q"),)


def test_subformulae_are_in_pre_order():
    f = And(Or(Atom("p"), Atom("q")), Box(NegAtom("r")))
    assert subformulae(f) == (
        f, f.left, Atom("p"), Atom("q"), f.right, NegAtom("r")
    )


def test_structural_helpers_walk_a_chain_deeper_than_the_recursion_limit():
    """A 5,000-deep chain of boxes is walked on an explicit stack, in
    pre-order, and measured, negated, printed, parsed, evaluated and decided
    the same way; `nodes` gives it leaf first.  The negation is compared
    level by level, by class and agent."""
    f = Atom("p")
    for i in range(5000):
        f = AgBox(2, f) if i % 2 else Box(f)
    prefixes = ("[2] " if i % 2 else "box " for i in reversed(range(5000)))
    assert pretty(f) == "".join(prefixes) + "p"
    assert parse(pretty(f), agents=2) == f
    cell = frozenset({(0, 0)})
    for truth in (frozenset(), frozenset({0})):
        model = Model(worlds=(0,), rel={1: cell, 2: cell}, val={"p": truth})
        assert evaluate(model, 0, f) is bool(truth)
    verdict = decide_by_enumeration(f, agents=2, max_worlds=1)
    assert isinstance(verdict, CounterModel)
    assert verdict.model.val == {"p": frozenset()}
    subs = subformulae(f)
    assert len(subs) == 5001
    assert subs[0] is f and subs[1] is f.body and subs[-1] == Atom("p")
    assert nodes(f) == list(reversed(subs))
    assert atoms(f) == frozenset({"p"})
    assert agents_of(f) == frozenset({2})
    assert connective_count(f) == 5000
    assert depth(f) == 5000
    dual = {Box: Dia, AgBox: AgDia, Atom: NegAtom}
    negated = subformulae(negate(f))
    assert [type(g) for g in negated] == [dual[type(g)] for g in subs]
    assert {g.agent for g in negated if type(g) is AgDia} == {2}
    assert negated[-1] == NegAtom("p")


def test_walks_visit_each_node_of_a_shared_formula_once():
    """``f = f | box f``, 40 times over, has 81 distinct nodes and over
    2 ** 40 occurrences.  Measuring, evaluating, searching, listing atoms
    and enumerating each take the distinct nodes once, so together well
    under a second; a walk per occurrence would not end."""
    start = time.perf_counter()
    f = Atom("p")
    for _ in range(40):
        f = Or(f, Box(f))
    assert len(nodes(f)) == 81
    assert depth(f) == 80
    model = Model(worlds=(0,), rel={1: frozenset({(0, 0)})}, val={})
    assert evaluate(model, 0, f) is False
    result = prove(ProverConfig(choices=0), f)
    assert isinstance(result, Unprovable) and result.stable.labels() == (0,)
    assert atoms(f) == frozenset({"p"})
    assert isinstance(decide_by_enumeration(f, max_worlds=1), CounterModel)
    assert time.perf_counter() - start < 1.0


def test_nodes_puts_operands_first_and_leaves_out_what_is_placed():
    """Each distinct node once, operands before their holders and left
    before right, across all the formulas given; a placed node is left out
    with what only it reaches."""
    p, q = Atom("p"), Atom("q")
    shared = Box(p)
    f = And(Or(shared, q), shared)
    assert nodes(f) == [p, shared, q, f.left, f]
    assert nodes(q, f, p) == [q, p, shared, f.left, f]
    assert nodes(f, placed={f.left}) == [p, shared, f]
    assert nodes(f, placed={shared}) == [q, f.left, f]
    assert nodes(f, placed={f}) == [] and nodes() == []


def _chain(leaf, agent):
    f = leaf
    for i in range(5000):
        f = AgBox(agent, f) if i % 2 else Box(f)
    return f


def test_hash_eq_search_and_checker_take_a_chain_deeper_than_the_recursion_limit():
    """The same depth for `hash` and `==`, which are identity, since a chain
    built twice is one object, and so for labelled sequents, the search
    and the checker, which hash every formula they hold."""
    f = _chain(Atom("p"), 1)
    twin = _chain(Atom("p"), 1)
    assert f is twin and hash(f) == hash(twin)
    assert f == twin and not f != twin
    assert f != _chain(Atom("q"), 1)
    assert len({f, twin, f.body}) == 2
    sequent = LabelledSequent(forms=[LabelledFormula(0, f)])
    assert sequent == LabelledSequent(forms=[LabelledFormula(0, twin)])
    assert sequent.has_form(0, twin)
    goal = Or(Or(Atom("q"), NegAtom("q")), f)
    result = prove(ProverConfig(choices=0), goal)
    assert isinstance(result, Provable)
    assert result.derivation.conclusion == LabelledSequent(forms=[LabelledFormula(0, goal)])
    cfg = CalculusConfig(agents=1, choices=0, mode=Mode.REFINED)
    assert check_derivation(cfg, result.derivation).ok


def test_equal_formulas_are_one_object():
    """However a formula is built, by hand, by keyword, by the parser, by
    negation or by a copy, it is the one live object of its structure."""
    assert Atom("p") is Atom("p") and Atom(name="p") is Atom("p")
    assert Atom("p") is not NegAtom("p") and Box(Atom("p")) is not Dia(Atom("p"))
    assert parse("box (p & q)").body is parse("(p & q) | r").left
    f = parse("[1] (p -> dia ~q) & !true")
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert negate(negate(f)) is f
    assert Or(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM)) is TRUE
    with pytest.raises(FrozenInstanceError):
        f.left = Atom("p")
    with pytest.raises(FrozenInstanceError):
        del f.right
    assert f.left is AgBox(1, Or(NegAtom("p"), Dia(NegAtom("q"))))


def test_the_table_keeps_only_live_formulas():
    """The table of live formulas holds each node weakly: a 200,000-deep
    chain built twice is one object, and once it is dropped, freeing it
    link by link takes every entry it made, with no error on the way."""
    gc.collect()
    before = len(formula._TABLE)
    leaf = Atom("table_test_leaf")

    def chain():
        f = leaf
        for i in range(200_000):
            f = AgBox(1, f) if i % 2 else Box(f)
        return f

    f = chain()
    assert chain() is f
    assert len(formula._TABLE) == before + 200_001
    errors = []
    hook, sys.unraisablehook = sys.unraisablehook, errors.append
    try:
        del f, leaf
    finally:
        sys.unraisablehook = hook
    assert not errors
    assert len(formula._TABLE) == before


def test_atoms_and_agents():
    f = And(AgBox(2, Atom("p")), Dia(NegAtom("q")))
    assert atoms(f) == frozenset({"p", "q"})
    assert agents_of(f) == frozenset({2})
    assert agents_of(Box(Atom("p"))) == frozenset()
    assert atoms(f, Atom("r"), f.left) == frozenset({"p", "q", "r"})
    assert atoms() == frozenset()


def test_negate_and_depth_refuse_a_non_formula():
    model = Model(worlds=(0,), rel={1: frozenset({(0, 0)})}, val={})
    walks = (
        nodes,
        negate,
        depth,
        pretty,
        lambda f: evaluate(model, 0, f),
        decide_by_enumeration,
    )
    for bad in (42, Box("p"), And(Atom("p"), None)):
        for walk in walks:
            with pytest.raises(TypeError, match="not a formula"):
                walk(bad)


def test_depth_and_connective_count():
    f = Or(Box(AgDia(1, NegAtom("p"))), Atom("p"))  # <> [1] p -> p in NNF
    assert depth(f) == 3
    assert connective_count(f) == 3
    assert depth(Atom("p")) == 0
    assert connective_count(NegAtom("p")) == 0


@given(formulas(max_agents=2))
def test_connective_count_ignores_literals(f):
    assert connective_count(f) == sum(
        1 for g in subformulae(f) if not isinstance(g, (Atom, NegAtom))
    )


# ---------------------------------------------------------------------------
# Sugar
# ---------------------------------------------------------------------------


def test_implies_negates_the_antecedent():
    assert implies(Atom("p"), Atom("q")) == Or(NegAtom("p"), Atom("q"))
    assert implies(Box(Atom("p")), Atom("q")) == Or(Dia(NegAtom("p")), Atom("q"))


def test_iff_is_a_conjunction_of_implications():
    p, q = Atom("p"), Atom("q")
    assert iff(p, q) == And(implies(p, q), implies(q, p))


def test_constants_use_the_reserved_atom():
    assert TRUE == Or(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))
    assert FALSE == And(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("p", Atom("p")),
        ("~p", NegAtom("p")),
        ("p | ~p", Or(Atom("p"), NegAtom("p"))),
        ("p & q", And(Atom("p"), Atom("q"))),
        ("box p", Box(Atom("p"))),
        ("dia q", Dia(Atom("q"))),
        ("[1] p", AgBox(1, Atom("p"))),
        ("<1> p", AgDia(1, Atom("p"))),
        ("!(box p)", Dia(NegAtom("p"))),
        ("!p", NegAtom("p")),
        ("dia [1] p -> p", Or(Box(AgDia(1, NegAtom("p"))), Atom("p"))),
        ("true", TRUE),
        ("false", FALSE),
    ],
)
def test_parse_examples(text, expected):
    assert parse(text) == expected


def test_parse_precedence_and_associativity():
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p -> q -> r") == parse("p -> (q -> r)")
    assert parse("p <-> q <-> r") == parse("(p <-> q) <-> r")
    assert parse("box p & q") == And(Box(Atom("p")), Atom("q"))
    assert parse("!p & q") == And(NegAtom("p"), Atom("q"))


def test_parse_negation_of_compounds_dualizes():
    assert parse("!(p & q)") == Or(NegAtom("p"), NegAtom("q"))
    assert parse("!(<2> p)", agents=2) == AgBox(2, NegAtom("p"))
    assert parse("!(p -> q)") == And(Atom("p"), NegAtom("q"))


def test_parse_respects_the_agent_bound():
    assert parse("[2] p", agents=2) == AgBox(2, Atom("p"))
    assert parse("[\u0663] p", agents=3) is AgBox(3, Atom("p"))  # any decimal digit
    with pytest.raises(ParseError):
        parse("[2] p", agents=1)
    with pytest.raises(ParseError):
        parse("<0> p")


@pytest.mark.parametrize(
    "text",
    ["", "p &", "(p | q", "p q", "box", "~box p", "[x] p", "p -> -> q"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


N = 100  # the parser's nesting limit while it recursed


@pytest.mark.parametrize(
    "text",
    [
        "box " * N + "p",
        "(" * N + "p" + ")" * N,
        "p" + " & p" * N,
        "p" + " -> p" * N,
    ],
)
def test_formulas_at_the_nesting_limit_survive_recursive_functions(text):
    f = parse(text)
    hash(f)
    assert negate(negate(f)) == f
    assert parse(pretty(f)) == f
    assert subformulae(f)[0] == f


DEEP = 2000  # twice Python's default recursion limit


@pytest.mark.parametrize(
    "text",
    [
        "box " * DEEP + "p",
        "box " * DEEP + "(p & q)",
        "(" * DEEP + "p" + ")" * DEEP,
        "p" + " & p" * DEEP,
        "p" + " -> p" * DEEP,
        "!" * DEEP + "p",
    ],
    ids=["boxes", "boxes-over-and", "parentheses", "and-chain", "arrow-chain", "nots"],
)
def test_input_nested_past_the_recursion_limit_parses_and_round_trips(text):
    f = parse(text)
    hash(f)
    assert negate(negate(f)) == f
    assert parse(pretty(f)) == f
    assert subformulae(f)[0] == f


def _conjunction(size: int) -> str:
    return "(" + " & ".join(["p"] * ((size + 1) // 2)) + ")"


@pytest.mark.parametrize(
    "text",
    [
        "! box " * 4000 + "p",
        "!" * 1000 + _conjunction(6000),
        "(" * 4000 + "p" + " -> p)" * 4000,
    ],
    ids=["not-box", "not-conjunction", "left-nested-arrows"],
)
def test_negation_keeps_parsing_linear(text):
    """Each ``!`` negates all that follows it, and each ``->`` all that
    comes before it.  A negation of a negation is looked up, not built
    again, so each input takes well under a second, and not the seconds a
    fresh negation per operator takes."""
    start = time.perf_counter()
    f = parse(text)
    assert time.perf_counter() - start < 1.0
    assert parse(pretty(f)) == f


def _iff_chain(links: int) -> str:
    return "p" + " <-> p" * links


def _iff_chain_nodes(links: int) -> int:
    # iff(f, p) is And(Or(~f, p), Or(~p, f)): 3 + 2 * (|f| + 1) nodes.
    nodes = 1
    for _ in range(links):
        nodes = 2 * nodes + 5
    return nodes


def test_the_largest_iff_chain_under_the_node_limit_parses():
    links = 0
    while _iff_chain_nodes(links + 1) <= MAX_NODES:
        links += 1
    assert len(subformulae(parse(_iff_chain(links)))) == _iff_chain_nodes(links)
    with pytest.raises(ParseError, match=f"over {MAX_NODES} nodes"):
        parse(_iff_chain(links + 1))


def test_a_long_iff_chain_fails_fast():
    # Built out, 60 links would make about 7 * 10**18 nodes.
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"over {MAX_NODES} nodes"):
        parse(_iff_chain(60))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, text",
    [
        (Or(Atom("p"), NegAtom("p")), "p | ~p"),
        (AgBox(1, Atom("p")), "[1] p"),
        (And(Or(Atom("p"), Atom("q")), Atom("r")), "(p | q) & r"),
        (Box(And(Atom("p"), Atom("q"))), "box (p & q)"),
    ],
)
def test_pretty_examples(f, text):
    assert pretty(f) == text


@given(formulas(max_agents=2))
def test_parse_inverts_pretty(f):
    assert parse(pretty(f), agents=2) == f


_TOKENS = (
    "p", "q", "~p", "~", "&", "|", "->", "<->", "!", "box", "dia", "[1]", "<2>",
    "[", "]", "<", ">", "(", ")", "true", "false", "1", "$",
)

# One level of nesting each: the text before and after what it wraps.
_WRAPS = (
    ("box ", ""), ("dia ", ""), ("! ", ""), ("[1] ", ""), ("<2> ", ""), ("(", ")"),
    ("(p & ", ")"), ("(", " | ~q)"), ("(", " -> q)"), ("(q -> ", ")"), ("(", " <-> p)"),
)


@st.composite
def _parser_inputs(draw):
    """Text from the grammar, wrapped up to thousands of levels deep by
    runs of one wrapper each, and then perhaps one token dropped, added or
    replaced; or a run-length string of any tokens."""
    if draw(st.booleans()):
        runs = draw(st.lists(
            st.tuples(st.sampled_from(_TOKENS), st.integers(1, 3) | st.integers(1, 3000)),
            max_size=12,
        ))
        return " ".join(" ".join([tok] * n) for tok, n in runs)
    text = draw(st.sampled_from(("p", "~q", "true", "false")))
    for (before, after), n in draw(st.lists(
        st.tuples(st.sampled_from(_WRAPS), st.integers(1, 4) | st.integers(1, 3000)),
        max_size=6,
    )):
        text = before * n + text + after * n
    tokens = text.replace("(", "( ").replace(")", " )").split()
    at = draw(st.integers(0, len(tokens)))
    edit = draw(st.sampled_from(("keep", "keep", "keep", "drop", "add", "replace")))
    if edit != "keep":
        token = [draw(st.sampled_from(_TOKENS))] if edit != "drop" else []
        tokens[at:at + (edit != "add")] = token
    return " ".join(tokens)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_parser_inputs())
def test_parse_raises_only_parse_error_and_inverts_pretty(text):
    """Whatever the text, `parse` raises `ParseError` and nothing else, or
    gives a formula that reads back from its printed text."""
    try:
        f = parse(text, agents=2)
    except ParseError:
        return
    assert parse(pretty(f), agents=2) == f


# ---------------------------------------------------------------------------
# Negation against the semantics
# ---------------------------------------------------------------------------


def _tiny_models():
    cells = frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    split = frozenset({(0, 0), (1, 1)})
    return [
        Model(worlds=(0,), rel={1: frozenset({(0, 0)})}, val={"p": frozenset({0}), "q": frozenset()}),
        Model(worlds=(0, 1), rel={1: cells}, val={"p": frozenset({0}), "q": frozenset({1})}),
        Model(worlds=(0, 1), rel={1: split}, val={"p": frozenset({0, 1}), "q": frozenset()}),
    ]


@given(formulas(max_agents=1))
def test_exactly_one_of_a_formula_and_its_negation_holds(f):
    for model in _tiny_models():
        for w in model.worlds:
            assert evaluate(model, w, f) != evaluate(model, w, negate(f))
