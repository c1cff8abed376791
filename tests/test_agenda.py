"""The search's agenda against the scan it replaced.

``reference_step`` is the search step as it was before the agenda: one
pass over every label, ascending, and every formula at it, in insertion
order, returning the first clash at once and otherwise the first trigger of
the highest-priority instruction that fires.  It reads only the sequent the
state holds.  The tests below hold ``prover._step`` to it on every step of
the criterion-3 sweep and on loaded random sequents, and hold the state's
logs, agenda, tree counts and clash record to what the logs' prefixes give,
after every call of a random sequence of them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from forests import tree_of
from test_prover import _assert_forest_is_the_reference, sequents

from stitprover import (
    AgBox,
    AgDia,
    And,
    Atom,
    Box,
    Dia,
    NegAtom,
    Or,
    ProverConfig,
    RelAtom,
    RuleTag,
    enumerate_formulas,
    is_stable,
    prove,
    random_formula,
)
from stitprover import prover

_LIT, _OR, _AND, _AGDIA, _DIA, _AGBOX, _BOX, _NONE = range(8)


def reference_step(state, n):
    """The first of instructions 1 and 3-8 that fires, found by scanning
    every labelled formula of the state's sequent."""
    kind, left, right, comp = state.kind, state.left, state.right, state.comp
    at, tree, members, labels = state.at, state.tree, state.members, state.labels
    best, found = _NONE, (0, 0, 0)
    for w in labels:
        here = at[w]
        for f in here:
            k = kind[f]
            if k >= best:
                continue
            if k == _LIT:
                if comp[f] in here:
                    return RuleTag.ID, {"label": w, "atom": state.form[f].name}, ()
                continue
            body, witness = left[f], None
            if k == _OR:
                fires = body not in here or right[f] not in here
            elif k == _AND:
                fires = body not in here and right[f] not in here
            elif k == _AGDIA:
                mates = members[tree[w]]
                witness = next((u for u in mates if body not in at[u]), None)
                fires = witness is not None
            elif k == _DIA:
                fires = state.holders[body] < len(labels)
            elif k == _AGBOX:
                fires = all(body not in at[u] for u in members[tree[w]])
            else:
                fires = state.holders[body] == 0
            if fires:
                best, found = k, (w, f, witness)

    if best == _NONE:
        roots = state.roots() if n > 0 else ()
        if len(roots) <= n:
            return None
        roots = tuple(roots[: n + 1])
        premises = tuple(
            (((roots[k], roots[j]),), ()) for k in range(n) for j in range(k + 1, n + 1)
        )
        return RuleTag.APC, {"agent": 1, "roots": roots}, premises

    w, f, u = found
    formula, body = state.form[f], left[f]
    if best == _OR:
        return RuleTag.OR, {"label": w, "formula": formula}, (((), ((w, body), (w, right[f]))),)
    if best == _AND:
        premises = (((), ((w, body),)), ((), ((w, right[f]),)))
        return RuleTag.AND, {"label": w, "formula": formula}, premises
    if best == _AGDIA:
        principal = {"agent": 1, "label": w, "formula": formula, "witness": u}
        return RuleTag.PROP, principal, (((), ((u, body),)),)
    if best == _DIA:
        u = next(u for u in labels if body not in at[u])
        principal = {"label": w, "formula": formula, "witness": u}
        return RuleTag.DIA, principal, (((), ((u, body),)),)
    v = labels[-1] + 1
    if best == _AGBOX:
        principal = {"agent": 1, "label": w, "formula": formula, "fresh": v}
        return RuleTag.AGBOX, principal, ((((w, v),), ((v, body),)),)
    principal = {"label": w, "formula": formula, "fresh": v}
    return RuleTag.BOX, principal, (((), ((v, body),)),)


def _outcome(step, state, n):
    """What ``step`` returns, or the error it raises (a graph that is not a
    forest has no roots to count at a positive bound)."""
    try:
        return step(state, n)
    except ValueError as err:
        return f"ValueError: {err}"


def _sweep_goals():
    """The goals of the criterion-3 sweep: every normal-form goal over p, q
    with at most three connectives, and 500 random ones of depth four from
    seed 7."""
    goals = list(enumerate_formulas(3, ("p", "q")))
    rng = random.Random(7)
    goals.extend(random_formula(rng, 4, ("p", "q")) for _ in range(500))
    return goals


def _end(result):
    """A search's verdict and statistics."""
    return type(result).__name__, result.stats


def test_every_step_of_the_sweep_is_the_scans(monkeypatch):
    """Every step of every sweep search at n = 0, 1, 2 is the one the scan
    finds on the same sequent, from the first on, and the searches the scan
    drives alone end with the same verdicts and statistics."""
    agenda = prover._step

    def checked(state, n):
        expected = reference_step(state, n)
        step = agenda(state, n)
        assert step == expected, state.sequent().show()
        return step

    runs = [(goal, n) for goal in _sweep_goals() for n in range(3)]
    assert len(runs) == 75960
    ends = {}
    for step in (checked, reference_step):
        monkeypatch.setattr(prover, "_step", step)
        ends[step] = [_end(prove(ProverConfig(choices=n), goal)) for goal, n in runs]
    for run, end, scanned in zip(runs, ends[checked], ends[reference_step]):
        assert end == scanned, run


@settings(max_examples=150, deadline=None)
@given(sequents(), st.integers(min_value=0, max_value=3))
def test_the_first_step_of_a_loaded_sequent_is_the_scans(s, n):
    """On any sequent ``_load`` gives, forest or not, the first step is the
    scan's, and ``is_stable`` is the scan finding no step and no
    complementary pair."""
    state = prover._load(s)
    expected = _outcome(reference_step, state, n)
    assert _outcome(prover._step, state, n) == expected
    if prover._complementary_pair(state) is not None:
        stable = False
    else:
        stable = expected if isinstance(expected, str) else expected is None
    assert _outcome(is_stable, s, n) == stable


# ---------------------------------------------------------------------------
# The state against what its logs give
# ---------------------------------------------------------------------------

P, Q = Atom("p"), Atom("q")
NP, NQ = NegAtom("p"), NegAtom("q")
# Every kind, complements in the closure, and bodies of [1] and <1> shared
# with other formulas, so that adds move tree counts and clashes.
CLOSURE = [
    P, NP, Q, NQ, Or(P, Q), And(NP, Q), Or(NP, NQ), Box(P), Dia(NP), Dia(Q),
    AgBox(1, Q), AgDia(1, NQ), AgDia(1, P), And(Q, Box(P)),
]
_BLOCKED = {
    _OR: lambda s, w, f: s.has_form(w, f.left) and s.has_form(w, f.right),
    _AND: lambda s, w, f: s.has_form(w, f.left) or s.has_form(w, f.right),
    _AGBOX: lambda s, w, f: any(s.has_form(u, f.body) for u in tree_of(s, w)),
    _BOX: lambda s, w, f: any(s.has_form(u, f.body) for u in s.labels()),
}


def _snapshot(state):
    """Everything the state holds, copied, with zero tree counts left out."""
    return (
        list(state.labels), {w: dict(at) for w, at in state.at.items()}, list(state.holders),
        list(state.log), list(state.rel), len(state.undo), list(state.retired),
        {w: list(live) for w, live in state.live.items()}, list(state.busy),
        list(state.clashes), dict(state.parent), dict(state.tree), state.forest,
        {t: list(m) for t, m in state.members.items()},
        {t: {f: k for f, k in count.items() if k} for t, count in state.count.items()},
    )


def _assert_state_is_the_reference(state):
    """The state is what its three logs give: the formulas and their places
    from the formula log, the forest from the atom log, each label's live
    triggers as its compound formulas less those the retirement log names,
    each of them blocked for good, the tree counts, and the least clash."""
    s, ids = state.sequent(), {g: f for f, g in enumerate(state.form)}
    order = {w: [] for w in state.labels}
    for w, g in state.log:
        order[w].append(ids[g])
    assert state.at == {w: {f: i for i, f in enumerate(fs)} for w, fs in order.items()}
    assert state.holders == [sum(f in at for at in state.at.values()) for f in range(len(ids))]
    assert len(state.undo) == len(state.rel)
    _assert_forest_is_the_reference(state, s)

    retired = {(w, f) for _, w, f, _ in state.retired}
    assert len(retired) == len(state.retired)
    for forms, w, f, _ in state.retired:
        assert forms <= len(state.log) and f in state.at[w]
        assert _BLOCKED[state.kind[f]](s, w, state.form[f]), (w, state.form[f])
    assert state.live == {
        w: [f for f in fs if state.kind[f] != _LIT and (w, f) not in retired]
        for w, fs in order.items()
    }
    assert state.busy == [w for w in state.labels if state.live[w]]

    if state.counted:
        assert {t: {f: k for f, k in count.items() if k} for t, count in state.count.items()} == {
            t: {f: k for f in state.counted if (k := sum(f in state.at[u] for u in ms))}
            for t, ms in state.members.items()
        }
    else:
        assert state.count == {}

    clashes = [
        ((w, i), f) for w, fs in order.items() for i, f in enumerate(fs)
        if state.kind[f] == _LIT and state.comp[f] in state.at[w]
    ]
    least = min(clashes, default=None)
    assert (state.clashes[-1][1:] if state.clashes else None) == least
    assert all(forms < len(state.log) for forms, _, _ in state.clashes)


class AgendaMachine(RuleBasedStateMachine):
    """Adds, links, marks, steps and goes back to marks on one state."""

    def __init__(self):
        super().__init__()
        self.state = prover._State()
        self.state.intern(CLOSURE)
        self.marks = []

    @rule(label=st.integers(min_value=0, max_value=4), f=st.integers(min_value=0))
    def add(self, label, f):
        """A formula at a label held, or at the next label."""
        self.state.add(min(label, len(self.state.labels)), f % len(self.state.form))

    @rule(label=st.integers(min_value=0, max_value=4), f=st.integers(min_value=0))
    def add_with_operands(self, label, f):
        """A formula after its operands, which block an ``|``, ``&``, ``box``
        or ``[1]``, so that steps retire triggers often."""
        state = self.state
        w, f = min(label, len(state.labels)), f % len(state.form)
        for g in (state.left[f], state.right[f], f):
            if g >= 0:
                state.add(w, g)

    @precondition(lambda self: self.state.labels)
    @rule(ends=st.tuples(st.integers(min_value=0), st.integers(min_value=0)))
    def link(self, ends):
        """Any atom between labels held, so not always a forest."""
        labels = self.state.labels
        source, target = (labels[end % len(labels)] for end in ends)
        self.state.link(RelAtom(1, source, target))

    @rule()
    def mark(self):
        self.marks.append((self.state.mark(), _snapshot(self.state)))

    @rule(n=st.integers(min_value=0, max_value=2))
    def step(self, n):
        """The agenda's step is the scan's, and retires what it finds blocked."""
        expected = _outcome(reference_step, self.state, n)
        assert _outcome(prover._step, self.state, n) == expected

    @precondition(lambda self: self.marks)
    @rule(data=st.data())
    def truncate(self, data):
        """Going back to a mark gives the state held at it, exactly."""
        i = data.draw(st.integers(min_value=0, max_value=len(self.marks) - 1))
        mark, held = self.marks[i]
        del self.marks[i + 1 :]
        self.state.truncate(mark)
        assert _snapshot(self.state) == held

    @invariant()
    def is_what_its_logs_give(self):
        _assert_state_is_the_reference(self.state)


TestAgendaMachine = AgendaMachine.TestCase
TestAgendaMachine.settings = settings(max_examples=300, stateful_step_count=40, deadline=None)
