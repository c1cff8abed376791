"""Backward proof search deciding validity for the single-agent logics.

The procedure works on a growing labelled sequent, applying the first
instruction of the following priority list that fires (scanning labels in
ascending order and formulas in insertion order, for reproducibility):

1. an atomic clash ``w:p, w:~p`` closes the branch (rule ``id``);
2. when no other instruction fires, the sequent is *stable*, so it
   refutes the goal and is returned as a counter-model seed;
3. (i) unsaturated disjunctions add both disjuncts; (ii) unsaturated
   conjunctions branch, one conjunct per premise;
4. an agentive diamond ``w:<1>f`` copies ``f`` to a choice-tree mate of
   ``w`` that is missing it;
5. a settledness diamond ``w:dia f`` copies ``f`` to any label missing it;
6. an unrealized agentive box ``w:[1]f`` spawns a fresh ``R_1``-successor
   carrying ``f``;
7. an unrealized settledness box ``w:box f`` spawns a fresh label carrying
   ``f``;
8. with a positive choice bound ``n``, more than ``n`` choice-trees trigger
   a case split joining two of the ``n+1`` smallest roots per premise.

``_step`` is the one statement of instructions 1 and 3-8: it returns the
first that fires.  Instruction 2 is ``_step`` returning ``None``, and
``is_stable`` is that together with the one clause ``_step`` does not test,
"no complementary pair at a label".  At the leaf that clause follows by
induction on the formula: where nothing fires, ``f & g`` against
``~f | ~g`` leaves ``~f``, ``~g`` and one of ``f, g`` at the label; ``box f``
against ``dia ~f`` leaves ``f`` at some ``u`` and ``~f`` at every label;
``[1] f`` against ``<1> ~f`` does the same within a choice tree.  So a
compound pair implies an atomic clash, which instruction 1 would have
closed.  The search asserts only that clause at the stable leaf it returns,
and marks the sequent it returns as stable at its choice bound, so that
``extract_countermodel`` does not ask ``is_stable`` again.

Each of instructions 3-8 is blocked once it has done its work (the
disjunct, conjunct or body is present, the box is realized, the trees are
few enough), so it fires at most once per trigger, which gives termination.

The search works on one mutable state.  It interns the goal's distinct
subformulas once, each with an id, its kind, its operands' ids and its
complement's id (hash-consing: Filliâtre and Conchon, "Type-Safe Modular
Hash-Consing", 2006).  The state holds one sequent over those ids: per
label its formulas in insertion order, each with its place; per formula
the number of labels carrying it; the choice forest as parent pointers and
component ids; per choice tree the number of its labels carrying each body
of a ``[1]`` or ``<1>``; and the insertion logs of labelled formulas and
relational atoms, each atom logged with what it changed in the forest (the
parent pointer it set, the tree it merged away, that tree's members and
counts).

A step does not scan the sequent; it reads an *agenda*, the "ToDo list"
of pending rule applications that tableau reasoners keep (Tsarkov and
Horrocks, "FaCT++ Description Logic Reasoner: System Description", IJCAR
2006).  Each label keeps its compound formulas, its *triggers*, in
insertion order, less those *retired*, and the state keeps the labels that
have any, the *busy* ones.  On one branch the search only adds labels,
relational atoms and formulas, and trees only merge.  Each of four
triggers is blocked by what is present, so once blocked it stays blocked
until the search goes back past that point: an ``|`` with both disjuncts
present, an ``&`` with a conjunct present, a realized ``box`` (some label
carries its body) and a realized ``[1]`` (some label of its tree does).
``_step`` visits the busy labels ascending and their triggers in insertion
order, which is the order of a scan with the retired triggers left out,
and retires each of those four that it finds blocked.  Only a ``dia`` (by
a new label) and a ``<1>`` (by a tree merge) can fire again, so they stay.
A ``[1]`` or ``<1>`` reads how many labels of its tree carry its body from
a count kept per tree, not by walking the tree.  A clash is recorded when
its second literal is added, as a SAT solver revisits a clause only when a
watched literal changes (Moskewicz et al., "Chaff: Engineering an
Efficient SAT Solver", DAC 2001); the least one, by label and then by the
place of its older literal, is the first clash a scan would meet.

A step changes the state in place; every sequent met on the current branch
is a prefix of the three logs (formulas, atoms, retirements), named by its
*mark* (the log lengths and the label count).  Going back to a mark pops
the three logs down to it in one loop, undoing each entry in the reverse of
the order the entries were made, as a CDCL solver undoes its trail (Eén and
Sörensson, "An Extensible SAT-solver", SAT 2003), drops the clashes
recorded since, and deletes the labels made since: it costs what it
undoes, and nothing is rebuilt.  ``LabelledSequent`` values are built only
for the stable leaf and for the nodes of a proof, from prefixes of the
logs, in the order ``LabelledSequent.changed`` would give.  ``is_stable``
loads any sequent into such a state through the same steps, its labels,
then its atoms one by one, then its formulas, and asks the same ``_step``.

The search owns one stack, with one frame per open inference: the mark of
the step's conclusion, its rule and principal, its premises as what each
adds to the conclusion, the derivations of the premises closed so far, and
the choice-rule edges on the branch.  A step with premises pushes its
frame and applies its first premise.  When ``id`` closes a branch, the
frames it finishes pop off as refined-mode derivations, via the
step-to-rule correspondence, down to the first frame with a premise still
open: the state goes back to that frame's mark, and the premise is applied
and searched next; an empty stack is a proof.  A stable leaf ends the
whole search, wherever it sits.  So the search never recurses, and the
depth of nested case splits is limited by time and memory only.

Size bounds.  Let ``h`` be the number of ``box`` occurrences in the goal and
``a`` the number of ``[1]`` occurrences.  Every sequent the search builds has
at most ``(1 + h)(1 + a)`` labels and at most ``a(1 + h) + k`` relational
atoms, where ``k`` is the number of choice-rule edges (instruction 8) on its
branch.  Proof:

* Every formula in a sequent is a subformula of the goal, and no step
  removes a label, a relational atom or a formula.
* Instruction 7 fires on ``box f`` only if no label carries ``f``, and it
  leaves ``f`` at its fresh label, so it fires at most once per distinct
  ``box f``: at most ``h`` times.  Only instructions 6 and 7 make labels,
  and the label made by 6 joins an existing choice tree, so every choice
  tree contains a *seed*: label 0 or a label made by 7.  There are at most
  ``1 + h`` seeds, and instruction 8 only merges trees.
* Instruction 6 fires on ``[1] f`` only if the choice tree ``T`` of its
  label carries no ``f``, and it puts ``f`` into ``T``.  Trees never lose
  members or formulas, so every seed of ``T`` lies in a tree carrying ``f``
  from then on.  Each firing for ``[1] f`` thus moves at least one seed for
  good out of the trees lacking ``f``: at most ``1 + h`` firings per
  distinct ``[1] f``, at most ``a(1 + h)`` in all.
* Labels: ``1 + h + a(1 + h) = (1 + h)(1 + a)``.  Relational atoms: one per
  firing of instruction 6, plus one per choice-rule edge.

Both bounds are met exactly: ``box dia [1] p`` reaches 4 labels, and
``box dia [1] box p`` at ``n = 1`` reaches 6 labels and 5 relational atoms.
They are *monitored* rather than enforced: a search that outgrew them would
record the event in its statistics and keep going (see
``SearchStats.bound_violations``).  The structural invariants that the
search relies on are hard assertions: the graph stays a forest as each
relational atom is added, and every premise of a choice-rule case split
has one tree fewer than its conclusion.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from .calculus import Derivation, RuleTag
from .formula import AgBox, AgDia, And, Atom, Box, Dia, Formula, NegAtom, Or, nodes
from .sequent import Label, LabelledFormula, LabelledSequent, RelAtom


class InternalInvariantError(AssertionError):
    """A structural invariant of the search was broken (a genuine bug)."""


class SearchLimitExceeded(RuntimeError):
    """A user-supplied diagnostic cap (steps or labels) was hit."""


@dataclass(frozen=True)
class ProverConfig:
    choices: int = 0
    max_steps: int | None = None
    max_labels: int | None = None

    def __post_init__(self) -> None:
        if self.choices < 0:
            raise ValueError("the choice bound cannot be negative")


@dataclass
class SearchStats:
    """What one ``prove`` run did, and the size bounds it was checked against.

    ``steps`` counts fired instructions; ``max_labels`` and ``max_rel`` are
    the peak label and relational-atom counts over every sequent built.
    ``label_bound`` is ``(1 + h)(1 + a)`` for a goal with ``h`` ``box`` and
    ``a`` ``[1]`` occurrences, and the relational bound of a sequent is
    ``rel_bound_base = a(1 + h)`` plus the choice-rule edges on its branch;
    the module docstring proves both.  ``bound_violations`` holds one
    message per distinct excess, so by that proof it stays empty.
    """

    steps: int = 0
    max_labels: int = 0
    max_rel: int = 0
    label_bound: int = 0
    rel_bound_base: int = 0
    bound_violations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Provable:
    derivation: Derivation
    stats: SearchStats


@dataclass(frozen=True)
class Unprovable:
    stable: LabelledSequent
    stats: SearchStats


ProveResult = Provable | Unprovable


# ---------------------------------------------------------------------------
# The search state
# ---------------------------------------------------------------------------

_AGENT = 1  # the search handles exactly one agent

# Formula kinds.  Compound kinds are numbered in the priority order of the
# instructions acting on them; literals, read by instruction 1, come first.
_LIT, _OR, _AND, _AGDIA, _DIA, _AGBOX, _BOX, _NONE = range(8)
# Each formula class's kind and the class of its complement.
_SHAPE = {
    Atom: (_LIT, NegAtom), NegAtom: (_LIT, Atom), Or: (_OR, And), And: (_AND, Or),
    AgDia: (_AGDIA, AgBox), Dia: (_DIA, Box), AgBox: (_AGBOX, AgDia), Box: (_BOX, Dia),
}

# A premise as what it adds to its conclusion: relational atoms of agent 1
# as (source, target) pairs, then formula ids at labels.  A label the state
# does not hold yet is made where it is first named.
_Premise = tuple[tuple[tuple[Label, Label], ...], tuple[tuple[Label, int], ...]]
# A sequent the state held: its three log lengths and its label count.
_Mark = tuple[int, int, int, int]


class _State:
    """One labelled sequent, changed in place, over interned formulas.

    The closure gives every distinct subformula of the formulas interned an
    id: its ``form``, ``kind``, operand ids ``left`` and ``right`` (a
    modality's body is ``left``) and its complement's id ``comp`` (-1 when
    the complement is not in the closure); ``counted`` holds the ids of the
    bodies of ``[1]`` and ``<1>`` formulas.  The sequent is ``labels``,
    ascending; each label's formula ids in insertion order, each mapped to
    its place in that order (``at``); the number of labels carrying each
    formula id (``holders``); the insertion logs of labelled formulas
    (``log``) and of relational atoms (``rel``), with what each atom changed
    in the graph (``undo``); and its graph as parent pointers, as each
    label's component id (``tree``, the component's least label) with each
    component's members ascending (``members``) and, when ``counted`` is not
    empty, the number of them carrying each counted id (``count``), and as
    whether it is a forest.

    The agenda is each label's triggers not retired, in insertion order
    (``live``), and the labels with any, ascending (``busy``).  ``retired``
    logs each retirement as the formula log's length then, the label, the
    formula id and its place in the label's live list.  ``clashes`` holds
    the least clash as it improved: each entry is the formula log's length
    before the clash's second literal, the clash's label with the place of
    its older literal, and that literal's id, so the last entry is the
    least clash held.  A sequent the state held earlier is a prefix of the
    three logs, named by its ``mark``.
    """

    __slots__ = (
        "form", "kind", "left", "right", "comp", "counted", "holders", "labels",
        "at", "live", "busy", "log", "rel", "undo", "retired", "clashes",
        "parent", "tree", "members", "count", "forest",
    )

    def __init__(self) -> None:
        self.form: list[Formula] = []
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.comp: list[int] = []
        self.counted: set[int] = set()
        self.holders: list[int] = []
        self.labels: list[Label] = []
        self.at: dict[Label, dict[int, int]] = {}
        self.live: dict[Label, list[int]] = {}
        self.busy: list[Label] = []
        self.log: list[LabelledFormula] = []
        self.rel: list[RelAtom] = []
        self.undo: list[tuple] = []
        self.retired: list[tuple[int, Label, int, int]] = []
        self.clashes: list[tuple[int, tuple[Label, int], int]] = []
        self.parent: dict[Label, Label] = {}
        self.tree: dict[Label, Label] = {}
        self.members: dict[Label, list[Label]] = {}
        self.count: dict[Label, dict[int, int]] = {}
        self.forest = True

    # -- the closure ---------------------------------------------------------

    def intern(self, formulas: list[Formula]) -> list[int]:
        """The ids of ``formulas``, interning each distinct subformula once,
        operands first; a state interns once, as `prove` and `_load` do.

        The complement of ``f & g`` is the ``|`` of the complements of ``f``
        and ``g``, and so on by duality.  Of a formula and its complement,
        the one interned second finds the other by that key, since the
        complements of its operands are linked by then, and links both."""
        ids: dict[Formula, int] = {}
        keys: dict[tuple, int] = {}
        form, kinds, lefts, rights = self.form, self.kind, self.left, self.right
        comp, counted = self.comp, self.counted
        for g in nodes(*formulas):
            cls = type(g)
            kind, dual = _SHAPE[cls]
            if kind == _LIT:
                left = right = -1
                key, dual_key = (cls, g.name), (dual, g.name)
            elif kind <= _AND:
                left, right = ids[g.left], ids[g.right]
                key, dual_key = (cls, left, right), (dual, comp[left], comp[right])
            else:
                left, right = ids[g.body], -1
                agent = 0
                if kind == _AGDIA or kind == _AGBOX:
                    agent = g.agent
                    counted.add(left)
                key, dual_key = (cls, agent, left), (dual, agent, comp[left])
            fid = ids[g] = keys[key] = len(form)
            other = keys.get(dual_key, -1)
            if other >= 0:
                comp[other] = fid
            form.append(g)
            kinds.append(kind)
            lefts.append(left)
            rights.append(right)
            comp.append(other)
        self.holders += [0] * (len(form) - len(self.holders))
        return [ids[f] for f in formulas]

    # -- the sequent ---------------------------------------------------------

    def mark(self) -> _Mark:
        return len(self.log), len(self.rel), len(self.retired), len(self.labels)

    def sequent(self, mark: _Mark | None = None) -> LabelledSequent:
        """The sequent held now, or at ``mark``."""
        forms, rel, _, _ = mark or self.mark()
        return LabelledSequent.from_distinct(self.rel[:rel], self.log[:forms])

    def add_label(self, w: Label) -> None:
        """A new label, above every label held, as a one-label tree."""
        self.labels.append(w)
        self.at[w] = {}
        self.live[w] = []
        self.tree[w] = w
        self.members[w] = [w]
        if self.counted:
            self.count[w] = {}

    def add(self, w: Label, f: int) -> None:
        """Add ``w: f`` unless held: a compound ``f`` joins ``w``'s live
        triggers, and a literal whose complement ``w`` carries is a clash."""
        if w not in self.at:
            self.add_label(w)
        here = self.at[w]
        if f in here:
            return
        if self.kind[f] == _LIT:
            older = self.comp[f]
            if older in here:
                clash, clashes = (w, here[older]), self.clashes
                if not clashes or clash < clashes[-1][1]:
                    clashes.append((len(self.log), clash, older))
        else:
            live = self.live[w]
            if not live:
                insort(self.busy, w)
            live.append(f)
        if f in self.counted:
            count = self.count[self.tree[w]]
            count[f] = count.get(f, 0) + 1
        here[f] = len(here)
        self.holders[f] += 1
        self.log.append(LabelledFormula(w, self.form[f]))

    def link(self, atom: RelAtom) -> None:
        """Add ``atom`` and merge the trees of its ends.  An atom parallel to
        an edge held adds no edge; an edge within one tree, or into a label
        that has a parent, leaves no forest.  ``undo`` logs the formula
        log's length, the forest flag before, the label whose parent it set
        (or ``None``), the kept tree with its members before, the tree merged
        away with its members, and, for a merge, the two trees' counts."""
        _, source, target = atom
        for w in (source, target):
            if w not in self.at:
                self.add_label(w)
        parent, members, count = self.parent, self.members, self.count
        keep, gone = sorted((self.tree[source], self.tree[target]))
        forest, child, kept, moved, held, lost = self.forest, None, members[keep], [], None, None
        if target not in parent and keep != gone:
            child = target
            parent[target] = source
        elif parent.get(target) != source:
            self.forest = False
        if keep != gone:
            moved = members.pop(gone)
            for u in moved:
                self.tree[u] = keep
            members[keep] = sorted(kept + moved)
            held, lost = count.get(keep), count.pop(gone, None)
            if lost:
                merged = count[keep] = held.copy()
                for f, n in lost.items():
                    merged[f] = merged.get(f, 0) + n
        self.rel.append(atom)
        self.undo.append((len(self.log), forest, child, keep, kept, gone, moved, held, lost))

    def apply(self, premise: _Premise) -> None:
        edges, forms = premise
        for source, target in edges:
            self.link(RelAtom(_AGENT, source, target))
            if not self.forest:
                raise InternalInvariantError(f"sequent is not forestlike: {self.sequent().show()}")
        for w, f in forms:
            self.add(w, f)

    def truncate(self, mark: _Mark) -> None:
        """Go back to the sequent held at ``mark``.  One loop pops the three
        logs down to it, latest entry first: the formulas added after the
        latest atom or retirement left, then that entry, undoing what each
        changed.  Then it drops the clashes recorded since and deletes the
        labels made since, which are one-label trees again by then."""
        forms, rels, rets, labels = mark
        log, undo, retired, kind = self.log, self.undo, self.retired, self.kind
        at, holders, live, busy = self.at, self.holders, self.live, self.busy
        tree, count, counted = self.tree, self.count, self.counted
        while True:
            atom = undo[-1][0] if len(undo) > rels else -1
            retirement = retired[-1][0] if len(retired) > rets else -1
            down = atom if atom > retirement else retirement
            for _ in range(len(log) - (down if down > forms else forms)):
                w = log.pop().label
                f = at[w].popitem()[0]
                holders[f] -= 1
                if kind[f] != _LIT:
                    triggers = live[w]
                    triggers.pop()
                    if not triggers:
                        busy.remove(w)
                if f in counted:
                    count[tree[w]][f] -= 1
            if retirement >= atom:
                if retirement < 0:
                    break
                _, w, f, i = retired.pop()
                triggers = live[w]
                if not triggers:
                    insort(busy, w)
                triggers.insert(i, f)
                continue
            self.rel.pop()
            _, self.forest, child, keep, kept, gone, moved, held, lost = undo.pop()
            if child is not None:
                del self.parent[child]
            if moved:
                self.members[keep], self.members[gone] = kept, moved
                if held is not None:
                    count[keep], count[gone] = held, lost
                for u in moved:
                    tree[u] = gone
        clashes = self.clashes
        while clashes and clashes[-1][0] >= forms:
            clashes.pop()
        for w in self.labels[labels:]:
            del at[w], live[w], tree[w], self.members[w]
            count.pop(w, None)
        del self.labels[labels:]

    def roots(self) -> list[Label]:
        """The roots of the choice trees, ascending."""
        if not self.forest:
            raise ValueError("sequent graph is not forestlike")
        return [w for w in self.labels if w not in self.parent]


def _load(s: LabelledSequent) -> _State:
    """A state holding ``s``, with its formulas in the order of ``s.forms``."""
    state = _State()
    ids = state.intern([f for _, f in s.forms])
    for w in s.labels():
        state.add_label(w)
    for atom in s.rel:
        state.link(atom)
    for (w, _), f in zip(s.forms, ids):
        state.add(w, f)
    return state


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


def _complementary_pair(state: _State) -> Label | None:
    """A label carrying some formula and its complement."""
    comp = state.comp
    for w, here in state.at.items():
        for f in here:
            if comp[f] in here:
                return w
    return None


def is_stable(s: LabelledSequent, n: int) -> bool:
    """No complementary pair at any label, and no instruction fires."""
    state = _load(s)
    return _complementary_pair(state) is None and _step(state, n) is None


# ---------------------------------------------------------------------------
# Proof search
# ---------------------------------------------------------------------------

# An open inference; the module docstring lists its fields.
_Frame = tuple[_Mark, RuleTag, dict, tuple[_Premise, ...], list[Derivation], int]
# The rules whose premises have more labels or relational atoms than their
# conclusion.  Every premise of a rule has the sizes of its first, and the
# choice-rule edges on its branch, so `_note` reads only the first premise
# of these.
_GROWS = frozenset({RuleTag.BOX, RuleTag.AGBOX, RuleTag.APC})


def prove(cfg: ProverConfig, goal: Formula) -> ProveResult:
    """Decide the goal, returning a checkable derivation or a stable sequent.

    The goal may only mention agent 1.  ``Provable`` results carry a
    derivation that passes the refined-mode checker; ``Unprovable`` results
    carry a stable sequent from which a counter-model can be read off.
    """
    state = _State()
    (root,) = state.intern([goal])
    # the box and [1] occurrences in each distinct subformula, operands first
    boxes, agboxes, bad_agents = [], [], set()
    for f, (kind, left, right) in enumerate(zip(state.kind, state.left, state.right)):
        h, a = kind == _BOX, kind == _AGBOX
        if left >= 0:
            h += boxes[left]
            a += agboxes[left]
            if right >= 0:
                h += boxes[right]
                a += agboxes[right]
            if (kind == _AGBOX or kind == _AGDIA) and state.form[f].agent != _AGENT:
                bad_agents.add(state.form[f].agent)
        boxes.append(h)
        agboxes.append(a)
    if bad_agents:
        raise ValueError(
            f"proof search is single-agent; goal mentions agents {sorted(bad_agents)}"
        )
    h, a = boxes[root], agboxes[root]
    stats = SearchStats(label_bound=(1 + h) * (1 + a), rel_bound_base=a * (1 + h))
    state.add(0, root)
    _note(cfg, stats, state, 0)
    stack: list[_Frame] = []
    edges = 0
    while True:
        step = _step(state, cfg.choices)
        if step is None:
            # 2. nothing fires, so the sequent is stable — refutation found
            pair = _complementary_pair(state)
            if pair is not None:
                raise InternalInvariantError(
                    f"complementary pair at w{pair} of the sequent "
                    f"no instruction applies to: {state.sequent().show()}"
                )
            # the sequent carries what this leaf just found
            stable = LabelledSequent.from_distinct(state.rel, state.log, cfg.choices)
            return Unprovable(stable, stats)

        rule, principal, premises = step
        if rule is RuleTag.APC:
            trees, mark = len(state.members), state.mark()
            for premise in premises:
                state.apply(premise)
                if len(state.members) != trees - 1:
                    raise InternalInvariantError(
                        "joining two roots must reduce the choice-tree "
                        f"count by one: {state.sequent().show()}"
                    )
                state.truncate(mark)
            edges += 1
        stats.steps += 1
        if cfg.max_steps is not None and stats.steps > cfg.max_steps:
            raise SearchLimitExceeded(f"step cap {cfg.max_steps} exceeded")
        if premises:
            stack.append((state.mark(), rule, principal, premises, [], edges))
            state.apply(premises[0])
            if rule in _GROWS:
                _note(cfg, stats, state, edges)
            continue

        # 1. the branch closes: pop every inference it finishes, then
        # search the first premise still open
        closed = Derivation(state.sequent(), rule, principal)
        while stack:
            mark, rule, principal, premises, done, edges = stack[-1]
            done.append(closed)
            if len(done) < len(premises):
                state.truncate(mark)
                state.apply(premises[len(done)])
                break
            stack.pop()
            closed = Derivation(state.sequent(mark), rule, principal, tuple(done))
        else:
            return Provable(closed, stats)


def _step(
    state: _State, n: int
) -> tuple[RuleTag, dict, tuple[_Premise, ...]] | None:
    """The first of instructions 1 and 3-8 that fires on the state at choice
    bound ``n``: its rule, its principal data and its premises (none for a
    clash, one per case for the splits of 3(ii) and 8).

    The least clash recorded wins.  Otherwise one pass over the agenda, the
    busy labels ascending and their live triggers in insertion order, keeps
    the first trigger of the highest-priority instruction that fires.  It
    tests a trigger only while its instruction could still win, stops at the
    first ``|`` that fires, since nothing can beat it, and retires each
    ``|``, ``&``, ``[1]`` and ``box`` it finds blocked.
    """
    if state.clashes:
        # 1. the least clash: ``f`` is its older literal
        _, (w, _), f = state.clashes[-1]
        return RuleTag.ID, {"label": w, "atom": state.form[f].name}, ()
    kind, left, right, at, live = state.kind, state.left, state.right, state.at, state.live
    busy, holders, labels = state.busy, state.holders, state.labels
    best, best_w, best_f, blocked = _NONE, 0, 0, None
    for w in busy:
        here = at[w]
        for f in live[w]:
            k = kind[f]
            if k >= best:
                continue
            body = left[f]
            if k == _OR:
                if body not in here or right[f] not in here:
                    best, best_w, best_f = k, w, f
                    break
            elif k == _AND:
                if body not in here and right[f] not in here:
                    best, best_w, best_f = k, w, f
                    continue
            elif k == _AGDIA:
                t = state.tree[w]
                if state.count[t].get(body, 0) < len(state.members[t]):
                    best, best_w, best_f = k, w, f
                continue
            elif k == _DIA:
                if holders[body] < len(labels):
                    best, best_w, best_f = k, w, f
                continue
            elif k == _AGBOX:
                if not state.count[state.tree[w]].get(body):
                    best, best_w, best_f = k, w, f
                    continue
            elif not holders[body]:  # a box
                best, best_w, best_f = k, w, f
                continue
            if blocked is None:
                blocked = []
            blocked.append((w, f))
        if best == _OR:
            break
    if blocked:
        # retire each blocked trigger, logging its place
        forms, retired = len(state.log), state.retired
        for w, f in blocked:
            triggers = live[w]
            i = triggers.index(f)
            del triggers[i]
            retired.append((forms, w, f, i))
            if not triggers:
                busy.remove(w)

    if best == _NONE:
        # 8. too many choice-trees — join roots pairwise, case per pair
        roots = state.roots() if n > 0 else ()
        if len(roots) <= n:
            return None
        roots = tuple(roots[: n + 1])
        premises = tuple(
            (((roots[k], roots[j]),), ())
            for k in range(n)
            for j in range(k + 1, n + 1)
        )
        return RuleTag.APC, {"agent": _AGENT, "roots": roots}, premises

    w, f = best_w, best_f
    formula, body = state.form[f], left[f]
    if best == _OR:
        # 3(i). disjunction missing a disjunct
        premise = ((), ((w, body), (w, right[f])))
        return RuleTag.OR, {"label": w, "formula": formula}, (premise,)
    if best == _AND:
        # 3(ii). conjunction with neither conjunct — case split
        premises = (((), ((w, body),)), ((), ((w, right[f]),)))
        return RuleTag.AND, {"label": w, "formula": formula}, premises
    if best == _AGDIA:
        # 4. agentive diamond not yet propagated through its choice-tree
        u = next(u for u in state.members[state.tree[w]] if body not in at[u])
        principal = {"agent": _AGENT, "label": w, "formula": formula, "witness": u}
        return RuleTag.PROP, principal, (((), ((u, body),)),)
    if best == _DIA:
        # 5. settledness diamond not yet propagated everywhere
        u = next(u for u in labels if body not in at[u])
        principal = {"label": w, "formula": formula, "witness": u}
        return RuleTag.DIA, principal, (((), ((u, body),)),)
    v = labels[-1] + 1
    if best == _AGBOX:
        # 6. unrealized agentive box — fresh choice-tree mate
        principal = {"agent": _AGENT, "label": w, "formula": formula, "fresh": v}
        return RuleTag.AGBOX, principal, ((((w, v),), ((v, body),)),)
    # 7. unrealized settledness box — fresh label
    principal = {"label": w, "formula": formula, "fresh": v}
    return RuleTag.BOX, principal, (((), ((v, body),)),)


def _note(cfg: ProverConfig, stats: SearchStats, state: _State, apc_edges: int) -> None:
    """Record sizes and monitor the proved bounds."""
    labels, rel = len(state.labels), len(state.rel)
    stats.max_labels = max(stats.max_labels, labels)
    stats.max_rel = max(stats.max_rel, rel)
    if labels > stats.label_bound:
        _record(stats, f"label bound exceeded: {labels} labels > {stats.label_bound}")
    rel_bound = stats.rel_bound_base + apc_edges
    if rel > rel_bound:
        _record(stats, f"relational bound exceeded: {rel} atoms > {rel_bound}")
    if cfg.max_labels is not None and labels > cfg.max_labels:
        raise SearchLimitExceeded(
            f"label cap {cfg.max_labels} exceeded ({labels} labels)"
        )


def _record(stats: SearchStats, message: str) -> None:
    """Append one bound excess, once: the list is its own set of seen ones."""
    if message not in stats.bound_violations:
        stats.bound_violations.append(message)
