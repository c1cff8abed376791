"""Kripke-style semantics: frames, evaluation, and a brute-force oracle.

A model has a non-empty set of worlds, one equivalence relation per agent
(its classes are the agent's choice cells), and a valuation.  The plain box
quantifies over *all* worlds — settledness is a global modality — while the
agentive box quantifies over the agent's choice cell at the current world.

Frame conditions:

* C1 — every agent relation is an equivalence relation;
* C2 — independence of agents: any way of picking one choice cell per agent
  has a non-empty intersection;
* C3 — with choice bound ``n > 0``, every agent has at most ``n`` cells.

`decide_by_enumeration` is deliberately independent of the prover: it
enumerates every model up to a world bound, up to bisimulation, and reports
a counter-model with the fewest worlds, or validity when none exists.  Two
worlds with one valuation in one cell of every agent are bisimilar, and with
one agent so are two cells holding the same valuations (Blackburn, de Rijke
and Venema, *Modal Logic*, 2001, ch. 2).  Dropping such a duplicate keeps
the truth of every formula and only removes worlds and cells, so the
verdict is that of every model within the bound.  Truth sets are ``int``
bitmasks.  For a goal with at most one agent the default bound,
`default_world_bound`, is proved by selection; for several agents it is a
search limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

from .formula import (
    AgBox,
    AgDia,
    And,
    Atom,
    Box,
    Dia,
    Formula,
    NegAtom,
    Or,
    atoms,
    nodes,
)
from .sequent import LabelledSequent, components

# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    worlds: tuple[int, ...]
    rel: Mapping[int, frozenset[tuple[int, int]]]  # agent -> relation
    val: Mapping[str, frozenset[int]]  # atom -> worlds where it is true


@dataclass(frozen=True)
class FrameReport:
    ok: bool
    violations: tuple[str, ...]


def check_frame(model: Model, agents: int, choices: int) -> FrameReport:
    """Validate C1, C2 and (when ``choices > 0``) C3."""
    violations: list[str] = []
    worlds = set(model.worlds)
    if not worlds:
        violations.append("empty set of worlds")
        return FrameReport(False, tuple(violations))

    for agent in range(1, agents + 1):
        if agent not in model.rel:
            violations.append(f"missing relation for agent {agent}")
    for agent in model.rel:
        if not 1 <= agent <= agents:
            violations.append(f"relation for out-of-range agent {agent}")
    if violations:
        return FrameReport(False, tuple(violations))

    for agent in range(1, agents + 1):
        pairs = model.rel[agent]
        succ: dict[int, set[int]] = {w: set() for w in worlds}
        for u, v in pairs:
            if u not in worlds or v not in worlds:
                violations.append(f"agent {agent}: pair ({u},{v}) off the world set")
            else:
                succ[u].add(v)
        for w in worlds:
            if w not in succ[w]:
                violations.append(f"agent {agent}: not reflexive at {w}")
        for u in worlds:
            for v in succ[u]:
                if u not in succ[v]:
                    violations.append(f"agent {agent}: not symmetric at ({u},{v})")
                for t in succ[v]:
                    if t not in succ[u]:
                        violations.append(
                            f"agent {agent}: not transitive at ({u},{v},{t})"
                        )
    if violations:
        return FrameReport(False, tuple(violations))

    neighborhoods = _cells_of(model)

    # C2: independence of agents.
    for combo in itertools.product(sorted(worlds), repeat=agents):
        cells = [neighborhoods[agent][combo[agent - 1]] for agent in range(1, agents + 1)]
        if not frozenset.intersection(*cells):
            violations.append(f"independence fails for cells chosen at {combo}")
            break

    # C3: at most `choices` cells per agent.
    if choices > 0:
        for agent in range(1, agents + 1):
            cells = {neighborhoods[agent][w] for w in worlds}
            if len(cells) > choices:
                violations.append(
                    f"agent {agent} has {len(cells)} choice cells, bound is {choices}"
                )

    for name, trueset in model.val.items():
        stray = set(trueset) - worlds
        if stray:
            violations.append(f"valuation of {name} mentions unknown worlds {sorted(stray)}")

    return FrameReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _cells_of(model: Model) -> dict[int, dict[int, frozenset[int]]]:
    return {
        agent: {
            w: frozenset(v for u, v in pairs if u == w) for w in model.worlds
        }
        for agent, pairs in model.rel.items()
    }


def evaluate(model: Model, world: int, f: Formula) -> bool:
    """Truth of ``f`` at ``world`` of ``model`` (assumes a checked frame)."""
    if world not in model.worlds:
        raise ValueError(f"world {world} not in the model")
    worlds = frozenset(model.worlds)
    cells = _cells_of(model)
    empty: frozenset[int] = frozenset()
    truth: dict[Formula, frozenset[int]] = {}
    for g in nodes(f):
        cls = type(g)
        if cls is Atom:
            truth[g] = model.val.get(g.name, empty) & worlds
        elif cls is NegAtom:
            truth[g] = worlds - model.val.get(g.name, empty)
        elif cls is And:
            truth[g] = truth[g.left] & truth[g.right]
        elif cls is Or:
            truth[g] = truth[g.left] | truth[g.right]
        elif cls is Box:
            truth[g] = worlds if truth[g.body] == worlds else empty
        elif cls is Dia:
            truth[g] = worlds if truth[g.body] else empty
        elif cls is AgBox:
            truth[g] = frozenset(w for w in worlds if cells[g.agent][w] <= truth[g.body])
        else:
            truth[g] = frozenset(w for w in worlds if cells[g.agent][w] & truth[g.body])
    return world in truth[f]


# ---------------------------------------------------------------------------
# Counter-model extraction from a stable sequent
# ---------------------------------------------------------------------------


def extract_countermodel(
    stable: LabelledSequent, goal_label: int = 0, choices: int = 0
) -> tuple[Model, Mapping[int, int]]:
    """Read a single-agent model off a stable sequent.

    Worlds are the labels; two worlds share a choice cell exactly when they
    are connected in the sequent graph; an atom is true where its *negation*
    is asserted.  Every labelled formula of the sequent is falsified at its
    label — in particular the goal at ``goal_label``.  Returns the model and
    the (identity) interpretation of labels as worlds.

    Rejects sequents that are not stable for the given choice bound: the
    construction is only meaningful on stable sequents.  The stable sequent
    of a ``prove`` run at bound ``choices`` carries that search's finding,
    so only other sequents and bounds are checked with ``is_stable``.
    """
    if stable._stable_at != choices:
        from .prover import is_stable

        if not is_stable(stable, choices):
            raise ValueError("counter-model extraction needs a stable sequent")
    worlds = stable.labels()
    if goal_label not in worlds:
        raise ValueError(f"goal label w{goal_label} does not occur in the sequent")
    pairs = frozenset(
        (u, v) for block in components(stable, 1) for u in block for v in block
    )
    # The formulas of a search's sequent share their nodes with its goal,
    # and `atoms` walks each shared node once.
    true_at: dict[str, list[int]] = {
        name: [] for name in sorted(atoms(*(f for _, f in stable.forms)))
    }
    for w, f in stable.forms:
        if type(f) is NegAtom:
            true_at[f.name].append(w)
    val = {name: frozenset(labels) for name, labels in true_at.items()}
    model = Model(worlds=worlds, rel={1: pairs}, val=val)
    return model, {w: w for w in worlds}


# ---------------------------------------------------------------------------
# Brute-force validity oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Valid:
    bound: int


@dataclass(frozen=True)
class ValidUpToBound:
    bound: int
    default_bound: int


@dataclass(frozen=True)
class CounterModel:
    model: Model
    world: int


EnumerationResult = Union[Valid, ValidUpToBound, CounterModel]


def default_world_bound(f: Formula) -> int:
    """Worlds enough for a counter-model of ``f``, if it has one.

    Let ``h`` count the ``box`` and ``a`` the ``[i]`` occurrences of ``f``.
    When ``f`` mentions at most one agent ``i``, the bound is
    ``(1 + h)(1 + a)``, proved by selection.  Let ``f`` be false at ``w0``
    of a model ``M``.  Keep ``w0``; for each false ``box g``, one world where
    ``g`` is false (at most ``h`` of them); then, in each cell of ``i`` met
    so far (at most ``1 + h``), one world for each ``[i] g`` false on that
    cell (at most ``a`` per cell).  An ``[i] g`` has one truth value across
    a cell, and this adds no new cell.  On the kept worlds, every subformula
    false in ``M`` stays false, by induction: ``box`` and ``[i]`` keep their
    witnesses, while ``dia``, ``<i>`` and the connectives only need the
    falsity of their parts on the kept worlds.  Restricting the relation
    keeps an equivalence with no more cells.  Every other agent of the frame
    gets one cell, which keeps independence and every choice bound.

    When ``f`` mentions several agents, the bound is ``1 + h + a``: a search
    limit with no completeness proof, so `decide_by_enumeration` reports no
    such goal as `Valid`.  Individual multi-agent choice logic
    is NEXPTIME-complete (Balbiani, Herzig and Troquard, *J. Philos. Logic*
    37, 2008), so no polynomial bound can be complete for it.
    """
    return _world_bound(_compile(f)[0])


def decide_by_enumeration(
    f: Formula,
    agents: int = 1,
    choices: int = 0,
    max_worlds: int | None = None,
) -> EnumerationResult:
    """Search the models with at most ``max_worlds`` worlds, up to
    bisimulation, for a world falsifying ``f``; report one with the fewest
    worlds.

    The default bound is `default_world_bound`.  Finding no counter-model
    is reported as `Valid` only where that bound is proved complete: for a
    goal that mentions at most one agent, searched up to the default bound.
    Otherwise it is `ValidUpToBound`: under a smaller ``max_worlds``, or for
    a goal that mentions several agents, whose bound has no proof (and
    ``!([1] p & dia [1] ~p & [2] r & dia [2] ~r)`` has a counter-model of
    4 worlds, one more than its bound).  A goal that mentions an agent
    below 1 or beyond ``agents`` is refused with a `ValueError`.
    """
    program, names = _compile(f)
    default = _world_bound(program)
    bound = default if max_worlds is None else max_worlds
    if bound < 1:
        raise ValueError("max_worlds must be at least 1")
    if any(kind >= _BOX and rel > agents for kind, rel, _ in program):
        raise ValueError(f"the goal mentions an agent beyond {agents}")
    if len(names) > MAX_ATOMS:
        raise ValueError(
            f"the goal has {len(names)} atoms; the oracle takes at most {MAX_ATOMS}"
        )
    types = 1 << len(names)
    patterns = [  # the types that make atom i true, as a lane
        _repeat(((1 << (1 << i)) - 1) << (1 << i), 2 << i, types >> (i + 1))
        for i in range(len(names))
    ]
    for count in range(1, bound + 1):
        for full, meets in _reduced_models(agents, choices, count, types):
            lanes = _starts(full, types + 1)
            atom_masks = [full & pattern * lanes for pattern in patterns]
            falsified = full ^ _truth(program, atom_masks, full, meets)
            if falsified:
                return _counter_model(names, atom_masks, meets, agents, falsified)
    agentive = {rel for kind, rel, _ in program if kind >= _BOX} - {0}
    if len(agentive) > 1 or max_worlds is not None and max_worlds < default:
        return ValidUpToBound(bound=bound, default_bound=default)
    return Valid(bound=bound)


# Models up to bisimulation.  A world is a valuation *type*: type ``t`` makes
# the ``i``-th atom of `_compile` true iff bit ``i`` of ``t`` is set.  The
# agents' cells cut the worlds into *blocks*, one per way of picking a cell
# for every agent, and a block is an ``int`` mask of the types it holds, one
# world per type: two worlds of one type in one block are bisimilar, so one
# of them is enough.  Independence (C2) says that no block is empty.  With
# one agent the blocks are the cells, and two cells with the same types are
# bisimilar too, so the cells are distinct and come in one canonical order:
# by size down, then by mask up.
#
# A set of worlds is an ``int`` with one *lane* of ``types + 1`` bits per
# block: bit ``t`` of a lane is the world of type ``t`` in that block, and
# the top bit stays clear, as a guard.  One-agent models with ``count``
# worlds are evaluated together, up to `_BATCH_BITS` bits at a time, in one
# *segment* of ``count`` lanes each, whose top bit is its last lane's guard.
# ``meets(rel, mask)`` is the union of the classes of ``rel`` that meet
# ``mask``: relation 0 relates the worlds of one model (``box``), relation
# ``i`` those in one cell of agent ``i``.  With one agent, adding all ones
# below the guard of every lane (segment) sets the guards of exactly the
# lanes (segments) that meet ``mask``, and a product spreads each guard back
# over its lane (segment); with several, `_cell_meets` walks the cells.  A
# lane has ``2 ** atoms`` bits, hence `MAX_ATOMS`.

MAX_ATOMS = 16
_ATOM, _NEG, _AND, _OR, _BOX, _DIA = range(6)
_KINDS = {
    Atom: _ATOM, NegAtom: _NEG, And: _AND, Or: _OR,
    Box: _BOX, Dia: _DIA, AgBox: _BOX, AgDia: _DIA,
}
_BATCH_BITS = 1 << 14

Meets = Callable[[int, int], int]


def _compile(f: Formula) -> tuple[list[tuple[int, int, int]], list[str]]:
    """The distinct subformulas of ``f`` in post-order, ``f`` last, as
    ``(kind, x, y)``, and the atoms in the order met.  ``x`` is an atom's
    index, a child's position or a modality's relation, and ``y`` the body
    of a modality."""
    names: dict[str, int] = {}
    program: list[tuple[int, int, int]] = []
    position: dict[Formula, int] = {}
    for g in nodes(f):
        kind = _KINDS[type(g)]
        if kind <= _NEG:
            op = (kind, names.setdefault(g.name, len(names)), 0)
        elif kind <= _OR:
            op = (kind, position[g.left], position[g.right])
        else:  # relation 0 is that of box and dia; agents count from 1
            rel = getattr(g, "agent", None)
            if rel is None:
                rel = 0
            elif rel < 1:
                raise ValueError(f"the goal mentions agent {rel}; agents count from 1")
            op = (kind, rel, position[g.body])
        position[g] = len(program)
        program.append(op)
    return program, list(names)


def _world_bound(program: list[tuple[int, int, int]]) -> int:
    """`default_world_bound` of the formula compiled to ``program``, from
    how often each of its distinct subformulas occurs, counted parents
    first."""
    occurrences = [0] * len(program)
    occurrences[-1] = 1
    for i in range(len(program) - 1, -1, -1):
        kind, x, y = program[i]
        if kind == _AND or kind == _OR:
            occurrences[x] += occurrences[i]
            occurrences[y] += occurrences[i]
        elif kind >= _BOX:  # relation ``x``, body ``y``
            occurrences[y] += occurrences[i]
    boxes = [(x, count) for (kind, x, _), count in zip(program, occurrences) if kind == _BOX]
    h = sum(count for x, count in boxes if x == 0)
    a = sum(count for x, count in boxes if x != 0)
    if len({x for kind, x, _ in program if kind >= _BOX} - {0}) > 1:
        return 1 + h + a
    return (1 + h) * (1 + a)


def _truth(
    program: list[tuple[int, int, int]], atom_masks: list[int], full: int, meets: Meets
) -> int:
    """The worlds of ``full`` at which the last formula of ``program`` holds."""
    truth: list[int] = []
    for kind, x, y in program:
        if kind == _OR:
            value = truth[x] | truth[y]
        elif kind == _AND:
            value = truth[x] & truth[y]
        elif kind == _ATOM:
            value = atom_masks[x]
        elif kind == _NEG:
            value = full ^ atom_masks[x]
        elif kind == _BOX:
            value = full ^ meets(x, full ^ truth[y])
        else:
            value = meets(x, truth[y])
        truth.append(value)
    return truth[-1]


def _reduced_models(
    agents: int, choices: int, count: int, types: int
) -> Iterator[tuple[int, Meets]]:
    """Every model with ``count`` worlds up to bisimulation, in batches of
    their worlds and their ``meets``."""
    most = choices if choices > 0 else count
    limit = 1 << types
    if agents == 1:
        width = count * (types + 1)
        capacity = max(1, _BATCH_BITS // width)
        batch, size = 0, 0
        for full in _cell_sets(limit, count, most, count, 0, 0):
            batch |= full << (size * width)
            size += 1
            if size == capacity:
                yield batch, _lane_meets(batch, types, width)
                batch, size = 0, 0
        if size:
            yield batch, _lane_meets(batch, types, width)
        return
    for shape in itertools.product(range(1, most + 1), repeat=agents):
        if math.prod(shape) > count:
            continue  # more blocks than worlds
        picks = list(itertools.product(*map(range, shape)))
        for blocks in _blocks(limit, count, len(picks)):
            cells = [[0] * size for size in shape]
            full = 0
            for j, (block, pick) in enumerate(zip(blocks, picks)):
                worlds = block << (j * (types + 1))
                full |= worlds
                for agent, cell in enumerate(pick):
                    cells[agent][cell] |= worlds
            yield full, _cell_meets(full, cells)


def _lane_meets(full: int, types: int, width: int) -> Meets:
    """``meets`` for one-agent models in segments of ``width`` bits, whose
    cells are their lanes."""
    lane, segment = (1 << types) - 1, (1 << (width - 1)) - 1
    lanes, segments = _starts(full, types + 1), _starts(full, width)
    lane_ones, lane_guards = lane * lanes, lanes << types
    segment_ones, segment_guards = segment * segments, segments << (width - 1)

    def meets(rel: int, mask: int) -> int:
        if rel:
            return (((mask + lane_ones) & lane_guards) >> types) * lane & full
        guards = (mask + segment_ones) & segment_guards
        return (guards >> (width - 1)) * segment & full

    return meets


def _cell_meets(full: int, cells: list[list[int]]) -> Meets:
    """``meets`` for one model whose agents have the given cells."""

    def meets(rel: int, mask: int) -> int:
        if rel:
            return sum(cell for cell in cells[rel - 1] if cell & mask)
        return full if mask else 0

    return meets


def _repeat(pattern: int, width: int, count: int) -> int:
    """``count`` copies of ``pattern``, one every ``width`` bits."""
    return pattern * (((1 << (width * count)) - 1) // ((1 << width) - 1))


def _starts(full: int, width: int) -> int:
    """A one at the start of every ``width`` bits, up to the top of ``full``."""
    return _repeat(1, width, full.bit_length() // width + 1)


def _cell_sets(
    limit: int, worlds: int, most: int, largest: int, after: int, packed: int
) -> Iterator[int]:
    """The lanes ``packed`` followed by at most ``most`` distinct non-empty
    cells below ``limit``, one lane each, with ``worlds`` types in all, in
    the canonical order after a cell of ``largest`` types and mask
    ``after``."""
    for size in range(min(worlds, largest), 0, -1):
        if size * most < worlds:
            return
        cell = _next_mask(after) if size == largest and after else (1 << size) - 1
        while cell < limit:
            lanes = packed << limit.bit_length() | cell
            if size == worlds:
                yield lanes
            else:
                yield from _cell_sets(limit, worlds - size, most - 1, size, cell, lanes)
            cell = _next_mask(cell)


def _blocks(limit: int, worlds: int, count: int) -> Iterator[tuple[int, ...]]:
    """Every ``count`` non-empty masks below ``limit`` with ``worlds`` bits
    in all."""
    if count == 0:
        if worlds == 0:
            yield ()
        return
    for size in range(1, worlds - count + 2):
        mask = (1 << size) - 1
        while mask < limit:
            for rest in _blocks(limit, worlds - size, count - 1):
                yield (mask,) + rest
            mask = _next_mask(mask)


def _next_mask(mask: int) -> int:
    """The next larger ``int`` with as many bits set (Gosper's hack)."""
    low = mask & -mask
    ripple = mask + low
    return (((ripple ^ mask) >> 2) // low) | ripple


def _counter_model(
    names: Sequence[str],
    atom_masks: list[int],
    meets: Meets,
    agents: int,
    falsified: int,
) -> CounterModel:
    """The model of the first world in ``falsified``, its worlds numbered
    from 0 upwards."""
    first = falsified & -falsified
    bits = _bits(meets(0, first))
    number = {bit: world for world, bit in enumerate(bits)}
    model = Model(
        worlds=tuple(range(len(bits))),
        rel={
            agent: frozenset(
                (number[bit], number[other])
                for bit in bits
                for other in _bits(meets(agent, 1 << bit))
            )
            for agent in range(1, agents + 1)
        },
        val={
            name: frozenset(number[bit] for bit in _bits(mask) if bit in number)
            for name, mask in zip(names, atom_masks)
        },
    )
    return CounterModel(model=model, world=number[first.bit_length() - 1])


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits
