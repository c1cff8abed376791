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
enumerates all models up to a world bound and reports the first
counter-model in a canonical order, or validity when none exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

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
    parse,
    pretty,
    subformulae,
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


def _truth_sets(
    f: Formula,
    worlds: frozenset[int],
    cells: Mapping[int, Mapping[int, frozenset[int]]],
    val: Mapping[str, frozenset[int]],
) -> dict[Formula, frozenset[int]]:
    """Worlds at which each subformula is true, computed bottom-up."""
    memo: dict[Formula, frozenset[int]] = {}
    empty: frozenset[int] = frozenset()

    def go(g: Formula) -> frozenset[int]:
        cached = memo.get(g)
        if cached is not None:
            return cached
        match g:
            case Atom(name):
                result = val.get(name, empty) & worlds
            case NegAtom(name):
                result = worlds - val.get(name, empty)
            case And(left, right):
                result = go(left) & go(right)
            case Or(left, right):
                result = go(left) | go(right)
            case Box(body):
                result = worlds if go(body) == worlds else empty
            case Dia(body):
                result = worlds if go(body) else empty
            case AgBox(agent, body):
                body_set = go(body)
                result = frozenset(
                    w for w in worlds if cells[agent][w] <= body_set
                )
            case AgDia(agent, body):
                body_set = go(body)
                result = frozenset(
                    w for w in worlds if cells[agent][w] & body_set
                )
            case _:
                raise TypeError(f"not a formula: {g!r}")
        memo[g] = result
        return result

    go(f)
    return memo


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
    truth = _truth_sets(f, frozenset(model.worlds), _cells_of(model), model.val)
    return world in truth[f]


def globally_true(model: Model, f: Formula) -> bool:
    truth = _truth_sets(f, frozenset(model.worlds), _cells_of(model), model.val)
    return truth[f] == frozenset(model.worlds)


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
    construction is only meaningful on stable sequents.
    """
    from .prover import is_stable

    if not is_stable(stable, choices):
        raise ValueError("counter-model extraction needs a stable sequent")
    worlds = stable.labels()
    if goal_label not in worlds:
        raise ValueError(f"goal label w{goal_label} does not occur in the sequent")
    blocks = components(stable, 1)
    pairs = frozenset(
        (u, v) for block in blocks for u in block for v in block
    )
    names = sorted({name for _, f in stable.forms for name in atoms(f)})
    val = {
        name: frozenset(w for w in worlds if stable.has_form(w, NegAtom(name)))
        for name in names
    }
    model = Model(worlds=tuple(worlds), rel={1: pairs}, val=val)
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
    """One world per universal-modal subformula occurrence, plus one."""
    return 1 + sum(1 for g in subformulae(f) if isinstance(g, (Box, AgBox)))


def _partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_models(
    names: Sequence[str],
    agents: int = 1,
    choices: int = 0,
    max_worlds: int = 4,
) -> Iterator[Model]:
    """Every model with 1..max_worlds worlds over the given atoms.

    Worlds are 0..k-1; agent relations range over all set partitions (at
    most ``choices`` blocks when the bound is positive), filtered by the
    independence condition for several agents; valuations are exhaustive.
    Isomorphic models are not collapsed — correctness over speed.
    """
    for count in range(1, max_worlds + 1):
        worlds = tuple(range(count))
        parts = [
            [frozenset(block) for block in part]
            for part in _partitions(worlds)
            if choices == 0 or len(part) <= choices
        ]
        for combo in itertools.product(parts, repeat=agents):
            if agents > 1 and not _independent(combo, worlds):
                continue
            rel = {
                agent: frozenset(
                    (u, v)
                    for block in combo[agent - 1]
                    for u in block
                    for v in block
                )
                for agent in range(1, agents + 1)
            }
            for masks in itertools.product(range(2 ** count), repeat=len(names)):
                val = {
                    name: frozenset(w for w in worlds if mask >> w & 1)
                    for name, mask in zip(names, masks)
                }
                yield Model(worlds=worlds, rel=rel, val=val)


def decide_by_enumeration(
    f: Formula,
    agents: int = 1,
    choices: int = 0,
    max_worlds: int | None = None,
) -> EnumerationResult:
    """Search every model with at most ``max_worlds`` worlds for a world
    falsifying ``f``; report the first one found in canonical order.

    The default bound is `default_world_bound`.  Passing a smaller bound
    makes a "valid" outcome incomplete, which is reported as
    `ValidUpToBound`.
    """
    default = default_world_bound(f)
    bound = default if max_worlds is None else max_worlds
    if bound < 1:
        raise ValueError("max_worlds must be at least 1")
    names = sorted(atoms(f))

    for count in range(1, bound + 1):
        worlds = tuple(range(count))
        world_set = frozenset(worlds)
        parts = [
            [frozenset(block) for block in part]
            for part in _partitions(worlds)
            if choices == 0 or len(part) <= choices
        ]
        for combo in itertools.product(parts, repeat=agents):
            if agents > 1 and not _independent(combo, worlds):
                continue
            cells = {
                agent: {w: block for block in combo[agent - 1] for w in block}
                for agent in range(1, agents + 1)
            }
            for masks in itertools.product(range(2 ** count), repeat=len(names)):
                val = {
                    name: frozenset(w for w in worlds if mask >> w & 1)
                    for name, mask in zip(names, masks)
                }
                truth = _truth_sets(f, world_set, cells, val)
                falsified = world_set - truth[f]
                if falsified:
                    world = min(falsified)
                    rel = {
                        agent: frozenset(
                            (u, v)
                            for block in combo[agent - 1]
                            for u in block
                            for v in block
                        )
                        for agent in range(1, agents + 1)
                    }
                    return CounterModel(
                        model=Model(worlds=worlds, rel=rel, val=val), world=world
                    )
    if max_worlds is not None and max_worlds < default:
        return ValidUpToBound(bound=bound, default_bound=default)
    return Valid(bound=bound)


def _independent(
    combo: tuple[list[frozenset[int]], ...], worlds: tuple[int, ...]
) -> bool:
    lookup = [
        {w: block for block in part for w in block} for part in combo
    ]
    for picks in itertools.product(worlds, repeat=len(combo)):
        cells = [lookup[i][picks[i]] for i in range(len(combo))]
        if not frozenset.intersection(*cells):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def model_to_json(model: Model) -> dict:
    return {
        "worlds": list(model.worlds),
        "rel": {
            str(agent): sorted([u, v] for u, v in pairs)
            for agent, pairs in sorted(model.rel.items())
        },
        "val": {
            name: sorted(trueset) for name, trueset in sorted(model.val.items())
        },
    }


def model_from_json(obj: dict) -> Model:
    return Model(
        worlds=tuple(int(w) for w in obj["worlds"]),
        rel={
            int(agent): frozenset((int(u), int(v)) for u, v in pairs)
            for agent, pairs in obj["rel"].items()
        },
        val={
            str(name): frozenset(int(w) for w in trueset)
            for name, trueset in obj.get("val", {}).items()
        },
    )
