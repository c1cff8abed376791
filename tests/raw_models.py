"""Every model up to a world count, raw: the reference the oracle is tested
against.

`stitprover.semantics.decide_by_enumeration` walks models up to
bisimulation; these tests compare it, and the checker's soundness, against
this plain enumeration of every frame and valuation.
"""

import itertools
from typing import Iterator, Sequence

from stitprover import Model


def _partitions(items: tuple[int, ...]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


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
