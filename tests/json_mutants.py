"""A Hypothesis strategy that mutates a JSON value once, at any path.

The readers' fuzz tests start from what a writer wrote and make one edit:
drop a key or an entry, add one (a fixed value or a copy of a subtree),
retype a value, or put a copy of another subtree in its place.  Most mutants are malformed; the rest must read back
exactly as they were written.
"""

import copy

from hypothesis import strategies as st

# Values an edit may add or retype to: every JSON type, and some values a
# writer writes, so that some mutants are still well formed.
VALUES = (
    None, True, False, 0, 1, 2, -1, 0.0, 1.0, "", "p", "~p", "p | ~p", "or",
    "refined", [], {}, [0], [0, "p"], [1, 0, 0], {"label": 0},
    {"forms": [[0, "p"]]}, ["id", {"label": 0, "atom": "p"}, 0, {}],
)

# Keys an edit may add to an object: those the certificate and model
# writers write, and one that no writer writes.
KEYS = (
    "bogus", "m", "n", "mode", "version", "root", "steps", "drop", "rel",
    "forms", "label", "formula", "atom", "fresh", "witness", "agent",
    "targets", "roots", "worlds", "val", "1", "p",
)


def _paths(value, path=()):
    """The path of every value inside ``value``, ``value`` itself first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def _at(value, path):
    for step in path:
        value = value[step]
    return value


def _retyped(value) -> list:
    """Values of another JSON type that a lax reader might take as ``value``."""
    if isinstance(value, bool):
        return [int(value), str(value).lower(), None]
    if isinstance(value, int):
        return [bool(value), float(value), str(value), [value], None]
    if isinstance(value, str):
        return [[value], 0, None, {value: value}]
    if isinstance(value, list):
        return [{str(i): item for i, item in enumerate(value)}, None, 0]
    if isinstance(value, dict):
        return [list(value.values()), list(value)]
    return [0, ""]


def _copy(draw, holder, paths, near):
    """One of ``VALUES``, or a copy of a value found in ``holder``: of one
    of ``near``, so that an entry repeats its sibling, or of any subtree."""
    source = draw(st.sampled_from(("fixed", "near", "any")))
    if source == "near" and near:
        return copy.deepcopy(draw(st.sampled_from(near)))
    if source == "any":
        return copy.deepcopy(_at(holder, draw(st.sampled_from(paths))))
    return draw(st.sampled_from(VALUES))


@st.composite
def mutants(draw, originals):
    """A deep copy of one of ``originals`` with one edit at one path."""
    holder = [copy.deepcopy(draw(st.sampled_from(originals)))]
    paths = list(_paths(holder))[1:]
    path = draw(st.sampled_from(paths))
    parent, step = _at(holder, path[:-1]), path[-1]
    value = parent[step]
    edit = draw(st.sampled_from(("drop", "add", "retype", "replace")))
    if edit == "drop" and path != (0,):
        del parent[step]
    elif edit == "add" and isinstance(value, dict):
        value[draw(st.sampled_from(KEYS))] = _copy(draw, holder, paths, list(value.values()))
    elif edit == "add" and isinstance(value, list):
        value.insert(draw(st.integers(0, len(value))), _copy(draw, holder, paths, value))
    elif edit == "replace":
        parent[step] = copy.deepcopy(_at(holder, draw(st.sampled_from(paths))))
    else:
        parent[step] = draw(st.sampled_from(_retyped(value)))
    return holder[0]
