"""The goals of the three workloads, made as formula text from a seed.

Nothing here imports ``stitprover``: the goals and their known answers are
computed apart from the program under test, so a change to the program
(``stitprover.generate`` included) cannot change what is measured.

A ``Goal`` is one operation of a pass: one formula at one choice bound,
with the verdict it must get.  ``expected`` is ``True`` (valid), ``False``
(refuted) or ``None`` (no known answer: the oracle, or the evidence alone,
decides).  ``oracle`` asks for the enumeration oracle's cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Goal:
    text: str
    choices: int
    expected: bool | None
    oracle: bool
    family: str


# ---------------------------------------------------------------------------
# axioms: the 16 characteristic axioms, each at its own bound
# ---------------------------------------------------------------------------

# Templates over three atom slots; each is a theorem at its bound (and at
# every bound for the first 13).  The last three are the bounded-choice
# axioms BC_1, BC_2 and BC_3 at n = k.
AXIOMS: tuple[tuple[str, int], ...] = (
    ("{a} -> ({b} -> {a})", 0),
    ("(~{b} -> ~{a}) -> ({a} -> {b})", 0),
    ("({a} -> ({b} -> {c})) -> (({a} -> {b}) -> ({a} -> {c}))", 0),
    ("box ({a} -> {b}) -> (box {a} -> box {b})", 0),
    ("box {a} -> {a}", 0),
    ("dia {a} -> box dia {a}", 0),
    ("box {a} | dia ~{a}", 0),
    ("[1] ({a} -> {b}) -> ([1] {a} -> [1] {b})", 0),
    ("[1] {a} -> {a}", 0),
    ("<1> {a} -> [1] <1> {a}", 0),
    ("[1] {a} | <1> ~{a}", 0),
    ("box {a} -> [1] {a}", 0),
    ("dia [1] {a} -> dia [1] {a}", 0),
    ("dia [1] {a} -> {a}", 1),
    ("dia [1] {a} & dia (~{a} & [1] {b}) -> {a} | {b}", 2),
    ("dia [1] {a} & dia (~{a} & [1] {b}) & dia (~{a} & ~{b} & [1] {c}) "
     "-> {a} | {b} | {c}", 3),
)

# Atom names the seed draws from; all one letter, so renaming leaves every
# text, certificate and model the same size.
_ATOM_POOL = "pqrstuvw"


def axioms(seed: int) -> list[Goal]:
    """The axioms under a seeded renaming of their atoms.

    A theorem stays a theorem under renaming its atoms, and with one-letter
    names every goal keeps its size, so each seed does the same work, in
    the same order.
    """
    rng = random.Random(seed)
    a, b, c = rng.sample(_ATOM_POOL, 3)
    return [
        Goal(text.format(a=a, b=b, c=c), n, True, True, "axiom")
        for text, n in AXIOMS
    ]


# ---------------------------------------------------------------------------
# corpus: a seeded sample of the criterion-3 corpus at n = 0, 1, 2
# ---------------------------------------------------------------------------

CORPUS_BOUNDS = (0, 1, 2)
CORPUS_MAX_CONNECTIVES = 3
CORPUS_RANDOM = 500
CORPUS_RANDOM_DEPTH = 4
CORPUS_RANDOM_MAX_UNIVERSAL = 2
CORPUS_SAMPLE = 2000


def enumerate_texts(
    max_connectives: int, atom_names: Sequence[str] = ("p", "q")
) -> Iterator[str]:
    """Every single-agent NNF formula with at most ``max_connectives``
    connectives, fully parenthesised, in ascending connective count."""
    literals = [*atom_names, *(f"~{a}" for a in atom_names)]
    by_count = [literals]
    yield from literals
    for count in range(1, max_connectives + 1):
        level = []
        for body in by_count[count - 1]:
            level += [f"box {body}", f"dia {body}", f"[1] {body}", f"<1> {body}"]
        for left_count in range(count):
            for left in by_count[left_count]:
                for right in by_count[count - 1 - left_count]:
                    level += [f"({left} & {right})", f"({left} | {right})"]
        by_count.append(level)
        yield from level


def random_text(
    rng: random.Random, max_depth: int, atom_names: Sequence[str]
) -> tuple[str, int, int]:
    """A random single-agent NNF formula of depth at most ``max_depth``, as
    ``(text, depth, connectives)``.  Each node is a literal, a conjunction,
    a disjunction or one of the four modalities with equal odds, and a
    literal at depth 0."""
    kind = "literal" if max_depth <= 0 else rng.choice(
        ("literal", "&", "|", "box", "dia", "[1]", "<1>")
    )
    if kind == "literal":
        name = rng.choice(atom_names)
        return (name if rng.random() < 0.5 else f"~{name}"), 0, 0
    if kind in ("&", "|"):
        left, left_depth, left_count = random_text(rng, max_depth - 1, atom_names)
        right, right_depth, right_count = random_text(rng, max_depth - 1, atom_names)
        return (f"({left} {kind} {right})", 1 + max(left_depth, right_depth),
                1 + left_count + right_count)
    body, body_depth, body_count = random_text(rng, max_depth - 1, atom_names)
    return f"{kind} {body}", 1 + body_depth, 1 + body_count


def corpus(seed: int) -> list[Goal]:
    """``CORPUS_SAMPLE`` goals drawn from the criterion-3 corpus: every NNF
    formula over p, q with at most 3 connectives, plus 500 random goals of
    depth at most 4.  Each is decided at n = 0, 1, 2 by both engines.

    A random goal is kept only with at most 2 ``box`` and ``[1]``
    occurrences.  The oracle's world bound is one more than that count, and
    a valid goal makes it visit every model up to the bound.  With 3, one
    goal took up to 0.5 s, where no enumerated formula takes more than
    0.03 s for its three runs, and the seeds that drew several such goals
    ran 10-20 % slower.  The exhaustive oracle is what the axioms workload
    measures; here it would make the pass time hinge on the seed.
    """
    rng = random.Random(seed)
    texts = list(enumerate_texts(CORPUS_MAX_CONNECTIVES))
    kept = 0
    while kept < CORPUS_RANDOM:
        text = random_text(rng, CORPUS_RANDOM_DEPTH, ("p", "q"))[0]
        if text.count("box") + text.count("[1]") <= CORPUS_RANDOM_MAX_UNIVERSAL:
            texts.append(text)
            kept += 1
    return [
        Goal(text, n, None, True, "corpus")
        for text in rng.sample(texts, CORPUS_SAMPLE)
        for n in CORPUS_BOUNDS
    ]


# ---------------------------------------------------------------------------
# ladder: large goals with known answers, decided by search alone
# ---------------------------------------------------------------------------

BC_MAX = 7
CHAIN_MAX = 5
TOWER_HEIGHTS = (5, 10, 15, 20, 25, 30)
LADDER_RANDOM = 200
LADDER_RANDOM_DEPTH = 6
LADDER_RANDOM_MAX_CONNECTIVES = 7


def bounded_choice(k: int) -> str:
    """BC_k: ``dia [1] p1 & dia (~p1 & [1] p2) & ... -> p1 | ... | pk``.

    Valid exactly when ``1 <= n <= k``.  A counter-model needs a world w0
    falsifying every ``pi`` and, for each ``i``, a world ``vi`` whose cell
    makes ``pi`` true while ``vi`` falsifies ``p1 .. p(i-1)``.  Then the
    cells of ``v1 .. vk`` and ``w0`` are pairwise distinct: ``vj`` (j > i)
    and ``w0`` falsify ``pi``, which holds throughout the cell of ``vi``.  So
    a counter-model needs k + 1 cells, which the bound ``n`` forbids exactly
    when ``1 <= n <= k``; with k + 1 one-world cells (n = 0 or n > k) it
    exists.
    """
    atoms = [f"p{i}" for i in range(1, k + 1)]
    conjuncts = []
    for i, atom in enumerate(atoms):
        guard = "".join(f"~{a} & " for a in atoms[:i])
        conjuncts.append(f"dia ({guard}[1] {atom})" if guard else f"dia [1] {atom}")
    return f"{' & '.join(conjuncts)} -> {' | '.join(atoms)}"


def chain(depth: int) -> str:
    """``(box dia [1])^depth p``: false at a one-world model where p is
    false, since every modality there ranges over that one world."""
    return "box dia [1] " * depth + "p"


def tower(height: int) -> str:
    """``box^height p``: false at a one-world model where p is false."""
    return "box " * height + "p"


def ladder(seed: int) -> list[Goal]:
    """Known-answer families plus seeded random goals over p, q, r.

    The random goals have depth exactly 6 and at most 7 connectives, so at
    most one binary connective.  The cost of unrestricted random goals is
    heavy-tailed: among depth-6 goals over p, q, r, one in a few hundred
    makes thousands of case splits (one took 23 s with its certificate
    check), and shallow ones take a fraction of a millisecond.  With such
    goals one seed's pass differs from the next by more than any change
    worth measuring.  Deep, narrow goals keep the ladder's spread small.
    """
    goals = []
    for k in range(1, BC_MAX + 1):
        for n in (k, k + 1, 0):
            goals.append(Goal(bounded_choice(k), n, 1 <= n <= k, False, "bc"))
    for depth in range(1, CHAIN_MAX + 1):
        for n in (0, 1):
            goals.append(Goal(chain(depth), n, False, False, "chain"))
    for height in TOWER_HEIGHTS:
        goals.append(Goal(tower(height), 0, False, False, "tower"))
    rng = random.Random(seed)
    kept = 0
    while kept < LADDER_RANDOM:
        text, depth, count = random_text(rng, LADDER_RANDOM_DEPTH, ("p", "q", "r"))
        if depth == LADDER_RANDOM_DEPTH and count <= LADDER_RANDOM_MAX_CONNECTIVES:
            kept += 1
            goals += [Goal(text, n, None, False, "random") for n in (0, 1, 2)]
    return goals


WORKLOADS = {"axioms": axioms, "corpus": corpus, "ladder": ladder}
