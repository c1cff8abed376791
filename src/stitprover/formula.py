"""Negation-normal-form modal formulas: AST, parser, printer, duality.

Formulas are kept in negation normal form throughout: negation exists only
on atoms, and every operator has an explicit dual (box/diamond, and/or,
agentive box/diamond).  General negation is a *function* (`negate`), not a
connective, so the surface syntax `!f` and the arrow connectives desugar at
parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class NegAtom:
    name: str

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Box:
    body: "Formula"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Dia:
    body: "Formula"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class AgBox:
    agent: int
    body: "Formula"

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class AgDia:
    agent: int
    body: "Formula"

    def __str__(self) -> str:
        return pretty(self)


Formula = Union[Atom, NegAtom, And, Or, Box, Dia, AgBox, AgDia]

# Reserved atom backing the `true` / `false` surface constants.  The name is
# not a legal identifier, so user input can never collide with it.
RESERVED_ATOM = "$const"

TRUE = Or(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))
FALSE = And(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))

# `negate` swaps the operands, so both orientations denote the constants.
_TRUE_FORMS = frozenset({TRUE, Or(NegAtom(RESERVED_ATOM), Atom(RESERVED_ATOM))})
_FALSE_FORMS = frozenset({FALSE, And(NegAtom(RESERVED_ATOM), Atom(RESERVED_ATOM))})


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def negate(f: Formula) -> Formula:
    """Negation by duality: an involution that keeps formulas in NNF."""
    match f:
        case Atom(name):
            return NegAtom(name)
        case NegAtom(name):
            return Atom(name)
        case And(left, right):
            return Or(negate(left), negate(right))
        case Or(left, right):
            return And(negate(left), negate(right))
        case Box(body):
            return Dia(negate(body))
        case Dia(body):
            return Box(negate(body))
        case AgBox(agent, body):
            return AgDia(agent, negate(body))
        case AgDia(agent, body):
            return AgBox(agent, negate(body))
    raise TypeError(f"not a formula: {f!r}")


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(negate(antecedent), consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def subformulae(f: Formula) -> tuple[Formula, ...]:
    """All subformula occurrences of ``f`` (a multiset: duplicates kept)."""
    return tuple(_walk(f))


def _walk(f: Formula) -> Iterator[Formula]:
    """The nodes of ``f`` in pre-order, left before right, on an explicit
    stack, so the depth of ``f`` is limited by memory only."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        match g:
            case And(left, right) | Or(left, right):
                todo.append(right)
                todo.append(left)
            case Box(body) | Dia(body) | AgBox(_, body) | AgDia(_, body):
                todo.append(body)


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(
        g.name for g in _walk(f) if isinstance(g, (Atom, NegAtom))
    )


def agents_of(f: Formula) -> frozenset[int]:
    return frozenset(
        g.agent for g in _walk(f) if isinstance(g, (AgBox, AgDia))
    )


def depth(f: Formula) -> int:
    match f:
        case Atom(_) | NegAtom(_):
            return 0
        case And(left, right) | Or(left, right):
            return 1 + max(depth(left), depth(right))
        case Box(body) | Dia(body) | AgBox(_, body) | AgDia(_, body):
            return 1 + depth(body)
    raise TypeError(f"not a formula: {f!r}")


def connective_count(f: Formula) -> int:
    """Number of non-leaf nodes in the syntax tree."""
    return sum(1 for g in _walk(f) if not isinstance(g, (Atom, NegAtom)))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
#
#   formula := iff
#   iff     := imp ("<->" imp)*
#   imp     := disj ("->" imp)?            right-associative
#   disj    := conj ("|" conj)*
#   conj    := unary ("&" unary)*
#   unary   := "!" unary | "box" unary | "dia" unary
#            | "[" INT "]" unary | "<" INT ">" unary
#            | "~" IDENT | IDENT | "true" | "false" | "(" formula ")"
#
# `->` / `<->` / `!` / `true` / `false` are sugar; the produced AST is NNF.


class ParseError(ValueError):
    """Raised on malformed input or out-of-range agent indices."""


_KEYWORDS = frozenset({"box", "dia", "true", "false"})

_TOKEN_RE = re.compile(
    r"<->|->|[()\[\]<>&|!~]|\d+|[A-Za-z_][A-Za-z0-9_]*"
)
_SKIP_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        pos = _SKIP_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


# The deepest formula `parse` builds, and the most parentheses and prefix
# operators it reads open at once.  Hashing, printing and negating recurse
# once per level, and the parser once per open parenthesis or operator; this
# keeps them all well inside Python's default recursion limit of 1000.
MAX_NESTING = 100

# The most nodes (subformula occurrences) of a formula `parse` builds.  Each
# `<->` copies both of its operands twice, so a chain of them doubles the
# syntax tree per link, and negating or hashing it walks every node; the
# parser counts the nodes before it builds.
MAX_NODES = 10_000


class _Parser:
    """Recursive descent; every rule returns a formula with its depth and
    node count."""

    def __init__(self, text: str, agents: int):
        self.agents = agents
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str) -> None:
        tok, at = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r} but found {tok!r} at position {at}")

    def enter(self, at: int) -> None:
        """Open one more parenthesis or prefix operator; the caller closes
        it by decrementing ``open`` once the nested rule returns."""
        if self.open == MAX_NESTING:
            raise ParseError(
                f"more than {MAX_NESTING} nested parentheses and operators "
                f"at position {at}"
            )
        self.open += 1

    def measured(self, d: int, n: int, at: int) -> tuple[int, int]:
        """Admit the depth and node count of a formula about to be built."""
        if d > MAX_NESTING:
            raise ParseError(f"formula deeper than {MAX_NESTING} at position {at}")
        if n > MAX_NODES:
            raise ParseError(f"formula of over {MAX_NODES} nodes at position {at}")
        return d, n

    def formula(self) -> tuple[Formula, int, int]:
        f, d, n = self.imp()
        while self.peek() == "<->":
            _, at = self.next()
            g, e, m = self.imp()
            d, n = self.measured(2 + max(d, e), 3 + 2 * (n + m), at)
            f = iff(f, g)
        return f, d, n

    def imp(self) -> tuple[Formula, int, int]:
        f, d, n = self.disj()
        if self.peek() == "->":
            _, at = self.next()
            self.enter(at)
            g, e, m = self.imp()
            self.open -= 1
            d, n = self.measured(1 + max(d, e), 1 + n + m, at)
            return implies(f, g), d, n
        return f, d, n

    def disj(self) -> tuple[Formula, int, int]:
        f, d, n = self.conj()
        while self.peek() == "|":
            _, at = self.next()
            g, e, m = self.conj()
            d, n = self.measured(1 + max(d, e), 1 + n + m, at)
            f = Or(f, g)
        return f, d, n

    def conj(self) -> tuple[Formula, int, int]:
        f, d, n = self.unary()
        while self.peek() == "&":
            _, at = self.next()
            g, e, m = self.unary()
            d, n = self.measured(1 + max(d, e), 1 + n + m, at)
            f = And(f, g)
        return f, d, n

    def unary(self) -> tuple[Formula, int, int]:
        tok, at = self.next()
        if tok == "~":
            name, at = self.next()
            if not name[0].isalpha() and name[0] != "_" or name in _KEYWORDS:
                raise ParseError(f"expected an atom after '~' at position {at}")
            return NegAtom(name), 0, 1
        if tok == "true":
            return TRUE, 1, 3
        if tok == "false":
            return FALSE, 1, 3
        if tok == "(":
            self.enter(at)
            f, d, n = self.formula()
            self.expect(")")
            self.open -= 1
            return f, d, n
        if (tok[0].isalpha() or tok[0] == "_") and tok not in _KEYWORDS:
            return Atom(tok), 0, 1
        if tok in ("[", "<"):
            agent = self.agent_index()
            self.expect("]" if tok == "[" else ">")
        elif tok not in ("!", "box", "dia"):
            raise ParseError(f"unexpected token {tok!r} at position {at}")
        self.enter(at)
        body, d, n = self.unary()
        self.open -= 1
        if tok == "!":
            return negate(body), d, n
        d, n = self.measured(1 + d, 1 + n, at)
        if tok == "box":
            f = Box(body)
        elif tok == "dia":
            f = Dia(body)
        elif tok == "[":
            f = AgBox(agent, body)
        else:
            f = AgDia(agent, body)
        return f, d, n

    def agent_index(self) -> int:
        tok, at = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected an agent index at position {at}")
        agent = int(tok)
        if not 1 <= agent <= self.agents:
            raise ParseError(
                f"agent index {agent} out of range 1..{self.agents} at position {at}"
            )
        return agent


def parse(text: str, agents: int = 1) -> Formula:
    """Parse surface syntax into an NNF formula over agents ``1..agents``.

    Input nested deeper than ``MAX_NESTING``, or a formula of more than
    ``MAX_NODES`` nodes, is a `ParseError`.
    """
    parser = _Parser(text, agents)
    f, _, _ = parser.formula()
    if parser.pos != len(parser.tokens):
        tok, at = parser.tokens[parser.pos]
        raise ParseError(f"trailing input {tok!r} at position {at}")
    return f


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def pretty(f: Formula) -> str:
    """Render with minimal parentheses; `parse(pretty(f)) == f`."""
    return _show(f, 0)


def _show(f: Formula, min_prec: int) -> str:
    if f in _TRUE_FORMS:
        return "true"
    if f in _FALSE_FORMS:
        return "false"
    match f:
        case Atom(name):
            text, prec = name, _PREC_ATOM
        case NegAtom(name):
            text, prec = f"~{name}", _PREC_ATOM
        case And(left, right):
            # Left-associative chains print flat; a right-nested `&` needs
            # parentheses to survive the round trip.
            text = f"{_show(left, _PREC_AND)} & {_show(right, _PREC_AND + 1)}"
            prec = _PREC_AND
        case Or(left, right):
            text = f"{_show(left, _PREC_OR)} | {_show(right, _PREC_OR + 1)}"
            prec = _PREC_OR
        case Box(body):
            text, prec = f"box {_show(body, _PREC_UNARY)}", _PREC_UNARY
        case Dia(body):
            text, prec = f"dia {_show(body, _PREC_UNARY)}", _PREC_UNARY
        case AgBox(agent, body):
            text, prec = f"[{agent}] {_show(body, _PREC_UNARY)}", _PREC_UNARY
        case AgDia(agent, body):
            text, prec = f"<{agent}> {_show(body, _PREC_UNARY)}", _PREC_UNARY
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return f"({text})"
    return text
