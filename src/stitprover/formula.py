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
from typing import Callable, TypeVar, Union

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
_T = TypeVar("_T")

# Reserved atom backing the `true` / `false` surface constants.  The name is
# not a legal identifier, so user input can never collide with it.
RESERVED_ATOM = "$const"

TRUE = Or(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))
FALSE = And(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def negate(f: Formula) -> Formula:
    """Negation by duality: an involution that keeps formulas in NNF."""
    return _fold(f, lambda g: _DUAL[type(g)](g.name), _negate_connective)


_DUAL = {
    Atom: NegAtom, NegAtom: Atom, And: Or, Or: And,
    Box: Dia, Dia: Box, AgBox: AgDia, AgDia: AgBox,
}


def _negate_connective(g: Formula, operands: list[Formula]) -> Formula:
    dual = _DUAL[type(g)]
    if dual is AgBox or dual is AgDia:
        return dual(g.agent, operands[0])
    return dual(*operands)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(negate(antecedent), consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def subformulae(f: Formula) -> tuple[Formula, ...]:
    """All subformula occurrences of ``f`` (a multiset: duplicates kept)."""
    return tuple(_walk(f))


_MODAL = (Box, Dia, AgBox, AgDia)


def _walk(f: Formula) -> list[Formula]:
    """The nodes of ``f`` in pre-order, left before right, on an explicit
    stack, so the depth of ``f`` is limited by memory only."""
    nodes, todo = [], [f]
    while todo:
        g = todo.pop()
        nodes.append(g)
        cls = type(g)
        if cls is And or cls is Or:
            todo += (g.right, g.left)
        elif cls in _MODAL:
            todo.append(g.body)
    return nodes


def _distinct(formulas: tuple[Formula, ...]) -> list[Formula]:
    """The node objects of ``formulas``, each once however often it is
    shared, on an explicit stack."""
    nodes, seen, todo = [], set(), list(formulas)
    while todo:
        g = todo.pop()
        if id(g) not in seen:
            seen.add(id(g))
            nodes.append(g)
            cls = type(g)
            if cls is And or cls is Or:
                todo += (g.left, g.right)
            elif cls in _MODAL:
                todo.append(g.body)
    return nodes


def _fold(
    f: Formula,
    leaf: Callable[[Formula], _T],
    connective: Callable[[Formula, list[_T]], _T],
) -> _T:
    """``f`` folded bottom-up on an explicit stack, so its depth is limited
    by memory only: ``leaf(g)`` for a literal ``g``, ``connective(g,
    values)`` for any other node given its operands' values, left first."""
    values: list[_T] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # a connective whose operands are folded
            g, arity = g
            operands = values[-arity:]
            del values[-arity:]
            values.append(connective(g, operands))
            continue
        cls = type(g)
        if cls is Atom or cls is NegAtom:
            values.append(leaf(g))
        elif cls is And or cls is Or:
            todo += ((g, 2), g.right, g.left)
        elif cls in _MODAL:
            todo += ((g, 1), g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return values[0]


def atoms(*formulas: Formula) -> frozenset[str]:
    """The atom names of ``formulas``, walking each shared node once."""
    return frozenset(
        g.name for g in _distinct(formulas) if type(g) is Atom or type(g) is NegAtom
    )


def agents_of(f: Formula) -> frozenset[int]:
    return frozenset(
        g.agent for g in _distinct((f,)) if type(g) is AgBox or type(g) is AgDia
    )


def depth(f: Formula) -> int:
    return _fold(f, lambda g: 0, lambda g, depths: 1 + max(depths))


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
# operators it reads open at once.  The parser recurses once per open
# parenthesis or operator, and the dataclasses' `hash` and `==` once per
# level; every other walk over a formula runs on an explicit stack.  This
# keeps both well inside Python's default recursion limit of 1000.
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
    return _fold(f, _show_literal, _show_connective)[0]


def _show_literal(g: Formula) -> tuple[str, int]:
    return (g.name if type(g) is Atom else f"~{g.name}"), _PREC_ATOM


def _show_connective(g: Formula, operands: list[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``g`` and its precedence, given its operands'; an operand
    of lower precedence than its place admits is parenthesised."""
    cls = type(g)
    if cls is And or cls is Or:
        if _is_constant(g):
            return ("true" if cls is Or else "false"), _PREC_ATOM
        prec, op = (_PREC_AND, "&") if cls is And else (_PREC_OR, "|")
        (left, left_prec), (right, right_prec) = operands
        # Left-associative chains print flat; a right-nested `&` needs
        # parentheses to survive the round trip.
        if left_prec < prec:
            left = f"({left})"
        if right_prec <= prec:
            right = f"({right})"
        return f"{left} {op} {right}", prec
    ((body, body_prec),) = operands
    if body_prec < _PREC_UNARY:
        body = f"({body})"
    if cls is Box:
        return f"box {body}", _PREC_UNARY
    if cls is Dia:
        return f"dia {body}", _PREC_UNARY
    if cls is AgBox:
        return f"[{g.agent}] {body}", _PREC_UNARY
    return f"<{g.agent}> {body}", _PREC_UNARY


def _is_constant(g: And | Or) -> bool:
    """Whether ``g`` joins `$const` and `~$const`, in either order: `TRUE`,
    `FALSE` or the mirror image `negate` makes of either.  Its operands are
    formulas, and only literals have a name."""
    left, right = g.left, g.right
    return type(left) is not type(right) and (
        getattr(left, "name", None) == RESERVED_ATOM == getattr(right, "name", None)
    )
