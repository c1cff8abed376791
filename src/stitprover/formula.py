"""Negation-normal-form modal formulas: AST, parser, printer, duality.

Formulas are kept in negation normal form throughout: negation exists only
on atoms, and every operator has an explicit dual (box/diamond, and/or,
agentive box/diamond).  General negation is a *function* (`negate`), not a
connective, so the surface syntax `!f` and the arrow connectives desugar at
parse time.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import Callable, TypeVar, Union

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node:
    """The base of the eight formula classes.  A formula is immutable and
    compared by structure, like a frozen dataclass, and it is hashed once,
    at construction, from its class and its fields' hashes: a child's hash
    is the one it stored, so `hash` takes constant time at any depth.
    ``==`` is identity, or else equal classes and hashes and then equal
    fields, compared on an explicit stack."""

    __slots__ = ("_hash",)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        if type(other) is not type(self) or other._hash != self._hash:
            return False
        return _same_fields(self, other)

    def __reduce__(self) -> tuple:
        return type(self), tuple(_fields(self))

    def __repr__(self) -> str:
        return _show_fields(self)

    def __str__(self) -> str:
        return pretty(self)


class _Literal(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)
        _set_hash(self, hash((type(self), name)))


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        _set_left(self, left)
        _set_right(self, right)
        try:
            key = (type(self), left._hash, right._hash)
        except AttributeError:  # not a formula, which every walk refuses
            key = (type(self), left, right)
        _set_hash(self, hash(key))


class _Modal(_Node):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __init__(self, body: "Formula"):
        _set_body(self, body)
        try:
            key = (type(self), body._hash)
        except AttributeError:
            key = (type(self), body)
        _set_hash(self, hash(key))


class _Agentive(_Modal):
    __slots__ = ("agent",)
    __match_args__ = ("agent", "body")

    def __init__(self, agent: int, body: "Formula"):
        _set_agent(self, agent)
        _set_body(self, body)
        try:
            key = (type(self), agent, body._hash)
        except AttributeError:
            key = (type(self), agent, body)
        _set_hash(self, hash(key))


# The slots' own setters: the constructors set each field once through
# them, past the `__setattr__` that refuses every later assignment.
_set_hash = _Node._hash.__set__
_set_name = _Literal.name.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_body, _set_agent = _Modal.body.__set__, _Agentive.agent.__set__


class Atom(_Literal):
    __slots__ = ()


class NegAtom(_Literal):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


class Dia(_Modal):
    __slots__ = ()


class AgBox(_Agentive):
    __slots__ = ()


class AgDia(_Agentive):
    __slots__ = ()


def _same_fields(f: _Node, g: _Node) -> bool:
    """Whether two formulas of one class and hash have equal fields, all the
    way down, on an explicit stack."""
    todo = list(zip(_fields(f), _fields(g)))
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if isinstance(a, _Node):
            if type(b) is not type(a) or b._hash != a._hash:
                return False
            todo += zip(_fields(a), _fields(b))
        elif a != b:
            return False
    return True


def _fields(f: _Node) -> list:
    return [getattr(f, name) for name in f.__match_args__]


class _Text(str):
    """Output text, as opposed to a field value to show with `repr`."""


def _show_fields(f: _Node) -> str:
    """``f`` as a dataclass shows itself, ``Box(body=Atom(name='p'))``, on an
    explicit stack."""
    parts, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is _Text:
            parts.append(g)
        elif isinstance(g, _Node):
            items = [_Text(f"{type(g).__name__}(")]
            for i, name in enumerate(g.__match_args__):
                items += (_Text(f"{', ' if i else ''}{name}="), getattr(g, name))
            items.append(_Text(")"))
            todo += reversed(items)
        else:
            parts.append(repr(g))
    return "".join(parts)


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

# One token after any whitespace, or the first character no token starts
# with (group 2).  Only whitespace is ever skipped: a non-space character
# matches one group or the other.
_TOKEN_RE = re.compile(
    r"\s*(?:(<->|->|[()\[\]<>&|!~]|\d+|[A-Za-z_][A-Za-z0-9_]*)|(\S))"
)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok is None:
            raise ParseError(
                f"unexpected character {m.group(2)!r} at position {m.start(2)}"
            )
        tokens.append((tok, m.start(1)))
    return tokens


# The deepest formula `parse` builds, and the most parentheses and prefix
# operators it reads open at once.  Only the parser recurses, once per open
# parenthesis or operator; `hash`, `==` and every walk over a formula run
# in constant stack, so a deeper formula built by hand is fine.  This keeps
# the parser well inside Python's default recursion limit of 1000.
MAX_NESTING = 100

# The most nodes (subformula occurrences) of a formula `parse` builds.  Each
# `<->` copies both of its operands twice, so a chain of them doubles the
# syntax tree per link, and negating or printing it walks every node; the
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
