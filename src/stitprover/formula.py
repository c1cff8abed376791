"""Negation-normal-form modal formulas: AST, parser, printer, duality.

Formulas are kept in negation normal form throughout: negation exists only
on atoms, and every operator has an explicit dual (box/diamond, and/or,
agentive box/diamond).  General negation is a *function* (`negate`), not a
connective, so the surface syntax `!f` and the arrow connectives desugar at
parse time.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError
from typing import Container, Union

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Node:
    """The base of the eight formula classes.  A formula is immutable, and
    one object: each shape's constructor returns the live node of its class
    and fields from `_TABLE`, or fills a new node's slots once and enters
    it there.  So structurally equal formulas are one object, and ``==``
    and `hash` are `object`'s, constant time at any depth."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        return _show_fields(self)

    def __str__(self) -> str:
        return pretty(self)


class _Entry(weakref.ref):
    """A weak reference to a live node that carries the node's key, so that
    its callback, `_drop`, can remove it from `_TABLE` when the node dies."""

    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    # A cyclic collection runs the callback late, after a new node may have
    # taken the key.
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


# Every live formula, under its class and its fields.  It keeps no formula
# alive: a node's entry goes when the node does.  Finding and entering a
# node are two steps, so formulas are built on one thread at a time.
_TABLE: dict[tuple, _Entry] = {}
# A reference whose object is gone, so calling it gives `None`: what a
# constructor finds under a key no live node holds.
_GONE = weakref.ref(set())
_new = object.__new__


class _Literal(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _TABLE.get(key, _GONE)()
        if node is None:
            node = _new(cls)
            _set_name(node, name)
            entry = _TABLE[key] = _Entry(node, _drop)
            entry.key = key
        return node


class _Binary(_Node):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: "Formula", right: "Formula"):
        key = (cls, left, right)
        node = _TABLE.get(key, _GONE)()
        if node is None:
            node = _new(cls)
            _set_left(node, left)
            _set_right(node, right)
            entry = _TABLE[key] = _Entry(node, _drop)
            entry.key = key
        return node


class _Modal(_Node):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __new__(cls, body: "Formula"):
        key = (cls, body)
        node = _TABLE.get(key, _GONE)()
        if node is None:
            node = _new(cls)
            _set_body(node, body)
            entry = _TABLE[key] = _Entry(node, _drop)
            entry.key = key
        return node


class _Agentive(_Modal):
    __slots__ = ("agent",)
    __match_args__ = ("agent", "body")

    def __new__(cls, agent: int, body: "Formula"):
        key = (cls, agent, body)
        node = _TABLE.get(key, _GONE)()
        if node is None:
            node = _new(cls)
            _set_agent(node, agent)
            _set_body(node, body)
            entry = _TABLE[key] = _Entry(node, _drop)
            entry.key = key
        return node


# The slots' own setters: a constructor sets each field of a new node once
# through them, past the `__setattr__` that refuses every assignment.
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

# Reserved atom backing the `true` / `false` surface constants.  The name is
# not a legal identifier, so user input can never collide with it.
RESERVED_ATOM = "$const"

TRUE = Or(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))
FALSE = And(Atom(RESERVED_ATOM), NegAtom(RESERVED_ATOM))
# Where every negation starts: `TRUE` and `FALSE` negate to each other, not
# to mirror images, so that `!true` reads back from its printed text.
_NEGATED = {TRUE: FALSE, FALSE: TRUE}


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def negate(f: Formula) -> Formula:
    """Negation by duality: an involution that keeps formulas in NNF."""
    return _negate(f, dict(_NEGATED))


_DUAL = {
    Atom: NegAtom, NegAtom: Atom, And: Or, Or: And,
    Box: Dia, Dia: Box, AgBox: AgDia, AgDia: AgBox,
}


def _negate(f: Formula, done: dict[Formula, Formula]) -> Formula:
    """The negation of ``f``.  ``done`` maps each node negated so far to
    its negation and back, holding both, so a shared node is negated once
    and a negation negates back to its node: `parse` passes one ``done`` to
    all the negations of one text, and no node in it is walked again."""
    for g in nodes(f, placed=done):
        cls = type(g)
        if cls is Atom or cls is NegAtom:
            dual = _DUAL[cls](g.name)
        elif cls is And or cls is Or:
            dual = _DUAL[cls](done[g.left], done[g.right])
        elif cls is Box or cls is Dia:
            dual = _DUAL[cls](done[g.body])
        else:
            dual = _DUAL[cls](g.agent, done[g.body])
        done[g], done[dual] = dual, g
    return done[f]


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
    order, todo = [], [f]
    while todo:
        g = todo.pop()
        order.append(g)
        cls = type(g)
        if cls is And or cls is Or:
            todo += (g.right, g.left)
        elif cls in _MODAL:
            todo.append(g.body)
    return order


# Pushed between a node and its operands: popped, it says that they are in
# the order, so the node goes next.
_OPERANDS_DONE = object()


def nodes(*formulas: Formula, placed: Container[Formula] = ()) -> list[Formula]:
    """Each distinct node of ``formulas`` once, however often it is shared,
    operands before the nodes that hold them and left before right, on an
    explicit stack, so the depth of a formula is limited by memory only.  A
    node in ``placed`` is left out, with every node reached only through it."""
    order: list[Formula] = []
    met: set[Formula] = set()
    todo: list = list(formulas)
    todo.reverse()
    while todo:
        g = todo.pop()
        if g is _OPERANDS_DONE:
            order.append(todo.pop())
            continue
        if g in met or g in placed:
            continue
        met.add(g)
        cls = type(g)
        if cls is Atom or cls is NegAtom:
            order.append(g)
        elif cls is And or cls is Or:
            todo += (g, _OPERANDS_DONE, g.right, g.left)
        elif cls in _MODAL:
            todo += (g, _OPERANDS_DONE, g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return order


def atoms(*formulas: Formula) -> frozenset[str]:
    """The atom names of ``formulas``."""
    return frozenset(
        g.name for g in nodes(*formulas) if type(g) is Atom or type(g) is NegAtom
    )


def agents_of(f: Formula) -> frozenset[int]:
    return frozenset(g.agent for g in nodes(f) if type(g) is AgBox or type(g) is AgDia)


def depth(f: Formula) -> int:
    depths: dict[Formula, int] = {}
    for g in nodes(f):
        cls = type(g)
        if cls is Atom or cls is NegAtom:
            depths[g] = 0
        elif cls is And or cls is Or:
            depths[g] = 1 + max(depths[g.left], depths[g.right])
        else:
            depths[g] = 1 + depths[g.body]
    return depths[f]


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

# The tokens, in the order they are tried, and a character no token takes:
# one that starts none, or a `-` that starts no `->`.  With no such
# character in the text, every non-space character is in a token.
_TOKEN_RE = re.compile(r"<->|->|[()\[\]<>&|!~]|\d+|[A-Za-z_][A-Za-z0-9_]*")
_UNTAKEN_RE = re.compile(r"[^\s\dA-Za-z_()\[\]<>&|!~-]|-(?!>)")


def _tokenize(text: str) -> list[str | None]:
    """The tokens of ``text``, then `None` for its end.  Positions are
    worked out by `_at`, for an error message only."""
    untaken = _UNTAKEN_RE.search(text)
    if untaken is not None:
        raise ParseError(
            f"unexpected character {untaken.group()!r} at position {untaken.start()}"
        )
    return _TOKEN_RE.findall(text) + [None]


def _at(text: str, i: int) -> int:
    """The position in ``text`` of its token ``i``, or its length if ``i``
    is its end."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


# The most nodes (subformula occurrences) of a formula `parse` builds: the
# one limit on its input.  Each `<->` copies both of its operands twice, so a
# chain of them doubles the syntax tree per link, and its printed text holds
# every node; the parser counts the nodes before it builds.  Depth is limited
# by memory only, since the parser and every walk over a formula keep their
# own stacks, and a deep goal by the search's time.
MAX_NODES = 10_000

# The binding power of each binary operator: read after an operand, it
# reduces every pending operator of at least its power (of more, for the
# right-associative `->`); any other token reduces all down to the innermost
# open parenthesis, of power 0.  A prefix operator, of power 5, binds tightest.
_POWER = {"<->": 1, "->": 2, "|": 3, "&": 4}
_PREFIXES = frozenset({"(", "!", "box", "dia", "[", "<"})
_BUILD = {"&": And, "|": Or, "box": Box, "dia": Dia, "[": AgBox, "<": AgDia}


def _take(text: str, tokens: list, i: int, want: str | None = None) -> str:
    """Token ``i`` of ``text``; it must be ``want`` if given."""
    tok = tokens[i]
    if tok is None:
        raise ParseError("unexpected end of input")
    if want is not None and tok != want:
        raise ParseError(f"expected {want!r} but found {tok!r} at position {_at(text, i)}")
    return tok


def _reduce(text: str, op: tuple, operands: list, done: dict[Formula, Formula]) -> None:
    """Apply the pending operator ``op`` of ``text`` to the operand on top
    of ``operands``, or to the two on top if it is binary, once the node
    count of what it builds is admitted."""
    _, tok, i, agent = op
    right, n = operands.pop()
    if tok in _POWER:
        left, m = operands.pop()
        n = 3 + 2 * (m + n) if tok == "<->" else 1 + m + n
    elif tok != "!":
        n += 1
    if n > MAX_NODES:
        raise ParseError(f"formula of over {MAX_NODES} nodes at position {_at(text, i)}")
    if tok == "!":
        f = _negate(right, done)
    elif tok == "->":
        f = Or(_negate(left, done), right)
    elif tok == "<->":
        f = And(Or(_negate(left, done), right), Or(_negate(right, done), left))
    elif tok in _POWER:
        f = _BUILD[tok](left, right)
    elif agent:
        f = _BUILD[tok](agent, right)
    else:
        f = _BUILD[tok](right)
    operands.append((f, n))


def parse(text: str, agents: int = 1) -> Formula:
    """Parse surface syntax into an NNF formula over agents ``1..agents``.

    One operator-precedence loop over two explicit stacks: the operands
    with their node counts, and the pending operators and open parentheses
    with their token indices.  A formula of more than ``MAX_NODES`` nodes is a
    `ParseError`; nesting is limited by memory only.
    """
    tokens = _tokenize(text)
    operands: list[tuple[Formula, int]] = []
    pending: list[tuple[int, str, int, int]] = []  # power, token, its index, agent
    done = dict(_NEGATED)  # one negation memo for the whole text
    i = 0
    while True:
        # An operand: prefix operators and open parentheses, then a literal.
        tok = _take(text, tokens, i)
        if tok in _PREFIXES:
            agent = 0
            if tok == "[" or tok == "<":
                index = _take(text, tokens, i + 1)
                if not index.isdigit():
                    raise ParseError(f"expected an agent index at position {_at(text, i + 1)}")
                agent = int(index)
                if not 1 <= agent <= agents:
                    raise ParseError(f"agent index {agent} out of range 1..{agents} "
                                     f"at position {_at(text, i + 1)}")
                _take(text, tokens, i + 2, "]" if tok == "[" else ">")
            pending.append((0 if tok == "(" else 5, tok, i, agent))
            i += 3 if agent else 1
            continue
        negated = tok == "~"
        if negated:
            i += 1
            tok = _take(text, tokens, i)
        if (tok[0].isalpha() or tok[0] == "_") and tok not in _KEYWORDS:
            operands.append(((NegAtom if negated else Atom)(tok), 1))
        elif negated:
            raise ParseError(f"expected an atom after '~' at position {_at(text, i)}")
        elif tok == "true" or tok == "false":
            operands.append((TRUE if tok == "true" else FALSE, 3))
        else:
            raise ParseError(f"unexpected token {tok!r} at position {_at(text, i)}")
        i += 1
        # Then reduce, and close each `)`, whose group is an operand too,
        # up to a binary operator or the end.
        while True:
            tok = tokens[i]
            power = _POWER.get(tok)
            floor = 1 if power is None else power + (tok == "->")
            while pending and pending[-1][0] >= floor:
                _reduce(text, pending.pop(), operands, done)
            if power is not None:
                pending.append((power, tok, i, 0))
                i += 1
                break
            if not pending:
                if tok is None:
                    return operands[0][0]
                raise ParseError(f"trailing input {tok!r} at position {_at(text, i)}")
            _take(text, tokens, i, ")")
            pending.pop()
            i += 1


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3
_PREC_ATOM = 4
_PRECEDENCE = {
    Atom: _PREC_ATOM, NegAtom: _PREC_ATOM, And: _PREC_AND, Or: _PREC_OR,
    Box: _PREC_UNARY, Dia: _PREC_UNARY, AgBox: _PREC_UNARY, AgDia: _PREC_UNARY,
}
_PREFIX = {Box: "box ", Dia: "dia ", AgBox: "[{}] ", AgDia: "<{}> "}  # {}: the agent


def pretty(f: Formula) -> str:
    """Render with minimal parentheses; `parse(pretty(f)) == f`."""
    return printed(f)[f]


def printed(*formulas: Formula) -> dict[Formula, str]:
    """The text `pretty` gives each distinct subformula of ``formulas``,
    each printed once however often it is shared, with an operand
    parenthesised if its precedence is lower than its place admits.  The
    certificate writer and reader seed their memos with the root's."""
    texts: dict[Formula, str] = {}
    for g in nodes(*formulas):
        cls = type(g)
        if cls is Atom or cls is NegAtom:
            texts[g] = g.name if cls is Atom else f"~{g.name}"
        elif g is TRUE or g is FALSE:
            texts[g] = "true" if g is TRUE else "false"
        elif cls is And or cls is Or:
            prec = _PRECEDENCE[cls]
            left, right = g.left, g.right
            left_text, right_text = texts[left], texts[right]
            # Left-associative chains print flat; a right-nested `&` needs
            # parentheses to survive the round trip.  `true` and `false`
            # print as atoms.
            if left is not TRUE and left is not FALSE and _PRECEDENCE[type(left)] < prec:
                left_text = f"({left_text})"
            if right is not TRUE and right is not FALSE and _PRECEDENCE[type(right)] <= prec:
                right_text = f"({right_text})"
            texts[g] = f"{left_text} {'&' if cls is And else '|'} {right_text}"
        else:
            body = g.body
            text = texts[body]
            if body is not TRUE and body is not FALSE and _PRECEDENCE[type(body)] < _PREC_UNARY:
                text = f"({text})"
            prefix = _PREFIX[cls]
            if cls is AgBox or cls is AgDia:
                prefix = prefix.format(g.agent)
            texts[g] = prefix + text
    return texts
