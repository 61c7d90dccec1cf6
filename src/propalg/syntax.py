"""Concrete syntax: parser, pretty-printer, and desugaring.

Sugared terms extend the core constructors with negation, and-then, and the
eight sequential binary connectives.  ``desugar`` rewrites them into pure
conditional composition by their defining equations:

    not x       = F <| x |> T
    x then y    = y <| x |> y
    x land y    = y <| x |> F          x rand y  = x <| y |> F
    x lor y     = T <| x |> y          x ror y   = T <| y |> x
    x limp y    = y <| x |> T          x rimp y  = T <| y |> not x
    x liff y    = y <| x |> not y      x riff y  = x <| y |> not x

``parse`` splits the text into token strings with one scan of a compiled
regular expression, then builds the sugared term by precedence climbing
(Pratt's top-down operator precedence), driven by the level of each binary
keyword.  Token positions are not tracked: the ``line:col`` of an error is
computed from the text only when the error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SyntaxValidationError
from .terms import (
    _ATOM_RE,
    _ATOM_TERMS,
    FALSE,
    RESERVED_WORDS,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
)

# ---------------------------------------------------------------------------
# Sugared term constructors


class SugarNode(Term):
    """Base class for the non-core constructors of sugared terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Not(SugarNode):
    operand: Term


@dataclass(frozen=True)
class BinarySugar(SugarNode):
    left: Term
    right: Term


class AndThen(BinarySugar):
    keyword = "then"


class LeftAnd(BinarySugar):
    keyword = "land"


class RightAnd(BinarySugar):
    keyword = "rand"


class LeftOr(BinarySugar):
    keyword = "lor"


class RightOr(BinarySugar):
    keyword = "ror"


class LeftImp(BinarySugar):
    keyword = "limp"


class RightImp(BinarySugar):
    keyword = "rimp"


class LeftBiimp(BinarySugar):
    keyword = "liff"


class RightBiimp(BinarySugar):
    keyword = "riff"


_BINARY_CLASSES: dict[str, type[BinarySugar]] = {
    cls.keyword: cls
    for cls in (AndThen, LeftAnd, RightAnd, LeftOr, RightOr, LeftImp, RightImp, LeftBiimp, RightBiimp)
}


# The defining equation of each binary connective, on desugared operands.
_EXPANSIONS = {
    AndThen: lambda x, y: Cond(y, x, y),
    LeftAnd: lambda x, y: Cond(y, x, FALSE),
    RightAnd: lambda x, y: Cond(x, y, FALSE),
    LeftOr: lambda x, y: Cond(TRUE, x, y),
    RightOr: lambda x, y: Cond(TRUE, y, x),
    LeftImp: lambda x, y: Cond(y, x, TRUE),
    RightImp: lambda x, y: Cond(TRUE, y, Cond(FALSE, x, TRUE)),
    LeftBiimp: lambda x, y: Cond(y, x, Cond(FALSE, y, TRUE)),
    RightBiimp: lambda x, y: Cond(x, y, Cond(FALSE, x, TRUE)),
}


def desugar(s: Term) -> Term:
    """Rewrite a sugared term into the core language via the defining equations."""
    if isinstance(s, (TrueConst, FalseConst, AtomTerm)):
        return s
    expand = _EXPANSIONS.get(type(s))
    if expand is not None:
        return expand(desugar(s.left), desugar(s.right))
    if isinstance(s, Cond):
        return Cond(desugar(s.left), desugar(s.cond), desugar(s.right))
    if isinstance(s, Not):
        return Cond(FALSE, desugar(s.operand), TRUE)
    raise TypeError(f"not a sugared term: {s!r}")


def sugared_atoms(s: Term) -> frozenset[Atom]:
    """Atoms written in a sugared term."""
    if isinstance(s, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(s, AtomTerm):
        return frozenset({s.atom})
    if isinstance(s, Cond):
        return sugared_atoms(s.left) | sugared_atoms(s.cond) | sugared_atoms(s.right)
    if isinstance(s, Not):
        return sugared_atoms(s.operand)
    if isinstance(s, BinarySugar):
        return sugared_atoms(s.left) | sugared_atoms(s.right)
    raise TypeError(f"not a sugared term: {s!r}")


# ---------------------------------------------------------------------------
# Parser: one regex scan, then precedence climbing over the token strings

# One match per token: a bar, a parenthesis, a word, or any other character
# that is not whitespace, which no rule of the grammar accepts.  ``findall``
# skips the whitespace between matches.
_TOKEN_RE = re.compile(r"<\||\|>|[()]|[A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")
_VALID_TOKEN_RE = re.compile(r"<\||\|>|[()]|[A-Za-z]")


class _ParseError(Exception):
    """A parse failure at the token on top of the stack; ``parse`` adds its position."""


def _expected(toks: list[str], what: str) -> _ParseError:
    return _ParseError(f"expected {what}, got {toks[-1] or 'end of input'!r}")


# Each function below reads from ``toks``, the token strings in reverse order
# with "" (end of input) at the bottom, and pops what it consumes.


def _stmt(toks: list[str]) -> Term:
    # A bare conditional does not nest: its operands are parenthesized.
    left = _expr(toks, _LEVEL_BIIMP)
    if toks[-1] != "<|":
        return left
    toks.pop()
    middle = _expr(toks, _LEVEL_BIIMP)
    if toks[-1] != "|>":
        raise _expected(toks, "'|>'")
    toks.pop()
    return Cond(left, middle, _expr(toks, _LEVEL_BIIMP))


def _expr(toks: list[str], min_level: int) -> Term:
    """Operands joined by binary keywords of ``min_level`` or tighter, left-associated."""
    left = _unary(toks)
    level = _BINARY_LEVELS.get(toks[-1], -1)
    while level >= min_level:
        op = toks.pop()
        left = _BINARY_CLASSES[op](left, _expr(toks, level + 1))
        next_level = _BINARY_LEVELS.get(toks[-1], -1)
        if level == next_level == _LEVEL_IMP:
            raise _expected(toks, "parentheses (implications are non-associative)")
        level = next_level
    return left


def _unary(toks: list[str]) -> Term:
    tok = toks[-1]
    node = _ATOM_TERMS.get(tok)
    if node is not None:
        toks.pop()
        return node
    if tok == "(":
        toks.pop()
        node = _stmt(toks)
        if toks[-1] != ")":
            raise _expected(toks, "')'")
        toks.pop()
        return node
    if tok == "not":
        toks.pop()
        return Not(_unary(toks))
    if tok == "T" or tok == "F":
        toks.pop()
        return TRUE if tok == "T" else FALSE
    if tok in RESERVED_WORDS:
        raise _expected(toks, "a statement")
    if _ATOM_RE.match(tok):
        # First occurrence of this name: ``Atom`` validates it.
        toks.pop()
        return AtomTerm(Atom(tok))
    if re.match("[A-Za-z]", tok):
        raise _ParseError(f"invalid atom name {tok!r} (atoms are lowercase)")
    raise _expected(toks, "'T', 'F', 'not', an atom, or '('")


def _located(text: str, index: int | None, message: str) -> SyntaxValidationError:
    """The error for a failure at the ``index``-th token of ``text`` (``None``: at no token).

    A character that starts no token is reported instead, wherever it is.
    Positions are worked out here, from the offset of the token in the text.
    """
    matches = list(_TOKEN_RE.finditer(text))
    for i, m in enumerate(matches):
        if not _VALID_TOKEN_RE.match(m.group()):
            index, message = i, f"unexpected character {m.group()!r}"
            break
    if index is None:
        return SyntaxValidationError(message)
    offset = matches[index].start() if index < len(matches) else len(text)
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return SyntaxValidationError(f"{line}:{col}: {message}")


def parse(text: str) -> Term:
    """Parse concrete syntax into a sugared term.

    Malformed input raises ``SyntaxValidationError`` with the ``line:col`` of
    the offending token; input nested too deeply for Python's recursion
    limit raises it too.
    """
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    toks.reverse()
    n = len(toks)
    try:
        node = _stmt(toks)
        if toks[-1]:
            raise _expected(toks, "end of input")
        return node
    except _ParseError as exc:
        error = _located(text, n - len(toks), str(exc))
    except RecursionError:
        error = _located(text, None, "statement nested too deeply to parse")
    raise error


# ---------------------------------------------------------------------------
# Printer (minimal parentheses per the precedence table)

# Precedence levels, loosest first; a child is parenthesized when its level is
# lower than the level its context requires.
_LEVEL_COND = 0
_LEVEL_BIIMP = 1
_LEVEL_IMP = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_SEQ = 5
_LEVEL_UNARY = 6

_BINARY_LEVELS: dict[str, int] = {
    "liff": _LEVEL_BIIMP,
    "riff": _LEVEL_BIIMP,
    "limp": _LEVEL_IMP,
    "rimp": _LEVEL_IMP,
    "lor": _LEVEL_OR,
    "ror": _LEVEL_OR,
    "land": _LEVEL_AND,
    "rand": _LEVEL_AND,
    "then": _LEVEL_SEQ,
}


def _print(s: Term, min_level: int) -> str:
    if isinstance(s, (TrueConst, FalseConst, AtomTerm)):
        return str(s)
    if isinstance(s, Cond):
        text = (
            f"{_print(s.left, _LEVEL_BIIMP)} <| {_print(s.cond, _LEVEL_BIIMP)}"
            f" |> {_print(s.right, _LEVEL_BIIMP)}"
        )
        return f"({text})" if min_level > _LEVEL_COND else text
    if isinstance(s, Not):
        return f"not {_print(s.operand, _LEVEL_UNARY)}"
    if isinstance(s, BinarySugar):
        level = _BINARY_LEVELS[s.keyword]
        if level == _LEVEL_IMP:
            # Non-associative: both operands must bind tighter.
            text = f"{_print(s.left, level + 1)} {s.keyword} {_print(s.right, level + 1)}"
        else:
            # Left-associative: same-level chains on the left stay bare.
            text = f"{_print(s.left, level)} {s.keyword} {_print(s.right, level + 1)}"
        return f"({text})" if min_level > level else text
    raise TypeError(f"not a sugared term: {s!r}")


def print_sugared(s: Term) -> str:
    """Render a sugared term in canonical concrete syntax."""
    return _print(s, _LEVEL_COND)


def print_term(t: Term) -> str:
    """Render a core term (alias of print_sugared; core terms are sugared terms)."""
    return _print(t, _LEVEL_COND)

