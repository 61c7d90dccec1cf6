import re

import pytest
from hypothesis import given, strategies as st

from propalg.errors import SyntaxValidationError
from propalg.syntax import (
    AndThen,
    LeftAnd,
    LeftBiimp,
    LeftImp,
    LeftOr,
    Not,
    RightAnd,
    RightBiimp,
    RightImp,
    RightOr,
    desugar,
    parse,
    print_sugared,
    print_term,
    sugared_atoms,
)
from propalg.terms import FALSE, TRUE, Cond, atom

A = atom("a")
B = atom("b")
C = atom("c")


# --- parsing ---------------------------------------------------------------


def test_parse_conditional():
    assert parse("a <| b |> c") == Cond(A, B, C)
    assert parse("(a)") == A
    assert parse("T <| a |> F") == Cond(TRUE, A, FALSE)


def test_parse_precedence():
    # not > then > and > or > imp > iff > conditional
    assert parse("not a then b") == AndThen(Not(A), B)
    assert parse("a then b land c") == LeftAnd(AndThen(A, B), C)
    assert parse("a land b lor c") == LeftOr(LeftAnd(A, B), C)
    assert parse("a lor b rimp c") == RightImp(LeftOr(A, B), C)
    assert parse("a land b <| c |> F") == Cond(LeftAnd(A, B), C, FALSE)


def test_left_associativity():
    assert parse("a land b land c") == LeftAnd(LeftAnd(A, B), C)
    assert parse("a lor b ror c") == parse("(a lor b) ror c")


def test_implication_chains_need_parens():
    with pytest.raises(SyntaxValidationError):
        parse("a limp b limp c")
    parse("(a limp b) limp c")
    parse("a limp (b limp c)")


def test_conditional_does_not_nest_bare():
    with pytest.raises(SyntaxValidationError):
        parse("a <| b <| c |> d |> e")
    d, e = atom("d"), atom("e")
    assert parse("a <| (b <| c |> d) |> e") == Cond(A, Cond(B, C, d), e)


# Messages of the parser, pinned as they were before it was rewritten.
_ERROR_MESSAGES = [
    ("a <| |> b", "1:6: expected 'T', 'F', 'not', an atom, or '(', got '|>'"),
    ("a & b", "1:3: unexpected character '&'"),
    ("a <| b |>", "1:10: expected 'T', 'F', 'not', an atom, or '(', got 'end of input'"),
    ("Foo", "1:1: invalid atom name 'Foo' (atoms are lowercase)"),
    ("aB", "1:1: invalid atom name 'aB' (atoms are lowercase)"),
    ("a limp b limp c", "1:10: expected parentheses (implications are non-associative), got 'limp'"),
    ("a riff b limp c limp d", "1:17: expected parentheses (implications are non-associative), got 'limp'"),
    ("a <| b <| c |> d |> e", "1:8: expected '|>', got '<|'"),
    ("a <| b |> c <| d |> e", "1:13: expected end of input, got '<|'"),
    ("land a", "1:1: expected a statement, got 'land'"),
    ("a then then b", "1:8: expected a statement, got 'then'"),
    ("a b", "1:3: expected end of input, got 'b'"),
    ("a <| (b) |> c) ", "1:14: expected end of input, got ')'"),
    ("T then ( F", "1:11: expected ')', got 'end of input'"),
    ("", "1:1: expected 'T', 'F', 'not', an atom, or '(', got 'end of input'"),
    ("a\tland\t", "1:8: expected 'T', 'F', 'not', an atom, or '(', got 'end of input'"),
    ("a\n  land (b\n lor ) c", "3:6: expected 'T', 'F', 'not', an atom, or '(', got ')'"),
    ("a\n\n  %", "3:3: unexpected character '%'"),
    ("a\r\nland &", "2:6: unexpected character '&'"),
    # A character that starts no token is reported before any parse error.
    ("land (a & %", "1:9: unexpected character '&'"),
    ("T <| | b", "1:6: unexpected character '|'"),
    ("a_b9 land 9", "1:11: unexpected character '9'"),
    ("a\fland b", "1:2: unexpected character '\\x0c'"),
    ("\u00e9", "1:1: unexpected character '\u00e9'"),
    ("(" * 3000 + "a" + ")" * 3000, "statement nested too deeply to parse"),
    ("not " * 3000 + "a", "statement nested too deeply to parse"),
    ("(" * 3000 + "&", "1:3001: unexpected character '&'"),
]


def test_parse_errors_carry_positions():
    for text, message in _ERROR_MESSAGES:
        with pytest.raises(SyntaxValidationError) as exc:
            parse(text)
        assert str(exc.value) == message, text[:40]


def test_deep_nesting_below_the_limit_parses():
    assert parse("(" * 100 + "a" + ")" * 100) is A
    assert print_sugared(parse("not " * 100 + "a")) == "not " * 100 + "a"


def test_parse_returns_the_shared_atom_terms():
    assert parse("a") is A
    # A name first seen by the parser is built, validated and shared too.
    fresh = parse("never_parsed_before_1 land a").left
    assert fresh is atom("never_parsed_before_1")


# --- desugaring ------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("not a", "F <| a |> T"),
        ("a then b", "b <| a |> b"),
        ("a land b", "b <| a |> F"),
        ("a rand b", "a <| b |> F"),
        ("a lor b", "T <| a |> b"),
        ("a ror b", "T <| b |> a"),
        ("a limp b", "b <| a |> T"),
        ("a rimp b", "T <| b |> (not a)"),
        ("a liff b", "b <| a |> (not b)"),
        ("a riff b", "a <| b |> (not a)"),
    ],
)
def test_desugar_defining_equations(text, expected):
    assert desugar(parse(text)) == desugar(parse(expected))


def test_sugared_atoms():
    assert sugared_atoms(parse("not a land (b riff c)")) == {A.atom, B.atom, C.atom}


# --- printing --------------------------------------------------------------


def test_printer_minimal_parens():
    assert print_sugared(parse("a land b lor c")) == "a land b lor c"
    assert print_sugared(parse("(a lor b) land c")) == "(a lor b) land c"
    assert print_sugared(parse("a <| b |> c")) == "a <| b |> c"
    assert print_sugared(parse("not (a land b)")) == "not (a land b)"
    assert print_sugared(parse("(a <| b |> c) land d")) == "(a <| b |> c) land d"


def test_print_term_core():
    assert print_term(Cond(TRUE, A, FALSE)) == "T <| a |> F"


# --- round trip ------------------------------------------------------------

_leaf = st.sampled_from([TRUE, FALSE, A, B, C])
_BINARY_OPS = [AndThen, LeftAnd, RightAnd, LeftOr, RightOr, LeftImp, RightImp, LeftBiimp, RightBiimp]


def _sugar_trees():
    unary = lambda children: children.map(Not)
    binary = lambda children: st.tuples(st.sampled_from(_BINARY_OPS), children, children).map(
        lambda t: t[0](t[1], t[2])
    )
    conds = lambda children: st.tuples(children, children, children).map(lambda t: Cond(*t))
    return st.recursive(_leaf, lambda ch: st.one_of(unary(ch), binary(ch), conds(ch)), max_leaves=12)


@given(_sugar_trees())
def test_print_parse_round_trip(s):
    assert parse(print_sugared(s)) == s


@given(_sugar_trees(), st.data())
def test_parse_ignores_whitespace_between_tokens(s, data):
    tokens = re.findall(r"<\||\|>|[()]|\w+", print_sugared(s))
    blank = st.text(alphabet=" \t\r\n", min_size=1, max_size=3)
    gaps = data.draw(st.lists(blank, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(gap + tok for gap, tok in zip(gaps, tokens)) + gaps[-1]
    assert parse(text) == s
    assert desugar(parse(text)) is desugar(s)


@given(_sugar_trees())
def test_desugar_removes_all_sugar(s):
    core = desugar(s)

    def core_only(t):
        if isinstance(t, Cond):
            return core_only(t.left) and core_only(t.cond) and core_only(t.right)
        return t in (TRUE, FALSE) or t in (A, B, C)

    assert core_only(core)
