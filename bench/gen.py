"""Seeded input builders for the benchmark workloads.

Everything here is derived from a ``random.Random`` the caller seeds, so one
seed always yields the same inputs.  The builders and the reference
evaluators below are written against the paper's definitions, not against
the package's own helpers, so that the output checks stay independent of the
code under test.  Terms are built with the package's constructors only
(``Cond``, ``atom``, ``TRUE``, ``FALSE``), because inputs must be terms.
"""

from __future__ import annotations

import itertools
import random

from propalg import FALSE, TRUE, Atom, Cond, ValuationTable, atom

BINARY = ("then", "land", "rand", "lor", "ror", "limp", "rimp", "liff", "riff")

# ---------------------------------------------------------------------------
# Sugared statements: a tree of tuples, rendered to fully parenthesized text.
#   ("atom", name) | ("T",) | ("F",) | ("not", x) | (op, x, y) | ("cond", x, y, z)


def sugar_tree(rng: random.Random, names: str, nesting: int) -> tuple:
    """A random sugared statement whose operators nest at most ``nesting`` deep."""
    if nesting == 0 or rng.random() < 0.15:
        if rng.random() < 0.92:
            return ("atom", rng.choice(names))
        return (rng.choice("TF"),)
    r = rng.random()
    if r < 0.12:
        return ("not", sugar_tree(rng, names, nesting - 1))
    if r < 0.82:
        return (rng.choice(BINARY), sugar_tree(rng, names, nesting - 1), sugar_tree(rng, names, nesting - 1))
    return ("cond",) + tuple(sugar_tree(rng, names, nesting - 1) for _ in range(3))


def text(s: tuple) -> str:
    kind = s[0]
    if kind == "atom":
        return s[1]
    if kind in ("T", "F"):
        return kind
    if kind == "not":
        return f"not {text(s[1])}"
    if kind == "cond":
        return f"({text(s[1])} <| {text(s[2])} |> {text(s[3])})"
    return f"({text(s[1])} {kind} {text(s[2])})"


def sugar_atoms(s: tuple) -> set[str]:
    if s[0] == "atom":
        return {s[1]}
    return set().union(*(sugar_atoms(c) for c in s[1:])) if len(s) > 1 else set()


def classical(s: tuple, env: dict[str, bool]) -> bool:
    """Value of a sugared statement under a static (classical) assignment."""
    kind = s[0]
    if kind == "atom":
        return env[s[1]]
    if kind in ("T", "F"):
        return kind == "T"
    if kind == "not":
        return not classical(s[1], env)
    if kind == "cond":
        return classical(s[1], env) if classical(s[2], env) else classical(s[3], env)
    x, y = classical(s[1], env), classical(s[2], env)
    if kind == "then":
        return y
    if kind in ("land", "rand"):
        return x and y
    if kind in ("lor", "ror"):
        return x or y
    if kind in ("limp", "rimp"):
        return (not x) or y
    return x == y  # liff, riff


def truth_table(s: tuple) -> tuple[bool, bool]:
    """(satisfiable, falsifiable) classically, by enumerating assignments."""
    names = sorted(sugar_atoms(s))
    values = {
        classical(s, dict(zip(names, bits)))
        for bits in itertools.product((True, False), repeat=len(names))
    }
    return True in values, False in values


def core(s: tuple):
    """Desugar by the defining equations (the reference for the parser path)."""
    kind = s[0]
    if kind == "atom":
        return atom(s[1])
    if kind in ("T", "F"):
        return TRUE if kind == "T" else FALSE
    if kind == "not":
        return Cond(FALSE, core(s[1]), TRUE)
    if kind == "cond":
        return Cond(core(s[1]), core(s[2]), core(s[3]))
    x, y = core(s[1]), core(s[2])
    return {
        "then": lambda: Cond(y, x, y),
        "land": lambda: Cond(y, x, FALSE),
        "rand": lambda: Cond(x, y, FALSE),
        "lor": lambda: Cond(TRUE, x, y),
        "ror": lambda: Cond(TRUE, y, x),
        "limp": lambda: Cond(y, x, TRUE),
        "rimp": lambda: Cond(TRUE, y, Cond(FALSE, x, TRUE)),
        "liff": lambda: Cond(y, x, Cond(FALSE, y, TRUE)),
        "riff": lambda: Cond(x, y, Cond(FALSE, x, TRUE)),
    }[kind]()


# ---------------------------------------------------------------------------
# Core terms and basic forms


def core_term(rng: random.Random, names: str, nesting: int, leaf_p: float = 0.15):
    """A random core term: conditionals over atoms and constants."""
    if nesting == 0 or rng.random() < leaf_p:
        if rng.random() < 0.8:
            return atom(rng.choice(names))
        return TRUE if rng.random() < 0.5 else FALSE
    return Cond(*(core_term(rng, names, nesting - 1, leaf_p) for _ in range(3)))


def basic(rng: random.Random, names: str, max_depth: int, leaf_p: float = 0.25):
    """A random basic form (atomic central conditions, T/F leaves)."""
    if max_depth == 0 or rng.random() < leaf_p:
        return TRUE if rng.random() < 0.5 else FALSE
    left = basic(rng, names, max_depth - 1, leaf_p)
    return Cond(left, atom(rng.choice(names)), basic(rng, names, max_depth - 1, leaf_p))


def depth(t) -> int:
    """Atom queries on the longest evaluation path, by the paper's definition."""
    if isinstance(t, Cond):
        return depth(t.cond) + max(depth(t.left), depth(t.right))
    return 0 if t is TRUE or t is FALSE else 1


def flip_fresh_leaf(rng: random.Random, bf, seen: frozenset = frozenset()):
    """Flip one leaf of a basic form reached by a path that tests no atom twice.

    Such a path is taken by some valuation of every variety (first queries of
    distinct atoms are unconstrained), so the result differs from ``bf`` in
    value under every congruence.  None when every path repeats an atom.
    """
    if not isinstance(bf, Cond):
        return FALSE if bf is TRUE else TRUE
    a = bf.cond.atom
    if a in seen:
        return None
    for go_left in rng.sample((True, False), 2):
        sub = flip_fresh_leaf(rng, bf.left if go_left else bf.right, seen | {a})
        if sub is not None:
            return Cond(sub, bf.cond, bf.right) if go_left else Cond(bf.left, bf.cond, sub)
    return None


def is_monotest(t, seen: frozenset = frozenset()) -> bool:
    if not isinstance(t, Cond):
        return True
    a = t.cond.atom
    return a not in seen and is_monotest(t.left, seen | {a}) and is_monotest(t.right, seen | {a})


def truncate(t, n: int):
    """Depth-n projection of a basic form, by the paper's definition."""
    if not isinstance(t, Cond):
        return t
    if n == 1:
        return Cond(TRUE, t.cond, FALSE)
    return Cond(truncate(t.left, n - 1), t.cond, truncate(t.right, n - 1))


# ---------------------------------------------------------------------------
# Valuation tables


def _all_strings(names: tuple[str, ...], max_len: int):
    for length in range(1, max_len + 1):
        yield from itertools.product(names, repeat=length)


def table(rng: random.Random, names: tuple[str, ...], obs_depth: int, memorizing: bool) -> ValuationTable:
    """A random reply table; a memorizing one repeats every first reply.

    Free tables reply independently per query string.  Memorizing tables keep
    a state of first replies: a re-queried atom repeats its first reply, a
    new atom's reply is a random function of the state so far.
    """
    first: dict = {}
    replies: dict = {}
    for sigma in _all_strings(names, obs_depth):
        if not memorizing:
            replies[sigma] = rng.random() < 0.5
            continue
        state: tuple = ()
        known: dict[str, bool] = {}
        for name in sigma:
            if name not in known:
                key = (state, name)
                if key not in first:
                    first[key] = rng.random() < 0.5
                known[name] = first[key]
                state = state + ((name, known[name]),)
        replies[sigma] = known[sigma[-1]]
    return ValuationTable(tuple(sorted(Atom(n) for n in names)), obs_depth, replies)
