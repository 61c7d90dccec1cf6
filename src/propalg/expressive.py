"""Definability of the conditional from unary/binary operator catalogs.

The conditional connective cannot be written with one- and two-place
operators alone under the finer congruences; under the coarser ones it can.
This module provides the machinery to corroborate both directions at desk
scale: the shallow T/F strippers, the three-atom shape property they induce,
bounded enumeration of everything a catalog can express, and a first-witness
search for a given target.

Every "absent" verdict is relative to the stated bounds (catalog body depth,
number of binary applications, retained canonical depth); the searches
corroborate the general theorems, they do not prove them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from functools import lru_cache
from itertools import takewhile

from .congruence import _combine, basic_form, equal, normalize
from .errors import BudgetExceededError
from .terms import (
    FALSE,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    Variety,
    atoms,
    enumerate_basic_forms,
)

# Placeholder atoms for operator bodies.
X = Atom("x")
Y = Atom("y")

SEARCH_BUDGET = 10**8


@dataclass(frozen=True)
class OperatorCatalog:
    """Unary and binary operator bodies over the placeholders x (and y)."""

    unary_ops: tuple[Term, ...]
    binary_ops: tuple[Term, ...]
    body_depth_bound: int

    @staticmethod
    def full(body_depth: int) -> "OperatorCatalog":
        """Every operator definable by a conditional-composition body of the
        given depth: all basic forms over {x} (unary) and {x, y} (binary)."""
        unary = tuple(t for t in enumerate_basic_forms(("x",), body_depth) if not _is_const(t))
        binary = tuple(
            t
            for t in enumerate_basic_forms(("x", "y"), body_depth)
            if X in atoms(t) and Y in atoms(t)
        )
        return OperatorCatalog(unary, binary, body_depth)

    @staticmethod
    def negation_or() -> "OperatorCatalog":
        """The restricted catalog {T, not, left-or} (T is in the base set)."""
        neg = basic_form(Cond(FALSE, AtomTerm(X), TRUE))
        left_or = basic_form(Cond(TRUE, AtomTerm(X), AtomTerm(Y)))
        return OperatorCatalog((neg,), (left_or,), 1)

    @staticmethod
    def negation_and_or() -> "OperatorCatalog":
        """The catalog {not, left-and, left-or}."""
        neg = basic_form(Cond(FALSE, AtomTerm(X), TRUE))
        left_and = basic_form(Cond(AtomTerm(Y), AtomTerm(X), FALSE))
        left_or = basic_form(Cond(TRUE, AtomTerm(X), AtomTerm(Y)))
        return OperatorCatalog((neg,), (left_and, left_or), 1)


@dataclass(frozen=True)
class CompositionTerm:
    term: Term  # fr-canonical form
    two_place_count: int


def _is_const(t: Term) -> bool:
    return isinstance(t, (TrueConst, FalseConst))


# ---------------------------------------------------------------------------
# Shallow strippers and the three-atom shape property


def t_simplify(p: Term, a: Atom) -> Term:
    """Strip leading tests of a from p under the assumption "a replied T":
    constants are fixed, a different central atom stops, a matching one
    recurses into the T-branch."""
    if _is_const(p):
        return p
    assert isinstance(p, Cond)
    if p.cond.atom == a:  # type: ignore[union-attr]
        return t_simplify(p.left, a)
    return p


def f_simplify(p: Term, a: Atom) -> Term:
    """Dual of t_simplify: strip under the assumption "a replied F"."""
    if _is_const(p):
        return p
    assert isinstance(p, Cond)
    if p.cond.atom == a:  # type: ignore[union-attr]
        return f_simplify(p.right, a)
    return p


def phi_abc(p: Term, a: Atom, b: Atom, c: Atom) -> bool:
    """The shape property of a <| b |> c under contractive congruence.

    On the contractive canonical form of p: after the b-test, the T-side must
    be decided by a single a-test with distinct constant outcomes, and the
    F-side likewise by a single c-test.
    """
    if len({a, b, c}) != 3:
        raise ValueError("phi_abc needs three distinct atoms")
    q = normalize(p, Variety.CR)

    def _decided_by(side: Term, atm: Atom) -> bool:
        if not isinstance(side, Cond) or side.cond != AtomTerm(atm):
            return False
        t_out = normalize(t_simplify(side, atm), Variety.CR)
        f_out = normalize(f_simplify(side, atm), Variety.CR)
        return _is_const(t_out) and _is_const(f_out) and t_out != f_out

    return _decided_by(t_simplify(q, b), a) and _decided_by(f_simplify(q, b), c)


# ---------------------------------------------------------------------------
# Catalog closure


@lru_cache(maxsize=None)
def _apply(body: Term, u: Term, v: Term | None) -> Term:
    """Basic form of body[x := u, y := v]; all three already basic.

    Folding over the body reuses the memoized combine step, which is what
    makes the catalog closure affordable.
    """
    if isinstance(body, (TrueConst, FalseConst)):
        return body
    assert isinstance(body, Cond)
    central = body.cond.atom  # type: ignore[union-attr]
    left = _apply(body.left, u, v)
    right = _apply(body.right, u, v)
    if central == X:
        return _combine(left, u, right)
    assert central == Y and v is not None
    return _combine(left, v, right)


# Longest path to a T leaf and to an F leaf; _NO_LEAF when a term has none.
_NO_LEAF = float("-inf")
_CONST_PATHS = {TRUE: (0, _NO_LEAF), FALSE: (_NO_LEAF, 0)}


def _apply_paths(body: Term, pu: tuple, pv: tuple | None, memo: dict) -> tuple:
    """Leaf paths of ``_apply(body, u, v)`` from the leaf paths of u and v.

    ``_combine(p, q, r)`` puts p at the T leaves of q and r at its F leaves,
    so a path of the result runs through q to a leaf and on through p or r.
    The depth of a basic form is the larger of its two paths, so the depth
    of a composition is known exactly before it is built.
    """
    if not isinstance(body, Cond):
        return _CONST_PATHS[body]
    key = (body, pu, pv)
    out = memo.get(key)
    if out is None:
        lt, lf = _apply_paths(body.left, pu, pv, memo)
        rt, rf = _apply_paths(body.right, pu, pv, memo)
        qt, qf = pu if body.cond.atom == X else pv  # type: ignore[union-attr,misc]
        out = memo[key] = (max(qt + lt, qf + rt), max(qt + lf, qf + rf))
    return out


# The most completed closures _CLOSURES keeps.
CLOSURE_SLOTS = 8


@dataclass
class _Closure:
    """A closure stream that ran to its end.

    ``terms`` are the admitted compositions in stream order, ``stamps`` the
    budget step at which each was admitted (nondecreasing), and ``steps``
    the steps of the whole stream.  ``index`` maps a variety to a table
    from k-normal form to the position of the first composition with that
    form; it covers the first ``scanned[k]`` compositions and is extended
    only as far as a search reads, so no search normalizes more
    compositions than the stream under its budget would.
    """

    terms: list[CompositionTerm]
    stamps: list[int]
    steps: int
    index: dict[Variety, dict[Term, int]] = field(default_factory=dict)
    scanned: dict[Variety, int] = field(default_factory=dict)


_CLOSURES: dict[tuple, _Closure] = {}  # keyed by _closure_key, oldest first


def _keep(key: tuple, closure: _Closure) -> None:
    if key not in _CLOSURES and len(_CLOSURES) >= CLOSURE_SLOTS:
        del _CLOSURES[next(iter(_CLOSURES))]
    _CLOSURES[key] = closure


def _closure_key(atom_names, catalog: OperatorCatalog, max_2p: int, result_depth: int) -> tuple:
    """The closure is a function of these four values alone."""
    return tuple(sorted(set(atom_names))), catalog, max_2p, result_depth


def _exhausted(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"catalog closure budget {budget} exhausted")


def _stream(key: tuple, budget: int) -> Iterator[CompositionTerm]:
    """The closure of ``key``, computed; stored when it runs to its end."""
    names, catalog, max_2p, result_depth = key
    paths: dict[Term, tuple] = {}  # admitted terms -> their leaf paths
    memo: dict = {}  # _apply_paths results of this call
    strata: list[list[Term]] = []
    admitted: list[CompositionTerm] = []
    stamps: list[int] = []
    steps = 0
    for c in range(max_2p + 1):
        stratum: list[Term] = []
        if c == 0:
            base = [(TRUE, _CONST_PATHS[TRUE]), (FALSE, _CONST_PATHS[FALSE])]
            base += [(Cond(TRUE, AtomTerm(Atom(n)), FALSE), (1, 1)) for n in names]
            for t, tp in base:
                if max(tp) <= result_depth and t not in paths:
                    paths[t] = tp
                    stratum.append(t)
                    admitted.append(CompositionTerm(t, 0))
                    stamps.append(0)
                    yield admitted[-1]
        for body in catalog.binary_ops:
            for c1 in range(c):
                us, vs = strata[c1], strata[c - 1 - c1]
                v_paths = [paths[v] for v in vs]
                v_groups = set(v_paths)
                rows: dict[tuple, list[int]] = {}  # leaf paths of u -> indices of the v it admits
                for u in us:
                    pu = paths[u]
                    row = rows.get(pu)
                    if row is None:
                        fits = {
                            pv for pv in v_groups if max(_apply_paths(body, pu, pv, memo)) <= result_depth
                        }
                        row = rows[pu] = [j for j, pv in enumerate(v_paths) if pv in fits]
                    start = steps  # the pair (u, vs[j]) is step start + j + 1
                    steps += len(vs)
                    for j in row:
                        if start + j >= budget:
                            break
                        t = _apply(body, u, vs[j])
                        if t not in paths:
                            paths[t] = _apply_paths(body, pu, v_paths[j], memo)
                            stratum.append(t)
                            admitted.append(CompositionTerm(t, c))
                            stamps.append(start + j + 1)
                            yield admitted[-1]
                    if steps > budget:
                        raise _exhausted(budget)
        i = 0
        while i < len(stratum):  # the unary closure, in work order
            u = stratum[i]
            i += 1
            for body in catalog.unary_ops:
                steps += 1
                if steps > budget:
                    raise _exhausted(budget)
                tp = _apply_paths(body, paths[u], None, memo)
                if max(tp) > result_depth:
                    continue
                t = _apply(body, u, None)
                if t not in paths:
                    paths[t] = tp
                    stratum.append(t)
                    admitted.append(CompositionTerm(t, c))
                    stamps.append(steps)
                    yield admitted[-1]
        strata.append(stratum)
    _keep(key, _Closure(admitted, stamps, steps))


def _replay(closure: _Closure, budget: int) -> Iterator[CompositionTerm]:
    """What ``_stream`` yields and raises under ``budget``, read from a
    stored closure: a budget only cuts the stream short."""
    for ct, stamp in zip(closure.terms, closure.stamps):
        if stamp > budget:
            break
        yield ct
    if closure.steps > budget:
        raise _exhausted(budget)


def iter_tc12(
    atom_names: tuple[str, ...] | frozenset[str] | set[str],
    catalog: OperatorCatalog,
    max_2p: int,
    result_depth: int = 3,
    budget: int = SEARCH_BUDGET,
) -> Iterator[CompositionTerm]:
    """Yield the closed catalog compositions with at most max_2p binary
    applications, each when it is admitted.

    Stratum c holds the compositions first reached with c binary
    applications: first those whose outermost operator is binary, in the
    order (body, stratum of u, u, v), then the unary-closure additions in
    work order.  A result is admitted when its fr-canonical form is new and
    its canonical depth is at most result_depth; the depth cap is part of the
    reported bounds of any absence verdict derived from the output.

    The depth of a result is computed from the leaf paths of its operands
    (``_apply_paths``) before it is built, and results that would be too deep
    are never built.  The gate is exact, so the output is that of building
    every result and discarding the deep ones.  Every (body, operands) pair
    counts one step, gated or not; a step beyond ``budget`` raises
    ``BudgetExceededError`` after everything admitted before it was yielded.

    A stream that runs to its end is kept, with the step at which each
    composition was admitted, in a store of at most ``CLOSURE_SLOTS``
    closures (the oldest is dropped first).  A stored closure is replayed
    instead of computed, with the same output and the same budget verdict.
    """
    key = _closure_key(atom_names, catalog, max_2p, result_depth)
    closure = _CLOSURES.get(key)
    if closure is None:
        return _stream(key, budget)
    return _replay(closure, budget)


def enumerate_tc12(
    atom_names: tuple[str, ...] | frozenset[str] | set[str],
    catalog: OperatorCatalog,
    max_2p: int,
    result_depth: int = 3,
    budget: int = SEARCH_BUDGET,
) -> list[CompositionTerm]:
    """All of ``iter_tc12``, in its order.

    Deduplicated modulo fr-canonical form, each term with the least
    two_place_count that reaches it, and only results whose canonical depth
    stays within result_depth.  Raises ``BudgetExceededError`` when the
    enumeration needs more than ``budget`` steps.
    """
    return list(iter_tc12(atom_names, catalog, max_2p, result_depth, budget))


def _form(t: Term, k: Variety, universe: list[Atom] | None) -> Term:
    """The k-normal form of a composition (already fr-canonical)."""
    return t if k == Variety.FR else normalize(t, k, universe)


def _find(closure: _Closure, k: Variety, universe: list[Atom] | None, goal: Term, budget: int) -> Optional[int]:
    """The position of the first composition whose k-normal form is goal,
    or None if there is none within ``budget``."""
    index = closure.index.setdefault(k, {})
    i = index.get(goal)
    if i is not None:
        return i
    for j in range(closure.scanned.get(k, 0), len(closure.terms)):
        if closure.stamps[j] > budget:
            break
        closure.scanned[k] = j + 1
        form = _form(closure.terms[j].term, k, universe)
        index.setdefault(form, j)
        if form is goal:
            return j
    return None


def search_equivalent(
    target: Term,
    k: Variety,
    atom_names: tuple[str, ...] | frozenset[str] | set[str],
    catalog: OperatorCatalog,
    max_2p: int,
    result_depth: int = 3,
    budget: int = SEARCH_BUDGET,
) -> Optional[CompositionTerm]:
    """First enumerated composition k-equal to the target, or None.

    The enumeration order is fixed, so identical inputs yield the identical
    witness.  Only the steps before the witness count against ``budget``:
    a witness found within it is returned, and ``BudgetExceededError`` is
    raised only when the budget runs out first (always the case for a miss
    whose enumeration needs more steps).

    The target is normalized once.  Under st the forms range over the
    catalog atoms and the target's: st-equality over any superset of the
    atoms of both sides is ``equal``.  On a closure not yet stored the
    candidates are streamed and the search stops at the first match; on a
    stored one it is a lookup in the closure's index for k, extended as far
    as the first match when the form is not yet in it (a scan when an st
    target has atoms outside ``atom_names``).
    """
    key = _closure_key(atom_names, catalog, max_2p, result_depth)
    universe = sorted({Atom(n) for n in key[0]} | atoms(target)) if k == Variety.ST else None
    goal = normalize(target, k, universe)
    closure = _CLOSURES.get(key)
    if closure is None:
        for cand in _stream(key, budget):
            if _form(cand.term, k, universe) is goal:
                return cand
        return None
    if universe is None or len(universe) == len(key[0]):
        i = _find(closure, k, universe, goal, budget)
    else:
        within = takewhile(lambda j: closure.stamps[j] <= budget, range(len(closure.terms)))
        i = next((j for j in within if _form(closure.terms[j].term, k, universe) is goal), None)
    if i is not None and closure.stamps[i] <= budget:
        return closure.terms[i]
    if closure.steps > budget:
        raise _exhausted(budget)
    return None


def mem_definability_check() -> bool:
    """(b land a) lor (not b land c) coincides with a <| b |> c under the
    memorizing congruence, but under neither the weakly memorizing nor the
    free congruence."""
    a, b, c = AtomTerm(Atom("a")), AtomTerm(Atom("b")), AtomTerm(Atom("c"))
    neg_b = Cond(FALSE, b, TRUE)
    b_and_a = Cond(a, b, FALSE)
    nb_and_c = Cond(c, neg_b, FALSE)
    lhs = Cond(TRUE, b_and_a, nb_and_c)
    rhs = Cond(a, b, c)
    return (
        equal(lhs, rhs, Variety.MEM)
        and not equal(lhs, rhs, Variety.WM)
        and not equal(lhs, rhs, Variety.FR)
    )


__all__ = [
    "OperatorCatalog",
    "CompositionTerm",
    "t_simplify",
    "f_simplify",
    "phi_abc",
    "iter_tc12",
    "enumerate_tc12",
    "search_equivalent",
    "mem_definability_check",
    "SEARCH_BUDGET",
]
