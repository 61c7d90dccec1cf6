"""Satisfiability and falsifiability per valuation congruence.

Free-valuation satisfiability admits a linear-time mutual induction; the
other varieties are decided by leaf checks on canonical forms, and the
Pmem/Nmem families by exhaustive search over the variety's tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .congruence import _classical_value, basic_form, normalize
from .errors import UnsupportedConnectiveError
from .oracle import (
    ORACLE_BUDGET,
    compare_terms,
    materialize_table,
    sat_fal_search,
    satisfying_assignment,
)
from .syntax import LeftAnd, LeftOr, Not, desugar
from .terms import (
    MAIN_CHAIN,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    Variety,
    atoms,
    depth,
)
from .valuation import ValuationTable


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    falsifiable: bool
    witness: Optional[ValuationTable] = None


def _sat_fal(p: Term) -> tuple[bool, bool]:
    """The mutual induction for free-valuation SAT/FAL."""
    if isinstance(p, TrueConst):
        return True, False
    if isinstance(p, FalseConst):
        return False, True
    if isinstance(p, AtomTerm):
        return True, True
    assert isinstance(p, Cond)
    sat_l, fal_l = _sat_fal(p.left)
    sat_c, fal_c = _sat_fal(p.cond)
    sat_r, fal_r = _sat_fal(p.right)
    satisfiable = (sat_c and sat_l) or (fal_c and sat_r)
    falsifiable = (sat_c and fal_l) or (fal_c and fal_r)
    return satisfiable, falsifiable


def sat_fr_inductive(p: Term) -> SatVerdict:
    """Linear-time SAT/FAL under free valuations (no witness)."""
    satisfiable, falsifiable = _sat_fal(p)
    return SatVerdict(satisfiable, falsifiable)


def _leaves(p: Term) -> set[bool]:
    """The leaf values of a basic form.  Each distinct node is visited once
    (normal forms share subterms), and the walk stops once it has seen
    both values."""
    found: set[bool] = set()
    seen: set[Term] = set()
    stack = [p]
    while stack and len(found) < 2:
        t = stack.pop()
        if isinstance(t, Cond):
            if t not in seen:
                seen.add(t)
                stack += (t.right, t.left)
        else:
            assert isinstance(t, (TrueConst, FalseConst))
            found.add(isinstance(t, TrueConst))
    return found


def _search_space(p: Term) -> tuple[tuple[Atom, ...], int]:
    """The alphabet and observable depth the table searches for p range over."""
    return tuple(sorted(atoms(p))) or (Atom("a"),), max(1, depth(p))


def sat(p: Term, k: Variety, witness: bool = False, budget: int = ORACLE_BUDGET) -> SatVerdict:
    """SAT/FAL with respect to the variety.

    The six main varieties are decided by the leaf check on the k-basic form
    (every leaf of a k-basic form is reachable by a k-valuation); the
    Pmem/Nmem families by exhaustive search over variety tables at
    obs_depth = depth(p).  Witnesses, when requested, are found by the same
    search (on the side families, the search that decided satisfiability)
    and returned as explicit tables.
    """
    if k in MAIN_CHAIN:
        leaves = _leaves(normalize(p, k))
        verdict = SatVerdict(True in leaves, False in leaves)
        if not (witness and verdict.satisfiable):
            return verdict
        alphabet, d = _search_space(p)
        assign = satisfying_assignment(p, k, alphabet, d, True, budget)
        assert assign is not None, "a satisfiable term has a satisfying table"
    else:
        alphabet, d = _search_space(p)
        assign, falsifiable = sat_fal_search(p, k, alphabet, d, budget)
        verdict = SatVerdict(assign is not None, falsifiable)
        if not (witness and verdict.satisfiable):
            return verdict
    return SatVerdict(True, verdict.falsifiable, materialize_table(k, alphabet, d, assign))


def pmem_reduction_holds(p: Term, budget: int = ORACLE_BUDGET) -> bool:
    """The NP-reduction identity: memorizing satisfiability of p coincides
    with positively-memorizing satisfiability of the left-sequential
    conjunction of n+1 copies of p (n = number of atoms)."""
    n = len(atoms(p))
    copies = [p] * (n + 1)
    conj = reduce(lambda acc, t: Cond(t, acc, FalseConst()), copies[1:], copies[0])
    sat_mem = True in _leaves(normalize(p, Variety.MEM))
    alphabet, d = _search_space(conj)
    sat_pmem = satisfying_assignment(conj, Variety.PMEM, alphabet, d, True, budget) is not None
    return sat_mem == sat_pmem


def crpmem_translation_holds(a: Atom, x: Term, y: Term, budget: int = ORACLE_BUDGET) -> bool:
    """Under contractive positively-memorizing valuations,
    x <| a |> y = (a land x) lor (not a land y); dually under
    contractive negatively-memorizing valuations with the mirrored
    translation (not a land y) lor (a land x)."""
    at = AtomTerm(a)
    lhs = Cond(x, at, y)
    rhs_p = desugar(LeftOr(LeftAnd(at, x), LeftAnd(Not(at), y)))
    rhs_n = desugar(LeftOr(LeftAnd(Not(at), y), LeftAnd(at, x)))
    alphabet = tuple(sorted(atoms(lhs) | {a}))
    for k, rhs in ((Variety.CR_PMEM, rhs_p), (Variety.CR_NMEM, rhs_n)):
        obs_depth = depth(lhs) + depth(rhs) + 2
        if compare_terms(lhs, rhs, k, alphabet, obs_depth, residuals=False, budget=budget) != "congruent":
            return False
    return True


def acc(s: Term) -> frozenset[Atom]:
    """Accessible atoms of a sugared term over {atoms, T, F, not, land, lor}:
    the atoms some free valuation actually gets asked."""
    if isinstance(s, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(s, AtomTerm):
        return frozenset({s.atom})
    if isinstance(s, Not):
        return acc(s.operand)
    if isinstance(s, LeftAnd):
        left = acc(s.left)
        if not sat_fr_inductive(desugar(s.left)).satisfiable:
            return left
        return left | acc(s.right)
    if isinstance(s, LeftOr):
        left = acc(s.left)
        if not sat_fr_inductive(desugar(s.left)).falsifiable:
            return left
        return left | acc(s.right)
    raise UnsupportedConnectiveError(
        "accessibility is defined for atoms, T, F, not, land, lor only"
    )


def st_classically_satisfiable(p: Term) -> bool:
    """Truth-table satisfiability (reference implementation for cross-checks)."""
    alist = sorted(atoms(p))
    for bits in itertools.product((True, False), repeat=len(alist)):
        if _classical_value(p, dict(zip(alist, bits))):
            return True
    return False


def leaf_check_matches_inductive(p: Term) -> bool:
    """Cross-validation: inductive SAT/FAL equals the basic-form leaf check."""
    leaves = _leaves(basic_form(p))
    verdict = sat_fr_inductive(p)
    return verdict.satisfiable == (True in leaves) and verdict.falsifiable == (False in leaves)


__all__ = [
    "SatVerdict",
    "sat_fr_inductive",
    "sat",
    "pmem_reduction_holds",
    "crpmem_translation_holds",
    "acc",
    "st_classically_satisfiable",
    "leaf_check_matches_inductive",
]
