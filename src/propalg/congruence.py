"""Canonical forms per valuation congruence and the equality decisions.

Each congruence k in the chain fr - rp - cr - wm - mem - st has a family of
k-basic forms in which every k-class has a unique representative; ``equal``
decides the congruence by normalizing both sides and comparing structurally.
``equiv_oracle``/``congruent_oracle`` decide the same questions semantically,
by quantifying over valuation tables, and serve as the independent check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .oracle import compare_terms
from .syntax import desugar, sugared_atoms
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
    depth,
    enumerate_basic_forms,
    is_k_basic,
    subst_atom,
)


@dataclass(frozen=True)
class NormalizationReport:
    input: Term
    variety: Variety
    output: Term
    rewrite_steps: int


# ---------------------------------------------------------------------------
# Basic forms (fr)


@lru_cache(maxsize=None)
def _combine(p: Term, q: Term, r: Term) -> Term:
    """Basic form of p <| q |> r, all arguments already basic.

    Constants as central condition collapse to a branch; a conditional central
    condition distributes over the branches.
    """
    if isinstance(q, TrueConst):
        return p
    if isinstance(q, FalseConst):
        return r
    assert isinstance(q, Cond)
    return Cond(_combine(p, q.left, r), q.cond, _combine(p, q.right, r))


@lru_cache(maxsize=None)
def basic_form(t: Term) -> Term:
    """The unique basic form CP-provably equal to t."""
    if isinstance(t, (TrueConst, FalseConst)):
        return t
    if isinstance(t, AtomTerm):
        return Cond(TRUE, t, FALSE)
    if isinstance(t, Cond):
        return _combine(basic_form(t.left), basic_form(t.cond), basic_form(t.right))
    raise TypeError(f"not a core term: {t!r}")


# ---------------------------------------------------------------------------
# rp / cr


@lru_cache(maxsize=None)
def _normalize_rp(t: Term) -> Term:
    """Exhaustive oriented application of the repetition-proof schemes.

    A child with the same central atom as its parent is rewritten to the
    and-then shape (its taken branch doubled); the copy may expose further
    redexes, which are chased recursively.  The defect (a same-atom child with
    distinct branches) moves strictly deeper at each step, so this terminates.
    """
    if not isinstance(t, Cond):
        return t
    a = t.cond.atom  # type: ignore[union-attr]
    left = _normalize_rp(t.left)
    right = _normalize_rp(t.right)
    while True:
        if isinstance(left, Cond) and left.cond.atom == a and left.left != left.right:  # type: ignore[union-attr]
            left = _normalize_rp(Cond(left.left, t.cond, left.left))
            continue
        if isinstance(right, Cond) and right.cond.atom == a and right.left != right.right:  # type: ignore[union-attr]
            right = _normalize_rp(Cond(right.right, t.cond, right.right))
            continue
        return Cond(left, t.cond, right)


@lru_cache(maxsize=None)
def _normalize_cr(t: Term) -> Term:
    """Exhaustive contraction: a child testing the parent's atom collapses to
    the branch the parent's reply already selects."""
    if not isinstance(t, Cond):
        return t
    a = t.cond.atom  # type: ignore[union-attr]
    left = _normalize_cr(t.left)
    right = _normalize_cr(t.right)
    while isinstance(left, Cond) and left.cond.atom == a:  # type: ignore[union-attr]
        left = left.left
    while isinstance(right, Cond) and right.cond.atom == a:  # type: ignore[union-attr]
        right = right.right
    return Cond(left, t.cond, right)


# ---------------------------------------------------------------------------
# wm


def _prune_pos(t: Term, a: Atom) -> Term:
    """Remove a from the positive positions of t (t sits in a's T-branch):
    while replies stay positive, a re-query of a must reply T, so a node
    testing a on the positive spine is replaced by its T-branch."""
    if isinstance(t, Cond):
        if t.cond.atom == a:  # type: ignore[union-attr]
            return _prune_pos(t.left, a)
        return Cond(_prune_pos(t.left, a), t.cond, t.right)
    return t


def _prune_neg(t: Term, a: Atom) -> Term:
    if isinstance(t, Cond):
        if t.cond.atom == a:  # type: ignore[union-attr]
            return _prune_neg(t.right, a)
        return Cond(t.left, t.cond, _prune_neg(t.right, a))
    return t


@lru_cache(maxsize=None)
def _normalize_wm(t: Term) -> Term:
    if not isinstance(t, Cond):
        return t
    a = t.cond.atom  # type: ignore[union-attr]
    left = _prune_pos(_normalize_wm(t.left), a)
    right = _prune_neg(_normalize_wm(t.right), a)
    return Cond(left, t.cond, right)


# ---------------------------------------------------------------------------
# mem


@lru_cache(maxsize=None)
def _normalize_mem(t: Term) -> Term:
    """Memorizing normal form: below a central atom the atom's reply is fixed,
    so substitute it away in both branches and renormalize."""
    if not isinstance(t, Cond):
        return t
    a = t.cond.atom  # type: ignore[union-attr]
    left = _normalize_mem(basic_form(subst_atom(t.left, a, TRUE)))
    right = _normalize_mem(basic_form(subst_atom(t.right, a, FALSE)))
    return Cond(left, t.cond, right)


# ---------------------------------------------------------------------------
# st


def _classical_value(t: Term, assignment: dict[Atom, bool]) -> bool:
    if isinstance(t, TrueConst):
        return True
    if isinstance(t, FalseConst):
        return False
    if isinstance(t, AtomTerm):
        return assignment[t.atom]
    assert isinstance(t, Cond)
    if _classical_value(t.cond, assignment):
        return _classical_value(t.left, assignment)
    return _classical_value(t.right, assignment)


def _truth_table_form(t: Term, ordered_atoms: list[Atom], assignment: dict[Atom, bool]) -> Term:
    if not ordered_atoms:
        return TRUE if _classical_value(t, assignment) else FALSE
    a, rest = ordered_atoms[0], ordered_atoms[1:]
    left = _truth_table_form(t, rest, {**assignment, a: True})
    right = _truth_table_form(t, rest, {**assignment, a: False})
    return Cond(left, AtomTerm(a), right)


def _normalize_st(t: Term, atom_list: list[Atom]) -> Term:
    return _truth_table_form(t, atom_list, {})


# ---------------------------------------------------------------------------
# Public interface


def normalize(t: Term, k: Variety, atom_list: list[Atom] | None = None) -> Term:
    """The k-basic form of t (canonical representative of its k-class).

    For st the canonical form is a full binary tree over the sorted atom list
    (by default the atoms of t; comparisons pass the union).
    """
    bf = basic_form(t)
    if k == Variety.FR:
        out = bf
    elif k == Variety.RP:
        out = _normalize_rp(bf)
    elif k == Variety.CR:
        out = _normalize_cr(bf)
    elif k == Variety.WM:
        out = _normalize_wm(_normalize_cr(bf))
    elif k == Variety.MEM:
        out = _normalize_mem(bf)
    elif k == Variety.ST:
        out = _normalize_st(bf, sorted(atoms(t)) if atom_list is None else sorted(atom_list))
    else:
        raise ValueError(f"no canonical form for variety {k}")
    assert is_k_basic(out, k), f"normalization produced a non-{k}-basic form"
    return out


def _size(x: Term) -> int:
    """The number of nodes of ``x`` as a tree (shared subterms counted per
    occurrence)."""
    if isinstance(x, Cond):
        return 1 + _size(x.left) + _size(x.cond) + _size(x.right)
    return 1


def normalization_report(t: Term, k: Variety) -> NormalizationReport:
    """Normalize and report the node count difference as a step estimate."""
    out = normalize(t, k)
    return NormalizationReport(t, k, out, abs(_size(out) - _size(t)))


def equal(p: Term, q: Term, k: Variety) -> bool:
    """Decide p =_k q via canonical forms."""
    if k == Variety.ST:
        union = sorted(atoms(p) | atoms(q))
        return normalize(p, k, union) == normalize(q, k, union)
    return normalize(p, k) == normalize(q, k)


def _compare(p: Term, q: Term, k: Variety, residuals: bool) -> str:
    """Compare p and q over every k-table on their atoms plus a fresh one,
    observed deep enough for both evaluations and one more query."""
    used = atoms(p) | atoms(q)
    alphabet = tuple(sorted(used | {_fresh_atom(used)}))
    return compare_terms(p, q, k, alphabet, depth(p) + depth(q) + 2, residuals)


def oracle_verdict(p: Term, q: Term, k: Variety) -> str:
    """Semantic comparison over all k-tables: 'congruent', 'value', or
    'derivative' (values agree, residuals distinguishable)."""
    return _compare(p, q, k, residuals=True)


def equiv_oracle(p: Term, q: Term, k: Variety) -> bool:
    """p and q evaluate equally over every k-table (K-equivalence)."""
    return _compare(p, q, k, residuals=False) == "congruent"


def congruent_oracle(p: Term, q: Term, k: Variety) -> bool:
    """K-equivalence plus equal residuals after the traces (K-congruence)."""
    return oracle_verdict(p, q, k) == "congruent"


def _fresh_atom(used: frozenset[Atom]) -> Atom:
    names = {a.name for a in used}
    for candidate in "uvwpqrstabcdefghijklmno":
        if candidate not in names:
            return Atom(candidate)
    i = 0
    while f"z{i}" in names:
        i += 1
    return Atom(f"z{i}")


# ---------------------------------------------------------------------------
# Laws with variables


def check_law(lhs: Term, rhs: Term, k: Variety, spot_checks: int = 20) -> bool:
    """Decide a law between sugared terms whose atoms act as variables.

    The variables are instantiated with distinct fresh atoms (equivalently:
    kept as themselves) and decided with ``equal``; in addition, random closed
    instantiations (depth <= 2 over two atoms) guard against over-generalizing
    a fresh-atom verdict.  Atomic instances can satisfy an equation that
    compound instances break (self-tests contract under cr, for example), so
    a law counts as valid only when the fresh-atom verdict survives every
    spot check.
    """
    lhs_core = desugar(lhs)
    rhs_core = desugar(rhs)
    if not equal(lhs_core, rhs_core, k):
        return False
    variables = sorted(sugared_atoms(lhs) | sugared_atoms(rhs))
    if variables:
        rng = random.Random(20260825)
        names = _population_names(variables)
        population = enumerate_basic_forms(names, 2)
        for _ in range(spot_checks):
            inst_l, inst_r = lhs_core, rhs_core
            for v in variables:
                t = population[rng.randrange(len(population))]
                inst_l = subst_atom(inst_l, v, t)
                inst_r = subst_atom(inst_r, v, t)
            if not equal(inst_l, inst_r, k):
                return False
    return True


def _population_names(variables: list[Atom]) -> tuple[str, str]:
    """Two atom names distinct from every law variable."""
    taken = {v.name for v in variables}
    picked = []
    for name in ("a", "b", "c", "d", "e"):
        if name not in taken:
            picked.append(name)
        if len(picked) == 2:
            break
    return tuple(picked)  # type: ignore[return-value]


@dataclass(frozen=True)
class Law:
    name: str
    lhs: str
    rhs: str
    # Verdicts documented per variety; varieties not listed are undocumented.
    expected: dict[Variety, bool]


def _doc(fr: bool | None = None, st: bool | None = None, **others: bool) -> dict[Variety, bool]:
    out: dict[Variety, bool] = {}
    if fr is not None:
        out[Variety.FR] = fr
        if fr:
            # Laws provable in CP hold under every coarser congruence.
            for k in (Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST):
                out[k] = True
    if st is not None:
        out[Variety.ST] = st
    for name, value in others.items():
        out[Variety(name)] = value
    return out


LAW_SUITE: tuple[Law, ...] = (
    # Immediate consequences of the axioms.
    Law("negation-of-true", "not T", "F", _doc(fr=True)),
    Law("negation-of-false", "not F", "T", _doc(fr=True)),
    Law("double-negation", "not (not x)", "x", _doc(fr=True)),
    Law("negation-distributes", "not (x <| y |> z)", "(not x) <| y |> (not z)", _doc(fr=True)),
    Law("negated-condition-swaps", "x <| not y |> z", "z <| y |> x", _doc(fr=True)),
    # Associativity (provable in CP).
    Law("then-associative", "(x then y) then z", "x then (y then z)", _doc(fr=True)),
    Law("land-associative", "(x land y) land z", "x land (y land z)", _doc(fr=True)),
    Law("rand-associative", "(x rand y) rand z", "x rand (y rand z)", _doc(fr=True)),
    Law("lor-associative", "(x lor y) lor z", "x lor (y lor z)", _doc(fr=True)),
    Law("ror-associative", "(x ror y) ror z", "x ror (y ror z)", _doc(fr=True)),
    Law("liff-associative", "(x liff y) liff z", "x liff (y liff z)", _doc(fr=True)),
    Law("riff-associative", "(x riff y) riff z", "x riff (y riff z)", _doc(fr=True)),
    # De Morgan, sequential versions.
    Law("de-morgan-land", "not (x land y)", "not x lor not y", _doc(fr=True)),
    Law("de-morgan-rand", "not (x rand y)", "not x ror not y", _doc(fr=True)),
    Law("de-morgan-lor", "not (x lor y)", "not x land not y", _doc(fr=True)),
    Law("de-morgan-ror", "not (x ror y)", "not x rand not y", _doc(fr=True)),
    # Units and annihilators.
    Law("land-left-unit", "T land x", "x", _doc(fr=True)),
    Law("land-right-unit", "x land T", "x", _doc(fr=True)),
    Law("lor-left-unit", "F lor x", "x", _doc(fr=True)),
    Law("lor-right-unit", "x lor F", "x", _doc(fr=True)),
    Law("land-left-zero", "F land x", "F", _doc(fr=True)),
    Law("lor-left-zero", "T lor x", "T", _doc(fr=True)),
    # Implication definitions.
    Law("limp-definition", "x limp y", "not x lor y", _doc(fr=True)),
    Law("rimp-definition", "x rimp y", "not x ror y", _doc(fr=True)),
    # Classical-only laws.
    Law("land-commutative", "x land y", "y land x", _doc(fr=False, st=True)),
    Law("lor-commutative", "x lor y", "y lor x", _doc(fr=False, st=True)),
    Law("absorption", "x", "x rand (x ror y)", _doc(fr=False, st=True)),
    Law(
        "land-distributes-over-lor",
        "x land (y lor z)",
        "(x land y) lor (x land z)",
        _doc(fr=False, st=True),
    ),
    # Memorizing consequences (contraction and symmetric variants).
    Law("mem-contraction", "(x <| y |> F) <| x |> z", "y <| x |> z", _doc(fr=False, mem=True, st=True)),
    Law("mem-self-test-1", "x <| x |> x", "x", _doc(fr=False, mem=True, st=True)),
    Law("mem-self-test-2", "x <| x |> F", "x", _doc(fr=False, mem=True, st=True)),
    Law("mem-self-test-3", "T <| x |> x", "x", _doc(fr=False, mem=True, st=True)),
    Law("mem-self-test-4", "T <| x |> F", "x", _doc(fr=True)),
    # Static extras.
    Law("st-evaluation-irrelevance", "x", "y then x", _doc(fr=False, st=True)),
    Law("land-idempotent", "x land x", "x", _doc(fr=False, st=True)),
    Law("lor-idempotent", "x lor x", "x", _doc(fr=False, st=True)),
    Law("rand-commutative", "x rand y", "y rand x", _doc(fr=False, st=True)),
    Law("ror-commutative", "x ror y", "y ror x", _doc(fr=False, st=True)),
)


def run_law_suite(k: Variety) -> list[tuple[str, bool, bool | None]]:
    """Evaluate the built-in law suite under one congruence.

    Returns (name, verdict, expected) triples; expected is None when the
    suite documents no verdict for this variety.
    """
    from .syntax import parse

    results = []
    for law in LAW_SUITE:
        verdict = check_law(parse(law.lhs), parse(law.rhs), k)
        results.append((law.name, verdict, law.expected.get(k)))
    return results
