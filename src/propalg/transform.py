"""Statement transformations for repeated-query environments.

``caching`` rewrites a basic form into an equivalent monotest form (no
evaluation path queries an atom twice) by propagating each observed reply
into the subtree below it.  Remembering every reply is what memorizing
valuations do, so this is the mem normal form of a basic form, computed (and
memoized) once in ``congruence``.  ``re_eval`` goes the other way: it keeps
the statement as written but restarts evaluation when a repeated query
contradicts a remembered reply; since restarting can loop forever, the result
is a linear specification (a projective-limit element), not a finite term.
"""

from __future__ import annotations

from collections import deque

from .congruence import _normalize_mem, basic_form
from .errors import BudgetExceededError, ReservedWordError, UnsupportedConnectiveError
from .projective import CondRhs, LinearSpec, Rhs
from .terms import (
    FALSE,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    atoms,
    is_basic,
)

DLNI = Atom("dlni")

VARIANTS = ("plain", "dlni", "dlni_subst")


def _require_basic(p: Term, what: str) -> None:
    """Reject a term that is not a basic form, also under ``python -O``."""
    if not is_basic(p):
        raise UnsupportedConnectiveError(f"{what} is defined on basic forms")


def caching(p: Term) -> Term:
    """The monotest form obtained by remembering every reply: the mem normal
    form of the basic form p, the same object as ``normalize(p, Variety.MEM)``."""
    _require_basic(p, "caching")
    return _normalize_mem(p)


def is_monotest(p: Term) -> bool:
    """True iff no root-to-leaf path tests the same atom twice."""
    _require_basic(p, "is_monotest")
    return _monotest_below(p, frozenset())


def _monotest_below(t: Term, seen: frozenset[Atom]) -> bool:
    """No path of the basic form ``t`` tests an atom twice or one in ``seen``."""
    if not isinstance(t, Cond):
        return True
    a = t.cond.atom  # type: ignore[union-attr]
    if a in seen:
        return False
    return _monotest_below(t.left, seen | {a}) and _monotest_below(t.right, seen | {a})


def subst_sets(t: Term, v: frozenset[Atom] | set[Atom], w: frozenset[Atom] | set[Atom]) -> Term:
    """Simultaneously replace atoms in v by T and atoms in w by F."""
    if set(v) & set(w):
        raise ValueError("the true-set and false-set must be disjoint")
    if isinstance(t, AtomTerm):
        if t.atom in v:
            return TRUE
        if t.atom in w:
            return FALSE
        return t
    if isinstance(t, Cond):
        return Cond(subst_sets(t.left, v, w), subst_sets(t.cond, v, w), subst_sets(t.right, v, w))
    return t


# ---------------------------------------------------------------------------
# Restart semantics

# A compilation state: the replies remembered so far and the subterm in
# focus.  "guard" states interpose the deadline test of the dlni variants;
# "term" states expand a plain continuation term into linear equations.
_StateKey = tuple


def re_eval(p: Term, variant: str = "plain", max_states: int | None = None) -> LinearSpec:
    """Compile the restart semantics of p into a linear specification.

    Evaluation proceeds through p remembering replies (V true, W false).  A
    repeated query that contradicts its remembered reply triggers, per
    variant:

      plain       restart at the root with both sets emptied;
      dlni        query the reserved atom dlni first — restart if it replies
                  T, otherwise continue plainly in the branch the fresh reply
                  selects;
      dlni_subst  as dlni, but the continuation first substitutes the
                  remembered replies into that branch.

    The start variable is the first declared one.
    """
    _require_basic(p, "re_eval")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r} (expected one of {VARIANTS})")
    if variant != "plain" and DLNI in atoms(p):
        raise ReservedWordError("the atom name 'dlni' is reserved by the dlni variants")
    n_nodes = _node_count(p)
    bound = max(64, 4 * n_nodes * 3 ** len(atoms(p)))
    budget = bound if max_states is None else max_states

    names: dict[_StateKey, str] = {}
    order: list[str] = []
    equations: dict[str, Rhs] = {}
    work: deque[_StateKey] = deque()

    def var(key: _StateKey) -> str:
        if key not in names:
            if len(names) >= budget:
                raise BudgetExceededError(f"re_eval state budget {budget} exhausted")
            names[key] = f"X{len(names)}"
            order.append(names[key])
            work.append(key)
        return names[key]

    root_key: _StateKey = ("s", frozenset(), frozenset(), p)
    var(root_key)
    while work:
        key = work.popleft()
        name = names[key]
        kind = key[0]
        if kind == "t":
            node = key[1]
            if isinstance(node, (TrueConst, FalseConst)):
                equations[name] = node
            else:
                equations[name] = CondRhs(
                    var(("t", node.left)), node.cond.atom, var(("t", node.right))
                )
            continue
        if kind == "g":
            _, v, w, node, taken = key
            restart = var(root_key)
            cont = node.left if taken else node.right
            if variant == "dlni_subst":
                cont = basic_form(subst_sets(cont, v, w))
            equations[name] = CondRhs(restart, DLNI, var(("t", cont)))
            continue
        _, v, w, node = key
        if isinstance(node, (TrueConst, FalseConst)):
            equations[name] = node
            continue
        a = node.cond.atom
        if a not in v and a not in w:
            equations[name] = CondRhs(
                var(("s", v | {a}, w, node.left)), a, var(("s", v, w | {a}, node.right))
            )
        elif a in v:
            # Stored reply T: an F reply now is the contradiction.
            bad = var(root_key) if variant == "plain" else var(("g", v, w, node, False))
            equations[name] = CondRhs(var(("s", v, w, node.left)), a, bad)
        else:
            bad = var(root_key) if variant == "plain" else var(("g", v, w, node, True))
            equations[name] = CondRhs(bad, a, var(("s", v, w, node.right)))

    return LinearSpec(tuple(order), equations)


def _node_count(t: Term) -> int:
    if isinstance(t, Cond):
        return 1 + _node_count(t.left) + _node_count(t.right)
    return 1


__all__ = [
    "DLNI",
    "VARIANTS",
    "caching",
    "is_monotest",
    "subst_sets",
    "re_eval",
]
