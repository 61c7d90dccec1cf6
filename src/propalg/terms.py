"""Core term language: atoms, conditional composition, and basic-form predicates.

Terms are built from the constants T and F, atomic propositions, and the
ternary conditional composition ``Cond(left, cond, right)``, read
"if cond then left else right" (the central argument is evaluated first).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import ReservedWordError, SyntaxValidationError

RESERVED_WORDS = frozenset(
    {"T", "F", "not", "then", "land", "rand", "lor", "ror", "limp", "rimp", "liff", "riff"}
)

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True, order=True)
class Atom:
    """An atomic proposition, identified by name.

    Atoms compare and sort by name; the lexicographic order is the global
    atom ordering used by the mem/st canonical forms.
    """

    name: str

    def __post_init__(self) -> None:
        if not _ATOM_RE.match(self.name):
            raise SyntaxValidationError(f"invalid atom name: {self.name!r}")
        if self.name in RESERVED_WORDS:
            raise ReservedWordError(f"reserved word used as atom: {self.name!r}")

    def __str__(self) -> str:
        return self.name


class Term:
    """Base class for core terms (and the shared nodes of sugared terms).

    Core term nodes are hash-consed: the constructors return the same object
    for equal arguments, so structural equality is object identity.  The memo
    tables throughout the package depend on this for their speed.
    """

    __slots__ = ()


# Writes the slots of the frozen node classes: the fields when a node is
# built, and each structural fact when it is first asked for.
_set = object.__setattr__

# One shared frozenset per distinct atom set, so that nodes storing their
# atom sets do not each hold a copy.
_ATOM_SETS: dict[frozenset, frozenset] = {}


def _intern_atoms(s: frozenset[Atom]) -> frozenset[Atom]:
    return _ATOM_SETS.setdefault(s, s)


def _identity_eq(self, other):
    return self is other


@dataclass(frozen=True)
class TrueConst(Term):
    def __new__(cls) -> "TrueConst":
        return TRUE

    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True)
class FalseConst(Term):
    def __new__(cls) -> "FalseConst":
        return FALSE

    def __str__(self) -> str:
        return "F"


TRUE = object.__new__(TrueConst)
FALSE = object.__new__(FalseConst)


@dataclass(frozen=True, init=False)
class AtomTerm(Term):
    """An atom as a term; ``_atoms`` is its one-element atom set, built once."""

    __slots__ = ("atom", "_atoms")

    atom: Atom

    def __new__(cls, atom: Atom) -> "AtomTerm":
        inst = _ATOM_TERMS.get(atom.name)
        if inst is None:
            inst = object.__new__(cls)
            _set(inst, "atom", atom)
            _set(inst, "_atoms", _intern_atoms(frozenset((atom,))))
            _ATOM_TERMS[atom.name] = inst
        return inst

    def __str__(self) -> str:
        return self.atom.name


# Keyed by name, so that the parser finds an atom by the string it read.
_ATOM_TERMS: dict[str, AtomTerm] = {}


@dataclass(frozen=True, init=False)
class Cond(Term):
    """Conditional composition: ``left <| cond |> right``.

    Besides its three fields a node has slots for structural facts, filled
    on first use by ``depth``, ``atoms``, ``is_basic`` and ``is_k_basic``:
    a node is immutable and shared, so each fact is computed once per node
    rather than once per occurrence.  ``_kb`` holds two bits per main-chain
    variety: "checked" and "is k-basic".  The facts are not computed in
    ``__new__``, because parsed terms may hold sugared children, on which
    ``depth`` and ``atoms`` raise.  There is no ``__init__``: a hash-cons hit
    returns the shared node untouched.
    """

    __slots__ = ("left", "cond", "right", "_depth", "_atoms", "_basic", "_kb")

    left: Term
    cond: Term
    right: Term

    def __new__(cls, left: Term, cond: Term, right: Term) -> "Cond":
        key = (left, cond, right)
        inst = _CONDS.get(key)
        if inst is None:
            inst = object.__new__(cls)
            _set(inst, "left", left)
            _set(inst, "cond", cond)
            _set(inst, "right", right)
            _set(inst, "_depth", -1)
            _set(inst, "_atoms", None)
            _set(inst, "_basic", None)
            _set(inst, "_kb", 0)
            _CONDS[key] = inst
        return inst

    def __str__(self) -> str:
        return f"({self.left} <| {self.cond} |> {self.right})"


_CONDS: dict[tuple[Term, Term, Term], Cond] = {}

for _cls in (TrueConst, FalseConst, AtomTerm, Cond):
    _cls.__eq__ = _identity_eq  # type: ignore[method-assign]
    # object's own identity hash: a C slot, cheaper in every hash-cons and
    # memo-table lookup than a Python-level function.
    _cls.__hash__ = object.__hash__  # type: ignore[method-assign]


def atom(name: str) -> AtomTerm:
    """Convenience constructor for an atom term."""
    return AtomTerm(Atom(name))


def cond(left: Term, central: Term | str, right: Term) -> Cond:
    """Convenience constructor; a string central argument names an atom."""
    if isinstance(central, str):
        central = atom(central)
    return Cond(left, central, right)


class Variety(str, Enum):
    """Identifiers of the valuation congruences.

    The main chain fr - rp - cr - wm - mem - st is ordered from finest to
    coarsest; the Pmem/Nmem families are side branches used by satisfiability.
    """

    FR = "fr"
    RP = "rp"
    CR = "cr"
    WM = "wm"
    MEM = "mem"
    ST = "st"
    PMEM = "pmem"
    NMEM = "nmem"
    CR_PMEM = "crpmem"
    WM_PMEM = "wmpmem"
    CR_NMEM = "crnmem"
    WM_NMEM = "wmnmem"

    def __str__(self) -> str:
        return self.value


MAIN_CHAIN = (Variety.FR, Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST)


def coarser_or_equal(k1: Variety, k2: Variety) -> bool:
    """True iff k1 is at least as coarse as k2 in the main chain."""
    return MAIN_CHAIN.index(k1) >= MAIN_CHAIN.index(k2)


def depth(t: Term) -> int:
    """Number of atom queries on the longest evaluation path.

    Constants have depth 0 and atoms depth 1; for a conditional the central
    depth is paid before either branch.
    """
    if isinstance(t, Cond):
        d = t._depth
        if d < 0:
            d = depth(t.cond) + max(depth(t.left), depth(t.right))
            _set(t, "_depth", d)
        return d
    if isinstance(t, (TrueConst, FalseConst)):
        return 0
    if isinstance(t, AtomTerm):
        return 1
    raise TypeError(f"not a core term: {t!r}")


_NO_ATOMS: frozenset[Atom] = _intern_atoms(frozenset())


def atoms(t: Term) -> frozenset[Atom]:
    """The set of atoms occurring anywhere in the term.

    The sets are shared: a node whose atoms are those of one child holds
    that child's set, and the other sets are interned.
    """
    if isinstance(t, Cond):
        s = t._atoms
        if s is None:
            parts = (atoms(t.left), atoms(t.cond), atoms(t.right))
            union = parts[0] | parts[1] | parts[2]
            for s in parts:
                if len(s) == len(union):
                    break
            else:
                s = _intern_atoms(union)
            _set(t, "_atoms", s)
        return s
    if isinstance(t, AtomTerm):
        return t._atoms
    if isinstance(t, (TrueConst, FalseConst)):
        return _NO_ATOMS
    raise TypeError(f"not a core term: {t!r}")


def subst_atom(t: Term, a: Atom, replacement: Term) -> Term:
    """Replace every occurrence of atom ``a`` in ``t`` by ``replacement``.

    Each distinct conditional is rebuilt once per call: a shared subterm is
    looked up in a table local to the call instead of being walked again.
    """
    return _subst_atom(t, a, replacement, {})


def _subst_atom(t: Term, a: Atom, replacement: Term, done: dict[Term, Term]) -> Term:
    if isinstance(t, Cond):
        out = done.get(t)
        if out is None:
            out = done[t] = Cond(
                _subst_atom(t.left, a, replacement, done),
                _subst_atom(t.cond, a, replacement, done),
                _subst_atom(t.right, a, replacement, done),
            )
        return out
    if isinstance(t, AtomTerm):
        return replacement if t.atom == a else t
    if isinstance(t, (TrueConst, FalseConst)):
        return t
    raise TypeError(f"not a core term: {t!r}")


def is_basic(t: Term) -> bool:
    """True iff ``t`` is a basic form: T/F leaves, atomic central conditions."""
    if isinstance(t, Cond):
        b = t._basic
        if b is None:
            b = isinstance(t.cond, AtomTerm) and is_basic(t.left) and is_basic(t.right)
            _set(t, "_basic", b)
        return b
    return isinstance(t, (TrueConst, FalseConst))


def central_atom(t: Term) -> Atom | None:
    """The central condition's atom of a basic-form conditional, else None."""
    if isinstance(t, Cond) and isinstance(t.cond, AtomTerm):
        return t.cond.atom
    return None


def pos(p: Term) -> frozenset[Atom]:
    """Atoms occurring at positive (left-branch spine) positions of a basic form."""
    if isinstance(p, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(p, Cond) and isinstance(p.cond, AtomTerm):
        return frozenset({p.cond.atom}) | pos(p.left)
    raise ValueError("pos is defined on basic forms only")


def neg(p: Term) -> frozenset[Atom]:
    """Atoms occurring at negative (right-branch spine) positions of a basic form."""
    if isinstance(p, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(p, Cond) and isinstance(p.cond, AtomTerm):
        return frozenset({p.cond.atom}) | neg(p.right)
    raise ValueError("neg is defined on basic forms only")


def _rp_child_ok(child: Term, a: Atom) -> bool:
    # A child of a central atom a must either not test a centrally, or be of
    # the and-then shape a o P' (identical branches).
    ca = central_atom(child)
    if ca != a:
        return True
    assert isinstance(child, Cond)
    return child.left == child.right


# The "checked" bit of each main-chain variety in ``Cond._kb``; the bit
# above it records the verdict.
_KB_CHECKED = {k: 1 << (2 * i) for i, k in enumerate(MAIN_CHAIN)}


def is_k_basic(t: Term, k: Variety) -> bool:
    """True iff ``t`` is a k-basic (canonical-shape) form for the given variety."""
    bit = _KB_CHECKED.get(k)
    if bit is None or not isinstance(t, Cond):
        return _is_k_basic(t, k)
    kb = t._kb
    if not kb & bit:
        kb |= bit | (bit << 1 if _is_k_basic(t, k) else 0)
        _set(t, "_kb", kb)
    return bool(kb & (bit << 1))


def _is_k_basic(t: Term, k: Variety) -> bool:
    # The grammar of the k-basic forms; children are checked through the
    # memoizing ``is_k_basic``.
    if not is_basic(t):
        return False
    if k == Variety.FR:
        return True
    if k == Variety.RP:
        if isinstance(t, Cond):
            a = t.cond.atom  # type: ignore[union-attr]
            return (
                _rp_child_ok(t.left, a)
                and _rp_child_ok(t.right, a)
                and is_k_basic(t.left, k)
                and is_k_basic(t.right, k)
            )
        return True
    if k == Variety.CR:
        if isinstance(t, Cond):
            a = t.cond.atom  # type: ignore[union-attr]
            return (
                central_atom(t.left) != a
                and central_atom(t.right) != a
                and is_k_basic(t.left, k)
                and is_k_basic(t.right, k)
            )
        return True
    if k == Variety.WM:
        if isinstance(t, Cond):
            a = t.cond.atom  # type: ignore[union-attr]
            return (
                a not in pos(t.left)
                and a not in neg(t.right)
                and is_k_basic(t.left, k)
                and is_k_basic(t.right, k)
            )
        return True
    if k == Variety.MEM:
        if isinstance(t, Cond):
            a = t.cond.atom  # type: ignore[union-attr]
            return (
                a not in atoms(t.left)
                and a not in atoms(t.right)
                and is_k_basic(t.left, k)
                and is_k_basic(t.right, k)
            )
        return True
    if k == Variety.ST:
        return _is_full_tree(t, sorted(atoms(t)))
    raise ValueError(f"no basic-form grammar for variety {k}")


def _is_full_tree(t: Term, level_atoms: list[Atom]) -> bool:
    if not level_atoms:
        return isinstance(t, (TrueConst, FalseConst))
    if not isinstance(t, Cond):
        return False
    if central_atom(t) != level_atoms[0]:
        return False
    rest = level_atoms[1:]
    return _is_full_tree(t.left, rest) and _is_full_tree(t.right, rest)


@lru_cache(maxsize=None)
def enumerate_basic_forms(names: tuple[str, ...], max_depth: int) -> tuple[Term, ...]:
    """All basic forms of depth <= max_depth over the given atom names.

    Deterministic order: by depth bound recursion, constants first, atoms in
    the given order, then left/right subform combinations.
    """
    if max_depth == 0:
        return (TRUE, FALSE)
    smaller = enumerate_basic_forms(names, max_depth - 1)
    out: list[Term] = [TRUE, FALSE]
    for name in names:
        a = atom(name)
        for left in smaller:
            for right in smaller:
                out.append(Cond(left, a, right))
    return tuple(out)
