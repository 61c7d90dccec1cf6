"""Projections, projective sequences, and linear recursive specifications.

A statement of infinite depth never exists as a completed object here; it is
represented by the stream of its finite projections, generated either from a
finite linear specification or from an indexed (lazily infinite) one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .congruence import basic_form
from .errors import BudgetExceededError, SyntaxValidationError
from .terms import (
    FALSE,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    depth,
)
from .valuation import ValuationTable

# ---------------------------------------------------------------------------
# Projections


def project(n: int, t: Term) -> Term:
    """The depth-n projection of t, as a basic form.

    Truncation keeps the first n query levels: a single level of a conditional
    is the bare test of its central atom.
    """
    if n < 1:
        raise ValueError("projection levels start at 1")
    return _project_bf(n, basic_form(t))


def _project_bf(n: int, bf: Term) -> Term:
    if isinstance(bf, (TrueConst, FalseConst)):
        return bf
    assert isinstance(bf, Cond)
    if n == 1:
        return Cond(TRUE, bf.cond, FALSE)
    return Cond(_project_bf(n - 1, bf.left), bf.cond, _project_bf(n - 1, bf.right))


def is_projective(levels: Sequence[Term]) -> bool:
    """True iff each level is the projection of the next."""
    if not levels:
        raise ValueError("a projective sequence has at least one level")
    forms = [basic_form(p) for p in levels]
    return all(project(m, forms[m]) == forms[m - 1] for m in range(1, len(forms)))


def seq_cond(
    p_levels: Sequence[Term], q_levels: Sequence[Term], r_levels: Sequence[Term]
) -> list[Term]:
    """Componentwise conditional composition of projective sequences."""
    if not len(p_levels) == len(q_levels) == len(r_levels):
        raise ValueError("projective sequences must have equal lengths")
    return [
        project(n, Cond(p, q, r))
        for n, (p, q, r) in enumerate(zip(p_levels, q_levels, r_levels), start=1)
    ]


# ---------------------------------------------------------------------------
# Linear specifications


@dataclass(frozen=True)
class CondRhs:
    """Right-hand side X_then <| atom |> X_else."""

    then_var: str
    atom: Atom
    else_var: str


Rhs = Union[TrueConst, FalseConst, CondRhs]

_VAR_RE = re.compile(r"X[A-Za-z0-9_]*")


@dataclass(frozen=True)
class LinearSpec:
    """A guarded system X_i = T | F | X_j <| a |> X_k, one equation each."""

    variables: tuple[str, ...]
    equations: dict[str, Rhs]

    def __post_init__(self) -> None:
        if not self.variables:
            raise SyntaxValidationError("a linear specification declares at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise SyntaxValidationError("duplicate variable declaration")
        if set(self.variables) != set(self.equations):
            raise SyntaxValidationError("exactly one equation per declared variable required")
        for name in self.variables:
            if not _VAR_RE.fullmatch(name):
                raise SyntaxValidationError(f"invalid variable name {name!r}")
            rhs = self.equations[name]
            if isinstance(rhs, CondRhs):
                for ref in (rhs.then_var, rhs.else_var):
                    if ref not in self.equations:
                        raise SyntaxValidationError(f"undeclared variable {ref!r} referenced")

    @property
    def start(self) -> str:
        return self.variables[0]


@dataclass(frozen=True)
class IndexedSpec:
    """An infinite family X_i = rhs(i); rhs refers to variables by index."""

    rule: Callable[[int], Union[TrueConst, FalseConst, tuple[int, Atom, int]]]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def primes_spec() -> IndexedSpec:
    """The built-in indexed specification whose atom at level i is a when i is
    prime and b otherwise (both branches continue with X_{i+1})."""
    a, b = Atom("a"), Atom("b")

    def rule(i: int) -> tuple[int, Atom, int]:
        return (i + 1, a if _is_prime(i) else b, i + 1)

    return IndexedSpec(rule)


BUILTIN_SPECS: dict[str, Callable[[], IndexedSpec]] = {"@primes": primes_spec}

UNFOLD_BUDGET = 10**6


def _unfold(lookup, budget: int, memo: dict[tuple, Term], v, m: int) -> Term:
    """The depth-m projection of variable v; ``memo`` is local to one
    ``unfold_projection`` call and counts against ``budget``."""
    key = (v, m)
    if key in memo:
        return memo[key]
    if len(memo) >= budget:
        raise BudgetExceededError(f"unfolding budget {budget} exhausted")
    rhs = lookup(v)
    if isinstance(rhs, (TrueConst, FalseConst)):
        out: Term = rhs
    else:
        if isinstance(rhs, CondRhs):
            then_ref, atm, else_ref = rhs.then_var, rhs.atom, rhs.else_var
        else:
            then_ref, atm, else_ref = rhs
        if m == 1:
            out = Cond(TRUE, AtomTerm(atm), FALSE)
        else:
            out = Cond(
                _unfold(lookup, budget, memo, then_ref, m - 1),
                AtomTerm(atm),
                _unfold(lookup, budget, memo, else_ref, m - 1),
            )
    memo[key] = out
    return out


def unfold_projection(
    spec: Union[LinearSpec, IndexedSpec],
    var: Union[str, int],
    n: int,
    budget: int = UNFOLD_BUDGET,
) -> Term:
    """The depth-n projection of the statement defined by var, as a basic form.

    Every non-constant right-hand side is guarded by an atom, so n rounds of
    substitution determine the first n levels exactly.
    """
    if n < 1:
        raise ValueError("projection levels start at 1")
    if isinstance(spec, LinearSpec):
        if var not in spec.equations:
            raise SyntaxValidationError(f"undeclared variable {var!r}")
        lookup = spec.equations.__getitem__
    else:
        lookup = spec.rule
    out = _unfold(lookup, budget, {}, var, n)
    assert depth(out) <= n, "unfolding exceeded its projection level"
    return out


@dataclass(frozen=True)
class ProjectiveApprox:
    spec: Union[LinearSpec, IndexedSpec]
    variable: Union[str, int]
    levels: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not is_projective(self.levels):
            raise ValueError("levels do not form a projective sequence")


def approximants(
    spec: Union[LinearSpec, IndexedSpec], var: Union[str, int], n: int
) -> ProjectiveApprox:
    """The first n projections of the statement defined by var."""
    levels = tuple(unfold_projection(spec, var, m) for m in range(1, n + 1))
    return ProjectiveApprox(spec, var, levels)


# ---------------------------------------------------------------------------
# Operational evaluation


def eval_spec(
    spec: Union[LinearSpec, IndexedSpec],
    var: Union[str, int],
    h: ValuationTable,
    fuel: int,
) -> str:
    """Run the defined statement against a valuation: 'T', 'F', or 'diverged'.

    Each conditional equation consumes one query; fuel bounds the total.
    """
    if isinstance(spec, LinearSpec):
        if var not in spec.equations:
            raise SyntaxValidationError(f"undeclared variable {var!r}")
        lookup = spec.equations.__getitem__
    else:
        lookup = spec.rule
    sigma: tuple[str, ...] = ()
    current = var
    for _ in range(fuel + 1):
        rhs = lookup(current)
        if isinstance(rhs, TrueConst):
            return "T"
        if isinstance(rhs, FalseConst):
            return "F"
        if len(sigma) == fuel:
            break
        if isinstance(rhs, CondRhs):
            then_ref, atm, else_ref = rhs.then_var, rhs.atom, rhs.else_var
        else:
            then_ref, atm, else_ref = rhs
        sigma = sigma + (atm.name,)
        current = then_ref if h.reply(sigma) else else_ref
    return "diverged"


# ---------------------------------------------------------------------------
# Spec file format


_EQ_RE = re.compile(r"^(X[A-Za-z0-9_]*)\s*=\s*(.+)$")
_COND_RE = re.compile(
    r"^(X[A-Za-z0-9_]*)\s*<\|\s*([a-z][a-z0-9_]*)\s*\|>\s*(X[A-Za-z0-9_]*)$"
)
_THEN_RE = re.compile(r"^([a-z][a-z0-9_]*)\s+then\s+(X[A-Za-z0-9_]*)$")


def load_spec(text: str) -> LinearSpec:
    """Parse the one-equation-per-line format ('#' starts a comment)."""
    variables: list[str] = []
    equations: dict[str, Rhs] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _EQ_RE.match(line)
        if not m:
            raise SyntaxValidationError(f"line {lineno}: expected 'Xname = rhs'")
        name, rhs_text = m.group(1), m.group(2).strip()
        if name in equations:
            raise SyntaxValidationError(f"line {lineno}: duplicate equation for {name}")
        rhs: Rhs
        if rhs_text == "T":
            rhs = TRUE
        elif rhs_text == "F":
            rhs = FALSE
        elif cm := _COND_RE.match(rhs_text):
            rhs = CondRhs(cm.group(1), Atom(cm.group(2)), cm.group(3))
        elif tm := _THEN_RE.match(rhs_text):
            # a then Xj abbreviates Xj <| a |> Xj
            rhs = CondRhs(tm.group(2), Atom(tm.group(1)), tm.group(2))
        else:
            raise SyntaxValidationError(
                f"line {lineno}: right-hand side must be T, F, 'Xj <| a |> Xk', or 'a then Xj'"
            )
        variables.append(name)
        equations[name] = rhs
    return LinearSpec(tuple(variables), equations)


def dump_spec(spec: LinearSpec) -> str:
    """Serialize in the load_spec line format."""
    lines = []
    for name in spec.variables:
        rhs = spec.equations[name]
        if isinstance(rhs, (TrueConst, FalseConst)):
            lines.append(f"{name} = {rhs}")
        else:
            lines.append(f"{name} = {rhs.then_var} <| {rhs.atom.name} |> {rhs.else_var}")
    return "\n".join(lines) + "\n"


__all__ = [
    "project",
    "is_projective",
    "seq_cond",
    "CondRhs",
    "LinearSpec",
    "IndexedSpec",
    "primes_spec",
    "BUILTIN_SPECS",
    "unfold_projection",
    "ProjectiveApprox",
    "approximants",
    "eval_spec",
    "load_spec",
    "dump_spec",
    "UNFOLD_BUDGET",
]
