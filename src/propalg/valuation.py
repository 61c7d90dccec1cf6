"""Depth-bounded valuation tables: the executable semantic oracle.

A valuation is represented extensionally by its string function, mapping each
non-empty query string (a tuple of atom names, length <= obs_depth) to the
reply its last query receives.  Residuals (derivatives) are string shifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    AlphabetError,
    BudgetExceededError,
    DepthExhaustedError,
    SyntaxValidationError,
)
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    Term,
    TrueConst,
    Variety,
    atoms,
)

TABLE_BUDGET = 2**20

Sigma = tuple[str, ...]


def _all_strings(names: tuple[str, ...], max_len: int) -> list[Sigma]:
    out: list[Sigma] = []
    for length in range(1, max_len + 1):
        out.extend(itertools.product(names, repeat=length))
    return out


@dataclass(frozen=True)
class ValuationTable:
    """A total reply table over non-empty atom strings of bounded length."""

    alphabet: tuple[Atom, ...]
    obs_depth: int
    replies: Mapping[Sigma, bool]

    def __post_init__(self) -> None:
        if self.obs_depth < 1:
            raise ValueError("obs_depth must be >= 1")
        expected = _all_strings(self.names, self.obs_depth)
        missing = [s for s in expected if s not in self.replies]
        if missing:
            raise ValueError(f"table is not total; first missing string: {missing[0]}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.alphabet)

    def reply(self, sigma: Sigma) -> bool:
        if len(sigma) > self.obs_depth:
            raise DepthExhaustedError(f"query string longer than depth {self.obs_depth}: {sigma}")
        try:
            return self.replies[sigma]
        except KeyError:
            raise AlphabetError(f"string {sigma} uses atoms outside {self.names}") from None

    def residual(self, sigma: Sigma) -> "ValuationTable":
        """The table after answering the queries in ``sigma`` (the derivative)."""
        if len(sigma) >= self.obs_depth:
            raise DepthExhaustedError(
                f"no residual at depth {self.obs_depth} for string of length {len(sigma)}"
            )
        if not sigma:
            return self
        for name in sigma:
            if name not in self.names:
                raise AlphabetError(f"atom {name!r} outside alphabet {self.names}")
        depth = self.obs_depth - len(sigma)
        replies = {
            tau: self.replies[sigma + tau] for tau in _all_strings(self.names, depth)
        }
        return ValuationTable(self.alphabet, depth, replies)

    def strings(self) -> list[Sigma]:
        return _all_strings(self.names, self.obs_depth)


def table_from_fn(alphabet: Iterable[Atom], obs_depth: int, fn) -> ValuationTable:
    """Build a table by calling ``fn(sigma) -> bool`` for every string."""
    alphabet = tuple(sorted(set(alphabet)))
    names = tuple(a.name for a in alphabet)
    replies = {s: bool(fn(s)) for s in _all_strings(names, obs_depth)}
    return ValuationTable(alphabet, obs_depth, replies)


def constant_table(alphabet: Iterable[Atom], obs_depth: int, value: bool) -> ValuationTable:
    """The all-T (or all-F) valuation."""
    return table_from_fn(alphabet, obs_depth, lambda s: value)


def static_table(assignment: Mapping[Atom, bool], obs_depth: int) -> ValuationTable:
    """The static valuation of a classical assignment: each reply depends only
    on the queried atom."""
    by_name = {a.name: v for a, v in assignment.items()}
    return table_from_fn(assignment.keys(), obs_depth, lambda s: by_name[s[-1]])


@dataclass(frozen=True)
class EvalResult:
    value: bool
    trace: Sigma


def evaluate(p: Term, h: ValuationTable) -> EvalResult:
    """Evaluate a core term over a table.

    Implements the mutual recursion of evaluation and derivative: a
    conditional first evaluates its central argument, then continues in the
    residual valuation with the branch selected by the reply.
    """
    term_atoms = {a.name for a in atoms(p)}
    if not term_atoms <= set(h.names):
        raise AlphabetError(f"term atoms {sorted(term_atoms)} not within alphabet {h.names}")
    value, trace = _eval(p, h, ())
    return EvalResult(value, trace)


def _eval(p: Term, h: ValuationTable, prefix: Sigma) -> tuple[bool, Sigma]:
    if isinstance(p, TrueConst):
        return True, prefix
    if isinstance(p, FalseConst):
        return False, prefix
    if isinstance(p, AtomTerm):
        if len(prefix) >= h.obs_depth:
            raise DepthExhaustedError("term deeper than the table's observable depth")
        sigma = prefix + (p.atom.name,)
        return h.reply(sigma), sigma
    if isinstance(p, Cond):
        cond_value, sigma = _eval(p.cond, h, prefix)
        branch = p.left if cond_value else p.right
        return _eval(branch, h, sigma)
    raise TypeError(f"not a core term: {p!r}")


# ---------------------------------------------------------------------------
# Variety membership (string-level constraints at every reachable prefix)


def _residuals_match(h: ValuationTable, s1: Sigma, s2: Sigma) -> bool:
    """Reply agreement on every common extension of the two strings."""
    rem = h.obs_depth - max(len(s1), len(s2))
    if rem <= 0:
        return True
    for tau in _all_strings(h.names, rem):
        if h.replies[s1 + tau] != h.replies[s2 + tau]:
            return False
    return True


def in_variety(h: ValuationTable, k: Variety) -> bool:
    """Check the variety's string-level constraints at every reachable prefix."""
    checks = {
        Variety.FR: (),
        Variety.RP: ("rp",),
        Variety.CR: ("rp", "cr"),
        Variety.WM: ("rp", "cr", "wm"),
        Variety.MEM: ("rp", "cr", "mem"),
        Variety.ST: ("st",),
        Variety.PMEM: ("pmem",),
        Variety.NMEM: ("nmem",),
        Variety.CR_PMEM: ("rp", "cr", "pmem"),
        Variety.WM_PMEM: ("rp", "cr", "wm", "pmem"),
        Variety.CR_NMEM: ("rp", "cr", "nmem"),
        Variety.WM_NMEM: ("rp", "cr", "wm", "nmem"),
    }[k]
    return all(_check_constraint(h, c) for c in checks)


def _check_constraint(h: ValuationTable, constraint: str) -> bool:
    names = h.names
    d = h.obs_depth
    strings = [()] + _all_strings(names, d)

    if constraint == "rp":
        # replies(sigma a a) = replies(sigma a)
        for s in strings:
            if len(s) + 2 > d:
                continue
            for a in names:
                if h.replies[s + (a, a)] != h.replies[s + (a,)]:
                    return False
        return True

    if constraint == "cr":
        # replies(sigma a a tau) = replies(sigma a tau)
        for w in _all_strings(names, d):
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    if h.replies[w] != h.replies[w[:i] + w[i + 1 :]]:
                        return False
        return True

    if constraint == "wm":
        for s in strings:
            if len(s) + 3 > d:
                continue
            for a in names:
                for b in names:
                    if h.replies[s + (a, b)] != h.replies[s + (a,)]:
                        continue
                    if h.replies[s + (a, b, a)] != h.replies[s + (a,)]:
                        return False
                    if not _residuals_match(h, s + (a, b, a), s + (a, b)):
                        return False
        return True

    if constraint == "mem":
        for s in strings:
            if len(s) + 3 > d:
                continue
            for a in names:
                for b in names:
                    if h.replies[s + (a, b, a)] != h.replies[s + (a,)]:
                        return False
                    if not _residuals_match(h, s + (a, b, a), s + (a, b)):
                        return False
        return True

    if constraint == "st":
        for w in _all_strings(names, d):
            if h.replies[w] != h.replies[(w[-1],)]:
                return False
        return True

    if constraint == "pmem":
        return _preservation(h, True)
    if constraint == "nmem":
        return _preservation(h, False)
    raise ValueError(constraint)


def _preservation(h: ValuationTable, kept: bool) -> bool:
    # A reply equal to ``kept`` for an atom is preserved by later queries.
    for w in _all_strings(h.names, h.obs_depth):
        a = w[-1]
        for i in range(len(w) - 1):
            if w[i] == a and h.replies[w[: i + 1]] == kept and h.replies[w] != kept:
                return False
    return True


def enumerate_tables(
    alphabet: Iterable[Atom], obs_depth: int, k: Variety, budget: int = TABLE_BUDGET
) -> Iterator[ValuationTable]:
    """All tables of the variety over the alphabet/depth, in deterministic order.

    Order: strings sorted by (length, lexicographic); assignments enumerated
    with T before F per string.
    """
    alphabet = tuple(sorted(set(alphabet)))
    names = tuple(a.name for a in alphabet)
    strings = _all_strings(names, obs_depth)
    if 2 ** len(strings) > budget:
        raise BudgetExceededError(
            f"{2 ** len(strings)} candidate tables exceed the budget of {budget}"
        )
    for bits in itertools.product((True, False), repeat=len(strings)):
        table = ValuationTable(alphabet, obs_depth, dict(zip(strings, bits)))
        if in_variety(table, k):
            yield table


def laws_hold(
    lhs: Term,
    rhs: Term,
    k: Variety,
    alphabet: Iterable[Atom],
    obs_depth: int,
) -> bool:
    """Soundness oracle: equal values and equal residuals-after-trace over every
    table of the variety at the given depth.

    Quantification over all tables is performed lazily (branching only on the
    replies an evaluation or a residual comparison actually consults), which
    decides exactly the same predicate as filtering ``enumerate_tables`` but
    scales to depths where explicit enumeration is impossible.
    """
    from .oracle import compare_terms

    alphabet = tuple(sorted(set(alphabet)))
    needed = atoms(lhs) | atoms(rhs)
    if not needed <= set(alphabet):
        raise AlphabetError("law atoms outside the supplied alphabet")
    from .terms import depth as term_depth

    if obs_depth < max(term_depth(lhs), term_depth(rhs)) + 1:
        raise DepthExhaustedError("obs_depth must exceed both term depths")
    return compare_terms(lhs, rhs, k, alphabet, obs_depth, residuals=True) == "congruent"


# ---------------------------------------------------------------------------
# Valuation file format


def load_valuation(text: str) -> ValuationTable:
    """Parse the line-based valuation file format.

    Either::

        atoms a b
        depth 2
        default T
        a.a -> F

    or the static shorthand::

        atoms a b
        depth 2
        static a=T b=F
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3:
        raise SyntaxValidationError("valuation file needs atoms, depth, and default/static lines")

    def fail(msg: str) -> SyntaxValidationError:
        return SyntaxValidationError(f"valuation file: {msg}")

    if not lines[0].startswith("atoms "):
        raise fail("first line must be 'atoms ...'")
    alphabet = tuple(sorted(Atom(n) for n in lines[0].split()[1:]))
    if not alphabet:
        raise fail("empty alphabet")
    if not lines[1].startswith("depth "):
        raise fail("second line must be 'depth N'")
    try:
        depth = int(lines[1].split()[1])
    except (IndexError, ValueError):
        raise fail("malformed depth line") from None

    if lines[2].startswith("static"):
        assignment: dict[Atom, bool] = {}
        for part in lines[2].split()[1:]:
            name, _, val = part.partition("=")
            if val not in ("T", "F"):
                raise fail(f"malformed static entry {part!r}")
            assignment[Atom(name)] = val == "T"
        missing = set(alphabet) - set(assignment)
        if missing:
            raise fail(f"static assignment missing atoms: {sorted(a.name for a in missing)}")
        if len(lines) > 3:
            raise fail("static shorthand admits no further entries")
        return static_table(assignment, depth)

    if lines[2] not in ("default T", "default F"):
        raise fail("third line must be 'default T|F' or 'static ...'")
    default = lines[2].endswith("T")
    names = tuple(a.name for a in alphabet)
    replies = {s: default for s in _all_strings(names, depth)}
    seen: set[Sigma] = set()
    for ln in lines[3:]:
        lhs, arrow, val = ln.rpartition("->")
        if not arrow or val.strip() not in ("T", "F"):
            raise fail(f"malformed entry {ln!r}")
        sigma = tuple(part.strip() for part in lhs.strip().split("."))
        if sigma in seen:
            raise fail(f"duplicate entry for {'.'.join(sigma)}")
        seen.add(sigma)
        if sigma not in replies:
            raise fail(f"entry {'.'.join(sigma)} outside alphabet/depth")
        replies[sigma] = val.strip() == "T"
    return ValuationTable(alphabet, depth, replies)


def dump_valuation(h: ValuationTable, default: bool = True) -> str:
    """Serialize a table in the valuation file format."""
    lines = [
        "atoms " + " ".join(h.names),
        f"depth {h.obs_depth}",
        f"default {'T' if default else 'F'}",
    ]
    for sigma in h.strings():
        if h.replies[sigma] != default:
            lines.append(f"{'.'.join(sigma)} -> {'T' if h.replies[sigma] else 'F'}")
    return "\n".join(lines) + "\n"
