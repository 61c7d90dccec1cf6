"""Lazy quantification over all valuation tables of a variety.

Explicitly enumerating all depth-d tables is hopeless (their number is doubly
exponential), but an evaluation only ever consults the replies along its own
trace.  This module therefore walks the space of tables as a DFS over reply
choices: a table state is a canonical history of (atom, reply) pairs, the
variety's laws determine which replies are forced by the history, and every
unforced reply is a free parameter keyed by (history, atom).  Assigning the
free parameters in all ways visits exactly one representative scenario per
distinguishable table behaviour, so universal and existential statements about
"all tables of the variety at depth d" can be decided without materializing
any table.

The state transition rules per variety:

  fr      nothing forced; every state distinct.
  rp      re-querying the immediately preceding atom repeats its reply
          (the residual still advances).
  cr      as rp, but the repeated query also leaves the state unchanged.
  wm      a re-query of ``a`` is absorbed (reply repeated, state unchanged)
          while all replies since the last query of ``a`` are equal to it.
  mem     a re-query of ``a`` is always absorbed.
  st      replies depend on the queried atom only; the state never changes.
  pmem    a T reply to ``a`` forces T on every later query of ``a``.
  nmem    dually with F.
  crpmem and friends: the two component rules combined.

Correctness of these rules against the string-level variety constraints is
cross-validated in the test suite by exhaustive comparison with explicitly
enumerated tables at small depth.

``compare_terms`` decides value equality and residual equality in one DFS:
a value mismatch ends the walk, and the first residual mismatch is only
recorded (a later value mismatch still decides), after which the walk checks
values alone.  The oracle is the independent check of the canonical forms in
``congruence``, so it reads no normal form.  The walks are recursive; a term
nested too deeply for Python's recursion limit raises ``NestingDepthError``.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Optional

from .errors import BudgetExceededError, DepthExhaustedError, NestingDepthError
from .terms import Atom, AtomTerm, Cond, FalseConst, Term, TrueConst, Variety

Hist = tuple[tuple[str, bool], ...]

ORACLE_BUDGET = 10**9


def _resolve(k: Variety, hist: Hist, name: str):
    """Classify the next query of ``name`` in state ``hist``.

    Returns ``(forced_value, key)`` where exactly one of the two is not None:
    either the history forces the reply, or the reply is the free parameter
    identified by ``key``.
    """
    if k == Variety.FR:
        return None, (hist, name)
    if k == Variety.RP or k == Variety.CR:
        if hist and hist[-1][0] == name:
            return hist[-1][1], None
        return None, (hist, name)
    if k == Variety.WM:
        for j in range(len(hist) - 1, -1, -1):
            if hist[j][0] == name:
                v = hist[j][1]
                if all(entry[1] == v for entry in hist[j + 1 :]):
                    return v, None
                break
        return None, (hist, name)
    if k == Variety.MEM:
        for entry in hist:
            if entry[0] == name:
                return entry[1], None
        return None, (hist, name)
    if k == Variety.ST:
        return None, (name,)
    if k == Variety.PMEM:
        if (name, True) in hist:
            return True, None
        return None, (hist, name)
    if k == Variety.NMEM:
        if (name, False) in hist:
            return False, None
        return None, (hist, name)
    if k in (Variety.CR_PMEM, Variety.CR_NMEM):
        if hist and hist[-1][0] == name:
            return hist[-1][1], None
        kept = k == Variety.CR_PMEM
        if (name, kept) in hist:
            return kept, None
        return None, (hist, name)
    if k in (Variety.WM_PMEM, Variety.WM_NMEM):
        forced, key = _resolve(Variety.WM, hist, name)
        if forced is not None:
            return forced, None
        kept = k == Variety.WM_PMEM
        if (name, kept) in hist:
            return kept, None
        return None, (hist, name)
    raise ValueError(f"unsupported variety: {k}")


def _summary(k: Variety, hist: Hist):
    """What ``_resolve`` and ``_advance`` read of ``hist`` once every free
    reply below it takes one default value.

    Two histories with equal summaries force the same replies to every
    query sequence; their free replies differ only in their keys, which
    matters only where a key may be assigned.  Each case mirrors the
    matching branch of ``_resolve``: rp and cr read the last entry, mem the
    set of entries, pmem and nmem the entries carrying the kept reply,
    crpmem and crnmem both of these, and the wm family the whole history.
    ``materialize_table`` shares the default-completed subtrees on this
    value.
    """
    if k == Variety.FR or k == Variety.ST:
        return ()
    if k == Variety.RP or k == Variety.CR:
        return hist[-1:]
    if k == Variety.MEM:
        return frozenset(hist)
    if k in (Variety.PMEM, Variety.NMEM, Variety.CR_PMEM, Variety.CR_NMEM):
        kept = k in (Variety.PMEM, Variety.CR_PMEM)
        marked = frozenset(entry for entry in hist if entry[1] == kept)
        return marked if k in (Variety.PMEM, Variety.NMEM) else (hist[-1:], marked)
    return hist


def _advance(k: Variety, hist: Hist, name: str, value: bool, forced: bool) -> Hist:
    """The state after the query (forced re-queries may be absorbed)."""
    if k == Variety.ST:
        return hist
    if forced:
        if k in (Variety.RP, Variety.PMEM, Variety.NMEM):
            return hist + ((name, value),)
        if k in (Variety.CR, Variety.WM, Variety.MEM):
            return hist
        if k in (Variety.CR_PMEM, Variety.CR_NMEM):
            if hist and hist[-1][0] == name:
                return hist
            return hist + ((name, value),)
        if k in (Variety.WM_PMEM, Variety.WM_NMEM):
            if _resolve(Variety.WM, hist, name)[0] is not None:
                return hist
            return hist + ((name, value),)
        # fr never forces
        raise AssertionError
    return hist + ((name, value),)


class _Ctx:
    __slots__ = ("variety", "names", "depth", "assign", "steps", "budget", "witness")

    def __init__(self, variety: Variety, names: tuple[str, ...], depth: int, budget: int):
        self.variety = variety
        self.names = names
        self.depth = depth
        self.assign: dict = {}
        self.steps = 0
        self.budget = budget
        self.witness: Optional[dict] = None

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError(f"oracle step budget {self.budget} exhausted")


def _query(ctx: _Ctx, hist: Hist, name: str, n: int, forall: bool, cont) -> bool:
    ctx.tick()
    if n >= ctx.depth:
        raise DepthExhaustedError("evaluation needs more queries than the oracle depth")
    forced, key = _resolve(ctx.variety, hist, name)
    if forced is not None:
        return cont(forced, _advance(ctx.variety, hist, name, forced, True), n + 1)
    if key in ctx.assign:
        v = ctx.assign[key]
        return cont(v, _advance(ctx.variety, hist, name, v, False), n + 1)
    for v in (True, False):
        ctx.assign[key] = v
        ok = cont(v, _advance(ctx.variety, hist, name, v, False), n + 1)
        del ctx.assign[key]
        if forall and not ok:
            return False
        if not forall and ok:
            return True
    return forall


def _eval(ctx: _Ctx, t: Term, hist: Hist, n: int, forall: bool, cont) -> bool:
    if isinstance(t, Cond):

        def after_cond(v: bool, h: Hist, m: int, _t=t) -> bool:
            return _eval(ctx, _t.left if v else _t.right, h, m, forall, cont)

        c = t.cond
        if isinstance(c, AtomTerm):
            # The common case (every node of a basic form): query directly.
            return _query(ctx, hist, c.atom.name, n, forall, after_cond)
        return _eval(ctx, c, hist, n, forall, after_cond)
    if isinstance(t, TrueConst):
        return cont(True, hist, n)
    if isinstance(t, FalseConst):
        return cont(False, hist, n)
    if isinstance(t, AtomTerm):
        return _query(ctx, hist, t.atom.name, n, forall, cont)
    raise TypeError(f"not a core term: {t!r}")


def _walk(ctx: _Ctx, t: Term, forall: bool, cont) -> bool:
    """``_eval`` of ``t`` from the empty history, with Python's recursion
    limit reported as ``NestingDepthError``."""
    try:
        return _eval(ctx, t, (), 0, forall, cont)
    except RecursionError:
        raise NestingDepthError("term nested too deeply for the oracle's recursive walk") from None


def _determined(ctx: _Ctx, hist: Hist, name: str):
    """Resolve a query against laws and already-assigned parameters.

    Returns (value, key, forced_by_law); value is None when the reply is a
    still-unassigned free parameter (then key identifies it).
    """
    forced, key = _resolve(ctx.variety, hist, name)
    if forced is not None:
        return forced, None, True
    if key in ctx.assign:
        return ctx.assign[key], None, False
    return None, key, False


def _residuals_eq(ctx: _Ctx, h1: Hist, h2: Hist, rem: int) -> bool:
    """True iff every table completion gives the two states identical reply
    behaviour on all extensions of length <= rem."""
    if rem <= 0 or h1 == h2:
        return True
    k = ctx.variety
    for name in ctx.names:
        ctx.tick()
        v1, key1, law1 = _determined(ctx, h1, name)
        v2, key2, law2 = _determined(ctx, h2, name)
        if v1 is not None and v2 is not None:
            if v1 != v2:
                return False
            n1 = _advance(k, h1, name, v1, law1)
            n2 = _advance(k, h2, name, v2, law2)
            if not _residuals_eq(ctx, n1, n2, rem - 1):
                return False
        elif v1 is None and v2 is None:
            if key1 != key2:
                return False
            for v in (True, False):
                ctx.assign[key1] = v
                ok = _residuals_eq(
                    ctx,
                    _advance(k, h1, name, v, False),
                    _advance(k, h2, name, v, False),
                    rem - 1,
                )
                del ctx.assign[key1]
                if not ok:
                    return False
        else:
            # Determined on one side, free on the other: a completion that
            # sets the free parameter to the opposite value distinguishes.
            return False
    return True


def compare_terms(
    p: Term,
    q: Term,
    k: Variety,
    alphabet: tuple[Atom, ...],
    depth: int,
    residuals: bool,
    budget: int = ORACLE_BUDGET,
) -> str:
    """Compare two terms over every variety table at the given depth.

    Returns ``"congruent"`` when values (and, if requested, residuals after
    the evaluation traces) agree for every table; ``"value"`` when some table
    gives different values; ``"derivative"`` when values always agree but some
    table leaves distinguishable residuals.

    One DFS over the tables decides all three.  A value mismatch at a leaf
    ends it with ``"value"``.  With ``residuals``, leaves also compare the
    two residual states until the first leaf where they differ; that
    mismatch is recorded and the DFS goes on checking values only, since a
    later value mismatch still makes the verdict ``"value"``.  The DFS
    visits the same scenarios in the same order either way, so the verdict
    is that of a value pass followed by a residual pass.  The step budget
    bounds this one pass.
    """
    names = tuple(a.name for a in alphabet)
    ctx = _Ctx(k, names, depth, budget)
    mismatch = False  # a leaf with equal values left distinguishable residuals

    def after_p(v1: bool, h1: Hist, n1: int) -> bool:
        def leaf(v2: bool, h2: Hist, n2: int) -> bool:
            nonlocal mismatch
            if v1 != v2:
                return False
            if residuals and not mismatch and not _residuals_eq(ctx, h1, h2, ctx.depth - max(n1, n2)):
                mismatch = True
            return True

        return _eval(ctx, q, (), 0, True, leaf)

    if not _walk(ctx, p, True, after_p):
        return "value"
    return "derivative" if mismatch else "congruent"


def satisfying_assignment(
    p: Term,
    k: Variety,
    alphabet: tuple[Atom, ...],
    depth: int,
    target: bool,
    budget: int = ORACLE_BUDGET,
) -> Optional[dict]:
    """A free-parameter assignment under which p evaluates to target, or None.

    The first witness in the deterministic DFS order (T branches first).
    """
    names = tuple(a.name for a in alphabet)
    ctx = _Ctx(k, names, depth, budget)

    def leaf(v: bool, h: Hist, n: int) -> bool:
        if v == target:
            ctx.witness = dict(ctx.assign)
            return True
        return False

    found = _walk(ctx, p, False, leaf)
    return ctx.witness if found else None


def sat_fal_search(
    p: Term,
    k: Variety,
    alphabet: tuple[Atom, ...],
    depth: int,
    budget: int = ORACLE_BUDGET,
) -> tuple[Optional[dict], bool]:
    """``satisfying_assignment`` for T, and whether some assignment gives F.

    One DFS in the order of ``satisfying_assignment`` keeps the first T
    witness and stops once it has seen both values.  It visits what the two
    single-target searches visit together, so its steps are the larger of
    theirs and ``budget`` runs out on the same inputs.
    """
    names = tuple(a.name for a in alphabet)
    ctx = _Ctx(k, names, depth, budget)
    falsifiable = False

    def leaf(v: bool, h: Hist, n: int) -> bool:
        nonlocal falsifiable
        if not v:
            falsifiable = True
        elif ctx.witness is None:
            ctx.witness = dict(ctx.assign)
        return falsifiable and ctx.witness is not None

    _walk(ctx, p, False, leaf)
    return ctx.witness, falsifiable


def _levels(
    k: Variety,
    names: tuple[str, ...],
    live: Optional[set],
    assign: dict,
    default: bool,
    memo: dict,
    hist: Hist,
    r: int,
) -> tuple:
    """The reply levels of the subtree of ``materialize_table`` below
    ``hist``, ``r`` levels deep; ``memo`` is local to one table."""
    if live is None or hist in live:
        key = (True, hist, r)
    else:
        key = (False, _summary(k, hist), r)
    out = memo.get(key)
    if out is not None:
        return out
    own = []
    below = []
    for name in names:
        forced, fkey = _resolve(k, hist, name)
        v = assign.get(fkey, default) if forced is None else forced
        own.append(v)
        if r > 1:
            nxt = _advance(k, hist, name, v, forced is not None)
            below.append(_levels(k, names, live, assign, default, memo, nxt, r - 1))
    out = (tuple(own),) + tuple(
        tuple(chain.from_iterable(sub[j] for sub in below)) for j in range(r - 1)
    )
    memo[key] = out
    return out


def materialize_table(
    k: Variety,
    alphabet: tuple[Atom, ...],
    depth: int,
    assign: dict,
    default: bool = True,
):
    """Complete a partial free-parameter assignment into an explicit table.

    Unassigned free parameters take the default reply; forced replies follow
    the variety's laws, so the result is always a member of the variety.

    The table is built as a reply tree: the node of a history holds the
    replies to each next query and, below them, the subtrees of the
    histories those replies lead to.  A node is *live* when its history is a
    prefix of the history of some assigned key: only there can a reply read
    ``assign``, so live subtrees are computed per exact history.  Below every
    other node each free reply is the default, and the subtree is fixed by
    ``_summary`` of its history and the remaining depth, so each distinct
    default-completed subtree is computed once and shared (a unique table
    over the reply tree, local to the call).  The memo key tags the region,
    because a live history and a summary may be equal as values.  A subtree
    is kept as one tuple of replies per level, in ``itertools.product``
    order of the query strings below it, which is the order the levels of
    the whole table are emitted in.
    """
    from .valuation import ValuationTable

    alphabet = tuple(sorted(alphabet))
    names = tuple(a.name for a in alphabet)
    # Under st the replies depend on the atom alone: every node is live.
    live = None if k == Variety.ST else {h[:i] for h, _ in assign for i in range(len(h) + 1)}
    replies: dict = {}
    for n, level in enumerate(_levels(k, names, live, assign, default, {}, (), depth), 1):
        replies.update(zip(product(names, repeat=n), level))
    return ValuationTable(alphabet, depth, replies)


def _first_unassigned_key(
    k: Variety, names: tuple[str, ...], depth: int, assign: dict, hist: Hist, n: int
):
    """The first free key below ``hist`` (``n`` queries deep) that
    ``assign`` leaves unassigned, in DFS order, or None."""
    if n == depth:
        return None
    for name in names:
        forced, key = _resolve(k, hist, name)
        if forced is not None:
            nxt = _advance(k, hist, name, forced, True)
        elif key not in assign:
            return key
        else:
            nxt = _advance(k, hist, name, assign[key], False)
        missing = _first_unassigned_key(k, names, depth, assign, nxt, n + 1)
        if missing is not None:
            return missing
    return None


def _completions(
    k: Variety, alphabet: tuple[Atom, ...], names: tuple[str, ...], depth: int, assign: dict
):
    """Yield the table of every completion of ``assign``, T replies first."""
    missing = _first_unassigned_key(k, names, depth, assign, (), 0)
    if missing is None:
        yield materialize_table(k, alphabet, depth, assign)
        return
    for v in (True, False):
        assign[missing] = v
        yield from _completions(k, alphabet, names, depth, assign)
        del assign[missing]


def generate_tables(k: Variety, alphabet: tuple[Atom, ...], depth: int):
    """Yield every distinct variety table at the given depth via the state model.

    Exponential; intended for small cross-validation sweeps in tests.
    """
    names = tuple(a.name for a in sorted(alphabet))
    yield from _completions(k, alphabet, names, depth, {})
