"""The lazy table oracle, cross-validated against explicit enumeration."""

import gc
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from propalg.congruence import (
    basic_form,
    congruent_oracle,
    equal,
    equiv_oracle,
    normalization_report,
    normalize,
)
from propalg.errors import BudgetExceededError, DepthExhaustedError, NestingDepthError
from propalg.oracle import (
    ORACLE_BUDGET,
    _advance,
    _Ctx,
    _eval,
    _resolve,
    _residuals_eq,
    compare_terms,
    generate_tables,
    materialize_table,
    satisfying_assignment,
)
from propalg.projective import load_spec, primes_spec, unfold_projection
from propalg.sat import sat
from propalg.syntax import desugar, parse
from propalg.terms import (
    FALSE,
    TRUE,
    Atom,
    Cond,
    Variety,
    MAIN_CHAIN,
    atom,
    depth,
    enumerate_basic_forms,
)
from propalg.transform import is_monotest
from propalg.valuation import ValuationTable, enumerate_tables, evaluate, in_variety

A = Atom("a")
B = Atom("b")
AT = atom("a")
BT = atom("b")


def _table_key(h):
    return tuple(sorted(h.replies.items()))


@pytest.mark.parametrize("k", list(Variety))
def test_state_model_matches_explicit_enumeration_depth2(k):
    lazy = {_table_key(h) for h in generate_tables(k, (A, B), 2)}
    explicit = {_table_key(h) for h in enumerate_tables((A, B), 2, k)}
    assert lazy == explicit


@pytest.mark.parametrize(
    "k",
    [Variety.FR, Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST,
     Variety.PMEM, Variety.CR_PMEM, Variety.WM_NMEM],
)
def test_state_model_matches_explicit_enumeration_depth3(k):
    lazy = {_table_key(h) for h in generate_tables(k, (A, B), 3)}
    explicit = {_table_key(h) for h in enumerate_tables((A, B), 3, k)}
    assert lazy == explicit


def test_generated_tables_are_members_and_distinct():
    seen = set()
    for h in generate_tables(Variety.WM, (A, B), 3):
        assert in_variety(h, Variety.WM)
        key = _table_key(h)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 36


# --- compare_terms vs. brute force -----------------------------------------


class _BruteTables:
    """Every explicit k-table over the alphabet, enumerated once, with each
    term evaluated once per table and each residual's replies read once."""

    def __init__(self, k, alphabet, obs_depth):
        self.obs_depth = obs_depth
        self.tables = list(enumerate_tables(alphabet, obs_depth, k))
        self.runs = {}
        self.replies = {}

    def run(self, p):
        if p not in self.runs:
            self.runs[p] = [evaluate(p, h) for h in self.tables]
        return self.runs[p]

    def residual_replies(self, i, trace, rem):
        """The replies of table i's residual after trace to every string of
        length 1..rem, in order."""
        key = (i, trace, rem)
        if key not in self.replies:
            h = self.tables[i]
            d = h.residual(trace) if trace else h
            self.replies[key] = tuple(
                d.reply(tau)
                for tau in itertools.chain.from_iterable(
                    itertools.product(h.names, repeat=n) for n in range(1, rem + 1)
                )
            )
        return self.replies[key]


def _brute_verdict(p, q, brute):
    residual_ok = True
    for i, (r1, r2) in enumerate(zip(brute.run(p), brute.run(q))):
        if r1.value != r2.value:
            return "value"
        rem = brute.obs_depth - max(len(r1.trace), len(r2.trace))
        if rem > 0 and residual_ok:
            residual_ok = brute.residual_replies(i, r1.trace, rem) == brute.residual_replies(i, r2.trace, rem)
    return "congruent" if residual_ok else "derivative"


@pytest.mark.parametrize(
    "k", [Variety.FR, Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST]
)
def test_compare_terms_matches_brute_force(k):
    forms = enumerate_basic_forms(("a", "b"), 1)
    pairs = [(p, q) for p in forms for q in forms]
    brute = _BruteTables(k, (A, B), 3)
    for p, q in pairs:
        expected = _brute_verdict(p, q, brute)
        got = compare_terms(p, q, k, (A, B), 3, residuals=True)
        assert got == expected, (p, q, k)


def test_compare_terms_three_way_verdicts():
    aa = Cond(Cond(TRUE, AT, FALSE), AT, FALSE)
    # a and aa always take equal values under rp but differ in residual depth
    # under fr; at fr even the values differ.
    assert compare_terms(AT, aa, Variety.FR, (A,), 3, residuals=True) == "value"
    assert compare_terms(AT, aa, Variety.RP, (A,), 3, residuals=False) == "congruent"
    assert compare_terms(AT, aa, Variety.RP, (A,), 3, residuals=True) == "congruent"
    a_then_t = Cond(TRUE, AT, TRUE)
    # T and "a then T" always take the value T, but evaluating the right-hand
    # side consumes an a-query whose reply future queries can observe.
    assert compare_terms(TRUE, a_then_t, Variety.FR, (A,), 3, residuals=False) == "congruent"
    assert compare_terms(TRUE, a_then_t, Variety.FR, (A,), 3, residuals=True) == "derivative"
    # Statically the state never advances, so the pair is fully congruent.
    assert compare_terms(TRUE, a_then_t, Variety.ST, (A,), 3, residuals=True) == "congruent"


def _reference_compare(p, q, k, alphabet, obs_depth, residuals, budget=ORACLE_BUDGET, passes=None):
    """Reference for ``compare_terms``: a full value pass, then, when it
    passes and residuals are asked for, a second full pass that also checks
    residuals.  Each pass has its own step budget.  The context of each pass
    is appended to ``passes`` when it is given, for its step count."""
    names = tuple(a.name for a in alphabet)

    def run(check_residuals):
        ctx = _Ctx(k, names, obs_depth, budget)
        if passes is not None:
            passes.append(ctx)

        def after_p(v1, h1, n1):
            def leaf(v2, h2, n2):
                if v1 != v2:
                    return False
                if not check_residuals:
                    return True
                return _residuals_eq(ctx, h1, h2, ctx.depth - max(n1, n2))

            return _eval(ctx, q, (), 0, True, leaf)

        return _eval(ctx, p, (), 0, True, after_p)

    if not run(False):
        return "value"
    if residuals and not run(True):
        return "derivative"
    return "congruent"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DepthExhaustedError:
        return DepthExhaustedError


@st.composite
def _compare_requests(draw):
    names = draw(st.sampled_from(["a", "ab", "abc"]))
    atoms_ = [atom(n) for n in names]
    leaf = st.sampled_from([TRUE, FALSE] + atoms_)
    terms = st.recursive(
        leaf, lambda ch: st.tuples(ch, ch, ch).map(lambda t: Cond(*t)), max_leaves=5
    ).filter(lambda t: depth(t) <= 3)
    p = draw(terms)
    # p, then one more query whose reply is dropped: the same values, and
    # residuals that differ unless the variety absorbs the query.
    p_then = st.sampled_from(atoms_).map(lambda r: Cond(Cond(TRUE, r, TRUE), p, Cond(FALSE, r, FALSE)))
    q = draw(
        st.one_of(
            terms,
            st.just(p),
            st.just(basic_form(p)),
            st.sampled_from(atoms_).map(lambda r: Cond(p, r, p)),
            terms.map(lambda r: Cond(p, r, p)),
            p_then,
            p_then,
        )
    )
    # From one query short of the deeper evaluation to two beyond it.
    longest = max(depth(p), depth(q))
    obs_depth = draw(st.integers(max(1, longest - 1), min(6, longest + 2)))
    return p, q, tuple(Atom(n) for n in names), obs_depth


_A_THEN_T = Cond(TRUE, AT, TRUE)
# Under fr the DFS first takes a = T: both sides give T, but the right side
# has also asked b, so the residuals differ; with a = F the values differ.
_RESIDUAL_THEN_VALUE = (AT, Cond(Cond(TRUE, BT, TRUE), AT, TRUE))


@given(_compare_requests(), st.sampled_from(list(Variety)))
@example((AT, BT, (A, B), 3), Variety.FR)  # value
@example((AT, Cond(AT, AT, AT), (A,), 3), Variety.CR)  # congruent
@example((AT, Cond(AT, AT, AT), (A, B), 3), Variety.RP)  # residuals only
@example((TRUE, _A_THEN_T, (A,), 3), Variety.FR)  # residuals only
@example((*_RESIDUAL_THEN_VALUE, (A, B), 3), Variety.FR)  # value, after a residual mismatch
@example((Cond(BT, AT, BT), TRUE, (A, B), 1), Variety.FR)  # depth exhausted
@settings(max_examples=400, deadline=None)
def test_compare_terms_matches_the_two_pass_reference(request, k):
    p, q, alphabet, obs_depth = request
    for residuals in (False, True):
        expected = _outcome(_reference_compare, p, q, k, alphabet, obs_depth, residuals)
        assert _outcome(compare_terms, p, q, k, alphabet, obs_depth, residuals) == expected


def test_compare_terms_verdicts_on_the_fixed_pairs():
    assert compare_terms(AT, Cond(AT, AT, AT), Variety.RP, (A, B), 3, True) == "derivative"
    assert compare_terms(TRUE, _A_THEN_T, Variety.FR, (A,), 3, True) == "derivative"
    assert compare_terms(*_RESIDUAL_THEN_VALUE, Variety.FR, (A, B), 3, True) == "value"


@pytest.mark.parametrize("k", [Variety.FR, Variety.MEM])
def test_a_congruent_pair_takes_the_steps_of_one_pass(k, monkeypatch):
    p = desugar(parse("(a land b) lor (not a land c)"))
    q = basic_form(p) if k == Variety.FR else normalize(p, k)
    args = (p, q, k, (A, B, Atom("c")), depth(p) + depth(q) + 2, True)
    passes = []
    assert _reference_compare(*args, passes=passes) == "congruent"
    value_pass, residual_pass = (ctx.steps for ctx in passes)
    assert 0 < value_pass <= residual_pass
    ticks = []
    tick = _Ctx.tick
    monkeypatch.setattr(_Ctx, "tick", lambda ctx: ticks.append(None) or tick(ctx))
    assert compare_terms(*args) == "congruent"
    monkeypatch.undo()
    # One pass: the reference's residual pass, without the value pass.
    assert len(ticks) == residual_pass
    # Budgets count per pass in both, so the smallest budget that answers is
    # the same as the reference's.
    assert compare_terms(*args, budget=residual_pass) == "congruent"
    with pytest.raises(BudgetExceededError):
        compare_terms(*args, budget=residual_pass - 1)


# --- witnesses -------------------------------------------------------------


def test_satisfying_assignment_replay():
    p = Cond(FALSE, AT, Cond(TRUE, BT, FALSE))  # needs a=F then b=T
    assign = satisfying_assignment(p, Variety.FR, (A, B), 3, target=True)
    assert assign is not None
    h = materialize_table(Variety.FR, (A, B), 3, assign)
    assert evaluate(p, h).value is True


def test_satisfying_assignment_none_for_unsatisfiable():
    assert satisfying_assignment(FALSE, Variety.FR, (A,), 2, target=True) is None
    # "a then not a": memorized replies make this a contradiction.
    contra = Cond(Cond(FALSE, AT, TRUE), AT, FALSE)
    assert satisfying_assignment(contra, Variety.MEM, (A,), 3, target=True) is None
    # The same term is satisfiable when the second reply may flip.
    assert satisfying_assignment(contra, Variety.FR, (A,), 3, target=True) is not None


def _reference_table(k, alphabet, obs_depth, assign, default=True):
    """Reference for ``materialize_table``: resolve the full history of
    every query string, one string at a time, sharing nothing."""
    names = tuple(a.name for a in sorted(alphabet))
    scratch = dict(assign)
    replies = {}

    def walk(hist, prefix):
        if len(prefix) == obs_depth:
            return
        for name in names:
            forced, key = _resolve(k, hist, name)
            if forced is not None:
                v = forced
                nxt = _advance(k, hist, name, v, True)
            else:
                v = scratch.setdefault(key, default)
                nxt = _advance(k, hist, name, v, False)
            replies[prefix + (name,)] = v
            walk(nxt, prefix + (name,))

    walk((), ())
    return ValuationTable(tuple(sorted(alphabet)), obs_depth, replies)


@st.composite
def _table_requests(draw):
    names = draw(st.sampled_from(["a", "ab", "abc"]))
    leaf = st.sampled_from([TRUE, FALSE] + [atom(n) for n in names])
    p = draw(
        st.recursive(leaf, lambda ch: st.tuples(ch, ch, ch).map(lambda t: Cond(*t)), max_leaves=6)
        .filter(lambda t: depth(t) <= 5)
    )
    obs_depth = draw(st.integers(max(1, depth(p)), 5))
    return p, tuple(Atom(n) for n in names), obs_depth


# Two cases random draws seldom reach.  "a", then "a" again (absorbed under
# cr), then "b": the live history of the witness path after "a a" equals, as
# a value, the summary of the default-completed node after "b a", so the
# memo must tell the two regions apart.  "b" = F, then "a" = T under crnmem
# with default F: the node after the path re-answers a with T by
# contraction, while a node with the same F entries and another last entry
# answers a with the default F, so the crnmem summary needs the last entry.
_REPEATED_QUERY = Cond(Cond(Cond(FALSE, BT, TRUE), AT, FALSE), AT, FALSE)
_NOT_B_THEN_A = Cond(FALSE, BT, AT)


@given(_table_requests(), st.sampled_from(list(Variety)), st.booleans())
@example((_REPEATED_QUERY, (A, B), 3), Variety.CR, True)
@example((_NOT_B_THEN_A, (A, B), 4), Variety.CR_NMEM, False)
@settings(max_examples=300, deadline=None)
def test_materialize_table_matches_the_reference_walk(request, k, default):
    p, alphabet, obs_depth = request
    found = [satisfying_assignment(p, k, alphabet, obs_depth, target) for target in (True, False)]
    for assign in [a for a in found if a is not None] + [{}]:
        before = dict(assign)
        h = materialize_table(k, alphabet, obs_depth, assign, default)
        assert assign == before
        assert h == _reference_table(k, alphabet, obs_depth, assign, default)


def test_materialized_tables_respect_the_variety():
    for k in (Variety.RP, Variety.CR, Variety.WM, Variety.MEM, Variety.ST, Variety.PMEM):
        h = materialize_table(k, (A, B), 3, {}, default=True)
        assert in_variety(h, k), k


# --- resource guards -------------------------------------------------------


def test_tables_and_unfoldings_leave_no_cyclic_garbage():
    p = Cond(Cond(FALSE, AT, TRUE), BT, AT)
    linear = load_spec("X1 = X3 <| a |> X2\nX2 = b then X1\nX3 = T\n")
    gc.collect()
    gc.disable()
    try:
        for k in (Variety.FR, Variety.CR, Variety.MEM, Variety.ST, Variety.PMEM, Variety.CR_NMEM):
            assign = satisfying_assignment(p, k, (A, B), 4, target=True)
            materialize_table(k, (A, B), 4, assign)
            assert len(list(generate_tables(k, (A, B), 2))) > 1
        for n in (1, 5, 9):
            unfold_projection(primes_spec(), 1, n)
            unfold_projection(linear, "X1", n)
        for k in MAIN_CHAIN:
            normalization_report(p, k)
        assert is_monotest(Cond(TRUE, AT, Cond(FALSE, BT, TRUE)))
        assert not is_monotest(Cond(Cond(TRUE, AT, FALSE), AT, FALSE))
        verdicts = {
            compare_terms(x, y, k, (A, B), 5, residuals=True)
            for x, y, k in ((p, p, Variety.FR), (p, AT, Variety.FR), (AT, Cond(AT, AT, AT), Variety.RP))
        }
        assert verdicts == {"congruent", "value", "derivative"}
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nested_in_condition(n):
    t = AT
    for _ in range(n):
        t = Cond(TRUE, t, FALSE)
    return t


def test_deeply_nested_input_is_a_typed_error():
    t = _nested_in_condition(200)
    assert equal(t, t, Variety.MEM)
    with pytest.raises(NestingDepthError):
        congruent_oracle(t, t, Variety.MEM)
    with pytest.raises(NestingDepthError):
        equiv_oracle(t, t, Variety.FR)
    with pytest.raises(NestingDepthError):
        sat(_nested_in_condition(400), Variety.PMEM)


def test_budget_exhaustion_raises():
    deep = Cond(TRUE, AT, FALSE)
    for _ in range(6):
        deep = Cond(deep, BT, deep)
    with pytest.raises(BudgetExceededError):
        compare_terms(deep, deep, Variety.FR, (A, B), depth(deep) + 1, True, budget=10)


def test_depth_exhaustion_raises():
    with pytest.raises(DepthExhaustedError):
        compare_terms(Cond(BT, AT, BT), TRUE, Variety.FR, (A, B), 1, residuals=False)
