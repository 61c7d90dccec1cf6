import pytest
from hypothesis import given, settings, strategies as st

from propalg.congruence import basic_form, equal
from propalg.errors import BudgetExceededError
from propalg.expressive import (
    CLOSURE_SLOTS,
    SEARCH_BUDGET,
    _CLOSURES,
    CompositionTerm,
    OperatorCatalog,
    _apply,
    _apply_paths,
    _closure_key,
    enumerate_tc12,
    f_simplify,
    iter_tc12,
    mem_definability_check,
    phi_abc,
    search_equivalent,
    t_simplify,
)
from propalg.syntax import desugar, parse
from propalg.terms import FALSE, MAIN_CHAIN, TRUE, Atom, AtomTerm, Cond, TrueConst, Variety, depth, is_basic

A = Atom("a")
B = Atom("b")
C = Atom("c")


def core(text):
    return basic_form(desugar(parse(text)))


# --- catalogs --------------------------------------------------------------


def test_full_catalog_sizes():
    c1 = OperatorCatalog.full(1)
    # Depth-1 bodies over two placeholders cannot mention both.
    assert len(c1.unary_ops) == 4
    assert len(c1.binary_ops) == 0
    c2 = OperatorCatalog.full(2)
    assert len(c2.unary_ops) == 36
    assert len(c2.binary_ops) == 128
    assert all(is_basic(b) for b in c2.unary_ops + c2.binary_ops)


def test_restricted_catalogs():
    assert len(OperatorCatalog.negation_or().binary_ops) == 1
    assert len(OperatorCatalog.negation_and_or().binary_ops) == 2


# --- shallow strippers and the shape property ------------------------------


def test_simplify_strips_leading_tests():
    p = core("b <| a |> c")
    assert t_simplify(p, A) == core("b")
    assert f_simplify(p, A) == core("c")
    # A different central atom stops the stripping.
    assert t_simplify(p, B) == p
    nested = core("(c <| a |> F) <| a |> F")
    assert t_simplify(nested, A) == core("c")


def test_phi_abc_holds_for_the_conditional():
    assert phi_abc(core("a <| b |> c"), A, B, C)
    # Unaffected by contractible padding.
    assert phi_abc(core("(a <| b |> c) <| b |> (a <| b |> c)"), A, B, C)


def test_phi_abc_fails_off_shape():
    assert not phi_abc(core("a land b"), A, B, C)
    assert not phi_abc(core("(b land a) lor (not b land c)"), A, B, C)
    with pytest.raises(ValueError):
        phi_abc(core("a"), A, A, C)


# --- catalog closure -------------------------------------------------------


def test_enumerate_tc12_contains_the_expected_compositions():
    catalog = OperatorCatalog.negation_or()
    out = enumerate_tc12(("a", "b"), catalog, 2, result_depth=3)
    by_term = {ct.term: ct.two_place_count for ct in out}
    assert by_term[core("a lor b")] == 1
    assert by_term[core("not a")] == 0
    assert by_term[TRUE] == 0
    # Deduplicated, deterministic, two-place counts are minimal.
    assert len(by_term) == len(out) == 466
    assert out == enumerate_tc12(("a", "b"), catalog, 2, result_depth=3)
    assert by_term[core("a lor a")] == 1


def _reference_closure(atom_names, catalog, max_2p, result_depth=3, budget=10**8, stamps=None):
    """Reference for the closure: the eager enumeration that builds every
    composition and then drops the deep ones, scanned afterwards.  When
    given, ``stamps`` receives the step count at which each term was kept."""
    names = sorted(atom_names)
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        if steps > budget:
            raise BudgetExceededError(f"catalog closure budget {budget} exhausted")

    seen = {}
    strata = []

    def admit(t, c, fresh):
        if depth(t) > result_depth or t in seen:
            return
        seen[t] = c
        fresh.append(t)
        if stamps is not None:
            stamps[t] = steps

    def unary_close(frontier, c):
        out = list(frontier)
        work = list(frontier)
        while work:
            u = work.pop(0)
            for body in catalog.unary_ops:
                tick()
                fresh = []
                admit(_apply(body, u, None), c, fresh)
                out.extend(fresh)
                work.extend(fresh)
        return out

    base = []
    for t in (TRUE, FALSE, *(Cond(TRUE, AtomTerm(Atom(n)), FALSE) for n in names)):
        fresh = []
        admit(t, 0, fresh)
        base.extend(fresh)
    strata.append(unary_close(base, 0))

    for c in range(1, max_2p + 1):
        frontier = []
        for body in catalog.binary_ops:
            for c1 in range(c):
                for u in strata[c1]:
                    for v in strata[c - 1 - c1]:
                        tick()
                        admit(_apply(body, u, v), c, frontier)
        strata.append(unary_close(frontier, c))

    return [CompositionTerm(t, seen[t]) for stratum in strata for t in stratum]


CATALOGS = {
    "negation_or": OperatorCatalog.negation_or(),
    "negation_and_or": OperatorCatalog.negation_and_or(),
    "full1": OperatorCatalog.full(1),
}


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_closure_matches_the_eager_reference(catalog, n_atoms):
    names = ("a", "b", "c")[:n_atoms]
    for max_2p in range(4):
        for result_depth in (2, 3, 4):
            args = (names, CATALOGS[catalog], max_2p, result_depth)
            reference = _reference_closure(*args)
            _CLOSURES.clear()
            assert enumerate_tc12(*args) == reference
            # The completed stream was stored; the next ones replay it.
            assert _closure_key(*args) in _CLOSURES
            assert enumerate_tc12(*args) == reference
            assert list(iter_tc12(*args)) == reference


def test_enumerate_tc12_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_tc12(("a", "b"), OperatorCatalog.negation_or(), 2, budget=10)


def test_the_stream_yields_what_the_budget_allows():
    # A stream under a budget yields exactly the compositions kept within
    # that many steps, then raises; the reference exhausts it too.  A
    # stored closure replays the same.
    catalog = OperatorCatalog.negation_and_or()
    stamps = {}
    full = _reference_closure(("a", "b"), catalog, 2, stamps=stamps)
    budgets = sorted({b for s in stamps.values() for b in (s - 1, s) if b >= 0})
    for stored in (False, True):
        _CLOSURES.clear()
        if stored:
            enumerate_tc12(("a", "b"), catalog, 2)
        for budget in budgets:
            got = []
            with pytest.raises(BudgetExceededError):
                for ct in iter_tc12(("a", "b"), catalog, 2, budget=budget):
                    got.append(ct)
            assert got == [ct for ct in full if stamps[ct.term] <= budget]
            assert bool(_CLOSURES) == stored
    for budget in budgets:
        with pytest.raises(BudgetExceededError):
            _reference_closure(("a", "b"), catalog, 2, budget=budget)


# --- the depth gate --------------------------------------------------------


NO_LEAF = float("-inf")


def _walk_paths(t):
    """Longest paths to a T leaf and to an F leaf of basic t, by a plain walk."""
    if isinstance(t, Cond):
        lt, lf = _walk_paths(t.left)
        rt, rf = _walk_paths(t.right)
        return 1 + max(lt, rt), 1 + max(lf, rf)
    return (0, NO_LEAF) if isinstance(t, TrueConst) else (NO_LEAF, 0)


def _basic_terms(max_depth):
    leaves = st.sampled_from([TRUE, FALSE])
    if max_depth == 0:
        return leaves
    sub = _basic_terms(max_depth - 1)
    atom = st.sampled_from([AtomTerm(A), AtomTerm(B), AtomTerm(C)])
    return leaves | st.builds(Cond, sub, atom, sub)


FULL2 = OperatorCatalog.full(2)
BODIES = [(b, True) for b in FULL2.binary_ops]
BODIES += [(b, False) for b in FULL2.unary_ops + CATALOGS["full1"].unary_ops]


def _check_gate(body, u, v):
    built = _apply(body, u, v)
    got = _apply_paths(body, _walk_paths(u), None if v is None else _walk_paths(v), {})
    assert got == _walk_paths(built)
    assert max(got) == depth(built)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BODIES), _basic_terms(3), _basic_terms(3))
def test_gate_is_the_leaf_paths_of_the_built_composition(body_kind, u, v):
    body, binary = body_kind
    _check_gate(body, u, v if binary else None)


def test_gate_covers_terms_without_a_t_or_an_f_leaf():
    neg = OperatorCatalog.negation_or().unary_ops[0]
    left_or = OperatorCatalog.negation_or().binary_ops[0]
    no_t = Cond(FALSE, AtomTerm(A), FALSE)
    no_f = Cond(TRUE, AtomTerm(B), TRUE)
    for u in (no_t, no_f, TRUE, FALSE):
        _check_gate(neg, u, None)
        for v in (no_t, no_f, TRUE, FALSE, core("a")):
            _check_gate(left_or, u, v)
            _check_gate(left_or, v, u)


# --- searches --------------------------------------------------------------


def test_search_finds_de_morgan_witness():
    target = desugar(parse("not (a land b)"))
    w = search_equivalent(target, Variety.FR, ("a", "b"), OperatorCatalog.negation_or(), 3)
    assert w is not None
    assert w.two_place_count == 1
    assert equal(w.term, target, Variety.FR)


def test_search_determinism_and_absence():
    catalog = OperatorCatalog.negation_or()
    target = desugar(parse("not (a land b)"))
    first = search_equivalent(target, Variety.FR, ("a", "b"), catalog, 3)
    assert first == search_equivalent(target, Variety.FR, ("a", "b"), catalog, 3)
    # The conditional over three atoms is out of reach at tiny bounds.
    missing = search_equivalent(
        desugar(parse("a <| b |> c")), Variety.FR, ("a", "b", "c"), catalog, 1, result_depth=2
    )
    assert missing is None


SEARCH_TARGETS = [
    "T", "a", "not b", "a lor b", "not (a land b)", "a <| b |> c", "(a land b) lor c", "b then a",
]


@pytest.mark.parametrize("k", [Variety.FR, Variety.WM, Variety.MEM, Variety.ST])
def test_search_returns_the_first_matching_reference_candidate(k):
    catalog = OperatorCatalog.negation_and_or()
    names = ("a", "b", "c")
    reference = _reference_closure(names, catalog, 2)
    for text in SEARCH_TARGETS:
        target = desugar(parse(text))
        first = next((c for c in reference if equal(c.term, target, k)), None)
        assert search_equivalent(target, k, names, catalog, 2) == first


def test_search_budget_counts_only_the_steps_before_the_witness():
    catalog = OperatorCatalog.negation_or()
    # "not a" is admitted on the third unary step of stratum 0.
    hit = search_equivalent(core("not a"), Variety.FR, ("a", "b"), catalog, 2, budget=10)
    assert hit == CompositionTerm(core("not a"), 0)
    # A miss needs the whole enumeration, which the budget does not cover.
    miss = core("b <| a |> (not b)")
    assert search_equivalent(miss, Variety.FR, ("a", "b"), catalog, 2) is None
    with pytest.raises(BudgetExceededError):
        search_equivalent(miss, Variety.FR, ("a", "b"), catalog, 2, budget=10)


# --- the closure store ------------------------------------------------------


STORE_TARGETS = [
    "T", "not a", "a lor b", "not (a land b)", "b then a", "a <| b |> c", "(a land b) lor c",
    "a land (c lor not c)",
]


def _outcome(target, k, args, budget):
    try:
        return search_equivalent(target, k, *args, budget=budget)
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
def test_stored_closure_answers_as_the_stream(catalog):
    # Cold (nothing stored) and warm (the completed closure stored) searches
    # give the same witness, the same None and the same budget error, on
    # budgets around the witness's step and the closure's end.  Under st,
    # targets with c searched over {a, b} take the scan, and the last target
    # is st-equal to a.
    targets = [desugar(parse(text)) for text in STORE_TARGETS]
    for names in (("a", "b"), ("a", "b", "c")):
        for max_2p in range(4):
            for result_depth in (2, 3):
                args = (names, CATALOGS[catalog], max_2p, result_depth)
                key = _closure_key(*args)
                _CLOSURES.clear()
                enumerate_tc12(*args)
                closure = _CLOSURES[key]
                for target in targets:
                    for k in MAIN_CHAIN:
                        edges = {0, closure.steps - 1, closure.steps, SEARCH_BUDGET}
                        w = search_equivalent(target, k, *args)
                        if w is not None:
                            s = closure.stamps[closure.terms.index(w)]
                            edges |= {s - 1, s}
                        for budget in sorted(b for b in edges if b >= 0):
                            _CLOSURES.clear()
                            cold = _outcome(target, k, args, budget)
                            _CLOSURES[key] = closure
                            assert _outcome(target, k, args, budget) == cold, (target, k, budget)


def test_unsupported_variety_fails_alike_cold_and_warm():
    args = (("a", "b"), OperatorCatalog.negation_or(), 1)
    _CLOSURES.clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match="no canonical form"):
            search_equivalent(core("a"), Variety.PMEM, *args)
        enumerate_tc12(*args)


def test_a_stream_cut_short_stores_nothing():
    catalog = OperatorCatalog.negation_or()
    _CLOSURES.clear()
    assert search_equivalent(core("not a"), Variety.FR, ("a", "b"), catalog, 2) is not None
    with pytest.raises(BudgetExceededError):
        enumerate_tc12(("a", "b"), catalog, 2, budget=10)
    stream = iter_tc12(("a", "b"), catalog, 2)
    next(stream)
    stream.close()
    assert not _CLOSURES
    # A miss runs the stream to its end, and keeps it.
    assert search_equivalent(core("b <| a |> (not b)"), Variety.FR, ("a", "b"), catalog, 2) is None
    assert list(_CLOSURES) == [_closure_key(("a", "b"), catalog, 2, 3)]


def test_the_store_drops_the_oldest_closure_and_rebuilds_it():
    catalog = OperatorCatalog.negation_and_or()
    _CLOSURES.clear()
    first = ("a", "b"), catalog, 2, 3
    reference = _reference_closure(*first)
    assert enumerate_tc12(*first) == reference
    for result_depth in range(4, 4 + CLOSURE_SLOTS):
        enumerate_tc12(("a", "b"), catalog, 2, result_depth)
    assert len(_CLOSURES) == CLOSURE_SLOTS
    assert _closure_key(*first) not in _CLOSURES
    assert enumerate_tc12(*first) == reference
    assert _closure_key(*first) in _CLOSURES
    assert len(_CLOSURES) == CLOSURE_SLOTS


def test_mem_definability():
    assert mem_definability_check()
