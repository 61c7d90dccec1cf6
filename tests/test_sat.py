import importlib

import pytest
from hypothesis import given, settings, strategies as st

from propalg.congruence import normalize
from propalg.errors import BudgetExceededError, UnsupportedConnectiveError
from propalg.oracle import sat_fal_search, satisfying_assignment
from propalg.sat import (
    _leaves,
    acc,
    crpmem_translation_holds,
    leaf_check_matches_inductive,
    pmem_reduction_holds,
    sat,
    sat_fr_inductive,
    st_classically_satisfiable,
)
from propalg.syntax import desugar, parse
from propalg.terms import MAIN_CHAIN, Atom, Cond, FALSE, TRUE, Variety, atom, atoms, depth
from propalg.valuation import enumerate_tables, evaluate, in_variety

A = atom("a")
B = atom("b")


def core(text):
    return desugar(parse(text))


_leaf = st.sampled_from([TRUE, FALSE, A, B, atom("c")])
_terms = st.recursive(
    _leaf, lambda ch: st.tuples(ch, ch, ch).map(lambda t: Cond(*t)), max_leaves=8
)


# --- free valuations -------------------------------------------------------


def test_constants_and_atoms():
    assert sat_fr_inductive(TRUE) == sat_fr_inductive(TRUE)
    v = sat_fr_inductive(TRUE)
    assert v.satisfiable and not v.falsifiable
    v = sat_fr_inductive(FALSE)
    assert not v.satisfiable and v.falsifiable
    v = sat_fr_inductive(A)
    assert v.satisfiable and v.falsifiable


def test_fr_contradiction_is_still_satisfiable():
    # a land not a: a free valuation may answer the two queries differently.
    v = sat_fr_inductive(core("a land not a"))
    assert v.satisfiable and v.falsifiable


@given(_terms)
def test_inductive_equals_leaf_check(t):
    assert leaf_check_matches_inductive(t)


# --- per-variety verdicts --------------------------------------------------


def test_mem_contradiction_unsatisfiable():
    contra = core("a land not a")
    assert not sat(contra, Variety.MEM).satisfiable
    assert sat(contra, Variety.MEM).falsifiable
    assert sat(contra, Variety.FR).satisfiable
    # Weak memory already rules the flip out (no query intervenes).
    assert not sat(contra, Variety.WM).satisfiable


def test_cr_versus_rp_on_repeated_tests():
    # a land not a flips the same reply immediately: impossible once
    # re-queries repeat, so unsatisfiable from rp onward.
    assert not sat(core("a land not a"), Variety.RP).satisfiable
    # With an intervening b-query, rp and cr allow the flip but wm does not.
    spaced = core("(a land b) land not a")
    assert sat(spaced, Variety.CR).satisfiable
    assert not sat(spaced, Variety.WM).satisfiable


@given(_terms, st.sampled_from([Variety.FR, Variety.RP, Variety.CR, Variety.WM, Variety.MEM]))
@settings(max_examples=40, deadline=None)
def test_verdicts_shrink_along_the_chain(t, k):
    # Satisfiability under a finer variety implies it under the coarser one...
    # in the other direction: coarser-variety tables are a subset.
    fine = sat(t, k)
    coarse = sat(t, Variety.ST)
    if coarse.satisfiable:
        assert fine.satisfiable
    if coarse.falsifiable:
        assert fine.falsifiable


@given(_terms)
@settings(max_examples=60)
def test_st_matches_truth_tables(t):
    assert sat(t, Variety.ST).satisfiable == st_classically_satisfiable(t)


@pytest.mark.parametrize("k", [Variety.PMEM, Variety.NMEM, Variety.CR_PMEM, Variety.WM_NMEM])
def test_search_verdicts_match_explicit_tables(k):
    # Cross-check the DFS decision against explicit enumeration at small size.
    forms = [
        core("a land not a"),
        core("not a land a"),
        core("(a lor b) land not a"),
        core("a <| b |> (not a)"),
    ]
    for p in forms:
        alphabet = tuple(sorted(atoms(p)))
        d = depth(p)
        expected_sat = any(
            evaluate(p, h).value for h in enumerate_tables(alphabet, d, k)
        )
        assert sat(p, k).satisfiable == expected_sat, (p, k)


def test_witness_tables_replay():
    p = core("(a lor b) land not a")
    for k in (Variety.FR, Variety.CR, Variety.MEM, Variety.PMEM):
        v = sat(p, k, witness=True)
        if v.satisfiable:
            assert v.witness is not None
            assert in_variety(v.witness, k)
            assert evaluate(p, v.witness).value is True
    assert sat(core("a land not a"), Variety.MEM, witness=True).witness is None


@pytest.mark.parametrize("k", [Variety.PMEM, Variety.NMEM])
def test_depth7_witness_over_three_atoms(k):
    # The heaviest witness class the benchmark asks for: a 3279-string table.
    p = core("(a lor (b land c)) land ((not a lor b) land (c lor not b))")
    assert depth(p) == 7 and len(atoms(p)) == 3
    v = sat(p, k, witness=True)
    assert v.satisfiable and v.witness.obs_depth == 7
    assert len(v.witness.replies) == 3 + 3**2 + 3**3 + 3**4 + 3**5 + 3**6 + 3**7
    assert in_variety(v.witness, k)
    assert evaluate(p, v.witness).value is True


@pytest.mark.parametrize("k", [Variety.PMEM, Variety.NMEM])
def test_side_family_witness_reuses_the_deciding_search(k, monkeypatch):
    # The satisfying assignment that decides SAT is the one materialized:
    # one search decides both values, and no second search runs.
    sat_module = importlib.import_module("propalg.sat")
    calls = []

    def counted(search):
        def run(*args):
            calls.append(search.__name__)
            return search(*args)

        return run

    for name in ("sat_fal_search", "satisfying_assignment"):
        monkeypatch.setattr(sat_module, name, counted(getattr(sat_module, name)))
    p = core("(a lor b) land not a")
    v = sat(p, k, witness=True)
    assert calls == ["sat_fal_search"]
    assert v.satisfiable and in_variety(v.witness, k)
    assert evaluate(p, v.witness).value is True


_side = st.sampled_from([k for k in Variety if k not in MAIN_CHAIN])


def _single_target(p, k, alphabet, d, target, budget):
    try:
        return satisfying_assignment(p, k, alphabet, d, target, budget)
    except BudgetExceededError:
        return "budget"


@given(_terms, _side)
@settings(max_examples=150, deadline=None)
def test_one_search_answers_as_two_single_target_searches(t, k):
    # The witness is the T search's, falsifiability is the F search's, and a
    # budget runs out exactly when it runs out for either of them.
    alphabet, d = tuple(sorted(atoms(t))) or (Atom("a"),), max(1, depth(t))
    for budget in range(40):
        sat_t = _single_target(t, k, alphabet, d, True, budget)
        sat_f = _single_target(t, k, alphabet, d, False, budget)
        if "budget" in (sat_t, sat_f):
            with pytest.raises(BudgetExceededError):
                sat_fal_search(t, k, alphabet, d, budget)
        else:
            assert sat_fal_search(t, k, alphabet, d, budget) == (sat_t, sat_f is not None)


def _tree_leaves(t):
    if isinstance(t, Cond):
        return _tree_leaves(t.left) | _tree_leaves(t.right)
    return {t is TRUE}


@given(_terms, st.sampled_from(list(MAIN_CHAIN)))
@settings(max_examples=100, deadline=None)
def test_leaves_of_a_normal_form_are_its_tree_leaves(t, k):
    form = normalize(t, k)
    assert _leaves(form) == _tree_leaves(form)


# --- reductions and translations -------------------------------------------


@given(_terms)
@settings(max_examples=25, deadline=None)
def test_pmem_reduction(t):
    assert pmem_reduction_holds(t)


def test_crpmem_translation():
    assert crpmem_translation_holds(Atom("a"), B, atom("c"))
    assert crpmem_translation_holds(Atom("a"), core("b land c"), FALSE)
    assert crpmem_translation_holds(Atom("a"), A, core("not a"))


# --- accessible atoms ------------------------------------------------------


def test_acc_examples():
    assert acc(parse("a land b")) == {Atom("a"), Atom("b")}
    # F short-circuits the conjunction: b is never queried.
    assert acc(parse("F land b")) == set()
    assert acc(parse("(a land not a) land b")) == {Atom("a"), Atom("b")}
    # T makes the disjunction's right side unreachable.
    assert acc(parse("T lor b")) == set()
    assert acc(parse("not (a lor b)")) == {Atom("a"), Atom("b")}


def test_acc_rejects_other_connectives():
    with pytest.raises(UnsupportedConnectiveError):
        acc(parse("a then b"))
    with pytest.raises(UnsupportedConnectiveError):
        acc(parse("a <| b |> c"))


def test_acc_soundness_against_evaluation():
    # Every atom reported accessible is queried by some free valuation.
    for text in ("(a land not a) lor b", "T lor b", "a land b", "F land b"):
        s = parse(text)
        p = desugar(s)
        alphabet = tuple(sorted(atoms(p))) or (Atom("a"),)
        queried: set[str] = set()
        for h in enumerate_tables(alphabet, depth(p) or 1, Variety.FR):
            queried.update(evaluate(p, h).trace)
        assert {a.name for a in acc(s)} == queried, text
