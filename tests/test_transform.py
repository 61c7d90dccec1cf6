import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import propalg
from propalg.congruence import basic_form, equal, normalize
from propalg.errors import BudgetExceededError, ReservedWordError, UnsupportedConnectiveError
from propalg.projective import CondRhs, eval_spec, unfold_projection
from propalg.syntax import desugar, parse
from propalg.terms import FALSE, TRUE, Atom, Cond, Variety, atom, atoms
from propalg.transform import DLNI, caching, is_monotest, re_eval, subst_sets
from propalg.valuation import constant_table, evaluate, static_table, table_from_fn

A = Atom("a")
AT = atom("a")
BT = atom("b")


def bf(text):
    return basic_form(desugar(parse(text)))


_leaf = st.sampled_from([TRUE, FALSE, AT, BT, atom("c")])
_terms = st.recursive(
    _leaf, lambda ch: st.tuples(ch, ch, ch).map(lambda t: Cond(*t)), max_leaves=8
)


# --- caching ---------------------------------------------------------------


def test_caching_replaces_repeated_tests():
    # a lor not a re-tests a; remembering the reply decides the second test.
    out = caching(bf("a lor not a"))
    assert out == bf("T <| a |> T")
    assert is_monotest(out)


def test_caching_fixed_example():
    assert caching(bf("T <| a |> (F <| a |> T)")) == bf("T <| a |> T")


@given(_terms)
@settings(max_examples=60)
def test_caching_produces_monotest_mem_equal_forms(t):
    out = caching(basic_form(t))
    assert is_monotest(out)
    assert equal(out, t, Variety.MEM)
    assert out is normalize(basic_form(t), Variety.MEM)


# A conditional as central condition, and a bare atom, are not basic.
_NON_BASIC = (Cond(TRUE, Cond(AT, BT, FALSE), FALSE), AT)


def test_caching_rejects_non_basic_input():
    for t in _NON_BASIC:
        with pytest.raises(UnsupportedConnectiveError, match="caching"):
            caching(t)


@pytest.mark.parametrize("fn", [is_monotest, re_eval])
def test_basic_form_transforms_reject_non_basic_input(fn):
    for t in _NON_BASIC:
        with pytest.raises(UnsupportedConnectiveError, match=fn.__name__):
            fn(t)


def test_non_basic_input_is_rejected_under_optimize():
    # The precondition is a typed error, not an assert that -O strips.
    script = textwrap.dedent(
        """
        from propalg.errors import UnsupportedConnectiveError
        from propalg.terms import FALSE, TRUE, Cond, atom
        from propalg.transform import caching, is_monotest, re_eval

        for fn in (caching, is_monotest, re_eval):
            for t in (Cond(TRUE, Cond(atom("a"), atom("b"), FALSE), FALSE), atom("a")):
                try:
                    fn(t)
                except UnsupportedConnectiveError:
                    continue
                raise SystemExit(f"{fn.__name__} accepted {t}")
        assert False, "asserts are stripped"
        print("rejected")
        """
    )
    src = os.path.dirname(os.path.dirname(propalg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "rejected\n", "")


def test_is_monotest():
    assert is_monotest(bf("a <| b |> c"))
    assert not is_monotest(bf("a land a"))


def test_subst_sets():
    t = bf("a <| b |> c")
    out = subst_sets(t, {A}, {Atom("c")})
    assert basic_form(out) == bf("T <| b |> F")
    with pytest.raises(ValueError):
        subst_sets(t, {A}, {A})


# --- restart semantics -----------------------------------------------------


def test_re_eval_without_repeats_is_the_term_itself():
    spec = re_eval(bf("b <| a |> c"))
    assert unfold_projection(spec, spec.start, 2) == bf("b <| a |> c")


def test_re_eval_plain_restarts_at_the_root():
    # a land not a: a consistent table halts (value F, no contradiction),
    # while a table whose replies flip on every query restarts forever.
    spec = re_eval(bf("a land not a"))
    consistent = static_table({A: True}, 8)
    assert eval_spec(spec, spec.start, consistent, 8) == "F"
    flipping = table_from_fn((A,), 8, lambda s: len(s) % 2 == 1)
    assert eval_spec(spec, spec.start, flipping, 8) == "diverged"


def test_re_eval_projection_example():
    # T <| a |> (F <| a |> T) with restarts: the second level commits to the
    # remembered reply, so pi_2 already shows T on both consistent paths.
    spec = re_eval(bf("T <| a |> (F <| a |> T)"))
    assert unfold_projection(spec, spec.start, 2) == bf("T <| a |> (T <| a |> F)")


def test_re_eval_dlni_guard():
    spec = re_eval(bf("a land not a"), variant="dlni")
    assert any(
        isinstance(rhs, CondRhs) and rhs.atom == DLNI for rhs in spec.equations.values()
    )
    # dlni always F: contradictions are tolerated and evaluation halts.
    alphabet = (A, DLNI)
    h = table_from_fn(alphabet, 8, lambda s: s[-1] == "a" and len(s) == 1)
    assert eval_spec(spec, spec.start, h, 8) in ("T", "F")
    # dlni always T: every contradiction restarts, as in the plain variant.
    h_loop = table_from_fn(alphabet, 8, lambda s: s[-1] == "dlni" or len(s) % 2 == 1)
    plain = re_eval(bf("a land not a"))
    assert eval_spec(spec, spec.start, h_loop, 8) == eval_spec(
        plain, plain.start, static_table({A: True}, 8), 8
    )


def test_re_eval_dlni_subst_substitutes_remembered_replies():
    p = bf("(not a) land (a lor b)")
    plain = re_eval(p, variant="dlni")
    subst = re_eval(p, variant="dlni_subst")
    # Both compile, both guard on dlni; the subst variant's continuations have
    # the remembered atoms already decided.
    for spec in (plain, subst):
        assert any(
            isinstance(rhs, CondRhs) and rhs.atom == DLNI for rhs in spec.equations.values()
        )
    h = constant_table((A, Atom("b"), DLNI), 8, False)
    assert eval_spec(subst, subst.start, h, 8) == eval_spec(plain, plain.start, h, 8)


def test_re_eval_rejects_reserved_atom():
    with pytest.raises(ReservedWordError):
        re_eval(bf("dlni land a"), variant="dlni")
    # The plain variant has no reserved name.
    re_eval(bf("dlni land a"))


def test_re_eval_validates_inputs():
    with pytest.raises(ValueError):
        re_eval(bf("a"), variant="bogus")
    with pytest.raises(UnsupportedConnectiveError):
        re_eval(desugar(parse("a land a")))  # not a basic form


def test_re_eval_state_budget():
    with pytest.raises(BudgetExceededError):
        re_eval(bf("(a land b) land (not a lor not b)"), max_states=2)


@given(_terms)
@settings(max_examples=40, deadline=None)
def test_re_eval_agrees_with_direct_evaluation_on_consistent_tables(t):
    # Against a static table no restart ever fires, so the compiled spec
    # halts with the term's own value.
    p = basic_form(t)
    spec = re_eval(p)
    names = sorted(atoms(p))
    h = static_table({a: True for a in names} or {A: True}, 12)
    got = eval_spec(spec, spec.start, h, 12)
    assert got == ("T" if evaluate(p, h).value else "F")
