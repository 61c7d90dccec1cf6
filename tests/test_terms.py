import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from propalg.congruence import normalize
from propalg.errors import ReservedWordError, SyntaxValidationError
from propalg.syntax import AndThen
from propalg.terms import (
    FALSE,
    MAIN_CHAIN,
    TRUE,
    Atom,
    AtomTerm,
    Cond,
    FalseConst,
    TrueConst,
    Variety,
    atom,
    atoms,
    central_atom,
    coarser_or_equal,
    cond,
    depth,
    enumerate_basic_forms,
    is_basic,
    is_k_basic,
    neg,
    pos,
    subst_atom,
)

A = atom("a")
B = atom("b")


def test_atom_names_are_validated():
    Atom("a")
    Atom("a1_x")
    with pytest.raises(SyntaxValidationError):
        Atom("A")
    with pytest.raises(SyntaxValidationError):
        Atom("1a")
    with pytest.raises(SyntaxValidationError):
        Atom("")


@pytest.mark.parametrize("word", ["T", "F", "not", "then", "land", "lor", "riff"])
def test_reserved_words_rejected_as_atoms(word):
    with pytest.raises((ReservedWordError, SyntaxValidationError)):
        Atom(word)


def test_constructors_intern():
    assert atom("a") is A
    assert Cond(TRUE, A, FALSE) is Cond(TRUE, A, FALSE)
    assert cond(TRUE, "a", FALSE) is Cond(TRUE, A, FALSE)


def test_depth():
    assert depth(TRUE) == 0
    assert depth(A) == 1
    assert depth(Cond(TRUE, A, FALSE)) == 1
    # depth counts queries along the worst path: central first, then a branch
    assert depth(Cond(Cond(TRUE, B, FALSE), A, FALSE)) == 2
    assert depth(Cond(TRUE, Cond(TRUE, A, FALSE), FALSE)) == 1


def test_atoms_and_substitution():
    t = cond(A, "b", FALSE)
    assert atoms(t) == {Atom("a"), Atom("b")}
    assert subst_atom(t, Atom("a"), TRUE) == cond(TRUE, "b", FALSE)
    assert subst_atom(t, Atom("c"), TRUE) is t


def test_basic_form_predicate():
    assert is_basic(TRUE)
    assert is_basic(Cond(TRUE, A, FALSE))
    assert not is_basic(A)  # a bare atom is not in basic form
    assert not is_basic(Cond(A, A, FALSE))  # branch not basic
    assert not is_basic(Cond(TRUE, Cond(TRUE, A, FALSE), FALSE))  # central not atomic


def test_central_atom_and_spines():
    p = Cond(Cond(TRUE, B, FALSE), A, Cond(TRUE, A, FALSE))
    assert central_atom(p) == Atom("a")
    assert pos(p) == {Atom("a"), Atom("b")}
    assert neg(p) == {Atom("a")}


def test_k_basic_predicates():
    aa = Cond(Cond(TRUE, A, FALSE), A, FALSE)
    assert is_k_basic(aa, Variety.FR)
    assert not is_k_basic(aa, Variety.RP)  # distinct branches under the same atom
    doubled = Cond(Cond(TRUE, A, TRUE), A, FALSE)
    assert is_k_basic(doubled, Variety.RP)
    assert not is_k_basic(doubled, Variety.CR)
    ab = Cond(Cond(TRUE, B, FALSE), A, FALSE)
    assert is_k_basic(ab, Variety.MEM)
    # st-basic: full tree over the sorted atom list
    full = Cond(Cond(TRUE, B, FALSE), A, Cond(TRUE, B, FALSE))
    assert is_k_basic(full, Variety.ST)
    assert not is_k_basic(ab, Variety.ST)


def test_variety_ordering():
    assert coarser_or_equal(Variety.ST, Variety.FR)
    assert coarser_or_equal(Variety.MEM, Variety.MEM)
    assert not coarser_or_equal(Variety.RP, Variety.CR)


def test_enumerate_basic_forms_counts():
    # N(d+1) = 2 + n * N(d)^2 with N(0) = 2
    assert len(enumerate_basic_forms(("a",), 1)) == 6
    assert len(enumerate_basic_forms(("a", "b"), 1)) == 10
    assert len(enumerate_basic_forms(("a", "b"), 2)) == 202
    forms = enumerate_basic_forms(("a", "b"), 2)
    assert len(set(forms)) == len(forms)
    assert all(is_basic(f) and depth(f) <= 2 for f in forms)
    # deterministic order
    assert forms == enumerate_basic_forms(("a", "b"), 2)


# --- facts stored on hash-consed nodes --------------------------------------
#
# Plain recursive definitions, walking the term as a tree, against which the
# per-node stored facts are checked.


def ref_depth(t):
    if isinstance(t, Cond):
        return ref_depth(t.cond) + max(ref_depth(t.left), ref_depth(t.right))
    return 1 if isinstance(t, AtomTerm) else 0


def ref_atoms(t):
    if isinstance(t, Cond):
        return ref_atoms(t.left) | ref_atoms(t.cond) | ref_atoms(t.right)
    return {t.atom} if isinstance(t, AtomTerm) else set()


def ref_basic(t):
    if isinstance(t, Cond):
        return isinstance(t.cond, AtomTerm) and ref_basic(t.left) and ref_basic(t.right)
    return isinstance(t, (TrueConst, FalseConst))


def ref_spine(t, side):
    if isinstance(t, Cond):
        return {t.cond.atom} | ref_spine(getattr(t, side), side)
    return set()


def ref_full_tree(t, names):
    if not names:
        return isinstance(t, (TrueConst, FalseConst))
    return (
        isinstance(t, Cond)
        and t.cond.atom == names[0]
        and ref_full_tree(t.left, names[1:])
        and ref_full_tree(t.right, names[1:])
    )


def ref_node_ok(t, k):
    """The k-specific condition on one basic-form node and its children."""
    a = t.cond.atom
    tests_a = [isinstance(c, Cond) and c.cond.atom == a for c in (t.left, t.right)]
    if k == Variety.FR:
        return True
    if k == Variety.RP:
        return all(not same or c.left is c.right for same, c in zip(tests_a, (t.left, t.right)))
    if k == Variety.CR:
        return not any(tests_a)
    if k == Variety.WM:
        return a not in ref_spine(t.left, "left") and a not in ref_spine(t.right, "right")
    assert k == Variety.MEM
    return a not in ref_atoms(t.left) and a not in ref_atoms(t.right)


def ref_k_basic(t, k):
    if not ref_basic(t):
        return False
    if k == Variety.ST:
        return ref_full_tree(t, sorted(ref_atoms(t)))
    if isinstance(t, Cond):
        return ref_node_ok(t, k) and ref_k_basic(t.left, k) and ref_k_basic(t.right, k)
    return True


def subterms(t):
    yield t
    if isinstance(t, Cond):
        for child in (t.left, t.cond, t.right):
            yield from subterms(child)


def facts(t):
    return (depth(t), atoms(t), is_basic(t), tuple(is_k_basic(t, k) for k in MAIN_CHAIN))


def ref_facts(t):
    return (ref_depth(t), ref_atoms(t), ref_basic(t), tuple(ref_k_basic(t, k) for k in MAIN_CHAIN))


# Term shapes over atom slots 0-2, mostly basic (constant leaves, atomic
# centrals) so that every variety sees k-basic and non-k-basic nodes.
SHAPES = st.recursive(
    st.sampled_from(["T", "F", "T", "F", 0, 1, 2]),
    lambda child: st.tuples(child, st.one_of(st.integers(0, 2), st.integers(0, 2), child), child),
    max_leaves=12,
)
_FRESH = itertools.count()


def build(shape, slots):
    if shape == "T":
        return TRUE
    if shape == "F":
        return FALSE
    if isinstance(shape, int):
        return slots[shape]
    left, central, right = shape
    return Cond(build(left, slots), build(central, slots), build(right, slots))


@settings(max_examples=300, deadline=None)
@given(SHAPES)
def test_node_facts_match_reference_definitions(shape):
    # Atoms no earlier example used, so every node mentioning one is new and
    # its facts are computed here on first use.
    n = next(_FRESH)
    t = build(shape, [atom(f"fresh{n}_{i}") for i in range(3)])
    expected = ref_facts(t)
    assert facts(t) == expected  # first call
    assert facts(t) == expected  # cached
    for sub in subterms(t):
        assert facts(sub) == ref_facts(sub)


@settings(max_examples=100, deadline=None)
@given(SHAPES, st.sampled_from(MAIN_CHAIN))
def test_canonical_forms_match_reference_definitions(shape, k):
    # Canonical forms are k-basic by construction: the True cases of every
    # grammar, stored by the assert in normalize and read back here.
    out = normalize(build(shape, [atom("a"), atom("b"), atom("c")]), k)
    assert is_k_basic(out, k) and ref_k_basic(out, k)
    for sub in subterms(out):
        assert facts(sub) == ref_facts(sub)


def test_hash_cons_hit_returns_the_node_unchanged():
    left = Cond(TRUE, B, FALSE)
    c = Cond(left, A, FALSE)
    facts(c)
    before = tuple(getattr(c, name) for name in Cond.__slots__)
    assert Cond(left, A, FALSE) is c
    assert Cond(left=left, cond=A, right=FALSE) is c
    after = tuple(getattr(c, name) for name in Cond.__slots__)
    assert all(x is y for x, y in zip(before, after))
    assert atoms(c) is atoms(Cond(left, A, FALSE))


def test_nodes_have_slots_and_keep_repr_and_equality():
    c = Cond(TRUE, A, FALSE)
    assert not hasattr(c, "__dict__") and not hasattr(A, "__dict__")
    assert repr(c) == "Cond(left=TrueConst(), cond=AtomTerm(atom=Atom(name='a')), right=FalseConst())"
    assert str(c) == "(T <| a |> F)"
    assert c == Cond(TRUE, A, FALSE) and hash(c) == hash(Cond(TRUE, A, FALSE))
    assert c != Cond(FALSE, A, TRUE) and c != "(T <| a |> F)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.left = FALSE
    with pytest.raises(dataclasses.FrozenInstanceError):
        c._depth = 5


def test_atom_sets_are_shared():
    assert atoms(A) is atoms(A)
    assert atoms(Cond(TRUE, A, FALSE)) is atoms(A)
    assert atoms(Cond(A, B, FALSE)) is atoms(Cond(B, A, TRUE))
    assert atoms(TRUE) is atoms(FALSE)


def test_sugared_child_keeps_raising():
    # The parser builds conditionals over sugared children; facts are
    # computed lazily, so building one works and asking its depth raises.
    t = Cond(AndThen(A, B), A, FALSE)
    for _ in range(2):
        with pytest.raises(TypeError):
            depth(t)
        with pytest.raises(TypeError):
            atoms(t)
    assert not is_basic(t)
    assert not is_k_basic(t, Variety.MEM)
