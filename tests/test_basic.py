"""Congruence-closure decision procedure and quotient term models."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, B, F, SIG, ground_atom_strategy
from talgebra.basic import (GroundTheory, NotAtomicError, Unbounded,
                            build_term_model, check_initiality, decide_basic)
from talgebra.semantics import satisfies
from talgebra.syntax import App, Eq, FuncDecl, Lbl, Neg, Trans, subterms

a = App(A, ())
b = App(B, ())


def f(t):
    return App(F, (t,))


def theory(*atoms):
    return GroundTheory(SIG, tuple(atoms))


# --- independent oracle: naive forward closure -------------------------------


def naive_closure(atoms, universe):
    """Saturate equations and transitions over a fixed term universe by rule
    application to a fixpoint. Independent of the union-find implementation."""
    eqs = {(t, t) for t in universe}
    trs = set()
    for phi in atoms:
        if isinstance(phi, Eq):
            eqs.add((phi.left, phi.right))
        else:
            trs.add((phi.action.name, phi.left, phi.right))
    changed = True
    while changed:
        changed = False
        new_eqs = set()
        for (t, u) in eqs:
            new_eqs.add((u, t))                                   # S
        for (t, u), (u2, v) in itertools.product(eqs, eqs):
            if u == u2:
                new_eqs.add((t, v))                               # T
        for t, u in eqs:                                          # F
            for w in universe:
                if not isinstance(w, App) or not w.args:
                    continue
                for k, arg in enumerate(w.args):
                    if arg == t:
                        w2 = App(w.decl,
                                 w.args[:k] + (u,) + w.args[k + 1:])
                        if w2 in universe:
                            new_eqs.add((w, w2))
        new_trs = set()
        for (l, t, u) in trs:                                     # P
            for (t2, t3) in eqs:
                if t2 == t:
                    new_trs.add((l, t3, u))
                if t2 == u:
                    new_trs.add((l, t, t3))
        for (l, t, u) in trs:                                     # M (unary f)
            if F in SIG.mono:
                ft, fu = f(t), f(u)
                if ft in universe and fu in universe:
                    new_trs.add((l, ft, fu))
        if not new_eqs <= eqs or not new_trs <= trs:
            eqs |= new_eqs
            trs |= new_trs
            changed = True
    return eqs, trs


def oracle_holds(atoms, goal, universe):
    eqs, trs = naive_closure(atoms, universe)
    if isinstance(goal, Eq):
        return (goal.left, goal.right) in eqs
    pairs = {(t, u) for (l, t, u) in trs if l == goal.action.name}
    # transitions hold up to the congruence on both endpoints
    return any((goal.left, t) in eqs and (goal.right, u) in eqs
               for (t, u) in pairs)


# --- unit cases ---------------------------------------------------------------


def test_reflexivity_and_symmetry():
    th = theory(Eq(a, b))
    assert decide_basic(th, Eq(a, a)).holds      # R [TRIVIAL]
    assert decide_basic(th, Eq(b, a)).holds      # S
    assert not decide_basic(th, Eq(f(a), a)).holds


def test_congruence_rule_f():
    th = theory(Eq(a, b))
    assert decide_basic(th, Eq(f(a), f(b))).holds   # F [DERIVED]


def test_transitivity_chain():
    c = f(f(a))
    th = theory(Eq(a, f(a)), Eq(f(a), c))
    assert decide_basic(th, Eq(a, c)).holds


def test_monotonicity_lifts_transitions():
    th = theory(Trans(a, Lbl("lam"), b))
    assert decide_basic(th, Trans(f(a), Lbl("lam"), f(b))).holds   # M
    assert not decide_basic(th, Trans(f(a), Lbl("mu"), f(b))).holds


def test_transitions_respect_congruence():
    th = theory(Trans(a, Lbl("lam"), b), Eq(b, f(a)))
    assert decide_basic(th, Trans(a, Lbl("lam"), f(a))).holds      # P


def test_non_atomic_rejected():
    with pytest.raises(NotAtomicError):
        decide_basic(theory(), Neg(Eq(a, a)))
    with pytest.raises(NotAtomicError):
        GroundTheory(SIG, (Neg(Eq(a, a)),))


def test_trace_is_replayable():
    th = theory(Eq(a, b), Trans(a, Lbl("lam"), a))
    result = decide_basic(th, Trans(f(a), Lbl("lam"), f(b)))
    assert result.holds
    assert any(s.rule == "M" for s in result.trace)
    assert set(result.used_premises) <= set(th.atoms)


# --- term models --------------------------------------------------------------


def test_term_model_unbounded_without_collapse():
    assert isinstance(build_term_model(theory()), Unbounded)


def test_term_model_of_quotient_finite_theory():
    # f(a) = a, f(b) = b: infinitely many terms, two classes
    m = build_term_model(theory(Eq(f(a), a), Eq(f(b), b)))
    assert not isinstance(m, Unbounded)
    assert len(m.carrier["s"]) == 2
    assert satisfies(m, Eq(f(f(a)), a))
    assert not satisfies(m, Eq(a, b))


def test_term_model_satisfies_exactly_the_consequences():
    th = theory(Eq(f(a), b), Trans(a, Lbl("lam"), b), Eq(f(b), b))
    m = build_term_model(th)
    assert not isinstance(m, Unbounded)
    for atom in th.atoms:
        assert satisfies(m, atom)
    assert satisfies(m, Trans(f(a), Lbl("lam"), f(b)))  # M then P
    assert not satisfies(m, Trans(b, Lbl("lam"), a))


def test_initiality_of_term_model():
    th = theory(Eq(f(a), a), Eq(b, a))
    m = build_term_model(th)
    assert check_initiality(th, m)


# --- agreement: decision procedure == term model == naive closure ------------


def random_ground_theory(rng, max_atoms=6):
    def random_term(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice([a, b])
        return f(random_term(depth - 1))

    def random_atom():
        if rng.random() < 0.5:
            return Eq(random_term(2), random_term(2))
        return Trans(random_term(2), Lbl(rng.choice(["lam", "mu"])),
                     random_term(2))

    atoms = tuple(random_atom() for _ in range(rng.randint(0, max_atoms)))
    return theory(*atoms), random_atom


@settings(max_examples=60, deadline=None)
@given(st.lists(ground_atom_strategy(), max_size=5), ground_atom_strategy())
def test_decide_basic_matches_naive_closure(atoms, goal):
    th = theory(*atoms)
    universe = set()
    for phi in list(atoms) + [goal]:
        for t in (phi.left, phi.right):
            universe |= subterms(t)
    # close the universe under one application of f so rules F/M can fire
    universe |= {f(t) for t in list(universe)}
    derived = decide_basic(th, goal).holds
    assert derived == oracle_holds(atoms, goal, universe)


@settings(max_examples=60, deadline=None)
@given(st.lists(ground_atom_strategy(), max_size=5), ground_atom_strategy())
def test_decide_basic_matches_term_model(atoms, goal):
    th = theory(*atoms)
    m = build_term_model(th)
    if isinstance(m, Unbounded):
        return
    assert decide_basic(th, goal).holds == satisfies(m, goal)
