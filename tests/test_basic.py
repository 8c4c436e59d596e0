"""Congruence-closure decision procedure and quotient term models."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, B, F, SIG, ground_atom_strategy
from talgebra.basic import (CongruenceState, GroundTheory, NotAtomicError,
                            Unbounded, build_term_model, check_initiality,
                            decide_basic)
from talgebra.semantics import satisfies
from talgebra.syntax import (App, Eq, FuncDecl, Lbl, Neg, Signature, Trans,
                             subterms)

a = App(A, ())
b = App(B, ())


def f(t):
    return App(F, (t,))


def theory(*atoms):
    return GroundTheory(SIG, tuple(atoms))


# --- independent oracle: naive forward closure -------------------------------


def naive_closure(atoms, universe, mono=SIG.mono):
    """Saturate equations and transitions over a fixed term universe by rule
    application to a fixpoint. Independent of the union-find implementation.
    Terms are numbered first, so that no set below hashes a deep term."""
    terms = list(universe)
    num = {t: i for i, t in enumerate(terms)}
    args = [tuple(num[x] for x in t.args) for t in terms]
    eqs = {(i, i) for i in range(len(terms))}
    trs = set()
    for phi in atoms:
        if isinstance(phi, Eq):
            eqs.add((num[phi.left], num[phi.right]))
        else:
            trs.add((phi.action.name, num[phi.left], num[phi.right]))
    labels = {l for l, _, _ in trs}
    same_op = [(v, w) for v, tv in enumerate(terms)
               for w, tw in enumerate(terms)
               if tv.args and tv.decl == tw.decl]
    changed = True
    while changed:
        succ = {}
        for t, u in eqs:
            succ.setdefault(t, set()).add(u)
        new_eqs = {(u, t) for t, u in eqs}                             # S
        new_eqs |= {(t, v) for t, u in eqs for v in succ[u]}           # T
        new_trs = set()
        for v, w in same_op:
            equal = [(x, y) in eqs for x, y in zip(args[v], args[w])]
            if all(equal):                                             # F
                new_eqs.add((v, w))
            if terms[v].decl not in mono:
                continue
            for k in range(len(equal)):                                # M
                if all(equal[:k] + equal[k + 1:]):
                    new_trs |= {(l, v, w) for l in labels
                                if (l, args[v][k], args[w][k]) in trs}
        for (l, t, u) in trs:                                          # P
            new_trs |= {(l, t2, u) for t2 in succ[t]}
            new_trs |= {(l, t, u2) for u2 in succ[u]}
        changed = not (new_eqs <= eqs and new_trs <= trs)
        eqs |= new_eqs
        trs |= new_trs
    return ({(terms[t], terms[u]) for t, u in eqs},
            {(l, terms[t], terms[u]) for l, t, u in trs})


def closure_holds(closure, goal):
    eqs, trs = closure
    if isinstance(goal, Eq):
        return (goal.left, goal.right) in eqs
    # P has closed the transitions under the congruence on both endpoints
    return (goal.action.name, goal.left, goal.right) in trs


def oracle_holds(atoms, goal, universe, mono=SIG.mono):
    return closure_holds(naive_closure(atoms, universe, mono), goal)


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


def test_term_model_names_each_class_by_its_least_term():
    # b joins the class of f(a), the larger of the two classes
    m = build_term_model(theory(Eq(f(f(a)), a), Eq(b, f(a))))
    assert m.carrier["s"] == ("a", "b")
    assert m.func_table[F][("b",)] == "a"


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


# --- the ground workload's signature: constants a, b, c, monotonic f and g --

C = FuncDecl("c", (), "s")
G = FuncDecl("g", ("s", "s"), "s")
GSIG = Signature.make(["s"], [A, B, C, F, G], mono=[F, G],
                      labels=["lam", "mu"])
c = App(C, ())


def random_gsig_theory(rng, max_atoms=16):
    """A random theory over GSIG with terms of depth at most 3.  About half
    of them map each f(x) and g(x, y) over the constants to a constant, so
    that their term model is finite; `collapse` says which."""
    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([a, b, c])
        if rng.random() < 0.6:
            return f(term(depth - 1))
        return App(G, (term(depth - 1), term(depth - 1)))

    def atom():
        left, right = term(rng.randrange(4)), term(rng.randrange(4))
        if rng.random() < 0.4:
            return Eq(left, right)
        return Trans(left, Lbl(rng.choice(["lam", "mu"])), right)

    atoms = [atom() for _ in range(rng.randint(0, max_atoms))]
    collapse = rng.random() < 0.5
    if collapse:
        consts = [a, b, c]
        atoms = [Eq(f(x), rng.choice(consts)) for x in consts] + [
            Eq(App(G, (x, y)), rng.choice(consts))
            for x in consts for y in consts][:max_atoms - 3] + atoms[:4]
    return GroundTheory(GSIG, tuple(atoms)), atom, collapse


def _universe(atoms):
    out = set()
    for phi in atoms:
        out |= subterms(phi.left) | subterms(phi.right)
    return out


def test_merge_after_step_lifts_through_new_context():
    # c = f(c) comes after a =[lam]=> b and makes the other argument of
    # each pair of g-applications equal; the class of f(c) moves, so the
    # application over f(c) is rechecked as the target of the lifted step
    # (right = f(c)) or as its source (left = f(c))
    lam = Lbl("lam")
    th = GroundTheory(GSIG, (Trans(a, lam, b), Eq(c, f(c))))
    for left, right in [(c, f(c)), (f(c), c)]:
        goal = Trans(App(G, (a, left)), lam, App(G, (b, right)))
        assert decide_basic(th, goal).holds
        goal = Trans(App(G, (left, a)), lam, App(G, (right, b)))
        assert decide_basic(th, goal).holds
    assert not decide_basic(th, Trans(App(G, (a, c)), Lbl("mu"),
                                      App(G, (b, f(c))))).holds


def test_add_terms_lifts_existing_steps():
    state = CongruenceState({a, b}, GSIG)
    state.assume(Trans(a, Lbl("lam"), b))
    state.add_terms([f(a), f(b), c, App(G, (c, a)), App(G, (c, b))])
    assert state.holds(Trans(f(a), Lbl("lam"), f(b)))
    assert state.holds(Trans(App(G, (c, a)), Lbl("lam"), App(G, (c, b))))
    assert not state.holds(Trans(f(b), Lbl("lam"), f(a)))


def test_decide_basic_matches_oracles_on_ground_signature():
    rng = random.Random(20261018)
    for _ in range(100):
        th, atom, collapse = random_gsig_theory(rng)
        goals = [atom() for _ in range(3)]
        if th.atoms:
            # one goal that rule F or M lifts from an atom of the theory
            phi = rng.choice(th.atoms)
            other = rng.choice([None, a, c])
            lift = lambda t: f(t) if other is None else App(G, (t, other))
            if isinstance(phi, Eq):
                goals.append(Eq(lift(phi.left), lift(phi.right)))
            else:
                goals.append(Trans(lift(phi.left), phi.action,
                                   lift(phi.right)))
        universe = _universe(list(th.atoms) + goals)
        closure = naive_closure(th.atoms, universe, GSIG.mono)
        model = build_term_model(th) if collapse else None
        assert not isinstance(model, Unbounded)
        for goal in goals:
            holds = decide_basic(th, goal).holds
            assert holds == closure_holds(closure, goal), (th.atoms, goal)
            if model is not None:
                assert holds == satisfies(model, goal), (th.atoms, goal)


def test_trace_is_sound():
    rng = random.Random(6)
    for _ in range(40):
        th, atom, _ = random_gsig_theory(rng)
        goal = atom()
        universe = _universe(list(th.atoms) + [goal])
        state = CongruenceState(universe, GSIG)
        for phi in th.atoms:
            state.assume(phi)
        premises = [s.derived for s in state.trace if s.rule == "premise"]
        # the premises are the atoms that changed the state, in assume order
        atoms = iter(th.atoms)
        assert all(phi in atoms for phi in premises)
        assert set(premises) == state._used
        closure = naive_closure(th.atoms, universe, GSIG.mono)
        for step in state.trace:
            if step.rule == "premise":
                continue
            assert step.rule in ("F", "M")
            for fact in (step.derived,) + (
                    step.premises if step.rule == "M" else ()):
                assert state.holds(fact), step
                assert closure_holds(closure, fact), step
        result = decide_basic(th, goal)
        assert [s.derived for s in result.trace
                if s.rule == "premise"] == premises
        if result.holds:
            assert result.used_premises == tuple(
                phi for phi in th.atoms if phi in state._used)
