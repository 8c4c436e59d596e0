"""Hand-worked cases for the benchmark's independent checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import itertools
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from talgebra.formats import ParseContext, parse_forcing, parse_sentence, \
    parse_theory
from talgebra.forcing import weakly_forces as program_weakly_forces
from talgebra.syntax import (Alt, App, Eq, FuncDecl, Lbl, Seq, Star, Trans,
                             sentence_labels)

import reference
import workloads

DATA = BENCH.parent / "src" / "talgebra" / "data"
a, b, c = (App(FuncDecl(n, (), "s"), ()) for n in "abc")
F = FuncDecl("f", ("s",), "s")
G = FuncDecl("g", ("s", "s"), "s")
lam, mu = Lbl("lam"), Lbl("mu")


def f(t):
    return App(F, (t,))


def g(t, u):
    return App(G, (t, u))


# --- ground entailment ---------------------------------------------------------


def test_toy_theory_consequences():
    # toy.ta: a = b and a =[lam]=> b, with f monotonic
    atoms = [Eq(a, b), Trans(a, lam, b)]
    mono = {F}
    assert reference.ground_entails(atoms, Trans(f(a), lam, f(b)), mono)  # M
    assert reference.ground_entails(atoms, Eq(f(a), f(b)), mono)          # F
    assert reference.ground_entails(atoms, Trans(b, lam, a), mono)        # P
    assert reference.ground_entails(atoms, Eq(b, a), mono)                # S
    assert not reference.ground_entails(atoms, Trans(a, mu, b), mono)
    assert not reference.ground_entails(atoms, Eq(f(a), a), mono)
    assert not reference.ground_entails(atoms, Trans(f(a), lam, f(b)), set())


def test_binary_monotonic_lifts_one_position_at_a_time():
    atoms = [Trans(a, lam, b)]
    assert reference.ground_entails(atoms, Trans(g(a, c), lam, g(b, c)), {G})
    assert reference.ground_entails(atoms, Trans(g(c, a), lam, g(c, b)), {G})
    # both positions at once is a two-step composite, not a single lam step
    assert not reference.ground_entails(atoms, Trans(g(a, a), lam, g(b, b)),
                                        {G})
    assert not reference.ground_entails(atoms, Trans(g(a, c), lam, g(b, c)),
                                        set())


def test_transitivity_and_congruence_chain():
    atoms = [Eq(a, f(b)), Eq(f(b), c), Trans(c, mu, a)]
    assert reference.ground_entails(atoms, Eq(a, c))                      # T
    assert reference.ground_entails(atoms, Trans(a, mu, f(b)))            # P
    assert reference.ground_entails(atoms, Eq(g(a, b), g(c, b)))          # F


# --- models and sentences ------------------------------------------------------


def test_shipped_cycle_satisfies_the_finiteness_sentence():
    theory = parse_theory((DATA / "phi_omega.ta").read_text())
    model = reference.parse_tam((DATA / "cycle3.tam").read_text())
    assert model.carrier == {"s": ["e0", "e1", "e2"]}
    assert all(reference.holds(model, phi) for phi in theory.sentences)


def test_empty_carrier_countermodel():
    theory = parse_theory((DATA / "exsound.ta").read_text())
    model = reference.parse_tam((DATA / "exsound_counter.tam").read_text())
    assert model.carrier["Elt"] == []
    goal = parse_sentence("true = false", ParseContext(theory.signature))
    assert all(reference.holds(model, phi) for phi in theory.sentences)
    assert not reference.holds(model, goal)


def test_actions_on_a_path():
    model = reference.Model({"s": [0, 1, 2]}, {"a": {(): 0}, "c": {(): 2}},
                            {"lam": {("s", 0, 1), ("s", 1, 2)},
                             "mu": set()})
    a0 = App(FuncDecl("a", (), "s"), ())
    c2 = App(FuncDecl("c", (), "s"), ())
    assert reference.holds(model, Trans(a0, Seq(lam, lam), c2))
    assert reference.holds(model, Trans(a0, Star(lam), a0))
    assert reference.holds(model, Trans(a0, Star(lam), c2))
    assert not reference.holds(model, Trans(c2, Star(lam), a0))
    assert not reference.holds(model, Trans(a0, Alt(lam, mu), c2))
    assert reference.holds(model, Trans(a0, Star(Alt(lam, mu)), c2))


def test_finiteness_sentence_agrees_with_cycle_test_on_small_graphs():
    theory = parse_theory((DATA / "phi_omega.ta").read_text())
    for n in range(1, 4):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for bits in range(1 << len(pairs)):
            edges = {p for k, p in enumerate(pairs) if bits >> k & 1}
            model = reference.Model({"s": list(range(n))}, {},
                                    {"lam": {("s", x, y) for x, y in edges}})
            assert all(reference.holds(model, phi)
                       for phi in theory.sentences) == \
                reference.is_single_cycle(n, edges)


# --- graph verdicts ------------------------------------------------------------


def test_cycle_and_near_cycles():
    assert reference.is_single_cycle(3, {(0, 1), (1, 2), (2, 0)})
    assert not reference.is_single_cycle(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
    assert not reference.is_single_cycle(3, {(0, 1), (1, 2), (2, 0), (0, 2)})
    assert not reference.is_single_cycle(3, {(0, 1), (1, 2)})
    assert reference.reachable({(0, 1), (1, 2), (3, 0)}, 0) == {0, 1, 2}


def test_generated_near_cycles_are_not_cycles():
    rng = random.Random(7)
    for n in range(6, 12):
        for kind in workloads.NEAR_CYCLE_KINDS:
            assert not reference.is_single_cycle(
                n, workloads._near_cycle(rng, n, kind))
        edges, _ = workloads._cycle_edges(rng, n)
        assert reference.is_single_cycle(n, edges)


# --- forcing -------------------------------------------------------------------


def _conditions(fixture: str) -> dict:
    """The reference form of a shipped .taf fixture."""
    fp, _ = parse_forcing((DATA / fixture).read_text())
    conds = {}
    for p in fp.conditions:
        eqs, steps = set(), set()
        for phi in fp.atoms_of[p]:
            if isinstance(phi, Eq):
                eqs.add((str(phi.left), str(phi.right)))
            else:
                steps.add((phi.action.name, str(phi.left), str(phi.right)))
        consts = tuple(sorted(d.name for d in fp.sig_of[p].funcs))
        below = tuple(q for q in fp.conditions if q != p and (q, p) in fp.leq)
        conds[p] = reference.Condition(p, below, consts, frozenset(eqs),
                                       frozenset(steps))
    return fp, conds


def test_weak_forcing_by_hand():
    _, chain2 = _conditions("chain2.taf")
    assert not reference.forces_positive(chain2["base"], Trans(a, lam, a))
    assert reference.weakly_forces(chain2, "base", Trans(a, lam, a))
    assert reference.forces_positive(chain2["base"], Trans(a, Star(lam), a))
    _, fork = _conditions("fork.taf")
    assert not reference.weakly_forces(fork, "base", Trans(a, lam, a))
    assert reference.weakly_forces(fork, "p", Trans(a, lam, a))
    _, diamond = _conditions("diamond.taf")
    assert not reference.forces_positive(diamond["p"], Trans(a, Seq(lam, mu), a))
    assert reference.forces_positive(diamond["top"], Trans(a, Seq(lam, mu), a))
    assert reference.weakly_forces(diamond, "base", Trans(a, Seq(lam, mu), a))


def test_weak_forcing_matches_the_program_on_shipped_fixtures():
    rng = random.Random(3)
    for fixture in ("chain2.taf", "chain3.taf", "diamond.taf", "fork.taf",
                    "henkin.taf"):
        fp, conds = _conditions(fixture)
        for p in fp.conditions:
            for _ in range(10):
                phi = workloads._forcing_sentence(rng, conds[p])
                if not sentence_labels(phi) <= fp.sig_of[p].labels:
                    continue
                text = parse_sentence(str(phi), ParseContext(fp.sig_of[p]))
                assert reference.weakly_forces(conds, p, phi) == \
                    program_weakly_forces(fp, p, text), (fixture, p, phi)


def test_generated_fixture_text_matches_its_conditions():
    conds = workloads._forcing_fixture(random.Random(11), 12)
    fp, _ = parse_forcing(workloads._fixture_text(conds))
    for p, cond in conds.items():
        eqs = {(str(x.left), str(x.right)) for x in fp.atoms_of[p]
               if isinstance(x, Eq)}
        steps = {(x.action.name, str(x.left), str(x.right))
                 for x in fp.atoms_of[p] if isinstance(x, Trans)}
        assert eqs == cond.eqs and steps == cond.steps
        assert {d.name for d in fp.sig_of[p].funcs} == set(cond.constants)
        # closed under basic consequence: symmetric, transitive, P-closed
        assert all((y, x) in cond.eqs for x, y in cond.eqs)
        assert all((x, z) in cond.eqs for x, y in cond.eqs
                   for y2, z in cond.eqs if y == y2)
        assert all((l, x2, y2) in cond.steps for l, x, y in cond.steps
                   for x1, x2 in cond.eqs if x1 == x
                   for y1, y2 in cond.eqs if y1 == y)


# --- CCS search ----------------------------------------------------------------


def test_search_pair_count_by_enumeration():
    # from P | Q the moves are P:a, P:b and Q:a, and every move returns to
    # P | Q; distinct (word, derivative) pairs are the distinct words
    moves = ("a", "b", "a")
    for depth in range(1, 6):
        words = {tuple(w) for k in range(1, depth + 1)
                 for w in itertools.product(moves, repeat=k)}
        assert len(words) == reference.search_pair_count(depth)
