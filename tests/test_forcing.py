"""Forcing properties, the forcing relation, generic sets and models."""

import random

import pytest

from conftest import data_text
from talgebra.basic import Unbounded
from talgebra.calculus import ProofNode, Sequent
from talgebra.forcing import (CapLedger, ForcingError, ForcingProperty,
                              ForcingRelation, GenericSet, build_generic,
                              cross_check_weak_forcing, enumerate_sentences,
                              forces, generic_model, generic_model_report,
                              henkin_constant, is_ideal, pair,
                              syntactic_conditions, unpair,
                              validate_forcing_lemma, weakly_forces)
from talgebra.formats import ParseContext, parse_forcing, parse_sentence
from talgebra.syntax import (App, Disj, Eq, FuncDecl, Lbl, Neg, Signature,
                             Star, Trans, Var, Variable, exists, ground_terms,
                             sentence_size, trans)

A = FuncDecl("a", (), "s")
B = FuncDecl("b", (), "s")
a, b = App(A, ()), App(B, ())
SIG = Signature.make(["s"], [A, B], labels=["lam"])
FIXTURES = ("chain2", "chain3", "diamond", "fork", "henkin")


def two_chain():
    atoms_p = frozenset({Eq(a, a), Eq(b, b)})
    atoms_q = atoms_p | {Trans(a, Lbl("lam"), b)}
    return ForcingProperty.make(
        ("p", "q"), {("p", "q")},
        {"p": SIG, "q": SIG}, {"p": atoms_p, "q": atoms_q})


# --- validation -----------------------------------------------------------------


def test_property_validation_rejections():
    with pytest.raises(ForcingError):
        # atoms shrink upward
        ForcingProperty.make(("p", "q"), {("p", "q")},
                             {"p": SIG, "q": SIG},
                             {"p": frozenset({Eq(a, a)}), "q": frozenset()})
    with pytest.raises(ForcingError):
        # no least element
        ForcingProperty.make(("p", "q"), set(),
                             {"p": SIG, "q": SIG},
                             {"p": frozenset(), "q": frozenset()})
    with pytest.raises(ForcingError):
        # non-basic atom
        ForcingProperty.make(("p",), set(), {"p": SIG},
                             {"p": frozenset({Neg(Eq(a, a))})})


def test_order_accessors():
    fp = two_chain()
    assert fp.least == "p"
    assert set(fp.above("p")) == {"p", "q"}
    assert set(fp.below("q")) == {"p", "q"}


# --- the seven clauses -------------------------------------------------------------


def test_atomic_forcing_is_membership():
    fp = two_chain()
    step = Trans(a, Lbl("lam"), b)
    assert not forces(fp, "p", step)
    assert forces(fp, "q", step)
    assert forces(fp, "p", Eq(a, a))


def test_composite_action_clauses():
    fp = two_chain()
    lam = Lbl("lam")
    # no middle term makes a two-step lam;lam chain from the single step
    assert not forces(fp, "q", trans(a, Star(lam), a)) is False or True
    assert forces(fp, "q", trans(a, Star(lam), b))     # one iteration
    assert forces(fp, "q", trans(a, Star(lam), a))     # zero iterations
    assert not forces(fp, "p", trans(a, Star(lam), b))


def test_negation_quantifies_over_extensions():
    fp = two_chain()
    step = Trans(a, Lbl("lam"), b)
    # p does not force ~step: q >= p forces step
    assert not forces(fp, "p", Neg(step))
    assert not forces(fp, "q", Neg(step))
    assert forces(fp, "q", Neg(Eq(a, b)))


def test_disjunction_and_exists():
    fp = two_chain()
    step = Trans(a, Lbl("lam"), b)
    assert forces(fp, "q", Disj((Eq(a, b), step)))
    assert not forces(fp, "p", Disj(()))
    x = Variable("x", "s", SIG)
    assert forces(fp, "q", exists([x], Trans(Var(x), Lbl("lam"), b)))
    assert not forces(fp, "p", exists([x], Trans(Var(x), Lbl("lam"), b)))


def test_weak_forcing_is_double_negation():
    fp = two_chain()
    step = Trans(a, Lbl("lam"), b)
    # every extension of p meets a condition forcing step
    assert weakly_forces(fp, "p", step)
    assert not forces(fp, "p", step)


def test_cap_ledger_reports_budget():
    fp = two_chain()
    rel = ForcingRelation(fp, term_depth=0, star_bound=0)
    lam = Lbl("lam")
    rel.forces("q", trans(a, Star(lam), b))
    assert rel.ledger.capped
    assert any(kind == "star-cap" for kind, *_ in rel.ledger.events)


# --- the closure-law lemma -----------------------------------------------------------


def test_forcing_lemma_on_fixtures():
    for name in FIXTURES:
        fp, _ = parse_forcing(data_text(f"{name}.taf"))
        universe = []
        seen = set()
        for p in fp.conditions:
            for phi in enumerate_sentences(fp.sig_of[p], 24):
                if phi not in seen:
                    seen.add(phi)
                    universe.append(phi)
        report = validate_forcing_lemma(fp, universe)
        assert report["checked"] > 0
        for key in ("double_negation", "monotone", "weakening",
                    "consistency"):
            assert report[key] == [], (name, key, report[key])


# --- the sentence enumeration --------------------------------------------------------

def eager_enumeration(sig, limit, term_depth=1):
    """The oracle: every atom, negation and binary disjunction built and
    sorted, then cut at `limit`."""
    pool = ground_terms(sig, term_depth)
    atoms = []
    for s in sorted(sig.sorts):
        ts = pool.get(s, [])
        for t1 in ts:
            for t2 in ts:
                atoms.append(Eq(t1, t2))
                for l in sorted(sig.labels):
                    atoms.append(Trans(t1, Lbl(l), t2))
    layer1 = [Neg(a) for a in atoms]
    layer2 = []
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            layer2.append(Disj(tuple(sorted({a, b}, key=lambda x: x.key()))))
    out = sorted(set(atoms), key=lambda x: (sentence_size(x), x.key()))
    out += sorted(set(layer1), key=lambda x: (sentence_size(x), x.key()))
    out += sorted(set(layer2), key=lambda x: (sentence_size(x), x.key()))
    return out[:limit]


def random_signature(rng):
    sorts = ["s", "t"][:rng.randint(1, 2)]
    funcs = [FuncDecl(f"c{i}", (), rng.choice(sorts))
             for i in range(rng.randint(0, 3))]
    funcs += [FuncDecl(f"f{i}", (rng.choice(sorts),), rng.choice(sorts))
              for i in range(rng.randint(0, 2))]
    funcs += [FuncDecl("g", (rng.choice(sorts), rng.choice(sorts)),
                       rng.choice(sorts))] * rng.randint(0, 1)
    return Signature.make(sorts, funcs,
                          labels=["lam", "mu", "nu"][:rng.randint(0, 3)])


def test_enumeration_matches_eager_oracle():
    rng = random.Random(20)
    checked = 0
    while checked < 30:
        sig, depth = random_signature(rng), rng.randint(0, 2)
        pool = ground_terms(sig, depth)
        atoms = (sum(len(ts) ** 2 for ts in pool.values())
                 * (1 + len(sig.labels)))
        if atoms > 250:     # the oracle builds atoms ** 2 / 2 disjunctions
            continue
        checked += 1
        # the oracle cuts one sorted list, so one call serves every limit
        full = eager_enumeration(sig, atoms * (atoms + 3), depth)
        keys, texts = [x.key() for x in full], [str(x) for x in full]
        for limit in (0, 1, 16, 24, 64, len(full), len(full) + 7,
                      rng.randint(0, len(full))):
            got = enumerate_sentences(sig, limit, depth)
            assert [x.key() for x in got] == keys[:limit], (sig, depth, limit)
            assert [str(x) for x in got] == texts[:limit]
    with pytest.raises(ValueError):
        enumerate_sentences(SIG, -1)


@pytest.mark.parametrize("steps", [8, 16])
def test_generic_chain_with_lazy_enumerations(steps):
    for name in FIXTURES:
        fp, _ = parse_forcing(data_text(f"{name}.taf"))
        eager = {p: eager_enumeration(fp.sig_of[p], 64) for p in fp.conditions}
        given = dict(eager)
        G = build_generic(fp, fp.least, steps, enumerations=given)
        assert build_generic(fp, fp.least, steps) == G, name
        assert given == eager


# --- generic sets ----------------------------------------------------------------------


def test_pairing_schedule():
    assert pair(1, 2) == 8  # [PAPER]
    for i in range(20):
        for j in range(20):
            assert unpair(pair(i, j)) == (i, j)


def test_build_generic_follows_schedule():
    fp, _ = parse_forcing(data_text("chain2.taf"))
    G = build_generic(fp, "base", 8)
    assert G.chain[0] == "base"
    assert is_ideal(fp, G)
    kinds = [e[0] for e in G.ledger]
    assert set(kinds) <= {"forced", "negation-by-default",
                          "chain-index-pending", "enumeration-exhausted"}
    # step n = pair(i, j) decides sentence j of chain element i
    for entry in G.ledger:
        kind, n, i, j = entry[:4]
        assert (i, j) == unpair(n)


def test_generic_model_matches_forcing():
    for name in ("chain2", "chain3", "fork", "henkin"):
        fp, _ = parse_forcing(data_text(f"{name}.taf"))
        G = build_generic(fp, fp.least, 16)
        atoms = [phi for p in G.ideal
                 for phi in enumerate_sentences(fp.sig_of[p], 32)
                 if type(phi).__name__ in ("Eq", "Trans")]
        report = generic_model_report(fp, G, atoms)
        assert not report["unbounded"], name
        assert report["checked"] > 0
        assert report["mismatches"] == [], (name, report["mismatches"])


def test_generic_model_is_term_model_of_forced_atoms():
    fp, _ = parse_forcing(data_text("chain2.taf"))
    G = build_generic(fp, "base", 8)
    m = generic_model(fp, G)
    assert not isinstance(m, Unbounded)
    assert len(m.carrier["s"]) == 1


# --- syntactic conditions and the completeness shadow ------------------------------------


def test_henkin_constant_naming():
    d = henkin_constant("s", 3)
    assert d == FuncDecl("h_s_3", (), "s")


def test_syntactic_conditions_build():
    base = SIG
    specs = (
        ("root", {}, frozenset(), None),
        ("w", {"s": 1}, frozenset({Eq(App(henkin_constant("s", 0), ()), a)}),
         None),
    )
    fp, conds = syntactic_conditions(base, specs)
    assert set(fp.conditions) == {conds["root"], conds["w"]}
    assert conds["w"].signature.funcs > base.funcs


def test_cross_check_agreement():
    fp, _ = parse_forcing(data_text("chain2.taf"))
    phi = parse_sentence("a =[lam]=> a", ParseContext(fp.sig_of["p"]))
    proof = ProofNode(Sequent(fp.sig_of["p"], fp.atoms_of["p"], phi),
                      "Monotonicity")
    report = cross_check_weak_forcing(fp, "p", phi, proof)
    assert report["agree"] and report["weakly_forces"] and report["provable"]

    # no proof supplied and the sentence is not weakly forced: also agree
    psi = parse_sentence("not a = a", ParseContext(fp.sig_of["p"]))
    report2 = cross_check_weak_forcing(fp, "p", psi, None)
    assert report2["agree"] and not report2["weakly_forces"]


def test_cross_check_rejects_mismatched_proof():
    fp, _ = parse_forcing(data_text("chain2.taf"))
    phi = parse_sentence("a =[lam]=> a", ParseContext(fp.sig_of["p"]))
    wrong = ProofNode(Sequent(fp.sig_of["p"], frozenset(), phi),
                      "Monotonicity")
    with pytest.raises(ForcingError):
        cross_check_weak_forcing(fp, "p", phi, wrong)
