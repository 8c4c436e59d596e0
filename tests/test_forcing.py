"""Forcing properties, the forcing relation, generic sets and models."""

import random
import zlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (data_text, ground_atom_strategy, random_action,
                      sentence_strategy)
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
from talgebra.syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                             Pow, Seq, Signature, Star, SymExp, Trans, Var,
                             Variable, exists, ground_terms,
                             power, sentence_size, trans)

A = FuncDecl("a", (), "s")
B = FuncDecl("b", (), "s")
F = FuncDecl("f", ("s",), "s")
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


def test_atom_checked_at_the_condition_that_introduces_it(monkeypatch):
    """An atom is checked against the signature of each condition that holds
    it and no condition below it, so one that does not fit there is still
    rejected, also when the conditions above it would take it."""
    C = FuncDecl("c", (), "s")
    big = Signature.make(["s"], [A, B, C], labels=["lam"])
    atom = Eq(App(C, ()), App(C, ()))
    starred = Trans(a, Star(Lbl("lam")), b)
    for low, high, sig_q, where in (
            ({atom}, {atom}, big, "p"),            # c is not declared at p
            (set(), {atom, starred}, big, "q")):   # not atomic where it enters
        with pytest.raises(ForcingError, match=f"signature of {where}$"):
            ForcingProperty.make(("p", "q"), {("p", "q")},
                                 {"p": SIG, "q": sig_q},
                                 {"p": frozenset(low), "q": frozenset(high)})
    text = ("sorts s\nops\n  a : -> s\nlabels lam\ncondition base\n"
            "  atom a = a\ncondition p extends base\n  atom a =[lam*]=> a\n"
            "condition q extends p\n  atom a =[lam]=> a\n")
    with pytest.raises(ForcingError, match="signature of p$"):
        parse_forcing(text)
    # each atom is checked once, at the condition where it enters
    import talgebra.forcing as forcing
    checked = []
    basic = forcing._is_basic
    monkeypatch.setattr(forcing, "_is_basic",
                        lambda phi, sig: checked.append(phi) or basic(phi, sig))
    fp = ForcingProperty.make(
        ("p", "q", "r"), {("p", "q"), ("p", "r")}, {c: SIG for c in "pqr"},
        {"p": frozenset({Eq(a, a)}), "q": frozenset({Eq(a, a), Eq(b, b)}),
         "r": frozenset({Eq(a, a), Trans(a, Lbl("lam"), b)})})
    assert sorted(map(str, checked)) == ["a = a", "a =[lam]=> b", "b = b"]
    assert fp.least == "p"


def test_order_accessors():
    fp = two_chain()
    assert fp.least == "p"
    assert set(fp.above("p")) == {"p", "q"}
    assert set(fp.below("q")) == {"p", "q"}


class CountingOrder(frozenset):
    """An order relation that counts its membership tests."""
    lookups = 0

    def __contains__(self, pair):
        CountingOrder.lookups += 1
        return super().__contains__(pair)


@st.composite
def random_posets(draw):
    """Conditions in a shuffled order under the reflexive-transitive closure
    of random edges from earlier to later-numbered conditions, with c0 below
    every other."""
    n = draw(st.integers(1, 7))
    names = [f"c{i}" for i in range(n)]
    edges = {("c0", c) for c in names[1:]}
    edges |= {(names[i], names[j]) for i, j in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        if i < j}
    return draw(st.permutations(names)), edges


@given(random_posets())
def test_order_tables_match_leq_scan(poset):
    order, edges = poset
    plain = ForcingProperty.make(order, edges, {c: SIG for c in order},
                                 {c: frozenset() for c in order})
    fp = ForcingProperty(plain.conditions, CountingOrder(plain.leq),
                         plain.sig_of, plain.atoms_of)
    for p in order:
        assert fp.above(p) == tuple(q for q in order if (p, q) in plain.leq)
        assert fp.below(p) == tuple(q for q in order if (q, p) in plain.leq)
    # both tables were built while the property checked itself, once
    CountingOrder.lookups = 0
    for p in order * 3:
        assert type(fp.above(p)) is tuple and type(fp.below(p)) is tuple
        assert fp.least == "c0"
    assert CountingOrder.lookups == 0
    # each property keeps its own tables
    assert plain.above("c0") == fp.above("c0")
    assert plain.above("c0") is not fp.above("c0")


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


# --- compound actions: one relation against the goal-directed search -----------


class GoalDirectedForcing(ForcingRelation):
    """The oracle: compound actions read goal-directed, one sentence at a
    time. A `;` searches the pool for a middle term, a `*` tries the powers
    a^0 .. a^cap one sentence each, and every failed search records an
    event, the intermediate ones included."""

    def _eval(self, p, phi):
        if not isinstance(phi, Trans) or isinstance(phi.action, Lbl):
            return super()._eval(p, phi)
        act, pool = phi.action, self.terms_of(p).get(phi.sort, [])
        if isinstance(act, Alt):
            return (self.forces(p, Trans(phi.left, act.left, phi.right))
                    or self.forces(p, Trans(phi.left, act.right, phi.right)))
        if isinstance(act, Seq):
            hit = any(self.forces(p, Trans(phi.left, act.left, t))
                      and self.forces(p, Trans(t, act.right, phi.right))
                      for t in pool)
            kind, bound = "middle-term-depth", self.term_depth
        else:
            kind, bound = "star-cap", max(1, len(pool))
            hit = any(self.forces(p, trans(phi.left, power(act.body, n),
                                           phi.right))
                      for n in range(bound + 1))
        if not hit:
            self.ledger.record(kind, p, phi, bound)
        return hit


def deep_property():
    """Atoms over a unary symbol, so that middle terms and the star's
    powers reach past a shallow pool, and equations between distinct terms
    make the identity of a star. From f(f(a)) to f(a) along mu takes three
    steps, through b and a: one more than a pool of depth 0 allows."""
    fa = App(F, (a,))
    ffa = App(F, (fa,))
    sig = Signature.make(["s"], [A, B, F], labels=["lam", "mu"])
    lam, mu = Lbl("lam"), Lbl("mu")
    low = {Eq(a, a), Eq(fa, b), Trans(a, lam, fa), Trans(fa, lam, ffa),
           Trans(ffa, mu, b), Trans(b, mu, a), Trans(a, mu, fa)}
    high = low | {Eq(b, fa), Trans(ffa, lam, ffa), Trans(b, lam, a),
                  Trans(fa, mu, fa)}
    return ForcingProperty.make(("p", "q"), {("p", "q")},
                                {"p": sig, "q": sig},
                                {"p": frozenset(low), "q": frozenset(high)})


def random_transition(rng, sig, terms):
    """A transition between terms of `terms` along an action of depth <= 3,
    sometimes with one side an existential's variable."""
    act = random_action(rng, sorted(sig.labels), 3)
    left, right = rng.choice(terms), rng.choice(terms)
    if rng.random() < 0.3:
        x = Variable("x", left.sort, sig)
        return exists([x], rng.choice((Trans(left, act, Var(x)),
                                       Trans(Var(x), act, right))))
    return Trans(left, act, right)


@pytest.mark.parametrize("term_depth", [0, 1, 2])
def test_relation_matches_goal_directed_oracle(term_depth):
    rng = random.Random(term_depth)
    cases = [(name, parse_forcing(data_text(f"{name}.taf"))[0])
             for name in FIXTURES] + [("deep", deep_property())]
    only_oracle = 0
    for name, fp in cases:
        for p in fp.conditions:
            sig = fp.sig_of[p]
            terms = [t for ts in ground_terms(sig, 2).values() for t in ts]
            stars = [Trans(t, Star(Lbl(l)), u) for l in sorted(sig.labels)
                     for t in terms for u in terms]
            for phi in stars + [random_transition(rng, sig, terms)
                                for _ in range(30)]:
                for query in ("forces", "weakly_forces"):
                    rel = ForcingRelation(fp, term_depth)
                    oracle = GoalDirectedForcing(fp, term_depth)
                    got = getattr(rel, query)(p, phi)
                    assert got == getattr(oracle, query)(p, phi), (
                        name, p, str(phi), query)
                    # capped only where the oracle's search was capped too
                    assert oracle.ledger.capped or not rel.ledger.capped
                    only_oracle += oracle.ledger.capped > rel.ledger.capped
    assert only_oracle > 0


def test_cap_ledger_reports_budget():
    fp = two_chain()
    lam = Lbl("lam")
    # pool {a, b}: the star's cap is 2, the middle terms' depth the default 2
    for act, kind in ((Star(lam), "star-cap"),
                      (Seq(lam, lam), "middle-term-depth"),
                      (Seq(lam, Star(lam)), "star-cap")):
        rel = ForcingRelation(fp)
        phi = Trans(b, act, a)
        assert not rel.forces("q", phi)
        assert rel.ledger.events == [(kind, "q", str(phi), 2)]
    # labels and their unions decide without a bound
    rel = ForcingRelation(fp)
    assert not rel.forces("q", Trans(b, Alt(lam, lam), a))
    assert not rel.ledger.capped


def test_forced_transition_is_not_capped():
    fp = two_chain()
    lam = Lbl("lam")
    # forced through its second branch; the first, a =[lam ; lam]=> b, is
    # false, and the middle-term search recorded that
    phi = Trans(a, Alt(Seq(lam, lam), lam), b)
    rel, oracle = ForcingRelation(fp), GoalDirectedForcing(fp)
    assert rel.forces("q", phi) and oracle.forces("q", phi)
    assert oracle.ledger.capped
    assert not rel.ledger.capped


def test_symbolic_exponent_rejected():
    fp = two_chain()
    with pytest.raises(ForcingError, match="symbolic exponent"):
        forces(fp, "q", Trans(a, Alt(Lbl("lam"), Pow(Lbl("lam"), SymExp("k"))),
                              b))


def test_fixture_atoms_are_those_of_the_conditions_below():
    # the oracle: the atom lines of every condition below, each parsed again
    # in the condition's own signature
    for name in FIXTURES:
        text = data_text(f"{name}.taf")
        fp, _ = parse_forcing(text)
        lines, current = {}, None
        for line in text.splitlines():
            words = line.split()
            if words[:1] == ["condition"]:
                current = words[1]
                lines[current] = []
            elif words[:1] == ["atom"]:
                lines[current].append(line.split("atom", 1)[1])
        for p in fp.conditions:
            ctx = ParseContext(fp.sig_of[p])
            want = {parse_sentence(text, ctx) for q in fp.below(p)
                    for text in lines[q]}
            assert fp.atoms_of[p] == want, (name, p)


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


def plain_fits(x, sig, bound=frozenset()):
    """The oracle of fit: a recursive walk over terms, actions and
    sentences."""
    if isinstance(x, Var):
        return x.var in bound
    if isinstance(x, App):
        return x.decl in sig.funcs and all(plain_fits(a, sig, bound)
                                           for a in x.args)
    if isinstance(x, Lbl):
        return x.name in sig.labels
    if isinstance(x, (Eq, Trans, Seq, Alt)):
        return (plain_fits(x.left, sig, bound)
                and plain_fits(x.right, sig, bound)
                and (not isinstance(x, Trans)
                     or plain_fits(x.action, sig, bound)))
    if isinstance(x, (Neg, Star, Pow)):
        return plain_fits(x.body, sig, bound)
    if isinstance(x, Disj):
        return all(plain_fits(s, sig, bound) for s in x.items)
    assert isinstance(x, Exists)
    return (all(v.sort in sig.sorts for v in x.variables)
            and plain_fits(x.body, sig, bound | x.variables))


def plain_validate(fp, universe, term_depth=2):
    """The oracle: each law checked at each condition and sentence afresh,
    with new negations and a new density scan every time."""
    rel = ForcingRelation(fp, term_depth)
    report = {"double_negation": [], "monotone": [], "weakening": [],
              "consistency": [], "checked": 0}
    for p in fp.conditions:
        for phi in universe:
            if not plain_fits(phi, fp.sig_of[p]):
                continue
            report["checked"] += 1
            f = rel.forces(p, phi)
            nn = rel.forces(p, Neg(Neg(phi)))
            dense = all(any(rel.forces(r, phi) for r in fp.above(q))
                        for q in fp.above(p))
            if nn != dense:
                report["double_negation"].append((p, str(phi)))
            for q in fp.above(p):
                if f and not rel.forces(q, phi):
                    report["monotone"].append((p, q, str(phi)))
            if f and not nn:
                report["weakening"].append((p, str(phi)))
            if f and rel.forces(p, Neg(phi)):
                report["consistency"].append((p, str(phi)))
    return report


def flipped(kind):
    """An `_eval` that gives the wrong answer on about a third of the
    (condition, sentence) pairs whose sentence is a `kind` (a class or a
    tuple of them, none for `()`), the same pairs in every relation."""
    right = ForcingRelation._eval

    def _eval(self, p, phi):
        wrong = (isinstance(phi, kind)
                 and zlib.crc32(f"{p} {phi}".encode()) % 3 == 0)
        return right(self, p, phi) != wrong
    return _eval


LAWS = ("double_negation", "monotone", "weakening", "consistency")


def test_validate_matches_plain_loop_on_fixtures():
    """validate's per-sentence negations, density memo and vocabularies give
    the plain loop's report: on the fixtures, where the lemma holds, and
    under a relation with wrong answers, where every law breaks somewhere
    and where a wrong answer of the Neg clause alone must show as a
    double-negation violation against density read from forces(r, phi)."""
    broken = dict.fromkeys(LAWS, 0)
    for name in FIXTURES:
        fp, _ = parse_forcing(data_text(f"{name}.taf"))
        universe = list(dict.fromkeys(
            phi for p in fp.conditions
            for phi in enumerate_sentences(fp.sig_of[p], 24)))
        for kind in ((), object, Neg):
            with mock.patch.object(ForcingRelation, "_eval", flipped(kind)):
                got = validate_forcing_lemma(fp, universe)
                assert got == plain_validate(fp, universe), (name, kind)
            assert got["checked"] > 0
            if kind == ():
                assert not any(got[law] for law in LAWS), name
            elif kind is object:
                for law in LAWS:
                    broken[law] += len(got[law])
            else:
                assert got["double_negation"], name
    assert all(broken.values()), broken


@st.composite
def forcing_trees(draw):
    """Up to five conditions, each above one or two earlier ones, whose
    signatures and ground atoms grow along the order."""
    n = draw(st.integers(1, 5))
    names = [f"c{i}" for i in range(n)]
    parents = {names[i]: draw(st.lists(st.sampled_from(names[:i]),
                                       min_size=1, max_size=2, unique=True))
               for i in range(1, n)}
    sig_of, atoms_of = {}, {}
    for p in names:
        below = [sig_of[q] for q in parents.get(p, ())]
        funcs = set(draw(st.lists(st.sampled_from([A, B, F]), max_size=2)))
        labels = set(draw(st.lists(st.sampled_from(["lam", "mu"]),
                                   max_size=1)))
        sig = Signature.make(["s"], funcs.union(*(s.funcs for s in below)),
                             labels=labels.union(*(s.labels for s in below)))
        atoms = frozenset().union(*(atoms_of[q] for q in parents.get(p, ())))
        atoms |= {phi for phi in draw(st.lists(ground_atom_strategy(),
                                               max_size=4))
                  if plain_fits(phi, sig)}
        sig_of[p], atoms_of[p] = sig, atoms
    edges = {(q, p) for p, qs in parents.items() for q in qs}
    return ForcingProperty.make(names, edges, sig_of, atoms_of)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forcing_trees(), st.lists(sentence_strategy(), max_size=6),
       st.sampled_from([(), object, Neg]))
def test_validate_matches_plain_loop_on_random_trees(fp, extra, kind):
    universe = list(dict.fromkeys(
        [phi for p in fp.conditions
         for phi in enumerate_sentences(fp.sig_of[p], 10)] + extra))
    with mock.patch.object(ForcingRelation, "_eval", flipped(kind)):
        assert (validate_forcing_lemma(fp, universe, 1)
                == plain_validate(fp, universe, 1))


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
