"""Finite models, action interpretation, satisfaction, reducts, enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (A, B, F, SIG, SIG_PLAIN, data_text, model_strategy,
                      sentence_strategy)
from talgebra.formats import ParseContext, parse_model, parse_sentence, \
    parse_theory
from talgebra.semantics import (FiniteModel, ModelError, compose_relations,
                                enumerate_models, estimate_model_count,
                                find_countermodel, identity_relation,
                                interpret_action, reduct, satisfies,
                                satisfies_all, semantic_entails_bounded)
from talgebra.syntax import (Alt, App, Eq, FuncDecl, Lbl, Neg, Pow, Seq,
                             Signature, SignatureMorphism, Star, SymExp,
                             Trans, Var, Variable, exists, forall, power,
                             trans)

a = App(A, ())
b = App(B, ())

ONE_LABEL = Signature.make(["s"], [], labels=["lam"])


def rel_model(pairs, size=3, extra_labels=()):
    sig = ONE_LABEL if not extra_labels else Signature.make(
        ["s"], [], labels=["lam", *extra_labels])
    rels = {"lam": frozenset(("s", i, j) for i, j in pairs)}
    for l in extra_labels:
        rels[l] = frozenset()
    return FiniteModel(sig, {"s": tuple(range(size))}, {}, rels)


# --- action interpretation --------------------------------------------------


def test_star_of_empty_is_identity():
    m = rel_model([], size=3)
    assert interpret_action(m, Star(Lbl("lam")), "s") == \
        identity_relation(m, "s")  # [TRIVIAL]


def test_three_cycle_star_is_full():
    # x->y->z->x: reflexive-transitive closure is the full relation [DERIVED]
    m = rel_model([(0, 1), (1, 2), (2, 0)])
    full = frozenset((x, y) for x in range(3) for y in range(3))
    assert interpret_action(m, Star(Lbl("lam")), "s") == full


def test_seq_is_relational_join():
    m = rel_model([(0, 1), (1, 2)])
    assert interpret_action(m, Seq(Lbl("lam"), Lbl("lam")), "s") == \
        frozenset({(0, 2)})


def test_pow_with_symbolic_exponent_rejected():
    from talgebra.syntax import SyntaxError_
    m = rel_model([(0, 1)])
    with pytest.raises(SyntaxError_):
        interpret_action(m, Pow(Lbl("lam"), SymExp("k")), "s")


def _matrix_closure(pairs, n):
    # independent oracle: boolean matrix powering up to n steps [DERIVED]
    reach = {(i, i) for i in range(n)}
    step = set(pairs)
    frontier = set(reach)
    for _ in range(n + 1):
        frontier = {(i, k) for (i, j) in frontier for (j2, k) in step
                    if j == j2}
        before = len(reach)
        reach |= frontier
        if len(reach) == before:
            break
    return frozenset(reach)


@given(st.integers(min_value=0, max_value=2 ** 9 - 1),
       st.integers(min_value=1, max_value=3))
def test_star_matches_matrix_powering(bits, n):
    pairs = [(i, j) for i in range(n) for j in range(n)
             if bits >> (i * n + j) & 1]
    m = rel_model(pairs, size=n)
    assert interpret_action(m, Star(Lbl("lam")), "s") == \
        _matrix_closure(pairs, n)


@given(st.integers(min_value=0, max_value=2 ** 9 - 1),
       st.integers(min_value=0, max_value=2 ** 9 - 1))
def test_union_star_contains_star_seq(lam_bits, mu_bits):
    # (lam | mu)* contains lam* ; mu* pointwise [DERIVED]
    n = 3
    sig = Signature.make(["s"], [], labels=["lam", "mu"])
    rl = frozenset(("s", i, j) for i in range(n) for j in range(n)
                   if lam_bits >> (i * n + j) & 1)
    rm = frozenset(("s", i, j) for i in range(n) for j in range(n)
                   if mu_bits >> (i * n + j) & 1)
    m = FiniteModel(sig, {"s": tuple(range(n))}, {},
                    {"lam": rl, "mu": rm})
    lam, mu = Lbl("lam"), Lbl("mu")
    union_star = interpret_action(m, Star(Alt(lam, mu)), "s")
    seq_of_stars = compose_relations(interpret_action(m, Star(lam), "s"),
                                     interpret_action(m, Star(mu), "s"))
    assert seq_of_stars <= union_star


def test_star_closure_laws_exhaustive_size2():
    pairs_all = [(i, j) for i in range(2) for j in range(2)]
    for bits in range(16):
        pairs = [p for k, p in enumerate(pairs_all) if bits >> k & 1]
        m = rel_model(pairs, size=2)
        star = interpret_action(m, Star(Lbl("lam")), "s")
        assert identity_relation(m, "s") <= star
        assert compose_relations(star, star) == star  # idempotent closure


# --- satisfaction -----------------------------------------------------------


def test_monotonic_ops_checked():
    sig = Signature.make(["s"], [F, A], mono=[F], labels=["lam"])
    carrier = {"s": (0, 1)}
    table = {A: {(): 0}, F: {(0,): 1, (1,): 0}}
    # f swaps 0 and 1 but lam only relates 0->0: monotonicity fails
    with pytest.raises(ModelError):
        FiniteModel(sig, carrier, table,
                    {"lam": frozenset({("s", 0, 0)})})


def test_empty_carrier_satisfies_universal():
    # the paper's unsoundness example: all axioms hold with Elt empty,
    # true = false fails [PAPER]
    theory = parse_theory(data_text("exsound.ta"))
    m = parse_model(data_text("exsound_counter.tam"), theory.signature)
    assert satisfies_all(m, theory.sentences)
    goal = parse_sentence("true = false", ParseContext(theory.signature))
    assert not satisfies(m, goal)


def test_finiteness_sentence_on_cycle():
    theory = parse_theory(data_text("phi_omega.ta"))
    cycle = parse_model(data_text("cycle3.tam"), theory.signature)
    assert satisfies_all(cycle, theory.sentences)
    discrete = FiniteModel(theory.signature, {"s": (0, 1)}, {},
                           {"lam": frozenset()})
    assert not satisfies_all(discrete, theory.sentences)


def test_trans_with_star():
    m = rel_model([(0, 1), (1, 2)])
    sig2 = Signature.make(["s"], [A, B], labels=["lam"])
    m2 = FiniteModel(sig2, {"s": (0, 1, 2)},
                     {A: {(): 0}, B: {(): 2}}, m.label_rel)
    assert satisfies(m2, trans(a, Star(Lbl("lam")), b))
    assert not satisfies(m2, trans(b, Star(Lbl("lam")), a))
    assert satisfies(m2, trans(a, power(Lbl("lam"), 2), b))


def test_exists_and_forall():
    sig2 = Signature.make(["s"], [A], labels=["lam"])
    m = FiniteModel(sig2, {"s": (0, 1)}, {A: {(): 0}},
                    {"lam": frozenset({("s", 0, 1)})})
    x = Variable("x", "s", sig2)
    assert satisfies(m, exists([x], trans(App(A, ()), Lbl("lam"), Var(x))))
    assert not satisfies(m, forall([x], Eq(Var(x), App(A, ()))))


# --- reducts and the satisfaction condition ----------------------------------


TARGET = Signature.make(
    ["u"], [FuncDecl("c", (), "u"), FuncDecl("d", (), "u"),
            FuncDecl("g", ("u",), "u")], labels=["nu", "xi"])


def _chi(a_to, b_to, lam_to, mu_to):
    return SignatureMorphism(
        SIG_PLAIN, TARGET, {"s": "u"},
        {A: FuncDecl(a_to, (), "u"), B: FuncDecl(b_to, (), "u"),
         F: FuncDecl("g", ("u",), "u")},
        {"lam": lam_to, "mu": mu_to})


def target_model_strategy():
    def build(data):
        n, c, d, g, rl, rm = data
        carrier = {"u": tuple(range(n))}
        table = {FuncDecl("c", (), "u"): {(): c % n},
                 FuncDecl("d", (), "u"): {(): d % n},
                 FuncDecl("g", ("u",), "u"): {(i,): g[i] % n
                                              for i in range(n)}}
        rel = {"nu": frozenset(("u", i, j) for i in range(n)
                               for j in range(n) if rl >> (i * n + j) & 1),
               "xi": frozenset(("u", i, j) for i in range(n)
                               for j in range(n) if rm >> (i * n + j) & 1)}
        return FiniteModel(TARGET, carrier, table, rel)
    return st.tuples(st.integers(1, 3), st.integers(0, 8), st.integers(0, 8),
                     st.lists(st.integers(0, 8), min_size=3, max_size=3),
                     st.integers(0, 2 ** 9 - 1),
                     st.integers(0, 2 ** 9 - 1)).map(build)


@settings(max_examples=300, deadline=None)
@given(target_model_strategy(), sentence_strategy(sig=SIG_PLAIN),
       st.sampled_from(["c", "d"]), st.sampled_from(["c", "d"]),
       st.sampled_from(["nu", "xi"]), st.sampled_from(["nu", "xi"]))
def test_satisfaction_condition(m, phi, a_to, b_to, lam_to, mu_to):
    # reduct satisfies phi iff the model satisfies the translation [PAPER]
    from talgebra.syntax import sentence_vars, translate_sentence
    chi = _chi(a_to, b_to, lam_to, mu_to)
    vm = {v: Variable(v.name, "u", TARGET) for v in sentence_vars(phi)}
    if vm:
        return  # only closed sentences are satisfaction-checked
    assert satisfies(reduct(chi, m), phi) == \
        satisfies(m, translate_sentence(chi, phi))


# --- enumeration ------------------------------------------------------------


def test_enumeration_count_matches_estimate():
    sig = Signature.make(["s"], [A], labels=["lam"])
    models = list(enumerate_models(sig, 2))
    # sizes 0 (no model: constant needs an element), 1, 2:
    # 1*1*2^1 + 2*2^4 = 2 + 32 = 34 [DERIVED]
    assert len(models) == 34
    assert estimate_model_count(sig, 2) == 34


def test_estimate_model_count_pinned():
    # |result| ** |domain| tables per operation, 2 ** (carrier pairs)
    # relations per label, summed over the sizes 0..2 of every sort [DERIVED]
    s_t = ["s", "t"]
    no_constants = Signature.make(s_t, [FuncDecl("f", ("s",), "s"),
                                        FuncDecl("g", ("t",), "s")],
                                  labels=["lam"])
    constants_only = Signature.make(s_t, [A, B, FuncDecl("c", (), "t")])
    unary_labels = Signature.make(["s"], [A, F], labels=["lam", "mu"])
    # sizes (s, t): 1 + 2 + 4 + 32 + 64 + 256 + 4096, as g has one (empty)
    # table from an empty t and none into an empty s
    assert estimate_model_count(no_constants, 2) == 4455
    assert estimate_model_count(constants_only, 2) == 1 + 2 + 4 + 8
    assert estimate_model_count(unary_labels, 2) == 1 * 1 * 4 + 2 * 4 * 256


def test_countermodel_search():
    sig = Signature.make(["s"], [A, B], labels=[])
    counter = find_countermodel([], Eq(a, b), 2, sig)
    assert counter is not None and not satisfies(counter, Eq(a, b))
    assert semantic_entails_bounded([Eq(a, b)], Eq(b, a), 2, sig)
