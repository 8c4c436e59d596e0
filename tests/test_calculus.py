"""Proof kernel: one valid instance and at least one rejected mutant per rule."""

import json
import random
import time

import pytest

from conftest import A, B, DATA, F, SIG, SIG_PLAIN
from talgebra import calculus, cli, syntax
from talgebra.basic import NotAtomicError
from talgebra.calculus import (BoundedValid, Cycle, Invalid, PremiseFamily,
                               ProofNode, Sequent, Valid, basic_oracle_leaf,
                               check_proof, cut, expand_gmp,
                               instantiate_node, instantiate_sentence,
                               mono_node, postorder, weaken)
from talgebra.ccs import (ccs_steps, certify_word, compile_institute,
                          institute_process)
from talgebra.formats import build_proof, parse_theory
from talgebra.syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                             Pow, Seq, Signature, SignatureMorphism, Star,
                             SymExp, Trans, Var, Variable, conj, disj,
                             exists, forall, implies, power, trans)

a = App(A, ())
b = App(B, ())
lam, mu = Lbl("lam"), Lbl("mu")


def f(t):
    return App(F, (t,))


def seq(gamma, concl, sig=SIG):
    return Sequent(sig, frozenset(gamma), concl)


def leaf(gamma, phi, sig=SIG):
    return ProofNode(seq(gamma, phi, sig), "Monotonicity")


def assert_valid(node, mode="schematic"):
    v = check_proof(node, mode=mode)
    assert isinstance(v, Valid), v
    return v


def assert_invalid(node, mode="schematic"):
    v = check_proof(node, mode=mode)
    assert isinstance(v, Invalid), v
    return v


# --- structural rules ---------------------------------------------------------


def test_monotonicity():
    assert_valid(leaf([Eq(a, b)], Eq(a, b)))
    assert_invalid(leaf([Eq(a, b)], Eq(b, a)))  # not an antecedent


def test_transitivity():
    g = frozenset([Eq(a, b)])
    first = leaf(g, Eq(a, b))
    second = leaf(frozenset([Eq(a, b)]), Eq(a, b))
    node = ProofNode(seq(g, Eq(a, b)), "Transitivity", (first, second))
    assert_valid(node)
    bad = ProofNode(seq(g, Eq(b, a)), "Transitivity", (first, second))
    assert_invalid(bad)


def test_union_rule():
    g = frozenset([Eq(a, b), Eq(a, a)])
    node = ProofNode(seq(g, frozenset({Eq(a, b), Eq(a, a)})), "Union",
                     (leaf(g, Eq(a, b)), leaf(g, Eq(a, a))))
    assert_valid(node)
    bad = ProofNode(seq(g, frozenset({Eq(a, b)})), "Union",
                    (leaf(g, Eq(a, b)), leaf(g, Eq(a, a))))
    assert_invalid(bad)


def test_set_form_premise_is_invalid_not_an_exception():
    """A rule that reads one sentence off a valid set-form premise, or off
    its own set-form conclusion, gets INVALID with a reason."""
    g = frozenset([Eq(a, b), Eq(a, a)])
    union = ProofNode(seq(g, frozenset({Eq(a, b), Eq(a, a)})), "Union",
                      (leaf(g, Eq(a, b)), leaf(g, Eq(a, a))))
    assert_valid(union)
    for node, path in ((ProofNode(seq(g, Eq(b, a)), "S", (union,)), ()),
                       (ProofNode(seq(g, frozenset({Eq(a, a)})), "R"), ()),
                       (ProofNode(seq(g, Neg(Neg(Eq(a, b)))), "Neg_I",
                                  (ProofNode(seq(g, Eq(b, a)), "S",
                                             (union,)),)), (0,))):
        v = assert_invalid(node)
        assert v.reason == "sequent has a set-form conclusion"
        assert v.path == path
    with pytest.raises(calculus.SetFormConclusion):
        union.conclusion.single()


def test_translation_rule():
    target = Signature.make(
        ["u"], [FuncDecl("c", (), "u"), FuncDecl("d", (), "u"),
                FuncDecl("g", ("u",), "u")],
        mono=[FuncDecl("g", ("u",), "u")], labels=["nu", "xi"])
    chi = SignatureMorphism(
        SIG, target, {"s": "u"},
        {A: FuncDecl("c", (), "u"), B: FuncDecl("d", (), "u"),
         F: FuncDecl("g", ("u",), "u")},
        {"lam": "nu", "mu": "xi"})
    c, d = App(FuncDecl("c", (), "u"), ()), App(FuncDecl("d", (), "u"), ())
    prem = leaf([Eq(a, b)], Eq(a, b))
    node = ProofNode(seq(frozenset([Eq(c, d)]), Eq(c, d), target),
                     "Translation", (prem,), {"morphism": chi})
    assert_valid(node)
    bad = ProofNode(seq(frozenset([Eq(c, d)]), Eq(d, c), target),
                    "Translation", (prem,), {"morphism": chi})
    assert_invalid(bad)


# --- equational rules ---------------------------------------------------------


def test_r_s_t_f():
    assert_valid(ProofNode(seq([], Eq(f(a), f(a))), "R"))
    assert_invalid(ProofNode(seq([], Eq(a, b)), "R"))

    g = frozenset([Eq(a, b)])
    s_node = ProofNode(seq(g, Eq(b, a)), "S", (leaf(g, Eq(a, b)),))
    assert_valid(s_node)
    assert_invalid(ProofNode(seq(g, Eq(a, b)), "S", (leaf(g, Eq(a, b)),)))

    g2 = frozenset([Eq(a, b), Eq(b, f(a))])
    t_node = ProofNode(seq(g2, Eq(a, f(a))), "T",
                       (leaf(g2, Eq(a, b)), leaf(g2, Eq(b, f(a)))))
    assert_valid(t_node)
    assert_invalid(ProofNode(seq(g2, Eq(f(a), a)), "T",
                             (leaf(g2, Eq(a, b)), leaf(g2, Eq(b, f(a))))))

    f_node = ProofNode(seq(g, Eq(f(a), f(b))), "F", (leaf(g, Eq(a, b)),))
    assert_valid(f_node)
    assert_invalid(ProofNode(seq(g, Eq(f(a), f(a))), "F",
                             (leaf(g, Eq(a, b)),)))


def test_p_rewrites_endpoints():
    g = frozenset([Eq(a, b), Eq(b, a), Trans(a, lam, b)])
    node = ProofNode(seq(g, Trans(b, lam, a)), "P",
                     (leaf(g, Eq(a, b)), leaf(g, Eq(b, a)),
                      leaf(g, Trans(a, lam, b))))
    assert_valid(node)
    bad = ProofNode(seq(g, Trans(b, mu, a)), "P",
                    (leaf(g, Eq(a, b)), leaf(g, Eq(b, a)),
                     leaf(g, Trans(a, lam, b))))
    assert_invalid(bad)


def test_m_requires_monotonic_symbol():
    g = frozenset([Trans(a, lam, b)])
    node = ProofNode(seq(g, Trans(f(a), lam, f(b))), "M",
                     (leaf(g, Trans(a, lam, b)),))
    assert_valid(node)
    # same shape over a signature where f is NOT monotonic
    plain = Signature.make(["s"], [A, B, F], labels=["lam", "mu"])
    bad = ProofNode(seq(g, Trans(f(a), lam, f(b)), plain), "M",
                    (leaf(g, Trans(a, lam, b), plain),))
    assert_invalid(bad)


# --- action rules ---------------------------------------------------------------


def test_comp_i():
    g = frozenset([Trans(a, lam, b), Trans(b, mu, a)])
    node = ProofNode(seq(g, Trans(a, Seq(lam, mu), a)), "Comp_I",
                     (leaf(g, Trans(a, lam, b)), leaf(g, Trans(b, mu, a))))
    assert_valid(node)
    bad = ProofNode(seq(g, Trans(a, Seq(mu, lam), a)), "Comp_I",
                    (leaf(g, Trans(a, lam, b)), leaf(g, Trans(b, mu, a))))
    assert_invalid(bad)


def test_comp_e_freshness():
    g = frozenset([Trans(a, Seq(lam, mu), b)])
    fresh = FuncDecl("w", (), "s")
    ext = Signature(SIG.sorts, SIG.funcs | {fresh}, SIG.mono, SIG.labels)
    w = App(fresh, ())
    minor_gamma = g | {Trans(a, lam, w), Trans(w, mu, b)}
    minor = leaf(minor_gamma, Trans(a, lam, w), ext)
    # conclusion mentions the witness: must be rejected
    bad = ProofNode(seq(g, Trans(a, lam, w)), "Comp_E",
                    (leaf(g, Trans(a, Seq(lam, mu), b)), minor),
                    {"fresh": fresh})
    assert_invalid(bad)
    # proper use: derive an existential via Subst inside the extension
    x = Variable("x", "s", SIG)
    goal = exists([x], Trans(a, lam, Var(x)))
    inst = ProofNode(seq(minor_gamma, Trans(a, lam, w), ext), "Monotonicity")
    sub = ProofNode(seq(minor_gamma, goal, ext), "Subst", (inst,),
                    {"subst": {x: w}})
    node = ProofNode(seq(g, goal), "Comp_E",
                     (leaf(g, Trans(a, Seq(lam, mu), b)), sub),
                     {"fresh": fresh})
    assert_valid(node)


def test_union_i_e():
    g = frozenset([Trans(a, lam, b)])
    node = ProofNode(seq(g, Trans(a, Alt(lam, mu), b)), "Union_I",
                     (leaf(g, Trans(a, lam, b)),))
    assert_valid(node)
    assert_invalid(ProofNode(seq(g, Trans(a, Alt(mu, mu), b)), "Union_I",
                             (leaf(g, Trans(a, lam, b)),)))

    g2 = frozenset([Trans(a, Alt(lam, mu), b)])
    phi = Eq(a, a)
    s1 = ProofNode(seq(g2 | {Trans(a, lam, b)}, phi), "R")
    s2 = ProofNode(seq(g2 | {Trans(a, mu, b)}, phi), "R")
    major = leaf(g2, Trans(a, Alt(lam, mu), b))
    node = ProofNode(seq(g2, phi), "Union_E", (major, s1, s2))
    assert_valid(node)
    assert_invalid(ProofNode(seq(g2, phi), "Union_E", (major, s1, s1)))


def test_star_i():
    g = frozenset([Trans(a, Seq(lam, lam), b)])
    node = ProofNode(seq(g, Trans(a, Star(lam), b)), "Star_I",
                     (leaf(g, Trans(a, Seq(lam, lam), b)),), {"n": 2})
    assert_valid(node)
    assert_invalid(ProofNode(seq(g, Trans(a, Star(lam), b)), "Star_I",
                             (leaf(g, Trans(a, Seq(lam, lam), b)),),
                             {"n": 3}))
    # n = 0: the premise is an equation
    g0 = frozenset()
    zero = ProofNode(seq(g0, Eq(a, a)), "R")
    node0 = ProofNode(seq(g0, Trans(a, Star(lam), a)), "Star_I", (zero,),
                      {"n": 0})
    assert_valid(node0)


def star_e_proof(make_template):
    g = frozenset([Trans(a, Star(lam), b)])
    phi = Trans(a, Star(lam), b)
    kappa = SymExp("kappa")
    assumption = trans(a, Pow(lam, kappa), b)
    template = make_template(g | {assumption}, phi)
    major = leaf(g, Trans(a, Star(lam), b))
    return ProofNode(seq(g, phi), "Star_E", (major,),
                     family=PremiseFamily("kappa", template))


def test_star_e_schematic_and_bounded():
    node = star_e_proof(lambda gamma, phi: leaf(gamma, phi))
    assert isinstance(check_proof(node), Valid)
    v = check_proof(node, mode=("bounded", 4))
    assert v == BoundedValid(4)


def test_star_e_bad_template_rejected():
    # template that ignores the family assumption shape
    g = frozenset([Trans(a, Star(lam), b)])
    template = leaf(g, Trans(a, Star(lam), b))  # missing the assumption
    major = leaf(g, Trans(a, Star(lam), b))
    node = ProofNode(seq(g, Trans(a, Star(lam), b)), "Star_E", (major,),
                     family=PremiseFamily("kappa", template))
    assert_invalid(node)


def test_star_e_instance_failure_located():
    # template valid schematically-in-shape but broken at instance 0:
    # it concludes via Star_I n=kappa from the assumed indexed transition,
    # mutated so instance checking catches a wrong exponent payload
    g = frozenset([Trans(a, Star(lam), b)])
    phi = Trans(a, Star(lam), b)
    kappa = SymExp("kappa")
    assumption = trans(a, Pow(lam, kappa), b)
    inner = ProofNode(seq(g | {assumption}, assumption), "Monotonicity")
    template = ProofNode(seq(g | {assumption}, phi), "Star_I", (inner,),
                         {"n": kappa})
    major = leaf(g, phi)
    node = ProofNode(seq(g, phi), "Star_E", (major,),
                     family=PremiseFamily("kappa", template))
    assert isinstance(check_proof(node), Valid)
    assert check_proof(node, mode=("bounded", 2)) == BoundedValid(2)


def test_star_e_nested_family_instantiated():
    # an inner Star_E inside the outer family's template: instantiating the
    # outer exponent must reach the inner template, which also assumes the
    # outer indexed transition
    g = frozenset([Trans(a, Star(lam), b)])
    phi = Trans(a, Star(lam), b)
    outer = trans(a, Pow(lam, SymExp("kappa")), b)
    inner = trans(a, Pow(lam, SymExp("mu")), b)
    inner_template = leaf(g | {outer, inner}, phi)
    template = ProofNode(seq(g | {outer}, phi), "Star_E",
                         (leaf(g | {outer}, phi),),
                         family=PremiseFamily("mu", inner_template))
    node = ProofNode(seq(g, phi), "Star_E", (leaf(g, phi),),
                     family=PremiseFamily("kappa", template))
    assert_valid(node)
    assert check_proof(node, mode=("bounded", 3)) == BoundedValid(3)


def test_star_bound_2000_is_linear(monkeypatch, capsys):
    """Instance n of the star_loop family reads lam^n off one chain, so a
    bound B builds at most B + c composition nodes and answers at 2000.
    Hashing an instance reads the stored hash of its action's key, one
    call, and never walks the n levels of action_key(lam^n), so the hashing
    work is linear in B as well."""
    built, hashed = [0], []
    init = Seq.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    def counting_hash(key, hash_key=syntax._ActionKey.__hash__):
        hashed.append(len(key))
        return hash_key(key)

    monkeypatch.setattr(Seq, "__init__", counting_init)
    monkeypatch.setattr(syntax._ActionKey, "__hash__", counting_hash)

    def plain(key):
        return tuple(plain(k) if isinstance(k, tuple) else k for k in key)

    body = Lbl("lam")
    for n in (3000, 200, 2):
        phi = Trans(a, power(body, n), b)
        hashed.clear()
        h = hash(phi)
        assert hashed == [3]            # the key of lam^n, read once
        if n < 500:
            assert h == hash(plain(phi.key()))
    argv = ["prove", str(DATA / "star_loop.ta"), str(DATA / "star_loop.tap"),
            "--format", "json", "--star-bound"]
    for bound in (500, 2000):
        built[0] = 0
        hashed.clear()
        assert cli.main(argv + [str(bound)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == f"BOUNDED_VALID({bound})"
        assert built[0] <= bound + 2
        # one read to hash each instance, one to key each new chain node
        assert len(hashed) <= 2 * bound + 5


def test_instantiation_shares_what_the_exponent_leaves():
    g = frozenset([Trans(a, Star(Seq(lam, mu)), b), Eq(a, a)])
    phi = Trans(a, Star(Seq(lam, mu)), b)
    body = Seq(lam, mu)
    assumption = trans(a, Pow(body, SymExp("kappa")), b)
    node = leaf(g | {assumption}, phi)
    for n in (1, 5, 3):
        inst = instantiate_node(node, "kappa", n)
        assert inst.conclusion.conclusion is phi
        assert g <= inst.conclusion.antecedent
        (indexed,) = inst.conclusion.antecedent - g
        assert indexed == trans(a, power(body, n), b)
        assert indexed.action is power(body, n)


# --- boolean rules --------------------------------------------------------------


def test_neg_rules():
    g = frozenset([Neg(Neg(Eq(a, b)))])
    node = ProofNode(seq(g, Eq(a, b)), "Neg_D",
                     (leaf(g, Neg(Neg(Eq(a, b)))),))
    assert_valid(node)

    g2 = frozenset([Neg(Eq(a, b))])
    neg_e = ProofNode(seq(g2 | {Eq(a, b)}, Disj(())), "Neg_E",
                      (leaf(g2, Neg(Eq(a, b))),))
    assert_valid(neg_e)
    neg_i = ProofNode(seq(g2, Neg(Eq(a, b))), "Neg_I", (neg_e,))
    assert_valid(neg_i)
    assert_invalid(ProofNode(seq(g2, Neg(Eq(b, a))), "Neg_I", (neg_e,)))


def test_false_rule():
    g = frozenset([Disj(())])
    node = ProofNode(seq(g, Eq(a, b)), "False", (leaf(g, Disj(())),))
    assert_valid(node)
    assert_invalid(ProofNode(seq(g, Eq(a, b)), "False",
                             (leaf(g, Eq(a, b)),)))


def test_disj_rules():
    phi, psi = Eq(a, b), Eq(b, a)
    g = frozenset([phi])
    node = ProofNode(seq(g, Disj((phi, psi))), "Disj_I", (leaf(g, phi),))
    assert_valid(node)
    assert_invalid(ProofNode(seq(g, Disj((psi,))), "Disj_I",
                             (leaf(g, phi),)))

    gd = frozenset([Disj((phi, psi))])
    major = leaf(gd, Disj((phi, psi)))
    s1 = ProofNode(seq(gd | {phi}, Eq(a, a)), "R")
    s2 = ProofNode(seq(gd | {psi}, Eq(a, a)), "R")
    e_node = ProofNode(seq(gd, Eq(a, a)), "Disj_E", (major, s1, s2))
    assert_valid(e_node)
    assert_invalid(ProofNode(seq(gd, Eq(a, a)), "Disj_E", (major, s1)))


# --- quantifier rules -------------------------------------------------------------


def test_subst_introduces_existential():
    x = Variable("x", "s", SIG)
    g = frozenset([Eq(f(a), b)])
    inst = leaf(g, Eq(f(a), b))
    node = ProofNode(seq(g, exists([x], Eq(f(Var(x)), b))), "Subst", (inst,),
                     {"subst": {x: a}})
    assert_valid(node)
    assert_invalid(ProofNode(seq(g, exists([x], Eq(f(Var(x)), b))), "Subst",
                             (inst,), {"subst": {x: b}}))


def test_quant_i_discharges_existential():
    x = Variable("x", "s", SIG)
    ex = exists([x], Eq(Var(x), a))
    g = frozenset([ex])
    ext = Signature(SIG.sorts, SIG.funcs | {FuncDecl("x", (), "s")},
                    SIG.mono, SIG.labels)
    prem = ProofNode(seq(frozenset([Eq(Var(x), a)]), Eq(a, a), ext), "R")
    node = ProofNode(seq(g, Eq(a, a)), "Quant_I", (prem,), {"exists": ex})
    assert_valid(node)
    # conclusion mentioning the bound variable is rejected
    bad = ProofNode(seq(g, Eq(Var(x), a)), "Quant_I",
                    (ProofNode(seq(frozenset([Eq(Var(x), a)]), Eq(Var(x), a),
                                   ext), "Monotonicity"),),
                    {"exists": ex})
    assert_invalid(bad)


def test_quant_e_reintroduces_existential():
    x = Variable("x", "s", SIG)
    ex = exists([x], Eq(Var(x), a))
    ext = Signature(SIG.sorts, SIG.funcs | {FuncDecl("x", (), "s")},
                    SIG.mono, SIG.labels)
    prem = ProofNode(seq(frozenset([ex]), Eq(a, a)), "R")
    node = ProofNode(seq(frozenset([Eq(Var(x), a)]), Eq(a, a), ext),
                     "Quant_E", (prem,), {"exists": ex})
    assert_valid(node)


# --- oracles and schema application --------------------------------------------


def test_basic_oracle_leaf():
    g = [Eq(a, b), Trans(a, lam, a)]
    node = basic_oracle_leaf(SIG, g, Trans(f(a), lam, f(b)))
    assert_valid(node)
    with_bad = ProofNode(seq(g, Eq(f(a), a)), "BasicOracle")
    assert_invalid(with_bad)


def test_unknown_rule_rejected():
    assert_invalid(ProofNode(seq([], Eq(a, a)), "Bogus"))


def _schema_proof(phis, gamma_s, theta, gamma_ctx):
    X = frozenset(theta)
    ax = forall(X, implies(conj(phis), gamma_s) if phis else gamma_s)
    g = frozenset(gamma_ctx) | {ax}
    from talgebra.syntax import apply_substitution
    prems = [leaf(g, ax)]
    for phi in phis:
        prems.append(leaf(g | {apply_substitution(theta, phi)} - set(),
                          apply_substitution(theta, phi))
                     if apply_substitution(theta, phi) in g
                     else ProofNode(seq(g, apply_substitution(theta, phi)),
                                    "BasicOracle"))
    node = ProofNode(seq(g, apply_substitution(theta, gamma_s)), "GMP",
                     tuple(prems),
                     {"X": X, "Phi": tuple(phis), "gamma": gamma_s,
                      "subst": theta})
    return node


def test_gmp_and_expansion():
    x = Variable("x", "s", SIG)
    # schema: forall x . x => x  implies  f(x) => f(x), say via premises
    phi = Trans(Var(x), lam, Var(x))
    gamma_s = Trans(f(Var(x)), lam, f(Var(x)))
    theta = {x: a}
    node = _schema_proof((phi,), gamma_s, theta,
                         [Trans(a, lam, a)])
    assert_valid(node)
    expanded = expand_gmp(node)
    assert expanded.rule != "GMP"
    assert_valid(expanded)
    assert expanded.conclusion.single() == node.conclusion.single()

    # zero-premise schema
    node0 = _schema_proof((), Eq(Var(x), Var(x)), theta, [])
    assert_valid(node0)
    assert_valid(expand_gmp(node0))

    # two-premise schema
    psi = Eq(Var(x), Var(x))
    node2 = _schema_proof((phi, psi), gamma_s, theta, [Trans(a, lam, a)])
    assert_valid(node2)
    assert_valid(expand_gmp(node2))


def test_gmp_mutant_rejected():
    x = Variable("x", "s", SIG)
    phi = Trans(Var(x), lam, Var(x))
    gamma_s = Trans(f(Var(x)), lam, f(Var(x)))
    node = _schema_proof((phi,), gamma_s, {x: a}, [Trans(a, lam, a)])
    # wrong conclusion: swap endpoints
    bad = ProofNode(seq(node.conclusion.antecedent,
                        Trans(f(b), lam, f(a))), "GMP",
                    node.premises, node.payload)
    assert_invalid(bad)


# --- the rule table: premise counts and shared contexts -----------------------


def _rule_samples():
    """One valid node per rule whose premises are leaves, where the rule
    allows it, so that a faulty node fails at its root."""
    x = Variable("x", "s", SIG)
    ext = Signature(SIG.sorts, SIG.funcs | {FuncDecl("x", (), "s")},
                    SIG.mono, SIG.labels)
    ex = exists([x], Eq(Var(x), a))
    eq, teq = Eq(a, b), Trans(a, lam, b)
    g, gt = frozenset([eq]), frozenset([teq])
    target = Signature.make(
        ["u"], [FuncDecl("c", (), "u"), FuncDecl("d", (), "u"),
                FuncDecl("g", ("u",), "u")],
        mono=[FuncDecl("g", ("u",), "u")], labels=["nu", "xi"])
    chi = SignatureMorphism(
        SIG, target, {"s": "u"},
        {A: FuncDecl("c", (), "u"), B: FuncDecl("d", (), "u"),
         F: FuncDecl("g", ("u",), "u")}, {"lam": "nu", "mu": "xi"})
    c, d = App(FuncDecl("c", (), "u"), ()), App(FuncDecl("d", (), "u"), ())
    gp = frozenset([eq, Eq(b, a), teq])
    gc = frozenset([teq, Trans(b, mu, a)])
    ge = frozenset([Trans(a, Seq(lam, mu), b), eq])
    fresh = FuncDecl("w", (), "s")
    ext_w = Signature(SIG.sorts, SIG.funcs | {fresh}, SIG.mono, SIG.labels)
    w = App(fresh, ())
    gw = ge | {Trans(a, lam, w), Trans(w, mu, b)}
    gu = frozenset([Trans(a, Alt(lam, mu), b)])
    gs = frozenset([Trans(a, Seq(lam, lam), b)])
    star = Trans(a, Star(lam), b)
    bottom = Disj(())
    gf = frozenset([bottom])
    gn = frozenset([Neg(eq)])
    gd = frozenset([Disj((eq, Eq(b, a)))])
    y = Variable("y", "s", SIG)
    return {
        "Monotonicity": leaf(g, eq),
        "Transitivity": ProofNode(seq(g, eq), "Transitivity",
                                  (leaf(g, eq), leaf(g, eq))),
        "Union": ProofNode(seq(g, frozenset({eq, Eq(a, a)})), "Union",
                           (leaf(g, eq), ProofNode(seq(g, Eq(a, a)), "R"))),
        "Translation": ProofNode(seq([Eq(c, d)], Eq(c, d), target),
                                 "Translation", (leaf(g, eq),),
                                 {"morphism": chi}),
        "R": ProofNode(seq([], Eq(f(a), f(a))), "R"),
        "S": ProofNode(seq(g, Eq(b, a)), "S", (leaf(g, eq),)),
        "T": ProofNode(seq(gp, Eq(a, a)), "T",
                       (leaf(gp, eq), leaf(gp, Eq(b, a)))),
        "F": ProofNode(seq(g, Eq(f(a), f(b))), "F", (leaf(g, eq),)),
        "P": ProofNode(seq(gp, Trans(b, lam, a)), "P",
                       (leaf(gp, eq), leaf(gp, Eq(b, a)), leaf(gp, teq))),
        "M": ProofNode(seq(gt, Trans(f(a), lam, f(b))), "M",
                       (leaf(gt, teq),)),
        "Comp_I": ProofNode(seq(gc, Trans(a, Seq(lam, mu), a)), "Comp_I",
                            (leaf(gc, teq), leaf(gc, Trans(b, mu, a)))),
        "Comp_E": ProofNode(seq(ge, eq), "Comp_E",
                            (leaf(ge, Trans(a, Seq(lam, mu), b)),
                             ProofNode(seq(gw, eq, ext_w),
                                       "Monotonicity")),
                            {"fresh": fresh}),
        "Union_I": ProofNode(seq(gt, Trans(a, Alt(lam, mu), b)), "Union_I",
                             (leaf(gt, teq),)),
        "Union_E": ProofNode(seq(gu, Eq(a, a)), "Union_E",
                             (leaf(gu, Trans(a, Alt(lam, mu), b)),
                              ProofNode(seq(gu | {teq}, Eq(a, a)), "R"),
                              ProofNode(seq(gu | {Trans(a, mu, b)}, Eq(a, a)),
                                        "R"))),
        "Star_I": ProofNode(seq(gs, star), "Star_I",
                            (leaf(gs, Trans(a, Seq(lam, lam), b)),), {"n": 2}),
        "Star_E": star_e_proof(lambda gamma, phi: leaf(gamma, phi)),
        "Neg_D": ProofNode(seq([Neg(Neg(eq))], eq), "Neg_D",
                           (leaf([Neg(Neg(eq))], Neg(Neg(eq))),)),
        "False": ProofNode(seq(gf, eq), "False", (leaf(gf, bottom),)),
        "Neg_I": ProofNode(seq(gf, Neg(eq)), "Neg_I",
                           (leaf(gf | {eq}, bottom),)),
        "Neg_E": ProofNode(seq(gn | {eq}, bottom), "Neg_E",
                           (leaf(gn, Neg(eq)),)),
        "Disj_I": ProofNode(seq(g, Disj((eq, Eq(b, a)))), "Disj_I",
                            (leaf(g, eq),)),
        "Disj_E": ProofNode(seq(gd, Eq(a, a)), "Disj_E",
                            (leaf(gd, Disj((eq, Eq(b, a)))),
                             ProofNode(seq(gd | {eq}, Eq(a, a)), "R"),
                             ProofNode(seq(gd | {Eq(b, a)}, Eq(a, a)), "R"))),
        "Quant_I": ProofNode(seq([ex], Eq(a, a)), "Quant_I",
                             (ProofNode(seq([Eq(Var(x), a)], Eq(a, a), ext),
                                        "R"),), {"exists": ex}),
        "Quant_E": ProofNode(seq([Eq(Var(x), a)], Eq(a, a), ext), "Quant_E",
                             (ProofNode(seq([ex], Eq(a, a)), "R"),),
                             {"exists": ex}),
        "Subst": ProofNode(seq(g, exists([x], Eq(Var(x), b))), "Subst",
                           (leaf(g, eq),), {"subst": {x: a}}),
        "BasicOracle": basic_oracle_leaf(SIG, [eq], Eq(b, a)),
        "GMP": _schema_proof((Trans(Var(y), lam, Var(y)),),
                             Eq(Var(y), Var(y)), {y: a}, [Trans(a, lam, a)]),
    }


def _with_premises(node, premises):
    return ProofNode(node.conclusion, node.rule, tuple(premises),
                     node.payload, node.family)


def _with_sequent(node, sig=None, gamma=None, concl=None):
    c = node.conclusion
    return ProofNode(Sequent(c.signature if sig is None else sig,
                             c.antecedent if gamma is None else frozenset(gamma),
                             c.conclusion if concl is None else concl),
                     node.rule, node.premises, node.payload, node.family)


def _faulty_nodes():
    """(id, node) for each pinned failure: every rule with the wrong number
    of premises; every rule with premises, its leading premise over another
    antecedent and over another signature; the mirrored rules' own failures
    and the substitution image checks."""
    samples = _rule_samples()
    extra = Trans(b, mu, b)
    out = []
    for rule, node in samples.items():
        assert isinstance(check_proof(node), Valid), rule
        out.append((f"{rule}-count", _with_premises(
            node, () if node.premises else (leaf([extra], extra),))))
        if node.premises:
            first, *rest = node.premises
            c = first.conclusion
            out.append((f"{rule}-antecedent", _with_premises(
                node, (_with_sequent(first, gamma=c.antecedent | {extra}),
                       *rest))))
            out.append((f"{rule}-signature", _with_premises(
                node, (_with_sequent(first, sig=SIG_PLAIN), *rest))))
    x = Variable("x", "s", SIG)
    eq, bottom = Eq(a, b), Disj(())
    neg_i, neg_e = samples["Neg_I"], samples["Neg_E"]
    out += [
        ("Neg_I-not-negation", _with_sequent(neg_i, concl=eq)),
        ("Neg_I-not-falsity", _with_premises(
            neg_i, (leaf([bottom, eq], eq),))),
        ("Neg_E-not-negation", _with_premises(neg_e, (leaf([eq], eq),))),
        ("Neg_E-assumption", _with_sequent(neg_e, gamma=[Neg(eq), bottom])),
        ("Neg_E-not-falsity", _with_sequent(neg_e, concl=eq)),
    ]
    for rule in ("Quant_I", "Quant_E"):
        node = samples[rule]
        other = exists([x], Eq(Var(x), b))
        out += [
            (f"{rule}-payload", ProofNode(node.conclusion, rule,
                                          node.premises, {})),
            (f"{rule}-not-assumed", ProofNode(node.conclusion, rule,
                                              node.premises,
                                              {"exists": other})),
            (f"{rule}-conclusion", _with_sequent(node, concl=Eq(b, b))),
            (f"{rule}-escape", _with_premises(
                _with_sequent(node, concl=Eq(Var(x), Var(x))),
                (_with_sequent(node.premises[0], concl=Eq(Var(x), Var(x))),))),
        ]
    cu = App(FuncDecl("c", (), "u"), ())
    subst, gmp = samples["Subst"], samples["GMP"]
    (y,) = gmp.payload["X"]
    yy = Eq(Var(y), Var(y))
    gy = gmp.conclusion.antecedent | {Trans(Var(y), lam, Var(y))}
    gu = gmp.conclusion.antecedent | {Trans(cu, lam, cu)}
    out += [
        ("Subst-not-ground", ProofNode(subst.conclusion, "Subst",
                                       subst.premises, {"subst": {x: Var(x)}})),
        ("Subst-sort", ProofNode(subst.conclusion, "Subst", subst.premises,
                                 {"subst": {x: cu}})),
        ("GMP-not-ground", ProofNode(
            seq(gy, yy), "GMP", (leaf(gy, gmp.premises[0].conclusion.single()),
                                 leaf(gy, Trans(Var(y), lam, Var(y)))),
            {**gmp.payload, "subst": {y: Var(y)}})),
        ("GMP-sort", ProofNode(
            seq(gu, Eq(cu, cu)), "GMP",
            (leaf(gu, gmp.premises[0].conclusion.single()),
             leaf(gu, Trans(cu, lam, cu))),
            {**gmp.payload, "subst": {y: cu}})),
    ]
    return out


# the reason each faulty node is rejected with, at its root
FAULT_REASONS = {
    "Monotonicity-count": "rule Monotonicity expects 0 premises, got 1",
    "Transitivity-count": "rule Transitivity expects 2 premises, got 0",
    "Transitivity-antecedent": "first premise antecedent differs",
    "Transitivity-signature": "premise signature differs",
    "Union-count": "rule Union needs at least one premise",
    "Union-antecedent": "premise antecedent differs",
    "Union-signature": "premise signature differs",
    "Translation-count": "rule Translation expects 1 premises, got 0",
    "Translation-antecedent":
        "antecedent is not the translation of the premise antecedent",
    "Translation-signature": "premise is not over the morphism source",
    "R-count": "rule R expects 0 premises, got 1",
    "S-count": "rule S expects 1 premises, got 0",
    "S-antecedent": "premise antecedent differs",
    "S-signature": "premise signature differs",
    "T-count": "rule T expects 2 premises, got 0",
    "T-antecedent": "premise antecedent differs",
    "T-signature": "premise signature differs",
    "F-count": "rule F expects 1 premises, got 0",
    "F-antecedent": "premise antecedent differs",
    "F-signature": "premise signature differs",
    "P-count": "rule P expects 3 premises, got 0",
    "P-antecedent": "premise antecedent differs",
    "P-signature": "premise signature differs",
    "M-count": "rule M expects 1 premises, got 0",
    "M-antecedent": "premise antecedent differs",
    "M-signature": "premise signature differs",
    "Comp_I-count": "rule Comp_I expects 2 premises, got 0",
    "Comp_I-antecedent": "premise antecedent differs",
    "Comp_I-signature": "premise signature differs",
    "Comp_E-count": "rule Comp_E expects 2 premises, got 0",
    "Comp_E-antecedent": "premise antecedent differs",
    "Comp_E-signature": "premise signature differs",
    "Union_I-count": "rule Union_I expects 1 premises, got 0",
    "Union_I-antecedent": "premise antecedent differs",
    "Union_I-signature": "premise signature differs",
    "Union_E-count": "rule Union_E expects 3 premises, got 0",
    "Union_E-antecedent": "premise antecedent differs",
    "Union_E-signature": "premise signature differs",
    "Star_I-count": "rule Star_I expects 1 premises, got 0",
    "Star_I-antecedent": "premise antecedent differs",
    "Star_I-signature": "premise signature differs",
    "Star_E-count": "rule Star_E expects 1 premises, got 0",
    "Star_E-antecedent": "premise antecedent differs",
    "Star_E-signature": "premise signature differs",
    "Neg_D-count": "rule Neg_D expects 1 premises, got 0",
    "Neg_D-antecedent": "premise antecedent differs",
    "Neg_D-signature": "premise signature differs",
    "False-count": "rule False expects 1 premises, got 0",
    "False-antecedent": "premise antecedent differs",
    "False-signature": "premise signature differs",
    "Neg_I-count": "rule Neg_I expects 1 premises, got 0",
    "Neg_I-antecedent": "premise must assume the negated sentence",
    "Neg_I-signature": "premise signature differs",
    "Neg_E-count": "rule Neg_E expects 1 premises, got 0",
    "Neg_E-antecedent": "conclusion must assume the negated sentence",
    "Neg_E-signature": "premise signature differs",
    "Disj_I-count": "rule Disj_I expects 1 premises, got 0",
    "Disj_I-antecedent": "premise antecedent differs",
    "Disj_I-signature": "premise signature differs",
    "Disj_E-count": "Disj_E needs a major premise",
    "Disj_E-antecedent": "premise antecedent differs",
    "Disj_E-signature": "premise signature differs",
    "Quant_I-count": "rule Quant_I expects 1 premises, got 0",
    "Quant_I-antecedent":
        "premise antecedent must replace the existential by its body",
    "Quant_I-signature": "premise is not over the variable-extended signature",
    "Quant_E-count": "rule Quant_E expects 1 premises, got 0",
    "Quant_E-antecedent":
        "conclusion antecedent must replace the existential by its body",
    "Quant_E-signature":
        "conclusion is not over the variable-extended signature",
    "Subst-count": "rule Subst expects 1 premises, got 0",
    "Subst-antecedent": "premise antecedent differs",
    "Subst-signature": "premise signature differs",
    "BasicOracle-count": "rule BasicOracle expects 0 premises, got 1",
    "GMP-count": "rule GMP expects 2 premises, got 0",
    "GMP-antecedent": "premise antecedent differs",
    "GMP-signature": "premise signature differs",
    "Neg_I-not-negation": "Neg_I conclusion is not a negation",
    "Neg_I-not-falsity": "premise must be falsity",
    "Neg_E-not-negation": "Neg_E premise is not a negation",
    "Neg_E-assumption": "conclusion must assume the negated sentence",
    "Neg_E-not-falsity": "conclusion must be falsity",
    "Quant_I-payload": "Quant_I needs the existential sentence as payload",
    "Quant_I-not-assumed":
        "the existential sentence is not among the conclusion antecedents",
    "Quant_I-conclusion": "premise conclusion differs",
    "Quant_I-escape":
        "quantified variables occur free outside the existential",
    "Quant_E-payload": "Quant_E needs the existential sentence as payload",
    "Quant_E-not-assumed":
        "the existential sentence is not among the premise antecedents",
    "Quant_E-conclusion": "premise conclusion differs",
    "Quant_E-escape":
        "quantified variables occur free outside the existential",
    "Subst-not-ground": "substitution image for x is not ground",
    "Subst-sort": "substitution for x has sort u, expected s",
    "GMP-not-ground": "substitution image for y is not ground",
    "GMP-sort": "substitution for y has sort u, expected s",
}


_FAULTS = _faulty_nodes()


@pytest.mark.parametrize("name,node", _FAULTS, ids=[n for n, _ in _FAULTS])
def test_rule_table_reasons(name, node):
    v = check_proof(node)
    assert isinstance(v, Invalid) and v.path == (), v
    assert v.reason == FAULT_REASONS[name]


# --- builders --------------------------------------------------------------------


def test_weaken_and_cut():
    g = frozenset([Eq(a, b)])
    node = leaf(g, Eq(a, b))
    bigger = weaken(node, g | {Eq(a, a)})
    assert bigger.conclusion.antecedent == g | {Eq(a, a)}
    assert_valid(bigger)

    first = leaf(g, Eq(a, b))
    second = ProofNode(seq(g | {Eq(a, b)}, Eq(b, a)), "S",
                       (ProofNode(seq(g | {Eq(a, b)}, Eq(a, b)),
                                  "Monotonicity"),))
    joined = cut(first, second)
    assert joined.conclusion.antecedent == g
    assert joined.conclusion.single() == Eq(b, a)
    assert_valid(joined)


def test_side_condition_report():
    bad = ProofNode(seq([], Eq(a, b)), "R")
    v = assert_invalid(bad)
    assert "R concludes" in v.reason
    good = ProofNode(seq([], Eq(a, a)), "R")
    assert_valid(good)


def test_invalid_path_points_at_offender():
    g = frozenset([Eq(a, b)])
    bad_leaf = leaf(g, Eq(b, a))
    node = ProofNode(seq(g, Eq(a, b)), "Transitivity",
                     (leaf(g, Eq(a, b)),
                      ProofNode(seq(frozenset([Eq(a, b)]), Eq(a, b)),
                                "Monotonicity")))
    wrapped = ProofNode(seq(g, Eq(b, a)), "S", (node,))
    v = check_proof(ProofNode(seq(g, Eq(b, a)), "S",
                              (ProofNode(seq(g, Eq(a, b)), "Transitivity",
                                         (bad_leaf,
                                          ProofNode(seq(frozenset([Eq(b, a)]),
                                                        Eq(a, b)),
                                                    "Monotonicity"))),)))
    assert isinstance(v, Invalid) and v.path


# --- the walk: shared premises and the recursive oracle ----------------------


def _recursive_instantiate(node, param, n):
    """instantiate_node as it was: one recursion per premise, no sharing."""
    seq_ = Sequent(node.conclusion.signature,
                   frozenset(instantiate_sentence(s, param, n)
                             for s in node.conclusion.antecedent),
                   calculus._instantiate_conclusion(node.conclusion.conclusion,
                                                    param, n))
    payload = dict(node.payload)
    if isinstance(payload.get("n"), SymExp) and payload["n"].name == param:
        payload["n"] = n
    family = node.family
    if family is not None and family.param != param:
        family = PremiseFamily(family.param,
                               _recursive_instantiate(family.template, param, n))
    return ProofNode(seq_, node.rule,
                     tuple(_recursive_instantiate(p, param, n)
                           for p in node.premises), payload, family)


def _recursive_check(node, mode, path=()):
    """check_proof as it was: each premise checked by recursion, on every
    path that reaches it."""
    verdicts = []
    for i, p in enumerate(node.premises):
        v = _recursive_check(p, mode, path + (i,))
        if isinstance(v, Invalid):
            return v
        verdicts.append(v)
    try:
        if node.rule not in calculus._RULES:
            calculus._fail(f"unknown rule {node.rule!r}")
        checker, count, shared = calculus._RULES[node.rule]
        if count is not None:
            calculus._expect_premises(node, count)
        for p in node.premises[:shared]:
            calculus._same_context(node, p)
        family = checker(node)
    except (calculus._Violation, NotAtomicError) as v:
        return Invalid(str(v), path)
    if family is not None:
        if mode == "schematic":
            v = _recursive_check(family.template, mode)
        else:
            v = BoundedValid(mode[1])
            for n in range(mode[1] + 1):
                inst = _recursive_instantiate(family.template, family.param, n)
                w = _recursive_check(inst, mode)
                if isinstance(w, Invalid):
                    v = Invalid(f"family instance n={n}: {w.reason}", w.path)
                    break
        if isinstance(v, Invalid):
            return Invalid(v.reason, path + v.path)
        verdicts.append(v)
    out = Valid()
    for v in verdicts:
        if isinstance(v, BoundedValid) and isinstance(out, Valid):
            out = v
    return out


def assert_same_verdict(node, mode="schematic"):
    v = check_proof(node, mode=mode)
    assert v == _recursive_check(node, mode)
    return v


def test_walk_matches_recursive_check_on_institute_mutants():
    # criterion 01's mutants: each conclusion with the two processes swapped
    compiled = compile_institute()
    catalog = {info.name: info for info in compiled.axioms}
    lines = (DATA / "institute.tap").read_text().splitlines()
    verdicts = []
    for idx, line in enumerate(lines):
        head, _, concl = line.partition('conclusion "')
        swapped = (concl.replace("Mathematician", "\x00")
                   .replace("CoffeeVM", "Mathematician")
                   .replace("\x00", "CoffeeVM"))
        if swapped == concl:
            continue
        text = "\n".join(lines[:idx] + [head + 'conclusion "' + swapped]
                         + lines[idx + 1:])
        try:
            node = build_proof(text, compiled.signature, compiled.theory,
                               axiom_catalog=catalog)
        except (ValueError, KeyError):
            continue
        verdicts.append(assert_same_verdict(node))
    assert len(verdicts) >= 10
    assert all(isinstance(v, Invalid) for v in verdicts)
    assert any(v.path for v in verdicts)


def test_walk_matches_recursive_check_on_word_proofs():
    compiled = compile_institute()
    prog = compiled.program
    p = start = institute_process()
    steps = []
    for _ in range(40):
        steps.append(ccs_steps(prog, p)[0])
        p = steps[-1].target
    proof = certify_word(compiled, start, steps)
    assert isinstance(assert_same_verdict(proof), Valid)
    concl = proof.conclusion.single()
    wrong = trans(concl.left, concl.action,
                  compiled.term_of(steps[-2].target))
    mutant = ProofNode(Sequent(proof.conclusion.signature,
                               proof.conclusion.antecedent, wrong),
                       proof.rule, proof.premises, proof.payload, proof.family)
    v = assert_same_verdict(mutant)
    assert isinstance(v, Invalid) and v.path == ()
    # a mutant deep in the tree: the last premise of the last premise ...
    node, chain = proof, []
    while node.premises:
        chain.append(node)
        node = node.premises[-1]
    bad = ProofNode(Sequent(node.conclusion.signature,
                            node.conclusion.antecedent, Eq(a, a)), node.rule)
    for parent in reversed(chain):
        bad = ProofNode(parent.conclusion, parent.rule,
                        (*parent.premises[:-1], bad), parent.payload,
                        parent.family)
    v = assert_same_verdict(bad)
    assert isinstance(v, Invalid) and len(v.path) == len(chain)


def test_walk_matches_recursive_check_on_star_loop():
    theory = parse_theory((DATA / "star_loop.ta").read_text())
    root = build_proof((DATA / "star_loop.tap").read_text(),
                       theory.signature, theory.sentences)
    assert isinstance(assert_same_verdict(root), Valid)
    for bound in range(21):
        assert assert_same_verdict(root, ("bounded", bound)) \
            == BoundedValid(bound)


def _random_dag(rng, size):
    """A proof DAG over a = b: each node cites earlier ones, so premises are
    shared; one node in five concludes at random."""
    g = frozenset([Eq(a, b)])
    atoms = [Eq(x, y) for x in (a, b) for y in (a, b)]
    nodes = []
    for _ in range(size):
        rule = rng.choice(["Monotonicity", "R", "S", "T", "T"] if nodes
                          else ["Monotonicity", "R"])
        premises = ()
        if rule == "Monotonicity":
            concl = Eq(a, b)
        elif rule == "R":
            t = rng.choice([a, b])
            concl = Eq(t, t)
        elif rule == "S":
            premises = (rng.choice(nodes),)
            p = premises[0].conclusion.conclusion
            concl = Eq(p.right, p.left)
        else:
            premises = (rng.choice(nodes), rng.choice(nodes))
            concl = Eq(premises[0].conclusion.conclusion.left,
                       premises[1].conclusion.conclusion.right)
        if rng.random() < 0.2:
            concl = rng.choice(atoms)
        nodes.append(ProofNode(seq(g, concl), rule, premises))
    return nodes[-1]


def test_walk_matches_recursive_check_on_random_dags():
    rng = random.Random(18)
    kinds = set()
    for _ in range(400):
        root = _random_dag(rng, rng.randrange(1, 13))
        v = assert_same_verdict(root)
        kinds.add((type(v).__name__, bool(getattr(v, "path", ()))))
    assert kinds == {("Valid", False), ("Invalid", False), ("Invalid", True)}


def test_shared_premise_checked_once(monkeypatch, tmp_path, capsys):
    """Step i cites step i - 1 twice: 41 distinct nodes, 2^41 paths."""
    lines = ['s0 = rule R conclusion "a = a"']
    lines += [f's{i} = rule T [s{i - 1}, s{i - 1}] conclusion "a = a"'
              for i in range(1, 41)]
    script = tmp_path / "shared.tap"
    script.write_text("\n".join(lines) + "\n")
    checked = []
    check = calculus._check

    def counting(node, *args):
        checked.append(node)
        return check(node, *args)

    monkeypatch.setattr(calculus, "_check", counting)
    start = time.perf_counter()
    code = cli.main(["prove", str(DATA / "toy.ta"), str(script),
                     "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "VALID"
    assert len(checked) == 41 == len({id(n) for n in checked})


def test_instantiation_keeps_sharing():
    g = frozenset([Eq(a, b)])
    assumption = trans(a, Pow(lam, SymExp("kappa")), b)
    shared = leaf(g | {assumption}, assumption)
    node = ProofNode(seq(g | {assumption}, Eq(a, a)), "T",
                     (shared, shared))
    inst = instantiate_node(node, "kappa", 3)
    first, second = inst.premises
    assert first is second
    assert first.conclusion.conclusion == trans(a, power(lam, 3), b)


def test_postorder_visits_once_and_reports_a_cycle():
    kids = {"r": ["x", "y", "x"], "x": ["z"], "y": ["z"], "z": []}
    names = {k: k for k in kids}     # one object per name
    seen = [(n, tuple(path)) for n, path in
            postorder([names["r"]], lambda n: [names[k] for k in kids[n]])]
    assert seen == [("z", (0, 0)), ("x", (0,)), ("y", (1,)), ("r", ())]
    kids["z"] = ["y"]
    with pytest.raises(Cycle) as exc:
        list(postorder([names["r"]], lambda n: [names[k] for k in kids[n]]))
    assert exc.value.args[0] == "z"     # r, x, z, y and z again
