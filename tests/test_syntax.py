"""Terms, actions, sentences, signature morphisms, substitution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (A, B, F, SIG, action_strategy, ground_term_strategy,
                      sentence_strategy)
from talgebra.syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                             Pow, Seq, Signature, SignatureMorphism, Star,
                             SymExp, SyntaxError_, Trans, Var, Variable,
                             action_key, apply_substitution, bot, conj, disj,
                             exists, extend_signature, forall, ground_terms,
                             implies, instantiate_exponent, is_ground, power,
                             sentence_size, sentence_vars, term_key, top,
                             trans, translate_sentence)

a = App(A, ())
b = App(B, ())


def f(t):
    return App(F, (t,))


# --- terms and signatures ---------------------------------------------------


def test_app_rank_checked():
    with pytest.raises(SyntaxError_):
        App(F, ())  # wrong arity [TRIVIAL]
    with pytest.raises(SyntaxError_):
        App(F, (App(F, (a,)), a))


def test_signature_decls_named_sorted():
    assert [d.name for d in SIG.decls_named("a")] == ["a"]
    assert SIG.decls_named("nope") == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("fgh"),
                          st.lists(st.sampled_from("st"), max_size=3),
                          st.sampled_from("st")), max_size=12),
       st.lists(st.sampled_from("fghk"), min_size=1, max_size=6))
def test_decls_named_index_matches_scan(decls, names):
    """The name index gives, for overloaded names too, what a scan of every
    declaration gave, and no caller can change what it gives."""
    sig = Signature.make("st", [FuncDecl(n, tuple(ar), r)
                                for n, ar, r in decls])
    for name in names:
        got = sig.decls_named(name)
        assert isinstance(got, tuple)
        assert list(got) == sorted(d for d in sig.funcs if d.name == name)
        assert sig.decls_named(name) is got


def test_variable_requires_declared_sort():
    with pytest.raises(SyntaxError_):
        Variable("x", "bogus", SIG)


def test_extend_signature_adds_constants():
    x = Variable("x", "s", SIG)
    ext = extend_signature(SIG, [x])
    assert FuncDecl("x", (), "s") in ext.funcs
    assert SIG.funcs < ext.funcs


# --- actions ----------------------------------------------------------------


def test_power_zero_is_none_and_trans_degrades_to_eq():
    # a^0 t1 => t2 is the equation t1 = t2 [PAPER]
    assert power(Lbl("lam"), 0) is None
    assert trans(a, power(Lbl("lam"), 0), b) == Eq(a, b)


def test_power_right_nested():
    lam = Lbl("lam")
    assert power(lam, 1) == lam
    assert power(lam, 3) == Seq(lam, Seq(lam, lam))  # [TRIVIAL]
    # a^1 .. a^n are one chain held on the body, extended as needed
    assert power(lam, 1) is lam
    top_ = power(lam, 40)
    for n in range(2, 41):
        assert power(lam, n).right is power(lam, n - 1)
        assert power(lam, n).left is lam
    assert power(lam, 40) is top_
    # a body's chain is its own: an equal body builds another
    other = Lbl("lam")
    assert power(other, 3) == power(lam, 3)
    assert power(other, 3) is not power(lam, 3)


def test_instantiate_exponent():
    act = Pow(Lbl("lam"), SymExp("k"))
    assert instantiate_exponent(act, "k", 2) == Seq(Lbl("lam"), Lbl("lam"))
    assert instantiate_exponent(act, "k", 0) is None
    # zero exponent under composition collapses to the other operand
    seq = Seq(act, Lbl("mu"))
    assert instantiate_exponent(seq, "k", 0) == Lbl("mu")


def recursive_action_key(a):
    """The action key as it was computed before nodes kept theirs."""
    if isinstance(a, Lbl):
        return (0, a.name)
    if isinstance(a, Seq):
        return (1, recursive_action_key(a.left), recursive_action_key(a.right))
    if isinstance(a, Alt):
        return (2, recursive_action_key(a.left), recursive_action_key(a.right))
    if isinstance(a, Star):
        return (3, recursive_action_key(a.body))
    return (4, recursive_action_key(a.body), a.exp.name)


def assert_dataclass_hash(a):
    """Each node hashes as the generated dataclass hash did: as the tuple of
    its fields."""
    if isinstance(a, Lbl):
        fields, children = (a.name,), ()
    elif isinstance(a, (Seq, Alt)):
        fields = children = (a.left, a.right)
    elif isinstance(a, Star):
        fields = children = (a.body,)
    else:
        fields, children = (a.body, a.exp), (a.body,)
    assert hash(a) == hash(fields)
    for child in children:
        assert_dataclass_hash(child)


def keyed_action_strategy():
    """Fresh actions with powers (through the shared chains), symbolic
    powers and nested stars; some subtrees are keyed or hashed before their
    parents are built."""
    def touched(a, how):
        if how == 1:
            action_key(a)
        elif how == 2:
            hash(a)
        return a

    base = st.builds(Lbl, st.sampled_from(["lam", "mu"]))
    return st.recursive(
        base,
        lambda child: st.builds(touched, st.one_of(
            st.builds(Seq, child, child),
            st.builds(Alt, child, child),
            st.builds(Star, child),
            st.builds(Star, st.builds(Star, child)),
            st.builds(Pow, child, st.builds(SymExp, st.sampled_from("km"))),
            st.builds(power, child, st.integers(1, 4))),
            st.integers(0, 2)),
        max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(keyed_action_strategy(), min_size=2, max_size=5))
def test_stored_action_keys_match_recursive_keys(acts):
    for act in acts:
        assert action_key(act) == recursive_action_key(act)
        assert action_key(act) is action_key(act)
    for x in acts:
        for y in acts:
            same = recursive_action_key(x) == recursive_action_key(y)
            assert (x == y) == same and (x != y) == (not same)
            if same:
                assert hash(x) == hash(y)
        assert_dataclass_hash(x)
    # disj orders its items by the old keys of their atoms
    atoms = [Trans(a, act, b) for act in acts]
    old = sorted({("=>", (1, "a", (), "s", ()), recursive_action_key(act),
                   (1, "b", (), "s", ())): str(t) for act, t in zip(acts, atoms)
                  }.items())
    assert [str(t) for t in disj(atoms).items] == [text for _, text in old]


@given(action_strategy())
def test_action_key_total_order(act):
    assert action_key(act) == action_key(act)
    assert str(act)


# --- sentences and alpha-equivalence ----------------------------------------


def test_connective_sugar():
    phi, psi = Eq(a, a), Eq(a, b)
    assert conj([phi]) == phi
    assert conj([]) == top()
    assert disj([]) == bot()
    assert implies(phi, psi) == Disj((Neg(phi), psi))
    x = Variable("x", "s", SIG)
    assert forall([x], phi) == Neg(Exists(frozenset([x]), Neg(phi)))


def test_alpha_equivalence_of_binders():
    x = Variable("x", "s", SIG)
    y = Variable("y", "s", SIG)
    assert exists([x], Eq(Var(x), a)) == exists([y], Eq(Var(y), a))
    assert exists([x], Eq(Var(x), a)) != exists([x], Eq(Var(x), b))
    # binders in sibling disjuncts are named independently of their order
    e1, e2 = exists([x], Eq(a, Var(x))), exists([y], Eq(Var(y), Var(y)))
    assert Disj((e1, e2)) == Disj((e2, e1))


def test_sentence_vars_scoping():
    x = Variable("x", "s", SIG)
    phi = exists([x], Eq(Var(x), a))
    assert sentence_vars(phi) == set()
    assert sentence_vars(Eq(Var(x), a)) == {x}


@given(sentence_strategy())
def test_sentence_key_is_stable(phi):
    assert (phi == phi) and sentence_size(phi) >= 1


# --- translation functoriality ----------------------------------------------


TARGET = Signature.make(
    ["u"], [FuncDecl("c", (), "u"), FuncDecl("d", (), "u"),
            FuncDecl("g", ("u",), "u")],
    mono=[FuncDecl("g", ("u",), "u")], labels=["nu", "xi"])


def _morphism(a_to, b_to, lam_to, mu_to):
    return SignatureMorphism(
        SIG, TARGET, {"s": "u"},
        {A: FuncDecl(a_to, (), "u"), B: FuncDecl(b_to, (), "u"),
         F: FuncDecl("g", ("u",), "u")},
        {"lam": lam_to, "mu": mu_to})


def test_morphism_validation():
    with pytest.raises(SyntaxError_):
        SignatureMorphism(SIG, TARGET, {"s": "u"}, {}, {})
    with pytest.raises(SyntaxError_):
        _morphism("c", "d", "nu", "missing")


@settings(max_examples=150, deadline=None)
@given(sentence_strategy(),
       st.sampled_from(["c", "d"]), st.sampled_from(["c", "d"]),
       st.sampled_from(["nu", "xi"]), st.sampled_from(["nu", "xi"]))
def test_translation_composes(phi, a_to, b_to, lam_to, mu_to):
    # chi ; id == chi, and translation along identity is identity
    ident = SignatureMorphism.identity(SIG)
    assert translate_sentence(ident, phi, {v: v for v in sentence_vars(phi)}) \
        == phi
    chi = _morphism(a_to, b_to, lam_to, mu_to)
    composed = chi.then(SignatureMorphism.identity(TARGET))
    vm = {v: v for v in sentence_vars(phi)}
    vm_t = {Variable(v.name, "u", TARGET): Variable(v.name, "u", TARGET)
            for v in sentence_vars(phi)}
    lhs = translate_sentence(composed,
                             phi, {v: Variable(v.name, "u", TARGET)
                                   for v in sentence_vars(phi)})
    rhs = translate_sentence(chi, phi, {v: Variable(v.name, "u", TARGET)
                                        for v in sentence_vars(phi)})
    assert lhs == rhs


# --- substitution -----------------------------------------------------------


def test_substitution_ground():
    x = Variable("x", "s", SIG)
    theta = {x: f(a)}
    assert apply_substitution(theta, Eq(Var(x), b)) == Eq(f(a), b)


def test_substitution_respects_binding():
    x = Variable("x", "s", SIG)
    phi = exists([x], Eq(Var(x), a))
    # x is bound; substituting for it must not change the sentence
    assert apply_substitution({x: b}, phi) == phi


@given(ground_term_strategy())
def test_ground_terms_are_ground(t):
    assert is_ground(t)
    assert term_key(t) == term_key(t)


def test_term_key_linear_in_depth():
    g = FuncDecl("g", ("s", "s"), "s")
    sig = Signature.make(["s"], [A, B, F, g])
    x = Var(Variable("x", "s", sig))
    key_a = (1, 1, "a", (), "s", ())
    assert term_key(App(g, (f(a), x))) == (
        1, 3, "g", ("s", "s"), "s",
        ((1, 2, "f", ("s",), "s", (key_a,)), (0, 0, "x", "s")))
    assert term_key(f(App(g, (b, a)))) == (
        1, 4, "f", ("s",), "s",
        ((1, 3, "g", ("s", "s"), "s", ((1, 1, "b", (), "s", ()), key_a)),))
    # each argument is keyed once: f^60(a) would take 2^60 steps otherwise
    t = a
    for _ in range(60):
        t = f(t)
    key = term_key(t)
    assert key[1] == 61 and key < term_key(f(t))


def test_ground_terms_by_depth():
    pool = ground_terms(SIG, 2)["s"]
    assert App(A, ()) in pool and f(f(a)) in pool
    assert f(f(f(a))) not in pool  # depth 3 [TRIVIAL]
