"""Finite models, action interpretation, satisfaction, reducts, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (A, B, F, SIG, SIG_PLAIN, action_strategy, data_text,
                      model_strategy, random_action, sentence_strategy)
from talgebra import semantics
from talgebra.formats import ParseContext, parse_model, parse_sentence, \
    parse_theory, print_model
from talgebra.semantics import (FiniteModel, ModelError, _monotone_relations,
                                _relations, _triples, compose_relations,
                                enumerate_models, estimate_model_count,
                                find_countermodel, identity_relation,
                                interpret_action, monotonicity_failure, reduct,
                                satisfies, satisfies_all,
                                semantic_entails_bounded)
from talgebra.syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                             Pow, Seq, Signature, SignatureMorphism, Star,
                             SymExp, SyntaxError_, Trans, Var, Variable, disj,
                             exists, forall, power, trans)

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


# --- the memoized evaluator and the enumerator against plain oracles ----------


def plain_closure(rel, domain):
    # the oracle closure: compose the whole closure with rel, until nothing
    # new appears
    closure = {(e, e) for e in domain} | set(rel)
    while True:
        extra = {(x, z) for (x, y) in closure for (y2, z) in rel
                 if y == y2} - closure
        if not extra:
            return frozenset(closure)
        closure |= extra


def plain_action(m, a, sort):
    # the oracle interpretation: recomputed from the labels on every call
    if isinstance(a, Lbl):
        return frozenset((x, y) for (s, x, y) in m.label_rel.get(a.name, ())
                         if s == sort)
    if isinstance(a, Star):
        return plain_closure(plain_action(m, a.body, sort), m.carrier[sort])
    left, right = plain_action(m, a.left, sort), plain_action(m, a.right, sort)
    if isinstance(a, Alt):
        return left | right
    return frozenset((x, z) for (x, y) in left for (y2, z) in right if y == y2)


S_T = ["s", "t"]
G = FuncDecl("g", ("t",), "s")
H = FuncDecl("h", ("s", "t"), "s")
TWO_LABEL_SIGS = {
    "no-ops": (Signature.make(["s"], [], labels=["lam", "mu"]), 2),
    "mono-f": (Signature.make(["s"], [A, F], mono=[F], labels=["lam", "mu"]),
               2),
    "two-sorts": (Signature.make(S_T, [G], mono=[G], labels=["lam", "mu"]),
                  {"s": 2, "t": 1}),
}


@pytest.mark.parametrize("name", sorted(TWO_LABEL_SIGS))
def test_interpret_action_matches_plain_oracle(name):
    sig, size = TWO_LABEL_SIGS[name]
    rng = random.Random(name)
    actions = [random_action(rng, ["lam", "mu"], 3) for _ in range(16)]
    actions += [Star(Seq(Lbl("lam"), Star(Lbl("mu"))))]
    checked = 0
    for m in enumerate_models(sig, size):
        for act in actions:
            for sort in sorted(sig.sorts):
                want = plain_action(m, act, sort)
                assert interpret_action(m, act, sort) == want, (m, act)
                # a second reading comes from the model's memo
                assert interpret_action(m, act, sort) == want
                checked += 1
    assert checked > 1000


def test_interpret_action_matches_plain_oracle_on_sparse_graphs():
    # paths of up to five steps, which models of size <= 3 cannot need
    sig = TWO_LABEL_SIGS["no-ops"][0]
    rng = random.Random(6)
    actions = [random_action(rng, ["lam", "mu"], 3) for _ in range(16)]
    for _ in range(40):
        rels = {l: frozenset(("s", x, y) for x in range(6) for y in range(6)
                             if rng.random() < 0.12) for l in ("lam", "mu")}
        m = FiniteModel(sig, {"s": tuple(range(6))}, {}, rels)
        for act in actions + [Star(Lbl("lam")), Star(Alt(Lbl("lam"),
                                                          Lbl("mu")))]:
            assert interpret_action(m, act, "s") == plain_action(m, act, "s")


def test_relation_memo_is_not_a_field():
    m = rel_model([(0, 1), (1, 2)])
    fresh = rel_model([(0, 1), (1, 2)])
    text = repr(m)
    interpret_action(m, Star(Lbl("lam")), "s")
    assert m == fresh and repr(m) == text
    assert "_relations" not in text


def rejecting_enumeration(sig, max_size):
    """The oracle: every candidate built, and the constructor rejects those
    that break monotonicity."""
    bounds = max_size if isinstance(max_size, dict) else {
        s: max_size for s in sig.sorts}
    sorts, decls, labels = sorted(sig.sorts), sorted(sig.funcs), sorted(
        sig.labels)
    for vector in itertools.product(*(range(bounds[s] + 1) for s in sorts)):
        carrier = {s: tuple(range(k)) for s, k in zip(sorts, vector)}
        domains = [list(itertools.product(*(carrier[s] for s in d.arity)))
                   for d in decls]
        if any(dom and not carrier[d.result] for d, dom in zip(decls, domains)):
            continue
        if any(d.is_constant and not carrier[d.result] for d in decls):
            continue
        table_choices = []
        for d, dom in zip(decls, domains):
            values = list(itertools.product(carrier[d.result], repeat=len(dom)))
            table_choices.append([dict(zip(dom, vs)) for vs in values] or [{}])
        all_pairs = [(s, x, y) for s in sorts
                     for x in carrier[s] for y in carrier[s]]
        rel_choices = [[frozenset(c) for r in range(len(all_pairs) + 1)
                        for c in itertools.combinations(all_pairs, r)]
                       for _ in labels]
        for tables in itertools.product(*table_choices):
            func_table = dict(zip(decls, tables))
            for rels in itertools.product(*rel_choices) if labels else [()]:
                try:
                    yield FiniteModel(sig, carrier, func_table,
                                      dict(zip(labels, rels)))
                except ModelError:
                    continue


@pytest.mark.parametrize("sig,size", [
    (SIG, 2),
    (Signature.make(["s"], [A, F], mono=[F], labels=["lam"]), 3),
    TWO_LABEL_SIGS["two-sorts"],
    (Signature.make(S_T, [H], mono=[H], labels=["lam"]), {"s": 2, "t": 1}),
    (SIG_PLAIN, 2),
], ids=["a-b-mono-f", "a-mono-f-size-3", "two-sorts", "binary-mono",
        "plain-f"])
def test_enumeration_matches_rejecting_oracle(sig, size):
    got = list(enumerate_models(sig, size))
    assert got == list(rejecting_enumeration(sig, size))
    assert got


def old_find_countermodel(gamma, goal, models):
    """The oracle search: the first model of the enumeration, each built
    whole, that satisfies gamma and not the goal."""
    for m in models:
        if satisfies_all(m, gamma) and not satisfies(m, goal):
            return m
    return None


def random_closed_sentence(rng, sig, depth=2):
    """A seeded closed sentence over `sig`: atoms over terms of its
    operations and of variables bound by existentials and universals, under
    negations and disjunctions."""
    sorts = sorted(sig.sorts)
    decls = sorted(sig.funcs)
    labels = sorted(sig.labels)
    fresh = itertools.count()

    def buildable(d, scope, depth):
        return not d.arity or depth > 0 and all(
            has_term(s, scope, depth - 1) for s in d.arity)

    def has_term(sort, scope, depth):
        return any(v.sort == sort for v in scope) or any(
            d.result == sort and buildable(d, scope, depth) for d in decls)

    def term(sort, scope, depth):
        pick = rng.choice([Var(v) for v in scope if v.sort == sort]
                          + [d for d in decls if d.result == sort
                             and buildable(d, scope, depth)])
        if isinstance(pick, Var):
            return pick
        return App(pick, tuple(term(s, scope, depth - 1) for s in pick.arity))

    def sentence(scope, depth):
        kind = rng.randrange(5) if depth else 0
        ready = [s for s in sorts if has_term(s, scope, 1)]
        if kind == 0 and not ready:
            kind = 3
        if kind == 0:
            sort = rng.choice(ready)
            left, right = term(sort, scope, 1), term(sort, scope, 1)
            if labels and rng.random() < 0.6:
                return Trans(left, random_action(rng, labels, 2), right)
            return Eq(left, right)
        if kind == 1:
            return Neg(sentence(scope, depth - 1))
        if kind == 2:
            return Disj(tuple(sentence(scope, depth - 1)
                              for _ in range(rng.randrange(3))))
        x = Variable(f"x{next(fresh)}", rng.choice(sorts), sig)
        body = sentence(scope + [x], max(depth - 1, 0))
        return exists([x], body) if kind == 3 else forall([x], body)

    return sentence([], depth)


@pytest.mark.parametrize("sig,size,instances", [
    (SIG, 2, 30),
    (Signature.make(["s"], [A, F], mono=[F], labels=["lam"]), 3, 12),
    (*TWO_LABEL_SIGS["two-sorts"], 30),
    (Signature.make(S_T, [H], mono=[H], labels=["lam"]), {"s": 2, "t": 1},
     30),
    (SIG_PLAIN, 2, 30),
], ids=["a-b-mono-f", "a-mono-f-size-3", "two-sorts", "binary-mono",
        "plain-f"])
def test_staged_search_matches_old_search(sig, size, instances):
    # the staged search skips only prefixes that no countermodel extends,
    # so it meets the same first countermodel as the full enumeration
    models = list(rejecting_enumeration(sig, size))
    rng = random.Random(f"staged:{sorted(sig.labels)}:{size}")
    outcomes = set()
    for _ in range(instances):
        gamma = [random_closed_sentence(rng, sig)
                 for _ in range(rng.randrange(3))]
        goal = random_closed_sentence(rng, sig)
        want = old_find_countermodel(gamma, goal, models)
        got = find_countermodel(gamma, goal, size, sig)
        outcomes.add(want is None)
        if want is None:
            assert got is None, (gamma, goal)
        else:
            assert got == want and print_model(got) == print_model(want), \
                (gamma, goal)
    assert outcomes == {True, False}


@pytest.mark.parametrize("sig,size", [
    (SIG, 2),
    (Signature.make(["s"], [A, F], mono=[F], labels=["lam"]), 3),
    (TWO_LABEL_SIGS["two-sorts"][0], 2),
    (Signature.make(S_T, [H], mono=[H], labels=["lam"]), 2),
], ids=["a-b-mono-f", "a-mono-f-size-3", "two-sorts", "binary-mono"])
def test_monotone_index_matches_monotonicity_failure(sig, size):
    # every relation over every carrier and choice of tables, in the old
    # enumerator's order, filtered by the old scan
    unlabelled = Signature(sig.sorts, sig.funcs, sig.mono, frozenset())
    checked = 0
    for m in enumerate_models(unlabelled, size):
        all_pairs = [(s, x, y) for s in sorted(sig.sorts)
                     for x in m.carrier[s] for y in m.carrier[s]]
        old = [frozenset(c) for r in range(len(all_pairs) + 1)
               for c in itertools.combinations(all_pairs, r)]
        relations = _relations(sorted(sig.sorts), m.carrier)
        assert [_triples(pairs) for _, _, pairs in relations] == old
        want = [rel for rel in old if monotonicity_failure(
            sig, m.carrier, m.func_table, rel) is None]
        got = _monotone_relations(sig, m.carrier, m.func_table, relations)
        assert [_triples(pairs) for pairs in got] == want
        checked += len(old)
    assert checked > 250


SYMBOLIC_THEORY = """\
theory sym
sorts s
ops
  a : -> s
  b : -> s
labels lam
axioms
"""


@pytest.mark.parametrize("axioms,goal", [
    # the goal holds in every model, so its stage would prune everything
    (['"p": a =[lam^k]=> b'], "a = a"),
    (['"p": a = b'], "b =[lam^k]=> a"),
    # no model satisfies the first axiom
    (['"p": not a = a', '"q": a =[(lam ; lam^k)*]=> b'], "a = b"),
], ids=["gamma", "goal", "gamma-unsatisfiable"])
def test_symbolic_power_rejected_before_search(tmp_path, capsys, axioms,
                                               goal):
    from talgebra import cli
    theory = tmp_path / "sym.ta"
    theory.write_text(SYMBOLIC_THEORY + "".join(f"  {ax}\n" for ax in axioms))
    assert cli.main(["oracle", str(theory), goal]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: cannot interpret symbolic power lam^k\n"


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


# --- compiled satisfaction against the recursive walk ----------------------


def recursive_satisfies(m, phi, env=None):
    """The oracle: satisfaction as a direct recursive walk that copies the
    variable bindings at each binder."""
    if isinstance(phi, Eq):
        return (semantics.interpret_term(m, phi.left, env)
                == semantics.interpret_term(m, phi.right, env))
    if isinstance(phi, Trans):
        pair = (semantics.interpret_term(m, phi.left, env),
                semantics.interpret_term(m, phi.right, env))
        return pair in interpret_action(m, phi.action, phi.sort)
    if isinstance(phi, Neg):
        return not recursive_satisfies(m, phi.body, env)
    if isinstance(phi, Disj):
        return any(recursive_satisfies(m, s, env) for s in phi.items)
    xs = sorted(phi.variables, key=lambda v: (v.sort, v.name))
    pools = [m.carrier[x.sort] for x in xs]
    base = dict(env) if env else {}
    for combo in itertools.product(*pools):
        inner = dict(base)
        inner.update(zip(xs, combo))
        if recursive_satisfies(m, phi.body, inner):
            return True
    return False


def outcome(evaluate, m, phi, env=None):
    """The truth value, or the type and message of the error raised."""
    try:
        return evaluate(m, phi, env)
    except (SyntaxError_, KeyError) as exc:
        return type(exc).__name__, str(exc)


# two sorts, a constant of each, a unary and a binary operation
C = FuncDecl("c", (), "t")
G2 = FuncDecl("g", ("s", "t"), "s")
SIG_2 = Signature.make(S_T, [A, C, F, G2], labels=["lam", "mu"])
X, Y, Z = (Variable(n, s, SIG_2) for n, s in (("x", "s"), ("y", "s"),
                                             ("z", "t")))
POWER = Pow(Lbl("lam"), SymExp("k"))


def _terms(sort: str):
    if sort == "t":
        return st.sampled_from([Var(Z), App(C, ())])
    return st.recursive(
        st.sampled_from([Var(X), Var(Y), App(A, ())]),
        lambda inner: st.one_of(
            inner.map(lambda u: App(F, (u,))),
            st.tuples(inner, _terms("t")).map(lambda p: App(G2, p))),
        max_leaves=3)


@st.composite
def _atoms(draw):
    sort = draw(st.sampled_from(S_T))
    left, right = draw(_terms(sort)), draw(_terms(sort))
    action = draw(st.one_of(action_strategy(3), st.just(POWER)))
    return draw(st.sampled_from([Eq(left, right),
                                 Trans(left, action, right)]))


# binders draw from three variables, so they nest, shadow and span sorts;
# disjuncts keep the order drawn
SENTENCES = st.recursive(
    _atoms(),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.lists(inner, max_size=3).map(lambda items: Disj(tuple(items))),
        st.tuples(st.sets(st.sampled_from([X, Y, Z]), max_size=3),
                  inner).map(lambda p: Exists(frozenset(p[0]), p[1]))),
    max_leaves=6)


@st.composite
def _model_and_env(draw):
    """Two equal models over SIG_2, each with its own relation memo, whose
    carriers may be empty (a constant into an empty carrier is left out of
    its table), and an env that binds some of the variables, or None."""
    # the sorts share no element, so a value read from a wrong slot shows
    carrier = {"s": tuple(range(draw(st.integers(0, 3)))),
               "t": tuple(range(10, 10 + draw(st.integers(0, 2))))}

    def table(decl):
        tuples = list(itertools.product(*(carrier[s] for s in decl.arity)))
        if not carrier[decl.result]:
            return {}
        return {args: draw(st.sampled_from(carrier[decl.result]))
                for args in tuples}

    tables = {d: table(d) for d in (A, C, F, G2)}
    pairs = {l: {s: frozenset(draw(st.sets(st.sampled_from(
        [(i, j) for i in es for j in es])))) if es else frozenset()
        for s, es in carrier.items()} for l in ("lam", "mu")}
    env = draw(st.one_of(st.none(), st.fixed_dictionaries({}, optional={
        v: st.sampled_from(carrier[v.sort]) for v in (X, Y, Z)
        if carrier[v.sort]})))
    models = [FiniteModel._unchecked(SIG_2, carrier, tables, {}, pairs)
              for _ in range(2)]
    return models, env


@settings(max_examples=300, deadline=None)
@given(_model_and_env(), SENTENCES)
def test_compiled_satisfies_matches_recursive_walk(model_and_env, phi):
    (m, oracle_model), env = model_and_env
    want = outcome(recursive_satisfies, oracle_model, phi, env)
    assert outcome(satisfies, m, phi, env) == want
    # the second evaluation runs the closures kept on phi
    assert outcome(satisfies, m, phi, env) == want


def _m2():
    return FiniteModel(SIG_2, {"s": (0, 1), "t": (0,)},
                       {A: {(): 0}, C: {(): 0},
                        F: {(0,): 1, (1,): 0},
                        G2: {(0, 0): 1, (1, 0): 1}},
                       {"lam": frozenset({("s", 0, 1), ("s", 1, 1)}),
                        "mu": frozenset({("t", 0, 0)})})


x_, y_, z_, a_, c_ = Var(X), Var(Y), Var(Z), App(A, ()), App(C, ())


@pytest.mark.parametrize("phi,env,want", [
    # a shadowed binder: the inner x is 1, the outer one 0 again after it
    (Exists(frozenset([X]), Disj((
        Exists(frozenset([X]), Trans(x_, Lbl("lam"), x_)),
        Eq(x_, App(F, (x_,)))))), None, True),
    (Exists(frozenset([X]), Neg(Disj((
        Neg(Exists(frozenset([X]), Eq(x_, a_))),
        Neg(Eq(x_, App(F, (a_,)))))))), None, True),
    # one binder over two sorts, and one whose body fixes the order
    (Exists(frozenset([X, Z]), Eq(App(G2, (x_, z_)), a_)), None, False),
    (Exists(frozenset([X, Y]), Disj((Neg(Trans(x_, Lbl("lam"), y_)),
                                     Eq(x_, y_)))), None, True),
    # free variables come from env; a missing one is unbound
    (Trans(x_, Lbl("lam"), y_), {X: 0, Y: 1}, True),
    (Trans(x_, Lbl("lam"), y_), {X: 1, Y: 0}, False),
    (Trans(x_, Lbl("lam"), y_), {X: 0},
     ("SyntaxError_", "unbound variable 'y'")),
    (Exists(frozenset([Y]), Eq(x_, y_)), None,
     ("SyntaxError_", "unbound variable 'x'")),
    # an env binding that a binder shadows
    (Exists(frozenset([X]), Trans(x_, Lbl("lam"), a_)), {X: 1}, False),
    # a symbolic power behind a true disjunct is never reached; in front of
    # it, it raises; the terms of an atom are read before its relation
    (Disj((Eq(a_, a_), Trans(a_, POWER, a_))), None, True),
    (Disj((Trans(a_, POWER, a_), Eq(a_, a_))), None,
     ("SyntaxError_", "cannot interpret symbolic power lam^k")),
    (Trans(x_, POWER, a_), None, ("SyntaxError_", "unbound variable 'x'")),
    (Trans(a_, POWER, x_), None, ("SyntaxError_", "unbound variable 'x'")),
    (Trans(a_, Star(Star(Alt(Lbl("lam"), Lbl("mu")))), App(F, (a_,))),
     None, True),
])
def test_compiled_satisfies_cases(phi, env, want):
    assert outcome(recursive_satisfies, _m2(), phi, env) == want
    m = _m2()
    assert outcome(satisfies, m, phi, env) == want
    assert outcome(satisfies, m, phi, env) == want


def test_compiled_sentence_keeps_no_model(monkeypatch):
    """A sentence is compiled once, on first use; its closures hold no model,
    and each evaluation reads the relations of its own model."""
    import gc
    import weakref
    compiled = []

    def counting(phi):
        compiled.append(phi)
        return compile_(phi)

    compile_ = semantics._compile
    monkeypatch.setattr(semantics, "_compile", counting)
    loop = Exists(frozenset([X]), Trans(x_, Lbl("lam"), x_))
    m = _m2()                                   # lam: 0 -> 1, 1 -> 1
    other = FiniteModel(SIG_2, m.carrier, m.func_table,
                        {"lam": frozenset({("s", 0, 1)})})
    assert [satisfies(m, loop), satisfies(other, loop),
            satisfies(m, loop)] == [True, False, True]
    assert compiled == [loop]
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_compiled_satisfies_on_criterion_10_signatures():
    """Every model up to size 2 of the signatures of the soundness harness,
    on its sentences and on quantified ones over them."""
    lam, mu = Lbl("lam"), Lbl("mu")
    f = lambda t: App(F, (t,))
    sig_one = Signature.make(["s"], [A, B, F], mono=[F], labels=["lam"])
    sig_two = Signature.make(["s"], [A], labels=["lam", "mu"])
    for sig, labels in ((sig_one, [lam]), (sig_two, [lam, mu])):
        x = Var(Variable("x", "s", sig))
        atoms = [Eq(a, a), Trans(a, Seq(lam, labels[-1]), a),
                 Trans(a, Star(lam), x), Trans(x, Alt(lam, labels[-1]), a)]
        if sig is sig_one:
            atoms += [Eq(a, b), Eq(b, f(a)), Trans(f(a), lam, f(x)),
                      Disj((Eq(a, b), Eq(f(a), f(f(a)))))]
        sentences = [exists([x.var], phi) for phi in atoms] + [
            forall([x.var], disj([Neg(p), q])) for p in atoms for q in atoms]
        for m in enumerate_models(sig, 2):
            for phi in sentences:
                assert outcome(satisfies, m, phi) == \
                    outcome(recursive_satisfies, m, phi)


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


def test_relations_built_only_when_labels_are_reached(monkeypatch):
    """A label-free goal that holds in every model prunes every table
    choice, so no relation over any carrier is built; once the labels are
    reached, each carrier's relations are built once."""
    sig = Signature.make(["s", "t"], [], labels=["lam"])
    x = Variable("x", "s", sig)
    calls = []
    build = semantics._relations

    def counting(sorts, carrier):
        calls.append(dict(carrier))
        return build(sorts, carrier)

    monkeypatch.setattr(semantics, "_relations", counting)
    assert find_countermodel([], forall([x], Eq(Var(x), Var(x))),
                             {"s": 3, "t": 2}, sig) is None
    assert calls == []
    y = Variable("y", "s", sig)
    goal = forall([x, y], Trans(Var(x), Lbl("lam"), Var(y)))
    m = find_countermodel([], goal, {"s": 1, "t": 1}, sig)
    assert m is not None and m.carrier == {"s": (0,), "t": ()}
    assert calls == [{"s": (), "t": ()}, {"s": (), "t": (0,)},
                     {"s": (0,), "t": ()}]
