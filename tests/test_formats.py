"""Text format tests: tokenizer, term/sentence/theory/model/proof/forcing I/O.

Oracle tags:
  [TRIVIAL] direct assertions on small hand-checked inputs.
  [DERIVED] round-trip laws (print then parse yields an equal object) checked
            over randomly generated syntax via hypothesis.
"""

import random
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings

from talgebra import formats
from talgebra.calculus import ProofNode, Sequent, Valid, check_proof
from talgebra.formats import (
    ParseContext,
    ParseError,
    TokenStream,
    build_proof,
    parse_forcing,
    parse_model,
    parse_sentence,
    parse_term_text,
    parse_theory,
    print_model,
    print_proof,
    print_sentence,
    print_theory,
    tokenize,
)

import pytest

from talgebra.syntax import (App, Eq, FuncDecl, Lbl, Seq, Signature, Trans,
                             Var, Variable, exists, sentence_vars)

from conftest import (A, B, SIG, data_text, sentence_strategy,
                      ground_term_strategy)


CTX = ParseContext(SIG)


# --- tokenizer -------------------------------------------------------------


def test_tokenizer_positions():
    # [TRIVIAL] tokens carry 1-based line/column positions.
    toks = tokenize("a =\n  f(a)")
    assert (toks[0].value, toks[0].line, toks[0].col) == ("a", 1, 1)
    f_tok = [t for t in toks if t.value == "f"][0]
    assert (f_tok.line, f_tok.col) == (2, 3)


def test_unexpected_symbol_rejected():
    # [TRIVIAL] stray symbols fail with a positioned ParseError.
    with pytest.raises(ParseError) as ei:
        parse_sentence("a = $", CTX)
    assert ei.value.line == 1


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match="cannot resolve"):
        parse_term_text("nosuch", CTX)


# --- term and sentence round trips ----------------------------------------


@settings(max_examples=120)
@given(ground_term_strategy())
def test_term_roundtrip(t):
    # [DERIVED] print then parse is the identity on ground terms.
    assert parse_term_text(str(t), CTX) == t


@settings(max_examples=150, deadline=None)
@given(sentence_strategy().filter(lambda phi: not sentence_vars(phi)))
def test_sentence_roundtrip(phi):
    # [DERIVED] print then parse is the identity up to alpha-equivalence.
    assert parse_sentence(print_sentence(phi), CTX) == phi


def test_transition_action_parsing():
    # [TRIVIAL] action grammar: | binds looser than ; star and power postfix.
    phi = parse_sentence("a =[(lam ; mu | lam)*]=> b", CTX)
    assert parse_sentence(print_sentence(phi), CTX) == phi
    phi2 = parse_sentence("a =[lam^3]=> a", CTX)
    assert "lam^3" in print_sentence(phi2) or "lam ;" in print_sentence(phi2)


def test_zero_power_rejected():
    # [TRIVIAL] a zero-fold iteration is an equation, not an action.
    with pytest.raises(ParseError, match="zero-fold"):
        parse_sentence("a =[lam^0]=> a", CTX)


def test_empty_disjunction_and_sugar():
    f = parse_sentence(r"\/{}", CTX)
    assert parse_sentence(print_sentence(f), CTX) == f
    imp = parse_sentence("a = b -> b = a", CTX)
    assert parse_sentence(print_sentence(imp), CTX) == imp
    con = parse_sentence(r"/\{a = a, b = b}", CTX)
    assert parse_sentence(print_sentence(con), CTX) == con


def test_quantifier_parsing():
    phi = parse_sentence("exists {x:s, y:s} . x =[lam]=> y", CTX)
    assert parse_sentence(print_sentence(phi), CTX) == phi
    psi = parse_sentence("forall {x:s} . x = x", CTX)
    assert parse_sentence(print_sentence(psi), CTX) == psi


def test_overloaded_constant_ambiguity():
    # [TRIVIAL] a name declared at two sorts needs an expected sort.
    th = parse_theory(
        "theory amb\nsorts s, t\nops c : -> s\n  c : -> t\n  g : s -> s\n")
    ctx = ParseContext(th.signature)
    with pytest.raises(ParseError, match="ambiguous"):
        parse_term_text("c", ctx)
    # an expected sort (here forced by g's arity) disambiguates
    assert parse_term_text("g(c)", ctx).sort == "s"


def test_true_false_constants_vs_keywords():
    # [TRIVIAL] `true`/`false` act as terms when a theory declares them.
    th = parse_theory(data_text("exsound.ta"))
    ctx = ParseContext(th.signature)
    phi = parse_sentence("true = false", ctx)
    assert parse_sentence(print_sentence(phi), ctx) == phi
    # bare `true` is still the empty conjunction
    top = parse_sentence("true", ctx)
    assert parse_sentence(print_sentence(top), ctx) == top


# --- overload resolution: the old elaborator as oracle ---------------------
#
# The parser used to read a term into a sort-free tree first, then elaborate
# it against the expected sort, elaborating every argument again for each
# declaration of its parent: exponential in the nesting of overloaded names.
# These functions are that elaborator, kept as the oracle of the one-pass
# typing that replaced it.


@dataclass(frozen=True)
class _RawApp:
    name: str
    args: tuple
    line: int
    col: int
    ascribe: Optional[str] = None


def _parse_raw_term(ts):
    t = ts.peek()
    if t is not None and t.value == "(":
        ts.next()
        inner = _parse_raw_term(ts)
        ts.expect(":")
        sort_tok = ts.next()
        ts.expect(")")
        return _RawApp(inner.name, inner.args, t.line, t.col,
                       ascribe=sort_tok.value)
    if t is None or t.kind not in ("id", "num"):
        ts.error("expected a term")
    ts.next()
    args = ()
    if ts.peek_value() == "(":
        ts.next()
        items = [_parse_raw_term(ts)]
        while ts.accept(","):
            items.append(_parse_raw_term(ts))
        ts.expect(")")
        args = tuple(items)
    return _RawApp(t.value, args, t.line, t.col)


def _candidates(raw, ctx):
    if raw.name in ctx.variables and not raw.args:
        out = [Var(ctx.variables[raw.name])]
    elif raw.name in ctx.abbreviations and not raw.args:
        out = [ctx.abbreviations[raw.name]]
    else:
        out = []
        for d in ctx.signature.decls_named(raw.name):
            if len(d.arity) != len(raw.args):
                continue
            args = []
            for a, sort in zip(raw.args, d.arity):
                picked = _elaborate(a, ctx, sort, required=False)
                if picked is None:
                    break
                args.append(picked)
            else:
                out.append(App(d, tuple(args)))
    if raw.ascribe is not None:
        out = [t for t in out if t.sort == raw.ascribe]
    return out


def _elaborate(raw, ctx, expected, required=True):
    cands = [t for t in _candidates(raw, ctx)
             if expected is None or t.sort == expected]
    if len(cands) == 1:
        return cands[0]
    if not cands:
        if not required:
            return None
        want = f" of sort {expected}" if expected else ""
        raise ParseError(f"cannot resolve term {raw.name!r}{want}",
                         raw.line, raw.col)
    raise ParseError(f"ambiguous term {raw.name!r}: candidate sorts "
                     f"{sorted(t.sort for t in cands)}", raw.line, raw.col)


def _elaborate_pair(raw_left, raw_right, ctx):
    pairs = []
    for lt in _candidates(raw_left, ctx):
        rt = _elaborate(raw_right, ctx, lt.sort, required=False)
        if rt is not None:
            pairs.append((lt, rt))
    if len(pairs) == 1:
        return pairs[0]
    if not pairs:
        raise ParseError("no common sort for the two sides",
                         raw_left.line, raw_left.col)
    raise ParseError(f"ambiguous sorts {sorted(p[0].sort for p in pairs)} "
                     "for the two sides", raw_left.line, raw_left.col)


def _oracle_atom(ts, ctx):
    start = ts.pos
    raw_left = _parse_raw_term(ts)
    if ts.accept("="):
        return Eq(*_elaborate_pair(raw_left, _parse_raw_term(ts), ctx))
    if ts.accept("=["):
        action = formats.parse_action(ts, ctx)
        ts.expect("]=>")
        left, right = _elaborate_pair(raw_left, _parse_raw_term(ts), ctx)
        return formats.trans(left, action, right)
    ts.pos = start
    ts.error("expected '=' or '=[' after a term")


def _oracle_term(text, ctx, expected):
    ts = TokenStream(formats.tokenize(text))
    t = _elaborate(_parse_raw_term(ts), ctx, expected)
    if not ts.at_end():
        ts.error("trailing input after term")
    return t


# `a` and `f(a)` each denote a term of either sort, and `f(a)` two of sort s
OVERLOADED = parse_theory(
    "theory over\nsorts s, t\nops\n  a : -> s\n  a : -> t\n  b : -> s\n"
    "  f : s -> s\n  f : t -> t\n  f : t -> s\n  g : s -> s\n"
    "  h : s t -> s\nlabels lam\n").signature


def _random_term(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        # y, bound below to sort t, is an unknown name where unbound
        return rng.choice(["a", "a", "a", "b", "b", "x", "y", "k", "zz"])
    if roll < 0.5:
        # an ascription is never itself ascribed: the oracle drops the
        # inner sort of "((a : s) : t)" (test_nested_ascription_keeps_both)
        inner = _random_term(rng, depth - 1)
        while inner.startswith("("):
            inner = _random_term(rng, depth - 1)
        return f"({inner} : {rng.choice(['s', 's', 't', 't', 'u'])})"
    name = rng.choice(["f", "f", "f", "g", "g", "h", "h", "a", "q"])
    arity = {"h": 2, "a": rng.randrange(2)}.get(name, 1)
    if arity == 0:
        return name
    args = ", ".join(_random_term(rng, depth - 1) for _ in range(arity))
    return f"{name}({args})"


def _random_sentence(rng):
    left, right = _random_term(rng, 2), _random_term(rng, 3)
    phi = (f"{left} = {right}" if rng.random() < 0.6
           else f"{left} =[lam]=> {right}")
    if rng.random() < 0.2:
        phi = f"not {phi}"
    if rng.random() < 0.5:
        phi = f"exists {{x:s, y:t}} . {phi}"
    return phi


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc)


def test_one_pass_typing_matches_old_elaborator(monkeypatch):
    # [DERIVED] the same sentence, or the same error at the same place, as
    # the old elaborator, over overloaded names, variables, abbreviations,
    # ascriptions and unknown names.
    rng = random.Random(12)
    ctx = ParseContext(OVERLOADED, abbreviations={"k": parse_term_text(
        "f(b)", ParseContext(OVERLOADED))})
    texts = [_random_sentence(rng) for _ in range(1500)]
    new = [_outcome(parse_sentence, text, ctx) for text in texts]
    monkeypatch.setattr(formats, "_parse_atom", _oracle_atom)
    old = [_outcome(parse_sentence, text, ctx) for text in texts]
    assert new == old
    for _ in range(1500):
        text = _random_term(rng, 4)
        expected = rng.choice([None, "s", "t"])
        outcome = _outcome(parse_term_text, text, ctx, expected)
        assert outcome == _outcome(_oracle_term, text, ctx, expected), text
        old.append(outcome)
    errors = " ".join(o for o in old if isinstance(o, str))
    assert sum(not isinstance(o, str) for o in old) > len(old) // 5
    for kind in ("ambiguous term", "cannot resolve", "ambiguous sorts",
                 "no common sort"):
        assert kind in errors


def test_nested_ascription_keeps_both():
    ctx = ParseContext(OVERLOADED)
    assert parse_term_text("((a : t) : t)", ctx).sort == "t"
    with pytest.raises(ParseError, match="line 1, column 1: cannot resolve "
                                         "term 'a'"):
        parse_term_text("((a : s) : t)", ctx)


@pytest.mark.parametrize("depth", [60, 200])
def test_deep_overloads_parse(depth):
    # each argument is typed once, so the overloaded f nested 60 deep parses
    # (the old elaborator tried both f's at every level)
    text = ("theory o\nsorts s, t\nops\n  a : -> s\n  a : -> t\n"
            "  f : s -> s\n  f : t -> t\n  g : s -> s\naxioms\n  g("
            + "f(" * depth + "a" + ")" * depth + ") = a\n")
    th = parse_theory(text)
    a = App(FuncDecl("a", (), "s"), ())
    term = a
    for _ in range(depth):
        term = App(FuncDecl("f", ("s",), "s"), (term,))
    assert th.sentences == {Eq(App(FuncDecl("g", ("s",), "s"), (term,)), a)}


# --- theories and models ---------------------------------------------------


def test_theory_roundtrip():
    th = parse_theory(data_text("exsound.ta"))
    th2 = parse_theory(print_theory(th))
    assert th2.signature == th.signature
    assert th2.sentences == th.sentences
    assert th.named("foo-flip") is not None


def test_theory_monotone_flag_preserved():
    th = parse_theory(data_text("toy.ta"))
    assert th.signature.mono
    th2 = parse_theory(print_theory(th))
    assert th2.signature.mono == th.signature.mono


def test_model_roundtrip():
    th = parse_theory(data_text("exsound.ta"))
    m = parse_model(data_text("exsound_counter.tam"), th.signature)
    m2 = parse_model(print_model(m), th.signature)
    assert m2.carrier == m.carrier
    assert m2.func_table == m.func_table
    assert m2.label_rel == m.label_rel


def test_model_roundtrip_with_transitions():
    th = parse_theory(data_text("phi_omega.ta"))
    m = parse_model(data_text("cycle3.tam"), th.signature)
    m2 = parse_model(print_model(m), th.signature)
    assert m2.label_rel == m.label_rel


def test_model_unknown_element_rejected():
    th = parse_theory(data_text("phi_omega.ta"))
    bad = data_text("cycle3.tam").replace("e0", "zz", 1)
    with pytest.raises((ParseError, KeyError, ValueError)):
        parse_model(bad, th.signature)


# --- proof scripts ----------------------------------------------------------


def test_proof_script_roundtrip():
    # [DERIVED] build, print, rebuild: same verdict and byte-identical text.
    th = parse_theory(data_text("star_loop.ta"))
    script = data_text("star_loop.tap")
    proof = build_proof(script, th.signature, th.sentences)
    assert isinstance(check_proof(proof), Valid)
    text = print_proof(proof)
    proof2 = build_proof(text, th.signature, th.sentences)
    assert isinstance(check_proof(proof2), Valid)
    assert print_proof(proof2) == text


def test_proof_script_unknown_rule():
    # unknown rules parse into a node the checker then rejects
    from talgebra.calculus import Invalid
    th = parse_theory(data_text("star_loop.ta"))
    bad = data_text("star_loop.tap").replace("Star_E", "Star_X")
    verdict = check_proof(build_proof(bad, th.signature, th.sentences))
    assert isinstance(verdict, Invalid)
    assert "Star_X" in verdict.reason


def test_proof_script_missing_ref():
    th = parse_theory(data_text("star_loop.ta"))
    bad = data_text("star_loop.tap").replace("root s2", "root s9")
    with pytest.raises((ParseError, KeyError, ValueError)):
        build_proof(bad, th.signature, th.sentences)


def _comp_e_proof(first, second):
    """a =[first ; second]=> b |- a = a by Comp_E: the minor premise assumes
    the two steps through a fresh witness w, declared by its consts."""
    fresh = FuncDecl("w", (), "s")
    ext = Signature(SIG.sorts, SIG.funcs | {fresh}, SIG.mono, SIG.labels)
    a, b, w = App(A, ()), App(B, ()), App(fresh, ())
    step = Trans(a, Seq(first, second), b)
    gamma = frozenset([step])
    major = ProofNode(Sequent(SIG, gamma, step), "Monotonicity")
    minor = ProofNode(Sequent(ext, gamma | {Trans(a, first, w),
                                            Trans(w, second, b)}, Eq(a, a)),
                      "R")
    return gamma, ProofNode(Sequent(SIG, gamma, Eq(a, a)), "Comp_E",
                            (major, minor), {"fresh": fresh})


def test_comp_e_proofs_round_trip():
    # [DERIVED] the consts of a step are declared once, and an assume field
    # splits at a ';' only outside =[ ... ]=>
    for first, second in [(Lbl("lam"), Lbl("mu")),
                          (Seq(Lbl("lam"), Lbl("mu")), Lbl("lam"))]:
        gamma, proof = _comp_e_proof(first, second)
        assert isinstance(check_proof(proof), Valid)
        text = print_proof(proof)
        assert 'consts "w : s"' in text
        rebuilt = build_proof(text, SIG, gamma)
        assert rebuilt.conclusion == proof.conclusion
        assert isinstance(check_proof(rebuilt), Valid)
        assert print_proof(rebuilt) == text


def test_subst_proof_round_trip():
    # [DERIVED] a Subst step prints its substitution, and the rebuilt step
    # reads the substituted variables from the existential it concludes
    a, b = App(A, ()), App(B, ())
    x = Variable("x", "s", SIG)
    step = Trans(a, Lbl("lam"), b)
    gamma = frozenset([step])
    witness = ProofNode(Sequent(SIG, gamma, step), "Monotonicity")
    proof = ProofNode(Sequent(SIG, gamma, exists([x], Trans(a, Lbl("lam"),
                                                            Var(x)))),
                      "Subst", (witness,), {"subst": {x: b}})
    assert isinstance(check_proof(proof), Valid)
    text = print_proof(proof)
    assert 'subst "x := b"' in text
    rebuilt = build_proof(text, SIG, gamma)
    assert rebuilt.conclusion == proof.conclusion
    assert isinstance(check_proof(rebuilt), Valid)
    assert print_proof(rebuilt) == text


def test_ccs_proofs_round_trip():
    from talgebra.ccs import (ccs_steps, certify_word, compile_institute,
                              institute_process, institute_proof)
    compiled = compile_institute()
    p, steps = institute_process(), []
    for _ in range(6):
        steps.append(ccs_steps(compiled.program, p)[0])
        p = steps[-1].target
    proofs = [certify_word(compiled, institute_process(), steps),
              institute_proof(compiled)]
    names = {info.sentence: info.name for info in compiled.axioms}
    catalog = {info.name: info for info in compiled.axioms}
    for proof in proofs:
        text = print_proof(proof, axiom_names=names)
        rebuilt = build_proof(text, compiled.signature, compiled.theory,
                              axiom_catalog=catalog)
        assert rebuilt.conclusion == proof.conclusion
        assert check_proof(rebuilt) == check_proof(proof) == Valid()


@pytest.mark.parametrize("script,line,col,message", [
    # the fields and let lines of a script are read at their place in it
    ('# R\ns1 = rule R conclusion "a = zz"\n', 2, 25, "no common sort"),
    ('s0 = rule R conclusion "a = a"\n'
     's1 = rule R [s0] assume "a = a; a =[(lam ; mu)]=> q" conclusion '
     '"a = a"\n', 2, 33, "no common sort"),
    ('s1 = rule R vars "x : s, y : u" conclusion "a = a"\n', 1, 30,
     "unknown sort 'u'"),
    ('\n\nlet k = f(zz)\ns1 = rule R conclusion "k = k"\n', 3, 9,
     "cannot resolve term 'f'"),
    ('s1 = rule R conclusion ""\n', 1, 25, "expected a sentence (at end"),
    ('s1 = rule R conclusion "a = a b"\n', 1, 31,
     "trailing input after sentence"),
    # structural errors point at the offending token
    ('s1 = rule R conclusion "a = a"\n\nroot s7\n', 3, 6,
     "unknown root step 's7'"),
    ('s1 = rule R conclusion "a = a"\ns2 = rule S [s1, s9] conclusion '
     '"a = a"\n', 2, 18, "unknown step reference 's9'"),
    ('s1 = rule R conclusion "a = a"\ns2 = rule Star_E [s1] family k t1 '
     'conclusion "a = a"\n', 2, 32, "unknown step reference 't1'"),
    ('s1 = rule R conclusion "a = a"\ns1 = rule R conclusion "b = b"\n'
     'root s1\n', 2, 1, "duplicate step id 's1'"),
])
def test_proof_script_errors_report_file_positions(script, line, col,
                                                   message):
    with pytest.raises(ParseError) as ei:
        build_proof(script, SIG, [])
    assert str(ei.value).startswith(f"line {line}, column {col}: {message}")


# --- forcing fixtures --------------------------------------------------------


def test_forcing_parse_chain():
    fp, base_sig = parse_forcing(data_text("chain2.taf"))
    assert fp.least in fp.conditions
    assert set(fp.conditions) == {"base", "p"}
    assert ("base", "p") in fp.leq
    # atoms accumulate upward along extends
    assert fp.atoms_of["base"] <= fp.atoms_of["p"]


def test_forcing_parse_henkin_constant():
    fp, base_sig = parse_forcing(data_text("henkin.taf"))
    extra = {d.name for d in fp.sig_of["p"].funcs} - \
        {d.name for d in base_sig.funcs}
    assert any(n.startswith("h") for n in extra)


def test_forcing_duplicate_condition_rejected():
    text = data_text("chain2.taf") + "\n" + "condition p extends base\n"
    line = len(text.splitlines())
    with pytest.raises(ParseError, match=f"line {line}, column 11: "
                                         "duplicate condition name 'p'"):
        parse_forcing(text)
