"""Process calculus: parsing, operational steps, compilation, certification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_text, garbled
from talgebra import ccs
from talgebra.calculus import Invalid, Valid, check_proof
from talgebra.ccs import (TAU, CcsAction, CcsError, Ident, Nil, Par, Prefix,
                          Res, Sum, ccs_step_search, ccs_steps, certify_step,
                          certify_word, compile_institute, compile_to_theory,
                          institute_process, institute_proof,
                          mathematician_program, parse_ccs, parse_process,
                          replay_institute_proof, restrict)
from talgebra.formats import ParseError, _parse_text, parse_nested
from talgebra.semantics import satisfies
from talgebra.syntax import Eq


# --- parsing -----------------------------------------------------------------


def test_action_spelling():
    assert str(TAU) == "tau"
    assert str(CcsAction("c", False)) == "c"
    assert str(CcsAction("c", True)) == "'c"
    assert CcsAction("c", False).bar() == CcsAction("c", True)


def test_parse_precedence():
    p = parse_process("a . 0 + b . 0 | c . 0")
    # | binds tighter than +
    assert isinstance(p, Sum)
    assert isinstance(p.right, Par)
    q = parse_process("(a . 0 + b . 0) | c . 0")
    assert isinstance(q, Par)


def test_parse_restriction_sugar():
    p = parse_process(r"(a . 0 | 'a . 0)\(a)")
    assert isinstance(p, Res) and p.channel == "a"
    q = parse_process(r"(a . 0)\(a, b)")
    assert isinstance(q, Res) and isinstance(q.body, Res)


def _recursive_process(ts):
    """The process parser as it was, by recursive descent, without its
    nesting cap."""
    def primary():
        tok = ts.peek()
        if ts.accept("0"):
            p = Nil()
        elif ts.accept("("):
            p = alternatives()
            ts.expect(")")
        elif tok.kind == "id" and ccs._IDENT.match(tok.value):
            ts.next()
            p = Ident(tok.value)
        else:
            ts.error("expected a process")
        while ts.peek_value() == "\\":
            ts.next()
            if ts.accept("("):
                names = [ccs._name(ts, "channel name")]
                while ts.accept(","):
                    names.append(ccs._name(ts, "channel name"))
                ts.expect(")")
            else:
                names = [ccs._name(ts, "channel name")]
            p = restrict(p, names)
        return p

    def prefixed():
        tok = ts.peek()
        if tok.kind != "id" or ts.tokens[ts.pos + 1].value != ".":
            return primary()
        co = tok.value.startswith("'")
        if not ccs._IDENT.match(tok.value[co:]):
            raise ParseError(f"bad action name {tok.value!r}", tok.line,
                             tok.col)
        ts.pos += 2
        return Prefix(CcsAction(tok.value[co:], co), prefixed())

    def chain(op, cls, operand):
        p = operand()
        while ts.peek_value() == op:
            ts.next()
            p = cls(p, operand())
        return p

    def alternatives():
        return chain("+", Sum, lambda: chain("|", Par, prefixed))
    return alternatives()


def _outcome(parse, text):
    try:
        return _parse_text(text, "process", parse)
    except (ParseError, CcsError) as exc:
        return type(exc).__name__, str(exc)


_PROCESS_TEXTS = st.recursive(
    st.sampled_from(["0", "X", "a . 0", "'b . X"]),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from(["+", "|"]),
                  inner),
        st.builds("( {} )".format, inner),
        st.builds("{} . {}".format, st.sampled_from(["a", "'a", "tau"]),
                  inner),
        st.builds("{} {}".format, inner, st.sampled_from(
            ["\\ a", "\\ ( a , b )", "\\ tau"]))),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(garbled(_PROCESS_TEXTS, ["(", ")", "+", "|", ".", "\\", ",", "0",
                                "1", "a", "'tau"]))
def test_process_parse_matches_recursive_descent(text):
    assert _outcome(lambda ts: parse_nested(ts, ccs.PROCESSES), text) \
        == _outcome(_recursive_process, text)


def test_print_parse_roundtrip():
    prog = mathematician_program()
    for name in prog.process_ids:
        body = prog.body_of(name)
        assert parse_process(str(body)) == body


def test_program_validation():
    with pytest.raises(CcsError):
        parse_ccs("channels a\nP ::= a . P\nP ::= 0\n")  # duplicate
    with pytest.raises(CcsError):
        parse_ccs("channels a\nP ::= b . P\n")           # undeclared channel
    with pytest.raises(CcsError):
        parse_ccs("channels a\nP ::= a . Q\n")           # unknown identifier
    for unguarded in ("X ::= X", "X ::= Y\nY ::= X + a . 0",
                      "X ::= (X | a . 0)\\a"):
        with pytest.raises(CcsError, match="unguarded recursion: X"):
            parse_ccs(f"channels a\n{unguarded}\n")


def test_unguarded_identifier_chain_is_capped():
    def chain(n):
        decls = "".join(f"X{i} ::= X{i + 1} + a . 0\n" for i in range(n))
        return parse_ccs(f"channels a\n{decls}X{n} ::= a . 0\n")

    # each link puts its successor under a +: two levels of unfolding
    prog = chain(100)
    assert prog.body_of("X100") == parse_process("a . 0")
    steps = ccs_steps(prog, Ident("X0"))
    assert len(steps) == 101 and {str(s.action) for s in steps} == {"a"}
    for n in (101, 600):
        with pytest.raises(CcsError, match=rf"unguarded identifier chain "
                           rf"X\d+ -> X\d+ -> .*X{n} nests deeper than 200"):
            chain(n)
    with pytest.raises(KeyError):
        prog.body_of("Y")


# --- operational semantics -----------------------------------------------------


def program(text):
    return parse_ccs(text)


HANDSHAKE = program("channels a\nP ::= a . 0\nQ ::= 'a . 0\n")


def test_prefix_and_sum_steps():
    prog = program("channels a, b\nP ::= a . 0 + b . 0\n")
    steps = ccs_steps(prog, prog.body_of("P"))
    assert {str(s.action) for s in steps} == {"a", "b"}
    assert all(s.target == Nil() for s in steps)


def test_com_step_produces_tau():
    prog = HANDSHAKE
    par = Par(prog.body_of("P"), prog.body_of("Q"))
    actions = {str(s.action) for s in ccs_steps(prog, par)}
    assert actions == {"a", "'a", "tau"}


def test_restriction_blocks_channel():
    prog = HANDSHAKE
    par = restrict(Par(prog.body_of("P"), prog.body_of("Q")), ["a"])
    actions = {str(s.action) for s in ccs_steps(prog, par)}
    assert actions == {"tau"}  # only the synchronization survives [PAPER]


def test_identifier_unfolding():
    prog = program("channels a\nP ::= a . P\n")
    (step,) = ccs_steps(prog, Ident("P"))
    assert step.target == Ident("P")


def test_search_finds_theorem_word():
    prog = mathematician_program()
    found = ccs_step_search(prog, institute_process(), 3)
    words = {tuple(str(a) for a in word.actions) for word, target in found
             if target == institute_process()}
    assert ("tau", "tau", "'theorem") in words  # [PAPER]


def plain_search(prog, start, depth):
    """The search as a set of (action tuple, derivative) pairs, over tuples
    and process equality."""
    found, frontier = set(), [((), start)]
    for _ in range(depth):
        nxt = []
        for word, p in frontier:
            for step in ccs_steps(prog, p):
                item = (word + (step.action,), step.target)
                if item not in found:
                    found.add(item)
                    nxt.append(item)
        frontier = nxt
    return found


def test_search_steps_each_process_once(monkeypatch):
    """One ccs_step_search expands each distinct process it reaches once,
    with the same (word, derivative) rows as a search without the memo."""
    prog = parse_ccs("channels a, b\nP ::= a . P + b . P\nQ ::= a . Q\n"
                     "R ::= 'a . 0 + b . R")
    start = parse_process("(P | Q) | R")
    depth = 5
    expected = plain_search(prog, start, depth)
    outer, nested, steps = [0], [0], ccs.ccs_steps

    def counting(program, p):
        outer[0] += nested[0] == 0
        nested[0] += 1
        try:
            return steps(program, p)
        finally:
            nested[0] -= 1

    monkeypatch.setattr(ccs, "ccs_steps", counting)
    found = ccs_step_search(prog, start, depth)
    assert len(found) == len(expected)
    assert {(word.actions, p) for word, p in found} == expected
    expanded = {start} | {p for word, p in found if len(word.actions) < depth}
    assert outer[0] == len(expanded) < len(expected)


SEARCH_PROGRAMS = [
    # sums and recursion: the perfbench shape, whose words are all of {a, b}
    ("channels a, b\nP ::= a . P + b . P\nQ ::= a . Q\n", "P | Q", 6),
    # communication, with both orientations of a handshake
    ("channels a, b\nP ::= a . 'b . P\nQ ::= 'a . b . Q + a . 0\n",
     "P | Q", 6),
    # restriction over a communicating pair, and a restricted sum
    ("channels a, b, c\nP ::= 'a . c . P + b . 0\nQ ::= a . 'c . Q\n",
     "(P | Q) \\ (a, c)", 7),
    ("channels a, b\nP ::= (a . P + 'a . b . P) \\ b\n", "P | P", 5),
    ("channels coin, coffee, theorem\n"
     "M ::= 'coin . coffee . 'theorem . M\nV ::= coin . 'coffee . V\n",
     "(M | V) \\ (coin, coffee)", 8),
]


@pytest.mark.parametrize("source, start, depth", SEARCH_PROGRAMS,
                         ids=["sums", "communication", "restriction",
                              "restricted-sum", "institute"])
def test_trie_search_matches_tuple_search(source, start, depth):
    """The trie search finds the tuple search's (word, derivative) pairs,
    each once; equal words are one node, and each found word's text and
    action tuple agree."""
    prog, start = parse_ccs(source), parse_process(start)
    for d in range(depth + 1):
        found = ccs_step_search(prog, start, d)
        expected = plain_search(prog, start, d)
        assert len(found) == len(expected)
        assert {(w.actions, p) for w, p in found} == expected
        nodes = {}
        for w, _ in found:
            assert nodes.setdefault(w.actions, w) is w
            assert w.text == " ".join(map(str, w.actions))
        targets = {}
        for _, p in found:
            assert targets.setdefault(p, p) is p   # one object per derivative


def test_trie_search_pair_count():
    """From P | Q with P ::= a . P + b . P and Q ::= a . Q, every word over
    {a, b} of length 1..d reaches P | Q alone: 2^(d+1) - 2 pairs."""
    prog = parse_ccs(SEARCH_PROGRAMS[0][0])
    for d in range(1, 11):
        found = ccs_step_search(prog, parse_process("P | Q"), d, 3 * 2 ** d)
        assert len(found) == 2 ** (d + 1) - 2
        assert {p for _, p in found} == {parse_process("P | Q")}


# --- compilation ----------------------------------------------------------------


def test_compile_action_axioms():
    compiled = compile_institute()
    act_axioms = [ax for ax in compiled.axioms if ax.name.startswith("Act[")]
    # tau plus name/co-name for each of three channels [PAPER]
    assert len(act_axioms) == 7
    labels = compiled.signature.labels
    assert labels == frozenset(
        {"tau", "coin", "'coin", "coffee", "'coffee",
         "theorem", "'theorem"})


def test_axiom_catalog_contents():
    compiled = compile_institute()
    names = {ax.name for ax in compiled.axioms}
    assert "Com[coin]" in names
    assert "Con[Mathematician,'coin]" in names
    assert "ResStar[tau;coin,coffee]" in names
    assert any(n.startswith("Comm[par]") for n in names)
    assert any(n.startswith("Dist[") for n in names)


def test_dist_axioms_both_orientations():
    compiled = compile_institute()
    dist = [ax for ax in compiled.axioms if ax.name.startswith("Dist[")]
    sentences = {ax.sentence for ax in dist}
    # for every Neg(Eq(l, r)) the swapped orientation is also present
    for ax in dist:
        body = ax.sentence.body
        assert Eq(body.right, body.left) in {s.body for s in sentences}


def test_term_encoding_roundtrip():
    compiled = compile_institute()
    t = compiled.term_of(institute_process())
    assert str(t) == ("res(res(par(Mathematician, CoffeeVM), coin), coffee)")


# --- step certification -----------------------------------------------------------


def test_certify_all_reachable_steps():
    prog = mathematician_program()
    compiled = compile_institute()
    seen = 0
    frontier = [Par(Ident("Mathematician"), Ident("CoffeeVM"))]
    visited = set()
    while frontier and seen < 12:
        p = frontier.pop()
        if p in visited:
            continue
        visited.add(p)
        for step in ccs_steps(prog, p):
            proof = certify_step(compiled, step)
            assert isinstance(check_proof(proof), Valid), \
                f"step {step.source} -{step.action}-> {step.target}"
            seen += 1
            frontier.append(step.target)
    assert seen >= 6


def test_certify_word():
    prog = mathematician_program()
    compiled = compile_institute()
    start = Par(Ident("Mathematician"), Ident("CoffeeVM"))
    first = ccs_steps(prog, start)[0]
    second = ccs_steps(prog, first.target)[0]
    proof = certify_word(compiled, start, [first, second])
    assert isinstance(check_proof(proof), Valid)
    concl = proof.conclusion.single()
    assert concl.left == compiled.term_of(start)
    assert concl.right == compiled.term_of(second.target)


# --- the golden proof ---------------------------------------------------------------


def test_institute_proof_valid():
    compiled = compile_institute()
    proof = institute_proof(compiled)
    assert isinstance(check_proof(proof), Valid)
    t = compiled.term_of(institute_process())
    concl = proof.conclusion.single()
    assert concl.left == t and concl.right == t
    assert str(concl.action) == "((tau* ; 'theorem) ; tau*)"


def test_replay_shipped_script():
    proof, verdict = replay_institute_proof()
    assert isinstance(verdict, Valid)


def test_shipped_script_matches_generator():
    from talgebra.formats import print_proof
    compiled = compile_institute()
    names = {ax.sentence: ax.name for ax in compiled.axioms}
    generated = print_proof(institute_proof(compiled), axiom_names=names)
    shipped = data_text("institute.tap")
    assert generated.strip() in shipped
