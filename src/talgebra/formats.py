"""Text formats: theories (.ta), finite models (.tam), proof scripts (.tap)
and forcing fixtures (.taf).

All parsers report line/column positions on error. Overloaded constants (the
same name at several sorts) are resolved bottom-up during the parse: each term
is typed once, from the terms its arguments can denote, and the expected sort
picks among them; genuinely ambiguous phrases are rejected rather than guessed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .syntax import (Action, Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                     Pow, Seq, Sentence, Signature, Star, SymExp, Term, Trans,
                     Var, Variable, apply_substitution, disj, exists,
                     extend_signature, forall, implies, power, trans)
from .semantics import FiniteModel, reflexive_transitive_closure
from .calculus import PremiseFamily, ProofNode, Sequent, gmp_node


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer


_LEXEME = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<str>"[^"\n]*")
      | (?P<num>\d+)
      | (?P<id>'?[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>=\[|\]=>|::=|:=|->|\\/|/\\|[=:{}(),.;|*^\[\]\\+]|\S)
    """, re.VERBOSE)


@dataclass(frozen=True)
class Token:
    value: str
    kind: str
    line: int
    col: int


def tokenize(text: str, keep_newlines: bool = False) -> list[Token]:
    out = []
    line, col = 1, 1
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        value = m.group(0)
        if kind == "nl":
            if keep_newlines:
                out.append(Token("\n", "nl", line, col))
            line += 1
            col = 1
            continue
        if kind not in ("ws", "comment"):
            out.append(Token(value, kind, line, col))
        col += len(value)
    return out


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_value(self) -> Optional[str]:
        t = self.peek()
        return t.value if t else None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def error(self, message: str):
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("", "id", 1, 1)
            raise ParseError(message + " (at end of input)", last.line,
                             last.col + len(last.value))
        raise ParseError(message, t.line, t.col)

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            self.error("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t is None or t.value != value:
            self.error(f"expected {value!r}, got {t.value if t else 'end'!r}")
        return self.next()

    def accept(self, value: str) -> bool:
        t = self.peek()
        if t is not None and t.value == value:
            self.next()
            return True
        return False

    def whole(self, what: str, parse, *args):
        """parse(self, *args), which must read the rest of the stream as one
        `what`."""
        out = parse(self, *args)
        if not self.at_end():
            self.error(f"trailing input after {what}")
        return out


def _parse_text(text: str, what: str, parse, *args):
    """parse over the tokens of text, which must read all of them."""
    return TokenStream(tokenize(text)).whole(what, parse, *args)


# ---------------------------------------------------------------------------
# Terms


@dataclass
class ParseContext:
    signature: Signature
    variables: dict = field(default_factory=dict)    # name -> Variable
    abbreviations: dict = field(default_factory=dict)  # name -> Term

    def child_with_variables(self, variables: Iterable[Variable]) -> "ParseContext":
        env = dict(self.variables)
        for v in variables:
            env[v.name] = v
        return ParseContext(self.signature, env, self.abbreviations)


# A term is read once into (name, first token, terms): the terms it can
# denote, each built once from its arguments' terms, or the ParseError that
# choosing one of its arguments raised. That error is raised only when the
# term itself is chosen, so an argument that no declaration of its parent
# reaches reports nothing.


def _parse_terms(ts: TokenStream, ctx: ParseContext) -> tuple:
    t = ts.peek()
    if t is not None and t.value == "(":
        # sort ascription: "(" term ":" sort ")"
        ts.next()
        name, _, terms = _parse_terms(ts, ctx)
        ts.expect(":")
        sort = ts.next().value
        ts.expect(")")
        if isinstance(terms, tuple):
            terms = tuple(u for u in terms if u.sort == sort)
        return name, t, terms
    if t is None or t.kind not in ("id", "num"):
        ts.error("expected a term")
    ts.next()
    args = []
    if ts.accept("("):
        args.append(_parse_terms(ts, ctx))
        while ts.accept(","):
            args.append(_parse_terms(ts, ctx))
        ts.expect(")")
    elif t.value in ctx.variables:
        return t.value, t, (Var(ctx.variables[t.value]),)
    elif t.value in ctx.abbreviations:
        return t.value, t, (ctx.abbreviations[t.value],)
    return t.value, t, _apply(ctx.signature.decls_named(t.value), args)


def _apply(decls: list[FuncDecl], args: list) -> Union[tuple, ParseError]:
    out = []
    try:
        for d in decls:
            if len(d.arity) != len(args):
                continue
            picked = []
            for arg, sort in zip(args, d.arity):
                u = _pick(arg, sort, required=False)
                if u is None:
                    break
                picked.append(u)
            else:
                out.append(App(d, tuple(picked)))
    except ParseError as exc:
        return exc
    return tuple(out)


def _terms(phrase) -> tuple:
    terms = phrase[2]
    if isinstance(terms, ParseError):
        raise terms
    return terms


def _pick(phrase, expected: Optional[str], required: bool = True
          ) -> Optional[Term]:
    """The one term of the phrase of the expected sort (of any sort when
    None); None if there is none and the term is not required."""
    name, at, _ = phrase
    fits = [u for u in _terms(phrase) if expected is None or u.sort == expected]
    if len(fits) == 1:
        return fits[0]
    if not fits:
        if not required:
            return None
        want = f" of sort {expected}" if expected else ""
        raise ParseError(f"cannot resolve term {name!r}{want}", at.line, at.col)
    raise ParseError(f"ambiguous term {name!r}: candidate sorts "
                     f"{sorted(u.sort for u in fits)}", at.line, at.col)


def _pick_pair(left, right) -> tuple[Term, Term]:
    """The two sides of an atom, of one common sort."""
    pairs = []
    for lt in _terms(left):
        rt = _pick(right, lt.sort, required=False)
        if rt is not None:
            pairs.append((lt, rt))
    if len(pairs) == 1:
        return pairs[0]
    at = left[1]
    if not pairs:
        raise ParseError("no common sort for the two sides", at.line, at.col)
    raise ParseError(f"ambiguous sorts {sorted(p[0].sort for p in pairs)} "
                     "for the two sides", at.line, at.col)


def parse_term(ts: TokenStream, ctx: ParseContext,
               expected: Optional[str] = None) -> Term:
    return _pick(_parse_terms(ts, ctx), expected)


# ---------------------------------------------------------------------------
# Actions


def _parse_action_primary(ts: TokenStream, ctx: ParseContext) -> Action:
    if ts.accept("("):
        a = parse_action(ts, ctx)
        ts.expect(")")
    else:
        t = ts.peek()
        if t is None or t.kind != "id":
            ts.error("expected a transition label")
        ts.next()
        if t.value not in ctx.signature.labels:
            raise ParseError(f"unknown label {t.value!r}", t.line, t.col)
        a = Lbl(t.value)
    while True:
        if ts.accept("*"):
            a = Star(a)
        elif ts.accept("^"):
            t = ts.next()
            if t.kind == "num":
                powered = power(a, int(t.value))
                if powered is None:
                    raise ParseError("a zero-fold iteration is an equation, "
                                     "not an action", t.line, t.col)
                a = powered
            elif t.kind == "id":
                a = Pow(a, SymExp(t.value))
            else:
                ts.error("expected an exponent")
        else:
            return a


def _parse_action_seq(ts: TokenStream, ctx: ParseContext) -> Action:
    a = _parse_action_primary(ts, ctx)
    while ts.accept(";"):
        a = Seq(a, _parse_action_primary(ts, ctx))
    return a


def parse_action(ts: TokenStream, ctx: ParseContext) -> Action:
    a = _parse_action_seq(ts, ctx)
    while ts.accept("|"):
        a = Alt(a, _parse_action_seq(ts, ctx))
    return a


# ---------------------------------------------------------------------------
# Sentences
#
# sentence   := quantified | implication
# implication:= disjunct ('->' sentence)?
# disjunct   := 'not' disjunct | '\/' '{' items '}' | '/\' '{' items '}'
#             | 'true' | 'false' | '(' sentence ')' | atom
# atom       := term '=' term | term '=[' action ']=>' term
# quantified := ('exists'|'forall') '{' x ':' s (',' ...)* '}' '.' sentence


def _parse_binding(ts: TokenStream, ctx: ParseContext) -> tuple[str, str]:
    """'x : s', with s a declared sort: the name and the sort."""
    name = ts.next()
    if name.kind != "id":
        ts.error("expected a variable name")
    ts.expect(":")
    sort = ts.next()
    if sort.value not in ctx.signature.sorts:
        raise ParseError(f"unknown sort {sort.value!r}", sort.line, sort.col)
    return name.value, sort.value


def _parse_bindings(ts: TokenStream, ctx: ParseContext) -> list[tuple[str, str]]:
    out = [_parse_binding(ts, ctx)]
    while ts.accept(","):
        out.append(_parse_binding(ts, ctx))
    return out


def _parse_atom(ts: TokenStream, ctx: ParseContext) -> Sentence:
    start = ts.pos
    left = _parse_terms(ts, ctx)
    if ts.accept("="):
        return Eq(*_pick_pair(left, _parse_terms(ts, ctx)))
    if ts.accept("=["):
        action = parse_action(ts, ctx)
        ts.expect("]=>")
        left, right = _pick_pair(left, _parse_terms(ts, ctx))
        return trans(left, action, right)
    ts.pos = start
    ts.error("expected '=' or '=[' after a term")


def _parse_disjunct(ts: TokenStream, ctx: ParseContext) -> Sentence:
    tok = ts.peek()
    if tok is None:
        ts.error("expected a sentence")
    if tok.value == "not":
        ts.next()
        return Neg(_parse_disjunct(ts, ctx))
    if tok.value in ("\\/", "/\\"):
        ts.next()
        ts.expect("{")
        items = []
        if ts.peek_value() != "}":
            items.append(parse_sentence_inner(ts, ctx))
            while ts.accept(","):
                items.append(parse_sentence_inner(ts, ctx))
        ts.expect("}")
        if tok.value == "\\/":
            return disj(items)
        if not items:
            return Neg(Disj(()))
        if len(items) == 1:
            return items[0]
        return Neg(disj(Neg(s) for s in items))
    if tok.value in ("true", "false"):
        # only a sentence keyword when not used as a term (e.g. "true = false")
        after = (ts.tokens[ts.pos + 1].value
                 if ts.pos + 1 < len(ts.tokens) else None)
        if after not in ("=", "=[", "("):
            ts.next()
            return Neg(Disj(())) if tok.value == "true" else Disj(())
    if tok.value in ("exists", "forall"):
        return _parse_quantified(ts, ctx)
    if tok.value == "(":
        # either a parenthesized sentence or a sort-ascribed term
        # "(t : Sort)"; the latter ends with ": <id> )" at the match
        depth = 0
        close = None
        for i in range(ts.pos, len(ts.tokens)):
            v = ts.tokens[i].value
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close is not None and close >= ts.pos + 3 \
                and ts.tokens[close - 2].value == ":" \
                and ts.tokens[close - 1].kind == "id":
            return _parse_atom(ts, ctx)
        ts.next()
        inner = parse_sentence_inner(ts, ctx)
        ts.expect(")")
        return inner
    return _parse_atom(ts, ctx)


def _parse_quantified(ts: TokenStream, ctx: ParseContext) -> Sentence:
    tok = ts.next()
    ts.expect("{")
    variables = [Variable(name, sort, ctx.signature)
                 for name, sort in _parse_bindings(ts, ctx)]
    ts.expect("}")
    ts.expect(".")
    body = parse_sentence_inner(ts, ctx.child_with_variables(variables))
    if tok.value == "exists":
        return exists(variables, body)
    return forall(variables, body)


def parse_sentence_inner(ts: TokenStream, ctx: ParseContext) -> Sentence:
    left = _parse_disjunct(ts, ctx)
    if ts.accept("->"):
        right = parse_sentence_inner(ts, ctx)
        return implies(left, right)
    return left


def parse_sentence(text: str, ctx: ParseContext) -> Sentence:
    return _parse_text(text, "sentence", parse_sentence_inner, ctx)


def parse_term_text(text: str, ctx: ParseContext,
                    expected: Optional[str] = None) -> Term:
    return _parse_text(text, "term", parse_term, ctx, expected)


# ---------------------------------------------------------------------------
# Printers (inverse of the parsers, matching the dataclass __str__ forms)


def print_sentence(phi: Sentence) -> str:
    return str(phi)


# ---------------------------------------------------------------------------
# Theories (.ta)
#
# theory <name>
# sorts s, t
# ops a : -> s
#     f : s t -> s [mono]
# labels lam, mu
# axioms
#   "Name": <sentence>
#   <sentence>


@dataclass(frozen=True)
class Theory:
    name: str
    signature: Signature
    axioms: tuple                  # of (Optional[str], Sentence)

    @property
    def sentences(self) -> frozenset:
        return frozenset(phi for _, phi in self.axioms)

    def named(self, name: str) -> Sentence:
        for n, phi in self.axioms:
            if n == name:
                return phi
        raise KeyError(f"no axiom named {name}")


def _split_lines(text: str) -> list[list[Token]]:
    lines: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokenize(text, keep_newlines=True):
        if tok.kind == "nl":
            if current:
                lines.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        lines.append(current)
    return lines


def _names_from(line: list[Token]) -> list[str]:
    out = []
    for tok in line:
        if tok.value == ",":
            continue
        if tok.kind not in ("id", "num"):
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        out.append(tok.value)
    return out


def _read_blocks(lines: list[list[Token]]
                 ) -> tuple[str, Signature, list[list[Token]]]:
    """The theory name, the signature of the sorts, ops and labels blocks,
    and the lines of the axioms block."""
    name = "theory"
    sorts: list[str] = []
    funcs: list[FuncDecl] = []
    mono: list[FuncDecl] = []
    labels: list[str] = []
    axiom_lines: list[list[Token]] = []
    block = None
    for line in lines:
        head = line[0]
        if head.value == "theory" and block is None:
            if len(line) > 1:
                name = line[1].value
            continue
        if head.value in ("sorts", "labels", "ops", "axioms"):
            block = head.value
            rest = line[1:]
            if not rest:
                continue
            line = rest
            head = line[0]
        if block == "sorts":
            sorts.extend(_names_from(line))
        elif block == "labels":
            labels.extend(_names_from(line))
        elif block == "ops":
            funcs_mono = TokenStream(line).whole("operation", _parse_op, sorts)
            funcs.append(funcs_mono[0])
            if funcs_mono[1]:
                mono.append(funcs_mono[0])
        elif block == "axioms":
            axiom_lines.append(line)
        else:
            raise ParseError(f"unexpected {head.value!r} outside any block",
                             head.line, head.col)
    sig = Signature.make(sorts=sorts, funcs=funcs, mono=mono, labels=labels)
    return name, sig, axiom_lines


def parse_theory(text: str) -> Theory:
    name, sig, axiom_lines = _read_blocks(_split_lines(text))
    ctx = ParseContext(sig)
    axioms = []
    for line in axiom_lines:
        axiom_name = None
        ts = TokenStream(line)
        if line[0].kind == "str" and len(line) > 1 and line[1].value == ":":
            axiom_name = line[0].value[1:-1]
            ts.pos = 2
        axioms.append((axiom_name, ts.whole("axiom", parse_sentence_inner, ctx)))
    return Theory(name, sig, tuple(axioms))


def _parse_op(ts: TokenStream, sorts: list[str]) -> tuple[FuncDecl, bool]:
    name_tok = ts.next()
    if name_tok.kind not in ("id", "num"):
        raise ParseError(f"bad operation name {name_tok.value!r}",
                         name_tok.line, name_tok.col)
    ts.expect(":")
    arity = []
    while ts.peek_value() not in ("->", None):
        tok = ts.next()
        if tok.value == ",":
            continue
        arity.append(tok.value)
    ts.expect("->")
    result = ts.next().value
    is_mono = False
    if ts.accept("["):
        tag = ts.next()
        if tag.value != "mono":
            raise ParseError(f"unknown flag {tag.value!r}", tag.line, tag.col)
        ts.expect("]")
        is_mono = True
    for s in arity + [result]:
        if s not in sorts:
            raise ParseError(f"unknown sort {s!r} in operation {name_tok.value}",
                             name_tok.line, name_tok.col)
    return FuncDecl(name_tok.value, tuple(arity), result), is_mono


def _ascribed(phi: Sentence) -> str:
    """Render with every atom endpoint sort-ascribed, for sentences whose
    plain rendering is ambiguous (overloaded constant names)."""
    if isinstance(phi, Eq):
        return f"({phi.left} : {phi.left.sort}) = " \
               f"({phi.right} : {phi.right.sort})"
    if isinstance(phi, Trans):
        return f"({phi.left} : {phi.left.sort}) =[{phi.action}]=> " \
               f"({phi.right} : {phi.right.sort})"
    if isinstance(phi, Neg):
        return f"not {_ascribed(phi.body)}"
    if isinstance(phi, Disj):
        return "\\/{" + ", ".join(_ascribed(s) for s in phi.items) + "}"
    if isinstance(phi, Exists):
        vs = ", ".join(f"{x.name}:{x.sort}" for x in sorted(
            phi.variables, key=lambda v: (v.sort, v.name)))
        return f"exists {{{vs}}} . {_ascribed(phi.body)}"
    return str(phi)


def render_sentence(phi: Sentence, ctx: ParseContext) -> str:
    """Printed form that reparses to phi, ascribing sorts when needed."""
    text = str(phi)
    try:
        if parse_sentence(text, ctx) == phi:
            return text
    except ParseError:
        pass
    return _ascribed(phi)


def print_theory(theory: Theory) -> str:
    sig = theory.signature
    ctx = ParseContext(sig)
    out = [f"theory {theory.name}", ""]
    out.append("sorts " + ", ".join(sorted(sig.sorts)))
    out.append("ops")
    for d in sorted(sig.funcs):
        flag = " [mono]" if d in sig.mono else ""
        arity = " ".join(d.arity)
        arity = arity + " " if arity else ""
        out.append(f"  {d.name} : {arity}-> {d.result}{flag}")
    if sig.labels:
        out.append("labels " + ", ".join(sorted(sig.labels)))
    out.append("axioms")
    for name, phi in theory.axioms:
        prefix = f'"{name}": ' if name else ""
        out.append(f"  {prefix}{render_sentence(phi, ctx)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Models (.tam)
#
# model
# carrier s = e0, e1
# fun a = e0
# fun f(e0, e1) = e1
# rel lam s = (e0, e1), (e1, e1)


def parse_model(text: str, sig: Signature) -> FiniteModel:
    carrier: dict[str, tuple] = {}
    func_entries: dict[str, list[tuple]] = {}
    rel: dict[str, set] = {l: set() for l in sig.labels}
    for line in _split_lines(text):
        ts = TokenStream(line)
        head = ts.next()
        if head.value == "model":
            continue
        if head.value == "carrier":
            sort = ts.next().value
            if sort not in sig.sorts:
                raise ParseError(f"unknown sort {sort!r}", head.line, head.col)
            ts.expect("=")
            elems = []
            while not ts.at_end():
                tok = ts.next()
                if tok.value != ",":
                    elems.append(tok.value)
            carrier[sort] = tuple(elems)
        elif head.value == "fun":
            name_tok = ts.next()
            args = []
            if ts.accept("("):
                while ts.peek_value() != ")":
                    tok = ts.next()
                    if tok.value != ",":
                        args.append(tok.value)
                ts.expect(")")
            ts.expect("=")
            value = ts.next().value
            func_entries.setdefault(name_tok.value, []).append(
                (tuple(args), value, name_tok))
        elif head.value == "rel":
            label = ts.next().value
            if label not in sig.labels:
                raise ParseError(f"unknown label {label!r}", head.line, head.col)
            sort = ts.next().value
            ts.expect("=")
            while not ts.at_end():
                if ts.accept(","):
                    continue
                ts.expect("(")
                a = ts.next().value
                ts.expect(",")
                b = ts.next().value
                ts.expect(")")
                rel[label].add((sort, a, b))
        else:
            raise ParseError(f"unknown directive {head.value!r}",
                             head.line, head.col)
    for s in sig.sorts:
        carrier.setdefault(s, ())
    elem_sort = {e: s for s, es in carrier.items() for e in es}
    func_table: dict[FuncDecl, dict] = {}
    for name, entries in func_entries.items():
        for args, value, tok in entries:
            decls = [d for d in sig.decls_named(name)
                     if len(d.arity) == len(args)
                     and all(elem_sort.get(a) == s for a, s in zip(args, d.arity))
                     and elem_sort.get(value) == d.result]
            if not decls:
                raise ParseError(f"no declaration fits fun {name}{args}",
                                 tok.line, tok.col)
            if len(decls) > 1:
                raise ParseError(f"ambiguous declaration for fun {name}",
                                 tok.line, tok.col)
            func_table.setdefault(decls[0], {})[args] = value
    for d in sig.funcs:
        func_table.setdefault(d, {})
    label_rel = {l: frozenset(pairs) for l, pairs in rel.items()}
    return FiniteModel(sig, carrier, func_table, label_rel)


def print_model(m: FiniteModel) -> str:
    out = ["model"]
    for s in sorted(m.carrier):
        out.append(f"carrier {s} = " + ", ".join(str(e) for e in m.carrier[s]))
    for d in sorted(m.func_table):
        for args, value in sorted(m.func_table[d].items(), key=str):
            shown = f"{d.name}(" + ", ".join(str(a) for a in args) + ")" \
                if args else d.name
            out.append(f"fun {shown} = {value}")
    for label in sorted(m.label_rel):
        by_sort: dict[str, list] = {}
        for (s, a, b) in m.label_rel[label]:
            by_sort.setdefault(s, []).append((a, b))
        for s in sorted(by_sort):
            pairs = ", ".join(f"({a}, {b})" for a, b in sorted(by_sort[s], key=str))
            out.append(f"rel {label} {s} = {pairs}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Proof scripts (.tap)
#
# let Institute = res(res(par(Mathematician, CoffeeVM), coin), coffee)
# s1 = rule R conclusion "Institute = Institute"
# s2 = rule GMP [s1] axiom "Act[tau]" subst "P := CoffeeVM" conclusion "..."
# s9 = rule Star_E [s2] family kappa s8 conclusion "..."
# steps may also carry: n 2 | n kappa | assume "phi; psi" | fresh "x : s"
# | vars "x : s" | consts "x : s" | exists "sentence"
# root sN


@dataclass
class _StepSpec:
    sid: str
    rule: str
    refs: list          # of Token
    options: dict       # the quoted Token of each field; the name of the
                        # axiom; n; family's (param, template Token)
    where: tuple        # (line, col) of the step id


# read, when the step is built, in the step's own signature
_FIELDS = {"conclusion", "assume", "subst", "exists", "vars", "consts", "fresh"}


def parse_proof_script(text: str):
    """Returns (list of _StepSpec, root id, abbreviations), each
    abbreviation a name and the token stream at its term."""
    steps = []
    ids = set()
    abbreviations = []
    root = None
    for line in _split_lines(text):
        ts = TokenStream(line)
        head = ts.next()
        if head.value == "let":
            name = ts.next().value
            ts.expect("=")
            abbreviations.append((name, ts))
            continue
        if head.value == "root":
            root = ts.next()
            continue
        if head.value in ids:
            raise ParseError(f"duplicate step id {head.value!r}",
                             head.line, head.col)
        ids.add(head.value)
        ts.expect("=")
        ts.expect("rule")
        rule = ts.next().value
        refs = []
        if ts.accept("["):
            while ts.peek_value() != "]":
                tok = ts.next()
                if tok.value != ",":
                    refs.append(tok)
            ts.expect("]")
        options = {}
        while not ts.at_end():
            key = ts.next()
            if key.value == "family":
                param = ts.next().value
                options["family"] = (param, ts.next())
            elif key.value in _FIELDS:
                tok = ts.next()
                if tok.kind != "str":
                    raise ParseError(f"{key.value} must be quoted",
                                     tok.line, tok.col)
                options[key.value] = tok
            elif key.value in ("axiom", "n"):
                tok = ts.next()
                options[key.value] = (tok.value[1:-1] if tok.kind == "str"
                                      else tok.value)
            else:
                raise ParseError(f"unknown step option {key.value!r}",
                                 key.line, key.col)
        steps.append(_StepSpec(head.value, rule, refs, options,
                               (head.line, head.col)))
    if root is not None and root.value not in ids:
        raise ParseError(f"unknown root step {root.value!r}",
                         root.line, root.col)
    for s in steps:
        family = [s.options["family"][1]] if "family" in s.options else []
        for tok in s.refs + family:
            if tok.value not in ids:
                raise ParseError(f"unknown step reference {tok.value!r}",
                                 tok.line, tok.col)
    # the last step is the root unless an explicit "root" directive was seen
    if root is not None:
        return steps, root.value, abbreviations
    return steps, steps[-1].sid if steps else None, abbreviations


def _read_field(tok: Token, parse, *args):
    """parse(text, *args) of the text of a quoted field, with its errors
    placed in the file: a quoted string holds no newline."""
    try:
        return parse(tok.value[1:-1], *args)
    except ParseError as exc:
        raise ParseError(exc.message, tok.line, tok.col + exc.col) from None


def _parse_list(ts: TokenStream, item, *args) -> list:
    """The items of the ';'-separated list that fills ts, each read by
    item(ts, *args)."""
    out = []
    while not ts.at_end():
        out.append(item(ts, *args))
        if not ts.at_end():
            ts.expect(";")
    return out


def build_proof(text: str, signature: Signature,
                gamma: Iterable[Sentence],
                axiom_catalog: Optional[Mapping] = None,
                named_sentences: Optional[Mapping] = None) -> ProofNode:
    """Assemble a ProofNode tree from a .tap script.

    axiom_catalog maps axiom names to schema descriptions carrying
    (variables, premises, conclusion, sentence) — the CCS compiler provides
    one; named_sentences maps names to plain sentences (theory axioms)."""
    steps, root_id, abbreviation_lines = parse_proof_script(text)
    base_gamma = frozenset(gamma)
    base_ctx = ParseContext(signature)
    for name, ts in abbreviation_lines:
        base_ctx.abbreviations[name] = ts.whole("term", parse_term, base_ctx)

    catalog = axiom_catalog or {}

    def named_sentence(name: str) -> Sentence:
        if name in catalog:
            return catalog[name].sentence
        if named_sentences is not None and name in named_sentences:
            return named_sentences[name]
        raise KeyError(f"unknown axiom name {name!r}")

    nodes: dict[str, ProofNode] = {}
    templates: dict[str, _StepSpec] = {s.sid: s for s in steps}
    family_ids = {s.options["family"][1].value for s in steps
                  if "family" in s.options}

    def subtree_ids(sid: str, acc: set):
        if sid not in acc:
            acc.add(sid)
            for r in templates[sid].refs:
                subtree_ids(r.value, acc)

    # the templates' own subtree ids are excluded from the main tree
    template_subtree: set = set()
    for fid in family_ids:
        subtree_ids(fid, template_subtree)

    started: set = set()

    def build(sid: str) -> ProofNode:
        if sid in nodes:
            return nodes[sid]
        spec = templates[sid]
        if sid in started:
            raise ParseError(f"step {sid!r} depends on itself", *spec.where)
        started.add(sid)
        opts = spec.options
        step_sig = signature
        ctx = ParseContext(step_sig, {}, base_ctx.abbreviations)
        step_gamma = set(base_gamma)

        def read(key: str, parse, *args):
            return _read_field(opts[key], parse, *args)

        def bindings(key: str) -> list[tuple[str, str]]:
            return read(key, _parse_text, "bindings", _parse_bindings, ctx)

        if "vars" in opts:
            variables = [Variable(n, s, signature) for n, s in bindings("vars")]
            step_sig = extend_signature(signature, variables)
            ctx.signature = step_sig
            for v in variables:
                ctx.variables[v.name] = v
        if "consts" in opts:
            decls = {FuncDecl(n, (), s) for n, s in bindings("consts")}
            step_sig = Signature(step_sig.sorts, step_sig.funcs | decls,
                                 step_sig.mono, step_sig.labels)
            ctx.signature = step_sig
        if "assume" in opts:
            step_gamma.update(read("assume", _parse_text, "assumptions",
                                   _parse_list, parse_sentence_inner, ctx))
        payload: dict = {}
        if "n" in opts:
            payload["n"] = (int(opts["n"]) if opts["n"].isdigit()
                            else SymExp(opts["n"]))
        if "fresh" in opts:
            n, s = read("fresh", _parse_text, "fresh constant",
                        _parse_binding, ctx)
            payload["fresh"] = FuncDecl(n, (), s)
        if "exists" in opts:
            ex = read("exists", parse_sentence, ctx)
            if not isinstance(ex, Exists):
                tok = opts["exists"]
                raise ParseError("the 'exists' option must be an existential",
                                 tok.line, tok.col)
            payload["exists"] = ex
        info = catalog.get(opts["axiom"]) if "axiom" in opts else None
        conclusion: Union[Sentence, None] = None
        if "conclusion" in opts:
            conclusion = read("conclusion", parse_sentence, ctx)
        if "subst" in opts:
            # a Subst step instantiates the existential it concludes
            ex = payload.get("exists",
                             conclusion if spec.rule == "Subst" else None)
            domain = {v.name: v for v in (
                info.variables if info is not None
                else ex.variables if isinstance(ex, Exists) else ())}

            def substitution(ts: TokenStream) -> tuple[Variable, Term]:
                name = ts.next()
                if name.value not in domain:
                    raise ParseError(f"unknown substituted variable "
                                     f"{name.value!r}", name.line, name.col)
                ts.expect(":=")
                v = domain[name.value]
                return v, parse_term(ts, ctx, v.sort)

            payload["subst"] = dict(read("subst", _parse_text, "substitution",
                                         _parse_list, substitution))
        premises = tuple(build(r.value) for r in spec.refs)
        if spec.rule == "Monotonicity" and conclusion is None and "axiom" in opts:
            conclusion = named_sentence(opts["axiom"])
        if spec.rule == "GMP":
            if info is None:
                raise ValueError(f"step {sid}: GMP needs a catalog axiom")
            try:
                node = gmp_node(step_sig, frozenset(step_gamma), info,
                                payload.get("subst", {}), premises, conclusion)
            except ValueError as exc:
                raise ValueError(f"step {sid}: {exc}") from None
        else:
            if conclusion is None:
                raise ValueError(f"step {sid}: no conclusion")
            family = None
            if "family" in opts:
                param, template = opts["family"]
                family = PremiseFamily(param, build(template.value))
            seq = Sequent(step_sig, frozenset(step_gamma), conclusion)
            node = ProofNode(seq, spec.rule, premises, payload, family)
        nodes[sid] = node
        return node

    if root_id is None:
        raise ValueError("empty proof script")
    if root_id in template_subtree:
        line, col = templates[root_id].where
        raise ParseError(f"root step {root_id!r} lies inside a family "
                         "template", line, col)
    return build(root_id)


def print_proof(root: ProofNode,
                axiom_names: Optional[Mapping] = None) -> str:
    """Serialize a proof tree to the flat step format. axiom_names maps
    sentences to catalog names so GMP and Monotonicity steps stay short."""
    axiom_names = axiom_names or {}
    lines: list[str] = []
    counter = [0]
    seen: dict[int, str] = {}

    def emit(node: ProofNode, base_gamma: frozenset, base_sig) -> str:
        if id(node) in seen:
            return seen[id(node)]
        info_name = None
        rule = node.rule
        payload = node.payload
        if rule == "GMP":
            axiom_sentence = node.premises[0].conclusion.single()
            info_name = axiom_names.get(axiom_sentence)
            if info_name is None:
                raise ValueError("cannot print a GMP step without a named axiom")
            refs = []
            theta = payload["subst"]
            for phi, prem in zip(payload["Phi"], node.premises[1:]):
                inst = apply_substitution(theta, phi)
                if isinstance(inst, Neg) and inst in node.conclusion.antecedent \
                        and prem.rule == "Monotonicity":
                    continue
                refs.append(emit(prem, base_gamma, base_sig))
        else:
            refs = [emit(p, base_gamma, base_sig) for p in node.premises]
        counter[0] += 1
        sid = f"s{counter[0]}"
        seen[id(node)] = sid
        parts = [f"{sid} = rule {rule}"]
        if refs:
            parts.append("[" + ", ".join(refs) + "]")
        if rule == "GMP":
            parts.append(f'axiom "{info_name}"')
        if rule in ("GMP", "Subst"):
            theta = payload.get("subst")
            if theta:
                body = "; ".join(f"{v.name} := {t}"
                                 for v, t in sorted(theta.items(),
                                                    key=lambda kv: kv[0].name))
                parts.append(f'subst "{body}"')
        if rule == "Monotonicity":
            concl = node.conclusion.single() \
                if isinstance(node.conclusion.conclusion, Sentence) else None
            name = axiom_names.get(concl)
            if name is not None:
                parts.append(f'axiom "{name}"')
        if "n" in payload:
            parts.append(f"n {payload['n']}")
        if "fresh" in payload:
            d = payload["fresh"]
            parts.append(f'fresh "{d.name} : {d.result}"')
        if "exists" in payload:
            parts.append(f'exists "{payload["exists"]}"')
        extra = node.conclusion.antecedent - base_gamma
        if extra:
            body = "; ".join(str(s) for s in sorted(extra, key=lambda s: s.key()))
            parts.append(f'assume "{body}"')
        new_consts = node.conclusion.signature.funcs - base_sig.funcs
        if new_consts:
            body = ", ".join(f"{d.name} : {d.result}"
                             for d in sorted(new_consts))
            parts.append(f'consts "{body}"')
        if not (rule == "Monotonicity" and axiom_names.get(
                node.conclusion.conclusion if isinstance(
                    node.conclusion.conclusion, Sentence) else None)):
            parts.append(f'conclusion "{node.conclusion.single()}"')
        if node.family is not None:
            tid = emit(node.family.template, base_gamma, base_sig)
            at = 2 if refs else 1     # family comes after the refs bracket
            parts.insert(at, f"family {node.family.param} {tid}")
        lines.append(" ".join(parts))
        return sid

    root_sid = emit(root, root.conclusion.antecedent, root.conclusion.signature)
    lines.append(f"root {root_sid}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Forcing fixtures (.taf)
#
# sorts / ops / labels blocks as in .ta, then:
# condition p
# condition q extends p
#   const h_s_0 : s
#   atom a =[lam]=> b


def parse_forcing(text: str):
    """Returns (ForcingProperty, base Theory-like signature)."""
    from .forcing import ForcingProperty

    sig_lines = []
    cond_blocks: list[dict] = []
    block = None
    for line in _split_lines(text):
        head = line[0]
        if head.value == "condition":
            ts = TokenStream(line)
            ts.next()
            name = ts.next()
            if any(b["name"] == name.value for b in cond_blocks):
                raise ParseError(f"duplicate condition name {name.value!r}",
                                 name.line, name.col)
            parents = []
            if ts.accept("extends"):
                parents.append(ts.next())
                while ts.accept(","):
                    parents.append(ts.next())
            cond_blocks.append({"name": name.value, "parents": parents,
                                "consts": [], "atom_lines": []})
            block = "condition"
            continue
        if block == "condition" and head.value in ("const", "atom"):
            if head.value == "const":
                ts = TokenStream(line)
                ts.next()
                n = ts.next().value
                ts.expect(":")
                s = ts.next().value
                cond_blocks[-1]["consts"].append((n, s))
            else:
                cond_blocks[-1]["atom_lines"].append(line)
            continue
        if head.value == "axioms":
            raise ParseError("a forcing fixture has no axioms block; give "
                             "the atoms to a condition", head.line, head.col)
        sig_lines.append(line)
        if head.value in ("sorts", "ops", "labels"):
            block = head.value
    _, base_sig, _ = _read_blocks(sig_lines)

    names = [b["name"] for b in cond_blocks]
    by_name = {b["name"]: b for b in cond_blocks}
    edges = set()
    for b in cond_blocks:
        for parent in b["parents"]:
            if parent.value not in by_name:
                raise ParseError(f"unknown parent condition {parent.value!r}",
                                 parent.line, parent.col)
            edges.add((parent.value, b["name"]))
    leq = reflexive_transitive_closure(frozenset(edges), names)

    sig_of = {}
    own = {}
    for name in names:
        below = [by_name[q] for q in names if (q, name) in leq]
        consts = {FuncDecl(n, (), s) for b in below for n, s in b["consts"]}
        sig = Signature(base_sig.sorts, base_sig.funcs | consts, base_sig.mono,
                        base_sig.labels)
        ctx = ParseContext(sig)
        atoms = set()
        for line in by_name[name]["atom_lines"]:
            ts = TokenStream(line)
            ts.pos = 1
            atoms.add(ts.whole("atom", parse_sentence_inner, ctx))
        sig_of[name] = sig
        own[name] = atoms
    # each atom is parsed once, in its own condition's signature
    atoms_of = {name: frozenset().union(*(own[q] for q in names
                                          if (q, name) in leq))
                for name in names}
    return ForcingProperty(tuple(names), leq, sig_of, atoms_of), base_sig
