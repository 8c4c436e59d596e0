"""A small CCS frontend: parse process declarations, compile them to a
transition-algebra theory, search for labelled steps, and synthesize checkable
proofs for every step found.

Processes are compiled to terms over sorts Channel, Action and Process; the
operational rules become universally quantified axiom schemas instantiated
through the derived generalized-modus-ponens rule. Parallel composition is the
only monotonic symbol, so interleaving steps are proved with the congruence
rule for monotonic operators rather than with dedicated axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .syntax import (App, Eq, FuncDecl, Lbl, Neg, Seq as ActionSeq, Sentence,
                     Signature, Star, Term, Trans, Var, Variable, conj, forall,
                     implies)
from .calculus import ProofNode, Sequent, check_proof, gmp_node
from .formats import (MAX_NESTING, Grammar, ParseError, TokenStream,
                      _parse_text, _split_lines, build_proof, parse_nested)

SORT_CHANNEL = "Channel"
SORT_ACTION = "Action"
SORT_PROCESS = "Process"


class CcsError(ValueError):
    """A program or process that parses but is ill-formed."""


# ---------------------------------------------------------------------------
# Actions and process syntax


@dataclass(frozen=True, order=True)
class CcsAction:
    channel: str                 # channel name, or "tau"
    co: bool = False

    def __post_init__(self):
        if self.channel == "tau" and self.co:
            raise CcsError("the silent action has no co-name")

    @property
    def silent(self) -> bool:
        return self.channel == "tau"

    def bar(self) -> "CcsAction":
        if self.silent:
            return self
        return CcsAction(self.channel, not self.co)

    def __str__(self):
        return f"'{self.channel}" if self.co else self.channel


TAU = CcsAction("tau")


class Process:
    pass


@dataclass(frozen=True)
class Nil(Process):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Ident(Process):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Prefix(Process):
    action: CcsAction
    body: Process

    def __str__(self):
        return f"{self.action} . {_paren(self.body, 3)}"


@dataclass(frozen=True)
class Sum(Process):
    left: Process
    right: Process

    def __str__(self):
        return f"{_paren(self.left, 1)} + {_paren(self.right, 1)}"


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process

    def __str__(self):
        return f"{_paren(self.left, 2)} | {_paren(self.right, 2)}"


@dataclass(frozen=True)
class Res(Process):
    body: Process
    channel: str

    def __str__(self):
        return f"{_paren(self.body, 4)} \\ {self.channel}"


def _prec(p: Process) -> int:
    if isinstance(p, Sum):
        return 1
    if isinstance(p, Par):
        return 2
    if isinstance(p, Prefix):
        return 3
    if isinstance(p, Res):
        return 4
    return 5


def _paren(p: Process, context: int) -> str:
    s = str(p)
    return f"({s})" if _prec(p) < context else s


def restrict(p: Process, channels: Iterable[str]) -> Process:
    for k in channels:
        p = Res(p, k)
    return p


def _unguarded(p: Process, depth: int = 0) -> dict:
    """Identifiers occurring in p outside every action prefix, each with the
    most operators above such an occurrence."""
    if isinstance(p, Ident):
        return {p.name: depth}
    if isinstance(p, (Sum, Par)):
        out = _unguarded(p.left, depth + 1)
        for name, d in _unguarded(p.right, depth + 1).items():
            out[name] = max(d, out.get(name, d))
        return out
    if isinstance(p, Res):
        return _unguarded(p.body, depth + 1)
    return {}


@dataclass(frozen=True)
class CcsProgram:
    channel_names: frozenset
    declarations: tuple            # of (identifier, Process), in source order

    def __post_init__(self):
        if "tau" in self.channel_names:
            raise CcsError("tau is the silent action, not a channel")
        bodies = {}
        for name, body in self.declarations:
            if name in bodies:
                raise CcsError(f"duplicate declaration of {name}")
            bodies[name] = body
        object.__setattr__(self, "_bodies", bodies)
        for name, body in self.declarations:
            self.check(body)
        unguarded = {name: _unguarded(body) for name, body in self.declarations}
        # ccs_steps unfolds an identifier through its unguarded identifiers:
        # levels[n] is the deepest such unfolding and the chain it runs along
        levels = {}
        for root in unguarded:
            path = [] if root in levels else [root]
            while path:
                n = path[-1]
                m = next((m for m in unguarded[n] if m not in levels), None)
                if m in path:
                    raise CcsError(f"unguarded recursion: {m} reaches itself "
                                   "outside any action prefix")
                if m is not None:
                    path.append(m)
                    continue
                level, chain = max(((d + 1 + levels[m][0], levels[m][1])
                                    for m, d in unguarded[n].items()),
                                   default=(0, ()))
                levels[n] = (level, (n, *chain))
                if level > MAX_NESTING:
                    raise CcsError(
                        f"unguarded identifier chain {' -> '.join(levels[n][1])}"
                        f" nests deeper than {MAX_NESTING} levels")
                path.pop()

    def check(self, p: Process):
        """Raise CcsError unless p uses only declared identifiers and
        channels."""
        if isinstance(p, Ident):
            if p.name not in self.process_ids:
                raise CcsError(f"undeclared process identifier {p.name}")
        elif isinstance(p, Prefix):
            if not p.action.silent and p.action.channel not in self.channel_names:
                raise CcsError(f"undeclared channel {p.action.channel}")
            self.check(p.body)
        elif isinstance(p, (Sum, Par)):
            self.check(p.left)
            self.check(p.right)
        elif isinstance(p, Res):
            if p.channel not in self.channel_names:
                raise CcsError(f"undeclared channel {p.channel}")
            self.check(p.body)

    @property
    def process_ids(self) -> frozenset:
        return frozenset(self._bodies)

    @property
    def actions(self) -> tuple[CcsAction, ...]:
        """All actions A = names, co-names and the silent action."""
        out = [TAU]
        for c in sorted(self.channel_names):
            out.append(CcsAction(c))
            out.append(CcsAction(c, True))
        return tuple(out)

    def body_of(self, name: str) -> Process:
        return self._bodies[name]

    def restriction_sequences(self) -> tuple[tuple[str, ...], ...]:
        """Maximal channel sequences K with P \\ K occurring in a declaration."""
        found: list[tuple[str, ...]] = []

        def walk(p: Process, pending: list[str]):
            if isinstance(p, Res):
                walk(p.body, [p.channel] + pending)
                return
            if pending:
                seq = tuple(pending)
                if seq not in found:
                    found.append(seq)
            if isinstance(p, Prefix):
                walk(p.body, [])
            elif isinstance(p, (Sum, Par)):
                walk(p.left, [])
                walk(p.right, [])

        for _, body in self.declarations:
            walk(body, [])
        return tuple(found)


# ---------------------------------------------------------------------------
# Parsing


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _name(ts: TokenStream, what: str) -> str:
    tok = ts.next()
    if not _IDENT.match(tok.value):
        raise ParseError(f"bad {what} {tok.value!r}", tok.line, tok.col)
    return tok.value


def _process(ts: TokenStream, _ctx) -> Process:
    tok = ts.peek()
    if ts.accept("0"):
        return Nil()
    if tok.kind != "id" or not _IDENT.match(tok.value):
        ts.error("expected a process")
    ts.pos += 1
    return Ident(tok.value)


def _action_prefix(ts: TokenStream):
    # an action prefix is a name or co-name ('c) followed by "."
    tok = ts.peek()
    if tok.kind != "id" or ts.tokens[ts.pos + 1].value != ".":
        return None
    co = tok.value.startswith("'")
    if not _IDENT.match(tok.value[co:]):
        raise ParseError(f"bad action name {tok.value!r}", tok.line, tok.col)
    ts.pos += 2
    action = CcsAction(tok.value[co:], co)
    return lambda body: Prefix(action, body)


def _restriction(ts: TokenStream, height: int):
    tok = ts.next()
    if ts.accept("("):
        names = [_name(ts, "channel name")]
        while ts.accept(","):
            names.append(_name(ts, "channel name"))
        ts.expect(")")
    else:
        names = [_name(ts, "channel name")]
    return tok, height + len(names), lambda p: restrict(p, names)


# "+" binds looser than "|", which binds looser than a prefix "a ."; a
# restriction "\ c" or "\ (c, d)" applies to a primary
PROCESSES = Grammar("process", {"+": (1, Sum), "|": (2, Par)}, _process,
                    _action_prefix, {"\\": _restriction})


def parse_process(text: str) -> Process:
    return _parse_text(text, "process", parse_nested, PROCESSES)


def parse_ccs(text: str) -> CcsProgram:
    """Parse a program: a `channels` header line followed by one declaration
    `Name ::= process` per line."""
    lines = _split_lines(text)
    channels: list[str] = []
    if lines and lines[0][0].value == "channels":
        ts = TokenStream(lines.pop(0)[1:])
        channels.append(_name(ts, "channel name"))
        while ts.accept(","):
            channels.append(_name(ts, "channel name"))
        if not ts.at_end():
            ts.error("expected ',' between channel names")
    declarations = []
    for line in lines:
        ts = TokenStream(line)
        name = _name(ts, "process identifier")
        ts.expect("::=")
        declarations.append((name, ts.whole("process", parse_nested,
                                               PROCESSES)))
    return CcsProgram(frozenset(channels), tuple(declarations))


# ---------------------------------------------------------------------------
# Compilation to a transition-algebra theory


@dataclass(frozen=True)
class AxiomInfo:
    """A universally quantified Horn-style axiom schema instance."""
    name: str
    variables: frozenset            # of Variable
    premises: tuple                 # of Sentence (over the extended signature)
    conclusion: Sentence

    @cached_property
    def sentence(self) -> Sentence:
        if self.premises:
            return forall(self.variables,
                          implies(conj(self.premises), self.conclusion))
        return forall(self.variables, self.conclusion)


@dataclass(frozen=True)
class CompiledCcs:
    program: CcsProgram
    signature: Signature
    axioms: tuple                   # of AxiomInfo, in catalog order

    @cached_property
    def theory(self) -> frozenset:
        return frozenset(ax.sentence for ax in self.axioms)

    def axiom(self, name: str) -> AxiomInfo:
        for ax in self.axioms:
            if ax.name == name:
                return ax
        raise KeyError(f"no axiom named {name}")

    # -- term builders ------------------------------------------------------

    def action_const(self, a: CcsAction) -> Term:
        return App(self._decl(str(a), SORT_ACTION), ())

    def channel_const(self, k: str) -> Term:
        return App(self._decl(k, SORT_CHANNEL), ())

    def _decl(self, name: str, result: str) -> FuncDecl:
        for d in self.signature.decls_named(name):
            if d.result == result:
                return d
        raise KeyError(f"no constant {name} of sort {result}")

    def term_of(self, p: Process) -> Term:
        if isinstance(p, Nil):
            return App(self._decl("0", SORT_PROCESS), ())
        if isinstance(p, Ident):
            return App(self._decl(p.name, SORT_PROCESS), ())
        if isinstance(p, Prefix):
            return App(self._op("pre"), (self.action_const(p.action),
                                         self.term_of(p.body)))
        if isinstance(p, Sum):
            return App(self._op("sum"), (self.term_of(p.left),
                                         self.term_of(p.right)))
        if isinstance(p, Par):
            return App(self._op("par"), (self.term_of(p.left),
                                         self.term_of(p.right)))
        assert isinstance(p, Res)
        return App(self._op("res"), (self.term_of(p.body),
                                     self.channel_const(p.channel)))

    def _op(self, name: str) -> FuncDecl:
        for d in self.signature.decls_named(name):
            if not d.is_constant:
                return d
        raise KeyError(name)


def compile_to_theory(program: CcsProgram,
                      extra_restrictions: Iterable[tuple[str, ...]] = ()
                      ) -> CompiledCcs:
    channels = sorted(program.channel_names)
    actions = program.actions
    funcs = [FuncDecl("0", (), SORT_PROCESS)]
    funcs += [FuncDecl(pi, (), SORT_PROCESS) for pi in sorted(program.process_ids)]
    funcs += [FuncDecl(str(a), (), SORT_ACTION) for a in actions]
    funcs += [FuncDecl(k, (), SORT_CHANNEL) for k in channels]
    pre = FuncDecl("pre", (SORT_ACTION, SORT_PROCESS), SORT_PROCESS)
    sum_ = FuncDecl("sum", (SORT_PROCESS, SORT_PROCESS), SORT_PROCESS)
    par = FuncDecl("par", (SORT_PROCESS, SORT_PROCESS), SORT_PROCESS)
    res = FuncDecl("res", (SORT_PROCESS, SORT_CHANNEL), SORT_PROCESS)
    funcs += [pre, sum_, par, res]
    sig = Signature.make(sorts=[SORT_CHANNEL, SORT_ACTION, SORT_PROCESS],
                         funcs=funcs, mono=[par],
                         labels=[str(a) for a in actions])
    c = CompiledCcs(program, sig, ())

    P = Variable("P", SORT_PROCESS, sig)
    P1 = Variable("P'", SORT_PROCESS, sig)
    Q = Variable("Q", SORT_PROCESS, sig)
    Q1 = Variable("Q'", SORT_PROCESS, sig)
    K = Variable("k", SORT_CHANNEL, sig)
    vP, vP1, vQ, vQ1, vK = Var(P), Var(P1), Var(Q), Var(Q1), Var(K)

    axioms: list[AxiomInfo] = []

    def app(op, *args):
        return App(op, tuple(args))

    for a in actions:
        axioms.append(AxiomInfo(
            f"Act[{a}]", frozenset({P}), (),
            Trans(app(pre, c.action_const(a), vP), Lbl(str(a)), vP)))
    for a in actions:
        axioms.append(AxiomInfo(
            f"Sum[{a}]", frozenset({P, P1, Q}),
            (Trans(vP, Lbl(str(a)), vP1),),
            Trans(app(sum_, vP, vQ), Lbl(str(a)), vP1)))
    for k in channels:
        name = CcsAction(k)
        axioms.append(AxiomInfo(
            f"Com[{k}]", frozenset({P, P1, Q, Q1}),
            (Trans(vP, Lbl(str(name)), vP1),
             Trans(vQ, Lbl(str(name.bar())), vQ1)),
            Trans(app(par, vP, vQ), Lbl("tau"), app(par, vP1, vQ1))))
    for a in actions:
        side = ()
        if not a.silent:
            side = (Neg(Eq(c.channel_const(a.channel), vK)),)
        axioms.append(AxiomInfo(
            f"Res[{a}]", frozenset({P, P1, K}),
            (Trans(vP, Lbl(str(a)), vP1),) + side,
            Trans(app(res, vP, vK), Lbl(str(a)), app(res, vP1, vK))))
    sequences = list(program.restriction_sequences())
    for seq in extra_restrictions:
        if tuple(seq) not in sequences:
            sequences.append(tuple(seq))
    for seq in sequences:
        suffix = ",".join(seq)
        for a in actions:
            side = tuple(Neg(Eq(c.channel_const(a.channel), c.channel_const(k)))
                         for k in seq) if not a.silent else ()

            def wrap(t: Term) -> Term:
                for k in seq:
                    t = app(res, t, c.channel_const(k))
                return t

            axioms.append(AxiomInfo(
                f"ResStar[{a};{suffix}]", frozenset({P, P1}),
                (Trans(vP, Lbl(str(a)), vP1),) + side,
                Trans(wrap(vP), Lbl(str(a)), wrap(vP1))))
    for pi, body in program.declarations:
        body_term = c.term_of(body)
        pi_term = App(c._decl(pi, SORT_PROCESS), ())
        for a in actions:
            axioms.append(AxiomInfo(
                f"Con[{pi},{a}]", frozenset({P1}),
                (Trans(body_term, Lbl(str(a)), vP1),),
                Trans(pi_term, Lbl(str(a)), vP1)))
    # associativity, commutativity and identity for + and |
    for tag, op in (("sum", sum_), ("par", par)):
        axioms.append(AxiomInfo(
            f"Assoc[{tag}]", frozenset({P, Q, Q1}), (),
            Eq(app(op, app(op, vP, vQ), vQ1), app(op, vP, app(op, vQ, vQ1)))))
        axioms.append(AxiomInfo(
            f"Comm[{tag}]", frozenset({P, Q}), (),
            Eq(app(op, vP, vQ), app(op, vQ, vP))))
        axioms.append(AxiomInfo(
            f"Id[{tag}]", frozenset({P}), (),
            Eq(app(op, vP, c.term_of(Nil())), vP)))
    # distinctness of action constants and of channel constants
    # both orientations, so instantiated side conditions match syntactically
    for pool, mk in ((actions, c.action_const),
                     (channels, c.channel_const)):
        for x in pool:
            for y in pool:
                if x != y:
                    axioms.append(AxiomInfo(
                        f"Dist[{x},{y}]", frozenset(), (),
                        Neg(Eq(mk(x), mk(y)))))
    return CompiledCcs(program, sig, tuple(axioms))


# ---------------------------------------------------------------------------
# Step search


@dataclass(frozen=True)
class Deriv:
    """How a single labelled step was derived; shapes:
    ("Act",), ("Con", pi, d), ("SumL", d), ("SumR", d),
    ("ParL", d, right), ("ParR", d, left), ("Com", channel, dP, dQ, swapped),
    ("Res", channel, d)."""
    rule: str
    parts: tuple = ()


@dataclass(frozen=True)
class Step:
    action: CcsAction
    source: Process
    target: Process
    deriv: Deriv


class SearchCeiling(RuntimeError):
    pass


def ccs_steps(program: CcsProgram, p: Process) -> list[Step]:
    """All single labelled steps from p under the compiled axioms, with
    symmetric Sum/Com cases handled through the commutativity equations."""
    out: list[Step] = []
    if isinstance(p, Prefix):
        out.append(Step(p.action, p, p.body, Deriv("Act")))
    elif isinstance(p, Ident):
        for s in ccs_steps(program, program.body_of(p.name)):
            out.append(Step(s.action, p, s.target,
                            Deriv("Con", (p.name, s.deriv))))
    elif isinstance(p, Sum):
        for s in ccs_steps(program, p.left):
            out.append(Step(s.action, p, s.target, Deriv("SumL", (s.deriv,))))
        for s in ccs_steps(program, p.right):
            out.append(Step(s.action, p, s.target, Deriv("SumR", (s.deriv,))))
    elif isinstance(p, Par):
        left_steps = ccs_steps(program, p.left)
        right_steps = ccs_steps(program, p.right)
        for s in left_steps:
            out.append(Step(s.action, p, Par(s.target, p.right),
                            Deriv("ParL", (s.deriv, p.right))))
        for s in right_steps:
            out.append(Step(s.action, p, Par(p.left, s.target),
                            Deriv("ParR", (s.deriv, p.left))))
        for ls in left_steps:
            for rs in right_steps:
                if ls.action.silent or rs.action != ls.action.bar():
                    continue
                swapped = ls.action.co       # axiom wants the plain name first
                out.append(Step(
                    TAU, p, Par(ls.target, rs.target),
                    Deriv("Com", (ls.action.channel, ls.deriv, rs.deriv,
                                  swapped, p.left, p.right,
                                  ls.target, rs.target))))
    elif isinstance(p, Res):
        for s in ccs_steps(program, p.body):
            if not s.action.silent and s.action.channel == p.channel:
                continue
            out.append(Step(s.action, p, Res(s.target, p.channel),
                            Deriv("Res", (p.channel, s.deriv))))
    return out


class Word:
    """An action word of one search, as a node of its trie (Fredkin, "Trie
    memory", 1960): its parent's word and one action more. A node has one
    child per action, so equal words of a search are one node, and hash and
    compare by identity. Its text is built once, from its parent's."""
    __slots__ = ("parent", "action", "text", "children")

    def __init__(self, parent=None, action=None, text=""):
        self.parent, self.action, self.text = parent, action, text
        self.children: dict[str, Word] = {}      # by the action's label

    def then(self, action: CcsAction, label: str) -> "Word":
        child = self.children.get(label)
        if child is None:
            child = self.children[label] = Word(self, action,
                                                f"{self.text} {label}".lstrip())
        return child

    @property
    def actions(self) -> tuple[CcsAction, ...]:
        out, w = [], self
        while w.parent is not None:
            out.append(w.action)
            w = w.parent
        return tuple(reversed(out))


def ccs_step_search(program: CcsProgram, start: Process, depth: int,
                    ceiling: int = 10_000) -> list[tuple[Word, Process]]:
    """All (action word, derivative) pairs reachable within `depth` steps,
    each once. Each distinct derivative is one object, its first, so a pair
    is keyed by two identities, and each gets one ccs_steps."""
    interned = {start: start}       # process -> its one object
    moves: dict[int, list] = {}     # id(object) -> [(action, label, target)]
    found: dict = {}                # (word, id(target)) -> (word, target)
    frontier, seen = [(Word(), start)], 0
    for _ in range(depth):
        nxt = []
        for word, p in frontier:
            out = moves.get(id(p))
            if out is None:
                out = moves[id(p)] = [
                    (s.action, str(s.action),
                     interned.setdefault(s.target, s.target))
                    for s in ccs_steps(program, p)]
            seen += len(out)
            if seen > ceiling:
                raise SearchCeiling(f"more than {ceiling} search states")
            for action, label, target in out:
                item = (word.then(action, label), target)
                if found.setdefault((item[0], id(target)), item) is item:
                    nxt.append(item)
        frontier = nxt
    return list(found.values())


# ---------------------------------------------------------------------------
# Proof synthesis


def gmp_apply(compiled: CompiledCcs, gamma: frozenset, name: str,
              theta: dict, premise_proofs: Iterable[ProofNode]) -> ProofNode:
    """A GMP node instantiating the named catalog axiom."""
    return gmp_node(compiled.signature, gamma, compiled.axiom(name), theta,
                    premise_proofs)


def _comm_eq(compiled: CompiledCcs, gamma: frozenset, tag: str,
             left: Term, right: Term) -> ProofNode:
    """Γ ⊢ op(left, right) = op(right, left) from the commutativity axiom."""
    ax = compiled.axiom(f"Comm[{tag}]")
    by_name = {v.name: v for v in ax.variables}
    return gmp_apply(compiled, gamma, f"Comm[{tag}]",
                     {by_name["P"]: left, by_name["Q"]: right}, ())


def _rewrite_endpoints(compiled: CompiledCcs, node: ProofNode,
                       left_eq: ProofNode, right_eq: ProofNode) -> ProofNode:
    step = node.conclusion.single()
    new_left = left_eq.conclusion.single().right
    new_right = right_eq.conclusion.single().right
    concl = Trans(new_left, step.action, new_right)
    return ProofNode(Sequent(compiled.signature, node.conclusion.antecedent,
                             concl),
                     "P", (left_eq, right_eq, node))


def _refl_eq(compiled: CompiledCcs, gamma: frozenset, t: Term) -> ProofNode:
    return ProofNode(Sequent(compiled.signature, gamma, Eq(t, t)), "R")


def certify_step(compiled: CompiledCcs, step: Step,
                 gamma: Optional[frozenset] = None) -> ProofNode:
    """A checkable proof of Γ ⊢ source ⇒^action target for a found step."""
    if gamma is None:
        gamma = compiled.theory
    return _certify(compiled, gamma, step.action, step.source, step.target,
                    step.deriv)


def _vars_of(compiled: CompiledCcs, name: str) -> dict:
    return {v.name: v for v in compiled.axiom(name).variables}


def _certify(compiled: CompiledCcs, gamma: frozenset, action: CcsAction,
             source: Process, target: Process, deriv: Deriv) -> ProofNode:
    c = compiled
    label = str(action)
    if deriv.rule == "Act":
        assert isinstance(source, Prefix)
        v = _vars_of(c, f"Act[{action}]")
        return gmp_apply(c, gamma, f"Act[{action}]",
                         {v["P"]: c.term_of(source.body)}, ())
    if deriv.rule == "Con":
        pi, inner = deriv.parts
        body = c.program.body_of(pi)
        sub = _certify(c, gamma, action, body, target, inner)
        v = _vars_of(c, f"Con[{pi},{action}]")
        return gmp_apply(c, gamma, f"Con[{pi},{action}]",
                         {v["P'"]: c.term_of(target)}, (sub,))
    if deriv.rule == "SumL":
        assert isinstance(source, Sum)
        (inner,) = deriv.parts
        sub = _certify(c, gamma, action, source.left, target, inner)
        v = _vars_of(c, f"Sum[{action}]")
        return gmp_apply(c, gamma, f"Sum[{action}]",
                         {v["P"]: c.term_of(source.left),
                          v["P'"]: c.term_of(target),
                          v["Q"]: c.term_of(source.right)}, (sub,))
    if deriv.rule == "SumR":
        # derive for the swapped operands, then rewrite by commutativity
        assert isinstance(source, Sum)
        (inner,) = deriv.parts
        sub = _certify(c, gamma, action, source.right, target, inner)
        v = _vars_of(c, f"Sum[{action}]")
        swapped = gmp_apply(c, gamma, f"Sum[{action}]",
                            {v["P"]: c.term_of(source.right),
                             v["P'"]: c.term_of(target),
                             v["Q"]: c.term_of(source.left)}, (sub,))
        left_eq = _comm_eq(c, gamma, "sum", c.term_of(source.right),
                           c.term_of(source.left))
        return _rewrite_endpoints(c, swapped, left_eq,
                                  _refl_eq(c, gamma, c.term_of(target)))
    if deriv.rule in ("ParL", "ParR"):
        assert isinstance(source, Par) and isinstance(target, Par)
        inner, _ = deriv.parts
        left = deriv.rule == "ParL"
        sub = _certify(c, gamma, action, source.left if left else source.right,
                       target.left if left else target.right, inner)
        concl = Trans(c.term_of(source), Lbl(label), c.term_of(target))
        return ProofNode(Sequent(c.signature, gamma, concl), "M", (sub,))
    if deriv.rule == "Com":
        channel, d_left, d_right, swapped, pl, pr, tl, tr = deriv.parts
        name_action = CcsAction(channel)
        if not swapped:
            # left operand performs the channel name
            sub_p = _certify(c, gamma, name_action, pl, tl, d_left)
            sub_q = _certify(c, gamma, name_action.bar(), pr, tr, d_right)
            v = _vars_of(c, f"Com[{channel}]")
            return gmp_apply(c, gamma, f"Com[{channel}]",
                             {v["P"]: c.term_of(pl), v["P'"]: c.term_of(tl),
                              v["Q"]: c.term_of(pr), v["Q'"]: c.term_of(tr)},
                             (sub_p, sub_q))
        # right operand performs the name: instantiate with the operands
        # swapped, then rewrite both endpoints by commutativity of |
        sub_p = _certify(c, gamma, name_action, pr, tr, d_right)
        sub_q = _certify(c, gamma, name_action.bar(), pl, tl, d_left)
        v = _vars_of(c, f"Com[{channel}]")
        node = gmp_apply(c, gamma, f"Com[{channel}]",
                         {v["P"]: c.term_of(pr), v["P'"]: c.term_of(tr),
                          v["Q"]: c.term_of(pl), v["Q'"]: c.term_of(tl)},
                         (sub_p, sub_q))
        left_eq = _comm_eq(c, gamma, "par", c.term_of(pr), c.term_of(pl))
        right_eq = _comm_eq(c, gamma, "par", c.term_of(tr), c.term_of(tl))
        return _rewrite_endpoints(c, node, left_eq, right_eq)
    if deriv.rule == "Res":
        channel, inner = deriv.parts
        assert isinstance(source, Res) and isinstance(target, Res)
        sub = _certify(c, gamma, action, source.body, target.body, inner)
        v = _vars_of(c, f"Res[{action}]")
        return gmp_apply(c, gamma, f"Res[{action}]",
                         {v["P"]: c.term_of(source.body),
                          v["P'"]: c.term_of(target.body),
                          v["k"]: c.channel_const(channel)}, (sub,))
    raise ValueError(f"unknown derivation rule {deriv.rule}")


def certify_res_star(compiled: CompiledCcs, step_proof: ProofNode,
                     seq: tuple[str, ...],
                     action: CcsAction) -> ProofNode:
    """Lift Γ ⊢ P ⇒^a P' to Γ ⊢ P\\K ⇒^a P'\\K via the derived schema."""
    gamma = step_proof.conclusion.antecedent
    concl = step_proof.conclusion.single()
    name = f"ResStar[{action};{','.join(seq)}]"
    v = _vars_of(compiled, name)
    return gmp_apply(compiled, gamma, name,
                     {v["P"]: concl.left, v["P'"]: concl.right}, (step_proof,))


def certify_word(compiled: CompiledCcs, start: Process,
                 steps: list[Step]) -> ProofNode:
    """A left-nested composition proof for a word of single steps."""
    if not steps:
        raise ValueError("empty step word")
    node = certify_step(compiled, steps[0])
    for s in steps[1:]:
        nxt = certify_step(compiled, s)
        a = node.conclusion.single()
        b = nxt.conclusion.single()
        concl = Trans(a.left, ActionSeq(a.action, b.action), b.right)
        node = ProofNode(Sequent(compiled.signature,
                                 node.conclusion.antecedent, concl),
                         "Comp_I", (node, nxt))
    return node

# ---------------------------------------------------------------------------
# The institute example: continuous output of theorems


INSTITUTE_SOURCE = """\
channels coin, coffee, theorem
Mathematician ::= 'coin . coffee . 'theorem . Mathematician
CoffeeVM ::= coin . 'coffee . CoffeeVM
"""

INSTITUTE_RESTRICTION = ("coin", "coffee")


def mathematician_program() -> CcsProgram:
    return parse_ccs(INSTITUTE_SOURCE)


def compile_institute() -> CompiledCcs:
    return compile_to_theory(mathematician_program(),
                             extra_restrictions=(INSTITUTE_RESTRICTION,))


def institute_process() -> Process:
    return restrict(Par(Ident("Mathematician"), Ident("CoffeeVM")),
                    INSTITUTE_RESTRICTION)


def institute_proof(compiled: Optional[CompiledCcs] = None) -> ProofNode:
    """Institute ⇒^{tau* ; 'theorem ; tau*} Institute: a composition spine
    whose first leg is an iteration witnessed at index two, whose middle leg
    restricts an interleaved co-theorem step, and whose last leg is an
    iteration witnessed at index zero (a reflexivity equation)."""
    c = compiled if compiled is not None else compile_institute()
    prog = c.program
    gamma = c.theory
    sig = c.signature
    K = INSTITUTE_RESTRICTION
    tau = Lbl("tau")

    core0 = Par(Ident("Mathematician"), Ident("CoffeeVM"))
    inst = restrict(core0, K)
    t_inst = c.term_of(inst)

    def only_step(p: Process, action: CcsAction) -> Step:
        matches = [s for s in ccs_steps(prog, p) if s.action == action]
        if len(matches) != 1:
            raise ValueError(f"expected a unique {action} step from {p}")
        return matches[0]

    # first silent step: the coin handshake between the two components
    s1 = only_step(core0, TAU)
    first = certify_res_star(c, certify_step(c, s1), K, TAU)
    core1 = s1.target
    # second silent step: the coffee handshake
    s2 = only_step(core1, TAU)
    second = certify_res_star(c, certify_step(c, s2), K, TAU)
    core2 = s2.target

    two = first.conclusion.single()
    chained = Trans(two.left, ActionSeq(tau, tau),
                    second.conclusion.single().right)
    comp_tau = ProofNode(Sequent(sig, gamma, chained), "Comp_I",
                         (first, second))
    t_mid = second.conclusion.single().right
    star_two = ProofNode(Sequent(sig, gamma, Trans(t_inst, Star(tau), t_mid)),
                         "Star_I", (comp_tau,), {"n": 2})

    # the co-theorem step, interleaved on the left of | and then restricted
    s3 = only_step(core2, CcsAction("theorem", True))
    theorem_leg = certify_res_star(c, certify_step(c, s3), K,
                                   CcsAction("theorem", True))

    left_act = ActionSeq(Star(tau), Lbl("'theorem"))
    left_leg = ProofNode(
        Sequent(sig, gamma, Trans(t_inst, left_act, t_inst)), "Comp_I",
        (star_two, theorem_leg))

    refl = ProofNode(Sequent(sig, gamma, Eq(t_inst, t_inst)), "R")
    star_zero = ProofNode(
        Sequent(sig, gamma, Trans(t_inst, Star(tau), t_inst)), "Star_I",
        (refl,), {"n": 0})

    concl = Trans(t_inst, ActionSeq(left_act, Star(tau)), t_inst)
    return ProofNode(Sequent(sig, gamma, concl), "Comp_I",
                     (left_leg, star_zero))


def institute_script_path():
    from importlib.resources import files
    return files("talgebra").joinpath("data", "institute.tap")


def replay_institute_proof(compiled: Optional[CompiledCcs] = None):
    """Parse the shipped golden proof script and return (proof, verdict)."""
    c = compiled if compiled is not None else compile_institute()
    catalog = {info.name: info for info in c.axioms}
    text = institute_script_path().read_text()
    proof = build_proof(text, c.signature, c.theory, axiom_catalog=catalog)
    return proof, check_proof(proof)
