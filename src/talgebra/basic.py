"""Decision procedure for basic entailment on ground atoms, and the initial
term model of a ground atomic theory.

The universe is goal-directed: the subterm closure of the theory plus the
goal, closed incrementally under R/S/T/F, P and M after each assumed atom
(see `CongruenceState`).  Verdicts and used premises depend only on that
closure; which F and M steps the trace records, and in which order, depends
on the order of the work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .syntax import (App, Eq, FuncDecl, Lbl, Sentence, Signature, Term, Trans,
                     is_atomic, is_ground, subterms, term_key)
from .semantics import FiniteModel


class NotAtomicError(ValueError):
    pass


@dataclass(frozen=True)
class GroundTheory:
    signature: Signature
    atoms: tuple[Sentence, ...]

    def __post_init__(self):
        for a in self.atoms:
            _require_ground_atom(a)

    @staticmethod
    def make(sig: Signature, atoms: Iterable[Sentence]) -> "GroundTheory":
        return GroundTheory(sig, tuple(atoms))


def _require_ground_atom(phi: Sentence):
    if not is_atomic(phi):
        raise NotAtomicError(f"not an atomic sentence: {phi}")
    if not (is_ground(phi.left) and is_ground(phi.right)):
        raise NotAtomicError(f"atom is not ground: {phi}")


@dataclass
class TraceStep:
    rule: str
    premises: tuple
    derived: Sentence

    def as_record(self) -> dict:
        return {"rule": self.rule,
                "premises": [str(p) for p in self.premises],
                "derived": str(self.derived)}


@dataclass
class BasicResult:
    holds: bool
    used_premises: tuple[Sentence, ...]
    trace: tuple[TraceStep, ...]

    def __bool__(self):
        return self.holds


class CongruenceState:
    """Incremental congruence closure over a subterm-closed universe of
    ground terms, with labelled transitions between classes.

    Terms are numbered once and the closure works on the numbers.  Each
    class keeps its members, its least term (the representative) and a
    use-list of the applications with an argument in it.  A signature table
    maps (decl, argument classes) to an application, so rule F is a
    collision in that table.  Transitions are indexed by label and by
    source and target class.  Merges wait on one worklist and new steps on
    another; both are drained before `assume` returns.
    """

    def __init__(self, universe: Iterable[Term], signature: Signature):
        self.signature = signature
        self.universe: list[Term] = []          # term number -> term
        self._num: dict[Term, int] = {}
        self._key: list = []                    # term number -> term_key
        self._args: list[tuple[int, ...]] = []  # term number -> arguments
        self._cls: list[int] = []               # term number -> class
        self._members: dict[int, list[int]] = {}  # class (a member) -> members
        self._rep: dict[int, int] = {}          # class -> least member
        self._uses: dict[int, list[int]] = {}   # class -> applications using it
        self._sig: dict[int, tuple] = {}        # application -> signature
        self._table: dict[tuple, int] = {}      # signature -> an application
        self._out: dict[str, dict[int, set[int]]] = {}  # label -> source -> targets
        self._in: dict[str, dict[int, set[int]]] = {}   # label -> target -> sources
        self._merges: list[tuple[int, int, bool]] = []
        # (label, source, target) to lift, or (None, application, None) to recheck
        self._steps: list[tuple] = []
        self.trace: list[TraceStep] = []
        self._used: set = set()
        self.add_terms(universe)

    def add_terms(self, terms: Iterable[Term]):
        """Extend the universe by terms whose arguments it holds, then close
        again."""
        mono = self.signature.mono
        new = sorted((term_key(t), t) for t in set(terms) if t not in self._num)
        for key, t in new:
            i = len(self.universe)
            self.universe.append(t)
            self._num[t] = i
            self._key.append(key)
            self._args.append(tuple(self._num[a] for a in t.args))
            self._cls.append(i)
            self._members[i], self._rep[i], self._uses[i] = [i], i, []
            for c in {self._cls[a] for a in self._args[i]}:
                self._uses[c].append(i)
            self._sign(i)
            if t.decl in mono and t.args:
                self._steps.append((None, i, None))
        self._close()

    def __contains__(self, t: Term) -> bool:
        return t in self._num

    def _class(self, t: Term) -> int:
        return self._cls[self._num[t]]

    def find(self, t: Term) -> Term:
        return self.universe[self._rep[self._class(t)]]

    def same(self, t: Term, u: Term) -> bool:
        return self._class(t) == self._class(u)

    def assume(self, atom: Sentence):
        if isinstance(atom, Eq):
            if not self.same(atom.left, atom.right):
                self._used.add(atom)
                self.trace.append(TraceStep("premise", (), atom))
                self.merge(atom.left, atom.right)
        else:
            assert isinstance(atom, Trans) and isinstance(atom.action, Lbl)
            if self._add_step(atom.action.name, self._class(atom.left),
                              self._class(atom.right)):
                self._used.add(atom)
                self.trace.append(TraceStep("premise", (), atom))
                self.saturate()

    def merge(self, t: Term, u: Term):
        """Merge the classes of t and u and every pair of classes that rule
        F then forces together, moving their steps (P); then rule M."""
        self._merges.append((self._num[t], self._num[u], False))
        self._close()

    def _close(self):
        while self._merges:
            self._union(*self._merges.pop())
        self.saturate()

    def _sign(self, v: int):
        # rule F: an application filed under v's signature is congruent to v
        sig = (self.universe[v].decl, tuple(self._cls[a] for a in self._args[v]))
        self._sig[v] = sig
        w = self._table.setdefault(sig, v)
        if self._cls[w] != self._cls[v]:
            self._merges.append((w, v, True))

    def _union(self, i: int, j: int, congruent: bool):
        cx, cy = self._cls[i], self._cls[j]
        if cx == cy:
            return
        if congruent:
            t, u = self.universe[i], self.universe[j]
            self.trace.append(TraceStep("F", (t, u), Eq(t, u)))
        # the smaller class moves; the least term stays the representative
        if (len(self._members[cx]) + len(self._uses[cx])
                < len(self._members[cy]) + len(self._uses[cy])):
            cx, cy = cy, cx
        ry = self._rep.pop(cy)
        if self._key[ry] < self._key[self._rep[cx]]:
            self._rep[cx] = ry
        for m in self._members[cy]:
            self._cls[m] = cx
        self._members[cx] += self._members.pop(cy)
        self._move_steps(cy, cx)
        moved = list(dict.fromkeys(self._uses.pop(cy)))
        for v in moved:
            if self._table.get(self._sig[v]) == v:
                del self._table[self._sig[v]]
        for v in moved:
            self._sign(v)
        self._uses[cx] += moved
        # rule M: the moved applications have a new context
        self._steps += [(None, v, None) for v in moved
                        if self.universe[v].decl in self.signature.mono]

    def _move_steps(self, cy: int, cx: int):
        # rule P: steps from and to class cy now start and end at cx
        for label, out in self._out.items():
            inn = self._in[label]
            for b in out.pop(cy, set()):
                inn[b].discard(cy)
                self._add_step(label, cx, cx if b == cy else b)
            for a in inn.pop(cy, set()):    # a loop at cy has moved above
                out[a].discard(cy)
                self._add_step(label, a, cx)

    def _add_step(self, label: str, a: int, b: int) -> bool:
        """Record the step from class a to class b; True, and queued, if new."""
        targets = self._out.setdefault(label, {}).setdefault(a, set())
        if b in targets:
            return False
        targets.add(b)
        self._in.setdefault(label, {}).setdefault(b, set()).add(a)
        self._steps.append((label, a, b))
        return True

    def saturate(self):
        """Rule M to a fixpoint: lift each queued step through the monotonic
        applications with an argument in its source class, and recheck each
        queued application against the steps at its argument classes."""
        mono = self.signature.mono
        while self._steps:
            label, a, b = self._steps.pop()
            if label is None:
                self._recheck(a)
                continue
            ca, cb = self._cls[a], self._cls[b]
            for v in dict.fromkeys(self._uses[ca]):
                d, cs = self._sig[v]
                if d in mono:
                    for k, c in enumerate(cs):
                        if c == ca:
                            self._lift(label, v, k, cb, True)

    def _recheck(self, v: int):
        cs = self._sig[v][1]
        for label, out in self._out.items():
            inn = self._in[label]
            for k, c in enumerate(cs):
                for b in list(out.get(c, ())):
                    self._lift(label, v, k, b, True)
                for a in list(inn.get(c, ())):
                    self._lift(label, v, k, a, False)

    def _lift(self, label: str, v: int, k: int, c: int, forward: bool):
        # the application that differs from v only at argument k, where it
        # is in class c, is the target (forward) or the source of a step
        d, cs = self._sig[v]
        w = self._table.get((d, cs[:k] + (c,) + cs[k + 1:]))
        if w is None:
            return
        if not forward:
            v, w = w, v
        if self._add_step(label, self._cls[v], self._cls[w]):
            tv, tw = self.universe[v], self.universe[w]
            self.trace.append(TraceStep(
                "M", (Trans(tv.args[k], Lbl(label), tw.args[k]),),
                Trans(tv, Lbl(label), tw)))

    def holds(self, atom: Sentence) -> bool:
        if isinstance(atom, Eq):
            return self.same(atom.left, atom.right)
        assert isinstance(atom, Trans) and isinstance(atom.action, Lbl)
        targets = self._out.get(atom.action.name, {}).get(self._class(atom.left), ())
        return self._class(atom.right) in targets

    def roots(self) -> dict[str, list[Term]]:
        """The representative of each class, by sort, in term order."""
        out: dict[str, list[Term]] = {s: [] for s in self.signature.sorts}
        for r in sorted(self._rep.values(), key=self._key.__getitem__):
            out[self.universe[r].sort].append(self.universe[r])
        return out

    def pairs(self, label: str) -> list[tuple[Term, Term]]:
        """The steps under label, between class representatives."""
        rep = lambda c: self.universe[self._rep[c]]
        return [(rep(a), rep(b)) for a, targets in self._out.get(label, {}).items()
                for b in targets]


def _atom_terms(atoms: Iterable[Sentence]) -> set[Term]:
    return {s for phi in atoms for t in (phi.left, phi.right) for s in subterms(t)}


def decide_basic(theory: GroundTheory, goal: Sentence) -> BasicResult:
    _require_ground_atom(goal)
    state = CongruenceState(_atom_terms((*theory.atoms, goal)),
                            theory.signature)
    for atom in theory.atoms:
        state.assume(atom)
    holds = state.holds(goal)
    used = tuple(a for a in theory.atoms if a in state._used) if holds else ()
    return BasicResult(holds, used, tuple(state.trace))


# ---------------------------------------------------------------------------
# The initial term model


@dataclass(frozen=True)
class Unbounded:
    """Generation of ground terms did not stabilize within the depth bound."""
    sort: str

    def __bool__(self):
        return False


def _term_model(theory: GroundTheory, depth_bound: int
                ) -> Union[tuple[CongruenceState, FiniteModel], Unbounded]:
    """Grow a ground-term universe modulo the theory congruence until applying
    every operation to class representatives yields no new class; return the
    closure and the quotient read off it."""
    sig = theory.signature
    constants = {App(d, ()) for d in sig.funcs if d.is_constant}
    state = CongruenceState(constants | _atom_terms(theory.atoms), sig)
    for atom in theory.atoms:
        state.assume(atom)
    while True:
        roots = state.roots()
        new = [t for d in sorted(sig.funcs) if not d.is_constant
               for t in (App(d, combo) for combo in
                         itertools.product(*(roots[s] for s in d.arity)))
               if t not in state]
        if not new:
            break
        if depth_bound == 0:
            return Unbounded(min(new, key=term_key).sort)
        depth_bound -= 1
        state.add_terms(new)
    carrier = {s: tuple(str(t) for t in ts) for s, ts in roots.items()}
    func_table: dict[FuncDecl, dict] = {}
    for d in sig.funcs:
        table = {}
        for combo in itertools.product(*(roots[s] for s in d.arity)):
            table[tuple(str(t) for t in combo)] = str(state.find(App(d, combo)))
        func_table[d] = table
    label_rel = {l: frozenset((a.sort, str(a), str(b))
                              for a, b in state.pairs(l))
                 for l in sig.labels}
    return state, FiniteModel(sig, carrier, func_table, label_rel)


def build_term_model(theory: GroundTheory, depth_bound: int = 8
                     ) -> Union[FiniteModel, Unbounded]:
    """The quotient of the ground terms by the congruence generated by the
    theory, with transitions given by derivable transition atoms."""
    grown = _term_model(theory, depth_bound)
    return grown if isinstance(grown, Unbounded) else grown[1]


def check_initiality(theory: GroundTheory, m: FiniteModel,
                     depth_bound: int = 8) -> Optional[dict]:
    """The unique homomorphism from the term model into m, as a mapping from
    class representatives to elements of m; None when m does not satisfy the
    theory or preservation fails."""
    from .semantics import interpret_term, satisfies_all

    if m.signature != theory.signature:
        return None
    if not satisfies_all(m, theory.atoms):
        return None
    grown = _term_model(theory, depth_bound)
    if isinstance(grown, Unbounded):
        return None
    state, term_model = grown
    h: dict[str, object] = {}
    for t in state.universe:
        key = str(state.find(t))
        value = interpret_term(m, t)
        if key in h and h[key] != value:
            return None              # not functional: m cannot satisfy theory
        h[key] = value
    # transition preservation
    for l in theory.signature.labels:
        for (s, a, b) in term_model.label_rel.get(l, frozenset()):
            if (h[a], h[b]) not in m.rel_at(l, s):
                return None
    return h
