"""Decision procedure for basic entailment on ground atoms, and the initial
term model of a ground atomic theory.

The universe is goal-directed: the subterm closure of the theory plus the
goal.  Congruence closure handles rules R/S/T/F; transition saturation
handles P (class rewriting) and M (monotonic-context lifting), run to a
fixpoint interleaved with merges.
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
    """Union-find over a fixed subterm-closed universe plus labelled
    transition pairs between classes."""

    def __init__(self, universe: Iterable[Term], signature: Signature):
        self.signature = signature
        self.universe: list[Term] = sorted(set(universe), key=term_key)
        self.parent: dict[Term, Term] = {t: t for t in self.universe}
        # label -> set of (sort, repr, repr)
        self.trans: dict[str, set] = {}
        self.trace: list[TraceStep] = []
        self._used: set = set()
        self._by_decl: dict[FuncDecl, list[App]] = {}
        for t in self.universe:
            if isinstance(t, App):
                self._by_decl.setdefault(t.decl, []).append(t)

    def find(self, t: Term) -> Term:
        root = t
        while self.parent[root] is not root:
            root = self.parent[root]
        while self.parent[t] is not root:
            self.parent[t], t = root, self.parent[t]
        return root

    def same(self, t: Term, u: Term) -> bool:
        return self.find(t) is self.find(u)

    def assume(self, atom: Sentence):
        if isinstance(atom, Eq):
            if not self.same(atom.left, atom.right):
                self._used.add(atom)
                self.trace.append(TraceStep("premise", (), atom))
                self.merge(atom.left, atom.right)
        else:
            assert isinstance(atom, Trans) and isinstance(atom.action, Lbl)
            if self._add_transition(atom.action.name, atom.left, atom.right):
                self._used.add(atom)
                self.trace.append(TraceStep("premise", (), atom))
                self.saturate()

    def merge(self, t: Term, u: Term):
        rt, ru = self.find(t), self.find(u)
        if rt is ru:
            return
        # least representative wins; deterministic across runs
        if term_key(ru) < term_key(rt):
            rt, ru = ru, rt
        self.parent[ru] = rt
        self._rewrite_transitions()
        self._congruence_pass()
        self.saturate()

    def _congruence_pass(self):
        # rule F restricted to the universe: equal argument classes force
        # equal application classes
        changed = True
        while changed:
            changed = False
            for apps in self._by_decl.values():
                sig: dict[tuple, App] = {}
                for t in apps:
                    key = tuple(self.find(a) for a in t.args)
                    other = sig.get(key)
                    if other is None:
                        sig[key] = t
                    elif not self.same(other, t):
                        self.trace.append(TraceStep("F", (other, t), Eq(other, t)))
                        rt, ru = self.find(other), self.find(t)
                        if term_key(ru) < term_key(rt):
                            rt, ru = ru, rt
                        self.parent[ru] = rt
                        self._rewrite_transitions()
                        changed = True

    def _rewrite_transitions(self):
        # rule P: transitions follow their endpoints' classes
        for label, pairs in self.trans.items():
            self.trans[label] = {(s, self.find(a), self.find(b))
                                 for (s, a, b) in pairs}

    def _add_transition(self, label: str, t: Term, u: Term) -> bool:
        entry = (t.sort, self.find(t), self.find(u))
        pairs = self.trans.setdefault(label, set())
        if entry in pairs:
            return False
        pairs.add(entry)
        return True

    def saturate(self):
        # rule M to a fixpoint: lift labelled steps through monotonic
        # contexts whenever both lifted terms exist in the universe
        changed = True
        while changed:
            changed = False
            for d in self.signature.mono:
                apps = self._by_decl.get(d, [])
                for label, pairs in list(self.trans.items()):
                    for v, w in itertools.product(apps, apps):
                        for k in range(len(d.arity)):
                            if any(not self.same(v.args[i], w.args[i])
                                   for i in range(len(d.arity)) if i != k):
                                continue
                            step = (d.arity[k], self.find(v.args[k]),
                                    self.find(w.args[k]))
                            if step in pairs and self._add_transition(label, v, w):
                                self.trace.append(TraceStep(
                                    "M", (Trans(v.args[k], Lbl(label), w.args[k]),),
                                    Trans(v, Lbl(label), w)))
                                changed = True

    def holds(self, atom: Sentence) -> bool:
        if isinstance(atom, Eq):
            return self.same(atom.left, atom.right)
        assert isinstance(atom, Trans) and isinstance(atom.action, Lbl)
        entry = (atom.left.sort, self.find(atom.left), self.find(atom.right))
        return entry in self.trans.get(atom.action.name, set())

    def classes(self) -> dict[str, list[list[Term]]]:
        by_root: dict[Term, list[Term]] = {}
        for t in self.universe:
            by_root.setdefault(self.find(t), []).append(t)
        out: dict[str, list[list[Term]]] = {}
        for root, members in by_root.items():
            out.setdefault(root.sort, []).append(sorted(members, key=term_key))
        return out


def _atom_terms(phi: Sentence) -> set[Term]:
    return subterms(phi.left) | subterms(phi.right)


def decide_basic(theory: GroundTheory, goal: Sentence) -> BasicResult:
    _require_ground_atom(goal)
    universe: set[Term] = set()
    for atom in theory.atoms:
        universe |= _atom_terms(atom)
    universe |= _atom_terms(goal)
    state = CongruenceState(universe, theory.signature)
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


def _saturated_universe(theory: GroundTheory, depth_bound: int
                        ) -> Union[tuple["CongruenceState", list[Term]], Unbounded]:
    """Grow a ground-term universe modulo the theory congruence until applying
    every operation to class representatives yields no new class."""
    sig = theory.signature
    universe: set[Term] = set()
    for atom in theory.atoms:
        universe |= _atom_terms(atom)
    for d in sig.funcs:
        if d.is_constant:
            universe.add(App(d, ()))
    state = None
    for _ in range(depth_bound + 1):
        state = CongruenceState(sorted(universe, key=term_key), sig)
        for atom in theory.atoms:
            state.assume(atom)
        roots: dict[str, list[Term]] = {s: [] for s in sig.sorts}
        for s, classes in state.classes().items():
            roots[s] = sorted((min(cls, key=term_key) for cls in classes),
                              key=term_key)
        new = set()
        for d in sorted(sig.funcs):
            if d.is_constant:
                continue
            for combo in itertools.product(*(roots[s] for s in d.arity)):
                t = App(d, combo)
                if t not in universe:
                    new.add(t)
        if not new:
            return state, sorted(universe, key=term_key)
        universe |= new
    offending = sorted(new, key=term_key)[0]
    return Unbounded(offending.sort)


def build_term_model(theory: GroundTheory, depth_bound: int = 8
                     ) -> Union[FiniteModel, Unbounded]:
    """The quotient of the ground terms by the congruence generated by the
    theory, with transitions given by derivable transition atoms."""
    grown = _saturated_universe(theory, depth_bound)
    if isinstance(grown, Unbounded):
        return grown
    state, universe = grown
    roots = {s: sorted((min(cls, key=term_key)
                        for cls in state.classes().get(s, [])), key=term_key)
             for s in theory.signature.sorts}
    carrier = {s: tuple(str(t) for t in ts) for s, ts in roots.items()}
    rep = {t: str(state.find(t)) for t in universe}
    func_table: dict[FuncDecl, dict] = {}
    for d in theory.signature.funcs:
        table = {}
        for combo in itertools.product(*(roots[s] for s in d.arity)):
            table[tuple(str(t) for t in combo)] = rep[App(d, combo)]
        func_table[d] = table
    label_rel = {}
    for l in theory.signature.labels:
        pairs = state.trans.get(l, set())
        label_rel[l] = frozenset((s, str(a), str(b)) for (s, a, b) in pairs)
    return FiniteModel(theory.signature, carrier, func_table, label_rel)


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
    term_model = build_term_model(theory, depth_bound)
    if isinstance(term_model, Unbounded):
        return None
    grown = _saturated_universe(theory, depth_bound)
    assert not isinstance(grown, Unbounded)
    state, universe = grown
    h: dict[str, object] = {}
    for t in universe:
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
