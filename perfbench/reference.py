"""Independent answers the benchmark checks talgebra's outputs against.

Nothing here calls talgebra's semantics, basic, calculus, ccs or forcing
code. Sentences and terms are talgebra.syntax objects, read only by their
shape; models are plain dictionaries, either parsed from `.tam` text here or
copied field by field from a model object.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from talgebra.syntax import (Alt, Disj, Eq, Exists, Lbl, Neg, Seq, Star, Trans,
                             Var)


# ---------------------------------------------------------------------------
# Ground entailment: a naive fixpoint of rules R, S, T, F, P and M


def subterms(t, out):
    """Add t and all its subterms to the set out."""
    out.add(t)
    for a in t.args:
        subterms(a, out)


def ground_closure(atoms, extra_terms=(), mono=frozenset()):
    """Close ground atoms under R, S, T, F, P and M over their subterm
    universe. Returns (universe, eq, trans): eq maps each term to the set of
    terms proved equal to it, trans is a set of (label, t, u)."""
    universe = set()
    for phi in atoms:
        subterms(phi.left, universe)
        subterms(phi.right, universe)
    for t in extra_terms:
        subterms(t, universe)
    eq = {t: {t} for t in universe}                                   # R
    trans = set()
    for phi in atoms:
        if isinstance(phi, Eq):
            eq[phi.left].add(phi.right)
        else:
            trans.add((phi.action.name, phi.left, phi.right))
    apps = {}
    for t in universe:
        if t.args:
            apps.setdefault(t.decl, []).append(t)
    changed = True
    while changed:
        changed = False
        for t in universe:                                            # S
            for u in list(eq[t]):
                if t not in eq[u]:
                    eq[u].add(t)
                    changed = True
        for t in universe:                                            # T
            reach = set()
            for u in eq[t]:
                reach |= eq[u]
            if not reach <= eq[t]:
                eq[t] |= reach
                changed = True
        for decl, terms in apps.items():                              # F
            for v, w in itertools.product(terms, terms):
                if w not in eq[v] and all(y in eq[x] for x, y
                                          in zip(v.args, w.args)):
                    eq[v].add(w)
                    changed = True
        for (l, t, u) in list(trans):                                 # P
            for t2 in eq[t]:
                for u2 in eq[u]:
                    if (l, t2, u2) not in trans:
                        trans.add((l, t2, u2))
                        changed = True
        labels = {l for (l, _, _) in trans}
        for decl, terms in apps.items():                              # M
            if decl not in mono:
                continue
            for v, w in itertools.product(terms, terms):
                for l in labels:
                    if (l, v, w) in trans:
                        continue
                    for k in range(len(v.args)):
                        if (l, v.args[k], w.args[k]) in trans and all(
                                w.args[i] in eq[v.args[i]]
                                for i in range(len(v.args)) if i != k):
                            trans.add((l, v, w))
                            changed = True
                            break
    return universe, eq, trans


def ground_entails(atoms, goal, mono=frozenset()) -> bool:
    """Whether the ground atom `goal` follows from the ground `atoms`."""
    _, eq, trans = ground_closure(atoms, (goal.left, goal.right), mono)
    if isinstance(goal, Eq):
        return goal.right in eq[goal.left]
    return (goal.action.name, goal.left, goal.right) in trans


# ---------------------------------------------------------------------------
# Finite models and sentences


@dataclass
class Model:
    """carrier: sort -> elements; funcs: name -> {args tuple: element};
    rels: label -> {(sort, a, b)}."""
    carrier: dict
    funcs: dict = field(default_factory=dict)
    rels: dict = field(default_factory=dict)


def model_of(m) -> Model:
    """Copy a talgebra FiniteModel's fields into a plain Model."""
    return Model({s: list(es) for s, es in m.carrier.items()},
                 {d.name: dict(t) for d, t in m.func_table.items()},
                 {l: set(ps) for l, ps in m.label_rel.items()})


def parse_tam(text: str) -> Model:
    """Read the `.tam` model format (carrier, fun and rel lines)."""
    model = Model({})
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line == "model":
            continue
        head, _, rest = line.partition(" ")
        lhs, _, rhs = rest.partition("=")
        lhs, rhs = lhs.strip(), rhs.strip()
        if head == "carrier":
            model.carrier[lhs] = [e.strip() for e in rhs.split(",")
                                  if e.strip()]
        elif head == "fun":
            name, _, args = lhs.partition("(")
            key = tuple(a.strip() for a in args.rstrip(")").split(",")
                        if a.strip())
            model.funcs.setdefault(name.strip(), {})[key] = rhs
        elif head == "rel":
            label, sort = lhs.split()
            pairs = model.rels.setdefault(label, set())
            for chunk in rhs.split(")"):
                chunk = chunk.strip(" ,(")
                if chunk:
                    a, b = (x.strip() for x in chunk.split(","))
                    pairs.add((sort, a, b))
        else:
            raise ValueError(f"unknown .tam line: {raw!r}")
    return model


def eval_term(model: Model, t, env):
    if isinstance(t, Var):
        return env[t.var]
    return model.funcs[t.decl.name][tuple(eval_term(model, a, env)
                                          for a in t.args)]


def _reach(pairs, domain):
    """Reflexive-transitive closure by breadth-first search from each
    element."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    out = set()
    for start in domain:
        seen = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        out.update((start, y) for y in seen)
    return out


def eval_action(model: Model, a, sort: str, memo=None) -> set:
    memo = {} if memo is None else memo
    key = (a, sort)
    if key not in memo:
        if isinstance(a, Lbl):
            rel = {(x, y) for (s, x, y) in model.rels.get(a.name, ())
                   if s == sort}
        elif isinstance(a, Seq):
            right = eval_action(model, a.right, sort, memo)
            rel = {(x, z) for (x, y) in eval_action(model, a.left, sort, memo)
                   for (y2, z) in right if y == y2}
        elif isinstance(a, Alt):
            rel = (eval_action(model, a.left, sort, memo)
                   | eval_action(model, a.right, sort, memo))
        elif isinstance(a, Star):
            rel = _reach(eval_action(model, a.body, sort, memo),
                         model.carrier.get(sort, ()))
        else:
            raise ValueError(f"cannot evaluate action {a}")
        memo[key] = rel
    return memo[key]


def holds(model: Model, phi, env=None, memo=None) -> bool:
    """Satisfaction of a sentence in a finite model."""
    env = {} if env is None else env
    memo = {} if memo is None else memo
    if isinstance(phi, Eq):
        return eval_term(model, phi.left, env) == eval_term(model, phi.right,
                                                            env)
    if isinstance(phi, Trans):
        pair = (eval_term(model, phi.left, env),
                eval_term(model, phi.right, env))
        return pair in eval_action(model, phi.action, phi.left.sort, memo)
    if isinstance(phi, Neg):
        return not holds(model, phi.body, env, memo)
    if isinstance(phi, Disj):
        return any(holds(model, s, env, memo) for s in phi.items)
    assert isinstance(phi, Exists)
    xs = list(phi.variables)
    for combo in itertools.product(*(model.carrier.get(x.sort, ())
                                     for x in xs)):
        if holds(model, phi.body, {**env, **dict(zip(xs, combo))}, memo):
            return True
    return False


# ---------------------------------------------------------------------------
# Graph verdicts


def reachable(edges, start) -> set:
    """The elements reachable from start, start included."""
    return {y for _, y in _reach(edges, [start])}


def is_single_cycle(n: int, edges) -> bool:
    """Every element has exactly one successor and one predecessor, and all
    elements lie on one cycle: the models of the finiteness sentence."""
    edges = set(edges)
    outs = [0] * n
    ins = [0] * n
    for a, b in edges:
        outs[a] += 1
        ins[b] += 1
    if any(k != 1 for k in outs + ins):
        return False
    return n == 0 or len(reachable(edges, 0)) == n


# ---------------------------------------------------------------------------
# Forcing over a finite order of conditions


@dataclass
class Condition:
    """One condition of a forcing fixture: its pool of constants, its
    equation pairs and its labelled transition triples, all by name."""
    name: str
    parents: tuple
    constants: tuple
    eqs: frozenset            # {(t, u)}
    steps: frozenset          # {(label, t, u)}


def conditions_above(conds: dict, p: str) -> list:
    """p and every condition that has p as an ancestor."""
    def ancestors(q):
        out = {q}
        for r in conds[q].parents:
            out |= ancestors(r)
        return out
    return [q for q in conds if p in ancestors(q)]


def _force_action(cond: Condition, a, memo) -> set:
    if a in memo:
        return memo[a]
    if isinstance(a, Lbl):
        rel = {(t, u) for (l, t, u) in cond.steps if l == a.name}
    elif isinstance(a, Seq):
        right = _force_action(cond, a.right, memo)
        pool = set(cond.constants)
        rel = {(t, v) for (t, m) in _force_action(cond, a.left, memo)
               if m in pool for (m2, v) in right if m2 == m}
    elif isinstance(a, Alt):
        rel = _force_action(cond, a.left, memo) | _force_action(cond,
                                                                a.right, memo)
    elif isinstance(a, Star):
        # a^0 is an equation atom; a^n (n >= 1) is a path of body steps whose
        # intermediate terms come from the pool
        body = _force_action(cond, a.body, memo)
        star = _reach(body, cond.constants)
        rel = set(cond.eqs) | {(t, u) for (t, m) in body
                               for (m2, u) in star if m2 == m}
    else:
        raise ValueError(f"cannot force action {a}")
    memo[a] = rel
    return rel


def forces_positive(cond: Condition, phi, env=None, memo=None) -> bool:
    """cond forces phi, for phi built from atoms, composite actions, Disj and
    Exists (no negation): evaluation in the structure of cond's atoms over
    its pool of constants."""
    env = {} if env is None else env
    memo = {} if memo is None else memo

    def name(t):
        return env[t.var] if isinstance(t, Var) else str(t)

    if isinstance(phi, Eq):
        return (name(phi.left), name(phi.right)) in cond.eqs
    if isinstance(phi, Trans):
        return (name(phi.left), name(phi.right)) in _force_action(
            cond, phi.action, memo)
    if isinstance(phi, Disj):
        return any(forces_positive(cond, s, env, memo) for s in phi.items)
    if isinstance(phi, Exists):
        xs = list(phi.variables)
        return any(forces_positive(cond, phi.body,
                                   {**env, **dict(zip(xs, combo))}, memo)
                   for combo in itertools.product(cond.constants,
                                                  repeat=len(xs)))
    raise ValueError(f"not a positive sentence: {phi}")


def weakly_forces(conds: dict, p: str, phi) -> bool:
    """p weakly forces phi iff every q above p has some r above q forcing
    phi."""
    return all(any(forces_positive(conds[r], phi)
                   for r in conditions_above(conds, q))
               for q in conditions_above(conds, p))


# ---------------------------------------------------------------------------
# CCS search


def search_pair_count(depth: int) -> int:
    """(word, derivative) pairs of P ::= a.P + b.P from P | Q with
    Q ::= a.Q: every word over {a, b} of length 1..depth, one derivative
    each."""
    return 2 ** (depth + 1) - 2
