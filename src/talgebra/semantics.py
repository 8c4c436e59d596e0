"""Finite models, reducts, relational action semantics and satisfaction.

Models are immutable after validated construction.  Carriers may be empty;
the existential clause over an empty-sorted variable set is false, which is
exactly what makes the classic unsound-deduction counterexample work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .syntax import (Action, Alt, Disj, Eq, Exists, FuncDecl, Lbl, Neg, Seq,
                     Sentence, Signature, SignatureMorphism, Star, SyntaxError_,
                     Term, Trans, Var, Variable)


class ModelError(ValueError):
    """Raised when a model violates its signature's invariants."""


class EnumerationCeiling(RuntimeError):
    def __init__(self, estimate: int, ceiling: int):
        super().__init__(f"estimated {estimate} models exceeds ceiling {ceiling}")
        self.estimate = estimate
        self.ceiling = ceiling


Pair = tuple[object, object]


@dataclass(frozen=True)
class FiniteModel:
    signature: Signature
    carrier: Mapping[str, tuple]                  # sort -> elements
    func_table: Mapping[FuncDecl, Mapping[tuple, object]]
    label_rel: Mapping[str, frozenset]            # label -> {(sort, a, b)}

    def __post_init__(self):
        object.__setattr__(self, "carrier",
                           {s: tuple(es) for s, es in self.carrier.items()})
        object.__setattr__(self, "func_table",
                           {d: dict(t) for d, t in self.func_table.items()})
        object.__setattr__(self, "label_rel",
                           {l: frozenset(ps) for l, ps in self.label_rel.items()})
        self._validate()

    def _validate(self):
        sig = self.signature
        for s in sig.sorts:
            if s not in self.carrier:
                raise ModelError(f"missing carrier for sort {s!r}")
        for d in sig.funcs:
            table = self.func_table.get(d)
            if table is None:
                raise ModelError(f"missing interpretation of {d}")
            domain = list(itertools.product(*(self.carrier[s] for s in d.arity)))
            for args in domain:
                if args not in table:
                    raise ModelError(f"{d.name} is not total: missing {args}")
                if table[args] not in self.carrier[d.result]:
                    raise ModelError(f"{d.name}{args} lands outside carrier")
        for l in sig.labels:
            rel = self.label_rel.get(l, frozenset())
            for (s, a, b) in rel:
                if s not in sig.sorts or a not in self.carrier[s] or b not in self.carrier[s]:
                    raise ModelError(f"relation {l} contains a pair off-carrier: {(s, a, b)}")
        self._check_monotonicity()

    def _check_monotonicity(self):
        # Exhaustive: every monotonic symbol must propagate every labelled step
        # through every argument position.
        for d in self.signature.mono:
            table = self.func_table[d]
            for l in self.signature.labels:
                rel = self.label_rel.get(l, frozenset())
                for args in itertools.product(*(self.carrier[s] for s in d.arity)):
                    for k, sk in enumerate(d.arity):
                        for (s, a, b) in rel:
                            if s != sk or a != args[k]:
                                continue
                            swapped = args[:k] + (b,) + args[k + 1:]
                            lifted = (d.result, table[args], table[swapped])
                            if lifted not in rel:
                                raise ModelError(
                                    f"monotonicity of {d.name} fails at {args} "
                                    f"position {k} under {l}")

    def rel_at(self, label: str, sort: str) -> frozenset:
        return frozenset((a, b) for (s, a, b) in self.label_rel.get(label, frozenset())
                         if s == sort)


def identity_relation(m: FiniteModel, sort: str) -> frozenset:
    return frozenset((e, e) for e in m.carrier[sort])


def compose_relations(r1: frozenset, r2: frozenset) -> frozenset:
    by_src: dict = {}
    for (a, b) in r2:
        by_src.setdefault(a, []).append(b)
    return frozenset((a, c) for (a, b) in r1 for c in by_src.get(b, ()))


def reflexive_transitive_closure(rel: frozenset, domain: Iterable) -> frozenset:
    closure = set((e, e) for e in domain) | set(rel)
    while True:
        extra = compose_relations(frozenset(closure), frozenset(rel)) - closure
        if not extra:
            return frozenset(closure)
        closure |= extra


def interpret_term(m: FiniteModel, t: Term,
                   env: Optional[Mapping[Variable, object]] = None):
    if isinstance(t, Var):
        if env is None or t.var not in env:
            raise SyntaxError_(f"unbound variable {t.var.name!r}")
        return env[t.var]
    return m.func_table[t.decl][tuple(interpret_term(m, a, env) for a in t.args)]


def interpret_action(m: FiniteModel, a: Action, sort: str) -> frozenset:
    if isinstance(a, Lbl):
        return m.rel_at(a.name, sort)
    if isinstance(a, Seq):
        return compose_relations(interpret_action(m, a.left, sort),
                                 interpret_action(m, a.right, sort))
    if isinstance(a, Alt):
        return interpret_action(m, a.left, sort) | interpret_action(m, a.right, sort)
    if isinstance(a, Star):
        return reflexive_transitive_closure(
            interpret_action(m, a.body, sort), m.carrier[sort])
    raise SyntaxError_(f"cannot interpret symbolic power {a}")


def satisfies(m: FiniteModel, phi: Sentence,
              env: Optional[Mapping[Variable, object]] = None) -> bool:
    if isinstance(phi, Eq):
        return interpret_term(m, phi.left, env) == interpret_term(m, phi.right, env)
    if isinstance(phi, Trans):
        pair = (interpret_term(m, phi.left, env), interpret_term(m, phi.right, env))
        return pair in interpret_action(m, phi.action, phi.sort)
    if isinstance(phi, Neg):
        return not satisfies(m, phi.body, env)
    if isinstance(phi, Disj):
        return any(satisfies(m, s, env) for s in phi.items)
    assert isinstance(phi, Exists)
    xs = sorted(phi.variables, key=lambda v: (v.sort, v.name))
    pools = [m.carrier[x.sort] for x in xs]
    base = dict(env) if env else {}
    for combo in itertools.product(*pools):
        inner = dict(base)
        inner.update(zip(xs, combo))
        if satisfies(m, phi.body, inner):
            return True
    return False


def satisfies_all(m: FiniteModel, gamma: Iterable[Sentence]) -> bool:
    return all(satisfies(m, phi) for phi in gamma)


def reduct(chi: SignatureMorphism, m: FiniteModel) -> FiniteModel:
    if m.signature != chi.target:
        raise ModelError("model is not over the morphism's target")
    src = chi.source
    carrier = {s: m.carrier[chi.sort_map[s]] for s in src.sorts}
    table = {d: dict(m.func_table[chi.func_map[d]]) for d in src.funcs}
    rels = {}
    for l in src.labels:
        img = chi.label_map[l]
        pairs = set()
        for s in src.sorts:
            for (a, b) in m.rel_at(img, chi.sort_map[s]):
                pairs.add((s, a, b))
        rels[l] = frozenset(pairs)
    return FiniteModel(src, carrier, table, rels)


# ---------------------------------------------------------------------------
# Brute-force enumeration


DEFAULT_CEILING = 2_000_000


def _sizes(sig: Signature, max_size) -> dict[str, int]:
    if isinstance(max_size, int):
        return {s: max_size for s in sig.sorts}
    return dict(max_size)


def estimate_model_count(sig: Signature, max_size) -> int:
    bounds = _sizes(sig, max_size)
    sorts = sorted(sig.sorts)
    total = 0
    for vector in itertools.product(*(range(bounds[s] + 1) for s in sorts)):
        size = dict(zip(sorts, vector))
        n = 1
        for d in sig.funcs:
            dom = 1
            for s in d.arity:
                dom *= size[s]
            # its tables: none into an empty sort, one from an empty domain
            n *= size[d.result] ** dom
        pairs = sum(size[s] ** 2 for s in sig.sorts)
        total += n * (2 ** pairs) ** len(sig.labels)
    return total


def enumerate_models(sig: Signature, max_size,
                     ceiling: int = DEFAULT_CEILING) -> Iterator[FiniteModel]:
    """All models over canonical carriers {0..k-1} with per-sort sizes up to
    the bound, empty carriers included, monotonicity-violating relation
    assignments skipped."""
    estimate = estimate_model_count(sig, max_size)
    if estimate > ceiling:
        raise EnumerationCeiling(estimate, ceiling)
    bounds = _sizes(sig, max_size)
    sorts = sorted(sig.sorts)
    decls = sorted(sig.funcs)
    labels = sorted(sig.labels)
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
        all_pairs = [(s, a, b) for s in sorts
                     for a in carrier[s] for b in carrier[s]]
        rel_choices = []
        for _ in labels:
            rel_choices.append([frozenset(c) for r in range(len(all_pairs) + 1)
                                for c in itertools.combinations(all_pairs, r)])
        for tables in itertools.product(*table_choices):
            func_table = dict(zip(decls, tables))
            for rels in itertools.product(*rel_choices) if labels else [()]:
                label_rel = dict(zip(labels, rels))
                try:
                    yield FiniteModel(sig, carrier, func_table, label_rel)
                except ModelError:
                    continue


def find_countermodel(gamma: Iterable[Sentence], phi: Sentence, max_size,
                      sig: Signature, ceiling: int = DEFAULT_CEILING
                      ) -> Optional[FiniteModel]:
    gamma = list(gamma)
    for m in enumerate_models(sig, max_size, ceiling):
        if satisfies_all(m, gamma) and not satisfies(m, phi):
            return m
    return None


def semantic_entails_bounded(gamma: Iterable[Sentence], phi: Sentence, max_size,
                             sig: Signature, ceiling: int = DEFAULT_CEILING) -> bool:
    """Refutation oracle: False exhibits a countermodel; True is evidence only."""
    return find_countermodel(gamma, phi, max_size, sig, ceiling) is None
