"""Finite models, reducts, relational action semantics and satisfaction.

Models are immutable. The public constructor validates a model; the
enumerator builds its candidates total and monotone, and so skips that
check. Carriers may be empty; the existential clause over an empty-sorted
variable set is false, which is exactly what makes the classic
unsound-deduction counterexample work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .syntax import (Action, Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                     Pow, Seq, Sentence, Signature, SignatureMorphism, Star,
                     SyntaxError_, Term, Trans, Var, Variable, binder_order,
                     sentence_labels)


class ModelError(ValueError):
    """Raised when a model violates its signature's invariants."""


class EnumerationCeiling(RuntimeError):
    def __init__(self, estimate: int, ceiling: int):
        super().__init__(f"estimated {estimate} models exceeds ceiling {ceiling}")
        self.estimate = estimate
        self.ceiling = ceiling


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
        # not fields, so that equality and printing ignore them: each
        # label's pairs by sort, and the relations of actions per
        # (action, sort)
        object.__setattr__(self, "_pairs", {
            l: _pairs_by_sort((s, (a, b)) for s, a, b in rel)
            for l, rel in self.label_rel.items()})
        object.__setattr__(self, "_relations", {})

    @classmethod
    def _unchecked(cls, sig: Signature, carrier: dict, func_table: dict,
                   label_rel: dict, pairs: dict) -> FiniteModel:
        """A model whose tables are total and whose relations are monotone
        by construction. `pairs` holds each label's pairs by sort, which is
        all that satisfaction reads, so `label_rel` may stay empty in a model
        that is only tested. Nothing is copied or validated, so the caller
        changes none of the arguments."""
        m = object.__new__(cls)
        vars(m).update(signature=sig, carrier=carrier, func_table=func_table,
                       label_rel=label_rel, _pairs=pairs, _relations={})
        return m

    def _validate(self):
        sig = self.signature
        for s in sig.sorts:
            if s not in self.carrier:
                raise ModelError(f"missing carrier for sort {s!r}")
        for d in sig.funcs:
            table = self.func_table.get(d)
            if table is None:
                raise ModelError(f"missing interpretation of {d}")
            for args in itertools.product(*(self.carrier[s] for s in d.arity)):
                if args not in table:
                    raise ModelError(f"{d.name} is not total: missing {args}")
                if table[args] not in self.carrier[d.result]:
                    raise ModelError(f"{d.name}{args} lands outside carrier")
        for l in sig.labels:
            rel = self.label_rel.get(l, frozenset())
            for (s, a, b) in rel:
                if s not in sig.sorts or a not in self.carrier[s] or b not in self.carrier[s]:
                    raise ModelError(f"relation {l} contains a pair off-carrier: {(s, a, b)}")
            failure = monotonicity_failure(sig, self.carrier, self.func_table,
                                           rel)
            if failure:
                raise ModelError(f"{failure} under {l}")

    def rel_at(self, label: str, sort: str) -> frozenset:
        return self._pairs.get(label, {}).get(sort, frozenset())


def _pairs_by_sort(items) -> dict:
    """The pairs of the (sort, pair) items, by sort."""
    by_sort: dict = {}
    for s, pair in items:
        by_sort.setdefault(s, set()).add(pair)
    return {s: frozenset(ps) for s, ps in by_sort.items()}


def _triples(by_sort: dict) -> frozenset:
    """The (sort, a, b) triples of pairs by sort."""
    return frozenset((s, a, b) for s, ps in by_sort.items() for a, b in ps)


def monotonicity_failure(sig: Signature, carrier: Mapping[str, tuple],
                         func_table: Mapping, rel) -> Optional[str]:
    """Where a monotonic operation first fails to carry a step of the label
    relation `rel` (triples (sort, a, b)) to a step of `rel`; None when no
    operation fails at any argument tuple and position."""
    for d in sig.mono:
        table = func_table[d]
        for args in itertools.product(*(carrier[s] for s in d.arity)):
            for k, sk in enumerate(d.arity):
                for (s, a, b) in rel:
                    if s != sk or a != args[k]:
                        continue
                    swapped = args[:k] + (b,) + args[k + 1:]
                    if (d.result, table[args], table[swapped]) not in rel:
                        return (f"monotonicity of {d.name} fails at {args} "
                                f"position {k}")
    return None


def identity_relation(m: FiniteModel, sort: str) -> frozenset:
    return frozenset((e, e) for e in m.carrier[sort])


def compose_relations(r1: frozenset, r2: frozenset, middle=None) -> frozenset:
    """r1 ; r2, passing only through the elements of `middle` when given."""
    by_src: dict = {}
    for (a, b) in r2:
        if middle is None or a in middle:
            by_src.setdefault(a, []).append(b)
    return frozenset((a, c) for (a, b) in r1 for c in by_src.get(b, ()))


def star_relation(rel: frozenset, identity: frozenset, middle=None,
                  rounds: Optional[int] = None) -> frozenset:
    """identity ∪ rel ∪ rel² ∪ … ∪ rel^rounds (every power when rounds is
    None), composed through `middle` only when it is given. Semi-naive: each
    round composes rel only with the pairs that the round before found new."""
    reached, new, n = set(rel), rel, 1
    while new and n != rounds:
        new = compose_relations(rel, new, middle) - reached
        reached |= new
        n += 1
    return frozenset(reached | identity)


def reflexive_transitive_closure(rel: frozenset, domain: Iterable) -> frozenset:
    return star_relation(rel, frozenset((e, e) for e in domain))


def action_relation(a: Action, sort: str, memo: dict, base: Callable,
                    closure: Callable, middle=None) -> frozenset:
    """The relation that `a` denotes over `sort`, memoized in `memo`:
    base(label, sort) gives a label's pairs, closure(rel, sort) iterates a
    star's body, and compositions pass through `middle` only when given."""
    rel = memo.get((a, sort))
    if rel is None:
        if isinstance(a, Lbl):
            rel = base(a.name, sort)
        elif isinstance(a, (Seq, Alt)):
            left = action_relation(a.left, sort, memo, base, closure, middle)
            right = action_relation(a.right, sort, memo, base, closure, middle)
            rel = (compose_relations(left, right, middle)
                   if isinstance(a, Seq) else left | right)
        elif isinstance(a, Star):
            body = action_relation(a.body, sort, memo, base, closure, middle)
            rel = closure(body, sort)
        else:
            raise SyntaxError_(f"cannot interpret symbolic power {a}")
        memo[a, sort] = rel
    return rel


def interpret_term(m: FiniteModel, t: Term,
                   env: Optional[Mapping[Variable, object]] = None):
    if isinstance(t, Var):
        if env is None or t.var not in env:
            raise SyntaxError_(f"unbound variable {t.var.name!r}")
        return env[t.var]
    return m.func_table[t.decl][tuple(interpret_term(m, a, env) for a in t.args)]


def interpret_action(m: FiniteModel, a: Action, sort: str) -> frozenset:
    return action_relation(
        a, sort, m._relations, m.rel_at,
        lambda rel, s: reflexive_transitive_closure(rel, m.carrier[s]))


def satisfies(m: FiniteModel, phi: Sentence,
              env: Optional[Mapping[Variable, object]] = None) -> bool:
    """Whether m satisfies phi, reading phi's free variables from env.
    phi is compiled on first use into closures kept on it (see _compile)."""
    compiled = getattr(phi, "_compiled", None)
    if compiled is None:
        compiled = _compile(phi)
        object.__setattr__(phi, "_compiled", compiled)
    run, blank = compiled
    return run(m, [env, *blank])


def _compile(phi: Sentence) -> tuple:
    """(run, blank): run(m, frame) evaluates phi in m. A frame is made per
    call: slot 0 holds env, then one slot per bound variable, written by its
    binder, and one per transition atom, filled with its relation in m when
    first needed; blank holds their Nones. Evaluation goes in the order of a
    recursive walk, so the first error raised is the same."""
    size = [1]
    return _closure(phi, {}, size), (None,) * (size[0] - 1)


def _closure(x, scope: dict, size: list):
    """run(m, frame) for the sentence or term x; scope gives the slots of the
    variables bound around x, size[0] the next free slot. Nested functions
    that call themselves would leave a garbage cycle per compiled sentence."""
    if isinstance(x, Var):
        k = scope.get(x.var)
        if k is None:                           # free: read from env
            return lambda m, f: interpret_term(m, x, f[0])
        return lambda m, f: f[k]
    if isinstance(x, App):
        d, args = x.decl, [_closure(a, scope, size) for a in x.args]
        if len(args) == 1:
            a, = args
            return lambda m, f: m.func_table[d][(a(m, f),)]
        return lambda m, f: m.func_table[d][tuple([a(m, f) for a in args])]
    if isinstance(x, (Eq, Trans)):
        left, right = (_closure(y, scope, size) for y in (x.left, x.right))
        if isinstance(x, Eq):
            return lambda m, f: left(m, f) == right(m, f)
        action, sort, k = x.action, x.sort, size[0]
        size[0] += 1

        def trans(m, f):
            pair = (left(m, f), right(m, f))
            rel = f[k]
            if rel is None:
                rel = f[k] = interpret_action(m, action, sort)
            return pair in rel
        return trans
    if isinstance(x, Neg):
        body = _closure(x.body, scope, size)
        return lambda m, f: not body(m, f)
    if isinstance(x, Disj):
        items = [_closure(s, scope, size) for s in x.items]

        def disj(m, f):
            for item in items:
                if item(m, f):
                    return True
            return False
        return disj
    xs = binder_order(x.variables)
    lo = size[0]
    size[0] = hi = lo + len(xs)
    body = _closure(x.body, {**scope, **dict(zip(xs, range(lo, hi)))}, size)
    if len(xs) == 1:
        def exists_one(m, f):
            for f[lo] in m.carrier[xs[0].sort]:
                if body(m, f):
                    return True
            return False
        return exists_one

    def exists(m, f):
        for f[lo:hi] in itertools.product(*[m.carrier[v.sort] for v in xs]):
            if body(m, f):
                return True
        return False
    return exists


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


def _relations(sorts: list, carrier: dict) -> list:
    """Every relation over the carrier, in the order of
    itertools.combinations over its (sort, a, b) triples, fewest first: as
    (bits, mask, pairs by sort), bit i standing for triple i."""
    items = [(s, (a, b)) for s in sorts for a in carrier[s] for b in carrier[s]]
    return [(bits, sum(1 << i for i in bits),
             _pairs_by_sort(items[i] for i in bits))
            for r in range(len(items) + 1)
            for bits in itertools.combinations(range(len(items)), r)]


def _monotone_relations(sig: Signature, carrier: dict, func_table: dict,
                        relations: list) -> list:
    """The pairs by sort of those `relations` that the monotonic operations
    carry to themselves. The index `needs` maps each triple (s, a, b) to the
    triples that the operations require with it; a relation is closed
    exactly when it holds the needs of each of its own triples."""
    sorts = sorted(sig.sorts)
    bit = {t: i for i, t in enumerate(
        (s, a, b) for s in sorts for a in carrier[s] for b in carrier[s])}
    needs = [0] * len(bit)
    for d in sig.mono:
        table = func_table[d]
        for args, value in table.items():
            for k, sk in enumerate(d.arity):
                for b in carrier[sk]:
                    swapped = table[args[:k] + (b,) + args[k + 1:]]
                    needs[bit[sk, args[k], b]] |= 1 << bit[d.result, value,
                                                           swapped]
    out = []
    for bits, mask, pairs in relations:
        need = 0
        for i in bits:
            need |= needs[i]
        if need | mask == mask:
            out.append(pairs)
    return out


def _symbolic_power(x) -> Optional[Pow]:
    """The first symbolic power that interpreting the sentence or action x
    meets, if any."""
    if isinstance(x, Pow):
        return x
    if isinstance(x, Trans):
        return _symbolic_power(x.action)
    if isinstance(x, (Neg, Exists, Star)):
        return _symbolic_power(x.body)
    if isinstance(x, (Seq, Alt)):
        return _symbolic_power(x.left) or _symbolic_power(x.right)
    if isinstance(x, Disj):
        return next(filter(None, map(_symbolic_power, x.items)), None)
    return None


def _search(sig: Signature, max_size, demands: list,
            ceiling: int) -> Iterator[FiniteModel]:
    """The models of enumerate_models, in its order, in which each
    (sentence, truth) of `demands` has that truth; none of them validated.

    A sentence depends only on the carriers, the tables and the relations of
    the labels it mentions, so it is evaluated at the first stage that fixes
    them all: once the tables are chosen, or once the relation of its last
    label in sorted order is. A prefix that fails a demand is skipped with
    every model under it."""
    estimate = estimate_model_count(sig, max_size)
    if estimate > ceiling:
        raise EnumerationCeiling(estimate, ceiling)
    for phi, _ in demands:
        power = _symbolic_power(phi)
        if power is not None:
            raise SyntaxError_(f"cannot interpret symbolic power {power}")
    bounds = _sizes(sig, max_size)
    sorts = sorted(sig.sorts)
    decls = sorted(sig.funcs)
    labels = sorted(sig.labels)
    # a demand without labels is tested once the tables are chosen; one on
    # a single label narrows that label's choices, once per table choice; one
    # on several labels is tested once its last label is chosen
    at_tables: list = []
    alone: list = [[] for _ in labels]
    joint: list = [[] for _ in labels]
    position = {l: i for i, l in enumerate(labels)}
    for phi, truth in demands:
        mentioned = sorted(position[l] for l in sentence_labels(phi)
                           if l in position)
        if not mentioned:
            at_tables.append((phi, truth))
        elif mentioned[0] == mentioned[-1]:
            alone[mentioned[0]].append((phi, truth))
        else:
            joint[mentioned[-1]].append((phi, truth))

    def passes(m: FiniteModel, tests: list) -> bool:
        return all(satisfies(m, phi) == truth for phi, truth in tests)

    for vector in itertools.product(*(range(bounds[s] + 1) for s in sorts)):
        carrier = {s: tuple(range(k)) for s, k in zip(sorts, vector)}
        domains = [list(itertools.product(*(carrier[s] for s in d.arity)))
                   for d in decls]
        # a constant's domain holds the one empty argument tuple
        if any(dom and not carrier[d.result] for d, dom in zip(decls, domains)):
            continue
        table_choices = []
        for d, dom in zip(decls, domains):
            values = list(itertools.product(carrier[d.result], repeat=len(dom)))
            table_choices.append([dict(zip(dom, vs)) for vs in values] or [{}])
        relations = None     # built at the first table choice that needs them
        for tables in itertools.product(*table_choices):
            func_table = dict(zip(decls, tables))
            m = FiniteModel._unchecked(sig, carrier, func_table, {}, {})
            if not passes(m, at_tables):
                continue
            if not labels:
                yield m
                continue
            if relations is None:
                relations = _relations(sorts, carrier)
            # monotonicity constrains each label on its own, the same way
            monotone = _monotone_relations(sig, carrier, func_table, relations)
            choices = [[pairs for pairs in monotone if passes(
                FiniteModel._unchecked(sig, carrier, func_table, {},
                                       {label: pairs}), tests)]
                       if tests else monotone
                       for label, tests in zip(labels, alone)]

            def extend(i: int, by_label: dict):
                label = labels[i]
                for pairs in choices[i]:
                    chosen = {**by_label, label: pairs}
                    m = FiniteModel._unchecked(sig, carrier, func_table, {},
                                               chosen)
                    if not passes(m, joint[i]):
                        continue
                    if i + 1 < len(labels):
                        yield from extend(i + 1, chosen)
                    else:    # label_rel's triples only for a yielded model
                        yield FiniteModel._unchecked(
                            sig, carrier, func_table,
                            {l: _triples(p) for l, p in chosen.items()},
                            chosen)

            yield from extend(0, {})


def enumerate_models(sig: Signature, max_size,
                     ceiling: int = DEFAULT_CEILING) -> Iterator[FiniteModel]:
    """All models over canonical carriers {0..k-1} with per-sort sizes up to
    the bound, empty carriers included: carrier sizes in order, then the
    tables of the sorted declarations, then one relation per sorted label,
    each ranging over the relations that the monotonic operations carry to
    themselves. The models are built total and monotone, so they skip the
    public constructor's validation."""
    return _search(sig, max_size, [], ceiling)


def find_model(sig: Signature, max_size, demands: Iterable[tuple],
               ceiling: int = DEFAULT_CEILING) -> Optional[FiniteModel]:
    """The first model of enumerate_models in which each (sentence, truth)
    of `demands` has that truth, validated by the public constructor; None
    when there is none up to the bound."""
    for m in _search(sig, max_size, list(demands), ceiling):
        return FiniteModel(sig, m.carrier, m.func_table, m.label_rel)
    return None


def find_countermodel(gamma: Iterable[Sentence], phi: Sentence, max_size,
                      sig: Signature, ceiling: int = DEFAULT_CEILING
                      ) -> Optional[FiniteModel]:
    return find_model(sig, max_size,
                      [(g, True) for g in gamma] + [(phi, False)], ceiling)


def semantic_entails_bounded(gamma: Iterable[Sentence], phi: Sentence, max_size,
                             sig: Signature, ceiling: int = DEFAULT_CEILING) -> bool:
    """Refutation oracle: False exhibits a countermodel; True is evidence only."""
    return find_countermodel(gamma, phi, max_size, sig, ceiling) is None
