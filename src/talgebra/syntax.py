"""Syntax layer: signatures, morphisms, terms, actions, sentences, substitutions.

All values here are immutable after construction and safe to share. Sentence
equality is canonical: bound variables are renamed in a fixed binding order
before comparison, disjunctions are kept as duplicate-free ordered tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Union


class SyntaxError_(ValueError):
    """Raised on ill-formed syntax (bad sorts, collisions, arity mismatches)."""


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True, order=True)
class FuncDecl:
    name: str
    arity: tuple[str, ...]
    result: str

    @property
    def is_constant(self) -> bool:
        return not self.arity

    def __str__(self):
        if self.is_constant:
            return f"{self.name} : -> {self.result}"
        return f"{self.name} : {' '.join(self.arity)} -> {self.result}"


@dataclass(frozen=True)
class Signature:
    sorts: frozenset[str]
    funcs: frozenset[FuncDecl]
    mono: frozenset[FuncDecl] = frozenset()
    labels: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.mono <= self.funcs:
            bad = sorted(d.name for d in self.mono - self.funcs)
            raise SyntaxError_(f"monotonic symbols not declared: {bad}")
        for d in self.funcs:
            for s in (*d.arity, d.result):
                if s not in self.sorts:
                    raise SyntaxError_(f"declaration {d} uses unknown sort {s!r}")

    @staticmethod
    def make(sorts: Iterable[str], funcs: Iterable[FuncDecl] = (),
             mono: Iterable[FuncDecl] = (), labels: Iterable[str] = ()) -> "Signature":
        return Signature(frozenset(sorts), frozenset(funcs),
                         frozenset(mono), frozenset(labels))

    def constants(self, sort: Optional[str] = None) -> set[FuncDecl]:
        return {d for d in self.funcs
                if d.is_constant and (sort is None or d.result == sort)}

    def decls_named(self, name: str) -> tuple[FuncDecl, ...]:
        """The declarations named name, sorted; indexed on the first call."""
        index = self.__dict__.get("_by_name")
        if index is None:
            index = {n: tuple(ds) for n, ds in itertools.groupby(
                sorted(self.funcs), key=lambda d: d.name)}
            object.__setattr__(self, "_by_name", index)
        return index.get(name, ())

    def includes(self, other: "Signature") -> bool:
        return (other.sorts <= self.sorts and other.funcs <= self.funcs
                and other.mono <= self.mono and other.labels <= self.labels)

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.sorts | other.sorts, self.funcs | other.funcs,
                         self.mono | other.mono, self.labels | other.labels)

    def __le__(self, other: "Signature") -> bool:
        return other.includes(self)


# ---------------------------------------------------------------------------
# Variables

# A variable is a triple: name, sort and the signature it extends.  The tag
# keeps variables of nested quantifiers distinct from each other and from
# declared constants, so quantification works by literal signature extension.


@dataclass(frozen=True)
class Variable:
    name: str
    sort: str
    tag: Signature

    def __post_init__(self):
        if self.sort not in self.tag.sorts:
            raise SyntaxError_(
                f"variable {self.name!r} has undeclared sort {self.sort!r}")
        for d in self.tag.funcs:
            if d.is_constant and d.name == self.name and d.result == self.sort:
                raise SyntaxError_(
                    f"variable {self.name!r} collides with a constant of sort {self.sort}")

    def __repr__(self):
        return f"Variable({self.name!r}:{self.sort})"


def extend_signature(sig: Signature, variables: Iterable[Variable]) -> Signature:
    """Return sig[X]: each variable becomes a new constant of its sort."""
    new = set()
    for x in variables:
        decl = FuncDecl(x.name, (), x.sort)
        if decl in sig.funcs:
            raise SyntaxError_(
                f"cannot extend: constant {x.name!r} of sort {x.sort} already declared")
        if x.sort not in sig.sorts:
            raise SyntaxError_(f"variable {x.name!r} has unknown sort {x.sort!r}")
        new.add(decl)
    return Signature(sig.sorts, sig.funcs | new, sig.mono, sig.labels)


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()

    @property
    def sort(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Term):
    var: Variable

    @property
    def sort(self):
        return self.var.sort

    def __str__(self):
        return self.var.name


@dataclass(frozen=True)
class App(Term):
    decl: FuncDecl
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if len(self.args) != len(self.decl.arity):
            raise SyntaxError_(f"{self.decl.name}: expected {len(self.decl.arity)} "
                               f"arguments, got {len(self.args)}")
        for a, s in zip(self.args, self.decl.arity):
            if a.sort != s:
                raise SyntaxError_(
                    f"{self.decl.name}: argument of sort {a.sort}, expected {s}")

    @property
    def sort(self):
        return self.decl.result

    def __str__(self):
        if not self.args:
            return self.decl.name
        return f"{self.decl.name}({', '.join(map(str, self.args))})"


def const(decl: FuncDecl) -> App:
    return App(decl, ())


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def subterms(t: Term) -> set[Term]:
    out = {t}
    if isinstance(t, App):
        for a in t.args:
            out |= subterms(a)
    return out


def term_key(t: Term):
    """Total order on terms: size, then structure."""
    if isinstance(t, Var):
        return (0, 0, t.var.name, t.var.sort)
    keys = tuple(term_key(a) for a in t.args)
    return (1, 1 + sum(k[1] for k in keys), t.decl.name, t.decl.arity,
            t.decl.result, keys)


# ---------------------------------------------------------------------------
# Actions

# Exponents of the derived power form are either literal naturals or a
# symbolic index (used when checking infinitary premise families uniformly).


@dataclass(frozen=True)
class SymExp:
    name: str

    def __str__(self):
        return self.name


class Action:
    """An action node keeps its action_key and its hash in its own __dict__,
    built from its children's on first request; a power chain's nodes get
    theirs when they are made. Equality compares the keys, so none of the
    three walks the nodes that already hold theirs. The hash is the one the
    fields' tuple would give."""
    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Action):
            return NotImplemented
        return action_key(self) == action_key(other)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(tuple(getattr(self, f) for f in self.__match_args__))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class Lbl(Action):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Seq(Action):
    left: Action
    right: Action

    def __str__(self):
        return f"({self.left} ; {self.right})"


@dataclass(frozen=True, eq=False)
class Alt(Action):
    left: Action
    right: Action

    def __str__(self):
        return f"({self.left} | {self.right})"


@dataclass(frozen=True, eq=False)
class Star(Action):
    body: Action

    def __str__(self):
        return f"{self.body}*" if isinstance(self.body, Lbl) else f"({self.body})*"


@dataclass(frozen=True, eq=False)
class Pow(Action):
    """Symbolic power a^kappa; literal powers normalize away (see power)."""
    body: Action
    exp: SymExp

    def __str__(self):
        b = str(self.body) if isinstance(self.body, Lbl) else f"({self.body})"
        return f"{b}^{self.exp}"


def power(a: Action, n) -> Optional[Action]:
    """a^n as right-nested composition; None denotes the identity (n = 0).
    a^1 .. a^m are one chain held on a, extended as needed, so a^n is
    built once per body and each new node is keyed from its two children."""
    if isinstance(n, SymExp):
        return Pow(a, n)
    if n < 0:
        raise SyntaxError_("negative action power")
    if n == 0:
        return None
    chain = getattr(a, "_powers", None)
    if chain is None:
        chain = [a]
        object.__setattr__(a, "_powers", chain)
    key = action_key(a)
    while len(chain) < n:
        prev = chain[-1]
        node = Seq(a, prev)
        object.__setattr__(node, "_key", _compound_key(1, key, prev._key))
        object.__setattr__(node, "_hash", hash((a, prev)))
        chain.append(node)
    return chain[n - 1]


def instantiate_exponent(a: Action, name: str, n: int) -> Action | None:
    """Replace the symbolic exponent `name` by the literal n, renormalizing.
    A subtree without it is returned as it is, so its power chains are
    shared between instances."""
    if isinstance(a, Lbl):
        return a
    if isinstance(a, Seq):
        l = instantiate_exponent(a.left, name, n)
        r = instantiate_exponent(a.right, name, n)
        if l is None:
            return r
        if r is None:
            return l
        return a if l is a.left and r is a.right else Seq(l, r)
    if isinstance(a, Alt):
        l = instantiate_exponent(a.left, name, n)
        r = instantiate_exponent(a.right, name, n)
        if l is None or r is None:
            raise SyntaxError_("a^0 under union does not denote an action")
        return a if l is a.left and r is a.right else Alt(l, r)
    if isinstance(a, Star):
        body = instantiate_exponent(a.body, name, n)
        if body is None:
            raise SyntaxError_("a^0 under star does not denote an action")
        return a if body is a.body else Star(body)
    assert isinstance(a, Pow)
    body = instantiate_exponent(a.body, name, n)
    if body is None:
        raise SyntaxError_("nested zero power")
    if a.exp.name == name:
        return power(body, n)
    return a if body is a.body else Pow(body, a.exp)


class _ActionKey(tuple):
    """A compound action's key. It orders, compares and hashes as the plain
    tuple, but its hash is the one stored when it was made, over its
    children's: so no key that holds it walks below it to hash."""

    def __hash__(self):
        return self.hash


def _compound_key(*parts) -> _ActionKey:
    key = _ActionKey(parts)
    key.hash = hash(parts)
    return key


def action_key(a: Action):
    """Total order on actions: the key is kept on the node once built."""
    k = getattr(a, "_key", None)
    if k is not None:
        return k
    if isinstance(a, Lbl):
        k = (0, a.name)
    elif isinstance(a, Seq):
        k = _compound_key(1, action_key(a.left), action_key(a.right))
    elif isinstance(a, Alt):
        k = _compound_key(2, action_key(a.left), action_key(a.right))
    elif isinstance(a, Star):
        k = _compound_key(3, action_key(a.body))
    else:
        k = _compound_key(4, action_key(a.body), a.exp.name)
    object.__setattr__(a, "_key", k)
    return k


# ---------------------------------------------------------------------------
# Sentences


class Sentence:
    __slots__ = ("_key", "_hash", "_compiled")

    def key(self):
        k = getattr(self, "_key", None)
        if k is None:
            k = _canonical_key(self, {}, 0)
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other):
        return self is other or (isinstance(other, Sentence)
                                 and self.key() == other.key())

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class Eq(Sentence):
    left: Term
    right: Term

    def __post_init__(self):
        if self.left.sort != self.right.sort:
            raise SyntaxError_(
                f"equation between sorts {self.left.sort} and {self.right.sort}")

    def __str__(self):
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, eq=False)
class Trans(Sentence):
    left: Term
    action: Action
    right: Term

    def __post_init__(self):
        if self.left.sort != self.right.sort:
            raise SyntaxError_(
                f"transition between sorts {self.left.sort} and {self.right.sort}")

    @property
    def sort(self):
        return self.left.sort

    def __str__(self):
        return f"{self.left} =[{self.action}]=> {self.right}"


@dataclass(frozen=True, eq=False)
class Neg(Sentence):
    body: Sentence

    def __str__(self):
        return f"not {self.body}"


@dataclass(frozen=True, eq=False)
class Disj(Sentence):
    items: tuple[Sentence, ...]

    def __str__(self):
        return "\\/{" + ", ".join(map(str, self.items)) + "}"


@dataclass(frozen=True, eq=False)
class Exists(Sentence):
    variables: frozenset[Variable]
    body: Sentence

    def __str__(self):
        vs = ", ".join(f"{x.name}:{x.sort}"
                       for x in binder_order(self.variables))
        return f"exists {{{vs}}} . {self.body}"


def trans(left: Term, action: Optional[Action], right: Term) -> Sentence:
    """Transition sentence; the identity action a^0 denotes the equation."""
    if action is None:
        return Eq(left, right)
    return Trans(left, action, right)


def disj(items: Iterable[Sentence]) -> Disj:
    uniq: dict = {}
    for s in items:
        uniq.setdefault(s.key(), s)
    return Disj(tuple(uniq[k] for k in sorted(uniq)))


def bot() -> Disj:
    return Disj(())


def top() -> Neg:
    return Neg(bot())


def conj(items: Iterable[Sentence]) -> Sentence:
    items = tuple(items)
    if len(items) == 1:
        return items[0]
    return Neg(disj(Neg(s) for s in items))


def implies(a: Sentence, b: Sentence) -> Sentence:
    return disj((Neg(a), b))


def exists(variables: Iterable[Variable], body: Sentence) -> Sentence:
    vs = frozenset(variables)
    if not vs:
        return body
    return Exists(vs, body)


def forall(variables: Iterable[Variable], body: Sentence) -> Sentence:
    vs = frozenset(variables)
    if not vs:
        return body
    return Neg(Exists(vs, Neg(body)))


def binder_order(variables: frozenset[Variable]) -> list[Variable]:
    """A binder's variables by sort, then name, as they are printed and bound."""
    return sorted(variables, key=lambda v: (v.sort, v.name))


def _canonical_term_key(t: Term, env: dict):
    if isinstance(t, Var):
        bound = env.get(t.var)
        if bound is not None:
            return (0, bound, t.var.sort)
        return (0, t.var.name, t.var.sort)
    return (1, t.decl.name, t.decl.arity, t.decl.result,
            tuple(_canonical_term_key(a, env) for a in t.args))


def _canonical_key(phi: Sentence, env: dict, depth: int):
    # a bound variable is named by its binder's depth, so that disjuncts,
    # which the key sorts, name their binders independently of their order
    if isinstance(phi, Eq):
        return ("=", _canonical_term_key(phi.left, env),
                _canonical_term_key(phi.right, env))
    if isinstance(phi, Trans):
        return ("=>", _canonical_term_key(phi.left, env), action_key(phi.action),
                _canonical_term_key(phi.right, env))
    if isinstance(phi, Neg):
        return ("not", _child_key(phi.body, env, depth))
    if isinstance(phi, Disj):
        return ("or", tuple(sorted(_child_key(s, env, depth)
                                   for s in phi.items)))
    assert isinstance(phi, Exists)
    env = dict(env)
    for i, x in enumerate(binder_order(phi.variables)):
        env[x] = f"β{depth + i}"
    return ("ex", tuple(sorted((x.sort) for x in phi.variables)),
            _canonical_key(phi.body, env, depth + len(phi.variables)))


def _child_key(phi: Sentence, env: dict, depth: int):
    # with no binder above, a key already kept on phi is the one this walk
    # would build; it is read as it is: key() would also keep a key on a
    # child that has none
    k = None if env else getattr(phi, "_key", None)
    return _canonical_key(phi, env, depth) if k is None else k


class Vocabulary(NamedTuple):
    """What a sentence, term or action mentions."""
    funcs: set              # the declarations applied
    labels: set
    sorts: set              # the sorts that binders bind
    free: set               # the variables that no binder above binds
    kinds: set              # the action-node classes met
    power: Optional[Pow]    # the first symbolic power, left to right


def vocabulary(x: Union[Sentence, Term, Action]) -> Vocabulary:
    """One pass over x on an explicit stack, so no depth overflows it.
    Children are stacked right to left, so nodes are met left to right."""
    funcs, labels, sorts, free, kinds = set(), set(), set(), set(), set()
    first_power = None
    bound = frozenset()
    todo = [x]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is App:
            funcs.add(node.decl)
            todo += node.args
        elif kind is Var:
            if node.var not in bound:
                free.add(node.var)
        elif kind is Lbl:
            kinds.add(kind)
            labels.add(node.name)
        elif kind is Trans:
            todo += (node.right, node.action, node.left)
        elif kind is Eq:
            todo += (node.right, node.left)
        elif kind is Seq or kind is Alt:
            kinds.add(kind)
            todo += (node.right, node.left)
        elif kind is Neg:
            todo.append(node.body)
        elif kind is Disj:
            todo += reversed(node.items)
        elif kind is Exists:
            # the binder's scope ends where the outer bound set is popped
            sorts.update(v.sort for v in node.variables)
            todo += (bound, node.body)
            bound = bound | node.variables
        elif kind is frozenset:
            bound = node
        else:                                   # Star or Pow
            kinds.add(kind)
            if kind is Pow and first_power is None:
                first_power = node
            todo.append(node.body)
    # a Vocabulary without NamedTuple's Python-level __new__
    return tuple.__new__(Vocabulary,
                         (funcs, labels, sorts, free, kinds, first_power))


def sentence_vars(phi: Sentence) -> set[Variable]:
    """Free variables of a sentence (binders remove their own variables)."""
    return vocabulary(phi).free


def is_atomic(phi: Sentence) -> bool:
    """Atoms: equations and single-label transitions."""
    if isinstance(phi, Eq):
        return True
    return isinstance(phi, Trans) and isinstance(phi.action, Lbl)


def sentence_labels(phi: Sentence) -> set[str]:
    return vocabulary(phi).labels


def sentence_size(phi: Sentence) -> int:
    if isinstance(phi, Eq):
        return 1 + term_key(phi.left)[1] + term_key(phi.right)[1]
    if isinstance(phi, Trans):
        return 1 + term_key(phi.left)[1] + term_key(phi.right)[1]
    if isinstance(phi, Neg):
        return 1 + sentence_size(phi.body)
    if isinstance(phi, Disj):
        return 1 + sum(sentence_size(s) for s in phi.items)
    assert isinstance(phi, Exists)
    return 1 + len(phi.variables) + sentence_size(phi.body)


# ---------------------------------------------------------------------------
# Signature morphisms and translation


@dataclass(frozen=True)
class SignatureMorphism:
    source: Signature
    target: Signature
    sort_map: Mapping[str, str]
    func_map: Mapping[FuncDecl, FuncDecl]
    label_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "sort_map", dict(self.sort_map))
        object.__setattr__(self, "func_map", dict(self.func_map))
        object.__setattr__(self, "label_map", dict(self.label_map))
        for s in self.source.sorts:
            if self.sort_map.get(s) not in self.target.sorts:
                raise SyntaxError_(f"sort {s!r} is not mapped into the target")
        for d in self.source.funcs:
            img = self.func_map.get(d)
            if img is None or img not in self.target.funcs:
                raise SyntaxError_(f"declaration {d} is not mapped into the target")
            expected = (tuple(self.sort_map[s] for s in d.arity), self.sort_map[d.result])
            if (img.arity, img.result) != expected:
                raise SyntaxError_(f"declaration {d} maps to rank-incompatible {img}")
            if d in self.source.mono and img not in self.target.mono:
                raise SyntaxError_(f"monotonic {d.name} maps to non-monotonic {img.name}")
        for l in self.source.labels:
            if self.label_map.get(l) not in self.target.labels:
                raise SyntaxError_(f"label {l!r} is not mapped into the target")

    def __hash__(self):
        return hash((self.source, self.target,
                     tuple(sorted(self.sort_map.items())),
                     tuple(sorted(self.label_map.items()))))

    @staticmethod
    def identity(sig: Signature) -> "SignatureMorphism":
        return SignatureMorphism(sig, sig, {s: s for s in sig.sorts},
                                 {d: d for d in sig.funcs},
                                 {l: l for l in sig.labels})

    @staticmethod
    def inclusion(small: Signature, big: Signature) -> "SignatureMorphism":
        if not big.includes(small):
            raise SyntaxError_("not an inclusion of signatures")
        return SignatureMorphism(small, big, {s: s for s in small.sorts},
                                 {d: d for d in small.funcs},
                                 {l: l for l in small.labels})

    def then(self, other: "SignatureMorphism") -> "SignatureMorphism":
        if self.target != other.source:
            raise SyntaxError_("morphisms do not compose")
        return SignatureMorphism(
            self.source, other.target,
            {s: other.sort_map[v] for s, v in self.sort_map.items()},
            {d: other.func_map[v] for d, v in self.func_map.items()},
            {l: other.label_map[v] for l, v in self.label_map.items()})


def translate_term(chi: SignatureMorphism, t: Term,
                   var_map: Optional[Mapping[Variable, Variable]] = None) -> Term:
    if isinstance(t, Var):
        if var_map is None or t.var not in var_map:
            raise SyntaxError_(f"unmapped variable {t.var.name!r} in term translation")
        return Var(var_map[t.var])
    return App(chi.func_map[t.decl],
               tuple(translate_term(chi, a, var_map) for a in t.args))


def translate_action(chi: SignatureMorphism, a: Action) -> Action:
    if isinstance(a, Lbl):
        return Lbl(chi.label_map[a.name])
    if isinstance(a, Seq):
        return Seq(translate_action(chi, a.left), translate_action(chi, a.right))
    if isinstance(a, Alt):
        return Alt(translate_action(chi, a.left), translate_action(chi, a.right))
    if isinstance(a, Star):
        return Star(translate_action(chi, a.body))
    return Pow(translate_action(chi, a.body), a.exp)


def translate_sentence(chi: SignatureMorphism, phi: Sentence,
                       var_map: Optional[Mapping[Variable, Variable]] = None) -> Sentence:
    if isinstance(phi, Eq):
        return Eq(translate_term(chi, phi.left, var_map),
                  translate_term(chi, phi.right, var_map))
    if isinstance(phi, Trans):
        return Trans(translate_term(chi, phi.left, var_map),
                     translate_action(chi, phi.action),
                     translate_term(chi, phi.right, var_map))
    if isinstance(phi, Neg):
        return Neg(translate_sentence(chi, phi.body, var_map))
    if isinstance(phi, Disj):
        return disj(translate_sentence(chi, s, var_map) for s in phi.items)
    assert isinstance(phi, Exists)

    def _fresh(name: str, sort: str) -> str:
        # shadowed binders would collide with the constant introduced for
        # the outer binder of the same name; prime until distinct
        while any(d.is_constant and d.name == name and d.result == sort
                  for d in chi.target.funcs):
            name += "'"
        return name

    new_vars = {x: Variable(_fresh(x.name, chi.sort_map[x.sort]),
                            chi.sort_map[x.sort], chi.target)
                for x in phi.variables}
    # a shadowed binder re-binds a name already present as a constant in the
    # extended source, so extend without the freshness check; the func_map
    # update below makes the inner binding win
    ext_source = Signature(
        chi.source.sorts,
        chi.source.funcs | {FuncDecl(x.name, (), x.sort)
                            for x in phi.variables},
        chi.source.mono, chi.source.labels)
    ext_target = extend_signature(chi.target, new_vars.values())
    chi_ext = SignatureMorphism(
        ext_source, ext_target,
        chi.sort_map,
        {**chi.func_map, **{FuncDecl(x.name, (), x.sort):
                            FuncDecl(y.name, (), y.sort)
                            for x, y in new_vars.items()}},
        chi.label_map)
    inner_map = dict(var_map) if var_map else {}
    inner_map.update(new_vars)
    return Exists(frozenset(new_vars.values()),
                  translate_sentence(chi_ext, phi.body, inner_map))


# ---------------------------------------------------------------------------
# Substitution


def apply_substitution_term(theta: Mapping[Variable, Term], t: Term) -> Term:
    if isinstance(t, Var):
        if t.var in theta:
            image = theta[t.var]
            if image.sort != t.var.sort:
                raise SyntaxError_(
                    f"substitution for {t.var.name!r} has sort {image.sort}, "
                    f"expected {t.var.sort}")
            return image
        return t
    return App(t.decl, tuple(apply_substitution_term(theta, a) for a in t.args))


def apply_substitution(theta: Mapping[Variable, Term], phi: Sentence) -> Sentence:
    """Replace free variable occurrences; inner binders are never captured
    because nested quantifiers bind variables tagged with deeper signatures."""
    if isinstance(phi, Eq):
        return Eq(apply_substitution_term(theta, phi.left),
                  apply_substitution_term(theta, phi.right))
    if isinstance(phi, Trans):
        return Trans(apply_substitution_term(theta, phi.left), phi.action,
                     apply_substitution_term(theta, phi.right))
    if isinstance(phi, Neg):
        return Neg(apply_substitution(theta, phi.body))
    if isinstance(phi, Disj):
        return disj(apply_substitution(theta, s) for s in phi.items)
    assert isinstance(phi, Exists)
    inner = {x: t for x, t in theta.items() if x not in phi.variables}
    return Exists(phi.variables, apply_substitution(inner, phi.body))


# ---------------------------------------------------------------------------
# Ground-term enumeration (used by semantics, forcing and the term model)


def ground_terms(sig: Signature, max_depth: int) -> dict[str, list[Term]]:
    """All ground terms of depth <= max_depth per sort, in canonical order."""
    by_sort: dict[str, dict] = {s: {} for s in sig.sorts}
    layer: dict[str, set[Term]] = {s: set() for s in sig.sorts}
    for d in sorted(sig.funcs):
        if d.is_constant:
            t = App(d, ())
            by_sort[d.result][t] = True
            layer[d.result].add(t)
    for _ in range(max_depth):
        new_layer: dict[str, set[Term]] = {s: set() for s in sig.sorts}
        for d in sorted(sig.funcs):
            if d.is_constant:
                continue
            pools = [list(by_sort[s]) for s in d.arity]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                if not any(a in layer[s] for a, s in zip(combo, d.arity)):
                    continue
                t = App(d, combo)
                if t not in by_sort[d.result]:
                    by_sort[d.result][t] = True
                    new_layer[d.result].add(t)
        layer = new_layer
        if not any(layer.values()):
            break
    return {s: sorted(ts, key=term_key) for s, ts in by_sort.items()}
