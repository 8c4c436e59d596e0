"""Forcing over finite condition posets.

A forcing property assigns to each condition of a finite poset a signature and
a set of atomic sentences, both monotone along the order. The forcing relation
is evaluated by recursion on the sentence with all term and iteration
quantifiers bounded; every place a bound can bite is recorded in a cap ledger
so that "false" and "ran out of budget" stay distinguishable. Generic sets are
built by the pairing-schedule chain construction, and a generic model is the
initial term model of the atoms forced along the chain.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .syntax import (Action, Disj, Eq, Exists, FuncDecl, Lbl, Neg, Pow, Seq,
                     Sentence, Signature, Star, Term, Trans, Vocabulary,
                     apply_substitution, binder_order, ground_terms,
                     is_atomic, sentence_size, vocabulary)
from .semantics import (FiniteModel, action_relation, compose_relations,
                        find_model, reflexive_transitive_closure, satisfies,
                        satisfies_all, star_relation)
from .basic import GroundTheory, Unbounded, build_term_model
from .calculus import Invalid, ProofNode, check_proof


class ForcingError(ValueError):
    pass


def _is_basic(phi: Sentence, sig: Signature) -> bool:
    return is_atomic(phi) and _fits(vocabulary(phi), sig)


def _fits(v: Vocabulary, sig: Signature) -> bool:
    """A sentence of this vocabulary is over sig: its symbols, labels and
    binder sorts are declared there and every variable in it is bound."""
    return (not v.free and v.funcs <= sig.funcs and v.labels <= sig.labels
            and v.sorts <= sig.sorts)


# ---------------------------------------------------------------------------
# Forcing properties


@dataclass(frozen=True)
class ForcingProperty:
    """(P, ≤, Δ, f) with P finite: conditions in a fixed order, the order
    relation as a set of (p, q) pairs with p ≤ q, per-condition signatures and
    per-condition atomic-sentence sets."""
    conditions: tuple
    leq: frozenset                  # reflexive-transitive (p, q) pairs
    sig_of: Mapping
    atoms_of: Mapping

    def __post_init__(self):
        object.__setattr__(self, "sig_of", dict(self.sig_of))
        object.__setattr__(self, "atoms_of",
                           {p: frozenset(a) for p, a in dict(self.atoms_of).items()})
        conds = set(self.conditions)
        if len(conds) != len(self.conditions):
            raise ForcingError("duplicate conditions")
        for (p, q) in self.leq:
            if p not in conds or q not in conds:
                raise ForcingError(f"order mentions unknown condition {p} or {q}")
        for p in conds:
            if (p, p) not in self.leq:
                raise ForcingError("order is not reflexive")
        for (p, q) in self.leq:
            if (q, p) in self.leq and p != q:
                raise ForcingError(f"order is not antisymmetric at {p}, {q}")
        if not compose_relations(self.leq, self.leq) <= self.leq:
            raise ForcingError("order is not transitive")
        self.least                       # raises when there is none
        for p in conds:
            if p not in self.sig_of or p not in self.atoms_of:
                raise ForcingError(f"condition {p} lacks a signature or atoms")
        for (p, q) in self.leq:
            if not self.sig_of[q].includes(self.sig_of[p]):
                raise ForcingError(f"signature does not grow along {p} <= {q}")
            if not self.atoms_of[p] <= self.atoms_of[q]:
                raise ForcingError(f"atoms do not grow along {p} <= {q}")
        for p in self.conditions:
            # an atom held below p was checked there; signatures grow upward
            below = set().union(*(self.atoms_of[q] for q in self.below(p)
                                  if q != p))
            for phi in self.atoms_of[p] - below:
                if not _is_basic(phi, self.sig_of[p]):
                    raise ForcingError(
                        f"{phi} is not an atomic sentence over the signature of {p}")

    @staticmethod
    def make(conditions: Iterable, edges: Iterable[tuple], sig_of: Mapping,
             atoms_of: Mapping) -> "ForcingProperty":
        """Build from covering edges; the order is their reflexive-transitive
        closure."""
        conditions = tuple(conditions)
        leq = reflexive_transitive_closure(frozenset(edges), conditions)
        return ForcingProperty(conditions, leq, sig_of, atoms_of)

    @property
    def least(self):
        for p in self.conditions:
            if len(self.above(p)) == len(self.conditions):
                return p
        raise ForcingError("no least condition")

    def _order_table(self, name: str, upward: bool) -> dict:
        """Each condition's up-set (or down-set) in `conditions` order."""
        table = self.__dict__.get(name)
        if table is None:
            table = {p: tuple(q for q in self.conditions
                              if ((p, q) if upward else (q, p)) in self.leq)
                     for p in self.conditions}
            object.__setattr__(self, name, table)
        return table

    def above(self, p) -> tuple:
        return self._order_table("_above", True)[p]

    def below(self, p) -> tuple:
        return self._order_table("_below", False)[p]


# ---------------------------------------------------------------------------
# The forcing relation


@dataclass
class CapLedger:
    """Distinguishes a clean False from one that may have hit a bound. Each
    event is a sentence that came out false where a deeper term pool could
    have made it true: a transition through `*` ("star-cap") or through `;`
    ("middle-term-depth"), or an existential ("witness-depth")."""
    events: list = field(default_factory=list)

    def record(self, kind: str, condition, phi: Sentence, bound: int):
        self.events.append((kind, condition, str(phi), bound))

    @property
    def capped(self) -> bool:
        return bool(self.events)


class ForcingRelation:
    """Evaluator for p ⊩ φ with term quantifiers, middle terms and iteration
    indices bounded by the ground-term universe of depth <= term_depth."""

    def __init__(self, fp: ForcingProperty, term_depth: int = 2):
        self.fp = fp
        self.term_depth = term_depth
        self.ledger = CapLedger()
        self._memo: dict = {}
        self._terms: dict = {}
        self._relations: dict = {}

    def terms_of(self, p) -> dict[str, list[Term]]:
        if p not in self._terms:
            self._terms[p] = ground_terms(self.fp.sig_of[p], self.term_depth)
        return self._terms[p]

    def _star_cap(self, p, sort: str) -> int:
        # a relation composed with itself stops producing new pairs after
        # |universe| steps, so larger indices only matter past the cap
        return max(1, len(self.terms_of(p).get(sort, ())))

    def _relation(self, p, a: Action, sort: str) -> frozenset:
        """The pairs (t, u) with p ⊩ t =[a]=> u: label atoms are the steps,
        equations the identity, and the universe the only middle terms."""
        if p not in self._relations:
            # transitions stay within one sort, so one universe serves all
            middle = frozenset(itertools.chain(*self.terms_of(p).values()))
            self._relations[p] = ({}, middle)
        memo, middle = self._relations[p]
        atoms = self.fp.atoms_of[p]

        def pairs(action=None):             # no action: the equations
            return frozenset((x.left, x.right) for x in atoms
                             if x.left.sort == sort
                             and getattr(x, "action", None) == action)

        return action_relation(
            a, sort, memo, lambda label, _: pairs(Lbl(label)),
            lambda body, _: star_relation(body, pairs(), middle,
                                          self._star_cap(p, sort)), middle)

    def forces(self, p, phi: Sentence) -> bool:
        key = (p, phi)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = False          # cycles through Neg default to False
        result = self._eval(p, phi)
        self._memo[key] = result
        return result

    def _eval(self, p, phi: Sentence) -> bool:
        fp = self.fp
        if isinstance(phi, Eq) or (isinstance(phi, Trans)
                                   and isinstance(phi.action, Lbl)):
            return phi in fp.atoms_of[p]
        if isinstance(phi, Trans):
            kinds = vocabulary(phi.action).kinds
            if Pow in kinds:
                raise ForcingError(f"symbolic exponent in {phi}")
            rel = self._relation(p, phi.action, phi.sort)
            hit = (phi.left, phi.right) in rel
            if not hit and Star in kinds:
                self.ledger.record("star-cap", p, phi,
                                   self._star_cap(p, phi.sort))
            elif not hit and Seq in kinds:
                self.ledger.record("middle-term-depth", p, phi,
                                   self.term_depth)
            return hit
        if isinstance(phi, Neg):
            return not any(self.forces(q, phi.body) for q in fp.above(p))
        if isinstance(phi, Disj):
            return any(self.forces(p, item) for item in phi.items)
        assert isinstance(phi, Exists)
        pool = self.terms_of(p)
        variables = binder_order(phi.variables)
        domains = [pool.get(v.sort, []) for v in variables]
        if any(not d for d in domains):
            return False
        hit = False
        for combo in itertools.product(*domains):
            theta = dict(zip(variables, combo))
            if self.forces(p, apply_substitution(theta, phi.body)):
                hit = True
                break
        if not hit:
            self.ledger.record("witness-depth", p, phi, self.term_depth)
        return hit

    def weakly_forces(self, p, phi: Sentence) -> bool:
        return self.forces(p, Neg(Neg(phi)))


def forces(fp: ForcingProperty, p, phi: Sentence, term_depth: int = 2) -> bool:
    return ForcingRelation(fp, term_depth).forces(p, phi)


def weakly_forces(fp: ForcingProperty, p, phi: Sentence,
                  term_depth: int = 2) -> bool:
    return ForcingRelation(fp, term_depth).weakly_forces(p, phi)


def validate_forcing_lemma(fp: ForcingProperty, universe: Iterable[Sentence],
                           term_depth: int = 2) -> dict:
    """Exhaustively test the four closure properties of the forcing relation
    over all conditions and a finite sentence universe; any counterexample
    lands in the report."""
    rel = ForcingRelation(fp, term_depth)
    report = {"double_negation": [], "monotone": [], "weakening": [],
              "consistency": [], "checked": 0}

    def dense_at(q, phi, memo: dict) -> bool:     # some r >= q forces phi
        if q not in memo:
            memo[q] = any(rel.forces(r, phi) for r in fp.above(q))
        return memo[q]

    # once per sentence: its vocabulary, negations and density memo
    sentences = [(phi, vocabulary(phi), Neg(phi), Neg(Neg(phi)), {})
                 for phi in universe]
    for p in fp.conditions:
        sig, above = fp.sig_of[p], fp.above(p)
        for phi, v, neg, double_neg, memo in sentences:
            if not _fits(v, sig):
                continue
            report["checked"] += 1
            f = rel.forces(p, phi)
            nn = rel.forces(p, double_neg)
            dense = all(dense_at(q, phi, memo) for q in above)
            if nn != dense:
                report["double_negation"].append((p, str(phi)))
            if f:
                report["monotone"] += [(p, q, str(phi)) for q in above
                                       if not rel.forces(q, phi)]
                if not nn:
                    report["weakening"].append((p, str(phi)))
                if rel.forces(p, neg):
                    report["consistency"].append((p, str(phi)))
    return report


# ---------------------------------------------------------------------------
# Pairing schedule and generic sets


def pair(i: int, j: int) -> int:
    if i < 0 or j < 0:
        raise ValueError("pair is defined on naturals")
    return ((i + j) * (i + j + 1) + 2 * j) // 2


def unpair(n: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    j = n - s * (s + 1) // 2
    return s - j, j


@dataclass(frozen=True)
class GenericSet:
    chain: tuple                    # p0 <= p1 <= ... explored prefix
    ideal: frozenset                # downward closure of the chain
    ledger: tuple                   # per-step decision records

    def forces_somewhere(self, rel: ForcingRelation, phi: Sentence) -> bool:
        return any(rel.forces(p, phi) for p in self.ideal)


def enumerate_sentences(sig: Signature, limit: int,
                        term_depth: int = 1) -> list[Sentence]:
    """The first `limit` sentences of the canonical enumeration, and only
    those are built: ground atoms over terms of depth <= term_depth, then
    their negations, then disjunctions of two distinct atoms, each layer
    ordered by size and then by canonical key. Stable across runs. Within
    one size, the disjunctions are taken by first atom in key order, each
    with the later atoms of the one size that completes it."""
    if limit < 0:
        raise ValueError(f"sentence limit {limit} is negative")
    pool = ground_terms(sig, term_depth)
    unique = {}
    for ts in pool.values():
        for t1, t2 in itertools.product(ts, ts):
            for phi in (Eq(t1, t2),
                        *(Trans(t1, Lbl(l), t2) for l in sig.labels)):
                unique.setdefault(phi.key(), phi)
    atoms = sorted((sentence_size(phi), k) for k, phi in unique.items())
    out = [unique[k] for _, k in atoms[:limit]]
    out += [Neg(phi) for phi in out[:limit - len(out)]]
    if len(out) == limit:
        return out
    by_key = sorted(atoms, key=lambda e: e[1])
    later: dict[int, list] = {}             # size -> atom keys, in key order
    for size, k in by_key:
        later.setdefault(size, []).append(k)
    # the disjunctions of one size come in (first key, second key) order
    for total in sorted({s + t for s in later for t in later}):
        for size_a, k_a in by_key:
            keys = later.get(total - size_a, ())
            for j in range(bisect.bisect_right(keys, k_a), len(keys)):
                if len(out) == limit:
                    return out
                out.append(Disj((unique[k_a], unique[keys[j]])))
    return out


# sentences of a chain element's enumeration that build_generic schedules
ENUMERATION_LIMIT = 64


def build_generic(fp: ForcingProperty, p0, steps: int,
                  enumerations: Optional[Mapping] = None,
                  term_depth: int = 2) -> GenericSet:
    """The chain construction: at step n = pair(i, j), try to extend the
    current condition to one forcing the j-th sentence of the i-th chain
    element's enumeration; otherwise stay put, which decides its negation.
    Without `enumerations`, a condition's enumeration is built when the
    schedule first reaches it as a chain element."""
    rel = ForcingRelation(fp, term_depth)
    built = {} if enumerations is None else enumerations
    chain = [p0]
    ledger = []
    for n in range(steps):
        i, j = unpair(n)
        current = chain[-1]
        if i >= len(chain):
            ledger.append(("chain-index-pending", n, i, j))
            chain.append(current)
            continue
        if enumerations is None and chain[i] not in built:
            built[chain[i]] = enumerate_sentences(fp.sig_of[chain[i]],
                                                  ENUMERATION_LIMIT)
        enum = built[chain[i]]
        if j >= len(enum):
            ledger.append(("enumeration-exhausted", n, i, j))
            chain.append(current)
            continue
        phi = enum[j]
        extension = next((q for q in fp.above(current)
                          if rel.forces(q, phi)), None)
        if extension is not None:
            chain.append(extension)
            ledger.append(("forced", n, i, j, str(phi), extension))
        else:
            chain.append(current)
            ledger.append(("negation-by-default", n, i, j, str(phi), current))
    ideal = frozenset(q for p in chain for q in fp.below(p))
    return GenericSet(tuple(chain), ideal, tuple(ledger))


def is_ideal(fp: ForcingProperty, G: GenericSet) -> bool:
    """G's ideal is closed downward and any two of its members lie below a
    third."""
    return (all(q in G.ideal for p in G.ideal for q in fp.below(p))
            and all(G.ideal.intersection(fp.above(p), fp.above(q))
                    for p in G.ideal for q in G.ideal))


def generic_signature(fp: ForcingProperty, G: GenericSet) -> Signature:
    sig = fp.sig_of[next(iter(G.chain))]
    for p in G.chain:
        sig = sig.union(fp.sig_of[p])
    return sig


def generic_model(fp: ForcingProperty, G: GenericSet,
                  depth_bound: int = 8) -> Union[FiniteModel, Unbounded]:
    """The term model of all atoms forced along the chain, over the union
    signature."""
    sig = generic_signature(fp, G)
    atoms = sorted({phi for p in G.ideal for phi in fp.atoms_of[p]},
                   key=lambda s: s.key())
    return build_term_model(GroundTheory(sig, tuple(atoms)), depth_bound)


def generic_model_report(fp: ForcingProperty, G: GenericSet,
                         universe: Iterable[Sentence],
                         term_depth: int = 2,
                         depth_bound: int = 8) -> dict:
    """Compare model satisfaction against G-forcing over a sentence universe."""
    model = generic_model(fp, G, depth_bound)
    report = {"unbounded": isinstance(model, Unbounded), "mismatches": [],
              "checked": 0}
    if report["unbounded"]:
        return report
    rel = ForcingRelation(fp, term_depth)
    for phi in universe:
        v = vocabulary(phi)
        if not any(_fits(v, fp.sig_of[p]) for p in G.ideal):
            continue
        report["checked"] += 1
        sat = satisfies(model, phi)
        forced = G.forces_somewhere(rel, phi)
        if sat != forced:
            report["mismatches"].append((str(phi), sat, forced))
    return report


# ---------------------------------------------------------------------------
# Syntactic conditions (consistent presentations with Henkin constants)


def henkin_constant(sort: str, index: int) -> FuncDecl:
    return FuncDecl(f"h_{sort}_{index}", (), sort)


@dataclass(frozen=True, eq=False)
class SyntacticCondition:
    name: str
    signature: Signature
    sentences: frozenset
    certificate: Optional[FiniteModel]          # None means bounded search
    bounded: bool = False

    def __str__(self):
        return self.name


# the largest carrier searched for a certificate of a condition's consistency
SEARCH_SIZE = 2


def syntactic_conditions(base: Signature,
                         specs: Iterable[tuple]) -> tuple[ForcingProperty, dict]:
    """Build a forcing property from (name, henkin_counts, sentences,
    certificate) tuples. henkin_counts maps sort -> how many pool constants
    the condition adds; certificate is a FiniteModel or None to request a
    search of the models of size up to SEARCH_SIZE."""
    conditions = []
    cond_by_name = {}
    for name, henkin_counts, sentences, certificate in specs:
        funcs = set(base.funcs)
        for sort, count in dict(henkin_counts).items():
            if sort not in base.sorts:
                raise ForcingError(f"unknown sort {sort}")
            for i in range(count):
                funcs.add(henkin_constant(sort, i))
        sig = Signature(base.sorts, frozenset(funcs), base.mono, base.labels)
        sentences = frozenset(sentences)
        bounded = certificate is None
        if certificate is None:
            certificate = find_model(sig, SEARCH_SIZE,
                                     [(s, True) for s in sentences])
            if certificate is None:
                raise ForcingError(
                    f"no model of size <= {SEARCH_SIZE} satisfies {name}: "
                    f"cannot certify consistency")
        else:
            if certificate.signature != sig:
                raise ForcingError(f"certificate for {name} has the wrong signature")
            if not satisfies_all(certificate, sentences):
                raise ForcingError(f"certificate model does not satisfy {name}")
        cond = SyntacticCondition(name, sig, sentences, certificate, bounded)
        conditions.append(cond)
        cond_by_name[name] = cond
    edges = set()
    for p in conditions:
        for q in conditions:
            if (q.signature.includes(p.signature)
                    and p.sentences <= q.sentences):
                edges.add((p, q))
    sig_of = {p: p.signature for p in conditions}
    atoms_of = {p: frozenset(s for s in p.sentences
                             if _is_basic(s, p.signature))
                for p in conditions}
    fp = ForcingProperty.make(tuple(conditions), edges, sig_of, atoms_of)
    return fp, cond_by_name


def cross_check_weak_forcing(fp: ForcingProperty, p, phi: Sentence,
                             proof: Optional[ProofNode],
                             term_depth: int = 2) -> dict:
    """Desk-scale shadow of 'weakly forced iff provable': compare the forcing
    evaluation against the verdict of a supplied proof script (or its
    absence)."""
    rel = ForcingRelation(fp, term_depth)
    weak = rel.weakly_forces(p, phi)
    if proof is None:
        provable = False
        verdict = None
    else:
        expected_gamma = (p.sentences if isinstance(p, SyntacticCondition)
                          else fp.atoms_of[p])
        if proof.conclusion.single() != phi:
            raise ForcingError("proof conclusion does not match the sentence")
        if proof.conclusion.antecedent != frozenset(expected_gamma):
            raise ForcingError("proof antecedent does not match the condition")
        verdict = check_proof(proof)
        provable = not isinstance(verdict, Invalid)
    return {"condition": str(p), "sentence": str(phi),
            "weakly_forces": weak, "provable": provable,
            "verdict": None if verdict is None else str(verdict),
            "agree": weak == provable,
            "capped": rel.ledger.capped}
