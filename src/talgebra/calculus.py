"""Proof representation and checking for the dynamic entailment calculus.

Proofs are explicit trees checked by a small kernel; there is no search.
Star elimination carries a premise family: an index-parameterized subproof
checked either on instances 0..B (verdict at most BOUNDED_VALID) or
uniformly in an opaque exponent symbol (verdict VALID).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union

from .syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg, Seq,
                     Sentence, Signature, SignatureMorphism, Star, SymExp,
                     Trans, apply_substitution, conj, disj, extend_signature,
                     forall, implies, instantiate_exponent, is_atomic,
                     is_ground, power, translate_sentence, trans, vocabulary)
from .basic import GroundTheory, decide_basic, NotAtomicError


# ---------------------------------------------------------------------------
# Sequents and proof nodes


Conclusion = Union[Sentence, frozenset]


class SetFormConclusion(TypeError):
    """Sequent.single() of a set-form conclusion; the kernel's INVALID."""


@dataclass(frozen=True)
class Sequent:
    signature: Signature
    antecedent: frozenset            # of Sentence
    conclusion: Conclusion           # Sentence, or frozenset for set form

    @staticmethod
    def make(sig: Signature, gamma: Iterable[Sentence],
             concl: Conclusion) -> "Sequent":
        if not isinstance(concl, (Sentence, frozenset)):
            concl = frozenset(concl)
        return Sequent(sig, frozenset(gamma), concl)

    def single(self) -> Sentence:
        if not isinstance(self.conclusion, Sentence):
            raise SetFormConclusion("sequent has a set-form conclusion")
        return self.conclusion

    def as_set(self) -> frozenset:
        if isinstance(self.conclusion, Sentence):
            return frozenset((self.conclusion,))
        return self.conclusion

    def __str__(self):
        rhs = (str(self.conclusion) if isinstance(self.conclusion, Sentence)
               else "{" + ", ".join(map(str, self.conclusion)) + "}")
        return f"|- {rhs}"


@dataclass(frozen=True)
class PremiseFamily:
    """Template subproof over a natural-number meta-parameter appearing only
    as an action exponent."""
    param: str
    template: "ProofNode"


@dataclass(frozen=True)
class ProofNode:
    conclusion: Sequent
    rule: str
    premises: tuple["ProofNode", ...] = ()
    payload: Mapping = field(default_factory=dict)
    family: Optional[PremiseFamily] = None

    def __post_init__(self):
        object.__setattr__(self, "payload", dict(self.payload))


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Valid:
    def __bool__(self):
        return True

    def __str__(self):
        return "VALID"


@dataclass(frozen=True)
class BoundedValid:
    bound: int

    def __bool__(self):
        return True

    def __str__(self):
        return f"BOUNDED_VALID({self.bound})"


@dataclass(frozen=True)
class Invalid:
    reason: str
    path: tuple[int, ...] = ()

    def __bool__(self):
        return False

    def __str__(self):
        where = "/".join(map(str, self.path)) or "root"
        return f"INVALID at {where}: {self.reason}"


Verdict = Union[Valid, BoundedValid, Invalid]


# ---------------------------------------------------------------------------
# Walks over proofs


class Cycle(ValueError):
    """Raised by postorder at a node, args[0], that reaches itself."""


def postorder(roots: Iterable, children):
    """Each node reachable from roots through children(node), once by
    identity, after its children and in their order, with the list of child
    indices that leads to it from its root on the first walk that meets it.
    The list is the walk's own, valid until the next node is drawn.
    children(node) is called once per node, when the walk first enters it.
    Raises Cycle at a node that reaches itself."""
    state: dict = {}      # id -> False once entered, True once yielded
    path: list = []
    for root in roots:
        if id(root) in state:
            continue
        state[id(root)] = False
        stack = [(root, enumerate(children(root)))]
        while stack:
            node, kids = stack[-1]
            for i, kid in kids:
                seen = state.get(id(kid))
                if seen is None:
                    break
                if not seen:
                    raise Cycle(kid)
            else:
                stack.pop()
                state[id(node)] = True
                yield node, path
                if stack:
                    path.pop()
                continue
            state[id(kid)] = False
            path.append(i)
            stack.append((kid, enumerate(children(kid))))


# ---------------------------------------------------------------------------
# Symbolic-instance instantiation


def instantiate_sentence(phi: Sentence, param: str, n: int) -> Sentence:
    """phi with `param` replaced by n; a transition, negation or existential
    without it is returned as it is, with its key and hash."""
    if isinstance(phi, Eq):
        return phi
    if isinstance(phi, Trans):
        action = instantiate_exponent(phi.action, param, n)
        if action is phi.action:
            return phi
        return trans(phi.left, action, phi.right)
    if isinstance(phi, Neg):
        body = instantiate_sentence(phi.body, param, n)
        return phi if body is phi.body else Neg(body)
    if isinstance(phi, Disj):
        return disj(instantiate_sentence(s, param, n) for s in phi.items)
    assert isinstance(phi, Exists)
    body = instantiate_sentence(phi.body, param, n)
    return phi if body is phi.body else Exists(phi.variables, body)


def _instantiate_conclusion(c: Conclusion, param: str, n: int) -> Conclusion:
    if isinstance(c, Sentence):
        return instantiate_sentence(c, param, n)
    return frozenset(instantiate_sentence(s, param, n) for s in c)


def _instance(m: ProofNode, param: str, n: int, made: dict) -> ProofNode:
    """m with `param` replaced by n, on the instances in made (by identity)
    of its premises and of a family template that does not bind param."""
    c = m.conclusion
    seq = Sequent(c.signature,
                  frozenset([instantiate_sentence(s, param, n)
                             for s in c.antecedent]),
                  _instantiate_conclusion(c.conclusion, param, n))
    payload = m.payload         # ProofNode keeps a copy of its own
    if isinstance(payload.get("n"), SymExp) and payload["n"].name == param:
        payload = {**payload, "n": n}
    family = m.family
    if family is not None and family.param != param:
        family = PremiseFamily(family.param, made[id(family.template)])
    return ProofNode(seq, m.rule, tuple([made[id(p)] for p in m.premises]),
                     payload, family)


def instantiate_node(node: ProofNode, param: str, n: int) -> ProofNode:
    """node with `param` replaced by n throughout; a node shared in node's
    tree is instantiated once and stays shared."""
    if not node.premises and node.family is None:
        return _instance(node, param, n, {})    # most family templates

    def parts(m: ProofNode) -> tuple:
        # a nested family shares the outer antecedent; one binding the same
        # name shadows the outer parameter
        f = m.family
        return m.premises if f is None or f.param == param \
            else (*m.premises, f.template)

    made: dict = {}
    for m, _ in postorder([node], parts):
        made[id(m)] = _instance(m, param, n, made)
    return made[id(node)]


# ---------------------------------------------------------------------------
# Rule side conditions


class _Violation(Exception):
    pass


def _fail(reason: str):
    raise _Violation(reason)


def _expect_premises(node: ProofNode, count: int):
    if len(node.premises) != count:
        _fail(f"rule {node.rule} expects {count} premises, got {len(node.premises)}")


def _same_context(node: ProofNode, premise: ProofNode):
    if premise.conclusion.signature != node.conclusion.signature:
        _fail("premise signature differs")
    if premise.conclusion.antecedent != node.conclusion.antecedent:
        _fail("premise antecedent differs")


def _single_trans(seq: Sequent) -> Trans:
    phi = seq.single()
    if not isinstance(phi, Trans):
        _fail(f"expected a transition, got {phi}")
    return phi


def _check_monotonicity_rule(node: ProofNode):
    concl = node.conclusion.as_set()
    if not concl <= node.conclusion.antecedent:
        missing = next(iter(concl - node.conclusion.antecedent))
        _fail(f"conclusion {missing} is not among the antecedents")


def _check_transitivity(node: ProofNode):
    p1, p2 = node.premises
    if p1.conclusion.signature != node.conclusion.signature \
            or p2.conclusion.signature != node.conclusion.signature:
        _fail("premise signature differs")
    if p1.conclusion.antecedent != node.conclusion.antecedent:
        _fail("first premise antecedent differs")
    if p2.conclusion.antecedent != p1.conclusion.as_set():
        _fail("middle sentence sets do not match")
    if p2.conclusion.as_set() != node.conclusion.as_set():
        _fail("conclusion does not match second premise")


def _check_union(node: ProofNode):
    if not node.premises:
        _fail("rule Union needs at least one premise")
    got = set()
    for p in node.premises:
        _same_context(node, p)
        got.add(p.conclusion.single())
    if frozenset(got) != node.conclusion.as_set():
        _fail("conclusion set is not the union of premise conclusions")


def _check_translation(node: ProofNode):
    chi = node.payload.get("morphism")
    if not isinstance(chi, SignatureMorphism):
        _fail("rule Translation needs a morphism payload")
    (p,) = node.premises
    if p.conclusion.signature != chi.source:
        _fail("premise is not over the morphism source")
    if node.conclusion.signature != chi.target:
        _fail("conclusion is not over the morphism target")
    mapped_gamma = frozenset(translate_sentence(chi, s)
                             for s in p.conclusion.antecedent)
    if mapped_gamma != node.conclusion.antecedent:
        _fail("antecedent is not the translation of the premise antecedent")
    mapped = frozenset(translate_sentence(chi, s) for s in p.conclusion.as_set())
    if mapped != node.conclusion.as_set():
        _fail("conclusion is not the translation of the premise conclusion")


def _check_r(node: ProofNode):
    phi = node.conclusion.single()
    if not isinstance(phi, Eq) or phi.left != phi.right:
        _fail(f"rule R concludes t = t, got {phi}")


def _check_s(node: ProofNode):
    prem = node.premises[0].conclusion.single()
    concl = node.conclusion.single()
    if not (isinstance(prem, Eq) and isinstance(concl, Eq)
            and concl == Eq(prem.right, prem.left)):
        _fail("rule S swaps the sides of an equation")


def _check_t(node: ProofNode):
    a = node.premises[0].conclusion.single()
    b = node.premises[1].conclusion.single()
    concl = node.conclusion.single()
    if not (isinstance(a, Eq) and isinstance(b, Eq) and isinstance(concl, Eq)
            and a.right == b.left and concl == Eq(a.left, b.right)):
        _fail("rule T chains two equations")


def _check_f(node: ProofNode):
    concl = node.conclusion.single()
    if not (isinstance(concl, Eq) and isinstance(concl.left, App)
            and isinstance(concl.right, App)
            and concl.left.decl == concl.right.decl):
        _fail("rule F concludes an equation between equal head symbols")
    _expect_premises(node, len(concl.left.args))
    for p, t, u in zip(node.premises, concl.left.args, concl.right.args):
        _same_context(node, p)
        if p.conclusion.single() != Eq(t, u):
            _fail(f"premise does not justify argument equation {t} = {u}")


def _check_p(node: ProofNode):
    e1 = node.premises[0].conclusion.single()
    e2 = node.premises[1].conclusion.single()
    step = node.premises[2].conclusion.single()
    concl = node.conclusion.single()
    if not (isinstance(e1, Eq) and isinstance(e2, Eq) and isinstance(step, Trans)
            and isinstance(concl, Trans) and isinstance(step.action, Lbl)):
        _fail("rule P rewrites the endpoints of a labelled transition")
    if not (step.left == e1.left and step.right == e2.left
            and concl == Trans(e1.right, step.action, e2.right)):
        _fail("rewritten endpoints do not match the equations")


def _check_m(node: ProofNode):
    prem = node.premises[0].conclusion.single()
    concl = node.conclusion.single()
    if not (isinstance(prem, Trans) and isinstance(concl, Trans)
            and isinstance(prem.action, Lbl) and concl.action == prem.action):
        _fail("rule M lifts a labelled transition")
    if not (isinstance(concl.left, App) and isinstance(concl.right, App)
            and concl.left.decl == concl.right.decl):
        _fail("rule M conclusion heads differ")
    decl = concl.left.decl
    if decl not in node.conclusion.signature.mono:
        _fail(f"symbol {decl.name} is not monotonic")
    for k in range(len(decl.arity)):
        if (concl.left.args[k] == prem.left and concl.right.args[k] == prem.right
                and all(concl.left.args[i] == concl.right.args[i]
                        for i in range(len(decl.arity)) if i != k)):
            return
    _fail("no argument position matches the lifted step")


def _check_comp_i(node: ProofNode):
    p1 = _single_trans(node.premises[0].conclusion)
    p2 = _single_trans(node.premises[1].conclusion)
    concl = _single_trans(node.conclusion)
    if not isinstance(concl.action, Seq):
        _fail("Comp_I concludes a composite action")
    if not (p1.left == concl.left and p2.right == concl.right
            and p1.right == p2.left
            and concl.action == Seq(p1.action, p2.action)):
        _fail("composition premises do not chain")


def _check_comp_e(node: ProofNode):
    fresh = node.payload.get("fresh")
    if not isinstance(fresh, FuncDecl) or not fresh.is_constant:
        _fail("Comp_E needs a fresh constant payload")
    major, minor = node.premises
    _same_context(node, major)
    m = _single_trans(major.conclusion)
    if not isinstance(m.action, Seq):
        _fail("Comp_E major premise must carry a composite action")
    sig = node.conclusion.signature
    if fresh in sig.funcs:
        _fail(f"constant {fresh.name} is not fresh")
    ext = Signature(sig.sorts, sig.funcs | {fresh}, sig.mono, sig.labels)
    if minor.conclusion.signature != ext:
        _fail("minor premise is not over the extended signature")
    x = App(fresh, ())
    expected = node.conclusion.antecedent | {
        Trans(m.left, m.action.left, x), Trans(x, m.action.right, m.right)}
    if minor.conclusion.antecedent != expected:
        _fail("minor premise antecedent does not introduce the witness steps")
    phi = node.conclusion.single()
    if minor.conclusion.single() != phi:
        _fail("minor premise conclusion differs")
    if fresh in vocabulary(phi).funcs:
        _fail("fresh constant escapes into the conclusion")
    for s in node.conclusion.antecedent:
        if fresh in vocabulary(s).funcs:
            _fail("fresh constant occurs in the antecedent")


def _check_union_i(node: ProofNode):
    prem = _single_trans(node.premises[0].conclusion)
    concl = _single_trans(node.conclusion)
    if not isinstance(concl.action, Alt):
        _fail("Union_I concludes a union action")
    if not (prem.left == concl.left and prem.right == concl.right
            and prem.action in (concl.action.left, concl.action.right)):
        _fail("premise action is not a branch of the union")


def _check_union_e(node: ProofNode):
    major, s1, s2 = node.premises
    m = _single_trans(major.conclusion)
    if not isinstance(m.action, Alt):
        _fail("Union_E major premise must carry a union action")
    phi = node.conclusion.single()
    for side, branch in ((s1, m.action.left), (s2, m.action.right)):
        if side.conclusion.signature != node.conclusion.signature:
            _fail("side premise signature differs")
        expected = node.conclusion.antecedent | {Trans(m.left, branch, m.right)}
        if side.conclusion.antecedent != expected:
            _fail("side premise does not assume the branch transition")
        if side.conclusion.single() != phi:
            _fail("side premise conclusion differs")


def _check_star_i(node: ProofNode):
    concl = _single_trans(node.conclusion)
    if not isinstance(concl.action, Star):
        _fail("Star_I concludes a starred action")
    n = node.payload.get("n")
    if not (isinstance(n, int) and n >= 0) and not isinstance(n, SymExp):
        _fail("Star_I needs a natural (or symbolic) exponent payload")
    expected = trans(concl.left, power(concl.action.body, n), concl.right)
    if node.premises[0].conclusion.single() != expected:
        _fail(f"premise must be {expected}")


def _check_star_e(node: ProofNode) -> PremiseFamily:
    """Local side conditions; returns the family whose instances the node
    still owes."""
    if node.family is None:
        _fail("Star_E needs a premise family")
    major = node.premises[0]
    _same_context(node, major)
    m = _single_trans(major.conclusion)
    if not isinstance(m.action, Star):
        _fail("Star_E major premise must carry a starred action")
    phi = node.conclusion.single()
    family = node.family
    kappa = SymExp(family.param)
    assumption = trans(m.left, power(m.action.body, kappa), m.right)
    template = family.template
    if template.conclusion.signature != node.conclusion.signature:
        _fail("family template signature differs")
    if template.conclusion.antecedent != node.conclusion.antecedent | {assumption}:
        _fail("family template does not assume the indexed transition")
    if template.conclusion.single() != phi:
        _fail("family template conclusion differs")
    return family


def _check_family(family: PremiseFamily, mode) -> Verdict:
    if mode == "schematic":
        return check_proof(family.template, mode)
    bound = mode[1]
    for n in range(bound + 1):
        inst = instantiate_node(family.template, family.param, n)
        v = check_proof(inst, mode)
        if isinstance(v, Invalid):
            return Invalid(f"family instance n={n}: {v.reason}", v.path)
    return BoundedValid(bound)


def _check_neg_d(node: ProofNode):
    phi = node.conclusion.single()
    if node.premises[0].conclusion.single() != Neg(Neg(phi)):
        _fail("premise is not the double negation of the conclusion")


def _check_false(node: ProofNode):
    if node.premises[0].conclusion.single() != Disj(()):
        _fail("premise must conclude falsity")


def _mirror(node: ProofNode, intro: str):
    """(intro's conclusion, its premise, their names in reasons), for intro
    and the rule that mirrors it by swapping the node and its one premise."""
    p = node.premises[0]
    if node.rule == intro:
        return node, p, "conclusion", "premise"
    return p, node, "premise", "conclusion"


def _check_negation(node: ProofNode):
    """Neg_I: Γ ⊢ ¬φ from Γ ∪ {φ} ⊢ ⊥. Neg_E: Γ ∪ {φ} ⊢ ⊥ from Γ ⊢ ¬φ."""
    if node.premises[0].conclusion.signature != node.conclusion.signature:
        _fail("premise signature differs")
    neg, absurd, neg_side, absurd_side = _mirror(node, "Neg_I")
    phi = neg.conclusion.single()
    if not isinstance(phi, Neg):
        _fail(f"{node.rule} {neg_side} is not a negation")
    if absurd.conclusion.antecedent != neg.conclusion.antecedent | {phi.body}:
        _fail(f"{absurd_side} must assume the negated sentence")
    if absurd.conclusion.single() != Disj(()):
        _fail(f"{absurd_side} must be falsity")


def _check_disj_i(node: ProofNode):
    concl = node.conclusion.single()
    if not isinstance(concl, Disj):
        _fail("Disj_I concludes a disjunction")
    if node.premises[0].conclusion.single() not in concl.items:
        _fail("premise is not a disjunct of the conclusion")


def _check_disj_e(node: ProofNode):
    if not node.premises:
        _fail("Disj_E needs a major premise")
    major, *sides = node.premises
    _same_context(node, major)
    m = major.conclusion.single()
    if not isinstance(m, Disj):
        _fail("Disj_E major premise concludes a disjunction")
    gamma_concl = node.conclusion.single()
    if len(sides) != len(m.items):
        _fail(f"Disj_E needs one side premise per disjunct ({len(m.items)})")
    remaining = list(m.items)
    for side in sides:
        if side.conclusion.signature != node.conclusion.signature:
            _fail("side premise signature differs")
        if side.conclusion.single() != gamma_concl:
            _fail("side premise conclusion differs")
        extra = side.conclusion.antecedent - node.conclusion.antecedent
        matched = None
        for phi in remaining:
            if side.conclusion.antecedent == node.conclusion.antecedent | {phi}:
                matched = phi
                break
        if matched is None:
            _fail(f"side premise does not assume a remaining disjunct "
                  f"(extra assumptions: {[str(e) for e in extra]})")
        remaining.remove(matched)


def _check_quantifier(node: ProofNode):
    """Quant_I: Γ ∪ {∃X.ρ} ⊢ ψ from Γ ∪ {ρ} ⊢ ψ over the signature extended
    by X, where X is not free in Γ or ψ. Quant_E: the same two sequents with
    the node and the premise swapped."""
    ex = node.payload.get("exists")
    if not isinstance(ex, Exists):
        _fail(f"{node.rule} needs the existential sentence as payload")
    outer, inner, outer_side, inner_side = _mirror(node, "Quant_I")
    if ex not in outer.conclusion.antecedent:
        _fail("the existential sentence is not among the "
              f"{outer_side} antecedents")
    ext = extend_signature(outer.conclusion.signature, ex.variables)
    if inner.conclusion.signature != ext:
        _fail(f"{inner_side} is not over the variable-extended signature")
    gamma = outer.conclusion.antecedent - {ex}
    if inner.conclusion.antecedent != gamma | {ex.body}:
        _fail(f"{inner_side} antecedent must replace the existential by its "
              "body")
    psi = node.conclusion.single()
    if node.premises[0].conclusion.single() != psi:
        _fail("premise conclusion differs")
    for s in gamma | {psi}:
        if vocabulary(s).free & ex.variables:
            _fail("quantified variables occur free outside the existential")


def _check_images(theta: Mapping):
    """Each image θ(x) has x's sort and is ground, so θ can be applied."""
    for x, t in theta.items():
        if t.sort != x.sort:
            _fail(f"substitution for {x.name} has sort {t.sort}, expected {x.sort}")
        if not is_ground(t):
            _fail(f"substitution image for {x.name} is not ground")


def _check_subst(node: ProofNode):
    concl = node.conclusion.single()
    if not isinstance(concl, Exists):
        _fail("Subst concludes an existential")
    theta = node.payload.get("subst")
    if not isinstance(theta, dict):
        _fail("Subst needs a substitution payload")
    if set(theta) != set(concl.variables):
        _fail("substitution domain must be the quantified variable set")
    _check_images(theta)
    expected = apply_substitution(theta, concl.body)
    if node.premises[0].conclusion.single() != expected:
        _fail(f"premise must be the instance {expected}")


def _check_basic_oracle(node: ProofNode):
    phi = node.conclusion.single()
    if not is_atomic(phi) or not (is_ground(phi.left) and is_ground(phi.right)):
        _fail(f"BasicOracle handles ground atoms only, got {phi}")
    atoms = tuple(s for s in node.conclusion.antecedent
                  if is_atomic(s) and is_ground(s.left) and is_ground(s.right))
    theory = GroundTheory(node.conclusion.signature, atoms)
    if not decide_basic(theory, phi):
        _fail(f"atom {phi} is not a basic consequence of the antecedent atoms")


def _gmp_shape(node: ProofNode):
    X = node.payload.get("X", frozenset())
    phis = tuple(node.payload.get("Phi", ()))
    gamma = node.payload.get("gamma")
    theta = node.payload.get("subst", {})
    if gamma is None:
        _fail("GMP needs the schema conclusion as payload")
    if set(theta) != set(X):
        _fail("GMP substitution domain must be the quantified variable set")
    return frozenset(X), phis, gamma, theta


def _schema(X: frozenset, phis: tuple, gamma: Sentence) -> Sentence:
    return forall(X, implies(conj(phis), gamma) if phis else gamma)


def _check_gmp(node: ProofNode, schemas: Optional[dict] = None):
    """schemas maps each (X, Φ, γ) met in a walk to its ∀X. ⋀Φ → γ; equal
    keys give alpha-equal schemas. Without it the schema is built anew."""
    schemas = {} if schemas is None else schemas
    X, phis, gamma, theta = _gmp_shape(node)
    _expect_premises(node, 1 + len(phis))
    for p in node.premises:
        _same_context(node, p)
    _check_images(theta)
    key = (X, phis, gamma)
    expected_axiom = schemas.get(key)
    if expected_axiom is None:
        expected_axiom = schemas[key] = _schema(*key)
    if node.premises[0].conclusion.single() != expected_axiom:
        # named as this node states it, not as an alpha-variant met before
        _fail(f"first premise must conclude {_schema(*key)}")
    for p, phi in zip(node.premises[1:], phis):
        inst = apply_substitution(theta, phi)
        if p.conclusion.single() != inst:
            _fail(f"premise must conclude the instance {inst}")
    if node.conclusion.single() != apply_substitution(theta, gamma):
        _fail("conclusion is not the substituted schema conclusion")


# Each rule's checker, its premise count (None where the checker counts
# them) and how many leading premises share the node's signature and
# antecedent; _check tests the count, then the context, then calls the
# checker.
_RULES = {
    "Monotonicity": (_check_monotonicity_rule, 0, 0),
    "Transitivity": (_check_transitivity, 2, 0),
    "Union": (_check_union, None, 0),
    "Translation": (_check_translation, 1, 0),
    "R": (_check_r, 0, 0),
    "S": (_check_s, 1, 1),
    "T": (_check_t, 2, 2),
    "F": (_check_f, None, 0),
    "P": (_check_p, 3, 3),
    "M": (_check_m, 1, 1),
    "Comp_I": (_check_comp_i, 2, 2),
    "Comp_E": (_check_comp_e, 2, 0),
    "Union_I": (_check_union_i, 1, 1),
    "Union_E": (_check_union_e, 3, 1),
    "Star_I": (_check_star_i, 1, 1),
    "Star_E": (_check_star_e, 1, 0),
    "Neg_D": (_check_neg_d, 1, 1),
    "False": (_check_false, 1, 1),
    "Neg_I": (_check_negation, 1, 0),
    "Neg_E": (_check_negation, 1, 0),
    "Disj_I": (_check_disj_i, 1, 1),
    "Disj_E": (_check_disj_e, None, 0),
    "Quant_I": (_check_quantifier, 1, 0),
    "Quant_E": (_check_quantifier, 1, 0),
    "Subst": (_check_subst, 1, 1),
    "BasicOracle": (_check_basic_oracle, 0, 0),
    "GMP": (_check_gmp, None, 0),
}

_PREMISES = attrgetter("premises")


def check_proof(root: ProofNode, mode="schematic") -> Verdict:
    """mode is "schematic" or ("bounded", B). Each distinct node is checked
    once, premises first; the first Invalid ends the walk, at the path on
    which the walk first met its node. Otherwise the proof is
    BOUNDED_VALID(B) if a family of it was checked up to B."""
    if mode != "schematic" and not (isinstance(mode, tuple) and mode[0] == "bounded"):
        raise ValueError(f"bad mode {mode!r}")
    schemas: dict = {}                      # GMP schemas of this walk
    if not root.premises:
        return _check(root, mode, schemas)  # most family instances
    verdict: Verdict = Valid()
    for node, path in postorder([root], _PREMISES):
        v = _check(node, mode, schemas)
        if isinstance(v, Invalid):
            return Invalid(v.reason, (*path, *v.path))
        if isinstance(v, BoundedValid):
            verdict = v
    return verdict


def _check(node: ProofNode, mode, schemas: dict) -> Verdict:
    """node's own rule and premise family; its premises are checked apart.
    An Invalid's path starts at node; schemas is _check_gmp's memo."""
    try:
        rule = _RULES.get(node.rule)
        if rule is None:
            _fail(f"unknown rule {node.rule!r}")
        checker, count, shared = rule
        if count is not None:
            _expect_premises(node, count)
        for p in node.premises[:shared]:
            _same_context(node, p)
        family = (checker(node, schemas) if checker is _check_gmp
                  else checker(node))
    except (_Violation, NotAtomicError, SetFormConclusion) as v:
        return Invalid(str(v))
    return Valid() if family is None else _check_family(family, mode)


# ---------------------------------------------------------------------------
# Proof builders (used by the GMP expansion, the .tap builder and the CCS
# proof synthesizer)


def mono_node(sig: Signature, gamma: frozenset, concl: Conclusion) -> ProofNode:
    return ProofNode(Sequent.make(sig, gamma, concl), "Monotonicity")


def gmp_leaf(inst: Sentence, gamma: frozenset) -> bool:
    """Whether gmp_node proves a GMP premise instance by a Monotonicity leaf:
    it is a negation in Γ."""
    return isinstance(inst, Neg) and inst in gamma


def gmp_node(sig: Signature, gamma: frozenset, axiom, theta: Mapping,
             premises: Iterable[ProofNode],
             conclusion: Optional[Sentence] = None) -> ProofNode:
    """Γ ⊢ θ(γ) by GMP from the schema ∀X. ⋀Φ → γ that `axiom` describes
    (its variables, premises, conclusion and sentence). The schema and each
    premise instance that is a negation in Γ get Monotonicity leaves; the
    supplied proofs stand for the other premise instances, in order, and the
    kernel checks what they conclude. The conclusion defaults to θ(γ)."""
    supplied = list(premises)
    leaves = [mono_node(sig, gamma, axiom.sentence)]
    for phi in axiom.premises:
        # substitution keeps the top connective: only a negation can be a leaf
        inst = apply_substitution(theta, phi) if isinstance(phi, Neg) else None
        if inst is not None and gmp_leaf(inst, gamma):
            leaves.append(mono_node(sig, gamma, inst))
        elif not supplied:
            raise ValueError("missing premise for "
                             f"{apply_substitution(theta, phi)}")
        else:
            leaves.append(supplied.pop(0))
    if supplied:
        raise ValueError("too many premises")
    if conclusion is None:
        conclusion = apply_substitution(theta, axiom.conclusion)
    return ProofNode(Sequent(sig, gamma, conclusion), "GMP", tuple(leaves),
                     {"X": axiom.variables, "Phi": axiom.premises,
                      "gamma": axiom.conclusion, "subst": dict(theta)})


def weaken(node: ProofNode, gamma: frozenset) -> ProofNode:
    """Γ ⊢ Ψ and Γ ⊆ Γ' give Γ' ⊢ Ψ (Monotonicity then Transitivity)."""
    old = node.conclusion.antecedent
    if old == gamma:
        return node
    if not old <= gamma:
        raise ValueError("weakening must grow the antecedent")
    sig = node.conclusion.signature
    bridge = mono_node(sig, gamma, frozenset(old))
    return ProofNode(Sequent(sig, gamma, node.conclusion.conclusion),
                     "Transitivity", (bridge, node))


def cut(first: ProofNode, second: ProofNode) -> ProofNode:
    """From Γ ⊢ φ and Γ ∪ {φ} ⊢ ψ conclude Γ ⊢ ψ."""
    sig = first.conclusion.signature
    gamma = first.conclusion.antecedent
    phi = first.conclusion.single()
    if second.conclusion.antecedent != gamma | {phi}:
        raise ValueError("cut premises do not fit")
    members = [mono_node(sig, gamma, s) for s in sorted(gamma, key=str)]
    union = ProofNode(Sequent(sig, gamma, frozenset(gamma | {phi})),
                      "Union", (*members, first))
    return ProofNode(Sequent(sig, gamma, second.conclusion.conclusion),
                     "Transitivity", (union, second))


def _conj_intro(sig: Signature, gamma: frozenset,
                proofs: Mapping[Sentence, ProofNode]) -> ProofNode:
    """From Γ ⊢ s for every s, conclude Γ ⊢ ⋀{s}."""
    sentences = list(proofs)
    big = disj(Neg(s) for s in sentences)
    gamma2 = gamma | {big}
    major = mono_node(sig, gamma2, big)
    sides = []
    for item in big.items:
        assert isinstance(item, Neg)
        s = item.body
        gamma3 = gamma2 | {item}
        neg_fact = mono_node(sig, gamma3, item)
        neg_e = ProofNode(Sequent(sig, gamma3 | {s}, Disj(())), "Neg_E", (neg_fact,))
        if s in gamma3:
            sides.append(neg_e)
        else:
            sides.append(cut(weaken(proofs[s], gamma3), neg_e))
    disj_e = ProofNode(Sequent(sig, gamma2, Disj(())), "Disj_E", (major, *sides))
    return ProofNode(Sequent(sig, gamma, Neg(big)), "Neg_I", (disj_e,))


def expand_gmp(node: ProofNode) -> ProofNode:
    """An equivalent subtree using only primitive rules."""
    if node.rule != "GMP":
        raise ValueError("not a GMP node")
    X, phis, gamma_s, theta = _gmp_shape(node)
    sig = node.conclusion.signature
    gamma = node.conclusion.antecedent
    axiom_proof, *inst_proofs = node.premises
    target = apply_substitution(theta, gamma_s)
    hyp = Neg(target)
    gamma1 = gamma | {hyp}

    if phis:
        body = implies(conj(phis), gamma_s)          # the quantified schema body
        inst_conj = apply_substitution(
            theta, conj(phis))                       # = ⋀ θ(Φ)
        if len(phis) == 1:
            conj_proof = weaken(inst_proofs[0], gamma1)
        else:
            proofs = {apply_substitution(theta, p): weaken(q, gamma1)
                      for p, q in zip(phis, inst_proofs)}
            conj_proof = _conj_intro(sig, gamma1, proofs)
        # Γ1 ⊢ ¬(¬⋀θΦ ∨ θγ) by refuting both disjuncts
        inner = disj((Neg(inst_conj), target))
        gamma2 = gamma1 | {inner}
        major = mono_node(sig, gamma2, inner)
        sides = []
        for item in inner.items:
            gamma3 = gamma2 | {item}
            if item == Neg(inst_conj):
                neg_fact = mono_node(sig, gamma3, item)
                neg_e = ProofNode(Sequent(sig, gamma3 | {inst_conj}, Disj(())),
                                  "Neg_E", (neg_fact,))
                sides.append(cut(weaken(conj_proof, gamma3), neg_e))
            else:
                neg_fact = mono_node(sig, gamma3, hyp)
                neg_e = ProofNode(Sequent(sig, gamma3 | {target}, Disj(())),
                                  "Neg_E", (neg_fact,))
                sides.append(neg_e)
        disj_e = ProofNode(Sequent(sig, gamma2, Disj(())), "Disj_E",
                           (major, *sides))
        witness = ProofNode(Sequent(sig, gamma1, Neg(inner)), "Neg_I", (disj_e,))
        ex = Exists(X, Neg(body))
    else:
        # plain universal instantiation: θ(¬γ) = ¬θγ is the hypothesis itself
        witness = mono_node(sig, gamma1, hyp)
        ex = Exists(X, Neg(gamma_s))

    subst_node = ProofNode(Sequent(sig, gamma1, ex), "Subst", (witness,),
                           {"subst": dict(theta)})
    univ = weaken(axiom_proof, gamma1)               # Γ1 ⊢ ¬∃X¬body
    neg_e = ProofNode(Sequent(sig, gamma1 | {ex}, Disj(())), "Neg_E", (univ,))
    absurd = cut(subst_node, neg_e) if ex not in gamma1 else neg_e
    neg_i = ProofNode(Sequent(sig, gamma, Neg(hyp)), "Neg_I", (absurd,))
    return ProofNode(Sequent(sig, gamma, target), "Neg_D", (neg_i,))


def basic_oracle_leaf(sig: Signature, gamma: Iterable[Sentence],
                      phi: Sentence) -> ProofNode:
    return ProofNode(Sequent.make(sig, gamma, phi), "BasicOracle")
