"""Seeded inputs and checked operations for the four workloads.

Each `make_<workload>(rng, work)` writes its input files under `work` and
returns one round: a list of `Op`. Every operation is one call of
`talgebra.cli.main([..., "--format", "json"])`, except term-model
construction, which has no command and calls `talgebra.basic.build_term_model`
directly. Each op carries a check that recomputes the expected answer with
`reference.py`; checks run outside the timed region.

The mix of a round is fixed per workload (the counts below) and sizes come
from fixed ladders. The expensive inputs, which set the throughput and the
90th percentile, have their structure drawn from a fixed generator
(`_template_rng`); the seed only renames what does not change the work (labels,
model elements, the order of operations). The many cheap inputs, which set
the median, are drawn from the seed outright. So the cost of a round depends
little on the seed, while every seed gives other inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import talgebra.basic
import talgebra.calculus
import talgebra.ccs
import talgebra.formats
from talgebra.syntax import (Alt, App, Disj, Eq, FuncDecl, Lbl, Seq,
                             Signature, Star, Trans, Var, Variable, exists)

import reference

DATA = Path(talgebra.__file__).resolve().parent / "data"


@dataclass
class Op:
    kind: str
    argv: Optional[list] = None          # CLI arguments; None for a call
    call: Optional[Callable] = None      # direct call into the package
    check: Optional[Callable] = None     # (rc, stdout, result) -> error or None


def _cli(kind, argv, check):
    return Op(kind, argv=[str(a) for a in argv] + ["--format", "json"],
              check=check)


def _expect(ok: bool, message: str):
    return None if ok else message


def _template_rng(name: str) -> random.Random:
    return random.Random(f"template:{name}")


# ---------------------------------------------------------------------------
# ground: congruence closure on random ground theories

A, B, C = (FuncDecl(n, (), "s") for n in "abc")
F = FuncDecl("f", ("s",), "s")
G = FuncDecl("g", ("s", "s"), "s")
GROUND_SIG = Signature.make(["s"], [A, B, C, F, G], mono=[F, G],
                            labels=["lam", "mu"])
SMALL_SIG = Signature.make(["s"], [A, B, F], mono=[F], labels=["lam", "mu"])
LABELS = ("lam", "mu")

# one query theory per atom count, each with one goal; six copies of the
# 16-atom query put the 90th percentile of a round in their middle
GROUND_ATOMS = tuple(range(12, 25)) + (16,) * 5
# criterion-03-style theories, each built as a term model and queried twice
GROUND_SMALL_THEORIES = 28


def _const(d):
    return App(d, ())


def _shaped_term(rng, depth):
    """A ground term of exactly this depth over a, b, c, f and g."""
    if depth == 0:
        return _const(rng.choice((A, B, C)))
    if rng.random() < 0.7:
        return App(F, (_shaped_term(rng, depth - 1),))
    args = [_shaped_term(rng, depth - 1), _shaped_term(rng, rng.randrange(depth))]
    rng.shuffle(args)
    return App(G, tuple(args))


def _query_atoms(rng, n):
    # depths and atom kinds follow a fixed pattern; symbols are random
    atoms = []
    for i in range(n):
        left = _shaped_term(rng, i % 4)
        right = _shaped_term(rng, (3 * i + 1) % 4)
        if i % 5 == 0:
            atoms.append(Eq(left, right))
        else:
            atoms.append(Trans(left, Lbl(LABELS[i % 2]), right))
    return atoms


def _universe_size(atoms):
    out = set()
    for phi in atoms:
        reference.subterms(phi.left, out)
        reference.subterms(phi.right, out)
    return len(out)


def _query_theory(rng, n):
    # of five draws, the one with the median subterm count, so that no atom
    # count of the ladder gets an outlying congruence-closure problem
    cands = [_query_atoms(rng, n) for _ in range(5)]
    cands.sort(key=_universe_size)
    return cands[2]


def _lifted_goal(rng, atoms):
    """A goal that follows by rule F or M from an atom of the theory."""
    phi = rng.choice(atoms)
    other = _const(rng.choice((A, B, C)))
    if rng.random() < 0.5:
        lift = lambda t: App(F, (t,))
    else:
        lift = lambda t: App(G, (t, other))
    if isinstance(phi, Eq):
        return Eq(lift(phi.left), lift(phi.right))
    return Trans(lift(phi.left), phi.action, lift(phi.right))


def _rename(phi, labels):
    if isinstance(phi, Eq):
        return phi
    return Trans(phi.left, Lbl(labels[phi.action.name]), phi.right)


def _random_atom(rng, term):
    left, right = term(), term()
    if rng.random() < 0.5:
        return Eq(left, right)
    return Trans(left, Lbl(rng.choice(LABELS)), right)


def _theory_text(name, sig_lines, axioms):
    lines = [f"theory {name}", *sig_lines, "axioms"]
    lines += [f"  {phi}" for phi in axioms]
    return "\n".join(lines) + "\n"


GROUND_SIG_LINES = ("sorts s", "ops", "  a : -> s", "  b : -> s",
                    "  c : -> s", "  f : s -> s [mono]",
                    "  g : s s -> s [mono]", "labels lam, mu")
SMALL_SIG_LINES = ("sorts s", "ops", "  a : -> s", "  b : -> s",
                   "  f : s -> s [mono]", "labels lam, mu")


def _entail_check(atoms, goal, mono):
    expected = []

    def check(rc, out, _):
        if not expected:
            expected.append(reference.ground_entails(atoms, goal, mono))
        holds = json.loads(out)["holds"]
        return _expect(holds == expected[0] and rc == (0 if holds else 1),
                       f"entail-basic {goal}: got {holds} (exit {rc}), "
                       f"naive closure says {expected[0]}")
    return check, expected


def make_ground(rng: random.Random, work: Path) -> list:
    ops = []
    for k, n in enumerate(GROUND_ATOMS):
        shape = _template_rng(f"ground{n}")
        atoms = _query_theory(shape, n)
        if n % 2:
            goal = _random_atom(shape, lambda: _shaped_term(
                shape, shape.randrange(3)))
        else:
            goal = _lifted_goal(shape, atoms)
        # renaming constants would reorder terms and change the work of the
        # closure (161 to 281 ms at 16 atoms), so only labels are renamed
        labels = dict(zip(LABELS, rng.sample(LABELS, 2)))
        atoms = [_rename(phi, labels) for phi in atoms]
        goal = _rename(goal, labels)
        path = work / f"query{k}.ta"
        path.write_text(_theory_text(f"query{k}", GROUND_SIG_LINES, atoms))
        check, _ = _entail_check(atoms, goal, GROUND_SIG.mono)
        ops.append(_cli("entail-basic", ["entail-basic", path, str(goal)],
                        check))

    def small_term(depth=2):
        t = _const(rng.choice((A, B)))
        for _ in range(rng.randrange(depth + 1)):
            t = App(F, (t,))
        return t

    for k in range(GROUND_SMALL_THEORIES):
        # f(a) and f(b) fall back into {a, b}, so the term model is finite
        atoms = [Eq(App(F, (_const(A),)), _const(rng.choice((A, B)))),
                 Eq(App(F, (_const(B),)), _const(rng.choice((A, B))))]
        atoms += [_random_atom(rng, small_term) for _ in range(k % 5)]
        path = work / f"small{k}.ta"
        path.write_text(_theory_text(f"small{k}", SMALL_SIG_LINES, atoms))
        goals = [_random_atom(rng, small_term) for _ in range(2)]
        check, expected = _entail_check(atoms, goals[0], SMALL_SIG.mono)
        ops.append(Op("term-model",
                      call=_term_model_call(atoms),
                      check=_term_model_check(atoms, goals[0], expected)))
        ops.append(_cli("entail-basic", ["entail-basic", path, str(goals[0])],
                        check))
        check, _ = _entail_check(atoms, goals[1], SMALL_SIG.mono)
        ops.append(_cli("entail-basic", ["entail-basic", path, str(goals[1])],
                        check))
    rng.shuffle(ops)
    return ops


def _term_model_call(atoms):
    def call():
        theory = talgebra.basic.GroundTheory(SMALL_SIG, tuple(atoms))
        return talgebra.basic.build_term_model(theory)
    return call


def _term_model_check(atoms, goal, expected):
    def check(_rc, _out, result):
        if isinstance(result, talgebra.basic.Unbounded):
            return f"term model of {len(atoms)} atoms is unbounded"
        if not expected:
            expected.append(reference.ground_entails(atoms, goal,
                                                     SMALL_SIG.mono))
        m = reference.model_of(result)
        if not all(reference.holds(m, phi) for phi in atoms):
            return "term model does not satisfy its theory"
        return _expect(reference.holds(m, goal) == expected[0],
                       f"term model disagrees with the verdict on {goal}")
    return check


# ---------------------------------------------------------------------------
# models: finiteness, reachability and bounded countermodel search

# six more 14-cycles put the 90th percentile of a round among identical
# operations
CYCLE_SIZES = tuple(range(6, 21, 2)) + (14,) * 6
NEAR_CYCLE_SIZES = tuple(range(6, 21))
NEAR_CYCLE_KINDS = ("two-cycles", "branch", "chain")
REACH_SIZES = (20, 30, 40, 50, 60)
ORACLE_SIZE2_GOALS = 36     # per kind (countermodel / proved)
ORACLE_SIZE3_COUNTER = 2
ORACLE_SIZE3_PROVED = 1

REACH_THEORY = """\
theory reach
sorts s
ops
  a : -> s
labels lam
axioms
  "reach": forall {x:s} . a =[lam*]=> x
"""


def _graph_model(names, edges, a=None):
    """A .tam model listing the elements in the order of `names`."""
    lines = ["model", "carrier s = " + ", ".join(names)]
    if a is not None:
        lines.append(f"fun a = {names[a]}")
    if edges:
        lines.append("rel lam s = " + ", ".join(
            f"({names[x]}, {names[y]})" for x, y in sorted(edges)))
    return "\n".join(lines) + "\n"


def _names(rng, n):
    ids = rng.sample(range(10 * n), n)
    return [f"e{i}" for i in ids]


def _cycle_edges(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return {(order[i], order[(i + 1) % n]) for i in range(n)}, order


def _near_cycle(rng, n, kind):
    edges, order = _cycle_edges(rng, n)
    if kind == "chain":
        edges.discard((order[-1], order[0]))
    elif kind == "branch":
        x, y = rng.sample(range(n), 2)
        while (x, y) in edges:
            x, y = rng.sample(range(n), 2)
        edges.add((x, y))
    else:
        k = rng.randint(2, n - 2)
        edges = {(order[i], order[(i + 1) % k]) for i in range(k)}
        edges |= {(order[k + i], order[k + (i + 1) % (n - k)])
                  for i in range(n - k)}
    return edges


def _reach_graph(shape, rng, n, all_reachable):
    """Element 0 interprets a. A random tree from it, plus extra edges; when
    one element must stay unreachable, no edge enters it. The graph comes
    from `shape`; `rng` permutes its elements, keeping the last one last, so
    an unreachable element is always the last one the check visits."""
    last = n - 1
    inside = list(range(1, n if all_reachable else last))
    shape.shuffle(inside)
    edges = set()
    placed = [0]
    for v in inside:
        edges.add((shape.choice(placed), v))
        placed.append(v)
    for _ in range(n // 4):
        edges.add((shape.randrange(n), shape.choice(placed)))
    perm = list(range(last))
    rng.shuffle(perm)
    perm.append(last)
    return {(perm[x], perm[y]) for x, y in edges}, perm[0]


def _check_model_check(expected):
    def check(rc, out, _):
        got = json.loads(out)["all_hold"]
        return _expect(got == expected and rc == (0 if got else 1),
                       f"check-model says {got} (exit {rc}), the graph test "
                       f"says {expected}")
    return check


ONE_LINES = ("sorts s", "ops", "  a : -> s", "  b : -> s",
             "  f : s -> s [mono]", "labels lam")
TWO_LINES = ("sorts s", "ops", "  a : -> s", "labels lam, mu")
ONE_SIG = Signature.make(["s"], [A, B, F], mono=[F], labels=["lam"])
TWO_SIG = Signature.make(["s"], [A], labels=["lam", "mu"])


def _one_term(rng, depth=1):
    t = _const(rng.choice((A, B)))
    for _ in range(rng.randint(0, depth)):
        t = App(F, (t,))
    return t


def _proved_goal(rng, shape):
    """(signature lines, gamma, goal, proof) for a goal with a one- or
    two-step kernel proof of this shape, as in the criterion-10 registry."""
    from talgebra.calculus import ProofNode, Sequent

    a = _const(A)
    lam, mu = Lbl("lam"), Lbl("mu")
    t, u = _one_term(rng), _one_term(rng)
    while u == t:
        u = _one_term(rng)

    def leaf(sig, gamma, phi):
        return ProofNode(Sequent(sig, frozenset(gamma), phi), "Monotonicity")

    def node(sig, gamma, phi, rule, premises, payload=None):
        return ProofNode(Sequent(sig, frozenset(gamma), phi), rule,
                         tuple(premises), payload or {})

    if shape == 0:
        g = [Eq(t, u)]
        goal = Eq(App(F, (t,)), App(F, (u,)))
        proof = node(ONE_SIG, g, goal, "F", [leaf(ONE_SIG, g, g[0])])
    elif shape == 1:
        g = [Eq(t, u)]
        goal = Eq(u, t)
        proof = node(ONE_SIG, g, goal, "S", [leaf(ONE_SIG, g, g[0])])
    elif shape == 2:
        g = [Trans(t, lam, u)]
        goal = Trans(App(F, (t,)), lam, App(F, (u,)))
        proof = node(ONE_SIG, g, goal, "M", [leaf(ONE_SIG, g, g[0])])
    elif shape == 3:
        g = [Trans(t, lam, u)]
        goal = Trans(t, Star(lam), u)
        proof = node(ONE_SIG, g, goal, "Star_I", [leaf(ONE_SIG, g, g[0])],
                     {"n": 1})
    elif shape == 4:
        v = _one_term(rng)
        g = [Eq(t, u), Eq(u, v)]
        goal = Eq(t, v)
        proof = node(ONE_SIG, g, goal, "T",
                     [leaf(ONE_SIG, g, g[0]), leaf(ONE_SIG, g, g[1])])
    elif shape == 5:
        g = [Trans(a, lam, a), Trans(a, mu, a)]
        goal = Trans(a, Seq(lam, mu), a)
        proof = node(TWO_SIG, g, goal, "Comp_I",
                     [leaf(TWO_SIG, g, g[0]), leaf(TWO_SIG, g, g[1])])
        return TWO_LINES, g, goal, proof
    else:
        g = [Trans(a, lam, a)]
        goal = Trans(a, Alt(lam, mu), a)
        proof = node(TWO_SIG, g, goal, "Union_I", [leaf(TWO_SIG, g, g[0])])
        return TWO_LINES, g, goal, proof
    return ONE_LINES, g, goal, proof


def _counter_goal(rng, variant, pair=None):
    """(signature lines, gamma, goal) with a countermodel of size two."""
    a = _const(A)
    if variant == 0:
        t, u = pair
        return ONE_LINES, [Trans(t, Lbl("lam"), u)], Trans(u, Lbl("lam"), t)
    lam, mu = Lbl("lam"), Lbl("mu")
    gamma = [Trans(a, rng.choice((lam, mu)), a)]
    return TWO_LINES, gamma, Trans(a, Seq(lam, mu), a)


def _size3_counter_goal(variant):
    """a, b and f(a) pairwise distinct: a countermodel needs three
    elements. Fixed, so the search visits the same candidates every run."""
    a, b = _const(A), _const(B)
    goal = Disj(tuple(Eq(x, y) for x, y in
                      itertools.combinations([a, b, App(F, (a,))], 2)))
    return ONE_LINES, [Trans(a, Lbl("lam"), b)] if variant else [], goal


def _oracle_check(gamma, goal, proof):
    def check(rc, out, _):
        text = json.loads(out)["countermodel"]
        if proof is not None:
            verdict = talgebra.calculus.check_proof(proof)
            if not isinstance(verdict, talgebra.calculus.Valid):
                return f"benchmark proof of {goal} is not valid: {verdict}"
            return _expect(text is None and rc == 0,
                           f"countermodel returned for proved goal {goal}")
        if text is None or rc != 1:
            return f"no countermodel for {goal} (exit {rc})"
        m = reference.parse_tam(text)
        return _expect(all(reference.holds(m, phi) for phi in gamma)
                       and not reference.holds(m, goal),
                       f"returned model is no countermodel to {goal}")
    return check


def make_models(rng: random.Random, work: Path) -> list:
    ops = []
    phi_omega = DATA / "phi_omega.ta"
    k = 0

    def model_file(text):
        nonlocal k
        k += 1
        path = work / f"m{k}.tam"
        path.write_text(text)
        return path

    for n in CYCLE_SIZES:
        edges, _ = _cycle_edges(rng, n)
        path = model_file(_graph_model(_names(rng, n), edges))
        ops.append(_cli("finiteness", ["check-model", phi_omega, path],
                        _check_model_check(reference.is_single_cycle(n, edges))))
    for i, n in enumerate(NEAR_CYCLE_SIZES):
        edges = _near_cycle(rng, n, NEAR_CYCLE_KINDS[i % 3])
        path = model_file(_graph_model(_names(rng, n), edges))
        ops.append(_cli("finiteness", ["check-model", phi_omega, path],
                        _check_model_check(reference.is_single_cycle(n, edges))))
    reach = work / "reach.ta"
    reach.write_text(REACH_THEORY)
    for n in REACH_SIZES:
        for all_reachable in (True, False):
            edges, a = _reach_graph(_template_rng(f"reach{n}{all_reachable}"),
                                    rng, n, all_reachable)
            path = model_file(_graph_model(_names(rng, n), edges, a=a))
            expected = len(reference.reachable(edges, a)) == n
            ops.append(_cli("reachability", ["check-model", reach, path],
                            _check_model_check(expected)))
    j = 0

    def oracle(kind, lines, gamma, goal, size, proof=None):
        nonlocal j
        j += 1
        path = work / f"gamma{j}.ta"
        path.write_text(_theory_text(f"gamma{j}", lines, gamma))
        ops.append(_cli(kind, ["oracle", path, str(goal), "--max-size", size],
                        _oracle_check(gamma, goal, proof)))

    # where the search meets its first countermodel depends on the terms, so
    # every ordered pair of distinct terms gets its share of the goals
    terms = [_const(A), _const(B), App(F, (_const(A),)), App(F, (_const(B),))]
    pairs = list(itertools.permutations(terms, 2))
    rng.shuffle(pairs)
    for i in range(ORACLE_SIZE2_GOALS):
        lines, gamma, goal = _counter_goal(rng, i % 2, pairs[i // 2 % 12])
        oracle("oracle-2", lines, gamma, goal, 2)
        lines, gamma, goal, proof = _proved_goal(rng, i % 7)
        oracle("oracle-2", lines, gamma, goal, 2, proof)
    for i in range(ORACLE_SIZE3_COUNTER):
        lines, gamma, goal = _size3_counter_goal(i % 2)
        oracle("oracle-3", lines, gamma, goal, 3)
    for i in range(ORACLE_SIZE3_PROVED):
        # shapes 0-4 are over the signature with a, b and f
        lines, gamma, goal, proof = _proved_goal(rng, i % 5)
        oracle("oracle-3", lines, gamma, goal, 3, proof)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# proofs: kernel checks of generated and shipped proof scripts, CCS search

WORD_LENGTHS = (40, 140)
# star_loop checks per round, B spread evenly over 1..240: both the median
# and the 90th percentile of a round fall among them, where their times lie
# close together, rather than among a few identical operations
STAR_BOUNDS = tuple(1 + round(k * 239 / 89) for k in range(90))
INSTITUTE_REPLAYS = 6
SEARCH_DEPTHS = (10, 11, 12, 13)
CCS_NAMES = ("P", "Q", "R", "S", "T", "U", "V", "W")
CCS_CHANNELS = ("a", "b", "c", "d", "e", "go", "tick", "tock")


def _word_script(compiled, length, names):
    """A .tap script proving the institute's action word of this length, and
    the same script with the root's target process replaced."""
    prog = compiled.program
    start = talgebra.ccs.institute_process()
    steps, p = [], start
    for _ in range(length):
        step = talgebra.ccs.ccs_steps(prog, p)[0]
        steps.append(step)
        p = step.target
    proof = talgebra.ccs.certify_word(compiled, start, steps)
    text = talgebra.formats.print_proof(proof, axiom_names=names)
    concl = proof.conclusion.single()
    wrong = compiled.term_of(steps[-2].target)
    root_line = next(line for line in text.splitlines()
                     if line.startswith(text.splitlines()[-1].split()[1] + " "))
    mutant_line = root_line.replace(f'=> {concl.right}"', f'=> {wrong}"')
    assert mutant_line != root_line and str(wrong) != str(concl.right)
    return text, text.replace(root_line, mutant_line)


def _prove_check(expect_rc, verdict_ok, what):
    def check(rc, out, _):
        report = json.loads(out)
        return _expect(rc == expect_rc and verdict_ok(report),
                       f"{what}: exit {rc}, verdict {report.get('verdict')}")
    return check


def make_proofs(rng: random.Random, work: Path) -> list:
    ops = []
    ccs_file = DATA / "mathematician.ccs"
    restrict = ["--restrict", "coin,coffee"]
    compiled = talgebra.ccs.compile_institute()
    names = {info.sentence: info.name for info in compiled.axioms}
    for k, length in enumerate(WORD_LENGTHS):
        valid, mutant = _word_script(compiled, length, names)
        for text, tag in ((valid, "valid"), (mutant, "mutant")):
            path = work / f"word{k}-{tag}.tap"
            path.write_text(text)
            if tag == "valid":
                check = _prove_check(0, lambda r: r["verdict"] == "VALID",
                                     "word proof")
            else:
                check = _prove_check(
                    1, lambda r: r["verdict"].startswith("INVALID")
                    and r["path"] == [] and "do not chain" in r["reason"],
                    "root mutant")
            ops.append(_cli("word-proof", ["ccs", "prove", ccs_file, path,
                                           *restrict], check))
    for _ in range(INSTITUTE_REPLAYS):
        ops.append(_cli("institute", ["ccs", "prove", ccs_file,
                                      DATA / "institute.tap", *restrict],
                        _prove_check(0, lambda r: r["verdict"] == "VALID",
                                     "institute replay")))
    for bound in STAR_BOUNDS:
        ops.append(_cli("star-bound",
                        ["prove", DATA / "star_loop.ta", DATA / "star_loop.tap",
                         "--star-bound", bound],
                        _prove_check(3, lambda r, b=bound: r["verdict"]
                                     == f"BOUNDED_VALID({b})"
                                     and r["bound"] == b, "star bound")))
    for k, depth in enumerate(SEARCH_DEPTHS):
        p, q = rng.sample(CCS_NAMES, 2)
        x, y = rng.sample(CCS_CHANNELS, 2)
        path = work / f"search{k}.ccs"
        path.write_text(f"channels {x}, {y}\n{p} ::= {x} . {p} + {y} . {p}\n"
                        f"{q} ::= {x} . {q}\n")
        explored = 3 * (2 ** depth - 1)

        def check(rc, out, _, depth=depth):
            got = len(json.loads(out)["derivatives"])
            want = reference.search_pair_count(depth)
            return _expect(rc == 0 and got == want,
                           f"search depth {depth}: {got} pairs, want {want}")
        ops.append(_cli("ccs-search",
                        ["ccs", "search", path, "--from", f"{p} | {q}",
                         "--depth", depth, "--ceiling", explored + 1], check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# forcing: seeded trees of conditions

FORCING_SIZES = (7, 9, 12, 15)    # conditions per fixture
FORCING_DEPTH = 3           # longest root-to-leaf path, in edges
FORCING_CROSSCHECKS = 24    # per fixture
FORCING_LIMITS = (16, 24)   # sentence-universe sizes for forcing validate
FORCING_STEPS = (12, 16)    # chain lengths for forcing model
# four more validations of the 9-condition tree at --limit 24 put the 90th
# percentile of a round among identical operations
FORCING_EXTRA_VALIDATE = {9: 4}


def _closure(constants, eqs, steps):
    """Close equations and steps over constants under basic consequence."""
    cls = {c: {c} for c in constants}
    for x, y in eqs:
        merged = cls[x] | cls[y]
        for z in merged:
            cls[z] = merged
    eq_pairs = frozenset((x, y) for c in constants for x in cls[c]
                         for y in cls[c])
    step_set = frozenset((l, x2, y2) for (l, x, y) in steps
                         for x2 in cls[x] for y2 in cls[y])
    return eq_pairs, step_set


def _forcing_fixture(rng, size):
    """A tree of conditions c0..c<size-1>; each adds a constant k<i>, three
    transition atoms and sometimes an equation, closed under consequence."""
    base = ("a",)
    conds = {"c0": reference.Condition("c0", (), base, *_closure(base, [], []))}
    depth = {"c0": 0}
    given = {"c0": (set(), set())}        # equations and steps as stated
    for i in range(1, size):
        parent = rng.choice([c for c in conds if depth[c] < FORCING_DEPTH])
        name = f"c{i}"
        depth[name] = depth[parent] + 1
        fresh = f"k{i}"
        constants = conds[parent].constants + (fresh,)
        new_steps = {(rng.choice(LABELS), rng.choice(constants),
                      rng.choice(constants)) for _ in range(2)}
        new_steps.add((rng.choice(LABELS), rng.choice(constants), fresh))
        new_eqs = set()
        if rng.random() < 0.2:
            new_eqs.add((fresh, rng.choice(conds[parent].constants)))
        given[name] = (given[parent][0] | new_eqs,
                       given[parent][1] | new_steps)
        conds[name] = reference.Condition(name, (parent,), constants,
                                          *_closure(constants, *given[name]))
    return conds


def _fixture_text(conds):
    lines = ["sorts s", "ops", "  a : -> s", "labels lam, mu"]
    for c in conds.values():
        parent = conds[c.parents[0]] if c.parents else None
        lines.append(f"condition {c.name}" +
                     (f" extends {parent.name}" if parent else ""))
        if parent:
            lines.append(f"  const {c.constants[-1]} : s")
        old_eqs = parent.eqs if parent else frozenset()
        old_steps = parent.steps if parent else frozenset()
        for x, y in sorted(c.eqs - old_eqs):
            lines.append(f"  atom {x} = {y}")
        for l, x, y in sorted(c.steps - old_steps):
            lines.append(f"  atom {x} =[{l}]=> {y}")
    return "\n".join(lines) + "\n"


def _random_action(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Lbl(rng.choice(LABELS))
    kind = rng.randrange(3)
    if kind == 0:
        return Seq(_random_action(rng, depth - 1), _random_action(rng, depth - 1))
    if kind == 1:
        return Alt(_random_action(rng, depth - 1), _random_action(rng, depth - 1))
    return Star(_random_action(rng, depth - 1))


def _forcing_sentence(rng, cond):
    """A positive sentence with composed and iterated actions, often under
    an existential, over the constants of one condition."""
    sig = Signature.make(["s"], [FuncDecl(c, (), "s") for c in cond.constants],
                         labels=LABELS)
    action = _random_action(rng, 2)
    if not isinstance(action, (Seq, Star)):
        action = rng.choice((Seq, lambda x, y: Star(Alt(x, y))))(
            action, Lbl(rng.choice(LABELS)))
    left = _const(FuncDecl(rng.choice(cond.constants), (), "s"))
    right = _const(FuncDecl(rng.choice(cond.constants), (), "s"))
    if rng.random() < 0.6:
        x = Variable("x", "s", sig)
        if rng.random() < 0.5:
            return exists([x], Trans(left, action, Var(x)))
        return exists([x], Trans(Var(x), action, right))
    return Trans(left, action, right)


def make_forcing(rng: random.Random, work: Path) -> list:
    ops = []
    for k, size in enumerate(FORCING_SIZES):
        # the trees are fixed; the seed picks the crosscheck queries
        conds = _forcing_fixture(_template_rng(f"forcing{size}"), size)
        path = work / f"fixture{k}.taf"
        path.write_text(_fixture_text(conds))

        def validate_check(rc, out, _):
            report = json.loads(out)
            bad = sum(len(report[key]) for key in
                      ("double_negation", "monotone", "weakening",
                       "consistency"))
            return _expect(rc == 0 and bad == 0 and report["checked"] > 0,
                           f"forcing validate: {bad} violations (exit {rc})")
        extra = (FORCING_LIMITS[-1],) * FORCING_EXTRA_VALIDATE.get(size, 0)
        for limit in FORCING_LIMITS + extra:
            ops.append(_cli("forcing-validate",
                            ["forcing", "validate", path, "--limit", limit],
                            validate_check))
        for steps in FORCING_STEPS:
            ops.append(_cli("forcing-model",
                            ["forcing", "model", path, "--start", "c0",
                             "--steps", steps],
                            _forcing_model_check(conds)))
        for _ in range(FORCING_CROSSCHECKS):
            p = rng.choice(list(conds))
            phi = _forcing_sentence(rng, conds[p])
            ops.append(_cli("forcing-crosscheck",
                            ["forcing", "crosscheck", path, "--condition", p,
                             "--sentence", str(phi)],
                            _crosscheck_check(conds, p, phi)))
    rng.shuffle(ops)
    return ops


def _forcing_model_check(conds):
    def check(rc, out, _):
        report = json.loads(out)
        # the ideal of an ascending chain in a tree is the path from the root
        # to its last condition, whose atoms contain those of the path
        want = conds[report["chain"][-1]]
        ideal, p = {want.name}, want
        while p.parents:
            p = conds[p.parents[0]]
            ideal.add(p.name)
        if not set(report["chain"]) <= ideal:
            return "the chain does not ascend"
        m = reference.parse_tam(report["model_text"])
        consts = {c: _const(FuncDecl(c, (), "s")) for c in want.constants}
        for x, y in itertools.product(want.constants, repeat=2):
            if reference.holds(m, Eq(consts[x], consts[y])) != (
                    (x, y) in want.eqs):
                return f"generic model disagrees on {x} = {y}"
            for l in LABELS:
                if reference.holds(m, Trans(consts[x], Lbl(l), consts[y])) \
                        != ((l, x, y) in want.steps):
                    return f"generic model disagrees on {x} =[{l}]=> {y}"
        return _expect(rc == 0, f"forcing model exit {rc}")
    return check


def _crosscheck_check(conds, p, phi):
    expected = []

    def check(rc, out, _):
        if not expected:
            expected.append(reference.weakly_forces(conds, p, phi))
        report = json.loads(out)
        weak = report["weakly_forces"]
        return _expect(weak == expected[0] and rc == (1 if weak else 0),
                       f"{p} weakly forces {phi}: got {weak} (exit {rc}), "
                       f"the forall-exists rule says {expected[0]}")
    return check


WORKLOADS = {"ground": make_ground, "models": make_models,
             "proofs": make_proofs, "forcing": make_forcing}
