"""Shared fixtures and hypothesis strategies."""

from importlib.resources import files

import pytest
from hypothesis import strategies as st

from talgebra.syntax import (Alt, App, Disj, Eq, Exists, FuncDecl, Lbl, Neg,
                             Seq, Signature, Star, Trans, Var, Variable)

DATA = files("talgebra").joinpath("data")


def data_text(name: str) -> str:
    return DATA.joinpath(name).read_text()


# one sort, two constants, one unary symbol, two labels
A = FuncDecl("a", (), "s")
B = FuncDecl("b", (), "s")
F = FuncDecl("f", ("s",), "s")
SIG = Signature.make(["s"], [A, B, F], mono=[F], labels=["lam", "mu"])
SIG_PLAIN = Signature.make(["s"], [A, B, F], labels=["lam", "mu"])


@pytest.fixture
def sig():
    return SIG


def ground_term_strategy(max_depth: int = 2):
    base = st.sampled_from([App(A, ()), App(B, ())])
    return st.recursive(base, lambda child: child.map(lambda t: App(F, (t,))),
                        max_leaves=max_depth + 1)


def action_strategy(max_depth: int = 2):
    base = st.sampled_from([Lbl("lam"), Lbl("mu")])
    return st.recursive(
        base,
        lambda child: st.one_of(
            st.tuples(child, child).map(lambda p: Seq(*p)),
            st.tuples(child, child).map(lambda p: Alt(*p)),
            child.map(Star)),
        max_leaves=max_depth + 2)


def random_action(rng, labels, depth: int):
    """A seeded action over `labels` mixing `;`, `|` and `*`, nested at most
    `depth` deep."""
    if depth == 0 or rng.random() < 0.3:
        return Lbl(rng.choice(labels))
    kind = rng.randrange(3)
    if kind == 2:
        return Star(random_action(rng, labels, depth - 1))
    return (Seq, Alt)[kind](random_action(rng, labels, depth - 1),
                            random_action(rng, labels, depth - 1))


def ground_atom_strategy():
    t = ground_term_strategy()
    return st.one_of(
        st.tuples(t, t).map(lambda p: Eq(*p)),
        st.tuples(t, st.sampled_from(["lam", "mu"]), t).map(
            lambda p: Trans(p[0], Lbl(p[1]), p[2])))


def sentence_strategy(max_depth: int = 2, sig: Signature = SIG):
    x = Variable("x", "s", sig)
    t = st.one_of(ground_term_strategy(), st.just(Var(x)))
    atom = st.one_of(
        st.tuples(t, t).map(lambda p: Eq(*p)),
        st.tuples(t, action_strategy(1), t).map(
            lambda p: Trans(p[0], p[1], p[2])))
    return st.recursive(
        atom,
        lambda child: st.one_of(
            child.map(Neg),
            st.lists(child, min_size=0, max_size=2,
                     unique_by=lambda s: s.key()).map(
                lambda xs: Disj(tuple(xs))),
            child.map(lambda phi: Exists(frozenset([x]), phi))),
        max_leaves=max_depth + 2)


def model_strategy(sig: Signature = SIG_PLAIN, max_size: int = 3):
    """Random finite models over SIG_PLAIN (no monotonicity constraints)."""
    from talgebra.semantics import FiniteModel

    def build(draw_data):
        n, fa, fb, ftab, rel_lam, rel_mu = draw_data
        carrier = {"s": tuple(range(n))}
        table = {A: {(): fa % n}, B: {(): fb % n},
                 F: {(i,): ftab[i] % n for i in range(n)}}
        rl = frozenset(("s", i, j) for i in range(n) for j in range(n)
                       if rel_lam >> (i * n + j) & 1)
        rm = frozenset(("s", i, j) for i in range(n) for j in range(n)
                       if rel_mu >> (i * n + j) & 1)
        return FiniteModel(sig, carrier, table, {"lam": rl, "mu": rm})

    return st.tuples(
        st.integers(min_value=1, max_value=max_size),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.lists(st.integers(min_value=0, max_value=8), min_size=3,
                 max_size=3),
        st.integers(min_value=0, max_value=2 ** 9 - 1),
        st.integers(min_value=0, max_value=2 ** 9 - 1),
    ).map(build)


@st.composite
def garbled(draw, texts, noise):
    """A text of texts with up to two tokens dropped or put in."""
    tokens = draw(texts).split()
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        if at < len(tokens) and draw(st.booleans()):
            del tokens[at]
        else:
            tokens.insert(at, draw(st.sampled_from(noise)))
    return " ".join(tokens)
