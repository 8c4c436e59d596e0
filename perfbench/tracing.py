"""Per-layer tracing from outside the package.

`Tracer.install()` wraps public functions of each talgebra module, in every
module namespace that imported them, and a few methods on their classes. A
timed wrapper keeps a stack of open frames, so each function's self time is
its duration minus that of the timed calls it made. Recursive re-entries are
counted but not timed again: their time belongs to the outermost call. Spans
(id, name, start, end, parent) are kept in memory for coarse functions and
written out at the end; hot functions (term keys, satisfaction, forcing
steps) are counted and timed without spans.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("syntax", "formats", "semantics", "basic", "calculus", "ccs",
          "forcing", "cli")

# (module, attribute path, spans, count recursive calls)
TIMED = [
    ("syntax", "term_key", False, True),
    ("syntax", "Sentence.key", False, True),
    ("syntax", "apply_substitution", False, True),
    ("syntax", "ground_terms", True, True),
    ("formats", "parse_theory", True, True),
    ("formats", "parse_model", True, True),
    ("formats", "parse_forcing", True, True),
    ("formats", "parse_sentence", False, True),
    ("formats", "print_model", True, True),
    ("formats", "print_theory", True, True),
    ("formats", "build_proof", True, True),
    ("semantics", "satisfies", False, True),
    ("semantics", "interpret_action", False, True),
    ("semantics", "reflexive_transitive_closure", False, True),
    ("semantics", "find_countermodel", True, True),
    ("semantics", "FiniteModel.__post_init__", False, True),
    ("basic", "decide_basic", True, True),
    ("basic", "build_term_model", True, True),
    ("calculus", "check_proof", True, False),
    ("calculus", "instantiate_node", False, False),
    ("ccs", "parse_ccs", True, True),
    ("ccs", "compile_to_theory", True, True),
    ("ccs", "ccs_steps", False, True),
    ("ccs", "ccs_step_search", True, True),
    ("forcing", "validate_forcing_lemma", True, True),
    ("forcing", "build_generic", True, True),
    ("forcing", "enumerate_sentences", True, True),
    ("forcing", "ForcingRelation.forces", False, True),
    ("forcing", "cross_check_weak_forcing", True, True),
    ("forcing", "generic_model", True, True),
    ("cli", "main", True, True),
]

# counted only: (module, attribute path, metric name)
COUNTED = [
    ("basic", "CongruenceState.merge", "basic.CongruenceState.merge.calls"),
    ("basic", "CongruenceState.saturate",
     "basic.CongruenceState.saturate.calls"),
    ("calculus", "_check", "calculus.proof_nodes"),
    ("forcing", "CapLedger.record", "forcing.ledger_events"),
]

# counters kept under their metric names
COUNTERS = [metric for _, _, metric in COUNTED] + [
    "basic.trace_steps", "ccs.ccs_step_search.pairs",
    "semantics.FiniteModel.built", "semantics.FiniteModel.rejected"]

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_metrics() -> list:
    """(name, unit) of each per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._stack = []          # open frames: [start, child time, span id]
        self._next_id = 0
        self._enumerating = 0
        self._models = {}         # id(model) -> (weakref, {(action, sort)})
        self._in_sentences = 0    # open enumerate_sentences calls

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn, spans, count_inner, before=None, after=None):
        active = [False]
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if active[0]:
                if count_inner:
                    calls[name] += 1
                return fn(*args, **kwargs)
            calls[name] += 1
            active[0] = True
            parent = stack[-1][2] if stack else None
            span_id = parent
            if spans:
                span_id = self._next_id
                self._next_id += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[0] = False
                duration = end - frame[0]
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if spans:
                    self.spans.append((span_id, name, frame[0], end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _enumeration(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._enumerating += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._enumerating -= 1
                tracer.counts["enumerate_models.yielded"] += 1
                yield item
        return wrapper

    def _sentence_scope(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._in_sentences += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_sentences -= 1
            tracer.counts["enumerate_sentences.kept"] += len(result)
            return result
        return wrapper

    def _sentence_built(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            if tracer._in_sentences:
                tracer.counts["enumerate_sentences.built"] += 1
            init(*args, **kwargs)
        return wrapper

    # -- hooks for ratios ----------------------------------------------------

    def _note_closure(self, args):
        model, action, sort = args[:3]
        if not isinstance(action, self._star):
            return
        entry = self._models.get(id(model))
        if entry is None or entry[0]() is not model:
            entry = (weakref.ref(model), set())
            self._models[id(model)] = entry
        if (action, sort) not in entry[1]:
            entry[1].add((action, sort))
            self.counts["closure.distinct"] += 1

    def _note_forces(self, args):
        relation, p, phi = args[:3]
        if (p, phi) in relation._memo:
            self.counts["forces.memo_hits"] += 1

    def _note_model(self, args):
        self.counts["semantics.FiniteModel.built"] += 1
        if self._enumerating:
            self.counts["FiniteModel.built_enumerating"] += 1

    # -- installation --------------------------------------------------------

    def install(self):
        import talgebra.basic
        import talgebra.calculus
        import talgebra.ccs
        import talgebra.cli
        import talgebra.forcing
        import talgebra.formats
        import talgebra.semantics
        import talgebra.syntax
        from talgebra.semantics import ModelError

        modules = {layer: sys.modules[f"talgebra.{layer}"] for layer in LAYERS}
        syntax = talgebra.syntax
        self._star = syntax.Star
        hooks = {
            "semantics.interpret_action": (self._note_closure, None),
            "forcing.ForcingRelation.forces": (self._note_forces, None),
            "semantics.FiniteModel.__post_init__": (self._note_model, None),
            "basic.decide_basic": (None, lambda a, k, r: self.counts.update(
                {"basic.trace_steps": len(r.trace)})),
            "ccs.ccs_step_search": (None, lambda a, k, r: self.counts.update(
                {"ccs.ccs_step_search.pairs": len(r)})),
        }
        for layer, path, spans, count_inner in TIMED:
            owner, attr = _resolve(modules[layer], path)
            original = getattr(owner, attr)
            name = f"{layer}.{path}"
            before, after = hooks.get(name, (None, None))
            wrapper = self._timed(name, original, spans, count_inner,
                                  before, after)
            if name == "semantics.FiniteModel.__post_init__":
                wrapper = self._rejections(wrapper, ModelError)
            self._replace(owner, attr, original, wrapper)
        for layer, path, metric in COUNTED:
            owner, attr = _resolve(modules[layer], path)
            original = getattr(owner, attr)
            self._replace(owner, attr, original,
                          self._counted(metric, original))
        original = talgebra.semantics.enumerate_models
        self._replace(talgebra.semantics, "enumerate_models", original,
                      self._enumeration(original))
        original = talgebra.forcing.enumerate_sentences
        self._replace(talgebra.forcing, "enumerate_sentences", original,
                      self._sentence_scope(original))
        # the sentences enumerate_sentences builds: atoms, negations and
        # disjunctions, whether or not it returns them
        for cls in (syntax.Eq, syntax.Trans, syntax.Neg, syntax.Disj):
            cls.__init__ = self._sentence_built(cls.__init__)

    def _rejections(self, wrapper, error):
        counts = self.counts

        @functools.wraps(wrapper)
        def guarded(*args, **kwargs):
            try:
                return wrapper(*args, **kwargs)
            except error:
                counts["semantics.FiniteModel.rejected"] += 1
                raise
        return guarded

    @staticmethod
    def _replace(owner, attr, original, wrapper):
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "talgebra"
                                      or name.startswith("talgebra.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # -- results ---------------------------------------------------------------

    def metrics(self, names, rounds: int, overhead_s: float) -> dict:
        """The value of each named metric: ratios as they are, counts and
        times per traced round."""
        c = self.counts
        totals = {name: c[name] for name in COUNTERS}
        for layer, path, _, _ in TIMED:
            totals[f"{layer}.{path}.calls"] = self.calls[f"{layer}.{path}"]
            totals[f"{layer}.{path}.self_s"] = self.self_s[f"{layer}.{path}"]
        for layer in LAYERS:
            names_in = [n for n in self.calls if n.startswith(layer + ".")]
            totals[f"{layer}.self_s"] = sum(self.self_s[n] for n in names_in)
            totals[f"{layer}.calls"] = (
                sum(self.calls[n] for n in names_in)
                + sum(c[m] for _, _, m in COUNTED
                      if m.startswith(layer + ".")))

        def ratio(a, b):
            return a / b if b else 0.0

        ratios = {
            "semantics.closure.distinct_ratio": ratio(
                c["closure.distinct"],
                self.calls["semantics.reflexive_transitive_closure"]),
            "semantics.enumerate_models.yield_ratio": ratio(
                c["enumerate_models.yielded"],
                c["FiniteModel.built_enumerating"]),
            "forcing.enumerate_sentences.kept_ratio": ratio(
                c["enumerate_sentences.kept"], c["enumerate_sentences.built"]),
            "forcing.forces.memo_hit_ratio": ratio(
                c["forces.memo_hits"],
                self.calls["forcing.ForcingRelation.forces"]),
            "trace.overhead_s": overhead_s,
        }
        values = {}
        for name in names:
            if name in ratios:
                values[name] = ratios[name]
            elif name in totals:
                values[name] = totals[name] / rounds
            else:
                raise KeyError(f"the tracer does not measure {name!r}")
        return values

    def write_spans(self, path):
        with open(path, "w") as out:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, out)
