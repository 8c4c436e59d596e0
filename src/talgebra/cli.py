"""Command-line surface: file ingestion, bounds plumbing, and reporting.

Exit codes are a stable contract: 0 valid/pass, 1 refuted/failed,
2 usage/parse error, 3 bounded-only verdicts. Human and structured output
are rendered from the same report dictionary.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from .basic import GroundTheory, decide_basic
from .calculus import BoundedValid, Invalid, Valid, check_proof
from .ccs import (CcsError, SearchCeiling, ccs_step_search, compile_to_theory,
                  parse_ccs, parse_process)
from .forcing import (ForcingError, build_generic, cross_check_weak_forcing,
                      enumerate_sentences, generic_model,
                      validate_forcing_lemma)
from .formats import (ParseContext, ParseError, Theory, build_proof,
                      parse_forcing, parse_model, parse_sentence, parse_theory,
                      print_model, print_theory)
from .semantics import (DEFAULT_CEILING, EnumerationCeiling, ModelError,
                        find_countermodel, satisfies)
from .basic import Unbounded

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUNDED = 3


def _load(path: str) -> str:
    return Path(path).read_text()


def _emit(report: dict, human_lines: list[str], args):
    if args.seed is not None:
        report = {**report, "seed": args.seed}
        human_lines = [f"seed: {args.seed}", *human_lines]
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _theory_axiom_map(theory: Theory) -> dict:
    return {name: phi for name, phi in theory.axioms if name}


# ---------------------------------------------------------------------------
# Commands


def cmd_check_model(args) -> int:
    theory = parse_theory(_load(args.theory))
    model = parse_model(_load(args.model), theory.signature)
    rows = []
    all_hold = True
    for index, (name, phi) in enumerate(theory.axioms):
        holds = satisfies(model, phi)
        all_hold = all_hold and holds
        rows.append({"name": name or f"axiom-{index}", "sentence": str(phi),
                     "holds": holds})
    report = {"command": "check-model", "theory": args.theory,
              "model": args.model, "axioms": rows, "all_hold": all_hold,
              "theory_text": print_theory(theory),
              "model_text": print_model(model)}
    lines = [f"{'ok  ' if r['holds'] else 'FAIL'}  {r['name']}: {r['sentence']}"
             for r in rows]
    lines.append(f"{'all axioms hold' if all_hold else 'some axioms fail'}")
    _emit(report, lines, args)
    return EXIT_PASS if all_hold else EXIT_FAIL


def _report_proof(proof, report: dict, args) -> int:
    """Check the proof (schematically, or up to --star-bound), emit the
    report with its verdict and return the exit code."""
    mode = "schematic" if args.star_bound is None else ("bounded",
                                                        args.star_bound)
    verdict = check_proof(proof, mode=mode)
    report = {**report, "proof": args.proof,
              "conclusion": str(proof.conclusion.single()),
              "verdict": str(verdict)}
    lines = [f"conclusion: {report['conclusion']}", f"verdict: {verdict}"]
    if isinstance(verdict, BoundedValid):
        report["bound"] = verdict.bound
    if isinstance(verdict, Invalid):
        report["reason"] = verdict.reason
        report["path"] = list(verdict.path)
        where = "/".join(map(str, verdict.path)) or "root"
        lines.append(f"reason: {verdict.reason} (at {where})")
    _emit(report, lines, args)
    if isinstance(verdict, Valid):
        return EXIT_PASS
    return EXIT_BOUNDED if isinstance(verdict, BoundedValid) else EXIT_FAIL


def cmd_prove(args) -> int:
    theory = parse_theory(_load(args.theory))
    proof = build_proof(_load(args.proof), theory.signature, theory.sentences,
                        named_sentences=_theory_axiom_map(theory))
    return _report_proof(proof, {"command": "prove", "theory": args.theory},
                         args)


def cmd_oracle(args) -> int:
    theory = parse_theory(_load(args.theory))
    goal = parse_sentence(args.goal, ParseContext(theory.signature))
    counter = find_countermodel(theory.sentences, goal, args.max_size,
                                theory.signature, args.ceiling)
    report = {"command": "oracle", "theory": args.theory, "goal": str(goal),
              "max_size": args.max_size,
              "countermodel": None if counter is None else print_model(counter)}
    lines = []
    if counter is None:
        lines.append(f"no countermodel up to size {args.max_size}")
    else:
        lines.append("countermodel found:")
        lines.append(print_model(counter).rstrip())
        if args.output:
            Path(args.output).write_text(print_model(counter))
            lines.append(f"written to {args.output}")
    _emit(report, lines, args)
    return EXIT_PASS if counter is None else EXIT_FAIL


def cmd_entail_basic(args) -> int:
    theory = parse_theory(_load(args.theory))
    goal = parse_sentence(args.goal, ParseContext(theory.signature))
    # file order, each axiom once: the report must not follow the hash seed
    axioms = tuple(dict.fromkeys(phi for _, phi in theory.axioms))
    result = decide_basic(GroundTheory(theory.signature, axioms), goal)
    report = {"command": "entail-basic", "theory": args.theory,
              "goal": str(goal), "holds": result.holds,
              "used_premises": [str(p) for p in result.used_premises],
              "trace": [s.as_record() for s in result.trace]}
    lines = [f"goal: {goal}", f"entailed: {result.holds}"]
    for step in result.trace:
        lines.append(f"  [{step.rule}] {step.derived}")
    _emit(report, lines, args)
    return EXIT_PASS if result.holds else EXIT_FAIL


def _compile_args(args):
    program = parse_ccs(_load(args.program))
    restrictions = []
    for spec in args.restrict or []:
        restrictions.append(tuple(c.strip() for c in spec.split(",")))
    return program, compile_to_theory(program, tuple(restrictions))


def cmd_ccs_compile(args) -> int:
    program, compiled = _compile_args(args)
    theory = Theory("ccs", compiled.signature,
                    tuple((info.name, info.sentence)
                          for info in compiled.axioms))
    text = print_theory(theory)
    report = {"command": "ccs compile", "program": args.program,
              "axioms": [info.name for info in compiled.axioms],
              "theory_text": text}
    lines = [text.rstrip()]
    if args.output:
        Path(args.output).write_text(text)
        lines = [f"{len(compiled.axioms)} axioms written to {args.output}"]
    _emit(report, lines, args)
    return EXIT_PASS


def cmd_ccs_search(args) -> int:
    program = parse_ccs(_load(args.program))
    start = parse_process(args.start)
    program.check(start)
    found = ccs_step_search(program, start, args.depth, args.ceiling)
    printed = {}        # each distinct target, one object, printed once
    rows = sorted((word.text, printed.get(id(target))
                   or printed.setdefault(id(target), str(target)))
                  for word, target in found)
    report = {"command": "ccs search", "program": args.program,
              "start": str(start), "depth": args.depth,
              "derivatives": [{"word": w, "target": t} for w, t in rows]}
    lines = [f"{w}  |-  {t}" for w, t in rows]
    lines.append(f"{len(rows)} derivatives within depth {args.depth}")
    _emit(report, lines, args)
    return EXIT_PASS


def cmd_ccs_prove(args) -> int:
    program, compiled = _compile_args(args)
    catalog = {info.name: info for info in compiled.axioms}
    proof = build_proof(_load(args.proof), compiled.signature,
                        compiled.theory, axiom_catalog=catalog)
    return _report_proof(proof, {"command": "ccs prove",
                                 "program": args.program}, args)


def _universe(fp, limit: int, term_depth: int):
    universe = []
    seen = set()
    for p in fp.conditions:
        for phi in enumerate_sentences(fp.sig_of[p], limit,
                                       term_depth=min(term_depth, 1)):
            if phi not in seen:
                seen.add(phi)
                universe.append(phi)
    return universe


def _forcing_property(args, condition: Optional[str] = None):
    """The fixture's forcing property, checked to hold any `condition`."""
    fp, _ = parse_forcing(_load(args.fixture))
    if condition is not None and condition not in fp.conditions:
        raise ForcingError(f"unknown condition {condition!r}")
    return fp


def cmd_forcing_validate(args) -> int:
    fp = _forcing_property(args)
    universe = _universe(fp, args.limit, args.term_depth)
    result = validate_forcing_lemma(fp, universe, args.term_depth)
    failures = sum(len(result[k]) for k in
                   ("double_negation", "monotone", "weakening", "consistency"))
    report = {"command": "forcing validate", "fixture": args.fixture,
              **{k: v for k, v in result.items()}}
    lines = [f"checked {result['checked']} condition/sentence pairs",
             f"violations: {failures}"]
    for key in ("double_negation", "monotone", "weakening", "consistency"):
        for item in result[key]:
            lines.append(f"  {key}: {item}")
    _emit(report, lines, args)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def cmd_forcing_generic(args) -> int:
    fp = _forcing_property(args, args.start)
    G = build_generic(fp, args.start, args.steps, term_depth=args.term_depth)
    report = {"command": "forcing generic", "fixture": args.fixture,
              "start": args.start, "steps": args.steps,
              "chain": list(G.chain), "ideal": sorted(G.ideal),
              "ledger": [list(e) for e in G.ledger]}
    lines = ["chain: " + " <= ".join(G.chain)]
    for entry in G.ledger:
        lines.append("  " + " ".join(str(x) for x in entry))
    _emit(report, lines, args)
    return EXIT_PASS


def cmd_forcing_model(args) -> int:
    fp = _forcing_property(args, args.start)
    G = build_generic(fp, args.start, args.steps, term_depth=args.term_depth)
    model = generic_model(fp, G)
    if isinstance(model, Unbounded):
        report = {"command": "forcing model", "fixture": args.fixture,
                  "unbounded_sort": model.sort}
        _emit(report, [f"term model unbounded at sort {model.sort}"], args)
        return EXIT_FAIL
    text = print_model(model)
    report = {"command": "forcing model", "fixture": args.fixture,
              "chain": list(G.chain), "model_text": text}
    lines = [text.rstrip()]
    if args.output:
        Path(args.output).write_text(text)
        lines = [f"generic model written to {args.output}"]
    _emit(report, lines, args)
    return EXIT_PASS


def cmd_forcing_crosscheck(args) -> int:
    fp = _forcing_property(args, args.condition)
    sig = fp.sig_of[args.condition]
    phi = parse_sentence(args.sentence, ParseContext(sig))
    proof = None
    if args.proof:
        proof = build_proof(_load(args.proof), sig,
                            fp.atoms_of[args.condition])
    result = cross_check_weak_forcing(fp, args.condition, phi, proof,
                                      args.term_depth)
    report = {"command": "forcing crosscheck", "fixture": args.fixture,
              **result}
    lines = [f"condition {result['condition']} weakly forces {phi}: "
             f"{result['weakly_forces']}",
             f"provable: {result['provable']} (verdict: {result['verdict']})",
             f"agreement: {result['agree']}" +
             (" [bounds were hit]" if result["capped"] else "")]
    _emit(report, lines, args)
    return EXIT_PASS if result["agree"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--seed", type=int, default=None,
                   help="seed echoed into reports for replayable runs")


def _natural(text: str) -> int:
    """The argparse type of counts and depths: a whole number, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected 0 or more, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """The argparse type of carrier sizes: a whole number, 1 or more. Size 0
    adds nothing, since the search at size 1 starts at the empty carriers."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected 1 or more, got {text!r}")
    return int(text)


@functools.cache     # built on the first call, then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talgebra",
        description="Many-sorted transition algebras: models, proofs, "
                    "process compilation, and forcing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-model", help="check a model against a theory")
    p.add_argument("theory")
    p.add_argument("model")
    _add_common(p)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("prove", help="replay a proof script against a theory")
    p.add_argument("theory")
    p.add_argument("proof")
    p.add_argument("--star-bound", type=_natural, default=None,
                   help="check iteration families up to this bound instead "
                        "of schematically")
    _add_common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("oracle", help="bounded countermodel search for a goal")
    p.add_argument("theory")
    p.add_argument("goal")
    p.add_argument("--max-size", type=_positive, default=2)
    p.add_argument("--ceiling", type=_natural, default=DEFAULT_CEILING)
    p.add_argument("-o", "--output", default=None,
                   help="write a found countermodel to this file")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("entail-basic",
                       help="decide entailment of a ground atom from ground "
                            "atoms")
    p.add_argument("theory")
    p.add_argument("goal")
    _add_common(p)
    p.set_defaults(func=cmd_entail_basic)

    ccs = sub.add_parser("ccs", help="process-calculus front end")
    ccs_sub = ccs.add_subparsers(dest="ccs_command", required=True)

    p = ccs_sub.add_parser("compile", help="compile a program to a theory")
    p.add_argument("program")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--restrict", action="append", default=[],
                   metavar="C1,C2",
                   help="also generate axioms for this restriction sequence")
    _add_common(p)
    p.set_defaults(func=cmd_ccs_compile)

    p = ccs_sub.add_parser("search", help="enumerate action-word derivatives")
    p.add_argument("program")
    p.add_argument("--from", dest="start", required=True,
                   help="start process expression")
    p.add_argument("--depth", type=_natural, default=3)
    p.add_argument("--ceiling", type=_natural, default=10_000)
    _add_common(p)
    p.set_defaults(func=cmd_ccs_search)

    p = ccs_sub.add_parser("prove",
                           help="replay a proof script against a compiled "
                                "program")
    p.add_argument("program")
    p.add_argument("proof")
    p.add_argument("--restrict", action="append", default=[], metavar="C1,C2")
    p.add_argument("--star-bound", type=_natural, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ccs_prove)

    forcing = sub.add_parser("forcing", help="forcing laboratory")
    forcing_sub = forcing.add_subparsers(dest="forcing_command", required=True)

    p = forcing_sub.add_parser("validate",
                               help="check the forcing closure laws on a "
                                    "fixture")
    p.add_argument("fixture")
    p.add_argument("--term-depth", type=_natural, default=2)
    p.add_argument("--limit", type=int, default=48,
                   help="sentence-universe size per condition")
    _add_common(p)
    p.set_defaults(func=cmd_forcing_validate)

    p = forcing_sub.add_parser("generic", help="run the chain construction")
    p.add_argument("fixture")
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=_natural, default=16)
    p.add_argument("--term-depth", type=_natural, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_forcing_generic)

    p = forcing_sub.add_parser("model",
                               help="build the model named by a generic chain")
    p.add_argument("fixture")
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=_natural, default=16)
    p.add_argument("--term-depth", type=_natural, default=2)
    p.add_argument("-o", "--output", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_forcing_model)

    p = forcing_sub.add_parser("crosscheck",
                               help="compare weak forcing against a proof "
                                    "verdict")
    p.add_argument("fixture")
    p.add_argument("--condition", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--proof", default=None)
    p.add_argument("--term-depth", type=_natural, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_forcing_crosscheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (ParseError, CcsError, ForcingError, ModelError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationCeiling, SearchCeiling) as exc:
        print(f"error: enumeration ceiling exceeded ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
