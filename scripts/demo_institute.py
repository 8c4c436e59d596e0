#!/usr/bin/env python3
"""End-to-end tour of the process-calculus pipeline.

Compiles the mathematician/vending-machine program, searches its restricted
composition for derivative words, replays the shipped golden proof, and
prints the axiom catalog.
"""

import argparse
import time

from talgebra.ccs import (ccs_step_search, compile_institute,
                          institute_process, mathematician_program,
                          replay_institute_proof)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=4)
    args = parser.parse_args()

    program = mathematician_program()
    compiled = compile_institute()
    print(f"compiled {len(compiled.axioms)} axioms:")
    for info in compiled.axioms:
        print(f"  {info.name}: {info.sentence}")

    start = institute_process()
    print(f"\nderivatives of {start} to depth {args.depth}:")
    # in the order of each pair's repr, as (action tuple, process)
    for word, target in sorted(ccs_step_search(program, start, args.depth),
                               key=lambda found: str((found[0].actions,
                                                      found[1]))):
        print(f"  {word.text}  |-  {target}")

    t0 = time.time()
    proof, verdict = replay_institute_proof(compiled)
    dt = time.time() - t0
    print(f"\ngolden proof: {proof.conclusion.single()}")
    print(f"verdict: {verdict} ({dt * 1000:.1f} ms)")


if __name__ == "__main__":
    main()
