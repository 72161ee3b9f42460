"""Run the full conformance suite: ``python -m repro.validate``.

Three layers, in order: the differential harness (production simulators
vs loop-literal oracles over generated cases), the metamorphic laws, and
the paper-shape gate over a small fixed-seed workload. Exits non-zero if
any layer finds a problem. The differential and metamorphic layers run
on every available simulator backend (native kernel and NumPy/Python
fallback). ``--report`` writes the JSON conformance report CI archives
as a workflow artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.validate.gate import GATE_SCALE, run_validation


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="differential + metamorphic + paper-shape conformance checks",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed for generated cases")
    parser.add_argument(
        "--cases", type=int, default=200, help="differential cases to generate (default 200)"
    )
    parser.add_argument(
        "--law-rounds", type=int, default=12,
        help="rounds of each metamorphic law per window size (default 12)",
    )
    parser.add_argument(
        "--scale", type=float, default=GATE_SCALE,
        help=f"TPC-D scale of the paper-shape gate workload (default {GATE_SCALE})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the gate suite"
    )
    parser.add_argument(
        "--skip-paper-shape", action="store_true",
        help="run only the differential and metamorphic layers (no workload build)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH", help="write the JSON conformance report here"
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    report = run_validation(
        args.seed,
        cases=args.cases,
        law_rounds=args.law_rounds,
        scale=args.scale,
        jobs=args.jobs,
        paper_shape=not args.skip_paper_shape,
    )
    elapsed = time.perf_counter() - t0
    report["elapsed_seconds"] = round(elapsed, 2)

    diff = report["differential"]
    laws = report["laws"]
    print(f"backends: {', '.join(report['backends'])}")
    print(
        f"differential: {diff['cases']} cases, {len(diff['divergences'])} divergences"
    )
    for divergence in diff["divergences"][:10]:
        print(f"  DIVERGENCE {divergence['counter']}: {divergence['case']}")
    print(f"metamorphic: {laws['cases']} cases, {len(laws['violations'])} violations")
    for violation in laws["violations"][:10]:
        print(
            f"  VIOLATION {violation['law']} [{violation['backend']}] "
            f"(seed {violation['seed']}): {violation['detail']}"
        )
    if "paper_shape" in report:
        claims = report["paper_shape"]["claims"]
        n_failed = len(report["paper_shape"]["failed"])
        print(f"paper shape: {len(claims)} claims, {n_failed} failed")
        for claim in claims:
            if not claim["passed"]:
                print(f"  FAILED {claim['claim_id']}: {claim['description']} ({claim['detail']})")
    print(f"{'PASSED' if report['passed'] else 'FAILED'} in {elapsed:.1f}s")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.report}")
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
