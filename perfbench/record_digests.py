"""Record the full-grid suite digests that ``tables-full`` checks against.

Usage: ``python3 perfbench/record_digests.py [--scale 0.0005] [SEED ...]``
(default: every tuning seed and the held-out seed at the benchmark scale).
Each digest is ``result_digest(serialize_suite(...))`` of a cold
``compute_suite`` over ``CACHE_CFA_GRID``. Re-record only when a change is
meant to alter simulated statistics; a speed-only change keeps them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import DIGESTS, HOLDOUT_SEED, KERNEL_SEED, SCALE, SRC, TUNING_SEEDS, WORK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("seeds", type=int, nargs="*", default=[*TUNING_SEEDS, HOLDOUT_SEED])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.tpcd.workload import WorkloadSettings

    from tables_full import program

    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    work = WORK / "record-digests"
    for seed in args.seeds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        settings = WorkloadSettings(scale=args.scale, seed=seed, kernel_seed=KERNEL_SEED)
        result = program(work, settings, "digest", "--mode", "suites")
        digest = result["suites"][0]["digest"]
        table[f"{args.scale:g}/{seed}"] = digest
        print(f"{args.scale:g}/{seed} {digest}", flush=True)
        DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
