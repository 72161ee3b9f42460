"""Constants and small helpers shared by the benchmark's scripts."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for caches, spools and span files; listed in .gitignore.
WORK = ROOT / ".perfbench-work"
DIGESTS = BENCH_DIR / "digests.json"

#: TPC-D scale factor of both workloads.
SCALE = 0.0005
#: The kernel model (the traced program's code) stays fixed: its seed moves
#: the Test trace length by +-13% between seeds, which would swamp every
#: bound; the dbgen seed varies the database under that one program by ~2%.
KERNEL_SEED = 2029
#: Cold set-ups per untraced run, median reported; the traced run sets up once.
SETUP_REPS = 3
#: Workload seeds whose full-grid digests are recorded in digests.json.
#: ``--seed n`` runs the database of ``TUNING_SEEDS[n % len(TUNING_SEEDS)]``.
TUNING_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
#: Recorded but never picked by ``--seed``: reserved for checking a claim
#: on data the change was not tuned on (``--holdout``).
HOLDOUT_SEED = 101


def db_seed(seed: int, holdout: bool = False) -> int:
    return HOLDOUT_SEED if holdout else TUNING_SEEDS[seed % len(TUNING_SEEDS)]


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment for a program process: ``src`` importable, own cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DISABLE", None)
    env.pop("REPRO_CACHE_MAX_BYTES", None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb_of(pid: int) -> float:
    """High-water resident set of a live process, from /proc (MB)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest() -> str:
    """SHA-256 over the program sources: the revision of a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def recorded_digest(scale: float, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(f"{scale:g}/{seed}")
