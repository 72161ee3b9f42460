"""Native simulator kernel: build, cache and load ``_seq3.c``.

The stateful loops of the simulators — the SEQ.3 fetch walk, the
trace-cache walk, and the direct-mapped and victim i-cache counters —
run in one small C file (``_seq3.c``) when it can be built. On first use
:func:`load` compiles it with the compiler Python itself was built with
(``sysconfig`` ``CC``; no machine-specific flags) into the artifact
cache (kind ``native``, keyed by the source SHA-256, the compiler
version and the machine; written to a temporary file and renamed into
place, so concurrent first uses leave one valid artifact) and opens it
with :mod:`ctypes`. Calls through ``ctypes.CDLL`` release the GIL.

When the kernel cannot be built or loaded (no compiler, a build error, a
load error) the simulators use their NumPy/Python paths instead; the
reason is kept in :func:`status`, which run manifests and the service's
``/v1/metrics`` report. Both backends produce bit-identical results and
carry state in the same format (``state_dict()``).
:func:`use` selects a backend for a block of code (the differential
harness and the tests run every available backend this way).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cache import cache_enabled, default_cache

__all__ = ["Kernel", "available_backends", "load", "active", "status", "use"]

SOURCE = Path(__file__).with_name("_seq3.c")
#: Must equal ``SEQ3_ABI`` in the C source; checked after loading.
ABI_VERSION = 2

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_SIGNATURES = {
    "seq3_abi": [],
    "seq3_fetch_walk": [_PTR, _PTR, _PTR, _I64, _PTR, _I64, _I64, _I64, _I64, _I64, _PTR, _I64],
    "seq3_tc_walk": [
        _PTR, _PTR, _PTR, _I64, _PTR, _PTR, _I64, _I64, _I64,
        _I64, _I64, _I64, _I64, _I64, _PTR, _I64, _PTR,
    ],
    "seq3_victim_feed": [_PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64],
    "seq3_dm_feed": [_PTR, _I64, _PTR, _I64],
}


def _ptr(arr, dtype, name: str, *, writable: bool = False) -> int:
    """Raw data pointer of ``arr`` after checking it is safe to pass."""
    if not isinstance(arr, np.ndarray):
        raise TypeError(f"{name}: expected a numpy array, got {type(arr).__name__}")
    if arr.dtype != dtype:
        raise TypeError(f"{name}: expected dtype {np.dtype(dtype)}, got {arr.dtype}")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name}: array must be C-contiguous")
    if writable and not arr.flags.writeable:
        raise ValueError(f"{name}: array must be writable")
    return arr.ctypes.data


def _flags(addr, is_branch, is_taken) -> tuple[int, int, int, int]:
    n = _check_len(addr, "addr")
    if _check_len(is_branch, "is_branch") != n or _check_len(is_taken, "is_taken") != n:
        raise ValueError("addr, is_branch and is_taken must have equal lengths")
    return (
        n,
        _ptr(addr, np.int64, "addr"),
        _ptr(is_branch, np.bool_, "is_branch"),
        _ptr(is_taken, np.bool_, "is_taken"),
    )


def _check_len(arr, name: str) -> int:
    if not isinstance(arr, np.ndarray) or arr.ndim != 1:
        raise TypeError(f"{name}: expected a one-dimensional numpy array")
    return arr.shape[0]


def _positive(**values: int) -> None:
    """Divisors and sizes the C code divides or indexes by must be >= 1."""
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _walk(step, n: int, per_unit: int, first_guess: int) -> np.ndarray:
    """Run a resumable walk ``step(pos, out, cap) -> units`` to the end.

    Buffers hold ``per_unit`` int64 values per unit and are trimmed to
    what was written. The first is sized by ``first_guess`` units; when a
    walk outgrows it, the next is sized from the rate observed so far
    (never more than one unit per remaining instruction).
    """
    pos = ctypes.c_int64(0)
    pieces = []
    cap = max(1, min(n, first_guess))
    while pos.value < n:
        start = pos.value
        out = np.empty(per_unit * cap, dtype=np.int64)
        written = step(ctypes.addressof(pos), out, cap)
        if written < cap:
            out.resize(per_unit * written, refcheck=False)
        pieces.append(out)
        remaining = n - pos.value
        rate = written / max(1, pos.value - start)
        cap = max(1, min(remaining, int(remaining * rate * 1.25) + 64))
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class Kernel:
    """Typed wrappers over the loaded C entry points.

    Every wrapper checks the dtype, contiguity and writability of the
    arrays it passes as raw pointers, and the sizes the C code divides
    by, and raises ``TypeError``/``ValueError`` instead of handing C a
    bad buffer.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = _I64
        if lib.seq3_abi() != ABI_VERSION:
            raise OSError(f"kernel ABI {lib.seq3_abi()} != expected {ABI_VERSION}")
        self._lib = lib

    def fetch_walk(self, addr, is_branch, is_taken, *, line_bytes: int,
                   line_instrs: int, instr_shift: int, width: int, blimit: int) -> np.ndarray:
        """SEQ.3 line-access stream of one chunk (two lines per fetch)."""
        n, pa, pb, pt = _flags(addr, is_branch, is_taken)
        _positive(line_bytes=line_bytes, line_instrs=line_instrs)
        fn = self._lib.seq3_fetch_walk

        def step(pos, out, cap):
            return fn(pa, pb, pt, n, pos, line_bytes, line_instrs, instr_shift,
                      width, blimit, out.ctypes.data, cap)

        return _walk(step, n, 2, n // 4 + 64)

    def tc_walk(self, addr, is_branch, is_taken, entries, *, tc_width: int,
                tc_blimit: int, line_bytes: int, line_instrs: int, instr_shift: int,
                width: int, blimit: int) -> tuple[np.ndarray, int, int]:
        """Trace-cache walk of one chunk: (miss-path lines, hits, misses).

        ``entries`` (n_entries x 4 int64) is updated in place.
        """
        n, pa, pb, pt = _flags(addr, is_branch, is_taken)
        pe = _ptr(entries, np.int64, "entries", writable=True)
        if entries.ndim != 2 or entries.shape[1] != 4:
            raise ValueError("entries must have shape (n_entries, 4)")
        _positive(n_entries=entries.shape[0], line_bytes=line_bytes, line_instrs=line_instrs)
        counts = np.zeros(2, dtype=np.int64)
        fn = self._lib.seq3_tc_walk

        def step(pos, out, cap):
            return fn(pa, pb, pt, n, pos, pe, entries.shape[0], tc_width, tc_blimit,
                      line_bytes, line_instrs, instr_shift, width, blimit,
                      out.ctypes.data, cap, counts.ctypes.data)

        lines = _walk(step, n, 2, n // 8 + 64)
        return lines, int(counts[0]), int(counts[1])

    def victim_feed(self, lines, primary, vbuf, vlen: int, capacity: int) -> tuple[int, int]:
        """Victim-cache feed: (misses, new buffer length); ``primary`` and
        ``vbuf`` (room for ``capacity + 1`` lines, oldest first) are
        updated in place."""
        n = _check_len(lines, "lines")
        pl = _ptr(lines, np.int64, "lines")
        pp = _ptr(primary, np.int64, "primary", writable=True)
        pv = _ptr(vbuf, np.int64, "vbuf", writable=True)
        _positive(n_sets=_check_len(primary, "primary"))
        if _check_len(vbuf, "vbuf") < capacity + 1 or not 0 <= vlen <= capacity:
            raise ValueError("victim buffer must hold capacity + 1 lines")
        length = ctypes.c_int64(vlen)
        misses = self._lib.seq3_victim_feed(
            pl, n, pp, primary.shape[0], pv, ctypes.addressof(length), capacity
        )
        return misses, length.value

    def dm_feed(self, lines, tags) -> int:
        """Direct-mapped feed: misses; ``tags`` updated in place."""
        n = _check_len(lines, "lines")
        pl = _ptr(lines, np.int64, "lines")
        pt = _ptr(tags, np.int64, "tags", writable=True)
        _positive(n_sets=_check_len(tags, "tags"))
        return self._lib.seq3_dm_feed(pl, n, pt, tags.shape[0])


# -- build and load --------------------------------------------------------

_lock = threading.Lock()
_kernel: Kernel | None = None
_status: dict | None = None
_selected: str | None = None  # backend forced by use(); None: native if loaded


def source_sha256() -> str:
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def _compiler() -> list[str]:
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else []


def _compiler_version(cc: list[str]) -> str:
    proc = subprocess.run(
        [*cc, "--version"], capture_output=True, text=True, timeout=60, check=False
    )
    if proc.returncode != 0:
        raise OSError(f"{cc[0]} --version exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[0] if proc.stdout.strip() else cc[0]


def _compile(cc: list[str], target: Path) -> None:
    """Compile the source to ``target`` atomically (temp file + rename)."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=300, check=False,
        )
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise OSError(f"compiler exited {proc.returncode}: {' | '.join(tail)}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> Kernel:
    return Kernel(ctypes.CDLL(str(path)))


def _build_and_load(cc: list[str]) -> tuple[Kernel | None, dict]:
    """Load the cached artifact, or build it; never raises."""
    sha = source_sha256()
    info = {"backend": "python", "reason": None, "build_s": 0.0, "source_sha256": sha}
    if not cc:
        info["reason"] = "no C compiler configured (sysconfig CC is empty)"
        return None, info
    try:
        version = _compiler_version(cc)
    except (OSError, subprocess.SubprocessError) as exc:
        info["reason"] = f"C compiler unavailable: {exc}"
        return None, info
    private = None
    target = None
    if cache_enabled():
        target = default_cache().file_path(
            "native", (sha, version, platform.machine()), suffix=".so"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            target = None
        else:
            if not target.exists() and not os.access(target.parent, os.W_OK):
                target = None
    if target is None:  # cache disabled or unwritable: a private build
        private = Path(tempfile.mkdtemp(prefix="repro-native-"))
        target = private / "_seq3.so"
    try:
        if target.exists():
            try:
                kernel = _open(target)
                os.utime(target)  # recency for the cache's size-cap sweep
                info["backend"] = "native"
                return kernel, info
            except (OSError, AttributeError):
                target.unlink(missing_ok=True)  # damaged artifact: rebuild
        t0 = time.perf_counter()
        _compile(cc, target)
        info["build_s"] = round(time.perf_counter() - t0, 4)
        kernel = _open(target)
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        info["reason"] = f"native kernel build/load failed: {exc}"
        return None, info
    finally:
        if private is not None:  # the loaded mapping outlives the file
            shutil.rmtree(private, ignore_errors=True)
    info["backend"] = "native"
    return kernel, info


def load() -> Kernel | None:
    """The process's kernel, built or loaded once; ``None`` on fallback.

    Call it before forking workers so they inherit the loaded library.
    """
    global _kernel, _status
    if _status is None:
        with _lock:
            if _status is None:
                _kernel, _status = _build_and_load(_compiler())
    return _kernel


def active() -> Kernel | None:
    """The kernel the simulators should use now (``None``: NumPy/Python)."""
    return None if _selected == "python" else load()


def available_backends() -> list[str]:
    """``["native", "python"]``, or ``["python"]`` when the kernel is absent."""
    return ["native", "python"] if load() is not None else ["python"]


@contextmanager
def use(backend: str) -> Iterator[None]:
    """Run the enclosed simulations on ``backend`` (``native``/``python``)."""
    global _selected
    if backend not in ("native", "python"):
        raise ValueError(f"unknown simulator backend {backend!r}")
    if backend == "native" and load() is None:
        raise RuntimeError(f"native backend unavailable: {status()['reason']}")
    previous, _selected = _selected, backend
    try:
        yield
    finally:
        _selected = previous


def status() -> dict:
    """Which backend the simulators use, and why: ``backend``
    (``native``/``python``), ``reason`` for a fallback, ``build_s``
    (compile seconds in this process, 0 when loaded from the cache) and
    the kernel's ``source_sha256``."""
    load()
    info = dict(_status)
    if _selected == "python" and info["backend"] == "native":
        info.update(backend="python", reason="python backend selected")
    return info
