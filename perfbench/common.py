"""Shared helpers of the scan benchmark: statistics, machine record, state.

Nothing here imports the program under test; ``run.py`` puts the
checkout's ``src`` on the path before any workload module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch and cross-run state live inside the checkout (both ignored by git).
TMP_ROOT = ROOT / ".perfbench_tmp"
STATE_ROOT = ROOT / ".perfbench_state"


class GateFailure(Exception):
    """A correctness gate failed: the run is reported as incorrect."""


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def timing_summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    With ``n`` samples the p-th percentile has ``n * (1 - p/100)`` samples
    above it, so the tail needs ``n >= 11`` before p50 is even eligible.
    The tail is ``None`` when no percentile qualifies.
    """
    n = len(samples)
    out = {"n": n, "p50": median(samples), "tail_pct": None, "tail": None}
    if n < 11:
        return out
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            rank = min(n - 1, math.ceil(pct / 100 * n) - 1)
            out.update(tail_pct=pct, tail=ordered[rank])
            break
    return out


def reset_peak_rss() -> None:
    """Start a new peak-memory window for this process.

    Writing 5 to ``/proc/self/clear_refs`` resets the kernel's high-water
    mark (``VmHWM``) to the current resident size, so the peak read later
    covers only the timed operations, not set-up or reference solves.
    Where that file is missing the peak stays the process lifetime's.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def _own_peak_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss` plus the largest waited child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_own_peak_kib() + children) / 1024.0  # Linux reports KiB


def calibrate(reps: int = 15) -> float:
    """Median seconds of a fixed numpy kernel (dense 384^2 matmul + sort).

    Timed in the same run as the workload so later gates can divide
    layer times by it. It does not normalize the end-to-end times: the
    slow phases of a shared VM hit working sets of hundreds of MB and
    leave a cache-sized kernel like this one untouched.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((384, 384))
    v = rng.standard_normal(200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        (a @ a).sum()
        np.sort(v)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return f"library default (nproc={os.cpu_count()})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    """The machine and software the figures were measured on."""
    import multiprocessing

    import numpy
    import scipy

    from repro.backend import get_backend

    methods = multiprocessing.get_all_start_methods()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "compute_backend": get_backend().name,
        # SessionWorkerPool's rule: fork where available.
        "mp_start_method": "fork" if "fork" in methods else methods[0],
    }


def code_digest() -> str:
    """Digest of the program and benchmark sources (keys cross-run records)."""
    h = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_counter_record(workload: str, seed: int, counters: dict[str, list]) -> dict:
    """Compare exact work counters with an earlier run of the same seed.

    The first run of a (code, workload, seed) stores its per-operation
    counters; every later run must repeat the common prefix exactly
    (runs may differ in how many operations fit in the time budget).
    Raises :class:`GateFailure` on a mismatch.
    """
    path = STATE_ROOT / code_digest() / f"{workload}-seed{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        compared = []
        for name, values in counters.items():
            if name not in earlier:
                continue
            n = min(len(values), len(earlier[name]))
            if values[:n] != earlier[name][:n]:
                raise GateFailure(
                    f"counter {name} did not repeat for seed {seed}: "
                    f"{earlier[name][:n]} earlier, {values[:n]} now"
                )
            compared.append(name)
        merged = {**earlier}
        for name, values in counters.items():
            if len(values) > len(merged.get(name, [])):
                merged[name] = values
        path.write_text(json.dumps(merged))
        return {"status": "repeated", "compared": sorted(compared)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters))
    return {"status": "recorded", "compared": []}


def emit(record: dict, result: dict) -> None:
    """Print the detail record, then the result object as the last line."""
    print(json.dumps(record, default=_jsonable, sort_keys=True))
    print(json.dumps(result, default=_jsonable))
    sys.stdout.flush()


def _jsonable(obj):
    try:
        import numpy

        if isinstance(obj, numpy.generic):
            return obj.item()
    except ImportError:
        pass
    return str(obj)
