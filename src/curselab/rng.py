"""Reproducible random streams and the one Monte Carlo reducer.

All randomized routines in this package draw from counter-based Philox
streams keyed by ``(seed, task_index)``.  Distinct task indices give
statistically independent substreams.  Every Monte Carlo estimator runs
through :func:`mc_mean`, which draws fixed chunks from substreams keyed
by the chunk index and reduces them in chunk order, so its result is the
same no matter how many threads draw the chunks; by default every core
the process may use draws them.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["Z95", "substream", "chunk_sizes", "MonteCarloMean", "mc_mean"]

Z95 = 1.959963984540054  # two-sided 95% quantile of the standard normal

#: Samples per Monte Carlo chunk.  Chunk i draws from substream i, so
#: this fixes every seeded stream; it also bounds each draw's array size.
_CHUNK = 1 << 14

#: Entries per array in one block of rows (1 MiB of float64): the row
#: blocks of ``smoothed_eval`` and the finite-difference stencil blocks.
_BLOCK_ENTRIES = 1 << 17


def substream(seed: int, task_index: int = 0) -> np.random.Generator:
    """Generator for substream ``task_index`` of the stream keyed by ``seed``."""
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be an integer in [0, 2**64)")
    if not 0 <= task_index < 1 << 64:
        raise ValueError("task_index must be an integer in [0, 2**64)")
    key = np.array([seed, task_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(total: int) -> list[int]:
    """Fixed chunking of ``total`` samples; independent of worker count."""
    if total < 0:
        raise ValueError("total must be non-negative")
    full, rest = divmod(total, _CHUNK)
    sizes = [_CHUNK] * full
    if rest:
        sizes.append(rest)
    return sizes


@cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in this process.

    The libraries are found in ``/proc/self/maps``; numpy and scipy each
    bundle one, under prefixed symbol names.  Empty where there is none.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
    return tuple(found)


_blas_lock = threading.Lock()
_blas_holds = 0
_blas_saved: list[int] = []


@contextmanager
def _single_threaded_blas():
    """Run OpenBLAS on one thread inside the block, then restore its count.

    Pool workers each call BLAS; at its default thread count every call
    would start as many BLAS threads as there are cores.  The count is
    process-wide, so overlapping blocks share one hold: the first entry
    saves the counts and sets one thread, the last exit restores them.
    """
    global _blas_holds, _blas_saved
    libs = _openblas_threads()
    with _blas_lock:
        if _blas_holds == 0:
            _blas_saved = [get() for get, _ in libs]
            for _, put in libs:
                put(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                for (_, put), count in zip(libs, _blas_saved):
                    put(count)


def _available_cpus() -> int:
    """Cores this process may run on (``os.cpu_count()`` without affinity)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class MonteCarloMean(NamedTuple):
    """Result of :func:`mc_mean`; the half-width is the 95% normal one."""

    mean: float
    half_width_95: float
    samples: int
    chunks: int


def mc_mean(draw, seed: int, n_samples: int, threads: int | None = None) -> MonteCarloMean:
    """Mean of ``n_samples`` values of ``draw(rng, size)``, which returns ``size`` values.

    Chunk i draws from ``substream(seed, i)`` with its size from
    :func:`chunk_sizes`.  ``threads`` defaults to the cores the process
    may use and is clamped to the number of chunks, so a one-chunk
    estimate starts no pool.  With more than one thread a thread pool
    draws the chunks, each worker holding one chunk's arrays, with
    OpenBLAS held to one thread meanwhile; the calling thread reduces
    the chunks in chunk order, so the result does not depend on
    ``threads``.  Sums run relative to the first value, so constant
    draws give exact means and zero half-widths; boolean draws sum
    exactly.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    sizes = chunk_sizes(n_samples)
    threads = min(_available_cpus() if threads is None else threads, len(sizes))
    shift = total = total_sq = 0.0
    pooled = threads > 1
    with (
        _single_threaded_blas() if pooled else nullcontext(),
        ThreadPoolExecutor(threads) if pooled else nullcontext() as pool,
    ):
        chunks = (pool.map if pool else map)(
            lambda i: draw(substream(seed, i), sizes[i]), range(len(sizes))
        )
        for i, values in enumerate(chunks):
            if i == 0:
                shift = float(values[0])
            centered = np.subtract(values, shift, dtype=float)
            total += float(centered.sum())
            total_sq += float((centered * centered).sum())
    n = n_samples
    var = max(0.0, (total_sq - total * total / n) / (n - 1)) if n > 1 else 0.0
    return MonteCarloMean(shift + total / n, Z95 * math.sqrt(var / n), n, len(sizes))
