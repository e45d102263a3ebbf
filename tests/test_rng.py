import threading

import numpy as np
import pytest

from curselab import rng
from curselab.rng import chunk_sizes, mc_mean, substream


def test_substreams_are_reproducible():
    a = substream(42, 3).random(8)
    b = substream(42, 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_by_task_and_seed():
    base = substream(42, 0).random(8)
    assert not np.array_equal(base, substream(42, 1).random(8))
    assert not np.array_equal(base, substream(43, 0).random(8))


def test_substream_validation():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(0, -2)
    # Philox keys are two uint64 words.
    substream(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError):
        substream(2**64)
    with pytest.raises(ValueError):
        substream(0, 2**64)


def test_chunk_sizes_cover_total():
    assert sum(chunk_sizes(100_000)) == 100_000
    assert chunk_sizes(2 * (1 << 14) + 1) == [1 << 14, 1 << 14, 1]
    assert chunk_sizes(0) == []
    with pytest.raises(ValueError):
        chunk_sizes(-1)


def _normal_draw(rng, size):
    return rng.standard_normal(size) * 3.0 + 1.0


def test_mc_mean_independent_of_threads():
    n = 3 * (1 << 14) + 123  # three full chunks and a partial one
    runs = [mc_mean(_normal_draw, 11, n, threads=t) for t in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].samples == n
    assert runs[0].chunks == 4
    assert abs(runs[0].mean - 1.0) <= runs[0].half_width_95 * 3.0


def test_mc_mean_constant_draw_is_exact():
    est = mc_mean(lambda rng, size: np.full(size, 0.1), 3, 5 * (1 << 14) - 7, threads=2)
    assert est.mean == 0.1
    assert est.half_width_95 == 0.0
    assert est.chunks == 5


def test_mc_mean_pool_workers_run_blas_single_threaded():
    blas = rng._openblas_threads()
    if not blas:
        pytest.skip("no OpenBLAS in this process")
    get, put = blas[0]
    original = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        seen = []

        def draw(gen, size):
            seen.append(get())
            return gen.random(size)

        mc_mean(draw, 5, 3 * (1 << 14), threads=2)
        assert seen == [1, 1, 1]
        assert get() == 2  # restored after the pool
        mc_mean(draw, 5, 1 << 14)
        assert seen[-1] == 2  # a single-threaded call leaves BLAS alone
    finally:
        put(original)


def test_mc_mean_default_threads_match_one_thread(pool_workers, report_cpus):
    report_cpus(4)
    n = 3 * (1 << 14) + 123
    assert mc_mean(_normal_draw, 17, n) == mc_mean(_normal_draw, 17, n, threads=1)
    assert pool_workers == [4]  # the default pooled; threads=1 did not


def test_mc_mean_default_clamps_threads_to_chunks(pool_workers, report_cpus):
    report_cpus(8)
    mc_mean(_normal_draw, 2, 2 * (1 << 14) + 1)
    assert pool_workers == [3]


def test_mc_mean_one_chunk_starts_no_pool(monkeypatch, report_cpus):
    report_cpus(4)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-chunk estimate started a thread pool")

    monkeypatch.setattr(rng, "ThreadPoolExecutor", refuse)
    est = mc_mean(_normal_draw, 3, 2000)
    assert est.chunks == 1
    assert mc_mean(_normal_draw, 3, 1 << 14, threads=4) == mc_mean(_normal_draw, 3, 1 << 14)


def test_overlapping_blas_holds_restore_once_both_end():
    blas = rng._openblas_threads()
    if not blas:
        pytest.skip("no OpenBLAS in this process")
    get, put = blas[0]
    original = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS cannot run two threads here")
        first_in, first_out, second_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with rng._single_threaded_blas():
                first_in.set()
                first_out.wait(10)
            seen["after_first"] = get()  # the second hold is still open
            second_out.set()

        def second():
            first_in.wait(10)
            with rng._single_threaded_blas():
                seen["inside_second"] = get()
                first_out.set()
                second_out.wait(10)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert seen == {"inside_second": 1, "after_first": 1}
        assert get() == 2  # restored by the last exit
    finally:
        put(original)
