"""Substrate micro-benchmark: cube-counting engines.

Not a paper table — this measures the reproduction's own engine-room
(DESIGN.md "Counting" decision): the boolean-mask counter vs the
bit-packed counter vs naive row scanning, at a scale larger than any
paper dataset, plus the memoisation hit rate a GA-shaped workload
achieves, plus the batched kernel's speedup over per-cube counting on
a GA-population-sized batch (the headline number for the batch API) —
now measured per counting backend (serial numpy kernel vs the native
compiled kernel) and appended to the tracked perf trajectory in
``BENCH_engine.json`` (see ``repro.bench.trajectory``), which
``benchmarks/check_regression.py`` gates in CI.

Environment knobs:

- ``REPRO_BENCH_JSON`` — trajectory output path (default:
  ``BENCH_engine.json`` at the repo root).
- ``REPRO_BENCH_PROFILE=ci`` — shrink the workload for the CI
  bench-gate job and skip the absolute-speedup assertions (timings on
  shared runners are noisy; the regression gate compares run-to-run
  instead).
"""

from __future__ import annotations

import os
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.bench import append_entry
from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.native import kernel_info
from repro.grid.packed_counter import PackedCubeCounter
from repro.grid.sharded import ShardedCounter, ShardedMaskStore

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "full")
FULL = PROFILE != "ci"

if FULL:
    N_POINTS = 100_000
    N_DIMS = 32
    PHI = 8
    N_CUBES = 300
    # The batch scenario mirrors the paper's running example (d=20,
    # phi=10, k=4) with a GA population of 500 strings over N=50k points.
    BATCH_N = 50_000
    BATCH_D = 20
    BATCH_PHI = 10
    BATCH_K = 4
    BATCH_P = 500
else:
    # Small enough for a CI job, large enough that the batched timings
    # are well clear of fixed per-call overhead (the regression gate
    # compares them run-to-run at a 20% threshold, so they must not
    # jitter at that scale).
    N_POINTS = 5_000
    N_DIMS = 16
    PHI = 8
    N_CUBES = 60
    BATCH_N = 30_000
    BATCH_D = 20
    BATCH_PHI = 10
    BATCH_K = 4
    BATCH_P = 400

#: Best-of-N repetitions for the batched timings — the min is far more
#: stable than the mean on shared machines; the noisier CI runners get
#: more repetitions, and each repetition times INNER consecutive calls
#: so a sub-millisecond kernel is still measured over several
#: milliseconds (the 20% regression gate needs timings that do not
#: jitter at that scale between two runs of the same commit).
REPS = 3 if FULL else 9
INNER = 1 if FULL else 10

_LINES: list[str] = []

#: Scalar summary metrics for this run's trajectory entry.
_METRICS: dict[str, float] = {}
#: Per-backend timing records for this run's trajectory entry.
_BACKENDS: dict[str, dict] = {}
_BENCH_JSON = Path(
    os.environ.get(
        "REPRO_BENCH_JSON",
        Path(__file__).resolve().parents[1] / "BENCH_engine.json",
    )
)


@pytest.fixture(scope="module")
def cells():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, PHI, size=(N_POINTS, N_DIMS)).astype(np.int16)
    return CellAssignment(codes, PHI)


@pytest.fixture(scope="module")
def cubes():
    rng = np.random.default_rng(6)
    out = []
    for _ in range(N_CUBES):
        k = int(rng.integers(2, 5))
        dims = tuple(sorted(rng.choice(N_DIMS, size=k, replace=False).tolist()))
        ranges = tuple(int(r) for r in rng.integers(0, PHI, size=k))
        out.append(Subspace(dims, ranges))
    return out


def _count_all(counter, cubes):
    return [counter.count(cube) for cube in cubes]


def _timed_count_all(counter, cubes, metric_key):
    t0 = time.perf_counter()
    counts = _count_all(counter, cubes)
    _METRICS[metric_key] = time.perf_counter() - t0
    return counts


def _best_of(fn, reps=REPS, inner=INNER):
    """Return (result, best_seconds) where each of *reps* samples times
    *inner* consecutive calls and reports the per-call average."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            result = fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return result, best


def test_boolean_mask_counter(benchmark, cells, cubes):
    counter = CubeCounter(cells, cache_size=0)
    counts = benchmark.pedantic(
        lambda: _timed_count_all(counter, cubes, "boolean_mask_seconds"),
        rounds=1, iterations=1,
    )
    _LINES.append(
        f"{'boolean masks':<22}{counter.mask_memory_bytes() / 1e6:>12.1f} MB"
    )
    _METRICS["boolean_mask_memory_mb"] = counter.mask_memory_bytes() / 1e6
    assert len(counts) == N_CUBES


def test_packed_counter(benchmark, cells, cubes):
    counter = PackedCubeCounter(cells, cache_size=0)
    reference = _count_all(CubeCounter(cells, cache_size=0), cubes)
    counts = benchmark.pedantic(
        lambda: _timed_count_all(counter, cubes, "packed_mask_seconds"),
        rounds=1, iterations=1,
    )
    _LINES.append(
        f"{'bit-packed masks':<22}{counter.mask_memory_bytes() / 1e6:>12.1f} MB"
    )
    _METRICS["packed_mask_memory_mb"] = counter.mask_memory_bytes() / 1e6
    assert counts == reference


def test_cache_effectiveness(benchmark, cells, cubes):
    # A GA re-evaluates converging populations: simulate 10x repetition.
    counter = CubeCounter(cells)

    def repeated():
        for _ in range(10):
            _count_all(counter, cubes)
        return counter.cache_stats()

    stats = benchmark.pedantic(repeated, rounds=1, iterations=1)
    hit_rate = stats["cache_hits"] / stats["count_calls"]
    _LINES.append(f"{'memoisation hit rate':<22}{hit_rate:>12.1%}")
    _METRICS["cache_hit_rate"] = hit_rate
    assert hit_rate > 0.85


def test_batch_speedup(benchmark):
    # Acceptance (full profile): count_batch on a population-sized batch
    # must beat per-cube counting by >= 3x, and the native backend must
    # beat the serial batched path by >= 2x when a compiled tier is up.
    rng = np.random.default_rng(7)
    codes = rng.integers(0, BATCH_PHI, size=(BATCH_N, BATCH_D)).astype(np.int16)
    cells = CellAssignment(codes, BATCH_PHI)
    population = []
    for _ in range(BATCH_P):
        dims = tuple(
            sorted(rng.choice(BATCH_D, size=BATCH_K, replace=False).tolist())
        )
        ranges = tuple(int(r) for r in rng.integers(0, BATCH_PHI, size=BATCH_K))
        population.append(Subspace(dims, ranges))

    per_cube = CubeCounter(cells, cache_size=0)
    t0 = time.perf_counter()
    reference = _count_all(per_cube, population)
    per_cube_seconds = time.perf_counter() - t0

    serial = PackedCubeCounter(cells, cache_size=0)
    counts, batch_seconds = benchmark.pedantic(
        lambda: _best_of(lambda: serial.count_batch(population)),
        rounds=1, iterations=1,
    )

    native = PackedCubeCounter(
        cells, cache_size=0, backend=CountingBackend(kind="native")
    )
    native_counts, native_seconds = _best_of(
        lambda: native.count_batch(population)
    )
    tier = kernel_info()["tier"]

    # The out-of-core counter over the same data: 8 mmapped row shards
    # streamed through the native kernel.  The interesting number is the
    # overhead vs the all-in-RAM native path (mmap opens + per-shard
    # kernel launches + the accumulator), tracked run-to-run like the
    # other backends.
    with tempfile.TemporaryDirectory() as mask_dir:
        store = ShardedMaskStore.build(
            cells, mask_dir, shard_rows=-(-BATCH_N // 8)
        )
        sharded = ShardedCounter(
            store, cache_size=0, backend=CountingBackend(kind="native")
        )
        sharded_counts, sharded_seconds = _best_of(
            lambda: sharded.count_batch(population)
        )
        n_shards = store.n_shards

    speedup = per_cube_seconds / batch_seconds
    native_speedup = batch_seconds / native_seconds
    _LINES.append(
        f"{'batch API speedup':<22}{speedup:>11.1f}x  "
        f"(p={BATCH_P}, k={BATCH_K}, N={BATCH_N:,}: "
        f"{per_cube_seconds:.2f}s per-cube vs {batch_seconds:.2f}s batched)"
    )
    _LINES.append(
        f"{'native vs batched':<22}{native_speedup:>11.1f}x  "
        f"(kernel tier '{tier}': {native_seconds * 1e3:.2f}ms vs "
        f"{batch_seconds * 1e3:.2f}ms serial)"
    )
    sharded_overhead = sharded_seconds / native_seconds
    _LINES.append(
        f"{'sharded (out-of-core)':<22}{sharded_overhead:>11.1f}x  "
        f"(vs native in-RAM: {sharded_seconds * 1e3:.2f}ms over "
        f"{n_shards} mmapped shards)"
    )
    _METRICS["batch_speedup"] = speedup
    _METRICS["batch_seconds"] = batch_seconds
    _METRICS["per_cube_seconds"] = per_cube_seconds
    _METRICS["native_batch_seconds"] = native_seconds
    _METRICS["native_speedup_vs_batch"] = native_speedup
    _METRICS["sharded_batch_seconds"] = sharded_seconds
    _METRICS["sharded_overhead_vs_native"] = sharded_overhead
    _BACKENDS["serial"] = {"batch_seconds": batch_seconds}
    _BACKENDS["native"] = {
        "batch_seconds": native_seconds,
        "kernel_tier": tier,
    }
    _BACKENDS["sharded"] = {
        "batch_seconds": sharded_seconds,
        "kernel_tier": tier,
        "n_shards": n_shards,
    }
    assert counts.tolist() == reference
    assert native_counts.tolist() == reference
    assert sharded_counts.tolist() == reference
    if FULL:
        assert speedup >= 3.0
        if tier != "numpy":
            # Pure-numpy fallback (no compiler) is correct but
            # not fast; the 2x gate only applies to compiled tiers.
            assert native_speedup >= 2.0


def test_report(benchmark):
    lines = benchmark.pedantic(
        lambda: [
            f"N={N_POINTS:,}, d={N_DIMS}, phi={PHI}; {N_CUBES} random cubes "
            "(k in 2..4)",
            "",
        ]
        + _LINES,
        rounds=1,
        iterations=1,
    )
    from conftest import register_report

    register_report("Substrate - cube counting engines", lines)
    # Clock read lives here in benchmarks/, never in src/ (lint RPL002);
    # repro.bench takes the timestamp as data.
    append_entry(
        _BENCH_JSON,
        benchmark="counter_performance",
        timestamp=datetime.now(timezone.utc).isoformat(),
        params={
            "profile": PROFILE,
            "n_points": N_POINTS,
            "n_dims": N_DIMS,
            "phi": PHI,
            "n_cubes": N_CUBES,
            "batch": {
                "n_points": BATCH_N,
                "n_dims": BATCH_D,
                "phi": BATCH_PHI,
                "k": BATCH_K,
                "population": BATCH_P,
            },
        },
        metrics=dict(_METRICS),
        backends=dict(_BACKENDS),
    )
