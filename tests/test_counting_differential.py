"""Differential harness: every counting path must agree exactly.

Four independent implementations of n(D) are compared on randomized
small grids (N <= 200, d <= 6, phi <= 4), with and without missing
values:

1. a naive O(N*k) row scan (``naive_cube_count`` — the reference),
2. ``CubeCounter.count`` (boolean masks + memo),
3. ``PackedCubeCounter.count`` (uint8 bitsets + popcount),
4. ``count_batch`` on both counters (the vectorized prefix-sharing
   kernel), under EVERY registered counting backend.

Any divergence — on any enumerable cube, including empty and
degenerate ones — is a bug in one of the engines, so the assertions
are strict equality on integer counts.

The conformance classes parametrize over the backend registry
(``repro.grid.backends``), so a newly registered backend is swept
automatically; the native backend is additionally pinned to each of
its kernel tiers (compiled and the pure-numpy fallback that runs when
no C compiler is available).

The default run sweeps a handful of seeds; ``-m slow`` unlocks the
deep sweep (more seeds, exhaustive cube enumeration at higher k).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.params import CountingBackend
from repro.core.subspace import Subspace
from repro.grid.backends import registered_backends
from repro.grid.counter import CubeCounter
from repro.grid.discretizer import CellAssignment
from repro.grid.native import available_tiers, forced_tier
from repro.grid.packed_counter import PackedCubeCounter

from conftest import naive_cube_count

def random_cells(rng, n_points, n_dims, n_ranges, missing=0.0) -> CellAssignment:
    """A random grid assignment, bypassing the discretizer.

    Codes are drawn uniformly; a *missing* fraction of entries becomes
    the missing sentinel (-1), exercising the mask-stack handling of
    incomplete rows.
    """
    codes = rng.integers(0, n_ranges, size=(n_points, n_dims), dtype=np.int16)
    if missing:
        codes[rng.random(codes.shape) < missing] = -1
    return CellAssignment(codes=codes, n_ranges=n_ranges)


def all_cubes(n_dims, n_ranges, max_k):
    """Every cube of dimensionality 1..max_k, lexicographic order."""
    for k in range(1, max_k + 1):
        for dims in itertools.combinations(range(n_dims), k):
            for rngs in itertools.product(range(n_ranges), repeat=k):
                yield Subspace(dims, rngs)


def _check_grid(cells, max_k, backend=None):
    """Assert all four implementations agree on every cube of the grid."""
    cubes = list(all_cubes(cells.n_dims, cells.n_ranges, max_k))
    expected = [naive_cube_count(cells.codes, cube) for cube in cubes]
    dense = CubeCounter(cells, backend=backend)
    packed = PackedCubeCounter(cells, backend=backend)
    for cube, want in zip(cubes, expected, strict=True):
        assert dense.count(cube) == want, cube
        assert packed.count(cube) == want, cube
    # Fresh counters for the batch path so the memo cannot mask a
    # broken kernel by answering from per-cube results.
    dense_b = CubeCounter(cells, backend=backend)
    packed_b = PackedCubeCounter(cells, backend=backend)
    assert dense_b.count_batch(cubes).tolist() == expected
    assert packed_b.count_batch(cubes).tolist() == expected


class TestSerialDifferential:
    """All engines vs the naive reference, serial backend."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 7))
        phi = int(rng.integers(2, 5))
        _check_grid(random_cells(rng, n, d, phi), max_k=min(3, d))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_grids_with_missing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 6))
        phi = int(rng.integers(2, 5))
        _check_grid(
            random_cells(rng, n, d, phi, missing=0.2), max_k=min(3, d)
        )

    def test_sparse_grid_with_empty_cubes(self):
        # phi^k >> N guarantees many cubes count zero — the branch where
        # require_nonempty pruning and popcount-of-nothing must agree.
        rng = np.random.default_rng(99)
        _check_grid(random_cells(rng, 25, 4, 4), max_k=3)

    def test_tiny_grid_exhaustive(self):
        # Small enough to enumerate every cube at full depth k = d.
        rng = np.random.default_rng(7)
        _check_grid(random_cells(rng, 50, 3, 3), max_k=3)

    def test_batch_order_and_duplicates(self, rng):
        cells = random_cells(rng, 120, 5, 3)
        cubes = list(all_cubes(5, 3, 2))
        shuffled = [cubes[i] for i in rng.permutation(len(cubes))]
        with_dups = shuffled + shuffled[:10] + [Subspace((), ())]
        got = CubeCounter(cells).count_batch(with_dups).tolist()
        expected = [naive_cube_count(cells.codes, c) for c in with_dups]
        assert got == expected


class TestBackendConformance:
    """Every registered backend must be count-identical to the naive
    reference — on the same grids, including missing values.  New
    backends join this sweep just by registering."""

    @pytest.mark.parametrize("kind", registered_backends())
    def test_backend_matches_reference(self, kind):
        rng = np.random.default_rng(21)
        _check_grid(
            random_cells(rng, 140, 4, 3),
            max_k=3,
            backend=CountingBackend(kind=kind),
        )

    @pytest.mark.parametrize("kind", registered_backends())
    def test_backend_matches_with_missing(self, kind):
        rng = np.random.default_rng(22)
        _check_grid(
            random_cells(rng, 110, 4, 4, missing=0.2),
            max_k=3,
            backend=CountingBackend(kind=kind),
        )

    @pytest.mark.parametrize("tier", available_tiers())
    def test_native_every_tier(self, tier):
        # Pin each kernel tier explicitly — in particular 'numpy', the
        # fallback taken when no C compiler is available.
        rng = np.random.default_rng(23)
        with forced_tier(tier):
            _check_grid(
                random_cells(rng, 130, 4, 3, missing=0.1),
                max_k=3,
                backend=CountingBackend(kind="native"),
            )

    def test_native_fallback_without_numba(self):
        # The no-compiler story: force the pure-numpy tier (always
        # available) and demand exact agreement.
        rng = np.random.default_rng(24)
        with forced_tier("numpy"):
            _check_grid(
                random_cells(rng, 90, 4, 4),
                max_k=3,
                backend=CountingBackend(kind="native"),
            )


@pytest.mark.slow
class TestDeepSweep:
    """Exhaustive multi-seed sweep (run with ``-m slow``)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_many_random_grids(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 7))
        phi = int(rng.integers(2, 5))
        missing = float(rng.choice([0.0, 0.1, 0.3]))
        _check_grid(random_cells(rng, n, d, phi, missing), max_k=min(4, d))

    @pytest.mark.parametrize("seed", range(3))
    def test_native_backend_deep(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 6))
        phi = int(rng.integers(2, 5))
        _check_grid(
            random_cells(rng, n, d, phi, missing=0.1),
            max_k=min(4, d),
            backend=CountingBackend(kind="native"),
        )
