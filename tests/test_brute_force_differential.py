"""Differential harness: both brute-force strategies against a naive reference.

``depth_first`` (per-partial leaf blocks, one ``bincount`` each) and
``level_batch`` (breadth-first ``count_batch`` chunks) must return the
same best set as a naive ``itertools`` enumeration that counts every
cube by scanning rows and offers it to a fresh
:class:`~repro.search.best_set.BestProjectionSet` one by one, in the
order Figure 2's canonical enumeration generates it.  "The same" means
the whole :meth:`~repro.search.best_set.BestProjectionSet.to_state`
snapshot: kept entries with their insertion counters (tie order),
``n_offers`` and ``n_accepted`` — plus ``evaluations``.

The default run covers a handful of shapes; ``-m slow`` unlocks the
deep sweep (more seeds and shapes).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core.subspace import Subspace
from repro.grid.cells import MISSING_CELL, CellAssignment
from repro.grid.counter import CubeCounter
from repro.search.best_set import BestProjectionSet
from repro.search.brute_force import BruteForceSearch
from repro.sparsity.coefficient import sparsity_coefficients

STRATEGIES = ("depth_first", "level_batch")


def random_cells(rng, n_points, n_dims, n_ranges, missing=0.0) -> CellAssignment:
    codes = rng.integers(0, n_ranges, size=(n_points, n_dims), dtype=np.int16)
    if missing:
        codes[rng.random(codes.shape) < missing] = MISSING_CELL
    return CellAssignment(codes=codes, n_ranges=n_ranges)


def factorial_cells(n_dims, n_ranges, missing_rows=0) -> CellAssignment:
    """Every grid cell once: all k-cubes tie at count ``φ^(d−k)``.

    *missing_rows* extra rows are missing on every dimension, so they
    shift ``N`` without touching any count.
    """
    rows = list(itertools.product(range(n_ranges), repeat=n_dims))
    rows += [(MISSING_CELL,) * n_dims] * missing_rows
    return CellAssignment(codes=np.array(rows, dtype=np.int16), n_ranges=n_ranges)


def generated_cubes(cells: CellAssignment, k: int, require_nonempty: bool):
    """``((dims, ranges), count)`` of every offered cube, in offer order.

    The enumeration extends a cube only with dimensions above its
    largest one, visiting ``(d1, r1, d2, r2, ...)`` lexicographically;
    with ``require_nonempty`` it never extends an empty partial cube,
    so a cube whose ``k−1`` prefix is empty is never generated.
    """
    codes, phi = cells.codes, cells.n_ranges
    cubes = []
    for dims in itertools.combinations(range(cells.n_dims), k):
        for ranges in itertools.product(range(phi), repeat=k):
            inside = np.all(codes[:, list(dims)] == ranges, axis=1)
            if require_nonempty and k > 1:
                prefix = np.all(codes[:, list(dims[:-1])] == ranges[:-1], axis=1)
                if not prefix.any():
                    continue
            cubes.append(((dims, ranges), int(inside.sum())))
    cubes.sort(key=lambda cube: tuple(itertools.chain(*zip(*cube[0]))))
    return cubes


def reference_best(cells, k, cubes, *, n_projections, require_nonempty, threshold):
    """Offer *cubes* one at a time through the plain ``offer`` path."""
    best = BestProjectionSet(
        n_projections, require_nonempty=require_nonempty, threshold=threshold
    )
    counts = np.array([count for _, count in cubes], dtype=np.int64)
    coefficients = sparsity_coefficients(counts, cells.n_points, cells.n_ranges, k)
    for ((dims, ranges), count), coefficient in zip(cubes, coefficients, strict=True):
        best.offer_cube(Subspace(dims, ranges), count, float(coefficient))
    return best


def run_search(cells, k, strategy, **kwargs):
    search = BruteForceSearch(CubeCounter(cells), k, strategy=strategy, **kwargs)
    outcome = search.run()
    return outcome, search._run["best"]


def snapshot(projections):
    return [(p.subspace.dims, p.subspace.ranges, p.count, p.coefficient) for p in projections]


def check_strategies(cells, k, *, n_projections=5, require_nonempty=True, threshold=None):
    cubes = generated_cubes(cells, k, require_nonempty)
    reference = reference_best(
        cells, k, cubes,
        n_projections=n_projections,
        require_nonempty=require_nonempty,
        threshold=threshold,
    )
    for strategy in STRATEGIES:
        outcome, best = run_search(
            cells, k, strategy,
            n_projections=n_projections,
            require_nonempty=require_nonempty,
            threshold=threshold,
        )
        assert outcome.completed, strategy
        assert outcome.stats["evaluations"] == len(cubes), strategy
        assert best.to_state() == reference.to_state(), strategy
        assert snapshot(outcome.projections) == snapshot(reference.entries()), strategy


CASES = [
    # (seed, n, d, phi, k, missing, n_projections, require_nonempty, threshold)
    (0, 60, 5, 3, 2, 0.0, 5, True, None),
    (1, 80, 5, 3, 3, 0.2, 5, True, None),
    (2, 50, 4, 4, 1, 0.1, 3, True, None),
    (3, 40, 4, 3, 4, 0.1, 6, True, None),  # k = d
    (4, 30, 5, 2, 5, 0.0, 4, False, None),  # k = d, empty cubes offered
    (5, 70, 5, 3, 3, 0.3, 8, False, None),
    (6, 90, 6, 3, 3, 0.1, None, True, -0.5),  # threshold mode
    (7, 90, 6, 2, 2, 0.2, None, False, 0.0),
    (8, 60, 5, 4, 2, 0.1, 4, True, -0.2),  # threshold and m
    (9, 25, 6, 3, 3, 0.4, 10, True, None),  # sparse: many pruned partials
]


class TestStrategiesMatchReference:
    @pytest.mark.parametrize("case", CASES, ids=[f"seed{c[0]}" for c in CASES])
    def test_random_grids(self, case):
        seed, n, d, phi, k, missing, m, nonempty, threshold = case
        cells = random_cells(np.random.default_rng(seed), n, d, phi, missing)
        check_strategies(
            cells, k, n_projections=m, require_nonempty=nonempty, threshold=threshold
        )

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("nonempty", [True, False])
    def test_planted_ties_keep_generation_order(self, k, nonempty):
        # Every k-cube has the same count, so every coefficient ties and
        # the kept set is decided by arrival order alone.
        cells = factorial_cells(4, 3, missing_rows=5)
        check_strategies(cells, k, n_projections=7, require_nonempty=nonempty)
        _, best = run_search(cells, k, "depth_first", n_projections=7,
                             require_nonempty=nonempty)
        first = [cube for cube, _ in generated_cubes(cells, k, nonempty)[:7]]
        assert [(p.subspace.dims, p.subspace.ranges) for p in best.entries()] == first


class TestEvaluationCap:
    """A capped depth-first run stops at the same cube as a per-dimension check.

    The budget is checked before each dimension of a leaf block, so a
    run capped at ``cap`` scores the first ``ceil(cap/φ)`` whole
    dimensions' worth of cubes and no more.
    """

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("nonempty", [False, True])
    def test_every_cap(self, nonempty, k):
        cells = random_cells(np.random.default_rng(11), 30, 4, 3, missing=0.2)
        phi, m = cells.n_ranges, 4
        cubes = generated_cubes(cells, k, nonempty)
        total = len(cubes)
        for cap in range(1, total + 1):
            outcome, best = run_search(
                cells, k, "depth_first",
                n_projections=m, require_nonempty=nonempty, max_evaluations=cap,
            )
            evaluations = outcome.stats["evaluations"]
            assert evaluations == min(total, math.ceil(cap / phi) * phi), cap
            reference = reference_best(
                cells, k, cubes[:evaluations],
                n_projections=m, require_nonempty=nonempty, threshold=None,
            )
            assert best.to_state() == reference.to_state(), cap
            if evaluations < total:
                assert not outcome.completed, cap
                assert outcome.stopped_reason == "evaluation_cap", cap


@pytest.mark.slow
class TestDeepSweep:
    """More seeds and shapes (run with ``-m slow``)."""

    @pytest.mark.parametrize("seed", range(24))
    def test_many_random_grids(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(10, 121))
        d = int(rng.integers(1, 7))
        phi = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(d, 4) + 1))
        missing = float(rng.choice([0.0, 0.1, 0.3]))
        nonempty = bool(rng.integers(2))
        if rng.integers(2):
            m, threshold = int(rng.integers(1, 12)), None
        else:
            m, threshold = None, float(rng.choice([-1.0, -0.3, 0.0]))
        check_strategies(
            random_cells(rng, n, d, phi, missing), k,
            n_projections=m, require_nonempty=nonempty, threshold=threshold,
        )

    @pytest.mark.parametrize("d, phi", [(3, 2), (4, 2), (3, 3), (5, 2)])
    def test_planted_ties_every_k(self, d, phi):
        cells = factorial_cells(d, phi, missing_rows=3)
        for k in range(1, d + 1):
            for nonempty in (True, False):
                check_strategies(cells, k, n_projections=5, require_nonempty=nonempty)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_cap_deep(self, seed):
        rng = np.random.default_rng(6000 + seed)
        cells = random_cells(rng, 40, 5, 3, missing=0.1)
        k, phi = 3, cells.n_ranges
        cubes = generated_cubes(cells, k, True)
        for cap in range(1, len(cubes) + 1):
            outcome, best = run_search(
                cells, k, "depth_first", n_projections=6, max_evaluations=cap
            )
            evaluations = outcome.stats["evaluations"]
            assert evaluations == min(len(cubes), math.ceil(cap / phi) * phi)
            reference = reference_best(
                cells, k, cubes[:evaluations],
                n_projections=6, require_nonempty=True, threshold=None,
            )
            assert best.to_state() == reference.to_state()
