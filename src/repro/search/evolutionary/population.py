"""Fitness evaluation for GA solutions.

Fitness of a feasible solution is the sparsity coefficient of the cube
it encodes (more negative = fitter).  A string whose dimensionality
deviates from the run's k — possible only under the two-point crossover
baseline — receives :data:`INFEASIBLE_FITNESS` so that selection drives
it out of the population, exactly as §2.2 prescribes ("assigned very
low fitness values"; low fitness here means a *large* coefficient since
we minimize).

Partial strings (fewer than k fixed genes) arising *inside* the
optimized crossover are scored at their **own** dimensionality — Eq. 1
with that k — because coefficients at different dimensionalities are
not comparable (§1.1 desiderata); the crossover only ever compares
partials of equal dimensionality, so its greedy choices are sound.
"""

from __future__ import annotations

import numpy as np

from ...core.results import ScoredProjection
from ...exceptions import ValidationError
from ...grid.counter import CubeCounter
from ...sparsity.coefficient import sparsity_coefficient, sparsity_coefficients
from ..._validation import check_positive_int
from .encoding import Solution

__all__ = ["INFEASIBLE_FITNESS", "FitnessEvaluator"]

#: Fitness assigned to strings of the wrong dimensionality.  +inf makes
#: them strictly worse than any real cube under minimization.
INFEASIBLE_FITNESS = float("inf")


class FitnessEvaluator:
    """Scores solutions against a fixed grid and target dimensionality.

    Parameters
    ----------
    counter:
        Cube counting engine (memoises counts internally).
    dimensionality:
        The run's k; strings of any other dimensionality are infeasible.
    """

    def __init__(self, counter: CubeCounter, dimensionality: int):
        if not isinstance(counter, CubeCounter):
            raise ValidationError(
                f"counter must be a CubeCounter, got {type(counter).__name__}"
            )
        self.counter = counter
        self.dimensionality = check_positive_int(dimensionality, "dimensionality")
        if self.dimensionality > counter.n_dims:
            raise ValidationError(
                f"dimensionality ({self.dimensionality}) exceeds data "
                f"dimensionality ({counter.n_dims})"
            )
        if counter.n_ranges < 2:
            raise ValidationError("fitness evaluation requires a grid with φ >= 2")
        self.n_evaluations = 0

    # ------------------------------------------------------------------
    def fitness(self, solution: Solution) -> float:
        """Sparsity coefficient of the encoded cube; +inf if infeasible."""
        if not solution.is_feasible(self.dimensionality):
            return INFEASIBLE_FITNESS
        return self.partial_fitness(solution)

    def partial_fitness(self, solution: Solution) -> float:
        """Coefficient at the string's *own* dimensionality.

        The 0-dimensional all-wildcard string scores 0 (it is the whole
        dataset; neither sparse nor dense).  The optimized crossover
        scores its partial candidates the same way, a step at a time,
        through :meth:`extended_fitness`.
        """
        k = solution.dimensionality
        if k == 0:
            return 0.0
        self.n_evaluations += 1
        count = self.counter.count(solution.to_subspace())
        return sparsity_coefficient(
            count, self.counter.n_points, self.counter.n_ranges, k
        )

    def extended_fitness(self, base: tuple, extensions: list) -> np.ndarray:
        """:meth:`partial_fitness` of ``base ∪ ext`` for every extension.

        One optimized-crossover step: *base* is the ``(dims, ranges)``
        key of the shared partial cube and each extension a tuple of
        ``(dim, range)`` genes, all of one length, so every candidate
        has the same dimensionality.  Counted with one
        :meth:`~repro.grid.counter.CubeCounter.count_extended` call and
        scored with the vectorized Equation 1; entry ``i`` equals
        ``partial_fitness`` of candidate ``i``, bit for bit, and the
        evaluation count advances by one per candidate.
        """
        lengths = {len(extension) for extension in extensions}
        if len(lengths) > 1:
            raise ValidationError(
                f"extensions of one step must add equally many genes, got {lengths}"
            )
        k = len(base[0]) + (lengths.pop() if lengths else 0)
        if k == 0:
            return np.zeros(len(extensions))
        self.n_evaluations += len(extensions)
        counts = self.counter.count_extended(base, extensions)
        return sparsity_coefficients(
            counts, self.counter.n_points, self.counter.n_ranges, k
        )

    def score(self, solution: Solution) -> ScoredProjection | None:
        """Full :class:`ScoredProjection` for a feasible string, else None."""
        if not solution.is_feasible(self.dimensionality):
            return None
        subspace = solution.to_subspace()
        self.n_evaluations += 1
        count = self.counter.count(subspace)
        coefficient = sparsity_coefficient(
            count, self.counter.n_points, self.counter.n_ranges, self.dimensionality
        )
        return ScoredProjection(subspace, count, coefficient)

    def score_batch(
        self, solutions: list[Solution]
    ) -> list[ScoredProjection | None]:
        """Score a whole population through one batched count.

        Feasible strings are counted with a single
        :meth:`~repro.grid.counter.CubeCounter.count_batch` call — the
        GA's per-generation hot path — and scored with the vectorized
        Equation 1.  Entry ``i`` is ``None`` exactly when
        :meth:`score` would return ``None`` for ``solutions[i]``, and
        the scored values are identical to the per-solution path.
        """
        results: list[ScoredProjection | None] = [None] * len(solutions)
        indices: list[int] = []
        subspaces = []
        for i, solution in enumerate(solutions):
            if solution.is_feasible(self.dimensionality):
                indices.append(i)
                subspaces.append(solution.to_subspace())
        if not subspaces:
            return results
        counts = self.counter.count_batch(subspaces)
        self.n_evaluations += len(subspaces)
        coefficients = sparsity_coefficients(
            counts, self.counter.n_points, self.counter.n_ranges, self.dimensionality
        )
        for i, subspace, count, coefficient in zip(
            indices, subspaces, counts, coefficients, strict=True
        ):
            results[i] = ScoredProjection(subspace, int(count), float(coefficient))
        return results

    def fitnesses(self, solutions: list[Solution]) -> list[float]:
        """Vector of fitness values for a whole population."""
        return [self.fitness(s) for s in solutions]
