"""Projection-parameter selection (§2.4 / Equation 2).

The dimensionality ``k`` of mined projections cannot be chosen freely:
too large and *every* cube is empty by default (no cube both attains a
very negative sparsity coefficient and covers at least one point), too
small and projections are insufficiently specific.  §2.4 derives the
sweet spot from the sparsity coefficient of an **empty** cube,

    S_empty = −sqrt(N / (φ^k − 1)),

and solves ``S_empty = s`` for the user's target significance ``s``
(−3 by default, the "99.9%" reference point):

    k* = floor( log_φ( N / s² + 1 ) )            (Equation 2)

``k*`` is "the largest value of k at which abnormally sparse projections
may be found before the effects of high dimensionality result in sparse
projections by default", and also the most informative choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import check_in_range, check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "CountingBackend",
    "empty_cube_sparsity",
    "expected_cube_count",
    "choose_projection_dimensionality",
    "ParameterAdvisor",
]


@dataclass(frozen=True)
class CountingBackend:
    """Execution policy for batched cube counting (``count_batch``).

    Attributes
    ----------
    kind:
        Name of a registered counting backend (see
        :mod:`repro.grid.backends`).  ``"serial"`` evaluates batches
        with the vectorized numpy AND/popcount kernel; ``"native"`` runs
        the compiled kernel (C → numpy fallback).  Both run in-process,
        and every kernel is proven bit-identical to the reference
        before it serves counts, so both kinds return bit-identical
        results.
    """

    kind: str = "serial"

    def __post_init__(self) -> None:
        # Late import: the registry lives in the grid layer, which
        # imports this module for the policy dataclasses.
        from ..grid.backends import get_backend

        get_backend(self.kind)  # raises with the menu of valid names


def expected_cube_count(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Expected points per k-dimensional cube, ``N / φ^k``."""
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    dimensionality = check_positive_int(dimensionality, "dimensionality", minimum=0)
    return n_points / float(n_ranges**dimensionality)


def empty_cube_sparsity(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Sparsity coefficient of an empty k-dimensional cube.

    From Equation 1 with ``n(D) = 0``:

        S = −N·f^k / sqrt(N·f^k·(1−f^k)) = −sqrt(N / (φ^k − 1)).

    This is the most negative coefficient any cube can attain, so it
    bounds how significant a k-dimensional finding can possibly be.
    """
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    return -math.sqrt(n_points / (float(n_ranges) ** dimensionality - 1.0))


def choose_projection_dimensionality(
    n_points: int,
    n_ranges: int,
    target_sparsity: float = -3.0,
) -> int:
    """Equation 2: ``k* = floor(log_φ(N/s² + 1))``.

    Parameters
    ----------
    n_points:
        Dataset size N.
    n_ranges:
        Grid resolution φ.
    target_sparsity:
        The user's significance reference ``s`` (must be negative;
        −3 ≈ 99.9% under the normal approximation).

    Returns
    -------
    int
        ``k*``, at least 1.  Because of the floor, the *effective*
        sparsity of an empty k*-cube is slightly more negative than
        ``s`` — exactly the rounding behaviour the paper describes.
    """
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    target_sparsity = check_in_range(target_sparsity, "target_sparsity", high=0.0)
    if target_sparsity == 0.0:
        raise ValidationError("target_sparsity must be strictly negative")
    k_star = math.floor(math.log(n_points / target_sparsity**2 + 1.0, n_ranges))
    return max(1, k_star)


@dataclass(frozen=True)
class ParameterAdvisor:
    """Bundles §2.4's parameter guidance for one dataset.

    Example
    -------
    >>> advisor = ParameterAdvisor(n_points=10_000, n_ranges=10)
    >>> advisor.recommended_k()
    3
    >>> round(advisor.empty_cube_sparsity(advisor.recommended_k()), 3)
    -3.164
    """

    n_points: int
    n_ranges: int = 10
    target_sparsity: float = -3.0

    def __post_init__(self) -> None:
        check_positive_int(self.n_points, "n_points")
        check_positive_int(self.n_ranges, "n_ranges", minimum=2)
        check_in_range(self.target_sparsity, "target_sparsity", high=0.0)
        if self.target_sparsity == 0.0:
            raise ValidationError("target_sparsity must be strictly negative")

    def recommended_k(self) -> int:
        """``k*`` from Equation 2 for this dataset."""
        return choose_projection_dimensionality(
            self.n_points, self.n_ranges, self.target_sparsity
        )

    def empty_cube_sparsity(self, dimensionality: int) -> float:
        """Best-case (most negative) coefficient at dimensionality *k*."""
        return empty_cube_sparsity(self.n_points, self.n_ranges, dimensionality)

    def expected_cube_count(self, dimensionality: int) -> float:
        """Expected points per cube at dimensionality *k*."""
        return expected_cube_count(self.n_points, self.n_ranges, dimensionality)

    def feasible_dimensionalities(self) -> list[int]:
        """All k in [1, k*] — the range where non-trivial findings exist."""
        return list(range(1, self.recommended_k() + 1))

    def summary(self) -> str:
        """One-paragraph human-readable recommendation."""
        k_star = self.recommended_k()
        return (
            f"N={self.n_points}, φ={self.n_ranges}, s={self.target_sparsity}: "
            f"recommended projection dimensionality k*={k_star} "
            f"(empty-cube sparsity {self.empty_cube_sparsity(k_star):.3f}, "
            f"expected {self.expected_cube_count(k_star):.2f} points per cube)"
        )
