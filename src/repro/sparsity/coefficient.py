"""Equation 1: the sparsity coefficient of a k-dimensional cube.

Under the null model of uniformly distributed, attribute-independent
data, presence of each of the N points in a k-dimensional cube is a
Bernoulli trial with success probability ``f^k`` (``f = 1/φ``, because
equi-depth ranges each hold a fraction ``f`` of the records).  By the
central limit theorem the cube population ``n(D)`` is then approximately
normal with mean ``N·f^k`` and standard deviation
``sqrt(N·f^k·(1−f^k))``, and the paper's sparsity coefficient

    S(D) = (n(D) − N·f^k) / sqrt(N·f^k·(1 − f^k))

is the (approximate) z-score of the observed count.  Strongly negative
values flag cubes far emptier than chance allows; those cubes' occupants
are the outliers.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "expected_count",
    "cube_count_std",
    "sparsity_coefficient",
    "sparsity_coefficients",
]


def _cell_probability(n_ranges: int, dimensionality: int) -> float:
    """``f^k`` — the null-model probability of one point landing in the cube."""
    return (1.0 / n_ranges) ** dimensionality


def expected_count(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Null-model expected cube population ``N·f^k``."""
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    dimensionality = check_non_negative_int(dimensionality, "dimensionality")
    return n_points * _cell_probability(n_ranges, dimensionality)


def cube_count_std(n_points: int, n_ranges: int, dimensionality: int) -> float:
    """Null-model standard deviation ``sqrt(N·f^k·(1−f^k))``."""
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    dimensionality = check_non_negative_int(dimensionality, "dimensionality")
    p = _cell_probability(n_ranges, dimensionality)
    return math.sqrt(n_points * p * (1.0 - p))


def sparsity_coefficient(
    count: int,
    n_points: int,
    n_ranges: int,
    dimensionality: int,
) -> float:
    """Equation 1: ``S(D) = (n(D) − N·f^k) / sqrt(N·f^k·(1−f^k))``.

    Parameters
    ----------
    count:
        ``n(D)`` — observed number of points in the cube.
    n_points:
        ``N`` — total number of records.
    n_ranges:
        ``φ`` — grid resolution per attribute.
    dimensionality:
        ``k`` — number of fixed dimensions of the cube.

    Returns
    -------
    float
        The sparsity coefficient.  Negative values mark cubes sparser
        than the uniform-independence expectation; the 0-dimensional
        cube (``k = 0``) has coefficient 0 by convention (its count is
        always exactly N, with zero variance).

    Raises
    ------
    ValidationError
        If ``count > n_points``, or ``n_ranges < 2`` for a cube with
        ``k >= 1`` (with a single range per attribute every cube holds
        all the data and the variance degenerates to 0).
    """
    count = check_non_negative_int(count, "count")
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    dimensionality = check_non_negative_int(dimensionality, "dimensionality")
    if count > n_points:
        raise ValidationError(
            f"count ({count}) cannot exceed n_points ({n_points})"
        )
    if dimensionality == 0:
        return 0.0
    if n_ranges < 2:
        raise ValidationError(
            "n_ranges must be >= 2 for cubes with dimensionality >= 1 "
            "(the count variance is zero when φ = 1)"
        )
    p = _cell_probability(n_ranges, dimensionality)
    std = math.sqrt(n_points * p * (1.0 - p))
    return (count - n_points * p) / std


def sparsity_coefficients(
    counts: np.ndarray,
    n_points: int,
    n_ranges: int,
    dimensionality: int,
) -> np.ndarray:
    """Vectorized Equation 1 over an array of cube counts.

    Used by the brute-force enumerator, which scores every extension
    of a partial cube over all its remaining dimensions in one shot.
    """
    n_points = check_positive_int(n_points, "n_points")
    n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size and (counts.min() < 0 or counts.max() > n_points):
        raise ValidationError("counts must lie in [0, n_points]")
    p = _cell_probability(n_ranges, dimensionality)
    std = math.sqrt(n_points * p * (1.0 - p))
    return (counts - n_points * p) / std
