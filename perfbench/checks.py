"""Output checks: an independent numpy oracle plus stored reference digests.

Every op the benchmark times is checked here, outside the timed region.

* The **oracle** recomputes what it can without the library's counting
  or search code: grid codes from the fitted cut points, the population
  of every mined cube, Eq. 1, the outlier set (rows covered by a mined
  cube), the served scores, and — for brute force — the exact top-m
  coefficients over every cube of the search space.
* The **digest** pins the exact result (mined cubes in order, counts,
  coefficients bit for bit, outlier indices, score vectors).  Digests
  recorded from the current code live in ``reference_digests.json``
  (see ``record_digests.py``); a seed without stored digests is checked
  by the oracle alone.

A failed check is returned as a message; the caller counts the op as
failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference_digests.json")


def grid_codes(boundaries, data: np.ndarray) -> np.ndarray:
    """Range codes of *data* under fitted cut points (searchsorted left)."""
    codes = np.empty(data.shape, dtype=np.int64)
    for j, cuts in enumerate(boundaries):
        codes[:, j] = np.searchsorted(np.asarray(cuts), data[:, j], side="left")
    return codes


def _covered(codes: np.ndarray, dims, ranges) -> np.ndarray:
    return np.all(codes[:, list(dims)] == np.asarray(ranges), axis=1)


def eq1(count: int, n: int, phi: int, k: int) -> float:
    p = (1.0 / phi) ** k
    return (count - n * p) / math.sqrt(n * p * (1.0 - p))


def result_digest(result) -> str:
    """sha256 over mined cubes, counts, coefficients and outlier rows."""
    payload = {
        "projections": [
            [list(p.subspace.dims), list(p.subspace.ranges), int(p.count),
             float(p.coefficient).hex()]
            for p in result.projections
        ],
        "outliers": [int(i) for i in result.outlier_indices],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def scores_digest(scores: np.ndarray) -> str:
    """sha256 of a score vector (NaN = not flagged), bit for bit."""
    return hashlib.sha256(np.ascontiguousarray(scores, dtype="<f8").tobytes()).hexdigest()


def check_detect(result, model, *, phi: int, k: int, m: int) -> list[str]:
    """Oracle for one detect / detect_model result on *model*'s rows."""
    problems: list[str] = []
    codes = grid_codes(model.boundaries, model.raw_data)
    if not np.array_equal(codes, model.cells.codes):
        problems.append("grid codes differ from the cut points")
    n = codes.shape[0]
    projections = result.projections
    if len(projections) != m:
        problems.append(f"mined {len(projections)} projections, expected {m}")
    covered = np.zeros(n, dtype=bool)
    seen = set()
    previous = -math.inf
    for p in projections:
        dims, ranges = p.subspace.dims, p.subspace.ranges
        if len(dims) != k:
            problems.append(f"cube {dims} is not {k}-dimensional")
            continue
        if (dims, ranges) in seen:
            problems.append(f"cube {dims}/{ranges} mined twice")
        seen.add((dims, ranges))
        inside = _covered(codes, dims, ranges)
        count = int(inside.sum())
        if count != p.count or count == 0:
            problems.append(
                f"cube {dims}/{ranges}: reported count {p.count}, recount {count}"
            )
        if not math.isclose(p.coefficient, eq1(count, n, phi, k),
                            rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"cube {dims}/{ranges}: coefficient is not Eq. 1")
        if p.coefficient < previous:
            problems.append("projections are not in ascending coefficient order")
        previous = p.coefficient
        covered |= inside
    if not np.array_equal(np.flatnonzero(covered), np.asarray(result.outlier_indices)):
        problems.append("outlier indices are not the rows the mined cubes cover")
    return problems


def brute_force_top(codes: np.ndarray, phi: int, k: int, m: int) -> np.ndarray:
    """The m smallest Eq. 1 coefficients over every non-empty k-cube."""
    n, d = codes.shape
    counts = []
    weights = phi ** np.arange(k)[::-1]
    for dims in itertools.combinations(range(d), k):
        cell = codes[:, dims] @ weights
        counts.append(np.bincount(cell, minlength=phi**k))
    counts = np.concatenate(counts)
    counts = np.sort(counts[counts > 0])[:m]
    return np.array([eq1(int(c), n, phi, k) for c in counts])


def check_brute_optimal(result, model, *, phi: int, k: int, m: int) -> list[str]:
    """Brute force must return exactly the m best coefficients."""
    codes = grid_codes(model.boundaries, model.raw_data)
    expected = brute_force_top(codes, phi, k, m)
    mined = np.array([p.coefficient for p in result.projections])
    if mined.shape != expected.shape or not np.allclose(
        mined, expected, rtol=1e-12, atol=1e-12
    ):
        return ["brute force missed a better cube than it reported"]
    return []


def check_scores(scores: np.ndarray, model, batch: np.ndarray) -> list[str]:
    """Oracle for ``GridModel.score``: best covering coefficient, else NaN."""
    codes = grid_codes(model.boundaries, batch)
    expected = np.full(batch.shape[0], np.nan)
    for p in model.projections:
        inside = _covered(codes, p.subspace.dims, p.subspace.ranges)
        expected[inside] = np.fmin(expected[inside], p.coefficient)
    if not np.array_equal(np.asarray(scores), expected, equal_nan=True):
        return ["served scores differ from the recomputed ones"]
    return []


class References:
    """Stored digests for one workload family and seed (may be empty)."""

    def __init__(self, entry: dict | None = None):
        self.entry = entry or {}

    @classmethod
    def load(cls, family: str, seed: int, path: Path = REFERENCE_PATH) -> "References":
        table = json.loads(path.read_text()) if path.exists() else {}
        return cls(table.get(family, {}).get(str(seed)))

    @property
    def available(self) -> bool:
        return bool(self.entry)

    def check(self, kind: str, key, digest: str) -> list[str]:
        """Compare against the stored digest, if one exists for *key*."""
        stored = self.entry.get(kind, {}).get(str(key))
        if stored is not None and stored != digest:
            return [f"{kind} {key}: digest {digest[:12]} != reference {stored[:12]}"]
        return []
