"""Bounded tracker of the best (most negative) projections found so far.

Both searchers maintain the paper's ``BestSet``: the ``m`` cubes with
the most negative sparsity coefficients seen anywhere during the run
(Figures 2 and 3).  Two policy knobs mirror the paper:

* **non-empty filter** — Table 1's quality column averages the best 20
  *non-empty* projections, and §2.4 argues empty cubes are useless for
  outlier reporting (they cover nobody), so empty cubes are skipped by
  default;
* **threshold mode** — the arrhythmia experiment (§3.1) instead keeps
  *every* projection with coefficient ≤ −3; pass ``threshold=-3.0`` and
  ``max_size=None`` for that behaviour.

Duplicates (the same cube offered twice, e.g. by the GA across
generations) are kept once.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator

import numpy as np

from .._validation import check_positive_int
from ..core.results import ScoredProjection
from ..core.subspace import Subspace
from ..exceptions import ValidationError

__all__ = ["BestProjectionSet"]


class BestProjectionSet:
    """Keeps the top-m most-negative-coefficient projections.

    Parameters
    ----------
    max_size:
        The paper's ``m``; ``None`` keeps everything that passes the
        filters (requires a *threshold* so the set stays bounded).
    require_nonempty:
        Skip cubes with ``n(D) = 0`` (default True, per Table 1/§2.4).
    threshold:
        If set, only cubes with ``coefficient <= threshold`` are kept.
    """

    def __init__(
        self,
        max_size: int | None = 20,
        *,
        require_nonempty: bool = True,
        threshold: float | None = None,
    ):
        if max_size is None and threshold is None:
            raise ValidationError(
                "an unbounded BestProjectionSet needs a threshold to stay finite"
            )
        if max_size is not None:
            max_size = check_positive_int(max_size, "max_size")
        self.max_size = max_size
        self.require_nonempty = bool(require_nonempty)
        self.threshold = None if threshold is None else float(threshold)
        # Max-heap on coefficient (via negation) so the *worst* kept
        # entry is at the root and can be evicted in O(log m).
        self._heap: list[tuple[float, int, ScoredProjection]] = []
        self._seen: dict[tuple, float] = {}
        self._counter = 0
        self.n_offers = 0
        self.n_accepted = 0

    # ------------------------------------------------------------------
    def offer(self, projection: ScoredProjection) -> bool:
        """Consider *projection* for inclusion; return True if kept.

        A projection displaced later by better offers still counts as
        accepted here.
        """
        self.n_offers += 1
        if self.require_nonempty and projection.is_empty:
            return False
        if self.threshold is not None and projection.coefficient > self.threshold:
            return False
        key = (projection.subspace.dims, projection.subspace.ranges)
        if key in self._seen:
            return False
        if self.max_size is not None and len(self._heap) >= self.max_size:
            worst_negated, _, worst = self._heap[0]
            if projection.coefficient >= -worst_negated:
                return False
            heapq.heappop(self._heap)
            del self._seen[(worst.subspace.dims, worst.subspace.ranges)]
        self._counter += 1
        heapq.heappush(
            self._heap, (-projection.coefficient, -self._counter, projection)
        )
        self._seen[key] = projection.coefficient
        self.n_accepted += 1
        return True

    def offer_block(
        self,
        counts: np.ndarray,
        coefficients: np.ndarray,
        subspace_at: Callable[[int], Subspace],
    ) -> int:
        """Offer a block of scored cubes in order; return how many were kept.

        Equivalent to calling :meth:`offer` on cube ``i`` (built by
        ``subspace_at(i)``) for ``i = 0, 1, ...`` in turn.  Every cube
        :meth:`offer` would reject against the set as it stands at the
        start of the block — empty under ``require_nonempty``, above
        ``threshold``, or no better than the worst kept entry of a full
        set — is dropped in one vectorized pass and only counted in
        :attr:`n_offers`: the worst kept coefficient can only fall as
        the block is offered, so none of them could have got in later.
        The survivors go through :meth:`offer` one by one, so dedupe,
        tie order, insertion counters and :attr:`n_accepted` are those
        of the sequential offers, and a :class:`ScoredProjection` is
        built only for them.
        """
        counts = np.asarray(counts)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        # Negated comparisons mirror offer()'s rejection tests exactly.
        keep = np.ones(len(counts), dtype=bool)
        if self.require_nonempty:
            keep &= counts != 0
        if self.threshold is not None:
            keep &= ~(coefficients > self.threshold)
        if self.max_size is not None and len(self._heap) >= self.max_size:
            keep &= ~(coefficients >= -self._heap[0][0])
        survivors = np.flatnonzero(keep).tolist()
        self.n_offers += len(counts) - len(survivors)
        accepted = 0
        for i in survivors:
            accepted += self.offer(
                ScoredProjection(
                    subspace_at(i), int(counts[i]), float(coefficients[i])
                )
            )
        return accepted

    def offer_cube(self, subspace: Subspace, count: int, coefficient: float) -> bool:
        """Convenience wrapper building the :class:`ScoredProjection`."""
        return self.offer(ScoredProjection(subspace, count, coefficient))

    def would_accept(self, coefficient: float) -> bool:
        """Cheap pre-check: could a cube with this coefficient get in?

        Used by searchers to skip expensive work (e.g. re-offering
        duplicates) when the coefficient cannot compete.  A True answer
        is necessary but not sufficient (the cube may be a duplicate or
        empty).
        """
        if self.threshold is not None and coefficient > self.threshold:
            return False
        if self.max_size is None or len(self._heap) < self.max_size:
            return True
        return coefficient < -self._heap[0][0]

    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-compatible snapshot for checkpointing.

        Captures the kept entries *with their insertion counters* plus
        the offer statistics, so a restored set reproduces the original
        bit-for-bit — including the arrival-order tie-breaks between
        equal coefficients and the ``n_accepted``-driven stall counter
        of the GA.
        """
        return {
            "entries": [
                {
                    "dims": list(proj.subspace.dims),
                    "ranges": list(proj.subspace.ranges),
                    "count": proj.count,
                    "coefficient": proj.coefficient,
                    "order": -neg_order,
                }
                for _, neg_order, proj in self._heap
            ],
            "counter": self._counter,
            "n_offers": self.n_offers,
            "n_accepted": self.n_accepted,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`to_state` snapshot into this (fresh) set."""
        if self._heap:
            raise ValidationError(
                "restore_state requires an empty BestProjectionSet"
            )
        for entry in state["entries"]:
            projection = ScoredProjection(
                Subspace(tuple(entry["dims"]), tuple(entry["ranges"])),
                int(entry["count"]),
                float(entry["coefficient"]),
            )
            heapq.heappush(
                self._heap,
                (-projection.coefficient, -int(entry["order"]), projection),
            )
            self._seen[(projection.subspace.dims, projection.subspace.ranges)] = (
                projection.coefficient
            )
        self._counter = int(state["counter"])
        self.n_offers = int(state["n_offers"])
        self.n_accepted = int(state["n_accepted"])

    # ------------------------------------------------------------------
    def entries(self) -> list[ScoredProjection]:
        """Kept projections, most negative coefficient first."""
        ordered = sorted(self._heap, key=lambda item: (-item[0], -item[1]))
        return [entry for _, _, entry in ordered]

    def best(self) -> ScoredProjection | None:
        """The single most negative projection, or None if empty."""
        entries = self.entries()
        return entries[0] if entries else None

    def worst_kept_coefficient(self) -> float:
        """Coefficient of the weakest kept entry (+inf when empty)."""
        if not self._heap:
            return float("inf")
        return -self._heap[0][0]

    def mean_coefficient(self) -> float:
        """Mean coefficient over kept entries (Table 1 quality metric)."""
        if not self._heap:
            return float("nan")
        return sum(-c for c, _, _ in self._heap) / len(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[ScoredProjection]:
        return iter(self.entries())

    def __contains__(self, subspace: Subspace) -> bool:
        return (subspace.dims, subspace.ranges) in self._seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BestProjectionSet(size={len(self)}/{self.max_size}, "
            f"threshold={self.threshold}, best="
            f"{self.best().coefficient if self._heap else None})"
        )
