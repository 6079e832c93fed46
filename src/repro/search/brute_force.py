"""Figure 2: brute-force bottom-up enumeration of k-dimensional cubes.

The algorithm builds candidate cubes level by level — ``R_1`` is the set
of all ``d·φ`` one-dimensional ranges and ``R_{i+1} = R_i ⊕ Q_1``
concatenates each i-dimensional candidate with every range of every
dimension *not already in the cube*.  We make the paper's implicit
dedupe explicit by only ever extending with dimensions strictly greater
than the cube's largest dimension, so each of the ``C(d,k)·φ^k`` cubes
is generated exactly once.

Two enumeration strategies produce identical best sets:

* ``depth_first`` (default) — each partial cube travels as plain
  ``(dims, ranges)`` tuples with its membership mask, computed once and
  reused by all its extensions.  A partial one dimension short of ``k``
  scores its whole leaf level as one block: one ``bincount`` over its
  rows of ``codes[:, max_dim+1:]`` (column ``j`` offset by ``j·φ``,
  missing codes dropped) counts every extension over every remaining
  dimension, one Eq. 1 call scores them, and one
  :meth:`~repro.search.best_set.BestProjectionSet.offer_block` admits
  them.  The block offer drops in numpy every cube the best set would
  reject anyway, so a :class:`~repro.core.subspace.Subspace` is built
  only for the few cubes that may enter it.
* ``level_batch`` — the paper's literal breadth-first ``R_{i+1} = R_i ⊕
  Q_1``: every level is evaluated through the counter's batched
  AND/popcount kernel (:meth:`~repro.grid.counter.CubeCounter.
  count_batch`), which shares the common-prefix ANDs across siblings.
  Candidates are generated and offered in the same lexicographic order
  the DFS visits, so both strategies return the same projections.

Cost still explodes combinatorially — that is the paper's point (the
musk dataset's 160 dimensions defeated their brute-force run entirely)
— so a ``max_seconds``/``max_evaluations`` budget lets callers
reproduce the "did not terminate" row gracefully via
``SearchOutcome.completed``.  ``depth_first`` honours
``max_evaluations`` per leaf dimension: a leaf block is cut to its
first ``ceil((cap − evaluations)/φ)`` dimensions, so a capped run
overshoots the cap by less than φ cubes.  ``level_batch`` checks its
budgets between chunks of ``LEVEL_BATCH_CHUNK`` cubes.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping

import numpy as np

from .._validation import check_positive_int
from ..engine.context import RunContext
from ..engine.protocol import GeneratorEngine
from ..exceptions import CheckpointError, SearchCancelled, ValidationError
from ..core.subspace import Subspace
from ..grid.counter import CubeCounter
from ..sparsity.coefficient import sparsity_coefficients
from .best_set import BestProjectionSet
from .outcome import SearchOutcome

__all__ = ["BruteForceSearch", "search_space_size"]

logger = logging.getLogger(__name__)

#: Cubes per ``count_batch`` call in the ``level_batch`` strategy; the
#: cancellation and budget checks run between these chunks.
LEVEL_BATCH_CHUNK = 4096


def search_space_size(n_dims: int, dimensionality: int, n_ranges: int) -> int:
    """Number of k-dimensional cubes: ``C(d, k) · φ^k``.

    The paper's example: d=20, k=4, φ=10 gives ~7·10^7 possibilities.
    """
    n_dims = check_positive_int(n_dims, "n_dims")
    dimensionality = check_positive_int(dimensionality, "dimensionality")
    n_ranges = check_positive_int(n_ranges, "n_ranges")
    if dimensionality > n_dims:
        raise ValidationError(
            f"dimensionality ({dimensionality}) cannot exceed n_dims ({n_dims})"
        )
    return math.comb(n_dims, dimensionality) * n_ranges**dimensionality


class BruteForceSearch(GeneratorEngine):
    """Exhaustive cube search (Algorithm *BruteForce*, Figure 2).

    Parameters
    ----------
    counter:
        Cube counting engine over the discretized data.
    dimensionality:
        k — dimensionality of mined projections.
    n_projections:
        m — how many best projections to retain.
    require_nonempty:
        Skip cubes covering zero points (see
        :class:`~repro.search.best_set.BestProjectionSet`).
    threshold:
        Optional sparsity-coefficient cutoff instead of / on top of m.
    max_seconds, max_evaluations:
        Optional budgets; when exhausted the search returns a partial
        outcome with ``completed=False``.
    strategy:
        ``"depth_first"`` (default) or ``"level_batch"`` — see the
        module docstring.  Both return identical projections.
    cancel_token:
        Optional :class:`~repro.run.cancel.CancelToken`; checked at
        level boundaries and between counting chunks, so a flip stops
        the enumeration at a safe point with best-so-far results.
    checkpointer:
        Optional :class:`~repro.run.checkpoint.SearchCheckpointer`.
        Requires ``strategy="level_batch"`` — level boundaries are the
        only points where the breadth-first frontier is an explicit,
        serializable list.  ``run(resume_from=True)`` then continues
        bit-identically to an uninterrupted run.
    """

    def __init__(
        self,
        counter: CubeCounter,
        dimensionality: int,
        n_projections: int | None = 20,
        *,
        require_nonempty: bool = True,
        threshold: float | None = None,
        max_seconds: float | None = None,
        max_evaluations: int | None = None,
        strategy: str = "depth_first",
        cancel_token=None,
        checkpointer=None,
    ):
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
            raise ValidationError("brute-force search requires a grid with φ >= 2")
        self.n_projections = n_projections
        self.require_nonempty = require_nonempty
        self.threshold = threshold
        self.max_seconds = max_seconds
        self.max_evaluations = (
            None
            if max_evaluations is None
            else check_positive_int(max_evaluations, "max_evaluations")
        )
        if strategy not in ("depth_first", "level_batch"):
            raise ValidationError(
                f"strategy must be 'depth_first' or 'level_batch', got "
                f"{strategy!r}"
            )
        self.strategy = strategy
        if checkpointer is not None and strategy != "level_batch":
            raise ValidationError(
                "brute-force checkpointing requires strategy='level_batch'; "
                "the depth-first recursion has no serializable frontier"
            )
        self.cancel_token = cancel_token
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    def _iterate(self, context: RunContext):
        """The enumeration as a generator (see :class:`GeneratorEngine`).

        ``run(resume_from=...)`` drives it to completion.  Under
        ``level_batch`` each step is one level boundary; the depth-first
        recursion has no serializable frontier, so it runs as a single
        step.  A resumed run restores the breadth-first frontier, best
        set and evaluation counter, and its final result is
        bit-identical to the same run never having been interrupted.
        """
        token = context.resolve_token(self.cancel_token)
        checkpointer = context.resolve_checkpointer(self.checkpointer)
        max_seconds = context.merged_budget(self.max_seconds)
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )
        restored = self._load_resume_state(context.resume_from, checkpointer)
        start = time.perf_counter()
        state = _RunState(
            deadline=None if max_seconds is None else start + max_seconds,
            max_evaluations=self.max_evaluations,
            token=token,
        )
        elapsed_base = 0.0
        start_depth = 1
        start_level = None
        if restored is not None:
            best.restore_state(restored["best_set"])
            state.evaluations = int(restored["evaluations"])
            elapsed_base = float(restored["elapsed_seconds"])
            start_depth = int(restored["depth"])
            start_level = [
                (tuple(dims), tuple(rngs)) for dims, rngs in restored["level"]
            ]
            logger.info(
                "resuming brute-force search at level %d (%d candidates, "
                "%d evaluations done)",
                start_depth, len(start_level), state.evaluations,
            )
        d = self.counter.n_dims
        k = self.dimensionality
        logger.debug(
            "brute force: enumerating up to %d cubes (d=%d, k=%d, phi=%d, %s)",
            search_space_size(d, k, self.counter.n_ranges), d, k,
            self.counter.n_ranges, self.strategy,
        )
        totals = {"elapsed_base": elapsed_base, "start": start}
        self._run = {
            "best": best,
            "state": state,
            "totals": totals,
        }
        context.emit(
            "run_started",
            algorithm="brute_force",
            strategy=self.strategy,
            dimensionality=k,
            n_projections=self.n_projections,
            search_space_size=search_space_size(d, k, self.counter.n_ranges),
            resumed=restored is not None,
        )
        with self.counter.runtime_binding(token, context.sink):
            yield  # prepare boundary: state built, no cubes counted yet
            try:
                if self.strategy == "level_batch":
                    yield from self._run_levels(
                        best, state,
                        start_depth=start_depth, start_level=start_level,
                        totals=totals,
                        checkpointer=checkpointer, context=context,
                    )
                else:
                    if self.counter.cells is None:
                        raise ValidationError(
                            "depth-first brute force needs per-point grid "
                            "codes, which a pure out-of-core ShardedCounter "
                            "does not hold; construct it with cells=..., or "
                            "use strategy='level_batch'"
                        )
                    all_points = np.ones(self.counter.n_points, dtype=bool)
                    self._extend((), (), all_points, -1, d, k, best, state)
            except SearchCancelled:
                # Cancellation struck inside the counting engine mid-batch;
                # that batch's offers never happened, so the last
                # level-boundary checkpoint remains the exact resume point.
                state.latch("cancelled")

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        run = self._require_run_state()
        best, state, totals = run["best"], run["state"], run["totals"]
        d, k = self.counter.n_dims, self.dimensionality
        elapsed = totals["elapsed_base"] + (
            time.perf_counter() - totals["start"]
        )
        stopped_reason = state.stop_reason or "converged"
        if state.exhausted:
            logger.warning(
                "brute force stopped early after %d evaluations (%.1fs): %s",
                state.evaluations, elapsed, stopped_reason,
            )
        return SearchOutcome(
            projections=tuple(best.entries()),
            completed=not state.exhausted,
            stats={
                "elapsed_seconds": elapsed,
                "evaluations": state.evaluations,
                "search_space_size": search_space_size(d, k, self.counter.n_ranges),
                "algorithm": "brute_force",
                "strategy": self.strategy,
            },
            stopped_reason=stopped_reason,
        )

    def _mark_abandoned(self, context: RunContext) -> None:
        run = getattr(self, "_run", None)
        if run is not None:
            run["state"].latch("cancelled")

    def _load_resume_state(self, resume_from, checkpointer=None) -> dict | None:
        """Normalize ``resume_from`` into a state dict (or None)."""
        if checkpointer is None:
            checkpointer = self.checkpointer
        if resume_from is None or resume_from is False:
            return None
        if self.strategy != "level_batch":
            raise ValidationError(
                "brute-force resume requires strategy='level_batch'"
            )
        if resume_from is True:
            if checkpointer is None:
                raise CheckpointError(
                    "resume_from=True needs a checkpointer; construct the "
                    "search with checkpointer=..."
                )
            state = checkpointer.load()
        elif isinstance(resume_from, Mapping):
            state = dict(resume_from)
        else:
            raise ValidationError(
                "resume_from must be None, True, or a checkpoint state "
                f"mapping, got {type(resume_from).__name__}"
            )
        if state.get("algorithm") != "brute_force":
            raise CheckpointError(
                "checkpoint was written by a "
                f"{state.get('algorithm', 'unknown')!r} search, not a "
                "brute-force one"
            )
        return state

    def _checkpoint_state(
        self,
        depth: int,
        level: list[tuple[tuple, tuple]],
        best: BestProjectionSet,
        state: "_RunState",
        totals: dict,
    ) -> dict:
        """Full JSON-compatible state at a level boundary."""
        return {
            "algorithm": "brute_force",
            "depth": depth,
            "level": [[list(dims), list(rngs)] for dims, rngs in level],
            "best_set": best.to_state(),
            "evaluations": state.evaluations,
            "elapsed_seconds": totals["elapsed_base"]
            + (time.perf_counter() - totals["start"]),
        }

    # ------------------------------------------------------------------
    def _extend(
        self,
        dims: tuple[int, ...],
        ranges: tuple[int, ...],
        mask: np.ndarray,
        max_dim: int,
        n_dims: int,
        k: int,
        best: BestProjectionSet,
        state: "_RunState",
    ) -> None:
        """Depth-first ``R_i ⊕ Q_1`` with canonical dimension ordering.

        The partial cube travels as plain ``(dims, ranges)`` tuples plus
        its membership mask; a partial one dimension short of ``k``
        scores its whole leaf level as one block.
        """
        if state.exhausted:
            return
        remaining = k - len(dims)
        if remaining == 1:
            self._score_leaf_block(dims, ranges, mask, max_dim + 1, best, state)
            return
        codes = self.counter.cells.codes
        # Leave room for the remaining levels: the last usable start
        # dimension is n_dims - remaining.
        for dim in range(max_dim + 1, n_dims - remaining + 1):
            if state.check_budget():
                return
            counts = self.counter.extension_counts(mask, dim)
            col = codes[:, dim]
            for rng in range(self.counter.n_ranges):
                if counts[rng] == 0 and self.require_nonempty:
                    # Every extension of an empty cube is empty; when
                    # empty cubes cannot be reported we can prune the
                    # whole subtree (counts are monotone under ⊕).
                    continue
                self._extend(
                    dims + (dim,),
                    ranges + (rng,),
                    mask & (col == rng),
                    dim,
                    n_dims,
                    k,
                    best,
                    state,
                )
                if state.exhausted:
                    return

    def _score_leaf_block(
        self,
        dims: tuple[int, ...],
        ranges: tuple[int, ...],
        mask: np.ndarray,
        lo: int,
        best: BestProjectionSet,
        state: "_RunState",
    ) -> None:
        """Score every extension of a partial cube over dims ``lo..d-1``.

        One ``bincount`` over the partial's rows of ``codes[:, lo:]``,
        column ``j`` offset by ``j·φ``, gives the ``(#dims·φ)`` counts in
        generation order; one Eq. 1 call scores them and one block offer
        admits them.  An evaluation cap cuts the block to its first
        ``ceil((cap − evaluations)/φ)`` dimensions — the granularity of
        a per-dimension budget check — so a capped run stops exactly
        where checking before each dimension would.
        """
        if state.check_budget():
            return
        counter = self.counter
        phi = counter.n_ranges
        n_block = counter.n_dims - lo
        if state.max_evaluations is not None:
            n_block = min(
                n_block, -(-(state.max_evaluations - state.evaluations) // phi)
            )
        block = counter.cells.codes[mask, lo : lo + n_block]
        present = block >= 0
        offsets = np.arange(0, n_block * phi, phi, dtype=np.intp)
        counts = np.bincount(
            (block + offsets)[present], minlength=n_block * phi
        )
        coefficients = sparsity_coefficients(
            counts, counter.n_points, phi, self.dimensionality
        )
        state.evaluations += len(counts)
        best.offer_block(
            counts,
            coefficients,
            lambda i: Subspace(dims + (lo + i // phi,), ranges + (i % phi,)),
        )
        if n_block < counter.n_dims - lo:
            # The cap cut the block: latch it as the next per-dimension
            # check would.
            state.check_budget()

    # ------------------------------------------------------------------
    def _run_levels(
        self,
        best: BestProjectionSet,
        state: "_RunState",
        *,
        start_depth: int = 1,
        start_level: list[tuple[tuple, tuple]] | None = None,
        totals: dict | None = None,
        checkpointer=None,
        context: RunContext | None = None,
    ):
        """Breadth-first ``R_{i+1} = R_i ⊕ Q_1`` over batched counts.

        Each level's candidates go through ``count_batch`` in
        deterministic chunks; with ``require_nonempty`` the empty cubes
        are pruned before extension (counts are monotone under ⊕ —
        the same subtree pruning the DFS applies).  Generation order is
        lexicographic, matching the DFS visit order exactly.

        A generator yielding at the top of the depth loop — the **safe
        boundary**: the frontier is an explicit list, the best set has
        absorbed every completed level, and nothing is half-counted.
        The boundary snapshot is taken *there*; a budget/cancellation
        exit mid-level saves that snapshot, so a resumed run redoes the
        partial level from scratch and lands bit-identically on the
        uninterrupted result.
        """
        counter = self.counter
        if checkpointer is None:
            checkpointer = self.checkpointer

        def emit(type_: str, **payload) -> None:
            if context is not None:
                context.emit(type_, **payload)

        d, k, phi = counter.n_dims, self.dimensionality, counter.n_ranges
        chunk = LEVEL_BATCH_CHUNK
        level = start_level if start_level is not None else [((), ())]
        totals = totals or {"elapsed_base": 0.0, "start": time.perf_counter()}
        for depth in range(start_depth, k + 1):
            # ---- safe boundary: level `depth` not yet generated ----
            yield
            boundary_payload = None
            if checkpointer is not None:
                boundary_payload = self._checkpoint_state(
                    depth, level, best, state, totals
                )
                if checkpointer.maybe_save(depth, lambda: boundary_payload):
                    emit(
                        "checkpoint_written",
                        boundary=depth, trigger="interval",
                    )
            if state.check_boundary():
                if boundary_payload is not None:
                    checkpointer.save(boundary_payload)
                    emit(
                        "checkpoint_written",
                        boundary=depth, trigger=state.stop_reason or "stopped",
                    )
                return
            remaining = k - depth  # levels still to add after this one
            children: list[tuple[tuple, tuple]] = []
            for dims, rngs in level:
                lo = dims[-1] + 1 if dims else 0
                # Leave room for the remaining levels, as in the DFS.
                for dim in range(lo, d - remaining):
                    for rng in range(phi):
                        children.append((dims + (dim,), rngs + (rng,)))
            if depth == k:
                self._score_leaves(children, best, state, chunk)
                if state.exhausted and boundary_payload is not None:
                    checkpointer.save(boundary_payload)
                    emit(
                        "checkpoint_written",
                        boundary=depth, trigger=state.stop_reason or "stopped",
                    )
                emit(
                    "level_end",
                    depth=depth,
                    n_candidates=len(children),
                    n_survivors=0,
                    evaluations=state.evaluations,
                    best_set_size=len(best),
                )
                return
            if self.require_nonempty:
                survivors: list[tuple[tuple, tuple]] = []
                for lo in range(0, len(children), chunk):
                    if state.check_budget():
                        if boundary_payload is not None:
                            checkpointer.save(boundary_payload)
                            emit(
                                "checkpoint_written",
                                boundary=depth,
                                trigger=state.stop_reason or "stopped",
                            )
                        return
                    block = children[lo : lo + chunk]
                    counts = counter.count_batch(
                        [Subspace(dm, rg) for dm, rg in block]
                    )
                    survivors.extend(
                        child for child, count in zip(block, counts, strict=True) if count > 0
                    )
                level = survivors
            else:
                level = children
            emit(
                "level_end",
                depth=depth,
                n_candidates=len(children),
                n_survivors=len(level),
                evaluations=state.evaluations,
                best_set_size=len(best),
            )

    def _score_leaves(
        self,
        leaves: list[tuple[tuple, tuple]],
        best: BestProjectionSet,
        state: "_RunState",
        chunk: int,
    ) -> None:
        """Score the final level in batches, offering in generation order."""
        counter = self.counter
        n, phi, k = counter.n_points, counter.n_ranges, self.dimensionality
        for lo in range(0, len(leaves), chunk):
            if state.check_budget():
                return
            subspaces = [Subspace(dm, rg) for dm, rg in leaves[lo : lo + chunk]]
            counts = counter.count_batch(subspaces)
            coefficients = sparsity_coefficients(counts, n, phi, k)
            state.evaluations += len(subspaces)
            best.offer_block(counts, coefficients, subspaces.__getitem__)


class _RunState:
    """Mutable budget/cancellation bookkeeping shared across the recursion."""

    def __init__(
        self,
        deadline: float | None,
        max_evaluations: int | None,
        token=None,
    ):
        self.deadline = deadline
        self.max_evaluations = max_evaluations
        self.token = token
        self.evaluations = 0
        self.exhausted = False
        self.stop_reason: str | None = None
        self._checks = 0

    def latch(self, reason: str) -> bool:
        """Record why the search stopped early; first cause wins."""
        self.exhausted = True
        if self.stop_reason is None:
            self.stop_reason = reason
        return True

    def check_budget(self) -> bool:
        """Return True (and latch ``exhausted``) once any budget is spent.

        Reads the token's raw flag rather than :meth:`~repro.run.cancel.
        CancelToken.poll` — chunk-granularity checks must not consume
        the boundary budget of an injected
        :class:`~repro.run.cancel.CancelAfterBoundaries` token.
        """
        if self.exhausted:
            return True
        if self.token is not None and self.token.cancelled:
            return self.latch("cancelled")
        if self.max_evaluations is not None and self.evaluations >= self.max_evaluations:
            return self.latch("evaluation_cap")
        self._checks += 1
        # The clock is comparatively expensive; sample it.
        if self.deadline is not None and self._checks % 64 == 0:
            if time.perf_counter() >= self.deadline:
                return self.latch("deadline")
        return False

    def check_boundary(self) -> bool:
        """Budget check at a safe boundary; *polls* the token.

        ``poll()`` is the chaos-injection seam: each boundary consumes
        one unit of a ``CancelAfterBoundaries`` budget, and the clock is
        read unsampled (boundaries are rare).
        """
        if self.exhausted:
            return True
        if self.token is not None and self.token.poll():
            return self.latch("cancelled")
        if self.max_evaluations is not None and self.evaluations >= self.max_evaluations:
            return self.latch("evaluation_cap")
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return self.latch("deadline")
        return False
