"""Vectorized cube counting: ``n(D)`` for arbitrary subspace cubes.

Every algorithm in the paper is ultimately a search over cubes ranked by
the sparsity coefficient, whose only data-dependent input is the number
of points ``n(D)`` inside cube ``D``.  This module makes that count
cheap:

* one boolean *membership mask* per ``(dimension, range)`` pair is
  precomputed at construction (``d × φ`` masks of N bools, stacked into
  a single ``(d, φ, N)`` array so whole batches can be gathered with one
  fancy index);
* a cube count is the popcount of the AND of its masks;
* counts are memoised, because the evolutionary algorithm re-evaluates
  the same cubes across generations;
* :meth:`count_batch` evaluates an entire GA population (or one
  brute-force level) in one pass: duplicates are folded through the
  memo, the distinct cubes are resolved by a prefix-sharing batch
  kernel (siblings reuse the AND of their common prefix);
* :meth:`count_extended` counts the candidates of one optimized
  crossover step — one shared partial cube plus a few genes each —
  ANDing the shared cube's masks once for the whole step;
* :meth:`extension_counts` returns the counts for **all φ extensions**
  of a partial cube along one dimension in a single ``bincount`` — the
  inner loop of the depth-first brute-force enumeration.

The batch kernel itself is pluggable: the counter resolves its
:class:`~repro.core.params.CountingBackend` through the backend
registry (:mod:`repro.grid.backends`), which names the kernel to run
in-process — the numpy reference (:mod:`repro.grid.kernels`) or the
compiled native kernel (:mod:`repro.grid.native`).  Every kernel is
proven bit-identical to the reference before it serves counts.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

from .._validation import check_positive_int
from ..core.params import CountingBackend
from ..core.subspace import Subspace
from ..exceptions import SearchCancelled, ValidationError
from ..resilience.faults import maybe_inject
from ..resilience.ladder import DegradationLadder, ResilienceReport
from .backends import get_backend, resolve_kernel
from .cells import CellAssignment, MISSING_CELL
from .health import BackendHealth
from .kernels import batch_counts, shared_base_counts

__all__ = ["CubeCounter", "batch_counts"]

logger = logging.getLogger(__name__)

#: Serial batches are split so one chunk's AND accumulator stays below
#: this many words (bools for the dense counter, uint64 for the packed
#: one) — bounds peak memory without changing any count.
_MAX_ACC_WORDS = 1 << 26


def _insert_genes(key: tuple, genes, n_dims: int, n_ranges: int) -> tuple:
    """*key* with each ``(dim, range)`` gene inserted in dimension order.

    Raises :class:`~repro.exceptions.ValidationError` for a gene outside
    the ``n_dims × n_ranges`` grid or on a dimension the cube already
    fixes.
    """
    dims, ranges = key
    for dim, rng in genes:
        if not 0 <= dim < n_dims:
            raise ValidationError(
                f"cube uses dimension {dim} but data has {n_dims} dimensions"
            )
        if not 0 <= rng < n_ranges:
            raise ValidationError(f"cube range {rng} out of bounds for φ={n_ranges}")
        at = bisect_left(dims, dim)
        if at < len(dims) and dims[at] == dim:
            raise ValidationError(f"dimension {dim} is fixed twice in one cube")
        dims = dims[:at] + (dim,) + dims[at:]
        ranges = ranges[:at] + (rng,) + ranges[at:]
    return dims, ranges


class CubeCounter:
    """Counts data points inside subspace cubes of a fixed grid.

    Parameters
    ----------
    cells:
        The grid assignment produced by a discretizer.
    cache_size:
        Maximum number of memoised cube counts (LRU eviction).  Set to
        0 to disable memoisation entirely (no cache structure is
        allocated and the hot path skips every cache lookup).
    backend:
        A :class:`~repro.core.params.CountingBackend` choosing how
        :meth:`count_batch` executes (serial by default).
    """

    #: Whether ``self._stack`` holds bit-packed uint64 words (subclass
    #: override) or one bool per point.
    _packed_stack = False

    def __init__(
        self,
        cells: CellAssignment,
        cache_size: int = 200_000,
        backend: CountingBackend | None = None,
    ):
        if not isinstance(cells, CellAssignment):
            raise ValidationError(
                f"cells must be a CellAssignment, got {type(cells).__name__}"
            )
        self.cells = cells
        self._init_runtime(cache_size, backend)
        self._build_masks()

    def _init_runtime(
        self, cache_size: int, backend: CountingBackend | None
    ) -> None:
        """Backend/cache/telemetry state shared by every counter flavour.

        Factored out of ``__init__`` so counters that do not hold their
        masks in memory (:class:`~repro.grid.sharded.ShardedCounter`)
        can reuse it without a :class:`CellAssignment`-driven mask
        build.
        """
        if backend is not None and not isinstance(backend, CountingBackend):
            raise ValidationError(
                f"backend must be a CountingBackend, got {type(backend).__name__}"
            )
        self.cache_size = check_positive_int(cache_size, "cache_size", minimum=0)
        self.backend = backend or CountingBackend()
        # Resolve the backend now (unknown kinds fail fast with the
        # registry's menu); the kernel itself resolves lazily on the
        # first batch, since resolving the native kernel may compile.
        self._spec = get_backend(self.backend.kind)
        self._kernel = None
        self._cache: OrderedDict[tuple, int] | None = (
            OrderedDict() if self.cache_size else None
        )
        self.n_count_calls = 0
        self.n_cache_hits = 0
        self.n_appends = 0
        self.n_rows_appended = 0
        self.n_batch_calls = 0
        self.n_batch_cubes = 0
        self.n_words_and = 0
        self.n_prefix_reuse = 0
        self.batch_seconds = 0.0
        self.cancel_token = None
        self.event_sink = None
        # Run-wide resilience bookkeeping: every retry, recovery and
        # downgrade lands here and surfaces in stats["resilience"].
        # The sink provider is a lambda because the event sink is bound
        # per engine run (runtime_binding), after construction.
        self.resilience = ResilienceReport()
        self._ladder = DegradationLadder(
            self.resilience, lambda: self.event_sink
        )

    def _build_masks(self) -> None:
        """Precompute the per-(dimension, range) membership masks.

        ``self._stack`` is a (d, φ, N) boolean array; ``self._masks``
        keeps the per-dimension (φ, N) views for the single-cube paths.
        Subclasses may store a different representation as long as they
        override the methods that read them.
        """
        codes = self.cells.codes
        phi = self.cells.n_ranges
        n = self.cells.n_points
        maybe_inject("packed_alloc", kind="bool", n_points=n)
        stack = np.zeros((self.cells.n_dims, phi, n), dtype=bool)
        for j in range(self.cells.n_dims):
            col = codes[:, j]
            observed = col >= 0
            stack[j, col[observed], np.nonzero(observed)[0]] = True
        self._stack = stack
        self._masks: list[np.ndarray] = [stack[j] for j in range(self.cells.n_dims)]

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Total number of data points N."""
        return self.cells.n_points

    @property
    def n_dims(self) -> int:
        """Total data dimensionality d."""
        return self.cells.n_dims

    @property
    def n_ranges(self) -> int:
        """Grid resolution φ."""
        return self.cells.n_ranges

    # ------------------------------------------------------------------
    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean membership mask of the cube (freshly allocated)."""
        self._check_subspace(subspace)
        if not subspace.dims:
            return np.ones(self.n_points, dtype=bool)
        dim0, rng0 = subspace.dims[0], subspace.ranges[0]
        out = self._masks[dim0][rng0].copy()
        for dim, rng in list(subspace)[1:]:
            out &= self._masks[dim][rng]
        return out

    def count(self, subspace: Subspace) -> int:
        """``n(D)``: number of points inside the cube *subspace*."""
        self._check_subspace(subspace)
        self.n_count_calls += 1
        cache = self._cache
        if cache is not None:
            key = (subspace.dims, subspace.ranges)
            cached = cache.get(key)
            if cached is not None:
                self.n_cache_hits += 1
                cache.move_to_end(key)
                return cached
        value = self._count_uncached(subspace)
        if cache is not None:
            cache[key] = value
            if len(cache) > self.cache_size:
                cache.popitem(last=False)
        return value

    def _count_uncached(self, subspace: Subspace) -> int:
        """The raw count (cache handled by :meth:`count`)."""
        return int(np.count_nonzero(self.mask(subspace)))

    # ------------------------------------------------------------------
    def count_batch(self, subspaces) -> np.ndarray:
        """``n(D)`` for a whole batch of cubes in one pass.

        Duplicate cubes in the batch — the normal case for a converging
        GA population — and cubes already memoised are resolved through
        the cache; only the distinct misses hit the batch kernel, which
        shares intermediate AND results across cubes with a common
        prefix.

        Returns an ``int64`` array aligned with the input order.
        Results are identical to calling :meth:`count` per cube.
        """
        subspaces = list(subspaces)
        t0 = time.perf_counter()
        self.n_batch_calls += 1
        self.n_batch_cubes += len(subspaces)
        self.n_count_calls += len(subspaces)
        out = np.empty(len(subspaces), dtype=np.int64)
        # ``slot[i]`` is the miss-array index serving input *i* (-1 when
        # the memo answered); the scatter back to ``out`` is one fancy
        # assignment instead of a Python loop.
        slot = np.empty(len(subspaces), dtype=np.intp)
        cache = self._cache
        pending: dict[tuple, int] = {}
        miss_keys: list[tuple] = []
        n_hits = 0
        for i, subspace in enumerate(subspaces):
            # Bounds are validated vectorized in _count_keys; only the
            # type check stays on the per-cube path.
            if not isinstance(subspace, Subspace):
                raise ValidationError(
                    f"expected a Subspace, got {type(subspace).__name__}"
                )
            key = (subspace.dims, subspace.ranges)
            idx = pending.get(key)
            if idx is not None:
                # Duplicate within the batch: counted once, reused here.
                n_hits += 1
                slot[i] = idx
                continue
            if cache is not None:
                cached = cache.get(key)
                if cached is not None:
                    n_hits += 1
                    cache.move_to_end(key)
                    out[i] = cached
                    slot[i] = -1
                    continue
            pending[key] = len(miss_keys)
            slot[i] = len(miss_keys)
            miss_keys.append(key)
        self.n_cache_hits += n_hits
        if miss_keys:
            counts = self._count_keys(miss_keys)
            if cache is not None:
                for key, cnt in zip(miss_keys, counts, strict=True):
                    cache[key] = int(cnt)
                    if len(cache) > self.cache_size:
                        cache.popitem(last=False)
            missed = slot >= 0
            out[missed] = counts[slot[missed]]
        self.batch_seconds += time.perf_counter() - t0
        return out

    def count_extended(self, base: tuple, extensions) -> np.ndarray:
        """``n(D)`` of ``base ∪ ext`` for each extension of one partial cube.

        *base* is a ``(dims, ranges)`` cube key, as on
        :class:`~repro.core.subspace.Subspace`; each extension is a
        tuple of ``(dim, range)`` genes on dimensions outside the base.
        One optimized-crossover step scores all its candidates this
        way: when some candidate misses the memo, the base's masks are
        ANDed once and each miss costs one AND per extension gene plus
        a popcount.

        The memo sees exactly what one :meth:`count` per cube in input
        order would: the same lookups, LRU order, inserted keys,
        ``count_calls`` and ``cache_hits``.  Returns an ``int64`` array
        aligned with *extensions*.
        """
        base_dims, base_ranges = base
        if len(base_dims) != len(base_ranges):
            raise ValidationError(
                f"base dims {base_dims} and ranges {base_ranges} differ in length"
            )
        n_dims, n_ranges = self.n_dims, self.n_ranges
        base = _insert_genes(((), ()), zip(base_dims, base_ranges), n_dims, n_ranges)
        extensions = list(extensions)
        keys = [_insert_genes(base, ext, n_dims, n_ranges) for ext in extensions]
        self.n_count_calls += len(keys)
        cache = self._cache
        if cache is None:
            if not keys:
                return np.empty(0, dtype=np.int64)
            return self._count_extensions(base, extensions)
        # Read-only pass: the counts known now, and the distinct keys
        # to compute.  Nothing is mutated before the counts exist.
        known: dict[tuple, int | None] = {}
        todo: list[int] = []
        for i, key in enumerate(keys):
            if key not in known:
                value = known[key] = cache.get(key)
                if value is None:
                    todo.append(i)
        if todo:
            counts = self._count_extensions(base, [extensions[i] for i in todo])
            for i, cnt in zip(todo, counts, strict=True):
                known[keys[i]] = int(cnt)
        # Replay count()'s memo updates in input order.  A key evicted
        # by an earlier miss of this call re-inserts its known count.
        out = np.empty(len(keys), dtype=np.int64)
        for i, key in enumerate(keys):
            value = cache.get(key)
            if value is not None:
                self.n_cache_hits += 1
                cache.move_to_end(key)
            else:
                value = known[key]
                cache[key] = value
                if len(cache) > self.cache_size:
                    cache.popitem(last=False)
            out[i] = value
        return out

    def _count_extensions(self, base: tuple, extensions: list) -> np.ndarray:
        """Uncached counts of ``base ∪ ext`` (memo handled by the caller)."""
        return shared_base_counts(
            self._stack, base, extensions, self.n_points, self._packed_stack
        )

    def _count_keys(self, keys: list[tuple]) -> np.ndarray:
        """Counts for distinct ``(dims, ranges)`` keys, grouped by k."""
        counts = np.empty(len(keys), dtype=np.int64)
        by_k: dict[int, list[int]] = {}
        for i, (dims, _) in enumerate(keys):
            by_k.setdefault(len(dims), []).append(i)
        for k, idxs in sorted(by_k.items()):
            if k == 0:
                counts[np.asarray(idxs)] = self.n_points
                continue
            dims_arr = np.array([keys[i][0] for i in idxs], dtype=np.intp)
            rng_arr = np.array([keys[i][1] for i in idxs], dtype=np.intp)
            # Subspace guarantees sorted non-negative dims and ranges,
            # so one max per array validates the whole group.
            if int(dims_arr[:, -1].max()) >= self.n_dims:
                raise ValidationError(
                    f"subspace uses dimension {int(dims_arr[:, -1].max())} "
                    f"but data has {self.n_dims} dimensions"
                )
            if int(rng_arr.max()) >= self.n_ranges:
                raise ValidationError(
                    f"subspace range out of bounds for φ={self.n_ranges}"
                )
            counts[np.asarray(idxs)] = self._count_group(dims_arr, rng_arr)
        return counts

    # ------------------------------------------------------------------
    def append_rows(self, codes) -> int:
        """Append already-discretized rows to the counted population.

        *codes* is an ``(m, d)`` integer code block (or a
        :class:`~repro.grid.cells.CellAssignment`) produced by the
        **current** grid's ``transform``.  Only the new rows are packed
        into mask columns; every memoised cube count is advanced by the
        new rows' popcount delta instead of being invalidated.  The
        result is bit-identical to building a fresh counter over the
        concatenated codes (differential-tested): mask stacks match
        byte for byte and cached counts equal from-scratch recounts,
        because cube counts are additive across row blocks.

        Returns the number of rows appended.
        """
        block = self._validate_append_codes(codes)
        m = block.shape[0]
        if m == 0:
            return 0
        cache = self._cache
        deltas = None
        if cache:
            delta_stack = self._block_stack(block)
            keys = list(cache.keys())
            deltas = self._keys_on_stack(delta_stack, keys, m)
        self._append_masks(block)
        self.cells = CellAssignment(
            codes=np.concatenate([self.cells.codes, block], axis=0),
            n_ranges=self.cells.n_ranges,
            feature_names=self.cells.feature_names,
            boundaries=self.cells.boundaries,
        )
        if deltas is not None and cache is not None:
            for key, delta in deltas.items():
                cache[key] += delta
        self.n_appends += 1
        self.n_rows_appended += m
        return m

    def _validate_append_codes(self, codes) -> np.ndarray:
        """Normalize appended codes to a contiguous in-range int16 block."""
        if isinstance(codes, CellAssignment):
            if codes.n_ranges != self.n_ranges:
                raise ValidationError(
                    f"appended cells use n_ranges={codes.n_ranges} but the "
                    f"counter's grid has φ={self.n_ranges}"
                )
            block = codes.codes
        else:
            block = np.asarray(codes)
        if block.ndim != 2 or block.shape[1] != self.n_dims:
            raise ValidationError(
                f"appended codes must have shape (m, {self.n_dims}), "
                f"got {block.shape}"
            )
        if not np.issubdtype(block.dtype, np.integer):
            raise ValidationError(
                f"appended codes must be integer-typed, got {block.dtype}"
            )
        block = np.ascontiguousarray(block, dtype=np.int16)
        if block.size:
            lo, hi = int(block.min()), int(block.max())
            if lo < MISSING_CELL or hi >= self.n_ranges:
                raise ValidationError(
                    f"appended codes must be in [0, {self.n_ranges}) or "
                    f"MISSING_CELL, found range [{lo}, {hi}]"
                )
        return block

    def _block_stack(self, block: np.ndarray) -> np.ndarray:
        """Mask stack over *block* only, in this counter's representation."""
        stack = np.zeros((self.n_dims, self.n_ranges, block.shape[0]), dtype=bool)
        for j in range(self.n_dims):
            col = block[:, j]
            observed = col >= 0
            stack[j, col[observed], np.nonzero(observed)[0]] = True
        return stack

    def _append_masks(self, block: np.ndarray) -> None:
        """Extend the in-memory mask stack with *block*'s columns."""
        self._stack = np.concatenate(
            [self._stack, self._block_stack(block)], axis=2
        )
        self._masks = [self._stack[j] for j in range(self.n_dims)]

    def _keys_on_stack(
        self, stack: np.ndarray, keys: list[tuple], n_rows: int
    ) -> dict[tuple, int]:
        """Counts of the *keys* cubes over an arbitrary mask *stack*.

        Used by :meth:`append_rows` to compute per-cube popcount deltas
        from a new-rows-only stack; runs the same serial kernel path as
        a normal batch, so deltas are bit-identical to recounting.
        """
        counts = np.empty(len(keys), dtype=np.int64)
        by_k: dict[int, list[int]] = {}
        for i, (dims, _) in enumerate(keys):
            by_k.setdefault(len(dims), []).append(i)
        for k, idxs in sorted(by_k.items()):
            if k == 0:
                counts[np.asarray(idxs)] = n_rows
                continue
            dims_arr = np.array([keys[i][0] for i in idxs], dtype=np.intp)
            rng_arr = np.array([keys[i][1] for i in idxs], dtype=np.intp)
            counts[np.asarray(idxs)] = self._serial_group_counts(
                stack, dims_arr, rng_arr
            )
        return {key: int(count) for key, count in zip(keys, counts, strict=True)}

    def set_cancel_token(self, token) -> None:
        """Thread a :class:`~repro.run.cancel.CancelToken` into counting.

        A long batch (many chunks, or many shards) checks the token
        between them and raises
        :class:`~repro.exceptions.SearchCancelled` once it flips, so an
        interrupted search never waits for a full level/generation of
        counting to finish.  Callers that set a token must be prepared
        to catch the exception and discard the partial batch — counts
        already returned are unaffected.  Pass ``None`` to detach.
        """
        self.cancel_token = token

    def set_event_sink(self, sink) -> None:
        """Attach an :class:`~repro.engine.events.EventSink` to counting.

        Kernel downgrades and shard progress are reported through it.
        Pass ``None`` to detach.
        """
        self.event_sink = sink

    @contextmanager
    def runtime_binding(self, token, sink=None):
        """Scope a cancel token (and event sink) to one engine run.

        Exception-safe: whatever was bound before is restored on exit
        even when the search raises mid-batch, so a counter shared
        across runs never leaks a stale token into the next one.
        """
        previous_token = self.cancel_token
        previous_sink = self.event_sink
        self.set_cancel_token(token)
        self.set_event_sink(sink)
        try:
            yield self
        finally:
            self.set_cancel_token(previous_token)
            self.set_event_sink(previous_sink)

    def _check_cancelled(self) -> None:
        token = self.cancel_token
        if token is not None and token.cancelled:
            raise SearchCancelled("batched counting interrupted mid-batch")

    @property
    def batch_kernel(self):
        """The batch kernel this counter's backend runs (lazy-resolved).

        Resolution verifies the kernel against the numpy reference the
        first time (see :func:`repro.grid.backends.resolve_kernel`), so
        a native kernel that cannot reproduce the reference counts
        raises here instead of silently serving wrong numbers.
        """
        if self._kernel is None:
            self._kernel = resolve_kernel(self._spec.kernel)
        return self._kernel

    def _invoke_kernel(
        self, stack: np.ndarray, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> tuple:
        """One guarded kernel call: non-reference kernels can degrade.

        The numpy reference runs bare (there is nothing below it on the
        ladder).  Any other kernel runs under the degradation ladder:
        if it fails — resolution, verification, or the call itself —
        the same chunk is recomputed by the reference kernel
        (bit-identical by the conformance gate), the counter serves the
        reference from then on, and the downgrade is recorded in
        ``stats["resilience"]``.
        """
        if self._spec.kernel == "numpy":
            return self.batch_kernel(
                stack, dims_arr, rng_arr, self._packed_stack
            )

        def primary() -> tuple:
            return self.batch_kernel(
                stack, dims_arr, rng_arr, self._packed_stack
            )

        def fallback() -> tuple:
            return batch_counts(stack, dims_arr, rng_arr, self._packed_stack)

        return self._ladder.guarded(
            "kernel", self._spec.kernel, "numpy",
            primary, fallback, on_downgrade=self._on_kernel_failure,
        )

    def _on_kernel_failure(self, exc: BaseException) -> None:
        logger.warning(
            "kernel %r failed (%s); serving the numpy reference kernel "
            "for the rest of the run",
            self._spec.kernel, exc,
        )
        self._kernel = batch_counts

    def _count_group(self, dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Counts for one same-k group of distinct cubes."""
        return self._serial_group_counts(self._stack, dims_arr, rng_arr)

    def _serial_group_counts(
        self, stack: np.ndarray, dims_arr: np.ndarray, rng_arr: np.ndarray
    ) -> np.ndarray:
        """The in-process kernel over *stack*, memory-capped by chunking.

        Chunks so the (B, W) accumulator stays bounded; sorting first
        keeps sibling cubes together so prefix sharing survives the
        chunking.  Taking the stack as a parameter lets the sharded
        counter run the identical path over each mmapped shard stack.
        """
        n_cubes = len(dims_arr)
        words = stack.shape[2]
        max_rows = max(1, _MAX_ACC_WORDS // max(1, words))
        if n_cubes <= max_rows:
            counts, stats = self._invoke_kernel(stack, dims_arr, rng_arr)
            self._absorb_kernel_stats(stats)
            return counts
        order = self._sibling_order(dims_arr, rng_arr)
        sorted_counts = np.empty(n_cubes, dtype=np.int64)
        for lo in range(0, n_cubes, max_rows):
            self._check_cancelled()
            sel = order[lo : lo + max_rows]
            counts, stats = self._invoke_kernel(
                stack, dims_arr[sel], rng_arr[sel]
            )
            self._absorb_kernel_stats(stats)
            sorted_counts[lo : lo + max_rows] = counts
        out = np.empty(n_cubes, dtype=np.int64)
        out[order] = sorted_counts
        return out

    @staticmethod
    def _sibling_order(dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Lexicographic cube order: keeps shared prefixes adjacent."""
        keys = []
        for level in range(dims_arr.shape[1] - 1, -1, -1):
            keys.append(rng_arr[:, level])
            keys.append(dims_arr[:, level])
        return np.lexsort(tuple(keys))

    def _absorb_kernel_stats(self, stats: dict) -> None:
        self.n_words_and += stats["words_and"]
        self.n_prefix_reuse += stats["prefix_reuse"]

    # ------------------------------------------------------------------
    def extension_counts(self, base_mask: np.ndarray, dim: int) -> np.ndarray:
        """Counts of all φ single-range extensions along *dim*.

        Parameters
        ----------
        base_mask:
            Membership mask of the partial cube being extended (use
            :meth:`mask`, or ``None``-equivalent all-True for the empty
            cube).
        dim:
            The new dimension; must not already be fixed in the cube.

        Returns
        -------
        numpy.ndarray
            Length-φ integer array; entry ``r`` is the count of the
            cube extended with ``(dim, r)``.  Points missing on *dim*
            contribute to no entry.
        """
        if not 0 <= dim < self.n_dims:
            raise ValidationError(f"dim must be in [0, {self.n_dims}), got {dim}")
        col = self.cells.codes[:, dim]
        selected = col[base_mask]
        selected = selected[selected >= 0]
        return np.bincount(selected, minlength=self.n_ranges)

    def covered_points(self, subspace: Subspace) -> np.ndarray:
        """Indices of the points inside the cube, ascending."""
        return np.nonzero(self.mask(subspace))[0]

    def fraction(self, subspace: Subspace) -> float:
        """``n(D) / N`` — the cube's empirical density."""
        return self.count(subspace) / self.n_points

    # ------------------------------------------------------------------
    def mask_memory_bytes(self) -> int:
        """Total bytes held by the per-range membership masks."""
        return sum(mask.nbytes for mask in self._masks)

    def cache_stats(self) -> dict:
        """Counters useful for benchmarking and backend tuning.

        ``count_calls`` / ``cache_hits`` / ``cache_misses`` cover every
        cube counted, whether through :meth:`count` or
        :meth:`count_batch` (a duplicate within one batch counts as a
        hit).  The ``batch_*`` fields, ``words_and`` and
        ``prefix_reuse`` describe the batch engine specifically;
        ``batch_seconds`` is the wall time spent inside
        :meth:`count_batch`.
        """
        return {
            "count_calls": self.n_count_calls,
            "cache_hits": self.n_cache_hits,
            "cache_misses": self.n_count_calls - self.n_cache_hits,
            "cache_entries": len(self._cache) if self._cache is not None else 0,
            "appends": self.n_appends,
            "rows_appended": self.n_rows_appended,
            "batch_calls": self.n_batch_calls,
            "batch_cubes": self.n_batch_cubes,
            "words_and": self.n_words_and,
            "prefix_reuse": self.n_prefix_reuse,
            "batch_seconds": self.batch_seconds,
            "backend": self.backend.kind,
            "kernel": self._spec.kernel,
        }

    def kernel_info(self) -> dict:
        """Which kernel (and, for native, which tier) serves batches."""
        info = {"backend": self._spec.name, "kernel": self._spec.kernel}
        if self._spec.kernel == "native":
            from .native import kernel_info

            info.update(kernel_info())
        return info

    def backend_health(self) -> dict:
        """The ``backend_health`` record: all-zero, counting is in-process.

        Kept so ``stats["backend_health"]`` has the same fields for
        every run (see :class:`~repro.grid.health.BackendHealth`);
        kernel downgrades are reported in ``stats["resilience"]``.
        """
        return BackendHealth().as_dict()

    def clear_cache(self) -> None:
        """Drop all memoised counts (e.g. between benchmark rounds)."""
        if self._cache is not None:
            self._cache.clear()

    # ------------------------------------------------------------------
    def _check_subspace(self, subspace: Subspace) -> None:
        if not isinstance(subspace, Subspace):
            raise ValidationError(
                f"expected a Subspace, got {type(subspace).__name__}"
            )
        if subspace.dims and subspace.dims[-1] >= self.n_dims:
            raise ValidationError(
                f"subspace uses dimension {subspace.dims[-1]} but data has "
                f"{self.n_dims} dimensions"
            )
        if any(r >= self.n_ranges for r in subspace.ranges):
            raise ValidationError(
                f"subspace range out of bounds for φ={self.n_ranges}: "
                f"{subspace.ranges}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubeCounter(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges})"
        )
