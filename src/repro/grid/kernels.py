"""Batch counting kernels: the numpy reference implementation.

A *kernel* is the pure function at the bottom of every counting
backend::

    kernel(stack, dims_arr, rng_arr, packed) -> (counts, stats)

``stack`` is the counter's ``(d, φ, W)`` membership-mask array (boolean
or uint64-packed), ``dims_arr`` / ``rng_arr`` are ``(B, k)`` index
arrays naming one same-k batch of cubes, and ``counts`` is the exact
``int64`` point count per cube.  ``stats`` reports kernel effort
(``words_and``) and prefix sharing (``prefix_reuse``).

This module holds the vectorized numpy reference kernel
(:func:`batch_counts`, the prefix-sharing AND/popcount engine) and
:func:`shared_base_counts`, which counts the extensions of one partial
cube against its AND computed once (the optimized crossover's step);
the compiled tiers live in :mod:`repro.grid.native` and are registered
against this reference by :mod:`repro.grid.backends`, which proves any
kernel bit-identical on a differential fixture before it may serve
counts.  Module-level (rather than methods) so every counter flavour
runs the identical kernel against its own mask stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_counts", "shared_base_counts"]


def _resolve_batch_masks(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
    stats: dict,
) -> np.ndarray:
    """AND-of-masks for a batch of same-k cubes, sharing common prefixes.

    ``stack`` is the ``(d, φ, W)`` mask array; ``dims_arr`` / ``rng_arr``
    are ``(B, k)`` index arrays.  The recursion resolves each *distinct*
    ``(k-1)``-prefix exactly once and broadcasts it to the rows sharing
    it, so sibling cubes (same prefix, different last range) pay for the
    shared AND chain a single time.
    """
    k = dims_arr.shape[1]
    if k == 1:
        # Fancy indexing copies, so callers may AND into the result.
        return stack[dims_arr[:, 0], rng_arr[:, 0]]
    base = stack.shape[0] * stack.shape[1]
    if base ** (k - 1) < 1 << 62:
        # Encode each (k-1)-prefix as a single int64 so the duplicate
        # scan is a 1-D unique — far cheaper than unique(axis=0).
        codes = (dims_arr[:, 0] * stack.shape[1] + rng_arr[:, 0]).astype(
            np.int64
        )
        for level in range(1, k - 1):
            codes = codes * base + (
                dims_arr[:, level] * stack.shape[1] + rng_arr[:, level]
            )
        _, index, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        n_uniq = len(index)
    else:  # pragma: no cover - needs astronomically deep cubes
        prefix = np.concatenate([dims_arr[:, :-1], rng_arr[:, :-1]], axis=1)
        _, index, inverse = np.unique(
            prefix, axis=0, return_index=True, return_inverse=True
        )
        n_uniq = len(index)
    if n_uniq == len(dims_arr):
        # No two cubes share a prefix at this level (a GA population of
        # distinct strings): the unique machinery cannot help deeper
        # either, so AND the chain flat without further sorting.
        acc = stack[dims_arr[:, 0], rng_arr[:, 0]]
        for level in range(1, k):
            np.bitwise_and(
                acc, stack[dims_arr[:, level], rng_arr[:, level]], out=acc
            )
            stats["words_and"] += acc.size
        return acc
    inverse = inverse.reshape(-1)
    parents = _resolve_batch_masks(
        stack, dims_arr[index, :-1], rng_arr[index, :-1], stats
    )
    stats["prefix_reuse"] += len(dims_arr) - n_uniq
    acc = parents[inverse]
    np.bitwise_and(acc, stack[dims_arr[:, -1], rng_arr[:, -1]], out=acc)
    stats["words_and"] += acc.size
    return acc


def batch_counts(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
    packed: bool,
) -> tuple[np.ndarray, dict]:
    """Counts for a batch of same-k cubes over a mask ``stack``.

    The numpy reference kernel: vectorized prefix-sharing AND followed
    by one popcount/sum reduction.  Every other registered kernel is
    proven bit-identical to this one (see
    :func:`repro.grid.backends.verify_kernel`).  Returns ``(counts,
    stats)`` with ``stats`` holding the number of words ANDed and the
    prefix reuses.
    """
    stats = {"words_and": 0, "prefix_reuse": 0}
    acc = _resolve_batch_masks(stack, dims_arr, rng_arr, stats)
    if packed:
        counts = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    else:
        counts = _bool_row_counts(acc)
    return counts, stats


def _bool_row_counts(acc: np.ndarray) -> np.ndarray:
    """Row sums of a ``(B, W)`` bool array, popcounting eight bytes a word.

    A bool byte is 0 or 1, so the popcount of a uint64 view of eight
    of them is their sum; the ``W % 8`` tail columns are summed apart.
    """
    width = acc.shape[1]
    whole = width - width % 8
    counts = np.bitwise_count(acc[:, :whole].view(np.uint64)).sum(
        axis=1, dtype=np.int64
    )
    if whole < width:
        counts += acc[:, whole:].sum(axis=1, dtype=np.int64)
    return counts


def shared_base_counts(
    stack: np.ndarray,
    base: tuple,
    extensions,
    n_rows: int,
    packed: bool,
) -> np.ndarray:
    """Counts of ``base ∪ ext`` for each extension over a mask ``stack``.

    ``base`` is a ``(dims, ranges)`` cube key and each extension a
    tuple of ``(dim, range)`` genes outside it.  The base masks are
    ANDed once; each extension then costs one AND per gene and one
    popcount (``bitwise_count`` on uint64 words, ``count_nonzero`` on
    bools).  ``n_rows`` is the count of the empty cube.
    """
    dims, ranges = base
    shared = None
    if dims:
        shared = stack[dims[0], ranges[0]].copy()
        for dim, rng in zip(dims[1:], ranges[1:], strict=True):
            np.bitwise_and(shared, stack[dim, rng], out=shared)
    scratch = np.empty(stack.shape[2], dtype=stack.dtype)
    counts = np.empty(len(extensions), dtype=np.int64)
    for i, extension in enumerate(extensions):
        acc = shared
        for dim, rng in extension:
            if acc is None:
                acc = stack[dim, rng]
            else:
                acc = np.bitwise_and(acc, stack[dim, rng], out=scratch)
        if acc is None:
            counts[i] = n_rows
        elif packed:
            counts[i] = int(np.bitwise_count(acc).sum())
        else:
            counts[i] = np.count_nonzero(acc)
    return counts
