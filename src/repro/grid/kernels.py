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
(:func:`batch_counts`, the PR-1 prefix-sharing AND/popcount engine);
the compiled tiers live in :mod:`repro.grid.native` and are registered
against this reference by :mod:`repro.grid.backends`, which proves any
kernel bit-identical on a differential fixture before it may serve
counts.  Module-level (rather than methods) so every counter flavour
runs the identical kernel against its own mask stack.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_counts"]


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
        counts = acc.sum(axis=1, dtype=np.int64)
    return counts, stats
