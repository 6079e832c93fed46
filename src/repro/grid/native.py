"""Compiled counting kernel: AND + popcount at native speed.

The sparsity search spends essentially all of its time inside one loop
— AND k membership masks together and popcount the result.  The numpy
reference kernel (:func:`repro.grid.kernels.batch_counts`) pays several
full passes over a ``(B, W)`` accumulator plus per-op dispatch; a fused
native loop reads each word once, ANDs in registers and popcounts with
the hardware instruction.  This module provides that kernel behind a
tier ladder, best first:

``c``
    A tiny C kernel compiled on demand with the system C compiler
    (``cc``/``gcc``/``clang``; override with ``$REPRO_CC``) into a
    content-addressed shared library under the system temp directory,
    loaded through :mod:`ctypes`.  Word-wise ``__builtin_popcountll``
    with cache-blocked mask traversal.
``numpy``
    A pure-numpy row-blocked kernel — always available, so the native
    backend degrades gracefully when no C compiler exists.

Tier selection is automatic (first available wins) and can be forced
with ``$REPRO_NATIVE_KERNEL`` (``auto``/``c``/``numpy``) or,
in tests, the :func:`forced_tier` context manager.  Every tier consumes
the same inputs — the counter's mask stack viewed as raw bytes — and
returns exact integer counts, so results are bit-identical across
tiers by construction; :mod:`repro.grid.backends` additionally *proves*
it against the reference kernel on a differential fixture before the
kernel may serve counts.

Both tiers operate on the stack's uint8 byte view, which unifies
the boolean counter (one 0/1 byte per point) and the packed counter
(8 points per byte): AND distributes over both layouts and popcount of
a 0/1 byte is its value, so one kernel serves both counters, including
ragged final words (padding bytes are zero, hence inert).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from .._atomic import atomic_write_text
from ..exceptions import ValidationError

__all__ = [
    "KERNEL_TIERS",
    "available_tiers",
    "forced_tier",
    "kernel_info",
    "native_batch_counts",
    "resolve_tier",
]

logger = logging.getLogger(__name__)

#: Tier ladder, best first.  ``numpy`` is always available.
KERNEL_TIERS = ("c", "numpy")

#: Words per cache block for the C tier: 512 uint64 = 4 KiB per mask
#: row segment, so one block of every mask in a k-chain stays resident
#: in L1/L2 while all cubes traverse it.
_BLOCK_WORDS = 512

#: Rows per block for the numpy fallback: bounds the (rows, row_bytes)
#: accumulator so it stays cache-resident on wide stacks.
_BLOCK_ROWS = 128

#: An impl consumes ``(flat, rows, counts)``: ``flat`` is the
#: ``(n_masks, row_bytes)`` uint8 byte view of the mask stack, ``rows``
#: the ``(B, k)`` int64 flat mask indices, ``counts`` the ``(B,)``
#: int64 output.
_KernelImpl = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

_C_SOURCE = """\
#include <stdint.h>
#include <string.h>

/* AND k mask rows, popcount the result: counts[b] = |AND_l rows[b][l]|.
 *
 * stack:     n_masks rows of row_bytes bytes each (C-contiguous)
 * rows:      n_cubes * k flat row indices
 * block:     words per cache block (<=0 means unblocked)
 *
 * Full 8-byte words go through __builtin_popcountll via memcpy loads
 * (safe for any alignment); a ragged tail (row_bytes % 8, only the
 * boolean counter at N % 8 != 0) is finished byte-wise.
 */
void repro_count_batch(const uint8_t *stack, int64_t row_bytes,
                       const int64_t *rows, int64_t n_cubes, int64_t k,
                       int64_t block, int64_t *counts)
{
    int64_t n_words = row_bytes / 8;
    int64_t tail = n_words * 8;
    if (block <= 0 || block > n_words) block = n_words;
    for (int64_t b = 0; b < n_cubes; b++) counts[b] = 0;
    for (int64_t lo = 0; lo < n_words; lo += block) {
        int64_t hi = lo + block < n_words ? lo + block : n_words;
        for (int64_t b = 0; b < n_cubes; b++) {
            const int64_t *r = rows + b * k;
            const uint8_t *m0 = stack + r[0] * row_bytes;
            int64_t acc = 0;
            if (k == 1) {
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v;
                    memcpy(&v, m0 + w * 8, 8);
                    acc += __builtin_popcountll(v);
                }
            } else if (k == 2) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    acc += __builtin_popcountll(v & u);
                }
            } else if (k == 3) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                const uint8_t *m2 = stack + r[2] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u, t;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    memcpy(&t, m2 + w * 8, 8);
                    acc += __builtin_popcountll(v & u & t);
                }
            } else if (k == 4) {
                const uint8_t *m1 = stack + r[1] * row_bytes;
                const uint8_t *m2 = stack + r[2] * row_bytes;
                const uint8_t *m3 = stack + r[3] * row_bytes;
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v, u, t, s;
                    memcpy(&v, m0 + w * 8, 8);
                    memcpy(&u, m1 + w * 8, 8);
                    memcpy(&t, m2 + w * 8, 8);
                    memcpy(&s, m3 + w * 8, 8);
                    acc += __builtin_popcountll(v & u & t & s);
                }
            } else {
                for (int64_t w = lo; w < hi; w++) {
                    uint64_t v;
                    memcpy(&v, m0 + w * 8, 8);
                    for (int64_t l = 1; l < k; l++) {
                        uint64_t m;
                        memcpy(&m, stack + r[l] * row_bytes + w * 8, 8);
                        v &= m;
                    }
                    acc += __builtin_popcountll(v);
                }
            }
            counts[b] += acc;
        }
    }
    if (tail < row_bytes) {
        for (int64_t b = 0; b < n_cubes; b++) {
            const int64_t *r = rows + b * k;
            int64_t acc = 0;
            for (int64_t t = tail; t < row_bytes; t++) {
                uint8_t v = stack[r[0] * row_bytes + t];
                for (int64_t l = 1; l < k; l++)
                    v &= stack[r[l] * row_bytes + t];
                acc += __builtin_popcount((unsigned)v);
            }
            counts[b] += acc;
        }
    }
}
"""

#: Per-tier impl cache: ``False`` = not yet probed, ``None`` =
#: unavailable in this environment.
_TIER_IMPLS: dict[str, _KernelImpl | None | bool] = {
    tier: False for tier in KERNEL_TIERS
}

#: Test override installed by :func:`forced_tier` (beats the env var).
_FORCED_TIER: str | None = None


# ----------------------------------------------------------------------
# tier implementations
# ----------------------------------------------------------------------
def _find_compiler() -> str | None:
    """The system C compiler executable, or None."""
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _compile_c_library(compiler: str) -> str:
    """Compile the C kernel into a content-addressed cached .so.

    The cache key digests the source, the compiler and the flag set, so
    a source or toolchain change recompiles instead of loading a stale
    library.  Concurrent builders (e.g. two processes racing on a cold
    cache) are safe: each compiles to a private temp name and installs
    with an atomic :func:`os.replace`.
    """
    flags = ["-O3", "-shared", "-fPIC", "-funroll-loops"]
    digest = hashlib.sha256(
        "\x00".join([_C_SOURCE, compiler, *flags]).encode()
    ).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-native"
    )
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"kernel-{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    src_path = os.path.join(cache_dir, f"kernel-{digest}.c")
    atomic_write_text(src_path, _C_SOURCE)
    build_path = f"{lib_path}.{os.getpid()}.tmp"
    # -march=native unlocks the hardware popcount instruction; retry
    # portably if this toolchain rejects it.
    for extra in (["-march=native"], []):
        proc = subprocess.run(
            [compiler, *flags, *extra, "-o", build_path, src_path],
            capture_output=True,
            text=True,
            check=False,
        )
        if proc.returncode == 0:
            os.replace(build_path, lib_path)
            return lib_path
    raise RuntimeError(
        f"C kernel compilation failed with {compiler}: {proc.stderr.strip()}"
    )


def _build_c_impl() -> _KernelImpl | None:
    """The compiled-C tier, or None without a working compiler."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    lib = ctypes.CDLL(_compile_c_library(compiler))
    fn = lib.repro_count_batch
    fn.argtypes = [
        ctypes.c_void_p,  # stack bytes
        ctypes.c_int64,  # row_bytes
        ctypes.c_void_p,  # rows
        ctypes.c_int64,  # n_cubes
        ctypes.c_int64,  # k
        ctypes.c_int64,  # block words
        ctypes.c_void_p,  # counts out
    ]
    fn.restype = None

    def _impl(flat: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> None:
        fn(
            flat.ctypes.data,
            flat.shape[1],
            rows.ctypes.data,
            rows.shape[0],
            rows.shape[1],
            _BLOCK_WORDS,
            counts.ctypes.data,
        )

    # Self-probe: 2 all-ones byte rows ANDed must popcount to 64.
    probe_counts = np.zeros(1, dtype=np.int64)
    _impl(
        np.full((2, 8), 0xFF, dtype=np.uint8),
        np.array([[0, 1]], dtype=np.int64),
        probe_counts,
    )
    if int(probe_counts[0]) != 64:  # pragma: no cover - broken toolchain
        raise RuntimeError("C kernel self-probe returned a wrong count")
    return _impl


def _numpy_impl(flat: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> None:
    """Pure-numpy row-blocked fallback (always available)."""
    n_cubes, k = rows.shape
    for lo in range(0, n_cubes, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n_cubes)
        acc = flat[rows[lo:hi, 0]]  # fancy indexing copies
        for level in range(1, k):
            np.bitwise_and(acc, flat[rows[lo:hi, level]], out=acc)
        counts[lo:hi] = np.bitwise_count(acc).sum(axis=1, dtype=np.int64)


_BUILDERS: dict[str, Callable[[], _KernelImpl | None]] = {
    "c": _build_c_impl,
    "numpy": lambda: _numpy_impl,
}


# ----------------------------------------------------------------------
# tier resolution
# ----------------------------------------------------------------------
def _tier_impl(tier: str) -> _KernelImpl | None:
    """Build (once) and return the impl for *tier*, or None."""
    cached = _TIER_IMPLS[tier]
    if cached is not False:
        return cached  # type: ignore[return-value]
    try:
        impl = _BUILDERS[tier]()
    # Tier builders shell out to compilers and dlopen artifacts — any
    # failure downgrades to the next tier rather than crashing.
    except Exception as exc:  # repro-lint: disable=RPL009
        logger.warning("native kernel tier %r unavailable: %s", tier, exc)
        impl = None
    _TIER_IMPLS[tier] = impl
    return impl


def _preference() -> str:
    if _FORCED_TIER is not None:
        return _FORCED_TIER
    return os.environ.get("REPRO_NATIVE_KERNEL", "auto")


def resolve_tier(preference: str | None = None) -> str:
    """The kernel tier the native backend will run on.

    *preference* (default: ``$REPRO_NATIVE_KERNEL`` or ``auto``) may
    name a tier to force; forcing an unavailable tier raises rather
    than silently substituting, so a misconfigured deployment fails
    loudly.  ``auto`` walks the ladder c → numpy and always
    succeeds (the numpy fallback has no requirements).
    """
    pref = preference if preference is not None else _preference()
    if pref == "auto":
        for tier in KERNEL_TIERS:
            if _tier_impl(tier) is not None:
                return tier
        raise RuntimeError(  # pragma: no cover - numpy tier never fails
            "no native kernel tier available"
        )
    if pref not in KERNEL_TIERS:
        raise ValidationError(
            f"unknown native kernel tier {pref!r}; expected one of "
            f"{('auto', *KERNEL_TIERS)}"
        )
    if _tier_impl(pref) is None:
        raise RuntimeError(
            f"native kernel tier {pref!r} is unavailable in this "
            "environment (set REPRO_NATIVE_KERNEL=auto to fall back)"
        )
    return pref


def available_tiers() -> tuple[str, ...]:
    """The tiers usable in this environment (numpy always included)."""
    return tuple(tier for tier in KERNEL_TIERS if _tier_impl(tier) is not None)


def kernel_info() -> dict:
    """Resolution report: active tier plus per-tier availability."""
    return {
        "tier": resolve_tier(),
        "available": list(available_tiers()),
        "preference": _preference(),
    }


@contextmanager
def forced_tier(tier: str | None) -> Iterator[None]:
    """Force a specific kernel tier within the ``with`` block (tests).

    Beats ``$REPRO_NATIVE_KERNEL``; pass ``None`` to restore automatic
    resolution.  The previous forcing is reinstated on exit even when
    the body raises.
    """
    global _FORCED_TIER
    if tier is not None and tier != "auto" and tier not in KERNEL_TIERS:
        raise ValidationError(
            f"unknown native kernel tier {tier!r}; expected one of "
            f"{('auto', *KERNEL_TIERS)}"
        )
    previous = _FORCED_TIER
    _FORCED_TIER = tier
    try:
        yield
    finally:
        _FORCED_TIER = previous


# ----------------------------------------------------------------------
# the kernel entry point
# ----------------------------------------------------------------------
def native_batch_counts(
    stack: np.ndarray,
    dims_arr: np.ndarray,
    rng_arr: np.ndarray,
    packed: bool,
) -> tuple[np.ndarray, dict]:
    """Counts for a batch of same-k cubes via the native kernel.

    Drop-in for :func:`repro.grid.kernels.batch_counts`: same inputs,
    bit-identical ``counts`` (exact integer popcounts), same ``stats``
    keys.  The mask stack is consumed through its uint8 byte view, so
    boolean and packed stacks share one code path; *packed* only
    documents the layout (it does not change the arithmetic).
    """
    del packed  # AND + popcount of the byte view is layout-agnostic
    tier = resolve_tier()
    impl = _tier_impl(tier)
    assert impl is not None  # resolve_tier guarantees availability
    n_masks = stack.shape[0] * stack.shape[1]
    flat = np.ascontiguousarray(stack).view(np.uint8).reshape(n_masks, -1)
    rows = dims_arr * stack.shape[1] + rng_arr
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = np.empty(rows.shape[0], dtype=np.int64)
    impl(flat, rows, counts)
    n_cubes, k = rows.shape
    n_words = -(-flat.shape[1] // 8)
    stats = {
        "words_and": (k - 1) * n_cubes * n_words,
        "prefix_reuse": 0,
        "kernel_tier": tier,
    }
    return counts, stats
