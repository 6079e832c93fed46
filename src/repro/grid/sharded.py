"""Out-of-core cube counting: mmapped mask shards + resumable merging.

The sparsity coefficient (Eq. 1) consumes only cube *counts*, and a
cube count is a popcount of AND-ed membership masks — a quantity that
is **additive across row shards** of the dataset.  That one algebraic
fact is the whole scaling story: split the N points into row shards,
bit-pack each shard's per-(dimension, range) membership masks once,
persist them to disk, and count any batch of cubes by streaming one
shard at a time through the exact same batch kernels the in-memory
counters run.  Nothing in the search layer changes; peak memory is one
shard's stack plus the batch accumulator, independent of N.

Three pieces implement this:

:class:`ShardedMaskStore`
    Writes the uint64-padded packed mask stacks
    (:func:`~repro.grid.packed_counter.pack_codes_block`) to one binary
    file per row shard — each landed atomically, with a JSON manifest
    installed last so a killed build never leaves a readable-but-wrong
    store — and maps them back as read-only ``numpy.memmap`` views.
    Views are opened lazily, one shard at a time, so counting touches a
    bounded window of address space no matter how many shards exist.

:class:`ShardedCounter`
    A drop-in :class:`~repro.grid.counter.CubeCounter` whose masks live
    in the store instead of RAM.  Batches run one shard at a time
    through the backend registry's kernels (numpy reference or compiled
    native).  Per-shard merged counts are bit-identical to the
    in-memory counters (differentially tested).

:class:`ShardCheckpointer`
    Records per-shard completion of the in-flight batch through a
    :class:`~repro.run.checkpoint.CheckpointStore` stream.  A run
    killed mid-dataset resumes by replaying the recorded shard counts
    and counting only the remainder — bit-identical, because shard
    counts are pure functions of (store, cube batch).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from collections.abc import Iterable, Mapping

import numpy as np

from .._atomic import atomic_write_bytes, atomic_write_json
from .._validation import check_positive_int
from ..core.params import CountingBackend
from ..core.subspace import Subspace
from ..engine.events import emit_event
from ..exceptions import CheckpointError, ResourceError, ValidationError
from ..resilience.faults import maybe_inject
from ..resilience.retry import RetryPolicy
from ..run.checkpoint import CheckpointStore
from .cells import CellAssignment
from .counter import CubeCounter
from .packed_counter import pack_codes_block

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "STORE_FORMAT_VERSION",
    "ShardCheckpointer",
    "ShardedCounter",
    "ShardedMaskStore",
    "group_digest",
]

logger = logging.getLogger(__name__)

# Version 2 added a per-shard sha256 to each manifest entry, enabling
# corruption detection (verify_shard) and targeted quarantine-rebuild.
# A v1 store fails open() validation, which the build() reuse path
# treats as "rebuild from codes" — migration is automatic.
STORE_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"

#: Retry policy for shard reads: transient I/O errors get two quick
#: retries before the quarantine-rebuild path takes over.
_SHARD_READ_RETRY = RetryPolicy(max_attempts=3, backoff=0.02, backoff_cap=0.25)

#: Default rows per shard: 2^20 points keep one shard's packed stack at
#: ``d·φ·128 KiB`` (e.g. 40 MB at d=32, φ=10) — big enough that the
#: kernel dominates per-shard overhead, small enough that dozens of
#: shards fit any memory budget one at a time.
DEFAULT_SHARD_ROWS = 1 << 20


def _codes_chunk_bytes(chunk: np.ndarray) -> bytes:
    """Canonical bytes of one code chunk for the store fingerprint."""
    return np.ascontiguousarray(chunk, dtype=np.int16).tobytes()


def group_digest(
    fingerprint: str, dims_arr: np.ndarray, rng_arr: np.ndarray
) -> str:
    """Identity of one (store, cube batch) counting job.

    Shard counts recorded under this digest may be replayed on resume
    *only* for the identical store and the identical batch — any change
    to the data, the cubes, or their order produces a different digest
    and the recorded counts are ignored.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(str(dims_arr.shape).encode())
    digest.update(np.ascontiguousarray(dims_arr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(rng_arr, dtype=np.int64).tobytes())
    return digest.hexdigest()


class ShardedMaskStore:
    """Packed membership masks for one dataset, sharded by rows on disk.

    Instances are returned by :meth:`build` / :meth:`build_from_chunks`
    (which write the shards) or :meth:`open` (which validates an
    existing directory).  All views are read-only; a store is immutable
    once its manifest is installed.
    """

    def __init__(self, directory: str | os.PathLike[str], manifest: Mapping):
        self.directory = Path(directory)
        self._manifest = dict(manifest)
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        manifest = self._manifest
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise ValidationError(
                f"sharded mask store {self.directory} has format version "
                f"{version!r}; this library reads {STORE_FORMAT_VERSION}"
            )
        for key in ("n_points", "n_dims", "n_ranges", "shard_rows",
                    "codes_sha256", "shards"):
            if key not in manifest:
                raise ValidationError(
                    f"sharded mask store manifest {self.directory} is "
                    f"missing {key!r}"
                )
        expected_stop = 0
        for entry in manifest["shards"]:
            path = self.directory / entry["file"]
            if entry["start"] != expected_stop:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard "
                    f"{entry['file']} starts at row {entry['start']}, "
                    f"expected {expected_stop}"
                )
            expected_stop = entry["stop"]
            if "sha256" not in entry:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard "
                    f"{entry['file']} has no checksum in the manifest"
                )
            size = (
                manifest["n_dims"] * manifest["n_ranges"] * entry["row_bytes"]
            )
            if not path.exists() or path.stat().st_size != size:
                raise ValidationError(
                    f"sharded mask store {self.directory}: shard file "
                    f"{entry['file']} is missing or has the wrong size "
                    f"(expected {size} bytes)"
                )
        if expected_stop != manifest["n_points"]:
            raise ValidationError(
                f"sharded mask store {self.directory}: shards cover "
                f"{expected_stop} rows but the manifest declares "
                f"{manifest['n_points']} points"
            )

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return int(self._manifest["n_points"])

    @property
    def n_dims(self) -> int:
        return int(self._manifest["n_dims"])

    @property
    def n_ranges(self) -> int:
        return int(self._manifest["n_ranges"])

    @property
    def shard_rows(self) -> int:
        return int(self._manifest["shard_rows"])

    @property
    def n_shards(self) -> int:
        return len(self._manifest["shards"])

    @property
    def fingerprint(self) -> str:
        """Identity of the store: data bytes + grid shape, one hash."""
        digest = hashlib.sha256()
        digest.update(str(self._manifest["codes_sha256"]).encode())
        digest.update(
            f":{self.n_points}:{self.n_dims}:{self.n_ranges}".encode()
        )
        return digest.hexdigest()

    def nbytes_on_disk(self) -> int:
        """Total bytes of all packed shard files."""
        return sum(
            self.n_dims * self.n_ranges * entry["row_bytes"]
            for entry in self._manifest["shards"]
        )

    def shard_bounds(self, index: int) -> tuple[int, int]:
        """Half-open global row interval ``[start, stop)`` of one shard."""
        entry = self._manifest["shards"][index]
        return int(entry["start"]), int(entry["stop"])

    def shard_row_bytes(self, index: int) -> int:
        """Packed bytes per mask row in one shard (uint64-padded)."""
        return int(self._manifest["shards"][index]["row_bytes"])

    # ------------------------------------------------------------------
    def shard_stack8(self, index: int) -> np.ndarray:
        """Read-only mmapped ``(d, φ, row_bytes)`` uint8 stack of a shard.

        A fresh view per call, dropped when the caller releases it —
        the store never accumulates open mappings, which is what keeps
        counting inside a fixed address-space budget regardless of
        shard count.
        """
        entry = self._manifest["shards"][index]
        maybe_inject("shard_read", shard=index, file=entry["file"])
        return np.memmap(
            self.directory / entry["file"],
            dtype=np.uint8,
            mode="r",
            shape=(self.n_dims, self.n_ranges, int(entry["row_bytes"])),
        )

    def shard_words(self, index: int) -> np.ndarray:
        """The same shard stack viewed as uint64 words (batch-kernel form)."""
        return self.shard_stack8(index).view(np.uint64)

    def verify_shard(self, index: int) -> None:
        """Check one shard's bytes against its manifest checksum.

        Raises :class:`~repro.exceptions.ValidationError` on mismatch
        (bit rot, torn write outside our protocol, tampering) — the
        signal the counter's quarantine-rebuild path acts on.  Reads
        the whole shard once, so it is opt-in per read
        (``verify_reads=True`` on :class:`ShardedCounter`).
        """
        entry = self._manifest["shards"][index]
        path = self.directory / entry["file"]
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValidationError(
                f"sharded mask store {self.directory}: shard file "
                f"{entry['file']} is corrupt (checksum mismatch)"
            )

    def rebuild_shard(self, index: int, codes: np.ndarray) -> None:
        """Re-pack and atomically rewrite one shard from grid codes.

        *codes* is the full ``(N, d)`` code matrix the store was built
        from; only this shard's row block is re-packed.  The rebuilt
        bytes must reproduce the manifest checksum — packing is
        deterministic, so a mismatch means *codes* differ from the
        build-time data and the rewrite is refused.
        """
        entry = self._manifest["shards"][index]
        start, stop = int(entry["start"]), int(entry["stop"])
        block = np.ascontiguousarray(codes[start:stop], dtype=np.int16)
        data = pack_codes_block(block, self.n_ranges).tobytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValidationError(
                f"rebuilt shard {index} of {self.directory} does not "
                "reproduce the manifest checksum; the supplied codes "
                "differ from the data the store was built from"
            )
        atomic_write_bytes(self.directory / entry["file"], data)
        logger.warning(
            "rebuilt corrupt shard %d of %s from in-memory codes",
            index, self.directory,
        )

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str | os.PathLike[str]) -> ShardedMaskStore:
        """Validate and open an existing store directory."""
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ValidationError(
                f"no sharded mask store at {directory} (missing "
                f"{MANIFEST_NAME})"
            )
        try:
            maybe_inject("shard_open", directory=str(directory))
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise ValidationError(
                f"sharded mask store manifest {path} is unreadable: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ValidationError(
                f"sharded mask store manifest {path} is malformed"
            )
        return cls(directory, manifest)

    @classmethod
    def build(
        cls,
        cells: CellAssignment,
        directory: str | os.PathLike[str],
        *,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> ShardedMaskStore:
        """Build (or reuse) a store for an in-memory grid assignment.

        If *directory* already holds a store for byte-identical codes
        with the same *shard_rows*, it is reused as-is — this is what
        makes ``detect(..., resume=True)`` with ``--mmap-dir`` cheap:
        the resumed run re-opens the shards instead of re-packing them.
        """
        if not isinstance(cells, CellAssignment):
            raise ValidationError(
                f"cells must be a CellAssignment, got {type(cells).__name__}"
            )
        shard_rows = check_positive_int(shard_rows, "shard_rows")
        codes = cells.codes
        digest = hashlib.sha256(b"int16")
        digest.update(_codes_chunk_bytes(codes))
        codes_sha = digest.hexdigest()
        manifest_path = Path(directory) / MANIFEST_NAME
        if manifest_path.exists():
            try:
                # (.open is this class's read-only opener, not file I/O.)
                existing = cls.open(directory)  # repro-lint: disable=RPL003
            except ValidationError:
                existing = None
            if (
                existing is not None
                and existing._manifest["codes_sha256"] == codes_sha
                and existing.shard_rows == shard_rows
                and existing.n_ranges == cells.n_ranges
            ):
                logger.info(
                    "reusing sharded mask store at %s (%d shards)",
                    directory, existing.n_shards,
                )
                return existing
        chunks = (
            codes[lo : lo + shard_rows]
            for lo in range(0, cells.n_points, shard_rows)
        )
        return cls.build_from_chunks(
            chunks, directory, n_ranges=cells.n_ranges, shard_rows=shard_rows
        )

    @classmethod
    def build_from_chunks(
        cls,
        chunks: Iterable[np.ndarray],
        directory: str | os.PathLike[str],
        *,
        n_ranges: int,
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> ShardedMaskStore:
        """Build a store from streamed code chunks of arbitrary sizes.

        *chunks* yields ``(m_i, d)`` integer code blocks (as produced by
        ``discretizer.transform(chunk).codes``); no stage materializes
        more than ``shard_rows`` rows of codes or one shard's packed
        stack.  Chunk boundaries do not affect the result — rows are
        re-blocked into exact ``shard_rows`` shards (the last one
        ragged), so the store is byte-identical to one built from the
        concatenated array.
        """
        n_ranges = check_positive_int(n_ranges, "n_ranges", minimum=2)
        shard_rows = check_positive_int(shard_rows, "shard_rows")
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = out_dir / MANIFEST_NAME
        # Drop any stale manifest first: mid-build kills must never
        # leave an old manifest pointing at a half-rewritten shard set.
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass

        digest = hashlib.sha256(b"int16")
        shards: list[dict] = []
        buffered: list[np.ndarray] = []
        n_buffered = 0
        n_dims: int | None = None
        n_points = 0

        def flush(block: np.ndarray) -> None:
            stack8 = pack_codes_block(block, n_ranges)
            data = stack8.tobytes()
            name = f"shard_{len(shards):05d}.bin"
            atomic_write_bytes(out_dir / name, data)
            start = shards[-1]["stop"] if shards else 0
            shards.append(
                {
                    "file": name,
                    "start": start,
                    "stop": start + block.shape[0],
                    "row_bytes": int(stack8.shape[2]),
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
            )

        for chunk in chunks:
            block = np.ascontiguousarray(chunk, dtype=np.int16)
            if block.ndim != 2:
                raise ValidationError(
                    f"code chunks must be 2-D, got shape {block.shape}"
                )
            if n_dims is None:
                n_dims = block.shape[1]
            elif block.shape[1] != n_dims:
                raise ValidationError(
                    f"code chunk has {block.shape[1]} columns, previous "
                    f"chunks had {n_dims}"
                )
            if block.size and int(block.max()) >= n_ranges:
                raise ValidationError(
                    f"code chunk contains range {int(block.max())} but the "
                    f"grid has φ={n_ranges} ranges"
                )
            digest.update(_codes_chunk_bytes(block))
            n_points += block.shape[0]
            buffered.append(block)
            n_buffered += block.shape[0]
            while n_buffered >= shard_rows:
                merged = (
                    buffered[0]
                    if len(buffered) == 1
                    else np.concatenate(buffered, axis=0)
                )
                flush(merged[:shard_rows])
                remainder = merged[shard_rows:]
                buffered = [remainder] if remainder.shape[0] else []
                n_buffered = remainder.shape[0]
        if n_buffered:
            flush(
                buffered[0]
                if len(buffered) == 1
                else np.concatenate(buffered, axis=0)
            )
        if n_points == 0 or n_dims is None:
            raise ValidationError(
                "cannot build a sharded mask store from zero rows"
            )
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "n_points": n_points,
            "n_dims": n_dims,
            "n_ranges": n_ranges,
            "shard_rows": shard_rows,
            "codes_sha256": digest.hexdigest(),
            "shards": shards,
        }
        # Installed last, atomically: a store is visible only once every
        # shard it references is fully on disk.
        atomic_write_json(manifest_path, manifest)
        logger.info(
            "built sharded mask store at %s: N=%d, d=%d, phi=%d, "
            "%d shards x %d rows (%.1f MB on disk)",
            out_dir, n_points, n_dims, n_ranges, len(shards), shard_rows,
            sum(n_dims * n_ranges * s["row_bytes"] for s in shards) / 1e6,
        )
        return cls(out_dir, manifest)

    def append_rows(
        self, block: np.ndarray, *, prior_codes: np.ndarray
    ) -> ShardedMaskStore:
        """Extend the store with new rows, re-packing only the tail.

        *block* holds the ``(m, d)`` new grid codes; *prior_codes* is
        the full code matrix the store was built from (refused — like
        :meth:`rebuild_shard` — if it does not reproduce the manifest's
        data fingerprint).  Complete ``shard_rows``-sized shards are
        kept byte-for-byte; only the ragged tail shard is re-packed
        from the old tail rows plus the new block, so the resulting
        store is byte-identical to one built from the concatenated
        codes while the work stays proportional to the appended rows.

        Returns the **new** store instance; like a build, the old
        manifest is dropped first so a mid-append kill leaves a
        rebuildable directory, never a readable-but-wrong store.
        """
        block = np.ascontiguousarray(block, dtype=np.int16)
        if block.ndim != 2 or block.shape[1] != self.n_dims:
            raise ValidationError(
                f"appended codes must have shape (m, {self.n_dims}), "
                f"got {block.shape}"
            )
        if block.size and int(block.max()) >= self.n_ranges:
            raise ValidationError(
                f"appended codes contain range {int(block.max())} but the "
                f"grid has φ={self.n_ranges} ranges"
            )
        prior = np.ascontiguousarray(prior_codes, dtype=np.int16)
        if prior.shape != (self.n_points, self.n_dims):
            raise ValidationError(
                f"prior_codes must have shape ({self.n_points}, "
                f"{self.n_dims}), got {prior.shape}"
            )
        prior_digest = hashlib.sha256(b"int16")
        prior_digest.update(_codes_chunk_bytes(prior))
        if prior_digest.hexdigest() != self._manifest["codes_sha256"]:
            raise ValidationError(
                f"prior_codes do not reproduce the data fingerprint of "
                f"{self.directory}; refusing to append onto a store built "
                "from different data"
            )
        if block.shape[0] == 0:
            return self
        shard_rows = self.shard_rows
        n_complete = self.n_points // shard_rows
        kept = [dict(entry) for entry in self._manifest["shards"][:n_complete]]
        tail_start = n_complete * shard_rows

        manifest_path = self.directory / MANIFEST_NAME
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass

        digest = hashlib.sha256(b"int16")
        digest.update(_codes_chunk_bytes(prior))
        digest.update(_codes_chunk_bytes(block))
        shards = list(kept)
        tail = np.concatenate([prior[tail_start:], block], axis=0)
        for lo in range(0, tail.shape[0], shard_rows):
            piece = tail[lo : lo + shard_rows]
            stack8 = pack_codes_block(piece, self.n_ranges)
            data = stack8.tobytes()
            name = f"shard_{len(shards):05d}.bin"
            atomic_write_bytes(self.directory / name, data)
            start = shards[-1]["stop"] if shards else 0
            shards.append(
                {
                    "file": name,
                    "start": start,
                    "stop": start + piece.shape[0],
                    "row_bytes": int(stack8.shape[2]),
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
            )
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "n_points": self.n_points + block.shape[0],
            "n_dims": self.n_dims,
            "n_ranges": self.n_ranges,
            "shard_rows": shard_rows,
            "codes_sha256": digest.hexdigest(),
            "shards": shards,
        }
        atomic_write_json(manifest_path, manifest)
        logger.info(
            "appended %d rows to sharded mask store at %s (%d shards, "
            "%d re-packed)",
            block.shape[0], self.directory, len(shards),
            len(shards) - len(kept),
        )
        return ShardedMaskStore(self.directory, manifest)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedMaskStore(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges}, shards={self.n_shards} at "
            f"{self.directory})"
        )


class _ShardGroupProgress:
    """Per-shard completion of one counting group within the stream.

    The stream payload holds *several* groups keyed by digest (a batch
    of mixed-k cubes counts one group per k, sequentially), so a kill
    landing in a later group never clobbers the earlier, already-merged
    ones — on resume those replay wholesale from their recorded counts.
    """

    def __init__(
        self, store: CheckpointStore, name: str, digest: str, n_shards: int
    ):
        self._store = store
        self._name = name
        self._digest = digest
        self._n_shards = n_shards
        self._payload: dict = {
            "format_version": ShardCheckpointer.FORMAT_VERSION,
            "groups": {},
        }
        self.completed: dict[int, np.ndarray] = {}
        if store.exists(name):
            try:
                payload = store.load(name)
            except CheckpointError:
                payload = None
            if (
                isinstance(payload, dict)
                and payload.get("format_version")
                == ShardCheckpointer.FORMAT_VERSION
                and isinstance(payload.get("groups"), dict)
            ):
                self._payload = payload
        entry = self._payload["groups"].get(digest)
        if entry is None or entry.get("n_shards") != n_shards:
            # A different batch (or an older format): the recorded
            # counts do not apply to this group.
            return
        for key, counts in entry.get("completed", {}).items():
            self.completed[int(key)] = np.asarray(counts, dtype=np.int64)

    def record(self, shard_id: int, counts: np.ndarray) -> None:
        """Persist one shard's counts (atomic, with rollback sibling).

        A full disk (:class:`~repro.exceptions.ResourceError`) only
        loses resume granularity — an interrupted run recounts this
        shard — so it degrades to a warning instead of killing the run.
        """
        self.completed[shard_id] = np.asarray(counts, dtype=np.int64)
        groups = self._payload["groups"]
        # Re-insert at the end: insertion order is recency, and the
        # oldest groups fall off once the retention cap is hit.
        groups.pop(self._digest, None)
        groups[self._digest] = {
            "n_shards": self._n_shards,
            "completed": {
                str(sid): arr.tolist()
                for sid, arr in sorted(self.completed.items())
            },
        }
        while len(groups) > ShardCheckpointer.MAX_GROUPS:
            groups.pop(next(iter(groups)))
        try:
            self._store.save(self._name, self._payload)
        except ResourceError as exc:
            logger.warning(
                "shard progress write for %r failed (%s); resume will "
                "recount shard %d", self._name, exc, shard_id,
            )
            if self._store.report is not None:
                self._store.report.record_recovery("atomic_write")


class ShardCheckpointer:
    """Shard-grained progress for out-of-core counting batches.

    One :class:`~repro.run.checkpoint.CheckpointStore` stream holds the
    in-flight batch's counting groups: per group, a digest of (store
    fingerprint, cube batch) plus the counts of every shard already
    merged.  A killed run that re-reaches the same groups — which
    deterministic engines do, since a group is a pure function of the
    search state — replays the recorded counts and continues with the
    first unfinished shard; a digest mismatch simply ignores the entry,
    so stale state can never corrupt counts.  The counter clears the
    stream once a whole batch completes (:meth:`clear`), and the
    retention cap bounds the stream even if batches change between
    kills.
    """

    FORMAT_VERSION = 2
    #: Most-recent counting groups retained in the stream.  A batch
    #: holds one group per distinct cube size k, so anything above the
    #: data dimensionality is effectively unlimited within a batch.
    MAX_GROUPS = 16

    def __init__(self, store: CheckpointStore, name: str = "shard_counts"):
        if not isinstance(store, CheckpointStore):
            raise ValidationError(
                f"store must be a CheckpointStore, got {type(store).__name__}"
            )
        self.store = store
        self.name = name

    def group(self, digest: str, n_shards: int) -> _ShardGroupProgress:
        """Open (or resume) progress for the group identified by *digest*."""
        return _ShardGroupProgress(self.store, self.name, digest, n_shards)

    def clear(self) -> None:
        """Drop the stream (called once a whole batch has merged)."""
        self.store.delete(self.name)


class ShardedCounter(CubeCounter):
    """A :class:`~repro.grid.counter.CubeCounter` over an on-disk store.

    Drop-in for the in-memory counters: every public method behaves
    identically (bit-identical counts, differentially tested), but the
    membership masks live in a :class:`ShardedMaskStore` and batches
    stream one shard at a time — peak memory is one shard's stack plus
    the batch accumulator, independent of N.

    Parameters
    ----------
    store:
        The mask shards to count over.
    cells:
        Optional in-memory :class:`~repro.grid.cells.CellAssignment`
        matching the store.  When provided, the code-dependent paths
        (:meth:`extension_counts`, used by depth-first brute force and
        the optimized crossover) work exactly as on the in-memory
        counters; a pure out-of-core counter (``cells=None``) supports
        every mask-based path and raises a clear error for those two.
    cache_size, backend:
        As on :class:`~repro.grid.counter.CubeCounter`.
    checkpointer:
        Optional :class:`ShardCheckpointer`; when set, every counted
        shard of the in-flight batch is recorded so an interrupted run
        resumes mid-dataset instead of recounting finished shards.
    verify_reads:
        Check every shard against its manifest checksum before
        counting it.  A mismatch (bit rot, torn write outside the
        atomic protocol) triggers quarantine-plus-rebuild when *cells*
        is available — re-packing that one shard from the in-memory
        codes, bit-identical by construction — and a typed
        :class:`~repro.exceptions.ResourceError` otherwise.  Off by
        default: it re-reads each shard once per use.
    """

    _packed_stack = True

    def __init__(
        self,
        store: ShardedMaskStore,
        cells: CellAssignment | None = None,
        cache_size: int = 200_000,
        backend: CountingBackend | None = None,
        checkpointer: ShardCheckpointer | None = None,
        verify_reads: bool = False,
    ):
        if not isinstance(store, ShardedMaskStore):
            raise ValidationError(
                f"store must be a ShardedMaskStore, got {type(store).__name__}"
            )
        if cells is not None:
            if not isinstance(cells, CellAssignment):
                raise ValidationError(
                    f"cells must be a CellAssignment, got {type(cells).__name__}"
                )
            if (
                cells.n_points != store.n_points
                or cells.n_dims != store.n_dims
                or cells.n_ranges != store.n_ranges
            ):
                raise ValidationError(
                    f"cells (N={cells.n_points}, d={cells.n_dims}, "
                    f"phi={cells.n_ranges}) do not match the store "
                    f"(N={store.n_points}, d={store.n_dims}, "
                    f"phi={store.n_ranges})"
                )
        if checkpointer is not None and not isinstance(
            checkpointer, ShardCheckpointer
        ):
            raise ValidationError(
                f"checkpointer must be a ShardCheckpointer, got "
                f"{type(checkpointer).__name__}"
            )
        self.store = store
        self.cells = cells
        self.shard_checkpointer = checkpointer
        self.n_shards_counted = 0
        self.n_shards_resumed = 0
        self._verify_reads = bool(verify_reads)
        self._read_retry = _SHARD_READ_RETRY
        self._init_runtime(cache_size, backend)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def n_dims(self) -> int:
        return self.store.n_dims

    @property
    def n_ranges(self) -> int:
        return self.store.n_ranges

    # ------------------------------------------------------------------
    def _resilient_shard_stack8(self, shard_id: int) -> np.ndarray:
        """One shard's stack, surviving transient errors and corruption.

        Transient ``OSError``\\ s are retried under the shared policy;
        a persistent read failure or checksum mismatch quarantines the
        shard and rebuilds it from the in-memory codes (bit-identical
        by construction).  Without codes to rebuild from, the failure
        surfaces as a typed :class:`~repro.exceptions.ResourceError` —
        never a raw ``OSError``.
        """

        def read() -> np.ndarray:
            if self._verify_reads:
                self.store.verify_shard(shard_id)
            return self.store.shard_stack8(shard_id)

        def on_retry(attempt: int, exc: BaseException) -> None:
            self.resilience.record_retry("shard.read")

        def on_recover(retries: int) -> None:
            self._ladder.recovered("shard_read", shard=shard_id)

        try:
            return self._read_retry.call(
                read,
                describe=f"shard {shard_id} read",
                on_retry=on_retry,
                on_recover=on_recover,
            )
        except (OSError, ValidationError) as exc:
            return self._quarantine_rebuild(shard_id, exc)

    def _resilient_shard_words(self, shard_id: int) -> np.ndarray:
        """The resilient shard stack viewed as uint64 kernel words."""
        return self._resilient_shard_stack8(shard_id).view(np.uint64)

    def _quarantine_rebuild(
        self, shard_id: int, exc: BaseException
    ) -> np.ndarray:
        """Rebuild one bad shard from codes, or fail with a typed error."""
        reason = f"{type(exc).__name__}: {exc}"
        if self.cells is None:
            raise ResourceError(
                f"shard {shard_id} of {self.store.directory} is unreadable "
                f"or corrupt ({reason}) and this counter holds no grid "
                "codes to rebuild it from; rebuild the store from the "
                "source data"
            ) from exc
        self._ladder.quarantine(shard_id, reason)
        self.store.rebuild_shard(shard_id, self.cells.codes)
        try:
            if self._verify_reads:
                self.store.verify_shard(shard_id)
            return self.store.shard_stack8(shard_id)
        except (OSError, ValidationError) as exc2:
            raise ResourceError(
                f"shard {shard_id} of {self.store.directory} is still "
                f"unreadable after a rebuild ({type(exc2).__name__}: "
                f"{exc2}); the storage volume is failing"
            ) from exc2

    def _shard_cube(self, index: int, subspace: Subspace) -> np.ndarray:
        """AND of one shard's packed masks for *subspace* (owned array)."""
        start, stop = self.store.shard_bounds(index)
        n_rows = stop - start
        if not subspace.dims:
            n_bytes = (n_rows + 7) // 8
            out = np.zeros(self.store.shard_row_bytes(index), dtype=np.uint8)
            out[:n_bytes] = 0xFF
            tail = n_rows % 8
            if tail:
                out[n_bytes - 1] = (0xFF << (8 - tail)) & 0xFF
            return out
        stack8 = self._resilient_shard_stack8(index)
        dim0, rng0 = subspace.dims[0], subspace.ranges[0]
        out = np.array(stack8[dim0, rng0])
        for dim, rng in list(subspace)[1:]:
            np.bitwise_and(out, stack8[dim, rng], out=out)
        return out

    def mask(self, subspace: Subspace) -> np.ndarray:
        """Boolean membership mask, reassembled shard by shard."""
        self._check_subspace(subspace)
        out = np.empty(self.n_points, dtype=bool)
        for index in range(self.store.n_shards):
            start, stop = self.store.shard_bounds(index)
            packed = self._shard_cube(index, subspace)
            out[start:stop] = np.unpackbits(
                packed, count=stop - start
            ).view(bool)
        return out

    def _count_uncached(self, subspace: Subspace) -> int:
        total = 0
        for index in range(self.store.n_shards):
            total += int(np.bitwise_count(self._shard_cube(index, subspace)).sum())
        return total

    def extension_counts(self, base_mask: np.ndarray, dim: int) -> np.ndarray:
        if self.cells is None:
            raise ValidationError(
                "extension_counts needs per-point grid codes, which a "
                "pure out-of-core ShardedCounter does not hold; construct "
                "it with cells=..., or use an engine that only counts "
                "cubes (evolutionary with one-point/uniform crossover, "
                "brute_force strategy='level_batch', random search)"
            )
        return super().extension_counts(base_mask, dim)

    def mask_memory_bytes(self) -> int:
        """Resident mask bytes: 0 — the stacks live on disk.

        (:meth:`ShardedMaskStore.nbytes_on_disk` reports the on-disk
        footprint.)
        """
        return 0

    # ------------------------------------------------------------------
    def append_rows(self, codes) -> int:
        """Append rows by extending the on-disk store (tail re-pack only).

        Requires ``cells`` — the store refuses to extend without the
        prior codes proving it is appending onto the data it was built
        from.  Complete shards are untouched; the ragged tail shard is
        re-packed with the new rows and the manifest reinstalled, so
        the extended store is byte-identical to a from-scratch build of
        the concatenated codes.  Memoised counts advance by popcount
        deltas exactly as on the in-memory counters.
        """
        if self.cells is None:
            raise ValidationError(
                "append_rows needs per-point grid codes, which a pure "
                "out-of-core ShardedCounter does not hold; construct it "
                "with cells=..."
            )
        return super().append_rows(codes)

    def _block_stack(self, block: np.ndarray) -> np.ndarray:
        return pack_codes_block(block, self.n_ranges).view(np.uint64)

    def _append_masks(self, block: np.ndarray) -> None:
        # self.cells still holds the pre-append codes here; the base
        # method swaps them after the masks are extended.
        self.store = self.store.append_rows(
            block, prior_codes=self.cells.codes
        )

    # ------------------------------------------------------------------
    def _count_group(self, dims_arr: np.ndarray, rng_arr: np.ndarray) -> np.ndarray:
        """Per-shard counts of one same-k group, merged by summation.

        Shards already recorded by the checkpointer (an interrupted
        earlier attempt at this same group) are replayed; the rest are
        counted one shard at a time, with a cancellation check at every
        shard boundary.
        """
        n_cubes = len(dims_arr)
        store = self.store
        total = np.zeros(n_cubes, dtype=np.int64)
        group = None
        if self.shard_checkpointer is not None:
            digest = group_digest(store.fingerprint, dims_arr, rng_arr)
            group = self.shard_checkpointer.group(digest, store.n_shards)
        for shard_id in range(store.n_shards):
            recorded = group.completed.get(shard_id) if group is not None else None
            if recorded is not None and recorded.shape == (n_cubes,):
                total += recorded
                self.n_shards_resumed += 1
                emit_event(
                    self.event_sink, "shard_counted",
                    shard=shard_id, action="resumed", cubes=n_cubes,
                )
                continue
            self._check_cancelled()
            counts = self._serial_group_counts(
                self._resilient_shard_words(shard_id), dims_arr, rng_arr
            )
            total += counts
            self.n_shards_counted += 1
            emit_event(
                self.event_sink, "shard_counted",
                shard=shard_id, action="counted", cubes=n_cubes,
            )
            if group is not None:
                group.record(shard_id, counts)
        return total

    def _count_keys(self, keys: list[tuple]) -> np.ndarray:
        counts = super()._count_keys(keys)
        # Every group of the batch merged: the progress stream has
        # served its purpose.  (A kill anywhere above leaves it behind
        # for the resumed run to replay.)
        if self.shard_checkpointer is not None:
            self.shard_checkpointer.clear()
        return counts

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        stats = super().cache_stats()
        stats["n_shards"] = self.store.n_shards
        stats["shard_rows"] = self.store.shard_rows
        stats["shards_counted"] = self.n_shards_counted
        stats["shards_resumed"] = self.n_shards_resumed
        stats["store_bytes"] = self.store.nbytes_on_disk()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCounter(N={self.n_points}, d={self.n_dims}, "
            f"phi={self.n_ranges}, shards={self.store.n_shards})"
        )
