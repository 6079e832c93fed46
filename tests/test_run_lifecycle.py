"""Chaos suite for the run lifecycle: kill, checkpoint, resume, recover.

The headline guarantee under test: a search killed at *any* safe
boundary and resumed from its checkpoint produces **bit-identical**
results to the uninterrupted run — same projections, same counts, same
evaluation totals.  Cancellation is injected deterministically through
the :class:`~repro.run.cancel.CancelAfterBoundaries` chaos token (every
search polls exactly once per GA generation / brute-force level), so
each parametrized kill lands on a precise, reproducible boundary.

Also covered here: the atomic writers (a crash mid-write never leaves a
torn file), checkpoint corruption recovery (fall back one boundary to
``.prev.json``), stale-manifest rejection, and signal routing.
"""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest

from repro._atomic import atomic_write_json, atomic_write_text, atomic_writer
from repro.core.detector import SubspaceOutlierDetector
from repro.core.multik import detect_across_dimensionalities
from repro.core.subspace import Subspace
from repro.engine.events import InMemoryEventSink
from repro.exceptions import CheckpointError, SearchCancelled, ValidationError
from repro.grid.counter import CubeCounter
from repro.grid.packed_counter import PackedCubeCounter
from repro.grid.sharded import ShardCheckpointer, ShardedCounter, ShardedMaskStore
from repro.run.cancel import CancelAfterBoundaries, CancelToken, check_stop_reason
from repro.run.checkpoint import (
    CheckpointStore,
    SearchCheckpointer,
    encode_rng_state,
)
from repro.run.controller import RunController
from repro.run.signals import exit_code_for_signal
from repro.grid.discretizer import EquiDepthDiscretizer
from repro.search.brute_force import BruteForceSearch
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch


@pytest.fixture(scope="module")
def lifecycle_data():
    """Module-scoped twin of ``lifecycle_data`` (reference runs are reused)."""
    return np.random.default_rng(12345).normal(size=(200, 6))


@pytest.fixture(scope="module")
def lifecycle_counter(lifecycle_data):
    return CubeCounter(EquiDepthDiscretizer(5).fit_transform(lifecycle_data))


def outcome_key(outcome):
    """Everything that must match between a resumed and a clean run."""
    return (
        [(p.subspace, p.count, p.coefficient) for p in outcome.projections],
        outcome.stats.get("generations"),
        outcome.stats.get("evaluations"),
        outcome.stopped_reason,
    )


def result_key(result):
    """Bit-identity key for a full DetectionResult."""
    return (
        [(p.subspace, p.count, p.coefficient) for p in result.projections],
        result.outlier_indices.tolist(),
        result.stats.get("stopped_reason"),
    )


def ga_search(counter, **overrides):
    params = dict(
        config=EvolutionaryConfig(
            population_size=24, max_generations=40, restarts=2
        ),
        random_state=7,
    )
    params.update(overrides)
    return EvolutionarySearch(counter, 2, 5, **params)


def bf_search(counter, **overrides):
    params = dict(strategy="level_batch")
    params.update(overrides)
    return BruteForceSearch(counter, 3, 5, **params)


# ----------------------------------------------------------------------
class TestAtomicWriters:
    def test_write_text_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_crash_mid_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("precious")
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as handle:
                handle.write("partial garbage")
                raise RuntimeError("simulated crash")
        assert target.read_text() == "precious"
        # No stray temp files either.
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_unencodable_json_never_clobbers(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"ok": 1}


# ----------------------------------------------------------------------
class TestCancelToken:
    def test_first_cause_wins(self):
        token = CancelToken()
        token.cancel(reason="signal", signal_number=signal.SIGTERM)
        token.cancel(reason="other", signal_number=signal.SIGINT)
        assert token.reason == "signal"
        assert token.signal_number == signal.SIGTERM

    def test_inject_after_n_boundaries(self):
        token = CancelAfterBoundaries(2)
        assert not token.poll()
        assert not token.poll()
        assert token.poll()
        assert token.cancelled

    def test_inject_immediately(self):
        assert CancelAfterBoundaries(0).poll()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            CancelAfterBoundaries(-1)

    def test_stop_reason_vocabulary(self):
        assert check_stop_reason("deadline") == "deadline"
        with pytest.raises(ValidationError):
            check_stop_reason("tired")

    def test_exit_codes(self):
        assert exit_code_for_signal(None) == 0
        assert exit_code_for_signal(signal.SIGINT) == 130
        assert exit_code_for_signal(signal.SIGTERM) == 143


class TestSignalRouting:
    def test_sigterm_flips_token_instead_of_killing(self):
        controller = RunController()
        with controller.signal_handlers():
            os.kill(os.getpid(), signal.SIGTERM)
            # The handler ran synchronously in this (main) thread.
            assert controller.token.cancelled
        assert controller.token.reason == "signal"
        assert controller.exit_code() == 143
        # Previous disposition restored on exit.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_should_stop_reports_cancellation(self):
        controller = RunController(token=CancelAfterBoundaries(0))
        assert controller.should_stop() == "cancelled"

    def test_should_stop_reports_deadline(self):
        controller = RunController(max_seconds=1e-9)
        assert controller.deadline_passed()
        assert controller.should_stop() == "deadline"


# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_round_trip_and_rotation(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s", {"boundary": 1})
        store.save("s", {"boundary": 2})
        assert store.load("s") == {"boundary": 2}
        assert json.loads(store.prev_path("s").read_text()) == {"boundary": 1}

    def test_corrupt_current_falls_back_one_boundary(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s", {"boundary": 1})
        store.save("s", {"boundary": 2})
        store.path("s").write_text('{"boundary": 2')  # truncated mid-write
        assert store.load("s") == {"boundary": 1}

    def test_all_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s", {"boundary": 1})
        store.save("s", {"boundary": 2})
        store.path("s").write_text("garbage")
        store.prev_path("s").write_text("more garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("s")

    def test_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            CheckpointStore(tmp_path).load("nope")

    def test_delete_removes_both_files(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s", {"boundary": 1})
        store.save("s", {"boundary": 2})
        store.delete("s")
        assert not store.exists("s")
        store.delete("s")  # idempotent


class TestSearchCheckpointer:
    def test_interval_policy(self, tmp_path):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "s", every=3)
        written = [b for b in range(10) if stream.maybe_save(b, lambda: {"b": b})]
        assert written == [0, 3, 6, 9]

    def test_build_state_lazy(self, tmp_path):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "s", every=2)

        def explode():
            raise AssertionError("must not serialize on a skipped boundary")

        assert not stream.maybe_save(1, explode)

    def test_stale_manifest_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        SearchCheckpointer(store, "s", manifest={"params": "a"}).save({"x": 1})
        stale = SearchCheckpointer(store, "s", manifest={"params": "b"})
        with pytest.raises(CheckpointError, match="stale"):
            stale.load()

    def test_unknown_format_version_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("s", {"format_version": 99, "manifest": {}, "state": {}})
        with pytest.raises(CheckpointError, match="format version"):
            SearchCheckpointer(store, "s").load()

    def test_encode_rng_state_round_trips(self):
        rng = np.random.default_rng(np.random.MT19937(5))
        encoded = json.loads(json.dumps(encode_rng_state(rng.bit_generator.state)))
        fresh = np.random.default_rng(np.random.MT19937(0))
        fresh.bit_generator.state = encoded
        reference = np.random.default_rng(np.random.MT19937(5))
        assert fresh.integers(0, 1 << 30, 8).tolist() == reference.integers(
            0, 1 << 30, 8
        ).tolist()


# ----------------------------------------------------------------------
class TestKillResumeGA:
    """Kill the GA at randomized generation boundaries; resume bit-identically."""

    @pytest.fixture(scope="class")
    def reference(self, request):
        counter = request.getfixturevalue("lifecycle_counter")
        return outcome_key(ga_search(counter).run())

    @pytest.mark.parametrize("kill_at", [1, 3, 7, 12])
    def test_kill_and_resume_is_bit_identical(
        self, lifecycle_counter, tmp_path, reference, kill_at
    ):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga")
        token = CancelAfterBoundaries(kill_at)
        interrupted = ga_search(
            lifecycle_counter, cancel_token=token, checkpointer=stream
        ).run()
        if token.cancelled:
            assert interrupted.stopped_reason == "cancelled"
            assert not interrupted.completed
        assert stream.exists()
        resumed = ga_search(lifecycle_counter, checkpointer=stream).run(
            resume_from=True
        )
        assert outcome_key(resumed) == reference

    def test_partial_outcome_still_ordered_and_scored(self, lifecycle_counter, tmp_path):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga")
        interrupted = ga_search(
            lifecycle_counter,
            cancel_token=CancelAfterBoundaries(2),
            checkpointer=stream,
        ).run()
        coefficients = [p.coefficient for p in interrupted.projections]
        assert coefficients == sorted(coefficients)

    def test_corrupt_checkpoint_recovers_from_prev(
        self, lifecycle_counter, tmp_path, reference
    ):
        store = CheckpointStore(tmp_path)
        stream = SearchCheckpointer(store, "ga")
        ga_search(
            lifecycle_counter,
            cancel_token=CancelAfterBoundaries(4),
            checkpointer=stream,
        ).run()
        assert store.prev_path("ga").exists()
        # Torn current file: resume must fall back one boundary and the
        # deterministic replay still lands on the identical final state.
        store.path("ga").write_text(store.path("ga").read_text()[:40])
        resumed = ga_search(lifecycle_counter, checkpointer=stream).run(
            resume_from=True
        )
        assert outcome_key(resumed) == reference

    def test_resume_true_without_checkpointer_rejected(self, lifecycle_counter):
        with pytest.raises(CheckpointError, match="checkpointer"):
            ga_search(lifecycle_counter).run(resume_from=True)

    def test_resume_from_wrong_algorithm_rejected(self, lifecycle_counter, tmp_path):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        bf_search(
            lifecycle_counter,
            cancel_token=CancelAfterBoundaries(1),
            checkpointer=stream,
        ).run()
        with pytest.raises(CheckpointError, match="brute_force"):
            ga_search(lifecycle_counter, checkpointer=stream).run(resume_from=True)

    def test_resume_of_finished_run_re_terminates_identically(
        self, lifecycle_counter, tmp_path, reference
    ):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "ga")
        finished = ga_search(lifecycle_counter, checkpointer=stream).run()
        assert outcome_key(finished) == reference
        replayed = ga_search(lifecycle_counter, checkpointer=stream).run(
            resume_from=True
        )
        assert outcome_key(replayed) == reference


class TestKillResumeBruteForce:
    @pytest.fixture(scope="class")
    def reference(self, request):
        counter = request.getfixturevalue("lifecycle_counter")
        return outcome_key(bf_search(counter).run())

    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_kill_and_resume_is_bit_identical(
        self, lifecycle_counter, tmp_path, reference, kill_at
    ):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        token = CancelAfterBoundaries(kill_at)
        interrupted = bf_search(
            lifecycle_counter, cancel_token=token, checkpointer=stream
        ).run()
        if token.cancelled:
            assert interrupted.stopped_reason == "cancelled"
        assert stream.exists()
        resumed = bf_search(lifecycle_counter, checkpointer=stream).run(
            resume_from=True
        )
        assert outcome_key(resumed) == reference

    def test_uninterrupted_level_batch_reports_converged(self, lifecycle_counter):
        outcome = bf_search(lifecycle_counter).run()
        assert outcome.stopped_reason == "converged"
        assert outcome.completed

    def test_checkpointing_requires_level_batch(self, lifecycle_counter, tmp_path):
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        with pytest.raises(ValidationError, match="level_batch"):
            BruteForceSearch(
                lifecycle_counter, 2, 5, strategy="depth_first", checkpointer=stream
            )

    def test_cancelled_depth_first_returns_partial(self, lifecycle_counter):
        # Depth-first has no level boundaries: it only reads the raw flag
        # at its pruning chunks, so cancel up front rather than injecting.
        token = CancelToken()
        token.cancel(reason="test")
        outcome = BruteForceSearch(
            lifecycle_counter, 3, 5, strategy="depth_first", cancel_token=token
        ).run()
        assert outcome.stopped_reason == "cancelled"
        assert not outcome.completed


# ----------------------------------------------------------------------
class TestDetectorLifecycle:
    KWARGS = dict(
        dimensionality=2,
        n_projections=5,
        n_ranges=5,
        method="evolutionary",
        config=EvolutionaryConfig(population_size=24, max_generations=40),
        random_state=11,
    )

    @pytest.fixture(scope="class")
    def reference(self, request):
        data = request.getfixturevalue("lifecycle_data")
        result = SubspaceOutlierDetector(**self.KWARGS).detect(data)
        return result_key(result)

    def test_kill_then_resume_matches_clean_run(
        self, lifecycle_data, tmp_path, reference
    ):
        controller = RunController(
            checkpoint_dir=tmp_path, token=CancelAfterBoundaries(3)
        )
        partial = SubspaceOutlierDetector(
            controller=controller, **self.KWARGS
        ).detect(lifecycle_data)
        assert partial.stopped_reason == "cancelled"
        assert partial.cancelled
        resumed = SubspaceOutlierDetector(
            controller=RunController(checkpoint_dir=tmp_path), **self.KWARGS
        ).detect(lifecycle_data, resume=True)
        assert result_key(resumed) == reference
        assert not resumed.cancelled

    def test_resume_with_different_params_rejected(self, lifecycle_data, tmp_path):
        controller = RunController(
            checkpoint_dir=tmp_path, token=CancelAfterBoundaries(3)
        )
        SubspaceOutlierDetector(controller=controller, **self.KWARGS).detect(
            lifecycle_data
        )
        changed = dict(self.KWARGS, random_state=99)
        with pytest.raises(CheckpointError, match="stale"):
            SubspaceOutlierDetector(
                controller=RunController(checkpoint_dir=tmp_path), **changed
            ).detect(lifecycle_data, resume=True)

    def test_resume_with_different_data_rejected(self, lifecycle_data, tmp_path):
        controller = RunController(
            checkpoint_dir=tmp_path, token=CancelAfterBoundaries(3)
        )
        SubspaceOutlierDetector(controller=controller, **self.KWARGS).detect(
            lifecycle_data
        )
        other = np.asarray(lifecycle_data).copy()
        other[0, 0] += 100.0
        with pytest.raises(CheckpointError, match="stale"):
            SubspaceOutlierDetector(
                controller=RunController(checkpoint_dir=tmp_path), **self.KWARGS
            ).detect(other, resume=True)

    def test_expired_budget_reports_deadline_not_error(self, lifecycle_data):
        # The run-wide budget can be spent before a search even starts
        # (e.g. the previous k of a sweep consumed it): the detector must
        # still return a deadline-stopped partial, never a crash.
        controller = RunController(max_seconds=1e-9)
        assert controller.deadline_passed()
        result = SubspaceOutlierDetector(
            controller=controller, **self.KWARGS
        ).detect(lifecycle_data)
        assert result.stopped_reason == "deadline"
        assert not result.cancelled

    def test_resume_without_checkpoint_dir_rejected(self, lifecycle_data):
        detector = SubspaceOutlierDetector(
            controller=RunController(), **self.KWARGS
        )
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            detector.detect(lifecycle_data, resume=True)


class TestMultiKLifecycle:
    DETECTOR_KWARGS = dict(
        n_projections=5,
        n_ranges=5,
        method="evolutionary",
        config=EvolutionaryConfig(population_size=24, max_generations=40),
        random_state=11,
    )
    KS = [1, 2]

    def sweep(self, data, **lifecycle):
        return detect_across_dimensionalities(
            data,
            self.KS,
            detector_kwargs=self.DETECTOR_KWARGS,
            **lifecycle,
        )

    @pytest.fixture(scope="class")
    def reference(self, request):
        data = request.getfixturevalue("lifecycle_data")
        sweep = self.sweep(data)
        return {k: result_key(r) for k, r in sweep.results.items()}

    def test_interrupted_sweep_resumes_without_recomputing(
        self, lifecycle_data, tmp_path, reference
    ):
        controller = RunController(
            checkpoint_dir=tmp_path, token=CancelAfterBoundaries(8)
        )
        partial = self.sweep(lifecycle_data, controller=controller)
        assert partial.stopped_reason == "cancelled"
        assert partial.cancelled
        assert "stopped early: cancelled" in "\n".join(partial.summary_lines())
        store = controller.store
        completed_ks = [k for k in self.KS if store.exists(f"result_k{k}")]
        # Resume: completed ks must come from their result checkpoints,
        # the in-flight k from its search checkpoint — bit-identical.
        resumed = self.sweep(
            lifecycle_data,
            controller=RunController(checkpoint_dir=tmp_path),
            resume=True,
        )
        assert resumed.stopped_reason == "converged"
        assert {k: result_key(r) for k, r in resumed.results.items()} == reference
        # A completed k's result file survives the resumed run unchanged.
        for k in completed_ks:
            assert store.exists(f"result_k{k}")

    def test_uninterrupted_sweep_converges(self, lifecycle_data, reference):
        sweep = self.sweep(lifecycle_data)
        assert sweep.stopped_reason == "converged"
        assert not sweep.cancelled
        assert {k: result_key(r) for k, r in sweep.results.items()} == reference

    def test_resume_without_store_rejected(self, lifecycle_data):
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            self.sweep(lifecycle_data, controller=RunController(), resume=True)

    def test_controller_in_detector_kwargs_rejected(self, lifecycle_data):
        with pytest.raises(ValidationError, match="controller"):
            detect_across_dimensionalities(
                lifecycle_data,
                self.KS,
                detector_kwargs={"controller": RunController()},
            )


# ----------------------------------------------------------------------
class KillAfterShardChecks(CancelToken):
    """Chaos token for the out-of-core counter: flips after *n* reads.

    The sharded counter checks ``token.cancelled`` exactly once per
    pending shard, so a read budget lands the kill on a precise,
    reproducible shard boundary mid-dataset — the scenario the shard
    checkpointer exists for.
    """

    def __init__(self, n: int) -> None:
        super().__init__()
        self._budget = n

    @property
    def cancelled(self) -> bool:
        if not super().cancelled:
            if self._budget <= 0:
                self.cancel(reason="injected")
            else:
                self._budget -= 1
        return super().cancelled


class TestShardedKillResume:
    """Kill out-of-core counting at randomized shard boundaries; resume
    must replay the checkpointed shards and merge bit-identically."""

    @pytest.fixture(scope="class")
    def sharded_cells(self, request):
        data = request.getfixturevalue("lifecycle_data")
        return EquiDepthDiscretizer(5).fit_transform(data)

    @pytest.fixture(scope="class")
    def sharded_store(self, sharded_cells, tmp_path_factory):
        # 200 rows in 24-row shards: 9 shards, the last one ragged.
        return ShardedMaskStore.build(
            sharded_cells, tmp_path_factory.mktemp("lifecycle_store"),
            shard_rows=24,
        )

    @pytest.fixture(scope="class")
    def cubes(self):
        # Two k-groups (k=1 and k=2), so the kill can land while one
        # group's shard stream is mid-flight.
        ones = [Subspace((d,), (r,)) for d in range(6) for r in range(5)]
        twos = [
            Subspace((d, d + 1), (r, (r + 2) % 5))
            for d in range(5)
            for r in range(5)
        ]
        return ones + twos

    @pytest.fixture(scope="class")
    def reference(self, sharded_cells, cubes):
        counter = PackedCubeCounter(sharded_cells)
        return counter.count_batch(cubes).tolist()

    @pytest.mark.parametrize("kill_after", [1, 5, 12])
    def test_kill_and_resume_is_bit_identical(
        self, sharded_store, cubes, reference, tmp_path, kill_after
    ):
        checkpointer = ShardCheckpointer(CheckpointStore(tmp_path))
        interrupted = ShardedCounter(sharded_store, checkpointer=checkpointer)
        interrupted.set_cancel_token(KillAfterShardChecks(kill_after))
        with pytest.raises(SearchCancelled):
            interrupted.count_batch(cubes)
        # The in-flight group left its per-shard progress behind.
        assert checkpointer.store.exists(checkpointer.name)
        sink = InMemoryEventSink()
        resumed = ShardedCounter(sharded_store, checkpointer=checkpointer)
        resumed.set_event_sink(sink)
        assert resumed.count_batch(cubes).tolist() == reference
        # Every checkpointed shard was replayed, never recounted, and
        # the two groups add up to full coverage of the store.
        assert resumed.n_shards_resumed == kill_after
        assert (
            resumed.n_shards_resumed + resumed.n_shards_counted
            == 2 * sharded_store.n_shards
        )
        actions = [e.payload["action"] for e in sink.of_type("shard_counted")]
        assert actions.count("resumed") == kill_after
        # Both groups completed: the progress stream is gone.
        assert not checkpointer.store.exists(checkpointer.name)

    def test_resume_under_different_batch_ignores_stream(
        self, sharded_store, cubes, reference, tmp_path
    ):
        checkpointer = ShardCheckpointer(CheckpointStore(tmp_path))
        interrupted = ShardedCounter(sharded_store, checkpointer=checkpointer)
        interrupted.set_cancel_token(KillAfterShardChecks(4))
        with pytest.raises(SearchCancelled):
            interrupted.count_batch(cubes)
        # A *different* batch must not replay the stale stream — its
        # digest differs, so everything is recounted from the store.
        other = [Subspace((d,), (0,)) for d in range(6)]
        fresh = ShardedCounter(sharded_store, checkpointer=checkpointer)
        expected = ShardedCounter(sharded_store).count_batch(other)
        assert fresh.count_batch(other).tolist() == expected.tolist()
        assert fresh.n_shards_resumed == 0

    def test_level_batch_search_kill_resume_over_store(
        self, sharded_cells, sharded_store, tmp_path
    ):
        # The full engine stack on the out-of-core counter: a killed
        # level-batch enumeration resumes from its search checkpoint
        # and lands on the in-memory searcher's exact outcome.
        memory = CubeCounter(sharded_cells)
        reference = outcome_key(bf_search(memory).run())
        stream = SearchCheckpointer(CheckpointStore(tmp_path), "bf")
        token = CancelAfterBoundaries(1)
        interrupted_counter = ShardedCounter(
            sharded_store, checkpointer=ShardCheckpointer(CheckpointStore(tmp_path))
        )
        interrupted = bf_search(
            interrupted_counter, cancel_token=token, checkpointer=stream
        ).run()
        assert interrupted.stopped_reason == "cancelled"
        resumed_counter = ShardedCounter(
            sharded_store, checkpointer=ShardCheckpointer(CheckpointStore(tmp_path))
        )
        resumed = bf_search(resumed_counter, checkpointer=stream).run(
            resume_from=True
        )
        assert outcome_key(resumed) == reference


class TestShardedDetectorLifecycle:
    """detect() with --mmap-dir semantics: kill, resume, bit-identity."""

    KWARGS = dict(
        dimensionality=2,
        n_projections=5,
        n_ranges=5,
        method="evolutionary",
        config=EvolutionaryConfig(population_size=24, max_generations=40),
        random_state=11,
        packed=True,
    )

    @pytest.fixture(scope="class")
    def reference(self, request):
        data = request.getfixturevalue("lifecycle_data")
        return result_key(SubspaceOutlierDetector(**self.KWARGS).detect(data))

    def test_clean_mmap_run_matches_in_memory(
        self, lifecycle_data, tmp_path, reference
    ):
        result = SubspaceOutlierDetector(
            mmap_dir=tmp_path / "store", shard_rows=32, **self.KWARGS
        ).detect(lifecycle_data)
        assert result_key(result) == reference
        assert (tmp_path / "store" / "manifest.json").exists()

    def test_kill_then_resume_matches_in_memory(
        self, lifecycle_data, tmp_path, reference
    ):
        mmap_dir = tmp_path / "store"
        controller = RunController(
            checkpoint_dir=tmp_path / "ckpt", token=CancelAfterBoundaries(3)
        )
        partial = SubspaceOutlierDetector(
            controller=controller, mmap_dir=mmap_dir, shard_rows=32,
            **self.KWARGS,
        ).detect(lifecycle_data)
        assert partial.stopped_reason == "cancelled"
        # The resumed run reuses the shard store (no rebuild) and the
        # search checkpoint; the merged outcome is the in-memory one.
        mtime = (mmap_dir / "shard_00000.bin").stat().st_mtime_ns
        resumed = SubspaceOutlierDetector(
            controller=RunController(checkpoint_dir=tmp_path / "ckpt"),
            mmap_dir=mmap_dir, shard_rows=32, **self.KWARGS,
        ).detect(lifecycle_data, resume=True)
        assert result_key(resumed) == reference
        assert not resumed.cancelled
        assert (mmap_dir / "shard_00000.bin").stat().st_mtime_ns == mtime
