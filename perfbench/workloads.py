"""The two workloads: seeded inputs, set-up, and the timed rounds.

Each workload is one caller in one process, closed loop: the next op
starts when the previous one returned.  Only the library call is timed;
its output is checked (``checks.py``) right after, outside the timing.

* ``ga_wide`` — GA° ``detect`` on a 50k×20 correlated-block set, one
  detect per GA random state of ``ROUND_GA_SEEDS``.
* ``brute_segmentation`` — brute-force ``detect`` on the first 12 of the
  19 attributes of the segmentation stand-in (2310 rows, φ=4, k=4, as in
  Table 1).

Both also serve the models their first round mined: 100 batches of
1,000 rows, each an ``update`` (a write) then a ``score`` (a read),
split evenly over the models.  So every workload reports every stream
metric, and a change that makes the mined model costlier to serve (a
bigger count cache, say) shows on the workload that mined it.

A run repeats each workload's two phases, its detects and its serving
tail, in **rounds**.  Every round of a phase does the same work on
fresh state (the same inputs and GA seeds; a fresh copy of the served
model), and its results must repeat bit for bit.  Each op slot (a GA
seed, a batch index) thus collects one time per round, spread over the
whole run.  Between ops the run probes the host's speed
(``hostspeed.py``); ``run.py`` scales every time to reference speed.
"""

from __future__ import annotations

import copy
import gc
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import CubeCounter, EquiDepthDiscretizer, Subspace, SubspaceOutlierDetector
from repro.data.synthetic import correlated_block_data, plant_rare_combinations
from repro.data.uci import segmentation
from repro.grid.sharded import ShardedMaskStore
from repro.model import GridModel

import checks
from hostspeed import HostSpeed

#: GA random states of one ``ga_wide`` round, one detect each.
ROUND_GA_SEEDS = (0, 1, 2, 3)
GA_PARAMS = {"dimensionality": 4, "n_ranges": 10, "n_projections": 20}
BRUTE_PARAMS = {"dimensionality": 4, "n_ranges": 4, "n_projections": 20}
GA_ROWS, N_DIMS, N_BLOCKS, N_PLANTED = 50_000, 20, 5, 50
#: Attributes of the segmentation stand-in that brute force searches.
#: All 19 take one 12–22 s detect, too long an op to time steadily on a
#: shared host (see the README); 12 take ~1.5 s.
BRUTE_DIMS = 12
POOL_ROWS, POOL_SEED = 200_000, 2001
#: Row shards of the mask store in the traced run's sharded pass.
SHARDS = 8
SHARD_ROWS = -(-GA_ROWS // SHARDS)
BATCH_ROWS = 1000
SERVE_BATCHES = 100
#: Fewest rounds of each phase in a plain run.
MIN_ROUNDS = 2

WORKLOADS = ("ga_wide", "brute_segmentation")


# ----------------------------------------------------------------------
# Inputs (not timed)


def correlated_set(seed: int, n_rows: int) -> np.ndarray:
    """*n_rows* rows of the correlated-block pool, with planted combinations.

    The block structure (the pool, and with it the cluster centres) is
    fixed; the seed draws the rows and the planted points.  With the
    geometry redrawn per seed, the GA's work (the distinct cubes it
    counts) swung by ±15% between seeds.
    """
    pool, blocks = correlated_block_data(
        POOL_ROWS, N_DIMS, N_BLOCKS, random_state=POOL_SEED
    )
    rng = np.random.default_rng([seed, n_rows])
    data = pool[rng.choice(POOL_ROWS, size=n_rows, replace=False)]
    plant_rare_combinations(data, blocks, N_PLANTED, random_state=rng)
    return data


def stream_batch(base: np.ndarray, seed: int, index: int) -> np.ndarray:
    """Batch *index* of the stream: resampled rows of *base* plus jitter."""
    rng = np.random.default_rng([seed, 7, index])
    rows = base[rng.integers(0, base.shape[0], size=BATCH_ROWS)]
    return rows + rng.normal(scale=0.05, size=rows.shape)


def make_inputs(workload: str, seed: int) -> np.ndarray:
    if workload == "brute_segmentation":
        return segmentation(random_state=seed).values[:, :BRUTE_DIMS]
    return correlated_set(seed, GA_ROWS)


def family(workload: str) -> str:
    """Workloads sharing inputs and results share reference digests."""
    return "ga" if workload == "ga_wide" else workload


# ----------------------------------------------------------------------
# Set-up


def warm_up() -> dict:
    """Resolve the counting backend and kernel through a tiny count.

    Timed, with the import, as the run's set-up.
    """
    tiny = np.random.default_rng(0).random((64, 3))
    counter = CubeCounter(EquiDepthDiscretizer(4).fit_transform(tiny))
    counter.count_batch([Subspace((0, 1), (0, 0))])
    return counter.kernel_info()


def build_store(data: np.ndarray, store_dir: Path) -> Path:
    """The 8-shard mask store of *data* that ``mmap_dir`` detects read."""
    cells = EquiDepthDiscretizer(GA_PARAMS["n_ranges"]).fit_transform(data)
    ShardedMaskStore.build(cells, store_dir, shard_rows=SHARD_ROWS)
    return store_dir


# ----------------------------------------------------------------------
# Ops


@dataclass
class Run:
    """Samples, failures and per-op counts of one phase of a run.

    ``detect_s``, ``update_s`` and ``score_s`` map an op slot (the GA
    seed or batch index that fixes the op's work) to its
    ``(start, seconds)`` timings, one per round.
    """

    refs: checks.References
    detect_s: dict[Any, list[tuple[float, float]]] = field(default_factory=dict)
    update_s: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    score_s: dict[int, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    #: Ops whose first output passed the oracle; a repeat of one is held
    #: to that output's digest instead of being recomputed.
    verified: set[str] = field(default_factory=set)
    op_counts: list[dict] = field(default_factory=list)
    #: The :class:`tracer.Tracer` of a traced phase (``None`` when plain).
    tracer: Any = None
    speed: HostSpeed = field(default_factory=HostSpeed)

    def attempt(self, label: str, call: Callable[[], Any],
                check: Callable[[Any], list[str]]):
        """Time *call*, check its output; a raise or a bad output fails it.

        Returns the output and its ``(start, seconds)`` timing.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.speed.maybe_probe()
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing op is counted; the run goes on
            self.fail(label, [f"raised {type(exc).__name__}: {exc}",
                              traceback.format_exc()])
            return None, None
        elapsed = time.perf_counter() - start
        problems = check(out)
        if problems:
            self.fail(label, problems)
        return out, (start, elapsed)

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def pin(self, kind: str, key, digest: str) -> list[str]:
        """Reference digest check plus run-internal determinism."""
        problems = self.refs.check(kind, key, digest)
        seen = self.digests.setdefault(f"{kind}:{key}", digest)
        if seen != digest:
            problems.append(f"{kind} {key}: same inputs gave a different result")
        return problems

    def checked(self, kind: str, key, digest: str,
                oracle: Callable[[], list[str]]) -> list[str]:
        """The oracle on an op's first output, the digests on every output."""
        label = f"{kind}:{key}"
        problems = [] if label in self.verified else oracle()
        problems += self.pin(kind, key, digest)
        if not problems:
            self.verified.add(label)
        return problems


def _op_counts(result, run: Run, before: int) -> dict:
    stats = result.stats
    counter = stats["counter_stats"]
    counts = {
        "count_calls": counter["count_calls"],
        "batch_cubes": counter["batch_cubes"],
        "cache_entries": counter["cache_entries"],
        "shards_counted": counter.get("shards_counted", 0),
        "generations": stats.get("generations", 0),
        "evaluations": stats.get("evaluations", 0),
        "chunks_parallel": stats["backend_health"]["chunks_parallel"],
    }
    if run.tracer is not None:
        counts["subspaces_constructed"] = (
            run.tracer.counters["core.subspace.constructed"] - before
        )
    return counts


def detect_op(run: Run, workload: str, index: int, call, model_of, key) -> Any:
    """One detect, checked against the oracle and digests.

    Its time is a sample of slot *key*.
    """
    params = BRUTE_PARAMS if workload == "brute_segmentation" else GA_PARAMS
    phi, k, m = params["n_ranges"], params["dimensionality"], params["n_projections"]
    before = (
        run.tracer.counters["core.subspace.constructed"]
        if run.tracer is not None else 0
    )
    # A detector's objects form reference cycles that hold ~15 MB until
    # a full collection; collect (untimed) so every detect starts from
    # the same heap and peak RSS does not depend on how many ran.
    gc.collect()

    def oracle(result) -> list[str]:
        model = model_of()
        problems = checks.check_detect(result, model, phi=phi, k=k, m=m)
        if workload == "brute_segmentation":
            problems += checks.check_brute_optimal(result, model, phi=phi, k=k, m=m)
        return problems

    def check(result) -> list[str]:
        return run.checked("detect", key, checks.result_digest(result),
                           lambda: oracle(result))

    result, timing = run.attempt(f"detect {key}", call, check)
    if result is not None:
        run.detect_s.setdefault(key, []).append(timing)
        run.op_counts.append(
            {"op": index, "kind": "detect", "key": key,
             **_op_counts(result, run, before)}
        )
    return result


def stream_op(run: Run, model: GridModel, batch: np.ndarray, index: int) -> None:
    """One batch: ``update`` (a write) then ``score`` (a read)."""
    expected_rows = model.n_points + batch.shape[0]
    _, t_update = run.attempt(
        f"update {index}", lambda: model.update(batch),
        lambda _: [] if model.n_points == expected_rows
        else [f"model holds {model.n_points} rows, expected {expected_rows}"],
    )
    _, t_score = run.attempt(
        f"score {index}", lambda: model.score(batch),
        lambda s: run.checked("stream", index, checks.scores_digest(s),
                              lambda: checks.check_scores(s, model, batch)),
    )
    for timing, samples in ((t_update, run.update_s), (t_score, run.score_s)):
        if timing is not None:
            samples.setdefault(index, []).append(timing)


# ----------------------------------------------------------------------
# Rounds


def mine_round(run: Run, workload: str, data: np.ndarray, *,
               mmap_dir: Path | None = None,
               seeds: tuple[int, ...] | None = None) -> list[GridModel | None]:
    """One detect per GA seed of the round; returns their models."""
    params: dict[str, Any] = dict(GA_PARAMS)
    if workload == "brute_segmentation":
        params = dict(BRUTE_PARAMS, method="brute_force")
        seeds = seeds or (0,)
    if mmap_dir is not None:
        params.update(mmap_dir=mmap_dir, shard_rows=SHARD_ROWS)
    models = []
    for index, seed in enumerate(seeds or ROUND_GA_SEEDS):
        key = 0 if workload == "brute_segmentation" else seed
        detector = SubspaceOutlierDetector(random_state=seed, **params)
        result = detect_op(run, workload, index, lambda: detector.detect(data),
                           lambda: detector.model_, key)
        models.append(None if result is None else detector.model_)
    return models


def serve_round(run: Run, bases: list[GridModel | None], data: np.ndarray,
                seed: int) -> None:
    """The serving tail, split evenly over fresh copies of *bases*.

    The update cost grows with the served model's count cache, which
    differs from one mined model to the next; serving every model of
    the round keeps that from hanging on one GA seed.
    """
    if not bases or None in bases:
        run.fail("serve", ["no model to serve: a detect failed"])
        return
    per_model = SERVE_BATCHES // len(bases)
    for position, base in enumerate(bases):
        model = copy.deepcopy(base)
        gc.collect()
        for index in range(position * per_model, (position + 1) * per_model):
            stream_op(run, model, stream_batch(data, seed, index), index)


def run_workload(run: Run, workload: str, data: np.ndarray, seed: int, *,
                 seconds: float, rounds: int | None = None,
                 serve_tail: bool = True) -> dict[str, int]:
    """The timed part of one workload: rounds for *seconds*, or exactly *rounds*.

    The two phases (detects, serving) alternate, so every slot's rounds
    are spread over the run.  A phase starts another round only while
    its last round still fits in *seconds*, once it has ``MIN_ROUNDS``.
    Returns the rounds each phase ran.
    """
    served: list[list[GridModel | None]] = []

    def mine() -> None:
        models = mine_round(run, workload, data)
        if not served:
            served.append(models)

    phases: list[tuple[str, Callable[[], None]]] = [("mine", mine)]
    if serve_tail:
        phases.append(("serve", lambda: serve_round(run, served[0], data, seed)))
    done = {name: 0 for name, _ in phases}
    last = dict.fromkeys(done, 0.0)
    start = time.perf_counter()
    while True:
        ran = False
        for name, phase in phases:
            if rounds is not None:
                if done[name] >= rounds:
                    continue
            elif done[name] >= MIN_ROUNDS and (
                time.perf_counter() - start + last[name] > seconds
            ):
                continue
            began = time.perf_counter()
            phase()
            last[name] = time.perf_counter() - began
            done[name] += 1
            ran = True
        if not ran:
            return done
