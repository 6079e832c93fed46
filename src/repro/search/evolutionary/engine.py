"""Figure 3: the evolutionary outlier-search main loop.

Seed a population of ``p`` random feasible strings, then iterate
selection → crossover → mutation, folding every feasible solution ever
evaluated into the running ``BestSet`` of the ``m`` most negative
sparsity coefficients.  Terminate on De Jong convergence (or the
generation / wall-clock / stall caps from the config) and report the
best set; §2.3's postprocessing to data points happens in the detector
facade.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import asdict
from collections.abc import Mapping

from ..._validation import check_positive_int, check_rng
from ...engine.context import RunContext
from ...engine.protocol import GeneratorEngine
from ...exceptions import CheckpointError, SearchCancelled, ValidationError
from ...grid.counter import CubeCounter
from ...run.checkpoint import encode_rng_state
from ..best_set import BestProjectionSet
from ..outcome import GenerationRecord, SearchOutcome
from .config import EvolutionaryConfig
from .convergence import DeJongConvergence
from .crossover import CrossoverOperator, OptimizedCrossover, TwoPointCrossover
from .encoding import Solution, seed_population
from .mutation import BalancedMutation
from .population import FitnessEvaluator
from .selection import RankRouletteSelection, SelectionOperator

__all__ = ["EvolutionarySearch"]

logger = logging.getLogger(__name__)

_CROSSOVER_ALIASES = {
    "optimized": lambda cfg: OptimizedCrossover(cfg.max_exact_positions),
    "two_point": lambda cfg: TwoPointCrossover(),
}


class EvolutionarySearch(GeneratorEngine):
    """Algorithm *EvolutionaryOutlierSearch* (Figure 3).

    Parameters
    ----------
    counter:
        Cube counting engine over the discretized data.
    dimensionality:
        k — dimensionality of mined projections.
    n_projections:
        m — size of the best set to maintain (None allowed only with a
        *threshold*).
    config:
        GA hyper-parameters; defaults are sensible at paper scale.
    crossover:
        ``"optimized"`` (Figure 5, the paper's contribution),
        ``"two_point"`` (the baseline), or any
        :class:`~repro.search.evolutionary.crossover.CrossoverOperator`.
    selection:
        Defaults to the paper's rank-roulette (Figure 4).
    require_nonempty / threshold:
        Best-set policy, see
        :class:`~repro.search.best_set.BestProjectionSet`.
    random_state:
        Seed or numpy Generator for full determinism.
    cancel_token:
        Optional :class:`~repro.run.cancel.CancelToken`; polled at every
        generation boundary (and between counting chunks), so a
        flip stops the search at a safe point with best-so-far results.
    checkpointer:
        Optional :class:`~repro.run.checkpoint.SearchCheckpointer`;
        when set, the full GA state (population, RNG stream, best set,
        counters) is persisted atomically at generation boundaries and
        ``run(resume_from=True)`` continues bit-identically to an
        uninterrupted run.
    """

    def __init__(
        self,
        counter: CubeCounter,
        dimensionality: int,
        n_projections: int | None = 20,
        *,
        config: EvolutionaryConfig | None = None,
        crossover: str | CrossoverOperator = "optimized",
        selection: SelectionOperator | None = None,
        require_nonempty: bool = True,
        threshold: float | None = None,
        random_state=None,
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
        self.n_projections = n_projections
        self.config = config or EvolutionaryConfig()
        if isinstance(crossover, str):
            try:
                self.crossover: CrossoverOperator = _CROSSOVER_ALIASES[crossover](
                    self.config
                )
            except KeyError:
                raise ValidationError(
                    f"unknown crossover {crossover!r}; expected one of "
                    f"{sorted(_CROSSOVER_ALIASES)} or a CrossoverOperator"
                ) from None
        elif isinstance(crossover, CrossoverOperator):
            self.crossover = crossover
        else:
            raise ValidationError(
                f"crossover must be a name or CrossoverOperator, got "
                f"{type(crossover).__name__}"
            )
        self.selection = selection or RankRouletteSelection()
        self.require_nonempty = require_nonempty
        self.threshold = threshold
        self.random_state = random_state
        self.cancel_token = cancel_token
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    def _iterate(self, context: RunContext):
        """The GA main loop as a generator (see :class:`GeneratorEngine`).

        ``run(resume_from=...)`` drives this to completion; an external
        driver can instead ``prepare``/``step`` it one generation
        boundary at a time.  A resumed run restores the RNG stream,
        population, best set and every counter from the last generation
        boundary, so its final result is bit-identical to the same run
        never having been interrupted.  Statement order inside the loop
        matches the pre-protocol implementation — the differential
        golden tests lock that down.
        """
        rng = context.rng if context.rng is not None else check_rng(self.random_state)
        cfg = self.config
        token = context.resolve_token(self.cancel_token)
        checkpointer = context.resolve_checkpointer(self.checkpointer)
        max_seconds = context.merged_budget(cfg.max_seconds)
        evaluator = FitnessEvaluator(self.counter, self.dimensionality)
        mutation = BalancedMutation(
            cfg.mutation_swap_probability,
            cfg.mutation_flip_probability,
            self.counter.n_ranges,
        )
        convergence = DeJongConvergence(
            cfg.convergence_threshold, mode=cfg.convergence_mode
        )
        best = BestProjectionSet(
            self.n_projections,
            require_nonempty=self.require_nonempty,
            threshold=self.threshold,
        )

        state = self._load_resume_state(context.resume_from, checkpointer)
        first_restart = 0
        history: list[GenerationRecord] = []
        start = time.perf_counter()
        # Run-wide totals shared with the boundary checkpoints.  The
        # time budget is per process invocation: a resumed run gets the
        # full ``max_seconds`` again (callers with one overall budget —
        # the RunController — pass the *remaining* budget down instead),
        # while ``elapsed_base`` keeps the reported elapsed time
        # cumulative across interruptions.
        totals = {"generations": 0, "converged": 0, "elapsed_base": 0.0,
                  "start": start}
        if state is not None:
            rng.bit_generator.state = state["rng_state"]
            best.restore_state(state["best_set"])
            evaluator.n_evaluations = int(state["evaluations"])
            totals["generations"] = int(state["total_generations"])
            totals["converged"] = int(state["n_converged"])
            totals["elapsed_base"] = float(state["elapsed_seconds"])
            first_restart = int(state["restart"])
            history = [GenerationRecord(**record) for record in state["history"]]
            logger.info(
                "resuming evolutionary search at restart %d, generation %d "
                "(%d evaluations done)",
                first_restart, int(state["generation"]), evaluator.n_evaluations,
            )
        deadline = None if max_seconds is None else start + max_seconds

        self._run = {
            "evaluator": evaluator,
            "best": best,
            "history": history,
            "totals": totals,
            "start": start,
            "stopped_reason": "converged",
        }
        context.emit(
            "run_started",
            algorithm="evolutionary",
            dimensionality=self.dimensionality,
            n_projections=self.n_projections,
            restarts=cfg.restarts,
            resumed=state is not None,
        )
        with self.counter.runtime_binding(token, context.sink):
            yield  # prepare boundary: state built, no search work yet
            stopped_reason = "converged"
            for restart in range(first_restart, cfg.restarts):
                generations, stopped_reason, dejong = yield from (
                    self._run_population(
                        rng, evaluator, mutation, convergence, best, deadline,
                        restart, history, totals, restored=state,
                        token=token, checkpointer=checkpointer, context=context,
                    )
                )
                state = None
                totals["generations"] += generations
                totals["converged"] += int(dejong)
                self._run["stopped_reason"] = stopped_reason
                logger.debug(
                    "restart %d/%d: %d generations, stopped_reason=%s, best "
                    "set %d entries (best %.3f)",
                    restart + 1, cfg.restarts, generations, stopped_reason,
                    len(best),
                    best.best().coefficient if len(best) else float("nan"),
                )
                if stopped_reason == "deadline":
                    logger.warning("evolutionary search hit its time budget")
                    break
                if stopped_reason == "cancelled":
                    logger.warning(
                        "evolutionary search cancelled; returning best-so-far"
                    )
                    break
            self._run["stopped_reason"] = stopped_reason

    def _build_outcome(self, context: RunContext) -> SearchOutcome:
        run = self._require_run_state()
        cfg = self.config
        totals = run["totals"]
        best = run["best"]
        stopped_reason = run["stopped_reason"]
        elapsed = totals["elapsed_base"] + (time.perf_counter() - run["start"])
        return SearchOutcome(
            projections=tuple(best.entries()),
            completed=stopped_reason not in ("deadline", "cancelled"),
            stats={
                "elapsed_seconds": elapsed,
                "generations": totals["generations"],
                "converged": totals["converged"] / cfg.restarts,
                "restarts": cfg.restarts,
                "evaluations": run["evaluator"].n_evaluations,
                "population_size": cfg.population_size,
                "algorithm": f"evolutionary/{type(self.crossover).__name__}",
            },
            history=tuple(run["history"]),
            stopped_reason=stopped_reason,
        )

    def _load_resume_state(self, resume_from, checkpointer=None) -> dict | None:
        """Normalize ``resume_from`` into a state dict (or None)."""
        if checkpointer is None:
            checkpointer = self.checkpointer
        if resume_from is None or resume_from is False:
            return None
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
        if state.get("algorithm") != "evolutionary":
            raise CheckpointError(
                "checkpoint was written by a "
                f"{state.get('algorithm', 'unknown')!r} search, not an "
                "evolutionary one"
            )
        return state

    def _run_population(
        self,
        rng,
        evaluator: FitnessEvaluator,
        mutation: BalancedMutation,
        convergence: DeJongConvergence,
        best: BestProjectionSet,
        deadline: float | None,
        restart: int = 0,
        history: list | None = None,
        totals: dict | None = None,
        restored: dict | None = None,
        token=None,
        checkpointer=None,
        context: RunContext | None = None,
    ):
        """One population until convergence/caps; feeds the shared best set.

        A generator returning ``(generations, stopped_reason,
        dejong_converged)`` via ``yield from``; it yields at the top of
        every ``while`` iteration — the **safe boundary**: the
        population of generation *g* is fully evaluated and no RNG draws
        have happened since.  Checkpoints are written there, the cancel
        token is polled there, and a cancellation that strikes *inside*
        the evolve step (mid-batch-count) discards the partial
        generation wholesale — the best set is only updated after the
        batch count returns, so the boundary state stays exact.
        """
        cfg = self.config
        if token is None:
            token = self.cancel_token
        if checkpointer is None:
            checkpointer = self.checkpointer

        def emit(type_: str, **payload) -> None:
            if context is not None:
                context.emit(type_, **payload)

        if restored is None:
            population = seed_population(
                self.counter.n_dims,
                self.dimensionality,
                self.counter.n_ranges,
                cfg.population_size,
                rng,
            )
            try:
                fitnesses = self._evaluate_and_track(population, evaluator, best)
            except SearchCancelled:
                return 0, "cancelled", False
            if cfg.track_history and history is not None:
                history.append(
                    self._snapshot(restart, 0, population, fitnesses, best)
                )
            generation = 0
            stall = 0
            # `n_accepted` grows whenever the best set improves — both in
            # bounded top-m mode and in unbounded threshold mode.
            accepted_seen = best.n_accepted
        else:
            population = [Solution(genes) for genes in restored["population"]]
            fitnesses = [float(f) for f in restored["fitnesses"]]
            generation = int(restored["generation"])
            stall = int(restored["stall"])
            accepted_seen = int(restored["accepted_seen"])

        reason = "generation_cap"
        dejong = False
        while True:
            # ---- safe boundary: generation fully evaluated ----
            yield
            boundary_rng = rng.bit_generator.state
            boundary_evals = evaluator.n_evaluations

            def build_state(
                generation=generation,
                population=population,
                fitnesses=fitnesses,
                stall=stall,
                accepted_seen=accepted_seen,
                boundary_rng=boundary_rng,
                boundary_evals=boundary_evals,
            ):
                return self._checkpoint_state(
                    restart, generation, population, fitnesses, stall,
                    accepted_seen, boundary_rng, boundary_evals, best,
                    history, totals,
                )

            if checkpointer is not None:
                boundary_index = generation
                if totals is not None:
                    boundary_index += totals["generations"]
                if checkpointer.maybe_save(boundary_index, build_state):
                    emit(
                        "checkpoint_written",
                        boundary=boundary_index, trigger="interval",
                    )
            if token is not None and token.poll():
                reason = "cancelled"
                if checkpointer is not None:
                    checkpointer.save(build_state())
                    emit(
                        "checkpoint_written",
                        boundary=generation, trigger="cancelled",
                    )
                break
            if deadline is not None and time.perf_counter() >= deadline:
                reason = "deadline"
                if checkpointer is not None:
                    checkpointer.save(build_state())
                    emit(
                        "checkpoint_written",
                        boundary=generation, trigger="deadline",
                    )
                break
            if convergence.has_converged(population):
                reason = "converged"
                dejong = True
                break
            if generation >= cfg.max_generations:
                reason = "generation_cap"
                break
            elites: list[Solution] = []
            if cfg.elitism:
                order = sorted(range(len(population)), key=lambda i: fitnesses[i])
                elites = [population[i] for i in order[: cfg.elitism]]
            try:
                offspring = self.selection.select(population, fitnesses, rng)
                offspring = self.crossover.apply(
                    offspring, evaluator, rng, cfg.crossover_rate
                )
                offspring = mutation.apply(offspring, rng)
                if elites:
                    # Elites replace the tail of the new population
                    # verbatim, shielding the best solutions from
                    # crossover/mutation.
                    offspring[-len(elites):] = elites
                offspring_fitnesses = self._evaluate_and_track(
                    offspring, evaluator, best
                )
            except SearchCancelled:
                # Discard the in-flight generation: population/fitnesses
                # still hold the boundary state and the best set was not
                # offered anything, so the checkpoint below describes the
                # last completed boundary exactly.
                reason = "cancelled"
                if checkpointer is not None:
                    checkpointer.save(build_state())
                    emit(
                        "checkpoint_written",
                        boundary=generation, trigger="cancelled",
                    )
                break
            population, fitnesses = offspring, offspring_fitnesses
            generation += 1
            best_entry = best.best()
            emit(
                "generation_end",
                restart=restart,
                generation=generation,
                evaluations=evaluator.n_evaluations,
                best_set_size=len(best),
                best_coefficient=(
                    best_entry.coefficient if best_entry is not None else None
                ),
            )
            if cfg.track_history and history is not None:
                history.append(
                    self._snapshot(restart, generation, population, fitnesses, best)
                )
            if cfg.stall_generations is not None:
                if best.n_accepted > accepted_seen:
                    accepted_seen = best.n_accepted
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.stall_generations:
                        reason = "converged"
                        break
        return generation, reason, dejong

    def _checkpoint_state(
        self,
        restart: int,
        generation: int,
        population: list[Solution],
        fitnesses: list[float],
        stall: int,
        accepted_seen: int,
        rng_state,
        evaluations: int,
        best: BestProjectionSet,
        history: list | None,
        totals: dict | None,
    ) -> dict:
        """Full JSON-compatible GA state at a generation boundary."""
        totals = totals or {"generations": 0, "converged": 0,
                            "elapsed_base": 0.0, "start": time.perf_counter()}
        return {
            "algorithm": "evolutionary",
            "restart": restart,
            "generation": generation,
            "population": [list(solution.genes) for solution in population],
            "fitnesses": list(fitnesses),
            "stall": stall,
            "accepted_seen": accepted_seen,
            "rng_state": encode_rng_state(rng_state),
            "evaluations": evaluations,
            "best_set": best.to_state(),
            "total_generations": totals["generations"],
            "n_converged": totals["converged"],
            "elapsed_seconds": totals["elapsed_base"]
            + (time.perf_counter() - totals["start"]),
            "history": [asdict(record) for record in (history or [])],
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(
        restart: int,
        generation: int,
        population: list[Solution],
        fitnesses: list[float],
        best: BestProjectionSet,
    ) -> GenerationRecord:
        """One history record (only built when track_history is on)."""
        counts = Counter(population)
        best_entry = best.best()
        finite = [f for f in fitnesses if f != float("inf")]
        return GenerationRecord(
            restart=restart,
            generation=generation,
            best_coefficient=(
                best_entry.coefficient if best_entry is not None else float("nan")
            ),
            best_set_size=len(best),
            population_best=min(finite) if finite else float("inf"),
            n_feasible=len(finite),
            convergence=counts.most_common(1)[0][1] / len(population),
        )

    @staticmethod
    def _evaluate_and_track(
        population: list[Solution],
        evaluator: FitnessEvaluator,
        best: BestProjectionSet,
    ) -> list[float]:
        """Fitness of every string; feasible ones feed the best set.

        The whole generation is counted in one
        :meth:`~repro.grid.counter.CubeCounter.count_batch` pass —
        duplicates of a converging population collapse in the batch.
        Offers happen in population order, so the best-set
        contents (including tie-breaks) match per-solution scoring.
        """
        fitnesses = []
        for scored in evaluator.score_batch(population):
            if scored is None:
                fitnesses.append(float("inf"))
            else:
                fitnesses.append(scored.coefficient)
                best.offer(scored)
        return fitnesses
