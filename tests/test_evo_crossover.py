"""Tests for the crossover operators (Figure 5)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.cells import CellAssignment
from repro.grid.counter import CubeCounter
from repro.grid.packed_counter import PackedCubeCounter
from repro.grid.sharded import ShardedCounter, ShardedMaskStore
from repro.search.evolutionary.crossover import (
    OptimizedCrossover,
    TwoPointCrossover,
    pair_population,
)
from repro.search.evolutionary.encoding import (
    Solution,
    WILDCARD_GENE,
    random_solution,
    seed_population,
)
from repro.search.evolutionary.population import FitnessEvaluator


@pytest.fixture
def evaluator(small_cells):
    return FitnessEvaluator(CubeCounter(small_cells), dimensionality=2)


@pytest.fixture
def evaluator3(small_cells):
    return FitnessEvaluator(CubeCounter(small_cells), dimensionality=3)


class TestPairing:
    def test_all_paired_even(self):
        sols = seed_population(6, 2, 3, 8, random_state=0)
        pairs = pair_population(sols, np.random.default_rng(0))
        assert len(pairs) == 4
        used = [i for pair in pairs for i in pair]
        assert sorted(used) == list(range(8))

    def test_odd_leftover(self):
        sols = seed_population(6, 2, 3, 5, random_state=0)
        pairs = pair_population(sols, np.random.default_rng(0))
        assert len(pairs) == 2


class _FixedCut:
    """Stands in for a Generator, always returning the same cut point."""

    def __init__(self, cut):
        self.cut = cut

    def integers(self, low, high=None, size=None):
        return self.cut

    def random(self):
        return 0.0


class TestTwoPointCrossover:
    def test_paper_example_segment_exchange(self, evaluator3, monkeypatch):
        # Strings 3*2*1 and 1*33* cut after position 3 -> 3*23* and 1*3*1.
        import repro.search.evolutionary.crossover as crossover_module

        monkeypatch.setattr(crossover_module, "check_rng", lambda r: r)
        s1 = Solution.from_string("3*2*1")
        s2 = Solution.from_string("1*33*")
        c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator3, _FixedCut(3))
        assert c1.to_string() == "3*23*"
        assert c2.to_string() == "1*3*1"

    def test_can_create_infeasible_children(self, evaluator3, monkeypatch):
        # Cut after position 4 in the paper's example gives 2-d and 4-d
        # children from 3-d parents.
        import repro.search.evolutionary.crossover as crossover_module

        monkeypatch.setattr(crossover_module, "check_rng", lambda r: r)
        s1 = Solution.from_string("3*2*1")
        s2 = Solution.from_string("1*33*")
        c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator3, _FixedCut(4))
        assert {c1.dimensionality, c2.dimensionality} == {2, 4}

    def test_gene_conservation(self, evaluator):
        # Children's genes at each position come from one of the parents.
        rng = np.random.default_rng(3)
        for _ in range(20):
            s1 = random_solution(8, 3, 4, rng)
            s2 = random_solution(8, 3, 4, rng)
            c1, c2 = TwoPointCrossover().recombine(s1, s2, evaluator, rng)
            for i in range(8):
                assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}

    def test_two_cut_variant(self, evaluator):
        rng = np.random.default_rng(4)
        s1 = random_solution(10, 3, 4, rng)
        s2 = random_solution(10, 3, 4, rng)
        c1, c2 = TwoPointCrossover(two_cut_points=True).recombine(
            s1, s2, evaluator, rng
        )
        for i in range(10):
            assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}


class TestOptimizedCrossover:
    def test_children_always_feasible(self, evaluator):
        rng = np.random.default_rng(0)
        op = OptimizedCrossover()
        for _ in range(50):
            s1 = random_solution(6, 2, 5, rng)
            s2 = random_solution(6, 2, 5, rng)
            c1, c2 = op.recombine(s1, s2, evaluator, rng)
            assert c1.is_feasible(2), (s1.to_string(), s2.to_string(), c1.to_string())
            assert c2.is_feasible(2), (s1.to_string(), s2.to_string(), c2.to_string())

    def test_type1_positions_stay_wildcard(self, evaluator):
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("34****")
        c1, c2 = OptimizedCrossover().recombine(
            s1, s2, evaluator, np.random.default_rng(0)
        )
        for child in (c1, c2):
            assert child.genes[2:] == (WILDCARD_GENE,) * 4

    def test_complementarity(self, evaluator):
        # Every position of the second child derives from the opposite
        # parent of the first child's derivation.
        rng = np.random.default_rng(7)
        op = OptimizedCrossover()
        for _ in range(30):
            s1 = random_solution(6, 2, 5, rng)
            s2 = random_solution(6, 2, 5, rng)
            c1, c2 = op.recombine(s1, s2, evaluator, rng)
            for i in range(6):
                pair = {c1.genes[i], c2.genes[i]}
                assert pair == {s1.genes[i], s2.genes[i]}

    def test_identical_parents_fixed_point(self, evaluator):
        s = Solution.from_string("1*4***")
        c1, c2 = OptimizedCrossover().recombine(
            s, s, evaluator, np.random.default_rng(0)
        )
        assert c1 == s
        assert c2 == s

    def test_first_child_at_least_as_fit_as_best_recombinant_start(
        self, evaluator
    ):
        # With fully shared positions (k' = k), the child is the exact
        # optimum over all 2^k parent mixes.
        rng = np.random.default_rng(1)
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("45****")
        c1, _ = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
        candidates = []
        import itertools

        for bits in itertools.product([0, 1], repeat=2):
            genes = list(s1.genes)
            for pos, b in zip((0, 1), bits, strict=True):
                genes[pos] = (s2 if b else s1).genes[pos]
            candidates.append(evaluator.partial_fitness(Solution(genes)))
        assert evaluator.partial_fitness(c1) == pytest.approx(min(candidates))

    def test_disjoint_parents_pick_greedy_best(self, evaluator):
        # No Type II positions: the child is built purely by greedy
        # extension over the 2k Type III candidates.
        rng = np.random.default_rng(2)
        s1 = Solution.from_string("12****")
        s2 = Solution.from_string("**34**")
        c1, c2 = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
        assert c1.is_feasible(2)
        assert c2.is_feasible(2)
        # Together the children use exactly the union of parent genes.
        union = {(i, g) for s in (s1, s2) for i, g in enumerate(s.genes) if g >= 0}
        child_union = {
            (i, g) for s in (c1, c2) for i, g in enumerate(s.genes) if g >= 0
        }
        assert child_union == union

    def test_infeasible_parent_passthrough(self, evaluator):
        bad = Solution.from_string("123***")  # 3-d string in a k=2 run
        good = Solution.from_string("1*2***")
        c1, c2 = OptimizedCrossover().recombine(
            bad, good, evaluator, np.random.default_rng(0)
        )
        assert (c1, c2) == (bad, good)

    def test_greedy_fallback_above_exact_limit(self, small_cells):
        # Force the fallback path with max_exact_positions=1.
        evaluator = FitnessEvaluator(CubeCounter(small_cells), dimensionality=3)
        op = OptimizedCrossover(max_exact_positions=1)
        rng = np.random.default_rng(0)
        s1 = Solution.from_string("123***")
        s2 = Solution.from_string("245***")
        c1, c2 = op.recombine(s1, s2, evaluator, rng)
        assert c1.is_feasible(3)
        assert c2.is_feasible(3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
def test_property_optimized_children_feasible_and_complementary(
    seed, k
):
    """For random parents: both children feasible, genes conserved."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=(60, 8)).astype(np.int16)
    counter = CubeCounter(CellAssignment(codes, 4))
    evaluator = FitnessEvaluator(counter, dimensionality=k)
    s1 = random_solution(8, k, 4, rng)
    s2 = random_solution(8, k, 4, rng)
    c1, c2 = OptimizedCrossover().recombine(s1, s2, evaluator, rng)
    assert c1.is_feasible(k)
    assert c2.is_feasible(k)
    for i in range(8):
        assert {c1.genes[i], c2.genes[i]} == {s1.genes[i], s2.genes[i]}


class PerCubeCrossover(OptimizedCrossover):
    """Figure 5 scored one candidate at a time (the differential oracle).

    Every candidate partial cube becomes a ``Solution`` scored through
    ``partial_fitness``, and a strict ``<`` keeps the first best; the
    operator under test scores each step through one shared-base
    counter call and takes the first ``argmin``.
    """

    def _exact_type2(self, parent_a, parent_b, type2, free, evaluator):
        best_fitness = float("inf")
        best_choice = {}
        for bits in itertools.product((0, 1), repeat=len(free)):
            genes = [WILDCARD_GENE] * parent_a.n_dims
            for pos in type2:
                genes[pos] = parent_a.genes[pos]
            for pos, src in zip(free, bits, strict=True):
                genes[pos] = (parent_b if src else parent_a).genes[pos]
            fitness = evaluator.partial_fitness(Solution(genes))
            if fitness < best_fitness:
                best_fitness = fitness
                best_choice = dict(zip(free, bits, strict=True))
        return best_choice

    def _greedy_type2(self, parent_a, parent_b, type2, free, evaluator):
        genes = [WILDCARD_GENE] * parent_a.n_dims
        for pos in type2:
            if pos not in free:
                genes[pos] = parent_a.genes[pos]
        choice = {}
        for pos in free:
            best_src, best_fitness = 0, float("inf")
            for src in (0, 1):
                genes[pos] = (parent_b if src else parent_a).genes[pos]
                fitness = evaluator.partial_fitness(Solution(genes))
                if fitness < best_fitness:
                    best_fitness, best_src = fitness, src
            genes[pos] = (parent_b if best_src else parent_a).genes[pos]
            choice[pos] = best_src
        return choice

    @staticmethod
    def _greedy_extension(genes, candidates, n_to_add, evaluator):
        if n_to_add <= 0:
            return []
        chosen = []
        working = list(genes)
        available = list(candidates)
        for _ in range(n_to_add):
            best_idx, best_fitness = -1, float("inf")
            for idx, (pos, value, _src) in enumerate(available):
                working[pos] = value
                fitness = evaluator.partial_fitness(Solution(working))
                working[pos] = WILDCARD_GENE
                if fitness < best_fitness:
                    best_fitness, best_idx = fitness, idx
            pos, value, src = available.pop(best_idx)
            working[pos] = value
            chosen.append((pos, value, src))
        return chosen


N_GENES, PHI = 7, 3


def differential_grids():
    rng = np.random.default_rng(2024)
    # Every range combination of the first d-1 genes once (the last gene
    # is always 0): cubes of one dimensionality off the last gene all
    # hold the same count, so most steps are ties that only the
    # first-minimum rule decides.
    factorial = np.array(
        list(itertools.product(range(PHI), repeat=N_GENES)), dtype=np.int16
    )[::3]
    sparse = rng.integers(0, PHI, size=(40, N_GENES), dtype=np.int16)
    skewed = np.minimum(
        rng.geometric(0.5, size=(400, N_GENES)) - 1, PHI - 1
    ).astype(np.int16)
    skewed[rng.random(skewed.shape) < 0.05] = -1
    return {"ties": factorial, "sparse": sparse, "skewed": skewed}


GRIDS = differential_grids()


def parent_pairs(seed, k):
    """Random pairs: unrelated, all positions shared, and half shared."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(12):
        a = random_solution(N_GENES, k, PHI, rng)
        pairs.append((a, random_solution(N_GENES, k, PHI, rng)))
        same_positions = list(a.genes)
        for pos in a.fixed_positions:
            same_positions[pos] = int(rng.integers(0, PHI))
        pairs.append((a, Solution(same_positions)))
        keep = a.fixed_positions[: (k + 1) // 2]
        new = rng.choice(a.wildcard_positions, size=k - len(keep), replace=False)
        half = [WILDCARD_GENE] * N_GENES
        for pos in (*keep, *new):
            half[int(pos)] = int(rng.integers(0, PHI))
        pairs.append((a, Solution(half)))
    return pairs


def memo_trace(op, counter, k, pairs):
    evaluator = FitnessEvaluator(counter, dimensionality=k)
    children = [op.recombine(a, b, evaluator, np.random.default_rng(0)) for a, b in pairs]
    cache = counter._cache
    return {
        "children": children,
        "evaluations": evaluator.n_evaluations,
        "count_calls": counter.n_count_calls,
        "cache_hits": counter.n_cache_hits,
        "cache": None if cache is None else list(cache.items()),
    }


class TestBatchedStepsMatchPerCubeOracle:
    @pytest.mark.parametrize("flavour", ["dense", "packed", "sharded"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("cache_size", [200_000, 5, 0])
    @pytest.mark.parametrize("max_exact", [12, 1])
    def test_children_and_memo_match(
        self, flavour, grid, cache_size, max_exact, tmp_path
    ):
        cells = CellAssignment(GRIDS[grid], PHI)
        built = itertools.count()

        def make():
            if flavour == "dense":
                return CubeCounter(cells, cache_size=cache_size)
            if flavour == "packed":
                return PackedCubeCounter(cells, cache_size=cache_size)
            store = ShardedMaskStore.build(
                cells, tmp_path / f"store{next(built)}", shard_rows=97
            )
            return ShardedCounter(store, cache_size=cache_size)

        for k in (2, 3, 4):
            pairs = parent_pairs(seed=k, k=k)
            got = memo_trace(OptimizedCrossover(max_exact), make(), k, pairs)
            want = memo_trace(PerCubeCrossover(max_exact), make(), k, pairs)
            assert got == want
            assert got["evaluations"] > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_ga_run_matches_per_cube_oracle(seed, correlated_data):
    """A full GA run: same result and the same counter statistics.

    ``evaluations``, ``count_calls``, ``cache_hits`` and
    ``cache_entries`` are part of the determinism contract
    (docs/determinism.md), so batching the crossover may not move them.
    """
    from repro.grid.discretizer import EquiDepthDiscretizer
    from repro.search.evolutionary.config import EvolutionaryConfig
    from repro.search.evolutionary.engine import EvolutionarySearch

    cells = EquiDepthDiscretizer(5).fit_transform(correlated_data)

    def run(crossover):
        counter = CubeCounter(cells)
        outcome = EvolutionarySearch(
            counter, 3, 10,
            config=EvolutionaryConfig(population_size=24, max_generations=20),
            crossover=crossover, random_state=seed,
        ).run()
        stats = counter.cache_stats()
        return (
            [(p.subspace, p.count, p.coefficient) for p in outcome.projections],
            outcome.stats["evaluations"],
            outcome.stats["generations"],
            stats["count_calls"], stats["cache_hits"], stats["cache_entries"],
            list(counter._cache),
        )

    assert run(OptimizedCrossover()) == run(PerCubeCrossover())
