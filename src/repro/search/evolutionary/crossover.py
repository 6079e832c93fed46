"""Crossover operators (§2.2 and Figure 5).

Two recombination mechanisms, mirroring the paper's comparison:

* :class:`TwoPointCrossover` — the "unbiased two-point crossover"
  baseline.  Despite the name, the paper describes it as picking a
  single crossover point and "exchanging the segments to the right of
  this point"; we reproduce that literally (and offer the genuinely
  two-point variant as an option).  Children frequently have the wrong
  dimensionality; they stay in the population with infeasible fitness
  and die under selection, which is exactly why this operator performs
  poorly.

* :class:`OptimizedCrossover` — Figure 5.  Positions are classified per
  parent pair: Type I (both ``*``), Type II (neither ``*``; there are
  ``k' <= k`` of them), Type III (exactly one ``*``; ``2(k−k')`` of
  them, disjoint between parents).  The first child ``s`` takes ``*``
  on Type I, the *best of the 2^k' combinations* on Type II (exact
  enumeration — k' is small when mining low-dimensional projections of
  high-dimensional data), and is then extended greedily through Type
  III positions, always adding the (position, value) whose partial cube
  has the most negative sparsity coefficient, until it fixes k genes.
  The second child ``s'`` is the *complementary* string: every position
  is derived from the opposite parent than the one ``s`` used, which
  makes ``s'`` feasible by construction.
"""

from __future__ import annotations

import abc
from itertools import product

import numpy as np

from ..._validation import check_positive_int, check_rng
from ...exceptions import ValidationError
from .encoding import Solution, WILDCARD_GENE
from .population import FitnessEvaluator

__all__ = [
    "CrossoverOperator",
    "TwoPointCrossover",
    "OptimizedCrossover",
    "pair_population",
]


def pair_population(solutions: list[Solution], random_state) -> list[tuple[int, int]]:
    """Match solutions pairwise at random (Figure 5's first step).

    Returns index pairs; with an odd population the leftover solution
    is unpaired and passes through crossover unchanged.
    """
    rng = check_rng(random_state)
    order = rng.permutation(len(solutions))
    return [(int(order[i]), int(order[i + 1])) for i in range(0, len(order) - 1, 2)]


class CrossoverOperator(abc.ABC):
    """Recombines two parent strings into two children."""

    @abc.abstractmethod
    def recombine(
        self,
        parent_a: Solution,
        parent_b: Solution,
        evaluator: FitnessEvaluator,
        random_state,
    ) -> tuple[Solution, Solution]:
        """Return the two child strings."""

    def apply(
        self,
        solutions: list[Solution],
        evaluator: FitnessEvaluator,
        random_state,
        crossover_rate: float = 1.0,
    ) -> list[Solution]:
        """Pair the population and recombine each pair in place.

        Mirrors Algorithm *Crossover* (Figure 5): matched parents are
        *replaced* by their children.
        """
        rng = check_rng(random_state)
        out = list(solutions)
        for i, j in pair_population(solutions, rng):
            if crossover_rate < 1.0 and rng.random() >= crossover_rate:
                continue
            out[i], out[j] = self.recombine(out[i], out[j], evaluator, rng)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TwoPointCrossover(CrossoverOperator):
    """The unbiased segment-exchange baseline.

    Parameters
    ----------
    two_cut_points:
        False (default) reproduces the paper's description — one random
        cut, exchange the right segments.  True exchanges the segment
        *between* two random cuts (textbook two-point crossover);
        offered for the crossover ablation.
    """

    def __init__(self, two_cut_points: bool = False):
        self.two_cut_points = bool(two_cut_points)

    def recombine(self, parent_a, parent_b, evaluator, random_state):
        if parent_a.n_dims != parent_b.n_dims:
            raise ValidationError("parents must have equal gene counts")
        rng = check_rng(random_state)
        d = parent_a.n_dims
        a = list(parent_a.genes)
        b = list(parent_b.genes)
        if self.two_cut_points:
            lo, hi = sorted(int(c) for c in rng.integers(0, d + 1, size=2))
            a[lo:hi], b[lo:hi] = b[lo:hi], a[lo:hi]
        else:
            # Cut after position `cut` (1..d-1); exchange right segments.
            cut = int(rng.integers(1, d)) if d > 1 else 0
            a[cut:], b[cut:] = b[cut:], a[cut:]
        return Solution(a), Solution(b)


class OptimizedCrossover(CrossoverOperator):
    """Figure 5's optimized recombination (exact + greedy + complement).

    Parameters
    ----------
    max_exact_positions:
        Upper bound on k' for the exhaustive ``2^k'`` Type II stage;
        beyond it a sequential greedy assignment is used instead (never
        triggered at the paper's scale, where k' <= k <= 5 or so).
    """

    def __init__(self, max_exact_positions: int = 12):
        self.max_exact_positions = check_positive_int(
            max_exact_positions, "max_exact_positions"
        )

    # ------------------------------------------------------------------
    def recombine(self, parent_a, parent_b, evaluator, random_state):
        if parent_a.n_dims != parent_b.n_dims:
            raise ValidationError("parents must have equal gene counts")
        k = evaluator.dimensionality
        if not (parent_a.is_feasible(k) and parent_b.is_feasible(k)):
            # Only the two-point baseline produces infeasible strings and
            # it never routes them here; pass through defensively.
            return parent_a, parent_b
        rng = check_rng(random_state)
        d = parent_a.n_dims

        type2 = [
            i
            for i in range(d)
            if parent_a.genes[i] != WILDCARD_GENE and parent_b.genes[i] != WILDCARD_GENE
        ]
        type3 = [
            i
            for i in range(d)
            if (parent_a.genes[i] == WILDCARD_GENE)
            != (parent_b.genes[i] == WILDCARD_GENE)
        ]

        # Stage 1 — Type II: best of the 2^k' parent assignments.
        # source[i] remembers which parent child `s` derived gene i from,
        # so the complementary child can invert every derivation.
        genes = [WILDCARD_GENE] * d
        source = [0] * d  # 0 = parent_a, 1 = parent_b; irrelevant on Type I
        if type2:
            assignment = self._best_type2_assignment(
                parent_a, parent_b, type2, evaluator, rng
            )
            for pos, src in zip(type2, assignment, strict=True):
                genes[pos] = (parent_b if src else parent_a).genes[pos]
                source[pos] = src

        # Stage 2 — Type III: greedy extension to k fixed genes.
        candidates = []
        for pos in type3:
            if parent_a.genes[pos] != WILDCARD_GENE:
                candidates.append((pos, parent_a.genes[pos], 0))
            else:
                candidates.append((pos, parent_b.genes[pos], 1))
        chosen = self._greedy_extension(genes, candidates, k - len(type2), evaluator)
        for pos, value, src in chosen:
            genes[pos] = value
            source[pos] = src

        child = Solution(genes)

        # Complementary child: every gene from the opposite parent.
        type3_positions = {pos for pos, _, _ in candidates}
        comp = [WILDCARD_GENE] * d
        for i in range(d):
            other = parent_a if source[i] == 1 else parent_b
            # Genes `s` never touched (unchosen Type III) were implicitly
            # derived from the wildcard parent, so the complement takes
            # the fixed parent's value.
            if genes[i] == WILDCARD_GENE and i in type3_positions:
                fixed_parent = (
                    parent_a if parent_a.genes[i] != WILDCARD_GENE else parent_b
                )
                comp[i] = fixed_parent.genes[i]
            else:
                comp[i] = other.genes[i]
        complementary = Solution(comp)
        return child, complementary

    # ------------------------------------------------------------------
    def _best_type2_assignment(self, parent_a, parent_b, type2, evaluator, rng):
        """Choose, per Type II position, which parent's value to take.

        Returns a tuple of 0/1 source flags aligned with *type2*.
        Positions where both parents agree are forced (either source
        yields the same gene) and excluded from the enumeration, which
        keeps ``2^k'`` at its effective minimum.
        """
        free = [
            pos for pos in type2 if parent_a.genes[pos] != parent_b.genes[pos]
        ]
        forced = {pos: 0 for pos in type2 if pos not in set(free)}
        if not free:
            return tuple(forced.get(pos, 0) for pos in type2)
        if len(free) > self.max_exact_positions:
            choice = self._greedy_type2(parent_a, parent_b, type2, free, evaluator)
        else:
            choice = self._exact_type2(parent_a, parent_b, type2, free, evaluator)
        merged = dict(forced)
        merged.update(choice)
        return tuple(merged[pos] for pos in type2)

    def _exact_type2(self, parent_a, parent_b, type2, free, evaluator):
        """Exhaustive 2^|free| search for the best partial cube.

        The forced positions form the shared base; each bit pattern
        over the free positions is one candidate, scored in one step.
        """
        free_set = set(free)
        base = _cube_key(
            (pos, parent_a.genes[pos]) for pos in type2 if pos not in free_set
        )
        patterns = list(product((0, 1), repeat=len(free)))
        extensions = [
            tuple(
                (pos, (parent_b if src else parent_a).genes[pos])
                for pos, src in zip(free, bits, strict=True)
            )
            for bits in patterns
        ]
        best = int(np.argmin(evaluator.extended_fitness(base, extensions)))
        return dict(zip(free, patterns[best], strict=True))

    def _greedy_type2(self, parent_a, parent_b, type2, free, evaluator):
        """Fallback for oversized k': fix free positions one at a time."""
        free_set = set(free)
        fixed = [(pos, parent_a.genes[pos]) for pos in type2 if pos not in free_set]
        choice: dict[int, int] = {}
        for pos in free:
            values = (parent_a.genes[pos], parent_b.genes[pos])
            fitness = evaluator.extended_fitness(
                _cube_key(fixed), [((pos, value),) for value in values]
            )
            best_src = int(np.argmin(fitness))
            fixed.append((pos, values[best_src]))
            choice[pos] = best_src
        return choice

    @staticmethod
    def _greedy_extension(genes, candidates, n_to_add, evaluator):
        """Greedy Type III stage: repeatedly add the best (pos, value).

        *genes* is the partial child (left unmodified); *candidates* are
        ``(position, value, source_parent)`` triples; exactly *n_to_add*
        of them are chosen.  Each step scores every remaining candidate
        as a one-gene extension of the cube built so far.
        """
        if n_to_add <= 0:
            return []
        chosen = []
        fixed = [(pos, value) for pos, value in enumerate(genes) if value != WILDCARD_GENE]
        available = list(candidates)
        for _ in range(n_to_add):
            fitness = evaluator.extended_fitness(
                _cube_key(fixed), [((pos, value),) for pos, value, _src in available]
            )
            pos, value, src = available.pop(int(np.argmin(fitness)))
            fixed.append((pos, value))
            chosen.append((pos, value, src))
        return chosen


def _cube_key(pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(dims, ranges)`` key of ``(position, value)`` genes, dims ascending."""
    items = sorted(pairs)
    return tuple(pos for pos, _ in items), tuple(value for _, value in items)

