"""Tests for BestProjectionSet (the paper's BestSet tracker)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import ScoredProjection
from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.search.best_set import BestProjectionSet


def proj(dim, rng_, coefficient, count=1):
    return ScoredProjection(Subspace((dim,), (rng_,)), count, coefficient)


class TestTopM:
    def test_keeps_most_negative(self):
        best = BestProjectionSet(2)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -3.0))
        best.offer(proj(2, 0, -2.0))
        coefficients = [p.coefficient for p in best.entries()]
        assert coefficients == [-3.0, -2.0]

    def test_entries_sorted_most_negative_first(self):
        best = BestProjectionSet(5)
        for i, c in enumerate([-1.0, -5.0, -3.0]):
            best.offer(proj(i, 0, c))
        coefficients = [p.coefficient for p in best.entries()]
        assert coefficients == sorted(coefficients)

    def test_rejects_when_full_and_worse(self):
        best = BestProjectionSet(1)
        assert best.offer(proj(0, 0, -2.0))
        assert not best.offer(proj(1, 0, -1.0))
        assert best.best().coefficient == -2.0

    def test_duplicates_kept_once(self):
        best = BestProjectionSet(5)
        assert best.offer(proj(0, 0, -2.0))
        assert not best.offer(proj(0, 0, -2.0))
        assert len(best) == 1

    def test_contains(self):
        best = BestProjectionSet(5)
        best.offer(proj(0, 1, -2.0))
        assert Subspace((0,), (1,)) in best
        assert Subspace((0,), (2,)) not in best

    def test_displacement_updates_seen(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -2.0))
        # The displaced cube can re-enter later if it beats the current.
        assert Subspace((0,), (0,)) not in best
        assert len(best) == 1


class TestNonEmptyFilter:
    def test_empty_cubes_skipped_by_default(self):
        best = BestProjectionSet(5)
        assert not best.offer(proj(0, 0, -9.0, count=0))
        assert len(best) == 0

    def test_empty_cubes_kept_when_allowed(self):
        best = BestProjectionSet(5, require_nonempty=False)
        assert best.offer(proj(0, 0, -9.0, count=0))


class TestThreshold:
    def test_threshold_filters(self):
        best = BestProjectionSet(10, threshold=-3.0)
        assert best.offer(proj(0, 0, -3.5))
        assert not best.offer(proj(1, 0, -2.9))
        assert len(best) == 1

    def test_unbounded_with_threshold(self):
        best = BestProjectionSet(None, threshold=-1.0)
        for i in range(50):
            best.offer(proj(i, 0, -2.0))
        assert len(best) == 50

    def test_unbounded_without_threshold_rejected(self):
        with pytest.raises(ValidationError):
            BestProjectionSet(None)


class TestWouldAccept:
    def test_true_when_not_full(self):
        best = BestProjectionSet(2)
        assert best.would_accept(+5.0)

    def test_respects_threshold(self):
        best = BestProjectionSet(2, threshold=-3.0)
        assert not best.would_accept(-2.0)
        assert best.would_accept(-3.0)

    def test_compares_to_worst_kept(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -2.0))
        assert not best.would_accept(-1.5)
        assert best.would_accept(-2.5)


class TestStats:
    def test_mean_coefficient(self):
        best = BestProjectionSet(5)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -3.0))
        assert best.mean_coefficient() == pytest.approx(-2.0)

    def test_mean_of_empty_is_nan(self):
        assert BestProjectionSet(5).mean_coefficient() != BestProjectionSet(
            5
        ).mean_coefficient()

    def test_worst_kept_of_empty_is_inf(self):
        assert BestProjectionSet(3).worst_kept_coefficient() == float("inf")

    def test_offer_counters(self):
        best = BestProjectionSet(1)
        best.offer(proj(0, 0, -1.0))
        best.offer(proj(1, 0, -0.5))
        assert best.n_offers == 2
        assert best.n_accepted == 1


@settings(max_examples=50)
@given(
    coefficients=st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=0, max_size=60
    ),
    m=st.integers(1, 10),
)
def test_property_equals_true_top_m(coefficients, m):
    """The kept set is exactly the m most-negative offered coefficients."""
    best = BestProjectionSet(m, require_nonempty=False)
    for i, c in enumerate(coefficients):
        best.offer(ScoredProjection(Subspace((i,), (0,)), 1, c))
    kept = [p.coefficient for p in best.entries()]
    assert kept == sorted(coefficients)[: min(m, len(coefficients))]


@settings(max_examples=200)
@given(
    prefix=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3), st.sampled_from([-2.0, -1.0, 0.0, 1.5])),
        max_size=8,
    ),
    blocks=st.lists(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 3),
                st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 1.5]),
            ),
            max_size=12,
        ),
        max_size=4,
    ),
    m=st.one_of(st.none(), st.integers(1, 5)),
    threshold=st.one_of(st.none(), st.sampled_from([-2.0, -1.0, 0.0])),
    require_nonempty=st.booleans(),
)
def test_property_offer_block_equals_sequential_offers(
    prefix, blocks, m, threshold, require_nonempty
):
    """A block offer leaves the set exactly as offering each cube in turn.

    Cubes are ``(dim, count, coefficient)``: few dims make duplicates,
    few coefficients make ties, and count 0 makes empty cubes.
    """
    if m is None and threshold is None:
        threshold = -1.0

    def make():
        return BestProjectionSet(m, require_nonempty=require_nonempty, threshold=threshold)

    sequential, blocked = make(), make()
    for dim, count, coefficient in prefix:
        sequential.offer(proj(dim, 0, coefficient, count))
        blocked.offer(proj(dim, 0, coefficient, count))
    for block in blocks:
        kept = sum(
            sequential.offer(proj(dim, 0, coefficient, count))
            for dim, count, coefficient in block
        )
        accepted = blocked.offer_block(
            [count for _, count, _ in block],
            [coefficient for _, _, coefficient in block],
            lambda i, block=block: Subspace((block[i][0],), (0,)),
        )
        assert accepted == kept
        assert blocked.to_state() == sequential.to_state()
    assert (blocked.n_offers, blocked.n_accepted) == (
        sequential.n_offers, sequential.n_accepted,
    )
