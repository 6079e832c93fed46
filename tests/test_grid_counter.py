"""Tests for CubeCounter (the n(D) engine)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.subspace import Subspace
from repro.exceptions import ValidationError
from repro.grid.cells import CellAssignment, MISSING_CELL
from repro.grid.counter import CubeCounter

from conftest import naive_cube_count


def counter_from(codes, phi):
    return CubeCounter(CellAssignment(np.asarray(codes, dtype=np.int16), phi))


class TestCounting:
    def test_empty_subspace_counts_all(self, small_counter):
        assert small_counter.count(Subspace.empty()) == small_counter.n_points

    def test_one_dim_count_equals_range_count(self, small_counter):
        expected = small_counter.cells.range_counts(2)
        for rng_ in range(small_counter.n_ranges):
            assert small_counter.count(Subspace((2,), (rng_,))) == expected[rng_]

    def test_matches_naive_on_random_cubes(self, small_counter, rng):
        for _ in range(25):
            k = int(rng.integers(1, 4))
            dims = tuple(sorted(rng.choice(6, size=k, replace=False).tolist()))
            ranges = tuple(int(r) for r in rng.integers(0, 5, size=k))
            cube = Subspace(dims, ranges)
            assert small_counter.count(cube) == naive_cube_count(
                small_counter.cells.codes, cube
            )

    def test_counts_monotone_under_extension(self, small_counter):
        base = Subspace((0,), (1,))
        base_count = small_counter.count(base)
        for rng_ in range(small_counter.n_ranges):
            assert small_counter.count(base.extended(3, rng_)) <= base_count

    def test_missing_points_match_nothing(self):
        counter = counter_from([[MISSING_CELL], [0], [0]], phi=2)
        assert counter.count(Subspace((0,), (0,))) == 2
        assert counter.count(Subspace((0,), (1,))) == 0

    def test_mask_fresh_copy(self, small_counter):
        cube = Subspace((0,), (0,))
        mask = small_counter.mask(cube)
        mask[:] = False
        assert small_counter.count(cube) > 0


class TestExtensionCounts:
    def test_sums_to_observed(self, small_counter):
        base = small_counter.mask(Subspace((0,), (2,)))
        counts = small_counter.extension_counts(base, 1)
        # Points missing on dim 1 are absent from every bucket.
        observed = base & (small_counter.cells.codes[:, 1] >= 0)
        assert counts.sum() == observed.sum()

    def test_matches_individual_counts(self, small_counter):
        base_cube = Subspace((0,), (2,))
        counts = small_counter.extension_counts(small_counter.mask(base_cube), 4)
        for rng_ in range(small_counter.n_ranges):
            assert counts[rng_] == small_counter.count(base_cube.extended(4, rng_))

    def test_invalid_dim(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.extension_counts(
                np.ones(small_counter.n_points, dtype=bool), 99
            )


class TestCoveredPoints:
    def test_indices_sorted_and_consistent(self, small_counter):
        cube = Subspace((1, 3), (0, 4))
        points = small_counter.covered_points(cube)
        assert (np.diff(points) > 0).all() or len(points) <= 1
        assert len(points) == small_counter.count(cube)

    def test_fraction(self, small_counter):
        cube = Subspace((0,), (0,))
        assert small_counter.fraction(cube) == pytest.approx(
            small_counter.count(cube) / small_counter.n_points
        )


class TestCache:
    def test_cache_hit_counted(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        cube = Subspace((0, 1), (0, 0))
        first = counter.count(cube)
        second = counter.count(cube)
        assert first == second
        assert counter.n_cache_hits == 1

    def test_cache_disabled(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=0)
        cube = Subspace((0,), (0,))
        counter.count(cube)
        counter.count(cube)
        assert counter.n_cache_hits == 0
        assert counter.cache_stats()["cache_entries"] == 0

    def test_cache_eviction_bounded(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=3)
        for rng_ in range(5):
            counter.count(Subspace((0,), (rng_,)))
        assert counter.cache_stats()["cache_entries"] <= 3

    def test_clear_cache(self, small_counter):
        small_counter.count(Subspace((0,), (0,)))
        small_counter.clear_cache()
        assert small_counter.cache_stats()["cache_entries"] == 0

    def test_cache_size_zero_allocates_no_cache(self, small_cells):
        # Regression: cache_size=0 used to keep a dead OrderedDict on
        # the hot path; now caching is truly disabled.
        counter = CubeCounter(small_cells, cache_size=0)
        assert counter._cache is None
        counter.count(Subspace((0,), (0,)))
        counter.clear_cache()  # must not raise with no cache
        assert counter._cache is None

    def test_hit_miss_accounting(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        a, b = Subspace((0,), (0,)), Subspace((0,), (1,))
        counter.count(a)   # miss
        counter.count(a)   # hit
        counter.count(b)   # miss
        counter.count(a)   # hit
        stats = counter.cache_stats()
        assert stats["count_calls"] == 4
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 2
        assert stats["cache_entries"] == 2

    def test_lru_eviction_order(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=2)
        a, b, c = (Subspace((0,), (r,)) for r in range(3))
        counter.count(a)
        counter.count(b)
        counter.count(a)   # refresh a: b is now least recently used
        counter.count(c)   # evicts b
        hits = counter.n_cache_hits
        counter.count(a)   # still cached
        assert counter.n_cache_hits == hits + 1
        counter.count(b)   # evicted => recount, not a hit
        assert counter.n_cache_hits == hits + 1

    def test_batch_duplicates_count_as_hits(self, small_cells):
        counter = CubeCounter(small_cells, cache_size=10)
        cube = Subspace((0, 1), (0, 0))
        counts = counter.count_batch([cube, cube, cube])
        assert len(set(counts.tolist())) == 1
        stats = counter.cache_stats()
        # One real count; the in-batch duplicates resolve via dedup.
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 1
        # A later batch answers straight from the memo.
        counter.count_batch([cube])
        assert counter.cache_stats()["cache_hits"] == 3

    def test_batch_with_cache_disabled_matches(self, small_cells):
        cached = CubeCounter(small_cells, cache_size=10)
        uncached = CubeCounter(small_cells, cache_size=0)
        cubes = [Subspace((0, 1), (r, r)) for r in range(5)] * 2
        assert cached.count_batch(cubes).tolist() == (
            uncached.count_batch(cubes).tolist()
        )
        assert uncached.cache_stats()["cache_entries"] == 0


def memo_state(counter):
    """What count() leaves behind: call/hit counters and the LRU in order."""
    cache = counter._cache
    return (
        counter.n_count_calls,
        counter.n_cache_hits,
        None if cache is None else list(cache.items()),
    )


def extended_cube(base, extension):
    return Subspace.from_pairs([*zip(*base), *extension])


@pytest.fixture(params=["dense", "packed", "sharded"])
def make_counter(request, tmp_path):
    """Builds counters of one flavour; the sharded store has ragged shards."""
    from repro.grid.packed_counter import PackedCubeCounter
    from repro.grid.sharded import ShardedCounter, ShardedMaskStore

    built = []

    def make(cells, cache_size=200_000):
        if request.param == "dense":
            return CubeCounter(cells, cache_size=cache_size)
        if request.param == "packed":
            return PackedCubeCounter(cells, cache_size=cache_size)
        built.append(None)
        store = ShardedMaskStore.build(
            cells, tmp_path / f"store{len(built)}", shard_rows=37
        )
        return ShardedCounter(store, cache_size=cache_size)

    return make


class TestCountExtended:
    """count_extended == one count() per cube, counts and memo alike."""

    def steps(self):
        one_gene = [((4, r),) for r in range(5)] + [((2, 1),), ((4, 0),)]
        return [
            (((0, 3), (1, 2)), one_gene),
            (((0,), (1,)), [((1, 0), (3, 4)), ((1, 2), (3, 4)), ((1, 0), (3, 1))]),
            (((0, 3), (1, 2)), one_gene[::-1]),
        ]

    def run_both(self, make_counter, cells, cache_size, warm=()):
        counter = make_counter(cells, cache_size)
        reference = CubeCounter(cells, cache_size=cache_size)
        for cube in warm:
            counter.count(cube)
            reference.count(cube)
        for base, extensions in self.steps():
            got = counter.count_extended(base, extensions)
            want = [reference.count(extended_cube(base, e)) for e in extensions]
            assert got.dtype == np.int64
            assert got.tolist() == want
            assert memo_state(counter) == memo_state(reference)

    def test_matches_per_cube_count(self, make_counter, small_cells):
        warm = [Subspace((0, 3, 4), (1, 2, 2)), Subspace((0, 1, 3), (1, 0, 4))]
        self.run_both(make_counter, small_cells, 200_000, warm)

    def test_lru_evictions_inside_one_call(self, make_counter, small_cells):
        # A cache smaller than one step: misses evict keys that later
        # candidates of the same call look up again.
        warm = [Subspace((0, 3, 4), (1, 2, 2))]
        for size in (1, 2, 3):
            self.run_both(make_counter, small_cells, size, warm)

    def test_cache_size_zero(self, make_counter, small_cells):
        self.run_both(make_counter, small_cells, 0)
        counter = make_counter(small_cells, 0)
        counter.count_extended(((0,), (1,)), [((2, 0),)] * 3)
        assert counter._cache is None
        assert counter.n_cache_hits == 0
        assert counter.n_count_calls == 3

    def test_empty_base(self, make_counter, small_cells):
        counter = make_counter(small_cells)
        extensions = [((d, r),) for d in (5, 0, 2) for r in range(5)]
        got = counter.count_extended(((), ()), extensions)
        reference = CubeCounter(small_cells)
        want = [reference.count(extended_cube(((), ()), e)) for e in extensions]
        assert got.tolist() == want
        assert memo_state(counter) == memo_state(reference)
        # No genes at all: the empty cube holds every point.
        assert counter.count_extended(((), ()), [()]).tolist() == [200]

    def test_no_extensions(self, make_counter, small_cells):
        counter = make_counter(small_cells)
        assert counter.count_extended(((0,), (1,)), []).tolist() == []
        assert memo_state(counter) == (0, 0, [])

    @pytest.mark.parametrize(
        "base, extensions",
        [
            (((0,), (1,)), [((6, 0),)]),       # dimension past d
            (((0,), (1,)), [((-1, 0),)]),      # negative dimension
            (((0,), (1,)), [((2, 5),)]),       # range past φ
            (((0,), (1,)), [((2, -1),)]),      # negative range
            (((0,), (1,)), [((0, 2),)]),       # dimension already fixed
            (((0,), (1,)), [((2, 0), (2, 1))]),  # repeated within one extension
            (((0,), (9,)), [((2, 0),)]),       # base range past φ
            (((0, 1), (1,)), [((2, 0),)]),     # malformed base key
        ],
    )
    def test_bad_genes_raise_validation_error(
        self, make_counter, small_cells, base, extensions
    ):
        counter = make_counter(small_cells)
        with pytest.raises(ValidationError):
            counter.count_extended(base, [((3, 0),), *extensions])
        # Validation happens before the memo is touched.
        assert memo_state(counter) == (0, 0, [])

    def test_base_anded_only_when_a_candidate_misses(
        self, make_counter, small_cells, monkeypatch
    ):
        counter = make_counter(small_cells)
        calls = []
        original = counter._count_extensions

        def spy(base, extensions):
            calls.append(list(extensions))
            return original(base, extensions)

        monkeypatch.setattr(counter, "_count_extensions", spy)
        base = ((0,), (1,))
        counter.count_extended(base, [((2, 0),), ((2, 1),)])
        assert calls == [[((2, 0),), ((2, 1),)]]
        counter.count_extended(base, [((2, 1),), ((2, 0),)])  # all hits
        assert len(calls) == 1
        counter.count_extended(base, [((2, 1),), ((3, 3),), ((3, 3),)])
        assert calls[-1] == [((3, 3),)]  # only the distinct miss


class TestValidationErrors:
    def test_rejects_non_cells(self):
        with pytest.raises(ValidationError):
            CubeCounter(np.zeros((2, 2)))

    def test_rejects_foreign_subspace_dim(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count(Subspace((99,), (0,)))

    def test_rejects_out_of_range_range(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count(Subspace((0,), (99,)))

    def test_rejects_non_subspace(self, small_counter):
        with pytest.raises(ValidationError):
            small_counter.count("*1*")


@settings(max_examples=30, deadline=None)
@given(data=st.data(), phi=st.integers(2, 5))
def test_property_count_equals_naive(data, phi):
    """CubeCounter agrees with row-by-row scanning for arbitrary grids."""
    n_points = data.draw(st.integers(1, 40))
    n_dims = data.draw(st.integers(1, 4))
    codes = data.draw(
        st.lists(
            st.lists(st.integers(-1, phi - 1), min_size=n_dims, max_size=n_dims),
            min_size=n_points,
            max_size=n_points,
        )
    )
    counter = counter_from(codes, phi)
    k = data.draw(st.integers(1, n_dims))
    dims = tuple(sorted(data.draw(
        st.lists(st.integers(0, n_dims - 1), min_size=k, max_size=k, unique=True)
    )))
    ranges = tuple(data.draw(
        st.lists(st.integers(0, phi - 1), min_size=len(dims), max_size=len(dims))
    ))
    cube = Subspace(dims, ranges)
    assert counter.count(cube) == naive_cube_count(np.asarray(codes), cube)
