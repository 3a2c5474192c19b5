"""Tests for the exact and mapped top-k engines."""

import numpy as np
import pytest

from repro import kernels
from repro.core.mapping import build_mapping
from repro.query.topk import (
    BlockTopK,
    ExactTopKEngine,
    MappedTopKEngine,
    rank_block,
    rank_counts,
    rank_with_ties,
    score_table,
)
from repro.similarity import DissimilarityCache
from repro.utils.errors import QueryError


@pytest.fixture(scope="module")
def mapping(small_chemical_db):
    return build_mapping(
        small_chemical_db, num_features=8, min_support=0.2, max_pattern_edges=3
    )


class TestRankWithTies:
    def test_basic_order(self):
        ranking, scores = rank_with_ties(np.array([0.3, 0.1, 0.2]), 2)
        assert ranking == [1, 2]
        assert scores == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_tie_broken_by_index(self):
        ranking, _scores = rank_with_ties(np.array([0.5, 0.1, 0.1]), 2)
        assert ranking == [1, 2]

    def test_k_larger_than_n(self):
        ranking, _ = rank_with_ties(np.array([0.2, 0.1]), 5)
        assert len(ranking) == 2

    def test_k_equals_n(self):
        """k == n skips the partition narrowing entirely."""
        values = np.array([0.4, 0.1, 0.3, 0.2])
        ranking, scores = rank_with_ties(values, 4)
        assert ranking == [1, 3, 2, 0]
        assert scores == sorted(float(v) for v in values)

    def test_k_zero_returns_empty(self):
        ranking, scores = rank_with_ties(np.array([0.3, 0.1]), 0)
        assert ranking == [] and scores == []

    def test_negative_k_returns_empty(self):
        ranking, scores = rank_with_ties(np.array([0.3, 0.1]), -3)
        assert ranking == [] and scores == []

    def test_empty_values(self):
        for k in (0, 1, 5):
            ranking, scores = rank_with_ties(np.array([]), k)
            assert ranking == [] and scores == []

    def test_all_equal_distances_rank_by_index(self):
        """Every value ties: the ranking must be 0..k-1 exactly (the
        (value, index) discipline the sharded merge relies on)."""
        values = np.zeros(12)
        for k in (1, 5, 12, 20):
            ranking, scores = rank_with_ties(values, k)
            expect = min(k, 12)
            assert ranking == list(range(expect))
            assert scores == [0.0] * expect

    def test_all_equal_matches_full_sort_path(self):
        """The partition fast path and the full sort must agree bit for
        bit on an all-ties input."""
        values = np.full(9, 0.25)
        fast = rank_with_ties(values, 4)           # k < n: partition path
        full = rank_with_ties(values, 9)           # k == n: full sort
        assert fast[0] == full[0][:4]
        assert fast[1] == full[1][:4]

    def test_nan_threshold_drops_no_candidates(self):
        """A NaN at the partition boundary must not drop candidates."""
        values = np.array([0.2, np.nan, 0.1, np.nan])
        ranking, scores = rank_with_ties(values, 2)
        assert ranking == [2, 0]
        assert scores == [pytest.approx(0.1), pytest.approx(0.2)]


class TestRankBlock:
    def test_rows_ranked_independently_with_index_ties(self):
        block = np.array([[0.5, 0.1, 0.1, 0.1], [0.2, 0.2, 0.0, 0.9]])
        cols, vals = rank_block(block, 2)
        assert cols.tolist() == [[1, 2], [2, 0]]
        assert vals.tolist() == [[0.1, 0.1], [0.0, 0.2]]

    def test_k_capped_at_row_length(self):
        cols, vals = rank_block(np.array([[0.3, 0.1]]), 5)
        assert cols.tolist() == [[1, 0]] and vals.tolist() == [[0.1, 0.3]]

    def test_nan_cut_in_one_row_leaves_the_others_exact(self):
        block = np.array([[np.nan, 0.3, np.nan, np.nan], [0.4, 0.1, 0.1, 0.2]])
        cols, vals = rank_block(block, 2)
        assert cols.tolist() == [[1, 0], [1, 2]]
        assert vals[1].tolist() == [0.1, 0.1]


class TestScoreTable:
    @pytest.mark.parametrize("p", [0, 1, 63, 64, 65, 128, 200])
    def test_is_the_float_kernels_distance_of_every_count(self, p):
        """Row ``d`` of an identity-like block is ``d`` bits from the
        zero query: the table is the kernel's value to the bit."""
        rows = np.tril(np.ones((p + 1, p)), -1)  # row d has d ones
        kernel = kernels.distance_block(
            np.zeros((1, p)), rows, rows.sum(axis=1), p
        )[0]
        table = score_table(p)
        assert table.tolist() == kernel.tolist()
        assert (np.diff(table) > 0).all()  # (count, row) is (score, row)


class TestRankCounts:
    def test_count_then_global_row(self):
        counts = np.array([[3, 1, 1, 0], [2, 2, 2, 2]])
        ids = np.array([40, 7, 3, 90])
        keys = rank_counts(counts, ids, 3)
        assert (keys >> 32).tolist() == [[0, 1, 1], [2, 2, 2]]
        # Ties go to the smaller global row, wherever its column is.
        assert (keys & 0xFFFFFFFF).tolist() == [[90, 3, 7], [3, 7, 40]]

    def test_k_capped_at_row_length(self):
        keys = rank_counts(np.array([[5, 4]]), np.array([0, 1]), 5)
        assert keys.tolist() == [[(4 << 32) | 1, 5 << 32]]


class TestBlockTopK:
    def test_thresholds_stay_inf_until_k_candidates(self):
        p = 4
        best = BlockTopK(2, 3, p)
        best.absorb(np.array([0]), rank_counts([[1, 2]], np.array([7, 2]), 3))
        assert best.thresholds.tolist() == [np.inf, np.inf]
        best.absorb(
            np.array([0, 1]),
            rank_counts([[2, 3], [1, 1]], np.array([5, 9]), 3),
        )
        table = score_table(p).tolist()
        assert best.thresholds.tolist() == [table[2], np.inf]
        first, second = best.results()
        # Count 2 ties: id 2 beats id 5; the short row is not padded.
        assert first.ranking == [7, 2, 5]
        assert first.scores == [table[1], table[2], table[2]]
        assert (second.ranking, second.scores) == ([5, 9], [table[1]] * 2)


class TestExactEngine:
    def test_self_query_ranks_first(self, small_chemical_db):
        engine = ExactTopKEngine(small_chemical_db)
        result = engine.query(small_chemical_db[3], k=5)
        assert result.ranking[0] == 3
        assert result.scores[0] == pytest.approx(0.0)

    def test_scores_nondecreasing(self, small_chemical_db):
        engine = ExactTopKEngine(small_chemical_db)
        result = engine.query(small_chemical_db[0], k=10)
        assert result.scores == sorted(result.scores)

    def test_invalid_k(self, small_chemical_db):
        engine = ExactTopKEngine(small_chemical_db)
        with pytest.raises(QueryError):
            engine.query(small_chemical_db[0], k=0)

    def test_query_from_row(self):
        engine = ExactTopKEngine([])
        row = np.array([0.4, 0.1, 0.9, 0.2])
        result = engine.query_from_row(row, k=2)
        assert result.ranking == [1, 3]

    def test_cache_shared_across_queries(self, small_chemical_db):
        cache = DissimilarityCache()
        engine = ExactTopKEngine(small_chemical_db, cache)
        engine.query(small_chemical_db[0], k=3)
        misses = cache.misses
        engine.query(small_chemical_db[0], k=5)  # same pairs, cached
        assert cache.misses == misses


class TestMappedEngine:
    def test_self_query_distance_zero(self, mapping, small_chemical_db):
        engine = MappedTopKEngine(mapping)
        result = engine.query(small_chemical_db[2], k=3)
        assert 2 in result.ranking[:3]
        assert min(result.scores) == pytest.approx(0.0)

    def test_timing_breakdown_populated(self, mapping, small_chemical_db):
        engine = MappedTopKEngine(mapping)
        result = engine.query(small_chemical_db[0], k=3)
        assert result.mapping_seconds >= 0.0
        assert result.search_seconds >= 0.0
        assert result.total_seconds == pytest.approx(
            result.mapping_seconds + result.search_seconds
        )

    def test_query_from_vector_matches_query(self, mapping, small_chemical_db):
        engine = MappedTopKEngine(mapping)
        q = small_chemical_db[5]
        direct = engine.query(q, k=4)
        vector = mapping.map_query(q)
        from_vec = engine.query_from_vector(vector, k=4)
        assert direct.ranking == from_vec.ranking

    def test_k_capped(self, mapping, small_chemical_db):
        engine = MappedTopKEngine(mapping)
        result = engine.query(small_chemical_db[0], k=10_000)
        assert len(result.ranking) == len(small_chemical_db)
