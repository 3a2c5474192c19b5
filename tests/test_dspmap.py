"""Tests for DSPMap and the recursive partitioner."""

import numpy as np
import pytest

from repro.core.dspm import DSPM
from repro.core.dspmap import DSPMap
from repro.core.partition import partition_database
from repro.datasets import chemical_database
from repro.features import FeatureSpace
from repro.mining import mine_frequent_subgraphs
from repro.similarity import DissimilarityCache, pairwise_dissimilarity_matrix
from repro.utils.errors import SelectionError


@pytest.fixture(scope="module")
def setup(small_chemical_db):
    feats = mine_frequent_subgraphs(small_chemical_db, min_support=0.2,
                                    max_edges=3)
    space = FeatureSpace(feats, len(small_chemical_db))
    delta = pairwise_dissimilarity_matrix(small_chemical_db,
                                          DissimilarityCache())
    return space, small_chemical_db, delta


class TestPartitioner:
    def test_blocks_cover_all_indices(self, setup):
        space, _db, _delta = setup
        blocks = partition_database(space.incidence, partition_size=8, seed=0)
        merged = np.concatenate(blocks)
        assert sorted(merged.tolist()) == list(range(space.n))

    def test_block_size_cap(self, setup):
        space, _db, _delta = setup
        for block in partition_database(space.incidence, partition_size=8, seed=0):
            assert 1 <= len(block) <= 8

    def test_no_split_when_small(self, setup):
        space, _db, _delta = setup
        blocks = partition_database(space.incidence, partition_size=space.n, seed=0)
        assert len(blocks) == 1

    def test_balanced_blocks_near_b(self, setup):
        space, _db, _delta = setup
        blocks = partition_database(space.incidence, partition_size=10,
                                    seed=0, balance=True)
        # Balanced splits give floor(np/2)*b to one side, so all blocks
        # except possibly the last are exactly b.
        sizes = sorted(len(b) for b in blocks)
        assert sizes[-1] == 10

    def test_invalid_partition_size(self, setup):
        space, _db, _delta = setup
        with pytest.raises(ValueError):
            partition_database(space.incidence, partition_size=0)

    def test_deterministic_under_seed(self, setup):
        space, _db, _delta = setup
        a = partition_database(space.incidence, partition_size=8, seed=5)
        b = partition_database(space.incidence, partition_size=8, seed=5)
        assert all((x == y).all() for x, y in zip(a, b))


class TestDSPMap:
    def test_validation(self):
        with pytest.raises(SelectionError):
            DSPMap(0)
        with pytest.raises(SelectionError):
            DSPMap(3, partition_size=1)

    def test_selects_p_features(self, setup):
        space, db, delta = setup
        res = DSPMap(6, partition_size=10, seed=0).fit(
            space, db, delta_fn=lambda i, j: float(delta[i, j])
        )
        assert len(res.selected) == 6

    def test_fewer_delta_evaluations_than_full(self, setup):
        space, db, delta = setup
        solver = DSPMap(6, partition_size=10, seed=0)
        solver.fit(space, db, delta_fn=lambda i, j: float(delta[i, j]))
        full = space.n * (space.n - 1) // 2
        assert 0 < solver.delta_evaluations_ < full

    def test_works_with_dissimilarity_cache(self, setup):
        space, db, _delta = setup
        cache = DissimilarityCache()
        res = DSPMap(4, partition_size=12, seed=1).fit(space, db, cache)
        assert len(res.selected) == 4
        assert cache.misses > 0

    def test_overlap_with_dspm(self, setup):
        """DSPMap approximates DSPM: selections overlap substantially."""
        space, db, delta = setup
        p = 8
        exact = DSPM(p, max_iterations=80).fit(space, delta)
        approx = DSPMap(p, partition_size=15, seed=0,
                        max_iterations=80).fit(
            space, db, delta_fn=lambda i, j: float(delta[i, j])
        )
        overlap = len(set(exact.selected) & set(approx.selected))
        assert overlap >= p // 3, (
            f"only {overlap}/{p} selected features shared with DSPM"
        )

    def test_graph_count_mismatch_rejected(self, setup):
        space, db, delta = setup
        with pytest.raises(SelectionError):
            DSPMap(3, partition_size=5).fit(
                space, db[:-1], delta_fn=lambda i, j: 0.0
            )

    def test_weights_cover_all_features(self, setup):
        space, db, delta = setup
        res = DSPMap(4, partition_size=10, seed=0).fit(
            space, db, delta_fn=lambda i, j: float(delta[i, j])
        )
        assert res.weights.shape == (space.m,)

    def test_unbalanced_mode_runs(self, setup):
        space, db, delta = setup
        res = DSPMap(4, partition_size=10, seed=0, balance=False).fit(
            space, db, delta_fn=lambda i, j: float(delta[i, j])
        )
        assert len(res.selected) == 4


#: DSPMap's selection on ``chemical_database(24, seed=2014)``, gSpan at
#: τ = 5 % up to 3 edges, ``DSPMap(24, partition_size=4, seed=2014)``,
#: as the commit before the array-built MCS product returned it.
PARENT_SELECTION = [
    126, 123, 160, 246, 122, 130, 89, 269, 144, 145, 194, 193,
    230, 23, 262, 34, 119, 161, 247, 9, 278, 20, 3, 220,
]


def test_selection_matches_parent():
    db = chemical_database(24, seed=2014)
    feats = mine_frequent_subgraphs(db, min_support=0.05, max_edges=3)
    space = FeatureSpace(feats, len(db))
    result = DSPMap(24, partition_size=4, seed=2014).fit(
        space, db, dissimilarity=DissimilarityCache()
    )
    assert [int(f) for f in result.selected] == PARENT_SELECTION
