"""Unit tests for the kernels' building blocks.

The vectorised VF2 candidate filter is checked feature-by-feature
against the scalar ``_label_counts_ok`` it replaces, and against the
row-at-a-time oracle.
"""

import kernel_oracle
import numpy as np
import pytest

from repro import kernels
from repro.core.lazy import LazyArray
from repro.datasets import synthetic_database
from repro.isomorphism.vf2 import (
    PatternProfile,
    TargetProfile,
    _label_counts_ok,
)
from repro.kernels import PatternFilterStats
from repro.mining import mine_frequent_subgraphs


class TestPatternFilterStats:
    @pytest.fixture(scope="class")
    def graphs(self):
        return synthetic_database(
            30, avg_edges=10, density=0.4, num_labels=4, seed=11
        )

    def test_mask_matches_scalar_label_counts_ok(self, graphs):
        # Whole graphs rarely pass; mined patterns mostly pass the size,
        # label and degree columns, and many fail only on a triple.
        mined = mine_frequent_subgraphs(
            graphs[:12], min_support=0.25, max_edges=4
        )
        for pattern_graphs in (graphs[:12], [f.graph for f in mined]):
            patterns = [PatternProfile(g) for g in pattern_graphs]
            stats = PatternFilterStats(patterns)
            for target in graphs[12:]:
                profile = TargetProfile(target)
                mask = stats.candidate_mask(profile)
                expected = np.array(
                    [_label_counts_ok(p, profile) for p in patterns]
                )
                assert np.array_equal(mask, expected)

    def test_mask_agrees_with_the_oracle(self, graphs, monkeypatch):
        patterns = [PatternProfile(g) for g in graphs[:10]]
        stats = PatternFilterStats(patterns)
        profile = TargetProfile(graphs[20])
        mask = stats.candidate_mask(profile)
        monkeypatch.setattr(
            kernels,
            "vf2_candidate_filter",
            kernel_oracle.vf2_candidate_filter,
        )
        assert np.array_equal(stats.candidate_mask(profile), mask)

    def test_self_match_is_always_candidate(self, graphs):
        # A graph dominates its own invariants, so the filter may never
        # reject pattern == target (that would make VF2 miss matches).
        patterns = [PatternProfile(g) for g in graphs]
        stats = PatternFilterStats(patterns)
        for i, g in enumerate(graphs):
            assert stats.candidate_mask(TargetProfile(g))[i]


class TestLazyArray:
    def test_materialize_runs_producer_once(self):
        calls = []

        def produce():
            calls.append(1)
            return np.arange(6, dtype=float).reshape(2, 3)

        lazy = LazyArray((2, 3), np.float64, produce)
        a = lazy.materialize()
        b = lazy.materialize()
        assert a is b and len(calls) == 1
        assert lazy.shape == (2, 3) and lazy.dtype == np.float64

    def test_shape_mismatch_raises(self):
        lazy = LazyArray((4,), np.float64, lambda: np.zeros((5,)))
        with pytest.raises(ValueError, match="declared"):
            lazy.materialize()
