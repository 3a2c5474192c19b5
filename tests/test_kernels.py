"""Unit tests for the pluggable kernel registry and its building blocks.

The registry's contract is operational: selection is explicit > scoped
override > environment > numpy, and a missing/unknown backend *warns and
degrades* instead of raising — a stale ``REPRO_KERNEL`` must never take
serving down.  The vectorised VF2
candidate filter is checked feature-by-feature against the scalar
``_label_counts_ok`` it replaces.
"""

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
from repro.kernels import (
    DEFAULT_BACKEND,
    KERNEL_ENV_VAR,
    PatternFilterStats,
    active_backend,
    available_backends,
    register_backend,
    resolve_backend,
    use_backend,
)
from repro.mining import mine_frequent_subgraphs


class TestRegistry:
    def test_numpy_first_and_reference_present(self):
        names = available_backends()
        assert names[0] == DEFAULT_BACKEND
        assert "reference" in names

    def test_every_registered_backend_has_the_full_interface(self):
        for name in available_backends():
            backend = resolve_backend(name)
            for fn in (
                "distance_block",
                "bound_block",
                "bound_check",
                "vf2_candidate_filter",
            ):
                assert callable(getattr(backend, fn))

    def test_unknown_name_warns_and_falls_back_to_numpy(self):
        with pytest.warns(RuntimeWarning, match="unknown or unavailable"):
            backend = resolve_backend("no-such-backend")
        assert backend is resolve_backend(DEFAULT_BACKEND)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "reference")
        assert active_backend() is resolve_backend("reference")
        monkeypatch.delenv(KERNEL_ENV_VAR)
        assert active_backend() is resolve_backend(DEFAULT_BACKEND)

    def test_use_backend_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, DEFAULT_BACKEND)
        with use_backend("reference") as backend:
            assert backend is resolve_backend("reference")
            assert active_backend() is backend
        assert active_backend() is resolve_backend(DEFAULT_BACKEND)

    def test_use_backend_nests_innermost_wins(self):
        with use_backend("reference"):
            with use_backend(DEFAULT_BACKEND):
                assert active_backend() is resolve_backend(DEFAULT_BACKEND)
            assert active_backend() is resolve_backend("reference")

    def test_register_backend_validates_interface(self):
        class Partial:
            def distance_block(self, *a, **k):  # pragma: no cover
                pass

        with pytest.raises(TypeError, match="missing kernel"):
            register_backend("partial", Partial())
        assert "partial" not in available_backends()

    def test_explicit_name_beats_override(self):
        with use_backend(DEFAULT_BACKEND):
            assert kernels.resolve_backend("reference") is resolve_backend(
                "reference"
            )


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

    def test_mask_agrees_across_backends(self, graphs):
        patterns = [PatternProfile(g) for g in graphs[:10]]
        stats = PatternFilterStats(patterns)
        profile = TargetProfile(graphs[20])
        masks = [
            stats.candidate_mask(profile, resolve_backend(name))
            for name in available_backends()
        ]
        for mask in masks[1:]:
            assert np.array_equal(mask, masks[0])

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
