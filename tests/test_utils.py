"""Tests for the utility modules (rng, errors)."""

import numpy as np
import pytest

from repro.utils import GraphDimensionError, InvalidGraphError, ensure_rng
from repro.utils.errors import MiningError, QueryError, SelectionError
from repro.utils.rng import spawn


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_children_deterministic(self):
        kids_a = spawn(ensure_rng(7), 3)
        kids_b = spawn(ensure_rng(7), 3)
        for ka, kb in zip(kids_a, kids_b):
            assert ka.integers(0, 100) == kb.integers(0, 100)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [InvalidGraphError, MiningError, SelectionError, QueryError]
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, GraphDimensionError)
