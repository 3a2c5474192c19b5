"""Shared utilities: deterministic RNG handling and validation."""

from repro.utils.errors import GraphDimensionError, InvalidGraphError, MiningError
from repro.utils.rng import ensure_rng

__all__ = [
    "GraphDimensionError",
    "InvalidGraphError",
    "MiningError",
    "ensure_rng",
]
