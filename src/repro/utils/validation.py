"""Validation predicates shared by the query and serving layers."""

from __future__ import annotations

import numbers

__all__ = ["is_count"]


def is_count(value) -> bool:
    """An integer >= 1, a numpy one too, and not a ``bool``.

    ``bool`` is an int subclass; it is refused so ``True`` is not read
    as 1.  A float is refused too: a NaN passes a plain ``< 1`` test
    and then switches off whatever bound it was meant to set.
    """
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 1
    )
