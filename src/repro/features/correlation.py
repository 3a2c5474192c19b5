"""Feature-correlation scores (Fig. 2 of the paper).

The correlation between two subgraph features is the Jaccard coefficient of
their support sets (following the discriminative-pattern literature [35]):

    corr(f_r, f_s) = |sup(f_r) ∩ sup(f_s)| / |sup(f_r) ∪ sup(f_s)|

Fig. 2 plots the *sum* of pairwise correlations over a selected feature
set; a good DS-preserved mapping uses weakly correlated (near-independent)
features, so lower totals are better.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.binary_matrix import FeatureSpace


def jaccard_correlation(space: FeatureSpace, r: int, s: int) -> float:
    """Jaccard coefficient of the support sets of features *r* and *s*:
    two popcounts over their rows of the support matrix."""
    row_r, row_s = space.supports[r], space.supports[s]
    union = int(np.bitwise_count(row_r | row_s).sum())
    if union == 0:
        return 0.0
    return float(int(np.bitwise_count(row_r & row_s).sum()) / union)


def total_correlation_score(space: FeatureSpace, selected: Sequence[int]) -> float:
    """Sum of pairwise Jaccard correlations among *selected* features.

    Vectorised: intersections come from one Gram matrix, unions from
    inclusion–exclusion.
    """
    cols = space.rows(features=selected).astype(np.float64)
    supports = cols.sum(axis=0)
    intersections = cols.T @ cols
    unions = supports[:, None] + supports[None, :] - intersections
    with np.errstate(divide="ignore", invalid="ignore"):
        jaccard = np.where(unions > 0, intersections / unions, 0.0)
    p = len(selected)
    upper = np.triu_indices(p, k=1)
    return float(jaccard[upper].sum())
