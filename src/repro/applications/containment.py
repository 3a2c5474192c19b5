"""Subgraph-containment search with feature-based filtering.

The paper's related work (gIndex [31], FG-Index [32]) uses mined
frequent subgraphs to *filter* candidates for subgraph-containment
queries before running expensive isomorphism verification.  The
DS-preserved mapping's feature set supports exactly that pipeline, and
this module implements it:

    answer(q) = { g ∈ DG : q ⊆ g }

1. **Filter** — every feature ``f ⊆ q`` must also be contained in any
   answer graph (containment is transitive), so candidates are the
   intersection of the inverted lists ``IF_f`` over the query's
   features.
2. **Verify** — run VF2 on the surviving candidates only.

The filter is sound (never discards an answer) and the statistics the
index keeps (candidates vs. answers) expose its pruning power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.isomorphism.vf2 import PatternProfile, TargetProfile, is_subgraph


@dataclass
class ContainmentAnswer:
    """Result of a containment query with filter statistics."""

    answers: List[int]
    candidates_after_filter: int
    features_used: int


class ContainmentIndex:
    """Filter+verify subgraph-containment search over a FeatureSpace.

    Parameters
    ----------
    space:
        The mined feature universe with its support matrix.
    database:
        The graphs behind the space (needed for verification).
    selected:
        Optionally restrict the filter to a feature subset (e.g. the
        DSPM-selected dimensions); default uses the whole universe.
    """

    def __init__(
        self,
        space: FeatureSpace,
        database: Sequence[LabeledGraph],
        selected: Optional[Sequence[int]] = None,
    ) -> None:
        if len(database) != space.n:
            raise ValueError("database size does not match feature space")
        self.space = space
        self.database = list(database)
        self.selected = list(selected) if selected is not None else list(range(space.m))

    def query(self, pattern: LabeledGraph) -> ContainmentAnswer:
        """All database graphs containing *pattern* (filter + VF2 verify)."""
        # Features contained in the pattern prune the candidate set.  One
        # TargetProfile serves every feature match against the pattern,
        # one PatternProfile every verification of the pattern.
        target_profile = TargetProfile(pattern)
        contained = [
            r
            for r in self.selected
            if is_subgraph(
                self.space.features[r].graph,
                pattern,
                target_profile,
                self.space.pattern_profile(r),
            )
        ]
        candidates = self.space.rows(features=contained).all(axis=1)

        pattern_profile = PatternProfile(pattern)
        answers = [
            int(i)
            for i in np.flatnonzero(candidates)
            if is_subgraph(
                pattern, self.database[i], pattern_profile=pattern_profile
            )
        ]
        return ContainmentAnswer(
            answers=answers,
            candidates_after_filter=int(candidates.sum()),
            features_used=len(contained),
        )

    def query_scan(self, pattern: LabeledGraph) -> List[int]:
        """Reference answer without filtering (full VF2 scan)."""
        pattern_profile = PatternProfile(pattern)
        return [
            i
            for i, g in enumerate(self.database)
            if is_subgraph(pattern, g, pattern_profile=pattern_profile)
        ]
