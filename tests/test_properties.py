"""Property-based tests (hypothesis) for ranking and batch serving.

Three invariants that no amount of example-based testing pins down as
well as a property search:

* :func:`rank_with_ties` agrees with the full-lexsort reference on any
  input — including dense tie plateaus, where the partition fast path
  has to reproduce (value, index) tie-breaking exactly — and
  :func:`rank_block` agrees with it row for row (±inf, NaN rows,
  ``k >= n``, ``n = 0`` included);
* :class:`BlockTopK`, fed shard blocks in any visit order with any
  active subsets, equals :func:`merge_candidates` over the same parts,
  and its threshold vector is each query's k-th-best score so far
  (+inf below k candidates) after every absorb;
* top-k is always a *prefix* of top-(k+1) (deterministic tie-breaking
  makes the stronger prefix property hold, not just set inclusion);
* batched serving is database-permutation invariant — renumbering the
  database never changes any returned distance, and never changes *who*
  is returned except through the documented (distance, index) tie rule —
  and duplicate-vector tie groups are never split arbitrarily across the
  k boundary (a member may only be excluded in favour of a lower-index
  duplicate, never a higher one).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.query.topk import (
    BlockTopK,
    merge_candidates,
    rank_block,
    rank_with_ties,
)
from repro.serving.service import QueryService

# ----------------------------------------------------------------------
# rank_with_ties
# ----------------------------------------------------------------------
#: Floats drawn from a tiny alphabet produce dense tie plateaus; the
#: continuous draw covers the no-tie regime.  NaN is excluded: distances
#: are finite by construction (sqrt of a clamped non-negative).
_tie_heavy = st.lists(
    st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=48,
)


def _reference(values, k):
    """The O(n log n) ground truth: full lexsort, (value, index) ties."""
    values = np.asarray(values, dtype=float)
    order = np.lexsort((np.arange(len(values)), values))[:k]
    return [int(i) for i in order], [float(values[i]) for i in order]


class TestRankWithTies:
    @given(values=_tie_heavy, k=st.integers(1, 48))
    @settings(max_examples=120, deadline=None)
    def test_matches_full_sort_reference(self, values, k):
        k = min(k, len(values))
        ranking, scores = rank_with_ties(np.asarray(values, dtype=float), k)
        ref_ranking, ref_scores = _reference(values, k)
        assert ranking == ref_ranking
        assert scores == ref_scores

    @given(values=_tie_heavy, k=st.integers(1, 47))
    @settings(max_examples=120, deadline=None)
    def test_topk_is_prefix_of_topk_plus_one(self, values, k):
        if k + 1 > len(values):
            k = max(len(values) - 1, 1)
        if k + 1 > len(values):
            return  # single-element array: nothing to compare
        arr = np.asarray(values, dtype=float)
        smaller, _ = rank_with_ties(arr, k)
        larger, _ = rank_with_ties(arr, k + 1)
        assert larger[:k] == smaller

    @given(values=_tie_heavy, k=st.integers(1, 48))
    @settings(max_examples=120, deadline=None)
    def test_tied_values_resolve_to_lowest_indices(self, values, k):
        """If j made the cut, every tied i < j made it too — the only
        legitimate way a tie group may straddle the k boundary."""
        k = min(k, len(values))
        arr = np.asarray(values, dtype=float)
        ranking, _scores = rank_with_ties(arr, k)
        chosen = set(ranking)
        for j in ranking:
            for i in range(j):
                if arr[i] == arr[j]:
                    assert i in chosen, (
                        f"index {j} ranked but tied lower index {i} was not"
                    )


# ----------------------------------------------------------------------
# rank_block
# ----------------------------------------------------------------------
@st.composite
def _blocks(draw):
    """A ``[nq, n]`` block: binary-vector distances (few distinct
    values, long plateaus), all-equal rows, ±inf and NaN entries, whole
    NaN rows; ``nq = 1`` and ``n = 0`` included."""
    nq = draw(st.integers(1, 6))
    n = draw(st.integers(0, 24))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((n, p)) < 0.5
    queries = rng.random((nq, p)) < 0.5
    block = np.sqrt(
        (queries[:, None, :] != rows[None, :, :]).sum(axis=2) / p
    )
    special = st.sampled_from([np.inf, -np.inf, np.nan, 0.5])
    for qi in range(nq):
        kind = draw(st.sampled_from(["plain", "equal", "sprinkled", "nan"]))
        if kind == "equal":
            block[qi] = draw(special)
        elif kind == "nan":
            block[qi] = np.nan
        elif kind == "sprinkled":
            hits = rng.random(n) < 0.3
            block[qi, hits] = [draw(special) for _ in range(int(hits.sum()))]
    return block


class TestRankBlock:
    @given(block=_blocks(), k=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_full_sort_reference(self, block, k):
        cols, vals = rank_block(block, k)
        nq, n = block.shape
        assert cols.shape == vals.shape == (nq, min(k, n))
        for qi in range(nq):
            order = np.lexsort((np.arange(n), block[qi]))[:k]
            assert cols[qi].tolist() == order.tolist()
            # NaN != NaN, so compare the bits the caller will see.
            assert repr(vals[qi].tolist()) == repr(block[qi, order].tolist())
        one_row = [rank_with_ties(row, k) for row in block]
        assert repr(one_row) == repr(
            list(zip(cols.tolist(), vals.tolist()))
        )


# ----------------------------------------------------------------------
# BlockTopK
# ----------------------------------------------------------------------
@st.composite
def _visits(draw):
    """Shard blocks of one batch in visit order: per shard the active
    queries and their ``(ids, scores)`` block, as ``_shard_topk`` would
    return it (ids disjoint across shards, interleaved — non-contiguous
    shards — scores from a tie-heavy alphabet with +inf)."""
    nq = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    ns = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = rng.integers(0, ns, size=40)
    alphabet = np.array([0.0, 0.25, 0.5, 0.5, 1.0, np.inf])
    visits = []
    for si in draw(st.permutations(range(ns))):
        indices = np.flatnonzero(owner == si)
        active = np.flatnonzero(rng.random(nq) < 0.7)
        if indices.size == 0 or active.size == 0:
            continue
        scores = rng.choice(alphabet, size=(active.size, indices.size))
        cols, vals = rank_block(scores, k)
        visits.append((active, indices[cols], vals))
    return nq, k, visits


class TestBlockTopK:
    @given(case=_visits())
    @settings(max_examples=200, deadline=None)
    def test_equals_merge_candidates_and_running_thresholds(self, case):
        nq, k, visits = case
        best = BlockTopK(nq, k)
        parts = [[] for _ in range(nq)]
        seen = [[] for _ in range(nq)]  # every score absorbed so far
        for active, ids, vals in visits:
            best.absorb(active, ids, vals)
            for pos, qi in enumerate(active):
                parts[qi].append((ids[pos], vals[pos]))
                seen[qi].extend(vals[pos].tolist())
            expected = [
                sorted(s)[k - 1] if len(s) >= k else np.inf for s in seen
            ]
            assert best.thresholds.tolist() == expected
        for qi, result in enumerate(best.results()):
            assert (result.ranking, result.scores) == merge_candidates(
                parts[qi], k
            )


# ----------------------------------------------------------------------
# batched serving under database permutation
# ----------------------------------------------------------------------
N_BASE = 16
N_DUPES = 3  # the last N_DUPES graphs duplicate the first N_DUPES


@pytest.fixture(scope="module")
def serving_materials():
    base = synthetic_database(
        N_BASE, avg_edges=14, density=0.3, num_labels=4, seed=11
    )
    db = base + base[:N_DUPES]  # guaranteed duplicate-vector tie groups
    queries = synthetic_query_set(
        8, avg_edges=14, density=0.3, num_labels=4, seed=77
    )
    features = mine_frequent_subgraphs(db, min_support=0.25, max_edges=4)
    space = FeatureSpace(features, len(db))
    selected = variance_selection(space, 10)
    mapping = mapping_from_selection(space, selected)
    qvecs = mapping.query_engine().embed_many(queries)
    # The duplicates really are duplicates in feature space.
    vectors = mapping.database_vectors
    for d in range(N_DUPES):
        assert (vectors[d] == vectors[N_BASE + d]).all()
    return space, selected, mapping, qvecs


def _permuted_mapping(space, selected, perm):
    """The same index over a renumbered database: new slot j holds old
    graph perm[j], so supports map through the inverse permutation."""
    n = space.n
    inverse = {int(old): j for j, old in enumerate(perm)}
    features = [
        FrequentSubgraph(f.graph, {inverse[i] for i in f.support})
        for f in space.features
    ]
    return mapping_from_selection(
        FeatureSpace(features, n), list(selected)
    )


class TestBatchPermutationInvariance:
    @given(
        perm=st.permutations(list(range(N_BASE + N_DUPES))),
        k=st.integers(1, N_BASE + N_DUPES),
        n_shards=st.integers(1, 4),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_database_permutation_invariance(
        self, serving_materials, perm, k, n_shards
    ):
        space, selected, mapping, qvecs = serving_materials
        permuted = _permuted_mapping(space, selected, perm)
        assert (
            permuted.database_vectors == mapping.database_vectors[perm]
        ).all()
        with QueryService(
            permuted.query_engine(), n_shards=n_shards
        ) as service:
            results = service.batch_query_vectors(qvecs, k)
        for qi, result in enumerate(results):
            row = mapping.query_distances(qvecs[qi][None, :])[0]
            ref_ranking, ref_scores = rank_with_ties(row[perm], k)
            # Renumbering never changes a distance...
            assert result.scores == ref_scores
            # ...and who is returned follows the (distance, index) tie
            # rule in the *new* numbering, nothing else.
            assert result.ranking == ref_ranking

    @given(k=st.integers(1, N_BASE + N_DUPES - 1), n_shards=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_topk_prefix_through_the_sharded_path(
        self, serving_materials, k, n_shards
    ):
        _space, _selected, mapping, qvecs = serving_materials
        with QueryService(
            mapping.query_engine(), n_shards=n_shards
        ) as service:
            smaller = service.batch_query_vectors(qvecs, k)
            larger = service.batch_query_vectors(qvecs, k + 1)
        for a, b in zip(smaller, larger):
            assert b.ranking[:k] == a.ranking
            assert b.scores[:k] == a.scores

    @given(
        k=st.integers(1, N_BASE + N_DUPES),
        n_shards=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_duplicate_tie_groups_never_split_arbitrarily(
        self, serving_materials, k, n_shards
    ):
        """Duplicate database vectors are tied at every distance; the k
        boundary may only cut such a group by ascending index."""
        _space, _selected, mapping, qvecs = serving_materials
        vectors = mapping.database_vectors
        duplicate_pairs = [
            (d, N_BASE + d) for d in range(N_DUPES)
        ]
        with QueryService(
            mapping.query_engine(), n_shards=n_shards
        ) as service:
            results = service.batch_query_vectors(qvecs, k)
        for result in results:
            chosen = set(result.ranking)
            for low, high in duplicate_pairs:
                if high in chosen:
                    assert low in chosen, (
                        f"duplicate {high} ranked but its lower-index twin "
                        f"{low} was cut at the k boundary"
                    )
