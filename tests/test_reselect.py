"""The re-selection half of the staleness loop.

:class:`~repro.core.reselect.Reselector` must close the loop the
:class:`~repro.core.mapping.StalenessPolicy` opens: re-run DSPM over
the *mutated* feature space, repair the universe incidence of rows that
entered through the incremental add path, and install the winning
selection through ``apply_selection`` — while reusing every offline
product that is still valid (memoised dissimilarities, the old
lattice's containment closure, surviving pattern profiles).
"""

import numpy as np
import pytest

from repro.core.mapping import mapping_from_selection, variance_selection
from repro.core.reselect import Reselector
from repro.datasets import synthetic_database
from repro.features.binary_matrix import FeatureSpace
from repro.graph.labeled_graph import LabeledGraph
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.query.engine import FeatureLattice
from repro.query.pruning import topk_recall
from repro.serving.service import QueryService
from repro.utils.errors import SelectionError

# Small graphs only: pairwise MCS over default synthetic parameters is
# intractable at unit-test timescales.
DB_KW = dict(avg_edges=8.0, density=0.3, num_labels=4)


# ---------------------------------------------------------------------
# vector-style fixtures: an under-selected clustered index (the drift
# scenario at unit scale, no VF2/mining noise)
# ---------------------------------------------------------------------
DIMS = 4          # dimensions per block
CLUSTERS = 3      # active clusters
PER_CLUSTER = 8
ACTIVE = CLUSTERS * DIMS          # active columns [0, ACTIVE)
EMERGING = ACTIVE + DIMS          # emerging columns [ACTIVE, EMERGING)
M = EMERGING + DIMS               # pad columns [EMERGING, M)


def _graph_for(vector, graph_id):
    labels = [f"dim{j}" for j in np.flatnonzero(vector)]
    return LabeledGraph(labels, graph_id=graph_id)


def _space_for(vectors):
    n, m = vectors.shape
    features = [
        FrequentSubgraph(
            LabeledGraph([f"dim{j}"], graph_id=f"dim{j}"),
            {int(i) for i in np.flatnonzero(vectors[:, j])},
        )
        for j in range(m)
    ]
    return FeatureSpace(features, n)


def _drift_setup(seed=0):
    """(mapping, initial graphs, churn graphs, final vectors).

    The initial selection spends ``DIMS`` of its capacity on dead pad
    columns; the churn rows populate the emerging block and overlap
    cluster 0, so selected supports drift and a re-selection has real
    capacity to reclaim.
    """
    rng = np.random.default_rng(seed)
    n = CLUSTERS * PER_CLUSTER
    initial = np.zeros((n, M), dtype=np.int8)
    for c in range(CLUSTERS):
        rows = slice(c * PER_CLUSTER, (c + 1) * PER_CLUSTER)
        cols = slice(c * DIMS, (c + 1) * DIMS)
        initial[rows, cols] = (rng.random((PER_CLUSTER, DIMS)) < 0.9)
    initial[initial.sum(axis=1) == 0, 0] = 1
    churn = np.zeros((PER_CLUSTER, M), dtype=np.int8)
    churn[:, ACTIVE:EMERGING] = rng.random((PER_CLUSTER, DIMS)) < 0.9
    churn[:, 0:DIMS] |= (rng.random((PER_CLUSTER, DIMS)) < 0.5).astype(
        np.int8
    )
    churn[churn.sum(axis=1) == 0, ACTIVE] = 1

    stale_selection = list(range(ACTIVE)) + list(range(EMERGING, M))
    mapping = mapping_from_selection(_space_for(initial), stale_selection)
    initial_graphs = [_graph_for(v, f"db{i}") for i, v in enumerate(initial)]
    churn_graphs = [_graph_for(v, f"new{i}") for i, v in enumerate(churn)]
    return mapping, initial_graphs, churn_graphs, np.vstack([initial, churn])


class TestClosedLoop:
    def test_drift_flag_then_reselect_heals(self):
        mapping, graphs, churn, final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        mapping.query_engine()  # warm: the reuse paths need an old engine
        selected_before = list(mapping.selected)
        mapping.add_graphs(churn)
        assert mapping.stale, "churn this size must cross max_drift"
        # The write only flagged: nothing re-selected inside the add.
        assert reselector.reselections == 0
        assert mapping.selected == selected_before

        assert reselector(mapping) is True
        assert not mapping.stale
        assert reselector.reselections == 1
        assert reselector.selections_changed == 1
        # The emerging block is worth more than the pads it displaces.
        selected = set(mapping.selected)
        assert set(range(ACTIVE, EMERGING)) <= selected
        assert not (set(range(EMERGING, M)) & selected)

    def test_add_path_rows_get_universe_repair(self):
        mapping, graphs, churn, final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        mapping.add_graphs(churn)
        # The incremental add only embedded the *selected* columns; the
        # emerging block of the new rows is still unknown to the space.
        n_initial = len(graphs)
        assert not np.array_equal(
            mapping.space.incidence[n_initial:], final[n_initial:]
        )
        reselector(mapping)
        assert reselector.rows_repaired == len(churn)
        np.testing.assert_array_equal(mapping.space.incidence, final)
        # Feature support sets were patched alongside the matrix.
        for j in range(M):
            assert mapping.space.features[j].support == {
                int(i) for i in np.flatnonzero(final[:, j])
            }

    def test_healed_answers_match_scratch_index(self):
        mapping, graphs, churn, final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        mapping.query_engine()
        mapping.add_graphs(churn)
        reselector(mapping)

        queries = [_graph_for(v, f"q{i}") for i, v in enumerate(final[::5])]
        got = mapping.query_engine().batch_query(queries, 5)
        scratch = mapping_from_selection(
            _space_for(final), list(mapping.selected)
        )
        truth = scratch.query_engine().batch_query(queries, 5)
        for a, b in zip(got, truth):
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    def test_second_reselection_is_a_noop(self):
        mapping, graphs, churn, _final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        mapping.add_graphs(churn)
        assert reselector(mapping) is True
        engine = mapping.peek_engine() or mapping.query_engine()
        # Same rows, same delta: DSPM is deterministic, so the second
        # pass must decide "no change" before touching the mapping.
        assert reselector(mapping) is False
        assert reselector.selections_changed == 1
        assert mapping.peek_engine() is engine

    def test_removal_keeps_row_alignment(self):
        mapping, graphs, churn, final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        mapping.add_graphs(churn)
        mapping.remove_graphs([0, 5, len(graphs)])  # two old + one new row
        reselector(mapping)
        survivors = np.delete(final, [0, 5, len(graphs)], axis=0)
        np.testing.assert_array_equal(mapping.space.incidence, survivors)


class TestEmergingRecall:
    def test_heal_restores_recall_on_the_emerging_cluster(self):
        """What the heal buys, as recall on the traffic that caused it.

        4 established clusters x 24 rows, then 24 rows of an emerging
        cluster fed through four ``apply_update`` calls; 8 columns per
        block (48 in the universe, 40 selected), 2 % noise, 16 queries
        per stream, k = 5, ``max_drift`` 0.08, seed 0.  Recall is
        against an index over the final database that spends the same
        40 dimensions on the emerging block instead of the pads.
        """
        rng = np.random.default_rng(0)
        clusters, per_cluster, block, k = 4, 24, 8, 5
        active = clusters * block
        emerging = active + block  # emerging block: [active, emerging)
        m = emerging + block  # dead pad block: [emerging, m)

        def noisy(count, width):
            rows = (rng.random((count, m)) < 0.02).astype(np.int8)
            rows[:, width:] = 0
            return rows

        def fill(rows, lo):
            rows[:, lo : lo + block] = rng.random((len(rows), block)) < 0.9

        initial = noisy(clusters * per_cluster, active)
        for c in range(clusters):
            fill(initial[c * per_cluster : (c + 1) * per_cluster], c * block)
        # The new rows resemble cluster 0 until their own block is
        # selected — that overlap is what moves the selected supports.
        churn = noisy(per_cluster, emerging)
        fill(churn, active)
        churn[:, :block] |= rng.random((per_cluster, block)) < 0.45
        established = noisy(16, active)
        for qi in range(16):
            fill(established[qi : qi + 1], (qi % clusters) * block)
        probes = noisy(16, emerging)
        fill(probes, active)

        def graphs(rows, prefix):
            return [_graph_for(v, f"{prefix}{i}") for i, v in enumerate(rows)]

        streams = {
            "emerging": graphs(probes, "eq"),
            "established": graphs(established, "q"),
        }
        oracle = mapping_from_selection(
            _space_for(np.vstack([initial, churn])), list(range(emerging))
        ).query_engine()
        truth = {
            name: oracle.batch_query(queries, k)
            for name, queries in streams.items()
        }

        def recall(service):
            return {
                name: np.mean([
                    topk_recall(a, b)
                    for a, b in zip(
                        truth[name], service.batch_query(queries, k)
                    )
                ])
                for name, queries in streams.items()
            }

        mapping = mapping_from_selection(
            _space_for(initial),
            list(range(active)) + list(range(emerging, m)),
        )
        reselector = Reselector(graphs=graphs(initial, "db")).attach(
            mapping, max_drift=0.08
        )
        new_rows = graphs(churn, "new")
        with QueryService(mapping, n_shards=4) as service:
            for chunk in np.array_split(np.arange(per_cluster), 4):
                service.apply_update(added=[new_rows[i] for i in chunk])
            assert mapping.stale
            stale = recall(service)
            assert service.apply_reselection(reselector) is True
            assert not mapping.stale
            healed = recall(service)

        selected = set(mapping.selected)
        assert set(range(active, emerging)) <= selected
        assert not (set(range(emerging, m)) & selected)
        assert reselector.rows_repaired == per_cluster
        # Recorded at this seed: emerging 0.812 -> 1.000, established
        # 0.988 -> 1.000.
        assert stale["emerging"] < healed["emerging"]
        assert healed["emerging"] >= 0.9
        assert min(stale["established"], healed["established"]) >= 0.9


class TestOfflineReuse:
    def test_surviving_pairs_skip_vf2(self):
        """Containment among features surviving from the old selection
        is answered from the old lattice's closure, not VF2, and the
        survivors keep their pattern profiles (the space's, by
        identity)."""
        mapping, graphs, churn, _final = _drift_setup()
        reselector = Reselector(graphs=graphs).attach(mapping, max_drift=0.1)
        old_engine = mapping.query_engine()
        old_profile = dict(zip(mapping.selected, old_engine._pattern_profiles))
        mapping.add_graphs(churn)
        assert reselector(mapping) is True

        new_engine = mapping.query_engine()
        assert new_engine is not old_engine
        scratch_checks = FeatureLattice.build(
            [f.graph for f in mapping.selected_features()]
        ).vf2_checks
        # The ACTIVE block survives the re-selection, so every pair of
        # survivors is answered from the old closure for free. Only
        # pairs touching the newly selected emerging dims pay VF2.
        survivors = len(set(mapping.selected) & set(range(ACTIVE)))
        saved = survivors * (survivors - 1) // 2
        assert survivors >= 2  # the scenario guarantees real overlap
        assert new_engine.lattice.vf2_checks == scratch_checks - saved
        kept = [
            (prof, old_profile[r])
            for r, prof in zip(mapping.selected, new_engine._pattern_profiles)
            if r in old_profile
        ]
        assert len(kept) >= survivors
        assert all(new is old for new, old in kept)

    def test_known_verdicts_bypass_vf2_entirely(self):
        db = synthetic_database(16, seed=6, **DB_KW)
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=4)
        patterns = [f.graph for f in features[:8]]
        fresh = FeatureLattice.build(patterns)
        assert fresh.vf2_checks > 0
        ancestors = [set(a) for a in fresh.ancestors]
        known = {
            (a, b): a in ancestors[b]
            for a in range(len(patterns))
            for b in range(len(patterns))
            if a != b
        }
        reused = FeatureLattice.build(patterns, known=known)
        assert reused.vf2_checks == 0
        assert reused.ancestors == fresh.ancestors
        assert reused.descendants == fresh.descendants

    def test_dissimilarity_cache_only_pays_for_new_rows(self):
        db = synthetic_database(12, seed=7, **DB_KW)
        extra = synthetic_database(2, seed=8, **DB_KW)
        features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=4)
        space = FeatureSpace(features, len(db))
        mapping = mapping_from_selection(
            space, variance_selection(space, min(6, space.m))
        )
        reselector = Reselector(
            num_features=min(6, space.m), graphs=db, delta="graphs"
        ).attach(mapping)
        reselector(mapping)
        pairs = len(db) * (len(db) - 1) // 2
        assert reselector.cache.misses == pairs

        mapping.add_graphs(extra)
        reselector(mapping)
        n2 = len(db) + len(extra)
        new_pairs = n2 * (n2 - 1) // 2 - pairs
        # Every surviving pair is a hit; only pairs touching the two
        # new rows pay MCS again.
        assert reselector.cache.hits == pairs
        assert reselector.cache.misses == pairs + new_pairs


class TestValidation:
    def test_unknown_delta_rejected(self):
        with pytest.raises(SelectionError, match="delta"):
            Reselector(delta="vibes")

    def test_graphs_mode_requires_graphs(self):
        with pytest.raises(SelectionError, match="graphs"):
            Reselector(delta="graphs")

    def test_attach_validates_graph_count(self):
        mapping, graphs, _churn, _final = _drift_setup()
        with pytest.raises(SelectionError, match="does not match"):
            Reselector(graphs=graphs[:-1]).attach(mapping)

    def test_graphs_delta_refuses_unknown_rows(self):
        """With no graphs for the mapping's rows, the graphs-mode
        delta cannot be computed — it must fail loudly, not silently
        re-rank over garbage."""
        mapping, _graphs, _churn, _final = _drift_setup()
        with pytest.raises(SelectionError):
            Reselector(delta="graphs", graphs=[]).attach(mapping)

    def test_apply_selection_noop_returns_false(self):
        mapping, _graphs, _churn, _final = _drift_setup()
        engine = mapping.query_engine()
        assert mapping.apply_selection(list(mapping.selected)) is False
        assert mapping.peek_engine() is engine  # nothing invalidated
