"""The mutable-index acceptance tests.

The contract of the write path: ``add_graphs`` / ``remove_graphs``
followed by queries is **bit-identical** (rankings *and* scores, ties
included) to rebuilding the mapping from scratch on the mutated
database — while call counters on mining, DSPM, and the lattice build
prove that **no full rebuild occurred**, and the only VF2 spent is the
lattice-pruned embedding of the added graphs.
"""

import numpy as np
import pytest

import repro.core.mapping as mapping_mod
import repro.query.engine as engine_mod
from repro.core.dspm import DSPM
from repro.core.mapping import (
    StalenessPolicy,
    mapping_from_selection,
    variance_selection,
)
from repro.datasets import synthetic_database, synthetic_query_set
from repro.features.binary_matrix import FeatureSpace
from repro.isomorphism.vf2 import is_subgraph
from repro.mining import mine_frequent_subgraphs
from repro.mining.gspan import FrequentSubgraph
from repro.query.engine import FeatureLattice
from repro.utils.errors import SelectionError


@pytest.fixture(scope="module")
def materials():
    """Raw, never-mutated inputs: graphs, queries, mined features."""
    db = synthetic_database(40, avg_edges=16, density=0.3, num_labels=5, seed=3)
    extra = synthetic_query_set(
        8, avg_edges=16, density=0.3, num_labels=5, seed=41
    )
    queries = synthetic_query_set(
        25, avg_edges=16, density=0.3, num_labels=5, seed=99
    )
    features = mine_frequent_subgraphs(db, min_support=0.2, max_edges=5)
    return db, extra, queries, features


def _fresh_mapping(materials, p):
    """A mapping over *copies* of the mined features (mutations are
    in-place, so every test starts from pristine supports)."""
    db, _extra, _queries, features = materials
    copies = [FrequentSubgraph(f.graph, set(f.support)) for f in features]
    space = FeatureSpace(copies, len(db))
    return mapping_from_selection(space, variance_selection(space, p))


def _scratch_rebuild(mapping, mutated_db):
    """The from-scratch reference: same selected patterns, supports
    recomputed on the mutated database by brute-force VF2."""
    features = [
        FrequentSubgraph(
            f.graph,
            {i for i, g in enumerate(mutated_db) if is_subgraph(f.graph, g)},
        )
        for f in mapping.selected_features()
    ]
    space = FeatureSpace(features, len(mutated_db))
    return mapping_from_selection(space, list(range(len(features))))


def _assert_identical(reference, batch):
    assert len(reference) == len(batch)
    for a, b in zip(reference, batch):
        assert a.ranking == b.ranking
        assert a.scores == b.scores


class _Counter:
    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


@pytest.fixture()
def rebuild_counters(monkeypatch):
    """Counters on every entry point a full rebuild would have to hit."""
    mine = _Counter(mapping_mod.mine_frequent_subgraphs)
    dspm_fit = _Counter(DSPM.fit)
    lattice_build = _Counter(FeatureLattice.build.__func__)
    monkeypatch.setattr(mapping_mod, "mine_frequent_subgraphs", mine)
    monkeypatch.setattr(DSPM, "fit", dspm_fit)
    monkeypatch.setattr(FeatureLattice, "build", classmethod(lattice_build))
    return mine, dspm_fit, lattice_build


class TestBitIdentityVsScratchRebuild:
    """The acceptance criterion, counter-enforced."""

    def test_add_then_remove_identical_no_rebuild(
        self, materials, rebuild_counters, monkeypatch
    ):
        db, extra, queries, _features = materials
        mapping = _fresh_mapping(materials, 15)
        mapping.query_engine()  # warm-up pays the lattice once, up front
        mine, dspm_fit, lattice_build = rebuild_counters
        mine.calls = dspm_fit.calls = lattice_build.calls = 0
        vf2 = _Counter(engine_mod.is_subgraph)
        monkeypatch.setattr(engine_mod, "is_subgraph", vf2)

        mapping.add_graphs(extra)
        assert vf2.calls <= mapping.dimensionality * len(extra)
        vf2_after_add = vf2.calls
        removed = [0, 5, 17, 33, 41]
        mapping.remove_graphs(removed)
        assert vf2.calls == vf2_after_add  # removal is VF2-free
        assert mine.calls == 0
        assert dspm_fit.calls == 0
        assert lattice_build.calls == 0

        mutated_db = [
            g
            for i, g in enumerate(list(db) + list(extra))
            if i not in set(removed)
        ]
        scratch = _scratch_rebuild(mapping, mutated_db)
        _assert_identical(
            scratch.query_engine().batch_query(queries, 7),
            mapping.query_engine().batch_query(queries, 7),
        )

    def test_add_only_identical(self, materials):
        db, extra, queries, _features = materials
        mapping = _fresh_mapping(materials, 15)
        mapping.add_graphs(extra)
        scratch = _scratch_rebuild(mapping, list(db) + list(extra))
        _assert_identical(
            scratch.query_engine().batch_query(queries, 5),
            mapping.query_engine().batch_query(queries, 5),
        )

    def test_remove_only_identical(self, materials):
        db, _extra, queries, _features = materials
        mapping = _fresh_mapping(materials, 15)
        removed = {1, 2, 30}
        mapping.remove_graphs(removed)
        scratch = _scratch_rebuild(
            mapping, [g for i, g in enumerate(db) if i not in removed]
        )
        _assert_identical(
            scratch.query_engine().batch_query(queries, 6),
            mapping.query_engine().batch_query(queries, 6),
        )

    def test_tie_heavy_mutation_identical(self, materials):
        """Three dimensions: almost every distance is tied — any drift
        in scores or tie order after mutation would surface here."""
        db, extra, queries, _features = materials
        mapping = _fresh_mapping(materials, 3)
        mapping.add_graphs(extra[:4])
        mapping.remove_graphs([2, 9])
        mutated_db = [
            g
            for i, g in enumerate(list(db) + list(extra[:4]))
            if i not in (2, 9)
        ]
        scratch = _scratch_rebuild(mapping, mutated_db)
        reference = scratch.query_engine().batch_query(queries, 9)
        distances = scratch.query_distances(reference.query_vectors)
        assert any((row == sorted(row)[8]).sum() > 1 for row in distances)
        _assert_identical(
            reference, mapping.query_engine().batch_query(queries, 9)
        )

    def test_interleaved_mutations_and_queries(self, materials):
        db, extra, queries, _features = materials
        mapping = _fresh_mapping(materials, 12)
        mapping.query_engine().batch_query(queries, 5)  # serve, then mutate
        mapping.add_graphs(extra[:3])
        mapping.query_engine().batch_query(queries, 5)
        mapping.remove_graphs([0])
        mapping.add_graphs(extra[3:6])
        mutated_db = [g for i, g in enumerate(db) if i != 0]
        mutated_db += list(extra[:6])
        # note: extra[:3] were appended before row 0 was removed, so the
        # final order is db-without-0, then extra[:3], then extra[3:6] —
        # which is exactly kept + all additions.
        scratch = _scratch_rebuild(mapping, mutated_db)
        _assert_identical(
            scratch.query_engine().batch_query(queries, 8),
            mapping.query_engine().batch_query(queries, 8),
        )


class TestStateConsistency:
    def test_float_views_track_updates_and_are_never_kept(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        for mutate in (
            lambda: mapping.add_graphs(extra[:3]),
            lambda: mapping.remove_graphs([4, 7]),
        ):
            mutate()
            vectors = mapping.database_vectors
            assert vectors.shape == (mapping.space.n, 10)
            assert np.array_equal(vectors, mapping.database_bits())
            assert mapping.database_vectors is not vectors
            assert "database_vectors" not in vars(mapping)

    def test_supports_and_incidence_stay_consistent(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        mapping.add_graphs(extra)
        mapping.remove_graphs([0, 11, 29])
        space = mapping.space
        assert space.incidence.shape[0] == space.n
        assert np.array_equal(
            space.support_counts, space.incidence.sum(axis=0)
        )
        for r in mapping.selected:
            assert space.features[r].support == set(
                int(i) for i in np.flatnonzero(space.incidence[:, r])
            )
        # The selected columns of the incidence are the vectors.
        assert np.array_equal(
            space.embed_database(mapping.selected), mapping.database_vectors
        )

    def test_engine_survives_updates(self, materials):
        """The engine's lattice, profiles and filter depend on the
        selection alone and it reads the rows live, so an update keeps
        the engine itself (and with it all three)."""
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        engine = mapping.query_engine()
        mapping.add_graphs(extra[:2])
        mapping.remove_graphs([0, 3])
        assert mapping.query_engine() is engine

    def test_added_rows_returned_and_logged(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        rows = mapping.add_graphs(extra[:2])
        assert rows.shape == (2, 10)
        assert [m["op"] for m in mapping.mutation_log] == ["add"]
        assert mapping.mutation_log[0]["vectors"] == rows.astype(int).tolist()

    def test_empty_mutations_are_noops(self, materials):
        mapping = _fresh_mapping(materials, 10)
        before = mapping.database_vectors.copy()
        rows = mapping.add_graphs([])
        mapping.remove_graphs([])
        assert rows.shape == (0, 10)
        assert mapping.mutation_log == []
        assert np.array_equal(mapping.database_vectors, before)

    def test_remove_validation(self, materials):
        mapping = _fresh_mapping(materials, 10)
        n = mapping.space.n
        with pytest.raises(SelectionError):
            mapping.remove_graphs([n])
        with pytest.raises(SelectionError):
            mapping.remove_graphs([-1])
        with pytest.raises(SelectionError):
            mapping.remove_graphs(range(n))
        # Failed validation must leave the mapping untouched.
        assert mapping.space.n == n
        assert mapping.mutation_log == []


class TestStalenessPolicy:
    def test_drift_matches_manual_formula(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        base = np.array(
            [len(mapping.space.features[r].support) for r in mapping.selected]
        )
        rows = mapping.add_graphs(extra[:4])
        expected = rows.sum() / base.sum()
        assert mapping.support_drift == pytest.approx(expected)

    def test_flag_policy_sets_stale(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        mapping.staleness_policy = StalenessPolicy(max_drift=0.0)
        assert not mapping.stale
        mapping.add_graphs(extra[:1])
        assert mapping.stale
        mapping.reset_staleness()
        assert not mapping.stale
        assert mapping.support_drift == 0.0

    def test_below_threshold_no_trigger(self, materials):
        _db, extra, _queries, _features = materials
        mapping = _fresh_mapping(materials, 10)
        mapping.staleness_policy = StalenessPolicy(max_drift=10.0)
        mapping.add_graphs(extra)
        assert mapping.support_drift > 0.0
        assert not mapping.stale

    def test_invalid_policy_rejected(self):
        with pytest.raises(SelectionError):
            StalenessPolicy(max_drift=-1.0)
        # The threshold is the whole policy: a crossing mutation flags,
        # there is no other way for it to behave.
        with pytest.raises(TypeError):
            StalenessPolicy(on_stale="error")
