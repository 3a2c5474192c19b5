"""Round-trip, cold-start, mutation, and corruption tests for the index
artifact.

The artifact's contract: reloading restores *everything* the online path
needs, so ``load_index(path).query_engine()`` performs **zero** VF2
calls — neither the pattern-vs-pattern lattice build nor any per-feature
matching — even when a delta journal has to be replayed.  Corrupted
files (truncated payload, bad checksum, missing codec, wrong lattice
shape, tampered journal) must raise their dedicated error, never
mis-rank silently — whether the payload is read at load or memory-mapped
and read at first touch.
"""

import json

import numpy as np
import pytest

import repro.query.engine as engine_mod
from repro.core.mapping import build_mapping
from repro.datasets import chemical_query_set
from repro.index import (
    IndexArtifact,
    compact_index,
    journal_path,
    load_index,
    payload_path,
    save_index,
)
from repro.index.paged import PagedPayloadReader, write_paged_payload
from repro.query.engine import FeatureLattice
from repro.query.topk import MappedTopKEngine
from repro.utils.errors import (
    ArtifactCorruptError,
    ChecksumError,
    CodecMissingError,
    FormatVersionError,
    JournalError,
    LatticeShapeError,
    PayloadMissingError,
)


@pytest.fixture(scope="module")
def built_mapping(small_chemical_db):
    return build_mapping(
        small_chemical_db, num_features=8, min_support=0.2, max_pattern_edges=3
    )


@pytest.fixture()
def saved_path(built_mapping, tmp_path):
    path = tmp_path / "index.json"
    save_index(built_mapping, path)
    built_mapping.artifact_ref = None  # keep the module fixture pristine
    built_mapping.journal_seq = 0
    return path


class _Counter:
    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


def _rewrite_arrays(path, mutate):
    """Mutate the paged payload and re-stamp the manifest's page table."""
    manifest = json.loads(path.read_text())
    reader = PagedPayloadReader(payload_path(path), manifest["payload"])
    arrays = {name: a.copy() for name, a in reader.load_all().items()}
    mutate(arrays)
    manifest["payload"] = write_paged_payload(payload_path(path), arrays)
    path.write_text(json.dumps(manifest))


def _load_and_touch(path, mmap):
    """Load, then read the support matrix: an ``mmap=True`` load verifies
    its pages at first touch, so that is part of "does this artifact
    load"."""
    mapping = load_index(path, mmap=mmap)
    np.asarray(mapping.space.supports)
    return mapping


def _both_loads_raise(path, exc):
    """The eager and the memory-mapped load reject *path* alike."""
    with pytest.raises(exc):
        load_index(path)
    with pytest.raises(exc):
        _load_and_touch(path, mmap=True)


class TestColdStart:
    def test_reload_builds_engine_with_zero_vf2_calls(
        self, saved_path, monkeypatch
    ):
        """The acceptance criterion, counter-enforced."""
        is_subgraph = _Counter(engine_mod.is_subgraph)
        lattice_build = _Counter(FeatureLattice.build.__func__)
        monkeypatch.setattr(engine_mod, "is_subgraph", is_subgraph)
        monkeypatch.setattr(
            FeatureLattice, "build", classmethod(lattice_build)
        )
        mapping = load_index(saved_path)
        engine = mapping.query_engine()
        assert engine is not None
        assert is_subgraph.calls == 0
        assert lattice_build.calls == 0

    def test_reload_with_journal_still_zero_vf2(
        self, saved_path, small_chemical_queries, monkeypatch
    ):
        """Journal replay is pure array work — no VF2, no lattice build."""
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:2])
        mapping.remove_graphs([0])
        save_index(mapping, saved_path)
        assert journal_path(saved_path).exists()

        is_subgraph = _Counter(engine_mod.is_subgraph)
        lattice_build = _Counter(FeatureLattice.build.__func__)
        monkeypatch.setattr(engine_mod, "is_subgraph", is_subgraph)
        monkeypatch.setattr(
            FeatureLattice, "build", classmethod(lattice_build)
        )
        reloaded = load_index(saved_path)
        assert reloaded.query_engine() is not None
        assert reloaded.space.n == mapping.space.n
        assert is_subgraph.calls == 0
        assert lattice_build.calls == 0

    def test_reloaded_engine_is_preattached_and_memoised(self, saved_path):
        mapping = load_index(saved_path)
        assert mapping._engine is not None
        assert mapping.query_engine() is mapping._engine

    def test_invalidate_caches_forces_fresh_engine(
        self, saved_path, small_chemical_queries
    ):
        mapping = load_index(saved_path)
        warm = mapping.query_engine()
        before = [warm.query(q, 5).ranking for q in small_chemical_queries]
        mapping.invalidate_caches()
        rebuilt = mapping.query_engine()
        assert rebuilt is not warm
        after = [rebuilt.query(q, 5).ranking for q in small_chemical_queries]
        assert before == after

    def test_lattice_and_norms_round_trip(self, built_mapping, saved_path):
        original = built_mapping.query_engine()
        restored = load_index(saved_path).query_engine()
        assert restored.lattice.order == original.lattice.order
        assert restored.lattice.ancestors == original.lattice.ancestors
        assert restored.lattice.descendants == original.lattice.descendants
        assert np.array_equal(
            restored.mapping.database_sq_norms,
            built_mapping.database_sq_norms,
        )

    def test_profiles_round_trip(self, built_mapping, saved_path):
        """Profiles are derived from the feature graphs on load, not
        stored, and come back equal to the ones the build made."""
        original = built_mapping.query_engine()._pattern_profiles
        restored = load_index(saved_path).query_engine()._pattern_profiles
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a.vertex_label_counts == b.vertex_label_counts
            assert a.triple_counts == b.triple_counts
            assert a.degrees_desc == b.degrees_desc
            assert a.search_order == b.search_order


class TestQueryEquivalence:
    def test_engine_answers_identical_after_reload(
        self, built_mapping, saved_path, small_chemical_queries
    ):
        restored = load_index(saved_path)
        before = built_mapping.query_engine()
        after = restored.query_engine()
        for q in small_chemical_queries:
            a, b = before.query(q, 5), after.query(q, 5)
            assert a.ranking == b.ranking
            assert a.scores == b.scores

    def test_reloaded_engine_does_identical_work(
        self, built_mapping, saved_path, small_chemical_db
    ):
        """Pattern profiles and match plans are derived, never
        persisted: the reloaded engine builds its own from the feature
        graphs and must return the same vectors for the same VF2 /
        pruning / filter counts."""
        engines = (
            built_mapping.query_engine(),
            load_index(saved_path).query_engine(),
        )
        pool = list(small_chemical_db) + chemical_query_set(30, seed=21)
        outcomes = []
        for engine in engines:
            s = engine.stats
            before = (s.vf2_calls, s.features_pruned, s.filter_rejected)
            vectors = engine.embed_many(pool)
            after = (s.vf2_calls, s.features_pruned, s.filter_rejected)
            outcomes.append(
                (vectors, tuple(b - a for a, b in zip(before, after)))
            )
        (built_vectors, built_work), (loaded_vectors, loaded_work) = outcomes
        assert np.array_equal(built_vectors, loaded_vectors)
        assert built_work == loaded_work
        assert built_work[0] > 0

    def test_naive_path_also_identical(
        self, built_mapping, saved_path, small_chemical_queries
    ):
        restored = load_index(saved_path)
        before = MappedTopKEngine(built_mapping)
        after = MappedTopKEngine(restored)
        for q in small_chemical_queries:
            assert before.query(q, 5).ranking == after.query(q, 5).ranking

    def test_mmap_load_answers_identical_to_eager(
        self, built_mapping, tmp_path, small_chemical_queries
    ):
        """``mmap=True`` defers payload reads and their per-page
        checksums to first touch: when the bytes are paid for changes,
        no answer does."""
        path = tmp_path / "paged.json"
        save_index(built_mapping, path)
        eager, lazy = load_index(path), load_index(path, mmap=True)
        assert (eager.load_mode, lazy.load_mode) == ("eager", "mmap")
        with eager.query_service(n_shards=2) as a, \
                lazy.query_service(n_shards=2) as b:
            expected = a.batch_query(small_chemical_queries, 5)
            answers = b.batch_query(small_chemical_queries, 5)
        for x, y in zip(expected, answers):
            assert x.ranking == y.ranking
            assert x.scores == y.scores


class TestDeltaJournal:
    def test_save_after_mutations_appends_deltas(
        self, saved_path, small_chemical_queries
    ):
        mapping = load_index(saved_path)
        payload_bytes = payload_path(saved_path).read_bytes()
        mapping.add_graphs(small_chemical_queries[:2])
        save_index(mapping, saved_path)
        # The binary base was not rewritten — only the journal grew.
        assert payload_path(saved_path).read_bytes() == payload_bytes
        assert len(journal_path(saved_path).read_text().splitlines()) == 1
        mapping.remove_graphs([1, 4])
        save_index(mapping, saved_path)
        assert payload_path(saved_path).read_bytes() == payload_bytes
        assert len(journal_path(saved_path).read_text().splitlines()) == 2
        assert mapping.journal_seq == 2
        assert mapping.mutation_log == []

    def test_journal_replay_round_trips(
        self, saved_path, small_chemical_queries
    ):
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:3])
        mapping.remove_graphs([0, 2])
        save_index(mapping, saved_path)
        reloaded = load_index(saved_path)
        assert reloaded.space.n == mapping.space.n
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    def test_save_to_foreign_path_writes_full_base(
        self, saved_path, tmp_path, small_chemical_queries
    ):
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:1])
        other = tmp_path / "other.json"
        save_index(mapping, other)
        assert not journal_path(other).exists()
        assert load_index(other).space.n == mapping.space.n

    def test_diverged_journal_falls_back_to_full_write(
        self, saved_path, small_chemical_queries
    ):
        # Two mappings descend from the same base; the second save finds
        # a journal longer than it remembers and must rewrite the base.
        first = load_index(saved_path)
        second = load_index(saved_path)
        first.add_graphs(small_chemical_queries[:1])
        save_index(first, saved_path)
        second.add_graphs(small_chemical_queries[1:3])
        save_index(second, saved_path)
        assert not journal_path(saved_path).exists()  # fresh base
        assert load_index(saved_path).space.n == second.space.n

    def test_staleness_baseline_survives_compaction(
        self, saved_path, small_chemical_queries
    ):
        """Drift is measured against selection-time supports; compacting
        the journal must not silently reset it (or the stale flag)."""
        mapping = load_index(saved_path)
        n = mapping.space.n
        mapping.remove_graphs(range(n // 2, n))  # huge drift, stale flags
        assert mapping.stale
        drift = mapping.support_drift
        save_index(mapping, saved_path)
        compact_index(saved_path)
        reloaded = load_index(saved_path)
        assert reloaded.support_drift == pytest.approx(drift)
        assert reloaded.stale

    def test_corrupt_journal_repaired_by_next_save(
        self, saved_path, small_chemical_queries
    ):
        """A damaged journal blocks loads (by design) but must not block
        a save from a live mapping — the full-base rewrite repairs it."""
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:1])
        save_index(mapping, saved_path)
        with journal_path(saved_path).open("a") as handle:
            handle.write("garbage line\n")
        with pytest.raises(JournalError):
            load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[1:2])
        save_index(mapping, saved_path)  # repairs: fresh full base
        assert not journal_path(saved_path).exists()
        reloaded = load_index(saved_path)
        assert reloaded.space.n == mapping.space.n

    def test_reselection_severs_artifact_lineage(
        self, saved_path, small_chemical_queries
    ):
        """A re-selection invalidates the on-disk base: the next save
        must write a full base, never append deltas whose replay would
        land on the old selection."""
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:1])
        assert mapping.artifact_ref is not None and mapping.mutation_log
        assert mapping.apply_selection(range(mapping.space.m - 1))
        assert mapping.mutation_log == [] and mapping.journal_seq == 0
        assert mapping.artifact_ref is None  # lineage severed
        save_index(mapping, saved_path)
        assert not journal_path(saved_path).exists()  # full base, no deltas
        reloaded = load_index(saved_path)
        assert reloaded.dimensionality == mapping.dimensionality
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    def test_compact_folds_journal(self, saved_path, small_chemical_queries):
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:2])
        mapping.remove_graphs([3])
        save_index(mapping, saved_path)
        assert journal_path(saved_path).exists()
        compacted = compact_index(saved_path)
        assert not journal_path(saved_path).exists()
        reloaded = load_index(saved_path)
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        for other in (compacted, reloaded):
            b = other.query_engine().batch_query(small_chemical_queries, 5)
            for x, y in zip(a, b):
                assert x.ranking == y.ranking and x.scores == y.scores


class TestBackwardCompat:
    """Nothing but this build's own format loads; the rest is told what
    to do.  The manifests are literals: no writer is kept for them."""

    def _rejected(self, path, manifest, found):
        path.write_text(json.dumps(manifest))
        for mmap in (False, True):
            with pytest.raises(FormatVersionError, match="index-build") as e:
                load_index(path, mmap=mmap)
            assert found in str(e.value)

    def test_v1_manifest_rejected_with_remedy(self, tmp_path):
        self._rejected(
            tmp_path / "legacy.json",
            {
                "format_version": 1,
                "database_size": 1,
                "dimensionality": 1,
                "feature_graphs": "t # 0\nv 0 C\n",
                "feature_supports": [[0]],
                "database_vectors": [[1]],
            },
            "format version 1",
        )

    def test_v2_manifest_rejected_with_remedy(self, saved_path):
        manifest = json.loads(saved_path.read_text())
        del manifest["payload"], manifest["artifact_id"]
        manifest["format_version"] = 2
        manifest["database_vectors"] = [[0] * manifest["dimensionality"]]
        manifest["database_sq_norms"] = [0]
        self._rejected(saved_path, manifest, "format version 2")

    def test_v3_npz_manifest_rejected_with_remedy(self, saved_path):
        """Format 3 as the npz layout wrote it: no ``layout`` field, a
        whole-file checksum, the sidecar under another suffix."""
        manifest = json.loads(saved_path.read_text())
        arrays = manifest["payload"]["arrays"]
        manifest["payload"] = {
            "file": saved_path.name + ".npz",
            "sha256": "0" * 64,
            "bytes": 1234,
            "arrays": {
                name: {"shape": spec["shape"], "dtype": "uint8"}
                for name, spec in arrays.items()
            },
        }
        self._rejected(saved_path, manifest, "payload layout None")

    def test_v3_paged_manifest_rejected_with_remedy(self, saved_path):
        """Format 3 as its last build wrote it: φ as JSON support lists
        and, in the paged payload, as float64 rows and squared norms."""
        manifest = json.loads(saved_path.read_text())
        n, p = manifest["database_size"], manifest["dimensionality"]
        manifest["format_version"] = 3
        del manifest["support_counts"]
        manifest["feature_supports"] = [[0]] * p
        rows = 8 * n * p
        manifest["payload"]["arrays"] = {
            "database_vectors": {
                "shape": [n, p], "dtype": "float64",
                "offset": 0, "nbytes": rows,
            },
            "database_sq_norms": {
                "shape": [n], "dtype": "float64",
                "offset": -(-rows // 64) * 64, "nbytes": 8 * n,
            },
        }
        self._rejected(saved_path, manifest, "format version 3")

    def test_unknown_version_rejected(self, saved_path):
        payload = json.loads(saved_path.read_text())
        payload["format_version"] = 99
        saved_path.write_text(json.dumps(payload))
        with pytest.raises(FormatVersionError):
            load_index(saved_path)
        with pytest.raises(ValueError):
            IndexArtifact.load(saved_path)

    def test_fresh_save_has_no_profiles_section(self, saved_path):
        """Profiles are derived on load, so a save writes none."""
        manifest = json.loads(saved_path.read_text())
        assert "pattern_profiles" not in manifest

    @pytest.mark.parametrize("legacy", ["reversed-orders", "junk"])
    def test_legacy_profiles_section_is_not_read(
        self,
        legacy,
        built_mapping,
        saved_path,
        small_chemical_queries,
        monkeypatch,
    ):
        """Older builds persisted a ``pattern_profiles`` section.  Such a
        manifest still loads with zero VF2 calls and answers exactly as
        the fresh index: the section is not read, whatever it holds —
        a stored search order (any order is sound) or garbage."""
        manifest = json.loads(saved_path.read_text())
        fresh = built_mapping.query_engine()
        if legacy == "reversed-orders":
            manifest["pattern_profiles"] = [
                {
                    "vertex_label_counts": [],
                    "edge_label_counts": [],
                    "degrees_desc": [],
                    "search_order": prof.search_order[::-1],
                }
                for prof in fresh._pattern_profiles
            ]
        else:
            manifest["pattern_profiles"] = [None, "not a profile"]
        saved_path.write_text(json.dumps(manifest))

        is_subgraph = _Counter(engine_mod.is_subgraph)
        lattice_build = _Counter(FeatureLattice.build.__func__)
        monkeypatch.setattr(engine_mod, "is_subgraph", is_subgraph)
        monkeypatch.setattr(
            FeatureLattice, "build", classmethod(lattice_build)
        )
        for mmap in (False, True):
            engine = load_index(saved_path, mmap=mmap).query_engine()
            assert (is_subgraph.calls, lattice_build.calls) == (0, 0)
            queries = small_chemical_queries
            assert np.array_equal(
                engine.embed_many(queries), fresh.embed_many(queries)
            )
            got = engine.batch_query(queries, 5)
            want = fresh.batch_query(queries, 5)
            assert [r.ranking for r in got] == [r.ranking for r in want]
            assert [r.scores for r in got] == [r.scores for r in want]

    def test_foreign_kind_rejected(self, saved_path):
        payload = json.loads(saved_path.read_text())
        payload["kind"] = "something-else-entirely"
        saved_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="artifact"):
            load_index(saved_path)


class TestCorruptArtifacts:
    """Every corruption mode raises its dedicated error, loudly."""

    @pytest.fixture()
    def manifest(self, saved_path):
        return json.loads(saved_path.read_text())

    def _expect(self, saved_path, manifest, exc):
        saved_path.write_text(json.dumps(manifest))
        with pytest.raises(exc):
            load_index(saved_path)

    def test_truncated_payload(self, saved_path):
        data = payload_path(saved_path).read_bytes()
        payload_path(saved_path).write_bytes(data[: len(data) // 2])
        _both_loads_raise(saved_path, ChecksumError)

    def test_bad_checksum_single_flipped_byte(self, saved_path):
        data = bytearray(payload_path(saved_path).read_bytes())
        data[-1] ^= 0xFF
        payload_path(saved_path).write_bytes(bytes(data))
        _both_loads_raise(saved_path, ChecksumError)

    def test_missing_payload_file(self, saved_path):
        payload_path(saved_path).unlink()
        _both_loads_raise(saved_path, PayloadMissingError)

    def test_missing_codec(self, saved_path, manifest):
        del manifest["label_codec"]
        self._expect(saved_path, manifest, CodecMissingError)

    def test_wrong_lattice_shape(self, saved_path, manifest):
        manifest["lattice"]["ancestors"] = manifest["lattice"]["ancestors"][
            :-1
        ]
        self._expect(saved_path, manifest, LatticeShapeError)

    def test_missing_lattice(self, saved_path, manifest):
        del manifest["lattice"]
        self._expect(saved_path, manifest, ArtifactCorruptError)

    def test_lattice_ancestor_out_of_range(self, saved_path, manifest):
        manifest["lattice"]["ancestors"][0] = [999]
        self._expect(saved_path, manifest, ArtifactCorruptError)

    def test_lattice_order_not_a_permutation(self, saved_path, manifest):
        manifest["lattice"]["order"][0] = manifest["lattice"]["order"][-1]
        self._expect(saved_path, manifest, ArtifactCorruptError)

    def test_truncated_support_counts(self, saved_path, manifest):
        manifest["support_counts"] = manifest["support_counts"][:-1]
        self._expect(saved_path, manifest, ArtifactCorruptError)

    def test_truncated_support_rows(self, saved_path):
        _rewrite_arrays(
            saved_path, lambda a: a.update(supports=a["supports"][:-1])
        )
        _both_loads_raise(saved_path, ArtifactCorruptError)

    def test_support_words_short_of_the_database(self, saved_path):
        _rewrite_arrays(
            saved_path, lambda a: a.update(supports=a["supports"][:, :-1])
        )
        _both_loads_raise(saved_path, ArtifactCorruptError)

    def test_tampered_support_counts_cross_check(self, saved_path, manifest):
        # The pages are intact, so only the counts-vs-matrix check can
        # catch the inconsistency: at load, or at the first bit an mmap
        # load reads.
        manifest["support_counts"][0] += 1
        saved_path.write_text(json.dumps(manifest))
        _both_loads_raise(saved_path, ArtifactCorruptError)
        lazy = load_index(saved_path, mmap=True)  # nothing read yet
        with pytest.raises(ArtifactCorruptError):
            lazy.query_service()

    def test_payload_array_missing(self, saved_path):
        _rewrite_arrays(saved_path, lambda a: a.pop("supports"))
        manifest = json.loads(saved_path.read_text())
        assert manifest["payload"]["arrays"] == {}
        _both_loads_raise(saved_path, ArtifactCorruptError)

    def test_array_shape_disagrees_with_manifest(self, saved_path):
        manifest = json.loads(saved_path.read_text())
        manifest["payload"]["arrays"]["supports"]["shape"][0] += 1
        saved_path.write_text(json.dumps(manifest))
        _both_loads_raise(saved_path, ArtifactCorruptError)

    def test_payload_holds_the_support_matrix_once(
        self, built_mapping, saved_path, manifest
    ):
        """Format 4: φ is on disk once, as the selected features' packed
        support rows; no float rows, no JSON supports."""
        arrays = manifest["payload"]["arrays"]
        assert list(arrays) == ["supports"]
        assert arrays["supports"]["dtype"] == "uint64"
        n, p = built_mapping.space.n, built_mapping.dimensionality
        assert arrays["supports"]["shape"] == [p, -(-n // 64)]
        assert "feature_supports" not in manifest
        assert manifest["support_counts"] == [
            len(f.support) for f in built_mapping.selected_features()
        ]


class TestCorruptJournal:
    @pytest.fixture()
    def journaled(self, saved_path, small_chemical_queries):
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:2])
        mapping.remove_graphs([1])
        save_index(mapping, saved_path)
        return saved_path

    def test_tampered_entry_fails_checksum(self, journaled):
        lines = journal_path(journaled).read_text().splitlines()
        entry = json.loads(lines[0])
        entry["vectors"][0][0] ^= 1
        lines[0] = json.dumps(entry)
        journal_path(journaled).write_text("\n".join(lines) + "\n")
        with pytest.raises(ChecksumError):
            load_index(journaled)

    def test_out_of_sequence_entry(self, journaled):
        lines = journal_path(journaled).read_text().splitlines()
        journal_path(journaled).write_text(lines[1] + "\n")
        with pytest.raises(JournalError):
            load_index(journaled)

    def test_garbage_line(self, journaled):
        with journal_path(journaled).open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(JournalError):
            load_index(journaled)


class TestTornAppend:
    """An entry's trailing newline is its commit point: an append cut
    short before it is no entry at all, not a corrupt journal."""

    @pytest.fixture()
    def two_deltas(self, saved_path, small_chemical_queries):
        mapping = load_index(saved_path)
        mapping.add_graphs(small_chemical_queries[:1])
        save_index(mapping, saved_path)
        previous = load_index(saved_path)  # the generation a torn
        mapping.add_graphs(small_chemical_queries[1:2])  # second append
        save_index(mapping, saved_path)  # must fall back to
        return saved_path, previous

    @pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
    @pytest.mark.parametrize(
        "cut", ["first-byte", "middle", "all-but-newline"]
    )
    def test_torn_last_line_loads_the_previous_generation(
        self, two_deltas, small_chemical_queries, mmap, cut
    ):
        path, previous = two_deltas
        journal = journal_path(path)
        text = journal.read_text()
        start = text.rstrip("\n").rfind("\n") + 1  # the last line
        length = len(text) - 1 - start
        offset = {"first-byte": 1, "middle": length // 2,
                  "all-but-newline": length}[cut]
        journal.write_text(text[: start + offset])
        torn = load_index(path, mmap=mmap)
        assert torn.space.n == previous.space.n
        queries = small_chemical_queries
        expected = previous.query_engine().batch_query(queries, 5)
        for x, y in zip(expected, torn.query_engine().batch_query(queries, 5)):
            assert x.ranking == y.ranking and x.scores == y.scores
        # The next append overwrites the torn tail and continues the
        # sequence.
        torn.add_graphs(queries[2:3])
        save_index(torn, path)
        assert journal.read_text().count("\n") == 2
        assert load_index(path, mmap=mmap).space.n == previous.space.n + 1
