"""Fault injection for the index artifact, and journal auto-compaction.

Each fault test follows the same arc the ISSUE-4 satellite demands:
inject one precise fault into the on-disk artifact, assert the *exact*
:class:`~repro.utils.errors.ArtifactError` subclass fires on load (never
a silent mis-rank, never a generic exception), then prove a subsequent
full :func:`save_index` from the live mapping repairs the damage — the
journal is reset and a reload answers bit-identically to the live index.
Payload faults run under both loads: eager (every page verified before
``load_index`` returns) and ``mmap=True`` (verified at first touch).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.mapping import build_mapping
from repro.index import (
    DEFAULT_AUTO_COMPACT_RATIO,
    IndexArtifact,
    compact_index,
    journal_path,
    load_index,
    payload_path,
    save_index,
)
from repro.utils.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ChecksumError,
    JournalError,
    ManifestMissingError,
    PayloadMissingError,
)

BOTH_LOADS = pytest.mark.parametrize(
    "mmap", [False, True], ids=["eager", "mmap"]
)


@pytest.fixture(scope="module")
def built_mapping(small_chemical_db):
    return build_mapping(
        small_chemical_db, num_features=8, min_support=0.2, max_pattern_edges=3
    )


@pytest.fixture()
def mutated(built_mapping, tmp_path, small_chemical_queries):
    """A saved base plus a journal of two mutations, and the live mapping."""
    path = tmp_path / "index.json"
    save_index(built_mapping, path)
    mapping = load_index(path)
    built_mapping.artifact_ref = None  # keep the module fixture pristine
    built_mapping.journal_seq = 0
    mapping.add_graphs(small_chemical_queries[:2])
    save_index(mapping, path)
    mapping.remove_graphs([1, 3])
    save_index(mapping, path)
    assert len(journal_path(path).read_text().splitlines()) == 2
    return path, mapping


def _assert_repaired(path, mapping, queries):
    """A full save from the live mapping must heal the artifact."""
    save_index(mapping, path)
    assert not journal_path(path).exists(), "repair must reset the journal"
    reloaded = load_index(path)
    assert reloaded.space.n == mapping.space.n
    a = mapping.query_engine().batch_query(queries, 5)
    b = reloaded.query_engine().batch_query(queries, 5)
    for x, y in zip(a, b):
        assert x.ranking == y.ranking and x.scores == y.scores


def _supports_entry(manifest):
    return manifest["payload"]["arrays"]["supports"]


#: Tampered manifests, each still valid JSON: name -> in-place edit.
MALFORMED_MANIFESTS = {
    "array-entry-lacks-offset": lambda m: _supports_entry(m).pop("offset"),
    "array-entry-lacks-nbytes": lambda m: _supports_entry(m).pop("nbytes"),
    "array-dtype-object": lambda m: _supports_entry(m).update(dtype="object"),
    "array-dtype-bogus": lambda m: _supports_entry(m).update(dtype="bogus"),
    "array-dtype-other-width": lambda m: _supports_entry(m).update(
        dtype="uint32"
    ),
    "array-dtype-float64": lambda m: _supports_entry(m).update(
        dtype="float64"
    ),
    "array-shape-a-string": lambda m: _supports_entry(m).update(shape="30x8"),
    "array-shape-negative": lambda m: _supports_entry(m).update(
        shape=[-1, -_supports_entry(m)["nbytes"] // 8]
    ),
    "array-offset-negative": lambda m: _supports_entry(m).update(offset=-64),
    "array-offset-a-bool": lambda m: _supports_entry(m).update(offset=False),
    "array-offset-unaligned": lambda m: _supports_entry(m).update(offset=8),
    "array-past-the-payload": lambda m: _supports_entry(m).update(
        offset=64 * m["payload"]["bytes"]
    ),
    "array-entry-not-an-object": lambda m: m["payload"]["arrays"].update(
        supports=[0, 1920]
    ),
    "arrays-not-an-object": lambda m: m["payload"].update(arrays=[]),
    "pages-not-a-list": lambda m: m["payload"].update(pages="deadbeef"),
    "page-size-a-string": lambda m: m["payload"].update(
        page_size=str(m["payload"]["page_size"])
    ),
    "page-size-zero": lambda m: m["payload"].update(page_size=0),
    "bytes-a-float": lambda m: m["payload"].update(
        bytes=float(m["payload"]["bytes"])
    ),
    "payload-section-a-list": lambda m: m.update(payload=[]),
    "no-support-counts": lambda m: m.pop("support_counts"),
    "support-counts-a-string": lambda m: m.update(support_counts="8"),
    "no-feature-graphs": lambda m: m.pop("feature_graphs"),
    "no-database-size": lambda m: m.pop("database_size"),
    "dimensionality-a-list": lambda m: m.update(dimensionality=[8]),
    "lattice-lacks-order": lambda m: m["lattice"].pop("order"),
    # The recorded payload file name is outside input too: it may name
    # a file beside the manifest and nothing else.
    "payload-file-climbs-out": lambda m: m["payload"].update(
        file="../elsewhere.pages"
    ),
    "payload-file-absolute": lambda m: m["payload"].update(
        file="/" + m["payload"]["file"]
    ),
    "payload-file-in-a-subdirectory": lambda m: m["payload"].update(
        file="sub/x.pages"
    ),
    "payload-file-empty": lambda m: m["payload"].update(file=""),
    "payload-file-not-a-string": lambda m: m["payload"].update(file=7),
    "payload-file-the-manifest": lambda m: m["payload"].update(
        file="index.json"
    ),
}


class TestJournalFaults:
    def test_truncated_mid_record(self, mutated, small_chemical_queries):
        path, mapping = mutated
        journal = journal_path(path)
        text = journal.read_text()
        # Cut inside a record, then committed by a newline: garbage,
        # not an uncommitted tail (which loads as the previous state).
        journal.write_text(text[: len(text) // 2] + "\n")
        with pytest.raises(JournalError):
            load_index(path)
        _assert_repaired(path, mapping, small_chemical_queries)

    def test_flipped_byte_in_entry(self, mutated, small_chemical_queries):
        path, mapping = mutated
        journal = journal_path(path)
        lines = journal.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["op"] = "remove" if entry["op"] == "add" else "add"
        lines[0] = json.dumps(entry, sort_keys=True)  # stale checksum
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChecksumError):
            load_index(path)
        _assert_repaired(path, mapping, small_chemical_queries)

    def test_reordered_entries(self, mutated, small_chemical_queries):
        path, mapping = mutated
        journal = journal_path(path)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(reversed(lines)) + "\n")
        with pytest.raises(JournalError, match="out of sequence"):
            load_index(path)
        _assert_repaired(path, mapping, small_chemical_queries)

    def test_journal_from_another_artifact(
        self, mutated, small_chemical_queries
    ):
        path, mapping = mutated
        journal = journal_path(path)
        lines = journal.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["artifact_id"] = "feedfacedeadbeef"
        # Re-checksum so only the lineage check can object.
        from repro.index.artifact import _entry_digest

        entry.pop("sha256")
        entry["sha256"] = _entry_digest(entry)
        lines[0] = json.dumps(entry, sort_keys=True)
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="belongs to artifact"):
            load_index(path)
        _assert_repaired(path, mapping, small_chemical_queries)


class TestPayloadFaults:
    @BOTH_LOADS
    def test_flipped_payload_byte(
        self, mutated, small_chemical_queries, mmap
    ):
        path, mapping = mutated
        if mmap:
            # Replaying a journal reads the vectors — that would be the
            # first touch.  Fold it in so the load itself stays lazy.
            save_index(mapping, path, compact=True)
        payload = payload_path(path)
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0x40
        payload.write_bytes(bytes(data))
        if mmap:
            lazy = load_index(path, mmap=True)  # nothing read yet
            with pytest.raises(ChecksumError):
                lazy.database_vectors
        else:
            with pytest.raises(ChecksumError):
                load_index(path)
        # Same-size corruption is invisible to the O(1) append-path
        # stat (by design — hashing the whole base per delta would make
        # incremental saves O(base)); every load still fails loudly,
        # and an explicit full save repairs it.
        save_index(mapping, path, compact=True)
        assert not journal_path(path).exists()
        reloaded = load_index(path, mmap=mmap)
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    @BOTH_LOADS
    def test_flipped_byte_in_the_support_matrix(
        self, mutated, small_chemical_queries, mmap
    ):
        """φ's one on-disk copy: a flipped bit of the packed matrix fails
        its page checksum at load, or, under ``mmap=True``, when the
        first service cuts its shards from the matrix."""
        path, mapping = mutated
        save_index(mapping, path, compact=True)  # no replay touches it
        manifest = json.loads(path.read_text())
        offset = manifest["payload"]["arrays"]["supports"]["offset"]
        payload = payload_path(path)
        data = bytearray(payload.read_bytes())
        data[offset] ^= 0x01
        payload.write_bytes(bytes(data))
        if mmap:
            lazy = load_index(path, mmap=True)  # nothing read yet
            with pytest.raises(ChecksumError):
                lazy.query_service()
        else:
            with pytest.raises(ChecksumError):
                load_index(path)
        save_index(mapping, path, compact=True)
        reloaded = load_index(path, mmap=mmap)
        a = mapping.query_service().batch_query(small_chemical_queries, 5)
        b = reloaded.query_service().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    @BOTH_LOADS
    def test_truncated_payload(self, mutated, small_chemical_queries, mmap):
        path, mapping = mutated
        payload = payload_path(path)
        payload.write_bytes(payload.read_bytes()[:-20])
        with pytest.raises(ChecksumError):
            load_index(path, mmap=mmap)
        _assert_repaired(path, mapping, small_chemical_queries)

    @BOTH_LOADS
    def test_deleted_payload_sidecar(
        self, mutated, small_chemical_queries, mmap
    ):
        path, mapping = mutated
        payload_path(path).unlink()
        with pytest.raises(PayloadMissingError):
            load_index(path, mmap=mmap)
        # The delta fast-path must notice the missing sidecar and write
        # a full base even though manifest and journal still agree.
        _assert_repaired(path, mapping, small_chemical_queries)


#: One process is the reader and — through a second handle — the
#: compactor of the same path.  Dropping the upper half of the rows
#: shrinks the payload by ~100 KiB, more than any OS page size.
_SHRINKING_REWRITE = """
import sys
import numpy as np
from clustered import clustered_vector_index
from repro.graph.labeled_graph import LabeledGraph
from repro.index import load_index, save_index

path, mmap = sys.argv[1], sys.argv[2] == "mmap"
mapping, _ = clustered_vector_index(4, 100, 16, seed=3)
save_index(mapping, path)
queries = [
    LabeledGraph([f"dim{j}" for j in range(c * 16, c * 16 + 12)])
    for c in range(4)
]
vectors = np.array(mapping.database_vectors)
expected = mapping.query_engine().batch_query(queries, 5)
reader = load_index(path, mmap=mmap)
writer = load_index(path)
writer.remove_graphs(range(200, 400))
save_index(writer, path, compact=True)
assert np.array_equal(reader.database_vectors, vectors)
answers = reader.query_engine().batch_query(queries, 5)
assert [(a.ranking, a.scores) for a in answers] == [
    (e.ranking, e.scores) for e in expected
]
"""


class TestLiveReaderSurvivesRewrite:
    """A full save writes a new generation and unlinks the old one; it
    must not rewrite, under a mapping that is still serving from it, the
    bytes that mapping reads (``index-compact`` beside a running
    ``serve --index``)."""

    @BOTH_LOADS
    def test_same_size_compaction(
        self, built_mapping, tmp_path, small_chemical_queries, mmap
    ):
        path = tmp_path / "index.json"
        save_index(built_mapping, path)
        built_mapping.artifact_ref = None  # keep the module fixture pristine
        built_mapping.journal_seq = 0
        vectors = np.array(built_mapping.database_vectors)
        expected = built_mapping.query_engine().batch_query(
            small_chemical_queries, 5
        )
        reader = load_index(path, mmap=mmap)
        writer = load_index(path)
        writer.remove_graphs([0, 1])
        writer.add_graphs(small_chemical_queries[:2])
        assert writer.database_vectors.shape == vectors.shape
        assert not np.array_equal(writer.database_vectors, vectors)
        size = payload_path(path).stat().st_size
        save_index(writer, path, compact=True)
        assert payload_path(path).stat().st_size == size
        assert np.array_equal(reader.database_vectors, vectors)
        answers = reader.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(expected, answers):
            assert x.ranking == y.ranking and x.scores == y.scores
        # ... and the path now holds the writer's state, nothing left
        # over: the manifest and one generation's pages.
        assert np.array_equal(
            load_index(path).database_vectors, writer.database_vectors
        )
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "index.json", payload_path(path).name,
        ]

    @BOTH_LOADS
    def test_shrinking_compaction(self, tmp_path, mmap):
        """In a subprocess: reading a mapped page past the new end of a
        file truncated in place is a SIGBUS, not an exception."""
        here = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [
                sys.executable, "-c", _SHRINKING_REWRITE,
                str(tmp_path / "index.json"), "mmap" if mmap else "eager",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestManifestFaults:
    def test_deleted_manifest(self, mutated, small_chemical_queries):
        path, mapping = mutated
        path.unlink()
        with pytest.raises(ManifestMissingError):
            load_index(path)
        with pytest.raises(ManifestMissingError):
            IndexArtifact.load(path)
        with pytest.raises(ManifestMissingError):
            compact_index(path)
        _assert_repaired(path, mapping, small_chemical_queries)

    def test_manifest_missing_is_a_valueerror_too(self, tmp_path):
        # Pre-existing callers catch ValueError around load_index.
        with pytest.raises(ValueError):
            load_index(tmp_path / "never-saved.json")

    @BOTH_LOADS
    @pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_is_an_artifact_error(
        self, mutated, name, mmap
    ):
        """The manifest is outside input: a field of the wrong shape is
        reported as a corrupt artifact, at load, under either load —
        never a bare ``KeyError`` / ``TypeError`` that callers mapping
        ``ArtifactError`` to a clean failure would let through."""
        path, _mapping = mutated
        manifest = json.loads(path.read_text())
        MALFORMED_MANIFESTS[name](manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactCorruptError):
            load_index(path, mmap=mmap)

    @BOTH_LOADS
    @pytest.mark.parametrize(
        "tamper", ["false-lattice-ancestor", "relabelled-feature-graph"]
    )
    def test_well_formed_but_corrupted_manifest_is_refused(
        self, mutated, small_chemical_queries, tamper, mmap
    ):
        """Page checksums cover the payload and the graph section has
        its own; the rest of the manifest is covered by its
        ``artifact_id``, which every load recomputes.  A lattice that
        names a false ancestor, or a feature graph with one label
        changed, is structurally valid and used to load and answer
        differently.  It is refused at load, or, under ``mmap=True``,
        at the first read of φ — the load itself stays O(manifest)."""
        path, mapping = mutated
        save_index(mapping, path, compact=True)  # no replay touches φ
        manifest = json.loads(path.read_text())
        if tamper == "false-lattice-ancestor":
            lattice = manifest["lattice"]
            first = lattice["order"][0]
            for position, ancestors in enumerate(lattice["ancestors"]):
                if position != first and first not in ancestors:
                    ancestors.append(first)
        else:
            lines = manifest["feature_graphs"].split("\n")
            vertices = [i for i, line in enumerate(lines)
                        if line.startswith("v ")]
            head, _, label = lines[vertices[0]].rpartition(" ")
            other = next(
                lines[i].rpartition(" ")[2] for i in vertices
                if lines[i].rpartition(" ")[2] != label
            )
            lines[vertices[0]] = f"{head} {other}"
            manifest["feature_graphs"] = "\n".join(lines)
        path.write_text(json.dumps(manifest))
        if mmap:
            lazy = load_index(path, mmap=True)  # nothing read yet
            with pytest.raises(ChecksumError, match="artifact_id"):
                lazy.query_service()
        else:
            with pytest.raises(ChecksumError, match="artifact_id"):
                load_index(path)
        # Like a same-size payload flip, this is invisible to the append
        # path's O(1) checks; a full save repairs it.
        save_index(mapping, path, compact=True)
        _assert_repaired(path, mapping, small_chemical_queries)

    @pytest.mark.parametrize("text", ["[]", "{not json"])
    def test_manifest_that_is_not_a_json_object(self, mutated, text):
        path, _mapping = mutated
        path.write_text(text)
        with pytest.raises(ArtifactCorruptError):
            load_index(path)

    @BOTH_LOADS
    def test_renaming_only_the_manifest_keeps_it_loading(
        self, mutated, tmp_path, small_chemical_queries, mmap
    ):
        """The manifest names its generation's files, relative to its
        own directory: the files keep their names when it moves."""
        path, mapping = mutated
        moved = tmp_path / "renamed.json"
        path.rename(moved)
        assert payload_path(moved).name.startswith("index.json.")
        reloaded = load_index(moved, mmap=mmap)
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    @BOTH_LOADS
    def test_fixed_name_layout_loads_and_takes_a_delta(
        self, mutated, small_chemical_queries, mmap
    ):
        """An artifact whose manifest names ``<path>.pages`` (and so the
        journal ``<path>.journal``) — the layout earlier builds wrote at
        fixed names — loads as written and takes a delta append; its
        next full save leaves one numbered generation."""
        path, mapping = mutated
        manifest = json.loads(path.read_text())
        payload_path(path).rename(path.with_name("index.json.pages"))
        journal_path(path).rename(path.with_name("index.json.journal"))
        manifest["payload"]["file"] = "index.json.pages"
        path.write_text(json.dumps(manifest))
        assert journal_path(path).name == "index.json.journal"

        reloaded = load_index(path, mmap=mmap)
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

        reloaded.remove_graphs([0])
        save_index(reloaded, path)
        assert len(journal_path(path).read_text().splitlines()) == 3
        assert sorted(f.name for f in path.parent.iterdir()) == [
            "index.json", "index.json.journal", "index.json.pages",
        ]
        assert load_index(path).space.n == reloaded.space.n

        save_index(reloaded, path, compact=True)
        assert sorted(f.name for f in path.parent.iterdir()) == [
            "index.json", payload_path(path).name,
        ]
        assert payload_path(path).name != "index.json.pages"


class TestAutoCompaction:
    def test_small_ratio_triggers_compaction(
        self, mutated, small_chemical_queries
    ):
        path, mapping = mutated
        payload_before = payload_path(path).read_bytes()
        mapping.add_graphs(small_chemical_queries[2:3])
        save_index(mapping, path, auto_compact_ratio=1e-9)
        assert not journal_path(path).exists(), (
            "an oversized journal must fold into a fresh base"
        )
        assert payload_path(path).read_bytes() != payload_before
        assert mapping.journal_seq == 0
        reloaded = load_index(path)
        a = mapping.query_engine().batch_query(small_chemical_queries, 5)
        b = reloaded.query_engine().batch_query(small_chemical_queries, 5)
        for x, y in zip(a, b):
            assert x.ranking == y.ranking and x.scores == y.scores

    def test_large_ratio_keeps_appending(
        self, mutated, small_chemical_queries
    ):
        path, mapping = mutated
        payload_before = payload_path(path).read_bytes()
        mapping.add_graphs(small_chemical_queries[2:3])
        save_index(mapping, path, auto_compact_ratio=1e9)
        assert len(journal_path(path).read_text().splitlines()) == 3
        assert payload_path(path).read_bytes() == payload_before

    def test_default_ratio_is_sane_and_configurable(self):
        assert 0 < DEFAULT_AUTO_COMPACT_RATIO <= 1

    def test_junk_bytes_field_triggers_repair_not_crash(
        self, mutated, small_chemical_queries
    ):
        path, mapping = mutated
        manifest = json.loads(path.read_text())
        manifest["payload"]["bytes"] = "not-a-number"
        path.write_text(json.dumps(manifest))
        mapping.add_graphs(small_chemical_queries[2:3])
        save_index(mapping, path)  # must repair with a full base
        assert not journal_path(path).exists()
        assert load_index(path).space.n == mapping.space.n

    def test_non_positive_ratio_rejected(self, mutated):
        path, mapping = mutated
        with pytest.raises(ValueError, match="auto_compact_ratio"):
            save_index(mapping, path, auto_compact_ratio=0.0)

    def test_compaction_threshold_is_journal_vs_payload(
        self, mutated, small_chemical_queries
    ):
        """The trigger compares journal bytes to base payload bytes: a
        ratio just above the current journal/payload quotient must not
        fire, one just below must."""
        path, mapping = mutated
        journal_bytes = journal_path(path).stat().st_size
        payload_bytes = payload_path(path).stat().st_size
        quotient = journal_bytes / payload_bytes
        mapping.add_graphs(small_chemical_queries[2:3])
        save_index(mapping, path, auto_compact_ratio=quotient * 10)
        assert journal_path(path).exists()
        mapping.add_graphs(small_chemical_queries[3:4])
        save_index(mapping, path, auto_compact_ratio=quotient / 10)
        assert not journal_path(path).exists()


class _Cut(Exception):
    """The injected failure: a save stopped at one file operation."""


#: Every call through which a save touches the disk.  The pathlib
#: writers are listed beside ``os.write`` so that a write which bypasses
#: it is still counted, and cut, rather than silently skipped.
_FILE_OPS = (
    (os, ("write", "fsync", "replace", "rename", "unlink")),
    (Path, ("write_text", "write_bytes")),
)
_WRITES = ("write", "write_text", "write_bytes")


def _run_cut(monkeypatch, call, cut_at=None, torn=False):
    """Run *call* with every file operation logged; return the log.

    With *cut_at* the operation of that index raises :class:`_Cut`
    instead of running — after writing half its bytes when *torn*.
    """
    log = []

    def wrap(name, real):
        def op(*args, **kwargs):
            log.append(name)
            if len(log) - 1 != cut_at:
                return real(*args, **kwargs)
            if torn:
                target, data = args[:2]
                real(target, data[: len(data) // 2])
            raise _Cut(f"cut at {name} #{cut_at}")

        return op

    with monkeypatch.context() as patch:
        for owner, names in _FILE_OPS:
            for name in names:
                patch.setattr(owner, name, wrap(name, getattr(owner, name)))
        try:
            call()
        except _Cut:
            assert cut_at is not None
    return log


def _generation(mapping, queries):
    """What a generation is, for comparison: its rows and its answers."""
    answers = mapping.query_engine().batch_query(queries, 5)
    return (
        np.asarray(mapping.database_vectors).tobytes(),
        [(a.ranking, a.scores) for a in answers],
    )


def _chemical_case(db, queries, mutate, save, folded=False):
    """A base plus one delta — folded into a fresh base if *folded* —
    and a live mapping loaded from it with *mutate* pending."""

    def setup(directory):
        path = directory / "index.json"
        if not path.exists():
            base = build_mapping(
                db, num_features=8, min_support=0.2, max_pattern_edges=3
            )
            save_index(base, path)
            mapping = load_index(path)
            mapping.remove_graphs([0])
            save_index(mapping, path, compact=folded)
        mapping = load_index(path)
        mutate(mapping)
        return path, mapping

    return setup, save, queries


def _vector_case():
    """A delta save that also rewrites the manifest: the proximity
    graph is maintained through the update, so its section moves."""
    from clustered import clustered_vector_index
    from repro.graph.labeled_graph import LabeledGraph

    def setup(directory):
        path = directory / "index.json"
        if not path.exists():
            base, _ = clustered_vector_index(4, 30, 8, seed=5)
            base.proximity_graph()
            save_index(base, path)
        mapping = load_index(path)
        mapping.proximity_graph()
        mapping.remove_graphs([3, 40, 77])
        return path, mapping

    queries = [
        LabeledGraph([f"dim{j}" for j in range(c * 8, c * 8 + 6)])
        for c in range(4)
    ]
    return setup, lambda mapping, path: save_index(mapping, path), queries


CUT_CASES = {
    # Motivating case: three rows pending on a base plus one delta.
    "full-compact": lambda db, queries: _chemical_case(
        db, queries,
        lambda m: m.remove_graphs([1, 2, 3]),
        lambda m, path: save_index(m, path, compact=True),
    ),
    "auto-compact": lambda db, queries: _chemical_case(
        db, queries,
        lambda m: m.remove_graphs([4]),
        lambda m, path: save_index(m, path, auto_compact_ratio=1e-9),
    ),
    # Nothing pending: the new generation has the old one's artifact id.
    "same-id-compaction": lambda db, queries: _chemical_case(
        db, queries,
        lambda m: None,
        lambda m, path: save_index(m, path, compact=True),
        folded=True,
    ),
    "delta-with-graph": lambda db, queries: _vector_case(),
}


class TestCutSave:
    """A save cut short at any file operation — a write (whole or
    torn), an fsync, the rename or an unlink — leaves the index loading
    as the generation before the save or the one after it, and the next
    save from the live mapping leaves exactly one generation on disk."""

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_every_cut_loads_as_one_generation(
        self, case, tmp_path, monkeypatch, small_chemical_db,
        small_chemical_queries,
    ):
        setup, save, queries = CUT_CASES[case](
            small_chemical_db, small_chemical_queries
        )
        template = tmp_path / "template"
        template.mkdir()
        path, mapping = setup(template)
        before = _generation(load_index(path), queries)
        after = _generation(mapping, queries)
        if case == "same-id-compaction":
            assert before == after

        rehearsal = tmp_path / "rehearsal"
        shutil.copytree(template, rehearsal)
        path, mapping = setup(rehearsal)
        old_id = json.loads(path.read_text())["artifact_id"]
        ops = _run_cut(monkeypatch, lambda: save(mapping, path))
        assert "replace" in ops  # every case commits a manifest
        if case == "same-id-compaction":
            assert json.loads(path.read_text())["artifact_id"] == old_id

        cuts = [(i, False) for i in range(len(ops))]
        cuts += [(i, True) for i, op in enumerate(ops) if op in _WRITES]
        failures = []
        for cut_at, torn in cuts:
            where = f"{'torn ' if torn else ''}{ops[cut_at]} #{cut_at}"
            directory = tmp_path / f"cut{cut_at}{'-torn' if torn else ''}"
            shutil.copytree(template, directory)
            path, mapping = setup(directory)
            _run_cut(
                monkeypatch, lambda: save(mapping, path), cut_at, torn
            )
            try:
                _check_cut(path, mapping, queries, before, after)
            except (AssertionError, ArtifactError) as exc:
                failures.append(f"{where}: {type(exc).__name__}: {exc}")
        assert not failures, "\n".join(failures)


def _check_cut(path, mapping, queries, before, after):
    """After a cut: one generation loads, and the next save leaves one."""
    eager = _generation(load_index(path), queries)
    assert eager in (before, after), "loads as neither generation"
    assert _generation(load_index(path, mmap=True), queries) == eager
    save_index(mapping, path)
    assert _generation(load_index(path), queries) == after
    named = {path.name, payload_path(path).name, journal_path(path).name}
    left = {f.name for f in path.parent.iterdir()} - named
    assert payload_path(path).exists()
    assert not left, f"left over: {sorted(left)}"
