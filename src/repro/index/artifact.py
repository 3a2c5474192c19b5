"""The index artifact: a mutable index's on-disk lifecycle.

An artifact is a JSON manifest plus the two files of one *generation*,
which the manifest names and which live beside it:

* ``<path>`` — the **manifest**: every offline product the online path
  needs (feature graphs, support counts, feature lattice, label codec),
  so a reload cold-starts with zero VF2 calls, plus the payload's page
  table and
  the one *derived* section — the proximity graph's neighbor table,
  checksummed and ``seq``-gated.  Shard summaries and pattern profiles
  are derived, never stored; such a key left by an older build is not
  read.  Its ``artifact_id`` digests the rest with the support matrix,
  and every load recomputes it, so a corrupted manifest is refused;
* ``payload["file"]`` (``<path>.<n>.pages`` for generation *n*) — the
  **binary payload** (:mod:`repro.index.paged`): φ, once — the selected
  features' packed support matrix (``[p, ceil(n / 64)]`` ``uint64``, the
  rows of :attr:`~repro.features.binary_matrix.FeatureSpace.supports`),
  a SHA-256 per page in the manifest, so a truncated or bit-flipped
  payload raises :class:`~repro.utils.errors.ChecksumError` instead of
  mis-ranking;
* that name with ``.journal`` for ``.pages`` — the append-only **delta
  journal** (JSON lines, each checksummed and sequence-numbered) of
  :meth:`~repro.core.mapping.DSPreservedMapping.add_graphs` /
  :meth:`~repro.core.mapping.DSPreservedMapping.remove_graphs`
  mutations.  :func:`save_index` appends to it when the mapping
  descends from the artifact on disk, :func:`load_index` replays it
  (pure array work — zero VF2) and :func:`compact_index` folds it into
  a new generation.  An entry's trailing newline is its commit point:
  an append torn before it loads as the previous state, and the next
  append overwrites the tail.

A save's one commit point is the ``os.replace`` of the manifest
(:func:`_commit`).  A full save first writes its pages under a number no
generation at *path* used, so up to that rename the previous generation
loads whole, and after it the new one; only then are the previous
generation's files unlinked.

This is format version 4 and the only one read or written (a manifest
naming the unnumbered ``<path>.pages`` of an earlier build loads as
written); any other shape — version 3's float64 rows and JSON supports
included — is rejected with the remedy, ``index-build``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.mapping import DSPreservedMapping
from repro.core.persistence import FORMAT_VERSION, LabelCodec
from repro.features.binary_matrix import FeatureSpace
from repro.graph.io import dumps_gspan, loads_gspan
from repro.index.paged import (
    PAGED_LAYOUT,
    PagedPayloadReader,
    _corrupt,
    write_paged_payload,
    write_synced,
)
from repro.mining.gspan import FrequentSubgraph
from repro.query.engine import FeatureLattice
from repro.query.proximity import check_payload
from repro.utils.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ChecksumError,
    CodecMissingError,
    FormatVersionError,
    JournalError,
    LatticeShapeError,
    ManifestMissingError,
    PayloadMissingError,
    QueryError,
)

PathLike = Union[str, Path]

ARTIFACT_KIND = "repro-graphdim-index"

#: The arrays the binary payload must carry, in manifest order.
PAYLOAD_ARRAYS = ("supports",)

#: The manifest keys the ``artifact_id`` digests, beside the support
#: matrix: the index's content.  The page table and the proximity graph
#: are derived and stay out, so the same index state keeps the same
#: identity whether or not a graph query warmed it; any other key (one
#: an older build left) is not read.
IDENTITY_KEYS = (
    "format_version", "kind", "database_size", "dimensionality",
    "feature_graphs", "support_counts", "selection_baseline", "stale",
    "label_codec", "lattice",
)

__all__ = [
    "DEFAULT_AUTO_COMPACT_RATIO",
    "FORMAT_VERSION",
    "IndexArtifact",
    "compact_index",
    "journal_path",
    "load_index",
    "payload_path",
    "save_index",
]


def payload_path(path: PathLike) -> Path:
    """The pages file of the generation the manifest at *path* names."""
    path = Path(path)
    return _generation_files(path, _read_manifest(path))[0]


def journal_path(path: PathLike) -> Path:
    """The delta journal of the generation the manifest at *path* names
    (it need not exist: a generation with no deltas has none)."""
    path = Path(path)
    return _generation_files(path, _read_manifest(path))[1]


def _generation_files(path: Path, manifest: Dict) -> Tuple[Path, Path]:
    """The (pages, journal) pair *manifest*, read from *path*, names.

    The name is outside input: only a bare ``*.pages`` file name is
    accepted, so a manifest points at nothing but a file beside it.
    """
    meta = manifest.get("payload")
    name = meta.get("file") if isinstance(meta, dict) else None
    if not (
        isinstance(name, str)
        and name.endswith(".pages")
        and name != ".pages"
        and Path(name).name == name
    ):
        raise _corrupt(f"bad payload file name {name!r}")
    pages = path.with_name(name)
    return pages, pages.with_suffix(".journal")


def _generation_names(path: Path) -> Dict[str, int]:
    """The artifact's pages and journal files, by name, to generation:
    ``<path>.<n>.pages`` / ``.journal`` are *n*, and the unnumbered
    ``<path>.pages`` / ``<path>.journal`` of an earlier build are 0."""
    pattern = re.compile(
        re.escape(path.name) + r"(?:\.(\d+))?\.(?:pages|journal)"
    )
    found = map(pattern.fullmatch, os.listdir(path.parent))
    return {m.group(0): int(m.group(1) or 0) for m in found if m}


def _commit(path: Path, manifest: Dict) -> None:
    """Make *manifest* the artifact at *path*: a save's one commit point.

    A fsynced temp file replaces *path* in one rename, and the directory
    is fsynced.  Only then are the artifact's files that *manifest* does
    not name unlinked: the previous generation's, and any a cut save
    left.  A reader still mapping an unlinked pages file keeps its inode.
    """
    temp = path.with_name(path.name + ".tmp")
    write_synced(temp, json.dumps(manifest).encode())
    os.replace(temp, path)
    _fsync_dir(path.parent)
    keep = {f.name for f in _generation_files(path, manifest)}
    for name in sorted(_generation_names(path)):
        if name not in keep:
            os.unlink(path.with_name(name))


def _fsync_dir(directory: Path) -> None:
    """Make the entries created or renamed in *directory* durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _unsupported(found: str) -> FormatVersionError:
    """A manifest this build's :func:`save_index` could not have written."""
    return FormatVersionError(
        f"unsupported index artifact ({found}): this build reads format "
        f"version {FORMAT_VERSION} with a {PAGED_LAYOUT!r} payload only "
        "— rebuild the index with index-build"
    )


def _artifact_id(manifest: Dict, supports: np.ndarray) -> str:
    """The artifact's content identity: SHA-256 over *manifest*'s
    :data:`IDENTITY_KEYS`, then the support matrix."""
    core = {k: manifest[k] for k in IDENTITY_KEYS if k in manifest}
    digest = hashlib.sha256(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode()
    )
    digest.update(np.ascontiguousarray(supports))
    return digest.hexdigest()[:16]


def _entry_digest(entry: Dict) -> str:
    """Checksum of one journal entry (its ``sha256`` field excluded)."""
    body = {k: v for k, v in entry.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _read_journal(path: Path, artifact_id: str) -> List[Dict]:
    """Parse and verify the delta journal for *artifact_id*.

    An entry's trailing newline is its commit point: a last line without
    one is an append cut short, never committed, and is ignored (the
    next append truncates it).  Every complete line must parse, carry a
    valid checksum, name the base artifact, and continue the sequence
    without gaps — anything else fails loudly.
    """
    if not path.exists():
        return []
    text = path.read_text()
    committed = text[: text.rfind("\n") + 1]
    entries: List[Dict] = []
    for lineno, line in enumerate(committed.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"journal line {lineno} is not valid JSON"
            ) from exc
        if not isinstance(entry, dict):
            raise JournalError(f"journal line {lineno} is not an object")
        if entry.get("sha256") != _entry_digest(entry):
            raise ChecksumError(
                f"journal line {lineno} fails its checksum"
            )
        if entry.get("artifact_id") != artifact_id:
            raise JournalError(
                f"journal line {lineno} belongs to artifact "
                f"{entry.get('artifact_id')!r}, not {artifact_id!r}"
            )
        if entry.get("seq") != len(entries):
            raise JournalError(
                f"journal line {lineno} is out of sequence "
                f"(seq={entry.get('seq')!r}, expected {len(entries)})"
            )
        entries.append(entry)
    return entries


def _graph_payload(mapping: DSPreservedMapping, seq: int) -> Optional[Dict]:
    """Serialise the mapping's proximity graph (``None`` when absent).

    *seq* pins the journal position the neighbor table describes (``0``
    for a fresh base).  The section carries its own checksum: a corrupt
    table would silently skew every graph-mode answer.  Only neighbor
    ids are stored; distances are re-derived on first use.
    """
    table = mapping.proximity_payload()
    if table is None:
        return None
    section = {
        "seq": int(seq),
        "max_degree": int(table["max_degree"]),
        "neighbors": table["neighbors"],
    }
    section["sha256"] = _entry_digest(section)
    return section


def _restore_graph(
    mapping: DSPreservedMapping, payload: Dict, journal_len: int
) -> None:
    """Stash a persisted proximity graph on a freshly loaded mapping.

    The section is validated here (checksum, then
    :func:`~repro.query.proximity.check_payload`) but *attached* lazily:
    the neighbor distances need the rows, and touching those would
    break the O(manifest) mmap cold start.  A ``seq`` other than the
    replayed journal's length describes another database state: it is
    dropped, and the graph tier rebuilds (then re-persists) lazily.
    """
    section = payload.get("proximity_graph")
    if section is None:
        return
    if not isinstance(section, dict) or not isinstance(
        section.get("neighbors"), list
    ):
        raise _corrupt("malformed proximity_graph section")
    if section.get("sha256") != _entry_digest(section):
        raise ChecksumError(
            "proximity_graph section fails its checksum — a corrupted "
            "neighbor table would silently skew graph-mode answers"
        )
    if section.get("seq") != journal_len:
        return
    try:
        check_payload(section, mapping.space.n)
    except QueryError as exc:
        raise _corrupt(f"proximity_graph: {exc}")
    mapping.store_proximity_payload(
        {key: section[key] for key in ("max_degree", "neighbors")}
    )


@dataclass
class IndexArtifact:
    """A parsed index artifact: manifest + binary arrays + journal.

    ``payload`` holds the JSON manifest, ``arrays`` the binary payload
    and ``journal`` the verified delta entries.  Construct with
    :meth:`from_mapping` (serialising a built index) or :meth:`load`
    (reading a saved one); turn back into a live, fully warmed mapping
    with :meth:`to_mapping`.
    """

    payload: Dict
    arrays: Optional[Dict[str, np.ndarray]] = None
    journal: List[Dict] = field(default_factory=list)
    #: Set on a loaded artifact: the page-verified reader over its pages
    #: file.  With ``arrays`` ``None`` beside it, the artifact was opened
    #: with ``mmap=True`` and hands out a deferred read.
    reader: Optional[PagedPayloadReader] = None

    # ------------------------------------------------------------------
    # mapping -> artifact
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: DSPreservedMapping) -> "IndexArtifact":
        """Capture *mapping*'s current state plus its offline products.

        Builds the engine first if the mapping has not served a query
        yet — saving is exactly the moment to pay the offline lattice
        cost.  Any applied mutations are already folded into the
        support matrix, so the result is a clean *base* (empty
        journal).
        """
        engine = mapping.query_engine()
        lattice = engine.lattice
        p = mapping.dimensionality

        features = mapping.selected_features()

        arrays = {"supports": mapping.space.supports[mapping.selected]}
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": ARTIFACT_KIND,
            "database_size": mapping.space.n,
            "dimensionality": p,
            "feature_graphs": dumps_gspan([f.graph for f in features]),
            # The matrix's row popcounts: an mmap load knows them
            # without reading a page.
            "support_counts": [
                int(c) for c in mapping._selected_support_counts()
            ],
            # The staleness contract survives persistence: drift is
            # measured against the supports at *selection* time, not at
            # the last save/compaction, so the baseline rides along.
            "selection_baseline": [
                int(v) for v in mapping._support_baseline
            ],
            "stale": bool(mapping.stale),
            "label_codec": engine.label_codec.to_payload(),
            "lattice": {
                "order": [int(r) for r in lattice.order],
                "ancestors": [
                    [int(a) for a in anc] for anc in lattice.ancestors
                ],
                "vf2_checks": int(lattice.vf2_checks),
            },
            "payload": None,  # the page table; filled in by save()
        }
        # A deterministic content identity, recomputed by every load.
        payload["artifact_id"] = _artifact_id(payload, arrays["supports"])
        graph = _graph_payload(mapping, seq=0)
        if graph is not None:
            payload["proximity_graph"] = graph
        return cls(payload, arrays=arrays)

    # ------------------------------------------------------------------
    # artifact -> mapping
    # ------------------------------------------------------------------
    def to_mapping(self) -> DSPreservedMapping:
        """Reconstruct the mapping with its engine pre-attached.

        Every persisted offline product is restored, not recomputed: the
        lattice and the support counts.  The engine is wired in
        through the mapping's single construction point, so nothing can
        later race it with a stale rebuild.  The delta journal is then
        replayed (pure array updates — no VF2) and the mapping remembers
        its base artifact so the next :func:`save_index` can append.
        """
        payload = self.payload
        kind = payload.get("kind")
        if kind != ARTIFACT_KIND:
            raise ArtifactCorruptError(
                f"not a {ARTIFACT_KIND!r} artifact (kind={kind!r})"
            )

        codec_payload = payload.get("label_codec")
        if not isinstance(codec_payload, dict) or not codec_payload:
            # Tolerating a dropped codec would silently bring labels
            # back as strings that match no integer-labeled query.
            raise CodecMissingError(
                "corrupt mapping file: missing label codec"
            )
        codec = LabelCodec.from_payload(codec_payload)
        graphs = loads_gspan(payload["feature_graphs"], codec.decode)
        n = int(payload["database_size"])
        p = int(payload["dimensionality"])
        if len(graphs) != p:
            raise _corrupt("feature/dimensionality count mismatch")
        counts = np.asarray(payload["support_counts"], dtype=np.int64)
        if counts.shape != (p,):
            raise _corrupt("support count mismatch")
        lattice = self._restore_lattice(p)
        shape, supports = self._payload_supports(counts)
        if shape != (p, -(-n // 64)):
            raise _corrupt("support matrix shape mismatch")
        features = [FrequentSubgraph(graph, set()) for graph in graphs]
        space = FeatureSpace(features, n, supports, support_counts=counts)
        mapping = DSPreservedMapping(space=space, selected=list(range(p)))

        mapping._build_engine(lattice)

        baseline = payload.get("selection_baseline")
        if baseline is not None:
            if len(baseline) != p:
                raise _corrupt("selection baseline length mismatch")
            mapping._support_baseline = np.asarray(baseline, dtype=np.int64)
        mapping.stale = bool(payload.get("stale", False))

        for entry in self.journal:
            mapping.replay_mutation(entry)
        mapping.artifact_ref = payload.get("artifact_id")
        mapping.journal_seq = len(self.journal)
        mapping.mutation_log.clear()
        # After replay (which clears derived caches): a proximity graph
        # whose recorded seq matches the replayed journal describes this
        # exact database state — restored seq-gated, but attached lazily
        # so mmap loads stay O(manifest).
        _restore_graph(mapping, payload, len(self.journal))
        # A load must always succeed; drift past the (default) policy
        # threshold is reported through the flag, never raised.
        if mapping.support_drift > mapping.staleness_policy.max_drift:
            mapping.stale = True
        return mapping

    def _payload_supports(self, counts: np.ndarray):
        """The payload's support matrix and its shape.

        The matrix is checked against the manifest's *counts*, and the
        manifest with it against its ``artifact_id``, when it is read:
        before this returns, or, for an artifact opened with
        ``mmap=True``, in the deferred read (a zero-argument callable)
        the feature space makes at its first bit, which verifies the
        pages too.  Page checksums cover only the payload, so the
        identity is what catches a corrupted lattice, feature graph or
        label codec.
        """
        if self.arrays is None and self.reader is None:
            raise PayloadMissingError(
                "artifact has no binary payload attached"
            )

        def read() -> np.ndarray:
            supports = (
                self.reader.materialize("supports")
                if self.arrays is None
                else self.arrays["supports"]
            )
            if not np.array_equal(
                np.bitwise_count(supports).sum(axis=1), counts
            ):
                raise _corrupt(
                    "support counts disagree with the support matrix"
                )
            expected = self.payload.get("artifact_id")
            if _artifact_id(self.payload, supports) != expected:
                raise ChecksumError(
                    f"manifest content does not match its artifact_id "
                    f"{expected!r} — a corrupted lattice, feature graph or "
                    "label codec would silently change answers"
                )
            return supports

        if self.arrays is None:
            return tuple(self.reader.arrays_meta["supports"]["shape"]), read
        return self.arrays["supports"].shape, read()

    def _restore_lattice(self, p: int) -> FeatureLattice:
        lat = self.payload.get("lattice")
        if not isinstance(lat, dict):
            raise _corrupt("missing lattice")
        if len(lat["ancestors"]) != p:
            raise LatticeShapeError(
                "corrupt mapping file: lattice does not match the "
                f"feature count (got {len(lat['ancestors'])}, expected {p})"
            )
        try:
            return FeatureLattice.from_ancestors(
                [int(r) for r in lat["order"]],
                lat["ancestors"],
                vf2_checks=int(lat.get("vf2_checks", 0)),
            )
        except ValueError as exc:
            raise _corrupt(str(exc)) from exc

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write a full base as a new generation and commit it.

        The pages go, fsynced, to a file no generation at *path* used;
        the manifest naming them then replaces *path* (:func:`_commit`).
        Cut anywhere before that rename, the previous generation loads.
        The new generation has no journal yet.
        """
        if self.arrays is None:
            raise PayloadMissingError(
                "cannot save an artifact without its binary payload"
            )
        path = Path(path)
        # Numbered, not named by the artifact id: a compaction with
        # nothing pending reproduces the id of the generation it replaces.
        n = max(_generation_names(path).values(), default=0) + 1
        manifest = dict(self.payload)
        manifest["payload"] = write_paged_payload(
            path.with_name(f"{path.name}.{n}.pages"), self.arrays
        )
        _commit(path, manifest)

    @classmethod
    def load(cls, path: PathLike, mmap: bool = False) -> "IndexArtifact":
        """Read the artifact whose manifest is at *path*.

        The page table is validated and the payload's size checked here;
        every page is verified before returning or, with ``mmap=True``,
        on the first touch of its array (through a deferred read).
        """
        path = Path(path)
        payload = _read_manifest(path)
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise _unsupported(f"format version {version!r}")
        meta = payload.get("payload")
        if not isinstance(meta, dict):
            raise _corrupt("missing binary payload metadata")
        if meta.get("layout") != PAGED_LAYOUT:
            raise _unsupported(f"payload layout {meta.get('layout')!r}")
        binary, journal = _generation_files(path, payload)
        if not binary.exists():
            raise PayloadMissingError(
                f"binary payload {binary.name!r} is missing next to the "
                "manifest"
            )
        reader = PagedPayloadReader(binary, meta)
        missing = [k for k in PAYLOAD_ARRAYS if k not in reader.arrays_meta]
        if missing:
            raise _corrupt(f"payload arrays missing: {missing}")
        journal = _read_journal(journal, payload.get("artifact_id"))
        return cls(
            payload,
            arrays=None if mmap else reader.load_all(),
            journal=journal,
            reader=reader,
        )


# ----------------------------------------------------------------------
# the module-level lifecycle API
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> Dict:
    """The parsed manifest at *path* (:class:`ManifestMissingError` when
    absent, :class:`ArtifactCorruptError` when it is not a JSON object)."""
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise ManifestMissingError(
            f"index manifest {str(path)!r} does not exist"
        ) from exc
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise _corrupt(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise _corrupt("manifest is not a JSON object")
    return manifest


#: Default journal-size trigger for auto-compaction: once the delta
#: journal outgrows this fraction of the binary base payload, replaying
#: it on load starts to rival rewriting the base, so ``save_index``
#: folds it in.  ``None`` in :func:`save_index` disables the check.
DEFAULT_AUTO_COMPACT_RATIO = 0.5


def save_index(
    mapping: DSPreservedMapping,
    path: PathLike,
    compact: bool = False,
    auto_compact_ratio: Optional[float] = None,
    layout: Optional[str] = None,
) -> None:
    """Persist *mapping* at *path* — deltas when possible.

    If *mapping* descends from the artifact already at *path* (it was
    loaded from it, or previously saved there) and the on-disk journal
    is exactly where the mapping left it, only the pending
    :attr:`~repro.core.mapping.DSPreservedMapping.mutation_log` entries
    are appended to the generation's journal, fsynced; the manifest is
    committed anew only if its proximity-graph section changed.
    Otherwise (first save, foreign path, diverged *or corrupt* journal,
    or ``compact=True``) a full base is written as a new generation —
    the live mapping holds the complete state, so this also repairs a
    damaged artifact.  A save cut short at any file operation leaves
    *path* loading as the generation before it or the one after, and
    the next save from the live mapping succeeds.

    *auto_compact_ratio* arms the journal growth threshold: after an
    append, if the journal's size exceeds that fraction of the binary
    payload's size, the journal is folded into a fresh base on the spot
    (exactly :func:`compact_index`, minus the reload).  Pass
    :data:`DEFAULT_AUTO_COMPACT_RATIO` for the recommended setting;
    the default ``None`` never compacts behind the caller's back.

    *layout* selects nothing: there is one payload layout.  The
    parameter survives only because ``bench/workloads.py`` still passes
    ``layout="paged"`` and a PR may not edit the benchmark it is judged
    by; it goes when the next benchmark PR drops the argument there.
    """
    path = Path(path)
    if layout not in (None, PAGED_LAYOUT):
        raise ValueError(f"unknown payload layout {layout!r}")
    if auto_compact_ratio is not None and auto_compact_ratio <= 0:
        raise ValueError("auto_compact_ratio must be positive (or None)")
    if not compact and mapping.artifact_ref is not None:
        try:
            manifest = _read_manifest(path)
            pages, journal = _generation_files(path, manifest)
        except (ArtifactError, OSError):
            manifest = None  # unreadable: repaired by the full write below
        if (
            manifest is not None
            and manifest.get("format_version") == FORMAT_VERSION
            and manifest.get("kind") == ARTIFACT_KIND
            and manifest.get("artifact_id") == mapping.artifact_ref
            # A damaged base is repaired by the full write below, never
            # papered over with deltas.  An O(1) stat catches a deleted
            # or truncated payload; a same-size bit-flip fails every
            # load, and ``compact=True`` repairs it.
            and pages.exists()
            and pages.stat().st_size == manifest["payload"].get("bytes")
        ):
            try:
                existing = _read_journal(journal, mapping.artifact_ref)
            except ArtifactCorruptError:
                existing = None  # damaged journal: fall through and repair
            if existing is not None and len(existing) == mapping.journal_seq:
                _append_deltas(journal, mapping)
                if _sync_graph_section(manifest, mapping):
                    _commit(path, manifest)
                if (
                    auto_compact_ratio is not None
                    and journal.exists()
                    and journal.stat().st_size
                    > auto_compact_ratio * pages.stat().st_size
                ):
                    save_index(mapping, path, compact=True)
                return
    # Until the new generation commits, the mapping descends from none:
    # a save cut short leaves the next one a full write, which also
    # clears whatever the cut left behind.
    mapping.artifact_ref = None
    artifact = IndexArtifact.from_mapping(mapping)
    artifact.save(path)
    mapping.artifact_ref = artifact.payload["artifact_id"]
    mapping.journal_seq = 0
    mapping.mutation_log.clear()


def _append_deltas(journal: Path, mapping: DSPreservedMapping) -> None:
    """Append the mapping's pending mutations to *journal*, fsynced."""
    if not mapping.mutation_log:
        return
    lines = []
    for offset, record in enumerate(mapping.mutation_log):
        entry = {
            "seq": mapping.journal_seq + offset,
            "artifact_id": mapping.artifact_ref,
            **record,
        }
        entry["sha256"] = _entry_digest(entry)
        lines.append(json.dumps(entry, sort_keys=True))
    created = not journal.exists()
    # Cut an uncommitted tail (see _read_journal) so this append
    # continues the sequence instead of writing after garbage.
    committed = 0 if created else journal.read_bytes().rfind(b"\n") + 1
    write_synced(journal, ("\n".join(lines) + "\n").encode(), committed)
    if created:
        _fsync_dir(journal.parent)  # a new directory entry
    mapping.journal_seq += len(mapping.mutation_log)
    mapping.mutation_log.clear()


def _sync_graph_section(manifest: Dict, mapping: DSPreservedMapping) -> bool:
    """Update ``manifest["proximity_graph"]`` in place; True if changed.

    Runs on every delta-path save, so a graph maintained through
    updates, or built lazily after a load, is persisted with its
    ``seq`` at the current journal head, and an invalidated graph
    drops the stale section.  "Unchanged" is read from ``seq`` and
    whether a table exists at all, so the up-to-date case never
    re-serialises the neighbor table.
    """
    existing = manifest.get("proximity_graph")
    has_table = (
        mapping.peek_proximity_graph() is not None
        or mapping._proximity_payload is not None
    )
    if (
        isinstance(existing, dict)
        and existing.get("seq") == mapping.journal_seq
        and has_table
    ):
        # Same database state (seq), a table on both sides: the graph is
        # a pure function of that state, so the stored section is exact.
        return False
    section = _graph_payload(mapping, seq=mapping.journal_seq)
    if section is not None:
        manifest["proximity_graph"] = section
        return True
    return manifest.pop("proximity_graph", None) is not None


def load_index(path: PathLike, mmap: bool = False) -> DSPreservedMapping:
    """Reload the index artifact at *path* into a warm mapping.

    The engine comes back pre-attached with zero VF2 calls and the delta
    journal replayed.  By default every payload page is read and
    verified before the call returns.  With ``mmap=True`` the load costs
    O(manifest): the support matrix is verified and materialized, as a
    zero-copy view onto the one shared memory map, on the first read of
    a bit (a service's shard build, or a journal replay).
    ``load_mode`` records the mode.

    This is the one validated boundary for artifacts: whatever is wrong
    with the files raises an :class:`~repro.utils.errors.ArtifactError`
    subclass, never a bare ``KeyError`` / ``TypeError``.
    """
    try:
        mapping = IndexArtifact.load(path, mmap=mmap).to_mapping()
    except (ArtifactError, OSError):
        raise
    except Exception as exc:
        # The manifest is outside input: whatever a missing or
        # wrong-typed field tripped over, the finding is "corrupt".
        raise _corrupt(
            f"malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc
    mapping.load_mode = "mmap" if mmap else "eager"
    return mapping


def compact_index(path: PathLike) -> DSPreservedMapping:
    """Fold the delta journal at *path* into a fresh base.

    Loads the artifact (replaying every delta) and saves it as a new
    generation with no journal.  Returns the compacted mapping, ready to
    serve or mutate further.
    """
    mapping = load_index(path)
    save_index(mapping, path, compact=True)
    return mapping
