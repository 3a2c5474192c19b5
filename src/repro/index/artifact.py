"""The format-v3 index artifact: a mutable index's on-disk lifecycle.

Format v1 (``repro.core.persistence``) persisted the mapping alone; v2
added every offline product the online path needs (feature lattice,
pattern profiles, squared norms, label codec) embedded in one JSON
document, so reloads cold-start with zero VF2 calls.  Format v3 keeps
that contract and makes the artifact **mutable and binary**:

* the heavy arrays — database vectors and squared norms — move out of
  JSON into a compressed ``.npz`` sidecar (``<path>.npz``), whose
  SHA-256 is recorded in the manifest and verified on load: a truncated
  or bit-flipped payload raises :class:`~repro.utils.errors.ChecksumError`
  instead of mis-ranking silently;
* an **append-only delta journal** (``<path>.journal``, JSON lines,
  each entry checksummed and sequence-numbered) records incremental
  :meth:`~repro.core.mapping.DSPreservedMapping.add_graphs` /
  :meth:`~repro.core.mapping.DSPreservedMapping.remove_graphs`
  mutations.  :func:`save_index` on a mapping that descends from the
  artifact on disk appends deltas instead of rewriting the payload;
  :func:`load_index` replays them (pure array work — zero VF2) and
  :func:`compact_index` folds them back into a fresh base.

v1 and v2 files still load through the existing fallbacks; saving always
produces v3.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.lazy import LazyArray
from repro.core.mapping import DSPreservedMapping
from repro.index.paged import (
    PAGED_LAYOUT,
    PagedPayloadReader,
    write_paged_payload,
)
from repro.core.persistence import (
    FORMAT_VERSION,
    LEGACY_FORMAT_VERSION,
    V2_FORMAT_VERSION,
    LabelCodec,
    _load_v1,
)
from repro.features.binary_matrix import FeatureSpace
from repro.graph.io import dumps_gspan, loads_gspan
from repro.isomorphism.vf2 import PatternProfile
from repro.mining.gspan import FrequentSubgraph
from repro.query.engine import FeatureLattice
from repro.utils.errors import (
    ArtifactCorruptError,
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

#: The arrays a v3 binary payload must carry, in manifest order.
PAYLOAD_ARRAYS = ("database_vectors", "database_sq_norms")

__all__ = [
    "DEFAULT_AUTO_COMPACT_RATIO",
    "FORMAT_VERSION",
    "IndexArtifact",
    "compact_index",
    "journal_path",
    "load_index",
    "paged_payload_path",
    "payload_path",
    "save_index",
    "save_index_v2",
]


def _corrupt(detail: str) -> ArtifactCorruptError:
    return ArtifactCorruptError(f"corrupt mapping file: {detail}")


def payload_path(path: PathLike) -> Path:
    """The default (npz) binary sidecar of a v3 manifest at *path*."""
    return Path(str(path) + ".npz")


def paged_payload_path(path: PathLike) -> Path:
    """The paged-layout binary sidecar of a v3 manifest at *path*."""
    return Path(str(path) + ".pages")


def _sidecar_path(path: Path, meta: Optional[Dict]) -> Path:
    """The binary sidecar the manifest's payload section points at.

    The ``file`` field names the sidecar (``.npz`` for the default
    layout, ``.pages`` for the paged one); manifests from before the
    field default to the npz sidecar.  The name is constrained to the
    manifest's own directory — a manifest must not be able to point the
    loader at an arbitrary filesystem path.
    """
    name = meta.get("file") if isinstance(meta, dict) else None
    if isinstance(name, str) and name == Path(name).name:
        return path.parent / name
    return payload_path(path)


def journal_path(path: PathLike) -> Path:
    """The delta-journal sidecar of a v3 manifest at *path*."""
    return Path(str(path) + ".journal")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry_digest(entry: Dict) -> str:
    """Checksum of one journal entry (its ``sha256`` field excluded)."""
    body = {k: v for k, v in entry.items() if k != "sha256"}
    return _sha256_bytes(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    )


def _read_journal(path: Path, artifact_id: str) -> List[Dict]:
    """Parse and verify the delta journal for *artifact_id*.

    Every entry must carry a valid checksum, name the base artifact, and
    continue the sequence without gaps — anything else fails loudly.
    """
    if not path.exists():
        return []
    entries: List[Dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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


#: Most shard layouts persisted per manifest.  The in-memory cache may
#: hold more (several routers over one index), but each persisted
#: layout repeats every database row id — bounding the manifest bloat
#: to the most recently used few keeps delta saves cheap at scale.
MAX_PERSISTED_SUMMARY_LAYOUTS = 2


def _persisted_layout_items(mapping: DSPreservedMapping):
    """The cache entries that would be persisted (most recent last)."""
    items = list(mapping.shard_summary_cache.items())
    return items[-MAX_PERSISTED_SUMMARY_LAYOUTS:]


def _summaries_payload(
    mapping: DSPreservedMapping, seq: int
) -> Optional[Dict]:
    """Serialise the mapping's shard-summary cache (``None`` when empty).

    *seq* records the journal position the summaries describe — ``0``
    for a fresh base (the state is fully folded in), the post-append
    journal head for a delta save.  A loader only restores them when
    its replayed journal is exactly that long, so stale geometry can
    never survive a divergent history.  The section carries its own
    checksum: summaries steer exact-mode shard skipping, so corrupted
    geometry must fail the load loudly like every other
    result-affecting artifact section, not silently mis-prune.
    """
    items = _persisted_layout_items(mapping)
    if not items:
        return None
    section = {
        "seq": int(seq),
        "layouts": [
            {
                "blocks": [[int(i) for i in block] for block in key],
                "summaries": [s.to_payload() for s in summaries],
            }
            for key, summaries in items
        ],
    }
    section["sha256"] = _entry_digest(section)
    return section


def _restore_summaries(
    mapping: DSPreservedMapping, payload: Dict, journal_len: int
) -> None:
    """Attach persisted shard summaries to a freshly loaded mapping.

    Restores only when the recorded ``seq`` matches the journal length
    actually replayed — otherwise the stored geometry describes a
    different database state and is silently dropped (the next service
    build recomputes lazily and the next save re-persists).  Malformed
    sections fail loudly like every other corrupt manifest field.
    """
    from repro.query.pruning import ShardSummary

    section = payload.get("shard_summaries")
    if section is None:
        return
    if not isinstance(section, dict) or not isinstance(
        section.get("layouts"), list
    ):
        raise _corrupt("malformed shard_summaries section")
    if section.get("sha256") != _entry_digest(section):
        raise ChecksumError(
            "shard_summaries section fails its checksum — corrupted "
            "pruning geometry would silently break exact-mode answers"
        )
    if section.get("seq") != journal_len:
        return
    p = mapping.dimensionality
    n = mapping.space.n
    for layout in section["layouts"]:
        blocks = layout.get("blocks")
        entries = layout.get("summaries")
        if (
            not isinstance(blocks, list)
            or not isinstance(entries, list)
            or len(blocks) != len(entries)
        ):
            raise _corrupt("shard summary layout/summaries mismatch")
        ids = sorted(int(i) for block in blocks for i in block)
        if ids != list(range(n)):
            raise _corrupt(
                "shard summary layout does not partition the database"
            )
        try:
            summaries = [
                ShardSummary.from_payload(entry, p) for entry in entries
            ]
        except (KeyError, TypeError, ValueError, QueryError) as exc:
            raise _corrupt(f"unreadable shard summary: {exc}") from exc
        mapping.store_shard_summaries(
            tuple(tuple(int(i) for i in block) for block in blocks),
            summaries,
        )


def _graph_payload(mapping: DSPreservedMapping, seq: int) -> Optional[Dict]:
    """Serialise the mapping's proximity graph (``None`` when absent).

    Like the shard summaries: *seq* pins the journal position the
    neighbor table describes, and the section carries its own checksum
    — a corrupted table would silently degrade (or bias) every
    graph-mode answer, so it must fail the load loudly instead.  Only
    neighbor ids are stored; distances are re-derived from the vectors
    on first use and the tree backbone is implicit in the row count.
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

    The section is validated structurally here (checksum, shape, id
    range, no self-links/duplicates) but *attached* lazily — deriving
    the neighbor distances needs the vectors, and touching those would
    break the O(manifest) mmap cold start.  A ``seq`` that does not
    match the replayed journal means the table describes a different
    database state: silently dropped, and the graph tier lazily
    rebuilds (then re-persists) exactly like pre-graph artifacts
    backfill.
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
    n = mapping.space.n
    max_degree = section.get("max_degree")
    neighbors = section["neighbors"]
    if not isinstance(max_degree, int) or max_degree < 1:
        raise _corrupt("proximity_graph: bad max_degree")
    m = min(max_degree, max(n - 1, 0))
    try:
        table = np.asarray(neighbors, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise _corrupt(f"proximity_graph: unreadable neighbors: {exc}")
    if table.shape != (n, m):
        raise _corrupt(
            f"proximity_graph: neighbor table is {table.shape}, "
            f"expected {(n, m)}"
        )
    if m:
        if table.min() < 0 or table.max() >= n:
            raise _corrupt("proximity_graph: neighbor id out of range")
        if (table == np.arange(n, dtype=np.int64)[:, None]).any():
            raise _corrupt("proximity_graph: self-link")
        if m > 1 and any(np.unique(row).size != m for row in table):
            raise _corrupt("proximity_graph: duplicate neighbor")
    mapping.store_proximity_payload(
        {"max_degree": max_degree, "neighbors": neighbors}
    )


@dataclass
class IndexArtifact:
    """A parsed index artifact: manifest + binary arrays + journal.

    ``payload`` holds the JSON manifest (a complete v2 document for v2
    files).  For v3, ``arrays`` carries the binary payload and
    ``journal`` the verified delta entries.  Construct with
    :meth:`from_mapping` (serialising a built index) or :meth:`load`
    (reading a saved one); turn back into a live, fully warmed mapping
    with :meth:`to_mapping`.
    """

    payload: Dict
    arrays: Optional[Dict[str, np.ndarray]] = None
    journal: List[Dict] = field(default_factory=list)
    #: Set for paged-layout payloads: the lazy page-verified reader.
    #: When ``arrays`` is ``None`` alongside it, the artifact was opened
    #: with ``mmap=True`` and hands out deferred handles instead of
    #: materialized arrays.
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
        supports and vectors, so the result is a clean v3 *base* (empty
        journal).
        """
        engine = mapping.query_engine()
        lattice, profiles = engine.selected_offline_products()
        p = mapping.dimensionality

        features = mapping.selected_features()
        codec = LabelCodec.for_graphs([f.graph for f in features])

        def counts_payload(counts: Dict) -> List[Tuple[str, int]]:
            return sorted(
                ((codec.encode(lab), int(n)) for lab, n in counts.items())
            )

        arrays = {
            "database_vectors": mapping.database_vectors.astype(np.uint8),
            "database_sq_norms": mapping.database_sq_norms.astype(np.int64),
        }
        payload = {
            "format_version": FORMAT_VERSION,
            "kind": ARTIFACT_KIND,
            "database_size": mapping.space.n,
            "dimensionality": p,
            "feature_graphs": dumps_gspan([f.graph for f in features]),
            "feature_supports": [sorted(f.support) for f in features],
            # The staleness contract survives persistence: drift is
            # measured against the supports at *selection* time, not at
            # the last save/compaction, so the baseline rides along.
            "selection_baseline": [
                int(v) for v in mapping._support_baseline
            ],
            "stale": bool(mapping.stale),
            "label_codec": codec.to_payload(),
            "lattice": {
                "order": [int(r) for r in lattice.order],
                "ancestors": [
                    [int(a) for a in anc] for anc in lattice.ancestors
                ],
                "vf2_checks": int(lattice.vf2_checks),
            },
            "pattern_profiles": [
                {
                    "vertex_label_counts": counts_payload(
                        prof.vertex_label_counts
                    ),
                    "edge_label_counts": counts_payload(
                        prof.edge_label_counts
                    ),
                    "degrees_desc": list(prof.degrees_desc),
                    "search_order": list(prof.search_order),
                }
                for prof in profiles
            ],
            "payload": {
                "sha256": None,  # of the .npz file; filled in by save()
                "arrays": {
                    name: {
                        "shape": list(array.shape),
                        "dtype": str(array.dtype),
                    }
                    for name, array in arrays.items()
                },
            },
        }
        # A deterministic content identity (independent of npz
        # compression bytes): the manifest core plus the raw array data.
        # Derived sections — the payload metadata, the shard-summary
        # cache, and the proximity graph — stay out of the digest, so
        # the same index state keeps the same identity whether or not a
        # service warmed them.
        digest = hashlib.sha256()
        digest.update(
            json.dumps(
                {
                    k: v
                    for k, v in payload.items()
                    if k not in (
                        "payload", "shard_summaries", "proximity_graph"
                    )
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
        for name in PAYLOAD_ARRAYS:
            digest.update(arrays[name].tobytes())
        payload["artifact_id"] = digest.hexdigest()[:16]
        summaries = _summaries_payload(mapping, seq=0)
        if summaries is not None:
            payload["shard_summaries"] = summaries
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
        lattice, the pattern profiles, and the database squared norms.
        The engine is wired in through the mapping's single construction
        point, so nothing can later race it with a stale rebuild.  For
        v3, the delta journal is then replayed (pure array updates — no
        VF2) and the mapping remembers its base artifact so the next
        :func:`save_index` can append instead of rewriting.
        """
        payload = self.payload
        version = payload.get("format_version")
        if version not in (V2_FORMAT_VERSION, FORMAT_VERSION):
            raise FormatVersionError(
                f"unsupported mapping format version {version!r}"
            )
        kind = payload.get("kind")
        if kind != ARTIFACT_KIND:
            raise ArtifactCorruptError(
                f"not a {ARTIFACT_KIND!r} artifact (kind={kind!r})"
            )

        codec_payload = payload.get("label_codec")
        if not isinstance(codec_payload, dict) or not codec_payload:
            # Tolerating a dropped codec would silently reintroduce the
            # string-label mismatch bug v2 exists to fix.
            raise CodecMissingError(
                "corrupt mapping file: missing label codec"
            )
        codec = LabelCodec.from_payload(codec_payload)
        graphs = [
            codec.decode_graph(g)
            for g in loads_gspan(payload["feature_graphs"])
        ]
        supports = payload["feature_supports"]
        if len(graphs) != len(supports):
            raise _corrupt("feature/support count mismatch")
        features = [
            FrequentSubgraph(graph, set(support))
            for graph, support in zip(graphs, supports)
        ]
        n = int(payload["database_size"])
        p = int(payload["dimensionality"])
        if len(features) != p:
            raise _corrupt("feature/dimensionality count mismatch")
        space = FeatureSpace(features, n)

        vectors, sq_norms = self._payload_arrays(version)
        if tuple(vectors.shape) != (n, p):
            raise _corrupt("embedding shape mismatch")
        mapping = DSPreservedMapping(
            space=space,
            selected=list(range(p)),
            database_vectors=vectors,
        )

        if sq_norms is not None:
            if sq_norms.shape != (n,):
                raise _corrupt("squared-norm shape mismatch")
            if not np.array_equal(sq_norms, (vectors**2).sum(axis=1)):
                raise _corrupt("squared norms disagree with vectors")
            mapping.database_sq_norms = sq_norms
        # mmap mode: sq_norms stay deferred — the mapping's cached
        # property derives them from the (lazily verified) vectors on
        # first distance call, which is also when the vectors-vs-norms
        # cross-check would first matter.

        mapping._build_engine(
            lattice=self._restore_lattice(p),
            pattern_profiles=self._restore_profiles(features, codec),
        )

        baseline = payload.get("selection_baseline")
        if baseline is not None:
            if len(baseline) != p:
                raise _corrupt("selection baseline length mismatch")
            mapping._support_baseline = np.asarray(baseline, dtype=np.int64)
        mapping.stale = bool(payload.get("stale", False))

        if version == FORMAT_VERSION:
            for entry in self.journal:
                mapping.replay_mutation(entry)
            if self.journal:
                mapping._refresh_after_mutation()
            mapping.artifact_ref = payload.get("artifact_id")
            mapping.journal_seq = len(self.journal)
            mapping.mutation_log.clear()
        # After replay (which clears derived caches): shard summaries
        # whose recorded seq matches the replayed journal describe this
        # exact database state, so the serving tier cold-starts with
        # zero summary recomputation.
        _restore_summaries(mapping, payload, len(self.journal))
        # Same deal for the proximity graph — restored seq-gated, but
        # attached lazily so mmap loads stay O(manifest).
        _restore_graph(mapping, payload, len(self.journal))
        # A load must always succeed; drift past the (default) policy
        # threshold is reported through the flag, never raised.
        if mapping.support_drift > mapping.staleness_policy.max_drift:
            mapping.stale = True
        return mapping

    def _payload_arrays(self, version: int):
        """The (vectors, sq_norms) pair from binary (v3) or JSON (v2).

        For an artifact opened with ``mmap=True`` the vectors come back
        as a :class:`~repro.core.lazy.LazyArray` handle and the norms as
        ``None`` (derived lazily from the vectors on first use).
        """
        if version == FORMAT_VERSION:
            if self.arrays is None:
                if self.reader is not None:
                    return self.reader.lazy("database_vectors"), None
                raise PayloadMissingError(
                    "v3 artifact has no binary payload attached"
                )
            missing = [k for k in PAYLOAD_ARRAYS if k not in self.arrays]
            if missing:
                raise _corrupt(f"payload arrays missing: {missing}")
            vectors = np.asarray(
                self.arrays["database_vectors"], dtype=float
            )
            sq_norms = np.asarray(
                self.arrays["database_sq_norms"], dtype=float
            )
        else:
            vectors = np.asarray(self.payload["database_vectors"], dtype=float)
            sq_norms = np.asarray(
                self.payload["database_sq_norms"], dtype=float
            )
        return vectors, sq_norms

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

    def _restore_profiles(
        self, features: List[FrequentSubgraph], codec: LabelCodec
    ) -> List[PatternProfile]:
        entries = self.payload.get("pattern_profiles")
        if not isinstance(entries, list) or len(entries) != len(features):
            raise _corrupt("pattern profile count mismatch")

        def decode_counts(pairs) -> Dict:
            return {codec.decode(text): int(n) for text, n in pairs}

        return [
            PatternProfile.restore(
                feature.graph,
                decode_counts(entry["vertex_label_counts"]),
                decode_counts(entry["edge_label_counts"]),
                [int(d) for d in entry["degrees_desc"]],
                [int(v) for v in entry["search_order"]],
            )
            for feature, entry in zip(features, entries)
        ]

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def save(self, path: PathLike, layout: str = "npz") -> None:
        """Write a full v3 base: manifest + binary payload, fresh journal.

        *layout* picks the sidecar format: ``"npz"`` (default — one
        compressed file, one whole-file SHA-256, always verified
        eagerly) or ``"paged"`` (raw page-chunked bytes with per-page
        checksums, the layout :func:`load_index` can memory-map).  The
        checksums go into the manifest *after* the bytes are written,
        any existing delta journal is removed — a full write starts a
        new mutation history — and a sidecar left behind by the other
        layout is cleaned up so the manifest never has two competing
        payloads next to it.
        """
        if self.arrays is None:
            raise PayloadMissingError(
                "cannot save an artifact without its binary payload"
            )
        if layout not in ("npz", PAGED_LAYOUT):
            raise ValueError(f"unknown payload layout {layout!r}")
        path = Path(path)
        manifest = dict(self.payload)
        if layout == PAGED_LAYOUT:
            manifest["payload"] = write_paged_payload(
                paged_payload_path(path), self.arrays
            )
            stale_sidecar = payload_path(path)
        else:
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **self.arrays)
            data = buffer.getvalue()
            payload_path(path).write_bytes(data)
            manifest["payload"] = {
                "file": payload_path(path).name,
                "sha256": _sha256_bytes(data),
                "bytes": len(data),
                "arrays": {
                    name: {
                        "shape": list(array.shape),
                        "dtype": str(array.dtype),
                    }
                    for name, array in self.arrays.items()
                },
            }
            stale_sidecar = paged_payload_path(path)
        path.write_text(json.dumps(manifest))
        journal = journal_path(path)
        if journal.exists():
            journal.unlink()
        if stale_sidecar.exists():
            stale_sidecar.unlink()

    @classmethod
    def load(cls, path: PathLike, mmap: bool = False) -> "IndexArtifact":
        """Read a v2 or v3 artifact, verifying every v3 checksum."""
        path = Path(path)
        return cls.from_payload(
            json.loads(_read_manifest(path)), path, mmap=mmap
        )

    @classmethod
    def from_payload(
        cls, payload: Dict, path: Path, mmap: bool = False
    ) -> "IndexArtifact":
        """Build from an already-parsed manifest (*path* locates the v3
        sidecars) — lets :func:`load_index` parse the JSON exactly once.

        With ``mmap=True`` a paged-layout payload is opened without
        reading it: the artifact carries a lazy reader whose pages are
        verified on first touch instead of materialized arrays.  Npz
        payloads have a single whole-file checksum and no random-access
        layout, so ``mmap=True`` on them quietly degrades to the eager
        read — the flag is a capability request, not a format assertion.
        """
        version = payload.get("format_version")
        if version == V2_FORMAT_VERSION:
            return cls(payload)
        if version != FORMAT_VERSION:
            raise FormatVersionError(
                f"unsupported mapping format version {version!r}"
            )
        meta = payload.get("payload")
        if not isinstance(meta, dict) or not isinstance(
            meta.get("arrays"), dict
        ):
            raise _corrupt("missing binary payload metadata")
        binary = _sidecar_path(path, meta)
        if not binary.exists():
            raise PayloadMissingError(
                f"binary payload {binary.name!r} is missing next to the "
                "manifest"
            )
        if meta.get("layout") == PAGED_LAYOUT:
            reader = PagedPayloadReader(binary, meta)
            journal = _read_journal(
                journal_path(path), payload.get("artifact_id")
            )
            missing = [
                k for k in PAYLOAD_ARRAYS if k not in reader.arrays_meta
            ]
            if missing:
                raise _corrupt(f"payload arrays missing: {missing}")
            if mmap:
                return cls(
                    payload, arrays=None, journal=journal, reader=reader
                )
            return cls(
                payload,
                arrays=reader.load_all(),
                journal=journal,
                reader=reader,
            )
        data = binary.read_bytes()
        if _sha256_bytes(data) != meta.get("sha256"):
            raise ChecksumError(
                f"binary payload {binary.name!r} fails its checksum — "
                "truncated or corrupted"
            )
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        except (ValueError, OSError, KeyError) as exc:
            raise _corrupt(f"unreadable binary payload: {exc}") from exc
        for name, spec in meta["arrays"].items():
            if name not in arrays:
                raise _corrupt(f"payload array {name!r} missing")
            array = arrays[name]
            if list(array.shape) != list(spec.get("shape", [])) or str(
                array.dtype
            ) != spec.get("dtype"):
                raise _corrupt(
                    f"payload array {name!r} does not match its manifest "
                    "shape/dtype"
                )
        journal = _read_journal(
            journal_path(path), payload.get("artifact_id")
        )
        return cls(payload, arrays=arrays, journal=journal)


# ----------------------------------------------------------------------
# the module-level lifecycle API
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> str:
    """The manifest text at *path*, or :class:`ManifestMissingError`."""
    try:
        return path.read_text()
    except FileNotFoundError as exc:
        raise ManifestMissingError(
            f"index manifest {str(path)!r} does not exist"
        ) from exc


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
    """Persist *mapping* as format v3 — deltas when possible.

    If *mapping* descends from the v3 artifact already at *path* (it was
    loaded from it, or previously saved there) and the on-disk journal
    is exactly where the mapping left it, only the pending
    :attr:`~repro.core.mapping.DSPreservedMapping.mutation_log` entries
    are appended to the delta journal — the binary payload is not
    rewritten.  Otherwise (first save, foreign path, diverged *or
    corrupt* journal, or ``compact=True``) a full base is written and
    the journal reset — the live mapping holds the complete state, so
    a full write also repairs an artifact whose journal was damaged.

    *auto_compact_ratio* arms the journal growth threshold: after an
    append, if the journal's size exceeds that fraction of the binary
    payload's size, the journal is folded into a fresh base on the spot
    (exactly :func:`compact_index`, minus the reload).  Pass
    :data:`DEFAULT_AUTO_COMPACT_RATIO` for the recommended setting;
    the default ``None`` never compacts behind the caller's back.

    *layout* selects the binary payload layout for a full write:
    ``"npz"`` (compressed, eagerly verified) or ``"paged"`` (raw
    page-chunked bytes :func:`load_index` can memory-map).  The default
    ``None`` preserves whatever layout is already on disk at *path*
    (npz for fresh paths).  Delta appends never rewrite the payload, so
    the flag only matters on the full-write path.
    """
    path = Path(path)
    if auto_compact_ratio is not None and auto_compact_ratio <= 0:
        raise ValueError("auto_compact_ratio must be positive (or None)")
    if not compact and mapping.artifact_ref is not None and path.exists():
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            manifest = None
        if (
            isinstance(manifest, dict)
            and manifest.get("format_version") == FORMAT_VERSION
            and manifest.get("kind") == ARTIFACT_KIND
            and manifest.get("artifact_id") == mapping.artifact_ref
            # A damaged base (sidecar deleted, truncated, or bit-flipped)
            # must be repaired by a full write, not papered over with
            # deltas nothing can replay onto — the live mapping holds
            # the complete state, so verify before trusting the base.
            and _payload_intact(path, manifest)
        ):
            meta = manifest.get("payload")
            if isinstance(meta, dict) and "bytes" not in meta:
                # Pre-"bytes" v3 manifest: the intact check above had
                # to hash the whole payload.  Record its size now so
                # every future append pays a stat, not a re-hash.
                meta["bytes"] = _sidecar_path(path, meta).stat().st_size
                path.write_text(json.dumps(manifest))
            try:
                existing = _read_journal(
                    journal_path(path), mapping.artifact_ref
                )
            except ArtifactCorruptError:
                existing = None  # damaged journal: fall through and repair
            if existing is not None and len(existing) == mapping.journal_seq:
                _append_deltas(path, mapping)
                _sync_manifest_derived(path, manifest, mapping)
                if auto_compact_ratio is not None and _journal_oversized(
                    path, manifest, auto_compact_ratio
                ):
                    save_index(mapping, path, compact=True)
                return
    resolved_layout = _resolve_layout(path, layout)
    artifact = IndexArtifact.from_mapping(mapping)
    artifact.save(path, layout=resolved_layout)
    mapping.artifact_ref = artifact.payload["artifact_id"]
    mapping.journal_seq = 0
    mapping.mutation_log.clear()


def _payload_intact(path: Path, manifest: Dict) -> bool:
    """True when the binary sidecar exists at its recorded size.

    This guards the *append* fast path, so it must stay O(1): a stat
    against the manifest's recorded byte count catches deletion and
    truncation without re-reading a potentially huge base on every
    delta save.  Same-size bit-flips are caught where every load
    already pays the full SHA-256 (:meth:`IndexArtifact.from_payload`);
    repairing one eagerly takes an explicit full save
    (``compact=True``).  Manifests from before the ``bytes`` field fall
    back to the full hash; :func:`save_index` then records the size in
    the manifest so the hash is paid once, not per append.
    """
    meta = manifest.get("payload")
    if not isinstance(meta, dict):
        return False
    sidecar = _sidecar_path(path, meta)
    try:
        size = sidecar.stat().st_size
    except OSError:
        return False
    recorded = meta.get("bytes")
    if recorded is not None:
        try:
            return size == int(recorded)
        except (TypeError, ValueError):
            return False  # junk manifest field: repair with a full write
    try:
        data = sidecar.read_bytes()
    except OSError:
        return False
    return _sha256_bytes(data) == meta.get("sha256")


def _journal_oversized(path: Path, manifest: Dict, ratio: float) -> bool:
    """True when the delta journal outgrew *ratio* × the base payload."""
    journal = journal_path(path)
    if not journal.exists():
        return False
    try:
        base_bytes = _sidecar_path(path, manifest.get("payload")).stat().st_size
    except OSError:
        return False
    return journal.stat().st_size > ratio * base_bytes


def _resolve_layout(path: Path, layout: Optional[str]) -> str:
    """The payload layout a full write at *path* should use.

    An explicit *layout* wins; ``None`` preserves the layout of the v3
    manifest already at *path* (so re-saves, auto-compaction, and
    :func:`compact_index` never silently flip a paged artifact back to
    npz), defaulting to ``"npz"`` for fresh paths.
    """
    if layout is not None:
        return layout
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return "npz"
    if (
        isinstance(manifest, dict)
        and manifest.get("format_version") == FORMAT_VERSION
    ):
        meta = manifest.get("payload")
        if isinstance(meta, dict) and meta.get("layout") == PAGED_LAYOUT:
            return PAGED_LAYOUT
    return "npz"


def _append_deltas(path: Path, mapping: DSPreservedMapping) -> None:
    """Append the mapping's pending mutations to the delta journal."""
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
    with journal_path(path).open("a") as handle:
        handle.write("\n".join(lines) + "\n")
    mapping.journal_seq += len(mapping.mutation_log)
    mapping.mutation_log.clear()


def _sync_manifest_derived(
    path: Path, manifest: Dict, mapping: DSPreservedMapping
) -> None:
    """Bring the manifest's derived sections up to the mapping's state.

    Runs on every delta-path save (the manifest is small JSON — the
    whole point of the delta path is not rewriting the *binary*
    payload), so shard summaries and the proximity graph maintained
    through :meth:`QueryService.apply_update
    <repro.serving.service.QueryService.apply_update>` — or computed
    lazily after loading a pre-section artifact — are persisted with
    their ``seq`` at the current journal head, and a mapping whose
    caches were invalidated drops the stale sections.  The manifest is
    written at most once, and not at all when nothing changed — for
    summaries that is detected from ``seq`` + the layout keys alone
    (summaries are a pure function of database state and layout, and
    ``seq`` pins the database state), so the up-to-date case never
    re-serialises the float payload; for the graph, from ``seq`` plus
    whether a table exists at all (same pure-function argument).
    """
    changed = _sync_summaries_section(manifest, mapping)
    changed = _sync_graph_section(manifest, mapping) or changed
    if changed:
        path.write_text(json.dumps(manifest))


def _sync_summaries_section(
    manifest: Dict, mapping: DSPreservedMapping
) -> bool:
    """Update ``manifest["shard_summaries"]`` in place; True if changed."""
    existing = manifest.get("shard_summaries")
    items = _persisted_layout_items(mapping)
    if (
        isinstance(existing, dict)
        and existing.get("seq") == mapping.journal_seq
        and isinstance(existing.get("layouts"), list)
        and [layout.get("blocks") for layout in existing["layouts"]]
        == [
            [[int(i) for i in block] for block in key]
            for key, _summaries in items
        ]
    ):
        return False
    summaries = _summaries_payload(mapping, seq=mapping.journal_seq)
    if summaries is not None:
        manifest["shard_summaries"] = summaries
        return True
    if "shard_summaries" not in manifest:
        return False
    manifest.pop("shard_summaries", None)
    return True


def _sync_graph_section(manifest: Dict, mapping: DSPreservedMapping) -> bool:
    """Update ``manifest["proximity_graph"]`` in place; True if changed."""
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
        # Same database state (seq) and a table exists on both sides —
        # the canonical graph is a pure function of that state, so the
        # stored section is already exact.
        return False
    section = _graph_payload(mapping, seq=mapping.journal_seq)
    if section is not None:
        manifest["proximity_graph"] = section
        return True
    if "proximity_graph" not in manifest:
        return False
    manifest.pop("proximity_graph", None)
    return True


def load_index(path: PathLike, mmap: bool = False) -> DSPreservedMapping:
    """Reload an index artifact into a warm mapping (v1/v2/v3).

    * v3 — binary payload verified against its checksum, engine
      pre-attached with zero VF2 calls, delta journal replayed.
    * v2 — the embedded-JSON document, engine pre-attached (the
      pre-binary fallback).
    * v1 — mapping data only; the engine rebuilds its lattice on first
      use and labels come back as strings (the documented legacy caveat).

    With ``mmap=True`` a paged-layout v3 payload is memory-mapped
    instead of read: the load costs O(manifest) and the database vectors
    are materialized (page checksums verified, zero-copy float64 views)
    on the first query that needs them.  Services built over the same
    mapping share the one OS page cache.  Non-paged artifacts quietly
    load eagerly.  The mapping records the wall-clock cost and mode in
    ``load_seconds`` / ``load_mode`` (``"eager"`` or ``"mmap"``).
    """
    start = time.perf_counter()
    path = Path(path)
    payload = json.loads(_read_manifest(path))
    if payload.get("format_version") == LEGACY_FORMAT_VERSION:
        mapping = _load_v1(payload)
        mode = "eager"
    else:
        artifact = IndexArtifact.from_payload(payload, path, mmap=mmap)
        mapping = artifact.to_mapping()
        mode = (
            "mmap"
            if artifact.arrays is None and artifact.reader is not None
            else "eager"
        )
    mapping.load_seconds = time.perf_counter() - start
    mapping.load_mode = mode
    return mapping


def compact_index(path: PathLike) -> DSPreservedMapping:
    """Fold the delta journal at *path* into a fresh v3 base.

    Loads the artifact (replaying every delta), rewrites the full binary
    payload — preserving the on-disk payload layout — and truncates the
    journal.  Returns the compacted mapping, ready to serve or mutate
    further.
    """
    mapping = load_index(path)
    save_index(mapping, path, compact=True)
    return mapping


def save_index_v2(mapping: DSPreservedMapping, path: PathLike) -> None:
    """Write the legacy single-JSON v2 document (embedded arrays).

    Kept for backward-compat testing and for producing files readable by
    pre-v3 deployments; new code should use :func:`save_index`.
    """
    artifact = IndexArtifact.from_mapping(mapping)
    payload = {
        k: v
        for k, v in artifact.payload.items()
        if k not in (
            "payload", "artifact_id", "shard_summaries", "proximity_graph"
        )
    }
    payload["format_version"] = V2_FORMAT_VERSION
    payload["database_vectors"] = (
        artifact.arrays["database_vectors"].astype(int).tolist()
    )
    payload["database_sq_norms"] = [
        int(v) for v in artifact.arrays["database_sq_norms"]
    ]
    Path(path).write_text(json.dumps(payload))
