"""The on-disk index artifact.

The paper's economics are "pay offline, serve cheap"; a deployment adds
"mutate cheap".  Mining, the NP-hard dissimilarity matrix, DSPM
selection, and the pattern-vs-pattern VF2 lattice pass all happen once
at index-build time; :class:`IndexArtifact` persists *every* product of
that offline work (JSON manifest + page-checksummed binary ``.pages``
payload) — but nothing derivable in one pass: the VF2 pattern profiles
are rebuilt from the feature graphs at load — so a reloaded index
cold-starts its :class:`~repro.query.engine.QueryEngine` with zero VF2
calls — reading and verifying the payload at load, or memory-mapping it
and verifying each page at first touch (``load_index(path, mmap=True)``).
Incremental ``add_graphs`` / ``remove_graphs`` mutations persist as an
append-only delta journal next to the base; :func:`compact_index` folds
them back in.
"""

from repro.index.artifact import (
    DEFAULT_AUTO_COMPACT_RATIO,
    FORMAT_VERSION,
    IndexArtifact,
    compact_index,
    journal_path,
    load_index,
    payload_path,
    save_index,
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
