"""What the index artifact shares with the rest of the package.

The artifact itself — manifest, paged binary payload, delta journal —
lives in :mod:`repro.index`.  This module holds the two things its
readers and writers have in common with the serving tier:
:data:`FORMAT_VERSION`, the one format version read and written, and
:class:`LabelCodec`, which carries label *types* through the
string-only gSpan text layer (the engine's ``label_codec`` is the one
the artifact persists and both serving tiers decode wire graphs with).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.graph.labeled_graph import Label, LabeledGraph

FORMAT_VERSION = 4


class LabelCodec:
    """Round-trips graph labels through string-only serialisation.

    gSpan text stringifies labels, so a mapping saved from the synthetic
    datasets (integer labels) used to reload with *string* labels and
    silently match nothing against integer-labeled queries.  The codec
    records, per distinct label text, the original type tag (``int`` /
    ``float`` / ``str``) and converts back on load.

    Two distinct labels whose ``str()`` forms collide (e.g. ``1`` and
    ``"1"`` in the same index) cannot be represented and are rejected at
    save time — better a loud save error than a silent wrong match at
    query time.
    """

    _DECODERS = {"int": int, "float": float, "str": str}

    def __init__(self, table: Dict[str, str]) -> None:
        unknown = set(table.values()) - set(self._DECODERS)
        if unknown:
            raise ValueError(f"unknown label type tags: {sorted(unknown)}")
        self.table = dict(table)
        # Every recorded label decoded once, so decoding is one lookup.
        self._labels = {
            text: self._DECODERS[tag](text) for text, tag in table.items()
        }

    # -- construction ---------------------------------------------------
    @classmethod
    def for_graphs(cls, graphs: Iterable[LabeledGraph]) -> "LabelCodec":
        """Collect every vertex/edge label of *graphs* into a codec."""
        table: Dict[str, str] = {}
        for g in graphs:
            for v in range(g.num_vertices):
                cls._register(table, g.vertex_label(v))
            for e in g.edges():
                cls._register(table, e.label)
        return cls(table)

    @staticmethod
    def _tag_of(label: Label) -> str:
        if isinstance(label, bool):
            raise ValueError("boolean labels cannot be persisted")
        if isinstance(label, int):
            return "int"
        if isinstance(label, float):
            return "float"
        if isinstance(label, str):
            return "str"
        raise ValueError(
            f"label {label!r} of type {type(label).__name__} cannot be "
            "persisted (supported: int, float, str)"
        )

    @classmethod
    def _register(cls, table: Dict[str, str], label: Label) -> None:
        tag = cls._tag_of(label)
        text = str(label)
        if text == "" or any(c.isspace() for c in text):
            # The gSpan text layer splits records on whitespace, so such
            # a label would silently truncate on reload — reject loudly.
            raise ValueError(
                f"label {label!r} contains whitespace (or is empty) and "
                "cannot survive the gSpan text format"
            )
        prev = table.setdefault(text, tag)
        if prev != tag:
            raise ValueError(
                f"labels of types {prev!r} and {tag!r} both serialise to "
                f"{text!r}; cannot persist this label set"
            )

    # -- codec ----------------------------------------------------------
    def encode(self, label: Label) -> str:
        return str(label)

    def decode(self, text: str) -> Label:
        return self._labels.get(text, text)

    # -- payload --------------------------------------------------------
    def to_payload(self) -> Dict[str, str]:
        return dict(sorted(self.table.items()))

    @classmethod
    def from_payload(cls, payload: Dict[str, str]) -> "LabelCodec":
        return cls(payload or {})
