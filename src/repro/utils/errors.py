"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`GraphDimensionError` so
callers can catch everything coming out of this package with one handler.
"""


class GraphDimensionError(Exception):
    """Base class for every error raised by the repro package."""


class InvalidGraphError(GraphDimensionError):
    """Raised when a graph violates a structural invariant.

    Examples: duplicate vertex ids, an edge endpoint that does not exist,
    or a self loop where none is allowed.
    """


class MiningError(GraphDimensionError):
    """Raised when frequent-subgraph mining receives invalid parameters."""


class SelectionError(GraphDimensionError):
    """Raised when a feature-selection algorithm receives invalid input.

    For example requesting more features than exist, or passing an empty
    feature universe.
    """


class QueryError(GraphDimensionError):
    """Raised for invalid top-k query parameters (e.g. k <= 0)."""


class ArtifactError(GraphDimensionError, ValueError):
    """Base class for on-disk index-artifact problems.

    Also a :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` around :func:`~repro.index.load_index` keep working.
    """


class FormatVersionError(ArtifactError):
    """Raised for an artifact whose format version is not supported."""


class ArtifactCorruptError(ArtifactError):
    """Raised when an artifact's contents are structurally inconsistent."""


class ChecksumError(ArtifactCorruptError):
    """Raised when artifact bytes fail their recorded checksum.

    Covers the binary payload (a truncated ``.pages`` file at open, a
    bit-flipped page when it is first read), the manifest's derived
    sections and tampered delta-journal entries.
    """


class PayloadMissingError(ArtifactError):
    """Raised when a manifest's binary payload sidecar is absent."""


class ManifestMissingError(ArtifactError):
    """Raised when the index manifest itself is absent at the load path.

    Distinct from :class:`PayloadMissingError` (manifest present, binary
    sidecar gone) so operators can tell "wrong path / deleted index"
    apart from "half-deleted index" at a glance.
    """


class CodecMissingError(ArtifactCorruptError):
    """Raised when an artifact lacks its label codec.

    Tolerating a dropped codec would silently bring labels back as
    strings that match no integer-labeled query, so it fails loudly.
    """


class LatticeShapeError(ArtifactCorruptError):
    """Raised when a persisted lattice does not match the feature count."""


class JournalError(ArtifactCorruptError):
    """Raised when the delta journal is unreadable or out of sequence."""


class ServingError(GraphDimensionError):
    """Base class for errors raised by the serving front-end."""


class AdmissionError(ServingError):
    """A request the front-end refused to admit.

    Carries the structured rejection the NDJSON protocol sends back:
    ``code`` is one of ``"quota_exceeded"``, ``"overloaded"`` or
    ``"shutting_down"``, and ``retry_after`` is the seconds a
    well-behaved client should wait before retrying (``None`` when
    retrying is pointless, i.e. the server is draining).
    """

    def __init__(self, code: str, message: str, retry_after=None) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


class ReplicaError(ServingError):
    """A replica transport failure seen by the router tier.

    Raised when a replica dies, disconnects, or answers garbage while a
    request is in flight.  The router catches it to fail the replica
    over — it never reaches a client; admitted queries are retried on a
    healthy replica instead.
    """


class ProtocolError(ServingError):
    """A malformed NDJSON request (bad JSON, unknown op, bad graph).

    ``detail`` optionally carries a JSON-safe structured payload the
    front-end attaches to the ``bad_request`` response (e.g.
    ``{"allowed_modes": [...]}`` for an unknown search mode), so
    clients can react programmatically instead of parsing the message.
    ``request_id`` is the ``id`` of the rejected line when it parsed to
    an object (:func:`repro.serving.protocol.parse_request` sets it).
    """

    def __init__(self, message: str, detail=None) -> None:
        super().__init__(message)
        self.detail = detail
        self.request_id = None
