"""Page-chunked binary payloads: the ``.pages`` file of an index generation.

Arrays are written back to back (64-byte aligned) into one raw file and
the manifest records a SHA-256 **per fixed-size page**.  Opening the
payload is O(manifest) — the array table is validated, the file size
checked, the bytes memory-mapped — and each page is verified on the
first read that touches it.  An eager load touches every page before it
returns; an ``mmap=True`` load defers that to the first query, so a
bit-flipped payload raises :class:`~repro.utils.errors.ChecksumError`
either at load or at first touch, never silently mis-ranks.

Arrays are stored as they are held in memory — packed ``uint64`` words
(:data:`PAYLOAD_DTYPE`) — so a materialized view is handed to the
index as-is: zero conversion, zero copy, and one OS page cache shared
by every process mapping the file.
A generation's pages file is written once, under a name no earlier
generation used, and is never rewritten: a later save unlinks it, so
those maps keep the inode and the bytes they verified.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.utils.errors import ArtifactCorruptError, ChecksumError

#: Fixed page size of the paged layout (1 MiB): large enough that the
#: manifest's hash list stays small (64 hex chars per MiB of payload),
#: small enough that touching one array corner does not verify the
#: whole file.
PAGE_SIZE = 1 << 20

#: Array start alignment inside the pages file, so uint64 views onto
#: the uint8 mapping are always aligned.
ARRAY_ALIGN = 64

PAGED_LAYOUT = "paged"

#: The one dtype the writer emits and the reader accepts: the packed
#: words the index holds in memory, so a mapped view needs no conversion.
PAYLOAD_DTYPE = np.dtype(np.uint64)


def write_synced(path: Path, data: bytes, at: int = 0) -> None:
    """Write *data* at byte *at* of *path* (created if absent), drop what
    followed, fsync.  Every write of the index artifact goes through
    here; ``at=0`` replaces a file's whole content."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        os.ftruncate(fd, at)
        os.lseek(fd, at, os.SEEK_SET)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.fsync(fd)
    finally:
        os.close(fd)


def write_paged_payload(path: Path, arrays: Dict[str, np.ndarray]) -> Dict:
    """Write *arrays* as one raw paged file; return its manifest metadata.

    Arrays are converted to :data:`PAYLOAD_DTYPE` and laid out
    back to back at :data:`ARRAY_ALIGN` boundaries, and the file is
    fsynced before this returns.  The returned dict is the manifest's
    ``payload`` section: file name, layout, page size,
    per-page SHA-256 list, total byte count, and per-array
    shape/dtype/offset/nbytes.
    """
    chunks: List[bytes] = []
    arrays_meta: Dict[str, Dict] = {}
    offset = 0
    for name, array in arrays.items():
        stored = np.ascontiguousarray(array, dtype=PAYLOAD_DTYPE)
        pad = (-offset) % ARRAY_ALIGN
        if pad:
            chunks.append(b"\0" * pad)
            offset += pad
        data = stored.tobytes()
        arrays_meta[name] = {
            "shape": list(stored.shape),
            "dtype": str(stored.dtype),
            "offset": offset,
            "nbytes": len(data),
        }
        chunks.append(data)
        offset += len(data)
    blob = b"".join(chunks)
    write_synced(path, blob)
    pages = [
        hashlib.sha256(blob[lo : lo + PAGE_SIZE]).hexdigest()
        for lo in range(0, len(blob), PAGE_SIZE)
    ]
    return {
        "file": path.name,
        "layout": PAGED_LAYOUT,
        "page_size": PAGE_SIZE,
        "bytes": len(blob),
        "pages": pages,
        "arrays": arrays_meta,
    }


def _corrupt(detail: str) -> ArtifactCorruptError:
    return ArtifactCorruptError(f"corrupt mapping file: {detail}")


def _is_count(value) -> bool:
    """A JSON non-negative integer (``true`` is not one)."""
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


class PagedPayloadReader:
    """Lazy, checksum-on-first-touch view over a paged payload file.

    Opening validates the manifest's ``payload`` section — it is outside
    input — down to every array entry, checks the file size against the
    recorded byte count (a short read catches truncation immediately)
    and memory-maps the bytes read-only, so nothing malformed is left to
    surface at first touch.  :meth:`materialize` verifies exactly the
    pages covering one array (memoized — each page is hashed at most
    once per reader) and then returns a dtype view onto the shared
    mapping, copying nothing.
    """

    def __init__(self, path: Path, meta: Dict) -> None:
        self.path = Path(path)
        page_size, total, pages, arrays = (
            meta.get(key) for key in ("page_size", "bytes", "pages", "arrays")
        )
        if not (
            _is_count(page_size)
            and page_size >= 1
            and _is_count(total)
            and isinstance(pages, list)
            and isinstance(arrays, dict)
        ):
            raise _corrupt("malformed paged payload metadata")
        if len(pages) != -(-total // page_size):
            raise _corrupt(
                "payload page count does not match its byte count"
            )
        self.page_size = page_size
        self.total_bytes = total
        self.pages = pages
        self.arrays_meta = arrays
        for name, spec in arrays.items():
            self._check_entry(name, spec)
        try:
            size = self.path.stat().st_size
        except OSError as exc:
            raise ChecksumError(
                f"paged payload {self.path.name!r} is unreadable: {exc}"
            ) from exc
        if size != self.total_bytes:
            raise ChecksumError(
                f"paged payload {self.path.name!r} is "
                f"{size} bytes, manifest records {self.total_bytes} — "
                "truncated or corrupted"
            )
        self._mm = (
            np.memmap(self.path, dtype=np.uint8, mode="r")
            if self.total_bytes
            else np.zeros(0, dtype=np.uint8)
        )
        self._verified = [False] * len(self.pages)

    def _check_entry(self, name: str, spec) -> None:
        """One array entry: typed fields, inside the file, sizes agree."""
        if not isinstance(spec, dict):
            raise _corrupt(f"payload array {name!r} entry is not an object")
        offset, nbytes, shape = (
            spec.get(key) for key in ("offset", "nbytes", "shape")
        )
        if not (
            _is_count(offset)
            and offset % ARRAY_ALIGN == 0
            and _is_count(nbytes)
            and isinstance(shape, list)
            and all(_is_count(s) for s in shape)
        ):
            raise _corrupt(
                f"payload array {name!r} has a malformed offset, byte "
                "count or shape"
            )
        if spec.get("dtype") != PAYLOAD_DTYPE.name:
            raise _corrupt(
                f"payload array {name!r} is not {PAYLOAD_DTYPE.name} "
                f"(dtype={spec.get('dtype')!r})"
            )
        if offset + nbytes > self.total_bytes:
            raise _corrupt(
                f"payload array {name!r} extends past the payload"
            )
        if nbytes != PAYLOAD_DTYPE.itemsize * math.prod(shape):
            raise _corrupt(
                f"payload array {name!r} byte count does not match its "
                "shape/dtype"
            )

    def _verify_span(self, offset: int, nbytes: int) -> None:
        """Checksum every not-yet-verified page covering the byte span."""
        if nbytes == 0:
            return
        first = offset // self.page_size
        last = (offset + nbytes - 1) // self.page_size
        for page in range(first, last + 1):
            if self._verified[page]:
                continue
            lo = page * self.page_size
            hi = min(lo + self.page_size, self.total_bytes)
            digest = hashlib.sha256(self._mm[lo:hi]).hexdigest()
            if digest != self.pages[page]:
                raise ChecksumError(
                    f"paged payload {self.path.name!r} page {page} fails "
                    "its checksum — truncated or corrupted"
                )
            self._verified[page] = True

    def materialize(self, name: str) -> np.ndarray:
        """Verify the pages of array *name*; return a zero-copy view."""
        spec = self.arrays_meta[name]
        offset, nbytes = spec["offset"], spec["nbytes"]
        self._verify_span(offset, nbytes)
        view = self._mm[offset : offset + nbytes].view(PAYLOAD_DTYPE)
        return view.reshape(spec["shape"])

    def load_all(self) -> Dict[str, np.ndarray]:
        """Materialize every array (the eager path over a paged file)."""
        return {name: self.materialize(name) for name in self.arrays_meta}
