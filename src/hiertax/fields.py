"""Dense per-pixel score and label fields plus their binary file formats.

Score fields (``.hssf``): magic ``HSSF``, three little-endian uint32 dims
(H, W, num_classes), then H*W*num_classes little-endian float32 values in
row-major order with the class axis fastest.

Label fields (``.hslf``): magic ``HSLF``, two little-endian uint32 dims
(H, W), then H*W little-endian uint32 leaf ids; 0xFFFFFFFF marks ignored
pixels.

``ScoreField`` keeps a float32 array as float32, so a field read from a
file stays in the file's precision and is never widened as a whole; any
other dtype is converted to float64. Readers check the header against the
file size, then map the file read-only and view its payload in place: no
copy is made, and a process holds only the pages it reads. So a field
read from a file is read-only. Pages of a mapped score field are given
back after use by ``page_dropper``, the one place that drops pages. It has
two callers: ``ScoreField``'s [0, 1] check reads a mapped field one chunk
at a time and drops each chunk's pages after it, so reading a field does
not make it resident; and ``coherence.run_blocks``, the walker of the
field paths (``propagate_field``, ``field_loss``, ``decode_field``), drops
the rows each of its processes has run in spans of ``CHECK_CHUNK_BYTES``,
so about one span of the input is resident in a process at once. The
field paths widen one row block at a time, so their temporaries are
block-sized whatever the field; their outputs are still whole arrays.

Writers write a new file beside the target and rename it onto the path,
so a field mapped from the old file keeps its bytes, even when it is
written back to the path it was read from. If another program truncates
or rewrites a mapped file in place while a field read from it is alive,
the result is undefined: reading a page past the new end kills the
process with SIGBUS.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .taxonomy import ClassHierarchy

IGNORE = 0xFFFFFFFF

_SCORE_MAGIC = b"HSSF"
_LABEL_MAGIC = b"HSLF"


class FieldFormatError(ValueError):
    """Malformed .hssf/.hslf payload."""


@dataclass
class ScoreField:
    """H x W grid of per-class score vectors in [0, 1]."""

    scores: np.ndarray  # (H, W, |V|) float32 or float64

    def __post_init__(self):
        s = np.asarray(self.scores)
        if s.dtype != np.float32:
            s = s.astype(np.float64, copy=False)
        if s.ndim != 3:
            raise ValueError(f"scores must be 3-d (H, W, classes), got shape {s.shape}")
        _check_unit_range(s)
        self.scores = s

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[2]

    def check_hierarchy(self, h: ClassHierarchy) -> None:
        if self.num_classes != len(h):
            raise ValueError(
                f"score field has {self.num_classes} classes, hierarchy has {len(h)}"
            )


# The [0, 1] check reads this many bytes at a time, and every process that
# runs a mapped field's rows gives their pages back in spans of this size,
# so about this much of a mapped field is resident in a process at once.
# On a 2-core VM the check took 8-10 ms on a 76 MB mapped field with 1, 2
# or 4 MB chunks.
CHECK_CHUNK_BYTES = 1 << 21

# A page drop reaches this far past each end of the rows it gives back,
# for the file pages that fault-around and large page-cache folios map
# beyond the rows a process reads, or map back after a drop. Where the
# kernel does that, serial decode_field on a 76 MB mapped field was
# measured to grow by 47 MB with drops of each block's exact rows, and by
# 0.4 MB with this margin. On a 2-core ext4 VM (Linux 6.18) the same call
# grew by 6.9 MB with exact-row drops and by 5.1 MB with 2 MB spans,
# margin or not; the margin cost no CPU that could be told from noise.
DROP_MARGIN_BYTES = 1 << 19


def _check_unit_range(s: np.ndarray) -> None:
    """Raise ``ValueError`` unless every score lies in [0, 1]. A contiguous
    array is read one ``CHECK_CHUNK_BYTES`` chunk at a time, and when it is
    a field file's map each chunk's pages are dropped after the check:
    they are the file's, so a later read faults them in again."""
    if not s.size:  # min() raises on an empty array
        return
    flat, chunks = s, [slice(None)]
    if s.flags.c_contiguous:
        flat = s.reshape(-1)
        step = CHECK_CHUNK_BYTES // s.itemsize
        chunks = (slice(i, min(i + step, flat.size)) for i in range(0, flat.size, step))
    ran = page_dropper(flat)
    for rows in chunks:
        # NaN propagates through min/max and +-inf falls outside the
        # range, so no mask is needed.
        if not (flat[rows].min() >= 0.0 and flat[rows].max() <= 1.0):
            raise ValueError("scores must lie in [0, 1]")
        ran(rows)
    ran()


# The maps ``_read_payload`` made. Only their pages are ever dropped: a
# dropped page of a read-only file map reads back from the file, but
# MADV_DONTNEED zeroes a private or anonymous map's pages.
_FILE_MAPS: weakref.WeakSet = weakref.WeakSet()


def _file_mapping(a: np.ndarray) -> tuple[mmap.mmap, int] | None:
    """The ``_read_payload`` map that ``a`` views and its start address,
    or None."""
    while isinstance(a, np.ndarray):
        a = a.base
    if isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap) and a.obj in _FILE_MAPS:
        return a.obj, np.frombuffer(a, np.uint8).ctypes.data
    return None


def page_dropper(a: np.ndarray) -> Callable[..., None]:
    """``ran(rows)``, to call after each use of ``a[rows]``, and ``ran()``,
    to call at the end, which gives back the pages of every row run since
    the last drop.

    When ``a`` is a C-contiguous view of a field file's map, ``ran`` joins
    adjacent row slices, from either end, into one span and drops its pages
    (``MADV_DONTNEED``, ``DROP_MARGIN_BYTES`` wider on each side) once it
    reaches ``CHECK_CHUNK_BYTES`` or a slice does not touch it. So about
    one span of ``a`` stays resident, and one ``madvise`` serves a span of
    blocks. Each process keeps its own span, from the one its parent had
    at the fork. For any other array ``ran`` does nothing, so memory that
    holds data of its own is never dropped."""
    mapping = _file_mapping(a) if a.ndim and a.flags.c_contiguous else None
    if mapping is None:
        return lambda rows=None: None
    buf, start = mapping
    first = a.ctypes.data - start  # where a[0] lies in buf
    row_bytes = a.itemsize * math.prod(a.shape[1:])
    span = [0, 0]  # [lo, hi) bytes of buf not yet dropped; empty when equal

    def ran(rows: slice | None = None) -> None:
        if rows is not None:
            lo, hi = first + rows.start * row_bytes, first + rows.stop * row_bytes
            if lo == span[1]:
                span[1] = hi
            elif hi == span[0]:
                span[0] = lo
            else:
                ran()
                span[:] = lo, hi
            if span[1] - span[0] < CHECK_CHUNK_BYTES:
                return
        lo, hi = span
        span[:] = 0, 0
        if lo < hi:
            lo = max(0, lo - DROP_MARGIN_BYTES)
            lo -= lo % mmap.PAGESIZE
            # mmap clips the length to the end of the map.
            buf.madvise(mmap.MADV_DONTNEED, lo, hi + DROP_MARGIN_BYTES - lo)

    return ran


@dataclass
class LabelField:
    """H x W grid of ground-truth leaf ids, with an ignore sentinel."""

    leaf: np.ndarray  # (H, W) uint32

    def __post_init__(self):
        l = np.asarray(self.leaf)
        if l.dtype != np.uint32:
            # Casting would wrap negative or wide ids and truncate floats.
            if l.dtype.kind not in "iu":
                raise ValueError(f"label ids must be integers, got dtype {l.dtype}")
            if l.size and (l.min() < 0 or l.max() > IGNORE):
                raise ValueError(
                    f"label ids must lie in [0, {IGNORE}], got values in [{l.min()}, {l.max()}]"
                )
            l = l.astype(np.uint32)
        if l.ndim != 2:
            raise ValueError(f"labels must be 2-d (H, W), got shape {l.shape}")
        self.leaf = l

    @property
    def height(self) -> int:
        return self.leaf.shape[0]

    @property
    def width(self) -> int:
        return self.leaf.shape[1]

    def valid_mask(self) -> np.ndarray:
        return self.leaf != IGNORE

    def check_hierarchy(self, h: ClassHierarchy) -> None:
        """Raises ``ValueError`` naming the first non-ignored non-leaf id."""
        h.leaf_positions(self.leaf[self.valid_mask()])


def _read_payload(path, magic: bytes, ndim: int, dtype: str, kind: str) -> np.ndarray:
    """The payload of a field file as a read-only array of the header's
    shape, viewing a read-only map of the file.

    The file size is checked against the header before anything is
    mapped, so a corrupt header cannot ask for more than the file holds.
    """
    head_len = 4 + 4 * ndim
    with open(path, "rb") as f:
        head = f.read(head_len)
        if len(head) < head_len or head[:4] != magic:
            raise FieldFormatError(f"not a {kind} field file (bad magic)")
        shape = struct.unpack(f"<{ndim}I", head[4:])
        count = math.prod(shape)
        expect = head_len + 4 * count
        got = os.fstat(f.fileno()).st_size
        if got != expect:
            raise FieldFormatError(f"truncated {kind} field: expected {expect} bytes, got {got}")
        # A map starts on a page, so it covers the header too; the map
        # keeps its own reference to the file after ``f`` is closed.
        try:
            buf = mmap.mmap(f.fileno(), expect, access=mmap.ACCESS_READ)
        except ValueError:  # mmap checks the size again
            raise FieldFormatError(f"truncated {kind} field: file shrank while mapping") from None
    _FILE_MAPS.add(buf)
    return np.frombuffer(buf, dtype=dtype, count=count, offset=head_len).reshape(shape)


def _write_field(path, head: bytes, payload: np.ndarray) -> None:
    """Write ``head`` and ``payload`` to a new file in ``path``'s directory,
    then rename it onto ``path``: the old file, which a live field may
    map, is never truncated. The new file gets the mode that
    ``open(path, "wb")`` would give it."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.write(head)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_score_field(path, field: ScoreField) -> None:
    head = _SCORE_MAGIC + struct.pack("<III", field.height, field.width, field.num_classes)
    _write_field(path, head, np.ascontiguousarray(field.scores, dtype="<f4"))


def read_score_field(path) -> ScoreField:
    return ScoreField(scores=_read_payload(path, _SCORE_MAGIC, 3, "<f4", "score"))


def write_label_field(path, field: LabelField) -> None:
    head = _LABEL_MAGIC + struct.pack("<II", field.height, field.width)
    _write_field(path, head, np.ascontiguousarray(field.leaf, dtype="<u4"))


def read_label_field(path) -> LabelField:
    return LabelField(leaf=_read_payload(path, _LABEL_MAGIC, 2, "<u4", "label"))
