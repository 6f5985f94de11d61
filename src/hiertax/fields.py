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
file size before they allocate, then read the payload straight into one
array; writers write the array's buffer as it is. The field paths
(``propagate_field``, ``field_loss``, ``decode_field``) widen one row
block at a time, so their temporaries are block-sized whatever the field.
"""

from __future__ import annotations

import math
import os
import struct
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
        # NaN propagates through min/max and +-inf falls outside the range,
        # so no whole-field mask is needed; min() raises on an empty field.
        if s.size and not (s.min() >= 0.0 and s.max() <= 1.0):
            raise ValueError("scores must lie in [0, 1]")
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
    """The payload of a field file as one fresh array of the header's shape.

    The file size is checked against the header before anything is
    allocated, so a corrupt header cannot ask for more than the file holds.
    """
    head_len = 4 + 4 * ndim
    with open(path, "rb") as f:
        head = f.read(head_len)
        if len(head) < head_len or head[:4] != magic:
            raise FieldFormatError(f"not a {kind} field file (bad magic)")
        shape = struct.unpack(f"<{ndim}I", head[4:])
        expect = head_len + 4 * math.prod(shape)
        got = os.fstat(f.fileno()).st_size
        if got != expect:
            raise FieldFormatError(f"truncated {kind} field: expected {expect} bytes, got {got}")
        data = np.empty(shape, dtype=dtype)
        if f.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise FieldFormatError(f"truncated {kind} field: file shrank while reading")
    return data


def write_score_field(path, field: ScoreField) -> None:
    with open(path, "wb") as f:
        f.write(_SCORE_MAGIC)
        f.write(struct.pack("<III", field.height, field.width, field.num_classes))
        f.write(np.ascontiguousarray(field.scores, dtype="<f4"))


def read_score_field(path) -> ScoreField:
    return ScoreField(scores=_read_payload(path, _SCORE_MAGIC, 3, "<f4", "score"))


def write_label_field(path, field: LabelField) -> None:
    with open(path, "wb") as f:
        f.write(_LABEL_MAGIC)
        f.write(struct.pack("<II", field.height, field.width))
        f.write(np.ascontiguousarray(field.leaf, dtype="<u4"))


def read_label_field(path) -> LabelField:
    return LabelField(leaf=_read_payload(path, _LABEL_MAGIC, 2, "<u4", "label"))
