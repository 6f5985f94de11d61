"""Dense per-pixel score and label fields plus their binary file formats.

Score fields (``.hssf``): magic ``HSSF``, three little-endian uint32 dims
(H, W, num_classes), then H*W*num_classes little-endian float32 values in
row-major order with the class axis fastest.

Label fields (``.hslf``): magic ``HSLF``, two little-endian uint32 dims
(H, W), then H*W little-endian uint32 leaf ids; 0xFFFFFFFF marks ignored
pixels.
"""

from __future__ import annotations

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

    scores: np.ndarray  # (H, W, |V|) float

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=np.float64)
        if s.ndim != 3:
            raise ValueError(f"scores must be 3-d (H, W, classes), got shape {s.shape}")
        if np.any(s < 0.0) or np.any(s > 1.0) or not np.all(np.isfinite(s)):
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
        l = np.asarray(self.leaf, dtype=np.uint32)
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
        valid = self.leaf[self.valid_mask()]
        if valid.size and (np.any(valid >= len(h)) or np.any(h.leaf_index[valid] < 0)):
            raise ValueError("label field contains non-leaf ids for this hierarchy")


def write_score_field(path, field: ScoreField) -> None:
    with open(path, "wb") as f:
        f.write(_SCORE_MAGIC)
        f.write(struct.pack("<III", field.height, field.width, field.num_classes))
        f.write(field.scores.astype("<f4").tobytes())


def read_score_field(path) -> ScoreField:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16 or raw[:4] != _SCORE_MAGIC:
        raise FieldFormatError("not a score field file (bad magic)")
    h, w, c = struct.unpack("<III", raw[4:16])
    expect = 16 + 4 * h * w * c
    if len(raw) != expect:
        raise FieldFormatError(f"truncated score field: expected {expect} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4", offset=16).reshape(h, w, c)
    return ScoreField(scores=data.astype(np.float64))


def write_label_field(path, field: LabelField) -> None:
    with open(path, "wb") as f:
        f.write(_LABEL_MAGIC)
        f.write(struct.pack("<II", field.height, field.width))
        f.write(field.leaf.astype("<u4").tobytes())


def read_label_field(path) -> LabelField:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != _LABEL_MAGIC:
        raise FieldFormatError("not a label field file (bad magic)")
    h, w = struct.unpack("<II", raw[4:12])
    expect = 12 + 4 * h * w
    if len(raw) != expect:
        raise FieldFormatError(f"truncated label field: expected {expect} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<u4", offset=12).reshape(h, w)
    return LabelField(leaf=data.copy())
