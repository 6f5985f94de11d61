"""The row-blocked field paths against the whole-field code they replaced.

``reference_propagate_field`` and ``reference_field_loss`` are the
whole-field versions, kept verbatim: they widen the field to float64 and
build (N, |V|) arrays over all valid pixels. The blocked versions must
match them bit for bit on random trees with quantised (tied) scores, for
float32 fields as read from files and for float64 fields, whatever share
of the pixels is ignored. ``test_tree_dp`` bounds their peak RSS.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertax.coherence import BLOCK_ELEMS, propagate_batch, propagate_field
from hiertax.evaluation import decode_field
from hiertax.fields import (
    IGNORE,
    FieldFormatError,
    LabelField,
    ScoreField,
    read_label_field,
    read_score_field,
)
from hiertax.gradcheck import random_hierarchy
from hiertax.losses import FIELD_LOSSES, batch_loss, field_loss


def reference_propagate_field(h, scores, labels):
    """Per-pixel propagate over a whole field; ignored pixels pass through."""
    scores.check_hierarchy(h)
    labels.check_hierarchy(h)
    if (scores.height, scores.width) != (labels.height, labels.width):
        raise ValueError("score and label fields have mismatched dimensions")
    flat_s = scores.scores.reshape(-1, len(h))
    flat_l = labels.leaf.reshape(-1)
    out = flat_s.copy()
    valid = flat_l != IGNORE
    if valid.any():
        out[valid] = propagate_batch(h, flat_s[valid], flat_l[valid].astype(np.int64))
    return ScoreField(scores=out.reshape(scores.scores.shape))


def reference_field_loss(h, scores, gt, which, cfg=None):
    """Mean per-pixel loss over non-ignored pixels plus the gradient field."""
    scores.check_hierarchy(h)
    gt.check_hierarchy(h)
    if (scores.height, scores.width) != (gt.height, gt.width):
        raise ValueError("score and label fields have mismatched dimensions")
    flat_s = scores.scores.reshape(-1, len(h))
    flat_l = gt.leaf.reshape(-1)
    valid = flat_l != IGNORE
    grad = np.zeros_like(flat_s)
    if not valid.any():
        return 0.0, grad.reshape(scores.scores.shape)
    values, grads = batch_loss(h, flat_s[valid], flat_l[valid].astype(np.int64), which, cfg)
    n = int(valid.sum())
    grad[valid] = grads / n
    return float(values.sum() / n), grad.reshape(scores.scores.shape)


IGNORE_PATTERNS = ("none", "some", "blocks", "all")
WIDTH = 7


def _field_case(seed: int, n_nodes: int, pattern: str, dtype):
    """A field of two to three row blocks with scores in steps of 1/7, so
    ties are common, and labels ignored by ``pattern``: nowhere, on 30% of
    the pixels, on every pixel of the first and third blocks, everywhere."""
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, n_nodes)
    step = max(1, BLOCK_ELEMS // n_nodes)
    height = (2 * step + int(rng.integers(1, step + 1))) // WIDTH + 1
    s = (rng.integers(0, 8, size=(height, WIDTH, n_nodes)) / 7).astype(dtype)
    leaf = rng.choice(np.array(h.leaves, dtype=np.uint32), size=(height, WIDTH))
    flat = leaf.reshape(-1)
    if pattern == "some":
        flat[rng.random(flat.size) < 0.3] = IGNORE
    elif pattern == "blocks":
        flat[:step] = IGNORE
        flat[2 * step:3 * step] = IGNORE
    elif pattern == "all":
        flat[:] = IGNORE
    return h, s, LabelField(leaf)


case_args = dict(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 60),
    pattern=st.sampled_from(IGNORE_PATTERNS),
    dtype=st.sampled_from([np.float32, np.float64]),
)


@given(**case_args)
def test_propagate_field_matches_whole_field_reference(seed, n_nodes, pattern, dtype):
    h, s, labels = _field_case(seed, n_nodes, pattern, dtype)
    got = propagate_field(h, ScoreField(s), labels).scores
    want = reference_propagate_field(h, ScoreField(s.astype(np.float64)), labels).scores
    assert got.dtype == dtype
    assert got.tobytes() == want.astype(dtype).tobytes()


@given(**case_args)
def test_field_loss_matches_whole_field_reference(seed, n_nodes, pattern, dtype):
    h, s, labels = _field_case(seed, n_nodes, pattern, dtype)
    for which in FIELD_LOSSES:
        value, grad = field_loss(h, ScoreField(s), labels, which)
        want_value, want_grad = reference_field_loss(
            h, ScoreField(s.astype(np.float64)), labels, which
        )
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes(), which
        assert grad.dtype == np.float64
        assert grad.tobytes() == want_grad.tobytes(), which


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 60))
def test_decode_field_float32_matches_float64_copy(seed, n_nodes):
    h, s, _ = _field_case(seed, n_nodes, "none", np.float32)
    narrow = decode_field(h, ScoreField(s)).leaf
    wide = decode_field(h, ScoreField(s.astype(np.float64))).leaf
    np.testing.assert_array_equal(narrow, wide)


@pytest.mark.parametrize("magic, dims, read", [
    (b"HSSF", (2**16, 2**15, 145), read_score_field),
    (b"HSLF", (2**16, 2**15), read_label_field),
])
def test_huge_header_on_short_file_raises_before_allocating(tmp_path, magic, dims, read):
    """A header claiming 2**31 pixels on a 64-byte payload."""
    path = tmp_path / "huge"
    path.write_bytes(magic + struct.pack(f"<{len(dims)}I", *dims) + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(FieldFormatError, match="truncated"):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_score_field_keeps_float32_and_widens_other_dtypes():
    s = np.full((1, 2, 3), 0.25, dtype=np.float32)
    assert ScoreField(s).scores is s
    assert ScoreField(s.astype(np.float16)).scores.dtype == np.float64
    assert ScoreField(s.astype(">f4")).scores.dtype == np.float64
