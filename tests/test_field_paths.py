"""The row-blocked field paths against the whole-field code they replaced.

``reference_propagate_field`` and ``reference_field_loss`` are the
whole-field versions, kept verbatim: they widen the field to float64 and
build (N, |V|) arrays over all valid pixels. The blocked versions must
match them bit for bit on random trees with quantised (tied) scores, for
float32 fields as read from files and for float64 fields, whatever share
of the pixels is ignored. ``test_tree_dp`` bounds their peak RSS.

The field paths split the row blocks of their score rows between forked
``run_blocks`` workers. The worker tests force the worker count through a
patched CPU count, so they fork on a one-CPU machine too, and check that
no child outlives a call. The tests of ``block_workers`` itself run one
round on blocks of any kind; rounds with a ``first`` callable check that
the children take the caller's blocks while it runs, and that errors and
descriptors are handled as in a plain round.
"""

import contextlib
import mmap
import os
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertax import coherence, fields
from hiertax.coherence import (
    BLOCK_ELEMS,
    MIN_BLOCKS,
    block_workers,
    propagate_batch,
    propagate_field,
    run_blocks,
    shared_zeros,
)
from hiertax.evaluation import decode_field
from hiertax.fields import (
    CHECK_CHUNK_BYTES,
    IGNORE,
    FieldFormatError,
    LabelField,
    ScoreField,
    read_label_field,
    read_score_field,
    write_score_field,
)
from hiertax.gradcheck import random_hierarchy
from hiertax.losses import FIELD_LOSSES, batch_loss, field_loss
from hiertax.taxonomy import load_taxonomy

from conftest import TAX_DIR, assert_no_child_left, counted_forks, use_cpus


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


@pytest.mark.parametrize("run", [
    lambda h, s, l: propagate_field(h, s, l),
    lambda h, s, l: field_loss(h, s, l, "ftm"),
], ids=["propagate_field", "field_loss"])
def test_field_pair_checked_before_reshaping(tiny, run):
    """The class count is checked before the field is reshaped to |V| columns."""
    scores = ScoreField(np.full((2, 3, 4), 0.5))
    labels = LabelField(np.full((2, 3), 3, dtype=np.uint32))
    with pytest.raises(ValueError, match="score field has 4 classes, hierarchy has 5"):
        run(tiny, scores, labels)


def test_field_pair_dimensions_checked(tiny):
    """A 2x3 score field and a 3x2 label field hold as many pixels, so
    only the dimension check tells them apart."""
    scores = ScoreField(np.full((2, 3, 5), 0.5))
    labels = LabelField(np.full((3, 2), 3, dtype=np.uint32))
    for run in (propagate_field, lambda h, s, l: field_loss(h, s, l, "ftm")):
        with pytest.raises(ValueError, match="^score and label fields have mismatched dimensions$"):
            run(tiny, scores, labels)


def test_score_field_keeps_float32_and_widens_other_dtypes():
    s = np.full((1, 2, 3), 0.25, dtype=np.float32)
    assert ScoreField(s).scores is s
    assert ScoreField(s.astype(np.float16)).scores.dtype == np.float64
    assert ScoreField(s.astype(">f4")).scores.dtype == np.float64


def _mapillary_case(dtype):
    """A 100x128 Mapillary field: 115 blocks of 112 rows, enough for three
    workers, with 10% of the pixels ignored."""
    h = load_taxonomy(os.path.join(TAX_DIR, "mapillary_vistas.tax"))
    rng = np.random.default_rng(4)
    shape = (100, 128)
    s = rng.random((*shape, len(h))).astype(dtype)
    leaf = np.array(h.leaves, dtype=np.uint32)[rng.integers(0, len(h.leaves), size=shape)]
    leaf[rng.random(shape) < 0.1] = IGNORE
    leaf[-1, -1] = h.leaves[0]  # the last pixel, in the last worker's range, counts
    return h, ScoreField(s), LabelField(leaf)


def _field_outputs(h, scores, labels) -> dict:
    out = {
        "propagate": propagate_field(h, scores, labels).scores,
        "decode": decode_field(h, scores).leaf,
    }
    for which in FIELD_LOSSES:
        value, out[which] = field_loss(h, scores, labels, which)
        out[which + " value"] = np.float64(value)
    return out


def _assert_same_outputs(got: dict, want: dict) -> None:
    for key, value in want.items():
        assert got[key].dtype == value.dtype, key
        assert got[key].tobytes() == value.tobytes(), key


# propagate_field, decode_field and field_loss of each kind
FIELD_CALLS = 2 + len(FIELD_LOSSES)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_worker_outputs_equal_serial_outputs(monkeypatch, dtype):
    h, scores, labels = _mapillary_case(dtype)
    use_cpus(monkeypatch, 1)
    serial = _field_outputs(h, scores, labels)
    pids = counted_forks(monkeypatch)
    use_cpus(monkeypatch, 3)
    _assert_same_outputs(_field_outputs(h, scores, labels), serial)
    assert len(pids) == 2 * FIELD_CALLS
    assert_no_child_left()


@pytest.mark.parametrize("children", [0, 1])
def test_a_failed_fork_gives_the_serial_result(monkeypatch, children):
    """Each call's first fork succeeds or not, its second fails; the caller
    takes over every block no child was given."""
    h, scores, labels = _mapillary_case(np.float32)
    use_cpus(monkeypatch, 1)
    serial = _field_outputs(h, scores, labels)
    pids = counted_forks(monkeypatch, lambda attempt: not children or attempt % 2)
    use_cpus(monkeypatch, 3)
    _assert_same_outputs(_field_outputs(h, scores, labels), serial)
    assert len(pids) == children * FIELD_CALLS
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_blocks_calls_work_once_on_each_block_itself(monkeypatch, cpus):
    """Not on a list or range of blocks: on each object of ``blocks``, in a
    child as in the caller. A forked child holds the caller's objects at
    their addresses, so ``id`` names them in every process."""
    use_cpus(monkeypatch, cpus)
    pids = counted_forks(monkeypatch)
    blocks = [object() for _ in range(3 * MIN_BLOCKS)]
    index = {id(b): i for i, b in enumerate(blocks)}
    calls = shared_zeros((len(blocks),), np.int64)

    def work(block):
        calls[index[id(block)]] += 1

    with block_workers(blocks, work) as run_round:
        run_round()
    assert len(pids) == cpus - 1
    assert calls.tolist() == [1] * len(blocks)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
def test_run_blocks_walks_the_row_blocks_of_its_scores(monkeypatch, cpus):
    """``work`` gets each ``row_blocks(h, len(s))`` slice once, in a child
    as in the caller. The 100 blocks, the last one short, are no multiple
    of ``MIN_BLOCKS``, so the workers' ranges differ in length."""
    h = load_taxonomy(os.path.join(TAX_DIR, "mapillary_vistas.tax"))
    s = np.zeros((99 * (BLOCK_ELEMS // len(h)) + 5, len(h)), np.float32)
    blocks = coherence.row_blocks(h, len(s))
    assert len(blocks) == 100
    index = {rows.start: i for i, rows in enumerate(blocks)}
    got = shared_zeros((len(blocks), 2), np.int64)  # per block: calls, stop
    use_cpus(monkeypatch, cpus)
    pids = counted_forks(monkeypatch)

    def work(rows):
        i = index[rows.start]
        got[i] = got[i, 0] + 1, rows.stop
        assert rows.step is None

    run_blocks(h, s, work)
    assert len(pids) == cpus - 1
    assert got.tolist() == [[1, rows.stop] for rows in blocks]
    assert_no_child_left()


def test_a_workers_exception_reaches_the_caller(monkeypatch):
    """The same type and message, from the first failing range. Each child
    raises on its own range before it could take a block of the caller's."""
    use_cpus(monkeypatch, 3)

    def work(block):
        if coherence._in_worker:
            raise LookupError(f"range from block {block}")

    with pytest.raises(LookupError) as raised:
        with block_workers(list(range(3 * MIN_BLOCKS)), work) as run_round:
            run_round()
    assert type(raised.value) is LookupError
    assert str(raised.value) == f"range from block {MIN_BLOCKS}"
    assert_no_child_left()


def test_a_nan_set_after_construction_raises_through_a_worker(monkeypatch):
    h, scores, labels = _mapillary_case(np.float32)
    scores.scores[-1, -1, 0] = np.nan
    use_cpus(monkeypatch, 3)
    pids = counted_forks(monkeypatch)
    for run in _field_runs(h, scores, labels):
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            run()
    assert len(pids) == 2 * FIELD_CALLS
    assert_no_child_left()


def _field_runs(h, scores, labels) -> list:
    runs = [lambda: propagate_field(h, scores, labels), lambda: decode_field(h, scores)]
    return runs + [lambda w=w: field_loss(h, scores, labels, w) for w in FIELD_LOSSES]


def test_a_nan_at_an_ignored_pixel_raises_on_every_path(tiny):
    """Ignored pixels are never scored, but a NaN among them is still
    rejected, as decoding, which sees no labels, rejects it."""
    scores = ScoreField(np.full((2, 3, 5), 0.5))
    leaf = np.full((2, 3), 3, dtype=np.uint32)
    leaf[0, 0] = IGNORE
    scores.scores[0, 0, 1] = np.nan  # written after the field's own check
    for run in _field_runs(tiny, scores, LabelField(leaf)):
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            run()
    leaf[:] = IGNORE  # no valid pixel left to run a kernel on
    for run in _field_runs(tiny, scores, LabelField(leaf)):
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            run()


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_nan_at_an_ignored_pixel_raises_in_its_worker(monkeypatch, cpus):
    h, scores, labels = _mapillary_case(np.float32)
    ignored = np.flatnonzero(labels.leaf.reshape(-1) == IGNORE)
    scores.scores.reshape(-1, len(h))[ignored[-1], 7] = np.nan  # in the last range
    use_cpus(monkeypatch, cpus)
    pids = counted_forks(monkeypatch)
    for run in _field_runs(h, scores, labels):
        with pytest.raises(ValueError, match="^scores must not be NaN$"):
            run()
    assert len(pids) == (cpus - 1) * FIELD_CALLS
    assert_no_child_left()


def test_a_failure_in_the_callers_range_kills_its_workers(monkeypatch):
    use_cpus(monkeypatch, 3)

    def work(block):
        if not block:
            raise LookupError("the caller's range")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(LookupError, match="the caller's range"):
        with block_workers(list(range(3 * MIN_BLOCKS)), work) as run_round:
            run_round()
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_the_children_run_the_callers_range_while_first_runs(monkeypatch):
    """``first`` waits until every block of the caller's range has run, so
    the children took them all, from the back, and the caller took none."""
    use_cpus(monkeypatch, 3)
    pids = counted_forks(monkeypatch)
    blocks = list(range(3 * MIN_BLOCKS))
    out = shared_zeros((len(blocks),), np.int64)
    ran_in = shared_zeros((len(blocks),), np.int64)  # the pid that ran each block

    def work(b):
        out[b] = b * b + 1
        ran_in[b] = os.getpid()

    def first():
        deadline = time.monotonic() + 10
        while not ran_in[:MIN_BLOCKS].all():
            assert time.monotonic() < deadline, "the children left the caller's blocks"
            time.sleep(0.001)

    with block_workers(blocks, work) as run_round:
        run_round(first)
    assert len(pids) == 2
    assert set(ran_in.tolist()) <= set(pids)  # no block ran in the caller
    assert out.tolist() == [b * b + 1 for b in blocks]
    assert_no_child_left()


def test_every_block_runs_once_a_round_with_more_workers_than_cores(monkeypatch):
    """The caller and three children race for the caller's range on its
    shared cursor, round after round; a lost update to the cursor would
    run a block twice or not at all."""
    use_cpus(monkeypatch, 4)
    pids = counted_forks(monkeypatch)
    blocks = list(range(64))
    runs = shared_zeros((len(blocks),), np.int64)
    rounds = 40

    def work(b):
        runs[b] += 1
        end = time.perf_counter() + 5e-5
        while time.perf_counter() < end:
            pass

    start = time.monotonic()
    with block_workers(blocks, work, min_blocks=1) as run_round:
        for r in range(rounds):
            run_round(lambda: time.sleep(r % 4 * 5e-4))
    assert time.monotonic() - start < 30
    assert len(pids) == 3
    assert runs.tolist() == [rounds] * len(blocks)
    assert_no_child_left()


def test_an_exception_in_a_taken_block_reaches_the_caller(monkeypatch):
    """A block that the child took from the back of the caller's range
    raises there; the caller gets its type and message."""
    use_cpus(monkeypatch, 2)
    taken = shared_zeros((1,), np.int64)

    def work(block):
        if coherence._in_worker and block < MIN_BLOCKS:
            taken[0] = 1
            raise LookupError(f"taken block {block}")

    def first():
        deadline = time.monotonic() + 10
        while not taken[0]:
            assert time.monotonic() < deadline, "the child took no block of the caller's"
            time.sleep(0.001)

    with pytest.raises(LookupError) as raised:
        with block_workers(list(range(2 * MIN_BLOCKS)), work) as run_round:
            run_round(first)
    assert type(raised.value) is LookupError
    assert str(raised.value) == f"taken block {MIN_BLOCKS - 1}"
    assert_no_child_left()


def test_an_exception_in_first_kills_the_children(monkeypatch):
    use_cpus(monkeypatch, 3)

    def work(block):
        if coherence._in_worker:
            time.sleep(60)

    def first():
        raise LookupError("in first")

    start = time.monotonic()
    with pytest.raises(LookupError, match="^in first$"):
        with block_workers(list(range(3 * MIN_BLOCKS)), work) as run_round:
            run_round(first)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("raising", [None, "a child", "first"])
def test_block_workers_closes_every_descriptor_it_opens(monkeypatch, raising):
    """The command, reply and token pipes are closed in the caller after a
    success, a child's raise and a raise in ``first``."""
    use_cpus(monkeypatch, 3)

    def work(block):
        if raising == "a child" and coherence._in_worker:
            raise LookupError(raising)

    def first():
        if raising == "first":
            raise LookupError(raising)

    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(LookupError) if raising else contextlib.nullcontext():
        with block_workers(list(range(3 * MIN_BLOCKS)), work) as run_round:
            run_round(first)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert_no_child_left()


def test_field_loss_rejects_an_unknown_loss_before_it_forks(monkeypatch, tiny):
    """On an empty field no block reaches ``batch_loss``'s check, and on a
    full one the check comes before the gradient and the workers."""
    empty = ScoreField(np.zeros((0, 3, 5), np.float32)), LabelField(np.zeros((0, 3), np.uint32))
    h, scores, labels = _mapillary_case(np.float32)
    use_cpus(monkeypatch, 3)
    pids = counted_forks(monkeypatch)
    for hier, (s, lab) in ((tiny, empty), (h, (scores, labels))):
        with pytest.raises(ValueError, match="^unknown field loss 'nonsense'; expected one of"):
            field_loss(hier, s, lab, "nonsense")
        with pytest.raises(ValueError, match="^unknown field loss 'cce'; expected one of"):
            field_loss(hier, s, lab, "cce")
    assert pids == []


def test_an_empty_field_gives_empty_outputs(tiny):
    """mmap rejects a length of 0, so an empty output still maps a byte."""
    scores = ScoreField(np.zeros((0, 3, 5), dtype=np.float32))
    labels = LabelField(np.zeros((0, 3), dtype=np.uint32))
    assert propagate_field(tiny, scores, labels).scores.shape == (0, 3, 5)
    value, grad = field_loss(tiny, scores, labels, "ftm")
    assert value == 0.0 and grad.shape == (0, 3, 5)
    assert decode_field(tiny, scores).leaf.shape == (0, 3)


def _mapped_kb(path) -> int:
    """This process's resident kB of its maps of the file at ``path``."""
    kb, inside = 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            if line[0] in "0123456789abcdef" and "-" in line.split()[0]:  # a map's first line
                inside = line.rstrip("\n").endswith(" " + str(path))
            elif inside and line.startswith("Rss:"):
                kb += int(line.split()[1])
    return kb


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="no /proc/self/smaps")
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_mapped_field_gives_the_in_memory_outputs(monkeypatch, tmp_path, cpus):
    """Every path drops the pages of the mapped rows it has run, and gives
    the same bits as on the field in memory. The payload starts 16 bytes
    into its map, so no block or span is page-aligned, and the 115 blocks
    are no multiple of the 33 that fill a ``CHECK_CHUNK_BYTES`` span.
    Each path gives back what is left when its blocks have run, so then
    next to nothing of the 7.4 MB field is resident in the caller."""
    h, scores, labels = _mapillary_case(np.float32)
    path = tmp_path / "s.hssf"
    write_score_field(path, scores)
    mapped = read_score_field(path)
    assert fields._file_mapping(mapped.scores) is not None
    use_cpus(monkeypatch, cpus)
    in_memory = _field_outputs(h, scores, labels)
    pids = counted_forks(monkeypatch)
    _assert_same_outputs(_field_outputs(h, mapped, labels), in_memory)
    assert _mapped_kb(path) <= fields.DROP_MARGIN_BYTES / 1024
    assert len(pids) == (cpus - 1) * FIELD_CALLS
    assert_no_child_left()


def test_pages_are_dropped_only_from_field_file_maps():
    """``MADV_DONTNEED`` zeroes the pages of a private or anonymous map, so
    a read-only view of one is not a field file's map: its check must not
    drop the pages that hold its scores."""
    buf = mmap.mmap(-1, 4 * 2**18, flags=mmap.MAP_PRIVATE)
    s = np.frombuffer(memoryview(buf).toreadonly(), np.float32)
    np.frombuffer(buf, np.float32)[:] = 0.5
    field = ScoreField(s.reshape(256, 256, 4))
    assert field.scores.sum() == 0.5 * s.size


def test_the_page_dropper_leaves_arrays_of_their_own_unchanged():
    """In-memory and ``shared_zeros`` arrays are run over, three spans and
    a remainder, and keep every value."""
    want = np.random.default_rng(1).random((3 * CHECK_CHUNK_BYTES // 20 + 7, 5)).astype(np.float32)
    shared = shared_zeros(want.shape, want.dtype)
    shared[:] = want
    for a in (want.copy(), shared):
        ran = fields.page_dropper(a)
        for i in range(0, len(a), 1000):
            ran(slice(i, min(i + 1000, len(a))))
        ran()
        assert a.tobytes() == want.tobytes()
