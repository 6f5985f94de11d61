"""Hierarchy coherence: label expansion, constraint checks, score propagation.

Propagation replaces each positive node's score by the minimum over its
ancestors and each negative node's score by the maximum over its
descendants, which guarantees the resulting vector satisfies both
hierarchy constraints restricted by the label expansion. Self-sets include
the node itself.

The scalar reference path, the tree DP's independent oracle, has one entry:
``propagate_winners`` checks that the labels are one leaf's expansion, then
walks each node's ``ancestor_mask`` row (ancestors) or column (subtree).

Batch propagation runs one tree DP, ``tree_extrema``: ancestor-min runs
top-down (``amin[v] = min(s[v], amin[parent v])``) and descendant-max runs
bottom-up, one reduction per depth: a (runs, fan, B) ``max`` when all
sibling runs at the depth have one length, ``np.maximum.reduceat``
otherwise. The DP runs in the block's float dtype (float32 stays float32)
and its winners are int32 node ids. Winners are reduced
lexicographically on (value, node id), so ties resolve to the smallest node
id. ``propagate_batch`` and ``propagate_batch_winners`` are block kernels:
the DP works node-major on a copy of the one row block they are given, and
their callers pass ``row_blocks`` of at most ``BLOCK_ELEMS // |V|`` rows (at
least one), which keeps temporaries small; results do not depend on N.

``run_blocks`` is the one walker of the field paths (``propagate_field``,
``losses.field_loss`` and ``evaluation.decode_field``): it calls their
per-block ``work`` once on each ``row_blocks`` slice of a field's score
rows, the same in a child as in the caller, and gives back the pages of
mapped rows once run. Contiguous ranges of blocks run in forked children
that write into ``shared_zeros`` outputs, so a field is walked on every
usable core. ``run_blocks`` is one round of ``block_workers``, the one
place that forks, exits and reaps a process; ``training.train`` keeps its
workers for every step of a run. The caller's own range is a shared
cursor that it walks from the front; a child that has finished its own
range takes blocks from the back of it. So a round's ``first`` callable
(training's triplet step) runs in the caller while the children cover its
rows. The loops of ``losses.batch_loss``, ``evaluation.decode_batch`` and
``coherence_violation_rate`` stay serial: no caller gives them enough
rows to fork.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
import warnings
from collections.abc import Callable, Iterator

import numpy as np

from .fields import IGNORE, LabelField, ScoreField, page_dropper
from .taxonomy import ClassHierarchy


def expand_labels(h: ClassHierarchy, leaf: int) -> np.ndarray:
    """Binary vector over V: 1 on the leaf's ancestor chain, 0 elsewhere."""
    if not h.is_leaf(leaf):
        raise ValueError(f"node {leaf} is not a leaf")
    return h.ancestor_mask[leaf].astype(np.int8)


def _check_lengths(h: ClassHierarchy, *vecs: np.ndarray) -> None:
    for v in vecs:
        if v.shape != (len(h),):
            raise ValueError(f"expected vector of length {len(h)}, got shape {v.shape}")


def _constraint_scores(h: ClassHierarchy, s: np.ndarray, threshold: float) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    _check_lengths(h, s)
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    return s


def check_positive_constraint(
    h: ClassHierarchy, s: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, int]]:
    """Pairs (v, ancestor u) where v scores above threshold but above u.

    An empty list means every thresholded positive has all its ancestors
    scored at least as high. Pairs are ordered by v, then u; NaN scores or
    thresholds raise ``ValueError``.
    """
    s = _constraint_scores(h, s, threshold)
    hit = h.ancestor_mask & (s[:, None] > s) & (s > threshold)[:, None]
    return [(int(v), int(u)) for v, u in zip(*np.nonzero(hit))]


def check_negative_constraint(
    h: ClassHierarchy, s: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, int]]:
    """Pairs (v, descendant u) where v scores at or below threshold but below u.

    Pairs are ordered by v, then u; NaN scores or thresholds raise ``ValueError``.
    """
    s = _constraint_scores(h, s, threshold)
    hit = h.ancestor_mask.T & (s > s[:, None]) & (s <= threshold)[:, None]
    return [(int(v), int(u)) for v, u in zip(*np.nonzero(hit))]


def coherence_violation_rate(h: ClassHierarchy, s: np.ndarray) -> float:
    """Share of (N, |V|) score rows that break a constraint at some threshold.

    That is the share of rows where some node scores above its parent,
    whatever the threshold: between a node and a lower ancestor (or a
    higher descendant) the score rises across some parent edge, which
    violates for the child if it is above the threshold and for the parent
    otherwise. Raises ``ValueError`` for a NaN score or a width other than |V|.
    """
    s = _dp_scores(h, s)
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    viol = np.zeros(s.shape[0], dtype=bool)
    for rows in row_blocks(h, s.shape[0]):
        b = s[rows]
        for nodes, parents in h.top_down:
            viol[rows] |= (b[:, nodes] > b[:, parents]).any(axis=1)
    return float(viol.mean()) if s.shape[0] else 0.0


def propagate(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Hierarchy-coherent score vector: min over ancestors on positives,
    max over descendants on negatives."""
    s = np.asarray(s, dtype=np.float64)
    return s[propagate_winners(h, s, labels)]


def propagate_winners(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """For each node, the source node id whose score the propagation copied.

    ``labels`` other than one leaf's 0/1 expansion raise ``ValueError``.
    Ties resolve to the smallest node id, so the backward pass routes all
    gradient mass to a single deterministic source per output.
    """
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    _check_lengths(h, s, labels)
    positives = np.flatnonzero(labels)
    if positives.size == 0:
        raise ValueError("label vector has no positive nodes")
    # A valid expansion is the mask row of its positive with most ancestors.
    deepest = int(positives[np.argmax(h.ancestor_mask[positives].sum(axis=1))])
    if not (h.is_leaf(deepest) and np.array_equal(labels, h.ancestor_mask[deepest])):
        raise ValueError("label vector is not the expansion of a single leaf")
    winners = np.empty(len(h), dtype=np.int64)
    for v in range(len(h)):
        # flatnonzero is ascending, so the first arg-extremum is the smallest id.
        group = np.flatnonzero(h.ancestor_mask[v] if labels[v] else h.ancestor_mask[:, v])
        best = np.argmin(s[group]) if labels[v] else np.argmax(s[group])
        winners[v] = group[best]
    return winners


def propagate_grad(
    h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Backward pass of propagate: route each upstream component to its
    arg-min/arg-max source entry of s."""
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_lengths(h, upstream)
    grad = np.zeros(len(h), dtype=np.float64)
    np.add.at(grad, propagate_winners(h, s, labels), upstream)
    return grad


def propagate_field(h: ClassHierarchy, scores: ScoreField, labels: LabelField) -> ScoreField:
    """Per-pixel propagate over a whole field; ignored pixels pass through,
    and a NaN score raises ``ValueError`` wherever it sits.

    The result keeps the input's dtype: propagation only copies scores, so
    a float32 field is propagated one row block at a time into a float32
    copy with no loss. Each ``run_blocks`` call of ``work`` copies one
    block's rows into the ``shared_zeros`` output, then overwrites their
    valid pixels.
    """
    flat_s, flat_l = field_rows(h, scores, labels)
    out = shared_zeros(flat_s.shape, flat_s.dtype)

    def work(rows: slice) -> None:
        valid = flat_l[rows] != IGNORE
        out[rows] = flat_s[rows]
        _check_ignored_rows(out[rows], valid)
        ids = flat_l[rows][valid].astype(np.int64)
        out[rows][valid] = propagate_batch(h, flat_s[rows][valid], ids)

    run_blocks(h, flat_s, work)
    return ScoreField(scores=out.reshape(scores.scores.shape))


BLOCK_ELEMS = 16384


def row_blocks(h: ClassHierarchy, n: int) -> list[slice]:
    """Slices of at most ``BLOCK_ELEMS // |V|`` rows (at least one) covering n rows."""
    step = max(1, BLOCK_ELEMS // len(h))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def field_rows(
    h: ClassHierarchy, scores: ScoreField, labels: LabelField
) -> tuple[np.ndarray, np.ndarray]:
    """Check a score and a label field against ``h`` and each other, then
    return their flattened pixels: (N, |V|) score rows and N label ids.
    The checks run before anything is reshaped or allocated.
    """
    scores.check_hierarchy(h)
    labels.check_hierarchy(h)
    if (scores.height, scores.width) != (labels.height, labels.width):
        raise ValueError("score and label fields have mismatched dimensions")
    return scores.scores.reshape(-1, len(h)), labels.leaf.reshape(-1)


def _check_ignored_rows(block: np.ndarray, valid: np.ndarray) -> None:
    """Raise ``ValueError`` for a NaN score in a block's ignored rows; the
    kernels that the valid rows go through check those."""
    if np.isnan(block[~valid]).any():
        raise ValueError("scores must not be NaN")


def shared_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array on anonymous shared memory, which ``run_blocks``
    workers write into and their caller reads. A process the caller forks
    later shares its pages too."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    # mmap rejects a length of 0.
    buf = mmap.mmap(-1, max(1, count * dtype.itemsize))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# The fewest blocks a worker is given. On a 2-core VM, fork, _exit and
# waitpid of a 230 MB process took 2.1-4.0 ms, and one 112-row block of the
# 145-node Mapillary tree 0.13 ms to propagate, 0.18 ms to decode and
# 0.9 ms for batch_loss(ftm): 32 blocks outlast a fork in every field path.
MIN_BLOCKS = 32


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Set in a process that ``block_workers`` forked: a worker forks no worker.
_in_worker = False


@contextlib.contextmanager
def block_workers(
    blocks: list, work: Callable[..., None], min_blocks: int = MIN_BLOCKS
) -> Iterator[Callable[..., None]]:
    """Fork workers for contiguous ranges of ``blocks`` once, and yield
    ``run_round(first=None)``, which calls ``work(block)`` once on every
    block each time the caller calls it.

    There are ``min(usable CPUs, len(blocks) // min_blocks)`` workers, at
    least one. Each range but the first runs in a child made by ``os.fork``,
    which writes its results into ``shared_zeros`` arrays and waits between
    rounds for a 1-byte message on a pipe. The first range is the caller's:
    a round sends the messages, calls ``first()`` if given, then takes the
    caller's blocks one at a time from the front of a shared cursor
    ``[lo, hi)``. A child runs its own range block by block, then takes
    blocks from the back of that cursor until the two ends meet, so the
    children cover for the caller while it runs ``first``; children never
    take from each other's ranges. A one-byte token on a pipe guards the
    cursor. With one worker, inside a worker, without ``os.fork``, or when
    it raises ``OSError``, the caller walks the cursor over every block not
    given to a child. A child's exception is raised by ``run_round`` with
    its type and message, the first range's first. Every child is reaped
    when the block ends: it leaves when its pipe reaches end of file, or is
    killed first if the block ends by an exception.
    """
    global _in_worker
    workers = 1
    if hasattr(os, "fork") and not _in_worker:
        workers = max(1, min(_usable_cpus(), len(blocks) // min_blocks))
    cuts = [len(blocks) * i // workers for i in range(1, workers)]
    kids = []  # (pid, write end of its command pipe, read end of its reply pipe)
    mine = len(blocks)  # the caller runs blocks[:mine]
    cursor = shared_zeros((2,), np.int64)  # [lo, hi): the caller's blocks not yet taken
    token = os.pipe() if cuts else ()  # (read end, write end)

    def take(back: bool) -> int | None:
        """The index of the caller's next block, from the back of the
        cursor or its front, or None once the two ends have met. Without
        cuts no other process shares the cursor, so no token is passed."""
        if token:
            os.read(token[0], 1)
        lo, hi = cursor.tolist()
        if lo < hi:
            cursor[:] = (lo, hi - 1) if back else (lo + 1, hi)
        if token:
            os.write(token[1], b"\0")
        if lo == hi:
            return None
        return hi - 1 if back else lo

    try:
        if token:
            os.write(token[1], b"\0")
        # Later ranges fork first, so after a failed fork the blocks left
        # to the caller are still one contiguous range.
        for lo in reversed(cuts):
            cmd_r, cmd_w = os.pipe()
            reply_r, reply_w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns in the parent, after the child
                    # exists, when other threads run (OpenBLAS's pool); as
                    # an error it would lose the child's pid. The children
                    # run no BLAS.
                    warnings.filterwarnings(
                        "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
                    )
                    pid = os.fork()
            except OSError:
                for fd in (cmd_r, cmd_w, reply_r, reply_w):
                    os.close(fd)
                break
            if pid == 0:
                status = 1
                try:
                    _in_worker = True
                    # Hold no other worker's pipe open past the caller's close.
                    for fd in (cmd_w, reply_r, *(fd for _, *fds in kids for fd in fds)):
                        os.close(fd)
                    while os.read(cmd_r, 1):
                        try:
                            for block in blocks[lo:mine]:
                                work(block)
                            while (i := take(back=True)) is not None:
                                work(blocks[i])
                        except BaseException as exc:
                            with os.fdopen(reply_w, "wb") as pipe:
                                pipe.write(b"\1" + pickle.dumps(exc))
                            break
                        os.write(reply_w, b"\0")
                    else:
                        status = 0
                finally:
                    # Never return into the caller's code, and flush no
                    # buffer the parent will flush too.
                    os._exit(status)
            os.close(cmd_r)
            os.close(reply_w)
            kids.append((pid, cmd_w, reply_r))
            mine = lo

        def run_round(first: Callable[[], object] | None = None) -> None:
            cursor[:] = 0, mine
            for _, cmd, _ in kids:
                os.write(cmd, b"\1")
            if first is not None:
                first()
            while (i := take(back=False)) is not None:
                work(blocks[i])
            for pid, _, reply in reversed(kids):  # first range first
                if os.read(reply, 1) == b"\0":
                    continue
                # An exception follows the byte; end of file, a lost child.
                sent = b"".join(iter(lambda: os.read(reply, 1 << 16), b""))
                if sent:
                    raise pickle.loads(sent)
                raise ChildProcessError(f"worker {pid} ended without a result")

        yield run_round
    except BaseException:
        for pid, _, _ in kids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ended = []
        for pid, cmd, reply in reversed(kids):
            os.close(cmd)
            os.close(reply)
            ended.append((pid, os.waitpid(pid, 0)[1]))
        for fd in token:
            os.close(fd)
    for pid, status in ended:
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker {pid} ended with exit code {code}")


def run_blocks(h: ClassHierarchy, s: np.ndarray, work: Callable[[slice], None]) -> None:
    """Call ``work(rows)`` once on each ``row_blocks(h, len(s))`` slice of
    the (N, |V|) score rows ``s``, in one round of ``block_workers`` with at
    least ``MIN_BLOCKS`` blocks per worker.

    ``work`` writes its results into ``shared_zeros`` outputs, so the
    caller's peak RSS does not include the pages its workers touch. After
    each block, and once more in the caller at the end, the pages of the
    rows run are given back through ``fields.page_dropper``: when ``s`` is
    mapped from a file, about one ``CHECK_CHUNK_BYTES`` span of it is
    resident in a process at once.
    """
    ran = page_dropper(s)

    def block(rows: slice) -> None:
        work(rows)
        ran(rows)

    with block_workers(row_blocks(h, len(s)), block) as run_round:
        run_round()
    ran()


def sibling_max(
    vals: np.ndarray, ids: np.ndarray | None,
    kids: np.ndarray, starts: np.ndarray, group: np.ndarray, fan: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Max of node-major (|V|, B) ``vals`` over each sibling run of one
    ``ClassHierarchy.bottom_up`` step.

    Returns ``(best, best_id)``: ``best_id`` is, per run, the smallest of
    ``ids[kids]`` (node ids, below |V|) among the kids that attain ``best``,
    or None without ``ids``. When every run has ``fan`` kids, the kids are
    reduced as one (runs, fan, B) view; otherwise by ``reduceat``, which
    loops once per (run, column).
    """
    sub = vals[kids]
    if fan:
        sub = sub.reshape(starts.size, fan, sub.shape[1])
        best = sub.max(axis=1)
    else:
        best = np.maximum.reduceat(sub, starts, axis=0)
    if ids is None:
        return best, None
    # Kids not tied with their run's best move above every node id. The
    # offset has the ids' dtype: a Python int would widen int32 to int64.
    far = ids.dtype.type(len(vals))
    if fan:
        tied = ids[kids].reshape(sub.shape) + (sub != best[:, None]) * far
        return best, tied.min(axis=1)
    tied = ids[kids] + (sub != best[group]) * far
    return best, np.minimum.reduceat(tied, starts, axis=0)


def tree_extrema(h: ClassHierarchy, s: np.ndarray, winners: bool = False) -> tuple[np.ndarray, ...]:
    """Ancestor-min and descendant-max of one (B, |V|) row block, node-major.

    Returns ``(amin, dmax)``, each (|V|, B) in the dtype of ``s``, and with
    ``winners`` also the int32 node ids they came from, ties to the
    smallest id. ``s`` is not modified; a NaN score raises ``ValueError``.
    """
    dmax = s.T.copy()
    amin = dmax.copy()
    if winners:
        ids = np.arange(len(h), dtype=np.int32)
        # One allocation for both: two separate int32 arrays measured 1 MB
        # more peak RSS in toy training.
        amin_w, dmax_w = np.broadcast_to(ids[:, None], (2, *dmax.shape)).copy()
    # Winners are updated as id + take * (other - id): np.where on these
    # unpredictable masks measured 15-30% slower per batch_loss call. The
    # int32 ids[nodes] keep the int64 ``nodes`` from widening the update.
    for nodes, parents in h.top_down:
        up = amin[parents]
        cur = amin[nodes]
        amin[nodes] = np.minimum(cur, up)
        if winners:
            up_w = amin_w[parents]
            own = ids[nodes, None]
            take = (up < cur) | ((up == cur) & (up_w < own))
            amin_w[nodes] += take * (up_w - own)
    # Each level's parents still hold their own score and id when their
    # kids are reduced, because parents sit one depth higher.
    for kids, starts, parents, group, fan in h.bottom_up:
        best, best_w = sibling_max(dmax, dmax_w if winners else None, kids, starts, group, fan)
        cur = dmax[parents]
        dmax[parents] = np.maximum(cur, best)
        if winners:
            own = ids[parents, None]
            take = (best > cur) | ((best == cur) & (best_w < own))
            dmax_w[parents] += take * (best_w - own)
    # max and minimum propagate NaN, so the root's descendant-max is NaN
    # exactly in the rows that hold one: a check of B cells, not of B|V|.
    if np.isnan(dmax[h.root]).any():
        raise ValueError("scores must not be NaN")
    if winners:
        return amin, dmax, amin_w, dmax_w
    return amin, dmax


def _leaf_rows(h: ClassHierarchy, leaf_ids: np.ndarray, n: int) -> np.ndarray:
    """Label expansions of ``leaf_ids`` as (n, |V|) ``ancestor_mask`` rows;
    raises unless ``leaf_ids`` has shape (n,), and as ``leaf_positions`` does."""
    ids = np.asarray(leaf_ids)
    if ids.shape != (n,):
        raise ValueError(f"expected {n} leaf ids, one per score row, got shape {ids.shape}")
    h.leaf_positions(ids)
    return h.ancestor_mask[ids]


def _dp_scores(h: ClassHierarchy, s: np.ndarray) -> np.ndarray:
    """``s`` as (N, |V|) score rows of a float dtype no narrower than
    float32; raises ``ValueError`` for any other shape. A float32 block
    stays float32: the tree DP only compares and copies, and widening its
    results to float64 is exact."""
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != len(h):
        raise ValueError(f"expected scores of shape (N, {len(h)}), got {s.shape}")
    return s.astype(np.result_type(s, np.float32), copy=False)


def propagate_batch(h: ClassHierarchy, s: np.ndarray, leaf_ids: np.ndarray) -> np.ndarray:
    """Vectorized propagate for one row block of score vectors with per-row
    leaf labels; the caller keeps the block small (see ``row_blocks``).

    Returns (N, |V|) scores in the block's float dtype: float32 for float32
    input, float64 for float64 or integer input.
    """
    s = _dp_scores(h, s)
    pos = _leaf_rows(h, leaf_ids, len(s))
    amin, dmax = tree_extrema(h, s)
    return np.ascontiguousarray(np.where(pos.T, amin, dmax).T)


def propagate_batch_winners(
    h: ClassHierarchy, s: np.ndarray, leaf_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized propagate for one row block, returning (p, winners,
    positive-mask); the caller keeps the block small (see ``row_blocks``).

    ``p`` has the dtype ``propagate_batch`` returns, ``winners`` are int32
    node ids with ties to the smallest id, and the mask is bool; all three
    are (N, |V|).
    """
    s = _dp_scores(h, s)
    pos = _leaf_rows(h, leaf_ids, len(s))
    return (*_propagated_winners(h, s, pos), pos)


def _propagated_winners(
    h: ClassHierarchy, s: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(p, winners)`` of ``propagate_batch_winners`` for a checked block
    ``s`` and its (N, |V|) positive mask ``pos``."""
    amin, dmax, amin_w, dmax_w = tree_extrema(h, s, winners=True)
    p = np.ascontiguousarray(np.where(pos.T, amin, dmax).T)
    winners = np.ascontiguousarray(np.where(pos.T, amin_w, dmax_w).T)
    return p, winners
