"""Property tests: the row-blocked tree-DP kernels and the ancestor-mask
constraint checks against brute force.

Random recursive trees, and regular trees with shuffled node ids, with
quantised scores, so that ties between nodes are common; every tie must
resolve to the smallest node (or leaf) id. The quantised scores are exact
in float32, and float32 input must give exactly the float64 results.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertax.coherence import (
    BLOCK_ELEMS,
    check_negative_constraint,
    check_positive_constraint,
    expand_labels,
    propagate_batch,
    propagate_batch_winners,
    sibling_max,
    tree_extrema,
)
from hiertax.evaluation import decode_batch
from hiertax.fields import CHECK_CHUNK_BYTES
from hiertax.gradcheck import random_hierarchy
from hiertax.losses import (
    FIELD_LOSSES,
    FocalConfig,
    batch_loss,
    block_loss,
    focal_tree_min_loss,
    tree_min_loss,
)
from hiertax.taxonomy import build_hierarchy
from hiertax.training import coherence_violation_rate

from conftest import assert_same_bits

SRC = str(Path(__file__).resolve().parent.parent / "src")


def regular_hierarchy(rng: np.random.Generator, n_nodes: int):
    """A tree of at most ``n_nodes`` nodes in which every node at one depth
    has the same number of kids (1 to 3), so each depth's sibling runs share
    one length. Node ids are shuffled: a parent may come after its kids, and
    sibling runs are not runs of consecutive ids."""
    parent, frontier = [-1], [0]
    while True:
        fan = int(rng.integers(1, 4))
        if len(parent) + fan * len(frontier) > n_nodes:
            break
        start = len(parent)
        parent += [p for p in frontier for _ in range(fan)]
        frontier = list(range(start, len(parent)))
    new_id = rng.permutation(len(parent))
    shuffled = [-1] * len(parent)
    for v, p in enumerate(parent):
        if p != -1:
            shuffled[new_id[v]] = int(new_id[p])
    return build_hierarchy([f"n{v}" for v in range(len(parent))], shuffled)


def _case(seed: int, n_nodes: int, n_rows: int, levels: int = 4):
    """A random recursive or regular tree of at most ``n_nodes`` nodes, one
    of two by the seed, with quantised scores and random leaf labels."""
    rng = np.random.default_rng(seed)
    tree = regular_hierarchy if rng.random() < 0.5 else random_hierarchy
    h = tree(rng, n_nodes)
    s = rng.integers(0, levels + 1, size=(n_rows, len(h))) / levels
    leaf_ids = rng.choice(np.array(h.leaves, dtype=np.int64), size=n_rows)
    return h, s, leaf_ids


def _block_rows(h) -> int:
    return max(1, BLOCK_ELEMS // len(h))


def brute_extrema(h, s):
    """Per node: min over ancestors and max over descendants, row-major, with
    the first (smallest-id) arg-min / arg-max of each sorted group."""
    n, v = s.shape
    amin, dmax = np.empty((n, v)), np.empty((n, v))
    amin_w, dmax_w = np.empty((n, v), dtype=np.int64), np.empty((n, v), dtype=np.int64)
    for node in range(v):
        anc = np.array(sorted(h.ancestors(node)))
        dec = np.array(sorted(h.descendants(node)))
        amin[:, node] = s[:, anc].min(axis=1)
        dmax[:, node] = s[:, dec].max(axis=1)
        amin_w[:, node] = anc[s[:, anc].argmin(axis=1)]
        dmax_w[:, node] = dec[s[:, dec].argmax(axis=1)]
    return amin, dmax, amin_w, dmax_w


def brute_decode(h, s):
    """Exhaustive path enumeration, summed leaf first, ties to the smallest leaf."""
    out = []
    for row in s:
        best, best_leaf = -np.inf, None
        for path in h.root_to_leaf_paths():
            total = 0.0
            for u in path:
                total += row[u]
            if total > best:
                best, best_leaf = total, path[0]
        out.append(best_leaf)
    return np.array(out, dtype=np.int64)


def brute_violation_rate(h, s, threshold=0.5):
    viol = np.zeros(s.shape[0], dtype=bool)
    for v in range(len(h)):
        for u in h.ancestors(v) - {v}:
            viol |= (s[:, v] > threshold) & (s[:, u] < s[:, v])
        for u in h.descendants(v) - {v}:
            viol |= (s[:, v] <= threshold) & (s[:, u] > s[:, v])
    return float(viol.mean())


@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 30),
    threshold=st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0]),
)
def test_constraint_checks_match_pairwise_definition(seed, n_nodes, threshold):
    h, s, _ = _case(seed, n_nodes, 1)
    s = s[0]
    pos = [
        (v, u)
        for v in range(len(h))
        if s[v] > threshold
        for u in sorted(h.ancestors(v))
        if u != v and s[v] > s[u]
    ]
    neg = [
        (v, u)
        for v in range(len(h))
        if s[v] <= threshold
        for u in sorted(h.descendants(v))
        if u != v and s[u] > s[v]
    ]
    assert check_positive_constraint(h, s, threshold) == pos
    assert check_negative_constraint(h, s, threshold) == neg
    # A NaN score, here the root's, would drop every pair that involves it.
    nan_root = s.copy()
    nan_root[h.root] = np.nan
    for check in (check_positive_constraint, check_negative_constraint):
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            check(h, s, float("nan"))
        with pytest.raises(ValueError, match="scores must not be NaN"):
            check(h, nan_root, threshold)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30), n_rows=st.integers(1, 40))
def test_extrema_and_winners_match_brute_force(seed, n_nodes, n_rows):
    h, s, leaf_ids = _case(seed, n_nodes, n_rows)
    amin, dmax, amin_w, dmax_w = brute_extrema(h, s)
    got = tree_extrema(h, s, winners=True)
    for want, have in zip((amin, dmax, amin_w, dmax_w), got):
        np.testing.assert_array_equal(have.T, want)
    plain = tree_extrema(h, s)
    np.testing.assert_array_equal(plain[0], got[0])
    np.testing.assert_array_equal(plain[1], got[1])

    pos = np.array([expand_labels(h, int(leaf)) for leaf in leaf_ids], dtype=bool)
    p, winners, mask = propagate_batch_winners(h, s, leaf_ids)
    np.testing.assert_array_equal(mask, pos)
    np.testing.assert_array_equal(p, np.where(pos, amin, dmax))
    np.testing.assert_array_equal(winners, np.where(pos, amin_w, dmax_w))
    np.testing.assert_array_equal(propagate_batch(h, s, leaf_ids), p)

    # Winner ids are int32, and a float32 block is propagated in float32 to
    # exactly the float64 values and winners.
    s32 = s.astype(np.float32)
    got32 = tree_extrema(h, s32, winners=True)
    assert [a.dtype for a in got] == [np.float64] * 2 + [np.int32] * 2
    assert [a.dtype for a in got32] == [np.float32] * 2 + [np.int32] * 2
    for want, have in zip(got, got32):
        np.testing.assert_array_equal(have, want)
    p32, winners32, mask32 = propagate_batch_winners(h, s32, leaf_ids)
    assert (p32.dtype, winners.dtype, winners32.dtype) == (np.float32, np.int32, np.int32)
    np.testing.assert_array_equal(p32, p)
    np.testing.assert_array_equal(winners32, winners)
    np.testing.assert_array_equal(mask32, mask)
    prop32 = propagate_batch(h, s32, leaf_ids)
    assert prop32.dtype == np.float32
    np.testing.assert_array_equal(prop32, p)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30), n_rows=st.integers(1, 20))
def test_sibling_max_matches_per_run_scan(seed, n_nodes, n_rows):
    """Both reductions, the (runs, fan, B) view and ``reduceat``, against a
    scan of each run; the ids keep their int32 dtype, which a Python-int
    offset in the tie-break would widen to int64."""
    h, s, _ = _case(seed, n_nodes, n_rows)
    vals = s.T.copy()
    ids = np.broadcast_to(np.arange(len(h), dtype=np.int32)[:, None], vals.shape).copy()
    for kids, starts, _parents, group, fan in h.bottom_up:
        best, best_id = sibling_max(vals, ids, kids, starts, group, fan)
        assert best_id.dtype == np.int32
        assert sibling_max(vals, None, kids, starts, group, fan)[1] is None
        for r, run in enumerate(np.split(kids, starts[1:])):
            np.testing.assert_array_equal(best[r], vals[run].max(axis=0))
            tied = vals[run] == best[r]
            want = [run[tied[:, c]].min() for c in range(n_rows)]
            np.testing.assert_array_equal(best_id[r], want)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_rows=st.integers(1, 12))
def test_tree_min_batch_loss_matches_scalar_losses(seed, n_nodes, n_rows):
    h, s, leaf_ids = _case(seed, n_nodes, n_rows)
    for which, scalar in (("tm", tree_min_loss), ("ftm", focal_tree_min_loss)):
        values, grad = batch_loss(h, s, leaf_ids, which)
        for r, leaf in enumerate(leaf_ids):
            rep = scalar(h, s[r], expand_labels(h, int(leaf)))
            assert values[r] == rep.value
            np.testing.assert_array_equal(grad[r], rep.grad)
    # Every loss on the float32 copy: the same float64 bits.
    for which in FIELD_LOSSES:
        values, grad = batch_loss(h, s, leaf_ids, which)
        values32, grad32 = batch_loss(h, s.astype(np.float32), leaf_ids, which)
        assert_same_bits(values32, values)
        assert_same_bits(grad32, grad)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 20),
    n_rows=st.integers(1, 12),
    block=st.integers(1, 12),
)
def test_block_loss_fed_mask_rows_matches_batch_loss(seed, n_nodes, n_rows, block):
    """The block kernel that ``train`` calls, on blocks of ``block`` rows
    (one row included) with ``ancestor_mask`` rows for labels, gives
    ``batch_loss``'s bits in float64 and in float32."""
    h, s, leaf_ids = _case(seed, n_nodes, n_rows)
    cfg = FocalConfig()
    for scores in (s, s.astype(np.float32)):
        for which in FIELD_LOSSES:
            want_values, want_grad = batch_loss(h, scores, leaf_ids, which)
            got = [
                block_loss(h, scores[i:i + block], h.ancestor_mask[leaf_ids[i:i + block]],
                           which, cfg)
                for i in range(0, n_rows, block)
            ]
            assert_same_bits(np.concatenate([v for v, _ in got]), want_values)
            assert_same_bits(np.concatenate([g for _, g in got]), want_grad)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_rows=st.integers(1, 30))
def test_decode_batch_matches_path_enumeration(seed, n_nodes, n_rows):
    h, s, _ = _case(seed, n_nodes, n_rows, levels=3)
    np.testing.assert_array_equal(decode_batch(h, s), brute_decode(h, s))
    # Thirds round in float32; the paths are summed from the rounded values.
    s32 = s.astype(np.float32)
    np.testing.assert_array_equal(decode_batch(h, s32), brute_decode(h, s32.astype(np.float64)))


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_rows=st.integers(1, 40))
def test_violation_rate_matches_brute_force(seed, n_nodes, n_rows):
    """One threshold-free rate equals the pairwise count at every threshold."""
    h, s, _ = _case(seed, n_nodes, n_rows)
    rate = coherence_violation_rate(h, s)
    for threshold in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert rate == brute_violation_rate(h, s, threshold)


def _all_outputs(h, s, leaf_ids):
    out = {
        "propagate": propagate_batch(h, s, leaf_ids),
        "winners": propagate_batch_winners(h, s, leaf_ids)[1],
        "decode": decode_batch(h, s),
    }
    for which in ("bce", "focal", "tm", "ftm"):
        out[which], out[which + "_grad"] = batch_loss(h, s, leaf_ids, which)
    return out


@pytest.mark.parametrize("n_nodes", [7, 29])
def test_results_do_not_depend_on_blocking(n_nodes):
    """N = 1 and N = block rows - 1, + 0, + 1, against splits at other offsets."""
    rows = _block_rows(_case(n_nodes, n_nodes, 1)[0])
    for n_rows in (1, rows - 1, rows, rows + 1):
        h, s, leaf_ids = _case(n_nodes, n_nodes, n_rows)
        whole = _all_outputs(h, s, leaf_ids)
        cut = min(3, n_rows)
        parts = [_all_outputs(h, s[a:b], leaf_ids[a:b]) for a, b in ((0, cut), (cut, n_rows))]
        for key, value in whole.items():
            joined = np.concatenate([part[key] for part in parts])
            np.testing.assert_array_equal(value, joined, err_msg=f"{key} at N={n_rows}")
        assert coherence_violation_rate(h, s) == brute_violation_rate(h, s)


NAN_KERNELS = {
    "propagate_batch": propagate_batch,
    "propagate_batch_winners": propagate_batch_winners,
    **{f"batch_loss({w})": lambda h, s, ids, w=w: batch_loss(h, s, ids, w) for w in FIELD_LOSSES},
}


@pytest.mark.parametrize("kernel", NAN_KERNELS.values(), ids=NAN_KERNELS.keys())
def test_kernels_reject_a_nan_score(tiny, kernel):
    """Row [.5, .2, .3, nan, .9] with leaf B: propagation once returned a
    NaN for A with node 1 as its winner, and batch_loss a NaN value."""
    s = np.array([[0.5, 0.2, 0.3, np.nan, 0.9], [0.5, 0.2, 0.3, 0.4, 0.9]])
    with pytest.raises(ValueError, match="scores must not be NaN"):
        kernel(tiny, s, np.array([2, 2]))


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30), n_rows=st.integers(1, 40))
def test_kernels_reject_a_nan_at_any_node(seed, n_nodes, n_rows):
    """The tree DP finds a NaN through the root's descendant-max, whichever
    node of whichever row holds it, on even and uneven trees."""
    h, s, leaf_ids = _case(seed, n_nodes, n_rows)
    rng = np.random.default_rng(seed)
    s[rng.integers(n_rows), rng.integers(len(h))] = np.nan
    for name, kernel in NAN_KERNELS.items():
        with pytest.raises(ValueError, match="scores must not be NaN"):
            kernel(h, s.astype(np.float32), leaf_ids)
            pytest.fail(name)


@pytest.mark.parametrize("n_rows", [1, 2])
def test_callers_scores_are_never_modified(n_rows):
    """A one-row block transposes to a view of the caller's array; the
    kernels must write only to their own copy."""
    h, s, leaf_ids = _case(5, 9, n_rows)
    before = s.copy()
    tree_extrema(h, s, winners=True)
    _all_outputs(h, s, leaf_ids)
    coherence_violation_rate(h, s)
    np.testing.assert_array_equal(s, before)


# The children report VmHWM, their own peak RSS since exec. Their
# ru_maxrss would start at the peak RSS of the process that spawned them,
# which in a full pytest session can exceed anything the child does.
PEAK_KB_CODE = """\
def peak_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
"""

PEAK_RSS_CODE = """\
import json, sys
import numpy as np
import hiertax
from hiertax.losses import batch_loss
h = hiertax.load_taxonomy(sys.argv[1])
base = peak_kb()
rng = np.random.default_rng(0)
s = rng.random((int(sys.argv[2]), len(h)))
leaf_ids = rng.choice(np.array(h.leaves), size=s.shape[0])
values, grad = batch_loss(h, s, leaf_ids, "ftm")
peak = peak_kb()
print(json.dumps({"base_kb": base, "peak_kb": peak,
                  "io_bytes": s.nbytes + leaf_ids.nbytes + values.nbytes + grad.nbytes}))
"""

# Room above inputs plus outputs for the row-block temporaries and the
# allocator; a whole-array pass over (100k, 145) float64 needs 116 MB per
# temporary.
RSS_MARGIN_MB = 48

FIELD_RSS_CODE = """\
import json, resource, sys
import numpy as np
import hiertax
from hiertax.fields import IGNORE, LabelField, ScoreField

def anon_kb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("RssAnon:"))

workers_kb = 0
def in_workers(call, *args):
    # A forked worker starts with the caller's anonymous pages (their
    # page-table entries are copied at fork; shared and file pages are
    # not), so its ru_maxrss above RssAnon at the call is what it grew.
    # RUSAGE_CHILDREN keeps the largest worker so far: an upper bound.
    global workers_kb
    before = anon_kb()
    result = call(*args)
    workers_kb = max(workers_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - before)
    return result

# One worker beside the caller on any machine, so that the caller's growth
# plus the largest worker's bounds what a call holds at once.
hiertax.coherence._usable_cpus = lambda: 2
h = hiertax.load_taxonomy(sys.argv[1])
height, width = 250, 400
base = peak_kb()
rng = np.random.default_rng(0)
scores = ScoreField(rng.random((height, width, len(h)), dtype=np.float32))
leaf = np.array(h.leaves, dtype=np.uint32)[rng.integers(0, len(h.leaves), size=(height, width))]
leaf[rng.random((height, width)) < 0.1] = IGNORE
labels = LabelField(leaf)
prop = in_workers(hiertax.propagate_field, h, scores, labels)
value, grad = in_workers(hiertax.field_loss, h, scores, labels, "ftm")
pred = in_workers(hiertax.decode_field, h, scores)
# A call's worker ends before the next call starts.
peak = peak_kb() + workers_kb
print(json.dumps({"base_kb": base, "peak_kb": peak, "io_bytes": scores.scores.nbytes
                  + labels.leaf.nbytes + prop.scores.nbytes + grad.nbytes + pred.leaf.nbytes}))
"""

# Room above inputs plus outputs for the row-block temporaries of the
# caller and of one worker, and the allocator; a whole-field float64 copy
# of the (100k, 145) scores is 116 MB.
FIELD_RSS_MARGIN_MB = 32


def _grown_and_io_mb(code: str, *args: str) -> tuple[float, float]:
    """Peak RSS growth of a child running ``code`` on the Mapillary tree,
    and the bytes of the inputs and outputs it reports, both in MB."""
    tax = os.path.join(SRC, "hiertax", "data", "mapillary_vistas.tax")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PEAK_KB_CODE + code, tax, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    return (got["peak_kb"] - got["base_kb"]) / 1024, got["io_bytes"] / 2**20


def test_batch_loss_peak_rss_is_inputs_plus_outputs():
    grown_mb, io_mb = _grown_and_io_mb(PEAK_RSS_CODE, "100000")
    assert grown_mb <= io_mb + RSS_MARGIN_MB, (grown_mb, io_mb)


def test_field_paths_peak_rss_is_inputs_plus_outputs():
    """propagate_field, field_loss(ftm) and decode_field on a float32
    (100k, 145) field, counting the pages their forked workers add."""
    grown_mb, io_mb = _grown_and_io_mb(FIELD_RSS_CODE)
    assert grown_mb <= io_mb + FIELD_RSS_MARGIN_MB, (grown_mb, io_mb)


READ_RSS_CODE = """\
import json, sys
from hiertax.fields import read_score_field
base = peak_kb()
field = read_score_field(sys.argv[1])
print(json.dumps({"base_kb": base, "peak_kb": peak_kb()}))
"""

# Room above one check chunk for what the first read allocates beside it.
# On the 76 MB field below, a 2 MB chunk grew VmHWM by 4.0 MB; reading
# the payload into a fresh array grew it by 72.6 MB.
READ_RSS_MARGIN_MB = 4


def test_reading_a_field_does_not_make_it_resident(tmp_path):
    """read_score_field maps the file and its [0, 1] check drops each
    chunk's pages after reading them, so reading a 76 MB field leaves at
    most about one chunk of it resident."""
    height, width, classes = 256, 512, 145
    path = tmp_path / "big.hssf"
    row = np.full((width, classes), 0.5, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(b"HSSF" + struct.pack("<III", height, width, classes))
        for _ in range(height):
            f.write(row)
    assert path.stat().st_size >= 64 * 2**20
    done = subprocess.run(
        [sys.executable, "-c", PEAK_KB_CODE + READ_RSS_CODE, str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    grown_mb = (got["peak_kb"] - got["base_kb"]) / 1024
    assert grown_mb <= CHECK_CHUNK_BYTES / 2**20 + READ_RSS_MARGIN_MB, grown_mb
