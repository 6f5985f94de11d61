"""Property tests: the row-blocked tree-DP kernels and the ancestor-mask
constraint checks against brute force.

Random recursive trees with quantised scores, so that ties between nodes
are common; every tie must resolve to the smallest node (or leaf) id.
"""

import json
import os
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
    tree_extrema,
)
from hiertax.evaluation import decode_batch
from hiertax.gradcheck import random_hierarchy
from hiertax.losses import batch_loss, focal_tree_min_loss, tree_min_loss
from hiertax.training import coherence_violation_rate

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _case(seed: int, n_nodes: int, n_rows: int, levels: int = 4):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, n_nodes)
    s = rng.integers(0, levels + 1, size=(n_rows, n_nodes)) / levels
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
    for check in (check_positive_constraint, check_negative_constraint):
        with pytest.raises(ValueError, match="NaN"):
            check(h, s, float("nan"))


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


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_rows=st.integers(1, 12))
def test_tree_min_batch_loss_matches_scalar_losses(seed, n_nodes, n_rows):
    h, s, leaf_ids = _case(seed, n_nodes, n_rows)
    for which, scalar in (("tm", tree_min_loss), ("ftm", focal_tree_min_loss)):
        values, grad = batch_loss(h, s, leaf_ids, which)
        for r, leaf in enumerate(leaf_ids):
            rep = scalar(h, s[r], expand_labels(h, int(leaf)))
            assert values[r] == rep.value
            np.testing.assert_array_equal(grad[r], rep.grad)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 20), n_rows=st.integers(1, 30))
def test_decode_batch_matches_path_enumeration(seed, n_nodes, n_rows):
    h, s, _ = _case(seed, n_nodes, n_rows, levels=3)
    np.testing.assert_array_equal(decode_batch(h, s), brute_decode(h, s))


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
import json, sys
import numpy as np
import hiertax
from hiertax.fields import IGNORE, LabelField, ScoreField
h = hiertax.load_taxonomy(sys.argv[1])
height, width = 250, 400
base = peak_kb()
rng = np.random.default_rng(0)
scores = ScoreField(rng.random((height, width, len(h)), dtype=np.float32))
leaf = np.array(h.leaves, dtype=np.uint32)[rng.integers(0, len(h.leaves), size=(height, width))]
leaf[rng.random((height, width)) < 0.1] = IGNORE
labels = LabelField(leaf)
prop = hiertax.propagate_field(h, scores, labels)
value, grad = hiertax.field_loss(h, scores, labels, "ftm")
pred = hiertax.decode_field(h, scores)
peak = peak_kb()
print(json.dumps({"base_kb": base, "peak_kb": peak, "io_bytes": scores.scores.nbytes
                  + labels.leaf.nbytes + prop.scores.nbytes + grad.nbytes + pred.leaf.nbytes}))
"""

# Room above inputs plus outputs for ScoreField's range check (one bool
# per score, 14 MB here), the row-block temporaries and the allocator; a
# whole-field float64 copy of the (100k, 145) scores is 116 MB.
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
    (100k, 145) field."""
    grown_mb, io_mb = _grown_and_io_mb(FIELD_RSS_CODE)
    assert grown_mb <= io_mb + FIELD_RSS_MARGIN_MB, (grown_mb, io_mb)
