import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hiertax.training as training
from hiertax.embedding import (
    _checked,
    ProjectionParams,
    TripletLossReport,
    batch_triplet_loss,
    cosine_distance,
    init_projection,
    project,
    project_backward,
    sample_triplets,
    tree_triplet_loss,
    triplet_margin,
)
from hiertax.gradcheck import central_difference, random_hierarchy, relative_error
from hiertax.synthetic import SyntheticConfig, generate_synthetic
from hiertax.taxonomy import build_hierarchy
from hiertax.training import TrainConfig, train


class TestCosineDistance:
    def test_identical_is_zero(self):
        x = np.array([1.0, 2.0, -0.5])
        assert cosine_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel_is_one(self):
        x = np.array([1.0, -2.0, 3.0])
        assert cosine_distance(x, -x) == pytest.approx(1.0)

    def test_orthogonal_is_half(self):
        assert cosine_distance([1.0, 0.0], [0.0, 5.0]) == pytest.approx(0.5)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=8), rng.normal(size=8)
        assert cosine_distance(3.7 * x, 0.01 * y) == pytest.approx(cosine_distance(x, y))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="nonzero norm"):
            cosine_distance(np.zeros(4), np.ones(4))


class TestTripletMargin:
    def test_worked_example_d2(self):
        # D=2 tree; psi(anchor, neg)=4, psi(anchor, pos)=2
        h = build_hierarchy(["r", "x", "y", "x1", "x2", "y1"], [-1, 0, 0, 1, 1, 2])
        m = triplet_margin(h, 3, 4, 5)
        assert m == pytest.approx(0.35)

    def test_maximal_separation(self, three_level):
        # psi gap of 2D on the balanced D=2 tree gives m_tau=1, m=0.60
        h = three_level
        assert triplet_margin(h, h.leaves[0], h.leaves[0], h.leaves[2]) == pytest.approx(0.60)

    def test_invalid_triplet_rejected(self, tiny):
        with pytest.raises(ValueError, match="invalid triplet"):
            triplet_margin(tiny, 3, 2, 4)  # negative closer than positive

    def test_monotone_in_negative_distance(self, three_level):
        h = three_level
        anchor, pos = h.leaves[0], h.leaves[0]
        margins = []
        for neg in (h.leaves[1], h.leaves[2]):
            margins.append(triplet_margin(h, anchor, pos, neg))
        assert margins[0] < margins[1]


class TestTreeTripletLoss:
    def test_well_separated_inactive(self):
        a = np.array([1.0, 0.0])
        rep = tree_triplet_loss(a, a, -a, 0.35)
        assert rep.value == 0.0
        assert not rep.grad_anchor.any() and not rep.grad_pos.any() and not rep.grad_neg.any()

    def test_pos_equals_neg_gives_margin(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=6), rng.normal(size=6)
        rep = tree_triplet_loss(a, b, b, 0.42)
        assert rep.value == pytest.approx(0.42)

    def test_active_gradcheck_all_three(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, p, n = rng.normal(size=(3, 5))
            m = 0.5
            rep = tree_triplet_loss(a, p, n, m)
            if rep.value <= 1e-3:  # keep clear of the hinge kink
                continue
            for which, grad in (("a", rep.grad_anchor), ("p", rep.grad_pos), ("n", rep.grad_neg)):
                def f(x, which=which):
                    args = {"a": a, "p": p, "n": n}
                    args[which] = x
                    return tree_triplet_loss(args["a"], args["p"], args["n"], m).value

                numeric = central_difference(f, {"a": a, "p": p, "n": n}[which].copy())
                assert relative_error(grad, numeric) < 1e-4


def _rows(triplets) -> list[tuple]:
    """``sample_triplets`` output as (anchor, pos, neg, margin) tuples."""
    assert triplets.pixels.dtype == np.int64 and triplets.pixels.shape == (len(triplets), 3)
    assert triplets.margin.dtype == np.float64 and triplets.margin.shape == (len(triplets),)
    return [(*p, m) for p, m in zip(triplets.pixels.tolist(), triplets.margin.tolist())]


class TestSampleTriplets:
    def test_single_label_batch_empty(self, tiny):
        assert _rows(sample_triplets(tiny, [3] * 10, count=50, rng_seed=0)) == []

    def test_validity_under_fuzz(self, three_level):
        rng = np.random.default_rng(3)
        dist = three_level.tree_distance
        for seed in range(10):
            labels = rng.choice(three_level.leaves, size=30)
            triplets = sample_triplets(three_level, labels, count=40, rng_seed=seed)
            for (a, p, n), m in zip(labels[triplets.pixels].tolist(), triplets.margin):
                assert dist(a, p) < dist(a, n)
                assert m == pytest.approx(triplet_margin(three_level, a, p, n))

    def test_exact_count_and_reproducibility(self, three_level):
        rng = np.random.default_rng(4)
        labels = rng.choice(three_level.leaves, size=500)
        a = _rows(sample_triplets(three_level, labels, count=200, rng_seed=123))
        b = _rows(sample_triplets(three_level, labels, count=200, rng_seed=123))
        assert len(a) == 200
        assert a == b
        c = _rows(sample_triplets(three_level, labels, count=200, rng_seed=124))
        assert a != c

    def test_three_pixel_batch(self, tiny):
        # labels {a1, a2, B}: every valid triplet satisfies the psi inequality
        labels = np.array([3, 4, 2])
        triplets = sample_triplets(tiny, labels, count=100, rng_seed=5)
        assert len(triplets)
        for a, p, n in labels[triplets.pixels].tolist():
            assert tiny.tree_distance(a, p) < tiny.tree_distance(a, n)

    @pytest.mark.parametrize("labels, bad", [
        ([-1, 3, 4, 2, 3], -1),  # wrapped to node 4's distance row
        ([0, 1, 3, 4, 2], 0),  # internal nodes sampled as leaves
        ([3, 4, 7, 2], 7),  # out of range
    ])
    def test_non_leaf_label_rejected(self, tiny, labels, bad):
        with pytest.raises(ValueError, match=f"label id {bad} is not a leaf of the hierarchy"):
            sample_triplets(tiny, labels, count=20, rng_seed=0)

    @pytest.mark.parametrize("labels", [[[3, 4], [2, 3], [4, 2]], 3])
    def test_labels_not_1d_rejected(self, tiny, labels):
        shape = np.shape(labels)
        with pytest.raises(ValueError, match=rf"1-D .* got shape {re.escape(str(shape))}"):
            sample_triplets(tiny, labels, count=20, rng_seed=0)


@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(1, 30), n=st.integers(3, 12))
def test_triplet_feasibility_matches_per_anchor_scan(seed, n_nodes, n):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, n_nodes)
    # Few distinct labels, so single-label and all-distinct batches both occur.
    pool = rng.choice(h.leaves, size=int(rng.integers(1, 4)))
    labels = rng.choice(pool, size=n)
    want = any(
        np.unique(h.dist[labels[a], np.delete(labels, a)]).size >= 2 for a in range(n)
    )
    assert (len(sample_triplets(h, labels, count=1, rng_seed=seed)) > 0) == want


def reference_sample_triplets(h, batch_labels, count=200, rng_seed=0, margin_base=0.1, max_tries=1000):
    """The per-draw sampler that ``sample_triplets`` replaced: one size-3
    draw per candidate, up to ``max_tries`` candidates per triplet. Returns
    (anchor, pos, neg, margin) tuples."""
    labels = np.asarray(batch_labels, dtype=np.int64)
    n = labels.size
    dist = h.dist
    if n < 3 or count <= 0:
        return []

    rng = np.random.default_rng(rng_seed)
    out = []
    while len(out) < count:
        for _ in range(max_tries):
            a, i, j = rng.integers(0, n, size=3)
            if i == a or j == a or i == j:
                continue
            di = dist[labels[a], labels[i]]
            dj = dist[labels[a], labels[j]]
            if di == dj:
                continue
            if di > dj:
                i, j = j, i
            margin = triplet_margin(
                h, int(labels[a]), int(labels[i]), int(labels[j]), margin_base
            )
            out.append((int(a), int(i), int(j), margin))
            break
        else:
            break  # retry budget exhausted; return what we have
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(2, 30),
    n=st.integers(3, 400),
    count=st.integers(1, 80),
    max_tries=st.sampled_from([1, 2, 5, 1000]),
)
def test_sample_triplets_matches_per_draw_reference(seed, n_nodes, n, count, max_tries):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, n_nodes)
    pool = rng.choice(h.leaves, size=int(rng.integers(1, 5)))
    labels = rng.choice(pool, size=n)
    kwargs = dict(
        count=count,
        rng_seed=int(rng.integers(0, 2**63 - 1)),
        margin_base=float(rng.choice([0.0, 0.1, 0.37])),
        max_tries=max_tries,
    )
    assert _rows(sample_triplets(h, labels, **kwargs)) == reference_sample_triplets(
        h, labels, **kwargs
    )


@pytest.mark.parametrize("max_tries", [10, 30, 100])
def test_sample_triplets_low_yield_matches_per_draw_reference(tiny, max_tries):
    """One a1 pixel among b pixels: a candidate is valid only with a b anchor,
    a1 and another b, so runs of rejections often span draw blocks."""
    for n in (20, 60):
        labels = [3] + [2] * (n - 1)
        for seed in range(20):
            kwargs = dict(count=15, rng_seed=seed, max_tries=max_tries)
            assert _rows(sample_triplets(tiny, labels, **kwargs)) == reference_sample_triplets(
                tiny, labels, **kwargs
            ), (n, seed)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _cosine_distance_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Distance plus its gradients with respect to both inputs."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    dot = x @ y
    d = 0.5 * (1.0 - dot / (nx * ny))
    gx = -0.5 * (y / (nx * ny) - dot * x / (nx**3 * ny))
    gy = -0.5 * (x / (nx * ny) - dot * y / (nx * ny**3))
    return float(d), gx, gy


def reference_tree_triplet_loss(a, p, n, margin: float) -> TripletLossReport:
    """The per-triplet vector hinge that ``batch_triplet_loss`` replaced:
    max(d(a,p) - d(a,n) + margin, 0) on one triplet of vectors.

    The boundary subgradient routes as active; the inactive side has
    exactly zero gradient.
    """
    a, p, n = _checked(a), _checked(p), _checked(n)
    d_ap, g_a_p, g_p = _cosine_distance_grad(a, p)
    d_an, g_a_n, g_n = _cosine_distance_grad(a, n)
    arg = d_ap - d_an + margin
    if arg < 0.0:
        zero = np.zeros_like(a)
        return TripletLossReport(0.0, zero, np.zeros_like(p), np.zeros_like(n))
    return TripletLossReport(
        value=float(arg),
        grad_anchor=g_a_p - g_a_n,
        grad_pos=g_p,
        grad_neg=-g_n,
    )


class TestBatchTripletLoss:
    def _case(self, t=64, d=16):
        rng = np.random.default_rng(8)
        a, p, n = rng.normal(size=(3, t, d))
        margins = rng.uniform(0.1, 0.6, size=t)
        # row 0: far from active
        p[0], n[0], margins[0] = a[0], -a[0], 0.35
        # row 1: d(a, p) = 0 and d(a, n) = 0.5 exactly, so arg == 0
        a[1], p[1], n[1], margins[1] = 0.0, 0.0, 0.0, 0.5
        a[1, 0] = p[1, 0] = n[1, 1] = 1.0
        return a, p, n, margins

    def test_rows_match_scalar_oracle_bit_for_bit(self):
        a, p, n, margins = self._case()
        values, g_a, g_p, g_n = batch_triplet_loss(a, p, n, margins)
        for r in range(len(margins)):
            want = reference_tree_triplet_loss(a[r], p[r], n[r], margins[r])
            one = tree_triplet_loss(a[r], p[r], n[r], margins[r])
            for rep in (want, one):
                assert _bits(values[r]) == _bits(rep.value), r
                assert _bits(g_a[r]) == _bits(rep.grad_anchor), r
                assert _bits(g_p[r]) == _bits(rep.grad_pos), r
                assert _bits(g_n[r]) == _bits(rep.grad_neg), r
        assert values[0] == 0.0 and not (g_a[0].any() or g_p[0].any() or g_n[0].any())
        # the boundary routes as active: zero value, nonzero gradient
        assert values[1] == 0.0 and g_a[1].any()
        assert (values > 0.0).sum() > 10 and (values == 0.0).sum() > 2

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_zero_or_nonfinite_row_rejected_like_oracle(self, which, bad):
        args = list(self._case()[:3])
        args[which] = args[which].copy()
        args[which][5] = bad
        with pytest.raises(ValueError, match="nonzero norm"):
            reference_tree_triplet_loss(args[0][5], args[1][5], args[2][5], 0.3)
        with pytest.raises(ValueError, match="nonzero norm"):
            tree_triplet_loss(args[0][5], args[1][5], args[2][5], 0.3)
        with pytest.raises(ValueError, match="nonzero norm"):
            batch_triplet_loss(*args, np.full(len(args[0]), 0.3))


    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_a_norm_whose_cube_overflows_is_rejected(self, which):
        """A norm near 1e103 is finite, but its cube, which the distance
        gradient divides by, is not: bad input, not ``OverflowError``."""
        args = list(self._case()[:3])
        args[which] = args[which].copy()
        args[which][5] = 1e103
        with pytest.raises(ValueError, match="too large to cube"):
            batch_triplet_loss(*args, np.full(len(args[0]), 0.3))
        with pytest.raises(ValueError, match="too large to cube"):
            tree_triplet_loss(args[0][5], args[1][5], args[2][5], 0.3)


def reference_triplet_step(h, x, leaf_ids, cfg, proj, proj_vel, beta, rng):
    """The per-triplet projection step that ``training._triplet_step``
    replaced, on the per-draw sampler and the per-triplet hinge."""
    step_seed = int(rng.integers(0, 2**63 - 1))
    triplets = reference_sample_triplets(
        h, leaf_ids, count=cfg.triplet_count, rng_seed=step_seed, margin_base=cfg.margin_base
    )
    if not triplets:
        return 0.0
    idx = np.array([t[:3] for t in triplets], dtype=np.int64)
    flat_idx = idx.reshape(-1)
    z = project(x[flat_idx], proj).reshape(len(triplets), 3, -1)
    upstream = np.zeros_like(z)
    total = 0.0
    used = 0
    for i, t in enumerate(triplets):
        if not (z[i, 0].any() and z[i, 1].any() and z[i, 2].any()):
            continue
        rep = reference_tree_triplet_loss(z[i, 0], z[i, 1], z[i, 2], t[3])
        total += rep.value
        upstream[i, 0] = rep.grad_anchor
        upstream[i, 1] = rep.grad_pos
        upstream[i, 2] = rep.grad_neg
        used += 1
    if used == 0:
        return 0.0
    mean_value = total / used
    scale = beta / used
    _, grads = project_backward(x[flat_idx], proj, upstream.reshape(len(flat_idx), -1) * scale)
    training._sgd_step(proj, proj_vel, vars(grads), cfg)
    return float(mean_value)


@pytest.mark.parametrize("all_zero", [False, True])
def test_triplet_step_skips_zero_embeddings_like_reference(three_level, all_zero):
    """The head maps every pixel with a negative first feature to the zero
    embedding; triplets touching one contribute nothing."""
    rng = np.random.default_rng(9)
    leaf_ids = rng.choice(np.array(three_level.leaves), size=60)
    x = rng.normal(size=(60, 4))
    if all_zero:
        x[:, 0] = -np.abs(x[:, 0])
    w1 = np.zeros((4, 3))
    w1[0] = [1.0, 0.5, 2.0]
    w2 = rng.normal(size=(3, 5))
    cfg = TrainConfig(triplet_count=200)
    results = []
    for step in (training._triplet_step, reference_triplet_step):
        proj = ProjectionParams(w1=w1.copy(), b1=np.zeros(3), w2=w2.copy(), b2=np.zeros(5))
        value = step(three_level, x, leaf_ids, cfg, proj, {}, 0.5, np.random.default_rng(3))
        results.append((value, [_bits(getattr(proj, k)) for k in ("w1", "b1", "w2", "b2")]))
    assert results[0] == results[1]
    assert (results[0][0] == 0.0) == all_zero


def test_training_triplet_step_matches_per_triplet_reference(three_level, monkeypatch):
    features, labels, h = generate_synthetic(
        SyntheticConfig(pixels_per_class=200, seed=0), three_level
    )
    cfg = TrainConfig(iterations=10, loss="ftm", use_triplet=True, seed=0)

    def run():
        made = []

        def keep(*args, **kwargs):
            made.append(init_projection(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(training, "init_projection", keep)
        return train(features, labels, h, cfg), made[0]

    got, proj = run()
    monkeypatch.setattr(training, "_triplet_step", reference_triplet_step)
    want, ref_proj = run()
    assert any(got.triplet_losses)
    assert got.triplet_losses == want.triplet_losses
    assert got.losses == want.losses
    for name in ("w1", "b1", "w2", "b2"):
        assert _bits(getattr(proj, name)) == _bits(getattr(ref_proj, name)), name


class TestProjection:
    def test_zero_input_zero_bias(self):
        params = init_projection(4, out_dim=6)
        out = project(np.zeros(4), params)
        assert np.allclose(out, 0.0)

    def test_identity_passthrough(self):
        dim = 8
        params = ProjectionParams(
            w1=np.eye(dim), b1=np.zeros(dim), w2=np.eye(dim), b2=np.zeros(dim)
        )
        x = np.abs(np.random.default_rng(6).normal(size=dim))  # positive avoids the rectifier
        assert np.allclose(project(x, params), x)

    def test_shape_mismatch(self):
        params = init_projection(4)
        with pytest.raises(ValueError, match="does not match"):
            project(np.zeros(5), params)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_projection(5, out_dim=4, hidden=6, rng=rng)
        x = rng.normal(size=5) + 0.5  # keep pre-activations away from kinks
        upstream = rng.normal(size=4)

        def f_x(x):
            return float(project(x, params) @ upstream)

        g_x, g_params = project_backward(x, params, upstream)
        assert relative_error(g_x, central_difference(f_x, x.copy())) < 1e-4

        for name in ("w1", "b1", "w2", "b2"):
            def f_p(p, name=name):
                trial = ProjectionParams(**{**params.__dict__, name: p})
                return float(project(x, trial) @ upstream)

            numeric = central_difference(f_p, getattr(params, name).copy())
            assert relative_error(getattr(g_params, name), numeric) < 1e-4
