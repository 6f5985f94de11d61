import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiertax.embedding import (
    _has_triplet,
    ProjectionParams,
    cosine_distance,
    init_projection,
    project,
    project_backward,
    sample_triplets,
    tree_triplet_loss,
    triplet_margin,
)
from hiertax.gradcheck import central_difference, random_hierarchy, relative_error
from hiertax.taxonomy import build_hierarchy


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


class TestSampleTriplets:
    def test_single_label_batch_empty(self, tiny):
        assert sample_triplets(tiny, [3] * 10, count=50, rng_seed=0) == []

    def test_validity_under_fuzz(self, three_level):
        rng = np.random.default_rng(3)
        for seed in range(10):
            labels = rng.choice(three_level.leaves, size=30)
            triplets = sample_triplets(three_level, labels, count=40, rng_seed=seed)
            for t in triplets:
                assert three_level.tree_distance(t.anchor_leaf, t.pos_leaf) < three_level.tree_distance(
                    t.anchor_leaf, t.neg_leaf
                )
                assert t.margin == pytest.approx(
                    triplet_margin(three_level, t.anchor_leaf, t.pos_leaf, t.neg_leaf)
                )

    def test_exact_count_and_reproducibility(self, three_level):
        rng = np.random.default_rng(4)
        labels = rng.choice(three_level.leaves, size=500)
        a = sample_triplets(three_level, labels, count=200, rng_seed=123)
        b = sample_triplets(three_level, labels, count=200, rng_seed=123)
        assert len(a) == 200
        assert a == b
        c = sample_triplets(three_level, labels, count=200, rng_seed=124)
        assert a != c

    def test_three_pixel_batch(self, tiny):
        # labels {a1, a2, B}: every valid triplet satisfies the psi inequality
        triplets = sample_triplets(tiny, [3, 4, 2], count=100, rng_seed=5)
        assert triplets
        for t in triplets:
            assert tiny.tree_distance(t.anchor_leaf, t.pos_leaf) < tiny.tree_distance(
                t.anchor_leaf, t.neg_leaf
            )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
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
    assert _has_triplet(h.dist, labels) == want
    assert bool(sample_triplets(h, labels, count=1, rng_seed=seed)) == want


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
