import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from hiertax.fields import IGNORE, LabelField
from hiertax.gradcheck import central_difference, relative_error
from hiertax.losses import LOSSES, batch_loss, cce_loss
from hiertax.report import (
    load_run_json,
    run_artifacts,
    write_report_files,
    write_run_json,
)
from hiertax.synthetic import SyntheticConfig, generate_synthetic, leaf_centers
from hiertax.training import (
    TrainConfig,
    TrainingDivergedError,
    beta_schedule,
    coherence_violation_rate,
    run_toy,
    train,
)


class TestBetaSchedule:
    def test_endpoints(self):
        assert beta_schedule(0, 100) == 0.0
        assert beta_schedule(100, 100) == pytest.approx(0.5)
        assert beta_schedule(50, 100) == pytest.approx(0.25)

    def test_monotone_nondecreasing(self):
        vals = [beta_schedule(t, 200, beta_max=0.7) for t in range(201)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.7)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            beta_schedule(101, 100)

    def test_constant_kind(self):
        cfg = TrainConfig(iterations=10, beta_kind="constant", beta_max=0.3)
        assert cfg.beta(0) == cfg.beta(10) == 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown loss"):
            TrainConfig(loss="hinge")
        with pytest.raises(ValueError, match="beta schedule"):
            TrainConfig(beta_kind="linear")

    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_momentum_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="momentum must be finite and >= 0"):
            TrainConfig(momentum=value)

    @pytest.mark.parametrize("value", [-1e-4, np.nan, np.inf])
    def test_weight_decay_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="weight_decay must be finite and >= 0"):
            TrainConfig(weight_decay=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_proj_dim_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"proj_dim must be >= 1, got {value}"):
            TrainConfig(proj_dim=value)


class TestSynthetic:
    def test_center_distances_track_tree_distance(self, three_level):
        centers = leaf_centers(three_level, dim=8, scale=2.0)
        leaves = list(three_level.leaves)
        tree_d, embed_d = [], []
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                psi = three_level.dist[leaves[i], leaves[j]]
                d = np.linalg.norm(centers[i] - centers[j])
                assert d == pytest.approx(2.0 * np.sqrt(psi))
                tree_d.append(psi)
                embed_d.append(d)
        # round so float jitter cannot break ties that exist in the tree metric
        rho, _ = spearmanr(tree_d, np.round(embed_d, 9))
        assert rho == pytest.approx(1.0)

    def test_dim_too_small_rejected(self, three_level):
        with pytest.raises(ValueError, match="feature_dim"):
            leaf_centers(three_level, dim=3)

    def test_deterministic_per_seed(self, three_level):
        cfg = SyntheticConfig(feature_dim=8, pixels_per_class=10, seed=7)
        fa, la, _ = generate_synthetic(cfg, three_level)
        fb, lb, _ = generate_synthetic(cfg, three_level)
        assert fa.tobytes() == fb.tobytes()
        assert np.array_equal(la.leaf, lb.leaf)
        fc, lc, _ = generate_synthetic(
            SyntheticConfig(feature_dim=8, pixels_per_class=10, seed=8), three_level
        )
        assert fa.tobytes() != fc.tobytes()

    def test_balanced_grid_and_class_counts(self, three_level):
        cfg = SyntheticConfig(feature_dim=8, pixels_per_class=10, seed=0)
        features, labels, _ = generate_synthetic(cfg, three_level)
        k = len(three_level.leaves)
        assert features.shape == (k, 10, 8)
        assert labels.leaf.shape == (k, 10)
        values, counts = np.unique(labels.leaf, return_counts=True)
        assert sorted(values.tolist()) == sorted(three_level.leaves)
        assert np.all(counts == 10)

    def test_bad_grid_rejected(self, three_level):
        cfg = SyntheticConfig(feature_dim=8, pixels_per_class=10, height=3, width=3)
        with pytest.raises(ValueError, match="grid"):
            generate_synthetic(cfg, three_level)

    def test_low_noise_is_linearly_separable(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=50, noise_sigma=0.01, seed=0)
        report = run_toy(syn, TrainConfig(iterations=100, loss="cce", seed=0), three_level)
        assert report.level_miou[0].miou == 1.0


class TestTraining:
    def test_run_toy_deterministic(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=1)
        cfg = TrainConfig(iterations=20, loss="ftm", use_triplet=True, proj_dim=16, seed=1)
        a = run_toy(syn, cfg, three_level)
        b = run_toy(syn, cfg, three_level)
        assert a.losses == b.losses
        assert a.triplet_losses == b.triplet_losses
        assert np.array_equal(a.scorer.weight, b.scorer.weight)

    def test_triplet_term_does_not_touch_scorer(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=2)
        base = TrainConfig(iterations=25, loss="ftm", use_triplet=False, seed=3)
        with_tt = TrainConfig(
            iterations=25, loss="ftm", use_triplet=True, proj_dim=16, seed=3
        )
        a = run_toy(syn, base, three_level)
        b = run_toy(syn, with_tt, three_level)
        assert np.array_equal(a.scorer.weight, b.scorer.weight)
        assert np.array_equal(a.scorer.bias, b.scorer.bias)
        assert [ls.miou for ls in a.level_miou] == [ls.miou for ls in b.level_miou]
        assert any(t > 0 for t in b.triplet_losses)
        assert all(t == 0.0 for t in a.triplet_losses)

    def test_zero_triplet_count_reduces_to_plain(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=4)
        a = run_toy(syn, TrainConfig(iterations=15, use_triplet=False, seed=5), three_level)
        b = run_toy(
            syn,
            TrainConfig(iterations=15, use_triplet=True, triplet_count=0, seed=5),
            three_level,
        )
        assert a.losses == b.losses
        assert np.array_equal(a.scorer.weight, b.scorer.weight)

    def test_beta_curve_recorded(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=6)
        cfg = TrainConfig(iterations=20, use_triplet=True, proj_dim=16, seed=6)
        report = run_toy(syn, cfg, three_level)
        assert report.betas == [cfg.beta(t) for t in range(20)]
        assert report.betas[0] == 0.0

    def test_divergence_raises(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="non-finite"):
            run_toy(syn, TrainConfig(iterations=30, lr=1e25, loss="bce"), three_level)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("bad", ["ignored", "out_of_range", "internal"])
    def test_non_leaf_label_rejected(self, three_level, loss, bad):
        features, labels, h = generate_synthetic(
            SyntheticConfig(feature_dim=8, pixels_per_class=5, seed=0), three_level
        )
        label = {"ignored": IGNORE, "out_of_range": len(h), "internal": 2}[bad]
        leaf = labels.leaf.copy()
        leaf.flat[7] = label
        with pytest.raises(ValueError, match=f"label id {label} is not a leaf"):
            # No step runs, so no loss kernel sees the labels: train checks them itself.
            train(features, LabelField(leaf), h, TrainConfig(iterations=0, loss=loss))

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_label_count_must_match_feature_rows(self, three_level, loss, extra):
        features, labels, h = generate_synthetic(
            SyntheticConfig(feature_dim=8, pixels_per_class=5, seed=0), three_level
        )
        leaf = labels.leaf.reshape(-1)
        leaf = np.concatenate([leaf, leaf[:1]]) if extra > 0 else leaf[:-1]
        n = labels.leaf.size
        with pytest.raises(ValueError, match=f"expected {n} labels, one per feature row"):
            train(features, LabelField(leaf[None]), h, TrainConfig(iterations=1, loss=loss))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_sgd_step_is_the_mean_loss_gradient(self, three_level, loss):
        """With lr 1 and no momentum or decay, one step moves the scorer by
        the gradient of the mean loss over its weight and bias."""
        h = three_level
        rng = np.random.default_rng(3)
        features = rng.normal(size=(4, 6, 3))
        labels = LabelField(rng.choice(np.array(h.leaves), size=(4, 6)))
        x = features.reshape(-1, 3)
        leaf_ids = labels.leaf.reshape(-1).astype(np.int64)

        def scorer(iterations):
            cfg = TrainConfig(
                iterations=iterations, lr=1.0, momentum=0.0, weight_decay=0.0, loss=loss, seed=5
            )
            return train(features, labels, h, cfg).scorer

        def mean_loss(weight, bias):
            logits = x @ weight + bias
            if loss == "cce":
                return cce_loss(h, logits, leaf_ids)[0]
            s = 1.0 / (1.0 + np.exp(-logits))
            return float(batch_loss(h, s, leaf_ids, loss)[0].mean())

        before, after = scorer(0), scorer(1)
        w0, b0 = before.weight, before.bias
        num_w = central_difference(lambda w: mean_loss(w, b0), w0.copy(), 1e-7)
        num_b = central_difference(lambda b: mean_loss(w0, b), b0.copy(), 1e-7)
        assert relative_error(w0 - after.weight, num_w) < 1e-6
        assert relative_error(b0 - after.bias, num_b) < 1e-6

    def test_violation_rate_bounds(self, three_level):
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 1, size=(50, len(three_level)))
        rate = coherence_violation_rate(three_level, s)
        assert 0.0 <= rate <= 1.0
        # all-zero scores violate nothing: no node outscores its parent
        assert coherence_violation_rate(three_level, np.zeros((4, len(three_level)))) == 0.0


class TestReportFiles:
    def _report(self, three_level):
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=9)
        cfg = TrainConfig(iterations=10, loss="ftm", use_triplet=True, proj_dim=16, seed=9)
        return run_toy(syn, cfg, three_level)

    def test_run_json_roundtrip(self, three_level, tmp_path):
        report = self._report(three_level)
        path = tmp_path / "run.json"
        write_run_json(path, report)
        artifacts = load_run_json(path)
        assert artifacts == run_artifacts(report)
        assert TrainConfig(**artifacts["config"]) == report.config

    def test_report_files_byte_deterministic(self, three_level, tmp_path):
        report = self._report(three_level)
        artifacts = run_artifacts(report)
        paths_a = write_report_files(artifacts, tmp_path / "a")
        # roundtrip through JSON text, then regenerate
        blob = json.dumps(artifacts)
        paths_b = write_report_files(json.loads(blob), tmp_path / "b")
        for pa, pb in zip(paths_a, paths_b):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_report_file_contents(self, three_level, tmp_path):
        report = self._report(three_level)
        paths = write_report_files(run_artifacts(report), tmp_path)
        names = [p.split("/")[-1] for p in paths]
        assert names == ["loss_curve.csv", "metrics.csv", "loss_curve.svg"]
        curve = (tmp_path / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss,beta,triplet_loss"
        assert len(curve) == 1 + len(report.losses)
        metrics = (tmp_path / "metrics.csv").read_text()
        assert "violation_rate" in metrics and "miou" in metrics
        svg = (tmp_path / "loss_curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_benchmark_tracer_binds_to_library(monkeypatch):
    """The benchmark's tracer wraps every function it lists, at every site."""
    import hiertax.cli  # noqa: F401  (the benchmark loads the CLI before tracing)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        assert sorted(t.sites) == sorted(tracer.function_names())
        assert all(t.sites.values())
    finally:
        t.uninstall()


@pytest.mark.parametrize("one_leaf", [False, True])
def test_benchmark_triplet_yield_counts_the_returned_triplets(monkeypatch, three_level, one_leaf):
    """The benchmark's ``embedding.sample_triplets.yield`` is the share of the
    requested triplets the sampler returned: all of them, or none for a
    batch of one leaf."""
    import hiertax.embedding

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracer

    labels = np.random.default_rng(5).choice(three_level.leaves[: 1 if one_leaf else None], size=40)
    count = 30
    t = tracer.Tracer()
    t.begin_op()
    try:
        result = hiertax.embedding.sample_triplets(three_level, labels, count=count, rng_seed=2)
    finally:
        metrics = t.end_op(0)
    assert len(result) == (0 if one_leaf else count)
    assert metrics["embedding.sample_triplets.calls"] == 1
    assert metrics["embedding.sample_triplets.yield"] == len(result) / count
