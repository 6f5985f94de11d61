"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable report when run with ``pytest tests/test_acceptance.py -s``.
"""

import time

import numpy as np

from hiertax.cli import EXIT_OK, main
from hiertax.coherence import (
    check_negative_constraint,
    check_positive_constraint,
    expand_labels,
    propagate,
)
from hiertax.embedding import tree_triplet_loss, triplet_margin
from hiertax.evaluation import decode_path, evaluate_prediction_levels
from hiertax.fields import LabelField
from hiertax.gradcheck import central_difference, gradcheck_loss, random_hierarchy, relative_error
from hiertax.losses import FocalConfig, bce_loss, focal_loss, focal_tree_min_loss, tree_min_loss
from hiertax.synthetic import SyntheticConfig
from hiertax.taxonomy import build_hierarchy, load_taxonomy
from hiertax.training import TrainConfig, run_toy

from conftest import TAX_DIR


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_1_gradient_suite():
    """Analytic gradients of every loss match central finite differences."""
    start = time.perf_counter()
    tol, trials = 1e-4, 100
    worst = {}
    for i, loss in enumerate(("cce", "bce", "focal", "tm", "ftm")):
        worst[loss] = gradcheck_loss(loss, trials=trials, seed=100 + i)

    # triplet hinge: all three embedding gradients, away from the kink
    rng = np.random.default_rng(99)
    tt_worst, checked = 0.0, 0
    while checked < trials:
        a, p, n = rng.normal(size=(3, 6))
        margin = float(rng.uniform(0.1, 0.6))
        rep = tree_triplet_loss(a, p, n, margin)
        arg = rep.value if rep.value > 0 else None
        if arg is None or arg < 1e-3:
            continue
        for which, grad in (("a", rep.grad_anchor), ("p", rep.grad_pos), ("n", rep.grad_neg)):
            def f(x, which=which):
                args = {"a": a, "p": p, "n": n, which: x}
                return tree_triplet_loss(args["a"], args["p"], args["n"], margin).value

            numeric = central_difference(f, {"a": a, "p": p, "n": n}[which].copy(), 1e-5)
            tt_worst = max(tt_worst, relative_error(grad, numeric))
        checked += 1
    worst["tt"] = tt_worst

    elapsed = time.perf_counter() - start
    ok = max(worst.values()) < tol and elapsed < 30.0
    _verdict(
        "gradient suite (6 losses x 100 instances vs finite differences)",
        ok,
        f"max rel err {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


def test_2_propagation_coherence():
    """Propagated scores satisfy both score-order constraints on 1000 fuzz cases."""
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(1000):
        h = random_hierarchy(rng, int(rng.integers(2, 201)))
        leaf = int(rng.choice(h.leaves))
        lab = expand_labels(h, leaf)
        p = propagate(h, rng.uniform(0, 1, len(h)), lab)
        pos = [(v, u) for v, u in check_positive_constraint(h, p, 0.0) if lab[v]]
        neg = [(v, u) for v, u in check_negative_constraint(h, p, 1.0) if not lab[v]]
        violations += len(pos) + len(neg)
    _verdict(
        "propagation coherence (1000 fuzzed trees up to 200 nodes)",
        violations == 0,
        f"{violations} constraint violations",
    )


def test_3_reduction_identities():
    """Focal variants with exponent 0 collapse to their unmodulated losses."""
    rng = np.random.default_rng(5678)
    zero = FocalConfig(gamma=0.0)
    worst = 0.0
    for _ in range(1000):
        h = random_hierarchy(rng, int(rng.integers(2, 41)))
        lab = expand_labels(h, int(rng.choice(h.leaves)))
        s = rng.uniform(0, 1, len(h))
        worst = max(worst, abs(focal_loss(s, lab, zero).value - bce_loss(s, lab).value))
        worst = max(
            worst,
            abs(focal_tree_min_loss(h, s, lab, zero).value - tree_min_loss(h, s, lab).value),
        )
    _verdict(
        "focal reduction identities at exponent 0 (1000 fuzz cases)",
        worst < 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_4_decoder_matches_enumeration():
    """Bottom-up decoding equals exhaustive path enumeration, ties included."""
    rng = np.random.default_rng(4321)
    mismatches = 0
    for _ in range(1000):
        h = random_hierarchy(rng, int(rng.integers(2, 101)))
        if rng.random() < 0.5:
            # dyadic grid: sums stay exact in floating point, so ties are real
            s = rng.integers(0, 65, len(h)) / 64.0
        else:
            s = rng.uniform(0, 1, len(h))
        best_total, best_leaf = -np.inf, None
        for path in h.root_to_leaf_paths():
            total = 0.0
            for v in path:
                total += s[v]
            if total > best_total or (total == best_total and path[0] < best_leaf):
                best_total, best_leaf = total, path[0]
        if decode_path(h, s) != best_leaf:
            mismatches += 1
    _verdict(
        "decoder vs path enumeration (1000 fuzzed trees up to 100 nodes)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_5_margin_law(tiny, three_level):
    """Triplet margin follows the distance-gap law on fixtures of height 1-3."""
    depth1 = build_hierarchy(["r", "x", "y", "z"], [-1, 0, 0, 0])
    depth3 = load_taxonomy(f"{TAX_DIR}/pascal_person_part.tax")
    checked, bad = 0, 0
    for h in (depth1, tiny, three_level, depth3):
        d = 2.0 * h.height
        for a in h.leaves:
            for i in h.leaves:
                for j in h.leaves:
                    gap = h.tree_distance(a, j) - h.tree_distance(a, i)
                    if gap <= 0:
                        continue
                    expect = 0.10 + 0.5 * (gap / d)
                    if triplet_margin(h, a, i, j) != expect:
                        bad += 1
                    checked += 1
    _verdict(
        "triplet margin law over all valid fixture triples",
        checked > 0 and bad == 0,
        f"{checked} triples checked, {bad} wrong",
    )


def test_6_metric_oracle(three_level):
    """Per-level IoU agrees with level merging and brute-force pixel counting."""
    rng = np.random.default_rng(6)
    h = three_level
    bad = 0
    for _ in range(5):
        pred = LabelField(rng.choice(h.leaves, size=(32, 32)).astype(np.uint32))
        gt = LabelField(rng.choice(h.leaves, size=(32, 32)).astype(np.uint32))
        levels = evaluate_prediction_levels(h, pred, gt)
        if [ls.level for ls in levels] != [1, 2, 3]:
            bad += 1
        for score in levels:
            # merge oracle: last ancestor at or below the level, per pixel
            mp, mg = pred.leaf.copy(), gt.leaf.copy()
            for field, merged in ((pred, mp), (gt, mg)):
                for v in np.unique(field.leaf):
                    chain = h.ancestor_chain(int(v))
                    merged[field.leaf == v] = [u for u in chain if h.level[u] <= score.level][-1]
            oracle = {}
            for c in sorted({int(v) for v in np.unique(mp)} | {int(v) for v in np.unique(mg)}):
                inter = int(((mp == c) & (mg == c)).sum())
                union = int(((mp == c) | (mg == c)).sum())
                oracle[c] = inter / union
            if oracle != score.iou:
                bad += 1
            if score.miou != float(np.mean(list(oracle.values()))):
                bad += 1
    _verdict(
        "IoU / level-merge vs pixel-counting oracle (random 32x32 fields)",
        bad == 0,
        f"{bad} disagreements",
    )


def test_7_training_direction(three_level):
    """Hierarchy-aware training beats the flat baseline on synthetic clusters."""
    start = time.perf_counter()
    seeds = range(5)
    results = {}
    for seed in seeds:
        syn = SyntheticConfig(
            feature_dim=16, pixels_per_class=2000, noise_sigma=1.0, center_scale=3.0, seed=seed
        )
        for name, cfg in (
            ("cce", TrainConfig(iterations=150, loss="cce", seed=seed)),
            ("bce", TrainConfig(iterations=150, loss="bce", seed=seed)),
            ("ftm", TrainConfig(iterations=150, loss="ftm", seed=seed)),
            ("ftm+tt", TrainConfig(iterations=150, loss="ftm", use_triplet=True, seed=seed)),
        ):
            report = run_toy(syn, cfg, three_level)
            results[(name, seed)] = (report.level_miou[0].miou, report.violation_rate)
    elapsed = time.perf_counter() - start

    coherence_ok = all(
        results[("ftm", s)][1] < results[("bce", s)][1] for s in seeds
    )
    band = -0.01
    ordering_ok = all(
        results[("ftm+tt", s)][0] - results[("ftm", s)][0] >= band
        and results[("ftm", s)][0] - results[("cce", s)][0] >= band
        for s in seeds
    )
    worst_gap = min(
        min(results[("ftm+tt", s)][0] - results[("ftm", s)][0] for s in seeds),
        min(results[("ftm", s)][0] - results[("cce", s)][0] for s in seeds),
    )
    _verdict(
        "training direction on synthetic clusters (5 seeds)",
        coherence_ok and ordering_ok and elapsed < 120.0,
        f"coherence strictly better: {coherence_ok}, "
        f"mIoU ordering (worst gap {worst_gap:+.4f} >= -0.01): {ordering_ok}, {elapsed:.0f}s",
    )


def test_8_run_determinism(tmp_path):
    """Identical seeds produce byte-identical report files end to end."""
    tax = f"{TAX_DIR}/pascal_person_part.tax"
    args = [
        "train-toy", "--tax", tax, "--iterations", "40", "--pixels-per-class", "40",
        "--loss", "ftm", "--use-triplet", "--seed", "11",
    ]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(args + ["--out-dir", str(d)]) == EXIT_OK
    files = ["run.json", "loss_curve.csv", "metrics.csv", "loss_curve.svg"]
    same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
    _verdict(
        "byte-identical reports from repeated seeded runs",
        same,
        ", ".join(files),
    )
