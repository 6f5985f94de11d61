"""The benchmark's workloads and the correctness checks run after each op.

Each workload is a closed loop with one client: the next op starts when
the previous one has ended. Inputs come from the workload seed; the
library only ever sees the generated files and arrays. Every library call
goes through a module attribute (``hiertax.cli.main``, not a bound name),
so that the tracer's patches see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import struct
import time

import numpy as np

import hiertax.cli
import hiertax.coherence
import hiertax.fields
import hiertax.losses
import hiertax.taxonomy

# The tree of tests/conftest.py::three_level: root -> 4 groups -> 8 leaves.
TOY_NAMES = ("all", "g1", "g2", "g3", "g4") + tuple(f"leaf{i}" for i in range(8))
TOY_PARENT = (-1, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
# The scale of the acceptance sweep (tests/test_acceptance.py::test_7).
TOY_PIXELS_PER_CLASS = 2000
TOY_ITERATIONS = 150
TOY_FEATURE_DIM = 16
TOY_CONFIGS = {
    "toy_hier": {"ftm": ["--loss", "ftm"], "ftm_tt": ["--loss", "ftm", "--use-triplet"]},
    "toy_flat": {"cce": ["--loss", "cce"], "bce": ["--loss", "bce"]},
}
REPORT_FILES = ("run.json", "loss_curve.csv", "metrics.csv", "loss_curve.svg")

FIELD_TREE = "mapillary_vistas.tax"
FIELD_H, FIELD_W = 256, 512
FIELD_IGNORE_SHARE = 0.05
# Pixels whose propagation, decoding and gradient are checked against the
# scalar oracles on every op; a few ignored pixels ride along.
CHECK_VALID, CHECK_IGNORED = 64, 8
# Gradient rows may differ from the scalar oracle by this share of the
# largest expected component (summation order may change); IoU is exact.
GRAD_TOL = 1e-9
MIOU_TOL = 1e-12


def toy_tax_text() -> str:
    lines = [f"root\t{TOY_NAMES[0]}"]
    lines += [f"{TOY_NAMES[p]}\t{TOY_NAMES[v]}" for v, p in enumerate(TOY_PARENT) if p >= 0]
    return "\n".join(lines) + "\n"


def _quiet(argv: list[str]) -> int:
    """Run one CLI command with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hiertax.cli.main(argv)


class ToyWorkload:
    """Two train-toy configs on the 13-node tree, at test_7 scale."""

    def __init__(self, name: str, root: str, work: str, seed: int):
        self.configs = TOY_CONFIGS[name]
        self.work = work
        self.seed = seed
        self.tax = os.path.join(work, "three_level.tax")
        with open(self.tax, "w") as f:
            f.write(toy_tax_text())
        self.reference: dict[str, bytes] = {}
        leaves = [v for v in range(len(TOY_PARENT)) if v not in TOY_PARENT]
        self.pixels = len(leaves) * TOY_PIXELS_PER_CLASS
        self.rows, self.nodes = self.pixels, len(TOY_PARENT)

    def describe(self) -> list[str]:
        return [
            f"tree {os.path.basename(self.tax)}: {len(TOY_PARENT)} nodes, {self.pixels // TOY_PIXELS_PER_CLASS} leaves",
            f"configs {', '.join(self.configs)}: {self.pixels} px, {TOY_ITERATIONS} iterations, "
            f"feature dim {TOY_FEATURE_DIM}, seed {self.seed}",
        ]

    def run_op(self, i: int) -> dict:
        """One op: write and parse the tree, then both train-toy configs."""
        with open(self.tax, "w") as f:
            f.write(toy_tax_text())
        h = hiertax.taxonomy.load_taxonomy(self.tax)
        out = {"parent": h.parent, "rc": {}, "dirs": {}}
        for cfg, flags in self.configs.items():
            out_dir = os.path.join(self.work, f"op{i}", cfg)
            out["dirs"][cfg] = out_dir
            out["rc"][cfg] = _quiet([
                "train-toy", "--tax", self.tax, "--out-dir", out_dir,
                "--pixels-per-class", str(TOY_PIXELS_PER_CLASS),
                "--iterations", str(TOY_ITERATIONS),
                "--feature-dim", str(TOY_FEATURE_DIM),
                "--seed", str(self.seed), *flags,
            ])
        return out

    def metrics(self, ops: list[dict]) -> list[tuple]:
        """(metric, value, unit) rows over the run's good ops, as medians."""
        work = self.pixels * TOY_ITERATIONS * len(self.configs)
        return [
            ("train_px_steps_per_s", work / _median(ops, "wall_s"), "px*step/s"),
            ("train_miou1", _median(ops, "train_miou1"), "ratio"),
            ("train_violation_rate", _median(ops, "train_violation_rate"), "ratio"),
        ]

    def check(self, i: int, out: dict) -> tuple[list[str], dict]:
        """Errors found in one op's outputs, and the op's own numbers."""
        errors = []
        if out["parent"] != TOY_PARENT:
            errors.append(f"parsed parent tuple {out['parent']} != {TOY_PARENT}")
        miou1, violation = [], []
        read = os.path.getsize(self.tax) * (1 + len(self.configs))
        written = os.path.getsize(self.tax)
        for cfg, out_dir in out["dirs"].items():
            if out["rc"][cfg] != 0:
                errors.append(f"train-toy {cfg} exited {out['rc'][cfg]}")
                continue
            with open(os.path.join(out_dir, "run.json"), "rb") as f:
                raw = f.read()
            first = self.reference.setdefault(cfg, raw)
            if raw != first:
                errors.append(f"{cfg} run.json differs from the first op's")
            run = json.loads(raw)
            level1 = [ls for ls in run["level_miou"] if ls["level"] == 1]
            miou1.append(level1[0]["miou"])
            violation.append(run["violation_rate"])
            written += sum(os.path.getsize(os.path.join(out_dir, f)) for f in REPORT_FILES)
        if i > 0:
            shutil.rmtree(os.path.join(self.work, f"op{i - 1}"))
        quality = {"bytes_read": read, "bytes_written": written}
        if miou1:
            quality["train_miou1"] = sum(miou1) / len(miou1)
            quality["train_violation_rate"] = sum(violation) / len(violation)
        return errors, quality


class FieldWorkload:
    """propagate, field_loss(ftm), decode + eval on a seeded Mapillary field."""

    def __init__(self, name: str, root: str, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.tax = os.path.join(root, "src", "hiertax", "data", FIELD_TREE)
        self.h = hiertax.taxonomy.load_taxonomy(self.tax)
        self.scores = os.path.join(work, "scores.hssf")
        self.labels = os.path.join(work, "labels.hslf")
        self.prop = os.path.join(work, "propagated.hssf")
        self.pred = os.path.join(work, "pred.hslf")
        self.csv = os.path.join(work, "eval.csv")
        self.rows, self.nodes = FIELD_H * FIELD_W, len(self.h)
        self._make_inputs()

    def _make_inputs(self) -> None:
        h = self.h
        rng = np.random.default_rng(self.seed)
        scores = rng.random((FIELD_H, FIELD_W, len(h)), dtype=np.float32)
        leaves = np.array(h.leaves, dtype=np.uint32)
        gt = leaves[rng.integers(0, leaves.size, size=(FIELD_H, FIELD_W))]
        gt[rng.random((FIELD_H, FIELD_W)) < FIELD_IGNORE_SHARE] = hiertax.fields.IGNORE
        hiertax.fields.write_score_field(self.scores, hiertax.fields.ScoreField(scores))
        hiertax.fields.write_label_field(self.labels, hiertax.fields.LabelField(gt))

        flat_gt = gt.reshape(-1)
        valid = np.flatnonzero(flat_gt != hiertax.fields.IGNORE)
        ignored = np.flatnonzero(flat_gt == hiertax.fields.IGNORE)
        self.sample = np.sort(np.concatenate([
            rng.choice(valid, CHECK_VALID, replace=False),
            rng.choice(ignored, CHECK_IGNORED, replace=False),
        ]))
        self.gt = gt
        self.valid_pixels = valid.size
        s = scores.reshape(-1, len(h))[self.sample].astype(np.float64)
        self.expect_prop, self.expect_grad, self.expect_leaf = _field_oracles(
            h, s, flat_gt[self.sample], self.valid_pixels
        )

    def describe(self) -> list[str]:
        return [
            f"tree {FIELD_TREE}: {len(self.h)} nodes, {len(self.h.leaves)} leaves",
            f"field {FIELD_H}x{FIELD_W}x{len(self.h)} float32 uniform scores, uniform leaf "
            f"labels, {FIELD_IGNORE_SHARE:.0%} ignored ({self.rows - self.valid_pixels} px), "
            f"seed {self.seed}",
        ]

    def run_op(self, i: int) -> dict:
        """One op: propagate command; reads + field_loss(ftm); decode + eval commands."""
        out = {"rc": {}}
        t0 = time.perf_counter()
        out["rc"]["propagate"] = _quiet([
            "propagate", "--tax", self.tax, "--scores", self.scores,
            "--labels", self.labels, "--out", self.prop,
        ])
        t1 = time.perf_counter()
        sf = hiertax.fields.read_score_field(self.scores)
        lf = hiertax.fields.read_label_field(self.labels)
        value, grad = hiertax.losses.field_loss(self.h, sf, lf, "ftm")
        t2 = time.perf_counter()
        out["loss"] = value
        out["grad"] = grad.reshape(-1, len(self.h))[self.sample].copy()
        del sf, lf, grad
        t3 = time.perf_counter()
        out["rc"]["decode"] = _quiet([
            "decode", "--tax", self.tax, "--scores", self.scores, "--out", self.pred,
        ])
        out["rc"]["eval"] = _quiet([
            "eval", "--tax", self.tax, "--pred", self.pred, "--gt", self.labels,
            "--csv", self.csv,
        ])
        t4 = time.perf_counter()
        out["stage_s"] = {"propagate": t1 - t0, "loss": t2 - t1, "decode_eval": t4 - t3}
        return out

    def metrics(self, ops: list[dict]) -> list[tuple]:
        return [
            (f"{stage}_px_per_s", self.rows / _median(ops, f"{stage}_s"), "px/s")
            for stage in ("propagate", "loss", "decode_eval")
        ]

    def check(self, i: int, out: dict) -> tuple[list[str], dict]:
        errors = [f"{cmd} exited {rc}" for cmd, rc in out["rc"].items() if rc != 0]
        if errors:
            return errors, {}
        h = self.h
        prop = _read_rows(self.prop, b"HSSF" + struct.pack("<III", FIELD_H, FIELD_W, len(h)),
                          (FIELD_H * FIELD_W, len(h)), "<f4", self.sample)
        if not np.array_equal(prop, self.expect_prop):
            errors.append("propagated sample differs from scalar propagate")
        pred = _read_rows(self.pred, b"HSLF" + struct.pack("<II", FIELD_H, FIELD_W),
                          (FIELD_H * FIELD_W,), "<u4", slice(None))
        if not np.array_equal(pred[self.sample], self.expect_leaf):
            errors.append("decoded sample differs from root-to-leaf path enumeration")
        if not np.isfinite(out["loss"]):
            errors.append("field_loss value is not finite")
        scale = np.abs(self.expect_grad).max()
        if not np.allclose(out["grad"], self.expect_grad, rtol=0.0, atol=GRAD_TOL * scale):
            errors.append("field_loss gradient rows differ from focal_tree_min_loss / n")
        errors += _check_eval_csv(h, self.csv, pred.reshape(FIELD_H, FIELD_W), self.gt)
        quality = {
            "bytes_read": sum(map(os.path.getsize, [
                self.tax, self.scores, self.labels,            # propagate
                self.scores, self.labels,                      # loss
                self.tax, self.scores,                         # decode
                self.tax, self.pred, self.labels,              # eval
            ])),
            "bytes_written": sum(map(os.path.getsize, [self.prop, self.pred, self.csv])),
        }
        quality.update({f"{k}_s": v for k, v in out["stage_s"].items()})
        return errors, quality


def _median(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops)


def _read_rows(path: str, header: bytes, shape: tuple, dtype: str, rows) -> np.ndarray:
    """The given rows of a field file's payload, read through a memory map,
    after checking the file's header and size."""
    expect = len(header) + int(np.prod(shape)) * np.dtype(dtype).itemsize
    with open(path, "rb") as f:
        head = f.read(len(header))
    if head != header or os.path.getsize(path) != expect:
        raise ValueError(f"{path}: bad header or size {os.path.getsize(path)} != {expect}")
    data = np.memmap(path, dtype=dtype, mode="r", offset=len(header), shape=shape)
    try:
        return np.array(data[rows])
    finally:
        del data


def _field_oracles(h, s: np.ndarray, leaf: np.ndarray, n_valid: int):
    """Scalar-path expectations for the sampled pixels.

    Propagation: ``propagate(h, s, expand_labels(h, leaf))``; ignored
    pixels pass through. Gradient: ``focal_tree_min_loss(...).grad / n``
    over the n non-ignored pixels; ignored pixels get zero. Decoding: the
    root-to-leaf path with the largest score sum, summed leaf first as the
    decoder does, ties to the smallest leaf id.
    """
    prop = s.copy()
    grad = np.zeros_like(s)
    for r, lf in enumerate(leaf):
        if lf == hiertax.fields.IGNORE:
            continue
        labels = hiertax.coherence.expand_labels(h, int(lf))
        prop[r] = hiertax.coherence.propagate(h, s[r], labels)
        grad[r] = hiertax.losses.focal_tree_min_loss(h, s[r], labels).grad / n_valid
    paths = h.root_to_leaf_paths()
    best = np.empty(len(s), dtype=np.uint32)
    for r in range(len(s)):
        best_sum, best_leaf = -np.inf, None
        for path in paths:
            total = 0.0
            for v in path:
                total += s[r, v]
            if total > best_sum:
                best_sum, best_leaf = total, path[0]
        best[r] = best_leaf
    return prop.astype(np.float32), grad, best


def _level_targets(h, level: int) -> np.ndarray:
    """Each node's highest ancestor whose level does not exceed ``level``."""
    out = np.arange(len(h))
    for v in range(len(h)):
        for u in h.ancestor_chain(v):
            if h.level[u] > level:
                break
            out[v] = u
    return out


def _check_eval_csv(h, csv_path: str, pred: np.ndarray, gt: np.ndarray) -> list[str]:
    """Compare the eval CSV with IoU counted pixel by pixel over the field."""
    reported: dict[int, dict[str, float]] = {}
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    for level, cls, value in rows[1:]:
        reported.setdefault(int(level), {})[cls] = float(value)
    errors = []
    valid = gt.reshape(-1) != hiertax.fields.IGNORE
    g_leaf = gt.reshape(-1)[valid].astype(np.int64)
    p_leaf = pred.reshape(-1)[valid].astype(np.int64)
    for level in range(1, h.height + 2):
        target = _level_targets(h, level)
        g, p = target[g_leaf], target[p_leaf]
        iou = {}
        for c in sorted({int(target[leaf]) for leaf in h.leaves}):
            inter = int(np.count_nonzero((g == c) & (p == c)))
            union = int(np.count_nonzero((g == c) | (p == c)))
            if union:
                iou[h.nodes[c]] = inter / union
        got = reported.get(level, {})
        got_miou = got.pop("mIoU", None)
        if got != iou:
            errors.append(f"eval level {level}: per-class IoU differs from pixel counting")
        want = float(np.mean(list(iou.values())))
        if got_miou is None or abs(got_miou - want) > MIOU_TOL:
            errors.append(f"eval level {level}: mIoU {got_miou} != pixel-counting {want}")
    if set(reported) != set(range(1, h.height + 2)):
        errors.append(f"eval reported levels {sorted(reported)}")
    return errors


WORKLOADS = {"toy_hier": ToyWorkload, "toy_flat": ToyWorkload, "field_mapillary": FieldWorkload}
