import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiertax import losses
from hiertax.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from hiertax.coherence import expand_labels, propagate
from hiertax.fields import (
    IGNORE,
    FieldFormatError,
    LabelField,
    ScoreField,
    read_label_field,
    read_score_field,
    write_label_field,
    write_score_field,
)
from hiertax.gradcheck import gradcheck_loss

from conftest import TAX_DIR

PPP = f"{TAX_DIR}/pascal_person_part.tax"


class TestFieldFormats:
    def test_score_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        field = ScoreField(rng.uniform(0, 1, size=(3, 4, 5)).astype(np.float32).astype(np.float64))
        path = tmp_path / "f.hssf"
        write_score_field(path, field)
        back = read_score_field(path)
        assert np.array_equal(back.scores, field.scores)
        assert not back.scores.flags.writeable

    def test_label_roundtrip(self, tmp_path):
        field = LabelField(np.array([[1, IGNORE], [2, 3]], dtype=np.uint32))
        path = tmp_path / "f.hslf"
        write_label_field(path, field)
        back = read_label_field(path)
        assert np.array_equal(back.leaf, field.leaf)
        assert not back.leaf.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hssf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FieldFormatError, match="magic"):
            read_score_field(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cut.hslf"
        path.write_bytes(b"HSLF" + np.array([2, 2], dtype="<u4").tobytes() + b"\x00" * 4)
        with pytest.raises(FieldFormatError, match="truncated"):
            read_label_field(path)

    def test_empty_fields_roundtrip(self, tmp_path):
        write_score_field(tmp_path / "f.hssf", ScoreField(np.zeros((0, 3, 4), dtype=np.float32)))
        write_label_field(tmp_path / "f.hslf", LabelField(np.zeros((2, 0), dtype=np.uint32)))
        assert read_score_field(tmp_path / "f.hssf").scores.shape == (0, 3, 4)
        assert read_label_field(tmp_path / "f.hslf").leaf.shape == (2, 0)

    def test_a_file_that_shrinks_before_the_map_is_truncated(self, tmp_path, monkeypatch):
        path = tmp_path / "f.hslf"
        write_label_field(path, LabelField(np.zeros((2, 2), dtype=np.uint32)))
        real_fstat = os.fstat

        def fstat_then_shrink(fd):
            st = real_fstat(fd)
            os.truncate(path, st.st_size - 4)
            return st

        monkeypatch.setattr(os, "fstat", fstat_then_shrink)
        with pytest.raises(FieldFormatError, match="shrank while mapping"):
            read_label_field(path)

    def test_score_range_validated(self):
        layouts = [
            ((2, 3, 4), np.s_[:]),
            ((2, 3, 4), np.s_[:, ::2]),  # not contiguous: checked in one piece
            ((1, 512, 1025), np.s_[:]),  # more than one check chunk at either dtype
        ]
        for (shape, view), dtype in itertools.product(layouts, (np.float32, np.float64)):
            for bad in (np.nan, np.inf, -np.inf, 1.5, -0.1):
                s = np.full(shape, 0.5, dtype=dtype)[view]
                s[-1, -1, -1] = bad
                with pytest.raises(ValueError, match="\\[0, 1\\]"):
                    ScoreField(s)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_score_range_bounds_and_empty_accepted(self, dtype):
        s = np.full((2, 3, 4), 0.5, dtype=dtype)
        s[0, 0] = [0.0, 1.0, -0.0, 1.0]
        assert ScoreField(s).scores.dtype == dtype
        assert ScoreField(np.zeros((0, 3, 4), dtype=dtype)).scores.size == 0


    @pytest.mark.parametrize("umask", [0o022, 0o002])
    def test_a_written_field_gets_the_mode_open_gives(self, tmp_path, umask):
        """Writers replace the target with a new file; it gets the mode a
        plain ``open(path, "wb")`` gives under the umask, and no temporary
        file is left beside it."""
        old = os.umask(umask)
        try:
            write_score_field(tmp_path / "f.hssf", ScoreField(np.zeros((1, 2, 3))))
            write_label_field(tmp_path / "f.hslf", LabelField(np.zeros((1, 2), dtype=np.uint32)))
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
        assert modes == {name: modes["plain"] for name in ("f.hssf", "f.hslf", "plain")}

    def test_a_failed_write_leaves_no_file(self, tmp_path):
        (tmp_path / "dir.hssf").mkdir()
        with pytest.raises(OSError):
            write_score_field(tmp_path / "dir.hssf", ScoreField(np.zeros((1, 2, 3))))
        assert [p.name for p in tmp_path.iterdir()] == ["dir.hssf"]


# Read a field, write a smaller one to the same path, then read the first
# field's scores. Writing over the mapped file in place would end this
# process with SIGBUS, so it runs in a child.
REWRITE_CODE = """\
import sys
import numpy as np
from hiertax.fields import ScoreField, read_score_field, write_score_field
path = sys.argv[1]
old = read_score_field(path)
write_score_field(path, ScoreField(np.ones((1, 1, 3), dtype=np.float32)))
print(repr(float(old.scores.sum(dtype=np.float64))), read_score_field(path).scores.shape)
"""


def test_rewriting_a_mapped_field_keeps_its_values(tmp_path):
    scores = (np.arange(64 * 64 * 3, dtype=np.float32) % 5 / 4).reshape(64, 64, 3)
    path = tmp_path / "f.hssf"
    write_score_field(path, ScoreField(scores))
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", REWRITE_CODE, str(path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(maxsplit=1) == [repr(float(scores.sum(dtype=np.float64))), "(1, 1, 3)\n"]


def test_propagate_onto_its_own_scores_file(tmp_path, tiny_tax_file, tiny):
    """``propagate --scores p --out p`` writes what a fresh ``--out`` gets."""
    rng = np.random.default_rng(2)
    s_path, g_path = tmp_path / "s.hssf", tmp_path / "g.hslf"
    write_score_field(s_path, ScoreField(rng.uniform(0, 1, size=(40, 30, len(tiny)))))
    write_label_field(g_path, LabelField(rng.choice(tiny.leaves, size=(40, 30)).astype(np.uint32)))
    fresh = tmp_path / "fresh.hssf"
    for out in (fresh, s_path):
        assert main(["propagate", "--tax", tiny_tax_file, "--scores", str(s_path),
                     "--labels", str(g_path), "--out", str(out)]) == EXIT_OK
    assert s_path.read_bytes() == fresh.read_bytes()


class TestCli:
    def test_validate_taxonomy_ok(self, capsys):
        assert main(["validate-taxonomy", PPP]) == EXIT_OK
        out = capsys.readouterr().out
        assert "nodes: 11" in out and "height: 3" in out
        assert "level 1: 7 classes" in out

    def test_validate_taxonomy_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.tax"
        bad.write_text("root\ta\nroot\tb\n")
        assert main(["validate-taxonomy", str(bad)]) == EXIT_VALIDATION

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["validate-taxonomy", str(tmp_path / "nope.tax")]) == EXIT_VALIDATION

    def test_propagate_decode_eval_pipeline(self, tmp_path, tiny_tax_file, tiny):
        rng = np.random.default_rng(1)
        scores = ScoreField(rng.uniform(0, 1, size=(4, 4, len(tiny))))
        gt = LabelField(rng.choice(tiny.leaves, size=(4, 4)).astype(np.uint32))
        s_path, g_path = tmp_path / "s.hssf", tmp_path / "g.hslf"
        write_score_field(s_path, scores)
        write_label_field(g_path, gt)

        p_path = tmp_path / "p.hssf"
        assert main(["propagate", "--tax", tiny_tax_file, "--scores", str(s_path),
                     "--labels", str(g_path), "--out", str(p_path)]) == EXIT_OK
        prop = read_score_field(p_path)
        expect = propagate(tiny, scores.scores[0, 0], expand_labels(tiny, int(gt.leaf[0, 0])))
        assert np.allclose(prop.scores[0, 0], expect.astype(np.float32))

        d_path = tmp_path / "pred.hslf"
        assert main(["decode", "--tax", tiny_tax_file, "--scores", str(s_path),
                     "--out", str(d_path)]) == EXIT_OK

        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--tax", tiny_tax_file, "--pred", str(d_path),
                     "--gt", str(g_path), "--csv", str(csv_path)]) == EXIT_OK
        text = csv_path.read_text()
        assert text.startswith("level,class,iou")
        assert "mIoU" in text

    def test_corrupt_field_is_io_error(self, tmp_path, tiny_tax_file):
        bad = tmp_path / "bad.hssf"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        out = tmp_path / "o.hslf"
        assert main(["decode", "--tax", tiny_tax_file, "--scores", str(bad),
                     "--out", str(out)]) == EXIT_IO

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--loss", "ftm", "--trials", "10", "--seed", "3"]) == EXIT_OK
        assert "max relative error" in capsys.readouterr().out


@pytest.fixture
def tiny_tax_file(tmp_path):
    path = tmp_path / "tiny.tax"
    path.write_text("root\tR\nR\tA\nR\tB\nA\ta1\nA\ta2\n")
    return str(path)


class TestTrainToyConfig:
    ARGS = ["--iterations", "2", "--pixels-per-class", "5", "--loss", "bce"]

    def _run(self, tmp_path, tiny_tax_file, config_text, *extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        out = tmp_path / "out"
        rc = main(["train-toy", "--tax", tiny_tax_file, "--out-dir", str(out),
                   "--config", str(cfg), *self.ARGS, *extra])
        return rc, out

    def test_unknown_key_rejected(self, tmp_path, tiny_tax_file, capsys):
        rc, out = self._run(tmp_path, tiny_tax_file, "lrr=0.5\nmomentum=0.5\n")
        assert rc == EXIT_VALIDATION
        assert "lrr, momentum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word", ["ture", "on", "", "2"])
    def test_bad_boolean_rejected(self, tmp_path, tiny_tax_file, word):
        rc, out = self._run(tmp_path, tiny_tax_file, f"use_triplet={word}\n")
        assert rc == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("loss=ftm\nloss=cce\n", "loss"),
        ("use-triplet=1\n# both spellings\nuse_triplet=0\n", "use_triplet"),
    ], ids=["loss", "use_triplet"])
    def test_repeated_key_rejected(self, tmp_path, tiny_tax_file, capsys, text, key):
        rc, out = self._run(tmp_path, tiny_tax_file, text)
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"config key {key} repeated on line {text.count(chr(10))}" in err
        assert not out.exists()

    def test_flag_beats_config(self, tmp_path, tiny_tax_file):
        rc, out = self._run(tmp_path, tiny_tax_file,
                            "lr=0.5\nseed=4\nuse-triplet=YES\n", "--lr", "0.25")
        assert rc == EXIT_OK
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["lr"] == 0.25
        assert config["seed"] == 4
        assert config["use_triplet"] is True


def _saved_run(tmp_path) -> dict:
    out = tmp_path / "run"
    assert main(["train-toy", "--tax", PPP, "--out-dir", str(out),
                 "--iterations", "3", "--pixels-per-class", "5"]) == EXIT_OK
    return json.loads((out / "run.json").read_text())


@pytest.mark.parametrize("edit, match", [
    (lambda run: run.pop("betas"), "missing key 'betas'"),
    (lambda run: run["losses"].append(1.0), "'betas' must be a list as long as 'losses'"),
    (lambda run: run["level_miou"][0].pop("miou"), "level_miou entry 0 lacks key 'miou'"),
    (lambda run: run["level_miou"][1].update(iou=[0.5]), "level_miou entry 1: 'iou' must be a dict"),
    (lambda run: run["level_miou"][0].update(iou={"x": 0.5}),
     "level_miou entry 0: 'iou' key 'x' is not an integer"),
    (lambda run: run["level_miou"][1]["iou"].update({"1": "0.5"}),
     "level_miou entry 1: 'iou' value for '1' must be a number"),
    (lambda run: run["level_miou"][0]["iou"].update({"1": True}),
     "level_miou entry 0: 'iou' value for '1' must be a number"),
    (lambda run: run["level_miou"][1].update(miou=None), "level_miou entry 1: 'miou' must be a number"),
    (lambda run: run["level_miou"][0].update(miou=False), "level_miou entry 0: 'miou' must be a number"),
    (lambda run: run["losses"].__setitem__(0, "a"), "'losses' entry 0 must be a number"),
    (lambda run: run["losses"].__setitem__(1, math.nan), "'losses' entry 1 must be a number"),
    (lambda run: run["betas"].__setitem__(2, -math.inf), "'betas' entry 2 must be a number"),
    (lambda run: run["triplet_losses"].__setitem__(0, True), "'triplet_losses' entry 0 must be a number"),
    (lambda run: run.update(violation_rate="x"), "'violation_rate' must be a number"),
    (lambda run: run.update(violation_rate=math.inf), "'violation_rate' must be a number"),
    (lambda run: run["level_miou"][0].update(level="one"), "level_miou entry 0: 'level' must be an integer"),
    (lambda run: run["level_miou"][1].update(level=2.0), "level_miou entry 1: 'level' must be an integer"),
    (lambda run: run["level_miou"][1]["iou"].update({"1": math.nan}),
     "level_miou entry 1: 'iou' value for '1' must be a number"),
    (lambda run: run["level_miou"][0].update(miou=math.inf), "level_miou entry 0: 'miou' must be a number"),
    *[(lambda run, key=key: run["level_miou"][1]["iou"].update({key: 0.5}),
       f"level_miou entry 1: 'iou' key {key!r} is not an integer class id")
      for key in (" 1", "-3", "01", "1_0")],
], ids=["no-betas", "long-losses", "entry-without-miou", "iou-not-a-dict", "iou-key-not-an-int",
        "iou-value-a-string", "iou-value-a-bool", "miou-null", "miou-a-bool", "loss-a-string",
        "loss-nan", "beta-minus-inf", "triplet-loss-a-bool", "violation-rate-a-string",
        "violation-rate-inf", "level-a-string", "level-a-float", "iou-value-nan", "miou-inf",
        "iou-key-padded", "iou-key-negative", "iou-key-zero-led", "iou-key-underscored"])
def test_report_rejects_a_malformed_run_json(tmp_path, capsys, edit, match):
    """A run.json without a key the report reads, with curves of different
    lengths, with a curve entry or violation rate that is not a finite
    number, or with a malformed ``level_miou`` entry, fails validation
    before any file is written."""
    run = _saved_run(tmp_path)
    edit(run)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(run))
    out = tmp_path / "report"
    capsys.readouterr()
    assert main(["report", "--run", str(path), "--out-dir", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation failure" in err and match in err
    assert not out.exists()


@pytest.mark.parametrize("losses", [[-1e308, 0.0, 1e308], [0.0, 5e306, 1e307]])
def test_report_plots_finite_points_when_the_loss_range_overflows(tmp_path, losses):
    """Finite losses whose range, or the range times the plot height,
    overflows a float."""
    run = _saved_run(tmp_path)
    run.update(losses=losses, betas=[0.0] * 3, triplet_losses=[0.0] * 3)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(run))
    out = tmp_path / "report"
    assert main(["report", "--run", str(path), "--out-dir", str(out)]) == EXIT_OK
    svg = (out / "loss_curve.svg").read_text()
    points = svg.split(' points="')[1].split('"')[0].split()
    assert [tuple(map(float, p.split(","))) for p in points] == [
        (40.0, 320.0), (320.0, 180.0), (600.0, 40.0)
    ]


@pytest.mark.parametrize("args", [
    ["--iterations", "-5"],
    ["--triplet-count", "-3", "--use-triplet"],
    ["--pixels-per-class", "0"],
    ["--noise-sigma", "nan"],
    ["--noise-sigma", "inf"],
    ["--center-scale", "nan"],
    ["--lr", "-1"],
    ["--lr", "0"],
    ["--lr", "nan"],
    ["--gamma", "nan"],
    ["--gamma", "inf"],
    ["--margin-base", "-1", "--use-triplet"],
    ["--margin-base", "nan", "--use-triplet"],
    ["--beta-max", "-1", "--use-triplet"],
    ["--beta-max", "nan", "--use-triplet"],
])
def test_train_toy_rejects_out_of_range_values(tmp_path, args, capsys):
    out = tmp_path / "out"
    rc = main(["train-toy", "--tax", f"{TAX_DIR}/pascal_person_part.tax",
               "--out-dir", str(out), "--iterations", "2", "--pixels-per-class", "5", *args])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation failure" in err
    assert args[0][2:].replace("-", "_") in err  # the message names the value
    assert not out.exists()


@pytest.mark.parametrize("lr, step", [("1e25", 3), ("1e100", 1)])
def test_train_toy_reports_a_diverging_projection_head(tmp_path, lr, step, capsys):
    """The head's embeddings overflow, as a norm's cube at lr 1e25 and as a
    norm at lr 1e100: a numerical failure, not a traceback or bad input."""
    with np.errstate(all="ignore"):
        rc = main(["train-toy", "--tax", PPP, "--out-dir", str(tmp_path / "out"),
                   "--loss", "ftm", "--use-triplet", "--iterations", "30",
                   "--pixels-per-class", "100", "--lr", lr])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert f"numerical failure: non-finite triplet loss at step {step}" in err


@pytest.mark.parametrize("loss, kernel", [("ftm", "batch_loss"), ("cce", "cce_loss")])
def test_gradcheck_fails_on_a_wrong_kernel_gradient(loss, kernel, monkeypatch, capsys):
    """gradcheck differentiates the kernels training calls, so a gradient
    1% off in one of them fails the command."""
    assert main(["gradcheck", "--loss", loss, "--trials", "5"]) == EXIT_OK
    real = getattr(losses, kernel)

    def skewed(*args, **kwargs):
        value, grad = real(*args, **kwargs)
        return value, grad * 1.01

    monkeypatch.setattr(losses, kernel, skewed)
    assert main(["gradcheck", "--loss", loss, "--trials", "5"]) == EXIT_NUMERICAL
    assert "gradient check failed" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_gradcheck_rejects_no_trials(trials, capsys):
    assert main(["gradcheck", "--loss", "ftm", "--trials", trials]) == EXIT_VALIDATION
    assert "max relative error" not in capsys.readouterr().out
    with pytest.raises(ValueError, match="at least 1"):
        gradcheck_loss("ftm", trials=int(trials))


def test_label_field_check_rejects_non_leaf_ids(tiny):
    LabelField(np.array([[3, 4], [2, IGNORE]], dtype=np.uint32)).check_hierarchy(tiny)
    for bad in (1, len(tiny)):
        field = LabelField(np.array([[3, bad], [2, IGNORE]], dtype=np.uint32))
        with pytest.raises(ValueError, match=f"label id {bad} is not a leaf"):
            field.check_hierarchy(tiny)


def test_gradcheck_fails_on_a_nan_kernel_gradient(monkeypatch, capsys):
    """A NaN in one gradient cell is the worst error, not one that max()
    drops, so the command fails."""
    real = losses.batch_loss

    def nan_cell(*args, **kwargs):
        values, grad = real(*args, **kwargs)
        grad = grad.copy()
        grad.flat[0] = np.nan
        return values, grad

    monkeypatch.setattr(losses, "batch_loss", nan_cell)
    assert np.isnan(gradcheck_loss("ftm", trials=5))
    assert main(["gradcheck", "--loss", "ftm", "--trials", "5"]) == EXIT_NUMERICAL
    assert "gradient check failed" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_gradcheck_rejects_bad_tolerance(tolerance, capsys):
    assert main(["gradcheck", "--loss", "ftm", "--trials", "1", "--tolerance", tolerance]) == (
        EXIT_VALIDATION
    )
    assert "max relative error" not in capsys.readouterr().out


@pytest.mark.parametrize("leaf, match", [
    (np.array([[-1, 2]]), "must lie in"),
    (np.array([[2**32 + 3, 2]]), "must lie in"),
    (np.array([[1.7, 2.0]]), "must be integers"),
    (np.array([[np.nan, 2.0]]), "must be integers"),
])
def test_label_field_rejects_ids_a_cast_would_change(leaf, match):
    """-1 would wrap to the IGNORE sentinel, 2**32 + 3 to 3, 1.7 to 1."""
    with pytest.raises(ValueError, match=match):
        LabelField(leaf)


def test_label_field_keeps_uint32_and_casts_integers_in_range():
    leaf = np.array([[3, IGNORE]], dtype=np.uint32)
    assert LabelField(leaf).leaf is leaf
    for dtype in (np.int8, np.int64, np.uint64):
        field = LabelField(np.array([[3, 0]], dtype=dtype))
        assert field.leaf.dtype == np.uint32 and field.leaf.tolist() == [[3, 0]]
    assert LabelField(np.array([[IGNORE]], dtype=np.int64)).leaf.tolist() == [[IGNORE]]
