"""Training's step workers and its hold on OpenBLAS's thread pool.

``train`` forks its ``coherence.block_workers`` once per run, one per row
block at most, for every loss. Every report must be the serial one, and
the scorer ``reference.train_scorer``'s, bit for bit, whatever the worker
count, and no worker may outlive a call, whether it returns or raises.
The worker count is forced through a patched CPU count, so these tests
fork on a one-CPU machine too.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiertax import coherence, training
from hiertax.coherence import MIN_BLOCKS, row_blocks, run_blocks, shared_zeros
from hiertax.embedding import init_projection
from hiertax.losses import LOSSES
from hiertax.report import run_artifacts, write_report_files, write_run_json
from hiertax.synthetic import SyntheticConfig, generate_synthetic
from hiertax.taxonomy import load_taxonomy
from hiertax.training import TrainConfig, TrainingDivergedError, run_toy, train

import reference
import report_bytes
from conftest import TAX_DIR, assert_no_child_left, counted_forks, use_cpus

SRC = str(Path(__file__).resolve().parent.parent / "src")
REPORT_FILES = ("run.json", "loss_curve.csv", "metrics.csv", "loss_curve.svg")
CONFIGS = {loss: dict(loss=loss) for loss in LOSSES}
CONFIGS["cce+tt"] = dict(loss="cce", use_triplet=True, triplet_count=40)
CONFIGS["ftm+tt"] = dict(loss="ftm", use_triplet=True, triplet_count=40)


def _data(h, pixels_per_class=500):
    """4000 pixels on the 13-node tree: four row blocks of at most 1260."""
    features, labels, _ = generate_synthetic(
        SyntheticConfig(feature_dim=8, pixels_per_class=pixels_per_class, seed=0), h
    )
    return features, labels


def _report_bytes(report, out_dir) -> dict:
    out_dir.mkdir()
    write_run_json(out_dir / "run.json", report)
    write_report_files(run_artifacts(report), out_dir)
    return {name: (out_dir / name).read_bytes() for name in REPORT_FILES}


def _assert_same_report(got, want) -> None:
    assert got.losses == want.losses
    assert got.betas == want.betas
    assert got.triplet_losses == want.triplet_losses
    assert got.level_miou == want.level_miou
    assert got.violation_rate == want.violation_rate
    assert got.scorer.weight.tobytes() == want.scorer.weight.tobytes()
    assert got.scorer.bias.tobytes() == want.scorer.bias.tobytes()


@pytest.mark.parametrize("name", CONFIGS)
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, tmp_path, three_level, name):
    features, labels = _data(three_level)
    held = _data(three_level, pixels_per_class=50)
    cfg = TrainConfig(iterations=12, seed=3, **CONFIGS[name])
    assert len(row_blocks(three_level, labels.leaf.size)) == 4
    pids = counted_forks(monkeypatch)
    reports, files = {}, {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        before = len(pids)
        reports[cpus] = train(features, labels, three_level, cfg, heldout=held)
        # Every loss, cce included, runs its steps in the same row blocks.
        forked = training._blas_threads() is not None
        assert len(pids) - before == (cpus - 1 if forked else 0)
        files[cpus] = _report_bytes(reports[cpus], tmp_path / str(cpus))
    for cpus in (2, 3):
        _assert_same_report(reports[cpus], reports[1])
        assert files[cpus] == files[1]
    assert_no_child_left()


@pytest.mark.parametrize("loss", LOSSES)
def test_train_matches_the_reference_trainer(monkeypatch, three_level, loss):
    """Four row blocks, the last one short, at 1, 2 and 3 workers."""
    features, labels = _data(three_level)
    cfg = TrainConfig(iterations=12, seed=3, loss=loss)
    x = features.reshape(-1, features.shape[-1]).astype(np.float64)
    with training._one_blas_thread():  # as train holds it
        want_losses, want_weight, want_bias = reference.train_scorer(
            x, labels.leaf.reshape(-1).astype(np.int64), three_level, cfg
        )
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        got = train(features, labels, three_level, cfg)
        assert got.losses == want_losses
        assert got.scorer.weight.tobytes() == want_weight.tobytes()
        assert got.scorer.bias.tobytes() == want_bias.tobytes()
    assert_no_child_left()


def test_no_worker_outlives_a_diverging_run(monkeypatch, three_level):
    features, labels = _data(three_level)
    use_cpus(monkeypatch, 2)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="non-finite"):
        train(features, labels, three_level, TrainConfig(iterations=30, lr=1e25, loss="ftm"))
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("lr, step", [(1e25, 3), (1e100, 1)], ids=["overflow", "zero-norm"])
def test_a_diverging_projection_head_raises_as_it_did_after_the_round(
    monkeypatch, three_level, cpus, lr, step
):
    """A head whose embeddings overflow raises ``TrainingDivergedError``
    at the step it did when its step ran after the round. At lr 1e25 a
    norm's cube overflows in step 3, at lr 1e100 a norm in step 1; these
    once escaped as ``OverflowError`` and as the ``ValueError`` of bad
    input."""
    features, labels = _data(three_level)
    use_cpus(monkeypatch, cpus)
    steps = []
    real = training._triplet_step
    monkeypatch.setattr(
        training, "_triplet_step", lambda *args: steps.append(None) or real(*args)
    )
    cfg = TrainConfig(iterations=30, lr=lr, loss="ftm", use_triplet=True, triplet_count=40)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as raised:
        train(features, labels, three_level, cfg)
    assert str(raised.value) == f"non-finite triplet loss at step {step}"
    assert len(steps) - 1 == step
    assert_no_child_left()


@pytest.mark.parametrize("pixel, cpus", [(-1, 2), (-1, 3), (0, 2), (0, 3)],
                         ids=["last-2", "last-3", "first-2", "first-3"])
def test_a_nan_row_raises_divergence_from_either_range(monkeypatch, three_level, pixel, cpus):
    """A NaN feature at the last pixel lies in the last worker's rows and
    one at the first pixel in the caller's; either way the step raises
    ``TrainingDivergedError`` and every worker is reaped."""
    features, labels = _data(three_level)
    features.reshape(-1, features.shape[-1])[pixel] = np.nan
    use_cpus(monkeypatch, cpus)
    pids = counted_forks(monkeypatch)
    with pytest.raises(TrainingDivergedError, match="at step 0$"):
        train(features, labels, three_level, TrainConfig(iterations=3, loss="ftm"))
    if training._blas_threads() is not None:
        assert len(pids) == cpus - 1
    assert_no_child_left()


def _poison_after_step_1(monkeypatch, poison) -> None:
    """Make ``poison(scorer)`` run right after the scorer's SGD update of
    step 1, on finite parameters."""
    real, updates = training._sgd_step, []

    def poisoned(params, vel, grads, cfg):
        real(params, vel, grads, cfg)
        if isinstance(params, training.ToyScorer):
            updates.append(None)
            if len(updates) == 2:  # after step 1
                assert np.isfinite(params.weight).all() and np.isfinite(params.bias).all()
                poison(params)

    monkeypatch.setattr(training, "_sgd_step", poisoned)


@pytest.mark.parametrize("loss", ["bce", "ftm"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_nan_bias_alone_raises_divergence(monkeypatch, three_level, loss, cpus):
    """The row blocks add the bias to x @ W themselves, so the check after
    a failed round (ftm's kernel raises on a NaN score) must see it too."""
    features, labels = _data(three_level)
    use_cpus(monkeypatch, cpus)
    _poison_after_step_1(monkeypatch, lambda scorer: scorer.bias.fill(np.nan))
    with pytest.raises(TrainingDivergedError, match="non-finite segmentation loss at step 2$"):
        train(features, labels, three_level, TrainConfig(iterations=5, loss=loss))
    assert_no_child_left()


@pytest.mark.parametrize("loss", ["cce", "bce", "ftm"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_nan_weight_entry_raises_divergence(monkeypatch, three_level, loss, cpus):
    """The row blocks compute x @ W themselves, and after a failed round
    the blocks that never ran hold the last step's logits, so the check
    recomputes them. The entry is in a leaf's column, which cce reads."""
    features, labels = _data(three_level)
    use_cpus(monkeypatch, cpus)

    def poison(scorer):
        scorer.weight[0, three_level.leaves[0]] = np.nan

    _poison_after_step_1(monkeypatch, poison)
    with pytest.raises(TrainingDivergedError, match="non-finite segmentation loss at step 2$"):
        train(features, labels, three_level, TrainConfig(iterations=5, loss=loss))
    assert_no_child_left()


def test_a_train_inside_a_worker_runs_serially(monkeypatch, three_level):
    features, labels = _data(three_level)
    cfg = TrainConfig(iterations=4, loss="ftm")
    use_cpus(monkeypatch, 2)
    want = train(features, labels, three_level, cfg).scorer.weight
    pids = counted_forks(monkeypatch)
    got = shared_zeros(want.shape, np.float64)
    forks = shared_zeros((1,), np.int64)

    def work(block):
        if coherence._in_worker:
            before = len(pids)  # this list is the worker's own copy
            got[...] = train(features, labels, three_level, cfg).scorer.weight
            forks[0] = len(pids) - before

    run_blocks(list(range(2 * MIN_BLOCKS)), work)
    assert len(pids) == 1
    assert forks[0] == 0
    assert got.tobytes() == want.tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("kind", ["scorer", "projection"])
def test_sgd_step_updates_each_parameter_in_place(kind):
    """Each parameter keeps its array object, which ``train``'s workers
    read, and its bits are those of ``p - lr * (m * v + (g + wd * p))``
    computed apart, over two steps."""
    rng = np.random.default_rng(4)
    if kind == "scorer":
        params = training.ToyScorer(weight=rng.normal(size=(5, 3)), bias=rng.normal(size=3))
    else:
        params = init_projection(4, out_dim=3, rng=rng)
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.01)
    arrays = dict(vars(params))
    want = {name: p.copy() for name, p in arrays.items()}
    velocity = dict.fromkeys(arrays, 0.0)
    vel = {}
    for _ in range(2):
        grads = {name: rng.normal(size=p.shape) for name, p in arrays.items()}
        for name, g in grads.items():
            p = want[name]
            velocity[name] = cfg.momentum * velocity[name] + (g + cfg.weight_decay * p)
            want[name] = p - cfg.lr * velocity[name]
        training._sgd_step(params, vel, grads, cfg)
        for name, p in arrays.items():
            assert getattr(params, name) is p
            assert p.tobytes() == want[name].tobytes()


def _blas_pool():
    pool = training._blas_threads()
    if pool is None:
        pytest.skip("numpy's OpenBLAS thread pool was not found")
    return pool


def test_blas_pool_is_held_at_one_thread_and_restored(monkeypatch, three_level):
    get, put = _blas_pool()
    features, labels = _data(three_level, pixels_per_class=50)
    seen = []

    def recording(real):
        def call(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(training, "block_loss", recording(training.block_loss))
    monkeypatch.setattr(training, "generate_synthetic", recording(training.generate_synthetic))
    use_cpus(monkeypatch, 1)  # block_loss runs in the caller
    before = get()
    try:
        put(2)
        if get() != 2:
            pytest.skip("OpenBLAS did not take a second thread")
        train(features, labels, three_level, TrainConfig(iterations=2, loss="ftm"))
        assert get() == 2
        syn = SyntheticConfig(feature_dim=8, pixels_per_class=20, seed=0)
        run_toy(syn, TrainConfig(iterations=2, loss="ftm"), three_level)
        assert get() == 2
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            run_toy(syn, TrainConfig(iterations=30, lr=1e25, loss="ftm"), three_level)
        assert get() == 2
    finally:
        put(before)
    assert seen and set(seen) == {1}


def test_without_the_blas_pool_training_runs_serially(monkeypatch, three_level):
    """Nothing is held and no worker is forked; at one thread the report is
    the held run's."""
    get, put = _blas_pool()
    features, labels = _data(three_level)
    cfg = TrainConfig(iterations=6, loss="ftm")
    use_cpus(monkeypatch, 2)
    want = train(features, labels, three_level, cfg)
    pids = counted_forks(monkeypatch)
    monkeypatch.setattr(training, "_blas_threads", lambda: None)
    before = get()
    try:
        put(1)
        got = train(features, labels, three_level, cfg)
    finally:
        put(before)
    assert pids == []
    _assert_same_report(got, want)


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Two train-toy runs, at one and at two OpenBLAS threads. Without the
    hold, the scorer's weight gradient (2000x64)^T @ (2000x20) differs in
    its last bits between the two, and the reports with it."""
    _blas_pool()
    code = "import sys; from hiertax.cli import main; sys.exit(main(sys.argv[1:]))"
    args = [
        "train-toy", "--tax", os.path.join(TAX_DIR, "lip.tax"), "--loss", "bce",
        "--feature-dim", "64", "--pixels-per-class", "100", "--iterations", "40",
    ]
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", code, *args, "--out-dir", str(tmp_path / threads)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
    for name in REPORT_FILES:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_report_bytes_prints_one_digest_per_report_file(tmp_path):
    """A smoke run of one config of the report-byte gate."""
    configs = dict(report_bytes.configs())
    assert len(configs) == 28
    name = "pascal_person_part bce"
    lines = report_bytes.report_digests(SRC, name, configs[name], tmp_path / "out")
    digests, files = zip(*(line.split("  ") for line in lines))
    assert files == tuple(f"{name}/{f}" for f in REPORT_FILES)
    for digest, f in zip(digests, REPORT_FILES):
        assert digest == hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()


@pytest.mark.skipif(
    platform.machine() != "x86_64" or np.__version__ != "2.4.6",
    reason="the committed digests hold for the build their file names: x86_64, numpy 2.4.6",
)
def test_a_forking_config_replays_its_committed_report_digests(tmp_path):
    """``cityscapes ftm --use-triplet`` has four row blocks at 100 px/class,
    so on two or more CPUs its steps fork and run the triplet step as
    ``first``; its report files must keep the committed digests."""
    name = "cityscapes ftm --use-triplet"
    h = load_taxonomy(os.path.join(TAX_DIR, "cityscapes.tax"))
    assert len(row_blocks(h, 100 * len(h.leaves))) == 4
    args = dict(report_bytes.configs())[name]
    lines = report_bytes.report_digests(SRC, name, args, tmp_path / "out")
    committed = Path(report_bytes.__file__).with_name("report_digests.txt").read_text()
    assert lines == [line for line in committed.splitlines() if f"  {name}/" in line]


def test_report_bytes_check_prints_only_the_lines_that_differ(tmp_path):
    """``--check FILE`` skips the file's comments and blank lines, and
    prints nothing when every digest matches. The committed file lists
    every config's report files, in the order the script runs them."""
    committed = Path(report_bytes.__file__).with_name("report_digests.txt").read_text()
    lines = [line for line in committed.splitlines() if line and not line.startswith("#")]
    names = [line.split("  ")[1] for line in lines]
    assert names == [f"{name}/{f}" for name, _ in report_bytes.configs() for f in REPORT_FILES]

    want = ["aa  x/run.json", "bb  x/metrics.csv"]
    path = tmp_path / "digests.txt"
    path.write_text("# header\n\n" + "\n".join(want) + "\n")
    assert report_bytes.differences(want, str(path)) == []
    diff = report_bytes.differences(["aa  x/run.json", "cc  x/metrics.csv"], str(path))
    assert [line for line in diff if line[0] in "+-" and line[:3] not in ("---", "+++")] == [
        "-bb  x/metrics.csv", "+cc  x/metrics.csv",
    ]
