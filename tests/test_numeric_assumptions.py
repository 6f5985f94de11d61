"""Numeric behaviour of numpy that the batched triplet step relies on for
bit-identical results.

``sample_triplets`` draws candidates in (k, 3) blocks and
``batch_triplet_loss`` replaces per-triplet vector maths with row-stacked
array maths. Both reproduce the per-draw, per-triplet code exactly only
while these assumptions hold. If a numpy upgrade breaks one, this module
names it, instead of a report file changing for no visible reason.
"""

import numpy as np
import pytest

from hiertax.embedding import _checked_norms, _row_dot


@pytest.mark.parametrize("n", [3, 7, 1000, 16000, 2**31 + 1, 2**32 - 1, 3 * 10**9])
def test_block_draws_equal_successive_triplet_draws(n):
    # 2**31 + 1 rejects about half of all 32-bit words in Lemire's method.
    one, block = np.random.default_rng(5), np.random.default_rng(5)
    draws = np.array([one.integers(0, n, size=3) for _ in range(300)])
    assert np.array_equal(block.integers(0, n, size=(300, 3)), draws), (
        f"assumption broken: rng.integers(0, {n}, size=(k, 3)) no longer returns the values "
        "of k successive size=3 draws, so sample_triplets would sample other triplets"
    )
    assert np.array_equal(block.integers(0, n, size=3), one.integers(0, n, size=3)), (
        f"assumption broken: after a (k, 3) block draw with n={n} the generator is no "
        "longer where k size=3 draws leave it"
    )


def test_stacked_matmul_equals_per_row_dot():
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(2, 500, 256))
    want = np.array([x[t] @ y[t] for t in range(len(x))])
    assert _row_dot(x, y)[:, 0].tobytes() == want.tobytes(), (
        "assumption broken: stacked np.matmul over rows no longer rounds like the "
        "per-row x @ y (BLAS dot), so batch_triplet_loss would drift from "
        "reference_tree_triplet_loss in tests/test_embedding.py"
    )
    norms = np.array([np.linalg.norm(v) for v in x])
    assert _checked_norms(x)[0][:, 0].tobytes() == norms.tobytes(), (
        "assumption broken: np.linalg.norm of a vector is no longer sqrt(x @ x)"
    )


def test_elementwise_cube_equals_scalar_float64_cube():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(20000, 4)) * 10.0 ** rng.integers(-6, 6, size=(20000, 1))
    norms, cubes = _checked_norms(x)
    want = np.array([np.float64(u) ** 3 for u in norms[:, 0]])
    assert cubes[:, 0].tobytes() == want.tobytes(), (
        "assumption broken: cubing Python floats no longer equals np.float64 ** 3, "
        "the norm cube that _cosine_distance_grad in tests/test_embedding.py computes"
    )
