import contextlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from hiertax.taxonomy import ClassHierarchy, build_hierarchy

# To report a failing property test, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst, which emits a
# DeprecationWarning on import. Under filterwarnings = ["error"] that
# warning ends the whole session with INTERNALERROR after the first
# failure. Importing the module once here, with DeprecationWarning alone
# ignored, leaves it loaded for the plugin.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    with contextlib.suppress(ImportError):
        import hypothesis.extra._patching  # noqa: F401

TAX_DIR = str(Path(__file__).resolve().parent.parent / "src" / "hiertax" / "data")

# Every property test draws 40 examples, the same ones on every run, with
# no deadline and no example database.
settings.register_profile("hiertax", max_examples=40, deadline=None, derandomize=True, database=None)
settings.load_profile("hiertax")


@pytest.fixture
def tiny() -> ClassHierarchy:
    """root -> {A, B}, A -> {a1, a2}; ids: root=0 A=1 B=2 a1=3 a2=4."""
    return build_hierarchy(["root", "A", "B", "a1", "a2"], [-1, 0, 0, 1, 1])


@pytest.fixture
def three_level() -> ClassHierarchy:
    """Balanced 3-level tree: root -> 4 groups -> 8 leaves."""
    names = ["all", "g1", "g2", "g3", "g4"] + [f"leaf{i}" for i in range(8)]
    parent = [-1, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    return build_hierarchy(names, parent)


def random_scores(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, size=n)
