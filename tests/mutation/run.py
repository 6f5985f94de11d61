"""Mutation runner: every mutant of ``src/hiertax`` listed here must fail a test.

A mutant names a module of ``src/hiertax``, an exact snippet of it, the
snippet's replacement and the test modules that must kill it. For each
mutant the runner copies ``src`` to a temporary directory, applies the
mutant there and runs ``pytest -x -q`` on its test modules against the
copy. It exits 1 when a mutant survives, when its snippet does not occur
exactly once in its module, or when pytest cannot run; so a refactor that
moves a mutant's code updates the mutant instead of losing it. A mutant
whose tests hang past ``TIMEOUT_S`` counts as killed.

    python tests/mutation/run.py            # every mutant
    python tests/mutation/run.py NAME ...   # the named mutants
    python tests/mutation/run.py --list     # the names

It needs only the stdlib and pytest, and writes nothing outside its
temporary directories: pytest runs without its cache and Python writes
no bytecode.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file of src/hiertax
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test modules under tests/


MUTANTS = [
    Mutant(
        "run_blocks drops no block's pages", "coherence.py",
        "        work(rows)\n        ran(rows)\n", "        work(rows)\n",
        ("test_field_paths.py",),
    ),
    Mutant(
        "run_blocks keeps its last span", "coherence.py",
        "        run_round()\n    ran()\n", "        run_round()\n",
        ("test_field_paths.py",),
    ),
    Mutant(
        "field_rows checks no dimensions", "coherence.py",
        "    if (scores.height, scores.width) != (labels.height, labels.width):\n"
        '        raise ValueError("score and label fields have mismatched dimensions")\n',
        "",
        ("test_field_paths.py",),
    ),
    Mutant(
        "_dp_scores checks no width", "coherence.py",
        "    if s.ndim != 2 or s.shape[1] != len(h):\n", "    if s.ndim != 2:\n",
        ("test_coherence.py",),
    ),
    Mutant(
        "cce_loss takes non-finite logits", "losses.py",
        "    if not np.isfinite(logits).all():\n"
        '        raise ValueError("logits must be finite")\n',
        "",
        ("test_losses.py",),
    ),
    Mutant(
        "EPSILON is 1e-6", "losses.py",
        "EPSILON = 1e-12\n", "EPSILON = 1e-6\n",
        ("test_losses.py",),
    ),
    Mutant(
        "the cursor is taken without the token", "coherence.py",
        "        if token:\n            os.read(token[0], 1)\n"
        "        lo, hi = cursor.tolist()\n"
        "        if lo < hi:\n"
        "            cursor[:] = (lo, hi - 1) if back else (lo + 1, hi)\n"
        "        if token:\n            os.write(token[1], b\"\\0\")\n",
        "        lo, hi = cursor.tolist()\n"
        "        if lo < hi:\n"
        "            cursor[:] = (lo, hi - 1) if back else (lo + 1, hi)\n",
        ("test_field_paths.py",),
    ),
    Mutant(
        "children take from the front", "coherence.py",
        "while (i := take(back=True)) is not None:", "while (i := take(back=False)) is not None:",
        ("test_field_paths.py",),
    ),
    Mutant(
        "a child's exception is not re-raised", "coherence.py",
        "                    raise pickle.loads(sent)\n", "                    pass\n",
        ("test_field_paths.py",),
    ),
    Mutant(
        "sibling_max widens int32 ids", "coherence.py",
        "    far = ids.dtype.type(len(vals))\n", "    far = len(vals)\n",
        ("test_tree_dp.py", "test_coherence.py"),
    ),
    Mutant(
        "train forks no step worker", "training.py",
        "1 if held else len(blocks) + 1", "len(blocks) + 1",
        ("test_train_workers.py",),
    ),
]


def run(mutant: Mutant) -> str:
    """``"killed by <the first failing test>"``, ``"timed out"``,
    ``"survived"``, ``"no match"`` or ``"error: ..."`` for one mutant, run
    on a temporary copy of ``src``."""
    with tempfile.TemporaryDirectory(prefix="hiertax-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "hiertax" / mutant.module
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "no match"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # A mutant that breaks the import would fail every test: no kill.
        where = subprocess.run(
            [sys.executable, "-c", "import hiertax; print(hiertax.__file__)"],
            env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(src) + os.sep):
            said = (where.stderr.strip().splitlines() or [where.stdout.strip()])[-1]
            return f"error: hiertax does not import from the mutated copy: {said}"
        tests = [str(ROOT / "tests" / name) for name in mutant.tests]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
    # pytest exits 1 when a test fails and 2 when a module fails to import.
    if done.returncode in (1, 2):
        failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        return f"killed by {failed[0] if failed else '?'}"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exited {done.returncode}: {done.stdout.strip()[-300:]}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants' names")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {unknown}")
    failed = 0
    start = time.monotonic()
    for mutant in [by_name[n] for n in args.names] or MUTANTS:
        began = time.monotonic()
        outcome = run(mutant)
        failed += not outcome.startswith(("killed", "timed out"))
        print(f"{time.monotonic() - began:6.1f} s  {mutant.name}: {outcome}", flush=True)
    print(f"{failed} of {len(args.names) or len(MUTANTS)} mutants not killed, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
