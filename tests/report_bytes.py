"""Print one sha256 per ``train-toy`` report file, for 28 seeded configs.

The configs are ``cce``, ``cce --use-triplet``, ``bce``, ``focal``, ``tm``,
``ftm`` and ``ftm --use-triplet`` on the four bundled trees: seed 3, 100
px/class, 40 iterations, feature dim 32 (128 for Mapillary). Each runs in
its own subprocess with ``OPENBLAS_NUM_THREADS=1``, one after another. Run
from the root of a checkout, once against each source tree, and diff the
two outputs; a change that keeps every report byte prints the same lines:

    python tests/report_bytes.py path/to/parent/src > parent.txt
    python tests/report_bytes.py > change.txt
    diff parent.txt change.txt

With ``--check FILE``, nothing is printed but the lines that differ from
FILE (blank lines and ``#`` comments in it skipped), as a unified diff:

    python tests/report_bytes.py --check tests/report_digests.txt

The source tree defaults to this checkout's ``src``. The exit code is 1
when a run fails or a line differs.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAX_DIR = ROOT / "src" / "hiertax" / "data"
REPORT_FILES = ("run.json", "loss_curve.csv", "metrics.csv", "loss_curve.svg")
TREES = {
    "cityscapes": 32,
    "lip": 32,
    "mapillary_vistas": 128,
    "pascal_person_part": 32,
}
LOSS_ARGS = (
    ("cce",), ("cce", "--use-triplet"), ("bce",), ("focal",), ("tm",), ("ftm",),
    ("ftm", "--use-triplet"),
)
CODE = "import sys; from hiertax.cli import main; sys.exit(main(sys.argv[1:]))"


def configs() -> list[tuple[str, list[str]]]:
    """(name, train-toy arguments but ``--out-dir``) of every config."""
    out = []
    for tree, dim in TREES.items():
        for loss, *extra in LOSS_ARGS:
            args = [
                "train-toy", "--tax", str(TAX_DIR / f"{tree}.tax"), "--loss", loss, *extra,
                "--seed", "3", "--pixels-per-class", "100", "--iterations", "40",
                "--feature-dim", str(dim),
            ]
            out.append((" ".join([tree, loss, *extra]), args))
    return out


def report_digests(src: str, name: str, args: list[str], out_dir: Path) -> list[str]:
    """Run one config against the package in ``src`` and return one
    ``<sha256>  <config>/<file>`` line per report file."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CODE, *args, "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name}: exit {done.returncode}\n{done.stderr}")
    return [
        f"{hashlib.sha256((out_dir / f).read_bytes()).hexdigest()}  {name}/{f}"
        for f in REPORT_FILES
    ]


def differences(got: list[str], path: str) -> list[str]:
    """The unified diff, without context, of the digest lines in ``path``
    against ``got``; empty when they are the same."""
    want = [
        line for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return list(difflib.unified_diff(want, got, path, "this run", n=0, lineterm=""))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--check", metavar="FILE", help="print only the lines that differ")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    got = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, run_args) in enumerate(configs()):
            try:
                lines = report_digests(src, name, run_args, Path(tmp) / str(i))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            got += lines
            if args.check is None:
                print("\n".join(lines), flush=True)
    if args.check is None:
        return 0
    diff = differences(got, args.check)
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
