"""hiertax benchmark: one workload, one closed-loop client, seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy_hier --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it times ops untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced ops and
reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any correctness check
failed and 2 when the checkout holds no ``src/hiertax`` to benchmark.
"""

from __future__ import annotations

import os

# OpenBLAS threads spin while they wait. On the toy workloads a second
# thread doubles CPU time for no wall-time gain and makes every timing
# depend on what else runs, so the benchmark pins one thread before numpy
# is imported and records the count it got. README.md gives the figures
# for one and two threads; a change that moves work into BLAS should also
# be timed with the default thread count.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

WORKLOAD_NAMES = ("toy_hier", "toy_flat", "field_mapillary")
DEFAULT_SEED = 0  # seed 1 is held out for checking claims
# Set-up children per run: one warm-up, then half of the timed ones before
# the ops and half after them, so that the median spans the whole run
# rather than a few seconds of it.
SETUP_REPEATS = 31
# End-to-end metrics every workload reports in the JSON result line; the
# workload-specific rates and quality numbers are printed above it.
GATED = ("setup_s", "peak_rss_mb", "op_s")

# Time from a fresh interpreter to a loaded taxonomy, measured inside the
# child so that process start-up is left out.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sys
import hiertax
import hiertax.cli
hiertax.load_taxonomy(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(src: str, tax: str, count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, tax],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def blas_record() -> str:
    """OpenBLAS version and thread count of the numpy in use."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and threads is not None:
                    cfg.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return f"{cfg().decode().strip()}; threads {threads()}"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}; threads unknown"


def env_lines(wl) -> list[str]:
    return [
        f"env nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))})",
        f"env python {platform.python_version()} numpy {np.__version__}",
        f"env blas {blas_record()}",
        *(f"input {line}" for line in wl.describe()),
        f"computed (N,|V|) float64 working array: N={wl.rows} |V|={wl.nodes} "
        f"-> {wl.rows * wl.nodes * 8 / 2**20:.1f} MiB each (computed, not measured)",
    ]


def end_to_end(wl, ops: list[dict], setup: list[float]) -> list[tuple]:
    """(metric, value, unit) rows; timings are medians over the run's ops."""
    failed = sum(1 for op in ops if op["errors"])
    good = [op for op in ops if not op["errors"]]
    rows = [
        ("setup_s", statistics.median(setup), "s"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        ("failed_share", failed / len(ops), "ratio"),
    ]
    if good:
        rows.append(("op_s", statistics.median(op["wall_s"] for op in good), "s"))
        rows += wl.metrics(good)
    return rows


def layer_metrics(ops: list[dict], names: list[str]) -> dict[str, float]:
    """Medians over the traced ops, plus the tracing overhead against the
    untraced ops of the same run. Op 0 pays the run's warm-up (first-touch
    page faults, lazily loaded code), so it is left out of the overhead."""
    traced = [op for op in ops if op["traced"] and "layers" in op and not op["errors"]]
    plain = [op["wall_s"] for op in ops[1:] if not op["traced"] and not op["errors"]]
    out = {}
    for name in names:
        if traced and name in traced[0]["layers"]:
            out[name] = statistics.median(op["layers"][name] for op in traced)
    if traced and plain:
        walls = statistics.median(op["wall_s"] for op in traced)
        out["trace.overhead_share"] = walls / statistics.median(plain) - 1.0
    return out


def layer_unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "rows": "count", "bytes": "B"}.get(suffix, "ratio")


def run_loop(wl, seconds: float, tracer) -> list[dict]:
    """Closed loop until ``seconds`` have passed. With a tracer, ops
    alternate untraced and traced, and at least three run: untraced,
    traced, untraced."""
    ops = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer is not None and len(ops) < 3):
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        op = {"traced": traced, "errors": []}
        try:
            if traced:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = wl.run_op(i)
            finally:
                op["wall_s"] = time.perf_counter() - t0
                if traced:
                    op["layers"] = tracer.end_op(i)
            errors, numbers = wl.check(i, out)
            op["errors"] += errors
            op.update(numbers)
        except Exception:  # a failed op is counted; the run goes on
            traceback.print_exc()
            op["errors"].append("exception")
        ops.append(op)
    return ops


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hiertax", "__init__.py")):
        print(f"no hiertax sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hiertax

    if not os.path.abspath(hiertax.__file__).startswith(src + os.sep):
        print(f"hiertax imported from {hiertax.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[args.workload](args.workload, root, work, args.seed)
        # The warm-up child also compiles the bytecode of a fresh checkout.
        measure_setup(src, wl.tax, 1)
        setup = measure_setup(src, wl.tax, SETUP_REPEATS // 2)
        for line in env_lines(wl):
            print(line)
        tracer = tracing.Tracer() if args.trace else None
        ops = run_loop(wl, args.seconds, tracer)
        setup += measure_setup(src, wl.tax, SETUP_REPEATS - len(setup))
        if tracer is not None:
            spans = os.path.join(os.path.dirname(work),
                                 f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
            tracer.write_spans(spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    for i, op in enumerate(ops):
        status = "ok" if not op["errors"] else "FAILED: " + "; ".join(op["errors"])
        stages = "".join(f"{k[:-2]} {v:.4f} s, " for k, v in op.items()
                         if k.endswith("_s") and k != "wall_s")
        print(f"op {i}{' traced' if op['traced'] else ''}: wall {op['wall_s']:.4f} s, {stages}"
              f"read {op.get('bytes_read', 0)} B, written {op.get('bytes_written', 0)} B, "
              f"{status}")
        if "layers" in op:
            layers = op["layers"]
            covered = 1.0 - layers["trace.unattributed_share"]
            print(f"op {i} spans: wrapped self times incl. cli.main = {covered:.4%} of op wall, "
                  f"tracer counters {layers['trace.counter_share']:.4%}, "
                  f"benchmark glue {layers['trace.unattributed_share'] - layers['trace.counter_share']:.4%}")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
    failed = sum(1 for op in ops if op["errors"])
    print(f"ops attempted {len(ops)} failed {failed}")

    if tracer is not None:
        print(f"spans of the traced ops written to {os.path.relpath(spans, root)}")
        for func, sites in tracer.sites.items():
            print(f"wrapped {func} at {', '.join(sites)}")
        metrics = layer_metrics(ops, tracing.metric_names())
        units = {m: layer_unit(m) for m in metrics}
        for m, v in metrics.items():
            print(f"layer {m} {v:.6g} {units[m]}")
    else:
        rows = end_to_end(wl, ops, setup)
        for m, v, u in rows:
            print(f"metric {m} {v:.6g} {u}")
        metrics = {m: v for m, v, _ in rows if m in GATED}
        units = {m: u for m, _, u in rows}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
