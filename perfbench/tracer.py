"""Spans and counters around hiertax's public functions, from outside the
library.

The modules bind each other's functions with ``from .x import y``, so a
function is reachable under several names: ``batch_loss`` is both
``hiertax.losses.batch_loss`` and ``hiertax.training.batch_loss``. The
tracer therefore replaces every module-level name in every loaded
``hiertax`` module that refers to a wrapped function, and checks that no
such name is left unwrapped.

A span records (name, start, end, parent). Spans stay in memory for the
whole run and are written out once, at its end. Counters that need a look at large
arguments or results (rows, bytes, winners) are computed after the span
closes, inside a ``trace.stats`` span, so they are charged to neither the
wrapped function nor its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

STATS = "trace.stats"
OP = "op"


def _rows(param):
    """Rows of the array argument ``param``: every axis but the last one
    counts, so an (N, |V|) batch has N rows and an (H, W, C) grid H*W."""

    def measure(a, result):
        return {"rows": int(np.prod(np.shape(a[param])[:-1]))}

    return measure


def _field_rows(param):
    def measure(a, result):
        return {"rows": a[param].height * a[param].width}

    return measure


def _path_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _triplet_yield(a, result):
    return {
        "rows": int(np.size(a["batch_labels"])),
        "requested": int(a["count"]),
        "returned": len(result),
    }


def _hinge_active(a, result):
    return {"active": int(result.value > 0.0)}


def _winners_offnode(a, result):
    winners = result[1]
    n, v = winners.shape
    return {
        "rows": n,
        "cells": n * v,
        "offnode": int(np.count_nonzero(winners != np.arange(v))),
    }


# module -> function -> counter hook, called with the bound arguments and
# the result (None: calls and self time only)
LAYERS = {
    "taxonomy": {"load_taxonomy": None},
    "synthetic": {"generate_synthetic": None},
    "coherence": {
        "propagate_batch_winners": _winners_offnode,
        "propagate_batch": _rows("s"),
        "propagate_field": _field_rows("scores"),
    },
    "losses": {"batch_loss": _rows("s"), "field_loss": _field_rows("scores")},
    "embedding": {
        "sample_triplets": _triplet_yield,
        "tree_triplet_loss": _hinge_active,
        "project": _rows("x"),
        "project_backward": _rows("x"),
    },
    "evaluation": {
        "decode_batch": _rows("s"),
        "decode_field": _field_rows("scores"),
        "evaluate_prediction_levels": _field_rows("gt"),
    },
    "fields": {
        "read_score_field": _path_bytes,
        "read_label_field": _path_bytes,
        "write_score_field": _path_bytes,
        "write_label_field": _path_bytes,
    },
    "training": {
        "run_toy": None,
        "train": _rows("features"),
        "coherence_violation_rate": _rows("s"),
    },
    "report": {"write_run_json": None, "write_report_files": None},
    "cli": {"main": None},
}

# Counters each function reports beside calls and self_s, and the ratios
# read off its arguments and results.
ROW_FUNCS = [
    "coherence.propagate_batch_winners", "coherence.propagate_batch",
    "coherence.propagate_field", "losses.batch_loss", "losses.field_loss",
    "embedding.sample_triplets", "embedding.project", "embedding.project_backward",
    "evaluation.decode_batch", "evaluation.decode_field",
    "evaluation.evaluate_prediction_levels", "training.train",
    "training.coherence_violation_rate",
]
RATIOS = {
    "embedding.sample_triplets.yield": ("embedding.sample_triplets", "returned", "requested"),
    "embedding.tree_triplet_loss.active_share": ("embedding.tree_triplet_loss", "active", None),
    "coherence.propagate_batch_winners.offnode_share": (
        "coherence.propagate_batch_winners", "offnode", "cells",
    ),
}


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for func in function_names():
        names += [f"{func}.calls", f"{func}.self_s"]
        if func in ROW_FUNCS:
            names.append(f"{func}.rows")
        if func.startswith("fields."):
            names.append(f"{func}.bytes")
    names += list(RATIOS)
    names += ["trace.overhead_share", "trace.counter_share", "trace.unattributed_share"]
    return names


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: list[dict | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}
        self.finished: list[tuple[int, list, list, list, list]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.counters.append(None)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def begin_op(self) -> None:
        """Start a fresh span list, patch the library and open the op's root span."""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counters = []
        self.install()
        self._root = self.open(OP)

    def end_op(self, op_index: int) -> dict[str, float]:
        """Close the root span, unpatch, keep the op's spans for
        ``write_spans`` and return its per-layer metrics."""
        self.close(self._root)
        self.uninstall()
        self.finished.append((op_index, self.names, self.starts, self.ends, self.parents))
        return self._op_metrics()

    def write_spans(self, path: str) -> None:
        """All kept spans as JSON lines, times in ns from their op's start."""
        with open(path, "w") as f:
            for op_index, names, starts, ends, parents in self.finished:
                t0 = starts[0]
                for i, name in enumerate(names):
                    f.write(json.dumps({
                        "op": op_index, "id": i, "parent": parents[i], "name": name,
                        "start_ns": starts[i] - t0, "end_ns": ends[i] - t0,
                    }) + "\n")

    def _wrap(self, name: str, fn, measure):
        params = inspect.signature(fn).parameters
        names = list(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                stats = self.open(STATS)
                try:
                    bound = {**defaults, **dict(zip(names, args)), **kwargs}
                    self.counters[idx] = measure(bound, result)
                finally:
                    self.close(stats)
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Replace every hiertax module-level name bound to a listed function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, funcs in LAYERS.items():
            home = importlib.import_module(f"hiertax.{mod_name}")
            for fn_name, measure in funcs.items():
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, measure)
                sites = []
                for mname, module in sorted(sys.modules.items()):
                    if mname != "hiertax" and not mname.startswith("hiertax."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            self._patches.append((module, attr, orig))
                            setattr(module, attr, wrapper)
                            sites.append(f"{mname}.{attr}")
                self.sites[f"{mod_name}.{fn_name}"] = sites
        self._check_no_unwrapped()

    def _check_no_unwrapped(self) -> None:
        originals = {id(orig) for _, _, orig in self._patches}
        for mname, module in sys.modules.items():
            if mname != "hiertax" and not mname.startswith("hiertax."):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mname}.{attr} escaped the tracer")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- per-op metrics --------------------------------------------------
    def _op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current op's spans, which must hold
        exactly one ``op`` root span."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        roots = [i for i in range(n) if self.parents[i] == -1]
        if len(roots) != 1 or self.names[roots[0]] != OP:
            raise RuntimeError(f"expected one {OP!r} root span, got {len(roots)}")
        wall_ns = self.ends[roots[0]] - self.starts[roots[0]]

        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        counts: dict[str, dict[str, int]] = {}
        for i in range(n):
            name = self.names[i]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (self.ends[i] - self.starts[i] - child_ns[i])
            if self.counters[i]:
                acc = counts.setdefault(name, {})
                for key, value in self.counters[i].items():
                    acc[key] = acc.get(key, 0) + value

        out: dict[str, float] = {}
        covered_ns = 0
        for func in function_names():
            out[f"{func}.calls"] = calls.get(func, 0)
            out[f"{func}.self_s"] = self_ns.get(func, 0) / 1e9
            covered_ns += self_ns.get(func, 0)
            if func in ROW_FUNCS:
                out[f"{func}.rows"] = counts.get(func, {}).get("rows", 0)
            if func.startswith("fields."):
                out[f"{func}.bytes"] = counts.get(func, {}).get("bytes", 0)
        for metric, (func, num, den) in RATIOS.items():
            c = counts.get(func, {})
            base = c.get(den, 0) if den else calls.get(func, 0)
            out[metric] = c.get(num, 0) / base if base else 0.0
        # Whatever the wrapped functions (cli.main included) do not cover is
        # the tracer's own counters plus the benchmark's glue inside the op.
        # Both are measured and reported, not checked: the spans of one root
        # tile its wall time by construction.
        out["trace.counter_share"] = self_ns.get(STATS, 0) / wall_ns
        out["trace.unattributed_share"] = (wall_ns - covered_ns) / wall_ns
        return out
