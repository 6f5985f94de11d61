"""CSV and static-SVG report writers for training runs.

All writers format numbers with repr (shortest round-trip) and fixed row
order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import asdict

from .training import TrainReport


def run_artifacts(report: TrainReport) -> dict:
    """JSON-serializable snapshot of a training run."""
    return {
        "config": asdict(report.config),
        "losses": report.losses,
        "betas": report.betas,
        "triplet_losses": report.triplet_losses,
        "level_miou": [
            {"level": ls.level, "miou": ls.miou, "iou": {str(k): v for k, v in ls.iou.items()}}
            for ls in report.level_miou
        ],
        "violation_rate": report.violation_rate,
    }


def write_run_json(path, report: TrainReport) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(run_artifacts(report), f, indent=2, sort_keys=True)
        f.write("\n")


def load_run_json(path) -> dict:
    """A saved run.json; ``ValueError`` names the first key that ``write_report_files``
    reads and the file lacks, the first curve that is not a list as long as ``losses``,
    the first curve entry or a ``violation_rate`` that is not a number, or the first
    ``level_miou`` entry without an integer ``level``, a dict ``iou`` and ``miou``, with
    an ``iou`` key that is not an integer, or with an ``iou`` value or ``miou`` that is
    not a number. A number is a finite int or float, not a bool. So
    ``write_report_files`` writes nothing for a bad file."""
    with open(path) as f:
        run = json.load(f)
    keys = ("losses", "betas", "triplet_losses", "level_miou", "violation_rate")
    for key in keys:
        if not isinstance(run, dict) or key not in run:
            raise ValueError(f"{path}: missing key {key!r}")
    for key in keys[:3]:
        if not isinstance(run[key], list) or len(run[key]) != len(run["losses"]):
            raise ValueError(f"{path}: {key!r} must be a list as long as 'losses'")
        for j, value in enumerate(run[key]):
            if not _is_number(value):
                raise ValueError(f"{path}: {key!r} entry {j} must be a number")
    if not _is_number(run["violation_rate"]):
        raise ValueError(f"{path}: 'violation_rate' must be a number")
    if not isinstance(run["level_miou"], list):
        raise ValueError(f"{path}: 'level_miou' must be a list")
    for i, entry in enumerate(run["level_miou"]):
        where = f"{path}: level_miou entry {i}"
        for key in ("level", "iou", "miou"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{where} lacks key {key!r}")
        if not isinstance(entry["iou"], dict):
            raise ValueError(f"{where}: 'iou' must be a dict")
        if type(entry["level"]) is not int:
            raise ValueError(f"{where}: 'level' must be an integer")
        for key, value in entry["iou"].items():
            try:
                int(key)
            except ValueError:
                raise ValueError(f"{where}: 'iou' key {key!r} is not an integer") from None
            if not _is_number(value):
                raise ValueError(f"{where}: 'iou' value for {key!r} must be a number")
        if not _is_number(entry["miou"]):
            raise ValueError(f"{where}: 'miou' must be a number")
    return run


def _is_number(value) -> bool:
    """An int or float, not a bool, with a float's finite range (so not NaN)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def write_report_files(artifacts: dict, out_dir) -> list[str]:
    """Write loss_curve.csv, metrics.csv, and loss_curve.svg; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    curve_path = os.path.join(out_dir, "loss_curve.csv")
    with open(curve_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["step", "loss", "beta", "triplet_loss"])
        for i, (loss, beta, tt) in enumerate(
            zip(artifacts["losses"], artifacts["betas"], artifacts["triplet_losses"])
        ):
            w.writerow([i, repr(loss), repr(beta), repr(tt)])
    paths.append(curve_path)

    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["kind", "level", "class", "value"])
        for entry in artifacts["level_miou"]:
            for cls in sorted(entry["iou"], key=int):
                w.writerow(["iou", entry["level"], cls, repr(entry["iou"][cls])])
            w.writerow(["miou", entry["level"], "", repr(entry["miou"])])
        w.writerow(["violation_rate", "", "", repr(artifacts["violation_rate"])])
    paths.append(metrics_path)

    svg_path = os.path.join(out_dir, "loss_curve.svg")
    with open(svg_path, "w", newline="\n") as f:
        f.write(_loss_curve_svg(artifacts["losses"]))
    paths.append(svg_path)
    return paths


def _loss_curve_svg(losses: list[float], width: int = 640, height: int = 360) -> str:
    """Minimal hand-rolled polyline plot; deterministic bytes."""
    pad = 40
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    if losses:
        lo, hi = min(losses), max(losses)
        span = (hi - lo) or 1.0
        nx = max(len(losses) - 1, 1)
        points = []
        for i, v in enumerate(losses):
            px = pad + (width - 2 * pad) * i / nx
            py = height - pad - (height - 2 * pad) * (v - lo) / span
            points.append(f"{px:.2f},{py:.2f}")
        lines.append(
            f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
            f'points="{" ".join(points)}"/>'
        )
        lines.append(
            f'<text x="{pad}" y="{pad - 10}" font-size="12" font-family="monospace">'
            f"loss: first={losses[0]!r} last={losses[-1]!r}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
