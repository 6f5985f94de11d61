"""Umbrella command line: taxonomy validation, propagation, decoding,
evaluation, gradient checking, toy training, and report generation.

Exit codes: 0 success, 1 validation failure, 2 I/O error, 3 numerical
failure.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import sys

import click

from .coherence import propagate_field
from .evaluation import decode_field, evaluate_prediction_levels
from .fields import (
    FieldFormatError,
    read_label_field,
    read_score_field,
    write_label_field,
    write_score_field,
)
from .gradcheck import gradcheck_loss
from .losses import LOSSES
from .report import load_run_json, run_artifacts, write_report_files, write_run_json
from .synthetic import SyntheticConfig
from .taxonomy import TaxonomyError, load_taxonomy
from .training import TrainConfig, TrainingDivergedError, run_toy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _read_config_file(path: str | None) -> dict[str, str]:
    """Optional key=value config file, each key once; later flags win."""
    if path is None:
        return {}
    out = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.ClickException(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in out:
                raise click.ClickException(f"config key {key} repeated on line {number}")
            out[key] = value.strip()
    return out


def _config_value(ctx: click.Context, param: click.Parameter, raw: str):
    """Convert one config value with its flag's type; booleans take only
    1/0/true/false/yes/no, in any case."""
    if isinstance(param.type, click.types.BoolParamType):
        word = raw.lower()
        if word not in ("1", "0", "true", "false", "yes", "no"):
            raise click.ClickException(
                f"config key {param.name}: expected 1/0/true/false/yes/no, got {raw!r}"
            )
        return word in ("1", "true", "yes")
    return param.type.convert(raw, param, ctx)


def _fields_of(cls, values: dict) -> dict:
    """The entries of ``values`` that name a field of dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in values.items() if k in names}


@click.group()
def cli():
    """Hierarchy-aware multi-label pixel classification toolkit."""


@cli.command("validate-taxonomy")
@click.argument("taxonomy", type=click.Path(exists=True, dir_okay=False))
def validate_taxonomy(taxonomy):
    """Validate a .tax file and print its structure summary."""
    h = load_taxonomy(taxonomy)
    counts: dict[int, int] = {}
    for v in range(len(h)):
        counts[h.level[v]] = counts.get(h.level[v], 0) + 1
    click.echo(f"nodes: {len(h)}")
    click.echo(f"height: {h.height}")
    click.echo(f"leaves: {len(h.leaves)}")
    for level in sorted(counts):
        click.echo(f"level {level}: {counts[level]} classes")


@cli.command("propagate")
@click.option("--tax", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scores", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--labels", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def propagate_cmd(tax, scores, labels, out):
    """Write the hierarchy-coherent score field for scores + labels."""
    h = load_taxonomy(tax)
    result = propagate_field(h, read_score_field(scores), read_label_field(labels))
    write_score_field(out, result)
    click.echo(f"wrote {out}")


@cli.command("decode")
@click.option("--tax", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--scores", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def decode_cmd(tax, scores, out):
    """Best-path decode a score field into a leaf label field."""
    h = load_taxonomy(tax)
    pred = decode_field(h, read_score_field(scores))
    write_label_field(out, pred)
    click.echo(f"wrote {out}")


@cli.command("eval")
@click.option("--tax", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--gt", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "csv_path", required=True, type=click.Path(dir_okay=False))
def eval_cmd(tax, pred, gt, csv_path):
    """Per-level IoU report comparing predicted and ground-truth labels."""
    h = load_taxonomy(tax)
    scores = evaluate_prediction_levels(h, read_label_field(pred), read_label_field(gt))
    with open(csv_path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["level", "class", "iou"])
        for ls in scores:
            for cls in sorted(ls.iou):
                w.writerow([ls.level, h.nodes[cls], repr(ls.iou[cls])])
            w.writerow([ls.level, "mIoU", repr(ls.miou)])
    for ls in scores:
        click.echo(f"mIoU^{ls.level} = {ls.miou:.4f}")


@cli.command("gradcheck")
@click.option("--loss", required=True, type=click.Choice(LOSSES))
@click.option("--trials", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tolerance", default=1e-4, show_default=True)
def gradcheck_cmd(loss, trials, seed, tolerance):
    """Compare analytic gradients against central finite differences."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise click.BadParameter(
            f"must be finite and positive, got {tolerance}", param_hint="--tolerance"
        )
    worst = gradcheck_loss(loss, trials=trials, seed=seed)
    click.echo(f"{loss}: max relative error {worst:.3e} over {trials} trials")
    if not worst <= tolerance:  # a NaN error fails too
        raise TrainingDivergedError(f"gradient check failed: {worst:.3e} > {tolerance:.1e}")


@cli.command("train-toy")
@click.option("--tax", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--iterations", type=int)
@click.option("--lr", type=float)
@click.option("--loss", type=click.Choice(LOSSES))
@click.option("--use-triplet/--no-triplet", default=None)
@click.option("--triplet-count", type=int)
@click.option("--gamma", type=float)
@click.option("--margin-base", type=float)
@click.option("--beta-max", type=float)
@click.option("--beta-kind", type=click.Choice(("cosine", "constant")))
@click.option("--seed", type=int)
@click.option("--feature-dim", type=int)
@click.option("--pixels-per-class", type=int)
@click.option("--noise-sigma", type=float)
@click.option("--center-scale", type=float)
@click.pass_context
def train_toy_cmd(ctx, tax, out_dir, config_path, **flags):
    """Train the toy scorer on synthetic data and write report files."""
    config = _read_config_file(config_path)
    unknown = sorted(set(config) - set(flags))
    if unknown:
        known = ", ".join(sorted(flags))
        raise click.ClickException(
            f"unknown config key(s) {', '.join(unknown)}; expected one of {known}"
        )
    params = {p.name: p for p in ctx.command.params}
    for name, raw in config.items():
        if flags[name] is None:
            flags[name] = _config_value(ctx, params[name], raw)
    given = {name: value for name, value in flags.items() if value is not None}
    train_cfg = TrainConfig(**_fields_of(TrainConfig, given))
    syn_cfg = SyntheticConfig(taxonomy_path=tax, **_fields_of(SyntheticConfig, given))
    report = run_toy(syn_cfg, train_cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_run_json(os.path.join(out_dir, "run.json"), report)
    paths = write_report_files(run_artifacts(report), out_dir)
    for ls in report.level_miou:
        click.echo(f"mIoU^{ls.level} = {ls.miou:.4f}")
    click.echo(f"violation rate = {report.violation_rate:.4f}")
    for p in ["run.json"] + [os.path.basename(p) for p in paths]:
        click.echo(f"wrote {os.path.join(out_dir, p) if not os.path.isabs(p) else p}")


@cli.command("report")
@click.option("--run", "run_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def report_cmd(run_path, out_dir):
    """Regenerate CSV/SVG report files from a saved run.json."""
    artifacts = load_run_json(run_path)
    for p in write_report_files(artifacts, out_dir):
        click.echo(f"wrote {p}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.UsageError as e:
        e.show()
        return EXIT_VALIDATION
    except (TrainingDivergedError, FloatingPointError) as e:
        click.echo(f"numerical failure: {e}", err=True)
        return EXIT_NUMERICAL
    except (FieldFormatError, OSError) as e:
        click.echo(f"i/o error: {e}", err=True)
        return EXIT_IO
    except (TaxonomyError, ValueError, click.ClickException) as e:
        click.echo(f"validation failure: {e}", err=True)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
