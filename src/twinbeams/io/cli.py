"""Command-line front end: ``run``, ``validate``, ``sweep`` and ``heatmap``.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
failure (a pipeline stage error or a residual past its threshold),
4 input/output failure.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import click
import yaml

from .. import __version__
from .config import (
    ConfigError,
    _ConfigLoader,
    config_from_dict,
    config_to_dict,
    parse_config,
    serialize_config,
)
from .exports import export_matrix_heatmap, load_squeezing_matrix, write_csv
from .pipeline import ENV_OUTPUT_DIR, PipelineError, _run, resolve_output_dir, run_pipeline

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load(source):
    try:
        return parse_config(source)
    except ConfigError as err:
        _fail(EXIT_VALIDATION, str(err))


_out_option = click.option(
    "--out",
    "out_dir",
    type=click.Path(file_okay=False),
    default=None,
    help=f"Output directory (default: config value, then ${ENV_OUTPUT_DIR}, then CWD).",
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="twinbeams")
def main():
    """Twin-beam squeezing spectra of pulsed type-I downconversion."""


@main.command()
@click.argument("config_source", metavar="CONFIG")
@_out_option
def run(config_source, out_dir):
    """Run the pipeline described by CONFIG (a path or a bundled name)."""
    cfg = _load(config_source)
    try:
        report = run_pipeline(cfg, out_dir=out_dir)
    except PipelineError as err:
        _fail(EXIT_NUMERICAL, str(err))
    except OSError as err:
        _fail(EXIT_IO, str(err))
    for line in report.summary_lines():
        click.echo(line)
    out = resolve_output_dir(cfg, out_dir)
    click.echo(f"report: {out / 'report.json'}")
    if report.threshold_failures:
        _fail(
            EXIT_NUMERICAL,
            "residual thresholds violated: " + ", ".join(report.threshold_failures),
        )


@main.command()
@click.argument("config_source", metavar="CONFIG")
def validate(config_source):
    """Parse CONFIG and echo its fully resolved form."""
    cfg = _load(config_source)
    click.echo(serialize_config(cfg), nl=False)


def _set_path(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config path {dotted!r}")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"unknown config path {dotted!r}")
    node[keys[-1]] = value


def _sweep_row(value: str, report) -> dict:
    """A point's report.json as one sweep_summary.csv row; None is a blank cell."""
    failures = ";".join(report.threshold_failures)
    return {"value": value, **report._flat(), "notes": len(report.notes), "failures": failures}


@main.command()
@click.argument("config_source", metavar="CONFIG")
@click.option("--param", required=True, help="Dotted config path, e.g. pump.gain.")
@click.option(
    "--values", required=True, help="Comma-separated values substituted into --param."
)
@_out_option
def sweep(config_source, param, values, out_dir):
    """Run CONFIG once per value of --param and collect a summary table.

    Each point writes its artifacts to the subdirectory ``<param>=<value>``
    of the output directory, and its report.json as a row of ``sweep_summary.csv``.
    A ``pairing_tol`` or ``fit_pairs`` sweep solves once: each later point
    analyses the first completed point's two npz files, with the same bytes.
    """
    base_cfg = _load(config_source)
    base = config_to_dict(base_cfg)
    raw_values = [v.strip() for v in values.split(",") if v.strip()]
    if not raw_values:
        _fail(EXIT_VALIDATION, "--values is empty")
    root = resolve_output_dir(base_cfg, out_dir)

    # Every value is validated before the first point runs.
    cfgs = []
    for raw in raw_values:
        tree = copy.deepcopy(base)
        try:
            _set_path(tree, param, yaml.load(raw, Loader=_ConfigLoader))
            cfgs.append(config_from_dict(tree))
        except ConfigError as err:
            _fail(EXIT_VALIDATION, str(err))
        except yaml.YAMLError as err:
            _fail(EXIT_VALIDATION, f"cannot parse value {raw!r}: {err}")

    rows, stored = [], None
    for raw, cfg in zip(raw_values, cfgs):
        sub = root / f"{param}={raw}".replace("/", "_")
        try:
            report = run_pipeline(cfg, out_dir=sub) if stored is None else _run(cfg, sub, stored)
        except PipelineError as err:
            rows.append({"value": raw, "failures": str(err), "failed_stage": err.stage})
            click.echo(f"{param}={raw}: failed: {err}", err=True)
            continue
        except OSError as err:
            _fail(EXIT_IO, str(err))
        if stored is None and param in ("pairing_tol", "fit_pairs"):
            stored = sub
        row = _sweep_row(raw, report)
        rows.append(row)
        shown = [f"r1={row['r1']:.6g}"] if "r1" in row else []
        shown += [f"pairs={row['pairs_accepted']}"] if "pairs_accepted" in row else []
        shown += [f"[{row['failures']}]"] if row["failures"] else []
        click.echo(" ".join([f"{param}={raw}:", *shown]))

    header = list(dict.fromkeys(key for row in rows for key in row))
    cells = ([row.get(key) for key in header] for row in rows)
    try:
        root.mkdir(parents=True, exist_ok=True)
        summary_path = write_csv(root / "sweep_summary.csv", header, cells)
    except OSError as err:
        _fail(EXIT_IO, str(err))
    click.echo(f"sweep summary: {summary_path}")
    if any(row["failures"] for row in rows):
        sys.exit(EXIT_NUMERICAL)


@main.command()
@click.argument("run_dir", metavar="DIR", type=click.Path(file_okay=False))
def heatmap(run_dir):
    """Write DIR/squeezing_matrix.csv from a finished run's squeezing_matrix.npz.

    One row omega,omega_prime,re,im,abs per element of Gamma, every float
    ``%.17g``, so the text round-trips to the stored matrix exactly.
    """
    source = Path(run_dir) / "squeezing_matrix.npz"
    if not source.is_file():
        _fail(EXIT_VALIDATION, f"no squeezing matrix at {source}")
    try:
        omega, gamma = load_squeezing_matrix(source)
        path = export_matrix_heatmap(gamma, omega, omega, source.with_suffix(".csv"))
    except ValueError as err:  # names the file
        _fail(EXIT_VALIDATION, f"not a squeezing matrix: {err}")
    except OSError as err:
        _fail(EXIT_IO, str(err))
    click.echo(f"heatmap: {path}")


if __name__ == "__main__":
    main()
