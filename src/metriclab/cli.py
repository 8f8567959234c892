"""Command-line entry point.

`metriclab run <config>` executes one experiment described by a flat
key = value config file and writes all artifacts into its output
directory: the resolved config, CSV tables, and a one-line JSON summary
(also printed to stdout). `metriclab gradcheck` runs the finite-difference
suite; `metriclab export-fixture` dumps a synthetic fixture to CSV.

Exit codes: 0 success, 1 gradcheck over tolerance, 2 config or usage
error, 3 numeric/training error, 4 I/O or data-format error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from .config import DatasetConfig, ExperimentConfig, int64, parse_config, render_config
from .errors import ConfigError, DataFormatError, NumericsError, ShapeError
from .experiments import run_bn_ablation, run_boundary_experiment, run_loss_surface, run_target_ablation
from .gradcheck import run_gradcheck
from .sampling import LabeledDataset, save_dataset_csv
from .synthetic import FIXTURES
from .trainer import train_accuracy, train_run


def _check_out(cfg: ExperimentConfig, force: bool) -> Path:
    if not cfg.out:
        raise ConfigError("no output directory: set 'out = <dir>' or pass --out")
    out = Path(cfg.out)
    if out.exists() and any(out.iterdir()) and not force:
        raise FileExistsError(
            f"output directory '{out}' is not empty; pass --force to write into it"
        )
    return out


def _first_missing(path: Path):
    """The topmost directory on path that does not exist yet, or None."""
    path = path.resolve()
    return next((d for d in [*reversed(path.parents), path] if not d.exists()), None)


def _write_summary(out: Path, summary: dict) -> None:
    """Write summary.json; a nan or infinite value, which is not JSON, is a NumericsError."""
    try:
        text = json.dumps(summary, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"summary.json: {exc}") from None
    (out / "summary.json").write_text(text + "\n")


def _dispatch_train(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    state, timeline, snapshots = train_run(ds, cfg, out_dir=out)
    # an evaluating run's last snapshot is of its last epoch, the final state
    accuracy = snapshots[-1][1] if cfg.eval_every else train_accuracy(state, ds)
    return {
        "steps": state.step,
        "train_accuracy": accuracy,
        "final": timeline[-1].parts,
        "snapshots": snapshots,
    }


def _dispatch_surface(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    grids = run_loss_surface(ds, cfg)
    summary = {"fixture": cfg.dataset.fixture}
    for loss_kind, grid in grids.items():
        grid.write_csv(out / ("surface.csv" if len(grids) == 1 else f"surface_{loss_kind}.csv"))
        summary[loss_kind] = {
            f"class{c}_mean_e": grid.class_mean_error(c) for c in ds.identities
        }
    return summary


def _dispatch_boundary(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    grid, accuracy = run_boundary_experiment(ds, cfg, out_dir=out)
    grid.write_csv(out / "surface.csv")
    return {
        "boundary_ratio": grid.boundary_ratio(),
        "band_size": int(grid.boundary.sum()),
        "train_accuracy": accuracy,
    }


def _dispatch_ablation(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    # looked up per call, so a wrapper patched over either runner is the one that runs
    runner = {"ablation-target": run_target_ablation, "ablation-bn": run_bn_ablation}[cfg.kind]
    report = runner(ds, cfg)
    report.write_csv(out / "report.csv")
    cfg_dir = out / "configs"
    cfg_dir.mkdir(exist_ok=True)
    for variant, text in report.configs.items():
        (cfg_dir / f"{variant}.resolved").write_text(text)
    return {"rows": [row._asdict() for row in report.rows]}


# kind -> the runner that writes its artifacts and returns its summary
_DISPATCH = {
    "train": _dispatch_train,
    "surface": _dispatch_surface,
    "boundary": _dispatch_boundary,
    "ablation-target": _dispatch_ablation,
    "ablation-bn": _dispatch_ablation,
}


def dispatch(cfg: ExperimentConfig, force: bool = False) -> dict:
    """Run one experiment, write its artifacts, return the summary record.

    The dataset loads before the output directory is created. If the run
    then fails, the directories it created (out and any missing parents)
    are removed again, so a failed run leaves nothing behind; a directory
    that existed before is left alone.
    """
    out = _check_out(cfg, force)
    ds = cfg.dataset.load(cfg.seed)
    created = _first_missing(out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        (out / "config.resolved").write_text(render_config(cfg))
        summary = _DISPATCH[cfg.kind](cfg, ds, out)
        summary["kind"] = cfg.kind
        summary["out"] = str(out)
        summary["seed"] = cfg.seed
        _write_summary(out, summary)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return summary


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors: exit 2 with one JSON line, not usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metriclab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", help="path to a key = value config file")
    run.add_argument("--seed", type=int64, default=None, help="override the config's seed")
    run.add_argument("--out", default=None, help="override the config's output directory")
    run.add_argument("--force", action="store_true", help="write into a non-empty directory")

    grad = sub.add_parser("gradcheck", help="finite-difference check of the layers, losses and step total")
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--tolerance", type=float, default=1e-4)
    grad.add_argument("--batches", type=int, default=20)

    export = sub.add_parser("export-fixture", help="write a synthetic fixture to CSV")
    export.add_argument("name", choices=sorted(FIXTURES))
    export.add_argument("--out", required=True, help="destination CSV path")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--force", action="store_true", help="overwrite an existing file")
    return parser


def _fail(kind: str, exc: Exception, **context) -> None:
    print(json.dumps({"error": kind, "message": str(exc), **context}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "run":
            try:
                text = Path(args.config).read_text()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not a text config: {exc}") from None
            cfg = parse_config(text)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            if args.out is not None:
                cfg = replace(cfg, out=args.out)
            print(json.dumps(dispatch(cfg, force=args.force), sort_keys=True))
            return 0
        if args.command == "gradcheck":
            report = run_gradcheck(seed=args.seed, tolerance=args.tolerance, batches=args.batches)
            print(report.to_text())
            return 0 if report.all_passed else 1
        # export-fixture
        path = Path(args.out)
        if path.exists() and not args.force:
            raise FileExistsError(f"'{path}' exists; pass --force to overwrite")
        ds = DatasetConfig(fixture=args.name).load(args.seed)
        save_dataset_csv(ds, path)
        print(json.dumps({"fixture": args.name, "out": str(path), "n": ds.n, "dim": ds.dim}))
        return 0
    except (ConfigError, ShapeError) as exc:
        _fail("config", exc)
        return 2
    except NumericsError as exc:
        _fail("numeric", exc, **exc.context)
        return 3
    except (OSError, DataFormatError) as exc:
        _fail("io", exc)
        return 4
