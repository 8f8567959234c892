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

from .config import ExperimentConfig, parse_config, render_config
from .errors import ConfigError, DataFormatError, NumericsError, ShapeError
from .experiments import (
    run_bn_ablation,
    run_boundary_experiment,
    run_loss_surface,
    run_target_ablation,
)
from .gradcheck import run_gradcheck
from .sampling import LabeledDataset, save_dataset_csv
from .seeding import subseed
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


def _write_summary(out: Path, summary: dict) -> str:
    line = json.dumps(summary, sort_keys=True)
    (out / "summary.json").write_text(line + "\n")
    return line


def _dispatch_train(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    state, timeline, snapshots = train_run(
        ds,
        model_cfg=cfg.model,
        loss_cfg=cfg.loss,
        sgd_cfg=cfg.sgd,
        sampler_cfg=cfg.sampler,
        seed=cfg.seed,
        eval_every=cfg.eval_every,
        out_dir=out,
    )
    return {
        "kind": "train",
        "steps": state.step,
        "train_accuracy": train_accuracy(state, ds),
        "final": timeline[-1].parts if timeline else {},
        "snapshots": snapshots,
    }


def _dispatch_surface(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    kinds = ("center", "cpl") if cfg.surface_loss == "both" else (cfg.surface_loss,)
    summary = {"kind": "surface", "fixture": cfg.dataset.fixture}
    for loss_kind in kinds:
        grid = run_loss_surface(ds, loss_kind, cfg)
        name = "surface.csv" if len(kinds) == 1 else f"surface_{loss_kind}.csv"
        grid.write_csv(out / name)
        summary[loss_kind] = {
            f"class{c}_mean_e": grid.class_mean_error(c) for c in ds.identities
        }
    return summary


def _dispatch_boundary(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    grid, accuracy = run_boundary_experiment(ds, cfg, out_dir=out)
    grid.write_csv(out / "surface.csv")
    return {
        "kind": "boundary",
        "boundary_ratio": grid.boundary_ratio(),
        "band_size": int(grid.boundary.sum()),
        "train_accuracy": accuracy,
    }


def _dispatch_ablation(cfg: ExperimentConfig, ds: LabeledDataset, out: Path) -> dict:
    runner = run_target_ablation if cfg.kind == "ablation-target" else run_bn_ablation
    report = runner(ds, cfg)
    report.write_csv(out / "report.csv")
    cfg_dir = out / "configs"
    cfg_dir.mkdir(exist_ok=True)
    for variant, text in report.configs.items():
        (cfg_dir / f"{variant}.resolved").write_text(text)
    return {
        "kind": cfg.kind,
        "rows": [
            {"variant": r.variant, "map": r.mean_ap, "rank1": r.rank1, "config_hash": r.config_hash}
            for r in report.rows
        ],
    }


def dispatch(cfg: ExperimentConfig, force: bool = False) -> dict:
    """Run one experiment, write its artifacts, return the summary record.

    The dataset loads before the output directory is created. If the run
    then fails, a directory it created is removed again, so a failed run
    leaves nothing behind; a directory that existed before is left alone.
    """
    out = _check_out(cfg, force)
    ds = cfg.dataset.load(cfg.seed)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        (out / "config.resolved").write_text(render_config(cfg))
        if cfg.kind == "train":
            summary = _dispatch_train(cfg, ds, out)
        elif cfg.kind == "surface":
            summary = _dispatch_surface(cfg, ds, out)
        elif cfg.kind == "boundary":
            summary = _dispatch_boundary(cfg, ds, out)
        else:
            summary = _dispatch_ablation(cfg, ds, out)
        summary["out"] = str(out)
        summary["seed"] = cfg.seed
        _write_summary(out, summary)
    except BaseException:
        if created:
            shutil.rmtree(out, ignore_errors=True)
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
    run.add_argument("--seed", type=int, default=None, help="override the config's seed")
    run.add_argument("--out", default=None, help="override the config's output directory")
    run.add_argument("--force", action="store_true", help="write into a non-empty directory")

    grad = sub.add_parser("gradcheck", help="finite-difference check of every op")
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
        ds = FIXTURES[args.name](seed=subseed(args.seed, "dataset"))
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
