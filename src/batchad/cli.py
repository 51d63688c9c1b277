"""Command-line experiment runner.

Subcommands: ``gen-data`` (synthesize a meta-set to CSV), ``train`` (fit a
detector and write a checkpoint plus report), ``eval`` (score a checkpoint on
test pools), and ``ablate`` (run one of the predefined study grids). Results
are appended as JSON lines, one self-describing record per row; tables go to
stdout. Exit codes: 0 success, 2 usage or config error, 3 runtime or numeric
failure; a file that cannot be read or written is an exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_flat_config, resolve_config
from .data import (
    GAUSSIAN_PRESETS,
    GaussianMetaSpec,
    augment_with_permutations,
    generate_gaussian_metaset,
    load_tabular,
    save_metaset_csv,
)
from .errors import ConfigError, check_value
from .evaluation import collect_latents, evaluate, tv_distance_diagnostic
from .model import DetectorModel, load_checkpoint, save_checkpoint
from .training import TrainConfig, train


def _ratio_list(text: str) -> list[float]:
    """The ``--ratios`` value: comma-separated anomaly ratios."""
    try:
        return [float(r) for r in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}"
        ) from None


def _load_config(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        try:
            values = parse_flat_config(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc}") from None
    overrides = {key: getattr(args, key, None) for key in ("ratios", "runs")}
    overrides["seed" if args.cmd == "train" else "eval_seed"] = getattr(args, "seed", None)
    return resolve_config(values, overrides)


def _preset(name: str) -> GaussianMetaSpec:
    if name not in GAUSSIAN_PRESETS:
        known = ", ".join(sorted(GAUSSIAN_PRESETS))
        raise ConfigError(f"unknown data preset {name!r} (known: {known})")
    return GAUSSIAN_PRESETS[name]


def _sidecar_train_bins(path: Path) -> int:
    """How many training bins the JSON sidecar of a CSV file lists."""
    try:
        bins = json.loads(path.read_text())["bins"]["train"]
        if not isinstance(bins, list):
            raise TypeError(f"bins.train is {type(bins).__name__}, not a list")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"sidecar {path} lists no training bins ({type(exc).__name__}: {exc})"
        ) from None
    return len(bins)


def build_metasets(cfg: ExperimentConfig):
    """Materialize (train, test) meta-sets from the configured source."""
    if cfg.data_csv:
        source = cfg.tabular_source()
        sidecar = Path(cfg.data_csv).with_suffix(".json")
        if source.train_bins is None and sidecar.exists():
            source = replace(source, train_bins=_sidecar_train_bins(sidecar))
        train_meta, test_meta = load_tabular(source)
    else:
        # the configured preset with every synthetic override the config sets
        overrides = {
            f.name: getattr(cfg, f.name)
            for f in fields(GaussianMetaSpec)
            if getattr(cfg, f.name) is not None
        }
        spec = replace(_preset(cfg.data_preset), **overrides)
        train_meta, test_meta = generate_gaussian_metaset(spec, cfg.data_seed)
    train_meta = augment_with_permutations(train_meta, cfg.permutations, cfg.data_seed + 1)
    return train_meta, test_meta


def _evaluate(model, test_meta, cfg: ExperimentConfig):
    """:func:`evaluate` with the config's evaluation settings."""
    return evaluate(
        model,
        test_meta,
        ratios=cfg.ratios,
        runs=cfg.runs,
        seed=cfg.eval_seed,
        batch_size=cfg.eval_batch_size,
        batches_per_run=cfg.eval_batches,
    )


def _check_side(meta, side: str, use: str) -> None:
    """Reject a meta-set side that ``use`` cannot draw contaminated batches from."""
    if meta is None:
        raise ConfigError(f"the configured data source has no {side} side")
    if not meta.can_contaminate:
        raise ConfigError(f"the {side} side needs a second pool or an anomaly pool for {use}")


def _check_training_side(meta, cfg) -> None:
    """Reject a training side that cannot contaminate the tasks ``cfg`` trains on."""
    if cfg.pi < 1.0:
        _check_side(meta, "training", f"contaminated training at pi = {cfg.pi}")


def _output_file(path) -> Path:
    """``path`` as a file to write: its directory is made, a directory there refused."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    return path


def _append_record(path, record: dict) -> None:
    with open(_output_file(path), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _record_skeleton(kind: str, cfg: ExperimentConfig) -> dict:
    return {
        "record": kind,
        "version": __version__,
        "config": asdict(cfg),
        "config_hash": cfg.hash(),
    }


def _print_table(headers: list[str], rows: list[list]) -> None:
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    for i, row in enumerate(cells):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  ".join("-" * w for w in widths))


def _fmt_auc(mean: float, std: float) -> str:
    return f"{100 * mean:.1f}+-{100 * std:.1f}"


# ----- subcommands -------------------------------------------------------------

def cmd_gen_data(args) -> int:
    check_value("--seed", args.seed, int, 0)
    train_meta, test_meta = generate_gaussian_metaset(_preset(args.preset), args.seed)
    csv_path, json_path = save_metaset_csv(train_meta, test_meta, args.out, seed=args.seed)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_meta, _ = build_metasets(cfg)
    _check_training_side(train_meta, cfg)
    out = _output_file(args.out)
    started = time.perf_counter()
    model, report = train(train_meta, cfg)
    save_checkpoint(model, out)
    record = _record_skeleton("train", cfg)
    record.update(
        {
            "seed": cfg.seed,
            "final_loss": report.final_loss,
            "loss_curve": report.loss_curve,
            "diverged_iterations": report.diverged_iterations,
            "wall_clock_s": time.perf_counter() - started,
            "checkpoint": str(out),
        }
    )
    report_path = out.with_suffix(".report.json")
    with open(report_path, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"trained {cfg.iterations} iterations, final loss {report.final_loss:.6f}")
    print(f"wrote {out}")
    print(f"wrote {report_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    if args.out:
        _output_file(args.out)
    model = load_checkpoint(args.model)
    train_meta, test_meta = build_metasets(cfg)
    _check_side(test_meta, "test", "evaluation")
    if cfg.pi < 1.0:  # the shift diagnostic samples the training mixture at 1 - pi
        _check_side(train_meta, "training", f"the shift diagnostic at pi = {cfg.pi}")
    if model.arch.input_dim != test_meta.dim:
        raise ConfigError(f"checkpoint {args.model} expects {model.arch.input_dim} features, "
                          f"the configured data has {test_meta.dim}")
    started = time.perf_counter()
    report = _evaluate(model, test_meta, cfg)
    # shift diagnostic: train-mixture vs unseen-test gap, in latent space and raw
    kw = dict(n_batches=20, batch_size=cfg.eval_batch_size, seed=cfg.eval_seed)
    raw_train, lat_train = collect_latents(model, train_meta, 1.0 - cfg.pi, **kw)
    raw_test, lat_test = collect_latents(model, test_meta, cfg.ratios[0], **kw)
    tv_latent = tv_distance_diagnostic(lat_train, lat_test)
    tv_raw = tv_distance_diagnostic(raw_train, raw_test)

    record = _record_skeleton("eval", cfg)
    record.update(
        {
            "seed": cfg.eval_seed,
            "model": str(args.model),
            "auroc": {str(r): list(ms) for r, ms in report.per_ratio.items()},
            "auroc_mean": report.auroc,
            "cells": {str(r): c for r, c in report.cells.items()},
            "diagnostics": {"tv_latent": tv_latent, "tv_raw": tv_raw},
            "n_scored": report.n_scored,
            "wall_clock_s": time.perf_counter() - started,
        }
    )
    if args.out:
        _append_record(args.out, record)
    _print_table(
        ["anomaly_ratio", "auroc"],
        [[f"{r:g}", _fmt_auc(m, s)] for r, (m, s) in report.per_ratio.items()],
    )
    print(f"shift diagnostic: tv latent {tv_latent:.3f} vs raw {tv_raw:.3f}")
    if args.out:
        print(f"appended record to {args.out}")
    return 0


ABLATE_SUITES = ("bn-mode", "batch-size", "num-classes", "pi", "loss-variant", "bn-position")


def _ablate_plan(suite: str, cfg: ExperimentConfig) -> list:
    """Per model to train, a group (training config, train meta-set, test
    meta-set, cells); a cell is (description, evaluation config): ``cfg`` at
    ratio 0.1 with the cell's settings. Cells on the same meta-sets share a
    group when their training settings, the :class:`TrainConfig` fields of
    their configs, are equal, a batch cell counting as frozen (a frozen model
    trains as a batch one, then freezes). Each group trains its frozen or
    identity config; a cell in another mode is scored with the trained
    parameters. Building the plan validates every config of the suite."""
    metas = []  # per cell (train, test) meta-sets, in the suite that draws its own
    if suite == "bn-mode":
        cells = [({"bn_mode": m}, {"bn_mode": m}) for m in ("batch", "frozen", "identity")]
    elif suite == "batch-size":
        # tiny batches hold exactly one anomaly, larger ones a 10% admixture
        ratios = {b: 1.0 / b if b < 20 else 0.1 for b in (3, 6, 11, 16, 20, 40, 60)}
        cells = [
            ({"batch_size": b, "anomaly_ratio": r}, {"eval_batch_size": b, "ratios": (r,)})
            for b, r in ratios.items()
        ]
    elif suite == "pi":
        cells = [({"pi": pi}, {"pi": pi}) for pi in (0.6, 0.8, 0.9, 0.95, 0.99)]
    elif suite == "loss-variant":
        # the plain one-class objective is trained on uncontaminated tasks
        variants = ({"loss": "meta_oe", "pi": cfg.pi}, {"loss": "one_class", "pi": 1.0})
        cells = [(v, v) for v in variants]
    elif suite == "bn-position":  # each position alone, then all of them
        n = cfg.n_bn_positions()
        masks = {p: tuple(int(i == p) for i in range(n)) for p in range(n)} | {"all": (1,) * n}
        cells = [({"bn_position": p, "bn_mask": m}, {"bn_mask": m}) for p, m in masks.items()]
    elif suite == "num-classes":
        # each cell draws its own synthetic pools, which a CSV or permuted copies cannot follow
        for key in ("data_csv", "permutations"):
            if getattr(cfg, key):
                raise ConfigError(f"the num-classes suite draws its own pools; unset {key}")
        cells = []
        for k in (1, 2, 4, 8):
            train_meta, test_meta = build_metasets(replace(cfg, train_distributions=max(k, 2)))
            if k == 1:  # a single pool has an empty complement; train uncontaminated
                train_meta = type(train_meta)(pools=train_meta.pools[:1], ids=train_meta.ids[:1])
            pi = 1.0 if k == 1 else cfg.pi
            cells.append(({"train_classes": k, "pi": pi}, {"pi": pi}))
            metas.append((train_meta, test_meta))
    groups = {}
    metas = metas or [build_metasets(cfg)] * len(cells)
    for (cell, settings), (train_meta, test_meta) in zip(cells, metas):
        cell_cfg = replace(cfg, **{"ratios": (0.1,), **settings})
        trained = TrainConfig(**{f.name: getattr(cell_cfg, f.name) for f in fields(TrainConfig)})
        trained = replace(trained, bn_mode="frozen") if trained.bn_mode == "batch" else trained
        key = (trained, id(train_meta), id(test_meta))
        groups.setdefault(key, [trained, train_meta, test_meta, []])[3].append((cell, cell_cfg))
    return list(groups.values())


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    if args.out:
        _output_file(args.out)
    plan = _ablate_plan(args.suite, cfg)
    for train_cfg, train_meta, test_meta, _ in plan:
        _check_training_side(train_meta, train_cfg)
        _check_side(test_meta, "test", "evaluation")
    rows = []
    started = time.perf_counter()
    for train_cfg, train_meta, test_meta, cells in plan:
        trained, _ = train(train_meta, train_cfg)
        for cell, eval_cfg in cells:
            model = trained
            if eval_cfg.bn_mode != train_cfg.bn_mode:  # a batch cell of a frozen training
                model = DetectorModel(replace(trained.arch, bn_mode=eval_cfg.bn_mode))
                model.theta[...] = trained.theta
            report = _evaluate(model, test_meta, eval_cfg)
            mean, std = report.per_ratio[eval_cfg.ratios[0]]
            rows.append([json.dumps(cell, sort_keys=True), _fmt_auc(mean, std)])
            record = _record_skeleton("ablate-cell", cfg)
            record.update(
                {
                    "suite": args.suite,
                    "cell": cell,
                    "seed": cfg.seed,
                    "auroc_mean": mean,
                    "auroc_std": std,
                    # a group's first cell also carries the group's training
                    "wall_clock_s": time.perf_counter() - started,
                }
            )
            if args.out:
                _append_record(args.out, record)
            started = time.perf_counter()
    print(f"suite: {args.suite}")
    _print_table(["cell", "auroc"], rows)
    if args.out:
        print(f"appended {len(rows)} records to {args.out}")
    return 0


# ----- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchad",
        description="Zero-shot batch-level anomaly detection experiments",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic meta-set as CSV + sidecar")
    p.add_argument("--preset", default="gaussian8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="meta-train a detector")
    p.add_argument("--config", help="flat TOML config file")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on unseen pools")
    p.add_argument("--config", help="flat TOML config file")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, help="override the evaluation seed")
    p.add_argument(
        "--ratios", type=_ratio_list, help="comma-separated anomaly ratios, e.g. 0.01,0.1"
    )
    p.add_argument("--runs", type=int, help="independent test runs per cell")
    p.add_argument("--out", help="JSON-lines results file (appended)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run a predefined study grid")
    p.add_argument("--suite", required=True, choices=ABLATE_SUITES)
    p.add_argument("--config", help="flat TOML config file")
    p.add_argument("--seed", type=int, help="override the evaluation seed")
    p.add_argument("--runs", type=int, help="independent test runs per cell")
    p.add_argument("--out", help="JSON-lines results file (appended)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
