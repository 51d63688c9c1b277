"""Experiment configuration: flat TOML files, validation, hashing.

A config file is flat TOML: one ``key = value`` pair per line, ``#``
comments, quoted strings, integers, floats, booleans and lists. Unknown keys,
values of the wrong type and non-finite floats are rejected by name, so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import asdict, dataclass, fields

from .data import TabularSource
from .errors import ConfigError
from .evaluation import DEFAULT_RATIOS, check_ratios
from .training import TrainConfig


def parse_flat_config(text: str) -> dict:
    """Parse a flat TOML config file into a dict of Python values."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"config is not valid TOML: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Every knob of a full experiment, resolved and validated: the training
    settings of :class:`TrainConfig` plus the data source and evaluation."""

    # data source: synthetic preset/spec or a CSV file
    data_preset: str = "gaussian8"
    data_csv: str | None = None
    data_seed: int = 0
    dim: int | None = None
    train_distributions: int | None = None
    test_distributions: int | None = None
    samples_per_distribution: int | None = None
    mean_scale: float | None = None
    within_scale: float | None = None
    label_col: str = "label"
    timestamp_col: str = "bin"
    train_bins: int | None = None
    delimiter: str = ","
    permutations: int = 0
    # evaluation
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    runs: int = 5
    eval_seed: int = 0
    eval_batch_size: int = 60
    eval_batches: int = 25

    def __post_init__(self):
        super().__post_init__(runs=1, eval_batches=1, data_seed=0, eval_seed=0, permutations=0)
        check_ratios(self.ratios, self.eval_batch_size)
        self.tabular_source()  # the source's own check, without reading it

    def tabular_source(self) -> TabularSource:
        """The ``data_csv`` source this config reads."""
        return TabularSource(
            self.data_csv or "", self.label_col, self.timestamp_col, self.train_bins, self.delimiter
        )

    def hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def resolve_config(values: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file values and CLI overrides into a validated config.

    Raises :class:`ConfigError` naming the first unknown key, or the first
    field whose value :class:`ExperimentConfig` rejects.
    """
    merged = {**values, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    unknown = sorted(set(merged) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return ExperimentConfig(**merged)
