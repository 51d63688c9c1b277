"""Experiment configuration: flat TOML files, validation, hashing.

A config file is flat TOML: one ``key = value`` pair per line, ``#``
comments, quoted strings, integers, floats, booleans and lists. Unknown keys,
values of the wrong type and non-finite floats are rejected by name, so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
import math
import tomllib
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

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
        super().__post_init__()
        check_ratios(self.ratios, self.eval_batch_size)
        for name in ("runs", "eval_batches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("data_seed", "eval_seed", "permutations"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got {self.delimiter!r}")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def hash(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_FIELD_HINTS = get_type_hints(ExperimentConfig)


def _fits(value, hint) -> bool:
    """Whether ``value`` is of the annotated type: a bool only for a bool,
    an int also for a float, a list for a tuple of its item type."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(_fits(value, arm) for arm in args)
    if isinstance(value, bool) != (hint is bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def resolve_config(values: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file values and CLI overrides into a validated config.

    Raises :class:`ConfigError` naming the first unknown key, or the first
    key whose value is of the wrong type or a non-finite float.
    """
    merged = dict(values)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    unknown = sorted(set(merged) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for key, val in merged.items():
        if not _fits(val, _FIELD_HINTS[key]):
            raise ConfigError(f"config key {key!r} must be {_FIELD_TYPES[key]}, got {val!r}")
        items = val if isinstance(val, list) else [val]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"config key {key!r} must be finite, got {val!r}")
    return ExperimentConfig(
        **{key: tuple(val) if isinstance(val, list) else val for key, val in merged.items()}
    )
