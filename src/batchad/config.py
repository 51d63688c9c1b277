"""Experiment configuration: flat key-value files, validation, hashing.

The config format is a flat TOML-style text file: one ``key = value`` pair per
line, ``#`` comments, double-quoted strings, integers, floats, booleans
(``true``/``false``), and flat bracketed lists. Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from .errors import ConfigError
from .evaluation import check_ratios
from .training import TrainConfig

_BARE_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def _parse_scalar(token: str, lineno: int):
    token = token.strip()
    if not token:
        raise ConfigError(f"line {lineno}: empty value")
    if token.startswith('"'):
        if not (token.endswith('"') and len(token) >= 2):
            raise ConfigError(f"line {lineno}: unterminated string")
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    if set(token) <= _BARE_CHARS:
        return token
    raise ConfigError(f"line {lineno}: cannot parse value {token!r}")


def _strip_comment(text: str, lineno: int) -> str:
    out = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    if in_string:
        raise ConfigError(f"line {lineno}: unterminated string")
    return "".join(out).strip()


def parse_flat_config(text: str) -> dict:
    """Parse a flat key-value config file into a dict of Python values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw, lineno)
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if not key or set(key) - _BARE_CHARS:
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if rhs.startswith("["):
            if not rhs.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated list")
            inner = rhs[1:-1].strip()
            values[key] = (
                [] if not inner else [_parse_scalar(t, lineno) for t in inner.split(",")]
            )
        else:
            values[key] = _parse_scalar(rhs, lineno)
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of a full experiment, resolved and validated."""

    # training
    seed: int = 0
    iterations: int = 800
    tasks_per_iter: int = 8
    batch_size: int = 60
    pi: float = 0.8
    learning_rate: float = 1e-3
    head: str = "dsvdd"
    hidden: tuple[int, ...] = (64, 64, 64)
    latent_dim: int = 32
    input_bn: bool = False
    bn_mode: str = "batch"
    bn_mask: tuple[int, ...] | None = None
    loss: str = "meta_oe"
    center_frozen: bool = False
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
    ratios: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2)
    runs: int = 5
    eval_seed: int = 0
    eval_batch_size: int = 60
    eval_batches: int = 25

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    def hash(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


_LIST_KEYS = {"hidden", "bn_mask", "ratios"}
_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)}


def resolve_config(values: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file values and CLI overrides into a validated config.

    Raises :class:`ConfigError` naming the first unknown key encountered.
    """
    merged = dict(values)
    for key, val in (overrides or {}).items():
        if val is not None:
            merged[key] = val
    unknown = sorted(set(merged) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for key in list(merged):
        if key in _LIST_KEYS and merged[key] is not None:
            if not isinstance(merged[key], (list, tuple)):
                raise ConfigError(f"config key {key!r} must be a list")
            merged[key] = tuple(merged[key])
    try:
        cfg = ExperimentConfig(**merged)
        _validate(cfg)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def train_config_from(cfg: ExperimentConfig, **replacements) -> TrainConfig:
    """The experiment's training settings, with optional replacements."""
    values = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig) if f.name in _KNOWN_KEYS}
    return TrainConfig(**{**values, **replacements})


def _validate(cfg: ExperimentConfig) -> None:
    train_config_from(cfg)
    check_ratios(cfg.ratios, cfg.eval_batch_size)
    for name in ("runs", "eval_batches"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if cfg.permutations < 0:
        raise ConfigError(f"permutations must be nonnegative, got {cfg.permutations}")
