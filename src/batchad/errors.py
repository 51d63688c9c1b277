"""Exception types shared across the package, and the one settings check."""

from __future__ import annotations

import math
import os
from dataclasses import fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or an impossible combination."""


class ConfigTypeError(ConfigError, TypeError):
    """A setting of the wrong type."""


class BatchTooSmallError(ValueError):
    """Batch statistics requested on a batch with fewer than two rows."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given labels (e.g. AUROC with one class)."""


class DivergenceError(RuntimeError):
    """Training aborted after repeated non-finite losses."""


_NAMES = {bool: "a bool", int: "an int", float: "a float", str: "a string",
          os.PathLike: "a path", type(None): "None"}


def _fits(value, hint) -> bool:
    if type(value) is hint:
        return True
    args = get_args(hint)
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if args:  # X | None
        return any(_fits(value, arm) for arm in args)
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    if isinstance(value, (int, np.integer)):
        return hint in (int, float)
    return isinstance(value, hint)


def _name(hint) -> str:
    if get_origin(hint) is tuple:
        return f"a list of {get_args(hint)[0].__name__}s"
    return " or ".join(map(_name, get_args(hint))) or _NAMES[hint]


def check_value(name: str, value, hint, least: int | None = None):
    """``value`` as the setting ``name`` of type ``hint`` keeps it: a list as
    a tuple, a numpy integer as an int, anything else as given.

    A bool fits only a bool, an integer also a float, a list or tuple item
    by item. A value that does not fit raises :class:`ConfigTypeError`; a
    non-finite float, or a number (list entry) below ``least``,
    :class:`ConfigError`; None passes any bound. Each message starts with
    ``name``.
    """
    if not _fits(value, hint):
        raise ConfigTypeError(f"{name} must be {_name(hint)}, got {value!r}")
    seq = isinstance(value, (list, tuple))
    items = [int(v) if isinstance(v, np.integer) else v for v in (value if seq else [value])]
    if any(isinstance(v, float) and not math.isfinite(v) for v in items):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if least is not None and value is not None and any(v < least for v in items):
        bound = f"at least {least}" if least else "nonnegative"
        raise ConfigError(f"{name} must be {bound}, got {value}")
    return tuple(items) if seq else items[0]


_type_hints = cache(get_type_hints)  # resolved once per settings class


def check_fields(settings, **least: int) -> None:
    """Pass every field of the frozen dataclass ``settings`` through
    :func:`check_value`, in field order, with its lower bound in ``least``
    if any, and keep what it returns."""
    hints = _type_hints(type(settings))
    for f in fields(settings):
        value = check_value(f.name, getattr(settings, f.name), hints[f.name], least.get(f.name))
        object.__setattr__(settings, f.name, value)
