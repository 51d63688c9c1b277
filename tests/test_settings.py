"""The one type check every settings dataclass runs first: each field against
its type hint, rejected by name."""

import dataclasses
import math
import os
import re
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from batchad.config import ExperimentConfig
from batchad.data import GaussianMetaSpec, TabularSource, load_tabular
from batchad.errors import ConfigError, ConfigTypeError, check_value
from batchad.model import Architecture
from batchad.training import TrainConfig

# a valid instance of every settings class; a new class goes here, a new
# field needs nothing
SETTINGS = (
    Architecture(3),
    TrainConfig(),
    ExperimentConfig(),
    GaussianMetaSpec(),
    TabularSource("data.csv"),
)

# per type: values of another type (a string for a number, a bool for an int
# or float, an int for a bool or a string, bytes for a path)
WRONG = {int: ["1", True], float: ["0.5", True], bool: [1], str: [1], os.PathLike: [b"d.csv"]}


def wrong_values(hint) -> list:
    """Values that ``hint`` rejects: for a list, a string and lists holding
    a wrong item; for a union, each arm's but None's."""
    if get_origin(hint) is tuple:
        return ["x"] + [[v] for v in WRONG[get_args(hint)[0]]]
    if get_args(hint):
        return [v for arm in get_args(hint) if arm is not type(None) for v in wrong_values(arm)]
    return WRONG[hint]


def wrong_cases():
    for base in SETTINGS:
        hints = get_type_hints(type(base))
        for f in dataclasses.fields(base):
            for value in wrong_values(hints[f.name]):
                case_id = f"{type(base).__name__}.{f.name}={value!r}"
                yield pytest.param(base, f.name, value, id=case_id)


@pytest.mark.parametrize("base, name, value", wrong_cases())
def test_wrong_typed_field_is_config_error_naming_it(base, name, value):
    with pytest.raises(ConfigTypeError, match=f"^{name} must be ") as info:
        dataclasses.replace(base, **{name: value})
    assert isinstance(info.value, ConfigError) and isinstance(info.value, TypeError)


PROBES = [
    (TrainConfig, {"iterations": 2.5}, "iterations must be an int, got 2.5"),
    (TrainConfig, {"batch_size": 6.0}, "batch_size must be an int, got 6.0"),
    (TrainConfig, {"tasks_per_iter": True}, "tasks_per_iter must be an int, got True"),
    (TrainConfig, {"pi": "0.8"}, "pi must be a float, got '0.8'"),
    (TrainConfig, {"seed": 1.5}, "seed must be an int, got 1.5"),
    (TrainConfig, {"learning_rate": math.nan}, "learning_rate must be finite, got nan"),
    (TrainConfig, {"bn_mask": (True, False, True, True)},
     "bn_mask must be a list of ints or None, got (True, False, True, True)"),
    (ExperimentConfig, {"runs": 2.5}, "runs must be an int, got 2.5"),
    (ExperimentConfig, {"eval_batches": 2.5}, "eval_batches must be an int, got 2.5"),
    (ExperimentConfig, {"ratios": (0.1, math.inf)}, "ratios must be finite, got (0.1, inf)"),
    (GaussianMetaSpec, {"dim": 2.5}, "dim must be an int, got 2.5"),
    (GaussianMetaSpec, {"mean_scale": math.inf}, "mean_scale must be finite, got inf"),
    (GaussianMetaSpec, {"dim": 0}, "dim must be at least 1, got 0"),
    (GaussianMetaSpec, {"train_distributions": 1},
     "train_distributions must be at least 2, got 1"),
    (TabularSource, {"path": "d.csv", "train_bins": True},
     "train_bins must be an int or None, got True"),
    (TabularSource, {"path": "d.csv", "train_bins": 8.0},
     "train_bins must be an int or None, got 8.0"),
    (TabularSource, {"path": 1}, "path must be a string or a path, got 1"),
    (TabularSource, {"path": "d.csv", "delimiter": ";;"},
     "delimiter must be one character, got ';;'"),
    (TabularSource, {"path": "d.csv", "delimiter": "\n"},
     "delimiter must not be a line break, got '\\n'"),
    (TabularSource, {"path": "d.csv", "delimiter": "\r"},
     "delimiter must not be a line break, got '\\r'"),
    (TabularSource, {"path": "d.csv", "label_col": "bin"},
     "label_col and timestamp_col must differ, both are 'bin'"),
    (TabularSource, {"path": "d.csv", "timestamp_col": "label"},
     "label_col and timestamp_col must differ, both are 'label'"),
]


@pytest.mark.parametrize(
    "cls, kwargs, message", PROBES, ids=[f"{c.__name__}-{k}" for c, k, _m in PROBES]
)
def test_probe_is_config_error_naming_its_field(cls, kwargs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cls(**kwargs)


def test_none_passes_a_lower_bound():
    assert check_value("train_bins", None, int | None, 1) is None


def test_two_character_delimiter_fails_before_the_file_is_read(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("bin;label;f0\n0;0;1\n1;0;2\n")
    with pytest.raises(ConfigError, match="^delimiter must be one character, got ';;'$"):
        load_tabular(TabularSource(path, delimiter=";;"))


def test_path_object_is_kept_and_read(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("bin,label,f0\n" + "".join(f"{i % 2},0,{i}\n" for i in range(8)))
    source = TabularSource(path, train_bins=1)
    assert source.path is path
    train, test = load_tabular(source)
    assert train.k == 1 and test.k == 1


def test_lists_become_tuples_and_configs_stay_hashable():
    cfg = TrainConfig(hidden=[64, 64], bn_mask=[1, 0, 1])
    assert cfg == TrainConfig(hidden=(64, 64), bn_mask=(1, 0, 1))
    assert hash(cfg) == hash(TrainConfig(hidden=(64, 64), bn_mask=(1, 0, 1)))
    assert isinstance(cfg.hidden, tuple) and isinstance(cfg.bn_mask, tuple)


def test_list_and_tuple_experiment_configs_share_a_hash():
    lists = ExperimentConfig(hidden=[8, 8], ratios=[0.05, 0.1], bn_mask=[1, 0, 1])
    tuples = ExperimentConfig(hidden=(8, 8), ratios=(0.05, 0.1), bn_mask=(1, 0, 1))
    assert lists == tuples and lists.hash() == tuples.hash()


def test_int_for_a_float_is_kept_as_given():
    # so config_hash of a file that writes pi = 1 does not move
    cfg = ExperimentConfig(pi=1, mean_scale=9)
    assert type(cfg.pi) is int and type(cfg.mean_scale) is int
    assert type(Architecture(3, inverse_eps=1).inverse_eps) is float  # the model's own rule


def test_numpy_integer_is_kept_as_an_int():
    cfg = TrainConfig(iterations=np.int64(5), hidden=[np.int64(4)])
    assert type(cfg.iterations) is int and type(cfg.hidden[0]) is int
    assert cfg == TrainConfig(iterations=5, hidden=(4,))
