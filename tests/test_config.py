"""Experiment config validation and the training settings it carries."""

from dataclasses import replace

import pytest

from batchad.config import ExperimentConfig, parse_flat_config, resolve_config
from batchad.errors import ConfigError
from batchad.training import TrainConfig


@pytest.mark.parametrize(
    "values, named",
    [
        ({"head": "x"}, "'x'"),
        ({"pi": 0.4}, "0.4"),
        ({"iterations": 0}, "got 0"),
        ({"ratios": [0.6]}, "0.6"),
        ({"eval_batch_size": 10, "ratios": [0.05]}, "0.05"),
        ({"iterations": "abc"}, "'iterations' must be int, got 'abc'"),
        ({"seed": "x"}, "'seed' must be int, got 'x'"),
        ({"runs": 2.5}, "'runs' must be int, got 2.5"),
        ({"ratios": []}, "ratios must list at least one"),
        ({"input_bn": 1}, "'input_bn' must be bool, got 1"),
        ({"pi": True}, "'pi' must be float, got True"),
        ({"hidden": [8, "a"]}, "'hidden' must be tuple"),
        ({"data_preset": {"dim": 3}}, "'data_preset' must be str"),
        ({"learning_rate": float("nan")}, "'learning_rate' must be finite, got nan"),
        ({"mean_scale": float("inf")}, "'mean_scale' must be finite, got inf"),
        ({"within_scale": float("nan")}, "'within_scale' must be finite, got nan"),
        ({"ratios": [0.1, float("-inf")]}, "'ratios' must be finite"),
        ({"delimiter": ""}, "delimiter must be one character, got ''"),
    ],
    ids=[
        "head", "pi", "iterations", "ratio", "ratio-rounds-to-zero",
        "iterations-type", "seed-type", "runs-type", "ratios-empty",
        "int-for-bool", "bool-for-float", "list-item", "inline-table",
        "nan-learning-rate", "inf-mean-scale", "nan-within-scale", "inf-ratio",
        "empty-delimiter",
    ],
)
def test_bad_value_is_config_error_naming_it(values, named, tmp_path):
    # the data file does not exist: validation fails before any data is read
    with pytest.raises(ConfigError, match=named):
        resolve_config({**values, "data_csv": str(tmp_path / "absent.csv")})


def test_train_config_carries_every_shared_field():
    # the resolved config is itself the training config train() takes
    cfg = resolve_config({"head": "bce", "hidden": [4, 4], "bn_mask": [1, 0], "seed": 9})
    assert isinstance(cfg, TrainConfig)
    assert (cfg.head, cfg.hidden, cfg.bn_mask, cfg.seed) == ("bce", (4, 4), (1, 0), 9)
    assert cfg.iterations == TrainConfig().iterations


@pytest.mark.parametrize(
    "changes", [{"runs": 0}, {"ratios": ()}, {"permutations": -1}, {"pi": 0.4}]
)
def test_constructed_or_replaced_config_is_validated(changes):
    with pytest.raises(ConfigError):
        replace(ExperimentConfig(), **changes)
    with pytest.raises(ConfigError):
        ExperimentConfig(**changes)


def test_default_config_hash_is_stable():
    # records and traces are linked across versions by this hash
    assert resolve_config({}).hash() == (
        "2268ae33e0b40de6376612be07920e6ad90a6991dfcec6d149118d15a785c4ee"
    )


def test_int_is_accepted_for_a_float_key():
    assert resolve_config({"pi": 1, "mean_scale": 9}).pi == 1


def test_invalid_toml_is_config_error_naming_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat_config("seed = 1\nseed = 2\n")
