"""Experiment config validation and the training settings it derives."""

import pytest

from batchad.config import parse_flat_config, resolve_config, train_config_from
from batchad.errors import ConfigError


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
    ],
    ids=[
        "head", "pi", "iterations", "ratio", "ratio-rounds-to-zero",
        "iterations-type", "seed-type", "runs-type", "ratios-empty",
        "int-for-bool", "bool-for-float", "list-item", "inline-table",
    ],
)
def test_bad_value_is_config_error_naming_it(values, named, tmp_path):
    # the data file does not exist: validation fails before any data is read
    with pytest.raises(ConfigError, match=named):
        resolve_config({**values, "data_csv": str(tmp_path / "absent.csv")})


def test_train_config_carries_every_shared_field():
    cfg = resolve_config({"head": "bce", "hidden": [4, 4], "bn_mask": [1, 0], "seed": 9})
    train_cfg = train_config_from(cfg, pi=1.0)
    assert (train_cfg.head, train_cfg.hidden, train_cfg.bn_mask) == ("bce", (4, 4), (1, 0))
    assert (train_cfg.seed, train_cfg.pi, train_cfg.iterations) == (9, 1.0, cfg.iterations)


def test_int_is_accepted_for_a_float_key():
    assert resolve_config({"pi": 1, "mean_scale": 9}).pi == 1


def test_invalid_toml_is_config_error_naming_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat_config("seed = 1\nseed = 2\n")
