"""Experiment config validation and the training settings it derives."""

import pytest

from batchad.config import resolve_config, train_config_from
from batchad.errors import ConfigError


@pytest.mark.parametrize(
    "values, named",
    [
        ({"head": "x"}, "'x'"),
        ({"pi": 0.4}, "0.4"),
        ({"iterations": 0}, "got 0"),
        ({"ratios": [0.6]}, "0.6"),
        ({"eval_batch_size": 10, "ratios": [0.05]}, "0.05"),
    ],
    ids=["head", "pi", "iterations", "ratio", "ratio-rounds-to-zero"],
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
