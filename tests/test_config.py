"""Experiment config validation and the training settings it carries."""

import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

from batchad.config import ExperimentConfig, parse_flat_config, resolve_config
from batchad.errors import ConfigError
from batchad.model import Architecture, ModelSettings
from batchad.training import TrainConfig


@pytest.mark.parametrize(
    "values, named",
    [
        ({"head": "x"}, "'x'"),
        ({"pi": 0.4}, "0.4"),
        ({"iterations": 0}, "got 0"),
        ({"ratios": [0.6]}, "0.6"),
        ({"eval_batch_size": 10, "ratios": [0.05]}, "0.05"),
        ({"iterations": "abc"}, "iterations must be an int, got 'abc'"),
        ({"seed": "x"}, "seed must be an int, got 'x'"),
        ({"runs": 2.5}, "runs must be an int, got 2.5"),
        ({"ratios": []}, "ratios must list at least one"),
        ({"input_bn": 1}, "input_bn must be a bool, got 1"),
        ({"pi": True}, "pi must be a float, got True"),
        ({"hidden": [8, "a"]}, "hidden must be a list of ints"),
        ({"data_preset": {"dim": 3}}, "data_preset must be a string"),
        ({"learning_rate": float("nan")}, "learning_rate must be finite, got nan"),
        ({"mean_scale": float("inf")}, "mean_scale must be finite, got inf"),
        ({"within_scale": float("nan")}, "within_scale must be finite, got nan"),
        ({"ratios": [0.1, float("-inf")]}, "ratios must be finite"),
        ({"delimiter": ""}, "delimiter must be one character, got ''"),
        ({"pi": 0.51, "batch_size": 10}, "pi=0.51 with batch_size=10 does not give a normal"),
        ({"ratios": [0.1, 0.2, 0.10]}, "^anomaly ratio 0.1 is listed twice$"),
        ({"ratios": [0.33], "eval_batch_size": 2},
         "^anomaly ratio 0.33 with batch_size 2 does not give a normal majority$"),
        # the shared model settings are checked before the training ones
        ({"head": "x", "pi": 0.4}, "^unknown head 'x'$"),
        # the synthetic source is checked though data_csv is set
        ({"dim": 0}, "^dim must be at least 1, got 0$"),
        ({"samples_per_distribution": 1}, "^samples_per_distribution must be at least 2, got 1$"),
        ({"mean_scale": 0.5}, "^mean_scale must exceed within_scale"),
        ({"test_distributions": 0}, "^test_distributions must be at least 1, got 0$"),
        ({"train_distributions": 1}, "^train_distributions must be at least 2, got 1$"),
        ({"data_preset": "nope"}, "^data_preset must be one of gaussian1d, gaussian8, got 'nope'$"),
        ({"train_bins": 0}, "^train_bins must be at least 1, got 0$"),
        ({"eval_batch_size": 1}, "^eval_batch_size must be at least 2, got 1$"),
        # a valid synthetic setting next to data_csv, which would ignore it
        ({"dim": 3}, "^dim sets the synthetic source, which data_csv replaces$"),
        ({"pi": 0.99, "batch_size": 20}, "^pi=0.99 with batch_size=20 rounds to zero anomalies"),
        ({"loss": "x"}, "^unknown loss 'x'$"),
    ],
    ids=[
        "head", "pi", "iterations", "ratio", "ratio-rounds-to-zero",
        "iterations-type", "seed-type", "runs-type", "ratios-empty",
        "int-for-bool", "bool-for-float", "list-item", "inline-table",
        "nan-learning-rate", "inf-mean-scale", "nan-within-scale", "inf-ratio",
        "empty-delimiter", "pi-batch-majority", "ratio-twice", "ratio-batch-majority",
        "model-settings-first", "dim", "samples-per-distribution", "mean-under-within",
        "test-distributions", "train-distributions", "unknown-preset", "train-bins",
        "eval-batch-size", "synthetic-with-csv", "pi-rounds-to-no-anomaly", "loss",
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


def test_every_model_setting_reaches_the_architecture():
    # each of the seven shared settings away from its default
    settings = dict(head="bce", hidden=(4, 4), latent_dim=3, input_bn=True,
                    bn_mode="frozen", bn_mask=(1, 0, 1), center_frozen=True)
    assert set(settings) == {f.name for f in fields(ModelSettings)}
    assert all(getattr(ModelSettings(), k) != v for k, v in settings.items())
    arch = TrainConfig(**settings).architecture(5)
    assert arch == Architecture(input_dim=5, **settings)
    assert {k: getattr(arch, k) for k in settings} == settings


def test_an_all_on_mask_is_kept_by_the_config_and_dropped_by_the_model():
    cfg = resolve_config({"bn_mask": [1, 1, 1, 1]})
    assert cfg.bn_mask == (1, 1, 1, 1) and cfg.architecture(8).bn_mask is None
    assert cfg.hash() == "5658956be36d4e050300f247ce43a7b8906913145bead46e389ef1070436ce80"


@pytest.mark.parametrize(
    "changes", [{"runs": 0}, {"ratios": ()}, {"permutations": -1}, {"pi": 0.4}]
)
def test_constructed_or_replaced_config_is_validated(changes):
    with pytest.raises(ConfigError):
        replace(ExperimentConfig(), **changes)
    with pytest.raises(ConfigError):
        ExperimentConfig(**changes)


@pytest.mark.parametrize("rate", [float("nan"), 0.0, -1e-3])
def test_learning_rate_that_is_not_positive_is_config_error_naming_it(rate):
    # the validator rejects a NaN as non-finite before the range check runs
    must = "finite" if math.isnan(rate) else "positive"
    with pytest.raises(ConfigError, match=f"^learning_rate must be {must}, got {rate}$"):
        TrainConfig(learning_rate=rate)


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


def test_validation_builds_no_model():
    # a 2000 x 2000 weight matrix alone would take 32 MB
    tracemalloc.start()
    try:
        resolve_config({"hidden": [2000, 2000]})
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_readme_config_key_table_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys\n\n", 1)[1].split("\n\n", 1)[0]
    first_column = "".join(row.split("|")[1] for row in table.splitlines()[2:])
    keys = re.findall(r"`(\w+)`", first_column)
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
