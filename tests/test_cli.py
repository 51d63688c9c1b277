"""End-to-end command-line contracts: files, exit codes, determinism."""

import json

import numpy as np
import pytest

import batchad.cli
from batchad.cli import ABLATE_SUITES, main
from batchad.model import Architecture, DetectorModel, save_checkpoint

TINY_CONFIG = """\
# tiny smoke-test experiment
iterations = 8
tasks_per_iter = 2
batch_size = 10
pi = 0.8
learning_rate = 0.001
hidden = [8, 8]
latent_dim = 4
data_preset = "gaussian8"
dim = 3
train_distributions = 3
test_distributions = 2
samples_per_distribution = 60
runs = 2
eval_batches = 3
eval_batch_size = 10
ratios = [0.1]
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text(TINY_CONFIG)
    return path


def spy_on(monkeypatch, name):
    """Replace ``batchad.cli.<name>`` with a wrapper that records each call's
    arguments and then runs the original; return the list of calls."""
    calls = []
    original = getattr(batchad.cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(batchad.cli, name, spy)
    return calls


def one_training_bin_config(tmp_path):
    """A config on a gaussian8 CSV whose training side is one bin (one pool)."""
    main(["gen-data", "--preset", "gaussian8", "--out", str(tmp_path)])
    config = tmp_path / "exp.toml"
    config.write_text(
        f'data_csv = "{tmp_path / "metaset.csv"}"\ntrain_bins = 1\n'
        "iterations = 2\nhidden = [4]\nlatent_dim = 2\nruns = 1\neval_batches = 2\n"
    )
    return config


class TestGenData:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--preset", "gaussian8", "--seed", "7", "--out", str(out)]) == 0
        assert (out / "metaset.csv").exists()
        assert (out / "metaset.json").exists()

    def test_missing_out_is_usage_error(self, capsys):
        assert main(["gen-data", "--preset", "gaussian8"]) == 2

    def test_unknown_preset(self, tmp_path, capsys):
        code = main(["gen-data", "--preset", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--preset", "gaussian1d", "--seed", "3", "--out", str(a)])
        main(["gen-data", "--preset", "gaussian1d", "--seed", "3", "--out", str(b)])
        assert (a / "metaset.csv").read_bytes() == (b / "metaset.csv").read_bytes()
        assert (a / "metaset.json").read_bytes() == (b / "metaset.json").read_bytes()


class TestTrain:
    def test_writes_checkpoint_and_report(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        code = main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        assert code == 0
        assert ckpt.exists()
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert len(report["loss_curve"]) == 8
        assert report["config_hash"]

    def test_rerun_same_seed_identical(self, tiny_config, tmp_path, capsys):
        r = []
        for name in ("m1", "m2"):
            main(["train", "--config", str(tiny_config), "--out", str(tmp_path / f"{name}.ckpt")])
            r.append(json.loads((tmp_path / f"{name}.report.json").read_text()))
        assert r[0]["final_loss"] == r[1]["final_loss"]
        assert r[0]["loss_curve"] == r[1]["loss_curve"]
        ck1 = (tmp_path / "m1.ckpt").read_bytes()
        ck2 = (tmp_path / "m2.ckpt").read_bytes()
        assert ck1 == ck2

    def test_invalid_key_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(TINY_CONFIG + "learnign_rate = 0.1\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "learnign_rate" in capsys.readouterr().err

    def test_wrong_typed_value_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(TINY_CONFIG + 'seed = "x"\n')
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "'seed'" in capsys.readouterr().err

    def test_one_pool_training_side_is_config_error_naming_it(self, tmp_path, monkeypatch, capsys):
        # one training bin cannot contaminate the default pi = 0.8 tasks
        config = one_training_bin_config(tmp_path)
        calls = spy_on(monkeypatch, "train")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "training side" in capsys.readouterr().err
        assert calls == []

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "none.toml"), "--out", str(tmp_path / "m")])
        assert code == 2


class TestEval:
    def test_eval_appends_record(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        results = tmp_path / "results.jsonl"
        code = main([
            "eval", "--config", str(tiny_config), "--model", str(ckpt),
            "--out", str(results),
        ])
        assert code == 0
        lines = results.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["record"] == "eval"
        assert "0.1" in record["auroc"]
        assert record["config"]["iterations"] == 8

    def test_eval_deterministic(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        results = tmp_path / "results.jsonl"
        for _ in range(2):
            main([
                "eval", "--config", str(tiny_config), "--model", str(ckpt),
                "--out", str(results), "--seed", "5",
            ])
        a, b = [json.loads(line) for line in results.read_text().splitlines()]
        assert a["auroc"] == b["auroc"]

    def test_ratio_override(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        results = tmp_path / "r.jsonl"
        main([
            "eval", "--config", str(tiny_config), "--model", str(ckpt),
            "--ratios", "0.1,0.2", "--runs", "1", "--out", str(results),
        ])
        record = json.loads(results.read_text())
        assert set(record["auroc"]) == {"0.1", "0.2"}

    def test_infeasible_ratio_is_config_error(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        # 5% of a 10-row batch rounds to zero anomalies
        code = main([
            "eval", "--config", str(tiny_config), "--model", str(ckpt),
            "--ratios", "0.05",
        ])
        assert code == 2
        assert "zero anomalies" in capsys.readouterr().err

    def test_unparseable_ratios_is_usage_error(self, tiny_config, tmp_path, capsys):
        code = main([
            "eval", "--config", str(tiny_config), "--model", str(tmp_path / "m.ckpt"),
            "--ratios", "0.1,x",
        ])
        assert code == 2
        assert "--ratios" in capsys.readouterr().err

    @staticmethod
    def edit_header(ckpt, edit, extra=b""):
        """Rewrite a checkpoint's JSON header with ``edit`` and append
        ``extra`` bytes to its arrays."""
        magic, header, blob = ckpt.read_bytes().split(b"\n", 2)
        head = json.loads(header)
        edit(head)
        ckpt.write_bytes(magic + b"\n" + json.dumps(head).encode() + b"\n" + blob + extra)

    @pytest.mark.parametrize("stat", ["bn9.frozen_mean", "bn0.gamma", "bn0.frozen_mean"])
    def test_foreign_statistic_is_runtime_error(self, stat, tiny_config, tmp_path, capsys):
        # bn9 is not a layer of the model; gamma is a parameter, not a
        # statistic; a frozen mean without its variance is incomplete
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(
            ckpt, lambda head: head["stats"].append([stat, [8]]), np.ones(8, dtype="<f8").tobytes()
        )
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        assert stat in capsys.readouterr().err

    def test_header_without_arch_is_runtime_error(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(ckpt, lambda head: head.pop("arch"))
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        assert str(ckpt) in capsys.readouterr().err

    def test_oversized_arch_fails_before_allocating(self, tiny_config, tmp_path, capsys):
        # building this model would take hundreds of TiB
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(ckpt, lambda head: head["arch"].update(input_dim=10**7, hidden=[10**7]))
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "arch needs" in err

    def test_scalar_hidden_widths_are_runtime_error(self, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(ckpt, lambda head: head["arch"].update(hidden=8))
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        assert str(ckpt) in capsys.readouterr().err

    def test_frozen_checkpoint_without_statistics_fails_before_data(self, tmp_path, capsys):
        # the data file does not exist: the checkpoint must be rejected first
        config = tmp_path / "exp.toml"
        config.write_text(TINY_CONFIG + f'data_csv = "{tmp_path / "absent.csv"}"\n')
        ckpt = tmp_path / "m.ckpt"
        arch = Architecture(input_dim=3, hidden=(8, 8), latent_dim=4)
        save_checkpoint(DetectorModel(arch, bn_mode="frozen"), ckpt)
        code = main(["eval", "--config", str(config), "--model", str(ckpt)])
        assert code == 3
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_is_runtime_error(self, value, tiny_config, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        magic, header, blob = ckpt.read_bytes().split(b"\n", 2)
        nan = np.array([value], dtype="<f8").tobytes()
        ckpt.write_bytes(magic + b"\n" + header + b"\n" + nan + blob[8:])
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "lin0.weight" in err

    @pytest.mark.parametrize(
        "sidecar",
        [b'{"dim": 2}', b'{"bins": {"train": 3}}', b'{"bins": "train"}', b"[]", b'{"bins": {'],
        ids=["no-bins", "int-train", "string-bins", "list", "invalid-json"],
    )
    def test_malformed_sidecar_is_config_error(self, sidecar, tmp_path, capsys):
        main(["gen-data", "--preset", "gaussian1d", "--out", str(tmp_path)])
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{tmp_path / "metaset.csv"}"\nruns = 1\n')
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(DetectorModel(Architecture(input_dim=1)), ckpt)
        (tmp_path / "metaset.json").write_bytes(sidecar)
        code = main(["eval", "--config", str(config), "--model", str(ckpt)])
        assert code == 2
        assert str(tmp_path / "metaset.json") in capsys.readouterr().err

    def test_sidecar_gives_the_training_bins(self, tmp_path, capsys):
        # 8 training and 4 test bins; only the sidecar tells them apart
        main(["gen-data", "--preset", "gaussian8", "--out", str(tmp_path)])
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{tmp_path / "metaset.csv"}"\nruns = 1\neval_batches = 2\n')
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(DetectorModel(Architecture(input_dim=8)), ckpt)
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--config", str(config), "--model", str(ckpt), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["cells"]["0.1"]) == 4

    def test_one_pool_test_side_is_config_error_naming_it(self, tmp_path, capsys):
        # gaussian1d holds one test pool and no anomaly-labeled rows
        main(["gen-data", "--preset", "gaussian1d", "--out", str(tmp_path)])
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{tmp_path / "metaset.csv"}"\nruns = 1\n')
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(DetectorModel(Architecture(input_dim=1)), ckpt)
        code = main(["eval", "--config", str(config), "--model", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "test side" in err and "anomaly pool" in err

    def test_one_pool_training_side_fails_before_evaluating(self, tmp_path, monkeypatch, capsys):
        # one training bin: enough for a pi = 1.0 model, but the shift
        # diagnostic samples the training side at the eval config's pi = 0.8
        config = one_training_bin_config(tmp_path)
        train_config = tmp_path / "train.toml"
        train_config.write_text(config.read_text() + "pi = 1.0\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(train_config), "--out", str(ckpt)]) == 0
        calls = spy_on(monkeypatch, "evaluate")
        code = main(["eval", "--config", str(config), "--model", str(ckpt)])
        assert code == 2
        assert "training side" in capsys.readouterr().err
        assert calls == []

    def test_missing_checkpoint(self, tiny_config, tmp_path, capsys):
        code = main(["eval", "--config", str(tiny_config), "--model", str(tmp_path / "no.ckpt")])
        assert code == 2


class TestAblate:
    def test_unknown_suite_exits_two(self, capsys):
        assert main(["ablate", "--suite", "wat"]) == 2

    def test_pi_suite_emits_five_rows(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", "pi", "--config", str(tiny_config),
            "--out", str(results),
        ])
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 5
        assert {r["cell"]["pi"] for r in records} == {0.6, 0.8, 0.9, 0.95, 0.99}

    def test_loss_variant_suite(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", "loss-variant", "--config", str(tiny_config),
            "--out", str(results),
        ])
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [r["cell"]["loss"] for r in records] == ["meta_oe", "one_class"]
        # the one-class objective trains on uncontaminated tasks
        assert records[1]["cell"]["pi"] == 1.0

    def test_records_embed_resolved_config(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        main([
            "ablate", "--suite", "bn-position", "--config", str(tiny_config),
            "--out", str(results),
        ])
        records = [json.loads(line) for line in results.read_text().splitlines()]
        # 2 hidden BN positions + final-layer BN + the all-on row
        assert len(records) == 4
        for r in records:
            assert r["config"]["hidden"] == [8, 8]
            assert r["config_hash"]

    def test_bn_mode_identity_row_near_chance(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", "bn-mode", "--config", str(tiny_config),
            "--out", str(results),
        ])
        assert code == 0
        records = {
            json.loads(line)["cell"]["bn_mode"]: json.loads(line)
            for line in results.read_text().splitlines()
        }
        assert set(records) == {"batch", "frozen", "identity"}
        # without batch statistics there is nothing to adapt with
        assert 0.3 <= records["identity"]["auroc_mean"] <= 0.7

    def test_batch_size_suite_covers_grid(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", "batch-size", "--config", str(tiny_config),
            "--out", str(results),
        ])
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [r["cell"]["batch_size"] for r in records] == [3, 6, 11, 16, 20, 40, 60]
        # tiny batches carry exactly one anomaly, larger ones the 10% admixture
        assert records[0]["cell"]["anomaly_ratio"] == pytest.approx(1 / 3)
        assert records[-1]["cell"]["anomaly_ratio"] == 0.1

    def test_num_classes_suite(self, tiny_config, tmp_path, capsys):
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", "num-classes", "--config", str(tiny_config),
            "--out", str(results),
        ])
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [r["cell"]["train_classes"] for r in records] == [1, 2, 4, 8]
        # a single training pool has no complement to contaminate from
        assert records[0]["cell"]["pi"] == 1.0

    @pytest.mark.parametrize("suite, models", [("batch-size", 1), ("pi", 5)])
    def test_one_training_per_group(self, suite, models, tiny_config, monkeypatch, capsys):
        # batch-size scores one model at seven batch sizes; pi trains one per cell
        calls = spy_on(monkeypatch, "train")
        assert main(["ablate", "--suite", suite, "--config", str(tiny_config)]) == 0
        assert len(calls) == models

    @pytest.mark.parametrize("suite", ABLATE_SUITES)
    def test_every_suite_prints_one_cell_column(self, suite, tiny_config, capsys):
        assert main(["ablate", "--suite", suite, "--config", str(tiny_config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["cell", "auroc"]
        assert isinstance(json.loads(lines[3].rsplit("  ", 1)[0]), dict)

    def test_test_side_checked_before_training(self, tmp_path, monkeypatch, capsys):
        # gaussian1d holds two training pools but one test pool and no anomalies
        main(["gen-data", "--preset", "gaussian1d", "--out", str(tmp_path)])
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{tmp_path / "metaset.csv"}"\niterations = 3\nruns = 1\n')
        calls = spy_on(monkeypatch, "train")
        code = main(["ablate", "--suite", "pi", "--config", str(config)])
        assert code == 2
        assert "test side" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("suite", ["bn-mode", "loss-variant"])
    def test_training_side_checked_before_training(self, suite, tmp_path, monkeypatch, capsys):
        # every group of bn-mode trains at pi = 0.8; loss-variant's first does
        config = one_training_bin_config(tmp_path)
        calls = spy_on(monkeypatch, "train")
        code = main(["ablate", "--suite", suite, "--config", str(config)])
        assert code == 2
        assert "training side" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("line", ['data_csv = "elsewhere.csv"', "permutations = 1"])
    def test_num_classes_refuses_what_it_would_ignore(self, line, tmp_path, monkeypatch, capsys):
        # the suite draws its own synthetic pools for every cell
        config = tmp_path / "exp.toml"
        config.write_text(TINY_CONFIG + line + "\n")
        calls = spy_on(monkeypatch, "train")
        code = main(["ablate", "--suite", "num-classes", "--config", str(config)])
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err
        assert calls == []
