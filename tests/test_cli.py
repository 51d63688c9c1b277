"""End-to-end command-line contracts: files, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import batchad.cli
from batchad.cli import ABLATE_SUITES, main
from batchad.config import parse_flat_config, resolve_config
from batchad.data import GaussianMetaSpec, generate_gaussian_metaset, save_metaset_csv
from batchad.model import Architecture, DetectorModel, save_checkpoint
from batchad.training import train

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

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


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
        assert "error: seed must be an int, got 'x'" in capsys.readouterr().err

    def test_float_for_an_int_key_is_config_error_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(TINY_CONFIG.replace("iterations = 8", "iterations = 2.5"))
        ckpt = tmp_path / "m.ckpt"
        code = main(["train", "--config", str(bad), "--out", str(ckpt)])
        assert code == 2
        assert "error: iterations must be an int, got 2.5" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("key", ["seed", "data_seed", "eval_seed"])
    def test_negative_seed_key_is_config_error_naming_it(self, key, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text(TINY_CONFIG + f"{key} = -1\n")
        ckpt = tmp_path / "m.ckpt"
        code = main(["train", "--config", str(bad), "--out", str(ckpt)])
        assert code == 2
        assert f"error: {key} must be nonnegative" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("cmd, key", [("train", "seed"), ("eval", "eval_seed")])
    def test_negative_seed_flag_names_its_key(self, cmd, key, tiny_config, tmp_path, capsys):
        path = ["--out" if cmd == "train" else "--model", str(tmp_path / "m.ckpt")]
        code = main([cmd, "--config", str(tiny_config), "--seed", "-1", *path])
        assert code == 2
        assert f"error: {key} must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_one_pool_training_side_is_config_error_naming_it(self, tmp_path, monkeypatch, capsys):
        # one training bin cannot contaminate the default pi = 0.8 tasks
        config = one_training_bin_config(tmp_path)
        calls = spy_on(monkeypatch, "train")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "training side" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("escape", ["\\n", "\\r"])
    def test_line_break_delimiter_is_config_error_before_the_data_is_read(
        self, escape, tmp_path, monkeypatch, capsys
    ):
        config = one_training_bin_config(tmp_path)
        config.write_text(config.read_text() + f'delimiter = "{escape}"\n')
        calls = spy_on(monkeypatch, "load_tabular")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"error: delimiter must not be a line break, got '{escape}'" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("column", ["bin", "label"])
    def test_one_label_and_timestamp_column_is_config_error_before_the_data_is_read(
        self, column, tmp_path, monkeypatch, capsys
    ):
        config = one_training_bin_config(tmp_path)
        config.write_text(config.read_text() + f'label_col = "{column}"\ntimestamp_col = "{column}"\n')
        calls = spy_on(monkeypatch, "load_tabular")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: label_col and timestamp_col must differ, both are '{column}'" in err
        assert calls == []

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "none.toml"), "--out", str(tmp_path / "m")])
        assert code == 2

    def test_config_that_is_not_utf8_is_config_error_naming_it(self, tmp_path, capsys):
        config = tmp_path / "latin1.toml"
        config.write_bytes(TINY_CONFIG.encode() + "# café\n".encode("latin-1"))
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"config file {config} is not UTF-8" in capsys.readouterr().err


    def test_data_that_is_not_utf8_is_config_error_naming_its_line(self, tmp_path, capsys):
        main(["gen-data", "--preset", "gaussian8", "--out", str(tmp_path)])
        data = tmp_path / "metaset.csv"
        data.write_bytes(data.read_bytes() + "0,0,café,1,2,3,4,5,6,7\n".encode("latin-1"))
        lines = data.read_bytes().count(b"\n")
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{data}"\ntrain_bins = 4\niterations = 2\n')
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"{data}: line {lines} is not UTF-8" in capsys.readouterr().err

    def test_row_without_a_cell_is_runtime_error_naming_its_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("f0,label,bin\n1.0,0,1\n2.0,0,1\n3.0,0,2\n4.0,0\n5.0,0,2\n")
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{data}"\ntrain_bins = 1\niterations = 2\n')
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 3
        assert f"{data}: unparseable or non-finite rows at lines 5" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_quoted_data_from_a_pipe_is_config_error(self, tmp_path, capsys):
        # a quote sends the load back to row 1 for the csv module, and a pipe
        # cannot rewind
        pipe = tmp_path / "d.csv"
        os.mkfifo(pipe)
        rows = 'bin,label,f0\n0,0,1\n0,0,2\n1,0,"3"\n'
        writer = threading.Thread(target=pipe.write_text, args=(rows,), daemon=True)
        writer.start()
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{pipe}"\ntrain_bins = 1\niterations = 2\n')
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        writer.join(timeout=10)
        assert code == 2 and not writer.is_alive()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pipe}: ") and "not seekable" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_byte_that_is_not_utf8_in_a_pipe_is_config_error(self, tmp_path):
        # the line of a bad byte is found by reading the file again, which a
        # pipe cannot do: opening it again would wait for a writer forever
        pipe = tmp_path / "d.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(
            target=pipe.write_bytes, args=(b"bin,label,f0\n0,0,caf\xe9\n",), daemon=True
        )
        writer.start()
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{pipe}"\ntrain_bins = 1\niterations = 2\n')
        src = str(Path(batchad.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = ["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")]
        proc = subprocess.run(
            [sys.executable, "-m", "batchad.cli", *argv], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=30,
        )
        writer.join(timeout=10)
        assert proc.returncode == 2 and not writer.is_alive()
        assert proc.stderr.startswith(f"error: {pipe}: not UTF-8 ("), proc.stderr

    def test_missing_column_is_reported_before_a_malformed_row(self, tmp_path, capsys):
        # the header is checked before any row is read, so a file without its
        # label column is a config error even where a row further down is malformed
        data = tmp_path / "d.csv"
        data.write_text("bin,f0,f1\n0,1,2\n0," + "9" * 200_000 + ",2\n1,3,4\n")
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{data}"\ntrain_bins = 1\niterations = 2\n')
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"{data}: missing column 'label'" in capsys.readouterr().err

    def test_missing_train_bins_is_reported_before_a_malformed_row(self, tmp_path, capsys):
        # a timestamp column without train_bins (and without a sidecar to give
        # it) is a config error, found before the malformed last row is read
        data = tmp_path / "d.csv"
        data.write_text("bin,label,f0\n0,0,1.0\n1,0,oops\n")
        config = tmp_path / "exp.toml"
        config.write_text(f'data_csv = "{data}"\niterations = 2\n')
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "train_bins is required when a timestamp column is set" in capsys.readouterr().err


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

    def test_duplicate_ratio_is_config_error(self, tiny_config, tmp_path, capsys):
        code = main([
            "eval", "--config", str(tiny_config), "--model", str(tmp_path / "m.ckpt"),
            "--ratios", "0.1,0.1",
        ])
        assert code == 2
        assert "anomaly ratio 0.1 is listed twice" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("inverse_eps", float("nan")),
            ("inverse_eps", 0.0),
            ("inverse_eps", -1e-6),
            ("inverse_eps", float("inf")),
            ("inverse_eps", "1e-6"),
            ("inverse_eps", True),
            ("center_frozen", "no"),
            ("center_frozen", 0),
            ("bn_mask", ["0", 1, 1]),
            ("bn_mask", [2, 1, 1]),
            ("input_dim", True),
            ("hidden", [8, 8.0]),
            ("latent_dim", "4"),
            ("input_bn", "yes"),
        ],
        ids=str,
    )
    def test_bad_header_value_is_runtime_error(self, field, value, tiny_config, tmp_path, capsys):
        # each would load into a model whose scores are non-finite or not what
        # the header seems to say; the shape fields sit under "arch"
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(
            ckpt, lambda h: (h["arch"] if field in h["arch"] else h).update({field: value})
        )
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} has a malformed header" in err and field in err

    def test_oversized_arch_fails_before_allocating(self, tiny_config, tmp_path, capsys):
        # building this model would take hundreds of TiB
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(ckpt, lambda head: head["arch"].update(input_dim=10**7, hidden=[10**7]))
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "arch needs" in err

    def test_unallocatable_eval_batches_is_runtime_error(self, tiny_config, tmp_path, capsys):
        # 10**12 batches need terabytes, which numpy refuses at once; a
        # value that fits the address space would really try to allocate it
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        huge = tmp_path / "huge.toml"
        huge.write_text(TINY_CONFIG.replace("eval_batches = 3", "eval_batches = 1000000000000"))
        code = main(["eval", "--config", str(huge), "--model", str(ckpt)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: out of memory")

    def test_out_of_memory_on_a_helper_thread_is_runtime_error(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        # with two CPUs evaluate scores every other cell on a helper thread;
        # an error there reaches main unchanged
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        caller = threading.get_ident()
        score = DetectorModel.score_batch

        def score_on_caller_only(model, x):
            if threading.get_ident() != caller:
                raise MemoryError("no room for this cell")
            return score(model, x)

        monkeypatch.setattr(DetectorModel, "score_batch", score_on_caller_only)
        before = threading.enumerate()
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        assert capsys.readouterr().err == "error: out of memory: no room for this cell\n"
        assert threading.enumerate() == before

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
        arch = Architecture(input_dim=3, hidden=(8, 8), latent_dim=4, bn_mode="frozen")
        save_checkpoint(DetectorModel(arch), ckpt)
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

    def test_checkpoint_of_another_width_is_config_error_before_scoring(
        self, tmp_path, monkeypatch, capsys
    ):
        # a gaussian1d model on the default gaussian8 data
        config = tmp_path / "exp.toml"
        config.write_text("runs = 1\neval_batches = 2\n")
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(DetectorModel(Architecture(input_dim=1)), ckpt)
        calls = spy_on(monkeypatch, "evaluate")
        code = main(["eval", "--config", str(config), "--model", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} expects 1 features, the configured data has 8" in err
        assert calls == []

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

    def test_checkpoint_with_linear_biases_is_refused(self, tiny_config, tmp_path, capsys):
        # a 0.2.0 checkpoint lists a bias after every linear weight
        ckpt = tmp_path / "m.ckpt"
        main(["train", "--config", str(tiny_config), "--out", str(ckpt)])
        self.edit_header(
            ckpt, lambda head: head["params"].insert(1, ["lin0.bias", [8]]), bytes(8 * 8)
        )
        code = main(["eval", "--config", str(tiny_config), "--model", str(ckpt)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} lists parameters" in err and "lin0.bias" in err


PATH_CASES = (
    "config-is-dir", "model-is-dir", "train-out-is-dir", "eval-out-is-dir",
    "ablate-out-is-dir", "train-out-under-file", "gen-data-out-under-file",
)


@pytest.mark.parametrize("case", PATH_CASES)
def test_unusable_path_is_exit_two_before_training(case, tiny_config, tmp_path, monkeypatch, capsys):
    # a directory where a file is read or written, or a regular file where a
    # directory must be made
    folder = tmp_path / "folder"
    folder.mkdir()
    plain = tmp_path / "plain"
    plain.write_text("a regular file\n")
    ckpt = tmp_path / "m.ckpt"
    if case == "eval-out-is-dir":
        assert main(["train", "--config", str(tiny_config), "--out", str(ckpt)]) == 0
    argv = {
        "config-is-dir": ["train", "--config", str(folder), "--out", str(ckpt)],
        "model-is-dir": ["eval", "--config", str(tiny_config), "--model", str(folder)],
        "train-out-is-dir": ["train", "--config", str(tiny_config), "--out", str(folder)],
        "eval-out-is-dir": [
            "eval", "--config", str(tiny_config), "--model", str(ckpt), "--out", str(folder)
        ],
        "ablate-out-is-dir": [
            "ablate", "--suite", "pi", "--config", str(tiny_config), "--out", str(folder)
        ],
        "train-out-under-file": ["train", "--config", str(tiny_config), "--out", str(plain / "m")],
        "gen-data-out-under-file": ["gen-data", "--out", str(plain / "data")],
    }[case]
    capsys.readouterr()
    trained, evaluated = spy_on(monkeypatch, "train"), spy_on(monkeypatch, "evaluate")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert trained == evaluated == []


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

    @pytest.mark.parametrize(
        "suite, cell, settings",
        [
            ("bn-mode", {"bn_mode": "batch"}, {}),
            ("pi", {"pi": 0.9}, {"pi": 0.9}),
            ("batch-size", {"batch_size": 20, "anomaly_ratio": 0.1}, {"eval_batch_size": 20}),
            ("bn-position", {"bn_position": "all", "bn_mask": [1, 1, 1]}, {"bn_mask": [1, 1, 1]}),
        ],
        ids=["bn-mode", "pi", "batch-size", "bn-position"],
    )
    def test_bn_mode_batch_cell_reads_as_if_trained_alone(
        self, suite, cell, settings, tiny_config, tmp_path, capsys
    ):
        # a batch cell is scored with the parameters of a frozen training,
        # which must give what its own config trained in batch mode gives
        results = tmp_path / "r.jsonl"
        code = main([
            "ablate", "--suite", suite, "--config", str(tiny_config), "--out", str(results),
        ])
        assert code == 0
        records = [json.loads(line) for line in results.read_text().splitlines()]
        got = next(r for r in records if r["cell"] == cell)
        overrides = {**settings, "bn_mode": "batch", "ratios": [0.1]}
        cfg = resolve_config(parse_flat_config(TINY_CONFIG), overrides)
        train_meta, test_meta = batchad.cli.build_metasets(cfg)
        model, _ = train(train_meta, cfg)
        want = batchad.cli._evaluate(model, test_meta, cfg).per_ratio[0.1]
        assert (got["auroc_mean"], got["auroc_std"]) == want

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

    @pytest.mark.parametrize(
        "suite, models",
        [
            ("batch-size", 1), ("pi", 5), ("bn-mode", 2),
            ("loss-variant", 2), ("bn-position", 4), ("num-classes", 4),
        ],
    )
    def test_one_training_per_group(self, suite, models, tiny_config, monkeypatch, capsys):
        # batch-size scores one model at seven batch sizes; bn-mode scores its
        # batch cell with the frozen cell's training; every other cell's
        # training settings or meta-sets differ from the rest of its suite's
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


# name: the config lines besides the data file; both train 20 iterations
PROCESS_CONFIGS = {
    # the default 8->64->64->64->32 net on 8 tasks of 60 rows
    "default-net-60-rows": "",
    # 256-row batches: products large enough for OpenBLAS to thread
    "batch-256": "tasks_per_iter = 2\nbatch_size = 256\neval_batch_size = 256\n",
}
# name: (environment, pinned to one CPU), where None removes the variable.
# The first leaves OpenBLAS its default threads; the others run one BLAS
# thread under another string hash seed, or one CPU (and so one evaluation
# thread)
PROCESS_VARIANTS = {
    "blas-default": ({"OPENBLAS_NUM_THREADS": None, "PYTHONHASHSEED": "0"}, False),
    "blas-one-thread-hash-seed-1": ({"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "1"}, False),
    "one-cpu": ({"OPENBLAS_NUM_THREADS": None, "PYTHONHASHSEED": "0"}, True),
}


def run_cli_processes(jobs):
    """Run ``python -m batchad.cli`` once per ``(argv, cwd, variant)`` job in a
    child process set up as ``PROCESS_VARIANTS`` says, one child per CPU at a
    time (two at most)."""
    src = str(Path(batchad.cli.__file__).parents[1])
    cpus = sorted(os.sched_getaffinity(0))
    procs = []
    for argv, cwd, variant in jobs:
        if len(procs) == min(2, len(cpus)):
            finish(*procs.pop(0))
        changes, pinned = PROCESS_VARIANTS[variant]
        env = {key: value for key, value in {**os.environ, **changes}.items() if value is not None}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "batchad.cli", *argv], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            # the child's own CPU set only
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus[:1])) if pinned else None,
        )
        procs.append((proc, argv, variant))
    for proc in procs:
        finish(*proc)


def finish(proc, argv, variant):
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # nothing to do once it has exited
    assert proc.returncode == 0, (variant, argv, err.decode())


def test_same_seed_same_bytes_across_processes(tmp_path):
    # the same seed gives the same checkpoint and eval record whatever the
    # BLAS thread count, CPU set or string hash seed of the process
    csv_path, _ = save_metaset_csv(
        *generate_gaussian_metaset(GaussianMetaSpec(samples_per_distribution=300), seed=0),
        tmp_path, seed=0,
    )
    dirs = {}
    for name, lines in PROCESS_CONFIGS.items():
        (tmp_path / f"{name}.toml").write_text(
            f'data_csv = "{csv_path}"\niterations = 20\nruns = 1\neval_batches = 2\n'
            f"ratios = [0.1]\n{lines}"
        )
        for variant in PROCESS_VARIANTS:
            dirs[name, variant] = tmp_path / name / variant
            dirs[name, variant].mkdir(parents=True)
    config = {key: str(tmp_path / f"{key[0]}.toml") for key in dirs}
    run_cli_processes([
        (["train", "--config", config[key], "--out", "m.ckpt"], cwd, key[1])
        for key, cwd in dirs.items()
    ])
    run_cli_processes([
        (["eval", "--config", config[key], "--model", "m.ckpt", "--out", "eval.jsonl"], cwd, key[1])
        for key, cwd in dirs.items()
    ])

    def outputs(cwd):
        records = [json.loads((cwd / "m.report.json").read_text())]
        records += [json.loads(line) for line in (cwd / "eval.jsonl").read_text().splitlines()]
        for record in records:
            del record["wall_clock_s"]
        return hashlib.sha256((cwd / "m.ckpt").read_bytes()).hexdigest(), records

    for name in PROCESS_CONFIGS:
        want = outputs(dirs[name, "blas-default"])
        assert len(want[1]) == 2
        for variant in PROCESS_VARIANTS:
            assert outputs(dirs[name, variant]) == want, (name, variant)
