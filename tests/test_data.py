"""Meta-set generation, CSV round trips, splits, and leakage guards."""

import csv
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from batchad.data import (
    CSV_CHUNK_ROWS,
    GaussianMetaSpec,
    TabularSource,
    _bin_sort_key,
    augment_with_permutations,
    generate_gaussian_metaset,
    load_tabular,
    save_metaset_csv,
)
from batchad.errors import ConfigError

from helpers import MIB, assert_same_bits, reference_load_tabular, row_digests, traced_peak


class TestGaussianGenerator:
    def test_degenerate_within_scale(self):
        spec = GaussianMetaSpec(
            dim=3, train_distributions=2, test_distributions=1,
            samples_per_distribution=20, mean_scale=5.0, within_scale=0.0,
        )
        train, _ = generate_gaussian_metaset(spec, seed=0)
        for pool in train.pools:
            assert np.all(pool == pool[0])

    def test_fixed_seed_reproducible(self):
        spec = GaussianMetaSpec(samples_per_distribution=50)
        a_train, a_test = generate_gaussian_metaset(spec, seed=9)
        b_train, b_test = generate_gaussian_metaset(spec, seed=9)
        for pa, pb in zip(a_train.pools + a_test.pools, b_train.pools + b_test.pools):
            assert np.array_equal(pa, pb)

    def test_pool_shapes_and_split(self):
        spec = GaussianMetaSpec(samples_per_distribution=100)
        train, test = generate_gaussian_metaset(spec, seed=1)
        assert train.k == 8 and test.k == 4
        assert all(p.shape == (100, 8) for p in train.pools)
        assert set(train.ids).isdisjoint(test.ids)

    def test_pairwise_mean_distances(self):
        # hyper-prior scale 8 in 8 dimensions: median inter-cluster distance
        # comfortably exceeds the scale itself (verified over 100 seeds)
        medians = []
        spec = GaussianMetaSpec(samples_per_distribution=5)
        for seed in range(100):
            train, test = generate_gaussian_metaset(spec, seed=seed)
            means = np.array([p.mean(axis=0) for p in train.pools + test.pools])
            dists = [
                np.linalg.norm(means[i] - means[j])
                for i in range(len(means))
                for j in range(i + 1, len(means))
            ]
            medians.append(np.median(dists))
        assert min(medians) > 8.0

    def test_rejects_indistinct_scales(self):
        with pytest.raises(ConfigError):
            GaussianMetaSpec(mean_scale=1.0, within_scale=1.0)

    @pytest.mark.parametrize("field", ["mean_scale", "within_scale"])
    def test_nan_scale_is_config_error_naming_it(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be finite, got nan$"):
            GaussianMetaSpec(**{field: float("nan")})

    def test_train_and_test_rows_disjoint(self):
        spec = GaussianMetaSpec(samples_per_distribution=50)
        train, test = generate_gaussian_metaset(spec, seed=3)
        assert row_digests(train).isdisjoint(row_digests(test))


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        spec = GaussianMetaSpec(
            dim=5, train_distributions=3, test_distributions=2,
            samples_per_distribution=40,
        )
        train, test = generate_gaussian_metaset(spec, seed=7)
        csv_path, _ = save_metaset_csv(train, test, tmp_path, seed=7)
        # every written value parses back to the exact float64
        parsed = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        assert np.array_equal(parsed[:, 2:], np.concatenate(train.pools + test.pools))
        loaded_train, loaded_test = load_tabular(TabularSource(path=str(csv_path), train_bins=3))
        assert loaded_train.k == 3 and loaded_test.k == 2

    def test_same_seed_same_bytes(self, tmp_path):
        spec = GaussianMetaSpec(
            dim=2, train_distributions=2, test_distributions=1,
            samples_per_distribution=10,
        )
        pair = generate_gaussian_metaset(spec, seed=4)
        c1, j1 = save_metaset_csv(*pair, tmp_path / "a", seed=4)
        c2, j2 = save_metaset_csv(*pair, tmp_path / "b", seed=4)
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()


def write_csv(path, rows, header="bin,label,f0,f1"):
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


class TestLoadTabular:
    def test_groups_rows_by_bin(self, tmp_path):
        rows = [f"0,0,{i},{i}" for i in range(10)] + [f"1,0,{i},{i}" for i in range(10)]
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1))
        assert train.k == 1 and test.k == 1
        assert train.pools[0].shape == (10, 2)

    def test_single_bin_is_an_error(self, tmp_path):
        rows = [f"0,0,{i},{i}" for i in range(10)]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ConfigError):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["0,0,1,1"], header="bin,label,f0,f1")
        with pytest.raises(ConfigError):
            load_tabular(TabularSource(path=path, label_col="target", train_bins=1))

    def test_blank_header_line_has_no_cells(self, tmp_path):
        # split at the delimiter, a blank line would be one empty cell, which
        # an empty label column name finds
        path = tmp_path / "d.csv"
        path.write_text("\n0,1\n")
        source = TabularSource(path=str(path), label_col="", timestamp_col=None)
        got = load_or_error(load_tabular, source)
        assert str(got) == f"{path}: missing column ''"
        assert_same_load(got, load_or_error(reference_load_tabular, source))

    def test_unparseable_row_reports_line(self, tmp_path):
        rows = ["0,0,1,2", "0,0,oops,2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match="line.*3"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_malformed_csv_reports_file_and_line(self, tmp_path):
        # a field past the csv module's size limit is a csv.Error
        rows = ["0,0,1,2", "0,0," + "9" * 200_000 + ",2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match=r"d\.csv: malformed CSV at line 3: field larger"):
            load_tabular(TabularSource(path=path, train_bins=1))

    @pytest.mark.parametrize("rows_before, quoted", [(1, None), (2000, None), (4000, CSV_CHUNK_ROWS + 5)],
                             ids=["1", "2000", "4000-after-a-quote"])
    def test_byte_that_is_not_utf8_is_config_error_naming_the_line(
        self, tmp_path, rows_before, quoted
    ):
        # 2000 rows put the byte past the first chunk the file reader decodes;
        # after a quote in the second chunk, the csv module's pass from row 1
        # is the one that meets it
        rows = [f"0,0,{i},2" for i in range(rows_before)] + ["1,0,3,4", "1,0,café,4"]
        if quoted is not None:
            rows[quoted] = '0,0,"1",2'
        path = tmp_path / "d.csv"
        path.write_bytes("\n".join(["bin,label,f0,f1"] + rows).encode("latin-1"))
        line = rows_before + 3
        with pytest.raises(ConfigError, match=rf"d\.csv: line {line} is not UTF-8"):
            load_tabular(TabularSource(path=str(path), train_bins=1))

    def test_non_finite_rejected(self, tmp_path):
        rows = ["0,0,1,2", "0,0,nan,2", "1,0,3,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ValueError, match="line"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_anomalies_kept_only_in_test_bins(self, tmp_path):
        rows = (
            [f"0,0,{i},0" for i in range(8)]
            + ["0,1,99,0"]  # train-bin anomaly: dropped
            + [f"1,0,{i},0" for i in range(8)]
            + ["1,1,77,0", "1,1,78,0"]
        )
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1))
        assert train.pools[0].shape[0] == 8
        assert test.anomaly_pool is not None
        assert test.anomaly_pool.shape[0] == 2
        # standardized with the train bin's normal rows: f0 = 0..7, f1 constant
        mean, std = 3.5, np.std(np.arange(8.0))
        np.testing.assert_allclose(
            test.anomaly_pool, [[(77 - mean) / std, 0.0], [(78 - mean) / std, 0.0]], rtol=1e-15
        )

    def test_standardization_fitted_on_train_only(self, tmp_path):
        rows = [f"0,0,{i},1" for i in range(4)] + [f"1,0,{i + 100},1" for i in range(4)]
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=1))
        # train bin values 0..3 standardize to mean 0; the shifted test bin does not
        assert abs(train.pools[0][:, 0].mean()) < 1e-12
        assert test.pools[0][:, 0].mean() > 10

    def test_row_without_its_timestamp_cell_names_its_line(self, tmp_path):
        rows = ["1.0,0,1", "2.0,0,1", "3.0,0,2", "4.0,0", "5.0,0,2"]
        path = write_csv(tmp_path / "d.csv", rows, header="f0,label,bin")
        with pytest.raises(ValueError, match=r"d\.csv: unparseable or non-finite rows at lines 5$"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_bin_order_is_total(self):
        # a NaN key sorted by its value compares false both ways, so the order
        # of bins around it followed the order of a hash-seeded set
        keys = ["3", "nan", "1", "2", "10", "x", "1.0"]
        orders = {tuple(sorted(p, key=_bin_sort_key)) for p in permutations(keys)}
        assert orders == {("1", "1.0", "2", "3", "10", "nan", "x")}

    @pytest.mark.parametrize("quoted", [(), range(24_000), [23_999]],
                             ids=["clean", "all-quoted", "quote-in-last-chunk"])
    def test_traced_peak_of_a_24000_row_load(self, quoted, tmp_path):
        # all 24,000 rows of gaussian8 as strings take 17.0 MiB, and the
        # one-pass reference loader, holding them at once, peaks at 22.0 MiB;
        # one chunk of 1024 rows takes 0.7 MiB, the (24000, 8) features
        # 1.5 MiB, and the chunked load peaks at 4.1 MiB, also when a quote
        # sends it back to row 1 after all but the last chunk
        csv_path, _ = save_metaset_csv(
            *generate_gaussian_metaset(GaussianMetaSpec(), seed=7), tmp_path, seed=7
        )
        header, *lines = csv_path.read_text().splitlines()
        for i in quoted:
            lines[i] = ",".join(f'"{cell}"' for cell in lines[i].split(","))
        csv_path.write_text("\n".join([header, *lines]) + "\n")
        source = TabularSource(path=str(csv_path), train_bins=8)
        load_tabular(source)
        peak = traced_peak(lambda: load_tabular(source))
        assert peak <= 5 * MIB, peak

    @pytest.mark.parametrize("last_row", ["1,0,2.0", "1,0,oops"], ids=["good", "malformed"])
    def test_missing_train_bins_is_reported_before_any_row(self, last_row, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["0,0,1.0", last_row], header="bin,label,f0")
        with pytest.raises(ConfigError, match="^train_bins is required when a timestamp"):
            load_tabular(TabularSource(path))

    def test_header_without_a_feature_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["0,0", "1,0"], header="bin,label")
        with pytest.raises(ConfigError, match="no feature columns$"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_training_bins_of_anomalies_only(self, tmp_path):
        # the standardization constants are fitted on the training bins' normal rows
        rows = [f"0,1,{i},{i}" for i in range(5)] + [f"1,0,{i},{i}" for i in range(5)]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(ConfigError, match="training bins contain no normal rows$"):
            load_tabular(TabularSource(path=path, train_bins=1))

    def test_no_timestamp_column_single_pool(self, tmp_path):
        rows = ["0,1,2", "0,3,4", "1,9,9"]
        path = write_csv(tmp_path / "d.csv", rows, header="label,f0,f1")
        train, test = load_tabular(TabularSource(path=path, timestamp_col=None))
        assert test is None
        assert train.k == 1
        assert train.pools[0].shape == (2, 2)  # the anomaly row is excluded


LONG_ROWS = 2 * CSV_CHUNK_ROWS + 300
# "10" and "1e1" tie as numbers; "nan" and "x" are text bins
LONG_BINS = ["10", "2", "-1", "1e1", "x", "nan", "7"]


def long_rows():
    """``bin,label,f0,f1,f2`` rows over three chunks, every 40th an anomaly."""
    x = np.random.default_rng(0).normal(size=(LONG_ROWS, 3))
    return [
        f"{LONG_BINS[i % len(LONG_BINS)]},{int(i % 40 == 0)},{a:.17g},{b:.17g},{c:.17g}"
        for i, (a, b, c) in enumerate(x)
    ]


def spoil(indices, row="0,0,oops,1,2"):
    """``long_rows()`` with the rows at ``indices`` replaced by ``row``."""
    rows = long_rows()
    for i in indices:
        rows[i] = row
    return rows


def timestamp_last(rows):
    """``bin,label,f0,f1,f2`` rows as ``label,f0,f1,f2,bin`` rows."""
    return [",".join(r.split(",")[1:] + r.split(",")[:1]) for r in rows]


def many_bins(rows, n=1200):
    """``rows`` with row i moved to bin i % n, named by its number when odd
    and by text when even, so bins interleave; as every 40th row is an
    anomaly, bins "t0", "t40", ... hold anomaly rows only."""
    return [f"{k if (k := i % n) % 2 else f't{k}'},{r.split(',', 1)[1]}" for i, r in enumerate(rows)]


def bad_lines_message(path, lines):
    shown = ", ".join(str(n) for n in lines[:10])
    more = f" (+{len(lines) - 10} more)" if len(lines) > 10 else ""
    return f"{path}: unparseable or non-finite rows at lines {shown}{more}"


CHUNK = CSV_CHUNK_ROWS
# name: (header, rows, TabularSource overrides, expected), where expected is
# None for a load, "config" for a ConfigError, the bad lines, or how another
# error's message goes on after the path; the rows are built when a case runs
LONG_CASES = {
    "clean": (None, long_rows, {}, None),
    "bad-in-first-chunk": (None, lambda: spoil([3]), {}, [5]),
    "bad-in-last-chunk": (None, lambda: spoil([LONG_ROWS - 1]), {}, [LONG_ROWS + 1]),
    "bad-across-a-boundary": (
        None, lambda: spoil(range(CHUNK - 2, CHUNK + 2)), {}, list(range(CHUNK, CHUNK + 4))
    ),
    "more-than-10-bad": (
        None, lambda: spoil(range(5, LONG_ROWS, 600)), {}, list(range(7, LONG_ROWS + 2, 600))
    ),
    "quoted-fields": (
        None,
        lambda: ['"a,b",0,"1.5",2,3']
        + [",".join(f'"{c}"' for c in r.split(",")) for r in long_rows()],
        {},
        None,
    ),
    "extra-trailing-cells": (
        None, lambda: [r + ",extra,9" if i % 3 else r for i, r in enumerate(long_rows())], {}, None
    ),
    "crlf-line-ends": (None, long_rows, {}, None),
    "cr-line-ends": (None, long_rows, {}, None),
    "quote-first-in-last-chunk": (None, lambda: spoil([2 * CHUNK + 5], row='"7",0,1,2,3'), {}, None),
    "quoted-newline-across-a-boundary": (
        None, lambda: spoil([CHUNK - 1], row='2,0,1,2,"3\n"'), {}, None
    ),
    # the csv module reads NUL as an ordinary character, so the cell does not parse
    "nul-in-second-chunk": (None, lambda: spoil([CHUNK + 3], row="2,0,1\0,2,3"), {}, [CHUNK + 5]),
    "field-over-the-csv-limit": (
        None,
        lambda: spoil([CHUNK + 3], row="2,0," + "9" * (csv.field_size_limit() + 1) + ",2,3"),
        {},
        f"malformed CSV at line {CHUNK + 5}: field larger than field limit",
    ),
    "blank-line": (None, lambda: spoil([CHUNK + 7], row=""), {}, [CHUNK + 9]),
    "short-row": (None, lambda: spoil([CHUNK], row="2,0,1,2"), {}, [CHUNK + 2]),
    "row-without-its-timestamp": (
        "label,f0,f1,f2,bin",
        lambda: [
            "0,1,2,3" if i == 2 * CHUNK + 1 else r.split(",", 1)[1] + "," + r.split(",", 1)[0]
            for i, r in enumerate(long_rows())
        ],
        {},
        [2 * CHUNK + 3],
    ),
    # numpy reads \x1c-\x1f around a number as white space; float() and int() do not
    "x1c-after-a-feature": (None, lambda: spoil([CHUNK + 3], row="2,0,1\x1c,2,3"), {}, [CHUNK + 5]),
    "x1d-before-a-feature": (None, lambda: spoil([7], row="2,0,1,\x1d2,3"), {}, [9]),
    "x1e-after-the-last-feature": (None, lambda: spoil([CHUNK], row="2,0,1,2,3\x1e"), {}, [CHUNK + 2]),
    "x1f-after-a-label": (None, lambda: spoil([CHUNK + 3], row="2,1\x1f,1,2,3"), {}, [CHUNK + 5]),
    "feature-1_0": (None, lambda: spoil([CHUNK + 3], row="2,0,1_0,2,3"), {}, None),
    "feature-arabic-indic-one": (None, lambda: spoil([CHUNK + 3], row="2,0,1,\u0661,3"), {}, None),
    "feature-nbsp-and-vt-padded": (None, lambda: spoil([5], row="2,0,\xa01,2\x0b,3"), {}, None),
    # a comment character cuts nothing: "x#1" is a bin of its own, "3#1" no number
    "hash-in-a-timestamp": (
        "label,f0,f1,f2,bin", lambda: timestamp_last(spoil([CHUNK + 3], row="x#1,0,1,2,3")), {}, None
    ),
    "hash-in-a-feature": (None, lambda: spoil([CHUNK + 3], row="2,0,1,2,3#1"), {}, [CHUNK + 5]),
    "blank-chunk": (
        None, lambda: spoil(range(CHUNK, 2 * CHUNK), row=""), {}, list(range(CHUNK + 2, 2 * CHUNK + 2))
    ),
    "labels-spaced-and-signed": (
        None,
        lambda: [r.replace(",1,", ", 1,", 1).replace(",0,", ",+0,", 1) for r in long_rows()],
        {},
        None,
    ),
    "label-1_0": (None, lambda: spoil([CHUNK + 1], row="2,1_0,1,2,3"), {}, [CHUNK + 3]),
    "label-past-int64": (None, lambda: spoil([CHUNK + 1], row=f"2,{2**64},1,2,3"), {}, [CHUNK + 3]),
    "inf-feature": (None, lambda: spoil([9], row="2,0,1,inf,3"), {}, [11]),
    "nan-feature": (None, lambda: spoil([2 * CHUNK], row="2,0,1,2,nan"), {}, [2 * CHUNK + 2]),
    "header-only": (None, list, {}, "config"),
    "no-timestamp-column": (
        "label,f0,f1,f2",
        lambda: [r.split(",", 1)[1] for r in long_rows()],
        {"timestamp_col": None},
        None,
    ),
    "many-interleaved-bins": (None, lambda: many_bins(long_rows()), {}, None),
    "no-timestamp-header-only": ("label,f0,f1,f2", list, {"timestamp_col": None}, "config"),
}


def load_or_error(loader, source):
    try:
        return loader(source)
    except ValueError as exc:  # ConfigError included
        return exc


def assert_same_load(got, want):
    """Two results of ``load_or_error``: the same arrays bit for bit, or the
    same error type and message."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is None:
            continue
        assert g.ids == w.ids and len(g.pools) == len(w.pools)
        for gp, wp in zip(g.pools, w.pools):
            assert_same_bits(gp, wp)
        assert (g.anomaly_pool is None) == (w.anomaly_pool is None)
        if w.anomaly_pool is not None:
            assert_same_bits(g.anomaly_pool, w.anomaly_pool)


LINE_ENDS = {"crlf-line-ends": "\r\n", "cr-line-ends": "\r"}


class TestChunkedLoadMatchesReference:
    """The chunked, column-wise loader against the one-pass row loop kept in
    ``helpers``, over files of more than two chunks."""

    @pytest.mark.parametrize("case", sorted(LONG_CASES))
    def test_same_arrays_or_same_error(self, case, tmp_path):
        header, make_rows, overrides, expected = LONG_CASES[case]
        path = tmp_path / "d.csv"
        end = LINE_ENDS.get(case, "\n")
        path.write_text(end.join([header or "bin,label,f0,f1,f2"] + make_rows()) + end, newline="")
        source = TabularSource(path=str(path), train_bins=3, **overrides)
        got = load_or_error(load_tabular, source)
        want = load_or_error(reference_load_tabular, source)
        if expected is None:
            assert not isinstance(want, Exception), want
        elif expected == "config":
            assert type(want) is ConfigError
        elif isinstance(expected, str):
            assert str(want).startswith(f"{path}: {expected}"), want
        else:
            assert str(want) == bad_lines_message(path, expected)
        assert_same_load(got, want)

    @pytest.mark.parametrize("case, loadtxt_calls, readers", [
        ("clean", 3, 1), ("quote-first-in-last-chunk", 2, 2), ("quoted-fields", 0, 2),
    ])
    def test_loadtxt_reads_each_chunk_until_a_quote(
        self, case, loadtxt_calls, readers, tmp_path, monkeypatch
    ):
        # both parsers give the same arrays, so only the calls show which one
        # read a file: a quote-free file never meets the csv module past its
        # header, and a quote restarts the load in one csv reader from row 1
        header, make_rows, _, _ = LONG_CASES[case]
        path = tmp_path / "d.csv"
        path.write_text("\n".join([header or "bin,label,f0,f1,f2"] + make_rows()) + "\n")
        source = TabularSource(path=str(path), train_bins=3)
        want = reference_load_tabular(source)
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "loadtxt", counted("loadtxt", np.loadtxt))
        monkeypatch.setattr(csv, "reader", counted("reader", csv.reader))
        assert_same_load(load_tabular(source), want)
        assert (calls.count("loadtxt"), calls.count("reader")) == (loadtxt_calls, readers)

    @pytest.mark.parametrize("rows, lines", [
        (lambda: long_rows()[:2 * CHUNK] + ["", ""], [2 * CHUNK + 2, 2 * CHUNK + 3]),
        (lambda: spoil([CHUNK + 3], row="2,1.0,1,2,3"), [CHUNK + 5]),
    ], ids=["last-chunk-blank", "label-1.0"])
    @pytest.mark.parametrize("action", ["error", "always"])
    def test_no_warning_escapes_a_load(self, rows, lines, action, tmp_path):
        # np.loadtxt warns on a chunk of blank lines; older numpy also on a
        # "1.0" read as an integer
        path = tmp_path / "d.csv"
        path.write_text("\n".join(["bin,label,f0,f1,f2"] + rows()) + "\n")
        source = TabularSource(path=str(path), train_bins=3)
        want = load_or_error(reference_load_tabular, source)
        assert str(want) == bad_lines_message(path, lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert_same_load(load_or_error(load_tabular, source), want)
        assert caught == []


# plain cells for each column, and odd ones that replace a cell in about one
# row in ten: quoted (some holding the delimiter or a line break), padded
# (by characters numpy and float() read alike as white space, and by ones
# they do not), empty, a stray quote, a NUL, a comment character, digits
# only float() reads
NUMBER = st.one_of(st.integers(-9, 99).map(str), st.floats(-1e3, 1e3).map(repr))
CELLS = {"bin": st.sampled_from(["0", "1", "2", "x"]), "label": st.sampled_from(["0", "0", "1"]),
         "f0": NUMBER, "f1": NUMBER}
ODD = st.sampled_from(
    ["", " 1 ", "+0", "1_0", "inf", "nan", "x", '"2"', '"a,b"', '"3\n"', '"4\r\n"', 'x"y', "1\0",
     "1\x1c", "\x1f0", "\xa01\x0b", "\u0661", "1#", "#0"]
)
# valid headers only: the loader checks the header before any row, the
# reference after all of them
HEADERS = [["bin", "label", "f0", "f1"]] * 3 + [
    ['"bin"', "label", "f0", "f1"], ["f0", "label", "f1", "bin"], ["bin", "label", "f0"]
]
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def small_csv_files(draw):
    """A delimiter, and the text of a file of up to 12 rows, each ended by
    ``\\n``, ``\\r\\n`` or ``\\r`` (the last one maybe not); some rows
    are blank, short or long."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    header = draw(st.sampled_from(HEADERS))
    lines = [delimiter.join(header) + draw(LINE_END)]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(CELLS[name.strip('"')]) for name in header]
        odd = draw(st.integers(0, 41))
        if odd < len(cells):
            cells[odd] = draw(ODD)
        cells = {4: [], 5: cells[:-1], 6: cells + ["9"]}.get(odd, cells)  # blank, short, long
        lines.append(delimiter.join(cells) + draw(LINE_END))
    text = "".join(lines)
    return delimiter, text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=small_csv_files(), timestamp_col=st.sampled_from(["bin", None]),
       field_limit=st.sampled_from([csv.field_size_limit()] * 3 + [12]))
def test_small_files_in_chunks_of_3_load_as_the_reference(
    file, timestamp_col, field_limit, tmp_path, monkeypatch
):
    # every example rewrites the one file; the 12-character field limit sends
    # long lines to the csv module and makes longer fields malformed CSV
    monkeypatch.setattr("batchad.data.CSV_CHUNK_ROWS", 3)
    delimiter, text = file
    path = tmp_path / "d.csv"
    path.write_text(text, newline="")
    source = TabularSource(path=str(path), timestamp_col=timestamp_col, train_bins=1,
                           delimiter=delimiter)
    default_limit = csv.field_size_limit(field_limit)
    try:
        got = load_or_error(load_tabular, source)
        want = load_or_error(reference_load_tabular, source)
    finally:
        csv.field_size_limit(default_limit)
    assert_same_load(got, want)


def assert_loadtxt_reads_as_float(strings):
    """np.loadtxt's float64 of each string, one a line, has the bits of its
    ``float()``; the chunked loader relies on it."""
    got = np.loadtxt(strings, np.float64, delimiter=",", comments=None, ndmin=1)
    want = np.array([float(s) for s in strings])
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert len(differ) == 0, [(strings[i], got[i], want[i]) for i in differ[:5]]


class TestLoadtxtReadsAsFloat:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=50))
    def test_written_floats(self, values):
        assert_loadtxt_reads_as_float(
            [text for v in values for text in (repr(v), format(v, ".17g"), format(v, ".12e"))]
        )

    def test_random_digit_strings(self):
        # up to 25 digits either side of the point, exponents from -330 to
        # 310: through subnormals, underflow to 0 and overflow to inf
        rng = np.random.default_rng(0)

        def digits(n):
            return "".join(map(str, rng.integers(0, 10, n)))

        strings = [
            f"{rng.choice(['', '-', '+'])}{digits(rng.integers(1, 26))}"
            f"{rng.choice(['', '.'])}{digits(rng.integers(0, 26))}e{rng.integers(-330, 311)}"
            for _ in range(20_000)
        ]
        assert_loadtxt_reads_as_float(strings)

    def test_hard_cases(self):
        # the least subnormal, the halfway point below it, the value under
        # the least normal that hung other parsers, 2**53 + 1, 1e23 (which
        # naive parsers misround), the greatest double and an overflow
        assert_loadtxt_reads_as_float([
            "4.9406564584124654e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
            "9007199254740993", "1e23", "1.7976931348623158e308", "1e400",
        ])


class TestStandardizer:
    def test_refit_is_idempotent(self, tmp_path):
        # the loaded training rows are already standardized: refitting on
        # them gives mean 0 and scale 1
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(200, 2))
        rows = [f"{i % 2},0,{a:.17g},{b:.17g}" for i, (a, b) in enumerate(x)] + ["2,0,1,1"]
        path = write_csv(tmp_path / "d.csv", rows)
        train, _ = load_tabular(TabularSource(path=path, train_bins=2))
        z = np.concatenate(train.pools)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_feature_kept(self, tmp_path):
        rows = [f"{i % 2},0,1,{i}" for i in range(10)] + ["2,0,1,3", "2,0,1,4"]
        path = write_csv(tmp_path / "d.csv", rows)
        train, test = load_tabular(TabularSource(path=path, train_bins=2))
        for z in train.pools + test.pools:
            assert np.all(np.isfinite(z))
            np.testing.assert_array_equal(z[:, 0], 0.0)
        # without a timestamp column the lone pool is standardized the same way
        path = write_csv(tmp_path / "n.csv", [f"0,1,{i}" for i in range(10)], header="label,f0,f1")
        train, _ = load_tabular(TabularSource(path=path, timestamp_col=None))
        np.testing.assert_array_equal(train.pools[0][:, 0], 0.0)


class TestAugmentWithPermutations:
    def make_meta(self, dim=4, k=3):
        spec = GaussianMetaSpec(
            dim=dim, train_distributions=max(k, 2), test_distributions=1,
            samples_per_distribution=30,
        )
        return generate_gaussian_metaset(spec, seed=2)[0]

    def test_zero_copies_is_noop(self):
        meta = self.make_meta()
        assert augment_with_permutations(meta, 0, seed=0) is meta

    def test_count_contract(self):
        meta = self.make_meta(k=3)
        out = augment_with_permutations(meta, 1, seed=0)
        assert out.k == 6
        out2 = augment_with_permutations(meta, 3, seed=0)
        assert out2.k == 12

    def test_originals_unchanged(self):
        meta = self.make_meta()
        before = [p.copy() for p in meta.pools]
        augment_with_permutations(meta, 2, seed=1)
        for old, now in zip(before, meta.pools):
            assert np.array_equal(old, now)

    def test_copies_are_column_permutations(self):
        meta = self.make_meta(k=2)
        out = augment_with_permutations(meta, 1, seed=3)
        orig, copy = out.pools[0], out.pools[2]
        assert sorted(map(tuple, orig.T.tolist())) == sorted(map(tuple, copy.T.tolist()))

    def test_one_dimensional_copies_identical(self):
        spec = GaussianMetaSpec(
            dim=1, train_distributions=2, test_distributions=1,
            samples_per_distribution=20,
        )
        meta = generate_gaussian_metaset(spec, seed=0)[0]
        out = augment_with_permutations(meta, 1, seed=0)
        assert np.array_equal(out.pools[0], out.pools[2])
