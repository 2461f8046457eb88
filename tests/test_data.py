import re
from dataclasses import replace

import numpy as np
import pytest

from attention_mamba.data import (
    DataError,
    EmptyFileError,
    NonNumericCellError,
    RaggedRowError,
    RawSeries,
    SplitDataset,
    SyntheticSpec,
    fit_apply_scaler,
    generate_synthetic,
    load_csv,
    make_windows,
    split_series,
    write_csv,
)

RNG = np.random.default_rng(53)

# Odd inputs and what load_csv makes of them: (values, names), or (error
# type, message after the path). The bulk parse must agree with the
# cell-by-cell float() scan on every one.
ODD_CSVS = {
    "extra_cell_after_timestamp": ("t,a\n2016-07-01,1.0\n2016-07-02,2.0,3.0\n",
                                   (RaggedRowError, "row 2 has 2 values, expected 1")),
    "hash_cell": ("1.0,2.0\n#3,4.0\n",
                  (NonNumericCellError, "non-numeric cell '#3' at row 2, column 1")),
    "whitespace_line_one_column": ("1.0\n \n2.0\n",
                                   (NonNumericCellError, "non-numeric cell ' ' at row 2, column 1")),
    "whitespace_line_two_columns": ("1.0,2.0\n \n3.0,4.0\n",
                                    (RaggedRowError, "row 2 has 1 values, expected 2")),
    "empty_cell": ("1.0,\n3.0,4.0\n",
                   (NonNumericCellError, "non-numeric cell '' at row 1, column 2")),
    "quoted_cells": ('"a","b"\n"1.5","2.5"\n', ([[1.5, 2.5]], ["a", "b"])),
    "quoted_timestamp_with_comma": ('date,x\n"Jul 1, 2016",1.0\n"Jul 2, 2016",2.0\n',
                                    ([[1.0], [2.0]], ["x"])),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", ([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])),
    "blank_lines": ("\n\na,b\n\n1,2\n\n\n3,4\n\n", ([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])),
    "underscore_digits": ("1_0,2\n", ([[10.0, 2.0]], ["v0", "v1"])),
    "fullwidth_digit": ("\uff11,2\n", ([[1.0, 2.0]], ["v0", "v1"])),
    "overflow": ("1.0,1e500\n",
                 (NonNumericCellError, "non-finite cell '1e500' at row 1, column 2")),
    "nan_after_timestamp": ("t,a\nx,NaN\n",
                            (NonNumericCellError, "non-finite cell 'NaN' at row 1, column 2")),
    "space_padded": (" 1.5 , 2.5\n", ([[1.5, 2.5]], ["v0", "v1"])),
    "tab_padded": ("\t1.5,2.5\t\n", ([[1.5, 2.5]], ["v0", "v1"])),
    "semicolon_delimiter": ("1;2\n3;4\n", (DataError, "no numeric columns")),
    "single_value": ("5\n", ([[5.0]], ["v0"])),
    "numeric_cell_in_timestamp_column": ("2016-07-01,1.0\n7,2.0\n", ([[1.0], [2.0]], ["v0"])),
    "numeric_looking_header_name": ("date,2020\nx,1.0\ny,2.0\n",
                                    ([[2020.0], [1.0], [2.0]], ["v0"])),
    "quoted_newline_in_header": ('"a\nb",c\n1,2\n', ([[1.0, 2.0]], ["a\nb", "c"])),
    "header_name_inf": ("date,load,inf\nx,1.0,2.0\n", ([[1.0, 2.0]], ["load", "inf"])),
    "header_name_nan": ("load,nan\n1.0,2.0\n", ([[1.0, 2.0]], ["load", "nan"])),
    "nan_first_data_cell": ("nan,1.0\n2.0,3.0\n",
                            (NonNumericCellError, "non-finite cell 'nan' at row 1, column 1")),
    # a leading byte-order mark, as spreadsheet programs write it
    "bom_numeric": ("\ufeff1.0,2.0\n3.0,4.0\n", ([[1.0, 2.0], [3.0, 4.0]], ["v0", "v1"])),
    "bom_header": ("\ufeffa,b\n1,2\n", ([[1.0, 2.0]], ["a", "b"])),
    "bom_ragged": ("\ufeff1.0,2.0\n3.0\n", (RaggedRowError, "row 2 has 1 values, expected 2")),
    # the Electricity, Traffic and Exchange header: column indices, then OT
    "column_index_header": ("date,0,1,OT\n2016-07-01 02:00:00,1.5,2.5,3.5\n2016-07-01 03:00:00,4.5,5.5,6.5\n",
                            ([[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]], ["0", "1", "OT"])),
    "bad_cell_in_first_row": ("1.0,abc\n2.0,3.0\n",
                              (NonNumericCellError, "non-numeric cell 'abc' at row 1, column 2")),
    "header_only": ("a,b\n", (EmptyFileError, "header only, no data rows")),
}


class TestLoadCsv:
    def test_plain_numeric_table(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        series = load_csv(p)
        assert series.values.shape == (3, 2)
        np.testing.assert_array_equal(series.values, [[1, 2], [3, 4], [5, 6]])
        assert series.names == ["v0", "v1"]

    def test_timestamp_column_dropped(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("2016-07-01 00:00,1.0,2.0\n2016-07-01 01:00,3.0,4.0\n")
        series = load_csv(p)
        assert series.values.shape == (2, 2)
        np.testing.assert_array_equal(series.values, [[1, 2], [3, 4]])

    def test_header_and_timestamp(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,load,temp\n2016-07-01,1.5,2.5\n2016-07-02,3.5,4.5\n")
        series = load_csv(p)
        assert series.names == ["load", "temp"]
        np.testing.assert_array_equal(series.values, [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(RaggedRowError, match="row 2"):
            load_csv(p)

    @pytest.mark.parametrize("text", ["a,b,c\n1.0,2.0\n3.0,4.0\n",
                                      "t,a\n2016-07-01,1.0,2.0\n2016-07-02,3.0,4.0\n"])
    def test_header_width_must_match_rows(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(RaggedRowError, match=r"header has \d column names, data rows have 2 values"):
            load_csv(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(NonNumericCellError, match="oops"):
            load_csv(p)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,a,b\n2016-07-01,1.0,2.0\n2016-07-02,3.0,nan\n")
        with pytest.raises(NonNumericCellError, match="'nan' at row 2, column 3"):
            load_csv(p)

    def test_negative_infinity_cell_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n-inf,4.0\n")
        with pytest.raises(NonNumericCellError, match="'-inf' at row 2, column 1"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(EmptyFileError):
            load_csv(p)

    @pytest.mark.parametrize("text, expected", ODD_CSVS.values(), ids=ODD_CSVS.keys())
    def test_odd_input_table(self, tmp_path, text, expected):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode("utf-8"))
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as info:
                load_csv(p)
            assert type(info.value) is expected[0]
            assert str(info.value) == f"{p}: {expected[1]}"
        else:
            series = load_csv(p)
            assert series.values.dtype == np.float64 and series.values.flags.c_contiguous
            assert np.array_equal(series.values, np.array(expected[0]))
            assert series.names == expected[1]

    def test_scan_decides_when_bulk_parse_finds_another_width(self, tmp_path, monkeypatch):
        p = tmp_path / "a.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: np.zeros((2, 3)))
        series = load_csv(p)
        assert np.array_equal(series.values, [[1.0, 2.0], [3.0, 4.0]])
        assert series.names == ["a", "b"]

    @pytest.mark.parametrize("offset", [4, 20000])
    def test_non_utf8_byte_is_a_data_error(self, tmp_path, offset):
        # 20000 lies past the first buffered chunk of the header read
        text = bytearray(b"temperature,b\n" + b"1.0,2.0\n" * 4000)
        text[offset] = 0xE9
        p = tmp_path / "latin1.csv"
        p.write_bytes(bytes(text))
        with pytest.raises(DataError, match=f"not UTF-8 text at byte offset {offset}$") as info:
            load_csv(p)
        assert str(p) in str(info.value)

    def test_write_read_round_trip_exact(self, tmp_path):
        values = RNG.standard_normal((100, 5))
        series = RawSeries(values=values, names=[f"v{i}" for i in range(5)])
        p = tmp_path / "round.csv"
        write_csv(p, series)
        loaded = load_csv(p)
        np.testing.assert_array_equal(loaded.values, values)
        assert loaded.names == series.names


class TestMakeWindows:
    def test_counting_example(self):
        values = RNG.standard_normal((10, 2))
        assert len(make_windows(values, 3, 2, (0, 10))) == 6

    def test_boundary_gives_empty(self):
        values = RNG.standard_normal((5, 2))
        assert make_windows(values, 3, 3, (0, 5)) == []

    def test_slicing_oracle(self):
        values = RNG.standard_normal((20, 3))
        for i, w in enumerate(make_windows(values, 4, 2, (0, 20))):
            np.testing.assert_array_equal(w.x, values[i:i + 4])
            np.testing.assert_array_equal(w.y, values[i + 4:i + 6])

    def test_count_formula_property_sweep(self):
        for total in (1, 2, 5, 9, 17, 30):
            values = np.zeros((total, 1))
            for lookback in (1, 2, 5):
                for horizon in (1, 3, 7):
                    expected = max(0, total - lookback - horizon + 1)
                    assert len(make_windows(values, lookback, horizon, (0, total))) == expected

    def test_target_membership_rule(self):
        # lookback may reach back before the region, target may not leave it
        values = np.arange(40, dtype=np.float64).reshape(40, 1)
        windows = make_windows(values, 5, 3, region=(20, 30))
        assert len(windows) == 10
        for w in windows:
            last_target = int(w.y[-1, 0])
            assert 20 <= last_target < 30

    def test_invalid_lengths_rejected(self):
        with pytest.raises(DataError, match=re.escape("lookback must be an integer >= 1, got 0")):
            make_windows(np.zeros((10, 1)), 0, 2, (0, 10))

    @pytest.mark.parametrize("lookback", [2.5, True])
    def test_lookback_not_an_int_rejected(self, lookback):
        with pytest.raises(DataError, match=re.escape(f"lookback must be an integer >= 1, got {lookback!r}")):
            make_windows(np.zeros((50, 3)), lookback, 3, (0, 50))


class TestSplits:
    def make(self, total=100, lookback=8, horizon=4):
        series = RawSeries(values=RNG.standard_normal((total, 3)), names=["a", "b", "c"])
        return split_series(series, lookback, horizon)

    def test_chronology(self):
        ds = self.make()
        assert ds.train_range[1] <= ds.val_range[0]
        assert ds.val_range[1] <= ds.test_range[0]
        assert ds.test_range[1] == 100

    def test_ratio_sizes(self):
        ds = self.make(total=100)
        assert ds.train_range == (0, 70)
        assert ds.val_range == (70, 80)
        assert ds.test_range == (80, 100)

    def test_windows_never_leak_targets_across_boundary(self):
        # values equal their timestep index, so targets are checkable directly
        values = np.arange(100, dtype=np.float64)[:, None] * np.ones((1, 3))
        ds = split_series(RawSeries(values=values, names=["a", "b", "c"]), 8, 4)
        for split in ("train", "val", "test"):
            start, end = getattr(ds, f"{split}_range")
            windows = ds.windows(split)
            assert windows, split
            for w in windows:
                last = int(w.y[-1, 0])
                assert start <= last < end

    def test_too_short_series_rejected(self):
        series = RawSeries(values=np.zeros((5, 2)), names=["a", "b"])
        with pytest.raises(DataError, match="need at least lookback\\+horizon=6"):
            split_series(series, 4, 2)

    @pytest.mark.parametrize("value", [-3, 0, 2.5, True])
    @pytest.mark.parametrize("name", ["lookback", "horizon"])
    def test_lengths_checked_on_entry(self, name, value):
        with pytest.raises(DataError, match=re.escape(f"{name} must be an integer >= 1, got {value!r}")):
            self.make(**{name: value})

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="unknown split 'validation'"):
            self.make().windows("validation")


class TestScaler:
    def test_constant_variate_scales_to_zero(self, caplog):
        series = RawSeries(values=np.full((30, 2), 5.0), names=["a", "b"])
        ds = fit_apply_scaler(split_series(series, 4, 2))
        np.testing.assert_array_equal(ds.values, np.zeros((30, 2)))
        assert "zero-variance variates [0, 1]: scale clamped to 1" in caplog.text

    def test_two_pass_statistics_oracle(self):
        values = RNG.standard_normal((64, 3)) * 2.5 - 1.0
        ds = fit_apply_scaler(SplitDataset(values, 4, 2, (0, 64), (64, 64), (64, 64)))
        mean = values.sum(axis=0) / 64
        std = np.sqrt(((values - mean) ** 2).sum(axis=0) / 64)
        np.testing.assert_allclose(ds.values, (values - mean) / std, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transform_bit_identical_to_subtract_then_divide(self, dtype):
        values = (RNG.standard_normal((50, 4)) * 3.0 + 2.0).astype(dtype)
        values[:, 3] = 7.0   # a clamped, zero-variance variate
        before = values.copy()
        got = fit_apply_scaler(SplitDataset(values, 4, 2, (0, 30), (30, 40), (40, 50))).values
        std = values[:30].std(axis=0)
        want = (values - values[:30].mean(axis=0)) / np.where(std < 1e-8, 1.0, std)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes()

    def test_statistics_use_train_range_only(self):
        values = RNG.standard_normal((100, 2))
        series = RawSeries(values=values.copy(), names=["a", "b"])
        ds1 = fit_apply_scaler(split_series(series, 4, 2))
        mutated = values.copy()
        mutated[80:] += 1000.0  # test region only
        ds2 = fit_apply_scaler(split_series(RawSeries(values=mutated, names=["a", "b"]), 4, 2))
        np.testing.assert_array_equal(ds1.values[:80], ds2.values[:80])

    def test_empty_train_range_rejected(self):
        series = RawSeries(values=RNG.standard_normal((30, 2)), names=["a", "b"])
        ds = replace(split_series(series, 4, 2), train_range=(5, 5))
        with pytest.raises(DataError, match="train range is empty"):
            fit_apply_scaler(ds)


class TestSynthetic:
    def test_shapes_and_names(self):
        series = generate_synthetic(SyntheticSpec(n_variates=4, timesteps=128))
        assert series.values.shape == (128, 4)
        assert series.names[0] == "v0"

    def test_seeded_determinism(self):
        a = generate_synthetic(SyntheticSpec(seed=7, timesteps=64)).values
        b = generate_synthetic(SyntheticSpec(seed=7, timesteps=64)).values
        assert np.array_equal(a, b)
        c = generate_synthetic(SyntheticSpec(seed=8, timesteps=64)).values
        assert not np.array_equal(a, c)
