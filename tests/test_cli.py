"""CLI surface: config parsing and precedence, CSV emission, exit codes,
round-trips and determinism. Optimizer effort is dialled down via config to
keep these fast."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from decoyqkd import (
    OptimizationSpec,
    ParameterError,
    SecurityParams,
    Variant,
    channel_from_preset,
    cli,
    optimize_point,
    optimizer,
)
from decoyqkd.cli import CSV_HEADER, _human_rate, _human_time, main, parse_config
from decoyqkd.optimizer import SweepResult, SweepRow

from conftest import assert_no_child_left, use_cores

FAST_KEYS = {"starts": 2, "rel_tol": 1e-3}


def run_cli(*args):
    return main(list(args))


def fast_config(tmp_path, **extra):
    payload = dict(FAST_KEYS)
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_preset_defaults(self):
        config = parse_config(None, {"preset": "snspd", "att": "26"})
        assert config.rep_rate_hz == 1e9
        assert config.dead_time_s == pytest.approx(1e-7)
        assert config.dark_count_prob == pytest.approx(1e-8)
        assert config.p_err == 0.01
        assert config.eps_sec == 1e-9
        assert config.eps_cor == 1e-15
        assert config.protocol == "both"

    def test_precedence_flags_over_file_over_preset(self):
        file_values = {"preset": "ingaas", "block_size": 1e6, "dead_time_s": 5e-6}
        config = parse_config(file_values, {"att": "26", "block_size": 1e5})
        assert config.block_size == 1e5  # flag wins
        assert config.dead_time_s == 5e-6  # file overrides the preset
        assert config.dark_count_prob == pytest.approx(1e-9)  # preset fills the rest

    def test_unknown_keys_listed(self):
        with pytest.raises(ParameterError, match="darkness, spam"):
            parse_config({"darkness": 1, "spam": 2}, {"att": "26"})

    def test_block_size_zero_rejected(self):
        with pytest.raises(ParameterError, match="block_size"):
            parse_config(None, {"att": "26", "block_size": 0.0})

    def test_att_grid_forms(self):
        assert parse_config(None, {"att": "10:20:5"}).att == (10.0, 15.0, 20.0)
        assert parse_config(None, {"att": "26"}).att == (26.0,)
        assert parse_config(None, {"att": "10,30"}).att == (10.0, 30.0)
        assert parse_config({"att": [12, 14]}, {}).att == (12.0, 14.0)

    def test_att_grid_errors(self):
        for bad in ("10:20", "20:10:5", "10:20:-1", ""):
            with pytest.raises(ParameterError, match="att"):
                parse_config(None, {"att": bad})

    @pytest.mark.parametrize("key, value", [
        ("distance_mode", True), ("db_per_km", 0.2), ("offset_db", 6.0),
    ])
    def test_km_grid_keys_are_unknown(self, key, value):
        """Attenuations are given in dB only."""
        with pytest.raises(ParameterError, match=rf"^unknown configuration keys: {key}$"):
            parse_config({key: value}, {"att": "26"})

    def test_seed_list_forms(self):
        assert parse_config(None, {"att": "26", "seed_list": "1,2,3"}).seed_list == (1, 2, 3)
        assert parse_config({"seed_list": [4, 5]}, {"att": "26"}).seed_list == (4, 5)

    def test_numeric_strings_and_whole_floats_accepted(self):
        config = parse_config({"block_size": "1e7", "starts": 1e2}, {"att": "26"})
        assert config.block_size == 1e7
        assert config.starts == 100 and isinstance(config.starts, int)

    @pytest.mark.parametrize("key, value", [
        ("starts", 2.5),
        ("starts", True),
        ("starts", "1e5"),
        ("seed_list", [4, False]),
        ("seed_list", ["2.5"]),
    ])
    def test_whole_number_keys_judged_as_the_library_judges(self, key, value):
        """--config and OptimizationSpec reject the same values in the same words."""
        with pytest.raises(ParameterError) as from_config:
            parse_config({key: value}, {"att": "26"})
        with pytest.raises(ParameterError) as from_spec:
            OptimizationSpec(Variant.ONE_DECOY, **{key: value})
        assert str(from_config.value) == str(from_spec.value)
        assert str(from_config.value).startswith(f"{key}: must be a whole number, got ")

    def test_whole_number_text_accepted_by_both(self):
        config = parse_config({"starts": "3", "seed_list": ["7", 9.0]}, {"att": "26"})
        spec = OptimizationSpec(Variant.ONE_DECOY, starts="3", seed_list=("7", 9.0))
        assert (config.starts, config.seed_list) == (spec.starts, spec.seed_list) == (3, (7, 9))


class TestCommands:
    def test_point_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        code = run_cli(
            "point", "--att", "26", "--protocol", "one",
            "--config", fast_config(tmp_path), "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "26" and row[1] == "one"
        assert row[9] == "" and row[12] == ""  # no mu3 cells for one-decoy

    def test_point_without_detections(self, tmp_path, capsys):
        """Without dark counts and with a transmittance that underflows to 0,
        no block can be collected: the command succeeds and prints both rows
        at 0 Hz with an infinite acquisition time."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dark_count_prob": 0}))
        assert run_cli("point", "--att", "4000", "--protocol", "both", "--config", str(config)) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        cells = [(row["protocol"], row["skr_hz"], row["acquisition_s"]) for row in rows]
        assert cells == [("one", "0", "inf"), ("two", "0", "inf")]

    @pytest.mark.parametrize("grid", ["-0", "-0,0", "0,-0"])
    def test_negative_zero_attenuation_prints_as_zero(self, tmp_path, capsys, grid):
        """-0 dB is the point at 0 dB: every spelling of the grid prints the
        same row, starting ``0,one,``."""
        assert run_cli("sweep", f"--att={grid}", "--protocol", "one",
                       "--config", fast_config(tmp_path)) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("0,one,")

    def test_point_rejects_grids(self, tmp_path, capsys):
        assert run_cli("point", "--att", "10:20:5") == 2
        assert "exactly one attenuation" in capsys.readouterr().err

    def test_sweep_rows_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--att", "25,20", "--config", fast_config(tmp_path),
                       "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["attenuation_db"], r["protocol"]) for r in rows] == [
            ("20", "one"), ("20", "two"), ("25", "one"), ("25", "two"),
        ]
        for r in rows:
            if float(r["key_length_bits"]) == 0.0:
                assert float(r["skr_hz"]) == 0.0

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--att", "30", "--config", fast_config(tmp_path), "--out", str(out))
        original = out.read_text()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rebuilt = [CSV_HEADER]
        for r in rows:
            cells = []
            for name in CSV_HEADER.split(","):
                value = r[name]
                if name == "protocol" or value == "":
                    cells.append(value)
                else:
                    cells.append(f"{float(value):.9g}")
            rebuilt.append(",".join(cells))
        assert "\n".join(rebuilt) + "\n" == original

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        config = fast_config(tmp_path, seed_list=[7, 9])
        run_cli("sweep", "--att", "30,35", "--config", config, "--out", str(out_a))
        run_cli("sweep", "--att", "30,35", "--config", config, "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_compare_outputs_difference_file(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = run_cli("compare", "--att", "30", "--config", fast_config(tmp_path),
                       "--out", str(out))
        assert code == 0
        diff = tmp_path / "cmp_diff.csv"
        lines = diff.read_text().splitlines()
        assert lines[0] == "attenuation_db,skr_one_hz,skr_two_hz,skr_difference"
        assert len(lines) == 2
        att, one, two, rel = lines[1].split(",")
        assert float(rel) == pytest.approx(
            (float(one) - float(two)) / float(two), rel=1e-6
        )

    def test_compare_pairs_rows_by_exact_attenuation(self, tmp_path):
        """Two attenuations 1e-8 dB apart are two grid points: each line of
        the diff file holds its own pair of rows, and both files print each
        attenuation with the digits that tell it from the other."""
        out = tmp_path / "cmp.csv"
        assert run_cli("compare", "--att", "26,26.00000001", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "cmp_diff.csv", newline="") as fh:
            diff = list(csv.DictReader(fh))
        pairs = [(r["skr_one_hz"], r["skr_two_hz"]) for r in diff]
        assert pairs == [(one["skr_hz"], two["skr_hz"]) for one, two in zip(rows[::2], rows[1::2])]
        assert pairs[0] != pairs[1]
        grid = ["26", "26.00000001"]
        assert [r["attenuation_db"] for r in rows] == [a for a in grid for _ in range(2)]
        assert [r["attenuation_db"] for r in diff] == grid

    def test_compare_needs_both(self, capsys):
        assert run_cli("compare", "--att", "30", "--protocol", "one") == 2
        assert "both" in capsys.readouterr().err

    def test_table1_structure(self, tmp_path):
        out = tmp_path / "t1.csv"
        code = run_cli("table1", "--config", fast_config(tmp_path, starts=1),
                       "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16  # 2 blocks x 4 attenuations x 2 protocols
        assert {r["n_z"] for r in rows} == {"10000000", "1e+09"}
        summary = (tmp_path / "t1_summary.txt").read_text()
        assert "n_Z = 1e+07" in summary and "n_Z = 1e+09" in summary
        assert "SKR  1-decoy" in summary and "Time 2-decoy" in summary

    # the unit is chosen after rounding to 3 significant digits: a value
    # that rounds up to a whole larger unit prints in it
    @pytest.mark.parametrize("skr_hz, text", [
        (999_950.0, "1 MHz"), (999.96, "1 kHz"), (999.4, "999 Hz"), (0.0, "0 Hz"),
        (247_000.0, "247 kHz"), (1e6, "1 MHz"), (math.inf, "inf MHz"),
    ])
    def test_summary_rate_units(self, skr_hz, text):
        assert _human_rate(skr_hz) == text

    @pytest.mark.parametrize("seconds, text", [
        (59.996, "1 min"), (3599.9, "1 H"), (86_399.0, "1 d"), (59.94, "59.9 s"),
        (59.95, "0.999 min"), (14.0, "14 s"), (6e6, "69.4 d"), (math.inf, "inf d"),
    ])
    def test_summary_time_units(self, seconds, text):
        assert _human_time(seconds) == text

    def test_presets_command(self, capsys):
        assert run_cli("presets") == 0
        captured = capsys.readouterr().out
        assert "snspd" in captured and "ingaas" in captured

    @pytest.mark.parametrize("args", [("--att", "nan"), ("--config", "/no/such/file.json")])
    def test_presets_takes_no_run_flags(self, capsys, args):
        # presets reads no configuration: a run flag once passed unread
        with pytest.raises(SystemExit) as exit_info:
            run_cli("presets", *args)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err

    def test_stdout_emission(self, tmp_path, capsys):
        code = run_cli("point", "--att", "30", "--protocol", "one",
                       "--config", fast_config(tmp_path))
        assert code == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)


class TestFailureModes:
    def test_validation_exit_code(self, capsys):
        assert run_cli("sweep", "--att", "26", "--block-size", "0") == 2
        assert "block_size" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert run_cli("sweep", "--att", "26", "--config", "/no/such/file.json") == 2

    @pytest.mark.parametrize("values, args", [
        ({"eps_sec": "abc"}, ()),
        ({"mu3_min": "abc"}, ()),
        # at the search box's mu2 floor, where the mu2 bracket would close
        ({"mu3_min": 0.005}, ("point", "--att", "26", "--protocol", "two")),
        ({"seed_list": ["a"]}, ()),
        ({"starts": "1e5"}, ()),
        ({"seed_list": 5}, ()),
        ({"preset": "nope"}, ()),
        ({"starts": 2.5}, ()),
        ({"att": True}, ()),
        ({"f_ec": 0.5}, ()),
        ({"p_err": 0.7}, ()),
        # non-finite record fields that once reached the optimizer
        ({"dead_time_s": math.inf, "dark_count_prob": 0, "starts": 1},
         ("point", "--att", "4000", "--protocol", "one")),
        ({"block_size": None}, ("point", "--att", "26", "--block-size", "inf")),
        # eps_sec**2 underflows: once a ZeroDivisionError traceback
        ({"eps_sec": None},
         ("point", "--att", "26", "--protocol", "one", "--eps-sec", "1e-170",
          "--block-size", "1e15")),
    ])
    def test_malformed_value_names_the_key(self, tmp_path, capsys, values, args):
        """The key named is the first of ``values``; None there leaves it to
        the flag in ``args``."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        assert run_cli(*(args or ("sweep", "--att", "26")), "--config", str(path)) == 2
        err = capsys.readouterr().err
        key = next(iter(values))
        assert err.startswith(f"error: {key}: ") and "Traceback" not in err

    @pytest.mark.parametrize("rel_tol, att", [
        # once a traceback: the NaN threshold left the search's tie list empty
        ("nan", "26"),
        # past the cutoff, 0 * -inf is NaN: the same traceback
        ("inf", "70"),
        (1, "26"),
        (0, "26"),
        (-1, "26"),
    ])
    def test_rel_tol_outside_the_unit_interval_exits_2(self, tmp_path, capsys, rel_tol, att):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rel_tol": rel_tol}))
        assert run_cli("point", "--att", att, "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err == "error: rel_tol: must be in (0, 1)\n"

    def test_pin_mu3_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("point", "--att", "26", "--pin-mu3")
        assert exit_info.value.code == 2
        assert "--pin-mu3" in capsys.readouterr().err

    def test_pin_mu3_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pin_mu3": True}))
        assert run_cli("point", "--att", "26", "--config", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: unknown configuration keys: pin_mu3")

    def test_max_evals_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"max_evals": 1000}))
        assert run_cli("point", "--att", "26", "--config", str(path)) == 2
        assert capsys.readouterr().err == "error: unknown configuration keys: max_evals\n"

    @pytest.mark.parametrize("key, value", [
        ("mu1_range", [0.05, 1.2]), ("mu2_min", 0.005), ("pz_range", [0.5, 0.99]),
    ])
    def test_search_box_keys_are_unknown(self, tmp_path, capsys, key, value):
        """The search box is the optimizer's, not a setting."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: value}))
        assert run_cli("point", "--att", "26", "--config", str(path)) == 2
        assert capsys.readouterr().err == f"error: unknown configuration keys: {key}\n"

    # Rejected values per OptimizationSpec field that a key sets.
    SPEC_REJECTIONS = {
        "mu3_min": (0.01,),  # not below the search box's mu2 floor, 0.005
        "starts": (0,),
        "seed_list": ([1.5],),
        "rel_tol": ("nan",),
    }

    def test_every_spec_key_has_a_rejection_case(self):
        spec_keys = {f.name for f in fields(OptimizationSpec)} & set(cli._KEYS)
        assert set(self.SPEC_REJECTIONS) == spec_keys

    @pytest.mark.parametrize("key", SPEC_REJECTIONS)
    def test_spec_rejection_names_the_key_before_any_work(self, tmp_path, monkeypatch,
                                                          capsys, key):
        calls = []
        monkeypatch.setattr(cli, "_sweep_chains", lambda *args: calls.append(args))
        path = tmp_path / "config.json"
        for value in self.SPEC_REJECTIONS[key]:
            path.write_text(json.dumps({key: value}))
            assert run_cli("point", "--att", "26", "--config", str(path)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: ") and "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("values, args", [
        ({}, ("point", "--att", "nan")),
        ({"att": [26, "nan"]}, ("sweep",)),
        # infinite: once 0 Hz with an acquisition time from dark counts alone
        ({}, ("point", "--att", "1e400", "--protocol", "one")),
        ({"att": [26, "inf"]}, ("sweep",)),
    ])
    def test_nan_attenuation_rejected_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                      values, args):
        calls = []
        monkeypatch.setattr(cli, "_sweep_chains", lambda *args: calls.append(args))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        assert run_cli(*args, "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: att: ") and err.rstrip().endswith(("nan", "inf"))
        assert calls == []

    @pytest.mark.parametrize("grid", ["0:1000000:1", "0:1e300:1", "0:inf:1", "0:1:1e-300"])
    def test_a_grid_over_the_point_limit_exits_2(self, monkeypatch, capsys, grid):
        """A START:STOP:STEP grid of more than ``_MAX_GRID_POINTS`` points is
        rejected before its list is built; 0:1e300:1 once grew until memory
        ran out."""
        calls = []
        monkeypatch.setattr(cli, "_sweep_chains", lambda *args: calls.append(args))
        start = time.perf_counter()
        assert run_cli("sweep", "--att", grid) == 2
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == "error: att: the grid holds more than 1000000 points\n"
        assert calls == []

    def test_the_grid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 11)
        assert parse_config(None, {"att": "0:10:1"}).att == tuple(map(float, range(11)))
        with pytest.raises(ParameterError, match="^att: the grid holds more than 11 points$"):
            parse_config(None, {"att": "0:11:1"})

    @pytest.mark.parametrize("command", ["sweep", "point", "compare"])
    def test_grid_required(self, command, capsys):
        assert run_cli(command) == 2
        assert "error: att: " in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("sweep", "--att", "26", "--config", str(bad)) == 2

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"starts": 1}]))
        assert run_cli("point", "--att", "26", "--config", str(path)) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_io_failure_leaves_no_partial_files(self, tmp_path, capsys):
        target_dir = tmp_path / "missing"
        out = target_dir / "x.csv"
        code = run_cli("sweep", "--att", "30", "--config", fast_config(tmp_path),
                       "--out", str(out))
        assert code == 3
        assert not target_dir.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_io_failure_after_a_file_is_in_place_removes_it(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        (tmp_path / "cmp_diff.csv").mkdir()  # the second rename fails
        code = run_cli("compare", "--att", "30", "--config", fast_config(tmp_path),
                       "--out", str(out))
        assert code == 3
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestModelSwitches:
    """The flags of the model switches reach the records that hold them."""

    @pytest.mark.parametrize("flag, value, record", [
        ("--deadtime-mode", "allclicks", "channel"),
        ("--s0-upper-mode", "total", "sec"),
    ])
    def test_flag_reaches_the_numbers(self, capsys, flag, value, record):
        args = ("point", "--att", "26", "--protocol", "one")
        assert run_cli(*args) == 0
        default = capsys.readouterr().out.splitlines()[1]
        assert run_cli(*args, flag, value) == 0
        row = capsys.readouterr().out.splitlines()[1]
        key = flag[2:].replace("-", "_")
        records = {
            "channel": channel_from_preset("snspd", 26.0),
            "sec": SecurityParams(1e-9, 1e-15, 1e7),
        }
        records[record] = replace(records[record], **{key: value})
        params, rate = optimize_point(
            records["channel"], records["sec"], OptimizationSpec(Variant.ONE_DECOY)
        )
        config = parse_config(None, {"att": "26", "protocol": "one", key: value})
        result = SweepResult((SweepRow(26.0, Variant.ONE_DECOY, params, rate),))
        assert cli._csv_rows(result, config) == [row]
        assert row != default

    def test_gamma_base_is_no_configuration_key(self):
        with pytest.raises(ParameterError, match="unknown configuration keys: gamma_base"):
            parse_config({"gamma_base": 19.0}, {"att": "26"})


class TestParallelChains:
    """Chains run in forked workers when more than one core is usable, in one
    round: two walks per chain of several points, one search per single point.
    The output and every failure must be those of the serial run."""

    @pytest.mark.parametrize("command, args, files", [
        ("table1", ("--config",), ("out.csv", "out_summary.txt")),
        ("compare", ("--att", "26,46,56", "--protocol", "both", "--config"),
         ("out.csv", "out_diff.csv")),
    ])
    def test_byte_identical_to_the_serial_run(self, tmp_path, monkeypatch, capsys,
                                              command, args, files):
        config = fast_config(tmp_path, starts=1)
        outputs = {}
        for cores in ({0}, {0, 1}):
            forks = use_cores(monkeypatch, cores)
            folder = tmp_path / str(len(cores))
            folder.mkdir()
            assert run_cli(command, *args, config, "--out", str(folder / "out.csv")) == 0
            assert len(forks) == len(cores) - 1
            outputs[len(cores)] = [(folder / name).read_bytes() for name in files]
            assert_no_child_left()
        assert outputs[1] == outputs[2]

    @staticmethod
    def fake_search(monkeypatch, in_child):
        """A point's search refusing the 2-decoy points, and doing ``in_child``
        first in a forked worker."""
        parent, search = os.getpid(), optimizer._search

        def fake(channel, sec, spec):
            if os.getpid() != parent:
                in_child(spec.variant)
            if spec.variant is Variant.TWO_DECOY:
                raise ParameterError("sweep: 2-decoy point refused")
            return search(channel, sec, spec)

        monkeypatch.setattr(optimizer, "_search", fake)

    @pytest.mark.parametrize("command", [
        ("compare", "--protocol", "both", "--att", "26"),  # the worker raises
        ("table1",),  # the parent raises while the worker still runs
    ])
    def test_a_failing_chain_fails_as_in_the_serial_run(self, tmp_path, monkeypatch,
                                                        capsys, command):
        def in_child(variant):
            if variant is Variant.ONE_DECOY:
                time.sleep(60)  # table1: must be killed when the parent's share fails

        self.fake_search(monkeypatch, in_child)
        config = ("--config", fast_config(tmp_path, starts=1))
        errors = []
        for cores in ({0}, {0, 1}):
            forks = use_cores(monkeypatch, cores)
            start = time.perf_counter()
            assert run_cli(*command, *config) == 2
            assert time.perf_counter() - start < 30
            assert len(forks) == len(cores) - 1
            errors.append(capsys.readouterr().err)
            assert_no_child_left()
        assert errors[0] == errors[1] == "error: sweep: 2-decoy point refused\n"

    @pytest.mark.parametrize("att, names", [
        ("26", "two-decoy at 26 dB, n_Z=1e\\+07"),
        # snake order: the parent walks the first chain up and the second
        # down, the worker the first down and the second up
        ("26,46", "one-decoy walk down from 46 dB, n_Z=1e\\+07; "
                  "two-decoy walk up from 26 dB, n_Z=1e\\+07"),
    ])
    def test_a_worker_that_dies_is_named(self, tmp_path, monkeypatch, capsys, att, names):
        """A dead worker is named by its tasks: a single point's search, or
        the walks of a chain of several points."""
        parent, search = os.getpid(), optimizer._search

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return search(*args)

        monkeypatch.setattr(optimizer, "_search", dying)
        forks = use_cores(monkeypatch, {0, 1})
        message = rf"^the worker for {names} exited without a result \(exit status 3\)$"
        with pytest.raises(RuntimeError, match=message):
            run_cli("compare", "--protocol", "both", "--att", att)
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_failed_fork_leaves_the_share_to_the_parent(self, tmp_path, monkeypatch, capsys):
        """A fork that fails (EAGAIN) closes its pipe and runs its chains in the
        process, with the bytes of the one-core run."""
        args = ("compare", "--protocol", "both", "--att", "26",
                "--config", fast_config(tmp_path, starts=1))
        use_cores(monkeypatch, {0})
        assert run_cli(*args) == 0
        serial = capsys.readouterr()
        use_cores(monkeypatch, {0, 1})

        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        pipes, pipe = [], os.pipe

        def recording_pipe():
            fds = pipe()
            pipes.extend(fds)
            return fds

        monkeypatch.setattr(os, "fork", failing_fork)
        monkeypatch.setattr(os, "pipe", recording_pipe)
        assert run_cli(*args) == 0
        assert capsys.readouterr() == serial
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError) as closed:
                os.fstat(fd)
            assert closed.value.errno == errno.EBADF

    def test_in_process_without_fork(self, tmp_path, monkeypatch, capsys):
        use_cores(monkeypatch, {0, 1})
        monkeypatch.delattr(os, "fork")
        assert run_cli("compare", "--protocol", "both", "--att", "26",
                       "--config", fast_config(tmp_path)) == 0

    def test_in_process_beside_other_threads(self, tmp_path, monkeypatch, capsys):
        forks = use_cores(monkeypatch, {0, 1})
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert run_cli("compare", "--protocol", "both", "--att", "26",
                           "--config", fast_config(tmp_path)) == 0
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert forks == []

    def test_earlier_output_is_printed_once(self):
        """A worker leaves by os._exit, so it never flushes the stdout buffer it
        shares with the parent (block-buffered when piped)."""
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork = os.fork\n"
            "def counting_fork():\n"
            "    sys.stderr.write('forking\\n')\n"
            "    return fork()\n"
            "os.fork = counting_fork\n"
            "print('printed before main')\n"
            "from decoyqkd.cli import main\n"
            "sys.exit(main(['compare', '--protocol', 'both', '--att', '26']))\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "forking\n"
        lines = done.stdout.splitlines()
        assert lines.count("printed before main") == 1
        assert lines.count(CSV_HEADER) == 1
