"""Command-line surface: config handling, CSV schema, exit codes."""

import hashlib
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from multispin import cli, rng
from multispin.cli import (
    CSV_HEADER,
    ENV_THREADS,
    SimConfig,
    build_config,
    build_parser,
    main,
    parse_config_file,
    parse_temperatures,
)

SMALL = ("--m", "12", "--n", "96", "--sweeps", "10", "--measure-interval", "10")
ROOT = Path(__file__).resolve().parent.parent
READS = {  # the config keys each simulation command reads
    "simulate": {"m", "n", "temperature", "j", "sweeps", "measure_interval", "n_sim", "seed",
                 "init", "threads", "output"},
    "validate": {"m", "n", "temperature", "j", "sweeps", "measure_interval", "n_sim", "seed",
                 "init", "threads", "tolerance", "disordered_cap"},
    "bench": {"m", "n", "temperature", "j", "sweeps", "n_sim", "seed", "init", "threads",
              "warmup"},
}


def small(command):
    """SMALL, less the --measure-interval flag that bench does not define."""
    return SMALL[:-2] if command == "bench" else SMALL


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


class TestTemperatureSpec:
    def test_single_and_list(self):
        assert parse_temperatures("2.0") == (2.0,)
        assert parse_temperatures("1.0,1.5, 2.0") == (1.0, 1.5, 2.0)

    def test_range(self):
        assert parse_temperatures("1.0:3.0:0.5") == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_range_endpoint_inclusive_with_rounding(self):
        temps = parse_temperatures("2.0:2.6:0.05")
        assert len(temps) == 13
        assert temps[0] == 2.0 and temps[-1] == 2.6

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_temperatures("1.0:2.0")
        with pytest.raises(ValueError):
            parse_temperatures("2.0:1.0:-0.5")


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "m = 12\n"
            "n = 96\n"
            "temperature = 2.0   # trailing comment\n"
            "sweeps = 40\n"
            "measure_interval = 20\n"
            "seed = 9\n"
        )
        out = tmp_path / "a.csv"
        assert run_cli("simulate", "--config", str(cfg), "--output", str(out)) == 0
        rows_a = out.read_text().splitlines()
        assert rows_a[0] == CSV_HEADER
        assert len(rows_a) == 3  # header + 2 measurements

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 12\nn = 96\ntemperature = 2.0\nsweeps = 40\nmeasure_interval = 20\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli("simulate", "--config", str(cfg), "--output", str(out1)) == 0
        assert (
            run_cli("simulate", "--config", str(cfg), "--sweeps", "20", "--output", str(out2)) == 0
        )
        assert len(out2.read_text().splitlines()) == 2  # header + 1 measurement

    def test_env_threads_beats_config_but_not_flags(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 12\nn = 96\ntemperature = 1.0,2.0\nsweeps = 10\nmeasure_interval = 10\nthreads = 1\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv(ENV_THREADS, "2")
        assert run_cli("simulate", "--config", str(cfg), "--output", str(out1)) == 0
        assert run_cli("simulate", "--config", str(cfg), "--threads", "1", "--output", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()  # same numbers either way

    def test_default_is_one_thread(self, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        args = build_parser().parse_args(["simulate", "--temperature", "1.0:3.0:0.5"])
        cfg = build_config(args)
        assert cfg.threads == 1 and cfg.effective_threads() == 1

    def test_values_take_the_field_types(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j = 1\nwarmup = 3\ninit = all-up\nn_sim = 2\n")
        bench = build_config(build_parser().parse_args(["bench", "--config", str(cfg)]))
        cfg.write_text("tolerance = 0.05\n")
        validate = build_config(build_parser().parse_args(["validate", "--config", str(cfg)]))
        values = (bench.j, bench.warmup, validate.tolerance, bench.init, bench.n_sim)
        assert values == (1.0, 3, 0.05, "all-up", 2)
        assert [type(v) for v in values] == [float, int, float, str, int]
        cfg.write_text("m = 12\nn = 96\nsweeps = 1.5\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "1.5" in captured.err

    def test_malformed_line_reports_location(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m 12\n")
        with pytest.raises(ValueError, match="bad.cfg:1"):
            parse_config_file(str(cfg))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("walrus = 7\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2
        assert "walrus" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(READS))
    def test_each_command_reads_its_own_keys(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        names = {f.name for f in fields(SimConfig)}
        assert set(vars(build_parser().parse_args([command]))) & names == READS[command]
        # every key the command reads, each away from its default, from a config file
        values = {"m": "12", "n": "96", "temperature": "2.5", "j": "0.5", "sweeps": "40",
                  "measure_interval": "2", "n_sim": "2", "seed": "3", "init": "all-up",
                  "threads": "2", "output": "x.csv", "tolerance": "0.05",
                  "disordered_cap": "0.2", "warmup": "2"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {values[key]}\n" for key in READS[command]))
        built = build_config(build_parser().parse_args([command, "--config", str(cfg)]))
        assert all(getattr(built, key) != getattr(SimConfig(), key) for key in READS[command])

    @pytest.mark.parametrize("command, key", [
        ("simulate", "warmup"), ("simulate", "tolerance"), ("simulate", "disordered_cap"),
        ("validate", "warmup"), ("validate", "output"),  # output is simulate-only
        ("bench", "tolerance"), ("bench", "disordered_cap"), ("bench", "output"),
        ("bench", "measure_interval"),
    ])
    def test_unread_config_key_rejected(self, tmp_path, capsys, command, key):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {out if key == 'output' else 5}\n")
        extra = ("--output", str(out)) if command == "simulate" else ()
        assert run_cli(command, "--config", str(cfg), *small(command), *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}: config key {key!r} is not read by {command}" in captured.err
        assert not out.exists()

    def test_bench_rejects_measure_interval_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--m", "12", "--n", "96", "--sweeps", "1", "--measure-interval", "5")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--measure-interval" in captured.err

    def test_bad_dims_message_quotes_rules(self, capsys):
        assert run_cli("simulate", "--m", "14", "--n", "96") == 2
        err = capsys.readouterr().err
        assert "multiple of 4" in err
        assert run_cli("simulate", "--m", "12", "--n", "95") == 2
        assert "multiple of 32" in capsys.readouterr().err


class TestInputHardening:
    """Input that cannot run exits 2 before writing anything."""

    def expect_rejected(self, capsys, *argv, match):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert match in captured.err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_flag(self, capsys, threads):
        self.expect_rejected(capsys, "simulate", *SMALL, "--threads", threads,
                             match="threads must be at least 1")

    def test_threads_below_one_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 0\n")
        self.expect_rejected(capsys, "simulate", "--config", str(cfg), *SMALL,
                             match="threads must be at least 1")

    def test_threads_below_one_env(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "-3")
        self.expect_rejected(capsys, "simulate", *SMALL, match="threads must be at least 1")

    def test_non_integer_env_threads_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "abc")
        self.expect_rejected(capsys, "simulate", *SMALL, match=f"{ENV_THREADS}: invalid literal")

    def test_non_integer_config_value_names_file_and_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = two\n")
        self.expect_rejected(capsys, "simulate", "--config", str(cfg), *SMALL,
                             match=f"{cfg}: config key 'threads': invalid literal")

    # Single values get check_temperature's message, ranges parse_temperatures'.
    @pytest.mark.parametrize("spec, match", [pytest.param(spec, match, id=spec) for spec, match in [
        *[(spec, f"temperature must be finite and positive, got {bad}")
          for spec, bad in (("nan", "nan"), ("inf", "inf"), ("2.0,-inf", "-inf"), ("0", "0.0"))],
        *[(spec, f"temperatures must be finite and positive, got range {spec!r}")
          for spec in ("1:inf:1", "-inf:1:1", "1:nan:1")],
    ]])
    def test_bad_temperature(self, capsys, spec, match):
        # one token, so argparse takes "-inf:1:1" as a value, not an option
        self.expect_rejected(capsys, "simulate", *SMALL, f"--temperature={spec}", match=match)

    @pytest.mark.parametrize("j", ["nan", "inf"])
    def test_non_finite_coupling(self, capsys, j):
        self.expect_rejected(capsys, "simulate", *SMALL, "--j", j, match="must be finite")

    def test_validate_too_few_measurements(self, capsys):
        self.expect_rejected(capsys, "validate", "--m", "12", "--n", "96", "--sweeps", "19",
                             "--measure-interval", "1", match="at least 20 measurements")

    def test_bench_without_timed_sweeps(self, capsys):
        self.expect_rejected(capsys, "bench", "--m", "12", "--n", "96", "--sweeps", "0",
                             match="at least one timed sweep")

    @pytest.mark.parametrize("command", ["simulate", "validate", "bench"])
    def test_no_simulations(self, capsys, command):
        self.expect_rejected(capsys, command, *small(command), "--n-sim", "0",
                             match="n_sim must be at least 1")

    @pytest.mark.parametrize("command", ["simulate", "validate", "bench"])
    def test_empty_temperature_list(self, capsys, command):
        self.expect_rejected(capsys, command, *small(command), "--temperature", ",",
                             match="need at least one temperature")

    def test_bench_negative_warmup(self, capsys):
        self.expect_rejected(capsys, "bench", *small("bench"), "--warmup", "-1",
                             match="warmup must be non-negative")

    @pytest.mark.parametrize("flag", ["--tolerance", "--disordered-cap"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_validate_bad_judging_bounds(self, capsys, flag, value):
        self.expect_rejected(capsys, "validate", "--m", "12", "--n", "96", "--sweeps", "40",
                             "--measure-interval", "1", flag, value,
                             match="must be finite and non-negative")

    @pytest.mark.parametrize("line", ["tolerance = nan", "disordered_cap = -1"])
    def test_validate_bad_judging_bounds_config(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        self.expect_rejected(capsys, "validate", "--config", str(cfg), "--m", "12", "--n", "96",
                             "--sweeps", "40", "--measure-interval", "1",
                             match="must be finite and non-negative")

    @pytest.mark.parametrize("j", ["0", "-1"])
    def test_validate_nonpositive_coupling(self, capsys, j):
        self.expect_rejected(capsys, "validate", "--m", "12", "--n", "96", "--sweeps", "40",
                             "--measure-interval", "1", "--j", j, match="j must be positive")

    def test_validate_nonpositive_coupling_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("j = -0.5\n")
        self.expect_rejected(capsys, "validate", "--config", str(cfg), "--m", "12", "--n", "96",
                             "--sweeps", "40", "--measure-interval", "1",
                             match="j must be positive")

    @pytest.mark.parametrize("command", ["simulate", "validate", "bench"])
    def test_unknown_init_in_config(self, tmp_path, capsys, command):
        # Config values skip argparse's choices, so build_config checks them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("init = sideways\n")
        interval = () if command == "bench" else ("--measure-interval", "1")
        self.expect_rejected(capsys, command, "--config", str(cfg), "--m", "12", "--n", "96",
                             "--sweeps", "40", *interval,
                             match="init must be one of random, all-up")

    def test_unwritable_output_fails_before_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_simulations", lambda *a, **k: calls.append(a))
        self.expect_rejected(capsys, "simulate", *SMALL,
                             "--output", str(tmp_path / "missing" / "x.csv"),
                             match="No such file or directory")
        assert calls == []

    def test_failed_run_leaves_output_empty(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("run failed")

        out = tmp_path / "x.csv"
        out.write_text("old rows\n")
        monkeypatch.setattr(cli, "run_simulations", fail)
        self.expect_rejected(capsys, "simulate", *SMALL, "--output", str(out), match="run failed")
        assert out.read_bytes() == b""

    @pytest.mark.parametrize("command", ["validate", "bench"])
    def test_output_is_simulate_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *small(command), "--output", str(tmp_path / "x.csv"))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--output" in captured.err
        assert not (tmp_path / "x.csv").exists()

    def test_output_config_key_honoured_by_simulate(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {out}\n")
        assert run_cli("simulate", "--config", str(cfg), *SMALL) == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    @pytest.mark.parametrize("seed", [str(-1), str(1 << 64)])
    @pytest.mark.parametrize("command", ["simulate", "validate", "bench", "rngtest"])
    def test_seed_outside_64_bits(self, tmp_path, capsys, command, seed):
        flags = ("--bits", "1000") if command == "rngtest" else small(command)
        self.expect_rejected(capsys, command, *flags, "--seed", seed,
                             match="seed must be in [0, 2**64)")

    @pytest.mark.parametrize("seed", [str(-5), str((1 << 64) + 7)])
    def test_seed_outside_64_bits_in_config(self, tmp_path, capsys, seed):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "x.csv"
        cfg.write_text(f"seed = {seed}\n")
        self.expect_rejected(capsys, "simulate", "--config", str(cfg), *SMALL,
                             "--output", str(out), match="seed must be in [0, 2**64)")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", str((1 << 64) - 1)])
    def test_seed_edges_run(self, capsys, seed):
        assert run_cli("simulate", *SMALL, "--seed", seed) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)
        assert run_cli("rngtest", "--bits", "1000", "--floats", "0", "--seed", seed) in (0, 1)
        assert f"seed {seed}:" in capsys.readouterr().out

    @pytest.mark.parametrize("bits", ["0", "127", "-5"])
    def test_rngtest_too_few_bits(self, capsys, bits):
        self.expect_rejected(capsys, "rngtest", "--bits", bits, match="at least 128")

    def test_rngtest_too_few_bits_from_file(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("01" * 200 + "\n")
        self.expect_rejected(capsys, "rngtest", "--file", str(path), "--bits", "100",
                             match="at least 128")

    def test_rngtest_short_file(self, tmp_path, capsys):
        path = tmp_path / "bits.txt"
        path.write_text("01" * 50 + "\n")
        self.expect_rejected(capsys, "rngtest", "--file", str(path), "--bits", "0",
                             match="needs at least 128")

    def test_rngtest_negative_floats(self, capsys):
        self.expect_rejected(capsys, "rngtest", "--bits", "1000", "--floats", "-1",
                             match="--floats must be non-negative")


class TestSimulateCsv:
    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "t.csv"
        assert (
            run_cli(
                "simulate", "--m", "12", "--n", "96", "--temperature", "2.0",
                "--sweeps", "100", "--measure-interval", "10",
                "--seed", "5", "--output", str(out),
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "10" and first[1] == "0" and first[2] == "2"
        assert float(first[3]) <= 1.0
        # locale independence: every number uses '.' and no separators
        body = "\n".join(lines[1:])
        assert "," in body and ";" not in body and " " not in body

    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "simulate", "--m", "12", "--n", "96", "--temperature", "1.5,2.5",
            "--sweeps", "30", "--measure-interval", "10", "--seed", "6",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(*args, "--output", str(a)) == 0
        assert run_cli(*args, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        base = [
            "simulate", "--m", "12", "--n", "96", "--temperature", "1.0:3.0:0.5",
            "--sweeps", "20", "--measure-interval", "10", "--seed", "7",
        ]
        one = tmp_path / "one.csv"
        four = tmp_path / "four.csv"
        assert run_cli(*base, "--threads", "1", "--output", str(one)) == 0
        assert run_cli(*base, "--threads", "4", "--output", str(four)) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_range_maps_to_parallel_sims(self, tmp_path):
        out = tmp_path / "r.csv"
        assert (
            run_cli(
                "simulate", "--m", "12", "--n", "96", "--temperature", "1.0:3.0:0.5",
                "--sweeps", "10", "--measure-interval", "10", "--output", str(out),
            )
            == 0
        )
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 5
        assert [row.split(",")[1] for row in lines] == ["0", "1", "2", "3", "4"]
        assert [row.split(",")[2] for row in lines] == ["1", "1.5", "2", "2.5", "3"]

    def test_zero_coupling_prints_no_negative_zero(self, capsys):
        assert run_cli("simulate", *SMALL, "--j", "0") == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.split(",")[4] == "0" for row in rows)

    def test_stdout_default(self, capsys):
        assert (
            run_cli(
                "simulate", "--m", "12", "--n", "96", "--temperature", "2.0",
                "--sweeps", "10", "--measure-interval", "10",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)


class TestGoldenCsv:
    """SHA-256 of small simulate runs, measured every sweep.

    Any change to these bytes changes the sampler, the measurement or the
    CSV format.  A change that means to do so updates the pins and says so.
    """

    GOLDEN = {
        ("all-up", "1"): "f617a7fe3d61d33f565e0d583a38a46dba789704552295aee284ca93cc9ec5da",
        ("random", "-0.7"): "a1d0f893b5aa951a5025b2a5974b9a9ef802fb0a70f15a6d9a06d4a98889b84e",
        ("random", "0"): "f5ccc41dba954103da18e557c65b77bf4c18691acf6fc74ea528e63b9163a519",
    }

    @pytest.mark.parametrize("init, j", list(GOLDEN))
    def test_csv_bytes_pinned(self, tmp_path, init, j):
        out = tmp_path / "run.csv"
        assert run_cli("simulate", "--m", "12", "--n", "96", "--temperature", "2.0,2.5",
                       "--sweeps", "20", "--measure-interval", "1", "--seed", "1",
                       "--init", init, "--j", j, "--output", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[init, j]


class TestValidate:
    def test_single_temperature_report(self, capsys):
        code = run_cli(
            "validate", "--m", "32", "--n", "32", "--temperature", "1.0",
            "--sweeps", "300", "--measure-interval", "10", "--init", "all-up",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out
        assert "Tc estimate omitted" in out  # single T cannot span Tc

    def test_failing_temperature_sets_exit_code(self, capsys):
        # a few sweeps from a random start cannot order at T=1.5: expect FAIL
        code = run_cli(
            "validate", "--m", "32", "--n", "32", "--temperature", "1.5",
            "--sweeps", "30", "--measure-interval", "1", "--init", "random",
            "--seed", "8",
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestBench:
    def test_reports_metrics_and_counts(self, capsys):
        code = run_cli(
            "bench", "--m", "12", "--n", "96", "--temperature", "2.0",
            "--sweeps", "20", "--n-sim", "4", "--warmup", "2",
        )
        out = capsys.readouterr().out
        assert code == 0
        for n_sim in (1, 2, 4):
            assert f"\n{n_sim:6d} " in out
        assert "flips/ns" in out and "T_iter" in out
        # attempts column doubles with n_sim
        rows = [l.split() for l in out.splitlines() if l and l[0] == " " and l.strip()[0].isdigit()]
        attempts = [int(r[1]) for r in rows]
        assert attempts[1] == 2 * attempts[0] and attempts[2] == 2 * attempts[1]
        # the process peak so far never falls down the ladder
        peaks = [float(r[5]) for r in rows]
        assert "peak RSS (MB)" in out and 0 < peaks[0] <= peaks[1] <= peaks[2]
        assert "not reproducible" in out

    def test_peak_rss_in_million_bytes(self, capsys, monkeypatch):
        # ru_maxrss is KiB on Linux; 100000 KiB is 102.4 MB of 10**6 bytes.
        monkeypatch.setattr(cli.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=100000))
        assert run_cli("bench", "--m", "12", "--n", "96", "--sweeps", "1", "--warmup", "0") == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines()
                if l and l[0] == " " and l.strip()[0].isdigit()]
        assert [r[5] for r in rows] == ["102.4"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_attempt_counts_at_thread_counts(self, capsys, threads):
        code = run_cli(
            "bench", "--m", "12", "--n", "96", "--temperature", "2.0", "--sweeps", "5",
            "--n-sim", "3", "--warmup", "1", "--threads", str(threads),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"threads={threads}" in out
        rows = [l.split() for l in out.splitlines() if l and l[0] == " " and l.strip()[0].isdigit()]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(n, 12 * 96 * n * 5) for n in (1, 2, 3)]


class TestRngTest:
    def test_internal_small_battery(self, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        code = run_cli(
            "rngtest", "--bits", "150000", "--floats", "50000", "--seed", "3",
            "--csv", str(csv),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "monobit" in out and "lag1_joint" in out
        rows = csv.read_text().splitlines()
        assert rows[0] == "name,p_value,passed"
        assert len(rows) >= 10

    def test_all_zero_file_fails(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0" * 4000 + "\n")
        code = run_cli("rngtest", "--file", str(path), "--bits", "0")
        assert code == 1
        out = capsys.readouterr().out
        assert "monobit" in out and "FAIL" in out

    def test_file_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0101x\n")
        assert run_cli("rngtest", "--file", str(path)) == 2
        assert ":1:" in capsys.readouterr().err


class TestSelftest:
    def test_passes_and_repeats(self, capsys):
        assert run_cli("selftest") == 0
        first = capsys.readouterr().out
        assert first.count("pass") >= 6
        assert "FAIL" not in first
        assert run_cli("selftest") == 0
        second = capsys.readouterr().out
        strip_times = lambda s: [l.split()[:-2] for l in s.splitlines()]
        assert strip_times(first) == strip_times(second)

    def test_names_the_numpy_draw_path(self, capsys, monkeypatch):
        monkeypatch.setattr(rng, "_kernel_handle", None)
        assert run_cli("selftest") == 0
        assert "draw blocks vs scalar streams (numpy, 40)" in capsys.readouterr().out


class TestSelftestPlantedFaults:
    """A planted fault fails exactly the selftest lines that should see it."""

    AUDITS = {"replay, halo, neighbor audit (12x96, J=+1)",
              "replay, halo, neighbor audit (12x96, J=-1)"}

    def failing_lines(self, capsys):
        assert run_cli("selftest") == 1
        lines = capsys.readouterr().out.splitlines()
        names = {name for name, _ in cli._selftest_checks()}
        assert {line[:48].strip() for line in lines[:-1]} == names
        return {line[:48].strip() for line in lines[:-1] if "FAIL" in line}

    def test_wrong_neighbor_codes(self, capsys, monkeypatch):
        neighbor_codes = cli.neighbor_codes
        monkeypatch.setattr(cli, "neighbor_codes", lambda packed: neighbor_codes(packed) ^ 1)
        assert self.failing_lines(capsys) == self.AUDITS

    @pytest.mark.parametrize("path", ["native", "numpy"])
    def test_wrong_draw_bits(self, capsys, monkeypatch, path):
        # the engine and its replay read the same wrong draws, so only the
        # comparison with scalar streams can see them
        if path == "numpy":
            monkeypatch.setattr(rng, "_kernel_handle", None)
            monkeypatch.setattr(rng, "_DRAW_BITS", np.uint32(0x3FFFFF))
        elif rng.draw_path() != "native":
            pytest.skip("no compiled draw kernel on this host")
        else:
            kernel = rng._kernel()

            class OneBitOff:
                def __getattr__(self, name):
                    return getattr(kernel, name)

                def unit_block(self, state, lo, hi, rows, out):
                    kernel.unit_block(state, lo, hi, rows, out)
                    out[: 2 * rows * (hi - lo)] ^= np.uint32(1 << 22)

            monkeypatch.setattr(rng, "_kernel_handle", OneBitOff())
        assert self.failing_lines(capsys) == {f"draw blocks vs scalar streams ({path}, 40)"}

    def test_wrong_compiled_adder(self, capsys, monkeypatch):
        # the adder line checks the compiled adder the sweeps call, and the
        # audits see its words differ from the numpy oracle's
        if rng.draw_path() != "native":
            pytest.skip("no compiled kernels on this host")
        kernel = rng._kernel()

        class LaneEightOff:
            def __getattr__(self, name):
                return getattr(kernel, name)

            def bitwise_add4(self, a, b, c, d, out):
                kernel.bitwise_add4(a, b, c, d, out)
                out[1] ^= np.uint16(1 << 8)

        monkeypatch.setattr(rng, "_kernel_handle", LaneEightOff())
        assert self.failing_lines(capsys) == {"half-adder place values (all 16 lane patterns)",
                                              *self.AUDITS}

    def test_coupling_sign_dropped(self, capsys, monkeypatch):
        from multispin import engine as engine_mod

        build_exp_table = engine_mod.build_exp_table
        monkeypatch.setattr(engine_mod, "build_exp_table",
                            lambda T, J=1.0: build_exp_table(T, abs(J)))
        assert self.failing_lines(capsys) == {"replay, halo, neighbor audit (12x96, J=-1)"}


class TestImportFootprint:
    """simulate, validate, bench and selftest never need scipy.

    Only the randomness battery (rngtest) calls scipy.special, and it
    imports it on first use; ``TestRngTest`` covers that path.  Importing
    the command line neither compiles nor loads the draw kernel: that waits
    for the first draw block.
    """

    SCRIPT = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from multispin.cli import main
        from multispin import rng
        if rng._kernel_handle is not rng._UNBUILT:
            sys.exit("importing multispin.cli built the draw kernel")
        small = ["--m", "12", "--n", "96"]
        runs = [
            ["simulate", *small, "--sweeps", "20"],
            # all-up: a random start at 12x96 and T = 1.5 can freeze into stripes
            ["validate", *small, "--temperature", "1.5", "--sweeps", "400",
             "--measure-interval", "10", "--init", "all-up"],
            ["bench", *small, "--sweeps", "5", "--n-sim", "2"],
            ["selftest"],
        ]
        for argv in runs:
            code = main(argv)
            if code != 0:
                sys.exit(f"{argv[0]} exited {code}")
        # numpy loads these lazily; importing scipy.special would pull them in
        loaded = sorted(m for m in sys.modules if m.startswith(("numpy.testing", "numpy.f2py")))
        if loaded:
            sys.exit(f"loaded {loaded}")
    """)

    def test_commands_run_without_scipy(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        env.pop(ENV_THREADS, None)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
