"""Command-line surface: config handling, CSV schema, exit codes."""

import pytest

from multispin.cli import (
    CSV_HEADER,
    ENV_THREADS,
    build_config,
    build_parser,
    main,
    parse_config_file,
    parse_temperatures,
)

SMALL = ("--m", "12", "--n", "96", "--sweeps", "10", "--measure-interval", "10")


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
        cfg.write_text("j = 1\nwarmup = 3\ntolerance = 0.05\ninit = all-up\nn_sim = 2\n")
        built = build_config(build_parser().parse_args(["simulate", "--config", str(cfg)]))
        assert (built.j, built.warmup, built.tolerance, built.init, built.n_sim) == (
            1.0, 3, 0.05, "all-up", 2)
        assert [type(v) for v in (built.j, built.warmup, built.tolerance, built.init,
                                  built.n_sim)] == [float, int, float, str, int]
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

    @pytest.mark.parametrize("spec", ["nan", "inf", "2.0,-inf", "0"])
    def test_bad_temperature(self, capsys, spec):
        self.expect_rejected(capsys, "simulate", *SMALL, "--temperature", spec,
                             match="temperatures must be finite and positive")

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
        self.expect_rejected(capsys, command, *SMALL, "--n-sim", "0",
                             match="n_sim must be at least 1")

    @pytest.mark.parametrize("command", ["simulate", "validate", "bench"])
    def test_empty_temperature_list(self, capsys, command):
        self.expect_rejected(capsys, command, *SMALL, "--temperature", ",",
                             match="need at least one temperature")

    def test_bench_negative_warmup(self, capsys):
        self.expect_rejected(capsys, "bench", *SMALL, "--warmup", "-1",
                             match="warmup must be non-negative")


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
        assert "not reproducible" in out

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
