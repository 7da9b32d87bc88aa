"""CLI behavior: determinism, exit codes, file formats, configuration round-trip."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

BASE = [sys.executable, "-m", "qarrival.cli"]

# The child process does not see pytest's `pythonpath` setting, so it gets the
# package source through PYTHONPATH; the package need not be installed.
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=ENV)


SMALL = ["--n", "256", "--p-max", "24", "--tau-min", "0.2", "--tau-max", "0.8", "--tau-count", "13"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for command in (["distribution", "--family", "kdm"], ["measure", "--mode", "crossing"]):
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            for out in (a, b):
                res = run_cli(*command, *SMALL, "--out", str(out))
                assert res.returncode == 0, res.stderr
            assert a.read_bytes() == b.read_bytes()

    def test_no_timestamps_in_output(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("distribution", "--family", "kdm", *SMALL, "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "columns", "rows", "checks"}


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        from qarrival.cli import build_parser

        assert build_parser() is build_parser()

    def test_reused_parser_keeps_runs_apart(self, capsys):
        # the zeno preset applies to its own run; a later run sees none of it
        from qarrival.cli import main

        assert main(["classical", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["measure", "--mode", "zeno", "--n", "256", "--p-max", "8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["p0"] == 0.3
        assert main(["classical", "--format", "json"]) == 0
        again = capsys.readouterr().out
        assert again == first
        assert json.loads(again)["config"]["p0"] == 10.0


class TestExitCodes:
    def test_invalid_family_exits_2(self):
        res = run_cli("distribution", "--family", "bogus", *SMALL)
        assert res.returncode == 2
        assert "family" in res.stderr

    def test_invalid_config_file_field_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"famly": "kdm"}))
        res = run_cli("distribution", "--config", str(cfg))
        assert res.returncode == 2
        assert "famly" in res.stderr

    def test_bad_tau_range_exits_2(self):
        res = run_cli(
            "distribution", "--family", "kdm", "--tau-min", "1.0", "--tau-max", "0.5"
        )
        assert res.returncode == 2
        assert "tau_max" in res.stderr

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--family", "kdm", "--tau", "1e308"], ["spectrum", "--family", "new", "--tau", "1e308"],
         ["distribution", "--family", "ab", "--tau-max", "1e308"]],
        ids=["spectrum_kdm", "spectrum_new", "distribution_ab"],
    )
    def test_overflowing_eigenstate_phase_exits_2(self, tmp_path, argv):
        # p^2 tau / 2 m hbar overflows at the largest |p| of the grid; cos and
        # sin of it were NaN, written as rows with a RuntimeWarning and exit 0
        out = tmp_path / "out.csv"
        res = run_cli(*argv, "--out", str(out))
        assert res.returncode == 2
        (line,) = res.stderr.splitlines()  # one line, no RuntimeWarning
        assert line.startswith("error: the eigenstate phase p^2 tau / 2 m hbar overflows at |p| = ")
        assert line.endswith(", |tau| = 1e+308")
        assert not out.exists()

    @pytest.mark.parametrize("tau_max", ["5", "50"])
    def test_crossing_past_the_box_wrap_exits_3(self, tmp_path, tau_max):
        # the default box wraps the packet from tau = 2.44; past it the forms
        # read impossible probabilities (p_current = 6.66 at tau = 50)
        out = tmp_path / "cross.csv"
        res = run_cli("measure", "--mode", "crossing", "--tau-max", tau_max, "--out", str(out))
        assert res.returncode == 3
        assert res.stderr.splitlines() == [
            f"numeric failure: tau = {float(tau_max)!r} passes 2.443, when the packet reaches an end of its box"
        ]
        assert not out.exists()

    def test_verify_all_pass_exits_0(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["all_pass"] is True

    def test_verify_coarse_grid_fails_commutator(self, tmp_path):
        # hermiticity is exact at any n; the interior commutator check needs
        # resolution and must fail on a severely coarse grid
        out = tmp_path / "coarse.json"
        res = run_cli("verify", "--n", "16", "--out", str(out))
        assert res.returncode == 1
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["hermiticity_t_kdm"]["pass"] is True
        assert by_name["commutator_h_t_new"]["pass"] is False


class TestFormats:
    def test_json_report_strictly_parseable(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("distribution", "--family", "kdm", *SMALL, "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())  # strict parser
        assert payload["columns"] == ["tau", "pi_kdm"]
        assert len(payload["rows"]) == 13

    def test_csv_round_trip_floats(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("distribution", "--family", "kdm", *SMALL, "--out", str(out))
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        header, *rows = lines
        assert header == "tau,pi_kdm"
        for row in rows:
            tau, val = (float(tok) for tok in row.split(","))
            assert repr(tau) in row and repr(val) in row  # shortest round-trip form

    def test_probability_columns_nonnegative(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("distribution", "--family", "new", *SMALL, "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        assert all(row[1] >= -1e-12 for row in payload["rows"])

    def test_kdm_distribution_integrates_to_one(self, tmp_path):
        out = tmp_path / "d.json"
        res = run_cli(
            "distribution", "--family", "kdm", "--tau-min", "-0.25", "--tau-max", "1.25",
            "--tau-count", "1501", "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        rows = np.array(payload["rows"])
        total = np.trapezoid(rows[:, 1], rows[:, 0])
        assert total == pytest.approx(1.0, abs=1e-3)


class TestDistributionPresets:
    def test_reflected_new_family_sqrt_law(self, tmp_path):
        # reflected preset, log spacing: Pi/tau^(1/2) constant over the decade
        out = tmp_path / "refl.json"
        res = run_cli(
            "distribution", "--family", "new", "--packet", "reflected",
            "--p0", "0.3", "--x0", "-20", "--sigma-p", "0.125", "--n", "1792",
            "--tau-min", "1e-6", "--tau-max", "1e-5", "--tau-count", "9",
            "--tau-spacing", "log", "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        rows = np.array(json.loads(out.read_text())["rows"])
        ratios = rows[:, 1] / np.sqrt(rows[:, 0])
        assert (ratios.max() - ratios.min()) / ratios.mean() <= 0.02

    def test_new_family_at_negative_tau(self, capsys):
        # phi_{-tau} = conj phi_tau, so NEW runs over the whole tau line
        from qarrival.cli import main

        assert main(["distribution", "--family", "new", "--tau-min", "-1", "--tau-max", "1", "--format", "json"]) == 0
        rows = np.array(json.loads(capsys.readouterr().out)["rows"])
        assert rows[0, 0] == -1.0 and rows[np.argmax(rows[:, 1]), 0] == pytest.approx(0.5, abs=0.02)
        spectra = []
        for tau in ("0.5", "-0.5"):
            assert main(["spectrum", "--family", "new", "--tau", tau, "--format", "json"]) == 0
            spectra.append(np.array(json.loads(capsys.readouterr().out)["rows"]))
        forward, backward = spectra
        assert np.array_equal(backward[:, :2], forward[:, :2])
        assert np.array_equal(backward[:, 2], -forward[:, 2])

    def test_reference_columns(self, tmp_path):
        out = tmp_path / "ref.json"
        res = run_cli(
            "distribution", "--family", "kdm", *SMALL, "--with-reference",
            "--format", "json", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["tau", "pi_kdm", "pi_kijowski", "ked_sqrt_law"]


class TestConfigRoundTrip:
    def test_rerun_from_embedded_config(self, tmp_path):
        first = tmp_path / "first.json"
        run_cli("distribution", "--family", "kdm", *SMALL, "--format", "json", "--out", str(first))
        payload = json.loads(first.read_text())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload["config"]))
        second = tmp_path / "second.json"
        res = run_cli("distribution", "--config", str(cfg_file), "--format", "json", "--out", str(second))
        assert res.returncode == 0, res.stderr
        assert json.loads(second.read_text())["rows"] == payload["rows"]


class TestMeasureModes:
    def test_crossing_tau_zero_row(self, tmp_path):
        out = tmp_path / "c.json"
        res = run_cli(
            "measure", "--mode", "crossing", "--tau-min", "0", "--tau-max", "0.5",
            "--tau-count", "3", "--n", "512", "--p-max", "30", "--format", "json",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        rows = json.loads(out.read_text())["rows"]
        assert rows[0][0] == 0.0
        assert rows[0][1] == 0.0 and rows[0][2] == 0.0

    def test_crossing_default_preset(self, tmp_path):
        # 201 taus on [0, 1] in one sweep; criterion 9 holds on every row
        out = tmp_path / "c.json"
        res = run_cli("measure", "--mode", "crossing", "--format", "json", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = np.array(json.loads(out.read_text())["rows"])
        assert rows.shape == (201, 3)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 201))
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) <= 1e-4

    def test_zeno_fit_exponent_half(self, tmp_path):
        out = tmp_path / "z.json"
        res = run_cli("measure", "--mode", "zeno", "--format", "json", "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["checks"]["fit_exponent"] == pytest.approx(0.5, abs=0.02)
        assert payload["checks"]["fit_prefactor"] == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=0.02
        )

    def test_zeno_reads_packet(self, capsys):
        from qarrival.cli import main

        runs = []
        for extra in ([], ["--packet", "gaussian"]):
            assert main(["measure", "--mode", "zeno", "--n", "256", "--p-max", "8", "--format", "json", *extra]) == 0
            runs.append(json.loads(capsys.readouterr().out))
        preset, gaussian = runs
        assert preset["config"]["packet"] == "reflected" and gaussian["config"]["packet"] == "gaussian"
        assert gaussian["rows"] != preset["rows"]

    def test_zeno_checks_hold_only_computed_numbers(self, capsys):
        # the fit and the reference it is checked against; no fixed constant or note
        from qarrival.cli import main

        assert main(["measure", "--mode", "zeno", "--n", "256", "--p-max", "8", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)["checks"]
        assert sorted(record) == ["fit_exponent", "fit_prefactor", "target_prefactor"]
        assert all(isinstance(v, float) for v in record.values())

    @staticmethod
    def conditional_peaks(tmp_path, *flags):
        """The two largest local maxima of the conditional preset's output."""
        out = tmp_path / "cond.json"
        res = run_cli("measure", "--mode", "conditional", *flags, "--format", "json", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = np.array(json.loads(out.read_text())["rows"])
        centers, masses = rows[:, 0], rows[:, 1]
        local = [
            i
            for i in range(1, len(centers) - 1)
            if masses[i] > masses[i - 1] and masses[i] > masses[i + 1]
        ]
        local.sort(key=lambda i: -masses[i])
        return sorted(centers[i] for i in local[:2])

    def test_conditional_two_peaks(self, tmp_path):
        top2 = self.conditional_peaks(tmp_path)
        # peaks at xbar1 -+ |p0| (t2 - t1) = 4 -+ 2.5
        assert abs(top2[0] - 1.5) <= 0.5
        assert abs(top2[1] - 6.5) <= 0.5

    def test_conditional_fine_grid(self, tmp_path):
        # linspace's rounding of [0, 40] at 16001 samples exceeds 1e-12 of the step
        top2 = self.conditional_peaks(tmp_path, "--nx", "16001")
        assert abs(top2[0] - 1.5) <= 0.5
        assert abs(top2[1] - 6.5) <= 0.5


class TestInputValidation:
    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--delta", "0"], "'delta'"),
            (["--x0", "nan"], "'x0'"),
            # grid step 40/10 = 4: a window of width 1 can miss every sample
            (["--nx", "11", "--delta", "1.0"], "'delta'"),
            # the model propagates a position-space Gaussian, never the reflected state
            (["--packet", "reflected"], "'packet'"),
            # sigma_x = 1: the packet's 6-sigma window [39, 51] leaves the box [0, 40]
            (["--x0", "45"], "6-sigma window"),
        ],
        ids=["zero_delta", "nan_center", "sub_step_delta", "reflected_packet", "packet_outside_box"],
    )
    def test_conditional_flags_exit_2(self, tmp_path, flags, named):
        out = tmp_path / "cond.csv"
        res = run_cli("measure", "--mode", "conditional", *flags, "--out", str(out))
        assert res.returncode == 2
        assert named in res.stderr
        assert not out.exists()

    def test_string_boolean_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"with_reference": "false"}))
        res = run_cli("distribution", "--config", str(cfg), *SMALL)
        assert res.returncode == 2
        assert "with_reference" in res.stderr

    @pytest.mark.parametrize("value", ["maybe", "True", "1"])
    def test_bad_switch_value_exits_2(self, capsys, value):
        from qarrival.cli import main

        assert main(["distribution", "--with-reference", value]) == 2
        assert "config field 'with_reference'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["p0", "sigma_p"])
    def test_json_boolean_for_number_exits_2(self, tmp_path, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: True}))
        res = run_cli("distribution", "--family", "kdm", "--config", str(cfg), *SMALL)
        assert res.returncode == 2
        assert f"'{field}'" in res.stderr

    def test_non_finite_float_exits_2(self):
        res = run_cli("spectrum", "--family", "kdm", "--tau", "nan")
        assert res.returncode == 2
        assert "'tau'" in res.stderr

    @pytest.mark.parametrize("field,text", [("n", "1e400"), ("tau_count", "-Infinity")], ids=["n", "tau_count"])
    def test_infinite_integer_in_config_exits_2(self, tmp_path, field, text):
        # int() of an infinite float raises OverflowError, not ValueError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{field}": {text}}}')
        res = run_cli("distribution", "--family", "kdm", "--config", str(cfg))
        assert res.returncode == 2
        assert f"config field '{field}'" in res.stderr


    @pytest.mark.parametrize(
        "field,value",
        [("n", "abc"), ("tau_count", "1.5"), ("tau_spacing", "cubic"), ("packet", "foo"), ("mode", "foo")],
    )
    def test_flag_and_file_values_checked_alike(self, tmp_path, capsys, field, value):
        from qarrival.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        errors = []
        for source in (["--" + field.replace("_", "-"), value], ["--config", str(cfg)]):
            assert main(["measure", *source]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"config field '{field}'" in errors[0]


# a valid value, other than the default, of every RunConfig field
OTHER = {
    "p0": 9.0, "x0": -4.0, "sigma_p": 1.1, "mass": 1.5, "hbar": 0.9, "n": 128, "p_max": 30.0,
    "tau_min": 0.1, "tau_max": 0.9, "tau_count": 7, "tau_spacing": "log", "family": "kdm",
    "packet": "reflected", "L": 0.3, "mode": "zeno", "tau": 0.5, "with_reference": True,
    "t1": 0.7, "t2": 1.0, "xbar1": 3.5, "delta": 0.4, "x_extent": 30.0, "nx": 1501,
}


class TestSubcommandTable:
    """Each subcommand takes as flags exactly the RunConfig fields it reads."""

    @staticmethod
    def table():
        from qarrival.cli import _SUBCOMMANDS

        return {command: names for command, (_, _, names) in _SUBCOMMANDS.items()}

    def test_every_field_is_a_flag(self):
        from qarrival.cli import RunConfig

        listed = [name for names in self.table().values() for name in names]
        assert set(listed) == set(OTHER) == set(asdict(RunConfig()))
        assert len(listed) == 48

    @pytest.mark.parametrize(
        "argv",
        [
            ["distribution", *SMALL],
            ["verify", "--n", "64"],
            ["measure", "--mode", "crossing", *SMALL],
            ["measure", "--mode", "zeno", "--n", "256", "--p-max", "8"],
            ["measure", "--mode", "conditional", "--nx", "401"],
            ["spectrum", "--n", "64"],
            ["classical"],
        ],
        ids=["distribution", "verify", "crossing", "zeno", "conditional", "spectrum", "classical"],
    )
    def test_unlisted_fields_leave_rows_alone(self, tmp_path, capsys, argv):
        from qarrival.cli import main

        unlisted = {k: v for k, v in OTHER.items() if k not in self.table()[argv[0]]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(unlisted))
        fmt = [] if argv[0] == "verify" else ["--format", "json"]
        runs = []
        for extra in ([], ["--config", str(cfg)]):
            code = main([*argv, *fmt, *extra])
            runs.append((code, json.loads(capsys.readouterr().out)))
        (code, plain), (code_set, with_unlisted) = runs
        assert code == code_set and code in (0, 1)  # verify --n 64 fails its coarse-grid checks
        recorded = with_unlisted.pop("config")
        assert {k: recorded[k] for k in unlisted} == unlisted
        del plain["config"]
        assert with_unlisted == plain

    @pytest.mark.parametrize("command", ["distribution", "verify", "measure", "spectrum", "classical"])
    def test_unlisted_flags_exit_2(self, capsys, command):
        from qarrival.cli import main

        for name, value in OTHER.items():
            if name in self.table()[command]:
                continue
            flag = ["--" + name.replace("_", "-")] + ([] if value is True else [str(value)])
            with pytest.raises(SystemExit) as exc:
                main([command, *flag])
            assert exc.value.code == 2, flag
            capsys.readouterr()

    def test_verify_takes_no_format(self, capsys):
        from qarrival.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestConfigPrecedence:
    """defaults < measure mode preset < --config file < flags, whatever names the mode."""

    @staticmethod
    def run(capsys, *argv):
        from qarrival.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def write(tmp_path, values, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(values))
        return str(path)

    def test_file_overrides_mode_preset(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"p0": 0.31, "tau_count": 5})
        code, out, err = self.run(capsys, "measure", "--mode", "zeno", "--config", cfg, "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["config"]["p0"] == 0.31 and payload["config"]["tau_count"] == 5
        assert len(payload["rows"]) == 5

    def test_mode_from_file_applies_its_preset(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"mode": "zeno"})
        from_file = self.run(capsys, "measure", "--config", cfg)
        from_flag = self.run(capsys, "measure", "--mode", "zeno")
        assert from_file[0] == 0, from_file[2]
        assert from_file == from_flag

    def test_conditional_geometry_from_file_equals_flags(self, tmp_path, capsys):
        geometry = {"x0": 7.5, "t1": 0.7, "t2": 1.0, "xbar1": 3.5, "delta": 0.4, "x_extent": 30.0, "nx": 1501}
        cfg = self.write(tmp_path, geometry)
        flags = []
        for key, val in geometry.items():
            flags += [f"--{key.replace('_', '-')}", str(val)]
        from_file = self.run(capsys, "measure", "--mode", "conditional", "--config", cfg)
        from_flags = self.run(capsys, "measure", "--mode", "conditional", *flags)
        assert from_file[0] == 0, from_file[2]
        assert from_file == from_flags
        header = json.loads(from_file[1].splitlines()[0].removeprefix("# config: "))
        assert {key: header[key] for key in geometry} == geometry

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "crossing", *SMALL],
            ["--mode", "zeno", "--n", "1536", "--tau-count", "7"],
            ["--mode", "conditional", "--x0", "7", "--nx", "2001", "--delta", "0.25", "--t2", "1.1"],
        ],
        ids=["crossing", "zeno", "conditional"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_reproduces_from_its_config(self, tmp_path, capsys, argv, fmt):
        code, first, err = self.run(capsys, "measure", *argv, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            recorded = json.loads(first)["config"]
        else:
            recorded = json.loads(first.splitlines()[0].removeprefix("# config: "))
        cfg = self.write(tmp_path, recorded)
        assert self.run(capsys, "measure", "--config", cfg, "--format", fmt) == (0, first, "")

    def test_switch_flag_overrides_file(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"with_reference": True})
        distribution = ("distribution", *SMALL, "--format", "json")
        off = self.run(capsys, *distribution, "--config", cfg, "--with-reference", "false")
        assert off == self.run(capsys, *distribution) and off[0] == 0
        on = self.run(capsys, *distribution, "--with-reference", "true")
        assert on == self.run(capsys, *distribution, "--with-reference")
        assert on == self.run(capsys, *distribution, "--config", cfg)
        assert json.loads(on[1])["columns"] == ["tau", "pi_new", "pi_kijowski", "ked_sqrt_law"]

    def test_unhashable_mode_in_file_exits_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"mode": ["zeno"]})
        code, out, err = self.run(capsys, "measure", "--config", cfg)
        assert code == 2 and out == ""
        assert "config field 'mode'" in err
