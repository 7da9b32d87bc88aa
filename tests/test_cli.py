"""CLI behavior: determinism, exit codes, file formats, configuration round-trip."""

import json
import math
import os
import subprocess
import sys
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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            res = run_cli("distribution", "--family", "kdm", *SMALL, "--out", str(out))
            assert res.returncode == 0, res.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_no_timestamps_in_output(self, tmp_path):
        out = tmp_path / "d.json"
        run_cli("distribution", "--family", "kdm", *SMALL, "--format", "json", "--out", str(out))
        payload = json.loads(out.read_text())
        assert set(payload) == {"config", "columns", "rows", "checks"}


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

    def test_zeno_fit_exponent_half(self, tmp_path):
        out = tmp_path / "z.json"
        res = run_cli("measure", "--mode", "zeno", "--format", "json", "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert payload["checks"]["fit_exponent"] == pytest.approx(0.5, abs=0.02)
        assert payload["checks"]["fit_prefactor"] == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=0.02
        )

    def test_conditional_two_peaks(self, tmp_path):
        out = tmp_path / "cond.json"
        res = run_cli("measure", "--mode", "conditional", "--format", "json", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = np.array(json.loads(out.read_text())["rows"])
        centers, masses = rows[:, 0], rows[:, 1]
        local = [
            i
            for i in range(1, len(centers) - 1)
            if masses[i] > masses[i - 1] and masses[i] > masses[i + 1]
        ]
        local.sort(key=lambda i: -masses[i])
        top2 = sorted(centers[i] for i in local[:2])
        # peaks at xbar1 -+ |p0| (t2 - t1) = 4 -+ 2.5
        assert abs(top2[0] - 1.5) <= 0.5
        assert abs(top2[1] - 6.5) <= 0.5
