"""Command-line runner: configuration handling, CSV format, determinism."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import pytest

from fracmem.cli import ConfigError, ExperimentConfig, emit_csv, main, run_experiment
from fracmem.experiments import SimulationRecord

DATA = Path(__file__).parent / "data"


def read_csv(path):
    """Return (header_comments, fieldnames, rows) from an emitted file."""
    comments = []
    lines = Path(path).read_text().splitlines()
    i = 0
    while lines[i].startswith("# "):
        comments.append(lines[i][2:])
        i += 1
    fieldnames = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :]]
    return comments, fieldnames, rows


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig(experiment="derivative-error")
        assert cfg.policy == "adaptive-present"
        assert cfg.memory_policy().T == 1.0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="mystery")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="diffusion", policy="psychic")

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="diffusion", alphas=(1.5,))

    def test_horizon_must_align_with_step(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="diffusion", dts=(0.3,), t_end=1.0)

    def test_default_diffusivity_normalizes_decay_rate(self):
        cfg = ExperimentConfig(experiment="diffusion", length=10.0)
        import math

        assert cfg.resolved_mu() == pytest.approx((10.0 / math.pi) ** 2)

    def test_config_file_parsing(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\npolicy = fixed\nmemory-length = 2.0\nalpha=0.3\n")
        rc = main(["kelvin-voigt", "--config", str(cfgfile), "--t-end", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        comments, _, _ = read_csv(tmp_path / "o.csv")
        assert "policy=fixed" in comments
        assert "memory_length=2" in comments
        assert "alpha=0.29999999999999999" in comments

    def test_flag_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("policy=fixed\n")
        rc = main(["kelvin-voigt", "--config", str(cfgfile), "--policy", "full",
                   "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        comments, _, _ = read_csv(tmp_path / "o.csv")
        assert "policy=full" in comments


class TestEmitCsv:
    def test_empty_record_list_still_writes_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, {"experiment": "diffusion"})
        comments, fieldnames, rows = read_csv(path)
        assert comments == ["experiment=diffusion"]
        assert fieldnames == list(SimulationRecord.FIELDS)
        assert rows == []

    def test_floats_roundtrip_exactly(self, tmp_path):
        rec = SimulationRecord(t=1 / 3, value=2 / 7, analytic=0.1, abs_error=1e-17,
                               stored_points=5, conv_terms=4, wall_clock=0.25)
        path = tmp_path / "r.csv"
        emit_csv([rec], path, None)
        _, _, rows = read_csv(path)
        assert float(rows[0][0]) == 1 / 3
        assert float(rows[0][1]) == 2 / 7
        assert float(rows[0][3]) == 1e-17
        assert rows[0][4] == "5"

    def test_uses_lf_newlines(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv([], path, {"a": "b"})
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_dict_records_for_cost_model(self, tmp_path):
        cfg = ExperimentConfig(experiment="cost-model", m=10, levels=(2, 3))
        records, _ = run_experiment(cfg)
        path = tmp_path / "cost.csv"
        emit_csv(records, path, cfg.as_header())
        _, fieldnames, rows = read_csv(path)
        assert fieldnames == ["policy", "m", "L", "op_count"]
        assert len(rows) == 6


class TestMainExitCodes:
    def test_success(self, tmp_path):
        rc = main(["kelvin-voigt", "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 0
        assert (tmp_path / "o.csv").exists()

    def test_config_error_is_two(self, tmp_path, capsys):
        rc = main(["diffusion", "--alpha", "3.0", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args, name", [
        (["diffusion", "--dt", "nan", "--t-end", "1"], "dt"),
        (["diffusion", "--t-end", "inf"], "t_end"),
        (["kelvin-voigt", "--t-end", "1", "--memory-length", "nan"], "memory_length"),
        (["diffusion", "--t-end", "1", "--length", "inf"], "length"),
        (["diffusion", "--t-end", "1", "--dx", "nan"], "dx"),
        (["diffusion", "--t-end", "1", "--mu", "nan"], "mu"),
        (["kelvin-voigt", "--t-end", "1", "--eta", "inf"], "eta"),
        (["kelvin-voigt", "--t-end", "1", "--k", "nan"], "k"),
        (["kelvin-voigt", "--t-end", "1", "--load=-inf"], "load"),
    ], ids=["dt", "t_end", "memory_length", "length", "dx", "mu", "eta", "k", "load"])
    def test_non_finite_value_is_two(self, tmp_path, capsys, args, name):
        rc = main(args + ["--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"configuration error: {name} must be positive and finite" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("experiment", ["derivative-error", "kelvin-voigt"])
    def test_fixed_window_shorter_than_step_is_two(self, tmp_path, capsys, experiment):
        rc = main([experiment, "--policy", "fixed", "--memory-length", "0.001",
                   "--dt", "0.01", "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: fixed memory_length=0.001 is shorter than dt=0.01" in err
        assert not (tmp_path / "o.csv").exists()

    def test_adaptive_window_shorter_than_step_runs(self, tmp_path):
        rc = main(["derivative-error", "--policy", "adaptive-present", "--memory-length",
                   "0.001", "--dt", "0.01", "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    def test_non_finite_result_is_one(self, tmp_path, capsys):
        rc = main(["kelvin-voigt", "--eta", "1e300", "--k", "1e-300", "--load", "1e300",
                   "--t-end", "0.05", "--dt", "0.01", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: non-finite analytic nan at t=0.01" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_order_study_runs(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(["order-study", "--policy", "full", "--alpha", "0.3,0.7",
                   "--dt", "0.1,0.05,0.025", "--t-end", "1", "--out", str(out)])
        assert rc == 0
        _, fieldnames, rows = read_csv(out)
        # alpha-major: each alpha's final errors for every dt, in sweep order
        exact = [2.0 / math.gamma(3.0 - a) for a in (0.3, 0.7)]
        got = [(float(row[fieldnames.index("analytic")]),
                int(row[fieldnames.index("stored_points")])) for row in rows]
        assert got == [(e, n) for e in exact for n in (11, 21, 41)]
        slopes = [l for l in capsys.readouterr().out.splitlines() if l.startswith("slope alpha=")]
        assert len(slopes) == 2

    def test_missing_config_file_is_two(self, tmp_path):
        rc = main(["diffusion", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_unwritable_output_is_one(self, tmp_path):
        rc = main(["kelvin-voigt", "--t-end", "1",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv")])
        assert rc == 1

    def test_console_entry_point_runs(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fracmem.cli", "cost-model", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestDeterminism:
    ARGS = ["kelvin-voigt", "--policy", "adaptive-present", "--alpha", "0.5",
            "--dt", "0.01", "--t-end", "2", "--n-records", "8"]

    def run_once(self, path):
        assert main(self.ARGS + ["--out", str(path)]) == 0
        return read_csv(path)

    def test_identical_apart_from_wall_clock(self, tmp_path):
        c1, f1, r1 = self.run_once(tmp_path / "a.csv")
        c2, f2, r2 = self.run_once(tmp_path / "b.csv")
        assert c1 == c2
        assert f1 == f2
        wall = f1.index("wall_clock")
        stripped1 = [[v for i, v in enumerate(row) if i != wall] for row in r1]
        stripped2 = [[v for i, v in enumerate(row) if i != wall] for row in r2]
        assert stripped1 == stripped2


class TestGoldenFile:
    def test_full_memory_creep_run_matches_frozen_output(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["kelvin-voigt", "--policy", "full", "--alpha", "0.5",
                   "--dt", "0.01", "--t-end", "1", "--n-records", "10",
                   "--out", str(out)])
        assert rc == 0
        got = read_csv(out)
        want = read_csv(DATA / "kelvin_voigt_full.csv")
        assert got[0] == want[0]
        assert got[1] == want[1]
        wall = got[1].index("wall_clock")
        for grow, wrow in zip(got[2], want[2], strict=True):
            assert grow[:wall] == wrow[:wall]
