"""Command-line runner: configuration handling, CSV format, determinism."""

import dataclasses
import json
import math
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracmem
from fracmem.cli import (
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _resolve_config,
    emit_csv,
    main,
    run_experiment,
)
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

    @pytest.mark.parametrize("experiment, name", [
        ("diffusion", "alpha"), ("kelvin-voigt", "dt"), ("cost-model", "levels"),
        ("derivative-error", "alpha"), ("order-study", "alpha"),
    ])
    def test_empty_setting_rejected(self, experiment, name):
        # the order study's dt sweep is valid, so only the empty setting is at fault
        settings = {"dt": (0.1, 0.05, 0.025)} if experiment == "order-study" else {}
        settings[name] = ()
        with pytest.raises(ConfigError, match=f"^{name} must hold at least one value$"):
            ExperimentConfig(experiment=experiment, **settings)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="diffusion", alpha=(1.5,))

    def test_horizon_must_align_with_step(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="diffusion", dt=(0.3,), t_end=1.0)

    def test_long_decimal_horizon_builds(self):
        # exactly 10000002 steps; validated only, not run
        cfg = ExperimentConfig(experiment="derivative-error", t_end=1000000.2, dt=(0.1,))
        assert cfg.t_end == 1000000.2

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


# a non-default value for every setting, each valid for a diffusion run
SETTING_VALUES = {
    "policy": "fixed", "alpha": "0.3", "dt": "0.02", "memory_length": "2",
    "t_end": "8", "out": "run.csv", "length": "5", "dx": "0.2", "mu": "2",
    "eta": "2", "k": "3", "load": "4", "n_records": "8", "m": "4", "levels": "1,5",
}
SETTINGS = [f.name for f in dataclasses.fields(ExperimentConfig)
            if f.init and f.name != "experiment"]


def resolve(argv):
    return _resolve_config(_build_parser().parse_args(argv))


class TestDerivedParser:
    @pytest.mark.parametrize("name", SETTINGS)
    def test_flag_and_file_keys_reach_the_field(self, tmp_path, name):
        value = SETTING_VALUES[name]
        by_flag = resolve(["diffusion", "--" + name.replace("_", "-"), value])
        assert by_flag != ExperimentConfig(experiment="diffusion")
        for key in {name, name.replace("_", "-")}:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{key}={value}\n")
            assert resolve(["diffusion", "--config", str(cfgfile)]) == by_flag

    def test_help_lists_every_setting(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SETTINGS:
            assert "--" + name.replace("_", "-") + " " in out


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

    @pytest.mark.parametrize("dx, message", [
        ("0.3", "domain length 10.0 must be a multiple of dx=0.3"),
        ("20", "domain length 10.0 must be a multiple of dx=20.0"),
        ("10", "domain length 10.0 with dx=10.0 leaves no interior node"),
        ("2", "domain length 10.0 with dx=2.0 is an odd number of intervals"),
    ], ids=["off-grid", "coarser-than-domain", "no-interior-node", "odd-intervals"])
    def test_grid_the_solver_rejects_is_two(self, tmp_path, capsys, dx, message):
        rc = main(["diffusion", "--dx", dx, "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("args, repeat", [
        (["--alpha", "0.5,0.5"], "alpha=0.5"),
        (["--dt", "0.1,0.1,0.1"], "dt=0.1"),
    ], ids=["alpha", "dt"])
    def test_repeated_sweep_value_is_two(self, tmp_path, capsys, args, repeat):
        rc = main(["order-study", "--t-end", "1", *args, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"configuration error: order-study repeats {repeat}" in capsys.readouterr().err
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_state_is_one(self, tmp_path, capsys):
        # the creep update is float arithmetic: it overflows to inf without a
        # numpy warning, and the step's check reports it
        rc = main(["kelvin-voigt", "--eta", "1e-300", "--k", "1e-300", "--load", "1e300",
                   "--t-end", "0.05", "--dt", "0.01", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error: non-finite state at step 1 (t=0.01)" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("experiment", ["derivative-error", "diffusion", "kelvin-voigt",
                                            "cost-model"])
    @pytest.mark.parametrize("name, args", [
        ("alpha", ["--alpha", "0.3,0.7"]),
        ("dt", ["--dt", "0.01,0.02"]),
    ], ids=["alpha", "dt"])
    def test_list_on_single_run_is_two(self, tmp_path, capsys, experiment, name, args):
        rc = main([experiment, "--t-end", "1", *args, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"configuration error: {experiment} takes one {name}, got 2" in err
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

    def test_order_study_with_two_steps_is_two(self, tmp_path, capsys):
        rc = main(["order-study", "--dt", "0.1,0.05", "--t-end", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: order-study fits its slopes over 3 or more dt values, got 2" in err
        assert not (tmp_path / "o.csv").exists()

    def test_order_study_without_nonzero_errors_is_one(self, tmp_path, capsys):
        # an unthinned L1 history is exact for f(t) = t: every error is 0.0
        rc = main(["order-study", "--policy", "fixed", "--memory-length", "100",
                   "--alpha", "0.25", "--dt", "0.5,0.25,0.125", "--t-end", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: order study at alpha=0.25: 0 of 3 step sizes give a nonzero error" in err
        assert not (tmp_path / "o.csv").exists()

    def test_small_order_creep_inside_unit_disk_runs(self, tmp_path):
        # the reference is E_0.001(-0.0625^0.001) = E_0.001(-0.9972...), where
        # the series would need ~1e4 terms and the spectral integral answers
        rc = main(["kelvin-voigt", "--alpha", "0.001", "--dt", "0.0625", "--t-end", "0.0625",
                   "--n-records", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 0

    @pytest.mark.parametrize("args, message", [
        (["--n-records", "0"], "n_records must be >= 1, got 0"),
        (["--m", "0"], "m must be >= 1, got 0"),
        (["--levels=-1"], "levels must be >= 0, got -1"),
    ], ids=["n_records", "m", "levels"])
    def test_count_below_its_least_is_two(self, tmp_path, capsys, args, message):
        rc = main(["cost-model", *args, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("level", ["20000", "1000000000"])
    def test_level_above_the_cap_is_two(self, tmp_path, capsys, level):
        # the full count at level 20000 has ~12000 digits, too many to print,
        # and 2^L at 10^9 would not finish
        rc = main(["cost-model", "--levels", f"2,{level}", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"configuration error: levels must be <= 4096, got {level}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_m_above_the_cap_is_two(self, tmp_path, capsys):
        # even the level-0 full count m(m+1)/2 of a 2200-digit m has too
        # many digits to print; the message names the sizes, not the digits
        rc = main(["cost-model", "--m", "9" * 2200, "--levels", "0", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: m must be <= 999... (900 digits), got 999... (2200 digits)" in err
        assert len(err) < 200
        assert not (tmp_path / "o.csv").exists()

    def test_order_outside_unit_interval_is_two(self, tmp_path, capsys):
        rc = main(["kelvin-voigt", "--alpha", "1.5", "--t-end", "1", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "configuration error: fractional order must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_cost_model_counts_are_exact_at_high_levels(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(["cost-model", "--m", "10", "--levels", "45,1100", "--out", str(out)])
        assert rc == 0
        _, fieldnames, rows = read_csv(out)
        counts = {row[2]: int(row[3]) for row in rows if row[0] == "adaptive-present"}
        assert counts["45"] == 156746377655746660
        exact = 55 + sum(Fraction(2) ** (l - 2) * ((2 * l + 1) * 100 + 10) for l in range(1, 1101))
        assert counts["1100"] == exact

    @pytest.mark.parametrize("line, message", [
        ("bogus=1", "unknown configuration key 'bogus'"),
        ("alpha=abc", "bad value for 'alpha': 'abc'"),
        ("alpha 0.5", "run.cfg:2: expected key=value, got 'alpha 0.5'"),
    ], ids=["unknown-key", "bad-value", "no-equals"])
    def test_bad_config_file_line_is_two(self, tmp_path, capsys, line, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# comment\n{line}\n")
        rc = main(["kelvin-voigt", "--config", str(cfgfile), "--t-end", "1",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err and message in err
        assert not (tmp_path / "o.csv").exists()

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
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert out.exists()


class TestRecords:
    # 400 steps are no multiple of 64 records: rows at ceil(k 400 / 64); 4
    # steps give at most 4 rows
    @pytest.mark.parametrize("dt, n_records, rows, first", [
        ("0.01", "64", 64, [0.07, 0.13, 0.19]), ("1", "8", 4, [1.0, 2.0, 3.0]),
    ])
    def test_n_records_is_rows_written(self, tmp_path, capsys, dt, n_records, rows, first):
        out = tmp_path / "o.csv"
        assert main(["kelvin-voigt", "--dt", dt, "--t-end", "4", "--n-records", n_records,
                     "--out", str(out)]) == 0
        assert f"wrote {rows} records" in capsys.readouterr().out
        _, fieldnames, got = read_csv(out)
        t = [float(row[fieldnames.index("t")]) for row in got]
        assert len(t) == rows
        assert t[:3] == first and t[-1] == 4.0


def child_env(**variables: str) -> dict:
    """The environment, plus ``variables``, for a fresh interpreter that
    imports this fracmem: its ``src`` directory first on PYTHONPATH."""
    src = str(Path(fracmem.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **variables)


def run_python(code: str, *args: str):
    """Run ``code`` in a fresh interpreter that imports this fracmem, and
    return the JSON value its last stdout line holds.  A fresh process is
    needed because the test process itself has loaded scipy."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestScipyImports:
    def test_runs_without_diffusion_load_no_scipy(self, tmp_path):
        code = f"""
import json, sys
from fracmem.cli import main
runs = (["kelvin-voigt", "--t-end", "4"], ["derivative-error", "--t-end", "1"],
        ["order-study", "--dt", "0.1,0.05,0.025", "--t-end", "1"], ["cost-model"])
assert [main([*run, "--out", sys.argv[1]]) for run in runs] == [0, 0, 0, 0]
print(json.dumps({LOADED_SCIPY}))
"""
        assert run_python(code, str(tmp_path / "o.csv")) == []

    def test_diffusion_loads_lapack_at_set_up(self, tmp_path):
        code = f"""
import json, sys
from fracmem.cli import ExperimentConfig, run_experiment
before = {LOADED_SCIPY}
config = ExperimentConfig(experiment="diffusion", t_end=1.0, out=sys.argv[1])
built = {LOADED_SCIPY}
has_dptsv = any(hasattr(sys.modules[m], "dptsv") for m in built)
run_experiment(config)
print(json.dumps([before, built, has_dptsv, {LOADED_SCIPY}]))
"""
        before, built, has_dptsv, after = run_python(code, str(tmp_path / "o.csv"))
        assert before == []
        assert has_dptsv
        # LAPACK alone: neither scipy's nor scipy.linalg's package init ran
        assert "scipy" not in built and "scipy.linalg" not in built
        # the run itself imports nothing more from scipy
        assert after == built

    def test_later_scipy_linalg_import_hands_back_the_same_dptsv(self, tmp_path):
        code = f"""
import json, sys
from fracmem import solvers
from fracmem.cli import ExperimentConfig
config = ExperimentConfig(experiment="diffusion", t_end=1.0, out=sys.argv[1])
import scipy.linalg
from scipy.linalg.lapack import dptsv
print(json.dumps([dptsv is solvers._lapack_dptsv(),
                  dptsv is solvers.DiffusionSimulation(config.solver)._dptsv]))
"""
        assert run_python(code, str(tmp_path / "o.csv")) == [True, True]

    def test_fallback_to_scipy_linalg_gives_identical_records(self, tmp_path):
        # the extension's file is not found: dptsv comes from scipy.linalg.lapack
        config = ExperimentConfig(experiment="diffusion", policy="full", t_end=2.0,
                                  n_records=8, out=str(tmp_path / "o.csv"))
        records, _ = run_experiment(config)
        code = f"""
import dataclasses, json, sys
from fracmem import solvers
solvers._flapack_spec = lambda: None
from fracmem.cli import ExperimentConfig, run_experiment
config = ExperimentConfig(experiment="diffusion", policy="full", t_end=2.0, n_records=8,
                          out=sys.argv[1])
records, _ = run_experiment(config)
loaded = [m in sys.modules for m in ("scipy.linalg", "scipy.linalg.lapack")]
from scipy.linalg.lapack import dptsv
print(json.dumps([loaded, dptsv is solvers._lapack_dptsv(),
                  [dataclasses.astuple(r)[:-1] for r in records]]))
"""
        loaded, same, rows = run_python(code, str(tmp_path / "o.csv"))
        assert loaded == [True, True]
        assert same
        assert rows == [list(dataclasses.astuple(r)[:-1]) for r in records]


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

    # each history passes an OpenBLAS threading threshold: a 1-D dot product
    # of more than 10 000 elements, a ~5500 x 99 matrix-vector product
    @pytest.mark.parametrize("args", [
        ["diffusion", "--policy", "full", "--dt", "0.01", "--t-end", "55", "--n-records", "1"],
        ["derivative-error", "--policy", "full", "--dt", "0.001", "--t-end", "20",
         "--n-records", "1"],
    ], ids=["matvec", "dot"])
    def test_bytes_independent_of_blas_thread_count(self, tmp_path, args):
        procs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            procs[out] = subprocess.Popen(
                [sys.executable, "-m", "fracmem.cli", *args, "--out", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=threads), stdout=subprocess.DEVNULL,
            )
        assert [proc.wait(timeout=300) for proc in procs.values()] == [0, 0]
        (c1, f1, r1), (c2, f2, r2) = (read_csv(out) for out in procs)
        wall = f1.index("wall_clock")
        assert (c1, f1) == (c2, f2)
        assert [row[:wall] for row in r1] == [row[:wall] for row in r2]


class TestGoldenFile:
    def assert_matches_frozen(self, args, name, tmp_path):
        out = tmp_path / "o.csv"
        assert main(args + ["--out", str(out)]) == 0
        got = read_csv(out)
        want = read_csv(DATA / name)
        assert got[0] == want[0]
        assert got[1] == want[1]
        wall = got[1].index("wall_clock")
        for grow, wrow in zip(got[2], want[2], strict=True):
            assert grow[:wall] == wrow[:wall]

    def test_full_memory_creep_run_matches_frozen_output(self, tmp_path):
        self.assert_matches_frozen(
            ["kelvin-voigt", "--policy", "full", "--alpha", "0.5", "--dt", "0.01",
             "--t-end", "1", "--n-records", "10"],
            "kelvin_voigt_full.csv", tmp_path,
        )

    def test_adaptive_diffusion_run_matches_frozen_output(self, tmp_path):
        # t <= 1 keeps |z| <= 1, where the analytic column is correctly rounded
        self.assert_matches_frozen(
            ["diffusion", "--policy", "adaptive-present", "--alpha", "0.5", "--dt", "0.01",
             "--memory-length", "0.1", "--t-end", "1", "--n-records", "10"],
            "diffusion_adaptive.csv", tmp_path,
        )
