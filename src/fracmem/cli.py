"""Command-line experiment runner emitting CSV instrumentation.

Usage:
    fracmem <experiment> [--config FILE] [--alpha A[,A..]] [--dt DT[,DT..]]
            [--memory-length T] [--policy P] [--t-end TE] [--out PATH] ...

Experiments: derivative-error, order-study, diffusion, kelvin-voigt,
cost-model.  Each setting is one ``ExperimentConfig`` field carrying its
default, parser and help line; its name is the config-file and CSV header
key, and dashed it is the flag (``t_end``, ``--t-end``).  The CSV header
echoes the six shared settings (experiment, policy, alpha, dt,
memory_length, t_end) and then the settings the experiment reads: length,
dx and mu for diffusion, eta, k and load for kelvin-voigt, m and levels for
cost-model, none for the two derivative studies.  ``ExperimentConfig.mu``
holds the resolved diffusivity, by default (length/pi)^2.  Exit codes: 0
success, 2 configuration error, 1 runtime error.  Identical configurations
produce identical CSV bytes apart from the wall-clock column.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .analysis import MAX_LEVEL, MAX_M
from .core import check_count, check_positive, order_value
from .experiments import (
    SimulationRecord,
    check_sweep,
    run_cost_model,
    run_derivative_error,
    run_diffusion,
    run_kelvin_voigt,
    run_order_study,
    time_grid,
)
from .memory import MemoryPolicy, PolicyKind
from .solvers import DiffusionConfig, KelvinVoigtConfig

__all__ = ["ConfigError", "ExperimentConfig", "emit_csv", "run_experiment", "main"]

# the settings the CSV header echoes for every run, then, per experiment, the
# settings it reads besides them, in header order; an experiment with a
# problem config builds it from the order, the step, the policy and these
_SHARED = ("experiment", "policy", "alpha", "dt", "memory_length", "t_end")
_READS = {
    "derivative-error": (),
    "order-study": (),
    "diffusion": ("length", "dx", "mu"),
    "kelvin-voigt": ("eta", "k", "load"),
    "cost-model": ("m", "levels"),
}
_PROBLEMS = {"diffusion": DiffusionConfig, "kelvin-voigt": KelvinVoigtConfig}
EXPERIMENTS = tuple(_READS)

_POLICY_NAMES = {k.value: k for k in PolicyKind}


class ConfigError(Exception):
    """Invalid run configuration; ``main`` maps it to exit code 2."""


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(","))


def _setting(default, parse, help: str):
    """A setting: its default, the parser of its flag or file value, its help line."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration (file values overridden by flags).

    ``mu`` left at None resolves to (length/pi)^2, which puts the slowest
    diffusion mode's decay rate at 1.  ``solver`` is derived, not a setting:
    the run's ``DiffusionConfig`` or ``KelvinVoigtConfig`` (None for the
    other experiments), built here so that its checks are configuration
    errors too.
    """

    experiment: str
    policy: str = _setting(
        "adaptive-present", str, "memory policy: " + ", ".join(sorted(_POLICY_NAMES))
    )
    alpha: tuple[float, ...] = _setting((0.5,), _floats, "fractional order(s), comma separated")
    dt: tuple[float, ...] = _setting((0.01,), _floats, "base time step(s), comma separated")
    memory_length: float = _setting(1.0, float, "memory length T")
    t_end: float = _setting(16.0, float, "simulation horizon")
    out: str = _setting("fracmem.csv", str, "output CSV path")
    length: float = _setting(10.0, float, "diffusion domain length")
    dx: float = _setting(0.1, float, "diffusion grid spacing")
    mu: float | None = _setting(None, float, "diffusion coefficient (default (length/pi)^2)")
    eta: float = _setting(1.0, float, "Kelvin-Voigt damping constant")
    k: float = _setting(1.0, float, "Kelvin-Voigt spring constant")
    load: float = _setting(1.0, float, "Kelvin-Voigt constant load")
    n_records: int = _setting(64, int, "rows to record per run")
    m: int = _setting(10, int, "points per memory length (cost model)")
    levels: tuple[int, ...] = _setting(
        (2, 3, 4), _ints, "memory doubling levels, comma separated (cost model)"
    )
    solver: DiffusionConfig | KelvinVoigtConfig | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.policy not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {sorted(_POLICY_NAMES)}")
        for name in ("alpha", "dt", "levels"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must hold at least one value")
        try:
            # time_grid checks each dt and n_records
            for name in _FLOATS:
                value = getattr(self, name)
                if value is not None:
                    check_positive(name, value)
            if self.mu is None:
                try:
                    object.__setattr__(self, "mu", (self.length / math.pi) ** 2)
                except OverflowError:
                    raise ValueError(f"length={self.length} is too large for the default mu") from None
                # (length/pi)^2 underflows to 0.0 without raising
                if self.mu == 0.0:
                    raise ValueError(f"length={self.length} is too small for the default mu")
            if self.experiment == "order-study":
                check_sweep(self.alpha, self.dt)
            else:
                # only the order study sweeps; the others would run the first value
                for name, values in (("alpha", self.alpha), ("dt", self.dt)):
                    if len(values) > 1:
                        raise ConfigError(f"{self.experiment} takes one {name}, got {len(values)}")
            for a in self.alpha:
                order_value(a)
            check_count("m", self.m, 1, MAX_M)
            for level in self.levels:
                check_count("levels", level, 0, MAX_LEVEL)
            policy = self.memory_policy()
            for dt in self.dt:
                time_grid(self.t_end, dt, self.n_records)
                policy.check_step(dt)
            problem = _PROBLEMS.get(self.experiment)
            solver = None if problem is None else problem(
                alpha=self.alpha[0], dt=self.dt[0], policy=policy,
                **{name: getattr(self, name) for name in _READS[self.experiment]},
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "solver", solver)

    def memory_policy(self) -> MemoryPolicy:
        kind = _POLICY_NAMES[self.policy]
        return MemoryPolicy(kind, None if kind is PolicyKind.FULL else self.memory_length)

    def as_header(self) -> dict:
        """The shared settings and those the experiment reads, formatted."""
        return {name: _fmt(getattr(self, name)) for name in _SHARED + _READS[self.experiment]}


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return ",".join(_fmt(v) for v in x)
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def emit_csv(records, path, config: dict | None = None) -> None:
    """Write records with a config-echo comment header; 17 significant
    digits, LF newlines.  The file is written in one shot so a failed run
    leaves no partial CSV."""
    rows = [getattr(r, "__dict__", r) for r in records]  # a record's fields or a dict row
    fieldnames = tuple(rows[0]) if rows else tuple(f.name for f in fields(SimulationRecord))
    lines = [f"# {key}={value}" for key, value in (config or {}).items()]
    lines.append(",".join(fieldnames))
    lines.extend(",".join(_fmt(row[k]) for k in fieldnames) for row in rows)
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV to {path}: {exc}") from exc


def run_experiment(config: ExperimentConfig) -> tuple[list, dict]:
    """Dispatch one experiment; returns (records, summary)."""
    if config.experiment == "cost-model":
        return run_cost_model(config.m, config.levels), {}
    if config.experiment == "diffusion":
        return run_diffusion(config.solver, config.t_end, config.n_records)
    if config.experiment == "kelvin-voigt":
        return run_kelvin_voigt(config.solver, config.t_end, config.n_records)
    policy = config.memory_policy()
    if config.experiment == "order-study":
        return run_order_study(policy, config.alpha, config.dt, config.t_end)
    records = run_derivative_error(
        policy, config.alpha, config.dt[0], config.t_end, config.n_records
    )[0]
    return records, {"final_error": records[-1].abs_error}


def _parse_config_file(path: str) -> dict:
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


_SETTINGS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
# checked positive and finite in ``ExperimentConfig.__post_init__``
_FLOATS = tuple(name for name, f in _SETTINGS.items() if f.metadata["parse"] is float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracmem", description="fractional-derivative experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for name, f in _SETTINGS.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, help=f.metadata["help"])
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = _parse_config_file(args.config) if args.config else {}
    flags = {name: getattr(args, name) for name in _SETTINGS}
    raw.update((name, value) for name, value in flags.items() if value is not None)
    kwargs = {"experiment": args.experiment}
    for key, value in raw.items():
        if key not in _SETTINGS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            kwargs[key] = _SETTINGS[key].metadata["parse"](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"fracmem: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        records, summary = run_experiment(config)
        emit_csv(records, config.out, config.as_header())
    except Exception as exc:
        print(f"fracmem: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {config.out}")
    for key, value in summary.items():
        if key == "slopes":
            for a, slope in value.items():
                print(f"slope alpha={_fmt(a)}: {slope:.4f}")
        else:
            print(f"{key}={value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
