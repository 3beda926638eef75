"""Command-line experiment runner emitting CSV instrumentation.

Usage:
    fracmem <experiment> [--config FILE] [--alpha A[,A..]] [--dt DT[,DT..]]
            [--memory-length T] [--policy P] [--t-end TE] [--out PATH] ...

Experiments: derivative-error, order-study, diffusion, kelvin-voigt,
cost-model.  Exit codes: 0 success, 2 configuration error, 1 runtime error.
Identical configurations produce identical CSV bytes apart from the
wall-clock column.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .experiments import (
    SimulationRecord,
    run_cost_model,
    run_derivative_error,
    run_diffusion,
    run_kelvin_voigt,
    run_order_study,
)
from .memory import MemoryPolicy, PolicyKind

__all__ = ["ConfigError", "ExperimentConfig", "emit_csv", "run_experiment", "main"]

EXPERIMENTS = ("derivative-error", "order-study", "diffusion", "kelvin-voigt", "cost-model")

_POLICY_NAMES = {k.value: k for k in PolicyKind}


class ConfigError(Exception):
    """Invalid run configuration; ``main`` maps it to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration (file values overridden by flags)."""

    experiment: str
    policy: str = "adaptive-present"
    alphas: tuple[float, ...] = (0.5,)
    dts: tuple[float, ...] = (0.01,)
    memory_length: float = 1.0
    t_end: float = 16.0
    out: str = "fracmem.csv"
    length: float = 10.0
    dx: float = 0.1
    mu: float | None = None
    eta: float = 1.0
    k: float = 1.0
    load: float = 1.0
    n_records: int = 64
    m: int = 10
    levels: tuple[int, ...] = (2, 3, 4)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.policy not in _POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; choose from {sorted(_POLICY_NAMES)}")
        numeric = [
            ("memory_length", self.memory_length),
            ("t_end", self.t_end),
            ("length", self.length),
            ("dx", self.dx),
            ("eta", self.eta),
            ("k", self.k),
            ("load", self.load),
            *(("dt", dt) for dt in self.dts),
        ]
        if self.mu is not None:
            numeric.append(("mu", self.mu))
        for name, value in numeric:
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.experiment != "order-study":
            # only the order study sweeps; the others would run the first value
            for name, values in (("alpha", self.alphas), ("dt", self.dts)):
                if len(values) > 1:
                    raise ConfigError(f"{self.experiment} takes one {name}, got {len(values)}")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alpha must lie in (0, 1), got {a}")
        for dt in self.dts:
            steps = self.t_end / dt
            if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
                raise ConfigError(f"t_end={self.t_end} is not a multiple of dt={dt}")
            if self.policy == PolicyKind.FIXED.value and self.memory_length < dt:
                # a window shorter than the step keeps one point: no history
                raise ConfigError(
                    f"fixed memory_length={self.memory_length} is shorter than dt={dt}"
                )
        if self.n_records < 1 or self.m < 1 or any(l < 0 for l in self.levels):
            raise ConfigError("n_records, m must be >= 1 and levels >= 0")

    def memory_policy(self) -> MemoryPolicy:
        kind = _POLICY_NAMES[self.policy]
        if kind is PolicyKind.FULL:
            return MemoryPolicy.full()
        return MemoryPolicy(kind, self.memory_length)

    def as_header(self) -> dict:
        out = {
            "experiment": self.experiment,
            "policy": self.policy,
            "alpha": ",".join(_fmt(a) for a in self.alphas),
            "dt": ",".join(_fmt(d) for d in self.dts),
            "memory_length": _fmt(self.memory_length),
            "t_end": _fmt(self.t_end),
        }
        if self.experiment == "diffusion":
            out.update(length=_fmt(self.length), dx=_fmt(self.dx), mu=_fmt(self.resolved_mu()))
        if self.experiment == "kelvin-voigt":
            out.update(eta=_fmt(self.eta), k=_fmt(self.k), load=_fmt(self.load))
        if self.experiment == "cost-model":
            out.update(m=str(self.m), levels=",".join(str(l) for l in self.levels))
        return out

    def resolved_mu(self) -> float:
        return (self.length / math.pi) ** 2 if self.mu is None else self.mu


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    return f"{float(x):.17g}"


def emit_csv(records, path, config: dict | None = None) -> None:
    """Write records with a config-echo comment header; 17 significant
    digits, LF newlines.  The file is written in one shot so a failed run
    leaves no partial CSV."""
    if records and isinstance(records[0], SimulationRecord):
        fieldnames = SimulationRecord.FIELDS
        rows = [
            [_fmt(r.t), _fmt(r.value), _fmt(r.analytic), _fmt(r.abs_error),
             str(r.stored_points), str(r.conv_terms), _fmt(r.wall_clock)]
            for r in records
        ]
    elif records:
        fieldnames = tuple(records[0].keys())
        rows = [[_fmt(row[k]) for k in fieldnames] for row in records]
    else:
        fieldnames = SimulationRecord.FIELDS
        rows = []
    lines = []
    for key, value in (config or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(fieldnames))
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write CSV to {path}: {exc}") from exc


def run_experiment(config: ExperimentConfig) -> tuple[list, dict]:
    """Dispatch one experiment; returns (records, summary)."""
    policy = config.memory_policy() if config.experiment != "cost-model" else None
    if config.experiment == "derivative-error":
        records = run_derivative_error(
            policy, config.alphas, config.dts[0], config.t_end, config.n_records
        )[0]
        return records, {"final_error": records[-1].abs_error}
    if config.experiment == "order-study":
        return run_order_study(policy, config.alphas, config.dts, config.t_end)
    if config.experiment == "diffusion":
        return run_diffusion(
            policy, config.alphas[0], config.dts[0], config.t_end,
            length=config.length, dx=config.dx, mu=config.resolved_mu(),
            n_records=config.n_records,
        )
    if config.experiment == "kelvin-voigt":
        return run_kelvin_voigt(
            policy, config.alphas[0], config.dts[0], config.t_end,
            eta=config.eta, k=config.k, load=config.load, n_records=config.n_records,
        )
    if config.experiment == "cost-model":
        return run_cost_model(config.m, config.levels), {}
    raise ConfigError(f"unknown experiment {config.experiment!r}")


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in str(text).split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in str(text).split(","))


_CONVERTERS = {
    "policy": str,
    "alpha": _floats,
    "dt": _floats,
    "memory_length": float,
    "t_end": float,
    "out": str,
    "length": float,
    "dx": float,
    "mu": float,
    "eta": float,
    "k": float,
    "load": float,
    "n_records": int,
    "m": int,
    "levels": _ints,
}

_FIELD_FOR_KEY = {"alpha": "alphas", "dt": "dts"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracmem", description="fractional-derivative experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--alpha", help="fractional order(s), comma separated")
    parser.add_argument("--dt", help="base time step(s), comma separated")
    parser.add_argument("--memory-length", dest="memory_length", help="memory length T")
    parser.add_argument("--policy", choices=sorted(_POLICY_NAMES))
    parser.add_argument("--t-end", dest="t_end", help="simulation horizon")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--length", help="diffusion domain length")
    parser.add_argument("--dx", help="diffusion grid spacing")
    parser.add_argument("--mu", help="diffusion coefficient")
    parser.add_argument("--eta", help="Kelvin-Voigt damping constant")
    parser.add_argument("--k", help="Kelvin-Voigt spring constant")
    parser.add_argument("--load", help="Kelvin-Voigt constant load")
    parser.add_argument("--n-records", dest="n_records", help="rows to record per run")
    parser.add_argument("--m", help="points per memory length (cost model)")
    parser.add_argument("--levels", help="memory doubling levels, comma separated (cost model)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        raw.update(_parse_config_file(args.config))
    for key in _CONVERTERS:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    kwargs = {"experiment": args.experiment}
    out = raw.pop("out", None)
    if out is not None:
        kwargs["out"] = str(out)
    for key, value in raw.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            converted = _CONVERTERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        kwargs[_FIELD_FOR_KEY.get(key, key)] = converted
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
