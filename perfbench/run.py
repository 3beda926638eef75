"""End-to-end and per-layer benchmark of fracmem through ``fracmem.cli.main``.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; fracmem is imported from its ``src``.  Each
repetition is a fresh interpreter that runs one CLI experiment, sequentially,
with no worker pool and single-threaded BLAS.  A run first makes one check
repetition at the workload's nominal alpha, compared with the reference CSV in
``ref/`` and with the library's count oracles, then repeats the workload at
the seed's alpha for ``--seconds``.  With ``--trace 0`` it reports the
end-to-end metrics, medians over the repetitions; run times are divided by a
calibration computation timed just before and after each repetition (see
``calibration_s``), and the wall times as measured are printed beside them.
With ``--trace 1`` it alternates traced and untraced repetitions and reports
per-layer metrics from the spans (see ``tracing.py``).  The last line of
stdout is one JSON object.  Outputs go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF = HERE / "ref"
OUT = ROOT / ".perfbench"

ALPHA_BAND = 0.001  # seeds draw alpha uniformly from nominal +- this
REL_TOL = 1e-12  # CSV agreement with the reference, relative
ERROR_RATIO = 1.5  # seeded errors stay within this factor of the reference's
MIN_UNTRACED = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 60.0
MAX_MEASURE_S = 100.0  # stop starting repetitions after this, whatever --seconds says
MAX_FAILED = 3  # and after this many failures
INT_COLUMNS = ("stored_points", "conv_terms")
CAL_ROUNDS = 5000  # about 0.25 s per calibration on a 2.1 GHz Xeon vCPU


@dataclass(frozen=True)
class Workload:
    experiment: str
    policy: str
    alpha: float
    dt: float
    memory_length: float
    t_end: float
    n_records: int = 64
    op_count: tuple | None = None  # (policy, m, L): closed form of conv_terms_total

    @property
    def evaluates_every_step(self) -> bool:
        return self.experiment != "derivative-error"

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)

    def argv(self, alpha: float, out: Path) -> list[str]:
        return [
            self.experiment, "--policy", self.policy, "--alpha", repr(alpha),
            "--dt", repr(self.dt), "--memory-length", repr(self.memory_length),
            "--t-end", repr(self.t_end), "--n-records", str(self.n_records), "--out", str(out),
        ]


# Why each workload is here is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "diffusion-adaptive": Workload("diffusion", "adaptive-present", 0.5, 0.01, 0.1, 102.4),
    "diffusion-full": Workload("diffusion", "full", 0.5, 0.01, 0.1, 25.6, op_count=("full", 10, 8)),
    "creep-gl": Workload("kelvin-voigt", "adaptive-gl", 0.7, 0.01, 1.0, 64.0),
    "derivative-push": Workload(
        "derivative-error", "adaptive-present", 0.5, 0.0025, 1.0, 4096.0, n_records=16
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("run_cal", "cal"),
    ("steps_per_cal", "1/cal"),
    ("final_abs_error", "1"),
    ("max_abs_error", "1"),
    ("stored_points", "count"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.emit_csv.self_s", "s"),
    ("experiments.run.self_s", "s"),
    ("experiments.conv_terms_total", "count"),
    ("solvers.step.self_s", "s"),
    ("solvers.thomas_solve.calls", "count"),
    ("solvers.thomas_solve.self_s", "s"),
    ("memory.push.calls", "count"),
    ("memory.push.self_s", "s"),
    ("memory.push.ns_per_call", "ns"),
    ("memory.times.self_s", "s"),
    ("memory.times.computed_bytes", "B"),
    ("memory.values.self_s", "s"),
    ("memory.values.computed_bytes", "B"),
    ("memory.values.copy_ratio", "row/row"),
    ("memory.gl_weights.self_s", "s"),
    ("memory.gl_weights.build_ratio", "1"),
    ("core.caputo_weight.self_s", "s"),
    ("core.caputo_weights.self_s", "s"),
    ("core.caputo_weights.terms", "count"),
    ("core.evaluate_caputo.self_s", "s"),
    ("special.mittag_leffler.calls", "count"),
    ("special.mittag_leffler.self_s", "s"),
    ("special.mittag_leffler.us_per_call", "us"),
    ("steps.ns_per_conv_term", "ns"),
    ("machine.cal_s", "s"),
    ("trace.spans", "count"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


class RepFailed(Exception):
    pass


@dataclass
class Csv:
    header: list[str]
    fields: list[str]
    rows: list[dict[str, str]]


def read_csv(path: Path) -> Csv:
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    fields = body[0].split(",")
    return Csv(header, fields, [dict(zip(fields, line.split(","))) for line in body[1:]])


def calibration_s() -> float:
    """Time of a fixed computation made of the work fracmem's steps do:
    rebuilding an array from a list of history rows, differencing it and
    contracting it with a weight vector.  Dividing run times by it cancels
    most of the minutes-long swings in CPU speed of a shared machine."""
    rows = [np.linspace(0.0, 1.0, 99) for _ in range(120)]
    weights = np.diff(np.arange(120, dtype=float)) ** 0.5
    tic = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        hist = np.asarray(rows)
        rows.append(rows[-1] + 1e-3 * (weights @ np.diff(hist, axis=0)))
        rows.pop(0)
    return time.perf_counter() - tic


def seeded_alpha(nominal: float, seed: int) -> float:
    """Seed 0 is the nominal alpha; other seeds draw from a narrow band."""
    if seed == 0:
        return nominal
    return nominal + ALPHA_BAND * (2.0 * random.Random(seed).random() - 1.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_csv(csv: Csv, ref: Csv, wl: Workload, alpha: float, retention: int | None) -> None:
    """Raise RepFailed unless the output is finite, self-consistent, and
    matches the reference: integer columns and times exactly or to REL_TOL
    at any alpha; value and analytic to REL_TOL at the nominal alpha, and
    errors within ERROR_RATIO of the reference elsewhere."""
    expected_header = [f"# alpha={alpha:.17g}" if h.startswith("# alpha=") else h for h in ref.header]
    if csv.header != expected_header:
        raise RepFailed(f"config header {csv.header} != {expected_header}")
    if csv.fields != ref.fields or len(csv.rows) != len(ref.rows):
        raise RepFailed(f"{len(csv.rows)} rows of {csv.fields}, expected {len(ref.rows)} of {ref.fields}")
    nominal = alpha == wl.alpha
    for row, ref_row in zip(csv.rows, ref.rows):
        vals = {k: float(v) for k, v in row.items()}
        if not all(math.isfinite(v) for v in vals.values()):
            raise RepFailed(f"non-finite value in row {row}")
        if vals["abs_error"] != abs(vals["value"] - vals["analytic"]):
            raise RepFailed(f"abs_error is not |value - analytic| at t={row['t']}")
        if any(row[c] != ref_row[c] for c in INT_COLUMNS):
            raise RepFailed(f"counts {[row[c] for c in INT_COLUMNS]} != reference at t={row['t']}")
        compared = ("t", "value", "analytic") if nominal else ("t",)
        for col in compared:
            if not _close(vals[col], float(ref_row[col])):
                raise RepFailed(f"{col}={row[col]} != reference {ref_row[col]} at t={row['t']}")
    if retention is not None and int(csv.rows[-1]["stored_points"]) != retention:
        raise RepFailed(f"stored_points {csv.rows[-1]['stored_points']} != retention_count {retention}")
    if not nominal:
        for name, got, want in (
            ("final_abs_error", final_error(csv), final_error(ref)),
            ("max_abs_error", max_error(csv), max_error(ref)),
        ):
            if not want / ERROR_RATIO <= got <= want * ERROR_RATIO:
                raise RepFailed(f"{name}={got} is not within {ERROR_RATIO}x of reference {want}")


def final_error(csv: Csv) -> float:
    return float(csv.rows[-1]["abs_error"])


def max_error(csv: Csv) -> float:
    return max(float(r["abs_error"]) for r in csv.rows)


def oracle_job(wl: Workload, conv_terms: bool) -> dict:
    """What the child computes from the library after the run: the retention
    count, and the accumulated convolution terms (a second pass over the time
    grid, so only when asked) with their closed form where one exists."""
    return {
        "policy": wl.policy, "memory_length": wl.memory_length, "dt": wl.dt, "t_end": wl.t_end,
        "conv_terms": conv_terms and wl.evaluates_every_step, "op_count": wl.op_count,
    }


def conv_terms_total(wl: Workload, csv: Csv, oracle: dict) -> int | None:
    """Convolution terms the run summed: the library's accumulated count for
    the solvers, which contract the history every step (None unless the
    oracle computed it); the recorded evaluations for the derivative study,
    which evaluates at record steps only."""
    if wl.evaluates_every_step:
        return oracle.get("conv_terms_total")
    return sum(int(row["conv_terms"]) for row in csv.rows)


def run_child(
    name: str, wl: Workload, alpha: float, out: Path, spans: Path | None = None, oracle: dict | None = None
) -> dict:
    """One repetition in a fresh interpreter; returns the child's report with
    ``spawn`` set to the monotonic time just before the process started."""
    job = {
        "root": str(ROOT),
        "argv": wl.argv(alpha, out),
        "workload": name,
        "spans": str(spans) if spans else None,
        "oracle": oracle,
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.unlink(missing_ok=True)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    if report["rc"] != 0:
        raise RepFailed(f"fracmem exited {report['rc']}: {proc.stderr.strip()[-2000:]}")
    report["spawn"] = spawn
    return report


def _counts(trace: dict) -> dict:
    """Everything in a layer summary that must repeat exactly."""
    exact = {k: v for k, v in trace.items() if k in ("rows_copied", "gl_weights_used", "spans")}
    for name, layer in trace["layers"].items():
        exact[name] = (layer["calls"], layer["items"], layer["bytes"])
    return exact


class Run:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.alpha = seeded_alpha(self.wl.alpha, seed)
        self.ref = read_csv(REF / f"{name}.csv")
        self.ref_counts = json.loads((REF / "counts.json").read_text())[name]
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)  # outputs of an earlier run
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.oracle: dict = {}
        self.conv_terms: int | None = None
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self._outputs: dict[float, list] = {}

    def repetition(self, alpha: float, traced: bool = False, oracle: dict | None = None) -> float:
        """Run, check and file one repetition; returns its wall time."""
        self.attempted += 1
        k = self.attempted
        out = self.dir / f"rep{k}.csv"
        spans = self.dir / f"spans{k}.npz" if traced else None
        tic = time.monotonic()
        cal_before = calibration_s()
        try:
            report = run_child(self.name, self.wl, alpha, out, spans, oracle)
            csv = read_csv(out)
            if oracle is not None:
                self.oracle = report["oracle"]
                self.conv_terms = conv_terms_total(self.wl, csv, self.oracle)
            check_csv(csv, self.ref, self.wl, alpha, self.oracle.get("retention_count"))
            # identical inputs must give identical CSV bytes, wall clock aside
            output = [[v for f, v in r.items() if f != "wall_clock"] for r in csv.rows]
            if self._outputs.setdefault(alpha, output) != output:
                raise RepFailed("output differs from an earlier repetition with the same alpha")
            if traced:
                self._check_trace(report["trace"])
        except RepFailed as exc:
            self.failed += 1
            print(f"{self.name}: repetition {k} failed: {exc}", file=sys.stderr)
            return time.monotonic() - tic
        # the machine's speed in the seconds around the repetition
        report["cal_s"] = (cal_before + calibration_s()) / 2.0
        report["setup_s"] = report["run_start"] - report["spawn"]
        report["run_s"] = report["run_end"] - report["run_start"]
        report["wall_clock"] = float(csv.rows[-1]["wall_clock"])
        report["final_abs_error"] = final_error(csv)
        report["max_abs_error"] = max_error(csv)
        report["stored_points"] = int(csv.rows[-1]["stored_points"])
        if not oracle:
            (self.traced if traced else self.untraced).append(report)
        return time.monotonic() - tic

    def _check_trace(self, trace: dict) -> None:
        want = self.ref_counts["conv_terms_total"]
        closed_form = self.oracle.get("op_count", want)
        if self.conv_terms != want or closed_form != want:
            raise RepFailed(f"conv_terms_total {self.conv_terms} != reference {want} or op_count {closed_form}")
        if self.traced and _counts(self.traced[0]["trace"]) != _counts(trace):
            raise RepFailed("layer counts differ between traced repetitions")

    def measure(self, seconds: float, trace: bool) -> None:
        self.repetition(self.wl.alpha, oracle=oracle_job(self.wl, conv_terms=trace))
        start = time.monotonic()
        last = 0.0
        while True:
            elapsed = time.monotonic() - start
            if trace:
                enough = len(self.traced) >= MIN_TRACED and len(self.untraced) >= 1
            else:
                enough = len(self.untraced) >= MIN_UNTRACED
            if (enough and elapsed + last / 2 >= seconds) or elapsed >= MAX_MEASURE_S or self.failed > MAX_FAILED:
                break
            # traced runs alternate, traced first: T, U, T, U, ...
            traced = trace and len(self.traced) <= len(self.untraced)
            last = self.repetition(self.alpha, traced=traced)

    def end_to_end(self) -> dict[str, float]:
        reps = self.untraced
        med = lambda key: statistics.median(r[key] for r in reps)
        return {
            "setup_s": med("setup_s"),
            "run_cal": statistics.median(r["run_s"] / r["cal_s"] for r in reps),
            "steps_per_cal": statistics.median(self.wl.steps * r["cal_s"] / r["wall_clock"] for r in reps),
            "final_abs_error": med("final_abs_error"),
            "max_abs_error": med("max_abs_error"),
            "stored_points": med("stored_points"),
            "peak_rss_mb": med("maxrss_kb") / 1024.0,
        }

    def per_layer(self) -> dict[str, float]:
        traces = [r["trace"] for r in self.traced]
        first = traces[0]
        layers = first["layers"]

        def self_s(name: str) -> float:
            return statistics.median(t["layers"][name]["self_s"] for t in traces)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        traced_run = statistics.median(r["run_s"] for r in self.traced)
        untraced_run = statistics.median(r["run_s"] for r in self.untraced)
        stepping = statistics.median(r["wall_clock"] for r in self.untraced)
        conv = self.conv_terms
        push, ml = layers["memory.push"], layers["special.mittag_leffler"]
        return {
            "cli.emit_csv.self_s": self_s("cli.emit_csv"),
            "experiments.run.self_s": self_s("experiments.run"),
            "experiments.conv_terms_total": conv,
            "solvers.step.self_s": self_s("solvers.step"),
            "solvers.thomas_solve.calls": layers["solvers.thomas_solve"]["calls"],
            "solvers.thomas_solve.self_s": self_s("solvers.thomas_solve"),
            "memory.push.calls": push["calls"],
            "memory.push.self_s": self_s("memory.push"),
            "memory.push.ns_per_call": ratio(self_s("memory.push") * 1e9, push["calls"]),
            "memory.times.self_s": self_s("memory.times"),
            "memory.times.computed_bytes": layers["memory.times"]["bytes"],
            "memory.values.self_s": self_s("memory.values"),
            "memory.values.computed_bytes": layers["memory.values"]["bytes"],
            "memory.values.copy_ratio": ratio(first["rows_copied"], push["calls"]),
            "memory.gl_weights.self_s": self_s("memory.gl_weights"),
            "memory.gl_weights.build_ratio": ratio(layers["memory.gl_weights"]["items"], first["gl_weights_used"]),
            "core.caputo_weight.self_s": self_s("core.caputo_weight"),
            "core.caputo_weights.self_s": self_s("core.caputo_weights"),
            "core.caputo_weights.terms": layers["core.caputo_weights"]["items"],
            "core.evaluate_caputo.self_s": self_s("core.evaluate_caputo"),
            "special.mittag_leffler.calls": ml["calls"],
            "special.mittag_leffler.self_s": self_s("special.mittag_leffler"),
            "special.mittag_leffler.us_per_call": ratio(self_s("special.mittag_leffler") * 1e6, ml["calls"]),
            "steps.ns_per_conv_term": ratio(stepping * 1e9, conv),
            "machine.cal_s": statistics.median(r["cal_s"] for r in self.untraced + self.traced),
            "trace.spans": first["spans"],
            "trace.run_s": traced_run,
            "trace.untraced_run_s": untraced_run,
            "trace.overhead_s": traced_run - untraced_run,
            "trace.unaccounted_s": statistics.median(
                r["run_s"] - r["trace"]["self_total_s"] for r in self.traced
            ),
        }

    def check_accounting(self) -> None:
        """Layer self times must account for each traced run_s to within the
        tracing overhead (or 0.1% of run_s when the overhead is smaller)."""
        overhead = statistics.median(r["run_s"] for r in self.traced) - statistics.median(
            r["run_s"] for r in self.untraced
        )
        for r in self.traced:
            gap = r["run_s"] - r["trace"]["self_total_s"]
            if abs(gap) > max(abs(overhead), 1e-3 * r["run_s"]):
                self.failed += 1
                print(f"{self.name}: self times leave {gap:.6f} s of run_s unaccounted", file=sys.stderr)

    def samples(self, trace: bool) -> int:
        return len(self.traced) if trace else len(self.untraced)


def describe(run: Run, metrics: dict[str, float], units: dict[str, str], trace: bool) -> None:
    n = run.samples(trace)
    print(
        f"# {run.name}: alpha={run.alpha!r}, {n} {'traced' if trace else 'untraced'} repetitions "
        f"(+{run.attempted - n} check/other), failed {run.failed}/{run.attempted}, "
        f"failed_frac={run.failed / run.attempted:.3f}"
    )
    for key, value in metrics.items():
        print(f"{run.name:>20s}  {key:<36s} {value:>16.6g} {units[key]}")
    if not trace:
        # wall times as measured; the gated metrics divide them by cal_s
        med = lambda values: statistics.median(values)
        reps = run.untraced
        print(
            f"# {run.name}: medians of {n}: run_s={med(r['run_s'] for r in reps):.4f} s, "
            f"steps_per_s={med(run.wl.steps / r['wall_clock'] for r in reps):.1f} 1/s, "
            f"cal_s={med(r['cal_s'] for r in reps):.4f} s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracmem" / "cli.py").is_file():
        print(f"run.py: no fracmem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = dict(PER_LAYER if trace else END_TO_END)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        run = Run(name, args.seed)
        run.measure(args.seconds, trace)
        if not run.untraced or (trace and not run.traced):
            print(f"run.py: {name}: no repetition succeeded", file=sys.stderr)
            return 1
        if trace:
            run.check_accounting()
        values = run.per_layer() if trace else run.end_to_end()
        describe(run, values, units, trace)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
