"""Run the benchmark in alternating pairs on two git refs and compare them.

Usage: python tools/pairs.py BASE HEAD [--pairs N] [--seconds S]
                             [--first-seed K] [--json PATH]

Each ref (any tree-ish) is extracted with ``git archive`` into its own
temporary directory, ``base`` or ``head``, so that both sides run from
fresh checkouts of equal path length (a clone and a copy of the same files
read a few percent apart).  Pair i runs the ``command`` of
``BENCHMARK.json`` as
``python3 perfbench/run.py --workload all --seed K+i --seconds S --trace 0``
in each directory, both sides on the same seed, the base side first on
even i and the head side first on odd i.  S defaults to ``run_seconds`` of
``BENCHMARK.json``.

For each workload and each end-to-end metric of ``BENCHMARK.json`` it then
prints both sides' medians, the base side's interquartile range (inclusive
quartiles), the head side's wins, ties and losses over the pairs by the
metric's ``better``, and each side's failed repetitions.  ``--json PATH``
writes the raw run reports and that summary.  It imports no fracmem code.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
# describe()'s header line of each workload in perfbench/run.py's stdout
_FAILED = re.compile(r"^# (\S+): alpha=.*, failed (\d+)/(\d+),", re.MULTILINE)


def extract(ref: str, into: Path) -> str:
    """Write the files of ``ref`` into ``into``; return its full object name."""
    name = subprocess.run(
        ["git", "rev-parse", "--verify", ref], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", name], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return name


def run_once(command: list[str], checkout: Path, seed: int, seconds: float) -> dict:
    """One run of the benchmark ``command`` on every workload: its seed, exit
    code, last-line report (None when it wrote none) and failed/attempted
    repetitions per workload."""
    argv = [*command, "--workload", "all", "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = None
    failed = {name: [int(f), int(a)] for name, f, a in _FAILED.findall(out.stdout)}
    return {"seed": seed, "returncode": out.returncode, "report": report, "failed": failed,
            "stderr": out.stderr[-2000:]}


def _value(run: dict, workload: str, metric: str) -> float | None:
    report = run["report"]
    if report is None:
        return None
    entry = report["metrics"].get(f"{workload}.{metric}")
    return None if entry is None else entry["value"]


def _failed(runs: list[dict], workload: str) -> int:
    # a run that wrote no report for the workload counts as one failure
    return sum(run["failed"][workload][0] if workload in run["failed"] else 1 for run in runs)


def summarise(runs: dict[str, list[dict]], workloads: list[str], end_to_end: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric; ``runs[side][i]`` is the
    run of pair i on that side."""
    rows = []
    for workload in workloads:
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [(_value(b, workload, name), _value(h, workload, name)) for b, h in zip(runs["base"], runs["head"])]
            pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
            base, head = [b for b, _ in pairs], [h for _, h in pairs]
            wins = sum(h < b if lower else h > b for b, h in pairs)
            ties = sum(h == b for b, h in pairs)
            if len(base) > 1:
                q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
            else:
                q1 = q3 = base[0] if base else None
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "pairs": len(pairs),
                "base_median": statistics.median(base) if base else None,
                "head_median": statistics.median(head) if head else None,
                "base_quartiles": [q1, q3],
                "wins": wins,
                "ties": ties,
                "losses": len(pairs) - wins - ties,
                "base_failed": _failed(runs["base"], workload),
                "head_failed": _failed(runs["head"], workload),
            })
    return rows


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.6g}"


def format_rows(rows: list[dict]) -> str:
    """The summary as a fixed-width table, one line per row."""
    lines = [f"{'workload':<20} {'metric':<16} {'base':>11} {'head':>11} {'change':>8} "
             f"{'base IQR':>11} {'W/T/L':>8} {'failed':>7}"]
    for row in rows:
        b, h = row["base_median"], row["head_median"]
        change = f"{(h - b) / b:+.1%}" if b and h is not None else "-"
        q1, q3 = row["base_quartiles"]
        iqr = _fmt(q3 - q1) if q1 is not None else "-"
        lines.append(
            f"{row['workload']:<20} {row['metric']:<16} {_fmt(b):>11} {_fmt(h):>11} {change:>8} "
            f"{iqr:>11} {row['wins']:>2}/{row['ties']}/{row['losses']:<2} "
            f"{row['base_failed']:>3}/{row['head_failed']:<3}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    workloads = [w["name"] for w in benchmark["workloads"]]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: extract(ref, checkouts[side]) for side, ref in zip(SIDES, (args.base, args.head))}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(benchmark["command"], checkouts[side], seed, seconds))
                print(f"pair {i + 1}/{args.pairs} seed {seed}: {side} done", file=sys.stderr)
    rows = summarise(runs, workloads, benchmark["end_to_end"])
    print(f"base {args.base} ({commits['base']}), head {args.head} ({commits['head']}); "
          f"{args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, {seconds:g} s per workload")
    print(format_rows(rows))
    if args.json:
        args.json.write_text(json.dumps({
            "base": args.base, "head": args.head, "commits": commits, "seeds": seeds,
            "seconds": seconds, "first": ["base" if i % 2 == 0 else "head" for i in range(args.pairs)],
            "runs": runs, "summary": rows,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
