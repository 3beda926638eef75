"""The pair summary of tools/pairs.py, fed canned benchmark reports."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "run_cal", "unit": "cal", "better": "lower", "bound": 0.25},
    {"name": "steps_per_cal", "unit": "1/cal", "better": "higher", "bound": 0.25},
]


def run(run_cal, steps_per_cal, failed=0):
    # a run.py report of one workload, "w"
    metrics = {"w.run_cal": {"value": run_cal, "unit": "cal"},
               "w.steps_per_cal": {"value": steps_per_cal, "unit": "1/cal"}}
    return {"seed": 0, "returncode": 0, "report": {"correct": not failed, "metrics": metrics},
            "failed": {"w": [failed, 10]}, "stderr": ""}


def test_medians_quartiles_and_wins_follow_each_metrics_better():
    runs = {
        "base": [run(1.0, 100.0), run(2.0, 200.0), run(3.0, 300.0), run(4.0, 400.0), run(5.0, 500.0)],
        "head": [run(0.5, 100.0), run(2.0, 150.0), run(3.5, 350.0), run(3.0, 450.0), run(4.0, 400.0, failed=2)],
    }
    cal, steps = pairs.summarise(runs, ["w"], END_TO_END)
    assert (cal["base_median"], cal["head_median"]) == (3.0, 3.0)
    assert cal["base_quartiles"] == [2.0, 4.0]
    # lower is better: 0.5 < 1, 3 < 4 and 4 < 5 win, 2 == 2 ties, 3.5 > 3 loses
    assert (cal["wins"], cal["ties"], cal["losses"]) == (3, 1, 1)
    # higher is better: 350 > 300 and 450 > 400 win, 100 == 100 ties
    assert (steps["wins"], steps["ties"], steps["losses"]) == (2, 1, 2)
    assert (cal["base_failed"], cal["head_failed"]) == (0, 2)
    assert cal["pairs"] == 5 and cal["bound"] == 0.25


def test_a_run_without_a_report_is_left_out_and_counted_failed():
    broken = {"seed": 0, "returncode": 1, "report": None, "failed": {}, "stderr": "boom"}
    runs = {"base": [run(1.0, 10.0), run(2.0, 20.0)], "head": [run(1.5, 15.0), broken]}
    cal, _ = pairs.summarise(runs, ["w"], END_TO_END)
    assert cal["pairs"] == 1
    assert (cal["base_median"], cal["head_median"]) == (1.0, 1.5)
    assert cal["base_quartiles"] == [1.0, 1.0]
    assert (cal["wins"], cal["ties"], cal["losses"]) == (0, 0, 1)
    assert (cal["base_failed"], cal["head_failed"]) == (0, 1)


def test_table_has_one_line_per_row():
    runs = {"base": [run(2.0, 10.0)] * 3, "head": [run(1.0, 10.0)] * 3}
    rows = pairs.summarise(runs, ["w"], END_TO_END)
    lines = pairs.format_rows(rows).splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[1].split()[:5] == ["w", "run_cal", "2", "1", "-50.0%"]
    assert lines[2].split()[6] == "0/3/0"


def test_failure_counts_come_from_run_py_headers():
    stdout = (
        "# diffusion-full: alpha=0.5003, 8 untraced repetitions (+1 check/other), "
        "failed 1/9, failed_frac=0.111\n"
    )
    assert pairs._FAILED.findall(stdout) == [("diffusion-full", "1", "9")]
