"""One repetition of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 child.py '<job json>'``.  The child imports
fracmem from the checkout's ``src`` directory, runs ``fracmem.cli.main`` once
and prints one JSON line: the monotonic-clock marks around the experiment
call, the exit code, the peak RSS, and, for a traced run, the layer summary
(the spans themselves go to the ``spans`` file).  A fresh process per
repetition is how a CLI user runs the program: no Mittag-Leffler or GL
weight cache, mpmath cache or grown heap carries over between repetitions.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_cli(src: str):
    sys.path.insert(0, src)
    import fracmem.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"fracmem was imported from {cli.__file__}, not from {src}")
    return cli


def _oracles(cli, oracle: dict) -> dict:
    """Library counts the run is checked against; they depend on the time
    grid and the policy only, not on alpha or on values."""
    from fracmem.analysis import op_count
    from fracmem.experiments import accumulated_conv_terms, retention_count

    cfg = cli.ExperimentConfig(
        experiment="diffusion", policy=oracle["policy"], memory_length=oracle["memory_length"]
    )
    policy, dt, t_end = cfg.memory_policy(), oracle["dt"], oracle["t_end"]
    out = {"retention_count": retention_count(policy, dt, t_end)}
    if oracle["conv_terms"]:
        out["conv_terms_total"] = accumulated_conv_terms(policy, dt, t_end)
    if oracle["op_count"]:
        out["op_count"] = op_count(*oracle["op_count"])
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    cli = _import_cli(os.path.join(job["root"], "src"))
    tracer = None
    if job["spans"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # outermost hooks: run_s covers the experiment call and the CSV write
    marks = {}
    run_experiment, emit_csv = cli.run_experiment, cli.emit_csv

    def timed_run(config):
        marks["run_start"] = time.monotonic()
        return run_experiment(config)

    def timed_emit(*args, **kwargs):
        try:
            return emit_csv(*args, **kwargs)
        finally:
            marks["run_end"] = time.monotonic()

    cli.run_experiment, cli.emit_csv = timed_run, timed_emit
    rc = cli.main(job["argv"])
    result = {
        "rc": rc,
        **marks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from tracing import summarize

        result["trace"] = summarize(tracer.columns())
        tracer.save(job["spans"], job["workload"])
    if job["oracle"]:
        result["oracle"] = _oracles(cli, job["oracle"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
