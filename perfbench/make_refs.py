"""Regenerate the reference outputs in ``ref/`` from the checkout's fracmem.

    python3 perfbench/make_refs.py

Writes ``ref/<workload>.csv`` (the CLI output at the nominal alpha) and
``ref/counts.json`` (the convolution terms each workload sums, which do not
depend on alpha).  The committed references were produced by the commit that
added the benchmark; regenerate them only when a change is meant to alter
outputs.
"""

from __future__ import annotations

import json
import shutil

from run import OUT, REF, WORKLOADS, conv_terms_total, oracle_job, read_csv, run_child


def main() -> int:
    REF.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    counts = {}
    for name, wl in WORKLOADS.items():
        out = OUT / f"ref-{name}.csv"
        report = run_child(name, wl, wl.alpha, out, oracle=oracle_job(wl, conv_terms=True))
        oracle, csv = report["oracle"], read_csv(out)
        total = conv_terms_total(wl, csv, oracle)
        if oracle.get("op_count", total) != total:
            raise SystemExit(f"{name}: conv_terms_total {total} disagrees with op_count: {oracle}")
        if int(csv.rows[-1]["stored_points"]) != oracle["retention_count"]:
            raise SystemExit(f"{name}: stored_points disagrees with retention_count: {oracle}")
        shutil.copyfile(out, REF / f"{name}.csv")
        counts[name] = {"conv_terms_total": total}
        print(name, total, oracle)
    (REF / "counts.json").write_text(json.dumps(counts, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
