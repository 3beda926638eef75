"""Span tracing of fracmem's layers from outside the library.

``Tracer.install`` replaces the public functions and methods listed in
``SPANS`` with wrappers that record one span per call: name, start, end,
parent span, and for array-returning layers the array length and the bytes
the call materialised.  Spans are kept in flat ``array`` columns so that the
1.6M pushes of the write-heavy workload fit in a few tens of megabytes, and
are written out once, by ``save``, after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


def _array_len(result) -> tuple[int, int]:
    # (length, bytes materialised): a view of stored data copies nothing
    out = np.asarray(result)
    return len(out), (out.nbytes if out.flags.owndata else 0)


# (span name, module, attribute, sizer); layers are named after the modules
SPANS = (
    ("cli.run_experiment", "cli", "run_experiment", None),
    ("cli.emit_csv", "cli", "emit_csv", None),
    ("experiments.run", "experiments", "run_derivative_error", None),
    ("experiments.run", "experiments", "run_diffusion", None),
    ("experiments.run", "experiments", "run_kelvin_voigt", None),
    ("solvers.step", "solvers", "DiffusionSimulation.step", None),
    ("solvers.step", "solvers", "KelvinVoigtSimulation.step", None),
    ("solvers.thomas_solve", "solvers", "thomas_solve", None),
    ("memory.push", "memory", "HistoryBuffer.push", None),
    ("memory.times", "memory", "HistoryBuffer.times", _array_len),
    ("memory.values", "memory", "HistoryBuffer.values", _array_len),
    ("memory.gl_weights", "memory", "gl_weights", _array_len),
    ("core.caputo_weight", "core", "caputo_weight", None),
    ("core.caputo_weights", "core", "caputo_weights", _array_len),
    ("core.evaluate_caputo", "core", "evaluate_caputo", None),
    ("special.mittag_leffler", "special", "mittag_leffler", None),
)

NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("i")
        self.nbytes = array("i")
        self._stack = [-1]

    def wrap(self, name: str, fn, sizer=None):
        name_id = NAMES.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        items, nbytes, stack = self.items, self.nbytes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            items.append(0)
            nbytes.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if sizer is not None:
                items[idx], nbytes[idx] = sizer(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in SPANS wherever fracmem's modules bind it.

        Functions are rebound in each ``fracmem`` module whose globals hold
        the original object, because the modules import each other's names
        directly; methods are replaced on their class.
        """
        modules = [m for key, m in sys.modules.items() if key == "fracmem" or key.startswith("fracmem.")]
        for name, module, attr, sizer in SPANS:
            owner = sys.modules[f"fracmem.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), sizer))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, sizer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "items": np.frombuffer(self.items, dtype=np.int32),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int32),
        }

    def save(self, path: str, workload: str) -> None:
        np.savez(path, names=np.array(NAMES), workload=np.array(workload), **self.columns())


def summarize(cols: dict[str, np.ndarray]) -> dict:
    """Per-layer calls, self time, lengths and bytes, plus the derived counts.

    Self time is a span's duration minus the durations of its direct
    children.  Derived counts come from array sizes only, so they repeat
    exactly between runs of the same program.
    """
    name, parent = cols["name"].astype(np.intp), cols["parent"].astype(np.intp)
    dur = cols["end"] - cols["start"]
    items, nbytes = cols["items"], cols["nbytes"]
    n = dur.size
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    self_time = dur - child_time
    k = len(NAMES)
    calls = np.bincount(name, minlength=k)
    layer_self = np.bincount(name, weights=self_time, minlength=k)
    layer_items = np.bincount(name, weights=items, minlength=k)
    layer_bytes = np.bincount(name, weights=nbytes, minlength=k)
    layers = {
        nm: {
            "calls": int(calls[i]),
            "self_s": float(layer_self[i]),
            "items": int(layer_items[i]),
            "bytes": int(layer_bytes[i]),
        }
        for i, nm in enumerate(NAMES)
    }

    times_id, values_id = NAMES.index("memory.times"), NAMES.index("memory.values")
    gl_id = NAMES.index("memory.gl_weights")
    is_values = name == values_id
    rows_copied = int(items[is_values & (nbytes > 0)].sum())
    # weights a GL contraction uses: one per stored pair of the history its
    # step read (the sibling memory.times span under the same parent)
    read_len = np.zeros(n, dtype=np.int64)
    is_times = name == times_id
    read_len[parent[is_times & nested]] = items[is_times & nested]
    is_gl = (name == gl_id) & nested
    gl_used = int(np.maximum(read_len[parent[is_gl]] - 1, 0).sum())
    return {
        "layers": layers,
        "rows_copied": rows_copied,
        "gl_weights_used": gl_used,
        "spans": int(n),
        "self_total_s": float(self_time.sum()),
    }
