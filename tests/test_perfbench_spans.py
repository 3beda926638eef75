"""Every layer the benchmark's tracer wraps exists in fracmem.

``perfbench/tracing.py`` installs its wrappers by name; a renamed or removed
layer would make ``perfbench/run.py --trace 1`` fail at install time.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for _, mod, attr, _ in module.SPANS]


@pytest.mark.parametrize("module, attr", _spans(), ids=lambda v: v)
def test_span_resolves_in_fracmem(module, attr):
    owner = importlib.import_module(f"fracmem.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))
