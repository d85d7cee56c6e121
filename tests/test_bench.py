"""The benchmark's operations run against the package API as it stands.

`bench/workloads.py` looks up qqc functions when an operation runs, so an API
change would otherwise surface only inside a benchmark run. Each workload's
first operation runs here and passes that workload's own answer check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_first_operation_passes_its_check(name, tmp_path):
    op = workloads.BUILDERS[name](0, tmp_path)[0]
    op.check(op.run())
