"""The benchmark's workloads and references, run at small sizes.

`bench/workloads.py` builds each workload's `.ifol` inputs from a seed and
checks reports against references it computes without the engine.  Running
it here on small instances shows a wrong report without a benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from ifol import load_workspace
from ifol.cli import run_queries

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

SMALL = {
    "unary-worlds": lambda seed: workloads.unary_worlds(seed, n=3),
    "grid-assignments": lambda seed: workloads.grid_assignments(seed, k=2),
    "fixtures": lambda seed: workloads.fixtures(ROOT, seed),
}


def test_references_agree_with_brute_force():
    assert workloads.self_check() == []


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_engine_reports_match_the_references(name, seed):
    workload = SMALL[name](seed)
    assert workload.files
    for f in workload.files:
        report, status = run_queries(load_workspace(f.text))
        assert f.reference.wrong(workloads.split_report(report), status) == 0, f.label
