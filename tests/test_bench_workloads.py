"""The benchmark's workloads and references, run at small sizes, and the
engine functions its trace hooks patch.

`bench/workloads.py` builds each workload's `.ifol` inputs from a seed and
checks reports against references it computes without the engine.  Running
it here on small instances shows a wrong report without a benchmark run.
`bench/spans.py` skips a hook whose target is gone; here a gone target fails.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import ifol.cli
import ifol.semantics
import ifol.workspace
from ifol import load_workspace
from ifol.cli import run_queries
from ifol.semantics import intension_plan

from conftest import ROOT, load_bench

workloads = load_bench("workloads")
spans = load_bench("spans")

SMALL = {
    "unary-worlds": lambda seed: workloads.unary_worlds(seed, n=3),
    "grid-assignments": lambda seed: workloads.grid_assignments(seed, k=2),
    "fixtures": lambda seed: workloads.fixtures(ROOT, seed),
}


def _dropped_structure_survives(text: str, max_worlds: int) -> bool:
    """Run every query of a workspace, drop it, and tell whether its
    structure outlived it, with the cyclic collector off: true only where a
    reference cycle holds it."""
    ws = load_workspace(text, max_worlds)
    run_queries(ws)
    space = weakref.ref(ws.space)
    del ws
    return space() is not None


def test_a_dropped_workspace_frees_its_structure_without_the_collector():
    """Compiling, sweeping and planning make no reference cycle, so a
    workspace and its compiled formulas go as soon as it is dropped: on all 8
    fixtures, the small unary and grid workloads, and bealer with its world
    budget too small, where every query fails in enumeration."""
    cases = [(f.label, f.text, ifol.semantics.MAX_WORLDS) for make in SMALL.values()
             for f in make(11).files]
    cases.append(("bealer, 2 worlds", (ROOT / "fixtures" / "bealer.ifol").read_text(), 2))
    assert run_queries(load_workspace(cases[-1][1], 2))[0].count("ERROR ExplosionGuard") == 4
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kept = [label for label, text, budget in cases
                if _dropped_structure_survives(text, budget)]
    finally:
        if enabled:
            gc.enable()
    assert len(cases) == 11 and kept == []


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


def test_grid_pass_applies_each_builtin_once_per_binding(monkeypatch):
    """The grid-assignments workload at its benchmark size, k = 8: 17^3
    assignments, where evaluating every term at every assignment made 112,999
    built-in applications.  Both intensions, of the INTENSION query and of
    the Bealer-Montague query, are comparisons that cannot raise, so they
    have relational plans, which apply no built-in through the engine's
    `apply_function`.  The Tarski extension side of Bealer-Montague is a
    staged sweep, a column at a time over z: each term is evaluated once per
    binding of the parameters it reads, and a column over raw numbers maps
    the bare operator, which is not counted: (z + 1)^2 and the sum over all
    three variables.  That leaves 17 * 5 + 1 + 289 = 375 applications, where
    one `apply_function` call per position made 17 * 6 + 1 + 289 + 4,913 =
    5,305."""
    calls = []
    real = ifol.semantics.apply_function
    monkeypatch.setattr(ifol.semantics, "apply_function",
                        lambda evaluator, args: calls.append(evaluator) or real(evaluator, args))
    workload = workloads.grid_assignments(1, k=8)
    ws = load_workspace(workload.files[0].text)
    sphere = load_workspace((ROOT / "fixtures" / "sphere.ifol").read_text())
    for space, query in [(ws.space, q) for q in ws.queries[:2]] + [(sphere.space,
                                                                    sphere.queries[1])]:
        assert query.kind in ("intension", "bealer-montague")
        assert intension_plan(space, query.formula) is not None
    report, status = run_queries(ws)
    assert workload.files[0].reference.wrong(workloads.split_report(report), status) == 0
    assert len(calls) == 375


def test_grid_intension_reads_each_pool_lexeme_once(monkeypatch):
    """The INTENSION of the grid-assignments workload at k = 8 lists 2,109 of
    17^3 points.  Its rows range over three pools of 17 reals in lexeme
    order, so they are rendered from the pools' product with one lexeme read
    per pool element, 51 in all, where a lexeme read per cell made 6,328."""
    calls = []
    real = ifol.cli.element_lexeme
    monkeypatch.setattr(ifol.cli, "element_lexeme", lambda el: calls.append(el) or real(el))
    workload = workloads.grid_assignments(1, k=8)
    text = "".join(line for line in workload.files[0].text.splitlines(True)
                   if not line.startswith("query") or line.startswith("query intension"))
    ws = load_workspace(text)
    assert [q.kind for q in ws.queries] == ["intension"]
    report, status = run_queries(ws)
    assert report.count("\n  (") == workload.params["points"] == 2_109 and status == 0
    assert len(calls) <= 3 * 17


@pytest.mark.parametrize("module, path", sorted(
    {*(target for targets in spans.HOOKS.values() for target in targets),
     *spans.AGGREGATE_HOOKS.values()}), ids=":".join)
def test_every_bench_hook_finds_its_target(module, path):
    spans._resolve(module, path)


def test_the_small_workloads_reach_every_bench_span():
    """Every span name and aggregate of `bench/spans.py` has a target that the
    small workloads call, looked up where the benchmark looks it up, so a
    refactor that goes around one fails here instead of zeroing a per-layer
    counter of the benchmark."""
    tracer = spans.Tracer()
    tracer.install_spans()
    try:
        for make in SMALL.values():
            for f in make(11).files:
                ifol.cli.run_queries(ifol.workspace.load_workspace(f.text))
    finally:
        tracer.uninstall()
    reached = {spans.NAMES[i] for i in tracer.names}
    reached |= {name for name, (calls, _) in tracer.aggregates.items() if calls}
    assert not tracer.missing
    assert {*spans.HOOKS, *spans.AGGREGATE_HOOKS} - reached == set()
