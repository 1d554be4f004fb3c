"""ifol benchmark: time to verdict, set-up time and peak memory per workload.

    python3 bench/run.py --workload unary-worlds --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the engine is imported from
`src/`, and the run fails with a non-zero exit code when it is not there.
One process measures one workload, single-threaded, through the two entry
points `ifol run` uses: `load_workspace(text)` and then `run_queries(ws)`
with default arguments.  Workloads are described in `workloads.py`.

Timings are scaled to a reference speed.  On the 2-core shared host this was
written on, the machine's speed drifted by up to 60% over tens of seconds,
which no median inside one run can remove: the run-to-run spread of raw
medians was 0.28-0.63.  So passes run in blocks of about BLOCK_S seconds with
a fixed speed probe (see `speed_probe`) before and after each block, and every
pass time is multiplied by REFERENCE_PROBE_S over the mean probe time of its
block: a figure reads as seconds on a machine where the probe takes 10 ms.
That brought the spread to 0.02-0.05.  The raw medians are in the detail line.

--trace 0  end-to-end metrics, tracing off:
           setup_s      median per-pass scaled time of `load_workspace`, summed
                        over the workload's files (its own repeated-load phase)
           verdict_s    median per-pass scaled time of `run_queries`, from a
                        loaded workspace to the full report
           peak_rss_mb  `ru_maxrss` of this process
--trace 1  per-layer metrics from spans recorded around each layer's public
           functions (see `spans.py`), as medians over traced passes, plus
           trace.overhead_ratio: traced over untraced verdict time, from
           passes interleaved in this process.

Every report is checked against a reference the benchmark computes itself;
`failed` counts the queries whose verdict or answer differs or that raised.
The last stdout line is the result object.  The line before it holds the
run's detail: pass counts, pass-to-pass spread, report hashes, machine
context, reference self-check and any hook the engine no longer has.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, TypeVar

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SHARE = 0.1   # of --seconds, spent on repeated loads before the verdict passes
MIN_PASSES = 3      # per kind of pass, even when one pass outlasts --seconds
BLOCK_S = 0.1       # passes between two speed probes
REFERENCE_PROBE_S = 0.010
clock = time.perf_counter
T = TypeVar("T")


@dataclass(frozen=True)
class _Cell:
    name: str
    index: int


def speed_probe() -> float:
    """Seconds for a fixed mix of what the engine does most: frozen dataclasses
    hashed into sets, dict copies, frozensets and exact fractions.  It tracks
    the engine's pass times far better than a plain arithmetic loop, which
    misses the slowdowns that come from allocation and caches."""
    start = clock()
    cells = [_Cell(str(i % 97), i) for i in range(3000)]
    seen: set[_Cell] = set()
    env: dict[str, _Cell] = {}
    for c in cells:
        seen.add(c)
        env = dict(env) if len(env) < 50 else {}
        env[c.name] = c
    sum(1 for c in cells if _Cell(c.name, c.index) in seen)
    {frozenset(cells[i:i + 8]) for i in range(0, len(cells), 8)}
    sum(Fraction(i, 7) for i in range(200))
    return clock() - start


def in_blocks(run_pass: Callable[[], T], budget: float) -> list[tuple[float, T]]:
    """(scale, result) of each pass, run for `budget` seconds in probed blocks."""
    out: list[tuple[float, T]] = []
    end = clock() + budget
    while len(out) < MIN_PASSES or clock() < end:
        before = speed_probe()
        block_end = clock() + BLOCK_S
        block = [run_pass()]
        while clock() < block_end:
            block.append(run_pass())
        scale = REFERENCE_PROBE_S / ((before + speed_probe()) / 2)
        out.extend((scale, result) for result in block)
    return out


def import_engine() -> tuple[object, object]:
    """The engine's `workspace` and `cli` modules, from this checkout only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ifol
        import ifol.cli
        import ifol.workspace
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the engine from {src}: {exc}") from None
    if not Path(ifol.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: imported ifol from {ifol.__file__}, not from {src}")
    return ifol.workspace, ifol.cli


@dataclass
class Tally:
    """Reference verdicts of every report, cached by report hash."""

    attempted: int = 0
    failed: int = 0
    hashes: dict[str, set[str]] = field(default_factory=dict)
    errors: set[str] = field(default_factory=set)
    _wrong: dict[tuple[str, str, int], int] = field(default_factory=dict)

    def record(self, f: workloads.WorkloadFile, report: str, status: int) -> None:
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        self.hashes.setdefault(f.label, set()).add(digest)
        key = (f.label, digest, status)
        if key not in self._wrong:
            self._wrong[key] = f.reference.wrong(workloads.split_report(report), status)
        self.attempted += f.reference.queries
        self.failed += self._wrong[key]

    def raised(self, f: workloads.WorkloadFile, exc: Exception) -> None:
        self.attempted += f.reference.queries
        self.failed += f.reference.queries
        self.errors.add(f"{f.label}: {type(exc).__name__}: {exc}")


@dataclass
class Pass:
    """One verdict pass over every file of the workload."""

    seconds: float = 0.0
    report_bytes: int = 0
    lattice_nodes: int = 0
    subconcepts_made: int = 0


def _lattice_size(ws) -> int:
    """Sort-lattice nodes; 0 where the engine no longer exposes them, so a
    refactor of the lattice never reads as failed queries."""
    try:
        return len(ws.domain.lattice.nodes)
    except AttributeError:
        return 0


def verdict_pass(ws_mod, cli_mod, workload: workloads.Workload, tally: Tally) -> Pass:
    """Load each file untimed, then time `run_queries` on it."""
    gc.collect()
    out = Pass()
    for f in workload.files:
        try:
            ws = ws_mod.load_workspace(f.text)
            nodes = _lattice_size(ws)
            start = clock()
            report, status = cli_mod.run_queries(ws)
            out.seconds += clock() - start
            grown = _lattice_size(ws)
        except Exception as exc:  # a raising workspace fails its queries; the run goes on
            tally.raised(f, exc)
            continue
        out.report_bytes += len(report.encode("utf-8"))
        out.lattice_nodes += grown
        out.subconcepts_made += grown - nodes
        tally.record(f, report, status)
    return out


def setup_pass(ws_mod, workload: workloads.Workload) -> float:
    """Load time of one pass over every file."""
    total = 0.0
    for f in workload.files:
        start = clock()
        ws = ws_mod.load_workspace(f.text)
        total += clock() - start
        del ws
    return total


def spread(samples: list[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    if len(samples) < 2:
        return None
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else None


def tail(samples: list[float]) -> dict[str, float]:
    """The highest of p99 / p90 with at least 10 samples beyond it."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return {f"p{pct}": statistics.quantiles(samples, n=100)[pct - 1]}
    return {}


def end_to_end(ws_mod, cli_mod, workload, tally, seconds: float, detail: dict) -> dict:
    start = clock()
    setup_pass(ws_mod, workload)  # warm-up: the first loads pay lazy imports
    setup = in_blocks(lambda: setup_pass(ws_mod, workload), seconds * SETUP_SHARE)
    verdicts = in_blocks(lambda: verdict_pass(ws_mod, cli_mod, workload, tally).seconds,
                         seconds - (clock() - start))
    scaled = {"setup_s": [k * t for k, t in setup], "verdict_s": [k * t for k, t in verdicts]}
    raw = {"setup_s": [t for _, t in setup], "verdict_s": [t for _, t in verdicts]}
    detail.update(setup_passes=len(setup), verdict_passes=len(verdicts),
                  raw_median_s={name: statistics.median(v) for name, v in raw.items()},
                  mean_scale=statistics.fmean(k for k, _ in verdicts),
                  pass_spread={name: spread(v) for name, v in scaled.items()},
                  verdict_tail_s=tail(scaled["verdict_s"]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"setup_s": (statistics.median(scaled["setup_s"]), "s"),
            "verdict_s": (statistics.median(scaled["verdict_s"]), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


@dataclass
class TracedPass:
    result: Pass
    trace: spans.PassTrace
    counters: dict[str, float]
    aggregates: dict[str, list]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# name -> (unit, value of one traced pass).  Times are span totals (outermost
# spans of a name) or self times (minus the spans nested directly inside);
# like the end-to-end times they are scaled by the probe of their block.
PER_LAYER: dict[str, tuple[str, Callable[[TracedPass], float]]] = {
    "workspace.load_s": ("s", lambda p: p.trace.total_s["workspace.load"]),
    "workspace.load_self_s": ("s", lambda p: p.trace.self_s["workspace.load"]),
    "parser.parse_s": ("s", lambda p: p.trace.total_s["parser.parse"]),
    "parser.formulas": ("count", lambda p: p.trace.calls["parser.parse"]),
    "sorting.check_s": ("s", lambda p: p.trace.total_s["sorting.check"]),
    "sorting.formulas_checked": ("count", lambda p: p.trace.calls["sorting.check"]),
    "kernel.lattice_s": ("s", lambda p: p.trace.total_s["kernel.lattice"]),
    "kernel.lattice_updates": ("count", lambda p: p.trace.calls["kernel.lattice"]),
    "kernel.lattice_nodes": ("count", lambda p: p.result.lattice_nodes),
    "concepts.tree_self_s": ("s", lambda p: p.trace.self_s["concepts.tree"]),
    "concepts.interpret_s": ("s", lambda p: p.trace.total_s["concepts.interpret"]),
    "concepts.interpret_calls": ("count", lambda p: p.trace.calls["concepts.interpret"]),
    "concepts.subconcepts_made": ("count", lambda p: p.result.subconcepts_made),
    "semantics.enumerate_s": ("s", lambda p: p.trace.total_s["semantics.enumerate"]),
    "semantics.candidate_worlds": ("count", lambda p: p.counters.get("candidate_worlds", 0)),
    "semantics.worlds": ("count", lambda p: p.counters.get("worlds", 0)),
    "semantics.isa_keep_ratio": ("ratio", lambda p: _ratio(p.counters.get("worlds", 0),
                                                          p.counters.get("candidate_worlds", 0))),
    "semantics.models_s": ("s", lambda p: p.trace.total_s["semantics.models"]),
    "semantics.model_checks": ("count", lambda p: p.trace.calls["semantics.models"]),
    "semantics.model_ratio": ("ratio", lambda p: _ratio(p.counters.get("models", 0),
                                                       p.trace.calls["semantics.models"])),
    "semantics.consequence_self_s": ("s", lambda p: p.trace.self_s["semantics.consequence"]),
    "semantics.intension_s": ("s", lambda p: p.trace.total_s["semantics.intension"]),
    "semantics.intension_calls": ("count", lambda p: p.trace.calls["semantics.intension"]),
    "semantics.extension_s": ("s", lambda p: p.trace.total_s["semantics.extension"]),
    "semantics.extension_calls": ("count", lambda p: p.trace.calls["semantics.extension"]),
    "semantics.bealer_self_s": ("s", lambda p: p.trace.self_s["semantics.bealer"]),
    "builtins.apply_s": ("s", lambda p: p.aggregates.get("builtins.apply", (0, 0.0))[1]),
    "builtins.applies": ("count", lambda p: p.aggregates.get("builtins.apply", (0, 0.0))[0]),
    "cli.render_self_s": ("s", lambda p: p.trace.self_s["cli.run_queries"]),
    "cli.report_bytes": ("bytes", lambda p: p.result.report_bytes),
}


def per_layer(ws_mod, cli_mod, workload, tally, seconds: float, detail: dict) -> dict:
    start = clock()
    tracer = spans.Tracer()
    # One pass measures the enumeration's tracemalloc peak; tracemalloc slows
    # everything it watches, so no span of that pass is kept.
    tracer.install_memory()
    try:
        verdict_pass(ws_mod, cli_mod, workload, tally)
    finally:
        tracer.uninstall()
    peak_mb = tracer.counters.get("enumerate_peak_mb", 0.0)

    def traced_pass() -> TracedPass:
        tracer.counters.clear()
        tracer.aggregates.clear()
        first = len(tracer)
        tracer.install_spans()
        try:
            result = verdict_pass(ws_mod, cli_mod, workload, tally)
        finally:
            tracer.uninstall()
        return TracedPass(result, spans.PassTrace.of(tracer, first, len(tracer)),
                          dict(tracer.counters), dict(tracer.aggregates))

    # untraced and traced passes alternate, so both see the same machine speed
    pairs = in_blocks(lambda: (verdict_pass(ws_mod, cli_mod, workload, tally).seconds,
                               traced_pass()),
                      seconds - (clock() - start))
    detail.update(pass_pairs=len(pairs), spans=len(tracer), missing_hooks=sorted(tracer.missing),
                  pass_spread={"verdict_s": spread([k * t for k, (t, _) in pairs]),
                               "traced_verdict_s": spread([k * p.result.seconds
                                                           for k, (_, p) in pairs])})
    metrics = {name: (statistics.median(get(p) * (k if unit == "s" else 1) for k, (_, p) in pairs),
                      unit)
               for name, (unit, get) in PER_LAYER.items()}
    metrics["semantics.enumerate_peak_mb"] = (peak_mb, "MB")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.result.seconds for _, (_, p) in pairs)
        / statistics.median(plain for _, (plain, _) in pairs), "ratio")
    return metrics


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ws_mod, cli_mod = import_engine()
    workload = workloads.build(args.workload, args.seed, ROOT)
    problems = workloads.self_check()
    tally = Tally()
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": workload.params,
              "queries_per_pass": workload.queries, "machine": machine()}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(ws_mod, cli_mod, workload, tally, args.seconds, detail)
    detail.update(failed_ratio=tally.failed / tally.attempted,
                  report_sha256={label: sorted(h) for label, h in tally.hashes.items()},
                  errors=sorted(tally.errors), reference_self_check=problems or "ok")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
