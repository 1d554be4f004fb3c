"""Per-layer spans for the traced run, recorded from outside the engine.

Each hook replaces one function where the engine looks it up (a module global
or a class attribute) with a wrapper that records a span: name, start, end,
parent span and whether a span of the same name was already open.  Spans stay
in memory until the run ends; `PassTrace` turns the spans of one pass into
per-layer totals, self times and call counts.

`builtins.apply` is a hot inner call (about 113k per pass on the grid
workload), so it is timed and counted in aggregate instead of stored span by
span; no reported self time has it as a direct child.

A hook whose module or attribute no longer exists is reported as missing and
skipped, so the benchmark keeps running across refactors of the engine.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from typing import Callable

# span name -> the places the engine looks the function up.  A function is
# patched at every lookup site its callers use, never at its definition alone.
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "workspace.load": (("ifol.workspace", "load_workspace"),),
    "parser.parse": (("ifol.workspace", "parse_formula"),),
    "sorting.check": (("ifol.workspace", "check_formula"), ("ifol.cli", "check_formula")),
    "kernel.lattice": (("ifol.kernel", "SortLattice.declare"),
                       ("ifol.kernel", "SortLattice.add_edge")),
    "concepts.tree": (("ifol.concepts", "ConceptRegistry.subconcept_tree"),),
    "concepts.interpret": (("ifol.concepts", "Interpretation.of_formula"),
                           ("ifol.concepts", "Interpretation.of_ground_term")),
    "semantics.enumerate": (("ifol.workspace", "enumerate_worlds"),),
    "semantics.models": (("ifol.semantics", "is_model_of"),),
    "semantics.consequence": (("ifol.cli", "consequence"),),
    "semantics.intension": (("ifol.cli", "montague_intension"),
                            ("ifol.semantics", "montague_intension")),
    "semantics.extension": (("ifol.semantics", "World.extension_of"),),
    "semantics.bealer": (("ifol.cli", "bealer_montague_check"),),
    "cli.run_queries": (("ifol.cli", "run_queries"),),
}
NAMES = tuple(HOOKS)
AGGREGATE_HOOKS = {"builtins.apply": ("ifol.semantics", "apply_function")}
MEMORY_HOOK = HOOKS["semantics.enumerate"][0]


def _resolve(module_name: str, path: str) -> tuple[object, str, object]:
    """(owner, attribute, raw value) for `module:path`; raises LookupError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(module_name) from exc
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}")
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not callable(raw):
        raise LookupError(f"{module_name}.{path}")
    return owner, attr, raw


def candidate_worlds(space) -> int:
    """Size of the unfiltered world space: every subset of every registered
    concept's tuple pool times every total graph of every declared function."""
    domain, signature = space.domain, space.signature

    def pool(sorts) -> int:
        size = 1
        for s in sorts:
            if s == "nested sentence":
                return 0
            size *= len(domain.valid_elements(s))
        return size

    total = 1
    for concept in space.registry.by_predicate.values():
        total *= 2 ** pool(concept.attribute_sorts)
    for symbol, (arg_sorts, ret) in signature.functions.items():
        if symbol not in signature.builtin_functions:
            total *= max(len(domain.valid_elements(ret)) ** pool(arg_sorts), 1)
    return total


@dataclass
class Tracer:
    """Span store plus the patches that feed it."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    parents: array = field(default_factory=lambda: array("l"))
    names: array = field(default_factory=lambda: array("B"))
    outermost: array = field(default_factory=lambda: array("B"))
    counters: dict[str, float] = field(default_factory=dict)
    aggregates: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]
    missing: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _depth: list[int] = field(default_factory=lambda: [0] * len(NAMES))
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.starts)

    # --- patching ---------------------------------------------------------

    def install_spans(self) -> None:
        for name_id, name in enumerate(NAMES):
            for module_name, path in HOOKS[name]:
                self._patch(module_name, path,
                            lambda fn, i=name_id: self._span_wrapper(i, fn))
        for name, (module_name, path) in AGGREGATE_HOOKS.items():
            self._patch(module_name, path, lambda fn, n=name: self._aggregate_wrapper(n, fn))

    def install_memory(self) -> None:
        """Only the enumeration hook, measuring its `tracemalloc` peak."""
        self._patch(*MEMORY_HOOK, self._memory_wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        try:
            owner, attr, raw = _resolve(module_name, path)
        except LookupError:
            self.missing.add(f"{module_name}:{path}")
            return
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, make(raw))

    # --- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn: Callable) -> Callable:
        starts, ends, parents = self.starts, self.ends, self.parents
        names, outermost, stack, depth = self.names, self.outermost, self._stack, self._depth
        clock = time.perf_counter
        on_result = _ON_RESULT.get(NAMES[name_id])

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            outermost.append(depth[name_id] == 0)
            depth[name_id] += 1
            stack.append(sid)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                depth[name_id] -= 1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, name: str, fn: Callable) -> Callable:
        """Adds call count and total time to `aggregates[name]`."""
        cell = self.aggregates.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # no try/finally: it doubles the cost per call, and a call that
            # raises fails its query anyway
            start = clock()
            result = fn(*args, **kwargs)
            cell[1] += clock() - start
            cell[0] += 1
            return result

        return wrapper

    def _memory_wrapper(self, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                counters["enumerate_peak_mb"] = max(counters.get("enumerate_peak_mb", 0.0), peak)

        return wrapper


def _count_enumeration(tracer: Tracer, args: tuple, result) -> None:
    try:
        candidates, worlds = candidate_worlds(args[0]), len(result)
    except (AttributeError, IndexError, TypeError):
        tracer.missing.add("semantics.enumerate counters (space argument, sized result)")
        return
    counters = tracer.counters
    counters["candidate_worlds"] = counters.get("candidate_worlds", 0) + candidates
    counters["worlds"] = counters.get("worlds", 0) + worlds


def _count_model(tracer: Tracer, args: tuple, result) -> None:
    if result:
        tracer.counters["models"] = tracer.counters.get("models", 0) + 1


_ON_RESULT: dict[str, Callable[[Tracer, tuple, object], None]] = {
    "semantics.enumerate": _count_enumeration,
    "semantics.models": _count_model,
}


@dataclass
class PassTrace:
    """Per-layer figures of one traced pass: spans [first, last) of the store."""

    total_s: dict[str, float]
    self_s: dict[str, float]
    calls: dict[str, int]

    @classmethod
    def of(cls, tracer: Tracer, first: int, last: int) -> "PassTrace":
        total = dict.fromkeys(NAMES, 0.0)
        own = dict.fromkeys(NAMES, 0.0)
        calls = dict.fromkeys(NAMES, 0)
        child = [0.0] * (last - first)
        for i in range(first, last):
            parent = tracer.parents[i]
            if parent >= first:
                child[parent - first] += tracer.ends[i] - tracer.starts[i]
        for i in range(first, last):
            name = NAMES[tracer.names[i]]
            duration = tracer.ends[i] - tracer.starts[i]
            calls[name] += 1
            own[name] += duration - child[i - first]
            if tracer.outermost[i]:
                total[name] += duration
        return cls(total, own, calls)
