"""Shared workspace builders for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path
from types import ModuleType
from typing import Iterator, Sequence

import pytest

from ifol import Domain, Variable, Workspace
from ifol.kernel import Element

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load_bench(name: str) -> ModuleType:
    """The module `bench/<name>.py`, loaded once per session."""
    module = sys.modules.get(f"bench_{name}")
    if module is None:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def many_sorted_assignments(variables: Sequence[Variable],
                            domain: Domain) -> Iterator[dict[Variable, Element]]:
    """Every assignment sending each variable into the valid elements of its
    sort, in `itertools.product` order: the brute-force counterpart of the
    engine's assignment sweeps."""
    variables = tuple(variables)
    pools = [domain.valid_elements(v.sort) for v in variables]
    for combo in itertools.product(*pools):
        yield dict(zip(variables, combo))


def arithmetic_ws(grid: bool = False) -> Workspace:
    """integers ⊑ rationals ⊑ reals with the usual built-ins; `grid` finitizes
    the reals to {-2..2}."""
    ws = Workspace()
    for s in ("integers", "rationals", "reals"):
        ws.declare_sort(s)
    ws.declare_isa("integers", "rationals")
    ws.declare_isa("rationals", "reals")
    if grid:
        ws.domain.declare_extent("reals", ["-2", "-1", "0", "1", "2"])
    for fn in ("add", "sub", "mul", "pow", "neg"):
        arity = 1 if fn == "neg" else 2
        ws.signature.declare_function(fn, ("reals",) * arity, "reals",
                                      ws.domain.lattice, evaluator=fn)
    ws.signature.declare_function("div", ("rationals", "rationals"), "rationals",
                                  ws.domain.lattice, evaluator="div")
    ws.signature.declare_predicate("leq2", ("reals", "reals"), ws.domain.lattice,
                                   evaluator="leq")
    return ws


def pets_ws() -> Workspace:
    """cat ⊑ animal, dog ⊑ animal with one particular each, plus unary
    predicates over cat and animal."""
    ws = Workspace()
    ws.declare_sort("animal")
    ws.declare_sort("cat")
    ws.declare_sort("dog")
    ws.declare_isa("cat", "animal")
    ws.declare_isa("dog", "animal")
    ws.domain.declare_particular("tom", "cat")
    ws.domain.declare_particular("rex", "dog")
    ws.register_concept("purring", ("cat",), "purrs")
    ws.register_concept("barking", ("animal",), "barks")
    return ws


def animals_concept_ws(arity: int = 3) -> Workspace:
    """The animal predicate-concept over small attribute extents."""
    ws = Workspace()
    ws.declare_sort("kind-of-animals")
    ws.declare_sort("hairness")
    ws.declare_sort("age-kind")
    ws.domain.declare_extent("kind-of-animals", ["with breasts", "without breasts"])
    ws.domain.declare_extent("hairness", ["hairy", "hairless"])
    ws.domain.declare_extent("age-kind", ["young", "old"])
    sorts = ("kind-of-animals", "hairness", "age-kind")[:arity]
    ws.register_concept("animal", sorts, "animal_of")
    return ws


@pytest.fixture
def arith():
    return arithmetic_ws()


@pytest.fixture
def grid_arith():
    return arithmetic_ws(grid=True)


@pytest.fixture
def pets():
    return pets_ws()


@pytest.fixture
def animals():
    return animals_concept_ws()
