"""Staged assignment sweeps: a built-in application over the parameters only
is evaluated at its first read, once per binding of the parameters it reads,
and every report, lazy error included, stays the one evaluation at each
assignment gives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import ifol.semantics
import ifol.tarski
from ifol import load_workspace, satisfies, tarski_eval
from ifol.cli import run_queries
from ifol.errors import EvaluationFailure, IfolError
from ifol.kernel import element_lexeme
from ifol.semantics import (
    _compile_kripke,
    _compile_tarski,
    _core,
    _first_failure,
    _tuples_where,
    consequence,
    intension_plan,
    is_model_of,
    montague_intension,
)
from ifol.syntax import free_vars
from ifol.worlds import enumerate_worlds

from conftest import many_sorted_assignments
from strategies import arithmetic_workspaces, isa_workspaces, symmetric_workspaces

WORKSPACES = st.one_of(arithmetic_workspaces(), symmetric_workspaces())


def _unstaged(self, value, reads):
    return value


@settings(max_examples=80, deadline=None)
@given(WORKSPACES)
def test_reports_equal_those_with_staging_off(text):
    staged = run_queries(load_workspace(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ifol.semantics._Stager, "slot", _unstaged)
        patch.setattr(ifol.tarski._ColumnStager, "column", _unstaged)
        unstaged = run_queries(load_workspace(text))
    assert staged == unstaged


def _outcome(evaluate):
    try:
        return evaluate()
    except IfolError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=80, deadline=None)
@given(st.one_of(arithmetic_workspaces(), symmetric_workspaces(), isa_workspaces()))
def test_kripke_equals_tarski_on_generated_workspaces(text):
    """Per formula and world, the staged sweeps of both routes give the same
    rows or the same error, and so does evaluation at each assignment: the
    rows where it holds, or the first error in enumeration order.  Their
    searches for a failure agree too: the first assignment in that order
    where it does not hold, returned, or raised if it raises there."""
    ws = load_workspace(text)
    for _, phi in ws.all_formulas():
        cores = [_core(ws.space, phi, route) for route in (_compile_kripke, _compile_tarski)]
        variables = free_vars(phi)
        for world in ws.worlds():
            kripke, tarski = (_outcome(lambda: next(_tuples_where(core, (world,))))
                              for core in cores)
            assert kripke == tarski
            failures = [_outcome(lambda: _first_failure(core, world)) for core in cores]
            rows, error, failure = set(), None, None
            for g in many_sorted_assignments(variables, ws.domain):
                holds = _outcome(lambda: satisfies(world, g, phi))
                assert holds == _outcome(lambda: tarski_eval(world, g, phi))
                if isinstance(holds, tuple):
                    error = error or holds
                elif holds:
                    rows.add(tuple(g.values()))
                if holds is not True and failure is None:
                    failure = holds if isinstance(holds, tuple) else tuple(g.values())
            assert kripke == (error or frozenset(rows))
            assert failures == [failure] * 2


def _applies(monkeypatch) -> list:
    calls = []
    real = ifol.semantics.apply_function
    monkeypatch.setattr(ifol.semantics, "apply_function",
                        lambda evaluator, args: calls.append(evaluator) or real(evaluator, args))
    return calls


def test_each_term_is_evaluated_once_per_binding_of_what_it_reads(monkeypatch):
    """Over 4 worlds (the graphs of f) and 4 * 4 assignments: pow(2, 3) is
    evaluated once, mul(x, 2) and add(x, 1) once per value of x, and
    add(mul(x, 2), y) once per (x, y) in each world.  f(c) reads a function
    graph, so it is not staged.  Unstaged, each term is evaluated at each
    assignment that reaches it."""
    text = ("sort integers\n"
            "sort reals\n"
            "isa integers reals\n"
            "extent reals = { 0, 1, 2, 3 }\n"
            "sort s\n"
            "extent s = { c }\n"
            "function f/1 : s -> integers\n"
            "builtin function add/2 : reals x reals -> reals = add\n"
            "builtin function mul/2 : reals x reals -> reals = mul\n"
            "builtin function pow/2 : reals x reals -> reals = pow\n"
            "builtin predicate leq/2 : reals x reals = leq\n"
            "query intension leq(add(mul(x:reals, 2), y:reals), pow(2, 3))"
            " & leq(f(c), add(x, 1))\n")
    calls = _applies(monkeypatch)
    ws = load_workspace(text)
    assert len(ws.worlds()) == 4
    staged = run_queries(ws)
    assert (calls.count("pow"), calls.count("mul"), calls.count("add")) == (1, 4, 4 * 16 + 4)
    calls.clear()
    monkeypatch.setattr(ifol.semantics._Stager, "slot", _unstaged)
    assert run_queries(load_workspace(text)) == staged
    assert (calls.count("pow"), calls.count("mul")) == (4 * 16, 4 * 16)


def test_a_staged_term_is_evaluated_only_where_it_is_read(monkeypatch):
    """div(1, x) is staged on x but read only where gt(x, 0) holds: at 1 and
    2, never at 0, where it would raise."""
    calls = _applies(monkeypatch)
    ws = load_workspace("sort integers\n"
                        "sort rationals\n"
                        "sort reals\n"
                        "isa integers rationals\n"
                        "isa rationals reals\n"
                        "extent reals = { -1, 0, 1, 2 }\n"
                        "builtin function div/2 : reals x reals -> reals = div\n"
                        "builtin predicate gt/2 : reals x reals = gt\n"
                        "builtin predicate leq/2 : reals x reals = leq\n"
                        "query intension gt(x:reals, 0) & leq(div(1, x), 2)\n")
    assert run_queries(ws) == ("INTENSION gt(x:reals, 0) & leq(div(1, x), 2)\n"
                               "WORLD w0\n  (1)\n  (2)\n", 0)
    assert calls.count("div") == 2


NUMBERS = ("sort integers\n"
           "sort rationals\n"
           "sort reals\n"
           "isa integers rationals\n"
           "isa rationals reals\n"
           "extent reals = { 0, 1, 2, 3 }\n"
           "builtin function add/2 : reals x reals -> reals = add\n"
           "builtin function mul/2 : reals x reals -> reals = mul\n"
           "builtin function sub/2 : reals x reals -> reals = sub\n"
           "builtin function div/2 : reals x reals -> reals = div\n"
           "builtin predicate leq/2 : reals x reals = leq\n")


def test_a_term_over_several_parameters_keeps_its_last_binding(monkeypatch):
    """Over x, y and z, 4 values each: in one sweep mul(x, y) is applied once
    per (x, y) and add(mul(x, y), z), which reads every parameter, once per
    assignment, also where a quantifier reads it at each value of w.  A term
    keeps its last binding and value across calls, so four calls that share
    (x, y) apply mul once.  An evaluation that raises keeps nothing: the
    next read of div(1, sub(x, y)) at x == y raises again."""
    calls = _applies(monkeypatch)
    ws = load_workspace(NUMBERS)
    (world,) = ws.worlds()
    phi = ws.parse("leq(add(mul(x:reals, y:reals), z:reals), 3)")
    for route in (_compile_kripke, _compile_tarski):
        rows = next(_tuples_where(_core(ws.space, phi, route), (world,)))
        assert len(rows) == 37  # x * y + z <= 3
        assert (calls.count("mul"), calls.count("add")) == (4 * 4, 4 * 4 * 4)
        calls.clear()
    psi = ws.parse("exists w:reals . leq(add(mul(x:reals, y:reals), z:reals), w)")
    assert len(next(_tuples_where(_core(ws.space, psi, _compile_kripke), (world,)))) == 37
    assert (calls.count("mul"), calls.count("add")) == (4 * 4, 4 * 4 * 4)
    calls.clear()

    x, y, z = free_vars(phi)
    one, two = ws.domain.lookup("1"), ws.domain.lookup("2")
    for value in ws.domain.valid_elements("reals"):
        satisfies(world, {x: one, y: one, z: value}, phi)
    assert (calls.count("mul"), calls.count("add")) == (1, 4)

    chi = ws.parse("leq(div(1, sub(x:reals, y:reals)), z:reals)")
    for truth in (satisfies, tarski_eval):
        assert truth(world, {x: two, y: one, z: one}, chi)
        for _ in range(2):
            with pytest.raises(EvaluationFailure, match="division by zero"):
                truth(world, {x: one, y: one, z: two}, chi)
        assert truth(world, {x: two, y: one, z: two}, chi)


def test_two_conjuncts_raising_at_different_positions_raise_the_first_in_order():
    """Over z in {0, 1, 2, 3}: the first conjunct raises at z = 3 (dividing
    by zero) and the second at z = 1 (2 to the power 1/2).  A column runs the
    first conjunct over every position before the second, yet both routes
    raise what the evaluation at each assignment in order raises first: the
    second conjunct's error at z = 1."""
    ws = load_workspace(NUMBERS + "builtin function pow/2 : reals x reals -> reals = pow\n")
    (world,) = ws.worlds()
    phi = ws.parse("leq(div(1, sub(z:reals, 3)), 9) & leq(pow(2, div(z, 2)), 9)")
    (z,) = free_vars(phi)
    values = {element_lexeme(v): v for v in ws.domain.valid_elements("reals")}
    for route in (_compile_kripke, _compile_tarski):
        core = _core(ws.space, phi, route)
        for search in (lambda: next(_tuples_where(core, (world,))),
                       lambda: _first_failure(core, world)):
            with pytest.raises(EvaluationFailure, match="exponent 1/2 is not an integer"):
                search()
    for truth in (satisfies, tarski_eval):
        assert truth(world, {z: values["0"]}, phi)
        with pytest.raises(EvaluationFailure, match="division by zero"):
            truth(world, {z: values["3"]}, phi)


def test_a_failure_before_a_raising_position_is_returned_and_nothing_raised():
    """As an axiom, `leq(div(1, sub(z, 3)), -1)` fails at z = 0, before z = 3,
    where it divides by zero: the search for a failure returns z = 0 on both
    routes, though a column evaluates z = 3 too, and the world is no model."""
    ws = load_workspace(NUMBERS)
    (world,) = ws.worlds()
    phi = ws.parse("leq(div(1, sub(z:reals, 3)), sub(0, 1))")
    zero = ws.domain.lookup("0")
    for route in (_compile_kripke, _compile_tarski):
        assert _first_failure(_core(ws.space, phi, route), world) == (zero,)
    assert not is_model_of(world, [phi])
    with pytest.raises(EvaluationFailure, match="division by zero"):
        next(_tuples_where(_core(ws.space, phi, _compile_tarski), (world,)))


def test_a_query_reads_the_pools_as_the_domain_stands_when_it_runs():
    """Sweeps and relational plans last one declaration stamp: evaluating a
    formula object again after a declaration sweeps the grown pool, on both
    sweeps, and its plan spans the grown pool (a complement) or finds the
    element declared since (an `exists` over a sort empty at first use)."""
    ws = load_workspace("sort integers\n"
                        "sort reals\n"
                        "isa integers reals\n"
                        "extent reals = { 0, 1, 2 }\n"
                        "sort spare\n"
                        "builtin function add/2 : reals x reals -> reals = add\n"
                        "builtin predicate leq/2 : reals x reals = leq\n"
                        "concept p-hood arity 1 sorts reals predicate p\n")
    phi, psi = ws.parse("leq(add(x:reals, 0), 2)"), ws.parse("leq(add(x:reals, 0), 3)")
    complement, over_spare = ws.parse("~p(x:reals)"), ws.parse("exists y:spare . ~p(x:reals)")
    assert intension_plan(ws.space, complement) and intension_plan(ws.space, over_spare)
    worlds = enumerate_worlds(ws.space)
    assert not worlds[0].relations.get("p-hood")

    def values(rows):
        return sorted(element_lexeme(x) for x, in rows)

    assert values(montague_intension(ws.space, psi, worlds)[0]) == ["0", "1", "2"]
    assert values(montague_intension(ws.space, complement, worlds)[0]) == ["0", "1", "2"]
    assert values(montague_intension(ws.space, over_spare, worlds)[0]) == []
    assert consequence(ws.space, [], phi, worlds) == (True, None)
    assert is_model_of(worlds[0], [phi])
    ws.domain.declare_particular("3", "reals")
    ws.domain.declare_particular("d", "spare")
    assert values(montague_intension(ws.space, psi, worlds)[0]) == ["0", "1", "2", "3"]
    assert values(montague_intension(ws.space, complement, worlds)[0]) == ["0", "1", "2", "3"]
    assert values(montague_intension(ws.space, over_spare, worlds)[0]) == ["0", "1", "2", "3"]
    holds, countermodel = consequence(ws.space, [], phi, worlds)
    assert not holds and [element_lexeme(v) for _, v in countermodel.assignment] == ["3"]
    assert not is_model_of(worlds[0], [phi])
