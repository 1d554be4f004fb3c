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
from ifol.syntax import Atom, Const, FnApp, Var, free_vars
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


def test_an_atom_reading_no_column_is_evaluated_once_per_column(monkeypatch):
    """Over x, y and z, 4 values each, with staging off: the first conjunct
    does not read z, the Tarski route's column, so add(x, y) is applied once
    per (x, y), not at each of the 64 assignments as on the Kripke route.
    Where such an atom raises, its one error stands for every position: the
    first (x, y) divides by zero once, and nothing is evaluated again."""
    calls = _applies(monkeypatch)
    monkeypatch.setattr(ifol.semantics._Stager, "slot", _unstaged)
    ws = load_workspace(NUMBERS)
    (world,) = ws.worlds()
    phi = ws.parse("leq(add(x:reals, y:reals), 9) & leq(z:reals, 9)")
    for route, applied in ((_compile_tarski, 16), (_compile_kripke, 64)):
        assert len(next(_tuples_where(_core(ws.space, phi, route), (world,)))) == 64
        assert calls.count("add") == applied
        calls.clear()
    psi = ws.parse("leq(div(1, sub(x:reals, y:reals)), 9) & leq(z:reals, 9)")
    core = _core(ws.space, psi, _compile_tarski)
    for search in (lambda: next(_tuples_where(core, (world,))), lambda: _first_failure(core, world)):
        with pytest.raises(EvaluationFailure, match="division by zero"):
            search()
        assert (calls.count("sub"), calls.count("div")) == (1, 1)
        calls.clear()


def test_an_atom_with_no_argument_tests_the_empty_tuple_on_both_routes():
    """`p()` over the unary p (an atom the API builds, which the loader's sort
    check would refuse) tests `()` against p's relation: it holds nowhere,
    so `~p() & p(x)` holds where p(x) does, on a column too."""
    ws = load_workspace("sort s\n"
                        "extent s = { a, b }\n"
                        "concept p-hood arity 1 sorts s predicate p\n")
    phi, psi = ws.parse("~p()"), ws.parse("~p() & p(x:s)")
    for world in ws.worlds():
        assert satisfies(world, {}, phi) and tarski_eval(world, {}, phi)
        for route in (_compile_kripke, _compile_tarski):
            rows = next(_tuples_where(_core(ws.space, psi, route), (world,)))
            assert rows == world.relation("p-hood")


def test_a_comparison_gives_equal_rows_and_errors_on_both_routes():
    """A built-in comparison has one definition, which the Kripke route
    applies to one assignment's two values and the Tarski route maps over
    columns.  Over the reals -8..8, `leq(x, y) & leq(y, z)` holds at the 969
    non-decreasing triples on both routes.  With the particular foo, which
    is no number, among the reals, it raises the same error on both, but
    only after both arguments are evaluated, so `div(x, 0)` raises first.  A
    comparison given three arguments or none (atoms the API builds, which
    the loader's sort check would refuse) fails alike on both, after its
    arguments."""
    reals = ", ".join(str(i) for i in range(-8, 9))
    text = (f"sort rationals\nsort reals\nisa rationals reals\nextent reals = {{ {reals} }}\n"
            "builtin function div/2 : reals x reals -> reals = div\n"
            "builtin predicate leq/2 : reals x reals = leq\n")
    plain, foo = load_workspace(text), load_workspace(text + "particular foo : reals\n")
    phi = plain.parse("leq(x:reals, y:reals) & leq(y, z:reals)")
    x, y, z = (Var(v) for v in free_vars(phi))
    cases = [(plain, phi, None),
             (foo, phi, "'foo' is not a numeric particular"),
             (foo, foo.parse("leq(foo, div(x:reals, 0))"), "division by zero"),
             (plain, Atom("leq", (x, y, z)), "comparison expects 2 args, got 3"),
             (plain, Atom("leq", ()), "comparison expects 2 args, got 0"),
             (plain, Atom("leq", (x, y, FnApp("div", (Const("1"), Const("0"))))),
              "division by zero")]
    for ws, formula, error in cases:
        (world,) = ws.worlds()
        cores = [_core(ws.space, formula, route) for route in (_compile_kripke, _compile_tarski)]
        kripke, tarski = (_outcome(lambda: next(_tuples_where(core, (world,)))) for core in cores)
        assert kripke == tarski
        assert kripke == ("EvaluationFailure", error) if error else len(kripke) == 969
        kripke, tarski = (_outcome(lambda: _first_failure(core, world)) for core in cores)
        assert kripke == tarski


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


def test_a_raising_column_keeps_the_values_before_the_raise(monkeypatch):
    """Over z in {0, 1, 2, 3}, `div(1, sub(z, 3))` divides by zero at z = 3.
    The Tarski column computes sub(z, 3) at the four positions and div at
    three before it raises, and keeps those three values, so the atom's run
    a position at a time computes only z = 3 again: 11 applications, where
    evaluating from the first position again made 17 and the Kripke route,
    one assignment at a time, makes 9.  Both routes raise the same error,
    also in the search for a failure where every position before the raise
    holds."""
    calls = _applies(monkeypatch)
    ws = load_workspace(NUMBERS)
    (world,) = ws.worlds()
    phi = ws.parse("leq(div(1, sub(z:reals, 3)), sub(0, 1))")
    outcomes = []
    for route, applied in ((_compile_kripke, 9), (_compile_tarski, 11)):
        outcomes.append(_outcome(lambda: next(_tuples_where(_core(ws.space, phi, route),
                                                            (world,)))))
        assert len(calls) == applied
        calls.clear()
    assert outcomes == [("EvaluationFailure", "division by zero")] * 2
    psi = ws.parse("leq(div(1, sub(z:reals, 3)), 9)")
    assert [_outcome(lambda: _first_failure(_core(ws.space, psi, route), world))
            for route in (_compile_kripke, _compile_tarski)] == outcomes


def test_an_unstaged_column_is_evaluated_before_the_arguments_after_it():
    """`div(1, sub(x, z))` reads every parameter, so its column is not
    staged, and `pow(2, 1/2)` reads none.  At x = z = 0 the evaluation at
    that assignment divides by zero before it reaches the exponent, and so
    does the column, on both routes: a column is computed in full where its
    atom reads it, not when the comparison reads its values."""
    ws = load_workspace(NUMBERS + "builtin function pow/2 : reals x reals -> reals = pow\n")
    (world,) = ws.worlds()
    phi = ws.parse("leq(div(1, sub(x:reals, z:reals)), pow(2, 1/2))")
    for route in (_compile_kripke, _compile_tarski):
        core = _core(ws.space, phi, route)
        for search in (lambda: next(_tuples_where(core, (world,))),
                       lambda: _first_failure(core, world)):
            with pytest.raises(EvaluationFailure, match="division by zero"):
                search()


INTEGERS = ("sort integers\n"
            "extent integers = { 0, 1, 2, 3 }\n"
            "builtin function add/2 : integers x integers -> integers = add\n"
            "builtin function pow/2 : integers x integers -> integers = pow\n"
            "builtin predicate leq/2 : integers x integers = leq\n")


@pytest.mark.parametrize("text, sort", [
    (NUMBERS + "builtin function pow/2 : reals x reals -> reals = pow\n", "reals"),
    (INTEGERS, "integers")], ids=["reals", "integers-only"])
def test_a_column_maps_the_bare_operator_where_it_cannot_raise(monkeypatch, text, sort):
    """Over x and z, 4 values each, the Tarski column over z maps `add` over
    the values of pow(x, 2) and pow(z, 2), raw numbers, as the bare
    operator: no `add` goes through `apply_function`, where the Kripke
    route makes one per assignment.  Where no sort holds every number (only
    integers are declared) each sum is still checked against a numeric
    sort.  Both routes give equal rows."""
    calls = _applies(monkeypatch)
    ws = load_workspace(text)
    (world,) = ws.worlds()
    assert (ifol.semantics._finish(ws.domain, True) is None) is (sort == "reals")
    phi = ws.parse(f"leq(add(pow(x:{sort}, 2), pow(z:{sort}, 2)), 9)")
    rows = []
    for route, added in ((_compile_kripke, 16), (_compile_tarski, 0)):
        rows.append(next(_tuples_where(_core(ws.space, phi, route), (world,))))
        assert (calls.count("add"), calls.count("pow")) == (added, 8)
        calls.clear()
    assert rows[0] == rows[1] and len(rows[0]) == 11  # x^2 + z^2 <= 9


@pytest.mark.parametrize("term, evaluator, error", [
    ("add(z:reals, 1)", "add", None),
    ("div(1, z:reals)", "div", "division by zero"),
    ("pow(z:reals, y:reals)", "pow", None),
    ("pow(add(z:reals, 1), -1)", "pow", None),
    ("pow(z:reals, 1/2)", "pow", "exponent 1/2 is not an integer"),
    ("add(foo, pow(z:reals, 2))", "add", "'foo' is not a numeric particular"),
])
def test_a_column_applies_apply_function_where_it_may_raise(monkeypatch, term, evaluator, error):
    """A built-in application keeps one `apply_function` call per position
    where the compiler cannot see that it is exact and total: a bare
    variable as an argument (its values are particulars), `div`, `pow` to a
    variable, negative or fractional exponent, a constant that is not a
    number.  Both routes give the same rows or error, and the same failure."""
    calls = _applies(monkeypatch)
    ws = load_workspace(NUMBERS + "builtin function pow/2 : reals x reals -> reals = pow\n"
                        "sort things\nparticular foo : things\n")
    (world,) = ws.worlds()
    phi = ws.parse(f"leq({term}, 9)")
    cores = [_core(ws.space, phi, route) for route in (_compile_kripke, _compile_tarski)]
    kripke = _outcome(lambda: next(_tuples_where(cores[0], (world,))))
    calls.clear()
    tarski = _outcome(lambda: next(_tuples_where(cores[1], (world,))))
    assert calls.count(evaluator) >= 1
    assert kripke == tarski and (tarski == ("EvaluationFailure", error) if error
                                 else isinstance(tarski, frozenset))
    assert _outcome(lambda: _first_failure(cores[0], world)) \
        == _outcome(lambda: _first_failure(cores[1], world))


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
