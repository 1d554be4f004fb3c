"""Relational plans for the fragment that cannot raise: the plan is a third
evaluator of an intension, beside the Kripke and the Tarski closures, and
every report stays the one the assignment sweep gives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import ifol.semantics
from ifol import load_workspace
from ifol.cli import run_queries
from ifol.errors import IfolError
from ifol.semantics import _compile_kripke, _compile_tarski, _core, _tuples_where, intension_plan
from ifol.syntax import Atom, Const, Var, Variable, format_formula

from strategies import EMPTY_POOLS, fragment_formulas, isa_workspaces, symmetric_workspaces

WORKSPACES = st.one_of(symmetric_workspaces(), isa_workspaces())

BINARY = ("sort thing\n"
          "extent thing = { c, a, b }\n"
          "sort part\n"
          "isa part thing\n"
          "extent part = { a, b }\n"
          "concept p-hood arity 1 sorts thing predicate p\n"
          "concept r-ness arity 2 sorts thing thing predicate r\n")
# ... and a built-in predicate, a function and an infinite sort
OUTSIDE = (BINARY + "sort reals\n"
           "builtin predicate lt/2 : reals x reals = lt\n"
           "function f/1 : thing -> thing\n")


def _plans_off(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(ifol.semantics, "compile_plan", lambda phi, params, space, budget: None)


def _outcome(evaluate):
    try:
        return evaluate()
    except IfolError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("text, planned", [
    ("p(x:thing) & ~r(x, a)", True),
    ("r(x:thing, x)", True),
    ("exists x:thing . r(x, x) & ~exists x:thing . p(x)", True),
    ("~~p(x:part)", True),
    ("exists y:thing . p(a)", True),
    ("p(f(x:thing))", False),
    ("p(x:thing) & lt(1, 2)", False),
    ("exists y:reals . p(x:thing)", False),
    ("p(x:thing) & ~(exists y:thing . r(x, f(y)))", False),
])
def test_the_plan_defines_the_fragment(text, planned):
    ws = load_workspace(OUTSIDE)
    phi = ws.parse(text)
    assert (intension_plan(ws.space, phi) is not None) is planned


def test_an_atom_outside_the_fragment_gets_no_plan():
    ws = load_workspace(OUTSIDE)
    x = Var(Variable("x", "thing"))
    for atom in (Atom("p", (Const("zz"),)),        # a constant nobody declared
                 Atom("p", (Const("1"),)),         # a numeric constant
                 Atom("r", (x,)),                  # fewer arguments than positions
                 Atom("q", (x,))):                 # a predicate with no concept
        assert intension_plan(ws.space, atom) is None


def test_an_atom_over_its_variables_is_the_relation():
    ws = load_workspace(BINARY)
    plan = intension_plan(ws.space, ws.parse("r(x:thing, y:thing)"))
    world = ws.worlds()[5]
    assert plan(world.relations) is world.relations["r-ness"]
    # the join keeps r's columns (y, x); the root puts them in parameter order
    flipped = intension_plan(ws.space, ws.parse("p(x:thing) & r(y:thing, x)"))
    for world in ws.worlds()[::97]:
        assert flipped(world.relations) == {(x, y) for y, x in world.relations["r-ness"]
                                            if (x,) in world.relations["p-hood"]}


def test_a_subsort_variable_keeps_to_its_pool():
    ws = load_workspace(BINARY)
    phi = ws.parse("p(x:part)")
    c = ws.domain.lookup("c")
    for world in ws.worlds()[:16]:
        rows = intension_plan(ws.space, phi)(world.relations)
        assert rows == world.relations["p-hood"] - {(c,)}


def test_a_plan_over_the_budget_leaves_the_sweep(monkeypatch):
    """With room for 8 assignments, `~r(x, y)` inside `exists` has 9 rows at
    most, so the formula gets no plan and is swept, with the same report;
    over its free variables the sweep reports the guard, as before."""
    text = (BINARY + "query intension exists y:thing . ~r(x:thing, y)\n"
            "query bealer-montague exists y:thing . ~r(x:thing, y)\n"
            "query intension ~r(x:thing, y:thing)\n")
    monkeypatch.setattr(ifol.semantics, "MAX_ASSIGNMENTS", 8)
    ws = load_workspace(text)
    assert [intension_plan(ws.space, q.formula) for q in ws.queries] == [None] * 3
    report, status = run_queries(ws)
    assert "ERROR ExplosionGuard: more than 8 assignments" in report
    with pytest.MonkeyPatch.context() as patch:
        _plans_off(patch)
        assert run_queries(load_workspace(text)) == (report, status)
    monkeypatch.setattr(ifol.semantics, "MAX_ASSIGNMENTS", 9)
    ws = load_workspace(text)
    assert intension_plan(ws.space, ws.queries[0].formula) is not None


# --- the three evaluators on generated workspaces ----------------------------------

@settings(max_examples=60, deadline=None)
@given(WORKSPACES, st.data())
def test_kripke_tarski_and_plan_agree_per_world(text, data):
    """Per formula and world, the Kripke and the Tarski sweeps give the same
    rows or the same error, and where the formula has a plan, the plan gives
    those rows."""
    ws = load_workspace(text + EMPTY_POOLS)
    drawn = data.draw(st.lists(fragment_formulas(ws), min_size=4, max_size=8))
    for phi in [phi for _, phi in ws.all_formulas()] + drawn:
        plan = intension_plan(ws.space, phi)
        kripke, tarski = (_core(ws.space, phi, route) for route in (_compile_kripke,
                                                                    _compile_tarski))
        for world in ws.worlds():
            rows = _outcome(lambda: next(_tuples_where(kripke, (world,))))
            assert rows == _outcome(lambda: next(_tuples_where(tarski, (world,))))
            if plan is not None:
                assert plan(world.relations) == rows


@settings(max_examples=40, deadline=None)
@given(WORKSPACES, st.data())
def test_reports_equal_those_with_plans_off(text, data):
    text += EMPTY_POOLS
    drawn = data.draw(st.lists(fragment_formulas(load_workspace(text)), min_size=1, max_size=3))
    kinds = data.draw(st.lists(st.sampled_from(["intension", "bealer-montague", "consequence"]),
                               min_size=len(drawn), max_size=len(drawn)))
    text += "".join(f"query {kind} {format_formula(phi)}\n" for kind, phi in zip(kinds, drawn))
    planned = run_queries(load_workspace(text))
    with pytest.MonkeyPatch.context() as patch:
        _plans_off(patch)
        swept = run_queries(load_workspace(text))
    assert planned == swept
