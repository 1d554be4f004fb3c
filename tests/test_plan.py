"""Relational plans for the fragment that cannot raise: the plan is a third
evaluator of an intension, beside the Kripke and the Tarski closures, and
every report stays the one the assignment sweep gives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import ifol.plan
import ifol.semantics
from ifol import load_workspace
from ifol.cli import run_queries
from ifol.errors import EvaluationFailure, IfolError
from ifol.semantics import (_compile_kripke, _compile_tarski, _core, _tuples_where, intension_plan,
                            montague_intension)
from ifol.syntax import Atom, Const, Var, Variable, format_formula, free_vars

from conftest import load_bench
from strategies import (EMPTY_POOLS, arithmetic_workspaces, fragment_formulas, isa_workspaces,
                        symmetric_workspaces)

WORKSPACES = st.one_of(symmetric_workspaces(), isa_workspaces(), arithmetic_workspaces())

BINARY = ("sort thing\n"
          "extent thing = { c, a, b }\n"
          "sort part\n"
          "isa part thing\n"
          "extent part = { a, b }\n"
          "concept p-hood arity 1 sorts thing predicate p\n"
          "concept r-ness arity 2 sorts thing thing predicate r\n")
# ... and a built-in predicate over an infinite sort, finite integers below
# it and built-in arithmetic
NUMBERS = (BINARY + "sort reals\n"
           "builtin predicate lt/2 : reals x reals = lt\n"
           "sort integers\n"
           "isa integers reals\n"
           "extent integers = { -1, 0, 2 }\n"
           + "".join(f"builtin function {name}/2 : reals x reals -> reals = {name}\n"
                     for name in ("add", "mul", "div", "pow"))
           + "builtin function neg/1 : reals -> reals = neg\n")
# ... and two function graphs
OUTSIDE = NUMBERS + "function f/1 : thing -> thing\nfunction g/1 : thing -> integers\n"


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
    ("p(x:thing) & lt(1, 2)", True),
    ("exists y:reals . p(x:thing)", False),
    ("p(x:thing) & ~(exists y:thing . r(x, f(y)))", False),
    # built-in comparisons: in where they cannot raise
    ("lt(x:integers^2 + (y:integers^2 + z:integers^2), 4)", True),
    ("lt(-x:integers, x * 0)", True),
    ("lt(x:integers, 1) & ~p(y:thing)", True),
    ("lt(x:reals, 2)", False),
    ("lt(div(x:integers, 2), 1)", False),
    ("lt(x:integers ^ y:integers, 1)", False),
    ("lt(x:integers ^ -1, 1)", False),
    ("lt(g(x:thing), 2)", False),
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


def test_a_comparison_without_rationals_or_reals_gets_no_plan():
    """Without a rationals or reals sort, each raw result of arithmetic is
    checked against a numeric sort, which can raise: no plan then."""
    text = ("sort integers\n"
            "extent integers = { 0, 1 }\n"
            "builtin predicate lt/2 : integers x integers = lt\n")
    phi = "lt(x:integers, 1)"
    ws = load_workspace(text)
    assert intension_plan(ws.space, ws.parse(phi)) is None
    ws = load_workspace(text + "sort rationals\nisa integers rationals\n")
    assert intension_plan(ws.space, ws.parse(phi)) is not None


def test_a_comparison_is_computed_once_and_not_at_compile_time(monkeypatch):
    """Compiling evaluates no term; the first run computes the rows and the
    plan keeps them, as they do not read the world."""
    calls = []
    totals = {name: (arity, lambda *args, fn=fn: calls.append(fn) or fn(*args))
              for name, (arity, fn) in ifol.plan.TOTAL_FUNCTIONS.items()}
    monkeypatch.setattr(ifol.plan, "TOTAL_FUNCTIONS", totals)
    ws = load_workspace(NUMBERS)
    plan = intension_plan(ws.space, ws.parse("lt(x:integers^2 + -y:integers, 1)"))
    assert calls == []
    world, other = ws.worlds()[:2]
    rows = plan(world)
    made = len(calls)
    assert made and plan(other) is rows and len(calls) == made
    pool = ws.domain.valid_elements("integers")
    assert rows == {(x, y) for x in pool for y in pool if x.value ** 2 - y.value < 1}


def test_a_comparison_over_the_budget_keeps_the_sweep(monkeypatch):
    """A comparison's node is checked against the budget like any other:
    over it the formula is swept, and its sweep keeps the guard."""
    text = NUMBERS + "query intension lt(x:integers + y:integers, 1)\n"
    monkeypatch.setattr(ifol.semantics, "MAX_ASSIGNMENTS", 8)
    ws = load_workspace(text)
    assert intension_plan(ws.space, ws.queries[0].formula) is None
    report, status = run_queries(ws)
    assert "ERROR ExplosionGuard: more than 8 assignments" in report
    monkeypatch.setattr(ifol.semantics, "MAX_ASSIGNMENTS", 9)
    ws = load_workspace(text)
    assert intension_plan(ws.space, ws.queries[0].formula) is not None


def test_an_atom_over_its_variables_is_the_relation():
    ws = load_workspace(BINARY)
    plan = intension_plan(ws.space, ws.parse("r(x:thing, y:thing)"))
    world = ws.worlds()[5]
    assert plan(world) is world.relations["r-ness"]
    # the join keeps r's columns (y, x); the root puts them in parameter order
    flipped = intension_plan(ws.space, ws.parse("p(x:thing) & r(y:thing, x)"))
    for world in ws.worlds()[::97]:
        assert flipped(world) == {(x, y) for y, x in world.relations["r-ness"]
                                  if (x,) in world.relations["p-hood"]}


def test_a_selection_filters_each_distinct_mask_once():
    """`r(x:thing, a)` selects r's relation on its constant: over the 4,096
    worlds, its 512 distinct masks give one result object each, shared by
    the worlds with that mask (8 distinct results), where each world made
    its own."""
    ws = load_workspace(BINARY)
    worlds = ws.worlds()
    meaning = montague_intension(ws.space, ws.parse("r(x:thing, a)"), worlds)
    masks = worlds.columns[list(ws.registry.by_predicate).index("r")]
    assert len(worlds) == 4096 and len(set(masks)) == 512
    assert len({id(rows) for rows in meaning}) == 512 and len(set(meaning)) == 8
    a = ws.domain.lookup("a")
    for world, rows in zip(worlds[::97], meaning[::97]):
        assert rows == {(x,) for x, y in world.relations["r-ness"] if y is a}


def test_a_subsort_variable_keeps_to_its_pool():
    ws = load_workspace(BINARY)
    phi = ws.parse("p(x:part)")
    c = ws.domain.lookup("c")
    for world in ws.worlds()[:16]:
        rows = intension_plan(ws.space, phi)(world)
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


# --- the plan's lifetime: one declaration stamp --------------------------------------

def test_a_plan_is_compiled_once_per_declaration_stamp():
    """Under one stamp a formula object keeps its plan; a declaration
    compiles a new one, which spans the grown pool.  A plan refuses a world
    enumerated before the declaration, whose masks are over the old pool,
    and the intension sweeps that world instead."""
    ws = load_workspace(BINARY)
    phi = ws.parse("~p(x:thing)")
    plan = intension_plan(ws.space, phi)
    assert plan is not None and intension_plan(ws.space, phi) is plan
    stale = ws.worlds()[0]
    assert len(plan(stale)) == 3
    ws.domain.declare_particular("d", "thing")
    grown = intension_plan(ws.space, phi)
    assert grown is not plan and intension_plan(ws.space, phi) is grown
    assert {x.lexeme for x, in grown(ws.worlds()[0])} == {"a", "b", "c", "d"}
    with pytest.raises(EvaluationFailure, match="not enumerated under"):
        grown(stale)
    (rows,) = montague_intension(ws.space, phi, [stale])
    assert {x.lexeme for x, in rows} == {"a", "b", "c", "d"}


def test_a_run_compiles_each_formulas_plan_once(monkeypatch):
    """The unary-worlds text (n = 8): the axiom, the two consequence formulas,
    the intension formula and the two Bealer-Montague formulas are planned
    once each, though class walks and intensions both ask for the plans."""
    calls = []
    real = ifol.semantics.compile_plan
    monkeypatch.setattr(ifol.semantics, "compile_plan",
                        lambda *args: calls.append(args[0]) or real(*args))
    workloads = load_bench("workloads")
    (unary,) = workloads.unary_worlds(1, n=8).files
    report, status = run_queries(load_workspace(unary.text))
    assert unary.reference.wrong(workloads.split_report(report), status) == 0
    assert len(calls) == 6


def test_a_unary_run_decodes_only_the_worlds_the_routes_visit():
    """The unary-worlds text (n = 8): the plans read every world's masks, so
    after the run only the worlds the Kripke and Tarski routes visited -- no
    more than the 45 representatives of 6,561 worlds -- hold decoded
    relations; and a mask leaves a plan through its concept's decoder, so
    worlds with equal INTENSION extensions share one rows object."""
    workloads = load_bench("workloads")
    (unary,) = workloads.unary_worlds(1, n=8).files
    ws = load_workspace(unary.text)
    report, status = run_queries(ws)
    assert unary.reference.wrong(workloads.split_report(report), status) == 0
    worlds = ws.worlds()
    representatives = ws.representatives([q.formula for q in ws.queries])
    assert (len(worlds), len(representatives)) == (6561, 45)
    intension = next(q.formula for q in ws.queries if q.kind == "intension")
    meaning = ifol.semantics.montague_intension(ws.space, intension, worlds)
    decoded = [w for w in worlds if "relations" in vars(w)]
    assert 0 < len(decoded) <= len(representatives)
    first: dict[frozenset, frozenset] = {}
    for rows in meaning:
        assert first.setdefault(rows, rows) is rows
    assert len(first) == 2 ** 8


def _built(monkeypatch: pytest.MonkeyPatch) -> list:
    """The worlds built from here on: every `World` made."""
    made: list = []
    init = ifol.semantics.World.__init__
    monkeypatch.setattr(ifol.semantics.World, "__init__",
                        lambda w, *args: made.append(w) or init(w, *args))
    return made


def test_a_unary_run_builds_only_the_representatives(monkeypatch):
    """The unary-worlds text (n = 8): the INTENSION plan runs over the masks
    column, so a run builds a `World` only for the 45 representatives of
    6,561 worlds that the consequence and Bealer-Montague queries walk."""
    workloads = load_bench("workloads")
    (unary,) = workloads.unary_worlds(1, n=8).files
    ws = load_workspace(unary.text)
    made = _built(monkeypatch)
    report, status = run_queries(ws)
    assert unary.reference.wrong(workloads.split_report(report), status) == 0
    representatives = ws.representatives([q.formula for q in ws.queries])
    assert (len(ws.worlds()), len(representatives)) == (6561, 45)
    assert 0 < len(made) <= 45 and {id(w) for w in made} <= {id(w) for w in representatives}


def test_a_relational_run_builds_no_world(monkeypatch):
    """A plan rooted in a set, over a binary concept, reads one relation per
    world through its concept's decoder: an intension over 3 particulars
    builds and decodes none of 4,096 worlds, and gives the sweep's report."""
    text = ("sort thing\n"
            "extent thing = { a, b, c }\n"
            "concept p-hood arity 1 sorts thing predicate p\n"
            "concept r-ness arity 2 sorts thing thing predicate r\n"
            "query intension r(x:thing, y:thing) & p(x)\n")
    ws = load_workspace(text)
    made = _built(monkeypatch)
    report, status = run_queries(ws)
    assert len(ws.worlds()) == 4096 and made == []
    with pytest.MonkeyPatch.context() as patch:
        _plans_off(patch)
        assert run_queries(load_workspace(text)) == (report, status)


def test_an_enumeration_with_no_concept_has_a_world_per_graph_combination():
    """No concept is registered, so no mask column is held, yet the 4 graphs
    of f give 4 worlds: the comparison's rows are repeated once per world,
    on the plan path as on the sweep, and on one world as over the column."""
    text = ("sort reals\n"
            "extent reals = { 0, 1, 2 }\n"
            "sort s\n"
            "particular a : s\n"
            "particular b : s\n"
            "function f/1 : s -> s\n"
            "builtin predicate lt/2 : reals x reals = lt\n"
            "query intension lt(x:reals, 2)\n"
            "query bealer-montague lt(x:reals, 1)\n")
    ws = load_workspace(text)
    worlds = ws.worlds()
    assert (len(worlds), worlds.columns) == (4, [])
    plans = [intension_plan(ws.space, q.formula) for q in ws.queries]
    assert None not in plans
    for plan, query in zip(plans, ws.queries):
        assert [plan(w) for w in worlds] == montague_intension(ws.space, query.formula, worlds)
    report, status = run_queries(ws)
    assert report.splitlines() == ["INTENSION lt(x:reals, 2)",
                                   *[line for i in range(4) for line in (f"WORLD w{i}", "  (0)",
                                                                         "  (1)")],
                                   "", "BEALER-MONTAGUE ok (4 worlds)"]
    with pytest.MonkeyPatch.context() as patch:
        _plans_off(patch)
        assert run_queries(load_workspace(text)) == (report, status)


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.data())
def test_a_plan_on_a_world_is_the_column_run_at_its_index(graphs, data):
    """`plan(world)` runs the plan over the world's masks as one-world
    columns; it gives, for every world, the entry at the world's index of
    the run over the enumeration's columns, with k = 1 or 4 combinations of
    function graphs innermost.  `~p(x)` is a mask node at the root, and
    `r(x, y) & ~p(x)` a set node; drawn fragment formulas add others."""
    text = ("sort thing\n"
            "extent thing = { c, a, b }\n"
            "sort part\n"
            "isa part thing\n"
            "extent part = { a, b }\n"
            "concept p-hood arity 1 sorts thing predicate p\n"
            "concept r-ness arity 2 sorts part thing predicate r\n")
    ws = load_workspace(text + ("function f/1 : part -> part\n" if graphs else ""))
    worlds = ws.worlds()
    assert len(worlds) == 2 ** 3 * 2 ** 6 * (4 if graphs else 1)
    drawn = data.draw(st.lists(fragment_formulas(ws), max_size=2))
    for phi in [ws.parse("~p(x:thing)"), ws.parse("r(x:part, y:thing) & ~p(x)"), *drawn]:
        plan = intension_plan(ws.space, phi)
        if plan is not None:
            column = list(plan.column(worlds.columns, worlds.decoders, len(worlds)))
            assert [plan(w) for w in worlds] == column


# --- the three evaluators on generated workspaces ----------------------------------

@settings(max_examples=60, deadline=None)
@given(WORKSPACES, st.data())
def test_kripke_tarski_and_plan_agree_per_world(text, data):
    """Per formula and world, the Kripke and the Tarski sweeps give the same
    rows or the same error, and where the formula has a plan, the plan gives
    those rows.  The intension over the enumeration's column and over a list
    of its worlds gives the Kripke rows, or their truth values for a closed
    formula, wherever no world raises."""
    ws = load_workspace(text + EMPTY_POOLS)
    drawn = data.draw(st.lists(fragment_formulas(ws), min_size=4, max_size=8))
    for phi in [phi for _, phi in ws.all_formulas()] + drawn:
        plan = intension_plan(ws.space, phi)
        kripke, tarski = (_core(ws.space, phi, route) for route in (_compile_kripke,
                                                                    _compile_tarski))
        per_world = []
        for world in ws.worlds():
            rows = _outcome(lambda: next(_tuples_where(kripke, (world,))))
            assert rows == _outcome(lambda: next(_tuples_where(tarski, (world,))))
            if plan is not None:
                assert plan(world) == rows
            per_world.append(rows)
        if all(isinstance(rows, frozenset) for rows in per_world):
            if not free_vars(phi):
                per_world = [() in rows for rows in per_world]
            for worlds in (ws.worlds(), list(ws.worlds())):
                assert montague_intension(ws.space, phi, worlds) == per_world


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
