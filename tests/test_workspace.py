"""Workspace file loading: atomicity, diagnostics, order independence, round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from ifol import load_workspace, render_workspace
from ifol.cli import run_queries
from ifol.errors import IfolError, ValidationError
from ifol.workspace import Query
from ifol.worlds import _constant_symbols

from conftest import FIXTURES
from strategies import symmetric_workspaces

ALL_FIXTURES = sorted(FIXTURES.glob("*.ifol"))


def test_fixture_corpus_exists():
    names = {p.name for p in ALL_FIXTURES}
    assert {"animals.ifol", "sphere.ifol", "en_problem.ifol", "purrs.ifol"} <= names


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_fixture_loads(path):
    ws = load_workspace(path)
    assert ws.queries


def declarations(ws) -> tuple:
    lattice = ws.domain.lattice
    return (lattice.nodes, sorted(lattice.isa_edges),
            {s: lattice.supersorts(s) for s in lattice.nodes},
            sorted(ws.domain.concepts), render_workspace(ws))


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_queries_leave_declarations_unchanged(path):
    """Loading is the only writer of the lattice and the concept table:
    running every query, canonical subconcepts included, changes neither."""
    ws = load_workspace(path)
    before, stamp = declarations(ws), ws.space.stamp
    run_queries(ws)
    assert declarations(ws) == before
    assert ws.space.stamp == stamp  # so no compiled core or cached world is dropped mid-run


UNARY = ("sort s\n"
         "extent s = { a, b }\n"
         "concept p-hood arity 1 sorts s predicate p\n"
         "query intension p(x:s)\n")


def _last_block(ws) -> str:
    return run_queries(ws)[0].rstrip("\n").split("\n\n")[-1]


def test_worlds_follow_a_formula_added_after_they_were_enumerated():
    """p(b) names b, so b no longer moves and the world {b} leads a class of
    its own: the countermodel a fresh load finds, not the verdict the
    enumeration before the axiom would give."""
    ws = load_workspace(UNARY)
    run_queries(ws)
    ws.add_axiom(ws.parse("p(b)"))
    ws.queries.append(Query("consequence", ws.parse("p(a)")))
    assert _last_block(ws) == _last_block(load_workspace(render_workspace(ws))) \
        == "CONSEQUENCE no\nWORLD w2\n  p-hood: (b)"


def test_worlds_follow_a_concept_declared_after_they_were_enumerated():
    ws = load_workspace(UNARY)
    run_queries(ws)
    ws.register_concept("q-hood", ["s"], "q")
    ws.queries.append(Query("intension", ws.parse("q(x:s)")))
    report = _last_block(ws)
    assert report == _last_block(load_workspace(render_workspace(ws)))
    assert report.count("WORLD") == 16 and report.count("(a)") == 8


@settings(max_examples=40, deadline=None)
@given(symmetric_workspaces())
def test_particulars_declared_after_a_run_give_the_report_of_a_fresh_load(text):
    """The stamp differential: a workspace loaded without the particulars
    that no formula names, and run, then given them through the domain, and
    run again, reports what a fresh load of its rendering reports.  Its
    compiled formulas, plans and enumerated worlds were made under the old
    stamp, over pools without those particulars (a sort may have had none,
    so a function into it no graph and the workspace no world)."""
    named = _constant_symbols(phi for _, phi in load_workspace(text).all_formulas())
    kept, late = [], []
    for line in text.splitlines():
        lexeme, _, sort = line.removeprefix("particular ").rpartition(" : ")
        (late if line.startswith("particular ") and lexeme not in named else kept).append(
            (line, lexeme, sort))
    ws = load_workspace("".join(f"{line}\n" for line, _, _ in kept))
    run_queries(ws)
    for _, lexeme, sort in late:
        ws.domain.declare_particular(lexeme, sort)
    assert run_queries(ws) == run_queries(load_workspace(render_workspace(ws)))


ARITHMETIC = ("sort integers\n"
              "extent integers = { -1, 0, 1, 2 }\n"
              "builtin function add/2 : integers x integers -> integers = add\n"
              "builtin function div/2 : integers x integers -> integers = div\n"
              "builtin predicate leq/2 : integers x integers = leq\n")
POW = "builtin function pow/2 : integers x integers -> integers = pow\n"


def _declare_rationals(ws) -> None:
    ws.declare_sort("rationals")
    ws.declare_isa("integers", "rationals")


def _declare_pow(ws) -> None:
    ws.signature.declare_function("pow", ("integers", "integers"), "integers",
                                  ws.domain.lattice, evaluator="pow")


@pytest.mark.parametrize("text, declare", [(ARITHMETIC + POW, _declare_rationals),
                                           (ARITHMETIC + "sort rationals\n"
                                            "isa integers rationals\n", _declare_pow)],
                         ids=["rationals", "pow"])
def test_arithmetic_declared_after_a_run_gives_the_report_of_a_fresh_load(text, declare):
    """Which arithmetic a compiled core applies, and how, is fixed when it is
    compiled: the built-in functions, and whether some sort holds every
    number (without rationals, the half that `div` makes at x = 1, y = 0 has
    none).  A workspace run without rationals, or without `pow`, then given
    it through the API, reports what a fresh load of its rendering
    reports, on both routes and through a plan."""
    ws = load_workspace(text)
    total = "add(pow(x:integers, 2), pow(y:integers, 2))"  # planned once rationals exist
    for phi in (f"leq({total}, 2)", f"leq(div({total}, 2), 1)"):
        for kind in ("intension", "consequence", "bealer-montague"):
            ws.queries.append(Query(kind, ws.parse(phi)))
    before = run_queries(ws)
    declare(ws)
    after = run_queries(ws)
    assert "ERROR" in before[0] and "ERROR" not in after[0]
    assert after == run_queries(load_workspace(render_workspace(ws)))


def test_load_order_independence():
    text = (FIXTURES / "purrs.ifol").read_text()
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    reordered = "\n".join([lines[2], lines[1], lines[0]] + lines[3:])
    a = load_workspace(text)
    b = load_workspace(reordered)
    assert run_queries(a) == run_queries(b)
    assert render_workspace(a) == render_workspace(b)


def test_forward_isa_reference_loads():
    ws = load_workspace("sort Cat isa Animal\nsort Animal\n")
    assert ws.domain.is_subsort("Cat", "Animal")


def test_forward_attribute_reference_loads():
    ws = load_workspace("sort cat : kinds\nsort kinds\n")
    assert ws.domain.concepts["cat"].attribute_sorts == ("kinds",)


def test_duplicate_sort_rejected_with_line_number():
    with pytest.raises(ValidationError) as exc:
        load_workspace("sort cat\nsort cat\n")
    assert any("line 2" in d and "already declared" in d for d in exc.value.diagnostics)


def test_unknown_sort_in_concept_rejected():
    with pytest.raises(ValidationError) as exc:
        load_workspace("concept purring arity 1 sorts ghost predicate purrs\n")
    assert exc.value.diagnostics


def test_sort_error_in_axiom_rejected_atomically():
    text = (
        "sort integers\n"
        "sort rationals\n"
        "isa integers rationals\n"
        "builtin function div/2 : rationals x rationals -> rationals = div\n"
        "builtin predicate int_leq/2 : integers x integers = leq\n"
        "axiom int_leq(div(2, 2), 1)\n"
    )
    with pytest.raises(ValidationError) as exc:
        load_workspace(text)
    assert any(d.startswith("SORT-ERR axiom1") and "found rationals required integers" in d
               for d in exc.value.diagnostics)


def test_unknown_evaluator_rejected():
    with pytest.raises(ValidationError) as exc:
        load_workspace("sort s\nbuiltin predicate p/1 : s = frobnicate\n")
    assert any("frobnicate" in d for d in exc.value.diagnostics)


def test_builtin_keywords_may_be_spaced_apart():
    """`builtin` and its kind may be separated by any run of whitespace."""
    ws = load_workspace("sort reals\n"
                        "builtin  predicate lt/2 : reals x reals = lt\n"
                        "builtin   function add/2 : reals x reals -> reals = add\n")
    assert ws.signature.builtin_predicates.get("lt") == "lt"
    assert ws.signature.builtin_functions.get("add") == "add"
    assert ws.signature.predicates["lt"] == ("reals", "reals")
    assert ws.signature.functions["add"] == (("reals", "reals"), "reals")


def test_eval_binding_validation():
    base = (
        "sort cat\n"
        "particular tom : cat\n"
        "concept purring arity 1 sorts cat predicate purrs\n"
    )
    with pytest.raises(ValidationError):
        load_workspace(base + "query eval purrs(x:cat) with y=tom\n")
    with pytest.raises(ValidationError):
        load_workspace(base + "query eval purrs(x:cat) with x=ghost\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ValidationError) as exc:
        load_workspace("sort cat\naxiom purrs((\n")
    assert any("line 2" in d for d in exc.value.diagnostics)


# A `#` opens a comment only at the start of a line or after whitespace.
HASH_LEXEME_WS = (
    "#a comment at the start of a line\n"
    "sort lang\n"
    "particular C# : lang\n"
    "extent lang = { C#, python }   # note\n"
    "concept typed arity 1 sorts lang predicate typed\t#tabbed note\n"
    'query eval typed("C#")\n'
)


def test_hash_inside_a_lexeme_is_not_a_comment():
    ws = load_workspace(HASH_LEXEME_WS)
    assert [p.lexeme for p in ws.domain.valid_elements("lang")] == ["C#", "python"]
    report = 'EVAL typed("C#")\nGROUND typed("C#")\nPROPOSITION D0 typed(#C#)\n'
    assert run_queries(ws) == (report, 0)
    assert run_queries(load_workspace(render_workspace(ws))) == (report, 0)


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_render_reload_round_trip(path):
    ws = load_workspace(path)
    rendered = render_workspace(ws)
    reloaded = load_workspace(rendered)
    assert run_queries(ws) == run_queries(reloaded)
    assert render_workspace(reloaded) == rendered


def _mutate(rng: random.Random, line: str) -> str:
    """Delete a character, drop a token, insert a character or truncate."""
    op = rng.randrange(4)
    if op == 0 and line:
        i = rng.randrange(len(line))
        return line[:i] + line[i + 1:]
    tokens = line.split(" ")
    if op == 1 and len(tokens) > 1:
        del tokens[rng.randrange(len(tokens))]
        return " ".join(tokens)
    if op == 2:
        i = rng.randrange(len(line) + 1)
        return line[:i] + rng.choice(":=/{}()<>|,x-># ") + line[i:]
    return line[:rng.randrange(len(line) + 1)]


def test_mutated_declarations_load_or_diagnose():
    """A fixture with one damaged line loads or is rejected with diagnostics,
    and a loaded one runs; nothing escapes as a Python exception."""
    rng = random.Random(8)
    fixtures = [path.read_text().splitlines() for path in ALL_FIXTURES]
    for _ in range(2000):
        lines = list(rng.choice(fixtures))
        i = rng.randrange(len(lines))
        lines[i] = _mutate(rng, lines[i])
        try:
            ws = load_workspace("\n".join(lines))
        except IfolError:
            continue
        run_queries(ws)
