"""Command-line behavior: reports, exit codes, determinism."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifol.cli
from ifol import load_workspace, satisfies, tarski_eval
from ifol.cli import _RowRenderer, main, render_concept_tree, run_queries
from ifol.errors import ExplosionGuard
from ifol.kernel import NESTED_SENTENCE_SORT, ConceptRef, element_lexeme

from conftest import FIXTURES
from strategies import mutated_fixtures

ALL_FIXTURES = sorted(FIXTURES.glob("*.ifol"))


def test_purrs_consequence_yes(capsys):
    assert main(["run", str(FIXTURES / "purrs.ifol")]) == 0
    out = capsys.readouterr().out
    assert "CONSEQUENCE yes" in out


def test_empty_gamma_renders_countermodel(capsys):
    assert main(["run", str(FIXTURES / "empty_gamma.ifol")]) == 1
    out = capsys.readouterr().out
    assert "CONSEQUENCE no" in out
    assert "WORLD w0" in out
    assert "p-hood: {}" in out


def test_entails_exists_yes(capsys):
    assert main(["run", str(FIXTURES / "entails_exists.ifol")]) == 0
    assert "CONSEQUENCE yes" in capsys.readouterr().out


def test_sphere_eval_and_intension(capsys):
    assert main(["run", str(FIXTURES / "sphere.ifol")]) == 0
    out = capsys.readouterr().out
    assert "CHECK ok" in out
    assert out.count("  (") == 33
    assert "PROPOSITION D0" in out


def test_animals_tree(capsys):
    assert main(["run", str(FIXTURES / "animals.ifol")]) == 0
    out = capsys.readouterr().out
    assert "    animal with breasts hairy:age-kind" in out
    assert "animal hairy with breasts" not in out


def test_arith_eval(capsys):
    assert main(["run", str(FIXTURES / "arith.ifol")]) == 0
    out = capsys.readouterr().out
    assert "GROUND leq(div(2, 2), 1)" in out


def test_load_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ifol"
    bad.write_text("sort cat\nsort cat\n")
    assert main(["run", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ifol")]) == 2


def test_check_subcommand(capsys):
    assert main(["check", str(FIXTURES / "en_problem.ifol")]) == 0
    assert "ok:" in capsys.readouterr().out


def test_concepts_subcommand(capsys):
    assert main(["concepts", str(FIXTURES / "animals.ifol"), "animal_of"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "animal:kind-of-animals,hairness,age-kind"


def test_concepts_subcommand_infinite_extent(tmp_path, capsys):
    f = tmp_path / "inf.ifol"
    f.write_text("sort reals\nconcept bounded arity 1 sorts reals predicate b\nquery check\n")
    assert main(["concepts", str(f), "b"]) == 1
    assert "InfiniteSortExtent" in capsys.readouterr().err


def test_errors_do_not_abort_later_queries(tmp_path, capsys):
    f = tmp_path / "mixed.ifol"
    f.write_text(
        "sort reals\n"
        "concept bounded arity 1 sorts reals predicate b\n"
        "query consequence b(x:reals)\n"
        "query check\n"
    )
    assert main(["run", str(f)]) == 1
    out = capsys.readouterr().out
    assert "ERROR InfiniteExtent" in out
    assert "CHECK ok" in out


def test_countermodel_includes_assignment(tmp_path, capsys):
    f = tmp_path / "open.ifol"
    f.write_text(
        "sort cat\n"
        "particular tom : cat\n"
        "concept purring arity 1 sorts cat predicate purrs\n"
        "query consequence purrs(x:cat)\n"
    )
    assert main(["run", str(f)]) == 1
    out = capsys.readouterr().out
    assert "ASSIGN x=tom" in out


def test_max_worlds_flag(tmp_path, capsys):
    f = tmp_path / "big.ifol"
    f.write_text(
        "sort s\n"
        "particular a : s\n"
        "particular b : s\n"
        "concept r-ness arity 2 sorts s s predicate r\n"
        "query consequence r(a, b)\n"
    )
    assert main(["run", str(f), "--max-worlds", "4"]) == 1
    assert "ERROR ExplosionGuard" in capsys.readouterr().out


def test_max_worlds_bounds_the_candidate_product(tmp_path, capsys):
    """Unary p ⊑ q over 4 particulars: 2^4 * 2^4 = 256 candidate worlds, of
    which 3^4 = 81 keep the edge.  The bound is on the candidates, not on the
    worlds kept or visited."""
    f = tmp_path / "unary.ifol"
    f.write_text("sort thing\n"
                 "extent thing = { a, b, c, d }\n"
                 "concept p-hood arity 1 sorts thing predicate p\n"
                 "concept q-hood arity 1 sorts thing predicate q\n"
                 "isa p-hood q-hood\n"
                 "query bealer-montague p(x:thing) | q(x)\n")
    assert main(["run", str(f), "--max-worlds", "255"]) == 1
    assert capsys.readouterr().out == "ERROR ExplosionGuard: more than 255 candidate worlds\n"
    assert main(["run", str(f), "--max-worlds", "256"]) == 0
    assert capsys.readouterr().out == "BEALER-MONTAGUE ok (81 worlds)\n"


def test_assignment_budget_is_reported_before_any_sweep():
    """Four variables of a 100-element sort: 10^8 assignments, over the
    2^24 budget, so each query reports the guard without sweeping."""
    text = ("sort reals\n"
            f"extent reals = {{ {', '.join(str(i) for i in range(100))} }}\n"
            "builtin predicate leq2/2 : reals x reals = leq\n"
            "query intension leq2(x:reals, y:reals) & leq2(z:reals, w:reals)\n"
            "query consequence leq2(x:reals, y:reals) | leq2(z:reals, w:reals)\n")
    guard = "ERROR ExplosionGuard: more than 16777216 assignments\n"
    assert run_queries(load_workspace(text)) == (guard + "\n" + guard, 1)


def _nest_ws(size: int, line: str) -> str:
    """reals = {0 .. size - 1}, with add, lt and one more line; `NEST` in it
    stands for six nested existentials over reals, a to f."""
    nest = " . ".join(f"exists {v}:reals" for v in "abcdef")
    return ("sort integers\nsort rationals\nsort reals\n"
            "isa integers rationals\nisa rationals reals\n"
            f"extent reals = {{ {', '.join(str(i) for i in range(size))} }}\n"
            "builtin function add/2 : reals x reals -> reals = add\n"
            "builtin predicate lt/2 : reals x reals = lt\n"
            + line.replace("NEST", nest) + "\n")


@pytest.mark.parametrize("line", [
    "query consequence NEST . lt(add(add(a, b), add(add(c, d), add(e, f))), 0)",
    "axiom NEST . lt(add(add(a, b), add(add(c, d), add(e, f))), 0)\nquery consequence lt(0, 1)",
])
def test_a_quantifier_nest_over_the_budget_is_refused_before_any_work(tmp_path, capsys, line):
    """Six existentials over 60 reals nest 60^6 assignments, past 2^24: a
    consequence (the Kripke route) and an axiom's models (the Tarski route)
    refuse the formula before evaluating it, where they ran unbounded."""
    f = _write(tmp_path, "nest.ifol", _nest_ws(60, line))
    start = time.perf_counter()
    assert main(["run", str(f)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "ERROR ExplosionGuard: more than 16777216 assignments\n"


def test_the_quantifier_budget_counts_the_sweep_and_one_nesting_path():
    """Six existentials over 16 reals nest 16^6 = 2^24 assignments, at the
    bound: they run (the body holds at once) in a consequence and in an
    axiom, and so do two such nests side by side, as no path nests more.
    Swept over a free variable's 16 values they are past the bound.
    Evaluation at one assignment checks the nest alone: seven existentials
    over 32 reals are refused on both routes."""
    ws = load_workspace(_nest_ws(32, ""))
    (world,) = ws.worlds()
    at_bound = "exists a:reals . exists b:reals . exists c:reals . exists d:reals" \
               " . exists e:reals . exists f:reals . lt(a, 1)"
    wider = ws.parse(at_bound.replace("exists a:reals", "exists a:reals . exists g:reals"))
    for truth in (satisfies, tarski_eval):
        with pytest.raises(ExplosionGuard):
            truth(world, {}, wider)
    ws = load_workspace(_nest_ws(16, f"query consequence {at_bound}\n"
                                      f"query consequence ({at_bound}) & ({at_bound})\n"
                                      f"query consequence lt(x:reals, 2) | {at_bound}\n"
                                      f"axiom {at_bound}\n"
                                      "query bealer-montague lt(y:reals, 1)"))
    guard = "ERROR ExplosionGuard: more than 16777216 assignments"
    assert run_queries(ws) == ("\n\n".join(["CONSEQUENCE yes"] * 2 + [guard]
                                           + ["BEALER-MONTAGUE ok (1 worlds)"]) + "\n", 1)


@settings(max_examples=60, deadline=None)
@given(mutated_fixtures())
def test_a_mutated_fixture_ends_in_exit_0_1_or_2(tmp_path_factory, text):
    """Any input ends in exit 0, 1 or 2 with a diagnostic, never an escaping
    exception: fixtures with a few tokens deleted, inserted, duplicated or
    truncated, run with a small world bound."""
    path = tmp_path_factory.mktemp("mutated") / "fixture.ifol"
    path.write_text(text)
    assert main(["run", str(path), "--max-worlds", "4096"]) in (0, 1, 2)


def test_eval_error_rendered_without_failing_exit(tmp_path, capsys):
    f = tmp_path / "unbound.ifol"
    f.write_text(
        "sort cat\n"
        "particular tom : cat\n"
        "concept purring arity 1 sorts cat predicate purrs\n"
        "query eval purrs(x:cat)\n"
        "query check\n"
    )
    assert main(["run", str(f)]) == 0
    out = capsys.readouterr().out
    assert "ERROR UnboundVariable" in out
    assert "CHECK ok" in out


def test_evaluation_materializes_subconcepts_lazily(tmp_path):
    """Abstraction bodies that leave one variable hidden force canonical
    subconcepts to register lazily inside per-world checks."""
    f = tmp_path / "lazy.ifol"
    f.write_text(
        "sort kind\n"
        "sort grade\n"
        "extent kind = { k1, k2 }\n"
        "extent grade = { g1, g2 }\n"
        "concept ranking arity 2 sorts kind grade predicate ranks\n"
        "concept saying arity 2 sorts kind nested-sentence predicate says\n"
        "query consequence ~says(k1, << ranks(k:kind, g:grade) >>|alpha: k |beta: g)\n"
    )
    ws = load_workspace(f.read_text())
    report, _ = run_queries(ws)
    made = {c.name for c in ws.registry.subconcepts["ranks"].values()}
    assert {"ranking g1", "ranking g2"} <= made
    assert not made & set(ws.domain.concepts)
    assert "CONSEQUENCE yes" in report


def test_consequence_with_abstraction_terms(tmp_path):
    f = tmp_path / "abs.ifol"
    f.write_text(
        "sort s\n"
        "particular a : s\n"
        "particular b : s\n"
        "concept q-ness arity 1 sorts s predicate q\n"
        "concept saying arity 2 sorts s nested-sentence predicate says\n"
        "query consequence ~says(a, << q(u:s) >>|beta: u)\n"
        "query consequence exists x:s . q(x) | ~q(x)\n"
    )
    report, status = run_queries(load_workspace(f.read_text()))
    assert report.count("CONSEQUENCE yes") == 2 and status == 0


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.stem)
def test_reports_are_deterministic_across_runs(path):
    """`python -m ifol run` prints the same bytes and exits the same under two
    string-hash seeds, and matches an in-process run.  Particulars hash by
    identity, so set order differs between processes; no report may show it."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "ifol", "run", str(path)], capture_output=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed,
                 "PYTHONIOENCODING": "utf-8"})
        runs.append((done.stdout, done.returncode))
    report, status = run_queries(load_workspace(path))
    assert runs[0] == runs[1] == (report.encode("utf-8"), status)


GOLDEN_REPORTS = {
    "purrs": ("CONSEQUENCE yes\n", 0),
    "empty_gamma": ("CONSEQUENCE no\nWORLD w0\n  p-hood: {}\n", 1),
    "arith": ("CHECK ok (1 formulas)\n\nEVAL leq(div(2, 2), 1)\n"
              "GROUND leq(div(2, 2), 1)\nPROPOSITION D0 leq(div(#2,#2),#1)\n", 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS), ids=str)
def test_golden_reports(name):
    got = run_queries(load_workspace(FIXTURES / f"{name}.ifol"))
    assert got == GOLDEN_REPORTS[name]


# Two predicates whose canonical subconcepts share a name: neither name is a
# declared concept, and the second predicate to reach it is refused.
COLLISION_WS = (
    "sort k\n"
    "sort k2\n"
    "sort a\n"
    "extent k = { with breasts }\n"
    "extent k2 = { breasts }\n"
    "extent a = { x1 }\n"
    "concept animal arity 2 sorts k a predicate p\n"
    "concept animal with arity 2 sorts k2 a predicate q\n"
    "query concepts p\n"
    "query concepts q\n"
)


def test_golden_canonical_name_collision():
    report = ("animal:k,a\n  animal with breasts:a\n  animal x1:k\n\n"
              "ERROR DuplicateName: canonical name 'animal with breasts' collides "
              "with a canonical subconcept of predicate 'p'\n")
    assert run_queries(load_workspace(COLLISION_WS)) == (report, 0)
    declared = ("sort k\nsort a\nsort animal x1\nextent k = { b }\nextent a = { x1 }\n"
                "concept animal arity 2 sorts k a predicate p\nquery concepts p\n")
    report = ("ERROR DuplicateName: canonical name 'animal x1' collides "
              "with a declared concept\n")
    assert run_queries(load_workspace(declared)) == (report, 0)


def test_render_concept_tree_matches_query_block():
    ws = load_workspace(FIXTURES / "animals.ifol")
    tree_text = render_concept_tree(ws, "animal_of")
    report, _ = run_queries(ws)
    assert tree_text in report


# Lazy evaluation errors: a sort's extent is looked up only when a world and
# an assignment actually reach the variable that ranges over it.
NO_WORLDS_WS = (
    "sort s\n"
    "sort t\n"
    "sort reals\n"
    "particular a : s\n"
    "builtin predicate leq2/2 : reals x reals = leq\n"
    "function f/1 : s -> t\n"  # t is empty: no total graph, hence no world
    "query intension leq2(x:reals, 1)\n"
    "query consequence leq2(x:reals, 1)\n"
    "query bealer-montague leq2(x:reals, 1)\n"
)

INFINITE_SORT_WS = (
    "sort s\n"
    "sort reals\n"
    "particular a : s\n"
    "concept p-hood arity 1 sorts s predicate p\n"
    "builtin predicate leq2/2 : reals x reals = leq\n"
    "query intension leq2(x:reals, 1)\n"
    "query intension exists y:reals . leq2(y, 1)\n"
    "query consequence leq2(x:reals, 1)\n"
    "query consequence exists y:reals . leq2(y, 1)\n"
    "query bealer-montague leq2(x:reals, 1)\n"
    "query bealer-montague exists y:reals . leq2(y, 1)\n"
    "query consequence p(a) & exists y:reals . leq2(y, 1)\n"
    "query intension p(a) & exists y:reals . leq2(y, 1)\n"
    "query intension p(x:s) & exists y:reals . leq2(y, 1)\n"
)

INFINITE = "ERROR InfiniteExtent: sort 'reals' has no finite extent declared"

# A consequence and an axiom that fail at x = -1, the first assignment, and
# would divide by zero at x = 0: looking for a failure stops at the first one,
# so the second assignment is never evaluated.
FIRST_FAILURE_DECLARATIONS = (
    "sort integers\n"
    "sort rationals\n"
    "sort reals\n"
    "isa integers rationals\n"
    "isa rationals reals\n"
    "extent reals = { -1, 0 }\n"
    "builtin function div/2 : reals x reals -> reals = div\n"
    "builtin predicate leq2/2 : reals x reals = leq\n"
    "sort s\n"
    "particular a : s\n"
    "concept p-hood arity 1 sorts s predicate p\n"
)

LAZY_ERROR_REPORTS = {
    "no_worlds": (NO_WORLDS_WS,
                  "INTENSION leq2(x:reals, 1)\n\nCONSEQUENCE yes\n\n"
                  "BEALER-MONTAGUE ok (0 worlds)\n", 0),
    "infinite_sort": (INFINITE_SORT_WS,
                      "\n\n".join([INFINITE] * 6
                                  + ["CONSEQUENCE no\nWORLD w0\n  p-hood: {}"]
                                  + [INFINITE] * 2) + "\n", 1),
    "first_failure_consequence": (
        FIRST_FAILURE_DECLARATIONS
        + "query consequence leq2(div(1, x:reals), -5)\n"
        "query consequence p(a) -> leq2(div(1, x:reals), -5)\n"
        "query intension leq2(div(1, x:reals), -5)\n",
        "CONSEQUENCE no\nWORLD w0\n  p-hood: {}\nASSIGN x=-1\n\n"
        "CONSEQUENCE no\nWORLD w1\n  p-hood: (a)\nASSIGN x=-1\n\n"
        "ERROR EvaluationFailure: division by zero\n", 1),
    "first_failure_axiom": (
        FIRST_FAILURE_DECLARATIONS
        + "axiom p(a) -> leq2(div(1, x:reals), -5)\n"
        "query consequence ~p(a)\n",
        "CONSEQUENCE yes\n", 0),
}


@pytest.mark.parametrize("name", sorted(LAZY_ERROR_REPORTS), ids=str)
def test_golden_lazy_error_reports(name):
    text, report, status = LAZY_ERROR_REPORTS[name]
    assert run_queries(load_workspace(text)) == (report, status)


# Terms over the parameters raise at an inner loop level: div(1, y) at y = 0
# and div(1, add(x, y)) where x + y = 0, each where a conjunct before it
# short-circuits.  A staged term is evaluated at every binding, guarded or
# not, so its error must surface only where the unstaged term would raise:
# these reports were taken before terms were staged.
STAGED_ERROR_DECLARATIONS = (
    "sort integers\n"
    "sort rationals\n"
    "sort reals\n"
    "isa integers rationals\n"
    "isa rationals reals\n"
    "extent reals = { -1, 0, 1 }\n"
    "builtin function add/2 : reals x reals -> reals = add\n"
    "builtin function div/2 : reals x reals -> reals = div\n"
    "builtin predicate leq2/2 : reals x reals = leq\n"
    "builtin predicate eq2/2 : reals x reals = eq\n"
    "sort s\n"
    "particular a : s\n"
    "concept p-hood arity 1 sorts s predicate p\n"
)


def _in_both_worlds(*rows: str) -> str:
    return "".join(f"WORLD w{i}\n" + "".join(f"  ({r})\n" for r in rows) for i in (0, 1))


DIVISION_BY_ZERO = "ERROR EvaluationFailure: division by zero\n"

STAGED_ERROR_REPORTS = {
    "consequence": (
        STAGED_ERROR_DECLARATIONS
        + "query consequence leq2(x:reals, 1) & ~eq2(y:reals, 0) -> leq2(add(x, div(1, y)), 1)\n"
        "query consequence ~eq2(add(x:reals, y:reals), 0) -> leq2(div(1, add(x, y)), 0)\n"
        "query consequence p(a) & ~eq2(y:reals, 0)"
        " -> leq2(add(div(x:reals, y), div(1, y)), 2)\n"
        "query consequence leq2(x:reals, 0) -> leq2(div(1, y:reals), 1)\n",
        "CONSEQUENCE no\nWORLD w0\n  p-hood: {}\nASSIGN x=1\nASSIGN y=1\n\n"
        "CONSEQUENCE no\nWORLD w0\n  p-hood: {}\nASSIGN x=0\nASSIGN y=1\n\n"
        "CONSEQUENCE yes\n\n" + DIVISION_BY_ZERO, 1),
    "intension": (
        STAGED_ERROR_DECLARATIONS
        + "query intension ~eq2(y:reals, 0) & leq2(add(x:reals, div(1, y)), 0)\n"
        "query intension leq2(x:reals, 0) & ~eq2(y:reals, 0) & leq2(add(x, div(1, y)), 0)\n"
        "query intension ~eq2(add(x:reals, y:reals), 0) & leq2(div(1, add(x, y)), 0)\n"
        "query intension exists z:reals . ~eq2(z, 0)"
        " & leq2(add(div(x:reals, z), div(1, add(y:reals, 2))), 0)\n"
        "query intension leq2(x:reals, 0) & leq2(div(1, y:reals), x)\n",
        "INTENSION ~eq2(y:reals, 0) & leq2(add(x:reals, div(1, y)), 0)\n"
        + _in_both_worlds("-1, -1", "-1, 0", "-1, 1", "1, -1")
        + "\nINTENSION (leq2(x:reals, 0) & ~eq2(y:reals, 0)) & leq2(add(x, div(1, y)), 0)\n"
        + _in_both_worlds("-1, -1", "-1, 1", "0, -1")
        + "\nINTENSION ~eq2(add(x:reals, y:reals), 0) & leq2(div(1, add(x, y)), 0)\n"
        + _in_both_worlds("-1, -1", "-1, 0", "0, -1")
        + "\nINTENSION exists z:reals . ~eq2(z, 0)"
        " & leq2(add(div(x:reals, z), div(1, add(y:reals, 2))), 0)\n"
        + _in_both_worlds("-1, -1", "-1, 0", "-1, 1", "1, -1", "1, 0", "1, 1")
        + "\n" + DIVISION_BY_ZERO, 0),
}


@pytest.mark.parametrize("name", sorted(STAGED_ERROR_REPORTS), ids=str)
def test_golden_staged_error_reports(name):
    text, report, status = STAGED_ERROR_REPORTS[name]
    assert run_queries(load_workspace(text)) == (report, status)


# Many worlds share one extension: 27 worlds, 8 distinct extensions over
# three particulars, and 16 worlds of a binary relation.
GOLDEN_INTENSION_REPORTS = {
    "unary": (
        "sort thing\n"
        "extent thing = { c, a, b }\n"
        "concept p-hood arity 1 sorts thing predicate p\n"
        "concept q-hood arity 1 sorts thing predicate q\n"
        "isa p-hood q-hood\n"
        "query intension q(x:thing) & ~p(x)\n",
        "INTENSION q(x:thing) & ~p(x)\n"
        "WORLD w0\n"
        "WORLD w1\n  (a)\n"
        "WORLD w2\n  (b)\n"
        "WORLD w3\n  (a)\n  (b)\n"
        "WORLD w4\n  (c)\n"
        "WORLD w5\n  (a)\n  (c)\n"
        "WORLD w6\n  (b)\n  (c)\n"
        "WORLD w7\n  (a)\n  (b)\n  (c)\n"
        "WORLD w8\n"
        "WORLD w9\n  (b)\n"
        "WORLD w10\n  (c)\n"
        "WORLD w11\n  (b)\n  (c)\n"
        "WORLD w12\n"
        "WORLD w13\n  (a)\n"
        "WORLD w14\n  (c)\n"
        "WORLD w15\n  (a)\n  (c)\n"
        "WORLD w16\n"
        "WORLD w17\n  (c)\n"
        "WORLD w18\n"
        "WORLD w19\n  (a)\n"
        "WORLD w20\n  (b)\n"
        "WORLD w21\n  (a)\n  (b)\n"
        "WORLD w22\n"
        "WORLD w23\n  (b)\n"
        "WORLD w24\n"
        "WORLD w25\n  (a)\n"
        "WORLD w26\n"),
    "binary": (
        "sort thing\n"
        "extent thing = { b, a }\n"
        "concept r-ness arity 2 sorts thing thing predicate r\n"
        "query intension r(x:thing, y:thing) & ~r(y, x)\n",
        "INTENSION r(x:thing, y:thing) & ~r(y, x)\n"
        "WORLD w0\n"
        "WORLD w1\n"
        "WORLD w2\n  (a, b)\n"
        "WORLD w3\n  (a, b)\n"
        "WORLD w4\n  (b, a)\n"
        "WORLD w5\n  (b, a)\n"
        "WORLD w6\n"
        "WORLD w7\n"
        "WORLD w8\n"
        "WORLD w9\n"
        "WORLD w10\n  (a, b)\n"
        "WORLD w11\n  (a, b)\n"
        "WORLD w12\n  (b, a)\n"
        "WORLD w13\n  (b, a)\n"
        "WORLD w14\n"
        "WORLD w15\n"),
    # A closed formula's intension is a truth value per world.
    "closed": (
        "sort thing\n"
        "extent thing = { b, a }\n"
        "concept p-hood arity 1 sorts thing predicate p\n"
        "concept q-hood arity 1 sorts thing predicate q\n"
        "isa p-hood q-hood\n"
        "query intension exists x:thing . q(x) & ~p(x)\n"
        "query intension ~exists x:thing . ~q(x)\n",
        "INTENSION exists x:thing . q(x) & ~p(x)\n"
        "WORLD w0 f\nWORLD w1 t\nWORLD w2 t\nWORLD w3 t\nWORLD w4 f\n"
        "WORLD w5 t\nWORLD w6 f\nWORLD w7 t\nWORLD w8 f\n\n"
        "INTENSION ~(exists x:thing . ~q(x))\n"
        "WORLD w0 f\nWORLD w1 f\nWORLD w2 f\nWORLD w3 t\nWORLD w4 f\n"
        "WORLD w5 t\nWORLD w6 f\nWORLD w7 t\nWORLD w8 t\n"),
    # A repeated variable selects the diagonal; a named constant selects a row.
    "repeated_and_named": (
        "sort thing\n"
        "extent thing = { b, a }\n"
        "concept r-ness arity 2 sorts thing thing predicate r\n"
        "query intension r(x:thing, x) & ~r(a, y:thing)\n",
        "INTENSION r(x:thing, x) & ~r(a, y:thing)\n"
        "WORLD w0\n"
        "WORLD w1\n  (a, b)\n"
        "WORLD w2\nWORLD w3\nWORLD w4\n"
        "WORLD w5\n  (a, b)\n"
        "WORLD w6\nWORLD w7\n"
        "WORLD w8\n  (b, a)\n  (b, b)\n"
        "WORLD w9\n  (a, b)\n  (b, b)\n"
        "WORLD w10\n  (b, a)\n"
        "WORLD w11\n"
        "WORLD w12\n  (b, a)\n  (b, b)\n"
        "WORLD w13\n  (a, b)\n  (b, b)\n"
        "WORLD w14\n  (b, a)\n"
        "WORLD w15\n"),
    "binary_bealer_montague": (
        "sort thing\n"
        "extent thing = { b, a }\n"
        "concept r-ness arity 2 sorts thing thing predicate r\n"
        "query bealer-montague exists y:thing . r(x:thing, y) & ~r(y, y)\n"
        "query bealer-montague exists y:thing . r(y, b) & ~r(a, y)\n",
        "BEALER-MONTAGUE ok (16 worlds)\n\n"
        "BEALER-MONTAGUE ok (16 worlds)\n"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_INTENSION_REPORTS), ids=str)
def test_golden_intension_reports(name):
    text, report = GOLDEN_INTENSION_REPORTS[name]
    assert run_queries(load_workspace(text)) == (report, 0)


# Workspaces with interchangeable particulars: b and c (and bar and foo) have
# one sort and no formula names them, so every world has an isomorphic twin.
# The first countermodel is not w0, and `a` is named, so it stays fixed.
GOLDEN_SYMMETRIC_REPORTS = {
    "named_and_movable": (
        "sort thing\n"
        "extent thing = { c, a, b }\n"
        "concept p-hood arity 1 sorts thing predicate p\n"
        "concept q-hood arity 1 sorts thing predicate q\n"
        "isa p-hood q-hood\n"
        "axiom exists x:thing . p(x)\n"
        "query consequence forall y:thing . q(y) -> p(y)\n"
        "query consequence q(y:thing) -> p(y)\n"
        "query intension q(x:thing) & ~p(a)\n"
        "query bealer-montague exists y:thing . q(y) & ~p(y)\n",
        "CONSEQUENCE no\nWORLD w9\n  p-hood: (a)\n  q-hood: (a) (b)\n\n"
        "CONSEQUENCE no\nWORLD w9\n  p-hood: (a)\n  q-hood: (a) (b)\nASSIGN y=b\n\n"
        "INTENSION q(x:thing) & ~p(a)\n"
        "WORLD w0\n"
        "WORLD w1\n  (a)\n"
        "WORLD w2\n  (b)\n"
        "WORLD w3\n  (a)\n  (b)\n"
        "WORLD w4\n  (c)\n"
        "WORLD w5\n  (a)\n  (c)\n"
        "WORLD w6\n  (b)\n  (c)\n"
        "WORLD w7\n  (a)\n  (b)\n  (c)\n"
        "WORLD w8\n"
        "WORLD w9\n"
        "WORLD w10\n"
        "WORLD w11\n"
        "WORLD w12\n  (b)\n"
        "WORLD w13\n  (a)\n  (b)\n"
        "WORLD w14\n  (b)\n  (c)\n"
        "WORLD w15\n  (a)\n  (b)\n  (c)\n"
        "WORLD w16\n"
        "WORLD w17\n"
        "WORLD w18\n  (c)\n"
        "WORLD w19\n  (a)\n  (c)\n"
        "WORLD w20\n  (b)\n  (c)\n"
        "WORLD w21\n  (a)\n  (b)\n  (c)\n"
        "WORLD w22\n"
        "WORLD w23\n"
        "WORLD w24\n  (b)\n  (c)\n"
        "WORLD w25\n  (a)\n  (b)\n  (c)\n"
        "WORLD w26\n\n"
        "BEALER-MONTAGUE ok (27 worlds)\n", 1),
    # The first query has a built-in, so it may raise: the model r = {bar}
    # makes it true before `leq` meets bar, but its twin r = {foo} reaches
    # leq(bar, 0) and raises.  Evaluating one world per class would hide that.
    "lazy_error_twin": (
        "sort reals\n"
        "extent reals = { 1 }\n"
        "particular bar : reals\n"
        "particular foo : reals\n"
        "concept r-hood arity 1 sorts reals predicate r\n"
        "builtin predicate leq/2 : reals x reals = leq\n"
        "axiom exists y:reals . r(y) & ~r(1)\n"
        "query consequence exists y:reals . r(y) | leq(y, 0)\n"
        "query consequence exists y:reals . r(y)\n"
        "query bealer-montague r(x:reals) & ~r(1)\n",
        "ERROR EvaluationFailure: 'bar' is not a numeric particular\n\n"
        "CONSEQUENCE yes\n\n"
        "BEALER-MONTAGUE ok (8 worlds)\n", 1),
    # A nested-sentence concept in a countermodel: it has no pool to read.
    "nested_sentence_countermodel": (
        "sort person\n"
        "particular ann : person\n"
        "concept to know arity 2 sorts person nested-sentence predicate knows\n"
        "concept p-hood arity 1 sorts person predicate p\n"
        "query consequence p(ann)\n",
        "CONSEQUENCE no\nWORLD w0\n  p-hood: {}\n  to know: {}\n", 1),
    # An atom over a subsort variable means a derived concept: both
    # Bealer-Montague sides keep only the subsort's tuples.
    "subsort_variable_atom": (
        "".join(line for line in (FIXTURES / "bealer.ifol").read_text().splitlines(True)
                if not line.startswith(("#", "query")))
        + "query bealer-montague barks(x:cat)\n"
        "query intension barks(x:cat)\n",
        "BEALER-MONTAGUE ok (8 worlds)\n\n"
        "INTENSION barks(x:cat)\n"
        "WORLD w0\nWORLD w1\nWORLD w2\nWORLD w3\n"
        "WORLD w4\n  (tom)\nWORLD w5\n  (tom)\nWORLD w6\n  (tom)\nWORLD w7\n  (tom)\n", 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SYMMETRIC_REPORTS), ids=str)
def test_golden_symmetric_reports(name):
    text, report, status = GOLDEN_SYMMETRIC_REPORTS[name]
    assert run_queries(load_workspace(text)) == (report, status)


# Boundaries of built-in arithmetic: where an intermediate value leaves the
# declared numeric tower, where a value is boxed into a relation argument, and
# which error wins when an argument is no number at all.
NATURALS_WS = (
    "sort naturals\n"
    "extent naturals = { 0, 1, 2, 3 }\n"
    "builtin function add/2 : naturals x naturals -> naturals = add\n"
    "builtin function sub/2 : naturals x naturals -> naturals = sub\n"
    "builtin function div/2 : naturals x naturals -> naturals = div\n"
    "builtin predicate leq/2 : naturals x naturals = leq\n"
    "query intension leq(sub(x:naturals, 2), 5)\n"
    "query intension leq(div(x:naturals, 2), 5)\n"
    "query intension leq(add(sub(x:naturals, 2), 2), 5)\n"
    "query intension leq(add(sub(x:naturals, 0), 2), 5)\n"
    "query consequence leq(div(x:naturals, 1), 3)\n"
)

RATIONALS_WS = (
    "sort integers\n"
    "sort rationals\n"
    "isa integers rationals\n"
    "extent rationals = { 1/2, 2 }\n"
    "builtin function pow/2 : rationals x rationals -> rationals = pow\n"
    "builtin function div/2 : rationals x rationals -> rationals = div\n"
    "builtin function mul/2 : rationals x rationals -> rationals = mul\n"
    "builtin predicate leq/2 : rationals x rationals = leq\n"
    "builtin predicate eq/2 : rationals x rationals = eq\n"
    "concept smallness arity 1 sorts rationals predicate small\n"
    "query intension leq(pow(x:rationals, -1), 1)\n"
    "query intension eq(div(x:rationals, 1), x)\n"
    "query intension eq(mul(div(x:rationals, 2), 2), x)\n"
    "query intension leq(pow(x:rationals, -2), div(1, 4))\n"
    "query consequence small(mul(x:rationals, 1)) | ~small(x)\n"
    "query consequence small(mul(x:rationals, 2)) | ~small(x)\n"
    "query intension small(mul(div(x:rationals, 2), 2))\n"
    "query eval leq(mul(div(3, 2), 2), pow(2, -1))\n"
    "query bealer-montague small(div(mul(x:rationals, 2), 2))\n"
)

NON_NUMERIC_REAL_WS = (
    "sort s\n"
    "sort reals\n"
    "extent s = { a }\n"
    "extent reals = { 0, 1 }\n"
    "particular foo : reals\n"
    "function f/1 : s -> reals\n"
    "builtin function add/2 : reals x reals -> reals = add\n"
    "builtin function div/2 : reals x reals -> reals = div\n"
    "builtin predicate leq/2 : reals x reals = leq\n"
    "query intension leq(add(foo, f(x:s)), 1)\n"
    "query intension leq(add(foo, div(f(x:s), 0)), 1)\n"
    "query intension leq(add(f(x:s), 1), 2)\n"
    "query consequence leq(f(x:s), 1)\n"
)


def _in_every_world(count: int, *rows: str) -> str:
    """An intension block's body that is the same in worlds w0..w<count-1>."""
    return "".join(f"WORLD w{i}\n" + "".join(f"  ({r})\n" for r in rows)
                   for i in range(count))


NOT_NUMERIC = "ERROR EvaluationFailure: 'foo' is not a numeric particular\n"

NUMERIC_BOUNDARY_REPORTS = {
    "naturals": (NATURALS_WS,
                 "ERROR UnknownSort: no numeric sort declared for value -2\n\n"
                 "ERROR UnknownSort: no numeric sort declared for value 1/2\n\n"
                 "ERROR UnknownSort: no numeric sort declared for value -2\n\n"
                 "INTENSION leq(add(sub(x:naturals, 0), 2), 5)\n"
                 + _in_every_world(1, "0", "1", "2", "3")
                 + "\nCONSEQUENCE yes\n", 0),
    "rationals": (RATIONALS_WS,
                  "INTENSION leq(pow(x:rationals, -1), 1)\n"
                  + _in_every_world(4, "2")
                  + "\nINTENSION eq(div(x:rationals, 1), x)\n"
                  + _in_every_world(4, "1/2", "2")
                  + "\nINTENSION eq(mul(div(x:rationals, 2), 2), x)\n"
                  + _in_every_world(4, "1/2", "2")
                  + "\nINTENSION leq(pow(x:rationals, -2), div(1, 4))\n"
                  + _in_every_world(4, "2")
                  + "\nCONSEQUENCE yes\n\n"
                  "CONSEQUENCE no\nWORLD w1\n  smallness: (1/2)\nASSIGN x=1/2\n\n"
                  "INTENSION small(mul(div(x:rationals, 2), 2))\n"
                  "WORLD w0\nWORLD w1\n  (1/2)\nWORLD w2\n  (2)\n"
                  "WORLD w3\n  (1/2)\n  (2)\n\n"
                  "EVAL leq(mul(div(3, 2), 2), pow(2, -1))\n"
                  "GROUND leq(mul(div(3, 2), 2), pow(2, -1))\n"
                  "PROPOSITION D0 leq(mul(div(#3,#2),#2),pow(#2,#-1))\n\n"
                  "BEALER-MONTAGUE ok (4 worlds)\n", 1),
    "non_numeric_real": (NON_NUMERIC_REAL_WS,
                         NOT_NUMERIC + "\n"
                         "ERROR EvaluationFailure: division by zero\n\n"
                         + NOT_NUMERIC + "\n" + NOT_NUMERIC, 1),
    # One row of 4,913 assignments: a sparse relation, so its rows are sorted.
    "sparse_intension": (
        "sort integers\nsort rationals\nsort reals\n"
        "isa integers rationals\nisa rationals reals\n"
        f"extent reals = {{ {', '.join(map(str, range(-8, 9)))} }}\n"
        "builtin function add/2 : reals x reals -> reals = add\n"
        "builtin function pow/2 : reals x reals -> reals = pow\n"
        "builtin predicate leq2/2 : reals x reals = leq\n"
        "query intension leq2(x:reals^2 + y:reals^2 + z:reals^2, 0)\n",
        "INTENSION leq2(add(add(pow(x:reals, 2), pow(y:reals, 2)), pow(z:reals, 2)), 0)\n"
        "WORLD w0\n  (0, 0, 0)\n", 0),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_BOUNDARY_REPORTS), ids=str)
def test_golden_numeric_boundary_reports(name):
    text, report, status = NUMERIC_BOUNDARY_REPORTS[name]
    assert run_queries(load_workspace(text)) == (report, status)


def _write(tmp_path, name: str, text: str):
    f = tmp_path / name
    f.write_text(text)
    return f


def _negations_ws(depth: int) -> str:
    return ("sort s\n"
            "particular a : s\n"
            "concept p-hood arity 1 sorts s predicate p\n"
            f"query consequence {'~' * depth}p(a)\n")


@pytest.mark.parametrize("depth, report", [
    (900, "CONSEQUENCE no\nWORLD w0\n  p-hood: {}\n"),
    (901, "CONSEQUENCE no\nWORLD w1\n  p-hood: (a)\n"),
])
def test_deeply_negated_consequence_answers(depth, report):
    assert run_queries(load_workspace(_negations_ws(depth))) == (report, 1)


def test_nesting_too_deep_to_load_exits_2(tmp_path, capsys):
    f = _write(tmp_path, "deep.ifol", _negations_ws(3000))
    assert main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "too deep" in captured.err


def test_nesting_too_deep_to_run_exits_2(tmp_path, capsys):
    # a long sum loads (the parser reads it iteratively), but interpreting the
    # ground instance of the eval query recurses once per addition
    total = " + ".join(["1"] * 700)
    f = _write(tmp_path, "deep_sum.ifol",
               "sort reals\n"
               "extent reals = { 0, 1 }\n"
               "builtin function add/2 : reals x reals -> reals = add\n"
               "builtin predicate leq2/2 : reals x reals = leq\n"
               f"query eval leq2({total}, 1)\n")
    load_workspace(f)
    assert main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "too deep" in captured.err


@pytest.mark.parametrize("jobs", ["2", "0", "-3"])
def test_jobs_flag_is_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(FIXTURES / "purrs.ifol"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-3", "many"])
def test_max_worlds_below_one_rejected(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(FIXTURES / "purrs.ifol"), "--max-worlds", bound])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-worlds: " in err
    assert "ExplosionGuard" not in err


def test_parse_diagnostics_carry_one_prefix_and_line_columns(tmp_path, capsys):
    f = _write(tmp_path, "bad.ifol",
               "sort s\n"
               "particular a : s\n"
               "concept p-hood arity 1 sorts s predicate p\n"
               "  axiom p(a) &\n"
               "axiom forall y:nested-sentence . p(a)\n"
               "query consequence p(a) $ p(a)\n"
               "query eval p(x:s) & with x=a\n"
               "query intension p(a) & p(x:nested-sentence)\n")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "line 4:15: expected a formula (at '')",
        "line 5:14: variable 'y' may not have the nested-sentence sort",
        "line 6:24: unexpected character '$'",
        "line 7:20: expected a formula (at '')",
        "line 8:26: variable 'x' may not have the nested-sentence sort",
    ]
    f = _write(tmp_path, "bad_sort.ifol", "sort s\nsort\n")
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err.splitlines() == ["line 2: empty sort name"]


@pytest.mark.parametrize("text, diagnostics", [
    # queries are loaded after axioms, concepts after sorts
    ("sort s\n"
     "particular a : s\n"
     "concept p-hood arity 1 sorts s predicate p\n"
     "query intension p(a) & p(x:nested-sentence)\n"
     "axiom forall y:nested-sentence . p(a)\n",
     ["line 4:26: variable 'x' may not have the nested-sentence sort",
      "line 5:14: variable 'y' may not have the nested-sentence sort"]),
    ("sort s\n"
     "concept p-hood arity 2 sorts s predicate p\n"
     "sort s\n",
     ["line 2: arity 2 but 1 sorts",
      "line 3: concept 's' already declared"]),
])
def test_load_diagnostics_come_in_line_order(tmp_path, capsys, text, diagnostics):
    assert main(["run", str(_write(tmp_path, "bad.ifol", text))]) == 2
    assert capsys.readouterr().err.splitlines() == diagnostics


@pytest.mark.parametrize("line, diagnostic", [
    ("concept p-hood arity 1 sorts s predicate q", "concept 'p-hood' already declared"),
    ("query concepts q", "predicate 'q' names no concept"),
    ("query eval p(x:s) with x=a, x=b", "variable 'x' bound twice"),
])
def test_golden_load_diagnostics_say_what_went_wrong(tmp_path, capsys, line, diagnostic):
    """A second declaration of a concept phrase, a concept tree of a predicate
    that names no concept and a variable bound twice in one eval query each
    end the load with their reason, not a bare name or a silent last binding."""
    f = _write(tmp_path, "bad.ifol", "sort s\n"
                                     "extent s = { a, b }\n"
                                     "concept p-hood arity 1 sorts s predicate p\n"
                                     f"{line}\n")
    assert main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"line 4: {diagnostic}\n"


@pytest.mark.parametrize("line, diagnostic", [
    ("function f/1 thing -> thing", "expected '<symbol>/<arity> : <argument sorts>'"),
    ("builtin predicate lt/2 reals x reals = lt",
     "expected '<symbol>/<arity> : <argument sorts>'"),
    ("concept p-hood arity sorts thing predicate p",
     "expected 'concept <phrase> arity <k> sorts ... predicate <p>'"),
    ("concept p-hood arity 1 sorts predicate p",
     "expected 'concept <phrase> arity <k> sorts ... predicate <p>'"),
])
def test_malformed_declaration_exits_2(tmp_path, capsys, line, diagnostic):
    f = _write(tmp_path, "bad.ifol", f"sort thing\n{line}\n")
    for command in ("run", "check"):
        assert main([command, str(f)]) == 2
        assert capsys.readouterr().err == f"line 2: {diagnostic}\n"


def test_bealer_montague_on_derived_formulas():
    """Bealer-Montague checks compile derived formulas, all on one structure."""
    text = ("sort s\n"
            "extent s = { a, b, c }\n"
            "concept p-hood arity 1 sorts s predicate p\n"
            "concept q-hood arity 1 sorts s predicate q\n"
            "query bealer-montague p(x:s) & ~q(x)\n"
            "query bealer-montague exists x:s . p(x) & q(x)\n"
            "query bealer-montague (p(x:s) | q(x)) & exists y:s . ~p(y)\n"
            "query consequence exists x:s . p(x) | ~q(x)\n")
    report, _ = run_queries(load_workspace(text))
    assert report.count("BEALER-MONTAGUE ok (64 worlds)") == 3


def test_formula_load_diagnostics_name_their_source_line(tmp_path, capsys):
    """A formula that fails its load-time sort check is reported at its own
    line, even when a failed line before it leaves no axiom behind."""
    head = ("sort naturals\n"
            "extent naturals = { 0, 1 }\n"
            "builtin predicate leq/2 : naturals x naturals = leq\n")
    query = "query intension leq(x:naturals, 1/2)\n"
    f = _write(tmp_path, "half.ifol", head + query)
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err == (
        "line 4: no numeric sort declared for value 1/2\n")
    f = _write(tmp_path, "after_bad_axiom.ifol", head + "axiom leq(0,\n" + query)
    assert main(["run", str(f)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "line 4:13: expected a term (at '')",
        "line 5: no numeric sort declared for value 1/2",
    ]


def test_zero_to_a_negative_power_is_an_error_block(tmp_path, capsys):
    f = _write(tmp_path, "pow0.ifol",
               "sort integers\n"
               "sort rationals\n"
               "isa integers rationals\n"
               "extent rationals = { -1, 0, 1/2 }\n"
               "builtin function pow/2 : rationals x rationals -> rationals = pow\n"
               "builtin predicate leq/2 : rationals x rationals = leq\n"
               "query intension leq(pow(x:rationals, -2), 1)\n"
               "query intension leq(pow(x:rationals, -2), 4)\n")
    assert main(["run", str(f)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("ERROR EvaluationFailure: division by zero\n\n"
                            "ERROR EvaluationFailure: division by zero\n")
    assert captured.err == ""


def test_python_dash_m_runs_the_command_line():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "ifol", "check", str(FIXTURES / "arith.ifol")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "ok: 1 formulas, 0 concepts\n", "")


ROW_LEXEMES = ("a", "a b", "ab", "B", "b", "Zed", "z9")


def _sorted_rows(rel) -> list[str]:
    """The rows of a relation as `(a, b)`, ordered by their lexeme tuples."""
    return ["(" + ", ".join(row) + ")"
            for row in sorted(tuple(map(element_lexeme, t)) for t in rel)]


@st.composite
def _rendered_relations(draw):
    """A workspace with cats among its animals, the sorts of 0-3 columns
    (animal, cat or nested sentence), and a relation whose rows take any
    animal in an animal or cat column, so a cat column may hold rows outside
    its pool, and a concept in a nested-sentence column.  Half the time the
    relation is the complement of a drawn set, so dense ones come up."""
    lexemes = draw(st.lists(st.sampled_from(ROW_LEXEMES), min_size=1, unique=True))
    cats = [draw(st.booleans()) for _ in lexemes]
    ws = load_workspace("sort animal\nsort cat\nisa cat animal\n"
                        "concept barking arity 1 sorts animal predicate barks\n"
                        + "".join(f"particular {lex} : {'cat' if cat else 'animal'}\n"
                                  for lex, cat in zip(lexemes, cats)))
    sorts = draw(st.lists(st.sampled_from(["animal", "cat", NESTED_SENTENCE_SORT]), max_size=3))
    animals = ws.domain.valid_elements("animal")
    concepts = [ConceptRef(c) for c in ws.registry.by_predicate.values()]
    universe = list(itertools.product(*[concepts if s == NESTED_SENTENCE_SORT else animals
                                        for s in sorts]))
    drawn = draw(st.sets(st.sampled_from(universe), max_size=len(universe)))
    rel = frozenset(universe) - drawn if draw(st.booleans()) else frozenset(drawn)
    return ws.domain, sorts, rel


@settings(max_examples=200, deadline=None)
@given(_rendered_relations())
def test_rendered_rows_are_the_sorted_lexeme_tuples(case):
    """Both paths of the row renderer, filtering the pools' product and
    sorting, list the rows a plain sort of their lexeme tuples lists: dense
    and sparse relations, empty ones, arity 0 to 3, and rows outside the
    pools; the renderer reads no pool for an empty relation."""
    domain, sorts, rel = case
    rows = _RowRenderer(domain, sorts)
    assert rows(frozenset()) == [] and rows.pools is None
    assert rows(rel) == _sorted_rows(rel)
    assert rows(rel) == _sorted_rows(rel)  # and again, from the pools read


def test_a_dense_relation_reads_each_lexeme_once_and_a_sparse_one_is_sorted(monkeypatch):
    """Over 17 x 17 pairs, a relation of at least 289 / 8 rows is filtered
    from the product, with one lexeme read per pool element (34), and a
    sparser one is sorted, with one read per cell (72) and none per pool
    element."""
    ws = load_workspace("sort integers\nsort rationals\nsort reals\n"
                        "isa integers rationals\nisa rationals reals\n"
                        f"extent reals = {{ {', '.join(map(str, range(-8, 9)))} }}\n")
    pairs = list(itertools.product(ws.domain.valid_elements("reals"), repeat=2))
    calls = []
    monkeypatch.setattr(ifol.cli, "element_lexeme",
                        lambda el: calls.append(el) or element_lexeme(el))
    for n, reads in [(37, 34), (36, 72), (289, 34)]:
        rows = _RowRenderer(ws.domain, ["reals", "reals"])
        rel = frozenset(pairs[-n:])
        calls.clear()
        assert rows(rel) == _sorted_rows(rel)
        assert len(calls) == reads, n
