"""Static sorts, well-sortedness checks, and dynamic-sort soundness."""

from __future__ import annotations

import itertools
import random

import pytest

from ifol import (
    Atom,
    Const,
    FnApp,
    NESTED_SENTENCE_SORT,
    Not,
    TOP,
    Var,
    Variable,
    Workspace,
    check_formula,
    check_term,
    mk_abstracted,
    static_sort,
)
from ifol.errors import SortMismatch, SortViolation, UnknownSymbol
from ifol.semantics import World, eval_term
from ifol.sorting import dynamic_soundness
from ifol.worlds import enumerate_worlds

from conftest import many_sorted_assignments


DIV22 = FnApp("div", (Const("2"), Const("2")))


def test_static_sort_function_return(arith):
    assert static_sort(DIV22, arith.signature, arith.domain) == "rationals"


def test_static_sort_numeric_constant(arith):
    assert static_sort(Const("2"), arith.signature, arith.domain) == "integers"


def test_static_sort_variable_and_abstraction(arith):
    v = Variable("x", "reals")
    assert static_sort(Var(v), arith.signature, arith.domain) == "reals"
    abst = mk_abstracted(Atom("leq2", (Var(v), Const("1"))), [v], [])
    assert static_sort(abst, arith.signature, arith.domain) == NESTED_SENTENCE_SORT


def test_static_sort_unknown_symbol(arith):
    with pytest.raises(UnknownSymbol):
        static_sort(FnApp("mystery", ()), arith.signature, arith.domain)


def test_check_term_div_subsumption(arith):
    check_term(DIV22, "rationals", arith.signature, arith.domain)
    with pytest.raises(SortMismatch) as exc:
        check_term(DIV22, "integers", arith.signature, arith.domain)
    assert exc.value.found == "rationals" and exc.value.required == "integers"


def test_check_term_variable_subsort(pets):
    v = Variable("x", "cat")
    check_term(Var(v), "animal", pets.signature, pets.domain)


def test_check_term_weakening(arith):
    lattice = arith.domain.lattice
    terms = [DIV22, Const("2"), Var(Variable("x", "integers"))]
    sorts = ["integers", "rationals", "reals"]
    for t, s1, s2 in itertools.product(terms, sorts, sorts):
        if not lattice.is_subsort(s1, s2):
            continue
        try:
            check_term(t, s1, arith.signature, arith.domain)
        except SortMismatch:
            continue
        check_term(t, s2, arith.signature, arith.domain)


def test_check_formula_accepts_nested_sentence_argument():
    ws = Workspace()
    ws.declare_sort("person")
    ws.declare_sort("verb-form")
    ws.domain.declare_particular("zoran", "person")
    ws.register_concept("to know", ("verb-form", "person", NESTED_SENTENCE_SORT), "knows")
    phi = ws.parse("knows(present, x2:person, << knows(past, x2, << true >>) >>|beta: x2)")
    assert check_formula(phi, ws.signature, ws.domain) == []


def test_check_formula_rejects_element_in_nested_position():
    ws = Workspace()
    ws.declare_sort("person")
    ws.declare_sort("verb-form")
    ws.domain.declare_particular("zoran", "person")
    ws.register_concept("to know", ("verb-form", "person", NESTED_SENTENCE_SORT), "knows")
    phi = Atom("knows", (Const("present"), Const("zoran"), Const("zoran")))
    errors = check_formula(phi, ws.signature, ws.domain)
    assert len(errors) == 1
    assert errors[0].position == 3 and errors[0].required == NESTED_SENTENCE_SORT


def test_check_formula_rejects_abstraction_in_element_position(pets):
    v = Variable("x", "cat")
    abst = mk_abstracted(Atom("purrs", (Var(v),)), [v], [])
    errors = check_formula(Atom("purrs", (abst,)), pets.signature,
                           pets.domain)
    assert [e.found for e in errors] == [NESTED_SENTENCE_SORT]


def test_check_formula_walks_nested_abstraction_bodies():
    ws = Workspace()
    ws.declare_sort("person")
    ws.declare_sort("verb-form")
    ws.declare_sort("integers")
    ws.domain.declare_particular("zoran", "person")
    ws.register_concept("to know", ("verb-form", "person", NESTED_SENTENCE_SORT), "knows")
    ws.signature.declare_predicate("int_only", ("integers",), ws.domain.lattice)
    bad_body = Atom("int_only", (Const("zoran"),))
    v = Variable("w", "person")
    inner = mk_abstracted(Atom("knows", (Const("present"), Var(v),
                                         mk_abstracted(bad_body, (), ()))), [v], [])
    phi = Atom("knows", (Const("present"), Const("zoran"), inner))
    errors = check_formula(phi, ws.signature, ws.domain)
    assert [(e.found, e.required) for e in errors] == [("person", "integers")]


def test_check_formula_single_mismatch(arith):
    xq = Variable("x", "rationals")
    ws = arith
    ws.signature.declare_predicate("int_only", ("integers",), ws.domain.lattice)
    errors = check_formula(Atom("int_only", (Var(xq),)), ws.signature,
                           ws.domain)
    assert len(errors) == 1


def test_check_formula_accumulates_all_errors(arith):
    ws = arith
    ws.signature.declare_predicate("pair", ("integers", "integers"), ws.domain.lattice)
    xq = Variable("x", "rationals")
    yr = Variable("y", "reals")
    bad = Atom("pair", (Var(xq), Var(yr)))
    errors = check_formula(bad, ws.signature, ws.domain)
    assert sorted(e.position for e in errors) == [1, 2]


def test_check_formula_error_multiset_is_traversal_independent(arith):
    ws = arith
    ws.signature.declare_predicate("unary_int", ("integers",), ws.domain.lattice)
    xq = Variable("x", "rationals")
    a = Atom("unary_int", (Var(xq),))
    left = check_formula(Not(a), ws.signature, ws.domain)
    both = check_formula(
        __import__("ifol").And(a, Not(a)), ws.signature, ws.domain)
    key = lambda e: (e.position, e.found, e.required)
    assert sorted(map(key, both)) == sorted(map(key, left)) * 2


def test_check_formula_top_ok(arith):
    assert check_formula(TOP, arith.signature, arith.domain) == []


def test_dynamic_soundness_div(arith):
    worlds = enumerate_worlds(arith.space)
    dynamic_soundness(DIV22, {}, worlds[0])


def test_dynamic_soundness_variable(pets):
    worlds = enumerate_worlds(pets.space)
    v = Variable("x", "animal")
    tom = pets.domain.lookup("tom")
    dynamic_soundness(Var(v), {v: tom}, worlds[0])


def test_dynamic_soundness_catches_corrupted_world(pets):
    ws = pets
    ws.declare_sort("rationals")
    ws.signature.declare_function("weird", ("cat",), "rationals", ws.domain.lattice)
    tom = ws.domain.lookup("tom")
    rex = ws.domain.lookup("rex")
    corrupted = World("bad", ws.space, {}, {"weird": {(tom,): rex}})
    term = FnApp("weird", (Const("tom"),))
    with pytest.raises(SortViolation) as exc:
        dynamic_soundness(term, {}, corrupted)
    assert "dog" in str(exc.value)


def test_subject_reduction_exhaustive_small(pets):
    """Every well-sorted term evaluates to a value whose dynamic sort is below
    the static sort, over every world and many-sorted assignment."""
    ws = pets
    ws.signature.declare_function("mother", ("animal",), "animal", ws.domain.lattice)
    worlds = enumerate_worlds(ws.space, max_worlds=2 ** 21)
    xc = Variable("x", "cat")
    ya = Variable("y", "animal")
    terms = [Var(xc), Var(ya), Const("tom"), Const("rex"),
             FnApp("mother", (Var(xc),)), FnApp("mother", (FnApp("mother", (Var(ya),)),))]
    for t in terms:
        expected = static_sort(t, ws.signature, ws.domain)
        for world in worlds[:64]:
            for g in many_sorted_assignments((xc, ya), ws.domain):
                value = eval_term(t, g, world)
                assert ws.domain.is_subsort(ws.domain.dynamic_sort(value), expected)


def test_generated_term_soundness_sample(grid_arith):
    """Randomly generated arithmetic terms stay dynamically sound."""
    ws = grid_arith
    rng = random.Random(7)
    worlds = enumerate_worlds(ws.space)
    xr = Variable("x", "reals")
    yq = Variable("y", "rationals")

    def gen(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Const("2"), Const("1"), Const("-2"), Var(xr), Var(yq)])
        fn = rng.choice(["add", "sub", "mul"])
        return FnApp(fn, (gen(depth - 1), gen(depth - 1)))

    assignments = list(many_sorted_assignments((xr, yq), ws.domain))
    for _ in range(300):
        t = gen(3)
        expected = static_sort(t, ws.signature, ws.domain)
        g = rng.choice(assignments)
        value = eval_term(t, g, worlds[0])
        assert ws.domain.is_subsort(ws.domain.dynamic_sort(value), expected)
