"""Worlds, satisfaction, consequence, intensions, and the extension identity."""

from __future__ import annotations

import gc
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

import ifol.semantics
from ifol import (
    Atom,
    ConceptRef,
    Const,
    FnApp,
    Var,
    Variable,
    Workspace,
    bealer_montague_check,
    load_workspace,
    consequence,
    enumerate_worlds,
    eval_atom,
    eval_term,
    montague_intension,
    satisfies,
    tarski_eval,
    mk_abstracted,
)
from ifol.errors import ExplosionGuard, IfolError, InfiniteExtent, UnknownSymbol
from ifol.kernel import element_lexeme, numeric_lexeme
from ifol.semantics import (
    MAX_ASSIGNMENTS,
    World,
    accessible,
    accessible_values,
    is_model_of,
)
from ifol.syntax import TOP, Abstracted, And, Exists, Formula, Not, free_vars, ground_instance

from conftest import arithmetic_ws, many_sorted_assignments, pets_ws
from strategies import fragment_formulas, isa_workspaces


def singleton_ws() -> Workspace:
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.register_concept("p-hood", ("s",), "p")
    return ws


def test_enumerate_singleton_unary_concept():
    worlds = enumerate_worlds(singleton_ws().space)
    extents = [sorted(map(element_lexeme, (t[0] for t in w.relation("p-hood"))))
               for w in worlds]
    assert extents == [[], ["a"]]


def test_enumerate_respects_subsort_extent_inclusion():
    ws = Workspace()
    ws.declare_sort("s")
    ws.declare_sort("sub")
    ws.declare_isa("sub", "s")
    ws.domain.declare_particular("a", "sub")
    ws.domain.declare_particular("b", "s")
    ws.register_concept("p-hood", ("s",), "p")
    # the fixed extent of sub is {a}; sub below the concept forces a inside
    ws.declare_isa("sub", "p-hood")
    worlds = enumerate_worlds(ws.space)
    a = ws.domain.lookup("a")
    assert len(worlds) == 2
    for w in worlds:
        assert (a,) in w.relation("p-hood")


def test_enumerate_inclusion_between_two_enumerated_concepts():
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.register_concept("narrow", ("s",), "p")
    ws.register_concept("wide", ("s",), "q")
    ws.declare_isa("narrow", "wide")
    worlds = enumerate_worlds(ws.space)
    assert len(worlds) == 3  # (∅,∅), (∅,{a}), ({a},{a})
    for w in worlds:
        assert w.relation("narrow") <= w.relation("wide")


def test_enumerate_infinite_extent_guard():
    ws = arithmetic_ws()
    ws.register_concept("bounded below", ("reals",), "bounded")
    with pytest.raises(InfiniteExtent):
        enumerate_worlds(ws.space)


def test_enumerate_explosion_guard():
    ws = pets_ws()
    with pytest.raises(ExplosionGuard):
        enumerate_worlds(ws.space, max_worlds=2)


def test_enumerate_deterministic_labels():
    ws = pets_ws()
    worlds = enumerate_worlds(ws.space)
    assert [w.label for w in worlds] == [f"w{i}" for i in range(len(worlds))]
    again = enumerate_worlds(ws.space)
    assert [w.relations for w in worlds] == [w.relations for w in again]


def test_worlds_satisfy_invariants():
    ws = pets_ws()
    for world in enumerate_worlds(ws.space):
        assert world.extension_of(ws.interp.truth) is True
        for pred, concept in ws.registry.by_predicate.items():
            pools = [set(ws.domain.valid_elements(s)) for s in concept.attribute_sorts]
            for t in world.relation(concept.name):
                assert all(e in pool for e, pool in zip(t, pools))
        for sub, sup in ws.domain.lattice.isa_edges:
            assert world.sort_extent(sub) <= world.sort_extent(sup)


def test_sort_extent_contained_in_valid_elements():
    ws = pets_ws()
    for world in enumerate_worlds(ws.space):
        for s in ("cat", "dog", "animal"):
            assert world.sort_extent(s) <= set(ws.domain.valid_elements(s))


def test_eval_term_div(arith):
    world = enumerate_worlds(arith.space)[0]
    value = eval_term(FnApp("div", (Const("2"), Const("2"))), {}, world)
    assert value.lexeme == "1"
    assert arith.domain.dynamic_sort(value) == "integers"


def test_eval_term_abstraction_with_beta(grid_arith):
    ws = grid_arith
    world = enumerate_worlds(ws.space)[0]
    body = ws.parse("leq2((x:reals - x0:reals)^2 + (y:reals - y0:reals)^2 "
                    "+ (z:reals - z0:reals)^2, v:reals^2)")
    by_name = {v.name: v for v in free_vars(body)}
    abst = mk_abstracted(body, [by_name[n] for n in ("x", "y", "z")],
                         [by_name[n] for n in ("x0", "y0", "z0", "v")])
    zero = ws.domain.lookup("0")
    two = ws.domain.lookup("2")
    g = {by_name["x0"]: zero, by_name["y0"]: zero, by_name["z0"]: zero, by_name["v"]: two}
    value = eval_term(abst, g, world)
    assert value.arity == 3
    # grounding the center differently yields a different concept
    g2 = dict(g)
    g2[by_name["v"]] = ws.domain.lookup("1")
    assert eval_term(abst, g2, world) is not value


def test_nested_abstraction_evaluates_inner_first(grid_arith):
    """The value of the outer reified term is the interpretation of its body
    with the inner abstraction already replaced by its own value."""
    ws = grid_arith
    ws.declare_sort("person")
    ws.declare_sort("verb-form")
    ws.domain.declare_particular("Zoran Majkic", "person")
    ws.domain.declare_particular("Alberto Rossi", "person")
    ws.register_concept("to know", ("verb-form", "person", "nested sentence"), "knows")
    ws.register_concept("to tell", ("verb-form", "person", "nested sentence"), "told")
    text = ("knows(present, x2:person, << told(past, x4:person, "
            "<< leq2((x:reals - x0:reals)^2 + (y:reals - y0:reals)^2 "
            "+ (z:reals - z0:reals)^2, v:reals^2) >>"
            "|alpha: x,y,z |beta: x0,y0,z0,v) >>|beta: x4,x0,y0,z0,v)")
    phi = ws.parse(text)
    by_name = {v.name: v for v in free_vars(phi)}
    world = World("w", ws.space, {})
    lex = {"x2": "Zoran Majkic", "x4": "Alberto Rossi",
           "x0": "0", "y0": "0", "z0": "0", "v": "2"}
    g = {by_name[n]: ws.domain.lookup(v) for n, v in lex.items()}
    outer = phi.args[2]
    outer_value = eval_term(outer, g, world)
    assert outer_value.arity == 0
    # hand-composed route: ground the told body (the inner abstraction keeps
    # its hidden variables), then interpret the resulting sentence
    told_ground = ground_instance(outer.body, {v: lex[v.name] for v in outer.beta})
    assert eval_term(Abstracted(told_ground, (), ()), g, world) is outer_value
    assert ws.interp.of_formula(told_ground) is outer_value
    # the whole atom grounds to a proposition carrying that value
    prop = ws.interp.of_formula(ground_instance(phi, {v: lex[v.name] for v in free_vars(phi)}))
    assert prop.arity == 0
    assert outer_value.fingerprint in prop.fingerprint


def test_eval_term_closed_abstraction_is_proposition(pets):
    world = enumerate_worlds(pets.space)[0]
    abst = mk_abstracted(pets.parse("purrs(tom)"), [], [])
    value = eval_term(abst, {}, world)
    assert value.arity == 0


def test_eval_atom_builtin_arithmetic(grid_arith):
    world = enumerate_worlds(grid_arith.space)[0]
    truth = eval_atom(grid_arith.parse("leq2(1^2 + 1^2 + 1^2, 4)"), {}, world)
    assert truth is True
    assert eval_atom(grid_arith.parse("leq2(9, 4)"), {}, world) is False


def test_eval_atom_empty_relation_false():
    ws = singleton_ws()
    world = enumerate_worlds(ws.space)[0]
    assert eval_atom(ws.parse("p(a)"), {}, world) is False


def hidden_beta_ws():
    ws = Workspace()
    ws.declare_sort("s")
    for lex in ("a", "b", "c"):
        ws.domain.declare_particular(lex, "s")
    ws.register_concept("q-hood", ("s", "s"), "q")
    ws.register_concept("r-hood", ("s", "nested sentence"), "r")
    return ws


def hidden_beta_atom(ws, n_hidden: int):
    u = Variable("u", "s")
    w = Variable("w", "s")
    hidden = [u, w][:n_hidden]
    x = Variable("x", "s")
    body = Atom("q", tuple(Var(v) for v in ([x] + hidden))[:2])
    if n_hidden == 2:
        body = And(Atom("q", (Var(x), Var(u))), Atom("q", (Var(x), Var(w))))
    abst = mk_abstracted(body, [x], hidden)
    return Atom("r", (Var(Variable("y", "s")), abst)), hidden


def seeded_world(ws) -> World:
    """Hand-built world whose r-relation pairs elements with reified concepts."""
    a, b, c = (ws.domain.lookup(k) for k in ("a", "b", "c"))
    q_rel = frozenset({(a, b), (b, b), (c, a)})
    x = Variable("x", "s")
    members = []
    for value in (a, b, c):
        body = Atom("q", (Var(x), Const(value.lexeme)))
        members.append(ws.interp.of_formula(body))
    r_rel = frozenset({(a, members[0]), (b, members[1]), (c, members[0])})
    return World("hand", ws.space, {"q-hood": q_rel, "r-hood": r_rel})


def test_eval_atom_hidden_beta_union_matches_brute_force():
    ws = hidden_beta_ws()
    world = seeded_world(ws)
    for n_hidden in (1, 2):
        atom, hidden = hidden_beta_atom(ws, n_hidden)
        result = eval_atom(atom, {}, world)
        brute = frozenset()
        for g_hidden in many_sorted_assignments(hidden, ws.domain):
            summand = eval_atom(atom, g_hidden, world)
            assert not isinstance(summand, bool)
            brute |= summand
        assert result == brute


def test_eval_atom_relation_mode_matches_world_relation():
    ws = hidden_beta_ws()
    world = seeded_world(ws)
    xv = Variable("x1", "s")
    yv = Variable("y1", "s")
    atom = Atom("q", (Var(xv), Var(yv)))
    rel = eval_atom(atom, {}, world)
    assert rel == world.relation("q-hood")
    # with y1 given, the core over (x1, y1) again, a sweep binds x1 alone
    b = ws.domain.lookup("b")
    by_b = {(x,) for x, y in rel if y is b}
    assert by_b and eval_atom(atom, {yv: b}, world) == by_b


def test_satisfies_top_everywhere(pets):
    worlds = enumerate_worlds(pets.space)
    for world in worlds[:8]:
        assert satisfies(world, {}, TOP)


def test_satisfies_existential_two_worlds():
    ws = singleton_ws()
    worlds = enumerate_worlds(ws.space)
    phi = ws.parse("exists x:s . p(x)")
    assert satisfies(worlds[0], {}, phi) is False
    assert satisfies(worlds[1], {}, phi) is True


def test_satisfies_requires_sorted_witness(pets):
    """exists x:cat barks(x) fails in the world where only the dog barks."""
    ws = pets
    rex = ws.domain.lookup("rex")
    world = World("adv", ws.space, {"barking": frozenset({(rex,)}),
                                    "purring": frozenset()})
    assert satisfies(world, {}, ws.parse("exists x:animal . barks(x)"))
    assert not satisfies(world, {}, ws.parse("exists x:cat . barks(x)"))


def test_tarski_matches_satisfies_spot_checks(pets):
    ws = pets
    worlds = enumerate_worlds(ws.space)
    formulas = [
        TOP,
        ws.parse("purrs(tom)"),
        ws.parse("~purrs(tom)"),
        ws.parse("exists x:cat . purrs(x) & barks(x)"),
        ws.parse("exists x:animal . barks(x) & ~purrs(tom)"),
    ]
    for world in worlds:
        for phi in formulas:
            assert satisfies(world, {}, phi) == tarski_eval(world, {}, phi)


def test_tarski_negated_atom():
    ws = singleton_ws()
    worlds = enumerate_worlds(ws.space)
    assert tarski_eval(worlds[1], {}, ws.parse("~p(a)")) is False


def test_consequence_purrs_singleton():
    ws = singleton_ws()
    ws.add_axiom(ws.parse("exists x:s . p(x)"))
    holds, cm = consequence(ws.space, ws.axioms, ws.parse("p(a)"), ws.worlds())
    assert holds and cm is None


def test_consequence_empty_gamma():
    ws = singleton_ws()
    holds, cm = consequence(ws.space, [], ws.parse("p(a)"), ws.worlds())
    assert not holds
    assert cm is not None
    assert cm.world.relation("p-hood") == frozenset()
    holds_top, _ = consequence(ws.space, [], TOP, ws.worlds())
    assert holds_top


def test_consequence_ground_axiom_entails_existential():
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.domain.declare_particular("b", "s")
    ws.register_concept("p-hood", ("s",), "p")
    holds, _ = consequence(ws.space, [ws.parse("p(a)")], ws.parse("exists x:s . p(x)"),
                           ws.worlds())
    assert holds


def test_consequence_open_axiom_universally_closed():
    ws = pets_ws()
    axiom = ws.parse("purrs(x:cat)")
    for world in enumerate_worlds(ws.space):
        tom = ws.domain.lookup("tom")
        expected = (tom,) in world.relation("purring")
        assert is_model_of(world, [axiom]) == expected


def test_montague_intension_top_and_atom():
    ws = singleton_ws()
    worlds = enumerate_worlds(ws.space)
    meaning = montague_intension(ws.space, TOP, worlds)
    assert meaning == [True, True]
    open_meaning = montague_intension(ws.space, ws.parse("p(x:s)"), worlds)
    assert open_meaning == [world.relation("p-hood") for world in worlds]


def test_montague_intension_sphere_grid(grid_arith):
    ws = grid_arith
    worlds = enumerate_worlds(ws.space)
    assert len(worlds) == 1
    phi = ws.parse("leq2(x:reals^2 + y:reals^2 + z:reals^2, 4)")
    meaning = montague_intension(ws.space, phi, worlds)
    grid = range(-2, 3)
    oracle = {(i, j, k) for i in grid for j in grid for k in grid
              if i * i + j * j + k * k <= 4}
    got = {tuple(int(element_lexeme(e)) for e in t) for t in meaning[0]}
    assert got == oracle
    assert len(oracle) == 33


def test_bealer_montague_top_and_registered_atom():
    ws = singleton_ws()
    worlds = enumerate_worlds(ws.space)
    assert bealer_montague_check(ws.space, TOP, worlds) is None
    assert bealer_montague_check(ws.space, ws.parse("p(x:s)"), worlds) is None


def test_bealer_montague_composed_formula(pets):
    ws = pets
    worlds = enumerate_worlds(ws.space)
    phi = ws.parse("purrs(x:cat) & barks(x)")
    assert bealer_montague_check(ws.space, phi, worlds) is None
    sentence = ws.parse("exists x:cat . purrs(x)")
    assert bealer_montague_check(ws.space, sentence, worlds) is None


def test_worlds_that_share_a_label_keep_their_own_meanings():
    """Two worlds built by hand, both labelled `w`, where p holds of a and of
    b: the intension has one entry per world, in order, and the extension
    identity holds in each."""
    ws = singleton_ws()
    ws.domain.declare_particular("b", "s")
    a, b = ws.domain.lookup("a"), ws.domain.lookup("b")
    worlds = [World("w", ws.space, {"p-hood": frozenset({(a,)})}),
              World("w", ws.space, {"p-hood": frozenset({(b,)})})]
    phi = ws.parse("p(x:s)")
    assert montague_intension(ws.space, phi, worlds) == [frozenset({(a,)}), frozenset({(b,)})]
    assert bealer_montague_check(ws.space, phi, worlds) is None


def test_bealer_montague_reports_seeded_mismatch(pets):
    ws = pets
    phi = ws.parse("purrs(x:cat)")
    concept = ws.interp.of_formula(phi)
    assert isinstance(concept, ConceptRef)
    tom = ws.domain.lookup("tom")
    broken = World("broken", ws.space, {"purring": frozenset({(tom,)}),
                                        "barking": frozenset()})
    # seed the memo with a wrong answer through a fake relation name
    broken.relations = dict(broken.relations)
    broken.relations["purring"] = frozenset()
    mismatch = bealer_montague_check(ws.space, phi, [broken])
    assert mismatch is None  # both sides read the same relation: identity holds

    # a genuinely two-sided formula: derived concept vs satisfaction route
    composed = ws.parse("purrs(y:cat) & ~purrs(y)")
    assert bealer_montague_check(ws.space, composed, [broken]) is None


def test_eval_atom_infinite_hidden_domain():
    ws = arithmetic_ws()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.register_concept("r-hood", ("s", "nested sentence"), "r")
    xr = Variable("xr", "reals")
    u = Variable("u", "reals")
    body = Atom("leq2", (Var(xr), Var(u)))
    abst = mk_abstracted(body, [xr], [u])
    atom = Atom("r", (Var(Variable("y", "s")), abst))
    world = World("w", ws.space, {"r-hood": frozenset()})
    from ifol.errors import InfiniteHiddenDomain
    with pytest.raises(InfiniteHiddenDomain):
        eval_atom(atom, {}, world)


def test_eval_atom_hidden_union_budget():
    """Four hidden beta variables over 100 reals: 10^8 assignments to union
    over, so the guard is raised before any of them is evaluated."""
    ws = arithmetic_ws()
    ws.domain.declare_extent("reals", [str(i) for i in range(100)])
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.register_concept("r-hood", ("s", "nested sentence"), "r")
    u1, u2, u3, u4 = (Variable(f"u{i}", "reals") for i in range(1, 5))
    body = And(Atom("leq2", (Var(u1), Var(u2))), Atom("leq2", (Var(u3), Var(u4))))
    atom = Atom("r", (Const("a"), mk_abstracted(body, [], [u1, u2, u3, u4])))
    world = World("w", ws.space, {"r-hood": frozenset()})
    with pytest.raises(ExplosionGuard, match=f"more than {MAX_ASSIGNMENTS} assignments"):
        eval_atom(atom, {}, world)


def test_eval_atom_union_over_an_empty_hidden_sort_is_empty():
    """No assignment to the hidden u of the empty sort e: the union is empty,
    and the free y of the infinite reals is never swept."""
    ws = arithmetic_ws()
    ws.declare_sort("e")
    ws.register_concept("q-hood", ("e",), "q")
    ws.register_concept("r-hood", ("reals", "nested sentence"), "r")
    u = Variable("u", "e")
    atom = Atom("r", (Var(Variable("y", "reals")), mk_abstracted(Atom("q", (Var(u),)), [], [u])))
    assert eval_atom(atom, {}, World("w", ws.space, {"r-hood": frozenset()})) == frozenset()


def test_eval_atom_hidden_union_is_one_sweep(monkeypatch):
    """Two hidden reals of 10 values each and one direct variable over 3
    particulars: one sweep binds all three, the hidden ones outermost, not
    one sweep per hidden assignment, and its rows are the brute-force union
    over the hidden assignments."""
    ws = arithmetic_ws()
    ws.domain.declare_extent("reals", [str(i) for i in range(10)])
    ws.declare_sort("s")
    for lex in ("a", "b", "c"):
        ws.domain.declare_particular(lex, "s")
    ws.register_concept("r-hood", ("s", "nested sentence"), "r")
    u1, u2 = Variable("u1", "reals"), Variable("u2", "reals")
    body = Atom("leq2", (Var(u1), Var(u2)))
    atom = Atom("r", (Var(Variable("y", "s")), mk_abstracted(body, [], [u1, u2])))
    told = ws.interp.of_ground_term(Abstracted(ws.parse("leq2(3, 5)"), (), ()))
    a, c = ws.domain.lookup("a"), ws.domain.lookup("c")
    world = World("w", ws.space, {"r-hood": frozenset({(a, told), (c, a)})})
    sweeps = []  # each sweep fetches its pools once
    real = ifol.semantics._pools
    monkeypatch.setattr(ifol.semantics, "_pools",
                        lambda *args: sweeps.append(real(*args)) or sweeps[-1])
    assert eval_atom(atom, {}, world) == frozenset({(a,)})
    assert [[len(pool) for pool in pools] for pools in sweeps] == [[10, 10, 3]]
    brute = frozenset()
    for g_hidden in many_sorted_assignments([u1, u2], ws.domain):
        brute |= eval_atom(atom, g_hidden, world)
    assert brute == frozenset({(a,)})


def test_eval_atom_keeps_a_direct_argument_that_is_also_a_beta_variable():
    """x is k's first argument and the beta variable of its abstraction
    argument: the extension has x's column, and x is not unioned out."""
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_extent("s", ["a", "b"])
    ws.register_concept("p-hood", ("s",), "p")
    ws.register_concept("k-ness", ("s", "nested sentence"), "k")
    atom = ws.parse("k(x:s, <<p(x:s)>>|beta: x)")
    a = ws.domain.lookup("a")
    told = ws.interp.of_ground_term(Abstracted(ws.parse("p(a)"), (), ()))
    world = World("w", ws.space, {"k-ness": frozenset({(a, told)})})
    assert eval_atom(atom, {}, world) == frozenset({(a,)})
    assert eval_atom(atom, {Variable("x", "s"): a}, world) is True


def test_eval_term_function_undefined_at(pets):
    ws = pets
    ws.signature.declare_function("mother", ("animal",), "animal", ws.domain.lattice)
    tom = ws.domain.lookup("tom")
    partial_graph = World("w", ws.space, {}, {"mother": {}})
    from ifol.errors import FunctionUndefinedAt
    with pytest.raises(FunctionUndefinedAt):
        eval_term(FnApp("mother", (Const("tom"),)), {}, partial_graph)
    assert tom is not None


def test_builtin_evaluator_failures(arith):
    from ifol.errors import EvaluationFailure
    world = enumerate_worlds(arith.space)[0]
    with pytest.raises(EvaluationFailure):
        eval_term(FnApp("div", (Const("1"), Const("0"))), {}, world)
    with pytest.raises(EvaluationFailure):
        eval_term(FnApp("pow", (Const("2"), Const("1/2"))), {}, world)
    with pytest.raises(EvaluationFailure, match="division by zero"):
        eval_term(FnApp("pow", (Const("0"), Const("-1"))), {}, world)


class _Undefined(Exception):
    """The reference's failure: the message the engine should raise."""


def _reference(tree) -> Fraction:
    """Plain Fraction arithmetic over a tree of (op, *args) tuples, arguments
    left to right."""
    if isinstance(tree, Fraction):
        return tree
    op, *args = tree
    values = [_reference(a) for a in args]
    if op == "neg":
        return -values[0]
    a, b = values
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "pow" and b.denominator != 1:
        raise _Undefined(f"exponent {b} is not an integer")
    if b == 0 and op == "div" or a == 0 and op == "pow" and b < 0:
        raise _Undefined("division by zero")
    return a / b if op == "div" else a ** int(b)


def _term(tree):
    if isinstance(tree, Fraction):
        return Const(numeric_lexeme(tree))
    op, *args = tree
    return FnApp(op, tuple(_term(a) for a in args))


_LITERALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_TREES = st.recursive(
    _LITERALS,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub),
        st.tuples(st.just("pow"), sub, _LITERALS),  # integral exponents lie in -3..3
        st.tuples(st.just("neg"), sub)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_builtin_arithmetic_matches_fraction_reference(tree):
    """Unboxed arithmetic gives the plain Fraction result, boxed with its
    lexeme, an int value when integral, and its numeric sort; a built-in
    predicate reads the same number; failures carry the same message."""
    from ifol.errors import EvaluationFailure
    ws = arithmetic_ws()
    world = enumerate_worlds(ws.space)[0]
    term = _term(tree)
    below_zero = Atom("leq2", (term, Const("0")))
    try:
        want = _reference(tree)
    except _Undefined as undefined:
        for evaluate in (lambda: eval_term(term, {}, world),
                         lambda: tarski_eval(world, {}, below_zero)):
            with pytest.raises(EvaluationFailure) as exc:
                evaluate()
            assert str(exc.value) == str(undefined)
        return
    got = eval_term(term, {}, world)
    assert got.lexeme == numeric_lexeme(want) and got.value == want
    if want.denominator == 1:
        assert type(got.value) is int and got.sort == "integers"
    else:
        assert type(got.value) is Fraction and got.sort == "rationals"
    assert tarski_eval(world, {}, below_zero) == (want <= 0)


def test_union_concept_extension_is_pointwise_union():
    """The derived concept of a disjunction of two canonical subconcepts has,
    in every world, the union of the projections the subconcepts stand for."""
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.domain.declare_particular("b", "s")
    ws.register_concept("r-hood", ("s", "s"), "r")
    left = ws.interp.of_formula(ws.parse("r(a, x:s)"))
    right = ws.interp.of_formula(ws.parse("r(b, x:s)"))
    union = ws.interp.of_formula(ws.parse("r(a, x:s) | r(b, x)"))
    for world in enumerate_worlds(ws.space):
        a = ws.domain.lookup("a")
        b = ws.domain.lookup("b")
        brute = frozenset(
            (t[1],) for t in world.relation("r-hood") if t[0] in (a, b))
        assert world.extension_of(union) == brute
        lhs = world.extension_of(left)
        rhs = world.extension_of(right)
        assert world.extension_of(union) == lhs | rhs


def test_a_sort_is_a_concept_whose_extension_is_its_valid_elements():
    """Sorts are concepts: in every world the extension of a sort's concept
    is its valid elements, a subsort's members included, as 1-tuples, and
    no enumerated relation stands for it."""
    ws = load_workspace("sort thing\n"
                        "sort cat\n"
                        "isa cat thing\n"
                        "particular a : thing\n"
                        "particular b : thing\n"
                        "particular tom : cat\n"
                        "concept being-p arity 1 sorts thing predicate p\n"
                        "concept purring arity 1 sorts cat predicate purrs\n")
    sorts = {name: ConceptRef(ws.domain.concepts[name]) for name in ("thing", "cat")}
    worlds = ws.worlds()
    assert len(worlds) == 16
    for world in worlds:
        assert not {"thing", "cat"} & set(world.relations)
        extents = {name: sorted(element_lexeme(x) for (x,) in world.extension_of(ref))
                   for name, ref in sorts.items()}
        assert extents == {"thing": ["a", "b", "tom"], "cat": ["tom"]}


def test_accessibility_is_equivalence():
    ws = pets_ws()
    x = Variable("x", "animal")
    y = Variable("y", "cat")
    assignments = list(many_sorted_assignments((x, y), ws.domain))
    for g in assignments:
        assert accessible(g, g, x)
    for g1, g2 in itertools.product(assignments, repeat=2):
        assert accessible(g1, g2, x) == accessible(g2, g1, x)
    for g1, g2, g3 in itertools.product(assignments, repeat=3):
        if accessible(g1, g2, x) and accessible(g2, g3, x):
            assert accessible(g1, g3, x)


def test_successors_rebind_only_the_modal_variable():
    ws = pets_ws()
    x = Variable("x", "cat")
    y = Variable("y", "animal")
    tom, rex = ws.domain.lookup("tom"), ws.domain.lookup("rex")
    g = {x: tom, y: rex}
    values = accessible_values(x, ws.domain)
    assert {element_lexeme(u) for u in values} == {"tom"}
    for u in values:
        assert accessible(g, {**g, x: u}, x)
    assert not accessible(g, {**g, y: tom}, x)


def test_diamond_monotone(pets):
    ws = pets
    worlds = enumerate_worlds(ws.space)
    x = Variable("x", "cat")
    stronger = And(Atom("purrs", (Var(x),)), Atom("barks", (Var(x),)))
    weaker = Atom("purrs", (Var(x),))
    for world in worlds:
        if satisfies(world, {}, Exists(x, stronger)):
            assert satisfies(world, {}, Exists(x, weaker))


def test_witnesses_are_dynamically_sorted(pets):
    ws = pets
    x = Variable("x", "cat")
    for g in many_sorted_assignments((x,), ws.domain):
        assert ws.domain.is_subsort(ws.domain.dynamic_sort(g[x]), "cat")


# --- the compiled core: cache safety and environment hygiene ------------------------

CACHE_SHAPES = {
    "purrs(tom)": True,
    "barks(tom)": False,
    "~purrs(tom)": False,
    "~~barks(rex)": True,
    "purrs(tom) & barks(rex)": True,
    "purrs(tom) & barks(tom) & barks(rex)": False,
    "exists x:animal . barks(x)": True,
    "exists x:cat . barks(x)": False,
    "forall x:cat . purrs(x)": True,
    "forall x:animal . barks(x)": False,
    "exists x:animal . exists y:animal . barks(x) & purrs(y)": True,
}


def test_fresh_formulas_reusing_ids_get_their_own_closures(pets):
    """Formulas parsed, evaluated and dropped in a loop let CPython reuse their
    ids; a compiled closure must never answer for a different formula."""
    ws = pets
    tom, rex = ws.domain.lookup("tom"), ws.domain.lookup("rex")
    world = World("w", ws.space, {"purring": frozenset({(tom,)}),
                                  "barking": frozenset({(rex,)})})
    shapes = sorted(CACHE_SHAPES)
    for i in range(400):
        text = shapes[i * 7 % len(shapes)]
        phi = ws.parse(text)
        assert satisfies(world, {}, phi) is CACHE_SHAPES[text], text
        assert tarski_eval(world, {}, phi) is CACHE_SHAPES[text], text
        del phi


def test_the_compile_cache_lets_a_formula_go_with_its_last_holder():
    """Each cache entry holds its formula weakly, and no closure in it holds
    the formula: 1,000 fresh `p(a)` and 300 fresh `p(x:s)` under an empty
    assignment (whose Kripke atom, a virtual predicate, is evaluated and
    refused) leave no entry behind once they are dropped."""
    from ifol.errors import UnboundVariable
    ws = singleton_ws()
    world = enumerate_worlds(ws.space)[1]
    before = len(ws.space.compiled)
    for _ in range(1000):
        phi = ws.parse("p(a)")
        assert satisfies(world, {}, phi) and tarski_eval(world, {}, phi)
    for _ in range(300):
        phi = ws.parse("p(x:s)")
        for route in (satisfies, tarski_eval):
            with pytest.raises(UnboundVariable):
                route(world, {}, phi)
    del phi
    gc.collect()
    assert len(ws.space.compiled) == before


def rebinding_ws() -> Workspace:
    ws = Workspace()
    ws.declare_sort("s")
    ws.domain.declare_particular("a", "s")
    ws.domain.declare_particular("b", "s")
    ws.register_concept("p-hood", ("s",), "p")
    ws.register_concept("q-hood", ("s",), "q")
    return ws


def test_quantifier_rebinding_a_free_variable_agrees_on_both_routes():
    """p(x:s) & exists x:s . q(x): the quantifier's x is not the free x."""
    ws = rebinding_ws()
    x = Variable("x", "s")
    phi = And(Atom("p", (Var(x),)), Exists(x, Atom("q", (Var(x),))))
    worlds = enumerate_worlds(ws.space)
    meaning = montague_intension(ws.space, phi, worlds)
    for world, rows in zip(worlds, meaning, strict=True):
        expected = frozenset(t for t in world.relation("p-hood") if world.relation("q-hood"))
        assert rows == expected
        for g in many_sorted_assignments((x,), ws.domain):
            truth = (g[x],) in expected
            assert satisfies(world, g, phi) is truth
            assert tarski_eval(world, g, phi) is truth


def test_evaluation_leaves_the_callers_assignment_alone():
    ws = rebinding_ws()
    x, y = Variable("x", "s"), Variable("y", "s")
    worlds = enumerate_worlds(ws.space)
    a = ws.domain.lookup("a")
    formulas = [
        Exists(x, Atom("q", (Var(x),))),
        And(Atom("p", (Var(x),)), Exists(x, Atom("q", (Var(x),)))),
        Exists(y, And(Atom("p", (Var(y),)), Atom("q", (Var(x),)))),
    ]
    for world in worlds:
        for phi in formulas:
            g = {x: a}
            satisfies(world, g, phi)
            assert g == {x: a}
            tarski_eval(world, g, phi)
            assert g == {x: a}


def test_unbound_variable_fails_only_where_reached():
    """A free variable missing from the assignment fails when its atom is
    evaluated, on both routes, and not when a conjunct before it is false."""
    from ifol.errors import UnboundVariable
    ws = singleton_ws()
    w_empty, w_full = enumerate_worlds(ws.space)
    phi = ws.parse("p(a) & p(x:s)")
    assert satisfies(w_empty, {}, phi) is False
    assert tarski_eval(w_empty, {}, phi) is False
    with pytest.raises(UnboundVariable):
        satisfies(w_full, {}, phi)
    with pytest.raises(UnboundVariable):
        tarski_eval(w_full, {}, phi)


def test_a_predicate_declared_after_first_use_is_resolved_when_reached():
    """A core compiled while its predicate was undeclared fails where the atom
    is reached, and answers as a fresh workspace does once the predicate is
    declared: a concept and a built-in predicate, on both routes, whichever
    route met the formula first."""
    def unary() -> Workspace:
        ws = Workspace()
        ws.declare_sort("s")
        ws.domain.declare_extent("s", ["a", "b"])
        return ws

    fresh = unary()
    fresh.register_concept("q-hood", ("s",), "q")
    closed = fresh.parse("exists x:s . q(x)")
    expected = [satisfies(w, {}, closed) for w in enumerate_worlds(fresh.space)]
    assert expected == [False, True, True, True]
    for first in ((tarski_eval,), (satisfies,), (satisfies, tarski_eval)):
        ws = unary()
        phi = ws.parse("exists x:s . q(x)")
        (world,) = enumerate_worlds(ws.space)
        for route in first:
            with pytest.raises(UnknownSymbol, match="predicate 'q' has no concept"):
                route(world, {}, phi)
        ws.register_concept("q-hood", ("s",), "q")
        worlds = enumerate_worlds(ws.space)
        for route in (tarski_eval, satisfies):
            assert [route(w, {}, phi) for w in worlds] == expected

    # x + 1 is staged, and boxed while lt2 reads as a concept atom; once lt2
    # is a built-in it reads the raw sum
    ws = arithmetic_ws(grid=True)
    phi = ws.parse("lt2(x:reals + 1, 0)")
    (x,) = free_vars(phi)
    world = World("w", ws.space, {})
    minus_two = ws.domain.lookup("-2")
    for route in (satisfies, tarski_eval):
        with pytest.raises(UnknownSymbol, match="predicate 'lt2' has no concept"):
            route(world, {x: minus_two}, phi)
    ws.signature.declare_predicate("lt2", ("reals", "reals"), ws.domain.lattice, evaluator="lt")
    pool = ws.domain.valid_elements("reals")
    for route in (satisfies, tarski_eval):
        assert [route(world, {x: v}, phi) for v in pool] == [v is minus_two for v in pool]
    assert montague_intension(ws.space, phi, [world]) == [frozenset({(minus_two,)})]


def test_a_builtin_function_declared_after_first_use_is_resolved_when_reached():
    """A core compiled while its function symbol was undeclared reads it as a
    function graph, failing where it is reached, and answers as a freshly
    parsed formula does once the symbol is declared a built-in: on both
    routes, whichever route met the formula first."""
    for first in ((tarski_eval,), (satisfies,), (satisfies, tarski_eval)):
        ws = arithmetic_ws(grid=True)
        phi = ws.parse("leq2(dbl(x:reals), 0)")
        (x,) = free_vars(phi)
        (world,) = enumerate_worlds(ws.space)
        for route in first:
            with pytest.raises(UnknownSymbol, match="function 'dbl' has no graph in world w0"):
                route(world, {x: ws.domain.lookup("1")}, phi)
        ws.signature.declare_function("dbl", ("reals",), "reals", ws.domain.lattice,
                                      evaluator="neg")
        fresh = ws.parse("leq2(dbl(x:reals), 0)")
        pool = ws.domain.valid_elements("reals")
        expected = [tarski_eval(world, {x: v}, fresh) for v in pool]
        assert expected == [v.value >= 0 for v in pool]
        for route in (satisfies, tarski_eval):
            assert [route(world, {x: v}, phi) for v in pool] == expected
        assert montague_intension(ws.space, phi, [world]) \
            == montague_intension(ws.space, fresh, [world])


def _abstraction_atoms(phi) -> list[Atom]:
    """The atoms of phi, abstraction bodies included, that take an
    abstraction argument."""
    found, stack = [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Not):
            stack.append(f.sub)
        elif isinstance(f, And):
            stack += f.parts
        elif isinstance(f, Exists):
            stack.append(f.body)
        else:
            bodies = [t.body for t in f.args if isinstance(t, Abstracted)]
            found += [f] if bodies else []
            stack += bodies
    return found


def _outcome(evaluate):
    try:
        return evaluate()
    except IfolError as exc:
        return type(exc).__name__, str(exc)


# The most worlds times assignments one example of the test below evaluates.
_WORK = 1_024


@st.composite
def _budgeted_formulas(draw, ws) -> tuple[list[Formula], list[Atom]]:
    """Up to five `fragment_formulas` whose free variables range over finite
    sorts, and their atoms that take an abstraction argument and do too.  A
    formula is left out where it and its atoms would take the worlds times
    the assignments of everything kept over `_WORK`: the test evaluates
    each at every assignment in every world, which grows exponentially with
    the free variables drawn."""
    worlds, work = len(ws.worlds()), 0
    finite, atoms = [], []
    for phi in draw(st.lists(fragment_formulas(ws), min_size=2, max_size=5)):
        if not all(ws.domain.sort_is_finite(v.sort) for v in free_vars(phi)):
            continue
        found = [a for a in _abstraction_atoms(phi)
                 if all(ws.domain.sort_is_finite(v.sort) for v in free_vars(a))]
        cost = worlds * sum(math.prod(len(ws.domain.valid_elements(v.sort)) for v in free_vars(f))
                            for f in (phi, *found))
        if work + cost <= _WORK:
            work += cost
            finite.append(phi)
            atoms += found
    return finite, atoms


# No shrinking: a failure here shows in seconds, and shrinking it took minutes.
@settings(max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(isa_workspaces(), st.data())
def test_abstraction_arguments_agree_per_world_and_assignment(text, data):
    """Generated formulas whose nested-sentence positions take abstraction
    terms, in worlds whose nested-sentence relations hold some of the values
    those atoms test.  Per world and assignment both routes give the same
    truth value or error; and `eval_atom`, with every variable open, unions
    the hidden beta variables out as the Tarski route does assignment by
    assignment, hidden variables outermost (a beta variable that is also a
    direct argument is a column, not hidden)."""
    ws = load_workspace(text)
    finite, atoms = data.draw(_budgeted_formulas(ws))
    keep = data.draw(st.integers(0, 2 ** 12 - 1))  # bit j: keep the j-th tested tuple (mod 12)
    for world in ws.worlds():
        relations = dict(world.relations)
        tested = 0
        for a in atoms:
            name = ws.registry.by_predicate[a.pred].name
            for g in many_sorted_assignments(free_vars(a), ws.domain):
                try:
                    values = tuple(eval_term(t, g, world) for t in a.args)
                except IfolError:
                    continue
                if keep >> tested % 12 & 1:
                    relations[name] = relations.get(name, frozenset()) | {values}
                tested += 1
        seeded = World(world.label, ws.space, relations, world.functions)
        for phi in [*finite, *atoms]:
            for g in many_sorted_assignments(free_vars(phi), ws.domain):
                assert _outcome(lambda: satisfies(seeded, g, phi)) \
                    == _outcome(lambda: tarski_eval(seeded, g, phi))
        for a in atoms:
            direct = free_vars(Atom(a.pred, tuple(t for t in a.args
                                                  if not isinstance(t, Abstracted))))
            hidden = list(dict.fromkeys(v for t in a.args if isinstance(t, Abstracted)
                                        for v in t.beta if v not in direct))
            free = [v for v in free_vars(a) if v not in hidden]
            rows, error = set(), None
            for g in many_sorted_assignments([*hidden, *free], ws.domain):
                holds = _outcome(lambda: tarski_eval(seeded, g, a))
                if isinstance(holds, tuple):
                    error = error or holds
                elif holds:
                    rows.add(tuple(g[v] for v in free))
            union = () in rows if not (hidden or free) else frozenset(rows)
            assert _outcome(lambda: eval_atom(a, {}, seeded)) == (error or union)


# Each built-in comparison's rows over reals {-1, 0, 1}, as (x, y) lexeme pairs.
COMPARISON_ROWS = {
    "leq": "-1 -1, -1 0, -1 1, 0 0, 0 1, 1 1",
    "lt": "-1 0, -1 1, 0 1",
    "geq": "-1 -1, 0 -1, 0 0, 1 -1, 1 0, 1 1",
    "gt": "0 -1, 1 -1, 1 0",
    "eq": "-1 -1, 0 0, 1 1",
}


@pytest.mark.parametrize("evaluator", sorted(COMPARISON_ROWS))
def test_every_builtin_comparison_holds_at_its_hand_written_rows(evaluator):
    """`cmp(x, y)` over the reals {-1, 0, 1} holds exactly at the rows of
    `COMPARISON_ROWS`, on both routes at every assignment and through its
    plan."""
    ws = load_workspace("sort integers\nsort rationals\nsort reals\n"
                        "isa integers rationals\nisa rationals reals\n"
                        "extent reals = { -1, 0, 1 }\n"
                        f"builtin predicate cmp/2 : reals x reals = {evaluator}\n")
    phi = ws.parse("cmp(x:reals, y:reals)")
    x, y = free_vars(phi)
    expected = {tuple(row.split()) for row in COMPARISON_ROWS[evaluator].split(", ")}
    pool = ws.domain.valid_elements("reals")
    (world,) = ws.worlds()
    for a, b in itertools.product(pool, pool):
        held = (a.lexeme, b.lexeme) in expected
        for route in (satisfies, tarski_eval):
            assert route(world, {x: a, y: b}, phi) is held
    assert ifol.semantics.intension_plan(ws.space, phi) is not None
    (rows,) = montague_intension(ws.space, phi, ws.worlds())
    assert {(a.lexeme, b.lexeme) for a, b in rows} == expected
