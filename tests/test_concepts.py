"""Predicate-concept bijection, canonical subconcepts, trees, interpretation."""

from __future__ import annotations

import itertools

import pytest

from ifol import (
    Atom,
    ConceptRef,
    Const,
    Intension,
    TRUTH,
    TOP,
    Var,
    Variable,
    Workspace,
)
from ifol.errors import (
    ArityMismatch,
    DuplicatePhrase,
    EmptyAssignment,
    FullAssignment,
    InfiniteSortExtent,
    SortViolation,
    UnregisteredPredicate,
)

from conftest import animals_concept_ws, arithmetic_ws, pets_ws


def count_nodes(node) -> int:
    return 1 + sum(count_nodes(c) for c in node.children)


def tree_names(node, depth=0):
    yield node.concept.name, depth
    for child in node.children:
        yield from tree_names(child, depth + 1)


def test_register_predicate_concept(animals):
    concept = animals.registry.concept_of("animal_of")
    assert concept.name == "animal"
    assert concept.arity == 3
    assert animals.registry.atom_pattern(concept) == ("animal_of", {})
    assert "animal" in animals.domain.lattice


def test_register_duplicate_phrase():
    ws = pets_ws()
    ws.signature.declare_predicate("p2", ("cat",), ws.domain.lattice)
    with pytest.raises(DuplicatePhrase):
        ws.registry.register_predicate_concept("p2", "purring", ("cat",))


def test_register_arity_mismatch():
    ws = pets_ws()
    ws.signature.declare_predicate("p3", ("cat",), ws.domain.lattice)
    with pytest.raises(ArityMismatch):
        ws.registry.register_predicate_concept("p3", "threeish", ("cat", "cat"))


def breasts(ws):
    return ws.domain.lookup("with breasts")


def hairy(ws):
    return ws.domain.lookup("hairy")


def test_canonical_subconcept_name_and_layer(animals):
    sub = animals.registry.canonical_subconcept("animal_of", {0: breasts(animals)})
    assert sub.name == "animal with breasts"
    assert sub.arity == 2
    assert sub.attribute_sorts == ("hairness", "age-kind")


def test_canonical_subconcept_orders_values_by_variable(animals):
    sub = animals.registry.canonical_subconcept(
        "animal_of", {1: hairy(animals), 0: breasts(animals)})
    assert sub.name == "animal with breasts hairy"
    assert "animal hairy with breasts" not in animals.domain.concepts


def test_canonical_subconcept_idempotent_and_binding_order_insensitive(animals):
    a = animals.registry.canonical_subconcept("animal_of", {0: breasts(animals)})
    b = animals.registry.canonical_subconcept("animal_of", {0: breasts(animals)})
    assert a is b
    two_a = animals.registry.canonical_subconcept(
        "animal_of", dict([(0, breasts(animals)), (1, hairy(animals))]))
    two_b = animals.registry.canonical_subconcept(
        "animal_of", dict([(1, hairy(animals)), (0, breasts(animals))]))
    assert two_a is two_b


def test_canonical_subconcept_errors(animals):
    with pytest.raises(EmptyAssignment):
        animals.registry.canonical_subconcept("animal_of", {})
    full = {0: breasts(animals), 1: hairy(animals), 2: animals.domain.lookup("young")}
    with pytest.raises(FullAssignment):
        animals.registry.canonical_subconcept("animal_of", full)
    with pytest.raises(SortViolation):
        animals.registry.canonical_subconcept("animal_of", {0: hairy(animals)})
    with pytest.raises(UnregisteredPredicate):
        animals.registry.canonical_subconcept("ghost", {0: breasts(animals)})


def test_canonical_subconcept_is_below_root(animals):
    sub = animals.registry.canonical_subconcept(
        "animal_of", {0: breasts(animals), 1: hairy(animals)})
    pred, fixed = animals.registry.atom_pattern(sub)
    assert animals.registry.concept_of(pred).name == "animal"
    assert fixed == {0: "with breasts", 1: "hairy"}


def test_atom_pattern_roundtrip_all_partials(animals):
    root = animals.registry.concept_of("animal_of")
    pools = [animals.domain.valid_elements(s) for s in root.attribute_sorts]
    for r in range(1, root.arity):
        for positions in itertools.combinations(range(root.arity), r):
            for values in itertools.product(*(pools[i] for i in positions)):
                partial = dict(zip(positions, values))
                concept = animals.registry.canonical_subconcept("animal_of", partial)
                pred, fixed = animals.registry.atom_pattern(concept)
                assert pred == "animal_of"
                assert fixed == {pos: v.lexeme for pos, v in partial.items()}


def test_subconcept_tree_two_variable_counts():
    ws = animals_concept_ws(arity=2)
    tree = ws.registry.subconcept_tree("animal_of")
    # root + four single-binding subconcepts; a full assignment is a
    # proposition, not a subconcept, so depth stops at the unary leaves
    assert count_nodes(tree) == 5
    assert all(len(child.children) == 0 for child in tree.children)


def test_subconcept_tree_depth_two_has_canonical_name(animals):
    names = dict(tree_names(animals.registry.subconcept_tree("animal_of")))
    assert names["animal with breasts hairy"] == 2
    assert "animal hairy with breasts" not in names


def test_subconcept_tree_unary_is_leaf():
    ws = pets_ws()
    tree = ws.registry.subconcept_tree("purrs")
    assert count_nodes(tree) == 1


def test_subconcept_tree_infinite_extent_guard():
    ws = arithmetic_ws()
    ws.register_concept("bounded below", ("reals",), "bounded")
    with pytest.raises(InfiniteSortExtent):
        ws.registry.subconcept_tree("bounded")


def test_interpretation_top_is_truth():
    ws = Workspace()
    assert ws.interp.of_formula(TOP) is ws.interp.truth
    assert ws.interp.truth is TRUTH
    assert TRUTH.arity == 0


def test_interpretation_layers(grid_arith):
    ws = grid_arith
    phi = ws.parse("leq2(x:reals^2 + y:reals^2 + z:reals^2, 4)")
    concept = ws.interp.of_formula(phi)
    assert isinstance(concept, Intension) and concept.arity == 3
    sentence = ws.parse("leq2(1, 4)")
    prop = ws.interp.of_formula(sentence)
    assert isinstance(prop, Intension) and prop.arity == 0


def test_interpretation_constants(pets):
    el = pets.interp.of_constant("tom")
    assert el.lexeme == "tom" and el.sort == "cat"


def test_interpretation_proper_name_particular():
    ws = Workspace()
    ws.declare_sort("person")
    ws.domain.declare_particular("Zoran Majkic", "person")
    el = ws.interp.of_constant("Zoran Majkic")
    assert el.lexeme == "Zoran Majkic" and el.sort == "person"


def test_interpretation_ground_abstraction_term(pets):
    from ifol import Abstracted
    closed = pets.parse("exists x:cat . purrs(x)")
    prop = pets.interp.of_ground_term(Abstracted(closed, (), ()))
    assert prop.arity == 0
    again = pets.interp.of_ground_term(Abstracted(closed, (), ()))
    assert prop is again


def test_interpretation_registered_atom_routes_to_concept(pets):
    x = Variable("x", "cat")
    el = pets.interp.of_formula(Atom("purrs", (Var(x),)))
    assert isinstance(el, ConceptRef)
    assert el.concept is pets.registry.concept_of("purrs")


def test_interpretation_partial_atom_routes_to_subconcept(animals):
    y2 = Variable("y2", "hairness")
    y3 = Variable("y3", "age-kind")
    atom = Atom("animal_of", (Const("with breasts"), Var(y2), Var(y3)))
    el = animals.interp.of_formula(atom)
    assert isinstance(el, ConceptRef)
    assert el.concept.name == "animal with breasts"


def test_interpretation_repeated_variable_is_derived(pets):
    x = Variable("x", "cat")
    ws = pets
    ws.signature.declare_predicate("likes", ("cat", "cat"), ws.domain.lattice)
    ws.registry.register_predicate_concept("likes", "liking", ("cat", "cat"))
    diag = ws.interp.of_formula(Atom("likes", (Var(x), Var(x))))
    assert isinstance(diag, Intension) and diag.arity == 1


def test_interpretation_deterministic(grid_arith):
    ws = grid_arith
    a = ws.interp.of_formula(ws.parse("leq2(x:reals, 4)"))
    b = ws.interp.of_formula(ws.parse("leq2(x:reals, 4)"))
    assert a is b
