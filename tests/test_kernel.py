"""Sort lattice, domain elements, and dynamic-sort bookkeeping."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ifol import (
    BOTTOM_SORT,
    ConceptRef,
    Domain,
    NESTED_SENTENCE_SORT,
    SortLattice,
    TOP_SORT,
    Workspace,
    load_workspace,
)
from ifol.errors import (
    CycleDetected,
    DuplicateName,
    InfiniteExtent,
    NestedSentenceSortHasNoElements,
    NotARelationalConcept,
    UnknownAttributeSort,
    UnknownSort,
    ZeroArityNonProposition,
)

from conftest import FIXTURES, arithmetic_ws, pets_ws


def chain_domain() -> Domain:
    d = Domain()
    for s in ("naturals", "integers", "rationals", "reals"):
        d.declare_sort(s, 1, (s,))
    d.declare_isa("naturals", "integers")
    d.declare_isa("integers", "rationals")
    d.declare_isa("rationals", "reals")
    return d


def test_reserved_sorts_always_present():
    d = Domain()
    for name in (TOP_SORT, BOTTOM_SORT, "truth values", NESTED_SENTENCE_SORT):
        assert name in d.lattice


def test_declare_sort_registers_concept_and_node():
    d = Domain()
    d.declare_sort("kind-of-animals", 1, ("kind-of-animals",))
    d.declare_sort("hairness", 1, ("hairness",))
    c = d.declare_sort("animal", 2, ("kind-of-animals", "hairness"))
    assert c.arity == 2
    assert "animal" in d.lattice


def test_declare_sort_rejects_reserved_name():
    d = Domain()
    with pytest.raises(DuplicateName):
        d.declare_sort(TOP_SORT, 1, (TOP_SORT,))


def test_declare_sort_rejects_zero_arity():
    d = Domain()
    with pytest.raises(ZeroArityNonProposition):
        d.declare_sort("claim", 0, ())


def test_declare_sort_unknown_attribute():
    d = Domain()
    with pytest.raises(UnknownAttributeSort):
        d.declare_sort("animal", 1, ("missing",))
    with pytest.raises(UnknownAttributeSort):
        d.declare_sort("odd", 1, (BOTTOM_SORT,))


def test_self_sorted_builtin_concept():
    d = Domain()
    c = d.declare_sort("reals", 1, ("reals",))
    assert c.attribute_sorts == ("reals",)


def test_declare_isa_and_subsort_chain():
    d = chain_domain()
    assert d.is_subsort("integers", "reals")
    assert d.is_subsort("naturals", "rationals")
    assert not d.is_subsort("reals", "integers")


def test_is_subsort_reflexive_and_incomparable():
    ws = pets_ws()
    assert ws.domain.is_subsort("cat", "cat")
    assert ws.domain.is_subsort("cat", "animal")
    assert not ws.domain.is_subsort("cat", "dog")


def test_declare_isa_cycle_detected():
    ws = pets_ws()
    with pytest.raises(CycleDetected):
        ws.domain.declare_isa("animal", "cat")


def test_declare_isa_unknown_sort():
    d = Domain()
    with pytest.raises(UnknownSort):
        d.declare_isa("ghost", TOP_SORT)


def test_nested_sentence_excluded_from_edges():
    d = Domain()
    d.declare_sort("s", 1, ("s",))
    with pytest.raises(UnknownSort):
        d.declare_isa("s", NESTED_SENTENCE_SORT)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"s{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((names[i], names[j]))  # i -> j keeps it acyclic
    return names, edges


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_partial_order_laws(poset):
    names, edges = poset
    d = Domain()
    for name in names:
        d.declare_sort(name, 1, (name,))
    for sub, sup in edges:
        d.declare_isa(sub, sup)
    sorts = list(d.lattice.nodes)
    for s in sorts:
        assert d.is_subsort(s, s)
        assert d.is_subsort(BOTTOM_SORT, s)
        assert d.is_subsort(s, TOP_SORT)
    for a, b in itertools.product(sorts, repeat=2):
        if a != b and d.is_subsort(a, b) and d.is_subsort(b, a):
            pytest.fail(f"antisymmetry violated: {a} <=> {b}")
    for a, b, c in itertools.product(sorts, repeat=3):
        if d.is_subsort(a, b) and d.is_subsort(b, c):
            assert d.is_subsort(a, c)


def test_partial_order_laws_at_scale():
    """Exhaustive law check on a deterministic 28-sort layered lattice."""
    d = Domain()
    names = [f"n{i}" for i in range(28)]
    for name in names:
        d.declare_sort(name, 1, (name,))
    rng = random.Random(11)
    for i, name in enumerate(names):
        for sup in rng.sample(names[i + 1:], k=min(2, len(names) - i - 1)):
            d.declare_isa(name, sup)  # edges point up the index order: acyclic
    sorts = d.lattice.nodes
    assert len(sorts) >= 32
    for s in sorts:
        assert d.is_subsort(s, s)
        assert d.is_subsort(BOTTOM_SORT, s) and d.is_subsort(s, TOP_SORT)
    for a, b in itertools.combinations(sorts, 2):
        assert not (d.is_subsort(a, b) and d.is_subsort(b, a))
    up = {s: d.lattice.supersorts(s) for s in sorts}
    for a in sorts:
        for b in up[a]:
            assert up[b] <= up[a]  # transitivity via closure containment


def reference_supersorts(lattice: SortLattice, s: str) -> frozenset[str]:
    """Plain BFS over the IS-A edges, plus the two bounds."""
    if s == BOTTOM_SORT:
        return frozenset(lattice.nodes)
    seen, frontier = {s, TOP_SORT}, [s]
    while frontier:
        n = frontier.pop()
        for sub, sup in lattice.isa_edges:
            if sub == n and sup not in seen:
                seen.add(sup)
                frontier.append(sup)
    return frozenset(seen)


@st.composite
def lattice_steps(draw):
    """Declarations (None) interleaved with edges between node indices, taken
    modulo the node count when applied; edges may close cycles or touch the
    reserved sorts."""
    pair = st.tuples(st.integers(0, 63), st.integers(0, 63))
    return draw(st.lists(st.one_of(st.none(), pair), max_size=60))


@settings(max_examples=100, deadline=None)
@given(lattice_steps())
def test_incremental_closure_matches_reference_bfs(steps):
    lat = SortLattice()
    declared = 0
    for step in steps:
        if step is None:
            if declared < 26:
                lat.declare(f"s{declared}")
                declared += 1
        else:
            nodes = lat.nodes
            sub, sup = nodes[step[0] % len(nodes)], nodes[step[1] % len(nodes)]
            if NESTED_SENTENCE_SORT in (sub, sup):
                with pytest.raises(UnknownSort):
                    lat.add_edge(sub, sup)
            elif sub != sup and sub in reference_supersorts(lat, sup):
                with pytest.raises(CycleDetected):
                    lat.add_edge(sub, sup)
            else:
                lat.add_edge(sub, sup)
        for s in lat.nodes:
            assert lat.supersorts(s) == reference_supersorts(lat, s), s


def test_valid_elements_filters_by_dynamic_sort():
    ws = pets_ws()
    animal = {p.lexeme for p in ws.domain.valid_elements("animal")}
    assert animal == {"tom", "rex"}
    cat = {p.lexeme for p in ws.domain.valid_elements("cat")}
    assert cat == {"tom"}


def test_valid_elements_bottom_empty():
    ws = pets_ws()
    assert ws.domain.valid_elements(BOTTOM_SORT) == ()


def test_valid_elements_numeric_dynamic_sorts():
    ws = arithmetic_ws(grid=True)
    rationals = ws.domain.valid_elements("rationals")
    assert {p.sort for p in rationals} == {"integers"}
    assert {p.lexeme for p in ws.domain.valid_elements("reals")} == {"-2", "-1", "0", "1", "2"}


def test_valid_elements_errors():
    ws = arithmetic_ws()
    with pytest.raises(InfiniteExtent):
        ws.domain.valid_elements("reals")
    with pytest.raises(NestedSentenceSortHasNoElements):
        ws.domain.valid_elements(NESTED_SENTENCE_SORT)
    with pytest.raises(UnknownSort):
        ws.domain.valid_elements("ghost")


def test_valid_elements_monotone_in_subsort():
    ws = pets_ws()
    for s1, s2 in itertools.product(("cat", "dog", "animal", TOP_SORT), repeat=2):
        if ws.domain.is_subsort(s1, s2):
            e1 = set(ws.domain.valid_elements(s1))
            e2 = set(ws.domain.valid_elements(s2))
            assert e1 <= e2


def test_numeric_particular_canonicalization():
    ws = arithmetic_ws()
    two = ws.domain.lookup("2.0")
    assert two is not None and two.lexeme == "2"
    assert two.sort == "integers"
    half = ws.domain.lookup("0.5")
    assert half is not None and half.lexeme == "1/2"
    assert half.sort == "rationals"


def test_truth_values_extent_is_fixed():
    d = Domain()
    assert {p.lexeme for p in d.valid_elements("truth values")} == {"f", "t"}


def test_derived_sort_extent():
    d = Domain()
    d.declare_sort("kinds", 1, ("kinds",))
    d.declare_particular("siamese", "kinds")
    d.declare_sort("s1", 1, ("s1",))
    d.declare_sort("s2", 1, ("s2",))
    animal = d.declare_sort("animal", 2, ("s1", "s2"))
    d.declare_sort("animal-with-breasts", 2, ("s1", "s2"))
    d.declare_isa("animal-with-breasts", "animal")
    d.declare_sort("cat", 1, ("kinds",))
    d.declare_isa("cat", "animal")
    assert d.derived_sort_extent(animal) == {"animal-with-breasts", "cat siamese"}


def test_derived_sort_extent_empty_tree():
    d = Domain()
    d.declare_sort("s", 1, ("s",))
    lonely = d.declare_sort("lonely", 2, ("s", "s"))
    assert d.derived_sort_extent(lonely) == set()


def test_derived_sort_extent_requires_relational_concept():
    ws = pets_ws()
    with pytest.raises(NotARelationalConcept):
        ws.domain.derived_sort_extent(ws.domain.concepts["cat"])


def test_reified_canonical_subconcept_sits_at_the_top():
    """A canonical subconcept is no lattice node: reified, its dynamic sort is
    "everything", as for a derived concept; a declared concept keeps its own."""
    ws = load_workspace(FIXTURES / "animals.ifol")
    d = ws.domain

    def walk(node):
        yield node.concept
        for child in node.children:
            yield from walk(child)

    concepts = list(walk(ws.registry.subconcept_tree("animal_of")))
    by_name = {c.name: c for c in concepts}
    assert d.dynamic_sort(ConceptRef(by_name["animal"])) == "animal"
    assert d.dynamic_sort(ConceptRef(by_name["animal with breasts"])) == TOP_SORT
    for c in concepts:
        assert d.is_subsort(d.dynamic_sort(ConceptRef(c)), TOP_SORT), c.name


def test_verb_form_auto_extent():
    ws = Workspace()
    ws.declare_sort("verb-form")
    forms = {p.lexeme for p in ws.domain.valid_elements("verb-form")}
    assert forms == {"past", "present", "future", "gerund"}


def test_one_lexeme_is_one_object():
    """Within a domain every particular is interned by lexeme: a lookup, a
    quantifier pool, the numeric tower and built-in arithmetic all hand out
    the same object, so particulars can compare and hash by identity."""
    from ifol.semantics import eval_term
    from ifol.worlds import enumerate_worlds
    from ifol.syntax import Const, FnApp

    d = chain_domain()
    three = d.numeric_particular(3)
    assert d.declare_particular("3", "integers") is three
    assert d.numeric_particular(3) is three
    assert d.lookup("3") is three
    assert [p for p in d.valid_elements("integers") if p.lexeme == "3"][0] is three

    ws = arithmetic_ws(grid=True)
    two = ws.domain.lookup("2")
    assert ws.domain.lookup("2") is two
    assert [p for p in ws.domain.valid_elements("reals") if p.lexeme == "2"][0] is two
    world = enumerate_worlds(ws.space)[0]
    assert eval_term(FnApp("add", (Const("1"), Const("1"))), {}, world) is two
    half = eval_term(FnApp("div", (Const("1"), Const("2"))), {}, world)
    assert ws.domain.lookup("1/2") is half and ws.domain.numeric_particular(half.value) is half

    pets = pets_ws()
    tom = pets.domain.lookup("tom")
    assert pets.domain.declare_particular("tom", "cat") is tom
    assert [p for p in pets.domain.valid_elements("animal") if p.lexeme == "tom"][0] is tom
