"""World enumeration walks only the combinations that keep every IS-A edge,
yet gives the worlds of the filtered candidate product, in its order and
under its labels, and `max_worlds` still bounds the whole product."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ifol import load_workspace
from ifol.errors import ExplosionGuard
from ifol.semantics import Structure
from ifol.worlds import enumerate_worlds

from conftest import load_bench
from strategies import isa_workspaces


def _tuples(space: Structure, sorts) -> list[tuple]:
    if "nested sentence" in sorts:
        return []
    return list(itertools.product(*(space.domain.valid_elements(s) for s in sorts)))


def _graph_sets(space: Structure) -> list[tuple[str, list[dict]]]:
    """Every total graph of every declared function, by symbol."""
    signature = space.signature
    out = []
    for symbol in sorted(signature.functions):
        if symbol not in signature.builtin_functions:
            args, ret = signature.functions[symbol]
            arg_pool = _tuples(space, args)
            values = itertools.product(space.domain.valid_elements(ret), repeat=len(arg_pool))
            out.append((symbol, [dict(zip(arg_pool, row)) for row in values]))
    return out


def candidate_count(space: Structure) -> int:
    pools = [_tuples(space, c.attribute_sorts) for c in space.registry.by_predicate.values()]
    return (math.prod(2 ** len(pool) for pool in pools)
            * math.prod(max(len(graphs), 1) for _, graphs in _graph_sets(space)))


def product_worlds(space: Structure, max_worlds: int) -> list[tuple[list, dict]]:
    """By brute force: every subset of every concept's pool (ascending masks,
    bit i for the pool's i-th tuple, the first concept outermost) times every
    combination of function graphs, kept when every direct IS-A edge whose
    sides both have a unary extent, enumerated or finite, holds.  Each world
    is its relations, as items in registration order, and its graphs."""
    if candidate_count(space) > max_worlds:
        raise ExplosionGuard(f"more than {max_worlds} candidate worlds")
    domain = space.domain
    concepts = list(space.registry.by_predicate.values())
    pools = [_tuples(space, c.attribute_sorts) for c in concepts]
    graph_sets = _graph_sets(space)

    def extent(name: str, relations: dict):
        concept = domain.concepts.get(name)
        if concept is None or concept.arity != 1:
            return None
        if name in relations:
            return {t[0] for t in relations[name]}
        if domain.sort_is_finite(name):
            return set(domain.valid_elements(name))
        return None

    out = []
    for masks in itertools.product(*(range(2 ** len(pool)) for pool in pools)):
        relations = {c.name: frozenset(t for i, t in enumerate(pool) if mask >> i & 1)
                     for c, pool, mask in zip(concepts, pools, masks)}
        sides = [(extent(sub, relations), extent(sup, relations))
                 for sub, sup in domain.lattice.isa_edges]
        if all(low is None or high is None or low <= high for low, high in sides):
            for graphs in itertools.product(*(graphs for _, graphs in graph_sets)):
                out.append((list(relations.items()),
                            dict(zip((symbol for symbol, _ in graph_sets), graphs))))
    return out


def _outcome(enumerate_, space: Structure, max_worlds: int):
    try:
        return enumerate_(space, max_worlds)
    except ExplosionGuard as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(isa_workspaces())
def test_enumeration_equals_the_filtered_candidate_product(text):
    """Same worlds, same order, same labels; at one candidate below the
    product both raise the guard, at the product both enumerate."""
    space = load_workspace(text).space
    n = candidate_count(space)
    for bound in (n - 1, n):
        expected = _outcome(product_worlds, space, bound)
        worlds = _outcome(enumerate_worlds, space, bound)
        if isinstance(expected, str):
            assert worlds == expected == f"more than {n - 1} candidate worlds"
            continue
        assert [w.label for w in worlds] == [f"w{i}" for i in range(len(expected))]
        assert [(list(w.relations.items()), w.functions) for w in worlds] == expected


@settings(max_examples=80, deadline=None)
@given(isa_workspaces(), st.data())
def test_the_enumeration_is_a_sequence_that_builds_each_world_once(text, data):
    """The enumeration is sized; indexes count from either end and raise
    `IndexError` past them; an index read twice, by index, slice or
    iteration, gives one object; and iteration, after any reads, gives the
    worlds of the filtered product in candidate order, function graphs
    (k of them per combination of masks: 1 or 4 here) innermost.  The
    enumeration holds one mask column per registered concept, and each
    world's masks are its index read across them."""
    space = load_workspace(text).space
    expected = product_worlds(space, 2 ** 20)
    worlds = enumerate_worlds(space)
    n = len(worlds)
    assert n == len(expected)
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            worlds[past]
    read = {}
    for i in data.draw(st.lists(st.integers(-n, n - 1), max_size=6)) if n else ():
        world = worlds[i]
        assert read.setdefault(i % n, world) is world and worlds[i % n - n] is world
    picked = {}
    for part in (slice(None, 2), slice(None, None, 97), slice(None, 16)):
        for i, world in zip(range(*part.indices(n)), worlds[part]):
            assert picked.setdefault(i, world) is world
    listed = list(worlds)
    assert all(listed[i] is world for i, world in {**read, **picked}.items())
    assert all(a is b for a, b in zip(worlds, listed))
    assert [w.label for w in listed] == [f"w{i}" for i in range(n)]
    assert [(list(w.relations.items()), w.functions) for w in listed] == expected
    columns = worlds.columns
    assert len(columns) == len(space.registry.by_predicate)
    assert all(len(column) == n for column in columns)
    assert all(w.masks == tuple(column[i] for column in columns) for i, w in enumerate(listed))


def test_the_enumeration_holds_its_masks_as_columns():
    """The unary-worlds text (n = 8): 6,561 worlds held as two mask columns
    and a lead column, with no tuple of masks per world, peak under 0.35 MB
    of Python allocations across the enumeration."""
    (unary,) = load_bench("workloads").unary_worlds(1, n=8).files
    ws = load_workspace(unary.text)
    tracemalloc.start()
    try:
        worlds = ws.worlds()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(worlds), len(worlds.columns)) == (6561, 2)
    assert peak < 0.35 * 2 ** 20


def test_edges_across_pools_and_to_finite_sorts():
    """s = {a, c} with its subsort t = {b, d}; p and r over s, q and v over
    t.  t ⊑ q fills q; p ⊑ q maps p's bits onto q's pool, where a and c have
    no place, so p takes a subset of {b, d} (4 ways); r ⊑ t keeps r within
    {b, d}, and v ⊑ r maps r's mask back onto v's pool (9 ways for r and v);
    p ⊑ reals and the binary k-ness constrain nothing; f has 4 graphs."""
    space = load_workspace("sort s\n"
                           "extent s = { a, c }\n"
                           "sort t isa s\n"
                           "extent t = { b, d }\n"
                           "sort reals\n"
                           "concept p-hood arity 1 sorts s predicate p\n"
                           "concept q-hood arity 1 sorts t predicate q\n"
                           "concept r-hood arity 1 sorts s predicate r\n"
                           "concept v-hood arity 1 sorts t predicate v\n"
                           "concept k-ness arity 2 sorts t nested-sentence predicate k\n"
                           "isa t q-hood\n"
                           "isa p-hood q-hood\n"
                           "isa r-hood t\n"
                           "isa v-hood r-hood\n"
                           "isa p-hood reals\n"
                           "isa v-hood k-ness\n"
                           "function f/1 : t -> t\n").space
    worlds = enumerate_worlds(space)
    assert len(worlds) == 4 * 9 * 4
    assert [(list(w.relations.items()), w.functions) for w in worlds] \
        == product_worlds(space, 2 ** 20)


@pytest.mark.parametrize("edge", ["isa s q-hood", "isa t z-hood", "isa q-hood z-hood"])
def test_an_edge_no_world_keeps(edge):
    """s's member a has no place in q's pool over t; z-hood's pool is empty,
    so no member of t, and no member of q once q holds one, fits in it."""
    text = ("sort s\n"
            "extent s = { a }\n"
            "sort t isa s\n"
            "extent t = { b }\n"
            "concept q-hood arity 1 sorts t predicate q\n"
            "concept z-hood arity 1 sorts nested-sentence predicate z\n"
            f"{edge}\n")
    space = load_workspace(text).space
    expected = product_worlds(space, 2 ** 20)
    assert [(list(w.relations.items()), w.functions) for w in enumerate_worlds(space)] \
        == expected
    assert len(expected) == (1 if edge == "isa q-hood z-hood" else 0)
