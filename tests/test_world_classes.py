"""Isomorphic worlds: queries that cannot raise are evaluated once per class
of worlds that differ only by a swap of interchangeable particulars, and
every report stays the one a walk over every world gives."""

from __future__ import annotations

import itertools
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ifol.semantics
import ifol.workspace
import ifol.worlds
from ifol import load_workspace
from ifol.cli import run_queries
from ifol.worlds import movable_particulars

from strategies import isa_workspaces, symmetric_workspaces

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def unary_worlds_text(n: int) -> str:
    """One sort of n particulars with unary p-hood ⊑ q-hood: 3^n worlds."""
    names = ", ".join(f"e{i}" for i in range(n))
    return ("sort thing\n"
            f"extent thing = {{ {names} }}\n"
            "concept p-hood arity 1 sorts thing predicate p\n"
            "concept q-hood arity 1 sorts thing predicate q\n"
            "isa p-hood q-hood\n"
            "axiom exists x:thing . p(x)\n"
            "query consequence exists y:thing . q(y)\n")


def first_of_each_orbit(ws) -> list[str]:
    """By brute force: the label of the first world of each orbit, in
    enumeration order, under every permutation of the particulars that maps
    each group of `movable_particulars` onto itself."""
    worlds = ws.worlds()
    groups = movable_particulars(ws.space, [phi for _, phi in ws.all_formulas()])
    particulars = [p for group in groups for p in group]

    def image(world, swap) -> tuple:
        relations = tuple(frozenset(tuple(swap.get(e, e) for e in t) for t in rel)
                          for _, rel in sorted(world.relations.items()))
        graphs = tuple(frozenset(graph.items()) for _, graph in sorted(world.functions.items()))
        return relations, graphs

    index = {image(w, {}): i for i, w in enumerate(worlds)}
    firsts: list[str] = []
    reached: set[int] = set()
    for i, world in enumerate(worlds):
        if i in reached:
            continue
        firsts.append(world.label)
        for images in itertools.product(*map(itertools.permutations, groups)):
            reached.add(index[image(world, dict(zip(particulars, itertools.chain(*images))))])
    return firsts


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unary_worlds_fall_into_one_class_per_signature_multiset(n, monkeypatch):
    """Each particular is in neither relation, in q only or in both, so a
    class is a multiset of n of those 3 signatures: C(n+2, 2) classes, each
    represented by the first of its worlds that a brute-force permutation of
    the particulars reaches.  A consequence that holds checks the axiom once
    per representative."""
    ws = load_workspace(unary_worlds_text(n))
    reps = ws.representatives([*ws.axioms, ws.queries[0].formula])
    assert len(ws.worlds()) == 3 ** n
    assert len(reps) == comb(n + 2, 2)
    assert [w.label for w in reps] == first_of_each_orbit(ws)
    groups = movable_particulars(ws.space, [phi for _, phi in ws.all_formulas()])
    assert [len(group) for group in groups] == [n]

    checked = []
    real = ifol.semantics.is_model_of
    monkeypatch.setattr(ifol.semantics, "is_model_of",
                        lambda world, *rest: checked.append(world) or real(world, *rest))
    assert run_queries(ws) == ("CONSEQUENCE yes\n", 0)
    assert checked == list(reps)


def test_each_group_keeps_the_first_world_of_each_orbit():
    """a, b, c of s and d, e of its subsort t move in two groups under p and r
    over s and q ⊑ r over t.  Each of a, b, c is in p, r, both or neither; each
    of d, e has one of the 6 memberships with q inside r: C(6, 3) * C(7, 2) =
    420 classes of 4^3 * 6^2 = 2,304 worlds.  Unlike one group under p ⊑ q,
    this tells a first world apart from one found with the concepts read in
    another order."""
    ws = load_workspace("sort s\n"
                        "extent s = { a, b, c }\n"
                        "sort t isa s\n"
                        "extent t = { d, e }\n"
                        "concept p-hood arity 1 sorts s predicate p\n"
                        "concept q-hood arity 1 sorts t predicate q\n"
                        "concept r-hood arity 1 sorts s predicate r\n"
                        "isa q-hood r-hood\n"
                        "query consequence exists y:s . r(y) | ~r(y)\n")
    reps = ws.representatives([ws.queries[0].formula])
    assert len(ws.worlds()) == 2304
    assert len(reps) == 420
    assert [w.label for w in reps] == first_of_each_orbit(ws)


def test_named_and_pinned_particulars_stay_fixed():
    """A constant pins the particular it names, a binary concept or a declared
    function pins its pools, and a lone particular has nothing to swap with."""
    ws = load_workspace(
        "sort s\nsort k\nsort m\nsort lone\n"
        "extent s = { a, b, c }\n"
        "extent k = { d, e }\n"
        "extent m = { g, h }\n"
        "particular z : lone\n"
        "concept p-hood arity 1 sorts s predicate p\n"
        "concept r-ness arity 2 sorts k k predicate r\n"
        "function f/1 : m -> m\n"
        "query consequence p(a) | ~p(a)\n")
    ws.worlds()
    groups = movable_particulars(ws.space, [phi for _, phi in ws.all_formulas()])
    assert [[p.lexeme for p in group] for group in groups] == [["b", "c"]]


def test_a_query_that_may_raise_walks_every_world():
    ws = load_workspace(unary_worlds_text(3)
                        + "sort integers\nextent integers = { 0 }\n"
                        "builtin predicate lt/2 : integers x integers = lt\n"
                        "query consequence lt(0, 1) & exists y:thing . q(y)\n")
    assert len(ws.representatives([ws.queries[0].formula])) == 10
    assert ws.representatives([ws.queries[1].formula]) is ws.worlds()


def test_no_interchangeable_particulars_scan_no_formula(monkeypatch):
    """With no particulars to swap, a query walks every world without its
    formulas being scanned for the fragment that cannot raise."""
    scanned = []
    real = ifol.workspace.intension_plan
    monkeypatch.setattr(ifol.workspace, "intension_plan",
                        lambda space, phi: scanned.append(phi) or real(space, phi))
    ws = load_workspace(FIXTURES / "bealer.ifol")
    report, status = run_queries(ws)
    assert status == 0 and report.count("BEALER-MONTAGUE ok (8 worlds)") == 3
    assert scanned == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(symmetric_workspaces(), isa_workspaces()))
def test_the_walk_marks_the_first_world_of_each_orbit(text):
    """Generated workspaces with named, pinned and movable particulars in one
    or two groups, IS-A edges, function graphs and concepts over empty pools:
    the worlds the mask walk marks as leading are, in order, the first world
    of each orbit that a brute-force permutation of the movable particulars
    finds."""
    ws = load_workspace(text)
    worlds = ws.worlds()
    assert [w.label for w in itertools.compress(worlds, worlds.leads)] == first_of_each_orbit(ws)


# --- the representatives: a view of the leading worlds --------------------------

def _leaders_are_the_leading_worlds(worlds) -> None:
    """`worlds.leaders()` holds, in order, the worlds whose lead flag is
    set: the i-th has the label, masks and graphs of the i-th of them,
    whether a fresh view builds it by index or in bulk."""
    reps = worlds.leaders()
    assert isinstance(reps, ifol.semantics.Worlds) and len(reps) == sum(worlds.leads)
    leading = list(itertools.compress(worlds, worlds.leads))
    for view in ([reps[i] for i in range(len(reps))], list(worlds.leaders())):
        assert [(w.label, w.masks) for w in view] == [(w.label, w.masks) for w in leading]
        assert all(w.functions is lead.functions for w, lead in zip(view, leading))


@settings(max_examples=40, deadline=None)
@given(st.one_of(symmetric_workspaces(), isa_workspaces()))
def test_the_leaders_view_holds_the_leading_worlds(text):
    _leaders_are_the_leading_worlds(load_workspace(text).worlds())


def test_the_leaders_view_takes_graphs_by_enumeration_index():
    """a, b, c move and f's 4 graphs pin g and h: 8 masks of p times 4
    graph combinations, of which the 4 classes of p lead, 16 worlds.  The
    view's worlds take their labels and graphs from their enumeration
    index, also where the leading worlds do not come in runs of 4, so that
    a world's place in the view and in the enumeration differ mod 4."""
    ws = load_workspace("sort s\n"
                        "extent s = { a, b, c }\n"
                        "sort m\n"
                        "extent m = { g, h }\n"
                        "concept p-hood arity 1 sorts s predicate p\n"
                        "function f/1 : m -> m\n"
                        "query consequence exists x:s . p(x) | ~p(x)\n")
    worlds = ws.worlds()
    reps = ws.representatives([ws.queries[0].formula])
    assert (len(worlds), len(reps), sum(worlds.leads)) == (32, 16, 16)
    assert isinstance(reps, ifol.semantics.Worlds)
    _leaders_are_the_leading_worlds(worlds)
    every_third = [i % 3 == 1 for i in range(len(worlds))]
    _leaders_are_the_leading_worlds(ifol.semantics.Worlds(
        ws.space, worlds.columns, every_third, worlds.functions, worlds.decoders, worlds.stamp))


# --- differential: the same reports with every world its own class -------------

@settings(max_examples=60, deadline=None)
@given(symmetric_workspaces())
def test_reports_equal_those_of_the_walk_over_every_world(text):
    with_classes = run_queries(load_workspace(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ifol.worlds, "movable_particulars", lambda space, formulas: ())
        every_world = run_queries(load_workspace(text))
    assert with_classes == every_world
