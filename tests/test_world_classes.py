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
from ifol import load_workspace
from ifol.cli import run_queries
from ifol.kernel import TOP_SORT
from ifol.symmetry import movable_particulars
from ifol.syntax import And, Atom, Const, Exists, Not, Var, Variable, format_formula

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
    enumeration order, under every permutation of the particulars that keeps
    each one's sort.  Every particular of the workspace may move."""
    worlds = ws.worlds()
    names = sorted(worlds[0].relations)
    groups: dict[str, list] = {}
    for p in ws.domain.valid_elements(TOP_SORT):
        groups.setdefault(p.sort, []).append(p)
    particulars = [p for group in groups.values() for p in group]
    index = {tuple(w.relations[name] for name in names): i for i, w in enumerate(worlds)}
    firsts: list[str] = []
    reached: set[int] = set()
    for i, world in enumerate(worlds):
        if i in reached:
            continue
        firsts.append(world.label)
        for images in itertools.product(*map(itertools.permutations, groups.values())):
            swap = dict(zip(particulars, itertools.chain(*images)))
            reached.add(index[tuple(frozenset(tuple(swap[e] for e in t)
                                              for t in world.relations[name])
                                    for name in names)])
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
                        lambda world, axioms: checked.append(world) or real(world, axioms))
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
    real = ifol.workspace.cannot_raise
    monkeypatch.setattr(ifol.workspace, "cannot_raise",
                        lambda space, phi: scanned.append(phi) or real(space, phi))
    ws = load_workspace(FIXTURES / "bealer.ifol")
    report, status = run_queries(ws)
    assert status == 0 and report.count("BEALER-MONTAGUE ok (8 worlds)") == 3
    assert scanned == []


# --- differential: the same reports with every world its own class -------------

@st.composite
def _formula(draw, concepts, constants, free, depth, bound=()):
    """A formula over the unary and binary concepts: atoms take variables in
    scope or constants of the argument's sort; `exists` may range over
    truth-values and bind nothing the body uses."""
    kind = draw(st.sampled_from(["atom", "not", "and", "exists"] if depth else ["atom"]))
    if kind == "not":
        return Not(draw(_formula(concepts, constants, free, depth - 1, bound)))
    if kind == "and":
        return And(draw(_formula(concepts, constants, free, depth - 1, bound)),
                   draw(_formula(concepts, constants, free, depth - 1, bound)))
    if kind == "exists":
        sort = draw(st.sampled_from(sorted({s for _, sorts in concepts for s in sorts})
                                    + ["truth values"]))
        v = Variable(f"y{depth}", sort)
        return Exists(v, draw(_formula(concepts, constants, free, depth - 1, (*bound, v))))
    pred, sorts = draw(st.sampled_from(concepts))
    args = []
    for sort in sorts:
        options = [Var(v) for v in (*bound, *free) if v.sort == sort]
        options += [Const(lexeme) for lexeme in constants.get(sort, ())]
        args.append(draw(st.sampled_from(options)))
    return Atom(pred, tuple(args))


@st.composite
def symmetric_workspaces(draw) -> str:
    """2-4 particulars in each of 1-2 sorts, unary concepts with IS-A edges, a
    binary concept, constants naming some particulars, and one query with a
    built-in predicate or a declared function.  At most 2^8 candidate worlds."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    sorts = [f"s{i}" for i in range(len(sizes))]
    lines = ["sort k", "particular o : k"]
    members: dict[str, list[str]] = {"k": ["o"]}
    for sort, size in zip(sorts, sizes):
        members[sort] = [f"{sort}{chr(ord('a') + j)}" for j in range(size)]
        lines += [f"sort {sort}", f"extent {sort} = {{ {', '.join(members[sort])} }}"]
    free = [Variable(f"x{sort}", sort) for sort in members]
    builtin = draw(st.booleans())
    if builtin:
        # a built-in that raises on the non-numeric reals u0 and u1 unless the
        # concept atom before it short-circuits: it holds where rr = {u0} and
        # raises in the isomorphic world where rr = {u1}
        budget = 8 - 3
        extra = ["sort reals", "extent reals = { 1 }", "particular u0 : reals",
                 "particular u1 : reals", "concept rr-hood arity 1 sorts reals predicate rr",
                 "builtin predicate leq/2 : reals x reals = leq",
                 "query consequence (exists y:reals . rr(y) & ~rr(1))"
                 " -> exists z:reals . rr(z) | leq(z, 0)"]
    else:
        budget = 8 - 1
        extra = ["concept kk-hood arity 1 sorts k predicate kk",
                 f"function f/1 : {sorts[0]} -> k"]
    # one bit per tuple of a concept's pool: the binary concept takes 1 or
    # the size of the last sort, the unary ones what is left
    binary_sorts = draw(st.sampled_from([("k", "k"), ("k", sorts[-1])]))
    if len(members[binary_sorts[1]]) + len(members[sorts[0]]) > budget:
        binary_sorts = ("k", "k")
    budget -= len(members[binary_sorts[1]])
    lines.append(f"concept r-ness arity 2 sorts {' '.join(binary_sorts)} predicate r")
    unary = [(f"p{i}", draw(st.sampled_from(sorts))) for i in range(draw(st.integers(1, 3)))]
    while len(unary) > 1 and sum(len(members[s]) for _, s in unary) > budget:
        unary.pop()
    if sum(len(members[s]) for _, s in unary) > budget:
        unary = [("p0", sorts[0])]
    for pred, sort in unary:
        lines.append(f"concept {pred}-hood arity 1 sorts {sort} predicate {pred}")
    for (sub, _), (sup, _) in zip(unary, unary[1:]):
        if draw(st.booleans()):
            lines.append(f"isa {sub}-hood {sup}-hood")
    concepts = [(pred, (sort,)) for pred, sort in unary] + [("r", binary_sorts)]
    named = {sort: draw(st.lists(st.sampled_from(members[sort]), max_size=1, unique=True))
             for sort in members}

    def formula(depth: int) -> str:
        return format_formula(draw(_formula(concepts, named, free, depth)))

    for _ in range(draw(st.integers(0, 1))):
        lines.append(f"axiom {formula(2)}")
    for kind in draw(st.lists(st.sampled_from(["consequence", "intension", "bealer-montague"]),
                              min_size=2, max_size=4)):
        lines.append(f"query {kind} {formula(3)}")
    if not builtin:
        extra.append(f"query intension kk(f(x{sorts[0]}:{sorts[0]})) & {formula(1)}")
    return "\n".join(draw(st.permutations(lines + extra))) + "\n"


@settings(max_examples=60, deadline=None)
@given(symmetric_workspaces())
def test_reports_equal_those_of_the_walk_over_every_world(text):
    with_classes = run_queries(load_workspace(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ifol.workspace, "movable_particulars", lambda space, formulas: ())
        every_world = run_queries(load_workspace(text))
    assert with_classes == every_world
