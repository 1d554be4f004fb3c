"""Isomorphism classes of worlds: which particulars are interchangeable, and
which formulas may be decided on one world per class.

Two particulars of one sort that no formula names cannot be told apart: every
world has an isomorphic twin in which the two are swapped, and a formula that
reads only relation membership gives the twin the swapped answer.  A
consequence or Bealer-Montague query whose formulas lie in the fragment that
cannot raise (`cannot_raise`: the formulas with a relational plan, see
`ifol.plan`) is therefore decided on the first world of each
class (`representatives`) alone: a failure found in some world is found in
the first world of its class.  That world is picked by the lex-leader test
of symmetry breaking (Crawford, Ginsberg, Luks & Roy, KR 1996), one world at
a time: along each group of movable particulars, their memberships in the
unary relations never increase.  The classes are those of isomorphism
elimination in MACE-style model finders (Claessen & Sörensson, 2003),
restricted to unary relations: concepts of higher arity and function graphs
pin every particular in their pools, so they never enter the test.

An intension evaluates every world, by its relational plan where it has one:
carrying a representative's rows to its class through a bijection of
particulars cost more than one sweep over every world.  Relabelling could win
for two or more free variables over large pools, which no workload has.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .kernel import (
    Element,
    NESTED_SENTENCE_SORT,
    Particular,
    RESERVED_SORTS,
    TOP_SORT,
)
from .semantics import Structure, World, intension_plan
from .syntax import Abstracted, And, Atom, Const, Exists, FnApp, Formula, Not, Term


def cannot_raise(space: Structure, phi: Formula) -> bool:
    """Whether phi lies in the fragment whose evaluation cannot raise: whether
    it has a relational plan (`ifol.plan` defines the fragment; a formula
    whose plan would exceed the assignment budget has none, and its queries
    walk every world).  Such a formula reads only relation membership, so its
    answer in a world carries over to every isomorphic world.  Outside it, a
    lazy error meets short-circuiting: `exists y . q(y) | lt(y, 1)` can find a
    true q(y) in one world and reach the raising y first in its twin."""
    return intension_plan(space, phi) is not None


def movable_particulars(space: Structure, formulas: Iterable[Formula]
                        ) -> tuple[tuple[Particular, ...], ...]:
    """The interchangeable particulars, one group per dynamic sort with two or
    more members, each in lexeme order.  A particular is movable when it is
    not numeric, its sort is not reserved, no constant in `formulas` names it
    (abstraction bodies and function arguments included), and it is in the
    sort pool of no position of a concept of arity other than 1 and of no
    argument or return of a declared function.  Swapping two movable
    particulars of one sort keeps every sort pool, so it maps each world onto
    a world.  The pools are those `enumerate_worlds` read, so call this only
    once it succeeded."""
    domain = space.domain
    candidates: dict[str, list[Particular]] = {}
    for p in domain.valid_elements(TOP_SORT):
        if p.value is None and p.sort not in RESERVED_SORTS:
            candidates.setdefault(p.sort, []).append(p)
    if all(len(group) < 2 for group in candidates.values()):
        return ()
    named = _constant_symbols(formulas)
    pools = [c.attribute_sorts for c in space.registry.by_predicate.values() if c.arity != 1]
    pools += [(*arg_sorts, ret) for symbol, (arg_sorts, ret) in space.signature.functions.items()
              if symbol not in space.signature.builtin_functions]
    pinned: set[Element] = set()
    for sorts in pools:
        # a nested-sentence position leaves the pool, and the graphs, empty
        if NESTED_SENTENCE_SORT not in sorts:
            for sort in sorts:
                pinned.update(domain.valid_elements(sort))
    groups = ([p for p in group if p.lexeme not in named and p not in pinned]
              for group in candidates.values())
    return tuple(tuple(group) for group in groups if len(group) > 1)


def _constant_symbols(formulas: Iterable[Formula]) -> set[str]:
    """Every constant symbol in the formulas, inside abstraction bodies and
    function arguments too."""
    out: set[str] = set()
    stack: list[Formula | Term] = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            out.add(node.symbol)
        elif isinstance(node, (Atom, FnApp)):
            stack.extend(node.args)
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Exists, Abstracted)):
            stack.append(node.body)
    return out


def representatives(space: Structure, worlds: Sequence[World],
                    groups: tuple[tuple[Particular, ...], ...]) -> list[World]:
    """The first world of each class of isomorphic worlds, in enumeration
    order.  `groups` are the movable particulars (see `movable_particulars`),
    each in lexeme order.  `enumerate_worlds` takes the concepts in
    registration order, the first outermost, gives each the subsets of its
    pool by ascending mask, bit i for the pool's i-th particular in lexeme
    order, and varies function graphs innermost.  A swap inside a group
    leaves concepts of arity other than 1 and function graphs alone (they pin
    their pools) and moves the group's bits inside each unary relation's
    mask.  So a world is the first of its class when its masks are the least,
    the first concept's before the next: when, for each particular and the
    next of its group, the first unary relation in registration order that
    holds one of the two holds the earlier.  Neighbours suffice: swapping a
    pair out of that order gives an earlier world of the class.  The IS-A
    filter keeps or drops a class whole."""
    unary = [c.name for c in space.registry.by_predicate.values() if c.arity == 1]
    pairs = [((p,), (q,)) for group in groups for p, q in zip(group, group[1:])]

    def leads(world: World) -> bool:
        relations = [world.relations[name] for name in unary]
        for p, q in pairs:
            # the first relation that tells p from q must hold p
            for rel in relations:
                if (p in rel) != (q in rel):
                    if q in rel:
                        return False
                    break
        return True

    return [world for world in worlds if leads(world)]
