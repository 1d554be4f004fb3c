"""Relational plans: the fragment that cannot raise, evaluated a set at a time.

The fragment is the formulas built from atoms of registered concepts (not
built-ins), whose arguments are variables of finite sorts or declared
non-numeric constants, with `~`, `&` and `exists` over finite sorts.  Such a
formula reads only relation membership and cannot raise, and its meaning in a
world -- the tuples over its free variables that satisfy it -- is relational
algebra over the world's relations (Codd, "Relational completeness of data
base sublanguages", 1972; set-at-a-time relational logic as in Kodkod, Torlak
& Jackson, TACAS 2007).  `compile_plan` is the fragment's one definition: it
returns a plan for a formula inside it and None for any other.

A plan is a tree of nodes.  Each node has columns, the free variables of its
sub-formula, and a closure from a world's relations to its rows, a frozenset
of tuples over the columns' sort pools:

* an atom is its relation, selected on its constants and repeated variables
  and projected onto its variables; over distinct variables in argument order
  it is the relation object itself, with no copy;
* `&` is a natural join, an intersection when the columns are equal; a negated
  conjunct whose columns lie inside the others' is a difference or an
  antijoin, so no universe is built for it;
* any other `~` is a difference from the product of the column pools, built
  on the first world that needs it and kept for the plan's life;
* `exists` is a projection; over a variable its body does not read, it is the
  body when the variable's pool is nonempty and empty otherwise.

At the root the columns are reordered to the parameters', so a closed formula
gives `{()}` or `{}`.  A plan reads the sort pools when it is compiled, so
it serves one query, as a sweep does; and it reads a world as
`enumerate_worlds` builds it: each relation lies within its concept's
tuple pool, so an atom filters a column by its variable's pool only where the
concept's pool there is wider.  A node whose column product exceeds the
budget ends the compilation: such a formula gets no plan, and keeps the
assignment sweep and its guard.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

from .kernel import Element, numeric_value
from .syntax import And, Atom, Const, Exists, Formula, Var, Variable, conjuncts, negations

if TYPE_CHECKING:
    from .semantics import Structure

Rows = frozenset[tuple[Element, ...]]
Relations = dict[str, Rows]
Plan = Callable[[Relations], Rows]
_Node = tuple[tuple[Variable, ...], Plan]  # (columns, rows)

_EMPTY: Rows = frozenset()
_TRUE: Rows = frozenset({()})


class _Outside(Exception):
    """The formula is outside the fragment, or one of its nodes outgrows the
    budget."""


def compile_plan(phi: Formula, params: tuple[Variable, ...], space: Structure,
                 budget: int) -> Optional[Plan]:
    """phi's rows per world, as tuples over `params` (its free variables), or
    None when phi is outside the fragment or a node's column product exceeds
    `budget`.  Compiling reads sort pools and allocates nothing in proportion
    to a column product."""
    try:
        cols, rows = _Planner(space, budget).formula(phi)
    except _Outside:
        return None
    if cols == params:
        return rows
    pick = _picker([cols.index(v) for v in params])
    return lambda rels: frozenset(map(pick, rows(rels)))


def _picker(positions: list[int]) -> Callable[[tuple], tuple]:
    """The tuple of a row's values at `positions`, in that order."""
    if not positions:
        return lambda t: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda t: (t[i],)
    return itemgetter(*positions)


class _Planner:
    """One compilation: the structure's declarations, the budget, and the
    pool of each variable met so far."""

    def __init__(self, space: Structure, budget: int):
        self.domain = space.domain
        self.concepts = space.registry.by_predicate
        self.builtins = space.signature.builtin_predicates
        self.budget = budget
        self.pools: dict[Variable, tuple[Element, ...]] = {}

    def pool(self, v: Variable) -> tuple[Element, ...]:
        pool = self.pools.get(v)
        if pool is None:
            if not self.domain.sort_is_finite(v.sort):
                raise _Outside
            pool = self.pools[v] = self.domain.valid_elements(v.sort)
        return pool

    def node(self, cols: tuple[Variable, ...], rows: Plan) -> _Node:
        if math.prod(len(self.pool(v)) for v in cols) > self.budget:
            raise _Outside
        return cols, rows

    def formula(self, f: Formula) -> _Node:
        f, negated = negations(f)
        node = self.positive(f)
        return self.complement(node) if negated else node

    def positive(self, f: Formula) -> _Node:
        """The node of an atom, a conjunction or an existential."""
        if isinstance(f, Atom):
            return self.atom(f)
        if isinstance(f, And):
            return self.conjunction(f)
        assert isinstance(f, Exists)
        return self.exists(f)

    def atom(self, a: Atom) -> _Node:
        concept = self.concepts.get(a.pred)
        if concept is None or a.pred in self.builtins or len(a.args) != concept.arity:
            raise _Outside
        first: dict[Variable, int] = {}  # each variable's first position
        constants: list[tuple[int, Element]] = []
        repeats: list[tuple[int, int]] = []
        for i, t in enumerate(a.args):
            if isinstance(t, Var):
                self.pool(t.var)
                if t.var in first:
                    repeats.append((first[t.var], i))
                else:
                    first[t.var] = i
                continue
            if not isinstance(t, Const) or numeric_value(t.symbol) is not None:
                raise _Outside
            found = self.domain.lookup(t.symbol)
            if found is None:
                raise _Outside
            constants.append((i, found))
        cols, name = tuple(first), concept.name
        wider = [(i, frozenset(self.pool(v))) for v, i in first.items()
                 if not self.covers(concept.attribute_sorts[i], v)]
        if not (constants or repeats or wider) and list(first.values()) == list(range(len(cols))):
            return self.node(cols, lambda rels: rels.get(name, _EMPTY))
        pick = _picker(list(first.values()))

        def select(rels: Relations) -> Rows:
            return frozenset(
                pick(t) for t in rels.get(name, _EMPTY)
                if all(t[i] == c for i, c in constants)
                and all(t[i] == t[j] for i, j in repeats)
                and all(t[i] in pool for i, pool in wider))

        return self.node(cols, select)

    def covers(self, sort: str, v: Variable) -> bool:
        """Whether v's pool holds every element of the attribute sort."""
        if not self.domain.sort_is_finite(sort):
            return False
        return set(self.domain.valid_elements(sort)) <= set(self.pool(v))

    def complement(self, node: _Node) -> _Node:
        cols, rows = node
        pools = [self.pool(v) for v in cols]
        universe: list[Rows] = []

        def rest(rels: Relations) -> Rows:
            if not universe:
                universe.append(frozenset(itertools.product(*pools)))
            return universe[0] - rows(rels)

        return self.node(cols, rest)

    def exists(self, f: Exists) -> _Node:
        pool = self.pool(f.var)
        cols, rows = self.formula(f.body)
        if f.var not in cols:
            return (cols, rows) if pool else (cols, lambda rels: _EMPTY)
        i = cols.index(f.var)
        if len(cols) == 1:
            return (), lambda rels: _TRUE if rows(rels) else _EMPTY
        pick = _picker([j for j in range(len(cols)) if j != i])
        return self.node(cols[:i] + cols[i + 1:], lambda rels: frozenset(map(pick, rows(rels))))

    def conjunction(self, f: And) -> _Node:
        """The positive conjuncts joined, then each negated one taken away:
        by a difference or antijoin when its columns lie inside the columns
        so far, else by a join with its complement, once none does."""
        positive: list[_Node] = []
        negative: list[_Node] = []
        for part in conjuncts(f):
            part, negated = negations(part)
            (negative if negated else positive).append(self.positive(part))
        node = positive[0] if positive else self.complement(negative.pop(0))
        for other in positive[1:]:
            node = self.join(node, other)
        while negative:
            inside = next((n for n in negative if set(n[0]) <= set(node[0])), None)
            if inside is None:
                node = self.join(node, self.complement(negative.pop(0)))
            else:
                negative.remove(inside)
                node = self.semijoin(node, inside, keep=False)
        return node

    def join(self, left: _Node, right: _Node) -> _Node:
        (lcols, lrows), (rcols, rrows) = left, right
        if set(rcols) <= set(lcols):
            return self.semijoin(left, right, keep=True)
        if set(lcols) <= set(rcols):
            return self.semijoin(right, left, keep=True)
        key_l = _picker([lcols.index(v) for v in rcols if v in lcols])
        key_r = _picker([i for i, v in enumerate(rcols) if v in lcols])
        rest = _picker([i for i, v in enumerate(rcols) if v not in lcols])

        def rows(rels: Relations) -> Rows:
            index: dict[tuple, list[tuple]] = {}
            for r in rrows(rels):
                index.setdefault(key_r(r), []).append(rest(r))
            return frozenset(t + tail for t in lrows(rels) for tail in index.get(key_l(t), ()))

        return self.node(lcols + tuple(v for v in rcols if v not in lcols), rows)

    def semijoin(self, wide: _Node, narrow: _Node, keep: bool) -> _Node:
        """The rows of `wide` whose values on `narrow`'s columns, which lie
        inside its own, are (`keep`: a semijoin) or are not (an antijoin)
        rows of `narrow`."""
        (cols, wrows), (ncols, nrows) = wide, narrow
        if ncols == cols:
            if keep:
                return self.node(cols, lambda rels: wrows(rels) & nrows(rels))
            return self.node(cols, lambda rels: wrows(rels) - nrows(rels))
        if not ncols:
            return self.node(cols, lambda rels: wrows(rels) if bool(nrows(rels)) == keep
                             else _EMPTY)
        key = _picker([cols.index(v) for v in ncols])

        def rows(rels: Relations) -> Rows:
            found = nrows(rels)
            return frozenset(t for t in wrows(rels) if (key(t) in found) == keep)

        return self.node(cols, rows)
