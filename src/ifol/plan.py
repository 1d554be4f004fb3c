"""Relational plans: the fragment that cannot raise, evaluated a set at a time.

The fragment is the formulas built from two kinds of atoms with `~`, `&` and
`exists` over finite sorts.  An atom of a registered concept whose tuple pool
is finite takes variables of finite sorts or declared non-numeric constants
(no enumeration holds a relation over an infinite pool, so the sweep answers
the others).  A built-in comparison (`leq`, `lt`, `geq`, `gt`, `eq`) takes
two arithmetic terms built from variables of finite sorts whose pools hold
only numeric particulars, numeric constants, `add`, `sub`, `mul`, `neg`, and
`pow` to a constant non-negative integer, in a workspace that declares
rationals or reals (elsewhere each raw result is checked against a numeric
sort, which can raise).  Such a formula
reads only relation membership and exact arithmetic and cannot raise, and
its meaning in a world -- the tuples over its free variables that satisfy
it -- is relational algebra over the world's relations (Codd, "Relational
completeness of data base sublanguages", 1972; set-at-a-time relational
logic as in Kodkod, Torlak & Jackson, TACAS 2007).  `compile_plan` is the
fragment's one definition: it returns a plan for a formula inside it and
None for any other.

A plan is a tree of nodes.  Each node has columns, the free variables of its
sub-formula, and a closure from a world's masks and decoders (one mask per
registered concept, see `ifol.worlds`, and the `Decoders` its enumeration
shares) to its rows, a frozenset of tuples over the columns' sort pools:

* an atom is its relation, `decoders[i][masks[i]]` for the concept's index i,
  selected on its constants and repeated variables and projected onto its
  variables; over distinct variables in argument order it is the decoded
  relation itself, with no copy;
* `&` is a natural join, an intersection when the columns are equal; a negated
  conjunct whose columns lie inside the others' is a difference or an
  antijoin, so no universe is built for it;
* any other `~` is a difference from the product of the column pools, built
  on the first world that needs it and kept for the plan's life;
* `exists` is a projection; over a variable its body does not read, it is the
  body when the variable's pool is nonempty and empty otherwise;
* a comparison is a selection over the product of its variables' pools, by
  nested loops as a Datalog engine runs arithmetic (Soufflé, Jordan, Scholz
  & Subotić, CAV 2016).  Its rows do not read the world: the first world
  that needs them computes them, with the operators `apply_function` uses,
  each sub-term once per binding of the variables it reads (see `_select`),
  and the plan keeps them for its life.

A unary concept atom over a variable whose pool is the concept's pool is a
mask node instead: its closure reads the world's mask for the concept (bit i
for the pool's i-th element, see `ifol.worlds`), `~`, `&` and `exists` over
mask nodes of one column are `full ^ m`, `a & b` (`a & ~b` for a negated
conjunct) and `m != 0`, and a unary atom on a constant tests one bit.  Every
other node is a set, and a mask becomes rows where it meets one, and at the
root, through the decoder of its concept, so equal masks give the same
frozenset object.

No node reads a `World`, so a plan runs on a world (`plan(world)`) or over
the masks column of a whole enumeration (`Plan.column`, which
`montague_intension` uses), with the same closures.  Either way the worlds
must have been enumerated under the plan's declaration stamp, so over its
pools: a plan refuses a world built by hand or enumerated under another
stamp, and `montague_intension` sweeps such worlds instead.

At the root the columns are reordered to the parameters', so a closed formula
gives `{()}` or `{}`.  A plan reads the sort pools when it is compiled, so
it holds for one declaration stamp, as its formula's compiled cores do (see
`semantics.intension_plan`); and it reads a world as `enumerate_worlds`
builds it: each relation lies within its concept's tuple pool, so an atom
filters a column by its variable's pool only where the concept's pool there
is wider.  A node whose column product exceeds the
budget ends the compilation: such a formula gets no plan, and keeps the
assignment sweep and its guard.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .builtins import COMPARISONS, TOTAL_FUNCTIONS
from .errors import EvaluationFailure
from .kernel import Element, Number, numeric_value
from .syntax import (And, Atom, Const, Exists, FnApp, Formula, Term, Var, Variable, conjuncts,
                     negations)

if TYPE_CHECKING:
    from .semantics import Decoders, Structure, World

Rows = frozenset[tuple[Element, ...]]
Masks = tuple[int, ...]
# A sub-formula's columns, its closure from a world's masks and decoders to
# its rows, and None; or, for a mask node, its one column, its closure from a
# world's masks to the mask of its rows over that column's pool, and the
# concept `home` with that pool, whose decoder turns the mask into rows.
_Node = tuple[tuple[Variable, ...], Callable[..., object], Optional[int]]

_EMPTY: Rows = frozenset()
_TRUE: Rows = frozenset({()})


class _Cell(NamedTuple):
    """One sub-term of a comparison: a variable's raw value (no `fn`, one
    column read), a numeric constant (its `value`), or `fn` applied to the
    values of the `args` cells."""

    fn: Optional[Callable[..., Number]]
    args: tuple[int, ...]
    reads: frozenset[int]  # the columns it reads
    value: Optional[Number] = None


class _Outside(Exception):
    """The formula is outside the fragment, or one of its nodes outgrows the
    budget."""


class Plan:
    """phi's rows per world, as tuples over its parameters, for the
    declaration stamp it was compiled under: the root node's closure, and
    the concept `home` whose decoder turns a root mask node's mask into
    rows (None for a set node)."""

    __slots__ = ("stamp", "run", "home")

    def __init__(self, stamp: int, run: Callable[..., object], home: Optional[int]):
        self.stamp = stamp
        self.run = run
        self.home = home

    def __call__(self, w: World) -> Rows:
        """The rows of one world enumerated under this plan's stamp; any other
        world, built by hand or enumerated over other pools, is refused."""
        decoders = w.decoders
        if decoders is None or decoders.stamp != self.stamp:
            raise EvaluationFailure(f"world {w.label} was not enumerated under the declarations "
                                    f"the plan was compiled for")
        if self.home is None:
            return self.run(w.masks, decoders)
        return decoders[self.home][self.run(w.masks)]

    def column(self, masks: Sequence[Masks], decoders: Decoders) -> Iterator[Rows]:
        """The rows of each world of a masks column, in order; `decoders`,
        which every one of those worlds shares, carry this plan's stamp."""
        if self.home is None:
            return map(self.run, masks, itertools.repeat(decoders))
        return map(decoders[self.home].__getitem__, map(self.run, masks))


def compile_plan(phi: Formula, params: tuple[Variable, ...], space: Structure,
                 budget: int) -> Optional[Plan]:
    """phi's plan over `params` (its free variables), or None when phi is
    outside the fragment or a node's column product exceeds `budget`.
    Compiling reads sort pools and allocates nothing in proportion to a
    column product."""
    try:
        cols, rows, home = _Planner(space, budget).formula(phi)
    except _Outside:
        return None
    if home is None and cols != params:  # a mask node's one column is the one parameter
        pick, unpicked = _picker([cols.index(v) for v in params]), rows
        rows = lambda m, d: frozenset(map(pick, unpicked(m, d)))
    return Plan(space.stamp, rows, home)


def _rows(node: _Node) -> Callable[..., Rows]:
    """The node's rows; a mask node's leave it through its concept's decoder,
    so equal masks give the same frozenset object."""
    _, run, home = node
    if home is None:
        return run
    return lambda m, d: d[home][run(m)]


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
        self.functions = space.signature.builtin_functions
        self.budget = budget
        self.pools: dict[Variable, tuple[Element, ...]] = {}

    def pool(self, v: Variable) -> tuple[Element, ...]:
        pool = self.pools.get(v)
        if pool is None:
            if not self.domain.sort_is_finite(v.sort):
                raise _Outside
            pool = self.pools[v] = self.domain.valid_elements(v.sort)
        return pool

    def node(self, cols: tuple[Variable, ...], run: Callable[..., object],
             home: Optional[int] = None) -> _Node:
        if math.prod(len(self.pool(v)) for v in cols) > self.budget:
            raise _Outside
        return cols, run, home

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
        evaluator = self.builtins.get(a.pred)
        if evaluator is not None:
            return self.comparison(a, evaluator)
        concept = self.concepts.get(a.pred)
        if concept is None or len(a.args) != concept.arity \
                or not self.domain.pool_is_finite(concept.attribute_sorts):
            raise _Outside  # no enumeration holds a relation over an infinite pool
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
        cols = tuple(first)
        at = list(self.concepts).index(a.pred)  # a world's masks are in this order
        if concept.arity == 1 and self.domain.sort_is_finite(concept.attribute_sorts[0]):
            pool = self.domain.valid_elements(concept.attribute_sorts[0])
            if cols and self.pool(cols[0]) == pool:
                return self.node(cols, itemgetter(at), at)
            if constants:  # a relation lies within its pool
                c = constants[0][1]
                bit = 1 << pool.index(c) if c in pool else 0
                return self.node((), lambda m, d: _TRUE if m[at] & bit else _EMPTY)
        wider = [(i, frozenset(self.pool(v))) for v, i in first.items()
                 if not self.covers(concept.attribute_sorts[i], v)]
        if not (constants or repeats or wider) and list(first.values()) == list(range(len(cols))):
            return self.node(cols, lambda m, d: d[at][m[at]])
        pick = _picker(list(first.values()))

        def select(m: Masks, d: Decoders) -> Rows:
            return frozenset(
                pick(t) for t in d[at][m[at]]
                if all(t[i] == c for i, c in constants)
                and all(t[i] == t[j] for i, j in repeats)
                and all(t[i] in pool for i, pool in wider))

        return self.node(cols, select)

    def comparison(self, a: Atom, evaluator: str) -> _Node:
        """A built-in comparison that cannot raise: a selection over the
        product of its variables' pools, its columns in first-appearance
        order.  No term is evaluated here: the rows do not read the world, so
        the first call computes them and the plan keeps them."""
        op = COMPARISONS.get(evaluator)
        if op is None or len(a.args) != 2 or not self.domain.sorts_every_number():
            raise _Outside  # else each raw result is checked against a sort
        cells: list[_Cell] = []
        cols: dict[Variable, int] = {}  # each variable's cell
        left, right = (self.term(t, cells, cols) for t in a.args)
        pools = [self.pools[v] for v in cols]
        kept: list[Rows] = []

        def rows(m: Masks, d: Decoders) -> Rows:
            if not kept:
                kept.append(_select(op, cells, left, right, pools))
            return kept[0]

        return self.node(tuple(cols), rows)

    def term(self, t: Term, cells: list[_Cell], cols: dict[Variable, int]) -> int:
        """The cell of an arithmetic term that cannot raise, its argument
        cells before it; a variable has one cell however often it occurs."""
        if isinstance(t, Var):
            if t.var not in cols:
                if any(p.value is None for p in self.pool(t.var)):
                    raise _Outside
                cols[t.var] = len(cells)
                cells.append(_Cell(None, (), frozenset((len(cols) - 1,))))
            return cols[t.var]
        if isinstance(t, Const):
            found = self.domain.lookup(t.symbol)
            if found is None or found.value is None:
                raise _Outside
            cells.append(_Cell(None, (), frozenset(), found.value))
            return len(cells) - 1
        if not isinstance(t, FnApp):
            raise _Outside
        evaluator = self.functions.get(t.symbol)
        arity, fn = TOTAL_FUNCTIONS.get(evaluator, (0, None))
        if fn is None or len(t.args) != arity:
            raise _Outside
        args = tuple(self.term(u, cells, cols) for u in t.args)
        if evaluator == "pow" and not (isinstance(t.args[1], Const)
                                       and cells[args[1]].value.__class__ is int
                                       and cells[args[1]].value >= 0):
            raise _Outside  # it raises on a fractional exponent and on 0 to a negative one
        cells.append(_Cell(fn, args, frozenset().union(*(cells[i].reads for i in args))))
        return len(cells) - 1

    def covers(self, sort: str, v: Variable) -> bool:
        """Whether v's pool holds every element of the attribute sort."""
        if not self.domain.sort_is_finite(sort):
            return False
        return set(self.domain.valid_elements(sort)) <= set(self.pool(v))

    def complement(self, node: _Node) -> _Node:
        cols, run, home = node
        pools = [self.pool(v) for v in cols]
        if home is not None:  # the mask lies within full
            full = (1 << len(pools[0])) - 1
            return self.node(cols, lambda m: full ^ run(m), home)
        universe: list[Rows] = []

        def rest(m: Masks, d: Decoders) -> Rows:
            if not universe:
                universe.append(frozenset(itertools.product(*pools)))
            return universe[0] - run(m, d)

        return self.node(cols, rest)

    def exists(self, f: Exists) -> _Node:
        pool = self.pool(f.var)
        node = self.formula(f.body)
        cols, run, home = node
        if f.var not in cols:
            return node if pool else (cols, lambda m, d: _EMPTY, None)
        i = cols.index(f.var)
        if home is not None:
            return (), lambda m, d: _TRUE if run(m) else _EMPTY, None
        if len(cols) == 1:
            return (), lambda m, d: _TRUE if run(m, d) else _EMPTY, None
        pick = _picker([j for j in range(len(cols)) if j != i])
        return self.node(cols[:i] + cols[i + 1:], lambda m, d: frozenset(map(pick, run(m, d))))

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
        lcols, rcols = left[0], right[0]
        if set(rcols) <= set(lcols):
            return self.semijoin(left, right, keep=True)
        if set(lcols) <= set(rcols):
            return self.semijoin(right, left, keep=True)
        lrows, rrows = _rows(left), _rows(right)
        key_l = _picker([lcols.index(v) for v in rcols if v in lcols])
        key_r = _picker([i for i, v in enumerate(rcols) if v in lcols])
        rest = _picker([i for i, v in enumerate(rcols) if v not in lcols])

        def rows(m: Masks, d: Decoders) -> Rows:
            index: dict[tuple, list[tuple]] = {}
            for r in rrows(m, d):
                index.setdefault(key_r(r), []).append(rest(r))
            return frozenset(t + tail for t in lrows(m, d) for tail in index.get(key_l(t), ()))

        return self.node(lcols + tuple(v for v in rcols if v not in lcols), rows)

    def semijoin(self, wide: _Node, narrow: _Node, keep: bool) -> _Node:
        """The rows of `wide` whose values on `narrow`'s columns, which lie
        inside its own, are (`keep`: a semijoin) or are not (an antijoin)
        rows of `narrow`.  Two mask nodes give a mask node: their masks'
        intersection, or the first's bits that the second lacks."""
        (cols, a, home), (ncols, b, nhome) = wide, narrow
        if ncols == cols and home is not None and nhome is not None:
            if keep:
                return self.node(cols, lambda m: a(m) & b(m), home)
            return self.node(cols, lambda m: a(m) & ~b(m), home)
        wrows, nrows = _rows(wide), _rows(narrow)
        if not ncols:
            return self.node(cols,
                             lambda m, d: wrows(m, d) if bool(nrows(m, d)) == keep else _EMPTY)
        if ncols == cols:
            if keep:
                return self.node(cols, lambda m, d: wrows(m, d) & nrows(m, d))
            return self.node(cols, lambda m, d: wrows(m, d) - nrows(m, d))
        key = _picker([cols.index(v) for v in ncols])

        def rows(m: Masks, d: Decoders) -> Rows:
            found = nrows(m, d)
            return frozenset(t for t in wrows(m, d) if (key(t) in found) == keep)

        return self.node(cols, rows)


def _select(op: Callable[[Number, Number], bool], cells: list[_Cell], left: int, right: int,
            pools: list[tuple[Element, ...]]) -> Rows:
    """The rows over `pools` at which `op` holds between the values of the
    cells `left` and `right`, bound in nested loops, the first column
    outermost.  A cell is evaluated once per binding of the columns it reads:
    a cell over no column once, over one column as a table over its pool,
    over several once per binding of all but the last, across the last one's
    pool by a `map`; the test is a `map` across the innermost pool."""
    last = [max(c.reads, default=-1) for c in cells]
    scalar: list = [c.value for c in cells]  # a cell's value at the current binding
    column: list = [None] * len(cells)  # its values across the pool of its last column
    later: list[list[int]] = [[] for _ in pools]  # the cells over several columns

    def across(i: int, j: int):
        return column[i] if last[i] == j else itertools.repeat(scalar[i])

    for i, c in enumerate(cells):
        if c.fn is None:
            if c.reads:
                column[i] = [p.value for p in pools[last[i]]]
        elif len(c.reads) > 1:
            later[last[i]].append(i)
        elif c.reads:
            column[i] = list(map(c.fn, *[across(a, last[i]) for a in c.args]))
        else:
            scalar[i] = c.fn(*[scalar[a] for a in c.args])
    if not pools:
        return _TRUE if op(scalar[left], scalar[right]) else _EMPTY
    at = [[i for i in range(len(cells)) if last[i] == j] for j in range(len(pools))]
    out: list[tuple[Element, ...]] = []

    def walk(j: int, prefix: tuple[Element, ...]) -> None:
        for i in later[j]:
            column[i] = list(map(cells[i].fn, *[across(a, j) for a in cells[i].args]))
        if j == len(pools) - 1:
            keep = map(op, across(left, j), across(right, j))
            out.extend(map(prefix.__add__, zip(itertools.compress(pools[j], keep))))
            return
        for index, p in enumerate(pools[j]):
            for i in at[j]:  # the cells whose last column is j
                scalar[i] = column[i][index]
            walk(j + 1, prefix + (p,))

    walk(0, ())
    return frozenset(out)
