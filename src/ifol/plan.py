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
fragment's one definition: it returns a plan, the root node's closure, for
a formula inside it and None for any other.

A plan is a tree of nodes, run a column at a time (MonetDB/X100, Boncz,
Zukowski & Nes, CIDR 2005).  Each node has columns, the free variables of
its sub-formula, and a closure from the mask columns of some worlds (one
column per registered concept, one mask per world in it, see
`ifol.worlds`), the decoders they share (one `Subsets` per concept) and
their number, to one entry per world: its rows, a frozenset of tuples over
the columns' sort pools.

* an atom is its relation, `decoders[i][mask]` for each mask of the
  concept's column i, selected on its constants and repeated variables and
  projected onto its variables, once per distinct mask of a run, so equal
  masks share one result; over distinct variables in argument order it is
  the decoded relation itself, with no copy;
* `&` is one node over all its parts, whatever their number: a natural
  join, an intersection when the columns are equal; a negated part whose
  columns lie inside the others' is a difference or an antijoin, so no
  universe is built for it.  Its run folds the parts in one loop of steps,
  each combining the entries so far with one part's, world by world, and
  listing them before the next, so a run recurses and nests iterators over
  depth, never over width; a two-part conjunction is one map;
* any other `~` is a difference from the product of the column pools, built
  on the first run that needs it and kept for the plan's life;
* `exists` is a projection; over a variable its body does not read, it is the
  body when the variable's pool is nonempty and empty otherwise;
* a comparison is a selection over the product of its variables' pools:
  nested loops over all but the last two, as a Datalog engine runs
  arithmetic (Soufflé, Jordan, Scholz & Subotić, CAV 2016), and under them
  one block over the last two, the operators mapped across it a chunk of at
  most `_BLOCK` positions at a time.  Its rows do not read the world: the
  first run that needs them computes them, with the operators
  `apply_function` uses, each sub-term once per binding of the variables up
  to the second-last one it reads, or, over both block columns, of every
  variable before the block (see `_select`); the plan keeps them for its life, and every run repeats
  them once per world.

A unary concept atom over a variable whose pool is the concept's pool is a
mask node instead: its entries are the concept's column itself, the masks
(bit i for the pool's i-th element, see `ifol.worlds`); `~`, `&` and
`exists` over mask nodes of one column map `full ^ m`, `a & b` (`a & ~b`
for a negated conjunct) and `m != 0` over the columns.  Every other node,
a unary atom on a constant among them, is a set node, whose entries are
rows, and a mask becomes rows where it meets one, and at the root, through
the decoder of its concept, so equal masks give the same frozenset object.
A set node maps its per-world combiner over its children's entries.

No node reads a `World`: a plan runs over the columns of a
`semantics.Worlds`, a whole enumeration or a view of some of its worlds,
which `montague_intension` gives it only where the worlds were enumerated
under the plan's declaration stamp, so over its pools; it sweeps any other
sequence of worlds instead.

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
from operator import and_, invert, itemgetter, sub
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from .builtins import COMPARISONS, TOTAL_FUNCTIONS, is_total
from .kernel import Element, Number, numeric_value
from .syntax import And, Atom, Const, Exists, FnApp, Formula, Term, Var, Variable, negations

if TYPE_CHECKING:
    from .semantics import Structure, Subsets

Rows = frozenset[tuple[Element, ...]]
# The mask columns of some worlds, one per registered concept in registration
# order, each holding one mask per world.
Masks = Sequence[Sequence[int]]
# A sub-formula's columns, its closure from the worlds' mask columns, the
# decoders they share and their number to one entry per world, and None; the
# entries are its rows.  For a mask node, its one column, the same closure,
# whose entries are the masks of its rows over that column's pool, and the
# concept `home` with that pool, whose decoder turns a mask into rows.
_Run = Callable[[Masks, Sequence["Subsets"], int], Iterable]
_Node = tuple[tuple[Variable, ...], _Run, Optional[int]]
# One step of a conjunction: the entries so far and the worlds' mask columns,
# decoders and number to the entries after one more part.
_Step = Callable[[Iterable, Masks, Sequence["Subsets"], int], Iterable]

_EMPTY: Rows = frozenset()
_TRUE: Rows = frozenset({()})
_TRUTH = (_EMPTY, _TRUE)  # the rows of a closed formula, by its truth value
# A comparison's selection maps its operators across at most this many
# positions of its last two columns at a time (see `_select`), so it holds
# that many values per cell, not the product of the two pools.  The sphere
# workspace over {-8..8}^3 has a block of 289 positions, far below it.  It
# bounds memory per step and is not a user option.
_BLOCK = 1024


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


def compile_plan(phi: Formula, params: tuple[Variable, ...], space: Structure,
                 budget: int) -> Optional[_Run]:
    """phi's plan over `params` (its free variables): the root node's
    closure `(masks, decoders, n)` to the rows of each of n worlds, in
    order, as tuples over `params`.  None when phi is outside the fragment
    or a node's column product exceeds `budget`.  Compiling reads sort pools
    and allocates nothing in proportion to a column product."""
    try:
        node = _Planner(space, budget).formula(phi)
    except _Outside:
        return None
    cols, run = node[0], _decoded(node)
    if cols != params:  # a mask node's one column is the one parameter
        project, unpicked = _projection([cols.index(v) for v in params]), run
        run = lambda m, d, n: map(project, unpicked(m, d, n))
    return run


def _decoded(node: _Node) -> _Run:
    """The node's rows; a mask node's leave it through its concept's decoder,
    so equal masks give the same frozenset object."""
    _, run, home = node
    if home is None:
        return run
    return lambda m, d, n: map(d[home].__getitem__, run(m, d, n))


def _picker(positions: list[int]) -> Callable[[tuple], tuple]:
    """The tuple of a row's values at `positions`, in that order."""
    if not positions:
        return lambda t: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda t: (t[i],)
    return itemgetter(*positions)


def _projection(positions: list[int]) -> Callable[[Rows], Rows]:
    """Rows projected onto their values at `positions`, in that order."""
    pick = _picker(positions)
    return lambda rows: frozenset(map(pick, rows))


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

    def node(self, cols: tuple[Variable, ...], run: _Run, home: Optional[int] = None) -> _Node:
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
        at = list(self.concepts).index(a.pred)  # the concept's mask column
        if concept.arity == 1 and self.domain.sort_is_finite(concept.attribute_sorts[0]):
            pool = self.domain.valid_elements(concept.attribute_sorts[0])
            if cols and self.pool(cols[0]) == pool:
                return self.node(cols, lambda m, d, n: m[at], at)
        wider = [(i, frozenset(self.pool(v))) for v, i in first.items()
                 if not self.covers(concept.attribute_sorts[i], v)]
        if not (constants or repeats or wider) and list(first.values()) == list(range(len(cols))):
            return self.node(cols, lambda m, d, n: map(d[at].__getitem__, m[at]))
        pick = _picker(list(first.values()))

        def select(relation: Rows) -> Rows:
            return frozenset(
                pick(t) for t in relation
                if all(t[i] == c for i, c in constants)
                and all(t[i] == t[j] for i, j in repeats)
                and all(t[i] in pool for i, pool in wider))

        def selected(m: Masks, d: Sequence[Subsets], n: int) -> Iterable[Rows]:
            made: dict[int, Rows] = {}  # per mask, as `Subsets` decodes it

            def one(mask: int) -> Rows:
                rows = made.get(mask)
                if rows is None:
                    rows = made[mask] = select(d[at][mask])
                return rows

            return map(one, m[at])

        return self.node(cols, selected)

    def comparison(self, a: Atom, evaluator: str) -> _Node:
        """A built-in comparison that cannot raise: a selection over the
        product of its variables' pools, its columns in first-appearance
        order.  No term is evaluated here: the rows do not read the world, so
        the first run computes them, the plan keeps them, and every run
        repeats them once per world."""
        op = COMPARISONS.get(evaluator)
        if op is None or len(a.args) != 2 or not self.domain.sorts_every_number():
            raise _Outside  # else each raw result is checked against a sort
        cells: list[_Cell] = []
        cols: dict[Variable, int] = {}  # each variable's cell
        left, right = (self.term(t, cells, cols) for t in a.args)
        pools = [self.pools[v] for v in cols]
        kept: list[Rows] = []

        def rows(m: Masks, d: Sequence[Subsets], n: int) -> Iterable[Rows]:
            if not kept:
                kept.append(_select(op, cells, left, right, pools))
            return itertools.repeat(kept[0], n)

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
        if not is_total(evaluator, cells[args[-1]].value):  # a constant's cell has a value
            raise _Outside
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
            return self.node(cols, lambda m, d, n: map(full.__xor__, run(m, d, n)), home)
        universe: list[Rows] = []

        def rest(m: Masks, d: Sequence[Subsets], n: int) -> Iterable[Rows]:
            if not universe:
                universe.append(frozenset(itertools.product(*pools)))
            return map(universe[0].__sub__, run(m, d, n))

        return self.node(cols, rest)

    def exists(self, f: Exists) -> _Node:
        pool = self.pool(f.var)
        node = self.formula(f.body)
        cols, run, home = node
        if f.var not in cols:
            return node if pool else (cols, lambda m, d, n: itertools.repeat(_EMPTY, n), None)
        if len(cols) == 1:  # a mask or rows over the one column: is it empty
            return (), lambda m, d, n: map(_TRUTH.__getitem__, map(bool, run(m, d, n))), None
        i = cols.index(f.var)
        project = _projection([j for j in range(len(cols)) if j != i])
        return self.node(cols[:i] + cols[i + 1:], lambda m, d, n: map(project, run(m, d, n)))

    def conjunction(self, f: And) -> _Node:
        """The positive parts joined, then each negated one taken away: by a
        difference or antijoin when its columns lie inside the columns so
        far, else by a join with its complement, once none does.  The node
        runs these steps in one loop, each combining the entries so far with
        one part's, world by world; every step but the last lists its
        entries, so a run nests no call and no iterator per part, and a
        two-part conjunction is one map over the worlds."""
        positive: list[_Node] = []
        negative: list[_Node] = []
        for part in f.parts:
            part, negated = negations(part)
            (negative if negated else positive).append(self.positive(part))
        # the first part's node, then each step's columns, step and home
        nodes = [positive.pop(0) if positive else self.complement(negative.pop(0))]
        for part in positive:
            nodes.append(self.step(nodes[-1], part, True))
        while negative:
            have, outside = set(nodes[-1][0]), []
            for part in negative:  # taking a part away keeps the columns
                if set(part[0]) <= have:
                    nodes.append(self.step(nodes[-1], part, False))
                else:
                    outside.append(part)
            if outside:
                nodes.append(self.step(nodes[-1], self.complement(outside.pop(0)), True))
            negative = outside
        first, *middle, last = (node[1] for node in nodes)

        def run(m: Masks, d: Sequence[Subsets], n: int) -> Iterable:
            entries = first(m, d, n)
            for step in middle:
                entries = list(step(entries, m, d, n))
            return last(entries, m, d, n)

        return nodes[-1][0], run, nodes[-1][2]

    def step(self, so_far: tuple, part: _Node, keep: bool
             ) -> tuple[tuple[Variable, ...], _Step, Optional[int]]:
        """One step of a conjunction: its columns, the step, and its home.
        The step combines, world by world, the entries so far, over the
        columns of `so_far` (its masks over the pool of its home, or its
        rows), with `part`'s: by a natural join (`keep`), a semijoin where
        one side holds the other's columns, or an antijoin, `part`'s columns
        inside those so far.  Over one column, masks and masks give masks:
        their intersection, or the first's bits that the second lacks."""
        (cols, _, home), (pcols, prun, phome) = so_far, part
        if pcols == cols and home is not None and phome is not None:
            masks = prun if keep else lambda m, d, n: map(invert, prun(m, d, n))
            return self.node(cols, lambda e, m, d, n: map(and_, e, masks(m, d, n)), home)
        prows = _decoded(part)
        rows = (lambda e, d: e) if home is None else (lambda e, d: map(d[home].__getitem__, e))
        if set(pcols) <= set(cols):
            combine = _semijoin(cols, pcols, keep)
            return self.node(cols, lambda e, m, d, n: map(combine, rows(e, d), prows(m, d, n)))
        if set(cols) <= set(pcols):
            inside = _semijoin(pcols, cols, True)
            return self.node(pcols, lambda e, m, d, n: map(inside, prows(m, d, n), rows(e, d)))
        key_l = _picker([cols.index(v) for v in pcols if v in cols])
        key_r = _picker([i for i, v in enumerate(pcols) if v in cols])
        rest = _picker([i for i, v in enumerate(pcols) if v not in cols])

        def joined(lefts: Rows, rights: Rows) -> Rows:
            index: dict[tuple, list[tuple]] = {}
            for r in rights:
                index.setdefault(key_r(r), []).append(rest(r))
            return frozenset(t + tail for t in lefts for tail in index.get(key_l(t), ()))

        return self.node(cols + tuple(v for v in pcols if v not in cols),
                         lambda e, m, d, n: map(joined, rows(e, d), prows(m, d, n)))


def _semijoin(cols: tuple[Variable, ...], inner: tuple[Variable, ...], keep: bool
              ) -> Callable[[Rows, Rows], Rows]:
    """The rows over `cols` whose values on `inner`, columns among them, are
    (`keep`: a semijoin) or are not (an antijoin) among the found rows."""
    if not inner:  # found rows of a closed formula: all of the rows or none
        return lambda rows, found: rows if bool(found) == keep else _EMPTY
    if inner == cols:
        return and_ if keep else sub
    key = _picker([cols.index(v) for v in inner])
    return lambda rows, found: frozenset(t for t in rows if (key(t) in found) == keep)


def _select(op: Callable[[Number, Number], bool], cells: list[_Cell], left: int, right: int,
            pools: list[tuple[Element, ...]]) -> Rows:
    """The rows over `pools` at which `op` holds between the values of the
    cells `left` and `right`.  Every column but the last two is bound in
    nested loops, the first outermost, and under each binding the last two
    are one block: the flat product of their pools, in chunks of whole
    values of the second-last column, `_BLOCK` positions at most unless one
    value is wider.  One column is a block with no second-last column.

    A cell over no column is evaluated once.  Any other is a column across
    the pool of its last column, evaluated as soon as every other column it
    reads is bound (a cell over one column is a table over its pool), so
    once per binding of the columns up to the second-last it reads, read or
    not; but a cell over both block columns is mapped across each chunk,
    once per binding of every column before the block.  In a chunk a cell
    whose last column is the second-last is repeated once per value of the
    last column, and a cell over the last column alone among the two is
    tiled.  `op` is mapped across the chunk, and `compress` picks the rows
    of the chunk's product."""
    if not all(pools):
        return _EMPTY
    second = len(pools) - 2  # the block's first column, -1 when it is the only one
    depth = max(second, 0)  # the columns bound in loops
    last = [max(c.reads, default=-1) for c in cells]
    scalar: list = [c.value for c in cells]  # a cell's value at the current binding
    column: list = [None] * len(cells)  # its values across the pool of its last column
    later: list[list[int]] = [[] for _ in range(depth + 1)]  # the cells evaluated at each depth
    inner: list[int] = []  # the cells over both block columns
    for i, c in enumerate(cells):
        if c.fn is None:
            if c.reads:
                column[i] = [p.value for p in pools[last[i]]]
        elif not c.reads:
            scalar[i] = c.fn(*[scalar[a] for a in c.args])
        elif second in c.reads and last[i] == second + 1:
            inner.append(i)
        else:
            later[max(c.reads - {last[i]}, default=-1) + 1].append(i)
    if not pools:
        return _TRUE if op(scalar[left], scalar[right]) else _EMPTY
    at = [[i for i in range(len(cells)) if last[i] == j] for j in range(depth)]
    heads = pools[second] if second >= 0 else (None,)  # one column: one chunk of no value
    tail = pools[-1]
    step = max(_BLOCK // len(tail), 1)  # values of the second-last column per chunk
    out: list[tuple[Element, ...]] = []

    def across(i: int, j: int):
        return column[i] if last[i] == j else itertools.repeat(scalar[i])

    def block(prefix: tuple[Element, ...]) -> None:
        for start in range(0, len(heads), step):
            chunk = heads[start:start + step]
            made: dict[int, list] = {}  # the cells over both block columns, across the chunk

            def values(i: int) -> Iterable:  # cell i across the chunk's positions
                if i in made:
                    return made[i]
                if last[i] == second + 1:  # tiled
                    return column[i] if len(chunk) == 1 \
                        else itertools.chain.from_iterable(itertools.repeat(column[i], len(chunk)))
                if last[i] == second >= 0:  # repeated
                    if len(chunk) == 1:
                        return itertools.repeat(column[i][start], len(tail))
                    return itertools.chain.from_iterable(map(
                        itertools.repeat, column[i][start:start + step], itertools.repeat(len(tail))))
                return itertools.repeat(scalar[i])

            for i in inner:
                made[i] = list(map(cells[i].fn, *map(values, cells[i].args)))
            keep = map(op, values(left), values(right))
            if len(chunk) == 1:  # pick from the last pool alone: no pair per dropped position
                lead = prefix + chunk if second >= 0 else prefix
                out.extend(map(lead.__add__, zip(itertools.compress(tail, keep))))
            else:
                out.extend(map(prefix.__add__,
                               itertools.compress(itertools.product(chunk, tail), keep)))

    def walk(j: int, prefix: tuple[Element, ...]) -> None:
        for i in later[j]:
            column[i] = list(map(cells[i].fn, *[across(a, last[i]) for a in cells[i].args]))
        if j == depth:
            block(prefix)
            return
        for index, p in enumerate(pools[j]):
            for i in at[j]:  # the cells whose last column is j
                scalar[i] = column[i][index]
            walk(j + 1, prefix + (p,))

    walk(0, ())
    return frozenset(out)
