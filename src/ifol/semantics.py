"""Possible worlds, assignments, and the two equivalent satisfaction routes.

A world is an extensionalization function: it fixes a relation for every
registered concept (under the sorted constraints and IS-A inclusion) plus a
total graph for every declared function.  Truth can then be computed two ways:

* `tarski_eval` -- the plain inductive interpretation with sorted quantifier
  ranges, used as the independent oracle;
* `satisfies` -- Kripke satisfaction over generalized worlds (world,
  assignment), where the existential quantifier is an accessibility step that
  rebinds one variable.

Both routes run on a compile-once core.  The first time a route meets a
formula object, its compiler turns the formula into nested closures over a
slot-indexed environment: a list with the formula's parameters (normally its
free variables, in first-appearance order) in the leading slots and one slot
per quantifier after them.  A quantifier writes only its own slot, so no
assignment dict is copied, and constants, concepts and evaluators are resolved
once per node instead of once per call.  Each route has its own compiler, so
their agreement stays an independent check; they share only the term
compiler and the built-in predicates' one definition (`_comparison`, a
test of one position's argument values), which the Tarski route maps over
columns and the Kripke route applies to one assignment's arguments.
Compiled terms pass built-in arithmetic results between built-ins as raw
numbers and box a value as a particular only where it leaves arithmetic; a
comparison applies its operator to its arguments, unwrapping only those
that are not raw numbers already.
Everything compiled from one formula object -- its cores on both routes,
each with its sweep pools, and its relational plan -- lives in one cache
entry on the `Structure`, keyed by the formula's identity, for one
declaration stamp (`Structure.stamp`, which every declaration raises): after
a declaration the formula is compiled anew, reading the pools and symbols
as a fresh workspace would, and a symbol still not declared fails where it
is reached.  The entry holds its formula weakly and leaves the cache with
it, so no closure in the entry may hold the formula itself.  No compiled
closure holds the structure or the compile state either, so compiling
makes no reference cycle and a dropped workspace goes at once.

The Kripke route evaluates one assignment at a time.  A concept atom tests
its argument tuple, built by `_compile_args`, against the world's relation;
over one bound variable that tuple is `(env[slot],)`.  Particulars hash by
identity (see `Particular`), so the test hashes pointers.  Its sweep
(`_sweep`) is one loop over `itertools.product` of the parameters' pools,
writing each assignment into the leading slots.

The Tarski route (`ifol.tarski`) runs a column at a time over the last
parameter, the innermost variable of a sweep: its sweep loops over the
product of the other parameters' pools, and its closures take the last
one's pool as a column and return the positions where a formula holds.
Evaluation at one assignment is a one-position column.

A sweep either collects, world after world, every tuple where a formula
holds (`_tuples_where`, for intensions and extensions), raising the first
error in enumeration order, or finds the first assignment where it fails
(`_first_failure`, for consequence and axiom models), so a failure is found
without raising at any later assignment: the Kripke sweep evaluates
nothing past it, the Tarski sweep nothing past its column.

Terms are staged (loop-invariant code motion, Aho et al., *Compilers* ch. 9;
factorised evaluation, Olteanu & Schleich, SIGMOD Record 2016).  The shared
term compiler memoizes each built-in application that reads only parameters
-- no quantifier-bound variable, no abstraction, no function graph -- at its
first read (memo functions, Michie, Nature 1968), once per binding of the
parameters it reads, and the rule lives in its read closure alone
(`_Stager.slot`).  A ground term or a term over one parameter keeps its
values keyed by that parameter's value, for the core's life: no staged term
reads the world, and a declaration compiles a new core, so the values hold
in every world and query.  A term over several parameters keeps the last
binding it read and its value, and evaluates again only when that binding
moves; in a sweep's product order that is when the last of its parameters
moves.  A Tarski term that reads the column keeps its values by column value
under the binding of the other parameters it reads (see `ifol.tarski`), so
it is evaluated as often.  Outside every quantifier, a term that reads
several parameters and every one of them is read once per assignment, where
its binding always moves, so it is not staged.
Nothing is evaluated before it is read, so errors stay where the plain
evaluation meets them: where a short-circuit skips a read nothing is
raised.  An evaluation that raises keeps nothing, so a read after it raises
again.  A core builds its sweep pools at the first world a sweep reaches
and keeps them; nothing is evaluated at compile time, and a sweep over no
worlds reads no pool.  A hidden-variable union in `eval_atom` is one sweep
too, with the hidden variables outermost.  A core's work is bounded before
anything is evaluated: the product of its sweep's pools times the largest
product of its quantifiers' finite pools along one nesting path may not
exceed `MAX_ASSIGNMENTS`, else `ExplosionGuard` is raised; evaluation at one
assignment bounds the quantifiers alone.  An infinite quantifier pool is not
counted: it raises where it is reached.

Logical consequence, the per-world meaning of open formulas (their Montague
intension) and the identity between a concept's extension and that intension
are all decided by exhaustive enumeration over the worlds `ifol.worlds`
enumerates, held as columns (`Worlds`, the one carrier of enumerated
worlds) that build a `World` where a route reads one.  The deciding
functions walk the worlds they are given: every world for an intension, one
world per class of isomorphic worlds where the workspace finds that enough
(`Workspace.representatives`, the view `Worlds.leaders`).

An intension is computed a set at a time where it can be: a formula in the
fragment that cannot raise -- concept atoms and built-in comparisons over
finite numeric sorts -- has a relational plan (`ifol.plan`, the fragment's
one definition), compiled once per stamp and kept in the formula's entry,
which `montague_intension` runs over the mask columns of a `Worlds`
enumerated under the current stamp, a whole enumeration or its leaders; a
comparison's rows read no world, so the plan computes them once.  Any other
formula, and any other sequence of worlds (a list, worlds built by hand, an
enumeration made before the last declaration), is swept on the Kripke
route.
The plan is a third evaluator: consequence stays on the Kripke closures and
a concept's extension on the Tarski ones, so Bealer-Montague still compares
two independent routes.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from itertools import compress, product, repeat
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .builtins import COMPARISONS, apply_function, number_of
from .concepts import ConceptRegistry, Interpretation
from .errors import (
    EvaluationFailure,
    ExplosionGuard,
    FunctionUndefinedAt,
    IfolError,
    InfiniteHiddenDomain,
    UnboundVariable,
    UnknownSymbol,
)
from .kernel import (
    Concept,
    ConceptRef,
    Domain,
    Element,
    Intension,
    Number,
    element_lexeme,
)
from .plan import compile_plan
from .sorting import Signature
from .syntax import (
    Abstracted,
    And,
    Atom,
    Const,
    FnApp,
    Formula,
    Term,
    Var,
    Variable,
    free_vars,
    negations,
    substitute,
)

Assignment = dict[Variable, Element]
# A compiled formula or term reads the world and the slot environment.
Test = Callable[["World", list], bool]
Value = Callable[["World", list], Element]
Args = Callable[["World", list], tuple]

_EMPTY: frozenset = frozenset()
# The column and the selection of one assignment with no parameter.
_NO_COLUMN, _ONE = (None,), range(1)

# Default bound on the candidate worlds `enumerate_worlds` may generate.
MAX_WORLDS = 2 ** 20
# Bound on the assignments one sweep of a formula's free variables, times
# those of its quantifiers, may visit.
MAX_ASSIGNMENTS = 2 ** 24


@dataclass
class Structure:
    """The declaration half of a workspace: domain, signature, concept registry
    and the fixed intensional interpretation, plus the compiled closures of the
    formulas evaluated over it (keyed by formula identity)."""

    domain: Domain
    signature: Signature
    registry: ConceptRegistry
    interp: Interpretation
    compiled: dict[int, "_Compiled"] = field(default_factory=dict, repr=False, compare=False)

    @property
    def stamp(self) -> int:
        """Grows with every declaration, as declarations only add: what is
        compiled or enumerated under one stamp holds until it moves."""
        return self.domain.declarations + self.signature.declarations


class Subsets(dict):
    """The relation of each mask over a concept's tuple pool (bit i for the
    pool's i-th tuple, see `ifol.worlds`), built when first asked for and
    kept: the decoder that every world of one enumeration shares for that
    concept, so equal masks decode to the same frozenset object."""

    __slots__ = ("name", "pool")

    def __init__(self, name: str, pool: Sequence[tuple[Element, ...]]):
        self.name = name
        self.pool = pool

    def __missing__(self, mask: int) -> frozenset[tuple[Element, ...]]:
        made = self[mask] = frozenset(t for b, t in enumerate(self.pool) if mask >> b & 1)
        return made


class _Decoded:
    """`World.relations` of an enumerated world: decoded from its masks at
    the first read and kept in the world's own dict, which later reads find
    first."""

    def __get__(self, w: Optional[World], owner: type) -> object:
        if w is None:
            return self
        w.relations = relations = {d.name: d[m] for d, m in zip(w.decoders, w.masks)}
        return relations


class World:
    """One extensionalization function over the structure's concepts: a
    relation per registered concept and a graph per declared function.

    An enumerated world is one position of a `Worlds`, built when a route
    first reads it: its masks, that position read across the mask columns,
    one int per registered concept in registration order (bit i for the
    i-th tuple of the concept's pool, see `ifol.worlds`), and the decoders
    the whole enumeration shares; `relations` is decoded when first read and
    kept, so a route pays only for the worlds it visits.  A world built by
    hand, `World(label, space, relations[, functions])`, holds its relations
    and no masks.  No plan reads a `World`: plans read a `Worlds`' columns."""

    __slots__ = ("label", "space", "functions", "masks", "decoders", "__dict__")
    relations = _Decoded()

    def __init__(self, label: str, space: Structure,
                 relations: Optional[dict[str, frozenset[tuple[Element, ...]]]],
                 functions: Optional[dict[str, dict[tuple[Element, ...], Element]]] = None,
                 masks: Optional[tuple[int, ...]] = None,
                 decoders: Optional[tuple[Subsets, ...]] = None):
        self.label = label
        self.space = space
        self.functions = {} if functions is None else functions
        self.masks = masks
        self.decoders = decoders
        if relations is not None:
            self.relations = relations

    def relation(self, concept_name: str) -> frozenset[tuple[Element, ...]]:
        return self.relations.get(concept_name, frozenset())

    def sort_extent(self, sort_name: str) -> frozenset[Element]:
        """The unary extent of a sort in this world: the assigned relation for
        an enumerated unary concept, the declared members otherwise."""
        concept = self.space.domain.concepts.get(sort_name)
        if sort_name in self.relations and concept is not None and concept.arity == 1:
            return frozenset(t[0] for t in self.relations[sort_name])
        return frozenset(self.space.domain.valid_elements(sort_name))

    def extension_of(self, el: Element) -> frozenset[tuple[Element, ...]] | bool:
        """The extensionalization of an intensional element in this world."""
        if isinstance(el, Intension):
            if el.arity == 0:
                return tarski_eval(self, {}, el.origin)
            # derived-concept extension rule: collect tuples through the Tarski route
            return next(_tuples_where(_core(self.space, el.origin, _compile_tarski), (self,)))
        if isinstance(el, ConceptRef):
            return self._concept_extension(el.concept)
        raise EvaluationFailure(f"particular {el!r} has no extension")

    def _concept_extension(self, concept: Concept) -> frozenset[tuple[Element, ...]]:
        if concept.name in self.relations:
            return self.relations[concept.name]
        if concept.name not in self.space.domain.concepts:
            # not declared, so a canonical subconcept: project its root's relation
            registry = self.space.registry
            pred, fixed = registry.atom_pattern(concept)
            parent = registry.concept_of(pred)
            parent_rel = self._concept_extension(parent)
            keep = [i for i in range(parent.arity) if i not in fixed]
            out = []
            for t in parent_rel:
                if all(element_lexeme(t[i]) == lex for i, lex in fixed.items()):
                    out.append(tuple(t[i] for i in keep))
            return frozenset(out)
        if concept.arity == 1:
            return frozenset((p,) for p in self.space.domain.valid_elements(concept.name))
        return frozenset()


class Worlds(Sequence[World]):
    """The worlds of one enumeration, or a view of some of them, held as
    columns (a column store, Abadi, Madden & Hachem, SIGMOD 2008): one
    column of masks per registered concept, in registration order, and one
    of whether each world leads its class of isomorphic worlds, which gives
    the length (with no concept there is no mask column, yet a world per
    combination of function graphs); the k combinations of function graphs,
    which repeat innermost in the enumeration; the decoders every world
    shares (one `Subsets` per concept) and the declaration `stamp` their
    pools were read under; and `index`, each world's place in its
    enumeration, `range(n)` for a whole one.  `worlds[i]` builds the `World`
    of position i, labelled `w<index[i]>`, its masks position i read across
    the columns and its graphs combination index[i] mod k, when it is first
    read and returns that object after; iteration builds every world not
    built yet in one loop, as small workspaces visit every world.
    `leaders()` is the view of the worlds that lead their class; it keeps
    the built worlds in the enumeration's list, by index, so a world read
    through both is one object, built once.  This is
    the one carrier of enumerated worlds: a relational plan runs over its
    columns and builds no world (see `montague_intension`)."""

    __slots__ = ("space", "columns", "leads", "functions", "decoders", "stamp", "index", "_built",
                 "_whole")

    def __init__(self, space: Structure, columns: list[list[int]], leads: list[bool],
                 functions: list[dict[str, dict[tuple[Element, ...], Element]]],
                 decoders: tuple[Subsets, ...], stamp: int, index: Sequence[int] = ()):
        self.space = space
        self.columns = columns
        self.leads = leads
        self.functions = functions
        self.decoders = decoders
        self.stamp = stamp
        self.index = index or range(len(leads))
        # the World of each enumerated world, by its index, shared with every view
        self._built: list[Optional[World]] = [None] * len(leads)
        self._whole = False  # every world of this sequence built

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):  # type: ignore[override]
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.index)))]
        at = self.index[i]  # raises IndexError past either end
        world = self._built[at]
        if world is None:
            world = self._built[at] = World(f"w{at}", self.space, None,
                                            self.functions[at % len(self.functions)],
                                            tuple(c[i] for c in self.columns), self.decoders)
        return world

    def __iter__(self) -> Iterator[World]:
        built, index = self._built, self.index
        if not self._whole:
            self._whole = True
            space, decoders, functions = self.space, self.decoders, self.functions
            k, masks = len(functions), zip(*self.columns) if self.columns else repeat(())
            for at, m in zip(index, masks):
                if built[at] is None:
                    built[at] = World(f"w{at}", space, None, functions[at % k], m, decoders)
        return map(built.__getitem__, index)

    def leaders(self) -> Worlds:
        """The worlds that lead their class, in order, as a view of their
        own: the columns and the index gathered at the leading positions,
        and the enumeration's own built worlds, so each world is built once."""
        keep = list(compress(range(len(self.index)), self.leads))
        view = Worlds(self.space, [list(map(c.__getitem__, keep)) for c in self.columns],
                      [True] * len(keep), self.functions, self.decoders, self.stamp,
                      list(map(self.index.__getitem__, keep)))
        view._built = self._built
        return view


# --- assignments and accessibility ------------------------------------------------

def accessible(g1: Assignment, g2: Assignment, x: Variable) -> bool:
    """Accessibility for the existential modality on x: agreement off x."""
    keys = set(g1) | set(g2)
    return all(g1.get(v) == g2.get(v) for v in keys if v != x)


def accessible_values(x: Variable, domain: Domain) -> tuple[Element, ...]:
    """The values x takes across the assignments accessible from any assignment
    along the accessibility relation for x: the valid elements of its sort."""
    return domain.valid_elements(x.sort)


# --- the compiled core ------------------------------------------------------------

class _Core:
    """One formula compiled on one route: `test` reads parameter i from
    env[i], and the slots after the parameters belong to the quantifiers.
    `sweep` runs it over pools of the parameters (`_sweep` on the Kripke
    route, `tarski._column_sweep` on the Tarski one); `nest` is its
    quantifiers' tree (see `_nesting`); `pools` keeps its sweeps' pools, by
    how many parameters they bind."""

    __slots__ = ("test", "params", "size", "sweep", "nest", "pools")

    def __init__(self, test: Callable, params: tuple[Variable, ...], size: int,
                 sweep: Callable, nest: tuple):
        self.test = test
        self.params = params
        self.size = size
        self.sweep = sweep
        self.nest = nest
        self.pools: dict[int, list[Sequence[Element]]] = {}


Compiler = Callable[[Formula, tuple[Variable, ...], Structure], _Core]

_UNPLANNED: object = object()  # no plan compiled yet (None: phi has none)


class _Compiled:
    """The cores and the relational plan of one formula object under one
    declaration stamp.  The entry holds the formula weakly and leaves the
    cache with it, before its id, the cache key, can be reused."""

    __slots__ = ("formula", "free", "cores", "plan", "stamp")

    def __init__(self, phi: Formula, space: Structure):
        owner, key = weakref.ref(space), id(phi)  # weakly, so the cache makes no cycle

        def leave(ref: weakref.ref) -> None:
            space = owner()
            if space is not None:  # None where the structure is being freed
                space.compiled.pop(key, None)

        self.formula = weakref.ref(phi, leave)
        self.free = free_vars(phi)
        self.cores: dict[object, _Core] = {}
        self.plan: object = _UNPLANNED
        self.stamp = space.stamp


def _compiled(space: Structure, phi: Formula) -> _Compiled:
    """phi's cache entry, made anew where a declaration has moved the stamp
    since it was made, so that what it holds reads every declaration."""
    entry = space.compiled.get(id(phi))
    if entry is None or entry.stamp != space.stamp:
        entry = space.compiled[id(phi)] = _Compiled(phi, space)
    return entry


def _core(space: Structure, phi: Formula, route: Compiler,
          params: Optional[tuple[Variable, ...]] = None) -> _Core:
    """phi compiled by `route` with `params` (default: its free variables) in
    the leading slots; compiled on first use, cached on the structure after."""
    entry = _compiled(space, phi)
    key: object = route if params is None else (route, params)
    core = entry.cores.get(key)
    if core is None:
        core = entry.cores[key] = route(phi, entry.free if params is None else params, space)
    return core


def intension_plan(space: Structure, phi: Formula) -> Optional[Callable[..., Iterable]]:
    """phi's relational plan over its free variables (see `ifol.plan`), its
    root's run from the mask columns, the decoders and the number of some
    worlds enumerated under the current stamp to their rows; or None when
    phi is outside the fragment that cannot raise or its plan would exceed
    `MAX_ASSIGNMENTS`.  A plan reads the sort pools when it is compiled, so
    it is kept in phi's entry, for one declaration stamp."""
    entry = _compiled(space, phi)
    if entry.plan is _UNPLANNED:
        entry.plan = compile_plan(phi, entry.free, space, MAX_ASSIGNMENTS)
    return entry.plan  # type: ignore[return-value]


def _truth(space: Structure, route: Compiler, world: World, g: Assignment,
           phi: Formula) -> bool:
    """phi at (world, g) on a route.  Free variables that g leaves out stay
    unbound: evaluation fails where it reaches one, as the route prescribes."""
    core = _core(space, phi, route)
    try:
        values = [g[v] for v in core.params]
    except KeyError:
        core = _core(space, phi, route, tuple(v for v in core.params if v in g))
        values = [g[v] for v in core.params]
    return _holds(core, world, values)


def _holds(core: _Core, world: World, values: Sequence[Element]) -> bool:
    """The core's test at one assignment, its parameters taking `values`,
    after the budget of its quantifiers; a Tarski test runs over a
    one-position column, the last value's."""
    if 0 not in core.pools:
        _pools(core, world.space.domain, 0)
    env = [*values, *[None] * (core.size - len(values))]
    if core.sweep is _sweep:
        return core.test(world, env)
    errs: dict[int, IfolError] = {}
    if core.test(world, env, values[-1:] or _NO_COLUMN, _ONE, errs):
        return True
    if errs:
        raise errs[0]
    return False


# --- assignment sweeps ---------------------------------------------------------------

def _pools(core: _Core, domain: Domain, swept: int) -> list[Sequence[Element]]:
    """The pools of a sweep binding the core's first `swept` parameters,
    built at the first world a sweep reaches and kept on the core; a build
    that raises keeps nothing.  Their product times the most assignments of
    the core's quantifiers along one nesting path (`_reach`) is bounded by
    `MAX_ASSIGNMENTS`, before anything is evaluated."""
    pools = core.pools.get(swept)
    if pools is None:
        pools = [domain.valid_elements(v.sort) for v in core.params[:swept]]
        if math.prod(map(len, pools)) * _reach(core.nest, domain) > MAX_ASSIGNMENTS:
            raise ExplosionGuard(f"more than {MAX_ASSIGNMENTS} assignments")
        core.pools[swept] = pools
    return pools


def _nesting(f: Formula) -> tuple:
    """The quantifiers of f outside its atoms as a tree: for each one that
    `~` and `&` reach, its sort and the tree of its body."""
    f, _ = negations(f)
    if isinstance(f, Atom):
        return ()
    if isinstance(f, And):
        return tuple(q for part in f.parts for q in _nesting(part))
    return ((f.var.sort, _nesting(f.body)),)


def _reach(nest: tuple, domain: Domain) -> int:
    """The largest product of the quantifier pools along one path of
    `nest`.  A pool that cannot be built, such as an infinite one, is not
    counted: it raises where it is read."""
    most = 1
    for sort, body in nest:
        try:
            size = len(domain.valid_elements(sort))
        except IfolError:
            size = 1
        most = max(most, size * _reach(body, domain) if body else size)
    return most


def _sweep(world: World, env: list, pools: list[Sequence[Element]], test: Test,
           want: bool) -> list[tuple[Element, ...]]:
    """The Kripke route's sweep: bind the parameters to each assignment of
    the pools, in `itertools.product` order, and list every assignment at
    which the test is `want`, or, for `want` False, the first."""
    depth, rows = len(pools), []
    for values in product(*pools):
        env[:depth] = values
        if test(world, env) == want:
            rows.append(values)
            if not want:
                break
    return rows


def _tuples_where(core: _Core, worlds: Sequence[World], fixed: Sequence[Element] = ()
                  ) -> Iterator[frozenset[tuple[Element, ...]]]:
    """Per world, in order: every sorted assignment to the core's parameters
    under which the formula holds, as value tuples, the trailing parameters
    taking the `fixed` values (one-value pools).  The environment
    is built once, at the first world reached, and each assignment
    overwrites its parameter slots; a staged term keeps its value in its own
    closure, not there."""
    env = None
    for world in worlds:
        if env is None:
            swept = _pools(core, world.space.domain, len(core.params) - len(fixed))
            pools = [*swept, *zip(fixed)] if fixed else swept
            env = [None] * core.size
        yield frozenset(core.sweep(world, env, pools, core.test, True))


def _first_failure(core: _Core, world: World) -> Optional[tuple[Element, ...]]:
    """The first sorted assignment to the core's parameters, in enumeration
    order, under which the formula fails, or None.  The sweep stops there,
    or at an error before it in that order, which it raises."""
    pools = _pools(core, world.space.domain, len(core.params))
    if not pools:  # a closed formula: its one assignment
        return None if _holds(core, world, ()) else ()
    failing = core.sweep(world, [None] * core.size, pools, core.test, False)
    return failing[0] if failing else None


# --- term evaluation (shared by both routes) ---------------------------------------

def eval_term(t: Term, g: Assignment, world: World) -> Element:
    """Extend the assignment over a term.

    Function applications go through the world's function graph (or a built-in
    evaluator); an abstraction term denotes the interpretation of its body with
    the beta variables ground through g, landing in the layer fixed by alpha.
    """
    bound = {v: i for i, v in enumerate(g)}
    return _compile_term(t, bound, _Stager(world.space, 0))(world, list(g.values()))


# The parameter slots a term that may be staged reads; None for a term that
# may not be staged.
_Reads = Optional[frozenset[int]]
_GROUND: _Reads = frozenset()


class _Stager:
    """The compile state of one core: the structure it reads, how many
    leading slots hold parameters, and `size`, the slots taken so far (the
    parameters', then one per quantifier).  No compiled closure holds it."""

    def __init__(self, space: Structure, params: int):
        self.space = space
        self.params = self.size = params

    def slot(self, value: Value, reads: frozenset[int]) -> Value:
        """Stage `value`: the returned closure evaluates it at its first read
        for each binding of the parameters it `reads` and keeps the result.
        Over at most one parameter it keeps a result per binding, for the
        core's life; over several, the last binding read and its result, so
        it evaluates again only when that binding moves.  An evaluation that
        raises keeps nothing, so the next read raises again."""
        if len(reads) > 1:
            pick = itemgetter(*sorted(reads))
            last: list = [None, None]  # the last binding read and its value

            def read(w: World, env: list) -> Element:
                key = pick(env)
                if key != last[0]:
                    last[1] = value(w, env)
                    last[0] = key
                return last[1]

            return read
        memo: dict[object, Element] = {}
        if not reads:
            def read(w: World, env: list) -> Element:
                held = memo.get(None)
                if held is None:
                    held = memo[None] = value(w, env)
                return held

            return read
        (param,) = reads

        def read(w: World, env: list) -> Element:
            key = env[param]
            held = memo.get(key)
            if held is None:
                held = memo[key] = value(w, env)
            return held

        return read


def _level(reads: frozenset[int]) -> tuple[bool, int]:
    """How often a staged term is evaluated in a sweep: once, per binding of
    its one parameter, or per move of the last of its several parameters."""
    return len(reads) > 1, max(reads, default=-1)


def _staged(value: Callable, reads: _Reads, bound: dict[Variable, int], stager: _Stager,
            column: bool = False) -> Callable:
    """`value` staged (`_Stager.slot`, or the Tarski route's `column` for a
    `column` term) where it reads only parameters, but not where it reads
    several and they are every variable in scope: outside every quantifier
    it is read once per assignment, and a sweep moves that binding at each,
    so staging would save nothing."""
    if reads is None or len(reads) == len(bound) > 1:
        return value
    return stager.column(value, reads) if column else stager.slot(value, reads)


def _compile_term(t: Term, bound: dict[Variable, int], stager: _Stager,
                  raw: bool = False) -> Value:
    """Compile a term; `bound` maps the variables in scope to their slots.

    With `raw` the term's consumer is arithmetic (a built-in function or
    predicate): a built-in application then yields its raw number and a
    numeric constant its value.  Otherwise numbers are boxed as particulars.
    A built-in application that reads no quantifier-bound variable, no
    abstraction and no function graph is staged (`_staged`), so memoized at
    its first read, per binding of the parameters it reads; inside it, such
    an application is staged on its own only where it is evaluated more
    seldom than its consumer.
    """
    value, reads = _term(t, bound, stager, raw)
    return _staged(value, reads, bound, stager) if isinstance(t, FnApp) else value


def _term(t: Term, bound: dict[Variable, int], stager: _Stager, raw: bool
          ) -> tuple[Value, _Reads]:
    """`_compile_term`'s recursion: the closure and what the term reads."""
    space = stager.space
    interp = space.interp
    if isinstance(t, Var):
        slot = bound.get(t.var)
        if slot is None:
            return _unbound(t.var), None
        param = slot < stager.params
        return (lambda w, env: env[slot]), frozenset((slot,)) if param else None
    if isinstance(t, Const):
        found = space.domain.lookup(t.symbol)
        if found is None:
            # not declared: fails where reached
            return (lambda w, env: interp.of_constant(t.symbol)), _GROUND
        value = found.value if raw and found.value is not None else found
        return (lambda w, env: value), _GROUND
    if isinstance(t, FnApp):
        evaluator = space.signature.builtin_functions.get(t.symbol)
        parts = []
        for a in t.args:  # a loop, not a comprehension: one frame per nesting level
            parts.append(_term(a, bound, stager, evaluator is not None))
        reads: _Reads = None
        if evaluator is not None and all(r is not None for _, r in parts):
            reads = frozenset().union(*(r for _, r in parts))
        values = []
        for a, (value, part) in zip(t.args, parts):
            if isinstance(a, FnApp) and (reads is None or _level(part) != _level(reads)):
                value = _staged(value, part, bound, stager)
            values.append(value)
        if evaluator is not None:
            return _builtin_application(evaluator, values, _finish(space.domain, raw)), reads
        # a declared function's graph, or, not declared, one no world has
        return _graph_application(t.symbol, _tuple_of(values)), None
    if not t.beta:
        return (lambda w, env: interp.of_ground_term(t)), None
    missing = next((v for v in t.beta if v not in bound), None)
    if missing is not None:
        return _unbound(missing), None
    beta = [(v, bound[v]) for v in t.beta]

    def reify(w: World, env: list) -> Element:
        body = substitute(t.body, {v: Const(element_lexeme(env[slot])) for v, slot in beta})
        return interp.of_ground_term(Abstracted(body, t.alpha, ()))

    return reify, None


def _finish(domain: Domain, raw: bool) -> Optional[Callable[[Number], object]]:
    """What a built-in application does with its raw result: box it as a
    particular, or, for an arithmetic consumer, check that some declared
    numeric sort holds it (raising `UnknownSort` where boxing would) and pass
    it on.  The check is vacuous, so skipped, once every number has a sort."""
    box = domain.numeric_particular
    if not raw:
        return box
    if domain.sorts_every_number():
        return None

    def checked(value: Number) -> Number:
        box(value)
        return value

    return checked


def _builtin_application(evaluator: str, values: list[Value],
                         finish: Optional[Callable[[Number], object]]) -> Value:
    # apply_function is looked up per call so that it can be instrumented.
    # A binary call with nothing to finish, as in all arithmetic once
    # rationals or reals exist, builds its arguments inline: one frame per
    # nesting level.  Any other call builds them with `_tuple_of`.
    if len(values) == 2 and finish is None:
        first, second = values
        return lambda w, env: apply_function(evaluator, (first(w, env), second(w, env)))
    args = _tuple_of(values)
    if finish is None:
        return lambda w, env: apply_function(evaluator, args(w, env))
    return lambda w, env: finish(apply_function(evaluator, args(w, env)))


def _graph_application(symbol: str, args: Args) -> Value:
    def apply(w: World, env: list) -> Element:
        values = args(w, env)
        graph = w.functions.get(symbol)
        if graph is None:
            raise UnknownSymbol(f"function {symbol!r} has no graph in world {w.label}")
        try:
            return graph[values]
        except KeyError:
            rendered = ", ".join(element_lexeme(a) for a in values)
            raise FunctionUndefinedAt(f"{symbol}({rendered})") from None

    return apply


def _compile_args(terms: Sequence[Term], bound: dict[Variable, int], stager: _Stager,
                  raw: bool) -> Args:
    """The argument tuple of an atom, left to right; `raw` for a built-in
    predicate, whose arguments need not be boxed."""
    if len(terms) == 1 and isinstance(terms[0], Var) and terms[0].var in bound:
        slot = bound[terms[0].var]
        return lambda w, env: (env[slot],)
    values = []
    for t in terms:
        values.append(_compile_term(t, bound, stager, raw))
    return _tuple_of(values)


def _tuple_of(values: list[Value]) -> Args:
    if len(values) == 1:
        only = values[0]
        return lambda w, env: (only(w, env),)
    return lambda w, env: tuple([v(w, env) for v in values])


def _comparison(evaluator: str, terms: Sequence[Term], space: Structure) -> Callable[..., bool]:
    """A built-in predicate's one definition on either route: its truth from
    its arguments' values at one position, which are evaluated, left to
    right, before it is called.  A comparison applies its operator,
    unwrapping with `number_of`, left to right, only an argument that is not
    a raw number already, so over two raw arguments it is the bare operator;
    `true` holds, and a comparison with another number of arguments
    (declared after first use) fails."""
    op, count = COMPARISONS.get(evaluator), len(terms)
    if op is None:
        return lambda *values: True
    if count != 2:
        def fail(*values: object) -> bool:
            raise EvaluationFailure(f"comparison expects 2 args, got {count}")

        return fail
    raw_first, raw_second = (_yields_raw(t, space) for t in terms)
    if raw_first and raw_second:
        return op
    return lambda a, b: op(a if raw_first else number_of(a), b if raw_second else number_of(b))


def _yields_raw(t: Term, space: Structure) -> bool:
    """Whether `_term` compiles t, for an arithmetic consumer, to a raw
    number: a declared numeric constant or a built-in application."""
    if isinstance(t, Const):
        found = space.domain.lookup(t.symbol)
        return found is not None and found.value is not None
    return isinstance(t, FnApp) and t.symbol in space.signature.builtin_functions


def _unbound(v: Variable) -> Value:
    def fail(w: World, env: list) -> Element:
        raise UnboundVariable(v.name)
    return fail


def _no_predicate(pred: str, args: Args) -> Test:
    def fail(w: World, env: list) -> bool:
        args(w, env)
        raise UnknownSymbol(f"predicate {pred!r} has no concept and no evaluator")
    return fail


# --- the Kripke route ---------------------------------------------------------------

def satisfies(world: World, g: Assignment, phi: Formula) -> bool:
    """Kripke satisfaction at the generalized world (world, g).

    The existential quantifier is the low-level modality for its variable: it
    holds when some accessible assignment (one rebinding the variable inside
    its sort) satisfies the body.
    """
    return _truth(world.space, _compile_kripke, world, g, phi)


def _compile_kripke(phi: Formula, params: tuple[Variable, ...], space: Structure) -> _Core:
    """Kripke satisfaction compiled.  An existential steps through the
    assignments accessible from the current one along the relation for its
    variable, and an atom follows the generalized interpretation of
    `eval_atom`: with a variable still unbound it is no truth value."""
    stager = _Stager(space, len(params))
    test = _kripke(phi, {v: i for i, v in enumerate(params)}, stager)
    return _Core(test, params, stager.size, _sweep, _nesting(phi))


def _kripke(f: Formula, bound: dict[Variable, int], stager: _Stager) -> Test:
    f, negated = negations(f)
    if isinstance(f, Atom):
        test = _kripke_atom(f, bound, stager)
    elif isinstance(f, And):
        parts = [_kripke(part, bound, stager) for part in f.parts]

        def test(w: World, env: list) -> bool:
            for part in parts:
                if not part(w, env):
                    return False
            return True

    else:
        x, slot, domain = f.var, stager.size, stager.space.domain
        stager.size += 1
        body = _kripke(f.body, {**bound, x: slot}, stager)

        def test(w: World, env: list) -> bool:
            for env[slot] in accessible_values(x, domain):
                if body(w, env):
                    return True
            return False

    if negated:
        return lambda w, env: not test(w, env)
    return test


def _kripke_atom(a: Atom, bound: dict[Variable, int], stager: _Stager) -> Test:
    direct, hidden = _atom_vars(a)
    if any(v not in bound for v in direct + hidden):
        scope = list(bound.items())
        copy = Atom(a.pred, a.args)  # a may be the root, which its entry must not hold

        def generalized(w: World, env: list) -> bool:
            # a virtual predicate, not a truth value: compute it for the
            # errors it raises, then refuse it
            eval_atom(copy, {v: env[slot] for v, slot in scope}, w)
            raise UnboundVariable(f"free variables left in atom {copy.pred}")

        return generalized
    space = stager.space
    evaluator = space.signature.builtin_predicates.get(a.pred)
    if evaluator is not None:  # its test of the arguments' values
        holds = _comparison(evaluator, a.args, space)
        if len(a.args) == 2:
            first, second = (_compile_term(t, bound, stager, True) for t in a.args)
            return lambda w, env: holds(first(w, env), second(w, env))
        values = _compile_args(a.args, bound, stager, True)
        return lambda w, env: holds(*values(w, env))
    concept = space.registry.by_predicate.get(a.pred)
    args = _compile_args(a.args, bound, stager, False)
    if concept is None:  # not declared: fails where reached
        return _no_predicate(a.pred, args)
    name = concept.name
    return lambda w, env: args(w, env) in w.relations.get(name, _EMPTY)


def eval_atom(a: Atom, g: Assignment, world: World) -> bool | frozenset[tuple[Element, ...]]:
    """Generalized interpretation of one atom under a (possibly partial) assignment.

    Ground after g: a truth value.  Otherwise the atom is a virtual predicate:
    its extension ranges over the directly-free variables, and the beta
    variables of abstraction arguments that are not also direct arguments
    are hidden, unioned out over all of their sorted assignments: one sweep
    binds the hidden variables, outermost, and the free ones, and the hidden
    columns are projected away.
    """
    domain = world.space.domain
    direct, hidden = _atom_vars(a)
    hidden = [v for v in hidden if v not in g and v not in direct]
    for v in hidden:
        if not domain.sort_is_finite(v.sort):
            raise InfiniteHiddenDomain(f"{v.name}:{v.sort}")
    if not all(domain.valid_elements(v.sort) for v in hidden):
        return frozenset()  # a union over no assignment
    free = tuple(v for v in direct if v not in g)
    given = tuple(v for v in _compiled(world.space, a).free if v in g)
    core = _core(world.space, a, _compile_kripke, (*hidden, *free, *given))
    fixed = [g[v] for v in given]
    if not (hidden or free):
        return _holds(core, world, fixed)
    rows = next(_tuples_where(core, (world,), fixed))
    if hidden or fixed:
        return frozenset(row[len(hidden):len(hidden) + len(free)] for row in rows)
    return rows


def _atom_vars(a: Atom) -> tuple[list[Variable], list[Variable]]:
    """The variables `eval_atom` may leave open, each list in first-appearance
    order: direct ones (in plain and function-application arguments) and
    hidden ones (the beta variables of abstraction arguments)."""
    direct: list[Variable] = []
    hidden: list[Variable] = []
    for t in a.args:
        if isinstance(t, Abstracted):
            for v in t.beta:
                if v not in hidden:
                    hidden.append(v)
            continue
        stack: list[Term] = [t]
        while stack:
            term = stack.pop()
            if isinstance(term, Var):
                if term.var not in direct:
                    direct.append(term.var)
            elif isinstance(term, FnApp):
                stack.extend(reversed(term.args))
    return direct, hidden


# --- the Tarski route ---------------------------------------------------------------

def tarski_eval(world: World, g: Assignment, phi: Formula) -> bool:
    """Plain inductive truth with sorted quantifier ranges; kept free of the
    accessibility machinery so it can serve as the independent oracle."""
    return _truth(world.space, _compile_tarski, world, g, phi)


# --- consequence, intension, and the extension identity ------------------------------

@dataclass(frozen=True)
class Countermodel:
    world: World
    assignment: tuple[tuple[Variable, Element], ...]


def is_model_of(world: World, axioms: Sequence[Formula]) -> bool:
    """Open axioms are read universally closed and checked on the Tarski
    route (a consequence checks its formula on the Kripke route)."""
    for ax in axioms:
        if _first_failure(_core(world.space, ax, _compile_tarski), world) is not None:
            return False
    return True


def consequence(space: Structure, axioms: Sequence[Formula], phi: Formula,
                worlds: Sequence[World]) -> tuple[bool, Optional[Countermodel]]:
    """phi follows from the axioms iff it holds at every generalized world
    (model of the axioms, many-sorted assignment); otherwise the first failing
    pair is the countermodel certificate."""
    core = _core(space, phi, _compile_kripke)
    for world in worlds:
        if not is_model_of(world, axioms):
            continue
        failing = _first_failure(core, world)
        if failing is not None:
            return False, Countermodel(world, tuple(zip(core.params, failing)))
    return True, None


def montague_intension(space: Structure, phi: Formula, worlds: Sequence[World]
                       ) -> list[frozenset[tuple[Element, ...]] | bool]:
    """The meaning of phi as a column over `worlds`: per world, in their
    order, the set of free-variable tuples it satisfies, or its truth value
    if closed.  A formula with a relational plan runs it once over the mask
    columns of a `Worlds` enumerated under the current declaration stamp,
    the plan's, building no `World`; any other formula or sequence is swept
    on the Kripke route."""
    plan = intension_plan(space, phi)
    if plan is not None and isinstance(worlds, Worlds) and worlds.stamp == space.stamp:
        meaning = plan(worlds.columns, worlds.decoders, len(worlds))
    else:
        meaning = _tuples_where(_core(space, phi, _compile_kripke), worlds)
    if not _compiled(space, phi).free:  # the one assignment of a closed formula is ()
        return [() in rows for rows in meaning]
    return list(meaning)


@dataclass(frozen=True)
class ExtensionMismatch:
    world_label: str
    concept_side: frozenset | bool
    intension_side: frozenset | bool


def bealer_montague_check(space: Structure, phi: Formula, worlds: Sequence[World]
                          ) -> Optional[ExtensionMismatch]:
    """Verify that extensionalizing the interpreted concept of phi agrees with
    phi's per-world meaning; returns the first mismatch, None when exact."""
    concept = space.interp.of_formula(phi)
    for world, rhs in zip(worlds, montague_intension(space, phi, worlds)):
        lhs = world.extension_of(concept)
        if lhs != rhs:
            return ExtensionMismatch(world.label, lhs, rhs)
    return None


# The Tarski route's compiler builds on the shared core above.
from .tarski import _compile_tarski  # noqa: E402
