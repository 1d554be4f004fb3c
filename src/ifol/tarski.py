"""The Tarski route: plain inductive truth, compiled a column at a time.

`_compile_tarski` compiles a formula for `semantics.tarski_eval`, for a
concept's extension in a world (`World.extension_of`) and for the models of
the axioms (`is_model_of`).  It shares the core of `ifol.semantics` -- the
slot environment, the cache entry, the term compiler and its staging, the
built-in predicates' one definition and the assignment budget -- but not the
Kripke closures, so the two routes' agreement stays an independent check.
It reads no relational plan.

The route runs a column at a time over a core's last parameter, the
innermost variable of a sweep (selection vectors: MonetDB/X100, Boncz,
Zukowski & Nes, CIDR 2005).  Its sweep (`_column_sweep`) loops over the
product of the other parameters' pools and gives each closure the last
one's pool as a column.  A closure (`ColumnTest`) takes the world, the
environment, the column and `sel`, the ascending positions of the column
to evaluate, and returns the positions of `sel` where its formula holds; it
records in `errs` the error of each position where the formula raises, and
drops that position.  No closure is run on an empty selection.

* A term that reads the column gives its value at each position: the
  column variable its values, a graph or an abstraction one evaluation per
  position, and a built-in application an operator mapped over its
  arguments' columns.  That is the bare operator where the result is exact
  and cannot raise, as the compiler sees from the term (`_raw_operator`),
  and `apply_function`, one call per position, anywhere else.  A staged
  one keeps its values by column value (`_ColumnStager.column`).  Any
  other term is `_compile_term`'s closure, evaluated once per column.
* A unary concept atom on a variable tests that variable's values.  Any
  other atom (`_exact`) maps its predicate's combiner -- the built-in
  comparison `semantics._comparison` or relation membership -- over its
  arguments' values; one none of whose arguments reads the column holds,
  or raises, alike at every position, so its arguments are evaluated once
  per column.
* `&` narrows the positions conjunct by conjunct, `~` takes their
  complement, and `exists` runs its body one pool value at a time over the
  positions neither satisfied nor failed yet.

Each position evaluates what one evaluation at its assignment evaluates, in
the same order: an atom whose column raises is run again a position at a
time, recording each position's error, and the sweep acts on the first
position, in enumeration order, that does not hold.  A staged term keeps
the values it gave before the raise, so the rerun reads them.  Evaluation
at one assignment (`tarski_eval`, a closed formula) is a one-position
column.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, filterfalse, product, repeat
from operator import itemgetter, not_
from typing import Callable, Iterable, Optional

from . import semantics
from .builtins import TOTAL_FUNCTIONS, is_total
from .errors import IfolError, UnknownSymbol
from .kernel import Element
from .semantics import (
    _EMPTY,
    Structure,
    World,
    _comparison,
    _Core,
    _finish,
    _level,
    _nesting,
    _Reads,
    _staged,
    _Stager,
    _term,
    _yields_raw,
)
from .syntax import Abstracted, And, Atom, Const, FnApp, Formula, Term, Var, Variable, negations

# A column term gives its value at each selected position, a column test the
# selected positions where its formula holds.
Column = Callable[[World, list, Sequence[Element], Sequence[int]], list]
ColumnTest = Callable[[World, list, Sequence[Element], Sequence[int], dict], Sequence[int]]


class _ColumnStager(_Stager):
    """The compile state of a Tarski core: `_Stager`, and the staging of a
    term that reads the column."""

    def column(self, value: Column, reads: frozenset[int]) -> Column:
        """Stage a built-in application's column (`_column_term`), a term
        that reads the column, the last parameter: the returned closure
        evaluates it only at the positions whose column value it has not
        evaluated under the current binding of the other parameters it
        `reads`, and keeps each value until that binding moves (for the
        core's life where it reads no other), so a sweep in product order
        evaluates it as often as `slot` would; the values of a whole column
        are kept as one list too.  An evaluation that raises keeps the values
        of the positions before the one it raises at, and nothing of that
        one: it asks the column for its values lazily, in position order."""
        others = sorted(reads - {self.params - 1})
        pick = itemgetter(*others) if others else (lambda env: ())
        # the other parameters' binding, the values by column value, and the
        # last whole column read under it with its values
        held: list = [None, {}, None, None]

        def read(w: World, env: list, col: Sequence[Element], sel: Sequence[int]) -> list:
            key = pick(env)
            if key != held[0]:
                held[:] = key, {}, None, None
            whole = len(sel) == len(col)
            if whole and held[2] is col:
                return held[3]
            memo = held[1]
            values = list(map(memo.get, map(col.__getitem__, sel)))
            if None in values:
                missing = [i for i, v in zip(sel, values) if v is None]
                # kept as they arrive, so a raise keeps the values before it
                memo.update(zip(map(col.__getitem__, missing), value(w, env, col, missing, True)))
                values = list(map(memo.__getitem__, map(col.__getitem__, sel)))
            if whole:
                held[2:] = col, values
            return values

        return read


def _compile_tarski(phi: Formula, params: tuple[Variable, ...], space: Structure) -> _Core:
    """Tarski truth compiled, a column at a time over the last parameter (see
    `ColumnTest`): an existential ranges over the plain sort pool of its
    variable, and an atom tests relation membership (or its evaluator)
    directly; an unbound variable fails where its term is evaluated."""
    stager = _ColumnStager(space, len(params))
    test = _tarski(phi, {v: i for i, v in enumerate(params)}, stager)
    return _Core(test, params, stager.size, _column_sweep, _nesting(phi))


def _tarski(f: Formula, bound: dict[Variable, int], stager: _Stager) -> ColumnTest:
    # No test is run on an empty selection: `&` stops at one, and an
    # existential at its last open position.
    f, negated = negations(f)
    if isinstance(f, Atom):
        return _tarski_atom(f, bound, stager, negated)
    if isinstance(f, And):
        parts = [_tarski(part, bound, stager) for part in f.parts]

        def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
                 errs: dict) -> Sequence[int]:
            for part in parts:  # each conjunct narrows the selection
                sel = part(w, env, col, sel, errs)
                if not sel:
                    break
            return sel

    else:
        sort, slot, valid = f.var.sort, stager.size, stager.space.domain.valid_elements
        stager.size += 1
        body = _tarski(f.body, {**bound, f.var: slot}, stager)

        def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
                 errs: dict) -> Sequence[int]:
            try:
                pool = valid(sort)
            except IfolError as exc:  # reached at every selected position
                errs.update(dict.fromkeys(sel, exc))
                return ()
            hits: list[int] = []
            left = sel  # the positions neither satisfied nor failed yet
            for env[slot] in pool:
                found = body(w, env, col, left, errs)
                if not (found or errs):
                    continue
                if len(found) == len(left):  # the last open positions hold
                    if not hits:
                        return found
                    hits += found
                    break
                hits += found
                done = set(found)
                done.update(errs)
                left = list(filterfalse(done.__contains__, left))
                if not left:
                    break
            hits.sort()
            return hits

    if negated:
        positive = test

        def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
                 errs: dict) -> Sequence[int]:
            held = positive(w, env, col, sel, errs)
            if not (held or errs):
                return sel
            if len(held) == len(sel):
                return ()
            skip = set(held)
            skip.update(errs)
            return list(filterfalse(skip.__contains__, sel))

    return test


def _tarski_atom(a: Atom, bound: dict[Variable, int], stager: _Stager, negated: bool
                 ) -> ColumnTest:
    """An atom's test, or its negation's.  A unary concept atom on a variable
    tests that variable's values; any other atom is `_exact`'s test, over
    its argument terms and the combiner of its predicate: a built-in one's
    `_comparison` mapped over the arguments' values, a concept's relation
    membership, or, for a predicate with neither, a failure."""
    space = stager.space
    evaluator = space.signature.builtin_predicates.get(a.pred)
    concept = space.registry.by_predicate.get(a.pred)
    if evaluator is None and concept is not None and len(a.args) == 1 \
            and isinstance(a.args[0], Var) and a.args[0].var in bound:
        name, slot = concept.name, bound[a.args[0].var]  # a unary atom on a variable
        if slot == stager.params - 1:  # the column variable

            def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
                     errs: dict) -> Sequence[int]:
                relation = w.relations.get(name, _EMPTY)
                return [i for i in sel if ((col[i],) in relation) is not negated]

        else:

            def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
                     errs: dict) -> Sequence[int]:
                return () if ((env[slot],) in w.relations.get(name, _EMPTY)) is negated else sel

        return test
    parts = _tarski_terms(a.args, bound, stager, evaluator is not None)
    if evaluator is not None:
        holds = _comparison(evaluator, a.args, space)
        return _exact(parts, lambda w, args: map(holds, *args) if args else repeat(holds()),
                      negated)
    if concept is None:  # not declared: fails where reached
        pred = a.pred

        def fail(w: World, args: list) -> Iterable[bool]:
            raise UnknownSymbol(f"predicate {pred!r} has no concept and no evaluator")

        return _exact(parts, fail, negated)
    name = concept.name
    # a nullary atom tests the empty tuple
    return _exact(parts, lambda w, args: map(w.relations.get(name, _EMPTY).__contains__,
                                             zip(*args) if args else repeat(())), negated)


def _exact(parts: list[tuple[Callable, bool]], combine: Callable, negated: bool
           ) -> ColumnTest:
    """An atom's test from its argument terms (see `_tarski_terms`) and
    `combine`, from the world and the arguments' values at the selected
    positions to the atom's truth at each.  An atom none of whose arguments
    is a column holds, or raises, alike at every position, so its arguments
    are evaluated once per column and an error is recorded at every
    position.  Where a column atom raises at some position, each position
    is run again on its own and an error is recorded for the position it
    raises at, so each position evaluates what the one evaluation there
    evaluates."""
    columns = any(column for _, column in parts)

    def test(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
             errs: dict) -> Sequence[int]:
        try:
            args = []  # left to right: a column, or one value repeated
            for value, column in parts:
                args.append(value(w, env, col, sel) if column else repeat(value(w, env)))
            truths = combine(w, args)
            return list(compress(sel, map(not_, truths) if negated else truths))
        except IfolError as exc:
            if len(sel) == 1 or not columns:
                errs.update(dict.fromkeys(sel, exc))
                return ()
        held: list[int] = []
        for i in sel:
            held += test(w, env, col, (i,), errs)
        return held

    return test


def _tarski_terms(terms: Sequence[Term], bound: dict[Variable, int], stager: _Stager,
                  raw: bool) -> list[tuple[Callable, bool]]:
    """Each term compiled for the Tarski route, and whether it is a column:
    a term that reads the column is a `Column`, staged as `_compile_term`
    stages it (`_ColumnStager.column`); any other is `_compile_term`'s
    closure, so evaluated once per column."""
    parts = []
    for t in terms:
        value, reads, column = _column_term(t, bound, stager, raw)
        if isinstance(t, FnApp):
            value = _staged(value, reads, bound, stager, column)
        parts.append((value, column))
    return parts


def _column_term(t: Term, bound: dict[Variable, int], stager: _Stager, raw: bool
                 ) -> tuple[Callable, _Reads, bool]:
    """`_tarski_terms`'s recursion, as `_term` is `_compile_term`'s: the
    closure, what the term reads and whether it is a column."""
    c = stager.params - 1
    if not _reads_slot(t, bound, c):
        return (*_term(t, bound, stager, raw), False)
    if isinstance(t, Var):
        return _column_values, frozenset((c,)), True
    evaluator = stager.space.signature.builtin_functions.get(t.symbol) \
        if isinstance(t, FnApp) else None
    if evaluator is None:  # a graph or an abstraction: evaluated at each position
        value = _term(t, bound, stager, raw)[0]

        def each(w: World, env: list, col: Sequence[Element], sel: Sequence[int]) -> list:
            out = []
            for i in sel:
                env[c] = col[i]
                out.append(value(w, env))
            return out

        return each, None, True
    parts = []
    for a in t.args:  # a loop, not a comprehension: one frame per nesting level
        parts.append(_column_term(a, bound, stager, True))
    reads: _Reads = None
    if all(r is not None for _, r, _ in parts):
        reads = frozenset().union(*(r for _, r, _ in parts))
    values = []
    for a, (value, part, column) in zip(t.args, parts):
        if isinstance(a, FnApp) and (reads is None or _level(part) != _level(reads)):
            value = _staged(value, part, bound, stager, column)
        values.append((value, column))
    op = _raw_operator(t, evaluator, stager.space)
    finish = _finish(stager.space.domain, raw)

    def apply(w: World, env: list, col: Sequence[Element], sel: Sequence[int],
              lazy: bool = False) -> Iterable:
        args = []
        for value, column in values:
            args.append(value(w, env, col, sel) if column else repeat(value(w, env)))
        if op is None:
            # apply_function is looked up per column so that it can be instrumented
            results = map(semantics.apply_function, repeat(evaluator), zip(*args))
        else:
            results = map(op, *args)
        if finish is not None:
            results = map(finish, results)
        # a list unless asked for lazily (`_ColumnStager.column`), so that a
        # consumer evaluates its arguments left to right
        return results if lazy else list(results)

    return apply, reads, True


def _raw_operator(t: FnApp, evaluator: str, space: Structure) -> Optional[Callable]:
    """The bare operator a column of built-in application t maps, or None
    where it maps `apply_function`: an operator of `TOTAL_FUNCTIONS` given
    its arity, whose every argument is raw (`_yields_raw`: a numeric
    constant or a built-in application, not a variable, whose values are
    particulars) and, for `pow`, whose exponent is a constant non-negative
    integer (`is_total`).  On raw numbers that operator is exactly what
    `apply_function` calls, and it cannot raise."""
    arity, fn = TOTAL_FUNCTIONS.get(evaluator, (0, None))
    if fn is None or len(t.args) != arity or not all(_yields_raw(a, space) for a in t.args):
        return None
    last = t.args[-1]
    exponent = space.domain.lookup(last.symbol).value if isinstance(last, Const) else None
    return fn if is_total(evaluator, exponent) else None


def _column_values(w: World, env: list, col: Sequence[Element], sel: Sequence[int]
                   ) -> Sequence[Element]:
    """The column variable's values at the selected positions."""
    return col if len(sel) == len(col) else list(map(col.__getitem__, sel))


def _reads_slot(t: Term, bound: dict[Variable, int], slot: int) -> bool:
    """Whether term t reads the variable bound to `slot`."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            if bound.get(t.var) == slot:
                return True
        elif isinstance(t, FnApp):
            stack.extend(t.args)
        elif isinstance(t, Abstracted) and any(bound.get(v) == slot for v in t.beta):
            return True
    return False


def _column_sweep(world: World, env: list, pools: list[Sequence[Element]],
                  test: ColumnTest, want: bool) -> list[tuple[Element, ...]]:
    """The Tarski route's sweep: bind the parameters before the last to each
    assignment of their pools, in `itertools.product` order, and run the test
    over the last one's pool as one column (a closed formula: one position).
    List every assignment at which the formula holds, raising the first error
    in that order; or, for `want` False, the first assignment at which it
    does not hold, raised if it raises there."""
    outer, inner = (pools[:-1], pools[-1]) if pools else ((), (None,))
    depth, every, rows = len(outer), range(len(inner)), []
    for values in product(*outer) if inner else ():
        env[:depth] = values
        errs: dict[int, IfolError] = {}
        held = test(world, env, inner, every, errs)
        if want:
            if errs:
                raise errs[min(errs)]
        elif len(held) == len(inner):
            continue
        else:
            i = len(held)  # the first position where it does not hold
            for j, h in zip(every, held):
                if j != h:
                    i = j
                    break
            if i in errs:
                raise errs[i]
            return [values + (inner[i],) if pools else ()]
        if not pools:  # a closed formula's one assignment
            return [()] if held else rows
        for i in held:
            rows.append(values + (inner[i],))
    return rows
