"""Static sort mapping and well-sortedness checking for terms and formulas.

A term is accepted at an expected sort via the subsort rule: its static sort
must lie at or below the expected one.  Nested-sentence argument positions
accept abstraction terms only, and vice versa; this falls out of the lattice
because the nested-sentence sort relates to nothing but the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import (
    DuplicateName,
    SortMismatch,
    SortViolation,
    UnknownSort,
    UnknownSymbol,
)
from .kernel import Domain, NESTED_SENTENCE_SORT, SortId, SortLattice, numeric_value
from .syntax import (
    Abstracted,
    And,
    Atom,
    FnApp,
    Formula,
    Not,
    Term,
    Var,
)

if TYPE_CHECKING:
    from .semantics import World


@dataclass
class Signature:
    """Declared sorts of predicate and function symbols."""

    predicates: dict[str, tuple[SortId, ...]] = field(default_factory=lambda: {"true": ()})
    functions: dict[str, tuple[tuple[SortId, ...], SortId]] = field(default_factory=dict)
    builtin_predicates: dict[str, str] = field(default_factory=lambda: {"true": "true"})
    builtin_functions: dict[str, str] = field(default_factory=dict)
    # raised by every declaration, which only ever adds (see `Structure.stamp`)
    declarations: int = field(default=0, init=False, compare=False, repr=False)

    def declare_predicate(self, symbol: str, sorts: tuple[SortId, ...],
                          lattice: SortLattice,
                          evaluator: Optional[str] = None) -> None:
        if symbol in self.predicates or symbol in self.functions:
            raise DuplicateName(f"symbol {symbol!r} already declared")
        for s in sorts:
            if s not in lattice:
                raise UnknownSort(s)
        self.predicates[symbol] = sorts
        if evaluator is not None:
            self.builtin_predicates[symbol] = evaluator
        self.declarations += 1

    def declare_function(self, symbol: str, arg_sorts: tuple[SortId, ...], ret: SortId,
                         lattice: SortLattice,
                         evaluator: Optional[str] = None) -> None:
        if symbol in self.functions or symbol in self.predicates:
            raise DuplicateName(f"symbol {symbol!r} already declared")
        for s in (*arg_sorts, ret):
            if s not in lattice:
                raise UnknownSort(s)
        self.functions[symbol] = (arg_sorts, ret)
        if evaluator is not None:
            self.builtin_functions[symbol] = evaluator
        self.declarations += 1

    def predicate_sorts(self, symbol: str) -> tuple[SortId, ...]:
        try:
            return self.predicates[symbol]
        except KeyError:
            raise UnknownSymbol(f"predicate {symbol!r}") from None

    def function_sorts(self, symbol: str) -> tuple[tuple[SortId, ...], SortId]:
        try:
            return self.functions[symbol]
        except KeyError:
            raise UnknownSymbol(f"function {symbol!r}") from None


def static_sort(t: Term, sig: Signature, domain: Domain) -> SortId:
    """The declared sort of a term; abstraction terms sit at nested-sentence."""
    if isinstance(t, Var):
        return t.var.sort
    if isinstance(t, Abstracted):
        return NESTED_SENTENCE_SORT
    if isinstance(t, FnApp):
        return sig.function_sorts(t.symbol)[1]
    p = domain.lookup(t.symbol)
    if p is not None:
        return p.sort
    value = numeric_value(t.symbol)
    if value is not None:
        return domain.numeric_sort_of(value)
    raise UnknownSymbol(f"constant {t.symbol!r}")


def check_term(t: Term, expected: SortId, sig: Signature, domain: Domain) -> None:
    """Accept t at `expected` under the subsort rule, else raise SortMismatch."""
    errors = _check_term(t, expected, 0, sig, domain, "")
    if errors:
        raise errors[0]


def _check_term(t: Term, expected: SortId, position: int, sig: Signature,
                domain: Domain, ctx: str) -> list[SortMismatch]:
    errors: list[SortMismatch] = []
    found = static_sort(t, sig, domain)
    if not domain.lattice.is_subsort(found, expected):
        errors.append(SortMismatch(position, found, expected, ctx))
    if isinstance(t, FnApp):
        arg_sorts, _ = sig.function_sorts(t.symbol)
        if len(arg_sorts) != len(t.args):
            raise UnknownSymbol(f"function {t.symbol!r} expects {len(arg_sorts)} args")
        for i, (a, s) in enumerate(zip(t.args, arg_sorts), start=1):
            errors.extend(_check_term(a, s, i, sig, domain, t.symbol))
    return errors


def check_formula(phi: Formula, sig: Signature, domain: Domain) -> list[SortMismatch]:
    """Collect every sort error in the formula; an empty list means well-sorted."""
    errors: list[SortMismatch] = []

    def walk_bodies(t: Term) -> None:
        # reified formulas are checked wherever they sit in the argument tree
        if isinstance(t, Abstracted):
            walk(t.body)
        elif isinstance(t, FnApp):
            for a in t.args:
                walk_bodies(a)

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            sorts = sig.predicate_sorts(f.pred)
            if len(sorts) != len(f.args):
                raise UnknownSymbol(f"predicate {f.pred!r} expects {len(sorts)} args")
            for i, (a, s) in enumerate(zip(f.args, sorts), start=1):
                errors.extend(_check_term(a, s, i, sig, domain, f.pred))
                walk_bodies(a)
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, And):
            for part in f.parts:
                walk(part)
        else:
            if f.var.sort not in domain.lattice:
                raise UnknownSort(f.var.sort)
            walk(f.body)

    walk(phi)
    return errors


def dynamic_soundness(t: Term, g: dict, world: "World") -> None:
    """Evaluate t in a world and require the value's dynamic sort at or below
    the term's static sort; raise SortViolation with the witness otherwise.

    Nested-sentence positions have no element-level extent, so for abstraction
    terms the check is structural: the value must be an intensional element of
    the matching layer.
    """
    from .kernel import Intension
    from .semantics import eval_term

    space = world.space
    value = eval_term(t, g, world)
    expected = static_sort(t, space.signature, space.domain)
    if isinstance(t, Abstracted):
        if not isinstance(value, Intension) or value.arity != len(t.alpha):
            raise SortViolation(f"abstraction value {value!r} is not a {len(t.alpha)}-ary intension")
        return
    found = space.domain.dynamic_sort(value)
    if not space.domain.lattice.is_subsort(found, expected):
        raise SortViolation(
            f"value {value!r} has dynamic sort {found!r}, not a subsort of {expected!r}")
