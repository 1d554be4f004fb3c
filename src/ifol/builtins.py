"""Decidable evaluators backing built-in predicates and functions.

Built-in symbols are declared in the workspace with an evaluator name from the
tables below; they are sort-checked like user symbols but evaluated by these
functions instead of world relations, so they behave identically in every
possible world.  All arithmetic is exact: values are Python `int`s when
integral and `Fraction`s otherwise.  Function evaluators take numeric
particulars or raw numbers alike, so compiled terms pass intermediate results
between them unboxed and box a value into a particular only where it leaves
arithmetic.  Comparisons are binary operators on raw numbers: a compiled
comparison unwraps, with `number_of`, only an argument that is not raw.

`TOTAL_FUNCTIONS` and `is_total` say where a function evaluator cannot raise
on raw numbers.  There both a relational plan's cells (`ifol.plan`) and a
Tarski column (`ifol.tarski`) apply its bare operator, which is exactly what
`apply_function` calls once its arguments are unwrapped.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import EvaluationFailure
from .kernel import Element, Number, Particular, element_lexeme, exact_number

_RAW = frozenset({int, Fraction})


def number_of(el: Union[Element, Number]) -> Number:
    """The raw number of a numeric particular; a raw number is itself."""
    if el.__class__ in _RAW:
        return el  # type: ignore[return-value]
    if isinstance(el, Particular) and el.value is not None:
        return el.value
    raise EvaluationFailure(f"{element_lexeme(el)!r} is not a numeric particular")


# The comparison evaluators; the other predicate evaluator is `true`.
COMPARISONS: dict[str, Callable[[Number, Number], bool]] = {
    "leq": operator.le,
    "lt": operator.lt,
    "geq": operator.ge,
    "gt": operator.gt,
    "eq": operator.eq,
}


def _div(a: Number, b: Number) -> Number:
    if b == 0:
        raise EvaluationFailure("division by zero")
    return exact_number(Fraction(a) / b)


def _pow(a: Number, b: Number) -> Number:
    if b.denominator != 1:
        raise EvaluationFailure(f"exponent {b} is not an integer")
    n = int(b)
    if n >= 0:
        return a ** n
    if a == 0:
        raise EvaluationFailure("division by zero")
    return exact_number(Fraction(a) ** n)


# The function evaluators that cannot raise on numbers, with their arity;
# `pow` only with a non-negative integer exponent (`is_total`).
TOTAL_FUNCTIONS: dict[str, tuple[int, Callable[..., Number]]] = {
    "add": (2, operator.add),
    "sub": (2, operator.sub),
    "mul": (2, operator.mul),
    "neg": (1, operator.neg),
    "pow": (2, operator.pow),
}
_FUNCTIONS = {**TOTAL_FUNCTIONS, "div": (2, _div), "pow": (2, _pow)}


def is_total(evaluator: str, exponent: Optional[Number]) -> bool:
    """Whether an application of `evaluator`, one of `TOTAL_FUNCTIONS` with
    its arity, cannot raise on raw numbers, given `exponent`, the value of
    its second argument where that is a numeric constant and None otherwise:
    always, but `pow` only with a non-negative integer exponent, where
    `operator.pow` agrees with `_pow` (it raises on a fractional exponent and
    on 0 to a negative one)."""
    return evaluator != "pow" or (exponent.__class__ is int and exponent >= 0)


def apply_function(evaluator: str, args: Sequence[Union[Element, Number]]) -> Number:
    """One built-in application: unwrap the arguments, left to right, and
    return the raw result."""
    try:
        arity, fn = _FUNCTIONS[evaluator]
    except KeyError:
        raise EvaluationFailure(f"unknown function evaluator {evaluator!r}") from None
    if len(args) != arity:
        raise EvaluationFailure(f"{evaluator} expects {arity} args, got {len(args)}")
    if arity == 2:  # the common case, unwrapped inline
        a, b = args
        return fn(a if a.__class__ in _RAW else number_of(a),
                  b if b.__class__ in _RAW else number_of(b))
    return fn(*map(number_of, args))


def known_predicate_evaluator(name: str) -> bool:
    return name == "true" or name in COMPARISONS


def known_function_evaluator(name: str) -> bool:
    return name in _FUNCTIONS
