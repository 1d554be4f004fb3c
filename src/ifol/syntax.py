"""Abstract syntax of sorted formulas and terms, including abstraction terms.

Terms and formulas are immutable values.  An abstraction term reifies a formula
as a term: its `alpha` variables are hidden and its `beta` variables stay
externally quantifiable; both are kept in first-appearance order.  Only the
primitive connectives not / and / exists appear here -- anything else is parser
sugar expanded before evaluation.  `&` is n-ary: one `And` node holds a whole
run of conjuncts, so every walker loops over a formula's width and recurses
only over its depth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    AlphaBetaOverlap,
    EmptyAlphaWithFreeVars,
    UnboundVariable,
    UncoveredFreeVariable,
    VariableCapture,
)
from .kernel import NESTED_SENTENCE_SORT, SortId, numeric_value

_BARE_CONST = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")


@dataclass(frozen=True)
class Variable:
    name: str
    sort: SortId

    def __post_init__(self) -> None:
        if self.sort == NESTED_SENTENCE_SORT:
            raise ValueError(f"variable {self.name!r} may not have the nested-sentence sort")


@dataclass(frozen=True)
class Var:
    var: Variable


@dataclass(frozen=True)
class Const:
    symbol: str


@dataclass(frozen=True)
class FnApp:
    symbol: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Abstracted:
    body: "Formula"
    alpha: tuple[Variable, ...]
    beta: tuple[Variable, ...]


Term = Var | Const | FnApp | Abstracted


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True, init=False)
class And:
    """A conjunction of two or more parts, none of them a conjunction: a part
    that is one is spliced in when the node is built, so `And(And(a, b), c)`
    and `And(a, And(b, c))` are the one node `And(a, b, c)`."""

    parts: tuple["Formula", ...]

    def __init__(self, *parts: "Formula"):
        flat = parts if And not in map(type, parts) else tuple(
            q for p in parts for q in (p.parts if isinstance(p, And) else (p,)))
        if len(flat) < 2:
            raise ValueError("a conjunction has at least two parts")
        object.__setattr__(self, "parts", flat)


@dataclass(frozen=True)
class Exists:
    var: Variable
    body: "Formula"


Formula = Atom | Not | And | Exists

# The tautology: a built-in nullary atom, always true, interpreted as Truth.
TOP = Atom("true", ())


def negations(f: Formula) -> tuple[Formula, bool]:
    """f with its leading `~`s stripped, and whether their number is odd."""
    odd = False
    while isinstance(f, Not):
        f, odd = f.sub, not odd
    return f, odd


def free_vars(node: Formula | Term) -> tuple[Variable, ...]:
    """Free variables of a formula or a term, in first-appearance order.

    An abstraction term contributes only its beta variables: the alpha ones are
    hidden inside the reified formula.
    """
    out: list[Variable] = []
    seen: set[Variable] = set()

    def add(v: Variable, bound: frozenset[Variable]) -> None:
        if v not in bound and v not in seen:
            seen.add(v)
            out.append(v)

    def walk(n: Formula | Term, bound: frozenset[Variable]) -> None:
        if isinstance(n, Var):
            add(n.var, bound)
        elif isinstance(n, (Atom, FnApp)):
            for t in n.args:
                walk(t, bound)
        elif isinstance(n, Abstracted):
            for v in n.beta:
                add(v, bound)
        elif isinstance(n, Not):
            walk(n.sub, bound)
        elif isinstance(n, And):
            for part in n.parts:
                walk(part, bound)
        elif isinstance(n, Exists):
            walk(n.body, bound | {n.var})

    walk(node, frozenset())
    return tuple(out)


def mk_abstracted(body: Formula, alpha: Iterable[Variable], beta: Iterable[Variable]) -> Abstracted:
    """Reify `body` as a term hiding `alpha` and exposing `beta`.

    alpha and beta must partition the free variables of the body; both are
    reordered to first-appearance order.  alpha may be empty when beta covers
    every free variable -- grounding beta then lands the value among the
    propositions.
    """
    a, b = tuple(alpha), tuple(beta)
    if set(a) & set(b):
        raise AlphaBetaOverlap(f"{sorted(v.name for v in set(a) & set(b))}")
    fv = free_vars(body)
    if set(a) | set(b) != set(fv):
        missing = set(fv) - (set(a) | set(b))
        if missing:
            if not a and not b:
                raise EmptyAlphaWithFreeVars(
                    f"open formula needs alpha or beta to cover {sorted(v.name for v in missing)}")
            raise UncoveredFreeVariable(f"missing: {sorted(v.name for v in missing)}")
        extra = (set(a) | set(b)) - set(fv)
        raise UncoveredFreeVariable(f"not free in body: {sorted(v.name for v in extra)}")
    order = {v: i for i, v in enumerate(fv)}
    return Abstracted(body,
                      tuple(sorted(a, key=order.__getitem__)),
                      tuple(sorted(b, key=order.__getitem__)))


def substitute(phi: Formula, mapping: dict[Variable, Term]) -> Formula:
    """Capture-avoiding simultaneous replacement of every free occurrence of
    each variable in `mapping` by its term, in one walk.

    Occurrences among an abstraction term's beta variables are replaced inside
    the reified body and the beta list is rebuilt from the new free variables.
    """
    incoming = {x: set(free_vars(t)) for x, t in mapping.items()}

    def sub_term(term: Term, bound: frozenset[Variable]) -> Term:
        if isinstance(term, Var):
            return term if term.var in bound else mapping.get(term.var, term)
        if isinstance(term, Const):
            return term
        if isinstance(term, FnApp):
            return FnApp(term.symbol, tuple(sub_term(a, bound) for a in term.args))
        hit = [x for x in term.beta if x in mapping and x not in bound]
        if not hit:
            return term
        hidden = set(term.alpha)
        for x in hit:
            if incoming[x] & hidden:
                raise VariableCapture(
                    f"{x.name} -> term whose variables are hidden by the abstraction")
        new_body = sub(term.body, bound | hidden)
        keep = {v for v in term.beta if v not in hit}.union(*(incoming[x] for x in hit))
        return Abstracted(new_body, term.alpha,
                          tuple(v for v in free_vars(new_body) if v in keep))

    def sub(f: Formula, bound: frozenset[Variable]) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(sub_term(a, bound) for a in f.args))
        if isinstance(f, Not):
            return Not(sub(f.sub, bound))
        if isinstance(f, And):
            return And(*(sub(part, bound) for part in f.parts))
        for x, t_vars in incoming.items():
            if f.var in t_vars and x != f.var and x not in bound \
                    and x in free_vars(f.body):
                raise VariableCapture(f"{x.name} -> {f.var.name} bound by exists")
        return Exists(f.var, sub(f.body, bound | {f.var}))

    return sub(phi, frozenset())


def ground_instance(phi: Formula, g: dict[Variable, str]) -> Formula:
    """phi/g: replace each free variable by a constant naming its assigned element.

    Beta variables of abstraction terms are replaced inside the reified body and
    removed from beta; hidden alpha variables stay free in there.
    """
    fv = free_vars(phi)
    missing = [v for v in fv if v not in g]
    if missing:
        raise UnboundVariable(f"{sorted(v.name for v in missing)}")
    return substitute(phi, {v: Const(g[v]) for v in fv})


# --- normalization -------------------------------------------------------------

def normalize(phi: Formula) -> str:
    """Canonical fingerprint: connective tree, symbols, and variable indices.

    Free variables are numbered by first appearance (keeping their sorts), bound
    variables by binder depth, so alpha-equivalent formulas share a fingerprint.
    Variables first appearing inside an abstraction body continue the outer
    numbering, keeping cross-references between levels faithful.
    """
    counter = [0]

    def assign(v: Variable, names: dict[Variable, str]) -> None:
        if v not in names:
            names[v] = f"?{counter[0]}:{v.sort}"
            counter[0] += 1

    def norm_term(t: Term, names: dict[Variable, str], depth: int) -> str:
        if isinstance(t, Var):
            if t.var not in names:
                assign(t.var, names)
            return names[t.var]
        if isinstance(t, Const):
            return f"#{t.symbol}"
        if isinstance(t, FnApp):
            return f"{t.symbol}({','.join(norm_term(a, names, depth) for a in t.args)})"
        inner = dict(names)
        for v in free_vars(t.body):
            assign(v, inner)
        body = norm(t.body, inner, depth)
        a_ix = ",".join(inner[v] for v in t.alpha)
        b_ix = ",".join(inner[v] for v in t.beta)
        return f"abs[{a_ix};{b_ix}]({body})"

    def norm(f: Formula, names: dict[Variable, str], depth: int) -> str:
        if isinstance(f, Atom):
            return f"{f.pred}({','.join(norm_term(a, names, depth) for a in f.args)})"
        if isinstance(f, Not):
            return f"not({norm(f.sub, names, depth)})"
        if isinstance(f, And):
            return f"and({','.join(norm(part, names, depth) for part in f.parts)})"
        inner = dict(names)
        inner[f.var] = f"!{depth}:{f.var.sort}"
        return f"exists[!{depth}:{f.var.sort}]({norm(f.body, inner, depth + 1)})"

    names: dict[Variable, str] = {}
    for v in free_vars(phi):
        assign(v, names)
    return norm(phi, names, 0)


# --- concrete rendering ---------------------------------------------------------

def format_formula(phi: Formula) -> str:
    """Concrete text form that reparses to the same formula.

    Each variable is annotated with its sort at its first occurrence, matching
    the left-to-right scoping the parser applies.
    """
    seen: set[Variable] = set()

    def var(v: Variable, binder: bool = False) -> str:
        if binder or v not in seen:
            seen.add(v)
            return f"{v.name}:{_sort_token(v.sort)}"
        return v.name

    def term(t: Term) -> str:
        if isinstance(t, Var):
            return var(t.var)
        if isinstance(t, Const):
            if _BARE_CONST.fullmatch(t.symbol) or numeric_value(t.symbol) is not None:
                return t.symbol
            return f'"{t.symbol}"'
        if isinstance(t, FnApp):
            return f"{t.symbol}({', '.join(term(a) for a in t.args)})"
        parts = [f"<< {fmt(t.body)} >>"]
        if t.alpha:
            parts.append(f"|alpha: {', '.join(v.name for v in t.alpha)}")
        if t.beta:
            parts.append(f"|beta: {', '.join(v.name for v in t.beta)}")
        return " ".join(parts)

    def fmt(f: Formula) -> str:
        if isinstance(f, Atom):
            if f == TOP:
                return "true"
            return f"{f.pred}({', '.join(term(a) for a in f.args)})"
        if isinstance(f, Not):
            return f"~{wrap(f.sub)}"
        if isinstance(f, And):
            return " & ".join(map(wrap, f.parts))
        outer = f.var in seen
        text = f"exists {var(f.var, binder=True)} . {fmt(f.body)}"
        if not outer:
            # the binder's scope ends with its body: a later free use of the
            # same variable is a first use again and needs its sort
            seen.discard(f.var)
        return text

    def wrap(f: Formula) -> str:
        text = fmt(f)
        if isinstance(f, (And, Exists)):
            return f"({text})"
        return text

    return fmt(phi)


def _sort_token(sort: SortId) -> str:
    # Reserved sorts contain spaces; files refer to them by hyphenated aliases.
    return sort.replace(" ", "-")
