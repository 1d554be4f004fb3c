"""Structured domain of particulars, propositions and relation concepts.

The kernel owns the finite IS-A lattice of sorts (bounded by "everything" and
"empty set"), the concept table, and the pool of declared domain elements with
their dynamic sorts.  Everything here is built once while a workspace loads and
is immutable afterwards; evaluation layers only read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    CycleDetected,
    DuplicateName,
    InfiniteExtent,
    NestedSentenceSortHasNoElements,
    NotARelationalConcept,
    UnknownAttributeSort,
    UnknownSort,
    ZeroArityNonProposition,
)

SortId = str

TOP_SORT: SortId = "everything"
BOTTOM_SORT: SortId = "empty set"
TRUTH_VALUES_SORT: SortId = "truth values"
NESTED_SENTENCE_SORT: SortId = "nested sentence"

RESERVED_SORTS = (TOP_SORT, BOTTOM_SORT, TRUTH_VALUES_SORT, NESTED_SENTENCE_SORT)

# Numeric sorts recognised by name.  They are infinite unless the workspace
# declares a finite override extent; ordered most specific first.
NUMERIC_SORTS = ("naturals", "integers", "rationals", "reals")

VERB_FORM_SORT: SortId = "verb-form"
VERB_FORMS = ("past", "present", "future", "gerund")


@dataclass(frozen=True)
class Concept:
    """A named k-ary relation concept; its attribute list fixes the arity."""

    name: str
    arity: int
    attribute_sorts: tuple[SortId, ...]

    def __post_init__(self) -> None:
        if self.arity != len(self.attribute_sorts):
            raise ValueError(f"arity {self.arity} != {len(self.attribute_sorts)} attributes")

    def render(self) -> str:
        if not self.attribute_sorts:
            return self.name
        return f"{self.name}:{','.join(self.attribute_sorts)}"


class SortLattice:
    """Finite IS-A partial order with materialised reflexive-transitive closure.

    Each node keeps its up-set, the sorts at or above it.  "empty set" and
    "everything" bound every node.  The closure is updated per edge, never
    recomputed: a new node starts at {itself, "everything"} and joins the
    up-set of "empty set"; an edge sub ⊑ sup adds the up-set of sup to every
    up-set that holds sub (Italiano's incremental transitive closure).
    """

    def __init__(self) -> None:
        self._nodes: list[SortId] = []
        self._edges: set[tuple[SortId, SortId]] = set()
        self._up: dict[SortId, frozenset[SortId]] = {}
        for name in RESERVED_SORTS:
            self.declare(name)

    @property
    def nodes(self) -> tuple[SortId, ...]:
        return tuple(self._nodes)

    @property
    def isa_edges(self) -> frozenset[tuple[SortId, SortId]]:
        return frozenset(self._edges)

    def __contains__(self, name: SortId) -> bool:
        return name in self._up

    def declare(self, name: SortId) -> None:
        if name in self._up:
            raise DuplicateName(f"sort {name!r} already declared")
        self._nodes.append(name)
        self._up[name] = frozenset((name, TOP_SORT))
        if BOTTOM_SORT in self._up:
            self._up[BOTTOM_SORT] |= {name}

    def add_edge(self, sub: SortId, sup: SortId) -> None:
        if sub not in self._up:
            raise UnknownSort(sub)
        if sup not in self._up:
            raise UnknownSort(sup)
        if NESTED_SENTENCE_SORT in (sub, sup):
            raise UnknownSort("'nested sentence' takes part in no IS-A edge")
        if sub != sup and sub in self._up[sup]:
            raise CycleDetected(f"{sup} ⊑ {sub} already holds; adding {sub} ⊑ {sup} forms a cycle")
        self._edges.add((sub, sup))
        above = self._up[sup]
        for n, up in self._up.items():
            if sub in up:
                self._up[n] = up | above

    def is_subsort(self, s1: SortId, s2: SortId) -> bool:
        if s1 not in self._up:
            raise UnknownSort(s1)
        if s2 not in self._up:
            raise UnknownSort(s2)
        return s2 in self._up[s1]

    def supersorts(self, s: SortId) -> frozenset[SortId]:
        if s not in self._up:
            raise UnknownSort(s)
        return self._up[s]

    def subsorts(self, s: SortId) -> frozenset[SortId]:
        if s not in self._up:
            raise UnknownSort(s)
        return frozenset(n for n in self._nodes if s in self._up[n])


# --- domain elements ---------------------------------------------------------

# A numeric value: an `int` when integral, a `Fraction` otherwise.
Number = Union[int, Fraction]


@dataclass(frozen=True, eq=False)
class Particular:
    """An individual: a lexeme plus its unique dynamic sort.

    Particulars compare and hash by identity.  A `Domain` is the only place
    that builds them, and it interns each one by lexeme (declared or
    materialised by arithmetic), so within one domain identity is the same
    as equal lexeme and sort.  A membership test on a relation then hashes a
    pointer instead of running a Python `__hash__` over the fields.
    Particulars of two different domains never compare equal.
    """

    lexeme: str
    sort: SortId
    value: Optional[Number] = None


@dataclass(frozen=True)
class ConceptRef:
    """A concept reified as a domain element."""

    concept: Concept


@dataclass(frozen=True)
class Intension:
    """A proposition (arity 0) or derived concept produced by interpretation.

    Identity is the normalized-syntax fingerprint; `origin` keeps the formula
    whose per-world evaluation yields the element's extension.
    """

    fingerprint: str
    arity: int
    origin: object = field(compare=False, hash=False)


Element = Particular | ConceptRef | Intension


def exact_number(value: Number) -> Number:
    """The value as an `int` when integral, else the `Fraction` itself."""
    return value.numerator if value.denominator == 1 else value


def numeric_value(lexeme: str) -> Optional[Number]:
    """Parse a numeric lexeme (integer, decimal or num/den) exactly, else None;
    an integral value comes back as an `int`."""
    try:
        return exact_number(Fraction(lexeme))
    except (ValueError, ZeroDivisionError):
        return None


def numeric_lexeme(value: Number) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def element_lexeme(el: Element) -> str:
    if isinstance(el, Particular):
        return el.lexeme
    if isinstance(el, ConceptRef):
        return el.concept.name
    return el.fingerprint


class Domain:
    """Sort lattice, concept table and the fixed pool of declared elements.

    Dynamic sorts are total: particulars carry their declared sort, propositions
    sit at "truth values", reified concepts at their own sort per the static
    sort rules.  Numeric particulars materialised during evaluation are interned
    but stay out of the quantifier pools, which are frozen at load time.
    """

    def __init__(self) -> None:
        self.lattice = SortLattice()
        self.concepts: dict[str, Concept] = {}
        self._pool: list[Particular] = []
        self._by_lexeme: dict[str, Particular] = {}
        self._transient: dict[str, Particular] = {}
        self._finite_numeric: set[SortId] = set()
        self._valid_cache: dict[SortId, tuple[Particular, ...]] = {}
        # raised by every declaration, which only ever adds (see `Structure.stamp`)
        self.declarations = 0
        for name in RESERVED_SORTS:
            self.concepts[name] = Concept(name, 1, (name,))
        # Truth-value extent is fixed: f is the empty set, t the singleton tuple.
        for tv in ("f", "t"):
            self._add_particular(Particular(tv, TRUTH_VALUES_SORT))

    # --- declarations ---------------------------------------------------

    def declare_sort(self, name: str, arity: int, attribute_sorts: Iterable[SortId]) -> Concept:
        attrs = tuple(attribute_sorts)
        if arity == 0:
            raise ZeroArityNonProposition(
                f"{name!r}: arity 0 is reserved for propositions created by interpretation")
        if name in self.concepts:
            raise DuplicateName(f"concept {name!r} already declared")
        for s in attrs:
            if s == BOTTOM_SORT:
                raise UnknownAttributeSort(f"{name!r}: attribute sort may not be 'empty set'")
            if s != NESTED_SENTENCE_SORT and s != name and s not in self.lattice:
                raise UnknownAttributeSort(f"{name!r}: unknown attribute sort {s!r}")
        concept = Concept(name, arity, attrs)
        self.lattice.declare(name)
        self.concepts[name] = concept
        self.declarations += 1
        if name == VERB_FORM_SORT:
            for form in VERB_FORMS:
                self._add_particular(Particular(form, VERB_FORM_SORT))
        return concept

    def declare_isa(self, sub: SortId, sup: SortId) -> None:
        self.lattice.add_edge(sub, sup)
        self._valid_cache.clear()
        self.declarations += 1

    def is_subsort(self, s1: SortId, s2: SortId) -> bool:
        return self.lattice.is_subsort(s1, s2)

    def declare_particular(self, lexeme: str, sort: SortId) -> Particular:
        if sort not in self.lattice:
            raise UnknownSort(sort)
        if sort == NESTED_SENTENCE_SORT:
            raise NestedSentenceSortHasNoElements(lexeme)
        if lexeme in self._by_lexeme:
            existing = self._by_lexeme[lexeme]
            if existing.sort != sort and not self.lattice.is_subsort(existing.sort, sort):
                raise DuplicateName(f"particular {lexeme!r} already has sort {existing.sort!r}")
            return existing
        value = numeric_value(lexeme)
        if value is not None and sort in NUMERIC_SORTS:
            # Numeric reading: the dynamic sort comes from the numeric tower
            # (integral values sit at the integer sort even when declared at a
            # wider one) and the declaration finitizes the named sort.
            p = self.numeric_particular(value)
            self._add_particular(p)
            self._finite_numeric.add(sort)
            if p.sort != sort and not self.lattice.is_subsort(p.sort, sort):
                raise UnknownSort(f"numeric lexeme {lexeme!r} cannot carry sort {sort!r}")
            return p
        p = Particular(lexeme, sort, value)
        self._add_particular(p)
        return p

    def declare_extent(self, sort: SortId, lexemes: Iterable[str]) -> None:
        """Bulk particular declaration; on a numeric sort it is the finite override."""
        if sort not in self.lattice:
            raise UnknownSort(sort)
        if sort in NUMERIC_SORTS:
            self._finite_numeric.add(sort)
            self._valid_cache.clear()
            self.declarations += 1
        for lex in lexemes:
            self.declare_particular(lex, sort)

    def _add_particular(self, p: Particular) -> None:
        if p.lexeme not in self._by_lexeme:
            self._pool.append(p)
            self._by_lexeme[p.lexeme] = p
            self._valid_cache.clear()
            self.declarations += 1

    # --- numeric elements -------------------------------------------------

    def numeric_sort_of(self, value: Number) -> SortId:
        """Most specific declared numeric sort containing the value."""
        candidates: list[SortId] = []
        if value.denominator == 1:
            if value >= 0:
                candidates.append("naturals")
            candidates.append("integers")
        candidates.extend(["rationals", "reals"])
        for s in candidates:
            if s in self.lattice:
                return s
        raise UnknownSort(f"no numeric sort declared for value {value}")

    def sorts_every_number(self) -> bool:
        """Whether `numeric_sort_of` finds every number a sort: rationals or reals exist."""
        return "rationals" in self.lattice or "reals" in self.lattice

    def numeric_particular(self, value: Number) -> Particular:
        lex = numeric_lexeme(value)
        cached = self._by_lexeme.get(lex) or self._transient.get(lex)
        if cached is not None:
            return cached
        value = exact_number(value)
        p = Particular(lex, self.numeric_sort_of(value), value)
        self._transient[lex] = p
        return p

    def lookup(self, lexeme: str) -> Optional[Particular]:
        p = self._by_lexeme.get(lexeme)
        if p is not None:
            return p
        value = numeric_value(lexeme)
        if value is not None:
            return self.numeric_particular(value)
        return None

    # --- element views ------------------------------------------------------

    def dynamic_sort(self, el: Element) -> SortId:
        if isinstance(el, Particular):
            return el.sort
        if isinstance(el, Intension):
            return TRUTH_VALUES_SORT if el.arity == 0 else TOP_SORT
        c = el.concept
        if c.arity == 1:
            return c.attribute_sorts[0]
        # a canonical subconcept is no lattice node; like a derived concept it
        # sits at the top
        return c.name if c.name in self.concepts else TOP_SORT

    def all_particulars(self) -> tuple[Particular, ...]:
        return tuple(sorted(self._pool, key=lambda p: p.lexeme))

    def valid_elements(self, sort: SortId) -> tuple[Particular, ...]:
        """Declared elements whose dynamic sort lies at or below `sort`,
        ordered by lexeme so iteration never depends on declaration order."""
        cached = self._valid_cache.get(sort)
        if cached is not None:
            return cached
        if sort not in self.lattice:
            raise UnknownSort(sort)
        if sort == NESTED_SENTENCE_SORT:
            raise NestedSentenceSortHasNoElements(sort)
        if self._is_infinite(sort):
            raise InfiniteExtent(f"sort {sort!r} has no finite extent declared")
        if sort == TOP_SORT:
            found = self.all_particulars()
        else:
            found = tuple(sorted((p for p in self._pool
                                  if self.lattice.is_subsort(p.sort, sort)),
                                 key=lambda p: p.lexeme))
        self._valid_cache[sort] = found
        return found

    def _is_infinite(self, sort: SortId) -> bool:
        if sort not in NUMERIC_SORTS:
            return False
        if sort in self._finite_numeric:
            return False
        return not any(sup in self._finite_numeric
                       for sup in self.lattice.supersorts(sort) if sup in NUMERIC_SORTS)

    def sort_is_finite(self, sort: SortId) -> bool:
        return sort in self.lattice and sort != NESTED_SENTENCE_SORT and not self._is_infinite(sort)

    def tuple_pool(self, sorts: Sequence[SortId]) -> list[tuple[Element, ...]]:
        """Every tuple over the sorts' pools, lexicographic by lexeme because
        each pool is in lexeme order.  A nested-sentence position empties it,
        but the sorts before it are still read, so an infinite one raises."""
        per_position: list[tuple[Element, ...]] = []
        for s in sorts:
            if s == NESTED_SENTENCE_SORT:
                return []
            per_position.append(self.valid_elements(s))
        return list(itertools.product(*per_position))

    def pool_is_finite(self, sorts: Sequence[SortId]) -> bool:
        """Whether `tuple_pool` of the sorts returns without raising: every
        sort before the first nested-sentence position is finite."""
        for s in sorts:
            if s == NESTED_SENTENCE_SORT:
                return True
            if not self.sort_is_finite(s):
                return False
        return True

    def finite_numeric_sorts(self) -> tuple[SortId, ...]:
        return tuple(sorted(self._finite_numeric))

    def derived_sort_extent(self, concept: Concept, world=None) -> set[str]:
        """Name-level extent of a relational concept used as a single sort.

        Collects the names of its relational subconcepts and, for each unary
        leaf subconcept, the concatenations of the leaf's name with the members
        of its attribute sort's extent (taken in `world` when one is given).
        """
        if concept.arity < 2:
            raise NotARelationalConcept(concept.name)
        out: set[str] = set()
        for sub in self.lattice.subsorts(concept.name):
            if sub in (concept.name, BOTTOM_SORT):
                continue
            c = self.concepts.get(sub)
            if c is None:
                continue
            if c.arity >= 2:
                out.add(c.name)
            elif c.arity == 1:
                attr = c.attribute_sorts[0]
                if attr in self.lattice and self.sort_is_finite(attr):
                    if world is not None:
                        members = world.sort_extent(attr)
                    else:
                        members = self.valid_elements(attr)
                    out.update(f"{c.name} {element_lexeme(p)}" for p in members)
        return out
