"""Intensional interpretation and the predicate / concept correspondence.

Every registered predicate is placed in bijection with a named relation
concept.  Partially assigning the predicate's variables yields canonical
subconcepts whose names append the assigned value lexemes in variable order,
which keeps the bijection intact under the Unique Name Assumption.  Open
formulas and sentences interpret into derived concepts and propositions keyed
by a normalized-syntax fingerprint, so interpretation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    DuplicateName,
    DuplicatePhrase,
    EmptyAssignment,
    FullAssignment,
    InfiniteSortExtent,
    SortViolation,
    UnknownSymbol,
    UnregisteredPredicate,
)
from .kernel import (
    Concept,
    ConceptRef,
    Domain,
    Element,
    Intension,
    NESTED_SENTENCE_SORT,
    Particular,
    SortId,
)
from .sorting import Signature
from .syntax import (
    Abstracted,
    Atom,
    Const,
    Formula,
    TOP,
    Term,
    Var,
    free_vars,
    normalize,
)

TRUTH = Intension(normalize(TOP), 0, origin=TOP)


@dataclass
class TreeNode:
    concept: Concept
    children: list["TreeNode"] = field(default_factory=list)


class ConceptRegistry:
    """Bijection between predicate symbols and relation concepts, plus the
    canonical subconcepts generated from partial assignments.

    Predicates are registered at load time.  Canonical subconcepts are made
    lazily during evaluation, the first time a partial assignment reaches
    them, and live only here, in the per-predicate cache and its inverse:
    they never enter the sort lattice or the domain's concept table, so
    evaluation leaves the declarations unchanged.
    """

    def __init__(self, domain: Domain, signature: Signature):
        self.domain = domain
        self.signature = signature
        self.by_predicate: dict[str, Concept] = {}
        self.by_concept: dict[str, str] = {}
        self.subconcepts: dict[str, dict[tuple[tuple[int, str], ...], Concept]] = {}
        self._subconcept_home: dict[str, tuple[str, tuple[tuple[int, str], ...]]] = {}

    def register_predicate_concept(self, pred: str, phrase: str,
                                   sorts: Sequence[SortId]) -> Concept:
        declared = self.signature.predicate_sorts(pred)
        sorts = tuple(sorts)
        if len(declared) != len(sorts) or declared != sorts:
            raise ArityMismatch(
                f"predicate {pred!r} is declared at {declared}, got {sorts}")
        if pred in self.by_predicate:
            raise DuplicatePhrase(f"predicate {pred!r} already names {self.by_predicate[pred].name!r}")
        if phrase in self.by_concept or phrase in self.domain.concepts:
            raise DuplicatePhrase(f"concept {phrase!r} already declared")
        try:
            concept = self.domain.declare_sort(phrase, len(sorts), sorts)
        except DuplicateName as exc:
            raise DuplicatePhrase(str(exc)) from None
        self.by_predicate[pred] = concept
        self.by_concept[phrase] = pred
        self.subconcepts[pred] = {}
        return concept

    def concept_of(self, pred: str) -> Concept:
        try:
            return self.by_predicate[pred]
        except KeyError:
            raise UnregisteredPredicate(f"predicate {pred!r} names no concept") from None

    # --- canonical subconcepts -------------------------------------------

    def canonical_subconcept(self, pred: str, partial: Mapping[int, Particular]) -> Concept:
        """The subconcept reached by fixing the given argument positions.

        Positions are 0-based; the name lists value lexemes in variable order,
        never in binding order, so equal mappings give the identical concept.
        """
        root = self.concept_of(pred)
        if not partial:
            raise EmptyAssignment(pred)
        if len(partial) >= root.arity:
            raise FullAssignment(
                f"assigning every variable of {pred!r} yields a proposition")
        for pos, value in partial.items():
            if pos < 0 or pos >= root.arity:
                raise ArityMismatch(f"position {pos} out of range for {pred!r}")
            want = root.attribute_sorts[pos]
            if want == NESTED_SENTENCE_SORT or not self.domain.lattice.is_subsort(value.sort, want):
                raise SortViolation(
                    f"{value.lexeme!r} has sort {value.sort!r}, position {pos} wants {want!r}")
        key = tuple(sorted((pos, value.lexeme) for pos, value in partial.items()))
        cache = self.subconcepts[pred]
        found = cache.get(key)
        if found is not None:
            return found
        bound = dict(key)
        name = " ".join([root.name] + [bound[i] for i in sorted(bound)])
        rest = tuple(s for i, s in enumerate(root.attribute_sorts) if i not in bound)
        if name in self.domain.concepts:
            raise DuplicateName(f"canonical name {name!r} collides with a declared concept")
        home = self._subconcept_home.get(name)
        if home is not None:
            raise DuplicateName(f"canonical name {name!r} collides with a canonical "
                                f"subconcept of predicate {home[0]!r}")
        concept = Concept(name, len(rest), rest)
        cache[key] = concept
        self._subconcept_home[name] = (pred, key)
        return concept

    def atom_pattern(self, concept: Concept) -> tuple[str, dict[int, str]]:
        """Inverse of the bijection: the predicate and fixed positions behind a
        registered concept or canonical subconcept."""
        if concept.name in self.by_concept:
            return self.by_concept[concept.name], {}
        home = self._subconcept_home.get(concept.name)
        if home is None:
            raise UnregisteredPredicate(f"concept {concept.name!r} has no predicate")
        pred, key = home
        return pred, dict(key)

    def subconcept_tree(self, pred: str) -> TreeNode:
        """Tree of subconcepts under the predicate-concept.

        Children bind one further variable, always at a position after the last
        bound one, so every canonical subconcept appears exactly once.  Nodes
        keep at least one variable free; unary subconcepts are the leaves.
        """
        root = self.concept_of(pred)
        extents: list[tuple[Particular, ...]] = []
        for s in root.attribute_sorts:
            if s == NESTED_SENTENCE_SORT:
                extents.append(())
                continue
            if not self.domain.sort_is_finite(s):
                raise InfiniteSortExtent(s)
            extents.append(self.domain.valid_elements(s))

        def expand(node: TreeNode, partial: dict[int, Particular], last: int) -> None:
            if len(partial) + 1 >= root.arity:
                return
            for pos in range(last + 1, root.arity):
                for value in extents[pos]:
                    child_partial = dict(partial)
                    child_partial[pos] = value
                    child = TreeNode(self.canonical_subconcept(pred, child_partial))
                    node.children.append(child)
                    expand(child, child_partial, pos)

        tree = TreeNode(root)
        expand(tree, {}, -1)
        return tree


class Interpretation:
    """The fixed mapping from formulas, constants and ground abstraction terms
    into the structured domain.  Memoized on normalized fingerprints, so equal
    inputs always return the identical element."""

    def __init__(self, domain: Domain, registry: ConceptRegistry):
        self.domain = domain
        self.registry = registry
        self.truth = TRUTH
        self._memo: dict[tuple[str, int], Intension] = {(TRUTH.fingerprint, 0): TRUTH}

    def _intern(self, fingerprint: str, arity: int, origin: Formula) -> Intension:
        key = (fingerprint, arity)
        found = self._memo.get(key)
        if found is None:
            found = Intension(fingerprint, arity, origin=origin)
            self._memo[key] = found
        return found

    def of_constant(self, symbol: str) -> Element:
        p = self.domain.lookup(symbol)
        if p is None:
            raise UnknownSymbol(f"constant {symbol!r}")
        return p

    def of_ground_term(self, t: Term) -> Element:
        if isinstance(t, Const):
            return self.of_constant(t.symbol)
        if isinstance(t, Abstracted):
            if t.beta:
                raise UnknownSymbol("abstraction term with nonempty beta is not ground")
            # the alpha variables are exactly the body's free variables, so the
            # value lands in the layer |alpha| (the proposition layer when the
            # body is a sentence); atoms of registered predicates land on their
            # concept or canonical subconcept per the bijection
            return self.of_formula(t.body)
        raise UnknownSymbol(f"not a ground term: {t!r}")

    def of_formula(self, phi: Formula) -> Element:
        """Sentence -> proposition; open formula with k free variables -> k-ary
        concept.  Atoms of registered predicates land on the registered concept
        or the canonical subconcept their fixed arguments select."""
        fv = free_vars(phi)
        if isinstance(phi, Atom) and phi.pred in self.registry.by_predicate:
            routed = self._registered_atom(phi, fv)
            if routed is not None:
                return routed
        return self._intern(normalize(phi), len(fv), origin=phi)

    def _registered_atom(self, phi: Atom, fv: tuple) -> Optional[Element]:
        """The concept an atom over distinct variables lands on, each of the
        attribute sort at its position, with any constants fixed; None for
        any other atom, whose meaning is a derived concept (over a subsort
        variable it keeps only the subsort's tuples)."""
        concept = self.registry.concept_of(phi.pred)
        seen_vars = []
        partial: dict[int, Particular] = {}
        for pos, arg in enumerate(phi.args):
            if isinstance(arg, Var):
                if arg.var in seen_vars or arg.var.sort != concept.attribute_sorts[pos]:
                    return None
                seen_vars.append(arg.var)
            elif isinstance(arg, Const):
                p = self.domain.lookup(arg.symbol)
                if p is None:
                    return None
                partial[pos] = p
            else:
                return None
        if not partial:
            return ConceptRef(concept)
        if not seen_vars:
            return None  # ground atom: falls through to the proposition path
        return ConceptRef(self.registry.canonical_subconcept(phi.pred, partial))
