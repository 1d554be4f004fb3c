"""Many-sorted intensional first-order logic engine.

Parse, sort-check and evaluate formulas with abstraction terms over finite
structured domains; enumerate possible worlds and decide logical consequence
under both the Tarski and the Kripke route, verifying their agreement.
"""

from .concepts import ConceptRegistry, Interpretation, TRUTH
from .errors import IfolError
from .kernel import (
    BOTTOM_SORT,
    Concept,
    ConceptRef,
    Domain,
    Intension,
    NESTED_SENTENCE_SORT,
    Particular,
    SortLattice,
    TOP_SORT,
    TRUTH_VALUES_SORT,
)
from .semantics import (
    Structure,
    World,
    bealer_montague_check,
    consequence,
    eval_atom,
    eval_term,
    montague_intension,
    satisfies,
    tarski_eval,
)
from .sorting import Signature, check_formula, check_term, static_sort
from .syntax import (
    Abstracted,
    And,
    Atom,
    Const,
    Exists,
    FnApp,
    Formula,
    Not,
    TOP,
    Term,
    Var,
    Variable,
    format_formula,
    free_vars,
    ground_instance,
    mk_abstracted,
    normalize,
    substitute,
)
from .workspace import Workspace, load_workspace, render_workspace
from .worlds import enumerate_worlds

__all__ = [
    "Abstracted", "And", "Atom", "BOTTOM_SORT", "Concept", "ConceptRef",
    "ConceptRegistry", "Const", "Domain", "Exists", "FnApp", "Formula",
    "IfolError", "Intension", "Interpretation",
    "NESTED_SENTENCE_SORT", "Not", "Particular", "Signature", "SortLattice",
    "Structure", "TOP", "TOP_SORT", "TRUTH", "TRUTH_VALUES_SORT", "Term", "Var",
    "Variable", "World", "Workspace", "bealer_montague_check", "check_formula",
    "check_term", "consequence", "enumerate_worlds", "eval_atom", "eval_term",
    "format_formula", "free_vars", "ground_instance", "load_workspace",
    "mk_abstracted", "montague_intension", "normalize", "render_workspace",
    "satisfies", "static_sort", "substitute", "tarski_eval",
]
