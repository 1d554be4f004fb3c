"""Exception hierarchy for the ifol engine.

Loading, sort checking and evaluation report failures through these classes so
the CLI can render them uniformly and tests can assert on the precise cause.
"""

from __future__ import annotations


class IfolError(Exception):
    """Base class for every error raised by the engine."""


# --- workspace / declaration errors -----------------------------------------

class DuplicateName(IfolError):
    pass


class DuplicatePhrase(IfolError):
    pass


class UnknownSort(IfolError):
    pass


class UnknownAttributeSort(IfolError):
    pass


class UnknownSymbol(IfolError):
    pass


class CycleDetected(IfolError):
    pass


class ZeroArityNonProposition(IfolError):
    pass


class NotARelationalConcept(IfolError):
    pass


class NestedSentenceSortHasNoElements(IfolError):
    pass


class ArityMismatch(IfolError):
    pass


# --- syntax errors -----------------------------------------------------------

class AlphaBetaOverlap(IfolError):
    pass


class UncoveredFreeVariable(IfolError):
    pass


class EmptyAlphaWithFreeVars(IfolError):
    pass


class VariableCapture(IfolError):
    pass


class UnboundVariable(IfolError):
    pass


# --- sort checking -----------------------------------------------------------

class SortMismatch(IfolError):
    def __init__(self, position: int, found: str, required: str, context: str = ""):
        self.position = position
        self.found = found
        self.required = required
        self.context = context
        super().__init__(f"arg{position}: found {found} required {required}"
                         + (f" in {context}" if context else ""))


class SortViolation(IfolError):
    pass


# --- concept registry ----------------------------------------------------------

class EmptyAssignment(IfolError):
    pass


class FullAssignment(IfolError):
    pass


class UnregisteredPredicate(IfolError):
    pass


class InfiniteSortExtent(IfolError):
    pass


# --- evaluation ----------------------------------------------------------------

class InfiniteExtent(IfolError):
    pass


class InfiniteHiddenDomain(IfolError):
    pass


class ExplosionGuard(IfolError):
    pass


class FunctionUndefinedAt(IfolError):
    pass


class EvaluationFailure(IfolError):
    pass


# --- file loading ----------------------------------------------------------------

class ParseError(IfolError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line and col:
            message = f"line {line}:{col}: {message}"
        elif line:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(IfolError):
    """Carries every validation diagnostic for an atomically rejected file."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
