"""Concrete formula syntax.

    p(t, ...)   ~f   f & f   f | f   f -> f   exists x:s . f   forall x:s . f
    << f >> |alpha: x,y |beta: z      abstraction term (also with unicode angles)

Terms are constants (bare identifiers, quoted lexemes, numbers), variables
(annotated with their sort at first use), function applications, and infix
arithmetic (+ - * ^) over the built-in function symbols add/sub/mul/pow.  Only
not / and / exists survive parsing; the other connectives expand immediately.
Binders never shadow: a reused name is renamed with a fresh prime suffix.

Infix operators, loosest first:

    formulas   ->      right-associative   ~(f & ~g)
               |       left-associative    ~(~f & ~g & ...)
               &       left-associative
    terms      + -     left-associative    add, sub
               *       left-associative    mul
               ^       right-associative   pow

Prefix `~` binds tighter than `&`, and prefix `-` tighter than `^` (`-x ^ 2`
is the power of `neg x`).  A quantifier's body extends as far right as
possible, over `->` too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, TypeVar

from .errors import ParseError
from .kernel import NESTED_SENTENCE_SORT, numeric_lexeme, numeric_value
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
    free_vars,
    mk_abstracted,
)

# Hyphenated file-level aliases for the reserved sort names that contain spaces.
SORT_ALIASES = {
    "empty-set": "empty set",
    "truth-values": "truth values",
    "nested-sentence": "nested sentence",
}


def resolve_sort_token(token: str) -> str:
    return SORT_ALIASES.get(token, token)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+|/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<string>"[^"]*")
  | (?P<abs_open><<|⋖)
  | (?P<abs_close>>>|⋗)
  | (?P<alpha>\|alpha:)
  | (?P<beta>\|beta:)
  | (?P<arrow>->)
  | (?P<sym>[()~&|.,:^*+\-])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str, line: int = 0, col_offset: int = 0) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line=line,
                             col=col_offset + pos + 1)
        kind = m.lastgroup or "ws"
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("eof", "", pos))
    return tokens


T = TypeVar("T")
# An infix operator: its precedence (higher binds tighter), whether it is
# right-associative, and the node it builds from its operands: the two of a
# right-associative one, or a left-associative one's whole run of them.
_Op = tuple[int, bool, Callable]


def _fold(symbol: str) -> Callable[..., Term]:
    """A run of operands grouped to the left, applying `symbol` to each pair."""
    return lambda *run: reduce(lambda a, b: FnApp(symbol, (a, b)), run)


_FORMULA_OPS: dict[str, _Op] = {
    "->": (1, True, lambda a, b: Not(And(a, Not(b)))),
    "|": (2, False, lambda *run: Not(And(*map(Not, run)))),
    "&": (3, False, And),
}
_TERM_OPS: dict[str, _Op] = {
    "+": (1, False, _fold("add")),
    "-": (1, False, _fold("sub")),
    "*": (2, False, _fold("mul")),
    "^": (3, True, _fold("pow")),
}


class FormulaParser:
    """Parser over one formula: recursive descent for prefix operators,
    quantifiers, atoms and terms, and precedence climbing (`_infix`) over the
    operator tables `_FORMULA_OPS` and `_TERM_OPS`, so that a chain of one
    infix operator is read in a loop.  A quantifier's binding lives on the call
    stack: the name it shadows is restored when its body ends.

    `sorts` names the declared sorts (after alias resolution); `is_constant`
    decides whether a bare identifier denotes a declared element.  Diagnostics
    carry `line` and a 1-based column: `col_offset` is where the formula text
    starts in its source line.
    """

    def __init__(self, text: str, sorts: Callable[[str], bool],
                 is_constant: Callable[[str], bool], line: int = 0, col_offset: int = 0):
        self.text = text
        self.tokens = _tokenize(text, line, col_offset)
        self.i = 0
        self.line = line
        self.col_offset = col_offset
        self.has_sort = sorts
        self.is_constant = is_constant
        self.by_source: dict[str, Variable] = {}
        self.used_names: set[str] = set()

    # --- token plumbing -----------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.i]

    def _next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self._next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}",
                             line=self.line, col=self.col_offset + tok.pos + 1)
        return tok

    def _fail(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message + f" (at {tok.value!r})", line=self.line,
                          col=self.col_offset + tok.pos + 1)

    # --- entry points ---------------------------------------------------

    def parse_formula(self) -> Formula:
        phi = self._formula()
        if self._peek().kind != "eof":
            raise self._fail("trailing input after formula")
        return phi

    # --- grammar ----------------------------------------------------------

    def _formula(self) -> Formula:
        return self._infix(_FORMULA_OPS, self._unary)

    def _infix(self, ops: dict[str, _Op], operand: Callable[[], T], floor: int = 1) -> T:
        """A chain of the infix operators in `ops` whose precedence is at least
        `floor`, over operands read by `operand`: precedence climbing, so a
        run of one left-associative operator is read in one loop and built
        as one node, and only a right operand recurses."""
        left = operand()
        while (op := ops.get(symbol := self._peek().value)) is not None and op[0] >= floor:
            precedence, right_associative, build = op
            run = [left]
            # a right-associative operator's right operand reads the rest of its run
            while self._peek().value == symbol:
                self._next()
                run.append(self._infix(ops, operand, precedence + (not right_associative)))
            left = build(*run)
        return left

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok.kind == "sym" and tok.value == "~":
            self._next()
            return Not(self._unary())
        if tok.kind == "sym" and tok.value == "(":
            self._next()
            phi = self._formula()
            self._expect("sym", ")")
            return phi
        if tok.kind == "ident" and tok.value in ("exists", "forall"):
            return self._quantifier()
        if tok.kind == "ident" and tok.value == "true":
            self._next()
            return TOP
        if tok.kind == "ident":
            return self._atom()
        raise self._fail("expected a formula")

    def _quantifier(self) -> Formula:
        quant = self._next().value
        name = self._expect("ident")
        self._expect("sym", ":")
        sort = self._sort_name(name)
        self._expect("sym", ".")
        fresh = name.value
        while fresh in self.used_names:
            fresh += "'"
        var = Variable(fresh, sort)
        self.used_names.add(fresh)
        shadowed = self.by_source.get(name.value)
        self.by_source[name.value] = var
        body = self._formula()  # binder scope extends maximally right
        if shadowed is None:
            del self.by_source[name.value]
        else:
            self.by_source[name.value] = shadowed
        if quant == "forall":
            return Not(Exists(var, Not(body)))
        return Exists(var, body)

    def _atom(self) -> Formula:
        pred = self._expect("ident").value
        return Atom(pred, self._arguments())

    def _arguments(self) -> tuple[Term, ...]:
        """`( term, ... )`, possibly empty."""
        self._expect("sym", "(")
        args: list[Term] = []
        if not (self._peek().kind == "sym" and self._peek().value == ")"):
            args.append(self._term())
            while self._peek().kind == "sym" and self._peek().value == ",":
                self._next()
                args.append(self._term())
        self._expect("sym", ")")
        return tuple(args)

    # --- terms ----------------------------------------------------------

    def _term(self) -> Term:
        return self._infix(_TERM_OPS, self._primary)

    def _primary(self) -> Term:
        tok = self._peek()
        if tok.kind == "number":
            value = numeric_value(tok.value)
            if value is None:  # the tokenizer admits a zero denominator (1/0)
                raise self._fail("zero denominator in number literal")
            self._next()
            return Const(numeric_lexeme(value))
        if tok.kind == "sym" and tok.value == "-":
            self._next()
            inner = self._primary()
            if isinstance(inner, Const):
                value = numeric_value(inner.symbol)
                if value is not None:
                    return Const(numeric_lexeme(-value))
            return FnApp("neg", (inner,))
        if tok.kind == "string":
            self._next()
            return Const(tok.value[1:-1])
        if tok.kind == "sym" and tok.value == "(":
            self._next()
            t = self._term()
            self._expect("sym", ")")
            return t
        if tok.kind == "abs_open":
            return self._abstraction()
        if tok.kind == "ident":
            return self._identifier_term()
        raise self._fail("expected a term")

    def _identifier_term(self) -> Term:
        name_tok = self._next()
        name = name_tok.value
        nxt = self._peek()
        if nxt.kind == "sym" and nxt.value == "(":
            return FnApp(name, self._arguments())
        if nxt.kind == "sym" and nxt.value == ":":
            self._next()
            sort = self._sort_name(name_tok)
            known = self.by_source.get(name)
            if known is not None:
                if known.sort != sort:
                    raise self._fail(f"variable {name!r} re-annotated {sort!r}, was {known.sort!r}")
                return Var(known)
            var = Variable(name, sort)
            self.by_source[name] = var
            self.used_names.add(name)
            return Var(var)
        if name in self.by_source:
            return Var(self.by_source[name])
        if self.is_constant(name):
            return Const(name)
        raise self._fail(f"unknown identifier {name!r} (variables need x:sort at first use)")

    def _abstraction(self) -> Abstracted:
        self._next()
        body = self._formula()
        self._expect("abs_close")
        allowed = set(free_vars(body))
        alpha: list[Variable] = []
        beta: list[Variable] = []
        if self._peek().kind == "alpha":
            self._next()
            alpha = self._var_list(allowed)
        if self._peek().kind == "beta":
            self._next()
            beta = self._var_list(allowed)
        return mk_abstracted(body, alpha, beta)

    def _var_list(self, allowed: set[Variable]) -> list[Variable]:
        # A trailing comma may belong to an enclosing argument list: continue
        # only while the next identifier names a free variable of the body.
        out = [self._var_ref(allowed)]
        while (self._peek().kind == "sym" and self._peek().value == ","
               and self.tokens[self.i + 1].kind == "ident"
               and self.by_source.get(self.tokens[self.i + 1].value) in allowed):
            self._next()
            out.append(self._var_ref(allowed))
        return out

    def _var_ref(self, allowed: set[Variable]) -> Variable:
        name = self._expect("ident").value
        var = self.by_source.get(name)
        if var is None or var not in allowed:
            raise self._fail(f"variable {name!r} is not free in the abstraction body")
        return var

    def _sort_name(self, var: Token) -> str:
        """The sort annotating the variable named by `var`.  A nested sentence
        has no element-level extent, so no variable ranges over it."""
        # Sorts may be hyphenated (kind-of-animals), but '-' is also the
        # subtraction operator: keep the longest join naming a declared sort
        # and backtrack the rest.
        parts = [self._expect("ident").value]
        best: Optional[tuple[str, int]] = None

        def consider() -> None:
            nonlocal best
            sort = resolve_sort_token("-".join(parts))
            if self.has_sort(sort):
                best = (sort, self.i)

        consider()
        while (self._peek().kind == "sym" and self._peek().value == "-"
               and self.tokens[self.i + 1].kind == "ident"):
            self._next()
            parts.append(self._next().value)
            consider()
        if best is None:
            raise self._fail(f"unknown sort {'-'.join(parts)!r}")
        sort, index = best
        if sort == NESTED_SENTENCE_SORT:
            raise ParseError(f"variable {var.value!r} may not have the nested-sentence sort",
                             line=self.line, col=self.col_offset + var.pos + 1)
        self.i = index
        return sort


def parse_formula(text: str, sorts: Callable[[str], bool],
                  is_constant: Callable[[str], bool], line: int = 0,
                  col_offset: int = 0) -> Formula:
    return FormulaParser(text, sorts, is_constant, line, col_offset).parse_formula()
