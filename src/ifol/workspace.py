"""Workspace files: the declaration unit the CLI loads and runs.

One declaration per line.  A `#` at the start of a line or after whitespace
opens a comment; elsewhere (`C#`) it is text, so no lexeme holds whitespace
followed by `#`.  Loading is atomic: every diagnostic is collected and the whole
file is rejected on any failure; a malformed line is a `line N:` diagnostic.
Declarations are order-independent: the loader declares one kind at a time
(sorts, concepts, IS-A edges, extents, particulars, functions, builtin
functions, builtin predicates), each kind's lines in text order, so
permutations of independent lines build identical workspaces.  Axioms and
queries follow in file order; each `query` line becomes one `Query` record.

    sort <name> [: <attribute-sort>] [isa <name>]
    isa <sub> <super>
    concept <phrase> arity <k> sorts <s1> ... <sk> predicate <p>
    particular <lexeme> : <sort>
    extent <sort> = { <lexeme>, ... }
    function <f>/<k> : <s1> x ... x <sk> -> <s>
    builtin function <f>/<k> : <s1> x ... x <sk> -> <s> = <evaluator>
    builtin predicate <p>/<k> : <s1> x ... x <sk> = <evaluator>
    axiom <formula>
    query check | consequence <f> | eval <f> with x=<lexeme>,... | intension <f>
          | concepts <p> | bealer-montague <f>
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from . import builtins as builtin_defs
from .concepts import ConceptRegistry, Interpretation
from .errors import IfolError, ParseError, SortMismatch, ValidationError
from .kernel import (
    Domain,
    NESTED_SENTENCE_SORT,
    RESERVED_SORTS,
    SortId,
    TRUTH_VALUES_SORT,
    VERB_FORMS,
    VERB_FORM_SORT,
)
from .parser import SORT_ALIASES, parse_formula, resolve_sort_token
from .semantics import MAX_WORLDS, Structure, Worlds, intension_plan
from .sorting import Signature, check_formula
from .syntax import Formula, format_formula, free_vars
from .worlds import enumerate_worlds


# The query kinds whose failure fails the run (exit status 1).
DECIDING = ("check", "consequence", "bealer-montague")


@dataclass
class Query:
    """One `query` line: its kind and the formula, predicate or eval bindings
    that kind takes."""

    kind: str
    formula: Optional[Formula] = None
    predicate: str = ""
    bindings: dict[str, str] = field(default_factory=dict)


class Workspace:
    """Sorts, signatures, finite extents, axioms and queries -- and the derived
    structure the semantic layer evaluates over."""

    def __init__(self, max_worlds: int = MAX_WORLDS):
        self.domain = Domain()
        self.signature = Signature()
        self.registry = ConceptRegistry(self.domain, self.signature)
        self.interp = Interpretation(self.domain, self.registry)
        self.space = Structure(self.domain, self.signature, self.registry, self.interp)
        self.axioms: list[Formula] = []
        self.queries: list[Query] = []
        self.max_worlds = max_worlds
        self._worlds: Optional[Worlds] = None
        self._representatives: Optional[Worlds] = None
        self._worlds_stamp: Optional[tuple[int, int, int]] = None

    # --- declaration helpers ------------------------------------------------

    def declare_sort(self, name: str, attribute: Optional[SortId] = None) -> None:
        self.domain.declare_sort(name, 1, (attribute or name,))

    def declare_isa(self, sub: SortId, sup: SortId) -> None:
        self.domain.declare_isa(sub, sup)

    def register_concept(self, phrase: str, sorts: Sequence[SortId], predicate: str) -> None:
        self.signature.declare_predicate(predicate, tuple(sorts), self.domain.lattice)
        self.registry.register_predicate_concept(predicate, phrase, tuple(sorts))

    def has_sort(self, name: str) -> bool:
        return name in self.domain.lattice

    def is_constant(self, lexeme: str) -> bool:
        return self.domain.lookup(lexeme) is not None

    def parse(self, text: str, line: int = 0, col_offset: int = 0) -> Formula:
        return parse_formula(text, self.has_sort, self.is_constant, line, col_offset)

    def add_axiom(self, phi: Formula) -> None:
        self.axioms.append(phi)

    def worlds(self) -> Worlds:
        """Every world, enumerated once and kept until a declaration, axiom
        or query is added: the worlds read the declarations, and which world
        leads its class reads the formulas too.  The enumeration holds its
        worlds as columns and builds a `World` only where one is read (see
        `Worlds`)."""
        stamp = (self.space.stamp, len(self.axioms), len(self.queries))
        if stamp != self._worlds_stamp:
            self._worlds = self._representatives = None
            self._worlds_stamp = stamp
        if self._worlds is None:
            self._worlds = enumerate_worlds(self.space, self.max_worlds,
                                            [phi for _, phi in self.all_formulas()])
        return self._worlds

    def representatives(self, formulas: Sequence[Formula]) -> Worlds:
        """The worlds a query evaluating `formulas` must walk to find its
        first failure: the view of the first world of each class of
        isomorphic worlds (`Worlds.leaders`, see `ifol.worlds`) when the
        classes merge some worlds and every formula has a relational plan,
        so cannot raise; every world otherwise.  Either is a `Worlds`, which
        builds only the worlds a route reads."""
        worlds = self.worlds()
        if self._representatives is None:
            self._representatives = worlds if all(worlds.leads) else worlds.leaders()
        if self._representatives is worlds \
                or not all(intension_plan(self.space, phi) is not None for phi in formulas):
            return worlds
        return self._representatives

    def all_formulas(self) -> list[tuple[str, Formula]]:
        out = [(f"axiom{i + 1}", phi) for i, phi in enumerate(self.axioms)]
        for i, q in enumerate(self.queries):
            if q.formula is not None:
                out.append((f"query{i + 1}", q.formula))
        return out


# --- loader ---------------------------------------------------------------------

@dataclass
class _Line:
    number: int
    kind: str
    text: str
    indent: int  # where `text` starts in the source line


# A `#` opens a comment at the start of a line or after whitespace; inside a
# lexeme such as `C#` it is text.
_COMMENT = re.compile(r"(?<!\S)#.*")


# Per signature kind: what must follow the argument sorts, and the test a
# builtin's evaluator name must pass.
_SIGNATURE_TAILS: dict[str, tuple[str, Optional[Callable[[str], bool]]]] = {
    "function": ("-> <return sort>", None),
    "builtin-function": ("-> <sort> = <evaluator>", builtin_defs.known_function_evaluator),
    "builtin-predicate": ("= <evaluator>", builtin_defs.known_predicate_evaluator),
}


def _classify(number: int, text: str, indent: int) -> _Line:
    head = text.split(None, 1)[0]
    if head == "builtin":
        rest = text.split(None, 2)
        if len(rest) >= 2 and rest[1] in ("function", "predicate"):
            return _Line(number, f"builtin-{rest[1]}", text, indent)
        raise ParseError("expected 'builtin function' or 'builtin predicate'", line=number)
    if head in ("sort", "isa", "concept", "particular", "extent", "function",
                "axiom", "query"):
        return _Line(number, head, text, indent)
    raise ParseError(f"unknown declaration {head!r}", line=number)


def load_workspace(source: Union[str, Path], max_worlds: int = MAX_WORLDS) -> Workspace:
    """Parse and validate a workspace; raises ValidationError with every
    line-numbered diagnostic on any failure.

    A Path is read from disk as UTF-8 text, and a file that is not gives one
    diagnostic; a plain string is taken as the file content.
    """
    if isinstance(source, Path):
        try:
            text = source.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError([f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})"]
                                  ) from None
    else:
        text = source
    lines: list[_Line] = []
    diagnostics: list[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = (_COMMENT.sub("", raw, count=1) if "#" in raw else raw).strip()
        if not stripped:
            continue
        try:
            lines.append(_classify(number, stripped, len(raw) - len(raw.lstrip())))
        except ParseError as exc:
            diagnostics.append(str(exc))
    if diagnostics:
        raise ValidationError(diagnostics)

    ws = Workspace(max_worlds=max_worlds)
    loader = _Loader(ws, lines)
    loader.run()
    if loader.diagnostics:
        # stable: one line's diagnostics keep the order they were found in
        loader.diagnostics.sort(key=lambda d: d[0])
        raise ValidationError([text for _, text in loader.diagnostics])
    return ws


class _Loader:
    def __init__(self, ws: Workspace, lines: list[_Line]):
        self.ws = ws
        self.lines = lines
        # (source line, text), in the order the declaration steps find them
        self.diagnostics: list[tuple[int, str]] = []
        # the source line of each formula in `ws.all_formulas()` order, recorded
        # as its axiom or query is added
        self.formula_lines: list[int] = []
        # IS-A edges from `sort ... isa` clauses and `isa` lines, declared
        # together once the concepts they may name exist
        self.edges: list[tuple[_Line, str, str]] = []

    def run(self) -> None:
        by_kind: dict[str, list[_Line]] = {}
        for line in self.lines:
            by_kind.setdefault(line.kind, []).append(line)

        # Each kind may name what the kinds before it declare: concepts name
        # sorts, IS-A edges name concepts, particulars test IS-A.
        for kind, declare in (("sort", self._sorts),
                              ("concept", self._each(self._concept)),
                              ("isa", self._isa_edges),
                              ("extent", self._each(self._extent)),
                              ("particular", self._each(self._particular)),
                              ("function", self._each(self._signature)),
                              ("builtin-function", self._each(self._signature)),
                              ("builtin-predicate", self._each(self._signature))):
            declare(by_kind.get(kind, []))
        if self.diagnostics:
            return  # formulas would cascade spurious errors
        for line in by_kind.get("axiom", []):
            self._guard(line, self._axiom)
        for line in by_kind.get("query", []):
            self._guard(line, self._query)
        self._check_formulas()

    def _each(self, handler: Callable[[_Line], None]) -> Callable[[list[_Line]], None]:
        """A declaration step that runs `handler` on each line in text order."""
        def declare(lines: list[_Line]) -> None:
            for line in sorted(lines, key=lambda l: l.text):
                self._guard(line, handler)
        return declare

    def _guard(self, line: _Line, action) -> None:
        try:
            action(line)
        except IfolError as exc:
            self._diagnose(line, exc)

    def _diagnose(self, line: _Line, exc: IfolError) -> None:
        if isinstance(exc, ParseError):  # it names its line (and column) itself
            self.diagnostics.append((line.number, str(exc)))
        else:
            self._note(line.number, exc)

    def _note(self, number: int, message: object) -> None:
        self.diagnostics.append((number, f"line {number}: {message}"))

    # --- per-kind handlers -----------------------------------------------

    def _sorts(self, lines: list[_Line]) -> None:
        # Attribute references may point forward; retry until a fixpoint.
        pending = sorted(lines, key=lambda l: l.text)
        parsed: list[tuple[_Line, str, Optional[str]]] = []
        for line in pending:
            try:
                name, attr, sup = self._parse_sort(line)
            except IfolError as exc:
                self._diagnose(line, exc)
                continue
            parsed.append((line, name, attr))
            if sup is not None:
                self.edges.append((line, name, sup))
        self.edges.sort(key=lambda e: e[0].number)  # equal edges then declare in file order
        remaining = parsed
        while remaining:
            progressed = []
            stuck = []
            for item in remaining:
                line, name, attr = item
                if attr is not None and attr != name and attr not in self.ws.domain.lattice \
                        and attr != NESTED_SENTENCE_SORT:
                    stuck.append(item)
                    continue
                try:
                    self.ws.declare_sort(name, attr)
                except IfolError as exc:
                    self._diagnose(line, exc)
                progressed.append(item)
            if not progressed:
                for line, name, attr in stuck:
                    self._note(line.number, f"unknown attribute sort {attr!r}")
                break
            remaining = stuck

    def _parse_sort(self, line: _Line) -> tuple[str, Optional[str], Optional[str]]:
        body = line.text[len("sort"):].strip()
        sup = None
        if " isa " in body:
            body, sup_token = body.rsplit(" isa ", 1)
            sup = resolve_sort_token(sup_token.strip())
        attr = None
        if ":" in body:
            body, attr_token = body.split(":", 1)
            attr = resolve_sort_token(attr_token.strip())
        name = resolve_sort_token(body.strip())
        if not name:
            raise ParseError("empty sort name", line=line.number)
        return name, attr, sup

    def _isa_edges(self, isa_lines: list[_Line]) -> None:
        for line in isa_lines:
            parts = line.text.split()
            if len(parts) != 3:
                self._note(line.number, "expected 'isa <sub> <super>'")
                continue
            self.edges.append((line, resolve_sort_token(parts[1]), resolve_sort_token(parts[2])))
        for line, sub, sup in sorted(self.edges, key=lambda e: (e[1], e[2])):
            try:
                self.ws.declare_isa(sub, sup)
            except IfolError as exc:
                self._diagnose(line, exc)

    def _concept(self, line: _Line) -> None:
        body = line.text[len("concept"):].strip()
        phrase, arity_kw, rest = body.partition(" arity ")
        arity_text, sorts_kw, rest = rest.partition(" sorts ")
        sorts_text, predicate_kw, pred = rest.rpartition(" predicate ")
        if not (arity_kw and sorts_kw and predicate_kw):
            raise ParseError("expected 'concept <phrase> arity <k> sorts ... predicate <p>'",
                             line=line.number)
        try:
            arity = int(arity_text.strip())
        except ValueError:
            raise ParseError(f"bad arity {arity_text.strip()!r}", line=line.number) from None
        sorts = tuple(resolve_sort_token(t) for t in sorts_text.split())
        if len(sorts) != arity:
            raise ParseError(f"arity {arity} but {len(sorts)} sorts", line=line.number)
        self.ws.register_concept(phrase.strip(), sorts, pred.strip())

    def _particular(self, line: _Line) -> None:
        body = line.text[len("particular"):].strip()
        if " : " not in body:
            raise ParseError("expected 'particular <lexeme> : <sort>'", line=line.number)
        lexeme, sort = body.rsplit(" : ", 1)
        self.ws.domain.declare_particular(lexeme.strip(), resolve_sort_token(sort.strip()))

    def _extent(self, line: _Line) -> None:
        body = line.text[len("extent"):].strip()
        if "=" not in body:
            raise ParseError("expected 'extent <sort> = { ... }'", line=line.number)
        sort_token, members = body.split("=", 1)
        members = members.strip()
        if not (members.startswith("{") and members.endswith("}")):
            raise ParseError("extent members must be braced", line=line.number)
        lexemes = [m.strip() for m in members[1:-1].split(",") if m.strip()]
        self.ws.domain.declare_extent(resolve_sort_token(sort_token.strip()), lexemes)

    def _signature(self, line: _Line) -> None:
        """A `function`, `builtin function` or `builtin predicate` line."""
        # drop the keyword tokens: `function`, or `builtin` and its kind
        keywords = line.kind.count("-") + 1
        parts = line.text.split(None, keywords)
        head, colon, rest = (parts[keywords] if len(parts) > keywords else "").partition(":")
        if not colon:
            raise ParseError("expected '<symbol>/<arity> : <argument sorts>'", line=line.number)
        head = head.strip()
        symbol, slash, arity_text = head.rpartition("/")
        if not slash:
            raise ParseError(f"expected '<symbol>/<arity>', found {head!r}", line=line.number)
        try:
            arity = int(arity_text)
        except ValueError:
            raise ParseError(f"bad arity {arity_text!r}", line=line.number) from None
        tail, known_evaluator = _SIGNATURE_TAILS[line.kind]
        returns = line.kind != "builtin-predicate"
        args_text, equals, evaluator = (rest.rpartition("=") if known_evaluator
                                        else (rest, "", None))
        if (known_evaluator and not equals) or (returns and "->" not in args_text):
            raise ParseError(f"expected '{tail}'", line=line.number)
        if returns:
            args_text, _, ret = args_text.rpartition("->")
        if known_evaluator:
            evaluator = evaluator.strip()
            if not known_evaluator(evaluator):
                raise ParseError(f"unknown {line.kind[len('builtin-'):]} evaluator {evaluator!r}",
                                 line=line.number)
        args_text = args_text.strip()
        if not args_text or (arity == 0 and args_text == "()"):
            arg_sorts: tuple[str, ...] = ()
        else:
            arg_sorts = tuple(resolve_sort_token(t.strip()) for t in args_text.split(" x "))
        if len(arg_sorts) != arity:
            raise ParseError(f"arity {arity} but {len(arg_sorts)} argument sorts",
                             line=line.number)
        if returns:
            self.ws.signature.declare_function(symbol.strip(), arg_sorts,
                                               resolve_sort_token(ret.strip()),
                                               self.ws.domain.lattice, evaluator=evaluator)
        else:
            self.ws.signature.declare_predicate(symbol.strip(), arg_sorts,
                                                self.ws.domain.lattice, evaluator=evaluator)

    def _formula(self, line: _Line, start: int, end: Optional[int] = None) -> Formula:
        """Parse line.text[start:end]; diagnostic columns count from the start
        of the source line."""
        raw = line.text[start:end]
        offset = line.indent + start + len(raw) - len(raw.lstrip())
        return self.ws.parse(raw.strip(), line.number, offset)

    def _axiom(self, line: _Line) -> None:
        self.ws.add_axiom(self._formula(line, len("axiom")))
        self.formula_lines.append(line.number)

    def _query(self, line: _Line) -> None:
        query = self._parse_query(line)
        self.ws.queries.append(query)
        if query.formula is not None:
            self.formula_lines.append(line.number)

    def _parse_query(self, line: _Line) -> Query:
        body = line.text[len("query"):].strip()
        kind, _, rest = body.partition(" ")
        rest = rest.strip()
        start = line.text.find(kind, len("query")) + len(kind)
        if kind == "check":
            return Query(kind)
        if kind in ("consequence", "intension", "bealer-montague"):
            return Query(kind, self._formula(line, start))
        if kind == "concepts":
            self.ws.registry.concept_of(rest)
            return Query(kind, predicate=rest)
        if kind == "eval":
            end, bindings = None, {}
            if " with " in rest:
                end = line.text.rindex(" with ")
                bindings = self._bindings(line, line.text[end + len(" with "):])
            phi = self._formula(line, start, end)
            names = {v.name for v in free_vars(phi)}
            for var_name, lexeme in bindings.items():
                if var_name not in names:
                    raise ParseError(f"binding for unknown variable {var_name!r}",
                                     line=line.number)
                if not self.ws.is_constant(lexeme):
                    raise ParseError(f"unknown element {lexeme!r}", line=line.number)
            return Query(kind, phi, bindings=bindings)
        raise ParseError(f"unknown query kind {kind!r}", line=line.number)

    def _bindings(self, line: _Line, text: str) -> dict[str, str]:
        out: dict[str, str] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ParseError(f"expected 'x=<lexeme>', found {part!r}", line=line.number)
            name, lexeme = (side.strip() for side in part.split("=", 1))
            if name in out:
                raise ParseError(f"variable {name!r} bound twice", line=line.number)
            out[name] = lexeme
        return out

    def _check_formulas(self) -> None:
        for (label, phi), number in zip(self.ws.all_formulas(), self.formula_lines,
                                        strict=True):
            try:
                errors = check_formula(phi, self.ws.signature, self.ws.domain)
            except IfolError as exc:
                self._note(number, exc)
                continue
            for err in errors:
                self.diagnostics.append((number, sort_error_line(label, err)))


def sort_error_line(label: str, err: SortMismatch) -> str:
    """The report line for an argument of the wrong sort in a formula."""
    return f"SORT-ERR {label} arg{err.position}: found {err.found} required {err.required}"


# --- canonical rendering ----------------------------------------------------------

def render_workspace(ws: Workspace) -> str:
    """Emit the workspace back as declaration lines; reloading the result gives
    a workspace with identical behavior on every query."""
    reverse_alias = {v: k for k, v in SORT_ALIASES.items()}

    def sort_token(name: str) -> str:
        return reverse_alias.get(name, name)

    out: list[str] = []
    registered = {c.name for c in ws.registry.by_predicate.values()}
    for name in ws.domain.lattice.nodes:
        if name in RESERVED_SORTS or name in registered:
            continue
        concept = ws.domain.concepts.get(name)
        attr = ""
        if concept is not None and concept.arity == 1 and concept.attribute_sorts[0] != name:
            attr = f" : {sort_token(concept.attribute_sorts[0])}"
        out.append(f"sort {sort_token(name)}{attr}")
    for sub, sup in sorted(ws.domain.lattice.isa_edges):
        out.append(f"isa {sort_token(sub)} {sort_token(sup)}")
    for pred in sorted(ws.registry.by_predicate):
        concept = ws.registry.by_predicate[pred]
        sorts = " ".join(sort_token(s) for s in concept.attribute_sorts)
        out.append(f"concept {concept.name} arity {concept.arity} sorts {sorts} "
                   f"predicate {pred}")
    overridden: set[str] = set()
    for sort in ws.domain.finite_numeric_sorts():
        members = [p.lexeme for p in ws.domain.valid_elements(sort)]
        overridden.update(members)
        out.append(f"extent {sort_token(sort)} = {{ {', '.join(members)} }}")
    auto_forms = set(VERB_FORMS) if VERB_FORM_SORT in ws.domain.lattice else set()
    for p in ws.domain.all_particulars():
        if p.sort == TRUTH_VALUES_SORT or p.lexeme in overridden:
            continue
        if p.sort == VERB_FORM_SORT and p.lexeme in auto_forms:
            continue  # recreated automatically when the sort is declared
        out.append(f"particular {p.lexeme} : {sort_token(p.sort)}")
    for symbol in sorted(ws.signature.functions):
        arg_sorts, ret = ws.signature.functions[symbol]
        evaluator = ws.signature.builtin_functions.get(symbol)
        args = " x ".join(sort_token(s) for s in arg_sorts)
        head = f"function {symbol}/{len(arg_sorts)} : {args} -> {sort_token(ret)}"
        out.append(f"builtin {head} = {evaluator}" if evaluator else head)
    for symbol in sorted(ws.signature.predicates):
        if symbol in ws.registry.by_predicate or symbol == "true":
            continue
        evaluator = ws.signature.builtin_predicates.get(symbol)
        if evaluator is None:
            continue
        args = " x ".join(sort_token(s) for s in ws.signature.predicates[symbol])
        out.append(f"builtin predicate {symbol}/{len(ws.signature.predicates[symbol])} : "
                   f"{args} = {evaluator}")
    for phi in ws.axioms:
        out.append(f"axiom {format_formula(phi)}")
    for q in ws.queries:
        out.append(_render_query(q))
    return "\n".join(out) + "\n"


def _render_query(q: Query) -> str:
    if q.kind == "check":
        return "query check"
    if q.kind == "concepts":
        return f"query concepts {q.predicate}"
    bindings = ", ".join(f"{name}={lexeme}" for name, lexeme in sorted(q.bindings.items()))
    text = f"query {q.kind} {format_formula(q.formula)}"
    return f"{text} with {bindings}" if bindings else text
