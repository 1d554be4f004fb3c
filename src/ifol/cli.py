"""Command-line entry points: run workspace queries, check files, render trees.

Reports are deterministic: queries run in file order and each walks the
worlds in enumeration order, so every run of a file prints the same bytes.

Every relation a report prints (an INTENSION tail, a countermodel relation,
a Bealer-Montague mismatch side) lists its rows as `(a, b)` in lexeme order.
Its columns range over sort pools, which `Domain.valid_elements` keeps in
lexeme order with distinct lexemes, so that order is the pools' product
order: `_RowRenderer` reads each pool element's lexeme once and filters the
product by membership, with no sort and no Python call per row.  A relation
sparse in its product, or with a row outside the pools (only a mismatch side
can have one), is rendered by sorting its rows' lexeme tuples instead.
"""

from __future__ import annotations

import argparse
import sys
from itertools import compress, product
from math import prod
from pathlib import Path
from typing import Collection, Optional, Sequence

from .concepts import TreeNode
from .errors import IfolError, ValidationError
from .kernel import ConceptRef, Domain, Element, SortId, element_lexeme
from .semantics import (
    MAX_WORLDS,
    Countermodel,
    bealer_montague_check,
    consequence,
    montague_intension,
)
from .sorting import check_formula
from .syntax import format_formula, free_vars, ground_instance
from .workspace import DECIDING, Workspace, load_workspace, sort_error_line


# A relation is rendered from its pools' product when that product has at
# most this many tuples per row.  On a 2-core x86_64 host (CPython 3.11),
# filtering a product over a 17-element pool costs 0.08-0.15 us a tuple and
# sorting costs about 1.0-1.2 us a row; the two paths broke even at 8 tuples
# a row for 2 columns and at about 13 for 3.
DENSE_TUPLES_PER_ROW = 8


class _RowRenderer:
    """Renders relations whose columns range over the pools of `sorts`: each
    row as `(a, b)`, in lexeme order.  The pools are read at the first
    nonempty relation, as an empty one needs none and a sort may have none to
    read (an unfinitized numeric sort, a nested-sentence position); a sort
    without a pool sends every relation to the sorted path.  The pools'
    lexemes are read at the first relation dense enough to filter, as the
    sorted path reads its rows' lexemes itself."""

    __slots__ = ("domain", "sorts", "pools", "lexemes", "size")

    def __init__(self, domain: Domain, sorts: Sequence[SortId]):
        self.domain = domain
        self.sorts = sorts
        self.pools: Optional[list[Sequence[Element]]] = None  # not read yet
        self.lexemes: Optional[list[list[str]]] = None  # not read yet
        self.size = 0

    def __call__(self, rel: Collection[tuple[Element, ...]]) -> list[str]:
        if not rel:
            return []
        if self.pools is None:
            self._read_pools()
        if self.pools and self.size <= DENSE_TUPLES_PER_ROW * len(rel):
            if self.lexemes is None:
                self.lexemes = [list(map(element_lexeme, pool)) for pool in self.pools]
            kept = compress(product(*self.lexemes), map(rel.__contains__, product(*self.pools)))
            rows = ["(" + row + ")" for row in map(", ".join, kept)]
            if len(rows) == len(rel):  # else some row lies outside the pools
                return rows
        return ["(" + ", ".join(row) + ")"
                for row in sorted(tuple(map(element_lexeme, t)) for t in rel)]

    def _read_pools(self) -> None:
        if not all(map(self.domain.sort_is_finite, self.sorts)):
            self.pools = []
            return
        self.pools = [self.domain.valid_elements(s) for s in self.sorts]
        self.size = prod(map(len, self.pools))


def render_countermodel(ws: Workspace, cm: Countermodel) -> list[str]:
    lines = [f"WORLD {cm.world.label}"]
    for concept in ws.registry.by_predicate.values():
        rows = _RowRenderer(ws.domain, concept.attribute_sorts)
        cells = " ".join(rows(cm.world.relation(concept.name)))
        lines.append(f"  {concept.name}: {cells if cells else '{}'}")
    for var, el in sorted(cm.assignment, key=lambda it: it[0].name):
        lines.append(f"ASSIGN {var.name}={element_lexeme(el)}")
    return lines


def render_concept_tree(ws: Workspace, predicate: str) -> str:
    tree = ws.registry.subconcept_tree(predicate)

    def walk(node: TreeNode, depth: int, out: list[str]) -> None:
        out.append("  " * depth + node.concept.render())
        for child in node.children:
            walk(child, depth + 1, out)

    lines: list[str] = []
    walk(tree, 0, lines)
    return "\n".join(lines)


def run_queries(ws: Workspace) -> tuple[str, int]:
    """Execute every query in order; one report block per query.

    Exit status is 0 iff every check / consequence / bealer-montague query
    succeeds; a failing query never aborts the ones after it.
    """
    blocks: list[str] = []
    ok = True
    for query in ws.queries:
        try:
            block, passed = _run_query(ws, query)
        except IfolError as exc:
            block = [f"ERROR {type(exc).__name__}: {exc}"]
            passed = query.kind not in DECIDING
        blocks.append("\n".join(block))
        ok = ok and passed
    return "\n\n".join(blocks) + ("\n" if blocks else ""), 0 if ok else 1


def _run_query(ws: Workspace, query) -> tuple[list[str], bool]:
    if query.kind == "check":
        lines = []
        for label, phi in ws.all_formulas():
            for err in check_formula(phi, ws.signature, ws.domain):
                lines.append(sort_error_line(label, err))
        if lines:
            return lines, False
        return [f"CHECK ok ({len(ws.all_formulas())} formulas)"], True

    if query.kind == "consequence":
        holds, cm = consequence(ws.space, ws.axioms, query.formula,
                                worlds=ws.representatives([*ws.axioms, query.formula]))
        if holds:
            return ["CONSEQUENCE yes"], True
        assert cm is not None
        return ["CONSEQUENCE no"] + render_countermodel(ws, cm), False

    if query.kind == "eval":
        phi = query.formula
        by_name = {v.name: v for v in free_vars(phi)}
        grounding = {}
        for name, lexeme in query.bindings.items():
            var = by_name[name]
            el = ws.domain.lookup(lexeme)
            assert el is not None
            if not ws.domain.lattice.is_subsort(ws.domain.dynamic_sort(el), var.sort):
                raise IfolError(
                    f"{lexeme!r} has dynamic sort {ws.domain.dynamic_sort(el)!r}, "
                    f"variable {name} wants {var.sort!r}")
            grounding[var] = lexeme
        ground = ground_instance(phi, grounding)
        prop = ws.interp.of_formula(ground)
        arity = prop.concept.arity if isinstance(prop, ConceptRef) else prop.arity
        lines = [f"EVAL {format_formula(phi)}",
                 f"GROUND {format_formula(ground)}",
                 f"PROPOSITION D{arity} {element_lexeme(prop)}"]
        return lines, True

    if query.kind == "intension":
        meaning = montague_intension(ws.space, query.formula, ws.worlds())
        rows = _free_var_rows(ws, query.formula)
        # many worlds share an extension, and a plan gives them one object
        tails = {ext: (" t" if ext else " f") if isinstance(ext, bool)
                 else "".join(["\n  " + row for row in rows(ext)])
                 for ext in set(meaning)}
        return [f"INTENSION {format_formula(query.formula)}",
                *[f"WORLD w{i}{tails[ext]}" for i, ext in enumerate(meaning)]], True

    if query.kind == "concepts":
        return [render_concept_tree(ws, query.predicate)], True

    assert query.kind == "bealer-montague"
    mismatch = bealer_montague_check(ws.space, query.formula,
                                     worlds=ws.representatives([query.formula]))
    if mismatch is None:
        return [f"BEALER-MONTAGUE ok ({len(ws.worlds())} worlds)"], True
    rows = _free_var_rows(ws, query.formula)
    lines = [f"BEALER-MONTAGUE mismatch WORLD {mismatch.world_label}",
             f"  concept-extension: {_render_side(mismatch.concept_side, rows)}",
             f"  intension: {_render_side(mismatch.intension_side, rows)}"]
    return lines, False


def _free_var_rows(ws: Workspace, phi) -> _RowRenderer:
    """The renderer of phi's meaning: its rows run over the sorts of phi's
    free variables, in first-appearance order."""
    return _RowRenderer(ws.domain, [v.sort for v in free_vars(phi)])


def _render_side(side, rows: _RowRenderer) -> str:
    if isinstance(side, bool):
        return "t" if side else "f"
    cells = " ".join(rows(side))
    return cells if cells else "{}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _too_deep(path: Path) -> int:
    print(f"{path}: formula nesting too deep to process "
          f"(Python recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ifol",
                                     description="Many-sorted intensional FOL engine")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="load a workspace and execute its queries")
    run_p.add_argument("file", type=Path)
    run_p.add_argument("--max-worlds", type=_positive_int, default=MAX_WORLDS,
                       help="refuse to enumerate beyond this many candidate worlds")

    check_p = sub.add_parser("check", help="load and validate a workspace only")
    check_p.add_argument("file", type=Path)

    tree_p = sub.add_parser("concepts", help="render a predicate's subconcept tree")
    tree_p.add_argument("file", type=Path)
    tree_p.add_argument("predicate")

    args = parser.parse_args(argv)
    try:
        ws = load_workspace(Path(args.file),
                            max_worlds=getattr(args, "max_worlds", MAX_WORLDS))
    except ValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 2
    except (OSError, IfolError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except RecursionError:
        return _too_deep(args.file)

    if args.command == "check":
        print(f"ok: {len(ws.all_formulas())} formulas, "
              f"{len(ws.registry.by_predicate)} concepts")
        return 0
    if args.command == "concepts":
        try:
            print(render_concept_tree(ws, args.predicate))
        except IfolError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        return 0

    try:
        report, status = run_queries(ws)
    except RecursionError:
        return _too_deep(args.file)
    sys.stdout.write(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
