"""Benchmark workloads: `.ifol` inputs made from a seed, and their references.

Every reference is computed here in plain Python sets and integers from the
workload's own parameters; nothing in this file imports the engine.  A
reference check takes one report block per query and returns the number of
queries whose verdict or answer is wrong.

* `fixtures` -- the 8 committed fixtures: real inputs covering every query
  kind in many tiny workspaces, where set-up is a large share of the time.
* `unary-worlds` -- one sort of n particulars, unary p ⊑ q: 4^n candidate
  and 3^n kept worlds, so enumeration and the per-world routes dominate.
* `grid-assignments` -- the sphere workspace on the grid {-k..k}^3: exactly
  one world, so the time goes to assignment loops and exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Predicate = Callable[[list[str]], bool]

UNARY_SIZE = 8
GRID_SIZE = 8
FIXTURE_NAMES = ("animals", "arith", "bealer", "empty_gamma", "en_problem",
                 "entails_exists", "purrs", "sphere")


@dataclass
class Reference:
    """Expected exit status and one predicate per query block."""

    status: int
    per_query: list[Predicate]

    @property
    def queries(self) -> int:
        return len(self.per_query)

    def wrong(self, blocks: list[list[str]], status: int) -> int:
        """Queries whose verdict or answer differs.  A wrong exit status or a
        missing block counts against every query it could hide."""
        if status != self.status or len(blocks) != len(self.per_query):
            return len(self.per_query)
        return sum(1 for ok, block in zip(self.per_query, blocks) if not ok(block))


@dataclass
class WorkloadFile:
    label: str
    text: str
    reference: Reference


@dataclass
class Workload:
    name: str
    params: dict
    files: list[WorkloadFile]

    @property
    def queries(self) -> int:
        return sum(f.reference.queries for f in self.files)


def split_report(report: str) -> list[list[str]]:
    """One list of lines per query block; blocks are separated by a blank line."""
    if not report:
        return []
    return [block.split("\n") for block in report.rstrip("\n").split("\n\n")]


def _exact(*lines: str) -> Predicate:
    return lambda block: block == list(lines)


def _eval_block(formula_prefix: str = "", bound: tuple[str, ...] = ()) -> Predicate:
    """EVAL / GROUND / PROPOSITION of a closed ground instance (arity 0)."""

    def ok(block: list[str]) -> bool:
        return (len(block) == 3 and block[0].startswith("EVAL " + formula_prefix)
                and block[1].startswith("GROUND ")
                and all(lex in block[1] for lex in bound)
                and block[2].startswith("PROPOSITION D0 "))

    return ok


_CELL = re.compile(r"\(([^()]*)\)")


def _cells(text: str) -> list[tuple[str, ...]]:
    """Rendered tuples `(a, b) (c, d)` -> [("a", "b"), ("c", "d")]; `{}` is empty."""
    if text == "{}":
        return []
    return [tuple(part.strip() for part in m.split(",")) for m in _CELL.findall(text)]


# --- sphere points and subconcept trees --------------------------------------

def ball_points(k: int, centre: tuple[int, int, int], r: int) -> set[tuple[int, int, int]]:
    """Integer points of {-k..k}^3 within distance r of the centre."""
    span = range(-k, k + 1)
    cx, cy, cz = centre
    return {(x, y, z) for x in span for y in span for z in span
            if (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 <= r * r}


def ball_count(k: int, r: int) -> int:
    """Closed-form count of the centred ball: per (x, y), the z with z^2 <= rest."""
    total = 0
    for x in range(-k, k + 1):
        for y in range(-k, k + 1):
            rest = r * r - x * x - y * y
            if rest >= 0:
                total += 2 * min(math.isqrt(rest), k) + 1
    return total


def _points_block(header: str, points: set[tuple[int, int, int]]) -> Predicate:
    want = {tuple(str(c) for c in p) for p in points}

    def ok(block: list[str]) -> bool:
        if len(block) < 2 or not block[0].startswith(header) or block[1] != "WORLD w0":
            return False
        rows = block[2:]
        got = set()
        for row in rows:
            cells = _cells(row.strip())
            if not row.startswith("  (") or len(cells) != 1:
                return False
            got.add(cells[0])
        return len(rows) == len(want) and got == want

    return ok


def tree_lines(root: str, sorts: tuple[str, ...], extents: tuple[tuple[str, ...], ...]) -> list[str]:
    """The rendered subconcept tree: children fix one more position after the
    last fixed one, values in lexeme order; nodes keep one position free."""
    out: list[str] = []

    def render(fixed: dict[int, str], depth: int, last: int) -> None:
        name = " ".join([root] + [fixed[i] for i in sorted(fixed)])
        free = [s for i, s in enumerate(sorts) if i not in fixed]
        out.append("  " * depth + f"{name}:{','.join(free)}")
        if len(fixed) + 1 >= len(sorts):
            return
        for pos in range(last + 1, len(sorts)):
            for value in sorted(extents[pos]):
                render({**fixed, pos: value}, depth + 1, pos)

    render({}, 0, -1)
    return out


def tree_size(extents: tuple[tuple[str, ...], ...]) -> int:
    """Closed form: one node per set of fixed positions (all but one at most)
    times the value choices at those positions."""
    arity = len(extents)
    return sum(math.prod(len(extents[i]) for i in chosen)
               for size in range(arity) for chosen in itertools.combinations(range(arity), size))


# --- fixtures -------------------------------------------------------------------

def _animal_tree() -> Predicate:
    extents = (("with breasts", "without breasts"), ("hairy", "hairless"), ("young", "old"))
    lines = tree_lines("animal", ("kind-of-animals", "hairness", "age-kind"), extents)
    return _exact(*lines)


def _fixture_references() -> dict[str, Reference]:
    # Hand-written from the fixtures' comments and the README.  bealer.ifol has
    # 2 * 4 = 8 worlds (purrs over {tom}, barks over {rex, tom}); concepts
    # enumerate in sorted declaration order (barking, then purring) and pools
    # in lexeme order, so tom purrs and barks exactly in w5 and w7.
    return {
        "animals": Reference(0, [_exact("CHECK ok (0 formulas)"), _animal_tree()]),
        "arith": Reference(0, [_exact("CHECK ok (1 formulas)"),
                               _exact("EVAL leq(div(2, 2), 1)", "GROUND leq(div(2, 2), 1)",
                                      "PROPOSITION D0 leq(div(#2,#2),#1)")]),
        "bealer": Reference(0, [_exact("CHECK ok (4 formulas)")]
                            + [_exact("BEALER-MONTAGUE ok (8 worlds)")] * 3
                            + [_exact("INTENSION purrs(x:cat) & barks(x)",
                                      "WORLD w0", "WORLD w1", "WORLD w2", "WORLD w3", "WORLD w4",
                                      "WORLD w5", "  (tom)", "WORLD w6", "WORLD w7", "  (tom)")]),
        "empty_gamma": Reference(1, [_exact("CONSEQUENCE no", "WORLD w0", "  p-hood: {}")]),
        "en_problem": Reference(0, [_exact("CHECK ok (2 formulas)"),
                                    _eval_block("works(present, \"Mario Rossi\"")]),
        "entails_exists": Reference(0, [_exact("CONSEQUENCE yes")]),
        "purrs": Reference(0, [_exact("CONSEQUENCE yes")]),
        "sphere": Reference(0, [_exact("CHECK ok (2 formulas)"),
                                _points_block("INTENSION ", ball_points(2, (0, 0, 0), 2)),
                                _eval_block("knows(", ("Zoran Majkic", "Alberto Rossi"))]),
    }


def fixtures(root: Path, seed: int) -> Workload:
    references = _fixture_references()
    names = list(FIXTURE_NAMES)
    random.Random(seed).shuffle(names)
    files = []
    for name in names:
        text = (root / "fixtures" / f"{name}.ifol").read_text(encoding="utf-8")
        files.append(WorkloadFile(name, text, references[name]))
    return Workload("fixtures", {"files": len(files)}, files)


# --- unary-worlds -----------------------------------------------------------------

def _lexemes(rng: random.Random, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(6)))
    return sorted(names)


def unary_expectations(n: int) -> dict[str, int]:
    """Closed forms for p ⊑ q over n particulars with the axiom `exists x . p(x)`."""
    return {
        "worlds": 3 ** n,  # per element: in neither, in q only, in both
        "intension_tuples": n * 3 ** (n - 1),
        "intension_nonempty": 3 ** n - 2 ** n,
        "intension_per_element": 3 ** (n - 1),
    }


def unary_brute_force(n: int) -> dict[str, int]:
    """The same figures from every (p, q) pair of subsets of n elements."""
    universe = range(n)
    subsets = [frozenset(c) for size in range(n + 1) for c in itertools.combinations(universe, size)]
    worlds = [(p, q) for p in subsets for q in subsets if p <= q]
    per_element = {sum(1 for p, q in worlds if e in q - p) for e in universe}
    return {
        "worlds": len(worlds),
        "intension_tuples": sum(len(q - p) for p, q in worlds),
        "intension_nonempty": sum(1 for p, q in worlds if q - p),
        "intension_per_element": per_element.pop() if len(per_element) == 1 else -1,
    }


def _unary_reference(n: int, names: list[str]) -> Reference:
    want = unary_expectations(n)
    members = set(names)

    def countermodel(block: list[str]) -> bool:
        # the consequence `forall y . q(y) -> p(y)` fails in a model of the
        # axiom: p ⊆ q, p not empty, q not inside p
        if len(block) != 4 or block[0] != "CONSEQUENCE no":
            return False
        label = re.fullmatch(r"WORLD w(\d+)", block[1])
        if label is None or int(label.group(1)) >= want["worlds"]:
            return False
        if not (block[2].startswith("  p-hood: ") and block[3].startswith("  q-hood: ")):
            return False
        p = {c[0] for c in _cells(block[2][len("  p-hood: "):])}
        q = {c[0] for c in _cells(block[3][len("  q-hood: "):])}
        return p <= q <= members and bool(p) and not q <= p

    def intension(block: list[str]) -> bool:
        if not block or block[0] != "INTENSION q(x:thing) & ~p(x)":
            return False
        labels, per_world, per_element = [], [], dict.fromkeys(names, 0)
        for row in block[1:]:
            if row.startswith("WORLD "):
                labels.append(row[len("WORLD "):])
                per_world.append(0)
                continue
            cells = _cells(row.strip())
            if not per_world or not row.startswith("  (") or len(cells) != 1 \
                    or cells[0][0] not in per_element:
                return False
            per_world[-1] += 1
            per_element[cells[0][0]] += 1
        return (labels == [f"w{i}" for i in range(want["worlds"])]
                and sum(per_world) == want["intension_tuples"]
                and sum(1 for c in per_world if c) == want["intension_nonempty"]
                and set(per_element.values()) == {want["intension_per_element"]})

    bealer = _exact(f"BEALER-MONTAGUE ok ({want['worlds']} worlds)")
    return Reference(1, [_exact("CONSEQUENCE yes"), countermodel, intension, bealer, bealer])


def unary_worlds(seed: int, n: int = UNARY_SIZE) -> Workload:
    rng = random.Random(seed)
    names = _lexemes(rng, n)
    extent = names[:]
    rng.shuffle(extent)
    declarations = [
        "sort thing",
        f"extent thing = {{ {', '.join(extent)} }}",
        "concept p-hood arity 1 sorts thing predicate p",
        "concept q-hood arity 1 sorts thing predicate q",
        "isa p-hood q-hood",
        "axiom exists x:thing . p(x)",
    ]
    rng.shuffle(declarations)
    queries = [
        "query consequence exists y:thing . q(y)",
        "query consequence forall y:thing . q(y) -> p(y)",
        "query intension q(x:thing) & ~p(x)",
        "query bealer-montague p(x:thing) | q(x)",
        "query bealer-montague exists y:thing . q(y) & ~p(y)",
    ]
    text = "\n".join(declarations + queries) + "\n"
    return Workload("unary-worlds", {"n": n, "candidate_worlds": 4 ** n, "worlds": 3 ** n},
                    [WorkloadFile(f"unary-n{n}", text, _unary_reference(n, names))])


# --- grid-assignments -------------------------------------------------------------

def _shift(var: str, offset: int) -> str:
    return f"({var} - {offset})" if offset >= 0 else f"({var} + {-offset})"


def grid_assignments(seed: int, k: int = GRID_SIZE) -> Workload:
    rng = random.Random(seed)
    half = max(k // 2, 1)
    centre = tuple(rng.randint(-half, half) for _ in range(3))
    radius = rng.randint(half, k)
    x0, y0, z0 = (rng.randint(-k, k) for _ in range(3))
    v = rng.randint(1, k)
    grid = [str(i) for i in range(-k, k + 1)]
    rng.shuffle(grid)
    declarations = [
        "sort integers", "sort rationals", "sort reals",
        "isa integers rationals", "isa rationals reals",
        f"extent reals = {{ {', '.join(grid)} }}",
        "sort person", "sort verb-form",
        "particular Zoran Majkic : person", "particular Alberto Rossi : person",
        "builtin function add/2 : reals x reals -> reals = add",
        "builtin function sub/2 : reals x reals -> reals = sub",
        "builtin function mul/2 : reals x reals -> reals = mul",
        "builtin function pow/2 : reals x reals -> reals = pow",
        "builtin predicate leq2/2 : reals x reals = leq",
        "concept to know arity 3 sorts verb-form person nested-sentence predicate knows",
        "concept to tell arity 3 sorts verb-form person nested-sentence predicate told",
    ]
    rng.shuffle(declarations)
    shifted = " + ".join(f"{_shift(f'{c}:reals', o)}^2" for c, o in zip("xyz", centre))
    queries = [
        f"query intension leq2(x:reals^2 + y:reals^2 + z:reals^2, {k * k})",
        f"query bealer-montague leq2({shifted}, {radius}^2)",
        "query eval knows(present, x2:person, << told(past, x4:person, << leq2("
        "(x:reals - x0:reals)^2 + (y:reals - y0:reals)^2 + (z:reals - z0:reals)^2, v:reals^2)"
        " >>|alpha: x,y,z |beta: x0,y0,z0,v) >>|beta: x4,x0,y0,z0,v)"
        f" with x2=Zoran Majkic, x4=Alberto Rossi, x0={x0}, y0={y0}, z0={z0}, v={v}",
    ]
    text = "\n".join(declarations + queries) + "\n"
    bound = ("Zoran Majkic", "Alberto Rossi", f"pow({v}, 2)")
    reference = Reference(0, [_points_block("INTENSION leq2(", ball_points(k, (0, 0, 0), k)),
                              _exact("BEALER-MONTAGUE ok (1 worlds)"),
                              _eval_block("knows(", bound)])
    return Workload("grid-assignments",
                    {"k": k, "assignments": (2 * k + 1) ** 3, "points": ball_count(k, k),
                     "centre": list(centre), "radius": radius},
                    [WorkloadFile(f"grid-k{k}", text, reference)])


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "fixtures":
        return fixtures(root, seed)
    if name == "unary-worlds":
        return unary_worlds(seed)
    if name == "grid-assignments":
        return grid_assignments(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fixtures", "unary-worlds", "grid-assignments")


def self_check() -> list[str]:
    """Tiny-size agreement of every closed form with a brute-force count;
    returns the disagreements."""
    problems = []
    for n in (2, 3, 4):
        if unary_expectations(n) != unary_brute_force(n):
            problems.append(f"unary closed forms disagree at n={n}")
    for k in (1, 2, 3, GRID_SIZE):
        if len(ball_points(k, (0, 0, 0), k)) != ball_count(k, k):
            problems.append(f"ball count disagrees at k={k}")
    if ball_count(2, 2) != 33 or ball_count(8, 8) != 2109:
        problems.append("ball counts differ from 33 (k=2) and 2109 (k=8)")
    for extents in ((("a", "b"),) * 3, (("a",), ("b", "c"), ("d", "e", "f")), (("a", "b"),) * 2):
        sorts = tuple(f"s{i}" for i in range(len(extents)))
        if len(tree_lines("r", sorts, extents)) != tree_size(extents):
            problems.append(f"tree size disagrees for extents {extents}")
    if tree_size((("a", "b"),) * 3) != 19:
        problems.append("animal_of tree is not 19 nodes")
    return problems
