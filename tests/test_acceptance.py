"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 1 runs the Kripke-vs-Tarski equivalence exhaustively over a generated
family of workspaces (at most 3 sorts, extents of at most 3 elements, at most 2
predicates of arity at most 2).  The formula family is the right-linear closure
of the workspace's atoms under negation, conjunction-with-an-atom, and
existential quantification, to connective depth 3 -- exhaustive, no sampling.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from ifol import (
    And,
    Atom,
    Const,
    Exists,
    FnApp,
    Not,
    Var,
    Variable,
    Workspace,
    bealer_montague_check,
    enumerate_worlds,
    eval_atom,
    eval_term,
    load_workspace,
    mk_abstracted,
    satisfies,
    static_sort,
    tarski_eval,
)
from ifol.cli import main, run_queries
from ifol.errors import EvaluationFailure
from ifol.kernel import element_lexeme

from conftest import FIXTURES, arithmetic_ws, many_sorted_assignments, pets_ws


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} {name}: PASS")


# --- criterion 1: Kripke satisfaction == Tarski oracle -----------------------------


PREDICATE_SHAPES = (("p",), ("r",), ("p", "q"), ("p", "r"))


def _workspace_family():
    """Generated sweep over subsort-chain depth (1..3 sorts, one particular at
    each level, so the widest extent has up to 3 elements) crossed with
    predicate shapes covering one/two predicates of arity one/two."""
    for n_sorts in (1, 2, 3):
        for shape in PREDICATE_SHAPES:
            ws = Workspace()
            sorts = [f"s{i}" for i in range(n_sorts)]
            for s in sorts:
                ws.declare_sort(s)
            for lower, upper in zip(sorts, sorts[1:]):
                ws.declare_isa(lower, upper)
            for i, s in enumerate(sorts):
                ws.domain.declare_particular(f"e{i}", s)
            top, bottom = sorts[-1], sorts[0]
            x, y = Variable("x", top), Variable("y", bottom)
            atoms = []
            for pred in shape:
                if pred == "p":
                    ws.register_concept("p-hood", (top,), "p")
                    atoms.append(Atom("p", (Var(x),)))
                    if "r" not in shape:
                        atoms.append(Atom("p", (Var(y),)))
                elif pred == "q":
                    ws.register_concept("q-hood", (bottom,), "q")
                    atoms.append(Atom("q", (Var(y),)))
                else:
                    ws.register_concept("r-hood", (top, bottom), "r")
                    atoms.append(Atom("r", (Var(x), Var(y))))
                    atoms.append(Atom("r", (Var(y), Var(y))))
                    if n_sorts == 1 and len(shape) == 1:
                        atoms.append(Atom("r", (Var(y), Var(x))))
            yield ws, (x, y), atoms


def _formula_closure(atoms, variables, depth):
    layers = [list(atoms)]
    for _ in range(depth):
        new = []
        for f in layers[-1]:
            new.append(Not(f))
            for atom in atoms:
                new.append(And(f, atom))
            for v in variables:
                new.append(Exists(v, f))
        layers.append(new)
    return [f for layer in layers for f in layer]


def test_criterion_1_kripke_equals_tarski():
    start = time.monotonic()
    checked = 0
    for ws, variables, atoms in _workspace_family():
        worlds = enumerate_worlds(ws.space)
        formulas = _formula_closure(atoms, variables, depth=3)
        assignments = list(many_sorted_assignments(variables, ws.domain))
        for world in worlds:
            for phi in formulas:
                for g in assignments:
                    assert satisfies(world, g, phi) == tarski_eval(world, g, phi)
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"
    assert checked > 100_000
    report(1, f"kripke==tarski on {checked} (world, formula, assignment) triples "
              f"in {elapsed:.1f}s")


# --- criterion 2: extension of the interpreted concept == intension ----------------


def test_criterion_2_extension_identity():
    corpus = []
    pets = pets_ws()
    xc, ya = Variable("x", "cat"), Variable("y", "animal")
    closure = _formula_closure([Atom("purrs", (Var(xc),)), Atom("barks", (Var(ya),))],
                               (xc, ya), depth=2)
    corpus.append((pets, ["purrs(x:cat)", "barks(x:animal)", "purrs(tom)",
                          "purrs(x:cat) & barks(x)", "~purrs(x:cat)",
                          "exists x:cat . purrs(x) & barks(x)",
                          "purrs(x:cat) & ~barks(x)", "true"] + closure))
    grid = arithmetic_ws(grid=True)
    corpus.append((grid, ["leq2(x:reals^2 + y:reals^2 + z:reals^2, 4)",
                          "leq2(1, 4)", "leq2(x:reals, y:reals)"]))
    for fixture in ("purrs", "empty_gamma", "entails_exists"):
        ws = load_workspace(FIXTURES / f"{fixture}.ifol")
        corpus.append((ws, [phi for _, phi in ws.all_formulas()]))
    total = 0
    for ws, formulas in corpus:
        worlds = enumerate_worlds(ws.space)
        for phi in formulas:
            parsed = ws.parse(phi) if isinstance(phi, str) else phi
            assert bealer_montague_check(ws.space, parsed, worlds) is None
            total += len(worlds)
    report(2, f"extension identity exact on {total} (formula, world) pairs")


# --- criterion 3: dynamic-sort soundness of generated terms ------------------------


def test_criterion_3_sort_soundness():
    ws = arithmetic_ws(grid=True)
    ws.declare_sort("animal")
    ws.declare_sort("cat")
    ws.declare_isa("cat", "animal")
    ws.domain.declare_particular("tom", "cat")
    ws.domain.declare_particular("rex", "animal")
    ws.signature.declare_function("mother", ("animal",), "animal", ws.domain.lattice)
    worlds = enumerate_worlds(ws.space)
    xr = Variable("x", "reals")
    yq = Variable("y", "rationals")
    zc = Variable("z", "cat")
    rng = random.Random(20240817)

    def gen_numeric(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice([Const("2"), Const("1"), Const("-2"), Const("1/2"),
                               Var(xr), Var(yq)])
        fn = rng.choice(["add", "sub", "mul", "div", "pow"])
        if fn == "pow":
            return FnApp("pow", (gen_numeric(depth - 1), Const(str(rng.randint(0, 3)))))
        return FnApp(fn, (gen_numeric(depth - 1), gen_numeric(depth - 1)))

    def gen_animal(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([Const("tom"), Const("rex"), Var(zc)])
        return FnApp("mother", (gen_animal(depth - 1),))

    assignments = list(many_sorted_assignments((xr, yq, zc), ws.domain))
    checked = 0
    failures = 0
    while checked < 10_000:
        t = gen_numeric(rng.randint(1, 3)) if rng.random() < 0.7 else gen_animal(2)
        expected = static_sort(t, ws.signature, ws.domain)
        world = rng.choice(worlds)
        g = rng.choice(assignments)
        try:
            value = eval_term(t, g, world)
        except EvaluationFailure:
            continue  # division by zero doesn't yield a value
        checked += 1
        if not ws.domain.is_subsort(ws.domain.dynamic_sort(value), expected):
            failures += 1
    assert failures == 0

    div = FnApp("div", (Const("2"), Const("2")))
    value = eval_term(div, {}, worlds[0])
    assert value.lexeme == "1"
    assert ws.domain.dynamic_sort(value) == "integers"
    assert static_sort(div, ws.signature, ws.domain) == "rationals"
    report(3, f"dynamic sort below static sort on {checked} generated terms; "
              f"div(2,2)=1 with Z below Q")


# --- criterion 4: hidden-variable union -----------------------------------------


def test_criterion_4_hidden_variable_union():
    ws = Workspace()
    ws.declare_sort("s")
    for lex in ("a", "b", "c"):
        ws.domain.declare_particular(lex, "s")
    ws.register_concept("q-hood", ("s", "s"), "q")
    ws.register_concept("r-hood", ("s", "nested sentence"), "r")
    x = Variable("x", "s")
    u = Variable("u", "s")
    w = Variable("w", "s")
    y = Variable("y", "s")

    bodies = {
        1: [Atom("q", (Var(x), Var(u))),
            And(Atom("q", (Var(x), Var(u))), Atom("q", (Var(u), Var(x))))],
        2: [And(Atom("q", (Var(x), Var(u))), Atom("q", (Var(x), Var(w)))),
            And(Atom("q", (Var(u), Var(x))), Atom("q", (Var(w), Var(w))))],
    }

    elements = [ws.domain.lookup(k) for k in ("a", "b", "c")]
    rng = random.Random(5)
    q_rel = frozenset({(elements[0], elements[1]), (elements[1], elements[1]),
                       (elements[2], elements[0])})

    from ifol import substitute
    from ifol.semantics import World

    def reified(body, g_h):
        grounded = substitute(body, {v: Const(element_lexeme(el)) for v, el in g_h.items()})
        return ws.interp.of_formula(grounded)

    checked = 0
    for n_hidden, body_list in bodies.items():
        hidden = [u, w][:n_hidden]
        for body in body_list:
            abst = mk_abstracted(body, [x], hidden)
            atom = Atom("r", (Var(y), abst))
            # r pairs elements with the reified content for a few groundings
            members = [reified(body, g_h)
                       for g_h in many_sorted_assignments(hidden, ws.domain)]
            pairs = [(e, m) for e, m in zip(itertools.cycle(elements), members)]
            r_rel = frozenset(rng.sample(pairs, k=len(pairs) // 2 + 1))
            world = World("hand", ws.space, {"q-hood": q_rel, "r-hood": r_rel})
            got = eval_atom(atom, {}, world)
            # brute force: ground the hidden variables explicitly, collect the
            # witnesses for y by direct tuple lookup, and union by hand
            brute = set()
            for g_h in many_sorted_assignments(hidden, ws.domain):
                content = reified(body, g_h)
                for cand in ws.domain.valid_elements("s"):
                    if (cand, content) in r_rel:
                        brute.add((cand,))
            assert got == frozenset(brute)
            checked += 1
    report(4, f"hidden-variable union equals brute force on {checked} atom shapes")


# --- criterion 5: the sphere fixture ---------------------------------------------


def test_criterion_5_sphere(capsys):
    ws = arithmetic_ws(grid=True)
    phi = ws.parse("leq2(x:reals^2 + y:reals^2 + z:reals^2, 4)")
    worlds = enumerate_worlds(ws.space)
    grid = range(-2, 3)
    oracle = {(i, j, k) for i in grid for j in grid for k in grid
              if i * i + j * j + k * k <= 4}
    assert len(oracle) == 33
    from ifol import montague_intension
    meaning = montague_intension(ws.space, phi, worlds)
    for rows in meaning:
        got = {tuple(int(element_lexeme(e)) for e in t) for t in rows}
        assert got == oracle

    status = main(["run", str(FIXTURES / "sphere.ifol")])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("  (") == 33
    assert "PROPOSITION D0" in out
    report(5, "sphere grid intension is the 33-point relation; fixture evaluates "
              "to a ground proposition")


# --- criterion 6: canonical-subconcept bijection ----------------------------------


def test_criterion_6_subconcept_bijection():
    ws = load_workspace(FIXTURES / "animals.ifol")
    root = ws.registry.concept_of("animal_of")
    pools = [ws.domain.valid_elements(s) for s in root.attribute_sorts]
    round_trips = 0
    for r in range(1, root.arity):
        for positions in itertools.combinations(range(root.arity), r):
            for values in itertools.product(*(pools[i] for i in positions)):
                partial = dict(zip(positions, values))
                concept = ws.registry.canonical_subconcept("animal_of", partial)
                pred, fixed = ws.registry.atom_pattern(concept)
                assert pred == "animal_of"
                assert fixed == {pos: v.lexeme for pos, v in partial.items()}
                round_trips += 1
    made = {c.name for c in ws.registry.subconcepts["animal_of"].values()}
    assert "animal with breasts hairy" in made
    assert "animal hairy with breasts" not in made
    assert not made & set(ws.domain.concepts)
    report(6, f"atom/concept bijection round-trips on {round_trips} partial assignments")


# --- criterion 7: consequence fixtures under a second -----------------------------


def test_criterion_7_consequence_fixtures():
    timings = {}
    expectations = {"purrs": 0, "empty_gamma": 1, "entails_exists": 0}
    for name, expected_status in expectations.items():
        ws = load_workspace(FIXTURES / f"{name}.ifol")
        start = time.monotonic()
        report_text, status = run_queries(ws)
        timings[name] = time.monotonic() - start
        assert status == expected_status, report_text
        assert timings[name] < 1.0
        if name == "empty_gamma":
            assert "WORLD" in report_text
    report(7, "consequence fixtures decided with certificates, each under 1s "
              + str({k: f"{v * 1000:.0f}ms" for k, v in timings.items()}))


# --- criterion 8: deterministic reports -------------------------------------------


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ifol")), ids=lambda p: p.stem)
def test_criterion_8_determinism(path):
    ws = load_workspace(path)
    runs = [run_queries(ws), run_queries(load_workspace(path)), run_queries(ws)]
    assert all(r == runs[0] for r in runs)
    report(8, f"{path.stem}: byte-identical reports across loads and repeated runs")
