"""Terms, formulas, free variables, substitution, grounding, normalization."""

from __future__ import annotations

import itertools

import pytest

from ifol import (
    Abstracted,
    And,
    Atom,
    Const,
    Exists,
    FnApp,
    Not,
    TOP,
    Var,
    Variable,
    format_formula,
    free_vars,
    ground_instance,
    mk_abstracted,
    normalize,
    substitute,
)
from ifol.errors import (
    AlphaBetaOverlap,
    EmptyAlphaWithFreeVars,
    UnboundVariable,
    UncoveredFreeVariable,
    VariableCapture,
)

S = "thing"
x = Variable("x", S)
y = Variable("y", S)
z = Variable("z", S)


def atom(pred, *vs):
    return Atom(pred, tuple(Var(v) if isinstance(v, Variable) else v for v in vs))


def sphere_body():
    """leq2((x-x0)^2 + (y-y0)^2 + (z-z0)^2, v^2) over the reals."""
    names = {}
    for n in ("x", "x0", "y", "y0", "z", "z0", "v"):
        names[n] = Variable(n, "reals")

    def sq_diff(a, b):
        return FnApp("pow", (FnApp("sub", (Var(names[a]), Var(names[b]))), Const("2")))

    total = FnApp("add", (FnApp("add", (sq_diff("x", "x0"), sq_diff("y", "y0"))),
                          sq_diff("z", "z0")))
    body = Atom("leq2", (total, FnApp("pow", (Var(names["v"]), Const("2")))))
    return body, names


def test_free_vars_atom_order():
    assert free_vars(atom("p", x, y)) == (x, y)


def test_free_vars_binder_removes():
    assert free_vars(Exists(x, atom("p", x, y))) == (y,)


def test_free_vars_nested_abstraction_matches_example():
    # knows(present, x2, <<told(past, x4, <<sphere>>_alpha^beta)>>^{beta+{x4}})
    body, names = sphere_body()
    alpha = [names[n] for n in ("x", "y", "z")]
    beta = [names[n] for n in ("x0", "y0", "z0", "v")]
    inner = mk_abstracted(body, alpha, beta)
    x2 = Variable("x2", "person")
    x4 = Variable("x4", "person")
    told_body = Atom("told", (Const("past"), Var(x4), inner))
    outer = mk_abstracted(told_body, [], [x4] + beta)
    knows = Atom("knows", (Const("present"), Var(x2), outer))
    assert [v.name for v in free_vars(knows)] == ["x2", "x4", "x0", "y0", "z0", "v"]


def test_substitute_single_occurrence():
    assert substitute(atom("p", x), {x: Const("c")}) == Atom("p", (Const("c"),))


def test_substitute_replaces_simultaneously():
    """One walk over the whole mapping: a swap is not two replacements in a row."""
    assert substitute(atom("p", x, y), {x: Var(y), y: Var(x)}) == atom("p", y, x)


def test_substitute_leaves_bound_occurrences():
    phi = And(atom("p", x), Exists(x, atom("q", x)))
    out = substitute(phi, {x: Const("c")})
    assert out == And(Atom("p", (Const("c"),)), Exists(x, atom("q", x)))


def test_substitute_detects_capture():
    phi = Exists(y, atom("p", x, y))
    with pytest.raises(VariableCapture):
        substitute(phi, {x: FnApp("f", (Var(y),))})


def test_substitute_updates_beta():
    body = atom("p", x, y)
    t = Atom("q", (mk_abstracted(body, [x], [y]),))
    out = substitute(t, {y: Var(z)})
    abst = out.args[0]
    assert isinstance(abst, Abstracted)
    assert abst.beta == (z,)
    assert free_vars(out) == (z,)


def test_substitute_beta_capture_by_alpha():
    body = atom("p", x, y)
    t = Atom("q", (mk_abstracted(body, [x], [y]),))
    with pytest.raises(VariableCapture):
        substitute(t, {y: FnApp("f", (Var(x),))})


def test_mk_abstracted_sphere_partition():
    body, names = sphere_body()
    abst = mk_abstracted(body, [names[n] for n in ("x", "y", "z")],
                         [names[n] for n in ("x0", "y0", "z0", "v")])
    assert [v.name for v in abst.alpha] == ["x", "y", "z"]
    assert [v.name for v in abst.beta] == ["x0", "y0", "z0", "v"]


def test_mk_abstracted_reorders_to_appearance():
    body, names = sphere_body()
    abst = mk_abstracted(body, [names[n] for n in ("z", "x", "y")],
                         [names[n] for n in ("v", "z0", "x0", "y0")])
    assert [v.name for v in abst.alpha] == ["x", "y", "z"]
    assert [v.name for v in abst.beta] == ["x0", "y0", "z0", "v"]


def test_mk_abstracted_sentence_ground_term():
    closed = Exists(x, atom("p", x))
    abst = mk_abstracted(closed, [], [])
    assert abst.alpha == () and abst.beta == ()


def test_mk_abstracted_errors():
    with pytest.raises(AlphaBetaOverlap):
        mk_abstracted(atom("p", x, y), [x], [x, y])
    with pytest.raises(UncoveredFreeVariable):
        mk_abstracted(atom("p", x, y), [x], [])
    with pytest.raises(EmptyAlphaWithFreeVars):
        mk_abstracted(atom("p", x), [], [])


def test_mk_abstracted_roundtrip():
    body = atom("p", x, y)
    abst = mk_abstracted(body, [x], [y])
    assert (abst.body, abst.alpha, abst.beta) == (body, (x,), (y,))


def test_ground_instance_simple():
    assert ground_instance(atom("p", x), {x: "tom"}) == Atom("p", (Const("tom"),))


def test_ground_instance_unbound():
    with pytest.raises(UnboundVariable):
        ground_instance(atom("p", x), {})


def test_ground_instance_sphere_center_origin():
    body, names = sphere_body()
    abst = mk_abstracted(body, [names[n] for n in ("x", "y", "z")],
                         [names[n] for n in ("x0", "y0", "z0", "v")])
    phi = Atom("q", (abst,))
    g = {names["x0"]: "0", names["y0"]: "0", names["z0"]: "0", names["v"]: "2"}
    out = ground_instance(phi, g)
    grounded = out.args[0]
    assert isinstance(grounded, Abstracted)
    assert grounded.beta == ()
    assert [v.name for v in free_vars(grounded.body)] == ["x", "y", "z"]
    assert "pow(v, 2)" not in format_formula(grounded.body)
    assert "pow(2, 2)" in format_formula(grounded.body)


def test_ground_instance_closes_formula():
    body = And(atom("p", x, y), Exists(z, atom("q", z)))
    g = {x: "a", y: "b"}
    assert free_vars(ground_instance(body, g)) == ()


def enumerate_formulas(depth: int):
    """Right-linear closure of {p(x), p(y), q(x, y)} under not/and/exists."""
    atoms = [atom("p", x), atom("p", y), atom("q", x, y)]
    layers = [list(atoms)]
    for _ in range(depth):
        new = []
        for f in layers[-1]:
            new.append(Not(f))
            for a in atoms:
                new.append(And(f, a))
            for v in (x, y):
                new.append(Exists(v, f))
        layers.append(new)
    return [f for layer in layers for f in layer]


def test_substitute_then_ground_equals_ground_of_composed():
    elements = ["a", "b"]
    for phi in enumerate_formulas(3):
        fv = free_vars(phi)
        if x not in fv:
            continue
        rest = [v for v in fv if v != x]
        for c in elements:
            subst = substitute(phi, {x: Const(c)})
            for values in itertools.product(elements, repeat=len(rest)):
                g = dict(zip(rest, values))
                composed = dict(g)
                composed[x] = c
                assert ground_instance(subst, g) == ground_instance(phi, composed)


def test_ground_instance_has_no_free_vars_on_family():
    for phi in enumerate_formulas(2):
        g = {v: "a" for v in free_vars(phi)}
        assert free_vars(ground_instance(phi, g)) == ()


def test_a_conjunction_is_one_flat_node_of_two_or_more_parts():
    """`And` splices a part that is a conjunction into its own parts, so
    `(a & b) & c` and `a & (b & c)` are one formula, with one fingerprint
    and one printed form; a two-part conjunction keeps its fingerprint."""
    a, b, c = atom("p", x), atom("q", y), atom("r", x, y)
    left, right = And(And(a, b), c), And(a, And(b, c))
    assert left == right and hash(left) == hash(right) and left.parts == (a, b, c)
    assert normalize(left) == "and(p(?0:thing),q(?1:thing),r(?0:thing,?1:thing))"
    assert normalize(And(a, b)) == "and(p(?0:thing),q(?1:thing))"
    assert format_formula(left) == "p(x:thing) & q(y:thing) & r(x, y)"
    with pytest.raises(ValueError):
        And(a)


def test_normalize_alpha_equivalence():
    assert normalize(atom("p", x)) == normalize(atom("p", y))
    assert normalize(Exists(x, atom("p", x))) == normalize(Exists(y, atom("p", y)))


def test_normalize_distinguishes_sorts():
    other = Variable("x", "other")
    assert normalize(atom("p", x)) != normalize(Atom("p", (Var(other),)))


def test_normalize_distinguishes_argument_patterns():
    assert normalize(atom("q", x, y)) != normalize(atom("q", x, x))


def test_normalize_tracks_beta_references_across_abstraction():
    t1 = Atom("r", (Var(x), Var(y), mk_abstracted(atom("s", x), [], [x])))
    t2 = Atom("r", (Var(x), Var(y), mk_abstracted(atom("s", y), [], [y])))
    assert normalize(t1) != normalize(t2)


def test_top_is_nullary_true_atom():
    assert TOP == Atom("true", ())
    assert free_vars(TOP) == ()
