"""Concrete syntax: parsing, sugar expansion, renaming, rendering round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
    load_workspace,
    normalize,
)
from ifol.errors import ParseError

from conftest import pets_ws
from strategies import (EMPTY_POOLS, arithmetic_workspaces, fragment_formulas, isa_workspaces,
                        symmetric_workspaces)


def test_parse_atom_and_variables(pets):
    phi = pets.parse("purrs(x:cat)")
    assert isinstance(phi, Atom)
    (arg,) = phi.args
    assert isinstance(arg, Var) and arg.var.sort == "cat"


def test_parse_reuses_annotated_variable(pets):
    phi = pets.parse("purrs(x:cat) & purrs(x)")
    left, right = phi.parts
    assert left.args == right.args


def test_parse_conflicting_annotation_fails(pets):
    with pytest.raises(ParseError):
        pets.parse("purrs(x:cat) & barks(x:animal)")


def test_parse_unknown_identifier(pets):
    with pytest.raises(ParseError):
        pets.parse("purrs(nobody)")


def test_parse_constants_and_strings(pets):
    assert pets.parse("purrs(tom)") == Atom("purrs", (Const("tom"),))
    assert pets.parse('purrs("tom")') == Atom("purrs", (Const("tom"),))


def test_parse_true_keyword(pets):
    assert pets.parse("true") == TOP


def test_parse_sugar_or_implies_forall(pets):
    a = pets.parse("purrs(tom)")
    b = pets.parse("barks(rex)")
    assert pets.parse("purrs(tom) | barks(rex)") == Not(And(Not(a), Not(b)))
    assert pets.parse("purrs(tom) -> barks(rex)") == Not(And(a, Not(b)))
    all_purr = pets.parse("forall x:cat . purrs(x)")
    assert isinstance(all_purr, Not) and isinstance(all_purr.sub, Exists)


def test_parse_no_shadowing_renames(pets):
    phi = pets.parse("(exists x:cat . purrs(x)) & (exists x:cat . purrs(x))")
    first, second = phi.parts
    assert first.var.name == "x"
    assert second.var.name == "x'"


def test_parse_nested_binder_renames(pets):
    phi = pets.parse("exists x:cat . exists x:cat . purrs(x)")
    assert phi.var.name == "x"
    inner = phi.body
    assert inner.var.name == "x'"
    assert inner.body.args[0].var.name == "x'"


def test_parse_arithmetic_precedence(arith):
    phi = arith.parse("leq2(x:reals + y:reals * z:reals, 4)")
    total = phi.args[0]
    assert total.symbol == "add"
    assert total.args[1].symbol == "mul"
    powed = arith.parse("leq2(x:reals ^ 2 + 1, 4)").args[0]
    assert powed.symbol == "add" and powed.args[0].symbol == "pow"


def test_infix_operators_group_and_bind_by_the_table(pets, arith):
    """`&`, `|`, `+`, `-` and `*` group to the left, `->` and `^` to the
    right; `->` binds loosest, then `|`, then `&`, with `~` tighter still, and
    `+ -`, then `*`, then `^`, with unary `-` tighter still.  A run of `&` is
    one node, and so is the conjunction under a run of `|`.  A quantifier's
    body extends right over `->`."""
    a, b, c, d = (Atom(name, ()) for name in "abcd")

    def either(*fs):
        return Not(And(*map(Not, fs)))

    def implies(f, g):
        return Not(And(f, Not(g)))

    assert pets.parse("a() & b() & c()").parts == (a, b, c)
    assert pets.parse("a() & (b() & c())") == And(And(a, b), c) == And(a, And(b, c))
    assert pets.parse("a() | b() | c()") == either(a, b, c)
    assert pets.parse("(a() | b()) | c()") == either(either(a, b), c)
    assert pets.parse("a() | b() & c() | d()") == either(a, And(b, c), d)
    assert pets.parse("a() -> b() -> c()") == implies(a, implies(b, c))
    assert pets.parse("a() | b() & c() -> d()") == implies(either(a, And(b, c)), d)
    assert pets.parse("~a() & b()") == And(Not(a), b)
    cat = Variable("x", "cat")
    purrs, barks = Atom("purrs", (Var(cat),)), Atom("barks", (Var(cat),))
    assert pets.parse("exists x:cat . purrs(x) -> barks(x)") == Exists(cat, implies(purrs, barks))

    x, y, z = (Var(Variable(name, "reals")) for name in "xyz")
    two = Const("2")

    def term(text):
        return arith.parse(f"leq2({text}, 0)").args[0]

    assert term("x:reals - y:reals - z:reals") == FnApp("sub", (FnApp("sub", (x, y)), z))
    assert term("x:reals ^ y:reals ^ z:reals") == FnApp("pow", (x, FnApp("pow", (y, z))))
    assert term("x:reals + y:reals * z:reals ^ 2") == FnApp(
        "add", (x, FnApp("mul", (y, FnApp("pow", (z, two))))))
    assert term("-x:reals ^ 2") == FnApp("pow", (FnApp("neg", (x,)), two))
    assert term("(x:reals + y:reals) * z:reals") == FnApp("mul", (FnApp("add", (x, y)), z))


@pytest.mark.parametrize("op", ["&", "|", "+", "*", "-"])
def test_a_chain_of_one_infix_operator_parses_in_a_loop(pets, arith, op):
    """A 10,000-link chain of one left-associative operator is read without
    recursing once per link: a chain of `&` is one node of 10,000 parts, and
    so is the conjunction under a chain of `|`; a chain of `+`, `*` or `-`
    is a tree 9,999 levels deep on the left."""
    if op in "&|":
        phi = pets.parse(f" {op} ".join(["purrs(tom)"] * 10_000))
        part = pets.parse("purrs(tom)" if op == "&" else "~purrs(tom)")
        assert (phi if op == "&" else phi.sub).parts == (part,) * 10_000
        return
    phi = arith.parse(f"leq2({f' {op} '.join(['1'] * 10_000)}, 0)").args[0]
    depth = 0
    while not isinstance(phi, Const):
        phi = phi.args[0]
        depth += 1
    assert depth == 9_999


def test_parse_sort_name_backtracks_over_minus(arith):
    phi = arith.parse("leq2(x:reals - y:reals, 4)")
    diff = phi.args[0]
    assert isinstance(diff, FnApp) and diff.symbol == "sub"
    assert diff.args[0].var.sort == "reals"


def test_parse_hyphenated_sort_names():
    ws = pets_ws()
    ws.declare_sort("kind-of-animals")
    ws.domain.declare_particular("with breasts", "kind-of-animals")
    ws.signature.declare_predicate("kindish", ("kind-of-animals",), ws.domain.lattice)
    phi = ws.parse("kindish(k:kind-of-animals)")
    assert phi.args[0].var.sort == "kind-of-animals"


def test_parse_unknown_sort(pets):
    with pytest.raises(ParseError):
        pets.parse("purrs(x:ghost)")


def test_parse_negative_and_fraction_literals(arith):
    phi = arith.parse("leq2(-2, 1/2)")
    assert phi.args == (Const("-2"), Const("1/2"))


def test_parse_unary_minus_on_terms(arith):
    phi = arith.parse("leq2(neg(x:reals), -x)")
    assert phi.args[1] == FnApp("neg", (phi.args[0].args[0],))


def test_parse_abstraction_alpha_beta(arith):
    phi = arith.parse("leq2(1, 1) & leq2(x:reals, y:reals)")
    text = "leq2(<< leq2(x:reals - x0:reals, 1) >>|alpha: x |beta: x0, 1)"
    with pytest.raises(ParseError):
        # abstraction terms have the nested-sentence sort; leq2 wants reals --
        # parsing still succeeds, so force a parse error differently
        arith.parse("leq2(<< leq2(w:reals, 1) >>|alpha: q, 1)")
    parsed = arith.parse(text)
    abst = parsed.args[0]
    assert isinstance(abst, Abstracted)
    assert [v.name for v in abst.alpha] == ["x"]
    assert [v.name for v in abst.beta] == ["x0"]


def test_parse_unicode_angles(arith):
    phi = arith.parse("leq2(⋖ leq2(1, 2) ⋗, 1)")
    assert isinstance(phi.args[0], Abstracted)


def test_format_round_trips(pets, arith):
    pets_formulas = [
        "purrs(tom)",
        "exists x:cat . purrs(x) & barks(x)",
        "~(purrs(tom) & ~barks(rex))",
        "exists x:cat . exists y:animal . purrs(x) & barks(y)",
        "~((exists x:cat . purrs(x)) & ~barks(x:cat))",
    ]
    for text in pets_formulas:
        phi = pets.parse(text)
        assert pets.parse(format_formula(phi)) == phi
    arith_formulas = [
        "leq2((x:reals - y:reals)^2, 4)",
        "leq2(<< leq2(x:reals - x0:reals, 1) >>|alpha: x |beta: x0, 1)",
        "leq2(-2, 1/2)",
    ]
    for text in arith_formulas:
        phi = arith.parse(text)
        assert arith.parse(format_formula(phi)) == phi


@settings(max_examples=80, deadline=None)
@given(st.one_of(symmetric_workspaces(), isa_workspaces(), arithmetic_workspaces()), st.data())
def test_format_then_parse_is_the_identity(text, data):
    """Generated formulas in and around the plan fragment, with shadowing
    binders, repeated variables, function applications, numeric constants
    and abstraction arguments, read back as the formula they were printed
    from: the same free variables, and the same formula up to the names of
    bound variables, which the parser renames apart (`x0'`) where a binder
    reuses a name."""
    ws = load_workspace(text + EMPTY_POOLS)
    for phi in data.draw(st.lists(fragment_formulas(ws), min_size=1, max_size=4)):
        again = ws.parse(format_formula(phi))
        assert free_vars(again) == free_vars(phi)
        assert normalize(again) == normalize(phi)


def test_format_annotates_a_free_use_after_a_binder_of_the_same_variable(pets):
    x = Variable("x", "cat")
    phi = And(Exists(x, Atom("purrs", (Var(x),))), Atom("barks", (Var(x),)))
    assert format_formula(phi) == "(exists x:cat . purrs(x)) & barks(x:cat)"
    assert pets.parse(format_formula(phi)) == phi


def test_format_quotes_spacey_lexemes(pets):
    ws = pets
    ws.domain.declare_particular("mister whiskers", "cat")
    phi = ws.parse('purrs("mister whiskers")')
    assert '"mister whiskers"' in format_formula(phi)
    assert ws.parse(format_formula(phi)) == phi


def test_free_vars_follow_appearance_order(arith):
    phi = arith.parse("leq2(b:reals, a:reals) & leq2(a, c:reals)")
    assert [v.name for v in free_vars(phi)] == ["b", "a", "c"]

    def names(text):
        return [v.name for v in free_vars(arith.parse(f"leq2({text}, 0)").args[0])]

    assert names("b:reals") == ["b"]
    assert names("2") == []
    assert names("add(mul(b:reals, a:reals), sub(a, add(c:reals, b)))") == ["b", "a", "c"]
    assert names("<< leq2(x:reals - x0:reals, 1) >>|alpha: x |beta: x0") == ["x0"]
    assert names("add(<< leq2(a:reals, b:reals) >>|alpha: a |beta: b, neg(c:reals))") == ["b", "c"]
