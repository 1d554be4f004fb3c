"""Hypothesis strategies for generated workspaces, shared by the
differential tests: each draws the text of a small `.ifol` file."""

from __future__ import annotations

from hypothesis import strategies as st

from ifol.kernel import NESTED_SENTENCE_SORT
from ifol.syntax import (Abstracted, And, Atom, Const, Exists, FnApp, Not, Var, Variable,
                         format_formula, free_vars, mk_abstracted)

from conftest import FIXTURES


def _connective(draw, sub):
    """A binary connective over sub-formulas drawn by `sub()`, as the parser
    builds it: a conjunction of 2-4 parts, one node; a run of 2-4 disjuncts
    `a | b | c`, the negation of one conjunction of their negations; or
    `a -> b`, `~(a & ~b)`."""
    kind = draw(st.sampled_from(["and", "or", "implies"]))
    if kind == "implies":
        return Not(And(sub(), Not(sub())))
    parts = [sub() for _ in range(draw(st.integers(2, 4)))]
    return And(*parts) if kind == "and" else Not(And(*map(Not, parts)))


@st.composite
def _formula(draw, concepts, constants, free, depth, bound=()):
    """A formula over the unary and binary concepts: atoms take variables in
    scope or constants of the argument's sort; `exists` may range over
    truth-values and bind nothing the body uses."""
    kind = draw(st.sampled_from(["atom", "not", "connective", "exists"] if depth else ["atom"]))
    if kind == "not":
        return Not(draw(_formula(concepts, constants, free, depth - 1, bound)))
    if kind == "connective":
        return _connective(draw, lambda: draw(_formula(concepts, constants, free, depth - 1,
                                                       bound)))
    if kind == "exists":
        sort = draw(st.sampled_from(sorted({s for _, sorts in concepts for s in sorts})
                                    + ["truth values"]))
        v = Variable(f"y{depth}", sort)
        return Exists(v, draw(_formula(concepts, constants, free, depth - 1, (*bound, v))))
    pred, sorts = draw(st.sampled_from(concepts))
    args = []
    for sort in sorts:
        options = [Var(v) for v in (*bound, *free) if v.sort == sort]
        options += [Const(lexeme) for lexeme in constants.get(sort, ())]
        args.append(draw(st.sampled_from(options)))
    return Atom(pred, tuple(args))


@st.composite
def symmetric_workspaces(draw) -> str:
    """2-4 particulars in each of 1-2 sorts, unary concepts with IS-A edges, a
    binary concept over k or the last sort, constants naming some
    particulars, and one query with a built-in predicate or a declared
    function.  At most 2^8 candidate worlds."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    sorts = [f"s{i}" for i in range(len(sizes))]
    lines = ["sort k", "particular o : k"]
    members: dict[str, list[str]] = {"k": ["o"]}
    for sort, size in zip(sorts, sizes):
        members[sort] = [f"{sort}{chr(ord('a') + j)}" for j in range(size)]
        lines += [f"sort {sort}", f"extent {sort} = {{ {', '.join(members[sort])} }}"]
    free = [Variable(f"x{sort}", sort) for sort in members]
    builtin = draw(st.booleans())
    if builtin:
        # a built-in that raises on the non-numeric reals u0 and u1 unless the
        # concept atom before it short-circuits: it holds where rr = {u0} and
        # raises in the isomorphic world where rr = {u1}
        budget = 8 - 3
        extra = ["sort reals", "extent reals = { 1 }", "particular u0 : reals",
                 "particular u1 : reals", "concept rr-hood arity 1 sorts reals predicate rr",
                 "builtin predicate leq/2 : reals x reals = leq",
                 "query consequence (exists y:reals . rr(y) & ~rr(1))"
                 " -> exists z:reals . rr(z) | leq(z, 0)"]
    else:
        budget = 8 - 1
        extra = ["concept kk-hood arity 1 sorts k predicate kk",
                 f"function f/1 : {sorts[0]} -> k"]
    # one bit per tuple of a concept's pool: the binary concept takes 1, the
    # size of the last sort or its square, the unary ones what is left
    binary_sorts = draw(st.sampled_from([("k", "k"), ("k", sorts[-1]), (sorts[-1], sorts[-1])]))
    bits = len(members[binary_sorts[0]]) * len(members[binary_sorts[1]])
    if bits + len(members[sorts[0]]) > budget:
        binary_sorts, bits = ("k", "k"), 1
    budget -= bits
    lines.append(f"concept r-ness arity 2 sorts {' '.join(binary_sorts)} predicate r")
    unary = [(f"p{i}", draw(st.sampled_from(sorts))) for i in range(draw(st.integers(1, 3)))]
    while len(unary) > 1 and sum(len(members[s]) for _, s in unary) > budget:
        unary.pop()
    if sum(len(members[s]) for _, s in unary) > budget:
        unary = [("p0", sorts[0])]
    for pred, sort in unary:
        lines.append(f"concept {pred}-hood arity 1 sorts {sort} predicate {pred}")
    for (sub, _), (sup, _) in zip(unary, unary[1:]):
        if draw(st.booleans()):
            lines.append(f"isa {sub}-hood {sup}-hood")
    concepts = [(pred, (sort,)) for pred, sort in unary] + [("r", binary_sorts)]
    named = {sort: draw(st.lists(st.sampled_from(members[sort]), max_size=1, unique=True))
             for sort in members}

    def formula(depth: int) -> str:
        return format_formula(draw(_formula(concepts, named, free, depth)))

    for _ in range(draw(st.integers(0, 1))):
        lines.append(f"axiom {formula(2)}")
    for kind in draw(st.lists(st.sampled_from(["consequence", "intension", "bealer-montague"]),
                              min_size=2, max_size=4)):
        lines.append(f"query {kind} {formula(3)}")
    if not builtin:
        extra.append(f"query intension kk(f(x{sorts[0]}:{sorts[0]})) & {formula(1)}")
    return "\n".join(draw(st.permutations(lines + extra))) + "\n"


@st.composite
def isa_workspaces(draw) -> str:
    """IS-A edges between unary concepts over a sort s and over its subsort
    t, whose pools differ (t's members sit among s's in lexeme order), and
    between those concepts and the finite sorts, on either side; edges that
    constrain nothing (to the infinite reals, to the binary k-ness); concepts
    with a nested-sentence position, whose pools are empty, registered first
    (k-ness) and last (z-hood); a function graph; and formulas whose atoms
    take variables or members of s and t as constants.  At most 2^7 concept
    combinations times 4 graphs."""
    letters = draw(st.permutations("abcd"))
    own, below = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    members = {"s": sorted(letters[:own]), "t": sorted(letters[own:own + below])}
    pool = {"s": own + below, "t": below}
    lines = ["sort s", f"extent s = {{ {', '.join(members['s'])} }}",
             "sort t isa s", f"extent t = {{ {', '.join(members['t'])} }}",
             "sort reals",
             "concept k-ness arity 2 sorts t nested-sentence predicate k",
             "concept z-hood arity 1 sorts nested-sentence predicate z",
             "function f/1 : t -> t"]
    unary: list[tuple[str, str]] = []
    for i in range(draw(st.integers(1, 3))):
        sort = draw(st.sampled_from(["s", "t"]))
        if sum(pool[s] for _, s in unary) + pool[sort] <= 7:
            unary.append((f"p{i}", sort))
    lines += [f"concept {pred}-hood arity 1 sorts {sort} predicate {pred}"
              for pred, sort in unary]
    # edges among the unary concepts and the finite sorts, drawn without a
    # cycle: `up` holds every node's supersorts
    nodes = [f"{pred}-hood" for pred, _ in unary] + ["s", "t", "z-hood"]
    up = {node: {node} for node in nodes}
    up["t"].add("s")
    for sub, sup in draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                                  max_size=4)):
        if sub in up[sup]:
            continue
        lines.append(f"isa {sub} {sup}")
        for node in nodes:
            if sub in up[node]:
                up[node] |= up[sup]
    for pred, _ in unary:
        if draw(st.booleans()):
            lines.append(f"isa {pred}-hood {draw(st.sampled_from(['reals', 'k-ness']))}")
    concepts = [(pred, (sort,)) for pred, sort in unary]
    free = [Variable("xs", "s"), Variable("xt", "t")]
    # a constant pins its particular, and a unary atom on it is a plan selection
    constants = {"s": members["s"] + members["t"], "t": members["t"]}

    def formula(depth: int) -> str:
        return format_formula(draw(_formula(concepts, constants, free, depth)))

    for _ in range(draw(st.integers(0, 1))):
        lines.append(f"axiom {formula(1)}")
    for kind in draw(st.lists(st.sampled_from(["consequence", "intension", "bealer-montague"]),
                              min_size=1, max_size=3)):
        lines.append(f"query {kind} {formula(2)}")
    lines.append(f"query intension {unary[0][0]}(f(xt:t)) & {formula(1)}")
    return "\n".join(lines) + "\n"


# --- formulas in and around the fragment that cannot raise ------------------------

# Declarations that add a sort and a binary concept whose pools are empty,
# and so no world: appended to a generated workspace, they give
# `fragment_formulas` variables and a concept over an empty pool.
EMPTY_POOLS = "sort void\nconcept v-ness arity 2 sorts void void predicate v\n"


@st.composite
def fragment_formulas(draw, ws, depth: int = 3):
    """A well-sorted formula over a loaded workspace, mostly inside the
    fragment that cannot raise.  Atoms of its registered concepts, of every
    arity, take declared constants and variables of the position's sort or a
    subsort, and often repeat a variable (`r(x0, x0)`); with two variables
    per sort, quantifiers that shadow a variable in scope are common, and
    `exists` may bind a variable the body does not read.  Some formulas are
    closed by binding their free variables.  The arguments of built-in
    predicates nest built-in applications two deep, `div` and `pow` to the
    exponents 2, -1 and 1/2 among them, so comparisons fall on both sides of
    the fragment.  Function graphs, numeric constants in concept atoms,
    non-numeric particulars of a numeric sort and quantifiers over an
    infinite sort mix formulas outside the fragment in, also as sub-formulas
    of fragment ones, and so do atoms of concepts with a nested-sentence
    position, which takes an abstraction term: its body is a drawn formula,
    each of whose free variables is hidden (alpha) or exposed (beta) at
    random, and a direct argument of the atom often repeats one of its beta
    variables (`k(x, <<p(x)>>|beta: x)`)."""
    domain, signature = ws.domain, ws.signature
    atoms = [(pred, c.attribute_sorts) for pred, c in ws.registry.by_predicate.items()
             if all(domain.sort_is_finite(s) or s == NESTED_SENTENCE_SORT
                    for s in c.attribute_sorts)]
    atoms += [(pred, signature.predicate_sorts(pred)) for pred in signature.builtin_predicates
              if pred != "true"]
    nested = [atom for atom in atoms if NESTED_SENTENCE_SORT in atom[1]]
    plain = [atom for atom in atoms if atom not in nested]
    sorts = sorted({s for _, position in atoms for s in position if s != NESTED_SENTENCE_SORT}
                   | {"truth values"})
    variables = [Variable(f"{name}{i}", sort) for i, sort in enumerate(sorts) for name in "xy"]
    infinite = [s for s in ("reals", "integers") if s in domain.lattice
                and not domain.sort_is_finite(s)]
    graphs = {symbol: sorts_ for symbol, sorts_ in signature.functions.items()
              if symbol not in signature.builtin_functions}
    arithmetic = {symbol: sorts_ for symbol, sorts_ in signature.functions.items()
                  if symbol in signature.builtin_functions}

    def argument(sort: str, outer: bool = True, nesting: int = 0):
        """A term of the sort: a variable, a constant, or, at the outer
        level, a graph application; with `nesting`, built-in applications
        too, that many deep."""
        options: list = [Var(v) for v in variables if domain.is_subsort(v.sort, sort)]
        options += [Const(p.lexeme) for p in domain.valid_elements(sort)]
        if outer:
            options += [symbol for symbol, (_, ret) in graphs.items()
                        if domain.is_subsort(ret, sort)]
        if nesting:  # each built-in twice, so that applications are common
            options += [symbol for symbol, (_, ret) in arithmetic.items()
                        if domain.is_subsort(ret, sort)] * 2
        t = draw(st.sampled_from(options))
        if not isinstance(t, str):
            return t
        if t in graphs:  # a graph application, its arguments drawn alike
            return FnApp(t, tuple(argument(s, outer=False) for s in graphs[t][0]))
        args = [argument(s, outer, nesting - 1) for s in arithmetic[t][0]]
        if signature.builtin_functions[t] == "pow" and draw(st.booleans()):
            # a constant exponent: pow cannot raise on 2, and raises on 1/2
            # everywhere and on -1 at 0
            args[1] = Const(draw(st.sampled_from(["2", "-1", "1/2"])))
        return FnApp(t, tuple(args))

    def abstraction(depth: int, position: tuple[str, ...]):
        """An abstraction term for an atom over `position`: a body variable
        that could also be a direct argument of the atom is exposed three
        times in four, any other one time in two."""
        body = formula(depth)
        beta = [v for v in free_vars(body) if draw(st.booleans()) or (draw(st.booleans()) and any(
            s != NESTED_SENTENCE_SORT and domain.is_subsort(v.sort, s) for s in position))]
        return mk_abstracted(body, [v for v in free_vars(body) if v not in beta], beta)

    def formula(depth: int):
        kind = draw(st.sampled_from(["atom", "atom", "not", "connective", "exists"] if depth
                                    else ["atom"]))
        if kind == "not":
            return Not(formula(depth - 1))
        if kind == "connective":
            return _connective(draw, lambda: formula(depth - 1))
        if kind == "exists":
            sort = draw(st.sampled_from(sorts + infinite))
            v = draw(st.sampled_from([v for v in variables if v.sort == sort]
                                     or [Variable("z", sort)]))
            return Exists(v, formula(depth - 1))
        # about one atom in two above the last level takes an abstraction,
        # whose body is a formula one level down
        pred, position = draw(st.sampled_from(
            nested if depth and nested and draw(st.booleans()) else plain))
        nesting = 2 if pred in signature.builtin_predicates else 0
        # the abstractions first, so that a direct argument may repeat one of
        # their beta variables as well as an earlier direct argument
        args: dict[int, object] = {i: abstraction(depth - 1, position)
                                   for i, sort in enumerate(position)
                                   if sort == NESTED_SENTENCE_SORT}
        for i, sort in enumerate(position):
            if i in args:
                continue
            exposed = [Var(v) for t in args.values() if isinstance(t, Abstracted)
                       for v in t.beta if domain.is_subsort(v.sort, sort)]
            again = [t for t in args.values()
                     if isinstance(t, Var) and domain.is_subsort(t.var.sort, sort)]
            if exposed and draw(st.integers(0, 3)):
                args[i] = draw(st.sampled_from(exposed))
            elif again and draw(st.booleans()):
                args[i] = draw(st.sampled_from(again))
            else:
                args[i] = argument(sort, nesting=nesting)
        return Atom(pred, tuple(args[i] for i in range(len(position))))

    phi = formula(depth)
    if draw(st.booleans()):
        for v in free_vars(phi):
            phi = Exists(v, phi)
    return phi


# --- built-in arithmetic over two or three free variables --------------------------

NUMERALS = ("-2", "-1", "0", "1", "2", "1/2")
COMPARISONS = ("leq", "lt", "geq", "gt", "eq")  # every built-in comparison
_BUILTIN_FUNCTIONS = {"add": 2, "sub": 2, "mul": 2, "div": 2, "pow": 2, "neg": 1}


@st.composite
def _arith_term(draw, scope, depth):
    """A term of sort reals: a variable, a numeral, the declared function f of
    an s-variable, or a built-in application.  div by 0, pow of 0 to a
    negative power and pow to 1/2 raise where they are reached."""
    reals = [Var(v) for v in scope if v.sort == "reals"]
    things = [Var(v) for v in scope if v.sort == "s"] + [Const("c0")]
    kinds = (["var"] if reals else []) + ["numeral"]
    kind = draw(st.sampled_from(kinds + (["builtin", "builtin", "graph"] if depth else [])))
    if kind == "var":
        return draw(st.sampled_from(reals))
    if kind == "numeral":
        return Const(draw(st.sampled_from(NUMERALS)))
    if kind == "graph":
        return FnApp("f", (draw(st.sampled_from(things)),))
    symbol = draw(st.sampled_from(sorted(_BUILTIN_FUNCTIONS)))
    args = []
    for _ in range(_BUILTIN_FUNCTIONS[symbol]):
        args.append(draw(_arith_term(scope, depth - 1)))
    return FnApp(symbol, tuple(args))


@st.composite
def _arith_formula(draw, scope, depth, terms):
    """Built-in comparisons, each of `COMPARISONS`, and the unary concept p
    over arithmetic terms, under ~, &, |, -> and exists."""
    kind = draw(st.sampled_from(["atom", "atom", "not", "connective", "exists"] if depth
                                else ["atom"]))
    if kind == "not":
        return Not(draw(_arith_formula(scope, depth - 1, terms)))
    if kind == "connective":
        return _connective(draw, lambda: draw(_arith_formula(scope, depth - 1, terms)))
    if kind == "exists":
        v = Variable(f"z{depth}", draw(st.sampled_from(["reals", "s"])))
        return Exists(v, draw(_arith_formula((*scope, v), depth - 1, terms)))
    pred = draw(st.sampled_from([*COMPARISONS, "p"]))
    arity = 1 if pred == "p" else 2
    args = []
    for _ in range(arity):
        args.append(draw(_arith_term(scope, terms)))
    return Atom(pred, tuple(args))


@st.composite
def arithmetic_workspaces(draw) -> str:
    """Queries and axioms whose atoms compare built-in arithmetic over two or
    three free reals and an s-variable, with terms that raise at some
    assignments; a unary concept over the 2-3 reals and a function graph from
    s to reals make at most 8 * 9 worlds."""
    reals = draw(st.lists(st.sampled_from(NUMERALS), min_size=2, max_size=3, unique=True))
    things = ["c0", "c1"][:draw(st.integers(1, 2))]
    lines = ["sort integers", "sort rationals", "sort reals",
             "isa integers rationals", "isa rationals reals",
             f"extent reals = {{ {', '.join(reals)} }}",
             "sort s", f"extent s = {{ {', '.join(things)} }}",
             "concept p-hood arity 1 sorts reals predicate p",
             "function f/1 : s -> reals"]
    for symbol, arity in _BUILTIN_FUNCTIONS.items():
        sorts = " x ".join(["reals"] * arity)
        lines.append(f"builtin function {symbol}/{arity} : {sorts} -> reals = {symbol}")
    for pred in COMPARISONS:
        lines.append(f"builtin predicate {pred}/2 : reals x reals = {pred}")
    free = [Variable(name, "reals") for name in "xyz"][:draw(st.integers(2, 3))]
    free.append(Variable("u", "s"))

    def formula(depth: int) -> str:
        return format_formula(draw(_arith_formula(tuple(free), depth, 2)))

    for _ in range(draw(st.integers(0, 1))):
        lines.append(f"axiom {formula(1)}")
    for kind in draw(st.lists(st.sampled_from(["consequence", "intension", "bealer-montague"]),
                              min_size=2, max_size=4)):
        lines.append(f"query {kind} {formula(2)}")
    return "\n".join(lines) + "\n"


@st.composite
def mutated_fixtures(draw) -> str:
    """The text of a committed fixture after one to three token edits: delete
    a token, insert one that some fixture holds or a number literal with a
    zero denominator, duplicate one, or truncate one to a proper prefix.
    Each edit falls on a query line half of the time, on any line
    otherwise."""
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ifol"))]
    vocabulary = sorted({token for text in texts for token in text.split()} | {"1/0"})
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        queries = [i for i, line in enumerate(lines) if line.startswith("query")]
        at = draw(st.sampled_from(queries if queries and draw(st.booleans())
                                  else range(len(lines))))
        tokens = lines[at].split()
        edit = draw(st.sampled_from(["delete", "insert", "duplicate", "truncate"])
                    if tokens else st.just("insert"))
        i = draw(st.integers(0, len(tokens) - (edit != "insert")))
        if edit == "delete":
            del tokens[i]
        elif edit == "insert":
            tokens.insert(i, draw(st.sampled_from(vocabulary)))
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i] = tokens[i][:draw(st.integers(0, len(tokens[i]) - 1))]
        lines[at] = " ".join(tokens)
    return "\n".join(lines) + "\n"
