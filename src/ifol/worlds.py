"""World enumeration, and the classes of isomorphic worlds.

Worlds come in the order of the candidate product -- concepts by
registration, the first outermost, each taking the subsets of its pool by
ascending mask (bit i for the pool's i-th tuple, pools in lexeme order),
function graphs innermost -- but `enumerate_worlds` visits only the
combinations that keep every IS-A edge between unary extents: it backtracks
over the concepts, and the concept that fixes an edge's second side takes
only the masks that fit the first. `MAX_WORLDS` bounds the whole candidate
product.

An enumeration is the walk's columns (`semantics.Worlds`, the one carrier
of enumerated worlds): one column of masks per registered concept, an int
per world, and one of whether each world leads its class, with the
function graphs and the decoders (`semantics.Subsets`, one per concept)
that every world shares, which turn a mask into its relation once and keep
it, and the declaration stamp their pools were read under.  The walk
builds no relation, no tuple of masks and no `World`: a world is built
when a route first reads it, and its `relations` decoded when a route
first reads them, so the Kripke and Tarski routes pay for the worlds they
visit, and a relational plan runs over the mask columns themselves
(bit-vector relations, as in the finite model finders Mace4, McCune 2003,
and Paradox, Claessen & Sörensson 2003).

Two particulars of one sort that no formula names cannot be told apart
(`movable_particulars`): every world has an isomorphic twin in which the two
are swapped, and a formula that reads only relation membership gives the
twin the swapped answer.  A consequence or Bealer-Montague query whose
formulas all have a relational plan (`ifol.plan`, the fragment that cannot
raise) is therefore decided on the first world of each class alone (the
view `Worlds.leaders`, over the lead column): a failure found in some world
is found in the first world of its class.  The classes are those of
isomorphism elimination in MACE-style model finders (Claessen & Sörensson,
2003), restricted to unary relations: concepts of higher arity and
function graphs pin every particular in their pools.  A swap inside a group so moves only the group's
bits inside each unary relation's mask, and a world is the first of its
class when its masks are the least, the first concept's before the next:
when, for each particular and the next of its group, the first unary
relation that holds one of the two holds the earlier.  Neighbours suffice:
swapping a pair out of that order gives an earlier world of the class.
This is the lex-leader test of symmetry breaking (Crawford, Ginsberg, Luks &
Roy, KR 1996), and the walk applies it one level at a time, as isomorph-free
generation does (McKay, J. Algorithms 1998): each level carries the pairs
its masks have not yet told apart, and a level that holds the later of a
pair still tied leaves every world below it out of the class's lead.  The
IS-A filter keeps or drops a class whole.

An intension evaluates every world, by its relational plan where it has one:
carrying a representative's rows to its class through a bijection of
particulars cost more than one sweep over every world.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .errors import ExplosionGuard
from .kernel import Domain, Element, NESTED_SENTENCE_SORT, Particular, RESERVED_SORTS, TOP_SORT
from .semantics import MAX_WORLDS, Structure, Subsets, Worlds
from .syntax import Abstracted, And, Atom, Const, Exists, FnApp, Formula, Not, Term

# Per concept level: the bits every mask there must hold (its floor), the
# bits it may hold (its ceiling), and the IS-A edges to earlier levels that
# close there.  Such an edge is (level, to, lost, raises_floor): the earlier
# level's mask, mapped onto this level's pool (bit b becomes to[b]; to is None
# when the pools are the same), raises this level's floor when this level is
# the super side and lowers its ceiling when it is the sub side.  `lost` are
# the earlier level's bits whose elements this pool lacks: no floor here can
# hold them, so a mask there that sets one leaves this level no mask.
_Link = tuple[int, Optional[list[int]], int, bool]
_Bound = tuple[int, int, list[_Link]]
_Pair = tuple[Particular, Particular]


def enumerate_worlds(space: Structure, max_worlds: int = MAX_WORLDS,
                     formulas: Iterable[Formula] = ()) -> Worlds:
    """All extensionalization functions over the registered concepts that keep
    IS-A extent inclusion, each marking whether it is the first of its class
    of worlds isomorphic under swaps of the particulars `formulas` leave
    movable (see `movable_particulars`).

    Each registered predicate-concept receives subsets of its sorted tuple
    pool, as masks with bit i for the pool's i-th tuple; positions of
    nested-sentence sort have no element-level extent, which forces those
    relations empty.  Declared functions receive every total graph.  The
    worlds come in candidate order: concepts by registration, the first
    outermost, each taking its masks ascending, function graphs innermost;
    pool tuples are lexicographic by lexeme.  `max_worlds` bounds the whole
    candidate product and is checked before any world is built.

    The walk backtracks over the concepts and never builds a candidate that
    breaks an edge (orderly generation, Read 1978; propagation in finite
    model search, McCune's Mace4 2003).  An edge whose sides both have a unary
    extent -- an enumerated unary concept or a finite sort's declared members
    -- is checked at the level that fixes its second side: that level takes
    only the supersets of the sub side's mask, or the subsets of the super
    side's, in ascending order, so the kept worlds and their order are those
    of the filtered product.  The result is a sized sequence that holds
    the worlds as columns, one of masks per concept and one of lead flags,
    each entry repeated once per combination of function graphs, and builds
    the `World` of an index when it is first read (see `Worlds`).
    """
    domain = space.domain
    names: list[str] = []
    pools: list[list[tuple[Element, ...]]] = []
    candidates = 1
    for c in space.registry.by_predicate.values():
        pool = domain.tuple_pool(c.attribute_sorts)
        names.append(c.name)
        pools.append(pool)
        candidates *= 2 ** len(pool)
        if candidates > max_worlds:
            raise ExplosionGuard(f"more than {max_worlds} candidate worlds")

    fn_graphs: list[tuple[str, list[dict[tuple[Element, ...], Element]]]] = []
    for symbol in sorted(space.signature.functions):
        if symbol in space.signature.builtin_functions:
            continue
        arg_sorts, ret = space.signature.functions[symbol]
        arg_pool = domain.tuple_pool(arg_sorts)
        ret_pool = domain.valid_elements(ret)
        count = len(ret_pool) ** len(arg_pool)
        candidates *= max(count, 1)
        if candidates > max_worlds:
            raise ExplosionGuard(f"more than {max_worlds} candidate worlds")
        # no graphs at all (empty return pool, nonempty domain) means no total
        # function exists, hence no world
        graphs = [dict(zip(arg_pool, values))
                  for values in itertools.product(ret_pool, repeat=len(arg_pool))]
        fn_graphs.append((symbol, graphs))

    decoders = tuple(map(Subsets, names, pools))
    bounds = _bounds(domain, names, pools)
    if bounds is None:
        return Worlds(space, [[] for _ in pools], [], [{}], decoders, space.stamp)
    # The pools are read, so reading them again for the groups cannot raise.
    # Only a unary relation can tell two movable particulars apart.
    unary = any(len(pool[0]) == 1 for pool in pools if pool)
    groups = movable_particulars(space, formulas) if unary else ()
    pairs = [pair for group in groups for pair in zip(group, group[1:])]
    symbols = [symbol for symbol, _ in fn_graphs]
    functions = [dict(zip(symbols, combo))
                 for combo in itertools.product(*(graphs for _, graphs in fn_graphs))]
    columns, leads = _walk(pools, bounds, pairs)
    k = len(functions)
    if k != 1:  # function graphs innermost: each combination of masks k times
        columns = [[m for m in column for _ in range(k)] for column in columns]
        leads = [lead for lead in leads for _ in range(k)]
    return Worlds(space, columns, leads, functions, decoders, space.stamp)


def _bounds(domain: Domain, names: list[str], pools: list[list[tuple[Element, ...]]]
            ) -> Optional[list[_Bound]]:
    """What the IS-A edges ask of each concept level, or None when no
    combination keeps them.  Floors combine by OR and ceilings by AND, so the
    order the edges come in does not matter."""
    position = {name: i for i, name in enumerate(names)}
    floors = [0] * len(pools)
    ceilings = [(1 << len(pool)) - 1 for pool in pools]
    links: list[list[_Link]] = [[] for _ in pools]
    for sub_name, sup_name in domain.lattice.isa_edges:
        sub = _side(domain, position, pools, sub_name)
        sup = _side(domain, position, pools, sup_name)
        if isinstance(sub, frozenset) and isinstance(sup, frozenset):
            if not sub <= sup:
                return None
        elif isinstance(sub, frozenset) and isinstance(sup, int):  # sup holds every member
            bits = _bit_of(pools[sup])
            if not all(e in bits for e in sub):
                return None
            floors[sup] |= sum(bits[e] for e in sub)
        elif isinstance(sub, int) and isinstance(sup, frozenset):  # sub stays among them
            bits = _bit_of(pools[sub])
            ceilings[sub] &= sum(bits[e] for e in sup if e in bits)
        elif isinstance(sub, int) and isinstance(sup, int):
            if sub < sup:
                links[sup].append((sub, *_remap(pools[sub], pools[sup]), True))
            elif sup < sub:
                links[sub].append((sup, _remap(pools[sup], pools[sub])[0], 0, False))
    return list(zip(floors, ceilings, links))


def _side(domain: Domain, position: dict[str, int], pools: list[list[tuple[Element, ...]]],
          name: str) -> int | frozenset[Element] | None:
    """One side of an IS-A edge: the level of an enumerated unary concept, the
    extent every world gives it when that is fixed (no element for a concept
    whose pool is empty, the members of a finite sort), or None when it has
    no unary extent and the edge constrains nothing."""
    concept = domain.concepts.get(name)
    if concept is None or concept.arity != 1:
        return None
    if name in position:
        level = position[name]
        return level if pools[level] else frozenset()
    if not domain.sort_is_finite(name):
        return None
    return frozenset(domain.valid_elements(name))


def _bit_of(pool: list[tuple[Element, ...]]) -> dict[Element, int]:
    """The mask bit of each element of a unary pool."""
    return {t[0]: 1 << b for b, t in enumerate(pool)}


def _remap(source: list[tuple[Element, ...]], target: list[tuple[Element, ...]]
           ) -> tuple[Optional[list[int]], int]:
    """How a mask over the unary pool `source` reads over `target`: the bit
    each source bit becomes (None when the pools are the same), and the
    source bits that `target` lacks."""
    if source == target:
        return None, 0
    bits = _bit_of(target)
    to = [bits.get(t[0], 0) for t in source]
    return to, sum(1 << b for b, bit in enumerate(to) if not bit)


def _walk(pools: list[list[tuple[Element, ...]]], bounds: list[_Bound], pairs: list[_Pair]
          ) -> tuple[list[list[int]], list[bool]]:
    """The masks of every combination that keeps the bounds, as one column
    per level, in candidate order, and whether each combination leads its
    class: a depth-first walk over the levels, without recursion, since
    concepts with an empty pool add levels but no worlds.  The innermost
    level appends its masks to its own column and each level above it
    repeats its chosen mask as often; the walk ends at the last level with
    a nonempty pool, and the levels after it are columns of 0.

    `tied[level]` holds, as bit k, the pairs[k] that no level above has told
    apart, or None once one of them held only the later particular."""
    if not pools:
        return [], [True]
    ranks = [_Ties(pool, pairs) for pool in pools]
    columns: list[list[int]] = [[] for _ in pools]
    leads: list[bool] = []
    last = len(pools) - 1
    while last and not pools[last]:
        last -= 1
    chosen = [0] * last
    tied: list[Optional[int]] = [(1 << len(pairs)) - 1] + [None] * last
    walks = [_masks(bounds[0], chosen)] + [iter(())] * last
    level = 0
    while level >= 0:
        if level == last:  # the innermost level: one combination per mask
            ties, behind = tied[last], ranks[last]
            masks = list(walks[last])
            columns[last] += masks
            for column, mask in zip(columns, chosen):
                column += itertools.repeat(mask, len(masks))
            leads += [False] * len(masks) if ties is None else \
                [not behind[mask][1] & ties for mask in masks]
            level -= 1
            continue
        mask = next(walks[level], None)
        if mask is None:
            level -= 1
            continue
        chosen[level] = mask
        ahead, behind = ranks[level][mask]
        ties = tied[level]
        tied[level + 1] = None if ties is None or behind & ties else ties & ~ahead
        level += 1
        walks[level] = _masks(bounds[level], chosen)
    for column in columns[last + 1:]:
        column += itertools.repeat(0, len(leads))
    return columns, leads


class _Ties(dict):
    """Per mask over one pool, built when first asked for: as bit k, the
    pairs[k] = (p, q) it holds p and not q of (ahead) and q and not p of
    (behind).  Both are 0 over a pool that is not unary."""

    __slots__ = ("pairs",)

    def __init__(self, pool: list[tuple[Element, ...]], pairs: list[_Pair]):
        bits = _bit_of(pool) if pool and len(pool[0]) == 1 else {}
        self.pairs = [(1 << k, bits[p], bits[q]) for k, (p, q) in enumerate(pairs) if p in bits]

    def __missing__(self, mask: int) -> tuple[int, int]:
        ahead = behind = 0
        for pair, p, q in self.pairs:
            if mask & p and not mask & q:
                ahead |= pair
            elif mask & q and not mask & p:
                behind |= pair
        made = self[mask] = (ahead, behind)
        return made


def _masks(bound: _Bound, chosen: list[int]) -> Iterator[int]:
    """The masks one level may take below the masks `chosen` above it, in
    ascending order: floor | s for every s ⊆ free, the bits between the floor
    and the ceiling; (s - free) & free is the next such s after s (Knuth,
    TAOCP 7.1.3)."""
    floor, ceiling, links = bound
    for level, to, lost, raises_floor in links:
        mask = chosen[level]
        if mask & lost:
            return
        if to is not None:
            mask = sum(bit for b, bit in enumerate(to) if mask >> b & 1)
        if raises_floor:
            floor |= mask
        else:
            ceiling &= mask
    if floor & ~ceiling:
        return
    free, s = ceiling & ~floor, 0
    while True:
        yield floor | s
        s = (s - free) & free
        if not s:
            return


# --- interchangeable particulars ------------------------------------------------------

def movable_particulars(space: Structure, formulas: Iterable[Formula]
                        ) -> tuple[tuple[Particular, ...], ...]:
    """The interchangeable particulars, one group per dynamic sort with two or
    more members, each in lexeme order.  A particular is movable when it is
    not numeric, its sort is not reserved, no constant in `formulas` names it
    (abstraction bodies and function arguments included), and it is in the
    sort pool of no position of a concept of arity other than 1 and of no
    argument or return of a declared function.  Swapping two movable
    particulars of one sort keeps every sort pool, so it maps each world onto
    a world.  The pools are those `enumerate_worlds` read, so call this only
    once they were read without error."""
    domain = space.domain
    candidates: dict[str, list[Particular]] = {}
    for p in domain.valid_elements(TOP_SORT):
        if p.value is None and p.sort not in RESERVED_SORTS:
            candidates.setdefault(p.sort, []).append(p)
    if all(len(group) < 2 for group in candidates.values()):
        return ()
    named = _constant_symbols(formulas)
    pools = [c.attribute_sorts for c in space.registry.by_predicate.values() if c.arity != 1]
    pools += [(*arg_sorts, ret) for symbol, (arg_sorts, ret) in space.signature.functions.items()
              if symbol not in space.signature.builtin_functions]
    pinned: set[Element] = set()
    for sorts in pools:
        # a nested-sentence position leaves the pool, and the graphs, empty
        if NESTED_SENTENCE_SORT not in sorts:
            for sort in sorts:
                pinned.update(domain.valid_elements(sort))
    groups = ([p for p in group if p.lexeme not in named and p not in pinned]
              for group in candidates.values())
    return tuple(tuple(group) for group in groups if len(group) > 1)


def _constant_symbols(formulas: Iterable[Formula]) -> set[str]:
    """Every constant symbol in the formulas, inside abstraction bodies and
    function arguments too."""
    out: set[str] = set()
    stack: list[Formula | Term] = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            out.add(node.symbol)
        elif isinstance(node, (Atom, FnApp)):
            stack.extend(node.args)
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack.extend(node.parts)
        elif isinstance(node, (Exists, Abstracted)):
            stack.append(node.body)
    return out
