"""Finite permutation groups: elements, Cayley tables, conjugacy classes.

Past the one sorted listing of its elements, a group works on positions in
it: products, inverses, orders, classes and generators are all maps on
positions, and this module owns them and Dimino's `extend_subgroup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .perm import Perm

# A Cayley table holds order ** 2 positions, about 8 bytes each in CPython
# 3.11: `chartab S7` (order 5,040) peaks at 213 MB, so this bound keeps a
# table near 0.55 GB, while S8 would need about 13 GB.
MAX_CAYLEY_ORDER = 8192


class CayleyBoundError(ValueError):
    """The group is too large for a Cayley table."""


def order_text(n: int) -> str:
    """A group order for a message: str() refuses ints over 4,300 digits, and
    a family token such as S2000 names a larger order."""
    return str(n) if n.bit_length() <= 14000 else "about 10^%d" % (n.bit_length() * 0.30103)


@dataclass(frozen=True)
class ConjClass:
    """One conjugacy class: representative, size, element order, member indices."""

    rep: Perm
    size: int
    order: int
    members: tuple


class Cayley(NamedTuple):
    """A group's multiplication on the positions of its sorted elements."""

    table: tuple  # table[a][b] = position of elements()[a] * elements()[b]
    inverse: tuple  # inverse[a] = position of the inverse of elements()[a]
    orders: tuple  # orders[a] = order of elements()[a]


_MISSING = object()


def per_group(build):
    """Memoise ``build(G, *args)`` in ``G._cache`` under ``build.__name__``, or
    ``(build.__name__, *args)`` with arguments: the one way into a group's cache.
    A group built with a known ``order`` is seeded with it, `table_group`
    seeds ``elements`` and ``cayley`` too, and `PermGroup.order_above` seeds
    ``elements`` and ``order`` from a listing that completes.
    """
    name = build.__name__

    @wraps(build, updated=())
    def cached(G, *args):
        key = (name, *args) if args else name
        value = G._cache.get(key, _MISSING)
        if value is _MISSING:
            value = G._cache[key] = build(G, *args)
        return value

    return cached


class PermGroup:
    """Group generated by permutations of a common degree.

    Elements are enumerated once and sorted; most queries work with element
    indices into that list.  The identity always has index 0.
    """

    def __init__(self, generators, degree=None, order=None):
        gens = []
        seen = set()
        for g in generators:
            if degree is None:
                degree = g.degree
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        if degree is None:
            raise ValueError("degree required for a trivial group")
        self.degree = degree
        self.generators = tuple(gens)
        self._cache = {} if order is None else {"order": order}

    # --------------------------------------------------------------- elements

    def order_above(self, bound: int) -> bool:
        """Whether |G| > bound.  A known order answers at once; otherwise at
        most min(bound, MAX_CAYLEY_ORDER) + 1 elements are listed, and a
        listing that completes becomes the group's elements and order."""
        if "order" not in self._cache:
            listed = _closure(self, min(bound, MAX_CAYLEY_ORDER))
            if listed is None and bound < MAX_CAYLEY_ORDER:
                return True
            if listed is None:
                raise CayleyBoundError("group order more than %d exceeds the Cayley-table bound %d"
                                       % (MAX_CAYLEY_ORDER, MAX_CAYLEY_ORDER))
            self._cache.update(elements=listed, order=len(listed))
        return self._cache["order"] > bound

    @per_group
    def order(self) -> int:
        """The order the group was built with, or else its number of elements."""
        return len(self.elements())

    @per_group
    def elements(self):
        """All elements, sorted; the identity is first."""
        refuse_order_above(self, MAX_CAYLEY_ORDER, CayleyBoundError, "Cayley-table")
        return self._cache.get("elements") or _closure(self, MAX_CAYLEY_ORDER)

    @per_group
    def _index(self):
        """Position in ``elements()`` of each element, keyed by its images."""
        return {g.images: i for i, g in enumerate(self.elements())}

    def element_index(self, p: Perm) -> int:
        try:
            return self._index()[p.images]
        except KeyError:
            raise KeyError("element not in group: %r" % (p,)) from None

    @per_group
    def generator_positions(self) -> tuple:
        """Positions in ``elements()`` of the generators, in their order."""
        return tuple(map(self.element_index, self.generators))

    @per_group
    def cayley(self) -> Cayley:
        """Integer Cayley table, inverses and element orders, built once."""
        refuse_order_above(self, MAX_CAYLEY_ORDER, CayleyBoundError, "Cayley-table")
        elts = self.elements()
        index = self._index()
        # left multiplication by each generator, on positions
        lefts = [
            [index[tuple(x.images[i] for i in g.images)] for x in elts]
            for g in self.generators
        ]
        rows = [None] * len(elts)
        rows[0] = tuple(range(len(elts)))
        frontier = [0]
        while frontier:
            new = []
            for a in frontier:
                for left in lefts:
                    b = left[a]
                    if rows[b] is None:
                        # elts[b] = g * elts[a], so row b is row a moved by g
                        rows[b] = tuple([left[x] for x in rows[a]])
                        new.append(b)
            frontier = new
        return _cayley_of(rows)

    # ---------------------------------------------------------------- classes

    @per_group
    def conjugacy_classes(self):
        """Conjugacy classes ordered by (element order, size, minimal rep)."""
        table, inverse, orders = self.cayley()
        elts = self.elements()
        gens = self.generator_positions()
        assigned = [None] * len(elts)
        raw = []
        for start in range(len(elts)):
            if assigned[start] is not None:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                new = []
                for x in frontier:
                    row = table[x]
                    for g in gens:
                        y = table[inverse[g]][row[g]]
                        if y not in orbit:
                            orbit.add(y)
                            new.append(y)
                frontier = new
            for idx in orbit:
                assigned[idx] = -1
            members = tuple(sorted(orbit))
            raw.append((orders[start], len(members), members))
        # classes are disjoint, so ties on (order, size) go to the smaller
        # first member, which is the minimal rep: positions follow the images
        raw.sort()
        return tuple(
            ConjClass(rep=elts[members[0]], size=size, order=order, members=members)
            for order, size, members in raw
        )

    @per_group
    def class_of(self) -> tuple:
        """class_of()[a] = index in ``conjugacy_classes()`` of position a's class."""
        class_of = [0] * len(self.elements())
        for ci, cls in enumerate(self.conjugacy_classes()):
            for a in cls.members:
                class_of[a] = ci
        return tuple(class_of)

    # ------------------------------------------------------------- structure

    @per_group
    def exponent(self) -> int:
        return lcm(*(c.order for c in self.conjugacy_classes()))

    def is_abelian(self) -> bool:
        table, gens = self.cayley().table, self.generator_positions()
        return all(table[a][b] == table[b][a] for i, a in enumerate(gens) for b in gens[i + 1 :])

    def is_cyclic(self) -> bool:
        return any(c.order == self.order() for c in self.conjugacy_classes())

    def __repr__(self):
        known = self._cache.get("order")  # never listed here: a repr must not raise
        return "PermGroup(degree=%d, order=%s)" % (self.degree, known and order_text(known))


def _closure(G: PermGroup, limit: int):
    """G's sorted elements, or None as soon as more than ``limit`` are found:
    a breadth-first closure over the generators, on image tuples."""
    seen = {tuple(range(G.degree))}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            # x * g; a group with generators has degree 2 or more, so a tuple
            take = itemgetter(*x)
            for g in G.generators:
                y = take(g.images)
                if y not in seen:
                    if len(seen) == limit:
                        return None
                    seen.add(y)
                    new.append(y)
        frontier = new
    return tuple(map(Perm, sorted(seen)))


def refuse_order_above(G: PermGroup, bound: int, error, what: str) -> None:
    """Raise ``error`` if |G| > bound, naming the order when it is known."""
    if G.order_above(bound):
        known = G._cache.get("order")
        size = "more than %d" % bound if known is None else order_text(known)
        raise error("group order %s exceeds the %s bound %d" % (size, what, bound))


def _cayley_of(rows) -> Cayley:
    """The `Cayley` of the multiplication table ``rows``, identity at 0: one
    walk a, a*a, ... back to 0 per cyclic subgroup, a ** k of order o / gcd(k, o)."""
    rows = tuple(rows)
    orders = [0] * len(rows)
    for a, row in enumerate(rows):
        if not orders[a]:
            cycle = [a]
            while cycle[-1]:
                cycle.append(row[cycle[-1]])
            o = len(cycle)
            for k, x in enumerate(cycle, 1):
                orders[x] = o // gcd(k, o)
    return Cayley(rows, tuple(row.index(0) for row in rows), tuple(orders))


def table_group(generators, degree: int, elements, rows) -> PermGroup:
    """The sorted ``elements`` as a group multiplying as ``rows`` says, its
    generators given as positions in ``elements``: how subgroups and quotient
    images are read off their parent's Cayley table, with no `Perm` product.
    """
    elements = tuple(elements)
    generators = tuple(dict.fromkeys(a for a in generators if a))  # as PermGroup drops them
    G = PermGroup([elements[a] for a in generators], degree=degree, order=len(elements))
    G._cache.update(elements=elements, cayley=_cayley_of(rows), generator_positions=generators)
    return G


def extend_subgroup(table, sub, gens, g) -> frozenset:
    """Positions of <S, g>, for S = <gens> given as the positions ``sub``.

    Dimino's coset extension: <S, g> is a union of right cosets S*y, and a
    union of such cosets that contains S is the whole of <S, g> as soon as
    it is closed under right multiplication by the generators of S and g.
    """
    members = set(sub)
    gens = [*gens, g]
    reps = [0]
    for r in reps:
        row = table[r]
        for x in gens:
            y = row[x]
            if y not in members:
                members.update([table[s][y] for s in sub])
                reps.append(y)
    return frozenset(members)


def conjugacy_classes(G: PermGroup):
    """(representative, size, element order) per class, in the group's order."""
    return [(c.rep, c.size, c.order) for c in G.conjugacy_classes()]
