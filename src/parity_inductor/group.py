"""Finite permutation groups: stabilizer chain, elements, conjugacy classes."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .perm import Perm, identity


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
    inverse: tuple  # inverse[a] = position of elements()[a] ** -1
    orders: tuple  # orders[a] = order of elements()[a]


class PermGroup:
    """Group generated by permutations of a common degree.

    Elements are enumerated once and sorted; most queries work with element
    indices into that list.  The identity always has index 0.
    """

    def __init__(self, generators, degree=None):
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
        self._cache = {}

    # ------------------------------------------------------------------ chain

    def _chain(self):
        """Deterministic stabilizer chain: list of (point, gens, transversal)."""
        if "chain" in self._cache:
            return self._cache["chain"]
        levels = []

        def first_moved(g):
            for i, j in enumerate(g.images):
                if i != j:
                    return i
            raise AssertionError("identity has no moved point")

        def insert(g):
            """Record g as a strong generator; returns its fixed-prefix depth."""
            j = 0
            while True:
                if j == len(levels):
                    levels.append({"point": first_moved(g), "gens": [], "trans": None})
                    break
                if g.images[levels[j]["point"]] == levels[j]["point"]:
                    j += 1
                else:
                    break
            for lvl in range(j + 1):
                levels[lvl]["gens"].append(g)
                levels[lvl]["trans"] = None
            return j

        def orbit(level):
            if level["trans"] is not None:
                return level["trans"]
            b = level["point"]
            trans = {b: identity(self.degree)}
            frontier = [b]
            while frontier:
                new = []
                for p in frontier:
                    u = trans[p]
                    for s in level["gens"]:
                        q = s.images[p]
                        if q not in trans:
                            trans[q] = u * s
                            new.append(q)
                frontier = new
            level["trans"] = trans
            return trans

        def strip(g, start):
            for idx in range(start, len(levels)):
                lv = levels[idx]
                q = g.images[lv["point"]]
                u = orbit(lv).get(q)
                if u is None:
                    return g
                g = g * u.inverse()
            return g

        for g in self.generators:
            insert(g)

        i = len(levels) - 1
        while i >= 0:
            trans = orbit(levels[i])
            new_depth = None
            for p in sorted(trans):
                u_p = trans[p]
                for s in levels[i]["gens"]:
                    q = s.images[p]
                    schreier = u_p * s * trans[q].inverse()
                    if schreier.is_identity():
                        continue
                    residue = strip(schreier, i + 1)
                    if residue.is_identity():
                        continue
                    new_depth = insert(residue)
                    break
                if new_depth is not None:
                    break
            if new_depth is None:
                i -= 1
            else:
                i = new_depth
        self._cache["chain"] = levels
        return levels

    def order(self) -> int:
        if "order" not in self._cache:
            n = 1
            for lv in self._chain():
                n *= len(lv["trans"])
            self._cache["order"] = n
        return self._cache["order"]

    def __contains__(self, p: Perm) -> bool:
        if not isinstance(p, Perm) or p.degree != self.degree:
            return False
        g = p
        for lv in self._chain():
            q = g.images[lv["point"]]
            u = lv["trans"].get(q)
            if u is None:
                return False
            g = g * u.inverse()
        return g.is_identity()

    # --------------------------------------------------------------- elements

    def elements(self):
        """All elements, sorted; the identity is first."""
        if "elements" not in self._cache:
            elts = [identity(self.degree)]
            for lv in reversed(self._chain()):
                trans = [lv["trans"][p] for p in sorted(lv["trans"])]
                elts = [h * u for h in elts for u in trans]
            elts.sort()
            self._cache["elements"] = tuple(elts)
            self._cache["index"] = {g.images: i for i, g in enumerate(elts)}
        return self._cache["elements"]

    def element_index(self, p: Perm) -> int:
        self.elements()
        try:
            return self._cache["index"][p.images]
        except KeyError:
            raise KeyError("element not in group: %r" % (p,)) from None

    def cayley(self) -> Cayley:
        """Integer Cayley table, inverses and element orders, built once."""
        if "cayley" not in self._cache:
            elts = self.elements()
            index = self._cache["index"]
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
            self._cache["cayley"] = Cayley(
                table=tuple(rows),
                inverse=tuple(row.index(0) for row in rows),
                orders=tuple(x.order() for x in elts),
            )
        return self._cache["cayley"]

    # ---------------------------------------------------------------- classes

    def conjugacy_classes(self):
        """Conjugacy classes ordered by (element order, size, minimal rep)."""
        if "classes" in self._cache:
            return self._cache["classes"]
        elts = self.elements()
        assigned = [None] * len(elts)
        raw = []
        for start in range(len(elts)):
            if assigned[start] is not None:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                new = []
                for idx in frontier:
                    x = elts[idx]
                    for g in self.generators:
                        y = g.inverse() * x * g
                        yi = self._cache["index"][y.images]
                        if yi not in orbit:
                            orbit.add(yi)
                            new.append(yi)
                frontier = new
            for idx in orbit:
                assigned[idx] = -1
            members = tuple(sorted(orbit))
            rep = elts[members[0]]
            raw.append((rep.order(), len(members), rep.images, members))
        raw.sort(key=lambda t: (t[0], t[1], t[2]))
        classes = []
        class_of = [None] * len(elts)
        for ci, (order, size, _, members) in enumerate(raw):
            classes.append(
                ConjClass(rep=elts[members[0]], size=size, order=order, members=members)
            )
            for idx in members:
                class_of[idx] = ci
        self._cache["classes"] = tuple(classes)
        self._cache["class_of"] = class_of
        return self._cache["classes"]

    def class_of_index(self, elt_index: int) -> int:
        self.conjugacy_classes()
        return self._cache["class_of"][elt_index]

    def class_of(self, p: Perm) -> int:
        return self.class_of_index(self.element_index(p))

    # ------------------------------------------------------------- structure

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = lcm(
                *(c.order for c in self.conjugacy_classes())
            )
        return self._cache["exponent"]

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            (a * b).images == (b * a).images for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def is_cyclic(self) -> bool:
        return any(c.order == self.order() for c in self.conjugacy_classes())

    def subgroup(self, generators) -> "PermGroup":
        """Group generated by the given elements, on the same points."""
        return PermGroup(generators, degree=self.degree)

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order())


def conjugacy_classes(G: PermGroup):
    """(representative, size, element order) per class, in the group's order."""
    return [(c.rep, c.size, c.order) for c in G.conjugacy_classes()]
