"""Subgroup lattice: exhaustive enumeration, conjugacy classes, records."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import gcd

from .group import PermGroup, extend_subgroup, per_group, refuse_order_above, table_group

DEFAULT_MAX_ORDER = 512
MAX_SUBGROUPS = 2**15  # C2^7 has 29,212 subgroups, C2^8 has 417,199


class LatticeBoundError(ValueError):
    pass


class SubgroupRecord:
    """A subgroup of a fixed parent group, tagged with its lattice class.

    ``positions`` is the frozenset of the subgroup's positions in
    ``parent.elements()``.  Both element lists are sorted by images, so the
    i-th element of ``as_group()`` is the parent's i-th smallest position:
    ``local`` and ``lift`` translate between the two numberings.
    A class representative's ``normalizer`` holds positions that generate
    its normalizer together with it; a conjugate's is None.
    """

    def __init__(self, parent: PermGroup, positions: frozenset, class_id: int, normal: bool,
                 normalizer=None):
        self.parent = parent
        self.positions = positions
        self.order = len(positions)
        self.class_id = class_id
        self.normal = normal
        self.normalizer = normalizer
        self._group = None

    @cached_property
    def generator_positions(self) -> tuple:
        """Parent positions of a small generating set, chosen by `_greedy_generators`."""
        return _greedy_generators(self.parent, self.positions)

    @property
    def index(self) -> int:
        return self.parent.order() // self.order

    @property
    def label(self) -> str:
        return "#%d" % self.class_id

    def element_set(self) -> frozenset:
        """The subgroup's elements as a frozenset of ``Perm``, built on request."""
        elts = self.parent.elements()
        return frozenset([elts[a] for a in self.positions])

    def as_group(self) -> PermGroup:
        """The subgroup as a group, its Cayley table sliced from the parent's;
        the parent itself when the subgroup is all of it."""
        if self._group is None and self.order == self.parent.order():
            self._group = self.parent
        if self._group is None:
            table, elts = self.parent.cayley().table, self.parent.elements()
            own = self.sorted_positions
            at = {a: i for i, a in enumerate(own)}
            rows = [tuple([at[table[a][b]] for b in own]) for a in own]
            gens = [at[a] for a in self.generator_positions]
            self._group = table_group(gens, self.parent.degree, [elts[a] for a in own], rows)
        return self._group

    @cached_property
    def sorted_positions(self) -> tuple:
        """``positions`` in ascending order: position i of ``as_group()`` is
        the parent's ``sorted_positions[i]``."""
        return tuple(sorted(self.positions))

    def local(self, positions) -> frozenset:
        """Positions in ``as_group().elements()`` of these parent positions."""
        return frozenset([bisect_left(self.sorted_positions, a) for a in positions])

    def lift(self, positions) -> frozenset:
        """Parent positions of these positions in ``as_group().elements()``."""
        return frozenset([self.sorted_positions[i] for i in positions])

    def __repr__(self):
        return "SubgroupRecord(order=%d, class_id=%d, normal=%s)" % (
            self.order,
            self.class_id,
            self.normal,
        )


def _greedy_generators(G: PermGroup, members) -> tuple:
    """Positions of a small deterministic generating set of the subgroup ``members``.

    Highest element order first; ties go to the smaller position in
    ``G.elements()``, which is sorted by images, so the choice only depends
    on the elements themselves.
    """
    table, _, orders = G.cayley()
    gens = []
    current = frozenset({0})
    for c in sorted(members, key=lambda a: (-orders[a], a)):
        if len(current) == len(members):
            break
        if c not in current:
            current = extend_subgroup(table, current, gens, c)
            gens.append(c)
    return tuple(gens)


def _subgroup_classes(table, inverse, orders, gens) -> list:
    """Every subgroup class of the group with this Cayley table and these
    generator positions, as (orbit, normalizer) pairs: the class's members
    sorted, and positions that generate the normalizer of ``orbit[0]``
    together with it.

    Cyclic extension up to conjugacy (Neubüser, Numer. Math. 2, 1960): only
    ``orbit[0]`` of each class, S, is extended by elements g outside it.
    <S, g> is the same subgroup for every g in S*g^k*S with k prime to the
    order of g, and a conjugate of it for g's conjugates under N(S), so one
    g per such family is enough.  Every class is reached, since a subgroup
    <K, g> with K = S^t is the conjugate by t of <S, t*g*t^-1>.  Classes are
    extended in the order they are found, so the small ones come first, and
    each class's orbit is built when it is found and counted at once: a
    group with more than MAX_SUBGROUPS subgroups raises LatticeBoundError
    early, before memory runs away.
    """
    n = len(table)

    def conjugate(x, t):
        return table[inverse[t]][table[x][t]]

    central = [all(table[x][g] == table[g][x] for g in gens) for x in range(n)]
    outer = [(g, [conjugate(x, g) for x in range(n)]) for g in gens if not central[g]]
    # high orders first: the powers of g mark many lower-order double cosets
    by_order = sorted(range(n), key=lambda a: (-orders[a], a))
    known = set()
    classes = []  # (orbit, generators of orbit[0]), then (orbit, normalizer)

    def found(sub, sub_gens):
        transversal = {sub: 0}  # each conjugate sub^t, with its t
        orbit = [sub]
        for cur in orbit:
            for g, conj in outer:
                image = frozenset([conj[x] for x in cur])
                if image not in transversal:
                    transversal[image] = table[transversal[cur]][g]
                    orbit.append(image)
        known.update(orbit)
        if len(known) > MAX_SUBGROUPS:
            raise LatticeBoundError(
                "group has more than %d subgroups, the enumeration bound" % MAX_SUBGROUPS
            )
        if len(orbit) > 1:
            orbit.sort(key=sorted)
            t = transversal[orbit[0]]
            sub_gens = tuple([conjugate(x, t) for x in sub_gens])
        classes.append((orbit, sub_gens))

    found(frozenset({0}), ())
    for i, (orbit, sub_gens) in enumerate(classes):
        sub = orbit[0]
        if len(orbit) == 1:
            normalizer = gens
        else:
            normalizer = []
            members = sub
            for g in range(n):
                if len(members) * len(orbit) == n:
                    break
                if g not in members and all(conjugate(x, g) in sub for x in sub_gens):
                    members = extend_subgroup(table, members, sub_gens + tuple(normalizer), g)
                    normalizer.append(g)
        movers = [h for h in normalizer if not central[h]]  # the others fix every g
        done = bytearray(n)
        for s in sub:
            done[s] = 1
        for g in by_order:
            if done[g]:
                continue
            T = extend_subgroup(table, sub, sub_gens, g)
            stack = [g]
            power = g
            for k in range(2, orders[g]):
                power = table[power][g]
                if gcd(k, orders[g]) == 1:
                    stack.append(power)
            # mark S*y*S right coset by right coset, and its images under N(S)
            while stack:
                y = stack.pop()
                if not done[y]:
                    for s in sub:
                        done[table[s][y]] = 1
                    row = table[y]
                    stack += [row[x] for x in sub_gens]
                    stack += [conjugate(y, h) for h in movers]
            if T not in known:
                found(T, sub_gens + (g,))
        classes[i] = (orbit, tuple(normalizer))
    return classes


class SubgroupLattice:
    """All subgroups of a group, organised into conjugacy classes.

    The enumeration runs on positions in ``G.elements()`` through the
    group's Cayley table, and every subgroup stays a frozenset of those
    positions: ``class_sets`` holds each class's members, sorted.
    """

    def __init__(self, G: PermGroup):
        refuse_order_above(G, DEFAULT_MAX_ORDER, LatticeBoundError, "subgroup-enumeration")
        self.group = G
        table, inverse, orders = G.cayley()
        gens = G.generator_positions()
        classes = _subgroup_classes(table, inverse, orders, gens)
        # positions follow the images' order, so this is (order, sorted elements)
        classes.sort(key=lambda c: (len(c[0][0]), sorted(c[0][0])))
        self.class_sets = tuple(tuple(orbit) for orbit, _ in classes)
        self.records = tuple(
            SubgroupRecord(G, orbit[0], class_id=i, normal=len(orbit) == 1, normalizer=normalizer)
            for i, (orbit, normalizer) in enumerate(classes)
        )
        self._set_to_class = {
            fs: i for i, orbit in enumerate(self.class_sets) for fs in orbit
        }
        self._conjugates = {}

    def class_of_set(self, positions) -> int:
        try:
            return self._set_to_class[frozenset(positions)]
        except KeyError:
            raise KeyError("not a subgroup of this group") from None

    def record_for_set(self, positions) -> SubgroupRecord:
        """The record with exactly these positions, not just a conjugate of them.

        A conjugate of a class representative gets its own record, made once.
        """
        positions = frozenset(positions)
        rec = self.records[self.class_of_set(positions)]
        if rec.positions == positions:
            return rec
        if positions not in self._conjugates:
            self._conjugates[positions] = SubgroupRecord(
                self.group, positions, class_id=rec.class_id, normal=False
            )
        return self._conjugates[positions]


@per_group
def subgroup_lattice(G: PermGroup) -> SubgroupLattice:
    return SubgroupLattice(G)

