"""Subgroup lattice: exhaustive enumeration, conjugacy classes, records."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property
from math import gcd

from .group import PermGroup, per_group, refuse_order_above, table_group

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
    """

    def __init__(self, parent: PermGroup, positions: frozenset, class_id: int, normal: bool):
        self.parent = parent
        self.positions = positions
        self.order = len(positions)
        self.class_id = class_id
        self.normal = normal
        self._group = None

    @cached_property
    def generators(self) -> tuple:
        elts = self.parent.elements()
        return tuple(elts[a] for a in _greedy_generators(self.parent, self.positions))

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
            table, elts, own = self.parent.cayley().table, self.parent.elements(), self._sorted
            at = {a: i for i, a in enumerate(own)}
            rows = [tuple([at[table[a][b]] for b in own]) for a in own]
            self._group = table_group(self.generators, self.parent.degree, [elts[a] for a in own], rows)
        return self._group

    @cached_property
    def _sorted(self) -> tuple:
        return tuple(sorted(self.positions))

    def local(self, positions) -> frozenset:
        """Positions in ``as_group().elements()`` of these parent positions."""
        return frozenset([bisect_left(self._sorted, a) for a in positions])

    def lift(self, positions) -> frozenset:
        """Parent positions of these positions in ``as_group().elements()``."""
        return frozenset([self._sorted[i] for i in positions])

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
            current = _extend(table, current, gens, c)
            gens.append(c)
    return tuple(gens)


def _extend(table, sub, gens, g) -> frozenset:
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


def _mark_double_coset(table, sub, gens, y, marks):
    """Mark S*y*S, for S = <gens> listed as ``sub``, one right coset at a time.

    Marks only ever cover whole double cosets, so a marked y means S*y*S is.
    """
    if marks[y]:
        return
    stack = [y]
    for s in sub:
        marks[table[s][y]] = 1
    while stack:
        row = table[stack.pop()]
        for x in gens:
            z = row[x]
            if not marks[z]:
                stack.append(z)
                for s in sub:
                    marks[table[s][z]] = 1


def _all_subgroups(table, orders) -> set:
    """Every subgroup of the group with this Cayley table, as position sets.

    Each known subgroup S is extended by every element g outside it, which
    reaches every subgroup (any subgroup is built from the trivial one
    element by element).  Since <S, s*g^k*t> = <S, g> for s, t in S and k
    prime to the order of g, one g per such family of double cosets
    S*g^k*S is enough.  Subgroups are extended in the order they are found,
    so the small ones come first and a group with more than MAX_SUBGROUPS
    subgroups raises LatticeBoundError early, before memory runs away.
    """
    n = len(table)
    trivial = frozenset({0})
    known = {trivial}
    work = deque([(trivial, ())])
    while work:
        sub, gens = work.popleft()
        done = bytearray(n)
        _mark_double_coset(table, sub, gens, 0, done)
        for g in range(n):
            if done[g]:
                continue
            T = _extend(table, sub, gens, g)
            power = g
            for k in range(1, orders[g]):
                if gcd(k, orders[g]) == 1:
                    _mark_double_coset(table, sub, gens, power, done)
                power = table[power][g]
            if T not in known:
                known.add(T)
                if len(known) > MAX_SUBGROUPS:
                    raise LatticeBoundError(
                        "group has more than %d subgroups, the enumeration bound"
                        % MAX_SUBGROUPS
                    )
                work.append((T, gens + (g,)))
    return known


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
        # conjugation x -> g^-1 * x * g by each generator g, on positions
        conjugations = []
        for g in G.generators:
            gi = G.element_index(g)
            left = table[inverse[gi]]
            conjugations.append([left[row[gi]] for row in table])
        classes = []
        seen = set()
        for fs in _all_subgroups(table, orders):
            if fs in seen:
                continue
            orbit = {fs}
            frontier = [fs]
            while frontier:
                new = []
                for cur in frontier:
                    for conj in conjugations:
                        image = frozenset([conj[x] for x in cur])
                        if image not in orbit:
                            orbit.add(image)
                            new.append(image)
                frontier = new
            seen |= orbit
            classes.append(sorted(orbit, key=sorted))
        # positions follow the images' order, so this is (order, sorted elements)
        classes.sort(key=lambda orbit: (len(orbit[0]), sorted(orbit[0])))
        self.class_sets = tuple(tuple(orbit) for orbit in classes)
        self.records = tuple(
            SubgroupRecord(G, orbit[0], class_id=i, normal=len(orbit) == 1)
            for i, orbit in enumerate(self.class_sets)
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

