"""Subgroup lattice: exhaustive enumeration, conjugacy classes, records."""

from __future__ import annotations

from .group import PermGroup
from .perm import identity

DEFAULT_MAX_ORDER = 512


class LatticeBoundError(ValueError):
    pass


class SubgroupRecord:
    """A subgroup of a fixed parent group, tagged with its lattice class."""

    def __init__(self, parent: PermGroup, elements: frozenset, class_id: int, normal: bool):
        self.parent = parent
        self._elements = elements  # frozenset of Perm
        self.order = len(elements)
        self.class_id = class_id
        self.normal = normal
        self.generators = _greedy_generators(elements)
        self._group = None

    @property
    def index(self) -> int:
        return self.parent.order() // self.order

    @property
    def label(self) -> str:
        return "#%d" % self.class_id

    def element_set(self) -> frozenset:
        return self._elements

    def as_group(self) -> PermGroup:
        if self._group is None:
            self._group = PermGroup(self.generators, degree=self.parent.degree)
        return self._group

    def __repr__(self):
        return "SubgroupRecord(order=%d, class_id=%d, normal=%s)" % (
            self.order,
            self.class_id,
            self.normal,
        )


def _set_key(elements):
    return tuple(sorted(p.images for p in elements))


def _greedy_generators(elements) -> tuple:
    """Small deterministic generating set: highest element order first."""
    target = set(elements)
    degree = next(iter(elements)).degree
    if len(elements) == 1:
        return ()
    candidates = sorted(elements, key=lambda p: (-p.order(), p.images))
    gens = []
    current = {identity(degree)}
    for c in candidates:
        if c in current:
            continue
        gens.append(c)
        current = closure(gens, degree)
        if len(current) == len(target):
            break
    return tuple(gens)


def closure(generators, degree) -> set:
    """All products of the given permutations (breadth-first closure)."""
    gens = [g for g in generators if not g.is_identity()]
    start = identity(degree)
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _all_subgroup_sets(G: PermGroup):
    """Every subgroup of G, as a set of frozensets of Perm.

    Each known subgroup is extended by one representative of every right
    coset outside it; since <S, g> = <S, s*g> for s in S, this reaches every
    subgroup (any subgroup is built from the trivial one element by element).
    """
    elts = G.elements()
    trivial = frozenset({identity(G.degree)})
    known = {trivial}
    work = [trivial]
    while work:
        S = work.pop()
        members = set(S)
        processed = set(members)
        gens = [p for p in S if not p.is_identity()]
        for g in elts:
            if g in processed:
                continue
            coset = {s * g for s in S}
            processed |= coset
            T = frozenset(closure(gens + [g], G.degree))
            if T not in known:
                known.add(T)
                work.append(T)
    return known


class SubgroupLattice:
    """All subgroups of a group, organised into conjugacy classes."""

    def __init__(self, G: PermGroup, max_order: int = DEFAULT_MAX_ORDER):
        if G.order() > max_order:
            raise LatticeBoundError(
                "group order %d exceeds the subgroup-enumeration bound %d"
                % (G.order(), max_order)
            )
        self.group = G
        sets = _all_subgroup_sets(G)
        gens = G.generators
        classes = []
        seen = set()
        for fs in sorted(sets, key=_set_key):
            if fs in seen:
                continue
            orbit = {fs}
            frontier = [fs]
            while frontier:
                new = []
                for cur in frontier:
                    for g in gens:
                        gi = g.inverse()
                        conj = frozenset(gi * x * g for x in cur)
                        if conj not in orbit:
                            orbit.add(conj)
                            new.append(conj)
                frontier = new
            seen |= orbit
            classes.append(sorted(orbit, key=_set_key))
        classes.sort(key=lambda orbit: (len(orbit[0]), _set_key(orbit[0])))
        self.class_sets = tuple(tuple(orbit) for orbit in classes)
        self.records = tuple(
            SubgroupRecord(G, orbit[0], class_id=i, normal=len(orbit) == 1)
            for i, orbit in enumerate(classes)
        )
        self._set_to_class = {
            fs: i for i, orbit in enumerate(self.class_sets) for fs in orbit
        }

    def class_of_set(self, elements: frozenset) -> int:
        try:
            return self._set_to_class[frozenset(elements)]
        except KeyError:
            raise KeyError("not a subgroup of this group") from None

    def record_for_set(self, elements: frozenset) -> SubgroupRecord:
        return self.records[self.class_of_set(elements)]


def subgroup_lattice(G: PermGroup) -> SubgroupLattice:
    if "lattice" not in G._cache:
        G._cache["lattice"] = SubgroupLattice(G)
    return G._cache["lattice"]


def subgroups_up_to_conjugacy(G: PermGroup):
    """One SubgroupRecord per conjugacy class, ordered by (order, elements)."""
    return list(subgroup_lattice(G).records)


def normal_subgroups(G: PermGroup):
    """The normal subgroups of G (each its own class), including 1 and G."""
    return [r for r in subgroup_lattice(G).records if r.normal]
