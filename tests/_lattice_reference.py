"""The subgroup lattice as it was enumerated before classes were extended
one representative at a time.

Every subgroup, conjugates included, is extended by every element outside
it, and a second pass then rebuilds each class's orbit under conjugation by
G's generators.  It stays here as the reference side of the differential
tests of `lattice._subgroup_classes`.
"""

from collections import deque
from math import gcd

from parity_inductor import lattice


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


def all_subgroups(table, orders) -> set:
    """Every subgroup of the group with this Cayley table, as position sets.

    Each known subgroup S is extended by every element g outside it, which
    reaches every subgroup (any subgroup is built from the trivial one
    element by element).  Since <S, g> = <S, s*g^k*t> for s, t in S and k
    prime to the order of g, one g per such family of double cosets
    S*g^k*S is enough.
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
            T = lattice.extend_subgroup(table, sub, gens, g)
            power = g
            for k in range(1, orders[g]):
                if gcd(k, orders[g]) == 1:
                    _mark_double_coset(table, sub, gens, power, done)
                power = table[power][g]
            if T not in known:
                known.add(T)
                work.append((T, gens + (g,)))
    return known


def class_sets(G) -> tuple:
    """Each class of `all_subgroups`, sorted, the classes by (order, members)."""
    table, inverse, orders = G.cayley()
    # conjugation x -> g^-1 * x * g by each generator g, on positions
    conjugations = []
    for g in G.generators:
        gi = G.element_index(g)
        left = table[inverse[gi]]
        conjugations.append([left[row[gi]] for row in table])
    classes = []
    seen = set()
    for fs in all_subgroups(table, orders):
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
    classes.sort(key=lambda orbit: (len(orbit[0]), sorted(orbit[0])))
    return tuple(tuple(orbit) for orbit in classes)

