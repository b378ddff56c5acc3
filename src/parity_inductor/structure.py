"""Quotient maps, dihedral-type subquotients, structural queries."""

from __future__ import annotations

from dataclasses import dataclass

from ._primes import is_prime, prime_factors
from .group import PermGroup, per_group, table_group
from .lattice import SubgroupRecord, subgroup_lattice
from .perm import Perm


@dataclass(frozen=True)
class SmallTypeTag:
    """Isomorphism-type tag of a subquotient: KleinFour, Dihedral8 or Dihedral2p(p)."""

    variant: str
    n: int | None = None

    def __str__(self):
        if self.variant == "Dihedral2p":
            return "Dihedral2p(%d)" % self.n
        return self.variant


KLEIN_FOUR = "KleinFour"
DIHEDRAL_8 = "Dihedral8"
DIHEDRAL_2P = "Dihedral2p"


def _dihedral_tag(order: int, roots: int):
    """Tag of a group of this order with ``roots`` solutions of x*x = 1, or None.

    Among the groups of order 4, 8 and 2p (p an odd prime), the count is 4,
    6 and p + 1 exactly for the Klein four group, D8 and D2p: the others of
    those orders have 2 (C4, C8, Q8, C2p), 4 (C4 x C2) or 8 (C2^3).
    """
    if order == 4 and roots == 4:
        return SmallTypeTag(KLEIN_FOUR)
    if order == 8 and roots == 6:
        return SmallTypeTag(DIHEDRAL_8)
    p = order // 2
    if order == 2 * p and p % 2 == 1 and is_prime(p) and roots == p + 1:
        return SmallTypeTag(DIHEDRAL_2P, p)
    return None


class QuotientMap:
    """The quotient G/N realised as a faithful action on the cosets of N.

    ``kernel`` is N as positions in ``G.elements()``.  Right cosets N*g are
    numbered by their smallest position and found through G's Cayley table;
    ``image_of[a]`` is the number of the coset of the element at position a,
    which is also the position of its image in ``image.elements()``.
    """

    def __init__(self, source: PermGroup, kernel):
        members = _kernel_positions(source, kernel)
        table, inverse, _ = source.cayley()
        if 0 not in members or not members.issubset(range(len(table))) or any(
            table[a][b] not in members for a in members for b in members
        ):
            raise ValueError("kernel is not a subgroup")
        for g in map(source.element_index, source.generators):
            if any(table[inverse[g]][table[x][g]] not in members for x in members):
                raise ValueError("kernel is not normal")
        self.source = source
        self.kernel = members
        coset_of = [None] * len(table)
        reps = []
        for g in range(len(table)):
            if coset_of[g] is None:
                for x in members:
                    coset_of[table[x][g]] = len(reps)
                reps.append(g)
        # coset c times coset d is that of reps[c] * reps[d]; coset d acts by column d
        rows = [tuple([coset_of[table[r][s]] for s in reps]) for r in reps]
        # reps[0] is the identity, so action c sends coset 0 to c: the actions are sorted
        images = list(map(Perm, zip(*rows)))
        gens = [images[coset_of[source.element_index(g)]] for g in source.generators]
        self.image = table_group(gens, len(reps), images, rows)
        self.image_of = coset_of


def _kernel_positions(G: PermGroup, N) -> frozenset:
    """N's positions in ``G.elements()``, for a record of G or a position set."""
    if isinstance(N, SubgroupRecord):
        if N.parent is not G:
            raise ValueError("kernel record belongs to a different group")
        return N.positions
    return frozenset(N)


_quotient_map = per_group(QuotientMap)


def quotient(G: PermGroup, N) -> QuotientMap:
    """G/N for a normal record or position set N, built once per (G, positions of N)."""
    return _quotient_map(G, _kernel_positions(G, N))


@per_group
def is_hyperelementary(G: PermGroup):
    """Smallest prime p and largest normal cyclic N, coprime to p, with G/N a p-group."""
    order = G.order()
    orders = G.cayley().orders
    primes = sorted({2} | prime_factors(order))
    lattice = subgroup_lattice(G)
    for p in primes:
        best = None
        for rec in lattice.records:
            if not rec.normal:
                continue
            if rec.order % p == 0 and rec.order > 1:
                continue
            if not prime_factors(order // rec.order) <= {p}:
                continue
            if not any(orders[x] == rec.order for x in rec.positions):
                continue
            if best is None or rec.order > best.order:
                best = rec
        if best is not None:
            return (p, best)
    return None


@dataclass(frozen=True)
class DihedralSubquotient:
    """A pair N normal-in H with H/N of Klein-four or dihedral type."""

    h_record: SubgroupRecord
    n_positions: frozenset
    n_class_id: int
    tag: SmallTypeTag


@per_group
def dihedral_subquotients(G: PermGroup):
    """All (H, N, tag) pairs up to G-conjugacy with H/N Klein-four, D8, or D2p.

    The list is ordered by H's class, then N's class, then N's sorted
    positions; the generator families walk it in this order, so it fixes
    their generator ids and every certificate's term order.  For one H the
    tag follows from |H/N|, and class ids rise with subgroup order, so N's
    class also orders the tags.

    H runs over lattice class representatives; N-choices within one H are
    deduplicated under conjugation by the normalizer of H, which realises
    G-conjugacy of pairs: each N's orbit is closed under the elements that
    generate the normalizer together with H, as the lattice keeps them (H
    itself fixes every normal subgroup of H).  Normality, orbits and the
    count of h in H with h*h in N, which decides the tag, are computed on
    element positions through the Cayley table.
    """
    lattice = subgroup_lattice(G)
    table, inverse, _ = G.cayley()

    def conjugate(x, g):
        return table[inverse[g]][table[x][g]]

    by_order = {}
    for class_id, orbit in enumerate(lattice.class_sets):
        for n_set in orbit:
            by_order.setdefault(len(n_set), []).append((n_set, class_id))
    out = []
    for h_rec in lattice.records:
        h_set = h_rec.positions
        h_order = h_rec.order
        h_gens = [G.element_index(g) for g in h_rec.generators]
        candidates = sorted(
            (
                cand
                for ratio in _allowed_ratios(h_order)
                for cand in by_order.get(h_order // ratio, ())
                if cand[0] <= h_set
                and all(conjugate(x, g) in cand[0] for g in h_gens for x in cand[0])
            ),
            key=lambda cand: (cand[1], sorted(cand[0])),
        )
        seen = set()
        for n_set, class_id in candidates:
            if n_set in seen:
                continue
            seen.add(n_set)
            orbit = [n_set]
            for cur in orbit:
                for g in h_rec.normalizer:
                    image = frozenset([conjugate(x, g) for x in cur])
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            roots = sum(1 for h in h_set if table[h][h] in n_set)
            tag = _dihedral_tag(h_order // len(n_set), roots // len(n_set))
            if tag is None:
                continue
            out.append(
                DihedralSubquotient(
                    h_record=h_rec,
                    n_positions=n_set,
                    n_class_id=class_id,
                    tag=tag,
                )
            )
    return out


def _allowed_ratios(h_order: int):
    ratios = set()
    for r in (4, 8):
        if h_order % r == 0:
            ratios.add(r)
    for p in prime_factors(h_order):
        if p % 2 == 1 and h_order % (2 * p) == 0:
            ratios.add(2 * p)
    return ratios
