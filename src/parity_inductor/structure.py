"""Quotient maps, small-group identification, structural queries."""

from __future__ import annotations

from dataclasses import dataclass

from ._primes import is_prime, prime_factors
from .group import PermGroup
from .lattice import SubgroupRecord, _set_key, subgroup_lattice
from .perm import Perm


@dataclass(frozen=True)
class SmallTypeTag:
    """Isomorphism-type tag: Cyclic(n), KleinFour, Dihedral8, Dihedral2p(p), Other."""

    variant: str
    n: int | None = None

    def __str__(self):
        if self.variant == "Cyclic":
            return "Cyclic(%d)" % self.n
        if self.variant == "Dihedral2p":
            return "Dihedral2p(%d)" % self.n
        return self.variant


CYCLIC = "Cyclic"
KLEIN_FOUR = "KleinFour"
DIHEDRAL_8 = "Dihedral8"
DIHEDRAL_2P = "Dihedral2p"
OTHER = "Other"


def identify_small_type(G: PermGroup) -> SmallTypeTag:
    """Classify G among the tagged small types."""
    if G.is_cyclic():
        return SmallTypeTag(CYCLIC, G.order())
    roots = sum(c.size for c in G.conjugacy_classes() if c.order <= 2)
    return _dihedral_tag(G.order(), roots) or SmallTypeTag(OTHER)


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

    Right cosets N*g are numbered by their smallest position in
    ``G.elements()`` and found through G's Cayley table; each coset's image
    permutation is computed once, so ``map_element`` is a lookup.
    """

    def __init__(self, source: PermGroup, kernel):
        if isinstance(kernel, SubgroupRecord):
            if kernel.parent is not source:
                raise ValueError("kernel record belongs to a different group")
            kernel = kernel.element_set()
        n_set = frozenset(kernel)
        table, inverse, _ = source.cayley()
        try:
            n_idx = [source.element_index(x) for x in n_set]
        except KeyError:
            raise ValueError("kernel is not a subgroup") from None
        members = frozenset(n_idx)
        if 0 not in members or any(
            table[a][b] not in members for a in n_idx for b in n_idx
        ):
            raise ValueError("kernel is not a subgroup")
        for g in map(source.element_index, source.generators):
            if any(table[inverse[g]][table[x][g]] not in members for x in n_idx):
                raise ValueError("kernel is not normal")
        self.source = source
        self.kernel_set = n_set
        coset_of = [None] * len(table)
        reps = []
        for g in range(len(table)):
            if coset_of[g] is None:
                for x in n_idx:
                    coset_of[table[x][g]] = len(reps)
                reps.append(g)
        self._coset_of = coset_of
        self._images = [
            Perm(tuple(coset_of[table[r][g]] for r in reps)) for g in reps
        ]
        gens = [self.map_element(g) for g in source.generators]
        self.image = PermGroup(gens, degree=len(reps))

    def map_element(self, g: Perm) -> Perm:
        return self._images[self._coset_of[self.source.element_index(g)]]

    def preimage_set(self, image_elements) -> frozenset:
        """All source elements mapping into the given set of image elements."""
        wanted = {p.images for p in image_elements}
        hit = [q.images in wanted for q in self._images]
        elts = self.source.elements()
        return frozenset(elts[a] for a, c in enumerate(self._coset_of) if hit[c])


def quotient(G: PermGroup, N) -> QuotientMap:
    """G/N for a normal record or element set N, built once per (G, N)."""
    key = N if isinstance(N, SubgroupRecord) else frozenset(N)
    cache = G._cache.setdefault("quotients", {})
    if key not in cache:
        cache[key] = QuotientMap(G, N)
    return cache[key]


def is_hyperelementary(G: PermGroup):
    """Smallest prime p and largest normal cyclic N, coprime to p, with G/N a p-group."""
    order = G.order()
    primes = sorted({2} | prime_factors(order))
    lattice = subgroup_lattice(G)
    for p in primes:
        best = None
        for rec in lattice.records:
            if not rec.normal:
                continue
            idx = order // rec.order
            if rec.order % p == 0 and rec.order > 1:
                continue
            if not _is_p_power(idx, p):
                continue
            if not rec.as_group().is_cyclic():
                continue
            if best is None or rec.order > best.order:
                best = rec
        if best is not None:
            return (p, best)
    return None


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


@dataclass(frozen=True)
class DihedralSubquotient:
    """A pair N normal-in H with H/N of Klein-four or dihedral type."""

    h_record: SubgroupRecord
    n_elements: frozenset
    n_class_id: int
    tag: SmallTypeTag


def dihedral_subquotients(G: PermGroup):
    """All (H, N, tag) pairs up to G-conjugacy with H/N Klein-four, D8, or D2p.

    H runs over lattice class representatives; N-choices within one H are
    deduplicated under conjugation by the normalizer of H, which realises
    G-conjugacy of pairs.  Normality, normalizers, orbits and the count of
    h in H with h*h in N, which decides the tag, are computed on element
    positions through the Cayley table.
    """
    if "dihedral_subquotients" in G._cache:
        return G._cache["dihedral_subquotients"]
    lattice = subgroup_lattice(G)
    table, inverse, _ = G.cayley()

    def conjugate(x, g):
        return table[inverse[g]][table[x][g]]

    by_order = {}
    for class_id, orbit in enumerate(lattice.index_sets):
        for n_idx, n_set in zip(orbit, lattice.class_sets[class_id]):
            by_order.setdefault(len(n_idx), []).append((n_idx, n_set, class_id))
    out = []
    for h_rec in lattice.records:
        h_idx = lattice.index_sets[h_rec.class_id][0]
        h_order = h_rec.order
        h_gens = [G.element_index(g) for g in h_rec.generators]
        candidates = sorted(
            (
                cand
                for ratio in _allowed_ratios(h_order)
                for cand in by_order.get(h_order // ratio, ())
                if cand[0] <= h_idx
                and all(conjugate(x, g) in cand[0] for g in h_gens for x in cand[0])
            ),
            key=lambda cand: sorted(cand[0]),
        )
        if not candidates:
            continue
        normalizer = [
            g
            for g in range(len(table))
            if all(conjugate(x, g) in h_idx for x in h_gens)
        ]
        seen = set()
        for n_idx, n_set, class_id in candidates:
            if n_idx in seen:
                continue
            seen.update(
                frozenset([conjugate(x, g) for x in n_idx]) for g in normalizer
            )
            roots = sum(1 for h in h_idx if table[h][h] in n_idx)
            tag = _dihedral_tag(h_order // len(n_idx), roots // len(n_idx))
            if tag is None:
                continue
            out.append(
                DihedralSubquotient(
                    h_record=h_rec,
                    n_elements=n_set,
                    n_class_id=class_id,
                    tag=tag,
                )
            )
    out.sort(
        key=lambda d: (
            d.h_record.class_id,
            d.n_class_id,
            str(d.tag),
            _set_key(d.n_elements),
        )
    )
    G._cache["dihedral_subquotients"] = out
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
