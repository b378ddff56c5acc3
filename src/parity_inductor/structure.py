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
    """Classify G among the tagged small types, verifying presentations."""
    n = G.order()
    if G.is_cyclic():
        return SmallTypeTag(CYCLIC, n)
    if n == 4 and G.exponent() == 2:
        return SmallTypeTag(KLEIN_FOUR)
    if n == 8 and not G.is_abelian() and G.exponent() == 4:
        noncentral_involution_classes = [
            c for c in G.conjugacy_classes() if c.order == 2 and c.size > 1
        ]
        if len(noncentral_involution_classes) >= 2 and _dihedral_presentation(G, 4):
            return SmallTypeTag(DIHEDRAL_8)
    if n % 2 == 0 and not G.is_abelian():
        p = n // 2
        if p % 2 == 1 and is_prime(p) and _dihedral_presentation(G, p):
            return SmallTypeTag(DIHEDRAL_2P, p)
    return SmallTypeTag(OTHER)


def _dihedral_presentation(G: PermGroup, m: int) -> bool:
    """Find r of order m and s of order 2 with (r*s)**2 = 1 generating G."""
    elts = G.elements()
    degree = G.degree
    rs = [g for g in elts if g.order() == m]
    ss = [g for g in elts if g.order() == 2]
    for r in rs:
        for s in ss:
            if not (r * s * r * s).is_identity():
                continue
            if s in G.subgroup([r]).elements():
                continue
            if G.subgroup([r, s]).order() == G.order():
                return True
    return False


class QuotientMap:
    """The quotient G/N realised as a faithful action on the cosets of N."""

    def __init__(self, source: PermGroup, kernel):
        if isinstance(kernel, SubgroupRecord):
            if kernel.parent is not source:
                raise ValueError("kernel record belongs to a different group")
            if not kernel.normal:
                raise ValueError("kernel is not normal")
            n_set = kernel.element_set()
        else:
            n_set = frozenset(kernel)
            if not _is_normal_in(n_set, source.generators):
                raise ValueError("kernel is not normal")
        self.source = source
        self.kernel_set = n_set
        cosets = []
        seen = set()
        for g in source.elements():
            if g not in seen:
                cosets.append(sorted(x * g for x in n_set))
                seen.update(cosets[-1])
        cosets.sort(key=lambda coset: coset[0].images)
        self._cosets = cosets
        self._coset_of = {y: i for i, coset in enumerate(cosets) for y in coset}
        self._reps = [coset[0] for coset in cosets]
        gens = [self.map_element(g) for g in source.generators]
        self.image = PermGroup(gens, degree=len(self._cosets))

    def map_element(self, g: Perm) -> Perm:
        return Perm(tuple(self._coset_of[rep * g] for rep in self._reps))

    def preimage_set(self, image_elements) -> frozenset:
        """All source elements mapping into the given set of image elements."""
        wanted = {p.images for p in image_elements}
        out = []
        for rep, coset in zip(self._reps, self._cosets):
            if self.map_element(rep).images in wanted:
                out.extend(coset)
        return frozenset(out)

    def section(self, q: Perm) -> Perm:
        """One source element mapping to the given image element."""
        for rep in self._reps:
            if self.map_element(rep) == q:
                return rep
        raise KeyError("element not in quotient image")


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
    G-conjugacy of pairs.  Normality, normalizers and orbits are computed on
    element positions through the Cayley table.
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
            tag = _quotient_tag(h_rec.as_group(), n_set)
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


def _is_normal_in(n_set: frozenset, h_gens) -> bool:
    for g in h_gens:
        gi = g.inverse()
        for x in n_set:
            if gi * x * g not in n_set:
                return False
    return True


def _quotient_tag(H: PermGroup, n_set):
    Q = QuotientMap(H, n_set).image
    tag = identify_small_type(Q)
    if tag.variant in (KLEIN_FOUR, DIHEDRAL_8, DIHEDRAL_2P):
        return tag
    return None



