"""Reference quotients and small-type tags through `Perm` products.

This is how quotients, conjugacy classes and the tags of dihedral-type
subquotients were computed before they moved onto Cayley-table positions:
cosets as sorted lists of `Perm` products, and the tag of H/N found by
building the quotient group and searching it for a dihedral presentation.
It stays here as the independent side of the differential tests.
"""

from parity_inductor._primes import is_prime
from parity_inductor.group import PermGroup
from parity_inductor.lattice import SubgroupRecord, subgroup_lattice
from parity_inductor.perm import Perm
from parity_inductor.structure import (
    DIHEDRAL_2P,
    DIHEDRAL_8,
    KLEIN_FOUR,
    SmallTypeTag,
    _allowed_ratios,
    _dihedral_tag,
)

CYCLIC = "Cyclic"
OTHER = "Other"


def _set_key(elements):
    return tuple(sorted(p.images for p in elements))


def conjugacy_classes_reference(G):
    """(rep, size, order, members) per class, conjugating with `Perm` products."""
    elts = G.elements()
    index = {g.images: i for i, g in enumerate(elts)}
    assigned = [False] * len(elts)
    raw = []
    for start in range(len(elts)):
        if assigned[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for idx in frontier:
                for g in G.generators:
                    y = index[(g.inverse() * elts[idx] * g).images]
                    if y not in orbit:
                        orbit.add(y)
                        new.append(y)
            frontier = new
        for idx in orbit:
            assigned[idx] = True
        members = tuple(sorted(orbit))
        rep = elts[members[0]]
        raw.append((rep.order(), len(members), rep.images, members))
    raw.sort(key=lambda t: (t[0], t[1], t[2]))
    return [(elts[m[0]], size, order, m) for order, size, _, m in raw]


def is_normal_in(n_set, h_gens) -> bool:
    for g in h_gens:
        gi = g.inverse()
        for x in n_set:
            if gi * x * g not in n_set:
                return False
    return True


class QuotientMapReference:
    """G/N acting on the right cosets of N, each a sorted list of `Perm`s."""

    def __init__(self, source, kernel):
        if isinstance(kernel, SubgroupRecord):
            n_set = kernel.element_set()
        else:
            n_set = frozenset(kernel)
        assert is_normal_in(n_set, source.generators), "kernel is not normal"
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
        self.generators = [self.map_element(g) for g in source.generators]
        self._rep_images = [self.map_element(rep).images for rep in self._reps]

    def map_element(self, g):
        return Perm(tuple(self._coset_of[rep * g] for rep in self._reps))

    def preimage_set(self, image_elements) -> frozenset:
        wanted = {p.images for p in image_elements}
        out = []
        for images, coset in zip(self._rep_images, self._cosets):
            if images in wanted:
                out.extend(coset)
        return frozenset(out)


def identify_small_type_reference(G) -> SmallTypeTag:
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


def dihedral_tag_reference(G):
    """G's reference tag when G is Klein-four, D8 or D2p, else None."""
    tag = identify_small_type_reference(G)
    return tag if tag.variant in (KLEIN_FOUR, DIHEDRAL_8, DIHEDRAL_2P) else None


def _dihedral_presentation(G, m: int) -> bool:
    """Find r of order m and s of order 2 with (r*s)**2 = 1 generating G."""
    elts = G.elements()
    rs = [g for g in elts if g.order() == m]
    ss = [g for g in elts if g.order() == 2]
    for r in rs:
        for s in ss:
            if not (r * s * r * s).is_identity():
                continue
            if s in PermGroup([r], degree=G.degree).elements():
                continue
            if PermGroup([r, s], degree=G.degree).order() == G.order():
                return True
    return False


def quotient_tag(H, n_set):
    """Tag of H/N from the quotient group built out of `Perm` cosets."""
    q = QuotientMapReference(H, n_set)
    return dihedral_tag_reference(PermGroup(q.generators, degree=len(q._reps)))


def square_count_tag(H, n_set):
    """Tag of H/N from its order and the count of h in H with h*h in N."""
    roots = sum(1 for h in H.elements() if h * h in n_set)
    return _dihedral_tag(H.order() // len(n_set), roots // len(n_set))


def dihedral_subquotients_reference(G, tag_of=quotient_tag):
    """(H class, N class, tag, N key) for every tagged subquotient, up to conjugacy.

    Candidates are those of `structure.dihedral_subquotients`; each N is
    deduplicated by conjugating it with every element of the normalizer of
    H, and ``tag_of(H, N)`` tags H/N (by default from the quotient group
    built out of `Perm` cosets).
    """
    lattice = subgroup_lattice(G)
    table, inverse, _ = G.cayley()

    def conjugate(x, g):
        return table[inverse[g]][table[x][g]]

    elts = G.elements()
    by_order = {}
    for class_id, orbit in enumerate(lattice.class_sets):
        for n_idx in orbit:
            n_set = frozenset(elts[a] for a in n_idx)
            by_order.setdefault(len(n_idx), []).append((n_idx, n_set, class_id))
    out = []
    for h_rec in lattice.records:
        h_idx = h_rec.positions
        h_gens = [G.element_index(g) for g in h_rec.generators]
        candidates = sorted(
            (
                cand
                for ratio in _allowed_ratios(h_rec.order)
                for cand in by_order.get(h_rec.order // ratio, ())
                if cand[0] <= h_idx
                and all(conjugate(x, g) in cand[0] for g in h_gens for x in cand[0])
            ),
            key=lambda cand: sorted(cand[0]),
        )
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
            tag = tag_of(h_rec.as_group(), n_set)
            if tag is not None:
                out.append((h_rec.class_id, class_id, str(tag), _set_key(n_set)))
    return sorted(out)
