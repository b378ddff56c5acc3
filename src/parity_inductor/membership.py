"""Lattice membership certificates, random targets, and induction bases."""

from __future__ import annotations

import random

from .chartab import character_table
from .genchar import (
    GenChar,
    determinant,
    has_trivial_determinant,
    perm_char,
    trivial_char,
)
from .generators import GeneratorFamily
from .group import PermGroup
from .intlinalg import hnf, kernel_basis, solve_left_canonical
from .lattice import subgroup_lattice
from .structure import is_hyperelementary


class MembershipError(RuntimeError):
    """A solve that mathematics guarantees has failed (a defect)."""


class MembershipCertificate:
    """A sparse integer combination of family generators hitting a target."""

    __slots__ = ("family", "target", "terms")

    def __init__(self, family: GeneratorFamily, target: GenChar, terms):
        self.family = family
        self.target = target
        self.terms = tuple(sorted(terms))

    def coefficient(self, gen_id: str) -> int:
        for index, coeff in self.terms:
            if self.family.generators[index].gen_id == gen_id:
                return coeff
        return 0

    def generator_ids(self):
        return [self.family.generators[i].gen_id for i, _ in self.terms]

    def __repr__(self):
        parts = [
            "%+d*%s" % (c, self.family.generators[i].gen_id) for i, c in self.terms
        ]
        return "MembershipCertificate(%s)" % (" ".join(parts) or "0")


def membership_solve(rho: GenChar, family: GeneratorFamily):
    """Canonical integer solve of rho over the family, or None."""
    if rho.table is not family.table:
        raise ValueError("character and family live on different groups")
    if not family.generators:
        if rho.is_zero():
            return MembershipCertificate(family, rho, ())
        return None
    x = solve_left_canonical(family.matrix, list(rho.coeffs), family.hnf())
    if x is None:
        return None
    terms = tuple((i, c) for i, c in enumerate(x) if c)
    return MembershipCertificate(family, rho, terms)


def verify_certificate(cert: MembershipCertificate) -> bool:
    """Re-expand the certificate over irreducible coordinates; exact compare."""
    total = [0] * cert.family.table.class_count()
    for index, coeff in cert.terms:
        expansion = cert.family.generators[index].expansion
        total = [t + coeff * e for t, e in zip(total, expansion.coeffs)]
    return tuple(total) == cert.target.coeffs


def certificate_to_json(cert: MembershipCertificate, group_name: str) -> dict:
    return {
        "group": group_name,
        "flavor": cert.family.flavor,
        "target": list(cert.target.coeffs),
        "terms": [
            {
                "generator": cert.family.generators[i].gen_id,
                "coefficient": c,
            }
            for i, c in cert.terms
        ],
        "verified": verify_certificate(cert),
    }


def certificate_from_json(doc: dict, family: GeneratorFamily) -> MembershipCertificate:
    """Rebuild a certificate emitted by certificate_to_json, ready to re-verify."""
    if doc.get("flavor") != family.flavor:
        raise ValueError(
            "certificate flavor %r does not match family %r"
            % (doc.get("flavor"), family.flavor)
        )
    table = family.table
    target_coeffs = doc["target"]
    if len(target_coeffs) != table.class_count():
        raise ValueError("target length does not match the character table")
    target = GenChar(table, target_coeffs)
    position = {desc.gen_id: i for i, desc in enumerate(family.generators)}
    terms = []
    for term in doc["terms"]:
        gen_id = term["generator"]
        if gen_id not in position:
            raise ValueError("unknown generator id %r" % gen_id)
        terms.append((position[gen_id], term["coefficient"]))
    return MembershipCertificate(family, target, terms)


def _perm_lattice(G: PermGroup):
    """Cached (records, perm-char rows, HNF) for the permutation lattice."""
    if "perm_lattice" not in G._cache:
        records = subgroup_lattice(G).records
        chars = [perm_char(G, rec) for rec in records]
        matrix = [list(ch.coeffs) for ch in chars]
        G._cache["perm_lattice"] = (records, chars, matrix, hnf(matrix))
    return G._cache["perm_lattice"]


def perm_lattice_solve(rho: GenChar):
    """Integer coordinates of rho over {perm_char(G, H)}, or None."""
    G = rho.table.group
    records, _, matrix, basis = _perm_lattice(G)
    x = solve_left_canonical(matrix, list(rho.coeffs), basis)
    if x is None:
        return None
    return list(zip(records, x))


def is_s_element(rho: GenChar) -> bool:
    """Degree zero, trivial determinant, and inside the permutation lattice."""
    if rho.degree != 0:
        return False
    if not has_trivial_determinant(rho):
        return False
    return perm_lattice_solve(rho) is not None


def _admissible_lattice(G: PermGroup):
    """Basis of integer subgroup-multiplicity vectors landing inside S_G."""
    if "s_lattice" in G._cache:
        return G._cache["s_lattice"]
    records, chars, _, _ = _perm_lattice(G)
    k = character_table(G).class_count()
    m = len(records)
    rows = []
    for rec, ch in zip(records, chars):
        delta = determinant(ch)
        rows.append([ch.degree] + [1 if a else 0 for a in delta.exponents])
    for c in range(k):
        aux = [0] * (k + 1)
        aux[1 + c] = 2
        rows.append(aux)
    projected = [row[:m] for row in kernel_basis(rows) if any(row[:m])]
    basis = [row for row in hnf(projected).h if any(row)] if projected else []
    G._cache["s_lattice"] = basis
    return basis


def random_S_element(G: PermGroup, seed: int, bound: int) -> GenChar:
    """A seeded random degree-0 trivial-det permutation combination."""
    table = character_table(G)
    zero = GenChar(table, [0] * table.class_count())
    if bound <= 0:
        return zero
    records, chars, _, _ = _perm_lattice(G)
    basis = _admissible_lattice(G)
    if not basis:
        return zero
    rng = random.Random(seed)
    for _ in range(1000):
        x = [0] * len(records)
        sparsity = rng.randint(1, min(3, len(basis)))
        for row in rng.sample(basis, sparsity):
            c = rng.choice((-2, -1, 1, 2))
            x = [xi + c * ri for xi, ri in zip(x, row)]
        if not any(x):
            continue
        if max(abs(v) for v in x) > bound:
            continue
        out = zero
        for coeff, ch in zip(x, chars):
            if coeff:
                out = out + coeff * ch
        return out
    return zero


def hyperelementary_records(G: PermGroup):
    """Subgroup class representatives that are hyperelementary groups."""
    out = []
    for rec in subgroup_lattice(G).records:
        if is_hyperelementary(rec.as_group()) is not None:
            out.append(rec)
    return out


def solomon_coefficients(G: PermGroup):
    """Integers n_H over hyperelementary H with sum n_H * Ind_H 1 = 1."""
    if "solomon" in G._cache:
        return G._cache["solomon"]
    one = trivial_char(character_table(G))
    if is_hyperelementary(G) is not None:
        top = subgroup_lattice(G).records[-1]
        if top.order != G.order():
            raise MembershipError("lattice is missing the full group")
        result = [(top, 1)]
    else:
        records = hyperelementary_records(G)
        matrix = [list(perm_char(G, rec).coeffs) for rec in records]
        x = solve_left_canonical(matrix, list(one.coeffs))
        if x is None:
            raise MembershipError(
                "no hyperelementary expression of the trivial character"
            )
        result = [(rec, c) for rec, c in zip(records, x) if c]
    total = [0] * character_table(G).class_count()
    for rec, c in result:
        total = [t + c * v for t, v in zip(total, perm_char(G, rec).coeffs)]
    if tuple(total) != one.coeffs:
        raise MembershipError("induction identity failed to re-verify")
    G._cache["solomon"] = result
    return result
