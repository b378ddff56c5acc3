"""Lattice membership certificates, random targets, and induction bases."""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

from .chartab import character_table
from .genchar import (
    GenChar,
    determinant,
    has_trivial_determinant,
    perm_char,
    trivial_char,
)
from .generators import GeneratorFamily
from .group import PermGroup, per_group
from .intlinalg import hnf, kernel_mod2, linear_combination
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

    def named_terms(self):
        """The terms as (generator id, coefficient) pairs."""
        return [(self.family.generators[i].gen_id, c) for i, c in self.terms]

    def format_terms(self) -> str:
        """The terms as text, e.g. "+1*t1:1 -2*t2:..." ("0" when empty)."""
        return " ".join("%+d*%s" % (c, g) for g, c in self.named_terms()) or "0"

    def __repr__(self):
        return "MembershipCertificate(%s)" % self.format_terms()


def membership_solve(rho: GenChar, family: GeneratorFamily):
    """Canonical integer solve of rho over the family, or None."""
    return membership_solve_all([rho], family)[0]


def check_target(rho: GenChar, family: GeneratorFamily) -> GenChar:
    """rho, once it is known to live on the family's group (else ValueError)."""
    if rho.table is not family.table:
        raise ValueError("character and family live on different groups")
    return rho


def membership_solve_all(rhos, family: GeneratorFamily):
    """`membership_solve` of each rho, in one batch over the family's lattice."""
    for rho in rhos:
        check_target(rho, family)
    if not family.generators:
        return [MembershipCertificate(family, rho, ()) if rho.is_zero() else None for rho in rhos]
    xs = family.hnf().solve_all([rho.coeffs for rho in rhos])
    return [None if x is None else MembershipCertificate(family, rho, ((i, c) for i, c in enumerate(x) if c))
            for rho, x in zip(rhos, xs)]


def verify_certificate(cert: MembershipCertificate) -> bool:
    """Re-expand the certificate over irreducible coordinates; exact compare."""
    generators = cert.family.generators
    terms = ((c, generators[i].expansion.coeffs) for i, c in cert.terms)
    return tuple(linear_combination(terms, cert.family.table.class_count())) == cert.target.coeffs


def certificate_to_json(cert: MembershipCertificate, group_name: str) -> dict:
    return {
        "group": group_name,
        "flavor": cert.family.flavor,
        "target": list(cert.target.coeffs),
        "terms": [
            {"generator": g, "coefficient": c} for g, c in cert.named_terms()
        ],
        "verified": verify_certificate(cert),
    }


def certificate_from_json(doc: dict, family: GeneratorFamily) -> MembershipCertificate:
    """Rebuild a certificate emitted by certificate_to_json, ready to re-verify;
    a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a certificate must be an object, got %r" % (doc,))
    if doc.get("flavor") != family.flavor:
        raise ValueError(
            "certificate flavor %r does not match family %r"
            % (doc.get("flavor"), family.flavor)
        )
    table = family.table
    target_coeffs = doc.get("target")
    if not isinstance(target_coeffs, list) or len(target_coeffs) != table.class_count():
        raise ValueError("target must be a list of %d entries" % table.class_count())
    target = GenChar(table, [_integer(c, "target entry") for c in target_coeffs])
    term_docs = doc.get("terms")
    if not isinstance(term_docs, list):
        raise ValueError("terms must be a list, got %r" % (term_docs,))
    terms = []
    for term in term_docs:
        gen_id = term.get("generator") if isinstance(term, dict) else None
        if not isinstance(gen_id, str) or gen_id not in family.position:
            raise ValueError("term %r has no known generator id" % (term,))
        terms.append((family.position[gen_id], _integer(term.get("coefficient"), "coefficient")))
    if len({i for i, _ in terms}) != len(terms):
        raise ValueError("a generator id appears in more than one term")
    return MembershipCertificate(family, target, terms)


def _integer(value, where: str) -> int:
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (where, value))
    return value


@per_group
def _perm_lattice(G: PermGroup):
    """(records, perm chars, HNF of their rows) for the permutation lattice:
    only a solve over it takes the HNF."""
    records = subgroup_lattice(G).records
    chars = [perm_char(G, rec) for rec in records]
    return records, chars, hnf([list(ch.coeffs) for ch in chars])


def perm_lattice_solve(rho: GenChar):
    """Integer coordinates of rho over {perm_char(G, H)}, or None."""
    G = rho.table.group
    records, _, lattice = _perm_lattice(G)
    x = lattice.solve(rho.coeffs)
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


@per_group
def _admissible_lattice(G: PermGroup):
    """Basis of integer subgroup-multiplicity vectors landing inside S_G."""
    chars = [perm_char(G, rec) for rec in subgroup_lattice(G).records]
    rows = [[ch.degree] + [1 if a else 0 for a in determinant(ch).exponents] for ch in chars]
    projected = kernel_mod2(rows, 1)
    h_rows = hnf(projected).h_rows if projected else []
    return [[row.get(c, 0) for c in range(len(projected[0]))] for row in h_rows if row]


_DRAWS = 1000  # random_S_element's budget of draws per call
_COEFFS = (-2, -1, 1, 2)


def _draw(rows, coeffs, bound: int):
    """The multiplicities of one draw, or None when random_S_element rejects it."""
    x = linear_combination(zip(coeffs, rows), len(rows[0]))
    return x if any(x) and max(map(abs, x)) <= bound else None


@per_group
def _basis_rows(G: PermGroup):
    """Per row of `_admissible_lattice`: its largest entry in absolute value,
    and the coefficients of its combination of permutation characters."""
    chars = [perm_char(G, rec).coeffs for rec in subgroup_lattice(G).records]
    width = character_table(G).class_count()
    return [(max(map(abs, row)), linear_combination(zip(row, chars), width))
            for row in _admissible_lattice(G)]


@per_group
def _has_target(G: PermGroup, bound: int) -> bool:
    """Whether any draw can be accepted at this bound: decided by trying every
    draw when they fit the budget (at most 5 basis rows), else assumed."""
    basis = _admissible_lattice(G)
    sizes = range(1, min(3, len(basis)) + 1)
    return sum(comb(len(basis), k) * 4**k for k in sizes) > _DRAWS or any(
        _draw(rows, coeffs, bound) is not None
        for k in sizes
        for rows in combinations(basis, k)
        for coeffs in product(_COEFFS, repeat=k)
    )


def random_S_element(G: PermGroup, seed: int, bound: int) -> GenChar:
    """A seeded random degree-0 trivial-det permutation combination: 1 to 3
    distinct basis rows with coefficients in {-2, -1, 1, 2}, redrawn unless
    nonzero with no entry above ``bound``.  Zero comes back when ``bound <= 0``,
    the basis is empty, no draw can pass (C_p, p >= 5, at bound 4), all 1,000
    draws fail, or the draw is a relation among permutation characters (D6 at
    bound 4, seed 19)."""
    table = character_table(G)
    zero = GenChar(table, [0] * table.class_count())
    if bound <= 0:
        return zero
    basis = _admissible_lattice(G)
    if not basis or not _has_target(G, bound):
        return zero
    rows = _basis_rows(G)
    rng = random.Random(seed)
    for _ in range(_DRAWS):
        # sample() reads only the population's length: the draws of sample(basis, k)
        picks = rng.sample(range(len(basis)), rng.randint(1, min(3, len(basis))))
        coeffs = [rng.choice(_COEFFS) for _ in picks]
        # a basis row is nonzero, so only its largest entry can reject it alone
        if (abs(coeffs[0]) * rows[picks[0]][0] > bound if len(picks) == 1
                else _draw([basis[i] for i in picks], coeffs, bound) is None):
            continue
        picked = ((c, rows[i][1]) for c, i in zip(coeffs, picks))
        return GenChar(table, linear_combination(picked, table.class_count()))
    return zero


def hyperelementary_records(G: PermGroup):
    """Subgroup class representatives that are hyperelementary groups."""
    out = []
    for rec in subgroup_lattice(G).records:
        if is_hyperelementary(rec.as_group()) is not None:
            out.append(rec)
    return out


@per_group
def solomon_coefficients(G: PermGroup):
    """Integers n_H over hyperelementary H with sum n_H * Ind_H 1 = 1."""
    one = trivial_char(character_table(G))
    if is_hyperelementary(G) is not None:
        top = subgroup_lattice(G).records[-1]
        if top.order != G.order():
            raise MembershipError("lattice is missing the full group")
        result = [(top, 1)]
    else:
        records = hyperelementary_records(G)
        matrix = [list(perm_char(G, rec).coeffs) for rec in records]
        x = hnf(matrix).solve(one.coeffs)
        if x is None:
            raise MembershipError(
                "no hyperelementary expression of the trivial character"
            )
        result = [(rec, c) for rec, c in zip(records, x) if c]
    terms = ((c, perm_char(G, rec).coeffs) for rec, c in result)
    if tuple(linear_combination(terms, len(one.coeffs))) != one.coeffs:
        raise MembershipError("induction identity failed to re-verify")
    return result
