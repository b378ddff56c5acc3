"""Structural decomposition trees over the generator family."""

from __future__ import annotations

from ._primes import prime_factors
from .chartab import character_table
from .genchar import (
    GenChar,
    LinearChar,
    determinant,
    induce,
    inflate,
    irreducible_char,
    perm_char,
    restrict,
    rho_H,
    trivial_char,
)
from .generators import theorem_family
from .group import PermGroup
from .intlinalg import solve_left_canonical
from .lattice import SubgroupRecord, _set_key, subgroup_lattice
from .membership import (
    MembershipCertificate,
    _perm_lattice,
    is_s_element,
    membership_solve,
    solomon_coefficients,
    verify_certificate,
)
from .structure import QuotientMap, _is_normal_in, identify_small_type, is_hyperelementary

_MAX_DEPTH = 100

LEAF = "Leaf"
INDUCED = "Induced"
INFLATED = "Inflated"


class DecomposeError(RuntimeError):
    """The structural recursion hit a state the proof rules out."""


class TreeNode:
    """One reduction step; its character is the signed sum of its children's."""

    __slots__ = (
        "kind",
        "genchar",
        "children",
        "generator",
        "multiplicity",
        "subgroup",
        "qmap",
    )

    def __init__(
        self,
        kind,
        genchar,
        children=(),
        generator=None,
        multiplicity=0,
        subgroup=None,
        qmap=None,
    ):
        self.kind = kind
        self.genchar = genchar
        self.children = tuple(children)
        self.generator = generator
        self.multiplicity = multiplicity
        self.subgroup = subgroup
        self.qmap = qmap
        self._check()

    def _check(self):
        if self.kind == LEAF:
            if self.generator is None:
                raise DecomposeError("leaf without a generator")
            if self.genchar != self.multiplicity * self.generator.expansion:
                raise DecomposeError("leaf does not account for its generator")
            return
        if self.kind == INDUCED:
            total = _child_sum(self.children)
            if total is None or self.genchar != induce(self.subgroup, total):
                raise DecomposeError("induced node does not match its children")
            return
        if self.kind == INFLATED:
            total = _child_sum(self.children)
            if total is None or self.genchar != inflate(self.qmap, total):
                raise DecomposeError("inflated node does not match its children")
            return
        table = self.genchar.table
        total = GenChar(table, [0] * table.class_count())
        for child in self.children:
            total = total + child.genchar
        if total != self.genchar:
            raise DecomposeError("node %s does not match its children" % self.kind)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def kinds(self):
        return sorted({node.kind for node in self.walk()})

    def __repr__(self):
        return "TreeNode(%s, %d children)" % (self.kind, len(self.children))


def _child_sum(children):
    if not children:
        return None
    table = children[0].genchar.table
    total = GenChar(table, [0] * table.class_count())
    for child in children:
        if child.genchar.table is not table:
            return None
        total = total + child.genchar
    return total


def _zero(table) -> GenChar:
    return GenChar(table, [0] * table.class_count())


def _scale(node: TreeNode, m: int) -> TreeNode:
    if m == 1:
        return node
    return TreeNode(
        node.kind,
        m * node.genchar,
        [_scale(child, m) for child in node.children],
        generator=node.generator,
        multiplicity=node.multiplicity * m,
        subgroup=node.subgroup,
        qmap=node.qmap,
    )


def _is_linear_combination(rho: GenChar) -> bool:
    degrees = rho.table.degrees
    return all(c == 0 or degrees[i] == 1 for i, c in enumerate(rho.coeffs))


def _restricted_solve(G, rho, gens, kind) -> TreeNode:
    """Leaf-solve rho over a lemma-prescribed subfamily of the full family."""
    if rho.is_zero():
        return TreeNode(kind, rho)
    matrix = [list(g.expansion.coeffs) for g in gens]
    if not matrix:
        raise DecomposeError("%s leaf-solve of a nonzero target over nothing" % kind)
    x = solve_left_canonical(matrix, list(rho.coeffs))
    if x is None:
        raise DecomposeError("%s leaf-solve failed" % kind)
    leaves = [
        TreeNode(LEAF, c * g.expansion, generator=g, multiplicity=c)
        for g, c in zip(gens, x)
        if c
    ]
    return TreeNode(kind, rho, leaves)


def _type1_generators(G):
    return [g for g in theorem_family(G) if g.kind == "type1"]


def _lemma24(G, rho) -> TreeNode:
    return _restricted_solve(G, rho, _type1_generators(G), "Lemma2.4")


def _lemma23(G, rho) -> TreeNode:
    """Linear-combination targets: conjugate pairs plus sign-pair bricks."""
    if not _is_linear_combination(rho):
        raise DecomposeError("Lemma2.3 target is not a linear combination")
    gens = [
        g
        for g in theorem_family(G)
        if g.kind == "type1" or _is_linear_combination(g.expansion)
    ]
    return _restricted_solve(G, rho, gens, "Lemma2.3")


def _type1_leaves(G, tau: GenChar):
    """Leaves expanding tau + conj(tau) - 2 deg(tau) * 1 over conjugate pairs."""
    fam = theorem_family(G)
    table = tau.table
    mults = {}
    for i, c in enumerate(tau.coeffs):
        if not c or i == 0:
            continue
        gen_id = "t1:%d" % min(i, table.conj_rows[i])
        mults[gen_id] = mults.get(gen_id, 0) + c
    leaves = []
    total = _zero(table)
    for gen_id, m in sorted(mults.items()):
        if not m:
            continue
        g = fam.by_id(gen_id)
        leaves.append(TreeNode(LEAF, m * g.expansion, generator=g, multiplicity=m))
        total = total + m * g.expansion
    target = tau + tau.conj() - 2 * tau.degree * trivial_char(table)
    if total != target:
        raise DecomposeError("conjugate-pair expansion mismatch")
    return leaves, target


def _supersets(G, h_set, order):
    return sorted(
        (
            s
            for orbit in subgroup_lattice(G).class_sets
            for s in orbit
            if len(s) == order and h_set < s
        ),
        key=_set_key,
    )


def _rho_of_set(G, h_set) -> GenChar:
    return rho_H(G, subgroup_lattice(G).record_for_set(h_set))


def _record_for_exact_set(G, elements) -> SubgroupRecord:
    """Record whose elements are exactly these, not just conjugate to them."""
    rec = subgroup_lattice(G).record_for_set(elements)
    if rec.element_set() == elements:
        return rec
    cache = G._cache.setdefault("exact_records", {})
    if elements not in cache:
        cache[elements] = SubgroupRecord(
            G, elements, class_id=rec.class_id, normal=False
        )
    return cache[elements]


def _lemma25_split(G, rho, handler, depth) -> TreeNode:
    """Split rho into subgroup terms rho_H plus a linear-character remainder."""
    if rho.is_zero():
        return TreeNode("Lemma2.5", rho)
    records, chars, matrix, basis = _perm_lattice(G)
    order = G.order()
    terms = None
    for rec in records:
        if rec.order < order and rho == rho_H(G, rec):
            terms = [(rec, 1)]
            break
    if terms is None:
        x = solve_left_canonical(matrix, list(rho.coeffs), basis)
        if x is None:
            raise DecomposeError("target left the permutation lattice")
        terms = [
            (rec, c) for rec, c in zip(records, x) if c and rec.order < order
        ]
    children = []
    remainder = rho
    for rec, c in terms:
        children.append(_scale(handler(rec, depth), c))
        remainder = remainder - c * rho_H(G, rec)
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode("Lemma2.5", rho, children)


def _two_group(G, rho, depth) -> TreeNode:
    def handler(rec, depth):
        return _thm28_rho(G, rec.element_set(), depth + 1)

    return _lemma25_split(G, rho, handler, depth)


def _quotient_of_sets(G, big_set, small_set):
    """Quotient of the subgroup on big_set by its normal subgroup small_set."""
    rec = _record_for_exact_set(G, big_set)
    sub = rec.as_group()
    return rec, sub, QuotientMap(sub, small_set)


def _thm28_rho(G, h_set, depth) -> TreeNode:
    """Index recursion for rho_H inside a 2-group."""
    if depth > _MAX_DEPTH:
        raise DecomposeError("recursion depth exceeded")
    rho = _rho_of_set(G, h_set)
    index = G.order() // len(h_set)
    if index <= 2:
        if not rho.is_zero():
            raise DecomposeError("index-two target should vanish")
        return TreeNode("Thm2.8.case1", rho)
    u_set = _supersets(G, h_set, 2 * len(h_set))[0]
    v_set = _supersets(G, u_set, 4 * len(h_set))[0]
    if _is_normal_in(h_set, v_set):
        if any(x * x not in h_set for x in v_set):
            return _thm28_cyclic_chain(G, rho, h_set, u_set, v_set, depth)
        return _thm28_klein_chain(G, rho, h_set, v_set, depth)
    return _thm28_non_normal(G, rho, h_set, v_set, depth)


def _thm28_cyclic_chain(G, rho, h_set, u_set, v_set, depth) -> TreeNode:
    v_rec, v_sub, qmap = _quotient_of_sets(G, v_set, h_set)
    qtab = character_table(qmap.image)
    faithful = next(
        i for i in qtab.linear_row_indices() if qtab.conj_rows[i] != i
    )
    tau = induce(v_rec, inflate(qmap, irreducible_char(qtab, faithful)))
    leaves, twist = _type1_leaves(G, tau)
    children = [_thm28_rho(G, u_set, depth + 1)] + leaves
    remainder = rho - _rho_of_set(G, u_set) - twist
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode("Thm2.8.case2", rho, children)


def _thm28_klein_chain(G, rho, h_set, v_set, depth) -> TreeNode:
    mids = _supersets(G, h_set, 2 * len(h_set))
    mids = [s for s in mids if s < v_set]
    if len(mids) != 3:
        raise DecomposeError("Klein chain without three intermediates")
    children = [_thm28_rho(G, s, depth + 1) for s in mids]
    children.append(_scale(_thm28_rho(G, v_set, depth + 1), -2))
    remainder = rho
    for s in mids:
        remainder = remainder - _rho_of_set(G, s)
    remainder = remainder + 2 * _rho_of_set(G, v_set)
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode("Thm2.8.case3", rho, children)


def _thm28_non_normal(G, rho, h_set, v_set, depth) -> TreeNode:
    core = frozenset(
        x
        for x in h_set
        if all(v.inverse() * x * v in h_set for v in v_set)
    )
    if 2 * len(core) != len(h_set):
        raise DecomposeError("core of the non-normal step has wrong index")
    v_rec, v_sub, qmap = _quotient_of_sets(G, v_set, core)
    quo = qmap.image
    if str(identify_small_type(quo)) != "Dihedral8":
        raise DecomposeError("non-normal step quotient is not of order-8 type")
    qtab = character_table(quo)
    h_image = frozenset(qmap.map_element(x) for x in h_set)
    coset = perm_char(quo, _record_for_exact_set(quo, h_image))
    sigma_row = next(i for i, d in enumerate(qtab.degrees) if d == 2)
    lam_row = next(
        i
        for i, c in enumerate(coset.coeffs)
        if c == 1 and i != 0 and qtab.degrees[i] == 1
    )
    expected = [0] * qtab.class_count()
    expected[0] = 1
    expected[lam_row] = 1
    expected[sigma_row] = 1
    if list(coset.coeffs) != expected:
        raise DecomposeError("coset character is not 1 + lambda + sigma")
    sigma = irreducible_char(qtab, sigma_row)
    det_sigma = determinant(sigma)
    twist = inflate(qmap, sigma - trivial_char(qtab) - det_sigma.genchar)
    expansion = induce(v_rec, twist)
    gen = _find_family_generator(G, expansion)
    leaf = TreeNode(LEAF, expansion, generator=gen, multiplicity=1)
    k_lam = qmap.preimage_set(LinearChar(qtab, lam_row).kernel_elements())
    k_det = qmap.preimage_set(det_sigma.kernel_elements())
    children = [
        leaf,
        _thm28_rho(G, k_lam, depth + 1),
        _thm28_rho(G, k_det, depth + 1),
    ]
    remainder = (
        rho - expansion - _rho_of_set(G, k_lam) - _rho_of_set(G, k_det)
    )
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode("Thm2.8.case4", rho, children)


def _find_family_generator(G, expansion):
    for g in theorem_family(G):
        if g.expansion.coeffs == expansion.coeffs:
            return g
    raise DecomposeError("expansion is not a family generator")


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def _hyperelementary(G, rho, depth) -> TreeNode:
    p, n_rec = is_hyperelementary(G)
    odd = _odd_part(n_rec.order)
    if odd == 1:
        return _lemma24(G, rho)
    q = min(prime_factors(odd))
    n_sub = n_rec.as_group()
    v_set = frozenset(x for x in n_sub.elements() if (x ** q).is_identity())

    def handler(rec, depth):
        return _prop26_rho(G, v_set, q, rec.element_set(), depth + 1)

    return _lemma25_split(G, rho, handler, depth)


def _prop26_rho(G, v_set, q, h_set, depth) -> TreeNode:
    """Normal cyclic Sylow recursion for rho_H."""
    if depth > _MAX_DEPTH:
        raise DecomposeError("recursion depth exceeded")
    rho = _rho_of_set(G, h_set)
    if v_set <= h_set:
        return _prop26_inflation(G, rho, v_set, h_set, "Prop2.6.case1", depth)
    vh_set = frozenset(v * h for v in v_set for h in h_set)
    if len(vh_set) < G.order():
        return _prop26_intermediate(G, rho, v_set, q, h_set, vh_set, depth)
    kernel = frozenset(
        x for x in h_set if all(x.inverse() * v * x == v for v in v_set)
    )
    if len(kernel) > 1:
        return _prop26_inflation(G, rho, kernel, h_set, "Prop2.6.case3", depth)
    return _prop26_faithful(G, rho, q)


def _prop26_inflation(G, rho, kernel_set, h_set, kind, depth) -> TreeNode:
    qmap = QuotientMap(G, kernel_set)
    quo = qmap.image
    h_image = frozenset(qmap.map_element(x) for x in h_set)
    rho_quo = rho_H(quo, subgroup_lattice(quo).record_for_set(h_image))
    subtree = _dispatch(quo, rho_quo, depth + 1)
    inflated = TreeNode(INFLATED, rho, [subtree], qmap=qmap)
    return TreeNode(kind, rho, [inflated])


def _prop26_intermediate(G, rho, v_set, q, h_set, vh_set, depth) -> TreeNode:
    vh_rec = _record_for_exact_set(G, vh_set)
    sub = vh_rec.as_group()
    h_rec_sub = subgroup_lattice(sub).record_for_set(h_set)
    rho0 = rho_H(sub, h_rec_sub)
    subtree = _dispatch(sub, rho0, depth + 1)
    induced_char = induce(vh_rec, rho0)
    children = [TreeNode(INDUCED, induced_char, [subtree], subgroup=vh_rec)]
    remainder = rho - induced_char
    delta = determinant(perm_char(sub, h_rec_sub))
    if delta.is_trivial():
        children.append(
            _scale(_prop26_rho(G, v_set, q, vh_set, depth + 1), q)
        )
        remainder = remainder - q * _rho_of_set(G, vh_set)
    else:
        k_set = delta.kernel_elements()
        if not v_set <= k_set:
            raise DecomposeError("determinant kernel misses the Sylow base")
        children.append(_prop26_rho(G, v_set, q, k_set, depth + 1))
        remainder = remainder - _rho_of_set(G, k_set)
        if q > 2:
            children.append(
                _scale(_prop26_rho(G, v_set, q, vh_set, depth + 1), q - 2)
            )
            remainder = remainder - (q - 2) * _rho_of_set(G, vh_set)
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode("Prop2.6.case2", rho, children)


def _prop26_faithful(G, rho, q) -> TreeNode:
    fam = theorem_family(G)
    gens = [
        g
        for g in fam
        if g.kind == "type1" or g.tag == "Dihedral2p(%d)" % q
    ]
    return _restricted_solve(G, rho, gens, "Prop2.6.case4")


def _solomon_root(G, rho, depth) -> TreeNode:
    children = []
    for rec, n in solomon_coefficients(G):
        sub = rec.as_group()
        res = restrict(rho, rec)
        subtree = _scale(_dispatch(sub, res, depth + 1), n)
        children.append(
            TreeNode(INDUCED, n * induce(rec, res), [subtree], subgroup=rec)
        )
    return TreeNode("Lemma2.7", rho, children)


def _dispatch(G, rho, depth) -> TreeNode:
    if depth > _MAX_DEPTH:
        raise DecomposeError("recursion depth exceeded")
    order = G.order()
    if order % 2 == 1:
        return _lemma24(G, rho)
    if _odd_part(order) == 1:
        return _two_group(G, rho, depth)
    if is_hyperelementary(G) is not None:
        return _hyperelementary(G, rho, depth)
    return _solomon_root(G, rho, depth)


def decompose_structural(G: PermGroup, rho: GenChar) -> TreeNode:
    """Decomposition tree for rho, following the case analysis of the proof."""
    if rho.table is not character_table(G):
        raise ValueError("character does not live on this group")
    if not is_s_element(rho):
        raise ValueError(
            "target is not a degree-0 trivial-determinant permutation combination"
        )
    root = _dispatch(G, rho, 0)
    if root.genchar != rho:
        raise DecomposeError("root does not account for the target")
    return root


def flatten_to_certificate(root: TreeNode, family=None) -> MembershipCertificate:
    """Collapse a tree's leaves into one certificate over the root family."""
    G = root.genchar.table.group
    if family is None:
        family = theorem_family(G)
    merged = {}
    gen_ids = {g.gen_id: i for i, g in enumerate(family.generators)}

    def add_solved(char, mult):
        cert = membership_solve(char, family)
        if cert is None:
            raise DecomposeError("lifted leaf left the family lattice")
        for j, d in cert.terms:
            merged[j] = merged.get(j, 0) + mult * d

    def walk(node, lifts):
        if node.kind == LEAF:
            if not lifts and node.generator.gen_id in gen_ids:
                j = gen_ids[node.generator.gen_id]
                merged[j] = merged.get(j, 0) + node.multiplicity
                return
            char = node.generator.expansion
            for kind, carrier in reversed(lifts):
                char = (
                    induce(carrier, char)
                    if kind == INDUCED
                    else inflate(carrier, char)
                )
            add_solved(char, node.multiplicity)
            return
        if node.kind == INDUCED:
            for child in node.children:
                walk(child, lifts + [(INDUCED, node.subgroup)])
            return
        if node.kind == INFLATED:
            for child in node.children:
                walk(child, lifts + [(INFLATED, node.qmap)])
            return
        for child in node.children:
            walk(child, lifts)

    walk(root, [])
    terms = [(j, d) for j, d in sorted(merged.items()) if d]
    cert = MembershipCertificate(family, root.genchar, terms)
    if not verify_certificate(cert):
        raise DecomposeError("flattened tree does not re-verify")
    return cert


def tree_to_json(node: TreeNode) -> dict:
    doc = {
        "kind": node.kind,
        "coefficients": list(node.genchar.coeffs),
        "children": [tree_to_json(child) for child in node.children],
    }
    if node.kind == LEAF:
        doc["generator"] = node.generator.gen_id
        doc["multiplicity"] = node.multiplicity
    if node.kind == INDUCED:
        doc["subgroup_order"] = node.subgroup.order
        doc["subgroup"] = node.subgroup.label
    if node.kind == INFLATED:
        doc["kernel_order"] = len(node.qmap.kernel_set)
    return doc
