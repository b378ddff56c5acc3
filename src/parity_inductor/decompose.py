"""Structural decomposition trees over the generator family.

Each Lemma 2.5, Thm 2.8 and Prop 2.6 step is built by `_step`, which adds a
Lemma 2.3 leaf-solve for the linear remainder its children leave.  Conjugate
pairs, in the odd case and in Thm 2.8's cyclic step alike, come from the
Lemma 2.4 leaf-solve; a Lemma 2.5 split's subgroup terms come from
`perm_lattice_solve`.  Every Induced or Inflated step, Lemma 2.7's and
Prop 2.6's alike, is one `_carried` call over its carrier: the subtree is
built on the smaller group and carried up by induction or inflation.  A tree
flattens to a certificate over its root group's theorem family.
"""

from __future__ import annotations

from ._primes import prime_factors
from .chartab import character_table, kernel_rows
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
from .generators import THEOREM_FLAVOR, GeneratorFamily, theorem_family
from .group import PermGroup, per_group
from .lattice import subgroup_lattice
from .membership import (
    MembershipCertificate,
    is_s_element,
    membership_solve,
    membership_solve_all,
    perm_lattice_solve,
    solomon_coefficients,
    verify_certificate,
)
from .structure import DIHEDRAL_2P, SmallTypeTag, is_hyperelementary, quotient

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
        "carrier",
    )

    def __init__(
        self,
        kind,
        genchar,
        children=(),
        generator=None,
        multiplicity=0,
        carrier=None,
    ):
        self.kind = kind
        self.genchar = genchar
        self.children = tuple(children)
        self.generator = generator
        self.multiplicity = multiplicity
        self.carrier = carrier
        self._check()

    def _check(self):
        if self.kind == LEAF:
            if self.generator is None:
                raise DecomposeError("leaf without a generator")
            if self.genchar != self.multiplicity * self.generator.expansion:
                raise DecomposeError("leaf does not account for its generator")
            return
        if self.kind in (INDUCED, INFLATED):
            carried = [_carry(self.kind, self.carrier, child.genchar) for child in self.children]
            if carried != [self.genchar]:
                raise DecomposeError("%s node does not match its children" % self.kind.lower())
            return
        if _total(self.children, self.genchar.table) != self.genchar:
            raise DecomposeError("node %s does not match its children" % self.kind)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return "TreeNode(%s, %d children)" % (self.kind, len(self.children))


def _carry(kind, carrier, char) -> GenChar:
    """char carried up by an Induced node's subgroup or an Inflated node's quotient map."""
    return induce(carrier, char) if kind == INDUCED else inflate(carrier, char)


def _carried(kind, carrier, target, depth, m=1) -> TreeNode:
    """The Induced or Inflated node over m times target's tree on its smaller group."""
    subtree = _scale(_dispatch(target.table.group, target, depth + 1), m)
    return TreeNode(kind, _carry(kind, carrier, subtree.genchar), [subtree], carrier=carrier)


def _total(children, table) -> GenChar:
    zero = GenChar(table, [0] * table.class_count())
    return sum((child.genchar for child in children), zero)


def _scale(node: TreeNode, m: int) -> TreeNode:
    if m == 1:
        return node
    return TreeNode(
        node.kind,
        m * node.genchar,
        [_scale(child, m) for child in node.children],
        generator=node.generator,
        multiplicity=node.multiplicity * m,
        carrier=node.carrier,
    )


def _is_linear_combination(rho: GenChar) -> bool:
    degrees = rho.table.degrees
    return all(c == 0 or degrees[i] == 1 for i, c in enumerate(rho.coeffs))


def _subfamily(G, keep) -> GeneratorFamily:
    return GeneratorFamily(G, THEOREM_FLAVOR, [g for g in theorem_family(G) if keep(g)])


@per_group
def _lemma24_family(G) -> GeneratorFamily:
    """The conjugate pairs."""
    return _subfamily(G, lambda g: g.kind == "type1")


@per_group
def _lemma23_family(G) -> GeneratorFamily:
    """The conjugate pairs plus the sign-pair bricks (linear combinations)."""
    return _subfamily(
        G, lambda g: g.kind == "type1" or _is_linear_combination(g.expansion)
    )


@per_group
def _prop26_family(G, q) -> GeneratorFamily:
    """The conjugate pairs plus the dihedral twists of order 2q."""
    tag = str(SmallTypeTag(DIHEDRAL_2P, q))
    return _subfamily(G, lambda g: g.kind == "type1" or g.tag == tag)


def _leaf_solve(rho, family, kind) -> TreeNode:
    """Leaf-solve rho over a lemma-prescribed subfamily of the full family."""
    cert = membership_solve(rho, family)
    if cert is None:
        raise DecomposeError("%s leaf-solve failed" % kind)
    leaves = [
        TreeNode(LEAF, c * family[i].expansion, generator=family[i], multiplicity=c)
        for i, c in cert.terms
    ]
    return TreeNode(kind, rho, leaves)


def _lemma24(G, rho) -> TreeNode:
    return _leaf_solve(rho, _lemma24_family(G), "Lemma2.4")


def _lemma23(G, rho) -> TreeNode:
    """Linear-combination targets: conjugate pairs plus sign-pair bricks."""
    if not _is_linear_combination(rho):
        raise DecomposeError("Lemma2.3 target is not a linear combination")
    return _leaf_solve(rho, _lemma23_family(G), "Lemma2.3")


def _type1_leaves(G, tau: GenChar):
    """Leaves expanding tau + conj(tau) - 2 deg(tau) * 1 over conjugate pairs, by id."""
    twist = tau + tau.conj() - 2 * tau.degree * trivial_char(tau.table)
    return sorted(_lemma24(G, twist).children, key=lambda leaf: leaf.generator.gen_id)


def _step(G, kind, rho, children) -> TreeNode:
    """A proof step: Lemma 2.3 covers the linear remainder its children leave."""
    remainder = rho - _total(children, rho.table)
    if not remainder.is_zero():
        children.append(_lemma23(G, remainder))
    return TreeNode(kind, rho, children)


def _supersets(G, h_set, order):
    return sorted(
        (
            s
            for orbit in subgroup_lattice(G).class_sets
            for s in orbit
            if len(s) == order and h_set < s
        ),
        key=sorted,
    )


def _rho_of_set(G, h_set, depth) -> GenChar:
    if depth > _MAX_DEPTH:
        raise DecomposeError("recursion depth exceeded")
    return rho_H(G, subgroup_lattice(G).record_for_set(h_set))


def _lemma25_split(G, rho, handler) -> TreeNode:
    """Split rho into subgroup terms rho_H plus a linear-character remainder."""
    if rho.is_zero():
        return TreeNode("Lemma2.5", rho)
    order = G.order()
    terms = None
    for rec in subgroup_lattice(G).records:
        if rec.order < order and rho == rho_H(G, rec):
            terms = [(rec, 1)]
            break
    if terms is None:
        solved = perm_lattice_solve(rho)
        if solved is None:
            raise DecomposeError("target left the permutation lattice")
        terms = [(rec, c) for rec, c in solved if c and rec.order < order]
    children = [_scale(handler(rec), c) for rec, c in terms]
    return _step(G, "Lemma2.5", rho, children)


def _thm28_rho(G, h_set, depth) -> TreeNode:
    """Index recursion for rho_H inside a 2-group."""
    rho = _rho_of_set(G, h_set, depth)
    index = G.order() // len(h_set)
    if index <= 2:
        if not rho.is_zero():
            raise DecomposeError("index-two target should vanish")
        return TreeNode("Thm2.8.case1", rho)
    u_set = _supersets(G, h_set, 2 * len(h_set))[0]
    v_set = _supersets(G, u_set, 4 * len(h_set))[0]
    table, inverse, _ = G.cayley()
    core = frozenset(
        x
        for x in h_set
        if all(table[inverse[v]][table[x][v]] in h_set for v in v_set)
    )
    if core == h_set:
        if any(table[x][x] not in h_set for x in v_set):
            return _thm28_cyclic_chain(G, rho, h_set, u_set, v_set, depth)
        return _thm28_klein_chain(G, rho, h_set, v_set, depth)
    return _thm28_non_normal(G, rho, h_set, v_set, core, depth)


def _thm28_cyclic_chain(G, rho, h_set, u_set, v_set, depth) -> TreeNode:
    # V/H is cyclic of order 4: either of its non-real rows is faithful
    v_rec = subgroup_lattice(G).record_for_set(v_set)
    vtab = character_table(v_rec.as_group())
    faithful = next(
        i for i in kernel_rows(vtab, v_rec.local(h_set)) if vtab.conj_rows[i] != i
    )
    tau = induce(v_rec, irreducible_char(vtab, faithful))
    children = [_thm28_rho(G, u_set, depth + 1)] + _type1_leaves(G, tau)
    return _step(G, "Thm2.8.case2", rho, children)


def _thm28_klein_chain(G, rho, h_set, v_set, depth) -> TreeNode:
    mids = _supersets(G, h_set, 2 * len(h_set))
    mids = [s for s in mids if s < v_set]
    if len(mids) != 3:
        raise DecomposeError("Klein chain without three intermediates")
    children = [_thm28_rho(G, s, depth + 1) for s in mids]
    children.append(_scale(_thm28_rho(G, v_set, depth + 1), -2))
    return _step(G, "Thm2.8.case3", rho, children)


def _thm28_non_normal(G, rho, h_set, v_set, core, depth) -> TreeNode:
    if 2 * len(core) != len(h_set):
        raise DecomposeError("core of the non-normal step has wrong index")
    # V/core is nonabelian of order 8 with the non-normal H/core: dihedral
    v_rec = subgroup_lattice(G).record_for_set(v_set)
    vtab = character_table(v_rec.as_group())
    rows = kernel_rows(vtab, v_rec.local(core))
    if sorted(vtab.degrees[i] for i in rows) != [1, 1, 1, 1, 2]:
        raise DecomposeError("non-normal step quotient is not of order-8 type")
    sigma = irreducible_char(vtab, next(i for i in rows if vtab.degrees[i] == 2))
    V = vtab.group
    coset = perm_char(V, subgroup_lattice(V).record_for_set(v_rec.local(h_set)))
    lam_row = next(
        i for i, c in enumerate(coset.coeffs) if c == 1 and i != 0 and vtab.degrees[i] == 1
    )
    one = trivial_char(vtab)
    if coset != one + irreducible_char(vtab, lam_row) + sigma:
        raise DecomposeError("coset character is not 1 + lambda + sigma")
    det_sigma = determinant(sigma)
    expansion = induce(v_rec, sigma - one - det_sigma.genchar)
    gen = next((g for g in theorem_family(G) if g.expansion.coeffs == expansion.coeffs), None)
    if gen is None:
        raise DecomposeError("expansion is not a family generator")
    leaf = TreeNode(LEAF, expansion, generator=gen, multiplicity=1)
    k_lam = v_rec.lift(LinearChar(vtab, lam_row).kernel_positions())
    k_det = v_rec.lift(det_sigma.kernel_positions())
    children = [
        leaf,
        _thm28_rho(G, k_lam, depth + 1),
        _thm28_rho(G, k_det, depth + 1),
    ]
    return _step(G, "Thm2.8.case4", rho, children)


def _hyperelementary(G, rho, depth) -> TreeNode:
    p, n_rec = is_hyperelementary(G)
    odd_primes = prime_factors(n_rec.order) - {2}
    if not odd_primes:
        return _lemma24(G, rho)
    q = min(odd_primes)
    orders = G.cayley().orders
    # the order-q part of the cyclic N
    v_set = frozenset(x for x in n_rec.positions if q % orders[x] == 0)
    return _lemma25_split(G, rho, lambda rec: _prop26_rho(G, v_set, q, rec.positions, depth + 1))


def _prop26_rho(G, v_set, q, h_set, depth) -> TreeNode:
    """Normal cyclic Sylow recursion for rho_H."""
    rho = _rho_of_set(G, h_set, depth)
    if v_set <= h_set:
        return _prop26_inflation(G, rho, v_set, h_set, "Prop2.6.case1", depth)
    table = G.cayley().table
    vh_set = frozenset(table[v][h] for v in v_set for h in h_set)
    if len(vh_set) < G.order():
        return _prop26_intermediate(G, rho, v_set, q, h_set, vh_set, depth)
    kernel = frozenset(
        x for x in h_set if all(table[x][v] == table[v][x] for v in v_set)
    )
    if len(kernel) > 1:
        return _prop26_inflation(G, rho, kernel, h_set, "Prop2.6.case3", depth)
    return _leaf_solve(rho, _prop26_family(G, q), "Prop2.6.case4")


def _prop26_inflation(G, rho, kernel_set, h_set, kind, depth) -> TreeNode:
    qmap = quotient(G, kernel_set)
    quo = qmap.image
    h_image = frozenset(qmap.image_of[a] for a in h_set)
    rho_quo = rho_H(quo, subgroup_lattice(quo).record_for_set(h_image))
    return TreeNode(kind, rho, [_carried(INFLATED, qmap, rho_quo, depth)])


def _prop26_intermediate(G, rho, v_set, q, h_set, vh_set, depth) -> TreeNode:
    vh_rec = subgroup_lattice(G).record_for_set(vh_set)
    sub = vh_rec.as_group()
    h_rec_sub = subgroup_lattice(sub).record_for_set(vh_rec.local(h_set))
    children = [_carried(INDUCED, vh_rec, rho_H(sub, h_rec_sub), depth)]
    delta = determinant(perm_char(sub, h_rec_sub))
    if delta.is_trivial():
        children.append(
            _scale(_prop26_rho(G, v_set, q, vh_set, depth + 1), q)
        )
    else:
        k_set = vh_rec.lift(delta.kernel_positions())
        if not v_set <= k_set:
            raise DecomposeError("determinant kernel misses the Sylow base")
        children.append(_prop26_rho(G, v_set, q, k_set, depth + 1))
        if q > 2:
            children.append(
                _scale(_prop26_rho(G, v_set, q, vh_set, depth + 1), q - 2)
            )
    return _step(G, "Prop2.6.case2", rho, children)


def _solomon_root(G, rho, depth) -> TreeNode:
    children = [
        _carried(INDUCED, rec, restrict(rho, rec), depth, n)
        for rec, n in solomon_coefficients(G)
    ]
    return TreeNode("Lemma2.7", rho, children)


def _dispatch(G, rho, depth) -> TreeNode:
    if depth > _MAX_DEPTH:
        raise DecomposeError("recursion depth exceeded")
    order = G.order()
    if order % 2 == 1:
        return _lemma24(G, rho)
    if prime_factors(order) <= {2}:
        return _lemma25_split(G, rho, lambda rec: _thm28_rho(G, rec.positions, depth + 1))
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


def flatten_to_certificate(root: TreeNode) -> MembershipCertificate:
    """Collapse a tree's leaves into one certificate over the root group's theorem family."""
    family = theorem_family(root.genchar.table.group)
    merged, lifted = {}, []

    def walk(node, lifts):
        if node.kind == LEAF:
            if not lifts and node.generator.gen_id in family.position:
                j = family.position[node.generator.gen_id]
                merged[j] = merged.get(j, 0) + node.multiplicity
                return
            char = node.generator.expansion
            for lift in reversed(lifts):
                char = _carry(lift.kind, lift.carrier, char)
            lifted.append((char, node.multiplicity))
            return
        if node.kind in (INDUCED, INFLATED):
            lifts = lifts + [node]
        for child in node.children:
            walk(child, lifts)

    walk(root, [])
    # every lifted leaf in one batch: one kernel echelon per flatten
    certs = membership_solve_all([char for char, _ in lifted], family)
    if None in certs:
        raise DecomposeError("lifted leaf left the family lattice")
    for cert, (_, mult) in zip(certs, lifted):
        for j, d in cert.terms:
            merged[j] = merged.get(j, 0) + mult * d
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
        doc["subgroup_order"] = node.carrier.order
        doc["subgroup"] = node.carrier.label
    if node.kind == INFLATED:
        doc["kernel_order"] = len(node.carrier.kernel)
    return doc
