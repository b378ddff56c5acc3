"""Exact character tables, by one of two paths.

A group with an abelian normal A and G/A cyclic, abelian groups included,
gets closed-form irreducibles, each induced from a linear character of A
extended to its stabilizer: every bundled catalog group and subgroup except
S4, A5, S5, SL(2,3) and their copies.  Any other table is computed over F_l
(l prime, l = 1 mod exp(G), l > 2*sqrt(|G|)) by Dixon-Schneider: the class
algebra splits there into common eigenspaces (on each, a class matrix's
eigenvalues are the lam in F_l at which it minus lam*I has a nonzero
kernel), lifted to exact values by Fourier inversion over the power maps,
kept as one cycle per class c (the classes of rep_c ** j, j < o(c)).  Both
paths' rows are sorted, then checked.

Representation: at a class of element order o, a row's value is its integer
multiplicity vector m in Z[x]/(x^o - 1), chi(c) = sum_s m_s * zeta_o ** s,
where m_s counts the eigenvalues zeta_o ** s.  These vectors are canonical,
so a table interns each distinct one once and holds its rows as tuples of
value ids; the vector's conjugate (s -> -s), its nonzero terms, its
determinant exponent and its key are found once per id.  Each vector is
checked to have o entries, none negative, summing to the row's degree, and
to map to the vector at g ** p by s -> s * p.  The key is the vector's lift
to Z[x]/(x^e - 1), e = exp(G), reduced modulo Phi_e to a polynomial in
z = zeta_e of degree below phi(e), keyed (1, its integer) when rational and
(e, its coordinates) otherwise.  Rows are sorted by these keys and rendered
from them.

Orthogonality: sum_c |C_c| chi_i(c) conj(chi_j(c)) = |G| * delta_ij is
checked for every pair of rows, one of them not linear, as one integer
vector in Z[x]/(x^e - 1) reduced modulo Phi_e.  A linear row, one
eigenvalue at every class, is zeta_e ** det_i(c) there: it is checked to be
a homomorphism on G's generators through the Cayley table, and no two
linear rows to be equal.  Distinct linear characters are orthonormal, so
their block of the Gram matrix needs no sum.

Decomposition: `CharacterTable.decompose` takes any number of class
functions as integer vectors (value sum_s a_s zeta_n ** s at a class of
element order o, n dividing o), each lifted to Z[x]/(x^o - 1).  By Hoelder's
formula the normalized trace Tr(zeta_o ** k) / phi(o) is mu(o/g) / phi(o/g),
g = gcd(k, o): the Ramanujan sum c_o(k) over phi(o).  So |G| * L times the
rational part of <f, chi_j>, with L the lcm of the phi(o) over the classes,
is the integer sum over classes c, over the input's nonzero terms (s, a_s)
and over row j's nonzero multiplicities (t, m_t) at c of
|C_c| * (L / phi(o)) * a_s * m_t * c_o(s - t); a class where the input is
zero adds nothing.  The weights and the dot products with every row are
computed once per distinct vector at a class, however many inputs share it,
and each input sums its classes' dot products.  For a generalized character
the inner products are rational, hence equal to their rational parts.  For
other input they need not be, so the coordinates must be integers and
sum_j a_j * chi_j must re-expand to each input at every class modulo Phi_o.
A return is then the exact identity f = sum_j a_j * chi_j for every input,
with no second path.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import add, itemgetter, mul, sub

from ._primes import is_prime, prime_factors, primitive_root
from .group import PermGroup, extend_subgroup, per_group
from .perm import format_perm


class CharTableError(RuntimeError):
    """Internal defect while building or using a character table."""


# --------------------------------------------------------------------- F_l


def _choose_prime(order: int, exponent: int) -> int:
    l = exponent + 1
    while True:
        if l * l > 4 * order and l % exponent == 1 and is_prime(l):
            return l
        l += 1


def _matvec(m, v, p):
    return [sum([e * v[c] for c, e in row]) % p for row in m]


def _rref(rows, p):
    """Reduced row echelon form over F_p; returns (rows, pivot_cols)."""
    rows = [r[:] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel_mod(m, p):
    """Basis of the right kernel of m over F_p (vectors as lists)."""
    n = len(m[0])
    rows, pivots = _rref(m, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


# ------------------------------------------------------------ integer values


@cache
def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, low degree first, monic."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_exact_div(num, den):
    """num / den for a monic den that divides num."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = num[k + len(den) - 1]
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    return q


@cache
def _phi_terms(n: int):
    """deg Phi_n and the nonzero (j, coefficient) of Phi_n below the leading term."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(coeffs, n):
    """Reduce an integer polynomial in zeta_n modulo Phi_n; returns len-phi(n) list."""
    deg, terms = _phi_terms(n)
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = 0
            base = k - deg
            for j, p in terms:
                work[base + j] -= c * p
    work = work[:deg]
    work += [0] * (deg - len(work))
    return work


@cache
def _ramanujan(n: int):
    """c_n(k) = Tr(zeta_n ** k) = (phi(n) / phi(d)) * Tr(zeta_d), d = n / gcd(k, n).

    Tr(zeta_d), the sum of the primitive d-th roots, is minus the
    second-highest coefficient of Phi_d.
    """
    phi_n = len(cyclotomic_polynomial(n)) - 1
    out = []
    for k in range(n):
        phi_d = cyclotomic_polynomial(n // gcd(k, n))
        out.append(-phi_d[-2] * phi_n // (len(phi_d) - 1))
    return tuple(out)


def _lift(m, n: int):
    """m in Z[x]/(x^len(m) - 1) as a vector of Z[x]/(x^n - 1); len(m) divides n."""
    out = [0] * n
    out[:: n // len(m)] = m
    return out


def _value_index(rows, e: int):
    """Intern each distinct vector m among the rows' values once.  Returns the
    rows as tuples of value ids, the index m -> id (ids in first-seen order),
    and per id its key, its nonzero (s, m_s) and its determinant exponent mod e."""
    index, objects = {}, {id(m): m for row in rows for m in row}
    # a tuple that several entries share, as the closed form's are, is hashed once
    objects = {i: index.setdefault(m, len(index)) for i, m in objects.items()}
    ids = [tuple(map(objects.__getitem__, map(id, row))) for row in rows]
    keys, terms, dets = [], [], []
    for m in index:
        red = _reduce_mod_phi(_lift(m, e), e)
        keys.append((1, red[0]) if not any(red[1:]) else (e, *red))
        terms.append(tuple((s, x) for s, x in enumerate(m) if x))
        dets.append(e // len(m) * sum(s * x for s, x in enumerate(m)) % e)
    return ids, index, keys, terms, dets


def _row_key(row, keys):
    """(degree, not trivial, per class the value's key), for a row of value
    ids: the identity's key is (1, degree)."""
    row = tuple(map(keys.__getitem__, row))
    return (row[0][1], 0 if all(key == (1, 1) for key in row) else 1, row)


def kernel_rows(table: "CharacterTable", positions):
    """The rows with N in their kernel, N normal in table.group, given as
    positions in its ``elements()``: G/N's irreducibles (Isaacs, Lemma 2.22).
    A row's identity slot holds its whole degree at each class N meets."""
    class_of = table.group.class_of()
    classes = {class_of[a] for a in positions}
    return [i for i, row in enumerate(table.vectors) if all(row[c][0] == row[0][0] for c in classes)]


def quotient_rows(table: "CharacterTable", kernel):
    """H/N's irreducibles: the `kernel_rows` of H's table, for N normal in
    H = table.group given as positions in its ``elements()``, so that row i
    of H/N's own table inflates to rows[i].

    Returns those rows in the order H/N's table sorts them, and the last
    class of H over each class of H/N, with no quotient group built.  The
    class of H/N over H's class c with representative r covers the classes
    r*N meets, and its order is the least k with r ** k in N.  They sort as
    `PermGroup.conjugacy_classes` sorts the image, by (order, size, least
    position), since cosets are numbered by their least position.  At an h
    of order o_h whose image has order o, a row folds to H/N as
    m_image[s] = m_H[s * o_h / o].
    """
    group, classes = table.group, table.classes
    cayley, class_of = group.cayley()[0], group.class_of()
    in_n = {class_of[a] for a in kernel}
    over, image = {}, {}
    for c, cls in enumerate(classes):
        if c not in image:
            # every class that r*N meets lies over the same class of H/N
            met = {class_of[cayley[cls.members[0]][n]] for n in kernel}
            o = next(k for k in range(1, cls.order + 1) if table.power_cycles[c][k % cls.order] in in_n)
            size = sum(classes[d].size for d in met) // len(kernel)
            image.update(dict.fromkeys(met, (o, size, min(classes[d].members[0] for d in met))))
        over[image[c]] = c
    image_classes = sorted(over)
    over = [over[key] for key in image_classes]
    rows = kernel_rows(table, kernel)
    if len(rows) != len(over):
        raise CharTableError("the rows with N in their kernel do not fit H/N")
    orders = [o for o, _, _ in image_classes]
    steps = [(c, classes[c].order // o) for c, o in zip(over, orders)]
    ids, _, keys, _, _ = _value_index(
        [[table.vectors[i][c][::j] for c, j in steps] for i in rows], lcm(*orders))
    order = sorted(range(len(rows)), key=lambda r: _row_key(ids[r], keys))
    return [rows[r] for r in order], over


def _format_value(key) -> str:
    """A value's key as an integer polynomial in z = zeta_e of degree below phi(e)."""
    parts = []
    for i, c in enumerate(key[1:]):
        if c:
            mag = str(abs(c)) if i == 0 else "" if abs(c) == 1 else "%d*" % abs(c)
            term = mag + ("" if i == 0 else "z" if i == 1 else "z^%d" % i)
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
    return " ".join(parts) or "0"


def _power_cycles(group: PermGroup, classes):
    """cycles[c][j] = class of rep_c ** j for 0 <= j < o(c), off the Cayley table."""
    table, class_of = group.cayley()[0], group.class_of()
    cycles = []
    for cls in classes:
        pos, cycle = 0, []
        for _ in range(cls.order):
            cycle.append(class_of[pos])
            pos = table[pos][cls.members[0]]
        cycles.append(tuple(cycle))
    return tuple(cycles)


# ----------------------------------------------------------------- the table


class CharacterTable:
    """Irreducible characters of a finite group, exact and canonically ordered."""

    def __init__(self, group: PermGroup):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.exponent = e = group.exponent()
        self.power_cycles = _power_cycles(group, self.classes)
        rows = _abelian_by_cyclic_rows(group, self.classes, e)
        if rows is None:
            rows = _dixon_schneider(group, self.classes, self.power_cycles)
        ids, self._index, self._keys, terms, dets = _value_index(rows, e)
        ids.sort(key=lambda row: _row_key(row, self._keys))
        self._ids = ids
        vectors = list(self._index)
        # row i at class c: sum_s vectors[i][c][s] * zeta_o ** s, o = len(vectors[i][c])
        self.vectors = tuple(tuple(map(vectors.__getitem__, row)) for row in ids)
        self._row_terms = [tuple(map(terms.__getitem__, row)) for row in ids]
        self.degrees = tuple(row[0][0] for row in self.vectors)
        # det of row i at class c is zeta_exp ** det_exponents[i][c]
        self.det_exponents = tuple(tuple(map(dets.__getitem__, row)) for row in ids)
        # each distinct vector is conjugated (s -> -s) once
        flip = [self._index.get(m[:1] + m[:0:-1]) for m in vectors]
        index = {row: i for i, row in enumerate(ids)}
        conj = [index.get(tuple(map(flip.__getitem__, row))) for row in ids]
        if None in conj:
            raise CharTableError("the conjugate of a row is not in the table")
        self.conj_rows = tuple(conj)
        self._verify(terms)
        # a linear row is its own determinant
        self.linear_row_of = {
            self.det_exponents[i]: i for i in self.linear_row_indices()
        }

    # construction checks -------------------------------------------------

    def _verify(self, terms):
        """Check the table; ``terms`` holds each value id's nonzero terms."""
        order, ids = self.group.order(), self._ids
        k = len(self.classes)
        if sum(d * d for d in self.degrees) != order:
            raise CharTableError("degree squares do not sum to the group order")
        if not all(m[0] == sum(m) == 1 for m in self.vectors[0]):
            raise CharTableError("first row is not the trivial character")
        # a row with one eigenvalue per class is linear: distinct linear
        # characters are orthonormal, so two such rows need no Gram sum
        single = [len(t) == 1 and t[0][1] == 1 for t in terms]
        linear = [all(map(single.__getitem__, row)) for row in ids]
        self._check_linear_rows([i for i in range(k) if linear[i]])
        for i in range(k):
            for j in range(i, k):
                if not (linear[i] and linear[j]):
                    got = self._gram(self._row_terms[i], self._row_terms[j])
                    if got != (order if i == j else 0):
                        raise CharTableError(
                            "row orthogonality fails at (%d, %d): %d/%d" % (i, j, got, order))
        # the Gram sums see only values: each must also be a multiplicity
        # vector, o(g) counts of eigenvalues summing to the row's degree
        sums = [sum(m) if min(m, default=-1) >= 0 else -1 for m in self._index]
        lengths, orders = [len(m) for m in self._index], tuple(cls.order for cls in self.classes)
        for row, d in zip(ids, self.degrees):
            if tuple(map(lengths.__getitem__, row)) != orders or {*map(sums.__getitem__, row)} != {d}:
                raise CharTableError("a value is not a multiplicity vector of the row's degree")
        # eigenvalues at g ** p are those at g to the p: slot s goes to s * p / gcd(p, o)
        for p in sorted(prime_factors(order)):
            pushed = []
            for m, ts in zip(self._index, terms):
                out = [0] * (len(m) // gcd(p, len(m)))
                for s, x in ts:
                    out[s * p % len(m) * len(out) // len(m)] += x
                pushed.append(self._index.get(tuple(out)))
            at = itemgetter(*[cycle[p % len(cycle)] for cycle in self.power_cycles])
            if any(at(row) != tuple(map(pushed.__getitem__, row)) for row in ids):
                raise CharTableError("a row does not follow the %d-power map" % p)

    def _check_linear_rows(self, rows):
        """Each of these rows, one eigenvalue per class, is a homomorphism to
        the e-th roots of unity, and no two are equal.  Its det d is a class
        function with d(x * s) = d(x) + d(s) mod e at every x and generator
        s, so d(1) = 0 and d(x * y) = d(x) + d(y) (Serre, Linear
        Representations of Finite Groups, 2.3)."""
        G, e, dets = self.group, self.exponent, self.det_exponents
        table, class_of = G.cayley()[0], G.class_of()
        for s, g in zip(G.generators, G.generator_positions()):
            pairs = {(class_of[x], class_of[xs[g]]) for x, xs in enumerate(table)}
            at, to = (itemgetter(*side) for side in zip(*pairs))  # two pairs at least
            for i in rows:
                d = dets[i]
                if not {*map(sub, to(d), at(d))} <= {d[class_of[g]], d[class_of[g]] - e}:
                    raise CharTableError(
                        "linear row %d is not a homomorphism at generator %s" % (i, format_perm(s)))
        seen = {}
        for i in rows:
            if seen.setdefault(dets[i], i) != i:
                raise CharTableError("linear rows %d and %d are equal" % (seen[dets[i]], i))

    def _gram(self, aterms, bterms) -> int:
        """|G| * <a, b> for two rows given by their nonzero terms per class."""
        e = self.exponent
        acc = [0] * e
        for cls, ta, tb in zip(self.classes, aterms, bterms):
            step = e // cls.order
            for t, y in tb:
                y *= cls.size
                for s, x in ta:
                    acc[(s - t) * step % e] += x * y
        red = _reduce_mod_phi(acc, e)
        if any(red[1:]):
            raise CharTableError("inner product is not rational")
        return red[0]

    # queries --------------------------------------------------------------

    def class_count(self) -> int:
        return len(self.classes)

    def decompose(self, functions):
        """Integer coordinates over the irreducibles of each class function.

        functions[f][c] = (a_0, ..., a_{n-1}), a tuple or list, stands for
        sum_s a_s * zeta_n ** s at class c, for an n that divides the class's
        element order.  Raises ValueError on malformed input and
        CharTableError unless every class function is exactly an integer
        combination of the rows.
        """
        k, classes, row_terms = len(self.classes), self.classes, self._row_terms
        # per class, each distinct input vector's lift to Z[x]/(x^o - 1)
        seen = [{} for _ in classes]
        given = []
        for vectors in functions:
            if len(vectors) != k:
                raise ValueError("%d values for %d classes" % (len(vectors), k))
            keys = []
            for value, cls, at in zip(vectors, classes, seen):
                v = tuple(value) if type(value) in (tuple, list) else ()
                if not v or cls.order % len(v) or not all(type(a) is int for a in v):
                    raise ValueError("value at class %s: %r" % (format_perm(cls.rep), value))
                if v not in at:
                    at[v] = _lift(v, cls.order)
                keys.append(v)
            given.append(keys)
        phis = [len(cyclotomic_polynomial(cls.order)) - 1 for cls in classes]
        den = lcm(*phis)
        # each distinct vector's dot products with the rows at its class: the
        # input's weight against slot t of a row's vector at c, summed over t
        dots = [{} for _ in classes]
        for c, (cls, at, phi) in enumerate(zip(classes, seen, phis)):
            n, scale, weights = cls.order, cls.size * (den // phi), _ramanujan(cls.order)
            for v, vec in at.items():
                nonzero = [(s, a * scale) for s, a in enumerate(vec) if a]
                if nonzero:
                    w = [sum(a * weights[(s - t) % n] for s, a in nonzero) for t in range(n)]
                    dots[c][v] = [sum(x * w[t] for t, x in terms[c]) for terms in row_terms]
        quotient = self.group.order() * den
        out = []
        for keys in given:
            nums = [0] * k
            for v, at in zip(keys, dots):
                if v in at:
                    nums = list(map(add, nums, at[v]))
            if any(num % quotient for num in nums):
                raise CharTableError("values are not a generalized character")
            coords = tuple(num // quotient for num in nums)
            # re-expand sum_j a_j chi_j and compare with the input modulo Phi_o
            used = [(a, terms) for a, terms in zip(coords, row_terms) if a]
            for c, (v, cls, at) in enumerate(zip(keys, classes, seen)):
                acc = [0] * cls.order
                for a, terms in used:
                    for s, x in terms[c]:
                        acc[s] += a * x
                if acc != at[v] and any(_reduce_mod_phi(map(sub, acc, at[v]), cls.order)):
                    raise CharTableError("values are not a generalized character")
            out.append(coords)
        return tuple(out)

    def linear_row_indices(self):
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)

    # rendering ------------------------------------------------------------

    def formatted_rows(self):
        """Each row's values as integer polynomials in z = zeta_exp."""
        text = [_format_value(key) for key in self._keys]
        return [[text[v] for v in row] for row in self._ids]

    def format_text(self) -> str:
        headers = ["chi"] + [
            "%s(%d)" % (format_perm(c.rep), c.size) for c in self.classes
        ]
        body = [["X%d" % i] + row for i, row in enumerate(self.formatted_rows())]
        widths = [
            max(len(r[c]) for r in [headers] + body) for c in range(len(headers))
        ]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
            for cells in [headers] + body
        ]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def _linear_chars(table, gens, e):
    """Abelian A = <gens>: its elements (identity first) and chi_i(elts[j]) = zeta_e ** chars[i][j].

    A character chi of H extends to <H, g> in m = |<H, g> : H| ways (Isaacs,
    Ch. 2): chi'(g) = zeta_e ** t with m * t = chi(g ** m) mod e, e = exp(G),
    so t = chi(g ** m) / m + j * e / m, and chi'(h * g ** i) = chi(h) * chi'(g) ** i.
    """
    elts, chars = [0], [[0]]
    for g in gens:
        where = {x: j for j, x in enumerate(elts)}
        powers = [0, g]
        while powers[-1] not in where:
            powers.append(table[powers[-1]][g])
        m, at = len(powers) - 1, where[powers.pop()]
        if m > 1:
            elts = [table[h][p] for p in powers for h in elts]
            chars = [[(v + i * t) % e for i in range(m) for v in chi]
                     for chi in chars for t in range(chi[at] // m, e, e // m)]
    return elts, chars


def _abelian_by_cyclic(group):
    """(generators of A, g, |G : A|) for an abelian normal A with G/A = <gA>, or None.

    An abelian G is A = G with g = 1.  Otherwise A grows from G' = <[x, s]>,
    s a generator, by each element in (descending element order, position)
    order that commutes with it: maximal abelian over G', so normal.  g is
    the first element in that order with <A, g> = G.
    """
    table, inverse, orders = group.cayley()
    gens = list(group.generator_positions())
    if len(group.conjugacy_classes()) == len(table):
        return gens, 0, 1
    sub, derived = frozenset([0]), []
    ranked = sorted(range(len(table)), key=orders.__getitem__, reverse=True)
    commutators = [table[inverse[table[s][x]]][table[x][s]] for x in ranked for s in gens]
    # sub stays abelian, so it holds all the commutators only if G' is abelian
    for x in commutators + ranked:
        if x not in sub and all(table[x][y] == table[y][x] for y in derived):
            sub = extend_subgroup(table, sub, derived, x)
            derived.append(x)
    if not sub.issuperset(commutators):
        return None
    for x in ranked:
        if x not in sub and len(extend_subgroup(table, sub, derived, x)) == len(table):
            return derived, x, len(table) // len(sub)
    return None


def _abelian_by_cyclic_rows(group, classes, e):
    """The rows of a group with an abelian normal A and G/A cyclic, one tuple
    per class, or None when `_abelian_by_cyclic` finds no such A.

    Write G/A = <gA> of order n and each element as a * g ** k, 0 <= k < n.
    Let lambda in Irr(A) have a <g>-orbit of size t, and T = A<g ** t> its
    stabilizer.  lambda extends to T in n/t ways, psi(a * g ** (t k)) =
    lambda(a) * zeta_e ** (k u) with (n/t) * u = lambda(g ** n) mod e, and
    each chi = Ind_T^G psi is irreducible, one per orbit and extension
    (Isaacs, Thm 6.11 and Cor 11.22).  An x = a * g ** j of order o has
    <x>-orbits of size r = t / gcd(j, t) on G/T, one through each g ** i
    T, i < gcd(j, t) (Mackey); on that orbit rho(x) has the r-th roots of
    psi(g ** -i * x ** r * g ** i) = zeta_o ** b as eigenvalues, so slots
    b/r + k * o/r, k < r, each gain 1.
    """
    if (found := _abelian_by_cyclic(group)) is None:
        return None
    (gens, g, n), (table, inverse) = found, group.cayley()[:2]
    elts, chars = _linear_chars(table, gens, e)
    powers = list(accumulate(range(n), lambda p, _: table[p][g], initial=0))
    coset = {table[a][p]: (j, k) for k, p in enumerate(powers[:n]) for j, a in enumerate(elts)}
    # one lambda per <g>-orbit; a lambda is known by its values at A's generators
    at = [coset[x][0] for x in gens]
    moved = [coset[table[table[g][x]][inverse[g]]][0] for x in gens]
    where = {tuple([chi[a] for a in at]): i for i, chi in enumerate(chars)}
    orbits = []
    for i, chi in enumerate(chars):
        orbit = [i]
        while (j := where[tuple([chars[orbit[-1]][a] for a in moved])]) != i:
            orbit.append(j)
        if i == min(orbit):
            orbits.append((chi, len(orbit)))

    @cache
    def roots(o, r):
        """Per b // r, the r-th roots of zeta_o ** b = zeta_e ** E at slots b/r mod o/r."""
        return [((0,) * q + (1,) + (0,) * (o // r - q - 1)) * r for q in range(o // r)]

    @cache
    def points(t):
        """Per class, (j, k / t, roots, e / o * r) of each g ** -i * x ** r * g ** i =
        elts[j] * g ** k: every class's first point, then the classes with more."""
        out = []
        for cls in classes:
            x, d = cls.members[0], gcd(coset[cls.members[0]][1], t)
            y = reduce(lambda y, _: table[y][x], range(t // d - 1), x)
            pts = [coset[table[table[inverse[p]][y]][p]] for p in powers[:d]]
            f, step = roots(cls.order, t // d), e // cls.order * (t // d)
            out.append([(j, k // t, f, step) for j, k in pts])
        return [pts[0] for pts in out], [(c, pts) for c, pts in enumerate(out) if len(pts) > 1]

    rows = []
    for chi, t in orbits:
        first, more = points(t)
        for u in range(chi[coset[powers[n]][0]] // (n // t), e, e // (n // t)):
            row = [f[(chi[j] + k * u) % e // step] for j, k, f, step in first]
            for c, pts in more:
                hist = [0] * len(pts[0][2])
                for j, k, f, step in pts:
                    hist[(chi[j] + k * u) % e // step] += 1
                row[c] = tuple(hist) * (len(f[0]) // len(hist))  # r copies
            rows.append(tuple(row))
    return rows


def _dixon_schneider(group, classes, cycles):
    """Rows of eigenvalue multiplicity vectors, one tuple per class, of a
    non-trivial group (for exp(G) = 1 `_choose_prime` finds no prime), given
    its power cycles: cycles[c][-1] is the class of rep_c's inverse."""
    order = group.order()
    k = len(classes)
    exponent = group.exponent()
    l = _choose_prime(order, exponent)
    root = primitive_root(l)
    zgen = pow(root, (l - 1) // exponent, l)  # fixed element of order exp(G)

    cayley = group.cayley()
    table, inverse = cayley.table, cayley.inverse
    class_of = group.class_of()
    reps = [c.members[0] for c in classes]
    sizes = [c.size for c in classes]

    # class matrices: (A_i)[j][t] = #{x in C_i : x^{-1} * rep_t in C_j},
    # each row kept as its nonzero (t, count) pairs
    def class_matrix(i):
        a = [{} for _ in range(k)]
        inverses = [table[inverse[x]] for x in classes[i].members]
        for t in range(k):
            z = reps[t]
            for row in inverses:
                counts = a[class_of[row[z]]]
                counts[t] = counts.get(t, 0) + 1
        return [list(counts.items()) for counts in a]

    # split the common eigenspaces
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for i in range(1, k):
        if all(len(s) == 1 for s in spaces):
            break
        a = None
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            if a is None:
                a = class_matrix(i)
            rows, pivots = _rref(basis, l)
            images = [_matvec(a, v, l) for v in rows]
            columns = list(zip(*rows))
            # restricted matrix: coordinates of each image in the basis
            b = []
            for img in images:
                coords = [img[c] % l for c in pivots]
                check = [
                    (x - sum(map(mul, coords, col))) % l for col, x in zip(columns, img)
                ]
                if any(check):
                    raise CharTableError("class matrix does not preserve eigenspace")
                b.append(coords)
            bt = [[b[r][c] for r in range(len(b))] for c in range(len(b))]
            # the eigenvalues are the lam in F_l whose B - lam*I has a
            # nonzero kernel, taken in increasing order until they fill it
            found = 0
            for lam in range(l):
                shifted = [
                    [(bt[r][c] - (lam if r == c else 0)) % l for c in range(len(bt))]
                    for r in range(len(bt))
                ]
                eigenspace = []
                for kern in _kernel_mod(shifted, l):
                    vec = [0] * k
                    for coord, row in zip(kern, rows):
                        if coord:
                            for idx in range(k):
                                vec[idx] = (vec[idx] + coord * row[idx]) % l
                    eigenspace.append(vec)
                if eigenspace:
                    new_spaces.append(eigenspace)
                    found += len(eigenspace)
                    if found == len(bt):
                        break
        total = sum(len(s) for s in new_spaces)
        if total != k:
            raise CharTableError("eigenspace splitting does not cover the space")
        spaces = new_spaces
    if not all(len(s) == 1 for s in spaces):
        raise CharTableError("class-matrix eigenspaces failed to split")

    # Fourier inversion over the power maps, with each element order's
    # table of powers of z_o = zgen ** (exp / o) computed once
    inversion = {}
    for o in {c.order for c in classes}:
        powers = [pow(zgen, exponent // o * i, l) for i in range(o)]
        rows = tuple([powers[-j * s % o] for j in range(o)] for s in range(o))
        inversion[o] = (rows, pow(o, l - 2, l))
    inv_mod = {x: pow(x, l - 2, l) for x in set(sizes)}
    rows_out = []
    for (w,) in spaces:
        if w[0] == 0:
            raise CharTableError("eigenvector vanishes at the identity class")
        scale = pow(w[0], l - 2, l)
        w = [x * scale % l for x in w]
        # degree from sum over classes of w(c) w(c*) / |C_c|
        s = 0
        for c in range(k):
            s = (s + w[c] * w[cycles[c][-1]] * inv_mod[sizes[c]]) % l
        if s == 0:
            raise CharTableError("degree denominator vanished")
        d2 = order * pow(s, l - 2, l) % l
        degree = next((d for d in range(1, isqrt(order) + 1) if d * d % l == d2), None)
        if degree is None:
            raise CharTableError("no integer degree matches modulo l")
        # character values mod l, then the exact multiplicities m_s of the
        # eigenvalues zeta_o ** s at each class, which `_verify` checks
        chi_mod = [degree * w[c] * inv_mod[sizes[c]] % l for c in range(k)]
        row = []
        for cycle in cycles:
            dft, inv_o = inversion[len(cycle)]
            m = tuple(sum(map(mul, [chi_mod[c] for c in cycle], f)) * inv_o % l for f in dft)
            row.append(m)
        rows_out.append(tuple(row))
    return rows_out


@per_group
def character_table(G: PermGroup) -> CharacterTable:
    return CharacterTable(G)
