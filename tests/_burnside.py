"""Independent numeric-then-exact character table oracle for small groups.

Splits the commuting class matrices with numpy on a random combination,
reconstructs every character value exactly as an integer combination of
roots of unity (rounding catches numeric fuzz), then verifies the exact
table before handing it out.  Shares only the permutation group with the
production path: its values are the reference `Cyclo`.
"""

import numpy as np

from _cyclo_reference import Cyclo
from _perm_reference import mul


def _class_data(G):
    elts = G.elements()
    index = {p: i for i, p in enumerate(elts)}
    classes = G.conjugacy_classes()
    class_of = [0] * len(elts)
    for ci, c in enumerate(classes):
        for m in c.members:
            class_of[m] = ci
    return elts, index, classes, class_of


def _class_matrices(G):
    """Structure constants by the naive pair loop: a[i][j][t]*|C_t| pairs."""
    elts, index, classes, class_of = _class_data(G)
    k = len(classes)
    mats = [np.zeros((k, k)) for _ in range(k)]
    for i in range(k):
        xs = [elts[m] for m in classes[i].members]
        for j in range(k):
            ys = [elts[m] for m in classes[j].members]
            counts = [0] * k
            for x in xs:
                for y in ys:
                    counts[class_of[index[mul(x, y)]]] += 1
            for t in range(k):
                size = classes[t].size
                assert counts[t] % size == 0
                mats[i][j][t] = counts[t] // size
    return mats


def burnside_character_rows(G, seed=0):
    """Exact character table rows (tuples of Cyclo), oracle construction."""
    elts, index, classes, class_of = _class_data(G)
    k = len(classes)
    order = G.order()
    if k == 1:
        return [(Cyclo.rational(1),)]
    mats = _class_matrices(G)
    rng = np.random.default_rng(seed)
    for _ in range(32):
        combo = sum(float(c) * m for c, m in zip(rng.normal(size=k), mats))
        eigvals, eigvecs = np.linalg.eig(combo)
        gaps = [
            abs(a - b)
            for i, a in enumerate(eigvals)
            for b in eigvals[i + 1 :]
        ]
        if min(gaps) > 1e-6:
            break
    else:
        raise AssertionError("no well-separated eigenbasis found")

    numeric_rows = []
    for t in range(k):
        v = eigvecs[:, t]
        pivot = int(np.argmax(np.abs(v)))
        omega = []
        for i in range(k):
            av = mats[i] @ v
            omega.append(av[pivot] / v[pivot])
        omega = np.array(omega)
        inv_sizes = np.array([1.0 / c.size for c in classes])
        s = float(np.sum(np.abs(omega) ** 2 * inv_sizes).real)
        d = np.sqrt(order / s)
        chi = d * omega * inv_sizes
        numeric_rows.append(chi)

    exact_rows = []
    for chi in numeric_rows:
        degree = int(round(chi[0].real))
        assert abs(chi[0] - degree) < 1e-6 and degree >= 1
        row = []
        for c in range(k):
            o = classes[c].order
            g = classes[c].rep
            powers = []
            p = g
            for _ in range(o):
                powers.append(chi[class_of[index[p]]])
                p = mul(p, g)
            # powers[j-1] = chi(g^j); chi(g^0) = degree
            value = Cyclo.rational(0)
            total = 0
            for s_exp in range(o):
                acc = complex(degree)
                for j in range(1, o):
                    acc += powers[j - 1] * np.exp(-2j * np.pi * j * s_exp / o)
                m = acc / o
                mi = int(round(m.real))
                assert abs(m - mi) < 1e-6 and mi >= 0
                total += mi
                if mi:
                    value = value + Cyclo.zeta(o, s_exp) * mi
            assert total == degree
            row.append(value)
        exact_rows.append(tuple(row))

    # exact verification of the reconstructed table
    assert sum(int(r[0].to_fraction()) ** 2 for r in exact_rows) == order
    for i in range(k):
        for j in range(i, k):
            acc = Cyclo.rational(0)
            for c in range(k):
                acc = acc + exact_rows[i][c] * exact_rows[j][c].conj() * classes[c].size
            want = order if i == j else 0
            assert acc == want
    return exact_rows
