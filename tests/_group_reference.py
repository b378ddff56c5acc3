"""Reference element listing: a deterministic Schreier–Sims stabilizer chain.

The package lists a group's elements by a breadth-first closure over its
generators; this chain is the independent path the differential tests
compare it with, and the exact order of a group too large to list.
"""

from _perm_reference import identity, inverse, mul


def stabilizer_chain(gens, degree):
    """Deterministic stabilizer chain: list of {point, gens, trans} levels."""
    levels = []

    def first_moved(g):
        for i, j in enumerate(g.images):
            if i != j:
                return i
        raise AssertionError("identity has no moved point")

    def insert(g):
        """Record g as a strong generator; returns its fixed-prefix depth."""
        j = 0
        while True:
            if j == len(levels):
                levels.append({"point": first_moved(g), "gens": [], "trans": None})
                break
            if g.images[levels[j]["point"]] == levels[j]["point"]:
                j += 1
            else:
                break
        for lvl in range(j + 1):
            levels[lvl]["gens"].append(g)
            levels[lvl]["trans"] = None
        return j

    def orbit(level):
        if level["trans"] is not None:
            return level["trans"]
        b = level["point"]
        trans = {b: identity(degree)}
        frontier = [b]
        while frontier:
            new = []
            for p in frontier:
                u = trans[p]
                for s in level["gens"]:
                    q = s.images[p]
                    if q not in trans:
                        trans[q] = mul(u, s)
                        new.append(q)
            frontier = new
        level["trans"] = trans
        return trans

    def strip(g, start):
        for idx in range(start, len(levels)):
            lv = levels[idx]
            q = g.images[lv["point"]]
            u = orbit(lv).get(q)
            if u is None:
                return g
            g = mul(g, inverse(u))
        return g

    for g in gens:
        if not g.is_identity():
            insert(g)

    i = len(levels) - 1
    while i >= 0:
        trans = orbit(levels[i])
        new_depth = None
        for p in sorted(trans):
            u_p = trans[p]
            for s in levels[i]["gens"]:
                q = s.images[p]
                schreier = mul(u_p, s, inverse(trans[q]))
                if schreier.is_identity():
                    continue
                residue = strip(schreier, i + 1)
                if residue.is_identity():
                    continue
                new_depth = insert(residue)
                break
            if new_depth is not None:
                break
        if new_depth is None:
            i -= 1
        else:
            i = new_depth
    for level in levels:
        orbit(level)
    return levels


def family_tokens(limit):
    """Every valid family token with its number at most limit."""
    tokens = ["%s%d" % (letter, n) for letter in "CSA" for n in range(1, limit + 1)]
    tokens += ["D%d" % n for n in range(2, limit + 1, 2)] + ["Q8"]
    tokens += ["F%d:%d" % (p, k) for p in (3, 5, 7, 11) if p <= limit
               for k in range(1, p) if (p - 1) % k == 0]
    return tokens


def chain_order(gens, degree) -> int:
    n = 1
    for lv in stabilizer_chain(gens, degree):
        n *= len(lv["trans"])
    return n


def chain_elements(gens, degree) -> tuple:
    """All elements, sorted; the identity is first."""
    elts = [identity(degree)]
    for lv in reversed(stabilizer_chain(gens, degree)):
        trans = [lv["trans"][p] for p in sorted(lv["trans"])]
        elts = [mul(h, u) for h in elts for u in trans]
    elts.sort(key=lambda p: p.images)
    return tuple(elts)
