"""The benchmark's three workloads: set-up, one pass of timed items, and output checks.

Every workload calls the package through its modules (``pi.chartab.character_table``
rather than an imported name), so that a tracer that swaps module attributes sees
the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from functools import partial
from itertools import zip_longest

FLAVOR = "thm12"
BOUND = 4
DEFAULT_SEED = 0

# SHA-256 of each workload's canonical output at DEFAULT_SEED.  Other seeds get
# the exact checks only.
PINNED = {
    "catalog_sweep": "db660aa3baf539b984b05487d5e28dd76bdf91ba72aa9ad6c9cded5dea8f2beb",
    "target_stream": "b3af1c7176b9b2fb97b2cb3fefbd8ed6f60d1e1b38683476bd4453543e52491b",
    "char_algebra": "f6bae886a5b3d92a5276c4878bea9edd792a45762cab76e3d132f826e50be76b",
}


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class Pass:
    """Latency and failure of every item in one pass; item spans go to the tracer if any.

    Set-ups time their steps as strict items, whose exceptions end the set-up.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.intervals = []  # (start, end) of every item
        self.failures = []

    def item(self, item_id, work, strict=False):
        token = self.tracer.begin_item(item_id) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            return work()
        except Exception:  # one failed item is reported, the pass goes on
            if strict:
                raise
            self.failures.append((item_id, traceback.format_exc()))
            return None
        finally:
            end = time.perf_counter()
            self.intervals.append((start, end))
            if token is not None:
                self.tracer.end_item(token)


class Check:
    """Exact checks on a pass's outputs and the digest of its canonical JSON."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.problems = []
        self.counters = {}

    def expect(self, ok, item_id, what):
        if not ok:
            self.problems.append((item_id, what))

    def add(self, text: str):
        self.sha.update(text.encode("utf-8"))

    def digest(self) -> str:
        return self.sha.hexdigest()

    def count(self, name, value, combine=sum):
        old = self.counters.get(name)
        self.counters[name] = value if old is None else combine((old, value))

    def certificate(self, item_id, family, terms, rho):
        """Re-expand (generator id, coefficient) terms exactly and compare with rho."""
        total = [0] * len(rho.coeffs)
        for gen_id, coeff in terms:
            expansion = family.by_id(gen_id).expansion.coeffs
            total = [t + coeff * e for t, e in zip(total, expansion)]
        ok = tuple(total) == rho.coeffs
        self.expect(ok, item_id, "certificate does not re-expand to rho")
        self.count("certified", int(ok))
        self.count("membership.cert_l1_max", sum(abs(c) for _, c in terms), max)


def build_counters(pi, groups, chk):
    """Structural sizes of the cached build layers of each group."""
    for G in groups:
        family = pi.generators.family_for(G, FLAVOR)
        chk.count("chartab.classes", pi.chartab.character_table(G).class_count())
        chk.count("lattice.subgroup_classes", len(pi.lattice.subgroup_lattice(G).records))
        chk.count("structure.subquotients", len(pi.structure.dihedral_subquotients(G)))
        chk.count("generators.generators", len(family))
        res = family.hnf()
        if res is None:
            continue
        chk.count("intlinalg.hnf_rank", res.rank)
        chk.count("intlinalg.h_max_bits", max(abs(x).bit_length() for row in res.h for x in row), max)
        chk.count("intlinalg.u_max_bits", max(abs(x).bit_length() for row in res.u for x in row), max)


def build_layers(pi, G):
    """The build layers in dependency order, each its own public call."""
    pi.group.conjugacy_classes(G)
    pi.chartab.character_table(G)
    pi.lattice.subgroup_lattice(G)
    pi.structure.dihedral_subquotients(G)
    return pi.generators.family_for(G, FLAVOR).hnf()


def round_robin(queues):
    """One item from each queue in turn, so that every group's items spread over the pass
    and a burst of machine noise does not land on one group's items alone."""
    return [job for batch in zip_longest(*queues) for job in batch if job is not None]


def tree_shape(node, depth=1):
    """(node count, depth) of a structural tree."""
    nodes, deepest = 1, depth
    for child in node.children:
        n, d = tree_shape(child, depth + 1)
        nodes += n
        deepest = max(deepest, d)
    return nodes, deepest


class CatalogSweep:
    """Cold ``verify`` over the bundled catalog: every layer is built in the pass."""

    name = "catalog_sweep"
    cold = True
    setups = 5
    samples = 20

    def __init__(self, pi, seed):
        self.pi = pi
        self.seed = seed

    def setup(self, rec):
        return rec.item("catalog", self.pi.catalog.load_bundled_catalog, strict=True)

    def groups(self, entries):
        return [e.group for e in entries]

    def _certify(self, entry):
        pi = self.pi
        build_layers(pi, entry.group)
        report = pi.spanreport.span_report(
            entry.group, FLAVOR, name=entry.name, samples=self.samples, seed=self.seed, bound=BOUND
        )
        return report.to_json()

    def run_pass(self, entries, rec):
        docs = [rec.item(entry.name, partial(self._certify, entry)) for entry in entries]
        good = [d for d in docs if d is not None]
        certified = sum(1 for d in good if d["all_certified"])
        doc = {
            "flavor": FLAVOR,
            "max_order": 128,
            "samples": self.samples,
            "seed": self.seed,
            "reports": good,
            "certified_groups": certified,
            "total_groups": len(good),
        }
        # The bytes `parity-inductor verify --format json --seed S` writes.
        return docs, json.dumps(doc, indent=2) + "\n"

    def check(self, entries, outputs, chk):
        pi = self.pi
        docs, payload = outputs
        for entry, doc in zip(entries, docs):
            if doc is None:
                continue
            G = entry.group
            family = pi.generators.family_for(G, FLAVOR)
            records = pi.lattice.subgroup_lattice(G).records
            chk.expect(doc["all_certified"], entry.name, "not all targets certified")
            chk.expect(len(doc["subgroups"]) == len(records), entry.name, "subgroup count")
            chk.expect(len(doc["samples"]) == self.samples, entry.name, "sample count")
            for record, result in zip(records, doc["subgroups"]):
                chk.certificate(entry.name, family, result["terms"], pi.genchar.rho_H(G, record))
            for result in doc["samples"]:
                rho = pi.membership.random_S_element(G, result["seed"], result["bound"])
                chk.certificate(entry.name, family, result["terms"], rho)
            chk.count("targets", len(doc["subgroups"]) + len(doc["samples"]))
        chk.add(payload)


TARGET_GROUPS = (
    ("C2^3", "(1 2),(3 4),(5 6)"),
    ("D8xC2", "(1 2 3 4),(1 3),(5 6)"),
    ("S4xC2", "(1 2 3 4),(1 2),(5 6)"),
    ("D64", "D64"),
)


class TargetStream:
    """Warm solves: every rho_H and seeded random targets on groups with large families."""

    name = "target_stream"
    cold = False
    setups = 2
    samples_per_group = 8

    def __init__(self, pi, seed):
        self.pi = pi
        self.seed = seed

    def setup(self, rec):
        pi = self.pi
        groups = []
        for name, spec in TARGET_GROUPS:
            G = pi.groupspec.parse_group_spec(spec)
            rec.item(name, partial(build_layers, pi, G), strict=True)
            for record in pi.lattice.subgroup_lattice(G).records:
                rec.item(name, partial(pi.genchar.rho_H, G, record), strict=True)
            rec.item(name, partial(pi.membership.random_S_element, G, 0, BOUND), strict=True)
            groups.append((name, G))
        return groups

    def groups(self, state):
        return [G for _, G in state]

    def _solve(self, name, family, target):
        pi = self.pi
        rho = target()
        cert = pi.membership.membership_solve(rho, family)
        verified = pi.membership.verify_certificate(cert)
        doc = pi.membership.certificate_to_json(cert, name)
        back = pi.membership.certificate_from_json(doc, family)
        return rho, cert, verified, doc, back, pi.membership.verify_certificate(back)

    def run_pass(self, state, rec):
        pi = self.pi
        queues = []
        for name, G in state:
            family = pi.generators.family_for(G, FLAVOR)
            jobs = [
                ("%s rho[%s]" % (name, record.label), name, family,
                 partial(pi.genchar.rho_H, G, record))
                for record in pi.lattice.subgroup_lattice(G).records
            ]
            jobs += [
                ("%s sample %d" % (name, s), name, family,
                 partial(pi.membership.random_S_element, G, s, BOUND))
                for s in range(self.seed * 100, self.seed * 100 + self.samples_per_group)
            ]
            queues.append(jobs)
        out = []
        for label, name, family, target in round_robin(queues):
            work = partial(self._solve, name, family, target)
            out.append((label, family, rec.item(label, work)))
        return out

    def check(self, state, outputs, chk):
        for label, family, result in outputs:
            if result is None:
                continue
            rho, cert, verified, doc, back, back_verified = result
            chk.expect(verified and back_verified, label, "certificate failed verification")
            chk.expect(cert.target == rho, label, "certificate target is not rho")
            chk.expect(back.terms == cert.terms and back.target == rho, label, "JSON round trip")
            terms = [(family.generators[i].gen_id, c) for i, c in cert.terms]
            chk.certificate(label, family, terms, rho)
            chk.count("targets", 1)
            chk.add(canonical({"item": label, "certificate": doc}))


ALGEBRA_GROUPS = (
    "C2xC2", "Q8", "D8", "C2xC2xC2", "D16", "C12", "C15", "F7:3",
    "D12", "D18", "D20", "F5:4", "A4", "S4", "SL(2,3)", "F7:6",
)


class CharAlgebra:
    """Warm virtual-character algebra: structural trees, determinants, induce/restrict, parity."""

    name = "char_algebra"
    cold = False
    setups = 2

    def __init__(self, pi, seed):
        self.pi = pi
        self.seed = seed

    def setup(self, rec):
        pi = self.pi
        catalog = rec.item("catalog", pi.catalog.load_bundled_catalog, strict=True)
        by_name = {e.name: e.group for e in catalog}
        groups = [(name, by_name[name]) for name in ALGEBRA_GROUPS]
        for name, G in groups:
            rec.item(name, partial(build_layers, pi, G), strict=True)
        # The warm-up pass, a step of the set-up, fills the caches; its
        # failures show in the timed passes.
        self.run_pass(groups, rec)
        return groups

    def groups(self, state):
        return [G for _, G in state]

    def _tau(self, table, rng):
        """A seeded symmetric degree-0 character: sum of c*(psi + conj(psi) - 2*deg(psi))."""
        coeffs = [0] * table.class_count()
        for _ in range(2):
            i = rng.randrange(table.class_count())
            c = rng.choice((-2, -1, 1, 2))
            coeffs[i] += c
            coeffs[table.conj_rows[i]] += c
            coeffs[0] -= 2 * c * table.degrees[i]
        return self.pi.genchar.GenChar(table, coeffs)

    def _pair(self, G, record, rng):
        pi = self.pi
        genchar = pi.genchar
        rho = genchar.rho_H(G, record)
        tree = pi.decompose.decompose_structural(G, rho)
        cert = pi.decompose.flatten_to_certificate(tree)
        verified = pi.membership.verify_certificate(cert)
        det_row = genchar.determinant(genchar.perm_char(G, record)).row
        tau = self._tau(pi.chartab.character_table(record.as_group()), rng)
        up = genchar.induce(record, tau)
        trivial = genchar.has_trivial_determinant(up)
        down = genchar.restrict(up, record)
        return rho, tree, cert, verified, det_row, tau, up, trivial, down

    def _parity(self, G):
        pi = self.pi
        return pi.parity.parity_table(G, pi.parity.full_assignment(G, FLAVOR), FLAVOR)

    def run_pass(self, state, rec):
        pi = self.pi
        rng = random.Random(self.seed)
        queues = []
        for name, G in state:
            jobs = [
                ("%s %s" % (name, record.label), partial(self._pair, G, record, rng))
                for record in pi.lattice.subgroup_lattice(G).records
            ]
            jobs.append(("%s parity" % name, partial(self._parity, G)))
            queues.append(jobs)
        return [(label, rec.item(label, work)) for label, work in round_robin(queues)]

    def check(self, state, outputs, chk):
        for label, result in outputs:
            if result is None:
                continue
            if label.endswith(" parity"):
                rows = result.rows
                chk.expect(all(row.value == 1 for row in rows), label, "parity row is not +1")
                chk.count("parity.rows", len(rows))
                chk.add(canonical({"item": label, "parity": result.to_json()}))
                continue
            rho, tree, cert, verified, det_row, tau, up, trivial, down = result
            family = cert.family
            chk.expect(verified, label, "flattened certificate failed verification")
            chk.expect(cert.target == rho, label, "certificate target is not rho")
            terms = [(family.generators[i].gen_id, c) for i, c in cert.terms]
            chk.certificate(label, family, terms, rho)
            chk.expect(trivial, label, "induced tau has non-trivial determinant")
            chk.expect(up.degree == 0 and down.degree == 0, label, "induce/restrict changed degree")
            nodes, depth = tree_shape(tree)
            chk.count("decompose.tree_nodes", nodes)
            chk.count("decompose.tree_depth_max", depth, max)
            chk.count("targets", 1)
            chk.add(canonical({
                "item": label,
                "tree": self.pi.decompose.tree_to_json(tree),
                "certificate": terms,
                "det_row": det_row,
                "tau": list(tau.coeffs),
                "induced": list(up.coeffs),
                "restricted": list(down.coeffs),
            }))


WORKLOADS = {w.name: w for w in (CatalogSweep, TargetStream, CharAlgebra)}
