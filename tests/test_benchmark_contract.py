"""The package surface that the benchmark under ``perfbench/`` calls.

The benchmark runs against whatever ``src/`` holds, so a rename there (a traced
layer, ``GeneratorFamily.hnf`` or the fields of its result) would only show as
a failed benchmark run.  These checks catch it in the test suite instead.
"""

import ast
import importlib
import importlib.util
import pkgutil
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import parity_inductor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("_perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _package():
    """The package's modules as attributes, the way the benchmark passes them."""
    names = [m.name for m in pkgutil.iter_modules(parity_inductor.__path__)]
    return SimpleNamespace(
        **{name: importlib.import_module("parity_inductor." + name) for name in names}
    )


def _catalog(pi):
    return {e.name: e.group for e in pi.catalog.load_bundled_catalog()}


def test_every_traced_layer_resolves_to_a_callable():
    for name, module, attr in tracing.LAYERS:
        obj = importlib.import_module("parity_inductor." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _dotted(node):
    """The names of an attribute chain rooted at a plain name, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _package_chains(path):
    """Every ``pi.<module>.<attr>...`` chain the file uses, as (module, attrs).

    ``pi`` is the package namespace the workloads receive, also reached as
    ``self.pi``; a local bound to ``pi.<module>`` (``genchar = pi.genchar``)
    counts as that module.
    """
    tree = ast.parse(path.read_text())

    def rooted(parts):
        if parts and parts[0] == "self":
            parts = parts[1:]
        if parts and parts[0] == "pi":
            return parts[1:]
        if parts and parts[0] in aliases:
            return [aliases[parts[0]], *parts[1:]]
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            rest = rooted(_dotted(node.value))
            if rest is not None and len(rest) == 1:
                aliases[node.targets[0].id] = rest[0]
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            rest = rooted(_dotted(node))
            if rest is not None and len(rest) >= 2:
                chains.add((rest[0], tuple(rest[1:])))
    return chains


def test_every_package_name_the_workloads_use_exists():
    chains = _package_chains(PERFBENCH / "workloads.py")
    # the scan sees the plain, the ``self.pi`` and the aliased spellings
    assert {
        ("membership", ("membership_solve",)),
        ("genchar", ("GenChar",)),
        ("genchar", ("induce",)),
    } <= chains
    for module, attrs in sorted(chains):
        obj = importlib.import_module("parity_inductor." + module)
        for attr in attrs:
            assert hasattr(obj, attr), "pi.%s.%s" % (module, ".".join(attrs))
            obj = getattr(obj, attr)


def test_build_counters_on_an_empty_and_a_nonempty_family():
    pi = _package()
    groups = _catalog(pi)
    chk = workloads.Check()
    workloads.build_counters(pi, [groups["C1"], groups["D6"]], chk)
    family = pi.generators.family_for(groups["D6"], workloads.FLAVOR)
    assert pi.generators.family_for(groups["C1"], workloads.FLAVOR).hnf() is None
    assert chk.counters["generators.generators"] == len(family) > 0
    assert chk.counters["intlinalg.hnf_rank"] == family.hnf().rank > 0
    assert chk.counters["intlinalg.h_max_bits"] > 0
    assert chk.counters["intlinalg.u_max_bits"] > 0


def test_target_stream_solve_verifies_and_round_trips():
    pi = _package()
    G = _catalog(pi)["D6"]
    family = pi.generators.family_for(G, workloads.FLAVOR)
    record = pi.lattice.subgroup_lattice(G).records[1]
    stream = workloads.TargetStream(pi, workloads.DEFAULT_SEED)
    target = partial(pi.genchar.rho_H, G, record)
    rho, cert, verified, doc, back, back_verified = stream._solve("D6", family, target)
    assert verified and back_verified
    assert cert.target == rho and back.terms == cert.terms and back.target == rho
    assert doc["terms"] and doc["verified"] is True


def test_family_hnf_keeps_the_meaning_build_counters_reads():
    # build_counters reports the bit sizes of .h and .u: h must stay the HNF of
    # the family matrix and u its full square transform
    pi = _package()
    groups = {
        "D6": _catalog(pi)["D6"],
        "D8xC2": pi.groupspec.parse_group_spec(dict(workloads.TARGET_GROUPS)["D8xC2"]),
    }
    for name, G in groups.items():
        family = pi.generators.family_for(G, workloads.FLAVOR)
        res = family.hnf()
        m = len(family)
        assert len(res.u) == m and all(len(row) == m for row in res.u), name
        matrix = [g.expansion.coeffs for g in family]
        product = [
            [sum(c * row[j] for c, row in zip(u_row, matrix)) for j in range(len(matrix[0]))]
            for u_row in res.u
        ]
        assert product == res.h, name
        for r, col in enumerate(res.pivot_cols):
            assert all(0 <= res.h[k][col] < res.h[r][col] for k in range(r)), name
