"""Certification sweeps: solve every canonical target over a generator family."""

from __future__ import annotations

from .genchar import rho_H
from .generators import family_for
from .group import PermGroup
from .lattice import subgroup_lattice
from .membership import check_target, membership_solve_all, random_S_element, verify_certificate


class TargetResult:
    """Outcome of one membership solve: a subgroup target or a random sample."""

    __slots__ = ("label", "certified", "detail", "terms", "meta")

    def __init__(self, label, certified, detail="", terms=(), meta=None):
        self.label = label
        self.certified = certified
        self.detail = detail
        self.terms = tuple(terms)
        self.meta = dict(meta or {})

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "certified": self.certified,
            "detail": self.detail,
            "terms": [list(t) for t in self.terms],
            **self.meta,
        }

    def __repr__(self):
        state = "certified" if self.certified else "FAILED"
        return "TargetResult(%s: %s)" % (self.label, state)


class SpanReport:
    """Per-group summary of a certification sweep over one generator family."""

    __slots__ = (
        "group_name",
        "order",
        "flavor",
        "subgroup_results",
        "sample_results",
        "usage",
    )

    def __init__(self, group_name, order, flavor, subgroup_results, sample_results, usage):
        self.group_name = group_name
        self.order = order
        self.flavor = flavor
        self.subgroup_results = tuple(subgroup_results)
        self.sample_results = tuple(sample_results)
        self.usage = dict(usage)

    @property
    def all_certified(self) -> bool:
        results = self.subgroup_results + self.sample_results
        return all(r.certified for r in results)

    def failures(self):
        results = self.subgroup_results + self.sample_results
        return [r for r in results if not r.certified]

    def format_text(self) -> str:
        lines = []
        lines.append(
            "group %s (order %d, flavor %s)" % (self.group_name, self.order, self.flavor)
        )
        for template, results in (("rho[%s]", self.subgroup_results), ("%s", self.sample_results)):
            for result in results:
                state = "certified" if result.certified else "FAILED"
                suffix = " (%s)" % result.detail if result.detail else ""
                lines.append("  %s: %s%s" % (template % result.label, state, suffix))
        if self.usage:
            parts = ["%s x%d" % (key, self.usage[key]) for key in sorted(self.usage)]
            lines.append("  generators used: %s" % ", ".join(parts))
        else:
            lines.append("  generators used: none")
        total = len(self.subgroup_results) + len(self.sample_results)
        lines.append("  targets certified: %d/%d" % (total - len(self.failures()), total))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "flavor": self.flavor,
            "subgroups": [r.to_json() for r in self.subgroup_results],
            "samples": [r.to_json() for r in self.sample_results],
            "usage": {key: self.usage[key] for key in sorted(self.usage)},
            "all_certified": self.all_certified,
        }


def _result(cert, family, label, usage, meta):
    """The TargetResult of one target's outcome: its certificate, None, or the
    exception that stopped it."""
    if isinstance(cert, Exception):
        return TargetResult(label, False, detail=str(cert), meta=meta)
    if cert is None:
        return TargetResult(label, False, detail="no integer combination found", meta=meta)
    if not verify_certificate(cert):
        return TargetResult(label, False, detail="certificate failed re-expansion", meta=meta)
    for index, _coeff in cert.terms:
        desc = family.generators[index]
        key = desc.tag or desc.kind
        usage[key] = usage.get(key, 0) + 1
    return TargetResult(label, True, terms=cert.named_terms(), meta=meta)


def _attempt(call, *args):
    """call(*args), or the RuntimeError or ValueError it raised."""
    try:
        return call(*args)
    except (RuntimeError, ValueError) as exc:
        return exc


def span_report(G: PermGroup, flavor="thm12", name=None, samples=0, seed=0, bound=4):
    """Certify every rho_H of G plus seeded random targets, all solved in one
    batch; failures are recorded."""
    group_name = name if name is not None else "order%d" % G.order()
    usage = {}
    try:
        family = family_for(G, flavor)
    except (RuntimeError, ValueError) as exc:
        result = TargetResult("family", False, detail=str(exc))
        return SpanReport(group_name, G.order(), flavor, [result], [], usage)
    records = subgroup_lattice(G).records
    targets = [rho_H(G, record) for record in records]
    targets += [_attempt(random_S_element, G, seed + i, bound) for i in range(samples)]
    # each target is checked alone, so that one bad target fails only itself
    targets = [t if isinstance(t, Exception) else _attempt(check_target, t, family) for t in targets]
    good = [t for t in targets if not isinstance(t, Exception)]
    certs = _attempt(membership_solve_all, good, family)
    certs = iter([certs] * len(good) if isinstance(certs, Exception) else certs)
    outcomes = [t if isinstance(t, Exception) else next(certs) for t in targets]
    subgroup_results = [
        _result(cert, family, "%s ord %d" % (rec.label, rec.order), usage, {"class_id": rec.class_id})
        for rec, cert in zip(records, outcomes)
    ]
    sample_results = [
        _result(cert, family, "sample seed %d" % (seed + i), usage, {"seed": seed + i, "bound": bound})
        for i, cert in enumerate(outcomes[len(records):])
    ]
    return SpanReport(group_name, G.order(), flavor, subgroup_results, sample_results, usage)
