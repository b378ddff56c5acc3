"""Benchmark of the parity-inductor pipeline, one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog_sweep --seed 0 --seconds 15 --trace 0

The package is imported from ``src/`` next to this directory and nowhere else.
With ``--trace 0`` the run imports the package and sets the workload up
several times, times whole passes within ``--seconds`` of pass time (at least
one; for warm workloads the passes alternate with the set-ups), and reports
the end-to-end metrics.  With ``--trace 1`` it times untraced passes for half of
``--seconds``, then sets up and runs one pass with every layer's public calls
wrapped in spans, and reports per-layer calls, self time and the tracing
overhead; the spans are written to ``.perfbench/``.  Times are scaled to a
nominal host speed measured alongside them (see hostspeed.py).  Human-readable
lines come first; the last line of standard output is one JSON object.  Outputs are
checked exactly on every pass; the exit code is 0 only if a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "parity_inductor"
MODULES = (
    "catalog", "chartab", "decompose", "genchar", "generators", "group", "groupspec",
    "intlinalg", "lattice", "membership", "parity", "spanreport", "structure",
)
TRACE_DIR = os.path.join(ROOT, ".perfbench")
IMPORTS = 5  # the import is repeated (source compiled each time) for a median

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

from hostspeed import NOMINAL_S, HostClock  # noqa: E402
from tracing import ITEM, LAYERS, GcMonitor, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Pass, Check, build_counters  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("latency_s.p50", "s"),
    ("latency_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTERS = (
    ("chartab.classes", "count"),
    ("lattice.subgroup_classes", "count"),
    ("structure.subquotients", "count"),
    ("generators.generators", "count"),
    ("intlinalg.hnf_rank", "count"),
    ("intlinalg.h_max_bits", "bits"),
    ("intlinalg.u_max_bits", "bits"),
    ("membership.certified_ratio", "ratio"),
    ("membership.cert_l1_max", "count"),
    ("decompose.tree_nodes", "count"),
    ("decompose.tree_depth_max", "count"),
    ("parity.rows", "count"),
    ("gc.collections", "count"),
    ("gc.pause_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_s", "s"),
    ("trace.spans", "count"),
)

SPAN_NAMES = (ITEM,) + tuple(name for name, _, _ in LAYERS)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(name + ".calls", "count"), (name + ".busy_s", "s"), (name + ".setup_busy_s", "s")]
    return out + list(COUNTERS)


def import_package():
    """Import the package afresh from SRC only; returns a namespace of its modules."""
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise SystemExit("perfbench: no %s package under %s" % (PACKAGE, SRC))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    package = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SystemExit("perfbench: %s was imported from %s" % (PACKAGE, package.__file__))
    return argparse.Namespace(
        **{name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in MODULES}
    )


class Run:
    """Set-ups and passes of one workload in this process, with their measurements.

    Times are scaled to the nominal host speed (see hostspeed.py); the wall
    times beside them are kept for the printed report and the run's time budget.
    """

    def __init__(self, workload, gcmon, host):
        self.workload = workload
        self.gcmon = gcmon
        self.host = host
        self.setup_samples = []  # scaled seconds of each set-up
        self.state = None
        self.passes = []  # (scaled seconds, Pass, Check)
        self.wall = []  # wall seconds of each pass, host sampling included

    def timed(self, body, rec, sample):
        """Run body(), whose items rec records: (result, scaled s, wall s).

        The host is sampled before and after, and with `sample` also throughout.
        Items scale by the host's speed around each; the rest (the glue between
        them) by the speed over the whole run of body().
        """
        host = self.host
        host.sample(3)
        start = time.perf_counter()
        with host.sampling() if sample else contextlib.nullcontext():
            result = body()
        end = time.perf_counter()
        host.sample(3)
        glue = host.net(start, end) - sum(host.net(*iv) for iv in rec.intervals)
        seconds = sum(host.scaled(*iv) for iv in rec.intervals) + glue * host.factor(start, end)
        return result, seconds, end - start

    def setup(self, sample=True):
        """Set the workload up; without `sample`, the host is sampled only around it."""
        self.state = None
        gc.collect()
        rec = Pass()
        self.state, seconds, _ = self.timed(partial(self.workload.setup, rec), rec, sample)
        self.setup_samples.append(seconds)

    def one_pass(self, tracer=None):
        """One pass; a traced pass samples the host only around it, not inside its spans."""
        gc.collect()
        rec = Pass(tracer)
        self.gcmon.on = tracer is None
        if tracer is not None:
            tracer.install()
        try:
            outputs, seconds, wall = self.timed(
                partial(self.workload.run_pass, self.state, rec), rec, tracer is None
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.gcmon.on = False
        chk = Check()
        self.workload.check(self.state, outputs, chk)
        self.passes.append((seconds, rec, chk))
        self.wall.append(wall)
        return seconds, chk

    def scaled_latencies(self, rec):
        return [self.host.scaled(*iv) for iv in rec.intervals]

    def timed_passes(self, seconds):
        """Whole passes until `seconds` of wall time in all, at least one per call.

        A pass is not started when another pass as long as the last would end past
        `seconds`.  Cold workloads set up afresh before every pass but the first.
        """
        measured = sum(self.wall)
        last = 0.0
        first = True
        while first or measured + last <= seconds:
            if self.workload.cold and not first:
                self.setup()
            self.one_pass()
            last = self.wall[-1]
            measured += last
            first = False

    # ------------------------------------------------------------ summaries

    def attempted_failed(self):
        attempted = sum(len(rec.intervals) for _, rec, _ in self.passes)
        failed = 0
        for _, rec, chk in self.passes:
            failed += len({i for i, _ in rec.failures} | {i for i, _ in chk.problems})
        return attempted, failed

    def digests(self):
        return sorted({chk.digest() for _, _, chk in self.passes})

    def output_ok(self, seed):
        """Exact checks passed, every pass gave the same bytes, and the pin matches."""
        digests = self.digests()
        if len(digests) != 1 or self.attempted_failed()[1]:
            return False
        pinned = PINNED.get(self.workload.name)
        return seed != DEFAULT_SEED or pinned is None or digests[0] == pinned

    def report_problems(self):
        for _, rec, chk in self.passes:
            for item_id, text in rec.failures:
                print("perfbench: item %s failed:\n%s" % (item_id, text), file=sys.stderr)
            for item_id, what in chk.problems:
                print("perfbench: item %s: %s" % (item_id, what), file=sys.stderr)


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    One pass has few items, and the single order statistic at p moves with the
    noise of the one item that lands there; this estimate spreads the weight over
    the items ranked near p (Harrell and Davis, Biometrika 69, 1982).  Item i of n
    (sorted) weighs the Beta((n+1)p, (n+1)(1-p)) mass on [i/n, (i+1)/n], taken by
    Simpson's rule with `steps` sub-intervals.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        ys = [density(i / n + j * h) for j in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values):
    """The highest percentile with ten samples beyond it: (value, percentile, samples beyond)."""
    n = len(values)
    k = max(n - 11, 0)
    return quantile(values, (k + 1) / n), 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(run, args, import_s):
    workload = run.workload
    if workload.cold:
        for _ in range(workload.setups):
            run.setup()
        run.timed_passes(args.seconds)
    else:
        # Set-ups and passes alternate, so that both spread over the whole run.
        for k in range(1, workload.setups + 1):
            run.setup()
            run.timed_passes(args.seconds * k / workload.setups)
    pass_times = [s for s, _, _ in run.passes]
    per_pass = [run.scaled_latencies(rec) for _, rec, _ in run.passes]
    _, tail_pct, beyond = tail(per_pass[0])
    metrics = {
        "setup_s": statistics.median(import_s) + statistics.median(run.setup_samples),
        "pass_s": statistics.median(pass_times),
        "latency_s.p50": statistics.median(quantile(lat, 0.5) for lat in per_pass),
        "latency_s.tail": statistics.median(tail(lat)[0] for lat in per_pass),
        "peak_rss_mb": peak_rss_mb(),
    }
    print("times below are seconds at the nominal host speed (perfbench/hostspeed.py)")
    print("setup_s        %.4f s  (median of %d imports, %.4f s, + median of %d set-ups)"
          % (metrics["setup_s"], len(import_s), statistics.median(import_s), len(run.setup_samples)))
    print("pass_s         %.4f s  (median of %d passes; %.4f s median wall time)"
          % (metrics["pass_s"], len(pass_times), statistics.median(run.wall)))
    print("latency_s.p50  %.6f s  (median over passes of each pass's Harrell-Davis median item)"
          % metrics["latency_s.p50"])
    print("latency_s.tail %.6f s  (median over passes of each pass's Harrell-Davis p%.1f:"
          " %d items, %d beyond it)"
          % (metrics["latency_s.tail"], tail_pct, len(per_pass[0]), beyond))
    print("peak_rss_mb    %.1f MB" % metrics["peak_rss_mb"])
    print("gc.collections %.1f  gc.pause_s %.4f s  (per pass)"
          % (run.gcmon.collections / len(pass_times), run.gcmon.pause_s / len(pass_times)))
    print("host speed     %.3f of nominal  (median over the run's %d kernel samples)"
          % (NOMINAL_S / statistics.median(run.host.seconds), len(run.host.seconds)))
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def traced_run(run, args, pi):
    workload = run.workload
    run.setup()
    run.timed_passes(args.seconds / 2.0)
    untraced = statistics.median(s for s, _, _ in run.passes)
    gc_passes = len(run.passes)
    gc_collections, gc_pause = run.gcmon.collections, run.gcmon.pause_s

    tracer = Tracer(PACKAGE)
    tracer.install()
    token = tracer.begin_item("setup")
    try:
        run.setup(sample=False)  # no kernel runs inside the set-up's item span
    finally:
        tracer.end_item(token)
        tracer.uninstall()
    mark = len(tracer.spans)
    traced, chk = run.one_pass(tracer)

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.jsonl" % (workload.name, args.seed))
    tracer.write(path)

    setup_times = tracer.self_times(tracer.spans[:mark])
    pass_times = tracer.self_times(tracer.spans[mark:])
    values = {}
    print("%-34s %9s %12s %12s" % ("layer", "calls", "setup self s", "pass self s"))
    for name in SPAN_NAMES:
        calls, busy = pass_times.get(name, (0, 0.0))
        setup_calls, setup_busy = setup_times.get(name, (0, 0.0))
        values[name + ".calls"] = calls + setup_calls
        values[name + ".busy_s"] = busy
        values[name + ".setup_busy_s"] = setup_busy
        print("%-34s %9d %12.4f %12.4f" % (name, calls + setup_calls, setup_busy, busy))

    build_counters(pi, workload.groups(run.state), chk)
    counters = chk.counters
    pass_spans = len(tracer.spans) - mark
    span_cost = tracer.span_cost()
    values.update({name: counters.get(name, 0) for name, _ in COUNTERS})
    targets = counters.get("targets", 0)
    values["membership.certified_ratio"] = counters.get("certified", 0) / targets if targets else 0.0
    values["gc.collections"] = gc_collections / gc_passes
    values["gc.pause_s"] = gc_pause / gc_passes
    values["trace.untraced_pass_s"] = untraced
    values["trace.traced_pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.span_cost_s"] = pass_spans * span_cost
    values["trace.spans"] = len(tracer.spans)
    for name, unit in COUNTERS:
        print("%-34s %s %s" % (name, values[name], unit))
    print("tracing overhead %.4f s on a %.4f s pass (%+.1f%%); %d pass spans at %.2f us each"
          " account for %.4f s; spans written to %s"
          % (traced - untraced, untraced, 100.0 * (traced - untraced) / untraced,
             pass_spans, 1e6 * span_cost, pass_spans * span_cost, os.path.relpath(path, ROOT)))
    return {name: (values[name], unit) for name, unit in per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    host = HostClock()
    spans = []
    host.sample(3)
    with host.sampling():
        for _ in range(IMPORTS):
            start = time.perf_counter()
            pi = import_package()
            spans.append((start, time.perf_counter()))
    host.sample(3)
    import_s = [host.scaled(*span) for span in spans]

    gcmon = GcMonitor()
    run = Run(WORKLOADS[args.workload](pi, args.seed), gcmon, host)
    if args.trace:
        metrics = traced_run(run, args, pi)
    else:
        metrics = timed_run(run, args, import_s)
    gcmon.close()

    run.report_problems()
    attempted, failed = run.attempted_failed()
    ok = run.output_ok(args.seed)
    digests = run.digests()
    pinned = PINNED.get(args.workload)
    print("workload %s seed %d: %d items, %d failed, fail_ratio %.4f, output_ok %d"
          % (args.workload, args.seed, attempted, failed, failed / attempted, int(ok)))
    print("digest %s%s" % (
        ",".join(digests),
        "" if args.seed != DEFAULT_SEED or pinned is None
        else (" (pinned: match)" if digests == [pinned] else " (pinned: MISMATCH %s)" % pinned),
    ))
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
