"""Benchmark of the alternator pipeline: timed runs and a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/bench.py --workload braid-corpus --seed 1 --seconds 15 --trace 0

The benchmark imports ``alternator`` from ``src/`` of the checkout it sits
in, builds the workload's inputs from ``--seed`` as PD text, then runs one
item at a time (closed loop, one client, one process) in whole passes over
the items until ``--seconds`` have elapsed.  Every item's output is checked;
failures are counted by class, never raised.  The last line of stdout is
the result object; the line before it holds details (Python version,
``nproc``, digests of inputs and outputs, tail percentile and sample count).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same items and reports per-layer
metrics from spans taken around each call into a module; it takes no hooks
inside the program.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from corpora import WORKLOADS, Item, Workload, alternator_modules, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SETUPS = (3, 15)  # fewest and most set-ups a timed run makes
SETUP_SECONDS = 1.0  # set up again until this much set-up time is spent
TAIL_PERCENTILES = (99.9, 99, 95, 90)
COVERAGE_MAX_CROSSINGS = 400  # text-path verify is quadratic; keep the sample cheap
FAILURE_CLASSES = ("input", "internal", "verify", "roundtrip")

END_TO_END = {
    "setup_s": "s",
    "crossings_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "largest_item_s": "s",
    "scaling_exponent": "slope",
    "crossings_added": "count",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# span names whose summed self time is reported as "<name>.s"
LAYER_SPANS = (
    "augment.augment_regions",
    "augment.from_parsed",
    "merge.components",
    "merge.find_dual_path",
    "merge.round",
    "codec.parse_pd",
    "codec.emit_pd",
    "codec.canonical_pd",
    "codec.emit_json",
    "codec.diagram_from_json",
    "diagram.classify_edges",
    "verify.inprocess",
    "verify.restriction",
    "verify.text",
    "verify.json",
    "cli.run",
)
COUNTS = ("items", "input_crossings", "nonalt_edges", "circles", "merges",
          "pushes", "output_crossings")
# per-item layer time used for each exponent: spans summed per item
EXPONENT_SPANS = {
    "augment": ("augment.augment_regions",),
    "merge": ("merge.round",),
    "verify": ("verify.inprocess", "verify.text", "verify.json"),
}

PER_LAYER = {
    **{name + ".s": "s" for name in LAYER_SPANS},
    **{layer + ".exponent": "slope" for layer in EXPONENT_SPANS},
    "merge.round_p50_ms": "ms",
    "merge.push_round_p50_ms": "ms",
    "merge.dual_distance_mean": "faces",
    "gen.inputs.s": "s",
    **{name: "count" for name in COUNTS},
    **{"errors." + cls: "count" for cls in FAILURE_CLASSES},
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "probe", "attrs")

    def __init__(self, name, parent, item, probe):
        self.name = name
        self.parent = parent
        self.item = item
        self.probe = probe
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end, parent span and item id.

    A probe span marks a call the benchmark adds only to time a layer on
    its own (``components`` before a merge round, say); probes are left out
    of the tracing overhead.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        s = Span(name, self._stack[-1] if self._stack else None, self.item, probe)
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[Span, float]:
        """Duration of each span minus the time its children cover."""
        out = {s: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out


_NULL = contextlib.nullcontext()


def _no_span(name, probe=False):
    return _NULL


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    key: str  # compared across passes: output PD text, or the verdict
    crossings_out: int = 0
    nonalt: int = 0
    circles: int = 0
    merges: int = 0
    pushes: int = 0
    passed: bool = False
    diagram: object = None  # kept for the round-trip gate


def pipeline_item(m, item: Item, tr: Tracer | None = None) -> Outcome:
    """PD text -> parse -> label -> augment -> merge -> verify -> emit.

    Untraced, the merge goes through ``full_pipeline_with_stats`` as the
    CLI does; traced, ``merge_once_with_stats`` is stepped so that each
    round gets a span.
    """
    span = tr.span if tr else _no_span
    with span("codec.parse_pd"):
        d = m.codec.parse_pd(item.text)
    with span("diagram.classify_edges"):
        classes = m.diagram.classify_edges(d)
    nonalt = sum(p.non_alternating_sign is not None for p in classes.values())
    merges = pushes = 0
    if not nonalt:
        with span("augment.augment_regions"):
            result = m.augment.augment_regions(d)
        circles = result.circle_count
    elif tr is None:
        result, stats = m.merge.full_pipeline_with_stats(d)
        merges, pushes = stats.merges, stats.pushes
        circles = merges + 1
    else:
        with span("augment.augment_regions"):
            result = m.augment.augment_regions(d)
        circles = result.circle_count
        while result.circle_count >= 2:
            before = result
            with span("merge.round") as s:
                result, p = m.merge.merge_once_with_stats(result)
            # probes run after the round so that the face tables they cache
            # on ``before`` cannot speed the round up
            with span("merge.components", probe=True):
                comps = m.merge.components(before)
            comp = next(c for c in comps if len(c.boundary_circles) >= 2)
            with span("merge.find_dual_path", probe=True):
                path = m.merge.find_dual_path(before, comp, *comp.boundary_circles[:2])
            s.attrs = (p, len(path))
            merges += 1
            pushes += p
    expected = 1 if nonalt else result.circle_count
    with span("verify.inprocess"):
        report = m.verify.verify(d, result, expected, pushes=pushes)
    if tr:
        with span("verify.restriction", probe=True):
            m.verify.restriction(result)
    with span("codec.emit_pd"):
        out = m.codec.emit_pd(result.diagram)
    return Outcome(
        key=out, crossings_out=result.diagram.num_crossings, nonalt=nonalt,
        circles=circles, merges=merges, pushes=pushes, passed=report.passed,
        diagram=result.diagram,
    )


def text_item(m, item: Item, tr: Tracer | None = None) -> Outcome:
    """``alternator verify ORIGINAL RESULT``, then the same after a JSON
    round trip of the result."""
    span = tr.span if tr else _no_span
    with span("codec.parse_pd"):
        original = m.codec.parse_pd(item.text)
    with span("codec.parse_pd"):
        result = m.codec.parse_pd(item.result_text)
    with span("diagram.classify_edges"):
        classes = m.diagram.classify_edges(original)
    expected = int(any(p.non_alternating_sign is not None for p in classes.values()))
    with span("augment.from_parsed"):
        aug = m.augment.from_parsed(result)
    with span("verify.text"):
        text_report = m.verify.verify(original, aug, expected)
    if tr:
        with span("codec.canonical_pd", probe=True):
            with span("verify.restriction", probe=True):
                restricted = m.verify.restriction(aug)
            m.codec.canonical_pd(restricted)
            m.codec.canonical_pd(original)
    with span("codec.emit_json"):
        doc = m.codec.emit_json(result)
    with span("codec.diagram_from_json"):
        rebuilt = m.codec.diagram_from_json(doc)
    with span("augment.from_parsed"):
        aug2 = m.augment.from_parsed(rebuilt)
    with span("verify.json"):
        json_report = m.verify.verify(original, aug2, expected)
    verdicts = [m.codec.report_to_dict(r) for r in (text_report, json_report)]
    agree = verdicts[0] == verdicts[1] and (
        m.codec.emit_pd(rebuilt) == m.codec.emit_pd(result)
    )
    return Outcome(
        key=json.dumps(verdicts[0], sort_keys=True),
        crossings_out=result.num_crossings,
        passed=text_report.passed and json_report.passed and agree,
    )


def roundtrip_ok(m, out: Outcome) -> bool:
    """Emitted PD parses back to the same size; JSON keeps the bytes."""
    d = out.diagram
    back = m.codec.parse_pd(out.key)
    augment = m.diagram.Tag.AUGMENT
    same_size = back.num_crossings == d.num_crossings and sum(
        e.tag is augment for e in back.edges.values()
    ) == sum(e.tag is augment for e in d.edges.values())
    rebuilt = m.codec.diagram_from_json(m.codec.emit_json(d))
    return same_size and m.codec.emit_pd(rebuilt) == out.key


def failure_class(m, exc: Exception) -> str:
    input_errors = (m.errors.DiagramError, m.errors.CodecError)
    return "input" if isinstance(exc, input_errors) else "internal"


def cli_item(m, item: Item, expected: str) -> bool:
    """In-process ``alternator run --verify -`` on the item's text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(item.text)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = m.cli.main(["run", "--verify", "-"])
    finally:
        sys.stdin = saved
    return code == 0 and stdout.getvalue().strip() == expected


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Run:
    """Items of one workload, their outcomes and failures across passes."""

    def __init__(self, m, workload: Workload, items: list[Item]):
        self.m = m
        self.workload = workload
        self.items = items
        self.item_fn = pipeline_item if workload.kind == "pipeline" else text_item
        self.first: list[Outcome | None] = []
        self.failures = dict.fromkeys(FAILURE_CLASSES, 0)
        self.attempted = 0
        self.consistent = True

    def fail(self, cls: str):
        self.failures[cls] += 1

    def one_pass(self, tracer: Tracer | None = None) -> list[float | None]:
        """Run every item once; returns per-item seconds (None if failed).

        With a tracer, probe spans are subtracted from the item time.
        """
        gc.collect()
        times: list[float | None] = []
        gate = not self.first
        for i, item in enumerate(self.items):
            self.attempted += 1
            if tracer:
                tracer.item = i
                mark = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                out = self.item_fn(self.m, item, tracer)
            except Exception as exc:  # a failing item is counted, not raised
                self.fail(failure_class(self.m, exc))
                times.append(None)
                if gate:
                    self.first.append(None)
                continue
            elapsed = time.perf_counter() - t0
            if tracer:
                elapsed -= sum(
                    s.duration for s in tracer.spans[mark:]
                    if s.probe and not (s.parent and s.parent.probe)
                )
            ok = out.passed
            if not ok:
                self.fail("verify")
            elif gate and self.workload.kind == "pipeline" and not roundtrip_ok(self.m, out):
                self.fail("roundtrip")
                ok = False
            elif not gate and (self.first[i] is None or out.key != self.first[i].key):
                self.fail("roundtrip")
                self.consistent = False
                ok = False
            out.diagram = None
            if gate:
                self.first.append(out)
            times.append(elapsed if ok else None)
        return times

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(items_per_pass: int) -> float:
    """Highest listed percentile with at least ten items of a pass beyond
    it, else the lowest listed one.

    Fixing it by the items of one pass, not by the number of samples,
    keeps the percentile the same however many passes a run makes.
    """
    return next(
        (p for p in TAIL_PERCENTILES if items_per_pass * (1 - p / 100) >= 10 - 1e-9),
        TAIL_PERCENTILES[-1],
    )


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0 with under two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def rung_slope(items: list[Item], per_item: dict[int, list[float]]) -> float:
    """Slope of the per-rung median item value against rung crossings."""
    rungs: dict[int, tuple[list[int], list[float]]] = {}
    for i, values in per_item.items():
        sizes, ys = rungs.setdefault(items[i].rung, ([], []))
        sizes.append(items[i].crossings)
        ys.extend(values)
    return slope([
        (statistics.fmean(sizes), statistics.median(ys))
        for sizes, ys in rungs.values()
    ])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up, timed run, traced run
# ---------------------------------------------------------------------------


def fresh_import():
    for name in [n for n in sys.modules if n == "alternator" or n.startswith("alternator.")]:
        del sys.modules[name]
    import alternator  # noqa: F401  (the import is what set-up times)

    return alternator_modules()


def setup(workload: Workload, seed: int, fewest: int = 1, most: int = 1):
    """Import the package afresh and build the inputs, ``fewest`` times and
    then again until ``SETUP_SECONDS`` are spent or ``most`` set-ups ran.

    Returns the modules, the items, every set-up time, every input
    generation time and whether every set-up built identical items.
    """
    setups, gens, items, same = [], [], None, True
    while len(setups) < fewest or (sum(setups) < SETUP_SECONDS and len(setups) < most):
        t0 = time.perf_counter()
        m = fresh_import()
        t1 = time.perf_counter()
        built = make_inputs(workload, seed)
        t2 = time.perf_counter()
        same = same and (items is None or built == items)
        items = built
        setups.append(t2 - t0)
        gens.append(t2 - t1)
    return m, items, setups, gens, same


def pipeline_counts(outcomes: list[Outcome | None], items: list[Item]) -> dict:
    done = [(o, it) for o, it in zip(outcomes, items) if o is not None]
    return {
        "items": len(items),
        "input_crossings": sum(it.crossings for _, it in done),
        "nonalt_edges": sum(o.nonalt for o, _ in done),
        "circles": sum(o.circles for o, _ in done),
        "merges": sum(o.merges for o, _ in done),
        "pushes": sum(o.pushes for o, _ in done),
        "output_crossings": sum(o.crossings_out for o, _ in done),
    }


def timed_run(workload: Workload, seed: int, seconds: float):
    t0 = time.perf_counter()
    m, items, setups, _, same = setup(workload, seed, *SETUPS)
    run = Run(m, workload, items)
    run.consistent = same
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run.one_pass())

    samples = [t for p in passes for t in p if t is not None]
    per_item = {
        i: [p[i] for p in passes if p[i] is not None] for i in range(len(items))
    }
    per_item = {i: v for i, v in per_item.items() if v}
    done = [i for i in range(len(items)) if i in per_item]
    work = sum(samples) or math.inf  # every item failed: report 0 crossings/s
    crossings = sum(items[i].crossings * len(per_item[i]) for i in done)
    top = len(workload.rungs) - 1
    top_samples = [t for i in done if items[i].rung == top for t in per_item[i]]
    tail_p = tail_percentile(len(items))
    tail = percentile(samples, tail_p) if samples else 0.0
    if workload.kind == "text":
        added = sum(it.result_crossings - it.crossings for it in items)
    else:
        added = sum(
            o.crossings_out - it.crossings
            for o, it in zip(run.first, items) if o is not None
        )
    metrics = {
        "setup_s": statistics.median(setups),
        "crossings_per_s": crossings / work,
        "latency_p50_ms": 1000 * statistics.median(samples) if samples else 0.0,
        "latency_tail_ms": 1000 * tail,
        "largest_item_s": statistics.median(top_samples) if top_samples else 0.0,
        "scaling_exponent": rung_slope(items, per_item),
        "crossings_added": added,
        "verified_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes": len(passes),
        "tail_percentile": tail_p,
        "tail_n": len(samples),
        "setup_runs_s": setups,
        "wall_s": time.perf_counter() - t0,
    }
    return run, metrics, details


def layer_metrics(tracer: Tracer, passes: int, items: list[Item]) -> dict:
    """Per-pass self time by span name, round statistics and exponents."""
    self_time = tracer.self_times()
    totals: dict[str, float] = {}
    per_item: dict[str, dict[int, float]] = {}
    for s, t in self_time.items():
        totals[s.name] = totals.get(s.name, 0.0) + t
        for layer, names in EXPONENT_SPANS.items():
            if s.name in names:
                by_item = per_item.setdefault(layer, {})
                by_item[s.item] = by_item.get(s.item, 0.0) + t
    out = {name + ".s": totals[name] / passes for name in LAYER_SPANS if name in totals}
    for layer, by_item in per_item.items():
        out[layer + ".exponent"] = rung_slope(items, {i: [v] for i, v in by_item.items()})
    rounds = [s for s in tracer.spans if s.name == "merge.round"]
    if rounds:
        out["merge.round_p50_ms"] = 1000 * statistics.median(s.duration for s in rounds)
        pushed = [s.duration for s in rounds if s.attrs[0] > 0]
        out["merge.push_round_p50_ms"] = 1000 * statistics.median(pushed) if pushed else 0.0
        out["merge.dual_distance_mean"] = statistics.fmean(s.attrs[1] for s in rounds)
    return out


def coverage(run: Run, main_kind: str):
    """Trace the layers the workload's own item kind never calls.

    On a sample (the first item of each rung up to 400 input crossings),
    pipeline workloads run the text-path check on their own outputs, the
    text workload runs the pipeline on its originals and compares with the
    results made in set-up; every workload runs ``cli.main`` in process.
    Returns the coverage tracer, the sampled item indices and, for the text
    workload, the pipeline outcomes of all its items (for the counts).
    """
    m, items = run.m, run.items
    sample = []
    for i, it in enumerate(items):
        if it.crossings <= COVERAGE_MAX_CROSSINGS and all(items[j].rung != it.rung for j in sample):
            sample.append(i)
    tracer = Tracer()
    outcomes: list[Outcome | None] = []
    if main_kind == "text":
        for i, it in enumerate(items):
            tracer.item = i
            run.attempted += 1
            try:
                out = pipeline_item(m, it, tracer)
            except Exception as exc:
                run.fail(failure_class(m, exc))
                outcomes.append(None)
                continue
            if not out.passed:
                run.fail("verify")
            elif out.key != it.result_text:
                run.fail("roundtrip")
            outcomes.append(out)
    for i in sample:
        it = items[i]
        expected = it.result_text if main_kind == "text" else run.first[i] and run.first[i].key
        if expected is None:
            continue
        tracer.item = i
        if main_kind == "pipeline":
            run.attempted += 1
            checked = Item(it.rung, it.text, it.crossings, result_text=expected)
            try:
                ok = text_item(m, checked, tracer).passed
            except Exception as exc:
                run.fail(failure_class(m, exc))
            else:
                if not ok:
                    run.fail("verify")
        run.attempted += 1
        with tracer.span("cli.run"):
            ok = cli_item(m, it, expected)
        if not ok:
            run.fail("roundtrip")
    return tracer, sample, outcomes


def traced_run(workload: Workload, seed: int, seconds: float):
    t0 = time.perf_counter()
    m, items, _, gens, _ = setup(workload, seed)
    run = Run(m, workload, items)
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(t for t in run.one_pass() if t is not None))
        traced.append(sum(t for t in run.one_pass(tracer) if t is not None))
    cov, sample, cov_outcomes = coverage(run, workload.kind)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    own = layer_metrics(tracer, len(traced), items)
    covered = layer_metrics(cov, 1, items)
    metrics.update({k: v for k, v in covered.items() if k not in own})
    metrics.update(own)
    metrics["gen.inputs.s"] = gens[0]
    counts = pipeline_counts(
        cov_outcomes if workload.kind == "text" else run.first, items
    )
    metrics.update(counts)
    metrics.update({"errors." + c: n for c, n in run.failures.items()})
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics["trace.spans"] = len(tracer.spans) + len(cov.spans)
    details = {
        "passes": len(traced),
        "coverage_items": sample,
        "wall_s": time.perf_counter() - t0,
    }
    return run, metrics, details


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    src = ROOT / "src"
    if not (src / "alternator" / "__init__.py").is_file():
        raise SystemExit(f"error: no alternator package under {src}")
    sys.path.insert(0, str(src))
    import alternator

    if Path(alternator.__file__).resolve().parent != (src / "alternator").resolve():
        raise SystemExit(f"error: alternator imported from {alternator.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    workload = WORKLOADS[args.workload]

    if args.trace:
        run, metrics, details = traced_run(workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        run, metrics, details = timed_run(workload, args.seed, args.seconds)
        units = END_TO_END

    outputs = [o.key if o else "" for o in run.first]
    # text-roundtrip items carry the merge counts of their set-up pipeline run
    made = run.items if workload.kind == "text" else [o for o in run.first if o]
    merges = sum(x.merges for x in made)
    pushes = sum(x.pushes for x in made)
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc(),
        "items_per_pass": len(run.items),
        "rung_sizes": list(workload.rungs),
        "inputs_sha256": digest(it.text for it in run.items),
        "outputs_sha256": digest(outputs),
        "merges": merges,
        "pushes": pushes,
        "pushes_per_merge": pushes / merges if merges else 0.0,
        "failures": run.failures,
        **details,
    }
    print(json.dumps(details))
    result = {
        "correct": run.failed == 0 and run.consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
