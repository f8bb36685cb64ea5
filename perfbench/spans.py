"""Spans recorded around the benchmark's calls into each forgepulse layer.

The program is not changed: ``install_hooks`` replaces module attributes
(the names each forgepulse module looks up at call time) with wrappers that
open a span per call.  Spans live in memory and are written out when the
measured process ends.

Calls made once per record (parsing a line, normalising an email, encoding
a record) would make millions of spans, so a call that opens no span of its
own is *folded*: all such calls of one name under one parent share a single
span whose ``busy`` is the sum of their durations and ``calls`` their count.

A hook costs about a microsecond per call, as much as some of the calls it
times.  ``calibrate`` measures that cost on a no-op, per hook shape, as the
part inside the timed window (``cost_in``, counted in the folded span's
``busy``) and the part outside it (``cost_out``, counted in its parent's).
Self times subtract both, so the hooks' own cost is not charged to a layer.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

# Layers whose self time counts as traced work; orchestration spans (the
# unit of work, pipeline.run_project, each cli.main call) are not layers,
# so their self time is what the hooks do not explain.
LAYER_SPANS = (
    "ingest.parse",
    "ingest.jsonl_read",
    "identity.resolve",
    "series.build",
    "jsonio.records_write",
    "jsonio.artifacts_write",
    "metrics.compute",
    "growth.fit",
    "growth.biphase",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    thread: int
    busy: float  # summed duration of the calls the span stands for
    calls: int = 1
    cpu: float = 0.0  # CPU time of its thread while an entered span was open
    cost_in: float = 0.0  # hook cost per call inside ``busy``
    cost_out: float = 0.0  # hook cost per call inside the parent's ``busy``
    # Folded leaf spans opened under this one, by name.
    folds: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "folds"}


class Tracer:
    """Collects spans and counters for one measured unit of work."""

    def __init__(self, run: str, costs: dict[str, tuple[float, float]] | None = None):
        self.run = run
        self.costs = costs or {}  # hook shape -> (cost_in, cost_out), from calibrate()
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.ingest_reports: list = []
        self.fallback_keys: set[tuple[int, str]] = set()  # (series span, key)
        self.biphase_inputs: dict[int, np.ndarray] = {}  # growth.biphase span -> its series
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> Span | None:
        """The innermost open span of this thread; a worker thread with no
        open span of its own works under the root."""
        return getattr(self._local, "top", None) or self.root

    def _add(self, name: str, start: float, parent: Span | None, calls: int) -> Span:
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, start=start, end=start,
                parent=None if parent is None else parent.id, run=self.run,
                thread=threading.get_ident(), busy=0.0, calls=calls,
            )
            self.spans.append(span)
        return span

    def enter(self, name: str) -> Span:
        span = self._add(name, time.perf_counter(), self.current(), calls=1)
        span.cpu = time.thread_time()
        self._local.__dict__.setdefault("stack", []).append(span)
        self._local.top = span
        if self.root is None:
            self.root = span
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        span.cpu = time.thread_time() - span.cpu
        stack = self._local.stack
        stack.pop()
        self._local.top = stack[-1] if stack else None

    def leaf(self, name: str, start: float, end: float, shape: str = "call") -> None:
        """Record one call that opens no span itself, folded into the span
        its earlier calls of ``name`` under the same parent share."""
        parent = getattr(self._local, "top", None) or self.root
        span = parent.folds.get(name)
        if span is None:
            span = parent.folds[name] = self._add(name, start, parent, calls=0)
            span.cost_in, span.cost_out = self.costs.get(shape, (0.0, 0.0))
        span.end = end
        span.busy += end - start
        span.calls += 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its busy time minus the part its children
    cover, less the hook cost its own busy time holds.

    Children on the span's own thread run nested inside it and never
    overlap one another, so they cover the sum of their busy times plus the
    hook cost spent around their calls (folded children have no single
    interval).  Children on other threads run concurrently with each other,
    so they cover the union of their intervals, clipped to the span's own
    interval.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        same_thread = 0.0
        elsewhere = []
        for child in children.get(span.id, ()):
            if child.thread == span.thread:
                same_thread += child.busy + child.calls * child.cost_out
            else:
                elsewhere.append((max(child.start, span.start), min(child.end, span.end)))
        covered = same_thread + _union_length([iv for iv in elsewhere if iv[1] > iv[0]])
        out[span.id] = max(0.0, span.busy - span.calls * span.cost_in - covered)
    return out


def running_shares(spans: list[Span]) -> dict[int, float]:
    """Share of its wall time each span's thread was running.

    Worker threads take turns on the GIL, so a span on one is open while
    its thread waits.  A span opened on a worker thread under a span of
    another thread (a project under the unit) gives its subtree the share
    its thread's CPU time has of its wall time; everything else counts
    fully, as do worker spans without a CPU reading (folded ones).
    """
    by_id = {span.id: span for span in spans}
    shares: dict[int, float] = {}
    for span in spans:  # a parent is always recorded before its children
        parent = by_id.get(span.parent)
        if parent is None:
            shares[span.id] = 1.0
        elif parent.thread != span.thread:
            shares[span.id] = min(1.0, span.cpu / span.busy) if span.cpu > 0 and span.busy > 0 else 1.0
        else:
            shares[span.id] = shares[parent.id]
    return shares


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds, plus the traced busy time and what the layer
    spans leave unexplained.

    ``busy`` is the summed self time of every span.  With one thread it is
    the root span's duration (the traced wall) less the hooks' estimated
    cost, ``hook_cost``; with worker threads it is the time the threads
    together ran inside spans (``running_shares``), less that cost.
    """
    shares = running_shares(spans)
    selfs = {k: v * shares[k] for k, v in self_times(spans).items()}
    layers = {name: 0.0 for name in LAYER_SPANS}
    for span in spans:
        if span.name in layers:
            layers[span.name] += selfs[span.id]
    busy = sum(selfs.values())
    covered = sum(layers.values())
    return {
        "layers": layers,
        "busy": busy,
        "untraced": busy - covered,
        "coverage": covered / busy if busy > 0 else 0.0,
        "hook_cost": sum(s.calls * (s.cost_in + s.cost_out) for s in spans),
    }


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]


def summarize(spans: list[Span]) -> dict:
    """``layer_summary`` plus the traced wall (the root span), each
    project's time and each CLI call's time."""
    summary = layer_summary(spans)
    summary["wall"] = next(s.busy for s in spans if s.parent is None)
    summary["projects"] = [s.busy for s in spans if s.name == "pipeline.project"]
    summary["cli"] = {s.name: s.busy for s in spans if s.name.startswith("cli.")}
    return summary


def _span_call(tracer: Tracer, name: str, func, after=None):
    """Wrap a call that may reach other hooked names: it gets a span of its own."""
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def _leaf_call(tracer: Tracer, name: str, func, after=None):
    """Wrap a call that reaches no other hooked name: it is folded."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.leaf(name, start, clock())
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


class _TimedIterator:
    """Times each ``next`` on an iterator as a leaf call of ``name``.

    With ``stamp`` set, it also notes on the thread when the item left the
    iterator; the records sink times each write from there.
    """

    def __init__(self, tracer: Tracer, name: str, inner, stamp: bool = False):
        self._tracer, self._name, self._inner, self._stamp = tracer, name, iter(inner), stamp

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self._inner)
        finally:
            self._tracer.leaf(self._name, start, time.perf_counter(), "iter")
            if self._stamp:
                self._tracer._local.handed_over = time.perf_counter()


class _TimedWriter:
    """``atomic_writer`` stand-in for records.jsonl whose open, writes and
    close are timed.

    A record is encoded (``record_to_dict``, ``dumps_stable``) right before
    its line is written, so each write is timed from the moment the parser
    handed the record over: one hook per record covers encoding and writing.
    """

    def __init__(self, tracer: Tracer, name: str, writer):
        self._tracer, self._name, self._writer = tracer, name, writer

    def __enter__(self):
        start = time.perf_counter()
        try:
            self._handle = self._writer.__enter__()
            return self
        finally:
            self._tracer.leaf(self._name, start, time.perf_counter())

    def write(self, text: str) -> int:
        local = self._tracer._local
        start = getattr(local, "handed_over", None) or time.perf_counter()
        try:
            return self._handle.write(text)
        finally:
            local.handed_over = None
            self._tracer.leaf(self._name, start, time.perf_counter())

    def __exit__(self, *exc_info):
        start = time.perf_counter()
        try:
            return self._writer.__exit__(*exc_info)
        finally:
            self._tracer.leaf(self._name, start, time.perf_counter())


def calibrate(n: int = 20_000, rounds: int = 7) -> dict[str, tuple[float, float]]:
    """(cost_in, cost_out) per call of each hook shape, measured on a no-op
    that takes one argument, as most hooked calls do.

    Each round times ``n`` plain calls (or iterator steps) and ``n`` hooked
    ones; the hooked span's ``busy`` splits the difference into the part
    inside and outside the timed window.  Each cost is the median over the
    rounds.
    """
    clock = time.perf_counter
    items = [None] * n

    def noop(item):
        return item

    costs = {}
    for shape in ("call", "iter"):
        inside, outside = [], []
        for _ in range(rounds):
            tracer = Tracer("calibration")
            root = tracer.enter("unit")
            if shape == "call":
                hooked = _leaf_call(tracer, "noop", noop)
                start = clock()
                for item in items:
                    noop(item)
                plain = clock() - start
                start = clock()
                for item in items:
                    hooked(item)
                total = clock() - start
            else:
                start = clock()
                for _ in iter(items):
                    pass
                plain = clock() - start
                start = clock()
                for _ in _TimedIterator(tracer, "noop", items):
                    pass
                total = clock() - start
            tracer.exit(root)
            window = tracer.spans[1].busy
            inside.append(max(0.0, (window - plain) / n))
            outside.append(max(0.0, (total - window) / n))
        costs[shape] = (statistics.median(inside), statistics.median(outside))
    return costs


def install_hooks(tracer: Tracer) -> None:
    """Wrap the names forgepulse's modules call each other through.

    The hooks stay for the life of the process.  A name a module no longer
    has is skipped, so its time shows up as untraced instead of breaking
    the run.
    """
    from forgepulse import cli, growth, pipeline, series
    from forgepulse.errors import IdentityError

    def leaf(name, after=None):
        return lambda func: _leaf_call(tracer, name, func, after)

    def spanned(name, after=None):
        return lambda func: _span_call(tracer, name, func, after)

    def parse(func):
        def wrapper(*args, **kwargs):
            records, report = func(*args, **kwargs)
            tracer.ingest_reports.append(report)
            return _TimedIterator(tracer, "ingest.parse", records, stamp=True), report
        return wrapper

    def read_jsonl(func):
        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, "ingest.jsonl_read", func(*args, **kwargs))
        return wrapper

    def normalize(func):
        def wrapper(raw):
            start = time.perf_counter()
            try:
                return func(raw)
            except IdentityError:
                tracer.fallback_keys.add((tracer.current().id, raw.strip().lower()))
                raise
            finally:
                tracer.leaf("identity.resolve", start, time.perf_counter())
        return wrapper

    def resolved(unit, args, kwargs):
        tracer.count(f"identity.class.{unit.domain_class.name.lower()}")

    def built(result, args, kwargs):
        tracer.count("series.months", len(result.points))
        tracer.count("series.contributors", result.total_contributors)
        tracer.count("series.units", result.total_orgs)

    def fit(func):
        def wrapper(*args, **kwargs):
            current = tracer.current()
            in_biphase = current is not None and current.name == "growth.biphase"
            tracer.count("growth.biphase_fit_calls" if in_biphase else "growth.fit_calls")
            if in_biphase:
                # A breakpoint counts as evaluated when the segment before
                # it is fit: a proper prefix of the searched series.
                data = tracer.biphase_inputs[current.id]
                segment = np.asarray(args[0] if args else kwargs["values"], dtype=float)
                if len(segment) < len(data) and np.array_equal(segment, data[:len(segment)]):
                    tracer.count("growth.biphase_breakpoints")
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.leaf("growth.biphase" if in_biphase else "growth.fit", start, time.perf_counter())
            tracer.count("growth.lm_iterations", result.iterations)
            return result
        return wrapper

    def biphase(func):
        def wrapper(*args, **kwargs):
            span = tracer.enter("growth.biphase")
            tracer.biphase_inputs[span.id] = np.asarray(args[0] if args else kwargs["values"], dtype=float)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.exit(span)
        return wrapper

    def writer(func):
        def wrapper(*args, **kwargs):
            return _TimedWriter(tracer, "jsonio.records_write", func(*args, **kwargs))
        return wrapper

    plan = [
        (pipeline, "parse_log_stream", parse),
        (cli, "parse_log_stream", parse),
        (cli, "read_records_jsonl", read_jsonl),
        (series, "normalize_email", normalize),
        (series, "resolve_org", leaf("identity.resolve", resolved)),
        (pipeline, "build_monthly_series", spanned("series.build", built)),
        (cli, "build_monthly_series", spanned("series.build", built)),
        (pipeline, "atomic_writer", writer),
        (cli, "atomic_writer", writer),
        (pipeline, "series_to_dict", leaf("jsonio.artifacts_write")),
        (cli, "series_to_dict", leaf("jsonio.artifacts_write")),
        (pipeline, "write_json_atomic", leaf("jsonio.artifacts_write")),
        (pipeline, "write_text_atomic", leaf("jsonio.artifacts_write")),
        (cli, "write_json_atomic", leaf("jsonio.artifacts_write")),
        (cli, "write_text_atomic", leaf("jsonio.artifacts_write")),
        (pipeline, "compute_metrics", leaf("metrics.compute")),
        (cli, "compute_metrics", leaf("metrics.compute")),
        (growth, "fit_growth", fit),
        (growth, "detect_biphase", biphase),
        (pipeline, "run_project", spanned("pipeline.project")),
    ]
    for module, attr, make in plan:
        original = getattr(module, attr, None)
        if original is not None:
            setattr(module, attr, make(original))


def hook_counts(tracer: Tracer) -> dict[str, int]:
    """Counters gathered by the hooks, completed from the ingest reports."""
    counts = dict(tracer.counts)
    parsed = sum(r.records_parsed for r in tracer.ingest_reports)
    skipped = sum(r.records_skipped for r in tracer.ingest_reports)
    counts["ingest.lines"] = parsed + skipped
    counts["ingest.records"] = parsed
    counts["ingest.skipped"] = skipped
    counts["identity.class.unknown"] = counts.get("identity.class.unknown", 0) + len(tracer.fallback_keys)
    counts["identity.unique_emails"] = counts.get("series.contributors", 0)
    counts["identity.units"] = counts.get("series.units", 0)
    return counts
