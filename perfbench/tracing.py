"""Layer spans for the traced benchmark run.

The benchmark never edits the program. Instead it wraps the public entry
points of each module in the namespace where callers look them up (the hook
table below), records one span per call in memory and turns the spans into
per-layer metrics after the pass. A layer's self time is its span time minus
the part of that interval covered by its child spans.

Bookkeeping done inside a wrapper (row and distinct-row counts) runs on a
paused clock, so it inflates neither the span it belongs to nor any parent.
Worker processes of a pool inherit the wrappers when they fork; there the
wrappers pass straight through, because their spans would be lost anyway.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index into Tracer.spans, -1 at top level


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused = 0.0
        self._stack: list[int] = []
        self._pid = os.getpid()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()

    def now(self) -> float:
        return self._clock() - self._paused

    def active(self) -> bool:
        return os.getpid() == self._pid

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.now(), None, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.now()

    def off_clock(self, fn, *args):
        """Run bookkeeping with the clock stopped."""
        t0 = self._clock()
        try:
            return fn(*args)
        finally:
            self._paused += self._clock() - t0


# -- counters -----------------------------------------------------------------

def distinct_rows(batch: np.ndarray) -> int:
    """Number of distinct rows of a 2-D array of small non-negative ints."""
    if batch.shape[0] == 0:
        return 0
    base = int(batch.max()) + 1
    width = batch.shape[1]
    if base ** width <= 1 << 22:
        ids = batch.astype(np.int64) @ (base ** np.arange(width, dtype=np.int64))
        return int(np.count_nonzero(np.bincount(ids, minlength=base ** width)))
    if base ** width < 1 << 62:
        ids = batch.astype(np.int64) @ (base ** np.arange(width, dtype=np.int64))
        return len(np.unique(ids))
    return len(np.unique(batch, axis=0))


def _count_apply(counts, args, kwargs, result) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    counts["tense.apply.rows"] += batch.shape[0]
    counts["tense.apply.distinct"] += distinct_rows(batch)


def _count_enum(counts, args, kwargs, result) -> None:
    counts["tense.enum.rows"] += result.shape[0]


def _count_sasaki(counts, args, kwargs, result) -> None:
    counts["sasaki.rows"] += result.shape[0]


def _count_check(counts, args, kwargs, result) -> None:
    counts[f"laws.{result.mode}_checks"] += 1


# -- hook table -----------------------------------------------------------------

# (module, attribute where callers look the target up, layer, counter).
# A name bound in several modules is wrapped in each, because each module
# calls through its own binding. Targets that no longer exist are reported as
# absent by install().
HOOKS = (
    ("omtense.verify", "run_suite", "verify.suite", None),
    ("omtense.tense", "FrameInduced.apply_batch", "tense.apply.frame", _count_apply),
    ("omtense.tense", "IdentityElseConstant.apply_batch", "tense.apply.rule", _count_apply),
    ("omtense.tense", "Tabulated.apply_batch", "tense.apply.table", _count_apply),
    ("omtense.tense", "Composed.apply_batch", "tense.apply.composed", None),
    ("omtense.tense", "proposition_block", "tense.enum", _count_enum),
    ("omtense.tense", "sampled_block", "tense.enum", _count_enum),
    ("omtense.laws", "proposition_block", "tense.enum", _count_enum),
    ("omtense.laws", "sampled_block", "tense.enum", _count_enum),
    ("omtense.induction", "proposition_block", "tense.enum", _count_enum),
    ("omtense.induction", "sampled_block", "tense.enum", _count_enum),
    ("omtense.extension", "proposition_block", "tense.enum", _count_enum),
    ("omtense.extension", "sampled_block", "tense.enum", _count_enum),
    ("omtense.tense", "op_leq_counterexample", "tense.compare", None),
    ("omtense.induction", "ops_equal", "tense.compare", None),
    ("omtense.laws", "sasaki_and_batch", "sasaki", _count_sasaki),
    ("omtense.laws", "sasaki_imp_batch", "sasaki", _count_sasaki),
    ("omtense.verify", "check_law", "laws.check", _count_check),
    ("omtense.laws", "check_law", "laws.check", _count_check),
    ("omtense.verify", "build_witness", "laws.witness", None),
    ("omtense.laws", "build_witness", "laws.witness", None),
    ("omtense.induction", "induce_R1", "induction", None),
    ("omtense.induction", "induce_R2", "induction", None),
    ("omtense.induction", "induce_R3", "induction", None),
    ("omtense.extension", "induce_R1", "induction", None),
    ("omtense.extension", "induce_R2", "induction", None),
    ("omtense.verify", "roundtrip_frame", "induction", None),
    ("omtense.verify", "check_star_inequalities", "induction", None),
    ("omtense.cli", "induce_R1", "induction", None),
    ("omtense.cli", "induce_R2", "induction", None),
    ("omtense.cli", "induce_R3", "induction", None),
    ("omtense.cli", "roundtrip_frame", "induction", None),
    ("omtense.cli", "classify_inducibility", "induction.classify", None),
    ("omtense.verify", "check_extension_PF", "extension", None),
    ("omtense.verify", "check_extension_HG", "extension", None),
    ("omtense.cli", "parse_lattice", "lattice.build", None),
    ("omtense.cli", "build_lattice", "lattice.build", None),
    ("omtense.cli", "check_orthomodular", "lattice.elements", None),
    ("omtense.lattice", "orthomodular_witness", "lattice.elements", None),
    ("omtense.verify", "orthomodular_witness", "lattice.elements", None),
    ("omtense.verify", "orthomodular_witness_dual", "lattice.elements", None),
    ("omtense.verify", "de_morgan_witness", "lattice.elements", None),
    ("omtense.verify", "connective_tables", "lattice.elements", None),
    ("omtense.report", "VerifyReport.to_json", "report.emit", None),
    ("omtense.report", "VerifyReport.render_text", "report.emit", None),
    ("omtense.verify", "replay_witness", "report.replay", None),
    ("omtense.laws", "ProcessPoolExecutor", "pool", None),
    ("omtense.induction", "ProcessPoolExecutor", "pool", None),
    ("omtense.extension", "ProcessPoolExecutor", "pool", None),
)


def _wrap(tracer: Tracer, original, layer: str, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return original(*args, **kwargs)
        name = f"{layer}.{args[0]}" if layer == "verify.suite" else layer
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            tracer.off_clock(counter, tracer.counts, args, kwargs, result)
        return result
    return wrapper


def _pool_class(tracer: Tracer, base: type) -> type:
    """The executor class with starts, mapped tasks and its `with` block traced."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if tracer.active():
                tracer.counts["pool.starts"] += 1

        def __enter__(self):
            if tracer.active():
                self._span = tracer.begin("pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if getattr(self, "_span", None) is not None:
                    tracer.end(self._span)
                    self._span = None

        def map(self, fn, *iterables, **kwargs):
            iterables = [list(it) for it in iterables]
            if tracer.active() and iterables:
                tracer.counts["pool.tasks"] += len(iterables[0])
            return super().map(fn, *iterables, **kwargs)

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


class Installed:
    """Wrappers in place; restore() puts every original back."""

    def __init__(self, restores, absent):
        self._restores = restores
        self.absent: list[str] = absent

    def restore(self) -> None:
        for holder, attr, original in reversed(self._restores):
            setattr(holder, attr, original)
        self._restores = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _resolve(module_name: str, dotted: str):
    """(object holding the last name, last name, current value) or None."""
    try:
        holder = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        holder = getattr(holder, part, None)
        if holder is None:
            return None
    if attr not in vars(holder):
        return None
    return holder, attr, vars(holder)[attr]


def install(tracer: Tracer, hooks=HOOKS) -> Installed:
    restores, absent = [], []
    for module_name, dotted, layer, counter in hooks:
        found = _resolve(module_name, dotted)
        if found is None:
            absent.append(f"{module_name}.{dotted}")
            continue
        holder, attr, original = found
        if layer == "pool":
            replacement = _pool_class(tracer, original)
        else:
            replacement = _wrap(tracer, original, layer, counter)
        setattr(holder, attr, replacement)
        restores.append((holder, attr, original))
    return Installed(restores, absent)


# -- spans to metrics -------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        inside = [(max(s, span.start), min(e, span.end))
                  for s, e in children.get(i, ()) if s < span.end and e > span.start]
        out.append(span.end - span.start - _covered(inside))
    return out


# The suite metric names are part of the benchmark's contract, so they are
# fixed here rather than read from omtense.verify.SUITE_IDS.
SUITE_IDS = ("thm1","thm2", "thm3", "prop1", "lemma1", "thm6", "thm7",
             "thm4-roundtrip", "cor1", "ext-pf", "ext-hg", "demorgan", "oml-law")

# metric -> layers whose self time it sums
SELF_TIME_METRICS = {
    "tense.apply.self_s": ("tense.apply.frame", "tense.apply.rule", "tense.apply.table",
                           "tense.apply.composed"),
    "tense.apply.frame_s": ("tense.apply.frame",),
    "tense.apply.rule_s": ("tense.apply.rule",),
    "tense.apply.table_s": ("tense.apply.table",),
    "tense.enum.self_s": ("tense.enum",),
    "tense.compare.self_s": ("tense.compare",),
    "sasaki.self_s": ("sasaki",),
    "laws.self_s": ("laws.check",),
    "laws.witness_s": ("laws.witness",),
    "induction.self_s": ("induction",),
    "induction.classify_s": ("induction.classify",),
    "extension.self_s": ("extension",),
    "lattice.build_s": ("lattice.build",),
    "lattice.elements_s": ("lattice.elements",),
    "report.emit_s": ("report.emit",),
    "report.replay_s": ("report.replay",),
    "pool.s": ("pool",),
}

# metric -> layers whose span count it is
CALL_METRICS = {
    "tense.apply.calls": ("tense.apply.frame", "tense.apply.rule", "tense.apply.table"),
    "tense.enum.calls": ("tense.enum",),
    "sasaki.calls": ("sasaki",),
    "laws.checks": ("laws.check",),
    "induction.calls": ("induction", "induction.classify"),
    "extension.calls": ("extension",),
    "report.replays": ("report.replay",),
}

COUNT_METRICS = ("tense.apply.rows", "tense.enum.rows", "sasaki.rows",
                 "laws.exhaustive_checks", "laws.sampled_checks",
                 "pool.starts", "pool.tasks")


def pass_metrics(spans: list[Span], counts: Counter, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that lasted pass_s on the tracer clock."""
    selfs = self_times(spans)
    by_layer_self: Counter = Counter()
    by_layer_calls: Counter = Counter()
    suite_s: Counter = Counter()
    for span, own in zip(spans, selfs):
        by_layer_self[span.name] += own
        by_layer_calls[span.name] += 1
        if span.name.startswith("verify.suite."):
            suite_s[span.name[len("verify.suite."):]] += span.end - span.start
    out: dict[str, float] = {}
    for suite in SUITE_IDS:
        out[f"verify.suite.{suite}_s"] = suite_s[suite]
    for metric, layers in SELF_TIME_METRICS.items():
        out[metric] = float(sum(by_layer_self[layer] for layer in layers))
    for metric, layers in CALL_METRICS.items():
        out[metric] = sum(by_layer_calls[layer] for layer in layers)
    for metric in COUNT_METRICS:
        out[metric] = counts[metric]
    rows = counts["tense.apply.rows"]
    out["tense.apply.distinct_frac"] = counts["tense.apply.distinct"] / rows if rows else 0.0
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    out["trace.unaccounted_s"] = pass_s - _covered(top)
    return out


def share_within(spans: list[Span], suite: str) -> dict[str, float]:
    """Share of the suite's span time spent in each layer's self time."""
    selfs = self_times(spans)
    root_of: list[int] = []
    total = 0.0
    shares: Counter = Counter()
    for i, span in enumerate(spans):
        if span.name == f"verify.suite.{suite}":
            root_of.append(i)
            total += span.end - span.start
        elif span.parent >= 0:
            root_of.append(root_of[span.parent])
        else:
            root_of.append(-1)
    for i, span in enumerate(spans):
        if root_of[i] >= 0 and spans[root_of[i]].name == f"verify.suite.{suite}":
            shares[span.name.split(".suite.")[0]] += selfs[i]
    return {layer: own / total for layer, own in shares.items()} if total else {}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
