"""Tests of the benchmark's own logic: reporting, spans, hooks and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_omtense()

from omtense import fixtures  # noqa: E402
from omtense import induction, verify  # noqa: E402
from omtense.tense import FrameInduced, OperatorQuadruple, compose  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- percentile and sample-count reporting -----------------------------------------

@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (40, 75),
                                  (100, 90), (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, p):
    values = [float(i) for i in range(1, n + 1)]
    tail = run.tail_percentile(values)
    if p is None:
        assert tail is None
    else:
        assert tail[0] == p
        beyond = sum(1 for v in values if v > tail[1])
        assert beyond >= 10


def test_describe_states_median_and_sample_count():
    assert run.describe([3.0, 1.0, 2.0], "s") == \
        "median 2 s over n=3 (too few samples for a tail percentile)"
    text = run.describe([float(i) for i in range(100)], "s")
    assert text.startswith("median 49.5 s over n=100, p90 ")


def test_unit_of_metric_names():
    assert run.unit_of("verify.suite.thm7_s") == "s"
    assert run.unit_of("pool.s") == "s"
    assert run.unit_of("tense.apply.distinct_frac") == "ratio"
    assert run.unit_of("pool.starts") == "count"


# -- spans and self time ------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    a = tracer.begin("a")            # 0 .. 10
    clock.t = 1
    b = tracer.begin("b")            # 1 .. 4
    clock.t = 2
    c = tracer.begin("c")            # 2 .. 3
    clock.t = 3
    tracer.end(c)
    clock.t = 4
    tracer.end(b)
    clock.t = 5
    d = tracer.begin("d")            # 5 .. 6
    clock.t = 6
    tracer.end(d)
    clock.t = 10
    tracer.end(a)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [6, 2, 1, 1]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("a", 0, 10, -1), tracing.Span("b", 1, 5, 0),
             tracing.Span("c", 3, 7, 0)]
    assert tracing.self_times(spans)[0] == 4


def test_paused_clock_hides_bookkeeping():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    a = tracer.begin("a")

    def bookkeeping():
        clock.t += 5
    tracer.off_clock(bookkeeping)
    clock.t += 1
    tracer.end(a)
    assert tracer.spans[0].end - tracer.spans[0].start == 1


def test_pass_metrics_unaccounted_and_suite_totals():
    spans = [tracing.Span("verify.suite.thm7", 1, 5, -1),
             tracing.Span("laws.check", 2, 4, 0),
             tracing.Span("lattice.build", 6, 7, -1)]
    m = tracing.pass_metrics(spans, Counter(), pass_s=10)
    assert m["verify.suite.thm7_s"] == 4
    assert m["laws.self_s"] == 2
    assert m["lattice.build_s"] == 1
    assert m["trace.unaccounted_s"] == 5
    assert m["tense.apply.distinct_frac"] == 0.0


def test_composed_apply_is_nesting_aware():
    lattice = fixtures.builtin_lattice("cube2")
    frame = fixtures.builtin_frame("le2")
    op = compose(FrameInduced(lattice, frame, "P"), FrameInduced(lattice, frame, "G"))
    batch = np.array([[0, 1], [1, 2], [0, 1]], dtype=np.int16)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        op.apply_batch(batch)
    names = [s.name for s in tracer.spans]
    assert names == ["tense.apply.composed", "tense.apply.frame", "tense.apply.frame"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    selfs = tracing.self_times(tracer.spans)
    whole = tracer.spans[0].end - tracer.spans[0].start
    assert selfs[0] == pytest.approx(whole - selfs[1] - selfs[2])
    m = tracing.pass_metrics(tracer.spans, tracer.counts, pass_s=whole)
    assert m["tense.apply.calls"] == 2
    assert m["tense.apply.rows"] == 6          # leaf operators only
    assert m["tense.apply.distinct_frac"] == pytest.approx(4 / 6)


def test_induce_r3_spans_contain_r1_and_r2():
    lattice = fixtures.builtin_lattice("cube2")
    frame = fixtures.builtin_frame("le2")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        induction.induce_R3(lattice, frame.points, quad)
    found = [i for i, s in enumerate(tracer.spans) if s.name == "induction"]
    assert len(found) == 3
    r3, r1, r2 = found
    assert tracer.spans[r3].parent == -1
    assert tracer.spans[r1].parent == r3 and tracer.spans[r2].parent == r3
    selfs = tracing.self_times(tracer.spans)
    assert selfs[r3] < tracer.spans[r3].end - tracer.spans[r3].start


def test_star_inequalities_spans_contain_check_law():
    lattice = fixtures.builtin_lattice("cube2")
    frame = fixtures.builtin_frame("le2")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        verify.check_star_inequalities(lattice, frame.points, quad)
    top = tracer.spans[0]
    assert top.name == "induction" and top.parent == -1
    checks = [s for s in tracer.spans if s.name == "laws.check"]
    assert len(checks) == 8
    assert all(s.parent == 0 for s in checks)
    assert tracer.counts["laws.exhaustive_checks"] == 8


# -- hook table ---------------------------------------------------------------------

def test_missing_hook_target_is_reported_absent():
    hooks = (("omtense.tense", "NoSuchOperator.apply_batch", "tense.apply.frame", None),
             ("omtense.no_such_module", "scan", "tense.enum", None),
             ("omtense.laws", "no_such_function", "laws.check", None),
             ("omtense.laws", "check_law", "laws.check", None))
    from omtense import laws
    original = laws.check_law
    tracer = tracing.Tracer()
    with tracing.install(tracer, hooks) as installed:
        assert installed.absent == ["omtense.tense.NoSuchOperator.apply_batch",
                                    "omtense.no_such_module.scan",
                                    "omtense.laws.no_such_function"]
        assert laws.check_law is not original
    assert laws.check_law is original


def test_every_hook_target_exists_and_is_restored():
    from omtense import laws, tense
    before = (tense.FrameInduced.apply_batch, laws.ProcessPoolExecutor, laws.check_law)
    tracer = tracing.Tracer()
    with tracing.install(tracer) as installed:
        assert installed.absent == []
        assert tense.FrameInduced.apply_batch is not before[0]
    assert (tense.FrameInduced.apply_batch, laws.ProcessPoolExecutor,
            laws.check_law) == before


def test_distinct_rows_on_every_path():
    small = np.array([[0, 1], [0, 1], [2, 0]], dtype=np.int16)
    assert tracing.distinct_rows(small) == 2
    wide = np.array([[9] * 9, [9] * 9, [0] * 9], dtype=np.int16)   # 10^9 ids
    assert tracing.distinct_rows(wide) == 2
    huge = np.array([[9] * 30, [8] * 30, [9] * 30], dtype=np.int16)  # beyond int64
    assert tracing.distinct_rows(huge) == 2
    assert tracing.distinct_rows(np.empty((0, 3), dtype=np.int16)) == 0


# -- output checks ------------------------------------------------------------------

@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(workloads.WORKLOADS["quadruples"])


def _as_output(reference) -> workloads.PassOutput:
    return workloads.PassOutput([c["exit"] for c in reference["commands"]],
                                [c["stdout"] for c in reference["commands"]],
                                list(reference["replays"]))


def test_reference_output_passes(reference):
    out = _as_output(reference)
    assert workloads.check_pass(out, reference, workloads.REFERENCE_SEED) == []
    assert workloads.check_pass(out, reference, 7) == []


def test_one_byte_change_fails_the_pass(reference):
    out = _as_output(reference)
    text = out.stdouts[1]
    i = text.index('"verdict"') + 1
    out.stdouts[1] = text[:i] + "V" + text[i + 1:]
    problems = workloads.check_pass(out, reference, workloads.REFERENCE_SEED)
    assert problems == ["command 1: stdout differs from the reference"]


def test_changed_replay_or_exit_code_fails_the_pass(reference):
    out = _as_output(reference)
    out.replays[0] += " "
    assert workloads.check_pass(out, reference, workloads.REFERENCE_SEED) == \
        ["replay 0 differs from the reference"]
    out = _as_output(reference)
    out.exits[4] = 0
    assert workloads.check_pass(out, reference, 7) == \
        ["command 4: exit code 0, expected 1"]


def test_other_seed_compares_verdicts_not_bytes(reference):
    out = _as_output(reference)
    out.stdouts[4] = out.stdouts[4].replace('"seed": 1729', '"seed": 7')
    assert workloads.check_pass(out, reference, 7) == []
    flipped = copy.deepcopy(out)
    flipped.stdouts[4] = flipped.stdouts[4].replace('"verdict": "pass"', '"verdict": "fail"', 1)
    assert workloads.check_pass(flipped, reference, 7) == \
        ["command 4: verdicts differ from the reference"]


def test_jobs2_output_must_equal_jobs1_bytes(reference):
    out = _as_output(reference)
    same_as = list(out.stdouts)
    same_as[0] += "\n"
    assert workloads.check_pass(out, reference, 7, same_as) == \
        ["command 0: stdout differs from the jobs 1 output"]


def test_raising_command_fails_the_pass(reference):
    out = workloads.PassOutput([], [], [], error="Traceback ...")
    assert workloads.check_pass(out, reference, 7) == ["a command raised:\nTraceback ..."]


def test_cases_sums_samples_over_json_lines():
    stdout = ('{"suite": "a", "verdict": "pass", "laws": [{"law": "x", "verdict": "pass", '
              '"mode": "exhaustive", "samples": 5}, {"law": "y", "verdict": "pass", '
              '"mode": "exhaustive"}]}\nverdict: frame-induced\n'
              '{"suite": "b", "verdict": "pass", "laws": [{"law": "z", "verdict": "pass", '
              '"mode": "sampled", "samples": 7}]}\n')
    assert workloads.cases(stdout) == 12
    assert len(workloads.verdicts(stdout)) == 3


def test_benchmark_json_lists_what_the_runner_reports():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    layer = tracing.pass_metrics([], Counter(), pass_s=1.0)
    assert [m["name"] for m in bench["per_layer"]] == [*layer, "trace.overhead_frac"]
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["verify_s", "cases_per_s", "setup_s", "peak_rss_mb"]
