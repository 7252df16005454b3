"""Law scans split over forked children against the same scan in one process.

Below ID_PATH_MAX, check_laws at jobs > 1 scans the first batches itself and
may cut the rest into contiguous ranges, each range after the first scanned
by a forked child. These tests zero the measured split cost, so the next
scan splits right after its first two batches, and build laws that fail in
chosen ranges. Every LawOutcome must equal the one at jobs=1.

On oml10 x le2 (100 propositions) a chunk of 100 makes batch b of the
exhaustive pair space the p row b, and batch b of a draw the draws
100b..100b+99. After batches 0 and 1, jobs 2 cuts batches 2..99 into
[2, 51) and [51, 100), and jobs 3 into [2, 34), [34, 67) and [67, 100).
"""

import os

import numpy as np
import pytest

from omtense import laws, tense
from omtense.fixtures import FRAME_TEXTS, LATTICE_TEXTS
from omtense.frames import parse_frame
from omtense.lattice import build_lattice, parse_lattice
from omtense.laws import App, ConstProp, IdAlgebra, Join, Law, Meet, Neg, PVar, SAnd, SImp
from omtense.laws import check_laws
from omtense.report import FAIL, ONE_SIDED, PASS
from omtense.tense import (
    DEFAULT_SEED,
    OperatorQuadruple,
    Tabulated,
    decode_props,
    encode_props,
    proposition_count,
)
from omtense.verify import Instance, run_all

CHUNK = 100
P, Q = PVar("p"), PVar("q")
MARKED = Law("marked", "leq", Meet(App("A", P), App("B", Q)), ConstProp("bottom"), ("p", "q"))


def _split(monkeypatch, cases, lattice, n_points, jobs, **kwargs):
    """check_laws with the next split scan splitting after its first two batches."""
    monkeypatch.setattr(laws, "_split_cost", 0.0)
    return check_laws(cases, lattice, n_points, jobs=jobs, chunk=CHUNK, **kwargs)


def _marker(lattice, n_points, marked, label):
    """An operator sending the propositions with the marked ids to the top
    and every other proposition to the bottom."""
    rows = decode_props(lattice, n_points, np.arange(proposition_count(lattice, n_points)))
    top, bottom = (lattice.top,) * n_points, (lattice.bottom,) * n_points
    table = {tuple(int(x) for x in row): top if i in marked else bottom
             for i, row in enumerate(rows)}
    return Tabulated(lattice, n_points, table, label)


def _marked_cases(lattice, n_points, marks):
    """Per (p ids, q ids), the case A(p) ^ B(q) <= 0, which fails exactly at
    the bindings with p and q both marked."""
    return [(MARKED, {"A": _marker(lattice, n_points, ps, "A"),
                      "B": _marker(lattice, n_points, qs, "B")}) for ps, qs in marks]


def _failing_ids(lattice, outcome):
    if outcome.verdict != FAIL:
        return None
    return tuple(int(encode_props(lattice, np.array(outcome.witness_env[v]))) for v in "pq")


def test_exhaustive_split_takes_the_earliest_range(monkeypatch, forks, oml10, le2):
    marks = [
        ({1}, {0}),        # in the first batches, before any split
        ({20}, {5}),       # the first range
        ({60}, {7}),       # the last range at jobs 2, a middle one at jobs 3
        ({50}, {9}),       # the end of the first range at jobs 2
        ({99}, {99}),      # the last batch
        ({40, 95}, {3}),   # two ranges: the first at jobs 2, a middle one at jobs 3
        ({60, 90}, {2}),   # two children's ranges at jobs 3
        (set(), {1}),      # never fails
    ]
    cases = _marked_cases(oml10, le2.n, marks)
    want = check_laws(cases, oml10, le2.n, chunk=CHUNK)
    assert not forks
    assert [_failing_ids(oml10, o) for o in want] == [
        (1, 0), (20, 5), (60, 7), (50, 9), (99, 99), (40, 3), (60, 2), None]
    assert want[-1].verdict == PASS
    for jobs in (2, 3):
        forks.clear()
        assert _split(monkeypatch, cases, oml10, le2.n, jobs) == want, jobs
        assert forks == ["omtense.laws"] * (jobs - 1)


def test_sampled_split_takes_the_earliest_range(monkeypatch, forks, oml10, le2):
    count, cap = proposition_count(oml10, le2.n), 9000
    ps, qs = (col.astype(int) for col in laws._pair_draw_ids(count, cap, DEFAULT_SEED))
    # 90 batches of 100 draws; pick draws in the first, a middle and the last range
    picks = {"first": 1005, "middle": 4520, "last": 8950, "early": 150}
    marks = [({ps[d]}, {qs[d]}) for d in picks.values()]
    marks.append(({ps[picks["middle"]], ps[picks["last"]]},
                  {qs[picks["middle"]], qs[picks["last"]]}))
    marks.append((set(), {0}))
    cases = _marked_cases(oml10, le2.n, marks)
    want = check_laws(cases, oml10, le2.n, pair_budget=cap, chunk=CHUNK)
    assert not forks
    first = []
    for (mp, mq), outcome in zip(marks, want):
        hits = np.flatnonzero(np.isin(ps, list(mp)) & np.isin(qs, list(mq)))
        first.append(int(hits[0]) if hits.size else None)
        assert _failing_ids(oml10, outcome) == \
            (None if not hits.size else (ps[hits[0]], qs[hits[0]]))
    assert first[:4] == list(picks.values())  # each pair is drawn once
    assert first[4] == picks["middle"] and first[5] is None
    assert want[-1].verdict == ONE_SIDED
    for jobs in (2, 3):
        forks.clear()
        got = _split(monkeypatch, cases, oml10, le2.n, jobs, pair_budget=cap)
        assert got == want, jobs
        assert forks == ["omtense.laws"] * (jobs - 1)


@pytest.mark.parametrize("how", ["exit", "raise"])
def test_a_child_that_does_not_report_is_rescanned(monkeypatch, forks, oml10, le2, how):
    cases = _marked_cases(oml10, le2.n, [({20}, {5}), ({60}, {7}), ({99}, {1}), (set(), {1})])
    want = check_laws(cases, oml10, le2.n, chunk=CHUNK)
    parent, real = os.getpid(), laws._Subterms.scan

    def scan(self, batches, bad=None):
        if os.getpid() != parent:
            if how == "exit":
                os._exit(0)
            raise RuntimeError("a child fails")
        return real(self, batches, bad)

    monkeypatch.setattr(laws._Subterms, "scan", scan)
    for jobs in (2, 3):
        forks.clear()
        assert _split(monkeypatch, cases, oml10, le2.n, jobs) == want
        assert len(forks) == jobs - 1


def test_children_are_killed_once_every_case_failed(monkeypatch, forks, oml10, le2):
    cases = _marked_cases(oml10, le2.n, [({20}, {5}), ({3, 70}, {7})])
    want = check_laws(cases, oml10, le2.n, chunk=CHUNK)
    assert _split(monkeypatch, cases, oml10, le2.n, 3) == want
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_in_process_without_fork_or_when_a_split_costs_too_much(monkeypatch, forks, oml10, le2):
    cases = _marked_cases(oml10, le2.n, [({60}, {7}), (set(), {1})])
    want = check_laws(cases, oml10, le2.n, chunk=CHUNK)
    monkeypatch.setattr(laws, "_split_cost", 1e9)
    assert check_laws(cases, oml10, le2.n, jobs=2, chunk=CHUNK) == want
    monkeypatch.delattr(os, "fork")
    assert _split(monkeypatch, cases, oml10, le2.n, 2) == want
    assert not forks


def _fresh_instance():
    """oml10 x le3 on a lattice no operator map or table has been built for."""
    lattice = build_lattice(parse_lattice(LATTICE_TEXTS["oml10"]))
    return lattice, parse_frame(FRAME_TEXTS["le3"])


def _refuse(*args, **kwargs):
    raise AssertionError("built after the first batch")


def test_the_first_batch_builds_all_a_scan_reads(monkeypatch):
    lattice, frame = _fresh_instance()
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    A = quad["P"]
    laws_ = [
        Law("neg", "leq", Neg(App("A", SAnd(P, Q))), Join(Neg(P), ConstProp("top")), ("p", "q")),
        Law("simp", "eq", App("A", SImp(P, Q)), SImp(App("A", P), App("A", Q)), ("p", "q")),
        Law("meet", "leq", Meet(App("A", P), ConstProp("bottom")), Q, ("p", "q"),
            guard=(P, Q)),
    ]
    cases = [(law, {"A": A}) for law in laws_]
    count = proposition_count(lattice, frame.n)
    core = IdAlgebra(lattice, frame.n)
    subterms = laws._Subterms(core, cases)
    head = subterms.scan(laws._exhaustive_batches(core, 2, count, laws.ID_CHUNK, slice(0, 1)))
    for module, name in ((laws, "block_table"), (laws, "rows_id_map"), (tense, "rows_id_map")):
        monkeypatch.setattr(module, name, _refuse)
    bad = subterms.scan(laws._exhaustive_batches(core, 2, count, laws.ID_CHUNK, slice(1, None)),
                        head)
    # a fresh algebra would have to build its tables in the scan
    fresh = IdAlgebra(lattice, frame.n)
    with pytest.raises(AssertionError, match="built after"):
        laws._Subterms(fresh, cases).scan(laws._exhaustive_batches(fresh, 2, count, laws.ID_CHUNK))
    monkeypatch.undo()
    want = check_laws(cases, lattice, frame.n)
    assert [o.verdict for o in want] == [PASS, FAIL, PASS]
    assert [b >= 0 for b in bad] == [o.verdict == FAIL for o in want]
    for i, outcome in zip(bad, want):
        if i >= 0:
            assert divmod(i, count) == _failing_ids(lattice, outcome)


def test_children_build_nothing(monkeypatch, forks, tmp_path):
    # every table and operator map is built by the calling process, so a
    # traced --jobs 2 run counts what a --jobs 1 run counts
    lattice, frame = _fresh_instance()
    log = tmp_path / "builders"

    def logged(real):
        def build(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)
        return build

    for module, name in ((laws, "block_table"), (laws, "rows_id_map"), (tense, "rows_id_map")):
        monkeypatch.setattr(module, name, logged(getattr(module, name)))
    monkeypatch.setattr(laws, "_split_cost", 0.0)
    split = run_all(Instance(lattice, frame=frame, jobs=2))
    assert forks and set(forks) == {"omtense.laws"}
    assert set(log.read_text().split()) == {str(os.getpid())}
    alone = run_all(Instance(lattice, frame=frame))
    assert [r.to_json() for r in split] == [r.to_json() for r in alone]
