"""Acceptance gate: one check per advertised guarantee.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see them)
and enforces the wall-clock bound stated for that guarantee. Everything here
is re-derived from the built-in fixtures; nothing is mocked or sampled.
"""

import functools
import time

from omtense.extension import extend_frame, extend_prop
from omtense.fixtures import (
    builtin_frame,
    builtin_lattice,
    example2_quadruple,
    example_props,
)
from omtense.induction import classify_inducibility, induce_R3, roundtrip_frame
from omtense.lattice import check_orthomodular, meet_set, join_set
from omtense.frames import TimeFrame
from omtense.report import EXHAUSTIVE, FAIL, PASS, SKIPPED
from omtense.tense import FrameInduced, OperatorQuadruple
from omtense.verify import Instance, run_suite


def criterion(label: str, seconds: float):
    """Print one line per criterion; enforce the stated wall-clock bound."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL  {label}")
                raise
            elapsed = time.perf_counter() - start
            if elapsed > seconds:
                print(f"FAIL  {label} ({elapsed:.2f}s, limit {seconds:g}s)")
                raise AssertionError(f"{label}: took {elapsed:.2f}s, limit {seconds:g}s")
            print(f"PASS  {label} ({elapsed:.2f}s)")
        return run
    return wrap


def _names(lattice, values):
    return tuple(lattice.name_of(v) for v in values)


@criterion("example1: P/F/H/G tables reproduced cell for cell", 1.0)
def test_example1_tables():
    lattice = builtin_lattice("oml10")
    frame = builtin_frame("le5")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    props = example_props(lattice, frame)
    expected = {
        ("p", "P"): ("c'", "1", "1", "1", "1"),
        ("p", "F"): ("1", "1", "1", "1", "b'"),
        ("p", "H"): ("c'", "a", "a", "0", "0"),
        ("p", "G"): ("0", "0", "0", "c", "b'"),
        ("q", "P"): ("a", "b'", "1", "1", "1"),
        ("q", "F"): ("1", "1", "1", "1", "a'"),
        ("q", "H"): ("a", "a", "0", "0", "0"),
        ("q", "G"): ("0", "0", "0", "0", "a'"),
    }
    cells = 0
    for (pname, label), want in expected.items():
        got = _names(lattice, quad.as_dict()[label](props[pname]))
        assert got == want, (pname, label, got, want)
        cells += len(want)
    assert cells == 40  # 20 per proposition


@criterion("dynamic pairs: PG/GP tables exact, inequalities strict", 1.0)
def test_dynamic_pair_strictness():
    lattice = builtin_lattice("oml10")
    frame = builtin_frame("le5")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    props = example_props(lattice, frame)
    expected = {
        ("p", "PG"): ("0", "0", "0", "c", "b'"),
        ("p", "GP"): ("c'", "1", "1", "1", "1"),
        ("q", "PG"): ("0", "0", "0", "0", "a'"),
        ("q", "GP"): ("a", "b'", "1", "1", "1"),
    }
    for pname in ("p", "q"):
        values = props[pname]
        pg = quad.P(quad.G(values))
        gp = quad.G(quad.P(values))
        assert _names(lattice, pg) == expected[(pname, "PG")]
        assert _names(lattice, gp) == expected[(pname, "GP")]
        for lo, hi in ((pg, values), (values, gp)):
            assert all(lattice.leq[x, y] for x, y in zip(lo, hi, strict=True))
            # strict at at least one time point
            assert lo != hi


@criterion("example2: R3 induced exhaustively, starred rows, not frame-inducible", 30.0)
def test_example2_induction():
    lattice = builtin_lattice("oml10")
    points = ("1", "2", "3", "4", "5")
    quad = example2_quadruple(lattice, points)
    report = induce_R3(lattice, points, quad, jobs=1)
    assert report.mode == EXHAUSTIVE and report.samples == 10 ** 5
    want = {(0, 0), (1, 1)} | {(s, t) for s in (2, 3, 4) for t in (2, 3, 4)}
    assert set(report.pairs) == want
    starred = OperatorQuadruple.from_frame(lattice, report.frame())
    p = example_props(lattice)["p"]
    assert _names(lattice, starred.P(p)) == ("c'", "b'", "1", "1", "1")
    assert _names(lattice, starred.F(p)) == ("c'", "b'", "1", "1", "1")
    result = classify_inducibility(lattice, points, quad, jobs=1)
    assert result.verdict == "not-frame-inducible"
    assert not result.frame_induced


@criterion("roundtrip: frame -> operators -> relation -> operators, 5 lattices x 23 frames", 60.0)
def test_relation_roundtrip():
    lattices = [builtin_lattice(k) for k in ("chain2", "cube2", "cube3", "mo2", "oml10")]
    frames = []
    pts2 = ("1", "2")
    all2 = [(s, t) for s in pts2 for t in pts2]
    for bits in range(1, 16):  # every nonempty relation on two points
        rel = [all2[i] for i in range(4) if bits >> i & 1]
        frames.append(TimeFrame.from_names(f"rel2-{bits}", pts2, rel))
    pts3 = ("1", "2", "3")
    frames += [
        builtin_frame("le3"),
        TimeFrame.from_names("strict3", pts3, [("1", "2"), ("1", "3"), ("2", "3")]),
        TimeFrame.from_names("cyc3", pts3, [("1", "2"), ("2", "3"), ("3", "1")]),
        TimeFrame.from_names("succ3", pts3, [("1", "2"), ("2", "3")]),
        TimeFrame.from_names("full3", pts3, [(s, t) for s in pts3 for t in pts3]),
        TimeFrame.from_names("blocks3", pts3,
                             [(s, t) for s in ("1", "2") for t in ("1", "2")] + [("3", "3")]),
        TimeFrame.from_names("mixed3", pts3, [("1", "1"), ("2", "3"), ("3", "2")]),
        TimeFrame.from_names("rnt3", pts3,
                             [(t, t) for t in pts3] + [("1", "2"), ("2", "3")]),
    ]
    assert sum(not f.is_reflexive for f in frames) > 1
    assert sum(not f.is_transitive for f in frames) > 1
    for lattice in lattices:
        for frame in frames:
            report = roundtrip_frame(lattice, frame, jobs=1)
            assert report.verdict == PASS, (lattice.name, frame.name, report.reason)
            assert [l.law for l in report.laws] == [
                "relation-roundtrip", "P-coincides", "F-coincides",
                "H-coincides", "G-coincides"]
            assert all(l.mode == EXHAUSTIVE for l in report.laws)


@criterion("extension: 15-column pbar/Pbar/Fbar table exact, zero past/future rows", 1.0)
def test_extension_table():
    lattice = builtin_lattice("oml10")
    frame = builtin_frame("le5")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    p = example_props(lattice, frame)["p"]
    ext = extend_frame(frame)
    pbar = extend_prop(p, quad.P, quad.F)
    got_p = _names(lattice, pbar)
    got_P = _names(lattice, FrameInduced(lattice, ext.bar, "P")(pbar))
    got_F = _names(lattice, FrameInduced(lattice, ext.bar, "F")(pbar))
    assert len(got_p) == len(got_P) == len(got_F) == 15
    assert got_p == (("c'", "1", "1", "1", "1")
                     + ("c'", "b'", "c'", "a'", "b'")
                     + ("1", "1", "1", "1", "b'"))
    assert got_P == (("0",) * 5
                     + ("c'", "1", "1", "1", "1")
                     + ("c'", "b'", "c'", "a'", "b'"))
    assert got_F == (("c'", "b'", "c'", "a'", "b'")
                     + ("1", "1", "1", "1", "b'")
                     + ("0",) * 5)
    # bar points 0..4 are the past copies and 10..14 the future ones
    assert got_P[:ext.n] == ("0",) * 5
    assert got_F[2 * ext.n:] == ("0",) * 5


@criterion("algebra: Sasaki unit/adjointness/projection laws, OM forms, De Morgan", 5.0)
def test_algebraic_suites():
    inst = Instance(lattice=builtin_lattice("oml10"))
    want_laws = {"prop1": 4, "lemma1": 2, "oml-law": 4}
    for suite, count in want_laws.items():
        report = run_suite(suite, inst)
        assert report.verdict == PASS, (suite, report.reason)
        assert len(report.laws) == count
        assert all(l.verdict == PASS and l.mode == EXHAUSTIVE for l in report.laws)


@criterion("theorem suites at |T|=3, exhaustive, zero failures", 600.0)
def test_theorem_suites_exhaustive():
    lattice = builtin_lattice("oml10")
    frame_inst = Instance(lattice=lattice, frame=builtin_frame("le3"), jobs=1)
    ops_inst = Instance(lattice=lattice,
                        ops=example2_quadruple(lattice, ("1", "2", "3")), jobs=1)
    want_laws = {"thm1": 16, "thm2": 6, "thm3": 20, "demorgan": 2,
                 "thm6": 4, "thm7": 32, "cor1": 8, "ext-pf": 3, "ext-hg": 3}
    for suite, count in want_laws.items():
        report = run_suite(suite, frame_inst)
        assert report.verdict == PASS, (suite, report.reason)
        assert len(report.laws) == count, (suite, len(report.laws))
        assert all(l.verdict == PASS and l.mode == EXHAUSTIVE for l in report.laws)
        if suite == "thm3":
            ids = {l.law for l in report.laws}
            assert {"PP(q) = P(q)", "FF(q) = F(q)",
                    "HH(q) = H(q)", "GG(q) = G(q)"} <= ids
    # the same equivalence suite over the worked operator quadruple
    report = run_suite("thm6", ops_inst)
    assert report.verdict == PASS
    assert all(l.verdict == PASS and l.mode == EXHAUSTIVE for l in report.laws)


@criterion("negative controls: O6 witness, thm1 skip, P(1) != 1 without seriality", 5.0)
def test_negative_controls():
    o6 = builtin_lattice("o6")
    report = check_orthomodular(o6)
    assert report.verdict == FAIL
    w = report.witness
    named = dict(w.elements)
    x, y = named["x"], named["y"]
    assert o6.leq[x][y]
    assert join_set(o6, (x, meet_set(o6, (y, o6.comp[x])))) != y

    lattice = builtin_lattice("oml10")
    nonserial = builtin_frame("nonserial2")
    skip = run_suite("thm1", Instance(lattice=lattice, frame=nonserial))
    assert (skip.verdict, skip.reason) == (SKIPPED, "requires serial R")

    # the point with no predecessor collapses P(1) to the empty join
    quad = OperatorQuadruple.from_frame(lattice, nonserial)
    top = (lattice.top,) * nonserial.n
    assert quad.P(top) == (lattice.bottom, lattice.top)
    assert quad.P(top) != top
