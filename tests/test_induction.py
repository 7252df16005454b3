from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import converse_cases
import oracles
from omtense import cli, extension, induction, laws
from omtense import (
    Classification,
    EmptyRestriction,
    FrameInduced,
    IdentityElseConstant,
    OperatorQuadruple,
    TenseOperator,
    UnknownTimePoint,
    check_star_inequalities,
    classify_inducibility,
    induce_R1,
    induce_R2,
    induce_R3,
    roundtrip_frame,
)
from omtense.fixtures import LATTICE_TEXTS, builtin_lattice, example2_quadruple, example_props
from omtense.report import EXHAUSTIVE, FAIL, SAMPLED
from omtense.tense import DEFAULT_SEED, decode_props, proposition_count
from omtense.verify import Instance, run_all

T5 = ("1", "2", "3", "4", "5")

# the 5-point worked quadruple induces these relations (index pairs)
EX2_R1 = {(0, 0)} | {(1, t) for t in range(5)} | \
    {(s, t) for s in (2, 3, 4) for t in (0, 2, 3, 4)}
EX2_R2 = {(0, t) for t in range(5)} | {(1, 1)} | \
    {(s, t) for s in (2, 3, 4) for t in (1, 2, 3, 4)}
EX2_R3 = {(0, 0), (1, 1)} | {(s, t) for s in (2, 3, 4) for t in (2, 3, 4)}


def test_worked_quadruple_relations(oml10, ex2_quad):
    r1 = induce_R1(oml10, T5, ex2_quad.P, ex2_quad.F)
    r2 = induce_R2(oml10, T5, ex2_quad.H, ex2_quad.G)
    r3 = induce_R3(oml10, T5, ex2_quad)
    assert r1.mode == r2.mode == r3.mode == EXHAUSTIVE
    assert r1.samples == 10 ** 5
    assert set(r1.pairs) == EX2_R1
    assert set(r2.pairs) == EX2_R2
    assert set(r3.pairs) == EX2_R3


def test_worked_quadruple_star_rows(oml10, ex2_quad, names):
    r3 = induce_R3(oml10, T5, ex2_quad)
    starred = OperatorQuadruple.from_frame(oml10, r3.frame())
    p = example_props(oml10)["p"]
    assert names(oml10, ex2_quad.P(p)) == ("1", "b'", "1", "1", "1")
    assert names(oml10, ex2_quad.F(p)) == ("c'", "1", "1", "1", "1")
    assert names(oml10, starred.P(p)) == ("c'", "b'", "1", "1", "1")
    assert names(oml10, starred.F(p)) == ("c'", "b'", "1", "1", "1")


def test_witnesses_violate_and_cover_excluded_pairs(oml10, ex2_quad):
    r1 = induce_R1(oml10, T5, ex2_quad.P, ex2_quad.F)
    excluded = {(s, t) for s in range(5) for t in range(5)} - set(r1.pairs)
    assert set(r1.witnesses) == excluded
    for (s, t), w in r1.witnesses.items():
        assert not oml10.leq[w.lhs, w.rhs]
        if w.inequality == "q(s) <= P(q)(t)":
            assert (w.lhs, w.rhs) == (w.q[s], ex2_quad.P(w.q)[t])
        else:
            assert (w.lhs, w.rhs) == (w.q[t], ex2_quad.F(w.q)[s])


def _apply_ops(quad):
    return (lambda q: quad.P(q), lambda q: quad.F(q),
            lambda q: quad.H(q), lambda q: quad.G(q))


@pytest.mark.parametrize("frame_name", ["le2", "nonserial2"])
def test_relations_match_literal_quantifier(cube2, frame_name, request):
    # small enough for the plain-loop oracle to sweep every proposition
    frame = request.getfixturevalue(frame_name)
    quad = OperatorQuadruple.from_frame(cube2, frame)
    props = oracles.all_props(cube2.n, frame.n)
    leq = [[bool(cube2.leq[x, y]) for y in range(cube2.n)] for x in range(cube2.n)]
    P, F, H, G = _apply_ops(quad)
    want_r1, _ = oracles.induced_R1(props, leq, P, F, frame.n)
    want_r2, _ = oracles.induced_R2(props, leq, H, G, frame.n)
    assert set(induce_R1(cube2, frame.points, quad.P, quad.F).pairs) == want_r1
    assert set(induce_R2(cube2, frame.points, quad.H, quad.G).pairs) == want_r2


def test_witness_minimality_against_oracle(cube2, le2):
    # arbitrary non-frame ops: identity at point 1, constant a elsewhere
    a = cube2.index_of("a")
    op = IdentityElseConstant(cube2, 2, frozenset({0}), a, label="S")
    quad = OperatorQuadruple(op, op, op, op)
    report = induce_R1(cube2, le2.points, quad.P, quad.F)
    props = oracles.all_props(cube2.n, 2)
    # oracle enumeration must be rebased to odometer order (bottom first)
    order = [cube2.bottom] + [i for i in range(cube2.n) if i != cube2.bottom]
    odometer = [(order[i], order[j]) for i in range(cube2.n) for j in range(cube2.n)]
    for (s, t), w in report.witnesses.items():
        first = next(q for q in odometer
                     if not (cube2.leq[q[s], op(q)[t]] and cube2.leq[q[t], op(q)[s]]))
        assert w.q == first


def test_frame_induced_ops_recover_the_frame(oml10, le3, blocks5, nonserial2):
    for frame in (le3, blocks5, nonserial2):
        quad = OperatorQuadruple.from_frame(oml10, frame)
        for report in (induce_R1(oml10, frame.points, quad.P, quad.F),
                       induce_R2(oml10, frame.points, quad.H, quad.G),
                       induce_R3(oml10, frame.points, quad)):
            assert set(report.pairs) == frame.rel
            assert report.frame() == frame


def test_point_count_mismatch_rejected(oml10, ex2_quad):
    with pytest.raises(UnknownTimePoint):
        induce_R1(oml10, ("1", "2"), ex2_quad.P, ex2_quad.F)


def test_classify_frame_quadruple(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    got = classify_inducibility(oml10, le3.points, quad)
    assert isinstance(got, Classification)
    assert got.verdict == "frame-induced" and got.frame_induced
    assert got.witness is None
    assert got.relation.frame() == le3


def test_classify_worked_quadruple(oml10, ex2_quad):
    got = classify_inducibility(oml10, T5, ex2_quad)
    assert got.verdict == "not-frame-inducible" and not got.frame_induced
    w = got.witness
    assert w.kind == "op-mismatch" and w.law == "frame-inducibility"
    # all-bottom is already a counterexample: P sends it to top off the
    # special point, the frame-induced candidate keeps it at bottom
    assert w.props == (("q", (0, 0, 0, 0, 0)),)
    assert dict(w.ops)["P"] == "P"
    assert (w.point, w.lhs, w.rhs) == (0, oml10.top, oml10.bottom)


def test_classify_empty_relation_quadruple(oml10, le3):
    bottom = IdentityElseConstant(oml10, 3, frozenset(), oml10.bottom, label="B")
    quad = OperatorQuadruple(bottom, bottom, bottom, bottom)
    got = classify_inducibility(oml10, le3.points, quad)
    assert got.verdict == "not-frame-inducible"
    assert not got.relation.pairs
    with pytest.raises(EmptyRestriction):
        got.relation.frame()
    # H over the empty relation is constantly top, the given H constantly bottom
    assert dict(got.witness.ops)["H"] == "H"


def test_sampled_relation_is_a_superset(oml10, ex2_quad):
    exact = induce_R3(oml10, T5, ex2_quad)
    sampled = induce_R3(oml10, T5, ex2_quad, budget=3000)
    assert sampled.mode == SAMPLED
    assert set(sampled.pairs) >= set(exact.pairs)


def test_enlarging_P_enlarges_R1(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    top = IdentityElseConstant(oml10, 3, frozenset(), oml10.top, label="T")
    small = induce_R1(oml10, le3.points, quad.P, quad.F)
    large = induce_R1(oml10, le3.points, top, top)
    assert set(large.pairs) >= set(small.pairs)
    assert set(large.pairs) == {(s, t) for s in range(3) for t in range(3)}


def test_star_inequalities_on_worked_quadruple(oml10, ex2_quad):
    report = check_star_inequalities(oml10, T5, ex2_quad)
    assert report.suite == "cor1" and report.verdict == "pass"
    by_id = {law.law: law for law in report.laws}
    assert set(by_id) == {
        "P* <= P [R1]", "F* <= F [R1]", "H <= H* [R2]", "G <= G* [R2]",
        "P* <= P [R3]", "F* <= F [R3]", "H <= H* [R3]", "G <= G* [R3]"}
    assert all(law.verdict == "pass" for law in report.laws)
    # the worked point: every starred operator genuinely differs
    assert all(law.detail == "strict" for law in report.laws)


def test_star_inequalities_frame_case_is_equality(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    report = check_star_inequalities(oml10, le3.points, quad)
    assert report.verdict == "pass"
    assert all(law.detail == "equality" for law in report.laws)


def test_roundtrip_verdicts(oml10, le3, nonserial2):
    for frame in (le3, nonserial2):
        report = roundtrip_frame(oml10, frame)
        assert report.suite == "thm4-roundtrip"
        assert report.verdict == "pass"
        assert {law.law for law in report.laws} == {
            "relation-roundtrip", "P-coincides", "F-coincides",
            "H-coincides", "G-coincides"}


# -- id path against the row path ------------------------------------------------

def _converse_reports(lattice, points, quad, frame, budget, jobs=1):
    """Everything the converse problem computes for one quadruple; suite
    reports as their laws, because their replay contexts hold fresh operators."""
    kw = dict(budget=budget, jobs=jobs)
    out = {
        "R1": induce_R1(lattice, points, quad.P, quad.F, **kw),
        "R2": induce_R2(lattice, points, quad.H, quad.G, **kw),
        "R3": induce_R3(lattice, points, quad, **kw),
        "classify": classify_inducibility(lattice, points, quad, **kw),
        "cor1": check_star_inequalities(lattice, points, quad, **kw),
    }
    if frame is not None:
        out["roundtrip"] = roundtrip_frame(lattice, frame, **kw)
    for key in ("cor1", "roundtrip"):
        if key in out:
            report = out[key]
            out[key] = (report.instance, report.verdict, report.laws)
    return out


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", converse_cases.CASES)
def test_id_path_matches_row_path(monkeypatch, case, sampled):
    lattice, points, quad, frame = converse_cases.build(case)
    budget = converse_cases.sampled_budget(lattice, points) if sampled else None
    on_ids = _converse_reports(lattice, points, quad, frame, budget)
    assert on_ids["R3"].mode == (SAMPLED if sampled else EXHAUSTIVE)
    converse_cases.force_row_path(monkeypatch)
    assert _converse_reports(lattice, points, quad, frame, budget) == on_ids


@pytest.mark.parametrize("case", ["oml10-le3", "tabulated"])
def test_forked_row_path_matches_id_path(monkeypatch, forks, case):
    # past a lowered cap, in batches small enough for every scan to split
    lattice, points, quad, frame = converse_cases.build(case)
    on_ids = _converse_reports(lattice, points, quad, frame, None)
    converse_cases.force_row_path(monkeypatch)
    monkeypatch.setattr(laws, "ID_CHUNK", 64)
    monkeypatch.setattr(laws, "_split_cost", 0.0)
    assert _converse_reports(lattice, points, quad, frame, None, jobs=2) == on_ids
    assert forks and set(forks) == {"omtense.laws"}


@pytest.mark.parametrize("case", ["o6-le3", "oml10-nonserial2", "tabulated"])
def test_scan_step_does_not_move_witnesses(monkeypatch, case):
    # the law scan reads ID_CHUNK propositions per batch
    lattice, points, quad, _ = converse_cases.build(case)
    whole = [induce_R1(lattice, points, quad.P, quad.F),
             induce_R2(lattice, points, quad.H, quad.G)]
    assert any(w.index >= 3 for r in whole for w in r.witnesses.values())
    monkeypatch.setattr(laws, "ID_CHUNK", 3 * len(points))
    assert [induce_R1(lattice, points, quad.P, quad.F),
            induce_R2(lattice, points, quad.H, quad.G)] == whole


def test_sampled_witnesses_index_the_draws(oml10, ex2_quad):
    # a sampled witness's index is its position in the draws
    budget = 3000
    report = induce_R1(oml10, T5, ex2_quad.P, ex2_quad.F, budget=budget)
    draws = decode_props(oml10, 5, oracles.stratified_ids(oml10.n ** 5, budget, DEFAULT_SEED))
    assert report.witnesses
    for w in report.witnesses.values():
        assert w.q == tuple(int(x) for x in draws[w.index])


def _unshared_frame_maps(monkeypatch):
    """Frame-induced operators as they were before their id maps were shared:
    each builds its own map, folding the 2-D table from the unit per point."""
    def apply_batch(self, batch):
        joinlike = self.which in ("P", "F")
        table = self.lattice.join_table if joinlike else self.lattice.meet_table
        unit = self.lattice.bottom if joinlike else self.lattice.top
        sources = self.frame.preds if self.which in ("P", "H") else self.frame.succs
        out = np.empty_like(batch)
        for s in range(self.frame.n):
            acc = np.full(batch.shape[0], unit, dtype=batch.dtype)
            for t in sources[s]:
                acc = table[acc, batch[:, t]]
            out[:, s] = acc
        return out

    monkeypatch.setattr(FrameInduced, "apply_batch", apply_batch)
    monkeypatch.setattr(FrameInduced, "_build_id_map", TenseOperator._build_id_map)


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", ["oml10-le3", "o6-nonserial2", "mo2-le2", "example2",
                                  "tabulated"])
def test_cor1_matches_unshared_maps(monkeypatch, case, sampled):
    lattice, points, quad, _ = converse_cases.build(case)
    budget = converse_cases.sampled_budget(lattice, points) if sampled else None
    got = check_star_inequalities(lattice, points, quad, budget=budget)
    _unshared_frame_maps(monkeypatch)
    lattice, points, quad, _ = converse_cases.build(case)
    want = check_star_inequalities(lattice, points, quad, budget=budget)
    assert len(got.laws) == len(want.laws) == 8
    for a, b in zip(got.laws, want.laws):
        assert a == b
    assert got == want


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
def test_cor1_matches_unshared_maps_on_failing_bounds(monkeypatch, le3, sampled):
    # over the full relation P* and F* exceed P and F, and H* and G* fall
    # below H and G, so every inequality fails with a witness
    def cor1():
        lattice = builtin_lattice("oml10")
        quad = OperatorQuadruple.from_frame(lattice, le3)
        budget = converse_cases.sampled_budget(lattice, le3.points) if sampled else None
        full = frozenset((s, t) for s in range(le3.n) for t in range(le3.n))
        r1, r2 = (replace(induce(lattice, le3.points, a, b, budget=budget), pairs=full)
                  for induce, a, b in ((induce_R1, quad.P, quad.F), (induce_R2, quad.H, quad.G)))
        return check_star_inequalities(lattice, le3.points, quad, budget=budget,
                                       relations=(r1, r2))

    got = cor1()
    _unshared_frame_maps(monkeypatch)
    want = cor1()
    assert [law.verdict for law in want.laws] == [FAIL] * 8
    assert all(law.witness is not None for law in want.laws)
    assert got == want


# -- work shared by one run ----------------------------------------------------------

def test_run_all_induces_each_relation_once(monkeypatch, oml10, le3, ex2_quad):
    real = induction._induce
    for inst in (Instance(oml10, frame=le3), Instance(oml10, ops=ex2_quad)):
        calls = []

        def counting(which, *args, **kwargs):
            calls.append(which)
            return real(which, *args, **kwargs)

        monkeypatch.setattr(induction, "_induce", counting)
        run_all(inst)
        assert sorted(calls) == ["R1", "R2"]


def test_run_all_applies_each_frame_map_once(monkeypatch, le3):
    # a fresh lattice, so its memo of frame-induced id maps starts empty
    lattice = builtin_lattice("oml10")
    count = proposition_count(lattice, le3.n)
    applied = Counter()
    real = FrameInduced.apply_batch

    def counting(self, batch):
        if len(batch) == count:
            applied[(self.frame.n, self.frame.rel, self.which)] += 1
        return real(self, batch)

    monkeypatch.setattr(FrameInduced, "apply_batch", counting)
    run_all(Instance(lattice, frame=le3))
    # the frame's four id maps serve the laws, the roundtrip's re-induced
    # operators, cor1's starred operators and both sides of the extension
    # checks; no operator of the extended frame is applied in a scan
    assert applied == Counter({(le3.n, le3.rel, w): 1 for w in "PFHG"})


def test_instance_relations_follow_budget_and_seed(oml10, le3):
    inst = Instance(oml10, frame=le3)
    r1 = inst.relation("R1")
    assert inst.relation("R1") is r1 and r1.which == "R1"
    assert inst.relation("R2").which == "R2"
    inst.budget = 100
    sampled = inst.relation("R1")
    assert sampled is not r1 and sampled.mode == SAMPLED
    inst.seed = 7
    assert inst.relation("R1") is not sampled


def test_below_the_cap_only_law_scans_fork(monkeypatch, capsys, forks, tmp_path, oml10, le3):
    # no process pool anywhere; at --jobs 2 the law scans, which induction,
    # classify and extension run on too, may fork; at --jobs 1 nothing forks
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started below the id-path cap")

    for module in (induction, extension, laws):
        monkeypatch.setattr(module, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(laws, "_split_cost", 0.0)  # the first long law scan splits
    split = run_all(Instance(oml10, frame=le3, jobs=2))
    assert forks and set(forks) == {"omtense.laws"}
    forks.clear()
    alone = run_all(Instance(oml10, frame=le3, jobs=1))
    assert not forks
    assert [r.to_json() for r in split] == [r.to_json() for r in alone]
    lattice_file = tmp_path / "oml10.lattice"
    lattice_file.write_text(LATTICE_TEXTS["oml10"], encoding="utf-8")
    for command in ("induce", "classify"):
        printed = []
        for jobs in ("2", "1"):
            forks.clear()
            argv = [command, "--lattice", str(lattice_file), "--ops", "example2", "--jobs", jobs]
            assert cli.main(argv) == 0
            printed.append(capsys.readouterr().out)
            assert set(forks) <= ({"omtense.laws"} if jobs == "2" else set())
        assert printed[0] == printed[1]
    assert "not-frame-inducible" in printed[1]
