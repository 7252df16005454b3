import json
import random
from pathlib import Path

import pytest

from test_element_laws import corrupted

from omtense import (
    IdentityElseConstant,
    InvalidSpec,
    NotAFailure,
    OperatorQuadruple,
    Tabulated,
    TimeFrame,
    build_lattice,
    induce_R3,
    laws,
    parse_lattice,
)
from omtense.fixtures import builtin_frame, builtin_lattice, example2_quadruple
from omtense.laws import check_laws
from omtense.report import ReplayContext, VerifyReport, Witness
from omtense.verify import (
    SUITE_IDS,
    Instance,
    _thm6_cases,
    _thm6_result,
    replay_witness,
    run_all,
    run_suite,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def chain3():
    return build_lattice(parse_lattice(
        "lattice chain3\nelements 0 m 1\ncovers 0<m m<1\n"))


@pytest.fixture(scope="module")
def cyc2():
    # serial but not reflexive: 1 and 2 point at each other
    return TimeFrame.from_names("cyc2", ["1", "2"], [("1", "2"), ("2", "1")])


@pytest.fixture(scope="module")
def rnt3():
    # reflexive but not transitive: 1>2>3 without 1>3
    return TimeFrame.from_names(
        "rnt3", ["1", "2", "3"],
        [("1", "1"), ("2", "2"), ("3", "3"), ("1", "2"), ("2", "3")])


_PASS, _FAIL = ("pass", ""), ("fail", "")
_FRAME = ("skipped", "needs a time frame")
_FRAME_OR_OPS = ("skipped", "needs a time frame or an operator quadruple")
_SERIAL = ("skipped", "requires serial R")
_REFLEXIVE = ("skipped", "requires reflexive R")
_ORTHO = ("skipped", "requires orthocomplementation")
_OM = ("skipped", "requires an orthomodular lattice")

# (verdict, reason) of every suite, in SUITE_IDS order, per (lattice, frame).
# chain3 x cyc2 misses two of thm7's gates (reflexive R, orthocomplementation)
# and two of thm6's, so the reason shows which gate is checked first.
SUITE_GATES = {
    ("oml10", None): [_FRAME, _FRAME, _FRAME, _PASS, _PASS, _FRAME_OR_OPS, _FRAME, _FRAME,
                      _FRAME_OR_OPS, _FRAME_OR_OPS, _FRAME_OR_OPS, _FRAME, _PASS],
    ("chain3", "le3"): [_PASS, _PASS, _PASS, _ORTHO, _ORTHO, _ORTHO, _ORTHO, _PASS, _PASS,
                        _PASS, _PASS, _ORTHO, _ORTHO],
    ("o6", "le3"): [_PASS, _PASS, _PASS, _OM, _OM, _OM, _OM, _PASS, _PASS, _PASS, _PASS,
                    _PASS, _FAIL],
    ("oml10", "nonserial2"): [_SERIAL, _SERIAL, _REFLEXIVE, _PASS, _PASS, _PASS, _REFLEXIVE,
                              _PASS, _PASS, _PASS, _PASS, _PASS, _PASS],
    ("chain3", "cyc2"): [_PASS, _PASS, _REFLEXIVE, _ORTHO, _ORTHO, _ORTHO, _REFLEXIVE, _PASS,
                         _PASS, _PASS, _PASS, _ORTHO, _ORTHO],
}


@pytest.mark.parametrize("lattice_name, frame_name", SUITE_GATES,
                         ids=[f"{lattice}-{frame}" for lattice, frame in SUITE_GATES])
def test_every_suite_gate_in_order(request, lattice_name, frame_name):
    frame = request.getfixturevalue(frame_name) if frame_name else None
    inst = Instance(lattice=request.getfixturevalue(lattice_name), frame=frame)
    got = [(report.verdict, report.reason) for report in run_all(inst)]
    assert got == SUITE_GATES[lattice_name, frame_name]


def test_suite_ids_are_complete():
    assert SUITE_IDS == (
        "thm1", "thm2", "thm3", "prop1", "lemma1", "thm6", "thm7",
        "thm4-roundtrip", "cor1", "ext-pf", "ext-hg", "demorgan", "oml-law")


def test_unknown_suite(oml10, le3):
    with pytest.raises(InvalidSpec):
        run_suite("thm99", Instance(lattice=oml10, frame=le3))


def test_run_all_passes_exhaustively_at_two_points(oml10, le2):
    reports = run_all(Instance(lattice=oml10, frame=le2))
    assert [r.suite for r in reports] == list(SUITE_IDS)
    assert all(r.verdict == "pass" for r in reports)
    # nothing fell back to sampling: 10^2 propositions, 10^4 pairs
    for report in reports:
        for law in report.laws:
            assert law.verdict in ("pass", "skipped")


def test_instance_helpers(oml10, le3, ex2_quad):
    inst = Instance(lattice=oml10, frame=le3)
    assert inst.point_names() == ("1", "2", "3")
    assert "lattice=oml10" in inst.descriptor() and "frame=le3" in inst.descriptor()
    inst = Instance(lattice=oml10, ops=ex2_quad)
    assert inst.point_names() == ("1", "2", "3", "4", "5")
    inst = Instance(lattice=oml10, ops=ex2_quad, points=5)
    assert inst.point_names() == ("1", "2", "3", "4", "5")
    with pytest.raises(InvalidSpec):
        Instance(lattice=oml10).quadruple()


# -- gating -------------------------------------------------------------------

def test_thm1_needs_frame_and_seriality(oml10, nonserial2):
    report = run_suite("thm1", Instance(lattice=oml10))
    assert (report.verdict, report.reason) == ("skipped", "needs a time frame")
    report = run_suite("thm1", Instance(lattice=oml10, frame=nonserial2))
    assert (report.verdict, report.reason) == ("skipped", "requires serial R")
    assert report.laws == []


def test_thm2_reflexive_laws_skip_individually(oml10, cyc2):
    report = run_suite("thm2", Instance(lattice=oml10, frame=cyc2))
    assert report.verdict == "pass"
    verdicts = {law.law: law.verdict for law in report.laws}
    assert verdicts["H(q) <= P(q)"] == "pass"
    assert verdicts["G(q) <= F(q)"] == "pass"
    skipped = [law for law in report.laws if law.verdict == "skipped"]
    assert len(skipped) == 4
    assert all(law.reason == "requires reflexive R" for law in skipped)


def test_thm3_gates(oml10, cyc2, rnt3, le3):
    report = run_suite("thm3", Instance(lattice=oml10, frame=cyc2))
    assert (report.verdict, report.reason) == ("skipped", "requires reflexive R")
    report = run_suite("thm3", Instance(lattice=oml10, frame=rnt3))
    assert report.verdict == "pass"
    idem = [law for law in report.laws if law.verdict == "skipped"]
    assert {law.law for law in idem} == {
        "PP(q) = P(q)", "FF(q) = F(q)", "HH(q) = H(q)", "GG(q) = G(q)"}
    assert all(law.reason == "requires transitive R" for law in idem)
    report = run_suite("thm3", Instance(lattice=oml10, frame=le3))
    assert report.verdict == "pass"
    assert all(law.verdict == "pass" for law in report.laws)
    assert len(report.laws) == 20


def test_ortho_gates(chain3, o6, le3):
    for suite in ("demorgan", "prop1", "lemma1", "thm7", "oml-law", "thm6"):
        report = run_suite(suite, Instance(lattice=chain3, frame=le3))
        assert (report.verdict, report.reason) == \
            ("skipped", "requires orthocomplementation"), suite
    for suite in ("prop1", "lemma1", "thm7", "thm6"):
        report = run_suite(suite, Instance(lattice=o6, frame=le3))
        assert (report.verdict, report.reason) == \
            ("skipped", "requires an orthomodular lattice"), suite


def test_ops_only_instance_skips_frame_suites(oml10):
    quad = example2_quadruple(oml10, ("1", "2", "3"))
    inst = Instance(lattice=oml10, ops=quad)
    for suite in ("thm1", "thm2", "thm3", "demorgan", "thm7"):
        assert run_suite(suite, inst).verdict == "skipped", suite
    for suite in ("thm6", "cor1", "ext-pf", "ext-hg", "prop1", "lemma1", "oml-law"):
        assert run_suite(suite, inst).verdict == "pass", suite


def test_extension_suites_skip_on_empty_relation(oml10):
    bottom = IdentityElseConstant(oml10, 3, frozenset(), oml10.bottom, label="B")
    quad = OperatorQuadruple(bottom, bottom, bottom, bottom)
    inst = Instance(lattice=oml10, ops=quad)
    report = run_suite("ext-pf", inst)
    assert (report.verdict, report.reason) == ("skipped", "induced relation R1 is empty")
    # R2 of the all-bottom quadruple is full, so ext-hg still runs
    assert run_suite("ext-hg", inst).verdict == "pass"
    # with H and G the constant top, H(q)(t) <= q(s) fails at the bottom q
    # for every pair, so R2 is empty and ext-hg skips
    top = IdentityElseConstant(oml10, 3, frozenset(), oml10.top, label="T")
    inst = Instance(lattice=oml10, ops=OperatorQuadruple(bottom, bottom, top, top))
    report = run_suite("ext-hg", inst)
    assert (report.verdict, report.reason) == ("skipped", "induced relation R2 is empty")


@pytest.mark.parametrize("lattice_name, frame_name, copies",
                         [("oml10", "le2", 50), ("mo2", "le3", 40), ("cube3", "nonserial2", 40)])
def test_no_suite_raises_on_a_corrupted_lattice(lattice_name, frame_name, copies):
    # one join, meet or complement entry set at random per copy: P, F, H and
    # G must fold from the unit in the scan as in a witness, or a witness
    # the scan found would not fail the law when worked out again
    rng = random.Random("corrupted")
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    for _ in range(copies):
        for report in run_all(Instance(corrupted(lattice, rng), frame=frame)):
            if report.verdict == "fail":
                replay_witness(report)


# -- the orthomodular check and its replay -------------------------------------

def test_omllaw_fails_on_o6_with_replay(o6):
    report = run_suite("oml-law", Instance(lattice=o6))
    assert report.verdict == "fail"
    verdicts = {law.law: law.verdict for law in report.laws}
    assert verdicts["orthomodular-join-form"] == "fail"
    assert verdicts["orthomodular-meet-form"] == "fail"
    assert verdicts["orthomodular-forms-agree"] == "pass"
    assert verdicts["de-morgan"] == "pass"
    details = {law.law: law.detail for law in report.laws}
    assert details["orthomodular-forms-agree"] == "both fail"
    golden = (GOLDEN / "replay-omllaw-o6.txt").read_text(encoding="utf-8")
    assert replay_witness(report) + "\n" == golden


def test_omllaw_passes_on_fixtures(oml10, cube3, mo2, chain2):
    for lat in (oml10, cube3, mo2, chain2):
        report = run_suite("oml-law", Instance(lattice=lat))
        assert report.verdict == "pass"
        assert {law.law: law.detail for law in report.laws}[
            "orthomodular-forms-agree"] == "both hold"


def test_replay_requires_failure(oml10):
    report = run_suite("oml-law", Instance(lattice=oml10))
    with pytest.raises(NotAFailure):
        replay_witness(report)


def test_replay_relation_mismatch_rendering(oml10):
    # hand-built report: this witness kind only arises from engine regressions
    witness = Witness(kind="relation-mismatch", law="relation-roundtrip",
                      pairs=(("extra", "1", "2"), ("missing", "2", "1")),
                      note="induced R3 differs from the frame relation")
    from omtense.report import LawResult
    report = VerifyReport(
        suite="thm4-roundtrip", instance="synthetic",
        laws=[LawResult("relation-roundtrip", "fail", witness=witness)],
        budget=1, seed=1,
        context=ReplayContext(lattice=oml10, points=("1", "2"), ops={}))
    text = replay_witness(report)
    assert "extra: (1, 2)" in text
    assert "missing: (2, 1)" in text


# -- thm6 ----------------------------------------------------------------------

def test_thm6_frame_operators(oml10, le2):
    # both laws fail on this frame, which still confirms the equivalence
    report = run_suite("thm6", Instance(lattice=oml10, frame=le2))
    assert report.verdict == "pass"
    assert [law.ops for law in report.laws] == [
        (("A", "P"),), (("A", "F"),), (("A", "H"),), (("A", "G"),)]
    assert all(law.detail == "(i) false, (ii) false" for law in report.laws)


def test_thm6_suite_is_one_scan(monkeypatch, oml10, le3):
    # the eight cases, two per operator, share one check_laws call and so
    # one IdAlgebra; each result equals its operator checked alone
    from omtense import laws
    built = []
    real = laws.IdAlgebra.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(laws.IdAlgebra, "__init__", counted)
    inst = Instance(lattice=oml10, frame=le3)
    report = run_suite("thm6", inst)
    assert len(built) == 1
    alone = [_thm6_alone(oml10, le3.n, op) for op in inst.quadruple().as_dict().values()]
    assert len(built) == 5
    assert [law.to_json() for law in report.laws] == [law.to_json() for law in alone]


def test_thm6_worked_quadruple_three_points(oml10):
    quad = example2_quadruple(oml10, ("1", "2", "3"))
    report = run_suite("thm6", Instance(lattice=oml10, ops=quad))
    assert report.verdict == "pass"
    assert all(law.detail == "(i) true, (ii) true" for law in report.laws)


def _identity(lattice, n_points):
    return IdentityElseConstant(lattice, n_points, frozenset(range(n_points)), lattice.bottom,
                                label="Id")


def _thm6_alone(lattice, n_points, op):
    """The thm6 result of op, its two connective laws checked in a scan of
    their own, shown by op's label."""
    return _thm6_result(op.label, *check_laws(_thm6_cases(op), lattice, n_points))


def _single(op):
    """An instance whose four operators are all op."""
    return Instance(lattice=op.lattice, ops=OperatorQuadruple(op, op, op, op))


def test_thm6_identity_operator(oml10):
    report = run_suite("thm6", _single(_identity(oml10, 2)))
    assert report.verdict == "pass"
    assert all(law.detail == "(i) true, (ii) true" for law in report.laws)


def test_thm6_equivalence_can_fail_for_nonmonotone_maps(cube2):
    # A = (0 -> a, a -> 0, a1 -> 0, 1 -> a) preserves (*) but not ->;
    # the theorem needs the operator monotone, which this map is not
    table = {(0,): (1,), (1,): (0,), (2,): (0,), (3,): (1,)}
    op = Tabulated(cube2, 1, table, label="N")
    report = run_suite("thm6", _single(op))
    assert report.verdict == "fail"
    assert [law.detail for law in report.laws] == ["(i) true, (ii) false"] * 4
    law = _thm6_alone(cube2, 1, op)
    assert law.verdict == "fail" and law.witness is not None
    alone = VerifyReport(suite="thm6", instance="", laws=[law],
                         context=ReplayContext(lattice=cube2, points=("1",), ops={"A": op}))
    golden = (GOLDEN / "replay-thm6-cube2-N.txt").read_text(encoding="utf-8")
    assert replay_witness(alone) + "\n" == golden


def test_thm6_budget_limits_are_one_sided(oml10):
    # 10^5 propositions per side: far beyond any exhaustive pair sweep,
    # and both laws hold for these operators, so sampling settles nothing
    quad = example2_quadruple(oml10, ("1", "2", "3", "4", "5"))
    law = _thm6_alone(oml10, 5, quad.P)
    assert law.verdict == "one-sided"
    assert law.detail == "(i) unknown, (ii) unknown"


def test_thm6_sampling_can_settle_both_sides_false(monkeypatch, oml10, le3):
    # counterexamples found under sampling are conclusive, so a budget
    # too small for exhaustion can still confirm the equivalence
    quad = OperatorQuadruple.from_frame(oml10, le3)
    monkeypatch.setattr(laws, "PAIR_BUDGET", 500)
    law = _thm6_alone(oml10, le3.n, quad.P)
    assert (law.verdict, law.mode) == ("pass", "sampled")
    assert law.detail == "(i) false, (ii) false"


def test_thm6_gates(chain3, o6):
    report = run_suite("thm6", _single(_identity(chain3, 2)))
    assert (report.verdict, report.reason) == ("skipped", "requires orthocomplementation")
    report = run_suite("thm6", _single(_identity(o6, 2)))
    assert (report.verdict, report.reason) == ("skipped", "requires an orthomodular lattice")


# -- determinism ---------------------------------------------------------------

def test_reports_are_deterministic_across_jobs(oml10, le2, o6):
    a = run_suite("thm7", Instance(lattice=oml10, frame=le2, jobs=1))
    b = run_suite("thm7", Instance(lattice=oml10, frame=le2, jobs=2))
    assert a.render_text() == b.render_text()
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    r1 = induce_R3(oml10, le2.points, OperatorQuadruple.from_frame(oml10, le2), jobs=2)
    r2 = induce_R3(oml10, le2.points, OperatorQuadruple.from_frame(oml10, le2), jobs=1)
    assert r1.pairs == r2.pairs and r1.witnesses == r2.witnesses


def test_sampled_runs_are_seed_stable(oml10, le5):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    a = induce_R3(oml10, le5.points, quad, budget=2000, seed=99)
    b = induce_R3(oml10, le5.points, quad, budget=2000, seed=99)
    assert a.pairs == b.pairs and a.witnesses == b.witnesses
