import json

import pytest

from omtense import (
    IdentityElseConstant,
    InvalidSpec,
    NotAFailure,
    OperatorQuadruple,
    Tabulated,
    TimeFrame,
    build_lattice,
    identity_operator,
    induce_R3,
    parse_lattice,
)
from omtense.fixtures import example2_quadruple
from omtense.report import ReplayContext, VerifyReport, Witness
from omtense.verify import (
    SUITE_IDS,
    Instance,
    check_thm6_equivalence,
    replay_witness,
    run_all,
    run_suite,
)


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
    text = replay_witness(report)
    assert "x = x" in text and "y = y" in text
    assert "x v (y ^ x') = x" in text
    assert "got x, expected y" in text


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
        suite="thm4-roundtrip", instance="synthetic", verdict="fail",
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
    alone = [check_thm6_equivalence(oml10, le3.points, op).laws[0]
             for op in inst.quadruple().as_dict().values()]
    assert len(built) == 5
    assert [law.to_json() for law in report.laws] == [law.to_json() for law in alone]


def test_thm6_worked_quadruple_three_points(oml10):
    quad = example2_quadruple(oml10, ("1", "2", "3"))
    report = run_suite("thm6", Instance(lattice=oml10, ops=quad))
    assert report.verdict == "pass"
    assert all(law.detail == "(i) true, (ii) true" for law in report.laws)


def test_thm6_identity_operator(oml10):
    report = check_thm6_equivalence(oml10, ("1", "2"), identity_operator(oml10, 2))
    assert report.verdict == "pass"


def test_thm6_equivalence_can_fail_for_nonmonotone_maps(cube2):
    # A = (0 -> a, a -> 0, a1 -> 0, 1 -> a) preserves (*) but not ->;
    # the theorem needs the operator monotone, which this map is not
    elems = [(0,), (1,), (2,), (3,)]
    table = {(0,): (1,), (1,): (0,), (2,): (0,), (3,): (1,)}
    op = Tabulated(cube2, 1, table, label="N")
    report = check_thm6_equivalence(cube2, ("1",), op)
    assert report.verdict == "fail"
    law = report.laws[0]
    assert law.detail == "(i) true, (ii) false"
    assert law.witness is not None
    text = replay_witness(report)
    assert "N(" in text and "fails" in text


def test_thm6_budget_limits_are_one_sided(oml10):
    # 10^5 propositions per side: far beyond any exhaustive pair sweep,
    # and both laws hold for these operators, so sampling settles nothing
    quad = example2_quadruple(oml10, ("1", "2", "3", "4", "5"))
    report = check_thm6_equivalence(oml10, ("1", "2", "3", "4", "5"), quad.P)
    assert report.verdict == "one-sided"
    assert report.laws[0].detail == "(i) unknown, (ii) unknown"


def test_thm6_sampling_can_settle_both_sides_false(oml10, le3):
    # counterexamples found under sampling are conclusive, so a budget
    # too small for exhaustion can still confirm the equivalence
    quad = OperatorQuadruple.from_frame(oml10, le3)
    report = check_thm6_equivalence(oml10, le3.points, quad.P, pair_budget=500)
    assert report.verdict == "pass"
    assert report.laws[0].detail == "(i) false, (ii) false"


def test_thm6_gates(chain3, o6):
    op = identity_operator(chain3, 2)
    report = check_thm6_equivalence(chain3, ("1", "2"), op)
    assert (report.verdict, report.reason) == ("skipped", "requires orthocomplementation")
    report = check_thm6_equivalence(o6, ("1", "2"), identity_operator(o6, 2))
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
