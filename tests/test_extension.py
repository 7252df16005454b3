from dataclasses import replace

import pytest

import converse_cases
from omtense import laws
from omtense import (
    EmptyRestriction,
    FrameInduced,
    IdentityElseConstant,
    NameCollision,
    OperatorQuadruple,
    TimeFrame,
    check_extension_HG,
    check_extension_PF,
    extend_frame,
    extend_prop_HG,
    extend_prop_PF,
    restrict,
    replay_witness,
)
from omtense.extension import BASE, FUTURE, PAST, _check_extension
from omtense.induction import induce_R1
from omtense.fixtures import example2_quadruple, example_props
from omtense.tense import proposition_block, sampled_block


def test_extended_frame_shape(le5):
    ext = extend_frame(le5)
    assert ext.base is le5
    assert ext.bar.points == (
        "11", "21", "31", "41", "51",
        "1", "2", "3", "4", "5",
        "12", "22", "32", "42", "52")
    n = le5.n
    want = {(s, n + s) for s in range(n)}
    want |= {(n + s, n + t) for s, t in le5.rel}
    want |= {(n + s, 2 * n + s) for s in range(n)}
    assert ext.bar.rel == want
    assert ext.n == 5 and ext.bar.n == 15
    assert [ext.zone(i) for i in range(ext.bar.n)] == \
        [PAST] * 5 + [BASE] * 5 + [FUTURE] * 5
    assert ext.base_slice() == slice(5, 10)
    assert ext.restrict_to_base(tuple(range(15))) == (5, 6, 7, 8, 9)


@pytest.mark.parametrize("frame_name", ["le2", "le3", "le5", "blocks5", "nonserial2"])
def test_extension_is_never_serial_or_reflexive(frame_name, request):
    frame = request.getfixturevalue(frame_name)
    ext = extend_frame(frame)
    assert not ext.bar.is_serial      # past copies have no predecessors
    assert not ext.bar.is_reflexive


def test_extension_restricts_back_to_base(le5, blocks5):
    for frame in (le5, blocks5):
        ext = extend_frame(frame)
        assert restrict(ext.bar, frame.points) == frame


def test_name_collision():
    frame = TimeFrame.from_names("tricky", ["1", "11"], [("1", "11")])
    with pytest.raises(NameCollision):
        extend_frame(frame)


FINAL_TABLE = {
    "pbar": ("c'", "1", "1", "1", "1",
             "c'", "b'", "c'", "a'", "b'",
             "1", "1", "1", "1", "b'"),
    "Pbar": ("0", "0", "0", "0", "0",
             "c'", "1", "1", "1", "1",
             "c'", "b'", "c'", "a'", "b'"),
    "Fbar": ("c'", "b'", "c'", "a'", "b'",
             "1", "1", "1", "1", "b'",
             "0", "0", "0", "0", "0"),
}


def test_final_extension_table(oml10, le5, pq, names):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    ext = extend_frame(le5)
    barquad = OperatorQuadruple.from_frame(oml10, ext.bar)
    pbar = extend_prop_PF(oml10, pq["p"], quad.P, quad.F)
    assert names(oml10, pbar) == FINAL_TABLE["pbar"]
    assert names(oml10, barquad.P(pbar)) == FINAL_TABLE["Pbar"]
    assert names(oml10, barquad.F(pbar)) == FINAL_TABLE["Fbar"]
    # restriction to the original points returns the evaluations over le5
    assert ext.restrict_to_base(barquad.P(pbar)) == quad.P(pq["p"])
    assert ext.restrict_to_base(barquad.F(pbar)) == quad.F(pq["p"])


def test_extend_prop_values(oml10, le5, pq):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    p = pq["p"]
    assert extend_prop_PF(oml10, p, quad.P, quad.F) == \
        tuple(quad.P(p)) + tuple(p) + tuple(quad.F(p))
    assert extend_prop_HG(oml10, p, quad.H, quad.G) == \
        tuple(quad.H(p)) + tuple(p) + tuple(quad.G(p))


@pytest.mark.parametrize("checker,labels", [
    (check_extension_PF, ("P", "F")),
    (check_extension_HG, ("H", "G")),
])
def test_extension_check_on_frame_operators(oml10, le3, checker, labels):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    ops = quad.as_dict()
    report = checker(oml10, le3.points, ops[labels[0]], ops[labels[1]])
    assert report.verdict == "pass"
    ids = [law.law for law in report.laws]
    assert ids == ["relation-restriction",
                   f"{labels[0]}bar-restriction", f"{labels[1]}bar-restriction"]
    assert all(law.verdict == "pass" for law in report.laws)


def test_extension_check_on_non_frame_operators(oml10, ex2_quad):
    # restriction equalities hold for any operators over their induced relation
    report = check_extension_PF(oml10, ("1", "2", "3", "4", "5"),
                                ex2_quad.P, ex2_quad.F)
    assert report.verdict == "pass"
    report = check_extension_HG(oml10, ("1", "2", "3", "4", "5"),
                                ex2_quad.H, ex2_quad.G)
    assert report.verdict == "pass"


def test_extension_check_sampled_budget(oml10, le5):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    report = check_extension_PF(oml10, le5.points, quad.P, quad.F, budget=2000)
    assert report.verdict == "one-sided"
    modes = {law.law: law.verdict for law in report.laws}
    assert modes["relation-restriction"] == "pass"
    assert modes["Pbar-restriction"] == "one-sided"


def test_extension_check_empty_relation_raises(oml10):
    bottom = IdentityElseConstant(oml10, 3, frozenset(), oml10.bottom, label="B")
    with pytest.raises(EmptyRestriction):
        check_extension_PF(oml10, ("1", "2", "3"), bottom, bottom)


# -- id path against the row path ------------------------------------------------

def _extension_reports(lattice, points, quad, budget, jobs=1):
    """Both extension checks as (instance, verdict, laws), or "empty"."""
    out = []
    for checker, a, b in ((check_extension_PF, quad.P, quad.F),
                          (check_extension_HG, quad.H, quad.G)):
        try:
            report = checker(lattice, points, a, b, budget=budget, jobs=jobs)
        except EmptyRestriction:
            out.append("empty")
        else:
            out.append((report.instance, report.verdict, report.laws))
    return out


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", converse_cases.CASES)
def test_id_path_matches_row_path(monkeypatch, case, sampled):
    lattice, points, quad, _ = converse_cases.build(case)
    budget = converse_cases.sampled_budget(lattice, points) if sampled else None
    on_ids = _extension_reports(lattice, points, quad, budget)
    converse_cases.force_row_path(monkeypatch)
    assert _extension_reports(lattice, points, quad, budget) == on_ids


def test_forked_row_path_matches_id_path(monkeypatch, forks):
    # past a lowered cap, in batches small enough for every scan to split
    lattice, points, quad, _ = converse_cases.build("oml10-le3")
    on_ids = _extension_reports(lattice, points, quad, None)
    converse_cases.force_row_path(monkeypatch)
    monkeypatch.setattr(laws, "ID_CHUNK", 64)
    monkeypatch.setattr(laws, "_split_cost", 0.0)
    assert _extension_reports(lattice, points, quad, None, jobs=2) == on_ids
    assert forks and set(forks) == {"omtense.laws"}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("budget", [None, 5], ids=["exhaustive", "sampled"])
def test_restriction_failure_is_found_on_both_paths(monkeypatch, cube2, le2, budget, jobs):
    # over a relation that is not the operators' own, the restriction fails
    quad = OperatorQuadruple.from_frame(cube2, le2)
    wrong = induce_R1(cube2, le2.points, quad.F, quad.P)

    def check():
        return _check_extension(cube2, le2.points, quad.P, quad.F, wrong, "ext-pf",
                                ("P", "F"), budget=budget, seed=1729, jobs=jobs)

    on_ids = check()
    assert on_ids.verdict == "fail"
    converse_cases.force_row_path(monkeypatch)
    assert check().laws == on_ids.laws


@pytest.mark.parametrize("budget", [None, 5], ids=["exhaustive", "sampled"])
def test_each_restriction_side_reports_its_own_first_failure(cube2, le2, budget):
    # over the R1 of (F, P) both sides fail; each reports the first q, in
    # odometer or draw order, where its restricted bar operator differs
    quad = OperatorQuadruple.from_frame(cube2, le2)
    wrong = induce_R1(cube2, le2.points, quad.F, quad.P)
    report = _check_extension(cube2, le2.points, quad.P, quad.F, wrong, "ext-pf",
                              ("P", "F"), budget=budget, seed=1729, jobs=1)
    count = cube2.n ** le2.n
    order = (proposition_block(cube2, le2.n, 0, count) if budget is None
             else sampled_block(cube2, le2.n, budget, 1729))
    bar = extend_frame(wrong.frame()).bar
    by_id = {law.law: law for law in report.laws}
    for label, op in (("P", quad.P), ("F", quad.F)):
        law = by_id[f"{label}bar-restriction"]
        bar_op = FrameInduced(cube2, bar, label)
        misses = []
        for row in order:
            q = tuple(int(x) for x in row)
            qbar = tuple(quad.P(q)) + q + tuple(quad.F(q))
            got, want = bar_op(qbar)[le2.n:2 * le2.n], op(q)
            if got != want:
                point = next(s for s in range(le2.n) if got[s] != want[s])
                misses.append((q, qbar, point, got[point], want[point]))
        assert misses and law.verdict == "fail"
        assert law.samples == (count if budget is None else budget)
        q, qbar, point, got, want = misses[0]
        witness = law.witness
        assert witness.props == (("q", q), ("qbar", qbar))
        assert (witness.point, witness.lhs, witness.rhs) == (point, got, want)
        alone = replace(report, laws=[law])  # replay_witness replays the first failure
        text = replay_witness(alone)
        assert f"{label}bar(qbar) = " in text and f"{label}(q) = " in text
        assert f"first difference at point {point}" in text
