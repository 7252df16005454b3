from dataclasses import replace
from functools import partial

import pytest

import converse_cases
import oracles
from omtense import laws
from omtense import (
    EmptyRestriction,
    FrameInduced,
    IdentityElseConstant,
    OperatorQuadruple,
    TimeFrame,
    check_extension_HG,
    check_extension_PF,
    extend_frame,
    extend_prop,
    restrict,
    replay_witness,
)
from omtense.extension import _check_extension
from omtense.induction import induce_R1, induce_R2
from omtense.fixtures import LATTICE_TEXTS, builtin_lattice, example2_quadruple, example_props
from omtense.tense import decode_props, proposition_block


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
    # past copies first, then the base points, then the future copies
    assert ext.bar.points[:n] == tuple(p + "1" for p in le5.points)
    assert ext.bar.points[n:2 * n] == le5.points
    assert ext.bar.points[2 * n:] == tuple(p + "2" for p in le5.points)


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
    # the past copy of 1 would be named like the point 11, so a separator
    # goes between name and digit, one underscore longer until nothing
    # collides; names that collide with nothing stay plain
    frame = TimeFrame.from_names("tricky", ["1", "11"], [("1", "11")])
    assert extend_frame(frame).bar.points == ("1_1", "11_1", "1", "11", "1_2", "11_2")
    frame = TimeFrame.from_names("trickier", ["a", "a1", "a_2"], [("a", "a1")])
    assert extend_frame(frame).bar.points == ("a__1", "a1__1", "a_2__1", "a", "a1", "a_2",
                                              "a__2", "a1__2", "a_2__2")
    frame = TimeFrame.from_names("plain", ["a", "b"], [("a", "b")])
    assert extend_frame(frame).bar.points == ("a1", "b1", "a", "b", "a2", "b2")


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
    pbar = extend_prop(pq["p"], quad.P, quad.F)
    assert names(oml10, pbar) == FINAL_TABLE["pbar"]
    assert names(oml10, barquad.P(pbar)) == FINAL_TABLE["Pbar"]
    assert names(oml10, barquad.F(pbar)) == FINAL_TABLE["Fbar"]
    # restriction to the original points returns the evaluations over le5
    base = slice(ext.n, 2 * ext.n)
    assert barquad.P(pbar)[base] == quad.P(pq["p"])
    assert barquad.F(pbar)[base] == quad.F(pq["p"])


def test_extend_prop_values(oml10, le5, pq):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    p = pq["p"]
    assert extend_prop(p, quad.P, quad.F) == tuple(quad.P(p)) + tuple(p) + tuple(quad.F(p))
    assert extend_prop(p, quad.H, quad.G) == tuple(quad.H(p)) + tuple(p) + tuple(quad.G(p))


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
    order = _props(cube2, le2.n, budget)
    bar = extend_frame(wrong.frame()).bar
    by_id = {law.law: law for law in report.laws}
    for label, op in (("P", quad.P), ("F", quad.F)):
        law = by_id[f"{label}bar-restriction"]
        miss = oracles.first_restriction_failure(FrameInduced(cube2, bar, label), op,
                                                 quad.P, quad.F, order)
        assert miss is not None and law.verdict == "fail"
        assert law.samples == (count if budget is None else budget)
        _, q, point, got, want = miss
        witness = law.witness
        assert witness.props == (("q", q), ("qbar", tuple(quad.P(q)) + q + tuple(quad.F(q))))
        assert (witness.point, witness.lhs, witness.rhs) == (point, got, want)
        alone = replace(report, laws=[law])  # replay_witness replays the first failure
        text = replay_witness(alone)
        assert f"{label}bar(qbar) = " in text and f"{label}(q) = " in text
        assert f"first difference at point {point}" in text


# -- the restriction identity against plain loops ---------------------------------

def _props(lattice, n_points, budget):
    """The propositions a unary scan checks, as tuples in its order: every
    one in odometer order, or the stratified draw of budget at seed 1729."""
    count = lattice.n ** n_points
    rows = (proposition_block(lattice, n_points, 0, count) if budget is None
            else decode_props(lattice, n_points, oracles.stratified_ids(count, budget, 1729)))
    return [tuple(int(x) for x in row) for row in rows]


def _restriction_case(case):
    """(lattice, point names, quadruple) of a case: a fixture lattice x
    frame, mo2 x le3 with tabulated operators, or the rule-based quadruple
    on three points, whose 1000 propositions a plain loop scans quickly."""
    if case == "example2-3":
        lattice = builtin_lattice("oml10")
        return lattice, ("1", "2", "3"), example2_quadruple(lattice, ("1", "2", "3"))
    lattice, points, quad, _ = converse_cases.build(case)
    return lattice, points, quad


RESTRICTION_CASES = ([f"{lattice}-{frame}" for lattice in sorted(LATTICE_TEXTS)
                      for frame in ("le2", "le3", "nonserial2")]
                     + ["example2-3", "tabulated"])


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", RESTRICTION_CASES)
def test_restriction_sides_match_the_plain_loop_oracle(monkeypatch, case, sampled):
    # each side of ext-pf and ext-hg, over the operators' own relation and
    # over the one induced from the swapped pair (which mostly fails), agrees
    # with the bar operator applied point by point to ext(q): the verdict,
    # and a failure's first q in odometer or draw order, point and values;
    # the row core reports the same
    lattice, points, quad = _restriction_case(case)
    n_points = len(points)
    budget = max(1, lattice.n ** n_points // 3) if sampled else None
    order = _props(lattice, n_points, budget)
    runs = []
    for labels, (a, b), induce, checker in (
            (("P", "F"), (quad.P, quad.F), induce_R1, check_extension_PF),
            (("H", "G"), (quad.H, quad.G), induce_R2, check_extension_HG)):
        suite = "ext-" + "".join(labels).lower()
        runs.append((labels, a, b, induce(lattice, points, a, b, budget=budget),
                     partial(checker, lattice, points, a, b, budget=budget)))
        wrong = induce(lattice, points, b, a, budget=budget)
        runs.append((labels, a, b, wrong, partial(_check_extension, lattice, points, a, b, wrong,
                                                  suite, labels, budget=budget, seed=1729,
                                                  jobs=1)))

    def reports():
        out = []
        for *_, check in runs:
            try:
                out.append(check().laws)
            except EmptyRestriction:
                out.append("empty")
        return out

    on_ids = reports()
    failures = 0
    for (labels, a, b, relation, _), laws_ in zip(runs, on_ids):
        if not relation.pairs:
            assert laws_ == "empty"
            continue
        bar = extend_frame(relation.frame()).bar
        for label, given, law in zip(labels, (a, b), laws_[1:]):
            assert law.law == f"{label}bar-restriction"
            assert law.samples == len(order)
            miss = oracles.first_restriction_failure(FrameInduced(lattice, bar, label), given,
                                                     a, b, order)
            if miss is None:
                assert law.verdict == ("one-sided" if sampled else "pass")
                continue
            failures += 1
            _, q, point, got, want = miss
            assert law.verdict == "fail"
            assert law.witness.props == (("q", q), ("qbar", extend_prop(q, a, b)))
            assert (law.witness.point, law.witness.lhs, law.witness.rhs) == (point, got, want)
    if case in ("oml10-le3", "mo2-le2", "cube2-le3"):
        assert failures  # the swapped relations break the restriction here
    converse_cases.force_row_path(monkeypatch)
    assert reports() == on_ids
