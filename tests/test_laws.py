import pytest

from omtense import OperatorQuadruple
from omtense.laws import (
    App,
    At,
    ConstProp,
    Join,
    Law,
    Meet,
    Neg,
    PVar,
    SAnd,
    SImp,
    build_witness,
    check_law,
    eval_trace,
    render,
)
from omtense.tense import proposition_block
from omtense.report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED

P_OF_Q = App("P", PVar("q"))


def test_render():
    assert render(PVar("q")) == "q"
    assert render(Neg(PVar("q"))) == "q'"
    assert render(Neg(Join(PVar("p"), PVar("q")))) == "(p v q)'"
    assert render(Meet(ConstProp("top"), ConstProp("bottom"))) == "(1 ^ 0)"
    assert render(SAnd(PVar("p"), SImp(PVar("p"), PVar("q")))) == "(p * (p -> q))"
    assert render(App("A", Neg(P_OF_Q)), {"A": "G", "P": "P"}) == "G(P(q)')"


def test_describe_with_guard():
    law = Law("mono", "leq", P_OF_Q, App("P", PVar("r")), ("q", "r"),
              guard=(PVar("q"), PVar("r")))
    assert law.describe() == "P(q) <= P(r) whenever q <= r"


def test_arity0_law(oml10, le3):
    ops = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    good = Law("p0", "eq", App("P", ConstProp("bottom")), ConstProp("bottom"), ())
    out = check_law(good, oml10, le3.n, ops)
    assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 1)
    bad = Law("bad", "eq", App("P", ConstProp("top")), ConstProp("bottom"), ())
    out = check_law(bad, oml10, le3.n, ops)
    assert out.verdict == FAIL and out.witness_env == {}


def test_unary_law_pass_and_fail(cube2, le2):
    ops = OperatorQuadruple.from_frame(cube2, le2).as_dict()
    grow = Law("grow", "leq", PVar("q"), P_OF_Q, ("q",))
    out = check_law(grow, cube2, le2.n, ops)
    assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 16)

    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    out = check_law(shrink, cube2, le2.n, ops)
    assert out.verdict == FAIL
    # first counterexample in odometer order: q = (a, 0), breaking at point 2
    assert out.witness_env == {"q": (1, 0)}
    assert out.witness_point == 1


def test_guarded_pair_law(oml10, le2):
    ops = OperatorQuadruple.from_frame(oml10, le2).as_dict()
    mono = Law("mono", "leq", P_OF_Q, App("P", PVar("r")), ("q", "r"),
               guard=(PVar("q"), PVar("r")))
    out = check_law(mono, oml10, le2.n, ops)
    assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 10 ** 4)
    # dropping the guard makes the same claim false
    unguarded = Law("mono", "leq", P_OF_Q, App("P", PVar("r")), ("q", "r"))
    out = check_law(unguarded, oml10, le2.n, ops)
    assert out.verdict == FAIL


def test_eq_relation(oml10, le5):
    ops = OperatorQuadruple.from_frame(oml10, le5).as_dict()
    dual = Law("dual", "eq", App("H", PVar("q")), Neg(App("P", Neg(PVar("q")))), ("q",))
    out = check_law(dual, oml10, le5.n, ops)
    assert (out.verdict, out.checked) == (PASS, 10 ** 5)


def test_sampled_one_sided(oml10, le5):
    ops = OperatorQuadruple.from_frame(oml10, le5).as_dict()
    grow = Law("grow", "leq", PVar("q"), P_OF_Q, ("q",))
    out = check_law(grow, oml10, le5.n, ops, budget=2000)
    assert (out.verdict, out.mode, out.checked) == (ONE_SIDED, SAMPLED, 2000)


def test_sampled_can_still_fail(oml10, le5):
    ops = OperatorQuadruple.from_frame(oml10, le5).as_dict()
    absurd = Law("absurd", "leq", PVar("q"), ConstProp("bottom"), ("q",))
    out = check_law(absurd, oml10, le5.n, ops, budget=2000)
    assert (out.verdict, out.mode) == (FAIL, SAMPLED)
    assert out.witness_env is not None and out.witness_point is not None


def test_pair_budget_cap(oml10, le3):
    ops = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    widen = Law("widen", "leq", PVar("p"), Join(PVar("p"), PVar("q")), ("p", "q"))
    out = check_law(widen, oml10, le3.n, ops, pair_budget=500)
    assert (out.verdict, out.mode, out.checked) == (ONE_SIDED, SAMPLED, 500)
    out = check_law(widen, oml10, le3.n, ops)
    assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 10 ** 6)


def test_parallel_merge_matches_sequential(oml10, le2):
    ops = OperatorQuadruple.from_frame(oml10, le2).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    seq = check_law(shrink, oml10, le2.n, ops, jobs=1, chunk=7)
    par = check_law(shrink, oml10, le2.n, ops, jobs=2, chunk=7)
    assert seq == par
    grow = Law("grow", "leq", PVar("q"), P_OF_Q, ("q",))
    assert check_law(grow, oml10, le2.n, ops, jobs=2) == \
        check_law(grow, oml10, le2.n, ops, jobs=1)


def test_chunk_size_does_not_change_the_witness(cube3, le3):
    ops = OperatorQuadruple.from_frame(cube3, le3).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    outcomes = {check_law(shrink, cube3, le3.n, ops, chunk=c).witness_env["q"]
                for c in (1, 3, 64, 10 ** 6)}
    assert len(outcomes) == 1


def test_build_witness_and_trace(cube2, le2):
    ops = OperatorQuadruple.from_frame(cube2, le2).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    out = check_law(shrink, cube2, le2.n, ops)
    w = build_witness(shrink, cube2, out.witness_env, le2.n, ops,
                      {k: k for k in "PFHG"})
    assert w.kind == "law" and w.law == "shrink"
    assert w.props == (("q", (1, 0)),)
    assert w.point == 1
    assert cube2.leq[w.rhs, w.lhs] and w.lhs != w.rhs
    trace: list = []
    got = eval_trace(P_OF_Q, cube2, {"q": (1, 0)}, le2.n, ops, {}, trace)
    assert got == (1, 1)
    assert trace == [("P(q)", (1, 1))]  # leaves stay out of the trace


def test_point_projections(cube2, le3):
    # q(s) <= P(q)(t) for one pair (s, t) per check; the first failing q in
    # odometer order, found by a plain loop, is the witness
    ops = OperatorQuadruple.from_frame(cube2, le3).as_dict()
    q = PVar("q")
    props = [tuple(int(x) for x in row) for row in proposition_block(cube2, 3, 0, cube2.n ** 3)]
    for s in range(3):
        for t in range(3):
            law = Law("at", "leq", At(q, s), At(P_OF_Q, t), ("q",))
            assert law.describe() == f"q({s}) <= P(q)({t})"
            outcome = check_law(law, cube2, 3, ops)
            misses = [i for i, row in enumerate(props)
                      if not cube2.leq[row[s], ops["P"](row)[t]]]
            if not misses:
                assert outcome.verdict == PASS and outcome.index is None
                continue
            assert outcome.verdict == FAIL and outcome.index == misses[0]
            assert outcome.witness_env == {"q": props[misses[0]]}
            trace = []
            value = eval_trace(law.lhs, cube2, outcome.witness_env, 3, ops, {}, trace)
            assert value == (props[misses[0]][s],) * 3 and trace[-1][0] == f"q({s})"


@pytest.mark.parametrize("law", [
    Law("eq", "eq", At(PVar("q"), 0), At(PVar("q"), 1), ("q",)),
    Law("one-side", "leq", At(PVar("q"), 0), PVar("q"), ("q",)),
    Law("nested", "leq", App("P", At(PVar("q"), 0)), PVar("q"), ("q",)),
    Law("guard", "leq", PVar("q"), PVar("q"), ("q",), guard=(At(PVar("q"), 0), At(PVar("q"), 1))),
], ids=lambda law: law.id)
def test_point_projection_only_as_a_side_of_an_order_check(cube2, le2, law):
    ops = OperatorQuadruple.from_frame(cube2, le2).as_dict()
    with pytest.raises(TypeError, match="At"):
        check_law(law, cube2, 2, ops)
