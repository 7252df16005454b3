import pytest

from omtense import NoOrtho, OperatorQuadruple, build_lattice, laws, parse_lattice
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


def test_pair_budget_cap(monkeypatch, oml10, le3):
    # up to the default budget a pair law checks min(PAIR_BUDGET, budget^2)
    # bindings, above it budget of them
    assert laws._space(2, 10 ** 4, 500) == (10 ** 8, 250000)
    assert laws._space(2, 10 ** 4, 10 ** 6) == (10 ** 8, 10 ** 6)
    assert laws._space(2, 10 ** 4, 10 ** 6 + 1) == (10 ** 8, 10 ** 6 + 1)
    assert laws._space(2, 10 ** 4, 10 ** 8) == (10 ** 8, 10 ** 8)
    ops = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    widen = Law("widen", "leq", PVar("p"), Join(PVar("p"), PVar("q")), ("p", "q"))
    with monkeypatch.context() as patch:
        patch.setattr(laws, "PAIR_BUDGET", 500)
        out = check_law(widen, oml10, le3.n, ops)
        assert (out.verdict, out.mode, out.checked) == (ONE_SIDED, SAMPLED, 500)
        out = check_law(widen, oml10, le3.n, ops, budget=10 ** 6 + 1)
        assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 10 ** 6)
    out = check_law(widen, oml10, le3.n, ops)
    assert (out.verdict, out.mode, out.checked) == (PASS, EXHAUSTIVE, 10 ** 6)


def test_parallel_merge_matches_sequential(monkeypatch, oml10, le2):
    ops = OperatorQuadruple.from_frame(oml10, le2).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    with monkeypatch.context() as patch:
        patch.setattr(laws, "ID_CHUNK", 7)
        seq = check_law(shrink, oml10, le2.n, ops, jobs=1)
        par = check_law(shrink, oml10, le2.n, ops, jobs=2)
    assert seq == par
    grow = Law("grow", "leq", PVar("q"), P_OF_Q, ("q",))
    assert check_law(grow, oml10, le2.n, ops, jobs=2) == \
        check_law(grow, oml10, le2.n, ops, jobs=1)


def test_chunk_size_does_not_change_the_witness(monkeypatch, cube3, le3):
    ops = OperatorQuadruple.from_frame(cube3, le3).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    outcomes = set()
    for chunk in (1, 3, 64, 10 ** 6):
        monkeypatch.setattr(laws, "ID_CHUNK", chunk)
        outcomes.add(check_law(shrink, cube3, le3.n, ops).witness_env["q"])
    assert len(outcomes) == 1


def test_build_witness_and_trace(cube2, le2):
    ops = OperatorQuadruple.from_frame(cube2, le2).as_dict()
    shrink = Law("shrink", "leq", P_OF_Q, PVar("q"), ("q",))
    out = check_law(shrink, cube2, le2.n, ops)
    w = build_witness(shrink, out, {k: k for k in "PFHG"})
    assert w.kind == "law" and w.law == "shrink"
    assert w.props == (("q", (1, 0)),)
    assert w.point == 1
    # P(q) = (1, 1) breaks P(q) <= q at point 1, where q is 0
    assert (w.lhs, w.rhs) == (out.witness_lhs, out.witness_rhs) == (1, 0)
    trace: list = []
    got = eval_trace(P_OF_Q, cube2, {"q": (1, 0)}, le2.n, ops, {}, trace)
    assert got == (1, 1)
    assert trace == [("P(q)", (1, 1))]  # leaves stay out of the trace


@pytest.mark.parametrize("expr", [Neg(PVar("q")), SAnd(PVar("q"), PVar("q")),
                                  SImp(PVar("q"), PVar("q"))], ids=["neg", "sand", "simp"])
def test_trace_without_orthocomplementation_raises_no_ortho(expr):
    chain3 = build_lattice(parse_lattice("lattice chain3\nelements 0 m 1\ncovers 0<m m<1\n"))
    with pytest.raises(NoOrtho, match="'chain3' has no orthocomplementation"):
        eval_trace(expr, chain3, {"q": (0,)}, 1, {}, {}, [])
    q = PVar("q")
    assert eval_trace(Join(q, Meet(q, q)), chain3, {"q": (1,)}, 1, {}, {}, []) == (1,)


def test_point_projections(monkeypatch, cube2, le3):
    # q(s) <= P(q)(t) for one pair (s, t) per check; the first failing q in
    # odometer order, found by a plain loop, is the witness, on ids and on rows
    ops = OperatorQuadruple.from_frame(cube2, le3).as_dict()
    q = PVar("q")
    props = [tuple(int(x) for x in row) for row in proposition_block(cube2, 3, 0, cube2.n ** 3)]
    for id_path_max in (laws.ID_PATH_MAX, 0):
        monkeypatch.setattr(laws, "ID_PATH_MAX", id_path_max)
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
    Law("guard", "leq", PVar("q"), At(PVar("q"), 0), ("q",), guard=(At(PVar("q"), 0), At(PVar("q"), 1))),
], ids=lambda law: law.id)
@pytest.mark.parametrize("id_path_max", [laws.ID_PATH_MAX, 0], ids=["ids", "rows"])
def test_point_projection_anywhere_in_a_law(monkeypatch, cube2, le2, law, id_path_max):
    # a point projection is an ordinary subterm: an equality side, one side
    # of an order check, an operator's argument or a guard's side. The first
    # failing q in odometer order, found by eval_trace point by point, is the
    # witness, on ids and on rows
    monkeypatch.setattr(laws, "ID_PATH_MAX", id_path_max)
    ops = OperatorQuadruple.from_frame(cube2, le2).as_dict()
    props = [tuple(int(x) for x in row) for row in proposition_block(cube2, 2, 0, cube2.n ** 2)]

    def holds(lhs, rhs, relation):
        return all(cube2.leq[x, y] if relation == "leq" else x == y for x, y in zip(lhs, rhs))

    misses = []
    for i, q in enumerate(props):
        env = {"q": q}
        values = [eval_trace(side, cube2, env, 2, ops, {}, [])
                  for side in (law.lhs, law.rhs) + (law.guard or ())]
        if (law.guard is None or holds(*values[2:], "leq")) and \
                not holds(*values[:2], law.relation):
            misses.append(i)
    outcome = check_law(law, cube2, 2, ops)
    assert misses and outcome.verdict == FAIL and outcome.index == misses[0]
    assert outcome.witness_env == {"q": props[misses[0]]}
