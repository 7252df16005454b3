"""The law scanner past ID_PATH_MAX, where operators act on batch rows.

Past the cap check_laws keeps the same scanner, batches and draws as on ids,
but its RowAlgebra applies each operator to the element rows of the current
batch and never forms a full id. These tests check it against a reference
that evaluates each draw alone with eval_trace, on spaces whose ids would not
fit ID_DTYPE (cube2 x 16 points, 4^16 = 2^32) or int64 (chain2 x 64 points,
2^64), and check that at jobs=2 the scan forks children of its own and
starts no process pool.
"""

import pytest

from omtense import laws
from omtense.frames import parse_frame
from omtense.laws import App, ConstProp, Join, Law, LawOutcome, Meet, Neg, PVar, check_laws
from omtense.laws import eval_trace
from omtense.report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED
from omtense.tense import DEFAULT_SEED, OperatorQuadruple, proposition_count, sampled_block

P, Q = PVar("p"), PVar("q")
CLOSED = Law("closed", "eq", App("P", ConstProp("bottom")), ConstProp("bottom"), ())
GROW = Law("grow", "leq", Q, App("P", Q), ("q",))
SHRINK = Law("shrink", "leq", App("P", Q), Q, ("q",))
DUAL = Law("dual", "eq", App("H", Q), Neg(App("P", Neg(Q))), ("q",))
MEET_IN = Law("meet-in", "leq", App("P", Meet(P, Q)), Meet(App("P", P), App("P", Q)), ("p", "q"))
MEET_OUT = Law("meet-out", "leq", Meet(App("P", P), App("P", Q)), App("P", Meet(P, Q)), ("p", "q"))
MONO = Law("mono", "leq", App("G", P), App("G", Join(P, Q)), ("p", "q"), guard=(P, Q))


def _chain(n):
    """The linear frame le<n>: points 1..n, each related to itself and every later point."""
    rel = " ".join(f"{i}>{j}" for i in range(1, n + 1) for j in range(i, n + 1))
    points = " ".join(str(i) for i in range(1, n + 1))
    return parse_frame(f"frame le{n}\npoints {points}\nrel {rel}\n")


def _holds(lattice, law, env, n_points, ops, sides):
    lhs, rhs = (eval_trace(side, lattice, env, n_points, ops, {}, []) for side in sides)
    return [lattice.le(x, y) if law.relation == "leq" or sides is law.guard else x == y
            for x, y in zip(lhs, rhs)]


def _reference(law, lattice, n_points, ops, cap, seed=DEFAULT_SEED):
    """The outcome of a sampled check, one draw at a time: variable i of draw
    k is row k of sampled_block(..., seed + i)."""
    columns = [sampled_block(lattice, n_points, cap, seed + i) for i in range(len(law.vars))]
    for k in range(cap):
        env = {v: tuple(int(x) for x in col[k]) for v, col in zip(law.vars, columns)}
        if law.guard is not None and not all(_holds(lattice, law, env, n_points, ops, law.guard)):
            continue
        ok = _holds(lattice, law, env, n_points, ops, (law.lhs, law.rhs))
        if not all(ok):
            return LawOutcome(FAIL, SAMPLED, cap, witness_env=env, witness_point=ok.index(False),
                              index=k)
    return LawOutcome(ONE_SIDED, SAMPLED, cap)


@pytest.mark.parametrize("lattice_name, n_points, pair_budget", [
    ("chain2", 64, 10 ** 6),  # 2^64 propositions: ids would not fit int64
    ("cube2", 16, 200),       # 2^32: pair ids would not fit ID_DTYPE
])
def test_draws_past_the_id_range_match_a_per_draw_scan(request, lattice_name, n_points,
                                                       pair_budget):
    lattice = request.getfixturevalue(lattice_name)
    count = proposition_count(lattice, n_points)
    assert count > 2 ** 31
    ops = OperatorQuadruple.from_frame(lattice, _chain(n_points)).as_dict()
    budget = 300
    unary = [GROW, SHRINK, DUAL]
    pairs = [MEET_OUT] if pair_budget >= budget * budget else [MEET_OUT, MEET_IN, MONO]
    got = check_laws([(law, ops) for law in [CLOSED] + unary + pairs], lattice, n_points,
                     budget=budget, pair_budget=pair_budget)
    assert got[0] == LawOutcome(PASS, EXHAUSTIVE, 1)
    cap = min(pair_budget, budget * budget)
    want = [_reference(law, lattice, n_points, ops, budget) for law in unary]
    want += [_reference(law, lattice, n_points, ops, cap) for law in pairs]
    assert got[1:] == want
    # a failing unary law and a failing pair law, with their witnesses
    assert [o.verdict for o in got[1:5]] == [ONE_SIDED, FAIL, ONE_SIDED, FAIL]


def test_split_past_the_cap_forks_laws_only(monkeypatch, forks, chain2, oml10):
    class Refused(laws.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a law scan started a process pool")

    monkeypatch.setattr(laws, "ProcessPoolExecutor", Refused)
    quad = OperatorQuadruple.from_frame(chain2, _chain(64)).as_dict()
    sampled = [(law, quad) for law in (CLOSED, GROW, DUAL, MEET_IN, MONO, MEET_OUT)]
    # oml10 x le2 under a lowered cap: exhaustive rows, p-major pairs
    small = OperatorQuadruple.from_frame(oml10, _chain(2)).as_dict()
    exhaustive = [(law, small) for law in (GROW, SHRINK, DUAL, MEET_IN, MEET_OUT, MONO)]

    def run(jobs):
        monkeypatch.setattr(laws, "_split_cost", 0.0)
        out = check_laws(sampled, chain2, 64, budget=300, pair_budget=1000, jobs=jobs, chunk=50)
        with monkeypatch.context() as capped:
            capped.setattr(laws, "ID_PATH_MAX", 10)
            out += check_laws(exhaustive, oml10, 2, jobs=jobs, chunk=20)
        return out

    alone = run(1)
    assert not forks
    assert run(2) == alone
    assert forks and set(forks) == {"omtense.laws"}
    assert [o.mode for o in alone[6:]] == [EXHAUSTIVE] * 6
    assert alone[7].verdict == alone[10].verdict == FAIL
