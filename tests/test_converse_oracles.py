"""Induction and classify against the plain-loop oracles of tests/oracles.py.

Random tabulated quadruples, on both law-scan cores (id maps and rows), at
jobs 1 and 2, exhaustive and sampled: the relations, each excluded pair's
first violation and classify's first differing operator must be the
oracles' own.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import converse_cases
import oracles
from omtense import laws
from omtense.fixtures import builtin_frame, builtin_lattice
from omtense.frames import TimeFrame
from omtense.induction import classify_inducibility, induce_R1, induce_R2, induce_R3
from omtense.tense import (
    DEFAULT_SEED,
    FrameInduced,
    OperatorQuadruple,
    Tabulated,
    decode_props,
    proposition_block,
)

R1_INEQS = ("q(s) <= P(q)(t)", "q(t) <= F(q)(s)")
R2_INEQS = ("H(q)(t) <= q(s)", "G(q)(s) <= q(t)")


def _rows(block):
    return [tuple(int(x) for x in row) for row in block]


@st.composite
def _quadruples(draw):
    """(lattice, points, quadruple): P, F, H and G tabulated from a random
    relation on the points of a small frame, each with up to two entries
    replaced by random propositions."""
    lattice = builtin_lattice(draw(st.sampled_from(["chain2", "mo2"])))
    frame = builtin_frame(draw(st.sampled_from(["le2", "le3", "nonserial2"])))
    n = frame.n
    rel = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    base = TimeFrame("random", frame.points, rel, _allow_empty=True)
    props = _rows(proposition_block(lattice, n, 0, lattice.n ** n))
    ops = {}
    for which in "PFHG":
        op = FrameInduced(lattice, base, which)
        table = {q: op(q) for q in props}
        for _ in range(draw(st.integers(0, 2))):
            table[draw(st.sampled_from(props))] = tuple(
                draw(st.integers(0, lattice.n - 1)) for _ in range(n))
        ops[which] = Tabulated(lattice, n, table, label=which)
    return lattice, frame.points, OperatorQuadruple(**ops)


def _oracle(lattice, n, quad, props):
    """Per relation the oracle's (pairs, {excluded pair: (index, inequality)}),
    and classify's first (operator, index) where the quadruple and the one
    induced from R3 differ, or None."""
    leq = lattice.leq.tolist()
    op = {w: getattr(quad, w).table.__getitem__ for w in "PFHG"}
    want = {}
    for which, (a, b), names in (("R1", "PF", R1_INEQS), ("R2", "HG", R2_INEQS)):
        pairs, first = getattr(oracles, f"induced_{which}")(props, leq, op[a], op[b], n)
        want[which] = pairs, {pair: (index, names[side]) for pair, (index, side) in first.items()}
    pairs = want["R1"][0] & want["R2"][0]
    firsts = {}
    for pair in set(want["R1"][1]) | set(want["R2"][1]):
        hits = [want[which][1][pair] for which in ("R1", "R2") if pair in want[which][1]]
        firsts[pair] = min(hits, key=lambda hit: hit[0])  # R1 on a tie
    want["R3"] = pairs, firsts

    join2 = lambda x, y: int(lattice.join_table[x, y])
    meet2 = lambda x, y: int(lattice.meet_table[x, y])
    induced = {"P": lambda q: oracles.tense_P(join2, lattice.bottom, pairs, q),
               "F": lambda q: oracles.tense_F(join2, lattice.bottom, pairs, q),
               "H": lambda q: oracles.tense_H(meet2, lattice.top, pairs, q),
               "G": lambda q: oracles.tense_G(meet2, lattice.top, pairs, q)}
    differs = next(((w, index) for w in "PFHG" for index, q in enumerate(props)
                    if op[w](q) != induced[w](q)), None)
    return want, differs


@pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("core", ["ids", "rows"])
@settings(max_examples=15, deadline=None)
@given(instance=_quadruples())
def test_induction_and_classify_match_oracles(core, jobs, sampled, instance):
    lattice, points, quad = instance
    n = len(points)
    count = lattice.n ** n
    budget = max(1, count // 3) if sampled else None
    props = _rows(decode_props(lattice, n, oracles.stratified_ids(count, budget, DEFAULT_SEED))
                  if sampled else proposition_block(lattice, n, 0, count))
    want, differs = _oracle(lattice, n, quad, props)

    with pytest.MonkeyPatch.context() as patch:
        if core == "rows":
            converse_cases.force_row_path(patch)
        patch.setattr(laws, "ID_CHUNK", 16)  # several batches, so that jobs 2 splits
        patch.setattr(laws, "_split_cost", 0.0)
        kw = dict(budget=budget, jobs=jobs)
        got = {"R1": induce_R1(lattice, points, quad.P, quad.F, **kw),
               "R2": induce_R2(lattice, points, quad.H, quad.G, **kw),
               "R3": induce_R3(lattice, points, quad, **kw)}
        verdict = classify_inducibility(lattice, points, quad, **kw)

    for which, report in got.items():
        pairs, first = want[which]
        assert set(report.pairs) == pairs, which
        assert {pair: (w.index, w.inequality) for pair, w in report.witnesses.items()} == first
        assert all(w.q == props[w.index] for w in report.witnesses.values())
    if differs is None:
        assert verdict.verdict == "frame-induced"
        return
    label, index = differs
    witness = verdict.witness
    assert verdict.verdict == "not-frame-inducible"
    assert dict(witness.ops)[label] == label
    assert witness.note.endswith(f"first differ at index {index}")
    assert witness.props == (("q", props[index]),)
