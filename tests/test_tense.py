import gc
import pickle
import weakref

import numpy as np
import pytest

import oracles
from omtense import tense
from omtense import (
    BudgetExceeded,
    FrameInduced,
    IdentityElseConstant,
    InvalidSpec,
    OperatorQuadruple,
    ParseError,
    Tabulated,
    TabulatedMiss,
    compose,
    eval_F,
    eval_G,
    eval_H,
    eval_P,
    format_prop,
    identity_operator,
    op_leq_counterexample,
    ops_equal,
    parse_props,
    partition_ranges,
    proposition_block,
    proposition_count,
    sampled_block,
)
from omtense.fixtures import LATTICE_TEXTS, builtin_frame, builtin_lattice
from omtense.frames import TimeFrame
from omtense.laws import App, Law, PVar, check_law
from omtense.report import FAIL, ONE_SIDED

# the worked 5-point tables: one frozen row per operator and proposition
TABLES = {
    "p": {
        "":   ("c'", "b'", "c'", "a'", "b'"),
        "P":  ("c'", "1", "1", "1", "1"),
        "F":  ("1", "1", "1", "1", "b'"),
        "H":  ("c'", "a", "a", "0", "0"),
        "G":  ("0", "0", "0", "c", "b'"),
        "PG": ("0", "0", "0", "c", "b'"),
        "GP": ("c'", "1", "1", "1", "1"),
    },
    "q": {
        "":   ("a", "b'", "d", "a", "a'"),
        "P":  ("a", "b'", "1", "1", "1"),
        "F":  ("1", "1", "1", "1", "a'"),
        "H":  ("a", "a", "0", "0", "0"),
        "G":  ("0", "0", "0", "0", "a'"),
        "PG": ("0", "0", "0", "0", "a'"),
        "GP": ("a", "b'", "1", "1", "1"),
    },
}

EVAL = {"P": eval_P, "F": eval_F, "H": eval_H, "G": eval_G}


@pytest.mark.parametrize("prop_name", ["p", "q"])
@pytest.mark.parametrize("op_name", ["P", "F", "H", "G"])
def test_worked_tables(oml10, le5, pq, names, prop_name, op_name):
    got = EVAL[op_name](oml10, le5, pq[prop_name])
    assert names(oml10, got) == TABLES[prop_name][op_name]


@pytest.mark.parametrize("prop_name", ["p", "q"])
def test_worked_compositions(oml10, le5, pq, names, prop_name):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    q = pq[prop_name]
    assert names(oml10, quad.P(quad.G(q))) == TABLES[prop_name]["PG"]
    assert names(oml10, quad.G(quad.P(q))) == TABLES[prop_name]["GP"]


@pytest.mark.parametrize("prop_name", ["p", "q"])
def test_dynamic_pair_inequalities_are_strict_somewhere(oml10, le5, pq, prop_name):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    q = pq[prop_name]
    pg, gp = quad.P(quad.G(q)), quad.G(quad.P(q))
    fh, hf = quad.F(quad.H(q)), quad.H(quad.F(q))
    for lo, hi in ((pg, q), (q, gp), (fh, q), (q, hf)):
        assert all(oml10.leq[x, y] for x, y in zip(lo, hi, strict=True))
    assert pg != q
    assert q != gp


def _join2(lat):
    return lambda x, y: lat.join(x, y)


def _meet2(lat):
    return lambda x, y: lat.meet(x, y)


@pytest.mark.parametrize("frame_name", ["le2", "le3", "le5", "blocks5", "nonserial2"])
def test_operators_match_literal_definition(oml10, frame_name, request):
    frame = request.getfixturevalue(frame_name)
    rng = np.random.default_rng(7)
    props = [tuple(int(x) for x in rng.integers(0, oml10.n, size=frame.n))
             for _ in range(50)]
    for q in props:
        assert eval_P(oml10, frame, q) == oracles.tense_P(
            _join2(oml10), oml10.bottom, frame.rel, q)
        assert eval_F(oml10, frame, q) == oracles.tense_F(
            _join2(oml10), oml10.bottom, frame.rel, q)
        assert eval_H(oml10, frame, q) == oracles.tense_H(
            _meet2(oml10), oml10.top, frame.rel, q)
        assert eval_G(oml10, frame, q) == oracles.tense_G(
            _meet2(oml10), oml10.top, frame.rel, q)


def test_operators_match_literal_definition_exhaustively(cube2, le2):
    # small enough to sweep the full proposition space
    for q in oracles.all_props(cube2.n, le2.n):
        assert eval_P(cube2, le2, q) == oracles.tense_P(
            _join2(cube2), cube2.bottom, le2.rel, q)
        assert eval_G(cube2, le2, q) == oracles.tense_G(
            _meet2(cube2), cube2.top, le2.rel, q)


def test_batch_agrees_with_scalar(oml10, le5):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    block = sampled_block(oml10, le5.n, 200, seed=3)
    for op in (quad.P, quad.F, quad.H, quad.G):
        out = op.apply_batch(block)
        for i in range(block.shape[0]):
            assert tuple(int(x) for x in out[i]) == op(tuple(int(x) for x in block[i]))


def _fixture_frame(name):
    if name == "empty":
        return TimeFrame("empty", ("a", "b", "c"), (), _allow_empty=True)
    return builtin_frame(name)


@pytest.mark.parametrize("frame_name", ["le2", "le3", "le5", "blocks5", "nonserial2", "empty"])
@pytest.mark.parametrize("lattice_name", sorted(LATTICE_TEXTS))
def test_frame_batch_matches_oracle(lattice_name, frame_name):
    lattice, frame = builtin_lattice(lattice_name), _fixture_frame(frame_name)
    count = proposition_count(lattice, frame.n)
    if count <= 2000:
        block = proposition_block(lattice, frame.n, 0, count)
    else:
        block = sampled_block(lattice, frame.n, 500, seed=11)
    join2, meet2 = _join2(lattice), _meet2(lattice)
    literal = {
        "P": lambda q: oracles.tense_P(join2, lattice.bottom, frame.rel, q),
        "F": lambda q: oracles.tense_F(join2, lattice.bottom, frame.rel, q),
        "H": lambda q: oracles.tense_H(meet2, lattice.top, frame.rel, q),
        "G": lambda q: oracles.tense_G(meet2, lattice.top, frame.rel, q),
    }
    rows = [tuple(int(x) for x in row) for row in block]
    for which, eval_op in EVAL.items():
        out = FrameInduced(lattice, frame, which).apply_batch(block)
        assert out.dtype == block.dtype and out.shape == block.shape
        got = [tuple(int(x) for x in row) for row in out]
        assert got == [literal[which](q) for q in rows], which
        assert got == [eval_op(lattice, frame, q) for q in rows], which


def _memo_keys(lattice):
    return set(tense._FRAME_MAPS.get(lattice, {}))


def test_frame_maps_are_shared_by_relation(le3):
    lattice = builtin_lattice("oml10")
    renamed = TimeFrame("renamed", le3.points, le3.rel)
    quad = OperatorQuadruple.from_frame(lattice, le3)
    for which in "PFHG":
        m = getattr(quad, which).id_map()
        assert FrameInduced(lattice, renamed, which).id_map() is m
        assert not m.flags.writeable
    assert len({id(getattr(quad, w).id_map()) for w in "PFHG"}) == 4
    wider = FrameInduced(lattice, TimeFrame("wider", le3.points, le3.rel | {(2, 0)}), "P")
    assert wider.id_map() is not quad.P.id_map()
    assert _memo_keys(lattice) == ({(3, le3.rel, w) for w in "PFHG"}
                                   | {(3, wider.frame.rel, "P")})


def test_frame_map_lives_with_its_operators(le2, le3):
    lattice = builtin_lattice("oml10")
    short = FrameInduced(lattice, le2, "G")
    first = short.id_map()
    longer = FrameInduced(lattice, le3, "G")
    longer.id_map()
    assert _memo_keys(lattice) == {(2, le2.rel, "G"), (3, le3.rel, "G")}
    assert FrameInduced(lattice, le2, "G").id_map() is first
    del longer
    assert _memo_keys(lattice) == {(2, le2.rel, "G")}
    want = first.copy()
    del short, first
    assert _memo_keys(lattice) == set()
    assert np.array_equal(FrameInduced(lattice, le2, "G").id_map(), want)


def test_frame_map_memo_goes_with_its_lattice(le2):
    lattice = builtin_lattice("oml10")
    FrameInduced(lattice, le2, "P").id_map()
    tense.all_props(lattice, le2.n)
    ref = weakref.ref(lattice)
    del lattice
    gc.collect()
    assert ref() is None


def test_pickled_lattice_leaves_its_caches_behind(le5):
    lattice = builtin_lattice("oml10")
    op = FrameInduced(lattice, le5, "P")
    sizes = (len(pickle.dumps(lattice)), len(pickle.dumps(op)))
    props = tense.all_props(lattice, le5.n)
    want = op.id_map()
    assert (len(pickle.dumps(lattice)), len(pickle.dumps(op))) == sizes
    clone = pickle.loads(pickle.dumps(op))
    assert clone.lattice not in tense._ALL_PROPS and not _memo_keys(clone.lattice)
    assert np.array_equal(tense.all_props(clone.lattice, le5.n), props)
    assert np.array_equal(clone.id_map(), want)
    assert tense._FRAME_MAPS[clone.lattice][(le5.n, le5.rel, "P")] is clone.id_map()


def test_duality_through_complement(oml10, le5):
    # H(q) = P(q')' and G(q) = F(q')'
    quad = OperatorQuadruple.from_frame(oml10, le5)
    block = sampled_block(oml10, le5.n, 100, seed=11)
    for row in block:
        q = tuple(int(x) for x in row)
        qc = tuple(oml10.orthocomplement(x) for x in q)
        assert quad.H(q) == tuple(oml10.orthocomplement(x) for x in quad.P(qc))
        assert quad.G(q) == tuple(oml10.orthocomplement(x) for x in quad.F(qc))


def test_empty_join_and_meet_convention(oml10, nonserial2):
    # the point with no predecessor gets bottom from P and top from H
    top_prop = (oml10.top, oml10.top)
    assert eval_P(oml10, nonserial2, top_prop) == (oml10.bottom, oml10.top)
    assert eval_H(oml10, nonserial2, top_prop) == (oml10.top, oml10.top)
    assert eval_F(oml10, nonserial2, top_prop) == (oml10.top, oml10.bottom)
    assert eval_G(oml10, nonserial2, top_prop) == (oml10.top, oml10.top)


# -- enumeration ------------------------------------------------------------

def test_enumeration_count_and_bounds(oml10):
    assert proposition_count(oml10, 3) == 1000
    listed = [tuple(int(x) for x in row) for row in proposition_block(oml10, 2, 0, 100)]
    assert len(listed) == 100
    assert len(set(listed)) == 100


def test_enumeration_starts_at_bottom_and_rolls_last_point(cube3):
    listed = [tuple(int(x) for x in row) for row in proposition_block(cube3, 2, 0, cube3.n ** 2)]
    bottom = cube3.bottom
    order = [bottom] + [i for i in range(cube3.n) if i != bottom]
    assert listed[0] == (bottom, bottom)
    # last point is the least significant digit
    assert listed[1] == (bottom, order[1])
    assert listed[cube3.n] == (order[1], bottom)
    assert listed == [(a, b) for a in order for b in order]


def test_proposition_block_chunks_agree(oml10):
    space = proposition_count(oml10, 2)
    whole = proposition_block(oml10, 2, 0, space)
    parts = np.concatenate([proposition_block(oml10, 2, lo, min(lo + 17, space))
                            for lo in range(0, space, 17)])
    assert np.array_equal(whole, parts)


def test_partition_ranges_cover_without_overlap():
    for total in (0, 1, 7, 100):
        for k in (1, 2, 3, 8):
            ranges = partition_ranges(total, k)
            flat = [i for lo, hi in ranges for i in range(lo, hi)]
            assert flat == list(range(total))


def test_sampled_block_is_deterministic(oml10):
    a = sampled_block(oml10, 3, 50, seed=42)
    b = sampled_block(oml10, 3, 50, seed=42)
    c = sampled_block(oml10, 3, 50, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# -- operator ordering ------------------------------------------------------

def test_op_leq_on_reflexive_frame(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    assert op_leq_counterexample(quad.H, quad.P) is None
    assert op_leq_counterexample(quad.G, quad.F) is None
    q, point = op_leq_counterexample(quad.P, quad.H)
    assert not oml10.leq[quad.P(q)[point], quad.H(q)[point]]


def test_op_leq_budget(oml10, le5):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    with pytest.raises(BudgetExceeded):
        op_leq_counterexample(quad.H, quad.P, budget=10 ** 4)  # space is 10^5
    # past the budget the order is a sampled law lo(q) <= hi(q)
    order = Law("order", "leq", App("lo", PVar("q")), App("hi", PVar("q")), ("q",))
    held = check_law(order, oml10, le5.n, {"lo": quad.H, "hi": quad.P}, budget=2000)
    assert (held.verdict, held.checked) == (ONE_SIDED, 2000)
    hit = check_law(order, oml10, le5.n, {"lo": quad.P, "hi": quad.H}, budget=2000)
    assert hit.verdict == FAIL


def test_op_leq_rejects_mismatched_operators(oml10, cube2, le3, le5):
    with pytest.raises(InvalidSpec):
        op_leq_counterexample(FrameInduced(oml10, le3, "P"), FrameInduced(oml10, le5, "P"))
    with pytest.raises(InvalidSpec):
        op_leq_counterexample(FrameInduced(oml10, le3, "P"), FrameInduced(cube2, le3, "P"))


def test_ops_equal(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    assert ops_equal(quad.P, quad.P)
    assert not ops_equal(quad.P, quad.F)


# -- the other operator shapes ----------------------------------------------

def test_identity_else_constant(oml10):
    op = IdentityElseConstant(oml10, 3, frozenset({1}), oml10.top, label="S")
    assert op((2, 3, 4)) == (oml10.top, 3, oml10.top)
    block = proposition_block(oml10, 3, 0, 60)
    out = op.apply_batch(block)
    assert np.array_equal(out[:, 1], block[:, 1])
    assert (out[:, 0] == oml10.top).all() and (out[:, 2] == oml10.top).all()
    with pytest.raises(InvalidSpec):
        IdentityElseConstant(oml10, 3, frozenset({5}), oml10.top)
    with pytest.raises(InvalidSpec):
        IdentityElseConstant(oml10, 3, frozenset({0}), oml10.n + 3)


def test_identity_operator_is_identity(oml10):
    op = identity_operator(oml10, 4)
    q = (1, 5, 0, 9)
    assert op(q) == q


def test_tabulated_and_miss(cube2):
    table = {q: q[::-1] for q in oracles.all_props(cube2.n, 2)}
    op = Tabulated(cube2, 2, table, label="rev")
    assert op((0, 3)) == (3, 0)
    partial = Tabulated(cube2, 2, {(0, 0): (0, 0)}, label="part")
    with pytest.raises(TabulatedMiss):
        partial((1, 2))


def test_compose_order_and_label(oml10, le3, le5, pq):
    quad = OperatorQuadruple.from_frame(oml10, le5)
    pg = compose(quad.P, quad.G)
    assert pg.label == "PG"
    assert pg(pq["p"]) == quad.P(quad.G(pq["p"]))
    with pytest.raises(InvalidSpec):
        compose(quad.P, FrameInduced(oml10, le3, "G"))


def test_quadruple_validation(oml10, le3, le5):
    with pytest.raises(InvalidSpec):
        OperatorQuadruple(
            FrameInduced(oml10, le5, "P"), FrameInduced(oml10, le5, "F"),
            FrameInduced(oml10, le3, "H"), FrameInduced(oml10, le5, "G"))


# -- proposition text format -------------------------------------------------

def test_parse_props_roundtrip(oml10, le5, pq):
    text = "".join(format_prop(name, q, oml10, le5) for name, q in pq.items())
    assert parse_props(text, oml10, le5) == pq


def test_parse_props_errors(oml10, le5):
    with pytest.raises(ParseError):
        parse_props("prop x = 1:a 2:a 3:a 4:a\n", oml10, le5)  # missing point
    with pytest.raises(ParseError):
        parse_props("prop x = 1:a 1:a 2:a 3:a 4:a 5:a\n", oml10, le5)
    with pytest.raises(ParseError):
        parse_props("prop x = 1:zz 2:a 3:a 4:a 5:a\n", oml10, le5)
    with pytest.raises(ParseError):
        parse_props("prop x = 9:a\n", oml10, le5)
    with pytest.raises(ParseError):
        parse_props("", oml10, le5)
