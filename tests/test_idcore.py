"""The id core of check_laws against a brute force built from tests/oracles.py.

The reference enumerates propositions as tuples in odometer order, applies
the literal tense and Sasaki definitions from oracles.py point by point and
reports the first failing binding, so every LawOutcome field (verdict, mode,
checked, witness_env, witness_point) can be compared exactly.
"""

import gc
import itertools
import math
import pickle
import time
import tracemalloc
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import converse_cases
import oracles
from omtense import cli, laws, tense
from omtense.errors import BudgetExceeded, TabulatedMiss, TooBigForMemory
from omtense.extension import _check_extension, extend_frame
from omtense.fixtures import FRAME_TEXTS, LATTICE_TEXTS, builtin_frame, builtin_lattice
from omtense.frames import TimeFrame, parse_frame
from omtense.lattice import build_lattice, parse_lattice
from omtense.laws import (
    App,
    At,
    ConstProp,
    IdAlgebra,
    Join,
    Law,
    LawOutcome,
    Meet,
    Neg,
    PVar,
    RowAlgebra,
    SAnd,
    SImp,
    check_law,
    check_laws,
    render,
)
from omtense.report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED
from omtense.tense import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    ID_DTYPE,
    FrameInduced,
    IdentityElseConstant,
    OperatorQuadruple,
    Tabulated,
    compose,
    decode_props,
    encode_props,
    ops_equal,
    proposition_block,
    proposition_count,
)
from omtense.verify import (
    Instance,
    _DEMORGAN_LAWS,
    _THM1_LAWS,
    _THM2_REFLEXIVE_LAWS,
    _THM2_SERIAL_LAWS,
    _THM3_FIRST_LAWS,
    _THM3_IDEMPOTENT_LAWS,
    _THM6_LEFT,
    _THM6_RIGHT,
    _THM7_LAWS,
    _THM7_SCHEMAS,
    run_all,
)

LATTICES = ("chain2", "cube2", "mo2", "o6", "oml10")
FRAMES = ("le2", "le3", "nonserial2")
# pair spaces above this many pairs are compared on sampled draws, so the
# pure-Python reference stays fast
REFERENCE_PAIR_BUDGET = 2000
# a pair budget that samples every pair space but chain2 x le2's
SMALL_PAIR_BUDGET = 50


def _thm7_bindings():
    out = []
    for law, (_tag, slots, _lhs, _rhs) in zip(_THM7_LAWS, _THM7_SCHEMAS):
        (s1, class1), (s2, class2) = slots
        out += [(law, {s1: w1, s2: w2}) for w1 in class1 for w2 in class2]
    return out


def _suites():
    """Per suite, (law, slot -> operator name) for each quantified law, in one
    list as the suite checks them (thm6 with all four operators at once)."""
    frame_ops = {w: w for w in "PFHG"}
    return {
        "thm1": [(law, frame_ops) for law in _THM1_LAWS],
        "thm2": [(law, frame_ops) for law in _THM2_SERIAL_LAWS + _THM2_REFLEXIVE_LAWS],
        "thm3": [(law, frame_ops) for law in _THM3_FIRST_LAWS + _THM3_IDEMPOTENT_LAWS],
        "demorgan": [(law, frame_ops) for law in _DEMORGAN_LAWS],
        "thm6": [(law, {"A": w}) for w in "PFHG" for law in (_THM6_LEFT, _THM6_RIGHT)],
        "thm7": _thm7_bindings(),
    }


class Brute:
    """Literal evaluation of laws over one lattice and frame."""

    def __init__(self, lattice, frame):
        n = lattice.n
        leq = [[bool(lattice.leq[x, y]) for y in range(n)] for x in range(n)]
        self.leq = leq
        join = [[oracles.least_upper_bound(leq, x, y) for y in range(n)] for x in range(n)]
        meet = [[oracles.greatest_lower_bound(leq, x, y) for y in range(n)] for x in range(n)]
        self.join2 = lambda x, y: join[x][y]
        self.meet2 = lambda x, y: meet[x][y]
        self.comp = [int(c) for c in lattice.comp]
        self.bottom, self.top = lattice.bottom, lattice.top
        self.n_points = frame.n
        rel = frame.rel
        self._defs = {
            "P": lambda q: oracles.tense_P(self.join2, self.bottom, rel, q),
            "F": lambda q: oracles.tense_F(self.join2, self.bottom, rel, q),
            "H": lambda q: oracles.tense_H(self.meet2, self.top, rel, q),
            "G": lambda q: oracles.tense_G(self.meet2, self.top, rel, q),
        }
        self._applied = {w: {} for w in self._defs}
        # odometer order: digit 0 is the bottom, the rest in declaration order
        order = [self.bottom] + [x for x in range(n) if x != self.bottom]
        self.props = [tuple(order[d] for d in digits)
                      for digits in oracles.all_props(n, frame.n)]

    def eval(self, expr, env, ops):
        point = range(self.n_points)
        match expr:
            case PVar(name):
                return env[name]
            case ConstProp(which):
                return (self.bottom if which == "bottom" else self.top,) * self.n_points
            case Neg(a):
                return tuple(self.comp[x] for x in self.eval(a, env, ops))
            case Join(a, b):
                x, y = self.eval(a, env, ops), self.eval(b, env, ops)
                return tuple(self.join2(x[s], y[s]) for s in point)
            case Meet(a, b):
                x, y = self.eval(a, env, ops), self.eval(b, env, ops)
                return tuple(self.meet2(x[s], y[s]) for s in point)
            case SAnd(a, b):
                x, y = self.eval(a, env, ops), self.eval(b, env, ops)
                return tuple(oracles.sasaki_and(self.join2, self.meet2, self.comp, x[s], y[s])
                             for s in point)
            case SImp(a, b):
                x, y = self.eval(a, env, ops), self.eval(b, env, ops)
                return tuple(oracles.sasaki_imp(self.join2, self.meet2, self.comp, x[s], y[s])
                             for s in point)
            case App(slot, a):
                # a slot names a frame-induced operator, or holds any other
                # operator, applied by its own __call__
                q = self.eval(a, env, ops)
                op = ops[slot]
                seen = self._applied.setdefault(op, {})
                if q not in seen:
                    seen[q] = self._defs[op](q) if isinstance(op, str) else op(q)
                return seen[q]
            case At(a, s):
                return (self.eval(a, env, ops)[s],) * self.n_points
        raise TypeError(expr)

    def outcome(self, law, ops, pair_budget, budget=DEFAULT_BUDGET):
        """The law's outcome at check_laws's caps: budget propositions, and
        min(pair_budget, budget^2) pairs; a space past its cap is walked in
        the order of its stratified draw."""
        count = len(self.props)
        arity = len(law.vars)
        cap = budget if arity < 2 else min(pair_budget, budget * budget)
        if count ** arity <= cap:  # odometer order, p-major
            ks, mode, checked = range(count ** arity), EXHAUSTIVE, count ** arity
        else:
            ks = [int(k) for k in oracles.stratified_ids(count ** arity, cap, DEFAULT_SEED)]
            mode, checked = SAMPLED, cap
        ids = (lambda k: divmod(k, count)) if arity == 2 else (lambda k: (k,) * arity)
        envs = ({var: self.props[i] for var, i in zip(law.vars, ids(k))} for k in ks)
        for index, env in enumerate(envs):
            lhs, rhs = self.eval(law.lhs, env, ops), self.eval(law.rhs, env, ops)
            if law.relation == "leq":
                bad = [s for s in range(self.n_points) if not self.leq[lhs[s]][rhs[s]]]
            else:
                bad = [s for s in range(self.n_points) if lhs[s] != rhs[s]]
            if law.guard is not None:
                gl, gr = (self.eval(side, env, ops) for side in law.guard)
                if not all(self.leq[x][y] for x, y in zip(gl, gr)):
                    continue
            if bad:
                return LawOutcome(FAIL, mode, checked, witness_env=env, witness_point=bad[0],
                                  index=index, witness_lhs=lhs[bad[0]], witness_rhs=rhs[bad[0]])
        return LawOutcome(PASS if mode == EXHAUSTIVE else ONE_SIDED, mode, checked)


@pytest.mark.parametrize("lattice_name", LATTICES)
@pytest.mark.parametrize("frame_name", FRAMES)
def test_id_core_matches_brute_force(monkeypatch, lattice_name, frame_name):
    # whole suites in one check_laws call, and each case alone
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    brute = Brute(lattice, frame)
    for suite, bindings in _suites().items():
        cases = [(law, {slot: quad[w] for slot, w in names.items()}) for law, names in bindings]
        for pair_budget in (REFERENCE_PAIR_BUDGET, SMALL_PAIR_BUDGET):
            want = [brute.outcome(law, names, pair_budget) for law, names in bindings]
            with monkeypatch.context() as patch:
                patch.setattr(laws, "PAIR_BUDGET", pair_budget)
                got = check_laws(cases, lattice, frame.n)
                alone = [check_law(law, lattice, frame.n, ops) for law, ops in cases]
            assert got == want, (suite, pair_budget)
            assert alone == want, (suite, pair_budget)
        # a budget below the proposition count samples single-variable laws too
        got = check_laws(cases, lattice, frame.n, budget=7)
        assert got == [check_law(law, lattice, frame.n, ops, budget=7) for law, ops in cases]
        assert got == [brute.outcome(law, names, laws.PAIR_BUDGET, budget=7)
                       for law, names in bindings], suite


@pytest.mark.parametrize("lattice_name", LATTICES)
@pytest.mark.parametrize("frame_name", FRAMES)
def test_encoding_and_operator_maps(lattice_name, frame_name):
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    count = proposition_count(lattice, frame.n)
    block = proposition_block(lattice, frame.n, 0, count)
    assert np.array_equal(encode_props(lattice, block), np.arange(count))
    assert np.array_equal(decode_props(lattice, frame.n, np.arange(count)), block)
    quad = OperatorQuadruple.from_frame(lattice, frame)
    rows = [tuple(int(x) for x in row) for row in block]
    table = Tabulated(lattice, frame.n, {q: quad.G(q) for q in rows}, label="T")
    ops = [quad.P, quad.F, quad.H, quad.G, table, compose(quad.P, table),
           IdentityElseConstant(lattice, frame.n, frozenset({0}), lattice.top)]
    for op in ops:
        want = encode_props(lattice, op.apply_batch(block))
        assert np.array_equal(op.id_map(), want), op.label
        assert op.id_map() is op.id_map()
        # pool payloads carry the operator without its map
        clone = pickle.loads(pickle.dumps(op))
        assert "_id_map" not in clone.__dict__
        assert np.array_equal(clone.id_map(), want), op.label
    comp = IdAlgebra(lattice, frame.n).complement_map()
    assert np.array_equal(comp, encode_props(lattice, lattice.comp[block]))


def test_block_split_covers_wide_frames(monkeypatch, chain2, cube2):
    # nine points: blocks of 7 + 2 on chain2, three blocks of 3 on cube2; the
    # scan's meets, joins, equalities and order checks on block codes must
    # agree with the element tables applied point by point on the same draws
    p, q = PVar("p"), PVar("q")
    cases = [
        Law("meet-below", "leq", Meet(p, q), p, ("p", "q")),
        Law("below-meet", "leq", p, Meet(p, q), ("p", "q")),
        Law("meet-commutes", "eq", Meet(p, q), Meet(q, p), ("p", "q")),
        Law("join-is-meet", "eq", Join(p, q), Meet(q, p), ("p", "q")),
        Law("join-above", "leq", q, Join(Meet(p, q), q), ("p", "q")),
    ]
    cap = 300
    monkeypatch.setattr(laws, "PAIR_BUDGET", cap)
    for lattice in (chain2, cube2):
        count = proposition_count(lattice, 9)
        got = check_laws([(law, {}) for law in cases], lattice, 9)
        ks = laws._ids_at(count ** 2, laws._offsets(count ** 2, cap, DEFAULT_SEED), 0, cap)
        a, b = (decode_props(lattice, 9, side) for side in laws._bound_at(ks, count, 2))
        meet, join, flip = lattice.meet_table[a, b], lattice.join_table[a, b], \
            lattice.meet_table[b, a]
        sides = [(meet, a), (a, meet), (meet, flip), (join, flip), (b, lattice.join_table[meet, b])]
        for law, outcome, (lhs, rhs) in zip(cases, got, sides):
            ok = lattice.leq[lhs, rhs] if law.relation == "leq" else lhs == rhs
            fails = np.flatnonzero(~ok.all(axis=1))
            if not fails.size:
                assert outcome == LawOutcome(ONE_SIDED, SAMPLED, cap), law.id
                continue
            k = fails[0]
            env = {"p": tuple(int(x) for x in a[k]), "q": tuple(int(x) for x in b[k])}
            point = int(np.argmin(ok[k]))
            assert outcome == LawOutcome(FAIL, SAMPLED, cap, env, point, int(k),
                                         int(lhs[k, point]), int(rhs[k, point])), law.id
        assert [o.verdict for o in got] == [ONE_SIDED, FAIL, ONE_SIDED, FAIL, ONE_SIDED]


def test_row_values_agree_with_id_maps(monkeypatch, oml10, le2):
    # above ID_PATH_MAX the scan applies operators to each batch's element
    # rows (RowAlgebra) instead of reading id maps; force that with a tiny
    # cap and expect the same outcomes
    quad = OperatorQuadruple.from_frame(oml10, le2).as_dict()
    cases = [(law, quad, 10 ** 6, 1) for law in _THM1_LAWS]
    unguarded = Law("unguarded", "leq", App("P", PVar("p")), App("P", PVar("q")), ("p", "q"))
    cases += [(_THM6_LEFT, {"A": quad["P"]}, 10 ** 6, 2),
              (_THM7_LAWS[0], {"A1": quad["P"], "A2": quad["F"]}, 500, 1),
              (unguarded, quad, 10 ** 6, 1), (unguarded, quad, 500, 1)]

    def run():
        out = []
        for law, ops, pair_budget, jobs in cases:
            monkeypatch.setattr(laws, "PAIR_BUDGET", pair_budget)
            out.append(check_law(law, oml10, le2.n, ops, jobs=jobs))
        return out

    want = run()
    monkeypatch.setattr(laws, "ID_PATH_MAX", 10)
    assert run() == want


# -- random laws ---------------------------------------------------------------

SLOTS = ("A", "B")
# pair spaces above this many pairs are compared on sampled draws
RANDOM_PAIR_BUDGET = 300


def _expressions(names, depth, n_points):
    """Expressions over the variables names, at most depth connectives,
    operators or point projections deep, on n_points points."""
    leaf = st.builds(ConstProp, st.sampled_from(["bottom", "top"]))
    if names:
        leaf = st.one_of(st.sampled_from([PVar(name) for name in names]), leaf)
    if depth == 0:
        return leaf
    sub = _expressions(names, depth - 1, n_points)
    return st.one_of(leaf, st.builds(Neg, sub), st.builds(App, st.sampled_from(SLOTS), sub),
                     st.builds(At, sub, st.integers(0, n_points - 1)),
                     *(st.builds(kind, sub, sub) for kind in (Join, Meet, SAnd, SImp)))


@st.composite
def _random_laws(draw, n_points):
    """A law of arity 0-2 on n_points points, its sides at most three deep,
    leq or eq, about 30% guarded; a third of them built to hold, so they scan
    to the end."""
    names = ("p", "q")[2 - draw(st.integers(0, 2)):]
    lhs = draw(_expressions(names, 3, n_points))
    relation = draw(st.sampled_from(["leq", "eq"]))
    if draw(st.integers(0, 2)) == 0:
        rhs = lhs if relation == "eq" else Join(lhs, draw(_expressions(names, 2, n_points)))
    else:
        rhs = draw(_expressions(names, 3, n_points))
    guard = None
    if draw(st.integers(0, 9)) < 3:
        guard = tuple(draw(_expressions(names, 2, n_points)) for _ in range(2))
    return Law("random", relation, lhs, rhs, names, guard)


def _mo_lattice(n):
    """The horizontal sum MO_n of n four-element Boolean blocks: 2n + 2 elements."""
    atoms = [f"a{i}" for i in range(n)] + [f"a{i}'" for i in range(n)]
    covers = [f"0<{a}" for a in atoms] + [f"{a}<1" for a in atoms]
    ortho = ["0:1"] + [f"a{i}:a{i}'" for i in range(n)]
    return build_lattice(parse_lattice(
        f"lattice mo{n}\nelements 0 {' '.join(atoms)} 1\ncovers {' '.join(covers)}\n"
        f"ortho {' '.join(ortho)}\n"))


MO90 = _mo_lattice(90)  # 182 elements: radix 182 > 181, so the core keeps int32
POINT = parse_frame("frame one\npoints 1\nrel 1>1\n")


def test_frame_maps_widen_before_they_index_a_182_element_table():
    # on MO_90, x * 182 + y passes the int16 range of the proposition rows:
    # every batch and id map must still agree with the point-by-point
    # operators, at points that fold two or more sources, and so must an
    # extension check, whose sides join or meet two id maps on int32 codes
    le2, le3 = builtin_frame("le2"), builtin_frame("le3")
    assert max(len(p) for p in le3.preds) >= 2 and max(len(s) for s in le3.succs) >= 2
    block = tense.sampled_block(MO90, le3.n, 300, seed=5)
    rows = [tuple(int(x) for x in row) for row in block]
    for which in "PFHG":
        op = FrameInduced(MO90, le3, which)
        out = op.apply_batch(block)
        assert [tuple(int(x) for x in row) for row in out] == [op(q) for q in rows], which
    props = tense.all_props(MO90, le2.n)
    sample = [tuple(int(x) for x in q) for q in props[::97]]
    # over le2's converse both sides fail, first at small ids
    converse = TimeFrame("converse", le2.points, {(t, s) for s, t in le2.rel})
    relation = SimpleNamespace(frame=lambda: converse)
    own, bar = extend_frame(le2).bar, extend_frame(converse).bar
    for labels in (("P", "F"), ("H", "G")):
        a, b = (FrameInduced(MO90, le2, which) for which in labels)
        assert np.array_equal(a.id_map()[::97],
                              encode_props(MO90, np.array([a(q) for q in sample])))
        assert all(oracles.restricted_bar(FrameInduced(MO90, own, labels[0]), a, b, q) == a(q)
                   for q in sample)
        report = _check_extension(MO90, le2.points, a, b, relation, "ext", labels,
                                  budget=None, seed=1729, jobs=1)
        for label, given, law in zip(labels, (a, b), report.laws[1:]):
            _, q, point, got, want = oracles.first_restriction_failure(
                FrameInduced(MO90, bar, label), given, a, b,
                (tuple(int(x) for x in q) for q in props))
            assert law.verdict == FAIL and law.witness.props[0] == ("q", q)
            assert (law.witness.point, law.witness.lhs, law.witness.rhs) == (point, got, want)


def _random_bound(instance):
    """instance with 1-3 random laws on its points, each with the operators
    bound to its slots A and B."""
    n_points = POINT.n if instance[1] == "one" else builtin_frame(instance[1]).n
    case = st.tuples(_random_laws(n_points), st.sampled_from("PFHG"), st.sampled_from("PFHG"))
    return st.tuples(st.just(instance), st.lists(case, min_size=1, max_size=3))


@settings(max_examples=30, deadline=None)
@given(drawn=st.sampled_from([(lattice, frame) for lattice in ("chain2", "mo2", "oml10")
                              for frame in ("le2", "le3", "nonserial2")] + [("mo90", "one")])
       .flatmap(_random_bound))
# top <= q(1): on the row core at the small budget, a point projection that
# reads the wrong point reports a failure at a draw where q(1) is top
@example(drawn=(("mo2", "le3"), [(Law("random", "leq", ConstProp("top"), At(PVar("q"), 1),
                                      ("p", "q")), "P", "P")]))
def test_random_laws_match_the_oracles_at_every_setting(drawn):
    # one reference per case from the oracles, checked against eval_trace on
    # the failing binding; check_laws must report it at the default and a
    # one-binding ID_CHUNK, on ids and on rows, at jobs 1 and 2, and on both
    # cores at a budget that samples every unary space
    (lattice_name, frame_name), bound = drawn
    if lattice_name == "mo90":
        lattice, frame = MO90, POINT
        assert IdAlgebra(lattice, 1).code_dtype == IdAlgebra(lattice, 1).index_dtype == ID_DTYPE
    else:
        lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    brute = Brute(lattice, frame)
    cases = [(law, {"A": quad[a], "B": quad[b]}) for law, a, b in bound]
    # a budget of the square root of the proposition count samples every
    # unary space in strata that wide, so that failing bindings come from
    # draws across the space, not from the first ids in odometer order,
    # which are bottom at most points
    small = math.isqrt(len(brute.props))
    wants = {budget: [brute.outcome(law, {"A": a, "B": b}, RANDOM_PAIR_BUDGET, budget)
                      for law, a, b in bound] for budget in (DEFAULT_BUDGET, small)}
    for (law, ops), outcome in zip(cases * 2, wants[DEFAULT_BUDGET] + wants[small]):
        if outcome.verdict == FAIL:
            env, point = outcome.witness_env, outcome.witness_point
            lhs, rhs = (laws.eval_trace(side, lattice, env, frame.n, ops, {}, [])
                        for side in (law.lhs, law.rhs))
            if law.relation == "leq":
                assert not lattice.leq[lhs[point], rhs[point]]
            else:
                assert lhs[point] != rhs[point]
    # both cores check the order on masks but on MO_90 (180 bits a point);
    # the last two settings, a bit cap of 0, make them check per block
    # everywhere
    settings = [(*setting, laws.MASK_BITS, DEFAULT_BUDGET) for setting in
                itertools.product((laws.ID_CHUNK, 1), (False, True), (1, 2))]
    settings += [(laws.ID_CHUNK, row_core, 1, 0, DEFAULT_BUDGET) for row_core in (False, True)]
    settings += [(laws.ID_CHUNK, row_core, 1, laws.MASK_BITS, small)
                 for row_core in (False, True)]
    settings = [(*setting, True) for setting in settings]
    # the last setting scans every p row of an exhaustive pair scan
    settings += [(laws.ID_CHUNK, False, 1, laws.MASK_BITS, DEFAULT_BUDGET, False)]
    for chunk, row_core, jobs, mask_bits, budget, symmetric in settings:
        with pytest.MonkeyPatch.context() as patch:
            if not symmetric:
                _identity_only(patch)
            patch.setattr(laws, "ID_CHUNK", chunk)
            if row_core:
                patch.setattr(laws, "ID_PATH_MAX", 0)
            patch.setattr(laws, "MASK_BITS", mask_bits)
            patch.setattr(laws, "_split_cost", 0.0)
            patch.setattr(laws, "PAIR_BUDGET", RANDOM_PAIR_BUDGET)
            got = check_laws(cases, lattice, frame.n, budget=budget, jobs=jobs)
        assert got == wants[budget], (chunk, row_core, jobs, mask_bits, budget, symmetric)
    # at the default pair budget every pair space here is scanned in full,
    # on ids over the p rows least in their orbits: scanning every p row
    # reports the same
    got = check_laws(cases, lattice, frame.n)
    with pytest.MonkeyPatch.context() as patch:
        _identity_only(patch)
        assert check_laws(cases, lattice, frame.n) == got


# -- the order check -----------------------------------------------------------

# pair spaces above this many pairs are compared on sampled pairs
ORDER_PAIRS = 1 << 20


def _point_counts(lattice):
    """Every point count the id core takes: at most ID_PATH_MAX propositions."""
    return [n_points for n_points in range(1, 21) if lattice.n ** n_points <= tense.ID_PATH_MAX]


def _digits_order(lattice):
    """Digit -> element: digit 0 the bottom, the others in declaration order."""
    return [lattice.bottom] + [e for e in range(lattice.n) if e != lattice.bottom]


def _decoded(lattice, n_points, ids):
    """The element rows of these ids, by oracles.decode_id."""
    order = _digits_order(lattice)
    return np.array([[order[d] for d in oracles.decode_id(int(i), lattice.n, n_points)]
                     for i in ids]).reshape(-1, n_points)


def _order_pairs(lattice, n_points, rng):
    """(x ids, y ids) to check the order on: every pair, as a column and a
    row of all ids, while there are at most ORDER_PAIRS, else 1500 uniform
    pairs and 1500 pairs with x <= y, each such y the pointwise join of x
    with a uniform proposition."""
    count = lattice.n ** n_points
    if count * count <= ORDER_PAIRS:
        ids = np.arange(count)
        return ids[:, None], ids[None, :]
    x, y, z = rng.integers(0, count, size=(3, 1500))
    joined = lattice.join_table[_decoded(lattice, n_points, x), _decoded(lattice, n_points, z)]
    digit = np.argsort(_digits_order(lattice))
    above = digit[joined] @ (lattice.n ** np.arange(n_points - 1, -1, -1))
    return np.concatenate([x, x]), np.concatenate([y, above])


def _order_reference(lattice, n_points, leq, x, y):
    """Per pair of ids x and y, broadcast against each other, whether leq
    holds between their elements at every point."""
    a, b = (_decoded(lattice, n_points, ids.ravel()).reshape(ids.shape + (n_points,))
            for ids in (x, y))
    ok = np.ones(np.broadcast_shapes(x.shape, y.shape), dtype=bool)
    for j in range(n_points):
        ok &= leq(a[..., j], b[..., j])
    return ok


def _core_below(core, x, y):
    """Whether x <= y, as the core checks it: on order masks where they fit,
    else per block from the block order tables."""
    if core.mask_dtype is not None:
        masks = core.mask_map()
        return laws._mask_below(masks[x], masks[y])
    blocks = range(len(core.widths))
    left, right = core.codes(x.astype(ID_DTYPE)), core.codes(y.astype(ID_DTYPE))
    return laws._below([core.tables(laws._leq_batch, b) for b in blocks],
                       *[code for b in blocks for code in (core.scale(b, left[b]), right[b])])


def _assert_order_table(lattice, leq):
    """The core's order tables, its mask map or, where masks do not fit, its
    per-block order tables, against leq at every point count; and the row
    core's masks of the checked propositions against the mask map."""
    rng = np.random.default_rng(11)
    for n_points in _point_counts(lattice):
        core = IdAlgebra(lattice, n_points)
        bits = len(core.irreducibles()) * n_points
        assert (core.mask_dtype is not None) == (bits <= 64), n_points
        assert RowAlgebra(lattice, n_points).mask_dtype == core.mask_dtype
        x, y = _order_pairs(lattice, n_points, rng)
        if core.mask_dtype is not None:
            assert np.iinfo(core.mask_dtype).bits == max(8, 1 << (bits - 1).bit_length())
            masks = core.mask_map()
            assert masks.dtype == core.mask_dtype and not masks.flags.writeable
            assert masks.shape == (proposition_count(lattice, n_points),)
            ids = np.unique(np.concatenate([x.ravel(), y.ravel()]))
            rows = RowAlgebra(lattice, n_points).masker()(_decoded(lattice, n_points, ids))
            assert rows.dtype == core.mask_dtype and np.array_equal(rows, masks[ids]), n_points
        got = _core_below(core, x, y)
        assert got.dtype == bool and got.any() and not got.all(), n_points
        assert np.array_equal(got, _order_reference(lattice, n_points, leq, x, y)), n_points


def _brute_irreducibles(lattice):
    """The join-irreducibles by brute force: elements but the bottom that
    are the join of no two elements other than themselves."""
    join = lattice.join_table
    return [j for j in range(lattice.n) if j != lattice.bottom
            and not any(int(join[x, y]) == j for x in range(lattice.n) for y in range(lattice.n)
                        if j not in (x, y))]


@pytest.mark.parametrize("name", sorted(LATTICE_TEXTS))
def test_order_table_on_the_builtin_lattices(name):
    lattice = builtin_lattice(name)
    assert IdAlgebra(lattice, 1).irreducibles().tolist() == _brute_irreducibles(lattice)
    _assert_order_table(lattice, lambda a, b: lattice.leq[a, b])


@pytest.mark.parametrize("k", range(1, 7))
def test_order_table_on_boolean_cubes(k):
    # elements are subsets of a k-set, so x <= y where each point's subset of
    # x lies in y's; the irreducibles are the k singletons
    names, covers, ortho = oracles.boolean_cube_covers(k)
    lattice = build_lattice(parse_lattice(
        f"lattice cube{k}\nelements {' '.join(names)}\n"
        f"covers {' '.join(f'{a}<{b}' for a, b in covers)}\n"
        f"ortho {' '.join(f'{a}:{b}' for a, b in ortho if a <= b)}\n"))
    mask = np.empty(lattice.n, dtype=np.int64)
    for bits, name in enumerate(names):
        mask[lattice.index[name]] = bits
    irreducibles = IdAlgebra(lattice, 1).irreducibles().tolist()
    assert irreducibles == _brute_irreducibles(lattice)
    assert sorted(mask[irreducibles].tolist()) == [1 << i for i in range(k)]
    _assert_order_table(lattice, lambda a, b: oracles.subset_leq(mask[a], mask[b]))


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_order_table_on_mo_lattices(n):
    # MO_n's irreducibles are its 2n atoms: MO_7 x 5 points would take 70
    # bits, so it is checked per block
    lattice = _mo_lattice(n)
    assert IdAlgebra(lattice, 1).irreducibles().tolist() == _brute_irreducibles(lattice)
    assert len(_brute_irreducibles(lattice)) == 2 * n
    _assert_order_table(lattice, lambda a, b: lattice.leq[a, b])


def test_order_table_on_182_elements():
    # MO_90 x one point: 180 irreducibles, far past a 64-bit mask, so the
    # order check runs per block, on int32 block codes and indices
    core = IdAlgebra(MO90, 1)
    assert core.code_dtype == ID_DTYPE and core.mask_dtype is None
    _assert_order_table(MO90, lambda a, b: MO90.leq[a, b])


@pytest.mark.parametrize("name, n_points, masked, core", [
    ("cube2", 5, True, IdAlgebra), ("chain2", 11, False, IdAlgebra),
    ("cube2", 5, True, RowAlgebra), ("chain2", 11, False, RowAlgebra),
], ids=["cube2-5-True", "chain2-11-False", "cube2-5-True-rows", "chain2-11-False-rows"])
def test_order_check_on_both_sides_of_the_bit_cap(monkeypatch, name, n_points, masked, core):
    # with the bit cap at 10, cube2 x 5 points (two irreducibles a point)
    # takes exactly 10 bits and is checked on masks, while chain2 x 11 takes
    # 11 and is checked per block, on ids and on rows alike. Every pair of a
    # scanned p row is checked for the guard p <= q: on ids, cube2's swap of
    # a and a' leaves about half the p rows, and chain2 has no symmetry
    monkeypatch.setattr(laws, "MASK_BITS", 10)
    if core is RowAlgebra:
        monkeypatch.setattr(laws, "ID_PATH_MAX", 0)
    lattice = builtin_lattice(name)
    count = proposition_count(lattice, n_points)
    assert (core(lattice, n_points).mask_dtype is not None) == masked
    monkeypatch.setattr(laws, "PAIR_BUDGET", count * count)
    guards = []
    check = "_mask_below" if masked else "_below"
    real = getattr(laws, check)

    def logged(*args):
        out = real(*args)
        if out.ndim == 2:  # the guard on a batch of p rows; the law's sides are 1-D
            guards.append(out)
        return out

    monkeypatch.setattr(laws, check, logged)
    scanned = _recorded_rows(monkeypatch)
    p, q = PVar("p"), PVar("q")
    law = Law("guarded", "leq", p, ConstProp("top"), ("p", "q"), guard=(p, q))
    assert check_law(law, lattice, n_points, {}) == LawOutcome(PASS, EXHAUSTIVE, count * count)
    monkeypatch.undo()
    [rows] = scanned
    if name == "cube2" and core is IdAlgebra:
        assert count // 2 < len(rows) < count
    else:
        assert np.array_equal(rows, np.arange(count))
    got = np.concatenate([guard.ravel() for guard in guards])
    want = _order_reference(lattice, n_points, lambda a, b: lattice.leq[a, b],
                            rows[:, None], np.arange(count)[None, :])
    assert np.array_equal(got, want.ravel())


def test_scan_tables_are_built_once_per_lattice_and_die_with_it(monkeypatch):
    lattice = build_lattice(parse_lattice(LATTICE_TEXTS["oml10"]))
    frame = parse_frame(FRAME_TEXTS["le3"])
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    cases = [(law, {slot: quad[w] for slot, w in names.items()})
             for law, names in _thm7_bindings()[:4]]
    want = check_laws(cases, lattice, frame.n)
    tables = list(laws._SCAN_TABLES[lattice].values())
    arrays = [a for table in tables for a in (table if isinstance(table, tuple) else (table,))]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert IdAlgebra(lattice, frame.n).mask_map() is IdAlgebra(lattice, frame.n).mask_map()

    def refuse(*args):
        raise AssertionError("a table was built again")

    monkeypatch.setattr(laws, "block_table", refuse)
    assert check_laws(cases, lattice, frame.n) == want
    monkeypatch.undo()
    refs = [weakref.ref(a) for a in arrays] + [weakref.ref(lattice)]
    del lattice, quad, cases, tables, arrays
    gc.collect()
    assert all(ref() is None for ref in refs)


# -- one scan for a list of cases ----------------------------------------------

class GatherLog(np.ndarray):
    """An operator id map (or block table) that records each gather made
    from it, or from an array derived from it, in log."""

    def __array_finalize__(self, obj):
        self.log, self.label = getattr(obj, "log", None), getattr(obj, "label", None)

    def take(self, indices, *args, **kwargs):
        out = np.asarray(self).take(indices, *args, **kwargs)
        self.log.append((self.label, out))
        return out


def _logged_quadruple(lattice, frame, log):
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    for label, op in quad.items():
        logged = op.id_map().view(GatherLog)
        logged.log, logged.label = log, label
        object.__setattr__(op, "_id_map", logged)
    return quad


def _marked_batches(monkeypatch, log, on_batch=lambda: None):
    """Put ("batch", None) in log before each exhaustive batch is handed out."""
    real = laws._exhaustive_batches

    def marked(*args, **kwargs):
        for batch in real(*args, **kwargs):
            on_batch()
            log.append(("batch", None))
            yield batch

    monkeypatch.setattr(laws, "_exhaustive_batches", marked)


def _recorded_rows(monkeypatch):
    """The p rows of each exhaustive pair scan, in the order of the scans,
    as laws._orbit_rows hands them out."""
    out = []
    real = laws._orbit_rows

    def record(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(laws, "_orbit_rows", record)
    return out


def _per_batch(log):
    batches = []
    for label, out in log:
        if label == "batch":
            batches.append([])
        else:
            batches[-1].append((label, out))
    return batches


def _batch_rows(count, scanned):
    """p rows per exhaustive pair batch, and the number of batches, for count
    propositions and the scanned p rows."""
    rows = laws.ID_CHUNK // count
    return rows, -(-len(scanned) // rows)


def test_failing_cases_leave_the_scan(monkeypatch, oml10, le3):
    # oml10 x le3 is scanned exhaustively in batches of ID_CHUNK // 1000 p
    # rows of 1000 q, over the p rows least in their orbits
    log = []
    quad = _logged_quadruple(oml10, le3, log)
    _marked_batches(monkeypatch, log)
    scanned = _recorded_rows(monkeypatch)
    p, q = PVar("p"), PVar("q")
    early = Law("early", "leq", App("A", q), p, ("p", "q"))
    later = Law("later", "eq", App("A", SAnd(p, q)), SAnd(App("A", p), q), ("p", "q"))
    holds = Law("holds", "leq", Meet(p, q), SAnd(p, q), ("p", "q"))
    thm7 = [(law, {slot: quad[w] for slot, w in names.items()})
            for law, names in _thm7_bindings()[:4]]
    cases = [(early, {"A": quad["G"]}), (later, {"A": quad["H"]}), (holds, {})] + thm7
    got = check_laws(cases, oml10, le3.n)
    batches = _per_batch(log)
    [rows_scanned] = scanned
    assert got == [check_law(law, oml10, le3.n, ops) for law, ops in cases]
    count = proposition_count(oml10, le3.n)
    rows, n_batches = _batch_rows(count, rows_scanned)
    assert len(rows_scanned) < count
    assert [o.verdict for o in got] == [FAIL, FAIL] + [PASS] * 5
    first = [[int(encode_props(oml10, np.array(o.witness_env[v]))) for v in "pq"]
             for o in got[:2]]
    # each failing p is a scanned row, at this position of the row list
    at = [int(np.searchsorted(rows_scanned, p)) for p, _ in first]
    assert [int(rows_scanned[k]) for k in at] == [p for p, _ in first]
    assert first[0] == [0, 1]      # the first pair of the first batch
    assert at[1] >= rows           # a p row of a later batch
    assert len(batches) == n_batches
    # G serves only the early law and H only the later one (these thm7 laws
    # use P and F): each is gathered until its law fails, then never again
    for label, last in (("G", 0), ("H", at[1] // rows)):
        gathers = [sum(name == label for name, _ in b) for b in batches]
        assert all(gathers[: last + 1]) and not any(gathers[last + 1:]), label


def test_each_subterm_is_gathered_once_per_batch(monkeypatch, oml10, le3):
    log = []
    quad = _logged_quadruple(oml10, le3, log)
    _marked_batches(monkeypatch, log)
    scanned = _recorded_rows(monkeypatch)
    cases = [(law, {slot: quad[w] for slot, w in names.items()})
             for law, names in _thm7_bindings()]
    assert all(o.verdict == PASS for o in check_laws(cases, oml10, le3.n))
    # distinct (operator, argument) pairs over the 32 laws, arguments
    # rendered with the operator labels so equal subterms render equal
    distinct = set()

    def walk(expr, names):
        if isinstance(expr, App):
            distinct.add((names[expr.slot], render(expr.arg, names)))
        for child in vars(expr).values():
            if isinstance(child, (App, Neg, Join, Meet, SAnd, SImp)):
                walk(child, names)

    for law, ops in cases:
        names = {slot: op.label for slot, op in ops.items()}
        walk(law.lhs, names)
        walk(law.rhs, names)
    want = Counter(label for label, _ in distinct)
    batches = _per_batch(log)
    [rows] = scanned
    assert len(batches) == _batch_rows(proposition_count(oml10, le3.n), rows)[1] > 1
    for batch in batches:
        assert Counter(label for label, _ in batch) == want


def test_shared_guard_is_checked_once_per_batch(monkeypatch, oml10, le3):
    # the four thm1 monotonicity laws share the guard p <= q: per batch that is
    # one order check of the guard on every binding, then one for each law's
    # sides on just the bindings where the guard holds
    log = []
    _marked_batches(monkeypatch, log)
    scanned = _recorded_rows(monkeypatch)
    real = laws._mask_below

    def logged(*args):
        out = real(*args)
        log.append(("leq", out))
        return out

    assert IdAlgebra(oml10, le3.n).mask_dtype == np.uint16  # 5 irreducibles a point
    monkeypatch.setattr(laws, "_mask_below", logged)
    quad = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    cases = [(law, quad) for law in _THM1_LAWS if law.guard is not None]
    assert len(cases) == 4
    got = check_laws(cases, oml10, le3.n)
    batches = _per_batch(log)
    monkeypatch.undo()
    count = proposition_count(oml10, le3.n)
    [rows_scanned] = scanned
    rows, n_batches = _batch_rows(count, rows_scanned)
    props = decode_props(oml10, le3.n, np.arange(count))
    below = oml10.leq[props[:, None, :], props[None, :, :]].all(axis=-1)
    assert len(batches) == n_batches
    for b, batch in enumerate(batches):
        guard, *sides = [out for _, out in batch]
        region = below[rows_scanned[b * rows:(b + 1) * rows]]
        assert np.array_equal(guard, region)
        assert [side.shape for side in sides] == [(np.count_nonzero(region),)] * 4
    assert got == [check_law(law, oml10, le3.n, ops) for law, ops in cases]
    assert [o.verdict for o in got] == [PASS] * 4


def test_no_memo_entry_outlives_its_batch(monkeypatch, oml10, le3):
    # every gathered id array and every array of block codes, order masks,
    # connective values, indices or order checks made in a batch must be
    # freed before the next batch
    # is handed out, and within a batch each is dropped after its last
    # reader, so few are alive at once
    log, refs, live = [], [], []  # per batch: arrays made; weakrefs; alive at each make

    class Made(list):
        def append(self, entry):
            if entry[1] is not None:
                live.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(entry[1]))

    made = Made()
    quad = _logged_quadruple(oml10, le3, made)

    def all_freed():
        gc.collect()
        assert all(ref() is None for ref in refs)
        log.append(len(refs))
        refs.clear()

    _marked_batches(monkeypatch, made, all_freed)
    scanned = _recorded_rows(monkeypatch)

    def logged(real):
        def making(*args):
            out = real(*args)
            for x in (out if isinstance(out, list) else [out]):
                made.append(("made", x))
            return out
        return making

    def logged_tables(real):
        def logging(self, *args):
            tables = real(self, *args)
            logged = []
            for table in tables if isinstance(tables, tuple) else [tables]:
                table = table.view(GatherLog)
                table.log, table.label = made, "codes"
                logged.append(table)
            return tuple(logged) if isinstance(tables, tuple) else logged[0]
        return logging

    # the mask tables may have been built by an earlier test; their gathers
    # are logged whoever built them
    assert IdAlgebra(oml10, le3.n).mask_dtype is not None
    for name in ("tables", "mask_map", "mask_table"):
        monkeypatch.setattr(IdAlgebra, name, logged_tables(getattr(IdAlgebra, name)))
    monkeypatch.setattr(IdAlgebra, "codes", logged(IdAlgebra.codes))
    monkeypatch.setattr(IdAlgebra, "scale", logged(IdAlgebra.scale))
    monkeypatch.setattr(IdAlgebra, "from_blocks", staticmethod(logged(IdAlgebra.from_blocks)))
    monkeypatch.setattr(laws, "_mask_below", logged(laws._mask_below))
    monkeypatch.setattr(np, "add", logged(np.add))
    cases = [(law, {slot: quad[w] for slot, w in names.items()})
             for law, names in _thm7_bindings()]
    cases.append((Law("early", "leq", App("A", PVar("q")), PVar("p"), ("p", "q")),
                  {"A": quad["F"]}))
    outcomes = check_laws(cases, oml10, le3.n)
    monkeypatch.undo()
    assert [o.verdict for o in outcomes] == [PASS] * 32 + [FAIL]
    all_freed()
    per_batch = log[1:]
    [rows] = scanned
    assert len(per_batch) == _batch_rows(proposition_count(oml10, le3.n), rows)[1]
    assert min(per_batch) > 200 and max(live) <= min(per_batch) // 8


# -- symmetry -----------------------------------------------------------------

def _identity_only(monkeypatch):
    """Leave every exhaustive pair scan the identity as its one symmetry, so
    that it scans every p row: the id core then offers no other symmetry,
    like the row core."""
    monkeypatch.setattr(IdAlgebra, "symmetries", RowAlgebra.symmetries)


def _assert_automorphisms(lattice, got):
    """got holds distinct automorphisms of lattice, the identity first."""
    assert got[0].tolist() == list(range(lattice.n))
    assert len({tuple(sigma) for sigma in got.tolist()}) == len(got)
    for sigma in got:
        assert np.array_equal(lattice.leq[np.ix_(sigma, sigma)], lattice.leq)
        assert np.array_equal(sigma[lattice.ortho], lattice.ortho[sigma])


def _least_rows(lattice, n_points, elements):
    """By brute force, the ids least in their orbits under these element
    permutations acting at every point."""
    props = proposition_block(lattice, n_points, 0, lattice.n ** n_points)
    images = np.array([encode_props(lattice, sigma[props]) for sigma in elements])
    return np.flatnonzero(images.min(axis=0) == np.arange(len(props)))


@pytest.mark.parametrize("name, size", [("chain2", 1), ("cube2", 2), ("cube3", 6),
                                        ("mo2", 8), ("o6", 2)])
def test_automorphisms_match_brute_force(name, size):
    lattice = builtin_lattice(name)
    leq = [[bool(lattice.leq[x, y]) for y in range(lattice.n)] for x in range(lattice.n)]
    want = oracles.automorphisms(leq, [int(c) for c in lattice.ortho])
    got = laws.automorphisms(lattice, 10 ** 6)
    assert len(want) == size
    _assert_automorphisms(lattice, got)
    assert sorted(tuple(sigma) for sigma in got.tolist()) == want


def test_oml10_has_twelve_automorphisms(oml10):
    # S3 on the atoms a, b, c, times the swap of d and d'
    got = laws.automorphisms(oml10, 10 ** 6)
    assert len(got) == 12
    _assert_automorphisms(oml10, got)
    # a lower limit keeps the first ones found
    assert np.array_equal(laws.automorphisms(oml10, 5), got[:5])


def test_automorphism_search_on_mo90_stays_within_its_bound():
    # MO_90 has 2^90 * 90! automorphisms; a scan of its 182 propositions at
    # one point asks for at most 182 of them, and the search stops there
    start = time.perf_counter()
    got = laws.automorphisms(MO90, MO90.n)
    assert time.perf_counter() - start < 1.0
    assert len(got) == MO90.n
    _assert_automorphisms(MO90, got)
    elements, ids = IdAlgebra(MO90, POINT.n).symmetries()
    assert np.array_equal(elements, got[1:]) and ids.shape == (MO90.n - 1, MO90.n)


def test_symmetry_table_stays_within_its_bound(monkeypatch):
    # MO_4 has 4! * 2^4 = 384 automorphisms; over three points (1000 ids)
    # the search stops at min(1000, |L|^2) = 100 of them, so the table holds
    # 99 id permutations, each one's action at every point
    mo4 = _mo_lattice(4)
    assert len(laws.automorphisms(mo4, 10 ** 6)) == 384
    elements, ids = IdAlgebra(mo4, 3).symmetries()
    assert elements.shape == (99, mo4.n) and ids.shape == (99, 1000) and ids.dtype == ID_DTYPE
    _assert_automorphisms(mo4, np.vstack([np.arange(mo4.n), elements]))
    props = proposition_block(mo4, 3, 0, 1000)
    assert np.array_equal(ids, [encode_props(mo4, sigma[props]) for sigma in elements])
    # the table is checked against memory before it is allocated
    monkeypatch.setattr(tense, "physical_memory", lambda: 99 * 1000 * 4 - 1)
    with pytest.raises(TooBigForMemory, match="the id permutations of 99 automorphisms"):
        IdAlgebra(_mo_lattice(4), 3).symmetries()


def test_orbit_rows_needs_little_beyond_the_symmetry_table():
    # MO_4 x 4 points: 10^4 ids and 99 symmetries, a 4 MB id table; each
    # operator is checked against it, and the least ids picked, a few id
    # rows at a time, never on a copy of the whole table
    mo4 = _mo_lattice(4)
    quad = OperatorQuadruple.from_frame(mo4, parse_frame(
        "frame le4\npoints 1 2 3 4\nrel 1>1 1>2 1>3 1>4 2>2 2>3 2>4 3>3 3>4 4>4\n")).as_dict()
    core = IdAlgebra(mo4, 4)
    subterms = laws._Subterms(core, [(law, {slot: quad[w] for slot, w in slots.items()})
                                     for law, slots in _thm7_bindings()])
    laws._orbit_rows(core, subterms)  # builds the id maps and the symmetries
    ids = core.symmetries()[1]
    assert ids.shape == (99, 10 ** 4)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rows = laws._orbit_rows(core, subterms)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= ids.nbytes / 8
    # frame-induced operators commute with every automorphism, so each
    # symmetry is kept and the rows are the least ids of their orbits
    every = np.arange(10 ** 4)
    assert np.array_equal(rows, every[(ids >= every).all(axis=0)])


def test_oml10_le3_pair_scans_run_208_of_1000_p_rows(oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    cases = [(law, {slot: quad[w] for slot, w in names.items()})
             for law, names in _thm7_bindings()]
    core = IdAlgebra(oml10, le3.n)
    rows = laws._orbit_rows(core, laws._Subterms(core, cases))
    assert rows.dtype == ID_DTYPE and len(rows) == 208
    assert np.array_equal(rows, _least_rows(oml10, le3.n, laws.automorphisms(oml10, 1000)))


@pytest.mark.parametrize("lattice_name", sorted(LATTICE_TEXTS))
@pytest.mark.parametrize("frame_name", FRAMES)
def test_orbit_rows_report_what_a_full_scan_reports(monkeypatch, lattice_name, frame_name):
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    for suite in ("thm1", "thm6", "thm7"):
        cases = [(law, {slot: quad[w] for slot, w in names.items()})
                 for law, names in _suites()[suite]]
        got = check_laws(cases, lattice, frame.n)
        with monkeypatch.context() as patch:
            _identity_only(patch)
            assert check_laws(cases, lattice, frame.n) == got, suite


def test_a_constant_that_a_symmetry_moves_drops_it(monkeypatch, oml10, le2):
    # S keeps q at point 1 and is the atom a at point 2: of the twelve
    # automorphisms only the four that fix a commute with it
    a = oml10.index["a"]
    S = IdentityElseConstant(oml10, le2.n, frozenset({0}), a)
    bindings = [binding for suite in ("thm1", "thm6") for binding in _suites()[suite]]
    cases = [(law, {slot: S for slot in names}) for law, names in
             bindings + _thm7_bindings()[:4]]
    brute = Brute(oml10, le2)
    want = [brute.outcome(law, ops, laws.PAIR_BUDGET) for law, ops in cases]
    assert FAIL in [o.verdict for o in want]
    scanned = _recorded_rows(monkeypatch)
    assert check_laws(cases, oml10, le2.n) == want
    fixing = [sigma for sigma in laws.automorphisms(oml10, 100) if sigma[a] == a]
    assert len(fixing) == 4
    [rows] = scanned
    assert np.array_equal(rows, _least_rows(oml10, le2.n, fixing))
    _identity_only(monkeypatch)
    assert check_laws(cases, oml10, le2.n) == want


def test_a_perturbed_tabulated_operator_keeps_its_failing_row(monkeypatch, mo2, le2):
    # converse_cases tabulates P and F from the frame and H and G at random;
    # P is perturbed further at q0, the least id that an automorphism maps
    # to a smaller one, to the top constant. P's monotonicity then first
    # fails at p = q0: the automorphisms that move q0 do not commute with P
    # and drop out, so q0 is still a scanned row
    quad = converse_cases._tabulated(mo2, le2)
    count = proposition_count(mo2, le2.n)
    ids = IdAlgebra(mo2, le2.n).symmetries()[1]
    q0 = min(i for i in range(count) if ids[:, i].min() < i)
    table = dict(quad.P.table)
    table[tuple(int(x) for x in decode_props(mo2, le2.n, q0))] = (mo2.top,) * le2.n
    P = Tabulated(mo2, le2.n, table, label="P")
    ops = {"P": P, "F": quad.F, "H": quad.H, "G": quad.G}
    [monotone] = [law for law in _THM1_LAWS if law.guard is not None
                  and law.lhs == App("P", PVar("p"))]
    groups = [[(monotone, ops), (_THM6_LEFT, {"A": P}), (_THM6_RIGHT, {"A": P})],
              [(law, ops) for law in _THM1_LAWS]
              + [(law, {"A": op}) for op in ops.values() for law in (_THM6_LEFT, _THM6_RIGHT)]]
    brute = Brute(mo2, le2)
    wants = [[brute.outcome(law, ops, laws.PAIR_BUDGET) for law, ops in cases]
             for cases in groups]
    assert wants[0][0].verdict == FAIL
    assert int(encode_props(mo2, np.array(wants[0][0].witness_env["p"]))) == q0
    scanned = _recorded_rows(monkeypatch)
    assert [check_laws(cases, mo2, le2.n) for cases in groups] == wants
    # P keeps the automorphisms that fix q0, the random H and G none
    assert q0 in scanned[0] and len(scanned[0]) < count
    assert np.array_equal(scanned[1], np.arange(count))
    _identity_only(monkeypatch)
    assert [check_laws(cases, mo2, le2.n) for cases in groups] == wants


# -- robustness ---------------------------------------------------------------

def test_one_element_lattice_matches_row_values(monkeypatch, capsys, tmp_path):
    # every block width fits the table budget on a one-element lattice, so
    # blocks are capped by the point count
    one = tmp_path / "one.lattice"
    one.write_text("lattice one\nelements z\northo z:z\n", encoding="utf-8")
    frame = tmp_path / "le3.frame"
    frame.write_text(FRAME_TEXTS["le3"], encoding="utf-8")
    assert laws.block_width(build_lattice(parse_lattice(one.read_text())), 3) == 3
    commands = [["verify", "--lattice", str(one), "--frame", str(frame), "--suite", "all"],
                ["induce", "--lattice", str(one), "--ops", f"frame:{frame}"]]

    def run():
        outs = []
        for argv in commands:
            outs.append((cli.main(argv), capsys.readouterr().out))
        return outs

    got = run()
    monkeypatch.setattr(laws, "ID_PATH_MAX", 0)
    assert got == run()
    assert "suite thm1: pass" in got[0][1]


def test_partial_tabulated_raises_inside_check_law(cube2):
    rows = [tuple(int(x) for x in r) for r in proposition_block(cube2, 2, 0, 16)]
    # every entry but the last: a scan that stopped at the first failure
    # (id 0 below) would never meet the missing one
    partial = Tabulated(cube2, 2, {q: (3, 3) for q in rows[:-1]}, label="part")
    never = Law("never", "leq", App("A", PVar("q")), ConstProp("bottom"), ("q",))
    with pytest.raises(TabulatedMiss, match=r"\(3, 3\)"):
        check_law(never, cube2, 2, {"A": partial})
    pair = Law("pair", "leq", SAnd(App("A", PVar("p")), PVar("q")), PVar("q"), ("p", "q"))
    with pytest.raises(TabulatedMiss):
        check_law(pair, cube2, 2, {"A": partial})


def test_verify_twice_in_one_process_is_byte_identical(capsys, tmp_path):
    paths = {}
    for name, text in (("oml10", LATTICE_TEXTS["oml10"]), ("o6", LATTICE_TEXTS["o6"]),
                       ("le2", FRAME_TEXTS["le2"])):
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    for lattice in ("oml10", "o6"):
        argv = ["verify", "--lattice", str(paths[lattice]), "--frame", str(paths["le2"]),
                "--suite", "all", "--format", "json-lines"]
        outs = []
        for _ in range(2):
            cli.main(argv)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


def test_no_tables_outlive_the_run():
    lattice = build_lattice(parse_lattice(LATTICE_TEXTS["oml10"]))
    frame = parse_frame(FRAME_TEXTS["le2"])
    reports = run_all(Instance(lattice, frame=frame))
    assert any(r.laws for r in reports)
    ref = weakref.ref(lattice)
    del lattice, reports
    gc.collect()
    assert ref() is None


# -- work shared by the laws of one run ---------------------------------------

def test_run_all_builds_each_operator_map_once(monkeypatch, oml10, le2):
    built = []
    real = tense.rows_id_map

    def counting(lattice, n_points, rows_fn):
        built.append(getattr(rows_fn, "__self__", None))
        return real(lattice, n_points, rows_fn)

    monkeypatch.setattr(tense, "rows_id_map", counting)
    run_all(Instance(oml10, frame=le2))
    for which in "PFHG":
        maps = [op for op in built if isinstance(op, FrameInduced)
                and op.frame is le2 and op.which == which]
        assert len(maps) == 1, which


def test_instance_keeps_one_frame_quadruple(oml10, le2, le3):
    inst = Instance(oml10, frame=le2)
    quad = inst.quadruple()
    assert inst.quadruple() is quad
    assert "ops=" not in inst.descriptor()
    inst.frame = le3
    rebuilt = inst.quadruple()
    assert rebuilt is not quad and rebuilt.P.frame is le3
    assert inst.quadruple() is rebuilt


def test_pair_draw_is_memoized_and_read_only():
    # a pair space (strata of 200 pairs) and a unary one, mo2 x 8 points
    # (strata of one or two propositions)
    for count, arity, cap in ((1000, 2, 5000), (6 ** 8, 1, 10 ** 6)):
        space = count ** arity
        offsets = laws._offsets(space, cap, 3)
        assert laws._offsets(space, cap, 3) is offsets
        assert offsets.dtype == np.uint8
        with pytest.raises(ValueError):
            offsets[0] = 1
        ks = laws._ids_at(space, offsets, 0, cap)
        assert ks.dtype == np.int64
        assert np.array_equal(ks, oracles.stratified_ids(space, cap, 3))
        assert len(np.unique(ks)) == cap
        columns = laws._bound_at(ks, count, arity)
        want = oracles.stratified_pairs(count, cap, 3) if arity == 2 else (ks,)
        for got, reference in zip(columns, want, strict=True):
            assert got.dtype == ID_DTYPE
            assert np.array_equal(got, reference)
        other = laws._ids_at(space, laws._offsets(space, cap, 4), 0, cap)
        assert not np.array_equal(other, ks)


def test_a_run_draws_each_space_once(oml10, le3):
    # at budget 100 on oml10 x le3 every unary (10^3) and pair (10^6) space
    # is sampled: all suites read one unary and one pair draw
    laws._offsets.cache_clear()
    reports = run_all(Instance(oml10, frame=le3, budget=100))
    assert {law.samples for report in reports for law in report.laws
            if law.mode == SAMPLED} == {100, 100 ** 2}
    assert laws._offsets.cache_info().misses == 2


def test_ops_equal_on_id_maps_matches_element_path(monkeypatch, oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    rows = [tuple(int(x) for x in row)
            for row in proposition_block(oml10, le3.n, 0, proposition_count(oml10, le3.n))]
    table_g = Tabulated(oml10, le3.n, {q: quad.G(q) for q in rows}, label="T")
    identity = IdentityElseConstant(oml10, le3.n, frozenset(range(le3.n)), oml10.bottom,
                                    label="Id")
    pairs = [
        (quad.P, FrameInduced(oml10, le3, "P"), True),
        (quad.P, quad.F, False),
        (table_g, quad.G, True),
        (table_g, quad.H, False),
        (IdentityElseConstant(oml10, le3.n, frozenset(range(le3.n)), oml10.top),
         identity, True),
        (IdentityElseConstant(oml10, le3.n, frozenset({0}), oml10.top), identity, False),
        (compose(quad.P, table_g), compose(quad.P, quad.G), True),
        (compose(quad.P, table_g), compose(quad.G, quad.P), False),
    ]
    on_ids = [ops_equal(a, b) for a, b, _ in pairs]
    assert on_ids == [want for _, _, want in pairs]
    # the maps are built now, so the id path applies no operator
    for kind in (FrameInduced, Tabulated, IdentityElseConstant):
        monkeypatch.setattr(kind, "apply_batch", None)
    assert [ops_equal(a, b) for a, b, _ in pairs] == on_ids
    monkeypatch.undo()
    monkeypatch.setattr(tense, "ID_PATH_MAX", 0)
    assert [ops_equal(a, b) for a, b, _ in pairs] == on_ids
    with pytest.raises(BudgetExceeded):
        ops_equal(quad.P, quad.P, budget=proposition_count(oml10, le3.n) - 1)
