"""The id core of check_laws against a brute force built from tests/oracles.py.

The reference enumerates propositions as tuples in odometer order, applies
the literal tense and Sasaki definitions from oracles.py point by point and
reports the first failing binding, so every LawOutcome field (verdict, mode,
checked, witness_env, witness_point) can be compared exactly.
"""

import gc
import itertools
import pickle
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omtense import cli, laws, tense
from omtense.errors import BudgetExceeded, TabulatedMiss
from omtense.fixtures import FRAME_TEXTS, LATTICE_TEXTS, builtin_frame, builtin_lattice
from omtense.frames import parse_frame
from omtense.lattice import build_lattice, parse_lattice
from omtense.laws import (
    App,
    ConstProp,
    IdAlgebra,
    Join,
    Law,
    LawOutcome,
    Meet,
    Neg,
    PVar,
    SAnd,
    SImp,
    check_law,
    check_laws,
    render,
)
from omtense.report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED
from omtense.tense import (
    DEFAULT_SEED,
    ID_DTYPE,
    FrameInduced,
    IdentityElseConstant,
    OperatorQuadruple,
    Tabulated,
    compose,
    decode_props,
    encode_props,
    identity_operator,
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
                q = self.eval(a, env, ops)
                seen = self._applied[ops[slot]]
                if q not in seen:
                    seen[q] = self._defs[ops[slot]](q)
                return seen[q]
        raise TypeError(expr)

    def outcome(self, law, ops, pair_budget):
        count = len(self.props)
        arity = len(law.vars)
        if arity == 0:
            envs, mode, checked = [{}], EXHAUSTIVE, 1
        elif arity == 1:
            envs = [{law.vars[0]: q} for q in self.props]
            mode, checked = EXHAUSTIVE, count
        elif count * count <= pair_budget:
            envs = ({law.vars[0]: a, law.vars[1]: b} for a in self.props for b in self.props)
            mode, checked = EXHAUSTIVE, count * count
        else:
            envs = ({law.vars[0]: self.props[i], law.vars[1]: self.props[j]}
                    for i, j in stratified_draws(count, pair_budget, DEFAULT_SEED))
            mode, checked = SAMPLED, pair_budget
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
                                  index=index)
        return LawOutcome(PASS if mode == EXHAUSTIVE else ONE_SIDED, mode, checked)


def stratified_draws(count, cap, seed):
    """One uniform pair index from each of cap near-equal strata, p-major."""
    total = count * count
    q, r = divmod(total, cap)
    rng = np.random.default_rng(seed)
    widths = np.array([q + (i < r) for i in range(cap)], dtype=np.int64)
    offsets = rng.integers(0, widths)
    out, start = [], 0
    for i in range(cap):
        k = start + int(offsets[i])
        out.append(divmod(k, count))
        start += int(widths[i])
    return out


@pytest.mark.parametrize("lattice_name", LATTICES)
@pytest.mark.parametrize("frame_name", FRAMES)
def test_id_core_matches_brute_force(lattice_name, frame_name):
    # whole suites in one check_laws call, and each case alone
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    brute = Brute(lattice, frame)
    for suite, bindings in _suites().items():
        cases = [(law, {slot: quad[w] for slot, w in names.items()}) for law, names in bindings]
        for pair_budget in (REFERENCE_PAIR_BUDGET, SMALL_PAIR_BUDGET):
            want = [brute.outcome(law, names, pair_budget) for law, names in bindings]
            got = check_laws(cases, lattice, frame.n, pair_budget=pair_budget)
            assert got == want, (suite, pair_budget)
            alone = [check_law(law, lattice, frame.n, ops, pair_budget=pair_budget)
                     for law, ops in cases]
            assert alone == want, (suite, pair_budget)
        # a budget below the proposition count samples single-variable laws too
        got = check_laws(cases, lattice, frame.n, budget=7)
        assert got == [check_law(law, lattice, frame.n, ops, budget=7) for law, ops in cases]


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


def test_block_split_covers_wide_frames(chain2, cube2):
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
    for lattice in (chain2, cube2):
        count = proposition_count(lattice, 9)
        got = check_laws([(law, {}) for law in cases], lattice, 9, pair_budget=cap)
        a, b = (decode_props(lattice, 9, side)
                for side in laws._pair_draw_ids(count, cap, DEFAULT_SEED))
        meet, join = lattice.meet_table[a, b], lattice.join_table[a, b]
        holds = [lattice.leq[meet, a], lattice.leq[a, meet], meet == lattice.meet_table[b, a],
                 join == lattice.meet_table[b, a], lattice.leq[b, lattice.join_table[meet, b]]]
        for law, outcome, ok in zip(cases, got, holds):
            fails = np.flatnonzero(~ok.all(axis=1))
            if not fails.size:
                assert outcome == LawOutcome(ONE_SIDED, SAMPLED, cap), law.id
                continue
            k = fails[0]
            env = {"p": tuple(int(x) for x in a[k]), "q": tuple(int(x) for x in b[k])}
            point = int(np.argmin(ok[k]))
            assert outcome == LawOutcome(FAIL, SAMPLED, cap, env, point, int(k)), law.id
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
        return [check_law(law, oml10, le2.n, ops, pair_budget=pair_budget, jobs=jobs)
                for law, ops, pair_budget, jobs in cases]

    want = run()
    monkeypatch.setattr(laws, "ID_PATH_MAX", 10)
    assert run() == want


# -- random laws ---------------------------------------------------------------

SLOTS = ("A", "B")
# pair spaces above this many pairs are compared on sampled draws
RANDOM_PAIR_BUDGET = 300


def _expressions(names, depth):
    """Expressions over the variables names, at most depth connectives or
    operators deep."""
    leaf = st.builds(ConstProp, st.sampled_from(["bottom", "top"]))
    if names:
        leaf = st.one_of(st.sampled_from([PVar(name) for name in names]), leaf)
    if depth == 0:
        return leaf
    sub = _expressions(names, depth - 1)
    return st.one_of(leaf, st.builds(Neg, sub), st.builds(App, st.sampled_from(SLOTS), sub),
                     *(st.builds(kind, sub, sub) for kind in (Join, Meet, SAnd, SImp)))


@st.composite
def _random_laws(draw):
    """A law of arity 0-2, its sides at most three deep, leq or eq, about 30%
    guarded; a third of them built to hold, so they scan to the end."""
    names = ("p", "q")[2 - draw(st.integers(0, 2)):]
    lhs = draw(_expressions(names, 3))
    relation = draw(st.sampled_from(["leq", "eq"]))
    if draw(st.integers(0, 2)) == 0:
        rhs = lhs if relation == "eq" else Join(lhs, draw(_expressions(names, 2)))
    else:
        rhs = draw(_expressions(names, 3))
    guard = None
    if draw(st.integers(0, 9)) < 3:
        guard = (draw(_expressions(names, 2)), draw(_expressions(names, 2)))
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


@settings(max_examples=30, deadline=None)
@given(instance=st.sampled_from([(lattice, frame) for lattice in ("chain2", "mo2", "oml10")
                                 for frame in ("le2", "le3", "nonserial2")] + [("mo90", "one")]),
       bound=st.lists(st.tuples(_random_laws(), st.sampled_from("PFHG"),
                                st.sampled_from("PFHG")), min_size=1, max_size=3))
def test_random_laws_match_the_oracles_at_every_setting(instance, bound):
    # one reference per case from the oracles, checked against eval_trace on
    # the failing binding; check_laws must report it at the default and a
    # one-binding ID_CHUNK, on ids and on rows, at jobs 1 and 2
    lattice_name, frame_name = instance
    if lattice_name == "mo90":
        lattice, frame = MO90, POINT
        assert IdAlgebra(lattice, 1).code_dtype == IdAlgebra(lattice, 1).index_dtype == ID_DTYPE
    else:
        lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    quad = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    brute = Brute(lattice, frame)
    cases = [(law, {"A": quad[a], "B": quad[b]}) for law, a, b in bound]
    want = [brute.outcome(law, {"A": a, "B": b}, RANDOM_PAIR_BUDGET) for law, a, b in bound]
    for (law, ops), outcome in zip(cases, want):
        if outcome.verdict == FAIL:
            env, point = outcome.witness_env, outcome.witness_point
            lhs, rhs = (laws.eval_trace(side, lattice, env, frame.n, ops, {}, [])
                        for side in (law.lhs, law.rhs))
            if law.relation == "leq":
                assert not lattice.leq[lhs[point], rhs[point]]
            else:
                assert lhs[point] != rhs[point]
    for chunk, row_core, jobs in itertools.product((laws.ID_CHUNK, 1), (False, True), (1, 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laws, "ID_CHUNK", chunk)
            if row_core:
                patch.setattr(laws, "ID_PATH_MAX", 0)
            patch.setattr(laws, "_split_cost", 0.0)
            got = check_laws(cases, lattice, frame.n, pair_budget=RANDOM_PAIR_BUDGET, jobs=jobs)
        assert got == want, (chunk, row_core, jobs)


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

    def marked(*args):
        for batch in real(*args):
            on_batch()
            log.append(("batch", None))
            yield batch

    monkeypatch.setattr(laws, "_exhaustive_batches", marked)


def _per_batch(log):
    batches = []
    for label, out in log:
        if label == "batch":
            batches.append([])
        else:
            batches[-1].append((label, out))
    return batches


def _batch_rows(count):
    """p rows per exhaustive pair batch, and the number of batches, for count
    propositions."""
    rows = laws.ID_CHUNK // count
    return rows, -(-count // rows)


def test_failing_cases_leave_the_scan(monkeypatch, oml10, le3):
    # oml10 x le3 is scanned exhaustively in batches of ID_CHUNK // 1000 p
    # rows of 1000 q
    log = []
    quad = _logged_quadruple(oml10, le3, log)
    _marked_batches(monkeypatch, log)
    p, q = PVar("p"), PVar("q")
    early = Law("early", "leq", App("A", q), p, ("p", "q"))
    later = Law("later", "eq", App("A", SAnd(p, q)), SAnd(App("A", p), q), ("p", "q"))
    holds = Law("holds", "leq", Meet(p, q), SAnd(p, q), ("p", "q"))
    thm7 = [(law, {slot: quad[w] for slot, w in names.items()})
            for law, names in _thm7_bindings()[:4]]
    cases = [(early, {"A": quad["G"]}), (later, {"A": quad["H"]}), (holds, {})] + thm7
    got = check_laws(cases, oml10, le3.n)
    batches = _per_batch(log)
    assert got == [check_law(law, oml10, le3.n, ops) for law, ops in cases]
    count = proposition_count(oml10, le3.n)
    rows, n_batches = _batch_rows(count)
    assert [o.verdict for o in got] == [FAIL, FAIL] + [PASS] * 5
    first = [[int(encode_props(oml10, np.array(o.witness_env[v]))) for v in "pq"]
             for o in got[:2]]
    assert first[0] == [0, 1]      # the first pair of the first batch
    assert first[1][0] >= rows     # a p row of a later batch
    assert len(batches) == n_batches
    # G serves only the early law and H only the later one (these thm7 laws
    # use P and F): each is gathered until its law fails, then never again
    for label, last in (("G", 0), ("H", first[1][0] // rows)):
        gathers = [sum(name == label for name, _ in b) for b in batches]
        assert all(gathers[: last + 1]) and not any(gathers[last + 1:]), label


def test_each_subterm_is_gathered_once_per_batch(monkeypatch, oml10, le3):
    log = []
    quad = _logged_quadruple(oml10, le3, log)
    _marked_batches(monkeypatch, log)
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
    assert len(batches) == _batch_rows(proposition_count(oml10, le3.n))[1]
    for batch in batches:
        assert Counter(label for label, _ in batch) == want


def test_shared_guard_is_checked_once_per_batch(monkeypatch, oml10, le3):
    # the four thm1 monotonicity laws share the guard p <= q: per batch that is
    # one order check of the guard on every binding, then one for each law's
    # sides on just the bindings where the guard holds
    log = []
    _marked_batches(monkeypatch, log)
    real = laws._below

    def logged(*args):
        out = real(*args)
        log.append(("leq", out))
        return out

    monkeypatch.setattr(laws, "_below", logged)
    quad = OperatorQuadruple.from_frame(oml10, le3).as_dict()
    cases = [(law, quad) for law in _THM1_LAWS if law.guard is not None]
    assert len(cases) == 4
    got = check_laws(cases, oml10, le3.n)
    batches = _per_batch(log)
    monkeypatch.undo()
    count = proposition_count(oml10, le3.n)
    rows, n_batches = _batch_rows(count)
    props = decode_props(oml10, le3.n, np.arange(count))
    below = oml10.leq[props[:, None, :], props[None, :, :]].all(axis=-1)
    assert len(batches) == n_batches
    for b, batch in enumerate(batches):
        guard, *sides = [out for _, out in batch]
        region = below[b * rows:(b + 1) * rows]
        assert np.array_equal(guard, region)
        assert [side.shape for side in sides] == [(np.count_nonzero(region),)] * 4
    assert got == [check_law(law, oml10, le3.n, ops) for law, ops in cases]
    assert [o.verdict for o in got] == [PASS] * 4


def test_no_memo_entry_outlives_its_batch(monkeypatch, oml10, le3):
    # every gathered id array and every array of block codes, connective
    # values or indices made in a batch must be freed before the next batch
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

    def logged(real):
        def making(*args):
            out = real(*args)
            for x in (out if isinstance(out, list) else [out]):
                made.append(("made", x))
            return out
        return making

    def logged_tables(self, *args):
        tables = real_tables(self, *args)
        logged = []
        for table in tables if isinstance(tables, tuple) else [tables]:
            table = table.view(GatherLog)
            table.log, table.label = made, "codes"
            logged.append(table)
        return tuple(logged) if isinstance(tables, tuple) else logged[0]

    real_tables = IdAlgebra.tables
    monkeypatch.setattr(IdAlgebra, "tables", logged_tables)
    monkeypatch.setattr(IdAlgebra, "codes", logged(IdAlgebra.codes))
    monkeypatch.setattr(IdAlgebra, "scale", logged(IdAlgebra.scale))
    monkeypatch.setattr(IdAlgebra, "from_blocks", staticmethod(logged(IdAlgebra.from_blocks)))
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
    assert len(per_batch) == _batch_rows(proposition_count(oml10, le3.n))[1]
    assert min(per_batch) > 200 and max(live) <= min(per_batch) // 8


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
    count, cap = 1000, 5000
    columns = laws._pair_draw_ids(count, cap, 3)
    assert laws._pair_draw_ids(count, cap, 3) is columns
    for got, want in zip(columns, laws._stratified_pairs(count, cap, 3)):
        assert got.dtype == ID_DTYPE
        assert np.array_equal(got, want.astype(ID_DTYPE))
        with pytest.raises(ValueError):
            got[0] = 1
    other = laws._pair_draw_ids(count, cap, 4)
    assert not np.array_equal(other[0] * count + other[1], columns[0] * count + columns[1])


def test_ops_equal_on_id_maps_matches_element_path(monkeypatch, oml10, le3):
    quad = OperatorQuadruple.from_frame(oml10, le3)
    rows = [tuple(int(x) for x in row)
            for row in proposition_block(oml10, le3.n, 0, proposition_count(oml10, le3.n))]
    table_g = Tabulated(oml10, le3.n, {q: quad.G(q) for q in rows}, label="T")
    pairs = [
        (quad.P, FrameInduced(oml10, le3, "P"), True),
        (quad.P, quad.F, False),
        (table_g, quad.G, True),
        (table_g, quad.H, False),
        (IdentityElseConstant(oml10, le3.n, frozenset(range(le3.n)), oml10.top),
         identity_operator(oml10, le3.n), True),
        (IdentityElseConstant(oml10, le3.n, frozenset({0}), oml10.top),
         identity_operator(oml10, le3.n), False),
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
