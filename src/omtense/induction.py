"""Time-preference relations induced by a quadruple of tense operators.

Given operators P, F, H, G on propositions over points T, three candidate
relations arise by asking which pairs (s, t) respect the operators for every
proposition q:

    R1: q(s) <= P(q)(t)  and  q(t) <= F(q)(s)
    R2: H(q)(t) <= q(s)  and  G(q)(s) <= q(t)
    R3: both, i.e. R1 intersected with R2

The quantifier over q runs exhaustively in odometer order below the budget
(then every excluded pair carries its first violating proposition), and
one-sidedly over a seeded sample above it (the reported relation is then a
superset of the true one). No axioms are assumed of the operators; arbitrary
quadruples are accepted and simply reported on.

An exhaustive scan of at most ID_PATH_MAX propositions runs in the calling
process, at any job count, on the operators' id maps: the values of an
operator are tense.all_props(...)[op.id_map()], and two operators differ
where their id maps do. A sampled scan applies the operators to its draws
only, in the calling process, since building a map costs a pass over all
propositions. Past the cap an exhaustive scan applies the operators to
blocks of rows, on worker processes when jobs > 1; pooled results merge by
least index. Every scan finds the first violation of all pairs (s, t) with
the same s at once, and every path reports the same relations and
witnesses.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, EmptyRestriction, UnknownTimePoint
from .frames import TimeFrame
from .lattice import Oml
from .report import (
    EXHAUSTIVE,
    FAIL,
    ONE_SIDED,
    PASS,
    SAMPLED,
    LawResult,
    ReplayContext,
    VerifyReport,
    Witness,
    aggregate,
)
from .tense import (
    DEFAULT_CHUNK,
    DEFAULT_SEED,
    ID_PATH_MAX,
    OperatorQuadruple,
    Prop,
    TenseOperator,
    all_props,
    decode_props,
    id_blocks,
    ops_equal,
    partition_ranges,
    proposition_block,
    proposition_count,
    resolve_budget,
    sampled_block,
)

_R1_INEQS = ("q(s) <= P(q)(t)", "q(t) <= F(q)(s)")
_R2_INEQS = ("H(q)(t) <= q(s)", "G(q)(s) <= q(t)")


@dataclass(frozen=True)
class PairWitness:
    """First proposition violating one of the pair's two inequalities."""

    q: Prop
    inequality: str
    lhs: int
    rhs: int
    index: int  # position in the enumeration (or sample draw) order


@dataclass
class InducedRelationReport:
    which: str                      # "R1" | "R2" | "R3"
    points: tuple[str, ...]
    pairs: frozenset[tuple[int, int]]
    witnesses: dict[tuple[int, int], PairWitness]
    mode: str                       # exhaustive | sampled
    samples: int
    lattice: Oml = field(repr=False)

    def frame(self, name: str | None = None) -> TimeFrame:
        """The induced relation as a time frame; empty relations do not form one."""
        if not self.pairs:
            raise EmptyRestriction(
                f"induced relation {self.which} over {self.points} is empty")
        return TimeFrame(name or f"{self.which.lower()}-induced", self.points, self.pairs)

    def pair_names(self) -> list[tuple[str, str]]:
        return [(self.points[s], self.points[t]) for s, t in sorted(self.pairs)]


def _ineq_values(which: str, lattice: Oml, quadruple: OperatorQuadruple,
                 q: Prop, s: int, t: int, side: int) -> tuple[int, int]:
    if which == "R1":
        if side == 0:
            return q[s], quadruple.P(q)[t]
        return q[t], quadruple.F(q)[s]
    if side == 0:
        return quadruple.H(q)[t], q[s]
    return quadruple.G(q)[s], q[t]


def _row_blocks(lattice: Oml, n_points: int, ops, draws, lo: int, hi: int, step: int):
    """Like tense.id_blocks, but applying the operators: to the sampled draws
    in one block, or else to odometer ids [lo, hi) step rows at a time."""
    if draws is not None:
        yield 0, draws, [op.apply_batch(draws) for op in ops]
        return
    for start in range(lo, hi, step):
        block = proposition_block(lattice, n_points, start, min(start + step, hi))
        yield start, block, [op.apply_batch(block) for op in ops]


def _first_violations(which: str, leq: np.ndarray, n_points: int, blocks):
    """For each pair (s, t), its first violating (index, side) over the blocks.

    blocks yields (start, q rows, [A(q) rows, B(q) rows]) with (A, B) = (P, F)
    for R1 and (H, G) for R2; side 0 is the inequality that reads A.
    """
    found: dict[tuple[int, int], tuple[int, int]] = {}
    columns = np.arange(n_points)
    flat, size = leq.ravel(), leq.shape[0]
    # rows per step, so that the (rows, |T|) index arrays below stay near 1 MB
    step = DEFAULT_CHUNK // max(n_points, 1)
    pieces = ((start + lo, [v[lo:lo + step] for v in (rows, *values)])
              for start, rows, values in blocks for lo in range(0, len(rows), step))
    for start, piece in pieces:
        # leq[x, y] is flat[x * size + y]; int32 index arithmetic is the fast kind.
        # Each side adds the column at s to every column t.
        q, a, b = (v.astype(np.int32) for v in piece)
        if which == "R1":  # q(s) <= A(q)(t) and q(t) <= B(q)(s)
            qs = q * size
            s0, t0, s1, t1 = qs, a, b, qs
        else:  # A(q)(t) <= q(s) and B(q)(s) <= q(t)
            s0, t0, s1, t1 = q, a * size, b * size, q
        for s in range(n_points):
            if all((s, t) in found for t in range(n_points)):
                continue
            ok0 = flat.take(s0[:, s, None] + t0)
            ok1 = flat.take(s1[:, s, None] + t1)
            bad = ~(ok0 & ok1)
            first = bad.argmax(axis=0)
            for t in np.flatnonzero(bad[first, columns]):
                i = first[t]
                found.setdefault((s, int(t)), (start + int(i), 0 if not ok0[i, t] else 1))
        if len(found) == n_points * n_points:
            break
    return found


def _scan_chunk(payload):
    """_first_violations inside odometer ids [lo, hi); picklable."""
    which, lattice, n_points, ops, lo, hi, step = payload
    return _first_violations(which, lattice.leq, n_points,
                             _row_blocks(lattice, n_points, ops, None, lo, hi, step))


def _induce(which: str, lattice: Oml, points, quadruple: OperatorQuadruple, *,
            budget: int | None = None, seed: int = DEFAULT_SEED, jobs: int = 1,
            chunk: int = DEFAULT_CHUNK) -> InducedRelationReport:
    points = tuple(points)
    n_points = len(points)
    if quadruple.n_points != n_points:
        raise UnknownTimePoint(
            f"operators are bound to {quadruple.n_points} points, got {n_points}")
    budget = resolve_budget(budget)
    space = proposition_count(lattice, n_points)
    ineq_names = _R1_INEQS if which == "R1" else _R2_INEQS
    ops = (quadruple.P, quadruple.F) if which == "R1" else (quadruple.H, quadruple.G)
    draws = None if space <= budget else sampled_block(lattice, n_points, budget, seed)

    if draws is None and space <= ID_PATH_MAX:
        found = _first_violations(which, lattice.leq, n_points, id_blocks(ops, chunk))
    elif draws is not None or jobs <= 1:
        found = _first_violations(which, lattice.leq, n_points,
                                  _row_blocks(lattice, n_points, ops, draws, 0, space, chunk))
    else:
        payloads = [(which, lattice, n_points, ops, lo, hi, chunk)
                    for lo, hi in partition_ranges(space, jobs * 4)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_chunk, payloads))
        found = {}
        for part in results:
            for pair, hit in part.items():
                if pair not in found or hit[0] < found[pair][0]:
                    found[pair] = hit
    if draws is None:
        mode, samples = EXHAUSTIVE, space
        decode = lambda i: decode_props(lattice, n_points, i)
    else:
        mode, samples = SAMPLED, budget
        decode = lambda i: draws[i]

    witnesses = {}
    for pair, (index, side) in sorted(found.items()):
        q = tuple(int(x) for x in decode(index))
        lhs, rhs = _ineq_values(which, lattice, quadruple, q, pair[0], pair[1], side)
        witnesses[pair] = PairWitness(q, ineq_names[side], lhs, rhs, index)
    pairs = frozenset((s, t) for s in range(n_points) for t in range(n_points)
                      if (s, t) not in found)
    return InducedRelationReport(which, points, pairs, witnesses, mode, samples, lattice)


def induce_R1(lattice: Oml, points, P: TenseOperator, F: TenseOperator, *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> InducedRelationReport:
    """Pairs (s, t) with q(s) <= P(q)(t) and q(t) <= F(q)(s) for all q."""
    quadruple = OperatorQuadruple(P, F, P, F)  # H, G unused by the R1 scan
    return _induce("R1", lattice, points, quadruple, budget=budget, seed=seed, jobs=jobs)


def induce_R2(lattice: Oml, points, H: TenseOperator, G: TenseOperator, *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> InducedRelationReport:
    """Pairs (s, t) with H(q)(t) <= q(s) and G(q)(s) <= q(t) for all q."""
    quadruple = OperatorQuadruple(H, G, H, G)  # P, F unused by the R2 scan
    return _induce("R2", lattice, points, quadruple, budget=budget, seed=seed, jobs=jobs)


def induce_R3(lattice: Oml, points, quadruple: OperatorQuadruple, *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> InducedRelationReport:
    """Intersection of R1 and R2; witnesses taken from the earlier violation."""
    r1 = induce_R1(lattice, points, quadruple.P, quadruple.F,
                   budget=budget, seed=seed, jobs=jobs)
    r2 = induce_R2(lattice, points, quadruple.H, quadruple.G,
                   budget=budget, seed=seed, jobs=jobs)
    return _intersect(r1, r2)


def _intersect(r1: InducedRelationReport, r2: InducedRelationReport) -> InducedRelationReport:
    """The R3 report of an R1 and an R2 report over the same points."""
    pairs = r1.pairs & r2.pairs
    witnesses: dict[tuple[int, int], PairWitness] = {}
    n_points = len(r1.points)
    for s in range(n_points):
        for t in range(n_points):
            if (s, t) in pairs:
                continue
            w1 = r1.witnesses.get((s, t))
            w2 = r2.witnesses.get((s, t))
            if w1 is not None and w2 is not None:
                witnesses[(s, t)] = w1 if w1.index <= w2.index else w2
            else:
                witnesses[(s, t)] = w1 or w2
    mode = EXHAUSTIVE if r1.mode == r2.mode == EXHAUSTIVE else SAMPLED
    return InducedRelationReport("R3", r1.points, pairs, witnesses, mode,
                                 max(r1.samples, r2.samples), r1.lattice)


def indicator_proposition(lattice: Oml, points, u: str) -> Prop:
    """Top at the named point, bottom everywhere else."""
    points = tuple(points)
    if u not in points:
        raise UnknownTimePoint(f"no point {u!r} among {points}")
    return tuple(lattice.top if p == u else lattice.bottom for p in points)


def _first_op_difference(lattice: Oml, n_points: int, given: TenseOperator,
                         other: TenseOperator, budget: int, seed: int):
    """First (index, q, point, got, want) where the operators differ, plus the
    mode and the number of propositions compared. index is the position in
    odometer order, or in draw order when the space exceeds the budget."""
    space = proposition_count(lattice, n_points)
    draws = None if space <= budget else sampled_block(lattice, n_points, budget, seed)
    mode, samples = (EXHAUSTIVE, space) if draws is None else (SAMPLED, budget)
    if draws is None and space <= ID_PATH_MAX:
        got_ids, want_ids = given.id_map(), other.id_map()
        diff = np.flatnonzero(got_ids != want_ids)
        if not diff.size:
            return None, mode, samples
        index = int(diff[0])
        props = all_props(lattice, n_points)
        q, got, want = props[index], props[got_ids[index]], props[want_ids[index]]
    else:
        blocks = _row_blocks(lattice, n_points, (given, other), draws, 0, space, DEFAULT_CHUNK)
        for start, block, (got, want) in blocks:
            rows = (got == want).all(axis=1)
            if not rows.all():
                i = int(np.argmin(rows))
                index, q, got, want = start + i, block[i], got[i], want[i]
                break
        else:
            return None, mode, samples
    point = int(np.argmax(got != want))
    return ((index, tuple(int(x) for x in q), point, int(got[point]), int(want[point])),
            mode, samples)


def roundtrip_frame(lattice: Oml, frame: TimeFrame, *, budget: int | None = None,
                    seed: int = DEFAULT_SEED, jobs: int = 1,
                    quadruple: OperatorQuadruple | None = None,
                    relations: tuple[InducedRelationReport, InducedRelationReport] | None = None
                    ) -> VerifyReport:
    """Induce operators from the frame, recover the relation, compare both ways.

    The recovered R3 must equal the frame's relation, and the operators
    re-induced from the recovered relation must coincide with the originals.
    A caller that already holds the frame's quadruple, or its R1 and R2
    reports at this budget and seed, passes them to be reused.
    """
    budget = resolve_budget(budget)
    if quadruple is None:
        quadruple = OperatorQuadruple.from_frame(lattice, frame)
    if relations is None:
        report = induce_R3(lattice, frame.points, quadruple,
                           budget=budget, seed=seed, jobs=jobs)
    else:
        report = _intersect(*relations)
    laws: list[LawResult] = []
    mode = report.mode
    if report.pairs == frame.rel:
        laws.append(LawResult("relation-roundtrip", PASS if mode == EXHAUSTIVE else ONE_SIDED,
                              mode=mode, samples=report.samples))
    else:
        extra = sorted(report.pairs - frame.rel)
        missing = sorted(frame.rel - report.pairs)
        pairs = tuple(("extra", frame.points[s], frame.points[t]) for s, t in extra)
        pairs += tuple(("missing", frame.points[s], frame.points[t]) for s, t in missing)
        laws.append(LawResult(
            "relation-roundtrip", FAIL, mode=mode, samples=report.samples,
            witness=Witness(kind="relation-mismatch", law="relation-roundtrip",
                            pairs=pairs, note="induced R3 differs from the frame relation")))

    rel_frame = TimeFrame(frame.name + "|reinduced", frame.points, report.pairs,
                          _allow_empty=True)
    reinduced = OperatorQuadruple.from_frame(lattice, rel_frame)
    for label, given, again in (("P", quadruple.P, reinduced.P),
                                ("F", quadruple.F, reinduced.F),
                                ("H", quadruple.H, reinduced.H),
                                ("G", quadruple.G, reinduced.G)):
        diff, mode, samples = _first_op_difference(lattice, frame.n, given, again,
                                                   budget, seed)
        if diff is None:
            verdict = PASS if mode == EXHAUSTIVE else ONE_SIDED
            laws.append(LawResult(f"{label}-coincides", verdict,
                                  ops=((label, label),), mode=mode, samples=samples))
        else:
            _, q, point, got, want = diff
            laws.append(LawResult(
                f"{label}-coincides", FAIL, ops=((label, label),),
                mode=mode, samples=samples,
                witness=Witness(kind="op-mismatch", law=f"{label}-coincides",
                                ops=((label, label), (label + "*", label + "*")),
                                props=(("q", q),), point=point, lhs=got, rhs=want,
                                note=f"{label}(q) and the reinduced {label}*(q) differ")))
    verdict = aggregate([law.verdict for law in laws])
    replay_ops: dict[str, TenseOperator] = dict(quadruple.as_dict())
    for label, op in reinduced.as_dict().items():
        replay_ops[label + "*"] = op
    return VerifyReport(
        suite="thm4-roundtrip",
        instance=f"lattice={lattice.name} frame={frame.name} budget={budget}",
        verdict=verdict, laws=laws, budget=budget, seed=seed,
        context=ReplayContext(lattice=lattice, points=frame.points, ops=replay_ops))


@dataclass
class Classification:
    verdict: str                            # "frame-induced" | "not-frame-inducible"
    relation: InducedRelationReport
    witness: Witness | None = None

    @property
    def frame_induced(self) -> bool:
        return self.verdict == "frame-induced"


def classify_inducibility(lattice: Oml, points, quadruple: OperatorQuadruple, *,
                          budget: int | None = None, seed: int = DEFAULT_SEED,
                          jobs: int = 1) -> Classification:
    """Recover R3 from the quadruple and test whether it reproduces the operators.

    The witness on the negative verdict is the first differing
    (operator, proposition, point) in P, F, H, G then odometer order.
    """
    budget = resolve_budget(budget)
    report = induce_R3(lattice, points, quadruple, budget=budget, seed=seed, jobs=jobs)
    rel_frame = TimeFrame("candidate", report.points, report.pairs, _allow_empty=True)
    candidate = OperatorQuadruple.from_frame(lattice, rel_frame)
    for label, given, induced in (("P", quadruple.P, candidate.P),
                                  ("F", quadruple.F, candidate.F),
                                  ("H", quadruple.H, candidate.H),
                                  ("G", quadruple.G, candidate.G)):
        diff, _, _ = _first_op_difference(lattice, len(report.points), given, induced,
                                          budget, seed)
        if diff is not None:
            index, q, point, got, want = diff
            witness = Witness(
                kind="op-mismatch", law="frame-inducibility",
                ops=((label, label), (label + "*", label + "*")),
                props=(("q", q),), point=point, lhs=got, rhs=want,
                note=f"{label}(q) and {label}*(q) first differ at index {index}")
            return Classification("not-frame-inducible", report, witness)
    return Classification("frame-induced", report)


def check_star_inequalities(lattice: Oml, points, quadruple: OperatorQuadruple, *,
                            budget: int | None = None, seed: int = DEFAULT_SEED,
                            jobs: int = 1,
                            relations: tuple[InducedRelationReport,
                                             InducedRelationReport] | None = None
                            ) -> VerifyReport:
    """Operators induced from the recovered relations bound the given ones.

    From the R1 relation: P* <= P and F* <= F. From the R2 relation: H <= H*
    and G <= G*. From R3: all four at once. Strictness (whether the starred
    operator actually differs) is reported per law. relations, when given,
    are the quadruple's R1 and R2 reports at this budget and seed.
    """
    from .laws import App, Law, PVar, build_witness, check_law

    budget = resolve_budget(budget)
    points = tuple(points)
    if relations is None:
        relations = (induce_R1(lattice, points, quadruple.P, quadruple.F,
                               budget=budget, seed=seed, jobs=jobs),
                     induce_R2(lattice, points, quadruple.H, quadruple.G,
                               budget=budget, seed=seed, jobs=jobs))
    r1, r2 = relations
    r3pairs = r1.pairs & r2.pairs

    laws: list[LawResult] = []
    for which, pairs in (("R1", r1.pairs), ("R2", r2.pairs), ("R3", r3pairs)):
        star_frame = TimeFrame(f"{which.lower()}-star", points, pairs, _allow_empty=True)
        starred = OperatorQuadruple.from_frame(lattice, star_frame)
        if which == "R1":
            checks = (("P* <= P", starred.P, quadruple.P, "P"),
                      ("F* <= F", starred.F, quadruple.F, "F"))
        elif which == "R2":
            checks = (("H <= H*", quadruple.H, starred.H, "H"),
                      ("G <= G*", quadruple.G, starred.G, "G"))
        else:
            checks = (("P* <= P", starred.P, quadruple.P, "P"),
                      ("F* <= F", starred.F, quadruple.F, "F"),
                      ("H <= H*", quadruple.H, starred.H, "H"),
                      ("G <= G*", quadruple.G, starred.G, "G"))
        for text, lo_op, hi_op, label in checks:
            law = Law(f"{text} [{which}]", "leq", App("lo", PVar("q")),
                      App("hi", PVar("q")), ("q",))
            ops = {"lo": lo_op, "hi": hi_op}
            outcome = check_law(law, lattice, len(points), ops,
                                budget=budget, seed=seed, jobs=jobs)
            names = {"lo": text.split(" <= ")[0], "hi": text.split(" <= ")[1]}
            witness = None
            if outcome.verdict == FAIL:
                witness = build_witness(law, lattice, outcome.witness_env,
                                        len(points), ops, names)
            detail = ""
            if outcome.verdict == PASS:
                try:
                    strict = not ops_equal(lo_op, hi_op, budget=budget)
                    detail = "strict" if strict else "equality"
                except BudgetExceeded:
                    detail = "strictness undetermined"
            laws.append(LawResult(law.id, outcome.verdict, witness=witness,
                                  mode=outcome.mode, samples=outcome.checked,
                                  detail=detail))
    verdict = aggregate([law.verdict for law in laws])
    return VerifyReport(
        suite="cor1",
        instance=f"lattice={lattice.name} points={len(points)} budget={budget}",
        verdict=verdict, laws=laws, budget=budget, seed=seed,
        context=ReplayContext(lattice=lattice, points=points, ops=quadruple.as_dict()))
