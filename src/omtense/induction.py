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

Every quantifier here is a case of laws.check_laws, so it runs on the one
law scanner, its id maps or batch rows, and its forked split scans at
--jobs > 1. Each inequality of a pair (s, t) is a law between two point
projections (laws.At), for example At(q, s) <= At(P(q), t); one scan checks
all 2|T|^2 of them, and a pair's witness is the earlier of its two first
failures, the first inequality on a tie. Two operators are compared by the
law A(q) = B(q), the four of the roundtrip or of classify in one scan.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass, field

from .errors import BudgetExceeded, EmptyRestriction, InvalidSpec, UnknownTimePoint
from .frames import TimeFrame
from .lattice import Oml
from .laws import App, At, Law, PVar, check_laws
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
)
from .tense import DEFAULT_SEED, OperatorQuadruple, Prop, TenseOperator, ops_equal, resolve_budget
from .tense import proposition_block, sampled_block  # noqa: F401  perfbench/tracing.py hooks them

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


def _induce(which: str, lattice: Oml, points, a_op: TenseOperator, b_op: TenseOperator, *,
            budget: int | None = None, seed: int = DEFAULT_SEED,
            jobs: int = 1) -> InducedRelationReport:
    """R1 of a_op = P and b_op = F, or R2 of a_op = H and b_op = G."""
    points = tuple(points)
    n_points = len(points)
    if a_op.lattice is not b_op.lattice or a_op.n_points != b_op.n_points:
        raise InvalidSpec("induced operators must share the lattice and the point set")
    if a_op.n_points != n_points:
        raise UnknownTimePoint(
            f"operators are bound to {a_op.n_points} points, got {n_points}")
    ineq_names = _R1_INEQS if which == "R1" else _R2_INEQS
    ops = {"A": a_op, "B": b_op}
    q, a, b = PVar("q"), App("A", PVar("q")), App("B", PVar("q"))
    pairs = [(s, t) for s in range(n_points) for t in range(n_points)]
    cases = []
    for s, t in pairs:
        if which == "R1":  # q(s) <= A(q)(t) and q(t) <= B(q)(s)
            sides = ((At(q, s), At(a, t)), (At(q, t), At(b, s)))
        else:  # A(q)(t) <= q(s) and B(q)(s) <= q(t)
            sides = ((At(a, t), At(q, s)), (At(b, s), At(q, t)))
        cases += [(Law(f"{which} ({s}, {t}) {name}", "leq", lhs, rhs, ("q",)), ops)
                  for name, (lhs, rhs) in zip(ineq_names, sides)]
    outcomes = check_laws(cases, lattice, n_points, budget=budget, seed=seed, jobs=jobs)

    witnesses = {}
    for k, pair in enumerate(pairs):
        failed = [(outcome.index, side, outcome)
                  for side, outcome in enumerate(outcomes[2 * k:2 * k + 2])
                  if outcome.verdict == FAIL]
        if failed:  # the earlier first failure, side 0 on a tie
            index, side, outcome = min(failed, key=lambda hit: hit[:2])
            witnesses[pair] = PairWitness(outcome.witness_env["q"], ineq_names[side],
                                          outcome.witness_lhs, outcome.witness_rhs, index)
    kept = frozenset(pair for pair in pairs if pair not in witnesses)
    return InducedRelationReport(which, points, kept, witnesses, outcomes[0].mode,
                                 outcomes[0].checked, lattice)


def induce_R1(lattice: Oml, points, P: TenseOperator, F: TenseOperator, *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> InducedRelationReport:
    """Pairs (s, t) with q(s) <= P(q)(t) and q(t) <= F(q)(s) for all q."""
    return _induce("R1", lattice, points, P, F, budget=budget, seed=seed, jobs=jobs)


def induce_R2(lattice: Oml, points, H: TenseOperator, G: TenseOperator, *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> InducedRelationReport:
    """Pairs (s, t) with H(q)(t) <= q(s) and G(q)(s) <= q(t) for all q."""
    return _induce("R2", lattice, points, H, G, budget=budget, seed=seed, jobs=jobs)


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


def _op_differences(lattice: Oml, n_points: int, given: OperatorQuadruple,
                    other: OperatorQuadruple, budget: int, seed: int, jobs: int):
    """Per operator, in P, F, H, G order, the outcome of the law given(q) =
    other(q), all four checked in one law scan."""
    law = Law("coincides", "eq", App("given", PVar("q")), App("other", PVar("q")), ("q",))
    cases = [(law, {"given": given.as_dict()[w], "other": other.as_dict()[w]}) for w in "PFHG"]
    return check_laws(cases, lattice, n_points, budget=budget, seed=seed, jobs=jobs)


def _op_mismatch(law_id: str, label: str, outcome, note: str) -> Witness:
    """The witness of a failing given(q) = other(q) outcome of _op_differences
    for the operator label, the other one shown starred."""
    return Witness(kind="op-mismatch", law=law_id,
                   ops=((label, label), (label + "*", label + "*")),
                   props=(("q", outcome.witness_env["q"]),), point=outcome.witness_point,
                   lhs=outcome.witness_lhs, rhs=outcome.witness_rhs, note=note)


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
    outcomes = _op_differences(lattice, frame.n, quadruple, reinduced, budget, seed, jobs)
    for label, outcome in zip("PFHG", outcomes):
        witness = None
        if outcome.verdict == FAIL:
            witness = _op_mismatch(f"{label}-coincides", label, outcome,
                                   f"{label}(q) and the reinduced {label}*(q) differ")
        laws.append(LawResult(f"{label}-coincides", outcome.verdict, ops=((label, label),),
                              mode=outcome.mode, samples=outcome.checked, witness=witness))
    replay_ops: dict[str, TenseOperator] = dict(quadruple.as_dict())
    for label, op in reinduced.as_dict().items():
        replay_ops[label + "*"] = op
    return VerifyReport(
        suite="thm4-roundtrip",
        instance=f"lattice={lattice.name} frame={frame.name} budget={budget}",
        laws=laws, budget=budget, seed=seed,
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
    outcomes = _op_differences(lattice, len(report.points), quadruple, candidate,
                               budget, seed, jobs)
    for label, outcome in zip("PFHG", outcomes):
        if outcome.verdict == FAIL:
            witness = _op_mismatch(
                "frame-inducibility", label, outcome,
                f"{label}(q) and {label}*(q) first differ at index {outcome.index}")
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
    # imported at call time, where the benchmark's trace hooks sit
    from .laws import build_witness, check_law

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
                witness = build_witness(law, outcome, names)
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
    return VerifyReport(
        suite="cor1",
        instance=f"lattice={lattice.name} points={len(points)} budget={budget}",
        laws=laws, budget=budget, seed=seed,
        context=ReplayContext(lattice=lattice, points=points, ops=quadruple.as_dict()))
