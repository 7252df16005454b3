"""Extending a time frame with a synthetic past and future copy of itself.

Every point s gains a past copy s1 (related to s) and a future copy s2
(reachable from s), named s_1 and s_2 where the plain names are taken
(extend_frame); the original relation survives unchanged in the middle.
A proposition q extends to the copies through a chosen operator pair
(extend_prop, the one extender): the PF variant places P(q) on the past
copies and F(q) on the future ones, the HG variant uses H(q) and G(q).
Over the relation induced by the chosen operators, the extended frame's own
P and F (or H and G) restrict back to the given ones on the original
points; check_extension_* verifies exactly that, proposition by
proposition.

A base point s of the extended frame reads exactly two things: its own
past copy and its R-predecessors (for P and H), or its own future copy and
its R-successors (for F and G). The copy holds A(q) or B(q), and the base
points hold q. So, with P*, F*, H*, G* the operators of the base frame
(tense.FrameInduced over the induced relation), the extended operators read
on the base points are

    Pbar|T(q) = P(q) v P*(q)        Hbar|T(q) = H(q) ^ H*(q)
    Fbar|T(q) = F(q) v F*(q)        Gbar|T(q) = G(q) ^ G*(q)

and each side of the check is the law A(q) v A*(q) = A(q) (A(q) ^ A*(q) =
A(q) for H and G), that is P* <= P, F* <= F, H <= H* and G <= G*: the
extension restricts back exactly where Corollary 1's R1 and R2 inequalities
hold. Both sides are cases of one laws.check_laws scan over the given
operators and the base frame's, so each reports its own first failure, with
the witness values that the scan's outcome carries. The replay context holds
the extended frame's own operators, so a replay evaluates the witness on the
actual construction.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass

from .frames import TimeFrame, restrict
from .lattice import Oml
from .laws import App, Join, Law, Meet, PVar, check_laws
from .report import (
    FAIL,
    PASS,
    LawResult,
    ReplayContext,
    VerifyReport,
    Witness,
)
from .induction import InducedRelationReport, induce_R1, induce_R2
from .tense import DEFAULT_SEED, FrameInduced, Prop, TenseOperator, resolve_budget
from .tense import proposition_block, sampled_block  # noqa: F401  perfbench/tracing.py hooks them


@dataclass(frozen=True, eq=False)
class ExtendedFrame:
    """Base frame plus the extension; bar point i is a past copy for i < n,
    a base point for n <= i < 2n and a future copy for 2n <= i."""

    base: TimeFrame
    bar: TimeFrame

    @property
    def n(self) -> int:
        return self.base.n


def extend_frame(frame: TimeFrame) -> ExtendedFrame:
    """Build the extended frame. A point's copies are named by appending 1
    (past) and 2 (future) to its name; where that gives a base point's name,
    a separator of underscores goes before the digit, one longer each time,
    until no copy is named like a base point (two copies never share a name,
    and a separator as long as the longest point name always suffices)."""
    n = frame.n
    sep = ""
    while not set(frame.points).isdisjoint(p + sep + c for p in frame.points for c in "12"):
        sep += "_"
    past = tuple(p + sep + "1" for p in frame.points)
    future = tuple(p + sep + "2" for p in frame.points)
    names = past + frame.points + future
    pairs = [(s, n + s) for s in range(n)]
    pairs += [(n + s, n + t) for s, t in frame.rel]
    pairs += [(n + s, 2 * n + s) for s in range(n)]
    return ExtendedFrame(frame, TimeFrame(frame.name + "-bar", names, pairs))


def extend_prop(q: Prop, a: TenseOperator, b: TenseOperator) -> Prop:
    """a(q) on the past copies, q in the middle, b(q) on the future copies:
    P and F for the PF variant, H and G for the HG one."""
    return tuple(a(q)) + tuple(q) + tuple(b(q))


def _check_extension(lattice: Oml, points, op_a: TenseOperator, op_b: TenseOperator,
                     relation_report, suite: str, labels: tuple[str, str], *,
                     budget: int | None, seed: int, jobs: int) -> VerifyReport:
    budget = resolve_budget(budget)
    points = tuple(points)
    n_points = len(points)
    base = relation_report.frame()  # EmptyRestriction on adversarial operators
    ext = extend_frame(base)
    bar_a = FrameInduced(lattice, ext.bar, labels[0])
    bar_b = FrameInduced(lattice, ext.bar, labels[1])

    laws: list[LawResult] = []
    if restrict(ext.bar, base.points) == base:
        laws.append(LawResult("relation-restriction", PASS))
    else:
        laws.append(LawResult(
            "relation-restriction", FAIL,
            witness=Witness(kind="relation-mismatch", law="relation-restriction",
                            note="restricting the extended relation does not recover the base")))

    # a base point of the bar frame folds its copy's A(q) with the A*(q) of
    # its base neighbours (see the module docstring)
    given = App("given", PVar("q"))
    fold = Join if labels[0] == "P" else Meet
    law = Law("restriction", "eq", fold(given, App("star", PVar("q"))), given, ("q",))
    outcomes = check_laws([(law, {"given": op, "star": FrameInduced(lattice, base, label)})
                           for op, label in zip((op_a, op_b), labels)],
                          lattice, n_points, budget=budget, seed=seed, jobs=jobs)
    for label, outcome in zip(labels, outcomes):
        law_id = f"{label}bar-restriction"
        witness = None
        if outcome.verdict == FAIL:
            q = outcome.witness_env["q"]
            witness = Witness(
                kind="op-mismatch", law=law_id,
                ops=((label + "bar", label + "bar"), (label, label)),
                props=(("q", q), ("qbar", extend_prop(q, op_a, op_b))),
                point=outcome.witness_point, lhs=outcome.witness_lhs, rhs=outcome.witness_rhs,
                note=f"restricted {label}bar(qbar) differs from {label}(q)")
        laws.append(LawResult(law_id, outcome.verdict, mode=outcome.mode,
                              samples=outcome.checked, witness=witness))

    return VerifyReport(
        suite=suite,
        instance=f"lattice={lattice.name} points={len(points)} budget={budget}",
        laws=laws, budget=budget, seed=seed,
        context=ReplayContext(lattice=lattice, points=points,
                              ops={labels[0]: op_a, labels[1]: op_b,
                                   labels[0] + "bar": bar_a, labels[1] + "bar": bar_b}))


def check_extension_PF(lattice: Oml, points, P: TenseOperator, F: TenseOperator, *,
                       budget: int | None = None, seed: int = DEFAULT_SEED, jobs: int = 1,
                       relation: InducedRelationReport | None = None) -> VerifyReport:
    """Extended-frame P and F restrict to the given P and F over the R1 relation.

    relation, when given, is the R1 report of P and F at this budget and seed.
    """
    report = relation if relation is not None else induce_R1(
        lattice, points, P, F, budget=budget, seed=seed, jobs=jobs)
    return _check_extension(lattice, points, P, F, report, "ext-pf", ("P", "F"),
                            budget=budget, seed=seed, jobs=jobs)


def check_extension_HG(lattice: Oml, points, H: TenseOperator, G: TenseOperator, *,
                       budget: int | None = None, seed: int = DEFAULT_SEED, jobs: int = 1,
                       relation: InducedRelationReport | None = None) -> VerifyReport:
    """Extended-frame H and G restrict to the given H and G over the R2 relation.

    relation, when given, is the R2 report of H and G at this budget and seed.
    """
    report = relation if relation is not None else induce_R2(
        lattice, points, H, G, budget=budget, seed=seed, jobs=jobs)
    return _check_extension(lattice, points, H, G, report, "ext-hg", ("H", "G"),
                            budget=budget, seed=seed, jobs=jobs)
