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

Each side is the law Abar|T(q) = A(q) over the original points, where
Abar|T is the extended frame's operator read on the original points after
extending q (RestrictedBar). Both sides are cases of one laws.check_laws
scan, so each reports its own first failure, with the witness values that
the scan's outcome carries. The id map of Abar|T takes the copies it reads,
A(q) or B(q), from the given operator's id map and applies only the bar
operator, at the |T| base points, to all propositions.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass

import numpy as np

from .frames import TimeFrame, restrict
from .lattice import Oml
from .laws import App, Law, PVar, check_laws
from .report import (
    FAIL,
    PASS,
    LawResult,
    ReplayContext,
    VerifyReport,
    Witness,
    aggregate,
)
from .induction import InducedRelationReport, induce_R1, induce_R2
from .tense import (
    DEFAULT_SEED,
    ID_CHUNK,
    FrameInduced,
    Prop,
    TenseOperator,
    all_props,
    encode_props,
    new_id_map,
    resolve_budget,
)
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


@dataclass(frozen=True, eq=False)
class RestrictedBar(TenseOperator):
    """q -> bar(ext(q)) on the base points, where ext(q) = A(q) + q + B(q)
    places A(q) on the past copies and B(q) on the future ones.

    In batch the bar operator is computed at the base points only, which
    read the base points and one zone of copies: the past copies for P and
    H, the future ones for F and G. So only that zone of ext(q) is filled,
    from A(q) or B(q), and the other operator is not applied.
    """

    bar: FrameInduced
    a: TenseOperator
    b: TenseOperator

    @property
    def lattice(self) -> Oml:
        return self.a.lattice

    @property
    def n_points(self) -> int:
        return self.a.n_points

    def __call__(self, q: Prop) -> Prop:
        return tuple(self.bar(extend_prop(q, self.a, self.b))[self.n_points:2 * self.n_points])

    def _restricted(self, batch: np.ndarray, values) -> np.ndarray:
        """bar(ext(q)) at the base points for each row q of batch, where
        values(op) gives op on the batch. Of ext(q), built Fortran-ordered in
        batch's dtype, only the zones the base points read are filled."""
        n = self.n_points
        reads = {t // n for s in range(n, 2 * n) for t in self.bar.sources(s)}
        qbar = np.zeros((len(batch), 3 * n), dtype=batch.dtype, order="F")
        for zone in sorted(reads):  # 0 past, 1 base, 2 future
            qbar[:, zone * n:(zone + 1) * n] = (
                batch if zone == 1 else values(self.a if zone == 0 else self.b))
        return self.bar.apply_batch(qbar, range(n, 2 * n))

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        return self._restricted(batch, lambda op: op.apply_batch(batch))

    def _build_id_map(self) -> np.ndarray:
        # A(q) or B(q) comes off the given operator's id map; only the bar
        # operator is applied to all propositions, ID_CHUNK at a time
        props = all_props(self.lattice, self.n_points)
        out = new_id_map(len(props))
        for lo in range(0, len(props), ID_CHUNK):
            hi = min(lo + ID_CHUNK, len(props))
            out[lo:hi] = encode_props(self.lattice, self._restricted(
                props[lo:hi], lambda op: props.take(op.id_map()[lo:hi], axis=0)))
        return out


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

    law = Law("restriction", "eq", App("restricted", PVar("q")), App("given", PVar("q")), ("q",))
    outcomes = check_laws([(law, {"restricted": RestrictedBar(bar, op_a, op_b), "given": op})
                           for op, bar in ((op_a, bar_a), (op_b, bar_b))],
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

    verdict = aggregate([law.verdict for law in laws])
    return VerifyReport(
        suite=suite,
        instance=f"lattice={lattice.name} points={len(points)} budget={budget}",
        verdict=verdict, laws=laws, budget=budget, seed=seed,
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
