"""Extending a time frame with a synthetic past and future copy of itself.

Every point s gains a past copy s1 (related to s) and a future copy s2
(reachable from s); the original relation survives unchanged in the middle.
A proposition q extends to the copies through a chosen operator pair: the
PF variant places P(q) on the past copies and F(q) on the future ones, the
HG variant uses H(q) and G(q). Over the relation induced by the chosen
operators, the extended frame's own P and F (or H and G) restrict back to
the given ones on the original points; check_extension_* verifies exactly
that, proposition by proposition.

Each side is the law Abar|T(q) = A(q) over the original points, where
Abar|T is the extended frame's operator read on the original points after
extending q (RestrictedBar). Both sides are cases of one laws.check_laws
scan, so each reports its own first failure. The id map of Abar|T takes
A(q) and B(q) from the given operators' id maps and applies only the bar
operator, on 3|T| points, to all propositions.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass

import numpy as np

from .errors import NameCollision
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
    ID_DTYPE,
    FrameInduced,
    Prop,
    TenseOperator,
    all_props,
    encode_props,
    resolve_budget,
)
from .tense import proposition_block, sampled_block  # noqa: F401  perfbench/tracing.py hooks them

# extended rows per step of RestrictedBar's id map: 3|T| intp columns each
_BAR_CHUNK = 1 << 16

PAST = "past"
BASE = "base"
FUTURE = "future"


@dataclass(frozen=True, eq=False)
class ExtendedFrame:
    """Base frame plus the three-zone extension; bar points are past+base+future."""

    base: TimeFrame
    bar: TimeFrame
    zones: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.base.n

    def zone(self, bar_index: int) -> str:
        return self.zones[bar_index]

    def base_slice(self) -> slice:
        return slice(self.n, 2 * self.n)

    def restrict_to_base(self, qbar: Prop) -> Prop:
        return tuple(qbar[self.base_slice()])


def extend_frame(frame: TimeFrame) -> ExtendedFrame:
    """Build the extended frame; copy names append 1 and 2 to the point name."""
    n = frame.n
    past = tuple(p + "1" for p in frame.points)
    future = tuple(p + "2" for p in frame.points)
    names = past + frame.points + future
    if len(set(names)) != 3 * n:
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise NameCollision(f"extended point name {name!r} collides")
            seen.add(name)
    pairs = [(s, n + s) for s in range(n)]
    pairs += [(n + s, n + t) for s, t in frame.rel]
    pairs += [(n + s, 2 * n + s) for s in range(n)]
    bar = TimeFrame(frame.name + "-bar", names, pairs)
    zones = (PAST,) * n + (BASE,) * n + (FUTURE,) * n
    return ExtendedFrame(frame, bar, zones)


def extend_prop_PF(lattice: Oml, q: Prop, P: TenseOperator, F: TenseOperator) -> Prop:
    """P(q) on the past copies, q in the middle, F(q) on the future copies."""
    return tuple(P(q)) + tuple(q) + tuple(F(q))


def extend_prop_HG(lattice: Oml, q: Prop, H: TenseOperator, G: TenseOperator) -> Prop:
    """H(q) on the past copies, q in the middle, G(q) on the future copies."""
    return tuple(H(q)) + tuple(q) + tuple(G(q))


@dataclass(frozen=True, eq=False)
class RestrictedBar(TenseOperator):
    """q -> bar(ext(q)) on the base points, where ext(q) = A(q) + q + B(q)
    places A(q) on the past copies and B(q) on the future ones."""

    bar: FrameInduced
    a: TenseOperator
    b: TenseOperator

    @property
    def lattice(self) -> Oml:
        return self.a.lattice

    @property
    def n_points(self) -> int:
        return self.a.n_points

    def extend(self, q: Prop) -> Prop:
        return tuple(self.a(q)) + tuple(q) + tuple(self.b(q))

    def __call__(self, q: Prop) -> Prop:
        return tuple(self.bar(self.extend(q))[self.n_points:2 * self.n_points])

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        qbar = np.concatenate([self.a.apply_batch(batch), batch, self.b.apply_batch(batch)],
                              axis=-1)
        return self.bar.apply_batch(qbar)[:, self.n_points:2 * self.n_points]

    def _build_id_map(self) -> np.ndarray:
        # A(q) and B(q) come off the given operators' id maps; only the bar
        # operator is applied to all propositions, to extended rows built as
        # Fortran-ordered intp, whose transposed columns FrameInduced.apply_batch
        # reads without a copy
        n = self.n_points
        props = all_props(self.lattice, n)
        maps = (self.a.id_map(), self.b.id_map())
        out = np.empty(len(props), dtype=ID_DTYPE)
        for lo in range(0, len(props), _BAR_CHUNK):
            hi = min(lo + _BAR_CHUNK, len(props))
            qbar = np.empty((hi - lo, 3 * n), dtype=np.intp, order="F")
            qbar[:, :n] = props.take(maps[0][lo:hi], axis=0)
            qbar[:, n:2 * n] = props[lo:hi]
            qbar[:, 2 * n:] = props.take(maps[1][lo:hi], axis=0)
            out[lo:hi] = encode_props(self.lattice, self.bar.apply_batch(qbar)[:, n:2 * n])
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
    sides = [(op, RestrictedBar(bar, op_a, op_b)) for op, bar in ((op_a, bar_a), (op_b, bar_b))]
    outcomes = check_laws([(law, {"restricted": restricted, "given": op})
                           for op, restricted in sides],
                          lattice, n_points, budget=budget, seed=seed, jobs=jobs)
    for label, (op, restricted), outcome in zip(labels, sides, outcomes):
        law_id = f"{label}bar-restriction"
        witness = None
        if outcome.verdict == FAIL:
            q, point = outcome.witness_env["q"], outcome.witness_point
            witness = Witness(
                kind="op-mismatch", law=law_id,
                ops=((label + "bar", label + "bar"), (label, label)),
                props=(("q", q), ("qbar", restricted.extend(q))), point=point,
                lhs=int(restricted(q)[point]), rhs=int(op(q)[point]),
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
