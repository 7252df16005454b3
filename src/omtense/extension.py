"""Extending a time frame with a synthetic past and future copy of itself.

Every point s gains a past copy s1 (related to s) and a future copy s2
(reachable from s); the original relation survives unchanged in the middle.
A proposition q extends to the copies through a chosen operator pair: the
PF variant places P(q) on the past copies and F(q) on the future ones, the
HG variant uses H(q) and G(q). Over the relation induced by the chosen
operators, the extended frame's own P and F (or H and G) restrict back to
the given ones on the original points; check_extension_* verifies exactly
that, proposition by proposition.

An exhaustive check of at most ID_PATH_MAX propositions over the original
points reads the given operators' values off their id maps, in the calling
process at any job count; only the bar operators, on 3|T| points, are
applied to rows. A sampled check applies the given operators to its draws,
in the calling process. Past the cap an exhaustive check applies them to
blocks of rows, on worker processes when jobs > 1.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NameCollision
from .frames import TimeFrame, restrict
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
from .induction import InducedRelationReport, induce_R1, induce_R2
from .tense import (
    DEFAULT_CHUNK,
    DEFAULT_SEED,
    ID_PATH_MAX,
    FrameInduced,
    Prop,
    TenseOperator,
    decode_props,
    id_blocks,
    partition_ranges,
    proposition_block,
    proposition_count,
    resolve_budget,
    sampled_block,
)

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


def _ext_chunk(payload):
    """_ext_first_miss inside odometer ids [lo, hi), applying the operators; picklable."""
    lattice, n_points, op_a, op_b, bar_a, bar_b, lo, hi, step = payload

    def blocks():
        for start in range(lo, hi, step):
            block = proposition_block(lattice, n_points, start, min(start + step, hi))
            yield start, block, [op_a.apply_batch(block), op_b.apply_batch(block)]
    return _ext_first_miss(n_points, bar_a, bar_b, blocks())


def _ext_first_miss(n_points, bar_a, bar_b, blocks):
    """First (index, op side, point) where a restricted bar evaluation differs
    from the direct one, block by block, side A before side B within a block;
    -1 index if none. blocks yields (start, q rows, [A(q) rows, B(q) rows])."""
    mid = slice(n_points, 2 * n_points)
    for start, block, (a_vals, b_vals) in blocks:
        qbar = np.concatenate([a_vals, block, b_vals], axis=1)
        for side, (bar_op, want) in enumerate(((bar_a, a_vals), (bar_b, b_vals))):
            same = bar_op.apply_batch(qbar)[:, mid] == want
            rows = same.all(axis=1)
            if not rows.all():
                i = int(np.argmin(rows))
                return (start + i, side, int(np.argmin(same[i])))
    return (-1, 0, 0)


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

    space = proposition_count(lattice, n_points)
    draws = None if space <= budget else sampled_block(lattice, n_points, budget, seed)
    if draws is None and space <= ID_PATH_MAX:
        first = _ext_first_miss(n_points, bar_a, bar_b, id_blocks((op_a, op_b)))
    elif draws is not None:
        blocks = [(0, draws, [op_a.apply_batch(draws), op_b.apply_batch(draws)])]
        first = _ext_first_miss(n_points, bar_a, bar_b, blocks)
    elif jobs <= 1:
        first = _ext_chunk((lattice, n_points, op_a, op_b, bar_a, bar_b,
                            0, space, DEFAULT_CHUNK))
    else:
        payloads = [(lattice, n_points, op_a, op_b, bar_a, bar_b, lo, hi, DEFAULT_CHUNK)
                    for lo, hi in partition_ranges(space, jobs * 4)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_ext_chunk, payloads))
        hits = [r for r in results if r[0] >= 0]
        first = min(hits) if hits else (-1, 0, 0)
    if draws is None:
        mode, samples = EXHAUSTIVE, space
        decode = lambda i: decode_props(lattice, n_points, i)
    else:
        mode, samples = SAMPLED, budget
        decode = lambda i: draws[i]

    for side, label in enumerate(labels):
        law_id = f"{label}bar-restriction"
        if first[0] >= 0 and first[1] == side:
            q = tuple(int(x) for x in decode(first[0]))
            op = (op_a, op_b)[side]
            bar_op = (bar_a, bar_b)[side]
            qbar = tuple(op_a(q)) + tuple(q) + tuple(op_b(q))
            got = bar_op(qbar)[n_points + first[2]]
            want = op(q)[first[2]]
            laws.append(LawResult(
                law_id, FAIL, mode=mode, samples=samples,
                witness=Witness(
                    kind="op-mismatch", law=law_id,
                    ops=((label + "bar", label + "bar"), (label, label)),
                    props=(("q", q), ("qbar", qbar)), point=first[2],
                    lhs=int(got), rhs=int(want),
                    note=f"restricted {label}bar(qbar) differs from {label}(q)")))
        else:
            verdict = PASS if mode == EXHAUSTIVE else ONE_SIDED
            laws.append(LawResult(law_id, verdict, mode=mode, samples=samples))

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
