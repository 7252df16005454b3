"""Verdicts, witnesses and reports shared by every checking module.

Reports are plain data: rendering the same report twice yields byte-identical
text, and to_json() emits a stable key order. The live objects additionally
carry a ReplayContext (lattice, operators) so a failing witness can be
re-evaluated; the context never serializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ONE_SIDED = "one-sided"

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


@dataclass(frozen=True)
class Witness:
    """Minimal failing instance plus enough structure to replay it.

    kind is one of:
      law                pointwise operator law over one or two propositions
      elements           element-level lattice law (pairs or triples)
      op-mismatch        two operators disagree on a proposition
      relation-mismatch  two relations differ by the listed pairs
    """

    kind: str
    law: str
    ops: tuple[tuple[str, str], ...] = ()          # (slot, display name)
    props: tuple[tuple[str, tuple[int, ...]], ...] = ()
    elements: tuple[tuple[str, int], ...] = ()
    point: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    pairs: tuple[tuple[str, str, str], ...] = ()   # (tag, s, t) for relation mismatches
    note: str = ""

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "law": self.law}
        if self.ops:
            out["ops"] = {slot: name for slot, name in self.ops}
        if self.props:
            out["props"] = {name: list(values) for name, values in self.props}
        if self.elements:
            out["elements"] = {name: value for name, value in self.elements}
        if self.point is not None:
            out["point"] = self.point
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.pairs:
            out["pairs"] = [list(p) for p in self.pairs]
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class LawResult:
    """Outcome of one law (or sub-check) inside a suite."""

    law: str
    verdict: str
    ops: tuple[tuple[str, str], ...] = ()
    witness: Witness | None = None
    mode: str = EXHAUSTIVE
    samples: int | None = None
    reason: str = ""
    detail: str = ""

    def render(self) -> str:
        label = self.law
        if self.ops:
            label += " [" + ", ".join(f"{slot}={name}" for slot, name in self.ops) + "]"
        line = f"  {label}: {self.verdict}"
        if self.verdict == SKIPPED and self.reason:
            line += f" ({self.reason})"
        if self.verdict == ONE_SIDED and self.samples is not None:
            line += f" (no counterexample in {self.samples} samples)"
        if self.detail:
            line += f" [{self.detail}]"
        return line

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"law": self.law, "verdict": self.verdict}
        if self.ops:
            out["ops"] = {slot: name for slot, name in self.ops}
        out["mode"] = self.mode
        if self.samples is not None:
            out["samples"] = self.samples
        if self.reason:
            out["reason"] = self.reason
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass
class ReplayContext:
    """Live objects a witness replay needs; never serialized."""

    lattice: Any = None
    points: tuple[str, ...] = ()
    ops: dict[str, Any] = field(default_factory=dict)


def aggregate(verdicts: list[str]) -> str:
    """Suite verdict from law verdicts: fail > one-sided > pass > skipped."""
    if any(v == FAIL for v in verdicts):
        return FAIL
    if any(v == ONE_SIDED for v in verdicts):
        return ONE_SIDED
    if any(v == PASS for v in verdicts):
        return PASS
    return SKIPPED


@dataclass
class VerifyReport:
    suite: str
    instance: str
    laws: list[LawResult] = field(default_factory=list)
    reason: str = ""
    budget: int | None = None
    seed: int | None = None
    context: ReplayContext | None = field(default=None, repr=False, compare=False)

    @property
    def verdict(self) -> str:
        """aggregate of the laws' verdicts; a report without laws is skipped."""
        return aggregate([law.verdict for law in self.laws])

    @property
    def witness(self) -> Witness | None:
        for law in self.laws:
            if law.verdict == FAIL and law.witness is not None:
                return law.witness
        return None

    def first_failure(self) -> LawResult | None:
        for law in self.laws:
            if law.verdict == FAIL:
                return law
        return None

    def render_text(self) -> str:
        head = f"suite {self.suite}: {self.verdict} ({self.instance})"
        if self.verdict == SKIPPED and self.reason:
            head += f" [{self.reason}]"
        lines = [head]
        lines.extend(law.render() for law in self.laws)
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "suite": self.suite,
            "instance": self.instance,
            "verdict": self.verdict,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.budget is not None:
            out["budget"] = self.budget
        if self.seed is not None:
            out["seed"] = self.seed
        out["laws"] = [law.to_json() for law in self.laws]
        return out
