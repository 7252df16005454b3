"""Named verification suites over concrete lattice/frame/operator instances.

Each suite bundles one result as a table of checkable laws. Preconditions
gate execution: _GATES defines each precondition once, _SUITES lists each
suite's in order, and run_suite reports a suite whose instance misses one
as skipped with the first unmet condition as the reason, never as a
spurious pass or fail. Conditions on single laws (thm2's reflexive laws,
thm3's transitive ones) are checked by their suites with reasons from
_GATES, and ext-pf and ext-hg skip on an empty induced relation. The
quantified laws of a suite are checked together by one laws.check_laws
call and inherit its exhaustive-or-sampled budget semantics. Each element
law of prop1, lemma1 and oml-law is defined once, as a lattice.ElementLaw
that its check, witness and replay all evaluate; it always runs on every
tuple at any budget and reports the first failing tuple in element-index
order. A failing law carries a witness, and replay_witness turns that
witness back into a full evaluation trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import induction
from .errors import EmptyRestriction, InvalidSpec, NotAFailure
from .extension import check_extension_HG, check_extension_PF
from .frames import TimeFrame
from .induction import InducedRelationReport, check_star_inequalities, roundtrip_frame
from .lattice import Oml, de_morgan, element_law, orthomodular_join_form, orthomodular_meet_form
from .lattice import (  # noqa: F401  perfbench/tracing.py hooks it
    de_morgan_witness,
    orthomodular_witness,
    orthomodular_witness_dual,
)
from .laws import (
    App,
    ConstProp,
    Law,
    LawOutcome,
    Neg,
    PVar,
    SAnd,
    SImp,
    build_witness,
    check_law,  # noqa: F401  perfbench/tracing.py wraps verify.check_law by this name
    check_laws,
    eval_trace,
    render,
)
from .render import point_text, prop_text
from .report import (
    EXHAUSTIVE,
    FAIL,
    ONE_SIDED,
    PASS,
    SAMPLED,
    SKIPPED,
    LawResult,
    ReplayContext,
    VerifyReport,
)
from .sasaki import connective_tables  # noqa: F401  perfbench/tracing.py hooks it
from .sasaki import sasaki_and_batch, sasaki_imp_batch
from .tense import (
    DEFAULT_SEED,
    OperatorQuadruple,
    Prop,
    TenseOperator,
    resolve_budget,
)

SUITE_IDS = ("thm1", "thm2", "thm3", "prop1", "lemma1", "thm6", "thm7",
             "thm4-roundtrip", "cor1", "ext-pf", "ext-hg", "demorgan", "oml-law")


@dataclass
class Instance:
    """Everything a suite may need; suites take what applies and gate the rest."""

    lattice: Oml
    frame: TimeFrame | None = None
    ops: OperatorQuadruple | None = None
    points: tuple[str, ...] | int | None = None  # names, or just a count
    budget: int | None = None
    seed: int = DEFAULT_SEED
    jobs: int = 1
    # the quadruple built from lattice and frame, kept out of ops so that
    # descriptor() prints the same bytes
    _frame_quad: OperatorQuadruple | None = field(default=None, init=False, repr=False,
                                                  compare=False)
    # "R1"/"R2" -> ((quadruple, budget, seed), report) of the last induction
    _relations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def point_names(self) -> tuple[str, ...]:
        if self.frame is not None:
            return self.frame.points
        if isinstance(self.points, int):
            return tuple(str(i + 1) for i in range(self.points))
        if self.points is not None:
            return tuple(self.points)
        if self.ops is not None:
            return tuple(str(i + 1) for i in range(self.ops.n_points))
        raise InvalidSpec("instance has neither a frame nor an operator quadruple")

    def quadruple(self) -> OperatorQuadruple:
        if self.ops is not None:
            return self.ops
        if self.frame is not None:
            quad = self._frame_quad
            if quad is None or quad.lattice is not self.lattice or quad.P.frame is not self.frame:
                quad = self._frame_quad = OperatorQuadruple.from_frame(self.lattice, self.frame)
            return quad
        raise InvalidSpec("instance has neither a frame nor an operator quadruple")

    def relation(self, which: str) -> InducedRelationReport:
        """R1 or R2 of quadruple(), induced once per quadruple, budget and seed."""
        quad = self.quadruple()
        key = (quad, resolve_budget(self.budget), self.seed)
        hit = self._relations.get(which)
        if hit is None or hit[0] != key:
            # looked up on the module, where the benchmark's trace hooks sit
            induce = induction.induce_R1 if which == "R1" else induction.induce_R2
            a, b = (quad.P, quad.F) if which == "R1" else (quad.H, quad.G)
            hit = self._relations[which] = (key, induce(
                self.lattice, self.point_names(), a, b,
                budget=self.budget, seed=self.seed, jobs=self.jobs))
        return hit[1]

    def descriptor(self) -> str:
        parts = [f"lattice={self.lattice.name}"]
        if self.frame is not None:
            parts.append(f"frame={self.frame.name}")
        if self.ops is not None:
            labels = ",".join(op.label for op in
                              (self.ops.P, self.ops.F, self.ops.H, self.ops.G))
            parts.append(f"ops={labels}")
            if self.frame is None:
                parts.append(f"points={self.ops.n_points}")
        parts.append(f"budget={resolve_budget(self.budget)}")
        return " ".join(parts)


# -- law tables ------------------------------------------------------------

_P, _Q = PVar("p"), PVar("q")
_X, _Y = PVar("x"), PVar("y")
_ZERO, _ONE = ConstProp("bottom"), ConstProp("top")

# law id -> Law, for witness replay; filled by the table builders below
_LAW_REGISTRY: dict[str, Law] = {}


def _law(law_id: str, relation: str, lhs, rhs, varnames: tuple[str, ...],
         guard=None) -> Law:
    law = Law(law_id, relation, lhs, rhs, varnames, guard)
    _LAW_REGISTRY[law_id] = law
    return law


def _thm1_laws() -> list[Law]:
    laws = []
    for a in "PFHG":
        laws.append(_law(f"{a}(0) = 0", "eq", App(a, _ZERO), _ZERO, ()))
        laws.append(_law(f"{a}(1) = 1", "eq", App(a, _ONE), _ONE, ()))
    for a in "PFHG":
        laws.append(_law(f"{a}(p) <= {a}(q) whenever p <= q", "leq",
                         App(a, _P), App(a, _Q), ("p", "q"), guard=(_P, _Q)))
    laws.append(_law("PG(q) <= q", "leq", App("P", App("G", _Q)), _Q, ("q",)))
    laws.append(_law("q <= GP(q)", "leq", _Q, App("G", App("P", _Q)), ("q",)))
    laws.append(_law("FH(q) <= q", "leq", App("F", App("H", _Q)), _Q, ("q",)))
    laws.append(_law("q <= HF(q)", "leq", _Q, App("H", App("F", _Q)), ("q",)))
    return laws


_THM2_SERIAL_LAWS = [
    _law("H(q) <= P(q)", "leq", App("H", _Q), App("P", _Q), ("q",)),
    _law("G(q) <= F(q)", "leq", App("G", _Q), App("F", _Q), ("q",)),
]

_THM2_REFLEXIVE_LAWS = [
    _law("H(q) <= q", "leq", App("H", _Q), _Q, ("q",)),
    _law("q <= P(q)", "leq", _Q, App("P", _Q), ("q",)),
    _law("G(q) <= q", "leq", App("G", _Q), _Q, ("q",)),
    _law("q <= F(q)", "leq", _Q, App("F", _Q), ("q",)),
]


def _thm3_first_laws() -> list[Law]:
    laws = []
    for a in "PFHG":
        for b in "PF":
            laws.append(_law(f"{a}(q) <= {a}{b}(q)", "leq",
                             App(a, _Q), App(a, App(b, _Q)), ("q",)))
        for c in "HG":
            laws.append(_law(f"{a}{c}(q) <= {a}(q)", "leq",
                             App(a, App(c, _Q)), App(a, _Q), ("q",)))
    return laws


def _thm3_idempotent_laws() -> list[Law]:
    return [_law(f"{a}{a}(q) = {a}(q)", "eq", App(a, App(a, _Q)), App(a, _Q), ("q",))
            for a in "PFHG"]


def _demorgan_laws() -> list[Law]:
    return [
        _law("H(q) = P(q')'", "eq", App("H", _Q), Neg(App("P", Neg(_Q))), ("q",)),
        _law("G(q) = F(q')'", "eq", App("G", _Q), Neg(App("F", Neg(_Q))), ("q",)),
    ]


# thm7 schemas: (tag, ((slot, class), (slot, class)), lhs, rhs) where class
# picks the operators a slot ranges over; every combination is instantiated
_THM7_SCHEMAS = (
    ("(i)", (("A1", "PF"), ("A2", "PF")),
     _P, SImp(_Q, App("A1", SAnd(App("A2", _P), _Q)))),
    ("(ii)", (("B", "HG"), ("A", "PF")),
     App("B", SAnd(_P, _Q)), SAnd(App("A", _P), _Q)),
    ("(iii)", (("B", "HG"), ("A", "PF")),
     App("B", _P), SImp(_Q, App("A", SAnd(_P, _Q)))),
    ("(iv)", (("B1", "HG"), ("B2", "HG")),
     App("B1", SAnd(App("B2", _P), _Q)), SAnd(_P, _Q)),
    ("(v)", (("A1", "PF"), ("A2", "PF")),
     SImp(_P, _Q), App("A1", SImp(_P, App("A2", _Q)))),
    ("(vi)", (("B", "HG"), ("A", "PF")),
     SAnd(App("B", SImp(_P, _Q)), _P), App("A", _Q)),
    ("(vii)", (("B", "HG"), ("A", "PF")),
     SImp(_P, App("B", _Q)), App("A", SImp(_P, _Q))),
    ("(viii)", (("B1", "HG"), ("B2", "HG")),
     SAnd(App("B1", SImp(_P, App("B2", _Q))), _P), _Q),
)


def _thm7_laws() -> list[Law]:
    laws = []
    for tag, slots, lhs, rhs in _THM7_SCHEMAS:
        law_id = f"{tag} {render(lhs)} <= {render(rhs)}"
        laws.append(_law(law_id, "leq", lhs, rhs, ("p", "q")))
    return laws


_THM1_LAWS = _thm1_laws()
_THM3_FIRST_LAWS = _thm3_first_laws()
_THM3_IDEMPOTENT_LAWS = _thm3_idempotent_laws()
_DEMORGAN_LAWS = _demorgan_laws()
_THM7_LAWS = _thm7_laws()

_THM6_LEFT = _law("A(x) * A(y) <= A(x * y)", "leq",
                  SAnd(App("A", _X), App("A", _Y)), App("A", SAnd(_X, _Y)),
                  ("x", "y"))
_THM6_RIGHT = _law("A(x -> y) <= A(x) -> A(y)", "leq",
                   App("A", SImp(_X, _Y)), SImp(App("A", _X), App("A", _Y)),
                   ("x", "y"))
_THM6_ID = f"{_THM6_LEFT.id}  iff  {_THM6_RIGHT.id}"


# -- quantified suite runner ------------------------------------------------

def _skip(suite: str, inst: Instance, reason: str) -> VerifyReport:
    return VerifyReport(suite=suite, instance=inst.descriptor(), reason=reason,
                        budget=resolve_budget(inst.budget), seed=inst.seed)


def _entry(law: Law, ops: dict[str, TenseOperator],
           display: tuple[tuple[str, str], ...] = ()):
    return ("law", law, ops, display)


def _gated(inst: Instance, gate: str, laws: list[Law], ops: dict[str, TenseOperator]):
    """Entries for laws that need a precondition beyond their suite's: each
    checked where inst meets the gate, and skipped with its reason otherwise."""
    holds, reason = _GATES[gate]
    if holds(inst):
        return [_entry(law, ops) for law in laws]
    return [("skip", law.id, reason, ()) for law in laws]


def _law_suite(suite: str, inst: Instance, entries) -> VerifyReport:
    lattice = inst.lattice
    points = inst.point_names()
    quad = inst.quadruple()
    checked = [entry for entry in entries if entry[0] == "law"]
    outcomes = iter(check_laws([(law, ops) for _, law, ops, _ in checked], lattice, len(points),
                               budget=inst.budget, seed=inst.seed, jobs=inst.jobs))
    results: list[LawResult] = []
    for entry in entries:
        if entry[0] == "skip":
            _, law_id, reason, display = entry
            results.append(LawResult(law_id, SKIPPED, ops=display, reason=reason))
            continue
        _, law, ops, display = entry
        outcome = next(outcomes)
        witness = None
        if outcome.verdict == FAIL:
            names = {slot: op.label for slot, op in ops.items()}
            witness = build_witness(law, outcome, names)
        results.append(LawResult(law.id, outcome.verdict, ops=display,
                                 witness=witness, mode=outcome.mode,
                                 samples=outcome.checked))
    return VerifyReport(
        suite=suite, instance=inst.descriptor(), laws=results,
        budget=resolve_budget(inst.budget), seed=inst.seed,
        context=ReplayContext(lattice=lattice, points=points, ops=quad.as_dict()))


def _suite_thm1(inst: Instance) -> VerifyReport:
    ops = inst.quadruple().as_dict()
    return _law_suite("thm1", inst, [_entry(law, ops) for law in _THM1_LAWS])


def _suite_thm2(inst: Instance) -> VerifyReport:
    ops = inst.quadruple().as_dict()
    return _law_suite("thm2", inst, [_entry(law, ops) for law in _THM2_SERIAL_LAWS]
                      + _gated(inst, "reflexive", _THM2_REFLEXIVE_LAWS, ops))


def _suite_thm3(inst: Instance) -> VerifyReport:
    ops = inst.quadruple().as_dict()
    return _law_suite("thm3", inst, [_entry(law, ops) for law in _THM3_FIRST_LAWS]
                      + _gated(inst, "transitive", _THM3_IDEMPOTENT_LAWS, ops))


def _suite_demorgan(inst: Instance) -> VerifyReport:
    ops = inst.quadruple().as_dict()
    return _law_suite("demorgan", inst, [_entry(law, ops) for law in _DEMORGAN_LAWS])


def _suite_thm7(inst: Instance) -> VerifyReport:
    quad = inst.quadruple().as_dict()
    entries = []
    for law, (tag, slots, _lhs, _rhs) in zip(_THM7_LAWS, _THM7_SCHEMAS):
        (s1, class1), (s2, class2) = slots
        for w1 in class1:
            for w2 in class2:
                ops = {s1: quad[w1], s2: quad[w2]}
                entries.append(_entry(law, ops, display=((s1, w1), (s2, w2))))
    return _law_suite("thm7", inst, entries)


# -- thm6: equivalence of the two connective laws ---------------------------

def _truth(outcome: LawOutcome) -> str:
    if outcome.verdict == FAIL:
        return "false"
    if outcome.verdict == PASS and outcome.mode == EXHAUSTIVE:
        return "true"
    return "unknown"


def _thm6_cases(op: TenseOperator) -> list:
    return [(_THM6_LEFT, {"A": op}), (_THM6_RIGHT, {"A": op})]


def _thm6_result(label: str, left: LawOutcome, right: LawOutcome) -> LawResult:
    """The thm6 result for the operator shown as label from the outcomes of
    its two connective laws."""
    tl, tr = _truth(left), _truth(right)
    detail = f"(i) {tl}, (ii) {tr}"
    mode = EXHAUSTIVE if left.mode == right.mode == EXHAUSTIVE else SAMPLED
    samples = min(left.checked, right.checked)
    display = (("A", label),)
    if "unknown" in (tl, tr):
        return LawResult(_THM6_ID, ONE_SIDED, ops=display, mode=mode,
                         samples=samples, detail=detail)
    if tl == tr:
        return LawResult(_THM6_ID, PASS, ops=display, mode=mode,
                         samples=samples, detail=detail)
    bad_law, bad = (_THM6_LEFT, left) if tl == "false" else (_THM6_RIGHT, right)
    witness = build_witness(bad_law, bad, {"A": label})
    return LawResult(_THM6_ID, FAIL, ops=display, witness=witness, mode=mode,
                     samples=samples, detail=detail)


def _suite_thm6(inst: Instance) -> VerifyReport:
    points = inst.point_names()
    quad = inst.quadruple()
    # the four operators' eight cases share one scan and one set of block tables
    outcomes = check_laws([case for op in quad.as_dict().values() for case in _thm6_cases(op)],
                          inst.lattice, len(points), budget=inst.budget,
                          seed=inst.seed, jobs=inst.jobs)
    results = [_thm6_result(label, *outcomes[2 * k:2 * k + 2])
               for k, label in enumerate(quad.as_dict())]
    return VerifyReport(
        suite="thm6", instance=inst.descriptor(), laws=results,
        budget=resolve_budget(inst.budget), seed=inst.seed,
        context=ReplayContext(lattice=inst.lattice, points=points,
                              ops=quad.as_dict()))


# -- element-level suites ---------------------------------------------------

@element_law("a * 1 = a", "a")
def _unit_right(lattice: Oml, a):
    got = sasaki_and_batch(lattice, a, lattice.top)
    return (("a * 1", got),), got == a, got, a, "unit fails on the right"


@element_law("1 * a = a", "a")
def _unit_left(lattice: Oml, a):
    got = sasaki_and_batch(lattice, lattice.top, a)
    return (("1 * a", got),), got == a, got, a, "unit fails on the left"


@element_law("a * b <= c iff a <= b -> c", "a", "b", "c")
def _adjunction(lattice: Oml, a, b, c):
    conj, imp = sasaki_and_batch(lattice, a, b), sasaki_imp_batch(lattice, b, c)
    left, right = lattice.leq[conj, c], lattice.leq[a, imp]
    return ((("a * b", conj), ("b -> c", imp)), left == right, left, right,
            "adjunction sides disagree (values are truth values)")


@element_law("a -> 0 = a'", "a")
def _imp_bottom(lattice: Oml, a):
    got, comp = sasaki_imp_batch(lattice, a, lattice.bottom), lattice.ortho[a]
    return ((("a -> 0", got), ("a'", comp)), got == comp, got, comp,
            "implication into bottom is not the orthocomplement")


@element_law("(a -> b) * a = a ^ b", "a", "b")
def _projection(lattice: Oml, a, b):
    imp = sasaki_imp_batch(lattice, a, b)
    got, meet = sasaki_and_batch(lattice, imp, a), lattice.meet_table[a, b]
    return ((("a -> b", imp), ("(a -> b) * a", got), ("a ^ b", meet)), got == meet, got, meet,
            "projection along the implication misses the meet")


@element_law("a <= b -> (a * b)", "a", "b")
def _residuum(lattice: Oml, a, b):
    conj = sasaki_and_batch(lattice, a, b)
    inner = sasaki_imp_batch(lattice, b, conj)
    return ((("a * b", conj), ("b -> (a * b)", inner)), lattice.leq[a, inner], a, inner,
            "element is not below the residuum of its projection")


_PROP1_LAWS = (_unit_right, _unit_left, _adjunction, _imp_bottom)
_LEMMA1_LAWS = (_projection, _residuum)
_OML_LAWS = (orthomodular_join_form, orthomodular_meet_form, de_morgan)
# law id -> element law, for witness replay
_ELEMENT_LAWS = {law.id: law for law in _PROP1_LAWS + _LEMMA1_LAWS + _OML_LAWS}


def _element_suite(suite: str, inst: Instance, laws) -> VerifyReport:
    return VerifyReport(
        suite=suite, instance=inst.descriptor(), laws=[law.check(inst.lattice) for law in laws],
        budget=resolve_budget(inst.budget), seed=inst.seed,
        context=ReplayContext(lattice=inst.lattice))


def _suite_omllaw(inst: Instance) -> VerifyReport:
    report = _element_suite("oml-law", inst, _OML_LAWS)
    join, meet = (law.verdict == PASS for law in report.laws[:2])
    detail = ("both hold" if join and meet else "both fail" if join == meet
              else "join form only" if join else "meet form only")
    report.laws.insert(2, LawResult("orthomodular-forms-agree", PASS if join == meet else FAIL,
                                    detail=detail))
    return report


# -- delegating suites ------------------------------------------------------

def _suite_roundtrip(inst: Instance) -> VerifyReport:
    return roundtrip_frame(inst.lattice, inst.frame, budget=inst.budget,
                           seed=inst.seed, jobs=inst.jobs, quadruple=inst.quadruple(),
                           relations=(inst.relation("R1"), inst.relation("R2")))


def _suite_cor1(inst: Instance) -> VerifyReport:
    return check_star_inequalities(inst.lattice, inst.point_names(),
                                   inst.quadruple(), budget=inst.budget,
                                   seed=inst.seed, jobs=inst.jobs,
                                   relations=(inst.relation("R1"), inst.relation("R2")))


def _suite_ext_pf(inst: Instance) -> VerifyReport:
    quad = inst.quadruple()
    try:
        return check_extension_PF(inst.lattice, inst.point_names(), quad.P, quad.F,
                                  budget=inst.budget, seed=inst.seed, jobs=inst.jobs,
                                  relation=inst.relation("R1"))
    except EmptyRestriction:
        return _skip("ext-pf", inst, "induced relation R1 is empty")


def _suite_ext_hg(inst: Instance) -> VerifyReport:
    quad = inst.quadruple()
    try:
        return check_extension_HG(inst.lattice, inst.point_names(), quad.H, quad.G,
                                  budget=inst.budget, seed=inst.seed, jobs=inst.jobs,
                                  relation=inst.relation("R2"))
    except EmptyRestriction:
        return _skip("ext-hg", inst, "induced relation R2 is empty")


# -- preconditions ----------------------------------------------------------

# precondition -> (whether an instance meets it, the skip reason when it does not)
_GATES = {
    "frame": (lambda inst: inst.frame is not None, "needs a time frame"),
    "frame-or-ops": (lambda inst: inst.frame is not None or inst.ops is not None,
                     "needs a time frame or an operator quadruple"),
    "serial": (lambda inst: inst.frame.is_serial, "requires serial R"),
    "reflexive": (lambda inst: inst.frame.is_reflexive, "requires reflexive R"),
    "transitive": (lambda inst: inst.frame.is_transitive, "requires transitive R"),
    "ortho": (lambda inst: inst.lattice.has_ortho, "requires orthocomplementation"),
    "orthomodular": (lambda inst: inst.lattice.is_orthomodular,
                     "requires an orthomodular lattice"),
}

# suite id -> (its preconditions, checked in this order, and its runner); a
# suite skips on the first precondition its instance does not meet
_SUITES = {
    "thm1": (("frame", "serial"), _suite_thm1),
    "thm2": (("frame", "serial"), _suite_thm2),
    "thm3": (("frame", "reflexive"), _suite_thm3),
    "prop1": (("ortho", "orthomodular"), partial(_element_suite, "prop1", laws=_PROP1_LAWS)),
    "lemma1": (("ortho", "orthomodular"), partial(_element_suite, "lemma1", laws=_LEMMA1_LAWS)),
    "thm6": (("frame-or-ops", "ortho", "orthomodular"), _suite_thm6),
    "thm7": (("frame", "reflexive", "ortho", "orthomodular"), _suite_thm7),
    "thm4-roundtrip": (("frame",), _suite_roundtrip),
    "cor1": (("frame-or-ops",), _suite_cor1),
    "ext-pf": (("frame-or-ops",), _suite_ext_pf),
    "ext-hg": (("frame-or-ops",), _suite_ext_hg),
    "demorgan": (("frame", "ortho"), _suite_demorgan),
    "oml-law": (("ortho",), _suite_omllaw),
}


def run_suite(suite_id: str, inst: Instance) -> VerifyReport:
    try:
        gates, runner = _SUITES[suite_id]
    except KeyError:
        known = ", ".join(SUITE_IDS)
        raise InvalidSpec(f"unknown suite {suite_id!r} (known: {known}, all)") from None
    reason = _unmet(gates, inst)
    return runner(inst) if reason is None else _skip(suite_id, inst, reason)


def _unmet(gates, inst: Instance) -> str | None:
    """The skip reason of the first of these preconditions that inst does
    not meet, or None when it meets them all."""
    return next((reason for holds, reason in map(_GATES.get, gates) if not holds(inst)), None)


def run_all(inst: Instance) -> list[VerifyReport]:
    return [run_suite(suite_id, inst) for suite_id in SUITE_IDS]


# -- witness replay ---------------------------------------------------------

def _fmt_elem(lattice: Oml, value) -> str:
    return lattice.name_of(int(value))


def _resolve_op(context: ReplayContext | None, slot: str, display: str):
    if context is None:
        return None
    return context.ops.get(slot) or context.ops.get(display)


def replay_witness(report: VerifyReport) -> str:
    """Deterministic text trace of the first failing law's witness."""
    if report.verdict != FAIL:
        raise NotAFailure(f"suite {report.suite} verdict is {report.verdict!r}; "
                          "nothing to replay")
    witness = report.witness
    failing = report.first_failure()
    if witness is None:
        raise NotAFailure(f"suite {report.suite} failed on "
                          f"{failing.law if failing else '?'} without a stored witness")
    context = report.context
    lattice = context.lattice if context else None
    points = context.points if context else ()
    lines = [f"witness replay for suite {report.suite}, law {witness.law!r}"]
    if witness.note:
        lines.append(f"  claim: {witness.note}")

    if witness.kind == "elements" and lattice is not None:
        for name, value in witness.elements:
            lines.append(f"  {name} = {_fmt_elem(lattice, value)}")
        law = _ELEMENT_LAWS.get(witness.law)
        terms = law.evaluate(lattice, *(v for _, v in witness.elements))[0] if law else ()
        for text, value in terms:
            lines.append(f"  {text} = {_fmt_elem(lattice, value)}")
        if witness.lhs is not None and witness.rhs is not None:
            lines.append(f"  got {_fmt_elem(lattice, witness.lhs)}, "
                         f"expected {_fmt_elem(lattice, witness.rhs)}")
        return "\n".join(lines)

    if witness.kind == "relation-mismatch":
        for tag, s, t in witness.pairs:
            lines.append(f"  {tag}: ({s}, {t})")
        return "\n".join(lines)

    if witness.kind == "op-mismatch" and lattice is not None:
        for name, values in witness.props:
            lines.append(f"  {name} = {prop_text(lattice, values)}")
        for slot, display in witness.ops:
            op = _resolve_op(context, slot, display)
            if op is None:
                continue
            for name, values in witness.props:
                if len(values) == op.n_points:
                    result = op(tuple(values))
                    lines.append(f"  {display}({name}) = {prop_text(lattice, result)}")
                    break
        if witness.point is not None:
            lines.append(f"  first difference at {point_text(witness.point, points)}: "
                         f"{_fmt_elem(lattice, witness.lhs)} vs "
                         f"{_fmt_elem(lattice, witness.rhs)}")
        return "\n".join(lines)

    if witness.kind == "law" and lattice is not None:
        for name, values in witness.props:
            lines.append(f"  {name} = {prop_text(lattice, values)}")
        law = _LAW_REGISTRY.get(witness.law)
        names = {slot: display for slot, display in witness.ops}
        ops = {}
        resolved = law is not None
        if law is not None:
            for slot, display in witness.ops:
                op = _resolve_op(context, slot, display)
                if op is None:
                    resolved = False
                    break
                ops[slot] = op
        if resolved and law is not None:
            env = {name: tuple(values) for name, values in witness.props}
            n_points = len(next(iter(env.values()))) if env else len(points)
            trace: list[tuple[str, Prop]] = []
            eval_trace(law.lhs, lattice, env, n_points, ops, names, trace)
            eval_trace(law.rhs, lattice, env, n_points, ops, names, trace)
            seen = set()
            lines.append("  trace:")
            for text, values in trace:
                if text in seen:
                    continue
                seen.add(text)
                lines.append(f"    {text} = {prop_text(lattice, values)}")
        if witness.point is not None:
            relation = "=" if law is not None and law.relation == "eq" else "<="
            lines.append(f"  at {point_text(witness.point, points)}: "
                         f"{_fmt_elem(lattice, witness.lhs)} "
                         f"{relation} {_fmt_elem(lattice, witness.rhs)} fails")
        return "\n".join(lines)

    # no live context: render what the witness itself carries
    for name, values in witness.props:
        lines.append(f"  {name} = {tuple(values)}")
    for name, value in witness.elements:
        lines.append(f"  {name} = {value}")
    if witness.point is not None:
        lines.append(f"  at point {witness.point}: {witness.lhs} vs {witness.rhs}")
    return "\n".join(lines)
