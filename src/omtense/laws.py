"""Pointwise operator laws as small expression trees, plus the quantifier.

A law states lhs <= rhs (or lhs = rhs) for all propositions bound to its
variables, optionally guarded by a side condition (used for monotonicity,
whose claim only applies to ordered pairs). Expressions evaluate three ways:

  IdAlgebra    proposition ids (odometer indices) through operator id maps,
               and their block codes through block-factored connective
               tables, for the quantifiers whenever |L|^|T| is at most
               ID_PATH_MAX
  eval_batch   numpy arrays of shape (rows, points), for closed laws and for
               the quantifiers on larger proposition spaces
  eval_trace   one proposition at a time, recording every intermediate value,
               for witness replays

check_laws quantifies a list of (law, operators) cases. Quantification is
exhaustive in odometer order below the budget and falls back to
deterministic seeded sampling above it (one-sided verdict). Pair laws
quantify over the pair-index space p-major, capped by the pair budget with
stratified sampling beyond. On ids, the cases of one arity share one scan:
the same batches in that order (sampled draws in draw order), each distinct
subterm evaluated once per batch, and each case leaving the scan at its
first failing index. On the element path each case runs alone, split into
contiguous chunks over worker processes and merged by minimum failing
index. Either way every case gets the outcome it would get checked alone,
and parallel runs report exactly what a sequential run reports.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NoOrtho
from .lattice import Oml
from .report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED, Witness
from .sasaki import (
    prop_sasaki_and,
    prop_sasaki_imp,
    sasaki_and_batch,
    sasaki_imp_batch,
)
from .tense import (
    DEFAULT_CHUNK,
    DEFAULT_PAIR_BUDGET,
    DEFAULT_SEED,
    ID_DTYPE,
    ID_PATH_MAX,
    Prop,
    TenseOperator,
    decode_props,
    encode_props,
    partition_ranges,
    proposition_block,
    proposition_count,
    resolve_budget,
    rows_id_map,
    sampled_block,
)


# -- expressions ----------------------------------------------------------

@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class ConstProp:
    which: str  # "bottom" | "top"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Join:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Meet:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class SAnd:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class SImp:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class App:
    slot: str
    arg: "Expr"


Expr = PVar | ConstProp | Neg | Join | Meet | SAnd | SImp | App


def render(expr: Expr, names: dict[str, str] | None = None) -> str:
    """ASCII rendering: v, ^, * (Sasaki and), ->, postfix ' for complement."""
    names = names or {}
    match expr:
        case PVar(name):
            return name
        case ConstProp(which):
            return "0" if which == "bottom" else "1"
        case Neg(arg):
            # binary forms already parenthesize themselves
            return render(arg, names) + "'"
        case Join(a, b):
            return f"({render(a, names)} v {render(b, names)})"
        case Meet(a, b):
            return f"({render(a, names)} ^ {render(b, names)})"
        case SAnd(a, b):
            return f"({render(a, names)} * {render(b, names)})"
        case SImp(a, b):
            return f"({render(a, names)} -> {render(b, names)})"
        case App(slot, arg):
            return f"{names.get(slot, slot)}({render(arg, names)})"
    raise TypeError(f"not an expression: {expr!r}")


def eval_batch(expr: Expr, lattice: Oml, env: dict[str, np.ndarray],
               ops: dict[str, TenseOperator], shape: tuple[int, int]) -> np.ndarray:
    match expr:
        case PVar(name):
            return env[name]
        case ConstProp(which):
            value = lattice.bottom if which == "bottom" else lattice.top
            return np.full(shape, value, dtype=np.int16)
        case Neg(arg):
            return lattice.comp[eval_batch(arg, lattice, env, ops, shape)]
        case Join(a, b):
            return lattice.join_table[eval_batch(a, lattice, env, ops, shape),
                                      eval_batch(b, lattice, env, ops, shape)]
        case Meet(a, b):
            return lattice.meet_table[eval_batch(a, lattice, env, ops, shape),
                                      eval_batch(b, lattice, env, ops, shape)]
        case SAnd(a, b):
            return sasaki_and_batch(lattice, eval_batch(a, lattice, env, ops, shape),
                                    eval_batch(b, lattice, env, ops, shape))
        case SImp(a, b):
            return sasaki_imp_batch(lattice, eval_batch(a, lattice, env, ops, shape),
                                    eval_batch(b, lattice, env, ops, shape))
        case App(slot, arg):
            return ops[slot].apply_batch(eval_batch(arg, lattice, env, ops, shape))
    raise TypeError(f"not an expression: {expr!r}")


def eval_trace(expr: Expr, lattice: Oml, env: dict[str, Prop], n_points: int,
               ops: dict[str, TenseOperator], names: dict[str, str],
               trace: list[tuple[str, Prop]]) -> Prop:
    """Evaluate one proposition, appending (rendered subterm, value) post-order.

    Leaves (variables, constants) stay out of the trace; replays print the
    bound propositions separately.
    """
    match expr:
        case PVar(name):
            return env[name]
        case ConstProp(which):
            value = lattice.bottom if which == "bottom" else lattice.top
            return tuple([value] * n_points)
        case Neg(arg):
            out = tuple(int(lattice.comp[x]) for x in
                        eval_trace(arg, lattice, env, n_points, ops, names, trace))
        case Join(a, b):
            out = tuple(lattice.join(x, y) for x, y in
                        zip(eval_trace(a, lattice, env, n_points, ops, names, trace),
                            eval_trace(b, lattice, env, n_points, ops, names, trace)))
        case Meet(a, b):
            out = tuple(lattice.meet(x, y) for x, y in
                        zip(eval_trace(a, lattice, env, n_points, ops, names, trace),
                            eval_trace(b, lattice, env, n_points, ops, names, trace)))
        case SAnd(a, b):
            out = prop_sasaki_and(lattice,
                                  eval_trace(a, lattice, env, n_points, ops, names, trace),
                                  eval_trace(b, lattice, env, n_points, ops, names, trace))
        case SImp(a, b):
            out = prop_sasaki_imp(lattice,
                                  eval_trace(a, lattice, env, n_points, ops, names, trace),
                                  eval_trace(b, lattice, env, n_points, ops, names, trace))
        case App(slot, arg):
            out = ops[slot](eval_trace(arg, lattice, env, n_points, ops, names, trace))
        case _:
            raise TypeError(f"not an expression: {expr!r}")
    trace.append((render(expr, names), out))
    return out


# -- laws -----------------------------------------------------------------

@dataclass(frozen=True)
class Law:
    """lhs <relation> rhs for all bindings of vars, under an optional guard."""

    id: str
    relation: str  # "leq" | "eq"
    lhs: Expr
    rhs: Expr
    vars: tuple[str, ...]
    guard: tuple[Expr, Expr] | None = None  # guard_lhs <= guard_rhs

    def describe(self, names: dict[str, str] | None = None) -> str:
        symbol = "<=" if self.relation == "leq" else "="
        text = f"{render(self.lhs, names)} {symbol} {render(self.rhs, names)}"
        if self.guard is not None:
            gl, gr = self.guard
            text += f" whenever {render(gl, names)} <= {render(gr, names)}"
        return text


@dataclass(frozen=True)
class LawOutcome:
    verdict: str                   # pass | fail | one-sided
    mode: str                      # exhaustive | sampled
    checked: int
    witness_env: dict[str, Prop] | None = None
    witness_point: int | None = None


def _rows_ok(law: Law, lattice: Oml, env: dict[str, np.ndarray],
             ops: dict[str, TenseOperator], shape: tuple[int, int]) -> np.ndarray:
    lhs = eval_batch(law.lhs, lattice, env, ops, shape)
    rhs = eval_batch(law.rhs, lattice, env, ops, shape)
    if law.relation == "leq":
        ok = lattice.leq[lhs, rhs]
    else:
        ok = lhs == rhs
    rows = ok.all(axis=1)
    if law.guard is not None:
        gl = eval_batch(law.guard[0], lattice, env, ops, shape)
        gr = eval_batch(law.guard[1], lattice, env, ops, shape)
        rows |= ~lattice.leq[gl, gr].all(axis=1)
    return rows


# -- the id core ----------------------------------------------------------

# ids (or id pairs) per evaluation step; keeps every temporary cache-sized
ID_CHUNK = 1 << 14
# entries per block table: (|L|^k)^2 for blocks of k points
BLOCK_TABLE_ENTRIES = 1 << 15


def block_width(lattice: Oml, n_points: int) -> int:
    """Points per block: the most, up to n_points, with (|L|^k)^2 <=
    BLOCK_TABLE_ENTRIES, and at least one."""
    k = 1
    while k < n_points and lattice.n ** (2 * (k + 1)) <= BLOCK_TABLE_ENTRIES:
        k += 1
    return k


def block_table(lattice: Oml, width: int, connective) -> np.ndarray:
    """A pointwise connective(lattice, a, b) lifted to blocks of `width` points.

    Blocks are coded like propositions over `width` points (tense.encode_props).
    Entry a * |L|^width + b of the flat table holds the code of connective(a, b)
    or, when the connective is a relation with a boolean result, whether it
    holds at every point of the block.
    """
    rows = decode_props(lattice, width, np.arange(lattice.n ** width))
    out = connective(lattice, rows[:, None, :], rows[None, :, :])
    if out.dtype == bool:
        return out.all(axis=-1).ravel()
    return encode_props(lattice, out).astype(ID_DTYPE).ravel()


def _join_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.join_table[a, b]


def _meet_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.meet_table[a, b]


def _leq_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.leq[a, b]


class IdAlgebra:
    """Propositions as ids for one lattice and point count.

    A proposition is its odometer index (tense.encode_props). Operators
    (TenseOperator.id_map) and the complement are length-N id maps. Binary
    connectives and the order check work on block codes: an id split into
    blocks of a few points (codes), each block gathered from a small table
    indexed by the pair of block codes. ids() rebuilds ids from block codes
    by Horner, where an id map or an equality needs them. Table memory does
    not depend on N. Tables are built on first use and live as long as this
    object, which check_laws scopes to one call.
    """

    def __init__(self, lattice: Oml, n_points: int):
        self.lattice = lattice
        self.n_points = n_points
        width = block_width(lattice, n_points)
        widths = [width] * (n_points // width)  # most significant block first
        if n_points % width:
            widths.append(n_points % width)
        self._widths = widths
        self._radices = [lattice.n ** w for w in widths]
        self._tables: dict[tuple[str, int], np.ndarray] = {}
        self._comp: np.ndarray | None = None

    def complement_map(self) -> np.ndarray:
        if self._comp is None:
            comp = self.lattice.comp
            if comp is None:
                raise NoOrtho(f"lattice {self.lattice.name!r} has no orthocomplementation")
            self._comp = rows_id_map(self.lattice, self.n_points,
                                     lambda rows: comp[rows]).astype(ID_DTYPE)
        return self._comp

    def constant(self, which: str) -> int:
        value = self.lattice.bottom if which == "bottom" else self.lattice.top
        return int(encode_props(self.lattice, np.full(self.n_points, value, dtype=np.int16)))

    def codes(self, ids) -> list:
        """Block codes of ids, most significant block first."""
        codes = []
        for radix in reversed(self._radices[1:]):
            rest = ids // radix
            codes.append(ids - rest * radix)
            ids = rest
        codes.append(ids)
        return codes[::-1]

    def ids(self, codes):
        """The ids with these block codes."""
        out = 0
        for radix, code in zip(self._radices, codes):
            out = out * radix + code
        return out

    def _blocks(self, name: str, fn, a: list, b: list):
        """Per block: (table of fn on that block width, index of the code pair)."""
        for width, radix, x, y in zip(self._widths, self._radices, a, b):
            key = (name, width)
            if key not in self._tables:
                self._tables[key] = block_table(self.lattice, width, fn)
            yield self._tables[key], x * radix + y

    def connective_codes(self, name: str, fn, a: list, b: list) -> list:
        """Block codes of fn(lattice, x, y) applied pointwise, from those of x and y."""
        return [np.take(table, index) for table, index in self._blocks(name, fn, a, b)]

    def leq_codes(self, a: list, b: list):
        """Whether x is below y at every point, from the block codes of x and y."""
        ok = True
        for table, index in self._blocks("leq", _leq_batch, a, b):
            ok = ok & np.take(table, index)
        return ok

    def connective(self, name: str, fn, x, y):
        """fn(lattice, a, b) applied pointwise to the propositions with ids x and y."""
        return self.ids(self.connective_codes(name, fn, self.codes(x), self.codes(y)))

    def leq(self, x, y):
        """Whether proposition x is below proposition y at every point."""
        return self.leq_codes(self.codes(x), self.codes(y))


class _Subterms:
    """The distinct subterms of a list of cases, scanned together on ids.

    A subterm is keyed by its connective or its operator object and its
    children, with each variable named by its position in law.vars, so a
    subterm that several cases contain is one node. A case's check
    (lhs <= rhs or lhs = rhs) and its guard's order check are nodes too, so
    a guard that several cases share is checked once. Nodes are numbered
    children first. Within a batch each node is evaluated once, kept as ids,
    block codes or both (a check as booleans), and dropped after the last
    case that reads it.
    """

    def __init__(self, core: IdAlgebra, cases):
        self.core = core
        self.nodes: list[tuple] = []  # (kind, operand, children)
        self._number: dict[tuple, int] = {}
        self.checks = []              # per case: (check node, guard check node or None)
        self.reads = []               # per case: every node its check reads
        for law, ops in cases:
            sides = (self._add(side, law.vars, ops) for side in (law.lhs, law.rhs))
            check = self._node((law.relation, None, tuple(sides)))
            guard = None
            if law.guard is not None:
                sides = (self._add(side, law.vars, ops) for side in law.guard)
                guard = self._node(("leq", None, tuple(sides)))
            self.checks.append((check, guard))
            self.reads.append(self._closure((check,) if guard is None else (check, guard)))
        self._ids: dict[int, object] = {}
        self._codes: dict[int, list] = {}
        self._holds: dict[int, object] = {}
        self._columns: tuple = ()

    def _add(self, expr: Expr, names: tuple[str, ...], ops: dict[str, TenseOperator]) -> int:
        match expr:
            case PVar(name):
                key = ("var", names.index(name), ())
            case ConstProp(which):
                key = ("const", which, ())
            case Neg(arg):
                key = ("neg", None, (self._add(arg, names, ops),))
            case App(slot, arg):
                key = ("app", ops[slot], (self._add(arg, names, ops),))
            case Join(a, b):
                key = ("join", _join_batch, (self._add(a, names, ops), self._add(b, names, ops)))
            case Meet(a, b):
                key = ("meet", _meet_batch, (self._add(a, names, ops), self._add(b, names, ops)))
            case SAnd(a, b):
                key = ("sand", sasaki_and_batch,
                       (self._add(a, names, ops), self._add(b, names, ops)))
            case SImp(a, b):
                key = ("simp", sasaki_imp_batch,
                       (self._add(a, names, ops), self._add(b, names, ops)))
            case _:
                raise TypeError(f"not an expression: {expr!r}")
        return self._node(key)

    def _node(self, key: tuple) -> int:
        if key not in self._number:
            self._number[key] = len(self.nodes)
            self.nodes.append(key)
        return self._number[key]

    def _closure(self, roots) -> list[int]:
        seen, stack = set(), list(roots)
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self.nodes[node][2])
        return sorted(seen)

    def _ids_of(self, node: int):
        if node not in self._ids:
            kind, operand, children = self.nodes[node]
            if kind == "var":
                out = self._columns[operand]
            elif kind == "const":
                out = self.core.constant(operand)
            elif kind == "neg":
                out = np.take(self.core.complement_map(), self._ids_of(children[0]))
            elif kind == "app":
                out = np.take(operand.id_map(), self._ids_of(children[0]))
            else:
                out = self.core.ids(self._codes_of(node))
            self._ids[node] = out
        return self._ids[node]

    def _codes_of(self, node: int) -> list:
        if node not in self._codes:
            kind, operand, children = self.nodes[node]
            if len(children) == 2:
                out = self.core.connective_codes(kind, operand, *map(self._codes_of, children))
            else:
                out = self.core.codes(self._ids_of(node))
            self._codes[node] = out
        return self._codes[node]

    def _holds_at(self, node: int):
        """Whether a check node (leq or eq of its two children) holds, per binding."""
        if node not in self._holds:
            relation, _, (lhs, rhs) = self.nodes[node]
            if relation == "leq":
                out = self.core.leq_codes(self._codes_of(lhs), self._codes_of(rhs))
            else:
                out = self._ids_of(lhs) == self._ids_of(rhs)
            self._holds[node] = out
        return self._holds[node]

    def _rows_ok(self, check: int, guard: int | None):
        ok = self._holds_at(check)
        if guard is not None:
            ok = ok | ~self._holds_at(guard)
        return ok

    def scan(self, batches) -> list[int]:
        """Per case, the first failing index over (offset, columns, shape)
        batches taken in order, or -1. A case leaves the scan when it fails."""
        bad = [-1] * len(self.checks)
        active = list(range(len(self.checks)))
        for offset, columns, shape in batches:
            last = {}
            for case in active:
                for node in self.reads[case]:
                    last[node] = case
            self._columns = columns
            for case in active:
                ok = np.broadcast_to(self._rows_ok(*self.checks[case]), shape).ravel()
                if not ok.all():
                    bad[case] = offset + int(np.argmin(ok))
                for node in self.reads[case]:
                    if last[node] == case:
                        self._ids.pop(node, None)
                        self._codes.pop(node, None)
                        self._holds.pop(node, None)
            self._columns = ()
            active = [case for case in active if bad[case] < 0]
            if not active:
                break
        return bad


def _exhaustive_batches(arity: int, count: int, step: int):
    """Every binding in order: ids, or id pairs p-major as whole broadcast p rows."""
    if arity == 1:
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            yield lo, (np.arange(lo, hi, dtype=ID_DTYPE),), (hi - lo,)
        return
    rows = max(1, step // count)
    right = np.arange(count, dtype=ID_DTYPE)[None, :]
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        left = np.arange(lo, hi, dtype=ID_DTYPE)[:, None]
        yield lo * count, (left, right), (hi - lo, count)


def _draw_batches(columns, step: int):
    """Sampled ids in draw order."""
    total = len(columns[0])
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        yield lo, tuple(col[lo:hi] for col in columns), (hi - lo,)


def _stratified_pairs(count: int, cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One uniform draw from each of cap near-equal strata of the p-major pair space."""
    total = count * count
    q, r = divmod(total, cap)
    i = np.arange(cap, dtype=np.int64)
    starts = i * q + np.minimum(i, r)
    widths = q + (i < r)
    rng = np.random.default_rng(seed)
    ks = starts + rng.integers(0, widths)
    return ks // count, ks % count


@functools.lru_cache(maxsize=1)
def _pair_draw_ids(count: int, cap: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """_stratified_pairs as read-only ID_DTYPE columns, drawn once for all the
    pair laws of a run (the draw depends on nothing else). count must be at
    most 2^31 so that ids fit ID_DTYPE."""
    columns = tuple(side.astype(ID_DTYPE) for side in _stratified_pairs(count, cap, seed))
    for col in columns:
        col.flags.writeable = False
    return columns


def _env_for_range(law: Law, lattice: Oml, n_points: int,
                   lo: int, hi: int) -> dict[str, np.ndarray]:
    if len(law.vars) == 1:
        return {law.vars[0]: proposition_block(lattice, n_points, lo, hi)}
    count = proposition_count(lattice, n_points)
    idx = np.arange(lo, hi, dtype=np.int64)
    return {law.vars[0]: decode_props(lattice, n_points, idx // count),
            law.vars[1]: decode_props(lattice, n_points, idx % count)}


def _law_chunk(payload) -> int:
    """First failing global index in [lo, hi), or -1. Top level for pickling."""
    law, lattice, ops, n_points, lo, hi, step = payload
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        env = _env_for_range(law, lattice, n_points, start, stop)
        shape = (stop - start, n_points)
        rows = _rows_ok(law, lattice, env, ops, shape)
        if not rows.all():
            return start + int(np.argmin(rows))
    return -1


def _failing_point(law: Law, lattice: Oml, env: dict[str, Prop], n_points: int,
                   ops: dict[str, TenseOperator]) -> tuple[int, int, int]:
    """(point, lhs value, rhs value) at the first point where the law breaks."""
    trace: list[tuple[str, Prop]] = []
    lhs = eval_trace(law.lhs, lattice, env, n_points, ops, {}, trace)
    rhs = eval_trace(law.rhs, lattice, env, n_points, ops, {}, trace)
    for s, (x, y) in enumerate(zip(lhs, rhs)):
        bad = (not lattice.le(x, y)) if law.relation == "leq" else (x != y)
        if bad:
            return s, x, y
    raise AssertionError("witness does not fail the law")  # engine bug if reached


def _outcome(law: Law, lattice: Oml, n_points: int, ops: dict[str, TenseOperator],
             exhaustive: bool, checked: int, rows) -> LawOutcome:
    """The outcome of a scan; rows holds the failing binding, one proposition
    per variable, or is None when nothing failed."""
    mode = EXHAUSTIVE if exhaustive else SAMPLED
    if rows is None:
        return LawOutcome(PASS if exhaustive else ONE_SIDED, mode, checked)
    env = {name: tuple(int(x) for x in row) for name, row in zip(law.vars, rows)}
    point, _, _ = _failing_point(law, lattice, env, n_points, ops)
    return LawOutcome(FAIL, mode, checked, witness_env=env, witness_point=point)


def check_laws(cases, lattice: Oml, n_points: int, *, budget: int | None = None,
               pair_budget: int = DEFAULT_PAIR_BUDGET, seed: int = DEFAULT_SEED,
               jobs: int = 1, chunk: int = DEFAULT_CHUNK) -> list[LawOutcome]:
    """Quantify each (law, ops) case over all (or sampled) propositions.

    Each outcome is what the case gets when checked alone. Up to ID_PATH_MAX
    propositions the cases of one arity are checked on ids in-process,
    whatever jobs says, in one scan: one IdAlgebra, one stream of batches
    and each distinct subterm evaluated once per batch. Beyond that each case
    runs on the element path, split over jobs worker processes.
    """
    budget = resolve_budget(budget)
    count = proposition_count(lattice, n_points)
    outcomes: list[LawOutcome | None] = [None] * len(cases)
    by_arity: dict[int, list[int]] = {}
    for i, (law, ops) in enumerate(cases):
        arity = len(law.vars)
        if arity == 0:
            ok = bool(_rows_ok(law, lattice, {}, ops, (1, n_points)).all())
            outcomes[i] = _outcome(law, lattice, n_points, ops, True, 1, None if ok else [])
        elif count <= ID_PATH_MAX:
            by_arity.setdefault(arity, []).append(i)
        else:
            outcomes[i] = _check_elements(law, lattice, n_points, ops, count, budget,
                                          pair_budget, seed, jobs, chunk)

    core = IdAlgebra(lattice, n_points)
    step = min(chunk, ID_CHUNK)
    for arity, members in by_arity.items():
        space, cap = _space(arity, count, budget, pair_budget)
        exhaustive = space <= cap
        if exhaustive:
            columns = None
            batches = _exhaustive_batches(arity, count, step)
        else:
            if arity == 1:
                columns = (encode_props(lattice, sampled_block(lattice, n_points, cap, seed))
                           .astype(ID_DTYPE),)
            else:
                columns = _pair_draw_ids(count, cap, seed)
            batches = _draw_batches(columns, step)
        bads = _Subterms(core, [cases[i] for i in members]).scan(batches)
        for i, bad in zip(members, bads):
            law, ops = cases[i]
            rows = None
            if bad >= 0:
                ids = _bound_ids(bad, count, arity) if exhaustive else [c[bad] for c in columns]
                rows = [decode_props(lattice, n_points, x) for x in ids]
            outcomes[i] = _outcome(law, lattice, n_points, ops, exhaustive,
                                   space if exhaustive else cap, rows)
    return outcomes


def check_law(law: Law, lattice: Oml, n_points: int, ops: dict[str, TenseOperator], *,
              budget: int | None = None, pair_budget: int = DEFAULT_PAIR_BUDGET,
              seed: int = DEFAULT_SEED, jobs: int = 1,
              chunk: int = DEFAULT_CHUNK) -> LawOutcome:
    """check_laws on the one case (law, ops)."""
    return check_laws([(law, ops)], lattice, n_points, budget=budget, pair_budget=pair_budget,
                      seed=seed, jobs=jobs, chunk=chunk)[0]


def _space(arity: int, count: int, budget: int, pair_budget: int) -> tuple[int, int]:
    """(bindings in the space, most bindings checked) for laws of this arity."""
    if arity == 1:
        return count, budget
    return count * count, min(pair_budget, budget * budget)


def _bound_ids(index: int, count: int, arity: int) -> tuple[int, ...]:
    """The ids bound by an index into the exhaustive space, p-major."""
    return divmod(index, count) if arity == 2 else (index,)


def _check_elements(law: Law, lattice: Oml, n_points: int, ops, count: int, budget: int,
                    pair_budget: int, seed: int, jobs: int, chunk: int) -> LawOutcome:
    """One case on (rows, |T|) element arrays, for proposition spaces past ID_PATH_MAX."""
    arity = len(law.vars)
    space, cap = _space(arity, count, budget, pair_budget)
    if space <= cap:
        bad = _run_exhaustive(law, lattice, ops, n_points, space, jobs, chunk)
        rows = None if bad < 0 else [decode_props(lattice, n_points, x)
                                     for x in _bound_ids(bad, count, arity)]
        return _outcome(law, lattice, n_points, ops, True, space, rows)
    bad, columns = _run_sampled(law, lattice, ops, n_points, count, cap, seed)
    rows = None if bad < 0 else [col[bad] for col in columns]
    return _outcome(law, lattice, n_points, ops, False, cap, rows)


def _run_exhaustive(law: Law, lattice: Oml, ops, n_points: int, space: int,
                    jobs: int, chunk: int) -> int:
    if jobs <= 1:
        return _law_chunk((law, lattice, ops, n_points, 0, space, chunk))
    ranges = partition_ranges(space, jobs * 4)
    payloads = [(law, lattice, ops, n_points, lo, hi, chunk) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_law_chunk, payloads))
    bad = [r for r in results if r >= 0]
    return min(bad) if bad else -1


def _run_sampled(law: Law, lattice: Oml, ops, n_points: int, count: int,
                 cap: int, seed: int) -> tuple[int, list[np.ndarray]]:
    """Element-path draws: (first failing draw or -1, the drawn rows per variable)."""
    if len(law.vars) == 1:
        columns = [sampled_block(lattice, n_points, cap, seed)]
    elif count <= 2 ** 31:
        # stratified over the pair-index space when it is addressable, else
        # independent uniform draws per side
        columns = [decode_props(lattice, n_points, side)
                   for side in _pair_draw_ids(count, cap, seed)]
    else:
        columns = [sampled_block(lattice, n_points, cap, seed),
                   sampled_block(lattice, n_points, cap, seed + 1)]
    ok = _rows_ok(law, lattice, dict(zip(law.vars, columns)), ops, columns[0].shape)
    return (-1 if bool(ok.all()) else int(np.argmin(ok))), columns


def build_witness(law: Law, lattice: Oml, env: dict[str, Prop], n_points: int,
                  ops: dict[str, TenseOperator], op_names: dict[str, str]) -> Witness:
    point, lhs, rhs = _failing_point(law, lattice, env, n_points, ops)
    return Witness(
        kind="law",
        law=law.id,
        ops=tuple(sorted(op_names.items())),
        props=tuple((name, env[name]) for name in law.vars),
        point=point,
        lhs=lhs,
        rhs=rhs,
        note=law.describe(op_names),
    )
