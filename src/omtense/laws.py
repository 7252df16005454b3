"""Pointwise operator laws as small expression trees, plus the quantifier.

A law states lhs <= rhs (or lhs = rhs) for all propositions bound to its
variables, optionally guarded by a side condition (used for monotonicity,
whose claim only applies to ordered pairs). Expressions evaluate three ways:

  IdAlgebra    proposition ids (odometer indices) through operator id maps
               and block-factored connective tables, for the quantifiers
               whenever |L|^|T| is at most ID_PATH_MAX
  eval_batch   numpy arrays of shape (rows, points), for closed laws and for
               the quantifiers on larger proposition spaces
  eval_trace   one proposition at a time, recording every intermediate value,
               for witness replays

Quantification is exhaustive in odometer order below the budget and falls
back to deterministic seeded sampling above it (one-sided verdict). Pair
laws quantify over the pair-index space p-major, capped by the pair budget
with stratified sampling beyond. Both evaluators report the first failing
index in that order (sampled draws in draw order); the element path splits
into contiguous chunks over worker processes and merges by minimum failing
index, so parallel runs report exactly what a sequential run reports.
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
    """Laws evaluated on proposition ids for one lattice and point count.

    A proposition is its odometer index (tense.encode_props). Operators
    (TenseOperator.id_map) and the complement are length-N id maps. A binary
    connective or the order check splits ids into blocks of a few points,
    gathers each block from a small table and recombines by Horner, so table
    memory does not depend on N. Tables are built on first use and live as
    long as this object, which check_law scopes to one law.
    """

    def __init__(self, lattice: Oml, n_points: int):
        self.lattice = lattice
        self.n_points = n_points
        width = block_width(lattice, n_points)
        self._widths = [width] * (n_points // width)  # most significant block first
        if n_points % width:
            self._widths.append(n_points % width)
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

    def _codes(self, ids) -> list:
        """Block codes of ids, most significant block first."""
        codes = []
        for width in reversed(self._widths[1:]):
            radix = self.lattice.n ** width
            rest = ids // radix
            codes.append(ids - rest * radix)
            ids = rest
        codes.append(ids)
        return codes[::-1]

    def _split(self, name: str, fn, x, y):
        """Per block: (radix, table of fn on that block width, index of the block pair)."""
        for width, a, b in zip(self._widths, self._codes(x), self._codes(y)):
            key = (name, width)
            if key not in self._tables:
                self._tables[key] = block_table(self.lattice, width, fn)
            radix = self.lattice.n ** width
            yield radix, self._tables[key], a * radix + b

    def connective(self, name: str, fn, x, y):
        """fn(lattice, a, b) applied pointwise to the propositions with ids x and y."""
        out = 0
        for radix, table, index in self._split(name, fn, x, y):
            out = out * radix + np.take(table, index)
        return out

    def leq(self, x, y):
        """Whether proposition x is below proposition y at every point."""
        ok = True
        for _, table, index in self._split("leq", _leq_batch, x, y):
            ok = ok & np.take(table, index)
        return ok

    def eval(self, expr: Expr, env: dict, ops: dict[str, TenseOperator]):
        match expr:
            case PVar(name):
                return env[name]
            case ConstProp(which):
                return self.constant(which)
            case Neg(arg):
                return np.take(self.complement_map(), self.eval(arg, env, ops))
            case Join(a, b):
                return self.connective("join", _join_batch, self.eval(a, env, ops),
                                       self.eval(b, env, ops))
            case Meet(a, b):
                return self.connective("meet", _meet_batch, self.eval(a, env, ops),
                                       self.eval(b, env, ops))
            case SAnd(a, b):
                return self.connective("sand", sasaki_and_batch, self.eval(a, env, ops),
                                       self.eval(b, env, ops))
            case SImp(a, b):
                return self.connective("simp", sasaki_imp_batch, self.eval(a, env, ops),
                                       self.eval(b, env, ops))
            case App(slot, arg):
                return np.take(ops[slot].id_map(), self.eval(arg, env, ops))
        raise TypeError(f"not an expression: {expr!r}")

    def rows_ok(self, law: Law, env: dict, ops: dict[str, TenseOperator]):
        lhs = self.eval(law.lhs, env, ops)
        rhs = self.eval(law.rhs, env, ops)
        ok = self.leq(lhs, rhs) if law.relation == "leq" else lhs == rhs
        if law.guard is not None:
            ok = ok | ~self.leq(self.eval(law.guard[0], env, ops),
                                self.eval(law.guard[1], env, ops))
        return ok


def _id_scan(core: IdAlgebra, law: Law, ops, batches) -> int:
    """First failing index over (offset, env, shape) batches taken in order, or -1."""
    for offset, env, shape in batches:
        ok = np.broadcast_to(core.rows_ok(law, env, ops), shape).ravel()
        if not ok.all():
            return offset + int(np.argmin(ok))
    return -1


def _exhaustive_batches(names: tuple[str, ...], count: int, step: int):
    """Every binding in order: ids, or id pairs p-major as whole broadcast p rows."""
    if len(names) == 1:
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            yield lo, {names[0]: np.arange(lo, hi, dtype=ID_DTYPE)}, (hi - lo,)
        return
    rows = max(1, step // count)
    right = np.arange(count, dtype=ID_DTYPE)[None, :]
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        left = np.arange(lo, hi, dtype=ID_DTYPE)[:, None]
        yield lo * count, {names[0]: left, names[1]: right}, (hi - lo, count)


def _draw_batches(names: tuple[str, ...], columns: list[np.ndarray], step: int):
    """Sampled ids in draw order."""
    total = len(columns[0])
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        yield lo, {name: col[lo:hi] for name, col in zip(names, columns)}, (hi - lo,)


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


def check_law(law: Law, lattice: Oml, n_points: int, ops: dict[str, TenseOperator], *,
              budget: int | None = None, pair_budget: int = DEFAULT_PAIR_BUDGET,
              seed: int = DEFAULT_SEED, jobs: int = 1,
              chunk: int = DEFAULT_CHUNK) -> LawOutcome:
    """Quantify the law over all (or sampled) propositions.

    Up to ID_PATH_MAX propositions the law is evaluated on ids in-process,
    whatever jobs says. Beyond that the element path runs, split over jobs
    worker processes.
    """
    budget = resolve_budget(budget)
    count = proposition_count(lattice, n_points)
    arity = len(law.vars)

    if arity == 0:
        rows = _rows_ok(law, lattice, {}, ops, (1, n_points))
        if bool(rows.all()):
            return LawOutcome(PASS, EXHAUSTIVE, 1)
        point, _, _ = _failing_point(law, lattice, {}, n_points, ops)
        return LawOutcome(FAIL, EXHAUSTIVE, 1, witness_env={}, witness_point=point)

    if arity == 1:
        space, cap = count, budget
    else:
        space, cap = count * count, min(pair_budget, budget * budget)
    exhaustive = space <= cap

    if count <= ID_PATH_MAX:
        core = IdAlgebra(lattice, n_points)
        step = min(chunk, ID_CHUNK)
        if exhaustive:
            bad = _id_scan(core, law, ops, _exhaustive_batches(law.vars, count, step))
        else:
            if arity == 1:
                columns = [encode_props(lattice, sampled_block(lattice, n_points, cap, seed))
                           .astype(ID_DTYPE)]
            else:
                columns = _pair_draw_ids(count, cap, seed)
            bad = _id_scan(core, law, ops, _draw_batches(law.vars, columns, step))
    elif exhaustive:
        bad = _run_exhaustive(law, lattice, ops, n_points, space, jobs, chunk)
    else:
        bad, columns = _run_sampled(law, lattice, ops, n_points, count, cap, seed)

    mode, checked = (EXHAUSTIVE, space) if exhaustive else (SAMPLED, cap)
    if bad < 0:
        return LawOutcome(PASS if exhaustive else ONE_SIDED, mode, checked)
    if exhaustive:
        picked = divmod(bad, count) if arity == 2 else (bad,)
        rows = [decode_props(lattice, n_points, i) for i in picked]
    elif count <= ID_PATH_MAX:
        rows = [decode_props(lattice, n_points, col[bad]) for col in columns]
    else:
        rows = [col[bad] for col in columns]
    env = {name: tuple(int(x) for x in row) for name, row in zip(law.vars, rows)}
    point, _, _ = _failing_point(law, lattice, env, n_points, ops)
    return LawOutcome(FAIL, mode, checked, witness_env=env, witness_point=point)


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
