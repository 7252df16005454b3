"""Pointwise operator laws as small expression trees, plus the quantifier.

A law states lhs <= rhs (or lhs = rhs) for all propositions bound to its
variables, optionally guarded by a side condition (used for monotonicity,
whose claim only applies to ordered pairs). Expressions evaluate two ways:

  _Program     a batch of bindings at a time, for check_laws: one flat step
               list compiled from the distinct subterms of the cases still in
               a scan (_Subterms), each node producing only the forms its
               readers use (values, plain or scaled block codes). Connectives
               and the order check gather from small block tables at one add
               per index; operators read their id maps whenever |L|^|T| is at
               most ID_PATH_MAX (IdAlgebra), and past it act on the element
               rows of the batch only (RowAlgebra)
  eval_trace   one proposition at a time, recording every intermediate value,
               for witnesses and their replays

A point projection At(expr, s), expr's value at the point s, may only be a
whole side of a leq check whose other side is one too. A scan evaluates it
to a digit (one 1-point block code) and checks the pair with one gather from
the 1-point order table; eval_trace makes it the constant proposition.

check_laws quantifies a list of (law, operators) cases. Quantification is
exhaustive in odometer order below the budget and falls back to
deterministic seeded sampling above it (one-sided verdict). Pair laws
quantify over the pair-index space p-major, capped by the pair budget with
stratified sampling beyond; a closed law is a scan of its one empty binding.
The cases of one arity share one scan: the same batches in that order
(sampled draws in draw order), each distinct subterm evaluated once per
batch, a guarded case checked only on the bindings where its guard holds,
and each case leaving the scan at its first failing index. With
jobs > 1 that scan is split into contiguous ranges of its batches, the
first scanned by the calling process and each other one by a forked child,
and merged per case by the first range that fails. Every case gets the
outcome it would get checked alone, and parallel runs report exactly what a
sequential run reports.
"""

from __future__ import annotations

import functools
import operator
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass

import numpy as np

from .errors import NoOrtho
from .lattice import INDEX_DTYPE, Oml
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
    enumeration_order,
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


@dataclass(frozen=True)
class At:
    """arg's value at one point, as a constant proposition. Only a whole side
    of a leq check whose other side is an At too, a comparison at two points."""

    arg: "Expr"
    point: int


Expr = PVar | ConstProp | Neg | Join | Meet | SAnd | SImp | App | At


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
        case At(arg, point):
            return f"{render(arg, names)}({point})"
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
        case At(arg, point):
            out = (eval_trace(arg, lattice, env, n_points, ops, names, trace)[point],) * n_points
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
    index: int | None = None       # first failing index: an id, pair index or draw position


# -- the id core ----------------------------------------------------------

# ids (or id pairs) per batch; keeps every temporary cache-sized. On oml10
# x le3 and le5, 24576 scans as fast as 2^15 with a lower peak RSS, and 2^14
# and 2^16 scan slower
ID_CHUNK = 24576
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
    """Propositions as ids for one lattice and point count: the values,
    operators and block codes that a _Program computes with.

    A proposition's value is its odometer index (tense.encode_props).
    Operators (TenseOperator.id_map) and the complement are length-N id
    maps. Binary connectives and the order check work on block codes: a
    value split into blocks of a few points, most significant first, each
    block coded like a proposition over its points. On one block, a
    connective or the order check is one gather from a small table at the
    index left * radix + right of its operands' codes (radix = |L|^width).
    A left operand is therefore kept as scaled codes, already multiplied by
    the radix, and a right one as plain codes, so that each index is one add.

    The dtypes follow from the largest radix alone: while radix^2 <= 2^15
    (radix <= 181), codes and code tables are uint8 and scaled codes, scaled
    tables and indices int16; past it all of them are ID_DTYPE. Each table
    comes from one block_table call per connective and block width; its
    plain, scaled and value forms are derived from that result. Table
    memory does not depend on N. Tables are built on first use and live as
    long as this object, which check_laws scopes to one call.
    """

    def __init__(self, lattice: Oml, n_points: int):
        self.lattice = lattice
        self.n_points = n_points
        width = block_width(lattice, n_points)
        widths = [width] * (n_points // width)  # most significant block first
        if n_points % width:
            widths.append(n_points % width)
        self.widths = widths
        self.radices = [lattice.n ** w for w in widths]
        self._places = [lattice.n ** sum(widths[b + 1:]) for b in range(len(widths))]
        narrow = max(self.radices) ** 2 <= 1 << 15
        self.code_dtype = np.uint8 if narrow else ID_DTYPE
        self.index_dtype = np.int16 if narrow else ID_DTYPE
        self._tables: dict[tuple, object] = {}
        self._comp: np.ndarray | None = None

    def column(self, lo: int, hi: int):
        """The values of the propositions with ids lo..hi-1."""
        return np.arange(lo, hi, dtype=ID_DTYPE)

    def from_ids(self, ids):
        """The values of the propositions with these ids."""
        return ids

    def from_rows(self, rows):
        """The values of these propositions, given as element rows."""
        return encode_props(self.lattice, rows).astype(ID_DTYPE)

    def rows(self, values):
        """The element rows of these values."""
        return decode_props(self.lattice, self.n_points, values)

    def constant(self, which: str):
        value = self.lattice.bottom if which == "bottom" else self.lattice.top
        return self.from_rows(np.full(self.n_points, value, dtype=INDEX_DTYPE))

    def complement_map(self) -> np.ndarray:
        if self._comp is None:
            comp = _comp_table(self.lattice)
            self._comp = rows_id_map(self.lattice, self.n_points,
                                     lambda rows: comp[rows]).astype(ID_DTYPE)
        return self._comp

    def complementer(self):
        """values -> the values of their complements."""
        return self.complement_map().take

    def applier(self, op: TenseOperator):
        """values -> the values of op applied to them."""
        return op.id_map().take

    def equal(self, x, y):
        """Whether the propositions x and y are equal."""
        return x == y

    def codes(self, ids) -> list:
        """The plain codes of ids, one array per block."""
        out = []
        for radix in reversed(self.radices[1:]):
            rest = ids // radix
            out.append((ids - rest * radix).astype(self.code_dtype))  # numpy's % is slower
            ids = rest
        out.append(ids.astype(self.code_dtype))
        return out[::-1]

    def scale(self, block: int, codes):
        """Plain codes at this block as scaled codes."""
        return np.multiply(codes, self.radices[block], dtype=self.index_dtype)

    def tables(self, name: str, fn, block: int):
        """block_table of fn at this block's width, built once: per index, for
        the order check whether x <= y at every point of the block, for a
        connective the plain and the scaled codes of fn(x, y)."""
        key = (name, self.widths[block])
        if key not in self._tables:
            table = block_table(self.lattice, self.widths[block], fn)
            if table.dtype != bool:
                table = (table.astype(self.code_dtype),
                         (table * self.radices[block]).astype(self.index_dtype))
            self._tables[key] = table
        return self._tables[key]

    def value_table(self, name: str, fn, block: int) -> np.ndarray:
        """Per index, this block's part of the value of fn(x, y), built once."""
        key = (name, "value", block)
        if key not in self._tables:
            self._tables[key] = self._block_values(block, self.tables(name, fn, block)[0])
        return self._tables[key]

    def _block_values(self, block: int, codes):
        """The part of a value that these plain codes at this block stand for."""
        return codes.astype(ID_DTYPE) * self._places[block]

    @staticmethod
    def from_blocks(tables, *indices):
        """The values of a connective, from its value tables and per-block indices."""
        out = tables[0].take(indices[0])
        for table, index in zip(tables[1:], indices[1:]):
            out += table.take(index)
        return out

    def point_codes(self, point: int):
        """values -> their codes at one point: the point's digit, a plain
        1-point block code."""
        n, dtype = self.lattice.n, self.code_dtype
        place = n ** (self.n_points - 1 - point)

        def digits(ids):
            rest = ids // place if place > 1 else ids
            if point:
                rest = rest - rest // n * n  # numpy's % is slower
            return rest.astype(dtype)
        return digits

    def point_scale(self, codes):
        """Plain 1-point codes as scaled ones, the left operand of point_table."""
        return np.multiply(codes, self.lattice.n, dtype=self.index_dtype)

    def point_table(self) -> np.ndarray:
        """Per index left * |L| + right of two 1-point codes, whether left <= right."""
        key = ("leq", 1)
        if key not in self._tables:
            self._tables[key] = block_table(self.lattice, 1, _leq_batch)
        return self._tables[key]


class RowAlgebra(IdAlgebra):
    """Propositions as element rows (shape (..., n_points)), for spaces past
    ID_PATH_MAX.

    Operators and the complement act on the rows of the current batch only,
    so no length-N map is built, and no full id is formed (past 2^63
    propositions one would not fit int64). Block codes, indices and tables
    are those of IdAlgebra. A block's code is a sum of gathers, one per
    point of the block, from tables of each element's digit times its place
    in the block, built once per core; a connective's rows are its blocks'
    rows, gathered from the decoded code tables.
    """

    def __init__(self, lattice: Oml, n_points: int):
        super().__init__(lattice, n_points)
        digit = np.empty(lattice.n, dtype=np.int64)
        digit[enumeration_order(lattice)] = np.arange(lattice.n)
        self._digit = digit.astype(self.code_dtype)
        self._digits = []  # per block: (column, element -> digit * place) per point
        start = 0
        for width in self.widths:
            self._digits.append([(start + j, (digit * lattice.n ** (width - 1 - j))
                                  .astype(self.code_dtype)) for j in range(width)])
            start += width

    def column(self, lo: int, hi: int):
        return proposition_block(self.lattice, self.n_points, lo, hi)

    def from_ids(self, ids):
        return decode_props(self.lattice, self.n_points, ids)

    def from_rows(self, rows):
        return rows

    def rows(self, values):
        return values

    def complementer(self):
        return _comp_table(self.lattice).take

    def applier(self, op: TenseOperator):
        def apply(rows):
            return op.apply_batch(rows.reshape(-1, self.n_points)).reshape(rows.shape)
        return apply

    def equal(self, x, y):
        return (x == y).all(axis=-1)

    def codes(self, rows) -> list:
        out = []
        for (column, table), *rest in self._digits:
            code = table.take(rows[..., column])
            for column, table in rest:
                code += table.take(rows[..., column])
            out.append(code)
        return out

    def _block_values(self, block: int, codes):
        return decode_props(self.lattice, self.widths[block], codes)

    def point_codes(self, point: int):
        digit = self._digit
        return lambda rows: digit.take(rows[..., point])

    @staticmethod
    def from_blocks(tables, *indices):
        return np.concatenate([table.take(index, axis=0)
                               for table, index in zip(tables, indices)], axis=-1)


def _comp_table(lattice: Oml) -> np.ndarray:
    """The lattice's orthocomplement as an element -> element table."""
    if lattice.comp is None:
        raise NoOrtho(f"lattice {lattice.name!r} has no orthocomplementation")
    return lattice.comp


def _below(tables, *codes):
    """Whether x <= y at every point, from the order tables and, per block,
    the scaled codes of x and the plain codes of y."""
    ok = tables[0].take(codes[0] + codes[1])
    for block in range(1, len(tables)):
        ok &= tables[block].take(codes[2 * block] + codes[2 * block + 1])
    return ok


_CONNECTIVES = ("join", "meet", "sand", "simp")
_VALUE, _LEFT, _RIGHT = "value", "left", "right"


class _Subterms:
    """The distinct subterms of a list of cases, scanned together on the
    values of a core (IdAlgebra or RowAlgebra).

    A subterm is keyed by its connective or its operator object and its
    children, with each variable named by its position in law.vars, so a
    subterm that several cases contain is one node. A case's check
    (lhs <= rhs or lhs = rhs) and its guard's order check are nodes too, so
    a guard that several cases share is checked once. Nodes are numbered
    children first. scan compiles the cases still in it into a _Program and
    recompiles only when a case leaves.
    """

    def __init__(self, core: IdAlgebra, cases):
        self.core = core
        self.nodes: list[tuple] = []  # (kind, operand, children)
        self._number: dict[tuple, int] = {}
        self.checks = []              # per case: (check node, guard check node or None)
        for law, ops in cases:
            sides = (self._side(side, law, ops) for side in (law.lhs, law.rhs))
            check = self._node((law.relation, None, tuple(sides)))
            guard = None
            if law.guard is not None:
                sides = (self._add(side, law.vars, ops) for side in law.guard)
                guard = self._node(("leq", None, tuple(sides)))
            self.checks.append((check, guard))
        self.arity = max((len(law.vars) for law, _ in cases), default=0)

    def _side(self, expr: Expr, law: Law, ops: dict[str, TenseOperator]) -> int:
        """A node for one side of law's check; an At side only in a leq check
        between two At sides."""
        if not isinstance(expr, At):
            return self._add(expr, law.vars, ops)
        if law.relation != "leq" or not isinstance(law.lhs, At) or not isinstance(law.rhs, At):
            raise TypeError(f"At is a side of a leq check between two points only: {law.id}")
        return self._node(("at", expr.point, (self._add(expr.arg, law.vars, ops),)))

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
            case At():
                raise TypeError(f"At is a whole side of a leq check only: {expr!r}")
            case _:
                raise TypeError(f"not an expression: {expr!r}")
        return self._node(key)

    def _node(self, key: tuple) -> int:
        if key not in self._number:
            self._number[key] = len(self.nodes)
            self.nodes.append(key)
        return self._number[key]

    def compile(self, active: list[int], bad: list[int]) -> "_Program":
        """The program that checks the active cases, writing each one's first
        failing index into bad: unguarded checks on the whole batch, and each
        guard's cases on the bindings where that guard holds."""
        verdicts: dict[int, list[int]] = {}
        guarded: dict[int, dict[int, list[int]]] = {}
        for case in active:
            check, guard = self.checks[case]
            if guard is None:
                verdicts.setdefault(check, []).append(case)
            else:
                guarded.setdefault(guard, {}).setdefault(check, []).append(case)
        regions = {guard: _Program(self, checks, {}, bad) for guard, checks in guarded.items()}
        return _Program(self, verdicts, regions, bad)

    def scan(self, batches, bad: list[int] | None = None) -> list[int]:
        """Per case, the first failing index over (offset, columns, shape)
        batches taken in order, or -1. A case leaves the scan when it fails;
        a case that bad already marks failed is not scanned."""
        bad = [-1] * len(self.checks) if bad is None else list(bad)
        active = [case for case, index in enumerate(bad) if index < 0]
        if not active:
            return bad
        program = self.compile(active, bad)
        for offset, columns, shape in batches:
            program.run(columns, shape, functools.partial(operator.add, offset))
            if any(bad[case] >= 0 for case in active):
                active = [case for case in active if bad[case] < 0]
                if not active:
                    break
                program = self.compile(active, bad)
        return bad


class _Program:
    """One flat step list that evaluates a set of checks on a batch.

    A step calls one function on registers and writes one register. The
    registers hold the batch's columns (one per variable), constants, and
    per node only the forms its readers use:
      value   ids (IdAlgebra) or rows (RowAlgebra), read by operators, the
              complement and equality
      plain   block codes, one register per block, read as a right operand
      scaled  block codes times the block's radix, read as a left operand
    A connective adds its operands' codes into one index per block and
    gathers each form it must produce from a table at that index; any other
    node's codes are cut from its value. Nodes are evaluated children first,
    each once per batch, and a register is dropped after its last reader.
    Steps whose inputs are all constants run once, at compile time.

    A check's verdict step finds the failing position (argmin) only in a
    batch where the check fails. A guard's step runs the guard's own program
    on just the bindings where the guard holds, and maps a failing position
    back through them.
    """

    def __init__(self, subterms: _Subterms, verdicts: dict[int, list[int]],
                 regions: dict[int, "_Program"], bad: list[int]):
        core, nodes = subterms.core, subterms.nodes
        self._init: list = [None] * subterms.arity
        self._constant = [False] * subterms.arity
        self._steps: list[tuple] = []
        # (columns, shape, where) of the batch being run, for the verdict and
        # guard steps; they hold this list, not the program, so that no
        # reference cycle keeps a finished program alive
        self._batch: list = []
        roots = sorted(set(verdicts) | set(regions))
        order = _closure(nodes, roots)
        need: dict[int, set[str]] = {node: set() for node in order}
        for node in reversed(order):
            kind, _, children = nodes[node]
            if kind in _CONNECTIVES or kind == "leq":
                need[children[0]].add(_LEFT)
                need[children[1]].add(_RIGHT)
            else:
                for child in children:
                    need[child].add(_VALUE)
        blocks = range(len(core.widths))
        reg: dict[tuple, int] = {}
        for node in order:
            kind, operand, children = nodes[node]
            forms = need[node]
            if kind == "var":
                reg[node, _VALUE] = operand
            elif kind == "const":
                reg[node, _VALUE] = self._register(core.constant(operand), True)
            elif kind == "neg":
                reg[node, _VALUE] = self._step(core.complementer(), reg[children[0], _VALUE])
            elif kind == "app":
                reg[node, _VALUE] = self._step(core.applier(operand), reg[children[0], _VALUE])
            elif kind == "at":
                plain = self._step(core.point_codes(operand), reg[children[0], _VALUE])
                reg[node, _RIGHT] = plain
                if _LEFT in forms:
                    reg[node, _LEFT] = self._step(core.point_scale, plain)
                continue
            elif kind in _CONNECTIVES:
                left, right = children
                indices = [self._step(np.add, reg[left, _LEFT, b], reg[right, _RIGHT, b])
                           for b in blocks]
                for b, index in zip(blocks, indices):
                    plain, scaled = core.tables(kind, operand, b)
                    if _RIGHT in forms:
                        reg[node, _RIGHT, b] = self._step(plain.take, index)
                    if _LEFT in forms:
                        reg[node, _LEFT, b] = self._step(scaled.take, index)
                if _VALUE in forms:
                    tables = [core.value_table(kind, operand, b) for b in blocks]
                    reg[node, _VALUE] = self._step(
                        functools.partial(core.from_blocks, tables), *indices)
                continue
            else:
                lhs, rhs = children
                if nodes[lhs][0] == "at":
                    holds = self._step(functools.partial(_below, [core.point_table()]),
                                       reg[lhs, _LEFT], reg[rhs, _RIGHT])
                elif kind == "leq":
                    codes = [r for b in blocks for r in (reg[lhs, _LEFT, b], reg[rhs, _RIGHT, b])]
                    holds = self._step(functools.partial(
                        _below, [core.tables(kind, _leq_batch, b) for b in blocks]), *codes)
                else:
                    holds = self._step(core.equal, reg[lhs, _VALUE], reg[rhs, _VALUE])
                if node in verdicts:
                    self._effect(functools.partial(_verdict, self._batch, bad, verdicts[node]),
                                 holds)
                if node in regions:
                    self._effect(functools.partial(_region, self._batch, regions[node]), holds)
                continue
            if forms & {_LEFT, _RIGHT}:
                codes = self._step(core.codes, reg[node, _VALUE])
                for b in blocks:
                    plain = self._step(operator.itemgetter(b), codes)
                    reg[node, _RIGHT, b] = plain
                    if _LEFT in forms:
                        reg[node, _LEFT, b] = self._step(functools.partial(core.scale, b), plain)
        last = {}
        for k, (_, ins, _, _) in enumerate(self._steps):
            for i in ins:
                last[i] = k
        dead: list[list[int]] = [[] for _ in self._steps]
        for i, k in last.items():
            dead[k].append(i)
        self._steps = [(fn, ins, out, tuple(gone))
                       for (fn, ins, out, _), gone in zip(self._steps, dead)]

    def _register(self, value, constant: bool) -> int:
        self._init.append(value)
        self._constant.append(constant)
        return len(self._init) - 1

    def _step(self, fn, *ins: int) -> int:
        """The register of fn applied to the registers ins: a constant when
        every input is one, else written by a new step."""
        if all(self._constant[i] for i in ins):
            return self._register(fn(*(self._init[i] for i in ins)), True)
        out = self._register(None, False)
        self._steps.append((fn, ins, out, ()))
        return out

    def _effect(self, fn, *ins: int) -> None:
        """A step run on every batch for its effect on bad; it writes the
        spare last register, which no step reads."""
        self._steps.append((fn, ins, -1, ()))

    def run(self, columns: tuple, shape: tuple, where) -> None:
        """Evaluate the steps on one batch: a binding per position in shape,
        the variables' columns broadcasting to it; where maps a position to
        its index in the scan."""
        self._batch[:] = (columns, shape, where)
        regs = [*self._init, None]
        regs[:len(columns)] = columns
        for fn, ins, out, dead in self._steps:
            regs[out] = fn(*[regs[i] for i in ins])
            for i in dead:
                regs[i] = None
        self._batch.clear()


def _verdict(batch: list, bad: list[int], cases: list[int], holds) -> None:
    """Where holds fails first in the batch, the failing index of cases."""
    if not holds.all():
        _, shape, where = batch
        index = where(int(np.argmin(np.broadcast_to(holds, shape))))
        for case in cases:
            bad[case] = index


def _region(batch: list, program: _Program, holds) -> None:
    """program run on just the bindings of the batch where holds is true."""
    columns, shape, where = batch
    at = np.flatnonzero(np.broadcast_to(holds, shape))
    if at.size:
        index = np.unravel_index(at, shape)
        program.run(tuple(np.broadcast_to(column, shape + column.shape[len(shape):])[index]
                          for column in columns), at.shape, lambda pos: where(int(at[pos])))


def _closure(nodes: list[tuple], roots) -> list[int]:
    """The roots and every node below them, children first."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(nodes[node][2])
    return sorted(seen)


def _exhaustive_starts(arity: int, count: int, step: int) -> range:
    """Where each exhaustive batch starts: at an id (the one empty binding of
    a closed law), or at a p row of the pairs."""
    if arity == 2:
        return range(0, count, max(1, step // count))
    return range(0, count ** arity, step)


def _exhaustive_batches(core: IdAlgebra, arity: int, count: int, step: int,
                        part: slice = slice(None)):
    """Every binding in order, as the core's values: propositions, pairs
    p-major as whole broadcast p rows, or the empty binding of a closed law.
    part picks a contiguous range of the batches."""
    starts = _exhaustive_starts(arity, count, step)
    if arity < 2:
        for lo in starts[part]:
            hi = min(lo + step, count ** arity)
            yield lo, ((core.column(lo, hi),) if arity else ()), (hi - lo,)
        return
    right = core.column(0, count)[None, :]
    for lo in starts[part]:
        hi = min(lo + starts.step, count)
        yield lo * count, (core.column(lo, hi)[:, None], right), (hi - lo, count)


def _draws(core: IdAlgebra, arity: int, count: int, cap: int, seed: int) -> tuple:
    """cap sampled bindings as columns of the core's values: uniform draws of
    propositions (seed), pairs stratified over the pair-index space while
    their ids fit ID_DTYPE (N <= 2^31), and past that independent uniform
    draws per side (seed, seed + 1)."""
    if arity == 2 and count <= 2 ** 31:
        return tuple(core.from_ids(side) for side in _pair_draw_ids(count, cap, seed))
    return tuple(core.from_rows(sampled_block(core.lattice, core.n_points, cap, seed + k))
                 for k in range(arity))


def _draw_batches(columns, step: int, part: slice = slice(None)):
    """Sampled bindings in draw order; part picks a contiguous range of the batches."""
    total = len(columns[0])
    for lo in range(0, total, step)[part]:
        hi = min(lo + step, total)
        yield lo, tuple(col[lo:hi] for col in columns), (hi - lo,)


# what the last split scan in this process cost beyond its calling process's
# own work, in seconds, as measured; 0 until a scan has been split
_split_cost = 0.0


def _split_scan(subterms: _Subterms, batches, n_batches: int, jobs: int) -> list[int]:
    """subterms.scan over batches(), with the batches split over up to jobs
    processes; the same first failing index per case either way.

    At jobs 1, with one batch, or without os.fork this is subterms.scan on
    the lazy stream. Otherwise the calling process first scans alone, in
    order: the first batch, which builds every id map and table the scan
    reads (every case reads all its subterms there), then at least one more
    batch, until it has spent as long as the last split cost beyond its own
    work (_split_cost, 0 before the first split). A scan whose cases have
    all failed by then never forks. The rest is cut into k = min(jobs,
    batches left) contiguous ranges, split only if, at the speed of the
    timed batches, k processes would save more than that cost, and scanned
    in-process otherwise. In a split a forked child scans each range but the
    first, which the calling process scans, and each case takes its first
    failure from the earliest range that reports one. A child inherits all
    it reads, writes its indices to a pipe and leaves by os._exit. A child
    that does not report has its range scanned in-process; children whose
    ranges can no longer matter, because every case failed earlier, are
    killed.
    """
    global _split_cost
    if jobs <= 1 or n_batches < 2 or not hasattr(os, "fork"):
        return subterms.scan(batches())
    bad = subterms.scan(batches(slice(0, 1)))  # builds what every batch reads
    if min(bad) >= 0:
        return bad
    timed = [0]
    start = time.perf_counter()
    bad = subterms.scan(_metered(batches(slice(1, None)), timed, start + _split_cost), bad)
    if min(bad) >= 0:
        return bad
    per_batch = (time.perf_counter() - start) / timed[0]
    done = 1 + timed[0]
    rest = n_batches - done
    parts = [slice(done + lo, done + hi) for lo, hi in partition_ranges(rest, jobs)]
    if len(parts) < 2 or per_batch * rest * (1 - 1 / len(parts)) <= _split_cost:
        return subterms.scan(batches(slice(done, None)), bad)
    start = time.perf_counter()
    cpu = _current_cpu()
    own = [0]
    children = []
    try:
        for k, part in enumerate(parts[1:]):
            children.append((part, *_fork_scan(subterms, batches(part), bad, cpu, k)))
        bad = subterms.scan(_metered(batches(parts[0]), own), bad)
        while children:
            part, pid, fd = children.pop(0)
            if min(bad) >= 0:
                _kill(pid, fd)
                continue
            found = _collect(pid, fd, len(bad))
            if found is None:
                bad = subterms.scan(batches(part), bad)
            else:
                bad = [old if old >= 0 else new for old, new in zip(bad, found)]
    finally:
        for _, pid, fd in children:
            _kill(pid, fd)
    _split_cost = max(0.0, time.perf_counter() - start - per_batch * own[0])
    return bad


def _metered(batches, taken: list[int], deadline: float = float("inf")):
    """batches, counted in taken[0], with none handed out after the first
    once time.perf_counter() reaches deadline."""
    for batch in batches:
        taken[0] += 1
        yield batch
        if time.perf_counter() >= deadline:
            return


def _current_cpu() -> int | None:
    """The CPU this process last ran on, where Linux says (/proc/self/stat)."""
    try:
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _fork_scan(subterms: _Subterms, batches, bad: list[int], cpu: int | None,
               k: int) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that scans batches from bad,
    writes the first failing indices as int64 and exits.

    The child binds itself to the k-th allowed CPU other than cpu, the one
    the calling process runs on: a scheduler that does not balance load
    across CPUs would otherwise keep it on its parent's CPU.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            if cpu is not None and hasattr(os, "sched_setaffinity"):
                others = sorted(os.sched_getaffinity(0) - {cpu})
                if others:
                    os.sched_setaffinity(0, {others[k % len(others)]})
            with os.fdopen(write, "wb") as out:
                out.write(np.asarray(subterms.scan(batches, bad), dtype=np.int64).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _kill(pid: int, fd: int) -> None:
    """Stop a scanning child, close its pipe and reap it."""
    os.kill(pid, signal.SIGKILL)
    os.close(fd)
    os.waitpid(pid, 0)


def _collect(pid: int, fd: int, size: int) -> list[int] | None:
    """A scanning child's size indices, read from its pipe once it exits, or
    None unless it wrote them all and exited cleanly."""
    with os.fdopen(fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8 * size:
        return None
    return np.frombuffer(data, dtype=np.int64).tolist()


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
             exhaustive: bool, checked: int, index: int, rows) -> LawOutcome:
    """The outcome of a scan; rows holds the binding at the first failing
    index, one proposition per variable, or is None when nothing failed."""
    mode = EXHAUSTIVE if exhaustive else SAMPLED
    if rows is None:
        return LawOutcome(PASS if exhaustive else ONE_SIDED, mode, checked)
    env = {name: tuple(int(x) for x in row) for name, row in zip(law.vars, rows)}
    point, _, _ = _failing_point(law, lattice, env, n_points, ops)
    return LawOutcome(FAIL, mode, checked, witness_env=env, witness_point=point, index=index)


def check_laws(cases, lattice: Oml, n_points: int, *, budget: int | None = None,
               pair_budget: int = DEFAULT_PAIR_BUDGET, seed: int = DEFAULT_SEED,
               jobs: int = 1, chunk: int = DEFAULT_CHUNK) -> list[LawOutcome]:
    """Quantify each (law, ops) case over all (or sampled) propositions.

    Each outcome is what the case gets when checked alone. The cases of one
    arity are checked in one scan: one core, one stream of batches and each
    distinct subterm evaluated once per batch, with the batches split over
    up to jobs processes, the calling one and forked children (_split_scan).
    The core is an IdAlgebra up to ID_PATH_MAX propositions and a RowAlgebra
    past it; either way the same bindings are checked in the same order.
    """
    budget = resolve_budget(budget)
    count = proposition_count(lattice, n_points)
    core = (IdAlgebra if count <= ID_PATH_MAX else RowAlgebra)(lattice, n_points)
    step = min(chunk, ID_CHUNK)
    by_arity: dict[int, list[int]] = {}
    for i, (law, _) in enumerate(cases):
        by_arity.setdefault(len(law.vars), []).append(i)
    outcomes: list[LawOutcome | None] = [None] * len(cases)
    # pairs first: a pair draw, the largest transient, then comes before any
    # id map a unary or closed law would build
    for arity, members in sorted(by_arity.items(), reverse=True):
        space, cap = _space(arity, count, budget, pair_budget)
        exhaustive = space <= cap
        if exhaustive:
            columns = None
            batches = functools.partial(_exhaustive_batches, core, arity, count, step)
            n_batches = len(_exhaustive_starts(arity, count, step))
        else:
            columns = _draws(core, arity, count, cap, seed)
            batches = functools.partial(_draw_batches, columns, step)
            n_batches = len(range(0, len(columns[0]), step))
        subterms = _Subterms(core, [cases[i] for i in members])
        bads = _split_scan(subterms, batches, n_batches, jobs)
        for i, bad in zip(members, bads):
            law, ops = cases[i]
            rows = None
            if bad >= 0 and exhaustive:
                rows = [decode_props(lattice, n_points, x) for x in _bound_ids(bad, count, arity)]
            elif bad >= 0:
                rows = [core.rows(column[bad]) for column in columns]
            outcomes[i] = _outcome(law, lattice, n_points, ops, exhaustive,
                                   space if exhaustive else cap, bad, rows)
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
    if arity < 2:
        return count ** arity, budget
    return count * count, min(pair_budget, budget * budget)


def _bound_ids(index: int, count: int, arity: int) -> tuple[int, ...]:
    """The ids bound by an index into the exhaustive space, p-major (none
    for a closed law)."""
    return divmod(index, count) if arity == 2 else (index,) * arity


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
