"""Pointwise operator laws as small expression trees, plus the quantifier.

A law states lhs <= rhs (or lhs = rhs) for all propositions bound to its
variables, optionally guarded by a side condition (used for monotonicity,
whose claim only applies to ordered pairs). Expressions evaluate two ways:

  _Program     a batch of bindings at a time, for check_laws: one flat step
               list compiled from the distinct subterms of the cases still in
               a scan (_Subterms), each node producing only the forms its
               readers use (values, plain or scaled block codes, order
               masks). Connectives gather from small block tables at one add
               per index; operators read their id maps whenever |L|^|T| is
               at most ID_PATH_MAX (IdAlgebra), and past it act on the
               element rows of the batch only (RowAlgebra). Both cores check
               x <= y as (x | y) == y on join-irreducible bit masks while a
               mask fits MASK_BITS, and per block like a connective past it.
               Every table is built once per lattice and kept in
               _SCAN_TABLES
  eval_trace   one proposition at a time, recording every intermediate value,
               for witnesses and their replays

A binary connective is one subclass of Binary, given by its symbol and its
lift(lattice, a, b), the elementwise rule on element index arrays; every
reader handles all of them in one branch.

A point projection At(expr, s) is the constant proposition of expr's element
at the point s, a node like any other; q(s) <= P(q)(t), a comparison at two
points, is the order check At(q, s) <= At(P(q), t).

check_laws quantifies a list of (law, operators) cases. Quantification is
exhaustive in odometer order below the budget and falls back to
deterministic seeded sampling above it (one-sided verdict). Unary laws
quantify over the ids, capped at the budget, and pair laws over the
pair-index space p-major, capped at min(PAIR_BUDGET, budget^2) up to the
default budget and at the budget above it (_space); a closed law is a scan
of its one empty binding. An exhaustive pair scan runs only the p rows whose
id is least in its orbit under S, and every q of each (_orbit_rows). S holds
the lattice automorphisms found by a bounded search (automorphisms,
IdAlgebra.symmetries), each acting at every point, that the scan checks on
tables to commute with every connective, constant and operator it reads.
Such an s fails a case at (s(p), s(q)) exactly where it fails at (p, q), so
a case's first failing pair lies in a scanned row: outcomes, witnesses and
checked, which still counts the whole space, are those of a full scan. A
sampled space takes one stratified draw, one index from each of cap
near-equal strata (_offsets), so no binding repeats; it is drawn once per
(space, cap, seed) and read by every case and call over that space. Only
a space of 2^63 indices or more, which only a RowAlgebra meets, is sampled
as uniform element rows per variable (tense.sampled_block). The cases of
one arity share one scan: the same
batches in that order (sampled draws in draw order), each distinct subterm
evaluated once per batch, a guarded case checked only on the bindings where
its guard holds, and each case leaving the scan at its first failing index.
With jobs > 1 that scan is split into contiguous ranges of its batches, the
first scanned by the calling process and each other one by a forked child,
and merged per case by the first range that fails. Every case gets the
outcome it would get checked alone, and parallel runs report exactly what a
sequential run reports.

A failing LawOutcome carries its whole witness: the binding at the first
failing index (witness_env), the first point where that binding breaks the
law (witness_point) and the two sides' values there (witness_lhs,
witness_rhs), worked out once by eval_trace. build_witness and every other
reader of a failure take these values from the outcome.
"""

from __future__ import annotations

import functools
import operator
import os
import signal
import time
import weakref
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  perfbench/tracing.py hooks it
from dataclasses import dataclass

import numpy as np

from .lattice import INDEX_DTYPE, Oml, join_irreducibles
from .report import EXHAUSTIVE, FAIL, ONE_SIDED, PASS, SAMPLED, Witness
from .sasaki import sasaki_and_batch, sasaki_imp_batch
from .stream import Stream
from .tense import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    ID_CHUNK,
    ID_DTYPE,
    ID_PATH_MAX,
    Prop,
    TenseOperator,
    decode_props,
    encode_props,
    enumeration_order,
    id_dtype,
    partition_ranges,
    proposition_block,
    proposition_count,
    require_memory,
    resolve_budget,
    rows_id_map,
    sampled_block,
)

# most bindings a pair law checks at a budget up to DEFAULT_BUDGET; a larger
# budget is the pair laws' cap too (_space)
PAIR_BUDGET = 10 ** 6


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
class Binary:
    """A binary connective. Each subclass sets its symbol and its lift, the
    elementwise rule applied to element index arrays of one shape."""

    left: "Expr"
    right: "Expr"


class Join(Binary):
    symbol = "v"

    @staticmethod
    def lift(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lattice.join_table[a, b]


class Meet(Binary):
    symbol = "^"

    @staticmethod
    def lift(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lattice.meet_table[a, b]


# SAnd.lift and SImp.lift look sasaki_*_batch up in this module on every
# call, where the benchmark's trace hooks sit; a reference taken at import
# would bypass them

class SAnd(Binary):
    symbol = "*"

    @staticmethod
    def lift(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return sasaki_and_batch(lattice, a, b)


class SImp(Binary):
    symbol = "->"

    @staticmethod
    def lift(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return sasaki_imp_batch(lattice, a, b)


@dataclass(frozen=True)
class App:
    slot: str
    arg: "Expr"


@dataclass(frozen=True)
class At:
    """The constant proposition of arg's element at one point."""

    arg: "Expr"
    point: int


Expr = PVar | ConstProp | Neg | Binary | App | At


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
        case Binary(a, b):
            return f"({render(a, names)} {expr.symbol} {render(b, names)})"
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
            out = tuple(int(lattice.ortho[x]) for x in
                        eval_trace(arg, lattice, env, n_points, ops, names, trace))
        case Binary(a, b):
            left, right = (np.array(eval_trace(side, lattice, env, n_points, ops, names, trace),
                                    dtype=INDEX_DTYPE) for side in (a, b))
            out = tuple(expr.lift(lattice, left, right).tolist())
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
    witness_lhs: int | None = None  # the two sides' values at witness_point
    witness_rhs: int | None = None


# -- the id core ----------------------------------------------------------

# entries per block table: (|L|^k)^2 for blocks of k points
BLOCK_TABLE_ENTRIES = 1 << 15
# most bits of a proposition's order mask, |J| per point for the lattice's
# join-irreducibles J; past it the order check runs per block
MASK_BITS = 64
# the tables of every core on a lattice, built once: lattice -> {key: table};
# kept here rather than on the Oml so that pickles stay small, and an entry
# goes with its lattice. Forked scans inherit them
_SCAN_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
    or, for the order relation of a check past MASK_BITS, whether it holds at
    every point of the block.
    """
    rows = decode_props(lattice, width, np.arange(lattice.n ** width))
    out = connective(lattice, rows[:, None, :], rows[None, :, :])
    if out.dtype == bool:
        return out.all(axis=-1).ravel()
    return encode_props(lattice, out).astype(ID_DTYPE).ravel()


def _leq_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.leq[a, b]


def automorphisms(lattice: Oml, limit: int) -> np.ndarray:
    """Up to limit automorphisms of the ortholattice, one element permutation
    s per row, the identity first: x <= y exactly when s(x) <= s(y), and
    s(x') = s(x)'.

    A depth-first search assigns each pair x, x' at once, s(x) = y forcing
    s(x') = y', the pairs with the smallest down-sets first. A candidate y
    has as many elements below and above it as x, is no assigned element's
    image yet, and compares with every assigned element as x does; so does
    y' with x'. x itself is tried first, so the first automorphism found is
    the identity. The search stops after limit automorphisms or limit + |L|
    expansions, so it may return a subset of the group. A lattice with no
    orthocomplement yields the identity alone.
    """
    n = lattice.n
    identity = np.arange(n)
    if not lattice.has_ortho or n < 2 or limit < 2:
        return identity[None]
    leq = lattice.leq
    ortho = lattice.ortho.astype(np.intp)
    below, above = leq.sum(axis=0), leq.sum(axis=1)
    pairs = sorted({min(x, ortho[x], key=lambda e: (below[e], e)) for x in range(n)},
                   key=lambda x: (below[x], x))
    # per y, whether y <= y' and whether y' <= y
    under, over = leq[identity, ortho], leq[ortho, identity]
    image = np.full(n, -1, dtype=np.intp)
    used = np.zeros(n, dtype=bool)

    def fits(x):
        """Per element y, whether s(x) = y agrees with the assignment so far."""
        done = np.flatnonzero(image >= 0)
        onto = image[done]
        return ((below == below[x]) & (above == above[x]) & ~used
                & (leq[:, onto] == leq[x, done]).all(axis=1)
                & (leq[onto, :] == leq[done, x][:, None]).all(axis=0))

    def candidates(x):
        xc = ortho[x]
        ok = (fits(x) & fits(xc)[ortho] & (under == leq[x, xc]) & (over == leq[xc, x]))
        ys = np.flatnonzero(ok).tolist()
        return iter(sorted(ys, key=lambda y: y != x))

    found, steps = [], 1
    stack = [candidates(pairs[0])]
    while stack and len(found) < limit:
        x = pairs[len(stack) - 1]
        if image[x] >= 0:  # undo this level's last choice
            used[image[x]] = used[image[ortho[x]]] = False
            image[x] = image[ortho[x]] = -1
        y = next(stack[-1], None)
        if y is None:
            stack.pop()
            continue
        image[x], image[ortho[x]] = y, ortho[y]
        used[y] = used[ortho[y]] = True
        if len(stack) == len(pairs):
            found.append(image.copy())
        elif steps == limit + n:
            break
        else:
            steps += 1
            stack.append(candidates(pairs[len(stack)]))
    return np.array(found)


class IdAlgebra:
    """Propositions as ids for one lattice and point count: the values,
    operators, block codes and order masks that a _Program computes with.

    A proposition's value is its odometer index (tense.encode_props).
    Operators (TenseOperator.id_map) and the complement are length-N id
    maps. Binary connectives work on block codes: a value split into blocks
    of a few points, most significant first, each block coded like a
    proposition over its points. On one block, a connective is one gather
    from a small table at the index left * radix + right of its operands'
    codes (radix = |L|^width). A left operand is therefore kept as scaled
    codes, already multiplied by the radix, and a right one as plain codes,
    so that each index is one add. A point projection (at) is the point's
    digit times the repunit, the sum of |L|^k over the points.

    The order check reads order masks. An element's mask has one bit per
    join-irreducible below it, so x <= y exactly when (x | y) == y. A
    proposition's mask packs its points' masks, the first point's highest,
    into mask_dtype, the narrowest unsigned dtype that holds |J| bits per
    point. A value's mask comes from masker, here one gather from mask_map,
    over all ids; a connective's is the sum of its blocks' mask_table
    entries at the indices it computes, like its value. Where a mask would
    take more than MASK_BITS bits, mask_dtype is None and the check runs per
    block, each block's order table read like a connective's.

    The dtypes follow from the largest radix alone: while radix^2 <= 2^15
    (radix <= 181), codes and code tables are uint8 and scaled codes, scaled
    tables and indices int16; past it all of them are ID_DTYPE. Each table
    comes from one block_table call per connective and block width; its
    plain, scaled, value and mask forms are derived from that result. Table
    memory does not depend on N, but for the mask map's N masks. Tables are
    built on first use, read-only, and shared through _SCAN_TABLES by every
    core on the lattice until the lattice is freed.
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
        self.count = proposition_count(lattice, n_points)
        bits = len(self.irreducibles()) * n_points
        self.mask_dtype = None if bits > MASK_BITS else next(
            dtype for dtype in (np.uint8, np.uint16, np.uint32, np.uint64)
            if bits <= np.iinfo(dtype).bits)
        self._comp: np.ndarray | None = None

    def column(self, lo: int, hi: int):
        """The values of the propositions with ids lo..hi-1."""
        return np.arange(lo, hi, dtype=ID_DTYPE)

    def from_ids(self, ids):
        """The values of the propositions with these ids."""
        return ids

    def from_rows(self, rows):
        """The values of these propositions, given as element rows."""
        return encode_props(self.lattice, rows)

    def rows(self, values):
        """The element rows of these values."""
        return decode_props(self.lattice, self.n_points, values)

    def constant(self, which: str):
        value = self.lattice.bottom if which == "bottom" else self.lattice.top
        return self.from_rows(np.full(self.n_points, value, dtype=INDEX_DTYPE))

    def complement_map(self) -> np.ndarray:
        if self._comp is None:
            comp = self.lattice.ortho
            self._comp = rows_id_map(self.lattice, self.n_points, lambda rows: comp[rows])
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

    def _memo(self, key: tuple, build):
        """The lattice's table under key, built by build() on first use and
        read-only. A key names all that a table's content and dtype depend
        on."""
        tables = _SCAN_TABLES.setdefault(self.lattice, {})
        if key not in tables:
            table = build()
            for array in table if isinstance(table, tuple) else (table,):
                array.flags.writeable = False
            tables[key] = table
        return tables[key]

    def tables(self, fn, block: int):
        """block_table of fn at this block's width: per index, for the order
        check whether x <= y at every point of the block, for a connective
        the plain and the scaled codes of fn(x, y)."""
        width, radix = self.widths[block], self.radices[block]

        def build():
            table = block_table(self.lattice, width, fn)
            if table.dtype == bool:
                return table
            return (table.astype(self.code_dtype), (table * radix).astype(self.index_dtype))
        return self._memo((fn, width, self.code_dtype), build)

    def value_table(self, fn, block: int) -> np.ndarray:
        """Per index, this block's part of the value of fn(x, y)."""
        width, place = self.widths[block], self._places[block]
        return self._memo((fn, "value", type(self), width, place),
                          lambda: self._block_values(block, self.tables(fn, block)[0]))

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

    def at(self, point: int):
        """values -> the constant propositions of their elements at one point."""
        n = self.lattice.n
        place = n ** (self.n_points - 1 - point)
        repunit = sum(n ** k for k in range(self.n_points))

        def constants(ids):
            digits = ids // place
            if point:
                digits -= digits // n * n  # numpy's % is slower
            digits *= repunit
            return digits
        return constants

    def irreducibles(self) -> np.ndarray:
        """The lattice's join-irreducibles, one mask bit per point each."""
        return self._memo(("irreducibles",), lambda: join_irreducibles(self.lattice))

    def masks(self, width: int) -> np.ndarray:
        """Per proposition over width points, by its id, its order mask."""
        dtype = self.mask_dtype

        def build():
            count = self.lattice.n ** width
            require_memory(count, dtype, f"the order masks of {count} propositions")
            irreducibles = self.irreducibles()
            below = self.lattice.leq[np.ix_(irreducibles, enumeration_order(self.lattice))]
            bits = np.arange(len(irreducibles), dtype=dtype)[:, None]
            point = (below.astype(dtype) << bits).sum(axis=0, dtype=dtype)
            masks, shift = point, dtype(len(irreducibles))
            for _ in range(width - 1):
                masks = ((masks[:, None] << shift) | point).reshape(-1)
            return masks
        return self._memo(("masks", width, dtype), build)

    def mask_map(self) -> np.ndarray:
        """The order mask of every id."""
        return self.masks(self.n_points)

    def masker(self):
        """values -> their order masks."""
        return self.mask_map().take

    def mask_table(self, fn, block: int) -> np.ndarray:
        """Per index, this block's part of the order mask of fn(x, y)."""
        width, dtype = self.widths[block], self.mask_dtype
        shift = len(self.irreducibles()) * sum(self.widths[block + 1:])
        return self._memo((fn, "mask", width, shift, dtype), lambda: np.left_shift(
            self.masks(width).take(self.tables(fn, block)[0]), dtype(shift)))

    def symmetries(self) -> tuple[np.ndarray, np.ndarray]:
        """The automorphisms of the lattice but the identity, each as an
        element permutation and as the id permutation it makes acting on
        every point: (k, |L|) and (k, count) arrays. The search stops at
        min(count, |L|^2) automorphisms, so the id table holds fewer than
        |L|^2 maps however large the group (MO_7 has 645,120); that still
        finds all of oml10's 12, mo2's 8 and cube3's 6, and any subset is
        sound."""
        def build():
            lattice, count = self.lattice, self.count
            elements = automorphisms(lattice, min(count, lattice.n ** 2))[1:]
            require_memory((len(elements), count), ID_DTYPE,
                           f"the id permutations of {len(elements)} automorphisms")
            ids = np.empty((len(elements), count), dtype=ID_DTYPE)
            for k, sigma in enumerate(elements):
                ids[k] = rows_id_map(lattice, self.n_points, sigma.take)
            return elements, ids
        return self._memo(("symmetries", self.n_points), build)

    def commuting(self, kind: str, operand) -> np.ndarray:
        """Per symmetry, whether it commutes with the lattice's table for a
        node of this kind: it fixes a constant, and carries the complement,
        the order and each connective's values on every element pair to
        their own images."""
        def build():
            lattice, elements = self.lattice, self.symmetries()[0]
            if kind == "const":
                value = lattice.bottom if operand == "bottom" else lattice.top
                return elements[:, value] == value
            if kind == "neg":
                return (elements[:, lattice.ortho] == lattice.ortho[elements]).all(axis=1)
            every = np.arange(lattice.n, dtype=INDEX_DTYPE)
            table = (_leq_batch if kind == "leq" else operand)(
                lattice, every[:, None], every[None, :])
            return np.array([np.array_equal(table[np.ix_(sigma, sigma)],
                                            table if kind == "leq" else sigma[table])
                             for sigma in elements], dtype=bool)
        return self._memo(("commuting", kind, operand, self.n_points), build)


class RowAlgebra(IdAlgebra):
    """Propositions as element rows (shape (..., n_points)), for spaces past
    ID_PATH_MAX.

    Operators and the complement act on the rows of the current batch only,
    so no length-N map is built, and no full id is formed (past 2^63
    propositions one would not fit int64). Block codes, indices, tables and
    order masks are those of IdAlgebra. A block's code is a sum of gathers,
    one per point of the block, from tables of each element's digit times
    its place in the block, built once per core; a connective's rows are its
    blocks' rows, gathered from the decoded code tables. A point projection
    is the point's column broadcast across the row. A row's mask ORs its
    elements' masks, one gather per point; a connective's is summed from its
    blocks' mask tables as in IdAlgebra.
    """

    def __init__(self, lattice: Oml, n_points: int):
        super().__init__(lattice, n_points)
        digit = np.empty(lattice.n, dtype=np.int64)
        digit[enumeration_order(lattice)] = np.arange(lattice.n)
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
        return self.lattice.ortho.take

    def applier(self, op: TenseOperator):
        def apply(rows):
            return op.apply_batch(rows.reshape(-1, self.n_points)).reshape(rows.shape)
        return apply

    def equal(self, x, y):
        return (x == y).all(axis=-1)

    def symmetries(self) -> tuple[np.ndarray, np.ndarray]:
        # none: checking an operator against a symmetry would take its id
        # map, which the row core never builds
        return (np.empty((0, self.lattice.n), dtype=np.intp),
                np.empty((0, self.count), dtype=ID_DTYPE))

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

    def at(self, point: int):
        return lambda rows: np.broadcast_to(rows[..., point, None], rows.shape)

    def masker(self):
        masks = np.empty_like(self.masks(1))  # element -> its order mask
        masks[enumeration_order(self.lattice)] = self.masks(1)
        bits = len(self.irreducibles())
        # per point, element -> its mask shifted to the point's place
        placed = [masks << self.mask_dtype(bits * (self.n_points - 1 - point))
                  for point in range(self.n_points)]

        def pack(rows):
            out = placed[0].take(rows[..., 0])
            for point in range(1, self.n_points):
                out |= placed[point].take(rows[..., point])
            return out
        return pack

    @staticmethod
    def from_blocks(tables, *indices):
        return np.concatenate([table.take(index, axis=0)
                               for table, index in zip(tables, indices)], axis=-1)


def _below(tables, *codes):
    """Whether x <= y at every point, from the order tables and, per block,
    the scaled codes of x and the plain codes of y."""
    ok = tables[0].take(codes[0] + codes[1])
    for block in range(1, len(tables)):
        ok &= tables[block].take(codes[2 * block] + codes[2 * block + 1])
    return ok


def _mask_below(x, y):
    """Whether x <= y at every point, from their order masks."""
    return (x | y) == y


_VALUE, _LEFT, _RIGHT, _MASK = "value", "left", "right", "mask"


class _Subterms:
    """The distinct subterms of a list of cases, scanned together on the
    values of a core (IdAlgebra or RowAlgebra).

    A subterm is keyed by its connective, its operator object or its point
    and its children, with each variable named by its position in law.vars,
    so a subterm that several cases contain is one node. A case's check
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
            sides = (self._add(side, law.vars, ops) for side in (law.lhs, law.rhs))
            check = self._node((law.relation, None, tuple(sides)))
            guard = None
            if law.guard is not None:
                sides = (self._add(side, law.vars, ops) for side in law.guard)
                guard = self._node(("leq", None, tuple(sides)))
            self.checks.append((check, guard))
        self.arity = max((len(law.vars) for law, _ in cases), default=0)

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
            case Binary(a, b):
                key = ("binary", expr.lift, (self._add(a, names, ops), self._add(b, names, ops)))
            case At(arg, point):
                key = ("at", point, (self._add(arg, names, ops),))
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
        """Per case, the first failing index over (where, columns, shape)
        batches taken in order, or -1; where maps a position in the batch to
        its index. A case leaves the scan when it fails; a case that bad
        already marks failed is not scanned."""
        bad = [-1] * len(self.checks) if bad is None else list(bad)
        active = [case for case, index in enumerate(bad) if index < 0]
        if not active:
            return bad
        program = self.compile(active, bad)
        for where, columns, shape in batches:
            program.run(columns, shape, where)
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
      mask    the order mask (mask_dtype), read by order checks
    A connective adds its operands' codes into one index per block and
    gathers each form it must produce from a table at that index; any other
    node's codes are cut from its value, and its mask made from it by the
    core's masker.
    Nodes are evaluated children first, each once per batch, and a register
    is dropped after its last reader.
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
            if kind == "leq" and core.mask_dtype is not None:
                need[children[0]].add(_MASK)
                need[children[1]].add(_MASK)
            elif kind in ("binary", "leq"):
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
                reg[node, _VALUE] = self._step(core.at(operand), reg[children[0], _VALUE])
            elif kind == "binary":
                left, right = children
                indices = [self._step(np.add, reg[left, _LEFT, b], reg[right, _RIGHT, b])
                           for b in blocks]
                for b, index in zip(blocks, indices):
                    plain, scaled = core.tables(operand, b)
                    if _RIGHT in forms:
                        reg[node, _RIGHT, b] = self._step(plain.take, index)
                    if _LEFT in forms:
                        reg[node, _LEFT, b] = self._step(scaled.take, index)
                # a mask is a sum over blocks in both cores
                for form, table, combine in ((_VALUE, core.value_table, core.from_blocks),
                                             (_MASK, core.mask_table, IdAlgebra.from_blocks)):
                    if form in forms:
                        tables = [table(operand, b) for b in blocks]
                        reg[node, form] = self._step(functools.partial(combine, tables), *indices)
            else:
                lhs, rhs = children
                if kind == "leq" and core.mask_dtype is not None:
                    holds = self._step(_mask_below, reg[lhs, _MASK], reg[rhs, _MASK])
                elif kind == "leq":
                    codes = [r for b in blocks for r in (reg[lhs, _LEFT, b], reg[rhs, _RIGHT, b])]
                    holds = self._step(functools.partial(
                        _below, [core.tables(_leq_batch, b) for b in blocks]), *codes)
                else:
                    holds = self._step(core.equal, reg[lhs, _VALUE], reg[rhs, _VALUE])
                if node in verdicts:
                    self._effect(functools.partial(_verdict, self._batch, bad, verdicts[node]),
                                 holds)
                if node in regions:
                    self._effect(functools.partial(_region, self._batch, regions[node]), holds)
                continue
            if kind != "binary" and _MASK in forms:
                reg[node, _MASK] = self._step(core.masker(), reg[node, _VALUE])
            if kind != "binary" and forms & {_LEFT, _RIGHT}:
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


def _orbit_rows(core: IdAlgebra, subterms: _Subterms) -> np.ndarray:
    """The p rows of an exhaustive pair scan of subterms, as ID_DTYPE ids:
    those least in their orbit under the symmetries (core.symmetries) that
    commute with every table and operator the scan reads. Each operator is
    checked on its id map, op(s(q)) = s(op(q)) for every id q.

    Such a symmetry s fails a case at (s(p), s(q)) exactly where it fails
    at (p, q), so a case's first failing pair has a p row that no kept s
    moves to a smaller id, and scanning every q of just these rows finds
    it. Any subset of the symmetries keeps this true, with more rows.
    The id permutations are read in blocks of about ID_CHUNK ids, one
    permutation each once an id row holds that many, so no temporary grows
    with the number of symmetries."""
    elements, ids = core.symmetries()
    rows = np.arange(core.count, dtype=ID_DTYPE)
    if not len(ids):
        return rows
    step = max(1, ID_CHUNK // core.count)
    blocks = [slice(k, k + step) for k in range(0, len(ids), step)]
    keep = np.ones(len(ids), dtype=bool)
    for kind, operand in dict.fromkeys(node[:2] for node in subterms.nodes):
        if kind == "app":
            table = operand.id_map()
            for block in blocks:
                keep[block] &= (table[ids[block]] == ids[block][:, table]).all(axis=1)
        elif kind in ("const", "neg", "binary", "leq"):
            keep &= core.commuting(kind, operand)
    least = np.ones(core.count, dtype=bool)
    for block in blocks:
        least &= (ids[block][keep[block]] >= rows).all(axis=0)
    return rows[least]


def _exhaustive_starts(arity: int, count: int, step: int, rows=None) -> range:
    """Where each exhaustive batch starts: at an id (the one empty binding of
    a closed law), or at a position in the p rows of the pairs (rows, every
    id when None)."""
    if arity == 2:
        return range(0, count if rows is None else len(rows), max(1, step // count))
    return range(0, count ** arity, step)


def _exhaustive_batches(core: IdAlgebra, arity: int, count: int, step: int,
                        part: slice = slice(None), rows=None):
    """Every binding in order, as the core's values: propositions, pairs
    p-major as whole broadcast p rows, those of the ids in rows (every id
    when None), or the empty binding of a closed law. part picks a
    contiguous range of the batches."""
    starts = _exhaustive_starts(arity, count, step, rows)
    if arity < 2:
        for lo in starts[part]:
            hi = min(lo + step, count ** arity)
            yield (functools.partial(operator.add, lo),
                   ((core.column(lo, hi),) if arity else ()), (hi - lo,))
        return
    rows = np.arange(count, dtype=ID_DTYPE) if rows is None else rows
    right = core.column(0, count)[None, :]
    for lo in starts[part]:
        chunk = rows[lo:lo + starts.step]
        yield (functools.partial(_pair_index, chunk, count),
               (core.from_ids(chunk)[:, None], right), (len(chunk), count))


def _pair_index(rows: np.ndarray, count: int, position: int) -> int:
    """The pair index at a position of a batch of whole p rows, these ids."""
    return int(rows[position // count]) * count + position % count


def _draws(core: IdAlgebra, arity: int, count: int, cap: int, seed: int):
    """cap sampled bindings, as a function of (lo, hi) that gives bindings
    lo..hi-1 as one column of the core's values per variable. While the
    count^arity indices of the space fit int64, they are the stratified draw
    over it (_offsets), and each call derives and passes to core.from_ids
    the ids of its own bindings only. Past that, which only a RowAlgebra
    meets, variable k takes cap uniform element rows (seed + k), held whole."""
    space = count ** arity
    if space < 2 ** 63:
        offsets = _offsets(space, cap, seed)
        return lambda lo, hi: tuple(core.from_ids(ids) for ids in
                                    _bound_at(_ids_at(space, offsets, lo, hi), count, arity))
    columns = tuple(sampled_block(core.lattice, core.n_points, cap, seed + k)
                    for k in range(arity))
    return lambda lo, hi: tuple(column[lo:hi] for column in columns)


def _draw_batches(draw, total: int, step: int, part: slice = slice(None)):
    """The total sampled bindings of draw in draw order; part picks a
    contiguous range of the batches."""
    for lo in range(0, total, step)[part]:
        hi = min(lo + step, total)
        yield functools.partial(operator.add, lo), draw(lo, hi), (hi - lo,)


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

    The child points its fds 0-2 at os.devnull first: it reports only
    through its pipe, so it never holds its parent's stdin, stdout or stderr
    open. It then binds itself to the k-th allowed CPU other than cpu, the
    one the calling process runs on: a scheduler that does not balance load
    across CPUs would otherwise keep it on its parent's CPU.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            if null > 2:
                os.close(null)
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


@functools.lru_cache(maxsize=2)
def _offsets(space: int, cap: int, seed: int) -> np.ndarray:
    """The stratified draw over an index space of fewer than 2^63 indices:
    one uniform draw from each of cap near-equal strata, the first r of
    width + 1 indices and the rest of width, where width, r = divmod(space,
    cap). Kept as each draw's offset into its stratum (_ids_at derives the
    indices), read-only, in the narrowest unsigned dtype that holds the
    widest stratum's largest offset. The draw depends on nothing else, so a
    run draws it once per space; the memo holds two, a run's unary and its
    pair draw. Drawn ID_CHUNK strata at a time from one generator, which
    yields the same offsets as drawing all cap at once."""
    width, r = divmod(space, cap)
    dtype = np.min_scalar_type(width)
    require_memory(cap, dtype, f"a draw of {cap} of {space} bindings")
    offsets = np.empty(cap, dtype=dtype)
    rng = Stream(seed)
    for lo in range(0, cap, ID_CHUNK):
        hi = min(lo + ID_CHUNK, cap)
        offsets[lo:hi] = rng.integers(width + (np.arange(lo, hi, dtype=np.int64) < r))
    offsets.flags.writeable = False
    return offsets


def _ids_at(space: int, offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The indices of draws lo..hi-1 of the stratified draw over space with
    these offsets, as int64: k_i = i * width + min(i, r) + offsets[i], where
    width, r = divmod(space, cap)."""
    width, r = divmod(space, len(offsets))
    ks = np.arange(lo * width, hi * width, width, dtype=np.int64)
    if r:
        ks += np.minimum(np.arange(lo, hi, dtype=np.int64), r)
    np.add(ks, offsets[lo:hi], out=ks, dtype=np.int64)
    return ks


def _bound_at(ks: np.ndarray, count: int, arity: int) -> np.ndarray:
    """The ids that the indices ks into the space of count^arity bindings
    bind, one row per variable (p-major for pairs), in id_dtype(count)."""
    out = np.empty((arity, len(ks)), dtype=id_dtype(count))
    if arity < 2:
        out[:] = ks
        return out
    # a floor division by a scalar and a subtraction run in about half the
    # time of np.divmod
    whole = ks // count
    out[0] = whole
    whole *= count
    np.subtract(ks, whole, out=out[1], casting="same_kind")
    return out


def _outcome(law: Law, lattice: Oml, n_points: int, ops: dict[str, TenseOperator],
             exhaustive: bool, checked: int, index: int, rows) -> LawOutcome:
    """The outcome of a scan; rows holds the binding at the first failing
    index, one proposition per variable, or is None when nothing failed. A
    failure's witness is the first point where the binding breaks the law,
    with the values of both sides there."""
    mode = EXHAUSTIVE if exhaustive else SAMPLED
    if rows is None:
        return LawOutcome(PASS if exhaustive else ONE_SIDED, mode, checked)
    env = {name: tuple(int(x) for x in row) for name, row in zip(law.vars, rows)}
    lhs, rhs = (eval_trace(side, lattice, env, n_points, ops, {}, [])
                for side in (law.lhs, law.rhs))
    for point, (x, y) in enumerate(zip(lhs, rhs)):
        if (not lattice.le(x, y)) if law.relation == "leq" else x != y:
            return LawOutcome(FAIL, mode, checked, witness_env=env, witness_point=point,
                              index=index, witness_lhs=x, witness_rhs=y)
    raise AssertionError("witness does not fail the law")  # engine bug if reached


def check_laws(cases, lattice: Oml, n_points: int, *, budget: int | None = None,
               seed: int = DEFAULT_SEED, jobs: int = 1) -> list[LawOutcome]:
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
    by_arity: dict[int, list[int]] = {}
    for i, (law, _) in enumerate(cases):
        by_arity.setdefault(len(law.vars), []).append(i)
    outcomes: list[LawOutcome | None] = [None] * len(cases)
    # pairs first: the pair draw's offsets are drawn before any id map a
    # unary or closed law would build
    for arity, members in sorted(by_arity.items(), reverse=True):
        space, cap = _space(arity, count, budget)
        exhaustive = space <= cap
        subterms = _Subterms(core, [cases[i] for i in members])
        if exhaustive:
            draw = None
            rows = _orbit_rows(core, subterms) if arity == 2 else None
            batches = functools.partial(_exhaustive_batches, core, arity, count, ID_CHUNK,
                                        rows=rows)
            n_batches = len(_exhaustive_starts(arity, count, ID_CHUNK, rows))
        else:
            draw = _draws(core, arity, count, cap, seed)
            batches = functools.partial(_draw_batches, draw, cap, ID_CHUNK)
            n_batches = len(range(0, cap, ID_CHUNK))
        bads = _split_scan(subterms, batches, n_batches, jobs)
        for i, bad in zip(members, bads):
            law, ops = cases[i]
            rows = None
            if bad >= 0 and exhaustive:
                rows = [decode_props(lattice, n_points, ids[0])
                        for ids in _bound_at(np.array([bad]), count, arity)]
            elif bad >= 0:
                rows = [core.rows(column[0]) for column in draw(bad, bad + 1)]
            outcomes[i] = _outcome(law, lattice, n_points, ops, exhaustive,
                                   space if exhaustive else cap, bad, rows)
    return outcomes


def check_law(law: Law, lattice: Oml, n_points: int, ops: dict[str, TenseOperator], *,
              budget: int | None = None, seed: int = DEFAULT_SEED,
              jobs: int = 1) -> LawOutcome:
    """check_laws on the one case (law, ops)."""
    return check_laws([(law, ops)], lattice, n_points, budget=budget, seed=seed, jobs=jobs)[0]


def _space(arity: int, count: int, budget: int) -> tuple[int, int]:
    """(bindings in the space, most bindings checked) for laws of this arity:
    a pair law checks min(PAIR_BUDGET, budget^2) bindings at a budget up to
    DEFAULT_BUDGET, and budget ones above it."""
    if arity < 2:
        return count ** arity, budget
    return count * count, (min(PAIR_BUDGET, budget * budget) if budget <= DEFAULT_BUDGET
                           else budget)


def build_witness(law: Law, outcome: LawOutcome, op_names: dict[str, str]) -> Witness:
    """The witness of law's failing outcome, with the operators in its slots
    shown by the names in op_names."""
    return Witness(
        kind="law",
        law=law.id,
        ops=tuple(sorted(op_names.items())),
        props=tuple((name, outcome.witness_env[name]) for name in law.vars),
        point=outcome.witness_point,
        lhs=outcome.witness_lhs,
        rhs=outcome.witness_rhs,
        note=law.describe(op_names),
    )
