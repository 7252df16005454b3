"""Propositions over a time frame and tense operators acting on them.

A proposition assigns a lattice element to every time point; here that is a
plain tuple of element indices. Frame-induced operators follow the usual
possible-past / possible-future readings:

    P(q)(s) = join of q(t) over t R s        H(q)(s) = meet of q(t) over t R s
    F(q)(s) = join of q(t) over s R t        G(q)(s) = meet of q(t) over s R t

with the empty join equal to the bottom and the empty meet equal to the top.

Every operator also evaluates in batch over an (N, T) array of propositions;
that path powers the quantifiers and builds the id maps below. Enumeration
follows a fixed odometer: digit 0 is the lattice bottom, remaining digits
follow element declaration order, and the last time point is the least
significant digit, so the first proposition is constant-bottom and
"lexicographically first counterexample" is meaningful. A proposition's
position in that order is its id: encode_props and decode_props convert
between ids and rows, and TenseOperator.id_map gives a whole operator as an
id -> id map.

A frame-induced operator's id map depends only on the lattice, the point
count, the relation and which of P/F/H/G it is. The maps are therefore kept
in one memo in this module, _FRAME_MAPS: per lattice, a weak-valued
dictionary keyed (n_points, frame.rel, which). Operators re-induced from a
relation equal to the frame's share the frame quadruple's map while any
operator holding it is alive, and a map is freed with its last operator.
all_props is cached per lattice in _ALL_PROPS. Both dictionaries are keyed
weakly by the lattice and live outside it, so a pickled lattice carries
neither.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvalidSpec, ParseError, TabulatedMiss
from .frames import TimeFrame
from .lattice import INDEX_DTYPE, Oml, join_set, meet_set, _tokenize

Prop = tuple[int, ...]

DEFAULT_BUDGET = 10 ** 6
DEFAULT_PAIR_BUDGET = 10 ** 6
DEFAULT_SEED = 1729
DEFAULT_CHUNK = 1 << 18
# dtype of id maps, which are built for spaces of fewer than 2^31 ids; int32
# arithmetic on ids runs several times faster than int64 in numpy
ID_DTYPE = np.int32
# Largest |L|^|T| whose operators are compared, and whose laws are checked,
# on id maps. Each id map is built by applying its operator to all N
# propositions, while a law checks at most budget (default 10^6) bindings and
# samples beyond it, so a few times past the budget the maps cost more than
# they save. Past the cap a law scan applies each operator to the rows of its
# current batch only (laws.RowAlgebra), with the same scanner and batches.
ID_PATH_MAX = 1 << 20
# caches derived from a lattice, kept here rather than on the Oml so that
# pickles stay small; an entry goes with its lattice
_ALL_PROPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()   # lattice -> all_props
_FRAME_MAPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # lattice -> id maps


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else the OMT_BUDGET environment variable, else 10**6."""
    if budget is not None:
        value = int(budget)
        if value <= 0:
            raise InvalidSpec(f"budget must be a positive integer, got {budget!r}")
        return value
    env = os.environ.get("OMT_BUDGET")
    if env is not None:
        try:
            value = int(env)
            if value <= 0:
                raise ValueError
        except ValueError:
            raise InvalidSpec(f"OMT_BUDGET must be a positive integer, got {env!r}") from None
        return value
    return DEFAULT_BUDGET


# -- single-proposition evaluation ---------------------------------------

def eval_P(lattice: Oml, frame: TimeFrame, q: Prop) -> Prop:
    """Sometime in the past: join of q over predecessors."""
    return tuple(join_set(lattice, (q[t] for t in frame.preds[s])) for s in range(frame.n))


def eval_F(lattice: Oml, frame: TimeFrame, q: Prop) -> Prop:
    """Sometime in the future: join of q over successors."""
    return tuple(join_set(lattice, (q[t] for t in frame.succs[s])) for s in range(frame.n))


def eval_H(lattice: Oml, frame: TimeFrame, q: Prop) -> Prop:
    """Always in the past: meet of q over predecessors."""
    return tuple(meet_set(lattice, (q[t] for t in frame.preds[s])) for s in range(frame.n))


def eval_G(lattice: Oml, frame: TimeFrame, q: Prop) -> Prop:
    """Always in the future: meet of q over successors."""
    return tuple(meet_set(lattice, (q[t] for t in frame.succs[s])) for s in range(frame.n))


_FRAME_EVAL = {"P": eval_P, "F": eval_F, "H": eval_H, "G": eval_G}


# -- operator kinds -------------------------------------------------------

class TenseOperator:
    """Common surface: call on a proposition tuple, apply_batch on arrays, or
    id_map for the whole operator on proposition ids."""

    lattice: Oml
    n_points: int
    label: str

    def __call__(self, q: Prop) -> Prop:
        raise NotImplementedError

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def id_map(self) -> np.ndarray:
        """Length-|L|^|T| ID_DTYPE array: entry i is the id of this operator
        applied to id i. Built on first use and kept on the operator."""
        cached = self.__dict__.get("_id_map")
        if cached is None:
            cached = self._build_id_map().astype(ID_DTYPE, copy=False)
            object.__setattr__(self, "_id_map", cached)
        return cached

    def _build_id_map(self) -> np.ndarray:
        return rows_id_map(self.lattice, self.n_points, self.apply_batch)

    def __getstate__(self):
        # an unpickled copy rebuilds the id map if it needs it
        return {k: v for k, v in self.__dict__.items() if k != "_id_map"}


@dataclass(frozen=True, eq=False)
class FrameInduced(TenseOperator):
    """One of P, F, H, G read off a time frame."""

    lattice: Oml
    frame: TimeFrame
    which: str

    def __post_init__(self):
        if self.which not in _FRAME_EVAL:
            raise InvalidSpec(f"unknown frame-induced operator {self.which!r}")

    @property
    def n_points(self) -> int:
        return self.frame.n

    @property
    def label(self) -> str:
        return self.which

    def __call__(self, q: Prop) -> Prop:
        return _FRAME_EVAL[self.which](self.lattice, self.frame, q)

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        lattice = self.lattice
        joinlike = self.which in ("P", "F")
        # table[x, y] is flat[x * n + y]: one gather on intp indices runs
        # several times faster than fancy indexing the 2-D int16 table
        table = lattice.join_table if joinlike else lattice.meet_table
        flat = table.ravel().astype(np.intp)
        unit = lattice.bottom if joinlike else lattice.top
        sources = self.frame.preds if self.which in ("P", "H") else self.frame.succs
        columns = np.ascontiguousarray(batch.T, dtype=np.intp)
        out = np.empty_like(batch)
        for s, points in enumerate(sources):
            if not points:  # the empty join is the bottom, the empty meet the top
                out[:, s] = unit
                continue
            acc = columns[points[0]]
            for t in points[1:]:
                acc = flat.take(acc * lattice.n + columns[t])
            out[:, s] = acc
        return out

    def _build_id_map(self) -> np.ndarray:
        # shared by every live operator with this lattice, point count,
        # relation and which (see the module docstring)
        maps = _FRAME_MAPS.setdefault(self.lattice, weakref.WeakValueDictionary())
        key = (self.n_points, self.frame.rel, self.which)
        cached = maps.get(key)
        if cached is None:
            cached = rows_id_map(self.lattice, self.n_points, self.apply_batch).astype(ID_DTYPE)
            cached.setflags(write=False)
            maps[key] = cached
        return cached


@dataclass(frozen=True, eq=False)
class IdentityElseConstant(TenseOperator):
    """q(t) at the special points, a constant default everywhere else."""

    lattice: Oml
    n_points: int
    special: frozenset[int]
    default: int
    label: str = "S"

    def __post_init__(self):
        for t in self.special:
            if not (0 <= t < self.n_points):
                raise InvalidSpec(f"special point {t} is out of range")
        if not (0 <= self.default < self.lattice.n):
            raise InvalidSpec(f"default element {self.default} is out of range")

    def __call__(self, q: Prop) -> Prop:
        return tuple(q[t] if t in self.special else self.default for t in range(self.n_points))

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        out = np.full_like(batch, self.default)
        keep = sorted(self.special)
        if keep:
            out[:, keep] = batch[:, keep]
        return out


@dataclass(frozen=True, eq=False)
class Tabulated(TenseOperator):
    """Explicit proposition-to-proposition map; only sensible for tiny |L|^|T|."""

    lattice: Oml
    n_points: int
    table: dict[Prop, Prop]
    label: str = "T"

    def __call__(self, q: Prop) -> Prop:
        try:
            return self.table[tuple(q)]
        except KeyError:
            raise TabulatedMiss(f"operator {self.label!r} has no entry for {q}") from None

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        rows = [self(tuple(int(x) for x in row)) for row in batch]
        return np.array(rows, dtype=batch.dtype).reshape(batch.shape)

    def _build_id_map(self) -> np.ndarray:
        out = np.full(proposition_count(self.lattice, self.n_points), -1, dtype=np.intp)
        if self.table:
            keys = np.array(list(self.table), dtype=INDEX_DTYPE)
            values = np.array(list(self.table.values()), dtype=INDEX_DTYPE)
            out[encode_props(self.lattice, keys)] = encode_props(self.lattice, values)
        missing = np.flatnonzero(out < 0)
        if missing.size:
            q = tuple(int(x) for x in decode_props(self.lattice, self.n_points, missing[0]))
            raise TabulatedMiss(f"operator {self.label!r} has no entry for {q}")
        return out


@dataclass(frozen=True, eq=False)
class Composed(TenseOperator):
    """outer after inner."""

    outer: TenseOperator
    inner: TenseOperator

    @property
    def lattice(self) -> Oml:
        return self.outer.lattice

    @property
    def n_points(self) -> int:
        return self.outer.n_points

    @property
    def label(self) -> str:
        return self.outer.label + self.inner.label

    def __call__(self, q: Prop) -> Prop:
        return self.outer(self.inner(q))

    def apply_batch(self, batch: np.ndarray) -> np.ndarray:
        return self.outer.apply_batch(self.inner.apply_batch(batch))

    def _build_id_map(self) -> np.ndarray:
        return self.outer.id_map()[self.inner.id_map()]


def apply(op: TenseOperator, q: Prop) -> Prop:
    if len(q) != op.n_points:
        raise InvalidSpec(f"proposition has {len(q)} points, operator expects {op.n_points}")
    return op(tuple(q))


def compose(outer: TenseOperator, inner: TenseOperator) -> Composed:
    if outer.lattice is not inner.lattice or outer.n_points != inner.n_points:
        raise InvalidSpec("composed operators must share the lattice and the point set")
    return Composed(outer, inner)


def identity_operator(lattice: Oml, n_points: int) -> IdentityElseConstant:
    return IdentityElseConstant(lattice, n_points, frozenset(range(n_points)),
                                lattice.bottom, label="Id")


@dataclass(frozen=True, eq=False)
class OperatorQuadruple:
    """The four tense operators bound to one lattice and one point set."""

    P: TenseOperator
    F: TenseOperator
    H: TenseOperator
    G: TenseOperator

    def __post_init__(self):
        ops = [self.P, self.F, self.H, self.G]
        first = ops[0]
        for op in ops[1:]:
            if op.lattice is not first.lattice or op.n_points != first.n_points:
                raise InvalidSpec("quadruple operators must share the lattice and the point set")

    @classmethod
    def from_frame(cls, lattice: Oml, frame: TimeFrame) -> "OperatorQuadruple":
        return cls(*(FrameInduced(lattice, frame, w) for w in "PFHG"))

    @property
    def lattice(self) -> Oml:
        return self.P.lattice

    @property
    def n_points(self) -> int:
        return self.P.n_points

    def as_dict(self) -> dict[str, TenseOperator]:
        return {"P": self.P, "F": self.F, "H": self.H, "G": self.G}


# -- proposition enumeration ----------------------------------------------

def enumeration_order(lattice: Oml) -> np.ndarray:
    """Digit value -> element index; the bottom element comes first."""
    rest = [i for i in range(lattice.n) if i != lattice.bottom]
    return np.array([lattice.bottom] + rest, dtype=INDEX_DTYPE)


def proposition_count(lattice: Oml, n_points: int) -> int:
    return lattice.n ** n_points


def decode_props(lattice: Oml, n_points: int, ids: np.ndarray) -> np.ndarray:
    """Propositions at the given odometer indices (ids), one row each."""
    order = enumeration_order(lattice)
    idx = np.array(ids, dtype=np.int64)
    out = np.empty(idx.shape + (n_points,), dtype=INDEX_DTYPE)
    for j in range(n_points - 1, -1, -1):
        out[..., j] = order[idx % lattice.n]
        idx //= lattice.n
    return out


def encode_props(lattice: Oml, rows: np.ndarray) -> np.ndarray:
    """Odometer index of each proposition along the last axis; inverts decode_props.

    The ids are ID_DTYPE while every id over that many points fits it, and
    int64 past that.
    """
    n_points = rows.shape[-1]
    fits = lattice.n ** n_points <= np.iinfo(ID_DTYPE).max + 1
    digit = np.empty(lattice.n, dtype=ID_DTYPE if fits else np.int64)
    digit[enumeration_order(lattice)] = np.arange(lattice.n)
    ids = np.zeros(rows.shape[:-1], dtype=digit.dtype)
    for j in range(n_points):
        ids *= lattice.n
        ids += digit.take(rows[..., j])
    return ids


def proposition_block(lattice: Oml, n_points: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi (exclusive) of the odometer enumeration as an array."""
    return decode_props(lattice, n_points, np.arange(lo, hi, dtype=np.int64))


def all_props(lattice: Oml, n_points: int) -> np.ndarray:
    """Every proposition as one read-only (N, |T|) array whose row i is id i.

    The rows of an operator's values are then all_props(...)[op.id_map()].
    Built on first use and kept per lattice, for one point count at a time.
    """
    cached = _ALL_PROPS.get(lattice)
    if cached is None or cached.shape[1] != n_points:
        cached = proposition_block(lattice, n_points, 0, proposition_count(lattice, n_points))
        cached.setflags(write=False)
        _ALL_PROPS[lattice] = cached
    return cached


def rows_id_map(lattice: Oml, n_points: int, rows_fn) -> np.ndarray:
    """A row-wise map of proposition arrays as an id -> id map, built in chunks."""
    props = all_props(lattice, n_points)
    out = np.empty(len(props), dtype=np.intp)
    for lo in range(0, len(props), DEFAULT_CHUNK):
        out[lo:lo + DEFAULT_CHUNK] = encode_props(lattice, rows_fn(props[lo:lo + DEFAULT_CHUNK]))
    return out


def partition_ranges(total: int, k: int) -> list[tuple[int, int]]:
    """Split [0, total) into k contiguous near-equal ranges (empty ones dropped)."""
    k = max(1, k)
    bounds = [total * i // k for i in range(k + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(k) if bounds[i] < bounds[i + 1]]


def sampled_block(lattice: Oml, n_points: int, count: int, seed: int) -> np.ndarray:
    """Uniformly drawn propositions (with repetition) for one-sided checks."""
    rng = np.random.default_rng(seed)
    order = enumeration_order(lattice)
    digits = rng.integers(0, lattice.n, size=(count, n_points))
    return order[digits]


# -- ordering between operators -------------------------------------------

def op_leq_counterexample(a: TenseOperator, b: TenseOperator, *, budget: int | None = None,
                          chunk: int = DEFAULT_CHUNK) -> tuple[Prop, int] | None:
    """First (q, point) in odometer order with a(q)(point) not below b(q)(point),
    or None when a(q) <= b(q) pointwise for every proposition q.

    Exhaustive over the odometer enumeration; raises BudgetExceeded when
    |L|^|T| overruns the budget.
    """
    if a.lattice is not b.lattice or a.n_points != b.n_points:
        raise InvalidSpec("compared operators must share the lattice and the point set")
    lattice, n_points = a.lattice, a.n_points
    space = proposition_count(lattice, n_points)
    budget = resolve_budget(budget)
    if space > budget:
        raise BudgetExceeded(
            f"{space} propositions exceed the budget of {budget}", space, budget)
    for lo in range(0, space, chunk):
        block = proposition_block(lattice, n_points, lo, min(lo + chunk, space))
        ok = lattice.leq[a.apply_batch(block), b.apply_batch(block)]
        rows = ok.all(axis=1)
        if not rows.all():
            i = int(np.argmin(rows))
            point = int(np.argmin(ok[i]))
            return tuple(int(x) for x in block[i]), point
    return None


def ops_equal(a: TenseOperator, b: TenseOperator, *, budget: int | None = None,
              chunk: int = DEFAULT_CHUNK) -> bool:
    """Whether a and b agree on every enumerated proposition.

    Up to ID_PATH_MAX propositions this compares the operators' id maps,
    which a law check on the same operators has usually built already.
    """
    lattice, n_points = a.lattice, a.n_points
    space = proposition_count(lattice, n_points)
    budget = resolve_budget(budget)
    if space > budget:
        raise BudgetExceeded(
            f"{space} propositions exceed the budget of {budget}", space, budget)
    if space <= ID_PATH_MAX:
        return np.array_equal(a.id_map(), b.id_map())
    for lo in range(0, space, chunk):
        block = proposition_block(lattice, n_points, lo, min(lo + chunk, space))
        if not np.array_equal(a.apply_batch(block), b.apply_batch(block)):
            return False
    return True


# -- proposition text format ----------------------------------------------

def parse_props(text: str, lattice: Oml, frame: TimeFrame) -> dict[str, Prop]:
    """Parse 'prop <name> = <t>:<elem> ...' lines; every point exactly once."""
    props: dict[str, Prop] = {}
    for lineno, tokens in _tokenize(text):
        if tokens[0] != "prop" or len(tokens) < 3 or tokens[2] != "=":
            raise ParseError("expected 'prop <name> = <t>:<elem> ...'",
                             line=lineno, token=tokens[0])
        name = tokens[1]
        if name in props:
            raise ParseError(f"duplicate proposition {name!r}", line=lineno, token=name)
        values: dict[int, int] = {}
        for tok in tokens[3:]:
            t, sep, e = tok.partition(":")
            if not sep or not t or not e:
                raise ParseError("value tokens look like point:element", line=lineno, token=tok)
            if t not in frame.index:
                raise ParseError(f"unknown time point {t!r}", line=lineno, token=tok)
            if e not in lattice.index:
                raise ParseError(f"unknown lattice element {e!r}", line=lineno, token=tok)
            ti = frame.index[t]
            if ti in values:
                raise ParseError(f"point {t!r} assigned twice", line=lineno, token=tok)
            values[ti] = lattice.index[e]
        if len(values) != frame.n:
            missing = [p for p in frame.points if frame.index[p] not in values]
            raise ParseError(f"proposition {name!r} misses points: {', '.join(missing)}",
                             line=lineno)
        props[name] = tuple(values[i] for i in range(frame.n))
    if not props:
        raise ParseError("no propositions found")
    return props


def format_prop(name: str, q: Prop, lattice: Oml, frame: TimeFrame) -> str:
    body = " ".join(f"{frame.points[i]}:{lattice.names[x]}" for i, x in enumerate(q))
    return f"prop {name} = {body}\n"
