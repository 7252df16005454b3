"""Finite bounded lattices with optional orthocomplementation.

A lattice is described by its Hasse diagram (cover pairs) plus an optional
complement pairing. build_lattice closes the covers into a partial order,
locates the bounds, tabulates joins and meets by exhaustive least-upper-bound
search, and validates the complement axioms. The result is an Oml: dense
numpy tables (leq, join, meet, comp) over element indices, immutable after
construction and cheap to ship to worker processes.

Element indices follow declaration order. All public functions speak indices;
use Oml.name_of / Oml.index_of at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CycleInCovers,
    InvalidSpec,
    NoOrtho,
    NotALattice,
    NotBounded,
    OrthoViolation,
    ParseError,
)
from .report import FAIL, PASS, LawResult, ReplayContext, VerifyReport, Witness

INDEX_DTYPE = np.int16

# Characters with structural meaning in the text formats.
_RESERVED = set("#:<>")


def _check_name(name: str, what: str) -> None:
    if not name or any(ch.isspace() or ch in _RESERVED for ch in name):
        raise InvalidSpec(f"{what} name {name!r} is empty or contains whitespace or one of '#:<>'")


@dataclass(frozen=True)
class LatticeSpec:
    """Declarative description: elements, cover pairs lo<hi, ortho pairs x:x'."""

    name: str
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    ortho: tuple[tuple[str, str], ...] = ()

    def validate(self) -> None:
        _check_name(self.name, "lattice")
        if not self.elements:
            raise InvalidSpec("lattice has no elements")
        seen = set()
        for e in self.elements:
            _check_name(e, "element")
            if e in seen:
                raise InvalidSpec(f"duplicate element {e!r}")
            seen.add(e)
        for lo, hi in self.covers:
            for e in (lo, hi):
                if e not in seen:
                    raise InvalidSpec(f"cover pair {lo}<{hi} mentions unknown element {e!r}")
            if lo == hi:
                raise CycleInCovers(f"element {lo!r} covers itself")
        paired: dict[str, str] = {}
        for x, y in self.ortho:
            for e in (x, y):
                if e not in seen:
                    raise InvalidSpec(f"ortho pair {x}:{y} mentions unknown element {e!r}")
            for a, b in ((x, y), (y, x)):
                if a in paired and paired[a] != b:
                    raise InvalidSpec(f"conflicting orthocomplements for {a!r}: {paired[a]!r} and {b!r}")
                paired[a] = b


class Oml:
    """A finite bounded lattice, possibly orthocomplemented.

    Fields: n, names, leq (n x n bool), join_table / meet_table (n x n index
    tables), comp (index permutation or None, read through ortho), bottom,
    top.
    """

    def __init__(self, name: str, names: tuple[str, ...], leq: np.ndarray,
                 join_table: np.ndarray, meet_table: np.ndarray,
                 comp: np.ndarray | None, bottom: int, top: int):
        self.name = name
        self.names = names
        self.n = len(names)
        self.leq = leq
        self.join_table = join_table
        self.meet_table = meet_table
        self.comp = comp
        self.bottom = bottom
        self.top = top
        self.index = {e: i for i, e in enumerate(names)}
        for arr in (leq, join_table, meet_table, comp):
            if arr is not None:
                arr.setflags(write=False)

    # -- scalar helpers -------------------------------------------------

    def le(self, x: int, y: int) -> bool:
        return bool(self.leq[x, y])

    @property
    def ortho(self) -> np.ndarray:
        """The orthocomplement as an element -> element table; NoOrtho on a
        lattice without one."""
        if self.comp is None:
            raise NoOrtho(f"lattice {self.name!r} has no orthocomplementation")
        return self.comp

    @property
    def has_ortho(self) -> bool:
        return self.comp is not None

    @cached_property
    def is_orthomodular(self) -> bool:
        return self.has_ortho and orthomodular_witness(self) is None

    def name_of(self, x: int) -> str:
        return self.names[x]

    def index_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise InvalidSpec(f"lattice {self.name!r} has no element {name!r}") from None

    def __repr__(self) -> str:
        kind = "orthocomplemented " if self.has_ortho else ""
        return f"<Oml {self.name!r}: {kind}lattice of {self.n} elements>"


def _transitive_closure(adj: np.ndarray) -> np.ndarray:
    leq = adj.copy()
    np.fill_diagonal(leq, True)
    for k in range(leq.shape[0]):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return leq


def build_lattice(spec: LatticeSpec) -> Oml:
    """Close the covers, locate bounds, tabulate joins/meets, validate ortho.

    Raises CycleInCovers, NotBounded, NotALattice, OrthoViolation as soon as
    the corresponding defect is found.
    """
    spec.validate()
    names = spec.elements
    n = len(names)
    index = {e: i for i, e in enumerate(names)}

    adj = np.zeros((n, n), dtype=bool)
    for lo, hi in spec.covers:
        adj[index[lo], index[hi]] = True
    leq = _transitive_closure(adj)

    cyc = leq & leq.T
    np.fill_diagonal(cyc, False)
    if cyc.any():
        i, j = map(int, np.argwhere(cyc)[0])
        raise CycleInCovers(f"covers force {names[i]!r} <= {names[j]!r} <= {names[i]!r}")

    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotBounded(
            f"lattice {spec.name!r} needs exactly one minimum and one maximum "
            f"(found {len(bottoms)} and {len(tops)})")
    bottom, top = int(bottoms[0]), int(tops[0])

    join_table = np.empty((n, n), dtype=INDEX_DTYPE)
    meet_table = np.empty((n, n), dtype=INDEX_DTYPE)
    for i in range(n):
        for j in range(i, n):
            ub = np.flatnonzero(leq[i] & leq[j])
            least = [int(u) for u in ub if leq[u, ub].all()]
            if len(least) != 1:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no least upper bound",
                    pair=(names[i], names[j]))
            join_table[i, j] = join_table[j, i] = least[0]
            lb = np.flatnonzero(leq[:, i] & leq[:, j])
            greatest = [int(u) for u in lb if leq[lb, u].all()]
            if len(greatest) != 1:
                raise NotALattice(
                    f"elements {names[i]!r} and {names[j]!r} have no greatest lower bound",
                    pair=(names[i], names[j]))
            meet_table[i, j] = meet_table[j, i] = greatest[0]

    comp = None
    if spec.ortho:
        pairing: dict[int, int] = {}
        for x, y in spec.ortho:
            pairing[index[x]] = index[y]
            pairing[index[y]] = index[x]
        missing = [names[i] for i in range(n) if i not in pairing]
        if missing:
            raise InvalidSpec(f"ortho pairing misses elements: {', '.join(missing)}")
        comp = np.array([pairing[i] for i in range(n)], dtype=INDEX_DTYPE)
        # antitone: x <= y must force y' <= x'
        if not (leq <= leq[np.ix_(comp, comp)].T).all():
            bad = np.argwhere(leq & ~leq[np.ix_(comp, comp)].T)[0]
            i, j = map(int, bad)
            raise OrthoViolation(
                f"complement is not antitone: {names[i]!r} <= {names[j]!r} "
                f"but not {names[int(comp[j])]!r} <= {names[int(comp[i])]!r}")
        for i in range(n):
            if int(join_table[i, comp[i]]) != top or int(meet_table[i, comp[i]]) != bottom:
                raise OrthoViolation(
                    f"{names[i]!r} and {names[int(comp[i])]!r} are not complements "
                    f"(join {names[int(join_table[i, comp[i]])]!r}, "
                    f"meet {names[int(meet_table[i, comp[i]])]!r})")

    return Oml(spec.name, names, leq, join_table, meet_table, comp, bottom, top)


# -- set operations -----------------------------------------------------

def join_set(lattice: Oml, xs) -> int:
    """Least upper bound of a finite family; the empty join is the bottom."""
    acc = lattice.bottom
    for x in xs:
        acc = int(lattice.join_table[acc, x])
    return acc


def meet_set(lattice: Oml, xs) -> int:
    """Greatest lower bound of a finite family; the empty meet is the top."""
    acc = lattice.top
    for x in xs:
        acc = int(lattice.meet_table[acc, x])
    return acc


def join_irreducibles(lattice: Oml) -> np.ndarray:
    """The join-irreducible elements in index order: each x that is not the
    join of the elements strictly below it (so not the bottom, the empty
    join). Every element is the join of the irreducibles below it (Birkhoff),
    so x <= y exactly when each irreducible below x lies below y."""
    below = lattice.leq & ~np.eye(lattice.n, dtype=bool)
    return np.array([x for x in range(lattice.n)
                     if join_set(lattice, np.flatnonzero(below[:, x])) != x], dtype=INDEX_DTYPE)


# -- orthomodularity ----------------------------------------------------

def orthomodular_witness(lattice: Oml) -> tuple[int, int] | None:
    """First (x, y) in index order with x <= y but y != x v (y ^ x')."""
    leq, join, meet, comp = lattice.leq, lattice.join_table, lattice.meet_table, lattice.ortho
    for x in range(lattice.n):
        for y in range(lattice.n):
            if leq[x, y] and int(join[x, meet[y, comp[x]]]) != y:
                return (x, y)
    return None


def orthomodular_witness_dual(lattice: Oml) -> tuple[int, int] | None:
    """First (x, y) in index order with x <= y but x != y ^ (x v y')."""
    leq, join, meet, comp = lattice.leq, lattice.join_table, lattice.meet_table, lattice.ortho
    for x in range(lattice.n):
        for y in range(lattice.n):
            if leq[x, y] and int(meet[y, join[x, comp[y]]]) != x:
                return (x, y)
    return None


def de_morgan_witness(lattice: Oml) -> tuple[int, int, str] | None:
    """First (x, y) where (x v y)' != x' ^ y' or (x ^ y)' != x' v y'."""
    join, meet, comp = lattice.join_table, lattice.meet_table, lattice.ortho
    for x in range(lattice.n):
        for y in range(lattice.n):
            if int(comp[join[x, y]]) != int(meet[comp[x], comp[y]]):
                return (x, y, "join")
            if int(comp[meet[x, y]]) != int(join[comp[x], comp[y]]):
                return (x, y, "meet")
    return None


def orthomodular_join_result(lattice: Oml, pair: tuple[int, int] | None,
                             samples: int | None = None) -> LawResult:
    """The orthomodular-join-form result for orthomodular_witness's pair, or
    a pass when it found none."""
    if pair is None:
        return LawResult("orthomodular-join-form", PASS, samples=samples)
    x, y = pair
    witness = Witness(
        kind="elements", law="orthomodular-join-form",
        elements=(("x", x), ("y", y)),
        lhs=int(lattice.join_table[x, lattice.meet_table[y, lattice.ortho[x]]]),
        rhs=y,
        note="x <= y but x v (y ^ x') != y")
    return LawResult("orthomodular-join-form", FAIL, witness=witness, samples=samples)


def check_orthomodular(lattice: Oml) -> VerifyReport:
    """Report on the orthomodular law; the witness pair is minimal in index order."""
    law = orthomodular_join_result(lattice, orthomodular_witness(lattice))
    return VerifyReport(
        suite="oml-law", instance=f"lattice={lattice.name}", verdict=law.verdict,
        laws=[law], context=ReplayContext(lattice=lattice))


# -- text format ---------------------------------------------------------

def _tokenize(text: str):
    """Yield (line_number, [tokens]) with comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_lattice(text: str) -> LatticeSpec:
    """Parse the lattice text format.

    lattice <name>
    elements <name> ...
    covers <lo><<hi> ...
    ortho <x>:<x'> ...

    Directives after the first may repeat and accumulate; '#' starts a comment.
    """
    name = None
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    ortho: list[tuple[str, str]] = []
    for lineno, tokens in _tokenize(text):
        head, rest = tokens[0], tokens[1:]
        if name is None:
            if head != "lattice" or len(rest) != 1:
                raise ParseError("expected 'lattice <name>' as the first directive",
                                 line=lineno, token=head)
            name = rest[0]
        elif head == "elements":
            elements.extend(rest)
        elif head == "covers":
            for tok in rest:
                lo, sep, hi = tok.partition("<")
                if not sep or not lo or not hi:
                    raise ParseError("cover tokens look like lo<hi", line=lineno, token=tok)
                covers.append((lo, hi))
        elif head == "ortho":
            for tok in rest:
                x, sep, y = tok.partition(":")
                if not sep or not x or not y:
                    raise ParseError("ortho tokens look like x:x'", line=lineno, token=tok)
                ortho.append((x, y))
        else:
            raise ParseError("unknown directive", line=lineno, token=head)
    if name is None:
        raise ParseError("empty lattice description")
    spec = LatticeSpec(name, tuple(elements), tuple(covers), tuple(ortho))
    spec.validate()
    return spec
