"""Time frames: a finite point set with a binary accessibility relation.

Nothing is assumed about the relation; seriality, reflexivity and
transitivity are computed once and cached because suite gating consults them
repeatedly. Frames are immutable after construction.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EmptyRestriction, InvalidSpec, ParseError, UnknownTimePoint
from .lattice import _check_name, _tokenize


class TimeFrame:
    """Points in declaration order plus a relation given as index pairs."""

    def __init__(self, name: str, points, rel, *, _allow_empty: bool = False):
        _check_name(name, "frame")
        self.name = name
        self.points = tuple(points)
        if not self.points:
            raise InvalidSpec("frame has no points")
        seen = set()
        for p in self.points:
            _check_name(p, "point")
            if p in seen:
                raise InvalidSpec(f"duplicate point {p!r}")
            seen.add(p)
        n = len(self.points)
        pairs = frozenset((int(s), int(t)) for s, t in rel)
        for s, t in pairs:
            if not (0 <= s < n and 0 <= t < n):
                raise InvalidSpec(f"relation pair ({s}, {t}) is out of range")
        if not pairs and not _allow_empty:
            raise EmptyRestriction(f"frame {name!r} has an empty relation")
        self.rel = pairs
        self.index = {p: i for i, p in enumerate(self.points)}
        matrix = np.zeros((n, n), dtype=bool)
        for s, t in pairs:
            matrix[s, t] = True
        matrix.setflags(write=False)
        self.matrix = matrix
        # preds[s] = points seeing s, succs[s] = points seen from s
        self.preds = tuple(tuple(int(t) for t in np.flatnonzero(matrix[:, s])) for s in range(n))
        self.succs = tuple(tuple(int(t) for t in np.flatnonzero(matrix[s, :])) for s in range(n))

    @classmethod
    def from_names(cls, name: str, points, name_pairs) -> "TimeFrame":
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        pairs = []
        for s, t in name_pairs:
            for p in (s, t):
                if p not in index:
                    raise UnknownTimePoint(f"frame {name!r} has no point {p!r}")
            pairs.append((index[s], index[t]))
        return cls(name, points, pairs)

    @property
    def n(self) -> int:
        return len(self.points)

    def index_of(self, point: str) -> int:
        try:
            return self.index[point]
        except KeyError:
            raise UnknownTimePoint(f"frame {self.name!r} has no point {point!r}") from None

    @cached_property
    def is_serial(self) -> bool:
        """Every point has at least one predecessor and one successor."""
        return all(self.preds[s] and self.succs[s] for s in range(self.n))

    @cached_property
    def is_reflexive(self) -> bool:
        return all((s, s) in self.rel for s in range(self.n))

    @cached_property
    def is_transitive(self) -> bool:
        m = self.matrix
        reach2 = (m.astype(np.int32) @ m.astype(np.int32)) > 0
        return not (reach2 & ~m).any()

    def pair_names(self) -> list[tuple[str, str]]:
        return [(self.points[s], self.points[t]) for s, t in sorted(self.rel)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, TimeFrame)
                and self.points == other.points and self.rel == other.rel)

    def __hash__(self):
        return hash((self.points, self.rel))

    def __repr__(self) -> str:
        return f"<TimeFrame {self.name!r}: {self.n} points, {len(self.rel)} pairs>"


def restrict(frame: TimeFrame, keep) -> TimeFrame:
    """Sub-frame on the given points, kept in the frame's original order.

    Raises UnknownTimePoint for names outside the frame and EmptyRestriction
    when no relation pair survives.
    """
    keep = set(keep)
    for p in keep:
        if p not in frame.index:
            raise UnknownTimePoint(f"frame {frame.name!r} has no point {p!r}")
    if not keep:
        raise EmptyRestriction("cannot restrict to an empty point set")
    old = [i for i, p in enumerate(frame.points) if p in keep]
    renum = {i: k for k, i in enumerate(old)}
    pairs = [(renum[s], renum[t]) for s, t in frame.rel if s in renum and t in renum]
    if not pairs:
        raise EmptyRestriction(
            f"restriction of {frame.name!r} to {sorted(keep)} has an empty relation")
    return TimeFrame(frame.name + "|restricted", [frame.points[i] for i in old], pairs)


def parse_frame(text: str) -> TimeFrame:
    """Parse the frame text format.

    frame <name>
    points <p> ...
    rel <s>><t> ...
    """
    name = None
    points: list[str] = []
    rel: list[tuple[str, str]] = []
    for lineno, tokens in _tokenize(text):
        head, rest = tokens[0], tokens[1:]
        if name is None:
            if head != "frame" or len(rest) != 1:
                raise ParseError("expected 'frame <name>' as the first directive",
                                 line=lineno, token=head)
            name = rest[0]
        elif head == "points":
            points.extend(rest)
        elif head == "rel":
            for tok in rest:
                s, sep, t = tok.partition(">")
                if not sep or not s or not t:
                    raise ParseError("relation tokens look like s>t", line=lineno, token=tok)
                rel.append((s, t))
        else:
            raise ParseError("unknown directive", line=lineno, token=head)
    if name is None:
        raise ParseError("empty frame description")
    try:
        return TimeFrame.from_names(name, points, rel)
    except UnknownTimePoint as exc:
        raise ParseError(str(exc)) from exc
