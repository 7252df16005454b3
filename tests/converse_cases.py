"""Quadruples for checking the id path of induction, classify and extension
against the row path, which applies the operators to proposition arrays.

Each case is a lattice, its point names, an operator quadruple and the
frame the quadruple came from (None for quadruples no frame induced).
"""

import numpy as np

from omtense import laws
from omtense.fixtures import builtin_frame, builtin_lattice, example2_quadruple
from omtense.tense import OperatorQuadruple, Tabulated, proposition_block

FRAME_CASES = [f"{lat}-{frame}" for lat in ("chain2", "mo2", "o6", "oml10")
               for frame in ("le2", "le3", "nonserial2")]
CASES = FRAME_CASES + ["example2", "tabulated"]


def _tabulated(lattice, frame):
    """P and F tabulated from the frame, H and G random tables."""
    rows = [tuple(int(x) for x in r)
            for r in proposition_block(lattice, frame.n, 0, lattice.n ** frame.n)]
    quad = OperatorQuadruple.from_frame(lattice, frame)
    rng = np.random.default_rng(3)
    random = lambda: {q: tuple(int(x) for x in rng.integers(0, lattice.n, frame.n))
                      for q in rows}
    return OperatorQuadruple(
        Tabulated(lattice, frame.n, {q: quad.P(q) for q in rows}, label="P"),
        Tabulated(lattice, frame.n, {q: quad.F(q) for q in rows}, label="F"),
        Tabulated(lattice, frame.n, random(), label="H"),
        Tabulated(lattice, frame.n, random(), label="G"))


def build(case):
    """(lattice, point names, quadruple, frame or None) of a case id."""
    if case == "example2":
        lattice = builtin_lattice("oml10")
        points = ("1", "2", "3", "4", "5")
        return lattice, points, example2_quadruple(lattice, points), None
    if case == "tabulated":
        lattice, frame = builtin_lattice("mo2"), builtin_frame("le3")
        return lattice, frame.points, _tabulated(lattice, frame), None
    lattice_name, frame_name = case.split("-", 1)
    lattice, frame = builtin_lattice(lattice_name), builtin_frame(frame_name)
    return lattice, frame.points, OperatorQuadruple.from_frame(lattice, frame), frame


def sampled_budget(lattice, points):
    """A budget below the proposition count, so the quantifiers sample."""
    return max(1, lattice.n ** len(points) // 3)


def force_row_path(monkeypatch):
    """Send every quantifier below the id-path cap down the row path
    (laws.RowAlgebra): the law scans and the operator comparisons, which are
    law scans too."""
    monkeypatch.setattr(laws, "ID_PATH_MAX", 0)
