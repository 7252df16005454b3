"""Sasaki conjunction and implication on an orthocomplemented lattice.

    x (*) y = (x v y') ^ y          x -> y = (y ^ x) v x'

The conjunction is the Sasaki projection onto y applied to x, and the
implication is its adjoint residuum; on a Boolean algebra both collapse to
the classical connectives. Propositions combine pointwise. Lifting the
element connectives pointwise to propositions is a deliberate reading, made
once here and used consistently by the law suites.
"""

from __future__ import annotations

import numpy as np

from .lattice import Oml


def sasaki_and(lattice: Oml, x: int, y: int) -> int:
    """(x v y') ^ y"""
    return int(sasaki_and_batch(lattice, x, y))


def sasaki_imp(lattice: Oml, x: int, y: int) -> int:
    """(y ^ x) v x'"""
    return int(sasaki_imp_batch(lattice, x, y))


def sasaki_and_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.meet_table[lattice.join_table[a, lattice.ortho[b]], b]


def sasaki_imp_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lattice.join_table[lattice.meet_table[b, a], lattice.ortho[a]]


def connective_tables(lattice: Oml) -> tuple[np.ndarray, np.ndarray]:
    """Full n x n tables for (*) and -> over element indices."""
    idx = np.arange(lattice.n, dtype=lattice.join_table.dtype)
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    return (sasaki_and_batch(lattice, rows, cols),
            sasaki_imp_batch(lattice, rows, cols))
