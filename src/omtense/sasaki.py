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

from .errors import NoOrtho
from .lattice import Oml
from .tense import Prop


def sasaki_and(lattice: Oml, x: int, y: int) -> int:
    """(x v y') ^ y"""
    comp = lattice.comp
    if comp is None:
        raise NoOrtho(f"lattice {lattice.name!r} has no orthocomplementation")
    return int(lattice.meet_table[lattice.join_table[x, comp[y]], y])


def sasaki_imp(lattice: Oml, x: int, y: int) -> int:
    """(y ^ x) v x'"""
    comp = lattice.comp
    if comp is None:
        raise NoOrtho(f"lattice {lattice.name!r} has no orthocomplementation")
    return int(lattice.join_table[lattice.meet_table[y, x], comp[x]])


def prop_sasaki_and(lattice: Oml, a: Prop, b: Prop) -> Prop:
    return tuple(sasaki_and(lattice, x, y) for x, y in zip(a, b, strict=True))


def prop_sasaki_imp(lattice: Oml, a: Prop, b: Prop) -> Prop:
    return tuple(sasaki_imp(lattice, x, y) for x, y in zip(a, b, strict=True))


def sasaki_and_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if lattice.comp is None:
        raise NoOrtho(f"lattice {lattice.name!r} has no orthocomplementation")
    return lattice.meet_table[lattice.join_table[a, lattice.comp[b]], b]


def sasaki_imp_batch(lattice: Oml, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if lattice.comp is None:
        raise NoOrtho(f"lattice {lattice.name!r} has no orthocomplementation")
    return lattice.join_table[lattice.meet_table[b, a], lattice.comp[a]]


def connective_tables(lattice: Oml) -> tuple[np.ndarray, np.ndarray]:
    """Full n x n tables for (*) and -> over element indices."""
    idx = np.arange(lattice.n, dtype=lattice.join_table.dtype)
    rows, cols = np.meshgrid(idx, idx, indexing="ij")
    return (sasaki_and_batch(lattice, rows, cols),
            sasaki_imp_batch(lattice, rows, cols))
