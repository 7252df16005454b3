"""Built-in lattices, frames and propositions used by the demos and tests.

The text constants are the single source of truth; no copies of them live
in files. They use the formats `omt` reads, so writing one out gives a
valid input file. oml10 is the ten-element orthomodular lattice obtained
by gluing a Boolean cube on atoms a, b, c and a four-element block on d at
shared bounds; o6 is the standard benzene-ring ortholattice, the smallest
one that is not orthomodular.
"""

from __future__ import annotations

from .errors import UnknownTimePoint
from .frames import TimeFrame, parse_frame
from .lattice import Oml, build_lattice, parse_lattice
from .tense import IdentityElseConstant, OperatorQuadruple, Prop, parse_props

OML10 = """\
lattice oml10
elements 0 a b c d c' b' a' d' 1
covers 0<a 0<b 0<c 0<d 0<d' a<b' a<c' b<a' b<c' c<a' c<b' a'<1 b'<1 c'<1 d<1 d'<1
ortho 0:1 a:a' b:b' c:c' d:d'
"""

CHAIN2 = """\
lattice chain2
elements 0 1
covers 0<1
ortho 0:1
"""

CUBE2 = """\
lattice cube2
elements 0 a a' 1
covers 0<a 0<a' a<1 a'<1
ortho 0:1 a:a'
"""

CUBE3 = """\
lattice cube3
elements 0 x y z x' y' z' 1
covers 0<x 0<y 0<z x<y' x<z' y<x' y<z' z<x' z<y' x'<1 y'<1 z'<1
ortho 0:1 x:x' y:y' z:z'
"""

MO2 = """\
lattice mo2
elements 0 a a' b b' 1
covers 0<a 0<a' 0<b 0<b' a<1 a'<1 b<1 b'<1
ortho 0:1 a:a' b:b'
"""

O6 = """\
lattice o6
elements 0 x y y' x' 1
covers 0<x x<y y<1 0<y' y'<x' x'<1
ortho 0:1 x:x' y:y'
"""

LE2 = """\
frame le2
points 1 2
rel 1>1 1>2 2>2
"""

LE3 = """\
frame le3
points 1 2 3
rel 1>1 1>2 1>3 2>2 2>3 3>3
"""

LE5 = """\
frame le5
points 1 2 3 4 5
rel 1>1 1>2 1>3 1>4 1>5 2>2 2>3 2>4 2>5 3>3 3>4 3>5 4>4 4>5 5>5
"""

BLOCKS5 = """\
frame blocks5
points 1 2 3 4 5
rel 1>1 2>2 3>3 3>4 3>5 4>3 4>4 4>5 5>3 5>4 5>5
"""

NONSERIAL2 = """\
frame nonserial2
points 1 2
rel 1>2
"""

EXAMPLE_PROPS = """\
prop p = 1:c' 2:b' 3:c' 4:a' 5:b'
prop q = 1:a 2:b' 3:d 4:a 5:a'
"""

LATTICE_TEXTS = {
    "oml10": OML10,
    "chain2": CHAIN2,
    "cube2": CUBE2,
    "cube3": CUBE3,
    "mo2": MO2,
    "o6": O6,
}

FRAME_TEXTS = {
    "le2": LE2,
    "le3": LE3,
    "le5": LE5,
    "blocks5": BLOCKS5,
    "nonserial2": NONSERIAL2,
}


def builtin_lattice(name: str) -> Oml:
    return build_lattice(parse_lattice(LATTICE_TEXTS[name]))


def builtin_frame(name: str) -> TimeFrame:
    return parse_frame(FRAME_TEXTS[name])


def example_props(lattice: Oml | None = None,
                  frame: TimeFrame | None = None) -> dict[str, Prop]:
    """The two worked propositions p and q over oml10 and the le5 frame."""
    lattice = lattice or builtin_lattice("oml10")
    frame = frame or builtin_frame("le5")
    return parse_props(EXAMPLE_PROPS, lattice, frame)


def example2_quadruple(lattice: Oml, points) -> OperatorQuadruple:
    """The rule-based quadruple: identity at one pinned point, constant elsewhere.

    P keeps q(2) and is top elsewhere, F keeps q(1) and is top elsewhere,
    H keeps q(1) and is bottom elsewhere, G keeps q(2) and is bottom elsewhere.
    """
    points = tuple(points)
    try:
        i1, i2 = points.index("1"), points.index("2")
    except ValueError:
        raise UnknownTimePoint(
            "the rule-based quadruple pins points named '1' and '2'") from None
    n = len(points)
    mk = lambda keep, default, label: IdentityElseConstant(
        lattice, n, frozenset([keep]), default, label=label)
    return OperatorQuadruple(
        P=mk(i2, lattice.top, "P"),
        F=mk(i1, lattice.top, "F"),
        H=mk(i1, lattice.bottom, "H"),
        G=mk(i2, lattice.bottom, "G"),
    )
