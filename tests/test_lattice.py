import numpy as np
import pytest

import oracles
from omtense import (
    CycleInCovers,
    InvalidSpec,
    NotALattice,
    NotBounded,
    OrthoViolation,
    build_lattice,
    check_orthomodular,
    de_morgan_witness,
    join_set,
    meet_set,
    orthomodular_witness,
    orthomodular_witness_dual,
    parse_lattice,
)
from omtense.fixtures import LATTICE_TEXTS

ALL_NAMES = sorted(LATTICE_TEXTS)


def lattice_text(spec):
    """spec written in the text format that parse_lattice reads."""
    lines = [f"lattice {spec.name}", "elements " + " ".join(spec.elements)]
    if spec.covers:
        lines.append("covers " + " ".join(f"{lo}<{hi}" for lo, hi in spec.covers))
    if spec.ortho:
        lines.append("ortho " + " ".join(f"{x}:{y}" for x, y in spec.ortho))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_tables_match_brute_force(name):
    spec = parse_lattice(LATTICE_TEXTS[name])
    lat = build_lattice(spec)
    cover_idx = [(lat.index[a], lat.index[b]) for a, b in spec.covers]
    leq = oracles.closure_from_covers(lat.n, cover_idx)
    for x in range(lat.n):
        for y in range(lat.n):
            assert bool(lat.leq[x, y]) == leq[x][y]
            assert lat.join_table[x, y] == oracles.least_upper_bound(leq, x, y)
            assert lat.meet_table[x, y] == oracles.greatest_lower_bound(leq, x, y)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_orthocomplement_is_declared_pairing(name):
    spec = parse_lattice(LATTICE_TEXTS[name])
    lat = build_lattice(spec)
    declared = {}
    for a, b in spec.ortho:
        declared[lat.index[a]] = lat.index[b]
        declared[lat.index[b]] = lat.index[a]
    for x in range(lat.n):
        assert lat.ortho[x] == declared[x]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_orthomodularity_agrees_with_brute_force(name):
    lat = build_lattice(parse_lattice(LATTICE_TEXTS[name]))
    witness = oracles.om_violation(
        [[bool(lat.leq[x, y]) for y in range(lat.n)] for x in range(lat.n)],
        lambda x, y: int(lat.join_table[x, y]), lambda x, y: int(lat.meet_table[x, y]),
        lat.ortho.tolist())
    assert lat.is_orthomodular == (witness is None)
    assert orthomodular_witness(lat) == witness


def test_o6_witness_pair(o6):
    # smallest ortholattice breaking the orthomodular law; the canonical
    # witness is the side pair x < y with x v (y ^ x') = x
    x, y = o6.index_of("x"), o6.index_of("y")
    assert orthomodular_witness(o6) == (x, y)
    assert orthomodular_witness_dual(o6) == (x, y)
    got = o6.join_table[x, o6.meet_table[y, o6.ortho[x]]]
    assert got == x != y


def test_o6_report_carries_witness(o6):
    report = check_orthomodular(o6)
    assert report.verdict == "fail"
    w = report.witness
    assert w is not None and w.kind == "elements"
    named = {name: o6.name_of(val) for name, val in w.elements}
    assert named == {"x": "x", "y": "y"}


def test_oml10_is_orthomodular(oml10):
    assert oml10.is_orthomodular
    assert orthomodular_witness(oml10) is None
    assert orthomodular_witness_dual(oml10) is None
    assert de_morgan_witness(oml10) is None
    assert check_orthomodular(oml10).verdict == "pass"


def test_lattice_without_ortho_is_allowed():
    lat = build_lattice(parse_lattice(
        "lattice chain3\nelements 0 m 1\ncovers 0<m m<1\n"))
    assert not lat.has_ortho
    assert lat.join_table[lat.index["m"], lat.index["1"]] == lat.index["1"]


def test_cycle_in_covers_rejected():
    with pytest.raises(CycleInCovers):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 a b 1\ncovers 0<a a<b b<a a<1 b<1\n"))


def test_unbounded_poset_rejected():
    # two maximal elements, no top
    with pytest.raises(NotBounded):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 a b\ncovers 0<a 0<b\n"))


def test_non_lattice_rejected():
    # {a, b} has two minimal upper bounds c and d
    with pytest.raises(NotALattice) as err:
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 a b c d 1\n"
            "covers 0<a 0<b a<c a<d b<c b<d c<1 d<1\n"))
    assert err.value.pair in {("a", "b"), ("b", "a")}


def test_ortho_must_be_antitone():
    # two 4-chains with a crossed pairing: x <= y but x' = u <= v = y'
    with pytest.raises(OrthoViolation):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 x y u v 1\n"
            "covers 0<x x<y y<1 0<u u<v v<1\n"
            "ortho 0:1 x:u y:v\n"))


def test_ortho_must_complement():
    # m paired with itself: m ^ m' = m, not bottom
    with pytest.raises(OrthoViolation):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 m 1\ncovers 0<m m<1\northo 0:1 m:m\n"))


def test_partial_ortho_rejected():
    with pytest.raises(InvalidSpec):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 a a' 1\ncovers 0<a 0<a' a<1 a'<1\n"
            "ortho 0:1\n"))


def test_duplicate_elements_rejected():
    with pytest.raises(InvalidSpec):
        parse_lattice("lattice bad\nelements 0 a a 1\ncovers 0<a a<1\n").validate()


def test_unknown_element_in_covers_rejected():
    with pytest.raises(InvalidSpec):
        build_lattice(parse_lattice(
            "lattice bad\nelements 0 1\ncovers 0<zz\n"))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_format_parse_roundtrip(name):
    spec = parse_lattice(LATTICE_TEXTS[name])
    again = parse_lattice(lattice_text(spec))
    assert again == spec


def test_boolean_envelope_2_to_6():
    # 64-element powerset lattice assembled from single-bit cover moves
    names, covers, ortho = oracles.boolean_cube_covers(6)
    text = ["lattice env6", "elements " + " ".join(names),
            "covers " + " ".join(f"{a}<{b}" for a, b in covers),
            "ortho " + " ".join(f"{a}:{b}" for a, b in ortho if a <= b)]
    lat = build_lattice(parse_lattice("\n".join(text) + "\n"))
    assert lat.n == 64
    assert lat.has_ortho and lat.is_orthomodular
    mask = {lat.index[nm]: i for i, nm in enumerate(names)}
    for x in range(lat.n):
        assert mask[lat.ortho[x]] == 63 ^ mask[x]
        for y in range(lat.n):
            assert bool(lat.leq[x, y]) == oracles.subset_leq(mask[x], mask[y])
            assert mask[lat.join_table[x, y]] == mask[x] | mask[y]
            assert mask[lat.meet_table[x, y]] == mask[x] & mask[y]


def test_join_meet_over_sets(oml10):
    a = oml10.index_of("a")
    b = oml10.index_of("b")
    c = oml10.index_of("c")
    assert join_set(oml10, []) == oml10.bottom
    assert meet_set(oml10, []) == oml10.top
    assert join_set(oml10, [a]) == a
    assert join_set(oml10, [a, b, c]) == oml10.join_table[a, oml10.join_table[b, c]]
    assert meet_set(oml10, [a, b, c]) == oml10.meet_table[a, oml10.meet_table[b, c]]
    assert join_set(oml10, range(oml10.n)) == oml10.top
    assert meet_set(oml10, range(oml10.n)) == oml10.bottom


def test_leq_antitone_under_complement(oml10):
    for x in range(oml10.n):
        for y in range(oml10.n):
            if oml10.leq[x, y]:
                assert oml10.leq[oml10.ortho[y], oml10.ortho[x]]


def test_de_morgan_on_fixtures(oml10, mo2, cube3):
    for lat in (oml10, mo2, cube3):
        for x in range(lat.n):
            xc = lat.ortho[x]
            assert lat.ortho[xc] == x
            for y in range(lat.n):
                yc = lat.ortho[y]
                assert lat.ortho[lat.join_table[x, y]] == lat.meet_table[xc, yc]
                assert lat.ortho[lat.meet_table[x, y]] == lat.join_table[xc, yc]
