import numpy as np
import pytest

import oracles
from omtense import (
    NoOrtho,
    build_lattice,
    parse_lattice,
    sasaki_and,
    sasaki_imp,
)
from omtense.sasaki import connective_tables, sasaki_and_batch, sasaki_imp_batch


def test_known_values(oml10):
    e = oml10.index_of
    assert sasaki_and(oml10, e("d"), e("a")) == e("a")
    assert sasaki_and(oml10, e("c'"), e("a")) == e("a")
    assert sasaki_imp(oml10, e("d"), e("a")) == e("d'")
    assert sasaki_imp(oml10, e("c'"), e("d")) == e("c")


def test_matches_literal_definition(oml10, mo2, cube3):
    for lat in (oml10, mo2, cube3):
        comp = lat.ortho.tolist()
        join2 = lambda x, y: int(lat.join_table[x, y])
        meet2 = lambda x, y: int(lat.meet_table[x, y])
        for x in range(lat.n):
            for y in range(lat.n):
                assert sasaki_and(lat, x, y) == oracles.sasaki_and(join2, meet2, comp, x, y)
                assert sasaki_imp(lat, x, y) == oracles.sasaki_imp(join2, meet2, comp, x, y)


def test_unit_and_bound_laws(oml10):
    top, bot = oml10.top, oml10.bottom
    for a in range(oml10.n):
        ac = oml10.ortho[a]
        assert sasaki_and(oml10, a, top) == a
        assert sasaki_and(oml10, top, a) == a
        assert sasaki_and(oml10, a, bot) == bot
        assert sasaki_and(oml10, bot, a) == bot
        assert sasaki_imp(oml10, a, bot) == ac
        assert sasaki_imp(oml10, top, a) == a
        assert sasaki_imp(oml10, a, top) == top
        assert sasaki_imp(oml10, bot, a) == top


def test_adjointness_exhaustive(oml10):
    # a (*) b <= c iff a <= b -> c, all 1000 triples
    for a in range(oml10.n):
        for b in range(oml10.n):
            ab = sasaki_and(oml10, a, b)
            for c in range(oml10.n):
                assert bool(oml10.leq[ab, c]) == \
                    bool(oml10.leq[a, sasaki_imp(oml10, b, c)])


def test_projection_identities_exhaustive(oml10):
    # (a -> b) (*) a = a ^ b and a <= b -> (a (*) b)
    for a in range(oml10.n):
        for b in range(oml10.n):
            lhs = sasaki_and(oml10, sasaki_imp(oml10, a, b), a)
            assert lhs == oml10.meet_table[a, b]
            rhs = sasaki_imp(oml10, b, sasaki_and(oml10, a, b))
            assert oml10.leq[a, rhs]


def test_boolean_degeneration(cube3):
    # on a Boolean algebra (*) is ^ and -> is x' v y
    for x in range(cube3.n):
        for y in range(cube3.n):
            assert sasaki_and(cube3, x, y) == cube3.meet_table[x, y]
            assert sasaki_imp(cube3, x, y) == cube3.join_table[cube3.ortho[x], y]


def test_sasaki_is_noncommutative_on_oml10(oml10):
    pairs = [(x, y) for x in range(oml10.n) for y in range(oml10.n)
             if sasaki_and(oml10, x, y) != sasaki_and(oml10, y, x)]
    assert pairs  # quantum conjunction keeps an order bias


def test_tables_match_pointwise_functions(oml10):
    sat, imp = connective_tables(oml10)
    for x in range(oml10.n):
        for y in range(oml10.n):
            assert int(sat[x, y]) == sasaki_and(oml10, x, y)
            assert int(imp[x, y]) == sasaki_imp(oml10, x, y)


def test_batch_agrees_with_scalar(oml10):
    rng = np.random.default_rng(5)
    a = rng.integers(0, oml10.n, size=64)
    b = rng.integers(0, oml10.n, size=64)
    got_and = sasaki_and_batch(oml10, a, b)
    got_imp = sasaki_imp_batch(oml10, a, b)
    for i in range(64):
        assert int(got_and[i]) == sasaki_and(oml10, int(a[i]), int(b[i]))
        assert int(got_imp[i]) == sasaki_imp(oml10, int(a[i]), int(b[i]))


def test_requires_orthocomplementation():
    chain3 = build_lattice(parse_lattice(
        "lattice chain3\nelements 0 m 1\ncovers 0<m m<1\n"))
    with pytest.raises(NoOrtho):
        sasaki_and(chain3, 0, 1)
    with pytest.raises(NoOrtho):
        sasaki_imp(chain3, 0, 1)
    with pytest.raises(NoOrtho):
        connective_tables(chain3)
