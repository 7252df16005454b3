"""The element-level laws of prop1, lemma1 and oml-law, failing and passing.

Each law is one function of element indices, evaluated on the grid of every
tuple for a check and on one tuple for its witness and replay. Here the grid
and the scalar evaluations are compared on every tuple, and each law is made
to fail on a lattice with one corrupted table entry, where its verdict,
witness and replay must be those of the plain-loop oracle.
"""

import random

import numpy as np
import pytest

import oracles
from omtense import fixtures
from omtense.lattice import (
    Oml,
    build_lattice,
    check_orthomodular,
    de_morgan_witness,
    orthomodular_witness,
    orthomodular_witness_dual,
    parse_lattice,
)
from omtense.report import ReplayContext, VerifyReport
from omtense.verify import _ELEMENT_LAWS, _SUITES, Instance, replay_witness

SUITE_OF = {"a * 1 = a": "prop1", "1 * a = a": "prop1", "a * b <= c iff a <= b -> c": "prop1",
            "a -> 0 = a'": "prop1", "(a -> b) * a = a ^ b": "lemma1",
            "a <= b -> (a * b)": "lemma1", "orthomodular-join-form": "oml-law",
            "orthomodular-meet-form": "oml-law", "de-morgan": "oml-law"}
ORTHO_FIXTURES = ("oml10", "chain2", "cube2", "cube3", "mo2", "o6")


def reversed_declaration(name):
    """The fixture with its elements declared in reverse, bottom last."""
    lines = fixtures.LATTICE_TEXTS[name].splitlines()
    lines = [" ".join(["elements"] + line.split()[:0:-1]) if line.startswith("elements") else line
             for line in lines]
    return build_lattice(parse_lattice("\n".join(lines) + "\n"))


def oracle_laws(lattice):
    join, meet = lattice.join_table.tolist(), lattice.meet_table.tolist()
    return oracles.element_laws(lattice.leq.tolist(), lambda x, y: join[x][y],
                                lambda x, y: meet[x][y], lattice.ortho.tolist(),
                                lattice.bottom, lattice.top)


def corrupted(lattice, rng):
    """lattice with one join, meet or complement entry set at random."""
    tables = [lattice.join_table.copy(), lattice.meet_table.copy(), lattice.comp.copy()]
    table = rng.choice(tables)
    table[tuple(rng.randrange(lattice.n) for _ in table.shape)] = rng.randrange(lattice.n)
    return Oml(f"{lattice.name}-corrupted", lattice.names, lattice.leq, *tables,
               lattice.bottom, lattice.top)


def replay_text(suite, law_id, lattice, oracle_failure, varnames):
    elements, lhs, rhs, note, terms = oracle_failure
    name = lattice.name_of
    return "\n".join(
        [f"witness replay for suite {suite}, law {law_id!r}", f"  claim: {note}"]
        + [f"  {var} = {name(value)}" for var, value in zip(varnames, elements)]
        + [f"  {text} = {name(value)}" for text, value in terms]
        + [f"  got {name(lhs)}, expected {name(rhs)}"])


def test_every_element_law_has_an_oracle_and_a_suite():
    assert set(_ELEMENT_LAWS) == set(SUITE_OF) == set(oracle_laws(fixtures.builtin_lattice("o6")))


@pytest.mark.parametrize("lattice", [fixtures.builtin_lattice(name) for name in ORTHO_FIXTURES]
                         + [reversed_declaration("oml10"), reversed_declaration("o6")],
                         ids=lambda lattice: f"{lattice.name}-{lattice.bottom}")
def test_grid_and_scalar_evaluations_agree_on_every_tuple(lattice):
    for law in _ELEMENT_LAWS.values():
        shape = (lattice.n,) * len(law.varnames)
        terms, *values = law.evaluate(lattice, *np.indices(shape, sparse=True))
        grid = [np.broadcast_to(value, shape) for _, value in terms]
        grid += [np.broadcast_to(value, shape) for value in values]
        for elements in np.ndindex(*shape):
            terms_at, *values_at = law.evaluate(lattice, *elements)
            assert [text for text, _ in terms_at] == [text for text, _ in terms]
            scalars = [value for _, value in terms_at] + values_at
            assert [column[elements] for column in grid] == scalars, (law.id, elements)


@pytest.mark.parametrize("lattice", [fixtures.builtin_lattice(name) for name in ORTHO_FIXTURES]
                         + [reversed_declaration("oml10")],
                         ids=lambda lattice: f"{lattice.name}-{lattice.bottom}")
def test_element_laws_agree_with_the_oracle(lattice):
    oracle = oracle_laws(lattice)
    for law_id, law in _ELEMENT_LAWS.items():
        failure = oracles.first_element_failure(oracle[law_id], lattice.n)
        assert law.first_failure(lattice) == (None if failure is None else failure[0])


@pytest.mark.parametrize("law_id", sorted(SUITE_OF))
def test_each_element_law_fails_as_the_oracle_says(law_id):
    # one corrupted table entry at a time, drawn in a fixed order, until the
    # law fails; the suite runs past its gates, as on a real lattice it
    # would be skipped or pass
    rng = random.Random(law_id)
    for _ in range(2000):
        lattice = corrupted(fixtures.builtin_lattice(rng.choice(ORTHO_FIXTURES)), rng)
        if _ELEMENT_LAWS[law_id].first_failure(lattice) is not None:
            break
    else:
        pytest.fail(f"no corrupted lattice breaks {law_id!r}")
    suite = SUITE_OF[law_id]
    report = _SUITES[suite][1](Instance(lattice=lattice))
    oracle = oracle_laws(lattice)
    for result in report.laws:
        if result.law not in oracle:
            continue  # oml-law's orthomodular-forms-agree reads the other two
        varnames, _ = oracle[result.law]
        failure = oracles.first_element_failure(oracle[result.law], lattice.n)
        assert result.samples == lattice.n ** len(varnames)
        if failure is None:
            assert result.verdict == "pass" and result.witness is None
            continue
        elements, lhs, rhs, note, _ = failure
        assert result.verdict == "fail"
        assert result.witness.to_json() == {
            "kind": "elements", "law": result.law,
            "elements": dict(zip(varnames, elements)), "lhs": lhs, "rhs": rhs, "note": note}
        alone = VerifyReport(suite=suite, instance="", laws=[result],
                             context=ReplayContext(lattice=lattice))
        assert replay_witness(alone) == replay_text(suite, result.law, lattice, failure, varnames)
    assert report.verdict == "fail"
    assert report.witness is not None and report.witness.law == report.first_failure().law
    if suite == "oml-law":
        join, meet, de_morgan = (oracles.first_element_failure(oracle[law], lattice.n)
                                 for law in ("orthomodular-join-form", "orthomodular-meet-form",
                                             "de-morgan"))
        assert orthomodular_witness(lattice) == (join and join[0])
        assert orthomodular_witness_dual(lattice) == (meet and meet[0])
        which = de_morgan and ("join" if de_morgan[3].startswith("(x v y)") else "meet")
        assert de_morgan_witness(lattice) == (de_morgan and (*de_morgan[0], which))
        assert check_orthomodular(lattice).verdict == ("pass" if join is None else "fail")
