import os
import sys

import pytest

from omtense import fixtures


@pytest.fixture
def forks(monkeypatch):
    """The module of each os.fork caller, in call order."""
    callers = []
    real = os.fork

    def fork():
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return callers


@pytest.fixture(scope="session")
def oml10():
    return fixtures.builtin_lattice("oml10")


@pytest.fixture(scope="session")
def chain2():
    return fixtures.builtin_lattice("chain2")


@pytest.fixture(scope="session")
def cube2():
    return fixtures.builtin_lattice("cube2")


@pytest.fixture(scope="session")
def cube3():
    return fixtures.builtin_lattice("cube3")


@pytest.fixture(scope="session")
def mo2():
    return fixtures.builtin_lattice("mo2")


@pytest.fixture(scope="session")
def o6():
    return fixtures.builtin_lattice("o6")


@pytest.fixture(scope="session")
def le5():
    return fixtures.builtin_frame("le5")


@pytest.fixture(scope="session")
def le3():
    return fixtures.builtin_frame("le3")


@pytest.fixture(scope="session")
def le2():
    return fixtures.builtin_frame("le2")


@pytest.fixture(scope="session")
def blocks5():
    return fixtures.builtin_frame("blocks5")


@pytest.fixture(scope="session")
def nonserial2():
    return fixtures.builtin_frame("nonserial2")


@pytest.fixture(scope="session")
def pq(oml10, le5):
    return fixtures.example_props(oml10, le5)


@pytest.fixture(scope="session")
def ex2_quad(oml10, le5):
    return fixtures.example2_quadruple(oml10, le5.points)


def names_of(lattice, prop):
    return tuple(lattice.name_of(int(x)) for x in prop)


@pytest.fixture(scope="session")
def names():
    return names_of
