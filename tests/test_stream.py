"""omtense.stream against numpy's own generator, which it reproduces bit for
bit, and the promise that no sampled run imports numpy's random subpackage."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omtense
from omtense.errors import InvalidSpec
from omtense.stream import Stream

SEEDS = [0, 1, 7, 1729, 2 ** 32 + 5, (1 << 96) + 0x5EED]


def stratified(width: int, r: int, n: int) -> np.ndarray:
    """The highs of a pair draw: width + 1 for the first r strata, width after."""
    return width + (np.arange(n, dtype=np.int64) < r)


CALLS = [
    (stratified(1, 3, 8), None),             # high 2 then 1: 1 consumes nothing
    (stratified(10 ** 4, 5, 13), None),
    (10, (7, 5)),
    (stratified(2 ** 32, 4, 9), None),       # raw next_uint32, then 64-bit Lemire
    (3 * 10 ** 9, (3,)),                     # a 32-bit bound that rejects often
    (stratified(10 ** 12, 2, 7), None),
    (5, 3),
    (2 ** 32 + 1, 5),
]


def assert_same_stream(seed, calls):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for high, size in calls:
        got, want = ours.integers(high, size), theirs.integers(0, high, size)
        assert got.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want), (seed, high, size)


@pytest.mark.parametrize("seed", SEEDS)
def test_fixed_calls_match_numpy(seed):
    assert_same_stream(seed, CALLS)


def test_large_draws_match_numpy():
    # more outputs than one vectorised window, and a bound whose
    # rejections must be made up across windows
    assert_same_stream(1729, [(stratified(10 ** 4, 1000, 100_000), None),
                              (3 * 10 ** 9, (20_000, 2)), (10 ** 12, 30_000)])


_call = st.one_of(
    st.tuples(st.sampled_from([1, 2, 10, 3 * 10 ** 9, 2 ** 32, 2 ** 32 + 1, 10 ** 12]),
              st.tuples(st.integers(1, 7), st.integers(1, 5))),
    st.builds(lambda width, r, n: (stratified(width, min(r, n), n), None),
              st.sampled_from([1, 2, 10 ** 4, 2 ** 32 - 1, 2 ** 32, 10 ** 12]),
              st.integers(0, 40), st.integers(1, 40)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 100), calls=st.lists(_call, min_size=1, max_size=6))
def test_random_calls_match_numpy(seed, calls):
    assert_same_stream(seed, calls)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64), high=st.sampled_from([7, 2 ** 32, 10 ** 12]),
       cuts=st.lists(st.integers(0, 50), max_size=5))
def test_continued_stream_equals_one_call(seed, high, cuts):
    sizes = [b - a for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 60])]
    one = Stream(seed).integers(high, 60)
    stream = Stream(seed)
    assert np.array_equal(np.concatenate([stream.integers(high, n) for n in sizes]), one)
    highs = stratified(high, 17, 60)
    stream = Stream(seed)
    parts = [stream.integers(highs[a:a + n]) for a, n in zip(np.cumsum([0, *sizes]), sizes)]
    assert np.array_equal(np.concatenate(parts), Stream(seed).integers(highs))


def test_negative_seed_is_invalid():
    with pytest.raises(InvalidSpec, match="non-negative"):
        Stream(-1)


_SAMPLED_RUN = """
import sys
from omtense import OperatorQuadruple, fixtures, tense
from omtense.laws import App, Law, PVar, check_laws
from omtense.report import SAMPLED

lattice, frame = fixtures.builtin_lattice("oml10"), fixtures.builtin_frame("le3")
ops = OperatorQuadruple.from_frame(lattice, frame).as_dict()
p, q = PVar("p"), PVar("q")
cases = [(Law("mono", "leq", App("P", p), App("P", q), ("p", "q"), guard=(p, q)), ops),
         (Law("grow", "leq", q, App("P", q), ("q",)), ops)]
outcomes = check_laws(cases, lattice, frame.n, budget=100)
assert [o.mode for o in outcomes] == [SAMPLED, SAMPLED], outcomes
assert tense.sampled_block(lattice, frame.n, 1000, 7).shape == (1000, frame.n)
print("numpy.random" in sys.modules)
"""


def test_sampled_runs_do_not_import_numpy_random():
    src = str(Path(omtense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SAMPLED_RUN],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
