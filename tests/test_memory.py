"""Memory of the draws and id maps, and their values against one-shot draws.

Every array that grows with the proposition count or the sample size is
filled ID_CHUNK rows at a time, so building it needs little beyond the
array itself. numpy reports its buffers to tracemalloc, so each peak below
is exact and repeats from run to run. An array that would not fit in
physical memory is refused before anything is allocated.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from omtense import cli, fixtures, laws, tense
from omtense.errors import TooBigForMemory
from omtense.fixtures import FRAME_TEXTS, LATTICE_TEXTS
from omtense.lattice import build_lattice, parse_lattice
from omtense.tense import (
    FrameInduced,
    decode_props,
    encode_props,
    enumeration_order,
    sampled_block,
)

MB = 1 << 20
SMALL = 1 << 16

# a chain of seven elements declared top first, so that the enumeration
# order (bottom first) differs from the declaration order
CHAIN7 = """\
lattice chain7
elements 6 5 4 3 2 1 0
covers 0<1 1<2 2<3 3<4 4<5 5<6
"""


def traced(fn):
    """(fn(), bytes it left held, peak bytes while it ran), both counted
    from the memory traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - start, peak - start


def chain_frame(n_points):
    points = range(1, n_points + 1)
    rel = " ".join(f"{a}>{b}" for a in points for b in points if a <= b)
    return f"frame le{n_points}\npoints {' '.join(map(str, points))}\nrel {rel}\n"


# -- transient peaks ------------------------------------------------------

def test_pair_draw_needs_little_beyond_its_columns():
    # the draw is held as its offsets, strata of 10^4 pairs in uint16; a scan
    # derives each batch's pairs from them
    laws._offsets.__wrapped__(10 ** 6, 5000, 1)  # the stream's first draw allocates once
    laws._offsets.cache_clear()
    try:
        offsets, held, peak = traced(lambda: laws._offsets(10 ** 10, 10 ** 6, 1729))
    finally:
        laws._offsets.cache_clear()
    assert offsets.dtype == np.uint16 and offsets.nbytes == 2 * 10 ** 6
    assert offsets.nbytes <= held <= offsets.nbytes + 0.1 * MB
    assert peak <= offsets.nbytes + MB


def test_unary_id_draw_is_encoded_per_slice(cube2):
    # cube2 x 10 points: 4^10 propositions, within ID_PATH_MAX, sampled 10^6
    # times as ids; the draw holds uint8 offsets (strata of one or two
    # propositions) and derives each slice's ids from them, with no draw of
    # element rows behind them
    count, cap, step = 4 ** 10, 10 ** 6, tense.ID_CHUNK
    laws._offsets.__wrapped__(10 ** 6, 5000, 1)  # the stream's first draw allocates once
    laws._offsets.cache_clear()
    try:
        draw, held, peak = traced(
            lambda: laws._draws(laws.IdAlgebra(cube2, 10), 1, count, cap, 1729))
        offsets = laws._offsets(count, cap, 1729)
        slices = [traced(lambda: draw(lo, min(lo + step, cap))) for lo in range(0, cap, step)]
    finally:
        laws._offsets.cache_clear()
    assert offsets.dtype == np.uint8 and offsets.nbytes <= held <= offsets.nbytes + 0.1 * MB
    assert peak <= offsets.nbytes + MB
    for (ids,), _, slice_peak in slices:
        assert ids.dtype == tense.ID_DTYPE and slice_peak <= MB
    ids = np.concatenate([ids for (ids,), _, _ in slices])
    assert np.array_equal(ids, oracles.stratified_ids(count, cap, 1729))


def test_uniform_draw_needs_little_beyond_its_rows():
    lattice = fixtures.builtin_lattice("oml10")
    rows, held, peak = traced(lambda: sampled_block(lattice, 5, 10 ** 6, 1729))
    assert rows.dtype == np.int16 and rows.nbytes == 10 ** 7
    assert held >= rows.nbytes
    assert peak <= rows.nbytes + 2 * MB


def test_frame_id_map_peak():
    # a fresh lattice: all_props (1 MB) is built inside the traced call too
    lattice = fixtures.builtin_lattice("oml10")
    op = FrameInduced(lattice, fixtures.builtin_frame("le5"), "P")
    id_map, _, peak = traced(op.id_map)
    assert id_map.dtype == tense.ID_DTYPE and len(id_map) == 10 ** 5
    assert peak <= 4 * MB


# -- the same values as one-shot draws ------------------------------------

@pytest.mark.parametrize("count, cap, seed", [
    (10 ** 5, 10 ** 6, 1729),   # r == 0
    (10 ** 5, 10 ** 6, 7),
    (1000, 999983, 3),          # r > 0; no cap here is a multiple of ID_CHUNK
    (6 ** 8, 10 ** 6, 1729),
    (10 ** 8, 54321, 5),        # strata wider than 2^32: the 64-bit bounded draw
    (1001, 10 ** 6, 11),
    (37, 100, 2),
    (2 ** 31 + 5, 50000, 3),    # ids past ID_DTYPE: int64 columns
])
def test_stratified_pairs_equal_one_shot_draw(count, cap, seed):
    # the pairs derived from the offsets, whole and per batch as a scan
    # derives them, are the one-shot draw's
    offsets = laws._offsets.__wrapped__(count * count, cap, seed)
    assert offsets.dtype == np.min_scalar_type(count * count // cap)
    want = oracles.stratified_pairs(count, cap, seed)
    for step in (cap, tense.ID_CHUNK, 1000):
        parts = [laws._bound_at(laws._ids_at(count * count, offsets, lo, min(lo + step, cap)),
                                count, 2) for lo in range(0, cap, step)]
        for k, reference in enumerate(want):
            side = np.concatenate([part[k] for part in parts])
            assert side.dtype == (tense.ID_DTYPE if count <= 2 ** 31 else np.int64)
            assert np.array_equal(side, reference)


@pytest.mark.parametrize("lattice_text, n_points, count", [
    (LATTICE_TEXTS["oml10"], 5, 10 ** 6),
    (LATTICE_TEXTS["mo2"], 8, 999999),
    (LATTICE_TEXTS["chain2"], 64, 300),
    (CHAIN7, 3, 12345),
], ids=["oml10-5", "mo2-8", "chain2-64", "chain7-3"])
@pytest.mark.parametrize("chunk", [tense.ID_CHUNK, 1000])
def test_uniform_draw_equals_one_shot_draw(monkeypatch, lattice_text, n_points, count, chunk):
    monkeypatch.setattr(tense, "ID_CHUNK", chunk)  # 1000: uneven last slice everywhere
    lattice = build_lattice(parse_lattice(lattice_text))
    digits = oracles.uniform_digits(lattice.n, n_points, count, 31)
    got = sampled_block(lattice, n_points, count, 31)
    assert got.dtype == np.int16
    assert np.array_equal(got, enumeration_order(lattice)[digits])


@pytest.mark.parametrize("n_points", [5, 10], ids=["int32", "int64"])
def test_decode_props_on_both_id_dtypes(oml10, n_points):
    # 10^5 ids fit ID_DTYPE, 10^10 need int64; the last ids use every digit
    space = oml10.n ** n_points
    order = enumeration_order(oml10)
    ids = [0, 1, 12345, space // 2 + 7, space - 2, space - 1]
    rows = decode_props(oml10, n_points, np.array(ids))
    want = [[int(order[d]) for d in oracles.decode_id(i, oml10.n, n_points)] for i in ids]
    assert rows.tolist() == want
    assert encode_props(oml10, rows).tolist() == ids


# -- too big for memory ---------------------------------------------------

@pytest.fixture
def small_memory(monkeypatch):
    """Physical memory reads as 64 KB."""
    monkeypatch.setattr(tense, "physical_memory", lambda: SMALL)


@pytest.mark.parametrize("build", [
    lambda lattice: sampled_block(lattice, 5, 10 ** 6, 1),
    lambda lattice: laws._offsets.__wrapped__(10 ** 10, 10 ** 6, 1),
    lambda lattice: tense.all_props(lattice, 5),
    lambda lattice: FrameInduced(lattice, fixtures.builtin_frame("le5"), "P").id_map(),
], ids=["uniform-draw", "pair-draw", "all-props", "id-map"])
def test_too_big_for_memory_before_allocating(small_memory, build):
    lattice = fixtures.builtin_lattice("oml10")

    def attempt():
        with pytest.raises(TooBigForMemory, match=r"would hold \d+ bytes") as caught:
            build(lattice)
        return caught.value

    error, _, peak = traced(attempt)
    assert error.nbytes > SMALL
    assert peak < SMALL
    assert lattice not in tense._ALL_PROPS


def test_fitting_arrays_pass_the_memory_check(monkeypatch):
    monkeypatch.setattr(tense, "physical_memory", lambda: 10 ** 7)
    assert sampled_block(fixtures.builtin_lattice("oml10"), 5, 10 ** 6, 1).nbytes == 10 ** 7
    monkeypatch.setattr(tense, "physical_memory", lambda: None)  # the system does not say
    assert len(sampled_block(fixtures.builtin_lattice("oml10"), 5, 10, 1)) == 10


def test_cli_says_too_big_for_memory_up_front(capsys, monkeypatch, tmp_path):
    # oml10 x an 11-point chain has 10^11 propositions and 10^22 pairs, past
    # the 2^63 indices of a stratified draw. A budget of 10^10, above the
    # default, is the pair laws' cap too, and pairs are drawn first: 10^10
    # uniform rows of 11 int16 elements per variable, 220 GB
    monkeypatch.setattr(tense, "physical_memory", lambda: 8 << 30)
    lattice = tmp_path / "oml10.lattice"
    lattice.write_text(LATTICE_TEXTS["oml10"], encoding="utf-8")
    frame = tmp_path / "le11.frame"
    frame.write_text(chain_frame(11), encoding="utf-8")
    code = cli.main(["verify", "--lattice", str(lattice), "--frame", str(frame),
                     "--suite", "all", "--budget", "10000000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "error: a draw of 10000000000 propositions would hold 220000000000 "
        f"bytes, more than the {8 << 30} bytes of physical memory"]


def test_cli_exits_2_when_an_id_map_would_not_fit(capsys, small_memory, tmp_path):
    lattice = tmp_path / "oml10.lattice"
    lattice.write_text(LATTICE_TEXTS["oml10"], encoding="utf-8")
    frame = tmp_path / "le5.frame"
    frame.write_text(FRAME_TEXTS["le5"], encoding="utf-8")
    code = cli.main(["verify", "--lattice", str(lattice), "--frame", str(frame),
                     "--suite", "thm7"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and " bytes" in err[0]
