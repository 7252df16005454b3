import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omtense import (
    EmptyRestriction,
    InvalidSpec,
    ParseError,
    TimeFrame,
    UnknownTimePoint,
    parse_frame,
    restrict,
)
from omtense.fixtures import FRAME_TEXTS


def frame_text(frame):
    """frame written in the text format that parse_frame reads."""
    lines = [f"frame {frame.name}", "points " + " ".join(frame.points)]
    if frame.rel:
        lines.append("rel " + " ".join(f"{s}>{t}" for s, t in frame.pair_names()))
    return "\n".join(lines) + "\n"


def brute_classify(n, rel):
    serial = all(any((s, t) in rel for s in range(n)) and
                 any((t, u) in rel for u in range(n)) for t in range(n))
    reflexive = all((t, t) in rel for t in range(n))
    transitive = all((s, u) in rel
                     for s, t in rel for t2, u in rel if t == t2)
    return serial, reflexive, transitive


EXPECTED = {
    "le2": (True, True, True),
    "le3": (True, True, True),
    "le5": (True, True, True),
    "blocks5": (True, True, True),
    "nonserial2": (False, False, True),
}


@pytest.mark.parametrize("name", sorted(FRAME_TEXTS))
def test_builtin_classification(name):
    frame = parse_frame(FRAME_TEXTS[name])
    got = (frame.is_serial, frame.is_reflexive, frame.is_transitive)
    assert got == EXPECTED[name]
    assert got == brute_classify(frame.n, frame.rel)


def test_le5_relation_is_leq():
    frame = parse_frame(FRAME_TEXTS["le5"])
    assert frame.points == ("1", "2", "3", "4", "5")
    assert frame.rel == {(s, t) for s in range(5) for t in range(5) if s <= t}


def test_blocks5_relation():
    frame = parse_frame(FRAME_TEXTS["blocks5"])
    assert frame.rel == {(0, 0), (1, 1)} | {(s, t) for s in (2, 3, 4) for t in (2, 3, 4)}


@pytest.mark.parametrize("name", sorted(FRAME_TEXTS))
def test_format_parse_roundtrip(name):
    frame = parse_frame(FRAME_TEXTS[name])
    assert parse_frame(frame_text(frame)) == frame


def test_restrict_keeps_order_and_pairs(le5):
    sub = restrict(le5, {"5", "3", "4"})
    assert sub.points == ("3", "4", "5")
    assert sub.rel == {(s, t) for s in range(3) for t in range(3) if s <= t}


def test_restrict_errors(le5):
    with pytest.raises(UnknownTimePoint):
        restrict(le5, {"1", "9"})
    with pytest.raises(EmptyRestriction):
        restrict(le5, set())
    chain = TimeFrame.from_names("chain", ["a", "b"], [("a", "b")])
    with pytest.raises(EmptyRestriction):
        restrict(chain, {"a"})  # only pair (a, b) does not survive


def test_empty_relation_rejected():
    with pytest.raises(EmptyRestriction):
        TimeFrame("empty", ["a", "b"], [])


def test_from_names_and_equality():
    f1 = TimeFrame.from_names("f", ["x", "y"], [("x", "y"), ("y", "y")])
    f2 = TimeFrame("g", ["x", "y"], [(0, 1), (1, 1)])
    assert f1 == f2  # names do not participate in equality
    assert hash(f1) == hash(f2)
    f3 = TimeFrame("h", ["y", "x"], [(0, 1), (1, 1)])
    assert f1 != f3


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_frame("frame f\npoints a b\nrel a>zz\n")
    with pytest.raises(InvalidSpec):
        parse_frame("frame f\npoints a a\nrel a>a\n")
    with pytest.raises(ParseError):
        parse_frame("points a b\nrel a>b\n")  # missing header


def test_index_of(le5):
    assert le5.index_of("3") == 2
    with pytest.raises(UnknownTimePoint):
        le5.index_of("6")


relations = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=1, max_size=n * n)))


@settings(max_examples=200, deadline=None)
@given(relations)
def test_classification_matches_brute_force(data):
    n, rel = data
    frame = TimeFrame("rand", [str(i) for i in range(n)], rel)
    assert (frame.is_serial, frame.is_reflexive, frame.is_transitive) == \
        brute_classify(n, rel)


@settings(max_examples=200, deadline=None)
@given(relations)
def test_reflexive_implies_serial(data):
    n, rel = data
    frame = TimeFrame("rand", [str(i) for i in range(n)], rel)
    if frame.is_reflexive:
        assert frame.is_serial


@settings(max_examples=100, deadline=None)
@given(relations)
def test_restrict_roundtrip_through_text(data):
    n, rel = data
    frame = TimeFrame("rand", [str(i) for i in range(n)], rel)
    assert parse_frame(frame_text(frame)) == frame
