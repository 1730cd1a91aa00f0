"""Spectrum model: separation classes, interference factors, preference lists."""

import random

import pytest

from meshsim.channel import (
    INTERFERENCE_BY_SEPARATION,
    PclTable,
    Preference,
    SeparationClass,
    classify,
    interference_factor,
    separation,
    validate_channel,
)

ALL_CHANNELS = range(1, 12)


def test_validate_channel_bounds():
    for ch in ALL_CHANNELS:
        validate_channel(ch)
    for bad in (0, 12, -1, 100):
        with pytest.raises(ValueError):
            validate_channel(bad)


def test_separation_is_absolute_difference():
    # no wraparound: 1 and 11 are ten steps apart, not one
    assert separation(1, 11) == 10
    assert separation(11, 1) == 10
    for c1 in ALL_CHANNELS:
        for c2 in ALL_CHANNELS:
            assert separation(c1, c2) == abs(c1 - c2)
            assert separation(c1, c2) == separation(c2, c1)


# Class boundaries spelled out pairwise rather than re-deriving from the
# same arithmetic the implementation uses.
CLASS_ANCHORS = [
    (6, 6, SeparationClass.SELF_SAME),
    (1, 1, SeparationClass.SELF_SAME),
    (11, 11, SeparationClass.SELF_SAME),
    (1, 2, SeparationClass.ADJACENT_SEVERE),
    (5, 3, SeparationClass.ADJACENT_SEVERE),
    (8, 11, SeparationClass.ADJACENT_SEVERE),
    (1, 5, SeparationClass.PARTIAL_ACCEPTABLE),
    (7, 3, SeparationClass.PARTIAL_ACCEPTABLE),
    (11, 7, SeparationClass.PARTIAL_ACCEPTABLE),
    (1, 6, SeparationClass.ORTHOGONAL),
    (6, 1, SeparationClass.ORTHOGONAL),
    (6, 11, SeparationClass.ORTHOGONAL),
    (1, 11, SeparationClass.ORTHOGONAL),
    (2, 9, SeparationClass.ORTHOGONAL),
]


@pytest.mark.parametrize("c1,c2,expected", CLASS_ANCHORS)
def test_classify_anchor_pairs(c1, c2, expected):
    assert classify(c1, c2) is expected


def test_classify_depends_only_on_separation():
    by_sep = {}
    for c1 in ALL_CHANNELS:
        for c2 in ALL_CHANNELS:
            sep = abs(c1 - c2)
            cls = classify(c1, c2)
            assert by_sep.setdefault(sep, cls) is cls


def test_classify_partition_counts():
    # 121 ordered pairs: 11 self, 2*(10+9+8)=54 severe, 2*7=14 partial, rest orthogonal
    counts = {}
    for c1 in ALL_CHANNELS:
        for c2 in ALL_CHANNELS:
            cls = classify(c1, c2)
            counts[cls] = counts.get(cls, 0) + 1
    assert counts[SeparationClass.SELF_SAME] == 11
    assert counts[SeparationClass.ADJACENT_SEVERE] == 54
    assert counts[SeparationClass.PARTIAL_ACCEPTABLE] == 14
    assert counts[SeparationClass.ORTHOGONAL] == 42
    assert sum(counts.values()) == 121


def test_default_factor_values():
    assert interference_factor(6, 6) == pytest.approx(1.0)
    assert interference_factor(1, 2) == pytest.approx(0.8)
    assert interference_factor(1, 3) == pytest.approx(0.6)
    assert interference_factor(1, 4) == pytest.approx(0.4)
    assert interference_factor(1, 5) == pytest.approx(0.2)
    assert interference_factor(1, 6) == 0.0
    assert interference_factor(1, 11) == 0.0
    assert interference_factor(3, 11) == 0.0


def test_default_factor_symmetric_and_monotone():
    for c1 in ALL_CHANNELS:
        for c2 in ALL_CHANNELS:
            assert interference_factor(c1, c2) == interference_factor(c2, c1)
    factors = [interference_factor(1, 1 + sep) for sep in range(11)]
    for lo, hi in zip(factors[1:], factors):
        assert lo <= hi
    assert all(f == 0.0 for f in factors[5:])


def test_orthogonal_pairs_have_zero_factor():
    for c1 in ALL_CHANNELS:
        for c2 in ALL_CHANNELS:
            if classify(c1, c2) is SeparationClass.ORTHOGONAL:
                assert interference_factor(c1, c2) == 0.0
            else:
                assert interference_factor(c1, c2) > 0.0


def test_profile_validation():
    table = INTERFERENCE_BY_SEPARATION
    assert len(table) == 11                         # separations 0..10
    assert table[0] == 1.0                          # co-channel
    assert all(b <= a for a, b in zip(table, table[1:]))   # nonincreasing
    assert all(f == 0.0 for f in table[5:])         # zero from separation 5
    assert all(0.0 <= f <= 1.0 for f in table)


def _highs(pcl):
    return [ch for ch, pref in pcl.entries.items() if pref is Preference.HIGH]


def test_pcl_high_is_exclusive():
    pcl = PclTable()
    pcl.mark_self_selected(3)
    pcl.mark_self_selected(9)
    highs = _highs(pcl)
    assert highs == [9]


def test_pcl_neighbor_takeover_demotes():
    pcl = PclTable()
    pcl.mark_self_selected(4)
    pcl.mark_neighbor_took(4)
    assert _highs(pcl) == []
    # a Low channel is only picked when nothing better remains
    for ch in ALL_CHANNELS:
        if ch != 4:
            pcl.mark_neighbor_took(ch)
    assert pcl.select() in ALL_CHANNELS


def test_pcl_rollover_keeps_at_most_one_high():
    pcl = PclTable()
    pcl.mark_self_selected(2)
    pcl.rollover()
    assert _highs(pcl) == []
    pcl.mark_self_selected(7)
    assert _highs(pcl) == [7]


def test_pcl_select_prefers_high_then_lowest_index():
    pcl = PclTable()
    assert pcl.select() == 1  # all Medium at start, ties break to lowest
    pcl.mark_self_selected(8)
    assert pcl.select() == 8
    pcl.mark_neighbor_took(8)
    assert pcl.select() == 1


def test_pcl_invariant_under_random_sequences():
    rng = random.Random(20260815)
    for _ in range(200):
        pcl = PclTable()
        for _step in range(40):
            op = rng.randrange(3)
            ch = rng.randint(1, 11)
            if op == 0:
                pcl.mark_self_selected(ch)
            elif op == 1:
                pcl.mark_neighbor_took(ch)
            else:
                pcl.rollover()
            highs = _highs(pcl)
            assert len(highs) <= 1
            assert pcl.select() in ALL_CHANNELS
