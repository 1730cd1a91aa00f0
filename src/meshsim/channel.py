"""2.4 GHz channel spectrum model: separation classes, interference factors, PCL.

The 11-channel ISM band is linear in frequency, so everything here is driven
by the absolute index distance between two channels.  Channels 5 apart or
more (1/6/11) do not interfere at all; everything closer overlaps to a
degree that shrinks with separation.
"""

from __future__ import annotations

import enum

CHANNEL_MIN = 1
CHANNEL_MAX = 11
ALL_CHANNELS = tuple(range(CHANNEL_MIN, CHANNEL_MAX + 1))

# Channel pairs separated by this much or more are mutually orthogonal.
ORTHOGONAL_SEPARATION = 5


def validate_channel(ch):
    if not isinstance(ch, int) or isinstance(ch, bool) or not CHANNEL_MIN <= ch <= CHANNEL_MAX:
        raise ValueError(f"channel must be an integer in [{CHANNEL_MIN}, {CHANNEL_MAX}], got {ch!r}")
    return ch


class SeparationClass(enum.Enum):
    SELF_SAME = "SelfSame"                  # separation 0
    ADJACENT_SEVERE = "AdjacentSevere"      # separation 1-3
    PARTIAL_ACCEPTABLE = "PartialAcceptable"  # separation exactly 4
    ORTHOGONAL = "Orthogonal"               # separation >= 5


def separation(c1: int, c2: int) -> int:
    """Index distance between two channels.  Symmetric, no wraparound."""
    validate_channel(c1)
    validate_channel(c2)
    return abs(c1 - c2)


def classify(c1: int, c2: int) -> SeparationClass:
    sep = separation(c1, c2)
    if sep == 0:
        return SeparationClass.SELF_SAME
    if sep <= 3:
        return SeparationClass.ADJACENT_SEVERE
    if sep == 4:
        return SeparationClass.PARTIAL_ACCEPTABLE
    return SeparationClass.ORTHOGONAL


# Fractional interference factor by channel separation, for every separation
# the band has.  Linear roll-off: 1, 0.8, 0.6, 0.4, 0.2, then 0 -- the
# simplest table that is 1.0 co-channel, nonincreasing and 0.0 for orthogonal
# pairs, consistent with the separation classes.
INTERFERENCE_BY_SEPARATION = tuple(
    max(0.0, 1.0 - sep / ORTHOGONAL_SEPARATION)
    for sep in range(CHANNEL_MAX - CHANNEL_MIN + 1))


def interference_factor(c1: int, c2: int) -> float:
    return INTERFERENCE_BY_SEPARATION[separation(c1, c2)]


class Preference(enum.Enum):
    HIGH = 2
    MEDIUM = 1
    LOW = 0


class PclTable:
    """Per-node preferable channel list.

    Every channel holds exactly one preference level.  At most one channel is
    HIGH within a beacon interval (the one this node itself selected); a
    channel observed in use by a neighbor drops to LOW; an interval rollover
    demotes HIGH back to MEDIUM.
    """

    def __init__(self):
        self.entries = {ch: Preference.MEDIUM for ch in ALL_CHANNELS}

    def mark_self_selected(self, ch: int):
        validate_channel(ch)
        for other, pref in self.entries.items():
            if pref is Preference.HIGH:
                self.entries[other] = Preference.MEDIUM
        self.entries[ch] = Preference.HIGH

    def mark_neighbor_took(self, ch: int):
        validate_channel(ch)
        self.entries[ch] = Preference.LOW

    def rollover(self):
        for ch, pref in self.entries.items():
            if pref is Preference.HIGH:
                self.entries[ch] = Preference.MEDIUM

    def select(self) -> int:
        """Best-ranked channel, lowest id on ties."""
        best = max(self.entries.items(), key=lambda kv: (kv[1].value, -kv[0]))
        return best[0]
