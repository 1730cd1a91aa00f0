"""2.4 GHz channel spectrum model: separation classes, interference factors, PCL.

The 11-channel ISM band is linear in frequency, so everything here is driven
by the absolute index distance between two channels.  Channels 5 apart or
more (1/6/11) do not interfere at all; everything closer overlaps to a
degree that shrinks with separation.
"""

from __future__ import annotations

import enum
from typing import Sequence

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


class InterferenceProfile:
    """Maps channel separation to a fractional interference factor in [0, 1].

    A profile is a table indexed by separation.  Any profile must be 1.0 at
    separation 0, nonincreasing, and exactly 0.0 from separation 5 onward;
    the constructor rejects tables that break those rules.
    """

    def __init__(self, by_separation: Sequence[float]):
        table = [float(x) for x in by_separation]
        if len(table) < ORTHOGONAL_SEPARATION + 1:
            raise ValueError("profile table must cover separations 0..5")
        if table[0] != 1.0:
            raise ValueError("co-channel factor must be 1.0")
        for a, b in zip(table, table[1:]):
            if b > a:
                raise ValueError("interference factor must be nonincreasing in separation")
        if any(x != 0.0 for x in table[ORTHOGONAL_SEPARATION:]):
            raise ValueError("factor must be 0 at separation >= 5")
        if any(not 0.0 <= x <= 1.0 for x in table):
            raise ValueError("factors must lie in [0, 1]")
        self._table = table

    def factor_for_separation(self, sep: int) -> float:
        if sep >= len(self._table):
            return 0.0
        return self._table[sep]

    def factor(self, c1: int, c2: int) -> float:
        return self.factor_for_separation(separation(c1, c2))


# Linear roll-off: 1, 0.8, 0.6, 0.4, 0.2, 0 -- the simplest profile consistent
# with the separation classes.
DEFAULT_PROFILE = InterferenceProfile(
    [max(0.0, 1.0 - sep / ORTHOGONAL_SEPARATION) for sep in range(ORTHOGONAL_SEPARATION + 1)]
)


def interference_factor(c1: int, c2: int, profile: InterferenceProfile = DEFAULT_PROFILE) -> float:
    return profile.factor(c1, c2)


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
