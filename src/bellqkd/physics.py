"""Stochastic entangled-photon-pair channel.

Simulates a polarization-entangled pair source feeding two passive
measurement stations.  Alice's station splits incoming photons over three
analyzer settings (one reserved for key generation, two for a CHSH test),
Bob's over two, in the fixed station layout of ``ALICE_ANGLES``,
``BOB_ANGLES``, ``ALICE_DETECTORS`` and ``BOB_DETECTORS``: a detector id
names one setting and one outcome.  Pair emission is Poissonian; each
photon is routed, measured, optionally lost, timestamped with jitter,
and mixed with background events.  An optional intercept-resend
eavesdropper acts on Bob's arm.

All probabilities derive from the singlet-state correlation
E(ta, tb) = -V * cos 2(ta - tb), degraded by a two-visibility model, or
from the intercept-resend correlation
E(ta, tb) = -cos 2(ta - e) * cos 2(tb - e).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Optional

import numpy as np

from .timetag import MAX_TICK, TICK_SECONDS, seconds_to_ticks

SQRT2 = math.sqrt(2.0)


class AliceSetting(IntEnum):
    """Analyzer settings on Alice's side (passive 50/25/25 routing)."""

    KEY = 0     # 0 deg, paired with Bob's KEY setting for raw key bits
    BELL_1 = 1  # +22.5 deg
    BELL_2 = 2  # "+1" port at 157.5 deg (equivalently -22.5 deg)


class BobSetting(IntEnum):
    KEY = 0     # 0 deg
    DIAG = 1    # 45 deg


# The four CHSH correlation terms, in the order they enter
# S = E1 + E2 + E3 - E4.
CHSH_TERMS = (
    (AliceSetting.BELL_1, BobSetting.KEY),
    (AliceSetting.BELL_1, BobSetting.DIAG),
    (AliceSetting.BELL_2, BobSetting.KEY),
    (AliceSetting.BELL_2, BobSetting.DIAG),
)
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)

# The station layout, indexed by setting.  Angles are the orientation of
# each setting's "+1" output in degrees; detectors are each setting's
# (plus, minus) ids.  Alice's second Bell setting has its "+1" port at
# 157.5 deg, so an ideal singlet yields S = -2*sqrt(2) exactly under the
# sign convention above.  Every rule that reads an id is derived from
# these tuples, most through the tables ``bellqkd.sifting`` builds.
ALICE_ANGLES = (0.0, 22.5, 157.5)
BOB_ANGLES = (0.0, 45.0)
ALICE_DETECTORS = ((1, 2), (3, 4), (5, 6))
BOB_DETECTORS = ((1, 2), (3, 4))


class RangeError(ValueError):
    """A config field value is outside its allowed range."""

    def __init__(self, field: str, message: str = ""):
        super().__init__(message or f"{field} out of range")
        self.field = field


def require_finite(config) -> None:
    """Refuse a NaN or infinite float field of a config dataclass, by name."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class ChannelConfig:
    """Source, link and detection parameters.

    pair_rate            emitted pairs per second
    loss_db_bob          extra link loss on Bob's arm, dB
    detector_efficiency  per-photon detection probability (both sides)
    visibility_hv        correlation visibility when both stations measure
                         in the key (H/V) basis
    visibility_diag      visibility for any pair involving a rotated setting
    background_rate      uncorrelated events per second per detector
    jitter_sigma         per-photon Gaussian timing jitter, ns
    bob_delay            Bob's clock/path offset relative to Alice, ns
    duration             simulated acquisition time, s
    rng_seed             seed for the event sampler
    """

    pair_rate: float = 18000.0
    loss_db_bob: float = 3.0
    detector_efficiency: float = 1.0
    visibility_hv: float = 0.94
    visibility_diag: float = 0.8839
    background_rate: float = 20000.0
    jitter_sigma: float = 0.5
    bob_delay: float = 10000.0
    duration: float = 10.0
    rng_seed: int = 1

    def __post_init__(self):
        require_finite(self)
        if self.pair_rate < 0:
            raise ValueError("pair_rate must be >= 0")
        if self.loss_db_bob < 0:
            raise ValueError("loss_db_bob must be >= 0")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in [0, 1]")
        for name in ("visibility_hv", "visibility_diag"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.background_rate < 0:
            raise ValueError("background_rate must be >= 0")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")

    @property
    def bob_transmission(self) -> float:
        return 10.0 ** (-self.loss_db_bob / 10.0)


@dataclass(frozen=True)
class AttackConfig:
    """Intercept-resend eavesdropper on Bob's arm.

    A fraction ``intercept_fraction`` of pairs has Bob's photon measured by
    Eve at ``attack_basis`` degrees and resent in her outcome's
    polarization.
    """

    intercept_fraction: float = 0.0
    attack_basis: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError("intercept_fraction must be in [0, 1]")


@dataclass
class GroundTruth:
    """Per-pair bookkeeping for test oracles.  Never sent on the wire.

    Arrays are aligned over all emitted pairs.  ``alice_tick``/``bob_tick``
    are only meaningful where the respective ``*_detected`` flag is set.
    """

    alice_setting: np.ndarray
    bob_setting: np.ndarray
    alice_outcome: np.ndarray
    bob_outcome: np.ndarray
    alice_detected: np.ndarray
    bob_detected: np.ndarray
    alice_tick: np.ndarray
    bob_tick: np.ndarray
    attacked: np.ndarray

    @property
    def pair_count(self) -> int:
        return len(self.alice_setting)

    def surviving_pairs(self) -> np.ndarray:
        """Mask of pairs detected on both sides."""
        return self.alice_detected & self.bob_detected


@dataclass
class EventStreams:
    """Time-ordered detection records for both stations.

    Ticks are 125 ps units on a common absolute origin; detectors are the
    physical ids of ``ALICE_DETECTORS`` (1..6) and ``BOB_DETECTORS``
    (1..4): each id names one setting and one outcome.
    """

    alice_ticks: np.ndarray
    alice_detectors: np.ndarray
    bob_ticks: np.ndarray
    bob_detectors: np.ndarray
    config: ChannelConfig
    ground_truth: Optional[GroundTruth] = None


def _as_angle_rad2(deg):
    """2*angle in radians; the factor 2 is the polarization doubling."""
    return 2.0 * np.deg2rad(deg)


def singlet_correlation(theta_a: float, theta_b: float, visibility: float = 1.0) -> float:
    """E(ta, tb) for a visibility-degraded singlet."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return -visibility * math.cos(math.radians(2.0 * (theta_a - theta_b)))


def intercept_resend_correlation(theta_a: float, theta_b: float, eve_angle: float = 0.0) -> float:
    """E(ta, tb) after an intercept-resend measurement at ``eve_angle``."""
    return -math.cos(math.radians(2.0 * (theta_a - eve_angle))) * math.cos(
        math.radians(2.0 * (theta_b - eve_angle))
    )


def _table_from_correlation(e: float) -> np.ndarray:
    # P(i, j) = (1 + i*j*E)/4 with uniform marginals; rows are Alice +1/-1,
    # columns Bob +1/-1.
    p_same = (1.0 + e) / 4.0
    p_diff = (1.0 - e) / 4.0
    return np.array([[p_same, p_diff], [p_diff, p_same]])


def joint_probability(theta_a: float, theta_b: float, visibility: float = 1.0) -> np.ndarray:
    """2x2 outcome table P(i, j) for analyzer angles in degrees.

    Index 0 is the +1 outcome, index 1 the -1 outcome; rows are Alice.
    """
    return _table_from_correlation(singlet_correlation(theta_a, theta_b, visibility))


def intercept_resend_probability(
    theta_a: float, theta_b: float, eve_angle: float = 0.0
) -> np.ndarray:
    """2x2 outcome table under a full intercept-resend attack."""
    return _table_from_correlation(intercept_resend_correlation(theta_a, theta_b, eve_angle))


# Routing probabilities of the passive splitter trees.
ALICE_ROUTING = {AliceSetting.KEY: 0.5, AliceSetting.BELL_1: 0.25, AliceSetting.BELL_2: 0.25}
BOB_ROUTING = {BobSetting.KEY: 0.5, BobSetting.DIAG: 0.5}


def route_detection(side: str, rng: np.random.Generator, size: Optional[int] = None):
    """Sample the analyzer setting a photon is routed to.

    ``side`` is ``"alice"`` or ``"bob"``.  Returns a scalar setting when
    ``size`` is None, else an int8 array.
    """
    if side == "alice":
        u = rng.random(size)
        out = np.where(u < 0.5, AliceSetting.KEY, np.where(u < 0.75, AliceSetting.BELL_1, AliceSetting.BELL_2))
        return AliceSetting(int(out)) if size is None else out.astype(np.int8)
    if side == "bob":
        u = rng.random(size)
        out = np.where(u < 0.5, BobSetting.KEY, BobSetting.DIAG)
        return BobSetting(int(out)) if size is None else out.astype(np.int8)
    raise ValueError("side must be 'alice' or 'bob'")


def _correlation_table(channel: ChannelConfig, attack: AttackConfig) -> np.ndarray:
    """E by (attacked, Alice setting, Bob setting), for outcome sampling."""
    a_ang = np.asarray(ALICE_ANGLES)[:, None]
    b_ang = np.asarray(BOB_ANGLES)[None, :]
    base = -np.cos(_as_angle_rad2(a_ang - b_ang))
    hv = ((np.arange(len(ALICE_ANGLES)) == AliceSetting.KEY)[:, None]
          & (np.arange(len(BOB_ANGLES)) == BobSetting.KEY)[None, :])
    vis = np.where(hv, channel.visibility_hv, channel.visibility_diag)
    e_ir = -np.cos(_as_angle_rad2(a_ang - attack.attack_basis)) * np.cos(
        _as_angle_rad2(b_ang - attack.attack_basis)
    )
    return np.stack([vis * base, e_ir])


def _pair_correlation(
    a_set: np.ndarray,
    b_set: np.ndarray,
    attacked: np.ndarray,
    channel: ChannelConfig,
    attack: AttackConfig,
) -> np.ndarray:
    """Per-pair correlation coefficient E for outcome sampling."""
    return _correlation_table(channel, attack)[attacked.view(np.uint8), a_set, b_set]


def analytic_chsh(channel: ChannelConfig, attack: AttackConfig = AttackConfig()) -> float:
    """Exact S for the configured model (no sampling noise)."""
    p = attack.intercept_fraction
    s = 0.0
    for (sa, sb), sign in zip(CHSH_TERMS, CHSH_SIGNS):
        ta = ALICE_ANGLES[sa]
        tb = BOB_ANGLES[sb]
        e = (1.0 - p) * singlet_correlation(ta, tb, channel.visibility_diag)
        e += p * intercept_resend_correlation(ta, tb, attack.attack_basis)
        s += sign * e
    return s


def analytic_qber(channel: ChannelConfig, attack: AttackConfig = AttackConfig()) -> float:
    """Error rate of the key branch, ignoring background accidentals."""
    p = attack.intercept_fraction
    e = (1.0 - p) * (-channel.visibility_hv)
    e += p * intercept_resend_correlation(0.0, 0.0, attack.attack_basis)
    return (1.0 + e) / 2.0


def _time_origin_ticks(channel: ChannelConfig) -> int:
    # Keeps every timestamp nonnegative even for negative Bob delays and
    # jitter excursions near t = 0.
    guard_s = 10.0 * channel.jitter_sigma * 1e-9 + 1e-6
    origin_s = max(0.0, -channel.bob_delay * 1e-9) + guard_s
    return seconds_to_ticks(origin_s)


# Expected Alice tags in one segment, at most: ~30x the ~138k of the
# ChannelConfig defaults.  The README states a run's peak RSS at the cap.
MAX_SEGMENT_TAGS = 1 << 22


def boundary_slack_s(channel: ChannelConfig) -> float:
    """How far past a segment boundary the Bob delay and jitter can carry a tag, s."""
    return abs(channel.bob_delay) * 1e-9 + 10.0 * channel.jitter_sigma * 1e-9 + 1e-6


# A tag's sort key is its tick less the raw segment's first boundary tick,
# shifted left by _CODE_BITS, with a detector code below: 0 for a pair tag,
# the detector id for a background tag.  Keys fit an int64 while that
# offset stays below MAX_KEY_SPAN in magnitude.
_CODE_BITS = 3
MAX_KEY_SPAN = 1 << 60


def _keys_fit(channel: ChannelConfig, span_s: float) -> bool:
    """Whether every tag of a raw segment spanning ``span_s`` has a key."""
    return (span_s + boundary_slack_s(channel)) / TICK_SECONDS < MAX_KEY_SPAN


def segment_count(duration: float, segment_seconds: float) -> int:
    # Past 2**62 segments of over 1 us each the run is refused anyway; the
    # clamp keeps an overflowing quotient from raising.
    return math.ceil(min(duration / segment_seconds, MAX_TICK))


def check_run_bounds(channel: ChannelConfig, segment_seconds: float) -> None:
    """Refuse, naming its key, a run whose segments would not fit in bounded
    memory or in ``generate_event_streams``' int64 sort keys, or whose
    ticks would pass ``timetag.MAX_TICK``."""
    if segment_seconds <= 0:
        raise RangeError("segment_seconds", "segment_seconds must be > 0")
    slack_s = boundary_slack_s(channel)
    if slack_s >= segment_seconds:
        raise RangeError("segment_seconds", "segment_seconds must exceed the boundary slack, "
                                            "|bob_delay| + 10 * jitter_sigma + 1 us")
    # background on each of Alice's six detectors
    tags = (channel.pair_rate + 6 * channel.background_rate) * min(segment_seconds,
                                                                   channel.duration)
    if tags >= MAX_SEGMENT_TAGS:
        key = "pair_rate" if channel.pair_rate >= 6 * channel.background_rate else "background_rate"
        raise RangeError(key, "expected Alice tags per segment, (pair_rate + 6 * background_rate)"
                              f" * min(segment_seconds, duration) = {tags:.4g}, must be below 2**22")
    # one microsecond more covers the rounding of a raw segment's ends
    if not _keys_fit(channel, min(segment_seconds, channel.duration) + 1e-6):
        raise RangeError("segment_seconds", "a segment's span, min(segment_seconds, duration),"
                                            " plus the boundary slack must stay below 2**60 ticks"
                                            f" ({MAX_KEY_SPAN * TICK_SECONDS:.4g} s)")
    limit_s = (MAX_TICK - _time_origin_ticks(channel)) * TICK_SECONDS
    if segment_count(channel.duration, segment_seconds) * segment_seconds + slack_s >= limit_s:
        key = "duration" if channel.duration >= segment_seconds else "segment_seconds"
        raise RangeError(key, "the last tick, at ceil(duration / segment_seconds) * segment_seconds"
                              f" plus the boundary slack, must stay below 2**62 ({limit_s:.4g} s)")


def _sample_pairs(
    channel: ChannelConfig,
    attack: AttackConfig,
    rng: np.random.Generator,
    t0: float,
    t1: float,
):
    """Emit and measure pairs with emission times in [t0, t1)."""
    n = rng.poisson(channel.pair_rate * (t1 - t0))
    t_emit = np.sort(rng.uniform(t0, t1, n))
    attacked = (
        rng.random(n) < attack.intercept_fraction
        if attack.intercept_fraction > 0.0
        else np.zeros(n, dtype=bool)
    )
    a_set = route_detection("alice", rng, n)
    b_set = route_detection("bob", rng, n)

    e_pair = _pair_correlation(a_set, b_set, attacked, channel, attack)
    a_out = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    b_out = np.where(rng.random(n) < (1.0 + a_out * e_pair) / 2.0, 1, -1).astype(np.int8)

    eff = channel.detector_efficiency
    a_det_flag = rng.random(n) < eff
    b_det_flag = rng.random(n) < eff * channel.bob_transmission

    jit = channel.jitter_sigma * 1e-9
    t_a = t_emit + (jit * rng.standard_normal(n) if jit > 0 else 0.0)
    t_b = t_emit + channel.bob_delay * 1e-9 + (jit * rng.standard_normal(n) if jit > 0 else 0.0)
    return attacked, a_set, b_set, a_out, b_out, a_det_flag, b_det_flag, t_a, t_b


def _detector_ids(settings, outcomes, detector_table) -> np.ndarray:
    # column 0 holds each setting's "+1" detector, column 1 its "-1" one
    return np.array(detector_table, dtype=np.uint8)[settings, (outcomes < 0).view(np.uint8)]


def _background(
    rate: float,
    detector_table,
    rng: np.random.Generator,
    t0: float,
    t1: float,
    offset_s: float,
):
    """Uncorrelated event times on every detector, one unsorted run per
    detector in ``detector_table`` order, paired with its id."""
    runs = []
    for plus, minus in detector_table:
        for det in (plus, minus):
            k = rng.poisson(rate * (t1 - t0))
            times = rng.uniform(t0, t1, k)
            times += offset_s
            runs.append((times, det))
    return runs


def _to_ticks(times_s: np.ndarray, origin_tick: int, base: int, out: np.ndarray) -> np.ndarray:
    """Write each time's tick, ``max(rint(times_s / TICK_SECONDS) + origin_tick, 0)``,
    less ``base`` to the int64 ``out`` and return it; ``times_s`` is
    scaled in place."""
    np.divide(times_s, TICK_SECONDS, out=times_s)
    np.rint(times_s, out=out, casting="unsafe")
    out += origin_tick - base
    np.maximum(out, -base, out=out)
    return out


def _side_stream(pair_times, pair_dets, background, origin_tick: int, base: int):
    """One station's time-sorted (ticks, detectors) from its runs.

    ``pair_times`` are the detected pair tags' times in emission order,
    ``background`` is ``_background``'s runs.  Sorting the keys orders
    equal ticks as a stable sort of the runs concatenated in that order
    would: pair tags first, then background by detector id, and tags
    with equal keys are alike.  The pair tags' ids go back into the
    code-0 slots in the order of a stable sort of the pair run alone.
    """
    n_pair = len(pair_times)
    keys = np.empty(n_pair + sum(len(t) for t, _ in background), dtype=np.int64)
    _to_ticks(pair_times, origin_tick, base, keys[:n_pair])
    keys[:n_pair] <<= _CODE_BITS
    pair_order = np.argsort(keys[:n_pair], kind="stable")
    start = n_pair
    for times, det in background:
        run = keys[start:start + len(times)]
        _to_ticks(times, origin_tick, base, run)
        run <<= _CODE_BITS
        run |= det
        start += len(times)
    keys.sort()
    dets = keys.astype(np.uint8)  # the low byte holds the code
    dets &= (1 << _CODE_BITS) - 1
    dets[np.flatnonzero(dets == 0)] = pair_dets[pair_order]
    keys >>= _CODE_BITS
    keys += base
    return keys.view(np.uint64), dets


def generate_event_streams(
    channel: ChannelConfig,
    attack: AttackConfig = AttackConfig(),
    ground_truth: bool = True,
    rng: Optional[np.random.Generator] = None,
    t_start: float = 0.0,
    t_stop: Optional[float] = None,
) -> EventStreams:
    """Simulate one acquisition and return both stations' tag streams.

    Deterministic for a fixed config: the sampler is seeded from
    ``channel.rng_seed`` unless an explicit generator is passed.  Each
    side's runs (the detected pair tags, then each detector's
    background) are written as int64 keys into one array and put in
    time order by one unstable sort; ``_side_stream`` says why that
    order is the stable one.  Raises ValueError when ``t_stop - t_start``
    plus the boundary slack reaches 2**60 ticks, past which the keys
    would overflow.
    """
    rng = rng if rng is not None else np.random.default_rng(channel.rng_seed)
    t0 = t_start
    t1 = channel.duration if t_stop is None else t_stop
    if not _keys_fit(channel, t1 - t0):
        raise ValueError("t_stop - t_start plus the boundary slack must stay below 2**60 ticks")
    origin = _time_origin_ticks(channel)
    base = origin + seconds_to_ticks(t0)

    (attacked, a_set, b_set, a_out, b_out,
     a_flag, b_flag, t_a, t_b) = _sample_pairs(channel, attack, rng, t0, t1)
    # Alice's background is drawn before Bob's; each side's runs are
    # assembled as soon as they are drawn.
    a_ticks, a_dets = _side_stream(
        t_a[a_flag], _detector_ids(a_set[a_flag], a_out[a_flag], ALICE_DETECTORS),
        _background(channel.background_rate, ALICE_DETECTORS, rng, t0, t1, 0.0),
        origin, base)
    b_ticks, b_dets = _side_stream(
        t_b[b_flag], _detector_ids(b_set[b_flag], b_out[b_flag], BOB_DETECTORS),
        _background(channel.background_rate, BOB_DETECTORS, rng, t0, t1,
                    channel.bob_delay * 1e-9),
        origin, base)

    truth = None
    if ground_truth:
        truth = GroundTruth(
            alice_setting=a_set,
            bob_setting=b_set,
            alice_outcome=a_out,
            bob_outcome=b_out,
            alice_detected=a_flag,
            bob_detected=b_flag,
            alice_tick=_to_ticks(t_a, origin, 0, np.empty(len(t_a), np.int64)).view(np.uint64),
            bob_tick=_to_ticks(t_b, origin, 0, np.empty(len(t_b), np.int64)).view(np.uint64),
            attacked=attacked,
        )
    return EventStreams(a_ticks, a_dets, b_ticks, b_dets, channel, truth)


def _merge_sorted(t1, d1, t2, d2):
    """Stable sort of ``concatenate([t1, t2])`` for two sorted tick runs.

    Returns the merged ticks and the detector ids carried along.  Only
    the stretch where the runs overlap is sorted: ``t1`` up to ``t2[0]``
    comes first and ``t2`` past ``t1[-1]`` comes last, ties going to
    ``t1`` as in the stable sort.  When one run is empty the other is
    returned as it is, not copied, so no caller may write to the result.
    """
    if len(t2) == 0:
        return t1, d1
    if len(t1) == 0:
        return t2, d2
    i = int(np.searchsorted(t1, t2[0], side="right"))
    j = int(np.searchsorted(t2, t1[-1], side="right"))
    mid = np.concatenate([t1[i:], t2[:j]])
    order = np.argsort(mid, kind="stable")
    return (np.concatenate([t1[:i], mid[order], t2[j:]]),
            np.concatenate([d1[:i], np.concatenate([d1[i:], d2[:j]])[order], d2[j:]]))


_NO_TAGS = (np.empty(0, np.uint64), np.empty(0, np.uint8))


class JointSegmentSource:
    """Lazily generates one acquisition in fixed time segments.

    Both sides' segments come from the same pair process, generated once
    per segment from that segment's child seed and re-cut on exact tick
    boundaries so that the concatenation of a side's segments equals the
    time-sorted full stream.  Memory stays bounded by the segments the
    two sides have yet to take, the carry and the raw segment being cut,
    regardless of run length.

    Each side has one consumer, and the two may iterate concurrently.
    The lock guards generation only: a side whose next segment is
    already ready takes it without waiting while the other side
    generates, which lets one station's generation overlap the other's
    matching.

    Per raw segment the work is the pair and background draws and one
    in-place sort of int64 keys per side, which puts the pair tags (in
    emission order up to jitter) and the per-detector background runs
    (drawn unsorted) in the order a stable sort would give them; see
    ``generate_event_streams``.  The raw segment's keys count ticks from
    its first boundary, so they fit an int64 while a segment spans less
    than 2**60 ticks, which ``check_run_bounds`` requires.
    Each segment is cut from its own raw arrays, never from a merge of
    two raw segments.  The carry holds a side's tags past the last
    boundary.  At the next boundary the carry and each newly drawn raw
    segment are split there, the parts below are merged into the
    segment and the parts above into the new carry.  ``_merge_sorted``
    sorts only the tags where two parts overlap, those that jitter and
    the Bob delay carry across a boundary, and passes a part through
    uncopied when the other is empty.  So at the defaults Alice's
    segments and carry view her raw segments, and Bob's carry is copied
    once a segment for the few tags his delay carries across.
    """

    def __init__(
        self,
        channel: ChannelConfig,
        attack: AttackConfig = AttackConfig(),
        segment_seconds: float = 1.0,
    ):
        check_run_bounds(channel, segment_seconds)
        self.channel = channel
        self.attack = attack
        self.segment_seconds = segment_seconds
        self.origin_tick = _time_origin_ticks(channel)
        self.n_segments = segment_count(channel.duration, segment_seconds)
        self._raw_index = 0
        self._carry = {"alice": _NO_TAGS, "bob": _NO_TAGS}
        self._ready = {"alice": deque(), "bob": deque()}
        self._emitted = 0
        self._lock = threading.Lock()

    def _boundary_tick(self, k: int) -> int:
        return self.origin_tick + seconds_to_ticks(k * self.segment_seconds)

    def _generate_raw(self, k: int) -> EventStreams:
        # Raw segment k's seed is child k of SeedSequence(rng_seed), as spawn() makes it.
        rng = np.random.default_rng(np.random.SeedSequence(self.channel.rng_seed, spawn_key=(k,)))
        t0 = k * self.segment_seconds
        t1 = min((k + 1) * self.segment_seconds, self.channel.duration)
        return generate_event_streams(
            self.channel, self.attack,
            ground_truth=False, rng=rng, t_start=t0, t_stop=t1,
        )

    def _advance(self) -> bool:
        """Produce the next exact-boundary segment for both sides."""
        if self._emitted >= self.n_segments:
            return False
        k = self._emitted
        pieces = {side: [carry] for side, carry in self._carry.items()}
        # Pull raw segments until raw k+1 has been seen (or the end); only
        # then is everything below boundary k+1 known, since jitter and the
        # Bob delay spill tags across adjacent boundaries at most.
        while self._raw_index <= k + 1 and self._raw_index < self.n_segments:
            raw = self._generate_raw(self._raw_index)
            pieces["alice"].append((raw.alice_ticks, raw.alice_detectors))
            pieces["bob"].append((raw.bob_ticks, raw.bob_detectors))
            self._raw_index += 1
        last = k + 1 >= self.n_segments
        boundary = np.uint64(self._boundary_tick(k + 1))
        for side, runs in pieces.items():
            below = above = _NO_TAGS
            # oldest run first, so that equal ticks keep the older run's tags first
            for ticks, dets in runs:
                # The final segment flushes everything so no tail tag is lost.
                cut = len(ticks) if last else int(np.searchsorted(ticks, boundary, side="left"))
                below = _merge_sorted(*below, ticks[:cut], dets[:cut])
                above = _merge_sorted(*above, ticks[cut:], dets[cut:])
            self._ready[side].append(below)
            self._carry[side] = above
        self._emitted += 1
        return True

    def segments(self, side: str):
        """Iterate (ticks, detectors) segments for one side.

        One consumer per side; both sides may iterate concurrently.  Only
        ``_advance`` runs under the lock, and only this side's consumer
        pops its ready queue, so a ready segment is taken without the
        lock.  A segment is freed once both sides have consumed it.
        """
        if side not in ("alice", "bob"):
            raise ValueError("side must be 'alice' or 'bob'")
        ready = self._ready[side]
        while True:
            if not ready:
                with self._lock:
                    # the other side may have generated it while this one waited
                    if not ready and not self._advance():
                        return
            yield ready.popleft()
