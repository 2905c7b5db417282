"""Time-tag processing: delay recovery, coincidence identification,
accidental estimation, and the binary tag-file format.

Tags are unsigned 64-bit tick counts in 125 ps units plus an 8-bit
detector id.  Streams are time-sorted.  The relative delay between two
stations is recovered from the cross-correlation histogram of tag
differences; coincidences are then identified inside a fixed window
around that delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TICK_SECONDS = 125e-12
TICKS_PER_NS = 8  # 1 ns / 125 ps

FILE_MAGIC = b"QKDT"
FILE_VERSION = 1
# One tag as stored in a tag file and sent in a TIMETAG_BATCH frame.
TAG_RECORD = np.dtype([("tick", "<u8"), ("det", "u1")])

# Largest tick a stream may carry: delay recovery works in signed 64-bit
# arithmetic, so larger ticks could wrap.  2**62 ticks is about 18 years.
MAX_TICK = 1 << 62


class NoPeakError(Exception):
    """No coincidence peak found in the cross-correlation histogram."""


class TagFileError(Exception):
    """Malformed or truncated time-tag file."""


def ns_to_ticks(ns: float) -> int:
    return int(round(ns * TICKS_PER_NS))


def seconds_to_ticks(seconds: float) -> int:
    return int(round(seconds / TICK_SECONDS))


@dataclass(frozen=True)
class WindowConfig:
    """Coincidence and correlation-search parameters.

    coincidence_window   full window width, ns (default 3.75 ns = 30 ticks)
    accidental_offset    shift of the accidental-estimation window, ns
    correlation_bin      coarse histogram bin for delay search, ns
    search_span          half-span of the delay search, us
    peak_threshold       minimum peak/background ratio to accept a delay
    """

    coincidence_window: float = 3.75
    accidental_offset: float = 20.0
    correlation_bin: float = 32.0
    search_span: float = 1000.0
    peak_threshold: float = 5.0

    def __post_init__(self):
        if self.coincidence_window <= 0:
            raise ValueError("coincidence_window must be > 0")
        if self.correlation_bin <= 0 or self.search_span <= 0:
            raise ValueError("correlation_bin and search_span must be > 0")

    @property
    def window_ticks(self) -> int:
        return max(1, ns_to_ticks(self.coincidence_window))

    @property
    def half_window_ticks(self) -> int:
        # |delta| <= half_window defines a coincidence.
        return self.window_ticks // 2

    @property
    def offset_ticks(self) -> int:
        return ns_to_ticks(self.accidental_offset)

    @property
    def span_ticks(self) -> int:
        return ns_to_ticks(self.search_span * 1000.0)

    @property
    def bin_ticks(self) -> int:
        return max(1, ns_to_ticks(self.correlation_bin))


@dataclass(frozen=True)
class DelayEstimate:
    delay_ticks: int
    confidence: float


# Tags per histogram chunk, and the granularity of the ``max_diffs`` stop.
_HIST_CHUNK = 2_000
_HIST_STOP_CHUNK = 20_000
# Alice tags binned by the coarse delay scan.
COARSE_TAGS = 32_000


def _difference_histogram(a, b, span, binw, max_diffs=60_000_000):
    """Histogram of (b - a) differences restricted to |diff| <= span.

    Bin ``k`` holds the differences with ``(diff + span) // binw == k``,
    for ``k`` in ``0 .. 2 * (span // binw)``; when ``span`` is not a
    multiple of ``binw`` the few differences past the last bin fall into
    it.  Each tag's partner range in ``b`` comes from two searchsorted
    calls over all of ``a``; the differences are then formed and binned
    in small chunks to bound memory.  Stops early, at a 20k-tag
    boundary, once more than ``max_diffs`` differences have been binned
    (the histogram is statistical, truncation only loses tail
    statistics).
    """
    nbins = 2 * (span // binw) + 1
    lo = np.searchsorted(b, a - span, side="left")
    counts = np.searchsorted(b, a + span, side="right") - lo
    # The first 20k-tag stretch that carries the running total past
    # max_diffs is the last one binned.
    stretch_totals = np.cumsum(np.add.reduceat(counts, np.arange(0, len(a), _HIST_STOP_CHUNK)))
    over = np.flatnonzero(stretch_totals > max_diffs)
    stop = len(a) if len(over) == 0 else min(len(a), (int(over[0]) + 1) * _HIST_STOP_CHUNK)

    hist = np.zeros((2 * span) // binw + 1, dtype=np.int64)
    for i in range(0, stop, _HIST_CHUNK):
        c = counts[i : min(i + _HIST_CHUNK, stop)]
        ends = np.cumsum(c)
        # Flat indices into b of every [lo, lo + count) range, then the
        # bin of each difference, built in place.
        vals = np.repeat(lo[i : i + len(c)] - (ends - c), c)
        vals += np.arange(ends[-1])
        vals = b[vals]
        vals -= np.repeat(a[i : i + len(c)] - span, c)
        vals //= binw
        hist += np.bincount(vals, minlength=len(hist))
    hist[nbins - 1] += hist[nbins:].sum()
    return hist[:nbins], int(counts[:stop].sum())


def _peak_and_background(hist, exclude_halfwidth):
    peak_bin = int(np.argmax(hist))
    peak = float(hist[peak_bin])
    mask = np.ones(len(hist), dtype=bool)
    lo = max(0, peak_bin - exclude_halfwidth)
    hi = min(len(hist), peak_bin + exclude_halfwidth + 1)
    mask[lo:hi] = False
    background = float(hist[mask].mean()) if mask.any() else 0.0
    return peak_bin, peak, background


def find_delay(alice_ticks: np.ndarray, bob_ticks: np.ndarray, cfg: WindowConfig) -> DelayEstimate:
    """Recover Bob's constant delay relative to Alice.

    Coarse stage: difference histogram at ``correlation_bin`` resolution
    over +-``search_span``, from the first 32k Alice tags
    (``COARSE_TAGS``) and the Bob tags within reach of them.  The
    expected peak/background ratio does not depend on how many tags go
    in, only its noise does.  Fine stage: single-tick histogram around
    the coarse peak from all tags; the returned delay is the
    baseline-subtracted centroid.  Raises NoPeakError when the coarse
    peak/background ratio (``confidence``) stays below ``peak_threshold``.
    Once Alice has ``COARSE_TAGS`` tags, more data leaves that ratio as is.
    """
    if len(alice_ticks) == 0 or len(bob_ticks) == 0:
        raise NoPeakError("empty tag stream")
    a = np.asarray(alice_ticks).astype(np.int64)
    b = np.asarray(bob_ticks).astype(np.int64)

    span = cfg.span_ticks
    binw = cfg.bin_ticks
    center = span // binw

    a_use = a[:COARSE_TAGS]
    b_lo = np.searchsorted(b, a_use[0] - span)
    b_hi = np.searchsorted(b, a_use[-1] + span)
    b_use = b[b_lo:b_hi]
    if len(b_use) == 0:
        raise NoPeakError("streams do not overlap within the search span")

    hist, total = _difference_histogram(a_use, b_use, span, binw)
    if total == 0:
        raise NoPeakError("no tag differences inside the search span")
    peak_bin, peak, background = _peak_and_background(hist, exclude_halfwidth=4)
    confidence = peak / background if background > 0 else float("inf") if peak > 0 else 0.0
    if confidence < cfg.peak_threshold:
        raise NoPeakError(f"peak/background {confidence:.2f} below threshold {cfg.peak_threshold}")
    coarse_delay = (peak_bin - center) * binw

    # Fine stage at single-tick resolution around the coarse peak, all tags.
    fine_span = 2 * binw
    fine_bins = 2 * fine_span + 1
    b_shifted = b - coarse_delay

    fine_hist, fine_total = _difference_histogram(a, b_shifted, fine_span, 1)
    if fine_total == 0:
        return DelayEstimate(int(coarse_delay), confidence)

    argmax = int(np.argmax(fine_hist))
    mask = np.ones(fine_bins, dtype=bool)
    mask[max(0, argmax - 32) : argmax + 33] = False
    baseline = float(fine_hist[mask].mean()) if mask.any() else 0.0
    lo = max(0, argmax - 24)
    hi = min(fine_bins, argmax + 25)
    weights = np.clip(fine_hist[lo:hi].astype(float) - baseline, 0.0, None)
    positions = np.arange(lo, hi) - fine_span + coarse_delay
    if weights.sum() <= 0:
        delay = coarse_delay
    else:
        delay = float((weights * positions).sum() / weights.sum())
    return DelayEstimate(int(round(delay)), confidence)


def _nearest_candidates(a, b):
    """For each element of a: index in b of the nearest value (ties -> earlier)."""
    pos = np.searchsorted(b, a)
    left = np.clip(pos - 1, 0, len(b) - 1)
    right = np.clip(pos, 0, len(b) - 1)
    dist_left = np.abs(a - b[left])
    dist_right = np.abs(b[right] - a)
    dist_left[pos == 0] = np.iinfo(np.int64).max
    dist_right[pos == len(b)] = np.iinfo(np.int64).max
    take_left = dist_left <= dist_right  # tie prefers the earlier tag
    cand = np.where(take_left, left, right)
    dist = np.where(take_left, dist_left, dist_right)
    return cand, dist


def _has_partner(x, y, pos, half):
    """For each x[i]: whether y[pos[i] - 1] or y[pos[i]] is within +-half.

    ``pos[i]`` is where x[i] falls in y, so those are its two neighbours;
    a sentinel beyond reach of every x stands in for a missing one.
    """
    if len(x) == 0:
        return np.zeros(0, dtype=bool)
    y = np.concatenate(([x[0] - half - 1], y, [x[-1] + half + 1]))
    return (x - y[pos] <= half) | (y[pos + 1] - x <= half)


def match_coincidences(
    alice_ticks: np.ndarray,
    bob_ticks: np.ndarray,
    delay_ticks: int,
    cfg: WindowConfig,
):
    """Pair up tags with |(bob - delay) - alice| <= window/2.

    Mutual-nearest pairing, iterated to closure: each round matches every
    (a, b) pair that are each other's nearest in-window partner, removes
    them, and repeats.  Deterministic, uses each tag at most once, and is
    symmetric under swapping the streams (with negated delay).

    The rounds run only on the tags that have some partner within the
    window, found by one merge of the two streams.  That gives the same
    pairs as running them on every tag: a tag's nearest in-window partner
    is always such a tag, and a tag without one is never the nearest
    in-window partner of anything.

    Returns (alice_indices, bob_indices) into the input arrays, ordered by
    Alice's tag time.
    """
    a = np.asarray(alice_ticks).astype(np.int64)
    b = np.asarray(bob_ticks).astype(np.int64)
    b -= int(delay_ticks)
    half = cfg.half_window_ticks

    # A stable sort of two sorted runs is a linear merge.  Ties put a
    # first, so each a lands after the b strictly below it and each b
    # after the a at or below it.
    from_a = np.argsort(np.concatenate([a, b]), kind="stable") < len(a)
    pos_a = np.flatnonzero(from_a) - np.arange(len(a))
    pos_b = np.flatnonzero(~from_a) - np.arange(len(b))
    alive_a = np.flatnonzero(_has_partner(a, b, pos_a, half))
    alive_b = np.flatnonzero(_has_partner(b, a, pos_b, half))
    out_a = []
    out_b = []
    while len(alive_a) and len(alive_b):
        av = a[alive_a]
        bv = b[alive_b]
        cand_b, dist_ab = _nearest_candidates(av, bv)
        cand_a, _ = _nearest_candidates(bv, av)
        mutual = (cand_a[cand_b] == np.arange(len(av))) & (dist_ab <= half)
        if not mutual.any():
            break
        out_a.append(alive_a[mutual])
        out_b.append(alive_b[cand_b[mutual]])
        alive_a = alive_a[~mutual]
        keep_b = np.ones(len(alive_b), dtype=bool)
        keep_b[cand_b[mutual]] = False
        alive_b = alive_b[keep_b]

    if not out_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ia = np.concatenate(out_a)
    ib = np.concatenate(out_b)
    order = np.argsort(ia, kind="stable")
    return ia[order], ib[order]


def count_accidentals(
    alice_ticks: np.ndarray,
    bob_ticks: np.ndarray,
    delay_ticks: int,
    cfg: WindowConfig,
) -> int:
    """Coincidence count in a window offset from the true delay.

    Estimates the uncorrelated (accidental) rate inside the real window;
    expected value is r_alice * r_bob * window * duration for independent
    streams.  It runs the exact matcher at the offset delay, so only the
    few tags with a partner inside the offset window enter its rounds.
    """
    ia, _ = match_coincidences(alice_ticks, bob_ticks, delay_ticks + cfg.offset_ticks, cfg)
    return int(len(ia))


def write_tag_file(path, side: str, ticks: np.ndarray, detectors: np.ndarray) -> None:
    """Write a binary tag stream: 'QKDT', version, side, 9-byte records."""
    if side not in ("alice", "bob"):
        raise ValueError("side must be 'alice' or 'bob'")
    if len(ticks) != len(detectors):
        raise ValueError("ticks and detectors must have equal length")
    rec = np.zeros(len(ticks), dtype=TAG_RECORD)
    rec["tick"] = ticks
    rec["det"] = detectors
    with open(path, "wb") as f:
        f.write(FILE_MAGIC)
        f.write(bytes([FILE_VERSION, 0 if side == "alice" else 1]))
        f.write(rec.tobytes())


def read_tag_file(path):
    """Read a binary tag stream; returns (side, ticks, detectors)."""
    with open(path, "rb") as f:
        header = f.read(6)
        if len(header) < 6 or header[:4] != FILE_MAGIC:
            raise TagFileError(f"{path}: not a time-tag file")
        version, side_code = header[4], header[5]
        if version != FILE_VERSION:
            raise TagFileError(f"{path}: unsupported version {version}")
        if side_code not in (0, 1):
            raise TagFileError(f"{path}: invalid side byte {side_code}")
        body = f.read()
    if len(body) % TAG_RECORD.itemsize != 0:
        raise TagFileError(f"{path}: truncated record data")
    rec = np.frombuffer(body, dtype=TAG_RECORD)
    return ("alice" if side_code == 0 else "bob", rec["tick"].copy(), rec["det"].copy())
