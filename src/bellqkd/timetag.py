"""Time-tag processing: delay recovery, coincidence identification,
accidental estimation, and the binary tag-file format.

Tags are unsigned 64-bit tick counts in 125 ps units plus an 8-bit
detector id.  Streams are time-sorted.  The relative delay between two
stations is recovered from the cross-correlation histogram of tag
differences; coincidences are then identified inside a fixed window
around that delay.
"""

from __future__ import annotations

import math
import os
import sys
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


# Tags per histogram chunk, and the granularity of the ``max_diffs`` stop,
# a whole number of chunks.  A chunk of 500 coarse-scan tags forms ~0.7 MB
# of differences at the ChannelConfig defaults.  The fine stage, with 0.08
# differences a tag there, bins its tags a whole stop chunk at a time.
_HIST_CHUNK = 500
_HIST_STOP_CHUNK = 20_000
# Merged neighbours compared per step of the matcher's link scan, so the
# key gaps never fill a full-length int64 array.
_LINK_CHUNK = 1 << 16
# Alice tags per chunk of the matcher, which merges and clusters one chunk
# of her stream, with the Bob tags beside it, at a time.
_MATCH_CHUNK = 1 << 15
# Alice tags tried for each cut, from each multiple of _MATCH_CHUNK on.
# At the tag cap 23 % of Alice's tags refuse a cut, most for a Bob partner
# just below them, so all the tries of one cut fail with chance ~1e-41.
_CUT_TRIES = 64
# Alice tags binned by the coarse delay scan.
COARSE_TAGS = 32_000
# Largest expected number of coarse bins, out of all of them, that would
# reach the peak's count by chance at the background mean.  Sparse
# streams pass the peak/background ratio on chance alone.
PEAK_FALSE_ALARM = 1e-6


def _difference_histogram(a, b, span, binw, max_diffs=60_000_000, shift=0, chunk=_HIST_CHUNK):
    """Histogram of (b - shift - a) differences restricted to |diff| <= span.

    Bin ``k`` holds the differences with ``(diff + span) // binw == k``,
    for ``k`` in ``0 .. 2 * (span // binw)``; when ``span`` is not a
    multiple of ``binw`` the few differences past the last bin fall into
    it.  Tags of ``a`` go in chunks of ``chunk``, a divisor of
    ``_HIST_STOP_CHUNK``: two searchsorted calls find each tag's partner
    range in ``b``, and the differences are formed and binned in place,
    so no array is as long as ``a``.  Stops early, at a 20k-tag boundary,
    once more than ``max_diffs`` differences have been binned (the
    histogram is statistical, truncation only loses tail statistics).
    """
    nbins = 2 * (span // binw) + 1
    hist = np.zeros((2 * span) // binw + 1, dtype=np.int64)
    total = 0
    for i in range(0, len(a), chunk):
        if i % _HIST_STOP_CHUNK == 0 and total > max_diffs:
            break
        low = a[i : i + chunk] + (shift - span)  # each tag's lowest partner
        lo = np.searchsorted(b, low, side="left")
        c = np.searchsorted(b, low + 2 * span, side="right") - lo
        ends = np.cumsum(c)
        # Flat indices into b of every [lo, lo + count) range, then the
        # bin of each difference.
        vals = np.repeat(lo - (ends - c), c)
        vals += np.arange(ends[-1])
        vals = b[vals]
        vals -= np.repeat(low, c)
        vals //= binw
        hist += np.bincount(vals, minlength=len(hist))
        total += int(ends[-1])
    hist[nbins - 1] += hist[nbins:].sum()
    return hist[:nbins], total


def _peak_and_background(hist, exclude_halfwidth):
    peak_bin = int(np.argmax(hist))
    peak = float(hist[peak_bin])
    mask = np.ones(len(hist), dtype=bool)
    lo = max(0, peak_bin - exclude_halfwidth)
    hi = min(len(hist), peak_bin + exclude_halfwidth + 1)
    mask[lo:hi] = False
    background = float(hist[mask].mean()) if mask.any() else 0.0
    return peak_bin, peak, background


def _poisson_tail(k: float, mean: float) -> float:
    """Upper bound on P(X >= k) for X ~ Poisson(mean).

    Bounds the tail by a geometric series from P(X = k), so it exceeds
    the exact value by at most the factor (k + 1) / (k + 1 - mean);
    1.0 when k <= mean.  A bound below the smallest normal float
    underflows to 0.0, as a subnormal one keeps too few bits to hold.
    """
    if k <= mean:
        return 1.0
    if mean <= 0:
        return 0.0
    log_pmf = k * math.log(mean) - mean - math.lgamma(k + 1)
    tail = math.exp(log_pmf) * (k + 1) / (k + 1 - mean)
    return tail if tail >= sys.float_info.min else 0.0


def _signed(ticks) -> np.ndarray:
    """``ticks`` as int64.  A uint64 array is viewed, not cast: the view
    holds the values the cast would, without the copy."""
    ticks = np.asarray(ticks)
    return ticks.view(np.int64) if ticks.dtype == np.uint64 else ticks.astype(np.int64, copy=False)


def find_delay(alice_ticks: np.ndarray, bob_ticks: np.ndarray, cfg: WindowConfig) -> DelayEstimate:
    """Recover Bob's constant delay relative to Alice.

    Coarse stage: difference histogram at ``correlation_bin`` resolution
    over +-``search_span``, from the first 32k Alice tags
    (``COARSE_TAGS``) and the Bob tags within reach of them.  The
    expected peak/background ratio does not depend on how many tags go
    in, only its noise does.  Fine stage: single-tick histogram around
    the coarse peak from all tags; the returned delay is the
    baseline-subtracted centroid.  Raises NoPeakError when the coarse
    peak/background ratio (``confidence``) stays below ``peak_threshold``,
    or when the peak bin is no Poisson outlier: when the number of bins
    times P(count >= peak) at the background mean reaches
    ``PEAK_FALSE_ALARM``.  Once Alice has ``COARSE_TAGS`` tags, more data
    leaves the ratio as is.
    """
    if len(alice_ticks) == 0 or len(bob_ticks) == 0:
        raise NoPeakError("empty tag stream")
    a, b = _signed(alice_ticks), _signed(bob_ticks)

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
    chance = len(hist) * _poisson_tail(peak, background)
    if chance >= PEAK_FALSE_ALARM:
        raise NoPeakError(f"peak/background {confidence:.2f} not significant: {peak:.0f} in one "
                          f"of {len(hist)} bins at mean {background:.3g} has chance {chance:.2g}")
    coarse_delay = (peak_bin - center) * binw

    # Fine stage at single-tick resolution around the coarse peak, all tags.
    fine_span = 2 * binw
    fine_bins = 2 * fine_span + 1
    fine_hist, fine_total = _difference_histogram(a, b, fine_span, 1, shift=coarse_delay,
                                                  chunk=_HIST_STOP_CHUNK)
    if fine_total == 0:
        return DelayEstimate(int(coarse_delay), confidence)

    argmax, _, baseline = _peak_and_background(fine_hist, exclude_halfwidth=32)
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


def _mutual_rounds(a, b, half):
    """Iterated mutual-nearest pairing of two sorted int64 arrays.

    Each round matches every (a, b) pair that are each other's nearest
    in-window partner, removes them, and repeats until no pair is left.
    Returns positions into a and b, in the order they were matched.
    """
    alive_a = np.arange(len(a))
    alive_b = np.arange(len(b))
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
    empty = np.empty(0, dtype=np.int64)
    return np.concatenate([empty, *out_a]), np.concatenate([empty, *out_b])


def _indices_of(ticks, values):
    """Index in sorted ``ticks`` of each of the sorted ``values``.

    Every copy of a repeated tick must be among ``values``; the k-th copy
    in ``values`` maps to the k-th copy in ``ticks``.
    """
    first = np.searchsorted(ticks, values.astype(ticks.dtype))
    return first + (np.arange(len(values)) - np.searchsorted(values, values))


def _clusters(a, b, delay, half):
    """Split the merged streams into lone pairs and the crowd.

    Returns (pair_a, pair_b, crowd_a, crowd_b): the Alice and Bob ticks of
    every cluster of one Alice and one Bob tag within the window, in
    Alice's order, and of every larger cluster.  Bob's ticks come minus
    the delay.  Only these outlive the call, and the merged keys, 8 bytes
    a tag, are freed before the pairs are split out.
    """
    keys = np.empty(len(a) + len(b), dtype=np.int64)
    np.left_shift(a, 1, out=keys[: len(a)], casting="unsafe")
    keys_b = keys[len(a) :]
    np.left_shift(b, 1, out=keys_b, casting="unsafe")
    keys_b -= 2 * delay - 1
    keys.sort(kind="stable")  # a merge of two sorted runs

    # Merged neighbours i, i + 1 within the window.  The key gap of an
    # in-window pair is at most 2 * half + 1 (Alice first) or
    # 2 * half - 1 (Bob first), so this keeps every one of them.
    close = np.empty(max(len(keys) - 1, 0), dtype=bool)
    for i in range(0, len(close), _LINK_CHUNK):
        j = min(i + _LINK_CHUNK, len(close))
        np.less_equal(keys[i + 1 : j + 1] - keys[i:j], 2 * half + 1, out=close[i:j])
    links = np.flatnonzero(close)
    del close
    # A link with no link on either side is a cluster of two tags.
    steps = np.diff(links) != 1
    lone = np.ones(len(links), dtype=bool)
    lone[1:] = steps
    lone[:-1] &= steps

    crowd = links[~lone]
    in_crowd = np.zeros(len(keys), dtype=bool)
    in_crowd[crowd] = in_crowd[crowd + 1] = True
    crowd = keys[in_crowd]

    links = links[lone]
    left = keys[links]
    links += 1
    right = keys[links]
    del keys, links
    pair = (((left ^ right) & 1) == 1) & ((right >> 1) - (left >> 1) <= half)
    left, right = left[pair], right[pair]
    from_a = (left & 1) == 0
    pair_a = np.where(from_a, left, right)
    pair_a >>= 1
    pair_b = np.where(from_a, right, left)
    pair_b >>= 1
    return pair_a, pair_b, crowd[(crowd & 1) == 0] >> 1, crowd[(crowd & 1) == 1] >> 1


def _cuts(a, b, delay, half):
    """Where the matcher cuts the streams into chunks.

    Returns Alice indices ``i`` and Bob indices ``j``, increasing: for each
    multiple of ``_MATCH_CHUNK``, a cut before the first of the next
    ``_CUT_TRIES`` Alice tags that no link crosses, or no cut when every
    tried tag has one.  The cut before Alice's tag ``a[i]`` puts Bob's
    tags with ``b - delay < a[i]``, the first ``j``, on its left.  No link
    crosses it when ``a[i - 1]`` lies more than ``half`` below ``a[i]``
    and no Bob tick minus the delay lies in ``[a[i] - half - 1, a[i])``:
    every key on the left then lies more than the window below ``a[i]``'s,
    the least key on the right.  ``a`` and ``b`` are int64.
    """
    tries = (np.arange(_MATCH_CHUNK, len(a), _MATCH_CHUNK)[:, None]
             + np.arange(min(_CUT_TRIES, _MATCH_CHUNK)))
    i = np.minimum(tries, len(a) - 1)
    at = a[i]
    j = np.searchsorted(b, at + delay)
    ok = (tries < len(a)) & (at - a[i - 1] > half)
    ok &= np.searchsorted(b, at + (delay - half - 1)) == j
    rows = np.flatnonzero(ok.any(axis=1))
    first = ok.argmax(axis=1)[rows]
    return i[rows, first], j[rows, first]


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

    Both streams must be sorted.  Each tag becomes one int64 key,
    ``tick << 1`` for Alice and ``(tick - delay) << 1 | 1`` for Bob, and
    one stable sort merges the two runs, ties putting Alice first.  So
    every tick, every Bob tick minus the delay, and the delay itself must
    lie below ``MAX_TICK`` in magnitude, or the keys could wrap; a
    ValueError says so.  The stream ends and the delay are checked, not
    each tag.

    Tags whose merged neighbour is within the window fall into clusters,
    separated by gaps wider than the window, and no pair crosses a gap.
    A cluster of one Alice and one Bob tag is one mutual-nearest pair
    already; only the tags of larger clusters go through the rounds.
    That gives the same pairs as running the rounds on every tag: a
    tag's nearest in-window partner always shares its cluster.

    The keys are merged and split into clusters one chunk at a time,
    about ``_MATCH_CHUNK`` Alice tags and the Bob tags beside them, so
    the scratch memory follows the chunk, not the streams.  A chunk ends
    only at such a gap (``_cuts``), so no cluster, and no pair, crosses
    from one chunk to the next, and the chunks give the clusters of the
    whole merge.

    Returns (alice_indices, bob_indices) into the input arrays, ordered by
    Alice's tag time.
    """
    a = np.asarray(alice_ticks)
    b = np.asarray(bob_ticks)
    delay = int(delay_ticks)
    half = cfg.half_window_ticks
    ends = [int(t) for t in (*a[:1], *a[-1:], *b[:1], *b[-1:])]
    shifted = [int(t) - delay for t in (*b[:1], *b[-1:])]
    if any(abs(t) >= MAX_TICK for t in (delay, *ends, *shifted)):
        raise ValueError(f"ticks, shifted ticks and delay must lie within +-{MAX_TICK}")

    cut_a, cut_b = _cuts(_signed(a), _signed(b), delay, half)
    bounds = zip([0, *cut_a.tolist()], [*cut_a.tolist(), len(a)],
                 [0, *cut_b.tolist()], [*cut_b.tolist(), len(b)])
    pair_a, pair_b, crowd_a, crowd_b = zip(*[_clusters(a[i:k], b[j:l], delay, half)
                                             for i, k, j, l in bounds])
    # each name's pieces are freed as soon as they are joined
    pair_a = np.concatenate(pair_a)
    pair_b = np.concatenate(pair_b)
    crowd_a = np.concatenate(crowd_a)
    crowd_b = np.concatenate(crowd_b)
    ra, rb = _mutual_rounds(crowd_a, crowd_b, half)

    # Copies of one tick are linked, so they share a cluster: a lone
    # pair's ticks occur once in their streams, and every copy of a crowd
    # tick is in the crowd, as _indices_of needs.
    ia = np.concatenate([np.searchsorted(a, pair_a.astype(a.dtype)),
                         _indices_of(a, crowd_a)[ra]])
    del pair_a, crowd_a  # each side's ticks die once they are indices
    ib = np.concatenate([np.searchsorted(b, (pair_b + delay).astype(b.dtype)),
                         _indices_of(b, crowd_b + delay)[rb]])
    del pair_b, crowd_b
    order = np.argsort(ia, kind="stable")
    ib = ib[order]  # the unsorted ib is freed before ia[order] is made
    return ia[order], ib


def count_accidentals(
    alice_ticks: np.ndarray,
    bob_ticks: np.ndarray,
    delay_ticks: int,
    cfg: WindowConfig,
) -> int:
    """Coincidence count in a window offset from the true delay.

    Estimates the uncorrelated (accidental) rate inside the real window;
    expected value is r_alice * r_bob * window * duration for independent
    streams.  It runs the exact matcher at the offset delay, where few
    tags have a partner, so almost every tag stops at the chunks' merges
    and link scans and few reach the rounds.
    """
    ia, _ = match_coincidences(alice_ticks, bob_ticks, delay_ticks + cfg.offset_ticks, cfg)
    return int(len(ia))


def pack_tag_records(ticks: np.ndarray, detectors: np.ndarray) -> bytes:
    """The 9-byte records of a tag file or a TIMETAG_BATCH payload."""
    if len(ticks) != len(detectors):
        raise ValueError("ticks and detectors must have equal length")
    rec = np.zeros(len(ticks), dtype=TAG_RECORD)
    rec["tick"] = ticks
    rec["det"] = detectors
    return rec.tobytes()


def write_tag_file(path, side: str, ticks: np.ndarray, detectors: np.ndarray) -> None:
    """Write a binary tag stream: 'QKDT', version, side, 9-byte records."""
    if side not in ("alice", "bob"):
        raise ValueError("side must be 'alice' or 'bob'")
    records = pack_tag_records(ticks, detectors)
    with open(path, "wb") as f:
        f.write(FILE_MAGIC)
        f.write(bytes([FILE_VERSION, 0 if side == "alice" else 1]))
        f.write(records)


def read_tag_file(path, start: int = 0, count: int = -1):
    """Read records ``start`` to ``start + count`` (-1: to the end) of a
    binary tag stream; returns (side, ticks, detectors)."""
    with open(path, "rb") as f:
        header = f.read(6)
        if len(header) < 6 or header[:4] != FILE_MAGIC:
            raise TagFileError(f"{path}: not a time-tag file")
        version, side_code = header[4], header[5]
        if version != FILE_VERSION:
            raise TagFileError(f"{path}: unsupported version {version}")
        if side_code not in (0, 1):
            raise TagFileError(f"{path}: invalid side byte {side_code}")
        if (os.fstat(f.fileno()).st_size - len(header)) % TAG_RECORD.itemsize != 0:
            raise TagFileError(f"{path}: truncated record data")
        f.seek(len(header) + start * TAG_RECORD.itemsize)
        rec = np.fromfile(f, dtype=TAG_RECORD, count=count)
    return ("alice" if side_code == 0 else "bob", rec["tick"].copy(), rec["det"].copy())
