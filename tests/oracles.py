"""Independent reference implementations used to freeze expected values.

Nothing in here imports the package under test, except the former
``find_delay``, which shares the current histogram helpers, the former
stream assembly, which shares the current pair draws, the former
segment source, which shares the current raw segments, the former
Cascade, which shares the current permutations, sample split and key
tag, the former key tag, which shares the current seed draw, and the
former sifting maps, which share the current class and refusal types.
Each other
function derives its answer from first principles (state vectors,
explicit matrices, plain loops) so the unit tests compare two genuinely
different routes to the same number.
"""

import math
import struct

import mpmath as mp
import numpy as np

from bellqkd.cascade import (
    _VERIFY_TAG,
    TAG_BITS,
    ChannelClosedError,
    _pass_permutation,
    _sample_prior,
    _split_sample,
    classic_initial_block,
    verify_keys,
)
from bellqkd.physics import (
    ALICE_ANGLES,
    ALICE_DETECTORS,
    BOB_ANGLES,
    BOB_DETECTORS,
    AliceSetting,
    BobSetting,
    EventStreams,
    GroundTruth,
    JointSegmentSource,
    _sample_pairs,
    _time_origin_ticks,
)
from bellqkd.privamp import generate_toeplitz_seed
from bellqkd.sifting import CoincidenceClass, InvalidDetectorError
from bellqkd.timetag import (
    TICK_SECONDS,
    DelayEstimate,
    NoPeakError,
    WindowConfig,
    _difference_histogram,
    _peak_and_background,
)

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# Entropy / eavesdropper bound, at 50 decimal digits

def mp_binary_entropy(x) -> float:
    x = mp.mpf(x)
    if x == 0 or x == 1:
        return 0.0
    h = -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)
    return float(h)


def mp_eve_information(s_value) -> float:
    s = abs(mp.mpf(s_value))
    # a float s touching 2*sqrt(2) can square to just under 8
    arg = max(s * s / 4 - 1, mp.mpf(0))
    lam = min((1 + mp.sqrt(arg)) / 2, mp.mpf(1))
    return mp_binary_entropy(lam)


# ---------------------------------------------------------------------------
# Two-photon polarization states, computed from explicit state vectors.
# Angles in degrees, measurement outcomes in {+1, -1}.

def _ket(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    return np.array([np.cos(t), np.sin(t)])


def _projector(theta_deg: float, outcome: int) -> np.ndarray:
    # +1 transmits the analyzer at theta, -1 the orthogonal port
    k = _ket(theta_deg if outcome > 0 else theta_deg + 90.0)
    return np.outer(k, k)


_SINGLET = (np.kron(_ket(0.0), _ket(90.0)) - np.kron(_ket(90.0), _ket(0.0))) / np.sqrt(2.0)


def werner_joint_probability(theta_a: float, theta_b: float, i: int, j: int,
                             visibility: float = 1.0) -> float:
    """P(i, j) for a singlet mixed with white noise, by direct trace."""
    rho = visibility * np.outer(_SINGLET, _SINGLET) + (1.0 - visibility) * np.eye(4) / 4.0
    op = np.kron(_projector(theta_a, i), _projector(theta_b, j))
    return float(np.trace(rho @ op).real)


def intercept_resend_joint_probability(theta_a: float, theta_b: float,
                                       i: int, j: int, eve_angle: float) -> float:
    """P(i, j) when the Bob arm is measured at eve_angle and re-prepared.

    Enumerates the intermediate outcome: P(i, s) from the singlet, then
    Malus's law for Bob measuring the re-prepared photon.
    """
    total = 0.0
    for s in (1, -1):
        p_is = werner_joint_probability(theta_a, eve_angle, i, s, 1.0)
        resent = _ket(eve_angle if s > 0 else eve_angle + 90.0)
        amp = _ket(theta_b if j > 0 else theta_b + 90.0) @ resent
        total += p_is * amp * amp
    return float(total)


def correlation_from_table(prob_fn) -> float:
    """E = sum_ij i*j*P(i,j) for any joint probability function of (i, j)."""
    return sum(i * j * prob_fn(i, j) for i in (1, -1) for j in (1, -1))


# ---------------------------------------------------------------------------
# Toeplitz hashing by explicit matrix construction

def toeplitz_matrix(seed_bits: np.ndarray, m: int, n: int) -> np.ndarray:
    s = np.asarray(seed_bits, dtype=np.uint8)
    assert len(s) == n + m - 1
    t = np.zeros((m, n), dtype=np.uint8)
    for i in range(m):
        for j in range(n):
            t[i, j] = s[j - i + m - 1]
    return t


def toeplitz_hash_reference(bits: np.ndarray, seed_bits: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(bits, dtype=np.uint8)
    t = toeplitz_matrix(seed_bits, m, len(x))
    return ((t @ x.astype(np.int64)) % 2).astype(np.uint8)


def toeplitz_hash_dense(bits: np.ndarray, seed_bits: np.ndarray, m: int) -> np.ndarray:
    """The former production kernel: a dense float64 product, O(n*m).

    Same contract as bellqkd.privamp.toeplitz_hash; kept as the
    reference the FFT kernel must match bit for bit.
    """
    x = np.asarray(bits, dtype=np.uint8)
    s = np.asarray(seed_bits, dtype=np.uint8)
    n = len(x)
    if m < 0 or m > n:
        raise ValueError("output length m must satisfy 0 <= m <= n")
    if len(s) != n + m - 1:
        raise ValueError(f"seed must have length n + m - 1 = {n + m - 1}")
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    # Row i of the matrix is s[m-1-i : m-1-i+n]; exact integer dot via
    # float64 is safe for n < 2**53.
    windows = np.lib.stride_tricks.sliding_window_view(s, n)  # shape (m, n)
    xf = x.astype(np.float64)
    out = np.empty(m, dtype=np.uint8)
    chunk = max(1, min(1024, (1 << 24) // max(n, 1)))
    for i in range(0, m, chunk):
        rows = windows[i : i + chunk].astype(np.float64)
        out[i : i + chunk] = (rows @ xf).astype(np.int64) & 1
    # windows[t] corresponds to row m-1-t, so flip into row order.
    return out[::-1].copy()


def toeplitz_hash_pow2(bits: np.ndarray, seed_bits: np.ndarray, m: int) -> np.ndarray:
    """The former FFT kernel: one real-FFT convolution of power-of-two
    length, the one at or above n + m - 1; same contract as
    bellqkd.privamp.toeplitz_hash."""
    x = np.asarray(bits, dtype=np.uint8)
    s = np.asarray(seed_bits, dtype=np.uint8)
    n = len(x)
    if m < 0 or m > n:
        raise ValueError("output length m must satisfy 0 <= m <= n")
    if len(s) != n + m - 1:
        raise ValueError(f"seed must have length n + m - 1 = {n + m - 1}")
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    size = 1 << (n + m - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(s, size) * np.fft.rfft(x[::-1], size), size)
    y = conv[n - 1 : n + m - 1][::-1]
    r = np.rint(y)
    residual = np.max(np.abs(y - r))
    if not residual < 0.25:  # also catches NaN
        raise FloatingPointError(f"Toeplitz FFT rounding residual {residual} >= 0.25")
    return (r.astype(np.int64) & 1).astype(np.uint8)


def verify_keys_fft(bits: np.ndarray, tag_bits: int, seed: int) -> bytes:
    """The former key tag: the key zero-padded to ``tag_bits``, hashed by
    the power-of-two FFT kernel, packed MSB first."""
    x = np.asarray(bits, dtype=np.uint8)
    if len(x) < tag_bits:
        x = np.concatenate([x, np.zeros(tag_bits - len(x), dtype=np.uint8)])
    seed_bits = generate_toeplitz_seed(len(x), tag_bits,
                                       np.random.SeedSequence([seed, _VERIFY_TAG]))
    return np.packbits(toeplitz_hash_pow2(x, seed_bits, tag_bits)).tobytes()


# ---------------------------------------------------------------------------
# Naive iterated mutual-nearest-neighbor pairing (plain loops)

def _nearest(value, pool_values, pool_alive):
    """Index of the nearest alive entry; ties prefer the lower index."""
    best = None
    best_d = None
    for idx in pool_alive:
        d = abs(int(pool_values[idx]) - int(value))
        if best_d is None or d < best_d:
            best, best_d = idx, d
    return best, best_d


def naive_mutual_match(alice_ticks, bob_ticks, delay, half_window):
    """O(n^2) reference for the coincidence matcher.

    Same contract: repeat rounds of mutual-nearest in-window pairing
    until closure, each tag used at most once, ties to the earlier tag.
    Returns (alice_indices, bob_indices) sorted by alice index.
    """
    a = [int(t) for t in alice_ticks]
    b = [int(t) - int(delay) for t in bob_ticks]
    alive_a = list(range(len(a)))
    alive_b = list(range(len(b)))
    pairs = []
    while alive_a and alive_b:
        near_b = {i: _nearest(a[i], b, alive_b) for i in alive_a}
        near_a = {j: _nearest(b[j], a, alive_a) for j in alive_b}
        matched = []
        for i in alive_a:
            j, d = near_b[i]
            if near_a[j][0] == i and d <= half_window:
                matched.append((i, j))
        if not matched:
            break
        pairs.extend(matched)
        used_a = {i for i, _ in matched}
        used_b = {j for _, j in matched}
        alive_a = [i for i in alive_a if i not in used_a]
        alive_b = [j for j in alive_b if j not in used_b]
    pairs.sort()
    ia = np.array([i for i, _ in pairs], dtype=np.int64)
    ib = np.array([j for _, j in pairs], dtype=np.int64)
    return ia, ib


# ---------------------------------------------------------------------------
# The former time-tag kernels, kept unchanged as references: the matcher
# ran its rounds over every tag, and the delay histogram binned through a
# caller-supplied ``to_bin`` in 20k-tag chunks.

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


def match_coincidences_full_rounds(
    alice_ticks: np.ndarray,
    bob_ticks: np.ndarray,
    delay_ticks: int,
    cfg,
):
    """Pair up tags with |(bob - delay) - alice| <= window/2.

    Mutual-nearest pairing, iterated to closure: each round matches every
    (a, b) pair that are each other's nearest in-window partner, removes
    them, and repeats.  Deterministic, uses each tag at most once, and is
    symmetric under swapping the streams (with negated delay).

    Returns (alice_indices, bob_indices) into the input arrays, ordered by
    Alice's tag time.
    """
    a = np.asarray(alice_ticks).astype(np.int64)
    b = np.asarray(bob_ticks).astype(np.int64) - int(delay_ticks)
    half = cfg.half_window_ticks

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

    if not out_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ia = np.concatenate(out_a)
    ib = np.concatenate(out_b)
    order = np.argsort(ia, kind="stable")
    return ia[order], ib[order]


# ---------------------------------------------------------------------------
# The former matcher, kept unchanged as the reference: its rounds ran on
# the tags with an in-window partner, found from a stable argsort of the
# two streams' concatenation.

def _has_partner(x, y, pos, half):
    """For each x[i]: whether y[pos[i] - 1] or y[pos[i]] is within +-half.

    ``pos[i]`` is where x[i] falls in y, so those are its two neighbours;
    a sentinel beyond reach of every x stands in for a missing one.
    """
    if len(x) == 0:
        return np.zeros(0, dtype=bool)
    y = np.concatenate(([x[0] - half - 1], y, [x[-1] + half + 1]))
    return (x - y[pos] <= half) | (y[pos + 1] - x <= half)


def match_coincidences_partner_merge(
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


def difference_histogram_full_chunks(a, b, span, nbins, to_bin, max_diffs=60_000_000):
    """Histogram of (b - a) differences restricted to |diff| <= span.

    ``to_bin`` maps a difference array to bin indices.  Works in chunks to
    bound memory; stops early if an extreme number of differences would be
    produced (the histogram is statistical, truncation only loses tail
    statistics).
    """
    hist = np.zeros(nbins, dtype=np.int64)
    total = 0
    chunk = 20_000
    for i in range(0, len(a), chunk):
        a_chunk = a[i : i + chunk]
        lo = np.searchsorted(b, a_chunk - span, side="left")
        hi = np.searchsorted(b, a_chunk + span, side="right")
        counts = hi - lo
        m = int(counts.sum())
        if m == 0:
            continue
        # Expand [lo, hi) ranges into flat indices of b.
        starts = np.repeat(lo, counts)
        offsets = np.arange(m) - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        idx = starts + offsets
        diffs = b[idx] - np.repeat(a_chunk, counts)
        hist += np.bincount(to_bin(diffs), minlength=nbins)
        total += m
        if total > max_diffs:
            break
    return hist, total


# ---------------------------------------------------------------------------
# The former delay search, kept unchanged as the reference: its coarse
# scan binned the first 200k Alice tags.  The histogram and peak helpers
# are the package's own; ``_difference_histogram`` has its reference above.

def find_delay_200k_tags(alice_ticks: np.ndarray, bob_ticks: np.ndarray, cfg: WindowConfig) -> DelayEstimate:
    """Recover Bob's constant delay relative to Alice.

    Coarse stage: difference histogram at ``correlation_bin`` resolution
    over +-``search_span``.  Fine stage: single-tick histogram around the
    coarse peak; the returned delay is the baseline-subtracted centroid.
    Raises NoPeakError when the peak/background ratio stays below
    ``peak_threshold``.
    """
    if len(alice_ticks) == 0 or len(bob_ticks) == 0:
        raise NoPeakError("empty tag stream")
    a = np.asarray(alice_ticks).astype(np.int64)
    b = np.asarray(bob_ticks).astype(np.int64)

    span = cfg.span_ticks
    binw = cfg.bin_ticks
    center = span // binw

    # A slice of the streams carries enough statistics for the coarse scan.
    a_use = a[:200_000]
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



# ---------------------------------------------------------------------------
# The former stream assembly of ``physics.generate_event_streams``, kept
# unchanged as the reference: per-detector float sorts, tick copies, the
# concatenation of each side's runs and one stable argsort per side.  The
# pair draws are the package's own ``_sample_pairs``; the per-pair
# correlation and detector-id kernels it replaced have their references
# here too.


def pair_correlation_by_angles(a_set, b_set, attacked, channel, attack) -> np.ndarray:
    """Per-pair correlation coefficient E, computed pair by pair."""
    a_ang = np.asarray(ALICE_ANGLES)[a_set]
    b_ang = np.asarray(BOB_ANGLES)[b_set]
    base = -np.cos(2.0 * np.deg2rad(a_ang - b_ang))
    hv = (a_set == AliceSetting.KEY) & (b_set == BobSetting.KEY)
    vis = np.where(hv, channel.visibility_hv, channel.visibility_diag)
    e_pair = vis * base
    if attack.intercept_fraction > 0.0:
        e_ir = -np.cos(2.0 * np.deg2rad(a_ang - attack.attack_basis)) * np.cos(
            2.0 * np.deg2rad(b_ang - attack.attack_basis)
        )
        e_pair = np.where(attacked, e_ir, e_pair)
    return e_pair


def detector_ids_by_where(settings, outcomes, detector_table) -> np.ndarray:
    plus = np.array([pair[0] for pair in detector_table], dtype=np.uint8)
    minus = np.array([pair[1] for pair in detector_table], dtype=np.uint8)
    return np.where(outcomes > 0, plus[settings], minus[settings]).astype(np.uint8)


def _background_sorted_runs(rate, detector_table, rng, t0, t1, offset_s):
    times = []
    dets = []
    for plus, minus in detector_table:
        for det in (plus, minus):
            k = rng.poisson(rate * (t1 - t0))
            times.append(np.sort(rng.uniform(t0, t1, k)) + offset_s)
            dets.append(np.full(k, det, dtype=np.uint8))
    if not times:
        return np.empty(0), np.empty(0, dtype=np.uint8)
    return np.concatenate(times), np.concatenate(dets)


def _to_ticks_copy(times_s, origin_tick):
    ticks = np.rint(times_s / TICK_SECONDS).astype(np.int64) + origin_tick
    np.maximum(ticks, 0, out=ticks)
    return ticks.astype(np.uint64)


def generate_event_streams_stable_sorts(channel, attack, ground_truth=True, rng=None,
                                        t_start=0.0, t_stop=None) -> EventStreams:
    """Both stations' streams: concatenate every run, stable-argsort each side."""
    rng = rng if rng is not None else np.random.default_rng(channel.rng_seed)
    t0 = t_start
    t1 = channel.duration if t_stop is None else t_stop
    origin = _time_origin_ticks(channel)

    (attacked, a_set, b_set, a_out, b_out,
     a_flag, b_flag, t_a, t_b) = _sample_pairs(channel, attack, rng, t0, t1)

    a_pair_ticks = _to_ticks_copy(t_a, origin)
    b_pair_ticks = _to_ticks_copy(t_b, origin)
    a_pair_det = detector_ids_by_where(a_set, a_out, ALICE_DETECTORS)
    b_pair_det = detector_ids_by_where(b_set, b_out, BOB_DETECTORS)

    bg_a_t, bg_a_d = _background_sorted_runs(channel.background_rate, ALICE_DETECTORS,
                                             rng, t0, t1, 0.0)
    bg_b_t, bg_b_d = _background_sorted_runs(channel.background_rate, BOB_DETECTORS,
                                             rng, t0, t1, channel.bob_delay * 1e-9)

    a_ticks = np.concatenate([a_pair_ticks[a_flag], _to_ticks_copy(bg_a_t, origin)])
    a_dets = np.concatenate([a_pair_det[a_flag], bg_a_d])
    b_ticks = np.concatenate([b_pair_ticks[b_flag], _to_ticks_copy(bg_b_t, origin)])
    b_dets = np.concatenate([b_pair_det[b_flag], bg_b_d])

    order_a = np.argsort(a_ticks, kind="stable")
    order_b = np.argsort(b_ticks, kind="stable")
    a_ticks, a_dets = a_ticks[order_a], a_dets[order_a]
    b_ticks, b_dets = b_ticks[order_b], b_dets[order_b]

    truth = None
    if ground_truth:
        truth = GroundTruth(a_set, b_set, a_out, b_out, a_flag, b_flag,
                            a_pair_ticks, b_pair_ticks, attacked)
    return EventStreams(a_ticks, a_dets, b_ticks, b_dets, channel, truth)


# ---------------------------------------------------------------------------
# The former segment source: each raw segment was merged whole into the
# carry, and the merge was cut at the boundary, so every tag was copied
# twice and each segment viewed an array spanning two raw segments.

def merge_sorted_by_argsort(t1, d1, t2, d2):
    """``concatenate([t1, t2])`` and its ids, put in order by a stable argsort."""
    ticks = np.concatenate([t1, t2])
    order = np.argsort(ticks, kind="stable")
    return ticks[order], np.concatenate([d1, d2])[order]


class RemergingSegmentSource(JointSegmentSource):
    """``JointSegmentSource`` with the former merge-and-cut ``_advance``."""

    def _advance(self) -> bool:
        if self._emitted >= self.n_segments:
            return False
        k = self._emitted
        while self._raw_index <= k + 1 and self._raw_index < self.n_segments:
            raw = self._generate_raw(self._raw_index)
            for side, ticks, dets in (
                ("alice", raw.alice_ticks, raw.alice_detectors),
                ("bob", raw.bob_ticks, raw.bob_detectors),
            ):
                self._carry[side] = merge_sorted_by_argsort(*self._carry[side], ticks, dets)
            self._raw_index += 1
        last = k + 1 >= self.n_segments
        boundary = np.uint64(self._boundary_tick(k + 1))
        for side in ("alice", "bob"):
            ticks, dets = self._carry[side]
            cut = len(ticks) if last else int(np.searchsorted(ticks, boundary, side="left"))
            self._ready[side].append((ticks[:cut], dets[:cut]))
            self._carry[side] = (ticks[cut:], dets[cut:])
        self._emitted += 1
        return True


# ---------------------------------------------------------------------------
# The former Cascade, kept as the reference: Bob advanced his binary
# searches as Python lists of ranges and read his own parity of every
# half-range with a gather and reduce (``own_parity``), his first parities
# of a pass with ``reduceat``; Alice answered each range in a loop over
# her prefix table.  Both roles run in one process, and each message Bob
# sends is kept as (message class name, payload bytes).

class _FormerAlice:
    def __init__(self, bits, seed):
        self.bits = np.array(bits, dtype=np.uint8)
        self.seed = seed
        self.leaked_bits = 0
        self.passes = {}  # pass_index -> prefix table

    def parities(self, p, ranges) -> np.ndarray:
        if p not in self.passes:
            permuted = self.bits[_pass_permutation(len(self.bits), p, self.seed)]
            prefix = np.zeros(len(permuted) + 1, dtype=np.uint8)
            np.bitwise_xor.accumulate(permuted, out=prefix[1:])
            self.passes[p] = prefix
        prefix = self.passes[p]
        n = len(self.bits)
        parities = np.empty(len(ranges), dtype=np.uint8)
        for i, (start, length) in enumerate(ranges):
            if start + length > n or length == 0:
                raise ChannelClosedError("parity range out of bounds")
            parities[i] = prefix[start + length] ^ prefix[start]
        self.leaked_bits += len(ranges)
        return parities


class _FormerBobState:
    def __init__(self, bits, alice, sent):
        self.bits = bits
        self.alice = alice
        self.sent = sent
        self.leaked_bits = 0
        self.exchanged_messages = 0
        self.errors_corrected = 0
        self.perms: list = []
        self.invs: list = []
        self.ks: list = []
        self.mismatch: list = []

    def request_parities(self, pass_index, ranges) -> np.ndarray:
        ranges = tuple((int(s), int(l)) for s, l in ranges)
        self.sent.append(("ParityRequestMsg", struct.pack("<BI", pass_index, len(ranges))
                          + b"".join(struct.pack("<II", s, l) for s, l in ranges)))
        self.exchanged_messages += 2
        self.leaked_bits += len(ranges)
        return self.alice.parities(pass_index, ranges)

    def own_parity(self, pass_index, start, length) -> int:
        perm = self.perms[pass_index]
        return int(np.bitwise_xor.reduce(self.bits[perm[start : start + length]]))

    def flip(self, bit_index: int) -> None:
        self.bits[bit_index] ^= 1
        self.errors_corrected += 1
        for q in range(len(self.perms)):
            block = self.invs[q][bit_index] // self.ks[q]
            self.mismatch[q][block] = ~self.mismatch[q][block]


def _former_batch_binary_search(state: _FormerBobState, pass_index: int, ranges) -> list:
    active = [(int(s), int(l)) for s, l in ranges]
    found = []
    perm = state.perms[pass_index]
    while active:
        done = [r for r in active if r[1] == 1]
        for s, _ in done:
            found.append(int(perm[s]))
        active = [r for r in active if r[1] > 1]
        if not active:
            break
        halves = [(s, (l + 1) // 2) for s, l in active]
        alice = state.request_parities(pass_index, halves)
        next_active = []
        for (s, l), (hs, hl), ap in zip(active, halves, alice):
            mine = state.own_parity(pass_index, hs, hl)
            if mine != ap:
                next_active.append((hs, hl))
            else:
                next_active.append((s + hl, l - hl))
        active = next_active
    return found


def reconcile_pair_former(alice_bits, bob_bits, params, qber_estimate=None) -> dict:
    """Both roles of the former Cascade; ``params.shuffle_seed`` must be set.

    Returns Bob's corrected bits, the messages he sent, both sides'
    counts, and whether the closing tags agreed."""
    seed = params.shuffle_seed
    sent = [("ShuffleSeedMsg", struct.pack("<Q", seed))]
    work = np.array(bob_bits, dtype=np.uint8).copy()
    alice = _FormerAlice(alice_bits, seed)
    state = _FormerBobState(work, alice, sent)
    state.exchanged_messages += 1

    if qber_estimate is None:
        mine, work = _split_sample(work, seed)
        theirs, alice.bits = _split_sample(alice.bits, seed)
        sent.append(("QberSampleMsg", struct.pack("<I", len(mine)) + np.packbits(mine).tobytes()))
        state.exchanged_messages += 2
        _, qber_estimate = _sample_prior(mine, theirs)
        state.bits = work

    n = len(work)
    k1 = classic_initial_block(qber_estimate, n)
    for p in range(params.passes):
        k_p = min(k1 * (2**p), max(1, n // 2))
        perm = _pass_permutation(n, p, seed)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        nblocks = int(math.ceil(n / k_p))
        starts = np.arange(nblocks, dtype=np.int64) * k_p
        lengths = np.minimum(k_p, n - starts)
        state.perms.append(perm)
        state.invs.append(inv)
        state.ks.append(k_p)

        alice_par = state.request_parities(p, list(zip(starts, lengths)))
        permuted = work[perm]
        my_par = np.bitwise_xor.reduceat(permuted, starts)
        state.mismatch.append(alice_par.astype(bool) ^ my_par.astype(bool))

        while True:
            cand = [q for q in range(len(state.perms)) if state.mismatch[q].any()]
            if not cand:
                break
            q = min(cand, key=lambda qq: state.ks[qq])
            odd = np.nonzero(state.mismatch[q])[0]
            q_starts = odd * state.ks[q]
            q_lengths = np.minimum(state.ks[q], n - q_starts)
            positions = _former_batch_binary_search(state, q, list(zip(q_starts, q_lengths)))
            for i in positions:
                state.flip(i)

    tag = verify_keys(work, TAG_BITS, seed)
    sent.append(("VerifyTagMsg", tag))
    state.exchanged_messages += 2
    return {
        "bits": work,
        "sent": sent,
        "leaked_bits": state.leaked_bits + TAG_BITS,
        "alice_leaked_bits": alice.leaked_bits + TAG_BITS,
        "errors_corrected": state.errors_corrected,
        "exchanged_messages": state.exchanged_messages,
        "verified": tag == verify_keys(alice.bits, TAG_BITS, seed),
    }


# ---------------------------------------------------------------------------
# The former sifting maps, which compared detector ids by hand (Alice 1-2
# key, 3-6 rotated; Bob 1-2 key, 3-4 rotated), kept as the reference for
# the tables ``bellqkd.sifting`` builds from the station layout.  The class
# and refusal types are the package's own.  Both take a scalar beside an
# array, as the package's maps do: the class is an enum for two scalars
# only, and the counts bin a 0-d index too.

def classify_by_comparison(alice_detector, bob_detector):
    a = np.asarray(alice_detector, dtype=np.int64)
    b = np.asarray(bob_detector, dtype=np.int64)
    if a.size and ((a < 1) | (a > 6)).any():
        raise InvalidDetectorError("Alice detector ids must be in 1..6")
    if b.size and ((b < 1) | (b > 4)).any():
        raise InvalidDetectorError("Bob detector ids must be in 1..4")
    out = np.where(
        a >= 3,
        CoincidenceClass.BELL,
        np.where(b <= 2, CoincidenceClass.KEY, CoincidenceClass.DISCARD),
    ).astype(np.int8)
    if out.ndim == 0:  # two scalars
        return CoincidenceClass(int(out))
    return out


def count_coincidences_by_offset(alice_detectors, bob_detectors) -> np.ndarray:
    a = np.asarray(alice_detectors, dtype=np.int64)
    b = np.asarray(bob_detectors, dtype=np.int64)
    classify_by_comparison(a, b)  # validates ranges
    flat = (a - 1) * 4 + (b - 1)
    return np.bincount(flat.ravel(), minlength=24).reshape(6, 4).astype(np.int64)


def alice_key_bits_by_offset(alice_detectors) -> np.ndarray:
    a = np.asarray(alice_detectors, dtype=np.int64)
    if a.size and ((a < 1) | (a > 2)).any():
        raise InvalidDetectorError("key branch requires Alice detectors 1 or 2")
    return (a - 1).astype(np.uint8)


def bob_key_bits_by_offset(bob_detectors) -> np.ndarray:
    b = np.asarray(bob_detectors, dtype=np.int64)
    if b.size and ((b < 1) | (b > 2)).any():
        raise InvalidDetectorError("key branch requires Bob detectors 1 or 2")
    return (2 - b).astype(np.uint8)


def basis_to_detector_by_where(basis: np.ndarray) -> np.ndarray:
    # the key basis behaves like detector 1, the rotated basis like 3
    return np.where(basis == 0, 1, 3).astype(np.uint8)


def detector_to_basis_by_comparison(dets) -> np.ndarray:
    # 0 for the key analyzer's detectors 1-2, 1 for the rotated analyzer's 3-4
    return (np.asarray(dets) >= 3).astype(np.uint8)
