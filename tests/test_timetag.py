"""Delay recovery, coincidence matching, accidentals, tag files."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpmath as mp
import oracles
import bellqkd
from bellqkd import timetag
from bellqkd.physics import ChannelConfig, JointSegmentSource
from bellqkd.timetag import (
    MAX_TICK,
    DelayEstimate,
    NoPeakError,
    TagFileError,
    WindowConfig,
    _HIST_STOP_CHUNK,
    _difference_histogram,
    _poisson_tail,
    count_accidentals,
    find_delay,
    match_coincidences,
    ns_to_ticks,
    read_tag_file,
    seconds_to_ticks,
    write_tag_file,
)


def test_tick_conversions():
    assert ns_to_ticks(1.0) == 8
    assert ns_to_ticks(3.75) == 30
    assert ns_to_ticks(0.0624) == 0  # rounds to nearest tick
    assert seconds_to_ticks(1.0) == 8_000_000_000
    assert seconds_to_ticks(125e-12) == 1


def test_window_config_tick_properties():
    cfg = WindowConfig()
    assert cfg.window_ticks == 30
    assert cfg.half_window_ticks == 15
    assert cfg.offset_ticks == 160      # 20 ns
    assert cfg.bin_ticks == 256         # 32 ns
    assert cfg.span_ticks == 8_000_000  # 1000 us


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(coincidence_window=0.0)
    with pytest.raises(ValueError):
        WindowConfig(correlation_bin=-1.0)
    with pytest.raises(ValueError):
        WindowConfig(search_span=0.0)


def _correlated_streams(rng, n_pairs, delay, n_noise=5000, t_max_ticks=4_000_000_000,
                        jitter_ticks=4):
    base = np.sort(rng.integers(0, t_max_ticks, n_pairs))
    a = base + rng.integers(-jitter_ticks, jitter_ticks + 1, n_pairs)
    b = base + delay + rng.integers(-jitter_ticks, jitter_ticks + 1, n_pairs)
    a = np.sort(np.concatenate([a, rng.integers(0, t_max_ticks, n_noise)]))
    b = np.sort(np.concatenate([b, rng.integers(0, t_max_ticks, n_noise)]))
    return np.maximum(a, 0).astype(np.uint64), np.maximum(b, 0).astype(np.uint64)


@pytest.mark.parametrize("delay", [0, 80_000, -3_000_000, 7_500_000])
def test_find_delay_recovers_injected_offset(delay):
    rng = np.random.default_rng(42)
    a, b = _correlated_streams(rng, 20_000, delay)
    est = find_delay(a, b, WindowConfig())
    assert isinstance(est, DelayEstimate)
    assert abs(est.delay_ticks - delay) <= 2
    assert est.confidence >= WindowConfig().peak_threshold


# Delays within 0.2 ns of a 32 ns coarse-bin edge, where a noisier coarse
# scan could pick the neighbouring bin, and the +-950 us of criterion 6.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("bob_delay", [9984.0, 10016.0, 9600.05, 9599.9, 950_000.0, -950_000.0])
def test_find_delay_equals_200k_tag_scan(bob_delay, seed):
    src = JointSegmentSource(ChannelConfig(duration=2.0, bob_delay=bob_delay, rng_seed=seed))
    a, _ = next(src.segments("alice"))
    b, _ = next(src.segments("bob"))
    assert len(a) > 100_000  # well past the 32k-tag coarse budget
    est = find_delay(a, b, WindowConfig())
    assert est.delay_ticks == oracles.find_delay_200k_tags(a, b, WindowConfig()).delay_ticks
    assert abs(est.delay_ticks - bob_delay * 8) <= 2


def test_find_delay_rejects_empty_and_disjoint():
    cfg = WindowConfig()
    with pytest.raises(NoPeakError):
        find_delay(np.empty(0, np.uint64), np.array([1], np.uint64), cfg)
    with pytest.raises(NoPeakError):
        find_delay(np.array([1], np.uint64), np.empty(0, np.uint64), cfg)
    # streams so far apart that nothing falls inside the search span
    a = np.array([0], dtype=np.uint64)
    b = np.array([100_000_000], dtype=np.uint64)
    with pytest.raises(NoPeakError):
        find_delay(a, b, cfg)
    # overlapping ranges but every pairwise difference beyond the span
    a = np.array([0, 1_000_000_000], dtype=np.uint64)
    b = np.array([500_000_000], dtype=np.uint64)
    with pytest.raises(NoPeakError):
        find_delay(a, b, cfg)


def test_find_delay_rejects_uncorrelated_streams():
    rng = np.random.default_rng(3)
    a = np.sort(rng.integers(0, 1_000_000_000, 50_000)).astype(np.uint64)
    b = np.sort(rng.integers(0, 1_000_000_000, 50_000)).astype(np.uint64)
    with pytest.raises(NoPeakError):
        find_delay(a, b, WindowConfig())


@pytest.mark.parametrize("rate", [100.0, 1000.0])
def test_find_delay_rejects_sparse_pair_free_streams(rate):
    # Few tags leave most coarse bins empty, so a bin with a few chance
    # differences passes the peak/background ratio; it is no Poisson outlier.
    for seed in range(1, 11):
        src = JointSegmentSource(ChannelConfig(pair_rate=0.0, background_rate=rate,
                                               duration=1.0, rng_seed=seed))
        a, _ = next(src.segments("alice"))
        b, _ = next(src.segments("bob"))
        with pytest.raises(NoPeakError, match="not significant"):
            find_delay(a, b, WindowConfig())


@given(st.integers(0, 80), st.floats(0.0, 60.0))
@example(1, 0.0)
@example(0, 0.0)
@settings(max_examples=200, deadline=None)
def test_poisson_tail_bounds_the_exact_tail(k, mean):
    got = _poisson_tail(k, mean)
    if k <= mean:
        assert got == 1.0
        return
    m = mp.mpf(mean)
    exact = mp.gammainc(k, 0, m, regularized=True)  # P(X >= k), k >= 1
    # 1e-300 allows for a float that underflows
    assert exact * (1 - 1e-9) - 1e-300 <= got <= exact * (k + 1) / (k + 1 - mean) * (1 + 1e-9)


def test_match_pairs_known_layout():
    cfg = WindowConfig()  # half window 15 ticks
    a = np.array([100, 200, 300, 400], dtype=np.uint64)
    b = np.array([110, 216, 290, 600], dtype=np.uint64)
    ia, ib = match_coincidences(a, b, 0, cfg)
    np.testing.assert_array_equal(ia, [0, 2])   # 100-110 and 300-290
    np.testing.assert_array_equal(ib, [0, 2])   # 200-216 misses by one tick
    ia, ib = match_coincidences(a, b, 10, cfg)  # shift trades 300-290 for 200-216
    np.testing.assert_array_equal(ia, [0, 1])
    np.testing.assert_array_equal(ib, [0, 1])


def test_match_each_tag_used_once():
    cfg = WindowConfig()
    a = np.array([100, 101, 102], dtype=np.uint64)
    b = np.array([100], dtype=np.uint64)
    ia, ib = match_coincidences(a, b, 0, cfg)
    assert len(ia) == 1
    assert ia[0] == 0 and ib[0] == 0  # nearest, ties to the earlier tag


def test_match_empty_inputs():
    cfg = WindowConfig()
    ia, ib = match_coincidences(np.empty(0, np.uint64), np.empty(0, np.uint64), 0, cfg)
    assert len(ia) == 0 and len(ib) == 0
    ia, ib = match_coincidences(np.array([5], np.uint64), np.empty(0, np.uint64), 0, cfg)
    assert len(ia) == 0


sorted_ticks = st.lists(st.integers(0, 400), min_size=0, max_size=30).map(sorted)
unique_ticks = st.lists(st.integers(0, 400), min_size=0, max_size=30, unique=True).map(sorted)


@given(unique_ticks, unique_ticks, st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_match_equals_naive_reference(a_list, b_list, delay):
    cfg = WindowConfig()
    a = np.array(a_list, dtype=np.uint64)
    b = np.array(b_list, dtype=np.uint64)
    ia, ib = match_coincidences(a, b, delay, cfg)
    ra, rb = oracles.naive_mutual_match(a_list, b_list, delay, cfg.half_window_ticks)
    np.testing.assert_array_equal(ia, ra)
    np.testing.assert_array_equal(ib, rb)
    # every pair respects the window, no index repeats
    if len(ia):
        d = b[ib].astype(np.int64) - delay - a[ia].astype(np.int64)
        assert np.abs(d).max() <= cfg.half_window_ticks
    assert len(set(ia.tolist())) == len(ia)
    assert len(set(ib.tolist())) == len(ib)


@given(sorted_ticks, sorted_ticks, st.integers(-50, 50))
@settings(max_examples=150, deadline=None)
def test_match_with_duplicate_ticks(a_list, b_list, delay):
    # equal tick values are interchangeable: which duplicate index gets
    # picked is unspecified, but the paired tick values must agree with
    # the reference and every index may appear only once
    cfg = WindowConfig()
    a = np.array(a_list, dtype=np.uint64)
    b = np.array(b_list, dtype=np.uint64)
    ia, ib = match_coincidences(a, b, delay, cfg)
    ra, rb = oracles.naive_mutual_match(a_list, b_list, delay, cfg.half_window_ticks)
    got = sorted(zip(a[ia].tolist(), b[ib].tolist()))
    want = sorted((a_list[i], b_list[j]) for i, j in zip(ra, rb))
    assert got == want
    assert len(set(ia.tolist())) == len(ia)
    assert len(set(ib.tolist())) == len(ib)
    if len(ia):
        d = b[ib].astype(np.int64) - delay - a[ia].astype(np.int64)
        assert np.abs(d).max() <= cfg.half_window_ticks


@given(sorted_ticks, sorted_ticks, st.integers(-50, 50))
@settings(max_examples=120, deadline=None)
def test_match_symmetric_under_stream_swap(a_list, b_list, delay):
    cfg = WindowConfig()
    a = np.array(a_list, dtype=np.uint64)
    b = np.array(b_list, dtype=np.uint64)
    ia, ib = match_coincidences(a, b, delay, cfg)
    jb, ja = match_coincidences(b, a, -delay, cfg)
    assert set(zip(ia.tolist(), ib.tolist())) == set(zip(ja.tolist(), jb.tolist()))


def test_accidentals_measured_off_peak():
    rng = np.random.default_rng(8)
    a, b = _correlated_streams(rng, 30_000, 4000, n_noise=30_000,
                               t_max_ticks=8_000_000_000)
    cfg = WindowConfig()
    true_pairs = len(match_coincidences(a, b, 4000, cfg)[0])
    acc = count_accidentals(a, b, 4000, cfg)
    assert acc < 0.05 * true_pairs
    # the offset window sees only noise-level coincidences: compare with a
    # deliberately wrong delay
    wrong = len(match_coincidences(a, b, 4000 + cfg.offset_ticks, cfg)[0])
    assert acc == wrong


def test_accidentals_match_rate_product():
    # two independent 1-second Poisson streams at r_a, r_b
    rng = np.random.default_rng(15)
    t = 1.0
    r_a, r_b = 120_000.0, 80_000.0
    a = np.sort(rng.integers(0, seconds_to_ticks(t), rng.poisson(r_a * t))).astype(np.uint64)
    b = np.sort(rng.integers(0, seconds_to_ticks(t), rng.poisson(r_b * t))).astype(np.uint64)
    cfg = WindowConfig()
    acc = count_accidentals(a, b, 0, cfg)
    expected = r_a * r_b * (cfg.window_ticks + 1) * 125e-12 * t
    assert abs(acc - expected) < 6 * np.sqrt(expected)


# ---------------------------------------------------------------------------
# The prefiltered matcher and the chunked delay histogram against the
# former kernels in oracles.py

dense_ticks = st.lists(st.integers(0, 400), max_size=60).map(sorted)


@st.composite
def burst_streams(draw):
    """Two streams clustered around shared burst times, with repeats."""
    centres = draw(st.lists(st.integers(40, 2**40), max_size=4))

    def side():
        return sorted(c + d for c in centres
                      for d in draw(st.lists(st.integers(-40, 40), max_size=12)))
    return side(), side()


@given(st.one_of(st.tuples(dense_ticks, dense_ticks), burst_streams()),
       st.integers(-80, 80),
       st.sampled_from([0.125, 1.0, 3.75, 10.0]),
       st.sampled_from([-20.0, 0.0, 2.5, 20.0]))
@settings(max_examples=300, deadline=None)
def test_match_and_accidentals_equal_full_rounds(streams, delay, window, offset):
    cfg = WindowConfig(coincidence_window=window, accidental_offset=offset)
    a = np.array(streams[0], dtype=np.uint64)
    b = np.array(streams[1], dtype=np.uint64)
    ia, ib = match_coincidences(a, b, delay, cfg)
    ra, rb = oracles.match_coincidences_full_rounds(a, b, delay, cfg)
    np.testing.assert_array_equal(ia, ra)
    np.testing.assert_array_equal(ib, rb)
    assert ia.dtype == ib.dtype == np.int64
    ra, _ = oracles.match_coincidences_full_rounds(a, b, delay + cfg.offset_ticks, cfg)
    assert count_accidentals(a, b, delay, cfg) == len(ra)


@given(st.one_of(st.tuples(dense_ticks, dense_ticks), burst_streams()),
       st.integers(-80, 80), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_match_scans_links_in_steps_of_any_size(streams, delay, step):
    cfg = WindowConfig()
    a = np.array(streams[0], dtype=np.uint64)
    b = np.array(streams[1], dtype=np.uint64)
    with mock.patch.object(timetag, "_LINK_CHUNK", step):
        ia, ib = match_coincidences(a, b, delay, cfg)
    ra, rb = oracles.match_coincidences_full_rounds(a, b, delay, cfg)
    np.testing.assert_array_equal(ia, ra)
    np.testing.assert_array_equal(ib, rb)


def test_a_session_leaves_numpy_ma_unimported():
    # np.union1d imports numpy.ma, ~16 ms on the serial path of a session
    child = ("import sys\n"
             "from bellqkd.physics import ChannelConfig, JointSegmentSource\n"
             "from bellqkd.protocol import SessionConfig, run_inproc_pair\n"
             "src = JointSegmentSource(ChannelConfig(duration=2, rng_seed=3))\n"
             "ra, rb = run_inproc_pair(src.segments('alice'), src.segments('bob'),\n"
             "                         SessionConfig(block_min_key_bits=3000, seed=3))\n"
             "print(ra.done, len(ra.stats), 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bellqkd.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split() == ["True", "1", "False"]


_TOP = MAX_TICK - 1


@st.composite
def clustered_streams(draw):
    """Two streams bunched around shared centres from tick 0 to MAX_TICK - 1.

    A centre can hold tags of one stream or both, repeated ticks within a
    stream and equal ticks across them; near tick 0 a positive delay puts
    Bob's shifted ticks below zero.
    """
    centres = draw(st.lists(st.sampled_from([0, 40, 2**40, _TOP - 40, _TOP])
                            | st.integers(0, _TOP), max_size=5))

    def side():
        return sorted(min(max(c + d, 0), _TOP) for c in centres
                      for d in draw(st.lists(st.integers(-45, 45), max_size=6)))
    return side(), side()


def _keys_fit(a, b, delay):
    """The matcher's documented range: no key can wrap."""
    return all(abs(t) < MAX_TICK for t in (*a, *b, delay, *(t - delay for t in b)))


@given(clustered_streams(), st.integers(-90, 90),
       st.sampled_from([0.125, 1.0, 3.75, 10.0]),
       st.sampled_from([-20.0, 0.0, 2.5, 20.0]))
@example(([100, 100, 105], [100, 103, 103]), 0, 3.75, 20.0)  # repeats in and across streams
@example(([0, 2], [0, 1, 3]), 20, 3.75, 20.0)  # every shifted Bob tick below 0
@example(([_TOP - 1, _TOP], [_TOP]), 0, 1.0, 0.0)
@example(([_TOP], [_TOP]), -1, 1.0, 0.0)  # Bob's shifted tick reaches MAX_TICK
@example(([], []), 0, 3.75, 20.0)
@example(([5], []), 0, 3.75, 20.0)
@example(([], [5]), 0, 3.75, 20.0)
@example(([5], [6]), 0, 0.125, 0.0)  # one tick apart with a zero half window
@settings(max_examples=400, deadline=None)
def test_match_and_accidentals_equal_partner_merge(streams, delay, window, offset):
    cfg = WindowConfig(coincidence_window=window, accidental_offset=offset)
    a = np.array(streams[0], dtype=np.uint64)
    b = np.array(streams[1], dtype=np.uint64)
    if _keys_fit(streams[0], streams[1], delay):
        ia, ib = match_coincidences(a, b, delay, cfg)
        ra, rb = oracles.match_coincidences_partner_merge(a, b, delay, cfg)
        np.testing.assert_array_equal(ia, ra)
        np.testing.assert_array_equal(ib, rb)
        assert ia.dtype == ib.dtype == np.int64
    else:
        with pytest.raises(ValueError):
            match_coincidences(a, b, delay, cfg)
    shifted = delay + cfg.offset_ticks
    if _keys_fit(streams[0], streams[1], shifted):
        ra, _ = oracles.match_coincidences_partner_merge(a, b, shifted, cfg)
        assert count_accidentals(a, b, delay, cfg) == len(ra)
    else:
        with pytest.raises(ValueError):
            count_accidentals(a, b, delay, cfg)


def test_match_refuses_ticks_whose_keys_could_wrap():
    cfg = WindowConfig()
    zero = np.array([0], np.uint64)
    top = np.array([_TOP], np.uint64)
    ia, ib = match_coincidences(top, top, 0, cfg)  # the largest legal tick
    assert ia.tolist() == ib.tolist() == [0]
    ia, ib = match_coincidences(zero, top, _TOP, cfg)  # the largest legal delay
    assert ia.tolist() == ib.tolist() == [0]
    for a, b, delay in [
        (np.array([MAX_TICK], np.uint64), zero, 0),
        (zero, np.array([0, 2**64 - 1], np.uint64), 0),
        (zero, zero, MAX_TICK),
        (zero, zero, -MAX_TICK),
        (zero, top, -1),  # Bob's shifted tick reaches MAX_TICK
    ]:
        with pytest.raises(ValueError, match="within"):
            match_coincidences(a, b, delay, cfg)


def _full_chunks_histogram(a, b, span, binw, max_diffs):
    nbins = 2 * (span // binw) + 1
    return oracles.difference_histogram_full_chunks(
        a, b, span, nbins,
        lambda d: np.clip((d + span) // binw, 0, nbins - 1).astype(np.int64), max_diffs)


@given(st.lists(st.integers(0, 3000), max_size=80).map(sorted),
       st.lists(st.integers(0, 3000), max_size=80).map(sorted),
       st.integers(1, 700), st.integers(1, 64), st.integers(0, 3000))
@example([100], [104, 105], 5, 3, 100)  # both differences land past the last bin
@settings(max_examples=300, deadline=None)
def test_difference_histogram_equals_full_chunks(a_list, b_list, span, binw, max_diffs):
    a = np.array(a_list, dtype=np.int64)
    b = np.array(b_list, dtype=np.int64)
    hist, total = _difference_histogram(a, b, span, binw, max_diffs)
    want_hist, want_total = _full_chunks_histogram(a, b, span, binw, max_diffs)
    np.testing.assert_array_equal(hist, want_hist)
    assert total == want_total
    assert hist.sum() == total


@given(st.integers(0, 2**32 - 1), st.integers(20_001, 65_000), st.floats(0.0, 1.2))
@settings(max_examples=25, deadline=None)
def test_difference_histogram_truncates_like_full_chunks(seed, n_a, cap_fraction):
    # a stream longer than one 20k-tag stop stretch, and a max_diffs cap
    # anywhere from 0 to past the full count
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 200_000, n_a))
    b = np.sort(rng.integers(0, 200_000, 30_000))
    span, binw = 38, 5  # bins 0 .. 14, and (38 + 38) // 5 = 15 folds into 14
    full = _difference_histogram(a, b, span, binw)[1]
    cap = int(cap_fraction * full)
    hist, total = _difference_histogram(a, b, span, binw, cap)
    want_hist, want_total = _full_chunks_histogram(a, b, span, binw, cap)
    np.testing.assert_array_equal(hist, want_hist)
    assert total == want_total
    if cap < full * (20_000 / n_a) * 0.9:
        assert total < full  # the cap cut the histogram short


@given(st.integers(0, 2**32 - 1), st.integers(0, 65_000), st.integers(-60, 60),
       st.floats(0.0, 1.2), st.sampled_from([_HIST_STOP_CHUNK, 2_500]))
@settings(max_examples=25, deadline=None)
def test_difference_histogram_is_the_same_in_any_chunking(seed, n_a, shift, cap_fraction, chunk):
    # find_delay's fine stage bins a whole stop stretch of tags at a time
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 200_000, n_a))
    b = np.sort(rng.integers(0, 200_000, 30_000))
    span, binw = 12, 1
    full = _difference_histogram(a, b, span, binw, shift=shift)[1]
    cap = int(cap_fraction * full)
    hist, total = _difference_histogram(a, b, span, binw, cap, shift, chunk=chunk)
    want_hist, want_total = _difference_histogram(a, b, span, binw, cap, shift)
    np.testing.assert_array_equal(hist, want_hist)
    assert total == want_total


# ---------------------------------------------------------------------------
# Tag files

def test_tag_file_roundtrip(tmp_path):
    path = tmp_path / "alice.tags"
    ticks = np.array([1, 5, 5, 2**40], dtype=np.uint64)
    dets = np.array([1, 6, 2, 3], dtype=np.uint8)
    write_tag_file(path, "alice", ticks, dets)
    side, r_ticks, r_dets = read_tag_file(path)
    assert side == "alice"
    np.testing.assert_array_equal(r_ticks, ticks)
    np.testing.assert_array_equal(r_dets, dets)
    write_tag_file(path, "bob", ticks[:1], dets[:1])
    assert read_tag_file(path)[0] == "bob"


def test_tag_file_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_tag_file(tmp_path / "x", "eve", np.array([1], np.uint64), np.array([1], np.uint8))
    with pytest.raises(ValueError):
        write_tag_file(tmp_path / "x", "alice", np.array([1], np.uint64), np.array([], np.uint8))


def test_tag_file_rejects_corruption(tmp_path):
    path = tmp_path / "t.tags"
    write_tag_file(path, "alice", np.array([7], np.uint64), np.array([2], np.uint8))
    raw = path.read_bytes()

    (tmp_path / "magic").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(TagFileError, match="not a time-tag"):
        read_tag_file(tmp_path / "magic")

    (tmp_path / "ver").write_bytes(raw[:4] + bytes([9]) + raw[5:])
    with pytest.raises(TagFileError, match="version"):
        read_tag_file(tmp_path / "ver")

    (tmp_path / "side").write_bytes(raw[:5] + bytes([2]) + raw[6:])
    with pytest.raises(TagFileError, match="side"):
        read_tag_file(tmp_path / "side")

    (tmp_path / "trunc").write_bytes(raw[:-3])
    with pytest.raises(TagFileError, match="truncated"):
        read_tag_file(tmp_path / "trunc")

    (tmp_path / "short").write_bytes(raw[:3])
    with pytest.raises(TagFileError):
        read_tag_file(tmp_path / "short")
