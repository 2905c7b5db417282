"""Channel model: analytic tables, routing, event generation, segmenting."""

import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bellqkd.physics import (
    ALICE_ANGLES,
    ALICE_DETECTORS,
    ALICE_ROUTING,
    BOB_ANGLES,
    BOB_DETECTORS,
    BOB_ROUTING,
    AliceSetting,
    AttackConfig,
    BobSetting,
    CHSH_SIGNS,
    CHSH_TERMS,
    ChannelConfig,
    GroundTruth,
    JointSegmentSource,
    MAX_KEY_SPAN,
    RangeError,
    analytic_chsh,
    analytic_qber,
    boundary_slack_s,
    check_run_bounds,
    generate_event_streams,
    intercept_resend_correlation,
    intercept_resend_probability,
    joint_probability,
    route_detection,
    singlet_correlation,
    _detector_ids,
    _merge_sorted,
    _pair_correlation,
)
from bellqkd.timetag import TICK_SECONDS

SQRT2 = math.sqrt(2.0)

angles = st.floats(-360.0, 360.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Analytic correlation tables vs state-vector oracles

def test_singlet_tables_match_state_vector_trace():
    cases = [(0.0, 45.0, 1.0), (22.5, 0.0, 1.0), (157.5, 45.0, 0.8839),
             (10.0, 70.0, 0.94), (0.0, 0.0, 0.5), (22.5, 45.0, 0.0)]
    for ta, tb, v in cases:
        table = joint_probability(ta, tb, v)
        for row, i in ((0, 1), (1, -1)):
            for col, j in ((0, 1), (1, -1)):
                want = oracles.werner_joint_probability(ta, tb, i, j, v)
                assert table[row, col] == pytest.approx(want, abs=1e-12)
        e = singlet_correlation(ta, tb, v)
        want_e = oracles.correlation_from_table(
            lambda i, j: oracles.werner_joint_probability(ta, tb, i, j, v))
        assert e == pytest.approx(want_e, abs=1e-12)


def test_key_angle_probability_frozen():
    # P(+,+) at (22.5, 0), ideal singlet: sin^2(22.5 deg) / 2
    table = joint_probability(22.5, 0.0, 1.0)
    assert table[0, 0] == pytest.approx(math.sin(math.radians(22.5)) ** 2 / 2, abs=1e-12)
    assert table[0, 0] == pytest.approx(0.07322330470336312, abs=1e-12)


def test_equal_angles_perfectly_anticorrelated():
    for t in (0.0, 22.5, 45.0, 157.5):
        assert singlet_correlation(t, t, 1.0) == pytest.approx(-1.0, abs=1e-12)
        table = joint_probability(t, t, 1.0)
        assert table[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_intercept_resend_tables_match_enumeration():
    cases = [(0.0, 0.0, 0.0), (22.5, 45.0, 0.0), (22.5, 0.0, 0.0),
             (157.5, 0.0, 30.0), (157.5, 45.0, 0.0), (10.0, 80.0, 22.5)]
    for ta, tb, e_ang in cases:
        table = intercept_resend_probability(ta, tb, e_ang)
        for row, i in ((0, 1), (1, -1)):
            for col, j in ((0, 1), (1, -1)):
                want = oracles.intercept_resend_joint_probability(ta, tb, i, j, e_ang)
                assert table[row, col] == pytest.approx(want, abs=1e-12)


def test_intercept_resend_pinned_values():
    # eavesdropping in the exact key basis preserves the anti-correlation
    assert intercept_resend_correlation(0.0, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    # 90 deg between Bob and Eve kills the correlation entirely
    assert intercept_resend_correlation(22.5, 45.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert intercept_resend_correlation(22.5, 0.0, 0.0) == pytest.approx(-math.cos(math.radians(45.0)), abs=1e-12)


@given(angles, angles, st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_tables_are_distributions(ta, tb, v):
    table = joint_probability(ta, tb, v)
    assert (table >= -1e-12).all()
    assert table.sum() == pytest.approx(1.0, abs=1e-9)
    # uniform marginals on both sides
    np.testing.assert_allclose(table.sum(axis=0), [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(table.sum(axis=1), [0.5, 0.5], atol=1e-9)


@given(angles, angles, angles)
@settings(max_examples=60, deadline=None)
def test_attack_tables_are_distributions(ta, tb, e_ang):
    table = intercept_resend_probability(ta, tb, e_ang)
    assert (table >= -1e-12).all()
    assert table.sum() == pytest.approx(1.0, abs=1e-9)


def test_visibility_validated():
    with pytest.raises(ValueError):
        singlet_correlation(0.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        singlet_correlation(0.0, 0.0, -0.1)


# ---------------------------------------------------------------------------
# Station layout and analytic pipeline-level quantities

def test_standard_geometry_layout():
    assert ALICE_ANGLES == (0.0, 22.5, 157.5)
    assert BOB_ANGLES == (0.0, 45.0)
    assert ALICE_DETECTORS == ((1, 2), (3, 4), (5, 6))
    assert BOB_DETECTORS == ((1, 2), (3, 4))


def test_ideal_chsh_hits_quantum_bound():
    ch = ChannelConfig(visibility_hv=1.0, visibility_diag=1.0)
    s = analytic_chsh(ch)
    assert s == pytest.approx(-2.0 * SQRT2, abs=1e-12)


def test_chsh_scales_with_diag_visibility_only():
    # the key-basis visibility never enters the Bell terms
    for v_diag in (1.0, 0.8839, 0.6, 0.2):
        for v_hv in (1.0, 0.94, 0.3):
            ch = ChannelConfig(visibility_hv=v_hv, visibility_diag=v_diag)
            assert analytic_chsh(ch) == pytest.approx(-2.0 * SQRT2 * v_diag, abs=1e-12)
    # operating point: V_diag = 0.8839 puts |S| at 2.5
    ch = ChannelConfig()
    assert abs(analytic_chsh(ch)) == pytest.approx(2.50005, abs=2e-4)


def test_chsh_attack_mix_linear_in_p():
    # V=1 channel: |S(p)| = 2*sqrt(2) - p*sqrt(2)
    ch = ChannelConfig(visibility_hv=1.0, visibility_diag=1.0)
    for p in (0.0, 0.232, 0.5, 1.0):
        s = analytic_chsh(ch, AttackConfig(intercept_fraction=p))
        assert abs(s) == pytest.approx(2.0 * SQRT2 - p * SQRT2, abs=1e-12)
    assert abs(analytic_chsh(ch, AttackConfig(intercept_fraction=0.232))) == pytest.approx(2.5003, abs=1e-4)
    assert abs(analytic_chsh(ch, AttackConfig(intercept_fraction=1.0))) == pytest.approx(SQRT2, abs=1e-12)


def test_qber_from_key_visibility():
    assert analytic_qber(ChannelConfig()) == pytest.approx((1 - 0.94) / 2, abs=1e-12)
    assert analytic_qber(ChannelConfig(visibility_hv=1.0)) == 0.0
    # a key-basis eavesdropper adds no key errors on an ideal channel
    ch = ChannelConfig(visibility_hv=1.0, visibility_diag=1.0)
    assert analytic_qber(ch, AttackConfig(intercept_fraction=1.0)) == pytest.approx(0.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError, match="pair_rate"):
        ChannelConfig(pair_rate=-5)
    with pytest.raises(ValueError, match="loss_db_bob"):
        ChannelConfig(loss_db_bob=-1)
    with pytest.raises(ValueError, match="detector_efficiency"):
        ChannelConfig(detector_efficiency=1.2)
    with pytest.raises(ValueError, match="visibility_hv"):
        ChannelConfig(visibility_hv=2)
    with pytest.raises(ValueError, match="jitter_sigma"):
        ChannelConfig(jitter_sigma=-0.5)
    with pytest.raises(ValueError, match="duration"):
        ChannelConfig(duration=-1)
    with pytest.raises(ValueError, match="intercept_fraction"):
        AttackConfig(intercept_fraction=1.01)
    assert ChannelConfig(loss_db_bob=3.0).bob_transmission == pytest.approx(0.501187, abs=1e-6)


def test_routing_fractions():
    rng = np.random.default_rng(4)
    n = 200_000
    a = route_detection("alice", rng, n)
    b = route_detection("bob", rng, n)
    for setting, p in ALICE_ROUTING.items():
        frac = np.mean(a == setting)
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / n)
    for setting, p in BOB_ROUTING.items():
        frac = np.mean(b == setting)
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / n)
    assert isinstance(route_detection("alice", rng), AliceSetting)
    assert isinstance(route_detection("bob", rng), BobSetting)
    with pytest.raises(ValueError):
        route_detection("eve", rng)


# ---------------------------------------------------------------------------
# Event-stream generation

def _small_channel(**kw):
    base = dict(pair_rate=20000.0, loss_db_bob=0.0, background_rate=0.0,
                visibility_hv=1.0, visibility_diag=1.0, duration=2.0,
                jitter_sigma=0.5, bob_delay=500.0, rng_seed=11)
    base.update(kw)
    return ChannelConfig(**base)


def test_streams_deterministic_and_sorted():
    ch = _small_channel()
    s1 = generate_event_streams(ch)
    s2 = generate_event_streams(ch)
    np.testing.assert_array_equal(s1.alice_ticks, s2.alice_ticks)
    np.testing.assert_array_equal(s1.bob_detectors, s2.bob_detectors)
    assert (np.diff(s1.alice_ticks.astype(np.int64)) >= 0).all()
    assert (np.diff(s1.bob_ticks.astype(np.int64)) >= 0).all()
    s3 = generate_event_streams(ChannelConfig(**{**ch.__dict__, "rng_seed": 12}))
    assert not np.array_equal(s1.alice_ticks, s3.alice_ticks)


def test_stream_detector_ranges_and_types():
    ch = ChannelConfig(duration=1.0)  # paper-like defaults, with background
    s = generate_event_streams(ch)
    assert s.alice_ticks.dtype == np.uint64
    assert s.alice_detectors.min() >= 1 and s.alice_detectors.max() <= 6
    assert s.bob_detectors.min() >= 1 and s.bob_detectors.max() <= 4
    assert len(s.alice_ticks) == len(s.alice_detectors)
    assert len(s.bob_ticks) == len(s.bob_detectors)


def test_stream_contents_equal_ground_truth_when_no_background():
    ch = _small_channel(duration=1.0)
    s = generate_event_streams(ch, ground_truth=True)
    t = s.ground_truth
    assert len(s.alice_ticks) == int(t.alice_detected.sum())
    assert len(s.bob_ticks) == int(t.bob_detected.sum())
    # detector ids reconstruct from setting + outcome via the station layout
    det = np.where(t.alice_outcome > 0,
                   np.array([p for p, _ in ALICE_DETECTORS])[t.alice_setting],
                   np.array([m for _, m in ALICE_DETECTORS])[t.alice_setting])
    mine = sorted(zip(t.alice_tick[t.alice_detected].tolist(),
                      det[t.alice_detected].tolist()))
    theirs = sorted(zip(s.alice_ticks.tolist(), s.alice_detectors.tolist()))
    assert mine == theirs


def test_key_branch_exactly_anticorrelated_at_full_visibility():
    ch = _small_channel(duration=1.0)
    t = generate_event_streams(ch, ground_truth=True).ground_truth
    key = (t.alice_setting == AliceSetting.KEY) & (t.bob_setting == BobSetting.KEY)
    assert key.sum() > 1000
    assert np.all(t.alice_outcome[key] == -t.bob_outcome[key])


def test_bell_branch_statistics_follow_tables():
    ch = _small_channel(duration=2.0)
    t = generate_event_streams(ch, ground_truth=True).ground_truth
    for (sa, sb), sign in zip(CHSH_TERMS, CHSH_SIGNS):
        m = (t.alice_setting == sa) & (t.bob_setting == sb)
        n = int(m.sum())
        e_hat = float(np.mean(t.alice_outcome[m] * t.bob_outcome[m]))
        e_true = singlet_correlation(ALICE_ANGLES[sa], BOB_ANGLES[sb], 1.0)
        assert abs(e_hat - e_true) < 5 * math.sqrt((1 - e_true**2) / n) + 1e-9


def test_attacked_fraction_and_correlation():
    ch = _small_channel(duration=2.0)
    atk = AttackConfig(intercept_fraction=0.3)
    t = generate_event_streams(ch, atk, ground_truth=True).ground_truth
    frac = t.attacked.mean()
    assert abs(frac - 0.3) < 5 * math.sqrt(0.3 * 0.7 / t.pair_count)
    # attacked DIAG-KEY pairs follow the product-state correlation (zero
    # for Eve at 0 deg with Bob at 45), unattacked ones stay entangled
    m = (t.alice_setting == AliceSetting.BELL_1) & (t.bob_setting == BobSetting.DIAG)
    e_att = float(np.mean(t.alice_outcome[m & t.attacked] * t.bob_outcome[m & t.attacked]))
    e_free = float(np.mean(t.alice_outcome[m & ~t.attacked] * t.bob_outcome[m & ~t.attacked]))
    n_att = int((m & t.attacked).sum())
    n_free = int((m & ~t.attacked).sum())
    assert abs(e_att - 0.0) < 5 / math.sqrt(n_att)
    e_want = singlet_correlation(22.5, 45.0, 1.0)
    assert abs(e_free - e_want) < 5 * math.sqrt((1 - e_want**2) / n_free)


def test_loss_reduces_bob_detections():
    ch = _small_channel(loss_db_bob=3.0, duration=1.0)
    t = generate_event_streams(ch, ground_truth=True).ground_truth
    trans = 10 ** (-0.3)
    frac = t.bob_detected.mean()
    assert abs(frac - trans) < 5 * math.sqrt(trans * (1 - trans) / t.pair_count)
    assert t.alice_detected.all()  # no loss configured on Alice's arm


def test_negative_delay_keeps_ticks_nonnegative():
    ch = _small_channel(bob_delay=-5000.0, duration=0.5)
    s = generate_event_streams(ch)
    assert int(s.bob_ticks.min()) >= 0
    assert int(s.alice_ticks.min()) >= 0


def test_zero_duration_gives_empty_streams():
    s = generate_event_streams(ChannelConfig(duration=0.0))
    assert len(s.alice_ticks) == 0 and len(s.bob_ticks) == 0


@st.composite
def _stream_configs(draw):
    """A channel, an attack and a [t_start, t_stop) for one stream draw.

    Spans of a few microseconds at rates up to 2e9/s put many tags on
    one 125 ps tick, within the pair run and across runs.
    """
    rate = st.one_of(st.just(0.0), st.floats(7.5, 9.3).map(lambda e: 10.0 ** e))
    channel = ChannelConfig(
        pair_rate=draw(rate),
        background_rate=draw(rate),
        loss_db_bob=draw(st.sampled_from([0.0, 3.0])),
        detector_efficiency=draw(st.sampled_from([1.0, 0.6])),
        jitter_sigma=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        bob_delay=draw(st.floats(-5000.0, 5000.0)),
        duration=10.0,
        rng_seed=draw(st.integers(0, 2**32)),
    )
    attack = AttackConfig(intercept_fraction=draw(st.sampled_from([0.0, 0.35, 1.0])),
                          attack_basis=draw(st.floats(-90.0, 90.0)))
    t_start = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    t_stop = t_start + draw(st.floats(1e-7, 3e-6))
    return channel, attack, t_start, t_stop


@given(case=_stream_configs(), truth=st.booleans())
@settings(max_examples=150, deadline=None)
@example(case=(_small_channel(pair_rate=2e9, background_rate=2e9, jitter_sigma=0.0,
                              bob_delay=-2000.0), AttackConfig(), 0.5, 0.5 + 1e-6), truth=True)
@example(case=(_small_channel(pair_rate=2e9, background_rate=2e9, jitter_sigma=0.0,
                              bob_delay=-2000.0), AttackConfig(), 0.5, 0.5 + 1e-6), truth=False)
@example(case=(_small_channel(pair_rate=0.0, background_rate=1e9), AttackConfig(), 0.0, 2e-6),
         truth=True)
@example(case=(_small_channel(pair_rate=1e9, background_rate=0.0, jitter_sigma=0.0,
                              detector_efficiency=0.6),
               AttackConfig(intercept_fraction=0.5), 0.25, 0.25 + 2e-6), truth=False)
@example(case=(_small_channel(pair_rate=0.0, background_rate=0.0), AttackConfig(), 0.0, 1e-6),
         truth=False)
@example(case=(_small_channel(pair_rate=1e9, background_rate=1e9), AttackConfig(), 0.5, 0.5),
         truth=True)
def test_event_streams_equal_stable_sort_oracle(case, truth):
    # The oracle draws the pairs as the former _sample_pairs did, each into
    # a fresh array, so equal bytes mean the same draws in the same order.
    channel, attack, t_start, t_stop = case
    got = generate_event_streams(channel, attack, ground_truth=truth,
                                 rng=np.random.default_rng(channel.rng_seed),
                                 t_start=t_start, t_stop=t_stop)
    want = oracles.generate_event_streams_stable_sorts(
        channel, attack, ground_truth=truth, rng=np.random.default_rng(channel.rng_seed),
        t_start=t_start, t_stop=t_stop)
    for name in ("alice_ticks", "alice_detectors", "bob_ticks", "bob_detectors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.ground_truth is None) == (want.ground_truth is None) == (not truth)
    for f in fields(GroundTruth) if truth else ():
        a, b = getattr(got.ground_truth, f.name), getattr(want.ground_truth, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


@given(seed=st.integers(0, 2**32), vis=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       fraction=st.sampled_from([0.0, 0.35, 1.0]), basis=st.floats(-360.0, 360.0))
@settings(max_examples=100, deadline=None)
def test_pair_tables_equal_per_pair_oracles(seed, vis, fraction, basis):
    rng = np.random.default_rng(seed)
    channel = ChannelConfig(visibility_hv=vis[0], visibility_diag=vis[1])
    attack = AttackConfig(intercept_fraction=fraction, attack_basis=basis)
    n = 500
    a_set = route_detection("alice", rng, n)
    b_set = route_detection("bob", rng, n)
    attacked = rng.random(n) < fraction
    got = _pair_correlation(a_set, b_set, attacked, channel, attack)
    want = oracles.pair_correlation_by_angles(a_set, b_set, attacked, channel, attack)
    assert got.tobytes() == want.tobytes()
    outcomes = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    for settings_, table in ((a_set, ALICE_DETECTORS), (b_set, BOB_DETECTORS)):
        got = _detector_ids(settings_, outcomes, table)
        want = oracles.detector_ids_by_where(settings_, outcomes, table)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_key_span_bound():
    # Ticks are sorted as (tick - segment start) << 3 in an int64, so a
    # raw segment plus the boundary slack must span under 2**60 ticks.
    ch = _small_channel(pair_rate=0.0, duration=2e8)
    limit_s = MAX_KEY_SPAN * TICK_SECONDS - boundary_slack_s(ch)
    with pytest.raises(ValueError, match="2\\*\\*60"):
        generate_event_streams(ch, t_start=1.0, t_stop=1.0 + limit_s * (1 + 1e-12))
    empty = generate_event_streams(ch, t_start=1.0, t_stop=1.0 + limit_s * (1 - 1e-12))
    assert len(empty.alice_ticks) == len(empty.bob_ticks) == 0
    for seconds in (limit_s, 2e8):
        with pytest.raises(RangeError) as exc:
            check_run_bounds(ch, seconds)
        assert exc.value.field == "segment_seconds" and "2**60" in str(exc.value)
    check_run_bounds(ch, limit_s * (1 - 1e-9))
    # a short run is never cut into spans that long
    check_run_bounds(_small_channel(pair_rate=0.0, duration=1.0), 2e8)


# ---------------------------------------------------------------------------
# Segmented generation

def test_segment_source_counts_and_boundaries():
    ch = _small_channel(duration=3.2, bob_delay=800.0)
    src = JointSegmentSource(ch, segment_seconds=1.0)
    assert src.n_segments == 4
    segs = list(src.segments("alice"))
    assert len(segs) == 4
    for k, (ticks, dets) in enumerate(segs[:-1]):
        assert len(ticks) == len(dets)
        boundary = src._boundary_tick(k + 1)
        if len(ticks):
            assert int(ticks.max()) < boundary
            assert (np.diff(ticks.astype(np.int64)) >= 0).all()
    # the last segment flushes the remainder
    total = sum(len(t) for t, _ in segs)
    assert total > 0


def test_segment_concatenation_is_deterministic_and_sorted():
    ch = _small_channel(duration=2.5)
    a1 = np.concatenate([t for t, _ in JointSegmentSource(ch).segments("alice")])
    a2 = np.concatenate([t for t, _ in JointSegmentSource(ch).segments("alice")])
    np.testing.assert_array_equal(a1, a2)
    assert (np.diff(a1.astype(np.int64)) >= 0).all()


def test_both_sides_can_interleave():
    ch = _small_channel(duration=2.0)
    src = JointSegmentSource(ch)
    seq = list(zip(src.segments("alice"), src.segments("bob")))
    ref = JointSegmentSource(ch)
    ref_a = list(ref.segments("alice"))
    ref_b = list(ref.segments("bob"))
    assert len(seq) == len(ref_a) == len(ref_b)
    for (a, b), ra, rb in zip(seq, ref_a, ref_b):
        np.testing.assert_array_equal(a[0], ra[0])
        np.testing.assert_array_equal(b[0], rb[0])


def _pull(segments, out, wait, signal):
    """Take every segment of ``segments`` into ``out`` as bytes, acquiring
    ``wait`` before each take and releasing ``signal`` after it."""
    while True:
        assert wait.acquire(timeout=30)
        seg = next(segments, None)
        signal.release()
        if seg is None:
            return
        out.append((seg[0].tobytes(), seg[1].tobytes()))


@given(duration=st.floats(0.0, 3.0), seg_s=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
       attacked=st.booleans(), bob_ahead=st.integers(1, 2), alice_ahead=st.integers(0, 2),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_concurrent_sides_get_the_segments_of_one_thread(duration, seg_s, attacked, bob_ahead,
                                                         alice_ahead, seed):
    """The source's contract: one consumer per side, and the lock guards
    generation only.  Alice's and Bob's threads pull one source at once;
    each gets, in order, the bytes one thread gets by pulling both sides
    in turn.  Bob runs up to ``bob_ahead`` segments ahead of Alice, as in
    a session, where he takes segment k+1 before she takes k.  With
    ``alice_ahead`` > 0 Alice may lead too, so that both sides find their
    queues empty at once and race for the lock."""
    ch = _small_channel(duration=duration, background_rate=2000.0, rng_seed=seed)
    attack = AttackConfig(intercept_fraction=0.5 if attacked else 0.0)
    src = JointSegmentSource(ch, attack, segment_seconds=seg_s)
    # each side's takes left before it must wait for the other side's next take
    alice_may, bob_may = threading.Semaphore(alice_ahead), threading.Semaphore(bob_ahead)
    got = {"alice": [], "bob": []}
    threads = [
        threading.Thread(target=_pull, args=(src.segments("alice"), got["alice"],
                                             alice_may, bob_may)),
        threading.Thread(target=_pull, args=(src.segments("bob"), got["bob"],
                                             bob_may, alice_may)),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside generation too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)

    ref = JointSegmentSource(ch, attack, segment_seconds=seg_s)
    turns = list(zip(ref.segments("alice"), ref.segments("bob")))
    assert len(turns) == ref.n_segments
    for k, side in enumerate(("alice", "bob")):
        assert got[side] == [(seg[k][0].tobytes(), seg[k][1].tobytes()) for seg in turns]


def test_a_ready_segment_is_taken_while_the_other_side_generates(monkeypatch):
    src = JointSegmentSource(_small_channel(duration=4.0))
    alice, bob = src.segments("alice"), src.segments("bob")
    next(bob)  # generates segment 0 of both sides
    generating, release = threading.Event(), threading.Event()
    generate = src._generate_raw

    def held(k):
        generating.set()
        release.wait(30)
        return generate(k)

    monkeypatch.setattr(src, "_generate_raw", held)
    ahead = threading.Thread(target=next, args=(bob,))  # Bob's segment 1, under the lock
    ahead.start()
    assert generating.wait(30)
    got = []
    taker = threading.Thread(target=lambda: got.append(next(alice)))
    taker.start()
    try:
        taker.join(2.0)
        assert got, "Alice's ready segment 0 waited for Bob's generation"
    finally:
        release.set()
        ahead.join()
        taker.join()


def _tag_run(draw, ticks):
    ticks = sorted(ticks)
    dets = draw(st.lists(st.integers(1, 6), min_size=len(ticks), max_size=len(ticks)))
    return np.array(ticks, dtype=np.uint64), np.array(dets, dtype=np.uint8)


@st.composite
def _two_sorted_runs(draw):
    """Two sorted tick runs: independent, identical, disjoint or nested."""
    t1 = draw(st.lists(st.integers(0, 60), max_size=40))
    kind = draw(st.sampled_from(["independent", "identical", "disjoint", "inside"]))
    if kind == "identical":
        t2 = list(t1)
    elif kind == "disjoint":
        t2 = [t + max(t1, default=0) + draw(st.integers(0, 1)) for t in t1]
    elif kind == "inside":
        t2 = sorted(t1)[len(t1) // 3 : 2 * len(t1) // 3]
    else:
        t2 = draw(st.lists(st.integers(0, 60), max_size=40))
    return _tag_run(draw, t1) + _tag_run(draw, t2)


def _ids(*pairs):
    return (np.array([t for t, _ in pairs], np.uint64), np.array([d for _, d in pairs], np.uint8))


@given(runs=_two_sorted_runs())
@settings(max_examples=300, deadline=None)
@example(runs=_ids((1, 1), (5, 2), (5, 3)) + _ids((5, 4), (5, 5), (9, 6)))  # ties across runs
@example(runs=_ids() + _ids((3, 1)))
@example(runs=_ids((3, 1)) + _ids())
@example(runs=_ids() + _ids())
@example(runs=_ids((1, 1), (2, 2)) + _ids((3, 3), (4, 4)))  # disjoint
@example(runs=_ids((3, 3), (4, 4)) + _ids((1, 1), (2, 2)))  # disjoint, reversed
@example(runs=_ids((1, 1), (9, 2)) + _ids((4, 3), (5, 4)))  # one inside the other
def test_merge_sorted_equals_stable_sort(runs):
    t1, d1, t2, d2 = runs
    ticks, dets = _merge_sorted(t1, d1, t2, d2)
    all_t = np.concatenate([t1, t2])
    order = np.argsort(all_t, kind="stable")
    assert ticks.dtype == np.uint64 and dets.dtype == np.uint8
    np.testing.assert_array_equal(ticks, all_t[order])
    np.testing.assert_array_equal(dets, np.concatenate([d1, d2])[order])


def test_segment_source_equals_sorted_raw_streams():
    # (channel overrides, attack, segment seconds); 1.1 s and 2.5 s are
    # not whole numbers of segments
    sweep = [
        (dict(bob_delay=-3000.0, background_rate=2000.0, duration=1.1), AttackConfig(), 0.25),
        (dict(pair_rate=200000.0, jitter_sigma=4000.0, bob_delay=-3000.0,
              background_rate=2000.0, duration=1.1, rng_seed=3), AttackConfig(), 0.25),
        (dict(pair_rate=0.0, background_rate=5000.0, duration=2.5), AttackConfig(), 1.0),
        (dict(background_rate=0.0, bob_delay=800.0), AttackConfig(), 1.0),
        (dict(background_rate=1000.0, duration=1.5),
         AttackConfig(intercept_fraction=0.5), 0.5),
        (dict(pair_rate=0.0, background_rate=0.0, duration=1.0), AttackConfig(), 0.5),
    ]
    overlapped = False
    for kw, attack, seg_s in sweep:
        src = JointSegmentSource(_small_channel(**kw), attack, segment_seconds=seg_s)
        raws = [src._generate_raw(k) for k in range(src.n_segments)]
        for side in ("alice", "bob"):
            segs = list(src.segments(side))
            assert len(segs) == src.n_segments
            raw_t = np.concatenate([getattr(r, f"{side}_ticks") for r in raws])
            raw_d = np.concatenate([getattr(r, f"{side}_detectors") for r in raws])
            order = np.argsort(raw_t, kind="stable")
            overlapped |= bool((order != np.arange(len(order))).any())
            np.testing.assert_array_equal(np.concatenate([t for t, _ in segs]), raw_t[order])
            np.testing.assert_array_equal(np.concatenate([d for _, d in segs]), raw_d[order])
            for k, (ticks, _) in enumerate(segs[:-1]):
                if len(ticks):
                    assert int(ticks[-1]) < src._boundary_tick(k + 1)
                    assert k == 0 or int(ticks[0]) >= src._boundary_tick(k)
    # jitter or the delay must have carried some tags across a boundary
    assert overlapped


@st.composite
def _source_configs(draw):
    """A channel and a segment length for the segment source: Bob's delay
    negative, zero or large, jitter up to 5 ns, segments from just above
    the boundary slack up, durations that need not be whole segments, and
    rates down to raw segments with no tags at all."""
    delay = draw(st.sampled_from([-400_000.0, -3000.0, 0.0, 500.0, 10_000.0, 400_000.0]))
    jitter = draw(st.floats(0.0, 5.0))
    slack = boundary_slack_s(_small_channel(bob_delay=delay, jitter_sigma=jitter))
    seg_s = draw(st.one_of(st.floats(1.0 + 1e-9, 1.01).map(lambda f: slack * f),
                           st.sampled_from([5e-4, 0.01, 0.25]).filter(lambda s: s > slack)))
    per_segment = draw(st.sampled_from([0.0, 0.3, 3.0, 200.0]))  # expected pair tags
    background = draw(st.sampled_from([0.0, 0.2]))  # of the pair rate, per detector
    ch = _small_channel(
        bob_delay=delay, jitter_sigma=jitter, pair_rate=per_segment / seg_s,
        background_rate=background * per_segment / seg_s,
        duration=seg_s * draw(st.floats(0.5, 6.0)), rng_seed=draw(st.integers(0, 2**16)))
    return ch, seg_s


@given(config=_source_configs(), attacked=st.booleans())
@settings(max_examples=100, deadline=None)
def test_segment_source_equals_the_former_merge_and_cut(config, attacked):
    ch, seg_s = config
    attack = AttackConfig(intercept_fraction=0.5 if attacked else 0.0)
    src = JointSegmentSource(ch, attack, segment_seconds=seg_s)
    ref = oracles.RemergingSegmentSource(ch, attack, segment_seconds=seg_s)
    for side in ("alice", "bob"):
        got, want = list(src.segments(side)), list(ref.segments(side))
        assert len(got) == len(want) == src.n_segments
        for (ticks, dets), (ref_ticks, ref_dets) in zip(got, want):
            assert ticks.dtype == ref_ticks.dtype == np.uint64
            assert dets.dtype == ref_dets.dtype == np.uint8
            np.testing.assert_array_equal(ticks, ref_ticks)
            np.testing.assert_array_equal(dets, ref_dets)


def test_a_segment_pins_no_more_than_its_own_raw_segment():
    # Each segment is cut from its own raw segment's arrays (Bob's from
    # the carry copied from them), so the buffer behind it holds little
    # more than the segment: not the two raw segments a merge would span.
    src = JointSegmentSource(ChannelConfig(duration=4.0))
    assert src.n_segments == 4
    for side in ("alice", "bob"):
        for ticks, dets in src.segments(side):
            for part in (ticks, dets):
                owner = part if part.base is None else part.base
                assert part.nbytes > 0 and owner.nbytes <= 1.01 * part.nbytes, side


def test_a_raw_segment_peaks_under_three_times_its_output():
    # Every random() draw goes into one reused buffer, and the per-pair
    # arrays die once both sides' pair tags are taken, before either
    # side's background is drawn: ~2.55 times the output at 400k pairs/s,
    # where fresh arrays that lived until both sides were built made 3.58.
    ch = ChannelConfig(pair_rate=400_000.0, duration=1.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ev = generate_event_streams(ch, ground_truth=False)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (ev.alice_ticks, ev.alice_detectors, ev.bob_ticks, ev.bob_detectors))
    assert peak <= 3.0 * out, f"peak {peak / out:.2f} times the output"


def test_segment_source_validation():
    ch = _small_channel()
    with pytest.raises(ValueError):
        JointSegmentSource(ch, segment_seconds=0.0)
    with pytest.raises(ValueError):
        # slack (|delay| + jitter guard) must fit inside one segment
        JointSegmentSource(_small_channel(bob_delay=2e6), segment_seconds=0.001)
    with pytest.raises(ValueError):
        JointSegmentSource(ch).segments("charlie").__next__()


# SHA-256 over every segment of a 4 s source at the ChannelConfig defaults,
# seed 7, 1 s segments: Alice's ticks and detectors, then Bob's.  Any
# change to which tags are generated, or to their order, shows here
# before it shows in a session transcript.
_PINNED_SOURCE_SHA256 = "10c5b813ea15862ddc294b8f01dc57d25b27dd31ced665bd0585019b1ab24990"


@pytest.mark.parametrize("seed", [1, 7, 123456789])
def test_segment_seeds_equal_spawned_children(seed):
    # The source seeds raw segment k with spawn_key=(k,) when it needs it,
    # which is child k of SeedSequence(seed).spawn(...).
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(50)):
        direct = np.random.SeedSequence(seed, spawn_key=(k,))
        np.testing.assert_array_equal(direct.generate_state(8), child.generate_state(8))


def test_segment_source_bytes_pinned():
    src = JointSegmentSource(ChannelConfig(duration=4.0, rng_seed=7), segment_seconds=1.0)
    h = hashlib.sha256()
    for side in ("alice", "bob"):
        for ticks, dets in src.segments(side):
            assert ticks.dtype == np.uint64 and dets.dtype == np.uint8
            h.update(ticks.astype("<u8").tobytes())
            h.update(dets.tobytes())
    assert h.hexdigest() == _PINNED_SOURCE_SHA256
