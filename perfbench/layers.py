"""Per-layer calls timed in isolation on fixed seeded inputs.

Sizes follow the ROADMAP's per-layer list: one 1 s segment pair at the
``ChannelConfig`` defaults, ``find_delay`` on 1 s of tags, Cascade at 3 %
QBER on 10k and 100k bits, Toeplitz at 10k->4.5k and 100k->45k, and one
1 s Bob ``TIMETAG_BATCH``.  Times are medians over the repeats below; the
dense 100k->45k Toeplitz product takes ~18 s, so it runs once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SEGMENTS = 6  # 1 s segments generated; the first also fills the source's look-ahead
CASCADE_QBER = 0.03
REPEATS = {"find_delay": 3, "sift": 5, "cascade_10k": 5, "cascade_100k": 3,
           "toeplitz_10k": 5, "toeplitz_100k": 1, "batch": 7}


def _median_ms(fn, repeats: int):
    """Median wall time of ``fn()`` in ms, and its last result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3, result


def _noisy_pair(rng, n: int, qber: float):
    a = rng.integers(0, 2, size=n, dtype=np.uint8)
    return a, a ^ (rng.random(n) < qber).astype(np.uint8)


def _physics_and_timetag(seed: int, out: dict):
    from bellqkd.physics import ChannelConfig, JointSegmentSource
    from bellqkd.timetag import WindowConfig, count_accidentals, find_delay, match_coincidences

    source = JointSegmentSource(ChannelConfig(duration=SEGMENTS + 1, rng_seed=seed))
    alice, bob = source.segments("alice"), source.segments("bob")
    segs, gen = [], []
    for _ in range(SEGMENTS):
        t0 = time.perf_counter()
        segs.append((next(alice), next(bob)))
        gen.append(time.perf_counter() - t0)
    steady = segs[1:]
    out["physics.segment_ms"] = statistics.median(gen[1:]) * 1e3
    out["physics.alice_tags_per_sim_s"] = statistics.median(len(a[0]) for a, _ in steady)
    out["physics.bob_tags_per_sim_s"] = statistics.median(len(b[0]) for _, b in steady)

    window = WindowConfig()
    (a_ticks, _), (b_ticks, _) = segs[0]
    out["timetag.find_delay_ms"], est = _median_ms(
        lambda: find_delay(a_ticks, b_ticks, window), REPEATS["find_delay"])
    delay = est.delay_ticks

    match, acc, counts, matches = [], [], [], []
    for (a_ticks, a_dets), (b_ticks, b_dets) in steady:
        t0 = time.perf_counter()
        ia, ib = match_coincidences(a_ticks, b_ticks, delay, window)
        t1 = time.perf_counter()
        count_accidentals(a_ticks, b_ticks, delay, window)
        t2 = time.perf_counter()
        match.append(t1 - t0)
        acc.append(t2 - t1)
        counts.append(len(ia))
        matches.append((a_dets[ia], b_dets[ib]))
    out["timetag.match_ms"] = statistics.median(match) * 1e3
    out["timetag.accidentals_ms"] = statistics.median(acc) * 1e3
    out["timetag.coincidences"] = statistics.median(counts)
    return segs[1][1], matches


def _sifting(matches, out: dict):
    from bellqkd.sifting import CoincidenceClass, chsh_value, classify, count_coincidences

    # About one 10k-key-bit block of matched pairs.  Alice classifies
    # against Bob's announced basis, represented as detector 1 or 3.
    a_dets = np.concatenate([a for a, _ in matches])
    b_dets = np.concatenate([b for _, b in matches])
    b_basis = np.where(b_dets >= 3, 3, 1).astype(np.uint8)

    def sift_chsh():
        cls = np.asarray(classify(a_dets, b_basis), dtype=np.uint8)
        bell = cls == int(CoincidenceClass.BELL)
        return chsh_value(count_coincidences(a_dets[bell], b_dets[bell]))

    out["sifting.sift_chsh_ms"], _ = _median_ms(sift_chsh, REPEATS["sift"])


def _cascade(seed: int, out: dict):
    from bellqkd.cascade import (AliceReconciler, CascadeParams, LocalChannel,
                                 ParityResponseMsg, reconcile_bob, reconcile_pair)
    from bellqkd.privamp import binary_entropy

    class CountingChannel(LocalChannel):
        round_trips = 0
        parity_bits = 0

        def request(self, msg):
            reply = super().request(msg)
            self.round_trips += 1
            if isinstance(reply, ParityResponseMsg):
                self.parity_bits += reply.count
            return reply

    rng = np.random.default_rng([seed, 3])
    params = CascadeParams(shuffle_seed=seed)
    pairs = {label: _noisy_pair(rng, n, CASCADE_QBER) for n, label in ((10_000, "10k"), (100_000, "100k"))}
    for label, (a, b) in pairs.items():
        out[f"cascade.reconcile_{label}_ms"], _ = _median_ms(
            lambda: reconcile_pair(a, b, params), REPEATS[f"cascade_{label}"])

    a, b = pairs["10k"]
    channel = CountingChannel(AliceReconciler(a, params))
    result = reconcile_bob(b, channel, params)
    out["cascade.parity_bits_10k"] = channel.parity_bits
    out["cascade.round_trips_10k"] = channel.round_trips
    realised = float(np.mean(a != b))
    out["cascade.leak_ratio_10k"] = result.leaked_bits / (result.n * float(binary_entropy(realised)))


def _privamp(seed: int, out: dict):
    from bellqkd.privamp import generate_toeplitz_seed, toeplitz_hash

    rng = np.random.default_rng([seed, 4])
    for n, m, label in ((10_000, 4_500, "10k"), (100_000, 45_000, "100k")):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        seed_bits = generate_toeplitz_seed(n, m, np.random.SeedSequence([seed, n]))
        out[f"privamp.toeplitz_{label}_ms"], _ = _median_ms(
            lambda: toeplitz_hash(bits, seed_bits, m), REPEATS[f"toeplitz_{label}"])


def _protocol(bob_segment, out: dict):
    from bellqkd.protocol import FrameType, decode_timetag_batch, encode_frame, encode_timetag_batch

    ticks, dets = bob_segment
    basis = (dets >= 3).astype(np.uint8)
    out["protocol.batch_encode_ms"], payload = _median_ms(
        lambda: encode_timetag_batch(ticks, basis), REPEATS["batch"])
    out["protocol.batch_decode_ms"], _ = _median_ms(
        lambda: decode_timetag_batch(payload), REPEATS["batch"])
    out["protocol.batch_bytes"] = len(encode_frame(FrameType.TIMETAG_BATCH, payload))


def measure(seed: int) -> dict:
    """Every isolated per-layer figure, in ms or as a count."""
    out: dict = {}
    bob_segment, matches = _physics_and_timetag(seed, out)
    _sifting(matches, out)
    _cascade(seed, out)
    _privamp(seed, out)
    _protocol(bob_segment, out)
    return out
