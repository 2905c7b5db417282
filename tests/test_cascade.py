"""Interactive parity reconciliation: leakage, correction, verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellqkd.cascade import (
    AliceReconciler,
    CascadeParams,
    ChannelClosedError,
    LocalChannel,
    ParityRequestMsg,
    QberSampleMsg,
    ShuffleSeedMsg,
    TAG_BITS,
    VerifyTagMsg,
    classic_initial_block,
    reconcile_bob,
    reconcile_pair,
    verify_keys,
)


def _keys_with_errors(rng, n, n_err):
    alice = rng.integers(0, 2, n).astype(np.uint8)
    bob = alice.copy()
    idx = rng.choice(n, size=n_err, replace=False)
    bob[idx] ^= 1
    return alice, bob


def test_initial_block_size_rule():
    assert classic_initial_block(0.01, 10000) == 73
    assert classic_initial_block(0.03, 10000) == 25   # ceil(0.73/0.03)
    assert classic_initial_block(0.5, 10000) == 8     # lower clamp
    assert classic_initial_block(1e-9, 10000) == 5000  # upper clamp n/2
    assert classic_initial_block(0.0, 10000) == 5000
    assert classic_initial_block(5e-324, 10000) == 5000  # 0.73 / qber overflows
    assert classic_initial_block(0.1, 10) == 5        # clamps shrink with n


def test_noiseless_leak_frozen():
    # qber prior 0 -> block size n/2 -> 2 parities x 4 passes + 64-bit tag
    bits = np.random.default_rng(1).integers(0, 2, 10000).astype(np.uint8)
    params = CascadeParams(shuffle_seed=42)
    alice, bob = reconcile_pair(bits, bits, params, qber_estimate=0.0)
    assert alice.leaked_bits == bob.leaked_bits == 72
    assert bob.verified and alice.verified
    assert bob.errors_corrected == 0
    assert alice.errors_corrected == 0  # responder never counts corrections
    assert bob.n == alice.n == 10000
    np.testing.assert_array_equal(bob.bits, bits)


def test_corrects_errors_with_explicit_prior():
    rng = np.random.default_rng(7)
    alice_bits, bob_bits = _keys_with_errors(rng, 10000, 200)
    params = CascadeParams(shuffle_seed=99)
    alice, bob = reconcile_pair(alice_bits, bob_bits, params, qber_estimate=0.02)
    assert bob.verified
    np.testing.assert_array_equal(bob.bits, alice_bits)
    assert bob.errors_corrected == 200
    assert alice.leaked_bits == bob.leaked_bits
    assert bob.measured_qber == pytest.approx(0.02)
    assert bob.sample_size == 0
    # untouched inputs
    assert np.sum(alice_bits != bob_bits) == 200


def test_sample_bootstrap_path():
    rng = np.random.default_rng(13)
    alice_bits, bob_bits = _keys_with_errors(rng, 10000, 300)
    params = CascadeParams(shuffle_seed=5)
    alice, bob = reconcile_pair(alice_bits, bob_bits, params)  # no prior
    assert bob.sample_size == 200  # 2% of 10^4, disclosed and discarded
    assert bob.n == alice.n == 9800
    assert bob.verified
    np.testing.assert_array_equal(bob.bits, alice.bits)
    assert bob.qber_prior == max(bob.sample_mismatches, 1) / bob.sample_size
    assert bob.errors_corrected + bob.sample_mismatches == 300
    assert alice.leaked_bits == bob.leaked_bits


def test_clean_sample_does_not_zero_the_prior():
    # errors placed so the 2% sample happens to contain none of them must
    # still leave a workable first-pass block size
    rng = np.random.default_rng(3)
    alice_bits = rng.integers(0, 2, 5000).astype(np.uint8)
    params = CascadeParams(shuffle_seed=8)
    # find error positions outside the sampled index set by trial
    for attempt in range(50):
        bob_bits = alice_bits.copy()
        idx = rng.choice(5000, size=60, replace=False)
        bob_bits[idx] ^= 1
        alice, bob = reconcile_pair(alice_bits, bob_bits, params)
        if bob.sample_mismatches == 0:
            assert bob.qber_prior == 1 / bob.sample_size
            assert bob.verified
            np.testing.assert_array_equal(bob.bits, alice.bits)
            return
    pytest.skip("no clean sample drawn in 50 attempts")


class _WrongSizeSample:
    """Peer that answers the QBER sample with 8 bits instead of 20."""

    def send(self, msg):
        pass

    def request(self, msg):
        return QberSampleMsg(8, b"\x00")


def test_sample_size_mismatch_closes_channel():
    bits = np.random.default_rng(2).integers(0, 2, 1000).astype(np.uint8)
    alice = AliceReconciler(bits, CascadeParams())
    alice.handle(ShuffleSeedMsg(7))
    with pytest.raises(ChannelClosedError):
        alice.handle(QberSampleMsg(8, b"\x00"))
    with pytest.raises(ChannelClosedError):
        reconcile_bob(bits, _WrongSizeSample(), CascadeParams(shuffle_seed=7))


@pytest.mark.parametrize("msg", [
    QberSampleMsg(8, b"\x00"),
    ParityRequestMsg(0, ((0, 8),)),
    VerifyTagMsg(tag=b"\x00" * 8),
], ids=lambda m: type(m).__name__)
def test_message_before_shuffle_seed_closes_channel(msg):
    alice = AliceReconciler(np.zeros(100, dtype=np.uint8), CascadeParams())
    with pytest.raises(ChannelClosedError):
        alice.handle(msg)


def _sampled_responder(n=100):
    alice = AliceReconciler(np.zeros(n, dtype=np.uint8), CascadeParams())
    alice.handle(ShuffleSeedMsg(7))
    alice.handle(QberSampleMsg(2, b"\x00"))  # 2 % of 100 bits
    return alice


@pytest.mark.parametrize("history, late", [
    ([], ShuffleSeedMsg(8)),
    ([ParityRequestMsg(0, ((0, 8),))], ShuffleSeedMsg(7)),
    ([], QberSampleMsg(2, b"\x00")),
    ([ParityRequestMsg(0, ((0, 8),))], QberSampleMsg(2, b"\x00")),
    ([VerifyTagMsg(tag=b"\x00" * 8)], ParityRequestMsg(0, ((0, 8),))),
], ids=["second-seed", "seed-after-parities", "second-sample", "sample-after-parities",
        "after-the-tag"])
def test_message_out_of_order_closes_channel(history, late):
    alice = _sampled_responder()
    for msg in history:
        alice.handle(msg)
    with pytest.raises(ChannelClosedError, match=f"^unexpected message {type(late).__name__}$"):
        alice.handle(late)


@pytest.mark.parametrize("ranges", [
    ((0, 8), (8, 0)),
    ((0, 97), (97, 2)),
    ((0xFFFFFFFF, 2),),  # the u32 sum wraps to 1
], ids=["zero-length", "past-the-end", "start-u32-max"])
def test_parity_range_out_of_bounds_closes_channel(ranges):
    alice = _sampled_responder()  # 98 bits left
    assert alice.handle(ParityRequestMsg(0, ((0, 98), (97, 1)))).count == 2
    with pytest.raises(ChannelClosedError, match="^parity range out of bounds$"):
        alice.handle(ParityRequestMsg(0, ranges))
    assert alice.leaked_bits == 2  # a refused request discloses nothing


def test_parity_request_beyond_the_passes_closes_channel():
    alice = AliceReconciler(np.zeros(100, dtype=np.uint8), CascadeParams(passes=2))
    alice.handle(ShuffleSeedMsg(7))
    assert alice.handle(ParityRequestMsg(1, ((0, 8),))).count == 1
    for pass_index in (2, 255):
        with pytest.raises(ChannelClosedError):
            alice.handle(ParityRequestMsg(pass_index, ((0, 8),)))


def test_single_pass_miss_fails_verification():
    # two errors in the same first-pass block and only one pass: the even
    # parity hides them, so the closing tags must disagree
    n = 64
    alice_bits = np.zeros(n, dtype=np.uint8)
    bob_bits = alice_bits.copy()
    bob_bits[0] ^= 1
    bob_bits[1] ^= 1
    params = CascadeParams(passes=1, shuffle_seed=17)
    alice, result = reconcile_pair(alice_bits, bob_bits, params, qber_estimate=1e-12)
    assert not result.verified and not alice.verified
    assert result.errors_corrected == 0
    assert result.leaked_bits == 2 + 64  # two block parities plus the tag


def test_four_passes_recover_the_same_case():
    n = 64
    alice_bits = np.zeros(n, dtype=np.uint8)
    bob_bits = alice_bits.copy()
    bob_bits[0] ^= 1
    bob_bits[1] ^= 1
    params = CascadeParams(shuffle_seed=17)
    alice, bob = reconcile_pair(alice_bits, bob_bits, params, qber_estimate=1e-12)
    assert bob.verified
    np.testing.assert_array_equal(bob.bits, alice_bits)


def test_reconcile_rejects_empty_key():
    with pytest.raises(ValueError):
        reconcile_pair(np.empty(0, dtype=np.uint8), np.empty(0, dtype=np.uint8))


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(21)
    alice_bits, bob_bits = _keys_with_errors(rng, 4000, 80)
    params = CascadeParams(shuffle_seed=1234)
    r1 = reconcile_pair(alice_bits, bob_bits, params, qber_estimate=0.02)
    r2 = reconcile_pair(alice_bits, bob_bits, params, qber_estimate=0.02)
    for a, b in zip(r1, r2):
        assert a.leaked_bits == b.leaked_bits
        assert a.exchanged_messages == b.exchanged_messages
        np.testing.assert_array_equal(a.bits, b.bits)
    # both roles count every message of the exchange, with and without a sample
    sampled = reconcile_pair(alice_bits, bob_bits, params)
    for alice, bob in (r1, sampled):
        assert alice.exchanged_messages == bob.exchanged_messages


def test_params_validation():
    with pytest.raises(ValueError):
        CascadeParams(passes=0)


def test_verify_keys_detects_any_single_flip():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 257).astype(np.uint8)
    tag = verify_keys(bits, 64, seed=777)
    assert len(tag) == 8
    assert verify_keys(bits.copy(), 64, seed=777) == tag
    assert verify_keys(bits, 64, seed=778) != tag
    for pos in range(0, 257, 16):
        flipped = bits.copy()
        flipped[pos] ^= 1
        assert verify_keys(flipped, 64, seed=777) != tag


def test_verify_keys_pads_short_input():
    tag = verify_keys(np.array([1], dtype=np.uint8), 64, seed=5)
    assert len(tag) == 8
    assert tag != verify_keys(np.array([0], dtype=np.uint8), 64, seed=5)


@given(st.one_of(st.integers(0, 80), st.integers(0, 3000)), st.integers(0, 2**64 - 1),
       st.sampled_from([TAG_BITS, 1, 8, 13]))
@settings(max_examples=150, deadline=None)
def test_verify_keys_matches_the_fft_tag(n, seed, tag_bits):
    # keys shorter than the tag (zero-padded) and lengths off whole bytes included
    bits = np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)
    tag = verify_keys(bits, tag_bits, seed)
    assert tag == oracles.verify_keys_fft(bits, tag_bits, seed)
    assert len(tag) == (tag_bits + 7) // 8


@given(st.integers(0, 2**31 - 1), st.integers(64, 500), st.floats(0.0, 0.12))
@settings(max_examples=40, deadline=None)
def test_verified_implies_equal_keys(seed, n, q):
    rng = np.random.default_rng(seed)
    n_err = int(round(q * n))
    alice_bits, bob_bits = _keys_with_errors(rng, n, n_err)
    params = CascadeParams(shuffle_seed=seed)
    alice, bob = reconcile_pair(alice_bits, bob_bits, params)
    assert alice.verified == bob.verified
    if not bob.verified:
        return  # a detected failure, never a silent one
    np.testing.assert_array_equal(alice.bits, bob.bits)
    assert alice.leaked_bits == bob.leaked_bits >= TAG_BITS
    assert bob.errors_corrected + bob.sample_mismatches == n_err


class _RecordingChannel(LocalChannel):
    """LocalChannel keeping Bob's messages as (class name, payload)."""

    def __init__(self, responder):
        super().__init__(responder)
        self.sent = []

    def send(self, msg):
        self.sent.append((type(msg).__name__, msg.encode()))
        super().send(msg)

    def request(self, msg):
        self.sent.append((type(msg).__name__, msg.encode()))
        return super().request(msg)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.floats(0.0, 0.11),
       st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_reconciliation_equals_the_former_cascade(seed, n, q, passes, with_prior):
    rng = np.random.default_rng(seed)
    alice_bits, bob_bits = _keys_with_errors(rng, n, int(round(q * n)))
    params = CascadeParams(passes=passes, shuffle_seed=seed)
    prior = q if with_prior else None
    want = oracles.reconcile_pair_former(alice_bits, bob_bits, params, prior)

    alice = AliceReconciler(alice_bits, params)
    channel = _RecordingChannel(alice)
    bob = reconcile_bob(bob_bits, channel, params, prior)
    assert channel.sent == want["sent"]  # every request byte-equal, in order
    np.testing.assert_array_equal(bob.bits, want["bits"])
    assert bob.verified == alice.result.verified == want["verified"]
    assert bob.leaked_bits == want["leaked_bits"]
    assert alice.result.leaked_bits == want["alice_leaked_bits"]
    assert bob.errors_corrected == want["errors_corrected"]
    assert bob.exchanged_messages == want["exchanged_messages"]
