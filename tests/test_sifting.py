"""Branch classification, correlation/CHSH estimation, raw-key maps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellqkd.physics import (
    ALICE_ANGLES,
    ALICE_DETECTORS,
    BOB_ANGLES,
    BOB_DETECTORS,
    AliceSetting,
    BobSetting,
)
from bellqkd.protocol import _BOB_PLUS
from bellqkd.sifting import (
    ALICE_SETTING,
    BOB_SETTING,
    NO_SETTING,
    BellEstimate,
    CoincidenceClass,
    EmptyTermError,
    InvalidDetectorError,
    alice_key_bits,
    bob_key_bits,
    chsh_value,
    classify,
    correlation_coefficient,
    count_coincidences,
    extract_raw_key,
    qber,
)
from oracles import (
    alice_key_bits_by_offset,
    basis_to_detector_by_where,
    bob_key_bits_by_offset,
    classify_by_comparison,
    count_coincidences_by_offset,
    detector_to_basis_by_comparison,
)


def test_classify_exhaustive():
    # Alice 1-2 key, 3-6 rotated; Bob 1-2 key, 3-4 rotated
    for a in range(1, 7):
        for b in range(1, 5):
            got = classify(a, b)
            if a >= 3:
                assert got == CoincidenceClass.BELL
            elif b <= 2:
                assert got == CoincidenceClass.KEY
            else:
                assert got == CoincidenceClass.DISCARD


def test_station_layout_consistency():
    # The setting tables sifting, Bob's basis code and the tag-file check
    # read are built from the layout the source generates tags from.
    for table, layout in ((ALICE_SETTING, ALICE_DETECTORS), (BOB_SETTING, BOB_DETECTORS)):
        want = np.full(257, NO_SETTING)  # the last entry stands for ids past a byte
        for setting, ids in enumerate(layout):
            want[list(ids)] = setting
        np.testing.assert_array_equal(table, want)
    for sa, a_pair in enumerate(ALICE_DETECTORS):
        for sb, b_pair in enumerate(BOB_DETECTORS):
            for a, b in itertools.product(a_pair, b_pair):
                if sa != AliceSetting.KEY:
                    want = CoincidenceClass.BELL
                elif sb == BobSetting.KEY:
                    want = CoincidenceClass.KEY
                else:
                    want = CoincidenceClass.DISCARD
                assert classify(a, b) == want, (a, b)
                # Alice classifies from the basis code Bob announces
                assert classify(a, _BOB_PLUS[BOB_SETTING[b]]) == want, (a, b)
    # anticorrelated key outcomes: Alice's plus with Bob's minus and back
    (a_plus, a_minus), (b_plus, b_minus) = ALICE_DETECTORS[0], BOB_DETECTORS[0]
    a_bits = alice_key_bits([a_plus, a_minus])
    np.testing.assert_array_equal(a_bits, [0, 1])
    np.testing.assert_array_equal(a_bits, bob_key_bits([b_minus, b_plus]))
    # a count matrix row per Alice detector, a column per Bob detector
    a_ids = [i for pair in ALICE_DETECTORS for i in pair]
    b_ids = [j for pair in BOB_DETECTORS for j in pair]
    counts = count_coincidences(*zip(*itertools.product(a_ids, b_ids)))
    np.testing.assert_array_equal(counts, np.ones((len(a_ids), len(b_ids))))


# ids on and off the layout, past 255 and at the int64 ends included
_IDS = st.one_of(st.integers(1, 6), st.integers(-3, 300), st.integers(-2**63, 2**63 - 1))


def _result(fn, *args):
    # the one refusal either side may make; any other exception fails the test
    try:
        return fn(*args)
    except InvalidDetectorError:
        return InvalidDetectorError


def _assert_same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


def _raw_key_by_offset(a, b):
    return alice_key_bits_by_offset(a), bob_key_bits_by_offset(b)


@given(st.one_of(_IDS.map(lambda a: [a]), st.lists(_IDS, max_size=6)),
       st.one_of(_IDS.map(lambda b: [b]), st.lists(_IDS, max_size=6)),
       st.sampled_from(["both", "alice", "bob", "neither"]))
@settings(max_examples=300, deadline=None)
def test_sifting_maps_match_the_former_id_comparisons(a, b, scalar):
    # ``scalar`` names the sides that pass one id; the other sides pass arrays
    if scalar == "neither":
        a, b = a[:min(len(a), len(b))], b[:min(len(a), len(b))]
    x = a[0] if scalar in ("both", "alice") and a else np.array(a, np.int64)
    y = b[0] if scalar in ("both", "bob") and b else np.array(b, np.int64)
    inputs = [(x, y)]
    if all(0 <= v <= 255 for v in a + b):  # the dtype of station data
        inputs.append(tuple(np.asarray(v).astype(np.uint8) for v in (x, y)))
    for x, y in inputs:
        for fn, oracle, args in (
                (classify, classify_by_comparison, (x, y)),
                (count_coincidences, count_coincidences_by_offset, (x, y)),
                (alice_key_bits, alice_key_bits_by_offset, (x,)),
                (bob_key_bits, bob_key_bits_by_offset, (y,)),
                (extract_raw_key, _raw_key_by_offset, (x, y))):
            _assert_same(_result(fn, *args), _result(oracle, *args))
        if _result(classify_by_comparison, x, y) is InvalidDetectorError:
            continue
        # Bob announces his setting; Alice classifies from it
        code = BOB_SETTING[y]
        np.testing.assert_array_equal(code, detector_to_basis_by_comparison(y))
        _assert_same(classify(x, _BOB_PLUS[code]),
                     classify_by_comparison(x, basis_to_detector_by_where(code)))


def test_classify_arrays_match_scalars():
    a = np.array([1, 2, 3, 4, 5, 6, 1, 2])
    b = np.array([1, 2, 3, 4, 1, 2, 3, 4])
    out = classify(a, b)
    assert out.dtype == np.int8
    for k in range(len(a)):
        assert out[k] == classify(int(a[k]), int(b[k]))


def test_classify_rejects_out_of_range():
    with pytest.raises(InvalidDetectorError):
        classify(0, 1)
    with pytest.raises(InvalidDetectorError):
        classify(7, 1)
    with pytest.raises(InvalidDetectorError):
        classify(1, 0)
    with pytest.raises(InvalidDetectorError):
        classify(1, 5)
    with pytest.raises(InvalidDetectorError):
        classify(np.array([1, 9]), np.array([1, 1]))


def test_count_coincidences_matches_manual_histogram():
    rng = np.random.default_rng(2)
    a = rng.integers(1, 7, 5000)
    b = rng.integers(1, 5, 5000)
    counts = count_coincidences(a, b)
    assert counts.shape == (6, 4)
    assert counts.sum() == 5000
    for i in range(6):
        for j in range(4):
            assert counts[i, j] == np.sum((a == i + 1) & (b == j + 1))


def test_count_coincidences_validates():
    with pytest.raises(InvalidDetectorError):
        count_coincidences([1, 7], [1, 1])


def test_correlation_frozen_quadruple():
    # E = (40 + 38 - 2 - 4) / 84 for the (BELL_1, KEY) analyzer pairing
    counts = np.zeros((6, 4), dtype=np.int64)
    counts[2, 0] = 40   # alice det 3 (+), bob det 1 (+)
    counts[3, 1] = 38   # alice det 4 (-), bob det 2 (-)
    counts[2, 1] = 2
    counts[3, 0] = 4
    e = correlation_coefficient(counts, AliceSetting.BELL_1, BobSetting.KEY)
    assert e == pytest.approx(72 / 84, abs=1e-15)


def test_correlation_empty_term_raises():
    counts = np.zeros((6, 4), dtype=np.int64)
    counts[2, 0] = 10
    with pytest.raises(EmptyTermError):
        correlation_coefficient(counts, AliceSetting.BELL_2, BobSetting.DIAG)


def test_chsh_hand_computed():
    counts = np.zeros((6, 4), dtype=np.int64)
    # (BELL_1, KEY): dets (3,4)x(1,2)
    counts[2, 0], counts[3, 1], counts[2, 1], counts[3, 0] = 40, 38, 2, 4
    # (BELL_1, DIAG): dets (3,4)x(3,4)
    counts[2, 2], counts[3, 3], counts[2, 3], counts[3, 2] = 30, 32, 5, 3
    # (BELL_2, KEY): dets (5,6)x(1,2)
    counts[4, 0], counts[5, 1], counts[4, 1], counts[5, 0] = 45, 41, 1, 3
    # (BELL_2, DIAG): dets (5,6)x(3,4)
    counts[4, 2], counts[5, 3], counts[4, 3], counts[5, 2] = 6, 2, 33, 35

    est = chsh_value(counts)
    e1 = (40 + 38 - 2 - 4) / 84
    e2 = (30 + 32 - 5 - 3) / 70
    e3 = (45 + 41 - 1 - 3) / 90
    e4 = (6 + 2 - 33 - 35) / 76
    assert est.terms == pytest.approx((e1, e2, e3, e4), abs=1e-15)
    assert est.term_totals == (84, 70, 90, 76)
    assert est.s_value == pytest.approx(e1 + e2 + e3 - e4, abs=1e-15)
    var = (1 - e1**2) / 84 + (1 - e2**2) / 70 + (1 - e3**2) / 90 + (1 - e4**2) / 76
    assert est.standard_error == pytest.approx(math.sqrt(var), abs=1e-15)


def test_chsh_ignores_key_and_discard_branches():
    counts = np.zeros((6, 4), dtype=np.int64)
    for (i, j), v in {(2, 0): 40, (3, 1): 38, (2, 1): 2, (3, 0): 4,
                      (2, 2): 30, (3, 3): 32, (2, 3): 5, (3, 2): 3,
                      (4, 0): 45, (5, 1): 41, (4, 1): 1, (5, 0): 3,
                      (4, 2): 6, (5, 3): 2, (4, 3): 33, (5, 2): 35}.items():
        counts[i, j] = v
    base = chsh_value(counts)
    counts[0, 0] = 999   # key branch
    counts[1, 3] = 999   # discard branch
    assert chsh_value(counts) == base


def test_chsh_from_sampled_ideal_statistics():
    # draw outcome pairs from the exact singlet tables and recover -2*sqrt(2)
    rng = np.random.default_rng(9)
    counts = np.zeros((6, 4), dtype=np.int64)
    n_per_term = 50_000
    for a_set, b_set in [(AliceSetting.BELL_1, BobSetting.KEY),
                         (AliceSetting.BELL_1, BobSetting.DIAG),
                         (AliceSetting.BELL_2, BobSetting.KEY),
                         (AliceSetting.BELL_2, BobSetting.DIAG)]:
        ta = ALICE_ANGLES[a_set]
        tb = BOB_ANGLES[b_set]
        e = -math.cos(math.radians(2 * (ta - tb)))
        probs = [(1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4]  # ++, +-, -+, --
        draws = rng.choice(4, size=n_per_term, p=probs)
        ap, am = ALICE_DETECTORS[a_set]
        bp, bm = BOB_DETECTORS[b_set]
        cells = [(ap, bp), (ap, bm), (am, bp), (am, bm)]
        for k, (i, j) in enumerate(cells):
            counts[i - 1, j - 1] += int(np.sum(draws == k))
    est = chsh_value(counts)
    assert abs(est.s_value - (-2 * math.sqrt(2))) < 5 * est.standard_error
    assert est.standard_error < 0.01


def test_key_bit_maps():
    np.testing.assert_array_equal(alice_key_bits([1, 2, 2, 1]), [0, 1, 1, 0])
    np.testing.assert_array_equal(bob_key_bits([1, 2, 2, 1]), [1, 0, 0, 1])


def test_key_bits_reject_bell_detectors():
    with pytest.raises(InvalidDetectorError):
        alice_key_bits([1, 3])
    with pytest.raises(InvalidDetectorError):
        bob_key_bits([2, 3])


def test_anticorrelated_records_give_identical_keys():
    # perfect singlet at equal angles: opposite outcomes, i.e. (1,2) or (2,1)
    a_det = np.array([1, 2, 1, 2, 2])
    b_det = np.array([2, 1, 2, 1, 1])
    bits_a, bits_b = extract_raw_key(a_det, b_det)
    np.testing.assert_array_equal(bits_a, bits_b)
    assert qber(bits_a, bits_b) == 0.0


def test_qber_counts_disagreements():
    assert qber([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
    assert qber([0], [1]) == 1.0
    with pytest.raises(ValueError):
        qber([0, 1], [0])
    with pytest.raises(ValueError):
        qber([], [])


@given(st.integers(0, 2**31 - 1), st.integers(1, 400))
@settings(max_examples=40, deadline=None)
def test_qber_matches_hamming_fraction(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n).astype(np.uint8)
    b = rng.integers(0, 2, n).astype(np.uint8)
    assert qber(a, b) == np.count_nonzero(a != b) / n
