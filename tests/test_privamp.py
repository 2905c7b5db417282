"""Entropy bound, key-length budget, and Toeplitz hashing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bellqkd.privamp import (
    InsecureRegimeError,
    S_MAX,
    binary_entropy,
    eve_information,
    generate_toeplitz_seed,
    pack_key_bits,
    secret_fraction,
    toeplitz_hash,
    toeplitz_seed_length,
    _fft_length,
)


def test_entropy_endpoints_exact():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-12


def test_entropy_against_high_precision_reference():
    for x in (0.01, 0.02, 0.03, 0.11, 0.25, 0.5, 0.875, 0.999):
        assert binary_entropy(x) == pytest.approx(oracles.mp_binary_entropy(x), abs=1e-12)


def test_entropy_domain_checked():
    with pytest.raises(ValueError):
        binary_entropy(-0.001)
    with pytest.raises(ValueError):
        binary_entropy(1.001)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.5, float("nan")]))


def test_entropy_vectorized():
    xs = np.array([0.0, 0.25, 0.5, 1.0])
    h = binary_entropy(xs)
    assert h.shape == xs.shape
    assert np.allclose(h, [binary_entropy(float(x)) for x in xs])


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_entropy_symmetric_and_bounded(x):
    h = binary_entropy(x)
    assert 0.0 <= h <= 1.0
    assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-9)


def test_eve_information_endpoints_exact():
    assert eve_information(2.0 * math.sqrt(2.0)) == 0.0
    assert eve_information(2.0) == 1.0
    assert eve_information(-2.0) == 1.0


def test_eve_information_frozen_value():
    # independently: h((1 + sqrt(2.5^2/4 - 1))/2) at 50 digits
    assert eve_information(2.5) == pytest.approx(0.5435644431995964, abs=1e-10)
    assert eve_information(2.5) == pytest.approx(oracles.mp_eve_information(2.5), abs=1e-12)


def test_eve_information_sign_and_clamp():
    assert eve_information(-2.5) == eve_information(2.5)
    # values above the quantum bound clamp instead of going complex
    assert eve_information(3.0) == 0.0
    assert eve_information(S_MAX + 1e-9) == 0.0


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_eve_information_refuses_non_finite(s):
    # an infinite S would clamp to 2*sqrt(2) and leave Eve no information
    with pytest.raises(ValueError, match="finite"):
        eve_information(s)


def test_eve_information_insecure_below_classical_bound():
    for s in (0.0, 1.0, 1.9999, -1.5):
        with pytest.raises(InsecureRegimeError):
            eve_information(s)


@given(st.floats(2.0, 2.0 * math.sqrt(2.0), allow_nan=False))
def test_eve_information_matches_reference_everywhere(s):
    assert eve_information(s) == pytest.approx(oracles.mp_eve_information(s), abs=1e-9)


def test_secret_fraction_frozen_case():
    est = secret_fraction(10000, 2000, 2.5)
    assert est.final_length == 2564
    assert est.i_eve == pytest.approx(0.5435644431995964, abs=1e-10)
    assert est.secret_fraction_value == pytest.approx(0.2564)


def test_secret_fraction_floors_at_zero():
    est = secret_fraction(100, 1000, 2.5)
    assert est.final_length == 0
    assert est.secret_fraction_value == 0.0


def test_secret_fraction_monotone_in_deduction():
    lengths = [secret_fraction(10000, 2000, 2.5, finite_deduction=d).final_length
               for d in (0, 1, 10, 100, 1000, 2564, 5000)]
    assert lengths[0] == 2564
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] == 0


def test_secret_fraction_rate_multiplier_scales():
    full = secret_fraction(10000, 2000, 2.5)
    half = secret_fraction(10000, 2000, 2.5, rate_multiplier=0.5)
    assert half.final_length == math.floor((10000 * (1 - full.i_eve) - 2000) * 0.5)


def test_secret_fraction_validation():
    with pytest.raises(ValueError):
        secret_fraction(-1, 0, 2.5)
    with pytest.raises(ValueError):
        secret_fraction(10, -1, 2.5)
    with pytest.raises(ValueError):
        secret_fraction(10, 0, 2.5, finite_deduction=-1)
    with pytest.raises(ValueError):
        secret_fraction(10, 0, 2.5, rate_multiplier=0.0)
    with pytest.raises(ValueError):
        secret_fraction(10, 0, 2.5, rate_multiplier=1.5)
    with pytest.raises(InsecureRegimeError):
        secret_fraction(10, 0, 1.9)


# ---------------------------------------------------------------------------
# Toeplitz hashing

def test_toeplitz_against_explicit_matrix():
    rng = np.random.default_rng(11)
    for n, m in [(1, 1), (8, 3), (64, 64), (200, 31), (999, 100)]:
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        x = rng.integers(0, 2, n).astype(np.uint8)
        got = toeplitz_hash(x, seed, m)
        want = oracles.toeplitz_hash_reference(x, seed, m)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)


def test_toeplitz_identity_diagonal():
    # seed with a single 1 at position m-1 puts ones on the main diagonal
    n, m = 20, 7
    seed = np.zeros(n + m - 1, dtype=np.uint8)
    seed[m - 1] = 1
    x = np.random.default_rng(3).integers(0, 2, n).astype(np.uint8)
    np.testing.assert_array_equal(toeplitz_hash(x, seed, m), x[:m])


@given(st.integers(0, 2**32 - 1), st.integers(1, 96), st.integers(0, 96))
@settings(max_examples=60, deadline=None)
def test_toeplitz_linear_over_gf2(seed_int, n, m_raw):
    m = min(m_raw, n)
    rng = np.random.default_rng(seed_int)
    seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
    x = rng.integers(0, 2, n).astype(np.uint8)
    y = rng.integers(0, 2, n).astype(np.uint8)
    hx = toeplitz_hash(x, seed, m)
    hy = toeplitz_hash(y, seed, m)
    hxy = toeplitz_hash(x ^ y, seed, m)
    np.testing.assert_array_equal(hxy, hx ^ hy)
    np.testing.assert_array_equal(hx, oracles.toeplitz_hash_reference(x, seed, m))


# 2**a * 3**b * 5**c up to 8192: the FFT lengths toeplitz_hash takes for n + m - 1 < 8192
_SMOOTH = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9) for c in range(6)
                 if 2**a * 3**b * 5**c <= 8192)


def test_fft_length_is_the_smallest_smooth_length():
    for n in range(0, 8192):
        assert _fft_length(n) == next(k for k in _SMOOTH if k >= n)
    assert _fft_length(99_000 + 45_000 - 1) == 144_000  # 2**7 * 3**2 * 5**3


@st.composite
def toeplitz_shapes(draw):
    """(n, m) with m in {0, 1, n, any}, or with n + m - 1 next to a power of
    two or to another 2*3*5-smooth FFT length."""
    kind = draw(st.sampled_from(["zero", "one", "full", "any", "pow2", "smooth"]))
    if kind in ("pow2", "smooth"):
        base = (1 << draw(st.integers(1, 13)) if kind == "pow2"
                else draw(st.sampled_from(_SMOOTH[1:])))
        total = base + draw(st.sampled_from([-1, 0, 1]))
        total = min(total, 2 * 4096 - 1)  # n + m - 1
        n = draw(st.integers((total + 2) // 2, min(4096, total + 1)))
        return n, total + 1 - n
    n = draw(st.integers(1, 4096))
    m = {"zero": 0, "one": 1, "full": n}.get(kind)
    return n, draw(st.integers(0, n)) if m is None else m


@given(toeplitz_shapes(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_toeplitz_matches_dense_oracle(shape, seed_int):
    n, m = shape
    rng = np.random.default_rng(seed_int)
    seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
    x = rng.integers(0, 2, n).astype(np.uint8)
    got = toeplitz_hash(x, seed, m)
    assert got.dtype == np.uint8 and got.shape == (m,)
    np.testing.assert_array_equal(got, oracles.toeplitz_hash_dense(x, seed, m))


def test_toeplitz_matches_dense_oracle_large():
    rng = np.random.default_rng(29)
    n, m = 30011, 15013
    seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
    x = rng.integers(0, 2, n).astype(np.uint8)
    np.testing.assert_array_equal(toeplitz_hash(x, seed, m),
                                  oracles.toeplitz_hash_dense(x, seed, m))


def test_toeplitz_rounding_guard_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.5)
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, 100).astype(np.uint8)
    seed = rng.integers(0, 2, 100 + 40 - 1).astype(np.uint8)
    with pytest.raises(FloatingPointError):
        toeplitz_hash(x, seed, 40)


def test_toeplitz_rejects_bad_shapes():
    x = np.ones(10, dtype=np.uint8)
    with pytest.raises(ValueError):
        toeplitz_hash(x, np.ones(10, dtype=np.uint8), 4)  # seed must be 13
    with pytest.raises(ValueError):
        toeplitz_hash(x, np.ones(21, dtype=np.uint8), 12)  # m > n
    assert len(toeplitz_hash(x, np.ones(9, dtype=np.uint8), 0)) == 0


def test_seed_generation_deterministic():
    assert toeplitz_seed_length(100, 40) == 139
    a = generate_toeplitz_seed(100, 40, np.random.SeedSequence([1, 2]))
    b = generate_toeplitz_seed(100, 40, np.random.SeedSequence([1, 2]))
    c = generate_toeplitz_seed(100, 40, np.random.SeedSequence([1, 3]))
    np.testing.assert_array_equal(a, b)
    assert len(a) == 139
    assert set(np.unique(a)) <= {0, 1}
    assert not np.array_equal(a, c)


def test_pack_key_bits_msb_first():
    assert pack_key_bits(np.array([1, 0, 1], dtype=np.uint8)) == b"\xa0"
    assert pack_key_bits(np.array([0, 0, 0, 0, 0, 0, 0, 1, 1], dtype=np.uint8)) == b"\x01\x80"
    assert pack_key_bits(np.empty(0, dtype=np.uint8)) == b""
