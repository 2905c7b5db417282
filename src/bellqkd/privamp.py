"""Privacy amplification: entropy bounds from the measured CHSH value
and Toeplitz universal hashing.

The eavesdropper's information per bit is bounded from the Bell
statistic alone:

    I_E(S) = h((1 + sqrt(S^2/4 - 1)) / 2)

which is 0 at |S| = 2*sqrt(2) and 1 at |S| = 2.  The final key length is
n*(1 - I_E) minus the reconciliation leakage and a configurable
finite-size deduction; compression to that length uses a seeded Toeplitz
matrix over GF(2), applied as one FFT convolution in O(n log n) whose
length is the smallest 2**a * 3**b * 5**c at or above n + m - 1.  Each
rounded sum must lie within 0.25 of an integer or the hash raises; the
measured residual is about 1e-10 at n = 10**6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

S_MAX = 2.0 * math.sqrt(2.0)


class InsecureRegimeError(Exception):
    """|S| below the classical bound: no secrecy can be extracted."""


def binary_entropy(x):
    """Shannon entropy h(x) = -x log2 x - (1-x) log2 (1-x); h(0)=h(1)=0."""
    arr = np.asarray(x, dtype=float)
    if arr.size and not ((arr >= 0.0) & (arr <= 1.0)).all():  # also refuses NaN
        raise ValueError("binary_entropy domain is [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(arr > 0, arr * np.log2(np.where(arr > 0, arr, 1)), 0.0)
        q = 1.0 - arr
        h -= np.where(q > 0, q * np.log2(np.where(q > 0, q, 1)), 0.0)
    return float(h) if np.ndim(x) == 0 else h


def eve_information(s_value: float) -> float:
    """Per-bit information bound for an eavesdropper, from the CHSH S.

    Uses |S|, clamped to the quantum maximum 2*sqrt(2) against numeric
    overshoot.  Raises InsecureRegimeError for |S| < 2 and ValueError for
    a NaN or infinite S; returns exactly 1.0 at |S| = 2 and exactly 0.0 at
    |S| = 2*sqrt(2).
    """
    s_abs = abs(float(s_value))
    if not math.isfinite(s_abs):
        raise ValueError(f"S must be finite, got {s_value}")
    if s_abs < 2.0:
        raise InsecureRegimeError(f"|S| = {s_abs:.4f} <= 2: no Bell violation")
    s_abs = min(s_abs, S_MAX)
    arg = s_abs * s_abs / 4.0 - 1.0
    x = (1.0 + math.sqrt(max(arg, 0.0))) / 2.0
    return binary_entropy(min(x, 1.0))


@dataclass(frozen=True)
class SecurityEstimate:
    """Key-length budget for one reconciled block."""

    n: int
    s_value: float
    i_eve: float
    leak_ec: int
    finite_deduction: int
    rate_multiplier: float
    final_length: int

    @property
    def secret_fraction_value(self) -> float:
        return self.final_length / self.n if self.n else 0.0


def secret_fraction(
    n: int,
    leak_ec: int,
    s_value: float,
    finite_deduction: int = 0,
    rate_multiplier: float = 1.0,
) -> SecurityEstimate:
    """Distillable key length after reconciliation leakage.

    final_length = max(0, floor((n*(1 - I_E) - leak_ec) * rate_multiplier
                                - finite_deduction))

    ``rate_multiplier`` models finite-key penalties as a simple scaling
    (1.0 = asymptotic); ``finite_deduction`` is an absolute deduction.
    """
    if n < 0 or leak_ec < 0 or finite_deduction < 0:
        raise ValueError("n, leak_ec and finite_deduction must be >= 0")
    if not 0.0 < rate_multiplier <= 1.0:
        raise ValueError("rate_multiplier must be in (0, 1]")
    i_eve = eve_information(s_value)
    raw = (n * (1.0 - i_eve) - leak_ec) * rate_multiplier - finite_deduction
    final = max(0, math.floor(raw))
    return SecurityEstimate(
        n=n,
        s_value=float(s_value),
        i_eve=i_eve,
        leak_ec=leak_ec,
        finite_deduction=finite_deduction,
        rate_multiplier=rate_multiplier,
        final_length=final,
    )


def toeplitz_seed_length(n: int, m: int) -> int:
    return n + m - 1


def generate_toeplitz_seed(n: int, m: int, seed) -> np.ndarray:
    """Seed bits (length n + m - 1) for an m x n Toeplitz matrix."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=toeplitz_seed_length(n, m), dtype=np.uint8)


def toeplitz_hash(bits: np.ndarray, seed_bits: np.ndarray, m: int) -> np.ndarray:
    """Compress ``bits`` to ``m`` bits with a Toeplitz matrix over GF(2).

    ``seed_bits`` (length len(bits) + m - 1) holds the matrix diagonals:
    entry T[i, j] = seed_bits[j - i + m - 1], i.e. the first m - 1 seed
    bits are the first column bottom-to-top and the rest are the first
    row.  The map is linear: T(x xor y) = T(x) xor T(y).

    The product is one real-FFT convolution, O(n log n): row i dotted
    with x is entry n + m - 2 - i of seed_bits convolved with x
    reversed.  The FFT length is the smallest 2**a * 3**b * 5**c at or
    above n + m - 1 (``_fft_length``), so no wrapped term reaches those
    entries; the spectra are multiplied in place.  The float64 sums are
    integers up to n; rounding leaves a residual near 1e-11 at n = 10**5
    and 1e-10 at n = 10**6, and any residual of 0.25 or more raises
    FloatingPointError rather than return a wrong bit.
    """
    x = np.asarray(bits, dtype=np.uint8)
    s = np.asarray(seed_bits, dtype=np.uint8)
    n = len(x)
    if m < 0 or m > n:
        raise ValueError("output length m must satisfy 0 <= m <= n")
    if len(s) != toeplitz_seed_length(n, m):
        raise ValueError(f"seed must have length n + m - 1 = {toeplitz_seed_length(n, m)}")
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    size = _fft_length(n + m - 1)
    spectrum = np.fft.rfft(s, size)
    spectrum *= np.fft.rfft(x[::-1], size)
    y = np.fft.irfft(spectrum, size)[n - 1 : n + m - 1][::-1]
    del spectrum
    r = np.rint(y)
    y -= r
    residual = np.max(np.abs(y, out=y))
    del y
    if not residual < 0.25:  # also catches NaN
        raise FloatingPointError(f"Toeplitz FFT rounding residual {residual} >= 0.25")
    return (r.astype(np.int64) & 1).astype(np.uint8)


def _fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n: a length numpy's FFT handles
    about as fast per point as a power of two."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def pack_key_bits(bits: np.ndarray) -> bytes:
    """MSB-first byte packing; trailing bits of the last byte are zero."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
