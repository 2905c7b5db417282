"""Coincidence sifting: branch classification, correlation estimates,
the CHSH statistic, and raw-key extraction.

Works on the detector-id pairs of identified coincidences, in the
layout of ``physics.ALICE_DETECTORS``/``BOB_DETECTORS``: detectors 1-2
on either side belong to the key (H/V) analyzers; Alice's 3-6 and Bob's
3-4 belong to the rotated Bell analyzers.  The branch and key-bit maps
compare ids directly; a test checks them against the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .physics import (
    ALICE_DETECTORS,
    BOB_DETECTORS,
    CHSH_SIGNS,
    CHSH_TERMS,
    AliceSetting,
    BobSetting,
)


class InvalidDetectorError(Exception):
    """Detector id outside the station layout's range."""


class EmptyTermError(Exception):
    """A correlation term has zero total counts."""


class CoincidenceClass(IntEnum):
    KEY = 0      # Alice key analyzer x Bob key analyzer
    BELL = 1     # Alice on a rotated analyzer (any Bob setting)
    DISCARD = 2  # Alice key analyzer x Bob rotated analyzer


def classify(alice_detector, bob_detector):
    """Branch class for detector-id pairs (scalars or arrays)."""
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
    if np.isscalar(alice_detector) or np.ndim(alice_detector) == 0:
        return CoincidenceClass(int(out))
    return out


def count_coincidences(alice_detectors, bob_detectors) -> np.ndarray:
    """6x4 count matrix n[i-1, j-1] over detector-id pairs."""
    a = np.asarray(alice_detectors, dtype=np.int64)
    b = np.asarray(bob_detectors, dtype=np.int64)
    classify(a, b)  # validates ranges
    flat = (a - 1) * 4 + (b - 1)
    return np.bincount(flat, minlength=24).reshape(6, 4).astype(np.int64)


def _term_quadruple(alice_setting, bob_setting):
    a_plus, a_minus = ALICE_DETECTORS[alice_setting]
    b_plus, b_minus = BOB_DETECTORS[bob_setting]
    return a_plus, a_minus, b_plus, b_minus


def correlation_coefficient(
    counts: np.ndarray,
    alice_setting: AliceSetting,
    bob_setting: BobSetting,
) -> float:
    """E for one analyzer pairing from the coincidence-count matrix.

    E = (n_pp + n_mm - n_pm - n_mp) / (n_pp + n_mm + n_pm + n_mp), where
    the first subscript is the sign of Alice's detector and the second
    Bob's.
    """
    ap, am, bp, bm = _term_quadruple(alice_setting, bob_setting)
    n = np.asarray(counts, dtype=float)
    same = n[ap - 1, bp - 1] + n[am - 1, bm - 1]
    diff = n[ap - 1, bm - 1] + n[am - 1, bp - 1]
    total = same + diff
    if total == 0:
        raise EmptyTermError(f"no counts for term ({alice_setting.name}, {bob_setting.name})")
    return float((same - diff) / total)


@dataclass(frozen=True)
class BellEstimate:
    s_value: float
    standard_error: float
    terms: tuple        # the four E values in CHSH order
    term_totals: tuple  # coincidences entering each term


def chsh_value(counts: np.ndarray) -> BellEstimate:
    """S = E(B1,K) + E(B1,D) + E(B2,K) - E(B2,D) with binomial errors.

    Each term's variance is (1 - E^2)/N; the four are propagated in
    quadrature.
    """
    n = np.asarray(counts, dtype=float)
    terms = []
    totals = []
    var = 0.0
    s = 0.0
    for (sa, sb), sign in zip(CHSH_TERMS, CHSH_SIGNS):
        e = correlation_coefficient(n, sa, sb)
        ap, am, bp, bm = _term_quadruple(sa, sb)
        total = n[ap - 1, bp - 1] + n[am - 1, bm - 1] + n[ap - 1, bm - 1] + n[am - 1, bp - 1]
        terms.append(e)
        totals.append(total)
        s += sign * e
        var += (1.0 - e * e) / total
    return BellEstimate(float(s), math.sqrt(var), tuple(terms), tuple(totals))


def alice_key_bits(alice_detectors) -> np.ndarray:
    """Alice's raw key bits: detector 1 -> 0, detector 2 -> 1."""
    a = np.asarray(alice_detectors, dtype=np.int64)
    if a.size and ((a < 1) | (a > 2)).any():
        raise InvalidDetectorError("key branch requires Alice detectors 1 or 2")
    return (a - 1).astype(np.uint8)


def bob_key_bits(bob_detectors) -> np.ndarray:
    """Bob's raw key bits, inverted: detector 2 -> 0, detector 1 -> 1.

    The inversion makes noiseless (perfectly anti-correlated) runs yield
    identical keys on both sides.
    """
    b = np.asarray(bob_detectors, dtype=np.int64)
    if b.size and ((b < 1) | (b > 2)).any():
        raise InvalidDetectorError("key branch requires Bob detectors 1 or 2")
    return (2 - b).astype(np.uint8)


def extract_raw_key(alice_detectors, bob_detectors):
    """Key bits from the key-branch records of both sides.

    Inputs must already be filtered to the KEY class.  Returns
    (alice_bits, bob_bits) as uint8 arrays.
    """
    return alice_key_bits(alice_detectors), bob_key_bits(bob_detectors)


def qber(alice_bits: np.ndarray, bob_bits: np.ndarray) -> float:
    """Fraction of positions where the two raw keys disagree."""
    a = np.asarray(alice_bits)
    b = np.asarray(bob_bits)
    if a.shape != b.shape:
        raise ValueError("bit arrays must have equal length")
    if a.size == 0:
        raise ValueError("bit arrays must be non-empty")
    return float(np.mean(a != b))
