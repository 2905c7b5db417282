"""Coincidence sifting: branch classification, correlation estimates,
the CHSH statistic, and raw-key extraction.

Works on the detector-id pairs of identified coincidences, in the
layout of ``physics.ALICE_DETECTORS``/``BOB_DETECTORS``.  Every rule
that reads a detector id goes through tables built from those two
tuples at import: per side, each id's setting and outcome bit, and the
class of each (Alice setting, Bob setting) pair.
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


NO_SETTING = 255  # setting-table value of an id no detector of the station has


def _id_tables(detectors):
    """By detector id: its setting and outcome bit (0 at a "+1" port, 1 at
    "-1"); the entry past the last byte stands for every id outside 0..255."""
    setting, outcome = np.full(257, NO_SETTING, np.uint8), np.zeros(257, np.uint8)
    for s, (plus, minus) in enumerate(detectors):
        setting[[plus, minus]], outcome[minus] = s, 1
    return setting, outcome


ALICE_SETTING, _ALICE_OUTCOME = _id_tables(ALICE_DETECTORS)
BOB_SETTING, _BOB_OUTCOME = _id_tables(BOB_DETECTORS)
# by (Alice setting, Bob setting)
_CLASS = np.full((len(ALICE_DETECTORS), len(BOB_DETECTORS)), CoincidenceClass.BELL, np.int8)
_CLASS[AliceSetting.KEY] = CoincidenceClass.DISCARD
_CLASS[AliceSetting.KEY, BobSetting.KEY] = CoincidenceClass.KEY
# the count matrix, by (Alice setting, outcome, Bob setting, outcome)
_COUNT_SHAPE = (len(ALICE_DETECTORS), 2, len(BOB_DETECTORS), 2)


def _settings(ids, table: np.ndarray, side: str, only=None):
    """The ids, and each one's setting.  Refuses any id no detector of the
    side has, and with ``only`` any id of another setting."""
    ids = np.asarray(ids)
    if ids.dtype != np.uint8:  # an id outside 0..255 reads the table's last entry
        ids = np.clip(np.asarray(ids, dtype=np.int64), -1, 256)
    settings = table[ids]
    if (settings == NO_SETTING if only is None else settings != only).any():
        raise InvalidDetectorError(f"{side} detector id outside "
                                   f"{'the layout' if only is None else only.name + ' setting'}")
    return ids, settings


def classify(alice_detector, bob_detector):
    """Branch class for detector-id pairs (scalars or arrays, broadcast):
    a CoincidenceClass for two scalars, else an int8 array."""
    out = _CLASS[_settings(alice_detector, ALICE_SETTING, "Alice")[1],
                 _settings(bob_detector, BOB_SETTING, "Bob")[1]]
    return CoincidenceClass(int(out)) if np.ndim(out) == 0 else out


def count_coincidences(alice_detectors, bob_detectors) -> np.ndarray:
    """Count matrix over detector-id pairs (scalars or arrays, broadcast),
    a row per Alice detector and a column per Bob detector in layout
    order: n[i-1, j-1] for ids i, j."""
    a, a_set = _settings(alice_detectors, ALICE_SETTING, "Alice")
    b, b_set = _settings(bob_detectors, BOB_SETTING, "Bob")
    flat = np.ravel_multi_index((a_set, _ALICE_OUTCOME[a], b_set, _BOB_OUTCOME[b]), _COUNT_SHAPE)
    n = np.bincount(np.ravel(flat), minlength=math.prod(_COUNT_SHAPE))
    return n.reshape(2 * len(ALICE_DETECTORS), -1).astype(np.int64)


def correlation_coefficient(counts: np.ndarray, alice_setting: AliceSetting,
                            bob_setting: BobSetting) -> float:
    """E for one analyzer pairing from the coincidence-count matrix.

    E = (n_pp + n_mm - n_pm - n_mp) / (n_pp + n_mm + n_pm + n_mp), where
    the first subscript is the sign of Alice's detector and the second
    Bob's.
    """
    n = np.asarray(counts, dtype=float).reshape(_COUNT_SHAPE)[alice_setting, :, bob_setting, :]
    same = n[0, 0] + n[1, 1]
    diff = n[0, 1] + n[1, 0]
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
    terms = tuple(correlation_coefficient(n, sa, sb) for sa, sb in CHSH_TERMS)
    totals = tuple(n.reshape(_COUNT_SHAPE)[sa, :, sb, :].sum() for sa, sb in CHSH_TERMS)
    s = sum(sign * e for sign, e in zip(CHSH_SIGNS, terms))
    var = sum((1.0 - e * e) / total for e, total in zip(terms, totals))
    return BellEstimate(float(s), math.sqrt(var), terms, totals)


def alice_key_bits(alice_detectors) -> np.ndarray:
    """Alice's raw key bits: her key analyzer's "+1" detector -> 0, "-1" -> 1."""
    ids, _ = _settings(alice_detectors, ALICE_SETTING, "Alice", AliceSetting.KEY)
    return _ALICE_OUTCOME[ids]


def bob_key_bits(bob_detectors) -> np.ndarray:
    """Bob's raw key bits, inverted: his key analyzer's "-1" detector -> 0,
    "+1" -> 1.

    The inversion makes noiseless (perfectly anti-correlated) runs yield
    identical keys on both sides.
    """
    ids, _ = _settings(bob_detectors, BOB_SETTING, "Bob", BobSetting.KEY)
    return _BOB_OUTCOME[ids] ^ np.uint8(1)


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
