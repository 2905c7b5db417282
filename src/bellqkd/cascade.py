"""Interactive parity-based error reconciliation (classic CASCADE).

Bob drives: a disclose-and-discard sample bootstraps the error-rate
prior when none is given, then four passes of seeded-shuffled parity
blocks locate errors by interactive binary search, with full
back-tracking of earlier blocks after every correction.  Alice serves
parities as a pure responder and refuses any message that is not legal
next.  Both sides account every disclosed parity bit; a 64-bit
universal-hash tag closes the block.  Both roles return their
``ReconciliationResult`` either way: tags that disagree read as
``verified=False``, never as an exception.

Both roles read every range parity from one XOR prefix of the pass's
permuted bits (``_prefix_parity``): permuted range [s, s + l) has parity
``prefix[s + l] ^ prefix[s]``.  A request carries its ranges as one
(k, 2) u32 array, so each side handles a whole request in array steps.

Message payloads are defined here; the protocol layer wraps them in
frames, and LocalChannel runs the two roles in one process for tests.
A decoder takes any bytes-like payload and keeps no view of it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .privamp import generate_toeplitz_seed, pack_key_bits

_PASS_TAG = 0xCA5C
_SAMPLE_TAG = 0x5A3B
_VERIFY_TAG = 0x7A61

SAMPLE_FRACTION = 0.02  # key share disclosed, then discarded, when no prior is given
TAG_BITS = 64  # every key tag: the one closing reconciliation and the confirm tag


class ChannelClosedError(Exception):
    """The reconciliation channel closed mid-exchange."""


# ---------------------------------------------------------------------------
# Messages

@dataclass(frozen=True)
class CountedBits:
    """A u32 bit count, then exactly that many bits packed MSB first."""

    count: int
    bits: bytes

    @classmethod
    def of(cls, bits: np.ndarray):
        return cls(len(bits), pack_key_bits(bits))

    def unpack(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8), count=self.count)

    def encode(self) -> bytes:
        return struct.pack("<I", self.count) + self.bits

    @classmethod
    def decode(cls, payload: bytes):
        (count,) = struct.unpack("<I", payload[:4])
        if len(payload) != 4 + (count + 7) // 8:
            raise ValueError(f"{count} bits need {(count + 7) // 8} bytes, got {len(payload) - 4}")
        return cls(count, bytes(payload[4:]))


class QberSampleMsg(CountedBits):
    """The disclose-and-discard sample bits."""


class ParityResponseMsg(CountedBits):
    """One parity per requested range."""


@dataclass(frozen=True)
class ShuffleSeedMsg:
    seed: int

    def encode(self) -> bytes:
        return struct.pack("<Q", self.seed)

    @staticmethod
    def decode(payload: bytes) -> "ShuffleSeedMsg":
        (seed,) = struct.unpack("<Q", payload)
        return ShuffleSeedMsg(seed)


class ParityRequestMsg:
    """A pass index and (start, length) ranges over the pass's permutation,
    held as one (k, 2) little-endian u32 array: the wire body as it is."""

    def __init__(self, pass_index: int, ranges):
        self.pass_index = pass_index
        self.ranges = np.asarray(ranges, dtype="<u4").reshape(-1, 2)

    def encode(self) -> bytes:
        return struct.pack("<BI", self.pass_index, len(self.ranges)) + self.ranges.tobytes()

    @staticmethod
    def decode(payload: bytes) -> "ParityRequestMsg":
        pass_index, count = struct.unpack("<BI", payload[:5])
        if len(payload) != 5 + 8 * count:
            raise ValueError(f"{count} ranges need {8 * count} bytes, got {len(payload) - 5}")
        return ParityRequestMsg(pass_index, np.frombuffer(payload, dtype="<u4", offset=5).copy())


@dataclass(frozen=True)
class VerifyTagMsg:
    """A TAG_BITS key tag, or a status byte 0/1; no other payload decodes."""

    tag: Optional[bytes] = None
    status: Optional[int] = None

    def encode(self) -> bytes:
        if self.tag is not None:
            return self.tag
        return bytes([self.status])

    @staticmethod
    def decode(payload: bytes) -> "VerifyTagMsg":
        if len(payload) == TAG_BITS // 8:
            return VerifyTagMsg(tag=bytes(payload))
        if payload in (b"\x00", b"\x01"):
            return VerifyTagMsg(status=payload[0])
        raise ValueError(f"{len(payload)} bytes are neither a status nor a {TAG_BITS}-bit tag")


# ---------------------------------------------------------------------------
# Parameters

def classic_initial_block(qber: float, n: int) -> int:
    """First-pass block size ceil(0.73/QBER), clamped to [8, n/2]."""
    hi = max(1, n // 2)
    lo = min(8, hi)
    if qber <= 0 or 0.73 / qber >= hi:  # a subnormal qber makes 0.73 / qber infinite
        return hi
    return max(lo, int(math.ceil(0.73 / qber)))


@dataclass(frozen=True)
class CascadeParams:
    """Parity passes (>= 1, no more are served) and the public shuffle seed
    (None draws one); the sample share and tag length are constants."""

    passes: int = 4
    shuffle_seed: Optional[int] = None

    def __post_init__(self):
        if self.passes < 1:
            raise ValueError("passes must be >= 1")


@dataclass
class ReconciliationResult:
    bits: np.ndarray            # working key after sample removal (corrected for Bob)
    n: int                      # working key length
    leaked_bits: int            # disclosed parity bits + verification tag bits
    exchanged_messages: int
    verified: bool
    errors_corrected: int       # driver-side statistic; the responder reports 0
    qber_prior: float           # prior used for the first-pass block size
    sample_size: int = 0
    sample_mismatches: int = 0

    @property
    def measured_qber(self) -> float:
        """Error estimate from the procedure itself (driver side only)."""
        total = self.n + self.sample_size
        if total == 0:
            return 0.0
        return (self.errors_corrected + self.sample_mismatches) / total


def _pass_permutation(n: int, pass_index: int, seed: int) -> np.ndarray:
    if pass_index == 0:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _PASS_TAG, pass_index]))
    return rng.permutation(n).astype(np.int64)


def _prefix_parity(bits: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """XOR prefix of ``bits[perm]``: permuted range [s, s + l) has parity
    ``prefix[s + l] ^ prefix[s]``.  The one source of every range parity."""
    prefix = np.zeros(len(perm) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits[perm], out=prefix[1:])
    return prefix


def _split_sample(bits: np.ndarray, seed: int):
    """(sample, rest): the seeded SAMPLE_FRACTION to disclose, and the key left."""
    n = len(bits)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SAMPLE_TAG]))
    idx = rng.choice(n, size=max(1, int(round(SAMPLE_FRACTION * n))), replace=False)
    idx.sort()
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return bits[idx], bits[keep]


def _sample_prior(mine: np.ndarray, theirs: np.ndarray):
    """(mismatches, QBER prior).  The prior counts at least one mismatch: a clean
    sample must not zero it, or the first-pass blocks blow up and errors slip through."""
    mismatches = int(np.sum(mine != theirs))
    return mismatches, max(mismatches, 1) / len(mine)


# parity of each byte value
_BYTE_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)


def verify_keys(bits: np.ndarray, tag_bits: int, seed: int) -> bytes:
    """Universal-hash key tag; collision probability 2**-tag_bits.

    The Toeplitz hash (``privamp.toeplitz_hash``) of the key, zero-padded
    to at least ``tag_bits`` bits, with a seed derived from the (public)
    shared seed; its bits packed MSB first.

    With so few rows it is computed on packed bits, not by FFT.  Row i is
    the seed from bit ``tag_bits - 1 - i`` on, which is one of the seed's
    8 bit-offset packings read from a whole byte.  Its bit with the key is
    the parity of the XOR of the row's words ANDed with the key's; the key's
    zero padding masks the seed bits past the key.
    """
    x = np.asarray(bits, dtype=np.uint8)
    n = max(len(x), tag_bits)
    seed_bits = generate_toeplitz_seed(n, tag_bits, np.random.SeedSequence([seed, _VERIFY_TAG]))
    size = 8 * -(-n // 64)  # key bytes, in whole u64 words
    key = np.zeros(size, dtype=np.uint8)
    key[: -(-len(x) // 8)] = np.packbits(x)
    key = key.view(np.uint64)
    # packed[r][q:q + size] holds seed bits 8q + r onwards
    packed = [np.zeros((tag_bits - 1) // 8 + size, dtype=np.uint8) for _ in range(8)]
    for r, p in enumerate(packed):
        row = np.packbits(seed_bits[r:])
        p[: len(row)] = row[: len(p)]
    words = np.empty(tag_bits, dtype=np.uint64)
    for i in range(tag_bits):
        q, r = divmod(tag_bits - 1 - i, 8)
        words[i] = np.bitwise_xor.reduce(packed[r][q : q + size].view(np.uint64) & key)
    parity = _BYTE_PARITY[np.bitwise_xor.reduce(words.view(np.uint8).reshape(tag_bits, 8), axis=1)]
    return np.packbits(parity).tobytes()


# ---------------------------------------------------------------------------
# Alice: parity responder

class AliceReconciler:
    """Serves parity requests against the reference key.

    Feed incoming messages to :meth:`handle`; it returns the reply message
    (or None for fire-and-forget messages).  After the verification tag
    has been answered, :attr:`result` is available.  The shuffle seed comes
    first, the QBER sample at most once and before any parity request, and
    nothing after the tag; any other message raises ChannelClosedError.
    """

    def __init__(self, bits: np.ndarray, params: CascadeParams = CascadeParams()):
        self._bits = np.array(bits, dtype=np.uint8).copy()
        self.params = params
        self.seed: Optional[int] = None
        self.leaked_bits = 0
        self.exchanged_messages = 0
        self.sample_size = 0
        self.sample_mismatches = 0
        self.qber_prior: Optional[float] = None
        self.done = False
        self.result: Optional[ReconciliationResult] = None
        self._passes: dict = {}  # pass_index -> prefix parity
        self._legal: tuple = (ShuffleSeedMsg,)  # the message types legal next

    def handle(self, msg):
        if not isinstance(msg, self._legal):
            raise ChannelClosedError(f"unexpected message {type(msg).__name__}")
        self.exchanged_messages += 1
        if isinstance(msg, ShuffleSeedMsg):
            self.seed = msg.seed
            self._legal = (QberSampleMsg, ParityRequestMsg, VerifyTagMsg)
            return None
        self._legal = (ParityRequestMsg, VerifyTagMsg)
        if isinstance(msg, QberSampleMsg):
            return self._reply(self._handle_sample(msg))
        if isinstance(msg, ParityRequestMsg):
            return self._reply(self._handle_parities(msg))
        self._legal = ()
        return self._handle_verify(msg)

    def _reply(self, msg):
        self.exchanged_messages += 1
        return msg

    def _handle_sample(self, msg: QberSampleMsg) -> QberSampleMsg:
        mine, rest = _split_sample(self._bits, self.seed)
        if msg.count != len(mine):
            raise ChannelClosedError("sample size mismatch")
        self._bits = rest
        self.sample_size = len(mine)
        self.sample_mismatches, self.qber_prior = _sample_prior(mine, msg.unpack())
        return QberSampleMsg.of(mine)

    def _handle_parities(self, msg: ParityRequestMsg) -> ParityResponseMsg:
        p = msg.pass_index
        if p not in self._passes:
            if p >= self.params.passes:
                raise ChannelClosedError(f"parity request for pass {p} of only {self.params.passes}")
            perm = _pass_permutation(len(self._bits), p, self.seed)
            self._passes[p] = _prefix_parity(self._bits, perm)
        prefix = self._passes[p]
        start, length = msg.ranges.astype(np.int64).T  # int64: a u32 sum would wrap
        end = start + length
        if np.any((length == 0) | (end >= len(prefix))):
            raise ChannelClosedError("parity range out of bounds")
        self.leaked_bits += len(end)
        return ParityResponseMsg.of(prefix[end] ^ prefix[start])

    def _handle_verify(self, msg: VerifyTagMsg) -> VerifyTagMsg:
        if msg.tag is None:
            raise ChannelClosedError("expected a key tag")
        equal = verify_keys(self._bits, TAG_BITS, self.seed) == msg.tag
        self.leaked_bits += TAG_BITS
        self.done = True
        reply = self._reply(VerifyTagMsg(status=1 if equal else 0))  # counted in the result
        self.result = ReconciliationResult(
            bits=self._bits,
            n=len(self._bits),
            leaked_bits=self.leaked_bits,
            exchanged_messages=self.exchanged_messages,
            verified=equal,
            errors_corrected=0,
            qber_prior=self.qber_prior if self.qber_prior is not None else 0.0,
            sample_size=self.sample_size,
            sample_mismatches=self.sample_mismatches,
        )
        return reply


class LocalChannel:
    """In-process channel driving an AliceReconciler directly."""

    def __init__(self, responder: AliceReconciler):
        self.responder = responder

    def send(self, msg) -> None:
        self.responder.handle(msg)

    def request(self, msg):
        reply = self.responder.handle(msg)
        if reply is None:
            raise ChannelClosedError("no reply from responder")
        return reply


# ---------------------------------------------------------------------------
# Bob: driver

class _BobState:
    def __init__(self, bits, channel):
        self.bits = bits
        self.channel = channel
        self.leaked_bits = 0
        self.exchanged_messages = 0
        self.errors_corrected = 0
        self.perms: list = []
        self.blocks: list = []    # per pass: each key bit's block index
        self.ks: list = []
        self.mismatch: list = []  # per pass: block parities differ (bool)

    def differs(self, pass_index, prefix, starts, lengths) -> np.ndarray:
        """Ask for Alice's parities of the ranges; True where Bob's differ."""
        reply = self.channel.request(ParityRequestMsg(pass_index, np.column_stack((starts, lengths))))
        if not isinstance(reply, ParityResponseMsg) or reply.count != len(starts):
            raise ChannelClosedError("bad parity response")
        self.exchanged_messages += 2
        self.leaked_bits += reply.count
        return reply.unpack() != prefix[starts + lengths] ^ prefix[starts]

    def flip(self, positions: np.ndarray) -> None:
        self.bits[positions] ^= 1
        self.errors_corrected += len(positions)
        for blocks, mismatch in zip(self.blocks, self.mismatch):
            np.bitwise_xor.at(mismatch, blocks[positions], True)


def _batch_binary_search(state: _BobState, pass_index: int, starts, lengths) -> np.ndarray:
    """Locate one differing bit in each disjoint odd-parity range.

    All active searches advance together: one request per halving level
    carries the current sub-ranges, so a block of length L costs
    ceil(log2 L) disclosed parities.  The bits do not change during a
    search, so one prefix serves all its levels.
    """
    perm = state.perms[pass_index]
    prefix = _prefix_parity(state.bits, perm)
    found = []
    while True:
        done = lengths == 1
        found.append(perm[starts[done]])
        starts, lengths = starts[~done], lengths[~done]
        if not len(starts):
            return np.concatenate(found)
        half = (lengths + 1) // 2
        left = state.differs(pass_index, prefix, starts, half)
        starts = np.where(left, starts, starts + half)
        lengths = np.where(left, half, lengths - half)


def reconcile_bob(
    bits: np.ndarray,
    channel,
    params: CascadeParams = CascadeParams(),
    qber_estimate: Optional[float] = None,
) -> ReconciliationResult:
    """Correct ``bits`` against the reference key on the far side.

    Returns the result; ``verified`` is False when the closing tags
    disagree, and the block must then be discarded.
    """
    work = np.array(bits, dtype=np.uint8)
    if len(work) == 0:
        raise ValueError("cannot reconcile an empty key")

    seed = params.shuffle_seed
    if seed is None:
        seed = int(np.random.default_rng().integers(0, 2**63))
    channel.send(ShuffleSeedMsg(seed))

    state = _BobState(work, channel)
    state.exchanged_messages += 1

    sample_size = 0
    sample_mismatches = 0
    if qber_estimate is None:
        mine, work = _split_sample(work, seed)
        reply = channel.request(QberSampleMsg.of(mine))
        if not isinstance(reply, QberSampleMsg) or reply.count != len(mine):
            raise ChannelClosedError("bad sample response")
        state.exchanged_messages += 2
        sample_size = len(mine)
        sample_mismatches, qber_estimate = _sample_prior(mine, reply.unpack())
        state.bits = work

    n = len(work)
    k1 = classic_initial_block(qber_estimate, n)
    for p in range(params.passes):
        k_p = min(k1 * (2**p), max(1, n // 2))
        perm = _pass_permutation(n, p, seed)
        blocks = np.empty(n, dtype=np.int64)
        blocks[perm] = np.arange(n, dtype=np.int64) // k_p
        starts = np.arange(0, n, k_p, dtype=np.int64)
        state.perms.append(perm)
        state.blocks.append(blocks)
        state.ks.append(k_p)
        state.mismatch.append(
            state.differs(p, _prefix_parity(work, perm), starts, np.minimum(k_p, n - starts)))

        # Block sizes grow with the pass, so the first pass with an odd
        # block has the smallest ones: search there, then back-track.
        while (q := next((i for i, m in enumerate(state.mismatch) if m.any()), None)) is not None:
            starts = np.flatnonzero(state.mismatch[q]) * state.ks[q]
            state.flip(_batch_binary_search(state, q, starts, np.minimum(state.ks[q], n - starts)))

    reply = channel.request(VerifyTagMsg(tag=verify_keys(work, TAG_BITS, seed)))
    if not isinstance(reply, VerifyTagMsg) or reply.status is None:
        raise ChannelClosedError("bad verification response")
    state.exchanged_messages += 2
    state.leaked_bits += TAG_BITS

    return ReconciliationResult(
        bits=work,
        n=n,
        leaked_bits=state.leaked_bits,
        exchanged_messages=state.exchanged_messages,
        verified=reply.status == 1,
        errors_corrected=state.errors_corrected,
        qber_prior=float(qber_estimate),
        sample_size=sample_size,
        sample_mismatches=sample_mismatches,
    )


def reconcile_pair(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    params: CascadeParams = CascadeParams(),
    qber_estimate: Optional[float] = None,
):
    """Run both roles in-process; returns (alice_result, bob_result),
    whose ``verified`` flags agree."""
    responder = AliceReconciler(alice_bits, params)
    channel = LocalChannel(responder)
    bob_result = reconcile_bob(bob_bits, channel, params, qber_estimate)
    return responder.result, bob_result
