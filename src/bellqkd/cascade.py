"""Interactive parity-based error reconciliation (classic CASCADE).

Bob drives: a disclose-and-discard sample bootstraps the error-rate
prior when none is given, then four passes of seeded-shuffled parity
blocks locate errors by interactive binary search, with full
back-tracking of earlier blocks after every correction.  Alice serves
parities as a pure responder.  Both sides account every disclosed parity
bit; a 64-bit universal-hash tag closes the block.

Message payloads are defined here; the protocol layer wraps them in
frames, and LocalChannel runs the two roles in one process for tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .privamp import generate_toeplitz_seed, pack_key_bits, toeplitz_hash

_PASS_TAG = 0xCA5C
_SAMPLE_TAG = 0x5A3B
_VERIFY_TAG = 0x7A61

SAMPLE_FRACTION = 0.02  # key share disclosed, then discarded, when no prior is given
TAG_BITS = 64  # every key tag: the one closing reconciliation and the confirm tag


class ChannelClosedError(Exception):
    """The reconciliation channel closed mid-exchange."""


class VerificationFailedError(Exception):
    """Key tags disagree after all passes; the block must be discarded."""

    def __init__(self, result):
        super().__init__("verification tag mismatch after reconciliation")
        self.result = result


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
        return cls(count, payload[4:])


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


@dataclass(frozen=True)
class ParityRequestMsg:
    pass_index: int
    ranges: tuple  # ((start, length), ...) over the pass's permutation

    def encode(self) -> bytes:
        head = struct.pack("<BI", self.pass_index, len(self.ranges))
        body = b"".join(struct.pack("<II", s, l) for s, l in self.ranges)
        return head + body

    @staticmethod
    def decode(payload: bytes) -> "ParityRequestMsg":
        pass_index, count = struct.unpack("<BI", payload[:5])
        if len(payload) != 5 + 8 * count:
            raise ValueError(f"{count} ranges need {8 * count} bytes, got {len(payload) - 5}")
        return ParityRequestMsg(pass_index, tuple(struct.iter_unpack("<II", payload[5:])))


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
            return VerifyTagMsg(tag=payload)
        if payload in (b"\x00", b"\x01"):
            return VerifyTagMsg(status=payload[0])
        raise ValueError(f"{len(payload)} bytes are neither a status nor a {TAG_BITS}-bit tag")


# ---------------------------------------------------------------------------
# Parameters

def classic_initial_block(qber: float, n: int) -> int:
    """First-pass block size ceil(0.73/QBER), clamped to [8, n/2]."""
    hi = max(1, n // 2)
    lo = min(8, hi)
    if qber <= 0:
        return hi
    return max(lo, min(int(math.ceil(0.73 / qber)), hi))


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


def verify_keys(bits: np.ndarray, tag_bits: int, seed: int) -> bytes:
    """Universal-hash key tag; collision probability 2**-tag_bits.

    Toeplitz hash with a seed derived from the (public) shared seed.
    Keys shorter than the tag are zero-padded.
    """
    x = np.asarray(bits, dtype=np.uint8)
    if len(x) < tag_bits:
        x = np.concatenate([x, np.zeros(tag_bits - len(x), dtype=np.uint8)])
    seed_bits = generate_toeplitz_seed(
        len(x), tag_bits, np.random.SeedSequence([seed, _VERIFY_TAG])
    )
    return np.packbits(toeplitz_hash(x, seed_bits, tag_bits)).tobytes()


# ---------------------------------------------------------------------------
# Alice: parity responder

class AliceReconciler:
    """Serves parity requests against the reference key.

    Feed incoming messages to :meth:`handle`; it returns the reply message
    (or None for fire-and-forget messages).  After the verification tag
    has been answered, :attr:`result` is available.
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
        self._passes: dict = {}  # pass_index -> (perm, prefix)

    def handle(self, msg):
        self.exchanged_messages += 1
        if isinstance(msg, ShuffleSeedMsg):
            self.seed = msg.seed
            return None
        if isinstance(msg, QberSampleMsg):
            return self._reply(self._handle_sample(msg))
        if isinstance(msg, ParityRequestMsg):
            return self._reply(self._handle_parities(msg))
        if isinstance(msg, VerifyTagMsg):
            return self._reply(self._handle_verify(msg))
        raise ChannelClosedError(f"unexpected message {type(msg).__name__}")

    def _reply(self, msg):
        self.exchanged_messages += 1
        return msg

    def _handle_sample(self, msg: QberSampleMsg) -> QberSampleMsg:
        if self.seed is None:
            raise ChannelClosedError("sample before shuffle seed")
        mine, rest = _split_sample(self._bits, self.seed)
        if msg.count != len(mine):
            raise ChannelClosedError("sample size mismatch")
        self._bits = rest
        self._passes.clear()
        self.sample_size = len(mine)
        self.sample_mismatches, self.qber_prior = _sample_prior(mine, msg.unpack())
        return QberSampleMsg.of(mine)

    def _pass_state(self, p: int):
        if p not in self._passes:
            if p >= self.params.passes:
                raise ChannelClosedError(f"parity request for pass {p} of only {self.params.passes}")
            if self.seed is None:
                raise ChannelClosedError("parity request before shuffle seed")
            perm = _pass_permutation(len(self._bits), p, self.seed)
            permuted = self._bits[perm]
            prefix = np.zeros(len(permuted) + 1, dtype=np.uint8)
            np.bitwise_xor.accumulate(permuted, out=prefix[1:])
            self._passes[p] = (perm, prefix)
        return self._passes[p]

    def _handle_parities(self, msg: ParityRequestMsg) -> ParityResponseMsg:
        perm, prefix = self._pass_state(msg.pass_index)
        n = len(self._bits)
        parities = np.empty(len(msg.ranges), dtype=np.uint8)
        for i, (start, length) in enumerate(msg.ranges):
            if start + length > n or length == 0:
                raise ChannelClosedError("parity range out of bounds")
            parities[i] = prefix[start + length] ^ prefix[start]
        self.leaked_bits += len(msg.ranges)
        return ParityResponseMsg.of(parities)

    def _handle_verify(self, msg: VerifyTagMsg) -> VerifyTagMsg:
        if msg.tag is None:
            raise ChannelClosedError("expected a key tag")
        if self.seed is None:
            raise ChannelClosedError("key tag before shuffle seed")
        equal = verify_keys(self._bits, TAG_BITS, self.seed) == msg.tag
        self.leaked_bits += TAG_BITS
        self.done = True
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
        return VerifyTagMsg(status=1 if equal else 0)


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
        self.invs: list = []
        self.ks: list = []
        self.mismatch: list = []

    def request_parities(self, pass_index, ranges) -> np.ndarray:
        msg = ParityRequestMsg(pass_index, tuple((int(s), int(l)) for s, l in ranges))
        reply = self.channel.request(msg)
        if not isinstance(reply, ParityResponseMsg) or reply.count != len(ranges):
            raise ChannelClosedError("bad parity response")
        self.exchanged_messages += 2
        self.leaked_bits += reply.count
        return reply.unpack()

    def own_parity(self, pass_index, start, length) -> int:
        perm = self.perms[pass_index]
        return int(np.bitwise_xor.reduce(self.bits[perm[start : start + length]]))

    def flip(self, bit_index: int) -> None:
        self.bits[bit_index] ^= 1
        self.errors_corrected += 1
        for q in range(len(self.perms)):
            block = self.invs[q][bit_index] // self.ks[q]
            self.mismatch[q][block] = ~self.mismatch[q][block]


def _batch_binary_search(state: _BobState, pass_index: int, ranges) -> list:
    """Locate one differing bit in each disjoint odd-parity range.

    All active searches advance together: one request per halving level
    carries the current sub-ranges, so a block of length L costs
    ceil(log2 L) disclosed parities.
    """
    active = [(int(s), int(l)) for s, l in ranges]
    found = []
    perm = state.perms[pass_index]
    while active:
        done = [r for r in active if r[1] == 1]
        for s, _ in done:
            found.append(int(perm[s]))
        active = [r for r in active if r[1] > 1]
        if not active:
            break
        halves = [(s, (l + 1) // 2) for s, l in active]
        alice = state.request_parities(pass_index, halves)
        next_active = []
        for (s, l), (hs, hl), ap in zip(active, halves, alice):
            mine = state.own_parity(pass_index, hs, hl)
            if mine != ap:
                next_active.append((hs, hl))
            else:
                next_active.append((s + hl, l - hl))
        active = next_active
    return found


def reconcile_bob(
    bits: np.ndarray,
    channel,
    params: CascadeParams = CascadeParams(),
    qber_estimate: Optional[float] = None,
) -> ReconciliationResult:
    """Correct ``bits`` against the reference key on the far side.

    Returns the result on success; raises VerificationFailedError (with
    ``.result`` attached) when the closing tags disagree.
    """
    work = np.array(bits, dtype=np.uint8).copy()
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
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        nblocks = int(math.ceil(n / k_p))
        starts = np.arange(nblocks, dtype=np.int64) * k_p
        lengths = np.minimum(k_p, n - starts)
        state.perms.append(perm)
        state.invs.append(inv)
        state.ks.append(k_p)

        alice_par = state.request_parities(p, list(zip(starts, lengths)))
        permuted = work[perm]
        my_par = np.bitwise_xor.reduceat(permuted, starts)
        state.mismatch.append(alice_par.astype(bool) ^ my_par.astype(bool))

        while True:
            cand = [q for q in range(len(state.perms)) if state.mismatch[q].any()]
            if not cand:
                break
            q = min(cand, key=lambda qq: state.ks[qq])
            odd = np.nonzero(state.mismatch[q])[0]
            q_starts = odd * state.ks[q]
            q_lengths = np.minimum(state.ks[q], n - q_starts)
            positions = _batch_binary_search(state, q, list(zip(q_starts, q_lengths)))
            for i in positions:
                state.flip(i)

    reply = channel.request(VerifyTagMsg(tag=verify_keys(work, TAG_BITS, seed)))
    if not isinstance(reply, VerifyTagMsg) or reply.status is None:
        raise ChannelClosedError("bad verification response")
    state.exchanged_messages += 2
    state.leaked_bits += TAG_BITS
    verified = reply.status == 1

    result = ReconciliationResult(
        bits=work,
        n=n,
        leaked_bits=state.leaked_bits,
        exchanged_messages=state.exchanged_messages,
        verified=verified,
        errors_corrected=state.errors_corrected,
        qber_prior=float(qber_estimate),
        sample_size=sample_size,
        sample_mismatches=sample_mismatches,
    )
    if not verified:
        raise VerificationFailedError(result)
    return result


def reconcile_pair(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    params: CascadeParams = CascadeParams(),
    qber_estimate: Optional[float] = None,
):
    """Run both roles in-process; returns (alice_result, bob_result).

    Bob's VerificationFailedError propagates with both results attached to
    the exception's ``.result`` (Bob) and the responder (Alice).
    """
    responder = AliceReconciler(alice_bits, params)
    channel = LocalChannel(responder)
    bob_result = reconcile_bob(bob_bits, channel, params, qber_estimate)
    return responder.result, bob_result
