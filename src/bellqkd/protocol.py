"""Two-party key-distribution session over a framed classical channel.

Frames are "QKDP" + version + type + u32 length + payload.  Per block the
flow is: Bob streams his time tags (detector bytes replaced by basis
codes so no key outcome crosses the wire); Alice recovers the clock
offset, matches coincidences, and answers every batch with a
MATCH_ANNOUNCE whose flag says continue (2), block complete (1, with the
matched index pairs and her branch class per pair) or end of data (0).
Both sides then reveal their Bell-branch detector outcomes, compute the
same CHSH value from the same public records, abort below the classical
bound, reconcile the key branch by interactive parities, compress by a
public Toeplitz seed, confirm the final block with a short tag and
cross-check BlockStats before the next block starts.

Alice scans the batches so far for the clock offset.  She retries a
failed scan on the next batch only while she holds fewer than
``timetag.COARSE_TAGS`` tags; past that, or when the data ends first,
she aborts NO_PEAK with the last scan's message.

The strict batch/announce lockstep makes the transcript a pure function
of the inputs, so recorded runs replay byte-identically per direction.
Only the stations' own work overlaps it: Bob generates his next segment
while Alice matches the batch he has just sent.

Every frame payload is one message class with ``encode()`` and
``decode(payload)``; ``MESSAGES`` is the one map from a frame type to its
class.  An endpoint sends a message with ``_Endpoint.send`` and receives
one with ``_expect``, which decodes through ``frame_message``.

Error contract.  Every failure ends the session in one recorded abort,
``SessionResult.abort_reason`` plus ``abort_message``:

- a failed check (|S| <= 2 or S not measured, a key tag, a frame that
  is not legal next, a block that outgrows the u32 match indices of
  MATCH_ANNOUNCE, a segment of Bob's without tags that is not his last)
  aborts with its own reason: INSECURE_REGIME, VERIFICATION_FAILED,
  NO_PEAK, PROTOCOL_VIOLATION, BLOCK_TOO_LARGE or EMPTY_SEGMENT;
- a PA_PARAMS, PA_SEED or echoed BLOCK_STATS whose bytes differ from the
  ones this side derives aborts with PROTOCOL_VIOLATION ``<TYPE> mismatch``
  (Alice's own BLOCK_STATS check keeps ``block stats mismatch``);
- ``MalformedFrameError`` and the reconciler's ``ChannelClosedError``
  abort with PROTOCOL_VIOLATION.  Bytes that do not form a frame raise
  it in ``decode_frame``; a payload that does not decode raises it in
  ``frame_message`` only, as ``bad <TYPE> payload: <why>``;
- ``PeerDisconnectedError`` and ``SessionTimeoutError`` abort with
  PEER_DISCONNECTED and TIMEOUT;
- a received ABORT is the peer's abort: its reason (INTERNAL if unknown,
  PROTOCOL_VIOLATION if the payload is empty) and its text.

``_Endpoint.run`` holds the only two abort rules.  INSECURE_REGIME or
VERIFICATION_FAILED at or past the Bell phase logs the open block's row,
qber NaN, as the peer does.  An abort sends the peer one ABORT frame with
its reason and message unless it came from the peer, or its reason is
PEER_DISCONNECTED, TIMEOUT or VERIFICATION_FAILED (the confirm status
has told both sides).  Alice closes a block before Bob checks her
BLOCK_STATS echo; when his next frame is a PROTOCOL_VIOLATION ABORT,
his refusal of it, she drops that block again.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from dataclasses import astuple, dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .cascade import (
    AliceReconciler,
    CascadeParams,
    ChannelClosedError,
    CountedBits,
    ParityRequestMsg,
    ParityResponseMsg,
    QberSampleMsg,
    ReconciliationResult,
    ShuffleSeedMsg,
    TAG_BITS,
    VerifyTagMsg,
    reconcile_bob,
    verify_keys,
)
from .physics import BOB_DETECTORS, require_finite
from .privamp import (
    SecurityEstimate,
    eve_information,
    generate_toeplitz_seed,
    pack_key_bits,
    secret_fraction,
    toeplitz_hash,
)
from .sifting import (
    BOB_SETTING,
    BellEstimate,
    CoincidenceClass,
    EmptyTermError,
    InvalidDetectorError,
    alice_key_bits,
    bob_key_bits,
    chsh_value,
    classify,
    count_coincidences,
)
from .timetag import (COARSE_TAGS, MAX_TICK, TAG_RECORD, NoPeakError, WindowConfig,
                      count_accidentals, find_delay, match_coincidences)

FRAME_MAGIC = b"QKDP"
FRAME_VERSION = 1
_HEADER = struct.Struct("<4sBBI")
# Largest payload a frame may carry, far above the largest legal one: at
# the ChannelConfig defaults a 1 s TIMETAG_BATCH is ~0.8 MB and a 100k-bit
# block's MATCH_ANNOUNCE ~3.65 MB (405k matches, 9 bytes each).  A stream
# reader refuses a larger header before it reads the payload.
MAX_FRAME_PAYLOAD = 1 << 26

# Seed-derivation tags so the per-block cascade shuffle, the Toeplitz
# seed and the confirm tag all come from independent public streams.
_CASCADE_SEED_TAG = 0x5EED
_PA_SEED_TAG = 0x70E9
_CONFIRM_SEED_TAG = 0xC0F1

_ANNOUNCE_HEAD = struct.Struct("<BqII")  # flag, delay, accidentals, match count
_MATCH_RECORD = np.dtype([("a", "<u4"), ("b", "<u4"), ("cls", "u1")])
_MAX_BLOCK_TAGS = 1 << 32  # tags per side a block's u32 match indices can address


class FrameType(IntEnum):
    HELLO = 1
    TIMETAG_BATCH = 2
    MATCH_ANNOUNCE = 3
    BELL_REVEAL = 4
    QBER_SAMPLE = 5
    SHUFFLE_SEED = 6
    PARITY_REQUEST = 7
    PARITY_RESPONSE = 8
    VERIFY_TAG = 9
    PA_PARAMS = 10
    PA_SEED = 11
    BLOCK_STATS = 12
    ABORT = 13


class Phase(IntEnum):
    HELLO = 0
    SYNC = 1
    SIFT = 2
    BELL = 3
    RECONCILE = 4
    AMPLIFY = 5
    CONFIRM = 6
    DONE = 7
    ABORTED = 8


class AbortReason(IntEnum):
    # _Endpoint.run sends each reason in an ABORT but 2, 6 and 7 (_UNSENT);
    # INTERNAL is only read, for a peer's code this side does not know.
    INSECURE_REGIME = 1
    VERIFICATION_FAILED = 2
    PROTOCOL_VIOLATION = 3
    NO_PEAK = 4
    INTERNAL = 5
    PEER_DISCONNECTED = 6
    TIMEOUT = 7
    BLOCK_TOO_LARGE = 8
    EMPTY_SEGMENT = 9


# MATCH_ANNOUNCE flags
ANNOUNCE_END = 0
ANNOUNCE_BLOCK = 1
ANNOUNCE_CONTINUE = 2


class MalformedFrameError(Exception):
    """Bytes on the wire do not form a valid frame."""


class PeerDisconnectedError(Exception):
    """The transport closed before the session finished."""


class SessionTimeoutError(Exception):
    """No frame arrived within the configured timeout."""


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes = b""  # any bytes-like object


class _FrameBuffer(bytearray):
    """One frame's only buffer: the header, then the payload, written in place."""


def _framed(ftype: int, size: int) -> memoryview:
    """The payload, ``size`` zero bytes, of a new frame buffer whose header
    is written in front of it; ``encode_frame`` returns that buffer as it is."""
    frame = _FrameBuffer(_HEADER.size + size)
    _HEADER.pack_into(frame, 0, FRAME_MAGIC, FRAME_VERSION, int(ftype), size)
    return memoryview(frame)[_HEADER.size:]


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """The frame's bytes: its header, then ``payload``.  A payload that is
    the whole tail of a ``_framed`` buffer with this header is not copied:
    that buffer is the frame."""
    if len(payload) > 0xFFFFFFFF:
        raise ValueError("payload too large for a frame")
    header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(ftype), len(payload))
    frame = getattr(payload, "obj", None)
    if (isinstance(frame, _FrameBuffer) and payload.contiguous
            and len(frame) == len(header) + payload.nbytes and frame[:len(header)] == header):
        return frame
    return header + payload


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame; rejects bad magic, version, type, size.
    The payload is a view of ``data``, not a copy."""
    if len(data) < _HEADER.size:
        raise MalformedFrameError("frame shorter than header")
    magic, version, ftype, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise MalformedFrameError("bad magic")
    if version != FRAME_VERSION:
        raise MalformedFrameError(f"version {version}")
    try:
        ftype = FrameType(ftype)
    except ValueError:
        raise MalformedFrameError(f"unknown frame type {ftype}") from None
    if length > MAX_FRAME_PAYLOAD:
        raise MalformedFrameError(f"frame payload of {length} bytes over the "
                                  f"{MAX_FRAME_PAYLOAD}-byte limit")
    if len(data) != _HEADER.size + length:
        raise MalformedFrameError("frame length mismatch")
    return Frame(ftype, memoryview(data)[_HEADER.size:])


def iter_frames(data: bytes) -> Iterator[Frame]:
    """Split a concatenated frame stream (e.g. a recorded transcript)."""
    off = 0
    while off < len(data):
        if len(data) - off < _HEADER.size:
            raise MalformedFrameError("trailing partial header")
        _, _, _, length = _HEADER.unpack_from(data, off)
        end = off + _HEADER.size + length
        if end > len(data):
            raise MalformedFrameError("trailing partial frame")
        yield decode_frame(data[off:end])
        off = end


# ---------------------------------------------------------------------------
# Messages: one class per frame type, each with ``encode()`` and
# ``decode(payload)``.  A decoder raises only ValueError or struct.error.
# It takes any bytes-like payload, a view of a received frame included,
# and keeps no view of it: every field it returns is its own copy, so a
# message never holds its frame alive.  TimetagBatch, MatchAnnounce and
# BellReveal, the messages that grow with a block, encode straight into
# their frame's buffer (``_framed``).
# Hello, TimetagBatch, MatchAnnounce, BellReveal and Abort are plain
# classes: a frozen dataclass costs about a millisecond of import time, and
# its generated ``__eq__`` raises on array fields.

class Hello:
    def __init__(self, role: int):
        self.role = role  # 0 for the matching side, 1 for the tag-sending side

    def encode(self) -> bytes:
        return bytes([self.role])

    @staticmethod
    def decode(payload: bytes) -> "Hello":
        if payload not in (b"\x00", b"\x01"):
            raise ValueError("not one role byte 0 or 1")
        return Hello(payload[0])


def encode_timetag_batch(ticks: np.ndarray, codes: np.ndarray) -> memoryview:
    """The 9-byte tag records, written into a TIMETAG_BATCH frame buffer."""
    if len(ticks) != len(codes):
        raise ValueError("ticks and codes must have equal length")
    payload = _framed(FrameType.TIMETAG_BATCH, TAG_RECORD.itemsize * len(ticks))
    rec = np.frombuffer(payload, dtype=TAG_RECORD)
    rec["tick"], rec["det"] = ticks, codes
    return payload


def decode_timetag_batch(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    if len(payload) % TAG_RECORD.itemsize != 0:
        raise ValueError(f"{len(payload)} bytes are not whole {TAG_RECORD.itemsize}-byte records")
    rec = np.frombuffer(payload, dtype=TAG_RECORD)
    return rec["tick"].astype(np.uint64), rec["det"].astype(np.uint8)


class TimetagBatch:
    """Bob's tags of one segment, detector bytes replaced by basis codes."""

    def __init__(self, ticks: np.ndarray, codes: np.ndarray):
        self.ticks = ticks
        self.codes = codes

    def encode(self) -> bytes:
        return encode_timetag_batch(self.ticks, self.codes)

    @staticmethod
    def decode(payload: bytes) -> "TimetagBatch":
        return TimetagBatch(*decode_timetag_batch(payload))


class MatchAnnounce:
    """Alice's answer to one batch: a flag, and with ANNOUNCE_BLOCK the
    delay, the accidentals and one (a, b, class) record per match."""

    def __init__(self, flag: int, delay_ticks: int = 0, accidentals: int = 0,
                 a_idx=None, b_idx=None, classes=None):
        self.flag = flag
        self.delay_ticks = delay_ticks
        self.accidentals = accidentals
        self.a_idx = np.empty(0, np.uint32) if a_idx is None else a_idx
        self.b_idx = np.empty(0, np.uint32) if b_idx is None else b_idx
        self.classes = np.empty(0, np.uint8) if classes is None else classes

    def encode(self) -> memoryview:
        count = len(self.a_idx)
        payload = _framed(FrameType.MATCH_ANNOUNCE,
                          _ANNOUNCE_HEAD.size + count * _MATCH_RECORD.itemsize)
        _ANNOUNCE_HEAD.pack_into(payload, 0, self.flag, self.delay_ticks, self.accidentals, count)
        rec = np.frombuffer(payload, dtype=_MATCH_RECORD, offset=_ANNOUNCE_HEAD.size)
        rec["a"], rec["b"], rec["cls"] = self.a_idx, self.b_idx, self.classes
        return payload

    @staticmethod
    def decode(payload: bytes) -> "MatchAnnounce":
        flag, delay, acc, count = _ANNOUNCE_HEAD.unpack_from(payload)
        if flag not in (ANNOUNCE_END, ANNOUNCE_BLOCK, ANNOUNCE_CONTINUE):
            raise ValueError(f"unknown flag {flag}")
        size = len(payload) - _ANNOUNCE_HEAD.size
        if size != count * _MATCH_RECORD.itemsize:
            raise ValueError(f"{count} matches need {count * _MATCH_RECORD.itemsize} bytes,"
                             f" got {size}")
        rec = np.frombuffer(payload, dtype=_MATCH_RECORD, offset=_ANNOUNCE_HEAD.size)
        return MatchAnnounce(
            flag, delay, acc,
            rec["a"].astype(np.uint32), rec["b"].astype(np.uint32), rec["cls"].astype(np.uint8),
        )


class BellReveal:
    """One side's detector outcomes on the block's Bell branch."""

    def __init__(self, detectors: np.ndarray):
        self.detectors = detectors

    def encode(self) -> memoryview:
        count = len(self.detectors)
        payload = _framed(FrameType.BELL_REVEAL, 4 + count)
        struct.pack_into("<I", payload, 0, count)
        np.frombuffer(payload, np.uint8, offset=4)[:] = self.detectors
        return payload

    @staticmethod
    def decode(payload: bytes) -> "BellReveal":
        (count,) = struct.unpack_from("<I", payload)
        if len(payload) - 4 != count:
            raise ValueError(f"{count} detectors, got {len(payload) - 4} bytes")
        return BellReveal(np.frombuffer(payload, np.uint8, offset=4).copy())


class _Packed:
    """A message whose fields, in order, are the class's ``_S`` struct."""

    def encode(self) -> bytes:
        return self._S.pack(*astuple(self))

    @classmethod
    def decode(cls, payload: bytes):
        return cls(*cls._S.unpack(payload))


@dataclass(frozen=True)
class PaParams(_Packed):
    n: int
    leak_ec: int
    final_length: int
    finite_deduction: int
    s_value: float
    rate_multiplier: float

    _S = struct.Struct("<IIIIdd")


class PaSeedMsg(CountedBits):
    """The public Toeplitz seed bits."""


@dataclass
class BlockStats(_Packed):
    """Per-block record both endpoints must agree on at block close."""

    block_index: int
    t_start: float
    t_end: float
    coincidence_count: int
    accidental_count: int
    qber: float
    s_value: float
    s_stderr: float
    leak_ec: int
    i_eve: float
    final_bits: int

    _S = struct.Struct("<IddQQdddQdQ")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class Abort:
    def __init__(self, reason: int, message: str = ""):
        self.reason = reason  # an AbortReason code
        self.message = message

    def encode(self) -> bytes:
        return bytes([self.reason]) + self.message.encode("utf-8")

    @staticmethod
    def decode(payload: bytes) -> "Abort":
        if not payload:
            raise ValueError("no reason byte")
        return Abort(payload[0], str(payload[1:], "utf-8", errors="replace"))


MESSAGES = {
    FrameType.HELLO: Hello,
    FrameType.TIMETAG_BATCH: TimetagBatch,
    FrameType.MATCH_ANNOUNCE: MatchAnnounce,
    FrameType.BELL_REVEAL: BellReveal,
    FrameType.QBER_SAMPLE: QberSampleMsg,
    FrameType.SHUFFLE_SEED: ShuffleSeedMsg,
    FrameType.PARITY_REQUEST: ParityRequestMsg,
    FrameType.PARITY_RESPONSE: ParityResponseMsg,
    FrameType.VERIFY_TAG: VerifyTagMsg,
    FrameType.PA_PARAMS: PaParams,
    FrameType.PA_SEED: PaSeedMsg,
    FrameType.BLOCK_STATS: BlockStats,
    FrameType.ABORT: Abort,
}
_FRAME_TYPES = {cls: ftype for ftype, cls in MESSAGES.items()}


def frame_message(frame: Frame):
    """The message a frame carries; a payload that does not decode is malformed."""
    ftype = FrameType(frame.type)
    try:
        return MESSAGES[ftype].decode(frame.payload)
    except (struct.error, ValueError) as exc:
        raise MalformedFrameError(f"bad {ftype.name} payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Transports

_CLOSED = object()  # ends the peer's stream in a receive queue


class QueueTransport:
    """In-process duplex pipe; each frame travels as its one encoded buffer.

    ``recorder`` (if set) sees every outgoing frame, in order, as a
    bytes-like object whose bytes are the frame's wire bytes: the same
    buffer the peer receives, which nothing writes to after it is sent.
    Incoming frames are read from the ``rx`` queue, where ``_CLOSED``
    marks the end of the peer's stream.
    """

    def __init__(self, rx: queue.Queue, tx: Optional[queue.Queue], timeout: float = 60.0,
                 recorder: Optional[Callable[[bytes], None]] = None):
        self._rx = rx
        self._tx = tx
        self.timeout = timeout
        self.recorder = recorder
        self._closed = False

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame.type, frame.payload)
        if self.recorder is not None:
            self.recorder(data)
        self._transmit(data)

    def _transmit(self, data: bytes) -> None:
        self._tx.put(data)

    def recv_frame(self) -> Frame:
        try:
            data = self._rx.get(timeout=self.timeout)
        except queue.Empty:
            raise SessionTimeoutError(f"no frame within {self.timeout} s")
        if data is _CLOSED:
            # propagate for any further reader
            self._rx.put(data)
            raise PeerDisconnectedError("peer closed the connection")
        return decode_frame(data)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._tx.put(_CLOSED)


def inproc_pair(timeout: float = 60.0,
                recorders: Tuple[Optional[Callable], Optional[Callable]] = (None, None)):
    """(alice_transport, bob_transport) joined back to back."""
    q_ab: queue.Queue = queue.Queue()
    q_ba: queue.Queue = queue.Queue()
    alice = QueueTransport(rx=q_ba, tx=q_ab, timeout=timeout, recorder=recorders[0])
    bob = QueueTransport(rx=q_ab, tx=q_ba, timeout=timeout, recorder=recorders[1])
    return alice, bob


_READ_STEP = 1 << 16


class SocketTransport(QueueTransport):
    """Frame transport over a connected stream socket.

    A reader thread drains the socket into a bounded receive queue so that
    large sends from both sides cannot deadlock on full kernel buffers.
    Only ``timeout`` bounds a wait; the socket's own deadline is cleared.
    A send to a peer that has left is dropped, so the frames it sent
    first, an ABORT say, are still received before the disconnect.
    """

    def __init__(self, sock: socket.socket, timeout: float = 60.0,
                 recorder: Optional[Callable[[bytes], None]] = None):
        super().__init__(rx=queue.Queue(maxsize=32), tx=None, timeout=timeout, recorder=recorder)
        self._sock = sock
        sock.settimeout(None)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _fill(self, frame: bytearray, size: int) -> bool:
        """Receive until ``frame`` holds ``size`` bytes; False if the stream
        ends first.  recv_into the one buffer, so no byte is copied twice.
        It grows by at most _READ_STEP at first and then by doubling, so a
        header that claims more than the peer sends costs no memory."""
        got = len(frame)
        while got < size:
            frame.extend(bytes(min(max(got, _READ_STEP), size - got)))
            while got < len(frame):
                n = self._sock.recv_into(memoryview(frame)[got:])
                if not n:
                    return False
                got += n
        return True

    def _read_loop(self) -> None:
        try:
            while True:
                frame = bytearray()
                if not self._fill(frame, _HEADER.size):
                    break
                _, _, _, length = _HEADER.unpack(frame)
                if length > MAX_FRAME_PAYLOAD:
                    self._rx.put(frame)  # decode_frame refuses it
                    break
                if not self._fill(frame, _HEADER.size + length):
                    break
                self._rx.put(frame)
        except OSError:
            pass
        self._rx.put(_CLOSED)

    def _transmit(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError:
            pass  # the reader reports the disconnect after the peer's last frame

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ---------------------------------------------------------------------------
# Session configuration and results

# The coincidence window and delay search are fixed by the experiment.
_WINDOW = WindowConfig()


@dataclass(frozen=True)
class SessionConfig:
    """What a run sets; both endpoints must be given equal values.

    block_min_key_bits   key-branch coincidences that close a block, >= 1
    finite_deduction     bits taken off each final block, in [0, 2**32): a u32 on the wire
    rate_multiplier      scale on the secret fraction, in (0, 1]
    seed                 public per-block seeds: Cascade shuffle, Toeplitz, confirm tag
    segment_seconds      acquisition time per TIMETAG_BATCH, > 0
    timeout              seconds to wait for a frame before a TIMEOUT abort

    The coincidence window is ``WindowConfig()`` and reconciliation runs
    ``CascadeParams()``; neither is a per-run choice.
    """

    block_min_key_bits: int = 10000
    finite_deduction: int = 0
    rate_multiplier: float = 1.0
    seed: int = 1
    segment_seconds: float = 1.0
    timeout: float = 60.0

    def __post_init__(self):
        require_finite(self)
        if self.block_min_key_bits < 1:
            raise ValueError("block_min_key_bits must be >= 1")
        if not 0 <= self.finite_deduction < 1 << 32:
            raise ValueError("finite_deduction must be in [0, 2**32)")
        if not 0.0 < self.rate_multiplier <= 1.0:
            raise ValueError("rate_multiplier must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.segment_seconds <= 0:
            raise ValueError("segment_seconds must be > 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


@dataclass
class SessionResult:
    role: str
    phase: Phase
    abort_reason: Optional[AbortReason]
    stats: List[BlockStats]
    key_bits: np.ndarray
    delay_ticks: Optional[int] = None
    # reconciled key length of each successfully completed block, in order
    block_sizes: List[int] = field(default_factory=list)
    # why the session aborted: the local message, or the peer's ABORT text
    abort_message: str = ""

    @property
    def done(self) -> bool:
        return self.phase == Phase.DONE

    def key_bytes(self) -> bytes:
        return pack_key_bits(self.key_bits)


def _derived_seed(seed: int, block_index: int, tag: int) -> int:
    ss = np.random.SeedSequence([int(seed), int(block_index), tag])
    return int(ss.generate_state(1, np.uint64)[0])


def _confirm_tag(final_bits: np.ndarray, seed: int, block_index: int) -> bytes:
    return verify_keys(final_bits, TAG_BITS, _derived_seed(seed, block_index, _CONFIRM_SEED_TAG))


def _joined(parts) -> np.ndarray:
    """The parts as one array; one part is itself, not a copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# Bob's "+1" detector by announced setting: Alice classifies with it.
_BOB_PLUS = np.array([plus for plus, _ in BOB_DETECTORS], np.uint8)


# ---------------------------------------------------------------------------
# Aborts

class _AbortSignal(Exception):
    """Ends the session with ``reason`` and ``message``."""

    def __init__(self, reason: AbortReason, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


class _PeerAbort(_AbortSignal):
    """The abort a received ABORT frame stands for; it is never answered."""


# The one map from an exception to the abort it ends the session with.
_ABORT_REASONS = (
    (PeerDisconnectedError, AbortReason.PEER_DISCONNECTED),
    (SessionTimeoutError, AbortReason.TIMEOUT),
    (MalformedFrameError, AbortReason.PROTOCOL_VIOLATION),
    (ChannelClosedError, AbortReason.PROTOCOL_VIOLATION),
)
_ABORT_ERRORS = (_AbortSignal,) + tuple(exc for exc, _ in _ABORT_REASONS)
# Aborts that refuse the open block, whose row both sides then log.
_REFUSALS = (AbortReason.INSECURE_REGIME, AbortReason.VERIFICATION_FAILED)
_UNSENT = (AbortReason.PEER_DISCONNECTED, AbortReason.TIMEOUT, AbortReason.VERIFICATION_FAILED)


def _abort_signal(exc: Exception) -> _AbortSignal:
    if isinstance(exc, _AbortSignal):
        return exc
    reason = next(r for cls, r in _ABORT_REASONS if isinstance(exc, cls))
    return _AbortSignal(reason, str(exc))


def _peer_abort(frame: Frame) -> _PeerAbort:
    try:
        abort = frame_message(frame)
    except MalformedFrameError as exc:
        return _PeerAbort(AbortReason.PROTOCOL_VIOLATION, str(exc))
    try:
        reason = AbortReason(abort.reason)
    except ValueError:
        reason = AbortReason.INTERNAL
    return _PeerAbort(reason, abort.message)


def _expect_equal(mine, theirs) -> None:
    """Refuse a peer's message whose bytes differ from this side's own."""
    if mine.encode() != theirs.encode():
        raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION,
                           f"{_FRAME_TYPES[type(mine)].name} mismatch")


# ---------------------------------------------------------------------------
# Per-block record and the shared run loop

class _Block:
    """One key block on either side: its state, and its BlockStats row."""

    def __init__(self, index: int, seg_start: int, seg_seconds: float):
        self.index = index
        self.seg_start = seg_start
        self.seg_end = seg_start  # one past the last segment the block used
        self.seg_seconds = seg_seconds
        self.coincidences = 0
        self.accidentals = 0
        self.bell: Optional[BellEstimate] = None
        self.recon: Optional[ReconciliationResult] = None
        self.estimate: Optional[SecurityEstimate] = None
        self.final = np.empty(0, dtype=np.uint8)
        # Alice only: per segment, the (a_idx, b_idx, classes) matches, the
        # key bits and the Bell-branch detectors
        self.a_base = 0
        self.b_base = 0
        self.matches: list = []
        self.key_bits: list = []
        self.bell_dets: list = []
        self.key_count = 0

    def announce(self, delay: int) -> MatchAnnounce:
        """The block's MATCH_ANNOUNCE.  The per-segment matches go with it,
        so they are freed once it is sent."""
        a_idx, b_idx, classes = (np.concatenate(parts) for parts in zip(*self.matches))
        self.matches = []
        return MatchAnnounce(ANNOUNCE_BLOCK, delay, self.accidentals, a_idx, b_idx, classes)

    def bell_refusal(self, alice_dets: np.ndarray, bob_dets: np.ndarray) -> Optional[str]:
        """Estimate S from the revealed Bell branch; why the block is
        refused, or None if |S| > 2."""
        try:
            self.bell = chsh_value(count_coincidences(alice_dets, bob_dets))
        except InvalidDetectorError:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "revealed detector out of range")
        except EmptyTermError as exc:
            return f"S not measured: {exc}"
        s = abs(self.bell.s_value)
        return None if s > 2.0 else f"|S| = {s:.4f} <= 2"

    def pa_params(self, cfg: SessionConfig) -> PaParams:
        """Set the security estimate; returns the amplification parameters."""
        est = self.estimate = secret_fraction(
            self.recon.n, self.recon.leaked_bits, self.bell.s_value,
            cfg.finite_deduction, cfg.rate_multiplier,
        )
        return PaParams(est.n, est.leak_ec, est.final_length,
                        cfg.finite_deduction, est.s_value, cfg.rate_multiplier)

    def stats(self, qber: float) -> BlockStats:
        nan = float("nan")
        bell, recon = self.bell, self.recon
        if recon is None:  # refused before reconciliation ended
            leak, i_eve = 0, nan
        else:
            leak = recon.leaked_bits
            # without an estimate, reconciliation failed before amplification
            i_eve = (self.estimate.i_eve if self.estimate is not None
                     else eve_information(bell.s_value))
        return BlockStats(
            block_index=self.index,
            t_start=self.seg_start * self.seg_seconds,
            t_end=self.seg_end * self.seg_seconds,
            coincidence_count=self.coincidences,
            accidental_count=self.accidentals,
            qber=qber,
            s_value=bell.s_value if bell is not None else nan,
            s_stderr=bell.standard_error if bell is not None else nan,
            leak_ec=leak,
            i_eve=i_eve,
            final_bits=len(self.final),
        )


class _Endpoint:
    """What both endpoints share: results, block record, run loop, amplification.

    Each side is a script: ``_run_block`` runs one block's exchange in
    order.  ``send`` and ``_expect`` are the only code that writes or
    reads a frame; both deal in messages.
    """

    role = ""
    _hello, _peer = 0, ""  # this side's HELLO byte; what the peer must be

    def __init__(self, transport, segments: Iterable, config: SessionConfig = SessionConfig()):
        self.transport = transport
        self.segments = iter(segments)
        self.cfg = config
        self.phase = Phase.HELLO
        self.abort_reason: Optional[AbortReason] = None
        self.abort_message = ""
        self.stats: List[BlockStats] = []
        self.key_bits: List[np.ndarray] = []
        self.block_sizes: List[int] = []
        self.delay: Optional[int] = None
        self._block = _Block(0, 0, config.segment_seconds)

    def run(self) -> SessionResult:
        try:
            self._drive()
        except _ABORT_ERRORS as exc:
            sig = _abort_signal(exc)
            if sig.reason in _REFUSALS and self.phase >= Phase.BELL:
                self.stats.append(self._block.stats(qber=float("nan")))
            self.phase = Phase.ABORTED
            self.abort_reason = sig.reason
            self.abort_message = sig.message
            if not isinstance(sig, _PeerAbort) and sig.reason not in _UNSENT:
                self.send(Abort(int(sig.reason), sig.message))
        finally:
            self.transport.close()
        return SessionResult(
            role=self.role,
            phase=self.phase,
            abort_reason=self.abort_reason,
            stats=self.stats,
            key_bits=(np.concatenate(self.key_bits) if self.key_bits
                      else np.empty(0, dtype=np.uint8)),
            delay_ticks=self.delay,
            block_sizes=self.block_sizes,
            abort_message=self.abort_message,
        )

    def _drive(self) -> None:
        self.send(Hello(self._hello))
        if self._expect(Hello).role != 1 - self._hello:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, f"peer is not {self._peer}")
        while self._run_block():
            pass
        self.phase = Phase.DONE

    def send(self, msg) -> None:
        self.transport.send_frame(Frame(_FRAME_TYPES[type(msg)], msg.encode()))

    def _expect(self, *classes):
        """The next message, if it is one of ``classes``; a peer's ABORT ends the session."""
        frame = self.transport.recv_frame()
        if frame.type == FrameType.ABORT:
            raise _peer_abort(frame)
        if MESSAGES[frame.type] not in classes:
            raise _AbortSignal(
                AbortReason.PROTOCOL_VIOLATION,
                f"got {FrameType(frame.type).name}, expected "
                + "/".join(_FRAME_TYPES[cls].name for cls in classes),
            )
        return frame_message(frame)

    def _amplify(self) -> None:
        """Compress the reconciled block by the length its S allows and
        confirm the result; ``blk.final`` is set once the tag is confirmed.
        ``_agree`` and ``_confirm`` are each role's half of an exchange."""
        cfg, blk = self.cfg, self._block
        self.phase = Phase.AMPLIFY
        pa = blk.pa_params(cfg)
        self._agree(pa)
        if pa.final_length == 0:
            return
        seed_bits = generate_toeplitz_seed(
            blk.recon.n, pa.final_length,
            np.random.SeedSequence([int(cfg.seed), int(blk.index), _PA_SEED_TAG]),
        )
        self._agree(PaSeedMsg.of(seed_bits))
        final = toeplitz_hash(blk.recon.bits, seed_bits, pa.final_length)

        self.phase = Phase.CONFIRM
        if not self._confirm(_confirm_tag(final, cfg.seed, blk.index)):
            raise _AbortSignal(AbortReason.VERIFICATION_FAILED, "final key tag mismatch")
        blk.final = final

    def _close_block(self, stats: BlockStats) -> None:
        """Keep a finished block's row, size and key; open the next block."""
        blk = self._block
        self.stats.append(stats)
        self.block_sizes.append(blk.recon.n)
        self.key_bits.append(blk.final)
        self._block = _Block(blk.index + 1, blk.seg_end, self.cfg.segment_seconds)


# ---------------------------------------------------------------------------
# Alice: matching endpoint

class AliceSession(_Endpoint):
    """Matches coincidences, serves parities, checks what Bob derives."""

    role = "alice"
    _hello, _peer = 0, "the tag-sending side"

    def __init__(self, transport, segments: Iterable, config: SessionConfig = SessionConfig()):
        super().__init__(transport, segments, config)
        self._warm_a: list = []
        self._warm_b: list = []
        self._no_peak = ""  # why the last delay scan failed
        self._echoed = False  # her BLOCK_STATS echo is sent, Bob's answer not yet read

    def _run_block(self) -> bool:
        """One block; returns False when the data ended (session done)."""
        blk = self._block
        self.phase = Phase.SYNC
        flag = ANNOUNCE_CONTINUE
        while flag == ANNOUNCE_CONTINUE:
            flag = self._on_batch(self._next_batch())
            if flag != ANNOUNCE_BLOCK:
                self.send(MatchAnnounce(flag))
        if flag == ANNOUNCE_END:
            return False

        self.phase = Phase.BELL
        self.send(blk.announce(int(self.delay)))  # not bound to a name: freed once sent
        bell_a = np.concatenate(blk.bell_dets)
        self.send(BellReveal(bell_a))
        bell_b = self._expect(BellReveal).detectors
        if len(bell_b) != len(bell_a):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "bell reveal length mismatch")
        if blk.bell_refusal(bell_a, bell_b):
            self._expect(Abort)  # raises: the peer's refusal, or a violation

        self.phase = Phase.RECONCILE
        responder = AliceReconciler(np.concatenate(blk.key_bits), CascadeParams())
        while not responder.done:
            reply = responder.handle(self._expect(
                ShuffleSeedMsg, QberSampleMsg, ParityRequestMsg, VerifyTagMsg))
            if reply is not None:
                self.send(reply)
        blk.recon = responder.result
        if blk.recon.verified:
            self._amplify()
        self.phase = Phase.CONFIRM

        theirs = self._expect(BlockStats)
        if not (np.isnan(theirs.qber) or 0.0 <= theirs.qber <= 1.0):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "qber out of range")
        # the qber includes the peer-side correction count
        mine = blk.stats(qber=theirs.qber)
        if mine.encode() != theirs.encode():
            # her ABORT carries this text, and the pinned tampered-stats transcript holds it
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "block stats mismatch")
        self._close_block(mine)
        self.send(mine)
        self._echoed = True
        return True

    def _next_batch(self) -> TimetagBatch:
        try:
            return self._expect(TimetagBatch)
        except _PeerAbort as sig:
            # Bob answers a BLOCK_STATS echo he refuses with this ABORT, and a
            # confirmed one with a batch, EMPTY_SEGMENT or nothing: he never
            # closed the block she just closed, so she drops it too.
            if self._echoed and sig.reason == AbortReason.PROTOCOL_VIOLATION:
                del self.stats[-1], self.block_sizes[-1], self.key_bits[-1]
            raise
        finally:
            self._echoed = False

    def _agree(self, msg) -> None:
        _expect_equal(msg, self._expect(type(msg)))

    def _confirm(self, tag: bytes) -> bool:
        theirs = self._expect(VerifyTagMsg).tag
        if theirs is None:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "expected a key tag")
        confirmed = theirs == tag
        self.send(VerifyTagMsg(status=int(confirmed)))
        return confirmed

    def _on_batch(self, batch: TimetagBatch) -> int:
        """Take one of Bob's batches with a segment of her own; returns the
        MATCH_ANNOUNCE flag that answers it."""
        b_ticks, b_codes = batch.ticks, batch.codes
        if len(b_ticks):
            if int(b_codes.max()) >= len(BOB_DETECTORS):
                raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "basis code out of range")
            if b_ticks[-1] >= MAX_TICK or np.any(b_ticks[1:] < b_ticks[:-1]):
                raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION,
                                   "tag times unsorted or out of range")
        # an empty batch, or no data of her own, ends the session
        own = next(self.segments, None) if len(b_ticks) else None
        if own is None:
            if self.delay is None and self._no_peak:  # the data ended before a delay was found
                raise _AbortSignal(AbortReason.NO_PEAK, self._no_peak)
            return ANNOUNCE_END
        a_ticks, a_dets = own
        self._block.seg_end += 1

        if self.delay is None:
            self._warm_a.append(own)
            self._warm_b.append((b_ticks, b_codes))
            a_ticks, a_dets = (_joined(c) for c in zip(*self._warm_a))
            b_ticks, b_codes = (_joined(c) for c in zip(*self._warm_b))
            try:
                est = find_delay(a_ticks, b_ticks, _WINDOW)
            except NoPeakError as exc:
                if len(a_ticks) >= COARSE_TAGS:  # more data cannot change the scan
                    raise _AbortSignal(AbortReason.NO_PEAK, str(exc))
                self._no_peak = str(exc)
                return ANNOUNCE_CONTINUE
            self.delay = est.delay_ticks
            self._warm_a.clear()
            self._warm_b.clear()

        self._process_segment(a_ticks, a_dets, b_ticks, b_codes)
        if self._block.key_count >= self.cfg.block_min_key_bits:
            return ANNOUNCE_BLOCK
        return ANNOUNCE_CONTINUE

    def _process_segment(self, a_ticks, a_dets, b_ticks, b_codes) -> None:
        blk = self._block
        if max(blk.a_base + len(a_ticks), blk.b_base + len(b_ticks)) > _MAX_BLOCK_TAGS:
            raise _AbortSignal(AbortReason.BLOCK_TOO_LARGE,
                               f"block {blk.index} would pass {_MAX_BLOCK_TAGS} tags on one side,"
                               " more than the match indices address; lower block_min_key_bits")
        ia, ib = match_coincidences(a_ticks, b_ticks, self.delay, _WINDOW)
        cls = classify(a_dets[ia], _BOB_PLUS[b_codes[ib]]).view(np.uint8)
        blk.matches.append(((blk.a_base + ia).astype(np.uint32),
                            (blk.b_base + ib).astype(np.uint32), cls))
        key = cls == int(CoincidenceClass.KEY)
        bell = cls == int(CoincidenceClass.BELL)
        blk.key_bits.append(alice_key_bits(a_dets[ia[key]]))
        blk.bell_dets.append(a_dets[ia[bell]])
        blk.key_count += int(key.sum())
        blk.coincidences += len(ia)
        blk.accidentals += count_accidentals(a_ticks, b_ticks, self.delay, _WINDOW)
        blk.a_base += len(a_ticks)
        blk.b_base += len(b_ticks)


# ---------------------------------------------------------------------------
# Bob: driving endpoint

_NO_SEGMENT = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8))


class BobSession(_Endpoint):
    """Streams tags, drives reconciliation and amplification.

    Bob takes segment k+1 from his source as soon as he has sent batch k,
    before he reads its MATCH_ANNOUNCE, and holds it in ``_pending``, also
    across a block boundary.  So his generation runs while Alice matches
    batch k.  No frame moves: the transcript is the lockstep one.  A
    session that aborts may have taken one segment more on this side
    than on Alice's, two after EMPTY_SEGMENT.

    An empty batch reads as end of data on Alice's side, so only the
    source's last segment may be empty: an empty one with more to come
    ends the session in EMPTY_SEGMENT, named by its index.
    """

    role = "bob"
    _hello, _peer = 1, "the matching side"
    _pending = None  # the segment taken ahead, sent as the next batch

    def _run_block(self) -> bool:
        """One block; returns False when the data ended (session done)."""
        cfg = self.cfg
        blk = self._block
        self.phase = Phase.SYNC
        my_dets = bytearray()  # the block's detector bytes, one byte a tag

        while True:
            ticks, dets = self._pending or next(self.segments, None) or _NO_SEGMENT
            if not len(ticks) and next(self.segments, None) is not None:
                raise _AbortSignal(AbortReason.EMPTY_SEGMENT,
                                   f"segment {blk.seg_end} has no tags and is not the last")
            self.send(TimetagBatch(ticks, BOB_SETTING[dets]))
            ended = len(ticks) == 0
            del ticks  # sent; a block's last ticks would otherwise live through Cascade
            # generate the next segment while the peer matches this batch
            self._pending = None if ended else next(self.segments, None)
            # A copy, so that the segment, a view of the source's raw
            # segment or of its carry, is freed below.
            my_dets.extend(np.ascontiguousarray(dets, dtype=np.uint8))
            del dets
            ma = self._expect(MatchAnnounce)
            if ended:
                if ma.flag != ANNOUNCE_END:
                    raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "expected end announce")
                return False
            blk.seg_end += 1
            if ma.flag == ANNOUNCE_BLOCK:
                break
            if ma.flag != ANNOUNCE_CONTINUE:
                # peer ran out of its own data; end with the partial block dropped
                return False

        # Sift in one step: only the two branches outlive it, so the block's
        # detectors and the announce are freed before the Bell test.
        self.phase = Phase.SIFT
        my_key, bell_mine = self._sift(np.frombuffer(my_dets, dtype=np.uint8), ma)
        del my_dets, ma

        bell_theirs = self._expect(BellReveal).detectors
        if len(bell_theirs) != len(bell_mine):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "bell reveal length mismatch")
        self.phase = Phase.BELL
        self.send(BellReveal(bell_mine))
        refusal = blk.bell_refusal(bell_theirs, bell_mine)
        if refusal:
            raise _AbortSignal(AbortReason.INSECURE_REGIME, refusal)

        # Reconcile (this side drives; the peer serves parities).
        self.phase = Phase.RECONCILE
        blk.recon = reconcile_bob(my_key, self, CascadeParams(
            shuffle_seed=_derived_seed(cfg.seed, blk.index, _CASCADE_SEED_TAG)))
        if blk.recon.verified:
            self._amplify()
        self.phase = Phase.CONFIRM

        stats = blk.stats(blk.recon.measured_qber)
        self.send(stats)
        _expect_equal(stats, self._expect(BlockStats))
        self._close_block(stats)
        return True

    def _sift(self, my_dets: np.ndarray, ma: MatchAnnounce) -> Tuple[np.ndarray, np.ndarray]:
        """Recover the key bits and Bell-branch detectors from the announced matches."""
        blk = self._block
        if len(ma.b_idx) and int(ma.b_idx.max()) >= len(my_dets):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "match index out of range")
        self.delay = ma.delay_ticks
        blk.coincidences = len(ma.b_idx)
        blk.accidentals = ma.accidentals
        key_dets = my_dets[ma.b_idx[ma.classes == int(CoincidenceClass.KEY)]]
        if len(key_dets) == 0:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "block without key bits")
        try:
            key_bits = bob_key_bits(key_dets)
        except InvalidDetectorError:  # a key-branch event must sit in this side's key basis
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "key class outside key basis")
        return key_bits, my_dets[ma.b_idx[ma.classes == int(CoincidenceClass.BELL)]]

    def _agree(self, msg) -> None:
        self.send(msg)

    def _confirm(self, tag: bytes) -> bool:
        self.send(VerifyTagMsg(tag=tag))
        status = self._expect(VerifyTagMsg).status
        if status is None:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "expected a tag status")
        return status == 1

    def request(self, msg):
        """Cascade's channel: send ``msg``, return the peer's reply."""
        self.send(msg)
        return self._expect(QberSampleMsg, ParityResponseMsg, VerifyTagMsg)


def run_session(role: str, transport, segments: Iterable,
                config: SessionConfig = SessionConfig()) -> SessionResult:
    """Run one endpoint to completion over an established transport."""
    if role == "alice":
        return AliceSession(transport, segments, config).run()
    if role == "bob":
        return BobSession(transport, segments, config).run()
    raise ValueError("role must be 'alice' or 'bob'")


def run_transport_pair(t_alice, t_bob, alice_segments: Iterable, bob_segments: Iterable,
                       config: SessionConfig = SessionConfig(),
                       ) -> Tuple[SessionResult, SessionResult]:
    """Run both endpoints on threads over an established transport pair."""
    results: dict = {}
    errors: dict = {}

    def _worker(role, transport, segments):
        try:
            results[role] = run_session(role, transport, segments, config)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors[role] = exc
            transport.close()

    threads = [
        threading.Thread(target=_worker, args=("alice", t_alice, alice_segments)),
        threading.Thread(target=_worker, args=("bob", t_bob, bob_segments)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for role in ("alice", "bob"):
        if role in errors:
            raise errors[role]
    return results["alice"], results["bob"]


def run_inproc_pair(alice_segments: Iterable, bob_segments: Iterable,
                    config: SessionConfig = SessionConfig(),
                    recorders: Tuple[Optional[Callable], Optional[Callable]] = (None, None),
                    ) -> Tuple[SessionResult, SessionResult]:
    """Run both endpoints on threads over an in-process pipe."""
    t_alice, t_bob = inproc_pair(timeout=config.timeout, recorders=recorders)
    return run_transport_pair(t_alice, t_bob, alice_segments, bob_segments, config)


# ---------------------------------------------------------------------------
# Transcript auditing

@dataclass
class TranscriptAudit:
    """Disclosure accounting from recorded per-direction frame streams."""

    parity_bits: int            # parity bits served by the responder
    sample_bits: int            # disclosed-and-discarded sample bits (both sides)
    reconcile_tag_bits: int     # closing tag bits of reconciliation rounds
    confirm_tag_bits: int       # tags over final (amplified) key blocks
    leak_ec_total: int          # sum of leak_ec over BLOCK_STATS frames
    blocks: int

    @property
    def counted_disclosure(self) -> int:
        """Key-branch disclosure that privacy amplification must erase."""
        return self.parity_bits + self.reconcile_tag_bits


def audit_transcript(bob_to_alice: bytes, alice_to_bob: bytes) -> TranscriptAudit:
    """Count disclosed key-branch bits in a recorded transcript.

    Parity payloads and the reconciliation closing tag are the only
    frames carrying key-branch information that stays in the key; their
    bit total must equal the summed per-block leak_ec.  Sample bits are
    disclosed but dropped from the key; confirm tags cover the amplified
    key and are accounted separately.
    """
    parity_bits = 0
    sample_bits = 0
    reconcile_tags = 0
    confirm_tags = 0
    leak_total = 0
    blocks = 0

    # Tags are Bob-to-Alice; whether a VERIFY_TAG closes reconciliation or
    # confirms a final block follows from what preceded it in that stream.
    last_context = None
    for frame in iter_frames(bob_to_alice):
        if frame.type in (FrameType.SHUFFLE_SEED, FrameType.PARITY_REQUEST):
            last_context = "reconcile"
        elif frame.type in (FrameType.PA_PARAMS, FrameType.PA_SEED):
            last_context = "amplify"
        elif frame.type == FrameType.QBER_SAMPLE:
            sample_bits += frame_message(frame).count
            last_context = "reconcile"
        elif frame.type == FrameType.VERIFY_TAG:
            msg = frame_message(frame)
            if msg.tag is not None:
                if last_context == "amplify":
                    confirm_tags += 8 * len(msg.tag)
                else:
                    reconcile_tags += 8 * len(msg.tag)
        elif frame.type == FrameType.BLOCK_STATS:
            leak_total += frame_message(frame).leak_ec
            blocks += 1

    for frame in iter_frames(alice_to_bob):
        if frame.type == FrameType.PARITY_RESPONSE:
            parity_bits += frame_message(frame).count
        elif frame.type == FrameType.QBER_SAMPLE:
            sample_bits += frame_message(frame).count

    return TranscriptAudit(
        parity_bits=parity_bits,
        sample_bits=sample_bits,
        reconcile_tag_bits=reconcile_tags,
        confirm_tag_bits=confirm_tags,
        leak_ec_total=leak_total,
        blocks=blocks,
    )
