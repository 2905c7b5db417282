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

The strict batch/announce lockstep makes the transcript a pure function
of the inputs, so recorded runs replay byte-identically per direction.
Alice is the reactive endpoint (``advance`` maps one incoming frame to
outgoing frames); Bob drives.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .cascade import (
    AliceReconciler,
    CascadeParams,
    ChannelClosedError,
    ParityRequestMsg,
    ParityResponseMsg,
    QberSampleMsg,
    ReconciliationResult,
    ShuffleSeedMsg,
    VerificationFailedError,
    VerifyTagMsg,
    reconcile_bob,
    verify_keys,
)
from .physics import SettingGeometry, standard_geometry
from .privamp import (
    SecurityEstimate,
    eve_information,
    generate_toeplitz_seed,
    pack_key_bits,
    secret_fraction,
    toeplitz_hash,
)
from .sifting import (
    CoincidenceClass,
    EmptyTermError,
    InvalidDetectorError,
    alice_key_bits,
    bob_key_bits,
    chsh_value,
    classify,
    count_coincidences,
)
from .timetag import NoPeakError, WindowConfig, count_accidentals, find_delay, match_coincidences

FRAME_MAGIC = b"QKDP"
FRAME_VERSION = 1
_HEADER = struct.Struct("<4sBBI")

CONFIRM_TAG_BITS = 64

# Seed-derivation tags so the per-block cascade shuffle, the Toeplitz
# seed and the confirm tag all come from independent public streams.
_CASCADE_SEED_TAG = 0x5EED
_PA_SEED_TAG = 0x70E9
_CONFIRM_SEED_TAG = 0xC0F1

_TAG_RECORD = np.dtype([("tick", "<u8"), ("det", "u1")])
_MATCH_RECORD = np.dtype([("a", "<u4"), ("b", "<u4"), ("cls", "u1")])


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
    INSECURE_REGIME = 1
    VERIFICATION_FAILED = 2
    PROTOCOL_VIOLATION = 3
    NO_PEAK = 4
    INTERNAL = 5
    # Local-only codes (never sent in an ABORT frame):
    PEER_DISCONNECTED = 6
    TIMEOUT = 7


# MATCH_ANNOUNCE flags
ANNOUNCE_END = 0
ANNOUNCE_BLOCK = 1
ANNOUNCE_CONTINUE = 2


class MalformedFrameError(Exception):
    """Bytes on the wire do not form a valid frame."""


class UnsupportedVersionError(MalformedFrameError):
    """Frame carries a version this implementation does not speak."""


class ProtocolViolationError(Exception):
    """Peer sent a frame that is illegal in the current phase."""


class PeerDisconnectedError(Exception):
    """The transport closed before the session finished."""


class SessionTimeoutError(Exception):
    """No frame arrived within the configured timeout."""


@dataclass(frozen=True)
class Frame:
    type: int
    payload: bytes = b""


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    if len(payload) > 0xFFFFFFFF:
        raise ValueError("payload too large for a frame")
    return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(ftype), len(payload)) + payload


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame; rejects bad magic, version, type, size."""
    if len(data) < _HEADER.size:
        raise MalformedFrameError("frame shorter than header")
    magic, version, ftype, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise MalformedFrameError("bad magic")
    if version != FRAME_VERSION:
        raise UnsupportedVersionError(f"version {version}")
    if not 1 <= ftype <= 13:
        raise MalformedFrameError(f"unknown frame type {ftype}")
    if len(data) != _HEADER.size + length:
        raise MalformedFrameError("frame length mismatch")
    return Frame(FrameType(ftype), data[_HEADER.size :])


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
# Payload codecs

def encode_hello(role: int) -> bytes:
    return bytes([role])


def decode_hello(payload: bytes) -> int:
    if len(payload) != 1 or payload[0] not in (0, 1):
        raise MalformedFrameError("bad hello payload")
    return payload[0]


def encode_timetag_batch(ticks: np.ndarray, codes: np.ndarray) -> bytes:
    rec = np.zeros(len(ticks), dtype=_TAG_RECORD)
    rec["tick"] = ticks
    rec["det"] = codes
    return rec.tobytes()


def decode_timetag_batch(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    if len(payload) % _TAG_RECORD.itemsize != 0:
        raise MalformedFrameError("truncated tag batch")
    rec = np.frombuffer(payload, dtype=_TAG_RECORD)
    return rec["tick"].astype(np.uint64), rec["det"].astype(np.uint8)


@dataclass(frozen=True)
class MatchAnnounce:
    flag: int
    delay_ticks: int = 0
    accidentals: int = 0
    a_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    b_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint32))
    classes: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))

    def encode(self) -> bytes:
        head = struct.pack("<BqII", self.flag, self.delay_ticks, self.accidentals, len(self.a_idx))
        rec = np.zeros(len(self.a_idx), dtype=_MATCH_RECORD)
        rec["a"] = self.a_idx
        rec["b"] = self.b_idx
        rec["cls"] = self.classes
        return head + rec.tobytes()

    @staticmethod
    def decode(payload: bytes) -> "MatchAnnounce":
        if len(payload) < 17:
            raise MalformedFrameError("short match announce")
        flag, delay, acc, count = struct.unpack_from("<BqII", payload)
        body = payload[17:]
        if len(body) != count * _MATCH_RECORD.itemsize:
            raise MalformedFrameError("match announce record size mismatch")
        rec = np.frombuffer(body, dtype=_MATCH_RECORD)
        return MatchAnnounce(
            flag, delay, acc,
            rec["a"].astype(np.uint32), rec["b"].astype(np.uint32), rec["cls"].astype(np.uint8),
        )


def encode_bell_reveal(detectors: np.ndarray) -> bytes:
    return struct.pack("<I", len(detectors)) + np.asarray(detectors, np.uint8).tobytes()


def decode_bell_reveal(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise MalformedFrameError("short bell reveal")
    (count,) = struct.unpack_from("<I", payload)
    body = payload[4:]
    if len(body) != count:
        raise MalformedFrameError("bell reveal count mismatch")
    return np.frombuffer(body, dtype=np.uint8).copy()


@dataclass(frozen=True)
class PaParams:
    n: int
    leak_ec: int
    final_length: int
    finite_deduction: int
    s_value: float
    rate_multiplier: float

    _S = struct.Struct("<IIIIdd")

    def encode(self) -> bytes:
        return self._S.pack(
            self.n, self.leak_ec, self.final_length, self.finite_deduction,
            self.s_value, self.rate_multiplier,
        )

    @staticmethod
    def decode(payload: bytes) -> "PaParams":
        try:
            n, leak, final, ded, s, mult = PaParams._S.unpack(payload)
        except struct.error as exc:
            raise MalformedFrameError("bad PA params") from exc
        return PaParams(n, leak, final, ded, s, mult)


def encode_pa_seed(seed_bits: np.ndarray) -> bytes:
    return struct.pack("<I", len(seed_bits)) + np.packbits(seed_bits).tobytes()


def decode_pa_seed(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise MalformedFrameError("short PA seed")
    (count,) = struct.unpack_from("<I", payload)
    body = payload[4:]
    if len(body) != (count + 7) // 8:
        raise MalformedFrameError("PA seed length mismatch")
    return np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=count)


@dataclass
class BlockStats:
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

    def encode(self) -> bytes:
        return self._S.pack(
            self.block_index, self.t_start, self.t_end,
            self.coincidence_count, self.accidental_count,
            self.qber, self.s_value, self.s_stderr,
            self.leak_ec, self.i_eve, self.final_bits,
        )

    @staticmethod
    def decode(payload: bytes) -> "BlockStats":
        try:
            vals = BlockStats._S.unpack(payload)
        except struct.error as exc:
            raise MalformedFrameError("bad block stats") from exc
        return BlockStats(*vals)


def encode_abort(reason: int, message: str = "") -> bytes:
    return bytes([reason]) + message.encode("utf-8")


def decode_abort(payload: bytes) -> Tuple[int, str]:
    if len(payload) < 1:
        raise MalformedFrameError("empty abort payload")
    return payload[0], payload[1:].decode("utf-8", errors="replace")


_CASCADE_FRAME_TYPES = {
    ShuffleSeedMsg: FrameType.SHUFFLE_SEED,
    QberSampleMsg: FrameType.QBER_SAMPLE,
    ParityRequestMsg: FrameType.PARITY_REQUEST,
    ParityResponseMsg: FrameType.PARITY_RESPONSE,
    VerifyTagMsg: FrameType.VERIFY_TAG,
}


def cascade_msg_to_frame(msg) -> Frame:
    return Frame(_CASCADE_FRAME_TYPES[type(msg)], msg.encode())


_CASCADE_MSG_TYPES = {ftype: cls for cls, ftype in _CASCADE_FRAME_TYPES.items()}


def frame_to_cascade_msg(frame: Frame):
    cls = _CASCADE_MSG_TYPES.get(frame.type)
    if cls is None:
        raise MalformedFrameError(f"frame type {frame.type} is not a reconciliation message")
    try:
        return cls.decode(frame.payload)
    except (struct.error, ValueError) as exc:
        raise MalformedFrameError(f"bad {FrameType(frame.type).name} payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Transports

class _ClosedSentinel:
    pass


_CLOSED = _ClosedSentinel()


class QueueTransport:
    """In-process duplex pipe; frames travel as encoded bytes.

    ``recorder`` (if set) sees every encoded outgoing frame, in order.
    """

    def __init__(self, rx: queue.Queue, tx: queue.Queue, timeout: float = 60.0,
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
        try:
            self._tx.put(data)
        except Exception as exc:  # pragma: no cover - queue puts do not fail
            raise PeerDisconnectedError(str(exc))

    def recv_frame(self) -> Frame:
        try:
            data = self._rx.get(timeout=self.timeout)
        except queue.Empty:
            raise SessionTimeoutError(f"no frame within {self.timeout} s")
        if data is _CLOSED:
            # propagate for any further reader
            self._rx.put(data)
            raise PeerDisconnectedError("peer closed the pipe")
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


class SocketTransport:
    """Frame transport over a connected stream socket.

    A reader thread drains the socket into a bounded queue so that large
    sends from both sides cannot deadlock on full kernel buffers.
    """

    def __init__(self, sock: socket.socket, timeout: float = 60.0,
                 recorder: Optional[Callable[[bytes], None]] = None):
        self._sock = sock
        self.timeout = timeout
        self.recorder = recorder
        self._queue: queue.Queue = queue.Queue(maxsize=32)
        self._send_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_exact(self, size: int) -> Optional[bytes]:
        # recv_into a bytearray: no quadratic copies.  The buffer starts at
        # most _READ_STEP long and doubles only once it is full, so a
        # header that claims more than the peer sends costs no memory.
        buf = bytearray(min(size, _READ_STEP))
        got = 0
        while got < size:
            if got == len(buf):
                buf.extend(bytes(min(got, size - got)))
            n = self._sock.recv_into(memoryview(buf)[got:])
            if not n:
                return None
            got += n
        return bytes(buf)

    def _read_loop(self) -> None:
        try:
            while True:
                header = self._read_exact(_HEADER.size)
                if header is None:
                    break
                _, _, _, length = _HEADER.unpack(header)
                payload = self._read_exact(length) if length else b""
                if length and payload is None:
                    break
                self._queue.put(header + (payload or b""))
        except OSError:
            pass
        self._queue.put(_CLOSED)

    def send_frame(self, frame: Frame) -> None:
        data = encode_frame(frame.type, frame.payload)
        if self.recorder is not None:
            self.recorder(data)
        try:
            with self._send_lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise PeerDisconnectedError(str(exc))

    def recv_frame(self) -> Frame:
        try:
            data = self._queue.get(timeout=self.timeout)
        except queue.Empty:
            raise SessionTimeoutError(f"no frame within {self.timeout} s")
        if data is _CLOSED:
            self._queue.put(data)
            raise PeerDisconnectedError("socket closed")
        return decode_frame(data)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# ---------------------------------------------------------------------------
# Session configuration and results

@dataclass(frozen=True)
class SessionConfig:
    window: WindowConfig = WindowConfig()
    cascade: CascadeParams = CascadeParams()
    geometry: SettingGeometry = field(default_factory=standard_geometry)
    block_min_key_bits: int = 10000
    finite_deduction: int = 0
    rate_multiplier: float = 1.0
    seed: int = 1
    segment_seconds: float = 1.0
    timeout: float = 60.0
    # give up on clock-offset recovery after this many accumulated segments
    peak_search_segments: int = 3

    def __post_init__(self):
        if self.block_min_key_bits < 1:
            raise ValueError("block_min_key_bits must be >= 1")
        if self.peak_search_segments < 1:
            raise ValueError("peak_search_segments must be >= 1")


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

    @property
    def done(self) -> bool:
        return self.phase == Phase.DONE

    def key_bytes(self) -> bytes:
        return pack_key_bits(self.key_bits)


def _derived_seed(seed: int, block_index: int, tag: int) -> int:
    ss = np.random.SeedSequence([int(seed), int(block_index), tag])
    return int(ss.generate_state(1, np.uint64)[0])


def _confirm_tag(final_bits: np.ndarray, seed: int, block_index: int) -> bytes:
    return verify_keys(final_bits, CONFIRM_TAG_BITS, _derived_seed(seed, block_index, _CONFIRM_SEED_TAG))


def _block_qber(recon: ReconciliationResult) -> float:
    total = recon.n + recon.sample_size
    if total == 0:
        return 0.0
    return (recon.sample_mismatches + recon.errors_corrected) / total


def _basis_to_detector(basis: np.ndarray) -> np.ndarray:
    # Representative detector of the announced basis, for classification:
    # the key basis behaves like detector 1, the rotated basis like 3.
    return np.where(basis == 0, 1, 3).astype(np.uint8)


class _AbortSignal(Exception):
    def __init__(self, reason: AbortReason, message: str = "", notify: bool = True):
        super().__init__(message or reason.name)
        self.reason = reason
        self.notify = notify


# ---------------------------------------------------------------------------
# Alice: reactive endpoint

class _AliceBlock:
    def __init__(self, index: int, seg_start: int):
        self.index = index
        self.seg_start = seg_start
        self.seg_count = 0
        self.a_base = 0
        self.b_base = 0
        self.a_idx: list = []
        self.b_idx: list = []
        self.classes: list = []
        self.key_bits: list = []
        self.bell_dets: list = []
        self.key_count = 0
        self.coincidences = 0
        self.accidentals = 0


_ALICE_LEGAL = {
    Phase.HELLO: {FrameType.HELLO},
    Phase.SYNC: {FrameType.TIMETAG_BATCH},
    Phase.SIFT: set(),
    Phase.BELL: {FrameType.BELL_REVEAL},
    Phase.RECONCILE: {
        FrameType.SHUFFLE_SEED, FrameType.QBER_SAMPLE,
        FrameType.PARITY_REQUEST, FrameType.VERIFY_TAG,
    },
    Phase.AMPLIFY: {FrameType.PA_PARAMS, FrameType.PA_SEED},
    Phase.CONFIRM: {FrameType.VERIFY_TAG, FrameType.BLOCK_STATS},
    Phase.DONE: set(),
    Phase.ABORTED: set(),
}


class AliceSession:
    """The matching/responding endpoint.

    Purely reactive after the opening HELLO: every incoming frame maps to
    a deterministic list of outgoing frames via :meth:`advance`.
    """

    def __init__(self, transport, segments: Iterable, config: SessionConfig = SessionConfig()):
        self.transport = transport
        self.segments = iter(segments)
        self.cfg = config
        self.phase = Phase.HELLO
        self.abort_reason: Optional[AbortReason] = None
        self.stats: List[BlockStats] = []
        self.key_bits: List[np.ndarray] = []
        self.block_sizes: List[int] = []
        self.delay: Optional[int] = None
        self._segments_consumed = 0
        self._block: Optional[_AliceBlock] = None
        self._block_index = 0
        self._warm_a: list = []
        self._warm_b: list = []
        self._warm_segments = 0
        self._responder: Optional[AliceReconciler] = None
        self._bell = None
        self._insecure = False
        self._recon: Optional[ReconciliationResult] = None
        self._estimate: Optional[SecurityEstimate] = None
        self._final_block: Optional[np.ndarray] = None
        self._await_confirm_tag = False

    # -- frame handling ----------------------------------------------------

    def advance(self, frame: Frame) -> List[Frame]:
        """Process one incoming frame; returns the frames to send back."""
        if self.phase in (Phase.DONE, Phase.ABORTED):
            raise ProtocolViolationError("session is finished")
        if frame.type == FrameType.ABORT:
            return self._on_peer_abort(frame)
        if frame.type not in _ALICE_LEGAL[self.phase]:
            return self._abort(
                AbortReason.PROTOCOL_VIOLATION,
                f"{FrameType(frame.type).name} not legal in {self.phase.name}",
            )
        if self._insecure:
            # After a subcritical S only an ABORT from the peer is acceptable.
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "expected abort after |S| <= 2")
        try:
            if frame.type == FrameType.HELLO:
                return self._on_hello(frame)
            if frame.type == FrameType.TIMETAG_BATCH:
                return self._on_batch(frame)
            if frame.type == FrameType.BELL_REVEAL:
                return self._on_bell(frame)
            if frame.type in (FrameType.SHUFFLE_SEED, FrameType.QBER_SAMPLE,
                              FrameType.PARITY_REQUEST):
                return self._on_cascade(frame)
            if frame.type == FrameType.VERIFY_TAG:
                if self.phase == Phase.RECONCILE:
                    return self._on_cascade(frame)
                return self._on_confirm_tag(frame)
            if frame.type == FrameType.PA_PARAMS:
                return self._on_pa_params(frame)
            if frame.type == FrameType.PA_SEED:
                return self._on_pa_seed(frame)
            if frame.type == FrameType.BLOCK_STATS:
                return self._on_block_stats(frame)
        except MalformedFrameError as exc:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, str(exc))
        raise AssertionError("unreachable")

    def _abort(self, reason: AbortReason, message: str = "") -> List[Frame]:
        self.phase = Phase.ABORTED
        self.abort_reason = reason
        if reason in (AbortReason.PEER_DISCONNECTED, AbortReason.TIMEOUT):
            return []
        return [Frame(FrameType.ABORT, encode_abort(int(reason), message))]

    def _on_peer_abort(self, frame: Frame) -> List[Frame]:
        reason, _ = decode_abort(frame.payload)
        self.phase = Phase.ABORTED
        try:
            self.abort_reason = AbortReason(reason)
        except ValueError:
            self.abort_reason = AbortReason.INTERNAL
        if self.abort_reason == AbortReason.INSECURE_REGIME and self._bell is not None:
            # The peer refused the block after the Bell stage; log the row.
            self.stats.append(self._local_stats(qber=float("nan"), leak=0,
                                                i_eve=float("nan"), final_bits=0))
        return []

    def _on_hello(self, frame: Frame) -> List[Frame]:
        role = decode_hello(frame.payload)
        if role != 1:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "peer is not the tag-sending side")
        self.phase = Phase.SYNC
        return []

    def _on_batch(self, frame: Frame) -> List[Frame]:
        b_ticks, b_codes = decode_timetag_batch(frame.payload)
        if len(b_ticks) == 0:
            self.phase = Phase.DONE
            return [Frame(FrameType.MATCH_ANNOUNCE, MatchAnnounce(ANNOUNCE_END).encode())]
        if int(b_codes.max()) > 1:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "basis code out of range")
        own = next(self.segments, None)
        if own is None:
            self.phase = Phase.DONE
            return [Frame(FrameType.MATCH_ANNOUNCE, MatchAnnounce(ANNOUNCE_END).encode())]
        a_ticks, a_dets = own
        if self._block is None:
            self._block = _AliceBlock(self._block_index, self._segments_consumed)
        self._segments_consumed += 1
        self._block.seg_count += 1

        if self.delay is None:
            self._warm_a.append((a_ticks, a_dets))
            self._warm_b.append((b_ticks, b_codes))
            self._warm_segments += 1
            try:
                est = find_delay(
                    np.concatenate([t for t, _ in self._warm_a]),
                    np.concatenate([t for t, _ in self._warm_b]),
                    self.cfg.window,
                )
            except NoPeakError as exc:
                if self._warm_segments >= self.cfg.peak_search_segments:
                    return self._abort(AbortReason.NO_PEAK, str(exc))
                return [Frame(FrameType.MATCH_ANNOUNCE, MatchAnnounce(ANNOUNCE_CONTINUE).encode())]
            self.delay = est.delay_ticks
            a_ticks = np.concatenate([t for t, _ in self._warm_a])
            a_dets = np.concatenate([d for _, d in self._warm_a])
            b_ticks = np.concatenate([t for t, _ in self._warm_b])
            b_codes = np.concatenate([c for _, c in self._warm_b])
            self._warm_a.clear()
            self._warm_b.clear()

        self._process_segment(a_ticks, a_dets, b_ticks, b_codes)

        if self._block.key_count >= self.cfg.block_min_key_bits:
            return self._announce_block()
        return [Frame(FrameType.MATCH_ANNOUNCE, MatchAnnounce(ANNOUNCE_CONTINUE).encode())]

    def _process_segment(self, a_ticks, a_dets, b_ticks, b_codes) -> None:
        blk = self._block
        ia, ib = match_coincidences(a_ticks, b_ticks, self.delay, self.cfg.window)
        cls = np.asarray(classify(a_dets[ia], _basis_to_detector(b_codes[ib])), dtype=np.uint8)
        blk.a_idx.append((blk.a_base + ia).astype(np.uint32))
        blk.b_idx.append((blk.b_base + ib).astype(np.uint32))
        blk.classes.append(cls)
        key = cls == int(CoincidenceClass.KEY)
        bell = cls == int(CoincidenceClass.BELL)
        blk.key_bits.append(alice_key_bits(a_dets[ia[key]]))
        blk.bell_dets.append(a_dets[ia[bell]])
        blk.key_count += int(key.sum())
        blk.coincidences += len(ia)
        blk.accidentals += count_accidentals(a_ticks, b_ticks, self.delay, self.cfg.window)
        blk.a_base += len(a_ticks)
        blk.b_base += len(b_ticks)

    def _announce_block(self) -> List[Frame]:
        blk = self._block
        announce = MatchAnnounce(
            ANNOUNCE_BLOCK,
            delay_ticks=int(self.delay),
            accidentals=blk.accidentals,
            a_idx=np.concatenate(blk.a_idx),
            b_idx=np.concatenate(blk.b_idx),
            classes=np.concatenate(blk.classes),
        )
        reveal = encode_bell_reveal(np.concatenate(blk.bell_dets))
        self.phase = Phase.BELL
        return [
            Frame(FrameType.MATCH_ANNOUNCE, announce.encode()),
            Frame(FrameType.BELL_REVEAL, reveal),
        ]

    def _on_bell(self, frame: Frame) -> List[Frame]:
        blk = self._block
        bell_b = decode_bell_reveal(frame.payload)
        bell_a = np.concatenate(blk.bell_dets)
        if len(bell_b) != len(bell_a):
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "bell reveal length mismatch")
        try:
            self._bell = chsh_value(count_coincidences(bell_a, bell_b), self.cfg.geometry)
            s_ok = abs(self._bell.s_value) > 2.0
        except InvalidDetectorError:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "revealed detector out of range")
        except EmptyTermError:
            self._bell = None
            s_ok = False
        self.phase = Phase.RECONCILE
        if not s_ok:
            self._insecure = True
            return []
        self._responder = AliceReconciler(np.concatenate(blk.key_bits), self.cfg.cascade)
        return []

    def _on_cascade(self, frame: Frame) -> List[Frame]:
        msg = frame_to_cascade_msg(frame)
        try:
            reply = self._responder.handle(msg)
        except ChannelClosedError as exc:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, str(exc))
        out = [] if reply is None else [cascade_msg_to_frame(reply)]
        if self._responder.done:
            self._recon = self._responder.result
            if self._recon.verified:
                self.phase = Phase.AMPLIFY
            else:
                self.phase = Phase.CONFIRM
                self._final_block = np.empty(0, dtype=np.uint8)
                self._estimate = None
                self._await_confirm_tag = False
        return out

    def _on_pa_params(self, frame: Frame) -> List[Frame]:
        pa = PaParams.decode(frame.payload)
        est = secret_fraction(
            self._recon.n, self._recon.leaked_bits, self._bell.s_value,
            self.cfg.finite_deduction, self.cfg.rate_multiplier,
        )
        mine = PaParams(est.n, est.leak_ec, est.final_length,
                        self.cfg.finite_deduction, est.s_value, self.cfg.rate_multiplier)
        if pa != mine:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "privacy amplification parameter mismatch")
        self._estimate = est
        if est.final_length == 0:
            self._final_block = np.empty(0, dtype=np.uint8)
            self._await_confirm_tag = False
            self.phase = Phase.CONFIRM
        return []

    def _on_pa_seed(self, frame: Frame) -> List[Frame]:
        if self._estimate is None:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "seed before parameters")
        seed_bits = decode_pa_seed(frame.payload)
        m = self._estimate.final_length
        if len(seed_bits) != self._recon.n + m - 1:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "toeplitz seed length mismatch")
        self._final_block = toeplitz_hash(self._recon.bits, seed_bits, m)
        self._await_confirm_tag = True
        self.phase = Phase.CONFIRM
        return []

    def _on_confirm_tag(self, frame: Frame) -> List[Frame]:
        if not self._await_confirm_tag:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "unexpected confirm tag")
        msg = frame_to_cascade_msg(frame)
        if msg.tag is None:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "expected a key tag")
        mine = _confirm_tag(self._final_block, self.cfg.seed, self._block.index)
        self._await_confirm_tag = False
        if mine != msg.tag:
            out = [cascade_msg_to_frame(VerifyTagMsg(status=0))]
            self.stats.append(self._local_stats(
                qber=float("nan"), leak=self._recon.leaked_bits,
                i_eve=self._estimate.i_eve, final_bits=0))
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.VERIFICATION_FAILED
            return out
        return [cascade_msg_to_frame(VerifyTagMsg(status=1))]

    def _local_stats(self, qber: float, leak: int, i_eve: float, final_bits: int) -> BlockStats:
        blk = self._block
        seg = self.cfg.segment_seconds
        if self._bell is not None:
            s_value, s_stderr = self._bell.s_value, self._bell.standard_error
        else:
            s_value, s_stderr = float("nan"), float("nan")
        return BlockStats(
            block_index=blk.index,
            t_start=blk.seg_start * seg,
            t_end=(blk.seg_start + blk.seg_count) * seg,
            coincidence_count=blk.coincidences,
            accidental_count=blk.accidentals,
            qber=qber,
            s_value=s_value,
            s_stderr=s_stderr,
            leak_ec=leak,
            i_eve=i_eve,
            final_bits=final_bits,
        )

    def _on_block_stats(self, frame: Frame) -> List[Frame]:
        theirs = BlockStats.decode(frame.payload)
        if not (np.isnan(theirs.qber) or 0.0 <= theirs.qber <= 1.0):
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "qber out of range")
        if self._estimate is not None:
            i_eve = self._estimate.i_eve
        else:
            # reconciliation failed before amplification parameters arrived
            i_eve = eve_information(self._bell.s_value)
        mine = self._local_stats(
            qber=theirs.qber,  # includes the peer-side correction count
            leak=self._recon.leaked_bits,
            i_eve=i_eve,
            final_bits=len(self._final_block),
        )
        if mine.encode() != frame.payload:
            return self._abort(AbortReason.PROTOCOL_VIOLATION, "block stats mismatch")
        self.stats.append(mine)
        self.block_sizes.append(self._recon.n)
        if len(self._final_block):
            self.key_bits.append(self._final_block)
        echo = Frame(FrameType.BLOCK_STATS, frame.payload)
        self._reset_block()
        return [echo]

    def _reset_block(self) -> None:
        self._block = None
        self._block_index += 1
        self._responder = None
        self._bell = None
        self._insecure = False
        self._recon = None
        self._estimate = None
        self._final_block = None
        self._await_confirm_tag = False
        self.phase = Phase.SYNC

    # -- session loop ------------------------------------------------------

    def run(self) -> SessionResult:
        try:
            self.transport.send_frame(Frame(FrameType.HELLO, encode_hello(0)))
            while self.phase not in (Phase.DONE, Phase.ABORTED):
                frame = self.transport.recv_frame()
                for out in self.advance(frame):
                    self.transport.send_frame(out)
        except PeerDisconnectedError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.PEER_DISCONNECTED
        except SessionTimeoutError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.TIMEOUT
        except MalformedFrameError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.PROTOCOL_VIOLATION
        finally:
            self.transport.close()
        return SessionResult(
            role="alice",
            phase=self.phase,
            abort_reason=self.abort_reason,
            stats=self.stats,
            key_bits=(np.concatenate(self.key_bits) if self.key_bits
                      else np.empty(0, dtype=np.uint8)),
            delay_ticks=self.delay,
            block_sizes=self.block_sizes,
        )


# ---------------------------------------------------------------------------
# Bob: driving endpoint

class _FrameCascadeChannel:
    def __init__(self, session: "BobSession"):
        self.session = session

    def send(self, msg) -> None:
        self.session.transport.send_frame(cascade_msg_to_frame(msg))

    def request(self, msg):
        self.send(msg)
        frame = self.session._expect(
            FrameType.QBER_SAMPLE, FrameType.PARITY_RESPONSE, FrameType.VERIFY_TAG
        )
        return frame_to_cascade_msg(frame)


class BobSession:
    """Streams tags, drives reconciliation and amplification."""

    def __init__(self, transport, segments: Iterable, config: SessionConfig = SessionConfig()):
        self.transport = transport
        self.segments = iter(segments)
        self.cfg = config
        self.phase = Phase.HELLO
        self.abort_reason: Optional[AbortReason] = None
        self.stats: List[BlockStats] = []
        self.key_bits: List[np.ndarray] = []
        self.block_sizes: List[int] = []
        self.delay: Optional[int] = None
        self._segments_sent = 0

    def _expect(self, *types: FrameType) -> Frame:
        frame = self.transport.recv_frame()
        if frame.type == FrameType.ABORT:
            reason, message = decode_abort(frame.payload)
            try:
                parsed = AbortReason(reason)
            except ValueError:
                parsed = AbortReason.INTERNAL
            raise _AbortSignal(parsed, message, notify=False)
        if frame.type not in types:
            raise _AbortSignal(
                AbortReason.PROTOCOL_VIOLATION,
                f"got {FrameType(frame.type).name}, expected "
                + "/".join(t.name for t in types),
            )
        return frame

    def run(self) -> SessionResult:
        try:
            self._run()
        except _AbortSignal as sig:
            if sig.notify:
                try:
                    self.transport.send_frame(
                        Frame(FrameType.ABORT, encode_abort(int(sig.reason), str(sig)))
                    )
                except PeerDisconnectedError:
                    pass
            self.phase = Phase.ABORTED
            self.abort_reason = sig.reason
        except PeerDisconnectedError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.PEER_DISCONNECTED
        except SessionTimeoutError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.TIMEOUT
        except MalformedFrameError:
            self.phase = Phase.ABORTED
            self.abort_reason = AbortReason.PROTOCOL_VIOLATION
        finally:
            self.transport.close()
        return SessionResult(
            role="bob",
            phase=self.phase,
            abort_reason=self.abort_reason,
            stats=self.stats,
            key_bits=(np.concatenate(self.key_bits) if self.key_bits
                      else np.empty(0, dtype=np.uint8)),
            delay_ticks=self.delay,
            block_sizes=self.block_sizes,
        )

    def _run(self) -> None:
        self.transport.send_frame(Frame(FrameType.HELLO, encode_hello(1)))
        hello = self._expect(FrameType.HELLO)
        if decode_hello(hello.payload) != 0:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "peer is not the matching side")
        block_index = 0
        while True:
            finished = self._run_block(block_index)
            if finished:
                self.phase = Phase.DONE
                return
            block_index += 1

    def _run_block(self, block_index: int) -> bool:
        """One block; returns True when the data ended (session done)."""
        cfg = self.cfg
        self.phase = Phase.SYNC
        seg_start = self._segments_sent
        det_chunks: list = []
        det_count = 0

        while True:
            seg = next(self.segments, None)
            if seg is None:
                self.transport.send_frame(Frame(FrameType.TIMETAG_BATCH, b""))
                ma_frame = self._expect(FrameType.MATCH_ANNOUNCE)
                ma = MatchAnnounce.decode(ma_frame.payload)
                if ma.flag != ANNOUNCE_END:
                    raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "expected end announce")
                return True
            ticks, dets = seg
            basis = (np.asarray(dets) >= 3).astype(np.uint8)
            self.transport.send_frame(
                Frame(FrameType.TIMETAG_BATCH, encode_timetag_batch(ticks, basis))
            )
            if len(ticks) == 0:
                # an empty batch reads as end-of-data on the far side
                ma_frame = self._expect(FrameType.MATCH_ANNOUNCE)
                ma = MatchAnnounce.decode(ma_frame.payload)
                if ma.flag != ANNOUNCE_END:
                    raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "expected end announce")
                return True
            det_chunks.append(np.asarray(dets, dtype=np.uint8))
            det_count += len(ticks)
            self._segments_sent += 1
            ma_frame = self._expect(FrameType.MATCH_ANNOUNCE)
            ma = MatchAnnounce.decode(ma_frame.payload)
            if ma.flag == ANNOUNCE_CONTINUE:
                continue
            if ma.flag == ANNOUNCE_BLOCK:
                break
            # peer ran out of its own data; end with the partial block dropped
            return True

        # Sift: recover key/Bell branches from the announced matches.
        self.phase = Phase.SIFT
        my_dets = np.concatenate(det_chunks)
        if len(ma.b_idx) and int(ma.b_idx.max()) >= len(my_dets):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "match index out of range")
        self.delay = ma.delay_ticks
        key_mask = ma.classes == int(CoincidenceClass.KEY)
        bell_mask = ma.classes == int(CoincidenceClass.BELL)
        key_dets = my_dets[ma.b_idx[key_mask]]
        if len(key_dets) and int(key_dets.max()) > 2:
            # a key-branch event must sit in this side's key basis
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "key class outside key basis")
        my_key = bob_key_bits(key_dets)
        bell_mine = my_dets[ma.b_idx[bell_mask]]

        reveal = self._expect(FrameType.BELL_REVEAL)
        bell_theirs = decode_bell_reveal(reveal.payload)
        if len(bell_theirs) != len(bell_mine):
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "bell reveal length mismatch")
        self.phase = Phase.BELL
        self.transport.send_frame(Frame(FrameType.BELL_REVEAL, encode_bell_reveal(bell_mine)))

        seg = self.cfg.segment_seconds
        base_stats = dict(
            block_index=block_index,
            t_start=seg_start * seg,
            t_end=self._segments_sent * seg,
            coincidence_count=len(ma.b_idx),
            accidental_count=ma.accidentals,
        )
        try:
            bell = chsh_value(count_coincidences(bell_theirs, bell_mine), cfg.geometry)
            s_ok = abs(bell.s_value) > 2.0
        except InvalidDetectorError:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "revealed detector out of range")
        except EmptyTermError:
            bell = None
            s_ok = False
        if not s_ok:
            stats = BlockStats(
                qber=float("nan"),
                s_value=bell.s_value if bell else float("nan"),
                s_stderr=bell.standard_error if bell else float("nan"),
                leak_ec=0, i_eve=float("nan"), final_bits=0, **base_stats,
            )
            self.stats.append(stats)
            raise _AbortSignal(AbortReason.INSECURE_REGIME,
                               f"|S| = {abs(bell.s_value) if bell else 0:.4f} <= 2")

        # Reconcile (this side drives; the peer serves parities).
        self.phase = Phase.RECONCILE
        params = replace(cfg.cascade,
                         shuffle_seed=_derived_seed(cfg.seed, block_index, _CASCADE_SEED_TAG))
        channel = _FrameCascadeChannel(self)
        try:
            recon = reconcile_bob(my_key, channel, params)
        except VerificationFailedError as exc:
            recon = exc.result

        final = np.empty(0, dtype=np.uint8)
        est = None
        if recon.verified:
            self.phase = Phase.AMPLIFY
            est = secret_fraction(recon.n, recon.leaked_bits, bell.s_value,
                                  cfg.finite_deduction, cfg.rate_multiplier)
            pa = PaParams(est.n, est.leak_ec, est.final_length,
                          cfg.finite_deduction, est.s_value, cfg.rate_multiplier)
            self.transport.send_frame(Frame(FrameType.PA_PARAMS, pa.encode()))
            if est.final_length > 0:
                seed_bits = generate_toeplitz_seed(
                    recon.n, est.final_length,
                    np.random.SeedSequence(
                        [int(cfg.seed), int(block_index), _PA_SEED_TAG]),
                )
                self.transport.send_frame(Frame(FrameType.PA_SEED, encode_pa_seed(seed_bits)))
                final = toeplitz_hash(recon.bits, seed_bits, est.final_length)

                self.phase = Phase.CONFIRM
                tag = _confirm_tag(final, cfg.seed, block_index)
                self.transport.send_frame(cascade_msg_to_frame(VerifyTagMsg(tag=tag)))
                status = frame_to_cascade_msg(self._expect(FrameType.VERIFY_TAG))
                if status.status != 1:
                    self.stats.append(BlockStats(
                        qber=_block_qber(recon), s_value=bell.s_value,
                        s_stderr=bell.standard_error, leak_ec=recon.leaked_bits,
                        i_eve=est.i_eve, final_bits=0, **base_stats,
                    ))
                    raise _AbortSignal(AbortReason.VERIFICATION_FAILED,
                                       "final key tag mismatch", notify=False)
            else:
                self.phase = Phase.CONFIRM
        else:
            self.phase = Phase.CONFIRM

        i_eve = est.i_eve if est is not None else eve_information(bell.s_value)
        stats = BlockStats(
            qber=_block_qber(recon),
            s_value=bell.s_value,
            s_stderr=bell.standard_error,
            leak_ec=recon.leaked_bits,
            i_eve=i_eve,
            final_bits=len(final),
            **base_stats,
        )
        payload = stats.encode()
        self.transport.send_frame(Frame(FrameType.BLOCK_STATS, payload))
        echo = self._expect(FrameType.BLOCK_STATS)
        if echo.payload != payload:
            raise _AbortSignal(AbortReason.PROTOCOL_VIOLATION, "block stats mismatch")
        self.stats.append(stats)
        self.block_sizes.append(recon.n)
        if len(final):
            self.key_bits.append(final)
        return False


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
            sample_bits += frame_to_cascade_msg(frame).count
            last_context = "reconcile"
        elif frame.type == FrameType.VERIFY_TAG:
            msg = frame_to_cascade_msg(frame)
            if msg.tag is not None:
                if last_context == "amplify":
                    confirm_tags += 8 * len(msg.tag)
                else:
                    reconcile_tags += 8 * len(msg.tag)
        elif frame.type == FrameType.BLOCK_STATS:
            leak_total += BlockStats.decode(frame.payload).leak_ec
            blocks += 1

    for frame in iter_frames(alice_to_bob):
        if frame.type == FrameType.PARITY_RESPONSE:
            parity_bits += frame_to_cascade_msg(frame).count
        elif frame.type == FrameType.QBER_SAMPLE:
            sample_bits += frame_to_cascade_msg(frame).count

    return TranscriptAudit(
        parity_bits=parity_bits,
        sample_bits=sample_bits,
        reconcile_tag_bits=reconcile_tags,
        confirm_tag_bits=confirm_tags,
        leak_ec_total=leak_total,
        blocks=blocks,
    )
