"""Framing, transports, each endpoint replayed frame by frame, end-to-end sessions."""

import collections
import functools
import hashlib
import itertools
import queue
import socket
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellqkd.cascade import (
    CascadeParams,
    ParityRequestMsg,
    ParityResponseMsg,
    QberSampleMsg,
    ShuffleSeedMsg,
    VerifyTagMsg,
)
from bellqkd import protocol
from bellqkd.physics import (BOB_DETECTORS, AttackConfig, BobSetting, ChannelConfig,
                             JointSegmentSource)
from bellqkd.sifting import BOB_IDS
from bellqkd.protocol import (
    ANNOUNCE_BLOCK,
    ANNOUNCE_CONTINUE,
    ANNOUNCE_END,
    MESSAGES,
    Abort,
    AbortReason,
    AliceSession,
    BellReveal,
    BlockStats,
    BobSession,
    Frame,
    FrameType,
    Hello,
    MalformedFrameError,
    MatchAnnounce,
    PaParams,
    PaSeedMsg,
    Phase,
    QueueTransport,
    SessionConfig,
    SocketTransport,
    TimetagBatch,
    audit_transcript,
    decode_frame,
    encode_frame,
    frame_message,
    inproc_pair,
    iter_frames,
    run_inproc_pair,
    run_session,
    run_transport_pair,
    _CLOSED,
    _derived_seed,
)
from oracles import ByteDetectors, ListedMatches


def _frame(msg) -> Frame:
    return Frame(protocol._FRAME_TYPES[type(msg)], msg.encode())


def _abort_of(frame: Frame):
    abort = frame_message(frame)
    return abort.reason, abort.message


# ---------------------------------------------------------------------------
# Frame layer


def test_frame_roundtrip_all_types():
    for ftype in FrameType:
        payload = bytes([int(ftype)]) * 5
        data = encode_frame(ftype, payload)
        frame = decode_frame(data)
        assert frame.type == ftype
        assert frame.payload == payload


def test_empty_frame_is_ten_bytes():
    data = encode_frame(FrameType.HELLO)
    assert len(data) == 10
    assert data[:4] == b"QKDP"
    assert decode_frame(data).payload == b""


def test_decode_frame_rejects_garbage():
    good = encode_frame(FrameType.HELLO, b"x")
    with pytest.raises(MalformedFrameError):
        decode_frame(good[:5])
    with pytest.raises(MalformedFrameError):
        decode_frame(b"XKDP" + good[4:])
    with pytest.raises(MalformedFrameError, match="^version 9$"):
        decode_frame(good[:4] + bytes([9]) + good[5:])
    bad_type = good[:5] + bytes([14]) + good[6:]
    with pytest.raises(MalformedFrameError):
        decode_frame(bad_type)
    with pytest.raises(MalformedFrameError):
        decode_frame(good + b"extra")


def test_iter_frames_splits_stream():
    stream = (encode_frame(FrameType.HELLO, b"\x00")
              + encode_frame(FrameType.ABORT, Abort(1, "x").encode())
              + encode_frame(FrameType.PA_SEED, PaSeedMsg.of(np.array([1, 0, 1], np.uint8)).encode()))
    frames = list(iter_frames(stream))
    assert [f.type for f in frames] == [FrameType.HELLO, FrameType.ABORT, FrameType.PA_SEED]
    with pytest.raises(MalformedFrameError):
        list(iter_frames(stream + b"\x01\x02"))
    with pytest.raises(MalformedFrameError):
        list(iter_frames(stream[:-1]))


@given(
    st.sampled_from([ANNOUNCE_END, ANNOUNCE_BLOCK, ANNOUNCE_CONTINUE]),
    st.integers(-(2**62), 2**62),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                       st.integers(0, 2)), max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_match_announce_roundtrip(flag, delay, acc, records):
    ma = MatchAnnounce(
        flag, delay, acc,
        a_idx=np.array([r[0] for r in records], dtype=np.uint32),
        b_idx=np.array([r[1] for r in records], dtype=np.uint32),
        classes=np.array([r[2] for r in records], dtype=np.uint8),
    )
    back = MatchAnnounce.decode(ma.encode())
    assert back.flag == flag and back.delay_ticks == delay and back.accidentals == acc
    np.testing.assert_array_equal(back.a_idx, ma.a_idx)
    np.testing.assert_array_equal(back.b_idx, ma.b_idx)
    np.testing.assert_array_equal(back.classes, ma.classes)


_BITS = np.array([1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=np.uint8)

# Per frame type: sample messages, and payloads that must be refused.  The
# first sample's payload cut by one byte must be refused too.
_MESSAGE_SAMPLES = {
    FrameType.HELLO: ([Hello(0), Hello(1)], [b"\x02", b""]),
    FrameType.TIMETAG_BATCH: (
        [TimetagBatch(np.array([0, 1, 2**40], np.uint64), np.array([0, 1, 0], np.uint8)),
         TimetagBatch(np.empty(0, np.uint64), np.empty(0, np.uint8))],
        [b"\x01\x02\x03"]),
    FrameType.MATCH_ANNOUNCE: (
        [MatchAnnounce(ANNOUNCE_BLOCK, 5, 0, np.array([1], np.uint32), np.array([2], np.uint32),
                       np.array([0], np.uint8)),
         MatchAnnounce(ANNOUNCE_CONTINUE)],
        []),
    FrameType.BELL_REVEAL: (
        [BellReveal(np.array([3, 4, 5, 6], np.uint8)), BellReveal(np.empty(0, np.uint8))],
        [b"\x02\x00\x00\x00\x03"]),  # count says 2, body has 1
    FrameType.QBER_SAMPLE: ([QberSampleMsg(3, b"\xa0")], []),
    FrameType.SHUFFLE_SEED: ([ShuffleSeedMsg(12345)], []),
    FrameType.PARITY_REQUEST: (
        [ParityRequestMsg(1, ((0, 8), (8, 8))), ParityRequestMsg(3, [(0xFFFFFFFF, 2)]),
         ParityRequestMsg(0, ())],
        [b"\x00\x01\x00\x00\x00" + b"\x00" * 9]),  # 1 range needs 8 bytes, not 9
    FrameType.PARITY_RESPONSE: ([ParityResponseMsg(2, b"\xc0")], []),
    FrameType.VERIFY_TAG: ([VerifyTagMsg(tag=b"\x01" * 8), VerifyTagMsg(status=1)], []),
    FrameType.PA_PARAMS: ([PaParams(10000, 1762, 2802, 0, -2.5003, 1.0)], []),
    FrameType.PA_SEED: (
        [PaSeedMsg.of(_BITS)],
        [b"\x09\x00\x00\x00\xff",       # 9 bits need 2 bytes, not 1
         b"\x08\x00\x00\x00\xff\xff"]),  # 8 bits need 1 byte, not 2
    FrameType.BLOCK_STATS: (
        [BlockStats(3, 1.0, 2.5, 12345, 67, 0.031, -2.49, 0.02, 800, 0.55, 421),
         BlockStats(0, 0.0, 1.0, 1, 0, float("nan"), -1.4, 0.1, 0, float("nan"), 0)],
        []),
    FrameType.ABORT: ([Abort(2), Abort(2, "tag mismatch ✓")], [b""]),
}


def _same_fields(a, b) -> bool:
    """Field by field; arrays by value, and NaN equals NaN."""
    return vars(a).keys() == vars(b).keys() and all(
        np.array_equal(x, vars(b)[k]) if isinstance(x, np.ndarray)
        else x == vars(b)[k] or (x != x and vars(b)[k] != vars(b)[k])
        for k, x in vars(a).items())


@pytest.mark.parametrize("ftype", list(FrameType), ids=lambda t: t.name)
def test_message_codec(ftype):
    # one class per frame type, and the inverse map leads back
    assert len(set(MESSAGES.values())) == len(MESSAGES) == len(FrameType)
    cls = MESSAGES[ftype]
    assert protocol._FRAME_TYPES[cls] == ftype
    samples, refused = _MESSAGE_SAMPLES[ftype]
    for msg in samples:
        assert type(msg) is cls
        back = frame_message(Frame(ftype, msg.encode()))
        assert type(back) is cls and _same_fields(back, msg)
        assert isinstance(msg == back, bool)  # comparing two messages never raises
        assert back.encode() == msg.encode()  # byte-exact, the NaN BlockStats row too
    for payload in refused + [samples[0].encode()[:-1]]:
        with pytest.raises(MalformedFrameError, match=f"^bad {ftype.name} payload: "):
            frame_message(Frame(ftype, payload))


@given(st.sampled_from([(ftype, msg) for ftype, (samples, _) in _MESSAGE_SAMPLES.items()
                        for msg in samples]),
       st.binary(max_size=16), st.binary(max_size=16))
@settings(max_examples=100, deadline=None)
def test_a_message_decodes_the_same_from_a_view_and_keeps_none(sample, before, after):
    # a received payload is a view of its frame; the message must not pin it
    ftype, msg = sample
    payload = bytes(msg.encode())
    frame = bytearray(before + payload + after)
    view = memoryview(frame)[len(before):len(before) + len(payload)]
    got = frame_message(Frame(ftype, view))
    assert _same_fields(got, frame_message(Frame(ftype, payload)))
    for field in vars(got).values():
        assert not isinstance(field, memoryview)
        if isinstance(field, np.ndarray):
            assert field.flags.c_contiguous
    view.release()
    frame.extend(b"\x00")  # raises BufferError while any field still views the frame


def test_a_match_announce_in_transit_holds_about_two_frames():
    # A 100k-bit block's announce, 405k matches: encoded into its frame,
    # sent through the in-process pipe and decoded, it peaks at the frame
    # and the decoded fields, with no further copy of the payload.
    n = 405_000
    classes = np.random.default_rng(0).integers(0, 3, n).astype(np.uint8)
    ma = MatchAnnounce(ANNOUNCE_BLOCK, 123, 45, np.arange(n, dtype=np.uint32),
                       np.arange(n, dtype=np.uint32) * 2, classes)
    size = len(encode_frame(FrameType.MATCH_ANNOUNCE, ma.encode()))
    alice, bob = inproc_pair()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        alice.send_frame(Frame(FrameType.MATCH_ANNOUNCE, ma.encode()))
        got = frame_message(bob.recv_frame())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert _same_fields(got, ma)
    assert peak <= 2.2 * size, f"peak {peak / size:.2f} frames"


def test_match_announce_rejects_bad_sizes():
    with pytest.raises(MalformedFrameError):
        frame_message(Frame(FrameType.MATCH_ANNOUNCE, b"\x00" * 10))
    good = MatchAnnounce(ANNOUNCE_BLOCK, 5, 0,
                         np.array([1], np.uint32), np.array([2], np.uint32),
                         np.array([0], np.uint8)).encode()
    with pytest.raises(MalformedFrameError):
        frame_message(Frame(FrameType.MATCH_ANNOUNCE, good[:-1]))


_SEGMENT_MATCHES = st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.integers(n, 60), st.integers(n, 60),
    st.lists(st.integers(0, 59), min_size=n, max_size=n),
    st.lists(st.integers(0, 59), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n)))


@given(st.lists(_SEGMENT_MATCHES, min_size=1, max_size=5),
       st.integers(-2**63, 2**63 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_announce_written_while_matching_equals_the_concatenated_lists(segments, delay, acc):
    # segments without matches and blocks without any included; the
    # indices need only lie in their segment
    built, listed = protocol._Block(0, 0, 1.0), ListedMatches()
    for n_a, n_b, ia, ib, cls in segments:
        ia = np.array([i % n_a for i in ia], np.int64)
        ib = np.array([i % n_b for i in ib], np.int64)
        cls = np.array(cls, np.uint8)
        for store in (built, listed):
            store.add_matches(ia, ib, cls)
            store.a_base += n_a
            store.b_base += n_b
    built.accidentals = acc
    payload = built.announce(delay).encode()
    frame = encode_frame(FrameType.MATCH_ANNOUNCE, payload)
    assert frame is payload.obj and built.matches is None
    assert built.coincidences == sum(len(seg[2]) for seg in segments)
    want = listed.announce(delay, acc)
    assert bytes(frame) == encode_frame(FrameType.MATCH_ANNOUNCE, bytes(want.encode()))
    assert _same_fields(MatchAnnounce.decode(payload), want)


@given(st.lists(st.lists(st.sampled_from(BOB_IDS.tolist()), max_size=13), max_size=6),
       st.data())
@settings(max_examples=200, deadline=None)
def test_packed_detectors_read_back_what_one_byte_a_tag_held(segments, data):
    # segment lengths 0 to 13, so a segment starts at every slot of a byte
    packed, former = protocol._PackedDetectors(), ByteDetectors()
    for dets in segments:
        for store in (packed, former):
            store.extend(np.array(dets, np.uint8))
    count = len(former)
    assert len(packed) == count and len(packed.packed) == -(-count // 4)
    # the first and the last tag, and any others
    idx = [] if not count else [0, count - 1] + data.draw(
        st.lists(st.integers(0, count - 1), max_size=20))
    idx = np.array(idx, np.uint32)
    got, want = packed.at(idx), former.at(idx)
    assert got.dtype == want.dtype == np.uint8
    np.testing.assert_array_equal(got, want)


def test_match_announce_rejects_unknown_flag():
    good = MatchAnnounce(ANNOUNCE_CONTINUE).encode()
    with pytest.raises(MalformedFrameError, match="flag 7"):
        frame_message(Frame(FrameType.MATCH_ANNOUNCE, bytes([7]) + good[1:]))


def test_counted_bits_payloads_share_one_layout():
    # QBER_SAMPLE, PARITY_RESPONSE and PA_SEED: a u32 bit count, then the
    # bits packed MSB first; the two Cascade types still compare unequal
    sample, parities = QberSampleMsg.of(_BITS), ParityResponseMsg.of(_BITS)
    assert (PaSeedMsg.of(_BITS).encode() == sample.encode() == parities.encode()
            == b"\x0b\x00\x00\x00\xb4\xe0")
    assert sample != parities
    for ftype in (FrameType.QBER_SAMPLE, FrameType.PARITY_RESPONSE, FrameType.PA_SEED):
        msg = frame_message(Frame(ftype, sample.encode()))
        np.testing.assert_array_equal(msg.unpack(), _BITS)


@pytest.mark.parametrize("payload", [b"", b"\x02", b"\x00\x01\x02", b"\x00" * 7, b"\x00" * 9],
                         ids=["empty", "status-2", "3-bytes", "7-bytes", "9-bytes"])
def test_verify_tag_is_a_status_byte_or_a_full_tag(payload):
    with pytest.raises(MalformedFrameError):
        frame_message(Frame(FrameType.VERIFY_TAG, payload))


def test_derived_seed_separates_purposes():
    a = _derived_seed(7, 0, 0x5EED)
    assert a == _derived_seed(7, 0, 0x5EED)
    assert a != _derived_seed(7, 1, 0x5EED)
    assert a != _derived_seed(7, 0, 0x70E9)
    assert 0 <= a < 2**64


# ---------------------------------------------------------------------------
# Transports


def test_queue_transport_roundtrip_and_close():
    alice, bob = inproc_pair(timeout=1.0)
    alice.send_frame(Frame(FrameType.HELLO, b"\x00"))
    got = bob.recv_frame()
    assert got.type == FrameType.HELLO and got.payload == b"\x00"
    alice.close()
    from bellqkd.protocol import PeerDisconnectedError
    with pytest.raises(PeerDisconnectedError):
        bob.recv_frame()


def test_queue_transport_timeout():
    from bellqkd.protocol import SessionTimeoutError
    t = QueueTransport(rx=queue.Queue(), tx=queue.Queue(), timeout=0.05)
    with pytest.raises(SessionTimeoutError):
        t.recv_frame()


_FRAMED_SAMPLES = [
    (FrameType.TIMETAG_BATCH, TimetagBatch(np.array([5, 9], np.uint64), np.array([0, 1], np.uint8))),
    (FrameType.MATCH_ANNOUNCE, MatchAnnounce(ANNOUNCE_BLOCK, 5, 0, np.array([1], np.uint32),
                                             np.array([2], np.uint32), np.array([0], np.uint8))),
    (FrameType.BELL_REVEAL, BellReveal(np.array([3, 4, 5], np.uint8))),
]


def test_queue_transport_recorder():
    seen = []
    alice, bob = inproc_pair(recorders=(seen.append, None))
    alice.send_frame(Frame(FrameType.HELLO, b"\x00"))
    alice.send_frame(_frame(Abort(1)))
    for ftype, msg in _FRAMED_SAMPLES:
        # encoded straight into its frame buffer, which is the frame as it is
        payload = msg.encode()
        frame = encode_frame(ftype, payload)
        assert frame is payload.obj
        assert bytes(frame) == protocol._HEADER.pack(protocol.FRAME_MAGIC, protocol.FRAME_VERSION,
                                                     int(ftype), len(payload)) + bytes(payload)
        alice.send_frame(_frame(msg))
    assert len(seen) == 2 + len(_FRAMED_SAMPLES)
    assert decode_frame(seen[0]).type == FrameType.HELLO
    assert decode_frame(seen[1]).type == FrameType.ABORT
    # the recorder sees the wire bytes, and the peer receives the same frame
    for got, (ftype, msg) in zip(seen[2:], _FRAMED_SAMPLES):
        assert bytes(got) == encode_frame(ftype, bytes(msg.encode()))
    for _ in range(len(seen)):
        assert bob.recv_frame() == decode_frame(bytes(seen.pop(0)))


def test_socket_transport_roundtrip():
    s1, s2 = socket.socketpair()
    t1 = SocketTransport(s1, timeout=2.0)
    t2 = SocketTransport(s2, timeout=2.0)
    try:
        t1.send_frame(Frame(FrameType.HELLO, b"\x01"))
        assert t2.recv_frame() == Frame(FrameType.HELLO, b"\x01")
        big = _frame(PaSeedMsg.of(np.ones(100_000, np.uint8)))
        t2.send_frame(big)
        assert t1.recv_frame() == big
    finally:
        t1.close()
        t2.close()


def test_socket_transport_frame_larger_than_one_read():
    s1, s2 = socket.socketpair()
    t1 = SocketTransport(s1, timeout=2.0)
    t2 = SocketTransport(s2, timeout=2.0)
    try:
        payload = np.random.default_rng(4).integers(0, 256, 3_000_001, np.uint8).tobytes()
        t1.send_frame(Frame(FrameType.PA_SEED, payload))
        t1.send_frame(Frame(FrameType.HELLO, b"\x01"))
        assert t2.recv_frame() == Frame(FrameType.PA_SEED, payload)
        assert t2.recv_frame() == Frame(FrameType.HELLO, b"\x01")
    finally:
        t1.close()
        t2.close()


def test_socket_transport_peer_closes_mid_payload():
    from bellqkd.protocol import PeerDisconnectedError
    s1, s2 = socket.socketpair()
    t2 = SocketTransport(s2, timeout=2.0)
    data = encode_frame(FrameType.PA_SEED, b"\xab" * 1000)
    s1.sendall(data[:-10])
    s1.close()
    with pytest.raises(PeerDisconnectedError):
        t2.recv_frame()
    t2.close()


def test_socket_frame_over_the_cap_aborts_before_its_payload():
    # The header claims one byte more than MAX_FRAME_PAYLOAD and no payload
    # follows.  A reader that waited for it would end in TIMEOUT.
    s1, s2 = socket.socketpair()
    s1.settimeout(10.0)
    alice = AliceSession(SocketTransport(s2, timeout=10.0), segments=iter([]))
    s1.sendall(protocol._HEADER.pack(protocol.FRAME_MAGIC, protocol.FRAME_VERSION,
                                     FrameType.TIMETAG_BATCH, protocol.MAX_FRAME_PAYLOAD + 1))
    result = alice.run()
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert "limit" in result.abort_message
    received = b""
    while chunk := s1.recv(1 << 16):
        received += chunk
    s1.close()
    frames = list(iter_frames(received))
    assert [f.type for f in frames] == [FrameType.HELLO, FrameType.ABORT]
    assert frame_message(frames[1]).reason == AbortReason.PROTOCOL_VIOLATION
    with pytest.raises(MalformedFrameError, match="limit"):
        decode_frame(protocol._HEADER.pack(
            protocol.FRAME_MAGIC, protocol.FRAME_VERSION, FrameType.HELLO,
            protocol.MAX_FRAME_PAYLOAD + 1))


def test_socket_transport_waits_for_its_own_timeout():
    # the socket's own 0.1 s deadline must not end the wait as a disconnect
    from bellqkd.protocol import SessionTimeoutError
    s1, s2 = socket.socketpair()
    s2.settimeout(0.1)
    t2 = SocketTransport(s2, timeout=1.0)
    try:
        start = time.monotonic()
        with pytest.raises(SessionTimeoutError):
            t2.recv_frame()
        assert time.monotonic() - start >= 0.9
    finally:
        t2.close()
        s1.close()


def test_socket_send_to_departed_peer_keeps_its_abort():
    from bellqkd.protocol import PeerDisconnectedError
    s1, s2 = socket.socketpair()
    abort = _frame(Abort(AbortReason.PROTOCOL_VIOLATION, "gone"))
    s1.sendall(encode_frame(abort.type, abort.payload))
    s1.close()
    t2 = SocketTransport(s2, timeout=2.0)
    try:
        t2.send_frame(Frame(FrameType.PA_SEED, bytes(300_000)))  # must not raise
        assert t2.recv_frame() == abort
        with pytest.raises(PeerDisconnectedError):
            t2.recv_frame()
    finally:
        t2.close()


def test_socket_transport_disconnect():
    from bellqkd.protocol import PeerDisconnectedError
    s1, s2 = socket.socketpair()
    t1 = SocketTransport(s1, timeout=2.0)
    t2 = SocketTransport(s2, timeout=2.0)
    t1.close()
    with pytest.raises(PeerDisconnectedError):
        t2.recv_frame()
    t2.close()


# ---------------------------------------------------------------------------
# One endpoint against a pre-filled inbox


def _replay(cls, frames, segments, cfg=SessionConfig(timeout=5.0)):
    """Run ``cls`` against an inbox of Frames or raw bytes, closed after
    the last; returns its result and the frames it sent."""
    rx, tx = queue.Queue(), queue.Queue()
    for frame in frames:
        rx.put(frame if isinstance(frame, bytes) else encode_frame(frame.type, frame.payload))
    rx.put(_CLOSED)
    result = cls(QueueTransport(rx=rx, tx=tx, timeout=cfg.timeout), iter(segments), cfg).run()
    sent = []
    while (data := tx.get_nowait()) is not _CLOSED:
        sent.append(decode_frame(data))
    return result, sent


_BOB_HELLO = _frame(Hello(1))


def test_alice_hello_transition():
    # after the peer's HELLO the next legal frame is a batch
    result, sent = _replay(AliceSession, [_BOB_HELLO, _BOB_HELLO], [])
    assert sent[0] == _frame(Hello(0))
    assert [f.type for f in sent] == [FrameType.HELLO, FrameType.ABORT]
    assert result.abort_message == "got HELLO, expected TIMETAG_BATCH"


def test_alice_rejects_peer_claiming_wrong_role():
    result, sent = _replay(AliceSession, [_frame(Hello(0))], [])
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == "peer is not the tag-sending side"
    assert [f.type for f in sent] == [FrameType.HELLO, FrameType.ABORT]


def test_alice_rejects_out_of_phase_frame():
    reveal = _frame(BellReveal(np.empty(0, np.uint8)))
    result, sent = _replay(AliceSession, [reveal], [])
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert sent[-1].type == FrameType.ABORT
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "got BELL_REVEAL, expected HELLO")


def test_alice_empty_batch_ends_session():
    result, sent = _replay(AliceSession, [_BOB_HELLO, Frame(FrameType.TIMETAG_BATCH, b"")], [])
    assert result.phase == Phase.DONE
    assert [f.type for f in sent] == [FrameType.HELLO, FrameType.MATCH_ANNOUNCE]
    assert MatchAnnounce.decode(sent[-1].payload).flag == ANNOUNCE_END


@pytest.mark.parametrize("code", [len(BOB_DETECTORS), 3, 255])
def test_alice_rejects_bad_basis_codes(code):
    # Bob's codes are his settings; the first past them is the range's edge
    segments = [(np.array([100], np.uint64), np.array([1], np.uint8))]
    batch = _frame(TimetagBatch(np.array([100], np.uint64), np.array([code], np.uint8)))
    result, sent = _replay(AliceSession, [_BOB_HELLO, batch],
                           segments)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert sent[-1].type == FrameType.ABORT
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "basis code out of range")


# ---------------------------------------------------------------------------
# End-to-end sessions


def _channel(**kw):
    base = dict(pair_rate=20000.0, loss_db_bob=0.0, background_rate=1000.0,
                visibility_hv=0.96, visibility_diag=0.92, duration=2.0,
                jitter_sigma=0.5, bob_delay=500.0, rng_seed=5)
    base.update(kw)
    return ChannelConfig(**base)


def _run(channel, attack=AttackConfig(), recorders=(None, None), **cfg_kw):
    cfg_kw.setdefault("block_min_key_bits", 3000)
    cfg_kw.setdefault("seed", channel.rng_seed)
    cfg = SessionConfig(**cfg_kw)
    src = JointSegmentSource(channel, attack, segment_seconds=cfg.segment_seconds)
    return run_inproc_pair(src.segments("alice"), src.segments("bob"), cfg,
                           recorders=recorders)


def test_session_produces_identical_keys_and_stats():
    ra, rb = _run(_channel())
    assert ra.done and rb.done
    assert ra.abort_reason is None and rb.abort_reason is None
    assert len(ra.stats) == len(rb.stats) >= 1
    for sa, sb in zip(ra.stats, rb.stats):
        assert sa.encode() == sb.encode()
        assert sa.final_bits > 0
        assert 0.0 < sa.qber < 0.1
        assert sa.s_value < -2.0
    assert len(ra.key_bits) > 0
    np.testing.assert_array_equal(ra.key_bits, rb.key_bits)
    assert ra.key_bytes() == rb.key_bytes()
    assert ra.block_sizes == rb.block_sizes
    assert ra.delay_ticks == rb.delay_ticks == 4000  # 500 ns at 8 ticks/ns


def test_transcript_audit_matches_reported_leakage():
    a_out, b_out = [], []
    ra, rb = _run(_channel(), recorders=(lambda d: a_out.append(d),
                                         lambda d: b_out.append(d)))
    assert ra.done and rb.done
    audit = audit_transcript(b"".join(b_out), b"".join(a_out))
    assert audit.blocks == len(rb.stats)
    assert audit.leak_ec_total == sum(s.leak_ec for s in rb.stats)
    assert audit.counted_disclosure == audit.leak_ec_total
    assert audit.sample_bits > 0           # disclosed but discarded
    assert audit.confirm_tag_bits == 64 * len(rb.stats)


def test_benchmark_hooks_see_every_batch_and_reconciliation_frame(monkeypatch):
    # perfbench/tracer.py times these by swapping them in by name; a
    # session that went round them would zero its per-layer figures
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("encode_timetag_batch", "decode_timetag_batch", "classify",
                 "count_coincidences"):
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    monkeypatch.setattr(protocol.AliceReconciler, "handle",
                        counted("handle", protocol.AliceReconciler.handle))
    b2a = []
    ra, rb = _run(_channel(duration=1.5), recorders=(None, b2a.append), block_min_key_bits=2000)
    assert ra.done and rb.done
    types = [f.type for f in iter_frames(b"".join(b2a))]
    batches = types.count(FrameType.TIMETAG_BATCH)
    assert batches >= 2
    assert calls["encode_timetag_batch"] == calls["decode_timetag_batch"] == batches
    # Alice classifies every segment she matches; each side runs the Bell test
    blocks = len(rb.stats)
    assert blocks >= 1 and calls["classify"] >= blocks
    assert calls["count_coincidences"] == 2 * blocks
    # a VERIFY_TAG after a PA_SEED is the confirm tag, which Alice checks herself
    reconciliation = sum(types.count(t) for t in (
        FrameType.SHUFFLE_SEED, FrameType.QBER_SAMPLE, FrameType.PARITY_REQUEST,
        FrameType.VERIFY_TAG)) - types.count(FrameType.PA_SEED)
    assert reconciliation > 0 and calls["handle"] == reconciliation


def test_transcript_deterministic_across_runs():
    streams = []
    for _ in range(2):
        a_out, b_out = [], []
        _run(_channel(), recorders=(lambda d: a_out.append(d),
                                    lambda d: b_out.append(d)))
        streams.append((b"".join(a_out), b"".join(b_out)))
    assert streams[0][0] == streams[1][0]
    assert streams[0][1] == streams[1][1]


def test_full_attack_aborts_insecure():
    ch = _channel(visibility_hv=1.0, visibility_diag=1.0, background_rate=0.0)
    ra, rb = _run(ch, attack=AttackConfig(intercept_fraction=1.0),
                  block_min_key_bits=1500)
    assert ra.phase == Phase.ABORTED and rb.phase == Phase.ABORTED
    assert ra.abort_reason == AbortReason.INSECURE_REGIME
    assert rb.abort_reason == AbortReason.INSECURE_REGIME
    assert len(ra.key_bits) == 0 and len(rb.key_bits) == 0
    # both sides still log the failed block, with matching bytes
    assert len(ra.stats) == len(rb.stats) == 1
    assert ra.stats[0].encode() == rb.stats[0].encode()
    assert abs(rb.stats[0].s_value) < 2.0
    assert np.isnan(rb.stats[0].qber)


def _uncorrelated_batches(channel) -> int:
    """Run Alice and Bob on streams from unrelated sources; both must end
    NO_PEAK with the scan's message.  Returns Bob's TIMETAG_BATCH count."""
    b2a = []
    src_a = JointSegmentSource(channel(rng_seed=1))
    src_b = JointSegmentSource(channel(rng_seed=2))
    ra, rb = run_inproc_pair(src_a.segments("alice"), src_b.segments("bob"),
                             SessionConfig(block_min_key_bits=1000), recorders=(None, b2a.append))
    assert ra.abort_reason == rb.abort_reason == AbortReason.NO_PEAK
    assert ra.abort_message == rb.abort_message
    assert ra.abort_message.startswith("peak/background")
    return [f.type for f in iter_frames(b"".join(b2a))].count(FrameType.TIMETAG_BATCH)


def test_uncorrelated_streams_abort_no_peak():
    # the first segment holds over COARSE_TAGS Alice tags: one scan decides
    channel = functools.partial(_channel, duration=3.0, background_rate=30000.0)
    assert _uncorrelated_batches(channel) == 1


@pytest.mark.parametrize("channel, batches", [
    (functools.partial(ChannelConfig, duration=5.0), 1),
    # ~26k Alice tags a segment: the second scan is the last
    (functools.partial(_channel, duration=3.0), 2),
], ids=["defaults", "sparse"])
def test_uncorrelated_streams_stop_scanning_at_coarse_tags(channel, batches):
    assert _uncorrelated_batches(channel) == batches


def test_failed_scan_then_found_delay_ends_done():
    # Alice's first segment is empty, so her first scan fails below
    # COARSE_TAGS; the second finds the delay and the session runs on
    ch = _channel(duration=2.0)
    src = JointSegmentSource(ch, segment_seconds=0.5)
    seg_a = src.segments("alice")
    first = next(seg_a)
    seg_a = itertools.chain([tuple(x[:0] for x in first)], seg_a)
    cfg = SessionConfig(block_min_key_bits=1000, seed=ch.rng_seed)
    ra, rb = run_inproc_pair(seg_a, src.segments("bob"), cfg)
    assert ra.done and rb.done
    assert ra.abort_reason is None and rb.abort_reason is None
    assert len(ra.stats) == len(rb.stats) >= 1
    assert ra.key_bytes() == rb.key_bytes() != b""


def test_zero_duration_completes_with_no_blocks():
    ra, rb = _run(_channel(duration=0.0))
    assert ra.done and rb.done
    assert ra.stats == [] and rb.stats == []
    assert ra.key_bytes() == rb.key_bytes() == b""


def test_failed_reconciliation_drops_block_and_continues(monkeypatch):
    # one pass cannot fix a 2% error rate; blocks close with zero final
    # bits but the session itself stays healthy
    monkeypatch.setattr(protocol, "CascadeParams", functools.partial(CascadeParams, passes=1))
    ch = _channel(duration=1.5, visibility_hv=0.95)
    ra, rb = _run(ch, block_min_key_bits=2000)
    assert ra.done and rb.done
    assert len(rb.stats) >= 1
    assert all(s.final_bits == 0 for s in rb.stats)
    assert all(sa.encode() == sb.encode() for sa, sb in zip(ra.stats, rb.stats))
    assert rb.key_bytes() == b""


def test_bob_aborts_on_unexpected_frame_type():
    # scripted peer: correct HELLO, then an illegal frame instead of the
    # first MATCH_ANNOUNCE
    reveal = _frame(BellReveal(np.empty(0, np.uint8)))
    src = JointSegmentSource(_channel(duration=1.0))
    result, sent = _replay(BobSession, [_frame(Hello(0)), reveal],
                           src.segments("bob"))
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert [f.type for f in sent] == [FrameType.HELLO, FrameType.TIMETAG_BATCH, FrameType.ABORT]
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "got BELL_REVEAL, expected MATCH_ANNOUNCE")


@pytest.fixture(scope="module")
def transcripts():
    """One short session.  Per endpoint class: the frames its peer sent,
    its own segments and the config, the arguments of ``_replay``."""
    ch = _channel(duration=1.5)
    a2b, b2a = [], []
    _run(ch, recorders=(a2b.append, b2a.append), block_min_key_bits=2000)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed, timeout=5.0)
    src = JointSegmentSource(ch)
    segments = {side: list(src.segments(side)) for side in ("alice", "bob")}
    return {
        AliceSession: (list(iter_frames(b"".join(b2a))), segments["alice"], cfg),
        BobSession: (list(iter_frames(b"".join(a2b))), segments["bob"], cfg),
    }


@pytest.mark.parametrize("keep", [0, 1, 3, -1])
@pytest.mark.parametrize("ftype", [FrameType.SHUFFLE_SEED, FrameType.QBER_SAMPLE,
                                   FrameType.PARITY_REQUEST], ids=lambda t: t.name)
def test_alice_aborts_on_truncated_reconciliation_payload(transcripts, ftype, keep):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(ftype)
    truncated = Frame(ftype, frames[at].payload[:keep])
    result, sent = _replay(AliceSession, frames[:at] + [truncated], segments, cfg)
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    # the frame was legal next: its payload, not its type, is refused
    assert result.abort_message.startswith(f"bad {ftype.name} payload")
    assert sent[-1].type == FrameType.ABORT
    assert frame_message(sent[-1]).reason == AbortReason.PROTOCOL_VIOLATION


@pytest.mark.parametrize("keep", [0, 3, 4, -1])
def test_truncated_parity_response_is_malformed(keep):
    payload = ParityResponseMsg(12, b"\xa5\x30").encode()
    with pytest.raises(MalformedFrameError):
        frame_message(Frame(FrameType.PARITY_RESPONSE, payload[:keep]))


class _Tamper:
    """Transport wrapper rewriting every outgoing frame of one type."""

    def __init__(self, inner, ftype, change):
        self._inner = inner
        self._ftype = ftype
        self._change = change

    def send_frame(self, frame):
        if frame.type == self._ftype:
            frame = self._change(frame)
        self._inner.send_frame(frame)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _flip_last_byte(frame):
    payload = bytes(frame.payload)  # a received frame's payload is a view
    return Frame(frame.type, payload[:-1] + bytes([payload[-1] ^ 1]))


def test_tampered_block_stats_detected():
    ch = _channel(duration=1.5)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed)
    src = JointSegmentSource(ch)
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    ra, rb = run_transport_pair(t_alice, _Tamper(t_bob, FrameType.BLOCK_STATS, _flip_last_byte),
                                src.segments("alice"), src.segments("bob"), cfg)
    assert ra.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert rb.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert ra.abort_message == rb.abort_message == "block stats mismatch"
    # not a refusal: neither side logs the open block's row
    assert ra.stats == rb.stats == []
    assert ra.key_bytes() == b""


def test_refused_block_stats_echo_drops_the_block_on_both_sides():
    # Alice closes the block before Bob checks her echo; his refusal is the
    # next frame she reads, and it drops the block on her side too
    cfg = SessionConfig(block_min_key_bits=2000, seed=5)
    src = JointSegmentSource(ChannelConfig(duration=1.5, rng_seed=5))
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    ra, rb = run_transport_pair(_Tamper(t_alice, FrameType.BLOCK_STATS, _flip_last_byte), t_bob,
                                src.segments("alice"), src.segments("bob"), cfg)
    for side in (ra, rb):
        assert side.abort_reason == AbortReason.PROTOCOL_VIOLATION
        assert side.abort_message == "BLOCK_STATS mismatch"
        assert side.stats == [] and side.block_sizes == [] and side.key_bytes() == b""


def test_empty_segment_right_after_a_confirmed_block_keeps_it_on_both_sides():
    ch = ChannelConfig(duration=1.5, rng_seed=5)
    cfg = SessionConfig(block_min_key_bits=2000, seed=5, segment_seconds=0.25)
    src = JointSegmentSource(ch, segment_seconds=0.25)
    ref_a, ref_b = run_inproc_pair(src.segments("alice"), src.segments("bob"), cfg)
    first = ref_b.stats[0]
    used = round(first.t_end / 0.25)  # Bob's segments in the first block
    assert used < src.n_segments - 1  # more data follows the empty segment

    def bob(segments):
        yield from itertools.islice(segments, used)
        yield np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8)
        yield from segments

    src = JointSegmentSource(ch, segment_seconds=0.25)
    ra, rb = run_inproc_pair(src.segments("alice"), bob(src.segments("bob")), cfg)
    for side, ref in ((ra, ref_a), (rb, ref_b)):
        assert side.abort_reason == AbortReason.EMPTY_SEGMENT
        assert side.abort_message == f"segment {used} has no tags and is not the last"
        assert [s.encode() for s in side.stats] == [first.encode()]
        assert side.block_sizes == ref.block_sizes[:1]
        np.testing.assert_array_equal(side.key_bits, ref.key_bits[: first.final_bits])
    assert first.final_bits > 0


def _held_arrays(session):
    """The arrays a session's attributes and its open block's hold, also in
    lists and tuples, one level deep."""
    held = []
    for owner in (session, session._block):
        for value in vars(owner).values():
            for item in value if isinstance(value, (list, tuple)) else [value]:
                parts = item if isinstance(item, (list, tuple)) else [item]
                held += [p for p in parts if isinstance(p, np.ndarray)]
    return held


def test_each_side_frees_what_the_rest_of_the_block_does_not_read(monkeypatch):
    # Bob: at reconcile_bob's entry no array of the block's segments, nor
    # of the announce he decoded, is alive; only the segment he took ahead
    # is.  Alice: once the announce is sent she holds no match indices.
    ch = _channel(duration=2.0)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed, segment_seconds=0.25)
    src = JointSegmentSource(ch, segment_seconds=cfg.segment_seconds)
    taken = []  # weakrefs to the arrays of each segment Bob took, of each announce he decoded

    def bob_segments():
        for ticks, dets in src.segments("bob"):
            taken.append((weakref.ref(ticks), weakref.ref(dets)))
            yield ticks, dets

    decode = MatchAnnounce.decode

    def decode_tracked(payload):
        ma = decode(payload)
        taken.append(tuple(weakref.ref(x) for x in (ma.a_idx, ma.b_idx, ma.classes)))
        return ma

    reconcile = protocol.reconcile_bob
    alive_at_reconcile = []

    def reconcile_checked(bits, bob, params):
        ahead = [id(x) for x in bob._pending or ()]
        alive_at_reconcile.append([r() for refs in taken for r in refs
                                   if r() is not None and id(r()) not in ahead])
        return reconcile(bits, bob, params)

    send = AliceSession.send
    alice_indices = []

    def send_checked(alice, msg):
        send(alice, msg)
        if isinstance(msg, MatchAnnounce) and msg.flag == ANNOUNCE_BLOCK:
            alice_indices.append([x for x in _held_arrays(alice) if x.dtype == np.uint32])

    monkeypatch.setattr(MatchAnnounce, "decode", staticmethod(decode_tracked))
    monkeypatch.setattr(protocol, "reconcile_bob", reconcile_checked)
    monkeypatch.setattr(AliceSession, "send", send_checked)
    ra, rb = run_inproc_pair(src.segments("alice"), bob_segments(), cfg)
    assert ra.done and rb.done and len(rb.stats) >= 2
    assert len(alive_at_reconcile) == len(alice_indices) == len(rb.stats)
    assert alive_at_reconcile == [[]] * len(rb.stats)
    assert alice_indices == [[]] * len(rb.stats)


def test_bob_frees_the_segment_he_sent_before_he_generates_the_next():
    # he packs its detectors and drops its ticks first, so no two of his
    # segments are alive while he generates
    ch = _channel(duration=2.0)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed, segment_seconds=0.25)
    src = JointSegmentSource(ch, segment_seconds=cfg.segment_seconds)
    prev_alive = []  # per request for a segment, whether the last one's arrays are alive

    def bob_segments():
        segments, prev = src.segments("bob"), ()
        while True:
            prev_alive.append([r() is not None for r in prev])
            seg = next(segments, None)
            if seg is None:
                return
            prev = tuple(weakref.ref(x) for x in seg)
            yield seg
            del seg

    ra, rb = run_inproc_pair(src.segments("alice"), bob_segments(), cfg)
    assert ra.done and rb.done and len(rb.stats) >= 2
    assert prev_alive == [[]] + [[False, False]] * (len(prev_alive) - 1)
    assert len(prev_alive) > src.n_segments


def test_a_delay_found_on_the_first_batch_scans_and_matches_it_uncopied(monkeypatch):
    # one batch and one segment in the warm-up: the scan and the matcher
    # take them as they are (at the tag cap, copies raised the peak RSS)
    decoded, scanned, matched = [], [], []
    decode, scan, match = (protocol.decode_timetag_batch, protocol.find_delay,
                           protocol.match_coincidences)
    monkeypatch.setattr(protocol, "decode_timetag_batch",
                        lambda payload: decoded.append(decode(payload)) or decoded[-1])
    monkeypatch.setattr(protocol, "find_delay",
                        lambda a, b, *rest: scanned.append(b) or scan(a, b, *rest))
    monkeypatch.setattr(protocol, "match_coincidences",
                        lambda a, b, *rest: matched.append(b) or match(a, b, *rest))
    ra, rb = _run(_channel(duration=1.5), block_min_key_bits=2000)
    assert ra.done and rb.done and len(scanned) == 1
    assert scanned[0] is matched[0] is decoded[0][0]


def test_pa_seed_other_than_the_derived_one_is_refused():
    # the flipped bit leaves the final key as it was: a check of the seed's
    # length alone let this session end DONE
    def flip_top_bit_of_last_byte(frame):
        return Frame(frame.type, frame.payload[:-1] + bytes([frame.payload[-1] ^ 0x80]))

    cfg = SessionConfig(block_min_key_bits=2000, seed=5)
    src = JointSegmentSource(ChannelConfig(duration=1.5, rng_seed=5))
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    ra, rb = run_transport_pair(t_alice, _Tamper(t_bob, FrameType.PA_SEED, flip_top_bit_of_last_byte),
                                src.segments("alice"), src.segments("bob"), cfg)
    for side in (ra, rb):
        assert side.abort_reason == AbortReason.PROTOCOL_VIOLATION
        assert side.abort_message == "PA_SEED mismatch"
        assert side.stats == [] and side.key_bytes() == b""


def test_failed_confirm_tag_logs_equal_stats_rows():
    # Bob's first VERIFY_TAG closes Cascade, the second is the confirm tag
    # over the final key; only that one is flipped
    sent = itertools.count()
    ch = _channel(duration=1.5)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed)
    src = JointSegmentSource(ch)
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    tamper = _Tamper(t_bob, FrameType.VERIFY_TAG,
                     lambda f: _flip_last_byte(f) if next(sent) == 1 else f)
    ra, rb = run_transport_pair(t_alice, tamper, src.segments("alice"), src.segments("bob"), cfg)
    assert ra.abort_reason == rb.abort_reason == AbortReason.VERIFICATION_FAILED
    assert len(ra.stats) == len(rb.stats) == 1
    assert ra.stats[0].encode() == rb.stats[0].encode()
    assert np.isnan(rb.stats[0].qber) and rb.stats[0].final_bits == 0
    assert ra.key_bytes() == rb.key_bytes() == b""


@pytest.mark.parametrize("change", [
    # a PARITY_RESPONSE carrying more parities than were asked for
    lambda f: _frame(ParityResponseMsg(frame_message(f).count + 8, frame_message(f).bits + b"\x00")),
    # a QBER_SAMPLE where the PARITY_RESPONSE belongs
    lambda f: Frame(FrameType.QBER_SAMPLE, f.payload),
], ids=["wrong-count", "sample-instead"])
def test_bad_parity_reply_ends_in_abort(change):
    ch = _channel(duration=1.5)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed)
    src = JointSegmentSource(ch)
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    ra, rb = run_transport_pair(_Tamper(t_alice, FrameType.PARITY_RESPONSE, change), t_bob,
                                src.segments("alice"), src.segments("bob"), cfg)
    assert rb.phase == ra.phase == Phase.ABORTED
    assert rb.abort_reason == ra.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert rb.abort_message == ra.abort_message == "bad parity response"
    assert ra.key_bytes() == rb.key_bytes() == b""


def test_alice_refuses_block_stats_before_confirm_tag():
    ch = ChannelConfig(duration=6, rng_seed=3)
    cfg = SessionConfig(block_min_key_bits=10000, seed=3)
    src = JointSegmentSource(ch)
    b_out = []
    run_inproc_pair(src.segments("alice"), src.segments("bob"), cfg, recorders=(None, b_out.append))
    frames = list(iter_frames(b"".join(b_out)))
    at = [f.type for f in frames].index(FrameType.PA_SEED) + 1
    assert frames[at].type == FrameType.VERIFY_TAG
    del frames[at]  # the confirm tag over the final key

    result, sent = _replay(AliceSession, frames, JointSegmentSource(ch).segments("alice"), cfg)
    assert [f.type for f in sent].count(FrameType.ABORT) == 1
    assert sent[-1].type == FrameType.ABORT
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "got BLOCK_STATS, expected VERIFY_TAG")
    assert FrameType.BLOCK_STATS not in [f.type for f in sent]
    assert result.key_bytes() == b"" and result.stats == []


def test_alice_aborts_on_unsorted_tag_batch():
    segments = [(np.array([100, 200], np.uint64), np.array([1, 1], np.uint8))]
    batch = _frame(TimetagBatch(np.array([300, 200], np.uint64), np.array([0, 0], np.uint8)))
    result, sent = _replay(AliceSession, [_BOB_HELLO, batch],
                           segments)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "tag times unsorted or out of range")


def test_bob_aborts_on_block_without_key_bits():
    bell_only = MatchAnnounce(ANNOUNCE_BLOCK, 4000, 0, np.array([0], np.uint32),
                              np.array([0], np.uint32), np.array([1], np.uint8))
    src = JointSegmentSource(_channel(duration=1.0))
    result, _ = _replay(BobSession, [_frame(Hello(0)),
                                     Frame(FrameType.MATCH_ANNOUNCE, bell_only.encode())],
                        src.segments("bob"))
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == "block without key bits"


@pytest.mark.parametrize("tags", range(1, 9))
def test_bob_refuses_a_match_index_at_his_tag_count(tags):
    # Bob holds his detectors 4 to a byte: an index into the padding of
    # the last byte is out of range like any other, and the last tag is not
    segments = [(np.arange(1, tags + 1, dtype=np.uint64) * 100, np.full(tags, 1, np.uint8))]
    messages = []
    for b_idx in (tags - 1, tags):
        announce = MatchAnnounce(ANNOUNCE_BLOCK, 0, 0, np.array([0], np.uint32),
                                 np.array([b_idx], np.uint32), np.array([0], np.uint8))
        result, _ = _replay(BobSession, [_frame(Hello(0)),
                                         Frame(FrameType.MATCH_ANNOUNCE, announce.encode())],
                            segments)
        messages.append((result.abort_reason, result.abort_message))
    # in range, he sifts and waits for a Bell reveal that never comes
    assert messages[0][0] == AbortReason.PEER_DISCONNECTED
    assert messages[1] == (AbortReason.PROTOCOL_VIOLATION, "match index out of range")


@pytest.mark.parametrize("det", BOB_DETECTORS[BobSetting.DIAG])
def test_bob_aborts_on_key_class_outside_key_basis(det):
    key_match = MatchAnnounce(ANNOUNCE_BLOCK, 0, 0, np.array([0], np.uint32),
                              np.array([0], np.uint32), np.array([0], np.uint8))
    segments = [(np.array([100], np.uint64), np.array([det], np.uint8))]
    result, sent = _replay(BobSession, [_frame(Hello(0)),
                                        Frame(FrameType.MATCH_ANNOUNCE, key_match.encode())],
                           segments)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                 "key class outside key basis")


def test_bob_aborts_on_unknown_announce_flag():
    good = MatchAnnounce(ANNOUNCE_CONTINUE).encode()
    src = JointSegmentSource(_channel(duration=1.0))
    result, sent = _replay(BobSession, [_frame(Hello(0)),
                                        Frame(FrameType.MATCH_ANNOUNCE, bytes([7]) + good[1:])],
                           src.segments("bob"))
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert [f.type for f in sent] == [FrameType.HELLO, FrameType.TIMETAG_BATCH, FrameType.ABORT]
    assert frame_message(sent[-1]).reason == AbortReason.PROTOCOL_VIOLATION


def test_alice_refuses_parity_request_beyond_the_passes(transcripts):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(FrameType.PARITY_REQUEST)
    passes = CascadeParams().passes
    beyond = ParityRequestMsg(passes, frame_message(frames[at]).ranges)
    result, sent = _replay(AliceSession, frames[:at] + [_frame(beyond)],
                           segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == f"parity request for pass {passes} of only {passes}"
    assert sent[-1].type == FrameType.ABORT
    assert FrameType.PARITY_RESPONSE not in [f.type for f in sent]


@pytest.mark.parametrize("ranges", [((0, 0),), ((0, 2**20),), ((0xFFFFFFFF, 2),)],
                         ids=["zero-length", "past-the-end", "start-u32-max"])
def test_parity_range_out_of_bounds_is_a_protocol_violation(transcripts, ranges):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(FrameType.PARITY_REQUEST)
    bad = ParityRequestMsg(frame_message(frames[at]).pass_index, ranges)
    result, sent = _replay(AliceSession, frames[:at] + [_frame(bad)], segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == "parity range out of bounds"
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION),
                                   "parity range out of bounds")
    assert FrameType.PARITY_RESPONSE not in [f.type for f in sent]


@pytest.mark.parametrize("ftype", [FrameType.SHUFFLE_SEED, FrameType.QBER_SAMPLE],
                         ids=lambda t: t.name)
def test_alice_refuses_a_repeated_seed_or_sample(transcripts, ftype):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(ftype)
    result, sent = _replay(AliceSession, frames[:at + 1] + frames[at:], segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == f"unexpected message {type(frame_message(frames[at])).__name__}"
    assert sent[-1].type == FrameType.ABORT


@pytest.mark.parametrize("edit, message", [
    ("repeat", "got PA_PARAMS, expected PA_SEED"),
    ("seed-first", "got PA_SEED, expected PA_PARAMS"),
])
def test_alice_takes_pa_params_once_and_before_the_seed(transcripts, edit, message):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(FrameType.PA_PARAMS)
    assert frames[at + 1].type == FrameType.PA_SEED
    if edit == "repeat":
        frames = frames[:at + 1] + frames[at:]
    else:
        frames = frames[:at] + [frames[at + 1], frames[at]] + frames[at + 2:]
    result, sent = _replay(AliceSession, frames, segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == message
    assert sent[-1].type == FrameType.ABORT


@pytest.mark.parametrize("cls, ftype", [(AliceSession, FrameType.PA_PARAMS),
                                        (BobSession, FrameType.BLOCK_STATS)],
                         ids=["alice-pa-params", "bob-block-stats"])
def test_a_message_both_sides_derive_must_match(transcripts, cls, ftype):
    frames, segments, cfg = transcripts[cls]
    at = [f.type for f in frames].index(ftype)
    frames = frames[:at] + [_flip_last_byte(frames[at])] + frames[at + 1:]
    result, sent = _replay(cls, frames, segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == f"{ftype.name} mismatch"
    assert _abort_of(sent[-1]) == (int(AbortReason.PROTOCOL_VIOLATION), f"{ftype.name} mismatch")
    assert result.stats == []


@pytest.mark.parametrize("tag", [b"", b"\x00\x01\x02"], ids=["0-bytes", "3-bytes"])
def test_short_confirm_tag_is_a_protocol_violation(transcripts, tag):
    frames, segments, cfg = transcripts[AliceSession]
    at = [f.type for f in frames].index(FrameType.PA_SEED) + 1
    assert frames[at].type == FrameType.VERIFY_TAG  # the confirm tag
    result, sent = _replay(AliceSession, frames[:at] + [Frame(FrameType.VERIFY_TAG, tag)],
                           segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert sent[-1].type == FrameType.ABORT
    # no status answers it: the one VERIFY_TAG sent closed reconciliation
    assert [f.type for f in sent].count(FrameType.VERIFY_TAG) == 1


def test_abort_message_kept_on_both_sides():
    ch = _channel(visibility_hv=1.0, visibility_diag=1.0, background_rate=0.0)
    ra, rb = _run(ch, attack=AttackConfig(intercept_fraction=1.0), block_min_key_bits=1500)
    assert rb.abort_message.startswith("|S| = ") and rb.abort_message.endswith(" <= 2")
    assert ra.abort_message == rb.abort_message  # the peer's text, kept
    t = QueueTransport(rx=queue.Queue(), tx=queue.Queue(), timeout=0.05)
    assert BobSession(t, iter([])).run().abort_message == "no frame within 0.05 s"
    t_alice, t_bob = inproc_pair(timeout=5.0)
    t_bob.close()
    assert run_session("alice", t_alice, iter([])).abort_message == "peer closed the connection"


def _digest(chunks) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


# SHA-256 of each direction's frames and of the final key.  A change here
# is a wire-format change and must come with a FRAME_VERSION bump.
_PINNED_SESSIONS = {
    "paper-20s": (
        dict(channel=ChannelConfig(duration=20, rng_seed=1),
             cfg=SessionConfig(block_min_key_bits=10000, seed=1)),
        "9ef12525f089fd9828e20ea01b8c46619a718e9814f0574e98c0d47654633d00",
        "b93ca36221ebc99b25eb12bbcb315f9e93b15c901741ab6f1e35c29573af5f7b",
        "08e985b1ab42a44e88a20023da1cabd85abca2faf217f98489ce7484056aee8d",
    ),
    "insecure-abort": (
        dict(channel=ChannelConfig(duration=3, rng_seed=7),
             attack=AttackConfig(intercept_fraction=1.0),
             cfg=SessionConfig(block_min_key_bits=2000, seed=7)),
        "fbf4ba9f26c121b983f072652cbbc2c28b04d8b428480f209b5e3ebd6edfeb0c",
        "5f5d9bfc6119e2c80c851c2a75c5610994bf5e9d2f968190ac98e27dbc1817bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "tampered-stats": (
        dict(channel=_channel(duration=1.5),
             cfg=SessionConfig(block_min_key_bits=2000, seed=5),
             tamper=lambda t: _Tamper(t, FrameType.BLOCK_STATS, _flip_last_byte)),
        "d3ca36bbb4ec37d8b3cddfa75bd096c018788370d289de51c54a7ea76e2d5d06",
        "91f4717cfc0fc7cef260253ddda9cff3c4360795d723aaa01892daf6ed982181",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_SESSIONS))
def test_transcripts_match_pinned_hashes(name):
    setup, a2b_hash, b2a_hash, key_hash = _PINNED_SESSIONS[name]
    cfg = setup["cfg"]
    src = JointSegmentSource(setup["channel"], setup.get("attack", AttackConfig()),
                             segment_seconds=cfg.segment_seconds)
    a2b, b2a = [], []
    t_alice, t_bob = inproc_pair(timeout=cfg.timeout, recorders=(a2b.append, b2a.append))
    ra, rb = run_transport_pair(t_alice, setup.get("tamper", lambda t: t)(t_bob),
                                src.segments("alice"), src.segments("bob"), cfg)
    assert (_digest(a2b), _digest(b2a)) == (a2b_hash, b2a_hash)
    assert hashlib.sha256(ra.key_bytes()).hexdigest() == key_hash
    assert ra.key_bytes() == rb.key_bytes()


def test_session_timeout():
    t = QueueTransport(rx=queue.Queue(), tx=queue.Queue(), timeout=0.05)
    result = BobSession(t, iter([]), SessionConfig()).run()
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.TIMEOUT


def test_peer_disconnect():
    t_alice, t_bob = inproc_pair(timeout=5.0)
    t_bob.close()
    result = run_session("alice", t_alice, iter([]), SessionConfig())
    assert result.phase == Phase.ABORTED
    assert result.abort_reason == AbortReason.PEER_DISCONNECTED


class _SegmentError(Exception):
    pass


def _raising_at(segments, k):
    """``segments`` with an error in place of segment ``k``."""
    for i, seg in enumerate(segments):
        if i == k:
            raise _SegmentError(f"no segment {k}")
        yield seg


@pytest.mark.parametrize("transport", ["inproc", "socket"])
@pytest.mark.parametrize("where", ["inside-a-block", "after-a-block"])
def test_error_in_bobs_segments_ends_the_session_cleanly(monkeypatch, where, transport):
    # Bob takes segment k after he sends batch k-1 and before he reads its
    # announce, so his iterator fails while Alice matches batch k-1: inside
    # a block, or when that announce closes a block.  Both threads end long
    # before the timeout, the error reaches the caller and Alice ends
    # ABORTED.  (replay reads both tag files through before the session
    # starts, so its segments cannot raise mid-session.)
    ch = _channel(duration=3.0)
    cfg = SessionConfig(block_min_key_bits=3000, seed=ch.rng_seed, segment_seconds=0.5,
                        timeout=30.0)
    a2b = []
    src = JointSegmentSource(ch, segment_seconds=cfg.segment_seconds)
    ra, rb = run_inproc_pair(src.segments("alice"), src.segments("bob"), cfg,
                             recorders=(a2b.append, None))
    assert ra.done and rb.done
    flags = [frame_message(f).flag for f in iter_frames(b"".join(a2b))
             if f.type == FrameType.MATCH_ANNOUNCE]
    closing = ANNOUNCE_CONTINUE if where == "inside-a-block" else ANNOUNCE_BLOCK
    k = flags.index(closing) + 1
    assert k < src.n_segments

    results = {}

    def recorded(role, *args):
        results[role] = run_session(role, *args)
        return results[role]

    monkeypatch.setattr(protocol, "run_session", recorded)
    if transport == "socket":
        t_alice, t_bob = (SocketTransport(s, timeout=cfg.timeout) for s in socket.socketpair())
    else:
        t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    src = JointSegmentSource(ch, segment_seconds=cfg.segment_seconds)
    start = time.monotonic()
    with pytest.raises(_SegmentError, match=f"no segment {k}"):
        run_transport_pair(t_alice, t_bob, src.segments("alice"),
                           _raising_at(src.segments("bob"), k), cfg)
    assert time.monotonic() - start < cfg.timeout / 3
    assert list(results) == ["alice"]
    assert results["alice"].phase == Phase.ABORTED
    assert results["alice"].abort_reason == AbortReason.PEER_DISCONNECTED


def test_both_roles_count_the_same_reconciliation_messages(monkeypatch):
    counts = {"alice": [], "bob": []}
    close_block = protocol._Endpoint._close_block

    def counted(self, stats):
        counts[self.role].append(self._block.recon.exchanged_messages)
        close_block(self, stats)

    monkeypatch.setattr(protocol._Endpoint, "_close_block", counted)
    ra, rb = _run(_channel())
    assert ra.done and rb.done
    assert len(counts["bob"]) == len(rb.stats) >= 1
    assert counts["alice"] == counts["bob"]


@pytest.mark.parametrize("transport", ["inproc", "socket"])
@pytest.mark.parametrize("where", ["before-more-data", "last"])
def test_an_empty_bob_segment_ends_the_session_only_when_it_is_the_last(transport, where):
    # An empty batch reads as end of data on Alice's side.  Bob's segment
    # 1 is empty: with data after it, both sides abort EMPTY_SEGMENT by
    # its index; as the source's last, the session ends as it would
    # without it.
    ch = _channel(duration=3.0)
    cfg = SessionConfig(block_min_key_bits=3000, seed=ch.rng_seed, timeout=30.0)
    empty = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8))

    def bob(segments):
        if where == "last":
            yield from segments
            yield empty
        else:
            yield next(segments)
            yield empty
            yield from segments

    if transport == "socket":
        t_alice, t_bob = (SocketTransport(s, timeout=cfg.timeout) for s in socket.socketpair())
    else:
        t_alice, t_bob = inproc_pair(timeout=cfg.timeout)
    src = JointSegmentSource(ch, segment_seconds=cfg.segment_seconds)
    ra, rb = run_transport_pair(t_alice, t_bob, src.segments("alice"),
                                bob(src.segments("bob")), cfg)
    if where == "last":
        assert ra.done and rb.done
        ref_a, ref_b = _run(ch)
        assert [s.encode() for s in rb.stats] == [s.encode() for s in ref_b.stats]
        assert rb.key_bytes() == ref_b.key_bytes() == ra.key_bytes() != b""
    else:
        for side in (ra, rb):
            assert side.phase == Phase.ABORTED
            assert side.abort_reason == AbortReason.EMPTY_SEGMENT
            assert side.abort_message == "segment 1 has no tags and is not the last"


def test_socket_session_matches_inproc():
    ch = _channel(duration=1.5)
    cfg = SessionConfig(block_min_key_bits=2000, seed=ch.rng_seed)
    src = JointSegmentSource(ch)
    ra_q, rb_q = run_inproc_pair(src.segments("alice"), src.segments("bob"), cfg)

    s1, s2 = socket.socketpair()
    src2 = JointSegmentSource(ch)
    ra_s, rb_s = run_transport_pair(
        SocketTransport(s1, timeout=cfg.timeout), SocketTransport(s2, timeout=cfg.timeout),
        src2.segments("alice"), src2.segments("bob"), cfg)
    assert ra_s.done and rb_s.done
    assert ra_s.key_bytes() == ra_q.key_bytes()
    assert [s.encode() for s in rb_s.stats] == [s.encode() for s in rb_q.stats]


def test_run_session_validates_role():
    with pytest.raises(ValueError):
        run_session("carol", None, iter([]))


def test_session_config_validation():
    for kw in (dict(block_min_key_bits=0), dict(finite_deduction=-1), dict(rate_multiplier=0.0),
               dict(rate_multiplier=1.2), dict(seed=-1), dict(segment_seconds=0.0),
               dict(timeout=0.0)):
        with pytest.raises(ValueError):
            SessionConfig(**kw)


def _mutated_payload(data, payload) -> bytes:
    payload = bytes(payload)  # a received frame's payload is a view
    kind = data.draw(st.sampled_from(["keep", "truncate", "extend", "flip", "random"]))
    if kind == "truncate":
        return payload[: data.draw(st.integers(0, max(0, len(payload) - 1)))]
    if kind == "extend":
        return payload + data.draw(st.binary(min_size=1, max_size=16))
    if kind == "flip" and payload:
        i = data.draw(st.integers(0, len(payload) - 1))
        return payload[:i] + bytes([payload[i] ^ data.draw(st.integers(1, 255))]) + payload[i + 1:]
    if kind == "random":
        return data.draw(st.binary(max_size=64))
    return payload


def test_bob_replays_alice_transcript(transcripts):
    result, sent = _replay(BobSession, *transcripts[BobSession])
    assert result.done and len(result.stats) >= 1
    assert sent == transcripts[AliceSession][0]


def test_bob_refuses_a_tag_in_place_of_the_confirm_status(transcripts):
    frames, segments, cfg = transcripts[BobSession]
    at = [k for k, f in enumerate(frames) if f.type == FrameType.VERIFY_TAG][1]
    frames = frames[:at] + [Frame(FrameType.VERIFY_TAG, b"\x01" * 8)] + frames[at + 1:]
    result, sent = _replay(BobSession, frames, segments, cfg)
    assert result.abort_reason == AbortReason.PROTOCOL_VIOLATION
    assert result.abort_message == "expected a tag status"
    assert sent[-1].type == FrameType.ABORT


@pytest.mark.parametrize("cls", [AliceSession, BobSession], ids=["alice", "bob"])
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_endpoint_never_raises(transcripts, cls, data):
    frames, segments, cfg = transcripts[cls]
    encoded = [encode_frame(f.type, f.payload) for f in frames]
    # each frame type is as likely as any other, however often it occurs
    ftype = data.draw(st.sampled_from(sorted({f.type for f in frames})))
    same_type = [k for k, f in enumerate(frames) if f.type == ftype]
    i = data.draw(st.sampled_from(same_type))
    kind = data.draw(st.sampled_from(["mutate", "drop", "repeat", "swap", "cut", "garbage"]))
    if kind == "mutate":
        new_type = data.draw(st.one_of(st.just(ftype), st.sampled_from(list(FrameType))))
        encoded[i] = encode_frame(new_type, _mutated_payload(data, frames[i].payload))
    elif kind == "drop":
        del encoded[i]
    elif kind == "repeat":
        encoded.insert(i, encoded[i])
    elif kind == "swap":  # a well-formed frame of the same type from elsewhere
        encoded[i] = encoded[data.draw(st.sampled_from(same_type))]
    elif kind == "cut":
        del encoded[i:]
    else:  # bytes that need not decode as a frame at all
        encoded[i] = data.draw(st.binary(max_size=32))

    result, sent = _replay(cls, encoded, segments, cfg)

    assert result.phase in (Phase.DONE, Phase.ABORTED)
    aborts = [f for f in sent if f.type == FrameType.ABORT]
    if aborts:
        assert sent[-1:] == aborts[:1] and result.phase == Phase.ABORTED
        frame_message(aborts[0])
