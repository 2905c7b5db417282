"""Outside-in span recorder for one two-party session.

The program itself carries no tracing.  ``Tracer.install`` replaces the
names ``bellqkd.protocol`` binds (and ``AliceReconciler.handle``) with
timing wrappers for the life of a ``with`` block; ``trace_transport`` and
``trace_segments`` wrap one side's transport and segment iterator.  Each
span records its name, side, block index, start and end, and its parent:
the enclosing wrapped call on the same thread, or the side's session span.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

# Module-level functions bellqkd.protocol imports, by layer.
PROTOCOL_NAMES = {
    "timetag": ("find_delay", "match_coincidences", "count_accidentals"),
    "sifting": ("classify", "count_coincidences", "chsh_value"),
    "cascade": ("reconcile_bob",),
    "privamp": ("toeplitz_hash", "generate_toeplitz_seed"),
    "protocol": ("encode_timetag_batch", "decode_timetag_batch"),
}
FRAME_HEADER_BYTES = 10  # magic, version, type, u32 length


@dataclass
class Span:
    id: int
    parent: Optional[int]
    side: str
    name: str
    block: int
    start: float
    end: float = 0.0
    frame: Optional[str] = None  # frame type, transport spans only
    nbytes: int = 0              # encoded frame size, transport spans only

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.blocks: Dict[str, int] = {"alice": 0, "bob": 0}
        # parity bits Alice served, from AliceReconciler.handle's replies
        self.parity_bits = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        side = getattr(self._local, "side", "main")
        span = Span(next(self._ids), stack[-1].id if stack else None, side, name,
                    self.blocks.get(side, 0), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def install(self):
        """Wrap the layer calls bellqkd.protocol makes; restore on exit."""
        from bellqkd import protocol
        from bellqkd.cascade import ParityResponseMsg

        saved = {}
        for layer, names in PROTOCOL_NAMES.items():
            for name in names:
                saved[name] = getattr(protocol, name)
                setattr(protocol, name, self.wrap(saved[name], f"{layer}.{name}"))
        saved["run_session"] = protocol.run_session
        handle = protocol.AliceReconciler.handle
        tracer = self

        def run_session(role, *args, **kwargs):
            tracer._local.side = role
            with tracer.span("session"):
                return saved["run_session"](role, *args, **kwargs)

        def traced_handle(reconciler, msg):
            with tracer.span("cascade.handle"):
                reply = handle(reconciler, msg)
            if isinstance(reply, ParityResponseMsg):
                tracer.parity_bits += reply.count
            return reply

        protocol.run_session = run_session
        protocol.AliceReconciler.handle = traced_handle
        try:
            yield self
        finally:
            protocol.AliceReconciler.handle = handle
            for name, fn in saved.items():
                setattr(protocol, name, fn)

    def trace_transport(self, transport) -> None:
        """Wrap one side's send_frame and recv_frame on the instance."""
        from bellqkd.protocol import FrameType

        send, recv = transport.send_frame, transport.recv_frame

        def send_frame(frame):
            with self.span("protocol.send") as sp:
                sp.frame = FrameType(frame.type).name
                sp.nbytes = FRAME_HEADER_BYTES + len(frame.payload)
                send(frame)
            # Alice closes a block by echoing Bob's BLOCK_STATS.
            if frame.type == FrameType.BLOCK_STATS and sp.side == "alice":
                self.blocks["alice"] += 1

        def recv_frame():
            with self.span("protocol.recv_wait") as sp:
                frame = recv()
                sp.frame = FrameType(frame.type).name
                sp.nbytes = FRAME_HEADER_BYTES + len(frame.payload)
            # Bob closes a block when the echo arrives.
            if frame.type == FrameType.BLOCK_STATS and sp.side == "bob":
                self.blocks["bob"] += 1
            return frame

        transport.send_frame = send_frame
        transport.recv_frame = recv_frame

    def trace_segments(self, segments):
        """Time each pull from a side's segment iterator."""
        it = iter(segments)
        while True:
            with self.span("physics.segments"):
                seg = next(it, None)
            if seg is None:
                return
            yield seg

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        own = {sp.id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None and sp.parent in own:
                own[sp.parent] -= sp.duration
        return own

    def records(self) -> List[dict]:
        return [asdict(sp) for sp in self.spans]
