"""Experiment runner.

``run`` simulates the pair source and detectors, drives both protocol
endpoints concurrently, and writes one CSV row per key block plus the
two final key files.  ``replay`` feeds recorded time-tag files through
the identical pipeline from coincidence matching onward.  ``keyrate``
prints a standalone security estimate.

``run`` and ``replay`` differ only in where the segments come from: one
parent parser holds their shared flags, ``_config`` folds the file and
the flags into the ``ExperimentConfig`` that carries the output paths,
and ``_execute`` runs the session and writes its outputs.

Config files are flat ``key = value`` text with ``#`` comments; unknown
keys are rejected.  All keys default to the paper-like operating point.

Exit codes: 0 success, 2 insecure regime, 3 verification failure,
4 transport/protocol failure (an empty segment mid-run included),
5 config or input error.  A side that aborted prints
``alice|bob: <REASON>: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import socket
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .cascade import TAG_BITS
from .physics import (AttackConfig, ChannelConfig, JointSegmentSource, RangeError,
                      _time_origin_ticks, boundary_slack_s, check_run_bounds, segment_count)
from .privamp import InsecureRegimeError, SecurityEstimate, binary_entropy, secret_fraction
from .protocol import (
    AbortReason,
    BlockStats,
    SessionConfig,
    SessionResult,
    SocketTransport,
    inproc_pair,
    run_transport_pair,
)
from .sifting import ALICE_SETTING, BOB_SETTING, NO_SETTING
from .timetag import (MAX_TICK, TagFileError, pack_tag_records, read_tag_file, seconds_to_ticks,
                      write_tag_file)

EXIT_OK = 0
EXIT_INSECURE = 2
EXIT_VERIFICATION = 3
EXIT_TRANSPORT = 4
EXIT_CONFIG = 5

CSV_COLUMNS = [
    "block_index", "t_start_s", "coincidences_per_s", "accidentals_per_s",
    "qber", "s_value", "s_stderr", "leak_ec_bits", "i_eve", "final_bits",
    "final_rate_bps",
]

# rough reconciliation overhead assumed by the standalone estimator
KEYRATE_EC_EFFICIENCY = 1.2

_CHUNK_RECORDS = 1 << 17  # tag-file records per replay read


class ParseError(ValueError):
    """Config text could not be parsed; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelConfig
    attack: AttackConfig
    block_min_key_bits: int = SessionConfig.block_min_key_bits
    segment_seconds: float = SessionConfig.segment_seconds
    finite_deduction: int = SessionConfig.finite_deduction
    rate_multiplier: float = SessionConfig.rate_multiplier
    transport: str = "inproc"
    csv: Optional[str] = None
    keys: Optional[str] = None


# Numeric key -> the config class that declares it.  The class holds
# its default, whose type is the key's type, and its range check.
_NUMBER_KEYS = {
    **{f.name: ChannelConfig for f in fields(ChannelConfig)},
    **{f.name: AttackConfig for f in fields(AttackConfig)},
    **{key: SessionConfig for key in (
        "block_min_key_bits", "segment_seconds", "finite_deduction", "rate_multiplier")},
}
_TEXT_KEYS = ("transport", "csv", "keys")
_ALL_KEYS = set(_NUMBER_KEYS) | set(_TEXT_KEYS)


def _cast(key: str, value: str, lineno: int, kind):
    try:
        return kind(value)
    except ValueError:
        raise ParseError(lineno, f"bad {kind.__name__} for {key}: '{value}'")


def _probe(cls, key: str, value) -> None:
    """Range-check one field by building ``cls`` with it alone."""
    try:
        cls(**{key: value})
    except ValueError as exc:
        raise RangeError(key, str(exc))


def _socket_address(value: str) -> Optional[Tuple[str, int]]:
    """None for ``inproc``; (host, port) for ``socket [HOST:PORT]``, 127.0.0.1:0 without one."""
    parts = value.split()
    if not parts or parts[0] not in ("inproc", "socket"):
        raise RangeError("transport", f"transport must be 'inproc' or 'socket [HOST:PORT]', got '{value}'")
    if parts[0] == "inproc":
        if len(parts) != 1:
            raise RangeError("transport", "inproc takes no address")
        return None
    if len(parts) > 2:
        raise RangeError("transport", "socket takes at most one HOST:PORT address")
    if len(parts) == 1:
        return "127.0.0.1", 0
    host, sep, port = parts[1].rpartition(":")
    if not sep or not host:
        raise RangeError("transport", f"bad socket address '{parts[1]}'")
    try:
        port_num = int(port)
    except ValueError:
        raise RangeError("transport", f"bad port in '{parts[1]}'")
    if not 0 <= port_num <= 65535:
        raise RangeError("transport", f"port {port_num} out of range")
    return host, port_num


def _validate_transport(value: str) -> str:
    _socket_address(value)
    return " ".join(value.split())


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value config text; all keys optional."""
    entries: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if " #" in value:
            value = value.split(" #", 1)[0].rstrip()
        if not key:
            raise ParseError(lineno, "missing key before '='")
        if not value:
            raise ParseError(lineno, f"missing value for '{key}'")
        if key not in _ALL_KEYS:
            raise ParseError(lineno, f"unknown key '{key}'")
        if key in entries:
            raise ParseError(lineno, f"duplicate key '{key}'")
        entries[key] = (value, lineno)

    kwargs: dict = {ChannelConfig: {}, AttackConfig: {}, SessionConfig: {}}
    options: dict = {}
    for key, (value, lineno) in entries.items():
        if key in _TEXT_KEYS:
            options[key] = value
        else:
            cls = _NUMBER_KEYS[key]
            kwargs[cls][key] = _cast(key, value, lineno, type(getattr(cls, key)))
    # Probe each number on its own so range failures name the field.
    for cls, values in kwargs.items():
        for key, value in values.items():
            _probe(cls, key, value)
    if "transport" in options:
        options["transport"] = _validate_transport(options["transport"])

    return ExperimentConfig(channel=ChannelConfig(**kwargs[ChannelConfig]),
                            attack=AttackConfig(**kwargs[AttackConfig]),
                            **kwargs[SessionConfig], **options)


def _session_config(cfg: ExperimentConfig) -> SessionConfig:
    return SessionConfig(
        block_min_key_bits=cfg.block_min_key_bits,
        finite_deduction=cfg.finite_deduction,
        rate_multiplier=cfg.rate_multiplier,
        seed=cfg.channel.rng_seed,
        segment_seconds=cfg.segment_seconds,
    )


def _make_transports(transport: str, timeout: float):
    address = _socket_address(transport)
    if address is None:
        return inproc_pair(timeout=timeout)
    listener = socket.create_server(address)
    try:
        bound_port = listener.getsockname()[1]
        listener.settimeout(10.0)
        client = socket.create_connection((address[0], bound_port), timeout=10.0)
        server, _ = listener.accept()
    finally:
        listener.close()
    for s in (server, client):
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketTransport(server, timeout=timeout), SocketTransport(client, timeout=timeout)


def _stats_row(stats: BlockStats) -> list:
    dt = stats.duration
    per_s = (1.0 / dt) if dt > 0 else 0.0
    return [
        stats.block_index,
        stats.t_start,
        stats.coincidence_count * per_s,
        stats.accidental_count * per_s,
        stats.qber,
        stats.s_value,
        stats.s_stderr,
        stats.leak_ec,
        stats.i_eve,
        stats.final_bits,
        stats.final_bits * per_s,
    ]


def format_csv(stats: List[BlockStats]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in stats:
        writer.writerow(_stats_row(s))
    return out.getvalue()


def _session_exit_code(alice: SessionResult, bob: SessionResult) -> int:
    if alice.done and bob.done:
        return EXIT_OK
    reasons = {r.abort_reason for r in (alice, bob) if r.abort_reason is not None}
    if AbortReason.INSECURE_REGIME in reasons:
        return EXIT_INSECURE
    if AbortReason.VERIFICATION_FAILED in reasons:
        return EXIT_VERIFICATION
    return EXIT_TRANSPORT


def _execute(cfg: ExperimentConfig, alice_segments, bob_segments) -> int:
    session_cfg = _session_config(cfg)
    t_alice, t_bob = _make_transports(cfg.transport, session_cfg.timeout)
    alice, bob = run_transport_pair(t_alice, t_bob, alice_segments, bob_segments, session_cfg)
    code = _session_exit_code(alice, bob)
    for side in (alice, bob):
        if side.abort_reason is not None:
            print(f"{side.role}: {side.abort_reason.name}: {side.abort_message}", file=sys.stderr)

    if code == EXIT_OK:
        if [s.encode() for s in alice.stats] != [s.encode() for s in bob.stats]:
            print("error: endpoints disagree on block statistics", file=sys.stderr)
            code = EXIT_TRANSPORT
        elif alice.key_bytes() != bob.key_bytes():
            print("error: final keys differ", file=sys.stderr)
            code = EXIT_TRANSPORT

    text = format_csv(bob.stats)
    if cfg.csv:
        Path(cfg.csv).write_text(text)
    else:
        sys.stdout.write(text)

    if cfg.keys:
        directory = Path(cfg.keys)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "alice.key").write_bytes(alice.key_bytes())
        (directory / "bob.key").write_bytes(bob.key_bytes())

    if cfg.csv:
        total = sum(s.final_bits for s in bob.stats)
        print(f"{len(bob.stats)} blocks, {total} final key bits, exit {code}")
    return code


def _append_records(segments, path: Path):
    for ticks, dets in segments:
        with open(path, "ab") as f:
            f.write(pack_tag_records(ticks, dets))
        yield ticks, dets


def run_experiment(cfg: ExperimentConfig, dump_tags_dir: Optional[str] = None) -> int:
    """Simulate, run both endpoints, write outputs; returns the exit code."""
    source = JointSegmentSource(cfg.channel, cfg.attack, segment_seconds=cfg.segment_seconds)
    segments = {side: source.segments(side) for side in ("alice", "bob")}
    if dump_tags_dir:
        # Each tag file gets its header now and a segment's records as it passes.
        Path(dump_tags_dir).mkdir(parents=True, exist_ok=True)
        for side in segments:
            path = Path(dump_tags_dir) / f"{side}.tags"
            write_tag_file(path, side, np.empty(0, np.uint64), np.empty(0, np.uint8))
            segments[side] = _append_records(segments[side], path)
    return _execute(cfg, segments["alice"], segments["bob"])


def _file_segments(chunks: Iterator, cfg: ExperimentConfig) -> Iterator:
    """Re-cut a recorded stream on the boundaries a live run would use.

    Anchored to the file's own first tag, so a recorded run replays into
    byte-identical batches while a stream recorded at a far-away time
    still produces data-bearing segments (whose mismatch then surfaces as
    a missing correlation peak, not as silent emptiness).  The last
    segment ends at the final boundary plus the boundary slack, where a
    live run's last tags end; a longer recording's rest is never read.  A
    chunk is read only while the carried tags end before the next cut.
    """
    channel, segment_seconds = cfg.channel, cfg.segment_seconds
    n_segments = segment_count(channel.duration, segment_seconds)
    ticks, dets = next(chunks, (None, None))
    if n_segments == 0 or ticks is None:
        return
    origin = _time_origin_ticks(channel)
    approx_seg = max(1, seconds_to_ticks(segment_seconds))
    k0 = max(0, (int(ticks[0]) - origin) // approx_seg)
    for k in range(k0, k0 + n_segments):
        cut_s = (k + 1) * segment_seconds
        if k == k0 + n_segments - 1:
            cut_s += boundary_slack_s(channel)
        boundary = np.uint64(origin + seconds_to_ticks(cut_s))
        while (not len(ticks) or ticks[-1] < boundary) and (chunk := next(chunks, None)):
            ticks, dets = np.concatenate([ticks, chunk[0]]), np.concatenate([dets, chunk[1]])
        cut = int(np.searchsorted(ticks, boundary, side="left"))
        yield ticks[:cut], dets[:cut]
        ticks, dets = ticks[cut:], dets[cut:]


def _read_chunks(path: str, side: str) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Read one side's tag file in chunks, refusing records no station
    can produce and ticks that run backwards."""
    start, last = 0, np.uint64(0)
    while True:
        recorded, ticks, dets = read_tag_file(path, start, _CHUNK_RECORDS)
        if recorded != side:
            raise TagFileError(f"{path} records side '{recorded}', expected {side}")
        if len(ticks) == 0:
            return
        bad = (ALICE_SETTING if side == "alice" else BOB_SETTING)[dets] == NO_SETTING
        if bad.any():
            i = int(np.argmax(bad))
            raise TagFileError(f"{path}: record {start + i}: detector id {dets[i]} "
                               f"is not one of {side}'s")
        before = np.append(last, ticks[:-1])
        bad = (ticks >= np.uint64(MAX_TICK)) | (ticks < before)
        if bad.any():
            i = int(np.argmax(bad))
            why = ("not below 2**62" if ticks[i] >= MAX_TICK
                   else f"below the one before, {before[i]}")
            raise TagFileError(f"{path}: record {start + i}: tick {ticks[i]} is {why}")
        yield ticks, dets
        start, last = start + len(ticks), ticks[-1]


def replay(alice_path: str, bob_path: str, cfg: ExperimentConfig) -> int:
    """Run the pipeline from matching onward on recorded tag files."""
    check_run_bounds(cfg.channel, cfg.segment_seconds)
    for side, path in (("alice", alice_path), ("bob", bob_path)):
        for _ in _read_chunks(path, side):  # refuse bad input before any session starts
            pass
    return _execute(cfg, _file_segments(_read_chunks(alice_path, "alice"), cfg),
                    _file_segments(_read_chunks(bob_path, "bob"), cfg))


def keyrate_estimate(s_value: float, qber: float, n: int) -> SecurityEstimate:
    """Security estimate for a hypothetical block.

    The reconciliation leak is modeled as 1.2 n h(qber) plus one
    ``TAG_BITS`` verification tag, matching the interactive reconciler's
    target.
    """
    if not 1 <= n < 2**53:  # float64 holds every integer below 2**53 exactly
        raise RangeError("n", "n must be in [1, 2**53)")
    if not 0.0 <= qber <= 0.5:
        raise RangeError("qber", "qber must be in [0, 0.5]")
    leak = int(math.ceil(KEYRATE_EC_EFFICIENCY * n * float(binary_entropy(qber))))
    leak += TAG_BITS
    try:
        return secret_fraction(n, leak, s_value)
    except ValueError as exc:
        raise RangeError("s", str(exc))


def _config(args) -> ExperimentConfig:
    """The config file's settings, with the command line's overrides."""
    cfg = parse_config(Path(args.config).read_text())
    seed = getattr(args, "seed", None)  # replay has no --seed
    if seed is not None:
        _probe(ChannelConfig, "rng_seed", seed)
        cfg = replace(cfg, channel=replace(cfg.channel, rng_seed=seed))
    if args.transport:
        cfg = replace(cfg, transport=_validate_transport(" ".join(args.transport)))
    return replace(cfg, csv=args.csv or cfg.csv, keys=args.keys or cfg.keys)


def _cmd_run(args) -> int:
    return run_experiment(_config(args), dump_tags_dir=args.dump_tags)


def _cmd_replay(args) -> int:
    return replay(args.alice, args.bob, _config(args))


def _cmd_keyrate(args) -> int:
    try:
        est = keyrate_estimate(args.s, args.qber, args.n)
    except InsecureRegimeError as exc:
        print(f"insecure: {exc}", file=sys.stderr)
        return EXIT_INSECURE
    print(f"n               {est.n}")
    print(f"s_value         {est.s_value}")
    print(f"i_eve           {est.i_eve:.6f}")
    print(f"leak_ec_bits    {est.leak_ec}")
    print(f"finite_deduction {est.finite_deduction}")
    print(f"rate_multiplier {est.rate_multiplier}")
    print(f"final_length    {est.final_length}")
    print(f"secret_fraction {est.secret_fraction_value:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellqkd",
        description="Entanglement-based key distribution simulator and protocol runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to key = value config file")
    shared.add_argument("--transport", nargs="+", metavar="KIND",
                        help="'inproc' or 'socket [HOST:PORT]' (overrides config)")
    shared.add_argument("--csv", help="write per-block CSV here instead of stdout")
    shared.add_argument("--keys", help="directory for alice.key / bob.key")

    p_run = sub.add_parser("run", parents=[shared],
                           help="simulate and run a full key-distribution session")
    p_run.add_argument("--seed", type=int, help="override the config rng_seed")
    p_run.add_argument("--dump-tags", dest="dump_tags", metavar="DIR",
                       help="also record both raw tag streams")

    p_rep = sub.add_parser("replay", parents=[shared],
                           help="re-run matching onward from recorded tag files")
    p_rep.add_argument("--alice", required=True, help="Alice-side tag file")
    p_rep.add_argument("--bob", required=True, help="Bob-side tag file")

    p_key = sub.add_parser("keyrate", help="print a security estimate for given S, QBER, n")
    p_key.add_argument("--s", type=float, required=True, help="CHSH value")
    p_key.add_argument("--qber", type=float, required=True)
    p_key.add_argument("--n", type=int, required=True, help="reconciled block length")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "replay": _cmd_replay, "keyrate": _cmd_keyrate}
    try:
        return handlers[args.command](args)
    except (ParseError, RangeError, TagFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
