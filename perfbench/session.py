"""One benchmark session (or the isolated layer suite) in a fresh interpreter.

    python3 perfbench/session.py {setup,session,traced,layers} --seed N
        [--workload NAME] [--spawn-time T] [--spans FILE]

``setup`` builds the configs, source and transports and stops there;
``session`` also runs the two-party session and checks its output;
``traced`` does the same with spans recorded (written to ``--spans``);
``layers`` times the isolated per-layer calls.  The last line of stdout
is one JSON object.  ``--spawn-time`` is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` covers interpreter
start-up and imports (CLOCK_MONOTONIC is system-wide on Linux).

bellqkd is imported from ``src/`` of the checkout this file sits in, and
nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_bellqkd():
    sys.path.insert(0, str(SRC))
    import bellqkd

    if Path(bellqkd.__file__).resolve().parent != SRC / "bellqkd":
        raise ImportError(f"bellqkd imported from {bellqkd.__file__}, not from {SRC}")


def build(wl: Workload, seed: int, sim_seconds: float, recorders):
    """(session config, source, (alice transport, bob transport)), wired as
    ``bellqkd run`` wires them, with a frame recorder on each transport."""
    from bellqkd import cli
    from bellqkd.physics import AttackConfig, ChannelConfig, JointSegmentSource

    exp = cli.ExperimentConfig(
        channel=ChannelConfig(duration=sim_seconds, rng_seed=seed),
        attack=AttackConfig(intercept_fraction=wl.intercept_fraction, attack_basis=0.0),
        block_min_key_bits=wl.block_min_key_bits,
        transport=wl.transport,
    )
    cfg = cli._session_config(exp)
    source = JointSegmentSource(exp.channel, exp.attack, segment_seconds=exp.segment_seconds)
    transports = cli._make_transports(exp.transport, cfg.timeout)
    for transport, recorder in zip(transports, recorders):
        transport.recorder = recorder
    return cfg, source, transports


def check(wl: Workload, alice, bob, a2b: bytes, b2a: bytes) -> tuple:
    """(failures, transcript audit) of one finished session; no failures = passed."""
    from bellqkd.protocol import audit_transcript

    failures = []
    if not (alice.done and bob.done):
        failures.append(f"sessions ended {alice.phase.name}/{bob.phase.name} "
                        f"({alice.abort_reason}, {bob.abort_reason})")
    if alice.key_bytes() != bob.key_bytes():
        failures.append("final keys differ")
    if [s.encode() for s in alice.stats] != [s.encode() for s in bob.stats]:
        failures.append("BlockStats differ between the sides")
    if alice.block_sizes != bob.block_sizes:
        failures.append("reconciled block sizes differ between the sides")
    if not bob.stats:
        failures.append("no block completed")
    audit = audit_transcript(b2a, a2b)
    reported = sum(s.leak_ec for s in bob.stats)
    if not audit.counted_disclosure == audit.leak_ec_total == reported:
        failures.append(f"disclosure {audit.counted_disclosure} != leak_ec "
                        f"{audit.leak_ec_total} (reported {reported})")
    if audit.blocks != len(bob.stats):
        failures.append(f"transcript has {audit.blocks} BLOCK_STATS, sessions {len(bob.stats)}")
    final_bits = sum(s.final_bits for s in bob.stats)
    if final_bits != len(bob.key_bits):
        failures.append(f"key has {len(bob.key_bits)} bits, BlockStats say {final_bits}")
    if wl.expect_attack:
        bad = [s.block_index for s in bob.stats if not (abs(s.s_value) > 2.0 and s.final_bits == 0)]
        if bad:
            failures.append(f"attack blocks without |S| > 2 and 0 final bits: {bad}")
    elif final_bits == 0:
        failures.append("no final key bits without an attack")
    return failures, audit


def measure_session(wl: Workload, seed: int, sim_seconds: float, spawn_time: float,
                    mode: str = "session", spans_path=None) -> dict:
    from bellqkd.protocol import FrameType, run_transport_pair

    tracer = Tracer() if mode == "traced" else None
    a2b, b2a, first_block = [], [], []

    def record_bob(data: bytes) -> None:
        # byte 5 of a frame is its type, after the magic and the version
        if not first_block and data[5] == FrameType.BLOCK_STATS:
            first_block.append(time.monotonic())
        b2a.append(data)

    cfg, source, (t_alice, t_bob) = build(wl, seed, sim_seconds, (a2b.append, record_bob))
    segments = source.segments("alice"), source.segments("bob")
    result = {"workload": wl.name, "seed": seed, "sim_s": sim_seconds}
    if mode == "setup":
        result["setup_s"] = time.monotonic() - spawn_time
        t_alice.close()
        t_bob.close()
        return result
    if tracer is not None:
        tracer.trace_transport(t_alice)
        tracer.trace_transport(t_bob)
        segments = tuple(tracer.trace_segments(s) for s in segments)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    result["setup_s"] = t0 - spawn_time
    if tracer is not None:
        with tracer.install():
            alice, bob = run_transport_pair(t_alice, t_bob, *segments, cfg)
    else:
        alice, bob = run_transport_pair(t_alice, t_bob, *segments, cfg)
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    a2b, b2a = b"".join(a2b), b"".join(b2a)
    failures, audit = check(wl, alice, bob, a2b, b2a)
    result.update(
        wall_s=t1 - t0,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        first_block_s=(first_block[0] - t0) if first_block else None,
        blocks=len(bob.stats),
        final_bits=len(bob.key_bits),
        parity_bits=audit.parity_bits,
        sha256={"a2b": hashlib.sha256(a2b).hexdigest(),
                "b2a": hashlib.sha256(b2a).hexdigest(),
                "key": hashlib.sha256(bob.key_bytes()).hexdigest()},
    )
    if tracer is not None:
        if tracer.parity_bits != audit.parity_bits:
            failures.append(f"traced parity bits {tracer.parity_bits} != "
                            f"transcript parity bits {audit.parity_bits}")
        result["layers"] = traced_metrics(tracer, sim_seconds, max(1, len(bob.stats)))
        if spans_path:
            with open(spans_path, "w") as fh:
                for rec in tracer.records():
                    fh.write(json.dumps(rec) + "\n")
    result["failures"] = failures
    return result


# (metric, side, span names summed); seconds per simulated second.
SPAN_METRICS = [
    ("alice.physics.segments_s", "alice", ("physics.segments",)),
    ("bob.physics.segments_s", "bob", ("physics.segments",)),
    ("alice.timetag.find_delay_s", "alice", ("timetag.find_delay",)),
    ("alice.timetag.match_s", "alice", ("timetag.match_coincidences",)),
    ("alice.timetag.accidentals_s", "alice", ("timetag.count_accidentals",)),
    ("alice.sifting_s", "alice", ("sifting.classify", "sifting.count_coincidences",
                                  "sifting.chsh_value")),
    ("bob.sifting_s", "bob", ("sifting.classify", "sifting.count_coincidences",
                              "sifting.chsh_value")),
    ("bob.cascade.reconcile_s", "bob", ("cascade.reconcile_bob",)),
    ("alice.cascade.handle_s", "alice", ("cascade.handle",)),
    ("alice.privamp.toeplitz_s", "alice", ("privamp.toeplitz_hash",)),
    ("bob.privamp.toeplitz_s", "bob", ("privamp.toeplitz_hash",)),
    ("bob.privamp.seed_s", "bob", ("privamp.generate_toeplitz_seed",)),
    ("bob.protocol.encode_s", "bob", ("protocol.encode_timetag_batch",)),
    ("alice.protocol.decode_s", "alice", ("protocol.decode_timetag_batch",)),
    ("alice.protocol.recv_wait_s", "alice", ("protocol.recv_wait",)),
    ("bob.protocol.recv_wait_s", "bob", ("protocol.recv_wait",)),
    ("alice.protocol.send_s", "alice", ("protocol.send",)),
    ("bob.protocol.send_s", "bob", ("protocol.send",)),
]
# Self time (span minus its child spans): Bob's Cascade without the
# round trips it waits on, and each session's own protocol logic.
SELF_METRICS = [
    ("bob.cascade.reconcile_self_s", "bob", "cascade.reconcile_bob"),
    ("alice.protocol.self_s", "alice", "session"),
    ("bob.protocol.self_s", "bob", "session"),
]


def traced_metrics(tracer: Tracer, sim_seconds: float, blocks: int) -> dict:
    total, own = {}, {}
    self_times = tracer.self_times()
    for sp in tracer.spans:
        key = (sp.side, sp.name)
        total[key] = total.get(key, 0.0) + sp.duration
        own[key] = own.get(key, 0.0) + self_times[sp.id]
    out = {name: sum(total.get((side, n), 0.0) for n in names) / sim_seconds
           for name, side, names in SPAN_METRICS}
    out.update({name: own.get((side, n), 0.0) / sim_seconds for name, side, n in SELF_METRICS})
    sends = [sp for sp in tracer.spans if sp.name == "protocol.send"]
    for direction, side in (("a2b", "alice"), ("b2a", "bob")):
        mine = [sp for sp in sends if sp.side == side]
        out[f"protocol.frames_{direction}"] = len(mine) / blocks
        out[f"protocol.bytes_{direction}"] = sum(sp.nbytes for sp in mine) / blocks
    out["protocol.parity_requests"] = sum(sp.frame == "PARITY_REQUEST" for sp in sends) / blocks
    out["cascade.parity_bits"] = tracer.parity_bits / blocks
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "session", "traced", "layers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--spawn-time", type=float)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    spawn_time = args.spawn_time if args.spawn_time is not None else time.monotonic()
    import_bellqkd()
    if args.mode == "layers":
        import layers

        result = {"layers": layers.measure(args.seed), "failures": []}
    else:
        if args.workload is None:
            parser.error(f"{args.mode} needs --workload")
        wl = WORKLOADS[args.workload]
        result = measure_session(wl, args.seed, wl.sim_seconds, spawn_time, args.mode,
                                 args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
