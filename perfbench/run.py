"""bellqkd session benchmark.

    python3 perfbench/run.py --workload {paper,bigblock,eve-socket,all} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout.  For ``--seconds`` it runs complete
two-party sessions of the workload back to back, each in a fresh
interpreter (``session.py``), checks every session's output, and prints
the end-to-end metrics as medians over the sessions that passed.  Session
i of a run uses seed ``N + i * SEED_STRIDE``.  With ``--trace 1`` it then
runs one traced session at seed N, which must reproduce the untraced
transcript byte for byte, and the isolated layer suite, and prints the
per-layer metrics instead.  The last line of stdout is one JSON object; a full
record (host, every session, transcript hashes) goes to ``perfbench/out/``.
``--workload all`` runs every workload in turn, ``--seconds`` each, and
ends with one JSON object whose metric names are prefixed by workload;
the isolated layer suite does not depend on the workload, so it runs once
and its metrics are not prefixed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
# Set-up-only interpreters per run, at least, besides each session's own
# set-up.  One runs before every session and the rest after the last, so
# set-up is sampled across the run: interpreter start-up and imports speed
# up and slow down with the host over tens of seconds.
SETUP_PROBES = 6
# Session i of a run simulates seed + i * SEED_STRIDE, so the first one is
# the workload at --seed itself and the median spans several inputs.
SEED_STRIDE = 1_000_000
# Every worker of a workload is killed this long after the workload
# started, so a single-workload run ends within 180 s; ``--workload all``
# takes up to this long for each workload.
RUN_LIMIT_S = 170

# name: (unit, better).  Gated by BENCHMARK.json.
END_TO_END = {
    "wall_per_sim_s": ("s/s", "lower"),
    "cpu_s_per_sim_s": ("s/s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
# Printed and recorded, not gated.  The key rates are 0 by design on
# eve-socket and the fail ratio on every passing run, so no relative bound
# applies; time_to_first_block_s is one short interval per session and
# spread by more than the largest bound across seeds on a shared host.
REPORTED = {
    "key_bits_per_wall_s": "bit/s",
    "key_bits_per_sim_s": "bit/s",
    "time_to_first_block_s": "s",
    "session_fail_ratio": "ratio",
}
# Isolated calls on fixed seeded inputs (layers.py), in ms or as counts.
ISOLATED = {
    "physics.segment_ms": "ms",
    "physics.alice_tags_per_sim_s": "1/s",
    "physics.bob_tags_per_sim_s": "1/s",
    "timetag.find_delay_ms": "ms",
    "timetag.match_ms": "ms",
    "timetag.accidentals_ms": "ms",
    "timetag.coincidences": "count",
    "sifting.sift_chsh_ms": "ms",
    "cascade.reconcile_10k_ms": "ms",
    "cascade.reconcile_100k_ms": "ms",
    "cascade.parity_bits_10k": "count",
    "cascade.round_trips_10k": "count",
    "cascade.leak_ratio_10k": "ratio",
    "privamp.toeplitz_10k_ms": "ms",
    "privamp.toeplitz_100k_ms": "ms",
    "protocol.batch_encode_ms": "ms",
    "protocol.batch_decode_ms": "ms",
    "protocol.batch_bytes": "byte",
}
# From the traced session (session.traced_metrics): seconds per simulated
# second per side, or counts per block.
TRACED = {
    "alice.physics.segments_s": "s/s",
    "bob.physics.segments_s": "s/s",
    "alice.timetag.find_delay_s": "s/s",
    "alice.timetag.match_s": "s/s",
    "alice.timetag.accidentals_s": "s/s",
    "alice.sifting_s": "s/s",
    "bob.sifting_s": "s/s",
    "bob.cascade.reconcile_s": "s/s",
    "bob.cascade.reconcile_self_s": "s/s",
    "alice.cascade.handle_s": "s/s",
    "alice.privamp.toeplitz_s": "s/s",
    "bob.privamp.toeplitz_s": "s/s",
    "bob.privamp.seed_s": "s/s",
    "bob.protocol.encode_s": "s/s",
    "alice.protocol.decode_s": "s/s",
    "alice.protocol.recv_wait_s": "s/s",
    "bob.protocol.recv_wait_s": "s/s",
    "alice.protocol.send_s": "s/s",
    "bob.protocol.send_s": "s/s",
    "alice.protocol.self_s": "s/s",
    "bob.protocol.self_s": "s/s",
    "protocol.frames_a2b": "count",
    "protocol.frames_b2a": "count",
    "protocol.bytes_a2b": "byte",
    "protocol.bytes_b2a": "byte",
    "protocol.parity_requests": "count",
    "cascade.parity_bits": "count",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {**ISOLATED, **TRACED}


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, seed: int, deadline: float, workload=None, spans=None) -> dict:
    """Run session.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "session.py"), mode, "--seed", str(seed)]
    if workload is not None:
        cmd += ["--workload", workload]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawn-time", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: "
                          + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def blas_info() -> dict:
    """BLAS library numpy uses and its thread setting, as found (not changed)."""
    import ctypes

    import numpy as np

    info = {"env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the library is loaded
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    return info


def host_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(sessions: list, setups: list) -> dict:
    good = [s for s in sessions if not s["failures"]]
    per = {
        "wall_per_sim_s": [s["wall_s"] / s["sim_s"] for s in good],
        "time_to_first_block_s": [s["first_block_s"] for s in good],
        "cpu_s_per_sim_s": [s["cpu_s"] / s["sim_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
        "setup_s": setups + [s["setup_s"] for s in good],
        "key_bits_per_wall_s": [s["final_bits"] / s["wall_s"] for s in good],
        "key_bits_per_sim_s": [s["final_bits"] / s["sim_s"] for s in good],
    }
    out = {name: median(vals) for name, vals in per.items()}
    out["session_fail_ratio"] = (len(sessions) - len(good)) / len(sessions)
    return out


def golden_status(workload: str, sessions: list) -> str:
    """How many sessions reproduce the committed transcript and key hashes."""
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.exists() else {}
    known = [s for s in sessions if "sha256" in s and str(s["seed"]) in golden]
    same = sum(s["sha256"] == golden[str(s["seed"])]["sha256"] for s in known)
    return f"{same} of {len(known)} sessions with a golden entry match"


def print_report(wl, args, host, setups, sessions, traced, metrics, golden) -> None:
    print(f"workload {wl.name}  seed {args.seed}  "
          f"{wl.sim_seconds:g} simulated s per session, "
          f"{wl.transport} transport")
    blas = host["blas"]
    print(f"host: nproc {host['nproc']} (affinity {host['affinity']}), Python {host['python']}, "
          f"numpy {host['numpy']}, BLAS {blas.get('name')} {blas.get('version')} "
          f"threads {blas.get('threads')} env {blas['env']}")
    failed = sum(1 for s in sessions if s["failures"])
    print(f"sessions: {len(sessions)} timed ({failed} failed), "
          f"{len(setups)} set-up probes, traced: {'yes' if traced else 'no'}")
    for s in sessions + ([traced] if traced else []):
        for failure in s["failures"]:
            print(f"  FAILED seed {s.get('seed')}: {failure}")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    for name, unit in REPORTED.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<6} (reported, not gated)")
    for s in sessions:
        if "sha256" in s:
            sha = s["sha256"]
            print(f"  seed {s['seed']}: {s['blocks']} blocks, {s['final_bits']} final bits, "
                  f"sha256 a2b {sha['a2b'][:16]} b2a {sha['b2a'][:16]} key {sha['key'][:16]}")
    print(f"  golden transcripts: {golden}")


def run_workload(wl, args, isolated=None):
    """Measure one workload and print its report.

    With ``--trace 1`` the isolated layer suite runs here unless its
    metrics are passed in as ``isolated``.  Returns (result object,
    isolated metrics), or None when set-up or the layer suite failed.
    """
    start = time.monotonic()
    shown = TRACED if isolated is not None else PER_LAYER  # isolated figures once per run
    limit = start + RUN_LIMIT_S
    deadline = start + args.seconds
    common = dict(workload=wl.name)

    def probe() -> float:
        return run_worker("setup", args.seed, limit, **common)["setup_s"]

    setups, sessions = [], []
    try:
        while True:
            t0 = time.monotonic()
            setups.append(probe())
            seed = args.seed + SEED_STRIDE * len(sessions)
            try:
                sessions.append(run_worker("session", seed, limit, **common))
            except WorkerError as exc:
                sessions.append({"seed": seed, "failures": [str(exc)]})
            # Start another session only if one more fits in the budget.
            if time.monotonic() + (time.monotonic() - t0) > deadline:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(probe())
    except WorkerError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return None
    metrics = end_to_end(sessions, setups)

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"
    traced = None
    if args.trace:
        try:
            traced = run_worker("traced", args.seed, limit, spans=OUT / f"{stem}-spans.jsonl",
                                **common)
            if "sha256" in sessions[0] and traced["sha256"] != sessions[0]["sha256"]:
                traced["failures"].append("traced transcript differs from the untraced one")
        except WorkerError as exc:
            traced = {"seed": args.seed, "failures": [str(exc)]}
        if isolated is None:
            try:
                isolated = run_worker("layers", args.seed, limit)["layers"]
            except WorkerError as exc:
                print(f"error: isolated layer suite failed: {exc}", file=sys.stderr)
                return None

    attempted = sessions + ([traced] if traced else [])
    failed = sum(1 for s in attempted if s["failures"])
    golden = golden_status(wl.name, sessions)
    host = host_info()
    print_report(wl, args, host, setups, sessions, traced, metrics, golden)

    if args.trace:
        per_layer = {**isolated, **traced.get("layers", {})}
        if "wall_s" in traced and metrics["wall_per_sim_s"] > 0:
            per_layer["trace.overhead_ratio"] = (
                traced["wall_s"] / (metrics["wall_per_sim_s"] * wl.sim_seconds) - 1.0)
        for name in TRACED:  # missing only when the traced session crashed
            per_layer.setdefault(name, 0.0)
        for name, unit in shown.items():
            print(f"  {name:<34} {per_layer[name]:>14.6g} {unit}")
        result_metrics = {n: {"value": per_layer[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        result_metrics = {n: {"value": metrics[n], "unit": u} for n, (u, _) in END_TO_END.items()}

    record = {"workload": wl.name, "seed": args.seed, "sim_seconds": wl.sim_seconds,
              "trace": args.trace, "host": host, "setup_probes_s": setups,
              "sessions": sessions, "traced": traced, "metrics": metrics,
              "golden": golden, "elapsed_s": time.monotonic() - start}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": len(attempted), "failed": failed,
            "metrics": result_metrics}, isolated


def main(argv=None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "bellqkd" / "__init__.py").is_file():
        print(f"error: no bellqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results, isolated = {}, None
    for name in names:
        outcome = run_workload(WORKLOADS[name], args, isolated)
        if outcome is None:
            return 1
        results[name], isolated = outcome
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    metrics = {f"{w}.{n}": m for w, r in results.items()
               for n, m in r["metrics"].items() if n not in ISOLATED}
    if args.trace:
        metrics.update({n: {"value": isolated[n], "unit": u} for n, u in ISOLATED.items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
