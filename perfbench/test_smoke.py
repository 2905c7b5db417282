"""Smoke tests of the benchmark harness on short sessions.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import session  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

session.import_bellqkd()
SHORT_S = 6.0  # enough simulated time for one 10k-bit block


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_traced_session_passes_checks_and_reports_every_span_metric():
    result = session.measure_session(WORKLOADS["paper"], 3, SHORT_S, time.monotonic(), "traced")
    assert result["failures"] == []
    assert result["blocks"] >= 1 and result["final_bits"] > 0
    assert result["layers"]["cascade.parity_bits"] * result["blocks"] == result["parity_bits"]
    assert set(result["layers"]) | {"trace.overhead_ratio"} == set(run.TRACED)


def test_attack_session_over_socket_passes_checks():
    # 20k-bit blocks need about 9 simulated seconds
    result = session.measure_session(WORKLOADS["eve-socket"], 3, 2 * SHORT_S, time.monotonic())
    assert result["failures"] == []
    assert result["blocks"] >= 1 and result["final_bits"] == 0


def test_checks_reject_a_wrong_transcript_and_a_missing_attack():
    from bellqkd.protocol import run_transport_pair

    wl = WORKLOADS["paper"]
    a2b, b2a = [], []
    cfg, source, transports = session.build(wl, 3, SHORT_S, (a2b.append, b2a.append))
    alice, bob = run_transport_pair(*transports, source.segments("alice"),
                                    source.segments("bob"), cfg)
    a2b, b2a = b"".join(a2b), b"".join(b2a)
    assert session.check(wl, alice, bob, a2b, b2a)[0] == []
    failures, _ = session.check(wl, alice, bob, b"", b2a)
    assert any("disclosure" in f for f in failures)
    failures, _ = session.check(replace(wl, expect_attack=True), alice, bob, a2b, b2a)
    assert any("|S| > 2" in f for f in failures)


def test_run_prints_every_end_to_end_metric_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in list(run.END_TO_END) + list(run.REPORTED):
        assert name in proc.stdout
