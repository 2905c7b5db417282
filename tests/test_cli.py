"""Config parsing, CSV output, and command-line entry points."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellqkd.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    EXIT_INSECURE,
    EXIT_OK,
    EXIT_TRANSPORT,
    ParseError,
    RangeError,
    format_csv,
    keyrate_estimate,
    main,
    parse_config,
)
import bellqkd.cli
import bellqkd.protocol
from bellqkd.physics import (ALICE_DETECTORS, BOB_DETECTORS, AttackConfig, ChannelConfig,
                             JointSegmentSource, _time_origin_ticks, boundary_slack_s)
from bellqkd.protocol import BlockStats, SessionConfig
from bellqkd.timetag import TagFileError, read_tag_file, seconds_to_ticks, write_tag_file

# ---------------------------------------------------------------------------
# Config parsing


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.channel.pair_rate == 18000.0
    assert cfg.channel.rng_seed == 1
    assert cfg.attack.intercept_fraction == 0.0
    assert cfg.block_min_key_bits == 10000
    assert cfg.transport == "inproc"
    assert cfg.csv is None


def test_parse_assignments_and_comments():
    cfg = parse_config(
        "# source\n"
        "pair_rate = 25000\n"
        "\n"
        "loss_db_bob = 2.5  # fibre spool\n"
        "rng_seed = 42\n"
        "intercept_fraction = 0.1\n"
        "block_min_key_bits = 5000\n"
        "transport = socket 127.0.0.1:9000\n"
    )
    assert cfg.channel.pair_rate == 25000.0
    assert cfg.channel.loss_db_bob == 2.5
    assert cfg.channel.rng_seed == 42
    assert cfg.attack.intercept_fraction == 0.1
    assert cfg.block_min_key_bits == 5000
    assert cfg.transport == "socket 127.0.0.1:9000"


@pytest.mark.parametrize("text, lineno, needle", [
    ("pair_rate 9000", 1, "key = value"),
    ("= 3", 1, "missing key"),
    ("pair_rate =", 1, "missing value"),
    ("\nwavelength = 810", 2, "unknown key"),
    ("rng_seed = 1\nrng_seed = 2", 2, "duplicate"),
    ("pair_rate = fast", 1, "bad float"),
    ("rng_seed = 1.5", 1, "bad int"),
])
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert exc.value.line == lineno
    assert needle in str(exc.value)


@pytest.mark.parametrize("text, field", [
    ("pair_rate = -5", "pair_rate"),
    ("visibility_hv = 1.5", "visibility_hv"),
    ("intercept_fraction = 2", "intercept_fraction"),
    ("rng_seed = -1", "rng_seed"),
    ("block_min_key_bits = 0", "block_min_key_bits"),
    ("segment_seconds = 0", "segment_seconds"),
    ("finite_deduction = -3", "finite_deduction"),
    ("finite_deduction = 4294967296", "finite_deduction"),  # PA_PARAMS carries a u32
    ("rate_multiplier = 0", "rate_multiplier"),
    ("rate_multiplier = 1.2", "rate_multiplier"),
    ("transport = pigeon", "transport"),
    ("transport = socket 1.2.3.4:70000", "transport"),
    ("transport = socket nocolon", "transport"),
    ("transport = inproc 127.0.0.1:1", "transport"),
])
def test_range_errors_name_the_field(text, field):
    with pytest.raises(RangeError) as exc:
        parse_config(text)
    assert exc.value.field == field


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_name_the_field(value):
    for cls in (ChannelConfig, AttackConfig, SessionConfig):
        for f in fields(cls):
            if isinstance(f.default, float):
                with pytest.raises(ValueError, match=f"^{f.name} must be finite, got {value}$"):
                    cls(**{f.name: float(value)})
                if f.name != "timeout":  # the one float that is no config key
                    with pytest.raises(RangeError) as exc:
                        parse_config(f"{f.name} = {value}")
                    assert exc.value.field == f.name


# ---------------------------------------------------------------------------
# CSV


def test_csv_roundtrips_floats_exactly():
    stats = BlockStats(2, 1.0, 3.5, 1234, 17, 0.0314159, -2.4987654321,
                       0.0123456789, 1762, 0.5435644431995964, 2802)
    text = format_csv([stats])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    assert int(fields[0]) == 2
    assert float(fields[4]) == stats.qber
    assert float(fields[5]) == stats.s_value
    assert float(fields[8]) == stats.i_eve
    assert int(fields[9]) == stats.final_bits
    # rate columns are count / duration
    assert float(fields[2]) == stats.coincidence_count / 2.5
    assert float(fields[10]) == stats.final_bits / 2.5


# ---------------------------------------------------------------------------
# keyrate estimator


def test_keyrate_frozen_operating_point():
    est = keyrate_estimate(2.5, 0.02, 10000)
    assert est.leak_ec == 1762
    assert est.final_length == 2802
    assert abs(est.i_eve - 0.5435644431995964) < 1e-12


def test_keyrate_validation():
    with pytest.raises(RangeError):
        keyrate_estimate(2.5, 0.02, 0)
    with pytest.raises(RangeError):
        keyrate_estimate(2.5, 0.7, 1000)
    with pytest.raises(RangeError):
        keyrate_estimate(2.5, 0.02, 2**53)
    assert main(["keyrate", "--s", "2.5", "--qber", "0.02", "--n", str(10**400)]) == EXIT_CONFIG


def test_keyrate_command(capsys):
    assert main(["keyrate", "--s", "2.5", "--qber", "0.02", "--n", "10000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final_length    2802" in out
    assert "leak_ec_bits    1762" in out


def test_keyrate_command_insecure(capsys):
    assert main(["keyrate", "--s", "1.9", "--qber", "0.02", "--n", "10000"]) == EXIT_INSECURE
    assert "insecure" in capsys.readouterr().err


@pytest.mark.parametrize("s_value", ["nan", "inf", "-inf"])
def test_keyrate_refuses_non_finite_s(capsys, s_value):
    # Before, an infinite S clamped to 2*sqrt(2) and NaN gave i_eve = -0.0.
    with pytest.raises(RangeError) as exc:
        keyrate_estimate(float(s_value), 0.03, 10000)
    assert exc.value.field == "s"
    assert main(["keyrate", f"--s={s_value}", "--qber", "0.03", "--n", "10000"]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and f"error: S must be finite, got {s_value}" in err


# ---------------------------------------------------------------------------
# full command-line runs

_FAST_CONFIG = """
pair_rate = 20000
background_rate = 1000
visibility_hv = 0.96
visibility_diag = 0.92
duration = 2
bob_delay = 500
rng_seed = 7
block_min_key_bits = 3000
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(_FAST_CONFIG)
    return path


def test_run_writes_csv_and_matching_keys(config_file, tmp_path, capsys):
    csv_path = tmp_path / "blocks.csv"
    keys_dir = tmp_path / "keys"
    code = main(["run", "--config", str(config_file),
                 "--csv", str(csv_path), "--keys", str(keys_dir)])
    assert code == EXIT_OK
    assert "blocks" in capsys.readouterr().out

    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) >= 2
    alice_key = (keys_dir / "alice.key").read_bytes()
    bob_key = (keys_dir / "bob.key").read_bytes()
    assert len(alice_key) > 0
    assert alice_key == bob_key


def test_run_is_deterministic(config_file, capsys):
    outputs = []
    for _ in range(2):
        assert main(["run", "--config", str(config_file)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_seed_override_changes_output(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--seed", "8"]) == EXIT_OK
    seed8 = capsys.readouterr().out
    assert main(["run", "--config", str(config_file)]) == EXIT_OK
    seed7 = capsys.readouterr().out
    assert seed8 != seed7


def test_replay_reproduces_run(config_file, tmp_path, capsys):
    tags_dir = tmp_path / "tags"
    csv_live = tmp_path / "live.csv"
    keys_live = tmp_path / "keys_live"
    code = main(["run", "--config", str(config_file), "--csv", str(csv_live),
                 "--keys", str(keys_live), "--dump-tags", str(tags_dir)])
    assert code == EXIT_OK
    capsys.readouterr()

    csv_replay = tmp_path / "replay.csv"
    keys_replay = tmp_path / "keys_replay"
    code = main(["replay", "--alice", str(tags_dir / "alice.tags"),
                 "--bob", str(tags_dir / "bob.tags"),
                 "--config", str(config_file),
                 "--csv", str(csv_replay), "--keys", str(keys_replay)])
    assert code == EXIT_OK
    assert csv_replay.read_bytes() == csv_live.read_bytes()
    assert ((keys_replay / "alice.key").read_bytes()
            == (keys_live / "alice.key").read_bytes())
    assert ((keys_replay / "bob.key").read_bytes()
            == (keys_live / "bob.key").read_bytes())


def test_replay_shifted_recording_fails_cleanly(config_file, tmp_path, capsys):
    tags_dir = tmp_path / "tags"
    assert main(["run", "--config", str(config_file),
                 "--dump-tags", str(tags_dir)]) == EXIT_OK
    capsys.readouterr()

    # push Bob's clock one hour ahead: correlations leave the search span
    side, ticks, dets = read_tag_file(tags_dir / "bob.tags")
    shifted = tmp_path / "bob_shifted.tags"
    write_tag_file(shifted, side, ticks + np.uint64(3600 * 8_000_000_000), dets)
    # finer segmentation so the peak search runs out of patience, not data
    fine = tmp_path / "fine.conf"
    fine.write_text(_FAST_CONFIG + "segment_seconds = 0.5\n")
    code = main(["replay", "--alice", str(tags_dir / "alice.tags"),
                 "--bob", str(shifted), "--config", str(fine)])
    assert code == EXIT_TRANSPORT


def test_replay_rejects_swapped_sides(config_file, tmp_path, capsys):
    tags_dir = tmp_path / "tags"
    assert main(["run", "--config", str(config_file),
                 "--dump-tags", str(tags_dir)]) == EXIT_OK
    capsys.readouterr()
    code = main(["replay", "--alice", str(tags_dir / "bob.tags"),
                 "--bob", str(tags_dir / "alice.tags"),
                 "--config", str(config_file)])
    assert code == EXIT_CONFIG
    assert "side" in capsys.readouterr().err


def test_replay_truncated_file(config_file, tmp_path, capsys):
    tags_dir = tmp_path / "tags"
    assert main(["run", "--config", str(config_file),
                 "--dump-tags", str(tags_dir)]) == EXIT_OK
    capsys.readouterr()
    broken = tmp_path / "broken.tags"
    broken.write_bytes((tags_dir / "alice.tags").read_bytes()[:-7])
    code = main(["replay", "--alice", str(broken),
                 "--bob", str(tags_dir / "bob.tags"),
                 "--config", str(config_file)])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """Config and tag files of one 1.5 s run, shared by the replay-input tests."""
    root = tmp_path_factory.mktemp("recording")
    conf = root / "exp.conf"
    conf.write_text(_FAST_CONFIG.replace("duration = 2", "duration = 1.5"))
    assert main(["run", "--config", str(conf), "--csv", str(root / "live.csv"),
                 "--dump-tags", str(root)]) == EXIT_OK
    return root


# SHA-256 of the two files ``recording`` writes.  Any change to what
# --dump-tags records, or to its order, shows here.
_PINNED_RECORDING_SHA256 = {
    "alice": "370e0f780687d9599822165cb6c5af1116485f870222d9af1cc483417155b90d",
    "bob": "c3dbe554c44d948473e5371a21df608bff9e53db490c16a20d7d49e035bc9235",
}


def test_dump_tags_bytes_pinned(recording):
    for side, digest in _PINNED_RECORDING_SHA256.items():
        assert hashlib.sha256((recording / f"{side}.tags").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("side, column, index, value, first", [
    ("alice", "det", slice(None, None, 7), 9, 0),
    ("alice", "det", slice(None, None, 7), 0, 0),
    ("bob", "det", 5, 0, 5),
    ("bob", "det", 5, 200, 5),
    ("alice", "tick", -1, 2**63, -1),
    ("bob", "tick", -1, 2**63, -1),
    ("bob", "tick", slice(5, 7), "swap", 6),
], ids=["alice-det-9", "alice-det-0", "bob-det-0", "bob-det-200", "alice-tick", "bob-tick",
        "bob-unsorted"])
def test_replay_refuses_impossible_records(recording, tmp_path, capsys,
                                           side, column, index, value, first):
    _, ticks, dets = read_tag_file(recording / f"{side}.tags")
    if value == "swap":  # two adjacent ticks trade places
        assert ticks[index][0] < ticks[index][1]
        ticks[index] = ticks[index][::-1].copy()
        value = ticks[first]
    else:
        (ticks if column == "tick" else dets)[index] = value
    tampered = tmp_path / f"{side}.tags"
    write_tag_file(tampered, side, ticks, dets)
    files = {"alice": recording / "alice.tags", "bob": recording / "bob.tags", side: tampered}
    code = main(["replay", "--alice", str(files["alice"]), "--bob", str(files["bob"]),
                 "--config", str(recording / "exp.conf")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    label = "tick" if column == "tick" else "detector id"
    assert f"error: {tampered}: record {first % len(ticks)}: {label} {value} " in err


def test_tag_file_ids_are_exactly_the_station_layouts(tmp_path):
    # every byte on each side: a record is read iff a detector has its id
    path = tmp_path / "one.tags"
    for side, layout in (("alice", ALICE_DETECTORS), ("bob", BOB_DETECTORS)):
        ids = {det for pair in layout for det in pair}
        for det in range(256):
            write_tag_file(path, side, np.array([1], np.uint64), np.array([det], np.uint8))
            try:
                read = len(list(bellqkd.cli._read_chunks(str(path), side)))
            except TagFileError as exc:
                assert str(exc) == f"{path}: record 0: detector id {det} is not one of {side}'s"
                read = 0
            assert read == (det in ids), (side, det)


def test_replay_in_small_chunks(recording, tmp_path, capsys, monkeypatch):
    # Many chunks per segment: the carry must still cut the recorded
    # segments, and the tick order is checked across chunk boundaries.
    monkeypatch.setattr(bellqkd.cli, "_CHUNK_RECORDS", 1000)
    files = {side: recording / f"{side}.tags" for side in ("alice", "bob")}
    code = main(["replay", "--alice", str(files["alice"]), "--bob", str(files["bob"]),
                 "--config", str(recording / "exp.conf"), "--csv", str(tmp_path / "replay.csv")])
    assert code == EXIT_OK
    assert (tmp_path / "replay.csv").read_bytes() == (recording / "live.csv").read_bytes()

    _, ticks, dets = read_tag_file(files["alice"])
    ticks[999:1001] = ticks[999:1001][::-1].copy()
    files["alice"] = tmp_path / "alice.tags"
    write_tag_file(files["alice"], "alice", ticks, dets)
    code = main(["replay", "--alice", str(files["alice"]), "--bob", str(files["bob"]),
                 "--config", str(recording / "exp.conf")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {files['alice']}: record 1000: tick {ticks[1000]} is below " in err


def test_replay_of_a_shorter_duration_reads_no_further_than_its_last_cut(recording,
                                                                         monkeypatch):
    # The recording is 1.5 s long.  A 1 s replay is one segment, cut at the
    # 1 s boundary plus the boundary slack, and reads only the chunks up
    # to the one that holds the cut.
    monkeypatch.setattr(bellqkd.cli, "_CHUNK_RECORDS", 1000)
    cfg = parse_config(_FAST_CONFIG.replace("duration = 2", "duration = 1"))
    _, ticks, dets = read_tag_file(recording / "bob.tags")
    cut_s = 1.0 + boundary_slack_s(cfg.channel)
    cut = int(np.searchsorted(ticks, _time_origin_ticks(cfg.channel) + seconds_to_ticks(cut_s)))
    assert cut < len(ticks) - 1000
    read = []

    def chunks():
        for chunk in bellqkd.cli._read_chunks(str(recording / "bob.tags"), "bob"):
            read.append(len(chunk[0]))
            yield chunk

    [(seg_ticks, seg_dets)] = bellqkd.cli._file_segments(chunks(), cfg)
    np.testing.assert_array_equal(seg_ticks, ticks[:cut])
    np.testing.assert_array_equal(seg_dets, dets[:cut])
    assert sum(read) == (cut // 1000 + 1) * 1000


def test_replay_of_an_aborted_recording_gives_its_exit_code_and_csv(tmp_path, capsys):
    # Every pair is intercepted, so the first block fails the Bell test.
    # Bob took his next segment before Alice had matched the block's last
    # one; each file records what its side took, so bob.tags holds one
    # segment more than alice.tags.
    conf = tmp_path / "exp.conf"
    conf.write_text(_FAST_CONFIG.replace("duration = 2", "duration = 3")
                    + "intercept_fraction = 1\n")
    live, replayed = tmp_path / "live.csv", tmp_path / "replay.csv"
    code = main(["run", "--config", str(conf), "--csv", str(live), "--dump-tags", str(tmp_path)])
    assert code == EXIT_INSECURE
    origin = _time_origin_ticks(parse_config(conf.read_text()).channel)
    last_segment = {side: (int(read_tag_file(tmp_path / f"{side}.tags")[1][-1]) - origin)
                    // seconds_to_ticks(1.0) for side in ("alice", "bob")}
    assert last_segment["bob"] == last_segment["alice"] + 1
    capsys.readouterr()

    code = main(["replay", "--alice", str(tmp_path / "alice.tags"),
                 "--bob", str(tmp_path / "bob.tags"),
                 "--config", str(conf), "--csv", str(replayed)])
    assert code == EXIT_INSECURE
    assert replayed.read_bytes() == live.read_bytes()
    assert "INSECURE_REGIME" in capsys.readouterr().err


def _peak_rss_mib(*args) -> float:
    """Run ``bellqkd <args>`` as a child process; its peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(bellqkd.cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", "import sys; from bellqkd.cli import main; "
                             "sys.exit(main())", *map(str, args)], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == EXIT_OK, args
    return usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units are Linux's")
def test_record_and_replay_memory_does_not_grow_with_duration(tmp_path):
    peak = {}
    for seconds in (10, 40):
        conf = tmp_path / f"{seconds}.conf"
        conf.write_text(f"duration = {seconds}\n")
        tags = tmp_path / f"tags{seconds}"
        live, replayed = tmp_path / "live.csv", tmp_path / "replay.csv"
        peak["run", seconds] = _peak_rss_mib("run", "--config", conf, "--csv", live,
                                             "--dump-tags", tags)
        peak["replay", seconds] = _peak_rss_mib("replay", "--alice", tags / "alice.tags",
                                                "--bob", tags / "bob.tags", "--config", conf,
                                                "--csv", replayed)
        assert replayed.read_bytes() == live.read_bytes()
    for command in ("run", "replay"):
        assert peak[command, 40] - peak[command, 10] < 10, peak


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units are Linux's")
def test_a_block_ten_times_larger_adds_little_peak_memory(tmp_path):
    # 50 s at the ChannelConfig defaults, on a 2-vCPU Linux host (Python
    # 3.11, numpy 2.4).  While a block's detector chunks and announce lived
    # through reconciliation, 100k-bit blocks peaked 20.7-21.6 MiB above
    # 10k-bit ones; freed at the sift, 12.3-16.1 MiB above (7 runs each).
    # With Alice's matches kept as per-segment arrays and concatenated, and
    # Bob's detectors at a byte a tag, 7.7-12.2 MiB; with the matches
    # written into the announce frame as they are found and the detectors
    # at 2 bits a tag, 3.6-6.4 MiB (7 alternating runs each).
    peak = {}
    for bits in (10_000, 100_000):
        conf = tmp_path / f"{bits}.conf"
        conf.write_text(f"duration = 50\nblock_min_key_bits = {bits}\n")
        peak[bits] = _peak_rss_mib("run", "--config", conf)
    assert peak[100_000] - peak[10_000] < 8, peak


# Runs each (key, value) of argv[2] as `bellqkd run` on a config of
# ``duration = 0.1`` plus that key, under a 2 GiB address-space limit, and
# prints one JSON line per case: key, value, exit code (None if main
# raised) and stderr.
_SWEEP_CHILD = """
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from bellqkd.cli import main
path, cases = sys.argv[1], json.loads(sys.argv[2])
for key, value in cases:
    with open(path, "w") as f:
        f.write("\\n".join(f"{k} = {v}" for k, v in {"duration": 0.1, key: value}.items()))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", path])
    except BaseException:
        code = None
        err.write(traceback.format_exc())
    print(json.dumps([key, value, code, err.getvalue()]), flush=True)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_every_numeric_key_ends_in_a_run_or_a_named_refusal(tmp_path):
    values = ["nan", "inf", "-inf", "0", "-0.0", "1e300", str(2**64), "1e-300"]
    cases = [(key, value) for key in bellqkd.cli._NUMBER_KEYS for value in values]
    env = dict(os.environ, PYTHONPATH=str(Path(bellqkd.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD, str(tmp_path / "sweep.conf"),
                           json.dumps(cases)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [tuple(r[:2]) for r in results] == cases
    for key, value, code, err in results:
        assert "Traceback" not in err and code in (0, 2, 3, 4, 5), (key, value, code, err)
        if code == EXIT_CONFIG:
            assert key in err, (key, value, err)


@settings(max_examples=30, deadline=None)
@given(side=st.sampled_from(["alice", "bob"]),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=8))
def test_replay_survives_mutated_tag_files(recording, side, edits):
    data = bytearray((recording / f"{side}.tags").read_bytes())
    for where, byte in edits:
        data[int(where * len(data))] = byte
    mutated = recording / f"mutated_{side}.tags"
    mutated.write_bytes(bytes(data))
    files = {"alice": recording / "alice.tags", "bob": recording / "bob.tags", side: mutated}
    code = main(["replay", "--alice", str(files["alice"]), "--bob", str(files["bob"]),
                 "--config", str(recording / "exp.conf"), "--csv", str(recording / "out.csv")])
    assert code in (0, 2, 3, 4, 5)


def test_full_intercept_attack_exits_insecure(tmp_path, capsys):
    path = tmp_path / "attack.conf"
    path.write_text(
        "pair_rate = 20000\nbackground_rate = 0\nvisibility_hv = 1.0\n"
        "visibility_diag = 1.0\nduration = 1.5\nbob_delay = 500\n"
        "rng_seed = 3\nblock_min_key_bits = 1500\nintercept_fraction = 1.0\n"
    )
    assert main(["run", "--config", str(path)]) == EXIT_INSECURE
    capsys.readouterr()


def test_insecure_run_prints_abort_lines(tmp_path, capsys):
    path = tmp_path / "attack.conf"
    path.write_text(
        "pair_rate = 20000\nbackground_rate = 0\nvisibility_hv = 1.0\n"
        "visibility_diag = 1.0\nduration = 1.5\nbob_delay = 500\n"
        "rng_seed = 3\nblock_min_key_bits = 1500\nintercept_fraction = 1.0\n"
    )
    assert main(["run", "--config", str(path)]) == EXIT_INSECURE
    err = capsys.readouterr().err
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: INSECURE_REGIME: \|S\| = \d\.\d{{4}} <= 2$", err, re.M)


def test_block_past_the_match_index_limit_aborts_on_both_sides(tmp_path, capsys, monkeypatch):
    # MATCH_ANNOUNCE addresses a block's tags with u32 indices.  With the
    # limit lowered to this run's Alice tag count the one block still
    # fits; one tag fewer and Alice ends it by name instead of wrapping.
    path = tmp_path / "exp.conf"
    path.write_text(_FAST_CONFIG)
    channel = parse_config(_FAST_CONFIG).channel
    alice_tags = sum(len(t) for t, _ in JointSegmentSource(channel).segments("alice"))
    monkeypatch.setattr(bellqkd.protocol, "_MAX_BLOCK_TAGS", alice_tags)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(bellqkd.protocol, "_MAX_BLOCK_TAGS", alice_tags - 1)
    assert main(["run", "--config", str(path)]) == EXIT_TRANSPORT
    out, err = capsys.readouterr()
    assert out.strip() == ",".join(CSV_COLUMNS)
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: BLOCK_TOO_LARGE: block 0 would pass {alice_tags - 1} tags on one"
                         " side, .*; lower block_min_key_bits$", err, re.M)


def test_unmeasured_s_names_its_empty_term(tmp_path, capsys):
    # 1 ms segments and one-bit blocks: the first block closes before any
    # pair reaches the (BELL_1, KEY) analyzer pairing, so S is not
    # measured; the refusal says so instead of reporting |S| = 0.
    path = tmp_path / "sparse.conf"
    path.write_text("duration = 0.5\npair_rate = 5000\nbackground_rate = 0\n"
                    "segment_seconds = 0.001\nblock_min_key_bits = 1\n")
    assert main(["run", "--config", str(path)]) == EXIT_INSECURE
    out, err = capsys.readouterr()
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: INSECURE_REGIME: S not measured: no counts for term "
                         r"\(BELL_1, KEY\)$", err, re.M)
    [row] = out.strip().split("\n")[1:]
    assert math.isnan(float(row.split(",")[CSV_COLUMNS.index("s_value")]))


# 0.5 ms segments at 2000 pairs/s: Bob's segment 2 holds no tags.
_EMPTY_SEGMENT_CONFIG = ("duration = 2.0\npair_rate = 2000\nbackground_rate = 0\n"
                         "segment_seconds = 0.0005\nblock_min_key_bits = 200\n")


def _assert_empty_segment_abort(err: str, segment: int):
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: EMPTY_SEGMENT: segment {segment} has no tags and is not "
                         "the last$", err, re.M), err


def test_empty_segment_mid_run_aborts_on_both_sides(tmp_path, capsys):
    # Bob's empty segment once went out as an empty batch, which Alice
    # reads as end of data: the run ended DONE with the rest unread.
    path = tmp_path / "exp.conf"
    path.write_text(_EMPTY_SEGMENT_CONFIG)
    channel = parse_config(_EMPTY_SEGMENT_CONFIG).channel
    bob = [len(t) for t, _ in JointSegmentSource(channel, segment_seconds=0.0005).segments("bob")]
    assert bob[2] == 0 and sum(bob[3:]) > 0
    assert main(["run", "--config", str(path)]) == EXIT_TRANSPORT
    out, err = capsys.readouterr()
    assert out == ",".join(CSV_COLUMNS) + "\n"
    _assert_empty_segment_abort(err, 2)


def test_replay_of_an_empty_segment_recording_gives_its_exit_code_and_csv(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(_EMPTY_SEGMENT_CONFIG)
    live, replayed = tmp_path / "live.csv", tmp_path / "replay.csv"
    code = main(["run", "--config", str(conf), "--csv", str(live), "--dump-tags", str(tmp_path)])
    assert code == EXIT_TRANSPORT
    live_err = capsys.readouterr().err
    code = main(["replay", "--alice", str(tmp_path / "alice.tags"),
                 "--bob", str(tmp_path / "bob.tags"), "--config", str(conf),
                 "--csv", str(replayed)])
    assert code == EXIT_TRANSPORT
    assert replayed.read_bytes() == live.read_bytes()
    assert capsys.readouterr().err == live_err
    _assert_empty_segment_abort(live_err, 2)


@pytest.mark.parametrize("duration, code", [("3", EXIT_OK), ("4", EXIT_TRANSPORT)])
def test_replay_past_the_end_of_its_recording(recording, tmp_path, capsys, duration, code):
    # The recording ends at 1.5 s; a longer replay cuts empty segments
    # from 2 s on.  An empty last segment ends the session as the end of
    # data does; one with another after it aborts EMPTY_SEGMENT.
    conf = tmp_path / "exp.conf"
    conf.write_text((recording / "exp.conf").read_text().replace("duration = 1.5",
                                                                 f"duration = {duration}"))
    csv_path = tmp_path / "replay.csv"
    assert main(["replay", "--alice", str(recording / "alice.tags"),
                 "--bob", str(recording / "bob.tags"), "--config", str(conf),
                 "--csv", str(csv_path)]) == code
    assert csv_path.read_bytes() == (recording / "live.csv").read_bytes()
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
    else:
        _assert_empty_segment_abort(err, 2)


@pytest.mark.parametrize("duration", ["1", "2"])
def test_run_without_delay_peak_exits_no_peak(tmp_path, capsys, duration):
    # Pair-free streams have no correlation peak.  With 1 s the data ends
    # after the first failed scan; with 2 s the second scan holds enough
    # Alice tags to be the last.
    path = tmp_path / "nopeak.conf"
    path.write_text(f"pair_rate = 0\nbackground_rate = 3000\nduration = {duration}\n")
    assert main(["run", "--config", str(path)]) == EXIT_TRANSPORT
    out, err = capsys.readouterr()
    assert out.strip() == ",".join(CSV_COLUMNS)
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: NO_PEAK: peak/background \d+\.\d\d below threshold", err, re.M)


def test_sparse_pair_free_run_exits_no_peak(tmp_path, capsys):
    # At 1000/s per detector the coarse scan's peak/background ratio
    # passes on chance alone; the peak is no Poisson outlier.
    path = tmp_path / "sparse.conf"
    path.write_text("pair_rate = 0\nbackground_rate = 1000\nduration = 3\n")
    assert main(["run", "--config", str(path)]) == EXIT_TRANSPORT
    out, err = capsys.readouterr()
    assert out.strip() == ",".join(CSV_COLUMNS)
    for side in ("alice", "bob"):
        assert re.search(rf"^{side}: NO_PEAK: peak/background \d+\.\d\d not significant", err, re.M)


def test_bad_config_file_exits_config_error(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("pair_rate = -5\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "pair_rate" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("seconds, code", [("1.44e8", EXIT_OK), ("1.442e8", EXIT_CONFIG)])
def test_segment_span_at_the_sort_key_bound(tmp_path, capsys, seconds, code):
    # A raw segment's ticks are sorted as int64 keys of (tick - segment
    # start) << 3: its span plus the boundary slack must stay below 2**60
    # ticks, 1.441e8 s.  Without tags the run below it ends at once.
    path = tmp_path / "long.conf"
    path.write_text(f"pair_rate = 0\nbackground_rate = 0\nduration = {seconds}\n"
                    f"segment_seconds = {seconds}\n")
    assert main(["run", "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert "segment_seconds" in err and "below 2**60 ticks" in err


def _record_transports(monkeypatch) -> list:
    """The transport string of every session ``main`` starts, from now on."""
    seen = []
    make = bellqkd.cli._make_transports

    def recorded(transport, timeout):
        seen.append(transport)
        return make(transport, timeout)

    monkeypatch.setattr(bellqkd.cli, "_make_transports", recorded)
    return seen


def _command(command, recording, conf, *flags):
    if command == "run":
        return ["run", "--config", str(conf), *flags]
    return ["replay", "--alice", str(recording / "alice.tags"), "--bob",
            str(recording / "bob.tags"), "--config", str(conf), *flags]


@pytest.mark.parametrize("command", ["run", "replay"])
def test_config_file_output_and_transport_keys_reach_the_command(recording, tmp_path, capsys,
                                                                  monkeypatch, command):
    conf = tmp_path / "exp.conf"
    conf.write_text((recording / "exp.conf").read_text() + f"csv = {tmp_path / 'blocks.csv'}\n"
                    f"keys = {tmp_path / 'keys'}\ntransport = socket\n")
    seen = _record_transports(monkeypatch)
    assert main(_command(command, recording, conf)) == EXIT_OK
    assert seen == ["socket"]
    out = capsys.readouterr().out
    assert re.fullmatch(r"\d+ blocks, [1-9]\d* final key bits, exit 0\n", out)
    assert (tmp_path / "blocks.csv").read_bytes() == (recording / "live.csv").read_bytes()
    keys = tmp_path / "keys"
    assert (keys / "alice.key").read_bytes() == (keys / "bob.key").read_bytes() != b""


@pytest.mark.parametrize("command", ["run", "replay"])
def test_flags_override_the_config_file_output_and_transport(recording, tmp_path, capsys,
                                                             monkeypatch, command):
    conf = tmp_path / "exp.conf"
    conf.write_text((recording / "exp.conf").read_text() + f"csv = {tmp_path / 'file.csv'}\n"
                    f"keys = {tmp_path / 'file_keys'}\ntransport = socket\n")
    seen = _record_transports(monkeypatch)
    assert main(_command(command, recording, conf, "--csv", str(tmp_path / "flag.csv"),
                         "--keys", str(tmp_path / "flag_keys"),
                         "--transport", "inproc")) == EXIT_OK
    assert seen == ["inproc"]
    capsys.readouterr()
    assert (tmp_path / "flag.csv").read_bytes() == (recording / "live.csv").read_bytes()
    assert (tmp_path / "flag_keys" / "alice.key").read_bytes() != b""
    assert not (tmp_path / "file.csv").exists() and not (tmp_path / "file_keys").exists()


def test_run_and_replay_help_list_the_same_shared_flags(capsys):
    flags = {}
    for command in ("run", "replay"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags[command] = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert flags["run"] - flags["replay"] == {"--seed", "--dump-tags"}
    assert flags["replay"] - flags["run"] == {"--alice", "--bob"}
    assert flags["run"] & flags["replay"] == {"--help", "--config", "--transport", "--csv",
                                              "--keys"}


def test_run_over_local_socket(config_file, tmp_path, capsys):
    keys_dir = tmp_path / "keys"
    code = main(["run", "--config", str(config_file),
                 "--transport", "socket", "--keys", str(keys_dir)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert ((keys_dir / "alice.key").read_bytes()
            == (keys_dir / "bob.key").read_bytes() != b"")
