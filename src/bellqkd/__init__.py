"""Entanglement-based key distribution: simulator, protocol stack, tools.

The pipeline mirrors a two-station tabletop experiment: a stochastic
entangled-pair source with detector and link imperfections (`physics`),
time-tag coincidence identification (`timetag`), branch sifting and CHSH
estimation (`sifting`), interactive parity reconciliation (`cascade`),
Toeplitz privacy amplification (`privamp`), the two-party framed wire
protocol (`protocol`), and a CSV-emitting experiment runner (`cli`).
"""

from .physics import (
    AttackConfig,
    ChannelConfig,
    EventStreams,
    JointSegmentSource,
    generate_event_streams,
)
from .timetag import (
    DelayEstimate,
    NoPeakError,
    TagFileError,
    WindowConfig,
    count_accidentals,
    find_delay,
    match_coincidences,
    read_tag_file,
    write_tag_file,
)
from .sifting import (
    BellEstimate,
    CoincidenceClass,
    EmptyTermError,
    InvalidDetectorError,
    chsh_value,
    classify,
    correlation_coefficient,
    count_coincidences,
    extract_raw_key,
    qber,
)
from .cascade import (
    CascadeParams,
    ReconciliationResult,
    reconcile_pair,
    verify_keys,
)
from .privamp import (
    InsecureRegimeError,
    SecurityEstimate,
    binary_entropy,
    eve_information,
    generate_toeplitz_seed,
    secret_fraction,
    toeplitz_hash,
)
from .protocol import (
    AbortReason,
    BlockStats,
    Frame,
    FrameType,
    Phase,
    SessionConfig,
    SessionResult,
    audit_transcript,
    run_inproc_pair,
    run_session,
)
from .cli import ExperimentConfig, ParseError, RangeError, parse_config

__version__ = "0.1.0"

__all__ = [
    "AbortReason",
    "AttackConfig",
    "BellEstimate",
    "BlockStats",
    "CascadeParams",
    "ChannelConfig",
    "CoincidenceClass",
    "DelayEstimate",
    "EmptyTermError",
    "EventStreams",
    "ExperimentConfig",
    "Frame",
    "FrameType",
    "InsecureRegimeError",
    "InvalidDetectorError",
    "JointSegmentSource",
    "NoPeakError",
    "ParseError",
    "Phase",
    "RangeError",
    "ReconciliationResult",
    "SecurityEstimate",
    "SessionConfig",
    "SessionResult",
    "TagFileError",
    "WindowConfig",
    "audit_transcript",
    "binary_entropy",
    "chsh_value",
    "classify",
    "correlation_coefficient",
    "count_accidentals",
    "count_coincidences",
    "eve_information",
    "extract_raw_key",
    "find_delay",
    "generate_event_streams",
    "generate_toeplitz_seed",
    "match_coincidences",
    "parse_config",
    "qber",
    "read_tag_file",
    "reconcile_pair",
    "run_inproc_pair",
    "run_session",
    "secret_fraction",
    "toeplitz_hash",
    "verify_keys",
    "write_tag_file",
]
