"""The benchmark's workloads.

Each workload is one closed-loop two-party session at a time: both
stations run on their own threads in one process (plus one loopback TCP
connection with its two reader threads on ``socket``).  The workload
seed sets both ``ChannelConfig.rng_seed`` and ``SessionConfig.seed``, so
the program sees only the generated time tags.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # simulated acquisition time of one session, s
    sim_seconds: float
    block_min_key_bits: int
    transport: str  # "inproc" or "socket"
    intercept_fraction: float = 0.0
    # Set for the attack workload: every block must show |S| > 2 and end
    # with zero final bits, so no Toeplitz compression runs.
    expect_attack: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's operating point: per-second time-tag work dominates,
        # Toeplitz is about a quarter of the wall time.
        Workload("paper", sim_seconds=20.0, block_min_key_bits=10_000, transport="inproc"),
        # One ~99k-bit block per ~45 simulated seconds: the dense O(n*m)
        # Toeplitz hash dominates.  50 s leaves room for the block to close
        # on every seed while staying under two blocks.
        Workload("bigblock", sim_seconds=50.0, block_min_key_bits=100_000, transport="inproc"),
        # Intercept-resend on 35 % of pairs in the key basis, and the only
        # workload on the socket transport.  |S| ~ 2.115 sits midway between
        # the classical bound 2 and the ~2.23 above which a block keeps
        # some key; 20k-bit blocks (sigma_S ~ 0.015) put both edges 7
        # sigma away, so every block yields 0 final bits on every seed.
        # (At 30 % and 10k bits the upper edge is 3 sigma away and about
        # one block in 400 keeps a few bits.)
        Workload("eve-socket", sim_seconds=20.0, block_min_key_bits=20_000, transport="socket",
                 intercept_fraction=0.35, expect_attack=True),
    )
}
