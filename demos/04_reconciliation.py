"""Exercise the interactive error-correction layer on its own.

Reconciles 10000-bit keys at several error rates and reports how much
parity information the exchange disclosed, relative to the Shannon bound
n*h(q).  Then shows the two safety nets: the disclose-and-discard sample
that bootstraps the error-rate prior, and the closing verification tag
that catches a failed reconciliation instead of letting a bad block
through.
"""

import numpy as np

from bellqkd.cascade import CascadeParams, reconcile_pair
from bellqkd.privamp import binary_entropy

rng = np.random.default_rng(4)
n = 10_000

print(f"{'QBER':>6} {'leak bits':>10} {'n h(q)':>8} {'efficiency':>11} {'messages':>9}")
for q in (0.005, 0.01, 0.02, 0.03, 0.05):
    alice = rng.integers(0, 2, n).astype(np.uint8)
    flips = rng.random(n) < q
    bob = alice ^ flips.astype(np.uint8)
    q_true = float(flips.mean())
    a_res, b_res = reconcile_pair(alice, bob, CascadeParams(shuffle_seed=100),
                                  qber_estimate=q_true)
    assert np.array_equal(a_res.bits, b_res.bits)
    bound = n * float(binary_entropy(q_true))
    print(f"{q_true:6.4f} {b_res.leaked_bits:10d} {bound:8.0f} "
          f"{b_res.leaked_bits / bound:11.3f} {b_res.exchanged_messages:9d}")

print("\n=== bootstrapping the prior from a disclosed sample ===")
alice = rng.integers(0, 2, n).astype(np.uint8)
flips = rng.random(n) < 0.025
bob = alice ^ flips.astype(np.uint8)
a_res, b_res = reconcile_pair(alice, bob, CascadeParams(shuffle_seed=200))
print(f"  sampled {b_res.sample_size} bits, {b_res.sample_mismatches} mismatches "
      f"-> prior {b_res.qber_prior:.4f} (true rate {flips.mean():.4f})")
print(f"  remaining block n = {b_res.n}, corrected {b_res.errors_corrected} errors, "
      f"verified = {b_res.verified}")
print(f"  measured QBER over sample+corrections: {b_res.measured_qber:.4f}")

print("\n=== a failure the verification tag catches ===")
# a single pass cannot untangle adjacent errors that share every block
alice = np.zeros(64, dtype=np.uint8)
bob = alice.copy()
bob[0] ^= 1
bob[1] ^= 1
_, r = reconcile_pair(alice, bob, CascadeParams(passes=1, shuffle_seed=1),
                      qber_estimate=1e-12)
if r.verified:
    print("  unexpectedly verified")
else:
    print(f"  verification failed as it should: verified={r.verified}, "
          f"leak {r.leaked_bits} bits, errors corrected {r.errors_corrected}")
    print("  (multi-pass back-tracking with a shuffle that splits the pair fixes it)")
a_res, b_res = reconcile_pair(alice, bob, CascadeParams(shuffle_seed=17),
                              qber_estimate=1e-12)
print(f"  4-pass retry: verified={b_res.verified}, "
      f"corrected {b_res.errors_corrected}, leak {b_res.leaked_bits} bits")
