"""Walk through the entangled-pair channel model.

Shows the analytic correlation structure of the source, then samples a
few hundred thousand pairs and checks that the simulated detector
statistics reproduce it: anti-correlation in the key basis, the CHSH
combination at the paper-like operating point, and the 1/2 - 1/4 - 1/4
routing split between Bell test, key, and discard.
"""

import numpy as np

from bellqkd.physics import (
    ALICE_ANGLES,
    ALICE_DETECTORS,
    BOB_ANGLES,
    BOB_DETECTORS,
    AliceSetting,
    AttackConfig,
    BobSetting,
    ChannelConfig,
    analytic_chsh,
    analytic_qber,
    generate_event_streams,
    joint_probability,
    singlet_correlation,
)
from bellqkd.sifting import (
    CoincidenceClass,
    chsh_value,
    classify,
    count_coincidences,
    extract_raw_key,
    qber,
)
from bellqkd.timetag import WindowConfig, find_delay, match_coincidences

print("=== analyzer settings ===")
for s in AliceSetting:
    print(f"  Alice {s.name:7s} {ALICE_ANGLES[s]:6.1f} deg -> detectors {ALICE_DETECTORS[s]}")
for s in BobSetting:
    print(f"  Bob   {s.name:7s} {BOB_ANGLES[s]:6.1f} deg -> detectors {BOB_DETECTORS[s]}")

print("\n=== singlet correlations, E = -V cos 2(a - b) ===")
pairs = [(AliceSetting.KEY, BobSetting.KEY),
         (AliceSetting.BELL_1, BobSetting.KEY),
         (AliceSetting.BELL_1, BobSetting.DIAG),
         (AliceSetting.BELL_2, BobSetting.KEY),
         (AliceSetting.BELL_2, BobSetting.DIAG)]
for sa, sb in pairs:
    ta = ALICE_ANGLES[sa]
    tb = BOB_ANGLES[sb]
    e = singlet_correlation(ta, tb)
    print(f"  E({sa.name:6s},{sb.name:4s}) = {e:+.4f}   "
          f"P(+,+) = {joint_probability(ta, tb)[1, 1]:.4f}")

print("\nideal |S| =", abs(analytic_chsh(ChannelConfig(visibility_hv=1.0, visibility_diag=1.0))))
paper = ChannelConfig()   # V_hv = 0.94, V_diag = 0.8839: the operating point
print(f"paper-like |S| = {abs(analytic_chsh(paper)):.4f}   "
      f"analytic QBER = {analytic_qber(paper):.4f}")

print("\n=== sampling 3 s at the operating point ===")
channel = ChannelConfig(pair_rate=100_000, loss_db_bob=0.0, background_rate=0.0,
                        jitter_sigma=0.0, duration=3.0, rng_seed=42)
ev = generate_event_streams(channel, AttackConfig(), ground_truth=False)
wcfg = WindowConfig()
delay = find_delay(ev.alice_ticks, ev.bob_ticks, wcfg).delay_ticks
ia, ib = match_coincidences(ev.alice_ticks, ev.bob_ticks, delay, wcfg)
a_det, b_det = ev.alice_detectors[ia], ev.bob_detectors[ib]
print(f"  {len(ia)} coincidences")

cls = np.asarray(classify(a_det, b_det))
for c in CoincidenceClass:
    frac = (cls == int(c)).mean()
    print(f"  {c.name:8s} {frac:.4f}  (target {0.5 if c == CoincidenceClass.BELL else 0.25})")

bell = chsh_value(count_coincidences(a_det, b_det))
print(f"\n  measured S = {bell.s_value:+.4f} +- {bell.standard_error:.4f}")
print(f"  term correlations: {[f'{e:+.3f}' for e in bell.terms]}")

key = cls == int(CoincidenceClass.KEY)
ka, kb = extract_raw_key(a_det[key], b_det[key])
print(f"  raw key: {len(ka)} bits, QBER = {qber(ka, kb):.4f} "
      f"(analytic {analytic_qber(channel):.4f})")
