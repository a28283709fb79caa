"""Walk through the radio chain: power views, path loss, SINR, BER, PRR.

Shows where the usable link range sits for the default channel and why the
strategy interval [0, 25] maps onto [-25, 0] dBm.
"""

import numpy as np

from wsnpower import channel

print("== power unit views ==")
for s in (0.5, 12.5, 25.0):
    print(f"s={s:5.1f}  ->  {channel.strategy_to_dbm(s):6.1f} dBm"
          f"  =  {channel.strategy_to_mw(s):.6f} mW")

model = channel.PathLossModel()
print(f"\n== log-distance path loss (eta={model.exponent}, "
      f"{model.reference_gain_db:.0f} dB at {model.reference_distance_d0:.0f} m) ==")
for d in (1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
    g = channel.gain(model, (0.0, 0.0), (d, 0.0))
    print(f"d={d:5.1f} m  gain={10 * np.log10(g):8.2f} dB")

n0 = channel.NoiseFloor()
print(f"\nnoise floor: {n0.n0_mw:.1e} mW = {n0.dbm:.0f} dBm")

print("\n== BER and PRR against SINR (f=25 byte frames) ==")
for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
    snr = 10.0 ** (snr_db / 10.0)
    b = channel.ber(snr)
    p = channel.prr(b, 25)
    print(f"SINR={snr_db:5.1f} dB  BER={b:.5f}  PRR={p:.5f}")

print("\n== how far does a full-power link reach? ==")
full_mw = channel.strategy_to_mw(25.0)
for target in (0.9, 0.5, 0.01):
    snr_needed = channel.sinr_for_prr(target, 25)
    # invert the deterministic path loss for the distance where SINR hits it
    gain_needed = snr_needed * n0.n0_mw / full_mw
    d = model.reference_distance_d0 * (
        10.0 ** (model.reference_gain_db / 10.0) / gain_needed
    ) ** (1.0 / model.exponent)
    print(f"PRR >= {target:4.2f} out to {d:6.1f} m (needs SINR {snr_needed:9.1f})")

print("\n== interference shrinks a link ==")
positions = np.array([[0.0, 0.0], [8.0, 0.0], [10.0, 4.0]])
gains = channel.build_gain_matrix(positions, model)
powers = np.array([channel.strategy_to_mw(20.0)] * 3)
quiet = channel.prr_matrix(powers, gains, n0.n0_mw, 25, interference="none")
noisy = channel.prr_matrix(powers, gains, n0.n0_mw, 25, interference="full")
print(f"link 0->1 alone: PRR={quiet[0, 1]:.4f}")
print(f"link 0->1 with node 2 transmitting concurrently: PRR={noisy[0, 1]:.4f}")