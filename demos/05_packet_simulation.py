"""Seeded Bernoulli packet runs over the analytic link rates: first-attempt
PRR vs delivery ratio with retries, energy per attempt, link quality classes.
"""

import numpy as np

from wsnpower import channel, game, packetsim, topology

topo = topology.random_topology(10, area=(4.0, 4.0), seed=0)
gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
n0 = channel.NoiseFloor().n0_mw
params = game.GameParams()

profile = game.solve(game.StrategyProfile.full_power(10), gains, n0, params).profile

# One analytic PRR matrix at the profile's powers feeds every packet stage.
mat = channel.prr_matrix(profile.mw, gains, n0, params.f_bytes)
traffic = packetsim.TrafficConfig(messages_per_node=200, max_retries=30, seed=0)
links = packetsim.best_prr_receivers(mat, params.epsilon_link)
print("fixed receiver per sender:", links)

log = packetsim.simulate(profile, mat, traffic, links)
metrics = packetsim.build_metrics(log)

print(f"\nmessages: {len(log.records)}, empty senders: {metrics.empty_neighborhood_senders}")
print(f"first-attempt avg PRR: {metrics.avg_prr:.4f}")
print(f"delivery ratio with retries: {metrics.delivery_ratio:.4f}")
print(f"relative energy per attempt (1.0 = always 0 dBm): {metrics.relative_energy:.4f}")
good, mid, bad = metrics.link_class_fractions
print(f"link classes: good={good:.2f} intermediate={mid:.2f} bad={bad:.2f}")

print("\nper-link first-attempt PRR:")
for (i, j), v in sorted(metrics.per_link_prr.items()):
    print(f"  {i} -> {j}: {v:.3f}")

print("\n== retries only help the delivery ratio, never the measured PRR ==")
weak_target = min(metrics.per_link_prr.items(), key=lambda kv: kv[1])
print(f"weakest simulated link {weak_target[0]}: "
      f"analytic {mat[weak_target[0]]:.3f}, empirical {weak_target[1]:.3f}")

short = packetsim.TrafficConfig.testbed(messages_per_node=200, seed=0)
log_short = packetsim.simulate(profile, mat, short, links)
m_short = packetsim.build_metrics(log_short)
print(f"\nhardware-style budget (3 retries): "
      f"avg PRR {m_short.avg_prr:.4f}, delivery {m_short.delivery_ratio:.4f}")

print("\n== round-robin receivers exercise every neighbor ==")
rr = packetsim.round_robin_receivers(mat, params.epsilon_link, traffic.messages_per_node)
log_rr = packetsim.simulate(profile, mat, traffic, rr)
m_rr = packetsim.build_metrics(log_rr)
print(f"links observed: best-prr {len(metrics.per_link_prr)}, "
      f"round-robin {len(m_rr.per_link_prr)}")

cdf = packetsim.link_cdf(m_rr.per_link_prr)
lo = cdf["cdf_points"][0]
hi = cdf["cdf_points"][-1]
print(f"PRR CDF from {lo[0]:.3f} (fraction {lo[1]:.2f}) "
      f"to {hi[0]:.3f} (fraction {hi[1]:.2f})")