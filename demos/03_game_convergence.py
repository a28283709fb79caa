"""Sequential best-response dynamics on a dense bench-top layout.

The per-node utility trades a log reliability benefit against a quadratic
power cost; summing utilities gives an exact potential, so each unilateral
improvement raises one global number and the dynamics must settle.
"""

import numpy as np

from wsnpower import channel, game, topology

topo = topology.random_topology(10, area=(4.0, 4.0), seed=0)
gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
n0 = channel.NoiseFloor().n0_mw
params = game.GameParams()

print("== solve from full power ==")
result = game.solve(game.StrategyProfile.full_power(10), gains, n0, params)
print(f"converged={result.converged} sweeps_used={result.sweeps_used}, "
      f"non-unimodal flags={result.nonunimodal_events}")
print("potential trace:", " -> ".join(f"{v:.4f}" for v in result.potential_trace))
print("equilibrium s:", np.round(result.profile.s, 3))
print("equilibrium dBm:", np.round(result.profile.dbm, 2))

print("\n== the same point from random starting profiles ==")
rng = np.random.default_rng(1)
finals = []
for rep in range(5):
    start = game.StrategyProfile(rng.uniform(0.5, 25.0, 10))
    res = game.solve(start, gains, n0, params)
    finals.append(res.profile.s)
    print(f"start {rep}: sweeps={res.sweeps_used} "
          f"final potential={res.potential_trace[-1]:.6f}")
stack = np.stack(finals)
print(f"max coordinate spread across starts: "
      f"{np.max(stack.max(axis=0) - stack.min(axis=0)):.2e}")

print("\n== no profitable unilateral deviation remains ==")
passed, worst = game.verify_equilibrium(result.profile, gains, n0, params)
print(f"grid verification passed={passed}, best improvement found={worst:.2e}")

print("\n== the exact potential property, numerically ==")
prof = game.StrategyProfile(rng.uniform(0.5, 25.0, 10))
for _ in range(3):
    i = int(rng.integers(0, 10))
    s_new = float(rng.uniform(0.5, 25.0))
    res = game.exact_potential_residual(prof, i, s_new, gains, n0, params)
    print(f"node {i} moves {prof.s[i]:.2f} -> {s_new:.2f}: "
          f"|delta u - delta V| = {res:.2e}")