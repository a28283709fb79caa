"""Discrete power levels: rounding a continuous solution vs playing the game
natively on the grid, plus mapping levels onto transceiver register ids.
"""

import numpy as np

from wsnpower import channel, game, topology
from wsnpower.quantize import (DiscreteLevelSet, RegisterMap,
                               discretize_profile, solve_discrete, to_register)

topo = topology.random_topology(10, area=(4.0, 4.0), seed=0)
gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
n0 = channel.NoiseFloor().n0_mw
params = game.GameParams()
levels = DiscreteLevelSet()

print(f"level grid: {len(levels.levels_dbm)} steps "
      f"from {levels.levels_dbm[0]:.0f} to {levels.levels_dbm[-1]:.0f} dBm")

continuous = game.solve(game.StrategyProfile.full_power(10), gains, n0, params)
rounded = discretize_profile(continuous.profile, levels)
native = solve_discrete(game.StrategyProfile.full_power(10), gains, n0, params, levels)

print("\nnode  continuous dBm  rounded dBm  native-grid dBm")
for i in range(10):
    print(f"{i:4d}  {continuous.profile.dbm[i]:13.3f}  "
          f"{rounded.dbm[i]:11.0f}  {native.profile.dbm[i]:15.0f}")
print(f"\nnative grid game: converged={native.converged} "
      f"sweeps_used={native.sweeps_used}")

err = np.abs(rounded.dbm - continuous.profile.dbm)
print(f"rounding error: max {err.max():.3f} dB (bound 0.5 dB on the grid span)")


def mean_mw(profile):
    return float(np.mean(profile.mw))


print(f"\nmean transmit power: continuous {mean_mw(continuous.profile):.5f} mW, "
      f"rounded {mean_mw(rounded):.5f} mW, native {mean_mw(native.profile):.5f} mW")

print("\n== an 8-entry PA register table ==")
rmap = RegisterMap.eight_level_default()
for dbm_value, reg in rmap.pairs:
    print(f"{dbm_value:6.0f} dBm -> register {reg}")
print("\nrounded solution mapped onto the table:")
for i in range(10):
    d = float(rounded.dbm[i])
    print(f"node {i}: {d:6.0f} dBm -> register {to_register(d, rmap)}")