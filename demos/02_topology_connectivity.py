"""Random layouts, neighbor sets, degree thresholds, and two connectivity
checks (BFS reachability vs the algebraic connectivity of the Laplacian).
"""

import math

import numpy as np

from wsnpower import channel, game, topology


def algebraic_connectivity(adj):
    """lambda_2, the second-smallest eigenvalue of the Laplacian D - A."""
    a = np.asarray(adj, dtype=float)
    return np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1]


topo = topology.random_topology(80, area=(100.0, 100.0), seed=0)
model = channel.PathLossModel()
gains = channel.build_gain_matrix(topo.positions, model)
n0 = channel.NoiseFloor().n0_mw

print(f"{topo.node_count} nodes on {topo.area[0]:.0f} x {topo.area[1]:.0f} m")

print("\n== degree thresholds for asymptotic connectivity ==")
print(f"random geometric graph bound: 5.1774 ln(n) = "
      f"{5.1774 * math.log(80):.2f} neighbors")
sw = topology.smallworld_threshold(80, 0.1)
print(f"small-world rule: m={sw.m_nearest} nearest + Np={sw.shortcut_expectation:.1f} "
      f"shortcuts -> degree requirement {sw.degree_requirement()}")

print("\n== neighbor sets grow with power ==")
full = game.StrategyProfile.full_power(80)
for s in (5.0, 10.0, 15.0, 20.0, 25.0):
    degrees = [topology.degree_at_power(i, s, full, gains, n0, 25, 0.01)
               for i in range(80)]
    print(f"s={s:5.1f}: degree min={min(degrees):2d} "
          f"mean={np.mean(degrees):5.1f} max={max(degrees):2d}")

print("\n== minimum power to reach k=6 neighbors ==")
floors = [topology.min_power_for_degree(i, full, gains, n0, 25, 0.01, 6)
          for i in range(80)]
finite = [f for f in floors if f != topology.INFEASIBLE]
print(f"feasible nodes: {len(finite)}/80, "
      f"floor range [{min(finite):.2f}, {max(finite):.2f}]")

print("\n== connectivity at uniform power levels ==")
for s in (5.0, 7.0, 9.0, 25.0):
    prof = game.StrategyProfile.constant(80, s)
    adj = topology.adjacency(channel.prr_matrix(prof.mw, gains, n0, 25), 0.01)
    bfs = topology.is_connected_bfs(adj)
    lam2 = algebraic_connectivity(adj)
    print(f"s={s:5.1f}: connected(BFS)={bfs!s:5}  lambda_2={lam2:.4f}")

print("\nclosed forms as a sanity anchor:")
path4 = np.zeros((4, 4))
for i in range(3):
    path4[i, i + 1] = path4[i + 1, i] = 1.0
print(f"lambda_2(path-4) = {algebraic_connectivity(path4):.6f}"
      f"  (exact 2 - sqrt(2) = {2 - np.sqrt(2):.6f})")
print(f"lambda_2(K4)     = {algebraic_connectivity(np.ones((4, 4)) - np.eye(4)):.6f}")