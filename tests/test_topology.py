import json
import math

import numpy as np
import pytest

from wsnpower import channel, game, topology
from conftest import N0, build_desk, random_profile


def test_random_topology_basic():
    topo = topology.random_topology(2, area=(10.0, 10.0), seed=42)
    assert topo.node_count == 2
    assert not np.array_equal(topo.positions[0], topo.positions[1])
    assert np.all(topo.positions >= 0)
    assert np.all(topo.positions[:, 0] <= 10.0)
    assert np.all(topo.positions[:, 1] <= 10.0)
    with pytest.raises(ValueError):
        topology.random_topology(1, area=(10.0, 10.0), seed=0)


def test_random_topology_seed_determinism():
    a = topology.random_topology(20, area=(50.0, 50.0), seed=5)
    b = topology.random_topology(20, area=(50.0, 50.0), seed=5)
    c = topology.random_topology(20, area=(50.0, 50.0), seed=6)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_random_topology_uniform_mean():
    # over many seeds the empirical mean position approaches the area center
    means = [
        topology.random_topology(80, area=(100.0, 100.0), seed=s).positions.mean(axis=0)
        for s in range(50)
    ]
    grand = np.mean(means, axis=0)
    assert np.linalg.norm(grand - [50.0, 50.0]) < 10.0


def test_topology_json_round_trip(tmp_path):
    topo = topology.random_topology(12, area=(30.0, 20.0), seed=9)
    data = topology.topology_to_json_dict(topo)
    assert {row["id"] for row in data["nodes"]} == set(range(12))
    back = topology.topology_from_json_dict(data)
    assert np.array_equal(back.positions, topo.positions)
    assert back.area == topo.area and back.seed == topo.seed

    path = tmp_path / "topo.json"
    topology.save_topology(topo, path)
    loaded = topology.load_topology(path)
    assert np.array_equal(loaded.positions, topo.positions)
    # ids must be a relabeling-free 0..M-1 sequence
    data["nodes"][0]["id"] = 99
    with pytest.raises(ValueError):
        topology.topology_from_json_dict(data)


def test_positions_must_lie_in_area():
    with pytest.raises(ValueError):
        topology.Topology(positions=np.array([[0.0, 0.0], [11.0, 1.0]]),
                          area=(10.0, 10.0), seed=0)


def test_neighbor_set_validation():
    with pytest.raises(ValueError):
        topology.NeighborSet(owner=1, members=frozenset({1, 2}), epsilon_link=0.01)
    with pytest.raises(ValueError):
        topology.NeighborSet(owner=0, members=frozenset(), epsilon_link=0.0)
    ns = topology.NeighborSet(owner=0, members=frozenset({1}), epsilon_link=0.01)
    assert 0 not in ns.members


def test_neighbor_set_matches_link_prr(desk0):
    _, gains = desk0
    profile = game.StrategyProfile.constant(10, 3.0)
    ns = topology.neighbor_set(0, profile, gains, N0, 25, 0.01)
    mat = channel.prr_matrix(profile.mw, gains, N0, 25, interference="none")
    for j in range(1, 10):
        assert (j in ns.members) == (mat[0, j] >= 0.01)
    # under concurrent interference from all nodes, membership may shrink
    ns_full = topology.neighbor_set(0, profile, gains, N0, 25, 0.01,
                                    interference="full")
    assert ns_full.members <= ns.members


def test_degree_monotone_in_own_power():
    rng = np.random.default_rng(11)
    for _ in range(100):
        seed = int(rng.integers(0, 1000))
        _, gains = build_desk(seed)
        profile = game.StrategyProfile(rng.uniform(0.5, 25.0, size=10))
        i = int(rng.integers(0, 10))
        lo, hi = np.sort(rng.uniform(0.5, 25.0, size=2))
        d_lo = topology.degree_at_power(i, lo, profile, gains, N0, 25, 0.01)
        d_hi = topology.degree_at_power(i, hi, profile, gains, N0, 25, 0.01)
        assert d_lo <= d_hi


def test_rgg_threshold_values():
    assert topology.rgg_degree_threshold(80) == pytest.approx(22.687504698360555, rel=1e-12)
    # changing the log base only rescales
    assert topology.rgg_degree_threshold(80, log_base=10.0) == pytest.approx(
        22.687504698360555 / math.log(10.0), rel=1e-12)
    with pytest.raises(ValueError):
        topology.rgg_degree_threshold(1)


def test_smallworld_threshold_values():
    sw = topology.smallworld_threshold(80, 0.1)
    assert sw.m_nearest == 4  # ceil(1.1 * sqrt(2 ln 80)) = ceil(3.2565)
    tiny = topology.smallworld_threshold(2, 1e-12)
    assert tiny.m_nearest == 2  # ceil(sqrt(2 ln 2)) = ceil(1.1774)
    # degree requirement is the smallest integer strictly above m + N p
    assert sw.degree_requirement() == math.floor(sw.m_nearest + sw.shortcut_expectation) + 1
    with pytest.raises(ValueError):
        topology.smallworld_threshold(1, 0.1)
    with pytest.raises(ValueError):
        topology.smallworld_threshold(80, -0.2)


def test_min_power_for_degree_bisection(desk0):
    _, gains = desk0
    profile = game.StrategyProfile.full_power(10)
    for k in (1, 3, 6, 9):
        s_min_k = topology.min_power_for_degree(0, profile, gains, N0, 25, 0.01, k)
        assert s_min_k != topology.INFEASIBLE
        assert topology.degree_at_power(0, s_min_k, profile, gains, N0, 25, 0.01) >= k
        if s_min_k > profile.s_min + 1e-5:
            below = s_min_k - 1e-4
            assert topology.degree_at_power(0, below, profile, gains, N0, 25, 0.01) < k


def test_min_power_for_degree_edge_cases(desk0):
    _, gains = desk0
    profile = game.StrategyProfile.full_power(10)
    # no requirement: the floor is the lower strategy bound
    assert topology.min_power_for_degree(0, profile, gains, N0, 25, 0.01, 0) == profile.s_min
    # more neighbors than nodes exist: unattainable at any power
    assert topology.min_power_for_degree(0, profile, gains, N0, 25, 0.01, 10) == topology.INFEASIBLE
    assert math.isinf(topology.INFEASIBLE)


def test_min_power_infeasible_when_isolated():
    # two nodes too far apart to ever close a 1% link
    positions = np.array([[0.0, 0.0], [900.0, 0.0]])
    gains = channel.build_gain_matrix(positions, channel.PathLossModel())
    profile = game.StrategyProfile.full_power(2)
    assert topology.min_power_for_degree(0, profile, gains, N0, 25, 0.01, 1) == topology.INFEASIBLE


def test_adjacency_symmetric_and_thresholded(desk0):
    _, gains = desk0
    profile = game.StrategyProfile(np.linspace(0.5, 25.0, 10))
    adj = topology.adjacency(channel.prr_matrix(profile.mw, gains, N0, 25), 0.01)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    mat = channel.prr_matrix(profile.mw, gains, N0, 25)
    for i in range(10):
        for j in range(i + 1, 10):
            expect = (mat[i, j] >= 0.01) and (mat[j, i] >= 0.01)
            assert bool(adj[i, j]) == expect


def _path_graph(n):
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def test_algebraic_connectivity_closed_forms():
    # path on 4 vertices: lambda_2 = 2 - sqrt(2); complete graph K4: lambda_2 = 4
    assert topology.algebraic_connectivity(_path_graph(4)) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-8)
    k4 = np.ones((4, 4)) - np.eye(4)
    assert topology.algebraic_connectivity(k4) == pytest.approx(4.0, abs=1e-8)


def test_connectivity_checks_agree_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        density = rng.uniform(0.05, 0.9)
        adj = (rng.random((n, n)) < density).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        assert topology.is_connected_spectral(adj) == topology.is_connected_bfs(adj)


def test_connectivity_edge_cases():
    assert topology.is_connected_spectral(np.zeros((1, 1)))
    disconnected = np.zeros((3, 3))
    disconnected[0, 1] = disconnected[1, 0] = 1.0
    assert not topology.is_connected_spectral(disconnected)
    assert not topology.is_connected_bfs(disconnected)
    assert topology.is_connected_spectral(_path_graph(6))
    assert topology.is_connected_bfs(_path_graph(6))

@pytest.mark.parametrize("interference", ["none", "full"])
def test_prr_rows_share_one_kernel(interference):
    # prr_matrix, the rows behind neighbor_set/degree_at_power and the game's
    # PRR tables are all rows of channel._prr_rows over the same
    # denominators, so they agree bitwise for the same own power.  Membership
    # is checked at every row value and the next float above it, which flips
    # if any entry differs in its last bit.
    topo = topology.random_topology(40, area=(60.0, 60.0), seed=5)
    gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
    profile = random_profile(np.random.default_rng(3), m=40)
    params = game.GameParams(interference=interference)
    mat = channel.prr_matrix(profile.mw, gains, N0, 25, interference)
    denoms = channel._denominators(slice(None), profile.mw, gains, N0, interference)
    nodes = np.arange(40)
    assert mat.tobytes() == channel._prr_rows(slice(None), profile.mw, gains, denoms,
                                              25).tobytes()
    mw, table = game._Environment(profile, gains, N0, params).prr_table(nodes, profile.s)
    assert table.tobytes() == channel._prr_rows(nodes, mw, gains, denoms, 25).tobytes()
    assert np.count_nonzero(np.diag(table)) == 0
    # degree_at_power and the game convert s to mW one scalar at a time, the
    # profile (and so prr_matrix) as an array; the two can differ in the last
    # bit, and then so do the rows.
    same_mw = np.array([float(channel.strategy_to_mw(s)) for s in profile.s]) == profile.mw
    assert np.count_nonzero(same_mw) >= 30
    for i in range(40):
        row = game._Environment(profile, gains, N0, params).prr_table([i], [profile.s[i]])[1][0]
        # a one-node environment (a coupled best response) builds the same row
        one = game._Environment(profile, gains, N0, params, i).prr_table([i], [profile.s[i]])
        assert one[1][0].tobytes() == row.tobytes()
        if same_mw[i]:
            assert row.tobytes() == mat[i].tobytes()
        else:
            np.testing.assert_allclose(row, mat[i], rtol=1e-13, atol=0.0)
        thresholds = np.concatenate([mat[i], np.nextafter(mat[i], np.inf)])
        for eps in thresholds[(thresholds > 0.0) & (thresholds <= 1.0)]:
            reached = set(np.flatnonzero(mat[i] >= eps).tolist())
            ns = topology.neighbor_set(i, profile, gains, N0, 25, eps, interference)
            assert ns.members == reached
            if same_mw[i]:
                assert topology.degree_at_power(i, profile.s[i], profile, gains, N0, 25, eps,
                                                interference) == len(reached)


def _bisect_floor(i, profile, gains, eps, k, interference, tol=1e-6):
    """Bisection that asks degree_at_power at every step."""
    lo, hi = profile.s_min, profile.s_max
    if k == 0:
        return lo

    def deg(s):
        return topology.degree_at_power(i, s, profile, gains, N0, 25, eps, interference)

    if deg(hi) < k:
        return topology.INFEASIBLE
    if deg(lo) >= k:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if deg(mid) >= k:
            hi = mid
        else:
            lo = mid
    return hi


def _floor_case(name):
    """(gains, epsilon_link) for one floor edge case."""
    if name == "isolated":
        # the last node sits out of everyone's range at any power
        pos = np.vstack([topology.random_topology(8, area=(30.0, 30.0), seed=2).positions,
                         [[900.0, 900.0]]])
        return channel.build_gain_matrix(pos, channel.PathLossModel()), 0.01
    if name == "midpoint":
        # node 0 reaches node 1 with PRR exactly epsilon at s = 12.75, the
        # first bisection midpoint, so the floor search lands on a breakpoint
        gains = build_desk(1, m=6)[1]
        g = channel.sinr_for_prr(0.01, 25) * N0 / channel.strategy_to_mw(12.75)
        gains[0, 1] = gains[1, 0] = g
        gains[0, 2:] = gains[2:, 0] = g * 1e-3
        return gains, 0.01
    m, side, sigma, eps = {
        "spread": (12, 50.0, 0.0, 0.01),
        "eps-1e-62": (8, 50.0, 0.0, 1e-62),   # sinr_for_prr returns 0: every link counts
        "shadowed": (12, 50.0, 4.0, 0.01),
        "two-nodes": (2, 20.0, 0.0, 0.01),
    }[name]
    topo = topology.random_topology(m, area=(side, side), seed=7)
    model = channel.PathLossModel(shadowing_sigma_db=sigma, seed=7)
    return channel.build_gain_matrix(topo.positions, model), eps


@pytest.mark.parametrize("interference", ["none", "full"])
@pytest.mark.parametrize("case", ["spread", "eps-1e-62", "isolated", "shadowed", "two-nodes",
                                  "midpoint"])
def test_floor_equals_plain_bisection(case, interference):
    gains, eps = _floor_case(case)
    m = gains.shape[0]
    profiles = [game.StrategyProfile.full_power(m),
                random_profile(np.random.default_rng(13), m=m)]
    for profile in profiles:
        for i in range(m):
            for k in range(m + 1):
                got = topology.min_power_for_degree(i, profile, gains, N0, 25, eps, k,
                                                    interference)
                want = _bisect_floor(i, profile, gains, eps, k, interference)
                assert got == want
        for target in (0, min(3, m - 1), m):
            params = game.GameParams(epsilon_link=eps, interference=interference,
                                     degree_target=target)
            assert game._per_node_feasible(profile, gains, N0, params) == [
                topology.min_power_for_degree(i, profile, gains, N0, 25, eps, target,
                                              interference) != topology.INFEASIBLE
                for i in range(m)]
