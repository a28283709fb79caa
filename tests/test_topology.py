import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, game, topology
from conftest import N0, build_desk, random_profile
import oracles


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


def neighbors(i, profile, gains, eps, interference):
    """Node i's neighbor set at the profile's powers, from its ``_reach`` row."""
    row = topology._reach(i, profile.mw[i], profile.mw, gains, N0, 25, eps, interference)
    return set(np.flatnonzero(row).tolist())


def test_neighbor_set_matches_link_prr(desk0):
    _, gains = desk0
    profile = game.StrategyProfile.constant(10, 3.0)
    members = neighbors(0, profile, gains, 0.01, "none")
    mat = channel.prr_matrix(profile.mw, gains, N0, 25, interference="none")
    for j in range(1, 10):
        assert (j in members) == (mat[0, j] >= 0.01)
    # under concurrent interference from all nodes, membership may shrink
    assert neighbors(0, profile, gains, 0.01, "full") <= members


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
    # a finite delta whose requirement overflows
    with pytest.raises(ValueError, match="overflows"):
        topology.smallworld_threshold(80, 1e308)
    with pytest.raises(ValueError, match="overflows"):
        topology.smallworld_threshold(2, 1e308)  # finite raw, overflowing requirement


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
    assert oracles.algebraic_connectivity(_path_graph(4)) == pytest.approx(
        2.0 - math.sqrt(2.0), abs=1e-8)
    k4 = np.ones((4, 4)) - np.eye(4)
    assert oracles.algebraic_connectivity(k4) == pytest.approx(4.0, abs=1e-8)


def test_connectivity_checks_agree_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        density = rng.uniform(0.05, 0.9)
        adj = (rng.random((n, n)) < density).astype(float)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        assert oracles.is_connected_spectral(adj) == topology.is_connected_bfs(adj)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_bfs_agrees_with_spectral_check(data):
    # Random symmetric graphs from 1 node up, some with isolated nodes, and
    # chains whose BFS needs one level per node.
    draw = data.draw
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        adj = np.triu(rng.random((m, m)) < draw(st.floats(0.0, 1.0)), 1)
    else:
        adj = np.zeros((m, m), dtype=bool)
        order = rng.permutation(m)
        adj[order[:-1], order[1:]] = True
    adj = adj | adj.T
    isolated = draw(st.lists(st.integers(0, m - 1), max_size=2))
    adj[isolated, :] = adj[:, isolated] = False
    assert topology.is_connected_bfs(adj) == oracles.is_connected_spectral(adj)
    assert topology.is_connected_bfs(adj.astype(float)) == topology.is_connected_bfs(adj)


def test_connectivity_edge_cases():
    assert oracles.is_connected_spectral(np.zeros((1, 1)))
    assert topology.is_connected_bfs(np.zeros((1, 1)))
    assert not topology.is_connected_bfs(np.zeros((2, 2)))
    assert topology.is_connected_bfs(np.ones((2, 2)) - np.eye(2))
    with pytest.raises(ValueError, match="empty adjacency"):
        topology.is_connected_bfs(np.zeros((0, 0)))
    disconnected = np.zeros((3, 3))
    disconnected[0, 1] = disconnected[1, 0] = 1.0
    assert not oracles.is_connected_spectral(disconnected)
    assert not topology.is_connected_bfs(disconnected)
    assert oracles.is_connected_spectral(_path_graph(6))
    assert topology.is_connected_bfs(_path_graph(6))

@pytest.mark.parametrize("interference", ["none", "full"])
def test_prr_rows_share_one_kernel(interference):
    # prr_matrix and the _reach rows behind degree_at_power are rows of
    # channel._prr_rows, and the game's PRR tables hold columns of such rows,
    # all over the same denominators, so they agree bitwise for the same own
    # power.  Membership is checked at every row value and the next float
    # above it, which flips if any entry differs in its last bit.
    topo = topology.random_topology(40, area=(60.0, 60.0), seed=5)
    gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
    profile = random_profile(np.random.default_rng(3), m=40)
    params = game.GameParams(interference=interference)
    mat = channel.prr_matrix(profile.mw, gains, N0, 25, interference)
    denoms = channel._denominators(slice(None), profile.mw, gains, N0, interference)
    nodes = np.arange(40)
    assert mat.tobytes() == channel._prr_rows(slice(None), profile.mw, gains, denoms,
                                              25).tobytes()
    env = game._Environment(profile, gains, N0, params)
    mw, table = env.prr_table(nodes, profile.s)
    assert mat.tobytes() == channel._prr_rows(nodes, mw, gains, denoms, 25).tobytes()
    at_s_max = channel._prr_rows(nodes, np.full(40, channel.strategy_to_mw([25.0])[0]), gains,
                                 denoms, 25)
    # degree_at_power, the game and the profile (and so prr_matrix) all
    # convert s to mW as a 1-D array, so the rows agree for every node: the
    # game's table holds a node's candidate columns, bitwise the matrix row's
    # entries there, then pads of 0; every column it drops is below epsilon
    # at s_max.
    for i in range(40):
        columns = env.columns[i] if env.pads is None else env.columns[i][~env.pads[i]]
        assert i not in columns.tolist() and np.all(np.diff(columns) > 0)
        assert table[i, :columns.size].tobytes() == mat[i, columns].tobytes()
        assert not table[i, columns.size:].any()
        assert np.all(np.delete(at_s_max[i], columns) < params.epsilon_link)
        # a one-node environment (a coupled best response) builds the same row
        one = game._Environment(profile, gains, N0, params, i)
        assert one.columns.tobytes() == columns.tobytes()
        assert one.prr_table([i], [profile.s[i]])[1][0].tobytes() == (
            table[i, :columns.size].tobytes())
        thresholds = np.concatenate([mat[i], np.nextafter(mat[i], np.inf)])
        for eps in thresholds[(thresholds > 0.0) & (thresholds <= 1.0)]:
            reached = set(np.flatnonzero(mat[i] >= eps).tolist())
            assert neighbors(i, profile, gains, eps, interference) == reached
            assert topology.degree_at_power(i, profile.s[i], profile, gains, N0, 25, eps,
                                            interference) == len(reached)


SLACK = topology._BREAKPOINT_SLACK


def _check_floors(profile, gains, eps, interference):
    """Every node's floor for every k against the degree it is the floor of.

    At the floor the degree is at least k, both by ``degree_at_power`` and by
    the game's PRR table; 2 * slack below a floor above s_min it is short of
    k; an INFEASIBLE floor leaves it short of k at s_max - 2 * slack.  And
    the group's ``_Environment.strategy_sets`` feasibility, the finiteness
    of its floors, agrees with each per-node floor being finite.
    """
    m = gains.shape[0]
    for k in range(m + 1):
        params = game.GameParams(epsilon_link=eps, interference=interference, degree_target=k)
        env = game._Environment(profile, gains, N0, params)
        floors = [topology.min_power_for_degree(i, profile, gains, N0, 25, eps, k,
                                                interference) for i in range(m)]
        assert env.strategy_sets[2].tolist() == [
            f != topology.INFEASIBLE for f in floors]
        for i, floor in enumerate(floors):

            def degree(s):
                return topology.degree_at_power(i, s, profile, gains, N0, 25, eps, interference)

            if k == 0:
                assert floor == profile.s_min
            elif floor == topology.INFEASIBLE:
                assert degree(profile.s_max - 2 * SLACK) < k
            else:
                assert profile.s_min <= floor <= profile.s_max
                assert degree(floor) >= k
                assert env.degrees([i], [floor])[0] >= k
                if floor > profile.s_min:
                    assert degree(floor - 2 * SLACK) < k


def _floor_case(name):
    """(gains, epsilon_link) for one floor edge case."""
    if name == "isolated":
        # the last node sits out of everyone's range at any power
        pos = np.vstack([topology.random_topology(8, area=(30.0, 30.0), seed=2).positions,
                         [[900.0, 900.0]]])
        return channel.build_gain_matrix(pos, channel.PathLossModel()), 0.01
    if name == "s-max-breakpoint":
        # node 0 reaches node 1 with PRR epsilon at s = s_max - slack / 2 and
        # the others far later, so its floor for k = 1 is clamped to s_max
        gains = build_desk(1, m=6)[1]
        s_eps = channel.sinr_for_prr(0.01, 25)
        g = s_eps * N0 / channel.strategy_to_mw(channel.STRATEGY_MAX - SLACK / 2)
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
                                  "s-max-breakpoint"])
def test_floor_is_the_kth_breakpoint(case, interference):
    gains, eps = _floor_case(case)
    m = gains.shape[0]
    for profile in (game.StrategyProfile.full_power(m),
                    random_profile(np.random.default_rng(13), m=m)):
        _check_floors(profile, gains, eps, interference)
    if case == "s-max-breakpoint":
        full = game.StrategyProfile.full_power(m)
        assert topology.min_power_for_degree(0, full, gains, N0, 25, eps, 1) == full.s_max


def test_floor_and_feasibility_agree_across_s_max():
    # Node 0's first membership breakpoint b_1 moves across s_max in 41 steps
    # of 1e-15, from s_max - 2e-14 to s_max + 2e-14.  Within the slack below
    # s_max its one link's PRR at s_max can fall a few ulps short of epsilon;
    # the floor, the feasibility flag and the best response still agree.
    s_eps = channel.sinr_for_prr(0.01, 25)
    full = game.StrategyProfile.full_power(6)
    params = game.GameParams(degree_target=1)
    flags = []
    for step in range(-20, 21):
        gains = build_desk(1, m=6)[1]
        g = s_eps * N0 / channel.strategy_to_mw(full.s_max + step * 1e-15)
        gains[0, 1] = gains[1, 0] = g
        gains[0, 2:] = gains[2:, 0] = g * 1e-3
        floor = topology.min_power_for_degree(0, full, gains, N0, 25, 0.01, 1)
        feasible = bool(game._Environment(full, gains, N0, params).strategy_sets[2][0])
        assert floor == (full.s_max if feasible else topology.INFEASIBLE)
        assert game.best_response(0, full, gains, N0, params) == (
            full.s_max if feasible else full.s_min)
        flags.append(feasible)
    # the probe crosses the edge
    assert flags[0] and not flags[-1]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_floor_is_the_kth_breakpoint_on_random_layouts(data):
    m = data.draw(st.integers(2, 12), label="m")
    side = data.draw(st.floats(10.0, 200.0), label="side")
    sigma = data.draw(st.sampled_from([0.0, 4.0, 8.0]), label="sigma")
    eps = data.draw(st.sampled_from([0.01, 0.5, 0.9, 1e-62]), label="eps")
    interference = data.draw(st.sampled_from(["none", "full"]), label="interference")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    topo = topology.random_topology(m, area=(side, side), seed=seed)
    gains = channel.build_gain_matrix(
        topo.positions, channel.PathLossModel(shadowing_sigma_db=sigma, seed=seed))
    profile = random_profile(np.random.default_rng(seed), m=m)
    _check_floors(profile, gains, eps, interference)


def _floors(env):
    """The degree floors of the environment's strategy sets, INFEASIBLE for an
    infeasible node, as ``topology.min_power_for_degree`` gives them."""
    _, lower, feasible = env.strategy_sets
    return np.where(feasible, lower, topology.INFEASIBLE)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_group_floors_equal_per_node_floor(data):
    # The floors of ``_Environment.strategy_sets`` over every node, read in
    # any order, and over one node in its own environment, bitwise the
    # one-row min_power_for_degree.
    # In most draws node f's first k links enter just under s_max, where its
    # degree at s_max decides the floor.
    draw = data.draw
    m = draw(st.integers(2, 12), label="m")
    k = draw(st.integers(0, m + 1), label="k")
    eps = draw(st.sampled_from([0.01, 0.5, 1e-62]), label="eps")
    interference = draw(st.sampled_from(["none", "full"]), label="interference")
    seed = draw(st.integers(0, 2**16), label="seed")
    topo = topology.random_topology(m, area=(draw(st.floats(10.0, 200.0)),) * 2, seed=seed)
    gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel(seed=seed))
    profile = (game.StrategyProfile.full_power(m) if draw(st.booleans())
               else random_profile(np.random.default_rng(seed), m=m))
    s_eps = channel.sinr_for_prr(eps, 25)
    forced = 1 <= k <= m - 1 and s_eps > 0.0 and draw(st.integers(0, 3), label="forced") > 0
    if forced:
        f = draw(st.integers(0, m - 1), label="f")
        offset = draw(st.sampled_from([SLACK / 2, 1e-12, 1e-14, 2e-15, 0.0, -2e-15]))
        # node f's own power never enters its receivers' denominators
        others = np.arange(m) != f
        denom = channel._denominators(f, profile.mw, gains, N0, interference)[others]
        g = s_eps * denom / channel.strategy_to_mw(profile.s_max - offset)
        g[k:] *= 1e-3
        gains[f, others] = gains[others, f] = g
    params = game.GameParams(epsilon_link=eps, interference=interference, degree_target=k)
    want = [topology.min_power_for_degree(i, profile, gains, N0, 25, eps, k, interference)
            for i in range(m)]
    nodes = draw(st.permutations(range(m)))
    floors = _floors(game._Environment(profile, gains, N0, params))[nodes]
    assert floors.tolist() == [want[i] for i in nodes]
    for i in nodes:
        alone = game._Environment(profile, gains, N0, params, i)
        assert _floors(alone).tolist() == [want[i]]
        # the node's breakpoints as one 1-D row, as the scalar search takes them
        assert topology._degree_floors(profile, k, alone.strategy_sets[0][0], lambda rows: (
            alone.degrees([i], [profile.s_max]))).tolist() == want[i]
    if forced and offset == SLACK / 2:
        assert want[f] == profile.s_max
