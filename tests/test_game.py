import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, game, topology
from wsnpower.quantize import DiscreteLevelSet, _level_steps, solve_discrete
from conftest import DESK_M, DESK_SEEDS, N0, build_desk, random_profile

# log10(1 + 9 * 0.5) - (12.5 / 25)^2, high-precision reference
UTILITY_HALF_NCR_MID_POWER = 0.49036268949424384554


def gains_for_prrs(prr_by_node, s_value, f_bytes=25, m=None):
    """Symmetric gain matrix that gives node 0 the requested link PRRs.

    Inverts the BER/PRR chain so that node 0, transmitting at ``s_value``
    with no concurrent interference, reaches node j with PRR prr_by_node[j].
    """
    m = m if m is not None else max(prr_by_node) + 1
    p_mw = channel.strategy_to_mw(s_value)
    gains = np.zeros((m, m))
    for j, target in prr_by_node.items():
        snr = channel.sinr_for_prr(target, f_bytes)
        gains[0, j] = gains[j, 0] = snr * N0 / p_mw
    return gains


class TestStrategyProfile:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            game.StrategyProfile(np.array([1.0, 26.0]))
        with pytest.raises(ValueError):
            game.StrategyProfile(np.array([0.4, 1.0]), s_min=0.5)
        with pytest.raises(ValueError):
            game.StrategyProfile(np.array([1.0]), s_min=0.0)
        with pytest.raises(ValueError):
            game.StrategyProfile(np.array([1.0]), s_min=5.0, s_max=4.0)

    def test_views_and_updates(self):
        prof = game.StrategyProfile(np.array([0.5, 10.0, 25.0]))
        assert prof.n == 3
        assert np.allclose(prof.dbm, [-24.5, -15.0, 0.0])
        assert np.allclose(prof.mw, 10.0 ** (np.array([-24.5, -15.0, 0.0]) / 10.0))
        # built once per profile, read-only, with the array expression
        # the kernel converts candidates with
        for view in (prof.s, prof.dbm, prof.mw):
            assert not view.flags.writeable
        assert prof.mw is prof.mw and prof.dbm is prof.dbm
        assert prof.mw.tobytes() == channel.strategy_to_mw(prof.s).tobytes()
        bumped = prof.with_power(1, 20.0)
        assert bumped.s[1] == 20.0 and prof.s[1] == 10.0
        with pytest.raises(ValueError):
            prof.with_power(0, 0.1)

    def test_constructors(self):
        assert np.all(game.StrategyProfile.constant(4, 7.0).s == 7.0)
        assert np.all(game.StrategyProfile.full_power(4).s == 25.0)


class TestGameParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            game.GameParams(epsilon_link=0.0)
        with pytest.raises(ValueError):
            game.GameParams(degree_target=-1)
        with pytest.raises(ValueError):
            game.GameParams(degree_rule="nope")
        with pytest.raises(ValueError):
            game.GameParams(ncr_denominator="median")
        with pytest.raises(ValueError):
            game.GameParams(interference="collisions")

    def test_required_degree_rules(self):
        assert game.GameParams(degree_target=6).required_degree(80) == 6
        sw = game.GameParams(degree_rule="smallworld", smallworld_delta=0.1)
        assert sw.required_degree(80) == topology.smallworld_threshold(80, 0.1).degree_requirement()


def ncr(i, prof, gains, params):
    """NCR_i read back from the utility, log10(1 + scale * NCR_i) - cost,
    with the degree floor off so that the benefit term always applies."""
    params = dataclasses.replace(params, degree_target=0)
    cost = (prof.s[i] / params.cost_denominator) ** 2
    return (10.0 ** (game.utility(i, prof, gains, N0, params) + cost) - 1.0) / params.ncr_scale


class TestNcr:
    def test_two_neighbor_mean(self):
        gains = gains_for_prrs({1: 0.8, 2: 0.6}, s_value=12.0, m=3)
        prof = game.StrategyProfile(np.array([12.0, 1.0, 1.0]))
        value = ncr(0, prof, gains, game.GameParams())
        assert value == pytest.approx(0.7, abs=1e-12)

    def test_empty_neighborhood_is_zero(self):
        gains = np.zeros((3, 3))
        prof = game.StrategyProfile.constant(3, 25.0)
        assert ncr(0, prof, gains, game.GameParams()) == 0.0

    def test_saturated_links_give_one(self):
        # unit gains put every link deep in the flat PRR region at full power
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        assert ncr(0, prof, gains, game.GameParams()) == pytest.approx(1.0, abs=1e-6)

    def test_union_denominator(self):
        # member PRR sum normalized by the size of the members' joint
        # neighbor sets: {0,2} from node 1 and {0,1} from node 2 -> 3 nodes
        gains = gains_for_prrs({1: 0.8, 2: 0.6}, s_value=12.0, m=3)
        snr_12 = channel.sinr_for_prr(0.5, 25)
        gains[1, 2] = gains[2, 1] = snr_12 * N0 / channel.strategy_to_mw(12.0)
        prof = game.StrategyProfile.constant(3, 12.0)
        params = game.GameParams(ncr_denominator="union")
        value = ncr(0, prof, gains, params)
        assert value == pytest.approx((0.8 + 0.6) / 3.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(3)
        params = game.GameParams()
        for seed in DESK_SEEDS:
            _, gains = build_desk(seed)
            prof = random_profile(rng, 10)
            for i in range(10):
                assert -1e-12 <= ncr(i, prof, gains, params) <= 1.0 + 1e-12


class TestUtility:
    def test_frozen_midpoint_value(self):
        # NCR held at exactly 0.5 by two links with PRR 0.8 and 0.2
        gains = gains_for_prrs({1: 0.8, 2: 0.2}, s_value=12.5, m=3)
        prof = game.StrategyProfile(np.array([12.5, 1.0, 1.0]))
        params = game.GameParams(degree_target=2)
        value = game.utility(0, prof, gains, N0, params)
        assert value == pytest.approx(UTILITY_HALF_NCR_MID_POWER, abs=1e-9)

    def test_saturated_cheap_link_approaches_one(self):
        # unit gains saturate the links even at vanishing power, so the
        # benefit approaches log10(10) = 1 while the cost term vanishes
        gains = np.ones((2, 2)) - np.eye(2)
        prof = game.StrategyProfile(np.array([1e-6, 1e-6]), s_min=1e-9)
        params = game.GameParams(degree_target=1)
        assert game.utility(0, prof, gains, N0, params) == pytest.approx(1.0, abs=1e-5)

    def test_violated_full_power_is_minus_one(self):
        gains = np.zeros((3, 3))  # no links can ever form
        prof = game.StrategyProfile.full_power(3)
        assert game.utility(0, prof, gains, N0, game.GameParams()) == -1.0

    def test_penalty_branch_ignores_reliability(self):
        # degree 2 < required 3: only the cost term remains
        gains = gains_for_prrs({1: 0.9, 2: 0.9}, s_value=10.0, m=4)
        prof = game.StrategyProfile(np.array([10.0, 1.0, 1.0, 1.0]))
        params = game.GameParams(degree_target=3)
        assert game.utility(0, prof, gains, N0, params) == -((10.0 / 25.0) ** 2)

    def test_range(self):
        rng = np.random.default_rng(4)
        params = game.GameParams()
        for seed in DESK_SEEDS:
            _, gains = build_desk(seed)
            prof = random_profile(rng, 10)
            for i in range(10):
                assert -1.0 <= game.utility(i, prof, gains, N0, params) <= 1.0


class TestPotential:
    def test_equals_sum_of_utilities(self):
        rng = np.random.default_rng(5)
        _, gains = build_desk(1)
        params = game.GameParams()
        prof = random_profile(rng, 10)
        total = sum(game.utility(i, prof, gains, N0, params) for i in range(10))
        assert game.potential(prof, gains, N0, params) == pytest.approx(total, rel=1e-15)

    def test_residual_zero_for_null_move(self):
        _, gains = build_desk(2)
        prof = game.StrategyProfile.constant(10, 8.0)
        res = game.exact_potential_residual(prof, 3, 8.0, gains, N0, game.GameParams())
        assert res == 0.0

    def test_residual_vanishes_for_unilateral_moves(self):
        rng = np.random.default_rng(6)
        params = game.GameParams()
        for seed in DESK_SEEDS[:3]:
            _, gains = build_desk(seed)
            for _ in range(20):
                prof = random_profile(rng, 10)
                i = int(rng.integers(0, 10))
                s_prime = float(rng.uniform(0.5, 25.0))
                res = game.exact_potential_residual(prof, i, s_prime, gains, N0, params)
                assert res <= 1e-9


def _reference_row_and_utility(i, profile, gains, params, x):
    """Node i's PRR row and utility at x, one candidate at a time: a
    one-element mW conversion, a 1-D PRR row, ``.mean()`` over the members,
    and the union denominator from the members' own reach rows."""
    own_mw = channel.strategy_to_mw([x])[0]
    denom = channel._denominators(i, profile.mw, gains, N0, params.interference)
    row = channel.prr(channel.ber(gains[i, :] * float(own_mw) / denom), params.f_bytes)
    row[i] = 0.0
    members = row >= params.epsilon_link
    degree = int(np.count_nonzero(members))
    cost = (float(x) / params.cost_denominator) ** 2
    if degree < params.required_degree(profile.n):
        return row, -cost
    if degree == 0:
        ncr_value = 0.0
    elif params.ncr_denominator == "members":
        ncr_value = float(row[members].mean())
    else:
        powers = profile.mw.copy()
        powers[i] = own_mw
        union = set()
        for j in np.flatnonzero(members):
            union.update(np.flatnonzero(topology._reach(
                int(j), powers[j], powers, gains, N0, params.f_bytes, params.epsilon_link,
                params.interference)).tolist())
        ncr_value = min(1.0, float(row[members].sum()) / len(union)) if union else 0.0
    return row, math.log10(1.0 + params.ncr_scale * ncr_value) - cost


def _candidates(env, i):
    """Node i's candidate receiver columns in a kernel environment, pads left out."""
    if env.columns.ndim == 1:
        return env.columns
    columns = env.columns[i]
    return columns if env.pads is None else columns[~env.pads[i]]


def _dense_reference(env, nodes, xs):
    """(utilities, degrees) of the rows (nodes[r], xs[r]) from one dense
    (rows x M) ``channel._prr_rows`` table, reduced row by row: the layout
    the candidate-column kernel replaced, with the union denominator built
    from one PRR matrix per row."""
    params, profile = env.params, env.profile
    k = params.required_degree(profile.n)
    mw = channel.strategy_to_mw(np.asarray(xs, dtype=float))
    table = channel._prr_rows(np.asarray(nodes), mw, env.gains, env.denominators,
                              params.f_bytes)
    utilities, degrees = [], []
    for i, x, own_mw, row in zip(nodes, xs, mw.tolist(), table):
        member = row >= params.epsilon_link
        degree = int(np.count_nonzero(member))
        size = degree
        if params.ncr_denominator == "union":
            powers = profile.mw.copy()
            powers[i] = own_mw
            reach = channel.prr_matrix(powers, env.gains, env.n0_mw, params.f_bytes,
                                       params.interference) >= params.epsilon_link
            size = int(np.count_nonzero(reach[member].any(axis=0)))
        ncr_value = float(np.add.reduce(row[member])) / size if degree and size else 0.0
        if params.ncr_denominator == "union":
            ncr_value = min(1.0, ncr_value)
        cost = (float(x) / params.cost_denominator) ** 2
        utilities.append(math.log10(1.0 + params.ncr_scale * ncr_value) - cost
                         if degree >= k else -cost)
        degrees.append(degree)
    return np.array(utilities), np.array(degrees, dtype=np.intp)


class TestKernel:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_columns_equal_dense_reference(self, data):
        draw = data.draw
        m = draw(st.integers(2, 24))
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        topo = topology.random_topology(m, area=(draw(st.floats(2.0, 150.0)),) * 2, seed=seed)
        model = channel.PathLossModel(shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0, 8.0])),
                                      seed=seed)
        gains = channel.build_gain_matrix(topo.positions, model)
        if draw(st.booleans()):
            # an off-diagonal zero gain: a candidate, and a member, only when
            # the SINR threshold is 0 (epsilon 1e-62)
            a, b = rng.choice(m, size=2, replace=False)
            gains[a, b] = gains[b, a] = 0.0
        s_min = draw(st.floats(0.1, 24.0))
        s_max = draw(st.floats(s_min, 25.0, exclude_min=True))
        profile = game.StrategyProfile(rng.uniform(s_min, s_max, size=m), s_min=s_min,
                                       s_max=s_max)
        params = game.GameParams(interference=draw(st.sampled_from(["none", "full"])),
                                 ncr_denominator=draw(st.sampled_from(["members", "union"])),
                                 epsilon_link=draw(st.sampled_from([0.01, 0.5, 0.9, 1e-62])),
                                 degree_target=draw(st.integers(0, 3)))
        xs = [s_min, s_max, *rng.uniform(s_min, s_max, size=draw(st.integers(1, 16)))]
        i = draw(st.integers(0, m - 1))
        group = game._Environment(profile, gains, N0, params)
        alone = game._Environment(profile, gains, N0, params, i)
        for env, nodes in ((group, rng.integers(0, m, size=len(xs))), (alone, [i] * len(xs))):
            utilities, degrees = _dense_reference(env, nodes, xs)
            assert env.utilities(nodes, xs).tobytes() == utilities.tobytes()
            assert env.degrees(nodes, xs).tobytes() == degrees.tobytes()
        assert _candidates(alone, i).tobytes() == _candidates(group, i).tobytes()

    @pytest.mark.parametrize("interference", ["none", "full"])
    def test_union_sizes_equal_per_row_build(self, interference):
        # On the clear channel one reach matrix per environment serves every
        # row; under interference each row builds its own.  Both give the
        # sizes of one PRR matrix per row at that row's own power, over the
        # members of the row's dense PRR row.
        if interference == "none":
            positions = topology.random_topology(30, area=(60.0, 60.0), seed=4).positions
        else:
            # pairs 1.6 m apart and 40 m from the next pair, so that members
            # reach their partner under interference
            centers = np.array([[x, y] for x in (5.0, 45.0, 85.0) for y in (5.0, 45.0)])
            positions = np.vstack([centers, centers + [1.5, 0.5]])
        gains = channel.build_gain_matrix(positions,
                                          channel.PathLossModel(shadowing_sigma_db=4.0, seed=4))
        m = gains.shape[0]
        profile = game.StrategyProfile.constant(m, 0.5)
        params = game.GameParams(interference=interference, ncr_denominator="union")
        rng = np.random.default_rng(6)
        xs = rng.uniform(10.0, 25.0, size=40)
        for env, nodes in ((game._Environment(profile, gains, N0, params),
                            rng.integers(0, m, size=40)),
                           (game._Environment(profile, gains, N0, params, 3), np.full(40, 3))):
            mw, table = env.prr_table(nodes, xs)
            want = []
            for i, own_mw in zip(nodes.tolist(), mw.tolist()):
                row = channel._prr_rows([i], np.array([own_mw]), gains, env.denominators, 25)[0]
                powers = profile.mw.copy()
                powers[i] = own_mw
                reach = channel.prr_matrix(powers, gains, N0, 25, interference) >= 0.01
                want.append(int(np.count_nonzero(reach[row >= 0.01].any(axis=0))))
            assert env._union_sizes(nodes, mw, table >= 0.01).tolist() == want
            assert max(want) > 0

    @settings(deadline=None)
    @given(st.data())
    def test_utilities_bitwise_equal_one_at_a_time(self, data):
        # Sizes reach past numpy's 8-term pairwise-summation block, and the
        # candidates include uniform draws, on which a last-bit difference
        # between one-element and longer mW conversions would show.
        draw = data.draw
        m = draw(st.integers(2, 30))
        side = draw(st.floats(2.0, 80.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        topo = topology.random_topology(m, area=(side, side), seed=int(rng.integers(2**31)))
        model = channel.PathLossModel(shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])))
        gains = channel.build_gain_matrix(topo.positions, model)
        profile = game.StrategyProfile(rng.uniform(0.5, 25.0, size=m))
        # degree targets up to m: at m no node can ever meet its floor
        params = game.GameParams(interference=draw(st.sampled_from(["none", "full"])),
                                 ncr_denominator=draw(st.sampled_from(["members", "union"])),
                                 degree_target=draw(st.integers(0, m)))
        i = draw(st.integers(0, m - 1))
        xs = draw(st.lists(st.floats(0.5, 25.0), max_size=8))
        xs += rng.uniform(0.5, 25.0, size=draw(st.integers(1, 24))).tolist()
        env = game._Environment(profile, gains, N0, params)
        nodes = [i] * len(xs)
        rows, want = zip(*(_reference_row_and_utility(i, profile, gains, params, x)
                           for x in xs))
        # the table holds node i's candidate columns, bitwise the dense rows'
        # entries there, then pads of 0; every column it drops is below
        # epsilon at s_max
        columns = _candidates(env, i)
        table = env.prr_table(nodes, xs)[1]
        assert table[:, :columns.size].tobytes() == np.array(rows)[:, columns].tobytes()
        assert not table[:, columns.size:].any()
        top = _reference_row_and_utility(i, profile, gains, params, profile.s_max)[0]
        assert np.all(np.delete(top, columns) < params.epsilon_link)
        assert np.array(env.utilities(nodes, xs)).tobytes() == np.array(want).tobytes()
        s_eps = channel.sinr_for_prr(params.epsilon_link, params.f_bytes)
        denom = channel._denominators(i, profile.mw, gains, N0, params.interference)
        assert env.membership_breakpoints(i) == [
            25.0 + 10.0 * math.log10(s_eps * denom[j] / gains[i, j])
            for j in range(m) if j != i and gains[i, j] > 0.0]

    def test_rows_with_more_than_128_members(self):
        # Past 128 terms numpy's pairwise sum splits a row in halves; rows of
        # equal degree are still summed as the row alone would be.
        topo = topology.random_topology(150, area=(30.0, 30.0), seed=11)
        gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
        profile = random_profile(np.random.default_rng(12), m=150)
        params = game.GameParams()
        env = game._Environment(profile, gains, N0, params)
        nodes = [0, 0, 0, 1, 77, 77, 149, 149]
        xs = [25.0, 24.0, 20.0, 25.0, 25.0, 23.5, 25.0, 12.0]
        assert max(env.degrees(nodes, xs)) > 128
        want = [_reference_row_and_utility(i, profile, gains, params, x)[1]
                for i, x in zip(nodes, xs)]
        assert env.utilities(nodes, xs).tobytes() == np.array(want).tobytes()


def _random_game(draw, max_m, **params):
    """(gains, profile, params) drawn for the property tests."""
    m = draw(st.integers(2, max_m))
    side = draw(st.floats(2.0, 80.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    topo = topology.random_topology(m, area=(side, side), seed=int(rng.integers(2**31)))
    model = channel.PathLossModel(shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])))
    gains = channel.build_gain_matrix(topo.positions, model)
    s_min = draw(st.floats(0.1, 24.0))
    # a range at most br_tol wide sends every feasible node to s_max
    s_max = draw(st.floats(s_min, 25.0, exclude_min=True) | st.just(s_min + 5e-7))
    profile = game.StrategyProfile(rng.uniform(s_min, s_max, size=m), s_min=s_min, s_max=s_max)
    # degree targets up to m: at m no node can ever meet its floor
    params = game.GameParams(degree_target=draw(st.integers(0, m)), **params)
    return gains, profile, params


def _one_node_sweep(profile, gains, params, steps):
    """A sweep in which every node answers on its own, in index order."""
    flags = 0
    for i in range(profile.n):
        env = game._Environment(profile, gains, N0, params, i)
        [(s_star, flagged)] = game._respond(env, [i], steps)
        flags += int(flagged)
        profile = profile.with_power(i, s_star)
    return profile, flags


class TestLockstep:
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_decoupled_sweep_equals_one_node_groups(self, data):
        # Lockstep groups search with lookahead 0 and one-node groups with
        # game._LOOKAHEAD > 0, so this also checks the speculative search.
        gains, profile, params = _random_game(data.draw, 30)
        assert game._decouples(params)
        usable = [v for v in DiscreteLevelSet().levels_dbm
                  if profile.s_min <= v + 25.0 <= profile.s_max]
        games = [game._best_response_steps]
        if usable:
            games.append(_level_steps(usable))
        for steps in games:
            lockstep, lockstep_flags = game._sweep(profile, gains, N0, params, steps)
            alone, alone_flags = _one_node_sweep(profile, gains, params, steps)
            assert lockstep.s.tobytes() == alone.s.tobytes()
            assert lockstep_flags == alone_flags

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_batched_checks_equal_per_node_reference(self, data):
        gains, profile, params = _random_game(
            data.draw, 12, interference=data.draw(st.sampled_from(["none", "full"])),
            ncr_denominator=data.draw(st.sampled_from(["members", "union"])))
        m, k = profile.n, params.required_degree(profile.n)
        utils = [_reference_row_and_utility(i, profile, gains, params, profile.s[i])[1]
                 for i in range(m)]
        assert game.potential(profile, gains, N0, params) == float(sum(utils))
        assert game._per_node_feasible(profile, gains, N0, params) == [
            k == 0 or topology.degree_at_power(i, profile.s_max, profile, gains, N0,
                                               params.f_bytes, params.epsilon_link,
                                               params.interference) >= k
            for i in range(m)]
        grid = np.arange(profile.s_min, profile.s_max, 1.0)
        if grid[-1] < profile.s_max:
            grid = np.append(grid, profile.s_max)
        worst = max(max(_reference_row_and_utility(i, profile, gains, params, x)[1]
                        for x in grid) - utils[i] for i in range(m))
        assert game.verify_equilibrium(profile, gains, N0, params, grid_step=1.0) == (
            worst <= 1e-4, worst)


class _Probe(float):
    """An objective value that logs the points of every comparison it is in."""

    def __new__(cls, value, x, log):
        probe = super().__new__(cls, value)
        probe.x, probe.log = x, log
        return probe

    def __ge__(self, other):
        self.log.append((self.x.hex(), other.x.hex()))
        return float(self) >= float(other)


def _drive(search, f):
    """Run a ``_golden_section_max`` coroutine on the objective f; returns
    (result, requests, the compared points in order)."""
    requests, log = [], []
    try:
        xs = search.send(None)
        while True:
            requests.append(xs)
            xs = search.send([_Probe(f(x), x, log) for x in xs])
    except StopIteration as stop:
        return stop.value, requests, log


@st.composite
def _objectives(draw):
    """Pure-Python objectives: smooth, monotone or flat, optionally rounded
    onto a grid coarse enough to make plateaus and ties."""
    peak = draw(st.floats(-120.0, 120.0))
    freq = draw(st.floats(0.01, 30.0))
    base = draw(st.sampled_from([
        lambda x: -(x - peak) ** 2,
        lambda x: math.sin(freq * x + peak),
        lambda x: x,
        lambda x: -x,
        lambda x: math.floor(freq * x),
        lambda x: 1.0,
    ]))
    grid = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25, 4.0]))
    return (lambda x: round(base(x) / grid) * grid) if grid else base


class TestGoldenSection:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_lookahead_replays_the_plain_search(self, data):
        f = data.draw(_objectives())
        lo = data.draw(st.floats(-100.0, 100.0))
        tol = data.draw(st.sampled_from([1e-9, 1e-6, 1e-2, 1.0]))
        # widths near tol, some narrower, where the search stops early or at once
        hi = lo + data.draw(st.floats(0.0, 2.0 * tol) | st.floats(0.0, 200.0))
        plain, plain_requests, plain_log = _drive(game._golden_section_max(lo, hi, tol, 0), f)
        steps = len(plain_requests) - 1
        for lookahead in range(5):
            result, requests, log = _drive(game._golden_section_max(lo, hi, tol, lookahead), f)
            assert log == plain_log
            assert (result[0].hex(), float(result[1]).hex()) == (
                plain[0].hex(), float(plain[1]).hex())
            assert len(requests[0]) <= 2 ** (lookahead + 1) + 1
            assert all(len(xs) <= 2 ** (lookahead + 1) for xs in requests[1:])
            # the first request covers `lookahead` steps, every later one
            # `lookahead` + 1
            assert len(requests) == 1 + -(-max(0, steps - lookahead) // (lookahead + 1))


class TestBestResponse:
    def test_infeasible_floor_falls_to_minimum(self):
        gains = np.zeros((3, 3))
        prof = game.StrategyProfile.full_power(3)
        assert game.best_response(0, prof, gains, N0, game.GameParams()) == 0.5

    def test_single_node_falls_to_minimum(self):
        prof = game.StrategyProfile(np.array([13.0]))
        assert game.best_response(0, prof, np.zeros((1, 1)), N0, game.GameParams()) == 0.5

    def test_matches_exhaustive_grid_two_nodes(self):
        positions = np.array([[0.0, 0.0], [9.0, 0.0]])
        gains = channel.build_gain_matrix(positions, channel.PathLossModel())
        prof = game.StrategyProfile(np.array([10.0, 10.0]))
        params = game.GameParams(degree_target=1)
        br = game.best_response(0, prof, gains, N0, params)

        grid = np.arange(0.5, 25.0 + 1e-9, 1e-4)
        # Under the clear channel node 0's environment does not depend on its
        # own entry in the profile, so one batched pass covers the whole grid.
        utils = game._Environment(prof, gains, N0, params).utilities([0] * grid.size, grid)
        best_grid = grid[int(np.argmax(utils))]
        assert abs(br - best_grid) <= 1e-3
        u_br = game.utility(0, prof.with_power(0, br), gains, N0, params)
        assert u_br >= max(utils) - 1e-9

    def test_never_below_prescan_maximum(self):
        rng = np.random.default_rng(7)
        params = game.GameParams()
        for seed in DESK_SEEDS:
            _, gains = build_desk(seed)
            prof = random_profile(rng, 10)
            i = int(rng.integers(0, 10))
            br = game.best_response(i, prof, gains, N0, params)
            floor = topology.min_power_for_degree(
                i, prof, gains, N0, params.f_bytes, params.epsilon_link,
                params.required_degree(10))
            lo = max(prof.s_min, floor)
            samples = np.linspace(lo, prof.s_max, game._PRESCAN_SAMPLES)
            u_scan = max(game.utility(i, prof.with_power(i, x), gains, N0, params)
                         for x in samples)
            u_br = game.utility(i, prof.with_power(i, br), gains, N0, params)
            assert u_br >= u_scan - 1e-12


class TestDynamics:
    def test_sweep_is_sequential_best_response(self):
        rng = np.random.default_rng(8)
        _, gains = build_desk(3)
        params = game.GameParams()
        prof = random_profile(rng, 10)
        swept, _ = game._sweep(prof, gains, N0, params, game._best_response_steps)
        manual = prof
        for i in range(10):
            manual = manual.with_power(i, game.best_response(i, manual, gains, N0, params))
        assert np.array_equal(swept.s, manual.s)

    def test_solve_converges_on_desk(self, desk0_solution):
        result, gains, params = desk0_solution
        assert result.converged
        assert result.sweeps_used <= params.n_iter_max
        assert all(result.per_node_feasible)
        assert result.nonunimodal_events == 0
        # trace bookkeeping: initial potential plus one entry per sweep
        assert len(result.potential_trace) == result.sweeps_used + 1
        assert len(result.profile_trace) == result.sweeps_used + 1

    def test_solve_potential_never_decreases(self, desk0_solution):
        result, _, _ = desk0_solution
        trace = result.potential_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_already_converged_input_takes_one_sweep(self, desk0_solution):
        result, gains, params = desk0_solution
        again = game.solve(result.profile, gains, N0, params)
        assert again.converged
        assert again.sweeps_used == 1
        assert np.allclose(again.profile.s, result.profile.s, atol=params.convergence_tol)

    def test_single_node_value_fixed_in_first_sweep(self):
        prof = game.StrategyProfile(np.array([25.0]))
        result = game.solve(prof, np.zeros((1, 1)), N0, game.GameParams())
        assert result.converged
        assert result.profile.s[0] == 0.5
        assert result.profile_trace[1][0] == 0.5
        assert result.sweeps_used == 1

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_decoupled_game_is_one_pass(self, data):
        # A node's answer depends on the rest of the profile only through its
        # incumbent, so after the one lockstep pass a further sweep confirms
        # it: the continuous sweep moves no node by convergence_tol, and the
        # discrete sweep moves no node at all.
        draw = data.draw
        m = draw(st.integers(2, 40))
        side = draw(st.floats(3.0, 150.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        topo = topology.random_topology(m, area=(side, side), seed=int(rng.integers(2**31)))
        model = channel.PathLossModel(shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0, 8.0])),
                                      seed=int(rng.integers(2**31)))
        gains = channel.build_gain_matrix(topo.positions, model)
        params = game.GameParams(degree_target=draw(st.integers(0, 7)),
                                 epsilon_link=draw(st.sampled_from([0.01, 0.5, 0.9])))
        assert game._decouples(params)
        start = (game.StrategyProfile.full_power(m) if draw(st.booleans())
                 else random_profile(rng, m))
        result = game.solve(start, gains, N0, params)
        assert result.sweeps_used == 1 and result.converged
        again, _ = game._sweep(result.profile, gains, N0, params, game._best_response_steps)
        assert np.max(np.abs(again.s - result.profile.s)) < params.convergence_tol
        levels = DiscreteLevelSet()
        discrete = solve_discrete(start, gains, N0, params, levels)
        assert discrete.sweeps_used == 1 and discrete.converged
        usable = [v for v in levels.levels_dbm if start.s_min <= v + 25.0 <= start.s_max]
        swept, _ = game._sweep(discrete.profile, gains, N0, params, _level_steps(usable))
        assert swept.s.tobytes() == discrete.profile.s.tobytes()

    def test_fixed_point_property(self, desk0_solution):
        result, gains, params = desk0_solution
        final = result.profile
        for i in range(final.n):
            br = game.best_response(i, final, gains, N0, params)
            assert abs(br - final.s[i]) <= 1e-3


    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_coupled_solve_equals_lookahead_zero(self, data):
        gains, profile, params = _random_game(data.draw, 8, interference="full",
                                              n_iter_max=8)
        # the whole strategy range and low degree floors, so that most nodes
        # run a long search rather than give up
        profile = game.StrategyProfile.full_power(profile.n)
        params = dataclasses.replace(params, degree_target=data.draw(st.integers(0, 2)))
        assert not game._decouples(params)
        speculative = game.solve(profile, gains, N0, params)
        with mock.patch.object(game, "_LOOKAHEAD", 0):
            plain = game.solve(profile, gains, N0, params)
        assert speculative.profile.s.tobytes() == plain.profile.s.tobytes()
        assert speculative.nonunimodal_events == plain.nonunimodal_events
        assert (np.array(speculative.potential_trace).tobytes()
                == np.array(plain.potential_trace).tobytes())
        assert speculative.sweeps_used == plain.sweeps_used


class TestVerification:
    def test_converged_profile_verifies(self, desk0_solution):
        result, gains, params = desk0_solution
        passed, worst = game.verify_equilibrium(result.profile, gains, N0, params)
        assert passed
        assert worst <= 1e-4

    def test_perturbed_profile_fails(self, desk0_solution):
        result, gains, params = desk0_solution
        s = result.profile.s.copy()
        s[0] = min(25.0, s[0] + 5.0)
        passed, worst = game.verify_equilibrium(
            game.StrategyProfile(s), gains, N0, params)
        assert not passed
        assert worst > 1e-4

_ENTRY_POINTS = {
    "solve": lambda prof, gains, n0, params: game.solve(prof, gains, n0, params),
    "potential": lambda prof, gains, n0, params: game.potential(prof, gains, n0, params),
    "utility": lambda prof, gains, n0, params: game.utility(0, prof, gains, n0, params),
    "best_response": lambda prof, gains, n0, params: game.best_response(0, prof, gains, n0,
                                                                        params),
    "verify_equilibrium": lambda prof, gains, n0, params: game.verify_equilibrium(
        prof, gains, n0, params),
}


class TestInputChecks:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("interference", ["none", "full"])
    def test_negative_gain_rejected(self, entry, interference):
        _, gains = build_desk(0)
        gains = gains.copy()
        gains[0, 1] = gains[1, 0] = -1e-6
        params = game.GameParams(interference=interference, degree_target=1)
        # node 0 loud and the rest quiet, so that under interference node 0
        # still reaches a neighbor and its best response builds a table
        profile = game.StrategyProfile(np.array([25.0] + [0.5] * (DESK_M - 1)))
        with pytest.raises(ValueError):
            _ENTRY_POINTS[entry](profile, gains, N0, params)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_negative_noise_floor_rejected(self, entry):
        _, gains = build_desk(0)
        with pytest.raises(ValueError):
            _ENTRY_POINTS[entry](game.StrategyProfile.full_power(DESK_M), gains, -N0,
                                 game.GameParams(degree_target=1))
