import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, game, topology
from wsnpower.quantize import DiscreteLevelSet, _level_responses, solve_discrete
from conftest import DESK_M, DESK_SEEDS, N0, build_desk, random_profile
import oracles

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
        # every comparison with NaN is false, so the check must not pass it
        with pytest.raises(ValueError, match="within the profile bounds"):
            game.StrategyProfile(np.array([math.nan, 3.0]))

    def test_with_power_rejects_nan(self):
        prof = game.StrategyProfile(np.array([1.0, 3.0]))
        with pytest.raises(ValueError, match="within the profile bounds"):
            prof.with_power(0, math.nan)

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

    @pytest.mark.parametrize("value", [0.5 - 5e-13, 0.5, 7.25, 25.0, 25.0 + 5e-13,
                                       0.5 - 2e-12, 25.0 + 2e-12])
    def test_with_power_equals_constructor(self, value):
        # Checking and clipping only the new entry gives the profile the
        # constructor builds from the whole vector, or its ValueError.
        prof = game.StrategyProfile(np.array([3.0, 10.0, 25.0, 0.5]))
        s = prof.s.copy()
        s[2] = value
        try:
            want = game.StrategyProfile(s)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                prof.with_power(2, value)
            return
        got = prof.with_power(2, value)
        assert type(got) is game.StrategyProfile
        assert got.s.tobytes() == want.s.tobytes() and not got.s.flags.writeable
        assert (got.s_min, got.s_max) == (want.s_min, want.s_max)
        assert got.mw.tobytes() == want.mw.tobytes()
        assert prof.s[2] == 25.0

    def test_constructors(self):
        assert np.all(game.StrategyProfile.constant(4, 7.0).s == 7.0)
        assert np.all(game.StrategyProfile.full_power(4).s == 25.0)


class TestGameParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            game.GameParams(epsilon_link=0.0)
        # a PRR of 1 needs an infinite SINR: no receiver could ever join
        with pytest.raises(ValueError, match="epsilon_link"):
            game.GameParams(epsilon_link=1.0)
        with pytest.raises(ValueError):
            game.GameParams(degree_target=-1)
        with pytest.raises(ValueError):
            game.GameParams(degree_rule="nope")
        with pytest.raises(ValueError):
            game.GameParams(ncr_denominator="median")
        with pytest.raises(ValueError):
            game.GameParams(interference="collisions")

    @pytest.mark.parametrize("key, value", [
        ("ncr_scale", math.nan), ("ncr_scale", math.inf), ("cost_denominator", math.nan),
        ("cost_denominator", math.inf), ("n_iter_max", math.nan), ("n_iter_max", math.inf),
        ("n_iter_max", 2.5), ("f_bytes", math.inf), ("degree_target", math.nan),
        ("degree_target", math.inf), ("degree_target", 2.5)])
    def test_non_finite_or_fractional_rejected(self, key, value):
        with pytest.raises(ValueError):
            game.GameParams(**{key: value})

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_smallworld_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="game smallworld_delta must be a finite number"):
            game.GameParams(degree_rule="smallworld", smallworld_delta=delta)

    def test_whole_float_degree_target_is_an_int(self):
        assert type(game.GameParams(degree_target=6.0).required_degree(80)) is int

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
        res = oracles.exact_potential_residual(prof, 3, 8.0, gains, N0, game.GameParams())
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
                res = oracles.exact_potential_residual(prof, i, s_prime, gains, N0, params)
                assert res <= 1e-9


def _score(x, ncr_value, params, feasible=True):
    """One row's utility as the kernel scores it: numpy's ``log10`` and a
    product for the square, which differ in the last bit from ``math.log10``
    and ``** 2`` on some inputs."""
    c = float(x) / params.cost_denominator
    if not feasible:
        return -(c * c)
    return float(np.log10(np.array([1.0 + params.ncr_scale * ncr_value]))[0]) - c * c


def _left_to_right_sum(values):
    """The sum of ``values`` added one after another, from the left.  Written
    as a loop: numpy's reductions pair their terms, and Python 3.12's ``sum``
    compensates."""
    total = 0.0
    for value in np.asarray(values, dtype=float).tolist():
        total += value
    return total


def _reference_row_and_utility(i, profile, gains, params, x):
    """Node i's PRR row and utility at x, one candidate at a time: a
    one-element mW conversion, a 1-D PRR row, the members' left-to-right
    sum over their count, and the union denominator from the members' own
    reach rows."""
    own_mw = channel.strategy_to_mw([x])[0]
    denom = channel._denominators(i, profile.mw, gains, N0, params.interference)
    row = channel.prr(channel.ber(gains[i, :] * float(own_mw) / denom), params.f_bytes)
    row[i] = 0.0
    members = row >= params.epsilon_link
    degree = int(np.count_nonzero(members))
    if degree < params.required_degree(profile.n):
        return row, _score(x, 0.0, params, feasible=False)
    if degree == 0:
        ncr_value = 0.0
    elif params.ncr_denominator == "members":
        ncr_value = _left_to_right_sum(row[members]) / degree
    else:
        powers = profile.mw.copy()
        powers[i] = own_mw
        union = set()
        for j in np.flatnonzero(members):
            union.update(np.flatnonzero(topology._reach(
                int(j), powers[j], powers, gains, N0, params.f_bytes, params.epsilon_link,
                params.interference)).tolist())
        ncr_value = min(1.0, _left_to_right_sum(row[members]) / len(union)) if union else 0.0
    return row, _score(x, ncr_value, params)


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
        ncr_value = _left_to_right_sum(row[member]) / size if degree and size else 0.0
        if params.ncr_denominator == "union":
            ncr_value = min(1.0, ncr_value)
        utilities.append(_score(x, ncr_value, params, feasible=degree >= k))
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
        # Sizes reach past numpy's 8-term pairwise-summation block, where a
        # pairwise row sum would differ from the left-to-right one, and the
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
        # the breakpoints are those of the candidate columns, sorted, within
        # 1e-12 of the one-at-a-time formula (``np.log10`` on an array may
        # differ from ``math.log10`` in the last bit), then pads of +inf;
        # every other receiver enters above s_max
        s_eps = channel.sinr_for_prr(params.epsilon_link, params.f_bytes)
        denom = channel._denominators(i, profile.mw, gains, N0, params.interference)
        breakpoints = {j: 25.0 + 10.0 * math.log10(s_eps * denom[j] / gains[i, j])
                       for j in range(m) if j != i and gains[i, j] > 0.0}
        points = env.floors([i])[0][0]
        want = sorted(breakpoints[j] for j in columns.tolist())
        assert points[:columns.size] == pytest.approx(want, rel=0.0, abs=1e-12)
        assert np.all(points[columns.size:] == np.inf)
        assert all(b > profile.s_max for j, b in breakpoints.items() if j not in columns)

    def test_rows_with_more_than_128_members(self):
        # Past 128 terms numpy's pairwise sum splits a row in halves; every
        # row is still summed from left to right, as the row alone would be.
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
    # a range at most _BR_TOL wide sends every feasible node to s_max
    s_max = draw(st.floats(s_min, 25.0, exclude_min=True) | st.just(s_min + 5e-7))
    profile = game.StrategyProfile(rng.uniform(s_min, s_max, size=m), s_min=s_min, s_max=s_max)
    # degree targets up to m: at m no node can ever meet its floor
    params = game.GameParams(degree_target=draw(st.integers(0, m)), **params)
    return gains, profile, params


def _one_node_sweep(profile, gains, params, respond):
    """A sweep in which every node answers on its own, in index order."""
    flags = 0
    for i in range(profile.n):
        env = game._Environment(profile, gains, N0, params, i)
        [s_star], flagged = respond(env, [i])
        flags += flagged
        profile = profile.with_power(i, float(s_star))
    return profile, flags


class TestLockstep:
    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_decoupled_sweep_equals_one_node_groups(self, data):
        # Up to 90 nodes, lockstep tables 8 or more columns wide with many
        # distinct degrees are common.
        gains, profile, params = _random_game(
            data.draw, 90, epsilon_link=data.draw(st.sampled_from([0.01, 0.5, 0.9])))
        assert game._decouples(params)
        usable = [v for v in DiscreteLevelSet().levels_dbm
                  if profile.s_min <= v + 25.0 <= profile.s_max]
        games = [game._best_responses]
        if usable:
            games.append(_level_responses(usable))
        for respond in games:
            lockstep, lockstep_flags = game._sweep(profile, gains, N0, params, respond)
            alone, alone_flags = _one_node_sweep(profile, gains, params, respond)
            assert lockstep.s.tobytes() == alone.s.tobytes()
            assert lockstep_flags == alone_flags

    @pytest.mark.parametrize("s_min", [16.5, 19.5, 23.0])
    def test_scan_points_that_repeat(self, s_min):
        # In a range a few ulps wide some of the scan points are equal; the
        # array search still answers and flags as each node alone.
        topo = topology.random_topology(30, area=(20.0, 20.0), seed=5)
        gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
        s_max = s_min + 1.5e-13
        assert np.any(np.diff(np.linspace(s_min, s_max, game._PRESCAN_SAMPLES)) == 0)
        profile = game.StrategyProfile(np.full(30, s_max), s_min=s_min, s_max=s_max)
        params = game.GameParams(degree_target=0)
        with mock.patch.object(game, "_BR_TOL", 1e-13):
            lockstep, lockstep_flags = game._sweep(profile, gains, N0, params,
                                                   game._best_responses)
            alone, alone_flags = _one_node_sweep(profile, gains, params, game._best_responses)
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
        worst = -math.inf
        for i in range(m):
            # node i's strategy set: from its degree floor up, or the whole
            # range when it is infeasible
            floor = topology.min_power_for_degree(i, profile, gains, N0, params.f_bytes,
                                                  params.epsilon_link, k, params.interference)
            lo = profile.s_min if floor == topology.INFEASIBLE else floor
            best = max(_reference_row_and_utility(i, profile, gains, params, x)[1]
                       for x in [lo, *grid[grid >= lo]])
            worst = max(worst, best - utils[i])
        assert game.verify_equilibrium(profile, gains, N0, params, grid_step=1.0) == (
            worst <= 1e-4, worst)


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

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_never_below_prescan_maximum(self, data):
        gains, profile, params = _random_game(
            data.draw, 12, interference=data.draw(st.sampled_from(["none", "full"])),
            ncr_denominator=data.draw(st.sampled_from(["members", "union"])))
        i = data.draw(st.integers(0, profile.n - 1))
        br = game.best_response(i, profile, gains, N0, params)
        floor = topology.min_power_for_degree(
            i, profile, gains, N0, params.f_bytes, params.epsilon_link,
            params.required_degree(profile.n), params.interference)
        if floor == topology.INFEASIBLE:
            assert br == profile.s_min
            return
        lo = max(profile.s_min, floor)
        if profile.s_max - lo <= game._BR_TOL:
            assert br == profile.s_max
            return
        samples = np.linspace(lo, profile.s_max, game._PRESCAN_SAMPLES)
        u_scan = max(game.utility(i, profile.with_power(i, x), gains, N0, params)
                     for x in samples)
        u_br = game.utility(i, profile.with_power(i, br), gains, N0, params)
        assert lo <= br <= profile.s_max
        assert u_br >= u_scan - 1e-12

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_lone_search_equals_array_search(self, data):
        # The scalar search of a one-node group against the array search on
        # the same group as one row, its reference: bitwise the same s* and
        # flag, on the clear channel and under interference, with either
        # denominator, over ranges down to within _BR_TOL and with shadowing.
        draw = data.draw
        m = draw(st.integers(2, 10))
        side = draw(st.floats(2.0, 80.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        topo = topology.random_topology(m, area=(side, side), seed=int(rng.integers(2**31)))
        model = channel.PathLossModel(shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])),
                                      seed=int(rng.integers(2**31)))
        gains = channel.build_gain_matrix(topo.positions, model)
        s_min = draw(st.floats(0.1, 24.0))
        s_max = draw(st.floats(s_min, 25.0, exclude_min=True)
                     | st.sampled_from([s_min + 5e-7, s_min + 2e-6]).filter(lambda v: v <= 25.0))
        profile = game.StrategyProfile(rng.uniform(s_min, s_max, size=m), s_min=s_min,
                                       s_max=s_max)
        params = game.GameParams(interference=draw(st.sampled_from(["none", "full"])),
                                 ncr_denominator=draw(st.sampled_from(["members", "union"])),
                                 degree_target=draw(st.integers(0, 3)))
        i = draw(st.integers(0, m - 1))
        env = game._Environment(profile, gains, N0, params, i)
        s_star, flagged = game._lone_response(env, i)
        [want], want_flagged = game._best_responses(env, [i])
        assert isinstance(s_star, float)
        assert np.float64(s_star).tobytes() == want.tobytes()
        assert flagged == want_flagged

    @pytest.mark.parametrize("interference", ["none", "full"], ids=["decoupled", "coupled"])
    def test_solve_picks_the_search_by_group_size(self, interference):
        # The decoupled game is one lockstep group, which the array search
        # answers; every group of the coupled game is one node, which the
        # scalar search answers.
        _, gains = build_desk(3)
        params = game.GameParams(interference=interference, degree_target=1, n_iter_max=3)
        with mock.patch.object(game, "_lone_response", wraps=game._lone_response) as lone, \
                mock.patch.object(game, "_best_responses", wraps=game._best_responses) as array:
            result = game.solve(game.StrategyProfile.full_power(DESK_M), gains, N0, params)
        if interference == "none":
            assert lone.call_count == 0
            assert [len(call.args[1]) for call in array.call_args_list] == [DESK_M]
        else:
            assert array.call_count == 0
            assert [call.args[1] for call in lone.call_args_list] == (
                list(range(DESK_M)) * result.sweeps_used)

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def test_kernel_calls_per_best_response(self, data):
        # One kernel call scores every node's candidates, and each refinement
        # round one more, of P + 2 points per open bracket, for any group
        # size.  The first bracket spans at most two pre-scan intervals, and a
        # round cuts it to 2 / (P + 3) of its width.
        gains, profile, params = _random_game(
            data.draw, 12, interference=data.draw(st.sampled_from(["none", "full"])),
            ncr_denominator=data.draw(st.sampled_from(["members", "union"])))
        nodes = [data.draw(st.integers(0, profile.n - 1))]
        senders = nodes[0]
        if game._decouples(params) and data.draw(st.booleans()):
            nodes, senders = list(range(profile.n)), slice(None)
        env = game._Environment(profile, gains, N0, params, senders)
        searches = [game._best_responses]
        if len(nodes) == 1:
            searches.append(lambda env, nodes: game._lone_response(env, nodes[0]))
        alone = params.ncr_denominator == "members" and params.interference != "none"
        points = game._REFINE_POINTS_ALONE if alone else game._REFINE_POINTS
        width = 2.0 * (profile.s_max - profile.s_min) / (game._PRESCAN_SAMPLES - 1)
        rounds = max(0, math.ceil(math.log(width * (1 + 1e-9) / game._BR_TOL)
                                  / math.log((points + 3) / 2)))
        calls = []
        for search in searches:
            with mock.patch.object(env, "utilities", wraps=env.utilities) as utilities:
                search(env, nodes)
            assert utilities.call_count <= 1 + rounds
            for call in utilities.call_args_list[1:]:
                assert len(call.args[1]) % (points + 2) == 0
                assert 0 < len(call.args[1]) <= len(nodes) * (points + 2)
            calls.append([np.asarray(call.args[1]).tobytes()
                          for call in utilities.call_args_list])
        # the two searches score the same rows in the same calls
        assert calls[1:] in ([], calls[:1])


class TestDynamics:
    @pytest.mark.parametrize("interference", ["none", "full"], ids=["decoupled", "coupled"])
    def test_sweep_is_sequential_best_response(self, interference):
        # The decoupled sweep answers in one group, the coupled one node by
        # node; either equals best_response node after node, bitwise.  Some
        # nodes search an interior answer, not the s_min of an infeasible one.
        rng = np.random.default_rng(8)
        _, gains = build_desk(3)
        params = game.GameParams(interference=interference, degree_target=1)
        prof = random_profile(rng, 10)
        swept, _ = game._sweep(prof, gains, N0, params, game._best_responses)
        manual = prof
        for i in range(10):
            manual = manual.with_power(i, game.best_response(i, manual, gains, N0, params))
        assert swept.s.tobytes() == manual.s.tobytes()
        assert np.count_nonzero(swept.s > prof.s_min) >= 2

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
        assert np.allclose(again.profile.s, result.profile.s, atol=game._CONVERGENCE_TOL)

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
        # it: the continuous sweep moves no node by _CONVERGENCE_TOL, and the
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
        again, _ = game._sweep(result.profile, gains, N0, params, game._best_responses)
        assert np.max(np.abs(again.s - result.profile.s)) < game._CONVERGENCE_TOL
        levels = DiscreteLevelSet()
        discrete = solve_discrete(start, gains, N0, params, levels)
        assert discrete.sweeps_used == 1 and discrete.converged
        usable = [v for v in levels.levels_dbm if start.s_min <= v + 25.0 <= start.s_max]
        swept, _ = game._sweep(discrete.profile, gains, N0, params, _level_responses(usable))
        assert swept.s.tobytes() == discrete.profile.s.tobytes()

    def test_fixed_point_property(self, desk0_solution):
        result, gains, params = desk0_solution
        final = result.profile
        for i in range(final.n):
            br = game.best_response(i, final, gains, N0, params)
            assert abs(br - final.s[i]) <= 1e-3



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
