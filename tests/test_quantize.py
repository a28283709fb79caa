import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, experiment, game, quantize as quantize_mod, topology
from wsnpower.quantize import (
    DiscreteLevelSet,
    RegisterMap,
    _level_responses,
    _usable_levels,
    discretize_profile,
    quantize,
    solve_discrete,
    to_register,
)
from conftest import N0, build_desk, random_profile

# The 1 dB grid with the -25 dB floor endpoint: 26 levels.
WIDE = DiscreteLevelSet(tuple(float(v) for v in range(-25, 1)))


def discrete_best_response(i, profile, gains, params, levels):
    """Node i's discrete game response against the profile, in dB."""
    env = game._Environment(profile, gains, N0, params, i)
    respond = _level_responses(_usable_levels(levels, profile.s_min, profile.s_max))
    return float(respond(env, [i])[0][0]) - 25.0


class TestLevelSet:
    def test_default_grid_sizes(self):
        assert len(DiscreteLevelSet().levels_dbm) == 25
        assert DiscreteLevelSet().levels_dbm[0] == -24.0
        assert DiscreteLevelSet().levels_dbm[-1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteLevelSet(())
        with pytest.raises(ValueError):
            DiscreteLevelSet((-5.0, -5.0))
        with pytest.raises(ValueError):
            DiscreteLevelSet((-26.0, 0.0))
        with pytest.raises(ValueError):
            DiscreteLevelSet((-5.0, 0.5))

    def test_json_round_trip(self):
        levels = DiscreteLevelSet((-20.0, -10.0, -3.0, 0.0))
        data = experiment.ScenarioConfig(levels=levels).to_json_dict()
        assert data["levels"] == {"levels_dbm": [-20.0, -10.0, -3.0, 0.0]}
        assert experiment.ScenarioConfig.from_json_dict(data).levels == levels


class TestQuantize:
    def test_nearest_and_tie_break(self):
        levels = DiscreteLevelSet()
        assert quantize(-12.4, levels) == -12.0
        assert quantize(-12.6, levels) == -13.0
        # exact midpoint resolves toward the lower (cheaper) level
        assert quantize(-12.5, levels) == -13.0

    def test_grid_points_are_fixed(self):
        levels = DiscreteLevelSet()
        for v in levels.levels_dbm:
            assert quantize(v, levels) == v

    def test_clamps_out_of_range_inputs(self):
        assert quantize(-40.0, WIDE) == -25.0
        assert quantize(3.0, WIDE) == 0.0

    def test_nan_rejected(self):
        # a NaN has no nearest level: it used to come back as the top one
        levels = DiscreteLevelSet()
        with pytest.raises(ValueError, match="NaN"):
            quantize(math.nan, levels)
        with pytest.raises(ValueError, match="NaN"):
            quantize(np.array([-12.4, math.nan]), levels)

    def test_scalar_and_array_forms(self):
        levels = DiscreteLevelSet()
        out = quantize(np.array([-12.4, -0.2]), levels)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, [-12.0, 0.0])
        assert isinstance(quantize(-12.4, levels), float)

    def test_error_bound_over_grid_span(self):
        levels = DiscreteLevelSet()
        rng = np.random.default_rng(21)
        samples = rng.uniform(levels.levels_dbm[0], levels.levels_dbm[-1], 10000)
        err = np.abs(quantize(samples, levels) - samples)
        assert np.max(err) <= 0.5

    def test_idempotent_and_monotone(self):
        levels = DiscreteLevelSet((-22.0, -13.5, -6.0, -1.0))
        rng = np.random.default_rng(22)
        samples = np.sort(rng.uniform(-30.0, 5.0, 2000))
        q = quantize(samples, levels)
        assert np.array_equal(quantize(q, levels), q)
        assert np.all(np.diff(q) >= 0.0)

    def test_single_level_set(self):
        levels = DiscreteLevelSet((-7.0,))
        assert quantize(-24.0, levels) == -7.0
        assert quantize(0.0, levels) == -7.0
        assert quantize(np.array([-24.0, -7.0, 0.0]), levels).tolist() == [-7.0] * 3


class TestDiscretizeProfile:
    def test_on_grid_profile_unchanged(self):
        levels = DiscreteLevelSet()
        prof = game.StrategyProfile(np.array([1.0, 13.0, 25.0]))
        out = discretize_profile(prof, levels)
        assert np.array_equal(out.s, prof.s)

    def test_rounds_to_nearest_level(self):
        levels = DiscreteLevelSet()
        prof = game.StrategyProfile(np.array([23.75, 11.4]))  # -1.25, -13.6 dB
        out = discretize_profile(prof, levels)
        assert np.array_equal(out.dbm, [-1.0, -14.0])

    def test_per_node_error_bounded(self):
        levels = DiscreteLevelSet()
        rng = np.random.default_rng(23)
        for _ in range(50):
            prof = random_profile(rng, 10)
            out = discretize_profile(prof, levels)
            assert np.max(np.abs(out.dbm - prof.dbm)) <= 0.5 + 1e-12
            assert out.s_min == prof.s_min and out.s_max == prof.s_max

    def test_respects_profile_bounds(self):
        # the -25 dB floor level maps to s=0, below s_min, so it is dropped
        prof = game.StrategyProfile(np.array([0.5, 0.6]))
        out = discretize_profile(prof, WIDE)
        assert np.array_equal(out.s, [1.0, 1.0])
        with pytest.raises(ValueError):
            discretize_profile(game.StrategyProfile(np.array([5.0]), s_min=4.9, s_max=5.1),
                               DiscreteLevelSet((-25.0, 0.0)))


class TestDiscreteBestResponse:
    def test_penalty_branch_picks_lowest_level(self):
        gains = np.zeros((3, 3))
        prof = game.StrategyProfile.full_power(3)
        br = discrete_best_response(0, prof, gains, game.GameParams(), DiscreteLevelSet())
        assert br == -24.0

    def test_single_node_picks_lowest_level(self):
        prof = game.StrategyProfile(np.array([20.0]))
        br = discrete_best_response(0, prof, np.zeros((1, 1)), game.GameParams(),
                                    DiscreteLevelSet())
        assert br == -24.0

    def test_matches_exhaustive_argmax(self):
        # Each node's strategy set: the levels at or above its degree floor,
        # or every level when none is (an infeasible node, or a floor above
        # the top level, which the second level set stops at -5 dB).  Desk
        # layouts reach k at any power; the sparse ones hold floors across
        # the range and infeasible nodes.
        rng = np.random.default_rng(24)
        sparse = [(topology.random_topology(16, area=(60.0, 60.0), seed=seed), 3)
                  for seed in (0, 1, 2)]
        cases = [(build_desk(seed)[0], 6) for seed in (0, 1, 2)] + sparse
        for (topo, k), levels in itertools.product(cases, [
                DiscreteLevelSet(), DiscreteLevelSet(tuple(float(v) for v in range(-24, -4)))]):
            gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
            params = game.GameParams(degree_target=k)
            prof = random_profile(rng, topo.node_count)
            for i in range(topo.node_count):
                floor = topology.min_power_for_degree(i, prof, gains, N0, params.f_bytes,
                                                      params.epsilon_link, k)
                strategy_set = ([v for v in levels.levels_dbm if v + 25.0 >= floor]
                                or levels.levels_dbm)

                def score(level):
                    return game.utility(i, prof.with_power(i, level + 25.0), gains, N0, params)

                # max keeps the first, lowest, of equal scores
                assert discrete_best_response(i, prof, gains, params, levels) == max(
                    strategy_set, key=score)

    def test_never_takes_a_level_below_the_floor(self):
        # Node 9 needs about -10 dBm for two neighbours.  Over every level it
        # scores best at -24 dB, on the cost-only branch below its floor,
        # which is what the discrete game answered when it scored them all.
        topo = topology.random_topology(12, area=(40.0, 40.0), seed=0)
        gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
        params = game.GameParams(degree_target=2)
        prof = game.StrategyProfile.full_power(12)
        levels = DiscreteLevelSet()
        floor = topology.min_power_for_degree(9, prof, gains, N0, 25, 0.01, 2)

        def score(level):
            return game.utility(9, prof.with_power(9, level + 25.0), gains, N0, params)

        assert max(levels.levels_dbm, key=score) == -24.0 < floor - 25.0
        br = discrete_best_response(9, prof, gains, params, levels)
        assert br == max((v for v in levels.levels_dbm if v + 25.0 >= floor), key=score)
        assert topology.degree_at_power(9, br + 25.0, prof, gains, N0, 25, 0.01) >= 2


class TestSolveDiscrete:
    def test_terminates_and_fixes_point(self, desk0):
        _, gains = desk0
        levels = DiscreteLevelSet()
        params = game.GameParams()
        result = solve_discrete(game.StrategyProfile.full_power(10), gains, N0, params, levels)
        assert result.converged
        assert result.sweeps_used <= params.n_iter_max
        assert result.nonunimodal_events == 0
        # every power sits on the grid and is its own discrete best response
        for i in range(10):
            assert result.profile.dbm[i] in levels.levels_dbm
            br = discrete_best_response(i, result.profile, gains, params, levels)
            assert br == result.profile.dbm[i]

    def test_potential_never_decreases(self, desk0):
        _, gains = desk0
        rng = np.random.default_rng(25)
        params = game.GameParams()
        for _ in range(5):
            prof = random_profile(rng, 10)
            result = solve_discrete(prof, gains, N0, params, DiscreteLevelSet())
            trace = result.potential_trace
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_initial_profile_is_discretized(self, desk0):
        _, gains = desk0
        prof = game.StrategyProfile(np.full(10, 11.3))
        result = solve_discrete(prof, gains, N0, game.GameParams(), DiscreteLevelSet())
        start = result.profile_trace[0]
        assert np.array_equal(start, np.full(10, 11.0))


class TestRegisterMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterMap(())
        with pytest.raises(ValueError):
            RegisterMap(((-10.0, 4), (-10.0, 8)))
        with pytest.raises(ValueError):
            RegisterMap(((-10.0, 8), (-5.0, 4)))  # ids must rise with power

    def test_eight_level_default(self):
        rmap = RegisterMap.eight_level_default()
        assert [d for d, _ in rmap.pairs] == [-25.0, -15.0, -10.0, -7.0, -5.0, -3.0, -1.0, 0.0]
        assert [r for _, r in rmap.pairs] == [3, 7, 11, 15, 19, 23, 27, 31]

    def test_json_round_trip(self):
        rmap = RegisterMap.eight_level_default()
        assert RegisterMap.from_json_dict(rmap.to_json_dict()) == rmap


class TestToRegister:
    def test_table_entries_map_exactly(self):
        rmap = RegisterMap.eight_level_default()
        for d, r in rmap.pairs:
            assert to_register(d, rmap) == r

    def test_snaps_between_entries(self):
        rmap = RegisterMap.eight_level_default()
        assert to_register(-0.4, rmap) == 31
        assert to_register(-2.9, rmap) == 23
        # -2.0 is the exact -3/-1 midpoint: resolves to the lower level
        assert to_register(-2.0, rmap) == 23

    def test_outside_domain_raises(self):
        rmap = RegisterMap.eight_level_default()
        with pytest.raises(ValueError):
            to_register(-25.5, rmap)
        with pytest.raises(ValueError):
            to_register(0.5, rmap)

    def test_monotone_in_power(self):
        rmap = RegisterMap.eight_level_default()
        probe = np.linspace(-25.0, 0.0, 501)
        ids = [to_register(v, rmap) for v in probe]
        assert all(b >= a for a, b in zip(ids, ids[1:]))

    def test_array_is_the_scalar_per_entry(self):
        rmap = RegisterMap.eight_level_default()
        probe = np.linspace(-25.0, 0.0, 501)
        assert type(to_register(-3.0, rmap)) is int
        assert to_register(probe, rmap).tolist() == [to_register(v, rmap) for v in probe.tolist()]
        grid = np.array([[-25.0, -2.0], [0.0, -14.9]])
        assert to_register(grid, rmap).tolist() == [[3, 23], [31, 7]]
        # one domain check, naming the first value outside
        with pytest.raises(ValueError, match=r"^0\.5 dB is outside the register map "
                                             r"domain \[-25\.0, 0\.0\]$"):
            to_register(np.array([-3.0, 0.5, -30.0]), rmap)


def test_module_accessible_despite_function_reexport():
    # the package namespace holds the quantize module, not its function
    import wsnpower.quantize as qmod
    assert isinstance(quantize_mod, types.ModuleType)
    assert qmod is quantize_mod
    assert callable(quantize_mod.solve_discrete)

@settings(deadline=None)
@given(st.lists(st.floats(-25.0, 0.0), min_size=1, max_size=26, unique=True),
       st.lists(st.floats(-40.0, 10.0), min_size=1, max_size=30))
def test_quantize_idempotent_and_monotone_property(levels_dbm, values):
    # any level set, including levels an ulp apart, whose midpoint rounds onto a level
    levels = DiscreteLevelSet(tuple(sorted(levels_dbm)))
    grid = np.array(levels.levels_dbm)
    assert np.array_equal(quantize(grid, levels), grid)
    q = quantize(np.sort(values), levels)
    assert set(q.tolist()) <= set(levels.levels_dbm)
    assert np.array_equal(quantize(q, levels), q)
    assert np.all(np.diff(q) >= 0.0)
