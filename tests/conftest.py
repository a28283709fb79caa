import os

import numpy as np
import pytest
from hypothesis import settings

from wsnpower import channel, game, topology

# CI runs with HYPOTHESIS_PROFILE=ci: the examples are derived from each
# test's name, so a failure there replays locally under the same profile, and
# a failing example prints the blob that reproduces it.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Ten nodes scattered over a few meters: every pair is within reach at the
# lowest power, which keeps the per-node objective smooth over the whole
# strategy interval.  Seeds 0-4 all give connected layouts.
DESK_M = 10
DESK_AREA = (4.0, 4.0)
DESK_SEEDS = (0, 1, 2, 3, 4)
N0 = channel.NoiseFloor().n0_mw


def build_desk(seed: int, m: int = DESK_M):
    topo = topology.random_topology(m, area=DESK_AREA, seed=seed)
    gains = channel.build_gain_matrix(topo.positions, channel.PathLossModel())
    return topo, gains


@pytest.fixture(scope="session")
def desk0():
    """(topology, gains) for the first desk-scale scenario."""
    return build_desk(DESK_SEEDS[0])


@pytest.fixture(scope="session")
def desk0_solution(desk0):
    """Converged equilibrium on the desk0 scenario from the full-power start."""
    _, gains = desk0
    params = game.GameParams()
    result = game.solve(game.StrategyProfile.full_power(DESK_M), gains, N0, params)
    assert result.converged
    return result, gains, params


def random_profile(rng: np.random.Generator, m: int = DESK_M) -> game.StrategyProfile:
    return game.StrategyProfile(rng.uniform(0.5, 25.0, size=m))