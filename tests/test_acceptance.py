"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion and then asserts it.
Tolerances are pinned here, not imported, so a regression cannot silently
relax them.
"""

import filecmp
import math
import os
import time

import mpmath
import numpy as np
import pytest

from wsnpower import channel, experiment, game, packetsim, topology
from wsnpower.quantize import DiscreteLevelSet, quantize, solve_discrete
from conftest import DESK_AREA, DESK_M, DESK_SEEDS, N0, build_desk, random_profile

mpmath.mp.dps = 50

RESIDUAL_TOL = 1e-9
STEP_TOL = 1e-12
AGREEMENT_TOL = 1e-3
VERIFY_EPSILON = 1e-4
VERIFY_GRID = 0.05
CHANNEL_REL_TOL = 1e-12
QUANTIZE_ERR = 0.5
PRR_DROP_TOL = 0.01
POSTHOC_GAP_PP = 5.0
DEFAULT_RUNTIME_S = 120.0
ENERGY_SAVINGS = 0.05
SPECTRAL_ABS_TOL = 1e-8


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


@pytest.fixture(scope="module")
def default_run():
    config = experiment.simulation_default()
    start = time.monotonic()
    report = experiment.run_scenario(config)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_01_exact_potential_residuals():
    rng = np.random.default_rng(101)
    params = game.GameParams()
    worst = 0.0
    for seed in DESK_SEEDS:
        _, gains = build_desk(seed)
        for _ in range(200):
            prof = random_profile(rng, DESK_M)
            i = int(rng.integers(0, DESK_M))
            s_prime = float(rng.uniform(0.5, 25.0))
            res = game.exact_potential_residual(prof, i, s_prime, gains, N0, params)
            worst = max(worst, res)
    ok = worst <= RESIDUAL_TOL
    assert _report(1, "exact potential residuals", ok,
                   f"1000 moves, max residual {worst:.3e} <= {RESIDUAL_TOL}")


def test_criterion_02_monotone_potential_steps():
    rng = np.random.default_rng(102)
    params = game.GameParams()
    worst_step = math.inf
    replays = 0
    for seed in (0, 1, 2, 3):
        _, gains = build_desk(seed)
        for _ in range(5):
            prof = random_profile(rng, DESK_M)
            replays += 1
            for _ in range(params.n_iter_max):
                before = prof
                for i in range(DESK_M):
                    pot_before = game.potential(prof, gains, N0, params)
                    prof = prof.with_power(i, game.best_response(i, prof, gains, N0, params))
                    pot_after = game.potential(prof, gains, N0, params)
                    worst_step = min(worst_step, pot_after - pot_before)
                if float(np.max(np.abs(prof.s - before.s))) < game._CONVERGENCE_TOL:
                    break
    ok = worst_step >= -STEP_TOL
    assert _report(2, "potential monotone per update", ok,
                   f"{replays} replayed solves, worst step {worst_step:.3e} >= -{STEP_TOL}")


def test_criterion_03_convergence_and_agreement():
    rng = np.random.default_rng(103)
    params = game.GameParams()
    max_sweeps = 0
    max_spread = 0.0
    total_flags = 0
    for seed in DESK_SEEDS:
        _, gains = build_desk(seed)
        finals = []
        for _ in range(20):
            result = game.solve(random_profile(rng, DESK_M), gains, N0, params)
            assert result.converged
            max_sweeps = max(max_sweeps, result.sweeps_used)
            total_flags += result.nonunimodal_events
            finals.append(result.profile.s)
        stack = np.stack(finals)
        spread = float(np.max(stack.max(axis=0) - stack.min(axis=0)))
        max_spread = max(max_spread, spread)
    ok = max_sweeps <= params.n_iter_max and max_spread <= AGREEMENT_TOL and total_flags == 0
    assert _report(3, "convergence from random starts", ok,
                   f"5 scenarios x 20 starts, max sweeps {max_sweeps}, "
                   f"spread {max_spread:.3e} <= {AGREEMENT_TOL}, "
                   f"non-unimodal flags {total_flags}")


def test_criterion_04_equilibrium_verification():
    params = game.GameParams()
    worst = -math.inf
    for seed in DESK_SEEDS:
        _, gains = build_desk(seed)
        result = game.solve(game.StrategyProfile.full_power(DESK_M), gains, N0, params)
        passed, gain = game.verify_equilibrium(result.profile, gains, N0, params,
                                               epsilon=VERIFY_EPSILON,
                                               grid_step=VERIFY_GRID)
        worst = max(worst, gain)
        if not passed:
            break
    ok = passed and worst <= VERIFY_EPSILON
    assert _report(4, "grid verification of equilibria", ok,
                   f"5 scenarios, worst unilateral improvement {worst:.3e} "
                   f"<= {VERIFY_EPSILON} at grid step {VERIFY_GRID}")


def test_criterion_05_channel_math_against_mpmath():
    rng = np.random.default_rng(105)
    worst_rel = 0.0
    for _ in range(500):
        s = float(10.0 ** rng.uniform(-6.0, 6.0))
        got = channel.ber(s)
        want = 0.5 * (1 - mpmath.sqrt(mpmath.mpf(s) / (1 + mpmath.mpf(s))))
        worst_rel = max(worst_rel, abs(got - float(want)) / float(want))
    for _ in range(500):
        b = float(rng.uniform(1e-8, 0.499))
        f = int(rng.choice([5, 25, 100]))
        got = channel.prr(b, f)
        want = float((1 - mpmath.mpf(b)) ** (8 * f))
        rel = abs(got - want) / want if want > 0 else abs(got - want)
        worst_rel = max(worst_rel, rel)

    worst_sinr = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 8))
        gains = rng.uniform(1e-9, 1e-4, (m, m))
        gains = (gains + gains.T) / 2.0
        np.fill_diagonal(gains, 0.0)
        powers = rng.uniform(1e-3, 1.0, m)
        i, j = rng.choice(m, size=2, replace=False)
        got = channel.sinr(int(i), int(j), powers, gains, N0)
        interf = math.fsum(gains[t, j] * powers[t]
                           for t in range(m) if t not in (int(i), int(j)))
        want = gains[i, j] * powers[i] / (interf + N0)
        worst_sinr = max(worst_sinr, abs(got - want) / want)

    ok = worst_rel <= CHANNEL_REL_TOL and worst_sinr <= CHANNEL_REL_TOL
    assert _report(5, "channel math vs 50-digit reference", ok,
                   f"1000 ber/prr samples rel err {worst_rel:.3e}, "
                   f"100 sinr recomputations rel err {worst_sinr:.3e} "
                   f"<= {CHANNEL_REL_TOL}")


def test_criterion_06_quantizer_and_discrete_game():
    levels = DiscreteLevelSet()
    rng = np.random.default_rng(106)
    samples = rng.uniform(levels.levels_dbm[0], levels.levels_dbm[-1], 10000)
    q = quantize(samples, levels)
    max_err = float(np.max(np.abs(q - samples)))
    idempotent = np.array_equal(quantize(q, levels), q)
    order = np.argsort(samples)
    monotone = bool(np.all(np.diff(q[order]) >= 0.0))

    params = game.GameParams()
    _, gains = build_desk(0)
    result = solve_discrete(game.StrategyProfile.full_power(DESK_M), gains, N0,
                            params, levels)
    ok = (max_err <= QUANTIZE_ERR and idempotent and monotone
          and result.converged and result.sweeps_used <= params.n_iter_max)
    assert _report(6, "quantizer bounds and discrete game", ok,
                   f"10000 samples max err {max_err:.4f} <= {QUANTIZE_ERR}, "
                   f"idempotent {idempotent}, monotone {monotone}, "
                   f"discrete sweeps {result.sweeps_used} <= {params.n_iter_max}")


def test_criterion_07_default_scenario_reliability(default_run):
    report, elapsed = default_run
    full = report.sections["full-power"].analytic_avg_prr
    cont = report.sections["continuous"].analytic_avg_prr
    post = report.sections["discretized-posthoc"].analytic_avg_prr
    gap_pp = abs(post - cont) * 100.0
    ok = (full >= cont - PRR_DROP_TOL and gap_pp <= POSTHOC_GAP_PP
          and elapsed <= DEFAULT_RUNTIME_S)
    assert _report(7, "default scenario reliability", ok,
                   f"analytic avg PRR full {full:.4f} >= continuous {cont:.4f} - "
                   f"{PRR_DROP_TOL}, posthoc gap {gap_pp:.3f}pp <= {POSTHOC_GAP_PP}pp, "
                   f"runtime {elapsed:.1f}s <= {DEFAULT_RUNTIME_S:.0f}s")


def test_criterion_08_energy_savings(default_run):
    report, _ = default_run
    energies = {mode: report.sections[mode].metrics.relative_energy
                for mode in ("continuous", "discretized-posthoc", "discretized-game")}
    ok = all(e <= 1.0 - ENERGY_SAVINGS for e in energies.values())
    detail = ", ".join(f"{mode} {e:.4f}" for mode, e in energies.items())
    assert _report(8, "relative energy of game modes", ok,
                   f"{detail}; all <= {1.0 - ENERGY_SAVINGS}")


def test_criterion_09_connectivity_checks():
    rng = np.random.default_rng(109)
    agree = all(
        topology.is_connected_spectral(adj) == topology.is_connected_bfs(adj)
        for adj in _random_adjacencies(rng, 200)
    )
    path4 = np.zeros((4, 4))
    for i in range(3):
        path4[i, i + 1] = path4[i + 1, i] = 1.0
    err_p4 = abs(topology.algebraic_connectivity(path4) - (2.0 - math.sqrt(2.0)))
    err_k4 = abs(topology.algebraic_connectivity(np.ones((4, 4)) - np.eye(4)) - 4.0)
    ok = agree and err_p4 <= SPECTRAL_ABS_TOL and err_k4 <= SPECTRAL_ABS_TOL
    assert _report(9, "spectral vs BFS connectivity", ok,
                   f"200 random graphs agree {agree}, path-4 err {err_p4:.2e}, "
                   f"K4 err {err_k4:.2e} <= {SPECTRAL_ABS_TOL}")


def _random_adjacencies(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 12))
        adj = (rng.random((n, n)) < rng.uniform(0.05, 0.9)).astype(float)
        adj = np.triu(adj, 1)
        yield adj + adj.T


def test_criterion_10_packet_sim_statistics(default_run):
    rng_checks = []
    for target in (0.2, 0.5, 0.8):
        snr = channel.sinr_for_prr(target, 25)
        g = snr * N0 / channel.strategy_to_mw(12.0)
        gains = np.array([[0.0, g], [g, 0.0]])
        prof = game.StrategyProfile.constant(2, 12.0)
        traffic = packetsim.TrafficConfig(messages_per_node=10000, max_retries=0,
                                          seed=110)
        log = packetsim.simulate(prof, channel.prr_matrix(prof.mw, gains, N0, 25), traffic,
                                 np.array([1, 0]))
        emp = packetsim.empirical_prr(log)["per_link_prr"][(0, 1)]
        sigma = math.sqrt(target * (1.0 - target) / 10000)
        rng_checks.append((target, emp, abs(emp - target) <= 3.0 * sigma))

    report, _ = default_run
    energy_exact = report.sections["full-power"].metrics.relative_energy == 1.0
    ok = all(c for _, _, c in rng_checks) and energy_exact
    detail = ", ".join(f"p={t}: emp={e:.4f} within 3 sigma: {c}"
                       for t, e, c in rng_checks)
    assert _report(10, "packet simulation statistics", ok,
                   f"{detail}; full-power energy exactly 1.0: {energy_exact}")


def test_criterion_11_byte_determinism(tmp_path):
    config = experiment.ScenarioConfig(
        topology_spec={"m": DESK_M, "area": DESK_AREA, "seed": 0},
        traffic=packetsim.TrafficConfig(messages_per_node=50, max_retries=10, seed=0),
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    paths_a = experiment.emit(experiment.run_scenario(config), out_a)
    paths_b = experiment.emit(experiment.run_scenario(config), out_b)
    pairs = list(zip(sorted(paths_a), sorted(paths_b)))
    identical = all(filecmp.cmp(pa, pb, shallow=False) for pa, pb in pairs)
    ok = identical and len(paths_a) == len(paths_b) == 15
    assert _report(11, "byte-identical repeated runs", ok,
                   f"{len(pairs)} files compared, all identical: {identical}")


def test_criterion_12_default_scenario_verification(default_run):
    # The default continuous result is an equilibrium of the game on its
    # strategy sets: no node gains by moving within [max(s_min, floor), s_max].
    report, _ = default_run
    config = report.config
    topo = config.build_topology()
    gains = channel.build_gain_matrix(topo.positions, config.path_loss)
    profile = report.sections["continuous"].result.profile
    passed, worst = game.verify_equilibrium(profile, gains, config.noise.n0_mw,
                                            config.game_params, epsilon=VERIFY_EPSILON,
                                            grid_step=VERIFY_GRID)
    ok = passed and worst <= VERIFY_EPSILON
    assert _report(12, "default scenario continuous verification", ok,
                   f"{profile.n} nodes, worst unilateral improvement {worst:.3e} "
                   f"<= {VERIFY_EPSILON} at grid step {VERIFY_GRID}")



def test_criterion_13_discrete_game_meets_the_degree_floor(default_run):
    # The discrete game plays on the same strategy sets as the continuous
    # one: every node that can reach k neighbours at some power ends with at
    # least k; only an infeasible node may end below.
    report, _ = default_run
    config = report.config
    topo = config.build_topology()
    gains = channel.build_gain_matrix(topo.positions, config.path_loss)
    params, n0 = config.game_params, config.noise.n0_mw
    profile = report.sections["discretized-game"].result.profile
    k = params.required_degree(profile.n)
    short, infeasible = [], 0
    for i in range(profile.n):
        floor = topology.min_power_for_degree(i, profile, gains, n0, params.f_bytes,
                                              params.epsilon_link, k)
        degree = topology.degree_at_power(i, profile.s[i], profile, gains, n0, params.f_bytes,
                                          params.epsilon_link)
        infeasible += floor == topology.INFEASIBLE
        if floor != topology.INFEASIBLE and degree < k:
            short.append(i)
    assert _report(13, "discrete game meets the degree floor", not short,
                   f"{len(short)} of {profile.n - infeasible} nodes with a finite floor "
                   f"below k = {k} ({infeasible} infeasible)")
