"""Reference forms the tests check the package against.

Each is a scalar or spectral form of something the package computes in
arrays, or a property of the game stated as a number.  No run path calls
them, so they live here rather than in ``wsnpower``.
"""

import numpy as np

from wsnpower import channel, game


def sinr(i: int, j: int, powers_mw, gains: np.ndarray, n0_mw: float) -> float:
    """Signal-to-interference-plus-noise ratio of the link i -> j.

    Every node other than the sender i and the receiver j contributes
    interference at its own transmit power:

        SINR_ij = H_ij p_i / (sum_{t != i, j} H_tj p_t + N0)
    """
    p = np.asarray(powers_mw, dtype=float)
    if i == j:
        raise ValueError("sender and receiver must differ")
    m = p.shape[0]
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError("node index out of range")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("powers must be finite and non-negative")
    if not (n0_mw > 0.0):
        raise ValueError("noise floor must be positive")
    mask = np.ones(m, dtype=bool)
    mask[i] = False
    mask[j] = False
    interference = float(gains[mask, j] @ p[mask])
    return float(gains[i, j] * p[i] / (interference + n0_mw))


def link_prr(i: int, j: int, powers_mw, gains: np.ndarray, n0_mw: float, f_bytes: int) -> float:
    """Analytic packet reception ratio of the link i -> j at the given powers."""
    return channel.prr(channel.ber(sinr(i, j, powers_mw, gains, n0_mw)), f_bytes)


def algebraic_connectivity(adj: np.ndarray) -> float:
    """Second-smallest eigenvalue of the combinatorial Laplacian D - A."""
    a = np.asarray(adj, dtype=float)
    if a.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    lap = np.diag(a.sum(axis=1)) - a
    vals = np.linalg.eigvalsh(lap)
    return float(vals[1])


def is_connected_spectral(adj: np.ndarray, tol: float = 1e-8) -> bool:
    """Connectivity via the Laplacian spectrum: connected iff lambda_2 > tol.

    A zero-degree node short-circuits to False (its Laplacian row is zero,
    so lambda_2 would vanish anyway).
    """
    m = adj.shape[0]
    if m == 0:
        raise ValueError("empty adjacency")
    if m == 1:
        return True
    if np.any(np.asarray(adj).sum(axis=1) == 0):
        return False
    return algebraic_connectivity(adj) > tol


def exact_potential_residual(profile: game.StrategyProfile, i: int, s_prime: float,
                             gains: np.ndarray, n0_mw: float, params: game.GameParams) -> float:
    """|(u_i after - u_i before) - (V after - V before)| for a unilateral move.

    Zero up to float roundoff under the clear-channel default, where only the
    deviator's own term of the potential can change.
    """
    deviated = profile.with_power(i, s_prime)
    du = (game.utility(i, deviated, gains, n0_mw, params)
          - game.utility(i, profile, gains, n0_mw, params))
    dv = (game.potential(deviated, gains, n0_mw, params)
          - game.potential(profile, gains, n0_mw, params))
    return float(abs(du - dv))
