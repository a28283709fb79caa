"""Node placement, reachability graphs, degree rules, and connectivity checks."""

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import _denominators, _prr_rows, sinr_for_prr, strategy_to_mw

#: Sentinel returned by min_power_for_degree when no power in range reaches k.
INFEASIBLE = math.inf

# Margin the degree floor keeps above the k-th membership breakpoint.  At the
# breakpoint itself the k-th link's PRR can fall a few ulps short of
# epsilon_link; the margin is far wider than that and than the PRR's last-bit
# non-monotonicity in SINR.
_BREAKPOINT_SLACK = 1e-7


@dataclass(frozen=True)
class Topology:
    """A set of node positions inside a rectangular deployment area."""

    positions: np.ndarray          # (M, 2) meters
    area: tuple                    # (width, height) meters
    seed: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise ValueError("positions must be an (M, 2) array with M >= 2")
        w, h = float(self.area[0]), float(self.area[1])
        if not (w > 0.0 and h > 0.0):
            raise ValueError("area sides must be positive")
        if np.any(pos < -1e-9) or np.any(pos[:, 0] > w + 1e-9) or np.any(pos[:, 1] > h + 1e-9):
            raise ValueError("positions must lie inside the area")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "area", (w, h))

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]


def random_topology(m: int, area=(100.0, 100.0), seed: int = 0) -> Topology:
    """Place m nodes uniformly at random in the area, reproducibly per seed."""
    if m < 2:
        raise ValueError("need at least 2 nodes")
    w, h = float(area[0]), float(area[1])
    rng = np.random.default_rng(seed)
    pos = rng.uniform([0.0, 0.0], [w, h], size=(m, 2))
    return Topology(positions=pos, area=(w, h), seed=seed)


def topology_to_json_dict(topo: Topology) -> dict:
    return {
        "nodes": [
            {"id": i, "x": float(topo.positions[i, 0]), "y": float(topo.positions[i, 1])}
            for i in range(topo.node_count)
        ],
        "area": [topo.area[0], topo.area[1]],
        "seed": topo.seed,
    }


def topology_from_json_dict(data: dict) -> Topology:
    try:
        nodes = data["nodes"]
        area = data["area"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"topology JSON missing required field: {exc}") from exc
    for k, node in enumerate(nodes):
        for key in ("id", "x", "y"):
            if key not in node:
                name = f"id {node['id']}" if "id" in node else f"at index {k}"
                raise ValueError(f"topology node {name} has no {key!r} field")
    ids = [int(n["id"]) for n in nodes]
    if sorted(ids) != list(range(len(nodes))):
        raise ValueError("node ids must be 0..M-1 without gaps")
    pos = np.zeros((len(nodes), 2))
    for n in nodes:
        pos[int(n["id"])] = (float(n["x"]), float(n["y"]))
    return Topology(positions=pos, area=(float(area[0]), float(area[1])),
                    seed=int(data.get("seed", 0)))


def save_topology(topo: Topology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_json_dict(topo), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_topology(path) -> Topology:
    with open(path) as fh:
        return topology_from_json_dict(json.load(fh))


def _reach(i, own_mw, powers_mw, gains, n0_mw, f_bytes, epsilon_link, interference):
    """Receivers that node i reaches at ``own_mw`` with the others at ``powers_mw``.

    Boolean row with entry i False.  The interference at each receiver never
    includes the sender, so it does not depend on ``own_mw``.
    """
    denom = _denominators(i, powers_mw, gains, n0_mw, interference)
    row = _prr_rows([i], np.array([own_mw], dtype=float), gains, denom, f_bytes)[0]
    return row >= epsilon_link


def degree_at_power(i: int, s_value: float, profile, gains, n0_mw, f_bytes,
                    epsilon_link, interference: str = "none") -> int:
    """Degree of node i if it transmitted at ``s_value`` with others unchanged."""
    return int(np.count_nonzero(_reach(i, strategy_to_mw([s_value])[0], profile.mw, gains,
                                       n0_mw, f_bytes, epsilon_link, interference)))


def _membership_breakpoints(i, s_eps, denominators, h_row):
    """Strategy values at which each receiver j != i with a positive gain
    enters node i's neighbor set: 25 + 10 log10(s_eps * denom_j / h_ij), where
    s_eps is the SINR at which the PRR equals epsilon_link.

    When s_eps is 0 every receiver is a member at any power, so all M - 1
    breakpoints are -inf.  Node i's degree at power s is the number of
    breakpoints below s, up to the last bits of the PRR at a breakpoint.
    Each value goes through ``math.log10``; ``np.log10`` differs from it in
    the last bit for a few percent of inputs.
    """
    if s_eps == 0.0:
        return [-math.inf] * (h_row.size - 1)
    reachable = h_row > 0.0
    reachable[i] = False
    needed = s_eps * denominators[reachable] / h_row[reachable]
    return [25.0 + 10.0 * math.log10(v) for v in needed.tolist()]


def rgg_degree_threshold(n: int) -> float:
    """Average degree 5.1774 * ln(N) above which a random geometric graph
    is asymptotically almost surely connected."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return 5.1774 * math.log(n)


@dataclass(frozen=True)
class SmallWorldParams:
    """Neighbor counts for a small-world construction on M nodes.

    ``shortcut_expectation`` is the raw value (1 + delta) * sqrt(2 ln M) and
    ``m_nearest`` is its ceiling, the number of nearest neighbors to wire.
    """

    delta: float
    m_nearest: int
    shortcut_expectation: float

    def degree_requirement(self) -> int:
        """Smallest integer degree strictly exceeding m_nearest + shortcut_expectation."""
        threshold = self.m_nearest + self.shortcut_expectation
        return int(math.floor(threshold)) + 1


def smallworld_threshold(m: int, delta: float) -> SmallWorldParams:
    if m < 2:
        raise ValueError("need at least 2 nodes")
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    raw = (1.0 + delta) * math.sqrt(2.0 * math.log(m))
    return SmallWorldParams(delta=delta, m_nearest=int(math.ceil(raw)),
                            shortcut_expectation=raw)


def min_power_for_degree(i: int, profile, gains: np.ndarray, n0_mw: float, f_bytes: int,
                         epsilon_link: float, k: int, interference: str = "none") -> float:
    """Smallest strategy value giving node i at least k neighbors.

    Node i's degree is a step function of its own power that rises at its
    membership breakpoints, so the floor is b_(k), the k-th smallest of them,
    plus ``_BREAKPOINT_SLACK``, raised to the lower power bound.  Returns the
    lower bound when k == 0 and INFEASIBLE when b_(k) lies above the maximum
    power or node i has fewer than k potential receivers.  When b_(k) lies
    within the slack below the maximum power, the degree there decides:
    the maximum power if it meets k, else INFEASIBLE.
    """
    denom = _denominators(i, profile.mw, gains, n0_mw, interference)
    points = sorted(_membership_breakpoints(i, sinr_for_prr(epsilon_link, f_bytes), denom,
                                            gains[i, :]))
    return _degree_floor(profile, k, points, lambda: degree_at_power(
        i, profile.s_max, profile, gains, n0_mw, f_bytes, epsilon_link, interference))


def _degree_floor(profile, k, points, degree_at_s_max):
    """``min_power_for_degree`` given the node's sorted membership
    breakpoints ``points``, for callers that already built them.
    ``degree_at_s_max()`` is called only when b_(k) lies within the slack
    below s_max, where the k-th link's PRR at s_max can fall a few ulps short
    of epsilon_link: the degree count that decides feasibility decides."""
    if k < 0:
        raise ValueError("required degree must be >= 0")
    if k == 0:
        return profile.s_min
    if k > len(points) or points[k - 1] > profile.s_max:
        return INFEASIBLE
    floor = points[k - 1] + _BREAKPOINT_SLACK
    if floor > profile.s_max:
        return profile.s_max if degree_at_s_max() >= k else INFEASIBLE
    return max(profile.s_min, floor)


def adjacency(prr_mat: np.ndarray, epsilon_link: float) -> np.ndarray:
    """Symmetric boolean adjacency of an analytic PRR matrix (``prr_matrix``):
    an edge needs PRR >= epsilon both ways."""
    ok = prr_mat >= epsilon_link
    adj = ok & ok.T
    np.fill_diagonal(adj, False)
    return adj


def is_connected_bfs(adj: np.ndarray) -> bool:
    """Breadth-first reachability from node 0."""
    m = adj.shape[0]
    if m == 0:
        raise ValueError("empty adjacency")
    if m == 1:
        return True
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                queue.append(int(v))
    return bool(seen.all())


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
