"""Node placement, reachability graphs, degree rules, and connectivity checks."""

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import _denominators, _prr_rows, sinr_for_prr, strategy_to_mw

#: Sentinel returned by min_power_for_degree when no power in range reaches k.
INFEASIBLE = math.inf

# Within this distance of the k-th breakpoint, min_power_for_degree asks
# degree_at_power instead of trusting the breakpoint's last bits.
_BREAKPOINT_SLACK = 1e-7
# Width of the bracket at which min_power_for_degree's bisection stops.
_FLOOR_TOL = 1e-6


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


@dataclass(frozen=True)
class NeighborSet:
    """Nodes a given sender reaches with analytic PRR at or above the threshold."""

    owner: int
    members: frozenset
    epsilon_link: float

    def __post_init__(self):
        if not (0.0 < self.epsilon_link <= 1.0):
            raise ValueError("epsilon_link must lie in (0, 1]")
        if self.owner in self.members:
            raise ValueError("a node is not its own neighbor")


def _reach(i, own_mw, powers_mw, gains, n0_mw, f_bytes, epsilon_link, interference):
    """Receivers that node i reaches at ``own_mw`` with the others at ``powers_mw``.

    Boolean row with entry i False.  The interference at each receiver never
    includes the sender, so it does not depend on ``own_mw``.
    """
    return _reach_over(i, own_mw, _denominators(i, powers_mw, gains, n0_mw, interference),
                       gains, f_bytes, epsilon_link)


def _reach_over(i, own_mw, denom, gains, f_bytes, epsilon_link):
    """``_reach`` given node i's interference-plus-noise row ``denom``."""
    row = _prr_rows([i], np.array([own_mw], dtype=float), gains, denom, f_bytes)[0]
    return row >= epsilon_link


def neighbor_set(i: int, profile, gains: np.ndarray, n0_mw: float, f_bytes: int,
                 epsilon_link: float, interference: str = "none") -> NeighborSet:
    """Neighbors of node i at the profile's powers: link PRR >= epsilon_link."""
    mask = _reach(i, profile.mw[i], profile.mw, gains, n0_mw, f_bytes, epsilon_link,
                  interference)
    return NeighborSet(owner=i, members=frozenset(int(j) for j in np.flatnonzero(mask)),
                       epsilon_link=epsilon_link)


def degree_at_power(i: int, s_value: float, profile, gains, n0_mw, f_bytes,
                    epsilon_link, interference: str = "none") -> int:
    """Degree of node i if it transmitted at ``s_value`` with others unchanged."""
    return int(np.count_nonzero(_reach(i, strategy_to_mw(s_value), profile.mw, gains,
                                       n0_mw, f_bytes, epsilon_link, interference)))


def _membership_breakpoints(i, s_eps, denominators, h_row):
    """Strategy values at which each receiver j != i with a positive gain
    enters node i's neighbor set: 25 + 10 log10(s_eps * denom_j / h_ij), where
    s_eps is the SINR at which the PRR equals epsilon_link.

    Empty when s_eps is 0 (every receiver is a member at any power).  Each
    value goes through ``math.log10``; ``np.log10`` differs from it in the
    last bit for a few percent of inputs.
    """
    if s_eps == 0.0:
        return []
    reachable = h_row > 0.0
    reachable[i] = False
    needed = s_eps * denominators[reachable] / h_row[reachable]
    return [25.0 + 10.0 * math.log10(v) for v in needed.tolist()]


def rgg_degree_threshold(n: int, log_base: float = math.e) -> float:
    """Average degree 5.1774 * log(N) above which a random geometric graph
    is asymptotically almost surely connected.  Natural log by default."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not (log_base > 1.0):
        raise ValueError("log base must exceed 1")
    return 5.1774 * math.log(n) / math.log(log_base)


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

    Bisection over the monotone degree-versus-power map.  Each step tests
    "degree >= k" as s >= b_(k), the k-th smallest membership breakpoint, and
    counts the reach row as ``degree_at_power`` does within 1e-7 of it (or
    when every SINR meets epsilon_link), so the result equals a bisection
    that calls ``degree_at_power`` at every step.  Returns the profile's
    lower power bound when k == 0 and INFEASIBLE when even the maximum power
    leaves the degree short.
    """
    denom = _denominators(i, profile.mw, gains, n0_mw, interference)
    points = sorted(_membership_breakpoints(i, sinr_for_prr(epsilon_link, f_bytes), denom,
                                            gains[i, :]))
    return _degree_floor(i, profile, gains, f_bytes, epsilon_link, k, denom, points)


def _degree_floor(i, profile, gains, f_bytes, epsilon_link, k, denom, points):
    """``min_power_for_degree`` given node i's interference-plus-noise row
    ``denom`` and its sorted membership breakpoints ``points``, for callers
    that already built them."""
    if k < 0:
        raise ValueError("required degree must be >= 0")
    lo, hi = profile.s_min, profile.s_max
    if k == 0:
        return lo
    s_eps = sinr_for_prr(epsilon_link, f_bytes)
    b_k = points[k - 1] if k <= len(points) else math.inf

    def reaches(s):
        if s_eps == 0.0 or abs(s - b_k) <= _BREAKPOINT_SLACK:
            reached = _reach_over(i, strategy_to_mw(s), denom, gains, f_bytes, epsilon_link)
            return np.count_nonzero(reached) >= k
        return s >= b_k

    if not reaches(hi):
        return INFEASIBLE
    if reaches(lo):
        return lo
    while hi - lo > _FLOOR_TOL:
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
