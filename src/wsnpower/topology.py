"""Node placement, reachability graphs, degree rules, and connectivity checks."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import _denominators, _number, _prr_rows, sinr_for_prr, strategy_to_mw

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
        w, h = _area(self.area)
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if np.any(pos < -1e-9) or np.any(pos[:, 0] > w + 1e-9) or np.any(pos[:, 1] > h + 1e-9):
            raise ValueError("positions must lie inside the area")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "area", (w, h))

    @property
    def node_count(self) -> int:
        return self.positions.shape[0]


def _area(area):
    """A layout's (width, height): two finite positive numbers, as floats."""
    if isinstance(area, (list, tuple, np.ndarray)) and len(area) == 2:
        sides = tuple(float(_number(v, "topology area")) for v in area)
        if min(sides) > 0.0:
            return sides
    raise ValueError(f"topology area must be two finite positive sides, got {area!r}")


def _generated_layout(m, area, seed):
    """The generated-layout rule: (m >= 2 nodes, two positive sides, a seed
    >= 0), each a number by ``channel._number``, or a ``ValueError``."""
    m = _number(m, "topology m", integral=True)
    if m < 2:
        raise ValueError(f"topology m must be an integer >= 2, got {m!r}")
    seed = _number(seed, "topology seed", integral=True)
    if seed < 0:
        raise ValueError(f"topology seed must be a non-negative integer, got {seed!r}")
    return m, _area(area), seed


def random_topology(m: int, area=(100.0, 100.0), seed: int = 0) -> Topology:
    """Place m nodes uniformly at random in the area, reproducibly per seed."""
    m, (w, h), seed = _generated_layout(m, area, seed)
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
    rows = []
    for k, node in enumerate(nodes):
        for key in ("id", "x", "y"):
            if key not in node:
                name = f"id {node['id']}" if "id" in node else f"at index {k}"
                raise ValueError(f"topology node {name} has no {key!r} field")
        rows.append([_number(node[key], f"topology node at index {k} {key}", integral=key == "id")
                     for key in ("id", "x", "y")])
    rows.sort()
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ValueError("node ids must be 0..M-1 without gaps")
    return Topology(positions=[row[1:] for row in rows], area=area,
                    seed=_number(data.get("seed", 0), "topology seed", integral=True))


def save_topology(topo: Topology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_json_dict(topo), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, **kwargs):
    """An input file's JSON: a layout, a config or a report.  A file that
    cannot be read is bad input, like one that does not parse: both raise
    ``ValueError``, naming the file."""
    try:
        with open(path) as fh:
            return json.load(fh, **kwargs)
    except OSError as exc:
        raise ValueError(exc) from None


def load_topology(path) -> Topology:
    return topology_from_json_dict(_read_json(path))


# bench/run.py counts calls of ``topology.degree_at_power``, which ``_reach`` serves.
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


def _membership_breakpoints(s_eps, denominators, gains):
    """Strategy values at which each receiver enters a sender's neighbor set:
    25 + 10 log10(s_eps * denom_j / h_j), where s_eps is the SINR at which the
    PRR equals epsilon_link.  ``denominators`` and ``gains`` are arrays that
    broadcast together, with the entries of some receivers of each sender
    (one row per sender), never the sender itself.  A receiver with zero gain
    never enters: its breakpoint is +inf.

    When s_eps is 0 every receiver is a member at any power, so all
    breakpoints are -inf.  The sender's degree at power s is the number of
    breakpoints below s, up to the last bits of the PRR at a breakpoint.
    """
    if s_eps == 0.0:
        return np.full(np.broadcast_shapes(np.shape(denominators), np.shape(gains)), -np.inf)
    # a positive numerator over a zero gain is +inf
    with np.errstate(divide="ignore"):
        needed = s_eps * denominators / gains
    return 25.0 + 10.0 * np.log10(needed)


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
    # the requirement adds ceil(raw) to raw, at most 2 raw + 1
    if not math.isfinite(2.0 * raw + 1.0):
        raise ValueError(f"smallworld delta {delta!r} overflows the degree requirement")
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
    the maximum power if it meets k, else INFEASIBLE.  It is the one-row case
    of ``_degree_floors``.
    """
    others = np.arange(gains.shape[0]) != i
    denom = _denominators(i, profile.mw, gains, n0_mw, interference)
    points = np.sort(_membership_breakpoints(sinr_for_prr(epsilon_link, f_bytes), denom[others],
                                             gains[i, others]))
    return float(_degree_floors(profile, k, points[None], lambda rows: np.array([degree_at_power(
        i, profile.s_max, profile, gains, n0_mw, f_bytes, epsilon_link, interference)]))[0])


def _degree_floors(profile, k, points, degrees_at_s_max):
    """``min_power_for_degree`` for every row of ``points``, a (rows x K)
    array of sorted membership breakpoints padded with +inf.
    ``degrees_at_s_max(rows)`` gives the degree at s_max of the rows whose
    b_(k) lies within the slack below s_max, where the k-th link's PRR at
    s_max can fall a few ulps short of epsilon_link: the degree count that
    decides feasibility decides.  It is called only when such rows exist."""
    if k < 0:
        raise ValueError("required degree must be >= 0")
    if k == 0 or k > points.shape[1]:
        return np.full(points.shape[0], profile.s_min if k == 0 else INFEASIBLE)
    b = points[:, k - 1]
    floor = b + _BREAKPOINT_SLACK
    floors = np.where(b > profile.s_max, INFEASIBLE, np.maximum(profile.s_min, floor))
    edge = np.flatnonzero((b <= profile.s_max) & (floor > profile.s_max))
    if edge.size:
        floors[edge] = np.where(degrees_at_s_max(edge) >= k, profile.s_max, INFEASIBLE)
    return floors


def adjacency(prr_mat: np.ndarray, epsilon_link: float) -> np.ndarray:
    """Symmetric boolean adjacency of an analytic PRR matrix (``prr_matrix``):
    an edge needs PRR >= epsilon both ways."""
    ok = prr_mat >= epsilon_link
    adj = ok & ok.T
    np.fill_diagonal(adj, False)
    return adj


def is_connected_bfs(adj: np.ndarray) -> bool:
    """Breadth-first reachability from node 0, one whole frontier per level:
    the next frontier is every unseen node that a frontier row has an edge to."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    if seen.size == 0:
        raise ValueError("empty adjacency")
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = np.asarray(adj[frontier], dtype=bool).any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())
