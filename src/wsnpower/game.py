"""Per-node power game: neighborhood reliability benefit against energy cost.

Each node i picks a transmit power s_i to maximize

    u_i = log10(1 + 9 * NCR_i) - (s_i / 25)^2

where NCR_i is the mean analytic packet reception ratio over i's current
neighbor set.  The degree floor constrains the strategy set; it is not a
penalty.  Node i plays in [max(s_min, floor_i), s_max], floor_i being the
least power that gives it k neighbors (``topology.min_power_for_degree``).
A node that cannot reach k neighbors at s_max is infeasible: it plays in
[s_min, s_max] and scores only the cost.  ``utility`` evaluates any power,
with the cost-only branch below the floor; the best response and
``verify_equilibrium`` search only the strategy set.  With the default
clear-channel link model a node's reliability depends only on its own
power, the sum of utilities is an exact potential for unilateral
deviations, and sequential best responses ascend it to the unique
maximizer.  Under the optional worst-case concurrent-interference model the
utilities and the floors are coupled, and the potential trace is reported
rather than guaranteed monotone.

The game decouples when ``interference == "none"`` and ``ncr_denominator ==
"members"``: a node's utility then depends on its own power alone, and the
rest of the profile reaches its best response only through its incumbent,
one candidate among many.  So all nodes answer in lockstep, with results
identical to sequential Gauss-Seidel, and a second pass could only confirm
the first: ``solve`` and ``solve_discrete`` answer a decoupled game in one
pass.  The union denominator and concurrent interference keep one node at a
time and sweep until no node moves.  The potential, the feasibility flags
and the equilibrium check evaluate every node against its fixed profile as
one chunked table in either mode.

A best response evaluates its pre-scan, membership-breakpoint and incumbent
candidates in one table, then refines around the best of them by
golden-section search to within ``_BR_TOL``.  The size of the sweep group
picks how.  A lockstep group runs one array search over all its nodes
(``_lockstep_search``): one kernel call for every node's candidates, then
one per golden-section step for the nodes still searching.  A single node
(the coupled game and the public ``best_response``) runs the scalar search
``_best_response``, whose golden-section tables are speculative: a step's
new point depends only on the bracket and one comparison, so the points the
next few steps could ask for form a small binary tree that is known before
any of them is evaluated.  One kernel table then covers four steps instead
of one, and the search replays its steps from the returned values.  Both
searches visit the same points, make the same comparisons and return the
same result.  The discrete game scores every node's usable levels in one
(nodes x levels) table for any group.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .channel import (
    DBM_OFFSET,
    INTERFERENCE_MODES,
    STRATEGY_MAX,
    _check_link_inputs,
    _denominators,
    _prr_table,
    prr,  # noqa: F401  not called here; bench/run.py looks up ``game.prr`` by name
    prr_matrix,
    sinr_for_prr,
    strategy_to_mw,
)
from .topology import (
    INFEASIBLE,
    _degree_floor,
    _membership_breakpoints,
    smallworld_threshold,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEGREE_RULES = ("fixed-k", "smallworld")
NCR_DENOMINATORS = ("members", "union")


def _read_only(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StrategyProfile:
    """Per-node strategy values with shared bounds 0 < s_min < s_max <= 25."""

    s: np.ndarray
    s_min: float = 0.5
    s_max: float = STRATEGY_MAX

    def __post_init__(self):
        if not (0.0 < self.s_min < self.s_max <= STRATEGY_MAX):
            raise ValueError(
                f"need 0 < s_min < s_max <= {STRATEGY_MAX}, got [{self.s_min}, {self.s_max}]"
            )
        arr = np.asarray(self.s, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("strategy vector must be one-dimensional and non-empty")
        if np.any(arr < self.s_min - 1e-12) or np.any(arr > self.s_max + 1e-12):
            raise ValueError("strategy values must lie within the profile bounds")
        object.__setattr__(self, "s", _read_only(np.clip(arr, self.s_min, self.s_max).copy()))

    @property
    def n(self) -> int:
        return self.s.shape[0]

    # The views are built once per profile, read-only like ``s``.
    @cached_property
    def dbm(self) -> np.ndarray:
        return _read_only(self.s - 25.0)

    @cached_property
    def mw(self) -> np.ndarray:
        return _read_only(10.0 ** (self.dbm / 10.0))

    def with_power(self, i: int, value: float) -> "StrategyProfile":
        """This profile with s_i set to ``value``.  Only the new entry is
        checked and clipped: the others are in bounds already, where the
        clip is the identity."""
        arr = self.s.copy()
        arr[i] = value
        x = arr[i]
        if x < self.s_min - 1e-12 or x > self.s_max + 1e-12:
            raise ValueError("strategy values must lie within the profile bounds")
        arr[i] = min(max(x, self.s_min), self.s_max)
        profile = object.__new__(type(self))
        object.__setattr__(profile, "s", _read_only(arr))
        object.__setattr__(profile, "s_min", self.s_min)
        object.__setattr__(profile, "s_max", self.s_max)
        return profile

    @classmethod
    def constant(cls, m: int, value: float, s_min: float = 0.5,
                 s_max: float = STRATEGY_MAX) -> "StrategyProfile":
        return cls(s=np.full(m, float(value)), s_min=s_min, s_max=s_max)

    @classmethod
    def full_power(cls, m: int, s_min: float = 0.5,
                   s_max: float = STRATEGY_MAX) -> "StrategyProfile":
        return cls.constant(m, s_max, s_min=s_min, s_max=s_max)


@dataclass(frozen=True)
class GameParams:
    """Constants and switches of the power game."""

    ncr_scale: float = 9.0
    cost_denominator: float = 25.0
    f_bytes: int = 25
    epsilon_link: float = 0.01
    degree_target: int = 6
    degree_rule: str = "fixed-k"
    smallworld_delta: float = 0.1
    n_iter_max: int = 100
    ncr_denominator: str = "members"
    interference: str = "none"

    def __post_init__(self):
        if self.ncr_scale <= 0 or self.cost_denominator <= 0:
            raise ValueError("utility constants must be positive")
        if int(self.f_bytes) != self.f_bytes or self.f_bytes < 1:
            raise ValueError("payload bytes must be a positive integer")
        if not (0.0 < self.epsilon_link < 1.0):
            raise ValueError(f"epsilon_link must lie in (0, 1), got {self.epsilon_link!r}")
        if self.degree_target < 0:
            raise ValueError("degree target must be >= 0")
        if self.degree_rule not in DEGREE_RULES:
            raise ValueError(f"degree rule must be one of {DEGREE_RULES}")
        if self.degree_rule == "smallworld" and not (self.smallworld_delta > 0):
            raise ValueError("smallworld delta must be positive")
        if self.n_iter_max < 1:
            raise ValueError("need at least one sweep")
        if self.ncr_denominator not in NCR_DENOMINATORS:
            raise ValueError(f"ncr denominator must be one of {NCR_DENOMINATORS}")
        if self.interference not in INTERFERENCE_MODES:
            raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}")

    def required_degree(self, m: int) -> int:
        """Degree floor: the fixed target, or the small-world rule's d > m + Np."""
        if self.degree_rule == "fixed-k":
            return self.degree_target
        params = smallworld_threshold(m, self.smallworld_delta)
        return params.degree_requirement()


@dataclass
class EquilibriumResult:
    """Outcome of the sequential best-response dynamics; ``nonunimodal_events``
    counts the best responses whose pre-scan flagged, summed over sweeps."""

    profile: StrategyProfile
    sweeps_used: int
    potential_trace: list
    converged: bool
    per_node_feasible: list
    nonunimodal_events: int = 0
    profile_trace: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        prof = self.profile
        return {
            "nodes": [
                {
                    "id": i,
                    "s": float(prof.s[i]),
                    "dbm": float(prof.dbm[i]),
                    "mw": float(prof.mw[i]),
                    "feasible": bool(self.per_node_feasible[i]),
                }
                for i in range(prof.n)
            ],
            "sweeps_used": self.sweeps_used,
            "converged": self.converged,
            "potential_trace": [float(v) for v in self.potential_trace],
            "nonunimodal_events": self.nonunimodal_events,
        }


# Rows, and cells (rows x candidate columns), in one kernel table: bounds
# on its memory and on that of its per-row lists at any M.
_CHUNK_ROWS = 1 << 9
_CHUNK_CELLS = 1 << 15
# Strategy margin above s_max at which a receiver still counts as a
# candidate: far wider than the PRR's last-bit non-monotonicity in SINR, and
# it only adds columns that never hold a member.
_CANDIDATE_MARGIN = 1e-6
# Evenly spaced strategy values a best response's pre-scan evaluates.
_PRESCAN_SAMPLES = 64
# Bracket width at which a best response's golden section stops, and the
# largest move of a sweep that counts as converged.
_BR_TOL = 1e-6
_CONVERGENCE_TOL = 1e-4
# Golden-section steps a one-node best response evaluates ahead of need:
# each of its kernel tables then holds 2^(L+1) - 1 points (15) instead of one.
# The ``union`` denominator looks 0 steps ahead: under interference each of
# its rows builds an M x M PRR matrix, and with speculative rows its solves
# ran 22-34% slower (coupled and clear channel, 30 and 40 nodes, 2-vCPU VM).
_LOOKAHEAD = 3


def _decouples(params) -> bool:
    """Whether each node's utility depends on its own power alone."""
    return params.interference == "none" and params.ncr_denominator == "members"


def _row_sums(table, member, counts):
    """Per row of ``table``, the sum of its counts[r] ``member`` entries,
    bitwise ``np.add.reduce`` over those entries alone.

    Below 8 terms numpy adds one term after another (its pairwise summation
    starts at 8), so a table narrower than 8 is summed with its non-members
    set to 0.  A wider one gathers the members of its rows, stably sorted by
    count, into one array in which the rows of each count form a contiguous
    (rows x count) block, whose last-axis reduction pairs the terms as the
    1-D one does.  A masked sum would pair them differently, and so would
    ``np.add.reduceat``.
    """
    if table.shape[1] < 8:
        return np.add.reduce(np.where(member, table, 0.0), axis=1)
    order = np.argsort(counts, kind="stable")
    ordered, members = counts[order], table[order][member[order]]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), counts.size]
    sums = np.empty(counts.size)
    start = 0
    for a, b in zip(bounds, bounds[1:]):
        count = int(ordered[a])
        stop = start + (b - a) * count
        sums[order[a:b]] = np.add.reduce(members[start:stop].reshape(b - a, count), axis=1)
        start = stop
    return sums


def _padded_columns(candidate):
    """(M x K index of each row's True columns, ascending, padded with the
    row's own index; the pad mask, or None without pads)."""
    m = candidate.shape[0]
    rows, cols = np.nonzero(candidate)
    counts = np.bincount(rows, minlength=m)
    k = int(counts.max())
    index = np.repeat(np.arange(m)[:, None], k, axis=1)
    index[rows, np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)] = cols
    pads = np.arange(k) >= counts[:, None]
    return index, (pads if pads.any() else None)


class _Environment:
    """What stays fixed while nodes answer one profile, and the utility kernel.

    ``senders`` picks the interference-plus-noise rows to build once: one
    node index (that node's row, shared by the kernel and the degree floor of
    a coupled best response) or ``slice(None)`` (an M x M array for every
    node, row t bitwise the single-sender row).  Under the clear channel both
    are the one noise row.

    The kernel sees only each node's candidate receivers: the columns j != i
    whose SINR at s_max + ``_CANDIDATE_MARGIN`` reaches the epsilon-PRR
    threshold (every column when that is 0).  PRR rises with own power, so
    no other column holds a member in range.  One node keeps a 1-D index, a
    group an (M x K) index padded with each node's own column, whose entries
    are forced to 0.  The inputs are checked once here, over the full gain
    rows and the denominators.

    Per chunk of rows, each a pair (node, strategy value), one unchecked
    ``channel._prr_table`` call builds a (rows x K) table, reduced without a
    per-row loop.  Every value is bitwise what dense ``_prr_rows`` rows give
    one at a time: strategies go to mW in one array, as ``StrategyProfile.mw``
    does; columns stay in ascending order and ``_row_sums`` sums members as
    ``.mean()`` does; and ``math.log10`` and Python's ``pow`` score each row,
    since numpy's ``log10`` and squaring differ in the last bit on some
    inputs.

    A row's value depends only on its node and strategy value, never on the
    other rows of its call, so a search may batch its rows as it likes: one
    node's speculative steps (``_golden_section_max``) or one step of every
    node of a lockstep group (``_lockstep_search``).
    """

    def __init__(self, profile, gains, n0_mw, params, senders=slice(None)):
        self.profile = profile
        self.gains = gains
        self.n0_mw = n0_mw
        self.params = params
        self.denominators = d = _denominators(senders, profile.mw, gains, n0_mw,
                                              params.interference)
        rows = gains[senders]
        _check_link_inputs(rows, d, params.f_bytes)
        self.required_k = params.required_degree(profile.n)
        one_node = not isinstance(senders, slice)
        # SINR at s_max + margin reaches the threshold, without an M x M temporary
        top_mw = 10.0 ** ((profile.s_max + _CANDIDATE_MARGIN - DBM_OFFSET) / 10.0)
        candidate = rows >= sinr_for_prr(params.epsilon_link, params.f_bytes) / top_mw * d
        if one_node:
            candidate[senders] = False
            self.columns, self.pads = candidate.nonzero()[0], None
            self.column_gains, self.column_denominators = rows[self.columns], d[self.columns]
        else:
            np.fill_diagonal(candidate, False)
            self.columns, self.pads = _padded_columns(candidate)
            self.column_gains = np.take_along_axis(rows, self.columns, 1)
            # On the clear channel every denominator is the one noise value.
            self.column_denominators = (np.take_along_axis(d, self.columns, 1) if d.ndim == 2
                                        else d[:1])

    def denominator_row(self, i):
        d = self.denominators
        return d if d.ndim == 1 else d[i]

    def prr_table(self, nodes, xs):
        """(own mW per row, rows x K PRR table over the rows' candidate columns)."""
        mw = strategy_to_mw(xs)
        gains, denominators = self.column_gains, self.column_denominators
        if gains.ndim == 2:
            gains = gains[nodes]
            if denominators.ndim == 2:
                denominators = denominators[nodes]
        table = _prr_table(gains, mw, denominators, self.params.f_bytes)
        if self.pads is not None:
            table[self.pads[nodes]] = 0.0
        return mw, table

    def _tables(self, nodes, xs):
        """(nodes, xs, own mW, PRR table) per chunk of the rows."""
        nodes = np.asarray(nodes, dtype=np.intp)
        xs = np.asarray(xs, dtype=float)
        step = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(1, self.columns.shape[-1])))
        for a in range(0, xs.size, step):
            part_nodes, part_xs = nodes[a:a + step], xs[a:a + step]
            yield (part_nodes, part_xs, *self.prr_table(part_nodes, part_xs))

    def ncr_and_degree(self, nodes, mw, table):
        """Per row of a PRR table: NCR and degree."""
        params = self.params
        member = table >= params.epsilon_link
        degree = np.add.reduce(member, axis=1)
        totals = _row_sums(table, member, degree)
        if params.ncr_denominator == "members":
            return np.divide(totals, degree, out=np.zeros(degree.size), where=degree > 0), degree
        size = self._union_sizes(nodes, mw, member)
        ncr_values = np.divide(totals, size, out=np.zeros(degree.size), where=size > 0)
        return np.minimum(ncr_values, 1.0, out=ncr_values), degree

    @cached_property
    def _clear_reach(self):
        """Who reaches whom at the profile's powers on the clear channel,
        where no one's reach depends on another's power: every row's union
        size comes from this one matrix."""
        params = self.params
        return prr_matrix(self.profile.mw, self.gains, self.n0_mw,
                          params.f_bytes) >= params.epsilon_link

    def _union_sizes(self, nodes, mw, member):
        """Per row, how many nodes its members reach between them: the
        printed formula's NCR denominator, which couples the nodes and is off
        by default.  Under interference each row builds the PRR matrix of its
        own power."""
        params = self.params
        sizes = np.zeros(member.shape[0], dtype=np.intp)
        for r, (i, own_mw) in enumerate(zip(nodes.tolist(), mw.tolist())):
            if member[r].any():
                columns = self.columns if self.columns.ndim == 1 else self.columns[i]
                if params.interference == "none":
                    reach = self._clear_reach
                else:
                    powers = self.profile.mw.copy()
                    powers[i] = own_mw
                    reach = prr_matrix(powers, self.gains, self.n0_mw, params.f_bytes,
                                       params.interference) >= params.epsilon_link
                sizes[r] = np.count_nonzero(reach[columns[member[r]]].any(axis=0))
        return sizes

    def utilities(self, nodes, xs) -> np.ndarray:
        """Utility of node nodes[r] at strategy value xs[r], for every row r."""
        params = self.params
        parts = []
        for part_nodes, part_xs, mw, table in self._tables(nodes, xs):
            ncr_values, degree = self.ncr_and_degree(part_nodes, mw, table)
            n = part_xs.size
            benefit = np.fromiter(map(math.log10, (1.0 + params.ncr_scale * ncr_values).tolist()),
                                  float, n)
            cost = np.fromiter(map(pow, (part_xs / params.cost_denominator).tolist(), repeat(2)),
                               float, n)
            parts.append(np.where(degree >= self.required_k, benefit - cost, -cost))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def degrees(self, nodes, xs) -> np.ndarray:
        """Degree of node nodes[r] at strategy value xs[r], for every row r."""
        eps = self.params.epsilon_link
        return np.concatenate([np.add.reduce(table >= eps, axis=1)
                               for *_, table in self._tables(nodes, xs)])

    def membership_breakpoints(self, i):
        """Strategy values at which each candidate receiver enters node i's
        neighbor set; exact because PRR is monotone in own power.  Only a
        candidate's breakpoint can lie at or below s_max."""
        columns = self.columns
        if columns.ndim == 2:
            columns = columns[i] if self.pads is None else columns[i][~self.pads[i]]
        s_eps = sinr_for_prr(self.params.epsilon_link, self.params.f_bytes)
        return _membership_breakpoints(s_eps, self.denominator_row(i)[columns],
                                       self.gains[i, columns])


def utility(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
            params: GameParams) -> float:
    """Reliability benefit minus normalized energy cost for node i at its
    profile power: log10(1 + 9 NCR_i) - (s_i / 25)^2 when node i has at least
    k neighbors there, else -(s_i / 25)^2.  The second branch is the
    infeasible node's score; for a feasible node it lies below the degree
    floor, outside node i's strategy set [max(s_min, floor_i), s_max]."""
    env = _Environment(profile, gains, n0_mw, params, i)
    return float(env.utilities([i], [profile.s[i]])[0])


def potential(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
              params: GameParams) -> float:
    """Sum of the per-node utilities, evaluated branch by branch as
    ``utility`` does.  It is an exact potential on the strategy sets
    [max(s_min, floor_i), s_max] (the whole range for an infeasible node)
    when the game decouples."""
    env = _Environment(profile, gains, n0_mw, params)
    return float(sum(env.utilities(np.arange(profile.n), profile.s).tolist()))


def exact_potential_residual(profile: StrategyProfile, i: int, s_prime: float,
                             gains: np.ndarray, n0_mw: float, params: GameParams) -> float:
    """|(u_i after - u_i before) - (V after - V before)| for a unilateral move.

    Zero up to float roundoff under the clear-channel default, where only the
    deviator's own term of the potential can change.
    """
    deviated = profile.with_power(i, s_prime)
    du = utility(i, deviated, gains, n0_mw, params) - utility(i, profile, gains, n0_mw, params)
    dv = potential(deviated, gains, n0_mw, params) - potential(profile, gains, n0_mw, params)
    return float(abs(du - dv))


def _golden_step(a, b, c, d, left):
    """One golden-section step from the bracket [a, b] with interior points
    c < d: keep [a, d] when ``left`` (f(c) >= f(d)), else [c, b].  Returns
    the new (a, b, c, d) and its one new point."""
    if left:
        b, d = d, c
        c = b - _INV_GOLDEN * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _INV_GOLDEN * (b - a)
    return (a, b, c, d), d


def _speculate(state, tol, depth):
    """{node: point} for every point the next ``depth`` steps from ``state``
    can ask for, in breadth-first order.

    A step's new point depends only on the bracket and one comparison, so
    these points form a binary tree: ``state`` is node 1, and node n's step
    leads to node 2n when f(c) >= f(d) and to node 2n + 1 otherwise.  It holds
    at most 2^(depth+1) - 2 points, pruned where the bracket is within ``tol``
    and the search stops.
    """
    tree, level = {}, [(1, state)]
    for _ in range(depth):
        below = []
        for node, (a, b, c, d) in level:
            if b - a > tol:
                for left in (True, False):
                    child = 2 * node + (not left)
                    after, tree[child] = _golden_step(a, b, c, d, left)
                    below.append((child, after))
        level = below
    return tree


def _golden_section_max(f, lo: float, hi: float, tol: float, lookahead: int):
    """Golden-section search for a maximum on [lo, hi] of the batch objective
    f, which maps a list of points to the list of their values; returns
    (x, f(x)).

    With ``lookahead`` L > 0 each call of f also holds every point the next L
    steps could ask for (``_speculate``), so one kernel table covers L + 1
    steps.  The search replays its steps from the returned values: it makes
    the same comparisons on the same points as with L = 0, and only the
    number of calls changes.
    """
    state = (lo, hi, hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo))
    tree = _speculate(state, tol, lookahead)
    fc, fd, *values = f([state[2], state[3], *tree.values()])
    known, node = dict(zip(tree, values)), 1
    while state[1] - state[0] > tol:
        left = fc >= fd
        state, x = _golden_step(*state, left)
        node = 2 * node + (not left)
        if node not in known:
            tree = _speculate(state, tol, lookahead)
            fx, *values = f([x, *tree.values()])
            known, node = {1: fx, **dict(zip(tree, values))}, 1
        fc, fd = (known[node], fc) if left else (fd, known[node])
    return (state[2], fc) if fc >= fd else (state[3], fd)


def _scan_nonunimodal(values, atol: float = 1e-12):
    """Per row of sampled values (last axis): whether it rises again after
    having fallen.  A step cannot both fall and rise, so a rise counts when
    some step up to it fell."""
    prev, cur = values[..., :-1], values[..., 1:]
    fell = np.logical_or.accumulate(cur < prev - atol, axis=-1)
    return (fell & (cur > prev + atol)).any(axis=-1)


def _search_floor(i, env):
    """(Node i's sorted membership breakpoints, its degree floor)."""
    breakpoints = sorted(env.membership_breakpoints(i))
    return breakpoints, _degree_floor(env.profile, env.required_k, breakpoints,
                                      lambda: env.degrees([i], [env.profile.s_max])[0])


def _best_response(env, i):
    """Maximize node i's utility over its strategy set: (s_star, flagged).

    The flag records that the uniform pre-scan saw the objective rise again
    after falling, i.e. the sampled profile was not unimodal on the search
    interval.

    The pre-scan, the membership breakpoints and the incumbent go into one
    kernel table, since no candidate depends on another's value.  The
    golden-section refinement looks ``_LOOKAHEAD`` steps ahead, none under
    the ``union`` denominator.  ``_lockstep_search`` is this search over
    arrays, for many nodes at once.
    """
    profile, params = env.profile, env.params
    breakpoints, floor = _search_floor(i, env)
    if floor == INFEASIBLE:
        # Cost-only branch everywhere: spend as little as allowed.
        return profile.s_min, False
    lo = max(profile.s_min, floor)
    hi = profile.s_max
    if hi - lo <= _BR_TOL:
        return hi, False

    def f(xs):
        return env.utilities([i] * len(xs), xs).tolist()

    # Coarse uniform pre-scan, membership breakpoints, and the incumbent value
    # as explicit candidates, all in one table; golden-section refinement
    # around the best one.
    scan_points = list(np.linspace(lo, hi, _PRESCAN_SAMPLES))
    candidates = list(scan_points)
    for b in breakpoints:
        if lo < b < hi:
            candidates.append(b)
            if b - 1e-9 > lo:
                candidates.append(b - 1e-9)
    incumbent = float(profile.s[i])
    if lo <= incumbent <= hi:
        candidates.append(incumbent)
    candidates = sorted(set(candidates))
    values = f(candidates)
    cache = dict(zip(candidates, values))
    nonunimodal = bool(_scan_nonunimodal(np.array([cache[x] for x in scan_points])))
    best_idx = int(np.argmax(values))
    best_x, best_val = candidates[best_idx], values[best_idx]

    bracket_lo = candidates[best_idx - 1] if best_idx > 0 else lo
    bracket_hi = candidates[best_idx + 1] if best_idx + 1 < len(candidates) else hi
    if bracket_hi - bracket_lo > _BR_TOL:
        lookahead = _LOOKAHEAD if params.ncr_denominator == "members" else 0
        x_ref, v_ref = _golden_section_max(f, bracket_lo, bracket_hi, _BR_TOL, lookahead)
        if v_ref > best_val:
            best_x, best_val = x_ref, v_ref
    return float(best_x), nonunimodal


def _lockstep_search(env, nodes):
    """``_best_response`` for every node of a lockstep group at once:
    (s* per node, how many flagged).

    Each step is one kernel call over the nodes still searching, and every
    array operation is the scalar one per element, so each node visits the
    same points, makes the same comparisons and returns the same value as
    alone.  The pre-scan is one ``linspace`` over the rows, bitwise the
    per-row calls.  The breakpoint and incumbent candidates pad their rows
    with +inf, and a stable sort puts the scan points first among equal
    values.  Every finite candidate goes to the kernel, copies too: a row's
    utility depends only on its node and value, so copies score bitwise
    alike, and the first maximum and its distinct neighbours, the bracket,
    are those of the scalar search's distinct candidates.  The golden
    section holds its state in arrays.
    """
    profile = env.profile
    hi, tol = profile.s_max, _BR_TOL
    breakpoints, floors = zip(*(_search_floor(i, env) for i in nodes))
    lo = np.maximum(profile.s_min, floors)
    # the scalar search's early answers: s_min when infeasible, else hi
    # when the range is within tol
    s_star = np.where(lo == INFEASIBLE, profile.s_min, hi)
    search = np.flatnonzero(hi - lo > tol)
    if search.size == 0:
        return s_star, 0
    nodes, lo = np.asarray(nodes)[search], lo[search]
    breakpoints = [breakpoints[r] for r in search.tolist()]
    points = np.full((search.size, max(map(len, breakpoints))), np.inf)
    for row, b in enumerate(breakpoints):
        points[row, :len(b)] = b
    inside = (lo[:, None] < points) & (points < hi)
    below = points - 1e-9
    incumbent = profile.s[nodes]
    raw = np.column_stack([
        np.linspace(lo, hi, _PRESCAN_SAMPLES, axis=1),
        np.where(inside, points, np.inf),
        np.where(inside & (below > lo[:, None]), below, np.inf),
        np.where((lo <= incumbent) & (incumbent <= hi), incumbent, np.inf)])
    order = np.argsort(raw, axis=1, kind="stable")
    cand = np.take_along_axis(raw, order, axis=1)
    finite = np.isfinite(cand)
    values = np.full(cand.shape, -np.inf)
    values[finite] = env.utilities(np.repeat(nodes, finite.sum(axis=1)), cand[finite])
    flagged = _scan_nonunimodal(values[order < _PRESCAN_SAMPLES].reshape(-1, _PRESCAN_SAMPLES))

    rows, best = np.arange(search.size), np.argmax(values, axis=1)
    x, v = cand[rows, best], values[rows, best]
    # lo and hi are always candidates, so they bound the neighbours
    a = np.maximum(np.where(cand < x[:, None], cand, -np.inf).max(axis=1), lo)
    b = np.minimum(np.where(cand > x[:, None], cand, np.inf).min(axis=1), hi)
    refine = np.flatnonzero(b - a > tol)
    if refine.size:
        x_ref, v_ref = _lockstep_golden_section(env, nodes[refine], a[refine], b[refine], tol)
        better = v_ref > v[refine]
        x[refine[better]] = x_ref[better]
    s_star[search] = x
    return s_star, int(np.count_nonzero(flagged))


def _lockstep_golden_section(env, nodes, a, b, tol):
    """``_golden_section_max`` on the brackets [a, b] of several nodes, its
    (a, b, c, d, fc, fd) state held in arrays: one kernel call per step for
    the nodes whose bracket is still wider than tol.  Returns (x, f(x)) per
    node.  It looks no step ahead: the nodes already share each step's
    table, and speculative rows made lockstep solves slower when timed
    (``default-80`` median job 0.29 -> 0.35 s, 2-vCPU VM)."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = env.utilities(np.repeat(nodes, 2), np.column_stack([c, d]).ravel()).reshape(-1, 2).T
    while (live := np.flatnonzero(b - a > tol)).size:
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        # as _golden_step: left keeps [a, d], right keeps [c, b]
        b[lt], d[lt] = d[lt], c[lt]
        c[lt] = b[lt] - _INV_GOLDEN * (b[lt] - a[lt])
        a[rt], c[rt] = c[rt], d[rt]
        d[rt] = a[rt] + _INV_GOLDEN * (b[rt] - a[rt])
        fx = env.utilities(nodes[live], np.where(left, c[live], d[live]))
        fc[lt], fd[lt] = fx[left], fc[lt]
        fc[rt], fd[rt] = fd[rt], fx[~left]
    top = fc >= fd
    return np.where(top, c, d), np.where(top, fc, fd)


def best_response(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                  params: GameParams) -> float:
    """Utility-maximizing power for node i against the rest of the profile."""
    env = _Environment(profile, gains, n0_mw, params, i)
    return _best_response(env, i)[0]


def _per_node_feasible(profile, gains, n0_mw, params):
    """Whether each node can reach its degree floor at some power in range:
    its degree at the maximum power meets the floor.  This is the count that
    decides min_power_for_degree when b_(k) lies within the slack below
    s_max, so the two agree, and one PRR table at s_max costs less than
    every node's breakpoints."""
    k = params.required_degree(profile.n)
    if k == 0:
        return [True] * profile.n
    env = _Environment(profile, gains, n0_mw, params)
    degree = env.degrees(np.arange(profile.n), np.full(profile.n, profile.s_max))
    return [d >= k for d in degree.tolist()]


def _best_responses(env, nodes):
    """The continuous game's answers of a sweep group: (s* per node, how
    many flagged).  A lone node runs the speculative scalar search, a
    lockstep group the array search; both return what each node's search
    alone returns."""
    if len(nodes) > 1:
        return _lockstep_search(env, nodes)
    s_star, flagged = _best_response(env, nodes[0])
    return [s_star], int(flagged)


def _sweep(profile, gains, n0_mw, params, respond):
    """One pass of best responses in index order; ``respond(env, nodes)``
    answers a group of nodes with (s* per node, how many flagged).
    Returns the new profile and the flag count.

    When the game decouples, a node's response depends on the rest of the
    profile only through its own incumbent, which no earlier node of the
    sweep changes.  All nodes then answer the sweep's starting profile in
    one group, as they would in turn, and one sweep is the whole solve;
    otherwise each node answers the profile its predecessors left.
    """
    order = list(range(profile.n))
    groups = [(slice(None), order)] if _decouples(params) else [(i, [i]) for i in order]
    flags = 0
    for senders, nodes in groups:
        env = _Environment(profile, gains, n0_mw, params, senders)
        s_star, flagged = respond(env, nodes)
        flags += flagged
        for i, s in zip(nodes, np.asarray(s_star).tolist()):
            profile = profile.with_power(i, s)
    return profile, flags


def _iterate(profile0, gains, n0_mw, params, respond) -> EquilibriumResult:
    """Sweep until no node moves by ``_CONVERGENCE_TOL`` or n_iter_max sweeps ran.

    The driver of both the continuous and the discrete game: the exact
    potential makes sequential best responses ascend on either strategy set.
    A decoupled game stops after its first sweep, converged: a node's answer
    depends only on its own power and its incumbent, which is only one
    candidate, so a second sweep could only confirm the first.
    """
    current = profile0
    trace = [potential(current, gains, n0_mw, params)]
    profiles = [np.array(current.s)]
    flags = sweeps = 0
    converged = False
    while sweeps < params.n_iter_max and not converged:
        new_profile, sweep_flags = _sweep(current, gains, n0_mw, params, respond)
        sweeps += 1
        flags += sweep_flags
        trace.append(potential(new_profile, gains, n0_mw, params))
        profiles.append(np.array(new_profile.s))
        moved = float(np.max(np.abs(new_profile.s - current.s)))
        converged = _decouples(params) or moved < _CONVERGENCE_TOL
        current = new_profile
    return EquilibriumResult(
        profile=current,
        sweeps_used=sweeps,
        potential_trace=trace,
        converged=converged,
        per_node_feasible=_per_node_feasible(current, gains, n0_mw, params),
        nonunimodal_events=flags,
        profile_trace=profiles,
    )


def solve(profile0: StrategyProfile, gains: np.ndarray, n0_mw: float,
          params: GameParams) -> EquilibriumResult:
    """Iterate sweeps until the profile changes by less than ``_CONVERGENCE_TOL``.

    A decoupled game takes one lockstep pass (see ``_iterate``); a coupled
    game's non-convergence within n_iter_max sweeps is reported, not raised.
    """
    return _iterate(profile0, gains, n0_mw, params, _best_responses)


def verify_equilibrium(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                       params: GameParams, epsilon: float = 1e-4,
                       grid_step: float = 0.05):
    """Grid-scan every node's unilateral deviations within its strategy set.

    Node i's deviations are the grid points in [max(s_min, floor_i), s_max]
    plus that lower end, where floor_i is the floor the best response
    searches above (``_search_floor``); an infeasible node scans the whole
    grid.  Every node's current value and deviations go through one chunked
    kernel table.  Returns (passed, worst_improvement): passed is True when
    no deviation improves any node's utility by more than epsilon.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    grid = np.arange(profile.s_min, profile.s_max, grid_step)
    if grid.size == 0 or grid[-1] < profile.s_max:
        grid = np.append(grid, profile.s_max)
    n = profile.n
    env = _Environment(profile, gains, n0_mw, params)
    floors = np.array([_search_floor(i, env)[1] for i in range(n)])
    lo = np.where(floors == INFEASIBLE, profile.s_min, floors)
    xs = np.column_stack([profile.s, lo, np.broadcast_to(grid, (n, grid.size))])
    scan = xs >= lo[:, None]
    scan[:, 0] = True
    values = np.full(xs.shape, -np.inf)
    values[scan] = env.utilities(np.repeat(np.arange(n), scan.sum(axis=1)), xs[scan])
    # Rounding is monotone, so max(v) - base is bitwise max(v - base).
    worst = float(np.max(values[:, 1:].max(axis=1) - values[:, 0]))
    return worst <= epsilon, worst
