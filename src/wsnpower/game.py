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
time and sweep until no node moves, keeping the interference totals of the
profile until a node moves (``_sweep``).  A solve re-points one environment
at each sweep's profile, so on the clear channel it computes each node's
strategy set once.  The potential, the feasibility flags and the equilibrium
check evaluate every node against its fixed profile as one chunked table.

A best response evaluates its pre-scan, membership-breakpoint and incumbent
candidates in one kernel table, then refines the bracket around the best of
them by block search (Avriel & Wilde, *Management Science* 1966): each round
scores P + 2 evenly spaced points inside every still-open bracket in one
table and narrows it to the best point's two neighbours, until it is within
``_BR_TOL``.  Two searches run it, and ``_respond`` picks one by group size:
an array search (``_best_responses``) for a lockstep group, all its nodes in
each table, and a scalar search (``_lone_response``) for a node that answers
alone (every group of the coupled game, and the public ``best_response``),
on flat arrays of the node's candidate columns; a node with fewer of them
than k is infeasible and answers s_min without a table in either search.
They score the same candidates and grids in the same kernel calls, so their
answers and flags are bitwise equal.  P depends on the game's parameters
alone, never on the group, so a node answers the same in a group as alone.
The discrete game scores every node's usable levels at or above its floor
in one (nodes x levels) table for any group.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import (
    DBM_OFFSET,
    INTERFERENCE_MODES,
    STRATEGY_MAX,
    _check_link_inputs,
    _check_numbers,
    _denominators,
    _less_own,
    _prr_table,
    _received,
    prr,  # noqa: F401  not called here; bench/run.py looks up ``game.prr`` by name
    prr_matrix,
    sinr_for_prr,
)
from .topology import (
    INFEASIBLE,
    _degree_floors,
    _membership_breakpoints,
    smallworld_threshold,
)

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
        if not np.all((self.s_min - 1e-12 <= arr) & (arr <= self.s_max + 1e-12)):
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
        """This profile with s_i set to ``value`` (itself if s_i keeps its
        value).  Only the new entry is checked and clipped: the others are in
        bounds already, where the clip is the identity."""
        arr = self.s.copy()
        arr[i] = value
        x = arr[i]
        if not (self.s_min - 1e-12 <= x <= self.s_max + 1e-12):
            raise ValueError("strategy values must lie within the profile bounds")
        arr[i] = x = min(max(x, self.s_min), self.s_max)
        if x == self.s[i]:
            return self
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
        _check_numbers(self, "game")
        if not (self.ncr_scale > 0 and self.cost_denominator > 0):
            raise ValueError("utility constants must be positive and finite")
        if not (0.0 < self.epsilon_link < 1.0):
            raise ValueError(f"epsilon_link must lie in (0, 1), got {self.epsilon_link!r}")
        if self.degree_rule == "smallworld" and not (self.smallworld_delta > 0):
            raise ValueError(f"smallworld delta must be positive, got {self.smallworld_delta!r}")
        for name, least in (("f_bytes", 1), ("degree_target", 0), ("n_iter_max", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"game {name} must be >= {least}, got {getattr(self, name)!r}")
        for name, choices in (("degree_rule", DEGREE_RULES), ("ncr_denominator", NCR_DENOMINATORS),
                              ("interference", INTERFERENCE_MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"game {name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")

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
        columns = zip(prof.s.tolist(), prof.dbm.tolist(), prof.mw.tolist(), self.per_node_feasible)
        return {
            "nodes": [{"id": i, "s": s, "dbm": dbm, "mw": mw, "feasible": bool(feasible)}
                      for i, (s, dbm, mw, feasible) in enumerate(columns)],
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
# Bracket width at which a best response's refinement stops, and the
# largest move of a sweep that counts as converged.
_BR_TOL = 1e-6
_CONVERGENCE_TOL = 1e-4
# P: each refinement round scores P + 2 evenly spaced points inside a
# bracket and cuts it to 2 / (P + 3) of its width.  The coupled ``members``
# game answers one node at a time (by the scalar search) with cheap rows, so
# few wide tables serve it best; a lockstep group already shares each table
# among its nodes, and a ``union`` row under interference builds an M x M
# PRR matrix, so both take narrower ones.  Either search takes the same P.
_REFINE_POINTS_ALONE = 63
_REFINE_POINTS = 15
_STEPS_ALONE = np.linspace(0.0, 1.0, _REFINE_POINTS_ALONE + 4)
_STEPS = np.linspace(0.0, 1.0, _REFINE_POINTS + 4)
# The pre-scan's sample indices, as floats (an int index converts exactly).
_SCAN_INDEX = np.arange(_PRESCAN_SAMPLES, dtype=float)


def _decouples(params) -> bool:
    """Whether each node's utility depends on its own power alone."""
    return params.interference == "none" and params.ncr_denominator == "members"


def _row_sums(table, member):
    """Per row of ``table``, the sum of its ``member`` entries, added from
    left to right.  Each non-member adds an exact 0.0, which leaves a float
    unchanged, so a row sums alike at any table width and in any group."""
    sums = np.add.accumulate(np.where(member, table, 0.0), axis=1)
    return sums[:, -1] if sums.shape[1] else np.zeros(sums.shape[0])


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
    no other column holds a member in range, nor a breakpoint
    (``strategy_sets``) at or below s_max.  One node keeps a 1-D index, a
    group an (M x K) index padded with each node's own column, whose PRRs
    are forced to 0; its zero gain puts its breakpoint at +inf.  Every gain
    and the noise floor are checked once here: any row built from them, at
    any profile, is at least the noise floor (or NaN).

    ``at`` re-points a group environment at a solve's next profile.  On the
    clear channel only the reach changes: no profile moves the candidate
    columns or the strategy sets (breakpoints, floors, feasibility).  Under
    interference it takes a new focus, as each node of a coupled sweep does.

    Per chunk of rows, each a pair (node, strategy value), one unchecked
    ``channel._prr_table`` call builds a (rows x K) table, reduced and scored
    without a per-row loop.  Every PRR, degree and NCR is bitwise what dense
    ``_prr_rows`` rows give one at a time: strategies go to mW in one array,
    as ``StrategyProfile.mw`` does, and ``_row_sums`` adds each row's members
    from left to right, so neither the pads nor the other rows move a sum.

    A row's value depends only on its node and strategy value, never on the
    other rows of its call, so a search may batch its rows as it likes: every
    node of a sweep group, and any number of points per node, in one call of
    ``utilities``.
    """

    def __init__(self, profile, gains, n0_mw, params, senders=slice(None)):
        _check_link_inputs(gains, np.array([n0_mw]), params.f_bytes)
        self.gains, self.n0_mw, self.params = gains, n0_mw, params
        self.required_k = params.required_degree(profile.n)
        self.s_eps = sinr_for_prr(params.epsilon_link, params.f_bytes)
        # SINR at s_max + margin reaches s_eps where gain >= threshold * d
        top_mw = 10.0 ** ((profile.s_max + _CANDIDATE_MARGIN - DBM_OFFSET) / 10.0)
        self.threshold = self.s_eps / top_mw
        self._focus(profile, senders, _denominators(senders, profile.mw, gains, n0_mw,
                                                    params.interference))

    def _focus(self, profile, senders, d):
        """Point the environment at ``senders`` of ``profile``, with rows ``d``:
        what changes from one node of a coupled sweep to the next."""
        self.profile, self.denominators = profile, d
        for name in ("_clear_reach", "strategy_sets"):  # cached for the last focus
            self.__dict__.pop(name, None)
        rows = self.gains[senders]
        candidate = rows >= self.threshold * d
        if not isinstance(senders, slice):
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
        # rows per kernel table
        self.chunk = max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // max(1, self.columns.shape[-1])))

    def at(self, profile):
        """This group environment, re-pointed at ``profile`` (of the same bounds)."""
        if self.params.interference != "none":
            self._focus(profile, slice(None), _denominators(
                slice(None), profile.mw, self.gains, self.n0_mw, self.params.interference))
        self.profile = profile
        self.__dict__.pop("_clear_reach", None)
        return self

    def prr_table(self, nodes, xs):
        """(own mW per row, rows x K PRR table over the rows' candidate columns)."""
        # StrategyProfile.mw's operations
        mw = 10.0 ** ((np.asarray(xs, dtype=float) - DBM_OFFSET) / 10.0)
        gains, denominators = self.column_gains, self.column_denominators
        if gains.ndim == 2:
            gains = gains[nodes]
            if denominators.ndim == 2:
                denominators = denominators[nodes]
        table = _prr_table(gains, mw, denominators, self.params.f_bytes)
        if self.pads is not None:
            table[self.pads[nodes]] = 0.0
        return mw, table

    def _by_chunk(self, score, nodes, xs):
        """``score(nodes, xs)`` over chunks of at most ``chunk`` rows, joined:
        one call, and no join, when the rows fit in one chunk."""
        nodes = np.asarray(nodes, dtype=np.intp)
        xs = np.asarray(xs, dtype=float)
        step = self.chunk
        if xs.size <= step:
            return score(nodes, xs)
        return np.concatenate([score(nodes[a:a + step], xs[a:a + step])
                               for a in range(0, xs.size, step)])

    @cached_property
    def _clear_reach(self):
        """The PRR matrix at the profile's powers on the clear channel, where
        no one's reach depends on another's power: it serves every row."""
        return prr_matrix(self.profile.mw, self.gains, self.n0_mw, self.params.f_bytes)

    def _union_sizes(self, nodes, mw, member):
        """Per row, how many nodes its members reach between them: the
        printed formula's NCR denominator, which couples the nodes and is off
        by default.  Under interference a row builds its members' rows of the
        PRR matrix at its own power, bitwise the M x M matrix's."""
        params = self.params
        sizes = np.zeros(member.shape[0], dtype=np.intp)
        for r, (i, own_mw) in enumerate(zip(nodes, mw.tolist())):
            if member[r].any():
                columns = self.columns if self.columns.ndim == 1 else self.columns[i]
                senders = columns[member[r]]
                if params.interference == "none":
                    table = self._clear_reach[senders]
                else:
                    powers = self.profile.mw.copy()
                    powers[i] = own_mw
                    table = _prr_table(self.gains[senders], powers[senders], _denominators(
                        senders, powers, self.gains, self.n0_mw, params.interference),
                        params.f_bytes)
                    table[np.arange(senders.size), senders] = 0.0
                sizes[r] = np.count_nonzero((table >= params.epsilon_link).any(axis=0))
        return sizes

    def utilities(self, nodes, xs) -> np.ndarray:
        """Utility of node nodes[r] at strategy value xs[r], for every row r."""
        return self._by_chunk(self._utility_rows, nodes, xs)

    def _utility_rows(self, nodes, xs):
        mw, table = self.prr_table(nodes, xs)
        return _utility_formula(table, xs, self.params, self.required_k,
                                lambda member: self._union_sizes(nodes.tolist(), mw, member))

    def degrees(self, nodes, xs) -> np.ndarray:
        """Degree of node nodes[r] at strategy value xs[r], for every row r."""
        eps = self.params.epsilon_link
        return self._by_chunk(lambda part_nodes, part_xs: np.add.reduce(
            self.prr_table(part_nodes, part_xs)[1] >= eps, axis=1), nodes, xs)

    def potential(self) -> float:
        """``potential`` of a whole-group environment's profile."""
        return float(sum(self.utilities(np.arange(self.profile.n), self.profile.s).tolist()))

    @cached_property
    def strategy_sets(self):
        """Each focus node's strategy set [lower, s_max], the one rule the
        searches and checks play on: (its membership breakpoints over its
        candidate columns, sorted, one row per node padded with +inf; lower, its
        degree floor as ``topology.min_power_for_degree`` gives it, max(s_min,
        floor_i) already, or s_min for an infeasible node, which plays the whole
        range; whether it is feasible, i.e. its floor is finite).  Row r is node
        r of a group; a lone node's table reads no node index."""
        gains, denominators = self.column_gains, self.column_denominators
        points = np.atleast_2d(_membership_breakpoints(self.s_eps, denominators, gains))
        points.sort(axis=1)
        floors = _degree_floors(self.profile, self.required_k, points, lambda rows: (
            self.degrees(rows, np.full(rows.size, self.profile.s_max))))
        feasible = floors != INFEASIBLE
        return points, np.where(feasible, floors, self.profile.s_min), feasible


def _utility_formula(table, xs, params, k, union_sizes):
    """The utility of each row of a PRR table at its strategy value xs[r], the
    one formula of every search; ``union_sizes(member)`` gives union sizes."""
    member = table >= params.epsilon_link
    degree = np.add.reduce(member, axis=1)
    totals = _row_sums(table, member)
    if params.ncr_denominator == "members":
        # a row without members sums to 0.0, and 0.0 / 1 is the 0 it scores
        ncr_values = totals / np.maximum(degree, 1)
    else:
        size = union_sizes(member)
        ncr_values = np.divide(totals, size, out=np.zeros(degree.size), where=size > 0)
        np.minimum(ncr_values, 1.0, out=ncr_values)
    benefit = np.log10(1.0 + params.ncr_scale * ncr_values)
    # The benefit is finite and >= 0: times False it is 0.0, and 0.0 - cost
    # is -cost (or +0.0 for -0.0, equal to it, where the cost underflows).
    return benefit * (degree >= k) - np.square(xs / params.cost_denominator)


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
    return _Environment(profile, gains, n0_mw, params).potential()


def _scan_nonunimodal(values, atol: float = 1e-12):
    """Per row of sampled values (last axis): whether it rises again after
    having fallen.  A step cannot both fall and rise, so a rise counts when
    some step up to it fell."""
    prev, cur = values[..., :-1], values[..., 1:]
    fell = np.logical_or.accumulate(cur < prev - atol, axis=-1)
    return (fell & (cur > prev + atol)).any(axis=-1)


def _refine_steps(params):
    """A refinement round's grid as fractions of the bracket: 0, P + 2
    evenly spaced inner points, 1."""
    alone = params.ncr_denominator == "members" and params.interference != "none"
    return _STEPS_ALONE if alone else _STEPS


def _best_responses(env, nodes):
    """Maximize each node's utility over its strategy set, for every node of
    a sweep group at once: (s* per node, how many flagged).

    A node flags when its uniform pre-scan saw the objective rise again after
    falling, i.e. the sampled profile was not unimodal on its interval.

    One kernel call scores every node's candidates: the pre-scan, the
    membership breakpoints (and points 1e-9 below them) and the incumbent,
    since none depends on another's value.  ``nodes`` is the environment's
    focus, whose breakpoints and sets ``strategy_sets`` holds.  The unsorted
    table holds the pre-scan in its first ``_PRESCAN_SAMPLES`` columns and
    pads the other candidates' rows with +inf.  Every finite candidate goes
    to the kernel, copies too, since copies score bitwise alike.  The answer
    is the least candidate among a row's maxima and the bracket its nearest
    distinct candidates either side, whatever the order of the columns.

    Each refinement round is then one kernel call over the nodes whose
    bracket is still wider than ``_BR_TOL``: it scores P + 2 evenly spaced
    points inside each bracket, keeps the best value seen, and narrows the
    bracket to the neighbours of the round's best point.  Every array
    operation acts row by row, so each node returns what it returns alone.

    This is the search of a lockstep group.  A group of one node takes
    ``_lone_response``, the same search on scalars, without the per-row
    bookkeeping that takes about a third of a lone node's time here (see
    ``_respond``); this one, called on a one-node group, is its reference.
    """
    profile = env.profile
    hi = profile.s_max
    nodes = np.asarray(nodes, dtype=np.intp)
    points, lo, feasible = env.strategy_sets
    # Infeasible: the cost-only branch everywhere, so spend as little as
    # allowed.  A range within _BR_TOL answers its top.
    s_star = np.where(feasible, hi, profile.s_min)
    search = np.flatnonzero(feasible & (hi - lo > _BR_TOL))
    if search.size == 0:
        return s_star, 0
    nodes, lo, points = nodes[search], lo[search], points[search]
    # np.linspace(lo, hi, _PRESCAN_SAMPLES, axis=1) bitwise, less its overhead
    scan = lo[:, None] + _SCAN_INDEX * ((hi - lo) / (_PRESCAN_SAMPLES - 1))[:, None]
    scan[:, -1] = hi
    inside = (lo[:, None] < points) & (points < hi)
    below = points - 1e-9
    incumbent = profile.s[nodes]
    cand = np.column_stack([
        scan,
        np.where(inside, points, np.inf),
        np.where(inside & (below > lo[:, None]), below, np.inf),
        np.where((lo <= incumbent) & (incumbent <= hi), incumbent, np.inf)])
    finite = np.isfinite(cand)
    values = np.full(cand.shape, -np.inf)
    values[finite] = env.utilities(np.repeat(nodes, finite.sum(axis=1)), cand[finite])
    flagged = _scan_nonunimodal(values[:, :_PRESCAN_SAMPLES])

    v = values.max(axis=1)
    x = np.where(values == v[:, None], cand, np.inf).min(axis=1)
    # lo and hi are always candidates, so they bound the neighbours
    a = np.maximum(np.where(cand < x[:, None], cand, -np.inf).max(axis=1), lo)
    b = np.minimum(np.where(cand > x[:, None], cand, np.inf).min(axis=1), hi)
    steps = _refine_steps(env.params)
    n_points = steps.size - 2
    live = np.flatnonzero(b - a > _BR_TOL)
    while live.size:
        grid = a[live, None] + (b - a)[live, None] * steps
        scores = env.utilities(np.repeat(nodes[live], n_points),
                               grid[:, 1:-1].ravel()).reshape(live.size, n_points)
        rows, top = np.arange(live.size), scores.argmax(axis=1)
        best = scores[rows, top]
        better = best > v[live]
        x[live[better]], v[live[better]] = grid[rows, top + 1][better], best[better]
        a[live], b[live] = grid[rows, top], grid[rows, top + 2]
        live = live[b[live] - a[live] > _BR_TOL]
    s_star[search] = x
    return s_star, int(np.count_nonzero(flagged))


def _lone_response(env, i):
    """``_best_responses`` for the one-node group [i], step for step on floats
    and node i's candidate columns as 1-D arrays: (s*, 1 if flagged else 0),
    bitwise its answer and flag.  It scores the same rows in the same kernel
    calls, by ``_utility_formula`` and ``_degree_floors``, with no node index
    arrays or 2-D views.  With fewer candidate columns than k: s_min at once."""
    profile, params, k = env.profile, env.params, env.required_k
    if env.columns.size < k:
        return profile.s_min, 0
    hi, chunk = profile.s_max, env.chunk
    gains, denominators = env.column_gains, env.column_denominators
    def table(xs):
        mw = 10.0 ** ((xs - DBM_OFFSET) / 10.0)  # StrategyProfile.mw's operations
        return mw, _prr_table(gains, mw, denominators, params.f_bytes)
    def utilities(xs):
        if xs.size > chunk:  # the environment's bound on a table's memory
            return np.concatenate([utilities(xs[a:a + chunk]) for a in range(0, xs.size, chunk)])
        mw, rows = table(xs)
        return _utility_formula(rows, xs, params, k,
                                lambda member: env._union_sizes([i] * xs.size, mw, member))
    points = np.sort(_membership_breakpoints(env.s_eps, denominators, gains))
    lo = float(_degree_floors(profile, k, points, lambda rows: (
        np.add.reduce(table(np.array([hi]))[1] >= params.epsilon_link, axis=1))))
    if lo == INFEASIBLE:
        return profile.s_min, 0
    if not hi - lo > _BR_TOL:
        return hi, 0
    scan = lo + _SCAN_INDEX * ((hi - lo) / (_PRESCAN_SAMPLES - 1))
    scan[-1] = hi
    points = points[(lo < points) & (points < hi)]
    below = points - 1e-9
    incumbent = float(profile.s[i])
    cand = np.concatenate([scan, points, below[below > lo],
                           [incumbent] if lo <= incumbent <= hi else []])
    values = utilities(cand)
    flagged = int(_scan_nonunimodal(values[:_PRESCAN_SAMPLES]))

    v = values.max()
    x = float(cand[values == v].min())
    # every candidate lies in [lo, hi], and lo and hi are candidates
    a = float(cand.max(initial=lo, where=cand < x))
    b = float(cand.min(initial=hi, where=cand > x))
    steps = _refine_steps(params)
    while b - a > _BR_TOL:
        grid = a + (b - a) * steps
        scores = utilities(grid[1:-1])
        top = int(scores.argmax())
        if scores[top] > v:
            x, v = float(grid[top + 1]), scores[top]
        a, b = float(grid[top]), float(grid[top + 2])
    return x, flagged


def _respond(env, nodes):
    """The continuous game's answers of a sweep group, for ``_sweep``: the
    scalar search for a group of one node (every group of a coupled game),
    the array search for a lockstep group.  Both give bitwise the same
    answers and flags; each is the faster at its own group size."""
    if len(nodes) == 1:
        s_star, flagged = _lone_response(env, nodes[0])
        return [s_star], flagged
    return _best_responses(env, nodes)


def best_response(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                  params: GameParams) -> float:
    """Utility-maximizing power for node i against the rest of the profile."""
    env = _Environment(profile, gains, n0_mw, params, i)
    return float(_lone_response(env, i)[0])


def _sweep(profile, env, respond):
    """One pass of best responses in index order; ``respond(env, nodes)``
    answers a group of nodes with (s* per node, how many flagged).
    Returns the new profile and the flag count.

    When the game decouples, a node's response depends on the rest of the
    profile only through its own incumbent, which no earlier node of the
    sweep changes.  All nodes then answer the sweep's starting profile in
    one group, ``env`` at ``profile``, as they would in turn, and one sweep
    is the whole solve; otherwise each node answers the profile its
    predecessors left, in one environment re-pointed at each node.  Under interference R and T
    (``channel._received``) are rebuilt only after a node moves; a node's
    row is ``channel._less_own`` of them, ``_denominators``' very operations.
    """
    order = list(range(profile.n))
    if _decouples(env.params):
        s_star, flags = respond(env, order)
        for i, s in zip(order, np.asarray(s_star).tolist()):
            profile = profile.with_power(i, s)
        return profile, flags
    lone = _Environment(profile, env.gains, env.n0_mw, env.params, 0)
    d, received, flags = lone.denominators, None, 0
    for i in order:
        if env.params.interference != "none":
            if received is None:
                received, totals = _received(profile.mw, env.gains)
            d = _less_own(totals, received[i], env.n0_mw)
        lone._focus(profile, i, d)
        [s_star], flagged = respond(lone, [i])
        flags += flagged
        if (moved := profile.with_power(i, float(s_star))) is not profile:
            profile, received = moved, None
    return profile, flags


def _iterate(profile0, env, respond) -> EquilibriumResult:
    """Sweep until no node moves by ``_CONVERGENCE_TOL`` or n_iter_max sweeps ran.

    Both the continuous and the discrete game sweep here, from ``env`` at
    ``profile0``, re-pointed at each sweep's result.  A decoupled game stops
    after its first sweep, converged: a second sweep could only confirm the
    first (see ``_sweep``).  Only there does the exact potential
    guarantee the ascent; a coupled game can cycle until n_iter_max.
    """
    current = profile0
    trace = [env.potential()]
    profiles = [np.array(current.s)]
    flags = sweeps = 0
    converged = False
    while sweeps < env.params.n_iter_max and not converged:
        new_profile, sweep_flags = _sweep(current, env, respond)
        sweeps += 1
        flags += sweep_flags
        trace.append(env.at(new_profile).potential())
        profiles.append(np.array(new_profile.s))
        moved = float(np.max(np.abs(new_profile.s - current.s)))
        converged = _decouples(env.params) or moved < _CONVERGENCE_TOL
        current = new_profile
    return EquilibriumResult(
        profile=current,
        sweeps_used=sweeps,
        potential_trace=trace,
        converged=converged,
        per_node_feasible=env.strategy_sets[2].tolist(),
        nonunimodal_events=flags,
        profile_trace=profiles,
    )


def solve(profile0: StrategyProfile, gains: np.ndarray, n0_mw: float,
          params: GameParams) -> EquilibriumResult:
    """Iterate sweeps until the profile changes by less than ``_CONVERGENCE_TOL``.

    A decoupled game takes one lockstep pass (see ``_iterate``); a coupled
    game's non-convergence within n_iter_max sweeps is reported, not raised.
    """
    return _iterate(profile0, _Environment(profile0, gains, n0_mw, params), _respond)


def verify_equilibrium(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                       params: GameParams, epsilon: float = 1e-4,
                       grid_step: float = 0.05):
    """Grid-scan every node's unilateral deviations within its strategy set.

    Node i's deviations are the grid points in [max(s_min, floor_i), s_max]
    plus that lower end, where floor_i is the floor the best response
    searches above (one ``_Environment.strategy_sets`` gives every
    node's); an infeasible node scans the whole grid.  Every node's current
    value and deviations go through one chunked kernel table.

    Returns (passed, worst_improvement): passed is True when no deviation
    improves any node's utility by more than epsilon.
    """
    if not grid_step > 0:
        raise ValueError("grid step must be positive")
    grid = np.arange(profile.s_min, profile.s_max, grid_step)
    if grid.size == 0 or grid[-1] < profile.s_max:
        grid = np.append(grid, profile.s_max)
    n = profile.n
    env = _Environment(profile, gains, n0_mw, params)
    lo = env.strategy_sets[1]
    xs = np.column_stack([profile.s, lo, np.broadcast_to(grid, (n, grid.size))])
    scan = xs >= lo[:, None]
    scan[:, 0] = True
    values = np.full(xs.shape, -np.inf)
    values[scan] = env.utilities(np.repeat(np.arange(n), scan.sum(axis=1)), xs[scan])
    # Rounding is monotone, so max(v) - base is bitwise max(v - base).
    worst = float(np.max(values[:, 1:].max(axis=1) - values[:, 0]))
    return worst <= epsilon, worst
