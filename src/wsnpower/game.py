"""Per-node power game: neighborhood reliability benefit against energy cost.

Each node i picks a transmit power s_i in [s_min, s_max] to maximize

    u_i = log10(1 + 9 * NCR_i) - (s_i / 25)^2      when its degree floor holds,
    u_i = -(s_i / 25)^2                            otherwise,

where NCR_i is the mean analytic packet reception ratio over i's current
neighbor set.  With the default clear-channel link model a node's reliability
depends only on its own power, the sum of utilities is an exact potential for
unilateral deviations, and sequential best responses ascend it to the unique
maximizer.  Under the optional worst-case concurrent-interference model the
utilities are coupled and the potential trace is reported rather than
guaranteed monotone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    INTERFERENCE_MODES,
    STRATEGY_MAX,
    _denominators,
    ber,
    prr,
    sinr_for_prr,
    strategy_to_mw,
)
from .topology import (
    INFEASIBLE,
    _membership_breakpoints,
    _reach,
    degree_at_power,
    min_power_for_degree,
    smallworld_threshold,
)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEGREE_RULES = ("fixed-k", "smallworld")
NCR_DENOMINATORS = ("members", "union")


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
        arr = np.clip(arr, self.s_min, self.s_max).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "s", arr)

    @property
    def n(self) -> int:
        return self.s.shape[0]

    @property
    def dbm(self) -> np.ndarray:
        return self.s - 25.0

    @property
    def mw(self) -> np.ndarray:
        return 10.0 ** (self.dbm / 10.0)

    def with_power(self, i: int, value: float) -> "StrategyProfile":
        arr = self.s.copy()
        arr[i] = value
        return StrategyProfile(s=arr, s_min=self.s_min, s_max=self.s_max)

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
    log_base: float = 10.0
    f_bytes: int = 25
    epsilon_link: float = 0.01
    degree_target: int = 6
    degree_rule: str = "fixed-k"
    smallworld_delta: float = 0.1
    n_iter_max: int = 100
    convergence_tol: float = 1e-4
    br_tol: float = 1e-6
    prescan_samples: int = 64
    ncr_denominator: str = "members"
    interference: str = "none"
    update_order: tuple = None

    def __post_init__(self):
        if self.ncr_scale <= 0 or self.cost_denominator <= 0:
            raise ValueError("utility constants must be positive")
        if self.log_base <= 1.0:
            raise ValueError("log base must exceed 1")
        if int(self.f_bytes) != self.f_bytes or self.f_bytes < 1:
            raise ValueError("payload bytes must be a positive integer")
        if not (0.0 < self.epsilon_link <= 1.0):
            raise ValueError("epsilon_link must lie in (0, 1]")
        if self.degree_target < 0:
            raise ValueError("degree target must be >= 0")
        if self.degree_rule not in DEGREE_RULES:
            raise ValueError(f"degree rule must be one of {DEGREE_RULES}")
        if self.degree_rule == "smallworld" and not (self.smallworld_delta > 0):
            raise ValueError("smallworld delta must be positive")
        if self.n_iter_max < 1:
            raise ValueError("need at least one sweep")
        if self.convergence_tol <= 0 or self.br_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.prescan_samples < 2:
            raise ValueError("pre-scan needs at least 2 samples")
        if self.ncr_denominator not in NCR_DENOMINATORS:
            raise ValueError(f"ncr denominator must be one of {NCR_DENOMINATORS}")
        if self.interference not in INTERFERENCE_MODES:
            raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}")
        if self.update_order is not None:
            object.__setattr__(self, "update_order", tuple(int(i) for i in self.update_order))

    def required_degree(self, m: int) -> int:
        """Degree floor: the fixed target, or the small-world rule's d > m + Np."""
        if self.degree_rule == "fixed-k":
            return self.degree_target
        params = smallworld_threshold(m, self.smallworld_delta)
        return params.degree_requirement()


@dataclass
class EquilibriumResult:
    """Outcome of the sequential best-response dynamics."""

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


class _NodeEnvironment:
    """Everything needed to evaluate node i's utility as its power varies.

    Interference at each candidate receiver excludes the sender, so the
    denominators are fixed once the rest of the profile is frozen.

    The kernel is batched: ``utilities`` builds one (K x M) PRR table for K
    candidate powers with a single ``ber``/``prr`` pass, then reduces each row
    to (NCR, degree) and a utility.  Two choices keep every value bitwise equal
    to evaluating the candidates one at a time.  Each candidate goes to mW
    through the 0-d ``strategy_to_mw``, because numpy's array power differs
    from it in the last bit for a few percent of inputs.  Each row's member
    PRRs are summed on their own (``np.add.reduce(row[mask])``, as ``.mean()``
    does), because a masked two-dimensional sum pairs the terms differently.
    """

    def __init__(self, i, profile, gains, n0_mw, params):
        self.i = i
        self.params = params
        self.profile = profile
        self.gains = gains
        self.n0_mw = n0_mw
        self.m = profile.n
        self.denominators = _denominators(i, profile.mw, gains, n0_mw, params.interference)
        self.h_row = gains[i, :]
        self.required_k = params.required_degree(self.m)

    def _prr_table(self, s_values):
        """(own mW per candidate, K x M PRR table with column i zeroed)."""
        mw = np.array([float(strategy_to_mw(float(x))) for x in s_values])
        table = prr(ber(self.h_row * mw[:, None] / self.denominators), self.params.f_bytes)
        table[:, self.i] = 0.0
        return mw, table

    def _ncr_and_degree_of_row(self, row, own_mw):
        params = self.params
        member_mask = row >= params.epsilon_link
        degree = int(np.count_nonzero(member_mask))
        if degree == 0:
            return 0.0, 0
        total = np.add.reduce(row[member_mask])
        if params.ncr_denominator == "members":
            return float(total / degree), degree
        # Printed-formula variant: normalize by the union of the members' own
        # neighbor sets.  Couples nodes together, kept off by default.
        union = set()
        powers = self.profile.mw.copy()
        powers[self.i] = own_mw
        for j in np.flatnonzero(member_mask):
            reached = _reach(int(j), powers[j], powers, self.gains, self.n0_mw,
                             params.f_bytes, params.epsilon_link, params.interference)
            union.update(int(t) for t in np.flatnonzero(reached))
        if not union:
            return 0.0, degree
        return min(1.0, float(total) / len(union)), degree

    def prr_row(self, s_value: float) -> np.ndarray:
        return self._prr_table([s_value])[1][0]

    def ncr_and_degree(self, s_value: float):
        mw, table = self._prr_table([s_value])
        return self._ncr_and_degree_of_row(table[0], mw[0])

    def utilities(self, s_values) -> list:
        """Node i's utility at each candidate strategy value, in order."""
        params = self.params
        xs = [float(x) for x in s_values]
        mw, table = self._prr_table(xs)
        out = []
        for x, own_mw, row in zip(xs, mw, table):
            ncr_value, degree = self._ncr_and_degree_of_row(row, own_mw)
            cost = (x / params.cost_denominator) ** 2
            if degree >= self.required_k:
                arg = 1.0 + params.ncr_scale * ncr_value
                if params.log_base == 10.0:
                    benefit = math.log10(arg)
                else:
                    benefit = math.log(arg) / math.log(params.log_base)
                out.append(benefit - cost)
            else:
                out.append(-cost)
        return out

    def utility(self, s_value: float) -> float:
        return self.utilities([s_value])[0]

    def membership_breakpoints(self):
        """Strategy values at which each potential receiver enters the
        neighbor set; exact because PRR is monotone in own power."""
        s_eps = sinr_for_prr(self.params.epsilon_link, self.params.f_bytes)
        return _membership_breakpoints(self.i, s_eps, self.denominators, self.h_row)


def ncr(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
        params: GameParams) -> float:
    """Neighborhood communication reliability: mean link PRR over i's neighbors,
    zero when the neighbor set is empty."""
    env = _NodeEnvironment(i, profile, gains, n0_mw, params)
    value, _ = env.ncr_and_degree(profile.s[i])
    return value


def utility(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
            params: GameParams) -> float:
    """Reliability benefit minus normalized energy cost for node i."""
    env = _NodeEnvironment(i, profile, gains, n0_mw, params)
    return env.utility(profile.s[i])


def potential(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
              params: GameParams) -> float:
    """Sum of the per-node utilities, evaluated branch-by-branch."""
    return float(sum(utility(i, profile, gains, n0_mw, params) for i in range(profile.n)))


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


def _golden_section_max(fn, lo: float, hi: float, tol: float):
    """Golden-section search for a maximum on [lo, hi]; returns (x, fn(x))."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
    x = c if fc >= fd else d
    return (x, fc) if fc >= fd else (x, fd)


def _scan_nonunimodal(values, atol: float = 1e-12) -> bool:
    """True if a sampled 1-D sequence rises again after having fallen."""
    fell = False
    for prev, cur in zip(values, values[1:]):
        if cur < prev - atol:
            fell = True
        elif fell and cur > prev + atol:
            return True
    return False


def _best_response_detail(i, profile, gains, n0_mw, params):
    """Maximize node i's utility over its feasible power range.

    Returns (s_star, nonunimodal) where the flag records that the uniform
    pre-scan saw the objective rise again after falling, i.e. the sampled
    profile was not unimodal on the search interval.
    """
    env = _NodeEnvironment(i, profile, gains, n0_mw, params)
    floor = min_power_for_degree(i, profile, gains, n0_mw, params.f_bytes,
                                 params.epsilon_link, env.required_k,
                                 params.interference)
    if floor == INFEASIBLE:
        # Cost-only branch everywhere: spend as little as allowed.
        return profile.s_min, False
    lo = max(profile.s_min, floor)
    hi = profile.s_max
    if hi - lo <= params.br_tol:
        return hi, False

    # Coarse uniform pre-scan, membership breakpoints, and the incumbent value
    # as explicit candidates; golden-section refinement around the best one.
    scan_points = list(np.linspace(lo, hi, params.prescan_samples))
    scan_values = env.utilities(scan_points)
    nonunimodal = _scan_nonunimodal(scan_values)

    candidates = list(scan_points)
    for b in env.membership_breakpoints():
        if lo < b < hi:
            candidates.append(b)
            if b - 1e-9 > lo:
                candidates.append(b - 1e-9)
    incumbent = float(profile.s[i])
    if lo <= incumbent <= hi:
        candidates.append(incumbent)
    candidates = sorted(set(candidates))
    cache = dict(zip(scan_points, scan_values))
    rest = [x for x in candidates if x not in cache]
    cache.update(zip(rest, env.utilities(rest)))
    values = [cache[x] for x in candidates]
    best_idx = int(np.argmax(values))
    best_x, best_val = candidates[best_idx], values[best_idx]

    bracket_lo = candidates[best_idx - 1] if best_idx > 0 else lo
    bracket_hi = candidates[best_idx + 1] if best_idx + 1 < len(candidates) else hi
    if bracket_hi - bracket_lo > params.br_tol:
        x_ref, v_ref = _golden_section_max(env.utility, bracket_lo, bracket_hi, params.br_tol)
        if v_ref > best_val:
            best_x, best_val = x_ref, v_ref
    return float(best_x), nonunimodal


def best_response(i: int, profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                  params: GameParams) -> float:
    """Utility-maximizing power for node i against the rest of the profile."""
    s_star, _ = _best_response_detail(i, profile, gains, n0_mw, params)
    return s_star


def _per_node_feasible(profile, gains, n0_mw, params):
    """Whether each node can reach its degree floor at some power in range,
    i.e. whether min_power_for_degree would not return INFEASIBLE: its degree
    at the maximum power meets the floor."""
    k = params.required_degree(profile.n)
    return [
        k == 0 or degree_at_power(i, profile.s_max, profile, gains, n0_mw, params.f_bytes,
                                  params.epsilon_link, params.interference) >= k
        for i in range(profile.n)
    ]


def _sweep(profile, gains, n0_mw, params, respond):
    """One pass of ``respond(i, profile, gains, n0_mw, params) -> (s_i, flagged)``
    over the nodes in update order; returns the new profile and the flag count."""
    order = params.update_order if params.update_order is not None else range(profile.n)
    flags = 0
    for i in order:
        s_star, flagged = respond(i, profile, gains, n0_mw, params)
        flags += int(flagged)
        profile = profile.with_power(i, s_star)
    return profile, flags


def _iterate(profile0, gains, n0_mw, params, respond) -> EquilibriumResult:
    """Sweep until no node moves by convergence_tol or n_iter_max sweeps ran.

    The driver of both the continuous and the discrete game: the exact
    potential makes sequential best responses ascend on either strategy set.
    """
    current = profile0
    trace = [potential(current, gains, n0_mw, params)]
    profiles = [np.array(current.s)]
    flags = 0
    converged = False
    sweeps = 0
    while sweeps < params.n_iter_max and not converged:
        new_profile, sweep_flags = _sweep(current, gains, n0_mw, params, respond)
        sweeps += 1
        flags += sweep_flags
        trace.append(potential(new_profile, gains, n0_mw, params))
        profiles.append(np.array(new_profile.s))
        converged = float(np.max(np.abs(new_profile.s - current.s))) < params.convergence_tol
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


def gauss_seidel_sweep(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                       params: GameParams) -> StrategyProfile:
    """One pass of sequential best responses in update order (ascending by default)."""
    return _sweep(profile, gains, n0_mw, params, _best_response_detail)[0]


def solve(profile0: StrategyProfile, gains: np.ndarray, n0_mw: float,
          params: GameParams) -> EquilibriumResult:
    """Iterate sweeps until the profile changes by less than convergence_tol.

    Non-convergence within n_iter_max sweeps is reported via the flag, not
    raised.
    """
    return _iterate(profile0, gains, n0_mw, params, _best_response_detail)


def verify_equilibrium(profile: StrategyProfile, gains: np.ndarray, n0_mw: float,
                       params: GameParams, epsilon: float = 1e-4,
                       grid_step: float = 0.05):
    """Grid-scan every node's unilateral deviations.

    Each node's current value and whole grid go through one batched kernel
    pass.  Returns (passed, worst_improvement): passed is True when no
    deviation on the grid improves any node's utility by more than epsilon.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    worst = -math.inf
    grid = np.arange(profile.s_min, profile.s_max, grid_step)
    if grid.size == 0 or grid[-1] < profile.s_max:
        grid = np.append(grid, profile.s_max)
    for i in range(profile.n):
        env = _NodeEnvironment(i, profile, gains, n0_mw, params)
        base, *values = env.utilities([profile.s[i], *grid])
        # Rounding is monotone, so max(v) - base is bitwise max(v - base).
        worst = max(worst, max(values) - base)
    return worst <= epsilon, float(worst)
