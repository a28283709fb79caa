"""Discrete power levels, nearest-level quantization, and register mapping.

Two ways to reach a discrete operating point: round a continuous solution
to the grid after the fact (``discretize_profile``), or play the game
natively on the grid with a per-node argmax over the levels of its strategy
set (``solve_discrete``).  They need not agree.
"""

from dataclasses import dataclass

import numpy as np

from .channel import DBM_OFFSET, _check_keys, _number
from .game import EquilibriumResult, GameParams, StrategyProfile, _iterate

DBM_FLOOR = -25.0
DBM_CEIL = 0.0


@dataclass(frozen=True)
class DiscreteLevelSet:
    """Strictly increasing dB levels within [-25, 0]."""

    levels_dbm: tuple = tuple(float(v) for v in range(-24, 1))

    def __post_init__(self):
        levels = tuple(float(_number(v, "levels levels_dbm")) for v in self.levels_dbm)
        if len(levels) == 0:
            raise ValueError("level set must be non-empty")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if levels[0] < DBM_FLOOR or levels[-1] > DBM_CEIL:
            raise ValueError(f"levels must lie within [{DBM_FLOOR}, {DBM_CEIL}]")
        object.__setattr__(self, "levels_dbm", levels)


def quantize(dbm, levels: DiscreteLevelSet):
    """Nearest level to a dB value, ties toward the lower (cheaper) level.

    Inputs outside the transmit range are clamped before rounding.  Accepts
    scalars or arrays.
    """
    arr = np.clip(np.asarray(dbm, dtype=float), DBM_FLOOR, DBM_CEIL)
    grid = np.asarray(levels.levels_dbm)
    # searchsorted against the midpoints (none for one level); side="left"
    # sends exact midpoints to the lower cell.  A midpoint that rounds onto the
    # upper level (levels an ulp apart) is pulled below it: each keeps itself.
    mids = np.minimum((grid[:-1] + grid[1:]) / 2.0, np.nextafter(grid[1:], -np.inf))
    out = grid[np.searchsorted(mids, arr, side="left")]
    if np.ndim(dbm) == 0:
        return float(out)
    return out


def _usable_levels(levels: DiscreteLevelSet, s_min: float, s_max: float):
    usable = [v for v in levels.levels_dbm if s_min <= v + DBM_OFFSET <= s_max]
    if not usable:
        raise ValueError("no level is representable within the profile bounds")
    return usable


def discretize_profile(profile: StrategyProfile, levels: DiscreteLevelSet) -> StrategyProfile:
    """Per-node nearest-level rounding of a continuous profile."""
    usable = DiscreteLevelSet(tuple(_usable_levels(levels, profile.s_min, profile.s_max)))
    q = quantize(profile.dbm, usable)
    return StrategyProfile(np.asarray(q) + DBM_OFFSET, s_min=profile.s_min, s_max=profile.s_max)


def _level_responses(usable):
    """The discrete game's answers of a sweep group, for ``game._sweep``:
    each node's usable level with the highest utility, ties to the lower
    one, from one (nodes x levels) table; no non-unimodal flags.  A node
    scores the levels in its strategy set (``_Environment.strategy_sets``),
    all of them when it is infeasible; one whose floor lies above the top
    level scores them all and takes the lowest, on the cost-only branch."""
    xs = np.array(usable) + DBM_OFFSET

    def respond(env, nodes):
        scored = xs >= env.strategy_sets(nodes)[1][:, None]
        scored[~scored.any(axis=1)] = True
        values = np.full(scored.shape, -np.inf)
        values[scored] = env.utilities(np.repeat(nodes, scored.sum(axis=1)),
                                       np.broadcast_to(xs, scored.shape)[scored])
        # argmax keeps each row's first maximum
        return xs[np.argmax(values, axis=1)], 0
    return respond


def solve_discrete(profile0: StrategyProfile, gains: np.ndarray, n0_mw: float,
                   params: GameParams, levels: DiscreteLevelSet) -> EquilibriumResult:
    """Sequential discrete best responses until no node changes level.

    A decoupled game has an exact potential and is answered in one pass,
    every node's levels scored in one chunked table.  A coupled game has no
    such guarantee and can cycle (its floors move with the other nodes'
    powers): non-termination within n_iter_max sweeps is reported, not raised.
    """
    start = discretize_profile(profile0, levels)
    usable = _usable_levels(levels, start.s_min, start.s_max)
    return _iterate(start, gains, n0_mw, params, _level_responses(usable))


@dataclass(frozen=True)
class RegisterMap:
    """dB level -> transceiver register id, monotone in both columns."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(_number(d, "registers dbm")), _number(r, "registers id", integral=True))
                      for d, r in self.pairs)
        if len(pairs) == 0:
            raise ValueError("register map must be non-empty")
        dbms = [d for d, _ in pairs]
        ids = [r for _, r in pairs]
        if any(b <= a for a, b in zip(dbms, dbms[1:])):
            raise ValueError("register map dB values must be strictly increasing")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("register ids must be strictly increasing with dB")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def eight_level_default(cls) -> "RegisterMap":
        """Common 2.4 GHz transceiver PA table: 8 settings spanning -25..0 dBm."""
        dbms = (-25.0, -15.0, -10.0, -7.0, -5.0, -3.0, -1.0, 0.0)
        ids = (3, 7, 11, 15, 19, 23, 27, 31)
        return cls(tuple(zip(dbms, ids)))

    def to_json_dict(self) -> dict:
        return {"registers": [{"dbm": d, "id": r} for d, r in self.pairs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegisterMap":
        _check_keys(data, ("registers",), "registers")
        for k, row in enumerate(data["registers"]):
            _check_keys(row, ("dbm", "id"), f"registers row {k}")
        return cls(tuple((row["dbm"], row["id"]) for row in data["registers"]))


def to_register(dbm, rmap: RegisterMap):
    """Register id for a dB level, snapping to the nearest table entry.

    Values outside the table's span are a configuration error.  Accepts
    scalars or arrays, as ``quantize`` does.
    """
    values = np.asarray(dbm, dtype=float)
    dbms, ids = zip(*rmap.pairs)
    outside = ~((values >= dbms[0] - 1e-12) & (values <= dbms[-1] + 1e-12))
    if outside.any():
        raise ValueError(f"{float(values[outside].flat[0])} dB is outside the register map "
                         f"domain [{dbms[0]}, {dbms[-1]}]")
    snapped = quantize(values, DiscreteLevelSet(dbms))
    out = np.array(ids)[np.searchsorted(dbms, snapped)]
    return int(out) if np.ndim(dbm) == 0 else out
