"""Batch driver for the four-mode power control comparison.

Modes: continuous game, nearest-level rounding of the continuous solution,
the game played natively on the level grid, and an always-full-power
baseline.  One scenario in, plot-ready JSON/CSV out, byte deterministic.
"""

import csv
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import channel, game, packetsim, topology
from .quantize import (DiscreteLevelSet, RegisterMap, _usable_levels, discretize_profile,
                       solve_discrete, to_register)

MODES = ("continuous", "discretized-posthoc", "discretized-game", "full-power")
RECEIVER_POLICIES = ("best-prr", "round-robin")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one scenario end to end."""

    # ``json`` metadata names a field's key in the JSON form when it differs.
    topology_spec: dict = field(default_factory=lambda: {"m": 80, "area": (100.0, 100.0), "seed": 0},
                                metadata={"json": "topology"})
    path_loss: channel.PathLossModel = field(default_factory=channel.PathLossModel)
    noise: channel.NoiseFloor = field(default_factory=channel.NoiseFloor,
                                      metadata={"json": "noise_floor"})
    game_params: game.GameParams = field(default_factory=game.GameParams,
                                         metadata={"json": "game"})
    levels: DiscreteLevelSet = field(default_factory=DiscreteLevelSet)
    registers: RegisterMap = field(default_factory=RegisterMap.eight_level_default)
    traffic: packetsim.TrafficConfig = field(default_factory=packetsim.TrafficConfig)
    modes: tuple = MODES
    receiver_policy: str = "best-prr"

    def __post_init__(self):
        self.modes = tuple(self.modes)
        if not self.modes:
            raise ValueError("at least one mode must be selected")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")
        if self.receiver_policy not in RECEIVER_POLICIES:
            raise ValueError(f"receiver policy must be one of {RECEIVER_POLICIES}")
        # Every mode maps its powers, anywhere in the profile's range, to
        # registers, and a discretized mode needs a level in that range.
        s_min, s_max = game.StrategyProfile.s_min, game.StrategyProfile.s_max
        low, high = s_min - channel.DBM_OFFSET, s_max - channel.DBM_OFFSET
        dbms = [d for d, _ in self.registers.pairs]
        if dbms[0] > low or dbms[-1] < high:
            raise ValueError(f"register map spans [{dbms[0]}, {dbms[-1]}] dB, which does not "
                             f"cover the transmit range [{low}, {high}] dB")
        if {"discretized-posthoc", "discretized-game"} & set(self.modes):
            _usable_levels(self.levels, s_min, s_max)
        spec = self.topology_spec
        channel._check_keys(spec, ("file",) if "file" in spec else ("m", "area", "seed"),
                            "topology spec")
        if "file" in spec:
            if not isinstance(spec["file"], str):
                raise ValueError(f"topology file must be a path string, got {spec['file']!r}")
        elif not {"m", "area", "seed"} <= set(spec):
            raise ValueError("topology spec needs m/area/seed or a file path")
        else:
            m, area, seed = topology._generated_layout(spec["m"], spec["area"], spec["seed"])
            self.topology_spec = {**spec, "m": m, "area": area, "seed": seed}

    def build_topology(self) -> topology.Topology:
        spec = self.topology_spec
        if "file" in spec:
            return topology.load_topology(spec["file"])
        return topology.random_topology(spec["m"], area=spec["area"], seed=spec["seed"])

    def to_json_dict(self) -> dict:
        return {f.metadata.get("json", f.name): _to_json(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioConfig":
        members = {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}
        channel._check_keys(data, members, "config")
        return cls(**{f.name: _from_json(f.type, data[key]) for key, f in members.items()
                      if key in data})


def _to_json(value):
    """JSON form of a config member: its own ``to_json_dict`` when it has one,
    otherwise a dict of its dataclass fields; tuples become lists."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _from_json(cls, data):
    """Inverse of ``_to_json`` for a member declared as ``cls``; the member's
    own constructor checks the values."""
    if hasattr(cls, "from_json_dict"):
        return cls.from_json_dict(data)
    if dataclasses.is_dataclass(cls):
        return cls(**data)
    return data


def simulation_default() -> ScenarioConfig:
    """80 nodes on 100x100 m, 30 retries: the software-simulation preset."""
    return ScenarioConfig()


def testbed_default() -> ScenarioConfig:
    """Hardware-style preset: 3 retries, one message every 2 seconds."""
    return ScenarioConfig(traffic=packetsim.TrafficConfig.testbed())


def validate_config(data: dict):
    """(config, message): parse a config dict, load the layout file it names
    and evaluate the degree rule at the node count, without running anything.
    An invalid dict or layout gives (None, the error's type and text)."""
    try:
        config = ScenarioConfig.from_json_dict(data)
        spec = config.topology_spec
        m = config.build_topology().node_count if "file" in spec else spec["m"]
        config.game_params.required_degree(m)
        return config, "ok"
    except (ValueError, TypeError, KeyError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _topology_digest(topo: topology.Topology) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(topo.positions).tobytes())
    h.update(repr((topo.area, topo.seed)).encode())
    return h.hexdigest()[:16]


@dataclass
class ModeSection:
    mode: str
    topology_digest: str
    result: game.EquilibriumResult
    register_ids: list
    analytic_avg_prr: float
    analytic_link_prr: dict
    metrics: packetsim.Metrics
    connected_bfs: bool

    def to_json_dict(self) -> dict:
        data = self.result.to_json_dict()
        powers = data.pop("nodes")
        for row, register_id in zip(powers, self.register_ids):
            row["register_id"] = register_id
        return {
            **data,
            "mode": self.mode,
            "topology_digest": self.topology_digest,
            "powers": powers,
            "analytic_avg_prr": self.analytic_avg_prr,
            "analytic_link_prr": {f"{i}->{j}": v for (i, j), v in sorted(self.analytic_link_prr.items())},
            "metrics": self.metrics.to_json_dict(),
            "connected_bfs": self.connected_bfs,
        }


@dataclass
class SimulationReport:
    config: ScenarioConfig
    topology_digest: str
    full_power_connected: bool
    sections: dict
    deltas: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "topology_digest": self.topology_digest,
            "full_power_connected": self.full_power_connected,
            "modes": {name: sec.to_json_dict() for name, sec in sorted(self.sections.items())},
            "deltas": self.deltas,
        }


def _run_mode(mode, config, gains, digest, continuous_result, full_mat):
    params = config.game_params
    n0 = config.noise.n0_mw
    full = game.StrategyProfile.full_power(gains.shape[0])
    if mode == "continuous":
        result = continuous_result
    elif mode == "discretized-posthoc":
        # The continuous run plus a final rounding step; the trace shows both.
        profile = discretize_profile(continuous_result.profile, config.levels)
        result = dataclasses.replace(
            continuous_result,
            profile=profile,
            potential_trace=continuous_result.potential_trace
            + [game.potential(profile, gains, n0, params)],
            profile_trace=continuous_result.profile_trace + [np.array(profile.s)],
            per_node_feasible=game._per_node_feasible(profile, gains, n0, params),
        )
    elif mode == "discretized-game":
        result = solve_discrete(full, gains, n0, params, config.levels)
    else:
        result = game.EquilibriumResult(
            profile=full,
            sweeps_used=0,
            potential_trace=[game.potential(full, gains, n0, params)],
            converged=True,
            per_node_feasible=game._per_node_feasible(full, gains, n0, params),
            profile_trace=[np.array(full.s)],
        )

    # The mode's one analytic PRR matrix (full power's from ``run_scenario``),
    # shared by every stage below.
    profile = result.profile
    mat = full_mat if mode == "full-power" else channel.prr_matrix(
        profile.mw, gains, n0, params.f_bytes, params.interference)
    best = mat.max(axis=1)  # each sender's best link; isolated senders count as 0
    avg = float(np.where(best >= params.epsilon_link, best, 0.0).mean())
    if config.receiver_policy == "round-robin":
        links = packetsim.round_robin_receivers(mat, params.epsilon_link,
                                                config.traffic.messages_per_node)
    else:
        links = packetsim.best_prr_receivers(mat, params.epsilon_link)
    metrics = packetsim.build_metrics(packetsim.simulate(profile, mat, config.traffic, links))
    chosen = {key: float(mat[key]) for key in sorted(metrics.per_link_prr)}
    adj = topology.adjacency(mat, params.epsilon_link)
    register_ids = to_register(profile.dbm, config.registers).tolist()
    return ModeSection(
        mode=mode,
        topology_digest=digest,
        result=result,
        register_ids=register_ids,
        analytic_avg_prr=avg,
        analytic_link_prr=chosen,
        metrics=metrics,
        connected_bfs=topology.is_connected_bfs(adj),
    )


def run_scenario(config: ScenarioConfig) -> SimulationReport:
    """Solve, quantize, and simulate every selected mode on one topology."""
    topo = config.build_topology()
    gains = channel.build_gain_matrix(topo.positions, config.path_loss)
    digest = _topology_digest(topo)
    params = config.game_params
    n0 = config.noise.n0_mw
    m = topo.node_count

    full = game.StrategyProfile.full_power(m)
    full_mat = channel.prr_matrix(full.mw, gains, n0, params.f_bytes, params.interference)
    full_connected = topology.is_connected_bfs(topology.adjacency(full_mat, params.epsilon_link))

    needs_continuous = {"continuous", "discretized-posthoc"} & set(config.modes)
    continuous_result = None
    if needs_continuous:
        continuous_result = game.solve(full, gains, n0, params)

    sections = {mode: _run_mode(mode, config, gains, digest, continuous_result, full_mat)
                for mode in config.modes}

    deltas = {}
    if "full-power" in sections:
        base = sections["full-power"]
        for mode in config.modes:
            if mode == "full-power":
                continue
            deltas[f"{mode}-vs-full-power"] = compare(sections[mode], base)
    if {"discretized-posthoc", "continuous"} <= set(sections):
        deltas["discretized-posthoc-vs-continuous"] = compare(
            sections["discretized-posthoc"], sections["continuous"])

    return SimulationReport(
        config=config,
        topology_digest=digest,
        full_power_connected=full_connected,
        sections=sections,
        deltas=deltas,
    )


def _mode_deltas(a, b) -> dict:
    """Deltas between two sides, each (topology digest, analytic avg PRR,
    empirical avg PRR, relative energy): PRR in percentage points, energy as
    a fraction."""
    if a[0] != b[0]:
        raise ValueError("cannot compare mode sections from different topologies")
    return {
        "delta_analytic_avg_prr_pp": (a[1] - b[1]) * 100.0,
        "delta_empirical_avg_prr_pp": (a[2] - b[2]) * 100.0,
        "delta_relative_energy": a[3] - b[3],
    }


def compare(section_a: ModeSection, section_b: ModeSection) -> dict:
    """Pairwise mode deltas: PRR in percentage points, energy as a fraction."""
    def side(sec):
        return (sec.topology_digest, sec.analytic_avg_prr, sec.metrics.avg_prr,
                sec.metrics.relative_energy)

    return _mode_deltas(side(section_a), side(section_b))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def emit(report: SimulationReport, out_dir) -> list:
    """Write report.json plus the CSV tables; returns the created paths."""
    os.makedirs(out_dir, exist_ok=True)
    created = []

    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    created.append(path)

    rows = []
    for mode in report.config.modes:
        sec = report.sections[mode]
        profile = sec.result.profile
        for i in range(profile.n):
            rows.append([i, mode, _fmt(profile.s[i]), _fmt(profile.dbm[i]),
                         _fmt(profile.mw[i]), sec.register_ids[i]])
    path = os.path.join(out_dir, "powers.csv")
    _write_csv(path, ["node", "mode", "s", "dbm", "mw", "register_id"], rows)
    created.append(path)

    rows = []
    for mode in report.config.modes:
        sec = report.sections[mode]
        rows.append([mode, _fmt(sec.metrics.avg_prr), _fmt(sec.metrics.relative_energy),
                     int(sec.connected_bfs)])
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(path, ["mode", "avg_prr", "relative_energy", "connected"], rows)
    created.append(path)

    for mode in report.config.modes:
        sec = report.sections[mode]
        mode_dir = os.path.join(out_dir, mode)
        os.makedirs(mode_dir, exist_ok=True)

        rows = []
        for (i, j), emp in sorted(sec.metrics.per_link_prr.items()):
            analytic = sec.analytic_link_prr[(i, j)]
            if emp >= packetsim.GOOD_PRR:
                klass = "good"
            elif emp < packetsim.BAD_PRR:
                klass = "bad"
            else:
                klass = "intermediate"
            rows.append([i, j, _fmt(analytic), _fmt(emp), klass])
        path = os.path.join(mode_dir, "links.csv")
        _write_csv(path, ["i", "j", "analytic_prr", "empirical_prr", "class"], rows)
        created.append(path)

        rows = []
        for sweep, snapshot in enumerate(sec.result.profile_trace):
            for i, s in enumerate(snapshot):
                rows.append([sweep, i, _fmt(s)])
        path = os.path.join(mode_dir, "trace.csv")
        _write_csv(path, ["sweep", "node", "s"], rows)
        created.append(path)

        rows = [[_fmt(p), _fmt(c)] for p, c in sec.metrics.cdf_points]
        path = os.path.join(mode_dir, "cdf.csv")
        _write_csv(path, ["prr", "cumulative_fraction"], rows)
        created.append(path)
    return created