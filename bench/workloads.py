"""The benchmark's workloads: inputs made from the workload seed, one job, and
the checks on a job's outputs.

Scenario ``j`` of workload seed ``s`` uses seed ``s * SCENARIO_STRIDE + j`` for
its topology, shadowing and traffic (the convention of ``wsnpower run
--seed-override``), so workload seed 0 starts with the paper's default layout.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SCENARIO_STRIDE = 1000
# Distinct scenarios made per run.  A closed loop that runs more jobs than this
# cycles through them again, and each repeat must reproduce its first output.
POOL = 32


class CheckFailed(Exception):
    """A job's outputs broke one of the benchmark's checks."""


@dataclass
class Scenario:
    index: int
    seed: int
    inputs: object


@dataclass
class Outcome:
    digest: str
    profile: list = None     # continuous equilibrium, when the job solves one
    residual: float = None   # verify_equilibrium's worst improvement, when the job runs it


def _hash_tree(root) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _strategy_bounds(wsn):
    profile = wsn.game.StrategyProfile.full_power(2)
    return profile.s_min, profile.s_max


class CliWorkload:
    """Each job is ``wsnpower run`` on one generated config, called in process."""

    def __init__(self, make_config, modes=None):
        self.make_config = make_config
        self.modes = modes

    def generate(self, wsn, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        scenarios = []
        for j in range(POOL):
            scen_seed = seed * SCENARIO_STRIDE + j
            config = self.make_config(wsn, scen_seed)
            path = os.path.join(workdir, f"config-{j}.json")
            with open(path, "w") as fh:
                json.dump(config.to_json_dict(), fh)
            scenarios.append(Scenario(j, scen_seed, (config, path)))
        return scenarios

    def run(self, wsn, scenario, out_dir):
        argv = ["run", "--config", scenario.inputs[1], "--out", out_dir]
        if self.modes:
            argv += ["--modes", ",".join(self.modes)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return wsn.cli.main(argv)

    def check(self, wsn, scenario, out_dir, rc) -> Outcome:
        if rc != 0:
            raise CheckFailed(f"wsnpower run exited with {rc}")
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        config = scenario.inputs[0]
        expected = set(self.modes or config.modes)
        if set(report["modes"]) != expected:
            raise CheckFailed(f"report modes {sorted(report['modes'])} != {sorted(expected)}")
        s_min, s_max = _strategy_bounds(wsn)
        table = {row["id"] for row in report["config"]["registers"]["registers"]}
        m = int(config.topology_spec["m"])
        for mode, section in report["modes"].items():
            powers = section["powers"]
            if len(powers) != m:
                raise CheckFailed(f"{mode}: {len(powers)} powers for {m} nodes")
            for row in powers:
                if not s_min <= row["s"] <= s_max:
                    raise CheckFailed(f"{mode}: node {row['id']} power {row['s']} "
                                      f"outside [{s_min}, {s_max}]")
                if row["register_id"] not in table:
                    raise CheckFailed(f"{mode}: node {row['id']} register "
                                      f"{row['register_id']} not in the table")
        profile = None
        if "continuous" in report["modes"]:
            profile = [row["s"] for row in report["modes"]["continuous"]["powers"]]
        return Outcome(digest=_hash_tree(out_dir), profile=profile)

    def eq_residual(self, wsn, scenario, outcome):
        """Worst verify_equilibrium improvement over the continuous profile."""
        if outcome.profile is None:
            return None
        config = scenario.inputs[0]
        topo = config.build_topology()
        gains = wsn.channel.build_gain_matrix(topo.positions, config.path_loss)
        profile = wsn.game.StrategyProfile(np.asarray(outcome.profile))
        _, worst = wsn.game.verify_equilibrium(profile, gains, config.noise.n0_mw,
                                               config.game_params)
        return worst


class CoupledWorkload:
    """Each job is the README's library path under full interference:
    ``game.solve`` from full power, then ``game.verify_equilibrium``."""

    M = 40
    AREA = (200.0, 200.0)

    def generate(self, wsn, seed, workdir):
        params = wsn.game.GameParams(interference="full", degree_target=1, n_iter_max=20)
        n0 = wsn.channel.NoiseFloor().n0_mw
        scenarios = []
        for j in range(POOL):
            scen_seed = seed * SCENARIO_STRIDE + j
            topo = wsn.topology.random_topology(self.M, area=self.AREA, seed=scen_seed)
            model = wsn.channel.PathLossModel(seed=scen_seed)
            gains = wsn.channel.build_gain_matrix(topo.positions, model)
            scenarios.append(Scenario(j, scen_seed, (gains, n0, params)))
        return scenarios

    def run(self, wsn, scenario, out_dir):
        gains, n0, params = scenario.inputs
        start = wsn.game.StrategyProfile.full_power(self.M)
        result = wsn.game.solve(start, gains, n0, params)
        passed, worst = wsn.game.verify_equilibrium(result.profile, gains, n0, params)
        return result, passed, worst

    def check(self, wsn, scenario, out_dir, value) -> Outcome:
        result, passed, worst = value
        params = scenario.inputs[2]
        s_min, s_max = _strategy_bounds(wsn)
        s = np.asarray(result.profile.s)
        if s.shape != (self.M,) or np.any(s < s_min) or np.any(s > s_max):
            raise CheckFailed(f"equilibrium powers outside [{s_min}, {s_max}]")
        if not 1 <= result.sweeps_used <= params.n_iter_max:
            raise CheckFailed(f"sweeps_used {result.sweeps_used} outside [1, {params.n_iter_max}]")
        if not math.isfinite(worst) or not all(map(math.isfinite, result.potential_trace)):
            raise CheckFailed("non-finite potential trace or verification residual")
        payload = json.dumps([result.to_json_dict(), bool(passed), repr(worst)], sort_keys=True)
        return Outcome(digest=hashlib.sha256(payload.encode()).hexdigest(), residual=worst)

    def eq_residual(self, wsn, scenario, outcome):
        return outcome.residual


def _default_80(wsn, seed):
    config = wsn.experiment.simulation_default()
    config.topology_spec = dict(config.topology_spec, seed=seed)
    config.path_loss = dataclasses.replace(config.path_loss, seed=seed)
    config.traffic = dataclasses.replace(config.traffic, seed=seed)
    return config


def _large_shadowed_400(wsn, seed):
    # 400 nodes at the default's density of 80 per 100 x 100 m.
    return wsn.experiment.ScenarioConfig(
        topology_spec={"m": 400, "area": (223.6, 223.6), "seed": seed},
        path_loss=wsn.channel.PathLossModel(shadowing_sigma_db=4.0, seed=seed),
        traffic=wsn.packetsim.TrafficConfig(messages_per_node=500, max_retries=3, seed=seed),
        receiver_policy="round-robin",
    )


WORKLOADS = {
    "default-80": CliWorkload(_default_80),
    "large-shadowed-400": CliWorkload(_large_shadowed_400,
                                     modes=("discretized-game", "full-power")),
    "coupled-certify-40": CoupledWorkload(),
}
