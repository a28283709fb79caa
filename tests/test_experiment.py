import contextlib
import copy
import csv
import filecmp
import functools
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, cli, experiment, game, packetsim, topology
from wsnpower.quantize import DiscreteLevelSet, RegisterMap, discretize_profile
from conftest import DESK_AREA, DESK_M
import oracles


def desk_config(**overrides):
    base = dict(
        topology_spec={"m": DESK_M, "area": DESK_AREA, "seed": 0},
        traffic=packetsim.TrafficConfig(messages_per_node=20, max_retries=5, seed=0),
    )
    base.update(overrides)
    return experiment.ScenarioConfig(**base)


@pytest.fixture(scope="module")
def desk_report():
    return experiment.run_scenario(desk_config())


class TestScenarioConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            desk_config(modes=())
        with pytest.raises(ValueError):
            desk_config(modes=("continuous", "warp-drive"))
        with pytest.raises(ValueError):
            desk_config(modes=("continuous", "continuous"))
        with pytest.raises(ValueError):
            desk_config(receiver_policy="nearest")
        with pytest.raises(ValueError):
            experiment.ScenarioConfig(topology_spec={"m": 10})

    def test_json_round_trip(self):
        cfg = desk_config(modes=("continuous", "full-power"), receiver_policy="round-robin")
        back = experiment.ScenarioConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    @settings(deadline=None)
    @given(st.data())
    def test_json_round_trip_property(self, data):
        # Every field survives a trip through JSON text.
        draw = data.draw
        m = draw(st.integers(2, 12))
        seeds = st.integers(0, 2**31 - 1)
        # at least one level in the transmit range [-24.5, 0] dB, and a
        # register map that spans it
        levels = DiscreteLevelSet(tuple(float(v) for v in sorted(draw(
            st.lists(st.integers(-25, 0), min_size=1, max_size=26, unique=True)
            .filter(lambda v: v != [-25])))))
        register_dbms = sorted({*levels.levels_dbm, -25.0, 0.0})
        id_start = draw(st.integers(0, 10))
        cfg = experiment.ScenarioConfig(
            topology_spec={"m": m, "area": (draw(st.floats(1.0, 1e3)), draw(st.floats(1.0, 1e3))),
                           "seed": draw(seeds)},
            path_loss=channel.PathLossModel(exponent=draw(st.floats(1.5, 5.0)),
                                            shadowing_sigma_db=draw(st.floats(0.0, 8.0)),
                                            seed=draw(seeds)),
            noise=channel.NoiseFloor(draw(st.floats(1e-14, 1e-6))),
            game_params=game.GameParams(
                epsilon_link=draw(st.floats(1e-6, 1.0, exclude_max=True)),
                degree_target=draw(st.integers(0, 8)),
                degree_rule=draw(st.sampled_from(game.DEGREE_RULES)),
                ncr_denominator=draw(st.sampled_from(game.NCR_DENOMINATORS)),
                interference=draw(st.sampled_from(channel.INTERFERENCE_MODES)),
            ),
            levels=levels,
            registers=RegisterMap(tuple((v, id_start + k) for k, v in enumerate(register_dbms))),
            traffic=packetsim.TrafficConfig(messages_per_node=draw(st.integers(1, 500)),
                                            max_retries=draw(st.integers(0, 30)),
                                            seed=draw(seeds)),
            modes=draw(st.lists(st.sampled_from(experiment.MODES), min_size=1, unique=True)),
            receiver_policy=draw(st.sampled_from(experiment.RECEIVER_POLICIES)),
        )
        text = json.dumps(cfg.to_json_dict())
        assert experiment.ScenarioConfig.from_json_dict(json.loads(text)) == cfg

    def test_presets(self):
        sim = experiment.simulation_default()
        assert sim.traffic.max_retries == 30
        assert sim.topology_spec["m"] == 80
        tb = experiment.testbed_default()
        assert tb.traffic.max_retries == 3
        assert tb.traffic.message_period_s == 2.0

    def test_validate_config_helper(self):
        config, message = experiment.validate_config(desk_config().to_json_dict())
        assert config == desk_config() and message == "ok"
        config, message = experiment.validate_config({"modes": ["continuous", "continuous"]})
        assert config is None and "duplicate" in message

    def test_topology_from_file(self, tmp_path):
        topo = topology.random_topology(5, area=(3.0, 3.0), seed=7)
        path = tmp_path / "layout.json"
        topology.save_topology(topo, path)
        cfg = desk_config(topology_spec={"file": str(path)})
        built = cfg.build_topology()
        assert np.array_equal(built.positions, topo.positions)


class TestRunScenario:
    def test_all_modes_present(self, desk_report):
        assert set(desk_report.sections) == set(experiment.MODES)
        assert desk_report.full_power_connected
        for mode in experiment.MODES:
            sec = desk_report.sections[mode]
            assert sec.mode == mode
            assert sec.topology_digest == desk_report.topology_digest
            assert sec.result.converged
            assert len(sec.register_ids) == DESK_M

    def test_full_power_energy_is_exactly_one(self, desk_report):
        assert desk_report.sections["full-power"].metrics.relative_energy == 1.0
        assert desk_report.sections["full-power"].result.sweeps_used == 0

    @pytest.mark.parametrize("modes,policy", [
        (experiment.MODES, "best-prr"),
        (experiment.MODES, "round-robin"),
        (("continuous",), "best-prr"),
        (("discretized-game", "full-power"), "round-robin"),
    ])
    def test_one_prr_matrix_per_mode(self, monkeypatch, modes, policy):
        # Each mode's analytic PRR matrix is built once and shared by the
        # summary, the receiver choice, the packet simulation and the
        # adjacency; one more, at full power, decides full_power_connected.
        calls = []
        original = channel.prr_matrix

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module in (channel, topology, packetsim, game):
            if hasattr(module, "prr_matrix"):
                monkeypatch.setattr(module, "prr_matrix", counting)
        experiment.run_scenario(desk_config(modes=modes, receiver_policy=policy))
        assert len(calls) <= len(modes) + 1

    def test_one_environment_per_solve(self, monkeypatch):
        # A default run builds one game environment for each of its two
        # solves and one for its post-steps (the rounded and the full-power
        # profile); on the clear channel each computes its strategy sets once.
        builds, sets = [], []
        init = game._Environment.__init__
        monkeypatch.setattr(game._Environment, "__init__",
                            lambda env, *args: builds.append(None) or init(env, *args))
        cached = game._Environment.__dict__["strategy_sets"]
        strategy_sets = cached.func
        monkeypatch.setattr(cached, "func", lambda env: sets.append(None) or strategy_sets(env))
        experiment.run_scenario(experiment.simulation_default())
        assert len(builds) <= 3
        assert len(sets) <= 3

    @pytest.mark.parametrize("modes, expected", [
        (("continuous",), 1),
        (("discretized-game",), 1),
        (("full-power",), 1),
        (("continuous", "discretized-posthoc"), 2),
    ])
    def test_post_environment_only_when_read(self, monkeypatch, modes, expected):
        # The post-step environment serves only the rounded and the
        # full-power modes; a run of the other modes builds just its solve's.
        builds = []
        init = game._Environment.__init__
        monkeypatch.setattr(game._Environment, "__init__",
                            lambda env, *args: builds.append(None) or init(env, *args))
        experiment.run_scenario(desk_config(modes=modes))
        assert len(builds) == expected

    @pytest.mark.parametrize("interference", ["none", "full"])
    def test_each_modes_feasibility_flags(self, interference):
        # Each mode's flags are those of its own profile's strategy sets.  On
        # the clear channel the sets do not depend on the profile, so every
        # mode has the same flags; under interference (CI's coupled config)
        # the floors move with the profile, and the modes' flags differ.
        data = experiment.simulation_default().to_json_dict()
        if interference == "full":
            data["game"].update(interference="full", degree_target=1, n_iter_max=20)
            data["topology"].update(m=40, area=[200.0, 200.0])
        config = experiment.ScenarioConfig.from_json_dict(data)
        report = experiment.run_scenario(config)
        gains = channel.build_gain_matrix(config.build_topology().positions, config.path_loss)
        flags = set()
        for sec in report.sections.values():
            fresh = game._Environment(sec.result.profile, gains, config.noise.n0_mw,
                                      config.game_params)
            assert sec.result.per_node_feasible == fresh.strategy_sets[2].tolist()
            flags.add(tuple(sec.result.per_node_feasible))
        assert (len(flags) == 1) == (interference == "none")
        assert not all(flags.pop())

    def test_connectivity_checks_agree(self, desk_report):
        # The run decides connectivity by BFS; the spectral check on each
        # mode's adjacency agrees with it.
        config = desk_config()
        gains = channel.build_gain_matrix(config.build_topology().positions, config.path_loss)
        params = config.game_params
        for sec in desk_report.sections.values():
            mat = channel.prr_matrix(sec.result.profile.mw, gains, config.noise.n0_mw,
                                     params.f_bytes, params.interference)
            adj = topology.adjacency(mat, params.epsilon_link)
            assert sec.connected_bfs == oracles.is_connected_spectral(adj)

    def test_posthoc_is_rounded_continuous(self, desk_report):
        cont = desk_report.sections["continuous"].result.profile
        post = desk_report.sections["discretized-posthoc"].result.profile
        expected = discretize_profile(cont, desk_config().levels)
        assert np.array_equal(post.s, expected.s)
        # the rounding step is visible as one extra trace entry
        assert len(desk_report.sections["discretized-posthoc"].result.profile_trace) == \
            len(desk_report.sections["continuous"].result.profile_trace) + 1

    def test_game_modes_save_energy(self, desk_report):
        base = desk_report.sections["full-power"].metrics.relative_energy
        for mode in ("continuous", "discretized-posthoc", "discretized-game"):
            assert desk_report.sections[mode].metrics.relative_energy < base

    def test_delta_keys(self, desk_report):
        assert set(desk_report.deltas) == {
            "continuous-vs-full-power",
            "discretized-posthoc-vs-full-power",
            "discretized-game-vs-full-power",
            "discretized-posthoc-vs-continuous",
        }
        for entry in desk_report.deltas.values():
            assert set(entry) == {"delta_analytic_avg_prr_pp",
                                  "delta_empirical_avg_prr_pp",
                                  "delta_relative_energy"}

    def test_analytic_links_cover_simulated_links(self, desk_report):
        for sec in desk_report.sections.values():
            assert set(sec.analytic_link_prr) == set(sec.metrics.per_link_prr)
            for value in sec.analytic_link_prr.values():
                assert 0.0 <= value <= 1.0

    def test_single_mode_run(self):
        report = experiment.run_scenario(desk_config(modes=("full-power",)))
        assert set(report.sections) == {"full-power"}
        assert report.deltas == {}

    def test_round_robin_policy_runs(self):
        report = experiment.run_scenario(
            desk_config(modes=("full-power",), receiver_policy="round-robin"))
        sec = report.sections["full-power"]
        # each node rotates over 9 desk neighbors, so many links appear
        assert len(sec.metrics.per_link_prr) > DESK_M

    def test_compare_self_is_zero(self, desk_report):
        sec = desk_report.sections["continuous"]
        deltas = experiment.compare(sec, sec)
        assert deltas == {"delta_analytic_avg_prr_pp": 0.0,
                          "delta_empirical_avg_prr_pp": 0.0,
                          "delta_relative_energy": 0.0}

    def test_compare_rejects_digest_mismatch(self, desk_report):
        other = experiment.run_scenario(
            desk_config(topology_spec={"m": DESK_M, "area": DESK_AREA, "seed": 1},
                        modes=("full-power",)))
        with pytest.raises(ValueError):
            experiment.compare(desk_report.sections["full-power"],
                               other.sections["full-power"])


class TestEmit:
    def test_file_layout_and_headers(self, desk_report, tmp_path):
        out = tmp_path / "out"
        created = experiment.emit(desk_report, out)
        expected = {str(out / "report.json"), str(out / "powers.csv"),
                    str(out / "summary.csv")}
        for mode in experiment.MODES:
            expected |= {str(out / mode / name)
                         for name in ("links.csv", "trace.csv", "cdf.csv")}
        assert set(created) == expected

        with open(out / "powers.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "mode", "s", "dbm", "mw", "register_id"]
        assert len(rows) == 1 + len(experiment.MODES) * DESK_M

        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "avg_prr", "relative_energy", "connected"]
        assert [row[0] for row in rows[1:]] == list(experiment.MODES)
        by_mode = {row[0]: row for row in rows[1:]}
        assert by_mode["full-power"][2] == "1.0"
        assert by_mode["full-power"][3] == "1"

        with open(out / "continuous" / "links.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i", "j", "analytic_prr", "empirical_prr", "class"]
        assert all(row[4] in ("good", "intermediate", "bad") for row in rows[1:])

        with open(out / "continuous" / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sweep", "node", "s"]
        sec = desk_report.sections["continuous"]
        assert len(rows) == 1 + len(sec.result.profile_trace) * DESK_M

        with open(out / "continuous" / "cdf.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["prr", "cumulative_fraction"]

    def test_report_json_shape(self, desk_report, tmp_path):
        experiment.emit(desk_report, tmp_path)
        with open(tmp_path / "report.json") as fh:
            data = json.load(fh)
        assert set(data) == {"schema_version", "config", "topology_digest",
                             "full_power_connected", "modes", "deltas"}
        assert set(data["modes"]) == set(experiment.MODES)
        section = data["modes"]["continuous"]
        assert set(section) == {"mode", "topology_digest", "powers", "converged",
                                "sweeps_used", "potential_trace", "nonunimodal_events",
                                "analytic_avg_prr", "metrics", "connected_bfs"}
        assert len(section["powers"]) == DESK_M
        assert set(section["powers"][0]) == {"id", "s", "dbm", "mw", "feasible",
                                             "register_id"}

    def test_report_json_is_compact_and_versioned(self, desk_report, tmp_path):
        # one line without separator spaces, written by the C encoder
        experiment.emit(desk_report, tmp_path)
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert '": ' not in text and '", ' not in text
        data = json.loads(text)
        assert data["schema_version"] == experiment.SCHEMA_VERSION == 2
        assert data == desk_report.to_json_dict()

    @pytest.mark.parametrize("interference", ["none", "full"])
    def test_csv_cells_are_value_reprs(self, desk_report, tmp_path, interference):
        # every float cell is repr(float(v)) of its in-memory value, and
        # every row is where the layout puts it
        report = desk_report if interference == "none" else experiment.run_scenario(
            desk_config(game_params=game.GameParams(interference="full")))
        experiment.emit(report, tmp_path)

        def fmt(row):
            return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row]

        def read(*parts):
            with open(tmp_path.joinpath(*parts), newline="") as fh:
                return list(csv.reader(fh))[1:]

        sections = [report.sections[mode] for mode in report.config.modes]
        assert read("powers.csv") == [
            fmt([i, sec.mode, sec.result.profile.s[i], sec.result.profile.dbm[i],
                 sec.result.profile.mw[i], sec.register_ids[i]])
            for sec in sections for i in range(DESK_M)]
        assert read("summary.csv") == [
            fmt([sec.mode, sec.metrics.avg_prr, sec.metrics.relative_energy,
                 int(sec.connected_bfs)]) for sec in sections]
        for sec in sections:
            links = read(sec.mode, "links.csv")
            assert [row[:4] for row in links] == [
                fmt([i, j, sec.analytic_link_prr[(i, j)], emp])
                for (i, j), emp in sorted(sec.metrics.per_link_prr.items())]
            assert read(sec.mode, "trace.csv") == [
                fmt([sweep, i, float(snapshot[i])])
                for sweep, snapshot in enumerate(sec.result.profile_trace)
                for i in range(DESK_M)]
            assert read(sec.mode, "cdf.csv") == [fmt(point) for point in sec.metrics.cdf_points]

    def test_two_runs_are_byte_identical(self, tmp_path):
        cfg = desk_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        paths_a = experiment.emit(experiment.run_scenario(cfg), out_a)
        paths_b = experiment.emit(experiment.run_scenario(desk_config()), out_b)
        assert len(paths_a) == len(paths_b)
        for pa, pb in zip(paths_a, paths_b):
            assert os.path.relpath(pa, out_a) == os.path.relpath(pb, out_b)
            assert filecmp.cmp(pa, pb, shallow=False), f"{pa} differs"


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(desk_config(**overrides).to_json_dict(), fh)
    return str(path)


class TestCli:
    def test_generate_topology_stdout(self, capsys):
        assert cli.main(["generate-topology", "--nodes", "4", "--area", "2", "2",
                         "--seed", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["nodes"]) == 4
        topo = topology.topology_from_json_dict(data)
        assert topo.node_count == 4

    def test_generate_topology_file(self, tmp_path, capsys):
        out = str(tmp_path / "topo.json")
        assert cli.main(["generate-topology", "--nodes", "5", "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert topology.load_topology(out).node_count == 5

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = write_config(tmp_path)
        assert cli.main(["validate", "--config", good]) == 0
        assert capsys.readouterr().out.strip() == "ok"

        bad = tmp_path / "bad.json"
        with open(bad, "w") as fh:
            json.dump({"modes": ["continuous", "continuous"]}, fh)
        assert cli.main(["validate", "--config", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate modes" in captured.err

        with open(bad, "w") as fh:
            fh.write("{not json")
        assert cli.main(["validate", "--config", str(bad)]) == 2
        assert capsys.readouterr().err

    def test_run_and_compare(self, tmp_path, capsys):
        config = write_config(tmp_path, modes=("continuous", "full-power"))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", config, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "continuous: avg_prr=" in stdout
        assert "full-power: avg_prr=" in stdout
        report = os.path.join(out, "report.json")
        assert os.path.exists(report)

        assert cli.main(["compare", "--report", report,
                         "--modes", "continuous,full-power"]) == 0
        deltas = json.loads(capsys.readouterr().out)
        assert deltas["delta_relative_energy"] < 0.0

    def test_run_mode_subset_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", config, "--out", out,
                         "--modes", "full-power"]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "report.json")) as fh:
            data = json.load(fh)
        assert list(data["modes"]) == ["full-power"]

    def test_run_rejects_unknown_mode(self, tmp_path, capsys):
        # an empty list, written any way, selects no mode rather than all
        config = write_config(tmp_path)
        for modes, message in (("sideways", "error"), ("", "at least one mode"),
                               (",", "at least one mode"), (" ", "at least one mode")):
            code = cli.main(["run", "--config", config, "--out", str(tmp_path / "x"),
                             "--modes", modes])
            assert code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_seed_override_changes_topology(self, tmp_path, capsys):
        config = write_config(tmp_path, modes=("full-power",))
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["run", "--config", config, "--out", out_a]) == 0
        assert cli.main(["run", "--config", config, "--out", out_b,
                         "--seed-override", "9"]) == 0
        capsys.readouterr()
        with open(os.path.join(out_a, "report.json")) as fh:
            digest_a = json.load(fh)["topology_digest"]
        with open(os.path.join(out_b, "report.json")) as fh:
            data_b = json.load(fh)
        assert data_b["topology_digest"] != digest_a
        assert data_b["config"]["topology"]["seed"] == 9
        assert data_b["config"]["traffic"]["seed"] == 9

    def test_compare_usage_errors(self, tmp_path, capsys):
        config = write_config(tmp_path, modes=("full-power",))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        report = os.path.join(out, "report.json")
        assert cli.main(["compare", "--report", report, "--modes", "full-power"]) == 2
        assert cli.main(["compare", "--report", report,
                         "--modes", "full-power,continuous"]) == 2

    def test_seed_override_is_checked_with_the_config(self, tmp_path, capsys):
        # the flag is written into the config before it is validated: a
        # negative seed exits 2 naming the field, and a layout file keeps its
        # layout while shadowing and traffic take the seed
        config = write_config(tmp_path, modes=("full-power",))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config, "--out", str(out),
                         "--seed-override", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: ValueError: traffic seed must be a whole number >= 0, got -1\n")
        assert not out.exists()
        layout = str(tmp_path / "layout.json")
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        config = write_config(tmp_path, modes=("full-power",), topology_spec={"file": layout})
        assert cli.main(["run", "--config", config, "--out", str(out),
                         "--seed-override", "4"]) == 0
        capsys.readouterr()
        with open(out / "report.json") as fh:
            echoed = json.load(fh)["config"]
        assert echoed["topology"] == {"file": layout}
        assert echoed["path_loss"]["seed"] == echoed["traffic"]["seed"] == 4

    def test_compare_rejects_malformed_report(self, tmp_path, capsys):
        # a report that lacks a field, is not a JSON object, holds a list
        # where an object is read, or holds a read value that is not a finite
        # number, exits 2 naming the report and the field.  Strings, bools
        # and lists ended in a traceback (exit 1) before, and NaN printed a
        # NaN delta, which is not JSON; json writes NaN and Infinity literals.
        config = write_config(tmp_path, modes=("full-power",))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        mode = ("modes", "full-power")
        number = "must be a finite number, got"
        for k, (keys, value, message) in enumerate([
                (mode + ("analytic_avg_prr",), None,
                 "mode 'full-power' has no 'analytic_avg_prr' field"),
                ((), [report], "is not a JSON object"),
                (mode + ("analytic_avg_prr",), "0.5",
                 f"mode 'full-power' analytic_avg_prr {number} '0.5'"),
                (mode + ("metrics", "avg_prr"), math.nan,
                 f"mode 'full-power' metrics avg_prr {number} nan"),
                (mode + ("metrics", "relative_energy"), math.inf,
                 f"mode 'full-power' metrics relative_energy {number} inf"),
                (mode + ("metrics", "avg_prr"), True,
                 f"mode 'full-power' metrics avg_prr {number} True"),
                (mode + ("metrics",), [], "mode 'full-power' metrics is not a JSON object"),
                (mode, [0.5], "mode 'full-power' is not a JSON object"),
                (("modes",), [], "modes is not a JSON object")]):
            data = copy.deepcopy(report)
            if keys:
                *parents, last = keys
                section = functools.reduce(dict.__getitem__, parents, data)
                if value is None:
                    del section[last]
                else:
                    section[last] = value
            else:
                data = value
            path = tmp_path / f"report-{k}.json"
            path.write_text(json.dumps(data))
            assert cli.main(["compare", "--report", str(path),
                             "--modes", "full-power,full-power"]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: report {path} {message}\n"
            assert captured.out == ""

    def test_compare_checks_schema_version(self, tmp_path, capsys):
        # a report without the version, or of another one, exits 2 naming it
        config = write_config(tmp_path, modes=("full-power",))
        out = str(tmp_path / "out")
        assert cli.main(["run", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        for k, (value, message) in enumerate([
                (None, "must be a whole number, got None"),
                (1, "is 1; this wsnpower reads 2")]):
            data = copy.deepcopy(report)
            if value is None:
                del data["schema_version"]
            else:
                data["schema_version"] = value
            path = tmp_path / f"report-{k}.json"
            path.write_text(json.dumps(data))
            assert cli.main(["compare", "--report", str(path),
                             "--modes", "full-power,full-power"]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: report {path} schema_version {message}\n"
            assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--nodes", "1"], "topology m must be an integer >= 2, got 1"),
        (["--area", "-1", "5"], "topology area must be two finite positive sides"),
        (["--area", "nan", "5"], "topology area must be a finite number, got nan"),
        (["--seed", "-1"], "topology seed must be a non-negative integer, got -1"),
    ], ids=["one-node", "negative-side", "nan-side", "negative-seed"])
    def test_generate_topology_checks_its_flags(self, tmp_path, capsys, argv, message):
        # the generated-layout rule of a config's topology spec: each ended
        # in a traceback before
        out = tmp_path / "layout.json"
        assert cli.main(["generate-topology", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_compare_rejects_different_topologies(self, tmp_path, capsys):
        config_a = write_config(tmp_path, modes=("full-power",))
        out_a = str(tmp_path / "a")
        assert cli.main(["run", "--config", config_a, "--out", out_a]) == 0

        path_b = tmp_path / "config_b.json"
        with open(path_b, "w") as fh:
            json.dump(desk_config(
                topology_spec={"m": DESK_M, "area": DESK_AREA, "seed": 5},
                modes=("full-power",)).to_json_dict(), fh)
        out_b = str(tmp_path / "b")
        assert cli.main(["run", "--config", str(path_b), "--out", out_b]) == 0
        capsys.readouterr()

        code = cli.main(["compare",
                         "--report", os.path.join(out_a, "report.json"),
                         "--report-b", os.path.join(out_b, "report.json"),
                         "--modes", "full-power,full-power"])
        assert code == 2
        assert "different topologies" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["validate", "--config", "/nonexistent/config.json"]) == 2

    def test_traffic_payload_key_rejected(self, tmp_path, capsys):
        # game.f_bytes is the one payload size; a config that still carries
        # traffic.payload_f_bytes fails, and the message names the key.
        data = desk_config().to_json_dict()
        data["traffic"]["payload_f_bytes"] = 25
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "payload_f_bytes" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "payload_f_bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("log_base", 10.0), ("prescan_samples", 64),
                                            ("update_order", list(range(DESK_M))),
                                            ("br_tol", 1e-6), ("convergence_tol", 1e-4)],
                             ids=["log_base", "prescan_samples", "update_order", "br_tol",
                                  "convergence_tol"])
    def test_removed_game_keys_rejected(self, tmp_path, capsys, key, value):
        # The benefit is always log10, the pre-scan always takes 64 samples,
        # sweeps visit the nodes in index order and the solver's tolerances
        # are fixed; a config that still carries any of these knobs fails,
        # naming it.
        data = desk_config().to_json_dict()
        assert key not in data["game"]
        data["game"][key] = value
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert key in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("m", 2.5), ("m", 1), ("m", -3), ("m", True), ("m", "abc"),
        ("area", [100]), ("area", [100, 100, 5]), ("area", [0, 100]),
        ("seed", 1.5), ("seed", "x"), ("seed", -1),
    ], ids=["m-fraction", "m-one", "m-negative", "m-bool", "m-string", "area-one-side",
            "area-three-sides", "area-zero-side", "seed-fraction", "seed-string",
            "seed-negative"])
    def test_generated_topology_spec_checked(self, tmp_path, capsys, field, value):
        # validate rejects every generated spec that run would reject,
        # truncate or crash on, and the message names the field.
        data = desk_config().to_json_dict()
        data["topology"][field] = value
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert f"topology {field}" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"topology {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_topology_file_with_id_gap_fails_at_run(self, tmp_path, capsys):
        # validate loads the topology file too, so both it and run exit 2
        # with the file's error.
        layout = tmp_path / "layout.json"
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        with open(layout) as fh:
            nodes = json.load(fh)
        nodes["nodes"][-1]["id"] = DESK_M
        with open(layout, "w") as fh:
            json.dump(nodes, fh)
        path = write_config(tmp_path, topology_spec={"file": str(layout)})
        assert cli.main(["validate", "--config", path]) == 2
        assert "node ids must be 0..M-1 without gaps" in capsys.readouterr().err
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        assert "node ids must be 0..M-1 without gaps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("x, message", [
        pytest.param(math.nan, "topology node at index 2 x must be a finite number, got nan",
                     id="nan-node-x-not-finite"),
        pytest.param(math.inf, "topology node at index 2 x must be a finite number, got inf",
                     id="inf-node-x-not-finite"),
        (DESK_AREA[0] + 1.0, "positions must lie inside the area"),
    ])
    def test_bad_layout_fails_at_validate(self, tmp_path, capsys, x, message):
        # A layout with a node off the area, or not on the plane at all,
        # exits 2 at validate as at run, with one stderr line; a coordinate
        # that is not a finite number is named.
        layout = tmp_path / "layout.json"
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        with open(layout) as fh:
            nodes = json.load(fh)
        nodes["nodes"][2]["x"] = x
        with open(layout, "w") as fh:
            json.dump(nodes, fh)
        path = write_config(tmp_path, topology_spec={"file": str(layout)})
        for argv in (["validate", "--config", path],
                     ["run", "--config", path, "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_layout_file_exits_2(self, tmp_path, capsys, kind):
        # a layout file that cannot be read is bad input, as a config file
        # that cannot be read is: both commands exit 2 naming the file
        # (before, they exited 1)
        layout = tmp_path / "layout.json"
        if kind == "directory":
            layout.mkdir()
        path = write_config(tmp_path, topology_spec={"file": str(layout)})
        for argv in (["validate", "--config", path],
                     ["run", "--config", path, "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ValueError: [Errno ") and err.count("\n") == 1
            assert repr(str(layout)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["x", "y", "id"])
    def test_topology_file_node_missing_field_fails_at_run(self, tmp_path, capsys, key):
        # run exits 2 with one line naming the node and its missing field,
        # found while the config is validated.
        layout = tmp_path / "layout.json"
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        with open(layout) as fh:
            nodes = json.load(fh)
        del nodes["nodes"][3][key]
        with open(layout, "w") as fh:
            json.dump(nodes, fh)
        path = write_config(tmp_path, topology_spec={"file": str(layout)})
        out = tmp_path / "out"
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
        node = "at index 3" if key == "id" else "id 3"
        assert capsys.readouterr().err == (
            f"error: ValueError: topology node {node} has no '{key}' field\n")
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("nodes", 1, "id"), 1.7, "topology node at index 1 id must be a whole number, got 1.7"),
        (("nodes", 1, "x"), "1.5", "topology node at index 1 x must be a finite number, got '1.5'"),
        (("nodes", 1, "y"), True, "topology node at index 1 y must be a finite number, got True"),
        (("area", 0), str(DESK_AREA[0]), "topology area must be a finite number, got '4.0'"),
        (("seed",), 2.9, "topology seed must be a whole number, got 2.9"),
        (("seeds",), 3, "topology layout has unknown key 'seeds'"),
        (("nodes", 1, "z"), 0.0, "topology node at index 1 has unknown key 'z'"),
        (("nodes",), {"0": {"id": 0, "x": 1.0, "y": 1.0}},
         "topology nodes must be a list of objects"),
    ], ids=["fractional-id", "string-x", "bool-y", "string-area", "fractional-seed",
            "misspelled-seed", "node-z", "nodes-object"])
    def test_layout_file_numbers_checked(self, tmp_path, capsys, path, value, message):
        # a layout file's numbers pass the config's number rule: before, a
        # fractional id or seed was truncated, and a numeric string or a
        # bool was read as its value.  It holds only the keys save_topology
        # writes: before, a misspelled seed was ignored (seed 0 when the
        # file had no other), a node's z was dropped, and nodes given as an
        # object failed with a TypeError that named no field
        layout = tmp_path / "layout.json"
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        with open(layout) as fh:
            nodes = json.load(fh)
        _put(nodes, path, value)
        with open(layout, "w") as fh:
            json.dump(nodes, fh)
        config = write_config(tmp_path, topology_spec={"file": str(layout)})
        for argv in (["validate", "--config", config],
                     ["run", "--config", config, "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_levels_key_rejected(self, tmp_path, capsys):
        data = desk_config().to_json_dict()
        data["levels"]["step_db"] = 1.0
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "step_db" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, message", [
        (("noise",), {"n0_mw": 1e-9}, "config has unknown key 'noise'"),
        (("topology", "nodes"), 40, "topology spec has unknown key 'nodes'"),
        (("topology", "file"), "layout.json", "topology spec has unknown key 'm'"),
        (("registers", "table"), "cc2420", "registers has unknown key 'table'"),
        (("registers", "registers", 2, "name"), "-10 dBm",
         "registers row 2 has unknown key 'name'"),
    ], ids=["top-level-noise", "topology-nodes", "topology-file-and-m", "registers-key",
            "register-row-key"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, path, value, message):
        # a key that no field reads exits 2 naming it; before, it was
        # ignored and the field's default used
        data = desk_config().to_json_dict()
        _put(data, path, value)
        config = tmp_path / "config.json"
        with open(config, "w") as fh:
            json.dump(data, fh)
        for argv in (["validate", "--config", str(config)],
                     ["run", "--config", str(config), "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["levels", "game", "traffic"])
    def test_empty_section_gives_defaults(self, key):
        # An empty object stands for the section's defaults.
        data = desk_config().to_json_dict()
        data[key] = {}
        config, message = experiment.validate_config(data)
        assert message == "ok"
        name = {"game": "game_params"}.get(key, key)
        assert getattr(config, name) == getattr(experiment.ScenarioConfig(), name)


@pytest.mark.parametrize("section, key, value, message", [
    ("game", "epsilon_link", 1.0, "epsilon_link must lie in (0, 1)"),
    ("registers", "registers", [{"dbm": -20.0, "id": 1}, {"dbm": 0.0, "id": 2}],
     "does not cover the transmit range [-24.5, 0.0] dB"),
    ("levels", "levels_dbm", [-25.0], "no level is representable"),
], ids=["epsilon-link-one", "registers-short", "levels-unusable"])
def test_config_that_run_rejects_fails_at_validate(tmp_path, capsys, section, key, value,
                                                  message):
    data = desk_config().to_json_dict()
    data[section][key] = value
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _put(data, path, value):
    """Set the entry of nested JSON ``data`` that ``path`` (keys and indices) names."""
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.mark.parametrize("path, value, message", [
    (("game", "f_bytes"), True, "game f_bytes must be a whole number, got True"),
    (("game", "n_iter_max"), True, "game n_iter_max must be a whole number, got True"),
    (("game", "degree_target"), True, "game degree_target must be a whole number, got True"),
    (("game", "ncr_scale"), True, "game ncr_scale must be a finite number, got True"),
    (("traffic", "message_period_s"), True,
     "traffic message_period_s must be a finite number, got True"),
    (("noise_floor", "n0_mw"), True, "noise floor n0_mw must be a finite number, got True"),
    (("path_loss", "exponent"), True, "path loss exponent must be a finite number, got True"),
    (("levels", "levels_dbm"), ["-24", "0"],
     "levels levels_dbm must be a finite number, got '-24'"),
    (("registers", "registers", 1, "dbm"), "-15",
     "registers dbm must be a finite number, got '-15'"),
    (("registers", "registers", 0, "id"), 2.7, "registers id must be a whole number, got 2.7"),
    (("game", "epsilon_link"), "0.5", "game epsilon_link must be a finite number, got '0.5'"),
    (("topology",), {"file": 0}, "topology file must be a path string, got 0"),
    (("topology",), {"file": True}, "topology file must be a path string, got True"),
], ids=["f_bytes-true", "n_iter_max-true", "degree_target-true", "ncr_scale-true",
        "message_period-true", "n0-true", "exponent-true", "levels-strings", "register-dbm-string",
        "register-id-fraction", "epsilon-string", "file-zero", "file-true"])
def test_not_a_number_exits_2_naming_the_field(tmp_path, capsys, path, value, message):
    # Before, a bool passed as 0 or 1, a numeric string as its value, a
    # fractional register id as its integer part, a topology file 0 read the
    # layout from stdin, and a string epsilon_link raised a TypeError that
    # named no field.
    data = desk_config().to_json_dict()
    _put(data, path, value)
    config = tmp_path / "config.json"
    with open(config, "w") as fh:
        json.dump(data, fh)
    for argv in (["validate", "--config", str(config)],
                 ["run", "--config", str(config), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, literal", [
    ("path_loss", "shadowing_sigma_db", math.inf, "Infinity"),
    ("game", "ncr_scale", math.nan, "NaN"),
    ("game", "n_iter_max", -math.inf, "-Infinity"),
])
def test_non_finite_literal_exits_2(tmp_path, capsys, section, key, value, literal):
    # Python's json writes and reads these literals; a config may not hold them.
    data = desk_config().to_json_dict()
    data[section][key] = value
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert f": {literal}" in path.read_text()
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"non-finite number {literal};" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("game_keys, field", [
    pytest.param({"degree_target": 2.5}, "game degree_target must be a whole number",
                 id="fractional-target"),
    ({"degree_rule": "smallworld", "smallworld_delta": 1e308}, "smallworld delta"),
])
def test_degree_rule_that_cannot_run_exits_2_at_validate(tmp_path, capsys, game_keys, field):
    # a fractional target, and a finite delta whose requirement overflows at
    # the node count: validate exits 2 and names it, as run does
    data = desk_config().to_json_dict()
    data["game"].update(game_keys)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("traffic", "max_retries", 1.5), ("traffic", "messages_per_node", True),
    ("traffic", "messages_per_node", 2.5), ("traffic", "seed", 1.5), ("traffic", "seed", -1),
    ("path_loss", "seed", 1.5),
])
def test_traffic_and_seed_that_cannot_run_exit_2_at_validate(tmp_path, capsys, section, key,
                                                             value):
    # each passed validate before; run then crashed with a TypeError (exit
    # 1), exited 2, or drew a fractional path-loss seed as its integer part
    data = desk_config().to_json_dict()
    data[section][key] = value
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    for argv in (["validate", "--config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{section.replace('_', ' ')} {key} must be a whole number" in err
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("max_retries", 2.0), ("messages_per_node", 5.0),
                                        ("seed", 3.0)])
def test_whole_float_traffic_values_run(tmp_path, key, value):
    data = desk_config().to_json_dict()
    data["traffic"][key] = value
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_unusable_levels_pass_without_a_discretized_mode():
    config, message = experiment.validate_config(desk_config(
        levels=DiscreteLevelSet((-25.0,)), modes=("continuous", "full-power")).to_json_dict())
    assert message == "ok"


@st.composite
def _config_dicts(draw):
    """(config dict, planted): small-M config dicts drawn as the round-trip
    test draws its configs, but not all valid: epsilon_link up to 1, any
    level set, register maps that need not span the transmit range,
    fractional or negative traffic values and seeds, non-finite numbers, and
    (``planted``) values that are not numbers of their field's kind."""
    seeds = st.integers(0, 2**31 - 1)
    dbms = st.lists(st.integers(-25, 0), min_size=1, max_size=26, unique=True)
    registers = set(draw(dbms))
    if draw(st.booleans()):
        registers |= {-25, 0}
    registers = sorted(registers)
    id_start = draw(st.integers(0, 10))
    data = {
        "topology": {"m": draw(st.integers(2, 12)),
                     "area": [draw(st.floats(1.0, 1e3)), draw(st.floats(1.0, 1e3))],
                     "seed": draw(seeds)},
        "path_loss": {"exponent": draw(st.floats(1.5, 5.0)),
                      "shadowing_sigma_db": draw(st.floats(0.0, 8.0)), "seed": draw(seeds)},
        "noise_floor": {"n0_mw": draw(st.floats(1e-14, 1e-6))},
        "game": {"epsilon_link": draw(st.floats(1e-6, 1.0)),
                 "degree_target": draw(st.integers(0, 8)),
                 "degree_rule": draw(st.sampled_from(game.DEGREE_RULES)),
                 "n_iter_max": draw(st.integers(1, 100)),
                 "ncr_denominator": draw(st.sampled_from(game.NCR_DENOMINATORS)),
                 "interference": draw(st.sampled_from(channel.INTERFERENCE_MODES))},
        "levels": {"levels_dbm": [float(v) for v in sorted(draw(dbms))]},
        "registers": {"registers": [{"dbm": float(v), "id": id_start + k}
                                    for k, v in enumerate(registers)]},
        "traffic": {"messages_per_node": draw(st.integers(1, 500)),
                    "max_retries": draw(st.integers(0, 30)), "seed": draw(seeds)},
        "modes": draw(st.lists(st.sampled_from(experiment.MODES), min_size=1, unique=True)),
        "receiver_policy": draw(st.sampled_from(experiment.RECEIVER_POLICIES)),
    }
    # one draw in five puts a fractional degree target in, and one in five
    # a small-world delta whose degree requirement overflows
    if draw(st.integers(0, 4)) == 0:
        data["game"]["degree_target"] = draw(st.integers(0, 7)) + 0.5
    if draw(st.integers(0, 4)) == 0:
        data["game"].update(degree_rule="smallworld", smallworld_delta=1e308)
    # one draw in five puts a traffic value or a seed in that is not a whole
    # number in range, or one that is a whole float
    if draw(st.integers(0, 4)) == 0:
        section, key, value = draw(st.sampled_from([
            ("traffic", "max_retries", 1.5), ("traffic", "max_retries", 2.0),
            ("traffic", "messages_per_node", 5.0), ("traffic", "messages_per_node", True),
            ("traffic", "messages_per_node", 2.5), ("traffic", "seed", 1.5),
            ("traffic", "seed", 3.0), ("traffic", "seed", -1), ("path_loss", "seed", 1.5)]))
        data[section][key] = value
    # one draw in five puts a NaN or an infinity in one number, which json
    # writes as a bare literal
    if draw(st.integers(0, 4)) == 0:
        section, key = draw(st.sampled_from([
            ("path_loss", "shadowing_sigma_db"), ("noise_floor", "n0_mw"),
            ("game", "ncr_scale"), ("game", "cost_denominator"), ("game", "n_iter_max")]))
        data[section][key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    # one draw in five puts in a value that is not a number of its field's
    # kind, which validate must reject: a bool or a numeric string in a
    # number field of any section, a fraction in a whole-number field or a
    # register id, strings in levels_dbm, or a topology file that is not a
    # path string
    planted = draw(st.integers(0, 4)) == 0
    if planted:
        whole = [("topology", "m"), ("topology", "seed"), ("path_loss", "seed"),
                 ("game", "f_bytes"), ("game", "degree_target"), ("game", "n_iter_max"),
                 ("traffic", "messages_per_node"), ("traffic", "max_retries"),
                 ("traffic", "seed"), ("registers", "registers", 0, "id")]
        real = [("topology", "area", 0), ("path_loss", "exponent"),
                ("path_loss", "reference_gain_db"), ("path_loss", "reference_distance_d0"),
                ("path_loss", "shadowing_sigma_db"), ("noise_floor", "n0_mw"),
                ("game", "ncr_scale"), ("game", "cost_denominator"), ("game", "epsilon_link"),
                ("game", "smallworld_delta"), ("traffic", "message_period_s"),
                ("levels", "levels_dbm", 0), ("registers", "registers", 0, "dbm")]
        kind = draw(st.sampled_from(["bool", "string", "fraction", "levels", "file"]))
        if kind == "bool":
            path, value = draw(st.sampled_from(whole + real)), draw(st.booleans())
        elif kind == "string":
            path, value = draw(st.sampled_from(whole + real)), draw(st.sampled_from(["1", "0.5"]))
        elif kind == "fraction":
            path, value = draw(st.sampled_from(whole)), draw(st.integers(2, 9)) + 0.5
        elif kind == "levels":
            path, value = ("levels", "levels_dbm"), [str(v) for v in data["levels"]["levels_dbm"]]
        else:
            path, value = ("topology", "file"), draw(st.sampled_from(
                [0, 1, True, 2.5, None, ["layout.json"], {}]))
        _put(data, path, value)
    return data, planted


class _RunTimedOut(Exception):
    pass


def _cli(argv, seconds=None):
    """(exit code, stderr) of one in-process command, within ``seconds`` of
    wall time when given."""
    def expire(signum, frame):
        raise _RunTimedOut(f"{argv[0]} took more than {seconds} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        if seconds:
            signal.setitimer(signal.ITIMER_REAL, seconds)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(deadline=None, max_examples=60)
@given(_config_dicts())
def test_validate_accepts_exactly_what_runs(case):
    # A config that validate accepts runs to an answer; one that it rejects
    # makes both commands exit 2 with one line on stderr, as every config
    # with a planted non-number does.  The draws run one after another, in
    # this process.
    data, planted = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code, err = _cli(["validate", "--config", path])
        run_code, run_err = _cli(["run", "--config", path, "--out", os.path.join(tmp, "out")],
                                 seconds=30.0)
    assert not (planted and code == 0), "validate accepted a value that is not a number"
    if code == 0:
        assert run_code == 0, run_err
    else:
        assert code == run_code == 2
        assert err.count("\n") == run_err.count("\n") == 1 and err.startswith("error: ")

