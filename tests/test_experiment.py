import csv
import filecmp
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, cli, experiment, game, packetsim, topology
from wsnpower.quantize import DiscreteLevelSet, RegisterMap, discretize_profile
from conftest import DESK_AREA, DESK_M


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
        # Every field survives a trip through JSON text, update_order included.
        draw = data.draw
        m = draw(st.integers(2, 12))
        seeds = st.integers(0, 2**31 - 1)
        levels = DiscreteLevelSet(tuple(float(v) for v in sorted(draw(
            st.lists(st.integers(-25, 0), min_size=1, max_size=26, unique=True)))))
        cfg = experiment.ScenarioConfig(
            topology_spec={"m": m, "area": (draw(st.floats(1.0, 1e3)), draw(st.floats(1.0, 1e3))),
                           "seed": draw(seeds)},
            path_loss=channel.PathLossModel(exponent=draw(st.floats(1.5, 5.0)),
                                            shadowing_sigma_db=draw(st.floats(0.0, 8.0)),
                                            seed=draw(seeds)),
            noise=channel.NoiseFloor(draw(st.floats(1e-14, 1e-6))),
            game_params=game.GameParams(
                epsilon_link=draw(st.floats(1e-6, 1.0)),
                degree_target=draw(st.integers(0, 8)),
                degree_rule=draw(st.sampled_from(game.DEGREE_RULES)),
                convergence_tol=draw(st.floats(1e-9, 1e-2)),
                ncr_denominator=draw(st.sampled_from(game.NCR_DENOMINATORS)),
                interference=draw(st.sampled_from(channel.INTERFERENCE_MODES)),
                update_order=draw(st.none() | st.permutations(range(m))),
            ),
            levels=levels,
            registers=RegisterMap.linear(levels, id_start=draw(st.integers(0, 10))),
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
        ok, message = experiment.validate_config(desk_config().to_json_dict())
        assert ok and message == "ok"
        ok, message = experiment.validate_config({"modes": ["continuous", "continuous"]})
        assert not ok and "duplicate" in message

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

    def test_connectivity_checks_agree(self, desk_report):
        for sec in desk_report.sections.values():
            assert sec.connected_bfs == sec.connected_spectral

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
        assert set(data) == {"config", "topology_digest", "full_power_connected",
                             "modes", "deltas"}
        assert set(data["modes"]) == set(experiment.MODES)
        section = data["modes"]["continuous"]
        assert {"powers", "converged", "sweeps_used", "potential_trace",
                "analytic_avg_prr", "metrics", "connected_bfs",
                "connected_spectral"} <= set(section)
        assert len(section["powers"]) == DESK_M

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

        with open(bad, "w") as fh:
            fh.write("{not json")
        assert cli.main(["validate", "--config", str(bad)]) == 2

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
        config = write_config(tmp_path)
        code = cli.main(["run", "--config", config, "--out", str(tmp_path / "x"),
                         "--modes", "sideways"])
        assert code == 2
        assert "error" in capsys.readouterr().err

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
        assert "payload_f_bytes" in capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "payload_f_bytes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", [
        [0, 0, *range(2, DESK_M)],        # duplicate: node 1 would never move
        list(range(DESK_M - 1)),          # short: the last node would never move
        [*range(DESK_M - 1), 99],         # an index past the last node
    ], ids=["duplicate", "short", "out-of-range"])
    def test_update_order_must_be_a_permutation(self, tmp_path, capsys, order):
        data = desk_config().to_json_dict()
        data["game"]["update_order"] = order
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "update_order must be a permutation" in capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "update_order must be a permutation" in capsys.readouterr().err
        assert not out.exists()

    def test_update_order_checked_against_topology_file(self, tmp_path, capsys):
        layout = tmp_path / "layout.json"
        topology.save_topology(topology.random_topology(DESK_M, area=DESK_AREA, seed=0), layout)
        data = desk_config(topology_spec={"file": str(layout)}).to_json_dict()
        data["game"]["update_order"] = list(range(DESK_M - 1))
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "update_order must be a permutation" in capsys.readouterr().err
