import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, game, packetsim
from conftest import N0


def coin_gain(target_prr, s_value, f_bytes=25):
    """Gain giving exactly the target interference-free PRR at power s_value."""
    snr = channel.sinr_for_prr(target_prr, f_bytes)
    return snr * N0 / channel.strategy_to_mw(s_value)


def prr_of(prof, gains, interference="none"):
    """The analytic PRR matrix that the packet stage takes (25-byte payload)."""
    return channel.prr_matrix(prof.mw, gains, N0, 25, interference)


def two_node_gains(target_prr, s_value):
    g = coin_gain(target_prr, s_value)
    return np.array([[0.0, g], [g, 0.0]])


class TestTrafficConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            packetsim.TrafficConfig(message_period_s=0.0)
        with pytest.raises(ValueError):
            packetsim.TrafficConfig(messages_per_node=0)
        with pytest.raises(ValueError):
            packetsim.TrafficConfig(max_retries=-1)

    @pytest.mark.parametrize("name, value", [
        ("max_retries", 1.5), ("max_retries", True), ("messages_per_node", 2.5),
        ("messages_per_node", True), ("messages_per_node", "5"), ("seed", 1.5),
        ("seed", -1), ("seed", None),
    ])
    def test_rejects_what_is_not_a_whole_number_in_range(self, name, value):
        with pytest.raises(ValueError, match=f"traffic {name} must be a whole number"):
            packetsim.TrafficConfig(**{name: value})

    def test_whole_floats_are_stored_as_ints(self):
        cfg = packetsim.TrafficConfig(messages_per_node=5.0, max_retries=np.float64(2.0),
                                      seed=3.0)
        assert (cfg.messages_per_node, cfg.max_retries, cfg.seed) == (5, 2, 3)
        assert all(type(v) is int for v in (cfg.messages_per_node, cfg.max_retries, cfg.seed))

    def test_testbed_preset(self):
        cfg = packetsim.TrafficConfig.testbed()
        assert cfg.max_retries == 3
        assert cfg.message_period_s == 2.0
        assert packetsim.TrafficConfig.testbed(max_retries=0).max_retries == 0


class TestReceiverSelection:
    def test_best_prr_picks_strongest_neighbor(self):
        gains = np.zeros((3, 3))
        gains[0, 1] = gains[1, 0] = 1.0
        gains[1, 2] = gains[2, 1] = 1e-9
        prof = game.StrategyProfile.constant(3, 12.0)
        recv = packetsim.best_prr_receivers(prr_of(prof, gains), 0.01)
        assert recv[0] == 1 and recv[1] == 0
        assert recv[2] == -1  # node 2's only gain is too weak for a 1% link

    def test_round_robin_cycles_neighbors(self):
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        links = packetsim.round_robin_receivers(prr_of(prof, gains), 0.01, n_messages=5)
        assert links.shape == (3, 5)
        assert list(links[0]) == [1, 2, 1, 2, 1]
        assert list(links[1]) == [0, 2, 0, 2, 0]

    def test_round_robin_isolated_node(self):
        gains = np.zeros((2, 2))
        prof = game.StrategyProfile.full_power(2)
        links = packetsim.round_robin_receivers(prr_of(prof, gains), 0.01, n_messages=4)
        assert np.all(links == -1)


class TestSimulate:
    def test_saturated_link_first_attempt_delivery(self):
        gains = np.ones((2, 2)) - np.eye(2)
        prof = game.StrategyProfile.full_power(2)
        traffic = packetsim.TrafficConfig(messages_per_node=100, max_retries=5, seed=1)
        links = packetsim.best_prr_receivers(prr_of(prof, gains), 0.01)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, links)
        assert len(log.records) == 200
        assert all(rec.delivered and rec.attempts_used == 1 for rec in log.records)
        assert log.empty_senders == ()
        metrics = packetsim.build_metrics(log)
        assert metrics.avg_prr == 1.0
        assert metrics.delivery_ratio == 1.0
        assert metrics.link_class_fractions == (1.0, 0.0, 0.0)

    def test_isolated_sender_exhausts_budget(self):
        gains = np.zeros((3, 3))
        gains[0, 1] = gains[1, 0] = 1.0
        prof = game.StrategyProfile.full_power(3)
        traffic = packetsim.TrafficConfig(messages_per_node=10, max_retries=4, seed=2)
        links = packetsim.best_prr_receivers(prr_of(prof, gains), 0.01)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, links)
        assert log.empty_senders == (2,)
        node2 = [rec for rec in log.records if rec.sender == 2]
        assert len(node2) == 10
        for rec in node2:
            assert rec.receiver == -1
            assert not rec.delivered
            assert rec.attempts_used == traffic.max_retries + 1
        metrics = packetsim.build_metrics(log)
        assert metrics.empty_neighborhood_senders == (2,)
        # isolated traffic contributes attempts to the energy mean but no links
        assert set(metrics.per_link_prr) == {(0, 1), (1, 0)}

    def test_fair_coin_link_rate(self):
        prof = game.StrategyProfile.constant(2, 12.0)
        gains = two_node_gains(0.5, 12.0)
        traffic = packetsim.TrafficConfig(messages_per_node=10000, max_retries=0, seed=3)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0]))
        rates = packetsim.empirical_prr(log)
        # binomial 3 sigma at n=10000, p=0.5 is 0.015
        assert rates["per_link_prr"][(0, 1)] == pytest.approx(0.5, abs=0.02)
        assert rates["per_link_prr"][(1, 0)] == pytest.approx(0.5, abs=0.02)
        # with no retries, delivery ratio equals the first-attempt rate
        assert packetsim.delivery_ratio(log) == pytest.approx(rates["avg_prr"], abs=1e-12)

    def test_retries_raise_delivery_above_first_attempt_rate(self):
        prof = game.StrategyProfile.constant(2, 12.0)
        gains = two_node_gains(0.5, 12.0)
        traffic = packetsim.TrafficConfig(messages_per_node=2000, max_retries=3, seed=4)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0]))
        rates = packetsim.empirical_prr(log)
        # P(delivered within 4 attempts) = 1 - 0.5^4
        assert packetsim.delivery_ratio(log) == pytest.approx(1.0 - 0.5 ** 4, abs=0.03)
        assert packetsim.delivery_ratio(log) > rates["avg_prr"] + 0.3

    def test_send_times_follow_period(self):
        gains = np.ones((2, 2)) - np.eye(2)
        prof = game.StrategyProfile.full_power(2)
        traffic = packetsim.TrafficConfig(message_period_s=2.5, messages_per_node=4, seed=5)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0]))
        times = [rec.send_time_s for rec in log.records if rec.sender == 0]
        assert times == [0.0, 2.5, 5.0, 7.5]

    def test_per_message_links_matrix(self):
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        traffic = packetsim.TrafficConfig(messages_per_node=4, seed=6)
        links = packetsim.round_robin_receivers(prr_of(prof, gains), 0.01, n_messages=4)
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, links)
        recv0 = [rec.receiver for rec in log.records if rec.sender == 0]
        assert recv0 == [1, 2, 1, 2]

    def test_bad_links_shape_rejected(self):
        gains = np.ones((2, 2)) - np.eye(2)
        prof = game.StrategyProfile.full_power(2)
        traffic = packetsim.TrafficConfig(messages_per_node=4, seed=0)
        with pytest.raises(ValueError):
            packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0, 0]))

    @pytest.mark.parametrize("links, message", [
        (np.array([1, 5, 0]), r"receiver 5 outside \[-1, 3\)"),
        (np.array([1, -3, 0]), r"receiver -3 outside \[-1, 3\)"),
        (np.array([[1, 2], [0, 2], [0, 3]]), r"receiver 3 outside \[-1, 3\)"),
    ], ids=["above", "below", "per-message"])
    def test_receiver_outside_the_nodes_rejected(self, links, message):
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        traffic = packetsim.TrafficConfig(messages_per_node=2, seed=0)
        with pytest.raises(ValueError, match=message):
            packetsim.simulate(prof, prr_of(prof, gains), traffic, links)

    @pytest.mark.parametrize("links", [np.array([1, 1, 0]), np.array([[1, 2], [0, 2], [2, 0]])],
                             ids=["per-sender", "per-message"])
    def test_sender_as_its_own_receiver_rejected(self, links):
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        traffic = packetsim.TrafficConfig(messages_per_node=2, seed=0)
        with pytest.raises(ValueError, match="sender 1 is its own receiver"
                           if links.ndim == 1 else "sender 2 is its own receiver"):
            packetsim.simulate(prof, prr_of(prof, gains), traffic, links)

    @pytest.mark.parametrize("value", [1.7, math.nan, math.inf])
    def test_fractional_receiver_rejected(self, value):
        gains = np.ones((3, 3)) - np.eye(3)
        prof = game.StrategyProfile.full_power(3)
        traffic = packetsim.TrafficConfig(messages_per_node=2, seed=0)
        with pytest.raises(ValueError, match=f"receiver {value!r} is not a whole node index"):
            packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([value, 0.0, 1.0]))
        # a whole float is the node index it names
        log = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([2.0, 0.0, 1.0]))
        assert log.receiver.tolist() == [2, 2, 0, 0, 1, 1]

    def test_profile_of_another_size_rejected(self):
        gains = np.ones((3, 3)) - np.eye(3)
        traffic = packetsim.TrafficConfig(messages_per_node=4, seed=0)
        mat = prr_of(game.StrategyProfile.full_power(3), gains)
        with pytest.raises(ValueError, match="profile has 2 nodes, the PRR matrix 3"):
            packetsim.simulate(game.StrategyProfile.full_power(2), mat, traffic,
                               np.array([1, 0, 0]))

    def test_seed_determinism(self):
        prof = game.StrategyProfile.constant(2, 12.0)
        gains = two_node_gains(0.5, 12.0)
        traffic = packetsim.TrafficConfig(messages_per_node=200, max_retries=2, seed=7)
        log_a = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0]))
        log_b = packetsim.simulate(prof, prr_of(prof, gains), traffic, np.array([1, 0]))
        assert log_a.records == log_b.records
        other = packetsim.TrafficConfig(messages_per_node=200, max_retries=2, seed=8)
        log_c = packetsim.simulate(prof, prr_of(prof, gains), other, np.array([1, 0]))
        assert log_a.records != log_c.records


def synth_log(rows, max_retries=5, empty=()):
    """A log from (sender, receiver, tx_dbm, attempts, delivered) rows, all sent at 0 s."""
    columns = list(zip(*rows)) or [()] * 5
    sender, receiver, dbm, attempts, delivered = (
        np.array(col, dtype=dtype) for col, dtype in zip(columns, (int, int, float, int, bool)))
    return packetsim.TransmissionLog(sender=sender, receiver=receiver, tx_dbm=dbm,
                                     attempts_used=attempts, delivered=delivered,
                                     send_time_s=np.zeros(len(rows)),
                                     max_retries=max_retries, empty_senders=empty)


class TestMetrics:
    def test_log_attempt_validation(self):
        with pytest.raises(ValueError):
            synth_log([(0, 1, 0.0, 0, False)])
        with pytest.raises(ValueError):
            synth_log([(0, 1, 0.0, 7, True)], max_retries=5)

    def test_empirical_prr_counts_first_attempts_only(self):
        log = synth_log([
            (0, 1, 0.0, 1, True),
            (0, 1, 0.0, 1, True),
            (0, 1, 0.0, 2, True),   # retry success: not a first-attempt hit
            (0, 1, 0.0, 1, True),
            (1, 0, 0.0, 1, True),
        ])
        rates = packetsim.empirical_prr(log)
        assert rates["per_link_prr"][(0, 1)] == 0.75
        assert rates["per_link_prr"][(1, 0)] == 1.0
        assert rates["avg_prr"] == pytest.approx((0.75 + 1.0) / 2.0, abs=1e-15)

    def test_empty_log_raises(self):
        log = synth_log([], max_retries=0)
        with pytest.raises(ValueError):
            packetsim.empirical_prr(log)
        with pytest.raises(ValueError):
            packetsim.relative_energy(log)
        with pytest.raises(ValueError):
            packetsim.delivery_ratio(log)

    def test_relative_energy_full_power_is_exactly_one(self):
        log = synth_log([(0, 1, 0.0, a, True) for a in (1, 3, 2, 5)])
        assert packetsim.relative_energy(log) == 1.0

    def test_relative_energy_scales_linearly(self):
        log = synth_log([(0, 1, -10.0, a, True) for a in (1, 2, 4)])
        assert packetsim.relative_energy(log) == pytest.approx(0.1, rel=1e-12)

    def test_relative_energy_mixed_oracle(self):
        rows = [(0, 1, -3.0, 2, True), (1, 0, -12.0, 5, False), (2, 1, 0.0, 1, True)]
        log = synth_log(rows)
        total = math.fsum(a * 10.0 ** (d / 10.0) for _, _, d, a, _ in rows)
        attempts = sum(a for _, _, _, a, _ in rows)
        assert packetsim.relative_energy(log) == pytest.approx(total / attempts, rel=1e-15)

    def test_relative_energy_is_the_sequential_python_sum(self):
        # dBm values where numpy's SIMD array power can miss Python's float
        # power by an ulp, and a dot product that need not add in log order:
        # within 1e-13 of the per-message loop
        rows = [(0, 1, -23.7, 2, True), (1, 0, -13.1, 1, True), (2, 1, -9.4, 3, False),
                (3, 1, -0.6, 1, True)] * 3
        total = 0.0
        for _, _, d, a, _ in rows:
            total += a * 10.0 ** (d / 10.0)
        assert packetsim.relative_energy(synth_log(rows)) == pytest.approx(
            total / sum(r[3] for r in rows), rel=1e-13)

    def test_link_cdf_classes(self):
        out = packetsim.link_cdf({(0, 1): 0.9, (1, 2): 0.5, (2, 0): 0.1})
        good, mid, bad = out["link_class_fractions"]
        assert (good, bad) == pytest.approx((1 / 3, 1 / 3), abs=1e-15)
        assert mid == pytest.approx(1 / 3, abs=1e-15)
        assert good + mid + bad == pytest.approx(1.0, abs=1e-15)
        assert out["cdf_points"] == [
            (0.1, pytest.approx(1 / 3)),
            (0.5, pytest.approx(2 / 3)),
            (0.9, pytest.approx(1.0)),
        ]

    def test_link_cdf_all_good(self):
        out = packetsim.link_cdf({(0, 1): 1.0, (1, 0): 1.0})
        assert out["link_class_fractions"] == (1.0, 0.0, 0.0)

    def test_class_boundaries(self):
        out = packetsim.link_cdf({(0, 1): 0.8, (1, 0): 0.3})
        good, mid, bad = out["link_class_fractions"]
        # thresholds are inclusive for good (>= 0.8), exclusive for bad (< 0.3)
        assert good == 0.5 and bad == 0.0 and mid == 0.5

    def test_metrics_json_shape(self):
        log = synth_log([(0, 1, 0.0, 1, True), (1, 0, -5.0, 2, True)])
        data = packetsim.build_metrics(log).to_json_dict()
        # per-link values and the CDF live in links.csv and cdf.csv only
        assert set(data) == {"avg_prr", "relative_energy", "link_class_fractions",
                             "delivery_ratio", "empty_neighborhood_senders"}
        assert set(data["link_class_fractions"]) == {"good", "intermediate", "bad"}


def reference_packet_stage(profile, gains, traffic, links, interference):
    """simulate and the metrics one message at a time: the per-record reference."""
    m = gains.shape[0]
    if links.shape == (m,):
        links = np.repeat(links[:, None], traffic.messages_per_node, axis=1)
    mat = channel.prr_matrix(profile.mw, gains, N0, 25, interference)
    rng = np.random.default_rng(traffic.seed)
    cap = traffic.max_retries + 1
    records, empty = [], []
    for i in range(m):
        if np.all(links[i] < 0):
            empty.append(i)
        p_link = np.where(links[i] >= 0, mat[i, np.clip(links[i], 0, m - 1)], 0.0)
        success = rng.random((traffic.messages_per_node, cap)) < p_link[:, None]
        for k in range(traffic.messages_per_node):
            hit = np.flatnonzero(success[k])
            records.append(packetsim.Transmission(
                sender=i, receiver=int(links[i, k]), tx_dbm=float(profile.dbm[i]),
                attempts_used=int(hit[0]) + 1 if hit.size else cap, delivered=bool(hit.size),
                send_time_s=float(k * traffic.message_period_s)))
    counts, hits = {}, {}
    total_mw, total_attempts = 0.0, 0
    for rec in records:
        total_mw += rec.attempts_used * 10.0 ** (rec.tx_dbm / 10.0)
        total_attempts += rec.attempts_used
        if rec.receiver >= 0:
            key = (rec.sender, rec.receiver)
            counts[key] = counts.get(key, 0) + 1
            hits[key] = hits.get(key, 0) + int(rec.attempts_used == 1 and rec.delivered)
    per_link = {key: hits[key] / counts[key] for key in sorted(counts)}
    metrics = {
        "per_link_prr": per_link,
        "avg_prr": float(np.mean(list(per_link.values()))) if per_link else 0.0,
        "delivery_ratio": float(np.mean([rec.delivered for rec in records])),
        "relative_energy": total_mw / total_attempts,
    }
    return records, tuple(empty), metrics


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_array_log_matches_per_record_reference(data):
    # repr comparisons: bitwise floats, Python scalar types and key order;
    # relative_energy, an array power and a dot product, within 1e-13 of the
    # per-record sum
    draw = data.draw
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 50))
    interference = draw(st.sampled_from(["none", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = channel.build_gain_matrix(rng.uniform(0.0, 40.0, size=(m, 2)),
                                      channel.PathLossModel())
    # full-mantissa powers (where numpy's array power can miss Python's by an
    # ulp), some shared between nodes
    shared = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    profile = game.StrategyProfile(np.where(shared, rng.choice([0.5, 12.5, 25.0], size=m),
                                            rng.uniform(0.5, 25.0, size=m)))
    traffic = packetsim.TrafficConfig(messages_per_node=n, max_retries=draw(st.integers(0, 5)),
                                      message_period_s=draw(st.floats(0.01, 10.0)),
                                      seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        links = packetsim.round_robin_receivers(prr_of(profile, gains, interference), 0.01, n)
    else:
        links = packetsim.best_prr_receivers(prr_of(profile, gains, interference), 0.01)
    links[np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))] = -1
    log = packetsim.simulate(profile, prr_of(profile, gains, interference), traffic, links)
    records, empty, expect = reference_packet_stage(profile, gains, traffic, links, interference)
    assert repr(log.records) == repr(records)
    assert log.empty_senders == empty
    metrics = packetsim.build_metrics(log)
    assert metrics.empty_neighborhood_senders == empty
    assert metrics.relative_energy == pytest.approx(expect.pop("relative_energy"), rel=1e-13)
    for name, value in expect.items():
        assert repr(getattr(metrics, name)) == repr(value), name


@pytest.mark.parametrize("m, n, retries", [(7, 3000, 5), (5, 20000, 3), (9, 100, 0)])
def test_simulate_blocks_continue_the_per_sender_stream(m, n, retries):
    # Several senders per draw and several draws per run, one sender wider
    # than a draw, and one draw for the whole run: each gives the attempts
    # and deliveries of one (n x cap) draw per sender in sender order.
    rng = np.random.default_rng(m)
    gains = channel.build_gain_matrix(rng.uniform(0.0, 40.0, size=(m, 2)),
                                      channel.PathLossModel())
    profile = game.StrategyProfile(rng.uniform(0.5, 25.0, size=m))
    mat = prr_of(profile, gains)
    links = packetsim.best_prr_receivers(mat, 0.01)
    traffic = packetsim.TrafficConfig(messages_per_node=n, max_retries=retries, seed=m + n)
    cap = retries + 1
    if (m, n) == (7, 3000):
        assert 2 <= packetsim._DRAW_CELLS // (n * cap) < m
    log = packetsim.simulate(profile, mat, traffic, links)
    draws = np.random.default_rng(traffic.seed)
    p_link = np.where(links >= 0, mat[np.arange(m), np.clip(links, 0, m - 1)], 0.0)
    for i in range(m):
        success = draws.random((n, cap)) < p_link[i]
        delivered = success.any(axis=1)
        assert np.array_equal(log.delivered[i * n:(i + 1) * n], delivered)
        assert np.array_equal(log.attempts_used[i * n:(i + 1) * n],
                              np.where(delivered, np.argmax(success, axis=1) + 1, cap))
