import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnpower import channel, experiment, topology

mpmath.mp.dps = 50


def mp_ber(s):
    s = mpmath.mpf(float(s))
    return mpmath.mpf("0.5") * (1 - mpmath.sqrt(s / (1 + s)))


def mp_prr(b, f):
    return (1 - mpmath.mpf(float(b))) ** (8 * f)


def test_power_views_anchor():
    # 25 strategy units == 0 dBm == 1 mW, all exact
    assert channel.strategy_to_dbm(25.0) == 0.0
    assert channel.strategy_to_mw(25.0) == 1.0
    assert channel.dbm_to_mw(0.0) == 1.0


def test_power_views_round_trip():
    s = np.linspace(0.0, 25.0, 11)
    # the forward views are exact shifts and powers of ten
    assert np.array_equal(channel.strategy_to_dbm(s), s - 25.0)
    assert np.allclose(channel.strategy_to_mw(s), 10.0 ** ((s - 25.0) / 10.0), rtol=1e-15, atol=0)
    # -10 dBm is a tenth of a milliwatt
    assert channel.dbm_to_mw(-10.0) == pytest.approx(0.1, rel=1e-15)


def test_noise_floor():
    nf = channel.NoiseFloor()
    assert nf.n0_mw == 1e-10
    assert nf.dbm == pytest.approx(-100.0)
    with pytest.raises(ValueError):
        channel.NoiseFloor(0.0)
    with pytest.raises(ValueError):
        channel.NoiseFloor(-1e-9)


def test_path_loss_validation():
    with pytest.raises(ValueError):
        channel.PathLossModel(reference_distance_d0=0.0)
    with pytest.raises(ValueError):
        channel.PathLossModel(exponent=-1.0)
    with pytest.raises(ValueError):
        channel.PathLossModel(shadowing_sigma_db=-0.5)
    with pytest.raises(ValueError):
        channel.PathLossModel(reference_gain_db=3.0)
    # a fractional seed would be drawn as its integer part, and a seed
    # past 64 bits cannot be hashed
    for seed in (1.5, True, "1", 2**63):
        with pytest.raises(ValueError, match="path loss seed"):
            channel.PathLossModel(seed=seed)
    # a whole float draws as its integer
    shadowed = [channel.PathLossModel(shadowing_sigma_db=4.0, seed=seed) for seed in (3.0, 3)]
    assert channel.gain(shadowed[0], (0, 0), (5, 1)) == channel.gain(shadowed[1], (0, 0), (5, 1))


@pytest.mark.parametrize("value, integral, expected", [
    (3, False, 3), (3, True, 3), (2.5, False, 2.5), (4.0, True, 4), (np.int64(7), True, 7),
    (np.float64(2.0), True, 2), (np.float32(0.5), False, np.float32(0.5)),
    (True, False, None), (False, True, None), ("1", False, None), ("1.5", True, None),
    (None, False, None), ([1], False, None), (2.5, True, None), (math.nan, False, None),
    (math.inf, True, None), (np.float64(-math.inf), False, None), (np.bool_(True), False, None),
    pytest.param(10**400, True, 10**400, id="huge-int-whole"),
    pytest.param(10**400, False, None, id="huge-int-beyond-float"),
])
def test_number_rule(value, integral, expected):
    # The one rule for outside input: a finite real, stored as an int when a
    # whole one is asked for; a bool or a string never counts.
    if expected is None:
        kind = "whole" if integral else "finite"
        with pytest.raises(ValueError, match=f"^game f_bytes must be a {kind} number, got "):
            channel._number(value, "game f_bytes", integral=integral)
    else:
        got = channel._number(value, "game f_bytes", integral=integral)
        assert got == expected and (type(got) is int if integral else got is value)


def test_gain_reference_and_clamp():
    model = channel.PathLossModel()
    # at the reference distance the gain is the reference gain
    assert channel.gain(model, (0, 0), (1, 0)) == pytest.approx(1e-4, rel=1e-12)
    # inside d0 the distance is clamped, not extrapolated
    assert channel.gain(model, (0, 0), (0.2, 0)) == channel.gain(model, (0, 0), (1, 0))
    # one decade of distance costs 10 * exponent dB
    g10 = channel.gain(model, (0, 0), (10, 0))
    assert 10 * math.log10(g10 / 1e-4) == pytest.approx(-33.0, abs=1e-9)


def test_gain_monotone_in_distance():
    model = channel.PathLossModel()
    d = np.linspace(1.0, 60.0, 40)
    g = np.array([channel.gain(model, (0, 0), (x, 0)) for x in d])
    assert np.all(np.diff(g) < 0)


def test_shadowing_symmetric_and_reproducible():
    model = channel.PathLossModel(shadowing_sigma_db=4.0, seed=7)
    a, b = (1.0, 2.0), (5.5, 3.25)
    assert channel.gain(model, a, b) == channel.gain(model, b, a)
    assert channel.gain(model, a, b) == channel.gain(model, a, b)
    other_seed = channel.PathLossModel(shadowing_sigma_db=4.0, seed=8)
    assert channel.gain(other_seed, a, b) != channel.gain(model, a, b)
    # sigma = 0 reproduces the bare log-distance value
    bare = channel.PathLossModel()
    d = math.hypot(b[0] - a[0], b[1] - a[1])
    expect = 10 ** ((-40.0 - 33.0 * math.log10(d)) / 10.0)
    assert channel.gain(bare, a, b) == pytest.approx(expect, rel=1e-12)


def test_gain_matrix_structure():
    rng = np.random.default_rng(0)
    pos = rng.uniform(0, 20, size=(6, 2))
    model = channel.PathLossModel(shadowing_sigma_db=2.0, seed=3)
    h = channel.build_gain_matrix(pos, model)
    assert h.shape == (6, 6)
    assert np.array_equal(h, h.T)
    assert np.all(np.diag(h) == 0)
    assert h[1, 4] == channel.gain(model, pos[1], pos[4])
    with pytest.raises(ValueError):
        channel.build_gain_matrix(pos[:1], model)


def reference_gain_matrix(positions, model):
    """The per-pair path-loss formula in 50-digit arithmetic, one pair at a
    time, on the same float inputs (and shadowing draws) as the build."""
    pos = [(mpmath.mpf(float(x)), mpmath.mpf(float(y))) for x, y in positions]
    d0 = mpmath.mpf(model.reference_distance_d0)
    m = len(pos)
    h = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            (ax, ay), (bx, by) = pos[i], pos[j]
            d = max(mpmath.sqrt((bx - ax) ** 2 + (by - ay) ** 2), d0)
            slope = 10 * mpmath.mpf(model.exponent)
            gain_db = model.reference_gain_db - slope * mpmath.log10(d / d0)
            if model.shadowing_sigma_db > 0.0:
                gain_db += channel._pair_shadowing_db(model, positions[i], positions[j])
            h[i, j] = h[j, i] = float(mpmath.power(10, gain_db / 10))
    return h


# Relative bound on a gain's distance from the 50-digit formula.  The array
# kernels round the distance, the logarithm and the power of ten: within a
# few ulps of a path loss up to a few hundred dB, which is a few 1e-14 of the
# gain.
GAIN_RTOL = 1e-13


def assert_gains_near_reference(h, positions, model):
    want = reference_gain_matrix(positions, model)
    assert np.array_equal(h == 0.0, want == 0.0)
    assert np.all(np.abs(h - want) <= GAIN_RTOL * want)


@st.composite
def layouts(draw):
    """(positions, model): up to 30 nodes, some coincident and some closer
    than the reference distance to another node."""
    d0 = draw(st.floats(0.1, 5.0))
    m = draw(st.integers(2, 30))
    coord = st.floats(0.0, 60.0)
    pos = [[draw(coord), draw(coord)] for _ in range(m)]
    for _ in range(draw(st.integers(0, m))):
        k, near = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        offset = draw(st.floats(0.0, 0.7)) * d0
        pos[k] = [pos[near][0] + offset, pos[near][1]]
    model = channel.PathLossModel(
        reference_distance_d0=d0,
        reference_gain_db=draw(st.floats(-80.0, 0.0)),
        exponent=draw(st.floats(1.5, 6.0)),
        shadowing_sigma_db=draw(st.sampled_from([0.0, 4.0])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    return np.array(pos), model


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_gain_matrix_equals_per_pair_formula(layout):
    pos, model = layout
    h = channel.build_gain_matrix(pos, model)
    assert_gains_near_reference(h, pos, model)
    assert channel.gain(model, pos[0], pos[-1]) == h[0, -1]


def test_gain_matrix_default_against_mpmath():
    # the default config's seed-0 80-node gains; a frozen digest would not
    # port across CPUs, whose numpy SIMD kernels differ in the last bits
    config = experiment.simulation_default()
    pos = config.build_topology().positions
    assert_gains_near_reference(channel.build_gain_matrix(pos, config.path_loss), pos,
                                config.path_loss)


@pytest.mark.parametrize("sigma", [0.0, 4.0])
def test_gain_matrix_row_blocks(monkeypatch, sigma):
    # A pair cap of 5 splits 23 nodes into blocks of one row (rows with more
    # than 5 pairs) and of several rows: every block boundary is crossed.
    pos = np.random.default_rng(5).uniform(0.0, 30.0, size=(23, 2))
    model = channel.PathLossModel(shadowing_sigma_db=sigma, seed=2)
    whole = channel.build_gain_matrix(pos, model)
    monkeypatch.setattr(channel, "_GAIN_PAIRS", 5)
    blocked = channel.build_gain_matrix(pos, model)
    assert blocked.tobytes() == whole.tobytes()
    assert_gains_near_reference(blocked, pos, model)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_rejected(bad):
    pos = np.random.default_rng(6).uniform(0.0, 10.0, size=(5, 2))
    pos[3, 1] = bad
    with pytest.raises(ValueError, match="positions must be finite"):
        topology.Topology(positions=pos, area=(10.0, 10.0))
    with pytest.raises(ValueError, match="positions must be finite"):
        channel.build_gain_matrix(pos, channel.PathLossModel())
    with pytest.raises(ValueError, match="positions must be finite"):
        channel.gain(channel.PathLossModel(), (0.0, 0.0), pos[3])


def test_sinr_two_node_closed_form():
    # isolated pair: SINR = H p / N0 with no interference term
    gains = np.array([[0.0, 1e-6], [1e-6, 0.0]])
    value = channel.sinr(0, 1, [1.0, 1.0], gains, 1e-9)
    assert value == pytest.approx(1000.0, rel=1e-12)


def test_sinr_term_by_term():
    rng = np.random.default_rng(1)
    m = 6
    gains = rng.uniform(1e-9, 1e-5, size=(m, m))
    gains = (gains + gains.T) / 2
    np.fill_diagonal(gains, 0.0)
    p = rng.uniform(0.0032, 1.0, size=m)
    n0 = 1e-10
    for i, j in [(0, 1), (2, 5), (4, 3)]:
        manual_interf = sum(gains[t, j] * p[t] for t in range(m) if t not in (i, j))
        expect = gains[i, j] * p[i] / (manual_interf + n0)
        assert channel.sinr(i, j, p, gains, n0) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        channel.sinr(2, 2, p, gains, n0)
    with pytest.raises(ValueError):
        channel.sinr(0, 1, -p, gains, n0)


def test_ber_frozen_point():
    # 0.5 * (1 - sqrt(3/4)), checked against a 50-digit evaluation
    assert channel.ber(3.0) == pytest.approx(0.06698729810778067, rel=1e-15)
    assert channel.ber(0.0) == 0.5


def test_ber_high_precision_sweep():
    rng = np.random.default_rng(2)
    sinrs = np.concatenate([
        10 ** rng.uniform(-6, 12, size=200),
        [0.0, 1e-300, 1.0, 1e6, 1e12],
    ])
    for s in sinrs:
        reference = float(mp_ber(s))
        if reference == 0.0:
            continue
        assert abs(channel.ber(float(s)) - reference) <= 1e-12 * reference


def test_ber_monotone_and_bounded():
    s = 10 ** np.linspace(-4, 10, 100)
    b = channel.ber(s)
    assert np.all(np.diff(b) < 0)
    assert np.all(b > 0) and np.all(b <= 0.5)
    with pytest.raises(ValueError):
        channel.ber(-0.1)


def test_prr_frozen_point():
    # (1 - 0.001) ** 200 for a 25-byte payload
    assert channel.prr(0.001, 25) == pytest.approx(0.8186488294786356, rel=1e-15)
    assert channel.prr(0.0, 25) == 1.0


def test_prr_validation():
    with pytest.raises(ValueError):
        channel.prr(0.5, 0)
    with pytest.raises(ValueError):
        channel.prr(0.5, 12.5)
    with pytest.raises(ValueError):
        channel.prr(1.5, 25)


_SCALAR_INPUTS = {
    "python-float": lambda v: float(v),
    "numpy-scalar": lambda v: np.float64(v),
    "0-d-array": lambda v: np.array(v),
}


@pytest.mark.parametrize("kind", [*_SCALAR_INPUTS, "array"])
def test_ber_prr_input_kinds(kind):
    # Scalars of every kind give a Python float, arrays give an array; one
    # bad element anywhere in a large array raises; NaN passes through.
    good, bad_sinr, bad_bers = 0.3, -1e-300, (-1e-300, 1.0 + 2.2e-16, 2.0)
    if kind == "array":
        def make(v, size=5000, at=3777):
            arr = np.full(size, good)
            arr[at] = v
            return arr
        for value, want in ((channel.ber(make(good)), channel.ber(good)),
                            (channel.prr(make(good), 25), channel.prr(good, 25))):
            assert type(value) is np.ndarray and value.shape == (5000,)
            assert np.all(value == want)
        with pytest.raises(ValueError, match="SINR must be non-negative"):
            channel.ber(make(bad_sinr))
        for bad in bad_bers:
            with pytest.raises(ValueError, match=r"BER must lie in \[0, 1\]"):
                channel.prr(make(bad), 25)
        assert np.isnan(channel.ber(make(np.nan))[3777])
        assert np.isnan(channel.prr(make(np.nan), 25)[3777])
        return
    make = _SCALAR_INPUTS[kind]
    assert type(channel.ber(make(good))) is float
    assert type(channel.prr(make(good), 25)) is float
    assert channel.ber(make(good)) == channel.ber(np.array([good]))[0]
    assert channel.prr(make(good), 25) == channel.prr(np.array([good]), 25)[0]
    with pytest.raises(ValueError, match="SINR must be non-negative"):
        channel.ber(make(bad_sinr))
    for bad in bad_bers:
        with pytest.raises(ValueError, match=r"BER must lie in \[0, 1\]"):
            channel.prr(make(bad), 25)
    assert math.isnan(channel.ber(make(np.nan)))
    assert math.isnan(channel.prr(make(np.nan), 25))
    assert channel.prr(make(-0.0), 25) == 1.0


def test_prr_high_precision_sweep():
    rng = np.random.default_rng(3)
    for b in rng.uniform(0.0, 0.5, size=200):
        reference = float(mp_prr(b, 25))
        assert abs(channel.prr(float(b), 25) - reference) <= 1e-12 * reference


def test_link_prr_is_the_composition():
    gains = np.array([[0.0, 2e-7], [2e-7, 0.0]])
    p = [0.5, 0.25]
    expect = channel.prr(channel.ber(channel.sinr(0, 1, p, gains, 1e-10)), 25)
    assert channel.link_prr(0, 1, p, gains, 1e-10, 25) == expect


def test_sinr_for_prr_round_trip():
    for target in (0.01, 0.1, 0.5, 0.9, 0.999):
        s = channel.sinr_for_prr(target, 25)
        assert channel.prr(channel.ber(s), 25) == pytest.approx(target, rel=1e-9)
    # any non-negative SINR already gives PRR above a tiny enough target
    assert channel.sinr_for_prr(1e-300, 25) == 0.0
    # only an infinite SINR gives a PRR of exactly 1
    assert channel.sinr_for_prr(1.0, 25) == math.inf
    with pytest.raises(ValueError):
        channel.sinr_for_prr(0.0, 25)


def test_link_prr_monotonicity_random_pairs():
    # own power helps, any interferer's power hurts (full concurrency model)
    rng = np.random.default_rng(4)
    m = 5
    for _ in range(100):
        pos = rng.uniform(0, 15, size=(m, 2))
        gains = channel.build_gain_matrix(pos, channel.PathLossModel())
        p = rng.uniform(0.0032, 1.0, size=m)
        i, j = 0, 1
        t = int(rng.integers(2, m))
        bump = rng.uniform(1.01, 2.0)

        mat = channel.prr_matrix(p, gains, 1e-10, 25, interference="full")
        p_up = p.copy()
        p_up[i] *= bump
        up = channel.prr_matrix(p_up, gains, 1e-10, 25, interference="full")
        assert up[i, j] >= mat[i, j]

        p_interf = p.copy()
        p_interf[t] *= bump
        worse = channel.prr_matrix(p_interf, gains, 1e-10, 25, interference="full")
        assert worse[i, j] <= mat[i, j]


def _prr_rounding(f_bytes):
    """Relative slack for PRR monotonicity: (1 - BER) ** (8 f) scales the
    rounding of 1 - BER by the exponent, so SINRs an ulp apart can give PRRs
    that decrease by up to about 0.7 * 8 f ulps (seen in dense ulp scans)."""
    return 2 * 8 * f_bytes * np.finfo(float).eps


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1e12), min_size=1, max_size=30), st.integers(1, 128))
def test_prr_non_decreasing_in_sinr_property(sinrs, f_bytes):
    s = np.sort(np.concatenate([sinrs, np.nextafter(sinrs, np.inf)]))  # with ulp neighbours
    p = channel.prr(channel.ber(s), f_bytes)
    assert np.all(p[1:] >= p[:-1] * (1.0 - _prr_rounding(f_bytes)))


@settings(deadline=None)
@given(st.data())
def test_prr_matrix_row_non_decreasing_in_own_power_property(data):
    # clear channel: raising node i's power can only raise row i, and no other row moves
    draw = data.draw
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = channel.build_gain_matrix(rng.uniform(0.0, 30.0, size=(m, 2)), channel.PathLossModel())
    p = np.array(draw(st.lists(st.floats(10 ** -2.5, 1.0), min_size=m, max_size=m)))
    i = draw(st.integers(0, m - 1))
    up = p.copy()
    up[i] = draw(st.one_of(st.just(np.nextafter(p[i], np.inf)), st.floats(p[i], 1.0)))
    before = channel.prr_matrix(p, gains, 1e-10, 25, interference="none")
    after = channel.prr_matrix(up, gains, 1e-10, 25, interference="none")
    assert np.all(after[i] >= before[i] * (1.0 - _prr_rounding(25)))
    others = np.arange(m) != i
    assert np.array_equal(after[others], before[others])


def test_prr_matrix_modes(desk0):
    _, gains = desk0
    p = np.full(gains.shape[0], 0.1)
    clear = channel.prr_matrix(p, gains, 1e-10, 25)
    full = channel.prr_matrix(p, gains, 1e-10, 25, interference="full")
    assert np.all(np.diag(clear) == 0) and np.all(np.diag(full) == 0)
    off_diag = ~np.eye(gains.shape[0], dtype=bool)
    assert np.all(full[off_diag] <= clear[off_diag])
    # clear-channel entries match the scalar chain
    assert clear[0, 1] == pytest.approx(
        channel.prr(channel.ber(gains[0, 1] * p[0] / 1e-10), 25), rel=1e-15)
    with pytest.raises(ValueError):
        channel.prr_matrix(p, gains, 1e-10, 25, interference="besteffort")


def test_interference_at_modes():
    # Interference at receiver 1 with node 0 sending: the kernel's
    # denominator minus the noise floor.
    gains = np.array([[0.0, 1e-6, 2e-6],
                      [1e-6, 0.0, 4e-6],
                      [2e-6, 4e-6, 0.0]])
    p = np.array([1.0, 0.5, 0.25])
    n0 = 1e-10
    assert channel._denominators(0, p, gains, n0, "none")[1] - n0 == 0.0
    expect = gains[2, 1] * p[2]  # only node 2 interferes at receiver 1
    full = channel._denominators(0, p, gains, n0, "full")[1] - n0
    assert full == pytest.approx(expect, rel=1e-15)