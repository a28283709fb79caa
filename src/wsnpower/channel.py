"""Radio link physics: log-distance path loss, SINR, bit errors, packet reception.

Power is carried in three equivalent views:

* strategy units ``s`` in [0, 25],
* transmit level in dBm, ``dbm = s - 25``,
* linear milliwatts, ``mw = 10 ** (dbm / 10)``,

so ``s = 25`` is 0 dBm which is 1 mW.
"""

import hashlib
import math
import struct
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

STRATEGY_MAX = 25.0
DBM_OFFSET = 25.0

INTERFERENCE_MODES = ("none", "full")


def strategy_to_dbm(s):
    return np.asarray(s, dtype=float) - DBM_OFFSET


def dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def strategy_to_mw(s):
    return dbm_to_mw(strategy_to_dbm(s))


def _number(value, name, integral=False):
    """The one rule for what counts as a number in outside input: ``value``
    if it is a finite real, as an ``int`` if ``integral`` asks for a whole
    one; else a ``ValueError`` naming the field.  Bools and strings never are."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if integral or abs(value) <= sys.float_info.max:
            return int(value) if integral else value
    elif isinstance(value, (float, np.floating)) and math.isfinite(value) and (
            not integral or value.is_integer()):
        return int(value) if integral else value
    raise ValueError(f"{name} must be a {'whole' if integral else 'finite'} number, "
                     f"got {value!r}")


def _check_keys(data, allowed, where):
    """Reject a key of a JSON object that ``allowed`` lacks, naming it."""
    for key in data:
        if key not in allowed:
            raise ValueError(f"{where} has unknown key {key!r}")


def _check_numbers(obj, section):
    """Pass every ``int`` and ``float`` field of a frozen config dataclass
    through ``_number``, named "<section> <field>", and store the result."""
    for f in fields(obj):
        if f.type in (int, float):
            object.__setattr__(obj, f.name, _number(getattr(obj, f.name), f"{section} {f.name}",
                                                    integral=f.type is int))


@dataclass(frozen=True)
class NoiseFloor:
    """Receiver noise floor in linear milliwatts.

    The -100 dBm default keeps short indoor links deep in the saturated
    PRR region at 0 dBm transmit power while pushing the 1%-PRR edge of a
    full-power link out to roughly 33 m under the default path loss.
    """

    n0_mw: float = 1e-10

    def __post_init__(self):
        _check_numbers(self, "noise floor")
        if not (self.n0_mw > 0.0):
            raise ValueError(f"noise floor must be a positive finite mW value, got {self.n0_mw}")

    @property
    def dbm(self) -> float:
        return float(10.0 * math.log10(self.n0_mw))


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with optional log-normal shadowing.

    ``gain_db(d) = reference_gain_db - 10 * exponent * log10(max(d, d0) / d0) + X``
    where X is a zero-mean Gaussian shadowing term (sigma in dB) drawn once per
    node pair from the model seed, or zero when ``shadowing_sigma_db`` is 0.
    Distances below ``reference_distance_d0`` are clamped to the reference
    distance so the near-field is never extrapolated.
    """

    reference_distance_d0: float = 1.0
    reference_gain_db: float = -40.0
    exponent: float = 3.3
    shadowing_sigma_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, "path loss")
        if not (self.reference_distance_d0 > 0.0):
            raise ValueError("reference distance d0 must be positive")
        if self.reference_gain_db > 0.0:
            raise ValueError("reference gain must be a loss (<= 0 dB)")
        if not (self.exponent > 0.0):
            raise ValueError("path loss exponent must be positive")
        if self.shadowing_sigma_db < 0.0:
            raise ValueError("shadowing sigma must be >= 0 dB")
        if not -2**63 <= self.seed < 2**63:  # hashed as a signed 64-bit integer
            raise ValueError(f"path loss seed must fit in 64 bits, got {self.seed!r}")


def _pair_shadowing_db(model: PathLossModel, a, b) -> float:
    # One reproducible draw per unordered pair: hash the canonically ordered
    # endpoint coordinates together with the model seed.
    pa, pb = sorted([(float(a[0]), float(a[1])), (float(b[0]), float(b[1]))])
    payload = struct.pack("<q4d", model.seed, *pa, *pb)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return float(rng.normal(0.0, model.shadowing_sigma_db))


def gain(model: PathLossModel, a: Sequence[float], b: Sequence[float]) -> float:
    """Linear channel gain between two positions (dimensionless, in (0, 1]):
    the one-pair case of ``build_gain_matrix``."""
    return float(build_gain_matrix((a, b), model)[0, 1])


# Node pairs, and so entries of each array temporary, in one row block of
# ``build_gain_matrix``: bounds its working memory at any M.
_GAIN_PAIRS = 1 << 15


def build_gain_matrix(positions, model: PathLossModel) -> np.ndarray:
    """All-pairs gain matrix; entry [i, j] is the gain from node i to node j.

    The diagonal is unused and set to zero.  The matrix is symmetric because
    the path (and any shadowing draw) is a property of the unordered pair.

    The upper triangle is filled in blocks of rows, each one array pass over
    its pairs (i, j > i), so the working memory stays bounded at any M.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError("positions must be an (M, 2) array")
    m = pos.shape[0]
    if m < 2:
        raise ValueError("need at least 2 nodes")
    if not np.isfinite(pos).all():
        raise ValueError("positions must be finite")
    d0 = model.reference_distance_d0
    slope = 10.0 * model.exponent
    points = pos.tolist()
    h = np.zeros((m, m), dtype=float)
    first = 0
    while first < m - 1:
        last = min(m - 1, first + max(1, _GAIN_PAIRS // (m - 1 - first)))
        rows, cols = np.nonzero(np.arange(m) > np.arange(first, last)[:, None])
        rows += first
        diff = pos[cols] - pos[rows]
        d = np.hypot(diff[:, 0], diff[:, 1])
        gain_db = model.reference_gain_db - slope * np.log10(np.maximum(d, d0) / d0)
        if model.shadowing_sigma_db > 0.0:
            gain_db += np.fromiter((_pair_shadowing_db(model, points[i], points[j])
                                    for i, j in zip(rows.tolist(), cols.tolist())),
                                   float, rows.size)
        g = 10.0 ** (gain_db / 10.0)
        h[rows, cols] = g
        h[cols, rows] = g
        first = last
    return h


def ber(sinr_value):
    """Bit error rate 0.5 * (1 - sqrt(sinr / (1 + sinr))).

    Evaluated in the algebraically equivalent form
    ``0.5 / ((1 + sinr) * (1 + sqrt(sinr / (1 + sinr))))`` which stays
    accurate to full relative precision for large SINR, where the textbook
    form loses all significant digits to cancellation.
    """
    s = np.asarray(sinr_value, dtype=float)
    if (s < 0.0).any():
        raise ValueError("SINR must be non-negative")
    out = _ber(s)
    return float(out) if s.ndim == 0 else out


def _ber(s):
    t = 1.0 + s
    return 0.5 * (1.0 / t) / (1.0 + np.sqrt(s / t))


def prr(ber_value, f_bytes: int):
    """Packet reception ratio (1 - ber) ** (8 * f_bytes) for an f-byte payload."""
    b = np.asarray(ber_value, dtype=float)
    if ((b < 0.0) | (b > 1.0)).any():
        raise ValueError("BER must lie in [0, 1]")
    _check_payload(f_bytes)
    out = _prr(b, f_bytes)
    return float(out) if b.ndim == 0 else out


def _prr(b, f_bytes):
    return (1.0 - b) ** (8 * int(f_bytes))


def _check_payload(f_bytes):
    if _number(f_bytes, "payload size", integral=True) < 1:
        raise ValueError("payload size must be a positive integer byte count")


def sinr_for_prr(target_prr: float, f_bytes: int) -> float:
    """Invert the BER/PRR chain: the SINR at which the PRR equals the target.

    Returns 0 when any non-negative SINR already meets the target, and inf
    when only an error-free bit, at infinite SINR, does (a target of 1).
    """
    if not (0.0 < target_prr <= 1.0):
        raise ValueError("target PRR must lie in (0, 1]")
    b = 1.0 - target_prr ** (1.0 / (8 * int(f_bytes)))
    if b >= 0.5:
        return 0.0
    if b <= 0.0:
        return math.inf
    x = 1.0 - 2.0 * b  # equals sqrt(S / (1 + S)) at the threshold
    return float(x * x / (1.0 - x * x))


def _denominators(senders, powers_mw, gains: np.ndarray, n0_mw: float, interference: str):
    """Interference plus noise at every receiver, leaving out the sender.

    ``senders`` is one node index (a length-M row) or ``slice(None)`` (an
    M x M array, row t for sender t).  Mode "full" models every other node as
    a concurrent transmitter at its current power; mode "none" models a clear
    channel (only the sender is on the air, as under a listen-before-talk
    MAC), where the result is the noise floor for every receiver.  The
    receiver's own term drops out because diagonal gains are zero.
    """
    if interference not in INTERFERENCE_MODES:
        raise ValueError(f"interference mode must be one of {INTERFERENCE_MODES}, "
                         f"got {interference!r}")
    if interference == "none":
        return np.full(gains.shape[1], n0_mw)
    received = gains * np.asarray(powers_mw, dtype=float)[:, None]  # [t, j] = H_tj p_t
    return np.maximum(received.sum(axis=0) - received[senders], 0.0) + n0_mw


def _check_link_inputs(gain_rows, denominators, f_bytes):
    """``ber``'s and ``prr``'s checks, made once on the inputs of
    ``_prr_table``: no gain and no denominator is negative."""
    if (np.fmin.reduce(gain_rows, axis=None) < 0.0
            or np.fmin.reduce(denominators, axis=None) < 0.0):
        raise ValueError("SINR must be non-negative")
    _check_payload(f_bytes)


def _prr_table(gain_rows, own_mw, denominators, f_bytes: int) -> np.ndarray:
    """``prr(ber(gain_rows * own_mw[:, None] / denominators))``, bitwise,
    without the checks: the array PRR kernel.  ``_check_link_inputs`` checks
    its inputs once for every table built from them."""
    return _prr(_ber(gain_rows * own_mw[:, None] / denominators), f_bytes)


def _prr_rows(senders, own_mw, gains: np.ndarray, denominators, f_bytes: int) -> np.ndarray:
    """Analytic PRR from each sender to every receiver, one row per sender.

    Row r is for sender ``senders[r]`` transmitting at ``own_mw[r]``, with
    that sender's own column set to zero.  ``senders`` is an index array or
    ``slice(None)`` (every node, without copying ``gains``), and
    ``denominators`` is the ``_denominators`` output to divide by: one row
    shared by all senders (the clear channel, or one sender's row), or the
    M x M array, whose rows are picked by ``senders``.
    """
    if denominators.ndim == 2:
        denominators = denominators[senders]
    rows = gains[senders]
    _check_link_inputs(rows, denominators, f_bytes)
    table = _prr_table(rows, own_mw, denominators, f_bytes)
    table[np.arange(table.shape[0]), np.arange(gains.shape[0])[senders]] = 0.0
    return table


def prr_matrix(powers_mw, gains: np.ndarray, n0_mw: float, f_bytes: int,
               interference: str = "none") -> np.ndarray:
    """All-pairs analytic PRR; entry [i, j] is for the directed link i -> j.

    The diagonal is set to zero.
    """
    p = np.asarray(powers_mw, dtype=float)
    return _prr_rows(slice(None), p, gains,
                     _denominators(slice(None), p, gains, n0_mw, interference), f_bytes)
