"""Seeded Bernoulli packet simulation over analytic link reception rates.

Each message is a run of independent attempts against the sender-receiver
link PRR, capped at one transmission plus max_retries.  The log keeps the
messages as parallel arrays (`records` rebuilds them as rows).  Link quality
counts first attempts only; the delivery ratio credits retries.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .channel import _check_numbers


# Random cells one draw of ``simulate`` holds at most: a bound on its
# temporaries at any node and message count.
_DRAW_CELLS = 1 << 16


@dataclass(frozen=True)
class TrafficConfig:
    message_period_s: float = 2.0
    messages_per_node: int = 100
    max_retries: int = 30
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, "traffic")
        if self.message_period_s <= 0:
            raise ValueError("message period must be positive")
        for name, least in (("messages_per_node", 1), ("max_retries", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"traffic {name} must be a whole number >= {least}, "
                                 f"got {getattr(self, name)!r}")

    @classmethod
    def testbed(cls, **overrides) -> "TrafficConfig":
        """Hardware-style traffic: 3 retries, one message every 2 s."""
        merged = {"max_retries": 3, "message_period_s": 2.0}
        merged.update(overrides)
        return cls(**merged)


# bench/tracing.py counts messages and attempts in ``TransmissionLog.records``.
@dataclass(frozen=True)
class Transmission:
    sender: int
    receiver: int
    tx_dbm: float
    attempts_used: int
    delivered: bool
    send_time_s: float


@dataclass(eq=False)  # array fields have no single truth value: compare records
class TransmissionLog:
    """One entry per message in each `Transmission` field, sender-major order."""
    sender: np.ndarray
    receiver: np.ndarray
    tx_dbm: np.ndarray
    attempts_used: np.ndarray
    delivered: np.ndarray
    send_time_s: np.ndarray
    max_retries: int
    empty_senders: tuple = ()

    def __post_init__(self):
        cap = self.max_retries + 1
        bad = (self.attempts_used < 1) | (self.attempts_used > cap)
        if bad.any():
            raise ValueError(f"attempts_used {self.attempts_used[bad][0]} outside [1, {cap}]")

    @property  # read by bench/tracing.py's ``packetsim.simulate`` hook
    def records(self) -> list:
        """One `Transmission` per message, built afresh on each access."""
        columns = (getattr(self, f.name).tolist() for f in fields(Transmission))
        return [Transmission(*row) for row in zip(*columns)]


def best_prr_receivers(mat: np.ndarray, epsilon_link: float) -> np.ndarray:
    """Fixed receiver per sender of the analytic PRR matrix ``mat``
    (``channel.prr_matrix``): the highest-PRR neighbor, -1 if none."""
    receivers = np.argmax(mat, axis=1).astype(int)
    best = mat[np.arange(mat.shape[0]), receivers]
    receivers[best < epsilon_link] = -1
    return receivers


def round_robin_receivers(mat: np.ndarray, epsilon_link: float,
                          n_messages: int) -> np.ndarray:
    """Per-message receiver matrix cycling through each sender's neighbors in
    the analytic PRR matrix ``mat``."""
    m = mat.shape[0]
    out = np.full((m, n_messages), -1, dtype=int)
    for i in range(m):
        neighbors = np.flatnonzero(mat[i] >= epsilon_link)
        if neighbors.size:
            out[i] = neighbors[np.arange(n_messages) % neighbors.size]
    return out


def simulate(profile, mat: np.ndarray, traffic: TrafficConfig,
             links: np.ndarray) -> TransmissionLog:
    """Run the per-message attempt process for every sender.

    Each attempt succeeds with the link's PRR in ``mat``, the analytic PRR
    matrix at the profile's powers (``channel.prr_matrix``).  links is
    either a per-sender receiver array (m,) or a per-message matrix
    (m, messages_per_node); receiver -1 marks a sender with no usable link,
    whose messages exhaust the full attempt budget undelivered.
    """
    m, n = mat.shape[0], traffic.messages_per_node
    links = np.array(links, dtype=int)  # a copy: the log keeps it as its receivers
    if links.shape == (m,):
        links = np.repeat(links[:, None], n, axis=1)
    if links.shape != (m, n):
        raise ValueError("links must be (m,) or (m, messages_per_node)")
    p_link = np.where(links >= 0, np.take_along_axis(mat, np.clip(links, 0, m - 1), axis=1), 0.0)
    rng = np.random.default_rng(traffic.seed)
    cap = traffic.max_retries + 1
    attempts, delivered = np.empty((m, n), dtype=int), np.empty((m, n), dtype=bool)
    # Each sender draws an (n x cap) block, in sender order: the seeded
    # stream.  Consecutive senders draw together, _DRAW_CELLS cells at most,
    # which continues the stream exactly as one draw per sender would.
    step = max(1, _DRAW_CELLS // (n * cap))
    for a in range(0, m, step):
        success = rng.random((min(step, m - a), n, cap)) < p_link[a:a + step, :, None]
        delivered[a:a + step] = success.any(axis=2)
        attempts[a:a + step] = np.where(delivered[a:a + step], np.argmax(success, axis=2) + 1,
                                        cap)
    return TransmissionLog(
        sender=np.repeat(np.arange(m), n), receiver=links.ravel(),
        tx_dbm=np.repeat(profile.dbm, n), attempts_used=attempts.ravel(),
        delivered=delivered.ravel(), max_retries=traffic.max_retries,
        send_time_s=np.tile(np.arange(n, dtype=float) * traffic.message_period_s, m),
        empty_senders=tuple(np.flatnonzero((links < 0).all(axis=1)).tolist()))


def empirical_prr(log: TransmissionLog) -> dict:
    """Per-link first-attempt success ratio and its unweighted network mean."""
    if log.sender.size == 0:
        raise ValueError("empty transmission log")
    linked = log.receiver >= 0
    m = int(max(log.sender.max(), log.receiver.max())) + 1
    keys = log.sender[linked] * m + log.receiver[linked]  # sorts as (sender, receiver)
    counts = np.bincount(keys)
    hits = np.bincount(keys, weights=log.delivered[linked] & (log.attempts_used[linked] == 1))
    seen = np.flatnonzero(counts)
    rates = hits[seen] / counts[seen]
    per_link = dict(zip(zip((seen // m).tolist(), (seen % m).tolist()), rates.tolist()))
    avg = float(np.mean(rates)) if rates.size else 0.0
    return {"per_link_prr": per_link, "avg_prr": avg}


def delivery_ratio(log: TransmissionLog) -> float:
    """Fraction of messages delivered within the attempt budget (retries count)."""
    if log.sender.size == 0:
        raise ValueError("empty transmission log")
    return float(np.mean(log.delivered))


def relative_energy(log: TransmissionLog) -> float:
    """Mean linear transmit power per attempt, normalized to the 0 dBm anchor:
    the attempt-weighted mean of each message's power in mW."""
    if log.sender.size == 0:
        raise ValueError("empty transmission log")
    return float(np.dot(log.attempts_used, 10.0 ** (log.tx_dbm / 10.0)) / log.attempts_used.sum())


GOOD_PRR = 0.8
BAD_PRR = 0.3


def link_cdf(per_link_prr: dict) -> dict:
    """Empirical CDF points plus (good, intermediate, bad) class fractions."""
    if not per_link_prr:
        raise ValueError("need at least one link")
    values = np.sort(np.asarray(list(per_link_prr.values()), dtype=float))
    n = values.size
    cdf_points = [(float(v), float((k + 1) / n)) for k, v in enumerate(values)]
    good = float(np.mean(values >= GOOD_PRR))
    bad = float(np.mean(values < BAD_PRR))
    intermediate = 1.0 - good - bad
    return {"cdf_points": cdf_points,
            "link_class_fractions": (good, intermediate, bad)}


@dataclass
class Metrics:
    avg_prr: float
    per_link_prr: dict
    relative_energy: float
    link_class_fractions: tuple
    cdf_points: list
    delivery_ratio: float
    empty_neighborhood_senders: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "avg_prr": self.avg_prr,
            "per_link_prr": {f"{i}->{j}": v for (i, j), v in sorted(self.per_link_prr.items())},
            "relative_energy": self.relative_energy,
            "link_class_fractions": {
                "good": self.link_class_fractions[0],
                "intermediate": self.link_class_fractions[1],
                "bad": self.link_class_fractions[2],
            },
            "cdf_points": [[p, c] for p, c in self.cdf_points],
            "delivery_ratio": self.delivery_ratio,
            "empty_neighborhood_senders": list(self.empty_neighborhood_senders),
        }


def build_metrics(log: TransmissionLog) -> Metrics:
    prr_part = empirical_prr(log)
    if prr_part["per_link_prr"]:
        cdf_part = link_cdf(prr_part["per_link_prr"])
    else:
        cdf_part = {"cdf_points": [], "link_class_fractions": (0.0, 0.0, 1.0)}
    return Metrics(
        avg_prr=prr_part["avg_prr"],
        per_link_prr=prr_part["per_link_prr"],
        relative_energy=relative_energy(log),
        link_class_fractions=cdf_part["link_class_fractions"],
        cdf_points=cdf_part["cdf_points"],
        delivery_ratio=delivery_ratio(log),
        empty_neighborhood_senders=log.empty_senders,
    )

