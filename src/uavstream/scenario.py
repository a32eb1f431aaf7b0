"""Problem-instance definition: system constants, node geometry, and config I/O.

A Scenario pins the ground base station and the affected ground users (AGUs)
for one experiment; UAV positions are decision variables and live in
UavPlacement.  Everything here is immutable after construction and safe to
share across worker processes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """Invalid system configuration or unparseable config file."""


# Far above any instance the dense per-user arrays serve, and far below the
# sizes numpy cannot allocate.
_MAX_USERS = 1_000_000
# 60 dB: the Rician CDF inversion's time grows as sqrt(K), to about 0.05 s at
# K = 1e6 (1.6 s at K = 1e9; 2 vCPUs at 2.1 GHz).
_MAX_RICIAN_K = 1e6


@dataclass(frozen=True)
class SystemConfig:
    bandwidth_B: float          # Hz
    noise_density_N0: float     # W/Hz, linear
    ref_gain_alpha0: float      # linear power gain at 1 m
    height_obs_Ho: float        # m
    height_relay_Hr: float      # m
    height_gbs_Hb: float        # m
    rician_K: float
    outage_target_rho: float
    p_max_user: float           # W
    p_max_obs: float            # W
    p_max_relay: float          # W
    utility_theta: float
    utility_beta: float
    playback_rate_rbar: float   # b/s/Hz after normalizing by bandwidth
    num_users_U: int
    area_side: float            # m, AGU square centred on the origin
    network_size_D: float       # m, GBS distance from the area centre
    rng_seed: int = 0
    sca_tol: float = 1e-9
    bcd_tol: float = 1e-4
    max_bcd_iters: int = 100

    def __post_init__(self):
        for name in _INT_FIELDS:     # an integral float is stored as an int
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                object.__setattr__(self, name, int(value))
            elif not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        positive = [
            ("bandwidth_B", self.bandwidth_B),
            ("noise_density_N0", self.noise_density_N0),
            ("ref_gain_alpha0", self.ref_gain_alpha0),
            ("height_obs_Ho", self.height_obs_Ho),
            ("height_relay_Hr", self.height_relay_Hr),
            ("height_gbs_Hb", self.height_gbs_Hb),
            ("p_max_user", self.p_max_user),
            ("p_max_obs", self.p_max_obs),
            ("p_max_relay", self.p_max_relay),
            ("utility_theta", self.utility_theta),
            ("utility_beta", self.utility_beta),
            ("playback_rate_rbar", self.playback_rate_rbar),
            ("network_size_D", self.network_size_D),
            ("sca_tol", self.sca_tol),
            ("bcd_tol", self.bcd_tol),
        ]
        for name, value in positive:
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.rician_K <= _MAX_RICIAN_K:
            raise ConfigError(
                f"rician_K must lie in [0, {_MAX_RICIAN_K:g}], got {self.rician_K}")
        if not (0.0 < self.outage_target_rho < 1.0):
            raise ConfigError(
                f"outage_target_rho must lie in (0, 1), got {self.outage_target_rho}")
        if not 1 <= self.num_users_U <= _MAX_USERS:
            raise ConfigError(
                f"num_users_U must lie in [1, {_MAX_USERS}], got {self.num_users_U}")
        # area_side == 0 is the degenerate all-at-origin deployment.
        if self.area_side < 0 or not math.isfinite(self.area_side):
            raise ConfigError(f"area_side must be >= 0, got {self.area_side}")
        if self.max_bcd_iters < 1:
            raise ConfigError("max_bcd_iters must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        mu0 = self.mu0
        if not (mu0 > 0 and math.isfinite(mu0)):
            raise ConfigError(f"derived mu0 = {mu0} is not finite and positive")

    @property
    def mu0(self) -> float:
        """Reference SNR density alpha0 / (B * N0)."""
        return self.ref_gain_alpha0 / (self.bandwidth_B * self.noise_density_N0)


@dataclass(frozen=True)
class UavPlacement:
    """Ground-plane coordinates of the observation and relay UAVs.

    q_relay = None means there is no relay: the observation UAV transmits
    straight to the ground BS.
    """

    q_obs: np.ndarray
    q_relay: np.ndarray | None = None

    def __post_init__(self):
        names = ("q_obs",) if self.q_relay is None else ("q_obs", "q_relay")
        for name in names:
            q = np.asarray(getattr(self, name), dtype=float)
            if q.shape != (2,):
                raise ValueError("UAV positions must be 2-D ground coordinates")
            if not (math.isfinite(q[0]) and math.isfinite(q[1])):
                raise ValueError("UAV positions must be finite")
            object.__setattr__(self, name, q)

    @property
    def uavs(self) -> tuple:
        """Positions of the UAVs in the backhaul chain, observation UAV first."""
        return (self.q_obs,) if self.q_relay is None else (self.q_obs, self.q_relay)


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: config plus GBS and AGU ground positions."""

    config: SystemConfig
    gbs_pos_wb: np.ndarray
    agu_pos_wu: np.ndarray      # shape (U, 2)

    def __post_init__(self):
        object.__setattr__(self, "gbs_pos_wb", np.asarray(self.gbs_pos_wb, dtype=float))
        object.__setattr__(self, "agu_pos_wu", np.asarray(self.agu_pos_wu, dtype=float))
        cfg = self.config
        if self.agu_pos_wu.shape != (cfg.num_users_U, 2):
            raise ConfigError(
                f"expected {cfg.num_users_U} AGU positions, got shape {self.agu_pos_wu.shape}")
        half = cfg.area_side / 2.0
        if (np.abs(self.agu_pos_wu) > half + 1e-9).any():
            raise ConfigError("AGU positions fall outside the deployment square")
        # np.allclose's tolerances, written out; a NaN is never close.
        expected_gbs = np.array([-cfg.network_size_D, 0.0])
        if not (np.abs(self.gbs_pos_wb - expected_gbs) <= 1e-8 + 1e-5 * np.abs(expected_gbs)).all():
            raise ConfigError(f"GBS must sit at {expected_gbs}, got {self.gbs_pos_wb}")


def generate_scenario(config: SystemConfig) -> Scenario:
    """Draw a deterministic uniform AGU deployment for the given config seed."""
    rng = np.random.default_rng(config.rng_seed)
    half = config.area_side / 2.0
    agu = rng.uniform(-half, half, size=(config.num_users_U, 2))
    gbs = np.array([-config.network_size_D, 0.0])
    return Scenario(config=config, gbs_pos_wb=gbs, agu_pos_wu=agu)


def hop_offsets(scenario: Scenario, placement: UavPlacement):
    """Horizontal offsets (receiver minus transmitter, shape (H, 2)) and
    height gaps (shape (H,)) of the H backhaul hops, from the observation UAV
    through the relay UAV (if placed) to the ground BS.  Each hop is
    transmitted by the UAV it starts at."""
    cfg = scenario.config
    nodes = np.array(placement.uavs + (scenario.gbs_pos_wb,))
    heights = (cfg.height_obs_Ho, cfg.height_relay_Hr)[:len(nodes) - 1] + (cfg.height_gbs_Hb,)
    return nodes[1:] - nodes[:-1], np.array([b - a for a, b in zip(heights, heights[1:])])


def hop_dist2(scenario: Scenario, placement: UavPlacement) -> np.ndarray:
    """Squared 3-D length of each backhaul hop."""
    offsets, gaps = hop_offsets(scenario, placement)
    return gaps * gaps + (offsets * offsets).sum(axis=1)


def distances(scenario: Scenario, placement: UavPlacement, user_index: int):
    """3-D link distances for one user under a placement: the user link, then
    each backhaul hop ((d_uo, d_or, d_rb) with a relay, (d_uo, d_ob) without)."""
    cfg = scenario.config
    if not 0 <= user_index < cfg.num_users_U:
        raise IndexError(f"user_index {user_index} out of range for U={cfg.num_users_U}")
    w_u = scenario.agu_pos_wu[user_index]
    d_uo = math.sqrt(cfg.height_obs_Ho ** 2 + float(np.sum((placement.q_obs - w_u) ** 2)))
    return (d_uo, *(math.sqrt(d2) for d2 in hop_dist2(scenario, placement)))


# --- configuration files -------------------------------------------------
#
# Plain "key = value" text.  Keys mirror the SystemConfig field names; the
# alternate suffixed keys noise_density_N0_dbm (dBm/Hz) and
# ref_gain_alpha0_db (dB) are converted to linear units on ingestion.

# The annotations are strings (postponed evaluation).
_INT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "int")

TABLE2 = {
    "bandwidth_B": 1e6,
    "noise_density_N0": 1e-20,      # -170 dBm/Hz
    "ref_gain_alpha0": 1e-6,        # -60 dB
    "height_obs_Ho": 100.0,
    "height_relay_Hr": 100.0,
    "height_gbs_Hb": 20.0,
    "rician_K": 4.0,
    "outage_target_rho": 0.01,
    "p_max_user": 0.2,
    "p_max_obs": 0.1,
    "p_max_relay": 0.1,
    "utility_theta": 0.8,
    "utility_beta": 100.0,
    "playback_rate_rbar": 1.0,      # 1 Mbps over 1 MHz
    "num_users_U": 30,
    "area_side": 500.0,
    "network_size_D": 2500.0,
    "rng_seed": 0,
    "sca_tol": 1e-9,
    "bcd_tol": 1e-4,
    "max_bcd_iters": 100,
}


def table2_config(**overrides) -> SystemConfig:
    """SystemConfig preloaded with the reference simulation parameters."""
    values = dict(TABLE2)
    values.update(overrides)
    return SystemConfig(**{k: (v if k in _INT_FIELDS else float(v)) for k, v in values.items()})


def dbm_per_hz_to_linear(dbm: float) -> float:
    """dBm/Hz -> W/Hz (e.g. -170 dBm/Hz -> 1e-20 W/Hz)."""
    return 10.0 ** (dbm / 10.0) / 1000.0


def db_to_linear(db: float) -> float:
    """dB -> linear power ratio (e.g. -60 dB -> 1e-6)."""
    return 10.0 ** (db / 10.0)


def parse_config_text(text: str) -> SystemConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            num = float(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: non-numeric value for {key}: {value!r}") from exc
        if key == "noise_density_N0_dbm":
            values["noise_density_N0"] = dbm_per_hz_to_linear(num)
        elif key == "ref_gain_alpha0_db":
            values["ref_gain_alpha0"] = db_to_linear(num)
        elif key in SystemConfig.__dataclass_fields__:
            if key in _INT_FIELDS and not num.is_integer():
                raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}")
            values[key] = int(num) if key in _INT_FIELDS else num
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
    missing = [f.name for f in fields(SystemConfig)
               if f.name not in values and f.default is MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    try:
        return SystemConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(config: SystemConfig) -> str:
    lines = ["# uavstream system configuration (linear units)"]
    for key, value in asdict(config).items():
        lines.append(f"{key} = {int(value) if key in _INT_FIELDS else repr(float(value))}")
    return "\n".join(lines) + "\n"


def save_config(config: SystemConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(config))
