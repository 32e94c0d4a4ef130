"""Problem-instance construction.

A Scenario bundles the array, the radar targets (angle, range, complex
reflection coefficient absorbing round-trip path loss), the downlink
user channels (Rician fading with a distance path loss), the noise and
power budget, and a seed. All randomness flows through named Philox
substreams of the scenario seed so that every module draws independently
and reproducibly.

The standard deployment is declared once, as make_scenario's keyword
defaults; the helpers it calls take every geometry and path-loss value
as a required keyword.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from .arrays import HALF_PLANE, ArrayConfig, steering


def dbm_to_watts(p_dbm):
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def substream(seed, label, index=None):
    """Named counter-based generator derived from the scenario seed.

    Streams with different labels (or indices) are statistically
    independent; the same (seed, label, index) always reproduces the
    same draws.
    """
    key = [zlib.crc32(label.encode("ascii"))]
    if index is not None:
        key.append(int(index))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


def pathloss(distance, *, exponent, c0_db, d0):
    """Distance path loss 10^(c0_db/10) * (d0/distance)^exponent, linear.

    Computed in Python floats, so a power that overflows raises
    OverflowError for Python and numpy scalars alike.
    """
    if d0 <= 0:
        raise ValueError("reference distance must be positive")
    if distance < d0:
        raise ValueError(f"distance {distance} m below reference {d0} m")
    return 10.0 ** (float(c0_db) / 10.0) * (float(d0) / float(distance)) ** float(exponent)


@dataclass(frozen=True)
class Target:
    angle: float          # radians
    range_m: float
    rcs: complex          # includes round-trip path loss

    def __post_init__(self):
        if not HALF_PLANE[0] <= self.angle <= HALF_PLANE[1]:
            raise ValueError(f"target angle {self.angle} rad outside [-pi/2, pi/2]")
        if not self.range_m > 0:
            raise ValueError("target range must be positive")
        if not 0 < abs(self.rcs) < np.inf:
            raise ValueError("target reflection coefficient must be finite and nonzero")


@dataclass(frozen=True)
class UserChannel:
    vector: np.ndarray    # length M_T
    angle: float          # radians
    pathloss: float       # linear

    def __post_init__(self):
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("channel entries must be finite")
        if self.pathloss <= 0:
            raise ValueError("path loss gain must be positive")


@dataclass(frozen=True)
class Scenario:
    array: ArrayConfig
    targets: tuple
    users: tuple
    noise_power: float    # watts
    power_budget: float   # watts
    snapshots: int        # L
    rician_k: float
    overload: float       # delta in [0, 1]
    seed: int

    def __post_init__(self):
        if len(self.targets) < 1:
            raise ValueError("need at least one target")
        if not (0.0 < self.noise_power < np.inf and 0.0 < self.power_budget < np.inf):
            raise ValueError("noise power and power budget must be positive and finite")
        if self.snapshots < 1:
            raise ValueError("need at least one snapshot")
        if not (0.0 <= self.overload <= 1.0):
            raise ValueError("overload factor must lie in [0, 1]")
        if self.rician_k < 0:
            raise ValueError("Rician factor must be nonnegative")

    @property
    def num_users(self):
        return len(self.users)

    @property
    def num_targets(self):
        return len(self.targets)

    @property
    def num_streams(self):
        # total beamformer columns: K communication + M_T sensing
        return self.num_users + self.array.num_tx

    @property
    def row_radius(self):
        return float(np.sqrt(self.power_budget / self.array.num_tx))

    def channel_matrix(self):
        """User channels as columns, shape (M_T, K)."""
        if not self.users:
            return np.zeros((self.array.num_tx, 0), dtype=complex)
        return np.stack([u.vector for u in self.users], axis=1)

    def target_angles(self):
        return np.array([t.angle for t in self.targets])


def make_targets(angles, ranges, rng, *, exponent, c0_db, d0):
    """Targets with path-loss-derived reflection amplitudes.

    The reflection power |alpha|^2 at range rho is the round-trip path
    loss 10^(c0_db/10) * (d0/rho)^(2*exponent), so the amplitude itself
    is sqrt of the reference loss times the one-way decay. Phases are
    uniform, drawn once from ``rng`` and frozen in the returned targets.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    ranges = np.atleast_1d(np.asarray(ranges, dtype=float))
    if angles.shape != ranges.shape:
        raise ValueError("angles and ranges must have equal length")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=angles.size)
    out = []
    for theta, rho, phi in zip(angles, ranges, phases):
        amp = np.sqrt(pathloss(rho, exponent=2.0 * exponent, c0_db=c0_db, d0=d0))
        out.append(Target(angle=float(theta), range_m=float(rho),
                          rcs=amp * np.exp(1j * phi)))
    return out


def make_user_channels(num_users, num_tx, rician_k, rng, *, range_m, sector_deg,
                       exponent, c0_db, d0):
    """Rician user channels in an annular sector.

    h_k = sqrt(beta_k kappa/(kappa+1)) a_T(theta_k)
        + sqrt(beta_k/(kappa+1)) g_k,  g_k ~ CN(0, I).
    """
    if num_users < 0 or rician_k < 0:
        raise ValueError("user count and Rician factor must be nonnegative")
    if not -90.0 <= sector_deg[0] <= sector_deg[1] <= 90.0:
        raise ValueError(f"user sector {sector_deg} deg is not an interval in [-90, 90]")
    if not d0 <= range_m[0] <= range_m[1]:
        raise ValueError(f"user ranges {range_m} m are not an interval from {d0} m up")
    users = []
    for _ in range(num_users):
        theta = np.deg2rad(rng.uniform(*sector_deg))
        rho = rng.uniform(*range_m)
        beta = pathloss(rho, exponent=exponent, c0_db=c0_db, d0=d0)
        los = steering(theta, num_tx)
        nlos = (rng.standard_normal(num_tx) + 1j * rng.standard_normal(num_tx)) / np.sqrt(2.0)
        h = np.sqrt(beta * rician_k / (rician_k + 1.0)) * los \
            + np.sqrt(beta / (rician_k + 1.0)) * nlos
        users.append(UserChannel(vector=h, angle=float(theta), pathloss=float(beta)))
    return users


def make_scenario(num_tx=32, num_rx=32, num_users=6,
                  target_angles_deg=(-45.0, 30.0, 60.0),
                  target_ranges_m=(50.0, 60.0, 70.0),
                  noise_power_dbm=-96.0, power_budget_dbm=20.0,
                  snapshots=1024, rician_k=0.1, overload=0.7, seed=1,
                  user_range_min_m=50.0, user_range_max_m=55.0,
                  user_angle_min_deg=-25.0, user_angle_max_deg=25.0,
                  pathloss_exponent=2.2, pathloss_ref_db=-30.0, pathloss_ref_m=1.0):
    """Build a full scenario from physical-unit parameters.

    These keywords and their defaults are the standard deployment and
    the one declaration of it: the config's [scenario] section takes
    exactly these keys, each cast by the type of its default. Powers
    enter in dBm and angles in degrees here (the config boundary); the
    stored scenario uses watts and radians.
    """
    array = ArrayConfig(num_tx=num_tx, num_rx=num_rx)
    targets = make_targets(np.deg2rad(target_angles_deg), target_ranges_m,
                           substream(seed, "rcs"),
                           exponent=pathloss_exponent,
                           c0_db=pathloss_ref_db, d0=pathloss_ref_m)
    users = make_user_channels(num_users, num_tx, rician_k,
                               substream(seed, "channels"),
                               range_m=(user_range_min_m, user_range_max_m),
                               sector_deg=(user_angle_min_deg, user_angle_max_deg),
                               exponent=pathloss_exponent,
                               c0_db=pathloss_ref_db, d0=pathloss_ref_m)
    return Scenario(array=array, targets=tuple(targets), users=tuple(users),
                    noise_power=dbm_to_watts(noise_power_dbm),
                    power_budget=dbm_to_watts(power_budget_dbm),
                    snapshots=snapshots, rician_k=rician_k,
                    overload=overload, seed=int(seed))
