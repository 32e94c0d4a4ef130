"""Problem-instance construction.

A Scenario holds, as read-only arrays, what the design and the radar
read: the target angles and their complex reflection coefficients
(which absorb the round-trip path loss), the downlink user channels H
(Rician fading with a distance path loss) as columns and the users'
angles; beside them the array sizes, the noise power, the power budget
and a seed. All randomness flows through named Philox substreams of the
scenario seed so that every module draws independently and
reproducibly.

The standard deployment is declared once, as make_scenario's keyword
defaults; the helpers it calls take every geometry and path-loss value
as a required keyword.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from .arrays import HALF_PLANE, steering


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
class Scenario:
    """One problem instance, built by ``make_scenario`` or by hand.

    Either way the four arrays are copied as float or complex and made
    read-only, and every check of the instance runs here.
    """

    num_tx: int                 # M_T
    num_rx: int                 # M_R
    target_angles: np.ndarray   # radians, shape (T,)
    target_rcs: np.ndarray      # complex, shape (T,), includes round-trip path loss
    channels: np.ndarray        # H, shape (M_T, K), users as columns
    user_angles: np.ndarray     # radians, shape (K,)
    noise_power: float    # watts
    power_budget: float   # watts
    snapshots: int        # L
    overload: float       # delta in [0, 1]
    seed: int

    def __post_init__(self):
        for name, dtype in (("target_angles", float), ("target_rcs", complex),
                            ("channels", complex), ("user_angles", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("array needs at least one element per side")
        if self.target_angles.ndim != 1 or self.target_rcs.shape != self.target_angles.shape:
            raise ValueError("target angles and reflection coefficients must be "
                             "vectors of one length")
        if self.target_angles.size < 1:
            raise ValueError("need at least one target")
        # NaN fails each comparison
        if not np.all(np.abs(np.concatenate([self.target_angles, self.user_angles]))
                      <= HALF_PLANE[1]):
            raise ValueError("target and user angles must lie in [-pi/2, pi/2]")
        if not np.all(np.isfinite(self.target_rcs) & (self.target_rcs != 0)):
            raise ValueError("target reflection coefficients must be finite and nonzero")
        if self.channels.shape != (self.num_tx, self.user_angles.size):
            raise ValueError(f"channels have shape {self.channels.shape}, not "
                             f"M_T x K = {(self.num_tx, self.user_angles.size)}")
        if not np.all(np.isfinite(self.channels)):
            raise ValueError("channel entries must be finite")
        if not (0.0 < self.noise_power < np.inf and 0.0 < self.power_budget < np.inf):
            raise ValueError("noise power and power budget must be positive and finite")
        if self.snapshots < 1:
            raise ValueError("need at least one snapshot")
        if not (0.0 <= self.overload <= 1.0):
            raise ValueError("overload factor must lie in [0, 1]")

    @property
    def num_users(self):
        return self.user_angles.size

    @property
    def num_targets(self):
        return self.target_angles.size

    @property
    def num_streams(self):
        # total beamformer columns: K communication + M_T sensing
        return self.num_users + self.num_tx

    @property
    def row_radius(self):
        return float(np.sqrt(self.power_budget / self.num_tx))


def make_targets(angles, ranges, rng, *, exponent, c0_db, d0):
    """(angles, rcs): target angles and path-loss-derived reflection
    coefficients.

    The reflection power |alpha|^2 at range rho is the round-trip path
    loss 10^(c0_db/10) * (d0/rho)^(2*exponent), so the amplitude itself
    is sqrt of the reference loss times the one-way decay. Phases are
    uniform, drawn once from ``rng``.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    ranges = np.atleast_1d(np.asarray(ranges, dtype=float))
    if angles.shape != ranges.shape:
        raise ValueError("angles and ranges must have equal length")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=angles.size)
    rcs = np.array([np.sqrt(pathloss(rho, exponent=2.0 * exponent, c0_db=c0_db, d0=d0))
                    * np.exp(1j * phi) for rho, phi in zip(ranges, phases)], dtype=complex)
    return angles, rcs


def make_user_channels(num_users, num_tx, rician_k, rng, *, range_m, sector_deg,
                       exponent, c0_db, d0):
    """(channels, angles): Rician user channels in an annular sector, as
    the columns of an M_T x K matrix, and the users' angles in radians.

    h_k = sqrt(beta_k kappa/(kappa+1)) a_T(theta_k)
        + sqrt(beta_k/(kappa+1)) g_k,  g_k ~ CN(0, I).
    """
    if num_users < 0 or rician_k < 0:
        raise ValueError("user count and Rician factor must be nonnegative")
    if not -90.0 <= sector_deg[0] <= sector_deg[1] <= 90.0:
        raise ValueError(f"user sector {sector_deg} deg is not an interval in [-90, 90]")
    if not d0 <= range_m[0] <= range_m[1]:
        raise ValueError(f"user ranges {range_m} m are not an interval from {d0} m up")
    channels = np.empty((num_tx, num_users), dtype=complex)
    angles = np.empty(num_users)
    for k in range(num_users):
        angles[k] = np.deg2rad(rng.uniform(*sector_deg))
        rho = rng.uniform(*range_m)
        beta = pathloss(rho, exponent=exponent, c0_db=c0_db, d0=d0)
        if beta <= 0:
            # a range far enough out underflows the gain
            raise ValueError("path loss gain must be positive")
        los = steering(angles[k], num_tx)
        nlos = (rng.standard_normal(num_tx) + 1j * rng.standard_normal(num_tx)) / np.sqrt(2.0)
        channels[:, k] = np.sqrt(beta * rician_k / (rician_k + 1.0)) * los \
            + np.sqrt(beta / (rician_k + 1.0)) * nlos
    return channels, angles


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
    target_angles, target_rcs = make_targets(
        np.deg2rad(target_angles_deg), target_ranges_m, substream(seed, "rcs"),
        exponent=pathloss_exponent, c0_db=pathloss_ref_db, d0=pathloss_ref_m)
    channels, user_angles = make_user_channels(
        num_users, num_tx, rician_k, substream(seed, "channels"),
        range_m=(user_range_min_m, user_range_max_m),
        sector_deg=(user_angle_min_deg, user_angle_max_deg),
        exponent=pathloss_exponent, c0_db=pathloss_ref_db, d0=pathloss_ref_m)
    return Scenario(num_tx=num_tx, num_rx=num_rx, target_angles=target_angles,
                    target_rcs=target_rcs, channels=channels, user_angles=user_angles,
                    noise_power=dbm_to_watts(noise_power_dbm),
                    power_budget=dbm_to_watts(power_budget_dbm),
                    snapshots=snapshots, overload=overload, seed=int(seed))
