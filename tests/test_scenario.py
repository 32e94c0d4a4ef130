"""Scenario construction: units, path loss, channels, and determinism."""

import numpy as np
import pytest

from isacbeam.arrays import steering
from isacbeam.scenario import (
    DEFAULT_PATHLOSS_EXPONENT,
    Scenario,
    Target,
    dbm_to_watts,
    make_scenario,
    make_targets,
    make_user_channels,
    pathloss,
    substream,
    watts_to_dbm,
)


def test_pathloss_reference_values():
    assert pathloss(1.0, exponent=2.0, c0_db=-30.0, d0=1.0) == pytest.approx(
        1e-3, rel=1e-12)
    assert pathloss(10.0, exponent=2.0, c0_db=-30.0, d0=1.0) == pytest.approx(
        1e-5, rel=1e-12)
    val = pathloss(50.0, exponent=2.2, c0_db=-30.0, d0=1.0)
    assert val == pytest.approx(1e-3 * 50.0 ** -2.2, rel=1e-12)
    assert val == pytest.approx(1.83e-7, rel=5e-3)


def test_pathloss_rejects_distances_below_reference():
    with pytest.raises(ValueError):
        pathloss(0.5)
    with pytest.raises(ValueError):
        pathloss(10.0, d0=0.0)


@pytest.mark.parametrize("distance", [50.0, np.float64(50.0)], ids=["float", "float64"])
def test_pathloss_overflow_raises_for_every_input_type(distance):
    with pytest.raises(OverflowError):
        pathloss(distance, exponent=-300)


def test_dbm_watts_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-96.0) == pytest.approx(2.512e-13, rel=1e-3)
    assert watts_to_dbm(dbm_to_watts(17.3)) == pytest.approx(17.3, rel=1e-12)


def test_make_targets_round_trip_power_convention():
    # reflection power at the reference distance equals the reference loss
    tg, = make_targets([0.3], [1.0], substream(0, "rcs"))
    assert abs(tg.rcs) ** 2 == pytest.approx(1e-3, rel=1e-9)


def test_make_targets_power_decays_with_doubled_exponent():
    t1, t2 = make_targets([0.1, 0.2], [50.0, 100.0], substream(0, "rcs"))
    ratio = abs(t2.rcs) ** 2 / abs(t1.rcs) ** 2
    assert ratio == pytest.approx(0.5 ** (2 * DEFAULT_PATHLOSS_EXPONENT), rel=1e-9)


def test_make_targets_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        make_targets([0.1, 0.2], [50.0], substream(0, "rcs"))


def test_make_targets_phases_deterministic():
    a = make_targets([0.1, -0.4], [50.0, 60.0], substream(5, "rcs"))
    b = make_targets([0.1, -0.4], [50.0, 60.0], substream(5, "rcs"))
    assert all(x.rcs == y.rcs for x, y in zip(a, b))


def test_user_channels_line_of_sight_limit():
    users = make_user_channels(3, 16, 1e12, substream(1, "channels"))
    for u in users:
        los = np.sqrt(u.pathloss) * steering(u.angle, 16)
        assert np.linalg.norm(u.vector - los) <= 1e-4 * np.linalg.norm(u.vector)


def test_user_channels_rayleigh_second_moment():
    users = make_user_channels(10000, 8, 0.0, substream(2, "channels"))
    scaled = [np.linalg.norm(u.vector) ** 2 / u.pathloss for u in users]
    assert np.mean(scaled) == pytest.approx(8.0, rel=0.03)


def test_user_channels_los_power_fraction():
    # collapse the sector to one geometry; then the squared mean channel
    # over the mean channel power estimates kappa / (kappa + 1)
    kappa = 0.5
    users = make_user_channels(20000, 8, kappa, substream(3, "channels"),
                               range_m=(52.0, 52.0), sector_deg=(10.0, 10.0))
    h = np.array([u.vector for u in users])
    frac = np.linalg.norm(h.mean(axis=0)) ** 2 / np.mean(
        np.abs(h) ** 2, axis=0).sum()
    assert frac == pytest.approx(kappa / (kappa + 1.0), rel=0.03)


def test_user_geometry_stays_in_sector_and_annulus():
    s = make_scenario(num_tx=8, num_rx=8, num_users=40, seed=9)
    lo, hi = pathloss(55.0), pathloss(50.0)
    for u in s.users:
        assert -np.deg2rad(25.0) - 1e-12 <= u.angle <= np.deg2rad(25.0) + 1e-12
        assert lo - 1e-18 <= u.pathloss <= hi + 1e-18


def test_make_scenario_bitwise_deterministic():
    a = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=4)
    b = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=4)
    assert np.array_equal(a.channel_matrix(), b.channel_matrix())
    assert all(x.rcs == y.rcs for x, y in zip(a.targets, b.targets))
    c = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=5)
    assert not np.array_equal(a.channel_matrix(), c.channel_matrix())


def test_substreams_differ_by_label_and_index():
    base = substream(1, "noise").standard_normal(4)
    assert np.array_equal(base, substream(1, "noise").standard_normal(4))
    assert not np.array_equal(base, substream(1, "probe").standard_normal(4))
    assert not np.array_equal(base, substream(1, "noise", 3).standard_normal(4))
    assert not np.array_equal(base, substream(2, "noise").standard_normal(4))


def test_scenario_derived_quantities():
    s = make_scenario(num_tx=8, num_rx=8, num_users=2,
                      power_budget_dbm=20.0, seed=1)
    assert s.num_users == 2 and s.num_targets == 3
    assert s.num_streams == 10
    assert s.row_radius == pytest.approx(np.sqrt(s.power_budget / 8.0), rel=1e-12)
    h = s.channel_matrix()
    assert h.shape == (8, 2)
    assert np.array_equal(h[:, 0], s.users[0].vector)
    assert np.allclose(s.target_angles(), np.deg2rad([-45.0, 30.0, 60.0]),
                       atol=1e-12)


def test_scenario_validation():
    s = make_scenario(num_tx=4, num_rx=4, num_users=1, seed=1)
    with pytest.raises(ValueError):
        Scenario(array=s.array, targets=(), users=s.users, noise_power=1.0,
                 power_budget=1.0, snapshots=4, rician_k=0.1, overload=0.5,
                 seed=1)
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, overload=1.5)
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, snapshots=0)
    for key in ("noise_power_dbm", "power_budget_dbm"):
        for dbm in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make_scenario(num_tx=4, num_rx=4, num_users=1, **{key: dbm})
    with pytest.raises(ValueError):
        Target(angle=0.1, range_m=50.0, rcs=0.0)
    with pytest.raises(ValueError):
        Target(angle=0.1, range_m=-2.0, rcs=1.0)


@pytest.mark.parametrize("angle, range_m, rcs", [
    (np.deg2rad(100.0), 50.0, 1.0), (-np.pi / 2 - 1e-9, 50.0, 1.0), (np.nan, 50.0, 1.0),
    (0.1, np.nan, 1.0), (0.1, 0.0, 1.0), (0.1, 50.0, np.inf), (0.1, 50.0, complex(np.nan)),
])
def test_target_rejects_angle_outside_half_plane_or_bad_range(angle, range_m, rcs):
    with pytest.raises(ValueError):
        Target(angle=angle, range_m=range_m, rcs=rcs)


def test_target_accepts_endfire():
    assert Target(angle=np.pi / 2, range_m=50.0, rcs=1.0).angle == np.pi / 2
    assert Target(angle=np.deg2rad(-90.0), range_m=50.0, rcs=1.0).range_m == 50.0


@pytest.mark.parametrize("num_users, rician_k", [(-1, 0.1), (2, -1.0)])
def test_user_channels_reject_negative_count_or_rician_factor(num_users, rician_k):
    with pytest.raises(ValueError, match="nonnegative"):
        make_user_channels(num_users, 4, rician_k, substream(1, "channels"))
