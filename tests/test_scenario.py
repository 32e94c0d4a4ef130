"""Scenario construction: units, path loss, channels, checks and determinism."""

import dataclasses

import numpy as np
import pytest

from isacbeam.arrays import steering
from isacbeam.cli import main
from isacbeam.scenario import (
    Scenario,
    dbm_to_watts,
    make_scenario,
    make_targets,
    make_user_channels,
    pathloss,
    substream,
)
from reference import watts_to_dbm

# make_scenario's path-loss and user-geometry defaults, which the helpers
# take as required keywords
PATHLOSS = dict(exponent=2.2, c0_db=-30.0, d0=1.0)
USER_GEOMETRY = dict(range_m=(50.0, 55.0), sector_deg=(-25.0, 25.0), **PATHLOSS)


def _small(**changes):
    """A 4 x 4 scenario with one user, with ``changes`` applied by hand."""
    return dataclasses.replace(make_scenario(num_tx=4, num_rx=4, num_users=1, seed=1),
                               **changes)


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
        pathloss(0.5, **PATHLOSS)
    with pytest.raises(ValueError):
        pathloss(10.0, **{**PATHLOSS, "d0": 0.0})


@pytest.mark.parametrize("distance", [50.0, np.float64(50.0)], ids=["float", "float64"])
def test_pathloss_overflow_raises_for_every_input_type(distance):
    with pytest.raises(OverflowError):
        pathloss(distance, **{**PATHLOSS, "exponent": -300})


def test_dbm_watts_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-96.0) == pytest.approx(2.512e-13, rel=1e-3)
    assert watts_to_dbm(dbm_to_watts(17.3)) == pytest.approx(17.3, rel=1e-12)


def test_make_targets_round_trip_power_convention():
    # reflection power at the reference distance equals the reference loss
    angles, (rcs,) = make_targets([0.3], [1.0], substream(0, "rcs"), **PATHLOSS)
    assert angles.tolist() == [0.3]
    assert abs(rcs) ** 2 == pytest.approx(1e-3, rel=1e-9)


def test_make_targets_power_decays_with_doubled_exponent():
    _, (r1, r2) = make_targets([0.1, 0.2], [50.0, 100.0], substream(0, "rcs"),
                               **PATHLOSS)
    ratio = abs(r2) ** 2 / abs(r1) ** 2
    assert ratio == pytest.approx(0.5 ** (2 * PATHLOSS["exponent"]), rel=1e-9)


def test_make_targets_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        make_targets([0.1, 0.2], [50.0], substream(0, "rcs"), **PATHLOSS)


def test_make_targets_phases_deterministic():
    a = make_targets([0.1, -0.4], [50.0, 60.0], substream(5, "rcs"), **PATHLOSS)[1]
    b = make_targets([0.1, -0.4], [50.0, 60.0], substream(5, "rcs"), **PATHLOSS)[1]
    assert np.array_equal(a, b)


def test_user_channels_line_of_sight_limit():
    h, angles = make_user_channels(3, 16, 1e12, substream(1, "channels"), **USER_GEOMETRY)
    for vector, angle in zip(h.T, angles):
        # the path loss gain beta is ||h||^2 / M_T in this limit
        los = np.linalg.norm(vector) / 4.0 * steering(angle, 16)
        assert np.linalg.norm(vector - los) <= 1e-4 * np.linalg.norm(vector)


def test_user_channels_rayleigh_second_moment():
    # one range, so one path loss gain
    h, _ = make_user_channels(10000, 8, 0.0, substream(2, "channels"),
                              **{**USER_GEOMETRY, "range_m": (52.0, 52.0)})
    scaled = (np.abs(h) ** 2).sum(axis=0) / pathloss(52.0, **PATHLOSS)
    assert np.mean(scaled) == pytest.approx(8.0, rel=0.03)


def test_user_channels_los_power_fraction():
    # collapse the sector to one geometry; then the squared mean channel
    # over the mean channel power estimates kappa / (kappa + 1)
    kappa = 0.5
    h = make_user_channels(20000, 8, kappa, substream(3, "channels"),
                           range_m=(52.0, 52.0), sector_deg=(10.0, 10.0),
                           **PATHLOSS)[0].T
    frac = np.linalg.norm(h.mean(axis=0)) ** 2 / np.mean(
        np.abs(h) ** 2, axis=0).sum()
    assert frac == pytest.approx(kappa / (kappa + 1.0), rel=0.03)


def test_user_geometry_stays_in_sector_and_annulus():
    # line of sight, so each user's path loss gain is ||h_k||^2 / M_T
    s = make_scenario(num_tx=8, num_rx=8, num_users=40, rician_k=1e12, seed=9)
    lo, hi = pathloss(55.0, **PATHLOSS), pathloss(50.0, **PATHLOSS)
    assert np.all(np.abs(s.user_angles) <= np.deg2rad(25.0) + 1e-12)
    gains = (np.abs(s.channels) ** 2).sum(axis=0) / 8
    assert np.all((lo * (1 - 1e-5) <= gains) & (gains <= hi * (1 + 1e-5)))


def test_make_scenario_bitwise_deterministic():
    a = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=4)
    b = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=4)
    assert np.array_equal(a.channels, b.channels)
    assert np.array_equal(a.target_rcs, b.target_rcs)
    c = make_scenario(num_tx=8, num_rx=8, num_users=3, seed=5)
    assert not np.array_equal(a.channels, c.channels)


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
    assert s.channels.shape == (8, 2) and s.user_angles.shape == (2,)
    assert s.target_rcs.shape == (3,)
    assert np.allclose(s.target_angles, np.deg2rad([-45.0, 30.0, 60.0]),
                       atol=1e-12)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _small(target_angles=[], target_rcs=[])
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, overload=1.5)
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, snapshots=0)
    for key in ("noise_power_dbm", "power_budget_dbm"):
        for dbm in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                make_scenario(num_tx=4, num_rx=4, num_users=1, **{key: dbm})
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, target_angles_deg=(5.0,),
                      target_ranges_m=(-2.0,))


@pytest.mark.parametrize("angle, range_m, rcs", [
    (np.deg2rad(100.0), 50.0, 1.0), (-np.pi / 2 - 1e-9, 50.0, 1.0), (np.nan, 50.0, 1.0),
    (0.1, np.nan, 1.0), (0.1, 0.0, 1.0), (0.1, 50.0, np.inf), (0.1, 50.0, complex(np.nan)),
])
def test_target_rejects_angle_outside_half_plane_or_bad_range(angle, range_m, rcs):
    # a bad range makes the path loss fail or its coefficient NaN
    with pytest.raises(ValueError):
        _, amplitude = make_targets([0.0], [range_m], substream(0, "rcs"), **PATHLOSS)
        _small(target_angles=[angle], target_rcs=rcs * amplitude)


def test_target_accepts_endfire():
    s = _small(target_angles=[np.pi / 2, np.deg2rad(-90.0)], target_rcs=[1.0, 1.0])
    assert s.target_angles.tolist() == [np.pi / 2, -np.pi / 2]


def _cli_exit(tmp_path, ini):
    path = tmp_path / "exp.ini"
    path.write_text(ini, encoding="utf-8")
    return main(["design", "--config", str(path)])


@pytest.mark.parametrize("changes", [
    dict(target_angles=[0.1], target_rcs=[0.0]),
    dict(target_angles=[0.1], target_rcs=[np.inf]),
    dict(target_angles=[0.1], target_rcs=[complex(np.nan)]),
    dict(target_angles=[np.nan], target_rcs=[1.0]),
    dict(target_angles=[np.deg2rad(90.5)], target_rcs=[1.0]),
    dict(user_angles=[-np.pi / 2 - 1e-9]),
    dict(channels=np.full((4, 1), np.nan + 0j)),
    dict(channels=np.ones((4, 1)) * np.inf),
    dict(channels=np.ones((4, 2))),
    dict(user_angles=[0.1, 0.2]),
    dict(num_tx=0),
    dict(num_rx=0),
], ids=["zero_rcs", "inf_rcs", "nan_rcs", "nan_angle", "angle_past_90", "user_angle_past_90",
        "nan_channel", "inf_channel", "channel_columns", "user_angles_length", "num_tx_0",
        "num_rx_0"])
def test_scenario_checks_every_input_in_one_place(changes):
    with pytest.raises(ValueError):
        _small(**changes)


def test_scenario_checks_reach_make_scenario_and_the_cli(tmp_path):
    with pytest.raises(ValueError):
        make_scenario(num_tx=0, num_rx=4, num_users=1)
    with pytest.raises(ValueError):
        make_scenario(num_tx=4, num_rx=4, num_users=1, target_angles_deg=(91.0,),
                      target_ranges_m=(50.0,))
    # 1e150 m underflows the user path loss gain to 0
    assert pathloss(1e150, **PATHLOSS) == 0.0
    ini = "[scenario]\nuser_range_min_m = 1e150\nuser_range_max_m = 1e150\n"
    assert _cli_exit(tmp_path, ini) == 2
    assert _cli_exit(tmp_path, "[scenario]\nnum_tx = 0\n") == 2


def test_scenario_arrays_are_read_only():
    s = make_scenario(num_tx=4, num_rx=4, num_users=1, seed=1)
    for name in ("channels", "target_angles", "target_rcs", "user_angles"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0] = 0.0
    # a hand-built scenario copies its inputs
    h = np.ones((4, 1), dtype=complex)
    assert not np.shares_memory(_small(channels=h).channels, h)


@pytest.mark.parametrize("num_users, rician_k", [(-1, 0.1), (2, -1.0)])
def test_user_channels_reject_negative_count_or_rician_factor(num_users, rician_k):
    with pytest.raises(ValueError, match="nonnegative"):
        make_user_channels(num_users, 4, rician_k, substream(1, "channels"),
                           **USER_GEOMETRY)
