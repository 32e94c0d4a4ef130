"""Steering vectors, point-target channels, and beampattern evaluation."""

import numpy as np
import pytest

from isacbeam.arrays import (
    ArrayConfig,
    beampattern_gain,
    beampattern_trace,
    steering,
    steering_derivative,
    steering_matrix,
    target_channel,
)
from reference import target_channel_derivative


def test_steering_broadside_is_all_ones():
    assert np.array_equal(steering(0.0, 4), np.ones(4, dtype=complex))


def test_steering_endfire_alternates_sign():
    assert np.allclose(steering(np.pi / 2, 2), [1.0, -1.0], atol=1e-12)


def test_steering_thirty_degrees():
    assert np.allclose(steering(np.pi / 6, 3), [1.0, 1j, -1.0], atol=1e-12)


def test_steering_unit_modulus_and_first_entry():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=25):
        a = steering(theta, 9)
        assert a[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)


def test_steering_rejects_angles_outside_half_plane():
    with pytest.raises(ValueError):
        steering(2.0, 4)
    with pytest.raises(ValueError):
        steering(-1.6, 4)
    with pytest.raises(ValueError):
        steering(0.0, 0)


def test_steering_derivative_examples():
    assert np.allclose(steering_derivative(0.0, 2), [0.0, 1j * np.pi], atol=1e-12)
    # cos(pi/2) only vanishes to machine precision, hence the loose floor
    assert np.abs(steering_derivative(np.pi / 2, 5)).max() <= 1e-9


def test_steering_derivative_matches_central_differences():
    rng = np.random.default_rng(11)
    n, h = 8, 1e-6
    for theta in rng.uniform(-1.4, 1.4, size=100):
        fd = (steering(theta + h, n) - steering(theta - h, n)) / (2.0 * h)
        d = steering_derivative(theta, n)
        assert np.linalg.norm(d - fd) <= 1e-5 * max(np.linalg.norm(d), 1.0)


def test_target_channel_examples():
    cfg = ArrayConfig(num_tx=2, num_rx=2)
    assert np.array_equal(target_channel(0.0, cfg), np.ones((2, 2), dtype=complex))
    assert np.allclose(target_channel(np.pi / 6, cfg),
                       [[1.0, -1j], [1j, 1.0]], atol=1e-12)


def test_target_channel_is_rank_one():
    cfg = ArrayConfig(num_tx=6, num_rx=4)
    g = target_channel(0.7, cfg)
    assert g.shape == (4, 6)
    s = np.linalg.svd(g, compute_uv=False)
    assert s[0] > 0 and s[1] <= 1e-12 * s[0]


def test_target_channel_derivative_vanishes_at_endfire():
    cfg = ArrayConfig(num_tx=3, num_rx=3)
    assert np.abs(target_channel_derivative(np.pi / 2, cfg)).max() <= 1e-8


def test_target_channel_derivative_corner_entry_zero():
    # both factors of the (0, 0) product rule term are exactly zero
    cfg = ArrayConfig(num_tx=4, num_rx=4)
    assert target_channel_derivative(0.3, cfg)[0, 0] == 0.0 + 0.0j


def test_target_channel_derivative_matches_central_differences():
    cfg = ArrayConfig(num_tx=5, num_rx=4)
    rng = np.random.default_rng(4)
    h = 1e-6
    for theta in np.concatenate([[0.0], rng.uniform(-1.4, 1.4, size=20)]):
        fd = (target_channel(theta + h, cfg)
              - target_channel(theta - h, cfg)) / (2.0 * h)
        d = target_channel_derivative(theta, cfg)
        assert np.linalg.norm(d - fd) <= 1e-5 * np.linalg.norm(d)


def test_beampattern_identity_covariance_gain():
    for theta in (-1.0, 0.0, 0.5):
        assert beampattern_gain(np.eye(7), theta) == pytest.approx(7.0, rel=1e-12)


def test_beampattern_matched_rank_one_peak():
    m, theta0 = 6, 0.4
    a = steering(theta0, m)
    assert beampattern_gain(np.outer(a, a.conj()), theta0) == pytest.approx(
        m * m, rel=1e-10)


def test_beampattern_matches_double_sum():
    rng = np.random.default_rng(9)
    m = 5
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = b @ b.conj().T
    theta = -0.8
    a = steering(theta, m)
    acc = 0.0
    for p in range(m):
        for q in range(m):
            acc += (np.conj(a[p]) * r[p, q] * a[q]).real
    assert beampattern_gain(r, theta) == pytest.approx(acc, rel=1e-10)


def test_beampattern_nonnegative_for_psd_covariances():
    rng = np.random.default_rng(21)
    m = 6
    for _ in range(100):
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        assert beampattern_gain(b @ b.conj().T, theta) >= -1e-9


def test_beampattern_rejects_non_hermitian():
    r = np.eye(3, dtype=complex)
    r[0, 1] = 1.0
    with pytest.raises(ValueError):
        beampattern_gain(r, 0.0)
    with pytest.raises(ValueError):
        beampattern_gain(np.ones((2, 3)), 0.0)


def test_beampattern_trace_matches_pointwise_gain():
    rng = np.random.default_rng(2)
    m = 4
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r = b @ b.conj().T
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 61)
    direct = np.array([beampattern_gain(r, t) for t in thetas])
    assert np.allclose(beampattern_trace(r, thetas), direct,
                       rtol=1e-10, atol=1e-9)


def test_steering_matrix_stacks_columns():
    thetas = np.array([-0.3, 0.0, 0.9])
    a = steering_matrix(thetas, 5)
    assert a.shape == (5, 3)
    for i, theta in enumerate(thetas):
        assert np.allclose(a[:, i], steering(theta, 5), atol=1e-12)
    with pytest.raises(ValueError):
        steering_matrix(np.array([0.0, 1.8]), 5)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(num_tx=0, num_rx=4)
