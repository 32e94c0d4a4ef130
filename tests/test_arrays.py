"""Steering vectors, point-target channels, and beampattern evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbeam.arrays import beampattern, steering, steering_derivative, target_channel
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
    cfg = (2, 2)   # (num_tx, num_rx)
    assert np.array_equal(target_channel(0.0, *cfg), np.ones((2, 2), dtype=complex))
    assert np.allclose(target_channel(np.pi / 6, *cfg),
                       [[1.0, -1j], [1j, 1.0]], atol=1e-12)


def test_target_channel_is_rank_one():
    cfg = (6, 4)   # (num_tx, num_rx)
    g = target_channel(0.7, *cfg)
    assert g.shape == (4, 6)
    s = np.linalg.svd(g, compute_uv=False)
    assert s[0] > 0 and s[1] <= 1e-12 * s[0]


def test_target_channel_derivative_vanishes_at_endfire():
    cfg = (3, 3)   # (num_tx, num_rx)
    assert np.abs(target_channel_derivative(np.pi / 2, *cfg)).max() <= 1e-8


def test_target_channel_derivative_corner_entry_zero():
    # both factors of the (0, 0) product rule term are exactly zero
    cfg = (4, 4)   # (num_tx, num_rx)
    assert target_channel_derivative(0.3, *cfg)[0, 0] == 0.0 + 0.0j


def test_target_channel_derivative_matches_central_differences():
    cfg = (5, 4)   # (num_tx, num_rx)
    rng = np.random.default_rng(4)
    h = 1e-6
    for theta in np.concatenate([[0.0], rng.uniform(-1.4, 1.4, size=20)]):
        fd = (target_channel(theta + h, *cfg)
              - target_channel(theta - h, *cfg)) / (2.0 * h)
        d = target_channel_derivative(theta, *cfg)
        assert np.linalg.norm(d - fd) <= 1e-5 * np.linalg.norm(d)


def test_beampattern_identity_covariance_gain():
    # W = I: W W^H = I, the flat pattern of M_T
    for theta in (-1.0, 0.0, 0.5):
        assert beampattern(np.eye(7), theta) == pytest.approx(7.0, rel=1e-12)


def test_beampattern_matched_rank_one_peak():
    m, theta0 = 6, 0.4
    a = steering(theta0, m)
    assert beampattern(a[:, None], theta0) == pytest.approx(m * m, rel=1e-10)


def test_beampattern_matches_double_sum():
    # ||W^H a||^2 is the quadratic form a^H R_X a of R_X = W W^H
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
    assert beampattern(b, theta) == pytest.approx(acc, rel=1e-10)


def test_beampattern_nonnegative_for_psd_covariances():
    rng = np.random.default_rng(21)
    m = 6
    for _ in range(100):
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        assert beampattern(b, theta) >= 0.0


def test_beampattern_trace_matches_pointwise_gain():
    # one call over an angle grid gives the one-angle values to rounding
    # (a matrix product in place of matrix-vector products)
    rng = np.random.default_rng(2)
    m = 4
    b = rng.standard_normal((m, m + 2)) + 1j * rng.standard_normal((m, m + 2))
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 61)
    direct = np.array([beampattern(b, t) for t in thetas])
    assert np.allclose(beampattern(b, thetas), direct, rtol=1e-10, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 16), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_beampattern_is_the_covariance_quadratic_form(m, n, seed):
    # ||W^H a||^2 equals a^H (W W^H) a within 1e-12 relative and is never negative
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    w *= 10.0 ** rng.uniform(-6.0, 6.0)
    thetas = rng.uniform(-np.pi / 2, np.pi / 2, 25)
    a = steering(thetas, m)
    quad = np.einsum("mi,mn,ni->i", a.conj(), w @ w.conj().T, a).real
    gains = beampattern(w, thetas)
    assert (gains >= 0.0).all()
    # relative to a^H a tr(W W^H), the bound the quadratic form's rounding scales with
    assert np.abs(gains - quad).max() <= 1e-12 * m * np.vdot(w, w).real


def test_steering_of_many_angles_stacks_one_angle_columns():
    # every column of the array form has the bits of the one-angle call,
    # and both those of the one-angle formula exp(j pi sin(theta) m)
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 129))
        thetas = rng.uniform(-np.pi / 2, np.pi / 2, int(rng.integers(1, 20)))
        thetas[rng.uniform(size=thetas.size) < 0.1] = rng.choice([-np.pi / 2, 0.0, np.pi / 2])
        a, d = steering(thetas, n), steering_derivative(thetas, n)
        assert a.shape == d.shape == (n, thetas.size)
        for i, theta in enumerate(thetas):
            ref = np.exp(1j * np.pi * np.sin(float(theta)) * np.arange(n))
            assert a[:, i].tobytes() == steering(theta, n).tobytes() == ref.tobytes()
            assert d[:, i].tobytes() == steering_derivative(theta, n).tobytes()
    assert steering([], 3).shape == (3, 0)


@pytest.mark.parametrize("bad", [np.nan, 1.8, -1.6, np.inf])
def test_steering_of_many_angles_rejects_any_bad_angle(bad):
    for thetas in ([bad, 0.1], [0.2, 0.3, bad], [bad]):
        for call in (steering, steering_derivative):
            with pytest.raises(ValueError, match="outside"):
                call(np.array(thetas), 3)
        with pytest.raises(ValueError, match="outside"):
            beampattern(np.eye(3), thetas)
    with pytest.raises(ValueError, match="outside"):
        steering(bad, 3)


def test_array_config_validation():
    # an array side without elements has no steering vector
    for sizes in ((0, 4), (4, 0)):
        with pytest.raises(ValueError):
            target_channel(0.1, *sizes)
