"""Uniform linear array geometry.

Steering vectors and their angle derivatives for a half-wavelength ULA,
from one formula for one angle or many (one column per angle), the
rank-1 transmit-to-receive target channel of a mono-static setup, and
the transmit beampattern ||W^H a||^2 read from the beamformer W. Angles
are radians everywhere in the library; degrees appear only at the CLI
boundary.
"""

import numpy as np

HALF_PLANE = (-np.pi / 2, np.pi / 2)


def _check_angles(thetas):
    thetas = np.asarray(thetas, dtype=float)
    # model only valid in the front half-plane; reject, do not wrap (NaN fails too)
    if not (np.abs(thetas) <= HALF_PLANE[1]).all():
        raise ValueError(f"angle outside [-pi/2, pi/2] rad in {thetas}")
    return thetas


def _degree_grid(step_deg):
    """Angles from -90 to 90 degrees in ``step_deg`` steps, rounded to a
    whole number of steps; both ends are grid points. The MUSIC scan
    and the beampattern CSV share it."""
    return np.linspace(-90.0, 90.0, int(round(180.0 / step_deg)) + 1)


def steering(thetas, n):
    """Steering vectors of an n-element half-wavelength ULA.

    Parameters
    ----------
    thetas : float or array_like
        Azimuths in radians, each inside [-pi/2, pi/2].
    n : int
        Number of elements.

    Returns
    -------
    ndarray, complex
        Shape (n,) for one angle, (n, len(thetas)) with one column per
        angle for an array. Entry m is exp(j*pi*m*sin(theta)); entry 0
        is exactly 1. A column has the bits of the one-angle call.
    """
    thetas = _check_angles(thetas)
    if n < 1:
        raise ValueError(f"an array side needs at least one element, got n = {n}")
    return np.exp(np.multiply.outer(np.arange(n), 1j * np.pi * np.sin(thetas)))


def steering_and_derivative(thetas, n):
    """(a, da): ``steering`` and its derivative with respect to the
    angle, in its shape, from one steering call.

    da equals j*pi*cos(theta) * (0, 1, ..., n-1) elementwise times a;
    its entry 0 is exactly 0.
    """
    a = steering(thetas, n)
    return a, np.multiply.outer(np.arange(n), 1j * np.pi * np.cos(thetas)) * a


def target_channel(theta, num_tx, num_rx):
    """Round-trip channel a_R(theta) a_T(theta)^H of one point target,
    shape (num_rx, num_tx)."""
    a_r = steering(theta, num_rx)
    a_t = steering(theta, num_tx)
    return np.outer(a_r, a_t.conj())


def beampattern(w, thetas):
    """Transmit beampattern a^H W W^H a = ||W^H a||^2 of beamformer W
    (M_T x N), linear power: a float for one angle, an array for many."""
    w = np.asarray(w)
    p = w.conj().T @ steering(thetas, w.shape[0])
    return (p.real ** 2 + p.imag ** 2).sum(axis=0)
