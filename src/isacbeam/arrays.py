"""Uniform linear array geometry.

Steering vectors and their angle derivatives for a half-wavelength ULA,
the rank-1 transmit-to-receive target channel of a mono-static setup,
and beampattern gain evaluation. Angles are radians everywhere in the
library; degrees appear only at the CLI boundary.
"""

from dataclasses import dataclass

import numpy as np

HALF_PLANE = (-np.pi / 2, np.pi / 2)


@dataclass(frozen=True)
class ArrayConfig:
    """Co-located transmit/receive half-wavelength ULA sizes."""

    num_tx: int
    num_rx: int

    def __post_init__(self):
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("array needs at least one element per side")


def _check_angle(theta):
    theta = float(theta)
    if not (HALF_PLANE[0] <= theta <= HALF_PLANE[1]):
        # model only valid in the front half-plane; reject, do not wrap
        raise ValueError(f"angle {theta} rad outside [-pi/2, pi/2]")
    return theta


def _degree_grid(step_deg):
    """Angles from -90 to 90 degrees in ``step_deg`` steps, rounded to a
    whole number of steps; both ends are grid points. The MUSIC scan
    and the beampattern CSV share it."""
    return np.linspace(-90.0, 90.0, int(round(180.0 / step_deg)) + 1)


def steering(theta, n):
    """Steering vector of an n-element half-wavelength ULA.

    Parameters
    ----------
    theta : float
        Azimuth in radians, inside [-pi/2, pi/2].
    n : int
        Number of elements.

    Returns
    -------
    ndarray, shape (n,), complex
        Entry m is exp(j*pi*m*sin(theta)); entry 0 is exactly 1.
    """
    theta = _check_angle(theta)
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.exp(1j * np.pi * np.sin(theta) * np.arange(n))


def steering_derivative(theta, n):
    """Derivative of ``steering`` with respect to the angle.

    Equals j*pi*cos(theta) * (0, 1, ..., n-1) elementwise times the
    steering vector; entry 0 is exactly 0.
    """
    theta = _check_angle(theta)
    return 1j * np.pi * np.cos(theta) * np.arange(n) * steering(theta, n)


def steering_matrix(thetas, n):
    """Stack steering vectors for a grid of angles, shape (n, len(thetas))."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size and (thetas.min() < HALF_PLANE[0] or thetas.max() > HALF_PLANE[1]):
        raise ValueError("grid angle outside [-pi/2, pi/2]")
    return np.exp(1j * np.pi * np.outer(np.arange(n), np.sin(thetas)))


def target_channel(theta, cfg):
    """Round-trip channel a_R(theta) a_T(theta)^H of one point target."""
    a_r = steering(theta, cfg.num_rx)
    a_t = steering(theta, cfg.num_tx)
    return np.outer(a_r, a_t.conj())


def beampattern_gain(r_x, theta):
    """Transmit beampattern gain a^H R_X a at one angle, linear power.

    ``r_x`` must be Hermitian; the (numerically tiny) imaginary residue
    of the quadratic form is discarded.
    """
    r_x = np.asarray(r_x)
    if r_x.ndim != 2 or r_x.shape[0] != r_x.shape[1]:
        raise ValueError("covariance must be square")
    herm_gap = np.abs(r_x - r_x.conj().T).max()
    scale = max(np.abs(r_x).max(), 1.0)
    if herm_gap > 1e-9 * scale:
        raise ValueError("covariance is not Hermitian")
    a = steering(theta, r_x.shape[0])
    val = a.conj() @ r_x @ a
    return float(val.real)


def beampattern_trace(r_x, thetas):
    """Vectorized ``beampattern_gain`` over an angle grid."""
    r_x = np.asarray(r_x)
    a = steering_matrix(thetas, r_x.shape[0])
    return np.einsum("mi,mn,ni->i", a.conj(), r_x, a).real
