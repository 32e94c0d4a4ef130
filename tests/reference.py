"""Reference helpers that only the tests call.

Each is a direct, unoptimised form of something the library computes
another way (the explicit transmit frame, the per-user cone vector and
its projection, the dense channel derivative, the full MUSIC
denominator on the grid), or a generator of test inputs on the
manifold.
"""

import numpy as np

from isacbeam import radar
from isacbeam.arrays import steering, steering_derivative
from isacbeam.manifold import project_tangent, retract


def random_point(num_rows, num_cols, radius, rng):
    """Random manifold point (rows of a complex Gaussian, renormalized)."""
    z = rng.standard_normal((num_rows, num_cols)) \
        + 1j * rng.standard_normal((num_rows, num_cols))
    return retract(z, radius)


def random_tangent(w, radius, rng):
    z = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
    return project_tangent(w, z, radius)


def x_of(inst, w):
    """Cone vector [h_k^H W, sigma, sqrt(Gamma_k) h_k^H w_k] of one
    ``comm.SocInstance``."""
    w = np.asarray(w)
    if w.shape[1] != inst.num_streams:
        raise ValueError("cone instance does not match beamformer size")
    p = inst.matrix @ w
    return np.concatenate([p, [inst.sigma, np.sqrt(inst.big_gamma) * p[inst.user]]])


def soc_project(x):
    """Closed-form projection onto the cone {||head|| <= |tail|}.

    Two cases on (||head||, |tail|); outside the cone the projection
    averages the two and keeps both the head direction and the tail
    phase (phase factor 1 when the tail is exactly zero).
    """
    x = np.asarray(x)
    if x.size < 2:
        raise ValueError("cone vectors have at least two entries")
    head, tail = x[:-1], x[-1]
    hn = np.linalg.norm(head)
    tm = abs(tail)
    if hn <= tm:
        return x.copy()
    mid = 0.5 * (hn + tm)
    phase = tail / tm if tm > 0 else 1.0
    y = np.empty_like(x)
    y[:-1] = mid * head / hn
    y[-1] = mid * phase
    return y


def target_channel_derivative(theta, cfg):
    """Angle derivative of ``arrays.target_channel`` (product rule)."""
    a_r = steering(theta, cfg.num_rx)
    a_t = steering(theta, cfg.num_tx)
    da_r = steering_derivative(theta, cfg.num_rx)
    da_t = steering_derivative(theta, cfg.num_tx)
    return np.outer(da_r, a_t.conj()) + np.outer(a_r, da_t.conj())


def watts_to_dbm(p_w):
    if p_w <= 0:
        raise ValueError("power must be positive")
    return 10.0 * np.log10(p_w) + 30.0


def synthesize_waveform(w, snapshots, rng):
    """Transmit frame X = W Xt; its sample covariance is exactly W W^H."""
    w = np.asarray(w)
    return w @ radar.synthesize_probe(w.shape[1], snapshots, rng)


def music_denominator(cov, num_targets, grid_deg):
    """(grid in degrees, ||E_n^H a||^2 on it) for an M_R x M_R covariance,
    evaluated on every grid column."""
    vecs = radar._eigenvectors(cov, num_targets)
    theta_deg, a, a_norm2 = radar._grid(vecs.shape[0], grid_deg)
    return theta_deg, radar._denominator(vecs, num_targets, a, a_norm2)
