"""Echo synthesis, MUSIC angle estimation, and the Monte-Carlo harness.

The transmitted frame is X = W Xt with a probe matrix Xt whose rows are
exactly orthogonal, (1/L) Xt Xt^H = I, so the sample covariance of X
equals W W^H without estimation error. The receiver sees Y = G X + N,
the sum of the rank-1 target channels G applied to X plus white complex
Gaussian noise, and estimates the angles with classical MUSIC (no
forward-backward averaging, no diagonal loading) from the sample
covariance Y Y^H / L: signal subspace of that covariance, the
denominator ||E_n^H a||^2 of the pseudospectrum on a grid, its deepest
interior minima as the peaks, one parabolic refinement per peak.

The Monte-Carlo trials never form the L-column frame. With the probe
Xt = sqrt(L) Q^H (Q an L x N orthonormal basis) and P_perp = I - Q Q^H,

    Y Y^H = (sqrt(L) GW + N Q)(sqrt(L) GW + N Q)^H + N P_perp N^H,

where N Q is an M_R x N matrix of iid CN(0, sigma^2) entries and, given
Q, N P_perp N^H is an independent complex Wishart matrix with L - N
degrees of freedom and scale sigma^2 I. ``echo_covariance`` draws both
terms directly, the Wishart one as sigma^2 T T^H with the Bartlett
factor T (Goodman, Ann. Math. Stat. 34, 1963), so a trial costs the
same at any L. It has the same law as the sample covariance of
``synthesize_waveform`` followed by ``synthesize_echo``, which remain as
the explicit-frame reference, but not the same realisation.

MUSIC scans the grid on two levels. The denominator d(theta) is first
evaluated on every w-th grid column, w the largest multiple of 8 steps
within 1 / (4 M_R) rad (16 steps at 32 elements and 0.02 deg). From the
absolute entries of the signal eigenvectors, |d''| <= C, so
min(ends) - h^2 C / 8 bounds d on each coarse interval of h rad; the
fine grid is evaluated only on the intervals whose bound does not rule
out the T deepest minima (on average 425 of 9001 columns per trial in
the benchmark's 32-element sweep). The peaks are those of the full
scan, bit for bit: each fine product covers a multiple of 8 grid
columns, because OpenBLAS computes the last (count mod 4) columns of a
product on another path. That holds with single-threaded BLAS; threaded
OpenBLAS splits a one-target product (a gemv) mid-grid, so there the
full scan's own last bits depend on the thread count. The full scan
runs instead when w < 8, when the coarse values show fewer than T
interior minima (every degraded trial ends there), when the kept
intervals reach the grid's last column, when the signal-subspace form
of d cancels below CANCEL_TOL (a noiseless target on the grid), or when
the T-th and (T+1)-th deepest minima are equal (a real-valued
covariance gives mirror-image nulls), because the full scan's sort
decides which of them it keeps.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import steering_matrix, target_channel
from .scenario import substream

MUSIC_GRID_DEG = 0.02
CANCEL_TOL = 1e-6   # relative signal-subspace denominator below which MUSIC re-evaluates


@dataclass(frozen=True)
class EchoBatch:
    received: np.ndarray     # M_R x L
    transmitted: np.ndarray  # M_T x L
    noise_power: float

    @property
    def covariance(self):
        """Sample covariance Y Y^H / L of the received block."""
        y = self.received
        return y @ y.conj().T / y.shape[1]


@dataclass(frozen=True)
class EstimationReport:
    true_angles: np.ndarray        # sorted, radians
    mean_estimates: np.ndarray     # per-target mean of the estimates
    per_target_mse: np.ndarray     # mean squared error per target, rad^2
    rmse: float                    # sqrt(mean over trials of summed squared error)
    rcrlb: float                   # sqrt(sum-CRLB), radians
    trials: int
    degraded_trials: int           # trials with fewer resolved peaks than targets


def _cgauss(rng, shape, scale=1.0):
    """scale * (real draw + 1j * imaginary draw), real part drawn first;
    written into the parts of one array, with no complex temporaries."""
    out = np.empty(shape, dtype=complex)
    out.real = scale * rng.standard_normal(shape)
    out.imag = scale * rng.standard_normal(shape)
    return out


def _check_snapshots(num_streams, snapshots):
    if snapshots < num_streams:
        raise ValueError("need at least as many snapshots as streams "
                         f"({snapshots} < {num_streams})")


def echo_channel(scenario):
    """Summed target channel G = sum_t alpha_t a_r(theta_t) a_t(theta_t)^H."""
    channel = np.zeros((scenario.array.num_rx, scenario.array.num_tx), dtype=complex)
    for tg in scenario.targets:
        channel += tg.rcs * target_channel(tg.angle, scenario.array)
    return channel


def synthesize_probe(num_streams, snapshots, rng):
    """Probe matrix Xt, shape (num_streams, L), with (1/L) Xt Xt^H = I."""
    _check_snapshots(num_streams, snapshots)
    q, _ = np.linalg.qr(_cgauss(rng, (snapshots, num_streams)))
    return np.sqrt(snapshots) * q.conj().T


def synthesize_waveform(w, snapshots, rng):
    """Transmit frame X = W Xt; its sample covariance is exactly W W^H."""
    w = np.asarray(w)
    return w @ synthesize_probe(w.shape[1], snapshots, rng)


def synthesize_echo(scenario, x, rng):
    """Receive-side echo: summed target reflections of X plus noise."""
    x = np.asarray(x)
    if x.shape[0] != scenario.array.num_tx:
        raise ValueError("waveform row count does not match the transmit array")
    noise = _cgauss(rng, (scenario.array.num_rx, x.shape[1]),
                    np.sqrt(scenario.noise_power / 2.0))
    return EchoBatch(received=echo_channel(scenario) @ x + noise, transmitted=x,
                     noise_power=scenario.noise_power)


def echo_covariance(scenario, gw, rng):
    """Sample covariance Y Y^H / L of one echo, without forming X or Y.

    ``gw`` is G W (M_R x N). Returns (S S^H + sigma^2 T T^H) / L with
    S = sqrt(L) GW + N Q and the M_R x min(M_R, L - N) lower-trapezoidal
    Bartlett factor T of the complex Wishart term: CN(0, 1) below the
    diagonal, sqrt(Gamma(L - N - i)) on it. Draws, in order, N Q, the
    full M_R x min(M_R, L - N) block whose strictly lower part feeds T,
    then the diagonal. Same law as the explicit frame's ``covariance``
    (see the module docstring), independent of L in cost.
    """
    gw = np.asarray(gw)
    if gw.shape[0] != scenario.array.num_rx:
        raise ValueError("G W row count does not match the receive array")
    snapshots = scenario.snapshots
    m_r, num_streams = gw.shape
    _check_snapshots(num_streams, snapshots)
    dof = snapshots - num_streams
    m = min(m_r, dof)
    s = np.sqrt(snapshots) * gw + _cgauss(rng, (m_r, num_streams),
                                          np.sqrt(scenario.noise_power / 2.0))
    t = np.tril(_cgauss(rng, (m_r, m), np.sqrt(0.5)), k=-1)
    np.fill_diagonal(t, np.sqrt(rng.gamma(dof - np.arange(m))))
    return (s @ s.conj().T + scenario.noise_power * (t @ t.conj().T)) / snapshots


@functools.lru_cache(maxsize=4)
def _grid(num_rx, grid_deg):
    if not grid_deg > 0:
        raise ValueError(f"MUSIC grid step must be positive, got {grid_deg}")
    points = int(round(180.0 / grid_deg)) + 1
    theta_deg = np.linspace(-90.0, 90.0, points)
    a = steering_matrix(np.deg2rad(theta_deg), num_rx)
    a_norm2 = (a.real ** 2 + a.imag ** 2).sum(axis=0)
    # every caller shares the cached arrays
    theta_deg.flags.writeable = a.flags.writeable = a_norm2.flags.writeable = False
    return theta_deg, a, a_norm2


def _subspace_power(basis, a):
    p = basis.conj().T @ a
    return (p.real ** 2 + p.imag ** 2).sum(axis=0)


def _eigenvectors(cov, num_targets):
    """Eigenvectors of an M_R x M_R covariance, ascending eigenvalues."""
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("MUSIC needs a square M_R x M_R sample covariance")
    if num_targets >= cov.shape[0]:
        raise ValueError("need more receive antennas than targets")
    return np.linalg.eigh(cov)[1]


def _denominator(vecs, num_targets, a, a_norm2):
    """||E_n^H a||^2 on every column of ``a``.

    Evaluated as ||a||^2 - ||E_s^H a||^2 on the T-column signal subspace
    E_s; columns where that difference falls below CANCEL_TOL * M_R
    (near-total cancellation at a noiseless target) are re-evaluated on
    the noise subspace E_n, so the result is never negative there.
    """
    m = vecs.shape[0]
    denom = a_norm2 - _subspace_power(vecs[:, m - num_targets:], a)
    close = np.flatnonzero(denom < CANCEL_TOL * m)
    if close.size:
        denom[close] = _subspace_power(vecs[:, : m - num_targets], a[:, close])
    return denom


def _music_denominator(cov, num_targets, grid_deg):
    """(grid in degrees, ||E_n^H a||^2 on it) for an M_R x M_R covariance."""
    vecs = _eigenvectors(cov, num_targets)
    theta_deg, a, a_norm2 = _grid(vecs.shape[0], grid_deg)
    return theta_deg, _denominator(vecs, num_targets, a, a_norm2)


def _local_maxima(x):
    """Indices of the local maxima of a 1-D array, in ascending order.

    A maximum is a run of equal samples (one sample or a flat top) with
    a strictly smaller neighbour on each side; a flat top reports its
    middle index, (left + right) // 2, and edge samples never qualify.
    Neighbours are compared, never subtracted, so runs of inf are flat
    tops and NaN is no maximum. Same indices as
    ``scipy.signal.find_peaks(x)``.
    """
    x = np.asarray(x)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    level = x[starts]
    # run i is a maximum when runs i - 1 and i + 1 both lie below it;
    # it ends where run i + 1 starts
    top = (level[:-2] < level[1:-1]) & (level[2:] < level[1:-1])
    return (starts[1:-1][top] + starts[2:][top] - 1) // 2


def _pick_peaks(theta_deg, denom, num_targets):
    """Peaks of the pseudospectrum 1 / denom, taken as the deepest interior
    minima of ``denom`` without dividing; one parabolic refinement each."""
    idx = _local_maxima(-denom)
    degraded = idx.size < num_targets
    if idx.size == 0:
        return np.full(num_targets, np.deg2rad(theta_deg[int(np.argmin(denom))])), True
    order = np.argsort(denom[idx])
    picked = list(idx[order[:num_targets]])
    while len(picked) < num_targets:
        picked.append(picked[0])
    return _refined(theta_deg, denom, picked, theta_deg[1] - theta_deg[0]), degraded


def _refined(theta_deg, denom, picked, step):
    """Sorted radians of the minima ``picked``, each moved to the vertex of
    the parabola through it and its two neighbours, by at most one step."""
    out = []
    for i in picked:
        curv = denom[i - 1] - 2.0 * denom[i] + denom[i + 1]
        shift = 0.5 * (denom[i - 1] - denom[i + 1]) / curv if curv > 0 else 0.0
        shift = float(np.clip(shift, -1.0, 1.0))
        out.append(theta_deg[i] + shift * step)
    return np.sort(np.deg2rad(out))


def _interval_floors(basis, ends, h):
    """Lower bounds of d = ||a||^2 - ||E_s^H a||^2 on consecutive intervals.

    ``ends`` holds d at the interval ends, at most h rad apart. With
    a_m = exp(j pi m sin theta) and g_i = e_i^H a, |g_i| <= P_i,
    |g_i'| <= pi D1_i and |g_i''| <= pi^2 D2_i + pi D1_i, where P_i, D1_i
    and D2_i sum |e_im| weighted by 1, m and m^2. As
    (|g_i|^2)'' = 2 Re(g_i'' conj(g_i)) + 2 |g_i'|^2,
    |d''| <= C = 2 pi^2 sum_i (D1_i^2 + P_i D2_i) + 2 pi sum_i P_i D1_i,
    and d >= min(ends) - h^2 C / 8 on each interval.
    """
    mag = np.abs(basis)
    m = np.arange(mag.shape[0])
    p, d1, d2 = mag.sum(axis=0), m @ mag, (m * m) @ mag
    curv = 2.0 * np.pi**2 * np.sum(d1 * d1 + p * d2) + 2.0 * np.pi * np.sum(p * d1)
    return np.minimum(ends[:-1], ends[1:]) - h * h * curv / 8.0


def _coarse_stride(num_rx, points):
    """Largest multiple of 8 steps of a grid of ``points`` over 180 deg
    that spans at most 1 / (4 M_R) rad."""
    return 8 * int(np.rad2deg(0.25 / num_rx) * (points - 1) / (8 * 180.0))


@functools.lru_cache(maxsize=4)
def _coarse_grid(num_rx, grid_deg, stride):
    """Every ``stride``-th column of the MUSIC grid and its last column:
    (steering vectors, padded with zero columns to a multiple of 8, and
    their ||a||^2). OpenBLAS computes the last (count mod 4) columns of a
    product on another path; with the padding every coarse value but the
    last has the bits of the same column of the full scan."""
    _, a, a_norm2 = _grid(num_rx, grid_deg)
    cols = np.append(np.arange(0, a.shape[1] - 1, stride), a.shape[1] - 1)
    a_coarse = np.zeros((num_rx, -(-cols.size // 8) * 8), dtype=complex)
    a_coarse[:, : cols.size] = a[:, cols]
    norm2 = a_norm2[cols]
    a_coarse.flags.writeable = norm2.flags.writeable = False
    return a_coarse, norm2


def _two_level_scan(vecs, num_targets, grid_deg):
    """The full scan's (angles, False) from part of the grid, or None when
    the full scan must run.

    Let v be the T-th smallest interior minimum of the coarse values c.
    Each coarse minimum has a fine minimum at or below it between its
    coarse neighbours, so the T deepest fine minima lie at or below v.
    An interval whose ``_interval_floors`` bound exceeds v + 1e-9 M_R (a
    margin for rounding) holds no fine value at or below v. The others
    are evaluated, widened by 8 columns on each side so that every
    minimum there has both neighbours; a minimum found at the end of a
    span lies above v and is never among the T deepest. Every value
    has the full scan's bits except c at the last column, which bounds
    only the last interval, and a kept last interval falls back.
    """
    m = vecs.shape[0]
    theta_deg, a, a_norm2 = _grid(m, grid_deg)
    w = _coarse_stride(m, theta_deg.size)
    if w < 8:
        return None
    step = theta_deg[1] - theta_deg[0]
    basis = vecs[:, m - num_targets:]
    a_coarse, norm2 = _coarse_grid(m, grid_deg, w)
    c = norm2 - _subspace_power(basis, a_coarse)[: norm2.size]
    minima = c[_local_maxima(-c)]
    if minima.size < num_targets:
        return None
    level = np.partition(minima, num_targets - 1)[num_targets - 1]
    keep = _interval_floors(basis, c, np.deg2rad(w * step)) <= level + 1e-9 * m
    # 8-column groups of the kept intervals, and one more on each side
    groups = np.repeat(keep, w // 8)
    groups[1:] |= groups[:-1]
    groups[:-1] |= groups[1:]
    spans = 8 * np.flatnonzero(np.diff(np.concatenate(([0], groups, [0])))).reshape(-1, 2)
    if spans[-1, 1] >= theta_deg.size - 1:
        return None
    d = np.concatenate([a_norm2[lo:hi] - _subspace_power(basis, a[:, lo:hi])
                        for lo, hi in spans])
    if d.min() < CANCEL_TOL * m:
        return None
    idx = _local_maxima(-d)
    idx = idx[np.argsort(d[idx])]
    # which of two equal minima the full scan keeps depends on its sort
    if idx.size > num_targets and d[idx[num_targets - 1]] == d[idx[num_targets]]:
        return None
    theta = np.concatenate([theta_deg[lo:hi] for lo, hi in spans])
    return _refined(theta, d, idx[:num_targets], step), False


def _full_scan(vecs, num_targets, grid_deg):
    """``_pick_peaks`` on the denominator at every grid column."""
    theta_deg, a, a_norm2 = _grid(vecs.shape[0], grid_deg)
    return _pick_peaks(theta_deg, _denominator(vecs, num_targets, a, a_norm2), num_targets)


def music_estimate(cov, num_targets, grid_deg=MUSIC_GRID_DEG):
    """MUSIC angle estimates from one echo sample covariance (M_R x M_R).

    Returns (angles, degraded): exactly ``num_targets`` sorted radians.
    When the pseudospectrum shows fewer separated peaks, the strongest
    is repeated to fill and ``degraded`` is True. The grid is scanned on
    two levels where a curvature bound certifies which cells can hold
    the deepest minima, and in full otherwise (see the module
    docstring); both give the same bits.
    """
    vecs = _eigenvectors(cov, num_targets)
    found = _two_level_scan(vecs, num_targets, grid_deg)
    return found if found is not None else _full_scan(vecs, num_targets, grid_deg)


def monte_carlo(scenario, result, trials, grid_deg=MUSIC_GRID_DEG):
    """Repeated-echo estimation study of one design.

    Each trial draws its echo covariance from a substream keyed by the
    trial index, so the aggregate is reproducible bit for bit. Trials
    run in the covariance domain (``echo_covariance``: Gaussian N Q
    term plus a Bartlett-drawn complex Wishart term, Goodman 1963), one
    at a time, so time and memory per trial do not depend on L and
    memory stays flat in the trial count. RMSE aggregates the
    per-trial summed squared angle error, matching the stacked-parameter
    convention of the reported RCRLB.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    gw = echo_channel(scenario) @ np.asarray(result.w)
    truth = np.sort(scenario.target_angles())
    t = truth.size
    sq_sums = np.zeros(trials)
    per_target = np.zeros((trials, t))
    estimates = np.zeros((trials, t))
    degraded = 0
    for i in range(trials):
        rng = substream(scenario.seed, "trial", i)
        cov = echo_covariance(scenario, gw, rng)
        est, bad = music_estimate(cov, t, grid_deg=grid_deg)
        degraded += bad
        err = est - truth
        estimates[i] = est
        per_target[i] = err**2
        sq_sums[i] = float(err @ err)
    return EstimationReport(
        true_angles=truth,
        mean_estimates=estimates.mean(axis=0),
        per_target_mse=per_target.mean(axis=0),
        rmse=float(np.sqrt(sq_sums.mean())),
        rcrlb=float(result.rcrlb),
        trials=trials,
        degraded_trials=int(degraded))
