"""Echo synthesis, MUSIC angle estimation, and the Monte-Carlo harness.

The transmitted frame is X = W Xt with a probe matrix Xt whose rows are
exactly orthogonal, (1/L) Xt Xt^H = I, so the sample covariance of X
equals W W^H without estimation error. The receiver sees the sum of the
rank-1 target channels applied to X plus white complex Gaussian noise,
and estimates the angles with classical MUSIC (no forward-backward
averaging, no diagonal loading): noise subspace of the echo sample
covariance, grid pseudospectrum, tallest local maxima, one parabolic
refinement per peak.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from .arrays import steering_matrix, target_channel
from .scenario import substream

MUSIC_GRID_DEG = 0.02


@dataclass(frozen=True)
class EchoBatch:
    received: np.ndarray     # M_R x L
    transmitted: np.ndarray  # M_T x L
    noise_power: float


@dataclass(frozen=True)
class EstimationReport:
    true_angles: np.ndarray        # sorted, radians
    mean_estimates: np.ndarray     # per-target mean of the estimates
    per_target_mse: np.ndarray     # mean squared error per target, rad^2
    rmse: float                    # sqrt(mean over trials of summed squared error)
    rcrlb: float                   # sqrt(sum-CRLB), radians
    trials: int
    degraded_trials: int           # trials with fewer resolved peaks than targets


def synthesize_probe(num_streams, snapshots, rng):
    """Probe matrix Xt, shape (num_streams, L), with (1/L) Xt Xt^H = I."""
    if snapshots < num_streams:
        raise ValueError("need at least as many snapshots as streams "
                         f"({snapshots} < {num_streams})")
    z = rng.standard_normal((snapshots, num_streams)) \
        + 1j * rng.standard_normal((snapshots, num_streams))
    q, _ = np.linalg.qr(z)
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
    channel = np.zeros((scenario.array.num_rx, scenario.array.num_tx), dtype=complex)
    for tg in scenario.targets:
        channel += tg.rcs * target_channel(tg.angle, scenario.array)
    sigma = np.sqrt(scenario.noise_power / 2.0)
    noise = sigma * (rng.standard_normal((scenario.array.num_rx, x.shape[1]))
                     + 1j * rng.standard_normal((scenario.array.num_rx, x.shape[1])))
    return EchoBatch(received=channel @ x + noise, transmitted=x,
                     noise_power=scenario.noise_power)


@functools.lru_cache(maxsize=4)
def _grid(num_rx, grid_deg):
    points = int(round(180.0 / grid_deg)) + 1
    theta_deg = np.linspace(-90.0, 90.0, points)
    a = steering_matrix(np.deg2rad(theta_deg), num_rx)
    # every caller shares the cached arrays
    theta_deg.flags.writeable = a.flags.writeable = False
    return theta_deg, a


def music_estimate(echo, num_targets, grid_deg=MUSIC_GRID_DEG):
    """MUSIC angle estimates from one echo batch.

    Returns (angles, degraded): exactly ``num_targets`` sorted radians.
    When the pseudospectrum shows fewer separated peaks, the strongest
    is repeated to fill and ``degraded`` is True.
    """
    y = echo.received
    m = y.shape[0]
    if num_targets >= m:
        raise ValueError("need more receive antennas than targets")
    cov = y @ y.conj().T / y.shape[1]
    _, vecs = np.linalg.eigh(cov)
    noise_basis = vecs[:, : m - num_targets]
    theta_deg, a = _grid(m, grid_deg)
    denom = (np.abs(noise_basis.conj().T @ a) ** 2).sum(axis=0)
    pseudo = 1.0 / denom
    idx, props = find_peaks(pseudo, height=0.0)
    degraded = idx.size < num_targets
    if idx.size == 0:
        return np.full(num_targets, np.deg2rad(theta_deg[int(np.argmax(pseudo))])), True
    order = np.argsort(props["peak_heights"])[::-1]
    picked = list(idx[order[:num_targets]])
    while len(picked) < num_targets:
        picked.append(picked[0])
    step = theta_deg[1] - theta_deg[0]
    out = []
    for i in picked:
        if 0 < i < denom.size - 1:
            curv = denom[i - 1] - 2.0 * denom[i] + denom[i + 1]
            shift = 0.5 * (denom[i - 1] - denom[i + 1]) / curv if curv > 0 else 0.0
            shift = float(np.clip(shift, -1.0, 1.0))
        else:
            shift = 0.0
        out.append(theta_deg[i] + shift * step)
    return np.sort(np.deg2rad(out)), degraded


def monte_carlo(scenario, result, trials, grid_deg=MUSIC_GRID_DEG):
    """Repeated-echo estimation study of one design.

    Each trial draws its probe matrix and noise from a substream keyed
    by the trial index, so the aggregate is reproducible bit for bit.
    RMSE aggregates the per-trial summed squared angle error, matching
    the stacked-parameter convention of the reported RCRLB.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    truth = np.sort(scenario.target_angles())
    t = truth.size
    sq_sums = np.zeros(trials)
    per_target = np.zeros((trials, t))
    estimates = np.zeros((trials, t))
    degraded = 0
    for i in range(trials):
        rng = substream(scenario.seed, "trial", i)
        x = synthesize_waveform(result.w, scenario.snapshots, rng)
        echo = synthesize_echo(scenario, x, rng)
        est, bad = music_estimate(echo, t, grid_deg=grid_deg)
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
