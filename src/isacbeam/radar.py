"""Echo synthesis, MUSIC angle estimation, and the Monte-Carlo harness.

The transmitted frame is X = W Xt with a probe matrix Xt whose rows are
exactly orthogonal, (1/L) Xt Xt^H = I, so the sample covariance of X
equals W W^H without estimation error. The receiver sees Y = G X + N,
the sum of the rank-1 target channels G applied to X plus white complex
Gaussian noise, and estimates the angles with classical MUSIC (no
forward-backward averaging, no diagonal loading) from the sample
covariance Y Y^H / L: signal subspace of that covariance, the
denominator ||E_n^H a||^2 of the pseudospectrum on a grid, its deepest
minima as the peaks, one parabolic refinement per peak. A minimum is an
interior grid sample strictly below both of its neighbours, so a flat
bottom of two or more equal samples has none.

The Monte-Carlo trials never form the L-column frame. With the probe
Xt = sqrt(L) Q^H (Q an L x N orthonormal basis) and P_perp = I - Q Q^H,

    Y Y^H = (sqrt(L) GW + N Q)(sqrt(L) GW + N Q)^H + N P_perp N^H,

where N Q is an M_R x N matrix of iid CN(0, sigma^2) entries and, given
Q, N P_perp N^H is an independent complex Wishart matrix with L - N
degrees of freedom and scale sigma^2 I. ``_trial_noise`` draws both
terms directly, the Wishart one as sigma^2 T T^H with the Bartlett
factor T (Goodman, Ann. Math. Stat. 34, 1963), so a trial costs the
same at any L. A trial's covariance has the law of Y Y^H / L of the echo
Y that ``synthesize_echo`` returns for the frame W Xt
(``synthesize_probe``), which remain as the reference, but not the same
realisation.

MUSIC evaluates the denominator d(theta) = ||a||^2 - ||E_s^H a||^2, which
equals ||E_n^H a||^2, as a real trigonometric polynomial of degree
M_R - 1 in pi sin(theta): its 2 M_R - 1 coefficients are the diagonal
sums of E_s E_s^H (``_coefficients``, the form Root-MUSIC factors), so a
trial is one real row, whatever T is, and d is that row times a table of
cos(pi k sin theta) and sin(pi k sin theta), k = 1..M_R-1, on the grid,
padded with NaN columns to whole 8-column groups, so d is NaN at a pad
and never a minimum there. The one cached plan that ``_grid`` builds
for each (M_R, step) keeps sin theta on the padded grid and the table
at the coarse columns alone. The fine level reads the rest from
read-only chunks of 16 groups that the plan makes on their first read
and keeps, so a plan holds the table columns that scans read: 0.66 MB
of the 4.5 MB table in the benchmark's 32-element sweep, and the whole
table only when trials keep the whole grid. The grid is scanned on two
levels. d is first evaluated on the plan's coarse columns, every w-th
grid column and the last, w the largest multiple of 8 steps within
1 / (4 M_R) rad and at least 8 (16 steps at 32 elements and 0.02 deg).
From the coefficients, |d''| <= C, so min(ends) - h^2 C / 8 bounds d
on each coarse interval of h rad, whatever h; the fine level evaluates
only the 8-column groups of the intervals whose bound does not rule
out the T deepest minima. A trial with fewer than T interior coarse
minima (every degraded trial) keeps every group. In the benchmark's
32-element sweep a trial keeps 202 of the 9001 columns on average, and
the 26 or 14 trials of a block keep 192-352 together, which the fine
level evaluates once for all of them, one product per chunk that each
span of their union crosses. Each product has at least two rows and
covers whole 8-column groups: numpy runs a one-row product as a gemv,
and OpenBLAS computes the last (count mod 4) columns of a product on
another path, while a gemm's rows do not depend on how many there are.
A chunk's columns have the bits of the whole table's, whatever its
width. So every value has the bits of one product over the whole
padded grid, whatever the stack, its union and the chunks. That holds
with single-threaded BLAS; threaded OpenBLAS may split a product
elsewhere, so there the last bits depend on the thread count.

``monte_carlo_sweep`` runs the trials of designs that share one noise
key: the scenario seed, M_R, N = K + M_T, L and the noise power. Every
design of one sweep command shares it, and any other list raises
ValueError; ``monte_carlo`` is the call with one design. Each trial
draws from its own substream, so every design sees the same trial noise
(common random numbers) and the differences in RMSE between modes and
powers are paired. Each block of trials draws its noise, N Q and
sigma^2 T T^H, once on the calling thread; each design then forms its
covariances with one stacked product, eigendecomposes them with one
stacked ``eigh``, and turns them into coefficients, the coarse level and
the interval floors of all of its trials at once, then runs the fine
level, the peak pick and the refinement once per stack of trials (one
stack per block in the benchmark's sweep).

The designs of a block run on min(CPUs available, designs) threads:
the calling thread and a pool, which lives for the call, take them from
one queue. numpy releases the GIL in ``eigh``, the products and the
FFTs. With one design or one CPU no thread starts and the thread-pool
module is not imported, so ``monte_carlo`` runs on the calling thread
alone. A block holds as many trials as BLOCK_BYTES of working memory
holds (at least one), counting the working set of every design in
flight, so memory stays flat in the trial count whatever the thread
count. Each design writes only its own rows of the results, and a
trial's estimate does not depend on its stack or its thread, so no
result depends on the CPU count.
``music_estimate`` and the one-trial covariance of ``tests/reference.py``
are stacks of one over the same code, so with single-threaded BLAS
every trial's estimate is theirs bit for bit.
"""

import contextlib
import functools
import os
import queue
from dataclasses import dataclass

import numpy as np

from .arrays import _degree_grid, steering, target_channel
from .scenario import substream

MUSIC_GRID_DEG = 0.02
CANCEL_TOL = 1e-6   # relative signal-subspace denominator below which MUSIC re-evaluates
BLOCK_BYTES = 2**22  # working memory of one block of Monte-Carlo trials


@dataclass(frozen=True)
class EstimationReport:
    true_angles: np.ndarray        # sorted, radians
    mean_estimates: np.ndarray     # per-target mean of the estimates
    per_target_mse: np.ndarray     # mean squared error per target, rad^2
    rmse: float                    # sqrt(mean over trials of summed squared error)
    rcrlb: float                   # sqrt(sum-CRLB), radians
    trials: int
    degraded_trials: int           # trials with fewer resolved peaks than targets
    full_scans: int                # trials the coarse MUSIC level could not certify


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
    channel = np.zeros((scenario.num_rx, scenario.num_tx), dtype=complex)
    for theta, rcs in zip(scenario.target_angles, scenario.target_rcs):
        channel += rcs * target_channel(theta, scenario.num_tx, scenario.num_rx)
    return channel


def synthesize_probe(num_streams, snapshots, rng):
    """Probe matrix Xt, shape (num_streams, L), with (1/L) Xt Xt^H = I."""
    _check_snapshots(num_streams, snapshots)
    q, _ = np.linalg.qr(_cgauss(rng, (snapshots, num_streams)))
    return np.sqrt(snapshots) * q.conj().T


def synthesize_echo(scenario, x, rng):
    """Receive-side echo Y = G X + N (M_R x L): summed target reflections
    of the frame X plus white noise."""
    x = np.asarray(x)
    if x.shape[0] != scenario.num_tx:
        raise ValueError("waveform row count does not match the transmit array")
    noise = _cgauss(rng, (scenario.num_rx, x.shape[1]),
                    np.sqrt(scenario.noise_power / 2.0))
    return echo_channel(scenario) @ x + noise


def _trial_noise(m_r, num_streams, snapshots, noise_power, rngs):
    """(N Q, sigma^2 T T^H) for each generator in ``rngs``, stacked; T is
    the M_R x min(M_R, L - N) lower-trapezoidal Bartlett factor,
    CN(0, 1) below the diagonal and sqrt(Gamma(L - N - i)) on it.

    Each generator makes one standard-normal draw holding, in order, the
    real and imaginary parts of N Q and of the full Bartlett block, whose
    strictly lower part feeds T (Philox normals do not depend on how a
    draw is split into calls), then one gamma draw; the product T T^H
    runs once over the stack.
    """
    _check_snapshots(num_streams, snapshots)
    dof = snapshots - num_streams
    m = min(m_r, dof)
    n_s, n_t = m_r * num_streams, m_r * m
    shapes = dof - np.arange(m)
    z = np.empty((len(rngs), 2 * (n_s + n_t)))
    roots = np.empty((len(rngs), m))
    for row, root, rng in zip(z, roots, rngs):
        rng.standard_normal(out=row)
        root[:] = rng.gamma(shapes)
    parts = np.split(z, np.cumsum([n_s, n_s, n_t]), axis=1)
    noise = np.empty((len(rngs), m_r, num_streams), dtype=complex)
    scale = np.sqrt(noise_power / 2.0)
    noise.real = scale * parts[0].reshape(noise.shape)
    noise.imag = scale * parts[1].reshape(noise.shape)
    t = np.empty((len(rngs), m_r, m), dtype=complex)
    t.real = np.sqrt(0.5) * parts[2].reshape(t.shape)
    t.imag = np.sqrt(0.5) * parts[3].reshape(t.shape)
    t[:, ~np.tri(m_r, m, -1, dtype=bool)] = 0.0
    t[:, np.arange(m), np.arange(m)] = np.sqrt(roots)
    return noise, noise_power * (t @ _hermitian(t))


def _covariances(gw, snapshots, noise, wishart):
    """(S S^H + sigma^2 T T^H) / L for each trial of a ``_trial_noise``
    stack, with S = N Q + sqrt(L) GW."""
    s = noise + np.sqrt(snapshots) * gw
    return (s @ _hermitian(s) + wishart) / snapshots


def _hermitian(x):
    """Conjugate transpose of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


_CHUNK = 128  # columns of a table chunk: whole 8-column groups


def _table(num_rx, sin):
    """Read-only cos(pi k sin theta) for k = 1..M_R-1, then sin, at each of
    ``sin``. The phases are written into the sine rows, then turned into
    cosines and sines in place, so the build allocates no second table."""
    table = np.empty((2 * (num_rx - 1), sin.size))
    phase = table[num_rx - 1:]
    np.multiply.outer(np.pi * np.arange(1, num_rx), sin, out=phase)
    np.cos(phase, out=table[: num_rx - 1])
    np.sin(phase, out=phase)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class _ScanPlan:
    num_rx: int           # M_R
    sin: np.ndarray       # sin(theta) on the grid, padded with NaN to whole 8-column groups
    stride: int           # coarse stride w in grid steps, a multiple of 8
    interval: float       # w grid steps in radians, the coarse level's interval
    coarse: np.ndarray    # the table at every w-th grid column and the last
    chunks: dict          # chunk index -> its read-only table columns, made on first read

    def tables(self, lo, hi):
        """The table's columns lo..hi-1 of the padded grid, as one slice of
        each chunk that the span crosses. A chunk is made on its first read
        and published with ``dict.setdefault``, so every thread reads the
        same array; a span of whole 8-column groups cuts whole groups."""
        for i in range(lo // _CHUNK, -(-hi // _CHUNK)):
            chunk = self.chunks.get(i)
            if chunk is None:
                chunk = self.chunks.setdefault(
                    i, _table(self.num_rx, self.sin[i * _CHUNK:(i + 1) * _CHUNK]))
            yield chunk[:, max(lo - i * _CHUNK, 0): hi - i * _CHUNK]


@functools.lru_cache(maxsize=4)
def _grid(num_rx, grid_deg):
    """The ``_ScanPlan`` of the MUSIC grid, shared by every caller.

    The table's 2 (M_R - 1) rows evaluate the denominator's trigonometric
    polynomial (``_coefficients``) at the grid points. The plan keeps sin
    theta on the grid, padded with NaN to whole 8-column groups, so the
    denominator is NaN at a pad and never a minimum there. It keeps the
    table only at the coarse columns, and makes the rest in read-only
    chunks of _CHUNK columns as the fine level first reads them, so a
    plan holds the columns that scans read, not the whole table. w is
    the largest multiple of 8 steps within 1 / (4 M_R) rad, and at least 8.
    """
    if not grid_deg > 0:
        raise ValueError(f"MUSIC grid step must be positive, got {grid_deg}")
    theta_deg = _degree_grid(grid_deg)
    points = theta_deg.size
    sin = np.full(points + -points % 8, np.nan)
    np.sin(np.deg2rad(theta_deg, out=sin[:points]), out=sin[:points])
    sin.flags.writeable = False
    w = 8 * max(1, int(np.rad2deg(0.25 / num_rx) * (points - 1) / (8 * 180.0)))
    coarse = _table(num_rx, sin[np.append(np.arange(0, points - 1, w), points - 1)])
    # one grid step; a one-point grid has one coarse column and no interval
    step = theta_deg[min(1, points - 1)] - theta_deg[0]
    return _ScanPlan(num_rx, sin, w, np.deg2rad(w * step), coarse, {})


def _coefficients(basis):
    """The denominator d = ||a||^2 - ||E_s^H a||^2 of a stack of signal
    bases (B x M_R x T) as B rows (c_0, a_1..a_{M_R-1}, b_1..b_{M_R-1}):
    d(theta) = c_0 + sum_k a_k cos(pi k u) + b_k sin(pi k u), u = sin(theta).

    With a_m = exp(j pi m u), ||E_s^H a||^2 = sum_k r_k exp(j pi k u) over
    |k| < M_R, r_k = sum_m (E_s E_s^H)_{m, m+k} the diagonal sums and
    r_{-k} = conj(r_k), so c_0 = M_R - r_0, a_k = -2 Re r_k and
    b_k = 2 Im r_k (the form Root-MUSIC factors; Barabell, ICASSP 1983).
    The r_k are the FFT autocorrelation of the T eigenvectors: with S the
    summed |FFT|^2 of the columns zero-padded to 2 M_R, r_k = FFT(S)_k / (2 M_R).
    r_0 is computed, not taken as T.
    """
    m = basis.shape[-2]
    spectrum = np.fft.fft(basis, n=2 * m, axis=-2)
    r = np.fft.rfft((spectrum.real ** 2 + spectrum.imag ** 2).sum(axis=-1))[..., :m] / (2 * m)
    return np.concatenate([m - r[..., :1].real, -2.0 * r[..., 1:].real, 2.0 * r[..., 1:].imag],
                          axis=-1)


def _denominators(coeffs, table):
    """d = c_0 + (a, b) . table on every column of ``table``, one row per
    coefficient row. The product always has at least two rows: numpy runs
    a one-row product as a gemv, whose bits differ from a gemm's, and a
    gemm's rows do not depend on how many rows it has."""
    rows = coeffs[:, 1:] if len(coeffs) > 1 else np.repeat(coeffs[:, 1:], 2, axis=0)
    d = (rows @ table)[: len(coeffs)]
    d += coeffs[:, :1]
    return d


def _refined(theta_deg, denom, picked, columns):
    """Sorted radians of the minima ``picked`` (a row of column indices
    per row of ``denom``, at the grid columns ``columns``), each moved to
    the vertex of the parabola through it and its two neighbours, by at
    most one step."""
    rows = np.arange(len(picked))[:, None]
    left, mid, right = (denom[rows, picked + k] for k in (-1, 0, 1))
    curv = left - 2.0 * mid + right
    shift = np.zeros(picked.shape)
    np.divide(0.5 * (left - right), curv, out=shift, where=curv > 0)
    step = theta_deg[1] - theta_deg[0]
    return np.sort(np.deg2rad(theta_deg[columns] + np.clip(shift, -1.0, 1.0) * step), axis=1)


def _interval_floors(coeffs, ends, h):
    """Lower bounds of d on consecutive intervals, from its ``_coefficients``.

    ``ends`` holds d at the interval ends, at most h rad apart. Each term
    of d is rho_k cos(pi k sin(theta) - phi_k), rho_k = hypot(a_k, b_k),
    whose second derivative in theta is at most rho_k (pi^2 k^2 + pi k)
    in magnitude, so |d''| <= C = sum_k rho_k (pi^2 k^2 + pi k) and
    d >= min(ends) - h^2 C / 8 on each interval. C never exceeds the
    bound from the absolute eigenvector entries |e_im| that it replaces,
    pi^2 sum |e_im| |e_in| (m + n)^2 + 2 pi sum |e_im| |e_in| (m + n)
    over i, m, n: the lag form sums (m - n)^2 and |m - n| instead. Takes
    one coefficient row and its ``ends`` or a stack of each.
    """
    half = coeffs.shape[-1] // 2
    k = np.pi * np.arange(1, half + 1)
    curv = np.hypot(coeffs[..., 1: half + 1], coeffs[..., half + 1:]) @ (k * k + k)
    return np.minimum(ends[..., :-1], ends[..., 1:]) - h * h * curv[..., None] / 8.0


def _row_minima(x):
    """x at the interior samples of each row strictly below both of their
    row neighbours, +inf elsewhere.

    Neighbours are compared, so a NaN, and each neighbour of one, is no
    minimum, and the edge samples never are. Adjacent equal samples are
    no minimum either: a flat bottom reports none."""
    mid = x[:, 1:-1]
    minima = np.full(x.shape, np.inf)
    minima[:, 1:-1] = np.where((mid < x[:, :-2]) & (mid < x[:, 2:]), mid, np.inf)
    return minima


def _kept_groups(coeffs, num_targets, plan):
    """The coarse level of the scan for a stack of ``_coefficients`` rows:
    (B x G flags of the padded grid's 8-column groups that the fine level
    evaluates, B flags of the trials it certified).

    Let v be the T-th smallest interior minimum of the coarse values c.
    Each coarse minimum has a fine minimum at or below it between its
    coarse neighbours, so the T deepest fine minima lie at or below v.
    An interval whose ``_interval_floors`` bound exceeds v + 1e-9 M_R (a
    margin for rounding between the levels) holds no fine value at or
    below v. The others are kept, widened by one group on each side so
    that every minimum there has both neighbours; a minimum found at the
    end of a kept span lies above v and is never among the T deepest. A
    trial with fewer than T coarse minima has v = +inf and keeps every
    group, also on a level of one column (a one-point grid), which has
    no interval; the others are certified.
    """
    m = coeffs.shape[1] // 2 + 1
    groups = np.zeros((len(coeffs), plan.sin.size // 8), dtype=bool)
    coarse = _denominators(coeffs, plan.coarse)
    floors = _interval_floors(coeffs, coarse, plan.interval)
    # a level narrower than T columns has fewer than T minima: v = +inf
    kth = min(num_targets, coarse.shape[1]) - 1
    level = np.partition(_row_minima(coarse), kth, axis=1)[:, kth]
    # the intervals' groups cover the grid, give or take its last group
    kept = np.repeat(floors <= level[:, None] + 1e-9 * m, plan.stride // 8, axis=1)
    groups[:, : kept.shape[1]] = kept[:, : groups.shape[1]]
    groups[:, 1:] |= groups[:, :-1]
    groups[:, :-1] |= groups[:, 1:]
    certified = np.isfinite(level)
    groups[~certified] = True
    return groups, certified


def _fine_level(vecs, coeffs, num_targets, groups, plan, theta_deg):
    """MUSIC's (angles, degraded flags) for a stack of eigenvector
    matrices and their signal bases' ``_coefficients``, from the
    denominator d on their kept 8-column groups of the ``plan``'s grid,
    ``theta_deg`` in degrees.

    d is evaluated on the union of the groups, with a row per trial, one
    product per plan chunk that each span of the union crosses, each
    copied into d as it is made. Each product reads a slice of that
    chunk, whole 8-column groups wide: the last (count mod 4) columns of
    a product are computed on another path. Each row's columns outside
    its own groups are set to +inf, so its smallest value and its minima
    come from its own columns only. Where the signal-subspace form falls
    below CANCEL_TOL * M_R (near-total
    cancellation at a noiseless target), the row's columns there are
    re-evaluated on the noise subspace E_n, with steering vectors built
    for those columns only, so d is never negative. The T deepest minima
    of a row, ranked by (depth, column), are refined; a row with fewer
    repeats its deepest and is degraded, and a row with none takes the
    grid angle of its smallest value, unrefined.
    """
    m = vecs.shape[-1]
    padded = np.zeros(groups.shape[1] + 2, dtype=bool)
    union = padded[1:-1]
    np.any(groups, axis=0, out=union)
    edges = 8 * np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2)
    d = np.empty((len(coeffs), 8 * np.count_nonzero(union)))
    at = 0
    for lo, hi in edges:
        for table in plan.tables(lo, hi):
            d[:, at:at + table.shape[1]] = _denominators(coeffs, table)
            at += table.shape[1]
    d[~np.repeat(groups[:, union], 8, axis=1)] = np.inf
    cols = (8 * np.flatnonzero(union)[:, None] + np.arange(8)).ravel()
    for row in np.flatnonzero((d < CANCEL_TOL * m).any(axis=1)):
        close = np.flatnonzero(d[row] < CANCEL_TOL * m)
        p = (_hermitian(vecs[row, :, : m - num_targets])
             @ steering(np.deg2rad(theta_deg[cols[close]]), m))
        d[row, close] = (p.real ** 2 + p.imag ** 2).sum(axis=0)
    minima = _row_minima(d)
    count = np.count_nonzero(np.isfinite(minima), axis=1)
    slots = np.where(np.arange(num_targets) < count[:, None], np.arange(num_targets), 0)
    picked = np.take_along_axis(np.argsort(minima, axis=1, kind="stable"), slots, axis=1)
    angles = np.empty(picked.shape)
    found = count > 0
    if found.any():
        angles[found] = _refined(theta_deg, d[found], picked[found], cols[picked[found]])
    if not found.all():
        angles[~found] = np.deg2rad(theta_deg[cols[np.nanargmin(d[~found], axis=1)]])[:, None]
    return angles, count < num_targets


def music_estimate(cov, num_targets, grid_deg=MUSIC_GRID_DEG):
    """MUSIC angle estimates from one echo sample covariance (M_R x M_R).

    Returns (angles, degraded): exactly ``num_targets`` sorted radians,
    the deepest interior minima of ||E_n^H a||^2 on the grid, each
    refined by a parabola. When the pseudospectrum shows fewer separated
    peaks, the strongest is repeated to fill and ``degraded`` is True.
    Only the grid cells that a curvature bound cannot rule out are
    evaluated, and every cell when the bound certifies nothing (see the
    module docstring); the result is that of a scan of every cell.
    """
    angles, degraded, _ = _music(np.asarray(cov)[None], num_targets, grid_deg)
    return angles[0], bool(degraded[0])


def _music(covs, num_targets, grid_deg):
    """``music_estimate`` of each covariance of a stack (B x M_R x M_R):
    (B x T angles, B degraded flags, B flags of the trials that the
    coarse level could not certify), from one stacked ``eigh``.

    The fine level runs on greedy stacks of trials (``_stacks``) whose
    count times union width stays within the cap, the block's trials
    times the coarse level's width (the running union only grows), so a
    stack's arrays, one real row per trial, are no larger than the
    coarse level's. The one exception is a trial whose kept groups
    alone are wider than the cap: it runs as a stack of one, and its
    rows span at most the padded grid, 8 bytes a grid point. The table
    chunks that a stack reads stay in the plan, a cache bounded by the
    grid; every stack reads the grid in degrees formed once per call.
    """
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ValueError("MUSIC needs a square M_R x M_R sample covariance")
    if num_targets < 1:
        raise ValueError(f"MUSIC needs at least one target, got {num_targets}")
    if num_targets >= covs.shape[1]:
        raise ValueError("need more receive antennas than targets")
    b, m = covs.shape[:2]
    vecs = np.linalg.eigh(covs)[1]
    coeffs = _coefficients(vecs[..., m - num_targets:])
    plan = _grid(m, grid_deg)
    groups, certified = _kept_groups(coeffs, num_targets, plan)
    theta_deg = _degree_grid(grid_deg)
    angles = np.empty((b, num_targets))
    degraded = np.empty(b, dtype=bool)
    for lo, hi in _stacks(groups, b * plan.coarse.shape[1]):
        angles[lo:hi], degraded[lo:hi] = _fine_level(vecs[lo:hi], coeffs[lo:hi], num_targets,
                                                     groups[lo:hi], plan, theta_deg)
    return angles, degraded, ~certified


def _stacks(groups, cap):
    """The greedy stacks (lo, hi) of consecutive trials of a block's
    B x G kept-group flags: each stack grows while its trial count times
    the width of its running union (8 columns a group) stays within
    ``cap``, and holds at least one trial. The union only grows, so a
    stack ends at the first trial that breaks the cap, and each trial's
    flags are read once, as the bits of a Python integer.
    """
    packed = np.packbits(groups, axis=1)
    size = packed.shape[1]
    raw = packed.tobytes()
    lo, union = 0, 0
    for i in range(len(groups)):
        row = int.from_bytes(raw[i * size:(i + 1) * size], "little")
        grown = union | row
        if i > lo and 8 * grown.bit_count() * (i + 1 - lo) > cap:
            yield lo, i
            lo, grown = i, row
        union = grown
    if len(groups):
        yield lo, len(groups)


def _block_trials(m_r, num_streams, num_targets, grid_deg, lanes):
    """Monte-Carlo trials per block: as many as BLOCK_BYTES holds, at
    least one, while ``lanes`` designs of at most T targets run at once,
    so that the cap holds across every thread.

    A trial's working set is counted in complex entries (16 bytes). N Q
    and sigma^2 T T^H stay while the designs run: M_R (N + M_R). Before
    any design runs, the draw adds at most 3 M_R (N + M_R). Each design
    in flight then holds the larger of its two phases:
    - S, S^H and S S^H, or S, S S^H and its sum:
      M_R N + M_R^2 + M_R max(N, M_R);
    - the covariances and eigenvectors (2 M_R^2), the eigenvalues and
      the coefficient row (2 M_R at most), and either the FFT behind the
      coefficients, 2 M_R x T with its squared parts and their sum
      (5 M_R T), or the coarse level's six real rows as wide as its C
      columns: the values, their interval floors and the copies of the
      minima search (3 C).
    The fine level adds nothing: ``_music`` caps each of its stacks at
    the trials times C, so its rows fit where the coarse ones were. The
    exception is a one-trial stack wider than that cap, whose rows span
    at most the padded grid. The plan's table chunks are a cache, not
    working memory.
    """
    noise = m_r * (num_streams + m_r)
    covariances = m_r * num_streams + m_r * m_r + m_r * max(num_streams, m_r)
    scan = 2 * m_r * m_r + 2 * m_r + max(5 * m_r * num_targets,
                                         3 * _grid(m_r, grid_deg).coarse.shape[1])
    entries = noise + max(3 * noise, lanes * max(covariances, scan))
    return max(1, BLOCK_BYTES // (16 * entries))


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(lanes):
    """Context of the pool of ``lanes - 1`` threads beside the calling one,
    or of None with one lane. ``concurrent.futures``, which loads
    ``logging``, is imported only here, so a call that needs no pool never
    pays for it."""
    if lanes == 1:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(lanes - 1)


def _run_in_lanes(jobs, pool, lanes):
    """Run each of ``jobs`` once: this thread and ``lanes - 1`` tasks on
    ``pool`` take them from one queue, so a lane that finishes early
    takes the next job. Returns, or raises a failed job's exception with
    its own type, once every lane has stopped."""
    shared = queue.SimpleQueue()
    for job in jobs:
        shared.put(job)

    def drain():
        while True:
            try:
                job = shared.get_nowait()
            except queue.Empty:
                return
            job()

    tasks = [pool.submit(drain) for _ in range(lanes - 1)]
    try:
        drain()
    finally:
        for task in tasks:
            task.result()


def monte_carlo(scenario, result, trials, grid_deg=MUSIC_GRID_DEG):
    """Repeated-echo estimation study of one design.

    Each trial draws its echo covariance from a substream keyed by the
    trial index, so the aggregate is reproducible bit for bit. Trials
    run in the covariance domain (Gaussian N Q term plus a
    Bartlett-drawn complex Wishart term, Goodman 1963), so their cost
    does not depend on L, and in blocks whose working memory stays
    within BLOCK_BYTES (or one trial, if that is more), so memory stays
    flat in the trial count. With single-threaded BLAS every trial's
    estimate is that of ``music_estimate`` bit for bit (module
    docstring). RMSE aggregates the per-trial summed squared angle
    error, matching the stacked-parameter convention of the reported
    RCRLB. The trial noise depends only on the scenario's seed, M_R,
    N = K + M_T, L and noise power, not on the design, so designs that
    share those see the same noise in every trial (common random
    numbers) and their RMSE differences are paired;
    ``monte_carlo_sweep`` runs several such designs on one noise draw.
    """
    return monte_carlo_sweep([(scenario, result)], trials, grid_deg)[0]


def monte_carlo_sweep(designs, trials, grid_deg):
    """``monte_carlo`` of each (scenario, result) pair of ``designs``: one
    EstimationReport per pair, each equal to that pair's own call.

    The designs must share one noise key (seed, M_R, N, L, noise power),
    as those of a sweep command do; any other list, the empty one
    included, raises ValueError before any noise is drawn. Each block of
    trials draws its noise once, on the calling thread; each design then
    forms its covariances, runs its own ``eigh`` and scan and writes its
    own rows of the results. The designs of a block run on as many
    threads as there are CPUs available and designs, the calling thread
    included; a pool of the others lives for the call, and with one
    design or one CPU none starts. The block size depends only on the
    shared sizes, the largest target count, the grid and that thread
    count, so memory stays flat in the trial count and in the number of
    designs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    gws = [echo_channel(scenario) @ np.asarray(result.w) for scenario, result in designs]
    keys = {(scenario.seed, *gw.shape, scenario.snapshots, scenario.noise_power)
            for (scenario, _), gw in zip(designs, gws)}
    if len(keys) != 1:
        raise ValueError(f"designs must share one trial-noise key, got {len(keys)} keys")
    [(seed, m_r, num_streams, snapshots, noise_power)] = keys
    targets = [scenario.num_targets for scenario, _ in designs]
    found = [(np.empty((trials, t)), np.empty(trials, dtype=bool), np.empty(trials, dtype=bool))
             for t in targets]
    lanes = min(_cpus(), len(designs))
    block = _block_trials(m_r, num_streams, max(targets), grid_deg, lanes)

    def estimate(i, lo, hi, noise, wishart):
        for whole, values in zip(found[i], _music(_covariances(gws[i], snapshots, noise, wishart),
                                                  targets[i], grid_deg)):
            whole[lo:hi] = values

    with _pool(lanes) as pool:
        for lo in range(0, trials, block):
            hi = min(lo + block, trials)
            noise, wishart = _trial_noise(m_r, num_streams, snapshots, noise_power,
                                          [substream(seed, "trial", i) for i in range(lo, hi)])
            _run_in_lanes([functools.partial(estimate, i, lo, hi, noise, wishart)
                           for i in range(len(designs))], pool, lanes)
            del noise, wishart   # released before the next block draws
    return [_report(scenario, result, *out) for (scenario, result), out in zip(designs, found)]


def _report(scenario, result, estimates, degraded, full):
    """EstimationReport of one design from its per-trial estimates,
    degraded flags and full-scan flags."""
    truth = np.sort(scenario.target_angles)
    err = estimates - truth
    sq_sums = np.array([float(e @ e) for e in err])
    return EstimationReport(
        true_angles=truth,
        mean_estimates=estimates.mean(axis=0),
        per_target_mse=(err**2).mean(axis=0),
        rmse=float(np.sqrt(sq_sums.mean())),
        rcrlb=float(result.rcrlb),
        trials=len(estimates),
        degraded_trials=int(degraded.sum()),
        full_scans=int(full.sum()))
