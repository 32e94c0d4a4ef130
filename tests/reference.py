"""Reference helpers that only the tests call.

Each is a direct, unoptimised form of something the library computes
another way (the explicit transmit frame, the per-user cone vector and
its projection, the dense channel derivative, the MUSIC scan of every
grid column, MUSIC and its denominator from steering vectors alone,
the solver with every probe's gradient computed at once, the echo
covariance and the Monte-Carlo trials one at a time, MUSIC's large-L
error target by target, the equal-rate
powers of any directions and sensing block from one linear solve, the
warm start's power split from three such solves, no_dedicated_stream's
stages on the full-width variable; the row norms, tangent projection,
zero-forcing directions, sum-CRLB gradient, Fisher coupling and
Gauss-Newton step through the numpy wrappers and repeated products the
library skips, which must give the library's bits), the looser MUSIC
curvature bound that the library's must never exceed, or a generator of
test inputs on the manifold.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

from isacbeam import comm, crlb, design, radar
from isacbeam.arrays import steering, steering_and_derivative
from isacbeam.comm import RANK_TOL
from isacbeam.errors import NumericalError
from isacbeam.manifold import inner, project_tangent, retract
from isacbeam.rcg import (C1, C2, MAX_LINESEARCH_EVALS, IterRecord, LineSearchResult,
                          SolverTrace)
from isacbeam.scenario import substream


def deferred(value_grad):
    """Solver callback form of an eager objective: w -> (value, grad)
    becomes w -> (value, zero-argument callable returning grad)."""
    def fg(w):
        value, grad = value_grad(w)
        return value, lambda: grad
    return fg


def random_point(num_rows, num_cols, radius, rng):
    """Random manifold point (rows of a complex Gaussian, renormalized)."""
    z = rng.standard_normal((num_rows, num_cols)) \
        + 1j * rng.standard_normal((num_rows, num_cols))
    return retract(z, radius)


def random_tangent(w, radius, rng):
    z = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
    return project_tangent(w, z, radius)


def linalg_row_norms(w):
    """``manifold.row_norms`` through ``np.linalg.norm``."""
    return np.linalg.norm(w, axis=1)


def summed_projection(w, x, radius):
    """``manifold.project_tangent`` reducing with ``np.sum``."""
    coef = np.sum(w.real * x.real + w.imag * x.imag, axis=1) / radius**2
    return x - coef[:, None] * w


def pinv_zf_precoder(channels):
    """``comm.zf_precoder`` from two SVDs: one for the rank test, one
    inside ``np.linalg.pinv``."""
    h = np.asarray(channels)
    s = np.linalg.svd(h, compute_uv=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise NumericalError("rank-deficient user channels: ZF impossible")
    v = np.linalg.pinv(h.conj().T)
    return v / np.linalg.norm(v, axis=0)


def reformed_grad_f1(w, coupling, state):
    """``crlb.grad_f1`` forming V = B W again instead of reading
    ``state.v``."""
    m = state.inverse
    weights = -(m @ m)
    t = m.shape[0]
    blocks = (coupling.q.reshape(t, 2, t, 2) * weights.T[:, None, :, None]).reshape(2 * t, 2 * t)
    return 2.0 * coupling.b.conj().T @ (blocks @ (coupling.b @ np.asarray(w)))


def per_slot_coupling(scenario):
    """``crlb.coupling_matrices`` with a one-angle ``steering`` or
    ``steering_and_derivative`` call for each slot of B and of the
    receive factors."""
    mt, mr = scenario.num_tx, scenario.num_rx
    t = scenario.num_targets
    b = np.empty((2 * t, mt), dtype=complex)
    r = np.empty((mr, 2 * t), dtype=complex)
    for i, (theta, rcs) in enumerate(zip(scenario.target_angles, scenario.target_rcs)):
        b[2 * i] = steering(theta, mt).conj()
        b[2 * i + 1] = steering_and_derivative(theta, mt)[1].conj()
        r[:, 2 * i] = rcs * steering_and_derivative(theta, mr)[1]
        r[:, 2 * i + 1] = rcs * steering(theta, mr)
    scale = 2.0 * scenario.snapshots / scenario.noise_power
    return crlb.Coupling(b=b, q=scale * (r.conj().T @ r))


def equal_rate_power(channels, directions, w_sensing, noise_power, r_min):
    """Powers along the normalized columns of ``directions`` that put every
    user exactly at the rate floor ``r_min`` under the sensing block
    ``w_sensing``: with g[j, i] = |h_j^H v_i|^2, the linear system
    g_kk p_k - gamma sum_{i != k} g_ki p_i = gamma (sigma^2 + s_k), s_k the
    block's interference at user k and gamma = 2^r_min - 1."""
    h = np.asarray(channels)
    v = directions / np.linalg.norm(directions, axis=0)
    g = np.abs(h.conj().T @ v) ** 2
    own = np.diag(np.diag(g))
    gamma = 2.0 ** r_min - 1.0
    interference = (np.abs(h.conj().T @ w_sensing) ** 2).sum(axis=1)
    return np.linalg.solve(own - gamma * (g - own), gamma * (noise_power + interference))


def three_solve_initial_point(scenario, r_min, zero_sensing, directions):
    """``design.initial_point`` splitting the budget with three
    ``equal_rate_power`` solves: without sensing, under the full
    budget's sensing block (for the slope of the total power in p_s) and
    under the split's block. Without directions, the pure-sensing
    fallback."""
    mt, k, p_max = scenario.num_tx, scenario.num_users, scenario.power_budget
    block = lambda p_s: np.sqrt(p_s / mt) * np.eye(mt, dtype=complex)
    h, v, noise = scenario.channels, directions, scenario.noise_power
    if v is None:
        flags = ("zf_infeasible_fallback",)
        v, p, p_s = np.zeros((mt, k)), np.zeros(k), (0.0 if zero_sensing else p_max)
    else:
        flags = ()
        p, p_s = equal_rate_power(h, v, block(0.0), noise, r_min), 0.0
        if not zero_sensing:
            p1 = equal_rate_power(h, v, block(p_max), noise, r_min)
            slope = (p1.sum() - p.sum()) / p_max
            # the affine split itself: P_max - sum p cancels where p_s is tiny
            p_s = max((p_max - p.sum()) / (1.0 + slope), 0.0)
            p = equal_rate_power(h, v, block(p_s), noise, r_min)
    w = v * np.sqrt(p)[None, :]
    if not zero_sensing:
        w = np.concatenate([w, block(p_s)], axis=1)
    w = w.astype(complex)
    dead = np.linalg.norm(w, axis=1) == 0.0
    if np.any(dead):
        rng = substream(scenario.seed, "init")
        phases = np.exp(2j * np.pi * rng.uniform(size=(int(dead.sum()), w.shape[1])))
        w[dead] += 1e-12 * scenario.row_radius * phases
    return retract(w, scenario.row_radius), flags


def full_width_no_dedicated_stream(scenario, opts):
    """``design.run(scenario, 'no_dedicated_stream')``'s two stages on the
    full M_T x (K + M_T) variable, its M_T sensing columns zero:
    (w, stage-I trace, stage-II trace, sum-CRLB)."""
    zf = comm.zf_precoder(scenario.channels)
    r_min = design.rate_target(scenario, zf)
    w0, _ = design.initial_point(scenario, r_min, True, zf)
    mt = scenario.num_tx
    w0 = np.concatenate([w0, np.zeros((mt, mt))], axis=1)
    coupling = crlb.coupling_matrices(scenario)
    w, sp1 = design.solve_sp1(scenario, w0, opts, coupling)
    w, sp2, _ = design.solve_sp2(scenario, w, r_min, opts)
    return w, sp1, sp2, crlb.fisher_matrix(w, coupling).objective


def x_of(cones, k, w):
    """Cone vector [h_k^H W, sigma, sqrt(Gamma) h_k^H w_k] of user k, the
    ``comm.SocInstance`` ``cones[k]``."""
    w = np.asarray(w)
    if w.shape[1] != cones.w_shape[1]:
        raise ValueError("cone instance does not match beamformer size")
    p = cones[k].matrix @ w
    return np.concatenate([p, [cones.sigma, cones.root_gamma * p[k]]])


def indexed_gauss_newton_step(w, cones, radius, margin):
    """``comm.f2_and_gauss_newton``'s step as an index array over its active
    users forms it, also when every user is active: C, the users' rows of
    H^H and the columns of ``rows_h`` copied by index, and their K x K
    Gram matrix formed from the copies. Returns (D, gradient norm, Gram
    matrix, active users)."""
    p = cones.rows @ w
    hn = np.sqrt((np.abs(p) ** 2).sum(axis=1) + cones.sigma2)
    tail = cones.root_gamma * p[cones.idx, cones.idx]
    tm = np.abs(tail)
    excess = np.where(hn > tm, hn - tm, 0.0)
    e = hn - tm
    act = np.flatnonzero(e > -margin * hn)
    phase = np.divide(tail, tm, out=np.ones_like(tail), where=tm > 0)
    c = p / hn[:, None]
    c[cones.idx, cones.idx] -= cones.root_gamma * phase
    c, rows = c[act], cones.rows[act]
    coef = (rows * (c.conj() @ w.T)).real / radius**2
    gram = (((rows @ rows.conj().T) * (c @ c.conj().T).conj()).real
            - radius**2 * (coef @ coef.T))
    lam = np.linalg.solve(gram, e[act] + margin * hn[act])
    d = (lam @ coef)[:, None] * w - cones.rows_h[:, act] @ (lam[:, None] * c)
    x = excess[act]
    return d, math.sqrt(max(float(x @ gram @ x), 0.0)), gram, act


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


def target_channel_derivative(theta, num_tx, num_rx):
    """Angle derivative of ``arrays.target_channel`` (product rule)."""
    a_r = steering(theta, num_rx)
    a_t = steering(theta, num_tx)
    da_r = steering_and_derivative(theta, num_rx)[1]
    da_t = steering_and_derivative(theta, num_tx)[1]
    return np.outer(da_r, a_t.conj()) + np.outer(a_r, da_t.conj())


def watts_to_dbm(p_w):
    if p_w <= 0:
        raise ValueError("power must be positive")
    return 10.0 * np.log10(p_w) + 30.0


def synthesize_waveform(w, snapshots, rng):
    """Transmit frame X = W Xt; its sample covariance is exactly W W^H."""
    w = np.asarray(w)
    return w @ radar.synthesize_probe(w.shape[1], snapshots, rng)


@functools.lru_cache(maxsize=2)
def grid_table(num_rx, grid_deg):
    """(grid in degrees, table) of the MUSIC scan: the table is
    cos(pi k sin theta) for k = 1..M_R-1, then sin, on the whole grid,
    padded with NaN columns to whole 8-column groups, from one
    ``np.cos`` and one ``np.sin`` of every phase. Read-only."""
    theta_deg = np.linspace(-90.0, 90.0, int(round(180.0 / grid_deg)) + 1)
    phase = np.outer(np.pi * np.arange(1, num_rx), np.sin(np.deg2rad(theta_deg)))
    table = np.pad(np.vstack([np.cos(phase), np.sin(phase)]), ((0, 0), (0, -theta_deg.size % 8)),
                   constant_values=np.nan)
    for x in (theta_deg, table):
        x.flags.writeable = False
    return theta_deg, table


def plan_denominator(cov, num_targets, table):
    """(eigenvectors, signal-subspace denominator c_0 + (a, b) . table)
    of an M_R x M_R covariance on every column of ``table`` (a
    ``grid_table`` or its coarse columns), from its signal basis's
    ``radar._coefficients``. The product has the row and a zero row:
    numpy runs a one-row product as a gemv, whose bits differ from the
    rows of a gemm."""
    vecs = np.linalg.eigh(cov)[1]
    row = radar._coefficients(vecs[None, :, vecs.shape[0] - num_targets:])[0]
    return vecs, row[0] + (np.stack([row[1:], np.zeros_like(row[1:])]) @ table)[0]


def music_denominator(cov, num_targets, grid_deg):
    """(grid in degrees, ||E_n^H a||^2 on it) for an M_R x M_R covariance,
    from one product over the whole padded ``grid_table``: the
    signal-subspace form of ``plan_denominator``, re-evaluated on the
    noise subspace E_n, from steering vectors of those columns, where it
    falls below CANCEL_TOL * M_R. The pad columns are cut off."""
    m = cov.shape[0]
    theta_deg, table = grid_table(m, grid_deg)
    vecs, denom = plan_denominator(cov, num_targets, table)
    close = np.flatnonzero(denom < radar.CANCEL_TOL * m)
    if close.size:
        p = vecs[:, : m - num_targets].conj().T @ steering(np.deg2rad(theta_deg[close]), m)
        denom[close] = (p.real ** 2 + p.imag ** 2).sum(axis=0)
    return theta_deg, denom[: theta_deg.size]


def steering_denominator(basis, thetas):
    """||a||^2 - ||E_s^H a||^2 of a signal basis E_s (M_R x T) at the
    angles ``thetas`` (radians), from the steering vectors of
    ``arrays.steering`` alone."""
    a = steering(thetas, basis.shape[0])
    return (np.abs(a) ** 2).sum(axis=0) - (np.abs(basis.conj().T @ a) ** 2).sum(axis=0)


def steering_music(cov, num_targets, grid_deg):
    """MUSIC of one covariance on the noise-subspace denominator
    ||E_n^H a||^2, from the steering vectors of ``arrays.steering``
    at every angle of the grid: (angles, degraded)."""
    m = cov.shape[0]
    vecs = np.linalg.eigh(cov)[1]
    theta_deg = np.linspace(-90.0, 90.0, int(round(180.0 / grid_deg)) + 1)
    a = steering(np.deg2rad(theta_deg), m)
    denom = (np.abs(vecs[:, : m - num_targets].conj().T @ a) ** 2).sum(axis=0)
    return pick_peaks(theta_deg, denom, num_targets)


def music_rmse_prediction(scenario, w):
    """MUSIC's large-L RMSE for the beamformer ``w`` (Stoica & Nehorai,
    IEEE TASSP 37(5), 1989), one target at a time:
    sqrt(sum_i sigma^2 / (2 L) U_ii / h_i), with
    U = P^-1 + sigma^2 P^-1 (A_r^H A_r)^-1 P^-1, P = S S^H the exact
    source covariance, S = diag(alpha) A_t^H W, and h_i = d_i^H Pi_perp
    d_i, d_i the angle derivative of a_r(theta_i) and Pi_perp the
    projector onto the complement of the columns of A_r."""
    w = np.asarray(w)
    m_t, m_r = np.arange(scenario.num_tx), np.arange(scenario.num_rx)
    t = scenario.num_targets
    a_r = np.empty((m_r.size, t), dtype=complex)
    d_r = np.empty((m_r.size, t), dtype=complex)
    s = np.empty((t, w.shape[1]), dtype=complex)
    for i, (theta, rcs) in enumerate(zip(scenario.target_angles, scenario.target_rcs)):
        a_r[:, i] = np.exp(1j * np.pi * np.sin(theta) * m_r)
        d_r[:, i] = 1j * np.pi * np.cos(theta) * m_r * a_r[:, i]
        s[i] = rcs * (np.exp(1j * np.pi * np.sin(theta) * m_t).conj() @ w)
    sigma2 = scenario.noise_power
    gram_inv = np.linalg.inv(a_r.conj().T @ a_r)
    p_inv = np.linalg.inv(s @ s.conj().T)
    u = p_inv + sigma2 * p_inv @ gram_inv @ p_inv
    perp = np.eye(m_r.size) - a_r @ gram_inv @ a_r.conj().T
    var = 0.0
    for i in range(t):
        h = (d_r[:, i].conj() @ perp @ d_r[:, i]).real
        var += sigma2 / (2.0 * scenario.snapshots) * u[i, i].real / h
    return math.sqrt(var)


def magnitude_curvature(basis):
    """The bound on |d''| that came from the absolute entries of a
    signal basis (M_R x T): with P_i, D1_i and D2_i the sums of |e_im|
    weighted by 1, m and m^2,
    C = 2 pi^2 sum_i (D1_i^2 + P_i D2_i) + 2 pi sum_i P_i D1_i."""
    mag = np.abs(basis)
    m = np.arange(mag.shape[0])
    p, d1, d2 = mag.sum(axis=0), m @ mag, (m * m) @ mag
    return 2.0 * np.pi**2 * np.sum(d1 * d1 + p * d2) + 2.0 * np.pi * np.sum(p * d1)


def pick_peaks(theta_deg, denom, num_targets):
    """(angles, degraded) of the pseudospectrum 1 / denom on the grid
    ``theta_deg``: its interior minima, the peaks that
    ``scipy.signal.find_peaks`` finds in -denom, ranked by (depth,
    column), the T deepest refined, the deepest repeated when fewer; with
    none, the grid angle of the smallest value, unrefined."""
    idx = find_peaks(-denom)[0]
    if idx.size == 0:
        return np.full(num_targets, np.deg2rad(theta_deg[np.argmin(denom)])), True
    idx = idx[np.argsort(denom[idx], kind="stable")]
    picked = np.full((1, num_targets), idx[0])
    picked[0, : idx.size] = idx[:num_targets]
    return radar._refined(theta_deg, denom[None], picked, picked)[0], idx.size < num_targets


def full_scan(cov, num_targets, grid_deg):
    """``radar.music_estimate`` of one covariance, from the denominator at
    every grid column: (angles, degraded)."""
    return pick_peaks(*music_denominator(cov, num_targets, grid_deg), num_targets)


def accumulated_stacks(groups, cap):
    """``radar._stacks`` as a stack loop that forms the running union of
    every remaining trial's flags for each stack it cuts: [(lo, hi)]."""
    stacks, lo = [], 0
    rest = np.arange(len(groups))
    while rest.size:
        width = 8 * np.logical_or.accumulate(groups[rest]).sum(axis=1)
        sel = rest[: max(1, np.count_nonzero(width * np.arange(1, rest.size + 1) <= cap))]
        rest = rest[sel.size:]
        stacks.append((lo, lo + sel.size))
        lo += sel.size
    return stacks


def echo_covariance(scenario, gw, rng):
    """Sample covariance Y Y^H / L of one echo, without forming X or Y:
    the Monte-Carlo trial of ``rng`` as a stack of one over
    ``radar._trial_noise`` and ``radar._covariances``. ``gw`` is G W
    (M_R x N). Same law as Y Y^H / L of ``radar.synthesize_echo`` (see
    the radar module docstring), independent of L in cost."""
    noise, wishart = radar._trial_noise(*np.shape(gw), scenario.snapshots,
                                        scenario.noise_power, [rng])
    return radar._covariances(np.asarray(gw), scenario.snapshots, noise, wishart)[0]


def one_trial_echo_covariance(scenario, gw, rng):
    """``echo_covariance`` drawn part by part: N Q (real, then
    imaginary), the Bartlett block (real, then imaginary), its diagonal."""
    snapshots = scenario.snapshots
    m_r, num_streams = gw.shape
    dof = snapshots - num_streams
    m = min(m_r, dof)
    s = np.sqrt(snapshots) * gw + radar._cgauss(rng, (m_r, num_streams),
                                                np.sqrt(scenario.noise_power / 2.0))
    t = np.tril(radar._cgauss(rng, (m_r, m), np.sqrt(0.5)), k=-1)
    np.fill_diagonal(t, np.sqrt(rng.gamma(dof - np.arange(m))))
    return (s @ s.conj().T + scenario.noise_power * (t @ t.conj().T)) / snapshots


def one_trial_music(cov, num_targets, grid_deg):
    """``radar._music`` of one covariance, (angles, degraded, uncertified):
    the full scan's angles and flag, and whether the coarse level leaves
    the trial uncertified, w < 8 or fewer than T interior minima
    (``scipy.signal.find_peaks`` of the negated values) among the values
    on the coarse columns, every w-th grid column and the last, of the
    ``grid_table``."""
    w = radar._grid(cov.shape[0], grid_deg).stride
    uncertified = w < 8
    if not uncertified:
        theta_deg, table = grid_table(cov.shape[0], grid_deg)
        cols = np.append(np.arange(0, theta_deg.size - 1, w), theta_deg.size - 1)
        coarse = plan_denominator(cov, num_targets, table[:, cols])[1]
        uncertified = find_peaks(-coarse)[0].size < num_targets
    return (*full_scan(cov, num_targets, grid_deg), uncertified)


def one_trial_monte_carlo(scenario, result, trials, grid_deg):
    """(estimates, degraded flags, uncertified flags) of the trials of
    ``radar.monte_carlo``, one trial at a time."""
    gw = radar.echo_channel(scenario) @ np.asarray(result.w)
    out = [one_trial_music(one_trial_echo_covariance(scenario, gw,
                                                     substream(scenario.seed, "trial", i)),
                           scenario.num_targets, grid_deg)
           for i in range(trials)]
    return tuple(np.array(column) for column in zip(*out))


@dataclass(frozen=True)
class EagerProbe:
    index: int              # 0-based position among the search's probes
    step: float
    point: np.ndarray
    value: float
    rgrad: np.ndarray
    moved: np.ndarray       # search direction projected to point


def _eager_probe(fg, w, d, alpha, radius, index):
    point = retract(w + alpha * d, radius)
    value, egrad = fg(point)
    return EagerProbe(index, alpha, point, value, project_tangent(point, egrad(), radius),
                      project_tangent(point, d, radius))


def eager_wolfe_linesearch(fg, w, d, f0, slope0, radius, first_step=None):
    """``rcg.wolfe_linesearch`` with every probe's gradient and projected
    direction computed as the probe is made, the same first trial step
    and the same slope ``inner(rgrad, d)``.

    Returns (result, read): a ``rcg.LineSearchResult`` (None when no probe
    decreased enough) whose ``at`` is an ``EagerProbe`` and whose
    ``grads`` counts the probes whose gradient the search read, and the
    indices of those probes, the returned one included.
    """
    d_norm2 = inner(d, d)
    a = 1.0 / math.sqrt(d_norm2) if first_step is None else first_step
    a_lo, f_lo, a_hi = 0.0, f0, None
    best = None
    read = []
    for evals in range(1, MAX_LINESEARCH_EVALS + 1):
        ev = _eager_probe(fg, w, d, a, radius, evals - 1)
        armijo = ev.value <= f0 + C1 * a * slope0
        if armijo and (best is None or ev.value < best.value):
            best = ev
        if not armijo or (evals > 1 and ev.value >= f_lo):
            a_hi = a
        else:
            read.append(ev.index)
            dslope = inner(ev.rgrad, d)
            if abs(dslope) <= -C2 * slope0:
                return LineSearchResult(a, evals, len(read), True, ev, d_norm2), read
            if dslope * (1.0 if a_hi is None else a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo = a, ev.value
        if a_hi is None:
            a = 2.0 * a
        else:
            a = 0.5 * (a_lo + a_hi)
    if best is None:
        return None, read
    if best.index not in read:
        read.append(best.index)
    return LineSearchResult(best.step, evals, len(read), False, best, d_norm2), read


def eager_minimize(fg, w0, radius, opts, restart_period):
    """``rcg.minimize`` on ``eager_wolfe_linesearch``, transporting the
    direction as ``-rgrad + beta * moved`` on every step, beta = 0
    included. Every search after the first starts at twice the step the
    previous one accepted. The start is not checked for manifold
    membership."""
    w = np.asarray(w0)
    f, egrad = fg(w)
    rgrad = project_tangent(w, egrad(), radius)
    gnorm2 = inner(rgrad, rgrad)
    d = -rgrad
    trace = SolverTrace(initial_objective=f)
    first_step = None
    for it in range(opts.max_iters):
        if math.sqrt(gnorm2) <= opts.eps * (1.0 + abs(f)):
            trace.termination = "grad_tol"
            return w, trace
        slope = inner(rgrad, d)
        ls, _ = eager_wolfe_linesearch(fg, w, d, f, slope, radius, first_step)
        if ls is None:
            trace.termination = "linesearch_fail"
            return w, trace
        ev = ls.at
        first_step = 2.0 * ls.step
        trace.zoutendijk.append(slope * slope / max(inner(d, d), 1e-300))
        gnorm2_new = inner(ev.rgrad, ev.rgrad)
        beta = 0.0 if (it + 1) % restart_period == 0 else gnorm2_new / gnorm2
        d_new = -ev.rgrad + beta * ev.moved
        if inner(ev.rgrad, d_new) >= 0.0:
            d_new = -ev.rgrad
            beta = 0.0
        trace.records.append(IterRecord(it, ev.value, math.sqrt(gnorm2_new), ls.step,
                                        beta, ls.wolfe_ok, ls.evals, ls.grads))
        df = abs(f - ev.value)
        w, f, rgrad, d, gnorm2 = ev.point, ev.value, ev.rgrad, d_new, gnorm2_new
        if df < opts.eps:
            trace.termination = "obj_tol"
            return w, trace
    trace.termination = "max_iters"
    return w, trace
