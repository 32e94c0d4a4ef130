"""Communication side: rates, precoding, and the rate-feasibility cone.

With P = H^H W (K x N), user k's minimum-rate constraint is membership
of its cone vector x_k = [P[k, :], sigma, sqrt(Gamma) P[k, k]] in a
second-order cone: the head collects every beam seen by user k plus the
noise standard deviation, the tail carries sqrt(Gamma) times the user's
own beam, and the constraint is head-norm <= tail-modulus. Every user
has the same rate floor R_min, so Gamma = 1 + 1/(2^R_min - 1) is one
number. f2 sums the squared distances to the cones; driving it to zero
restores every user's rate floor. Both f2 and its gradient are
evaluated from P for all users at once, the gradient only when the
solver asks for it. f2 is half the summed squares of the K residuals
hn_k - tm_k, each with a rank-one gradient, so the minimum-norm
Gauss-Newton step on the manifold needs only their K x K Gram matrix,
whose H^H H factor the cones stack once. Where Gauss-Newton stalls,
``sinr_project`` moves one user's row of P into its SINR set, the step
of stage II's projection sweeps. N is the width the solver carries:
K + M_T, or K for a design without sensing streams.

Also here: zero-forcing directions, the equal-rate power allocation
(all users exactly at the rate floor given sensing interference; one
linear solve in general, and along ZF directions under the warm
start's sensing block sqrt(p_s/M_T) I a closed form affine in p_s),
and the max-min ZF rate in closed form. The ZF forms read each user's
own gain |h_k^H v_k|^2 from one helper. One SVD of H serves the ZF rank
test and the pseudo-inverse, and a design forms the ZF directions once
and hands them to both the rate floor and the warm start.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError

RANK_TOL = 1e-12


@dataclass(frozen=True)
class RateReport:
    sinr: np.ndarray        # linear, per user
    rate: np.ndarray        # bits/s/Hz, log2(1 + sinr)
    min_rate: float


@dataclass(frozen=True)
class SocInstance:
    matrix: np.ndarray      # h_k^H, the user's row of H^H, shape (M_T,)
    user: int


class SocCones(tuple):
    """The cones of one rate floor, one ``SocInstance`` per user in user
    order, and what stage II reads, stacked once by
    ``soc_assemble``: ``rows`` (H^H, K x M_T, C-contiguous), ``rows_h``
    (its conjugate transpose), ``gram`` (the users' K x K Gram matrix
    H^H H), ``idx`` (the users 0..K-1), ``w_shape``
    (the beamformer shape (M_T, N)) and the scalars every user shares:
    ``sigma``, ``gamma`` = 2^r_min - 1, ``big_gamma`` = 1 + 1/gamma,
    ``sigma2`` and ``root_gamma`` = sqrt(big_gamma)."""


def rates(w, channels, noise_power):
    """SINR and rate of every user under beamformer W.

    ``channels`` holds user channel vectors as columns (M_T x K). The
    first K columns of W serve the users; every other column, sensing
    included, is interference.
    """
    h = np.asarray(channels)
    w = np.asarray(w)
    k = h.shape[1]
    if k == 0:
        return RateReport(np.zeros(0), np.zeros(0), np.inf)
    if h.shape[0] != w.shape[0]:
        raise ValueError("channel and beamformer row counts differ")
    if w.shape[1] < k:
        raise ValueError("fewer beamformer columns than users")
    p = np.abs(h.conj().T @ w) ** 2          # K x columns
    sig = p.diagonal()
    interf = p.sum(axis=1) - sig
    sinr = sig / (interf + noise_power)
    rate = np.log2(1.0 + sinr)
    return RateReport(sinr=sinr, rate=rate, min_rate=float(rate.min()))


def zf_precoder(channels):
    """Unit-norm zero-forcing directions, h_j^H v_k = 0 for j != k.

    The columns of pinv(H^H) satisfy h_j^H v_k = delta_jk. One SVD of
    conj(H^H) = H^T serves the rank test and the pseudo-inverse
    vt^T (s^-1 u^T), formed step for step as ``np.linalg.pinv`` forms
    it, so its bits are pinv's.
    """
    h = np.asarray(channels)
    k = h.shape[1]
    if k < 1:
        raise ValueError("zero-forcing needs at least one user")
    if k > h.shape[0]:
        raise NumericalError("more users than transmit antennas: ZF impossible")
    u, s, vt = np.linalg.svd(h.T, full_matrices=False)
    if s[-1] <= RANK_TOL * s[0]:
        raise NumericalError("rank-deficient user channels: ZF impossible")
    # past the rank test no singular value is below pinv's 1e-15 s_max cutoff
    v = vt.T @ ((1.0 / s)[:, None] * u.T)
    return v / np.linalg.norm(v, axis=0)


def _sensing_interference(h, w_sensing):
    if w_sensing is None:
        return np.zeros(h.shape[1])
    return (np.abs(h.conj().T @ np.asarray(w_sensing)) ** 2).sum(axis=1)


def _sinr_floor(r_min):
    """The SINR gamma = 2^r_min - 1 of the rate floor ``r_min``."""
    # numpy's power ufunc: libm pow differs from it in the last bit on some floors
    return float(2.0 ** np.asarray(r_min, dtype=float) - 1.0)


def _own_gains(h, directions):
    """|h_k^H v_k|^2, each user's gain along its own direction v_k."""
    return np.abs((h.conj() * directions).sum(axis=0)) ** 2


def equal_rate_power(channels, directions, w_sensing, noise_power, r_min):
    """Powers putting every user exactly at the rate floor ``r_min``.

    With columns w_k = sqrt(p_k) v_k / ||v_k|| and fixed sensing block,
    rate_k = r_min for all k is a linear system in p. Componentwise
    nonnegativity of the solution is the feasibility test; a negative
    entry raises with the offending user index, and a singular system
    raises too. A zero floor needs no power.
    """
    h = np.asarray(channels)
    if r_min < 0:
        raise ValueError("the rate floor must be nonnegative")
    gamma = _sinr_floor(r_min)
    if not gamma > 0.0:
        return np.zeros(h.shape[1])
    # Fortran order: norms summed over C-ordered columns differ in the last bit
    v = np.asfortranarray(directions)
    vn2 = np.linalg.norm(v, axis=0) ** 2
    g = np.abs(h.conj().T @ v) ** 2 / vn2[None, :]   # g[j, i] = |h_j^H v_i|^2/||v_i||^2
    k = g.shape[0]
    delta = -g
    delta[np.arange(k), np.arange(k)] = np.diag(g) / gamma
    try:
        p = np.linalg.solve(delta, noise_power + _sensing_interference(h, w_sensing))
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(
            "equal-rate system is singular: interference exactly balances "
            "the signal at the requested rates") from exc
    bad = np.flatnonzero(p < 0)
    if bad.size:
        user = int(bad[0])
        raise InfeasibleError(
            f"equal-rate allocation needs negative power for user {user}",
            detail={"user": user, "power": float(p[user])})
    return p


def sensing_equal_rate_power(channels, directions, noise_power, r_min):
    """(p0, slope): the ``equal_rate_power`` of the sensing block
    sqrt(p_s / M_T) I is p0 + p_s slope.

    ``directions`` must be the unit-norm ZF directions of ``channels``,
    ``zf_precoder(channels)``; this is not checked. Zero forcing removes
    every cross gain, so user k sees only the noise and the block's
    p_s ||h_k||^2 / M_T of interference, and SINR gamma = 2^r_min - 1
    takes the power gamma (sigma^2 + p_s ||h_k||^2 / M_T) / |h_k^H v_k|^2.
    """
    h = np.asarray(channels)
    scale = _sinr_floor(r_min) / _own_gains(h, directions)
    return scale * noise_power, scale * (np.abs(h) ** 2).sum(axis=0) / h.shape[0]


def max_min_zf_rate(channels, directions, noise_power, p_max):
    """Largest common rate a ZF design can give every user under p_max.

    ``directions`` are the unit-norm ZF directions of ``channels``,
    ``zf_precoder(channels)``. Zero forcing removes every cross gain, so
    along the direction v_k user k needs power
    gamma sigma^2 / |h_k^H v_k|^2 for SINR gamma, and the budget is used
    up at gamma = p_max / (sigma^2 sum_k 1 / |h_k^H v_k|^2). No sensing
    block.
    """
    h = np.asarray(channels)
    denom = noise_power * float(np.sum(1.0 / _own_gains(h, directions)))
    gamma = p_max / denom if denom > 0 else math.inf
    if not 0.0 <= gamma < math.inf:
        raise NumericalError(f"max-min ZF SINR {gamma} is not a finite nonnegative "
                             "number: noise power or budget out of range")
    return math.log2(1.0 + gamma)


def soc_assemble(channels, r_min, noise_power, num_streams):
    """The cones of the rate floor ``r_min`` for every user, as ``SocCones``.

    x_k(W) stacks [h_k^H w_1, ..., h_k^H w_N, sigma,
    sqrt(Gamma) h_k^H w_k]; the rate constraint of user k is
    ||head|| <= |tail|. The noise slot carries sigma, not sigma^2, so
    that the squared norm reproduces the SINR inequality exactly.
    """
    h = np.asarray(channels)
    mt, k = h.shape
    if k < 1:
        raise ValueError("cone assembly needs at least one user")
    if num_streams < k:
        raise ValueError("stream count below user count")
    gamma = _sinr_floor(r_min)
    if not gamma > 0.0:
        raise ValueError("the rate floor must be positive for cone assembly")
    rows = np.ascontiguousarray(h.conj().T)
    cones = SocCones(SocInstance(matrix=row, user=j) for j, row in enumerate(rows))
    sigma = float(np.sqrt(noise_power))
    big_gamma = 1.0 + 1.0 / gamma
    rows_h = rows.conj().T
    vars(cones).update(rows=rows, rows_h=rows_h, gram=rows @ rows_h, idx=np.arange(k),
                       w_shape=(mt, num_streams), sigma=sigma, sigma2=sigma * sigma,
                       gamma=gamma, big_gamma=big_gamma, root_gamma=math.sqrt(big_gamma))
    return cones


def _cone_gaps(w, cones):
    """P = H^H W, the head norms hn, the tails sqrt(Gamma) P_kk and their
    moduli tm of every user's cone vector under W, the excesses
    max(hn - tm, 0) and f2, half their summed squares."""
    w = np.asarray(w)
    if w.shape != cones.w_shape:
        raise ValueError("cone instance does not match beamformer size")
    p = cones.rows @ w
    hn = np.sqrt((np.abs(p) ** 2).sum(axis=1) + cones.sigma2)
    tail = cones.root_gamma * p[cones.idx, cones.idx]
    tm = np.abs(tail)
    excess = np.where(hn > tm, hn - tm, 0.0)
    return p, hn, tail, tm, excess, float(0.5 * (excess @ excess))


def f2_and_grad(w, cones):
    """Sum of squared cone distances and a thunk for its Euclidean gradient.

    ``cones`` is what ``soc_assemble`` returns. f2(W) = sum_k
    ||x_k(W) - proj(x_k(W))||^2, zero exactly when every user meets its
    rate target. Outside its cone user k's residual has head part
    P[k, :] (hn - tm) / (2 hn) and tail part -phase (hn - tm) / 2, so
    f2 = sum_k (hn - tm)^2 / 2 and grad = 2 H R, where R holds the head
    residuals with sqrt(Gamma) times the tail residual added at
    (k, k). Returns (f2, grad) with ``grad(scale)`` the gradient at W
    times ``scale`` (default 1); the gradient-only work runs when it is
    called. The factor 2 and ``scale`` go into the K x N residual block,
    not the M_T x N result.
    """
    p, hn, tail, tm, excess, f2 = _cone_gaps(w, cones)

    def grad(scale=1.0):
        phase = np.divide(tail, tm, out=np.ones_like(tail), where=tm > 0)
        scaled = scale * excess     # the gradient's 2 times the residuals' excess / 2
        resid = p * (scaled / hn)[:, None]
        resid[cones.idx, cones.idx] -= cones.root_gamma * phase * scaled
        return cones.rows_h @ resid

    return f2, grad


def sinr_project(w, k, cones, margin):
    """W with user k's row p = h_k^H W moved into its SINR set
    {||p_-k||^2 + sigma^2 <= c^2 |p_k|^2}, c^2 = 1/(gamma (1 + margin)), by
    the least-norm update h_k (x - p) / ||h_k||^2; W itself when p is in
    the set. With room = c^2 |p_k|^2 - sigma^2 positive, the target x
    scales p's off-diagonal entries onto the set's boundary; otherwise it
    zeroes them and sets x_k to sigma/c in p_k's phase (1 where p_k = 0).
    """
    p = cones.rows[k] @ w
    power = np.abs(p) ** 2
    s2 = power[k]
    power[k] = 0.0      # the interference summed apart: sum - |p_k|^2 cancels
    z2 = power.sum()
    c2 = 1.0 / (cones.gamma * (1.0 + margin))
    room = c2 * s2 - cones.sigma2
    if z2 <= room:
        return w
    if room > 0.0:
        x = p * math.sqrt(room / z2)
        x[k] = p[k]
    else:
        x = np.zeros_like(p)
        x[k] = cones.sigma / math.sqrt(c2) * (p[k] / math.sqrt(s2) if s2 > 0.0 else 1.0)
    return w + np.outer(cones.rows_h[:, k], (x - p) / cones.gram[k, k].real)


def _tangent_gram(w, cones, radius, gaps, users):
    """(C, coef, Gram) of the residuals e_k = hn_k - tm_k of ``users``, an
    index array or, for every user, ``slice(None)``, which copies nothing.

    ``gaps`` is ``_cone_gaps(w, cones)``. The Euclidean gradient of e_k is
    the rank-one h_k c_k, with the row c_k = P[k, :] / hn_k - sqrt(Gamma)
    phase_k u_k (u_k the k-th unit row, phase_k = 1 where tm_k = 0, as in
    ``f2_and_grad``); C stacks the rows. On the manifold of row radius
    ``radius`` its tangent projection is h_k c_k - diag(coef_k) W with
    coef = Re(conj(H^H) o (C W^H)) / rho^2, and the Gram matrix of these
    projections is Re[(H^H H) o conj(C C^H)] - rho^2 coef coef^T, with
    H^H H read from ``cones.gram`` when every user is active. No
    M_T x M_T matrix and no per-user M_T x N matrix is formed.
    """
    p, hn, tail, tm = gaps[:4]
    phase = np.divide(tail, tm, out=np.ones_like(tail), where=tm > 0)
    c = p / hn[:, None]
    c[cones.idx, cones.idx] -= cones.root_gamma * phase
    c, rows = c[users], cones.rows[users]
    # Re(conj(a) b) = Re(a conj(b)): conjugate the K x N factor C, not W
    coef = (rows * (c.conj() @ w.T)).real / radius**2
    # a subset's own product: indexing the users' Gram matrix changes its bits
    hgram = cones.gram if isinstance(users, slice) else rows @ rows.conj().T
    gram = (hgram * (c @ c.conj().T).conj()).real - radius**2 * (coef @ coef.T)
    return c, coef, gram


def f2_and_gauss_newton(w, cones, radius, margin):
    """f2 at W, as ``f2_and_grad`` has it, and a thunk for the minimum-norm
    Gauss-Newton step on the manifold of row radius ``radius``.

    f2 = sum_k max(e_k, 0)^2 / 2 with the residuals e_k = hn_k - tm_k.
    Over the active users A = {k : e_k > -margin hn_k}, with C, coef and
    the Gram matrix of ``_tangent_gram``, the tangent step D of least norm
    with e_A + <grad e_A, D> = -margin hn_A is
    diag(lambda^T coef) W - H_A diag(lambda) C, Gram lambda =
    e_A + margin hn_A. Returns (f2, step) with ``step()`` giving
    (D, Riemannian gradient norm of f2 at W), or None when the Gram solve
    is singular or not finite; the step-only work runs when it is called.
    """
    w = np.asarray(w)
    gaps = _cone_gaps(w, cones)
    hn, tm, excess, f2 = gaps[1], gaps[3], gaps[4], gaps[5]

    def step():
        e = hn - tm
        act = e > -margin * hn
        act = slice(None) if act.all() else np.flatnonzero(act)
        c, coef, gram = _tangent_gram(w, cones, radius, gaps, act)
        try:
            lam = np.linalg.solve(gram, e[act] + margin * hn[act])
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(lam).all():
            return None
        d = (lam @ coef)[:, None] * w - cones.rows_h[:, act] @ (lam[:, None] * c)
        x = excess[act]
        return d, math.sqrt(max(float(x @ gram @ x), 0.0))

    return f2, step
