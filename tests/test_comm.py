"""Rates, precoding, power allocation, and the rate-feasibility cone."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isacbeam import comm
from isacbeam.comm import (
    RANK_TOL,
    f2_and_gauss_newton,
    f2_and_grad,
    max_min_zf_rate,
    rates,
    soc_assemble,
    zf_precoder,
)
from isacbeam.errors import NumericalError
from isacbeam.manifold import inner, project_tangent
from isacbeam.scenario import make_scenario
from reference import equal_rate_power, pinv_zf_precoder, random_point, soc_project, x_of


def _cgauss(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------- rates

def test_rates_closed_form_single_user():
    h = np.zeros((4, 1), dtype=complex)
    h[0, 0] = 1.0
    w = np.zeros((4, 2), dtype=complex)
    w[0, 0] = np.sqrt(2.0)
    w[1, 1] = 5.0                      # orthogonal to h: no interference
    rep = rates(w, h, 1.0)
    assert rep.sinr[0] == pytest.approx(2.0, rel=1e-14)
    assert rep.rate[0] == pytest.approx(np.log2(3.0), rel=1e-14)
    assert rep.min_rate == rep.rate[0]
    w[0, 1] = 1.0                      # now the second beam leaks into h
    rep = rates(w, h, 1.0)
    assert rep.sinr[0] == pytest.approx(1.0, rel=1e-14)
    assert rep.rate[0] == pytest.approx(1.0, rel=1e-14)


def test_rates_term_by_term_oracle():
    rng = np.random.default_rng(0)
    h = _cgauss(rng, (6, 3))
    w = _cgauss(rng, (6, 9))
    noise = 0.3
    rep = rates(w, h, noise)
    for k in range(3):
        sig = abs(np.vdot(h[:, k], w[:, k])) ** 2
        interf = sum(abs(np.vdot(h[:, k], w[:, j])) ** 2
                     for j in range(9) if j != k)
        sinr = sig / (interf + noise)
        assert rep.sinr[k] == pytest.approx(sinr, rel=1e-12)
        assert rep.rate[k] == pytest.approx(np.log2(1.0 + sinr), rel=1e-12)
    assert rep.min_rate == rep.rate.min()


def test_rates_degenerate_inputs():
    rep = rates(np.ones((4, 6)), np.zeros((4, 0)), 1.0)
    assert rep.sinr.size == 0 and rep.rate.size == 0
    assert rep.min_rate == np.inf
    with pytest.raises(ValueError):
        rates(np.ones((3, 6)), np.ones((4, 2)), 1.0)
    with pytest.raises(ValueError):
        rates(np.ones((4, 1)), np.ones((4, 2)), 1.0)


# ---------------------------------------------------------- zero forcing

def test_zf_precoder_orthogonality_and_norms():
    rng = np.random.default_rng(1)
    h = _cgauss(rng, (8, 4))
    v = zf_precoder(h)
    assert v.shape == (8, 4)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)
    cross = h.conj().T @ v
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) <= 1e-9 * np.linalg.norm(h)


def test_zf_precoder_single_user_is_matched_filter():
    rng = np.random.default_rng(2)
    h = _cgauss(rng, (5, 1))
    v = zf_precoder(h)
    hn = h / np.linalg.norm(h)
    # equal up to a global phase; here pinv keeps the phase itself
    assert np.allclose(v, hn, atol=1e-12)


def test_zf_precoder_guards():
    rng = np.random.default_rng(3)
    h = _cgauss(rng, (3, 5))
    with pytest.raises(NumericalError):
        zf_precoder(h)                       # more users than antennas
    g = _cgauss(rng, (6, 3))
    g[:, 2] = g[:, 1]
    with pytest.raises(NumericalError):
        zf_precoder(g)                       # rank-deficient
    with pytest.raises(ValueError):
        zf_precoder(np.zeros((4, 0)))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64).flatmap(lambda mt: st.tuples(st.just(mt), st.integers(1, mt))),
       st.integers(0, 2**32 - 1))
def test_zf_precoder_keeps_the_bits_of_pinv(size, seed):
    # one SVD for the rank test and the pseudo-inverse, same bits as two
    mt, k = size
    h = _cgauss(np.random.default_rng(seed), (mt, k))
    assert np.array_equal(zf_precoder(h), pinv_zf_precoder(h))


@pytest.mark.parametrize("mt, k", [(4, 2), (8, 3), (32, 6), (64, 64)])
def test_zf_rank_test_boundary(mt, k):
    # H = U diag(s) V^H with s_min / s_max on either side of RANK_TOL
    rng = np.random.default_rng(mt + k)
    u = np.linalg.qr(_cgauss(rng, (mt, k)))[0]
    vh = np.linalg.qr(_cgauss(rng, (k, k)))[0].conj().T
    for ratio in (0.5 * RANK_TOL, 2.0 * RANK_TOL):
        h = (u * np.geomspace(1.0, ratio, k)) @ vh
        if ratio < RANK_TOL:
            with pytest.raises(NumericalError, match="rank-deficient"):
                zf_precoder(h)
            continue
        v = zf_precoder(h)
        assert np.all(np.isfinite(v))
        assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() <= 1e-14
        cross = h.conj().T @ v
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() <= 64 * np.finfo(float).eps


# ------------------------------------------------------ power allocation

def test_equal_rate_single_user_closed_form():
    rng = np.random.default_rng(2)
    h = _cgauss(rng, (4, 1))
    noise = 0.7
    r = 1.5
    p0, slope = comm.sensing_equal_rate_power(h, zf_precoder(h), noise, r)
    gamma = 2.0 ** r - 1.0
    # the one user's ZF direction is its channel: p |h|^2 / noise = gamma,
    # and the block sqrt(p_s / 4) I adds p_s |h|^2 / 4 of interference
    assert p0[0] == pytest.approx(gamma * noise / np.linalg.norm(h) ** 2, rel=1e-12)
    assert slope[0] == pytest.approx(gamma / 4.0, rel=1e-12)
    p0, slope = comm.sensing_equal_rate_power(h, zf_precoder(h), noise, 0.0)
    assert np.array_equal(p0, [0.0]) and np.array_equal(slope, [0.0])


def test_equal_rate_allocation_hits_targets_with_sensing():
    rng = np.random.default_rng(3)
    h = _cgauss(rng, (8, 3))
    v = zf_precoder(h)
    noise, r_min, p_s = 0.05, 1.2, 0.6
    p0, slope = comm.sensing_equal_rate_power(h, v, noise, r_min)
    p = p0 + p_s * slope
    assert np.all(p > 0)
    w = np.hstack([v * np.sqrt(p), np.sqrt(p_s / 8.0) * np.eye(8)])
    achieved = rates(w, h, noise).rate
    assert np.allclose(achieved, r_min, atol=1e-8)


def test_sensing_equal_rate_power_is_the_affine_form_of_equal_rate_power():
    rng = np.random.default_rng(12)
    noise = 0.05
    h = _cgauss(rng, (8, 3))
    v = zf_precoder(h)
    p0, slope = comm.sensing_equal_rate_power(h, v, noise, 0.3)
    for p_s in (0.0, 0.7, 2.0):
        w_s = np.sqrt(p_s / 8.0) * np.eye(8, dtype=complex)
        ref = equal_rate_power(h, v, w_s, noise, 0.3)
        assert np.abs(p0 + p_s * slope - ref).max() <= 1e-12 * ref.max()
    p0, slope = comm.sensing_equal_rate_power(h, v, noise, 0.0)
    assert not p0.any() and not slope.any()


@settings(max_examples=60, deadline=None)
@given(mt=st.integers(1, 12), k=st.integers(1, 8), seed=st.integers(0, 10**6),
       power=st.floats(-20.0, 40.0))
def test_zf_powers_at_the_max_min_rate_use_the_budget(mt, k, seed, power):
    # the rate floor and the warm start read one rule for the ZF powers:
    # at r_min = the max-min ZF rate the powers without sensing sum to P_max
    assume(k <= mt)
    s = make_scenario(num_tx=mt, num_rx=mt, num_users=k, power_budget_dbm=power,
                      target_angles_deg=(-40.0, 25.0), target_ranges_m=(50.0, 60.0),
                      snapshots=64, seed=seed)
    h = s.channels
    v = zf_precoder(h)
    r_min = max_min_zf_rate(h, v, s.noise_power, s.power_budget)
    p0 = comm.sensing_equal_rate_power(h, v, s.noise_power, r_min)[0]
    assert p0.sum() == pytest.approx(s.power_budget, rel=1e-12)


def test_max_min_single_user_closed_form():
    rng = np.random.default_rng(5)
    h = _cgauss(rng, (4, 1))
    noise, p_max = 0.2, 1.7
    r = max_min_zf_rate(h, zf_precoder(h), noise, p_max)
    expected = np.log2(1.0 + p_max * np.linalg.norm(h) ** 2 / noise)
    assert r == pytest.approx(expected, rel=1e-6)


def test_max_min_monotone_and_consumes_budget():
    rng = np.random.default_rng(6)
    h = _cgauss(rng, (8, 3))
    noise = 0.1
    r1 = max_min_zf_rate(h, zf_precoder(h), noise, 1.0)
    r2 = max_min_zf_rate(h, zf_precoder(h), noise, 2.0)
    assert r2 > r1 > 0
    v = zf_precoder(h)
    used = comm.sensing_equal_rate_power(h, v, noise, r1)[0].sum()
    assert abs(used - 1.0) <= 1e-9


def test_max_min_high_snr_closed_form():
    # far beyond any bisection bracket: SINR 1e200, about 664 b/s/Hz
    h = np.array([[1.0], [0.0]], dtype=complex)
    assert max_min_zf_rate(h, zf_precoder(h), 1e-200, 1.0) \
        == pytest.approx(np.log2(1.0 + 1e200), rel=1e-15)


def test_max_min_rejects_unbounded_or_negative_sinr():
    h = np.array([[1.0], [0.0]], dtype=complex)
    for noise, p_max in ((0.0, 1.0), (1e-320, 1.0), (0.1, -1.0)):
        with pytest.raises(NumericalError):
            max_min_zf_rate(h, zf_precoder(h), noise, p_max)


# ------------------------------------------------------------------ cone

def _dense_cone(h, cones, k):
    """Reference cone map H_k of user k, (N+2) x M_T N, acting on vec(W)."""
    mt, n = cones.w_shape
    head = np.kron(np.eye(n), h[:, k].conj()[None, :])
    tail = np.zeros((1, mt * n), dtype=complex)
    tail[0, k * mt:(k + 1) * mt] = cones.root_gamma * h[:, k].conj()
    return np.vstack([head, np.zeros((1, mt * n)), tail])


def _dense_offset(cones):
    n = cones.w_shape[1]
    z = np.zeros(n + 2, dtype=complex)
    z[n] = cones.sigma
    return z


def _dense_f2_and_grad(w, h, instances):
    vec = np.reshape(w, -1, order="F")
    total, acc = 0.0, np.zeros(vec.size, dtype=complex)
    for k in range(len(instances)):
        mat = _dense_cone(h, instances, k)
        x = mat @ vec + _dense_offset(instances)
        resid = x - soc_project(x)
        total += float(np.vdot(resid, resid).real)
        acc += mat.conj().T @ resid
    return total, 2.0 * np.reshape(acc, w.shape, order="F")


def test_soc_assemble_stacks_expected_entries():
    rng = np.random.default_rng(7)
    h = _cgauss(rng, (4, 2))
    noise, r = 0.3, 1.5
    n = 6
    instances = soc_assemble(h, r, noise, num_streams=n)
    assert len(instances) == 2
    w = _cgauss(rng, (4, n))
    gamma = 2.0 ** r - 1.0
    # every user shares one floor: sigma, gamma and Gamma are scalars
    assert instances.w_shape == (4, n)
    assert instances.gamma == pytest.approx(gamma, rel=1e-14)
    assert instances.root_gamma == pytest.approx(np.sqrt(1.0 + 1.0 / gamma), rel=1e-14)
    assert instances.sigma == pytest.approx(np.sqrt(noise), rel=1e-14)
    assert instances.sigma2 == pytest.approx(noise, rel=1e-14)
    assert np.array_equal(instances.rows, h.conj().T)
    assert instances.rows.flags.c_contiguous
    # iterating the cones yields user k's row of H^H as .matrix, in user order
    for k, inst in enumerate(instances):
        assert np.array_equal(inst.matrix, h[:, k].conj())
        assert inst.matrix.nbytes == h[:, k].nbytes
        x = x_of(instances, k, w)
        assert np.allclose(x, _dense_cone(h, instances, k) @ np.reshape(w, -1, order="F")
                           + _dense_offset(instances), rtol=1e-12, atol=1e-12)
        assert np.allclose(x[:n], h[:, k].conj() @ w, atol=1e-12)
        assert x[n] == pytest.approx(np.sqrt(noise), rel=1e-14)
        tail = instances.root_gamma * np.vdot(h[:, k], w[:, k])
        assert abs(x[n + 1] - tail) <= 1e-12


@settings(deadline=None, max_examples=200)
@given(st.floats(0.0, 40.0, exclude_min=True))
@example(11.988475621495391)   # libm pow and numpy's power ufunc differ here
def test_soc_assemble_gamma_is_the_equal_rate_floor(r_min):
    # the cones and sensing_equal_rate_power share one SINR floor, to the bit
    h = np.ones((2, 1), dtype=complex)
    gamma = float(2.0 ** np.asarray(r_min) - 1.0)
    # the own gain |h^H h|^2 is 4: the power without sensing is gamma 0.1 / 4
    p0 = comm.sensing_equal_rate_power(h, h, 0.1, r_min)[0]
    assert p0[0] == gamma / 4.0 * 0.1
    if gamma == 0.0:     # 2^r_min rounds to 1: no positive floor
        with pytest.raises(ValueError):
            soc_assemble(h, r_min, 0.1, num_streams=3)
    else:
        assert soc_assemble(h, r_min, 0.1, num_streams=3).gamma == gamma


def test_soc_assemble_guards():
    h = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        soc_assemble(h, 0.0, 0.1, 6)
    with pytest.raises(ValueError):
        soc_assemble(h, 1.0, 0.1, num_streams=1)
    with pytest.raises(ValueError):
        soc_assemble(np.zeros((4, 0)), 1.0, 0.1, 4)


def test_cone_membership_matches_sinr_threshold():
    rng = np.random.default_rng(7)
    h = _cgauss(rng, (8, 3)) / np.sqrt(2.0)
    noise, r = 0.3, 1.5
    n = 10
    instances = soc_assemble(h, r, noise, num_streams=n)
    gamma = 2.0 ** r - 1.0
    checked = 0
    for _ in range(50):
        w = _cgauss(rng, (8, n), scale=rng.uniform(0.5, 2.0))
        rep = rates(w, h, noise)
        for k in range(len(instances)):
            x = x_of(instances, k, w)
            member = np.linalg.norm(x - soc_project(x)) <= 1e-9
            sinr = rep.sinr[k]
            if abs(sinr - gamma) <= 1e-9 * gamma:
                continue                      # boundary dead zone
            assert member == (sinr >= gamma)
            checked += 1
    assert checked >= 100


def test_soc_project_closed_form_cases():
    inside = np.array([0.3, 0.4, 2.0])
    assert np.array_equal(soc_project(inside), inside)
    out = soc_project(np.array([1.0, 0.0, 0.5]))
    assert np.allclose(out, [0.75, 0.0, 0.75], atol=1e-15)
    neg = soc_project(np.array([1.0, 0.0, -0.25]))
    assert np.allclose(neg, [0.625, 0.0, -0.625], atol=1e-15)
    phase = np.exp(0.9j)
    spun = soc_project(np.array([1.0, 0.0, 0.25 * phase]))
    assert np.allclose(spun, [0.625, 0.0, 0.625 * phase], atol=1e-14)
    zero_tail = soc_project(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(zero_tail, [0.5, 0.0, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        soc_project(np.array([1.0]))


def test_soc_project_is_a_projection():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        x = _cgauss(rng, (5,), scale=rng.uniform(0.1, 3.0))
        y = soc_project(x)
        # lands in the cone, is idempotent, and the residual is
        # orthogonal to the result
        assert np.linalg.norm(y[:-1]) <= abs(y[-1]) + 1e-12
        assert np.allclose(soc_project(y), y, atol=1e-12)
        assert abs(np.vdot(x - y, y).real) <= 1e-9 * max(1.0, np.vdot(x, x).real)


def test_f2_zero_with_gradient_zero_on_feasible_point():
    rng = np.random.default_rng(9)
    h = _cgauss(rng, (4, 2))
    v = zf_precoder(h)
    w_s = _cgauss(rng, (4, 4), scale=0.05)
    noise, r = 0.1, 1.0
    p = equal_rate_power(h, v, w_s, noise, r + 0.5)   # strict interior
    w = np.hstack([v * np.sqrt(p), w_s])
    value, grad = f2_and_grad(w, soc_assemble(h, r, noise, w.shape[1]))
    assert value == 0.0
    assert np.array_equal(grad(), np.zeros_like(w))


def test_f2_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    h = _cgauss(rng, (4, 2))
    instances = soc_assemble(h, 1.2, 0.3, num_streams=6)
    w = _cgauss(rng, (4, 6), scale=0.8)
    value, grad = f2_and_grad(w, instances)
    assert value > 1e-18
    step = 1e-6
    for _ in range(10):
        d = _cgauss(rng, w.shape)
        d /= np.linalg.norm(d)
        up = f2_and_grad(w + step * d, instances)[0]
        dn = f2_and_grad(w - step * d, instances)[0]
        fd = (up - dn) / (2.0 * step)
        analytic = np.vdot(grad(), d).real
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-10)


def test_f2_and_gradient_match_dense_reference():
    rng = np.random.default_rng(12)
    for mt, k, n in ((8, 3, 11), (32, 6, 38), (128, 4, 10)):
        h = _cgauss(rng, (mt, k)) / np.sqrt(2.0)
        instances = soc_assemble(h, 1.5, 0.3, num_streams=n)
        for scale in (0.3, 1.0):
            w = _cgauss(rng, (mt, n), scale=scale)
            w[:, 0] = 3.0 * h[:, 0]           # user 0 inside its cone
            assert rates(w, h, 0.3).sinr[0] > instances.gamma
            value, grad = f2_and_grad(w, instances)
            ref_value, ref_grad = _dense_f2_and_grad(w, h, instances)
            assert ref_value > 0
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert np.linalg.norm(grad() - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


def test_f2_decreases_as_the_serving_beam_grows():
    h = np.array([[1.0], [0.0]], dtype=complex)
    instances = soc_assemble(h, 1.0, 1.0, num_streams=2)
    values = []
    for t in np.linspace(0.0, 1.5, 7):
        w = np.zeros((2, 2), dtype=complex)
        w[0, 0] = t
        values.append(f2_and_grad(w, instances)[0])
    assert np.all(np.diff(values) <= 1e-15)
    assert values[-1] == 0.0                 # t = 1.5 is past the boundary
    # all-zero beamformer sits outside at squared distance noise/2
    assert values[0] == pytest.approx(0.5, rel=1e-12)


def test_f2_rejects_mismatched_beamformer():
    h = np.ones((4, 2), dtype=complex)
    instances = soc_assemble(h, 1.0, 0.1, num_streams=6)
    with pytest.raises(ValueError):
        f2_and_grad(np.ones((4, 5), dtype=complex), instances)


# ---------------------------------------------------------- Gauss-Newton

def _residual_gradients(w, h, cones, radius):
    """(e, dense Euclidean gradients h_k c_k of e_k = hn_k - tm_k, their
    tangent projections), user by user, one M_T x N matrix each."""
    e, grads = [], []
    for k in range(h.shape[1]):
        p = h[:, k].conj() @ w
        hn = np.sqrt(np.vdot(p, p).real + cones.sigma2)
        tail = cones.root_gamma * p[k]
        phase = tail / abs(tail) if abs(tail) > 0 else 1.0
        c = p / hn
        c[k] -= cones.root_gamma * phase
        e.append(hn - abs(tail))
        grads.append(np.outer(h[:, k], c))
    return np.array(e), grads, [project_tangent(w, g, radius) for g in grads]


@settings(max_examples=60, deadline=None)
@given(mt=st.integers(1, 8), k=st.integers(1, 5), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_gauss_newton_gram_is_the_projected_gradients_gram(mt, k, extra, seed):
    rng = np.random.default_rng(seed)
    h = _cgauss(rng, (mt, k))
    radius = rng.uniform(0.5, 2.0)
    w = random_point(mt, k + extra, radius, rng)
    cones = soc_assemble(h, rng.uniform(0.1, 4.0), rng.uniform(0.01, 1.0), num_streams=k + extra)
    e, grads, xi = _residual_gradients(w, h, cones, radius)
    # the rows are those of the f2 gradient: sum_k max(e_k, 0) h_k c_k
    dense = sum(max(ek, 0.0) * g for ek, g in zip(e, grads))
    assert np.linalg.norm(f2_and_grad(w, cones)[1]() - dense) <= 1e-12 * np.linalg.norm(dense)
    users = np.arange(k)
    gram = comm._tangent_gram(w, cones, radius, comm._cone_gaps(w, cones), users)[2]
    ref = np.array([[inner(a, b) for b in xi] for a in xi])
    # relative to the Euclidean gradients' squared norms, which the
    # projection's two terms share (at M_T = N = 1 every projection is 0)
    assert np.abs(gram - ref).max() <= 1e-12 * max(inner(g, g) for g in grads)


def test_gauss_newton_step_solves_the_linearised_residuals():
    rng = np.random.default_rng(21)
    mt, k, n, radius, margin = 8, 5, 13, 1.3, 1e-9
    h = _cgauss(rng, (mt, k))
    w = random_point(mt, n, radius, rng)
    # a floor between the users' rates leaves some of them inside their cones
    r_min = float(np.median(rates(w, h, 0.2).rate))
    cones = soc_assemble(h, r_min, 0.2, num_streams=n)
    e, _, xi = _residual_gradients(w, h, cones, radius)
    hn = np.sqrt((np.abs(h.conj().T @ w) ** 2).sum(axis=1) + 0.2)
    act = np.flatnonzero(e > -margin * hn)
    assert 0 < act.size < k
    f2, step = f2_and_gauss_newton(w, cones, radius, margin)
    assert f2 == f2_and_grad(w, cones)[0]
    d, gnorm = step()
    assert np.linalg.norm(project_tangent(w, d, radius) - d) <= 1e-12 * np.linalg.norm(d)
    # e_A + <grad e_A, D> = -margin hn_A, and D has the least norm: it lies
    # in the span of the active users' projected gradients
    lin = e[act] + np.array([inner(xi[j], d) for j in act])
    assert np.abs(lin + margin * hn[act]).max() <= 1e-10 * hn[act].max()
    basis = np.array([xi[j].ravel() for j in act]).T
    coeffs = np.linalg.lstsq(np.vstack([basis.real, basis.imag]),
                             np.concatenate([d.ravel().real, d.ravel().imag]), rcond=None)[0]
    assert np.linalg.norm(basis @ coeffs - d.ravel()) <= 1e-10 * np.linalg.norm(d)
    rgrad = project_tangent(w, f2_and_grad(w, cones)[1](), radius)
    assert gnorm == pytest.approx(np.sqrt(inner(rgrad, rgrad)), rel=1e-10)


def test_gauss_newton_takes_phase_one_at_a_zero_tail():
    # user 0 sees only antenna 0, which sends nothing on its beam: P_00 = 0
    rng = np.random.default_rng(22)
    h = _cgauss(rng, (4, 2))
    h[:, 0] = [1.0, 0.0, 0.0, 0.0]
    w = random_point(4, 6, 1.0, rng)
    w[0, 0] = 0.0
    w[0] *= 1.0 / np.linalg.norm(w[0])
    cones = soc_assemble(h, 1.0, 0.1, num_streams=6)
    e, _, xi = _residual_gradients(w, h, cones, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gaps = comm._cone_gaps(w, cones)
        assert gaps[3][0] == 0.0
        c, _, gram = comm._tangent_gram(w, cones, 1.0, gaps, np.arange(2))
        f2, step = f2_and_gauss_newton(w, cones, 1.0, 1e-9)
        assert step() is not None
    assert c[0, 0] == -cones.root_gamma
    ref = np.array([[inner(a, b) for b in xi] for a in xi])
    assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()


def _interference_and_signal(w, cones, k):
    p = cones.rows[k] @ w
    return (np.abs(np.delete(p, k)) ** 2).sum(), np.abs(p[k]) ** 2


@pytest.mark.parametrize("seed", range(3))
def test_sinr_project_lands_each_short_row_on_its_set_boundary(seed):
    # the least-norm update along h_k puts user k's row exactly on its
    # target, which lies on the boundary of the margin's SINR set; a row
    # already in the set is left alone
    rng = np.random.default_rng(seed)
    h = _cgauss(rng, (6, 4))
    w = random_point(6, 9, 1.0, rng)
    w[:, 0] *= 30.0               # user 0 in its set at the low floor
    w[:, 1] *= 1e-9               # user 1 without room at the high noise
    margin = 0.002
    branches = set()
    for r_min, noise in ((0.5, 1e-3), (6.0, 1e-3), (6.0, 1e3)):
        cones = soc_assemble(h, r_min, noise, num_streams=9)
        c2 = 1.0 / (cones.gamma * (1.0 + margin))
        for k in range(4):
            z2, s2 = _interference_and_signal(w, cones, k)
            moved = comm.sinr_project(w, k, cones, margin)
            if z2 + cones.sigma2 <= c2 * s2:
                assert moved is w
                branches.add("inside")
                continue
            branches.add("room" if c2 * s2 > cones.sigma2 else "no room")
            z2_new, s2_new = _interference_and_signal(moved, cones, k)
            assert z2_new + cones.sigma2 == pytest.approx(c2 * s2_new, rel=1e-12)
            step = moved - w
            # rank one along h_k: the least-norm update for user k's row
            assert np.allclose(step, np.outer(h[:, k], h[:, k].conj() @ step)
                               / np.linalg.norm(h[:, k]) ** 2, rtol=0, atol=1e-12 * np.abs(w).max())
    assert branches == {"inside", "room", "no room"}
