"""Fisher information, sum-CRLB objective, and its gradient."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isacbeam.crlb import Coupling, coupling_matrices, fisher_matrix, grad_f1
from isacbeam.errors import NumericalError
from isacbeam.manifold import inner
from isacbeam.scenario import Scenario, make_scenario
from reference import (per_slot_coupling, random_point, reformed_grad_f1,
                       target_channel_derivative)


def _toy_scenario(angles_deg=(30.0, -30.0), snapshots=16, num_tx=4):
    return Scenario(num_tx=num_tx, num_rx=num_tx, target_angles=np.deg2rad(angles_deg),
                    target_rcs=np.ones(len(angles_deg)), channels=np.zeros((num_tx, 0)),
                    user_angles=[], noise_power=1.0, power_budget=float(num_tx),
                    snapshots=snapshots, overload=0.0, seed=0)


def _dense_coupling(s):
    """Reference A_ij grid, shape (T, T, M_T, M_T), from the full Gdot."""
    gdots = [target_channel_derivative(theta, s.num_tx, s.num_rx) for theta in s.target_angles]
    scale = 2.0 * s.snapshots / s.noise_power
    return np.array([[scale * np.conj(ri) * rj * (gi.conj().T @ gj)
                      for rj, gj in zip(s.target_rcs, gdots)]
                     for ri, gi in zip(s.target_rcs, gdots)])


def _dense_fisher(w, a):
    return np.einsum("mc,ijmn,nc->ij", w.conj(), a, w).real


def _dense_grad(w, a):
    # d tr(F^-1) = -tr(F^-2 dF) and dF_ij = Re tr(dW^H (A_ij + A_ji) W)
    m = np.linalg.inv(_dense_fisher(w, a))
    return -2.0 * np.einsum("ij,ijmn->mn", m @ m, a) @ w


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


ANGLE_SETS = {1: (30.0,), 2: (30.0, -30.0), 3: (-45.0, 10.0, 60.0)}


@pytest.mark.parametrize("num_tx, num_rx", [(32, 32), (8, 8), (8, 12), (16, 5)])
def test_coupling_keeps_the_bits_of_one_steering_call_per_slot(num_tx, num_rx):
    # one call per array side keeps the bits of one-angle calls, slot by slot
    s = make_scenario(num_tx=num_tx, num_rx=num_rx, num_users=2, seed=num_rx)
    c, ref = coupling_matrices(s), per_slot_coupling(s)
    assert np.array_equal(c.b, ref.b) and np.array_equal(c.q, ref.q)


def test_coupling_matches_direct_formula():
    for num_targets, num_tx in itertools.product((1, 2, 3), (4, 32)):
        s = _toy_scenario(angles_deg=ANGLE_SETS[num_targets], num_tx=num_tx)
        c = coupling_matrices(s)
        assert c.b.shape == (2 * num_targets, num_tx)
        assert c.q.shape == (2 * num_targets, 2 * num_targets)
        assert c.nbytes == c.b.nbytes + c.q.nbytes
        dense = _dense_coupling(s)
        for i, j in itertools.product(range(num_targets), repeat=2):
            bi, bj = c.b[2 * i:2 * i + 2], c.b[2 * j:2 * j + 2]
            a_ij = bi.conj().T @ c.q[2 * i:2 * i + 2, 2 * j:2 * j + 2] @ bj
            assert _rel(a_ij, dense[i, j]) <= 1e-12


def test_coupling_diagonal_blocks_hermitian_psd():
    c = coupling_matrices(_toy_scenario(angles_deg=ANGLE_SETS[3], num_tx=8))
    # Q is a scaled Gram matrix, so it and its diagonal blocks are PSD
    assert np.abs(c.q - c.q.conj().T).max() <= 1e-12 * np.abs(c.q).max()
    for blk in [c.q] + [c.q[2 * k:2 * k + 2, 2 * k:2 * k + 2] for k in range(3)]:
        eigs = np.linalg.eigvalsh(0.5 * (blk + blk.conj().T))
        assert eigs.min() >= -1e-9 * eigs.max()


def test_coupling_scales_linearly_with_snapshots():
    s = _toy_scenario(snapshots=16)
    s2 = dataclasses.replace(s, snapshots=32)
    c, c2 = coupling_matrices(s), coupling_matrices(s2)
    assert np.array_equal(c2.b, c.b)
    assert np.allclose(c2.q, 2.0 * c.q, rtol=1e-12)


def test_coupling_rejects_duplicate_angles():
    with pytest.raises(NumericalError):
        coupling_matrices(_toy_scenario(angles_deg=(10.0, 10.0)))


def test_fisher_matches_entrywise_double_loop():
    s = _toy_scenario()
    a = _dense_coupling(s)
    w = 0.5 * np.eye(4, dtype=complex)
    state = fisher_matrix(w, coupling_matrices(s))
    direct = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            acc = 0.0 + 0.0j
            for c in range(w.shape[1]):
                acc += w[:, c].conj() @ a[i, j] @ w[:, c]
            direct[i, j] = acc.real
    assert np.allclose(state.matrix, direct,
                       rtol=1e-10, atol=1e-10 * np.abs(direct).max())
    assert state.objective == pytest.approx(
        np.trace(np.linalg.inv(direct)), rel=1e-10)


def test_fisher_and_gradient_match_dense_reference():
    for num_targets, num_tx in itertools.product((1, 2, 3), (8, 32, 128)):
        s = _toy_scenario(angles_deg=ANGLE_SETS[num_targets], num_tx=num_tx)
        c, a = coupling_matrices(s), _dense_coupling(s)
        rng = np.random.default_rng(num_tx + num_targets)
        for _ in range(3):
            w = random_point(num_tx, num_tx + 3, 1.0, rng)
            state = fisher_matrix(w, c)
            assert _rel(state.matrix, _dense_fisher(w, a)) <= 1e-12
            assert _rel(grad_f1(c, state, 1.0), _dense_grad(w, a)) <= 1e-12


def test_fisher_symmetric_for_random_beamformers():
    a = coupling_matrices(_toy_scenario())
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = random_point(4, 6, 1.0, rng)
        f = fisher_matrix(w, a).matrix
        assert np.abs(f - f.T).max() <= 1e-12 * np.abs(f).max()


def test_fisher_scales_linearly_with_transmit_power():
    a = coupling_matrices(_toy_scenario())
    w = random_point(4, 6, 1.0, np.random.default_rng(8))
    s1 = fisher_matrix(w, a)
    s3 = fisher_matrix(np.sqrt(3.0) * w, a)
    assert np.allclose(s3.matrix, 3.0 * s1.matrix, rtol=1e-10)
    assert s3.objective == pytest.approx(s1.objective / 3.0, rel=1e-10)


def test_crlb_per_target_positive_and_sums_to_objective():
    a = coupling_matrices(_toy_scenario())
    state = fisher_matrix(random_point(4, 5, 1.0, np.random.default_rng(9)), a)
    per = np.diag(state.inverse)
    assert np.all(per > 0)
    assert per.sum() == pytest.approx(state.objective, rel=1e-12)


def test_grad_matches_directional_differences():
    # two targets, then three
    for s, num_cols, seed in ((_toy_scenario(), 6, 3),
                              (_toy_scenario(ANGLE_SETS[3], num_tx=8), 10, 4)):
        a = coupling_matrices(s)
        rng = np.random.default_rng(seed)
        w = random_point(s.num_tx, num_cols, 1.0, rng)
        g = grad_f1(a, fisher_matrix(w, a), 1.0)
        h = 1e-6
        for _ in range(20):
            d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
            d /= np.linalg.norm(d)
            fd = (fisher_matrix(w + h * d, a).objective
                  - fisher_matrix(w - h * d, a).objective) / (2.0 * h)
            assert abs(inner(g, d) - fd) <= 1e-5 * abs(fd)


def test_single_target_gradient_reduction():
    # with one target the weight collapses to -A11 / F^2
    s = _toy_scenario(angles_deg=(30.0,))
    a = coupling_matrices(s)
    w = random_point(4, 5, 1.0, np.random.default_rng(10))
    state = fisher_matrix(w, a)
    f = state.matrix[0, 0]
    expected = -2.0 * (_dense_coupling(s)[0, 0] @ w) / f ** 2
    assert np.allclose(grad_f1(a, state, 1.0), expected, rtol=1e-10, atol=0.0)


def test_gradient_phase_equivariance():
    a = coupling_matrices(_toy_scenario())
    w = random_point(4, 6, 1.0, np.random.default_rng(11))
    phase = np.exp(0.7j)
    assert np.allclose(grad_f1(a, fisher_matrix(phase * w, a), 1.0),
                       phase * grad_f1(a, fisher_matrix(w, a), 1.0), rtol=1e-9)
    # per-column phases, W diag(d), leave W W^H, hence the Fisher matrix, unchanged,
    # so re-phasing columns can never repair a singular Fisher matrix
    d = np.exp(2j * np.pi * np.random.default_rng(12).uniform(size=w.shape[1]))
    f = fisher_matrix(w, a).matrix
    assert np.linalg.norm(fisher_matrix(w * d, a).matrix - f) <= 1e-12 * np.linalg.norm(f)
    assert np.allclose(grad_f1(a, fisher_matrix(w * d, a), 1.0),
                       grad_f1(a, fisher_matrix(w, a), 1.0) * d, rtol=1e-9)


def test_inverse_diagonal_matches_determinant_ratio():
    s = _toy_scenario(angles_deg=(-45.0, 10.0, 60.0), num_tx=8)
    a = coupling_matrices(s)
    state = fisher_matrix(random_point(8, 8, 1.0, np.random.default_rng(12)), a)
    f = state.matrix
    det_f = np.linalg.det(f)
    for t in range(3):
        minor = np.delete(np.delete(f, t, axis=0), t, axis=1)
        assert state.inverse[t, t] == pytest.approx(
            np.linalg.det(minor) / det_f, rel=1e-9)


def test_rank_one_downdate_matches_deleted_inverse():
    s = _toy_scenario(angles_deg=(-45.0, 10.0, 60.0), num_tx=8)
    a = coupling_matrices(s)
    state = fisher_matrix(random_point(8, 8, 1.0, np.random.default_rng(13)), a)
    f, m = state.matrix, state.inverse
    for t in range(3):
        down = m - np.outer(m[:, t], m[t, :]) / m[t, t]
        sub = np.delete(np.delete(down, t, axis=0), t, axis=1)
        direct = np.linalg.inv(np.delete(np.delete(f, t, axis=0), t, axis=1))
        assert np.allclose(sub, direct, rtol=1e-8, atol=1e-12)


def test_fisher_guards_degenerate_inputs():
    a = coupling_matrices(_toy_scenario())
    with pytest.raises(NumericalError):
        fisher_matrix(np.zeros((4, 2), dtype=complex), a)
    with pytest.raises(ValueError):
        fisher_matrix(np.zeros((3, 2), dtype=complex), a)


def test_fisher_rejects_unresolvable_geometry():
    # separation above the duplicate threshold but condition past the limit
    s = dataclasses.replace(_toy_scenario(), target_angles=[0.5, 0.5 + 1e-7])
    a = coupling_matrices(s)
    with pytest.raises(NumericalError):
        fisher_matrix(random_point(4, 4, 1.0, np.random.default_rng(0)), a)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64).flatmap(lambda mt: st.tuples(st.just(mt), st.integers(1, mt))),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_grad_f1_reading_v_keeps_the_bits_of_forming_it(size, t, seed):
    mt, k = size
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = cn(4, 2 * t)
    coupling = Coupling(b=cn(2 * t, mt), q=r.conj().T @ r)
    w = cn(mt, k + mt)
    try:
        state = fisher_matrix(w, coupling)
    except NumericalError:
        assume(False)   # a singular draw (more targets than one antenna resolves)
    assert np.array_equal(grad_f1(coupling, state, 1.0), reformed_grad_f1(w, coupling, state))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64).flatmap(lambda mt: st.tuples(st.just(mt), st.integers(1, mt))),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_lazy_inverse_and_gradient_keep_the_bits_of_the_eager_formula(size, t, seed):
    # F^-1 formed on first read, from the kept eigenpairs, and the
    # gradient with its factor 2 in the weights give the bits of forming
    # F^-1 with F and doubling the gradient's result
    mt, k = size
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    r = cn(4, 2 * t)
    coupling = Coupling(b=cn(2 * t, mt), q=r.conj().T @ r)
    w = cn(mt, k + mt)
    try:
        state = fisher_matrix(w, coupling)
    except NumericalError:
        assume(False)   # a singular draw (more targets than one antenna resolves)
    assert state._inverse is None
    eigs, vecs = np.linalg.eigh(state.matrix)
    inv = (vecs / eigs) @ vecs.T
    inv = 0.5 * (inv + inv.T)
    assert np.array_equal(grad_f1(coupling, state, 1.0),
                          reformed_grad_f1(w, coupling, SimpleNamespace(inverse=inv)))
    assert np.array_equal(state.inverse, inv)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_fisher_eigenpairs_keep_the_bits_of_numpys_eigh(t, seed):
    # fisher_matrix calls the LAPACK kernel behind np.linalg.eigh
    # directly; on the same F both give the same eigenpairs, bit for bit
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mt = 2 * t + 2
    r = cn(2 * t, 2 * t)
    coupling = Coupling(b=cn(2 * t, mt), q=r.conj().T @ r)
    try:
        state = fisher_matrix(cn(mt, mt + 1), coupling)
    except NumericalError:
        assume(False)   # an ill-conditioned draw
    eigs, vecs = np.linalg.eigh(state.matrix)
    assert state.eigs.tobytes() == eigs.tobytes()
    assert state.vecs.tobytes() == vecs.tobytes()
