"""Fisher information of the target angles and the sum-CRLB objective.

For echo snapshots Y = sum_t alpha_t G(theta_t) X + N with sample
covariance R_X = W W^H, the Fisher matrix of the angle vector has
entries F_ij = Re tr(W^H A_ij W) where

    A_ij = (2 L / sigma^2) conj(alpha_i) alpha_j Gdot(theta_i)^H Gdot(theta_j)

and Gdot is the angle derivative of the round-trip channel. Each Gdot
has rank 2, Gdot_i = R_i B_i with R_i = [da_r, a_r] and
B_i = [a_t^H; da_t^H], so A_ij = B_i^H Q_ij B_j with a 2 x 2 receive
coupling Q_ij. With V = B W (2T x N) and C = V V^H, F is the real part
of the 2 x 2 block sums of Q o C^T; no M_T x M_T matrix is formed.

The design objective is f1 = tr(F^-1), the sum of the per-target CRLBs.
One symmetric eigendecomposition F = U diag(lam) U^T, from the LAPACK
kernel behind np.linalg.eigh called directly, serves the positivity and
condition checks (on lam, as Python floats) and the objective,
sum_i 1 / lam_i. The Euclidean gradient of f1 is
-2 sum_ij [F^-2]_ij A_ij W, which in factored form is B^H (M V) with
M the blocks of Q scaled by -2 F^-2. ``FisherState`` keeps the
eigenpairs and the V that F was formed from. Its inverse
F^-1 = (U / lam) U^T is formed the first time the gradient reads it,
so a line-search probe whose gradient is never read pays for F and its
eigenvalues only, and the gradient reads V instead of forming B W
again. ``Coupling`` derives B^H and Q's (T, 2, T, 2) block view once,
so no gradient forms them again.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# The LAPACK kernel (syevd) behind np.linalg.eigh. Every line-search
# probe eigendecomposes one T x T Fisher matrix, and the public wrapper's
# dtype checks, error-state context and result wrapping take longer than
# the decomposition; a test holds its output to np.linalg.eigh's bits.
from numpy.linalg._umath_linalg import eigh_lo as _eigh

from .arrays import steering_and_derivative
from .errors import NumericalError

COND_LIMIT = 1e12   # beyond this the target geometry is unresolvable


@dataclass(slots=True)
class FisherState:
    """One ``fisher_matrix`` evaluation. Every line-search probe makes
    one, so it is a slotted record, cheaper to build than a frozen one;
    its inverse has a slot of its own, filled on first read."""

    matrix: np.ndarray      # F, real symmetric T x T
    eigs: np.ndarray        # its eigenvalues, ascending
    vecs: np.ndarray        # its orthonormal eigenvectors, as columns
    objective: float        # tr(F^-1) = sum 1 / eigs, the sum-CRLB
    v: np.ndarray           # V = B W (2T x N), the product F was formed from
    _inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def inverse(self):
        """F^-1 from the eigenpairs, symmetrised, formed on first read."""
        if self._inverse is None:
            inv = (self.vecs / self.eigs) @ self.vecs.T
            self._inverse = 0.5 * (inv + inv.T)
        return self._inverse


@dataclass(frozen=True)
class Coupling:
    """Factored A_ij = B_i^H Q_ij B_j of every target pair, with the
    forms of B and Q the gradient reads derived once, on first read."""

    b: np.ndarray           # (2T, M_T): rows a_t^H, da_t^H per target
    q: np.ndarray           # (2T, 2T): (2L/sigma^2) conj(alpha_i) alpha_j R_i^H R_j

    @cached_property
    def b_h(self):
        """B^H (M_T x 2T)."""
        return self.b.conj().T

    @cached_property
    def q_blocks(self):
        """Q viewed as (T, 2, T, 2): block (i, j) is Q_ij."""
        t = self.q.shape[0] // 2
        return self.q.reshape(t, 2, t, 2)

    @property
    def nbytes(self):
        """Bytes of B and Q; the derived forms are not counted."""
        return self.b.nbytes + self.q.nbytes


def coupling_matrices(scenario):
    """Transmit factors B and receive coupling Q of every target, from one
    ``steering_and_derivative`` call per array side."""
    angles = scenario.target_angles
    t = angles.size
    if np.min(np.abs(angles[:, None] - angles[None, :]) + np.eye(t)) < 1e-9:
        raise NumericalError("duplicate target angles make the Fisher matrix singular")
    mt, mr, rcs = scenario.num_tx, scenario.num_rx, scenario.target_rcs
    a_t, da_t = steering_and_derivative(angles, mt)
    b = np.empty((2 * t, mt), dtype=complex)
    b[0::2], b[1::2] = a_t.T.conj(), da_t.T.conj()
    a_r, da_r = steering_and_derivative(angles, mr)
    r = np.empty((mr, 2 * t), dtype=complex)
    r[:, 0::2], r[:, 1::2] = rcs * da_r, rcs * a_r
    scale = 2.0 * scenario.snapshots / scenario.noise_power
    return Coupling(b=b, q=scale * (r.conj().T @ r))


def fisher_matrix(w, coupling):
    """Evaluate F, its eigenpairs and the sum-CRLB at a beamformer W.

    Raises NumericalError when F is not positive definite or its
    eigenvalue ratio exceeds COND_LIMIT.
    """
    w = np.asarray(w)
    if w.shape[0] != coupling.b.shape[1]:
        raise ValueError("beamformer row count does not match the array")
    v = coupling.b @ w
    t = v.shape[0] // 2
    # F_ij sums the 2 x 2 block (i, j) of Q o C^T with C = V V^H
    f = (coupling.q * (v @ v.conj().T).T).reshape(t, 2, t, 2).sum(axis=(1, 3)).real
    # symmetric up to rounding (Q and C are Hermitian); eigh reads one triangle
    f = 0.5 * (f + f.T)
    eigs, vecs = _eigh(f)
    lo, hi = eigs[0].item(), eigs[-1].item()
    if lo <= 0 or hi / lo > COND_LIMIT:
        raise NumericalError("Fisher matrix singular or near-singular: "
                             "targets not resolvable with this beamformer")
    return FisherState(matrix=f, eigs=eigs, vecs=vecs,
                       objective=float(np.add.reduce(1.0 / eigs)), v=v)


def grad_f1(coupling, state, scale):
    """Euclidean gradient of ``scale`` tr(F^-1) at the W of ``state``, a
    ``fisher_matrix(w, coupling)``.

    Scaled so that f1(W + D) - f1(W) ~ Re tr(grad^H D) to first order.
    The gradient's factor 2 and ``scale`` go into the T x T weights, not
    the M_T x N result; at scale 1 doubling is exact, so the bits are
    those of doubling the result.
    """
    m = state.inverse
    weights = (m @ m) * (-2.0 * scale)     # 2 scale d tr(F^-1) / dF_ij
    t = m.shape[0]
    blocks = (coupling.q_blocks * weights.T[:, None, :, None]).reshape(2 * t, 2 * t)
    return coupling.b_h @ (blocks @ state.v)
