"""Complex oblique manifold: matrices with fixed-norm rows.

The beamformer W (M_T x (K+M_T)) lives on the manifold where every row
has Euclidean norm rho = sqrt(P_max/M_T), so each antenna transmits at
exactly its power share. Tangent projection (which also serves as the
vector transport) and row-renormalizing retraction are the operators
the conjugate-gradient solver needs.

Membership is one rule, ``is_on_manifold`` at relative tolerance
ROW_TOL, applied once where a point enters the solver
(``rcg.minimize``). Every later point is a ``retract`` output and so on
the manifold by construction; the projection is a plain linear map that
trusts its base point.

The helpers run once per line-search probe on small matrices, where
numpy's call overhead, not arithmetic, sets the time, so each calls the
ufunc reduction that numpy's own wrapper ends in, with the same bits:
``row_norms`` is the body ``np.linalg.norm(w, axis=1)`` runs and
``project_tangent`` reduces with ``np.add.reduce`` as ``np.sum`` does.
"""

import numpy as np

from .errors import NumericalError

ROW_TOL = 1e-10   # relative row-norm tolerance for manifold membership


def inner(a, b):
    """Real trace inner product Re tr(A B^H)."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch in inner product")
    return float(np.vdot(a, b).real)


def row_norms(w):
    return np.sqrt(np.add.reduce((w.conj() * w).real, axis=1))


def is_on_manifold(w, radius):
    return bool(np.all(np.abs(row_norms(w) - radius) <= ROW_TOL * radius))


def project_tangent(w, x, radius):
    """Project X onto the tangent space at W.

    Removes from each row of X its component along the same row of W:
    Pi(X) = X - (1/rho^2) Re{(W X^H) o I} W. Precondition, not checked:
    every row of W has norm ``radius``.
    """
    coef = np.add.reduce(w.real * x.real + w.imag * x.imag, axis=1) / radius**2
    return x - coef[:, None] * w


def retract(y, radius):
    """Map an ambient matrix back onto the manifold by row renormalization."""
    norms = row_norms(y)
    if (norms == 0.0).any():
        raise NumericalError("retraction of a zero row is undefined")
    return y * (radius / norms)[:, None]

