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
numpy's call overhead, not arithmetic, sets the time. Each reads a
complex matrix (a real one is converted) through its real view
(M x 2N, real and imaginary parts interleaved), so the real inner
products of matching rows, Re sum_j conj(w_ij) x_ij, are one
contiguous product-and-sum, ``np.einsum("ij,ij->i")``, with no
``.real`` or ``.imag`` temporaries. They agree with ``np.linalg.norm``
and ``np.sum`` to rounding, not to the bit. An input whose last axis is
not contiguous (a transposed or column-sliced one) raises ValueError.
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
    v = np.asarray(w, complex).view(float)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def is_on_manifold(w, radius):
    return bool(np.all(np.abs(row_norms(w) - radius) <= ROW_TOL * radius))


def project_tangent(w, x, radius):
    """Project X onto the tangent space at W.

    Removes from each row of X its component along the same row of W:
    Pi(X) = X - (1/rho^2) Re{(W X^H) o I} W. Precondition, not checked:
    every row of W has norm ``radius``.
    """
    coef = np.einsum("ij,ij->i", np.asarray(w, complex).view(float),
                     np.asarray(x, complex).view(float)) / radius**2
    return x - coef[:, None] * w


def retract(y, radius):
    """Map an ambient matrix back onto the manifold by row renormalization."""
    norms = row_norms(y)
    # count_nonzero: a third of the call cost of ndarray.all at these sizes
    if np.count_nonzero(norms) < norms.size:
        raise NumericalError("retraction of a zero row is undefined")
    return y * (radius / norms)[:, None]

