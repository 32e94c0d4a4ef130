"""Riemannian conjugate gradient on the oblique manifold: stage I's solver.

Fletcher-Reeves directions, retraction after every update,
projection-based transport, and a steepest-descent restart every
``restart_period`` iterations, a period the caller passes (the design
passes its stream count, whatever width the variable has). Each step
runs one bracketing strong Wolfe search with the fixed constants C1 and
C2 (curvature measured against the transported direction) and at most
MAX_LINESEARCH_EVALS probes, so a bisected bracket stays above 2^-30 of
its first width; when no probe meets both conditions it takes the best
probe that met sufficient decrease, and the solver stops with
'linesearch_fail' when none did. The first search of a solve tries the
step 1/||d|| first; every later search tries twice the step the
previous one accepted (Nocedal & Wright, Numerical Optimization, 3.5).
The solver is objective-agnostic and applies the dual stopping rule
(gradient norm below eps*(1+|f|), or objective change below eps) to
whatever scale the callback reports. The start is the one point a
caller hands the solver, so it alone is checked for manifold
membership; every later point is a retraction output.

The callback ``fg(w)`` returns ``(value, egrad)``: the objective value
at w and a zero-argument callable that returns the Euclidean gradient
there. ``minimize`` calls ``egrad`` at the start point; a line search
calls it only on the first read of a probe's gradient, which happens
at the probes that pass both the sufficient-decrease test and the
bracket's low end (for the curvature and bracket-sign tests) and at
the probe it returns. A probe that fails either test costs one
objective value, no gradient and, in stage I, no Fisher inverse
(``crlb.FisherState`` forms it when the gradient is read). A probe
calls ``fg`` directly, and ``minimize`` sums the trace's totals from
the searches: the start's value and gradient, then each search's
``evals`` and ``grads``. A search that returns None has made
MAX_LINESEARCH_EVALS probes and read no gradient.

The slope along d at a probe is ``inner(rgrad, d)``: the tangent
projection P is self-adjoint and ``rgrad`` is tangent, so this equals
``inner(rgrad, P d)``, and d is transported only for the accepted step
of a conjugate (beta != 0) update. The line search reports the
``<d, d>`` it scales its first step by, and the Zoutendijk term of the
step reuses it, so each step forms it once. Likewise the descent check
of a new direction forms ``<rgrad, d>``, which is the next step's
slope.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .manifold import inner, is_on_manifold, project_tangent, retract, row_norms

_TINY = 1e-300

# Strong Wolfe constants; 0 < C1 < C2 < 1/2 keeps every Fletcher-Reeves
# direction a descent direction (Al-Baali 1985; Nocedal & Wright, 5.2).
C1 = 1e-4
C2 = 0.4
MAX_LINESEARCH_EVALS = 30   # probes per line search, that is per step


@dataclass
class RcgOptions:
    """Stopping rule; the line search is fixed and the restart period is
    ``minimize``'s argument."""
    eps: float = 3e-4
    max_iters: int = 2000

    def __post_init__(self):
        if not (0.0 <= self.eps < math.inf):
            raise ValueError("eps must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValueError("iteration budget must be positive")


class IterRecord(NamedTuple):
    """One step of a solve. A named tuple: immutable, and cheaper to
    build each step than a frozen dataclass."""
    iteration: int
    objective: float
    grad_norm: float
    step: float
    beta: float
    wolfe_ok: bool
    evals: int          # line-search probes of this step
    grads: int          # gradients those probes computed, at most evals


@dataclass
class SolverTrace:
    initial_objective: float
    records: list = field(default_factory=list)
    termination: str = "max_iters"
    zoutendijk: list = field(default_factory=list)
    initial_grad_norm: float = math.nan  # Riemannian gradient norm at the start
    objective_evals: int = 0    # objective values computed, the start's included
    gradient_evals: int = 0     # gradients computed, the start's included

    @property
    def iterations(self):
        return len(self.records)

    @property
    def final_grad_norm(self):
        return self.records[-1].grad_norm if self.records else self.initial_grad_norm

    @property
    def wolfe_fallbacks(self):
        """Steps that took the best sufficient-decrease probe, not a Wolfe point."""
        return sum(not r.wolfe_ok for r in self.records)

    def objectives(self):
        return np.array([self.initial_objective] + [r.objective for r in self.records])


@dataclass(slots=True)
class _Eval:
    """One line-search probe: retracted point, value, and the Riemannian
    gradient once it has been read."""
    step: float
    point: np.ndarray
    value: float
    egrad: object                   # () -> Euclidean gradient at point
    rgrad: np.ndarray | None = None


class LineSearchResult(NamedTuple):
    step: float
    evals: int
    grads: int          # probes whose gradient was computed
    wolfe_ok: bool
    at: _Eval           # its rgrad is set
    d_norm2: float      # <d, d> of the search direction


def wolfe_linesearch(fg, w, d, f0, slope0, radius, first_step):
    """Strong Wolfe step along d from w.

    Sufficient decrease: f(R(w + a d)) <= f0 + C1 a slope0.
    Curvature: |<grad f at the new point, transported d>| <= C2 |slope0|.
    The first trial step is ``first_step`` (``minimize`` passes twice the
    previous search's accepted step), or 1/||d|| when it is None (the
    first search of a solve). One bracketing search over [a_lo, a_hi]:
    the trial step doubles until an upper end is found, then bisects. It
    makes at most MAX_LINESEARCH_EVALS probes. If none meets both
    conditions, returns the best probe that met sufficient decrease
    (wolfe_ok False), or None if no probe decreased enough. A probe's
    gradient is computed on its first read (module docstring).
    """
    if slope0 >= 0.0:
        raise ValueError(f"line search needs a descent direction, got slope {slope0}")
    d_norm2 = inner(d, d)
    a = 1.0 / math.sqrt(d_norm2) if first_step is None else first_step
    a_lo, f_lo, a_hi = 0.0, f0, None
    best = None
    evals = grads = 0

    def gradient(ev):
        nonlocal grads
        if ev.rgrad is None:
            ev.rgrad = project_tangent(ev.point, ev.egrad(), radius)
            grads += 1
        return ev.rgrad

    while evals < MAX_LINESEARCH_EVALS:
        point = retract(w + a * d, radius)
        value, egrad = fg(point)
        if not math.isfinite(value):
            raise NumericalError(f"objective returned non-finite value {value}")
        ev = _Eval(a, point, value, egrad)
        evals += 1
        armijo = value <= f0 + C1 * a * slope0
        if armijo and (best is None or value < best.value):
            best = ev
        if not armijo or (evals > 1 and value >= f_lo):
            a_hi = a
        else:
            dslope = inner(gradient(ev), d)
            if abs(dslope) <= -C2 * slope0:
                return LineSearchResult(a, evals, grads, True, ev, d_norm2)
            # with no upper end yet the interval counts as positive
            if dslope * (1.0 if a_hi is None else a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo = a, value
        a = 2.0 * a if a_hi is None else 0.5 * (a_lo + a_hi)
    if best is None:
        return None
    gradient(best)
    return LineSearchResult(best.step, evals, grads, False, best, d_norm2)


def minimize(fg, w0, radius, opts, restart_period):
    """Minimize fg over the fixed-row-norm manifold starting at w0.

    Parameters
    ----------
    fg : callable
        w -> (objective value, zero-argument callable returning the
        Euclidean gradient matrix at w).
    w0 : ndarray
        Starting point, rows of norm ``radius`` within relative
        ``manifold.ROW_TOL``; ValueError otherwise. The retraction keeps
        every later point on the manifold, so nothing is checked again.
    radius : float
        Row radius of the manifold.
    opts : RcgOptions
    restart_period : int
        Every ``restart_period``-th direction is steepest descent. It is
        the caller's, not the variable's width, so a solve on a subset of
        the columns can keep the restarts of the full-width one.

    Returns
    -------
    (ndarray, SolverTrace)
        The trace counts every objective value and gradient computed,
        those of a failed line search too.
    """
    if restart_period < 1:
        raise ValueError("restart period must be positive")
    w = np.asarray(w0)
    if not is_on_manifold(w, radius):
        gap = np.abs(row_norms(w) - radius).max() / radius
        raise ValueError(f"start off manifold (relative row-norm gap {gap:.2e})")
    f, egrad = fg(w)
    if not math.isfinite(f):
        raise NumericalError("objective non-finite at the starting point")
    rgrad = project_tangent(w, egrad(), radius)
    gnorm2 = inner(rgrad, rgrad)
    d = -rgrad
    slope = inner(rgrad, d)
    # the start's value and gradient count in the totals
    trace = SolverTrace(initial_objective=f, initial_grad_norm=math.sqrt(gnorm2),
                        objective_evals=1, gradient_evals=1)
    first_step = None

    for it in range(opts.max_iters):
        if math.sqrt(gnorm2) <= opts.eps * (1.0 + abs(f)):
            trace.termination = "grad_tol"
            return w, trace
        ls = wolfe_linesearch(fg, w, d, f, slope, radius, first_step)
        if ls is None:
            # a search returns None only after its last probe, having
            # read no gradient: one is read only where a probe met
            # sufficient decrease, and that probe would be returned
            trace.objective_evals += MAX_LINESEARCH_EVALS
            trace.termination = "linesearch_fail"
            return w, trace
        trace.objective_evals += ls.evals
        trace.gradient_evals += ls.grads
        ev = ls.at
        first_step = 2.0 * ls.step
        trace.zoutendijk.append(slope * slope / max(ls.d_norm2, _TINY))
        gnorm2_new = inner(ev.rgrad, ev.rgrad)
        if (it + 1) % restart_period == 0:
            beta = 0.0
        else:
            beta = gnorm2_new / gnorm2
        if beta != 0.0:
            d_new = beta * project_tangent(ev.point, d, radius) - ev.rgrad
            slope_new = inner(ev.rgrad, d_new)
            if slope_new >= 0.0:
                beta = 0.0
        if beta == 0.0:
            d_new = -ev.rgrad
            slope_new = inner(ev.rgrad, d_new)
        trace.records.append(IterRecord(it, ev.value, math.sqrt(gnorm2_new), ls.step, beta,
                                        ls.wolfe_ok, ls.evals, ls.grads))
        df = abs(f - ev.value)
        w, f, d, gnorm2, slope = ev.point, ev.value, d_new, gnorm2_new, slope_new
        if df < opts.eps:
            trace.termination = "obj_tol"
            return w, trace

    trace.termination = "max_iters"
    return w, trace
