"""Riemannian conjugate gradient on the oblique manifold.

Fletcher-Reeves directions, retraction after every update,
projection-based transport. Each step runs one bracketing strong Wolfe
search (curvature measured against the transported direction); when no
probe meets both conditions it takes the best probe that met sufficient
decrease, and the solver stops with 'linesearch_fail' when none did.
The solver is objective-agnostic: it takes a callback returning (value,
Euclidean gradient) and applies the dual stopping rule (gradient norm
below eps*(1+|f|), or objective change below eps) to whatever scale the
callback reports.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .manifold import check_on_manifold, inner, project_tangent, retract

_TINY = 1e-300


@dataclass
class RcgOptions:
    c1: float = 1e-4
    c2: float = 0.4
    eps: float = 1e-3
    max_iters: int = 2000
    max_linesearch_evals: int = 30
    restart_period: int | None = None   # defaults to the column count
    max_step_norm: float | None = None  # ambient cap on ||step||_F per iterate

    def __post_init__(self):
        # descent of every FR direction needs c2 < 1/2
        if not (0.0 < self.c1 < self.c2 < 0.5):
            raise ValueError("need 0 < c1 < c2 < 1/2")
        # eps = 0 is valid: stage II stops on its rate guard instead
        if not (0.0 <= self.eps < math.inf):
            raise ValueError("eps must be finite and nonnegative")
        if self.max_iters < 1 or self.max_linesearch_evals < 1:
            raise ValueError("iteration budgets must be positive")
        if self.restart_period is not None and self.restart_period < 1:
            raise ValueError("restart period must be at least 1")
        if self.max_step_norm is not None and self.max_step_norm <= 0:
            raise ValueError("step cap must be positive")


@dataclass(frozen=True)
class IterRecord:
    iteration: int
    objective: float
    grad_norm: float
    step: float
    beta: float
    wolfe_ok: bool
    evals: int          # line-search probes of this step


@dataclass
class SolverTrace:
    initial_objective: float
    records: list = field(default_factory=list)
    termination: str = "max_iters"
    zoutendijk: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.records)

    @property
    def final_objective(self):
        return self.records[-1].objective if self.records else self.initial_objective

    def objectives(self):
        return np.array([self.initial_objective] + [r.objective for r in self.records])

    def to_csv(self, stream):
        writer = csv.writer(stream)
        writer.writerow(["iter", "f", "gnorm", "step", "beta", "wolfe_ok", "evals"])
        for r in self.records:
            writer.writerow([r.iteration, repr(r.objective), repr(r.grad_norm),
                             repr(r.step), repr(r.beta), int(r.wolfe_ok), r.evals])


@dataclass(frozen=True)
class _Eval:
    """One line-search probe: retracted point and everything at it."""
    step: float
    point: np.ndarray
    value: float
    rgrad: np.ndarray
    moved: np.ndarray   # search direction transported (projected) to point
    dslope: float       # <rgrad, moved>


@dataclass(frozen=True)
class LineSearchResult:
    step: float
    evals: int
    wolfe_ok: bool
    at: _Eval


def _probe(fg, w, d, alpha, radius):
    point = retract(w + alpha * d, radius)
    value, egrad = fg(point)
    if not math.isfinite(value):
        raise NumericalError(f"objective returned non-finite value {value}")
    rgrad = project_tangent(point, egrad, radius)
    moved = project_tangent(point, d, radius)
    return _Eval(alpha, point, value, rgrad, moved, inner(rgrad, moved))


def wolfe_linesearch(fg, w, d, f0, slope0, radius, opts):
    """Strong Wolfe step along d from w.

    Sufficient decrease: f(R(w + a d)) <= f0 + c1 a slope0.
    Curvature: |<grad f at the new point, transported d>| <= c2 |slope0|.
    One bracketing search over [a_lo, a_hi]: the trial step doubles (up
    to the step cap) until an upper end is found, then bisects. It makes
    at most ``max_linesearch_evals`` probes. If none meets both
    conditions, returns the best probe that met sufficient decrease
    (wolfe_ok False), or None if no probe decreased enough.
    """
    if slope0 >= 0.0:
        raise ValueError(f"line search needs a descent direction, got slope {slope0}")
    d_norm = math.sqrt(inner(d, d))
    a_cap = math.inf if opts.max_step_norm is None else opts.max_step_norm / d_norm
    a = min(1.0 / d_norm, a_cap)
    a_lo, f_lo, a_hi = 0.0, f0, None
    best = None
    evals = 0
    while evals < opts.max_linesearch_evals:
        ev = _probe(fg, w, d, a, radius)
        evals += 1
        armijo = ev.value <= f0 + opts.c1 * a * slope0
        if armijo and (best is None or ev.value < best.value):
            best = ev
        if not armijo or (evals > 1 and ev.value >= f_lo):
            a_hi = a
        elif abs(ev.dslope) <= -opts.c2 * slope0:
            return LineSearchResult(a, evals, True, ev)
        else:
            # with no upper end yet the interval counts as positive
            if ev.dslope * (1.0 if a_hi is None else a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo = a, ev.value
            if a_hi is None and a >= a_cap:
                break  # the capped step already decreases enough
        if a_hi is None:
            a = min(2.0 * a, a_cap)
        elif abs(a_hi - a_lo) <= 1e-14 * max(1.0, abs(a_lo)):
            break
        else:
            a = 0.5 * (a_lo + a_hi)
    if best is None:
        return None
    return LineSearchResult(best.step, evals, False, best)


def minimize(fg, w0, radius, opts=None, stop_when=None):
    """Minimize fg over the fixed-row-norm manifold starting at w0.

    Parameters
    ----------
    fg : callable
        w -> (objective value, Euclidean gradient matrix).
    w0 : ndarray
        Starting point, rows of norm ``radius``.
    radius : float
        Row radius of the manifold.
    opts : RcgOptions
    stop_when : callable, optional
        Predicate on (w, objective); when true the solver stops with
        termination 'target_met'. Checked on every iterate including w0.

    Returns
    -------
    (ndarray, SolverTrace)
    """
    opts = opts or RcgOptions()
    w = np.asarray(w0)
    check_on_manifold(w, radius)
    f, egrad = fg(w)
    if not math.isfinite(f):
        raise NumericalError("objective non-finite at the starting point")
    rgrad = project_tangent(w, egrad, radius)
    gnorm2 = inner(rgrad, rgrad)
    d = -rgrad
    period = opts.restart_period or w.shape[1]
    trace = SolverTrace(initial_objective=f)

    for it in range(opts.max_iters):
        if stop_when is not None and stop_when(w, f):
            trace.termination = "target_met"
            return w, trace
        if math.sqrt(gnorm2) <= opts.eps * (1.0 + abs(f)):
            trace.termination = "grad_tol"
            return w, trace
        slope = inner(rgrad, d)
        ls = wolfe_linesearch(fg, w, d, f, slope, radius, opts)
        if ls is None:
            trace.termination = "linesearch_fail"
            return w, trace
        ev = ls.at
        trace.zoutendijk.append(slope * slope / max(inner(d, d), _TINY))
        gnorm2_new = inner(ev.rgrad, ev.rgrad)
        if (it + 1) % period == 0:
            beta = 0.0
        else:
            beta = gnorm2_new / gnorm2
        d_new = -ev.rgrad + beta * ev.moved
        if inner(ev.rgrad, d_new) >= 0.0:
            d_new = -ev.rgrad
            beta = 0.0
        trace.records.append(IterRecord(it, ev.value, math.sqrt(gnorm2_new),
                                        ls.step, beta, ls.wolfe_ok, ls.evals))
        df = abs(f - ev.value)
        w, f, rgrad, d, gnorm2 = ev.point, ev.value, ev.rgrad, d_new, gnorm2_new
        if df < opts.eps:
            trace.termination = "obj_tol"
            return w, trace

    trace.termination = "max_iters"
    return w, trace
