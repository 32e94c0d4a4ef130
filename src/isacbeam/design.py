"""Two-stage dual-function beamformer design.

Stage I minimizes the sum-CRLB f1 over the oblique manifold from a
structured start (zero-forcing communication columns at equal-rate
powers, identity sensing block on the leftover power), with the
conjugate-gradient solver on f1 normalized by its starting value, so
the stopping thresholds are scale-free. Its one callback evaluates the
Fisher matrix and returns the normalized value and the gradient as one
deferred ``crlb.grad_f1`` call. Stage II, when the minimum user
rate falls short of the target, projects the stage-I point onto the
rate-feasible set: f2, the summed squared cone distances, is a
least-squares problem in the K residuals hn_k - tm_k, so a Riemannian
Gauss-Newton step (Absil, Mahony & Sepulchre, Optimization Algorithms
on Matrix Manifolds, 2008, 8.4) costs one solve with the K x K Gram
matrix of the residuals' gradients, and a few such steps drive f2 to
zero. Where that phase stalls, cyclic projections take over from its
last iterate, the paper's convex closed-set projection: each sweep
moves the users' rows of H^H W into their SINR sets one user at a time,
each by the least-norm update of W, and then retracts. The design then
carries the flag 'sp2_projection'.

``run`` forms the zero-forcing directions of the scenario's channels H
once and hands them to the rate floor (``rate_target``) and the warm
start (``initial_point``).

Modes: 'sgcdf' is the full two-stage design; 'sensing_only' stops after
stage I; 'no_dedicated_stream' has no sensing streams, so both stages
run on its M_T x K communication block and the result is zero-padded to
K + M_T columns; 'omnidirectional' is the equal-power benchmark with no
optimization. Stage I restarts its conjugate directions every K + M_T
steps, the design's stream count, whatever width it carries.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import comm, crlb, manifold, rcg
from .errors import ConfigError, InfeasibleError, NumericalError
from .scenario import substream

MODES = ("sgcdf", "sensing_only", "no_dedicated_stream", "omnidirectional")
FLOORLESS_MODES = ("sensing_only", "omnidirectional")   # no rate floor enforced
RATE_SLACK = 1e-6      # rate-check slack, times min(1, r_min): absorbs rounding at the floor
SP2_MARGIN = 0.002         # projection targets SINR gamma (1 + SP2_MARGIN)
GN_STEP_FRACTION = 0.1     # Gauss-Newton step cap relative to ||W_start||_F
GN_MARGIN = 1e-9           # Gauss-Newton target hn_k - tm_k = -GN_MARGIN hn_k
GN_MAX_STEPS = 60
# the smallest positive rate log2(1 + SINR) takes, the spacing of doubles at 1
_RATE_RESOLUTION = math.log2(1.0 + np.finfo(float).eps)


@dataclass(frozen=True)
class DesignResult:
    w: np.ndarray
    sum_crlb: float
    rcrlb: float                  # sqrt(sum_crlb), radians
    rates: comm.RateReport
    traces: dict
    mode: str
    r_min: float
    wall_time: float
    stage_times: dict
    flags: tuple


def _sensing_block(p_s, num_tx):
    return np.sqrt(p_s / num_tx) * np.eye(num_tx, dtype=complex)


def initial_point(scenario, r_min, zero_sensing, directions):
    """Structured starting beamformer, retracted onto the manifold.

    Returns (w0, flags). ``directions`` are the ``comm.zf_precoder``
    directions of ``scenario.channels``, or None when no ZF design
    exists. Communication columns are the unit-norm ZF directions at
    the equal-rate powers for ``r_min``; the sensing block
    is sqrt(p_s/M_T) I with p_s the leftover budget. That block
    interferes with the users, so their powers p0 + p_s slope are affine
    in p_s (``comm.sensing_equal_rate_power``) and
    p_s + sum(p0 + p_s slope) = P_max gives p_s in closed form, at least
    0. With ``zero_sensing`` there is no sensing block: w0 is the
    M_T x K communication block at the powers p0 without sensing
    interference. A floor at most the max-min ZF rate (``rate_target``)
    keeps sum(p0) within the budget. Without ZF directions the start is
    pure sensing, flagged 'zf_infeasible_fallback'. Raises ConfigError
    for ``zero_sensing`` without users, where every column would be zero
    and no point of the manifold exists.
    """
    mt = scenario.num_tx
    k = scenario.num_users
    p_max = scenario.power_budget
    if k == 0:
        if zero_sensing:
            raise ConfigError("no_dedicated_stream needs at least one user: "
                              "without users and sensing streams the beamformer is zero")
        return _sensing_block(p_max, mt), ()

    if directions is None:
        # cannot place the users: start from pure sensing
        v, p, p_s, flags = np.zeros((mt, k)), np.zeros(k), p_max, ("zf_infeasible_fallback",)
    else:
        p0, slope = comm.sensing_equal_rate_power(scenario.channels, directions,
                                                  scenario.noise_power, r_min)
        p_s = 0.0 if zero_sensing else max((p_max - p0.sum()) / (1.0 + slope.sum()), 0.0)
        v, p, flags = directions, p0 + p_s * slope, ()

    w = v * np.sqrt(p)[None, :]
    if not zero_sensing:
        w = np.concatenate([w, _sensing_block(p_s, mt)], axis=1)
    w = w.astype(complex)
    dead = manifold.row_norms(w) == 0.0
    if np.any(dead):
        # zero rows cannot be retracted; nudge them with unit phases
        rng = substream(scenario.seed, "init")
        phases = np.exp(2j * np.pi * rng.uniform(size=(int(dead.sum()), w.shape[1])))
        w[dead] += 1e-12 * scenario.row_radius * phases
    return manifold.retract(w, scenario.row_radius), flags


def solve_sp1(scenario, w0, opts, coupling):
    """Stage I: minimize the sum-CRLB over the manifold from ``w0``;
    ``coupling`` is ``crlb.coupling_matrices(scenario)``.

    The solver sees f1 over its value at the start, its first
    evaluation; the scale 1 / f1(w0) reaches the gradient as
    ``crlb.grad_f1``'s factor. ``w0`` has M_T rows and any number of
    columns (no_dedicated_stream passes its K communication columns);
    the restart period is the design's stream count K + M_T whatever
    that width. Returns (w, trace).
    """
    base = None

    def fg(w):
        nonlocal base
        state = crlb.fisher_matrix(w, coupling)
        if base is None:
            base = state.objective
        return state.objective / base, lambda: crlb.grad_f1(coupling, state, 1.0 / base)

    return rcg.minimize(fg, w0, scenario.row_radius, opts, restart_period=scenario.num_streams)


def _gauss_newton(cones, w_start, radius):
    """Stage II's Gauss-Newton phase from ``w_start``: (w, trace, f2 at
    ``w_start``), w the first iterate where f2 = 0 (termination
    'target_met') or, where the phase stalls, the last accepted one.

    Each step is ``comm.f2_and_gauss_newton``'s minimum-norm step toward
    hn_k - tm_k = -GN_MARGIN hn_k on the active users, its norm capped at
    GN_STEP_FRACTION ||W_start||_F, then retracted. The phase stalls on
    a singular or non-finite solve, an uncapped step that does not halve
    f2, a capped step that does not lower it, or GN_MAX_STEPS steps. Each
    step's record has f2 and its Riemannian gradient norm over their start
    values and the step's fraction of the full step, below 1 if capped.
    """
    cap = GN_STEP_FRACTION * float(np.linalg.norm(w_start))
    f, step = comm.f2_and_gauss_newton(w_start, cones, radius, GN_MARGIN)
    w, base = w_start, f
    trace = rcg.SolverTrace(initial_objective=1.0, objective_evals=1)

    def direction_at(f2, step_thunk):
        """The step and gradient norm at a point with value f2, or None
        where f2 vanishes or the solve fails."""
        if not f2 > 0.0:
            return None
        trace.gradient_evals += 1
        return step_thunk()

    direction = direction_at(f, step)
    if direction is not None:
        trace.initial_grad_norm = direction[1] / base
    while direction is not None and trace.iterations < GN_MAX_STEPS:
        d = direction[0]
        scale = min(1.0, cap / math.sqrt(manifold.inner(d, d)))
        w_new = manifold.retract(w + scale * d, radius)
        f_new, step = comm.f2_and_gauss_newton(w_new, cones, radius, GN_MARGIN)
        trace.objective_evals += 1
        if not f_new < (f if scale < 1.0 else 0.5 * f):
            break
        w, f = w_new, f_new
        direction = direction_at(f, step)
        trace.records.append(rcg.IterRecord(
            iteration=trace.iterations, objective=f / base,
            grad_norm=0.0 if direction is None else direction[1] / base, step=scale,
            beta=0.0, wolfe_ok=True, evals=1, grads=int(direction is not None)))
    trace.termination = "target_met" if f == 0.0 else "stalled"
    return w, trace, base


def _project(cones, w, radius, max_sweeps, trace, base):
    """Stage II's projection phase from ``w``: sweeps until f2 = 0, at most
    ``max_sweeps``; returns the last iterate. A sweep moves each user's
    row of H^H W into its SINR set in turn (``comm.sinr_project`` at margin
    SP2_MARGIN) and then retracts. Each sweep appends a record to
    ``trace``, numbered from 0, with f2 over ``base`` and grad_norm 0 at
    f2 = 0, NaN before (no gradient is formed).
    """
    f2 = comm.f2_and_grad(w, cones)[0]
    trace.objective_evals += 1
    for sweep in range(max_sweeps):
        if f2 == 0.0:
            break
        for k in cones.idx:
            w = comm.sinr_project(w, k, cones, SP2_MARGIN)
        w = manifold.retract(w, radius)
        f2 = comm.f2_and_grad(w, cones)[0]
        trace.objective_evals += 1
        trace.records.append(rcg.IterRecord(
            iteration=sweep, objective=f2 / base, grad_norm=0.0 if f2 == 0.0 else math.nan,
            step=1.0, beta=0.0, wolfe_ok=True, evals=1, grads=0))
    trace.termination = "target_met" if f2 == 0.0 else "max_iters"
    return w


def solve_sp2(scenario, w_start, r_min, opts):
    """Stage II: restore rate feasibility by driving f2 to zero.

    ``w_start`` may be narrower than K + M_T, as in ``solve_sp1``, and
    the cones are built for its width. Returns (w, trace, flags). Skipped
    (input returned unchanged) when the minimum rate already meets
    ``r_min`` up to RATE_SLACK * min(1, r_min). Otherwise the Gauss-Newton
    phase runs, and where it stalls the projection phase takes over from
    its last iterate, for at most ``opts.max_iters`` sweeps, flagged
    'sp2_projection'. f2 is zero exactly on the rate-feasible set, so the
    result is the first iterate that meets the floor; one that fails the
    rate check raises InfeasibleError with the gap attached. A floor
    whose slack is below the resolution of log2(1 + SINR) cannot be
    checked and raises NumericalError.
    """
    h = scenario.channels
    floor = r_min - RATE_SLACK * min(1.0, r_min)
    feasible = lambda w: comm.rates(w, h, scenario.noise_power).min_rate >= floor
    if r_min <= 0 or feasible(w_start):
        return w_start, rcg.SolverTrace(initial_objective=0.0, termination="target_met"), ()
    if RATE_SLACK * r_min < _RATE_RESOLUTION:
        raise NumericalError(f"rate floor {r_min:.3e} b/s/Hz is below the resolution "
                             "of the rate check")

    cones = comm.soc_assemble(h, r_min, scenario.noise_power, num_streams=w_start.shape[1])
    w, trace, base = _gauss_newton(cones, w_start, scenario.row_radius)
    flags = ()
    if trace.termination != "target_met":
        w = _project(cones, w, scenario.row_radius, opts.max_iters, trace, base)
        flags = ("sp2_projection",)
    if not feasible(w):
        gap = r_min - comm.rates(w, h, scenario.noise_power).min_rate
        raise InfeasibleError(
            f"rate projection stalled ({trace.termination}) with min-rate gap "
            f"{gap:.3e} b/s/Hz", detail={"gap": float(gap), "r_min": float(r_min)})
    return w, trace, flags


def rate_target(scenario, directions):
    """R_min = overload factor times the max-min ZF rate of the unit-norm
    ZF ``directions`` of ``scenario.channels``; 0 without users or at
    overload 0, where ``directions`` is not read."""
    if scenario.num_users == 0 or scenario.overload == 0.0:
        return 0.0
    return scenario.overload * comm.max_min_zf_rate(
        scenario.channels, directions, scenario.noise_power, scenario.power_budget)


def run(scenario, mode, opts=None):
    """Full design pipeline for one scenario and mode."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (choose from {', '.join(MODES)})")
    opts = opts or rcg.RcgOptions()
    t_start = time.perf_counter()
    zf = None
    try:
        if scenario.num_users:
            zf = comm.zf_precoder(scenario.channels)
        r_min = rate_target(scenario, zf)
    except NumericalError:
        # a floor needs a ZF design with a finite max-min rate; the
        # floorless modes and a zero overload need no floor
        if mode not in FLOORLESS_MODES and scenario.overload != 0.0:
            raise
        r_min = 0.0

    mt = scenario.num_tx
    coupling = crlb.coupling_matrices(scenario)
    traces = {"sp1": None, "sp2": None}
    stage_times = {}
    flags = ()
    if mode == "omnidirectional":
        w = np.concatenate([np.zeros((mt, scenario.num_users)),
                            _sensing_block(scenario.power_budget, mt)], axis=1)
    else:
        # no_dedicated_stream solves on its K communication columns
        w0, flags = initial_point(scenario, r_min, mode == "no_dedicated_stream", zf)
        t0 = time.perf_counter()
        w, traces["sp1"] = solve_sp1(scenario, w0, opts, coupling=coupling)
        stage_times["sp1"] = time.perf_counter() - t0
        if mode not in FLOORLESS_MODES:
            t0 = time.perf_counter()
            w, traces["sp2"], sp2_flags = solve_sp2(scenario, w, r_min, opts)
            flags += sp2_flags
            stage_times["sp2"] = time.perf_counter() - t0
        if mode == "no_dedicated_stream":
            w = np.concatenate([w, np.zeros((mt, mt))], axis=1)

    state = crlb.fisher_matrix(w, coupling)
    report = comm.rates(w, scenario.channels, scenario.noise_power)
    return DesignResult(
        w=w, sum_crlb=state.objective, rcrlb=float(np.sqrt(state.objective)),
        rates=report, traces=traces, mode=mode, r_min=float(r_min),
        wall_time=time.perf_counter() - t_start,
        stage_times=stage_times, flags=flags)
