"""Two-stage dual-function beamformer design.

Stage I minimizes the sum-CRLB f1 over the oblique manifold from a
structured start (zero-forcing communication columns at equal-rate
powers, identity sensing block on the leftover power). Stage II, when
the minimum user rate falls short of the target, minimizes the cone
feasibility objective f2 from the stage-I point until every rate meets
the target again. Both stages run the same conjugate-gradient solver on
the objective normalized by its starting value, so the stopping
thresholds are scale-free.

Modes: 'sgcdf' is the full two-stage design; 'sensing_only' stops after
stage I; 'no_dedicated_stream' keeps the sensing columns identically
zero (they stay zero under both gradients and the retraction);
'omnidirectional' is the equal-power benchmark with no optimization.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from . import comm, crlb, manifold, rcg
from .errors import ConfigError, InfeasibleError, NumericalError
from .scenario import substream

MODES = ("sgcdf", "sensing_only", "no_dedicated_stream", "omnidirectional")
FLOORLESS_MODES = ("sensing_only", "omnidirectional")   # no rate floor enforced
RATE_SLACK = 1e-6      # absorbs rounding at the rate boundary
SP2_STEP_FRACTION = 0.02   # stage-II step cap relative to ||W||_F


@dataclass(frozen=True)
class DesignResult:
    w: np.ndarray
    r_x: np.ndarray
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


def initial_point(scenario, r_min, zero_sensing=False):
    """Structured starting beamformer, retracted onto the manifold.

    Returns (w0, flags). Communication columns are unit-norm ZF
    directions at the equal-rate powers for ``r_min``; the sensing block
    is sqrt(p_s/M_T) I with p_s the leftover budget, solved jointly with
    the powers since the sensing block interferes with the users. With
    ``zero_sensing`` the sensing block is identically zero and the
    communication columns keep their ZF powers. Raises ConfigError for
    ``zero_sensing`` without users, where every column would be zero and
    no point of the manifold exists.
    """
    mt = scenario.array.num_tx
    k = scenario.num_users
    p_max = scenario.power_budget
    flags = []
    if k == 0:
        if zero_sensing:
            raise ConfigError("no_dedicated_stream needs at least one user: "
                              "without users and sensing streams the beamformer is zero")
        w = np.sqrt(p_max / mt) * np.eye(mt, dtype=complex)
        return w, tuple(flags)

    h = scenario.channel_matrix()
    p = np.zeros(k)
    p_s = 0.0 if zero_sensing else p_max
    try:
        v = comm.zf_precoder(h)
        if r_min > 0:
            p = comm.equal_rate_power(h, v, None, scenario.noise_power, r_min)
            if p.sum() > p_max:
                p *= 0.9 * p_max / p.sum()
                p_s = 0.0 if zero_sensing else 0.1 * p_max
                flags.append("comm_power_clipped")
            elif not zero_sensing:
                # the required comm power is affine in the sensing power,
                # so the leftover-budget split solves in closed form
                p1 = comm.equal_rate_power(h, v, _sensing_block(p_max, mt),
                                           scenario.noise_power, r_min)
                slope = (p1.sum() - p.sum()) / p_max
                p_s = (p_max - p.sum()) / (1.0 + slope)
                p = comm.equal_rate_power(h, v, _sensing_block(p_s, mt),
                                          scenario.noise_power, r_min)
                p_s = max(p_max - p.sum(), 0.0)
    except (NumericalError, InfeasibleError):
        # cannot place the users: start from pure sensing
        flags.append("zf_infeasible_fallback")
        v = np.zeros((mt, k))
        p = np.zeros(k)
        p_s = 0.0 if zero_sensing else p_max

    w_c = v * np.sqrt(p)[None, :]
    w = np.concatenate([w_c, _sensing_block(p_s, mt)], axis=1).astype(complex)
    dead = manifold.row_norms(w) == 0.0
    if np.any(dead):
        # zero rows cannot be retracted; nudge them with unit phases,
        # leaving pinned-zero sensing columns untouched
        cols = k if zero_sensing else w.shape[1]
        rng = substream(scenario.seed, "init")
        phases = np.exp(2j * np.pi * rng.uniform(size=(int(dead.sum()), cols)))
        w[dead, :cols] += 1e-12 * scenario.row_radius * phases
    return manifold.retract(w, scenario.row_radius), tuple(flags)


def _normalized(value_grad, base):
    def fg(w):
        f, g = value_grad(w)
        return f / base, g / base
    return fg


def solve_sp1(scenario, w0, opts=None, coupling=None):
    """Stage I: minimize the sum-CRLB over the manifold from ``w0``.

    Returns (w, trace). On a singular Fisher matrix at the start the
    sensing column phases are re-randomized once before giving up.
    """
    opts = opts or rcg.RcgOptions()
    if coupling is None:
        coupling = crlb.coupling_matrices(scenario)

    def value_grad(w):
        state = crlb.fisher_matrix(w, coupling)
        return state.objective, crlb.grad_f1(w, coupling, state)

    try:
        base = crlb.fisher_matrix(w0, coupling).objective
    except NumericalError:
        rng = substream(scenario.seed, "sp1-restart")
        k = scenario.num_users
        w0 = w0.copy()
        w0[:, k:] *= np.exp(2j * np.pi * rng.uniform(size=w0.shape[1] - k))[None, :]
        base = crlb.fisher_matrix(w0, coupling).objective
    return rcg.minimize(_normalized(value_grad, base), w0,
                        scenario.row_radius, opts)


def solve_sp2(scenario, w_start, r_min, opts=None):
    """Stage II: restore rate feasibility by minimizing f2.

    Skipped (input returned unchanged) when the minimum rate already
    meets ``r_min``. The stopping rule is the rate guard itself; if the
    solver stalls or exhausts its budget while a rate gap remains, the
    design is reported infeasible with the gap attached.
    """
    opts = opts or rcg.RcgOptions()
    h = scenario.channel_matrix()
    feasible = lambda w: comm.rates(w, h, scenario.noise_power).min_rate >= r_min - RATE_SLACK
    if r_min <= 0 or feasible(w_start):
        return w_start, rcg.SolverTrace(initial_objective=0.0, termination="target_met")

    instances = comm.soc_assemble(h, r_min, scenario.noise_power,
                                  num_streams=scenario.num_streams)
    base, _ = comm.f2_and_grad(w_start, instances)
    fg = _normalized(lambda w: comm.f2_and_grad(w, instances), base)
    # Small bounded steps keep the descent path close to the continuous
    # projection flow, so the guard fires near the feasibility boundary
    # instead of deep inside the feasible set.
    cap = SP2_STEP_FRACTION * float(np.linalg.norm(w_start))
    # eps = 0: the rate guard, not a gradient tolerance, ends stage II.
    opts = replace(opts, eps=0.0, max_step_norm=cap,
                   max_iters=max(opts.max_iters, 4000))
    last_infeasible = w_start

    def guard(w, f):
        nonlocal last_infeasible
        if feasible(w):
            return True
        last_infeasible = w
        return False

    w, trace = rcg.minimize(fg, w_start, scenario.row_radius, opts, stop_when=guard)
    if trace.termination != "target_met" and not feasible(w):
        gap = r_min - comm.rates(w, h, scenario.noise_power).min_rate
        raise InfeasibleError(
            f"rate projection stalled ({trace.termination}) with min-rate gap "
            f"{gap:.3e} b/s/Hz", detail={"gap": float(gap), "r_min": float(r_min)})
    return _first_crossing(last_infeasible, w, scenario.row_radius, feasible), trace


def _first_crossing(w_bad, w_good, radius, feasible, tol=1e-6):
    """Pull the accepted stage-II point back to the rate boundary.

    The last solver step can jump deep into the feasible region; bisect
    the retracted segment between the last infeasible iterate and the
    accepted one down to the first point that still passes the guard.
    """
    if w_bad is w_good:
        return w_good
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(manifold.retract((1.0 - mid) * w_bad + mid * w_good, radius)):
            hi = mid
        else:
            lo = mid
    return manifold.retract((1.0 - hi) * w_bad + hi * w_good, radius)


def rate_target(scenario):
    """R_min = overload factor times the max-min ZF rate (0 if no users)."""
    if scenario.num_users == 0 or scenario.overload == 0.0:
        return 0.0
    return scenario.overload * comm.max_min_zf_rate(
        scenario.channel_matrix(), scenario.noise_power, scenario.power_budget)


def run(scenario, mode="sgcdf", opts=None):
    """Full design pipeline for one scenario and mode."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}' (choose from {', '.join(MODES)})")
    opts = opts or rcg.RcgOptions()
    t_start = time.perf_counter()
    try:
        r_min = rate_target(scenario)
    except NumericalError:
        if mode not in FLOORLESS_MODES:
            raise
        # no ZF design exists to set a floor; these modes need none
        r_min = 0.0

    mt = scenario.array.num_tx
    coupling = crlb.coupling_matrices(scenario)
    traces = {"sp1": None, "sp2": None}
    stage_times = {}
    flags = ()
    if mode == "omnidirectional":
        w = np.concatenate([np.zeros((mt, scenario.num_users)),
                            _sensing_block(scenario.power_budget, mt)], axis=1)
    else:
        w0, flags = initial_point(scenario, r_min,
                                  zero_sensing=(mode == "no_dedicated_stream"))
        t0 = time.perf_counter()
        w, traces["sp1"] = solve_sp1(scenario, w0, opts, coupling=coupling)
        stage_times["sp1"] = time.perf_counter() - t0
        if mode in ("sgcdf", "no_dedicated_stream"):
            t0 = time.perf_counter()
            w, traces["sp2"] = solve_sp2(scenario, w, r_min, opts)
            stage_times["sp2"] = time.perf_counter() - t0

    state = crlb.fisher_matrix(w, coupling)
    report = comm.rates(w, scenario.channel_matrix(), scenario.noise_power)
    return DesignResult(
        w=w, r_x=w @ w.conj().T,
        sum_crlb=state.objective, rcrlb=float(np.sqrt(state.objective)),
        rates=report, traces=traces, mode=mode, r_min=float(r_min),
        wall_time=time.perf_counter() - t_start,
        stage_times=stage_times, flags=flags)
