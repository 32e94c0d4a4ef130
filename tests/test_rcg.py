"""Conjugate-gradient solver on the fixed-row-norm manifold."""

import io

import numpy as np
import pytest

from isacbeam.manifold import inner, project_tangent, random_point, retract
from isacbeam.rcg import RcgOptions, minimize, wolfe_linesearch


def _quadratic(target):
    """f(W) = ||W - target||_F^2 with its Euclidean gradient."""
    def fg(w):
        diff = w - target
        return float(np.sum(np.abs(diff) ** 2)), 2.0 * diff
    return fg


def test_minimize_reaches_row_projected_optimum():
    rng = np.random.default_rng(0)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    fg = _quadratic(target)
    w, trace = minimize(fg, w0, 1.0, RcgOptions(eps=1e-9, max_iters=200))
    # the constrained minimizer renormalizes each row of the target
    best = retract(target, 1.0)
    f_best = float(np.sum(np.abs(best - target) ** 2))
    assert trace.iterations <= 200
    assert trace.final_objective <= f_best + 1e-8
    assert np.linalg.norm(w - best) <= 1e-5 * np.linalg.norm(best)
    g = project_tangent(w, fg(w)[1], 1.0)
    assert np.sqrt(inner(g, g)) <= 1e-5


def test_minimize_stops_at_critical_start():
    w0 = random_point(3, 4, 1.0, np.random.default_rng(1))
    # the Euclidean gradient at w0 is normal to the manifold there
    w, trace = minimize(_quadratic(2.0 * w0), w0, 1.0, RcgOptions(eps=1e-8))
    assert trace.termination == "grad_tol"
    assert trace.iterations == 0
    assert np.array_equal(w, w0)


def test_objective_trace_weakly_decreasing_and_wolfe_flagged():
    rng = np.random.default_rng(2)
    target = 3.0 * (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    w0 = random_point(5, 7, 1.0, rng)
    _, trace = minimize(_quadratic(target), w0, 1.0, RcgOptions(eps=1e-8))
    objectives = trace.objectives()
    assert objectives[0] == trace.initial_objective
    assert np.all(np.diff(objectives) <= 0.0)
    assert all(r.wolfe_ok for r in trace.records)
    assert all(r.grad_norm >= 0.0 and r.step > 0.0 for r in trace.records)


def test_wolfe_linesearch_satisfies_both_inequalities():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fg = _quadratic(target)
    w = random_point(3, 5, 1.0, rng)
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    d = -g
    slope0 = inner(g, d)
    opts = RcgOptions()
    res = wolfe_linesearch(fg, w, d, f0, slope0, 1.0, opts)
    assert res is not None and res.wolfe_ok
    # recompute both conditions from scratch at the accepted step
    point = retract(w + res.step * d, 1.0)
    value, egrad_new = fg(point)
    assert value <= f0 + opts.c1 * res.step * slope0 + 1e-12 * abs(f0)
    new_slope = inner(project_tangent(point, egrad_new, 1.0),
                      project_tangent(point, d, 1.0))
    assert abs(new_slope) <= -opts.c2 * slope0 + 1e-12


def test_wolfe_step_lands_near_the_line_minimum():
    rng = np.random.default_rng(6)
    target = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fg = _quadratic(target)
    w = random_point(3, 5, 1.0, rng)
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    d = -g
    res = wolfe_linesearch(fg, w, d, f0, inner(g, d), 1.0, RcgOptions())
    grid = np.linspace(1e-6, 4.0 * res.step, 400)
    values = [fg(retract(w + a * d, 1.0))[0] for a in grid]
    f_min = min(values)
    assert res.at.value <= f_min + 0.2 * (f0 - f_min)


def test_wolfe_linesearch_requires_descent_direction():
    rng = np.random.default_rng(7)
    target = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    fg = _quadratic(target)
    w = random_point(2, 4, 1.0, rng)
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    with pytest.raises(ValueError):
        wolfe_linesearch(fg, w, g, f0, inner(g, g), 1.0, RcgOptions())


@pytest.mark.parametrize("budget", [1, 7, 30])
def test_linesearch_budget_bounds_objective_evaluations(budget):
    # every probe lies above f0, so none meets sufficient decrease; with
    # ||d|| = 1 the bisection stays far above its 1e-14 interval floor
    calls = []

    def fg(w):
        calls.append(w)
        return 1.0, np.zeros_like(w)

    rng = np.random.default_rng(8)
    w = random_point(3, 5, 1.0, rng)
    d = project_tangent(w, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), 1.0)
    d /= np.sqrt(inner(d, d))
    opts = RcgOptions(max_linesearch_evals=budget)
    assert wolfe_linesearch(fg, w, d, 0.0, -1.0, 1.0, opts) is None
    assert len(calls) == budget


def test_wolfe_loose_constants_accept_quickly():
    rng = np.random.default_rng(8)
    target = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fg = _quadratic(target)
    w = random_point(3, 5, 1.0, rng)
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    res = wolfe_linesearch(fg, w, -g, f0, -inner(g, g), 1.0,
                           RcgOptions(c1=1e-10, c2=0.49))
    assert res.wolfe_ok and res.evals <= 10


def test_traced_beta_is_fletcher_reeves():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    _, trace = minimize(_quadratic(target), w0, 1.0, RcgOptions(eps=1e-10))
    recs = trace.records
    conjugate = [i for i in range(1, len(recs)) if recs[i].beta != 0.0]
    assert len(conjugate) >= 5
    for i in conjugate:
        ratio = (recs[i].grad_norm / recs[i - 1].grad_norm) ** 2
        assert recs[i].beta == pytest.approx(ratio, rel=1e-12)


def test_zoutendijk_increments_finite_with_vanishing_tail():
    rng = np.random.default_rng(0)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    fg = _quadratic(target)
    w, trace = minimize(fg, w0, 1.0, RcgOptions(eps=1e-13, max_iters=300))
    z = np.array(trace.zoutendijk)
    assert z.size == trace.iterations
    assert np.isfinite(z).all() and np.all(z >= 0.0)
    assert z[-1] < 1e-12
    g = project_tangent(w, fg(w)[1], 1.0)
    assert np.sqrt(inner(g, g)) <= 1e-6


def test_minimize_is_deterministic():
    rng = np.random.default_rng(9)
    target = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    w0 = random_point(4, 5, 1.0, rng)
    w1, t1 = minimize(_quadratic(target), w0, 1.0, RcgOptions(eps=1e-8))
    w2, t2 = minimize(_quadratic(target), w0, 1.0, RcgOptions(eps=1e-8))
    assert np.array_equal(w1, w2)
    assert t1.records == t2.records
    assert t1.termination == t2.termination


def test_step_cap_bounds_iterate_moves():
    rng = np.random.default_rng(3)
    target = 50.0 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    fg = _quadratic(target)
    w0 = random_point(3, 5, 1.0, rng)

    def collect(opts):
        seen = [np.asarray(w0)]

        def observer(w, f):
            seen.append(w)
            return False

        minimize(fg, w0, 1.0, opts, stop_when=observer)
        return [np.linalg.norm(b - a) for a, b in zip(seen, seen[1:])
                if b is not a]

    capped = collect(RcgOptions(eps=1e-6, max_step_norm=0.05))
    free = collect(RcgOptions(eps=1e-6))
    assert max(capped) <= 0.05 * 1.05
    assert max(free) > 0.05


def test_stop_when_fires_at_the_start():
    w0 = random_point(2, 3, 1.0, np.random.default_rng(10))
    target = np.ones((2, 3), dtype=complex)
    w, trace = minimize(_quadratic(target), w0, 1.0, RcgOptions(),
                        stop_when=lambda w, f: True)
    assert trace.termination == "target_met"
    assert trace.iterations == 0
    assert np.array_equal(w, w0)


def test_options_validation():
    with pytest.raises(ValueError):
        RcgOptions(c2=0.6)
    with pytest.raises(ValueError):
        RcgOptions(c1=0.0)
    with pytest.raises(ValueError):
        RcgOptions(c1=0.3, c2=0.2)
    with pytest.raises(ValueError):
        RcgOptions(max_iters=0)
    with pytest.raises(ValueError):
        RcgOptions(max_linesearch_evals=0)
    with pytest.raises(ValueError):
        RcgOptions(max_step_norm=0.0)


@pytest.mark.parametrize("period", [0, -3])
def test_options_reject_restart_period_below_one(period):
    with pytest.raises(ValueError, match="restart period"):
        RcgOptions(restart_period=period)
    assert RcgOptions(restart_period=1).restart_period == 1


def test_trace_to_csv_layout():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    w0 = random_point(3, 4, 1.0, rng)
    _, trace = minimize(_quadratic(target), w0, 1.0, RcgOptions(eps=1e-6))
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["iter", "f", "gnorm", "step", "beta",
                                   "wolfe_ok", "evals"]
    assert len(lines) == 1 + trace.iterations

    assert float(lines[1].split(",")[1]) == trace.records[0].objective
    for line, rec in zip(lines[1:], trace.records):
        cells = line.split(",")
        assert cells[5] == str(int(rec.wolfe_ok))
        assert int(cells[6]) == rec.evals >= 1
