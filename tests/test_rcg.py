"""Conjugate-gradient solver on the fixed-row-norm manifold."""

import dataclasses
import io

import numpy as np
import pytest

from isacbeam import design, rcg
from isacbeam.manifold import inner, project_tangent, retract
from isacbeam.rcg import C1, C2, MAX_LINESEARCH_EVALS, RcgOptions, minimize, wolfe_linesearch
from isacbeam.scenario import make_scenario
from reference import deferred, eager_minimize, eager_wolfe_linesearch, random_point


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
    w, trace = minimize(deferred(fg), w0, 1.0, RcgOptions(eps=1e-9, max_iters=200),
                        restart_period=w0.shape[1])
    # the constrained minimizer renormalizes each row of the target
    best = retract(target, 1.0)
    f_best = float(np.sum(np.abs(best - target) ** 2))
    assert trace.iterations <= 200
    assert trace.objectives()[-1] <= f_best + 1e-8
    assert np.linalg.norm(w - best) <= 1e-5 * np.linalg.norm(best)
    g = project_tangent(w, fg(w)[1], 1.0)
    assert np.sqrt(inner(g, g)) <= 1e-5


def test_minimize_stops_at_critical_start():
    w0 = random_point(3, 4, 1.0, np.random.default_rng(1))
    # the Euclidean gradient at w0 is normal to the manifold there
    w, trace = minimize(deferred(_quadratic(2.0 * w0)), w0, 1.0, RcgOptions(eps=1e-8),
                        restart_period=w0.shape[1])
    assert trace.termination == "grad_tol"
    assert trace.iterations == 0
    assert np.array_equal(w, w0)


def test_objective_trace_weakly_decreasing_and_wolfe_flagged():
    rng = np.random.default_rng(2)
    target = 3.0 * (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
    w0 = random_point(5, 7, 1.0, rng)
    _, trace = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-8),
                        restart_period=w0.shape[1])
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
    res = wolfe_linesearch(deferred(fg), w, d, f0, slope0, 1.0, RcgOptions(), None)
    assert res is not None and res.wolfe_ok
    # recompute both conditions from scratch at the accepted step
    point = retract(w + res.step * d, 1.0)
    value, egrad_new = fg(point)
    assert value <= f0 + C1 * res.step * slope0 + 1e-12 * abs(f0)
    new_slope = inner(project_tangent(point, egrad_new, 1.0),
                      project_tangent(point, d, 1.0))
    assert abs(new_slope) <= -C2 * slope0 + 1e-12


def test_wolfe_step_lands_near_the_line_minimum():
    rng = np.random.default_rng(6)
    target = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    fg = _quadratic(target)
    w = random_point(3, 5, 1.0, rng)
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    d = -g
    res = wolfe_linesearch(deferred(fg), w, d, f0, inner(g, d), 1.0, RcgOptions(), None)
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
        wolfe_linesearch(fg, w, g, f0, inner(g, g), 1.0, RcgOptions(), None)


@pytest.mark.parametrize("budget", [MAX_LINESEARCH_EVALS])
def test_linesearch_budget_bounds_objective_evaluations(budget):
    # every probe lies above f0, so none meets sufficient decrease; the
    # bisection towards a_lo = 0 never meets the relative interval floor
    calls = []

    def fg(w):
        calls.append(w)
        return 1.0, np.zeros_like(w)

    rng = np.random.default_rng(8)
    w = random_point(3, 5, 1.0, rng)
    d = project_tangent(w, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), 1.0)
    d /= np.sqrt(inner(d, d))
    assert wolfe_linesearch(fg, w, d, 0.0, -1.0, 1.0, RcgOptions(), None) is None
    assert len(calls) == budget


def test_linesearch_is_invariant_to_the_direction_scale():
    # the minimizer lies 0.01 along a unit tangent; the interval floor is
    # relative, so ||d|| = 1e16 bisects exactly as ||d|| = 1 does
    rng = np.random.default_rng(4)
    w = random_point(3, 5, 1.0, rng)
    t = project_tangent(w, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), 1.0)
    fg = _quadratic(w + 0.01 * t / np.sqrt(inner(t, t)))
    f0, egrad = fg(w)
    g = project_tangent(w, egrad, 1.0)
    unit = -g / np.sqrt(inner(g, g))
    moves, probes = [], []
    for scale in (1.0, 1e8, 1e16):
        d = scale * unit
        res = wolfe_linesearch(deferred(fg), w, d, f0, inner(g, d), 1.0, RcgOptions(), None)
        assert res is not None and res.wolfe_ok
        moves.append(res.step * np.sqrt(inner(d, d)))
        probes.append(res.evals)
    assert moves == pytest.approx([moves[0]] * 3, rel=1e-12)
    assert probes == [probes[0]] * 3


def test_traced_beta_is_fletcher_reeves():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    _, trace = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-10),
                        restart_period=w0.shape[1])
    recs = trace.records
    conjugate = [i for i in range(1, len(recs)) if recs[i].beta != 0.0]
    assert len(conjugate) >= 5
    for i in conjugate:
        ratio = (recs[i].grad_norm / recs[i - 1].grad_norm) ** 2
        assert recs[i].beta == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("period", [1, 3, 6, 50])
def test_restart_period_is_the_callers_not_the_width(period):
    # every period-th direction is steepest descent, whatever the width
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    _, trace = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-10),
                        restart_period=period)
    assert trace.iterations > 6
    for r in trace.records:
        if (r.iteration + 1) % period == 0:
            assert r.beta == 0.0
    assert any(r.beta != 0.0 for r in trace.records) == (period > 1)
    with pytest.raises(ValueError, match="restart period"):
        minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(), restart_period=0)


def test_zoutendijk_increments_finite_with_vanishing_tail():
    rng = np.random.default_rng(0)
    target = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    w0 = random_point(4, 6, 1.0, rng)
    fg = _quadratic(target)
    w, trace = minimize(deferred(fg), w0, 1.0, RcgOptions(eps=1e-13, max_iters=300),
                        restart_period=w0.shape[1])
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
    w1, t1 = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-8),
                      restart_period=w0.shape[1])
    w2, t2 = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-8),
                      restart_period=w0.shape[1])
    assert np.array_equal(w1, w2)
    assert t1.records == t2.records
    assert t1.termination == t2.termination


def test_step_cap_bounds_iterate_moves(monkeypatch):
    rng = np.random.default_rng(3)
    target = 50.0 * (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    fg = _quadratic(target)
    w0 = random_point(3, 5, 1.0, rng)

    def collect(opts):
        moves = []

        def spied(fg, w, *args):
            ls = wolfe_linesearch(fg, w, *args)
            if ls is not None:
                moves.append(np.linalg.norm(ls.at.point - w))
            return ls

        monkeypatch.setattr(rcg, "wolfe_linesearch", spied)
        trace = minimize(deferred(fg), w0, 1.0, opts, restart_period=w0.shape[1])[1]
        monkeypatch.undo()
        assert len(moves) == trace.iterations > 0
        return moves

    capped = collect(RcgOptions(eps=1e-6, max_step_norm=0.05))
    free = collect(RcgOptions(eps=1e-6))
    assert max(capped) <= 0.05 * 1.05
    assert max(free) > 0.05


def test_minimize_rejects_an_off_manifold_start():
    w0 = random_point(3, 4, 1.0, np.random.default_rng(13))
    nudged = w0.copy()
    nudged[1] *= 1.0 + 1e-9     # inside a 1e-8 tolerance, outside ROW_TOL
    quadratic = deferred(_quadratic(np.ones((3, 4), dtype=complex)))
    calls = []

    def fg(w):
        calls.append(w)
        return quadratic(w)

    for start in (2.0 * w0, nudged):
        with pytest.raises(ValueError, match="row-norm gap"):
            minimize(fg, start, 1.0, RcgOptions(), restart_period=start.shape[1])
    assert calls == []
    _, trace = minimize(fg, w0, 1.0, RcgOptions(), restart_period=w0.shape[1])
    assert trace.iterations >= 1


def test_options_validation():
    with pytest.raises(ValueError):
        RcgOptions(max_iters=0)
    with pytest.raises(ValueError):
        RcgOptions(max_step_norm=0.0)


def test_trace_to_csv_layout():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    w0 = random_point(3, 4, 1.0, rng)
    _, trace = minimize(deferred(_quadratic(target)), w0, 1.0, RcgOptions(eps=1e-6),
                        restart_period=w0.shape[1])
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["iter", "f", "gnorm", "step", "beta",
                                   "wolfe_ok", "evals", "grads"]
    assert len(lines) == 1 + trace.iterations

    assert float(lines[1].split(",")[1]) == trace.records[0].objective
    for line, rec in zip(lines[1:], trace.records):
        cells = line.split(",")
        assert cells[5] == str(int(rec.wolfe_ok))
        assert int(cells[6]) == rec.evals >= 1
        assert int(cells[7]) == rec.grads
        assert 1 <= rec.grads <= rec.evals


def test_trace_totals_count_the_start_point():
    rng = np.random.default_rng(17)
    target = 3.0 * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    w0 = random_point(4, 6, 1.0, rng)
    fg = deferred(_quadratic(target))
    w, trace = minimize(fg, w0, 1.0, RcgOptions(eps=1e-8), restart_period=w0.shape[1])
    assert trace.iterations >= 2
    assert trace.objective_evals == 1 + sum(r.evals for r in trace.records)
    assert trace.gradient_evals == 1 + sum(r.grads for r in trace.records)
    g = project_tangent(w, fg(w)[1](), 1.0)
    assert trace.final_grad_norm == trace.records[-1].grad_norm == np.sqrt(inner(g, g))
    g0 = project_tangent(w0, fg(w0)[1](), 1.0)
    assert trace.initial_grad_norm == np.sqrt(inner(g0, g0))


def test_trace_totals_without_a_step():
    rng = np.random.default_rng(18)
    w0 = random_point(3, 4, 1.0, rng)
    # a critical start: no step, and the final norm is the start's
    _, trace = minimize(deferred(_quadratic(2.0 * w0)), w0, 1.0, RcgOptions(eps=1e-8),
                        restart_period=w0.shape[1])
    assert (trace.termination, trace.iterations) == ("grad_tol", 0)
    assert (trace.objective_evals, trace.gradient_evals) == (1, 1)
    assert trace.final_grad_norm == trace.initial_grad_norm < 1e-8
    # a failed line search: its probes count, though no record holds them
    g = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    _, trace = minimize(lambda w: (1.0, lambda: g), w0, 1.0, RcgOptions(),
                        restart_period=w0.shape[1])
    assert (trace.termination, trace.iterations) == ("linesearch_fail", 0)
    assert (trace.objective_evals, trace.gradient_evals) == (1 + MAX_LINESEARCH_EVALS, 1)
    assert trace.final_grad_norm == trace.initial_grad_norm > 0.0


def _counting(fg):
    """fg whose gradient thunks log, when called, the index of their probe
    (the order of fg calls)."""
    grads = []
    calls = 0

    def wrapped(w):
        nonlocal calls
        index = calls
        calls += 1
        value, egrad = fg(w)

        def counted():
            grads.append(index)
            return egrad()
        return value, counted

    return wrapped, grads


def _assert_same_search(fg, w, radius, opts, d=None, f0=None, slope0=None):
    """One search from w, by default along -rgrad: the library and the
    eager reference agree bit for bit, and gradients are computed exactly
    at the probes whose gradient the reference reads."""
    if d is None:
        f0, egrad = fg(w)
        g = project_tangent(w, egrad(), radius)
        d = -g
        slope0 = inner(g, d)
    counted, grads = _counting(fg)
    res = wolfe_linesearch(counted, w, d, f0, slope0, radius, opts, None)
    ref, read = eager_wolfe_linesearch(fg, w, d, f0, slope0, radius, opts)
    assert sorted(grads) == sorted(read)
    assert res is not None and ref is not None
    assert (res.step, res.evals, res.grads, res.wolfe_ok) \
        == (ref.step, ref.evals, ref.grads, ref.wolfe_ok)
    assert res.grads == len(grads)
    assert res.at.point.tobytes() == ref.at.point.tobytes()
    assert res.at.value == ref.at.value
    assert res.at.rgrad.tobytes() == ref.at.rgrad.tobytes()
    return res


def _assert_same_solve(fg, w0, radius, opts, restart_period):
    counted, grads = _counting(fg)
    w, trace = minimize(counted, w0, radius, opts, restart_period)
    w_ref, ref = eager_minimize(fg, w0, radius, opts, restart_period)
    assert w.tobytes() == w_ref.tobytes()
    assert trace.records == ref.records
    assert trace.termination == ref.termination
    assert trace.zoutendijk == ref.zoutendijk
    # the start, then every gradient a search read
    assert len(grads) == 1 + sum(r.grads for r in trace.records)
    return trace


def _stage_problems(monkeypatch):
    """(fg, w0, radius, opts, restart_period) of stages I and II of an
    sgcdf design on the small acceptance scenario, as ``design`` builds
    them."""
    s = make_scenario(num_tx=8, num_rx=8, num_users=2,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), snapshots=64, seed=2)
    problems = []
    solve = rcg.minimize

    def capture(fg, w0, radius, opts, restart_period):
        problems.append((fg, w0, radius, opts, restart_period))
        return solve(fg, w0, radius, opts, restart_period)

    monkeypatch.setattr(rcg, "minimize", capture)
    design.run(s, "sgcdf")
    monkeypatch.undo()
    assert len(problems) == 2
    return problems


def test_deferred_gradients_match_eager_search_on_quadratic():
    rng = np.random.default_rng(14)
    target = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    w = random_point(3, 5, 1.0, rng)
    for opts in (RcgOptions(), RcgOptions(max_step_norm=0.05)):
        _assert_same_search(deferred(_quadratic(target)), w, 1.0, opts)
    # the first trial step overshoots the minimizer 0.01 away a hundred-fold
    t = project_tangent(w, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), 1.0)
    near = deferred(_quadratic(w + 0.01 * t / np.sqrt(inner(t, t))))
    res = _assert_same_search(near, w, 1.0, RcgOptions())
    assert res.wolfe_ok and 1 <= res.grads < res.evals


def test_fallback_probe_gets_its_gradient_though_no_test_read_it():
    # C1 a slope0 vanishes next to f0 = 1, so the probes at value 1 meet
    # sufficient decrease without beating the bracket's low end: no test
    # reads a gradient, yet the first of them is returned as the fallback
    rng = np.random.default_rng(16)
    w = random_point(3, 5, 1.0, rng)
    d = project_tangent(w, rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)), 1.0)
    g = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))

    def fg(x):
        # the first probe moves w by about 1, the bisected ones by at most 0.5
        return (2.0 if np.linalg.norm(x - w) > 0.75 else 1.0), lambda: g

    res = _assert_same_search(fg, w, 1.0, RcgOptions(), d=d, f0=1.0, slope0=-1e-300)
    assert (res.evals, res.grads, res.wolfe_ok) == (MAX_LINESEARCH_EVALS, 1, False)
    assert res.at.value == 1.0 and res.at.step == 0.5 * (1.0 / np.sqrt(inner(d, d)))


def test_deferred_gradients_match_eager_solver_on_quadratic():
    rng = np.random.default_rng(15)
    target = 3.0 * (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    w0 = random_point(4, 6, 1.0, rng)
    fg = deferred(_quadratic(target))
    for opts in (RcgOptions(eps=1e-10), RcgOptions(eps=1e-8, max_step_norm=0.05)):
        trace = _assert_same_solve(fg, w0, 1.0, opts, w0.shape[1])
        betas = [r.beta for r in trace.records]
        assert 0.0 in betas and any(b != 0.0 for b in betas)
        assert sum(r.grads for r in trace.records) < sum(r.evals for r in trace.records)


def test_deferred_gradients_match_eager_solver_on_both_stages(monkeypatch, cg_stage_two):
    (fg1, w1, radius, opts1, period), (fg2, w2, _, opts2, _) = _stage_problems(monkeypatch)
    assert opts2.max_step_norm is not None
    _assert_same_search(fg1, w1, radius, opts1)
    _assert_same_solve(fg1, w1, radius, opts1, period)
    for opts in (opts2, dataclasses.replace(opts2, max_step_norm=None)):
        _assert_same_search(fg2, w2, radius, opts)
        trace = _assert_same_solve(fg2, w2, radius, opts, period)
        assert trace.termination == "grad_tol" and trace.iterations >= 1
        assert trace.objectives()[-1] == 0.0


def test_deferred_gradients_match_eager_solver_through_a_descent_reset():
    # f = s* - s below a kink and 3 (s - s*) past it, s = Re<w, u>: no probe
    # meets the curvature condition, and a fallback step past the kink
    # turns the Fletcher-Reeves direction uphill, so it resets to -rgrad
    rng = np.random.default_rng(1)
    w0 = random_point(3, 5, 1.0, rng)
    u = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    s_star = inner(u, w0) + 0.3

    def fg(w):
        s = inner(u, w)
        if s < s_star:
            return s_star - s, lambda: -u
        return 3.0 * (s - s_star), lambda: 3.0 * u

    trace = _assert_same_solve(fg, w0, 1.0, RcgOptions(eps=1e-8, max_iters=40), w0.shape[1])
    first = trace.records[0]
    assert not first.wolfe_ok and first.beta == 0.0 and first.grad_norm > 0.0
