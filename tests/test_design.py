"""Two-stage design pipeline: sensing descent then rate restoration."""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacbeam import comm, crlb, design, manifold, radar
from isacbeam.arrays import beampattern
from isacbeam.config import build_scenario, parse_config
from isacbeam.errors import ConfigError, InfeasibleError, NumericalError
from isacbeam.rcg import RcgOptions
from isacbeam.scenario import make_scenario
import fuzz_corpus
from reference import full_width_no_dedicated_stream, three_solve_initial_point


@pytest.fixture(scope="module")
def small():
    return make_scenario(num_tx=8, num_rx=8, num_users=2,
                         target_angles_deg=(-40.0, 25.0),
                         target_ranges_m=(50.0, 60.0),
                         snapshots=64, seed=2)


def _zf(scenario):
    """The ZF directions of the scenario's channels: what ``design.run``
    hands the rate floor and the warm start."""
    return comm.zf_precoder(scenario.channels)


@pytest.fixture(scope="module")
def small_results(small):
    return {mode: design.run(small, mode) for mode in design.MODES}


# --------------------------------------------------------- initial point

def test_initial_point_without_users_is_scaled_identity():
    s = make_scenario(num_tx=8, num_rx=8, num_users=0,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), snapshots=64, seed=2)
    w0, flags = design.initial_point(s, 0.0, False, None)
    assert flags == ()
    expected = np.sqrt(s.power_budget / 8.0) * np.eye(8, dtype=complex)
    assert np.array_equal(w0, expected)


def test_initial_point_shape_and_active_users(small):
    # the warm start is structured, not rate-feasible: the row
    # retraction reshuffles the exact equal-rate powers, and stage II
    # restores the floor later
    r_min = design.rate_target(small, _zf(small))
    w0, flags = design.initial_point(small, r_min, False, _zf(small))
    assert flags == ()
    assert w0.shape == (8, small.num_streams)
    assert manifold.is_on_manifold(w0, small.row_radius)
    rep = comm.rates(w0, small.channels, small.noise_power)
    assert rep.min_rate > 0.5 * r_min


def test_initial_point_falls_back_when_zf_impossible():
    s = make_scenario(num_tx=4, num_rx=4, num_users=6,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), snapshots=64, seed=2)
    w0, flags = design.initial_point(s, 1.0, False, None)
    assert flags == ("zf_infeasible_fallback",)
    assert manifold.is_on_manifold(w0, s.row_radius)


def test_initial_point_fallback_keeps_sensing_columns_zero():
    # ZF impossible (K > M_T): the dead-row nudge stays in the
    # communication columns, the only ones a zero-sensing start carries
    s = make_scenario(num_tx=4, num_rx=8, num_users=6)
    w0, flags = design.initial_point(s, 0.5, True, None)
    assert flags == ("zf_infeasible_fallback",)
    assert w0.shape == (4, 6)
    assert manifold.is_on_manifold(w0, s.row_radius)


def test_initial_point_zero_sensing_block(small):
    # no sensing block at all: the start is the M_T x K communication block
    w0, flags = design.initial_point(small, 0.5, True, _zf(small))
    assert flags == ()
    assert w0.shape == (8, 2)
    assert manifold.is_on_manifold(w0, small.row_radius)


@settings(max_examples=80, deadline=None)
@given(mt=st.integers(2, 12), k=st.integers(1, 8), seed=st.integers(0, 10**6),
       power=st.floats(-20.0, 40.0), factor=st.floats(0.0, 0.999),
       zero_sensing=st.booleans())
# P_max 7.94 W leaves p_s = 1.29e-7 W: a reference p_s of P_max - sum p would cancel
@example(mt=2, k=1, seed=0, power=39.0, factor=0.9921875, zero_sensing=False)
def test_closed_form_power_split_matches_three_solves(mt, k, seed, power, factor,
                                                      zero_sensing):
    # the ZF closed form p(p_s) = p0 + p_s slope gives the three-solve start
    # within rounding and the same flags; below the max-min ZF rate the
    # powers without sensing fit the budget
    s = make_scenario(num_tx=mt, num_rx=mt, num_users=k, target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), power_budget_dbm=power,
                      snapshots=64, seed=seed)
    try:
        zf = _zf(s)
        r_min = factor * comm.max_min_zf_rate(s.channels, zf, s.noise_power, s.power_budget)
    except NumericalError:
        zf, r_min = None, factor
    w0, flags = design.initial_point(s, r_min, zero_sensing, zf)
    ref, ref_flags = three_solve_initial_point(s, r_min, zero_sensing, zf)
    assert flags == ref_flags
    assert np.linalg.norm(w0 - ref) <= 1e-12 * np.linalg.norm(ref)


def test_initial_point_is_continuous_at_full_overload():
    # at overload 1 the ZF powers use up the budget and leave p_s near 0;
    # the start there is the limit of the starts below it
    for seed in range(1, 11):
        s = make_scenario(seed=seed)
        zf = _zf(s)
        rate = comm.max_min_zf_rate(s.channels, zf, s.noise_power, s.power_budget)
        w1 = design.initial_point(s, rate, False, zf)[0]
        w_below = design.initial_point(s, (1.0 - 1e-12) * rate, False, zf)[0]
        assert np.linalg.norm(w1 - w_below) <= 1e-6 * np.linalg.norm(w_below), seed


# ------------------------------------------------------------------- run

def test_run_rejects_unknown_mode(small):
    with pytest.raises(ConfigError):
        design.run(small, "bogus")


def test_floorless_modes_run_when_zf_impossible():
    s = make_scenario(num_tx=4, num_rx=8, num_users=6)
    with pytest.raises(NumericalError, match="ZF impossible"):
        _zf(s)
    for mode in design.FLOORLESS_MODES:
        res = design.run(s, mode)
        assert res.r_min == 0.0
        assert manifold.is_on_manifold(res.w, s.row_radius)
        assert np.isfinite(res.sum_crlb) and res.sum_crlb > 0
    with pytest.raises(NumericalError, match="ZF impossible"):
        design.run(s, "sgcdf")


def test_zero_overload_runs_when_zf_impossible():
    # no floor to set, so the constrained modes start from pure sensing
    s = make_scenario(num_tx=4, num_rx=8, num_users=6, overload=0.0)
    for mode in ("sgcdf", "no_dedicated_stream"):
        res = design.run(s, mode)
        assert res.r_min == 0.0
        assert res.flags == ("zf_infeasible_fallback",)
        assert res.traces["sp2"].iterations == 0


def test_no_dedicated_stream_needs_a_user():
    s = make_scenario(num_tx=8, num_rx=8, num_users=0, snapshots=64)
    with pytest.raises(ConfigError, match="at least one user"):
        design.run(s, "no_dedicated_stream")
    for mode in ("sgcdf", "sensing_only", "omnidirectional"):
        assert manifold.is_on_manifold(design.run(s, mode).w, s.row_radius)


def _assert_mode_invariants(s, res):
    """The invariants of a design of ``res.mode`` for the scenario ``s``."""
    assert manifold.is_on_manifold(res.w, s.row_radius)
    assert np.isfinite(res.sum_crlb) and res.sum_crlb > 0
    if res.mode in ("sgcdf", "no_dedicated_stream"):
        assert res.rates.min_rate >= res.r_min - design.RATE_SLACK * min(1.0, res.r_min)
    if res.mode == "no_dedicated_stream":
        assert not np.any(res.w[:, s.num_users:])


def _assert_invariants_or_typed_error(text, mode):
    """The design of ``mode`` from the config ``text`` keeps the mode's
    invariants, or parsing, building or designing raises a typed error."""
    try:
        s = build_scenario(parse_config(text))
        res = design.run(s, mode)
    except (ConfigError, InfeasibleError, NumericalError):
        return
    _assert_mode_invariants(s, res)


_INI = """
[scenario]
num_tx = {mt}
num_rx = {mr}
num_users = {k}
target_angles_deg = {angles}
target_ranges_m = {ranges}
power_budget_dbm = {power!r}
overload = {overload!r}
snapshots = {snapshots}
seed = {seed}
"""


@settings(max_examples=40, deadline=None)
@given(mt=st.integers(2, 12), mr=st.integers(2, 12), k=st.integers(0, 8),
       angles=st.lists(st.floats(-85.0, 85.0), min_size=1, max_size=3, unique=True),
       power=st.floats(0.0, 40.0), overload=st.floats(0.0, 1.0),
       slack=st.integers(0, 32), seed=st.integers(0, 1000),
       mode=st.sampled_from(design.MODES))
def test_every_mode_keeps_its_invariants_or_raises_typed_error(
        mt, mr, k, angles, power, overload, slack, seed, mode):
    _assert_invariants_or_typed_error(
        _INI.format(mt=mt, mr=mr, k=k, angles=", ".join(map(repr, angles)),
                    ranges=", ".join("50.0" for _ in angles), power=power,
                    overload=overload, snapshots=k + mt + slack, seed=seed), mode)


@st.composite
def _joint_configs(draw):
    """One config of the bounded corpus, every key drawn jointly."""
    mt = draw(st.integers(2, 8))
    k = draw(st.integers(0, mt + 1))
    angles = draw(st.lists(st.floats(-85.0, 85.0), min_size=1, max_size=3, unique=True))
    return fuzz_corpus.TEMPLATE.format(
        mt=mt, mr=draw(st.integers(2, 8)), k=k, angles=", ".join(map(repr, angles)),
        ranges=", ".join("50.0" for _ in angles), noise=draw(st.floats(-160.0, -40.0)),
        power=draw(st.floats(-20.0, 50.0)), overload=draw(st.floats(0.0, 1.0)),
        snapshots=draw(st.sampled_from([k + mt, 2 * (k + mt), 256])),
        rician=draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])), seed=draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(text=_joint_configs(), mode=st.sampled_from(design.MODES))
def test_joint_draws_keep_the_invariants_or_raise_typed_errors(text, mode):
    # noise and budget move together with the array, the users, L and the
    # overload, which one-key-at-a-time draws cannot reach
    _assert_invariants_or_typed_error(text, mode)


def test_fuzz_corpus_keeps_the_invariants_or_raises_typed_errors():
    for text, mode in fuzz_corpus.configs():
        _assert_invariants_or_typed_error(text, mode)


# the close geometries: (angles in degrees, ranges in metres) on the
# 32 x 32, K = 6, 20 dBm scenario
_CLOSE_GEOMETRIES = {
    "3 at 4 deg": ((10.0, 14.0, 18.0), (50.0, 60.0, 70.0)),
    "3 at 2 deg": ((10.0, 12.0, 14.0), (50.0, 60.0, 70.0)),
    "6 at 10 deg": (tuple(np.arange(-25.0, 26.0, 10.0)), tuple(50.0 + 5.0 * np.arange(6))),
    "8 at 6 deg": (tuple(np.arange(-21.0, 22.0, 6.0)), tuple(50.0 + 3.0 * np.arange(8))),
    "12 at 8 deg": (tuple(np.arange(-44.0, 45.0, 8.0)), tuple(50.0 + 2.0 * np.arange(12))),
}


@pytest.mark.parametrize("geometry", list(_CLOSE_GEOMETRIES))
@pytest.mark.parametrize("overload", [0.3, 0.9])
def test_every_mode_designs_and_evaluates_close_targets(geometry, overload):
    # no RMSE bound: the CRLB-optimal designs correlate close echoes and
    # read far above their root-CRLB there; every design must still keep
    # its invariants and give a finite Monte-Carlo RMSE
    angles, ranges = _CLOSE_GEOMETRIES[geometry]
    s = make_scenario(target_angles_deg=angles, target_ranges_m=ranges, overload=overload)
    for mode in design.MODES:
        res = design.run(s, mode)
        _assert_mode_invariants(s, res)
        assert np.isfinite(radar.monte_carlo(s, res, 8).rmse)


def test_omnidirectional_covariance_is_scaled_identity(small, small_results):
    res = small_results["omnidirectional"]
    expected = (small.power_budget / 8.0) * np.eye(8)
    assert np.allclose(res.w @ res.w.conj().T, expected, atol=1e-12)
    assert res.traces == {"sp1": None, "sp2": None}
    assert res.stage_times == {}
    assert res.rates.min_rate == 0.0
    assert np.isfinite(res.sum_crlb) and res.sum_crlb > 0


def test_sensing_only_is_the_crlb_floor(small_results):
    floor = small_results["sensing_only"].sum_crlb
    for mode in ("sgcdf", "no_dedicated_stream", "omnidirectional"):
        assert floor <= small_results[mode].sum_crlb * (1.0 + 1e-9)


def test_rate_floor_met_by_constrained_modes(small, small_results):
    target = small.overload * comm.max_min_zf_rate(
        small.channels, _zf(small), small.noise_power, small.power_budget)
    for mode in ("sgcdf", "no_dedicated_stream"):
        res = small_results[mode]
        assert res.r_min == pytest.approx(target, rel=1e-12)
        assert res.rates.min_rate >= res.r_min - 1e-6


def test_rate_floor_below_the_slack_is_met_or_raises():
    # -100 dBm: r_min = 2.77e-7 b/s/Hz, and the stage-I point's min rate is
    # 5.3e-10; an absolute 1e-6 slack would skip stage II there
    s = make_scenario(num_tx=4, num_rx=4, num_users=1, snapshots=64, seed=3,
                      power_budget_dbm=-100.0)
    try:
        res = design.run(s, "sgcdf")
    except (ConfigError, InfeasibleError, NumericalError):
        return
    assert res.rates.min_rate >= res.r_min * (1.0 - 1e-6)


def test_no_dedicated_stream_keeps_sensing_columns_zero(small_results):
    res = small_results["no_dedicated_stream"]
    assert np.array_equal(res.w[:, 2:], np.zeros((8, 8)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_no_dedicated_stream_on_its_comm_columns_keeps_the_full_width_path(seed):
    # the restart period is the stream count K + M_T, not the K columns
    # solved on, so both stages make the full-width solve's decisions
    for overload in (0.3, 0.7):
        s = make_scenario(seed=seed, overload=overload)
        res = design.run(s, "no_dedicated_stream")
        _, sp1, sp2, sum_crlb = full_width_no_dedicated_stream(s, RcgOptions())
        assert res.traces["sp1"].iterations == sp1.iterations
        assert res.traces["sp2"].iterations == sp2.iterations
        assert res.sum_crlb == pytest.approx(sum_crlb, rel=1e-6)
        assert res.w.shape == (32, s.num_streams)
        assert np.array_equal(res.w[:, s.num_users:], np.zeros((32, 32)))


def test_power_accounting(small, small_results):
    per_row = small.power_budget / 8.0
    for res in small_results.values():
        # the diagonal and trace of W W^H: per-antenna powers and their sum
        assert np.allclose(np.linalg.norm(res.w, axis=1) ** 2, per_row,
                           atol=1e-10 * small.power_budget)
        assert np.vdot(res.w, res.w).real == pytest.approx(small.power_budget,
                                                           rel=1e-9)


def test_zero_overload_collapses_to_sensing_only():
    s = make_scenario(num_tx=8, num_rx=8, num_users=2,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0),
                      snapshots=64, seed=4, overload=0.0)
    a = design.run(s, "sgcdf")
    b = design.run(s, "sensing_only")
    assert a.r_min == 0.0
    assert np.array_equal(a.w, b.w)
    assert a.traces["sp2"].termination == "target_met"
    assert a.traces["sp2"].iterations == 0


def test_single_target_design_points_at_it():
    s = make_scenario(num_tx=8, num_rx=8, num_users=0,
                      target_angles_deg=(25.0,), target_ranges_m=(60.0,),
                      snapshots=64, seed=6)
    res = design.run(s, "sensing_only", opts=RcgOptions(eps=1e-6))
    grid_deg = np.linspace(-90.0, 90.0, 361)
    gains = beampattern(res.w, np.deg2rad(grid_deg))
    assert grid_deg[np.argmax(gains)] == 25.0


def test_run_is_deterministic(small, small_results):
    again = design.run(small, "sgcdf")
    ref = small_results["sgcdf"]
    assert np.array_equal(again.w, ref.w)
    assert again.sum_crlb == ref.sum_crlb
    assert again.traces["sp1"].iterations == ref.traces["sp1"].iterations
    assert again.traces["sp2"].iterations == ref.traces["sp2"].iterations


def test_stage_times_match_pipeline_shape(small_results):
    sg = small_results["sgcdf"]
    assert set(sg.stage_times) == {"sp1", "sp2"}
    assert all(t >= 0.0 for t in sg.stage_times.values())
    assert sg.wall_time >= sum(sg.stage_times.values()) - 1e-9
    assert set(small_results["sensing_only"].stage_times) == {"sp1"}
    assert small_results["sensing_only"].traces["sp2"] is None


# ---------------------------------------------------------------- stages

def test_solve_sp2_returns_feasible_start_unchanged(small):
    r_min = design.rate_target(small, _zf(small))
    w0, _ = design.initial_point(small, r_min, False, _zf(small))
    w, trace, flags = design.solve_sp2(small, w0, 0.5 * r_min, RcgOptions())
    assert w is w0
    assert trace.termination == "target_met"
    assert trace.iterations == 0
    assert flags == ()


def _stage_two(small, small_results):
    """(w, trace) of stage II of the sgcdf design of ``small``, from its
    stage-I point (the sensing_only design)."""
    return design.solve_sp2(small, small_results["sensing_only"].w,
                            small_results["sgcdf"].r_min, RcgOptions())[:2]


@pytest.fixture(scope="module")
def tight():
    """(scenario, stage-I point, r_min) of the sgcdf design of the paper
    geometry at overload 0.95, seed 1, where the Gauss-Newton phase stalls
    and the projection takes over."""
    s = make_scenario(seed=1, overload=0.95)
    return s, design.run(s, "sensing_only").w, design.run(s, "sgcdf").r_min


def _tight_stage_two(tight):
    s, w, r_min = tight
    return design.solve_sp2(s, w, r_min, RcgOptions())


def test_solve_sp2_stops_where_f2_vanishes(tight):
    # f2 is zero exactly on the rate-feasible set, and only there does
    # the projection stop
    s, _, r_min = tight
    w, trace, flags = _tight_stage_two(tight)
    f2 = trace.objectives()
    assert flags == ("sp2_projection",)
    assert trace.termination == "target_met" and trace.iterations > 0
    assert f2[-1] == 0.0 and np.all(f2[:-1] > 0.0)
    assert trace.final_grad_norm == 0.0
    assert comm.rates(w, s.channels, s.noise_power).min_rate >= r_min


def test_solve_sp2_reads_the_rates_twice(tight, monkeypatch):
    # the skip test at the start and the floor check at the end, however
    # many sweeps the projection takes
    reads = _counted_rates(monkeypatch)
    _, trace, _ = _tight_stage_two(tight)
    assert trace.iterations > 1
    assert len(reads) == 2


def test_small_floor_inside_the_slack_is_still_met():
    # r_min = 6.3e-5 b/s/Hz: a stop on the first iterate within the
    # absolute RATE_SLACK of the floor ends 3.5e-7 short; f2 = 0 meets it
    s = make_scenario(num_tx=12, num_rx=4, num_users=5,
                      target_angles_deg=(15.91515987262693, 69.61280067528864),
                      target_ranges_m=(60.0, 60.0), noise_power_dbm=-40.6727909336814,
                      power_budget_dbm=-16.764743618079812, snapshots=17,
                      rician_k=10.0, overload=0.95, seed=963474)
    res = design.run(s, "no_dedicated_stream")
    assert res.traces["sp2"].termination == "target_met"
    assert res.rates.min_rate >= res.r_min * (1.0 - 1e-9)


def test_rate_floor_below_the_rate_resolution_raises():
    # -135 dBm: r_min = 8.75e-11 b/s/Hz, whose 1e-6 relative slack is
    # below the smallest step of log2(1 + SINR), 3.2e-16
    s = make_scenario(num_tx=4, num_rx=4, num_users=1, snapshots=64, seed=3,
                      power_budget_dbm=-135.0)
    with pytest.raises(NumericalError, match="resolution"):
        design.run(s, "sgcdf")


def test_gauss_newton_iterates_keep_sensing_columns_zero(small, monkeypatch):
    points = []
    step = comm.f2_and_gauss_newton

    def recorded(w, *args):
        points.append(w)
        return step(w, *args)

    monkeypatch.setattr(comm, "f2_and_gauss_newton", recorded)
    res = design.run(small, "no_dedicated_stream")
    trace = res.traces["sp2"]
    assert res.flags == () and trace.termination == "target_met"
    assert len(points) == trace.objective_evals == 1 + trace.iterations > 1
    assert trace.gradient_evals == trace.iterations
    # stage II carries the K communication columns only; the design pads
    # the M_T sensing columns back as zeros
    for w in points:
        assert w.shape == (8, small.num_users)
        assert manifold.is_on_manifold(w, small.row_radius)
    assert np.array_equal(res.w[:, small.num_users:], np.zeros((8, 8)))
    assert trace.objectives()[-1] == 0.0 and np.all(trace.objectives()[:-1] > 0.0)
    assert trace.final_grad_norm == 0.0


def test_gauss_newton_meets_the_paper_floors_in_a_few_steps():
    # step counts, not times: a slower path shows here before the benchmark
    for overload in (0.3, 0.7):
        for seed in (1, 2, 3, 4):
            s = make_scenario(seed=seed, overload=overload)
            for mode in ("sgcdf", "no_dedicated_stream"):
                res = design.run(s, mode)
                trace = res.traces["sp2"]
                assert "sp2_projection" not in res.flags
                assert trace.termination == "target_met"
                assert 1 <= trace.iterations <= 15
                assert res.rates.min_rate >= res.r_min


def _counted_rates(monkeypatch):
    """A list that grows by one at each call of ``comm.rates``."""
    calls = []
    rates = comm.rates

    def counted(*args):
        calls.append(args)
        return rates(*args)

    monkeypatch.setattr(comm, "rates", counted)
    return calls


def test_gauss_newton_reads_the_rates_twice(small, small_results, monkeypatch):
    # the skip test at the start and the floor check at the Gauss-Newton point
    reads = _counted_rates(monkeypatch)
    _, trace = _stage_two(small, small_results)
    assert trace.iterations > 1 and len(reads) == 2


def test_gauss_newton_stall_hands_its_last_iterate_to_the_projection(tight, monkeypatch):
    # at overload 0.95 the Gauss-Newton phase stalls; the projection
    # starts at its last accepted iterate, and the trace holds the
    # Gauss-Newton steps, then the sweeps, each phase numbering its own
    s, _, _ = tight
    phases, points = [], []
    gauss_newton, f2_and_grad = design._gauss_newton, comm.f2_and_grad

    def recorded(*a):
        w, trace, base = gauss_newton(*a)
        phases.append((w, list(trace.records), trace.objective_evals, trace.gradient_evals))
        return w, trace, base

    def evaluated(w, *a):
        points.append(w)
        return f2_and_grad(w, *a)

    monkeypatch.setattr(design, "_gauss_newton", recorded)
    monkeypatch.setattr(comm, "f2_and_grad", evaluated)
    w, trace, flags = _tight_stage_two(tight)
    (gn_w, gn_records, gn_values, gn_grads), = phases
    assert flags == ("sp2_projection",)
    assert points[0] is gn_w and len(gn_records) > 0
    sweeps = trace.records[len(gn_records):]
    assert trace.records[:len(gn_records)] == gn_records
    assert [r.iteration for r in sweeps] == list(range(len(sweeps)))
    assert all(r.grads == 0 and r.evals == 1 and r.step == 1.0 for r in sweeps)
    assert trace.objective_evals == gn_values + len(points) == gn_values + 1 + len(sweeps)
    assert trace.gradient_evals == gn_grads
    assert np.array_equal(w, design.run(s, "sgcdf").w)


def test_projection_sweeps_each_user_in_turn(tight, monkeypatch):
    # a sweep hands every user to comm.sinr_project once, in user order,
    # each on the point the previous user left, and then retracts
    s, _, _ = tight
    calls = []
    project = comm.sinr_project

    def recorded(w, k, cones, margin):
        calls.append((w, k, margin, project(w, k, cones, margin)))
        return calls[-1][3]

    monkeypatch.setattr(comm, "sinr_project", recorded)
    _, trace, _ = _tight_stage_two(tight)
    k = s.num_users
    # the sweeps' records follow the Gauss-Newton ones, numbered from 0 again
    iterations = [r.iteration for r in trace.records]
    sweeps = len(iterations) - iterations.index(0, 1)
    assert len(calls) == k * sweeps > 0
    assert [c[1] for c in calls] == list(range(k)) * sweeps
    assert all(c[2] == design.SP2_MARGIN for c in calls)
    for before, after in zip(calls, calls[1:]):
        if after[1] != 0:
            assert after[0] is before[3]
        else:
            # a new sweep starts on the retraction of the last one's point
            assert manifold.is_on_manifold(after[0], s.row_radius)


def test_projection_iterates_keep_sensing_columns_zero(tight, monkeypatch):
    # no_dedicated_stream's sweeps carry the K communication columns only;
    # the design pads the M_T sensing columns back as zeros
    s, _, _ = tight
    points = []
    f2_and_grad = comm.f2_and_grad

    def recorded(w, *args):
        points.append(w)
        return f2_and_grad(w, *args)

    monkeypatch.setattr(comm, "f2_and_grad", recorded)
    res = design.run(s, "no_dedicated_stream")
    k, mt = s.num_users, s.num_tx
    assert res.flags == ("sp2_projection",) and len(points) > 1
    for w in points:
        assert w.shape == (mt, k)
        assert manifold.is_on_manifold(w, s.row_radius)
    assert np.array_equal(res.w[:, k:], np.zeros((mt, mt)))
    assert res.rates.min_rate >= res.r_min


def test_projection_meets_the_tight_floors_in_a_few_sweeps():
    # iteration counts, not times: Gauss-Newton stalls on every scenario,
    # and its steps plus the sweeps stay within 40
    for seed in range(1, 11):
        res = design.run(make_scenario(seed=seed, overload=0.95), "sgcdf")
        trace = res.traces["sp2"]
        assert res.flags == ("sp2_projection",)
        assert trace.termination == "target_met"
        assert trace.iterations <= 40
        assert res.rates.min_rate >= res.r_min


def test_gauss_newton_step_cap_keeps_the_rate_price():
    # one user at overload 0.95: uncapped steps (GN_STEP_FRACTION = 1e9)
    # meet the floor at 48.5 times the stage-I sum-CRLB, capped ones at 1.40
    s = make_scenario(num_tx=12, num_rx=8, num_users=1,
                      target_angles_deg=(73.39490243467813, 56.44228638063632),
                      target_ranges_m=(64.25422967534698, 54.0593550634237),
                      noise_power_dbm=-138.56550699031965,
                      power_budget_dbm=25.43915128684548, snapshots=13,
                      rician_k=0.0, overload=0.95, seed=558124)
    res = design.run(s, "no_dedicated_stream")
    assert res.rates.min_rate >= res.r_min
    assert res.sum_crlb / design.run(s, "sensing_only").sum_crlb < 1.5


def test_gauss_newton_step_bound_hands_over_to_the_projection(monkeypatch):
    # the paper geometry at seed 2, overload 0.7 takes 10 Gauss-Newton steps;
    # bounded at 2, the projection sweeps finish from the second step's iterate
    monkeypatch.setattr(design, "GN_MAX_STEPS", 2)
    res = design.run(make_scenario(seed=2, overload=0.7), "sgcdf")
    trace = res.traces["sp2"]
    grads = [r.grads for r in trace.records]
    assert grads[:2] == [1, 1] and len(grads) > 2 and not any(grads[2:])
    assert res.flags == ("sp2_projection",) and trace.termination == "target_met"
    assert res.rates.min_rate >= res.r_min


def test_solve_sp2_reports_unreachable_rate():
    s = make_scenario(num_tx=4, num_rx=4, num_users=1,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), snapshots=64, seed=3)
    w_start, _ = design.initial_point(s, 0.0, False, _zf(s))
    with pytest.raises(InfeasibleError) as exc:
        design.solve_sp2(s, w_start, 30.0, RcgOptions())
    assert exc.value.detail["r_min"] == 30.0
    assert exc.value.detail["gap"] > 0


def test_sp1_normalizes_and_descends(small_results):
    trace = small_results["sensing_only"].traces["sp1"]
    assert trace.initial_objective == pytest.approx(1.0, rel=1e-12)
    assert trace.objectives()[-1] <= 1.0
    assert np.all(np.diff(trace.objectives()) <= 0.0)


def test_stage_one_forms_the_fisher_inverse_once_per_gradient(monkeypatch):
    # a line-search probe whose gradient is never read pays for its value
    # only: F^-1 is formed at the points whose gradient the solver reads
    s = make_scenario(seed=1, overload=0.7)
    formed = []
    lazy = crlb.FisherState.inverse

    def counted(state):
        if state._inverse is None:
            formed.append(state)
        return lazy.fget(state)

    monkeypatch.setattr(crlb.FisherState, "inverse", property(counted))
    zf = _zf(s)
    w0, _ = design.initial_point(s, design.rate_target(s, zf), False, zf)
    _, trace = design.solve_sp1(s, w0, RcgOptions(), crlb.coupling_matrices(s))
    assert len(formed) == trace.gradient_evals < trace.objective_evals
    assert len({id(state) for state in formed}) == len(formed)


@pytest.mark.parametrize("seed, overload, zero_sensing",
                         [(1, 0.7, False), (2, 0.3, False), (3, 0.7, True)])
def test_stage_one_trace_totals_are_its_kernel_calls(seed, overload, zero_sensing, monkeypatch):
    # the solver sums its totals from the line searches; the design
    # record and the CSV print them, so they must equal the Fisher
    # evaluations and gradients that stage I computes
    s = make_scenario(seed=seed, overload=overload)
    calls = {"fisher_matrix": 0, "grad_f1": 0}

    def counted(name, func):
        def wrapped(*args):
            calls[name] += 1
            return func(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(crlb, name, counted(name, getattr(crlb, name)))
    zf = _zf(s)
    w0, _ = design.initial_point(s, design.rate_target(s, zf), zero_sensing, zf)
    _, trace = design.solve_sp1(s, w0, RcgOptions(), crlb.coupling_matrices(s))
    assert trace.iterations > 1
    assert trace.objective_evals == calls["fisher_matrix"]
    assert trace.gradient_evals == calls["grad_f1"] < trace.objective_evals


def test_line_searches_start_from_the_last_accepted_step():
    # sgcdf on the paper geometry's overload-0.7 scenarios, the fragile
    # seed 8 included: a search that starts at twice the last accepted
    # step seldom backtracks. Starting every search at 1/||d|| costs 3.5
    # probes a step here.
    probes = []
    for seed in (2, 4, 6, 8):
        res = design.run(make_scenario(seed=seed, overload=0.7), "sgcdf")
        probes += [r.evals for r in res.traces["sp1"].records]
    assert np.mean(probes) <= 2.5


def test_run_forms_zero_forcing_once(small, monkeypatch):
    # one ZF design, from one SVD, serves the rate floor and the warm start
    counts = {"zf": 0, "svd": 0}

    def counted(key, func):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(comm, "zf_precoder", counted("zf", comm.zf_precoder))
    svd = counted("svd", np.linalg.svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    # np.linalg.pinv calls the svd of its own module, which counts too
    monkeypatch.setitem(inspect.unwrap(np.linalg.pinv).__globals__, "svd", svd)
    for mode in ("sgcdf", "sensing_only", "no_dedicated_stream"):
        counts.update(zf=0, svd=0)
        design.run(small, mode)
        assert counts == {"zf": 1, "svd": 1}, mode


def test_rate_target_values(small):
    direct = small.overload * comm.max_min_zf_rate(
        small.channels, _zf(small), small.noise_power, small.power_budget)
    assert design.rate_target(small, _zf(small)) == pytest.approx(direct, rel=1e-12)
    no_users = make_scenario(num_tx=8, num_rx=8, num_users=0,
                             target_angles_deg=(-40.0, 25.0),
                             target_ranges_m=(50.0, 60.0),
                             snapshots=64, seed=2)
    assert design.rate_target(no_users, None) == 0.0
