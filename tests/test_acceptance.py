"""End-to-end requirement gate.

Each test locks one measurable requirement of the delivered system and
must finish inside its stated wall-clock budget. A terminal-summary
hook prints one verdict line per criterion after the run.
"""

import dataclasses
import time

import numpy as np
from scipy.signal import find_peaks

from isacbeam import comm, crlb, design, manifold, radar
from isacbeam.arrays import ArrayConfig, beampattern_trace
from isacbeam.cli import main as cli_main, read_csv
from isacbeam.rcg import RcgOptions, minimize
from isacbeam.scenario import (
    Scenario,
    Target,
    UserChannel,
    make_scenario,
    substream,
)
from reference import deferred, random_point, soc_project, x_of


def _hand_scenario():
    """Unit-noise, unit-reflectivity scenario with CN(0, I) channels."""
    rng = np.random.default_rng(0)
    targets = (Target(angle=np.deg2rad(-35.0), range_m=50.0, rcs=1.0 + 0.0j),
               Target(angle=np.deg2rad(40.0), range_m=60.0, rcs=1.0 + 0.0j))
    users = tuple(
        UserChannel(vector=rng.standard_normal(8) + 1j * rng.standard_normal(8),
                    angle=0.0, pathloss=1.0)
        for _ in range(2))
    return Scenario(array=ArrayConfig(num_tx=8, num_rx=8), targets=targets,
                    users=users, noise_power=1.0, power_budget=8.0,
                    snapshots=64, rician_k=0.0, overload=0.0, seed=0)


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    s = _hand_scenario()
    coupling = crlb.coupling_matrices(s)
    instances = comm.soc_assemble(s.channel_matrix(), 2.0, s.noise_power,
                                  num_streams=s.num_streams)
    rng = np.random.default_rng(1)
    step = 1e-6
    checked_f2 = 0
    for _ in range(20):
        w = random_point(8, s.num_streams, s.row_radius, rng)
        d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        d /= np.linalg.norm(d)

        g1 = crlb.grad_f1(coupling, crlb.fisher_matrix(w, coupling))
        fd1 = (crlb.fisher_matrix(w + step * d, coupling).objective
               - crlb.fisher_matrix(w - step * d, coupling).objective) \
            / (2.0 * step)
        assert abs(manifold.inner(g1, d) - fd1) <= 1e-5 * abs(fd1)

        f2, g2 = comm.f2_and_grad(w, instances)
        if f2 > 1e-12:
            fd2 = (comm.f2_and_grad(w + step * d, instances)[0]
                   - comm.f2_and_grad(w - step * d, instances)[0]) \
                / (2.0 * step)
            assert abs(manifold.inner(g2(), d) - fd2) <= 1e-5 * abs(fd2)
            checked_f2 += 1
    assert checked_f2 >= 10
    assert time.perf_counter() - t0 < 10.0


def test_iterates_stay_on_manifold_and_projection_laws(monkeypatch):
    t0 = time.perf_counter()
    s = make_scenario(num_tx=8, num_rx=8, num_users=2,
                      target_angles_deg=(-40.0, 25.0),
                      target_ranges_m=(50.0, 60.0), snapshots=64, seed=2)
    coupling = crlb.coupling_matrices(s)
    # every point an objective is evaluated at: each line-search probe of
    # stage I, and each Gauss-Newton step and projection sweep of stage II
    seen = {"sp1": [], "sp2": []}

    def recording(stage, func):
        def wrapped(w, *args, **kwargs):
            seen[stage].append(w)
            return func(w, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(crlb, "fisher_matrix", recording("sp1", crlb.fisher_matrix))
    for name in ("f2_and_gauss_newton", "f2_and_grad"):
        monkeypatch.setattr(comm, name, recording("sp2", getattr(comm, name)))

    def fg(w):
        state = crlb.fisher_matrix(w, coupling)
        return state.objective, crlb.grad_f1(coupling, state)

    h = s.channel_matrix()
    w0, _ = design.initial_point(s, 0.0, False, h, comm.zf_precoder(h))
    minimize(deferred(fg), w0, s.row_radius, RcgOptions(eps=1e-4), restart_period=w0.shape[1])
    # stage II in both modes: Gauss-Newton alone on the small scenario, and
    # the projection after it on the paper geometry at overload 0.95
    tight = make_scenario(seed=1, overload=0.95)
    for scenario, flags in ((s, ()), (tight, ("sp2_projection",))):
        for mode in ("sgcdf", "no_dedicated_stream"):
            res = design.run(scenario, mode)
            # the start, then every step and sweep
            assert len(seen["sp2"]) == res.traces["sp2"].objective_evals > 1
            assert res.flags == flags
            assert len(seen["sp1"]) >= 2
            rho2 = scenario.row_radius ** 2
            for w in seen["sp1"] + seen["sp2"]:
                gap = np.abs(manifold.row_norms(w) ** 2 - rho2).max()
                assert gap <= manifold.ROW_TOL * rho2
            seen["sp1"], seen["sp2"] = [], []

    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = random_point(3, 5, 1.4, rng)
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        y = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        px = manifold.project_tangent(w, x, 1.4)
        again = manifold.project_tangent(w, px, 1.4)
        assert np.linalg.norm(again - px) <= 1e-10 * max(1.0, np.linalg.norm(px))
        lhs = manifold.inner(px, y)
        rhs = manifold.inner(x, manifold.project_tangent(w, y, 1.4))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    assert time.perf_counter() - t0 < 5.0


def test_line_search_wolfe_and_monotone_descent():
    t0 = time.perf_counter()
    for i in range(10):
        s = make_scenario(num_tx=8, num_rx=8, num_users=3,
                          snapshots=64, seed=100 + i)
        w0 = random_point(8, s.num_streams, s.row_radius,
                          substream(s.seed, "w0"))
        _, trace = design.solve_sp1(s, w0, RcgOptions(), crlb.coupling_matrices(s))
        assert trace.iterations >= 1
        assert all(r.wolfe_ok for r in trace.records)
        assert np.all(np.diff(trace.objectives()) <= 0.0)
    assert time.perf_counter() - t0 < 30.0


def test_soc_membership_matches_sinr_constraints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    h = (rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))) \
        / np.sqrt(2.0)
    noise, r_min, n = 0.3, 1.5, 10
    instances = comm.soc_assemble(h, r_min, noise, num_streams=n)
    gamma = 2.0 ** r_min - 1.0
    checked = 0
    disagreements = 0
    for _ in range(200):
        radius = rng.uniform(0.5, 2.0)
        w = radius * (rng.standard_normal((8, n))
                      + 1j * rng.standard_normal((8, n)))
        rep = comm.rates(w, h, noise)
        for inst in instances:
            x = x_of(instances, inst, w)
            member = np.linalg.norm(x - soc_project(x)) <= 1e-9
            sinr = rep.sinr[inst.user]
            if abs(sinr - gamma) <= 1e-9 * gamma:
                continue
            checked += 1
            disagreements += int(member != (sinr >= gamma))
    assert checked >= 500
    assert disagreements == 0
    assert time.perf_counter() - t0 < 5.0


def test_equal_rate_allocation_fixed_point():
    # the warm start's rule: ZF directions at the powers p0 + p_s slope put
    # every user exactly at the floor under the sensing block sqrt(p_s/M_T) I
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    noise = 0.1
    for i in range(50):
        k = 1 + i % 4
        h = rng.standard_normal((8, k)) + 1j * rng.standard_normal((8, k))
        v = comm.zf_precoder(h)
        r = float(rng.uniform(0.2, 3.0))
        p_s = float(rng.uniform(0.0, 2.0))
        p0, slope = comm.sensing_equal_rate_power(h, v, noise, r)
        w = np.hstack([v * np.sqrt(p0 + p_s * slope), np.sqrt(p_s / 8.0) * np.eye(8)])
        assert np.max(np.abs(comm.rates(w, h, noise).rate - r)) <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_two_stage_pipeline_ordering():
    t0 = time.perf_counter()
    s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                      snapshots=256, seed=1)
    values = [design.run(s, "sensing_only").sum_crlb]
    for delta in (0.3, 0.5, 0.7):
        res = design.run(dataclasses.replace(s, overload=delta), "sgcdf")
        assert res.rates.min_rate >= res.r_min - 1e-6
        values.append(res.sum_crlb)
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi * (1.0 + 1e-9)
    assert time.perf_counter() - t0 < 120.0


def test_rate_floor_met_across_seeds():
    t0 = time.perf_counter()
    for seed in range(1, 21):
        s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                          snapshots=256, overload=0.7, seed=seed)
        res = design.run(s, "sgcdf")
        assert res.rates.min_rate >= res.r_min - 1e-6
    assert time.perf_counter() - t0 < 120.0


def test_crlb_halves_when_power_doubles():
    t0 = time.perf_counter()
    opts = RcgOptions(eps=1e-6)
    crlbs = []
    for p_dbm in (20.0, 20.0 + 10.0 * np.log10(2.0)):
        s = make_scenario(num_tx=16, num_rx=16, num_users=0,
                          snapshots=256, power_budget_dbm=p_dbm, seed=5)
        crlbs.append(design.run(s, "sensing_only", opts=opts).sum_crlb)
    ratio = crlbs[1] / crlbs[0]
    assert 0.49 <= ratio <= 0.51
    assert time.perf_counter() - t0 < 60.0


def test_rmse_tracks_crlb_with_power():
    t0 = time.perf_counter()
    rmse = []
    ratios = []
    for p_dbm in (10.0, 15.0, 20.0):
        s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                          snapshots=256, power_budget_dbm=p_dbm,
                          overload=0.7, seed=3)
        res = design.run(s, "sgcdf")
        rep = radar.monte_carlo(s, res, 30)
        rmse.append(rep.rmse)
        ratios.append(rep.rmse / rep.rcrlb)
    assert rmse[0] > rmse[1] > rmse[2]
    assert 1.0 <= ratios[-1] <= 3.0
    assert ratios[-1] < ratios[0]
    assert time.perf_counter() - t0 < 600.0


def test_beampattern_peaks_at_targets():
    t0 = time.perf_counter()
    s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                      snapshots=256, seed=1)
    grid_deg = np.linspace(-90.0, 90.0, 1801)
    grid = np.deg2rad(grid_deg)
    traces = {}
    for mode in ("sensing_only", "sgcdf"):
        res = design.run(s, mode)
        traces[mode] = 10.0 * np.log10(np.maximum(
            beampattern_trace(res.r_x, grid), 1e-300))
    for angle in np.rad2deg(np.sort(s.target_angles())):
        matched = {}
        for mode, trace in traces.items():
            peaks, _ = find_peaks(trace)
            assert peaks.size >= 1
            nearest = peaks[np.argmin(np.abs(grid_deg[peaks] - angle))]
            assert abs(grid_deg[nearest] - angle) <= 2.0
            matched[mode] = trace[nearest]
        assert abs(matched["sensing_only"] - matched["sgcdf"]) <= 6.0
    assert time.perf_counter() - t0 < 60.0


def test_omnidirectional_trace_is_flat(tmp_path):
    t0 = time.perf_counter()
    ini = tmp_path / "flat.ini"
    ini.write_text(
        "[scenario]\n"
        "num_tx = 8\nnum_rx = 8\nnum_users = 2\n"
        "target_angles_deg = -40.0, 25.0\n"
        "target_ranges_m = 50.0, 60.0\n"
        "snapshots = 64\nseed = 1\n\n"
        "[experiment]\ngrid_deg = 0.5\n", encoding="utf-8")
    out = tmp_path / "bp.csv"
    assert cli_main(["beampattern", "--config", str(ini),
                     "--mode", "omnidirectional", "--out", str(out)]) == 0
    _, header, rows = read_csv(out.read_text(encoding="utf-8"))
    assert header == ["theta_deg", "mode", "gain_db"]
    gains = np.array([float(r[2]) for r in rows])
    assert gains.size == 361
    assert gains.max() - gains.min() < 1e-9
    assert time.perf_counter() - t0 < 10.0
