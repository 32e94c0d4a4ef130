"""Echo synthesis, MUSIC estimation, and the Monte-Carlo harness."""

import dataclasses
import functools
import importlib.util
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from isacbeam import cli, design, radar
from isacbeam.arrays import steering, target_channel
from isacbeam.radar import (
    echo_channel,
    monte_carlo,
    monte_carlo_sweep,
    music_estimate,
    synthesize_echo,
    synthesize_probe,
)
from isacbeam.scenario import make_scenario, substream
from reference import (accumulated_stacks, echo_covariance, full_scan, grid_table,
                       magnitude_curvature, music_denominator, music_rmse_prediction,
                       one_trial_monte_carlo, one_trial_music, plan_denominator,
                       steering_denominator, steering_music, synthesize_waveform)


def _sensing_scenario(noise_dbm, angles=(20.0,), ranges=(50.0,), snapshots=256):
    return make_scenario(num_tx=8, num_rx=8, num_users=0,
                         target_angles_deg=angles, target_ranges_m=ranges,
                         noise_power_dbm=noise_dbm, snapshots=snapshots,
                         seed=0)


def _identity_beamformer(scenario):
    mt = scenario.num_tx
    return np.sqrt(scenario.power_budget / mt) * np.eye(mt, dtype=complex)


def _sample_covariance(y):
    """Sample covariance Y Y^H / L of an M_R x L echo block."""
    return y @ y.conj().T / y.shape[1]


def test_probe_rows_are_exactly_orthogonal():
    rng = np.random.default_rng(0)
    xt = synthesize_probe(6, 64, rng)
    assert xt.shape == (6, 64)
    gram = xt @ xt.conj().T / 64.0
    assert np.allclose(gram, np.eye(6), atol=1e-10)
    with pytest.raises(ValueError):
        synthesize_probe(10, 9, rng)


def test_probe_draws_real_part_then_imaginary_part():
    # pins the realisation: Z = real draw + 1j * imaginary draw, L x N
    xt = synthesize_probe(6, 64, substream(3, "trial", 1))
    twin = substream(3, "trial", 1)
    z = twin.standard_normal((64, 6)) + 1j * twin.standard_normal((64, 6))
    q, _ = np.linalg.qr(z)
    assert np.array_equal(xt, np.sqrt(64) * q.conj().T)


def test_waveform_sample_covariance_equals_w_cov():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10))
    x = synthesize_waveform(w, 64, rng)
    cov = x @ x.conj().T / 64.0
    ref = w @ w.conj().T
    assert np.allclose(cov, ref, atol=1e-10 * np.linalg.norm(ref))
    # a different probe draw leaves the covariance unchanged
    x2 = synthesize_waveform(w, 64, np.random.default_rng(99))
    cov2 = x2 @ x2.conj().T / 64.0
    assert np.allclose(cov2, ref, atol=1e-10 * np.linalg.norm(ref))


def test_echo_lives_in_the_target_steering_subspace():
    s = _sensing_scenario(-300.0)
    x = synthesize_waveform(_identity_beamformer(s), s.snapshots,
                            np.random.default_rng(0))
    y = synthesize_echo(s, x, np.random.default_rng(1))
    a = steering(s.target_angles[0], 8)
    proj = np.outer(a, a.conj()) / 8.0
    resid = y - proj @ y
    ratio = np.linalg.norm(resid) / np.linalg.norm(y)
    assert ratio <= 1e-10


def test_echo_rejects_wrong_waveform_height():
    s = _sensing_scenario(-96.0)
    with pytest.raises(ValueError):
        synthesize_echo(s, np.zeros((5, 64)), np.random.default_rng(0))


def test_echo_noise_second_moment():
    s = _sensing_scenario(-96.0, snapshots=1024)
    x = synthesize_waveform(_identity_beamformer(s), 1024,
                            np.random.default_rng(3))
    y = synthesize_echo(s, x, np.random.default_rng(3))
    channel = sum(rcs * target_channel(theta, s.num_tx, s.num_rx)
                  for theta, rcs in zip(s.target_angles, s.target_rcs))
    noise = y - channel @ x
    measured = np.mean(np.abs(noise) ** 2)
    assert measured == pytest.approx(s.noise_power, rel=0.03)


def test_echoes_superpose_over_targets():
    # -2000 dBm noise is ~1e-203 W, far below any signal term, so the
    # three separately drawn noise realizations cannot mask linearity
    s_ab = make_scenario(num_tx=8, num_rx=8, num_users=0,
                         target_angles_deg=(-40.0, 25.0),
                         target_ranges_m=(50.0, 60.0),
                         noise_power_dbm=-2000.0, snapshots=64, seed=0)
    s_a, s_b = (dataclasses.replace(s_ab, target_angles=s_ab.target_angles[i:i + 1],
                                    target_rcs=s_ab.target_rcs[i:i + 1]) for i in (0, 1))
    x = synthesize_waveform(_identity_beamformer(s_ab), 64,
                            np.random.default_rng(4))
    rec = {}
    for label, s in (("ab", s_ab), ("a", s_a), ("b", s_b)):
        rec[label] = synthesize_echo(s, x, np.random.default_rng(5))
    assert np.allclose(rec["ab"], rec["a"] + rec["b"],
                       rtol=1e-10, atol=1e-20)


# ----------------------------------------------------------------- MUSIC

def test_music_noiseless_single_target():
    s = _sensing_scenario(-300.0)
    x = synthesize_waveform(_identity_beamformer(s), s.snapshots,
                            np.random.default_rng(2))
    y = synthesize_echo(s, x, np.random.default_rng(2))
    est, degraded = music_estimate(_sample_covariance(y), 1)
    assert not degraded
    assert est.shape == (1,)
    assert abs(np.rad2deg(est[0]) - 20.0) <= 0.05


def test_music_resolves_three_targets_from_a_design_echo():
    s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                      snapshots=256, seed=1)
    res = design.run(s, "sgcdf")
    rng = substream(1, "trial", 0)
    x = synthesize_waveform(res.w, s.snapshots, rng)
    y = synthesize_echo(s, x, rng)
    est, degraded = music_estimate(_sample_covariance(y), 3)
    assert not degraded
    truth = np.sort(s.target_angles)
    assert np.max(np.abs(np.rad2deg(est - truth))) <= 1.0


def test_music_repeats_strongest_peak_when_short():
    # a single endfire source on a 45-degree grid: the endpoint maxima
    # never count as peaks, leaving one interior peak at broadside for
    # two requested targets, so the strongest is repeated and flagged
    y = np.tile(2.0 * steering(np.deg2rad(90.0), 4)[:, None], (1, 8))
    est, degraded = music_estimate(_sample_covariance(y), 2, grid_deg=45.0)
    assert degraded
    assert est.shape == (2,)
    assert est[0] == est[1]
    assert abs(est[0]) <= np.deg2rad(1e-6)


@pytest.mark.parametrize("cov, angle, degraded", [
    # exact broadside source on the grid: the denominator is exactly 0 there
    (np.ones((2, 2)), 0.0, False),
    # signal eigenvector a(+-90 deg): the denominator's only minima are the
    # two grid edges, so there is no interior peak and the fallback takes
    # the global minimum
    (np.array([[1.5, -0.5], [-0.5, 1.5]]), -np.pi / 2, True),
])
def test_music_on_exact_two_antenna_covariances(cov, angle, degraded):
    est, bad = music_estimate(cov, 1, grid_deg=0.5)
    assert est.tolist() == [angle]
    assert bad is degraded


@settings(max_examples=300, deadline=None)
@given(row=st.lists(st.floats(-1e6, 1e6), max_size=40, unique=True))
def test_row_minima_match_scipy_find_peaks_on_tie_free_rows(row):
    # a row and its mirror image as one stack: each row gets its own minima
    x = np.array([row, row[::-1]], dtype=float).reshape(2, len(row))
    minima = radar._row_minima(x)
    for values, found in zip(x, minima):
        idx = find_peaks(-values)[0]
        assert np.flatnonzero(np.isfinite(found)).tolist() == idx.tolist()
        assert np.array_equal(found[idx], values[idx])


@pytest.mark.parametrize("row, expected", [
    ([3.0, 1.0, 1.0, 2.0], []),                    # flat bottom: no minimum
    ([3.0, 2.0, 2.0, 1.0, 4.0], [3]),              # a shelf on the way down
    ([2.0, 1.0, 3.0, 0.0, np.nan, np.nan], [1]),   # a NaN pad and its neighbour
    ([np.inf, 1.0, np.inf, 2.0, 3.0, np.inf], [1, 3]),  # a +inf mask
    ([0.0, 1.0, 0.5, 1.0, 0.0], [2]),              # the lower edges never qualify
    ([1.0, 0.0], []),
    ([], []),
])
def test_row_minima_on_ties_pads_masks_and_edges(row, expected):
    x = np.array([row], dtype=float).reshape(1, len(row))
    minima = radar._row_minima(x)[0]
    assert np.flatnonzero(np.isfinite(minima)).tolist() == expected
    assert np.array_equal(minima[expected], x[0, expected])


def test_music_rejects_too_many_targets():
    cov = _sample_covariance(np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="more receive antennas"):
        music_estimate(cov, 4)
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"at least one target, got {count}"):
            music_estimate(cov, count)


def test_music_rejects_non_covariance_input():
    for bad in (np.eye(4, 8, dtype=complex), np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            music_estimate(bad, 1)


def test_music_noiseless_on_grid_target_keeps_denominator_nonnegative():
    # at a noiseless target exactly on the grid, ||a||^2 - ||E_s^H a||^2
    # cancels to rounding (on this draw to 1.8e-15; on others it can fall
    # below zero); those columns fall back to the noise subspace
    s = _sensing_scenario(-300.0)
    gw = echo_channel(s) @ _identity_beamformer(s)
    cov = echo_covariance(s, gw, substream(0, "trial", 1))
    theta_deg, denom = music_denominator(cov, 1, radar.MUSIC_GRID_DEG)
    i = int(np.argmin(np.abs(theta_deg - 20.0)))
    assert theta_deg[i] == pytest.approx(20.0, abs=1e-9)
    signal_form = plan_denominator(cov, 1, grid_table(8, radar.MUSIC_GRID_DEG)[1])[1][i]
    assert abs(signal_form) < radar.CANCEL_TOL * 8
    assert np.all(denom >= 0.0)
    assert np.argmin(denom) == i
    est, degraded = music_estimate(cov, 1)
    assert not degraded
    assert abs(np.rad2deg(est[0]) - 20.0) <= radar.MUSIC_GRID_DEG


# ------------------------------------------------- covariance-domain echo

def _random_beamformer(scenario, rng):
    mt = scenario.num_tx
    n = scenario.num_users + mt
    w = rng.standard_normal((mt, n)) + 1j * rng.standard_normal((mt, n))
    return w * np.sqrt(scenario.power_budget / mt) / np.linalg.norm(w, axis=1)[:, None]


# (M_T = M_R, K, L) with N = M_T + K streams: L - N = 0, 0 < L - N < M_R
# and L - N >= M_R, the three shapes of the Bartlett factor
_WISHART_REGIMES = [(8, 2, 10), (8, 0, 12), (8, 2, 64)]


@pytest.mark.parametrize("m, k, snapshots", _WISHART_REGIMES)
def test_echo_covariance_moments_match_explicit_frame(m, k, snapshots):
    # -75 dBm puts the noise ~6x above the per-antenna echo, so the
    # Wishart term shapes both moments; with 4000 trials per side the
    # tolerances are about five standard errors of each comparison
    s = make_scenario(num_tx=m, num_rx=m, num_users=k, snapshots=snapshots,
                      noise_power_dbm=-75.0, seed=4)
    w = _random_beamformer(s, np.random.default_rng(m + k))
    gw = echo_channel(s) @ w
    trials = 4000
    rng = np.random.default_rng(1)
    cov = np.array([echo_covariance(s, gw, rng) for _ in range(trials)])
    rng = np.random.default_rng(2)
    ref = np.array([_sample_covariance(synthesize_echo(s, synthesize_waveform(w, snapshots, rng),
                                                       rng))
                    for _ in range(trials)])
    assert cov.shape == ref.shape == (trials, m, m)
    mean, ref_mean = cov.mean(axis=0), ref.mean(axis=0)
    assert np.linalg.norm(mean - ref_mean) <= 0.04 * np.linalg.norm(ref_mean)
    assert np.max(np.abs(cov.var(axis=0) / ref.var(axis=0) - 1.0)) <= 0.15


@pytest.mark.parametrize("m, k, snapshots", _WISHART_REGIMES)
def test_echo_covariance_noiseless_limit(m, k, snapshots):
    # the noise enters to first order, about sigma / (sqrt(L) |GW|):
    # 1e-11 at the default 20 dBm budget, 1e-13 at 60 dBm
    s = make_scenario(num_tx=m, num_rx=m, num_users=k, snapshots=snapshots,
                      noise_power_dbm=-300.0, power_budget_dbm=60.0, seed=4)
    gw = echo_channel(s) @ _random_beamformer(s, np.random.default_rng(m + k))
    ref = gw @ gw.conj().T
    cov = echo_covariance(s, gw, substream(4, "trial", 2))
    assert np.linalg.norm(cov - ref) <= 1e-12 * np.linalg.norm(ref)


def test_echo_covariance_memory_is_free_of_snapshots():
    # at L = 2**16 every M x L complex block of the explicit frame is 8 MiB
    s = _sensing_scenario(-96.0, snapshots=2**16)
    gw = echo_channel(s) @ _identity_beamformer(s)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        echo_covariance(s, gw, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ----------------------------------------------------------- monte carlo

def test_monte_carlo_rejects_fewer_snapshots_than_streams():
    s = _sensing_scenario(-96.0, snapshots=6)
    res = SimpleNamespace(w=_identity_beamformer(s), rcrlb=0.0)
    with pytest.raises(ValueError, match=r"snapshots as streams \(6 < 8\)"):
        monte_carlo(s, res, 1)


@pytest.fixture(scope="module")
def mc_scenario():
    return make_scenario(num_tx=8, num_rx=8, num_users=0,
                         target_angles_deg=(-40.0, 25.0),
                         target_ranges_m=(50.0, 60.0),
                         snapshots=128, seed=0)


@pytest.fixture(scope="module")
def mc_design(mc_scenario):
    return design.run(mc_scenario, "omnidirectional")


def test_monte_carlo_is_reproducible(mc_scenario, mc_design):
    r1 = monte_carlo(mc_scenario, mc_design, 5, grid_deg=0.5)
    r2 = monte_carlo(mc_scenario, mc_design, 5, grid_deg=0.5)
    assert r1.rmse == r2.rmse
    assert np.array_equal(r1.mean_estimates, r2.mean_estimates)
    assert np.array_equal(r1.per_target_mse, r2.per_target_mse)
    assert r1.degraded_trials == r2.degraded_trials


def test_monte_carlo_report_shape_and_identity(mc_scenario, mc_design):
    rep = monte_carlo(mc_scenario, mc_design, 5, grid_deg=0.5)
    assert rep.trials == 5
    assert rep.true_angles.shape == (2,)
    assert np.all(np.diff(rep.true_angles) > 0)
    assert rep.mean_estimates.shape == (2,)
    assert rep.per_target_mse.shape == (2,)
    assert rep.rmse == pytest.approx(np.sqrt(rep.per_target_mse.sum()),
                                     rel=1e-12)
    assert rep.rcrlb == mc_design.rcrlb
    assert 0 <= rep.degraded_trials <= 5


def test_monte_carlo_noiseless_hits_the_truth(mc_scenario, mc_design):
    quiet = dataclasses.replace(mc_scenario, noise_power=1e-33)
    rep = monte_carlo(quiet, mc_design, 3, grid_deg=0.1)
    assert rep.degraded_trials == 0
    assert np.rad2deg(rep.rmse) <= 0.05


def test_monte_carlo_noise_hurts(mc_scenario, mc_design):
    quiet = dataclasses.replace(mc_scenario, noise_power=1e-33)
    loud = dataclasses.replace(mc_scenario, noise_power=1e-6)
    quiet_rep = monte_carlo(quiet, mc_design, 3, grid_deg=0.1)
    loud_rep = monte_carlo(loud, mc_design, 3, grid_deg=0.1)
    assert loud_rep.rmse >= quiet_rep.rmse


def _recorded_monte_carlo(monkeypatch, scenario, result, trials, grid_deg):
    """``monte_carlo``'s report and, per block, the (covariances,
    estimates, degraded flags) that reach its stacked MUSIC entry point."""
    reps, blocks = _recorded_sweep(monkeypatch, [(scenario, result)], trials, grid_deg)
    return reps[0], blocks[0]


def _recorded_sweep(monkeypatch, designs, trials, grid_deg):
    """``monte_carlo_sweep``'s reports and, for each design, the
    (covariances, estimates, degraded flags) of each of its calls of the
    stacked MUSIC entry point, in block order.

    The designs of a block may run on several threads, so a call is
    attributed to the design whose G W formed its covariances, not by
    call order; every design's G W differs from the others'. A design's
    calls keep block order: a block's designs all finish before the next
    block draws its noise."""
    gws = [echo_channel(s) @ np.asarray(res.w) for s, res in designs]
    assert not any(np.array_equal(a, b) for a, b in itertools.combinations(gws, 2))
    owner, blocks = {}, [[] for _ in designs]
    covariances, music = radar._covariances, radar._music

    def recording_covariances(gw, *args):
        covs = covariances(gw, *args)
        [owner[id(covs)]] = [i for i, g in enumerate(gws) if np.array_equal(g, gw)]
        return covs

    def recording_music(covs, num_targets, grid_deg):
        out = music(covs, num_targets, grid_deg)
        blocks[owner[id(covs)]].append((covs, *out[:2]))
        return out

    monkeypatch.setattr(radar, "_covariances", recording_covariances)
    monkeypatch.setattr(radar, "_music", recording_music)
    if len(designs) == 1:
        reps = [monte_carlo(*designs[0], trials, grid_deg=grid_deg)]
    else:
        reps = monte_carlo_sweep(designs, trials, grid_deg=grid_deg)
    monkeypatch.setattr(radar, "_covariances", covariances)
    monkeypatch.setattr(radar, "_music", music)
    return reps, blocks


def _reference_trial(scenario, w, num_targets, grid_deg, rng):
    """Explicit frame, then the noise-subspace MUSIC reference."""
    cov = _sample_covariance(synthesize_echo(
        scenario, synthesize_waveform(w, scenario.snapshots, rng), rng))
    return steering_music(cov, num_targets, grid_deg)


@pytest.fixture(scope="module")
def three_target_design():
    s = make_scenario(num_tx=16, num_rx=16, num_users=4, snapshots=256, seed=1)
    return s, design.run(s, "sgcdf")


@pytest.mark.parametrize("case, grid_deg", [("two_targets", 0.1),
                                            ("three_targets", radar.MUSIC_GRID_DEG)])
def test_monte_carlo_music_matches_noise_subspace_reference(case, grid_deg, mc_scenario,
                                                            mc_design, three_target_design,
                                                            monkeypatch):
    s, res = ((mc_scenario, mc_design) if case == "two_targets"
              else three_target_design)
    trials = 6
    rep, blocks = _recorded_monte_carlo(monkeypatch, s, res, trials, grid_deg)
    seen = [(cov, (est, bad)) for covs, ests, bads in blocks
            for cov, est, bad in zip(covs, ests, bads)]
    t = s.num_targets
    assert len(seen) == trials
    ref = [steering_music(cov, t, grid_deg) for cov, _ in seen]
    for (_, (est, bad)), (ref_est, ref_bad) in zip(seen, ref):
        assert bad == ref_bad
        assert np.max(np.abs(est - ref_est)) <= 1e-12
    assert rep.degraded_trials == sum(bad for _, bad in ref)
    truth = np.sort(s.target_angles)
    sq = [float((est - truth) @ (est - truth)) for est, _ in ref]
    assert rep.rmse == pytest.approx(np.sqrt(np.mean(sq)), rel=1e-9)


def test_monte_carlo_rmse_matches_explicit_frame(mc_scenario, mc_design):
    # same law, different draws: with 1000 trials per side the RMSE ratio
    # has a standard error of about 2%, so 10% is ~4.5 of them
    trials, grid_deg = 1000, 0.1
    rep = monte_carlo(mc_scenario, mc_design, trials, grid_deg=grid_deg)
    truth = np.sort(mc_scenario.target_angles)
    sq, degraded = [], 0
    for i in range(trials):
        est, bad = _reference_trial(mc_scenario, mc_design.w, truth.size, grid_deg,
                                    substream(mc_scenario.seed, "reference", i))
        sq.append(float((est - truth) @ (est - truth)))
        degraded += bad
    assert rep.degraded_trials == degraded == 0
    assert rep.rmse == pytest.approx(np.sqrt(np.mean(sq)), rel=0.1)


@pytest.mark.parametrize("angles, power_dbm", [((-45.0, 30.0, 60.0), 0.0),
                                                ((-45.0, 30.0, 60.0), 20.0),
                                                ((10.0, 14.0, 18.0), 20.0)])
@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_rmse_matches_the_large_snapshot_prediction(angles, power_dbm, seed):
    # above MUSIC's threshold the RMSE of 200 trials lies within 3 sd,
    # 3 sqrt(1 / (2 * 200)) = 0.15, of the Stoica-Nehorai prediction; the
    # 4 deg geometry at 0 dBm is in the threshold region and is left out
    s = make_scenario(target_angles_deg=angles, power_budget_dbm=power_dbm, overload=0.3,
                      seed=seed)
    results = [design.run(s, mode) for mode in design.MODES]
    reports = monte_carlo_sweep([(s, res) for res in results], 200, radar.MUSIC_GRID_DEG)
    for res, rep in zip(results, reports):
        assert abs(rep.rmse / music_rmse_prediction(s, res.w) - 1.0) <= 0.15, res.mode


def test_monte_carlo_rejects_zero_trials(mc_scenario, mc_design):
    with pytest.raises(ValueError):
        monte_carlo(mc_scenario, mc_design, 0)


def _stacking_case(case):
    """([(scenario, mode), ...], trials) of a Monte-Carlo run that must
    equal the one-trial-at-a-time reference; a case of one design runs
    ``monte_carlo``, one of several ``monte_carlo_sweep``."""
    paper = [(make_scenario(power_budget_dbm=p_dbm), mode) for p_dbm in (0.0, 10.0, 20.0)
             for mode in ("sgcdf", "omnidirectional")]
    four = make_scenario(num_tx=4, num_rx=4, num_users=0, power_budget_dbm=-40.0)
    if case.startswith("paper"):
        # the benchmark's sweep: 40 trials, the last block shorter (29, 11)
        p_dbm, mode = case.split()[1:]
        return [(make_scenario(power_budget_dbm=float(p_dbm)), mode)], 40
    return {
        "one target": ([(_sensing_scenario(-96.0), "omnidirectional")], 9),
        # degraded trials fall back to the full scan inside a block
        "4x4 -40 dBm": ([(four, "omnidirectional")], 16),
        "64x64": ([(make_scenario(num_tx=64, num_rx=64, num_users=2), "omnidirectional")], 11),
        # L = N: the Bartlett block has no columns
        "snapshots == streams": ([(make_scenario(num_tx=8, num_rx=8, num_users=2, snapshots=10),
                                   "omnidirectional")], 5),
        "one trial": ([(make_scenario(power_budget_dbm=10.0), "omnidirectional")], 1),
        # the benchmark's sweep command in one call: one noise key
        "sweep paper": (paper, 40),
        "sweep one trial": (paper[2:4], 1),
        "sweep one target": ([(_sensing_scenario(-96.0), "omnidirectional"),
                              (_sensing_scenario(-96.0), "sensing_only")], 9),
        "sweep 4x4 -40 dBm": ([(four, "omnidirectional"), (four, "sensing_only")], 16),
    }[case]


@pytest.mark.parametrize("case", [f"paper {p} {mode}" for p in (0, 10, 20)
                                  for mode in ("sgcdf", "omnidirectional")]
                         + ["one target", "4x4 -40 dBm", "64x64", "snapshots == streams",
                            "one trial", "sweep paper", "sweep one trial", "sweep one target",
                            "sweep 4x4 -40 dBm"])
def test_monte_carlo_blocks_match_one_trial_at_a_time(case, monkeypatch):
    # two CPUs on any host: a sweep's designs run on two threads, 26
    # trials a block for "sweep paper" (26, 14)
    monkeypatch.setattr(radar, "_cpus", lambda: 2)
    specs, trials = _stacking_case(case)
    designs = [(s, design.run(s, mode)) for s, mode in specs]
    draws = []
    trial_noise = radar._trial_noise
    monkeypatch.setattr(radar, "_trial_noise",
                        lambda *args: draws.append(len(args[-1])) or trial_noise(*args))
    reps, per_design = _recorded_sweep(monkeypatch, designs, trials, radar.MUSIC_GRID_DEG)
    sizes = [len(covs) for covs, _, _ in per_design[0]]
    # one draw of the noise per block, shared by every design
    assert draws == sizes
    most = max(s.num_targets for s, _ in designs)
    block = min(radar._block_trials(s.num_rx, np.shape(res.w)[1], most, radar.MUSIC_GRID_DEG,
                                    min(2, len(designs))) for s, res in designs)
    assert sum(sizes) == trials and set(sizes[:-1]) <= {block} and sizes[-1] <= block
    if "paper" in case:
        assert len(sizes) > 1 and sizes[-1] < block
    for (s, res), rep, seen in zip(designs, reps, per_design):
        assert [len(covs) for covs, _, _ in seen] == sizes
        est = np.concatenate([ests for _, ests, _ in seen])
        bad = np.concatenate([bads for _, _, bads in seen])
        ref_est, ref_bad, ref_full = one_trial_monte_carlo(s, res, trials, radar.MUSIC_GRID_DEG)
        assert np.array_equal(est, ref_est) and np.array_equal(bad, ref_bad)
        assert rep.full_scans == ref_full.sum()
        if "4x4" in case:
            assert len(sizes) == 1 and 0 < bad.sum() < trials
            assert rep.full_scans >= rep.degraded_trials > 0
        truth = np.sort(s.target_angles)
        assert rep.degraded_trials == ref_bad.sum()
        assert rep.rmse == np.sqrt(np.mean([float(e @ e) for e in ref_est - truth]))
    if len(designs) > 1:
        # each report is the one its design gets from its own call
        for (s, res), rep in zip(designs, reps):
            assert _report_fields(monte_carlo(s, res, trials)) == _report_fields(rep)


def _report_fields(rep):
    return [np.asarray(value).tolist() for value in dataclasses.astuple(rep)]


@pytest.mark.parametrize("change", [{"seed": 2}, {"noise_power_dbm": -90.0}, {"snapshots": 32},
                                    {"num_rx": 6}, {"num_users": 3}, None])
def test_monte_carlo_sweep_rejects_mixed_or_empty_noise_keys(change, monkeypatch):
    # each key field (seed, M_R, N = K + M_T, L, noise power) in turn
    # differs between two designs, or the list is empty
    draws = []
    trial_noise = radar._trial_noise
    monkeypatch.setattr(radar, "_trial_noise",
                        lambda *args: draws.append(len(args[-1])) or trial_noise(*args))
    sizes = dict(num_tx=8, num_rx=8, num_users=2, snapshots=64)
    designs = []
    if change is not None:
        for s in (make_scenario(**sizes), make_scenario(**{**sizes, **change})):
            w = _random_beamformer(s, np.random.default_rng(0))
            designs.append((s, SimpleNamespace(w=w, rcrlb=0.0)))
    with pytest.raises(ValueError, match="one trial-noise key"):
        monte_carlo_sweep(designs, 3, radar.MUSIC_GRID_DEG)
    assert draws == []


@pytest.fixture(scope="module")
def paper_sweep():
    """The benchmark's sweep command: 0/10/20 dBm, sgcdf and omnidirectional."""
    return [(s, design.run(s, mode))
            for s in (make_scenario(power_budget_dbm=p) for p in (0.0, 10.0, 20.0))
            for mode in ("sgcdf", "omnidirectional")]


def _thread_starts(monkeypatch):
    """The threads started from now on, recorded as they start."""
    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_monte_carlo_sweep_is_independent_of_the_cpu_count(paper_sweep, monkeypatch):
    # the designs of a block run on min(CPUs, designs) threads, the
    # calling one included; every report keeps its bits, and the pool is
    # gone when the call returns
    reports, before, cpus_available = [], threading.active_count(), radar._cpus
    started = _thread_starts(monkeypatch)
    for cpus in (1, 2, 4, None):
        if cpus is None:
            # without the affinity call the count is os.cpu_count()
            monkeypatch.setattr(radar, "_cpus", cpus_available)
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            assert radar._cpus() == (os.cpu_count() or 1)
        else:
            monkeypatch.setattr(radar, "_cpus", lambda cpus=cpus: cpus)
        started.clear()
        reports.append([_report_fields(rep)
                        for rep in monte_carlo_sweep(paper_sweep, 40, radar.MUSIC_GRID_DEG)])
        # the first task starts a pool thread; a later task may go to a
        # pool thread already idle instead of a new one
        lanes = min(radar._cpus(), len(paper_sweep))
        assert (lanes > 1) <= len(started) <= lanes - 1
        assert threading.active_count() == before
    assert all(fields == reports[0] for fields in reports[1:])


def test_monte_carlo_of_one_design_starts_no_thread(mc_scenario, mc_design, monkeypatch):
    monkeypatch.setattr(radar, "_cpus", lambda: 4)
    started = _thread_starts(monkeypatch)
    rep = monte_carlo(mc_scenario, mc_design, 5, grid_deg=0.5)
    assert started == [] and rep.trials == 5


def test_thread_pool_module_loads_only_for_a_pool():
    # concurrent.futures loads logging: importing the package, a design
    # and a one-design Monte-Carlo need neither; a sweep of two designs
    # on two CPUs makes a pool and loads both
    code = """
import sys
import isacbeam
from isacbeam import design, radar
from isacbeam.scenario import make_scenario

def loaded():
    return sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules)

print(loaded())
radar._cpus = lambda: 2
s = make_scenario(num_tx=4, num_rx=4, num_users=1, target_angles_deg=(-40.0, 25.0),
                  target_ranges_m=(50.0, 60.0), snapshots=64, seed=3)
designs = [(s, design.run(s, mode)) for mode in ("sgcdf", "sensing_only")]
radar.monte_carlo(*designs[0], 3, 0.5)
print(loaded())
radar.monte_carlo_sweep(designs, 3, 0.5)
print(loaded())
"""
    src = str(Path(radar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines() == ["[]", "[]", "['concurrent.futures', 'logging']"]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_monte_carlo_sweep_raises_a_design_error_from_any_thread(cpus, monkeypatch):
    # one target on two receive antennas, then two: MUSIC needs T < M_R.
    # Whichever thread runs the second design, its ValueError propagates
    # and no thread outlives the call.
    monkeypatch.setattr(radar, "_cpus", lambda: cpus)
    designs = []
    for angles in ((20.0,), (20.0, -30.0), (20.0,)):
        s = make_scenario(num_tx=4, num_rx=2, num_users=0, target_angles_deg=angles,
                          target_ranges_m=(50.0,) * len(angles), seed=0)
        designs.append((s, SimpleNamespace(w=_identity_beamformer(s), rcrlb=0.0)))
    before = threading.active_count()
    with pytest.raises(ValueError, match="more receive antennas than targets"):
        monte_carlo_sweep(designs, 3, 0.5)
    assert threading.active_count() == before


def test_run_in_lanes_raises_a_helper_thread_error():
    # the calling thread's job waits until a pool thread has taken the
    # other job, which fails: its exception reaches the caller
    taken = threading.Event()
    main = threading.current_thread()

    def job():
        if threading.current_thread() is main:
            assert taken.wait(timeout=60)
        else:
            taken.set()
            raise KeyError("helper")

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(KeyError, match="helper"):
            radar._run_in_lanes([job, job], pool, 2)


def test_run_in_lanes_runs_each_job_once_under_contention():
    # more lanes than cores and a short switch interval: a job that the
    # shared queue lost or handed out twice would leave a count other than 1
    counts = [0] * 2000

    def job(i):
        counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(7) as pool:
            radar._run_in_lanes([functools.partial(job, i) for i in range(len(counts))], pool, 8)
    finally:
        sys.setswitchinterval(interval)
    assert counts == [1] * len(counts)


def _perfbench_tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _ThreadRecorder:
    """Stands in for the benchmark's Tracer: each wrapped call records
    its name and the thread it runs on."""

    def __init__(self):
        self.calls = []

    def wrap(self, name, func, _on_return=None):
        def recorded(*args, **kwargs):
            self.calls.append((name, threading.current_thread()))
            return func(*args, **kwargs)
        return recorded


def test_traced_functions_run_on_the_calling_thread(tmp_path, monkeypatch):
    # the benchmark's tracer keeps one span stack, so no public function
    # of a traced layer may run on a pool thread: there only the private
    # MUSIC helpers run
    monkeypatch.setattr(radar, "_cpus", lambda: 2)
    started = _thread_starts(monkeypatch)
    ini = tmp_path / "sweep.ini"
    ini.write_text("[experiment]\npower_grid_dbm = 0.0, 10.0, 20.0\ntrials = 40\n",
                   encoding="utf-8")
    recorder = _ThreadRecorder()
    with _perfbench_tracer().instrumented(recorder):
        assert cli.main(["sweep-power", "--config", str(ini), "--mode", "sgcdf,omnidirectional",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
    names = {name for name, _ in recorder.calls}
    assert {"cli.main", "design.run", "radar.monte_carlo_sweep", "crlb.fisher_matrix"} <= names
    assert {thread for _, thread in recorder.calls} == {threading.main_thread()}
    assert len(started) == 1


def test_monte_carlo_blocks_of_one_trial(mc_scenario, mc_design, monkeypatch):
    # a cap below one trial's working set still runs one trial per block
    monkeypatch.setattr(radar, "BLOCK_BYTES", 1)
    rep, blocks = _recorded_monte_carlo(monkeypatch, mc_scenario, mc_design, 3, 0.1)
    assert [len(covs) for covs, _, _ in blocks] == [1, 1, 1]
    est, bad, _ = one_trial_monte_carlo(mc_scenario, mc_design, 3, 0.1)
    assert np.array_equal(np.concatenate([e for _, e, _ in blocks]), est)
    assert rep.degraded_trials == bad.sum() == 0


def test_monte_carlo_memory_is_flat_in_trials():
    # a trial of the 32-element sweep works in about 140 kB (its draws, S,
    # T, their products and eigenvectors), so 1000 trials stacked at once
    # would need over 100 MB; in blocks the peak grows by the results
    # (estimates, errors and their squares, flags, squared sums: under
    # 128 B a trial at three targets) and at most one block's BLOCK_BYTES.
    # A sweep keeps every design's results to the end, and one noise
    # key's draws at a time: holding a key's draws for every block would
    # add over 70 kB a trial. The warm-up sweep runs every measured trial
    # of both calls (the single design is one of the sweep's), so the scan
    # plan's table chunks, a cache bounded by the grid, exist before the
    # measurement.
    single = make_scenario(power_budget_dbm=10.0)
    designs = [(s, design.run(s, mode))
               for s in (make_scenario(power_budget_dbm=p) for p in (0.0, 10.0, 20.0))
               for mode in ("sgcdf", "omnidirectional")]
    monte_carlo_sweep(designs, 1000, radar.MUSIC_GRID_DEG)

    def peak(run, trials):
        tracemalloc.start()
        try:
            run(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    res = design.run(single, "omnidirectional")
    sweep = functools.partial(monte_carlo_sweep, designs, grid_deg=radar.MUSIC_GRID_DEG)
    for run, count in ((functools.partial(monte_carlo, single, res), 1), (sweep, len(designs))):
        small, large = peak(run, 10), peak(run, 1000)
        assert large - small <= count * 1000 * 128 + radar.BLOCK_BYTES


# ---------------------------------------------------- two-level MUSIC scan

def _trial_covariances(scenario, mode, trials):
    gw = echo_channel(scenario) @ np.asarray(design.run(scenario, mode).w)
    return [echo_covariance(scenario, gw, substream(scenario.seed, "trial", i))
            for i in range(trials)]


def _cancellation_covariance():
    # noiseless, one target exactly on the 0.02 deg grid (see
    # test_music_noiseless_on_grid_target_keeps_denominator_nonnegative)
    s = _sensing_scenario(-300.0)
    gw = echo_channel(s) @ _identity_beamformer(s)
    return echo_covariance(s, gw, substream(0, "trial", 1))


@pytest.fixture(scope="module")
def scan_corpus():
    """(label, covariance, targets) of 209 seeded echoes."""
    corpus = []

    def add(label, scenario, mode, trials):
        t = scenario.num_targets
        corpus.extend((label, cov, t) for cov in _trial_covariances(scenario, mode, trials))

    # the benchmark's sweep: default 32 x 32 geometry, K = 6, three targets
    for p_dbm in (0.0, 10.0, 20.0):
        for mode in ("sgcdf", "omnidirectional"):
            add(f"paper {p_dbm} dBm {mode}", make_scenario(power_budget_dbm=p_dbm), mode, 16)
    # low power: 4 x 4 trials degrade, 32 x 32 ones flatten the spectrum
    add("paper -40 dBm", make_scenario(power_budget_dbm=-40.0), "omnidirectional", 16)
    add("4x4 -40 dBm", make_scenario(num_tx=4, num_rx=4, num_users=0,
                                     power_budget_dbm=-40.0), "omnidirectional", 16)
    for m in (4, 8, 64):
        add(f"{m}x{m}", make_scenario(num_tx=m, num_rx=m, num_users=2), "omnidirectional", 16)
    add("one target", _sensing_scenario(-96.0), "omnidirectional", 16)
    add("two targets", make_scenario(num_tx=8, num_rx=8, num_users=0,
                                     target_angles_deg=(-40.0, 25.0),
                                     target_ranges_m=(50.0, 60.0), snapshots=128),
        "omnidirectional", 16)
    corpus.append(("noiseless on-grid target", _cancellation_covariance(), 1))
    return corpus


# 0.07 deg gives 2573 points, a step of 180 / 2572 deg; at 0.5 deg every
# array here has a coarse stride below 8 grid steps
@pytest.mark.parametrize("grid_deg, fast_share", [(radar.MUSIC_GRID_DEG, 0.75), (0.07, 0.2),
                                                  (0.5, 0.0)])
def test_music_scan_matches_full_scan_bitwise(grid_deg, fast_share, scan_corpus):
    # every trial gets the bits of the scan of every grid column: the ones
    # the coarse level certifies (at least fast_share of them) and the
    # ones that keep the whole grid
    moved, certified, degraded = [], 0, 0
    for label, cov, t in scan_corpus:
        est, bad = full_scan(cov, t, grid_deg)
        angles, flags, uncertified = radar._music(cov[None], t, grid_deg)
        if not (np.array_equal(angles[0], est) and flags[0] == bad):
            moved.append(label)
        certified += not uncertified[0]
        degraded += bad
    assert moved == []
    assert len(scan_corpus) == 209
    assert certified >= fast_share * len(scan_corpus)
    assert degraded > 0


def test_music_takes_the_two_level_scan_on_the_paper_geometry():
    # leaving every trial uncertified would keep every bit and lose the time
    for p_dbm in (0.0, 10.0, 20.0):
        s = make_scenario(power_budget_dbm=p_dbm)
        rep = monte_carlo(s, design.run(s, "sgcdf"), 8)
        assert rep.degraded_trials == rep.full_scans == 0
    # the report counts the uncertified trials: every degraded trial is one
    s = make_scenario(num_tx=4, num_rx=4, num_users=0, power_budget_dbm=-40.0)
    res = design.run(s, "omnidirectional")
    rep = monte_carlo(s, res, 16)
    uncertified = one_trial_monte_carlo(s, res, 16, radar.MUSIC_GRID_DEG)[2]
    assert rep.full_scans == uncertified.sum() >= rep.degraded_trials > 0


def _fallback_case(case):
    """(covariance, targets, grid step) of a trial at an edge of the
    two-level scan: one the coarse level cannot certify (the first three
    cases), or one whose fine level meets the grid end, tied minima or a
    cancelled denominator."""
    if case == "coarse grid":
        # 32 elements: 1 / (4 M_R) rad is 0.45 deg, under 8 steps of 0.5 deg
        s = make_scenario(power_budget_dbm=10.0)
        return _trial_covariances(s, "omnidirectional", 1)[0], 3, 0.5
    if case == "one-point grid":
        # a step above 360 deg leaves the single point -90 deg
        return np.eye(4), 1, 400.0
    if case == "degraded":
        # fewer than T coarse minima: 4 elements, three targets, -40 dBm
        s = make_scenario(num_tx=4, num_rx=4, num_users=0, power_budget_dbm=-40.0)
        covs = _trial_covariances(s, "omnidirectional", 16)
        cov = next(c for c in covs if full_scan(c, 3, radar.MUSIC_GRID_DEG)[1])
        return cov, 3, radar.MUSIC_GRID_DEG
    if case == "grid end":
        # the kept intervals reach the grid's last column (+90 deg)
        s = make_scenario(num_users=0, target_angles_deg=(89.9,), target_ranges_m=(50.0,))
        return _trial_covariances(s, "omnidirectional", 1)[0], 1, radar.MUSIC_GRID_DEG
    if case == "tied minima":
        # sources at +-20 deg with conjugate amplitudes: a real covariance,
        # whose nulls at +-20 deg are equal to the last bit
        a = steering(np.deg2rad(20.0), 32)
        cov = np.outer(a, a.conj())
        return cov + cov.conj() + 0.01 * np.eye(32), 1, radar.MUSIC_GRID_DEG
    # the signal-subspace form cancels, and the fine level re-evaluates it
    return _cancellation_covariance(), 1, radar.MUSIC_GRID_DEG


@pytest.mark.parametrize("case", ["coarse grid", "one-point grid", "degraded", "grid end",
                                  "cancellation", "tied minima"])
def test_music_falls_back_to_the_full_scan(case):
    # an uncertified trial scans every grid column in the fine level, and
    # the other cases resolve there in place; all get the full scan's bits
    cov, t, grid_deg = _fallback_case(case)
    ref_est, ref_bad = full_scan(cov, t, grid_deg)
    est, bad = music_estimate(cov, t, grid_deg)
    assert np.array_equal(est, ref_est) and bad == ref_bad
    assert bad == (case in ("one-point grid", "degraded"))
    uncertified = radar._music(np.asarray(cov)[None], t, grid_deg)[2]
    assert uncertified.tolist() == [case in ("coarse grid", "one-point grid", "degraded")]
    if case == "tied minima":
        # the lower grid column of the two mirror-image nulls
        assert est[0] < 0.0


def test_music_ranks_tied_minima_by_column(monkeypatch):
    # a denominator with 63 equal minima and one deeper: numpy's default
    # argsort puts the equal ones out of column order, and the fine level
    # must take the deepest, then the lowest columns. On a fake 4-element
    # grid the coefficients (c_0 = 0, a_1 = 1) pick the table's first
    # row, so d is that row exactly.
    theta_deg = np.arange(128.0)
    table = np.zeros((6, 128))
    d = table[0]
    d[:] = 1.0
    d[1:127:2] = 0.5
    d[101] = 0.25
    plan = SimpleNamespace(tables=lambda lo, hi: [table[:, lo:hi]])
    monkeypatch.setattr(radar, "_grid", lambda m, grid_deg: plan)
    monkeypatch.setattr(radar, "_degree_grid", lambda grid_deg: theta_deg)
    vecs = np.eye(4, dtype=complex)[None]
    coeffs = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    groups = np.ones((1, 16), dtype=bool)
    angles, degraded = radar._fine_level(vecs, coeffs, 3, groups, 1.0)
    assert np.array_equal(angles[0], np.deg2rad([1.0, 3.0, 101.0])) and not degraded[0]


def _assert_stack_matches_one_trial(covs, t, grid_deg):
    """``radar._music`` of a stack against each covariance alone: the
    full scan's angles and degraded flags, bit for bit, and the same
    uncertified flags. Returns the uncertified flags."""
    angles, degraded, full = radar._music(np.stack(covs), t, grid_deg)
    for i, cov in enumerate(covs):
        ref_angles, ref_bad, ref_full = one_trial_music(cov, t, grid_deg)
        assert np.array_equal(angles[i], ref_angles), i
        assert (degraded[i], full[i]) == (ref_bad, ref_full), i
    return full


@pytest.mark.parametrize("grid_deg", [radar.MUSIC_GRID_DEG, 0.07, 0.5])
def test_music_stacks_match_one_trial_bitwise(grid_deg, scan_corpus):
    # the corpus in stacks of up to 16 trials of one (M_R, T), the block
    # size of the benchmark's sweep; each stack shares one fine level
    by_shape = {}
    for _, cov, t in scan_corpus:
        by_shape.setdefault((len(cov), t), []).append(cov)
    full = []
    for (_, t), covs in by_shape.items():
        for lo in range(0, len(covs), 16):
            full.extend(_assert_stack_matches_one_trial(covs[lo:lo + 16], t, grid_deg))
    # at 0.5 deg no array here has a coarse level, so every trial keeps
    # the whole grid
    assert 0 < sum(full) <= len(full) and (sum(full) == len(full)) == (grid_deg == 0.5)


@pytest.mark.parametrize("case, normal", [
    ("degraded", "4x4 -40 dBm"), ("grid end", "32x32 one target"),
    ("tied minima", "32x32 one target"), ("cancellation", "8x8 one target")])
def test_music_stacks_with_fallbacks_match_one_trial_bitwise(case, normal):
    # an edge case in every position of a stack of six certified trials:
    # the union of the stack's columns changes no trial's result
    cov, t, grid_deg = _fallback_case(case)
    scenario = {"4x4 -40 dBm": make_scenario(num_tx=4, num_rx=4, num_users=0,
                                             power_budget_dbm=-40.0),
                "32x32 one target": make_scenario(num_users=0, target_angles_deg=(10.0,),
                                                  target_ranges_m=(50.0,)),
                "8x8 one target": _sensing_scenario(-96.0)}[normal]
    covs = [c for c in _trial_covariances(scenario, "omnidirectional", 80)
            if not one_trial_music(c, t, grid_deg)[2]][:6]
    assert len(covs) == 6
    for i in range(7):
        full = _assert_stack_matches_one_trial(covs[:i] + [cov] + covs[i:], t, grid_deg)
        assert full.tolist() == [False] * i + [case == "degraded"] + [False] * (6 - i)


def test_music_fine_level_runs_once_per_block_on_the_paper_geometry(paper_sweep, monkeypatch):
    # a silent return to per-trial fine products would keep every bit and
    # lose the time: each block makes one coarse product and one stacked
    # fine product per union span, far fewer than its trials. Two CPUs
    # on any host: the designs of a block run on two threads, and each
    # thread counts its own calls.
    monkeypatch.setattr(radar, "_cpus", lambda: 2)
    lane, per_block = threading.local(), []
    denominators, music = radar._denominators, radar._music

    def counting_denominators(coeffs, table):
        lane.calls.append(len(coeffs))
        return denominators(coeffs, table)

    def counting_music(covs, num_targets, grid_deg):
        lane.calls = []
        out = music(covs, num_targets, grid_deg)
        per_block.append((len(covs), lane.calls))
        return out

    monkeypatch.setattr(radar, "_denominators", counting_denominators)
    monkeypatch.setattr(radar, "_music", counting_music)
    reps = monte_carlo_sweep(paper_sweep, 40, radar.MUSIC_GRID_DEG)
    assert all(rep.full_scans == 0 for rep in reps)
    assert [size for size, _ in per_block] == [26] * 6 + [14] * 6
    for size, stacks in per_block:
        # the coarse product, then each union span with every trial stacked
        assert stacks[0] == size and set(stacks[1:]) == {size}
        assert len(stacks) - 1 < size


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 40), st.integers(1, 200), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_stacks_match_the_accumulated_union_loop(trials, num_groups, density, seed):
    # one pass over the trials cuts the stacks that forming the running
    # union of every remaining trial, stack after stack, cuts
    rng = np.random.default_rng(seed)
    groups = rng.random((trials, num_groups)) < density
    for cap in (0, 8, 8 * num_groups, int(rng.integers(1, 8 * num_groups * max(trials, 1) + 1))):
        assert list(radar._stacks(groups, cap)) == accumulated_stacks(groups, cap)


@pytest.mark.parametrize("s, mode, trials, min_stacks", [
    # 8 x 8 at -30 dBm: a block of 64 trials cut into 47 stacks
    (make_scenario(num_tx=8, num_rx=8, num_users=2, power_budget_dbm=-30.0),
     "omnidirectional", 64, 40),
    # the paper geometry at 0 dBm: 16 trials, one block and one stack
    (make_scenario(power_budget_dbm=0.0), "sgcdf", 16, 1),
])
def test_stacks_keep_the_monte_carlo_bits(monkeypatch, s, mode, trials, min_stacks):
    res = design.run(s, mode)
    assert radar._block_trials(s.num_rx, np.shape(res.w)[1], s.num_targets,
                               radar.MUSIC_GRID_DEG, 1) >= trials
    cut, stacks = [], radar._stacks

    def recorded(groups, cap):
        cut.append(list(stacks(groups, cap)))
        assert cut[-1] == accumulated_stacks(groups, cap)
        return cut[-1]

    monkeypatch.setattr(radar, "_stacks", recorded)
    rep = monte_carlo(s, res, trials)
    assert len(cut) == 1 and len(cut[0]) >= min_stacks
    monkeypatch.setattr(radar, "_stacks", accumulated_stacks)
    assert _report_fields(monte_carlo(s, res, trials)) == _report_fields(rep)


def test_music_fine_level_memory_stays_within_a_block():
    # at -30 dBm, omnidirectional, a trial keeps 224-848 of the 9,001
    # columns and the block's 29 trials 6,848 together; one stack over that
    # union peaks at about 5.0 MB, so the fine level runs in stacks of trials
    # whose count times union width fits the coarse product. At 64
    # elements and 0.07 deg, w < 8 and every trial keeps the whole grid,
    # so the stacks are capped by the padded grid's width instead. The
    # warm-up runs the measured trials, so the scan plan's table chunks, a
    # cache bounded by the grid, exist before the measurement.
    for s, grid_deg, uncertified in ((make_scenario(power_budget_dbm=-30.0),
                                      radar.MUSIC_GRID_DEG, False),
                                     (make_scenario(num_tx=64, num_rx=64, num_users=2), 0.07,
                                      True)):
        res = design.run(s, "omnidirectional")
        block = radar._block_trials(s.num_rx, np.shape(res.w)[1], s.num_targets, grid_deg, 1)
        monte_carlo(s, res, block, grid_deg)
        tracemalloc.start()
        try:
            rep = monte_carlo(s, res, block, grid_deg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.full_scans == (block if uncertified else 0)
        assert peak <= radar.BLOCK_BYTES


@pytest.mark.parametrize("cpus, block", [(2, 26), (4, 15)])
def test_monte_carlo_sweep_memory_stays_within_a_block_across_threads(cpus, block, paper_sweep,
                                                                      monkeypatch):
    # a block counts the working set of every design in flight, so the
    # benchmark's sweep of 40 trials on 2 or 4 threads keeps all of them
    # together within BLOCK_BYTES; the warm-up runs the measured trials,
    # so the scan plan's table chunks exist before the measurement
    monkeypatch.setattr(radar, "_cpus", lambda: cpus)
    s, res = paper_sweep[0]
    assert radar._block_trials(s.num_rx, np.shape(res.w)[1], s.num_targets,
                               radar.MUSIC_GRID_DEG, cpus) == block
    monte_carlo_sweep(paper_sweep, 40, radar.MUSIC_GRID_DEG)
    tracemalloc.start()
    try:
        monte_carlo_sweep(paper_sweep, 40, radar.MUSIC_GRID_DEG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= radar.BLOCK_BYTES


def test_music_fine_level_stacks_stay_within_the_coarse_level(monkeypatch):
    # at -30 to -50 dBm a 32-element trial's kept union is far wider than
    # its share of the coarse columns, so the 29 trials of a block run in
    # stacks (5 here), each of whose working arrays is within a small
    # multiple of the coarse level's 29 x 564 values. One stack of all 29
    # trials peaks at about 38 times those values. The warm-up runs the
    # measured trials, so the scan plan's table chunks exist before the
    # measurement.
    fine = radar._fine_level
    peaks = []

    def measured(vecs, *args):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fine(vecs, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(radar, "_fine_level", measured)
    coarse = 29 * radar._grid(32, radar.MUSIC_GRID_DEG).coarse.shape[1] * 8
    for dbm in (-30.0, -40.0, -50.0):
        s = make_scenario(power_budget_dbm=dbm)
        res = design.run(s, "omnidirectional")
        assert radar._block_trials(32, np.shape(res.w)[1], s.num_targets,
                                   radar.MUSIC_GRID_DEG, 1) == 29
        monte_carlo(s, res, 29)
        peaks.clear()
        tracemalloc.start()
        try:
            rep = monte_carlo(s, res, 29)
        finally:
            tracemalloc.stop()
        assert rep.full_scans == 0 and len(peaks) > 1
        assert max(peaks) <= 8 * coarse


def _table_bytes(plan):
    """Bytes of the table columns that a scan plan holds: its coarse
    columns and every chunk it has published."""
    coarse = 0 if plan.coarse is None else plan.coarse.nbytes
    return coarse + sum(chunk.nbytes for chunk in plan.chunks.values())


def test_music_grid_pads_in_place():
    # 32 elements at 0.02 deg: sin theta on the 9,001 grid points is padded
    # with NaN to 9,008, whole 8-column groups, so the denominator is NaN
    # at a pad. A table of plan columns (here the whole 62 x 9,008 grid,
    # 4.47 MB) is built in place: the phases are written into the sine rows
    # and turned into cosines and sines there, so its build peaks within 5%
    # of the table (1.8 kB over it measured), where a second table would
    # double it. Its values are the steering vectors' real and imaginary
    # parts, and the whole grid's reference table is that build's bits.
    plan = radar._grid(32, radar.MUSIC_GRID_DEG)
    theta_deg, table = grid_table(32, radar.MUSIC_GRID_DEG)
    points = theta_deg.size
    assert points == 9001 and plan.sin.size == table.shape[1] == 9008
    assert np.isnan(plan.sin[points:]).all() and np.isfinite(plan.sin[:points]).all()
    tracemalloc.start()
    try:
        built = radar._table(32, plan.sin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.shape == (62, 9008) and peak <= 1.05 * built.nbytes
    assert np.array_equal(built, table, equal_nan=True)
    assert np.isnan(table[:, points:]).all() and np.isfinite(table[:, :points]).all()
    a = steering(np.deg2rad(theta_deg), 32)[1:]
    assert np.allclose(table[:31, :points], a.real, rtol=0.0, atol=1e-12)
    assert np.allclose(table[31:, :points], a.imag, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("grid_deg, stride", [(radar.MUSIC_GRID_DEG, 16), (0.1, 0)])
def test_music_scan_plan_is_one_read_only_record(grid_deg, stride):
    # 32 elements: 1 / (4 M_R) rad is 0.45 deg, 22 steps of 0.02 deg but
    # under 8 steps of 0.1 deg, which leaves no coarse level. At 0.02 deg
    # the whole 62 x 9,008 table would take 4.47 MB; the plan keeps sin
    # theta on the padded grid (72 kB) and the 564 coarse columns
    # (0.28 MB), and its build, with the grid in degrees and the ufunc's
    # buffers, allocates at most twice that (0.56 MB) and a few small
    # Python objects.
    radar._grid.cache_clear()
    tracemalloc.start()
    try:
        plan = radar._grid(32, grid_deg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    theta_deg, table = grid_table(32, grid_deg)
    points = theta_deg.size
    assert plan.stride == stride and plan.chunks == {}
    assert plan.sin.size == table.shape[1] == points + -points % 8
    assert peak <= 2 * (plan.sin.nbytes + _table_bytes(plan)) + 4096
    if stride:
        cols = np.append(np.arange(0, points - 1, stride), points - 1)
        assert np.array_equal(plan.coarse, table[:, cols])
        assert plan.coarse_width == cols.size == 564
    else:
        assert plan.coarse is None and plan.coarse_width == plan.sin.size
    for x in (plan.sin, plan.coarse):
        if x is not None:
            with pytest.raises(ValueError, match="read-only"):
                x[..., 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.stride = 8
    # a noiseless three-target subspace: certified with a coarse level,
    # and with none every group kept and no trial certified
    basis = np.linalg.qr(steering(np.deg2rad([-45.0, 30.0, 60.0]), 32))[0]
    groups, certified = radar._kept_groups(radar._coefficients(basis[None]), 3, grid_deg)
    assert groups.shape == (1, plan.sin.size // 8)
    assert groups.all() == (not stride) and certified.tolist() == [bool(stride)]


@pytest.mark.parametrize("grid_deg, limit", [(radar.MUSIC_GRID_DEG, 1e6), (0.001, 4e6)])
def test_music_scan_plan_holds_the_columns_scans_read(grid_deg, limit, paper_sweep):
    # after the benchmark's sweep of 40 trials the plan's table columns
    # take 0.66 MB at 0.02 deg and 3.4 MB at 0.001 deg, where the whole
    # table would take 4.47 MB and 89 MB; besides them the plan keeps sin
    # theta, 8 bytes a grid point. Every published chunk is read-only.
    radar._grid.cache_clear()
    monte_carlo_sweep(paper_sweep, 40, grid_deg)
    plan = radar._grid(32, grid_deg)
    assert 0 < len(plan.chunks) < plan.sin.size / radar._CHUNK / 2
    assert _table_bytes(plan) <= limit
    for chunk in plan.chunks.values():
        with pytest.raises(ValueError, match="read-only"):
            chunk[0, 0] = 0.0


@pytest.mark.parametrize("m, grid_deg", [(32, radar.MUSIC_GRID_DEG), (32, 0.1),
                                         (8, radar.MUSIC_GRID_DEG), (16, 0.001)])
def test_music_scan_plan_chunks_match_the_whole_table_bitwise(m, grid_deg):
    # every chunk that scans publish has the bits of the whole grid's
    # table, the last one's pads included, whatever its width: numpy's
    # SIMD cos and sin must not depend on the slice length. A target at
    # -89.99 deg nulls the denominator at both ends of the grid (the
    # steering vector is 2-periodic in sin theta), so the scans read the
    # first and the last chunk; at 0.1 deg w < 8 and they read every one.
    radar._grid.cache_clear()
    a = steering(np.deg2rad([-89.99, -20.0, 35.0]), m)
    covs = np.stack([a @ np.diag([1.0, p, 2.0 - p]) @ a.conj().T + 0.01 * np.eye(m)
                     for p in (0.5, 1.0, 1.5)])
    radar._music(covs, 3, grid_deg)
    plan = radar._grid(m, grid_deg)
    table = grid_table(m, grid_deg)[1]
    last = (table.shape[1] - 1) // radar._CHUNK
    assert {0, last} <= plan.chunks.keys()
    assert (len(plan.chunks) == last + 1) == (grid_deg == 0.1)
    for i, chunk in plan.chunks.items():
        lo = i * radar._CHUNK
        assert chunk.shape[1] == min(radar._CHUNK, table.shape[1] - lo)
        assert np.array_equal(chunk, table[:, lo:lo + chunk.shape[1]], equal_nan=True)


def test_music_scan_plan_fills_from_both_lanes_with_one_array_per_chunk(paper_sweep,
                                                                       monkeypatch):
    # two designs scan a fresh plan on two lanes at once, and their first
    # block's designs wait for each other, so both lanes run: every fine
    # product reads a slice of the one chunk published for its index, and
    # the estimates keep the one-lane bits
    designs = paper_sweep[:2]
    monkeypatch.setattr(radar, "_cpus", lambda: 1)
    one_lane = [_report_fields(rep) for rep in monte_carlo_sweep(designs, 40,
                                                                  radar.MUSIC_GRID_DEG)]
    radar._grid.cache_clear()
    monkeypatch.setattr(radar, "_cpus", lambda: 2)
    meet, met, reads = threading.Barrier(2, timeout=60), set(), []
    music, denominators = radar._music, radar._denominators

    def meeting_music(covs, num_targets, grid_deg):
        if threading.current_thread() not in met:
            met.add(threading.current_thread())
            meet.wait()
        return music(covs, num_targets, grid_deg)

    def reading_denominators(coeffs, table):
        reads.append((threading.current_thread(), table))
        return denominators(coeffs, table)

    monkeypatch.setattr(radar, "_music", meeting_music)
    monkeypatch.setattr(radar, "_denominators", reading_denominators)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reps = monte_carlo_sweep(designs, 40, radar.MUSIC_GRID_DEG)
    finally:
        sys.setswitchinterval(interval)
    assert [_report_fields(rep) for rep in reps] == one_lane
    plan = radar._grid(32, radar.MUSIC_GRID_DEG)
    fine = [(thread, table.base) for thread, table in reads if table is not plan.coarse]
    assert len(met) == len({thread for thread, _ in fine}) == 2
    assert {id(base) for _, base in fine} == {id(chunk) for chunk in plan.chunks.values()}


def test_music_scan_plan_publishes_each_chunk_once_under_contention():
    # eight threads read every chunk of a fresh plan at once, with a short
    # switch interval: a chunk published twice would hand two threads
    # different arrays for one index
    radar._grid.cache_clear()
    plan = radar._grid(16, radar.MUSIC_GRID_DEG)
    start = threading.Barrier(8, timeout=60)

    def read():
        start.wait()
        return [table.base for table in plan.tables(0, plan.sin.size)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            seen = [task.result(timeout=60) for task in [pool.submit(read) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    published = [plan.chunks[i] for i in range(-(-plan.sin.size // radar._CHUNK))]
    assert len(plan.chunks) == len(published)
    for bases in seen:
        assert len(bases) == len(published)
        assert all(base is chunk for base, chunk in zip(bases, published))


def _signal_basis(data, m):
    """An orthonormal M_R x T signal basis drawn by hypothesis: random,
    or orthonormalised steering vectors (a noiseless echo's subspace)."""
    t = data.draw(st.integers(1, min(m - 1, 6)), label="targets")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="steered"):
        z = steering(rng.uniform(-np.pi / 2, np.pi / 2, t), m)
    else:
        z = rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t))
    return np.linalg.qr(z)[0]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 64), data=st.data())
def test_coefficients_match_the_steering_vector_denominator(m, data):
    # the trigonometric polynomial of the coefficients, on the plan's
    # table, against ||a||^2 - ||E_s^H a||^2 from steering vectors
    basis = _signal_basis(data, m)
    theta_deg, table = grid_table(m, 0.25)
    d = radar._denominators(radar._coefficients(basis[None]), table)[0, : theta_deg.size]
    ref = steering_denominator(basis, np.deg2rad(theta_deg))
    assert np.max(np.abs(d - ref)) <= 1e-12 * m


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 64), data=st.data())
def test_interval_floors_bound_the_fine_denominator(m, data):
    # random orthonormal signal bases, or orthonormalised steering vectors
    # (a noiseless echo's subspace); the bound is loose, so this catches a
    # curvature bound several times too small
    basis = _signal_basis(data, m)
    coeffs = radar._coefficients(basis[None])
    w = radar._grid(m, radar.MUSIC_GRID_DEG).stride
    theta_deg, table = grid_table(m, radar.MUSIC_GRID_DEG)
    d = radar._denominators(coeffs, table)[0, : theta_deg.size]
    ends = np.append(np.arange(0, d.size - 1, w), d.size - 1)
    step = theta_deg[1] - theta_deg[0]
    floors = radar._interval_floors(coeffs[0], d[ends], np.deg2rad(w * step))
    # fine minimum over [ends[j], ends[j + 1]); each right end is an end too
    assert np.all(np.minimum.reduceat(d, ends[:-1]) >= floors - 1e-9 * m)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 64), data=st.data())
def test_coefficient_curvature_never_exceeds_the_magnitude_bound(m, data):
    # the lag form sums (m - n)^2 where the magnitude bound sums
    # (m + n)^2, so no trial keeps more fine columns than under it; over
    # 3,000 bases drawn like these the largest ratio was 0.65. With zero
    # ends and h^2 = 8 the floor is -C.
    basis = _signal_basis(data, m)
    curv = -radar._interval_floors(radar._coefficients(basis[None])[0], np.zeros(2),
                                   np.sqrt(8.0))[0]
    assert 0.0 <= curv <= magnitude_curvature(basis) * (1.0 + 1e-12)
