"""Echo synthesis, MUSIC estimation, and the Monte-Carlo harness."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from isacbeam import design, radar
from isacbeam.arrays import steering, steering_matrix, target_channel
from isacbeam.radar import (
    EchoBatch,
    echo_channel,
    echo_covariance,
    monte_carlo,
    music_estimate,
    synthesize_echo,
    synthesize_probe,
    synthesize_waveform,
)
from isacbeam.scenario import make_scenario, substream


def _sensing_scenario(noise_dbm, angles=(20.0,), ranges=(50.0,), snapshots=256):
    return make_scenario(num_tx=8, num_rx=8, num_users=0,
                         target_angles_deg=angles, target_ranges_m=ranges,
                         noise_power_dbm=noise_dbm, snapshots=snapshots,
                         seed=0)


def _identity_beamformer(scenario):
    mt = scenario.array.num_tx
    return np.sqrt(scenario.power_budget / mt) * np.eye(mt, dtype=complex)


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
    echo = synthesize_echo(s, x, np.random.default_rng(1))
    a = steering(s.targets[0].angle, 8)
    proj = np.outer(a, a.conj()) / 8.0
    resid = echo.received - proj @ echo.received
    ratio = np.linalg.norm(resid) / np.linalg.norm(echo.received)
    assert ratio <= 1e-10


def test_echo_rejects_wrong_waveform_height():
    s = _sensing_scenario(-96.0)
    with pytest.raises(ValueError):
        synthesize_echo(s, np.zeros((5, 64)), np.random.default_rng(0))


def test_echo_noise_second_moment():
    s = _sensing_scenario(-96.0, snapshots=1024)
    x = synthesize_waveform(_identity_beamformer(s), 1024,
                            np.random.default_rng(3))
    echo = synthesize_echo(s, x, np.random.default_rng(3))
    channel = sum(tg.rcs * target_channel(tg.angle, s.array)
                  for tg in s.targets)
    noise = echo.received - channel @ echo.transmitted
    measured = np.mean(np.abs(noise) ** 2)
    assert measured == pytest.approx(s.noise_power, rel=0.03)


def test_echoes_superpose_over_targets():
    # -2000 dBm noise is ~1e-203 W, far below any signal term, so the
    # three separately drawn noise realizations cannot mask linearity
    s_ab = make_scenario(num_tx=8, num_rx=8, num_users=0,
                         target_angles_deg=(-40.0, 25.0),
                         target_ranges_m=(50.0, 60.0),
                         noise_power_dbm=-2000.0, snapshots=64, seed=0)
    s_a = dataclasses.replace(s_ab, targets=(s_ab.targets[0],))
    s_b = dataclasses.replace(s_ab, targets=(s_ab.targets[1],))
    x = synthesize_waveform(_identity_beamformer(s_ab), 64,
                            np.random.default_rng(4))
    rec = {}
    for label, s in (("ab", s_ab), ("a", s_a), ("b", s_b)):
        rec[label] = synthesize_echo(s, x, np.random.default_rng(5)).received
    assert np.allclose(rec["ab"], rec["a"] + rec["b"],
                       rtol=1e-10, atol=1e-20)


# ----------------------------------------------------------------- MUSIC

def test_music_noiseless_single_target():
    s = _sensing_scenario(-300.0)
    x = synthesize_waveform(_identity_beamformer(s), s.snapshots,
                            np.random.default_rng(2))
    echo = synthesize_echo(s, x, np.random.default_rng(2))
    est, degraded = music_estimate(echo.covariance, 1)
    assert not degraded
    assert est.shape == (1,)
    assert abs(np.rad2deg(est[0]) - 20.0) <= 0.05


def test_music_resolves_three_targets_from_a_design_echo():
    s = make_scenario(num_tx=16, num_rx=16, num_users=4,
                      snapshots=256, seed=1)
    res = design.run(s, "sgcdf")
    rng = substream(1, "trial", 0)
    x = synthesize_waveform(res.w, s.snapshots, rng)
    echo = synthesize_echo(s, x, rng)
    est, degraded = music_estimate(echo.covariance, 3)
    assert not degraded
    truth = np.sort(s.target_angles())
    assert np.max(np.abs(np.rad2deg(est - truth))) <= 1.0


def test_music_repeats_strongest_peak_when_short():
    # a single endfire source on a 45-degree grid: the endpoint maxima
    # never count as peaks, leaving one interior peak at broadside for
    # two requested targets, so the strongest is repeated and flagged
    y = np.tile(2.0 * steering(np.deg2rad(90.0), 4)[:, None], (1, 8))
    echo = EchoBatch(received=y, transmitted=np.zeros((4, 8)), noise_power=1.0)
    est, degraded = music_estimate(echo.covariance, 2, grid_deg=45.0)
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


# samples from a few levels, so flat tops, edge runs and runs of inf occur often
_levels = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(x=st.lists(st.one_of(_levels, st.floats(allow_nan=False)), max_size=40))
def test_local_maxima_match_scipy_find_peaks(x):
    x = np.array(x, dtype=float)
    idx = radar._local_maxima(x)
    assert np.array_equal(idx, find_peaks(x)[0])
    assert np.array_equal(idx[x[idx] >= 0.0], find_peaks(x, height=0.0)[0])


def test_music_rejects_too_many_targets():
    echo = EchoBatch(received=np.eye(4, dtype=complex),
                     transmitted=np.eye(4, dtype=complex), noise_power=1.0)
    with pytest.raises(ValueError, match="more receive antennas"):
        music_estimate(echo.covariance, 4)


def test_music_rejects_non_covariance_input():
    echo = EchoBatch(received=np.eye(4, 8, dtype=complex),
                     transmitted=np.eye(4, 8, dtype=complex), noise_power=1.0)
    for bad in (echo, echo.received, np.ones(4)):
        with pytest.raises(ValueError, match="square"):
            music_estimate(bad, 1)


def test_music_noiseless_on_grid_target_keeps_denominator_nonnegative():
    # at a noiseless target exactly on the grid, ||a||^2 - ||E_s^H a||^2
    # cancels to rounding (on this draw to 1.8e-15; on others it can fall
    # below zero); those columns fall back to the noise subspace
    s = _sensing_scenario(-300.0)
    gw = echo_channel(s) @ _identity_beamformer(s)
    cov = echo_covariance(s, gw, substream(0, "trial", 1))
    theta_deg, denom = radar._music_denominator(cov, 1, radar.MUSIC_GRID_DEG)
    i = int(np.argmin(np.abs(theta_deg - 20.0)))
    assert theta_deg[i] == pytest.approx(20.0, abs=1e-9)
    _, a, a_norm2 = radar._grid(8, radar.MUSIC_GRID_DEG)
    _, vecs = np.linalg.eigh(cov)
    signal_form = a_norm2[i] - np.linalg.norm(vecs[:, -1:].conj().T @ a[:, i]) ** 2
    assert abs(signal_form) < radar.CANCEL_TOL * 8
    assert np.all(denom >= 0.0)
    assert np.argmin(denom) == i
    est, degraded = music_estimate(cov, 1)
    assert not degraded
    assert abs(np.rad2deg(est[0]) - 20.0) <= radar.MUSIC_GRID_DEG


# ------------------------------------------------- covariance-domain echo

def _random_beamformer(scenario, rng):
    mt = scenario.array.num_tx
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
    ref = np.array([synthesize_echo(s, synthesize_waveform(w, snapshots, rng), rng).covariance
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


def test_echo_covariance_rejects_bad_sizes():
    s = _sensing_scenario(-96.0, snapshots=6)
    with pytest.raises(ValueError):
        echo_covariance(s, np.ones((5, 8)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        echo_covariance(s, np.ones((8, 8)), np.random.default_rng(0))


# ----------------------------------------------------------- monte carlo

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


@functools.lru_cache(maxsize=2)
def _reference_grid(m, grid_deg):
    theta_deg = np.linspace(-90.0, 90.0, int(round(180.0 / grid_deg)) + 1)
    a = np.exp(1j * np.pi * np.outer(np.arange(m), np.sin(np.deg2rad(theta_deg))))
    return theta_deg, a


def _reference_music(cov, num_targets, grid_deg):
    """MUSIC on the noise-subspace denominator ||E_n^H a||^2."""
    m = cov.shape[0]
    _, vecs = np.linalg.eigh(cov)
    theta_deg, a = _reference_grid(m, grid_deg)
    denom = (np.abs(vecs[:, : m - num_targets].conj().T @ a) ** 2).sum(axis=0)
    return radar._pick_peaks(theta_deg, denom, num_targets)


def _reference_trial(scenario, w, num_targets, grid_deg, rng):
    """Explicit frame, then the noise-subspace MUSIC reference."""
    cov = synthesize_echo(scenario, synthesize_waveform(w, scenario.snapshots, rng),
                          rng).covariance
    return _reference_music(cov, num_targets, grid_deg)


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
    seen = []

    def recording(cov, num_targets, grid_deg):
        out = music_estimate(cov, num_targets, grid_deg)
        seen.append((cov, out))
        return out

    monkeypatch.setattr(radar, "music_estimate", recording)
    trials = 6
    rep = monte_carlo(s, res, trials, grid_deg=grid_deg)
    t = len(s.targets)
    assert len(seen) == trials
    ref = [_reference_music(cov, t, grid_deg) for cov, _ in seen]
    for (_, (est, bad)), (ref_est, ref_bad) in zip(seen, ref):
        assert bad == ref_bad
        assert np.max(np.abs(est - ref_est)) <= 1e-12
    assert rep.degraded_trials == sum(bad for _, bad in ref)
    truth = np.sort(s.target_angles())
    sq = [float((est - truth) @ (est - truth)) for est, _ in ref]
    assert rep.rmse == pytest.approx(np.sqrt(np.mean(sq)), rel=1e-9)


def test_monte_carlo_rmse_matches_explicit_frame(mc_scenario, mc_design):
    # same law, different draws: with 1000 trials per side the RMSE ratio
    # has a standard error of about 2%, so 10% is ~4.5 of them
    trials, grid_deg = 1000, 0.1
    rep = monte_carlo(mc_scenario, mc_design, trials, grid_deg=grid_deg)
    truth = np.sort(mc_scenario.target_angles())
    sq, degraded = [], 0
    for i in range(trials):
        est, bad = _reference_trial(mc_scenario, mc_design.w, truth.size, grid_deg,
                                    substream(mc_scenario.seed, "reference", i))
        sq.append(float((est - truth) @ (est - truth)))
        degraded += bad
    assert rep.degraded_trials == degraded == 0
    assert rep.rmse == pytest.approx(np.sqrt(np.mean(sq)), rel=0.1)


def test_monte_carlo_rejects_zero_trials(mc_scenario, mc_design):
    with pytest.raises(ValueError):
        monte_carlo(mc_scenario, mc_design, 0)


# ---------------------------------------------------- two-level MUSIC scan

def _full_scan_estimate(cov, num_targets, grid_deg):
    """The full scan that the two-level scan falls back to: every grid
    column, then the peak picker."""
    theta_deg, denom = radar._music_denominator(cov, num_targets, grid_deg)
    return radar._pick_peaks(theta_deg, denom, num_targets)


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
    """(label, eigenvectors, targets) of 209 seeded echo covariances."""
    corpus = []

    def add(label, scenario, mode, trials):
        t = len(scenario.targets)
        corpus.extend((label, radar._eigenvectors(cov, t), t)
                      for cov in _trial_covariances(scenario, mode, trials))

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
    vecs = radar._eigenvectors(_cancellation_covariance(), 1)
    corpus.append(("noiseless on-grid target", vecs, 1))
    return corpus


# 0.07 deg gives 2573 points, a step of 180 / 2572 deg; at 0.5 deg every
# array here has a coarse stride below 8 grid steps
@pytest.mark.parametrize("grid_deg, fast_share", [(radar.MUSIC_GRID_DEG, 0.75), (0.07, 0.2),
                                                  (0.5, 0.0)])
def test_music_scan_matches_full_scan_bitwise(grid_deg, fast_share, scan_corpus):
    # music_estimate returns the two-level scan's result when there is one,
    # else the full scan's; both share the eigendecomposition
    moved, fast, degraded = [], 0, 0
    for label, vecs, t in scan_corpus:
        est, bad = radar._full_scan(vecs, t, grid_deg)
        found = radar._two_level_scan(vecs, t, grid_deg)
        if found is not None:
            fast += 1
            if not (np.array_equal(found[0], est) and found[1] == bad):
                moved.append(label)
        degraded += bad
    assert moved == []
    assert len(scan_corpus) == 209
    assert fast >= fast_share * len(scan_corpus)
    assert degraded > 0


def _counting_full_scan(monkeypatch):
    calls = []
    full_scan = radar._full_scan

    def counting(*args):
        calls.append(args)
        return full_scan(*args)

    monkeypatch.setattr(radar, "_full_scan", counting)
    return calls


def test_music_takes_the_two_level_scan_on_the_paper_geometry(monkeypatch):
    # a silent return to the full scan would keep every bit and lose the time
    calls = _counting_full_scan(monkeypatch)
    for p_dbm in (0.0, 10.0, 20.0):
        s = make_scenario(power_budget_dbm=p_dbm)
        rep = monte_carlo(s, design.run(s, "sgcdf"), 8)
        assert rep.degraded_trials == 0
    assert calls == []


def _fallback_case(case):
    """(covariance, targets, grid step) that sends MUSIC to the full scan."""
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
        cov = next(c for c in covs if _full_scan_estimate(c, 3, radar.MUSIC_GRID_DEG)[1])
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
    # the signal-subspace form cancels, and the full scan re-evaluates it
    return _cancellation_covariance(), 1, radar.MUSIC_GRID_DEG


@pytest.mark.parametrize("case", ["coarse grid", "one-point grid", "degraded", "grid end",
                                  "cancellation", "tied minima"])
def test_music_falls_back_to_the_full_scan(case, monkeypatch):
    cov, t, grid_deg = _fallback_case(case)
    ref_est, ref_bad = _full_scan_estimate(cov, t, grid_deg)
    calls = _counting_full_scan(monkeypatch)
    est, bad = music_estimate(cov, t, grid_deg)
    assert len(calls) == 1
    assert np.array_equal(est, ref_est) and bad == ref_bad
    assert bad == (case in ("one-point grid", "degraded"))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 64), data=st.data())
def test_interval_floors_bound_the_fine_denominator(m, data):
    # random orthonormal signal bases, or orthonormalised steering vectors
    # (a noiseless echo's subspace); the bound is loose: over 300 such bases
    # the deepest dip below an interval's lower end used 14% of h^2 C / 8,
    # so this catches a curvature bound several times too small
    t = data.draw(st.integers(1, min(m - 1, 6)), label="targets")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="steered"):
        z = steering_matrix(rng.uniform(-np.pi / 2, np.pi / 2, t), m)
    else:
        z = rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t))
    basis = np.linalg.qr(z)[0]
    theta_deg, a, a_norm2 = radar._grid(m, radar.MUSIC_GRID_DEG)
    step = theta_deg[1] - theta_deg[0]
    w = radar._coarse_stride(m, theta_deg.size)
    d = a_norm2 - radar._subspace_power(basis, a)
    ends = np.append(np.arange(0, d.size - 1, w), d.size - 1)
    floors = radar._interval_floors(basis, d[ends], np.deg2rad(w * step))
    # fine minimum over [ends[j], ends[j + 1]); each right end is an end too
    assert np.all(np.minimum.reduceat(d, ends[:-1]) >= floors - 1e-9 * m)
