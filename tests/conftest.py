"""Suite-wide pytest hooks.

The acceptance tests in test_acceptance.py each lock one end-to-end
requirement; after the run this hook prints a single verdict line per
criterion so the gate can be read at a glance.

BLAS runs on one thread: the bitwise MUSIC tests compare products of
different widths, which agree only with single-threaded BLAS (see the
``radar`` module docstring). OpenBLAS reads these variables when numpy
is first imported, which happens after this file loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_ACCEPTANCE_LABELS = {
    "test_gradients_match_finite_differences":
        "analytic gradients match central differences (rel 1e-5, 20 points)",
    "test_iterates_stay_on_manifold_and_projection_laws":
        "per-antenna power held at every probe of both stages; projection laws at 1e-10",
    "test_line_search_wolfe_and_monotone_descent":
        "strong Wolfe on every accepted step; monotone descent (10 instances)",
    "test_soc_membership_matches_sinr_constraints":
        "cone membership equals SINR feasibility (200 cases, 0 disagreements)",
    "test_equal_rate_allocation_fixed_point":
        "equal-rate powers hit the target rate (50 instances, 1e-8)",
    "test_two_stage_pipeline_ordering":
        "sum-CRLB ordered across rate floors (sensing <= 0.3 <= 0.5 <= 0.7)",
    "test_rate_floor_met_across_seeds":
        "designed min rate >= floor - 1e-6 on 20/20 seeds",
    "test_crlb_halves_when_power_doubles":
        "doubling the power budget halves the sum-CRLB within 2%",
    "test_rmse_tracks_crlb_with_power":
        "MUSIC RMSE decreasing, within [1,3]x of the bound, gap tightening",
    "test_beampattern_peaks_at_targets":
        "beampattern peaks within 2 deg of targets; rate floor costs < 6 dB",
    "test_omnidirectional_trace_is_flat":
        "omnidirectional beampattern flat below 1e-9 dB",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if status != "passed" or name not in outcomes:
                outcomes[name] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in _ACCEPTANCE_LABELS.items():
        if name not in outcomes:
            continue
        verdict = "PASS" if outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {label}")
